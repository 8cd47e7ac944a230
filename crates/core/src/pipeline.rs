//! The shared per-frame ingest pipeline (IT1–IT4 in Figure 4 of the paper).
//!
//! [`FramePipeline`] is the single implementation of the per-frame work.
//! Its driver is [`FocusService`](crate::service::FocusService), which
//! pushes frames through one pipeline per stream, sealing an epoch whenever
//! the stream's model changes and draining segments into a durable store;
//! a recorded dataset is replayed through the same driver with the model
//! held fixed.
//!
//! For every frame the pipeline
//!
//! 1. applies motion filtering (frames without moving objects are skipped),
//! 2. applies pixel differencing between objects in adjacent frames so
//!    near-identical observations reuse the previous classification,
//! 3. classifies each remaining object with the caller-supplied ingest CNN,
//!    obtaining its top-K classes and feature vector,
//! 4. clusters objects by feature vector with the single-pass incremental
//!    clusterer, and
//! 5. on [`seal_epoch`](FramePipeline::seal_epoch), writes one record per
//!    cluster into the top-K index (centroid object, the representative's
//!    top-K classes, and all member objects/frames), with the centroid's
//!    observation beside it in the index's centroid section.
//!
//! The classifier is an argument of [`push_frame`](FramePipeline::push_frame)
//! rather than pipeline state, so the streaming driver can swap models
//! between epochs (feature spaces of different models are not comparable,
//! which is why every epoch gets a fresh clusterer).
//!
//! Determinism: a pipeline's outputs are a pure function of the frame
//! sequence, the parameters and the classifier. Cluster keys are assigned
//! from a per-stream counter in epoch-seal order, so replaying the same
//! stream always yields byte-identical cluster records — the property that
//! makes the live service's index byte-identical to a bare pipeline's
//! replay of the same frames.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use focus_cluster::{ClusterMember, IncrementalClusterer};
use focus_cnn::{Classifier, GpuCost};
use focus_index::{ClusterKey, ClusterRecord, MemberRef, TopKIndex, TrackSketcher};
use focus_video::motion::PixelDiffOutcome;
use focus_video::{
    ClassId, Frame, FrameId, MotionFilter, ObjectId, ObjectObservation, PixelDiff, StreamId,
};

use crate::ingest::IngestParams;

/// Counters describing a pipeline's activity so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Frames pushed into the pipeline.
    pub frames: usize,
    /// Frames with at least one moving object.
    pub frames_with_motion: usize,
    /// Object observations seen in motion frames.
    pub objects: usize,
    /// Observations actually classified by the ingest CNN (after pixel
    /// differencing).
    pub objects_classified: usize,
    /// Clusters sealed into the index so far.
    pub clusters: usize,
    /// Epochs sealed so far.
    pub epochs_sealed: usize,
}

/// Per-epoch state: the clusterer plus the classification caches for the
/// objects ingested during the epoch.
struct Epoch {
    clusterer: IncrementalClusterer,
    top_k: HashMap<ObjectId, Vec<ClassId>>,
    observations: HashMap<ObjectId, ObjectObservation>,
}

impl Epoch {
    fn new(params: &IngestParams) -> Self {
        Self {
            clusterer: IncrementalClusterer::new(
                params.cluster_threshold.max(f32::EPSILON),
                params.max_active_clusters,
            ),
            top_k: HashMap::new(),
            observations: HashMap::new(),
        }
    }

    /// The index record of the epoch's cluster `members` under `key`, with
    /// the centroid observation query-time verification classifies: the
    /// representative (`members[0]`) is the centroid, and its cached top-K
    /// are the record's classes. The one record builder behind a seal, the
    /// clustering-off path and the tail part.
    fn make_record(
        &self,
        fps: u32,
        key: ClusterKey,
        members: &[ClusterMember],
    ) -> (ClusterRecord, ObjectObservation) {
        let representative = ObjectId(members[0].item);
        let centroid = self.observations[&representative].clone();
        let record = ClusterRecord {
            key,
            centroid_object: representative,
            centroid_frame: centroid.frame_id,
            top_k_classes: self.top_k.get(&representative).cloned().unwrap_or_default(),
            members: Vec::with_capacity(members.len()),
            start_secs: 0.0,
            end_secs: 0.0,
        };
        (self.extend_record(record, members, fps), centroid)
    }

    /// `record` with the epoch's members `added` appended and its time span
    /// re-taken over every member frame; key, classes and centroid stay.
    /// Growing a record member by member therefore yields the record built
    /// from all members at once, bit for bit.
    fn extend_record(
        &self,
        mut record: ClusterRecord,
        added: &[ClusterMember],
        fps: u32,
    ) -> ClusterRecord {
        record.members.extend(added.iter().map(|m| MemberRef {
            object: ObjectId(m.item),
            frame: FrameId(m.tag),
            track: self.observations[&ObjectId(m.item)].track_id,
        }));
        let frames = || record.members.iter().map(|m| m.frame.0);
        record.start_secs = frames().min().unwrap_or(0) as f64 / fps as f64;
        record.end_secs = frames().max().unwrap_or(0) as f64 / fps as f64;
        record
    }
}

/// One stream's hot tail as an immutable value: the records, sketches and
/// centroid observations [`FramePipeline::seal_segment`] would drain at the
/// instant the part was built.
///
/// Parts are handed out behind an [`Arc`] by
/// [`FramePipeline::peek_shared`] and never change afterwards, which is
/// what lets any number of readers share one build and keeps a
/// [`TailOverlay`](crate::query::segmented::TailOverlay) holding them
/// snapshot-consistent while the pipeline moves on. Their records are the
/// pipeline's shared `Arc`s: a record whose cluster did not grow between
/// two parts is the same allocation in both.
#[derive(Debug)]
pub struct TailPart {
    stream: StreamId,
    index: TopKIndex,
}

impl TailPart {
    /// Wraps one stream's tail snapshot.
    ///
    /// A part is stamped by the pipeline that built it: every record in
    /// `index` belongs to `stream`, because a pipeline only assigns keys of
    /// its own stream. The per-stream uniqueness check of a
    /// [`TailOverlay`](crate::query::segmented::TailOverlay) relies on the
    /// stamp, so only this crate constructs parts.
    pub(crate) fn new(stream: StreamId, index: TopKIndex) -> Self {
        Self { stream, index }
    }

    /// The stream whose pipeline this part was peeked from.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The part's records, track sketches and centroid observations.
    pub fn index(&self) -> &TopKIndex {
        &self.index
    }
}

/// The shared per-frame ingest pipeline for one stream.
pub struct FramePipeline {
    stream: StreamId,
    fps: u32,
    params: IngestParams,
    motion: MotionFilter,
    pixel_diff: PixelDiff,
    epoch: Epoch,
    sketcher: TrackSketcher,
    index: TopKIndex,
    next_cluster_key: u64,
    objects: usize,
    objects_classified: usize,
    clusters: usize,
    epochs_sealed: usize,
    gpu_cost: GpuCost,
    /// Bumped by every `&mut self` mutator: two reads at the same
    /// generation see the same pipeline state, so they can share one
    /// [`TailPart`].
    generation: u64,
    /// The generation of the last mutator that changed the tail other than
    /// by growing the live epoch's clusters — every one but a
    /// clustering-on frame push. A part built at the same base can be
    /// brought up to date from the clusterer alone.
    base: u64,
    /// The last part built, if any reader asked since. Writers never touch
    /// the slot — a stale part is replaced by the next
    /// [`peek_shared`](Self::peek_shared), not freed on the write path.
    tail_cache: Mutex<Option<TailCache>>,
}

/// The last [`TailPart`] a pipeline built, and what the next build needs to
/// start from it instead of from scratch.
struct TailCache {
    /// The pipeline generation the part was built at.
    generation: u64,
    /// The pipeline's `base` at that build.
    base: u64,
    /// How many members each live-epoch cluster (by `ClusterId`) had in
    /// the part; clusters past the end had none.
    seen: Vec<usize>,
    part: Arc<TailPart>,
}

impl std::fmt::Debug for FramePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramePipeline")
            .field("stream", &self.stream)
            .field("stats", &self.stats())
            .finish()
    }
}

impl FramePipeline {
    /// Creates a pipeline for one stream.
    pub fn new(stream: StreamId, fps: u32, params: IngestParams) -> Self {
        Self {
            stream,
            fps: fps.max(1),
            params,
            motion: MotionFilter::new(),
            pixel_diff: PixelDiff::new(),
            epoch: Epoch::new(&params),
            sketcher: TrackSketcher::new(stream),
            index: TopKIndex::new(),
            next_cluster_key: 0,
            objects: 0,
            objects_classified: 0,
            clusters: 0,
            epochs_sealed: 0,
            gpu_cost: GpuCost(0.0),
            generation: 0,
            base: 0,
            tail_cache: Mutex::new(None),
        }
    }

    /// The stream this pipeline ingests.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The parameters this pipeline runs with.
    pub fn params(&self) -> IngestParams {
        self.params
    }

    /// The stream's frame rate (clamped to at least 1 at construction).
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// The next cluster key this pipeline will assign.
    pub fn next_cluster_key(&self) -> u64 {
        self.next_cluster_key
    }

    /// Starts cluster-key assignment at `next` instead of zero — the
    /// recovery path for a pipeline resuming a stream whose earlier
    /// clusters were already sealed to durable segments (new keys must not
    /// collide with persisted ones).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline has already sealed a cluster or `next` would
    /// move the counter backwards.
    pub fn start_cluster_keys_at(&mut self, next: u64) {
        assert_eq!(self.clusters, 0, "cannot re-key a pipeline mid-stream");
        assert!(
            next >= self.next_cluster_key,
            "cluster keys must not move backwards"
        );
        self.rebase();
        self.next_cluster_key = next;
    }

    /// Installs new ingest parameters (K, clustering threshold, ...) for
    /// every epoch from now on — the reconfiguration path of the adaptive
    /// controller ([`crate::adapt`]). Parameters are epoch state (the
    /// clusterer is built from them), so the live epoch must be empty:
    /// callers seal the old configuration's epoch first, exactly like a
    /// model swap, and records sealed before the switch are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the live epoch already holds observations (the caller
    /// forgot to [`seal_epoch`](Self::seal_epoch) first).
    pub fn set_params(&mut self, params: IngestParams) {
        assert!(
            self.epoch.observations.is_empty(),
            "parameters can only change on an epoch boundary: seal the epoch first"
        );
        self.rebase();
        self.params = params;
        self.epoch = Epoch::new(&params);
    }

    /// Marks a change to the tail beyond the live epoch's clusters
    /// growing: the next [`peek_shared`](Self::peek_shared) builds from
    /// scratch.
    fn rebase(&mut self) {
        self.generation += 1;
        self.base = self.generation;
    }

    /// Activity counters.
    pub fn stats(&self) -> PipelineStats {
        let motion = self.motion.stats();
        PipelineStats {
            frames: motion.total_frames,
            frames_with_motion: motion.frames_with_motion,
            objects: self.objects,
            objects_classified: self.objects_classified,
            clusters: self.clusters,
            epochs_sealed: self.epochs_sealed,
        }
    }

    /// Total GPU time charged so far for ingest inferences.
    pub fn gpu_cost(&self) -> GpuCost {
        self.gpu_cost
    }

    /// Pushes one frame through motion filtering, pixel differencing,
    /// classification and clustering.
    ///
    /// GPU cost accrues lock-free in [`gpu_cost`](Self::gpu_cost); the
    /// service submits per-frame deltas to its GPU scheduler.
    pub fn push_frame(&mut self, frame: &Frame, classifier: &dyn Classifier) {
        self.push_frame_observed(frame, classifier, |_, _| {});
    }

    /// Like [`push_frame`](Self::push_frame), but invokes `observer` for
    /// every object observation that passed motion filtering, together with
    /// the running count of observed objects (1-based, including the current
    /// one). The streaming driver uses this hook to maintain its
    /// ground-truth-labelled retraining sample.
    pub fn push_frame_observed(
        &mut self,
        frame: &Frame,
        classifier: &dyn Classifier,
        mut observer: impl FnMut(&ObjectObservation, usize),
    ) {
        self.generation += 1;
        if !self.params.enable_clustering {
            // Singletons go straight into `self.index`, which a part only
            // takes in on a build from scratch.
            self.base = self.generation;
        }
        if !self.motion.admit(frame) {
            return;
        }
        for obj in &frame.objects {
            self.ingest_object(obj, frame.timestamp_secs, classifier);
            observer(obj, self.objects);
        }
    }

    /// IT2–IT4 for a single object observation.
    fn ingest_object(&mut self, obj: &ObjectObservation, secs: f64, classifier: &dyn Classifier) {
        self.objects += 1;
        // Every motion-admitted observation (even pixel-diff duplicates)
        // feeds its track's spatio-temporal sketch — the sketch must cover
        // the raw trajectory, or track-scoped planning loses recall.
        let (cx, cy) = obj.bbox.center();
        self.sketcher.observe(obj.track_id, secs, cx, cy);
        let source = if self.params.pixel_differencing {
            match self.pixel_diff.check(obj) {
                // Only duplicates of an object classified in the *current*
                // epoch can reuse a classification: earlier epochs used a
                // different model, so their cached outcomes do not apply.
                PixelDiffOutcome::DuplicateOf(original)
                    if self.epoch.top_k.contains_key(&original) =>
                {
                    Some(original)
                }
                _ => None,
            }
        } else {
            None
        };
        let (classes, features) = match source {
            Some(original) => {
                // Reuse the source's classification; re-extract the
                // (identical-signature) features from the source observation
                // so the cluster geometry matches.
                let classes = self.epoch.top_k[&original].clone();
                let features = classifier.extract_features(&self.epoch.observations[&original]);
                (classes, features)
            }
            None => {
                self.objects_classified += 1;
                self.gpu_cost += classifier.cost_per_inference();
                let ranked = classifier.classify_top_k(obj, self.params.k);
                (ranked.classes(), classifier.extract_features(obj))
            }
        };
        self.epoch.top_k.insert(obj.object_id, classes);
        self.epoch.observations.insert(obj.object_id, obj.clone());
        if self.params.enable_clustering {
            self.epoch
                .clusterer
                .add(obj.object_id.0, obj.frame_id.0, &features.0);
        } else {
            // Without clustering every object is sealed immediately as a
            // singleton cluster.
            let key = ClusterKey::new(self.stream, self.next_cluster_key);
            let member = ClusterMember {
                item: obj.object_id.0,
                tag: obj.frame_id.0,
            };
            let (record, centroid) = self.epoch.make_record(self.fps, key, &[member]);
            self.index.insert(record);
            self.index.insert_centroid(centroid);
            self.next_cluster_key += 1;
            self.clusters += 1;
        }
    }

    /// Seals the current epoch's clusters into the index and starts a fresh
    /// epoch. The service calls this when a stream's model changes, and
    /// every [`seal_segment`](Self::seal_segment) calls it before draining.
    pub fn seal_epoch(&mut self) {
        self.rebase();
        // Pixel-diff reuse is scoped to one epoch (the gate in
        // `ingest_object` already rejected cross-epoch duplicates), so the
        // filter's signature window resets with the epoch. This keeps the
        // whole per-epoch ingest state a function of the epoch's own
        // frames: a recovered pipeline that replays the frames since its
        // last sealed segment lands in exactly the state of one that never
        // crashed, which fleet failover relies on.
        self.pixel_diff.reset_window();
        let finished = std::mem::replace(&mut self.epoch, Epoch::new(&self.params));
        if self.params.enable_clustering {
            let mut seen = Vec::new();
            epoch_records(
                &finished,
                self.fps,
                ClusterKey::new(self.stream, self.next_cluster_key),
                &mut self.index,
                &mut seen,
            );
            self.clusters += seen.len();
            self.next_cluster_key += seen.len() as u64;
        }
        self.epochs_sealed += 1;
    }

    /// Seals the live epoch, then drains every record sealed so far, with
    /// its centroid observation, into a standalone index — the unit the
    /// service persists as one immutable time-partitioned segment (see
    /// [`StreamSegmenter`](crate::segment_ingest::StreamSegmenter)).
    ///
    /// Cluster keys keep counting monotonically across drains, so the
    /// drained indexes of one pipeline are key-disjoint by construction and
    /// merging them reproduces the index an undrained run of the same seal
    /// schedule would have built. Counters stay with the pipeline, so
    /// [`stats`](Self::stats) still reports whole-stream counters; the
    /// pipeline keeps no centroid it has drained.
    /// Sketch windows drain with the segment: every track observed since
    /// the last drain contributes one window sketch (the sketcher carries
    /// each track's last position across the boundary, so per-window
    /// absorb-merging downstream reconstructs exactly the continuous
    /// sketch — seal boundaries never change a track query's answer).
    pub fn seal_segment(&mut self) -> TopKIndex {
        self.rebase();
        self.seal_epoch();
        for sketch in self.sketcher.drain_window() {
            self.index.insert_sketch(sketch);
        }
        std::mem::take(&mut self.index)
    }

    /// A **non-destructive** snapshot of what
    /// [`seal_segment`](Self::seal_segment) would drain right now: every record sealed
    /// since the last drain plus the live epoch's clusters, with their
    /// centroid observations — in the index's centroid section, and again
    /// as a map by object id.
    ///
    /// The snapshot runs the sealing logic over the live epoch's state
    /// without consuming it — the same record builder, the same key rule —
    /// so its records are byte-identical to the records an actual seal
    /// at this instant would persist. This is the *hot tail* the live
    /// service overlays on top of its durable segments: a query issued
    /// mid-ingest sees exactly the union it would see after
    /// seal-everything-then-query (`tests/live_service.rs` pins this).
    /// It is always a build from scratch; [`peek_shared`](Self::peek_shared)
    /// is the cached, incremental form.
    pub fn peek_segment(&self) -> (TopKIndex, HashMap<ObjectId, ObjectObservation>) {
        let (index, _) = self.tail_index(None);
        let centroids = index.centroids().map(|o| (o.object_id, o.clone()));
        let centroids = centroids.collect();
        (index, centroids)
    }

    /// [`peek_segment`](Self::peek_segment)'s index, built on `previous` —
    /// an earlier part's index at the current base and the member counts it
    /// saw — or, without one, on a clone of the pipeline's index; returns
    /// it with the member counts it now holds. Either way the result is the
    /// same: a build from scratch is this build from an empty base.
    fn tail_index(&self, previous: Option<(TopKIndex, Vec<usize>)>) -> (TopKIndex, Vec<usize>) {
        let (mut index, mut seen) = previous.unwrap_or_else(|| (self.index.clone(), Vec::new()));
        if self.params.enable_clustering {
            epoch_records(
                &self.epoch,
                self.fps,
                ClusterKey::new(self.stream, self.next_cluster_key),
                &mut index,
                &mut seen,
            );
        }
        // `insert_sketch` merges, so the previous part's window sketches
        // must go before the current window's come in.
        index.clear_sketches();
        for sketch in self.index.sketches() {
            index.insert_sketch(sketch.clone());
        }
        for sketch in self.sketcher.snapshot_window() {
            index.insert_sketch(sketch);
        }
        (index, seen)
    }

    /// The [`peek_segment`](Self::peek_segment) snapshot as a shared,
    /// immutable [`TailPart`], built at most once per pipeline state and
    /// incrementally.
    ///
    /// Every `&mut self` mutator bumps the pipeline's generation; a part
    /// cached at the current generation is therefore exactly what
    /// `peek_segment` would rebuild, and is returned as is (O(1)).
    /// Otherwise the part is built while the cache slot is held, so
    /// concurrent readers of a freshly written pipeline wait for one build
    /// instead of each doing their own. If only clustering-on frame pushes
    /// came since the last build, the build starts from that part: its
    /// records stay shared, only clusters that gained members since get a
    /// new record (the old one plus the new members) and new clusters are
    /// added. Any other mutator makes the next build start from scratch.
    /// The cost model is reference-count bumps per tail record plus the
    /// records of the clusters that grew since the last read.
    ///
    /// Debug builds check every part they hand out — built or cached —
    /// against a fresh `peek_segment`, which turns every test that reads a
    /// live tail into a stale-cache detector; release builds skip the check.
    pub fn peek_shared(&self) -> Arc<TailPart> {
        let mut slot = self.tail_cache.lock();
        if let Some(cache) = slot.as_ref().filter(|c| c.generation == self.generation) {
            #[cfg(debug_assertions)]
            self.assert_coherent(&cache.part);
            return Arc::clone(&cache.part);
        }
        let previous = slot.take().filter(|c| c.base == self.base).map(|c| {
            // Readers done with the old part leave it to be reused in place.
            let index = Arc::try_unwrap(c.part).map_or_else(|p| p.index.clone(), |p| p.index);
            (index, c.seen)
        });
        let (index, seen) = self.tail_index(previous);
        let part = Arc::new(TailPart::new(self.stream, index));
        #[cfg(debug_assertions)]
        self.assert_coherent(&part);
        *slot = Some(TailCache {
            generation: self.generation,
            base: self.base,
            seen,
            part: Arc::clone(&part),
        });
        part
    }

    /// Panics unless `part` equals a fresh
    /// [`peek_segment`](Self::peek_segment): same records, same sketches,
    /// same centroids. A failure means some mutator forgot to bump the
    /// generation or the base, or an incremental build drifted from a
    /// build from scratch.
    #[cfg(debug_assertions)]
    fn assert_coherent(&self, part: &TailPart) {
        assert!(
            sorted_contents(&self.tail_index(None).0) == sorted_contents(&part.index),
            "stale tail part for stream {}: a mutator did not rebase, or an \
             incremental build drifted from a build from scratch",
            self.stream.0
        );
    }

    /// Puts a drained-but-not-persisted part back into the pipeline's
    /// index — the failure path of a durable seal: the records, sketches
    /// and centroid observations rejoin the hot tail (visible to
    /// [`peek_segment`](Self::peek_segment) again) and the next seal
    /// re-drains them, so a transient I/O error can never silently lose a
    /// time window.
    ///
    /// Counters were never removed by the drain, and the part's keys
    /// predate [`next_cluster_key`](Self::next_cluster_key), so restoration
    /// is pure re-insertion.
    ///
    /// # Panics
    ///
    /// Panics if the part shares a key with a live record (meaning it was
    /// not drained from this pipeline, or was restored twice).
    pub fn restore_drained(&mut self, part: TopKIndex) {
        self.rebase();
        let replaced = self.index.merge(part);
        assert_eq!(replaced, 0, "restored part must be key-disjoint");
    }
}

/// Brings `index` up to date with `epoch`'s clusters — the one loop behind
/// [`FramePipeline::seal_epoch`] (the pipeline's index, nothing seen yet)
/// and every tail build (a clone of that index, or the previous part's).
///
/// Cluster `id`'s key is `base.local + id`: ids are dense from 0, so these
/// are exactly the keys sealing in id order from `base` would assign, and
/// a peek and a real seal cannot drift apart. `seen[id]` is how many of the
/// cluster's members `index` already holds (a missing entry: none) and is
/// updated to all of them. A cluster that gained members has its record
/// grown in place by just those members; a new cluster — or one whose
/// earlier record `index` lacks — gets a record built whole, centroid
/// observation included; an unchanged one is left alone.
fn epoch_records(
    epoch: &Epoch,
    fps: u32,
    base: ClusterKey,
    index: &mut TopKIndex,
    seen: &mut Vec<usize>,
) {
    for (id, members) in epoch.clusterer.clusters() {
        let id = id.0 as usize;
        if seen.len() <= id {
            seen.resize(id + 1, 0);
        }
        let held = std::mem::replace(&mut seen[id], members.len());
        if held == members.len() {
            continue;
        }
        let key = ClusterKey::new(base.stream, base.local + id as u64);
        // A grown record has the old one's shape, so it swaps in with
        // postings and centroid untouched.
        let grown = match (index.get(key), members.get(held..)) {
            (Some(old), Some(added)) if held > 0 => {
                let mut kept = Vec::with_capacity(old.members.len() + added.len());
                kept.extend_from_slice(&old.members);
                let record = ClusterRecord {
                    members: kept,
                    top_k_classes: old.top_k_classes.clone(),
                    ..**old
                };
                Some(epoch.extend_record(record, added, fps))
            }
            _ => None,
        };
        if !grown.is_some_and(|record| index.replace_same_shape(record)) {
            let (record, centroid) = epoch.make_record(fps, key, members);
            index.insert(record);
            index.insert_centroid(centroid);
        }
    }
}

/// An index's records, sketches and centroid observations, each sorted by
/// key: what two tail builds must agree on.
#[cfg(any(test, debug_assertions))]
fn sorted_contents(
    index: &TopKIndex,
) -> (
    Vec<&ClusterRecord>,
    Vec<&focus_index::TrackSketch>,
    Vec<&ObjectObservation>,
) {
    let mut records: Vec<_> = index.clusters().collect();
    records.sort_by_key(|r| r.key);
    let mut sketches: Vec<_> = index.sketches().collect();
    sketches.sort_by_key(|s| s.key);
    let mut centroids: Vec<_> = index.centroids().collect();
    centroids.sort_by_key(|o| o.object_id);
    (records, sketches, centroids)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ingest::IngestCnn;
    use focus_cnn::ModelSpec;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    /// `dataset` replayed frame by frame through a fresh pipeline that
    /// classifies with `model`.
    pub(crate) fn replay(
        dataset: &VideoDataset,
        model: &IngestCnn,
        params: IngestParams,
    ) -> FramePipeline {
        let profile = &dataset.profile;
        let mut pipeline = FramePipeline::new(profile.stream_id, profile.fps, params);
        for frame in &dataset.frames {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        pipeline
    }

    /// Everything a pipeline produced, once its last segment is drained.
    struct Drained {
        index: TopKIndex,
        gpu_cost: GpuCost,
        stats: PipelineStats,
    }

    /// Seals `pipeline`'s live epoch and drains it, with the whole-run
    /// counters and GPU cost.
    fn drain(mut pipeline: FramePipeline) -> Drained {
        let index = pipeline.seal_segment();
        Drained {
            index,
            gpu_cost: pipeline.gpu_cost(),
            stats: pipeline.stats(),
        }
    }

    fn run_pipeline(params: IngestParams) -> Drained {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile, 60.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        drain(replay(&dataset, &model, params))
    }

    #[test]
    fn pipeline_indexes_every_object_exactly_once() {
        let output = run_pipeline(IngestParams::default());
        let indexed: usize = output.index.clusters().map(|c| c.len()).sum();
        assert_eq!(indexed, output.stats.objects);
        assert_eq!(output.stats.clusters, output.index.len());
        assert_eq!(output.stats.epochs_sealed, 1);
        for record in output.index.clusters() {
            assert!(output.index.centroid(record.centroid_object).is_some());
        }
        assert_eq!(output.index.centroids().count(), output.index.len());
    }

    #[test]
    fn observer_sees_every_motion_object_in_order() {
        let profile = profile_by_name("lausanne").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 45.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_2());
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        let mut seen = Vec::new();
        for frame in &dataset.frames {
            pipeline.push_frame_observed(frame, model.classifier.as_ref(), |obj, n| {
                seen.push((obj.object_id, n));
            });
        }
        assert_eq!(seen.len(), pipeline.stats().objects);
        for (i, (_, n)) in seen.iter().enumerate() {
            assert_eq!(*n, i + 1, "observer count must be the running total");
        }
    }

    #[test]
    fn sealing_between_epochs_keeps_cluster_keys_unique() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 40.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        let half = dataset.frames.len() / 2;
        for frame in &dataset.frames[..half] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        pipeline.seal_epoch();
        for frame in &dataset.frames[half..] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let output = drain(pipeline);
        assert_eq!(output.stats.epochs_sealed, 2);
        let mut keys: Vec<_> = output.index.clusters().map(|r| r.key).collect();
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(
            keys.len(),
            total,
            "cluster keys must be unique across epochs"
        );
        let indexed: usize = output.index.clusters().map(|c| c.len()).sum();
        assert_eq!(indexed, output.stats.objects);
    }

    #[test]
    fn draining_segments_is_equivalent_to_sealing_in_place() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 40.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let half = dataset.frames.len() / 2;

        // Reference: seal the epoch in place, keep accumulating.
        let mut sealed =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        for frame in &dataset.frames[..half] {
            sealed.push_frame(frame, model.classifier.as_ref());
        }
        sealed.seal_epoch();
        for frame in &dataset.frames[half..] {
            sealed.push_frame(frame, model.classifier.as_ref());
        }
        let sealed = drain(sealed);

        // Drained: same schedule, but the first seal drains a segment.
        let mut drained =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        for frame in &dataset.frames[..half] {
            drained.push_frame(frame, model.classifier.as_ref());
        }
        let part1 = drained.seal_segment();
        // The drain took the centroids with their records: the part holds
        // one per record, the pipeline none.
        assert_eq!(part1.centroids().count(), part1.len());
        assert_eq!(drained.peek_segment().0.centroids().count(), 0);
        for frame in &dataset.frames[half..] {
            drained.push_frame(frame, model.classifier.as_ref());
        }
        let drained = drain(drained);

        let mut merged = part1;
        assert_eq!(merged.merge_from(&drained.index), 0);
        assert_eq!(
            focus_index::persist::to_json(&merged).unwrap(),
            focus_index::persist::to_json(&sealed.index).unwrap()
        );
        // Stats are cumulative despite the drain; the centroids are in the
        // parts, so the merged JSON above compared them too.
        assert_eq!(drained.stats, sealed.stats);
        assert_eq!(merged.centroids().count(), sealed.index.len());
    }

    #[test]
    fn peek_segment_matches_an_actual_seal() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 30.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        for enable_clustering in [true, false] {
            let params = IngestParams {
                enable_clustering,
                ..IngestParams::default()
            };
            let mut pipeline = FramePipeline::new(profile.stream_id, profile.fps, params);
            // Peek at several points mid-stream: each snapshot must be
            // byte-identical to what sealing at that instant would drain,
            // without disturbing the pipeline.
            for (i, frame) in dataset.frames.iter().enumerate() {
                pipeline.push_frame(frame, model.classifier.as_ref());
                if i == dataset.frames.len() / 2 {
                    let stats_before = pipeline.stats();
                    let (peeked, peeked_centroids) = pipeline.peek_segment();
                    assert_eq!(pipeline.stats(), stats_before, "peek must not mutate");
                    let mut twin = FramePipeline::new(profile.stream_id, profile.fps, params);
                    for frame in &dataset.frames[..=i] {
                        twin.push_frame(frame, model.classifier.as_ref());
                    }
                    let sealed = twin.seal_segment();
                    assert_eq!(
                        focus_index::persist::to_json(&peeked).unwrap(),
                        focus_index::persist::to_json(&sealed).unwrap()
                    );
                    // Every snapshot record's centroid observation came along,
                    // in the index and in the map.
                    assert_eq!(peeked_centroids.len(), peeked.len());
                    for record in peeked.clusters() {
                        let id = record.centroid_object;
                        assert_eq!(Some(&peeked_centroids[&id]), sealed.centroid(id));
                    }
                }
            }
            // The pipeline kept running unaffected: a final peek equals a
            // final seal.
            let (peeked, _) = pipeline.peek_segment();
            let sealed = pipeline.seal_segment();
            assert_eq!(
                focus_index::persist::to_json(&peeked).unwrap(),
                focus_index::persist::to_json(&sealed).unwrap()
            );
        }
    }

    /// The three properties the shared tail part must have: every mutator
    /// invalidates it, a rebuilt part equals a fresh `peek_segment`, and
    /// reads with no write in between share one `Arc`.
    #[test]
    fn peek_shared_rebuilds_after_every_mutator_and_only_then() {
        fn check(pipeline: &FramePipeline, previous: &Arc<TailPart>, after: &str) -> Arc<TailPart> {
            let part = pipeline.peek_shared();
            assert!(
                !Arc::ptr_eq(&part, previous),
                "{after} must invalidate the shared part"
            );
            let (index, _) = pipeline.peek_segment();
            assert_eq!(
                focus_index::persist::to_json(part.index()).unwrap(),
                focus_index::persist::to_json(&index).unwrap(),
                "after {after}"
            );
            assert_eq!(part.stream(), pipeline.stream());
            assert!(
                Arc::ptr_eq(&part, &pipeline.peek_shared()),
                "no write since {after}: the part is shared, not rebuilt"
            );
            part
        }

        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 30.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let third = dataset.frames.len() / 3;
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        let part = pipeline.peek_shared();
        assert!(Arc::ptr_eq(&part, &pipeline.peek_shared()));

        pipeline.start_cluster_keys_at(7);
        let part = check(&pipeline, &part, "start_cluster_keys_at");
        pipeline.push_frame(&dataset.frames[0], model.classifier.as_ref());
        let mut part = check(&pipeline, &part, "push_frame");
        for frame in &dataset.frames[1..third] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        part = check(&pipeline, &part, "more frames");
        assert!(!part.index().is_empty());
        pipeline.seal_epoch();
        let part = check(&pipeline, &part, "seal_epoch");
        pipeline.set_params(IngestParams {
            k: 3,
            ..IngestParams::default()
        });
        let mut part = check(&pipeline, &part, "set_params");
        for frame in &dataset.frames[third..2 * third] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        part = check(&pipeline, &part, "frames under the new parameters");
        let drained = pipeline.seal_segment();
        let part = check(&pipeline, &part, "seal_segment");
        assert!(part.index().is_empty(), "the drain emptied the tail");
        pipeline.restore_drained(drained);
        let part = check(&pipeline, &part, "restore_drained");
        assert!(!part.index().is_empty());
    }

    /// A part built after frame pushes alone starts from the previous part:
    /// a record whose cluster gained no member in between is the same
    /// allocation in both parts, and only the clusters that grew got a new
    /// one. A builder that quietly rebuilt every record would fail here.
    #[test]
    fn records_of_clusters_that_did_not_grow_are_shared_between_parts() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 30.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        let (first, second) = dataset.frames.split_at(dataset.frames.len() / 2);
        for frame in first {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let before = pipeline.peek_shared();
        for frame in &second[..30] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let after = pipeline.peek_shared();
        let (mut shared, mut grown) = (0, 0);
        for record in before.index().clusters() {
            let old = before.index().get(record.key).unwrap();
            let new = after.index().get(record.key).unwrap();
            if new.len() == old.len() {
                assert!(Arc::ptr_eq(old, new), "{:?} did not grow", record.key);
                shared += 1;
            } else {
                assert!(!Arc::ptr_eq(old, new));
                assert_eq!(new.members[..old.len()], old.members[..]);
                grown += 1;
            }
        }
        assert!(shared > 0 && grown > 0, "{shared} shared, {grown} grown");
        assert!(
            after.index().len() > before.index().len(),
            "clusters opened"
        );
    }

    #[test]
    fn resumed_cluster_keys_start_where_told() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 10.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        pipeline.start_cluster_keys_at(42);
        assert_eq!(pipeline.next_cluster_key(), 42);
        for frame in &dataset.frames {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let output = drain(pipeline);
        assert!(output.index.clusters().all(|r| r.key.local >= 42));
    }

    #[test]
    #[should_panic(expected = "mid-stream")]
    fn re_keying_a_started_pipeline_panics() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 10.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline = replay(&dataset, &model, IngestParams::default());
        pipeline.seal_epoch();
        pipeline.start_cluster_keys_at(1_000);
    }

    #[test]
    fn set_params_on_an_epoch_boundary_preserves_sealed_records() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 40.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let half = dataset.frames.len() / 2;
        let before = IngestParams {
            k: 10,
            ..IngestParams::default()
        };
        let after = IngestParams {
            k: 3,
            cluster_threshold: 0.8,
            ..IngestParams::default()
        };

        let mut pipeline = FramePipeline::new(profile.stream_id, profile.fps, before);
        for frame in &dataset.frames[..half] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        // Reference snapshot of the pre-switch records.
        let (reference, _) = pipeline.peek_segment();
        pipeline.seal_epoch();
        pipeline.set_params(after);
        assert_eq!(pipeline.params(), after);
        for frame in &dataset.frames[half..] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let output = drain(pipeline);

        // Pre-switch records are byte-identical to the pre-switch snapshot;
        // post-switch records carry the new K.
        let reference_keys: std::collections::HashSet<_> =
            reference.clusters().map(|r| r.key).collect();
        for record in output.index.clusters() {
            if reference_keys.contains(&record.key) {
                assert_eq!(
                    serde_json::to_string(record).unwrap(),
                    serde_json::to_string(&**reference.get(record.key).unwrap()).unwrap()
                );
            } else {
                assert_eq!(record.top_k_classes.len(), after.k);
            }
        }
        let indexed: usize = output.index.clusters().map(|c| c.len()).sum();
        assert_eq!(
            indexed, output.stats.objects,
            "no object lost by the switch"
        );
    }

    #[test]
    #[should_panic(expected = "epoch boundary")]
    fn set_params_mid_epoch_panics() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 5.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline = replay(&dataset, &model, IngestParams::default());
        pipeline.set_params(IngestParams::default());
    }

    #[test]
    fn disabling_clustering_seals_singletons_immediately() {
        let output = run_pipeline(IngestParams {
            enable_clustering: false,
            ..IngestParams::default()
        });
        assert_eq!(output.stats.clusters, output.stats.objects);
        for record in output.index.clusters() {
            assert_eq!(record.len(), 1);
        }
    }

    #[test]
    fn replaying_the_same_stream_is_deterministic() {
        let a = run_pipeline(IngestParams::default());
        let b = run_pipeline(IngestParams::default());
        assert_eq!(
            a.gpu_cost.seconds().to_bits(),
            b.gpu_cost.seconds().to_bits()
        );
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            focus_index::persist::to_json(&a.index).unwrap(),
            focus_index::persist::to_json(&b.index).unwrap()
        );
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::ingest::IngestCnn;
    use focus_cnn::ModelSpec;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn dataset() -> &'static VideoDataset {
        static DATASET: OnceLock<VideoDataset> = OnceLock::new();
        DATASET.get_or_init(|| VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0))
    }

    /// The parameters a `set_params` step installs: the defaults, another
    /// K and threshold, a two-cluster cap (so clusters spill), or clustering
    /// switched.
    fn params_variant(current: IngestParams, variant: usize) -> IngestParams {
        match variant % 4 {
            0 => IngestParams::default(),
            1 => IngestParams {
                k: 3,
                cluster_threshold: 0.8,
                ..current
            },
            2 => IngestParams {
                max_active_clusters: 2,
                ..current
            },
            _ => IngestParams {
                enable_clustering: !current.enable_clustering,
                ..current
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Incremental equals from scratch: across random interleavings of
        /// frame bursts, reads, epoch seals, parameter switches, segment
        /// drains and restores, and re-keying while no cluster is sealed —
        /// clustering on and off, keys started anywhere — every part `peek_shared` hands out holds exactly the
        /// records, sketches and centroids of a fresh `peek_segment`. Release
        /// builds skip the debug stale-tail check, so this is what holds the
        /// path the service runs to the reference.
        #[test]
        fn every_shared_part_equals_a_build_from_scratch(
            (clustering, small_cap, first_key) in (0usize..2, 0usize..3, 0u64..1_000),
            steps in prop::collection::vec((0usize..11, 0usize..61), 1..28),
        ) {
            let dataset = dataset();
            let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
            let params = IngestParams {
                enable_clustering: clustering == 1,
                max_active_clusters: if small_cap == 0 { 3 } else { 512 },
                ..IngestParams::default()
            };
            let mut pipeline =
                FramePipeline::new(dataset.profile.stream_id, dataset.profile.fps, params);
            pipeline.start_cluster_keys_at(first_key);
            let mut frames = dataset.frames.iter();
            let mut drained = None;
            // A part a reader still holds: the next build cannot reuse it
            // in place and must copy it.
            let mut held = None;
            for (i, &(op, arg)) in steps.iter().enumerate() {
                match op {
                    0..=4 => {
                        for frame in frames.by_ref().take(arg) {
                            pipeline.push_frame(frame, model.classifier.as_ref());
                        }
                    }
                    5 => held = Some(pipeline.peek_shared()),
                    6 => pipeline.seal_epoch(),
                    7 => {
                        pipeline.seal_epoch();
                        pipeline.set_params(params_variant(pipeline.params(), arg));
                    }
                    8 => drained = Some(pipeline.seal_segment()),
                    9 => {
                        if let Some(part) = drained.take() {
                            pipeline.restore_drained(part);
                        }
                    }
                    // Re-keying is allowed until a cluster is sealed, so
                    // also mid-epoch, after a read.
                    _ => {
                        if pipeline.stats().clusters == 0 {
                            pipeline.start_cluster_keys_at(pipeline.next_cluster_key() + arg as u64);
                        }
                    }
                }
                let part = pipeline.peek_shared();
                let (fresh, _) = pipeline.peek_segment();
                prop_assert!(
                    sorted_contents(part.index()) == sorted_contents(&fresh),
                    "step {i} (op {op}, arg {arg}): the shared part differs from peek_segment"
                );
            }
            drop(held);
        }
    }
}
