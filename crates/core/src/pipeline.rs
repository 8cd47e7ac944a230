//! The shared per-frame ingest pipeline (IT1–IT4 in Figure 4 of the paper).
//!
//! [`FramePipeline`] is the single implementation of the per-frame work
//! every ingest driver runs on:
//!
//! * [`IngestEngine`](crate::ingest::IngestEngine) replays a recorded
//!   dataset through one pipeline (batch driver);
//! * [`FocusService`](crate::service::FocusService) pushes live frames
//!   through one pipeline per stream, sealing an epoch whenever the
//!   stream's model changes and draining segments into a durable store
//!   (streaming driver).
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
//!    top-K classes, and all member objects/frames).
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
//! makes the live service's index byte-identical to a batch run's.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use focus_cluster::IncrementalClusterer;
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

/// Everything a finished pipeline produced.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The per-stream top-K index.
    pub index: TopKIndex,
    /// The centroid observation of every cluster, keyed by object id.
    pub centroids: HashMap<ObjectId, ObjectObservation>,
    /// Total GPU time charged for ingest CNN inferences.
    pub gpu_cost: GpuCost,
    /// Activity counters.
    pub stats: PipelineStats,
    /// Parameters the pipeline ran with.
    pub params: IngestParams,
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
}

/// One stream's hot tail as an immutable value: the records and sketches
/// [`FramePipeline::seal_segment`] would drain at the instant the part was
/// built, plus the centroid observation behind every record.
///
/// Parts are handed out behind an [`Arc`] by
/// [`FramePipeline::peek_shared`] and never change afterwards, which is
/// what lets any number of readers share one build and keeps a
/// [`TailOverlay`](crate::query::segmented::TailOverlay) holding them
/// snapshot-consistent while the pipeline moves on.
#[derive(Debug)]
pub struct TailPart {
    stream: StreamId,
    index: TopKIndex,
    centroids: HashMap<ObjectId, ObjectObservation>,
}

impl TailPart {
    /// Wraps one stream's tail snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a record belongs to a stream other than `stream` (the
    /// per-stream uniqueness check of a
    /// [`TailOverlay`](crate::query::segmented::TailOverlay) relies on the
    /// stamp).
    pub fn new(
        stream: StreamId,
        index: TopKIndex,
        centroids: HashMap<ObjectId, ObjectObservation>,
    ) -> Self {
        assert!(
            index.clusters().all(|r| r.key.stream == stream),
            "a tail part holds the records of exactly one stream"
        );
        Self {
            stream,
            index,
            centroids,
        }
    }

    /// The stream whose pipeline this part was peeked from.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// The part's records and track sketches.
    pub fn index(&self) -> &TopKIndex {
        &self.index
    }

    /// The centroid observation of every record in the part.
    pub fn centroids(&self) -> &HashMap<ObjectId, ObjectObservation> {
        &self.centroids
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
    centroids: HashMap<ObjectId, ObjectObservation>,
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
    /// The part built at `generation` (first field), if any reader asked
    /// since. Writers never touch the slot — a stale part is replaced by
    /// the next [`peek_shared`](Self::peek_shared), not freed on the write
    /// path.
    tail_cache: Mutex<Option<(u64, Arc<TailPart>)>>,
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
            centroids: HashMap::new(),
            next_cluster_key: 0,
            objects: 0,
            objects_classified: 0,
            clusters: 0,
            epochs_sealed: 0,
            gpu_cost: GpuCost(0.0),
            generation: 0,
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

    /// The centroid observation of every cluster sealed so far, keyed by
    /// object id. Cumulative across segment drains — this is the map the
    /// query-time verification stage reads.
    pub fn centroids(&self) -> &HashMap<ObjectId, ObjectObservation> {
        &self.centroids
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
        self.generation += 1;
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
        self.generation += 1;
        self.params = params;
        self.epoch = Epoch::new(&params);
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
    /// GPU cost accrues lock-free in [`gpu_cost`](Self::gpu_cost); drivers
    /// decide how to surface it on a [`GpuMeter`](focus_runtime::GpuMeter)
    /// (the batch driver charges once per run, the streaming driver
    /// charges per-frame deltas for live accounting).
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
            let record = build_record(
                self.stream,
                self.fps,
                &self.epoch.top_k,
                &self.epoch.observations,
                &mut self.centroids,
                &mut self.next_cluster_key,
                obj.object_id,
                vec![MemberRef {
                    object: obj.object_id,
                    frame: obj.frame_id,
                    track: obj.track_id,
                }],
            );
            self.index.insert(record);
            self.clusters += 1;
        }
    }

    /// Seals the current epoch's clusters into the index and starts a fresh
    /// epoch. The streaming driver calls this when its model changes; both
    /// drivers call it (via [`finish`](Self::finish)) at the end of input.
    pub fn seal_epoch(&mut self) {
        self.generation += 1;
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
            for record in epoch_records(
                self.stream,
                self.fps,
                finished.clusterer,
                &finished.top_k,
                &finished.observations,
                &mut self.centroids,
                &mut self.next_cluster_key,
            ) {
                self.index.insert(record);
                self.clusters += 1;
            }
        }
        self.epochs_sealed += 1;
    }

    /// Seals the live epoch, then drains every record sealed so far into a
    /// standalone index — the unit the service persists as one immutable
    /// time-partitioned segment (see
    /// [`StreamSegmenter`](crate::segment_ingest::StreamSegmenter)).
    ///
    /// Cluster keys keep counting monotonically across drains, so the
    /// drained indexes of one pipeline are key-disjoint by construction and
    /// merging them reproduces the index an undrained run of the same seal
    /// schedule would have built. Centroid observations and counters stay
    /// with the pipeline (cumulative), so [`finish`](Self::finish) still
    /// reports whole-stream stats and the full centroid map.
    /// Sketch windows drain with the segment: every track observed since
    /// the last drain contributes one window sketch (the sketcher carries
    /// each track's last position across the boundary, so per-window
    /// absorb-merging downstream reconstructs exactly the continuous
    /// sketch — seal boundaries never change a track query's answer).
    pub fn seal_segment(&mut self) -> TopKIndex {
        self.generation += 1;
        self.seal_epoch();
        for sketch in self.sketcher.drain_window() {
            self.index.insert_sketch(sketch);
        }
        std::mem::take(&mut self.index)
    }

    /// A **non-destructive** snapshot of what
    /// [`seal_segment`](Self::seal_segment) would drain right now: every record sealed
    /// since the last drain plus the live epoch's clusters, together with
    /// the centroid observation of each record.
    ///
    /// The snapshot replays the sealing logic on a clone of the live
    /// epoch's state — same clusterer outcome, same cluster-key assignment
    /// — so its records are byte-identical to the records an actual seal
    /// at this instant would persist. This is the *hot tail* the live
    /// service overlays on top of its durable segments: a query issued
    /// mid-ingest sees exactly the union it would see after
    /// seal-everything-then-query (`tests/live_service.rs` pins this).
    pub fn peek_segment(&self) -> (TopKIndex, HashMap<ObjectId, ObjectObservation>) {
        let mut index = self.index.clone();
        let mut centroids: HashMap<ObjectId, ObjectObservation> = self
            .index
            .clusters()
            .map(|r| {
                (
                    r.centroid_object,
                    self.centroids[&r.centroid_object].clone(),
                )
            })
            .collect();
        let mut next_key = self.next_cluster_key;
        if self.params.enable_clustering {
            for record in epoch_records(
                self.stream,
                self.fps,
                self.epoch.clusterer.clone(),
                &self.epoch.top_k,
                &self.epoch.observations,
                &mut centroids,
                &mut next_key,
            ) {
                index.insert(record);
            }
        }
        for sketch in self.sketcher.snapshot_window() {
            index.insert_sketch(sketch);
        }
        (index, centroids)
    }

    /// The [`peek_segment`](Self::peek_segment) snapshot as a shared,
    /// immutable [`TailPart`], built at most once per pipeline state.
    ///
    /// Every `&mut self` mutator bumps the pipeline's generation; a part
    /// cached at the current generation is therefore exactly what
    /// `peek_segment` would rebuild, and is returned as is (O(1)).
    /// Otherwise the part is built while the cache slot is held, so
    /// concurrent readers of a freshly written pipeline wait for one build
    /// instead of each doing their own. The cost model is one build per
    /// write burst, not one per read.
    ///
    /// Debug builds rebuild on every hit and assert the cached part still
    /// equals a fresh peek, which turns every test that reads a live tail
    /// into a stale-cache detector; release builds skip the check.
    pub fn peek_shared(&self) -> Arc<TailPart> {
        let mut slot = self.tail_cache.lock();
        if let Some((generation, part)) = slot.as_ref() {
            if *generation == self.generation {
                #[cfg(debug_assertions)]
                self.assert_coherent(part);
                return Arc::clone(part);
            }
        }
        let (index, centroids) = self.peek_segment();
        let part = Arc::new(TailPart::new(self.stream, index, centroids));
        *slot = Some((self.generation, Arc::clone(&part)));
        part
    }

    /// Panics unless `cached` equals a fresh
    /// [`peek_segment`](Self::peek_segment): same records, same sketches,
    /// same centroids. A failure means some mutator forgot to bump the
    /// generation.
    #[cfg(debug_assertions)]
    fn assert_coherent(&self, cached: &TailPart) {
        fn sorted(index: &TopKIndex) -> (Vec<&ClusterRecord>, Vec<&focus_index::TrackSketch>) {
            let mut records: Vec<_> = index.clusters().collect();
            records.sort_by_key(|r| r.key);
            let mut sketches: Vec<_> = index.sketches().collect();
            sketches.sort_by_key(|s| s.key);
            (records, sketches)
        }
        let (index, centroids) = self.peek_segment();
        assert!(
            sorted(&index) == sorted(&cached.index) && centroids == cached.centroids,
            "stale tail part for stream {}: a mutator did not bump the generation",
            self.stream.0
        );
    }

    /// Puts a drained-but-not-persisted part back into the pipeline's
    /// index — the failure path of a durable seal: the records rejoin the
    /// hot tail (visible to [`peek_segment`](Self::peek_segment) again)
    /// and the next seal re-drains them, so a transient I/O error can
    /// never silently lose a time window.
    ///
    /// Centroids and counters were never removed by the drain (both are
    /// cumulative), and the part's keys predate
    /// [`next_cluster_key`](Self::next_cluster_key), so restoration is
    /// pure record re-insertion.
    ///
    /// # Panics
    ///
    /// Panics if the part shares a key with a live record (meaning it was
    /// not drained from this pipeline, or was restored twice).
    pub fn restore_drained(&mut self, part: TopKIndex) {
        self.generation += 1;
        let replaced = self.index.merge(part);
        assert_eq!(replaced, 0, "restored part must be key-disjoint");
    }

    /// Seals the live epoch and returns everything the pipeline produced,
    /// consuming it.
    ///
    /// If [`seal_segment`](Self::seal_segment) was used to drain records
    /// along the way, the returned index holds only the records sealed
    /// since the last drain; the centroid map and counters always cover the
    /// whole run.
    pub fn finish(mut self) -> PipelineOutput {
        self.seal_epoch();
        for sketch in self.sketcher.drain_window() {
            self.index.insert_sketch(sketch);
        }
        let stats = self.stats();
        PipelineOutput {
            index: self.index,
            centroids: self.centroids,
            gpu_cost: self.gpu_cost,
            stats,
            params: self.params,
        }
    }
}

/// Turns an epoch's finished clusters into index records, in the
/// clusterer's finish order: resolves each cluster's members, remembers its
/// centroid observation in `centroids` and draws its key from
/// `next_cluster_key`. The one loop behind both
/// [`FramePipeline::seal_epoch`] (the epoch's own clusterer, the pipeline's
/// centroid map and key counter) and [`FramePipeline::peek_segment`] (a
/// clone of the clusterer, scratch map and counter), so a peek and a real
/// seal cannot drift apart.
fn epoch_records(
    stream: StreamId,
    fps: u32,
    clusterer: IncrementalClusterer,
    top_k: &HashMap<ObjectId, Vec<ClassId>>,
    observations: &HashMap<ObjectId, ObjectObservation>,
    centroids: &mut HashMap<ObjectId, ObjectObservation>,
    next_cluster_key: &mut u64,
) -> Vec<ClusterRecord> {
    let (clusters, _stats) = clusterer.finish();
    clusters
        .into_iter()
        .map(|cluster| {
            let members = cluster
                .members
                .iter()
                .map(|m| MemberRef {
                    object: ObjectId(m.item),
                    frame: FrameId(m.tag),
                    track: observations[&ObjectId(m.item)].track_id,
                })
                .collect();
            build_record(
                stream,
                fps,
                top_k,
                observations,
                centroids,
                next_cluster_key,
                ObjectId(cluster.representative().item),
                members,
            )
        })
        .collect()
}

/// Builds the index record for a finished cluster: resolves the
/// representative's cached top-K and observation, remembers the centroid
/// observation in `centroids` for query-time verification, and assigns the
/// next sequential cluster key.
#[allow(clippy::too_many_arguments)]
fn build_record(
    stream: StreamId,
    fps: u32,
    top_k: &HashMap<ObjectId, Vec<ClassId>>,
    observations: &HashMap<ObjectId, ObjectObservation>,
    centroids: &mut HashMap<ObjectId, ObjectObservation>,
    next_cluster_key: &mut u64,
    representative: ObjectId,
    members: Vec<MemberRef>,
) -> ClusterRecord {
    let classes = top_k.get(&representative).cloned().unwrap_or_default();
    let start = members.iter().map(|m| m.frame.0).min().unwrap_or(0) as f64 / fps as f64;
    let end = members.iter().map(|m| m.frame.0).max().unwrap_or(0) as f64 / fps as f64;
    let centroid_frame = observations[&representative].frame_id;
    centroids.insert(representative, observations[&representative].clone());
    let key = ClusterKey::new(stream, *next_cluster_key);
    *next_cluster_key += 1;
    ClusterRecord {
        key,
        centroid_object: representative,
        centroid_frame,
        top_k_classes: classes,
        members,
        start_secs: start,
        end_secs: end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestCnn;
    use focus_cnn::ModelSpec;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    fn run_pipeline(params: IngestParams) -> PipelineOutput {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 60.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline = FramePipeline::new(profile.stream_id, profile.fps, params);
        for frame in &dataset.frames {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        pipeline.finish()
    }

    #[test]
    fn pipeline_indexes_every_object_exactly_once() {
        let output = run_pipeline(IngestParams::default());
        let indexed: usize = output.index.clusters().map(|c| c.len()).sum();
        assert_eq!(indexed, output.stats.objects);
        assert_eq!(output.stats.clusters, output.index.len());
        assert_eq!(output.stats.epochs_sealed, 1);
        for record in output.index.clusters() {
            assert!(output.centroids.contains_key(&record.centroid_object));
        }
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
        let output = pipeline.finish();
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
        let sealed = sealed.finish();

        // Drained: same schedule, but the first seal drains a segment.
        let mut drained =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        for frame in &dataset.frames[..half] {
            drained.push_frame(frame, model.classifier.as_ref());
        }
        let part1 = drained.seal_segment();
        for frame in &dataset.frames[half..] {
            drained.push_frame(frame, model.classifier.as_ref());
        }
        let drained = drained.finish();

        let mut merged = part1;
        assert_eq!(merged.merge_from(&drained.index), 0);
        assert_eq!(
            focus_index::persist::to_json(&merged).unwrap(),
            focus_index::persist::to_json(&sealed.index).unwrap()
        );
        // Stats and centroids are cumulative despite the drain.
        assert_eq!(drained.stats, sealed.stats);
        assert_eq!(drained.centroids.len(), sealed.centroids.len());
        for record in merged.clusters() {
            assert!(drained.centroids.contains_key(&record.centroid_object));
        }
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
                    // Every snapshot record's centroid observation came along.
                    for record in peeked.clusters() {
                        assert_eq!(
                            peeked_centroids[&record.centroid_object],
                            twin.centroids()[&record.centroid_object]
                        );
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
            let (index, centroids) = pipeline.peek_segment();
            assert_eq!(
                focus_index::persist::to_json(part.index()).unwrap(),
                focus_index::persist::to_json(&index).unwrap(),
                "after {after}"
            );
            assert_eq!(part.centroids(), &centroids, "after {after}");
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
        let output = pipeline.finish();
        assert!(output.index.clusters().all(|r| r.key.local >= 42));
    }

    #[test]
    #[should_panic(expected = "mid-stream")]
    fn re_keying_a_started_pipeline_panics() {
        let profile = profile_by_name("auburn_c").unwrap();
        let dataset = VideoDataset::generate(profile.clone(), 10.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        for frame in &dataset.frames {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
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
        let output = pipeline.finish();

        // Pre-switch records are byte-identical to the pre-switch snapshot;
        // post-switch records carry the new K.
        let reference_keys: std::collections::HashSet<_> =
            reference.clusters().map(|r| r.key).collect();
        for record in output.index.clusters() {
            if reference_keys.contains(&record.key) {
                assert_eq!(
                    serde_json::to_string(record).unwrap(),
                    serde_json::to_string(reference.get(record.key).unwrap()).unwrap()
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
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, IngestParams::default());
        for frame in &dataset.frames {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
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
