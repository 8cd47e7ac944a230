//! Pruned query planning over a durable [`SegmentStore`] (QT1/QT2 with
//! segment pruning).
//!
//! A monolithic in-memory index answers every lookup by scanning its full
//! postings list. Over a segmented corpus, a query with a camera/time
//! restriction first prunes at the *segment* level — only segments whose
//! manifest bounds intersect the filter are opened (lazily, through the
//! store's LRU) — and then applies the ordinary per-record filter inside
//! each opened segment. The result is proven byte-identical to planning
//! against the merged in-memory index while opening strictly fewer segments
//! on time-restricted workloads (`tests/segment_durability.rs`).
//!
//! [`SegmentedCorpus`] is the query-side view of a durable corpus: the
//! store plus the centroid observations and ingest model the verification
//! stage needs. [`FocusService::serve`](crate::service::FocusService::serve)
//! hands its plans to [`QueryServer::serve_resolved`], the same
//! dedupe/batch/cache machinery as the in-memory path.
//!
//! **Live overlay** — a long-lived service also holds records that are not
//! yet sealed to any segment (the hot tail of each stream's pipeline).
//! [`TailOverlay`] is that in-memory tail as a list of shared per-stream
//! parts (each built by its pipeline at most once per write), and
//! [`SegmentedCorpus::plan_with_tail`] plans one query over the union of
//! sealed segments *plus* the overlay — the LSM-style memtable + SSTable
//! read path the [`FocusService`](crate::service::FocusService) serves
//! from. Tail records and segment records are key-disjoint by construction
//! (a stream's pipeline only drains keys it has never drained before), so
//! the union needs no reconciliation and is byte-identical to sealing the
//! tail first and planning over segments alone.
//!
//! **One planner body** — [`SegmentedCorpus::plan_with_tail_scoped`] is
//! the only place a query over a segmented corpus is planned. Its output
//! is chunked: one [`AnytimeChunk`] per contributing sealed segment
//! (ascending segment id) plus the tail chunk last, and the flat candidate
//! list is those chunks concatenated and sorted by key. The exhaustive
//! path verifies the flat list, the [anytime loop](crate::query::anytime)
//! samples the chunks, and a fleet shard ships the records in candidate
//! order.
//!
//! [`QueryServer::serve_resolved`]: crate::query_server::QueryServer::serve_resolved

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::OTHER_CLASS;
use focus_index::{
    CentroidHandle, ClusterRecord, QueryFilter, SegmentAccess, SegmentError, SegmentStore,
};
use focus_video::{ClassId, ObjectId, ObjectObservation, StreamId};

use crate::ingest::IngestCnn;
use crate::pipeline::TailPart;
use crate::query::plan::{QueryPlan, QueryRequest};
use crate::query::track::TrackScope;

/// The not-yet-sealed tail of a live corpus: one immutable [`TailPart`]
/// per stream with pending records, each the
/// [`peek_shared`](crate::pipeline::FramePipeline::peek_shared) snapshot of
/// that stream's pipeline.
///
/// The overlay is a list of shared parts, not a merged index: assembling
/// one costs a reference-count bump per stream, and lookups walk the parts.
/// The parts are built by the pipelines at most once per write (any `&mut`
/// on a pipeline bumps its generation; a read at an unchanged generation
/// reuses the cached part), so a serve call pays for a build only on the
/// first read after a stream moved.
///
/// Serving stays snapshot-consistent: a part never changes after it is
/// built, so every query planned against one overlay sees the same tail
/// instant — even if the service advances or seals afterwards.
#[derive(Debug, Default)]
pub struct TailOverlay {
    parts: Vec<Arc<TailPart>>,
}

impl TailOverlay {
    /// An empty overlay (serving over it degenerates to the plain segmented
    /// path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one stream's shared tail part.
    ///
    /// # Panics
    ///
    /// Panics if a part of the same stream was already added: one
    /// pipeline's snapshots overlap, so a second part of a stream can only
    /// be a key collision (`O(parts)`, no record is touched).
    pub fn add_shared(&mut self, part: Arc<TailPart>) {
        assert!(
            self.parts.iter().all(|p| p.stream() != part.stream()),
            "tail parts must be key-disjoint: stream {} was added twice",
            part.stream().0
        );
        self.parts.push(part);
    }

    /// Records currently in the tail.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.index().len()).sum()
    }

    /// Whether the tail holds no records.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(|p| p.index().is_empty())
    }

    /// The tail's parts, in the order they were added.
    pub fn parts(&self) -> &[Arc<TailPart>] {
        &self.parts
    }

    /// The centroid observation behind a tail record, if present.
    pub fn centroid(&self, id: ObjectId) -> Option<&ObjectObservation> {
        self.parts.iter().find_map(|p| p.centroids().get(&id))
    }

    /// Tail records matching any of `classes` under `filter`, shared with
    /// their parts, sorted and deduplicated by cluster key — the same
    /// contract as one store group (a record posting several of the classes
    /// comes back once).
    pub fn lookup(&self, classes: &[ClassId], filter: &QueryFilter) -> Vec<Arc<ClusterRecord>> {
        let mut hits: Vec<&Arc<ClusterRecord>> = self
            .parts
            .iter()
            .flat_map(|p| {
                classes
                    .iter()
                    .flat_map(move |c| p.index().lookup(*c, filter))
            })
            .collect();
        hits.sort_unstable_by_key(|r| r.key);
        hits.dedup_by_key(|r| r.key);
        hits.into_iter().cloned().collect()
    }
}

/// Where one plan chunk's candidates came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkSource {
    /// One sealed segment (by manifest id).
    Segment(u64),
    /// The in-memory hot tail (not-yet-sealed records).
    Tail,
}

/// One plan chunk: a key-disjoint slice of the query's candidate set, in
/// cluster-key order — the anytime loop's sampling unit.
#[derive(Debug, Clone)]
pub struct AnytimeChunk {
    /// The segment (or tail) this chunk's candidates live in.
    pub source: ChunkSource,
    /// Candidate centroids, sorted by cluster key.
    pub candidates: Vec<CentroidHandle>,
}

/// The query-side view of a segmented corpus: the durable store plus the
/// centroid observations (what the GT-CNN classifies) and the ingest model
/// (for specialized-class → OTHER routing).
///
/// # Examples
///
/// ```
/// use focus_core::prelude::*;
/// use focus_core::query::QueryRequest;
/// use focus_index::QueryFilter;
/// use focus_video::profile::profile_by_name;
///
/// let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
/// let dir = std::env::temp_dir().join("focus_segmented_corpus_doc");
/// let _ = std::fs::remove_dir_all(&dir);
/// let config = ServiceConfig {
///     seal: SealPolicy::every_secs(10.0),
///     ..ServiceConfig::default()
/// };
/// let mut service =
///     FocusService::create(&dir, config, focus_cnn::GroundTruthCnn::resnet152()).unwrap();
/// service.register_stream(ds.profile.stream_id, ds.profile.fps).unwrap();
/// service.advance(&ds.frames).unwrap();
/// service.seal_all().unwrap();
///
/// let class = ds.dominant_classes(1)[0];
/// // A query restricted to the first quarter of the stream opens one of
/// // the four segments and prunes the rest.
/// let request = QueryRequest::new(class)
///     .with_filter(QueryFilter::any().with_time_range(0.0, 9.0));
/// let planned = service.corpus().plan_with_tail(&request, None).unwrap();
/// assert!(planned.access.segments_considered <= 1);
/// assert_eq!(planned.access.segments_total, 4);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct SegmentedCorpus {
    store: SegmentStore,
    /// The centroid observation of every cluster, keyed by object id — the
    /// only objects the GT-CNN touches at query time.
    pub centroids: HashMap<ObjectId, ObjectObservation>,
    /// The ingest model the corpus was built with; the routing default for
    /// streams with no per-stream override.
    pub model: IngestCnn,
    /// Per-stream model overrides: a live service that specializes each
    /// stream's ingest CNN independently routes that stream's queries
    /// through its own OTHER handling (§4.3) instead of the default
    /// model's. Empty for single-model corpora.
    pub stream_models: HashMap<StreamId, IngestCnn>,
    /// The folded routing of every superseded per-stream specialized
    /// model (earlier retrain / reconfiguration generations). Records
    /// they indexed are still in the store under *their* routing — e.g. a
    /// class the old model mapped to OTHER that the current model
    /// specializes for — so their lookup classes must stay in the scan
    /// set or a stream's older epochs silently vanish from query results
    /// (`retiring_models_keeps_older_epochs_reachable` pins this).
    /// Install successors via
    /// [`install_stream_model`](Self::install_stream_model). Generic
    /// models never need retiring: they route every class to itself,
    /// which the default-model lookup already covers.
    pub retired_routes: HashMap<StreamId, RetiredRouting>,
}

/// The query-routing summary of every retired specialized model of one
/// stream, folded into `O(classes)` state instead of a list of models: it
/// reproduces exactly the lookup classes the full model list would
/// contribute — a retired model specialized *for* the queried class
/// contributes the class itself, one specialized *without* it contributes
/// OTHER — while staying bounded (and serializable, so a recovered
/// service keeps scanning its older epochs correctly; the durable-sidecar
/// round trip is pinned in `tests/adaptive_drift.rs`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RetiredRouting {
    /// Specialized generations folded in.
    pub generations: usize,
    /// Classes specialized by at least one retired generation, sorted.
    pub specialized_union: Vec<ClassId>,
    /// Classes specialized by *every* retired generation, sorted. A query
    /// for any class outside this set must also scan OTHER (some retired
    /// generation indexed that class's records there).
    pub specialized_intersection: Vec<ClassId>,
}

impl RetiredRouting {
    /// Folds one more retired generation's specialized class set in.
    pub fn retire(&mut self, specialized_classes: &[ClassId]) {
        let mut classes: Vec<ClassId> = specialized_classes.to_vec();
        classes.sort();
        classes.dedup();
        if self.generations == 0 {
            self.specialized_union = classes.clone();
            self.specialized_intersection = classes;
        } else {
            self.specialized_union.extend(classes.iter().copied());
            self.specialized_union.sort();
            self.specialized_union.dedup();
            self.specialized_intersection
                .retain(|c| classes.binary_search(c).is_ok());
        }
        self.generations += 1;
    }

    /// Appends the lookup classes the retired generations contribute for
    /// a query of `class` (none while no generation is folded in).
    fn extend_lookup_classes(&self, class: ClassId, out: &mut Vec<ClassId>) {
        if self.generations == 0 {
            return;
        }
        if self.specialized_union.binary_search(&class).is_ok() {
            out.push(class);
        }
        if self.specialized_intersection.binary_search(&class).is_err() {
            out.push(OTHER_CLASS);
        }
    }
}

impl SegmentedCorpus {
    /// Builds a corpus from a store and explicit centroid/model state.
    pub fn new(
        store: SegmentStore,
        centroids: HashMap<ObjectId, ObjectObservation>,
        model: IngestCnn,
    ) -> Self {
        Self {
            store,
            centroids,
            model,
            stream_models: HashMap::new(),
            retired_routes: HashMap::new(),
        }
    }

    /// Installs a new routing model for one stream, retiring the previous
    /// override's routing so the classes it indexed records under stay in
    /// the scan set (only specialized predecessors matter — a generic
    /// model's routing is covered by the default model). This is the path
    /// every retrain and drift reconfiguration goes through.
    pub fn install_stream_model(&mut self, stream: StreamId, model: IngestCnn) {
        if let Some(previous) = self.stream_models.insert(stream, model) {
            if let Some(classes) = previous.specialized_classes.as_deref() {
                self.retired_routes
                    .entry(stream)
                    .or_default()
                    .retire(classes);
            }
        }
    }

    /// The centroid observation behind cluster centroid `id`: a sealed
    /// cluster's from this corpus, a not-yet-sealed one's from `tail`.
    pub fn centroid<'a>(
        &'a self,
        id: ObjectId,
        tail: &'a TailOverlay,
    ) -> Option<&'a ObjectObservation> {
        self.centroids.get(&id).or_else(|| tail.centroid(id))
    }

    /// The underlying segment store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Mutable access to the store, for maintenance
    /// ([`compact`](SegmentStore::compact)).
    pub fn store_mut(&mut self) -> &mut SegmentStore {
        &mut self.store
    }

    /// The class a query for `class` looks up for records `stream`'s
    /// *current* model would index: the stream's own model override when
    /// one exists, the corpus default otherwise (specialized models map
    /// un-specialized classes through OTHER, §4.3).
    ///
    /// Routing only ever *expands* the set of classes
    /// [`plan_with_tail`](Self::plan_with_tail) scans — it is never used
    /// to drop records, because a stream's sealed history may have been
    /// indexed under earlier models with different routing (pre-retrain
    /// epochs post under the class itself, post-retrain epochs under
    /// OTHER). Ground-truth verification keeps precision regardless of
    /// which lookup class surfaced a candidate.
    pub fn route(&self, stream: StreamId, class: ClassId) -> ClassId {
        self.stream_models
            .get(&stream)
            .unwrap_or(&self.model)
            .effective_query_class(class)
    }

    /// The distinct lookup classes a query for `class` must scan, across
    /// the default model and the per-stream overrides the query's camera
    /// restriction can actually reach — an override on a stream the filter
    /// excludes cannot contribute records, so its routing must not inflate
    /// the scan. An extra lookup class does not cost segment opens — the
    /// planner hands the whole set to one
    /// [`SegmentStore::lookup_classes_grouped`] walk, where it costs one
    /// more postings block per segment that posts it, plus the record
    /// blocks only it reaches — but every candidate it adds still costs a
    /// GT verification. One entry for a single-model corpus; at most two
    /// (the class itself and OTHER) in practice.
    pub fn lookup_classes(&self, class: ClassId, filter: &QueryFilter) -> Vec<ClassId> {
        let reachable = |stream: &StreamId| {
            filter
                .streams
                .as_ref()
                .is_none_or(|streams| streams.contains(stream))
        };
        let mut classes = vec![self.model.effective_query_class(class)];
        classes.extend(
            self.stream_models
                .iter()
                .filter(|(stream, _)| reachable(stream))
                .map(|(_, model)| model.effective_query_class(class)),
        );
        // Earlier model generations of a reachable stream may have indexed
        // the class under a different routing (typically OTHER); their
        // records are still in the store and must stay findable.
        for (_, routing) in self
            .retired_routes
            .iter()
            .filter(|(stream, _)| reachable(stream))
        {
            routing.extend_lookup_classes(class, &mut classes);
        }
        classes.sort();
        classes.dedup();
        classes
    }

    /// Plans one query with segment pruning (QT1/QT2) over the union of the
    /// sealed segments and an in-memory [`TailOverlay`] of not-yet-sealed
    /// records — the live service's read path: routes the class through
    /// the model's OTHER handling, opens only the segments whose bounds
    /// intersect the filter, and returns the plan together with the records
    /// backing every candidate (for QT4 assembly) and the access account
    /// (for storage-cost accounting). With `None` (or an empty overlay)
    /// only the sealed segments are planned.
    ///
    /// Candidates come back sorted by cluster key across both sources, and
    /// tail/segment key-disjointness is checked
    /// ([`SegmentError::TailKeySealed`]), so the plan is byte-identical to
    /// sealing the tail into the store first and planning over segments
    /// alone (`tests/live_service.rs` pins this).
    /// Segment opens are unchanged by the overlay: the tail is resolved
    /// from memory, never from disk.
    ///
    /// With per-stream model overrides, the candidate set is the union of
    /// every lookup class's matches (deduplicated by key — a record whose
    /// top-K contains both the class and OTHER matches twice), gathered in
    /// one walk of the store: `access` counts each segment once per
    /// request, not once per lookup class. Records
    /// indexed under an *earlier* model's routing therefore stay
    /// reachable after a retrain: hiding them behind the current model's
    /// routing would silently drop a stream's pre-retrain history. OTHER
    /// candidates that are not actually the queried class cost a GT
    /// verification, not a wrong answer.
    pub fn plan_with_tail(
        &self,
        request: &QueryRequest,
        tail: Option<&TailOverlay>,
    ) -> Result<SegmentedPlan, SegmentError> {
        let classes = self.lookup_classes(request.class, &request.filter);
        self.plan_with_tail_scoped(request, tail, &classes, true, true)
    }

    /// The planner's verdict on the request's track filter: the whole-life
    /// sketch of every track on a filter-admitted stream (absorb-merged
    /// across every sealed segment plus the tail overlay — deliberately
    /// *not* time-pruned, since a truncated sketch would not be
    /// conservative), evaluated against the filter's predicates. Sketch
    /// loads are charged to `access`.
    fn track_scope_with_tail(
        &self,
        request: &QueryRequest,
        tail: Option<&TailOverlay>,
        access: &mut SegmentAccess,
    ) -> Result<TrackScope, SegmentError> {
        if request.tracks.is_empty() {
            return Ok(TrackScope::default());
        }
        let (mut sketches, sketch_access) = self.store.sketches(&request.filter)?;
        access.merge(&sketch_access);
        if let Some(tail) = tail {
            for sketch in tail.parts().iter().flat_map(|p| p.index().sketches()) {
                match sketches.get_mut(&sketch.key) {
                    Some(merged) => merged.absorb(sketch),
                    None => {
                        sketches.insert(sketch.key, sketch.clone());
                    }
                }
            }
        }
        Ok(request
            .tracks
            .scope_over(&request.filter, sketches.values()))
    }

    /// Like [`plan_with_tail`](Self::plan_with_tail), but scanning an
    /// explicit lookup-class set instead of this corpus's own routing —
    /// the scatter seam of a multi-node fleet. One shard only knows the
    /// per-stream models of *its* streams; a coordinator must union the
    /// lookup classes across every shard (a class another shard's override
    /// routes through OTHER may have posted records here under OTHER too)
    /// and plan each shard with the global set, or records a single-node
    /// service would surface silently vanish from scattered queries.
    ///
    /// `prune_segments: false` disables segment-level bound pruning and
    /// opens every segment indexing a lookup class — the broadcast
    /// baseline. Record-level filtering is unchanged, so the candidates
    /// are byte-identical either way (a segment whose bounds miss the
    /// filter holds only records that miss it too); only the access
    /// account differs.
    ///
    /// `prune_tracks: false` disables track-sketch candidate pruning: the
    /// plan keeps every class-matched candidate (and so verifies every one
    /// of them against the GT CNN) but still carries the same
    /// [`TrackScope`], so member filtering at assembly — and therefore the
    /// outcome's frames and objects — is byte-identical to the pruned
    /// plan's (`tests/track_queries.rs` pins this). It is the
    /// intersection-before-verification baseline; production paths pass
    /// `true`.
    pub fn plan_with_tail_scoped(
        &self,
        request: &QueryRequest,
        tail: Option<&TailOverlay>,
        lookup_classes: &[ClassId],
        prune_segments: bool,
        prune_tracks: bool,
    ) -> Result<SegmentedPlan, SegmentError> {
        let open_filter = if prune_segments {
            request.filter.clone()
        } else {
            // Keep record-level stream/time/kx semantics but defeat the
            // segment-bound prune by scanning with an unbounded filter and
            // re-applying the real one per record below.
            QueryFilter {
                kx: request.filter.kx,
                ..QueryFilter::any()
            }
        };
        // One store call for every lookup class: each segment is visited
        // (and each of its blocks fetched) once, and each group comes back
        // deduplicated by key and checked key-disjoint from the others.
        // After `compact` manifest order is not id order; chunks go in
        // ascending segment id, the tail last.
        let grouped = self
            .store
            .lookup_classes_grouped(lookup_classes, &open_filter)?;
        let mut access = grouped.access;
        let mut groups = grouped.groups;
        groups.sort_unstable_by_key(|(id, _)| *id);
        let tail_group = tail.map(|tail| {
            let records = tail.lookup(lookup_classes, &request.filter);
            (ChunkSource::Tail, records)
        });
        let sources = groups
            .into_iter()
            .map(|(id, records)| (ChunkSource::Segment(id), records))
            .chain(tail_group);
        let track_scope = self.track_scope_with_tail(request, tail, &mut access)?;
        // Intersection before verification: a candidate whose members all
        // belong to sketch-rejected tracks can contribute nothing after
        // member filtering, so verifying its centroid would be a wasted GT
        // inference.
        let prune_tracks = prune_tracks && !track_scope.is_empty();
        let mut chunks = Vec::new();
        let mut planned: Vec<(CentroidHandle, Arc<ClusterRecord>)> = Vec::new();
        let mut tail_records = 0;
        for (source, mut group) in sources {
            group.retain(|record| {
                (prune_segments || request.filter.admits(record))
                    && (!prune_tracks || track_scope.admits_record(record))
            });
            if group.is_empty() {
                continue;
            }
            if source == ChunkSource::Tail {
                tail_records = group.len();
            }
            let start = planned.len();
            planned.extend(group.into_iter().map(|r| (CentroidHandle::from(&r), r)));
            chunks.push(AnytimeChunk {
                source,
                candidates: planned[start..].iter().map(|(handle, _)| *handle).collect(),
            });
        }
        // Each chunk is a key-sorted run; a stable sort merges the runs,
        // comparing the handles' keys rather than reaching into records.
        planned.sort_by_key(|(handle, _)| handle.cluster);
        let (candidates, records): (Vec<_>, Vec<_>) = planned.into_iter().unzip();
        if let Some(collision) = tail_collision(&candidates, &chunks) {
            return Err(collision);
        }
        Ok(SegmentedPlan {
            plan: QueryPlan {
                class: request.class,
                lookup_class: self.model.effective_query_class(request.class),
                candidates,
                track_scope,
            },
            chunks,
            records,
            access,
            tail_records,
        })
    }
}

/// The error for a key two chunks of one plan share, given the plan's
/// key-sorted candidates: an adjacent equal pair. Segment chunks are
/// key-disjoint (the store checks that), so a repeated key is a tail
/// record whose key a segment already holds.
fn tail_collision(candidates: &[CentroidHandle], chunks: &[AnytimeChunk]) -> Option<SegmentError> {
    let key = candidates
        .windows(2)
        .find(|pair| pair[0].cluster == pair[1].cluster)?[0]
        .cluster;
    chunks.iter().find_map(|chunk| match chunk.source {
        ChunkSource::Segment(segment)
            if chunk
                .candidates
                .binary_search_by_key(&key, |handle| handle.cluster)
                .is_ok() =>
        {
            Some(SegmentError::TailKeySealed { key, segment })
        }
        _ => None,
    })
}

/// A pruned query plan plus everything assembly and accounting need: the
/// candidate records (resolved from the segments the plan opened) and the
/// segment-access report.
#[derive(Debug)]
pub struct SegmentedPlan {
    /// The candidate set, exactly as the in-memory
    /// [`QueryPlan::build`](crate::query::QueryPlan::build) would produce
    /// over the merged index.
    pub plan: QueryPlan,
    /// The same candidates partitioned by source: one chunk per
    /// contributing segment (ascending id) plus, when non-empty, the tail
    /// chunk last — what the anytime loop samples.
    pub chunks: Vec<AnytimeChunk>,
    /// The cluster record behind every candidate, aligned with
    /// `plan.candidates` (`records[i]` backs `plan.candidates[i]`), so
    /// strictly key-sorted. Shared with the store's decoded tier and the
    /// tail's parts, never copied.
    pub records: Vec<Arc<ClusterRecord>>,
    /// What the pruned lookup touched.
    pub access: SegmentAccess,
    /// Candidates resolved from the in-memory tail overlay instead of a
    /// sealed segment (zero when planned without an overlay). The
    /// tail-hit fraction of a live workload is
    /// `tail_records / candidates.len()`.
    pub tail_records: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{IngestOutput, IngestParams};
    use crate::query::plan::QueryPlan;
    use crate::segment_ingest::{SealPolicy, StreamSegmenter};
    use focus_cnn::{GpuCost, ModelSpec};
    use focus_index::ClusterKey;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;
    use std::path::PathBuf;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("focus_query_segmented_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn params() -> IngestParams {
        IngestParams {
            k: 10,
            ..IngestParams::default()
        }
    }

    /// Replays each dataset through its own [`StreamSegmenter`], sealing
    /// every drained part (the final partial one included) into a fresh
    /// store, and returns the corpus over that store.
    fn sealed_corpus(
        name: &str,
        datasets: &[VideoDataset],
        policy: SealPolicy,
    ) -> (SegmentedCorpus, PathBuf) {
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let dir = test_dir(name);
        let mut store = SegmentStore::create(&dir).unwrap();
        let mut centroids = HashMap::new();
        for ds in datasets {
            let mut segmenter =
                StreamSegmenter::new(ds.profile.stream_id, ds.profile.fps, params(), policy);
            for frame in &ds.frames {
                if let Some(part) = segmenter.push_frame(frame, model.classifier.as_ref()) {
                    store.seal(&part).unwrap();
                }
            }
            let (part, output) = segmenter.finish();
            if let Some(part) = part {
                store.seal(&part).unwrap();
            }
            centroids.extend(output.centroids);
        }
        (SegmentedCorpus::new(store, centroids, model), dir)
    }

    /// One minute of `auburn_c` in four 15-second segments.
    fn corpus(name: &str) -> (VideoDataset, SegmentedCorpus, PathBuf) {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let (corpus, dir) = sealed_corpus(
            name,
            std::slice::from_ref(&ds),
            SealPolicy::every_secs(15.0),
        );
        (ds, corpus, dir)
    }

    #[test]
    fn segmented_plan_matches_in_memory_plan() {
        let (ds, corpus, dir) = corpus("plan_match");
        let class = ds.dominant_classes(1)[0];
        // The in-memory reference: the same records merged into one index.
        let index = corpus.store().merged_index().unwrap();
        let reference = IngestOutput {
            clusters: index.len(),
            objects_total: index.stats().objects,
            objects_classified: index.stats().objects,
            index,
            centroids: corpus.centroids.clone(),
            model: corpus.model.clone(),
            params: params(),
            gpu_cost: GpuCost::ZERO,
            frames_total: ds.frames.len(),
            frames_with_motion: 0,
        };
        for filter in [
            QueryFilter::any(),
            QueryFilter::any().with_time_range(0.0, 10.0),
            QueryFilter::any().with_kx(2),
            QueryFilter::any().with_time_range(20.0, 40.0).with_kx(3),
        ] {
            let request = QueryRequest::new(class).with_filter(filter);
            let segmented = corpus.plan_with_tail(&request, None).unwrap();
            assert_eq!(segmented.plan, QueryPlan::build(&reference, &request));
            // Every candidate's record was captured for assembly, at the
            // candidate's own position.
            assert_aligned(&segmented);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn time_restriction_opens_strictly_fewer_segments() {
        let (ds, corpus, dir) = corpus("pruning");
        let class = ds.dominant_classes(1)[0];
        let full = corpus
            .plan_with_tail(&QueryRequest::new(class), None)
            .unwrap();
        assert_eq!(full.access.segments_considered, full.access.segments_total);
        let narrow = corpus
            .plan_with_tail(
                &QueryRequest::new(class)
                    .with_filter(QueryFilter::any().with_time_range(0.0, 10.0)),
                None,
            )
            .unwrap();
        assert!(narrow.access.segments_considered < narrow.access.segments_total);
        assert!(narrow.access.segments_pruned() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_overlay_unions_with_sealed_segments() {
        // Seal the first half of a stream, keep the second half as an
        // in-memory tail: planning with the overlay must equal planning
        // over a store where everything was sealed.
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let class = ds.dominant_classes(1)[0];
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let policy = SealPolicy::every_secs(15.0);

        // Reference: everything sealed.
        let (reference, dir_all) = sealed_corpus("tail_ref", std::slice::from_ref(&ds), policy);

        // Live: only the parts drained before the midpoint reach the
        // store; the rest stays in the pipeline and is peeked as a tail.
        let dir_live = test_dir("tail_live");
        let mut store_live = SegmentStore::create(&dir_live).unwrap();
        let mut segmenter =
            StreamSegmenter::new(ds.profile.stream_id, ds.profile.fps, params(), policy);
        for frame in &ds.frames {
            if let Some(part) = segmenter.push_frame(frame, model.classifier.as_ref()) {
                store_live.seal(&part).unwrap();
            }
        }
        let mut tail = TailOverlay::new();
        tail.add_shared(segmenter.pipeline().peek_shared());
        assert!(
            !tail.is_empty(),
            "the final partial segment stays in memory"
        );
        let live = SegmentedCorpus::new(store_live, reference.centroids.clone(), model);

        for filter in [
            QueryFilter::any(),
            QueryFilter::any().with_time_range(0.0, 20.0),
            QueryFilter::any().with_time_range(40.0, 60.0),
            QueryFilter::any().with_kx(2),
        ] {
            let request = QueryRequest::new(class).with_filter(filter);
            let with_tail = live.plan_with_tail(&request, Some(&tail)).unwrap();
            let sealed = reference.plan_with_tail(&request, None).unwrap();
            assert_eq!(with_tail.plan, sealed.plan, "{request:?}");
            // The overlay never costs a segment open.
            assert!(
                with_tail.access.segments_opened() <= sealed.access.segments_opened(),
                "{request:?}"
            );
        }
        // A time filter over the tail window only is answered from memory.
        let late = live
            .plan_with_tail(
                &QueryRequest::new(class)
                    .with_filter(QueryFilter::any().with_time_range(46.0, 60.0)),
                Some(&tail),
            )
            .unwrap();
        assert!(late.tail_records > 0);
        assert_eq!(late.tail_records, late.plan.candidates.len());
        // Without the overlay the same corpus simply cannot see the tail.
        let blind = live
            .plan_with_tail(
                &QueryRequest::new(class)
                    .with_filter(QueryFilter::any().with_time_range(46.0, 60.0)),
                None,
            )
            .unwrap();
        assert!(blind.plan.candidates.len() < late.plan.candidates.len());
        std::fs::remove_dir_all(&dir_all).ok();
        std::fs::remove_dir_all(&dir_live).ok();
    }

    #[test]
    #[should_panic(expected = "key-disjoint")]
    fn overlay_rejects_a_second_shared_part_of_one_stream() {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 10.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut pipeline = crate::pipeline::FramePipeline::new(
            ds.profile.stream_id,
            ds.profile.fps,
            IngestParams::default(),
        );
        let mut overlay = TailOverlay::new();
        overlay.add_shared(pipeline.peek_shared());
        for frame in &ds.frames {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        overlay.add_shared(pipeline.peek_shared());
    }

    /// Snapshot isolation: an overlay is a list of immutable parts, so it
    /// keeps planning and resolving centroids exactly as at the instant it
    /// was taken, whatever the pipeline does afterwards.
    #[test]
    fn overlay_is_isolated_from_later_writes_and_seals() {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let class = ds.dominant_classes(1)[0];
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let third = ds.frames.len() / 3;
        let dir = test_dir("tail_isolation");
        let mut store = SegmentStore::create(&dir).unwrap();
        let mut pipeline =
            crate::pipeline::FramePipeline::new(ds.profile.stream_id, ds.profile.fps, params());
        for frame in &ds.frames[..third] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        store.seal(&pipeline.seal_segment()).unwrap();
        for frame in &ds.frames[third..2 * third] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let mut tail = TailOverlay::new();
        tail.add_shared(pipeline.peek_shared());
        assert!(!tail.is_empty());
        let corpus = SegmentedCorpus::new(store, HashMap::new(), model.clone());

        let observe = |tail: &TailOverlay| {
            [
                QueryFilter::any(),
                QueryFilter::any().with_time_range(15.0, 45.0),
                QueryFilter::any().with_kx(2),
            ]
            .into_iter()
            .map(|filter| {
                let request = QueryRequest::new(class).with_filter(filter);
                let planned = corpus.plan_with_tail(&request, Some(tail)).unwrap();
                let centroids: Vec<ObjectObservation> = planned
                    .plan
                    .candidates
                    .iter()
                    .filter_map(|handle| tail.centroid(handle.centroid).cloned())
                    .collect();
                assert_eq!(centroids.len(), planned.tail_records, "{request:?}");
                (
                    planned.plan,
                    planned.records,
                    planned.tail_records,
                    centroids,
                )
            })
            .collect::<Vec<_>>()
        };
        let before = observe(&tail);
        assert!(before
            .iter()
            .any(|(_, _, tail_records, _)| *tail_records > 0));

        // The stream moves on: more frames, then a seal that drains
        // everything the overlay holds out of the pipeline.
        for frame in &ds.frames[2 * third..] {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let mid = pipeline.peek_shared();
        assert!(mid.index().len() > tail.len());
        drop(pipeline.seal_segment());
        let now = pipeline.peek_shared();
        assert!(now.index().is_empty());
        assert!(!Arc::ptr_eq(&now, &tail.parts()[0]));

        assert_eq!(observe(&tail), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_stream_models_route_queries_independently() {
        use focus_cnn::{Classifier, GroundTruthCnn, SpecializedCnn, OTHER_CLASS};
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
        let class = ds.dominant_classes(1)[0];
        let (_, mut corpus, dir) = corpus("stream_models");

        // Specialize the stream's model on a sample that does NOT include
        // some rare class: queries for it must route through OTHER for this
        // stream.
        let gt = GroundTruthCnn::resnet152();
        let sample: Vec<_> = ds
            .objects()
            .map(|o| (o.clone(), gt.classify_top1(o)))
            .collect();
        let specialized = IngestCnn::specialized(
            SpecializedCnn::train(
                "stream-models-test",
                focus_cnn::specialize::SpecializationLevel::Medium,
                &sample,
                4,
            )
            .unwrap(),
        );
        let stream = ds.profile.stream_id;
        assert_eq!(corpus.route(stream, class), class);

        // A class the store indexed under the generic model but the
        // specialized override does not cover: its pre-retrain records
        // must stay reachable after the override is installed.
        let specialized_classes = specialized.specialized_classes.clone().unwrap();
        let hidden_candidate = corpus
            .store()
            .merged_index()
            .unwrap()
            .indexed_classes()
            .into_iter()
            .find(|c| !specialized_classes.contains(c) && *c != OTHER_CLASS)
            .expect("some indexed class outside the specialized set");
        let before = corpus
            .plan_with_tail(&QueryRequest::new(hidden_candidate), None)
            .unwrap();
        assert!(!before.plan.candidates.is_empty());

        corpus.stream_models.insert(stream, specialized);
        assert_eq!(
            corpus.route(stream, ClassId(999)),
            OTHER_CLASS,
            "un-specialized classes route through OTHER for this stream"
        );
        // Streams without an override keep the default routing.
        assert_eq!(corpus.route(StreamId(999), ClassId(999)), ClassId(999));

        // Regression: installing the override must not hide the stream's
        // pre-retrain history — the plan is a superset of the pre-override
        // plan (the OTHER lookup may add candidates; GT verification keeps
        // precision).
        let after = corpus
            .plan_with_tail(&QueryRequest::new(hidden_candidate), None)
            .unwrap();
        for handle in &before.plan.candidates {
            assert!(
                after.plan.candidates.contains(handle),
                "pre-retrain candidate {handle:?} hidden by the override"
            );
        }
        // Planning a routed query stays well-formed (sorted, disjoint).
        let plan = corpus
            .plan_with_tail(&QueryRequest::new(ClassId(999)), None)
            .unwrap();
        assert!(plan
            .plan
            .candidates
            .windows(2)
            .all(|w| w[0].cluster < w[1].cluster));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retiring_models_keeps_older_epochs_reachable() {
        use focus_cnn::{Classifier, GroundTruthCnn, SpecializedCnn, OTHER_CLASS};
        // Generation 1 specializes WITHOUT some class C (its records post
        // under OTHER); generation 2 specializes FOR C (routing C to
        // itself). Without retired-model routing the gen-2 install would
        // stop scanning OTHER and gen-1's C records would vanish.
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
        let (_, mut corpus, dir) = corpus("retired_models");
        let stream = ds.profile.stream_id;
        let gt = GroundTruthCnn::resnet152();
        let sample: Vec<_> = ds
            .objects()
            .map(|o| (o.clone(), gt.classify_top1(o)))
            .collect();
        let gen1 = IngestCnn::specialized(
            SpecializedCnn::train(
                "retired-gen1",
                focus_cnn::specialize::SpecializationLevel::Medium,
                &sample,
                2,
            )
            .unwrap(),
        );
        let gen2 = IngestCnn::specialized(
            SpecializedCnn::train(
                "retired-gen2",
                focus_cnn::specialize::SpecializationLevel::Medium,
                &sample,
                8,
            )
            .unwrap(),
        );
        // A class gen2 covers but gen1 does not: indexed under OTHER by
        // gen1-era ingest, under itself by gen2-era ingest.
        let split_class = *gen2
            .specialized_classes
            .as_ref()
            .unwrap()
            .iter()
            .find(|c| !gen1.specialized_classes.as_ref().unwrap().contains(c))
            .expect("gen2's larger set covers a class gen1 lacks");

        corpus.install_stream_model(stream, gen1.clone());
        let gen1_plan = corpus
            .plan_with_tail(&QueryRequest::new(split_class), None)
            .unwrap();
        assert_eq!(
            corpus.route(stream, split_class),
            OTHER_CLASS,
            "gen1 maps the split class through OTHER"
        );
        assert!(!gen1_plan.plan.candidates.is_empty());

        corpus.install_stream_model(stream, gen2.clone());
        assert_eq!(
            corpus.route(stream, split_class),
            split_class,
            "gen2 specializes for it"
        );
        assert_eq!(corpus.retired_routes[&stream].generations, 1);
        let gen2_plan = corpus
            .plan_with_tail(&QueryRequest::new(split_class), None)
            .unwrap();
        for handle in &gen1_plan.plan.candidates {
            assert!(
                gen2_plan.plan.candidates.contains(handle),
                "gen1-era candidate {handle:?} hidden by the gen2 install"
            );
        }
        // A third install retires gen2 as well.
        corpus.install_stream_model(stream, gen1);
        assert_eq!(corpus.retired_routes[&stream].generations, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn camera_filters_scope_override_routing() {
        use focus_cnn::{Classifier, GroundTruthCnn, SpecializedCnn};
        // Two streams; only lausanne gets a specialized override. A query
        // restricted to auburn_c must not pay lausanne's OTHER scan.
        let datasets: Vec<VideoDataset> = ["auburn_c", "lausanne"]
            .iter()
            .map(|n| VideoDataset::generate(profile_by_name(n).unwrap(), 40.0))
            .collect();
        let (mut corpus, dir) =
            sealed_corpus("filter_scope", &datasets, SealPolicy::every_secs(10.0));

        let gt = GroundTruthCnn::resnet152();
        let sample: Vec<_> = datasets[1]
            .objects()
            .map(|o| (o.clone(), gt.classify_top1(o)))
            .collect();
        let lausanne = datasets[1].profile.stream_id;
        let auburn = datasets[0].profile.stream_id;
        let rare = ClassId(999);
        let only_auburn = QueryRequest::new(rare).with_filter(QueryFilter::for_stream(auburn));
        let before = corpus.plan_with_tail(&only_auburn, None).unwrap();

        corpus.stream_models.insert(
            lausanne,
            IngestCnn::specialized(
                SpecializedCnn::train(
                    "filter-scope-test",
                    focus_cnn::specialize::SpecializationLevel::Medium,
                    &sample,
                    4,
                )
                .unwrap(),
            ),
        );
        // The override routes `rare` through OTHER — but only for queries
        // that can reach lausanne. The auburn-restricted query's scan is
        // unchanged; an unrestricted query carries the extra lookup class.
        let after = corpus.plan_with_tail(&only_auburn, None).unwrap();
        assert_eq!(
            after.access.segments_considered,
            before.access.segments_considered
        );
        assert_eq!(corpus.lookup_classes(rare, &only_auburn.filter).len(), 1);
        assert_eq!(corpus.lookup_classes(rare, &QueryFilter::any()).len(), 2);
        // Both classes ride one walk of the store: every segment is
        // considered once per request, not once per lookup class.
        let unrestricted = QueryRequest::new(rare);
        let flat = corpus.plan_with_tail(&unrestricted, None).unwrap();
        assert_eq!(flat.access.segments_considered, corpus.store().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-member class-5 record of stream 0 with cluster key `local`.
    fn hand_record(local: u64) -> ClusterRecord {
        use focus_index::MemberRef;
        use focus_video::{FrameId, TrackId};
        ClusterRecord {
            key: ClusterKey::new(StreamId(0), local),
            centroid_object: ObjectId(local),
            centroid_frame: FrameId(local),
            top_k_classes: vec![ClassId(5)],
            members: vec![MemberRef {
                object: ObjectId(local),
                frame: FrameId(local),
                track: TrackId(0),
            }],
            start_secs: local as f64,
            end_secs: local as f64 + 1.0,
        }
    }

    /// A store of one hand-sealed segment per entry of `segments`, each
    /// holding the [`hand_record`]s of its keys; returns the segment ids.
    fn hand_sealed(name: &str, segments: &[&[u64]]) -> (SegmentStore, Vec<u64>) {
        let mut store = SegmentStore::create(test_dir(name)).unwrap();
        let ids = segments
            .iter()
            .map(|locals| {
                let mut index = focus_index::TopKIndex::new();
                for &local in *locals {
                    index.insert(hand_record(local));
                }
                store.seal(&index).unwrap().unwrap().id
            })
            .collect();
        (store, ids)
    }

    /// The planner's one tail/segment disjointness check: a tail record
    /// whose key is already sealed is a broken pipeline, and the planner
    /// refuses to pick one of the two copies — with a typed error naming
    /// the key and the segment, not a panic.
    #[test]
    fn a_tail_key_already_sealed_fails_the_planner() {
        let (store, ids) = hand_sealed("tail_collision", &[&[0], &[1, 2]]);
        let mut tail_index = focus_index::TopKIndex::new();
        tail_index.insert(hand_record(1));
        tail_index.insert(hand_record(3));
        let mut tail = TailOverlay::new();
        let part = TailPart::new(StreamId(0), tail_index, HashMap::new());
        tail.add_shared(Arc::new(part));
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let corpus = SegmentedCorpus::new(store, HashMap::new(), model);
        match corpus.plan_with_tail(&QueryRequest::new(ClassId(5)), Some(&tail)) {
            Err(SegmentError::TailKeySealed { key, segment }) => {
                assert_eq!(key, ClusterKey::new(StreamId(0), 1));
                assert_eq!(segment, ids[1]);
            }
            other => panic!("expected TailKeySealed, got {other:?}"),
        }
        std::fs::remove_dir_all(test_dir("tail_collision")).ok();
    }

    #[test]
    fn shared_keys_across_segments_fail_both_planners_with_a_typed_error() {
        // Two hand-sealed segments that both hold cluster key (0, 1).
        let dir = test_dir("duplicate_key");
        let (store, ids) = hand_sealed("duplicate_key", &[&[0, 1], &[1, 2]]);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let corpus = SegmentedCorpus::new(store, HashMap::new(), model);
        let request = QueryRequest::new(ClassId(5));
        let expect = |error: SegmentError| match error {
            SegmentError::DuplicateKey { key, segments } => {
                assert_eq!(key, ClusterKey::new(StreamId(0), 1));
                assert_eq!(segments.to_vec(), ids);
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        };
        expect(corpus.plan_with_tail(&request, None).unwrap_err());
        expect(
            corpus
                .store()
                .lookup(ClassId(5), &request.filter)
                .unwrap_err(),
        );
        let grouped = corpus.store().lookup_grouped(ClassId(5), &request.filter);
        expect(grouped.unwrap_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Asserts `planned.records` is aligned with the candidate list —
    /// `records[i]` is the record of `candidates[i]` — and so strictly
    /// key-sorted.
    fn assert_aligned(planned: &SegmentedPlan) {
        let candidates = &planned.plan.candidates;
        assert_eq!(planned.records.len(), candidates.len());
        for (record, handle) in planned.records.iter().zip(candidates) {
            assert_eq!(CentroidHandle::from(record), *handle);
        }
        assert!(planned.records.windows(2).all(|w| w[0].key < w[1].key));
    }

    /// Asserts `planned.chunks` partition the flat candidate list in the
    /// anytime loop's order: segment chunks in strictly ascending id, then
    /// the tail chunk of `tail_records` candidates, and no key in two
    /// chunks; and that the records are aligned with the candidates.
    fn assert_partition(planned: &SegmentedPlan) {
        assert_aligned(planned);
        let rank = |chunk: &AnytimeChunk| match chunk.source {
            ChunkSource::Segment(id) => id,
            ChunkSource::Tail => u64::MAX,
        };
        assert!(planned.chunks.windows(2).all(|w| rank(&w[0]) < rank(&w[1])));
        let tail = planned
            .chunks
            .iter()
            .filter(|c| c.source == ChunkSource::Tail);
        let tail_len: usize = tail.map(|c| c.candidates.len()).sum();
        assert_eq!(tail_len, planned.tail_records);
        let candidates = &planned.plan.candidates;
        assert!(candidates.windows(2).all(|w| w[0].cluster < w[1].cluster));
        // Against a strictly increasing list, equality of the sorted union
        // also rules out a key shared by two chunks.
        let mut union: Vec<CentroidHandle> = planned
            .chunks
            .iter()
            .flat_map(|c| c.candidates.iter().copied())
            .collect();
        union.sort_by_key(|h| h.cluster);
        assert_eq!(&union, candidates);
    }

    #[test]
    fn chunks_partition_the_candidates_in_segment_id_order() {
        use crate::query::{TrackFilter, TrackPredicate};
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let class = ds.dominant_classes(1)[0];
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let dir = test_dir("chunk_order");
        let mut store = SegmentStore::create(&dir).unwrap();
        let mut pipeline =
            crate::pipeline::FramePipeline::new(ds.profile.stream_id, ds.profile.fps, params());
        // Three sealed quarters; the rest stays in the pipeline as the tail.
        for (i, frames) in ds.frames.chunks(ds.frames.len() / 4).enumerate() {
            for frame in frames {
                pipeline.push_frame(frame, model.classifier.as_ref());
            }
            if i < 3 {
                store.seal(&pipeline.seal_segment()).unwrap();
            }
        }
        let mut tail = TailOverlay::new();
        tail.add_shared(pipeline.peek_shared());
        // Fold segments 0 and 1: the replacement takes a fresh id but the
        // first manifest slot, so manifest order is no longer id order.
        let folded = store.segments()[0].clusters + store.segments()[1].clusters;
        store.compact(folded).unwrap();
        let manifest_ids: Vec<u64> = store.segments().iter().map(|m| m.id).collect();
        assert_eq!(manifest_ids, [3, 2]);
        let corpus = SegmentedCorpus::new(store, HashMap::new(), model);

        let plain = QueryRequest::new(class);
        let windowed =
            QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(10.0, 50.0));
        let tracked = QueryRequest::new(class)
            .with_tracks(TrackFilter::new().and(TrackPredicate::speed_above(60.0)));
        let classes = corpus.lookup_classes(class, &QueryFilter::any());
        for planned in [
            corpus.plan_with_tail(&plain, Some(&tail)),
            corpus.plan_with_tail(&windowed, Some(&tail)),
            corpus.plan_with_tail(&tracked, Some(&tail)),
            corpus.plan_with_tail_scoped(&tracked, Some(&tail), &classes, true, false),
            corpus.plan_with_tail_scoped(&windowed, Some(&tail), &classes, false, true),
        ] {
            assert_partition(&planned.unwrap());
        }
        // Both segments and the tail contribute.
        let full = corpus.plan_with_tail(&plain, Some(&tail)).unwrap();
        assert_eq!(full.chunks.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Records are shared, never copied: planned twice on a warm store,
    /// every segment record (a decoded hit both times) is the same
    /// allocation in both plans, and every tail record is the tail part's
    /// own.
    #[test]
    fn plans_share_records_with_the_decoded_tier_and_the_tail() {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let class = ds.dominant_classes(1)[0];
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let dir = test_dir("shared_records");
        let mut store = SegmentStore::create(&dir).unwrap();
        let mut pipeline =
            crate::pipeline::FramePipeline::new(ds.profile.stream_id, ds.profile.fps, params());
        for (i, frames) in ds.frames.chunks(ds.frames.len() / 3).enumerate() {
            for frame in frames {
                pipeline.push_frame(frame, model.classifier.as_ref());
            }
            if i < 2 {
                store.seal(&pipeline.seal_segment()).unwrap();
            }
        }
        let mut tail = TailOverlay::new();
        tail.add_shared(pipeline.peek_shared());
        let corpus = SegmentedCorpus::new(store, HashMap::new(), model);
        let request = QueryRequest::new(class);
        // Disk, then the raw tier's promotion: from the third plan on every
        // block is a decoded hit.
        for _ in 0..2 {
            corpus.plan_with_tail(&request, Some(&tail)).unwrap();
        }
        let first = corpus.plan_with_tail(&request, Some(&tail)).unwrap();
        let second = corpus.plan_with_tail(&request, Some(&tail)).unwrap();
        for planned in [&first, &second] {
            assert!(planned.access.block_hits > 0, "{:?}", planned.access);
            assert_eq!(planned.access.blocks_read, 0, "{:?}", planned.access);
            assert_eq!(planned.access.block_raw_hits, 0, "{:?}", planned.access);
        }
        assert!(first.tail_records > 0);
        assert!(first.tail_records < first.records.len());

        let part = &tail.parts()[0];
        let classes = corpus.lookup_classes(class, &QueryFilter::any());
        let tail_records = part.index().lookup(classes[0], &QueryFilter::any());
        let from_tail = |record: &Arc<ClusterRecord>| {
            tail_records
                .binary_search_by_key(&record.key, |r| r.key)
                .ok()
                .map(|at| tail_records[at])
        };
        let mut shared_with_tail = 0;
        for (a, b) in first.records.iter().zip(&second.records) {
            assert!(Arc::ptr_eq(a, b), "{:?} copied between plans", a.key);
            if let Some(own) = from_tail(a) {
                assert!(Arc::ptr_eq(a, own), "{:?} copied out of the tail", a.key);
                shared_with_tail += 1;
            }
        }
        assert_eq!(shared_with_tail, first.tail_records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn accessors_expose_store_and_model() {
        let (_, mut corpus, dir) = corpus("accessors");
        assert_eq!(corpus.store().len(), 4);
        assert!(!corpus.centroids.is_empty());
        let folded = corpus.store_mut().compact(usize::MAX).unwrap();
        assert!(folded > 0);
        assert_eq!(corpus.store().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
