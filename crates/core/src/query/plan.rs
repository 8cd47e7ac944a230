//! Query planning (QT1/QT2): from a user request to a candidate centroid
//! set.
//!
//! Planning is pure index work — no GPU time is spent here. The plan's
//! candidate list is made of stable [`CentroidHandle`]s, sorted by cluster
//! key, which is what lets the serving layer deduplicate GT-CNN work across
//! concurrent queries and key its verdict cache by centroid object id.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_index::{CentroidHandle, ClusterRecord, QueryFilter, TopKIndex};
use focus_video::ClassId;

use crate::ingest::IngestCnn;
use crate::query::track::{TrackFilter, TrackScope};

/// One class query as submitted to the query layer: the class the user asks
/// for plus the camera / time / `Kx` restrictions.
///
/// # Examples
///
/// ```
/// use focus_core::query::QueryRequest;
/// use focus_index::QueryFilter;
/// use focus_video::ClassId;
///
/// let plain = QueryRequest::new(ClassId(3));
/// assert_eq!(plain.filter, QueryFilter::any());
///
/// let narrow = QueryRequest::new(ClassId(3)).with_filter(QueryFilter::any().with_kx(2));
/// assert_eq!(narrow.filter.kx, Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// The object class being queried.
    pub class: ClassId,
    /// Camera / time-range / dynamic-`Kx` restrictions.
    pub filter: QueryFilter,
    /// How the query wants its results: all-at-once (exhaustive, the
    /// default) or incrementally under an anytime budget.
    #[serde(default)]
    pub anytime: AnytimeMode,
    /// Trajectory restrictions, ANDed with everything above: only tracks
    /// admitted by every predicate may contribute results. Empty (the
    /// default) restricts nothing. See [`crate::query::track`].
    #[serde(default)]
    pub tracks: TrackFilter,
}

impl QueryRequest {
    /// A request for `class` with no restrictions.
    pub fn new(class: ClassId) -> Self {
        Self {
            class,
            filter: QueryFilter::any(),
            anytime: AnytimeMode::default(),
            tracks: TrackFilter::default(),
        }
    }

    /// Returns a copy of the request with `filter` applied.
    pub fn with_filter(mut self, filter: QueryFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Returns a copy of the request with the anytime mode applied.
    pub fn with_anytime(mut self, anytime: AnytimeMode) -> Self {
        self.anytime = anytime;
        self
    }

    /// Returns a copy of the request with a trajectory restriction applied.
    pub fn with_tracks(mut self, tracks: TrackFilter) -> Self {
        self.tracks = tracks;
        self
    }
}

/// How a query's results should be produced.
///
/// `Exhaustive` is the classic plan-verify-assemble path: every candidate
/// centroid is verified before anything is returned. `Incremental` runs
/// the anytime loop (`focus_core::query::anytime`): verification proceeds
/// in rounds of at most `round_budget` GT inferences over the candidates
/// in one fixed order, partial results stream out after every round, and
/// the loop stops once the total inference budget `max_inferences` is
/// spent (`0` disables the bound — a `usize` sentinel keeps the struct
/// serializable with the vendored serde, which cannot derive `Option`
/// defaults inside adjacent enums) or every candidate is verified.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnytimeMode {
    /// `false` = exhaustive (the default); `true` = incremental anytime
    /// execution.
    pub incremental: bool,
    /// GT inferences allowed per verification round (minimum 1 when
    /// incremental).
    pub round_budget: usize,
    /// Total fresh-GT-inference budget; `0` = unbounded (run to candidate
    /// exhaustion).
    pub max_inferences: usize,
}

impl Default for AnytimeMode {
    fn default() -> Self {
        Self::exhaustive()
    }
}

impl AnytimeMode {
    /// The classic all-at-once mode.
    pub fn exhaustive() -> Self {
        Self {
            incremental: false,
            round_budget: 0,
            max_inferences: 0,
        }
    }

    /// Incremental execution with `round_budget` GT inferences per round
    /// and no total budget (runs to exhaustion).
    pub fn incremental(round_budget: usize) -> Self {
        Self {
            incremental: true,
            round_budget: round_budget.max(1),
            max_inferences: 0,
        }
    }

    /// Returns a copy with a total fresh-inference budget.
    pub fn with_max_inferences(mut self, max_inferences: usize) -> Self {
        self.max_inferences = max_inferences;
        self
    }
}

/// The planned candidate set of one query: which cluster centroids the
/// ground-truth CNN must pass verdict on before members can be returned.
///
/// Built by [`SegmentedCorpus::plan_with_tail`](crate::query::SegmentedCorpus::plan_with_tail)
/// over the durable store and the hot tail, or by [`QueryPlan::build`],
/// the in-memory reference planner over one index; verified by the one
/// executor, [`run_batch`](crate::query::run_batch), under
/// [`QueryServer`](crate::query_server::QueryServer).
///
/// # Examples
///
/// ```
/// use focus_core::prelude::*;
/// use focus_core::query::{QueryPlan, QueryRequest};
/// use focus_video::profile::profile_by_name;
///
/// let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 20.0);
/// let model = IngestCnn::generic(focus_cnn::ModelSpec::cheap_cnn_1());
/// let params = IngestParams { k: 10, ..IngestParams::default() };
/// let mut pipeline = FramePipeline::new(ds.profile.stream_id, ds.profile.fps, params);
/// for frame in &ds.frames {
///     pipeline.push_frame(frame, model.classifier.as_ref());
/// }
/// let index = pipeline.seal_segment();
///
/// let class = ds.dominant_classes(1)[0];
/// let (plan, records) = QueryPlan::build(&index, &model, &QueryRequest::new(class));
/// assert_eq!(plan.class, class);
/// assert!(!plan.candidates.is_empty());
/// // Every candidate's centroid observation was retained at ingest time.
/// assert!(plan.candidates.iter().all(|h| index.centroid(h.centroid).is_some()));
/// // The records come back aligned with the candidates.
/// assert!(plan.candidates.iter().map(|h| h.cluster).eq(records.iter().map(|r| r.key)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    /// The class the user queried.
    pub class: ClassId,
    /// The class looked up in the index: equal to `class` unless a
    /// specialized ingest model routed an un-specialized class through
    /// OTHER (§4.3 of the paper).
    pub lookup_class: ClassId,
    /// Stable handles of the matched clusters' centroids, sorted by cluster
    /// key. The GT-CNN verdict on `candidates[i].centroid` decides whether
    /// cluster `candidates[i].cluster`'s members are returned.
    pub candidates: Vec<CentroidHandle>,
    /// The planner's verdict on the request's [`TrackFilter`]: tracks whose
    /// sketches rejected it. Members of rejected tracks are filtered out at
    /// assembly, and clusters made entirely of rejected tracks were dropped
    /// from `candidates` before any GT verification. Empty for requests
    /// without a track filter.
    #[serde(default)]
    pub track_scope: TrackScope,
}

impl QueryPlan {
    /// The in-memory reference planner: plans `request` against one
    /// `index` built by `model`. Maps the class through the model's OTHER
    /// handling (QT1) and retrieves the matching cluster centroids from the
    /// top-K index (QT2). A request with a [`TrackFilter`] additionally
    /// evaluates it against the index's whole-life track sketches and
    /// drops every candidate cluster whose members all belong to rejected
    /// tracks — before any of them would cost a GT inference.
    ///
    /// The service plans through
    /// [`SegmentedCorpus::plan_with_tail`](crate::query::SegmentedCorpus::plan_with_tail),
    /// over segments and the hot tail; the byte-identity tests hold it to
    /// this plan over the same records merged into one index.
    ///
    /// Returns the plan together with each candidate's record — the
    /// index's own shared one — aligned with `candidates`.
    pub fn build(
        index: &TopKIndex,
        model: &IngestCnn,
        request: &QueryRequest,
    ) -> (QueryPlan, Vec<Arc<ClusterRecord>>) {
        let lookup_class = model.effective_query_class(request.class);
        let mut matched = index.lookup(lookup_class, &request.filter);
        let track_scope = if request.tracks.is_empty() {
            TrackScope::default()
        } else {
            let scope = request.tracks.scope_over(&request.filter, index.sketches());
            matched.retain(|record| scope.admits_record(record));
            scope
        };
        let plan = QueryPlan {
            class: request.class,
            lookup_class,
            candidates: matched.iter().copied().map(CentroidHandle::from).collect(),
            track_scope,
        };
        (plan, matched.into_iter().map(Arc::clone).collect())
    }

    /// Number of candidate clusters (the matched-cluster count of the
    /// eventual outcome).
    pub fn matched_clusters(&self) -> usize {
        self.candidates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestParams;
    use crate::pipeline::tests::replay;
    use focus_cnn::ModelSpec;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    fn ingest(k: usize) -> (VideoDataset, TopKIndex, IngestCnn) {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let params = IngestParams {
            k,
            ..IngestParams::default()
        };
        let index = replay(&ds, &model, params).seal_segment();
        (ds, index, model)
    }

    #[test]
    fn plan_matches_index_lookup() {
        let (ds, index, model) = ingest(10);
        let class = ds.dominant_classes(1)[0];
        let (plan, records) = QueryPlan::build(&index, &model, &QueryRequest::new(class));
        assert_eq!(plan.class, class);
        assert_eq!(plan.lookup_class, class);
        let direct = index.lookup(class, &QueryFilter::any());
        assert_eq!(plan.matched_clusters(), direct.len());
        assert_eq!(records.len(), direct.len());
        for ((handle, record), shared) in plan.candidates.iter().zip(direct.iter()).zip(&records) {
            assert_eq!(handle.cluster, record.key);
            assert_eq!(handle.centroid, record.centroid_object);
            // The plan's records are the index's own, not copies.
            assert!(Arc::ptr_eq(record, shared));
        }
    }

    #[test]
    fn plan_is_deterministic_and_sorted() {
        let (ds, index, model) = ingest(10);
        let class = ds.dominant_classes(1)[0];
        let request = QueryRequest::new(class);
        let (a, _) = QueryPlan::build(&index, &model, &request);
        let (b, _) = QueryPlan::build(&index, &model, &request);
        assert_eq!(a, b);
        assert!(a.candidates.windows(2).all(|w| w[0].cluster < w[1].cluster));
    }

    #[test]
    fn filters_shrink_the_plan() {
        let (ds, index, model) = ingest(20);
        let class = ds.dominant_classes(1)[0];
        let plan = |request: QueryRequest| QueryPlan::build(&index, &model, &request).0;
        let full = plan(QueryRequest::new(class));
        let narrow = plan(QueryRequest::new(class).with_filter(QueryFilter::any().with_kx(2)));
        assert!(narrow.matched_clusters() <= full.matched_clusters());
        let early = plan(
            QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(0.0, 10.0)),
        );
        assert!(early.matched_clusters() <= full.matched_clusters());
    }

    #[test]
    fn request_builder() {
        let req = QueryRequest::new(ClassId(7)).with_filter(QueryFilter::any().with_kx(3));
        assert_eq!(req.class, ClassId(7));
        assert_eq!(req.filter.kx, Some(3));
    }
}
