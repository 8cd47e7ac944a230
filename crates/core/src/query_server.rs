//! Concurrent query serving: batched GT-CNN verification with a
//! cross-query centroid-verdict cache.
//!
//! [`QueryServer`] is the one query-time verifier: every GT verdict at
//! query time comes from its verification round. Re-running the
//! ground-truth CNN on the same centroids for every query that matches
//! them would repeat exactly the redundant-inference pattern Focus's
//! ingest-time clustering exists to avoid, so the server removes that
//! redundancy along three axes:
//!
//! 1. **Concurrency** — many planned
//!    [`QueryRequest`](crate::query::QueryRequest)s are accepted per
//!    [`serve_resolved`](QueryServer::serve_resolved) call, and one server
//!    is shared by every request thread (it is `Send + Sync`). The callers
//!    supply the concurrency: a call verifies on its own thread, and the
//!    GPU cluster's parallelism is modelled by
//!    [`GpuClusterSpec::latency_secs`], not by threads.
//! 2. **Deduplication + batching** — the union of the in-flight queries'
//!    candidate centroids is deduplicated, and only the *fresh* centroids
//!    go to the GT-CNN, in batches whose amortized GPU cost comes from
//!    [`BatchCostModel`].
//! 3. **Memoization** — every verdict is cached under
//!    `(centroid ObjectId, ground-truth epoch)`, so repeated and
//!    overlapping queries skip GT-CNN work entirely. Only two things bump
//!    the epoch, which atomically invalidates every cached verdict:
//!    retraining the ground-truth model
//!    ([`retrain_ground_truth`](QueryServer::retrain_ground_truth)) and an
//!    explicit [`invalidate`](QueryServer::invalidate).
//!
//! # Verdict lifetime
//!
//! A verdict is `gt.classify_batch(observation)`: it depends on the
//! centroid's observation and the GT-CNN, not on the ingest CNN that
//! indexed the centroid. So a verdict lives as long as the GT model that
//! produced it, and a stream's retrain or reconfiguration (a new ingest
//! model) leaves the cache as it was. This is safe because an `ObjectId`
//! names one observation for the life of a corpus: ids carry their stream
//! in the high bits, [`VideoDataset::continue_with`] offsets a
//! continuation's ids past the recording's, and
//! [`SegmentedCorpus::centroids`] is keyed by them.
//!
//! The same invariant bounds the cache. Every entry is for a centroid some
//! query verified, so between epoch bumps the cache holds at most one
//! entry per centroid the corpus can resolve — never more than
//! `corpus().centroids.len()` once every tail is sealed
//! (`tests/live_service.rs` pins this). An entry is a 16-byte key plus a
//! [`ClassId`], much smaller than the [`ObjectObservation`] the centroid
//! map already holds resident for the same centroid.
//!
//! [`VideoDataset::continue_with`]: focus_video::VideoDataset::continue_with
//! [`SegmentedCorpus::centroids`]: crate::query::segmented::SegmentedCorpus::centroids
//!
//! The server owns one verification round (dedupe, batch, memoize); the
//! rounds themselves are run by the one executor, [`run_batch`], which
//! [`serve_resolved`](QueryServer::serve_resolved) and the service's
//! serving body wrap: an exact request is an anytime request run to
//! exhaustion in one round.
//!
//! A cold server serving one exact request verifies every candidate
//! exactly once; a shared, warm server must return byte-identical frames
//! and objects while performing strictly fewer GT-CNN inferences on
//! overlapping workloads (`tests/query_server.rs` pins this).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use focus_cnn::{Classifier, GpuCost, GroundTruthCnn};
use focus_index::ClusterRecord;
use focus_runtime::{BatchCostModel, GpuClusterSpec, GpuMeter};
use focus_video::{ClassId, ObjectId, ObjectObservation};

use crate::query::anytime::{run_batch, PlannedRequest};
use crate::query::{AnytimeMode, QueryOutcome, QueryPlan};

/// Snapshot of the verdict cache's activity, as returned by
/// [`QueryServer::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Candidate verdicts served without a GT-CNN inference: either from
    /// the cache, or computed once for several overlapping in-flight
    /// queries in the same batch.
    pub hits: usize,
    /// Fresh GT-CNN inferences performed (each also becomes a cache entry).
    pub misses: usize,
    /// Verdicts currently cached (for the current ground-truth epoch).
    pub entries: usize,
    /// The current ground-truth epoch; bumping it invalidates every cached
    /// verdict.
    pub epoch: u64,
}

impl CacheStats {
    /// Fraction of candidate verdicts served without an inference
    /// (0.0 when nothing has been served yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent query server over one ingested video corpus.
///
/// Accepts many planned queries per call, deduplicates the union of needed
/// centroid inferences across the in-flight queries, verifies only the
/// fresh centroids through the batched [`GroundTruthCnn::classify_batch`]
/// path, and memoizes every verdict in a cross-query cache keyed by
/// `(ObjectId, ground-truth epoch)`.
///
/// # Examples
///
/// The live service verifies through its embedded server. Serving two
/// overlapping queries and reading the cache stats — the narrower query's
/// candidates are a subset of the wider one's, so they are verified once
/// and shared:
///
/// ```
/// use focus_core::prelude::*;
/// use focus_core::query::QueryRequest;
/// use focus_index::QueryFilter;
/// use focus_video::profile::profile_by_name;
///
/// let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 20.0);
/// let mut service = FocusService::create_with(
///     std::sync::Arc::new(focus_index::MemFs::default()),
///     "/store",
///     ServiceConfig::default(),
///     focus_cnn::GroundTruthCnn::resnet152(),
/// )?;
/// service.register_stream(ds.profile.stream_id, ds.profile.fps)?;
/// service.advance(&ds.frames)?;
///
/// let class = ds.dominant_classes(1)[0];
/// let requests = [
///     QueryRequest::new(class),
///     QueryRequest::new(class).with_filter(QueryFilter::any().with_kx(1)),
/// ];
/// service.serve(&requests)?;
/// let stats = service.query_server().cache_stats();
/// assert!(stats.hits > 0 && stats.misses > 0, "the overlap reused verdicts");
///
/// // A repeated query is answered entirely from the cache: zero new
/// // inferences.
/// let again = service.serve(&requests[..1])?;
/// assert_eq!(again[0].centroid_inferences, 0);
/// # Ok::<(), focus_index::SegmentError>(())
/// ```
#[derive(Debug)]
pub struct QueryServer {
    gt: Mutex<Arc<GroundTruthCnn>>,
    epoch: AtomicU64,
    gpus: GpuClusterSpec,
    batching: BatchCostModel,
    cache: Mutex<HashMap<(ObjectId, u64), ClassId>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

// Serving is the shared-everything side of the system: one server instance
// is hit by many request threads, so its cross-thread shareability is an
// explicit API guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryServer>();
};

impl QueryServer {
    /// Creates a server around the given ground-truth CNN and GPU cluster,
    /// with the default [`BatchCostModel`].
    pub fn new(gt: GroundTruthCnn, gpus: GpuClusterSpec) -> Self {
        Self {
            gt: Mutex::new(Arc::new(gt)),
            epoch: AtomicU64::new(0),
            gpus,
            batching: BatchCostModel::default(),
            cache: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The GPU cluster serving queries.
    pub fn gpus(&self) -> GpuClusterSpec {
        self.gpus
    }

    /// The batched-inference cost model.
    pub fn batching(&self) -> BatchCostModel {
        self.batching
    }

    /// The ground-truth CNN currently confirming centroids.
    pub fn ground_truth(&self) -> Arc<GroundTruthCnn> {
        Arc::clone(&self.gt.lock())
    }

    /// The current ground-truth epoch. Cached verdicts are keyed by epoch,
    /// so any bump (a GT retrain or an explicit
    /// [`invalidate`](Self::invalidate)) atomically invalidates them all.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Replaces the ground-truth CNN with a retrained model and bumps the
    /// epoch: verdicts from the old model are never served again.
    pub fn retrain_ground_truth(&self, gt: GroundTruthCnn) {
        let mut current = self.gt.lock();
        *current = Arc::new(gt);
        self.bump_epoch_locked();
    }

    /// Invalidates every cached verdict without changing the model.
    ///
    /// Nothing in the system needs this: an ingest-model retrain or
    /// reconfiguration keeps every verdict valid, because a verdict depends
    /// only on the observation and the GT model and an `ObjectId` names one
    /// observation for the life of a corpus (see the module docs' *Verdict
    /// lifetime*, which also bounds the cache at one entry per resolvable
    /// centroid). Call it only when that invariant is broken on purpose —
    /// a corpus rebuilt so that old ids name different observations — or
    /// to measure a cold cache.
    pub fn invalidate(&self) {
        let _guard = self.gt.lock();
        self.bump_epoch_locked();
    }

    /// Bumps the epoch and drops stale entries. Callers must hold the `gt`
    /// lock so a concurrent `serve` cannot interleave a model swap with an
    /// epoch it doesn't belong to.
    fn bump_epoch_locked(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Correctness comes from the epoch in the key; clearing just keeps
        // the map from accumulating unreachable entries.
        self.cache.lock().clear();
    }

    /// Snapshot of cache activity since the server was created.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            entries: self.cache.lock().len(),
            epoch: self.epoch(),
        }
    }

    /// Serves pre-built plans whose candidate records were already resolved
    /// by the caller, returning one outcome per plan, in plan order — the
    /// seam the fleet's gather feeds with its merged shard plans.
    /// `records[i]` must be aligned with `plans[i].candidates`, as
    /// [`SegmentedPlan::records`] is, so a record is found by position, not
    /// by key; `resolve_centroid` must return the observation behind every
    /// candidate centroid.
    ///
    /// Every plan runs through the one executor, [`run_batch`], in one
    /// round with the rest of the batch, charged to `meter` as `"query"`.
    /// The round dedupes against the verdict cache for the current epoch
    /// and across the batch, sends only the fresh centroids to
    /// [`GroundTruthCnn::classify_batch`] at the amortized
    /// [`BatchCostModel`] cost, memoizes, and assembles from its own
    /// verdict snapshot, so a concurrent epoch bump never starves it.
    ///
    /// Accounting: each outcome's `centroid_inferences` counts only the
    /// fresh inferences that query was first to need; `gpu_cost` is its
    /// proportional share of the round's cost; `latency_secs` is the
    /// round's latency, shared within the round.
    ///
    /// [`SegmentedPlan::records`]: crate::query::segmented::SegmentedPlan::records
    ///
    /// # Panics
    ///
    /// Panics if `records` and `plans` differ in length, a confirmed
    /// candidate has no record at its position, or `resolve_centroid` fails
    /// for a candidate.
    pub fn serve_resolved(
        &self,
        plans: &[QueryPlan],
        records: &[Vec<Arc<ClusterRecord>>],
        resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
        meter: &GpuMeter,
    ) -> Vec<QueryOutcome> {
        assert_eq!(plans.len(), records.len(), "one record vector per plan");
        let requests: Vec<PlannedRequest> = plans
            .iter()
            .zip(records)
            .map(|(plan, records)| {
                debug_assert!(
                    plan.candidates
                        .iter()
                        .map(|h| h.cluster)
                        .eq(records.iter().map(|r| r.key)),
                    "records aligned with candidates"
                );
                PlannedRequest {
                    plan,
                    records,
                    mode: AnytimeMode::exhaustive(),
                }
            })
            .collect();
        run_batch(self, &requests, resolve_centroid, meter, |_, _| {}, |_| {})
            .into_iter()
            .map(|run| run.outcome)
            .collect()
    }

    /// One round of centroid verification — what every round of
    /// [`run_batch`] runs: classifies exactly the given centroids (in
    /// order) through the pin-epoch / dedupe-against-cache /
    /// batched-classify / memoize pipeline. The caller charges the
    /// returned cost to its meter, under the phase of whoever scheduled
    /// the work.
    ///
    /// The returned [`VerifiedBatch`] marks which positions scheduled a
    /// fresh GT inference: a cached verdict costs nothing and does not
    /// count in an anytime partial's `inferences_spent`, while every fresh
    /// verdict is both charged and memoized for future queries.
    ///
    /// # Panics
    ///
    /// Panics if `resolve_centroid` fails for a centroid that needs a
    /// fresh inference.
    pub(crate) fn verify_round(
        &self,
        centroids: &[ObjectId],
        resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
    ) -> VerifiedBatch {
        /// Where one position's verdict comes from: copied out of the cache
        /// at dedupe time, or an index into the round's fresh results.
        #[derive(Clone, Copy)]
        enum VerdictSource {
            Cached(ClassId),
            Fresh(usize),
        }

        // Pin the (model, epoch) pair for the round.
        let (gt, epoch) = {
            let guard = self.gt.lock();
            (Arc::clone(&guard), self.epoch())
        };

        // Dedupe against the cache and within the round; each verdict
        // source is captured locally so a concurrent epoch bump cannot
        // starve the in-flight round.
        let mut fresh: Vec<ObjectId> = Vec::new();
        let mut sources: Vec<VerdictSource> = Vec::with_capacity(centroids.len());
        let mut hits = 0usize;
        {
            let cache = self.cache.lock();
            let mut scheduled: HashMap<ObjectId, usize> = HashMap::new();
            for id in centroids {
                if let Some(label) = cache.get(&(*id, epoch)) {
                    hits += 1;
                    sources.push(VerdictSource::Cached(*label));
                } else if let Some(&index) = scheduled.get(id) {
                    hits += 1;
                    sources.push(VerdictSource::Fresh(index));
                } else {
                    let index = fresh.len();
                    scheduled.insert(*id, index);
                    fresh.push(*id);
                    sources.push(VerdictSource::Fresh(index));
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::SeqCst);
        self.misses.fetch_add(fresh.len(), Ordering::SeqCst);

        // Batched GT-CNN verification of the fresh set, on this thread.
        let observations: Vec<ObjectObservation> = fresh
            .iter()
            .map(|id| resolve_centroid(*id).expect("ingest stored every centroid observation"))
            .collect();
        let fresh_labels = gt.classify_batch(&observations);
        let cost = self
            .batching
            .batch_cost(gt.cost_per_inference(), fresh.len());

        // Memoize under the pinned epoch, shared with every other path. (If
        // a concurrent bump raced past the pinned epoch, these entries are
        // unreachable and bounded — correctness is carried by the epoch in
        // the key, not by the purge.)
        {
            let mut cache = self.cache.lock();
            for (id, label) in fresh.iter().zip(fresh_labels.iter()) {
                cache.insert((*id, epoch), *label);
            }
        }

        let mut labels = Vec::with_capacity(sources.len());
        let mut fresh_mask = Vec::with_capacity(sources.len());
        let mut first_use: Vec<bool> = vec![true; fresh.len()];
        for source in &sources {
            match source {
                VerdictSource::Cached(label) => {
                    labels.push(*label);
                    fresh_mask.push(false);
                }
                VerdictSource::Fresh(index) => {
                    labels.push(fresh_labels[*index]);
                    // Only the position that scheduled the inference counts
                    // as fresh; a within-round duplicate rides for free.
                    fresh_mask.push(std::mem::take(&mut first_use[*index]));
                }
            }
        }
        VerifiedBatch {
            labels,
            fresh_mask,
            fresh_inferences: fresh.len(),
            cost,
            latency_secs: self.gpus.latency_secs(cost),
        }
    }
}

/// The result of one [`QueryServer::verify_round`] call: one verdict per
/// input centroid (input order), with the positions that scheduled a fresh
/// GT inference marked, so each request's cost share and fresh/cached
/// counts only see work that actually cost GPU time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VerifiedBatch {
    /// One GT verdict per input centroid, in input order.
    pub labels: Vec<ClassId>,
    /// `fresh_mask[i]` is true when `labels[i]` came from a fresh GT
    /// inference scheduled by position `i` (false for cache hits and
    /// within-round duplicates).
    pub fresh_mask: Vec<bool>,
    /// Fresh GT-CNN inferences this round performed (deduplicated).
    pub fresh_inferences: usize,
    /// Amortized GPU cost of the fresh inferences.
    pub cost: GpuCost,
    /// Wall-clock latency of the round on the GPU cluster.
    pub latency_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::GroundTruthLabels;
    use crate::ingest::{IngestCnn, IngestParams};
    use crate::pipeline::tests::replay;
    use crate::query::QueryRequest;
    use focus_cnn::specialize::SpecializationLevel;
    use focus_cnn::{ModelSpec, SpecializedCnn};
    use focus_index::{QueryFilter, TopKIndex};
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    /// One recording's index and the model that built it: what the
    /// in-memory reference planner plans over.
    struct Ingested {
        index: TopKIndex,
        model: IngestCnn,
    }

    fn ingest(ds: &VideoDataset, model: IngestCnn, params: IngestParams) -> Ingested {
        let index = replay(ds, &model, params).seal_segment();
        Ingested { index, model }
    }

    /// Plans every request with [`QueryPlan::build`] and serves the plans
    /// in one [`QueryServer::serve_resolved`] call.
    fn serve(
        server: &QueryServer,
        out: &Ingested,
        requests: &[QueryRequest],
        meter: &GpuMeter,
    ) -> Vec<QueryOutcome> {
        let (plans, records): (Vec<_>, Vec<_>) = requests
            .iter()
            .map(|request| QueryPlan::build(&out.index, &out.model, request))
            .unzip();
        let resolve = |id| out.index.centroid(id).cloned();
        server.serve_resolved(&plans, &records, resolve, meter)
    }

    fn setup(k: usize) -> (VideoDataset, Ingested) {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 90.0);
        let params = IngestParams {
            k,
            ..IngestParams::default()
        };
        let out = ingest(&ds, IngestCnn::generic(ModelSpec::cheap_cnn_1()), params);
        (ds, out)
    }

    /// A 120-second recording ingested with a model specialized to its `ls`
    /// most frequent classes and a top-`k` index.
    fn setup_specialized(k: usize, ls: usize) -> (VideoDataset, Ingested) {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 120.0);
        let gt = GroundTruthCnn::resnet152();
        let sample: Vec<_> = ds
            .objects()
            .map(|o| (o.clone(), gt.classify_top1(o)))
            .collect();
        let model = IngestCnn::specialized(
            SpecializedCnn::train(&ds.profile.name, SpecializationLevel::Medium, &sample, ls)
                .unwrap(),
        );
        let params = IngestParams {
            k,
            ..IngestParams::default()
        };
        let out = ingest(&ds, model, params);
        (ds, out)
    }

    fn server() -> QueryServer {
        QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4))
    }

    /// `request` served alone by a fresh server: every candidate verified
    /// exactly once, nothing cached, nothing shared.
    fn cold(out: &Ingested, request: QueryRequest) -> QueryOutcome {
        serve(&server(), out, &[request], &GpuMeter::new()).remove(0)
    }

    #[test]
    fn server_matches_engine_results() {
        let (ds, out) = setup(10);
        let classes = ds.dominant_classes(3);
        let server = server();
        let requests: Vec<QueryRequest> = classes.iter().map(|c| QueryRequest::new(*c)).collect();
        let served = serve(&server, &out, &requests, &GpuMeter::new());
        for (request, outcome) in requests.iter().zip(served.iter()) {
            let alone = cold(&out, request.clone());
            assert_eq!(outcome.frames, alone.frames);
            assert_eq!(outcome.objects, alone.objects);
            assert_eq!(outcome.matched_clusters, alone.matched_clusters);
            assert_eq!(outcome.confirmed_clusters, alone.confirmed_clusters);
            assert_eq!(alone.centroid_inferences, alone.matched_clusters);
        }
    }

    #[test]
    fn repeated_serve_is_free_and_identical() {
        let (ds, out) = setup(10);
        let class = ds.dominant_classes(1)[0];
        let server = server();
        let requests = vec![QueryRequest::new(class)];
        let meter = GpuMeter::new();
        let first = serve(&server, &out, &requests, &meter);
        let charged_after_first = meter.phase("query").seconds();
        assert!(first[0].centroid_inferences > 0);
        assert!(charged_after_first > 0.0);

        let second = serve(&server, &out, &requests, &meter);
        assert_eq!(first[0].frames, second[0].frames);
        assert_eq!(first[0].objects, second[0].objects);
        assert_eq!(second[0].centroid_inferences, 0);
        assert_eq!(second[0].gpu_cost, GpuCost::ZERO);
        assert_eq!(second[0].latency_secs, 0.0);
        // No new GPU time was charged.
        assert_eq!(meter.phase("query").seconds(), charged_after_first);
    }

    #[test]
    fn overlap_within_a_batch_is_deduplicated() {
        let (ds, out) = setup(10);
        let class = ds.dominant_classes(1)[0];
        let server = server();
        // The same query twice in one batch: the second instance must not
        // schedule any additional inference.
        let requests = vec![QueryRequest::new(class), QueryRequest::new(class)];
        let served = serve(&server, &out, &requests, &GpuMeter::new());
        assert_eq!(served[0].frames, served[1].frames);
        assert!(served[0].centroid_inferences > 0);
        assert_eq!(served[1].centroid_inferences, 0);
        let stats = server.cache_stats();
        assert_eq!(stats.hits, served[0].matched_clusters);
        assert_eq!(stats.misses, served[0].matched_clusters);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batched_cost_is_amortized() {
        let (ds, out) = setup(10);
        let class = ds.dominant_classes(1)[0];
        let served = cold(&out, QueryRequest::new(class));
        assert_eq!(served.centroid_inferences, served.matched_clusters);
        // The paper's cost unit: one un-batched inference per candidate.
        let unbatched =
            GroundTruthCnn::resnet152().cost_per_inference() * served.centroid_inferences;
        if served.centroid_inferences > 1 {
            assert!(
                served.gpu_cost < unbatched,
                "batching must amortize launch overhead: {} vs {}",
                served.gpu_cost.seconds(),
                unbatched.seconds()
            );
        }
    }

    #[test]
    fn query_returns_frames_of_dominant_class_with_high_accuracy() {
        let (ds, out) = setup_specialized(2, 15);
        let labels = GroundTruthLabels::compute(&ds, &GroundTruthCnn::resnet152());
        let class = labels.dominant_classes(1)[0];
        let meter = GpuMeter::new();
        let outcome = serve(&server(), &out, &[QueryRequest::new(class)], &meter).remove(0);
        assert!(!outcome.frames.is_empty());
        assert!(outcome.confirmed_clusters <= outcome.matched_clusters);
        assert_eq!(outcome.centroid_inferences, outcome.matched_clusters);
        let report = labels.evaluate(class, &outcome.frames);
        assert!(report.recall > 0.8, "recall = {}", report.recall);
        assert!(report.precision > 0.8, "precision = {}", report.precision);
        // The meter was charged for the GT work.
        assert!((meter.phase("query").seconds() - outcome.gpu_cost.seconds()).abs() < 1e-9);
    }

    #[test]
    fn query_is_much_cheaper_than_classifying_every_object() {
        let (ds, out) = setup_specialized(2, 15);
        let class = ds.dominant_classes(1)[0];
        let outcome = cold(&out, QueryRequest::new(class));
        let query_all_cost = GroundTruthCnn::resnet152().cost_per_inference() * ds.object_count();
        assert!(
            outcome.gpu_cost.seconds() * 5.0 < query_all_cost.seconds(),
            "query cost {} vs query-all {}",
            outcome.gpu_cost.seconds(),
            query_all_cost.seconds()
        );
        assert!(outcome.latency_secs > 0.0);
        assert!(outcome.latency_secs < query_all_cost.seconds());
    }

    #[test]
    fn rare_class_query_goes_through_other() {
        let (ds, out) = setup_specialized(2, 6);
        // Pick a class that occurs but was not specialized for.
        let hist = ds.class_histogram();
        let specialized = out.model.specialized_classes.clone().unwrap();
        let rare = hist
            .iter()
            .filter(|(c, _)| !specialized.contains(c))
            .max_by_key(|(_, n)| **n)
            .map(|(c, _)| *c);
        let Some(rare) = rare else {
            // Every observed class was specialized for; nothing to test.
            return;
        };
        // The OTHER path still finds the class (recall may be lower, but the
        // class must be reachable).
        let outcome = cold(&out, QueryRequest::new(rare));
        assert_ne!(
            outcome.class,
            QueryPlan::build(&out.index, &out.model, &QueryRequest::new(rare))
                .0
                .lookup_class
        );
        assert!(outcome.matched_clusters > 0);
    }

    #[test]
    fn time_range_filter_limits_results() {
        let (ds, out) = setup(10);
        let class = ds.dominant_classes(1)[0];
        let all = cold(&out, QueryRequest::new(class));
        let first_half = cold(
            &out,
            QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(0.0, 60.0)),
        );
        assert!(first_half.matched_clusters <= all.matched_clusters);
        assert!(first_half.frames.len() <= all.frames.len());
        for f in &first_half.frames {
            // Frames can extend slightly past the cut-off because clusters
            // only need to overlap the range, but they must start within it.
            assert!(f.0 <= (65.0 * ds.profile.fps as f64) as u64);
        }
    }

    #[test]
    fn dynamic_kx_trades_recall_for_latency() {
        let (ds, out) = setup(20);
        let class = ds.dominant_classes(1)[0];
        let full = cold(&out, QueryRequest::new(class));
        let narrow = cold(
            &out,
            QueryRequest::new(class).with_filter(QueryFilter::any().with_kx(2)),
        );
        assert!(narrow.matched_clusters <= full.matched_clusters);
        assert!(narrow.gpu_cost <= full.gpu_cost);
    }

    #[test]
    fn more_gpus_reduce_latency_not_cost() {
        let (ds, out) = setup(10);
        let request = [QueryRequest::new(ds.dominant_classes(1)[0])];
        let few = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(2));
        let many = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(20));
        let a = serve(&few, &out, &request, &GpuMeter::new()).remove(0);
        let b = serve(&many, &out, &request, &GpuMeter::new()).remove(0);
        assert_eq!(a.gpu_cost, b.gpu_cost);
        assert!(b.latency_secs < a.latency_secs);
        assert_eq!(few.gpus().num_gpus, 2);
    }

    #[test]
    fn epoch_bump_invalidates_cached_verdicts() {
        let (ds, out) = setup(10);
        let class = ds.dominant_classes(1)[0];
        // A flicker-free GT confirms the dominant class; a flicker-always
        // GT answers with scattered wrong classes, so the same query must
        // flip from non-empty to empty across the retrain.
        let server = QueryServer::new(GroundTruthCnn::with_flicker(0.0), GpuClusterSpec::new(4));
        let request = vec![QueryRequest::new(class)];
        let before = serve(&server, &out, &request, &GpuMeter::new());
        assert!(before[0].confirmed_clusters > 0);
        assert_eq!(server.epoch(), 0);

        server.retrain_ground_truth(GroundTruthCnn::with_flicker(1.0));
        assert_eq!(server.epoch(), 1);
        let after = serve(&server, &out, &request, &GpuMeter::new());
        // Old verdicts were not served: the new model re-ran and rejected.
        assert!(after[0].centroid_inferences > 0);
        assert_ne!(before[0].confirmed_clusters, after[0].confirmed_clusters);
    }

    #[test]
    fn invalidate_clears_cache_without_model_change() {
        let (ds, out) = setup(4);
        let class = ds.dominant_classes(1)[0];
        let server = server();
        let request = vec![QueryRequest::new(class)];
        let first = serve(&server, &out, &request, &GpuMeter::new());
        assert!(server.cache_stats().entries > 0);
        server.invalidate();
        assert_eq!(server.cache_stats().entries, 0);
        let second = serve(&server, &out, &request, &GpuMeter::new());
        // Same model, so same results — but the work was re-done.
        assert_eq!(first[0].frames, second[0].frames);
        assert_eq!(first[0].centroid_inferences, second[0].centroid_inferences);
    }

    #[test]
    fn empty_request_batch_is_a_no_op() {
        let (_, out) = setup(4);
        let server = server();
        let meter = GpuMeter::new();
        assert!(serve(&server, &out, &[], &meter).is_empty());
        assert_eq!(meter.total().seconds(), 0.0);
        assert_eq!(server.cache_stats(), CacheStats::default());
    }

    #[test]
    fn absent_class_is_rejected_with_exact_metered_cost() {
        let (_, out) = setup(4);
        let server = server();
        let meter = GpuMeter::new();
        let absent = QueryRequest::new(ClassId(850)).with_filter(QueryFilter::any().with_kx(1));
        let outcome = serve(&server, &out, &[absent], &meter).remove(0);
        // GT confirmation rejects stray postings for a class that never
        // occurs in the stream.
        assert_eq!(outcome.confirmed_clusters, 0);
        assert!(outcome.frames.is_empty());
        assert!(outcome.objects.is_empty());
        // A cold server verifies exactly the matched candidates, and the
        // meter charge is exactly their amortized batch cost — zero when
        // nothing matched.
        assert_eq!(outcome.matched_clusters, outcome.centroid_inferences);
        let expected = server.batching().batch_cost(
            server.ground_truth().cost_per_inference(),
            outcome.matched_clusters,
        );
        assert_eq!(
            meter.phase("query").seconds().to_bits(),
            expected.seconds().to_bits()
        );
    }

    #[test]
    fn concurrent_invalidation_never_starves_inflight_batches() {
        // An epoch bump may clear the cache while a batch is in flight; the
        // batch must still assemble from its own verdict snapshot (pinned
        // at dedupe time) instead of panicking on a missing cache entry.
        let (ds, out) = setup(10);
        let class = ds.dominant_classes(1)[0];
        let server = server();
        let requests = vec![QueryRequest::new(class), QueryRequest::new(class)];
        std::thread::scope(|scope| {
            let srv = &server;
            let out_ref = &out;
            let reqs = &requests;
            let serving = scope.spawn(move || {
                for _ in 0..30 {
                    let outcomes = serve(srv, out_ref, reqs, &GpuMeter::new());
                    assert_eq!(outcomes.len(), 2);
                    // Both requests of a batch share one pinned epoch.
                    assert_eq!(outcomes[0].frames, outcomes[1].frames);
                }
            });
            scope.spawn(move || {
                for _ in 0..120 {
                    srv.invalidate();
                    std::thread::yield_now();
                }
            });
            serving.join().unwrap();
        });
    }

    #[test]
    fn accessors_report_configuration() {
        let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(8));
        assert_eq!(server.gpus().num_gpus, 8);
        assert_eq!(server.batching(), BatchCostModel::default());
        assert_eq!(server.ground_truth().name(), "ResNet152");
        assert_eq!(server.epoch(), 0);
    }
}
