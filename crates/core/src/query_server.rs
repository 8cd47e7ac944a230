//! Concurrent query serving: batched GT-CNN verification with a
//! cross-query centroid-verdict cache.
//!
//! The serial [`QueryEngine`](crate::query::QueryEngine) re-runs the
//! ground-truth CNN on the same centroids for every query that matches them
//! — exactly the redundant-inference pattern Focus's ingest-time clustering
//! exists to avoid. [`QueryServer`] removes that redundancy along three
//! axes:
//!
//! 1. **Concurrency** — many [`QueryRequest`]s are accepted per
//!    [`serve`](QueryServer::serve) call; planning and verification fan out
//!    over the runtime [`WorkerPool`].
//! 2. **Deduplication + batching** — the union of the in-flight queries'
//!    candidate centroids is deduplicated, and only the *fresh* centroids
//!    go to the GT-CNN, in batches whose amortized GPU cost comes from
//!    [`BatchCostModel`].
//! 3. **Memoization** — every verdict is cached under
//!    `(centroid ObjectId, ground-truth epoch)`, so repeated and
//!    overlapping queries skip GT-CNN work entirely. Retraining the
//!    ground-truth model ([`retrain_ground_truth`](QueryServer::retrain_ground_truth))
//!    or re-ingesting data ([`invalidate`](QueryServer::invalidate)) bumps
//!    the epoch, which atomically invalidates every cached verdict.
//!
//! The server is required to return byte-identical frames and objects to
//! the serial engine while performing strictly fewer GT-CNN inferences on
//! overlapping workloads (`tests/query_server.rs` pins this).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use focus_cnn::{Classifier, GpuCost, GroundTruthCnn};
use focus_index::{CentroidHandle, ClusterRecord};
use focus_runtime::{BatchCostModel, GpuClusterSpec, GpuMeter, WorkerPool};
use focus_video::{ClassId, ObjectId, ObjectObservation};

use crate::ingest::IngestOutput;
use crate::query::{assemble_outcome_from, QueryOutcome, QueryPlan, QueryRequest};

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
/// Accepts many queries per call, plans each one's candidate set from the
/// top-K index, deduplicates the union of needed centroid inferences across
/// the in-flight queries, verifies only the fresh centroids through the
/// batched [`GroundTruthCnn::classify_batch`] path, and memoizes every
/// verdict in a cross-query cache keyed by `(ObjectId, ground-truth epoch)`.
///
/// # Examples
///
/// Serving two overlapping queries and reading the cache stats — the
/// narrower query's candidates are a subset of the wider one's, so they are
/// verified once and shared:
///
/// ```
/// use focus_core::prelude::*;
/// use focus_core::query::QueryRequest;
/// use focus_core::query_server::QueryServer;
/// use focus_video::profile::profile_by_name;
///
/// let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 20.0);
/// let ingest = IngestEngine::new(
///     IngestCnn::generic(focus_cnn::ModelSpec::cheap_cnn_1()),
///     IngestParams { k: 10, ..IngestParams::default() },
/// )
/// .ingest(&ds, &focus_runtime::GpuMeter::new());
///
/// let server = QueryServer::new(
///     focus_cnn::GroundTruthCnn::resnet152(),
///     focus_runtime::GpuClusterSpec::new(4),
/// );
/// let class = ds.dominant_classes(1)[0];
/// let requests = vec![
///     QueryRequest::new(class),
///     QueryRequest::new(class)
///         .with_filter(focus_index::QueryFilter::any().with_kx(2)),
/// ];
/// let outcomes = server.serve(&ingest, &requests, &focus_runtime::GpuMeter::new());
/// assert_eq!(outcomes.len(), 2);
///
/// let stats = server.cache_stats();
/// assert!(stats.hits > 0, "the overlapping query reused verdicts");
/// assert!(stats.misses > 0);
/// ```
///
/// A repeated workload is answered entirely from the cache — identical
/// results, zero new inferences:
///
/// ```
/// # use focus_core::prelude::*;
/// # use focus_core::query::QueryRequest;
/// # use focus_core::query_server::QueryServer;
/// # use focus_video::profile::profile_by_name;
/// # let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 20.0);
/// # let ingest = IngestEngine::new(
/// #     IngestCnn::generic(focus_cnn::ModelSpec::cheap_cnn_1()),
/// #     IngestParams { k: 10, ..IngestParams::default() },
/// # )
/// # .ingest(&ds, &focus_runtime::GpuMeter::new());
/// # let server = QueryServer::new(
/// #     focus_cnn::GroundTruthCnn::resnet152(),
/// #     focus_runtime::GpuClusterSpec::new(4),
/// # );
/// # let class = ds.dominant_classes(1)[0];
/// let request = vec![QueryRequest::new(class)];
/// let first = server.serve(&ingest, &request, &focus_runtime::GpuMeter::new());
/// let again = server.serve(&ingest, &request, &focus_runtime::GpuMeter::new());
/// assert_eq!(first[0].frames, again[0].frames);
/// assert_eq!(again[0].centroid_inferences, 0);
/// assert_eq!(again[0].gpu_cost, focus_cnn::GpuCost::ZERO);
/// ```
#[derive(Debug)]
pub struct QueryServer {
    gt: Mutex<Arc<GroundTruthCnn>>,
    epoch: AtomicU64,
    gpus: GpuClusterSpec,
    pool: WorkerPool,
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
    /// with the default [`BatchCostModel`] and a worker pool sized to the
    /// cluster.
    pub fn new(gt: GroundTruthCnn, gpus: GpuClusterSpec) -> Self {
        Self::with_batching(gt, gpus, BatchCostModel::default())
    }

    /// Creates a server with an explicit batched-inference cost model.
    pub fn with_batching(
        gt: GroundTruthCnn,
        gpus: GpuClusterSpec,
        batching: BatchCostModel,
    ) -> Self {
        Self {
            gt: Mutex::new(Arc::new(gt)),
            epoch: AtomicU64::new(0),
            gpus,
            pool: WorkerPool::new(gpus.num_gpus.clamp(1, 16)),
            batching,
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
    /// so any bump (retrain or re-ingest) atomically invalidates them all.
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

    /// Invalidates every cached verdict without changing the model — call
    /// after re-ingesting data, when old centroid object ids may be reused
    /// for different observations.
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

    /// Serves a batch of concurrent queries over `ingest`, returning one
    /// outcome per request, in request order.
    ///
    /// The serving pipeline:
    ///
    /// 1. **Plan** (QT1/QT2) — every request's candidate set is built from
    ///    the top-K index, in parallel on the worker pool.
    /// 2. **Dedupe** — the union of candidate centroids is walked in
    ///    request order; centroids with a cached verdict for the current
    ///    epoch (or already scheduled by an earlier in-flight query) count
    ///    as cache hits, the rest form the fresh set.
    /// 3. **Batched verification** (QT3) — fresh centroids are split into
    ///    GPU-sized batches, classified via
    ///    [`GroundTruthCnn::classify_batch`] across the pool, and charged
    ///    to `meter` (phase `"query"`) at the amortized
    ///    [`BatchCostModel`] rate.
    /// 4. **Memoize + assemble** (QT4) — fresh verdicts enter the cache
    ///    for future calls; every outcome is assembled from the batch's own
    ///    verdict snapshot (captured at dedupe time), so a concurrent
    ///    epoch bump can never starve an in-flight batch.
    ///
    /// Accounting: each outcome's `centroid_inferences` counts only the
    /// fresh inferences that query was first to need; `gpu_cost` is its
    /// proportional share of the batch cost; `latency_secs` is the batch's
    /// wall-clock latency on the GPU cluster, shared by every outcome
    /// served in the batch.
    pub fn serve(
        &self,
        ingest: &IngestOutput,
        requests: &[QueryRequest],
        meter: &GpuMeter,
    ) -> Vec<QueryOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        // QT1/QT2: plan every query concurrently on the worker pool.
        let plans: Vec<QueryPlan> = self.pool.map(requests.to_vec(), |request| {
            QueryPlan::build(ingest, request)
        });
        self.verify_and_assemble(
            &plans,
            |id| ingest.centroids.get(&id).cloned(),
            meter,
            |_, _, handle| {
                ingest
                    .index
                    .get(handle.cluster)
                    .expect("planned cluster still present in the index")
            },
        )
    }

    /// Serves pre-built plans whose candidate records were already resolved
    /// by the caller — the entry point for every planner over durable
    /// storage: the live service's segments-plus-tail union
    /// ([`SegmentedCorpus::plan_with_tail`]) and the fleet's gathered shard
    /// plans. `records[i]` must be aligned with `plans[i].candidates` —
    /// `records[i][j]` is the cluster record of candidate `j`, as
    /// [`SegmentedPlan::records`] is — so a record is found by position, not
    /// by key; `resolve_centroid` must return the observation behind every
    /// candidate centroid (from the durable corpus or the in-memory tail).
    ///
    /// Runs the exact QT3/QT4 pipeline of [`serve`](Self::serve) — dedupe
    /// against the verdict cache for the current ground-truth epoch,
    /// batched verification of only the fresh centroids, memoization, and
    /// batch-local assembly — so a caller mixing tail and segment
    /// candidates inherits the full cache/batching contract unchanged.
    ///
    /// [`SegmentedCorpus::plan_with_tail`]: crate::query::segmented::SegmentedCorpus::plan_with_tail
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
        assert_eq!(
            plans.len(),
            records.len(),
            "one record vector per served plan"
        );
        self.verify_and_assemble(plans, resolve_centroid, meter, |i, j, handle| {
            let record = &*records[i][j];
            debug_assert_eq!(
                record.key, handle.cluster,
                "records aligned with candidates"
            );
            record
        })
    }

    /// One round of centroid verification — the core every
    /// [`serve`](Self::serve) batch and every anytime round runs:
    /// classifies exactly the given centroids (in order) through the
    /// pin-epoch / dedupe-against-cache / batched-classify / memoize
    /// pipeline, charging the amortized batch cost to `meter` under the
    /// caller-named `phase` (the anytime loop passes `"anytime"` so the
    /// [`GpuScheduler`] can arbitrate it on the query side of the budget).
    ///
    /// The returned [`VerifiedBatch`] keeps cache hits and fresh GT
    /// inferences separate: a cached verdict costs nothing and must not
    /// feed the anytime sampler's per-chunk yield estimates, while every
    /// fresh verdict is both charged and memoized for future queries —
    /// anytime rounds and exhaustive serves share one verdict cache.
    ///
    /// [`GpuScheduler`]: focus_runtime::GpuScheduler
    ///
    /// # Panics
    ///
    /// Panics if `resolve_centroid` fails for a centroid that needs a
    /// fresh inference.
    pub fn verify_round(
        &self,
        centroids: &[ObjectId],
        resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
        meter: &GpuMeter,
        phase: &str,
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

        // Dedupe against the cache (and within the round) exactly as one
        // serve batch would; each verdict source is captured locally so a
        // concurrent epoch bump cannot starve the in-flight round.
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

        // Batched GT-CNN verification of the fresh set.
        let batches: Vec<Vec<ObjectObservation>> = fresh
            .chunks(self.batching.max_batch)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|id| {
                        resolve_centroid(*id).expect("ingest stored every centroid observation")
                    })
                    .collect()
            })
            .collect();
        let gt_worker = Arc::clone(&gt);
        let fresh_labels: Vec<ClassId> = self
            .pool
            .map(batches, move |batch| gt_worker.classify_batch(batch))
            .into_iter()
            .flatten()
            .collect();
        let cost = self
            .batching
            .batch_cost(gt.cost_per_inference(), fresh.len());
        meter.charge(phase, cost);

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
            cached_verdicts: hits,
            cost,
            latency_secs: self.gpus.latency_secs(cost),
        }
    }

    /// QT3/QT4 shared by [`serve`](Self::serve) and
    /// [`serve_resolved`](Self::serve_resolved): one
    /// [`verify_round`](Self::verify_round) over the plans' candidate
    /// centroids, flattened in plan order, then one assembled outcome per
    /// plan. `get_record(i, j, handle)` resolves a confirmed candidate —
    /// `handle`, at position `j` of `plans[i].candidates` — to its cluster
    /// record.
    fn verify_and_assemble<'a>(
        &self,
        plans: &[QueryPlan],
        resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
        meter: &GpuMeter,
        get_record: impl Fn(usize, usize, &CentroidHandle) -> &'a ClusterRecord,
    ) -> Vec<QueryOutcome> {
        let centroids: Vec<ObjectId> = plans
            .iter()
            .flat_map(|plan| plan.candidates.iter().map(|handle| handle.centroid))
            .collect();
        let verified = self.verify_round(&centroids, resolve_centroid, meter, "query");

        // QT4: fresh work is attributed to the first query that needed it
        // (the `true`s of its slice of the mask); the batch's wall-clock
        // latency is shared.
        let share = if verified.fresh_inferences == 0 {
            GpuCost::ZERO
        } else {
            verified.cost / verified.fresh_inferences as f64
        };
        let mut start = 0;
        plans
            .iter()
            .enumerate()
            .map(|(plan_idx, plan)| {
                let slice = start..start + plan.candidates.len();
                start = slice.end;
                let fresh_count = verified.fresh_mask[slice.clone()]
                    .iter()
                    .filter(|fresh| **fresh)
                    .count();
                assemble_outcome_from(
                    plan,
                    &verified.labels[slice],
                    fresh_count,
                    share * fresh_count,
                    verified.latency_secs,
                    |j, handle| get_record(plan_idx, j, handle),
                )
            })
            .collect()
    }
}

/// The result of one [`QueryServer::verify_round`] call: one verdict per
/// input centroid (input order), with cache hits and fresh GT inferences
/// accounted separately so the anytime sampler's yield estimates only see
/// work that actually cost GPU time.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedBatch {
    /// One GT verdict per input centroid, in input order.
    pub labels: Vec<ClassId>,
    /// `fresh_mask[i]` is true when `labels[i]` came from a fresh GT
    /// inference scheduled by position `i` (false for cache hits and
    /// within-round duplicates). Sampling estimators must only learn from
    /// positions marked fresh.
    pub fresh_mask: Vec<bool>,
    /// Fresh GT-CNN inferences this round performed (deduplicated).
    pub fresh_inferences: usize,
    /// Verdicts served from the cross-query cache (or deduplicated within
    /// the round) — free, and excluded from sampling estimates.
    pub cached_verdicts: usize,
    /// Amortized GPU cost of the fresh inferences, as charged to the
    /// meter under the caller's phase.
    pub cost: GpuCost,
    /// Wall-clock latency of the round on the GPU cluster.
    pub latency_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{IngestCnn, IngestEngine, IngestParams};
    use crate::query::QueryEngine;
    use focus_cnn::ModelSpec;
    use focus_index::QueryFilter;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    fn setup(k: usize) -> (VideoDataset, IngestOutput) {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 90.0);
        let out = IngestEngine::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_1()),
            IngestParams {
                k,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        (ds, out)
    }

    fn server() -> QueryServer {
        QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4))
    }

    #[test]
    fn server_matches_engine_results() {
        let (ds, out) = setup(10);
        let classes = ds.dominant_classes(3);
        let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
        let server = server();
        let requests: Vec<QueryRequest> = classes.iter().map(|c| QueryRequest::new(*c)).collect();
        let served = server.serve(&out, &requests, &GpuMeter::new());
        for (request, outcome) in requests.iter().zip(served.iter()) {
            let serial = engine.query(&out, request.class, &request.filter, &GpuMeter::new());
            assert_eq!(outcome.frames, serial.frames);
            assert_eq!(outcome.objects, serial.objects);
            assert_eq!(outcome.matched_clusters, serial.matched_clusters);
            assert_eq!(outcome.confirmed_clusters, serial.confirmed_clusters);
        }
    }

    #[test]
    fn repeated_serve_is_free_and_identical() {
        let (ds, out) = setup(10);
        let class = ds.dominant_classes(1)[0];
        let server = server();
        let requests = vec![QueryRequest::new(class)];
        let meter = GpuMeter::new();
        let first = server.serve(&out, &requests, &meter);
        let charged_after_first = meter.phase("query").seconds();
        assert!(first[0].centroid_inferences > 0);
        assert!(charged_after_first > 0.0);

        let second = server.serve(&out, &requests, &meter);
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
        let served = server.serve(&out, &requests, &GpuMeter::new());
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
        let server = server();
        let serial_engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
        let serial = serial_engine.query(&out, class, &QueryFilter::any(), &GpuMeter::new());
        let served = server
            .serve(&out, &[QueryRequest::new(class)], &GpuMeter::new())
            .remove(0);
        assert_eq!(served.frames, serial.frames);
        assert_eq!(served.centroid_inferences, serial.centroid_inferences);
        if served.centroid_inferences > 1 {
            assert!(
                served.gpu_cost < serial.gpu_cost,
                "batching must amortize launch overhead: {} vs {}",
                served.gpu_cost.seconds(),
                serial.gpu_cost.seconds()
            );
        }
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
        let before = server.serve(&out, &request, &GpuMeter::new());
        assert!(before[0].confirmed_clusters > 0);
        assert_eq!(server.epoch(), 0);

        server.retrain_ground_truth(GroundTruthCnn::with_flicker(1.0));
        assert_eq!(server.epoch(), 1);
        let after = server.serve(&out, &request, &GpuMeter::new());
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
        let first = server.serve(&out, &request, &GpuMeter::new());
        assert!(server.cache_stats().entries > 0);
        server.invalidate();
        assert_eq!(server.cache_stats().entries, 0);
        let second = server.serve(&out, &request, &GpuMeter::new());
        // Same model, so same results — but the work was re-done.
        assert_eq!(first[0].frames, second[0].frames);
        assert_eq!(first[0].centroid_inferences, second[0].centroid_inferences);
    }

    #[test]
    fn empty_request_batch_is_a_no_op() {
        let (_, out) = setup(4);
        let server = server();
        let meter = GpuMeter::new();
        assert!(server.serve(&out, &[], &meter).is_empty());
        assert_eq!(meter.total().seconds(), 0.0);
        assert_eq!(server.cache_stats(), CacheStats::default());
    }

    #[test]
    fn absent_class_is_rejected_with_exact_metered_cost() {
        let (_, out) = setup(4);
        let server = server();
        let meter = GpuMeter::new();
        let outcome = server
            .serve(
                &out,
                &[QueryRequest::new(ClassId(850)).with_filter(QueryFilter::any().with_kx(1))],
                &meter,
            )
            .remove(0);
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
                    let outcomes = srv.serve(out_ref, reqs, &GpuMeter::new());
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
        let server = QueryServer::with_batching(
            GroundTruthCnn::resnet152(),
            GpuClusterSpec::new(8),
            BatchCostModel::new(0.1, 16),
        );
        assert_eq!(server.gpus().num_gpus, 8);
        assert_eq!(server.batching().max_batch, 16);
        assert_eq!(server.ground_truth().name(), "ResNet152");
        assert_eq!(server.epoch(), 0);
    }
}
