//! Query execution in rounds: one executor for exact and anytime requests.
//!
//! [`run_batch`] verifies a batch of planned requests in rounds. Each
//! round is one [`QueryServer`] verification pass (pin epoch, dedupe
//! against the verdict cache, batched GT-CNN, memoize) over what every
//! unfinished request asks for, in request order. An **exact** request
//! ([`AnytimeMode::exhaustive`], the default) asks for all its candidates,
//! so it finishes in round 1 and a batch of exact requests is one round.
//! An **incremental** request verifies its candidates in one fixed order,
//! computed once before its first round:
//!
//! 1. **Rank** — the queried class's rank in the cluster's cheap-CNN
//!    top-K ([`ClusterRecord::rank_of`]; the lookup class's rank when the
//!    class itself is not listed, as for a cluster found through OTHER),
//!    unranked clusters last. The higher the rank, the likelier the
//!    GT-CNN confirms the cluster (§4 of the paper).
//! 2. **Size** — then member count, largest first: a confirmed cluster
//!    returns all its members.
//! 3. **Position** — then plan position (cluster-key order).
//!
//! Each round takes the next [`AnytimeMode::round_budget`] candidates of
//! that order (capped by what is left of `max_inferences`), and the
//! request emits an [`AnytimePartial`] with the round's new results. It
//! stops once its budget is spent or every candidate is verified; then
//! its [`QueryOutcome`] is byte-identical to the exact answer, because
//! assembly runs over the plan in key order (`tests/anytime_query.rs`).
//!
//! **Accounting.** A fresh inference belongs to the first request that
//! scheduled it; a request's `gpu_cost` is its per-fresh-inference share
//! of each round's cost and its `latency_secs` the sum of its rounds'. A
//! round is charged as `"query"` (exact requests) or `"anytime"`
//! (incremental ones, arbitrated on the query side by the shared
//! [`GpuScheduler`]): the whole batch cost when one kind took part, split
//! by fresh inferences when both did. A free verdict — cached, or
//! scheduled by an earlier request of the round — still confirms its
//! cluster and surfaces results, but never counts in `inferences_spent`.
//!
//! [`GpuScheduler`]: focus_runtime::GpuScheduler

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::GpuCost;
use focus_index::{ClusterRecord, TrackKey};
use focus_runtime::GpuMeter;
use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation};

use crate::query::execute::assemble_outcome;
use crate::query::plan::{AnytimeMode, QueryPlan};
use crate::query::segmented::SegmentedPlan;
use crate::query::QueryOutcome;
use crate::query_server::QueryServer;

/// One round's emission for an incremental request: what was newly
/// discovered and what it cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnytimePartial {
    /// Distinct matching objects first discovered this round, sorted.
    pub new_results: Vec<ObjectId>,
    /// Frames first covered by a matching object this round, sorted.
    pub new_frames: Vec<FrameId>,
    /// Fresh GT-CNN inferences this request scheduled this round (cache
    /// hits and verdicts another request of the round scheduled excluded).
    pub inferences_spent: usize,
    /// Verdicts this round applied for free — from the cross-query cache
    /// or scheduled by an earlier request of the round — accounted
    /// separately from `inferences_spent`.
    pub cached_verdicts: usize,
    /// GPU wall-clock latency of this round's verification batch.
    pub latency_secs: f64,
}

/// Why a request stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnytimeTermination {
    /// The total fresh-inference budget was spent.
    BudgetExhausted,
    /// Every candidate was verified; the outcome equals the exact
    /// answer's. Always the reason for an exact request.
    CandidatesExhausted,
}

/// One executed request: the assembled outcome over every verified
/// candidate, the per-round partial trail, and the separated fresh/cached
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeOutcome {
    /// Outcome assembled over the verified candidates (all of them when
    /// `termination` is [`AnytimeTermination::CandidatesExhausted`], in
    /// which case frames and objects are byte-identical to the exact
    /// answer's).
    pub outcome: QueryOutcome,
    /// One entry per round of an incremental request, in order; empty for
    /// an exact request.
    pub partials: Vec<AnytimePartial>,
    /// Why the request stopped.
    pub termination: AnytimeTermination,
    /// Total fresh GT inferences this request was first to schedule
    /// (equals the sum of the partials' `inferences_spent`).
    pub fresh_inferences: usize,
    /// Total free verdicts across all rounds.
    pub cached_verdicts: usize,
}

/// One request as [`run_batch`] executes it.
#[derive(Debug, Clone, Copy)]
pub struct PlannedRequest<'a> {
    /// The candidate set, sorted by cluster key.
    pub plan: &'a QueryPlan,
    /// `records[i]` backs `plan.candidates[i]`.
    pub records: &'a [Arc<ClusterRecord>],
    /// Exact (every candidate in round 1) or incremental.
    pub mode: AnytimeMode,
}

impl<'a> PlannedRequest<'a> {
    /// A segmented plan run under `mode`.
    pub fn new(planned: &'a SegmentedPlan, mode: AnytimeMode) -> Self {
        Self {
            plan: &planned.plan,
            records: &planned.records,
            mode,
        }
    }
}

/// Runs a batch of planned requests in rounds until every one has stopped
/// (see the [module docs](self)), returning one [`AnytimeOutcome`] per
/// request, in order. `on_partial(i, partial)` is called after every round
/// of incremental request `i`, `on_stop(i)` once request `i` has stopped
/// (an exact one after round 1); `resolve_centroid` must return the
/// observation behind every centroid that needs a fresh inference.
///
/// # Panics
///
/// Panics if `resolve_centroid` fails for a fresh centroid.
pub fn run_batch(
    server: &QueryServer,
    requests: &[PlannedRequest<'_>],
    resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
    meter: &GpuMeter,
    mut on_partial: impl FnMut(usize, &AnytimePartial),
    mut on_stop: impl FnMut(usize),
) -> Vec<AnytimeOutcome> {
    let mut runs: Vec<Run> = requests.iter().map(Run::new).collect();
    // A request with nothing to verify stops before round 1.
    (0..runs.len())
        .filter(|&i| runs[i].stopped.is_some())
        .for_each(&mut on_stop);
    loop {
        // Every unfinished request's slice, in request order.
        let mut centroids: Vec<ObjectId> = Vec::new();
        let mut slices = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            if let Some(slice) = run.next_slice() {
                let candidates = &run.request.plan.candidates;
                centroids.extend(slice.clone().map(|k| candidates[run.position(k)].centroid));
                slices.push((i, slice));
            }
        }
        if slices.is_empty() {
            break;
        }
        let round = server.verify_round(&centroids, &resolve_centroid);
        // Per fresh inference (a round with none costs nothing).
        let share = round.cost / round.fresh_inferences.max(1) as f64;
        // Per phase ("query", "anytime"): whether it took part, and the
        // fresh inferences it scheduled.
        let mut phases = [(false, 0usize); 2];
        let mut start = 0;
        for (i, slice) in slices {
            let span = start..start + slice.len();
            start = span.end;
            let fresh = round.fresh_mask[span.clone()]
                .iter()
                .filter(|fresh| **fresh)
                .count();
            let phase = &mut phases[usize::from(requests[i].mode.incremental)];
            *phase = (true, phase.1 + fresh);
            let run = &mut runs[i];
            run.fresh += fresh;
            run.cached += slice.len() - fresh;
            run.cost += share * fresh;
            run.latency_secs += round.latency_secs;
            let labels = &round.labels[span];
            if let Some(partial) = run.absorb(slice, labels, fresh, round.latency_secs) {
                on_partial(i, partial);
            }
            if run.stopped.is_some() {
                on_stop(i);
            }
        }
        // One phase in the round pays the whole batch cost; two split it
        // by the fresh inferences each scheduled.
        let both = phases.iter().all(|(present, _)| *present);
        for (phase, (present, fresh)) in ["query", "anytime"].into_iter().zip(phases) {
            if present {
                meter.charge(phase, if both { share * fresh } else { round.cost });
            }
        }
    }
    runs.into_iter().map(Run::finish).collect()
}

/// One request's state between rounds: an incremental request's
/// verification order, its verdicts (one slot per plan candidate) and what
/// it has surfaced; an exact request's outcome; every request's accounts.
struct Run<'a> {
    request: PlannedRequest<'a>,
    /// An incremental request's plan positions in verification order (see
    /// the [module docs](self)); empty for an exact request, which
    /// verifies in plan order.
    order: Vec<usize>,
    /// How many of `order` have been verified.
    verified: usize,
    verdicts: Vec<Option<ClassId>>,
    /// An exact request's outcome, assembled in its one round.
    outcome: Option<QueryOutcome>,
    seen_objects: BTreeSet<ObjectId>,
    seen_frames: BTreeSet<FrameId>,
    partials: Vec<AnytimePartial>,
    fresh: usize,
    cached: usize,
    cost: GpuCost,
    latency_secs: f64,
    /// Set once the request stops; the batch runs until every run has.
    stopped: Option<AnytimeTermination>,
}

impl<'a> Run<'a> {
    fn new(request: &PlannedRequest<'a>) -> Self {
        let mut run = Self {
            request: *request,
            order: Vec::new(),
            verified: 0,
            verdicts: Vec::new(),
            outcome: None,
            seen_objects: BTreeSet::new(),
            seen_frames: BTreeSet::new(),
            partials: Vec::new(),
            fresh: 0,
            cached: 0,
            cost: GpuCost::ZERO,
            latency_secs: 0.0,
            stopped: None,
        };
        if !request.mode.incremental {
            return run;
        }
        let PlannedRequest { plan, records, .. } = *request;
        let rank = |record: &ClusterRecord| {
            record
                .rank_of(plan.class)
                .or_else(|| record.rank_of(plan.lookup_class))
                .unwrap_or(usize::MAX)
        };
        run.order = (0..plan.candidates.len()).collect();
        run.order.sort_unstable_by_key(|&position| {
            let record = &records[position];
            (rank(record), Reverse(record.members.len()), position)
        });
        run.verdicts = vec![None; plan.candidates.len()];
        if run.order.is_empty() {
            // Nothing to verify: the request never takes part.
            run.stopped = Some(AnytimeTermination::CandidatesExhausted);
        }
        run
    }

    /// The plan position of the `k`-th candidate this request verifies.
    fn position(&self, k: usize) -> usize {
        if self.request.mode.incremental {
            self.order[k]
        } else {
            k
        }
    }

    /// This round's slice of the verification order, unless the request
    /// stopped: every candidate of an exact request; for an incremental
    /// one, the next `round_budget`, capped so fresh inferences can never
    /// overshoot the total budget (every candidate costs at most one).
    fn next_slice(&self) -> Option<Range<usize>> {
        let mode = &self.request.mode;
        if self.stopped.is_some() {
            return None;
        } else if !mode.incremental {
            return Some(0..self.request.plan.candidates.len());
        }
        let mut take = mode
            .round_budget
            .max(1)
            .min(self.order.len() - self.verified);
        if mode.max_inferences > 0 {
            take = take.min(mode.max_inferences - self.fresh);
        }
        Some(self.verified..self.verified + take)
    }

    /// Applies one round's verdicts on `slice` (`fresh` of them fresh; the
    /// accounts are already booked) and decides whether the request
    /// stops. An exact request stops at once; an incremental one returns
    /// the round's partial.
    fn absorb(
        &mut self,
        slice: Range<usize>,
        labels: &[ClassId],
        fresh: usize,
        latency_secs: f64,
    ) -> Option<&AnytimePartial> {
        let (plan, records, mode) = (self.request.plan, self.request.records, self.request.mode);
        if !mode.incremental {
            // The slice is the whole plan, in plan order: assemble over it.
            let (fresh, cost, latency) = (self.fresh, self.cost, self.latency_secs);
            self.outcome = Some(assemble_outcome(
                plan,
                labels,
                fresh,
                cost,
                latency,
                |j, _| &records[j],
            ));
            self.stopped = Some(AnytimeTermination::CandidatesExhausted);
            return None;
        }
        let mut new_objects: BTreeSet<ObjectId> = BTreeSet::new();
        let mut new_frames: BTreeSet<FrameId> = BTreeSet::new();
        let verified = slice.len();
        for (k, label) in slice.zip(labels) {
            let position = self.order[k];
            self.verdicts[position] = Some(*label);
            if *label != plan.class {
                continue;
            }
            let stream = plan.candidates[position].cluster.stream;
            for member in &records[position].members {
                // Same member-level track filtering as assembly, so partial
                // results never leak a rejected track's frames.
                if !plan.track_scope.admits(TrackKey::new(stream, member.track)) {
                    continue;
                }
                if self.seen_objects.insert(member.object) {
                    new_objects.insert(member.object);
                }
                if self.seen_frames.insert(member.frame) {
                    new_frames.insert(member.frame);
                }
            }
        }
        self.verified += verified;
        self.stopped = if self.verified == self.order.len() {
            Some(AnytimeTermination::CandidatesExhausted)
        } else if mode.max_inferences > 0 && self.fresh >= mode.max_inferences {
            Some(AnytimeTermination::BudgetExhausted)
        } else {
            None
        };
        self.partials.push(AnytimePartial {
            new_results: new_objects.into_iter().collect(),
            new_frames: new_frames.into_iter().collect(),
            inferences_spent: fresh,
            cached_verdicts: verified - fresh,
            latency_secs,
        });
        self.partials.last()
    }

    fn finish(mut self) -> AnytimeOutcome {
        AnytimeOutcome {
            outcome: self.outcome.take().unwrap_or_else(|| self.assemble()),
            partials: self.partials,
            // The batch ends only once every run has stopped.
            termination: self
                .stopped
                .unwrap_or(AnytimeTermination::CandidatesExhausted),
            fresh_inferences: self.fresh,
            cached_verdicts: self.cached,
        }
    }

    /// An incremental request's outcome over its verified candidates: at
    /// exhaustion the plan itself, in cluster-key order, so frames and
    /// objects are byte-identical to the exact answer; after an early
    /// stop, the verified subset of the plan.
    fn assemble(&self) -> QueryOutcome {
        let PlannedRequest { plan, records, .. } = self.request;
        let verdicts: Vec<ClassId> = self.verdicts.iter().flatten().copied().collect();
        let (fresh, cost, latency) = (self.fresh, self.cost, self.latency_secs);
        if verdicts.len() == plan.candidates.len() {
            return assemble_outcome(plan, &verdicts, fresh, cost, latency, |i, _| &records[i]);
        }
        let positions: Vec<usize> = (0..plan.candidates.len())
            .filter(|&i| self.verdicts[i].is_some())
            .collect();
        let verified = QueryPlan {
            candidates: positions.iter().map(|&i| plan.candidates[i]).collect(),
            track_scope: plan.track_scope.clone(),
            ..*plan
        };
        assemble_outcome(&verified, &verdicts, fresh, cost, latency, |i, _| {
            &records[positions[i]]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestParams;
    use crate::query::QueryRequest;
    use crate::segment_ingest::SealPolicy;
    use crate::service::{FocusService, ServiceConfig};
    use crate::worker::StreamWorkerConfig;
    use focus_cnn::GroundTruthCnn;
    use focus_index::QueryFilter;
    use focus_runtime::GpuClusterSpec;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;
    use proptest::prelude::*;

    /// A single-request fixed-order loop, written apart from [`run_batch`]
    /// as the reference the property below holds the executor to: sort the
    /// plan positions by (rank of the class, else of the lookup class;
    /// members, largest first; position), verify them `round_budget` at a
    /// time, each round charged to `meter` as `"anytime"`, until the
    /// candidates or the budget run out, and assemble over the verified
    /// subset of the plan in key order.
    fn run_fixed_order(
        server: &QueryServer,
        planned: &SegmentedPlan,
        mode: &AnytimeMode,
        resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
        meter: &GpuMeter,
    ) -> AnytimeOutcome {
        let (plan, records) = (&planned.plan, &planned.records);
        let rank = |r: &ClusterRecord| {
            let rank = r.rank_of(plan.class).or(r.rank_of(plan.lookup_class));
            rank.unwrap_or(usize::MAX)
        };
        let mut order: Vec<usize> = (0..plan.candidates.len()).collect();
        order.sort_by_key(|&p| (rank(&records[p]), Reverse(records[p].members.len()), p));

        let mut verdicts: Vec<Option<ClassId>> = vec![None; order.len()];
        let (mut seen_objects, mut seen_frames) = (BTreeSet::new(), BTreeSet::new());
        let mut partials = Vec::new();
        let (mut fresh, mut cached, mut cost, mut latency) = (0, 0, GpuCost::ZERO, 0.0);
        let mut rest = &order[..];
        let termination = loop {
            if rest.is_empty() {
                break AnytimeTermination::CandidatesExhausted;
            }
            if mode.max_inferences > 0 && fresh >= mode.max_inferences {
                break AnytimeTermination::BudgetExhausted;
            }
            let mut take = mode.round_budget.max(1).min(rest.len());
            if mode.max_inferences > 0 {
                take = take.min(mode.max_inferences - fresh);
            }
            let (batch, later) = rest.split_at(take);
            rest = later;
            let ids: Vec<ObjectId> = batch.iter().map(|&p| plan.candidates[p].centroid).collect();
            let round = server.verify_round(&ids, &resolve_centroid);
            meter.charge("anytime", round.cost);
            let (mut new_results, mut new_frames) = (Vec::new(), Vec::new());
            for (&p, label) in batch.iter().zip(&round.labels) {
                verdicts[p] = Some(*label);
                if *label != plan.class {
                    continue;
                }
                for member in &records[p].members {
                    let track = TrackKey::new(plan.candidates[p].cluster.stream, member.track);
                    if !plan.track_scope.admits(track) {
                        continue;
                    }
                    if seen_objects.insert(member.object) {
                        new_results.push(member.object);
                    }
                    if seen_frames.insert(member.frame) {
                        new_frames.push(member.frame);
                    }
                }
            }
            new_results.sort();
            new_frames.sort();
            fresh += round.fresh_inferences;
            cached += take - round.fresh_inferences;
            cost += round.cost;
            latency += round.latency_secs;
            partials.push(AnytimePartial {
                new_results,
                new_frames,
                inferences_spent: round.fresh_inferences,
                cached_verdicts: take - round.fresh_inferences,
                latency_secs: round.latency_secs,
            });
        };

        let positions: Vec<usize> = (0..order.len())
            .filter(|&p| verdicts[p].is_some())
            .collect();
        let verified = QueryPlan {
            candidates: positions.iter().map(|&p| plan.candidates[p]).collect(),
            track_scope: plan.track_scope.clone(),
            ..*plan
        };
        let labels: Vec<ClassId> = verdicts.into_iter().flatten().collect();
        let outcome = assemble_outcome(&verified, &labels, fresh, cost, latency, |i, _| {
            &records[positions[i]]
        });
        AnytimeOutcome {
            outcome,
            partials,
            termination,
            fresh_inferences: fresh,
            cached_verdicts: cached,
        }
    }

    /// A fixed-model service over one recording, sealed every `seal_secs`,
    /// on its own in-memory filesystem.
    fn ingested(dataset: &VideoDataset, seal_secs: f64) -> FocusService {
        let config = ServiceConfig {
            worker: StreamWorkerConfig {
                params: IngestParams {
                    k: 10,
                    ..IngestParams::default()
                },
                bootstrap_secs: 1e9,
                retrain_interval_secs: 1e9,
                gt_label_fraction: 0.0,
                ..StreamWorkerConfig::default()
            },
            seal: SealPolicy::every_secs(seal_secs),
            gpus: GpuClusterSpec::new(4),
            ..ServiceConfig::default()
        };
        let fs = std::sync::Arc::new(focus_index::MemFs::default());
        let gt = GroundTruthCnn::resnet152();
        let mut service = FocusService::create_with(fs, "/store", config, gt).unwrap();
        service
            .register_stream(dataset.profile.stream_id, dataset.profile.fps)
            .unwrap();
        service.advance(&dataset.frames).unwrap();
        service
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// A lone incremental request through the executor is the
        /// fixed-order reference loop, for any seal cadence, round budget
        /// and total budget, from a cold or a partly warm verdict cache:
        /// the same partials field for field, termination, payload, fresh
        /// and cached counts, and the same `"anytime"` meter seconds, bit
        /// for bit.
        #[test]
        fn a_lone_anytime_request_matches_the_reference_loop(
            (seal_secs, round_budget, budget) in (3.0f64..12.0, 1usize..9, 0usize..150),
            warm in 0usize..2,
        ) {
            let dataset =
                VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
            let service = ingested(&dataset, seal_secs);
            let class = dataset.dominant_classes(1)[0];
            // A third of the cases have no total budget and run to
            // exhaustion.
            let max_inferences = budget.saturating_sub(45);
            let mode = AnytimeMode::incremental(round_budget).with_max_inferences(max_inferences);
            let request = QueryRequest::new(class).with_anytime(mode);
            // An exact query over the first quarter leaves part of the
            // cache warm.
            let warm_up = || {
                if warm == 1 {
                    let early = QueryRequest::new(class)
                        .with_filter(QueryFilter::any().with_time_range(0.0, 10.0));
                    service.serve(&[early]).unwrap();
                }
            };

            let tail = service.tail_snapshot();
            let plan = service.corpus().plan_with_tail(&request, Some(&tail)).unwrap();
            let resolve = |id| service.corpus().centroid(id, &tail).cloned();

            warm_up();
            let reference_meter = GpuMeter::new();
            let reference =
                run_fixed_order(service.query_server(), &plan, &mode, resolve, &reference_meter);

            service.query_server().invalidate();
            warm_up();
            let meter = GpuMeter::new();
            let streamed = std::cell::RefCell::new(Vec::new());
            let mut stops = Vec::new();
            let run = run_batch(
                service.query_server(),
                &[PlannedRequest::new(&plan, mode)],
                resolve,
                &meter,
                |i, partial| streamed.borrow_mut().push((i, partial.clone())),
                |i| stops.push((i, streamed.borrow().len())),
            )
            .remove(0);

            // One stop, right after the last partial.
            prop_assert_eq!(stops, vec![(0, run.partials.len())]);
            prop_assert_eq!(&run.partials, &reference.partials);
            let streamed = streamed.into_inner();
            prop_assert!(streamed.iter().all(|(i, _)| *i == 0));
            prop_assert!(streamed.into_iter().map(|(_, p)| p).eq(run.partials.iter().cloned()));
            prop_assert_eq!(run.termination, reference.termination);
            prop_assert_eq!(&run.outcome.frames, &reference.outcome.frames);
            prop_assert_eq!(&run.outcome.objects, &reference.outcome.objects);
            prop_assert_eq!(run.fresh_inferences, reference.fresh_inferences);
            prop_assert_eq!(run.cached_verdicts, reference.cached_verdicts);
            prop_assert_eq!(
                meter.phase("anytime").seconds().to_bits(),
                reference_meter.phase("anytime").seconds().to_bits()
            );
            prop_assert_eq!(meter.phase("query").seconds(), 0.0);
        }
    }
}
