//! Query execution in rounds: one executor for exact and anytime requests.
//!
//! [`run_batch`] verifies a batch of planned requests in rounds. Each
//! round is one [`QueryServer`] verification pass (pin epoch, dedupe
//! against the verdict cache, batched GT-CNN, memoize) over what every
//! unfinished request asks for, in request order. An **exact** request
//! ([`AnytimeMode::exhaustive`], the default) asks for all its candidates,
//! so it finishes in round 1 and a batch of exact requests is one round.
//! An **incremental** request runs ExSample-style:
//!
//! 1. **Chunk** — the [`SegmentedPlan::chunks`] of the one planner: one per
//!    sealed segment, plus the hot tail.
//! 2. **Estimate** each chunk's chance of yielding a *new* distinct result
//!    per GT inference, Good-Turing style, with an optimistic `+1/+1`
//!    prior so unsampled chunks look most promising
//!    ([`ChunkEstimate::yield_rate`]).
//! 3. **Loop** — each round the picked chunk contributes at most
//!    [`AnytimeMode::round_budget`] candidates (capped by what is left of
//!    `max_inferences`), and the request emits an [`AnytimePartial`]: the
//!    round's new results and the estimate of what remains. It stops on
//!    its budget, on its confidence threshold, or at candidate exhaustion,
//!    where its [`QueryOutcome`] is byte-identical to the exact answer
//!    (`tests/anytime_query.rs`).
//!
//! **Accounting.** A fresh inference belongs to the first request that
//! scheduled it; a request's `gpu_cost` is its per-fresh-inference share
//! of each round's cost and its `latency_secs` the sum of its rounds'. A
//! round is charged as `"query"` (exact requests) or `"anytime"`
//! (incremental ones, arbitrated on the query side by the shared
//! [`GpuScheduler`]): the whole batch cost when one kind took part, split
//! by fresh inferences when both did. A free verdict — cached, or
//! scheduled by an earlier request of the round — still confirms its
//! cluster and surfaces results, but never teaches the chunk estimators
//! and never counts in `inferences_spent`.
//!
//! [`GpuScheduler`]: focus_runtime::GpuScheduler

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::GpuCost;
use focus_index::{CentroidHandle, ClusterRecord, TrackKey};
use focus_runtime::GpuMeter;
use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation};

use crate::query::execute::assemble_outcome_from;
use crate::query::plan::{AnytimeMode, QueryPlan};
use crate::query::segmented::{AnytimeChunk, SegmentedPlan};
use crate::query::QueryOutcome;
use crate::query_server::QueryServer;

/// One round's emission for an incremental request: what was newly
/// discovered, what it cost, and how much is estimated to remain.
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
    /// separately so they never distort chunk estimates.
    pub cached_verdicts: usize,
    /// Estimated fraction of the query's distinct results still
    /// undiscovered (`0.0` once every candidate is verified).
    pub est_remaining_frac: f64,
    /// GPU wall-clock latency of this round's verification batch.
    pub latency_secs: f64,
}

/// Why a request stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnytimeTermination {
    /// The total fresh-inference budget was spent.
    BudgetExhausted,
    /// The estimated remaining-result fraction dropped to the confidence
    /// threshold.
    ConfidenceReached,
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

/// One chunk's sampling state, visible to pluggable pickers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEstimate {
    /// Candidates not yet verified in this chunk.
    pub remaining: usize,
    /// Fresh GT inferences spent on this chunk so far.
    pub sampled: usize,
    /// Distinct new result objects those fresh inferences surfaced.
    pub discovered: usize,
}

impl ChunkEstimate {
    /// Good-Turing-style estimate of new distinct objects per additional
    /// GT inference on this chunk, with an optimistic `+1/+1` prior: an
    /// unsampled chunk scores `1.0`, and the score decays toward the
    /// observed discovery rate as fresh samples accumulate.
    pub fn yield_rate(&self) -> f64 {
        (self.discovered as f64 + 1.0) / (self.sampled as f64 + 1.0)
    }
}

/// Estimated fraction of distinct results still undiscovered: expected
/// new objects from the remaining candidates (each chunk's yield rate
/// times its remaining count) over found-plus-expected.
fn est_remaining_frac(estimates: &[ChunkEstimate], found: usize) -> f64 {
    let expected: f64 = estimates
        .iter()
        .filter(|e| e.remaining > 0)
        .map(|e| e.yield_rate() * e.remaining as f64)
        .sum();
    if expected == 0.0 {
        0.0
    } else {
        expected / (found as f64 + expected)
    }
}

/// The default chunk picker: highest [`ChunkEstimate::yield_rate`] among
/// chunks with remaining candidates, lowest index on ties (deterministic).
pub fn pick_most_promising(estimates: &[ChunkEstimate]) -> usize {
    let mut best = usize::MAX;
    let mut best_rate = f64::NEG_INFINITY;
    for (i, est) in estimates.iter().enumerate() {
        if est.remaining == 0 {
            continue;
        }
        let rate = est.yield_rate();
        if rate > best_rate {
            best_rate = rate;
            best = i;
        }
    }
    assert!(best != usize::MAX, "picker called with no remaining work");
    best
}

/// One request as [`run_batch`] executes it.
#[derive(Debug, Clone, Copy)]
pub struct PlannedRequest<'a> {
    /// The candidate set, sorted by cluster key.
    pub plan: &'a QueryPlan,
    /// `records[i]` backs `plan.candidates[i]`.
    pub records: &'a [Arc<ClusterRecord>],
    /// Key-sorted chunks partitioning `plan.candidates`, sampled by an
    /// incremental request; empty means one chunk of every candidate.
    pub chunks: &'a [AnytimeChunk],
    /// Exact (every candidate in round 1) or incremental.
    pub mode: AnytimeMode,
}

impl<'a> PlannedRequest<'a> {
    /// A segmented plan run under `mode`.
    pub fn new(planned: &'a SegmentedPlan, mode: AnytimeMode) -> Self {
        Self {
            plan: &planned.plan,
            records: &planned.records,
            chunks: &planned.chunks,
            mode,
        }
    }
}

/// Runs a batch of planned requests in rounds until every one has stopped
/// (see the [module docs](self)), returning one [`AnytimeOutcome`] per
/// request, in order. `on_partial(i, partial)` is called after every round
/// of incremental request `i`, `on_stop(i)` once request `i` has stopped
/// (an exact one after round 1); `resolve_centroid` must return the
/// observation behind every centroid that needs a fresh inference; `pick`
/// gets an incremental request's [`ChunkEstimate`]s and returns a chunk
/// with `remaining > 0` ([`pick_most_promising`] by default — correctness
/// holds for any such policy, only the results-per-inference curve moves).
///
/// # Panics
///
/// Panics if `pick` breaks that contract, a chunk candidate is not a plan
/// candidate, or `resolve_centroid` fails for a fresh centroid.
pub fn run_batch(
    server: &QueryServer,
    requests: &[PlannedRequest<'_>],
    resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
    meter: &GpuMeter,
    mut on_partial: impl FnMut(usize, &AnytimePartial),
    mut on_stop: impl FnMut(usize),
    mut pick: impl FnMut(&[ChunkEstimate]) -> usize,
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
            if let Some((chunk, handles)) = run.next_slice(&mut pick) {
                centroids.extend(handles.iter().map(|handle| handle.centroid));
                slices.push((i, chunk, handles));
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
        for (i, chunk, handles) in slices {
            let span = start..start + handles.len();
            start = span.end;
            let fresh_mask = &round.fresh_mask[span.clone()];
            let fresh = fresh_mask.iter().filter(|fresh| **fresh).count();
            let phase = &mut phases[usize::from(requests[i].mode.incremental)];
            *phase = (true, phase.1 + fresh);
            let run = &mut runs[i];
            run.fresh += fresh;
            run.cached += handles.len() - fresh;
            run.cost += share * fresh;
            run.latency_secs += round.latency_secs;
            let labels = &round.labels[span];
            if let Some(partial) =
                run.absorb(chunk, handles, labels, fresh_mask, round.latency_secs)
            {
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

/// One request's state between rounds: an incremental request's chunks,
/// their estimates, its verdicts (one slot per plan candidate) and what it
/// has surfaced; an exact request's outcome; every request's accounts.
struct Run<'a> {
    request: PlannedRequest<'a>,
    chunks: Vec<&'a [CentroidHandle]>,
    estimates: Vec<ChunkEstimate>,
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
            chunks: Vec::new(),
            estimates: Vec::new(),
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
        let plan = request.plan;
        run.chunks = if request.chunks.is_empty() {
            vec![&plan.candidates[..]]
        } else {
            request.chunks.iter().map(|c| &c.candidates[..]).collect()
        };
        run.estimates = run
            .chunks
            .iter()
            .map(|chunk| ChunkEstimate {
                remaining: chunk.len(),
                sampled: 0,
                discovered: 0,
            })
            .collect();
        run.verdicts = vec![None; plan.candidates.len()];
        if run.estimates.iter().all(|e| e.remaining == 0) {
            // Nothing to verify: the request never takes part.
            run.stopped = Some(AnytimeTermination::CandidatesExhausted);
        }
        run
    }

    /// This round's slice, unless the request stopped: every candidate of
    /// an exact request; for an incremental one, at most `round_budget` of
    /// the picked chunk, capped so fresh inferences can never overshoot
    /// the total budget (every candidate costs at most one).
    fn next_slice(
        &self,
        pick: &mut impl FnMut(&[ChunkEstimate]) -> usize,
    ) -> Option<(usize, &'a [CentroidHandle])> {
        let mode = &self.request.mode;
        if self.stopped.is_some() {
            return None;
        } else if !mode.incremental {
            return Some((0, &self.request.plan.candidates[..]));
        }
        let chunk = pick(&self.estimates);
        let remaining = self.estimates[chunk].remaining;
        assert!(
            remaining > 0,
            "picker must choose a chunk with remaining candidates"
        );
        let mut take = mode.round_budget.max(1).min(remaining);
        if mode.max_inferences > 0 {
            take = take.min(mode.max_inferences - self.fresh);
        }
        let cursor = self.chunks[chunk].len() - remaining;
        Some((chunk, &self.chunks[chunk][cursor..cursor + take]))
    }

    /// Applies one round's verdicts on `handles` (the slice taken from
    /// `chunk`; the accounts are already booked) and decides whether the
    /// request stops. An exact request stops at once; an incremental one
    /// returns the round's partial.
    fn absorb(
        &mut self,
        chunk: usize,
        handles: &[CentroidHandle],
        labels: &[ClassId],
        fresh_mask: &[bool],
        latency_secs: f64,
    ) -> Option<&AnytimePartial> {
        let (plan, records, mode) = (self.request.plan, self.request.records, self.request.mode);
        if !mode.incremental {
            // The slice is the whole plan, in plan order: assemble over it.
            let (fresh, cost, latency) = (self.fresh, self.cost, self.latency_secs);
            self.outcome = Some(assemble_outcome_from(
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
        for ((handle, label), &fresh) in handles.iter().zip(labels).zip(fresh_mask) {
            let position = plan
                .candidates
                .binary_search_by_key(&handle.cluster, |h| h.cluster)
                .expect("every chunk candidate is a flat candidate");
            self.verdicts[position] = Some(*label);
            self.estimates[chunk].sampled += usize::from(fresh);
            if *label != plan.class {
                continue;
            }
            for member in &records[position].members {
                // Same member-level track filtering as assembly, so partial
                // results never leak a rejected track's frames.
                if !plan
                    .track_scope
                    .admits(TrackKey::new(handle.cluster.stream, member.track))
                {
                    continue;
                }
                if self.seen_objects.insert(member.object) {
                    new_objects.insert(member.object);
                    // Only fresh inferences teach the sampler; results a
                    // free verdict surfaced were paid for elsewhere.
                    self.estimates[chunk].discovered += usize::from(fresh);
                }
                if self.seen_frames.insert(member.frame) {
                    new_frames.insert(member.frame);
                }
            }
        }
        self.estimates[chunk].remaining -= handles.len();
        let fresh = fresh_mask.iter().filter(|fresh| **fresh).count();
        let frac = est_remaining_frac(&self.estimates, self.seen_objects.len());
        self.stopped = if self.estimates.iter().all(|e| e.remaining == 0) {
            Some(AnytimeTermination::CandidatesExhausted)
        } else if mode.confidence_remaining > 0.0 && frac <= mode.confidence_remaining {
            Some(AnytimeTermination::ConfidenceReached)
        } else if mode.max_inferences > 0 && self.fresh >= mode.max_inferences {
            Some(AnytimeTermination::BudgetExhausted)
        } else {
            None
        };
        self.partials.push(AnytimePartial {
            new_results: new_objects.into_iter().collect(),
            new_frames: new_frames.into_iter().collect(),
            inferences_spent: fresh,
            cached_verdicts: handles.len() - fresh,
            est_remaining_frac: frac,
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
            return assemble_outcome_from(plan, &verdicts, fresh, cost, latency, |i, _| {
                &records[i]
            });
        }
        let positions: Vec<usize> = (0..plan.candidates.len())
            .filter(|&i| self.verdicts[i].is_some())
            .collect();
        let verified = QueryPlan {
            candidates: positions.iter().map(|&i| plan.candidates[i]).collect(),
            track_scope: plan.track_scope.clone(),
            ..*plan
        };
        assemble_outcome_from(&verified, &verdicts, fresh, cost, latency, |i, _| {
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

    /// What a verification round returned before the executor took over
    /// charging: the round, with its cost charged to `meter` under
    /// `phase` and its free verdicts counted.
    struct ChargedRound {
        labels: Vec<ClassId>,
        fresh_mask: Vec<bool>,
        fresh_inferences: usize,
        cached_verdicts: usize,
        cost: GpuCost,
        latency_secs: f64,
    }

    fn verify_round_charged(
        server: &QueryServer,
        centroids: &[ObjectId],
        resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
        meter: &GpuMeter,
        phase: &str,
    ) -> ChargedRound {
        let round = server.verify_round(centroids, resolve_centroid);
        meter.charge(phase, round.cost);
        ChargedRound {
            cached_verdicts: centroids.len() - round.fresh_inferences,
            labels: round.labels,
            fresh_mask: round.fresh_mask,
            fresh_inferences: round.fresh_inferences,
            cost: round.cost,
            latency_secs: round.latency_secs,
        }
    }

    /// The single-request anytime loop [`run_batch`] replaced, kept as the
    /// reference the property below holds the executor to. Verbatim but
    /// for its one verification call, which goes through
    /// `verify_round_charged` because a round no longer charges the meter
    /// itself. Its documentation, as it was:
    ///
    /// [`run_anytime`] with an explicit chunk-pick policy. The picker is
    /// handed every chunk's current [`ChunkEstimate`] and must return the
    /// index of a chunk with `remaining > 0`; correctness (exhaustion
    /// byte-identity, accounting) holds for *any* such policy — only the
    /// results-per-inference curve depends on it (`tests/anytime_query.rs`
    /// exercises arbitrary pick orders).
    ///
    /// # Panics
    ///
    /// Panics if the picker returns an out-of-range index or a chunk with no
    /// remaining candidates.
    pub fn run_anytime_with_picker(
        server: &QueryServer,
        plan: &SegmentedPlan,
        mode: &AnytimeMode,
        resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
        meter: &GpuMeter,
        mut on_partial: impl FnMut(&AnytimePartial),
        mut pick: impl FnMut(&[ChunkEstimate]) -> usize,
    ) -> AnytimeOutcome {
        let round_budget = mode.round_budget.max(1);
        let mut estimates: Vec<ChunkEstimate> = plan
            .chunks
            .iter()
            .map(|c| ChunkEstimate {
                remaining: c.candidates.len(),
                sampled: 0,
                discovered: 0,
            })
            .collect();
        let mut cursors = vec![0usize; plan.chunks.len()];
        // One slot per flat candidate: a chunk's candidate is found in the
        // key-sorted flat list by binary search, and its record at the same
        // position of `plan.records`.
        let mut verdicts: Vec<Option<ClassId>> = vec![None; plan.plan.candidates.len()];
        let mut seen_objects: BTreeSet<ObjectId> = BTreeSet::new();
        let mut seen_frames: BTreeSet<FrameId> = BTreeSet::new();
        let mut partials: Vec<AnytimePartial> = Vec::new();
        let mut total_fresh = 0usize;
        let mut total_cached = 0usize;
        let mut total_cost = GpuCost::ZERO;
        let mut total_latency = 0.0f64;

        let termination = loop {
            if estimates.iter().all(|e| e.remaining == 0) {
                break AnytimeTermination::CandidatesExhausted;
            }
            if mode.max_inferences > 0 && total_fresh >= mode.max_inferences {
                break AnytimeTermination::BudgetExhausted;
            }
            let chunk_idx = pick(&estimates);
            let est = &estimates[chunk_idx];
            assert!(
                est.remaining > 0,
                "picker must choose a chunk with remaining candidates"
            );
            // Cap the round so fresh inferences can never overshoot the total
            // budget (every batched candidate costs at most one).
            let mut take = round_budget.min(est.remaining);
            if mode.max_inferences > 0 {
                take = take.min(mode.max_inferences - total_fresh);
            }
            let cursor = cursors[chunk_idx];
            let batch = &plan.chunks[chunk_idx].candidates[cursor..cursor + take];
            let ids: Vec<ObjectId> = batch.iter().map(|h| h.centroid).collect();
            let verified = verify_round_charged(server, &ids, &resolve_centroid, meter, "anytime");

            let mut new_objects: BTreeSet<ObjectId> = BTreeSet::new();
            let mut new_frames: BTreeSet<FrameId> = BTreeSet::new();
            for (i, handle) in batch.iter().enumerate() {
                let position = plan
                    .plan
                    .candidates
                    .binary_search_by_key(&handle.cluster, |h| h.cluster)
                    .expect("every chunk candidate is a flat candidate");
                verdicts[position] = Some(verified.labels[i]);
                let fresh = verified.fresh_mask[i];
                if fresh {
                    estimates[chunk_idx].sampled += 1;
                }
                if verified.labels[i] != plan.plan.class {
                    continue;
                }
                for member in &plan.records[position].members {
                    // Same member-level track filtering as exhaustive assembly
                    // (`assemble_outcome_from`), so partial results never leak
                    // a rejected track's frames.
                    if !plan
                        .plan
                        .track_scope
                        .admits(TrackKey::new(handle.cluster.stream, member.track))
                    {
                        continue;
                    }
                    if seen_objects.insert(member.object) {
                        new_objects.insert(member.object);
                        // Only fresh inferences teach the sampler; results a
                        // cache hit surfaced were already paid for elsewhere.
                        if fresh {
                            estimates[chunk_idx].discovered += 1;
                        }
                    }
                    if seen_frames.insert(member.frame) {
                        new_frames.insert(member.frame);
                    }
                }
            }
            cursors[chunk_idx] += take;
            estimates[chunk_idx].remaining -= take;
            total_fresh += verified.fresh_inferences;
            total_cached += verified.cached_verdicts;
            total_cost += verified.cost;
            total_latency += verified.latency_secs;

            let frac = est_remaining_frac(&estimates, seen_objects.len());
            let partial = AnytimePartial {
                new_results: new_objects.into_iter().collect(),
                new_frames: new_frames.into_iter().collect(),
                inferences_spent: verified.fresh_inferences,
                cached_verdicts: verified.cached_verdicts,
                est_remaining_frac: frac,
                latency_secs: verified.latency_secs,
            };
            on_partial(&partial);
            partials.push(partial);

            if estimates.iter().all(|e| e.remaining == 0) {
                break AnytimeTermination::CandidatesExhausted;
            }
            if mode.confidence_remaining > 0.0 && frac <= mode.confidence_remaining {
                break AnytimeTermination::ConfidenceReached;
            }
            if mode.max_inferences > 0 && total_fresh >= mode.max_inferences {
                break AnytimeTermination::BudgetExhausted;
            }
        };

        // Assemble over the verified prefix of the flat plan: at candidate
        // exhaustion this is the whole plan in cluster-key order, so frames
        // and objects are byte-identical to the exhaustive path.
        let mut positions = Vec::new();
        let mut candidates = Vec::new();
        let mut ordered_verdicts = Vec::new();
        for (position, (handle, label)) in plan.plan.candidates.iter().zip(&verdicts).enumerate() {
            if let Some(label) = label {
                positions.push(position);
                candidates.push(*handle);
                ordered_verdicts.push(*label);
            }
        }
        let verified_plan = QueryPlan {
            class: plan.plan.class,
            lookup_class: plan.plan.lookup_class,
            candidates,
            track_scope: plan.plan.track_scope.clone(),
        };
        let outcome = assemble_outcome_from(
            &verified_plan,
            &ordered_verdicts,
            total_fresh,
            total_cost,
            total_latency,
            |i, _| &plan.records[positions[i]],
        );
        AnytimeOutcome {
            outcome,
            partials,
            termination,
            fresh_inferences: total_fresh,
            cached_verdicts: total_cached,
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A uniformly random chunk with candidates left, from `state`.
    fn random_pick(state: &mut u64, estimates: &[ChunkEstimate]) -> usize {
        let eligible: Vec<usize> = estimates
            .iter()
            .enumerate()
            .filter(|(_, e)| e.remaining > 0)
            .map(|(i, _)| i)
            .collect();
        eligible[(xorshift(state) as usize) % eligible.len()]
    }

    /// A fixed-model service over one recording, sealed every `seal_secs`.
    fn ingested(name: &str, dataset: &VideoDataset, seal_secs: f64) -> FocusService {
        let dir = std::env::temp_dir().join(format!("focus_executor_unit_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
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
        let mut service = FocusService::create(&dir, config, GroundTruthCnn::resnet152()).unwrap();
        service
            .register_stream(dataset.profile.stream_id, dataset.profile.fps)
            .unwrap();
        service.advance(&dataset.frames).unwrap();
        service
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// A lone incremental request through the executor is the
        /// reference loop, for any seal cadence (chunk partition), round
        /// budget, total budget, confidence threshold and seeded pick
        /// order, from a cold or a partly warm verdict cache: the same
        /// partials field for field, termination, payload, fresh and
        /// cached counts, and the same `"anytime"` meter seconds, bit for
        /// bit.
        #[test]
        fn a_lone_anytime_request_matches_the_reference_loop(
            (seal_secs, round_budget, budget, confidence) in
                (3.0f64..12.0, 1usize..9, 0usize..150, 0.0f64..1.0),
            (pick_seed, warm, case) in (1u64..1_000_000, 0usize..2, 0u64..1_000_000),
        ) {
            let dataset =
                VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
            let service = ingested(&format!("prop_{case}"), &dataset, seal_secs);
            let class = dataset.dominant_classes(1)[0];
            // A third of the cases have no total budget, half no
            // confidence stop; with neither, the request runs to exhaustion.
            let max_inferences = budget.saturating_sub(45);
            let confidence = if confidence < 0.5 { 0.0 } else { confidence - 0.45 };
            let mode = AnytimeMode::incremental(round_budget)
                .with_max_inferences(max_inferences)
                .with_confidence_remaining(confidence);
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
            let mut seed = pick_seed;
            let reference = run_anytime_with_picker(
                service.query_server(),
                &plan,
                &mode,
                resolve,
                &reference_meter,
                |_| {},
                |estimates: &[ChunkEstimate]| random_pick(&mut seed, estimates),
            );

            service.query_server().invalidate();
            warm_up();
            let meter = GpuMeter::new();
            let mut seed = pick_seed;
            let streamed = std::cell::RefCell::new(Vec::new());
            let mut stops = Vec::new();
            let run = run_batch(
                service.query_server(),
                &[PlannedRequest::new(&plan, mode)],
                resolve,
                &meter,
                |i, partial| streamed.borrow_mut().push((i, partial.clone())),
                |i| stops.push((i, streamed.borrow().len())),
                |estimates: &[ChunkEstimate]| random_pick(&mut seed, estimates),
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
