//! Anytime query execution: adaptive-sampling GT verification with
//! incremental results.
//!
//! The exhaustive planner ([`SegmentedCorpus::plan_with_tail`]) verifies
//! *every* candidate centroid before returning anything, so for a
//! rare-class query over a deep archive, time-to-first-result equals
//! time-to-last-result. This module trades that all-at-once contract for
//! an ExSample-style anytime loop:
//!
//! 1. **Chunk** the candidate set — sealed segments give a natural
//!    partition for free, and the not-yet-sealed hot tail is one more
//!    chunk. The loop samples the [`SegmentedPlan::chunks`] of the one
//!    segmented planner and assembles over the same plan's flat candidate
//!    list.
//! 2. **Estimate** each chunk's probability of yielding a *new* distinct
//!    result object per GT inference, Good-Turing style: discovered
//!    distinct objects over fresh inferences spent, with an optimistic
//!    `+1/+1` prior so unsampled chunks look maximally promising
//!    ([`ChunkEstimate::yield_rate`]).
//! 3. **Loop** pick-chunk → verify-a-batch → update-estimate
//!    ([`run_anytime`]): each round verifies at most
//!    [`AnytimeMode::round_budget`] candidates from the most promising
//!    chunk through [`QueryServer::verify_round`] (phase `"anytime"`,
//!    so the shared [`GpuScheduler`] arbitrates it on the query side
//!    against exact queries and ingest), then emits an
//!    [`AnytimePartial`] carrying the round's newly discovered results
//!    and the updated estimate of what remains.
//!
//! The loop terminates on total-budget exhaustion, on the estimated
//! remaining-result fraction dropping to the confidence threshold, or on
//! candidate exhaustion — and in the exhaustion case the assembled
//! [`QueryOutcome`] is byte-identical (frames and objects) to the
//! exhaustive planner's, pinned by `tests/anytime_query.rs`.
//!
//! **Cache-hit accounting rule.** Anytime rounds share the cross-query
//! verdict cache: a verdict already cached is applied for free, still
//! confirms (or rejects) its cluster, and still surfaces results — but it
//! is *excluded* from the chunk estimators and from `inferences_spent`.
//! Only fresh GT inferences teach the sampler; a chunk whose candidates
//! were pre-verified by earlier queries neither looks artificially rich
//! (its results arrived without inference cost) nor artificially poor.
//!
//! [`GpuScheduler`]: focus_runtime::GpuScheduler
//! [`SegmentedCorpus::plan_with_tail`]: crate::query::segmented::SegmentedCorpus::plan_with_tail

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use focus_cnn::GpuCost;
use focus_index::TrackKey;
use focus_runtime::GpuMeter;
use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation};

use crate::query::execute::assemble_outcome_from;
use crate::query::plan::{AnytimeMode, QueryPlan};
use crate::query::segmented::SegmentedPlan;
use crate::query::QueryOutcome;
use crate::query_server::QueryServer;

/// One round's emission from the anytime loop: what was newly discovered,
/// what it cost, and how much is estimated to remain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnytimePartial {
    /// Distinct matching objects first discovered this round, sorted.
    pub new_results: Vec<ObjectId>,
    /// Frames first covered by a matching object this round, sorted.
    pub new_frames: Vec<FrameId>,
    /// Fresh GT-CNN inferences this round spent (cache hits excluded).
    pub inferences_spent: usize,
    /// Verdicts this round applied for free from the cross-query cache —
    /// accounted separately so they never distort chunk estimates.
    pub cached_verdicts: usize,
    /// Estimated fraction of the query's distinct results still
    /// undiscovered (`0.0` once every candidate is verified).
    pub est_remaining_frac: f64,
    /// GPU wall-clock latency of this round's verification batch.
    pub latency_secs: f64,
}

/// Why the anytime loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnytimeTermination {
    /// The total fresh-inference budget was spent.
    BudgetExhausted,
    /// The estimated remaining-result fraction dropped to the confidence
    /// threshold.
    ConfidenceReached,
    /// Every candidate was verified; the outcome equals the exhaustive
    /// planner's.
    CandidatesExhausted,
}

/// The anytime loop's final product: the assembled outcome over every
/// verified candidate, the per-round partial trail, and the separated
/// fresh/cached accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct AnytimeOutcome {
    /// Outcome assembled over the verified candidates (all of them when
    /// `termination` is [`AnytimeTermination::CandidatesExhausted`], in
    /// which case frames and objects are byte-identical to the exhaustive
    /// planner's).
    pub outcome: QueryOutcome,
    /// One entry per verification round, in order.
    pub partials: Vec<AnytimePartial>,
    /// Why the loop stopped.
    pub termination: AnytimeTermination,
    /// Total fresh GT inferences across all rounds (equals the sum of the
    /// partials' `inferences_spent` and the meter's `"anytime"` charge in
    /// inferences).
    pub fresh_inferences: usize,
    /// Total free cache-hit verdicts across all rounds.
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

/// Runs the anytime pick-chunk → verify-a-batch → update-estimate loop
/// over a chunked plan with the default
/// [`pick_most_promising`] policy, calling `on_partial` after every round.
///
/// GT work goes through [`QueryServer::verify_round`] under the
/// `"anytime"` phase of `meter`; the caller submits that phase to the
/// shared scheduler (the live service does this in
/// [`FocusService::serve_anytime`]).
///
/// [`FocusService::serve_anytime`]: crate::service::FocusService::serve_anytime
pub fn run_anytime(
    server: &QueryServer,
    plan: &SegmentedPlan,
    mode: &AnytimeMode,
    resolve_centroid: impl Fn(ObjectId) -> Option<ObjectObservation>,
    meter: &GpuMeter,
    on_partial: impl FnMut(&AnytimePartial),
) -> AnytimeOutcome {
    run_anytime_with_picker(
        server,
        plan,
        mode,
        resolve_centroid,
        meter,
        on_partial,
        pick_most_promising,
    )
}

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
        let verified = server.verify_round(&ids, &resolve_centroid, meter, "anytime");

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
