//! Integration tests for anytime query execution
//! ([`focus::core::query::anytime`]): for arbitrary seal boundaries
//! (which change the chunk partition) and arbitrary chunk-pick orders, a
//! run-to-exhaustion anytime query is byte-identical (canonical
//! serde_json payload) to the exhaustive planner, spends no more GT
//! inferences than it, and its per-round `inferences_spent` sums exactly
//! to the meter's `"anytime"` phase total. Deterministic tests pin the
//! budget and confidence terminations, the `"anytime"` scheduler phase in
//! `ServiceStats`, and the request plane's streaming-partials dispatch
//! with its `first_result_latency` histogram.

mod common;

use proptest::prelude::*;

use common::{interleave, service_at, workload};
use focus::cnn::Classifier;
use focus::core::query::{AnytimeMode, AnytimeTermination, ChunkEstimate};
use focus::core::service::FocusService;
use focus::core::serving::{AnytimeResponse, RequestPlane, ServingConfig, TenantId};
use focus::core::QueryRequest;
use focus::runtime::{GpuMeter, VirtualClock};
use focus::video::{ClassId, Frame, FrameId, ObjectId, VideoDataset};

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus_anytime_query_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ingested_service(
    name: &str,
    seal_secs: f64,
    datasets: &[VideoDataset],
    frames: &[Frame],
) -> FocusService {
    let mut service = service_at(&test_dir(name), seal_secs, datasets);
    service.advance(frames).unwrap();
    service
}

/// The stable payload of an outcome: result frames and objects. The
/// accounting fields legitimately differ between execution modes.
fn payload_json(outcome: &focus::core::QueryOutcome) -> String {
    serde_json::to_string(&(&outcome.frames, &outcome.objects)).unwrap()
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Tentpole pin: for arbitrary seal boundaries (chunk partitions),
    /// round budgets and chunk-pick orders, run-to-exhaustion anytime
    /// execution (a) returns a payload byte-identical to the exhaustive
    /// planner's, (b) spends no more GT inferences than it, (c) reports
    /// per-round `inferences_spent` that sum exactly to the meter's
    /// `"anytime"` phase, and (d) streams partials whose union is exactly
    /// the final result set.
    #[test]
    fn exhaustion_is_byte_identical_for_any_seal_and_pick_order(
        (seal_secs, pick_seed, round_budget, case) in (
            4.0f64..16.0,
            1u64..1_000_000,
            1usize..5,
            0u64..1_000_000,
        )
    ) {
        let secs = 20.0;
        let datasets = workload(secs);
        let frames = interleave(&datasets, 64);
        let service = ingested_service(&format!("prop_{case}"), seal_secs, &datasets, &frames);
        let reference =
            ingested_service(&format!("prop_ref_{case}"), seal_secs, &datasets, &frames);
        let class = datasets[0].dominant_classes(1)[0];
        let request = QueryRequest::new(class).with_anytime(AnytimeMode::incremental(round_budget));

        // Exhaustive answer and its fresh-inference bill, on an identical
        // twin whose verdict cache has seen nothing else.
        let exhaustive = reference
            .serve(std::slice::from_ref(&request))
            .unwrap()
            .remove(0);

        // Anytime run driven directly so the meter is observable, with an
        // arbitrary (seeded) chunk-pick order.
        let tail = service.tail_snapshot();
        let plan = service
            .corpus()
            .plan_with_tail(&request, Some(&tail))
            .unwrap();
        let meter = GpuMeter::new();
        let mut seed = pick_seed;
        let anytime = focus::core::query::run_anytime_with_picker(
            service.query_server(),
            &plan,
            &request.anytime,
            |id| service.corpus().centroid(id, &tail).cloned(),
            &meter,
            |_| {},
            |estimates: &[ChunkEstimate]| {
                let eligible: Vec<usize> = estimates
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.remaining > 0)
                    .map(|(i, _)| i)
                    .collect();
                eligible[(xorshift(&mut seed) as usize) % eligible.len()]
            },
        );

        // (a) byte-identical payload at candidate exhaustion.
        prop_assert_eq!(anytime.termination, AnytimeTermination::CandidatesExhausted);
        prop_assert_eq!(payload_json(&anytime.outcome), payload_json(&exhaustive));

        // (b) no more GT inferences than the exhaustive planner spent.
        prop_assert!(
            anytime.fresh_inferences <= exhaustive.centroid_inferences,
            "anytime {} > exhaustive {}",
            anytime.fresh_inferences,
            exhaustive.centroid_inferences
        );

        // (c) per-round accounting is conserved: the partials sum to the
        // run's fresh total, and re-charging each round's batch cost in
        // round order reproduces the meter's "anytime" phase exactly.
        let per_round: usize = anytime.partials.iter().map(|p| p.inferences_spent).sum();
        prop_assert_eq!(per_round, anytime.fresh_inferences);
        let batching = service.query_server().batching();
        let per_inference = service.query_server().ground_truth().cost_per_inference();
        let expected = GpuMeter::new();
        for partial in &anytime.partials {
            expected.charge(
                "anytime",
                batching.batch_cost(per_inference, partial.inferences_spent),
            );
        }
        prop_assert_eq!(
            meter.phase("anytime").seconds(),
            expected.phase("anytime").seconds()
        );
        prop_assert_eq!(meter.total().seconds(), meter.phase("anytime").seconds());

        // (d) the streamed partials cover the final result set exactly.
        let streamed_objects: BTreeSet<ObjectId> = anytime
            .partials
            .iter()
            .flat_map(|p| p.new_results.iter().copied())
            .collect();
        let streamed_frames: BTreeSet<FrameId> = anytime
            .partials
            .iter()
            .flat_map(|p| p.new_frames.iter().copied())
            .collect();
        let final_objects: BTreeSet<ObjectId> = anytime.outcome.objects.iter().copied().collect();
        let final_frames: BTreeSet<FrameId> = anytime.outcome.frames.iter().copied().collect();
        prop_assert_eq!(streamed_objects, final_objects);
        prop_assert_eq!(streamed_frames, final_frames);
    }
}

/// What anytime execution is for: on a rare-class mix over a many-segment
/// archive, the first distinct result and 90% of the results each arrive
/// after strictly fewer fresh GT inferences than the exhaustive planner
/// spends in total.
#[test]
fn first_result_and_90_percent_recall_cost_less_than_exhaustive() {
    let datasets = workload(30.0);
    let frames = interleave(&datasets, 64);
    let service = ingested_service("early", 6.0, &datasets, &frames);
    let reference = ingested_service("early_ref", 6.0, &datasets, &frames);

    // The two rarest classes that still have something to find.
    let mut hist: HashMap<ClassId, usize> = HashMap::new();
    for ds in &datasets {
        for (class, count) in ds.class_histogram() {
            *hist.entry(class).or_insert(0) += count;
        }
    }
    let mut mix: Vec<(usize, ClassId)> = hist
        .into_iter()
        .filter(|&(_, count)| count >= 2)
        .map(|(class, count)| (count, class))
        .collect();
    mix.sort();
    mix.truncate(2);
    assert_eq!(mix.len(), 2, "archive too shallow for the mix");

    let (mut exhaustive_total, mut to_first_total, mut to_90_total) = (0, 0, 0);
    for (_, class) in mix {
        let exhaustive = reference
            .serve(&[QueryRequest::new(class)])
            .unwrap()
            .remove(0);
        assert!(
            !exhaustive.objects.is_empty(),
            "class {class:?} has results"
        );
        let target_90 = (exhaustive.objects.len() as f64 * 0.9).ceil() as usize;
        exhaustive_total += exhaustive.centroid_inferences;

        let request = QueryRequest::new(class).with_anytime(AnytimeMode::incremental(4));
        let (mut spent, mut found) = (0, 0);
        let (mut to_first, mut to_90) = (None, None);
        service
            .serve_anytime_with(&request, |partial| {
                spent += partial.inferences_spent;
                found += partial.new_results.len();
                if found > 0 {
                    to_first.get_or_insert(spent);
                }
                if found >= target_90 {
                    to_90.get_or_insert(spent);
                }
            })
            .unwrap();
        to_first_total += to_first.expect("some round surfaced the first result");
        to_90_total += to_90.expect("exhaustion reaches any recall level");
    }
    assert!(
        to_first_total < exhaustive_total,
        "first result: {to_first_total} vs exhaustive {exhaustive_total}"
    );
    assert!(
        to_90_total < exhaustive_total,
        "90% recall: {to_90_total} vs exhaustive {exhaustive_total}"
    );
}

/// A small fresh-inference budget stops the loop early with an honest
/// termination reason, partial results that are a subset of the
/// exhaustive answer, and a bill within the budget.
#[test]
fn budget_exhaustion_stops_early_with_partial_results() {
    let secs = 20.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let service = ingested_service("budget", 6.0, &datasets, &frames);
    let reference = ingested_service("budget_ref", 6.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];

    let exhaustive = reference
        .serve(&[QueryRequest::new(class)])
        .unwrap()
        .remove(0);
    assert!(
        exhaustive.centroid_inferences > 3,
        "workload must be large enough to cut short"
    );
    let budget = 3;
    let request = QueryRequest::new(class)
        .with_anytime(AnytimeMode::incremental(2).with_max_inferences(budget));
    let anytime = service.serve_anytime(&request).unwrap();

    assert_eq!(anytime.termination, AnytimeTermination::BudgetExhausted);
    assert!(anytime.fresh_inferences <= budget, "budget respected");
    assert!(
        anytime.fresh_inferences < exhaustive.centroid_inferences,
        "strictly fewer inferences than exhaustive"
    );
    let exhaustive_objects: BTreeSet<ObjectId> = exhaustive.objects.iter().copied().collect();
    for object in &anytime.outcome.objects {
        assert!(
            exhaustive_objects.contains(object),
            "partial results are a subset of the exhaustive answer"
        );
    }

    // The anytime GPU work was submitted to the shared scheduler under
    // its own phase, on the query side of the budget.
    let stats = service.stats();
    let anytime_secs = stats
        .gpu
        .submitted_by_phase
        .get("anytime")
        .copied()
        .unwrap_or(0.0);
    assert!(anytime_secs > 0.0, "anytime phase visible in ServiceStats");
    assert_eq!(stats.queries_served, 1);
}

/// A loose confidence threshold stops the loop before exhaustion once the
/// estimated remaining-result fraction decays below it.
#[test]
fn confidence_threshold_terminates_before_exhaustion() {
    let secs = 20.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let service = ingested_service("confidence", 5.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];

    let request = QueryRequest::new(class)
        .with_anytime(AnytimeMode::incremental(2).with_confidence_remaining(0.6));
    let anytime = service.serve_anytime(&request).unwrap();
    match anytime.termination {
        AnytimeTermination::ConfidenceReached => {
            let last = anytime.partials.last().expect("at least one round ran");
            assert!(last.est_remaining_frac <= 0.6);
        }
        AnytimeTermination::CandidatesExhausted => {
            // Legal when the candidate set is small enough that exhaustion
            // wins the race; the estimate must then read zero.
            assert_eq!(
                anytime.partials.last().map(|p| p.est_remaining_frac),
                Some(0.0)
            );
        }
        AnytimeTermination::BudgetExhausted => {
            panic!("no budget was set");
        }
    }
}

/// The request plane's streaming-partials dispatch: an anytime request
/// spends one admission token at submit, streams ticket-tagged partials
/// during dispatch, lands its first-result latency in the
/// `first_result_latency` histogram, and folds into the unified
/// `ServiceStats` snapshot.
#[test]
fn plane_streams_partials_and_records_first_result_latency() {
    let secs = 20.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let service = ingested_service("plane", 6.0, &datasets, &frames);
    let reference = ingested_service("plane_ref", 6.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];
    let request = QueryRequest::new(class).with_anytime(AnytimeMode::incremental(4));

    let clock = VirtualClock::new();
    let plane = RequestPlane::new(ServingConfig::default(), Arc::new(clock.clone()));
    let tenant = TenantId(7);
    let ticket = plane.submit(tenant, request.clone()).unwrap();
    clock.advance(0.01);

    let mut streamed = Vec::new();
    let completed = plane
        .dispatch_anytime(&service, |t, partial| streamed.push((t, partial.clone())))
        .unwrap();
    assert_eq!(completed.len(), 1);
    let done = &completed[0];
    assert_eq!(done.ticket, ticket);
    assert_eq!(done.tenant, tenant);
    assert!(!done.deadline_missed);

    let AnytimeResponse::Answered(outcome) = &done.response else {
        panic!("request answered");
    };
    assert_eq!(outcome.termination, AnytimeTermination::CandidatesExhausted);
    // The streamed partials are exactly the outcome's trail, all tagged
    // with this request's ticket.
    assert_eq!(streamed.len(), outcome.partials.len());
    for ((t, streamed_partial), partial) in streamed.iter().zip(outcome.partials.iter()) {
        assert_eq!(*t, ticket);
        assert_eq!(streamed_partial, partial);
    }
    // Byte-identical to a direct exhaustive serve.
    let direct = reference
        .serve(std::slice::from_ref(&request))
        .unwrap()
        .remove(0);
    assert_eq!(payload_json(&outcome.outcome), payload_json(&direct));

    // First-result latency: finite (results exist), at least the queue
    // wait, and recorded in the plane histogram that ServiceStats folds.
    assert!(done.first_result_latency_secs.is_finite());
    assert!(done.first_result_latency_secs >= 0.01);
    assert!(done.first_result_latency_secs <= done.latency_secs + outcome.outcome.latency_secs);
    let stats = plane.stats(&service);
    assert_eq!(stats.serving.first_result_latency.count(), 1);
    assert_eq!(stats.serving.answered, 1);
    assert!(stats.serving.conserves(0));
    // One admission token bought the whole partial stream: exactly one
    // submit is accounted, however many rounds streamed.
    assert_eq!(stats.serving.submitted, 1);
    assert!(streamed.len() > 1, "multiple rounds streamed");
}
