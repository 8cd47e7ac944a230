//! Integration tests for anytime query execution
//! ([`focus::core::query::anytime`]): for arbitrary seal boundaries and
//! round budgets, a run-to-exhaustion anytime query is byte-identical
//! (canonical serde_json payload) to the exhaustive planner, spends no
//! more GT inferences than it, and its per-round `inferences_spent` sums
//! exactly to the meter's `"anytime"` phase total. A measurement harness
//! holds the executor's partial trail to an offline simulation of its
//! fixed verification order and compares that order with key order and
//! the label-aware best case. Deterministic tests pin the budget
//! termination, the `"anytime"` scheduler phase in `ServiceStats`, the
//! request plane's streaming dispatch with its `first_result_latency`
//! histogram, and the one executor's batches: exact and anytime requests
//! of one batch share rounds and GT batches, and a request's mode decides
//! how it runs wherever it is submitted.

mod common;

use proptest::prelude::*;

use common::{ingested_service, interleave, payload_json, workload};
use focus::cnn::Classifier;
use focus::core::query::{AnytimeMode, AnytimeTermination, PlannedRequest, SegmentedPlan};
use focus::core::serving::{RequestPlane, Response, ServingConfig, TenantId};
use focus::core::QueryRequest;
use focus::index::QueryFilter;
use focus::runtime::{GpuMeter, VirtualClock};
use focus::video::{ClassId, FrameId, ObjectId};

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Tentpole pin: for arbitrary seal boundaries and round budgets,
    /// run-to-exhaustion anytime execution (a) returns a payload
    /// byte-identical to the exhaustive planner's, (b) spends no more GT
    /// inferences than it, (c) reports per-round `inferences_spent` that
    /// sum exactly to the meter's `"anytime"` phase, and (d) streams
    /// partials whose union is exactly the final result set.
    #[test]
    fn exhaustion_is_byte_identical_for_any_seal_and_round_budget(
        (seal_secs, round_budget) in (4.0f64..16.0, 1usize..5)
    ) {
        let secs = 20.0;
        let datasets = workload(secs);
        let frames = interleave(&datasets, 64);
        let service = ingested_service(seal_secs, &datasets, &frames);
        let reference = ingested_service(seal_secs, &datasets, &frames);
        let class = datasets[0].dominant_classes(1)[0];
        let request = QueryRequest::new(class).with_anytime(AnytimeMode::incremental(round_budget));

        // Exhaustive answer and its fresh-inference bill, on an identical
        // twin whose verdict cache has seen nothing else. `serve` honours
        // the request's mode, so the reference is the exact request.
        let exhaustive = reference
            .serve(&[QueryRequest::new(class)])
            .unwrap()
            .remove(0);

        // Anytime run driven directly so the meter is observable.
        let tail = service.tail_snapshot();
        let plan = service
            .corpus()
            .plan_with_tail(&request, Some(&tail))
            .unwrap();
        let meter = GpuMeter::new();
        let anytime = focus::core::query::run_batch(
            service.query_server(),
            &[PlannedRequest::new(&plan, request.anytime)],
            |id| service.corpus().centroid(id, &tail).cloned(),
            &meter,
            |_, _| {},
            |_| {},
        )
        .remove(0);

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
    let service = ingested_service(6.0, &datasets, &frames);
    let reference = ingested_service(6.0, &datasets, &frames);

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
    let service = ingested_service(6.0, &datasets, &frames);
    let reference = ingested_service(6.0, &datasets, &frames);
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

/// The request plane's streaming dispatch: an anytime request spends one
/// admission token at submit, streams ticket-tagged partials during
/// dispatch — exactly the trail `serve_anytime_with` streams on a twin —
/// lands its first-result latency in the `first_result_latency`
/// histogram, and folds into the unified `ServiceStats` snapshot.
#[test]
fn plane_streams_partials_and_records_first_result_latency() {
    let secs = 20.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let service = ingested_service(6.0, &datasets, &frames);
    let reference = ingested_service(6.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];
    let request = QueryRequest::new(class).with_anytime(AnytimeMode::incremental(4));

    let clock = VirtualClock::new();
    let plane = RequestPlane::new(ServingConfig::default(), Arc::new(clock.clone()));
    let tenant = TenantId(7);
    let ticket = plane.submit(tenant, request.clone()).unwrap();
    clock.advance(0.01);

    let mut streamed = Vec::new();
    let completed = plane
        .dispatch_streaming(&service, |t, partial| streamed.push((t, partial.clone())))
        .unwrap();
    assert_eq!(completed.len(), 1);
    let done = &completed[0];
    assert_eq!(done.ticket, ticket);
    assert_eq!(done.tenant, tenant);
    assert!(!done.deadline_missed);
    assert_eq!(
        done.termination,
        Some(AnytimeTermination::CandidatesExhausted)
    );
    let Response::Answered(outcome) = &done.response else {
        panic!("request answered");
    };

    // The streamed partials, all tagged with this request's ticket, are
    // exactly what `serve_anytime_with` streams on an identical twin.
    let mut direct_trail = Vec::new();
    let direct = reference
        .serve_anytime_with(&request, |partial| direct_trail.push(partial.clone()))
        .unwrap();
    assert!(streamed.iter().all(|(t, _)| *t == ticket));
    let trail: Vec<_> = streamed.iter().map(|(_, p)| p.clone()).collect();
    assert_eq!(trail, direct_trail);
    assert_eq!(payload_json(outcome), payload_json(&direct.outcome));
    // Byte-identical to the exact answer (the twin's verdict cache is warm
    // now, which moves the accounting but not the payload).
    let exact = reference
        .serve(&[QueryRequest::new(class)])
        .unwrap()
        .remove(0);
    assert_eq!(payload_json(outcome), payload_json(&exact));

    // First-result latency: finite (results exist), at least the queue
    // wait, and recorded in the plane histogram that ServiceStats folds.
    assert!(done.first_result_latency_secs.is_finite());
    assert!(done.first_result_latency_secs >= 0.01);
    assert!(done.first_result_latency_secs <= done.latency_secs + outcome.latency_secs);
    let stats = plane.stats(&service);
    assert_eq!(stats.serving.first_result_latency.count(), 1);
    assert_eq!(stats.serving.answered, 1);
    assert!(stats.serving.conserves(0));
    // One admission token bought the whole partial stream: exactly one
    // submit is accounted, however many rounds streamed.
    assert_eq!(stats.serving.submitted, 1);
    assert!(streamed.len() > 1, "multiple rounds streamed");
}

/// One dispatch answers an exact and an anytime request of one batch with
/// one backend call: partials stream under the anytime ticket only, only
/// the anytime request records a first-result latency, and each request's
/// latency and deadline are booked when it stops — the exact one after
/// round 1, not after the anytime request's last round.
#[test]
fn one_dispatch_answers_exact_and_anytime_requests_together() {
    let datasets = workload(20.0);
    let frames = interleave(&datasets, 64);
    let service = ingested_service(6.0, &datasets, &frames);
    let classes = [
        datasets[0].dominant_classes(1)[0],
        datasets[1].dominant_classes(1)[0],
    ];

    let clock = VirtualClock::new();
    let plane = RequestPlane::new(ServingConfig::default(), Arc::new(clock.clone()));
    let exact = plane
        .submit(TenantId(1), QueryRequest::new(classes[0]))
        .unwrap();
    let anytime = plane
        .submit(
            TenantId(2),
            QueryRequest::new(classes[1]).with_anytime(AnytimeMode::incremental(4)),
        )
        .unwrap();

    // Every streamed round takes 0.75 s of plane time, so the anytime
    // request, at two rounds or more, overruns its one-second deadline.
    let mut streamed = Vec::new();
    let completed = plane
        .dispatch_streaming(&service, |t, _| {
            streamed.push(t);
            clock.advance(0.75);
        })
        .unwrap();
    assert_eq!(completed.len(), 2, "both answered by one dispatch");
    assert_eq!(plane.queue_len(), 0);
    assert!(!streamed.is_empty());
    assert!(
        streamed.iter().all(|t| *t == anytime),
        "partials of the anytime request only"
    );

    let by_ticket = |ticket| completed.iter().find(|c| c.ticket == ticket).unwrap();
    let (exact_done, anytime_done) = (by_ticket(exact), by_ticket(anytime));
    assert!(matches!(exact_done.response, Response::Answered(_)));
    assert!(matches!(anytime_done.response, Response::Answered(_)));
    assert_eq!(exact_done.termination, None);
    assert_eq!(
        anytime_done.termination,
        Some(AnytimeTermination::CandidatesExhausted)
    );
    assert!(exact_done.first_result_latency_secs.is_infinite());
    assert!(anytime_done.first_result_latency_secs.is_finite());

    // The exact request is first in the batch and stops in round 1, before
    // any round has streamed; the anytime request stops after its last.
    assert!(streamed.len() > 1, "multiple rounds streamed");
    assert_eq!(exact_done.latency_secs, 0.0);
    assert!(!exact_done.deadline_missed);
    assert_eq!(anytime_done.latency_secs, 0.75 * streamed.len() as f64);
    assert!(anytime_done.deadline_missed);

    let stats = plane.serving_stats();
    assert_eq!(stats.batches, 1, "one backend call");
    assert_eq!(stats.first_result_latency.count(), 1);
    assert_eq!(stats.answered, 2);
    assert_eq!(stats.deadline_misses, 1);
    assert!(stats.conserves(0));
    assert_eq!(service.stats().queries_served, 2);
}

/// `serve` runs a request the way its mode says: an incremental request
/// with a budget of three fresh inferences spends at most three, where the
/// exact answer needs more.
#[test]
fn serve_honours_an_incremental_budget() {
    let datasets = workload(20.0);
    let frames = interleave(&datasets, 64);
    let service = ingested_service(6.0, &datasets, &frames);
    let reference = ingested_service(6.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];

    let exhaustive = reference
        .serve(&[QueryRequest::new(class)])
        .unwrap()
        .remove(0);
    assert!(exhaustive.centroid_inferences > 3);
    let request =
        QueryRequest::new(class).with_anytime(AnytimeMode::incremental(2).with_max_inferences(3));
    let outcome = service.serve(&[request]).unwrap().remove(0);
    assert!(outcome.centroid_inferences <= 3, "budget respected");
    assert!(service.stats().cache.misses <= 3, "no unbudgeted GT work");
}

/// `serve_anytime` on an exact request is one round: no partials, run to
/// exhaustion, and the outcome `serve` returns on a cold twin, GPU cost
/// bits included.
#[test]
fn serve_anytime_runs_an_exact_request_in_one_round() {
    let datasets = workload(20.0);
    let frames = interleave(&datasets, 64);
    let service = ingested_service(6.0, &datasets, &frames);
    let reference = ingested_service(6.0, &datasets, &frames);
    let request = QueryRequest::new(datasets[0].dominant_classes(1)[0]);

    let run = service.serve_anytime(&request).unwrap();
    let served = reference
        .serve(std::slice::from_ref(&request))
        .unwrap()
        .remove(0);
    assert!(run.partials.is_empty());
    assert_eq!(run.termination, AnytimeTermination::CandidatesExhausted);
    assert!(served.centroid_inferences > 1);
    assert_eq!(run.outcome, served);
    assert_eq!(
        run.outcome.gpu_cost.seconds().to_bits(),
        served.gpu_cost.seconds().to_bits()
    );
}

/// Two same-class anytime requests in one batch share their rounds' GT
/// batches: together they spend strictly fewer fresh inferences than each
/// served alone on a cold twin, and each returns its lone payload.
#[test]
fn same_class_anytime_requests_share_verification_in_one_batch() {
    let datasets = workload(20.0);
    let frames = interleave(&datasets, 64);
    let service = ingested_service(6.0, &datasets, &frames);
    let twin = ingested_service(6.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];
    let requests = [
        QueryRequest::new(class).with_anytime(AnytimeMode::incremental(2)),
        QueryRequest::new(class).with_anytime(AnytimeMode::incremental(3)),
    ];

    let together = service.serve(&requests).unwrap();
    let alone: Vec<_> = requests
        .iter()
        .map(|request| {
            twin.query_server().invalidate();
            twin.serve(std::slice::from_ref(request)).unwrap().remove(0)
        })
        .collect();
    let spent = |outcomes: &[focus::core::QueryOutcome]| -> usize {
        outcomes.iter().map(|o| o.centroid_inferences).sum()
    };
    assert!(alone.iter().all(|o| o.centroid_inferences > 0));
    assert!(
        spent(&together) < spent(&alone),
        "together {} vs alone {}",
        spent(&together),
        spent(&alone)
    );
    for (shared, lone) in together.iter().zip(&alone) {
        assert_eq!(payload_json(shared), payload_json(lone));
    }
}

/// An exact request ahead of a same-class anytime request in one batch is
/// answered exactly as if alone (every field, GPU cost bits included); the
/// anytime request rides on its verdicts for free and returns the same
/// payload, so nothing is charged to the `"anytime"` phase.
#[test]
fn an_exact_request_pays_for_a_same_class_anytime_request_in_its_batch() {
    let datasets = workload(20.0);
    let frames = interleave(&datasets, 64);
    let service = ingested_service(6.0, &datasets, &frames);
    let twin = ingested_service(6.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];
    let exact = QueryRequest::new(class);
    let requests = [
        exact.clone(),
        QueryRequest::new(class).with_anytime(AnytimeMode::incremental(2)),
    ];

    let together = service.serve(&requests).unwrap();
    let alone = twin.serve(std::slice::from_ref(&exact)).unwrap().remove(0);
    assert!(alone.centroid_inferences > 0);
    assert_eq!(together[0], alone);
    assert_eq!(
        together[0].gpu_cost.seconds().to_bits(),
        alone.gpu_cost.seconds().to_bits()
    );
    assert_eq!(together[1].centroid_inferences, 0);
    assert_eq!(payload_json(&together[1]), payload_json(&alone));
    let gpu = service.stats().gpu;
    assert_eq!(
        gpu.submitted_by_phase
            .get("anytime")
            .copied()
            .unwrap_or(0.0),
        0.0
    );
}

/// Round budget of the measurement harness's requests.
const HARNESS_ROUND_BUDGET: usize = 4;

/// One round of a partial trail: the result objects it surfaced first,
/// sorted, and the fresh GT inferences it spent.
type Round = (Vec<ObjectId>, usize);

/// The trail `order` (plan positions) streams at [`HARNESS_ROUND_BUDGET`]
/// on a cold verdict cache, given every candidate's GT verdict: one fresh
/// inference per candidate, and a confirmed cluster surfaces every member
/// not surfaced before.
fn simulate(order: &[usize], planned: &SegmentedPlan, labels: &[ClassId]) -> Vec<Round> {
    let mut seen = BTreeSet::new();
    order
        .chunks(HARNESS_ROUND_BUDGET)
        .map(|round| {
            let confirmed = round.iter().filter(|&&p| labels[p] == planned.plan.class);
            let members = confirmed.flat_map(|&p| planned.records[p].members.iter());
            let mut new: Vec<ObjectId> = members
                .map(|member| member.object)
                .filter(|object| seen.insert(*object))
                .collect();
            new.sort();
            (new, round.len())
        })
        .collect()
}

/// Fresh inferences a trail has spent when its first result, half, 90%
/// and all of its results have surfaced (whole rounds, as a client
/// counts them), or `None` for a trail without results.
fn milestones(trail: &[Round]) -> Option<[usize; 4]> {
    let total: usize = trail.iter().map(|(new, _)| new.len()).sum();
    let targets = [1, total.div_ceil(2), (total * 9).div_ceil(10), total];
    let (mut spent, mut found, mut reached) = (0, 0, [None; 4]);
    for (new, inferences) in trail {
        spent += inferences;
        found += new.len();
        for (slot, target) in reached.iter_mut().zip(targets) {
            if found >= target {
                slot.get_or_insert(spent);
            }
        }
    }
    let [first, half, most, all] = reached;
    Some([first?, half?, most?, all?])
}

/// Summed milestones of three verification orders over the harness cases.
#[derive(Debug, Default)]
struct OrderCosts {
    cases: usize,
    key: [usize; 4],
    fixed: [usize; 4],
    best: [usize; 4],
}

/// The measurement harness: for every (seal cadence, class, window) case
/// with results over `secs` of the shared two-camera workload, takes the
/// exact plan and its candidates' GT verdicts and simulates three orders
/// offline — key order, the executor's fixed order (class rank, then
/// member count, then key) and the label-aware best case (confirmed
/// clusters first, largest first) — and checks that the executor streams
/// the fixed order's trail, round for round.
fn measure_orders(secs: f64, cadences: &[f64], classes: usize) -> OrderCosts {
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let mut hist: HashMap<ClassId, usize> = HashMap::new();
    for ds in &datasets {
        for (class, count) in ds.class_histogram() {
            *hist.entry(class).or_insert(0) += count;
        }
    }
    let mut by_count: Vec<(Reverse<usize>, ClassId)> = hist
        .into_iter()
        .map(|(class, n)| (Reverse(n), class))
        .collect();
    by_count.sort();
    let windows = [
        QueryFilter::any(),
        QueryFilter::any().with_time_range(0.0, secs / 2.0),
        QueryFilter::any().with_time_range(secs / 2.0, secs),
    ];
    let mut costs = OrderCosts::default();
    for &seal_secs in cadences {
        let service = ingested_service(seal_secs, &datasets, &frames);
        let tail = service.tail_snapshot();
        let gt = service.query_server().ground_truth();
        for &(_, class) in by_count.iter().take(classes) {
            for window in &windows {
                let exact = QueryRequest::new(class).with_filter(window.clone());
                let planned = service
                    .corpus()
                    .plan_with_tail(&exact, Some(&tail))
                    .unwrap();
                let (plan, records) = (&planned.plan, &planned.records);
                let labels: Vec<ClassId> = plan
                    .candidates
                    .iter()
                    .map(|h| {
                        gt.classify_top1(service.corpus().centroid(h.centroid, &tail).unwrap())
                    })
                    .collect();
                let key: Vec<usize> = (0..plan.candidates.len()).collect();
                let mut fixed = key.clone();
                fixed.sort_by_key(|&p| {
                    let rank = records[p]
                        .rank_of(class)
                        .or(records[p].rank_of(plan.lookup_class));
                    (
                        rank.unwrap_or(usize::MAX),
                        Reverse(records[p].members.len()),
                        p,
                    )
                });
                let mut best = key.clone();
                best.sort_by_key(|&p| (labels[p] != class, Reverse(records[p].members.len()), p));

                let fixed_trail = simulate(&fixed, &planned, &labels);
                service.query_server().invalidate();
                let request = exact.with_anytime(AnytimeMode::incremental(HARNESS_ROUND_BUDGET));
                let run = service.serve_anytime(&request).unwrap();
                let executed: Vec<Round> = run
                    .partials
                    .iter()
                    .map(|p| (p.new_results.clone(), p.inferences_spent))
                    .collect();
                assert_eq!(
                    executed, fixed_trail,
                    "{class:?} {window:?} sealed every {seal_secs}s"
                );

                let Some(fixed) = milestones(&fixed_trail) else {
                    continue;
                };
                let key = milestones(&simulate(&key, &planned, &labels)).unwrap();
                let best = milestones(&simulate(&best, &planned, &labels)).unwrap();
                costs.cases += 1;
                for m in 0..4 {
                    assert!(
                        best[m] <= fixed[m] && best[m] <= key[m],
                        "best case is a lower bound"
                    );
                    costs.key[m] += key[m];
                    costs.fixed[m] += fixed[m];
                    costs.best[m] += best[m];
                }
            }
        }
    }
    costs
}

/// The fixed verification order pays off: over the harness cases (four
/// seal cadences, up to eight commonest classes, three windows), the
/// executor streams exactly the simulated fixed-order trail, and that
/// order reaches the first result, half and 90% of the answer in no more
/// summed GT inferences than key order. `--nocapture` prints the sums
/// (`docs/query-path.md` tabulates them).
#[test]
fn the_fixed_order_reaches_results_no_later_than_key_order() {
    let costs = measure_orders(30.0, &[4.0, 6.0, 10.0, 15.0], 8);
    eprintln!("harness (first, 50%, 90%, 100%): {costs:?}");
    assert!(costs.cases >= 20, "{} cases with results", costs.cases);
    for m in 0..3 {
        assert!(costs.fixed[m] <= costs.key[m], "{costs:?}");
    }
}
