//! Integration tests for the multi-tenant request plane
//! ([`focus::core::serving`]): under a virtual clock, for arbitrary
//! per-tenant arrival schedules, every admitted request is answered
//! byte-identically to a direct [`FocusService::serve`] call, no admitted
//! request is answered past its deadline, and shed requests receive an
//! explicit `Overloaded` without ever consuming a ground-truth inference.
//! A 10× overload soak pins the bounded queue, the convergent shed
//! fraction and post-storm latency recovery.

mod common;

use proptest::prelude::*;

use common::{ingested_service, interleave, payload_json, workload};
use focus::cnn::GpuCost;
use focus::core::serving::{
    Completed, RequestPlane, Response, ServingConfig, ShedReason, TenantConfig, TenantId,
};
use focus::core::QueryRequest;
use focus::index::QueryFilter;
use focus::runtime::VirtualClock;
use focus::video::VideoDataset;

use std::collections::BTreeMap;
use std::sync::Arc;

fn request_pool(datasets: &[VideoDataset], secs: f64) -> Vec<QueryRequest> {
    let classes = datasets[0].dominant_classes(2);
    let second = classes.get(1).copied().unwrap_or(classes[0]);
    vec![
        QueryRequest::new(classes[0]),
        QueryRequest::new(classes[0])
            .with_filter(QueryFilter::any().with_time_range(0.0, secs / 2.0)),
        QueryRequest::new(second),
        QueryRequest::new(second).with_filter(QueryFilter::any().with_time_range(secs / 3.0, secs)),
    ]
}

/// Three tenants with different rates, weights and latency budgets.
fn plane_config() -> ServingConfig {
    ServingConfig {
        queue_bound: 64,
        batch_max_requests: 6,
        dispatch_margin_secs: 0.1,
        ..ServingConfig::default()
    }
    .with_tenant(
        TenantId(0),
        TenantConfig {
            weight: 3.0,
            rate_per_sec: 40.0,
            burst: 8.0,
            deadline_secs: 0.8,
        },
    )
    .with_tenant(
        TenantId(1),
        TenantConfig {
            weight: 1.0,
            rate_per_sec: 15.0,
            burst: 4.0,
            deadline_secs: 1.5,
        },
    )
    .with_tenant(
        TenantId(2),
        TenantConfig {
            weight: 0.0, // lowest priority, must still not starve
            rate_per_sec: 8.0,
            burst: 2.0,
            deadline_secs: 0.5,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Satellite: over arbitrary per-tenant arrival schedules on a virtual
    /// clock — (a) every answered request is byte-identical (frames and
    /// objects) to serving it directly, (b) no admitted request is
    /// answered after its deadline, (c) shed and expired requests never
    /// reach the backend, so they consume zero GT inferences.
    #[test]
    fn arbitrary_schedules_serve_identically_and_respect_deadlines(
        schedule in prop::collection::vec((0usize..3, 0usize..4, 0.0f64..0.25), 40..90)
    ) {
        let secs = 20.0;
        let datasets = workload(secs);
        let frames = interleave(&datasets, 64);
        let pool = request_pool(&datasets, secs);
        // Fully ingested, with specialization disabled (a stable
        // ground-truth epoch) and short seals: the plane then runs a pure
        // query phase against a deterministic backend, so plane-vs-direct
        // comparisons are exact.
        let service = ingested_service(8.0, &datasets, &frames);
        let reference = ingested_service(8.0, &datasets, &frames);

        let clock = VirtualClock::new();
        let plane = RequestPlane::new(plane_config(), Arc::new(clock.clone()));

        let mut admitted_requests: BTreeMap<u64, QueryRequest> = BTreeMap::new();
        let mut sheds = 0u64;
        let mut completed: Vec<Completed> = Vec::new();
        for &(tenant, req_idx, dt) in &schedule {
            clock.advance(dt);
            while plane.batch_ready() {
                completed.extend(plane.dispatch(&service).unwrap());
            }
            match plane.submit(TenantId(tenant as u32), pool[req_idx].clone()) {
                Ok(ticket) => {
                    admitted_requests.insert(ticket.0, pool[req_idx].clone());
                }
                Err(overloaded) => {
                    // (c) sheds are explicit and actionable.
                    prop_assert!(overloaded.retry_after_secs >= 0.0);
                    prop_assert!(matches!(
                        overloaded.reason,
                        ShedReason::RateLimited | ShedReason::QueueFull
                    ));
                    sheds += 1;
                }
            }
        }
        completed.extend(plane.flush_with(|batch| service.serve(batch)).unwrap());

        let stats = plane.serving_stats();
        prop_assert!(stats.conserves(0), "conservation: {stats:?}");
        prop_assert_eq!(stats.shed(), sheds);
        prop_assert_eq!(stats.admitted as usize, completed.len());
        prop_assert!(stats.max_queue_len as usize <= plane.config().queue_bound);

        let mut answered = 0usize;
        for c in &completed {
            let request = &admitted_requests[&c.ticket.0];
            match &c.response {
                Response::Answered(outcome) => {
                    answered += 1;
                    // (b) answered within the deadline: the virtual clock
                    // only advances between plane operations, so a request
                    // alive at batch formation completes on time.
                    prop_assert!(!c.deadline_missed, "ticket {:?}", c.ticket);
                    // (a) byte-identical payload to a direct serve call.
                    let direct = reference
                        .serve(std::slice::from_ref(request))
                        .unwrap()
                        .remove(0);
                    prop_assert_eq!(payload_json(outcome), payload_json(&direct));
                }
                Response::DeadlineExpired => {
                    prop_assert!(c.deadline_missed);
                }
            }
        }
        prop_assert_eq!(answered as u64, stats.answered);
        // (c) only answered requests ever reached the backend: sheds and
        // expiries cost zero queries and therefore zero GT inferences.
        prop_assert_eq!(service.stats().queries_served, answered);
        // The plane folds its stats into the unified service snapshot.
        prop_assert_eq!(&plane.stats(&service).serving, &stats);
    }
}

/// Satellite: a calm phase below capacity sheds nothing; then a storm at
/// ~10× sustainable capacity. The queue never exceeds its bound, the shed
/// fraction converges to the overload ratio, every answer lands inside its
/// deadline, and once the storm passes latency recovers to the pre-storm
/// level.
#[test]
fn overload_soak_sheds_converge_and_recover() {
    let clock = VirtualClock::new();
    let config = ServingConfig {
        queue_bound: 32,
        batch_max_requests: 16,
        dispatch_margin_secs: 0.05,
        default_tenant: TenantConfig {
            weight: 1.0,
            rate_per_sec: 40.0,
            burst: 16.0,
            deadline_secs: 1.0,
        },
        tenants: Vec::new(),
    };
    let plane = RequestPlane::new(config, Arc::new(clock.clone()));
    let tenant = TenantId(9);
    let request = QueryRequest::new(focus::video::ClassId(1));
    let echo = |batch: &[QueryRequest]| {
        Ok(batch
            .iter()
            .map(|req| focus::core::QueryOutcome {
                class: req.class,
                frames: Vec::new(),
                objects: Vec::new(),
                matched_clusters: 0,
                confirmed_clusters: 0,
                centroid_inferences: 0,
                gpu_cost: GpuCost::default(),
                latency_secs: 0.0,
            })
            .collect())
    };

    // Every dispatch costs modelled service time, so recorded latencies
    // include queueing, batching and service; the dispatch margin is what
    // keeps answers inside the deadline.
    let timed_echo = |batch: &[QueryRequest]| {
        clock.advance(0.02);
        echo(batch)
    };

    // Calm: 20 submits/sec against the 40/sec bucket sheds nothing.
    for _ in 0..100 {
        clock.advance(1.0 / 20.0);
        while plane.batch_ready() {
            plane.dispatch_with(timed_echo).unwrap();
        }
        plane
            .submit(tenant, request.clone())
            .expect("below capacity nothing sheds");
    }
    let calm = plane.serving_stats();

    // Storm: 400 submits/sec against a 40/sec bucket for 20 virtual
    // seconds, dispatching whenever the plane says a batch is due.
    let dt = 1.0 / 400.0;
    let storm_secs = 20.0;
    let mut max_queue_seen = 0usize;
    let mut window_sheds: Vec<(u64, u64)> = Vec::new(); // (submitted, shed) per 5s window
    let mut last = (calm.submitted, calm.shed());
    let steps = (storm_secs / dt) as usize;
    for step in 0..steps {
        clock.advance(dt);
        while plane.batch_ready() {
            plane.dispatch_with(timed_echo).unwrap();
        }
        let _ = plane.submit(tenant, request.clone());
        max_queue_seen = max_queue_seen.max(plane.queue_len());
        if (step + 1) % (steps / 4) == 0 {
            let stats = plane.serving_stats();
            window_sheds.push((stats.submitted - last.0, stats.shed() - last.1));
            last = (stats.submitted, stats.shed());
        }
    }

    let stats = plane.serving_stats();
    assert!(
        max_queue_seen <= 32 && stats.max_queue_len <= 32,
        "queue bounded: {max_queue_seen}"
    );
    assert!(stats.shed() > 0 && stats.answered > 0);
    // Overload sheds instead of growing the tail: every answer, service
    // time included, lands inside the 1 s deadline.
    assert_eq!(stats.deadline_misses, 0);
    assert!(stats.latency.p999() < 1.0, "p999 {}", stats.latency.p999());

    // Shed fraction converges to the overload ratio (1 − 40/400 = 0.9) in
    // every steady window after the initial burst absorbs the bucket.
    for (i, &(submitted, shed)) in window_sheds.iter().enumerate().skip(1) {
        let fraction = shed as f64 / submitted as f64;
        assert!(
            (0.85..=0.95).contains(&fraction),
            "window {i}: shed fraction {fraction}"
        );
    }

    // Backend stall: stop dispatching for two virtual seconds while the
    // storm continues. The queue parks at its bound and admissible
    // submits shed QueueFull instead of growing memory without bound.
    let before_stall = plane.serving_stats();
    for _ in 0..800 {
        clock.advance(dt);
        let _ = plane.submit(tenant, request.clone());
        max_queue_seen = max_queue_seen.max(plane.queue_len());
    }
    let after_stall = plane.serving_stats();
    assert!(
        after_stall.shed_queue_full > before_stall.shed_queue_full,
        "stall sheds QueueFull: {after_stall:?}"
    );
    assert!(max_queue_seen <= 32, "bound holds through the stall");

    // Post-storm: drain, let the bucket breathe, and check latency
    // recovers — a fresh submit is admitted and answered well inside its
    // deadline instead of queueing behind storm leftovers.
    plane.flush_with(echo).unwrap();
    clock.advance(5.0);
    let before = plane.serving_stats();
    plane
        .submit(tenant, request.clone())
        .expect("post-storm submit admitted");
    let completed = plane.flush_with(echo).unwrap();
    assert_eq!(completed.len(), 1);
    assert!(matches!(completed[0].response, Response::Answered(_)));
    assert!(
        completed[0].latency_secs < 0.05,
        "post-storm latency {} recovered",
        completed[0].latency_secs
    );
    assert!(!completed[0].deadline_missed);
    let after = plane.serving_stats();
    assert_eq!(after.answered, before.answered + 1);
    assert!(after.conserves(0));
}
