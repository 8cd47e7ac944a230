//! Recall/precision harness for track-level spatio-temporal queries
//! ([`focus::core::query::track`]), pinned against a brute-force track
//! scan over the raw observations:
//!
//! - **Recall is 1.0 by construction.** A sketch-planned query's objects
//!   must be a superset of the plain class query's objects restricted to
//!   tracks whose *exact* trace ([`VideoDataset::track_traces`], the same
//!   position/timestamp definition the sketcher folds) satisfies the
//!   filter. Sketch evaluation is conservative, so nothing the exact scan
//!   admits may be dropped. Precision (< 1.0 — sketches over-approximate)
//!   is reported per query mix.
//! - **Intersection before verification is free.** Planning the same
//!   request with track pruning disabled (`prune_tracks: false` — the
//!   class-only baseline that verifies every class-matched candidate)
//!   yields a byte-identical payload (canonical `serde_json` of frames
//!   and objects) while verifying strictly more candidates and spending
//!   strictly more GT inferences.
//! - **Seal boundaries are invisible to the filter.** A proptest over
//!   arbitrary seal cadences pins that the sketch absorb-merge makes the
//!   planner's track scope byte-identical no matter where segment seals
//!   fall, and that on every service the filtered payload is exactly the
//!   plain payload restricted to scope-admitted tracks.

mod common;

use proptest::prelude::*;

use common::{ingested_service, interleave, payload_json, workload};
use focus::cnn::GroundTruthCnn;
use focus::core::query::{Region, TrackFilter, TrackPredicate};
use focus::core::service::FocusService;
use focus::core::{QueryRequest, QueryServer};
use focus::runtime::{GpuClusterSpec, GpuMeter};
use focus::video::{ObjectId, StreamId, TrackId, VideoDataset};

use std::collections::{BTreeSet, HashMap};

/// The query mix the harness (and the `track_queries` bench) exercises:
/// region visits/entries, a cross-frame transit, a dwell, and speed bands.
/// The frame is 1280x720; tracks move at up to ~4.5 px/frame.
fn query_mix() -> Vec<(&'static str, TrackFilter)> {
    let left = Region::new(0.0, 0.0, 640.0, 720.0);
    let right = Region::new(640.0, 0.0, 1280.0, 720.0);
    let band = Region::new(500.0, 120.0, 780.0, 600.0);
    vec![
        (
            "visit_left",
            TrackFilter::new().and(TrackPredicate::visits(left)),
        ),
        (
            "enter_band",
            TrackFilter::new().and(TrackPredicate::enters(band)),
        ),
        (
            "exit_right",
            TrackFilter::new().and(TrackPredicate::exits(right)),
        ),
        (
            "transit_left_to_right",
            TrackFilter::new().and(TrackPredicate::transit(left, right)),
        ),
        (
            "dwell_band_3s",
            TrackFilter::new().and(TrackPredicate::dwells(band, 3.0)),
        ),
        (
            "fast_tracks",
            TrackFilter::new().and(TrackPredicate::speed_above(60.0)),
        ),
        (
            "slow_in_left",
            TrackFilter::new()
                .and(TrackPredicate::speed_below(45.0))
                .and(TrackPredicate::visits(left)),
        ),
    ]
}

/// Every observation's track, for mapping result objects back to traces.
fn track_of(datasets: &[VideoDataset]) -> HashMap<ObjectId, (StreamId, TrackId)> {
    let mut map = HashMap::new();
    for ds in datasets {
        for obj in ds.objects() {
            map.insert(obj.object_id, (obj.stream_id, obj.track_id));
        }
    }
    map
}

/// Brute-force reference: the tracks whose exact raw-observation trace
/// satisfies `filter`.
fn exactly_admitted(
    datasets: &[VideoDataset],
    filter: &TrackFilter,
) -> BTreeSet<(StreamId, TrackId)> {
    let mut admitted = BTreeSet::new();
    for ds in datasets {
        for (key, trace) in ds.track_traces() {
            if filter.admits_trace(&trace) {
                admitted.insert(key);
            }
        }
    }
    admitted
}

/// The acceptance pin: for every query in the mix, recall of the
/// sketch-planned answer against the brute-force trace scan is exactly
/// 1.0 (conservative sketches may only over-admit, never drop), and
/// precision is reported. At least one query must actually discriminate
/// (admit strictly fewer objects than the plain class query) or the
/// harness has no teeth.
#[test]
fn sketch_planned_recall_is_one_against_brute_force_trace_scan() {
    let datasets = workload(40.0);
    let frames = interleave(&datasets, 64);
    let service = ingested_service(8.0, &datasets, &frames);
    let class = datasets[0].dominant_classes(1)[0];
    let tracks = track_of(&datasets);

    let plain = service
        .serve(&[QueryRequest::new(class)])
        .unwrap()
        .pop()
        .unwrap();
    let plain_objects: BTreeSet<ObjectId> = plain.objects.iter().copied().collect();
    assert!(!plain_objects.is_empty(), "workload must produce results");

    let mut discriminated = false;
    for (name, filter) in query_mix() {
        let got = service
            .serve(&[QueryRequest::new(class).with_tracks(filter.clone())])
            .unwrap()
            .pop()
            .unwrap();
        let got_objects: BTreeSet<ObjectId> = got.objects.iter().copied().collect();

        // Reference: the plain query's objects restricted to tracks the
        // exact trace scan admits.
        let admitted = exactly_admitted(&datasets, &filter);
        let reference: BTreeSet<ObjectId> = plain_objects
            .iter()
            .filter(|id| admitted.contains(&tracks[id]))
            .copied()
            .collect();

        let hit = reference.intersection(&got_objects).count();
        let recall = if reference.is_empty() {
            1.0
        } else {
            hit as f64 / reference.len() as f64
        };
        let precision = if got_objects.is_empty() {
            1.0
        } else {
            hit as f64 / got_objects.len() as f64
        };
        println!(
            "track query {name}: recall {recall:.3} precision {precision:.3} \
             ({} reference objects, {} returned)",
            reference.len(),
            got_objects.len()
        );
        assert_eq!(
            recall, 1.0,
            "query {name}: conservative sketches must never drop an \
             exactly-satisfying track"
        );
        assert!(
            precision > 0.0 || reference.is_empty(),
            "query {name}: a non-empty reference implies a non-empty answer"
        );
        // The sketch answer can only over-admit relative to the exact
        // scan, and never beyond the plain class query.
        assert!(got_objects.is_subset(&plain_objects), "query {name}");
        if got_objects.len() < plain_objects.len() {
            discriminated = true;
        }
    }
    assert!(
        discriminated,
        "at least one query in the mix must reject some tracks"
    );
}

/// The tentpole cost pin: disabling intersection-before-verification
/// (`prune_tracks: false` — class-only planning) yields a byte-identical
/// payload while planning strictly more candidates and spending strictly
/// more GT inferences.
#[test]
fn pruned_planning_is_byte_identical_and_strictly_cheaper() {
    let datasets = workload(40.0);
    let frames = interleave(&datasets, 64);
    let mut service = ingested_service(8.0, &datasets, &frames);
    service.seal_all().unwrap();
    let corpus = service.corpus();
    let class = datasets[0].dominant_classes(1)[0];

    let band = Region::new(500.0, 120.0, 780.0, 600.0);
    let request = QueryRequest::new(class)
        .with_tracks(TrackFilter::new().and(TrackPredicate::dwells(band, 3.0)));
    let classes = corpus.lookup_classes(request.class, &request.filter);

    let pruned = corpus
        .plan_with_tail_scoped(&request, None, &classes, true, true)
        .unwrap();
    let unpruned = corpus
        .plan_with_tail_scoped(&request, None, &classes, true, false)
        .unwrap();
    assert_eq!(
        pruned.plan.track_scope, unpruned.plan.track_scope,
        "both paths carry the same sketch scope"
    );
    assert!(
        !pruned.plan.track_scope.is_empty(),
        "the dwell filter must reject some tracks or the pin is vacuous"
    );
    assert!(
        unpruned.plan.candidates.len() > pruned.plan.candidates.len(),
        "pruning must drop candidates ({} vs {})",
        unpruned.plan.candidates.len(),
        pruned.plan.candidates.len()
    );

    // Serve each plan through its own server (fresh verdict caches) so
    // the inference counts are honest per-path totals.
    let serve = |planned: &focus::core::query::SegmentedPlan| {
        let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
        server
            .serve_resolved(
                std::slice::from_ref(&planned.plan),
                std::slice::from_ref(&planned.records),
                |id| corpus.centroids.get(&id).cloned(),
                &GpuMeter::new(),
            )
            .pop()
            .unwrap()
    };
    let pruned_outcome = serve(&pruned);
    let unpruned_outcome = serve(&unpruned);

    assert_eq!(
        payload_json(&pruned_outcome),
        payload_json(&unpruned_outcome),
        "member-level scope filtering makes the payloads byte-identical"
    );
    assert!(
        unpruned_outcome.matched_clusters > pruned_outcome.matched_clusters,
        "class-only planning verifies strictly more candidates"
    );
    assert!(
        unpruned_outcome.centroid_inferences > pruned_outcome.centroid_inferences,
        "class-only planning spends strictly more GT inferences ({} vs {})",
        unpruned_outcome.centroid_inferences,
        pruned_outcome.centroid_inferences
    );

    // The production serve path agrees with the explicitly-pruned plan.
    let end_to_end = service.serve(&[request]).unwrap().pop().unwrap();
    assert_eq!(payload_json(&end_to_end), payload_json(&pruned_outcome));
}

/// The planner's sketch scope for `request` on a live service
/// (segments plus unsealed tail).
fn scope_of(service: &FocusService, request: &QueryRequest) -> focus::core::query::TrackScope {
    let corpus = service.corpus();
    let tail = service.tail_snapshot();
    let classes = corpus.lookup_classes(request.class, &request.filter);
    corpus
        .plan_with_tail_scoped(request, Some(&tail), &classes, true, true)
        .unwrap()
        .plan
        .track_scope
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 4,
        .. ProptestConfig::default()
    })]

    /// Arbitrary seal boundaries never change a TrackFilter's results.
    /// Cluster *records* are legitimately seal-dependent (a seal boundary
    /// can split a cluster, changing centroids and so GT verdicts — true
    /// of plain class queries too), so the pin factors the filter out:
    /// for two services over the same frames with independently drawn
    /// seal cadences (one may leave an unsealed tail),
    ///
    /// 1. the planner's sketch scope is byte-identical — the absorb-merge
    ///    is associative, so the whole-life sketches are independent of
    ///    where seals fall; and
    /// 2. on each service, the filtered payload is *exactly* the plain
    ///    payload restricted to scope-admitted tracks — the TrackFilter
    ///    contributes a pure per-track restriction and nothing else.
    #[test]
    fn seal_boundaries_never_change_track_filter_results(
        (seal_a, seal_b) in (3.0f64..9.0, 9.0f64..20.0)
    ) {
        let datasets = workload(24.0);
        let frames = interleave(&datasets, 64);
        let service_a = ingested_service(seal_a, &datasets, &frames);
        let service_b = ingested_service(seal_b, &datasets, &frames);
        let class = datasets[0].dominant_classes(1)[0];
        let tracks = track_of(&datasets);
        let frame_of: HashMap<ObjectId, focus::video::FrameId> = datasets
            .iter()
            .flat_map(|ds| ds.objects().map(|o| (o.object_id, o.frame_id)))
            .collect();

        for (name, filter) in query_mix() {
            let request = QueryRequest::new(class).with_tracks(filter);
            let scope = scope_of(&service_a, &request);
            prop_assert!(
                scope == scope_of(&service_b, &request),
                "query {}: sketch scope differs across seal cadences {} vs {}",
                name,
                seal_a,
                seal_b
            );
            for service in [&service_a, &service_b] {
                let plain = service
                    .serve(&[QueryRequest::new(class)])
                    .unwrap()
                    .pop()
                    .unwrap();
                let filtered = service
                    .serve(std::slice::from_ref(&request))
                    .unwrap()
                    .pop()
                    .unwrap();
                let expect_objects: Vec<ObjectId> = plain
                    .objects
                    .iter()
                    .copied()
                    .filter(|id| {
                        let (stream, track) = tracks[id];
                        scope.admits(focus::index::TrackKey::new(stream, track))
                    })
                    .collect();
                prop_assert!(
                    filtered.objects == expect_objects,
                    "query {}: filtered objects are not the scope-restricted plain objects",
                    name
                );
                let expect_frames: BTreeSet<focus::video::FrameId> =
                    expect_objects.iter().map(|id| frame_of[id]).collect();
                let got_frames: BTreeSet<focus::video::FrameId> =
                    filtered.frames.iter().copied().collect();
                prop_assert!(
                    got_frames == expect_frames,
                    "query {}: filtered frames are not the admitted members' frames",
                    name
                );
            }
        }
    }
}
