//! Integration tests for the live [`FocusService`]: a query issued
//! mid-ingest must return results byte-identical to sealing every pending
//! record first and then querying, while opening no more segments than the
//! pruned segmented path and never re-verifying a centroid already cached
//! for the current ground-truth epoch.

mod common;

use proptest::prelude::*;

use common::{config, interleave, reference_output, service_at, workload};
use focus::cnn::{GroundTruthCnn, ModelSpec};
use focus::core::service::{FocusService, ServiceConfig, SERVICE_STATE_FILE};
use focus::core::{
    ConfigurationPoint, IngestCnn, IngestEngine, IngestParams, ModelChoice, QueryEngine,
    QueryRequest, SealPolicy, SelectedConfiguration, StreamWorkerConfig,
};
use focus::index::{persist, QueryFilter, TopKIndex};
use focus::runtime::{GpuClusterSpec, GpuMeter};
use focus::video::profile::profile_by_name;
use focus::video::{Frame, VideoDataset};

use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus_live_service_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_with(name: &str, seal_secs: f64, datasets: &[VideoDataset]) -> (FocusService, PathBuf) {
    let dir = test_dir(name);
    (service_at(&dir, seal_secs, datasets), dir)
}

fn request_mix(datasets: &[VideoDataset], secs: f64) -> Vec<QueryRequest> {
    let classes = datasets[0].dominant_classes(2);
    let second = classes.get(1).copied().unwrap_or(classes[0]);
    vec![
        QueryRequest::new(classes[0]),
        QueryRequest::new(classes[0])
            .with_filter(QueryFilter::any().with_time_range(0.0, secs / 2.0)),
        QueryRequest::new(classes[0]).with_filter(
            QueryFilter::any()
                .with_time_range(secs / 2.0, secs)
                .with_kx(3),
        ),
        QueryRequest::new(second),
    ]
}

/// The acceptance criterion: serving mid-ingest is byte-identical to
/// sealing everything first and serving, and opens no more segments.
#[test]
fn mid_ingest_serve_equals_seal_all_then_serve() {
    let secs = 50.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);

    for cut_fraction in [0.35, 0.8] {
        let cut = (frames.len() as f64 * cut_fraction) as usize;
        let (mut live, live_dir) = service_with("mid_live", 15.0, &datasets);
        live.advance(&frames[..cut]).unwrap();
        let mid_ingest = live.serve(&requests).unwrap();

        // Twin: identical history, but every pending record sealed first.
        let (mut sealed, sealed_dir) = service_with("mid_sealed", 15.0, &datasets);
        sealed.advance(&frames[..cut]).unwrap();
        sealed.seal_all().unwrap();
        let all_sealed = sealed.serve(&requests).unwrap();

        assert_eq!(
            serde_json::to_string(&mid_ingest).unwrap(),
            serde_json::to_string(&all_sealed).unwrap(),
            "cut at {cut_fraction}"
        );
        // The tail overlay must not cost segment opens: the live service
        // opens no more segments than the all-sealed pruned path, which
        // has strictly more segments to consult.
        let live_stats = live.stats();
        let sealed_stats = sealed.stats();
        assert!(live_stats.segments < sealed_stats.segments);
        assert!(
            live_stats.io.segments_opened() <= sealed_stats.io.segments_opened(),
            "live opened {} vs sealed {}",
            live_stats.io.segments_opened(),
            sealed_stats.io.segments_opened()
        );
        // And part of the answer really came from memory.
        assert!(live_stats.tail_hit_fraction() > 0.0);
        assert_eq!(sealed_stats.tail_hit_fraction(), 0.0);
        std::fs::remove_dir_all(&live_dir).ok();
        std::fs::remove_dir_all(&sealed_dir).ok();
    }
}

/// The service's GT work is bounded by the uncached serial engine: batched,
/// deduplicated, cached verification can only do fewer inferences.
#[test]
fn gt_inferences_never_exceed_the_serial_engine() {
    let secs = 45.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 32);
    let requests = request_mix(&datasets, secs);
    let (mut service, dir) = service_with("inference_bound", 12.0, &datasets);
    service.advance(&frames[..frames.len() * 2 / 3]).unwrap();

    let outcomes = service.serve(&requests).unwrap();
    let service_inferences: usize = outcomes.iter().map(|o| o.centroid_inferences).sum();

    // Serial reference over the same corpus: merged segments + tail.
    let reference = reference_output(&service);
    let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
    let mut serial_inferences = 0;
    for (request, outcome) in requests.iter().zip(outcomes.iter()) {
        let serial = engine.query(&reference, request.class, &request.filter, &GpuMeter::new());
        assert_eq!(outcome.frames, serial.frames);
        assert_eq!(outcome.objects, serial.objects);
        serial_inferences += serial.centroid_inferences;
    }
    assert!(
        service_inferences <= serial_inferences,
        "{service_inferences} > {serial_inferences}"
    );

    // A repeated wave re-verifies nothing cached for the current epoch.
    let again = service.serve(&requests).unwrap();
    assert_eq!(
        again.iter().map(|o| o.centroid_inferences).sum::<usize>(),
        0,
        "every verdict was cached"
    );
    for (a, b) in outcomes.iter().zip(again.iter()) {
        assert_eq!(a.frames, b.frames);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The live driver against the batch reference, on a two-camera workload:
/// with the model fixed (no bootstrap, no retrain, no GT labelling) and no
/// seal before the end of the recording, frame-by-frame `advance` runs the
/// same shared pipeline as one `IngestEngine::ingest` call per stream, so
/// the merged index is byte-identical, every object is indexed exactly
/// once, every centroid is retained and the ingest GPU seconds are what the
/// batch runs charged — bitwise, where the summation order is the same.
#[test]
fn live_ingest_matches_batch_ingest_for_a_fixed_model() {
    let datasets: Vec<VideoDataset> = ["lausanne", "auburn_c"]
        .iter()
        .map(|n| VideoDataset::generate(profile_by_name(n).unwrap(), 90.0))
        .collect();
    let engine = IngestEngine::new(
        IngestCnn::generic(ModelSpec::cheap_cnn_1()),
        config(1e9).worker.params,
    );
    let batch_meter = GpuMeter::new();
    let mut batch_index = TopKIndex::new();
    let mut batch_costs = Vec::new();
    for dataset in &datasets {
        let batch = engine.ingest(dataset, &batch_meter);
        assert_eq!(batch.objects_total, dataset.object_count());
        batch_costs.push(batch.gpu_cost);
        assert_eq!(batch_index.merge(batch.index), 0);
    }

    let (mut service, dir) = service_with("live_vs_batch", 1e9, &datasets);
    for (i, dataset) in datasets.iter().enumerate() {
        for frame in &dataset.frames {
            let report = service.advance(std::slice::from_ref(frame)).unwrap();
            assert_eq!((report.segments_sealed, report.retrains), (0, 0));
        }
        if i == 0 {
            // One stream in: the scheduler has summed exactly the charges
            // the batch run summed, in the same order.
            assert_eq!(
                service.stats().gpu.submitted_by_phase["ingest"].to_bits(),
                batch_costs[0].seconds().to_bits()
            );
        }
    }
    assert_eq!(service.seal_all().unwrap().len(), datasets.len());

    let stats = service.stats();
    assert_eq!(
        stats.objects_indexed,
        datasets.iter().map(|d| d.object_count()).sum::<usize>()
    );
    let ingest_secs = stats.gpu.submitted_by_phase["ingest"];
    assert!((ingest_secs - batch_meter.phase("ingest").seconds()).abs() < 1e-9 * ingest_secs);
    let merged = service.store().merged_index().unwrap();
    assert_eq!(
        persist::to_json(&merged).unwrap(),
        persist::to_json(&batch_index).unwrap()
    );
    assert_eq!(merged.stats().objects, stats.objects_indexed);
    for record in merged.clusters() {
        assert!(service
            .corpus()
            .centroids
            .contains_key(&record.centroid_object));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Specialization runs behind the service: retrains swap the stream's
/// routing model and bump the verdict-cache epoch automatically.
#[test]
fn retrain_bumps_verdict_cache_epoch() {
    let datasets = workload(120.0);
    let dir = test_dir("retrain_epoch");
    let mut service = FocusService::create(
        &dir,
        ServiceConfig {
            worker: StreamWorkerConfig {
                bootstrap_secs: 30.0,
                retrain_interval_secs: 45.0,
                ..StreamWorkerConfig::default()
            },
            seal: SealPolicy::every_secs(20.0),
            ..ServiceConfig::default()
        },
        GroundTruthCnn::resnet152(),
    )
    .unwrap();
    for ds in &datasets {
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    assert_eq!(service.query_server().epoch(), 0);
    let report = service.advance(&interleave(&datasets, 64)).unwrap();
    assert!(report.retrains >= 2, "retrains = {}", report.retrains);
    let stats = service.stats();
    assert_eq!(stats.retrains, report.retrains);
    // Each retrain invalidated the verdict cache.
    assert_eq!(service.query_server().epoch(), report.retrains as u64);
    // The streams now route through their own specialized models.
    for ds in &datasets {
        assert!(service
            .stream_model(ds.profile.stream_id)
            .unwrap()
            .descriptor
            .is_specialized());
        assert!(service
            .corpus()
            .stream_models
            .contains_key(&ds.profile.stream_id));
    }
    // Queries still serve cleanly over epochs from different models.
    let class = datasets[0].dominant_classes(1)[0];
    let outcomes = service.serve(&[QueryRequest::new(class)]).unwrap();
    assert!(!outcomes[0].frames.is_empty());
    // A GT retrain through the service bumps the epoch too.
    let epoch = service.query_server().epoch();
    service.retrain_ground_truth(GroundTruthCnn::with_flicker(0.0));
    assert_eq!(service.query_server().epoch(), epoch + 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Maintenance seals exactly what the next push would have sealed and
/// compacts without changing results.
#[test]
fn maintenance_seals_due_tails_and_compacts() {
    let secs = 60.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 128);
    let dir = test_dir("maintenance");
    let mut service = FocusService::create(
        &dir,
        ServiceConfig {
            // Tiny segments + an aggressive trigger so one run exercises
            // both halves of the maintenance tick.
            seal: SealPolicy::every_secs(5.0),
            small_segment_clusters: 1_000,
            compact_small_threshold: 6,
            compact_max_clusters: 10_000,
            ..config(5.0)
        },
        GroundTruthCnn::resnet152(),
    )
    .unwrap();
    for ds in &datasets {
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    service.advance(&frames).unwrap();
    let requests = request_mix(&datasets, secs);
    // Warm the verdict cache first, so the before/after waves are both
    // fully cached and byte-comparable including accounting.
    service.serve(&requests).unwrap();
    let before = service.serve(&requests).unwrap();

    // The final partial windows are pending; a full seal budget has been
    // reached for streams whose last frame landed on a boundary only. A
    // maintenance tick must at most seal what a next push would.
    let mut maintained = service.maintain().unwrap();
    if maintained.segments_folded == 0 {
        // Compaction may need a second tick once the seals landed.
        maintained = service.maintain().unwrap();
    }
    assert!(maintained.segments_folded > 0, "{maintained:?}");
    let after = service.serve(&requests).unwrap();
    assert_eq!(
        serde_json::to_string(&before).unwrap(),
        serde_json::to_string(&after).unwrap(),
        "maintenance must not change results"
    );
    let stats = service.stats();
    assert!(stats.compactions >= 1);
    assert!(stats.gpu.ticks >= 1);
    // Both cache tiers are live and visible through the service stats.
    assert!(stats.lru.capacity > 0);
    assert!(stats.lru.raw_capacity_bytes > 0);
    assert!(stats.lru.decoded_hits + stats.lru.raw_hits > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Restart-and-recover: the manifest plus the service sidecar restore the
/// sealed past; ingest resumes with non-colliding cluster keys.
#[test]
fn recover_resumes_ingest_and_serving() {
    let secs = 40.0;
    let datasets = workload(secs);
    let requests = request_mix(&datasets, secs);
    let dir = test_dir("recover");
    {
        let mut service =
            FocusService::create(&dir, config(8.0), GroundTruthCnn::resnet152()).unwrap();
        for ds in &datasets {
            service
                .register_stream(ds.profile.stream_id, ds.profile.fps)
                .unwrap();
        }
        for ds in &datasets {
            service.advance(&ds.frames[..ds.frames.len() / 2]).unwrap();
        }
        // Crash: the service is dropped; whatever was sealed survives,
        // the in-memory tail does not.
        assert!(!service.store().is_empty());
    }
    let (mut recovered, report) =
        FocusService::recover(&dir, config(8.0), GroundTruthCnn::resnet152()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let segments_after_recovery = recovered.store().len();
    assert!(segments_after_recovery > 0);

    // Sealed clusters answer immediately (their centroids came from the
    // sidecar)...
    let outcomes = recovered.serve(&requests).unwrap();
    assert!(!outcomes[0].frames.is_empty());
    // ...and ingest continues where the stream left off without key
    // collisions (the key-disjointness assertion in planning would panic).
    for ds in &datasets {
        recovered
            .advance(&ds.frames[ds.frames.len() / 2..])
            .unwrap();
    }
    recovered.seal_all().unwrap();
    assert!(recovered.store().len() > segments_after_recovery);
    let after = recovered.serve(&requests).unwrap();
    let more_frames: usize = after.iter().map(|o| o.frames.len()).sum();
    let fewer_frames: usize = outcomes.iter().map(|o| o.frames.len()).sum();
    assert!(more_frames > fewer_frames, "resumed ingest added results");

    // A missing sidecar is a structured error, not a panic.
    std::fs::remove_file(dir.join(SERVICE_STATE_FILE)).unwrap();
    assert!(FocusService::recover(&dir, config(8.0), GroundTruthCnn::resnet152()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed durable seal must not lose the drained time window: the
/// records are restored into the hot tail, stay servable, and the next
/// seal attempt persists them.
#[test]
fn failed_seal_restores_the_tail() {
    let datasets = workload(20.0);
    let requests = request_mix(&datasets, 20.0);
    // A seal budget beyond the recording: everything stays in the tail
    // until seal_all.
    let (mut service, dir) = service_with("seal_failure", 1e9, &datasets);
    for ds in &datasets {
        service.advance(&ds.frames).unwrap();
    }
    let before = service.serve(&requests).unwrap();
    assert!(service.store().is_empty());

    // Block the first centroid delta's path with a directory: the atomic
    // rename fails, the seal errors out.
    let blocker = dir.join("centroids-000000.json");
    std::fs::create_dir(&blocker).unwrap();
    assert!(service.seal_all().is_err());
    assert!(service.store().is_empty(), "nothing was half-sealed");

    // The drained records went back into the tail: identical answers.
    let after_failure = service.serve(&requests).unwrap();
    for (a, b) in before.iter().zip(after_failure.iter()) {
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.objects, b.objects);
    }

    // Clear the fault: the retry seals everything and answers still match.
    std::fs::remove_dir(&blocker).unwrap();
    let sealed = service.seal_all().unwrap();
    assert!(!sealed.is_empty());
    let after_retry = service.serve(&requests).unwrap();
    for (a, b) in before.iter().zip(after_retry.iter()) {
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.objects, b.objects);
    }
    // And the sealed store recovers cleanly.
    drop(service);
    let (recovered, report) =
        FocusService::recover(&dir, config(1e9), GroundTruthCnn::resnet152()).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let after_recovery = recovered.serve(&requests).unwrap();
    for (a, b) in before.iter().zip(after_recovery.iter()) {
        assert_eq!(a.frames, b.frames);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One operation of the proptest interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Advance the next `frames` interleaved frames.
    Advance(usize),
    /// Serve the standard request mix and check it against a
    /// seal-all-then-serve reference built at this cursor.
    Serve,
    /// Run a maintenance tick (seals due tails, may compact, drains one
    /// scheduler tick).
    Maintain,
    /// Install a different generic configuration on one stream (seals its
    /// model epoch into the tail and switches K / the ingest model).
    Install(usize),
}

/// Decodes a sampled `(kind, arg)` pair into an op: advancing twice as
/// often as the others, so interleavings make ingest progress.
fn decode_op((kind, arg): (usize, usize)) -> Op {
    match kind {
        0 | 1 => Op::Advance(arg),
        2 => Op::Serve,
        3 => Op::Maintain,
        _ => Op::Install(arg),
    }
}

/// The configuration `Op::Install(arg)` installs, and the stream it goes
/// to: `arg` picks the stream, the model and K.
fn installed(
    arg: usize,
    datasets: &[VideoDataset],
) -> (focus::video::StreamId, SelectedConfiguration) {
    let spec = if arg % 4 < 2 {
        ModelSpec::cheap_cnn_2()
    } else {
        ModelSpec::cheap_cnn_1()
    };
    let k = if arg % 8 < 4 { 4 } else { 10 };
    let selection = SelectedConfiguration {
        point: ConfigurationPoint {
            model: ModelChoice::Generic(spec),
            k,
            threshold: IngestParams::default().cluster_threshold,
            ingest_cost_norm: 0.0,
            query_latency_norm: 0.0,
            precision: 1.0,
            recall: 1.0,
            worst_precision: 1.0,
            worst_recall: 1.0,
        },
        model: IngestCnn::generic(spec),
        params: IngestParams {
            k,
            ..IngestParams::default()
        },
        met_targets: true,
    };
    (datasets[arg % datasets.len()].profile.stream_id, selection)
}

/// Applies one op's writes to `service` (`Serve` writes nothing).
fn apply(
    service: &mut FocusService,
    op: &Op,
    frames: &[Frame],
    cursor: &mut usize,
    datasets: &[VideoDataset],
) {
    match op {
        Op::Advance(n) => {
            let end = (*cursor + n).min(frames.len());
            service.advance(&frames[*cursor..end]).unwrap();
            *cursor = end;
        }
        Op::Install(arg) => {
            let (stream, selection) = installed(*arg, datasets);
            service.install_configuration(stream, &selection).unwrap();
        }
        Op::Maintain => {
            service.maintain().unwrap();
        }
        Op::Serve => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Satellite: for arbitrary interleavings of advance / serve / seal /
    /// compact / install-configuration, *every* serve — mid-run ones
    /// included, which is where a stale shared tail part would show — is
    /// byte-identical to a fresh service replaying the same writes up to
    /// that point, sealing everything and serving cold; and its
    /// GT-inference count never exceeds the uncached serial engine's.
    #[test]
    fn arbitrary_interleavings_serve_identically(
        (raw_ops, seal_secs, case) in (
            prop::collection::vec((0usize..5, 64usize..512), 4..12),
            4.0f64..15.0,
            0u64..1_000_000,
        )
    ) {
        let mut ops: Vec<Op> = raw_ops.into_iter().map(decode_op).collect();
        ops.push(Op::Serve);
        let secs = 30.0;
        let datasets = workload(secs);
        let frames = interleave(&datasets, 64);
        let requests = request_mix(&datasets, secs);
        let (mut live, live_dir) = service_with(&format!("prop_live_{case}"), seal_secs, &datasets);

        let mut cursor = 0usize;
        for (i, op) in ops.iter().enumerate() {
            apply(&mut live, op, &frames, &mut cursor, &datasets);
            if !matches!(op, Op::Serve) {
                continue;
            }
            let outcomes = live.serve(&requests).unwrap();

            let (mut reference, ref_dir) =
                service_with(&format!("prop_ref_{case}"), seal_secs, &datasets);
            let mut ref_cursor = 0usize;
            // The reference never maintains: maintenance must not change
            // an answer, so it is left to the live side alone.
            for op in ops[..i].iter().filter(|op| !matches!(op, Op::Maintain)) {
                apply(&mut reference, op, &frames, &mut ref_cursor, &datasets);
            }
            prop_assert_eq!(ref_cursor, cursor);
            reference.seal_all().unwrap();
            let expected = reference.serve(&requests).unwrap();
            // Accounting differs (the live run may have warmed its verdict
            // cache), but the answers must be identical.
            for (live_outcome, expected_outcome) in outcomes.iter().zip(expected.iter()) {
                prop_assert_eq!(&live_outcome.frames, &expected_outcome.frames);
                prop_assert_eq!(&live_outcome.objects, &expected_outcome.objects);
                prop_assert_eq!(live_outcome.matched_clusters, expected_outcome.matched_clusters);
                prop_assert_eq!(
                    live_outcome.confirmed_clusters,
                    expected_outcome.confirmed_clusters
                );
            }
            // Inference bound: a wave costs the live service at most what
            // it costs the serial engine (one inference per matched
            // cluster).
            prop_assert!(
                outcomes.iter().map(|o| o.centroid_inferences).sum::<usize>()
                    <= expected.iter().map(|o| o.matched_clusters).sum::<usize>()
            );
            std::fs::remove_dir_all(&ref_dir).ok();
        }
        std::fs::remove_dir_all(&live_dir).ok();
    }
}
