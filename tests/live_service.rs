//! Integration tests for the live [`FocusService`]: a query issued
//! mid-ingest must return results byte-identical to sealing every pending
//! record first and then querying, while opening no more segments than the
//! pruned segmented path and never re-verifying a centroid already cached
//! for the current ground-truth epoch.

mod common;

use proptest::prelude::*;

use common::{
    cold_serve, config, interleave, mem_fs, payload_json, reference_output, reference_serve,
    service_at, test_dir, workload, MEM_DIR,
};
use focus::cnn::{GpuCost, GroundTruthCnn, ModelSpec};
use focus::core::service::{FocusService, ServiceConfig, SERVICE_STATE_FILE};
use focus::core::{
    AdaptationConfig, ConfigurationPoint, FramePipeline, IngestCnn, IngestParams, ModelChoice,
    QueryRequest, SealPolicy, SelectedConfiguration, StreamWorkerConfig,
};
use focus::index::{persist, Fs, OsFs, QueryFilter, TopKIndex};
use focus::video::profile::profile_by_name;
use focus::video::{ClassId, Frame, VideoDataset, NUM_CLASSES};

use std::path::Path;
use std::sync::Arc;

/// [`service_at`] on a fresh in-memory filesystem.
fn service_with(seal_secs: f64, datasets: &[VideoDataset]) -> FocusService {
    service_at(mem_fs(), MEM_DIR, seal_secs, datasets)
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
        let mut live = service_with(15.0, &datasets);
        live.advance(&frames[..cut]).unwrap();
        let mid_ingest = live.serve(&requests).unwrap();

        // Twin: identical history, but every pending record sealed first.
        let mut sealed = service_with(15.0, &datasets);
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
    }
}

/// The service's GT work is bounded by the uncached serial reference — each
/// request served alone by a cold server: batched, deduplicated, cached
/// verification can only do fewer inferences.
#[test]
fn gt_inferences_never_exceed_the_serial_engine() {
    let secs = 45.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 32);
    let requests = request_mix(&datasets, secs);
    let mut service = service_with(12.0, &datasets);
    service.advance(&frames[..frames.len() * 2 / 3]).unwrap();

    let outcomes = service.serve(&requests).unwrap();
    let service_inferences: usize = outcomes.iter().map(|o| o.centroid_inferences).sum();

    // Serial reference over the same corpus: merged segments + tail.
    let reference = reference_output(&service);
    let mut serial_inferences = 0;
    for (request, outcome) in requests.iter().zip(outcomes.iter()) {
        let serial = cold_serve(&reference, request);
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
}

/// The live driver against a bare pipeline, on a two-camera workload: with
/// the model fixed (no bootstrap, no retrain, no GT labelling) and no seal
/// before the end of the recording, frame-by-frame `advance` runs the same
/// shared pipeline as one `FramePipeline` replay per stream, so the merged
/// index is byte-identical, every object is indexed exactly once, every
/// centroid is retained and the ingest GPU seconds are what the replays
/// accrued.
#[test]
fn live_ingest_matches_batch_ingest_for_a_fixed_model() {
    let datasets: Vec<VideoDataset> = ["lausanne", "auburn_c"]
        .iter()
        .map(|n| VideoDataset::generate(profile_by_name(n).unwrap(), 90.0))
        .collect();
    let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
    let mut batch_index = TopKIndex::new();
    let mut batch_costs = Vec::new();
    for dataset in &datasets {
        let profile = &dataset.profile;
        let mut pipeline =
            FramePipeline::new(profile.stream_id, profile.fps, config(1e9).worker.params);
        for frame in &dataset.frames {
            pipeline.push_frame(frame, model.classifier.as_ref());
        }
        let index = pipeline.seal_segment();
        assert_eq!(pipeline.stats().objects, dataset.object_count());
        batch_costs.push(pipeline.gpu_cost());
        assert_eq!(batch_index.merge(index), 0);
    }

    let mut service = service_with(1e9, &datasets);
    for (i, dataset) in datasets.iter().enumerate() {
        for frame in &dataset.frames {
            let report = service.advance(std::slice::from_ref(frame)).unwrap();
            assert_eq!((report.segments_sealed, report.retrains), (0, 0));
        }
        if i == 0 {
            // One stream in: on this recording the scheduler's per-frame
            // charges add up, bit for bit, to what the replay accrued per
            // inference. The two sums round differently in general.
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
    let batch_secs = batch_costs.iter().copied().sum::<GpuCost>().seconds();
    assert!((ingest_secs - batch_secs).abs() < 1e-9 * ingest_secs);
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
}

/// A service whose streams specialize behind it: bootstrap ends at 30 s of
/// stream time and each stream retrains every 45 s after that, so a 120 s
/// recording retrains every stream at least twice.
fn retraining_service(datasets: &[VideoDataset]) -> FocusService {
    let mut service = FocusService::create_with(
        mem_fs(),
        MEM_DIR,
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
    for ds in datasets {
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    service
}

/// A verdict lives as long as the ground-truth model that produced it.
/// Retrains swap each stream's routing model behind the service and leave
/// the verdict cache alone, so every dominant class served before the
/// first retrain and again after several costs no GT inference the second
/// time and answers exactly as a cold reference does. Only a ground-truth
/// retrain bumps the epoch, and a query then re-verifies.
#[test]
fn verdicts_survive_ingest_retrains_until_the_ground_truth_changes() {
    let datasets = workload(120.0);
    let mut service = retraining_service(&datasets);
    let (before, after): (Vec<Frame>, Vec<Frame>) = interleave(&datasets, 64)
        .into_iter()
        .partition(|f| f.timestamp_secs < 25.0);
    // The window closes before the first retrain's frames, so no record
    // that opens later can enter it: both serves plan the same candidates.
    let window = QueryFilter::any().with_time_range(0.0, 20.0);
    let mut classes: Vec<ClassId> = datasets
        .iter()
        .flat_map(|ds| ds.dominant_classes(2))
        .collect();
    classes.sort();
    classes.dedup();
    let requests: Vec<QueryRequest> = classes
        .iter()
        .map(|&class| QueryRequest::new(class).with_filter(window.clone()))
        .collect();

    service.advance(&before).unwrap();
    assert_eq!(
        service.stats().retrains,
        0,
        "the first serve precedes every retrain"
    );
    let first = service.serve(&requests).unwrap();
    assert!(first.iter().any(|o| o.centroid_inferences > 0));
    assert!(first.iter().any(|o| !o.frames.is_empty()));
    let cached = service.query_server().cache_stats();
    assert_eq!(cached.epoch, 0);

    let report = service.advance(&after).unwrap();
    assert!(report.retrains >= 2, "retrains = {}", report.retrains);
    assert_eq!(service.stats().retrains, report.retrains);
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
    // No retrain touched the cache.
    let kept = service.query_server().cache_stats();
    assert_eq!(kept.epoch, cached.epoch, "retrains leave the epoch alone");
    assert_eq!(kept.entries, cached.entries, "retrains drop no verdict");

    let again = service.serve(&requests).unwrap();
    let reference = reference_serve(&reference_output(&service), &requests);
    for ((request, outcome), expected) in requests.iter().zip(&again).zip(&reference) {
        assert_eq!(
            outcome.centroid_inferences, 0,
            "class {:?} was re-verified after a retrain",
            request.class
        );
        assert_eq!(payload_json(outcome), payload_json(expected));
    }

    // A GT retrain through the service bumps the epoch, and the same
    // query re-verifies under the new model.
    service.retrain_ground_truth(GroundTruthCnn::with_flicker(0.0));
    assert_eq!(service.query_server().epoch(), cached.epoch + 1);
    let relabelled = service.serve(&requests[..1]).unwrap();
    assert!(relabelled[0].centroid_inferences > 0);
}

/// The verdict cache's written bound: with retrains no longer emptying it,
/// it still holds at most one verdict per centroid the corpus can
/// resolve, and a sweep that repeats every query adds nothing.
#[test]
fn the_verdict_cache_holds_at_most_one_verdict_per_centroid() {
    let datasets = workload(120.0);
    let mut service = retraining_service(&datasets);
    let frames = interleave(&datasets, 64);
    // Serve between the retrains too, so verdicts cached under every model
    // generation (and for tail centroids not yet sealed) reach the end.
    let mut retrains = 0;
    for chunk in frames.chunks(frames.len() / 4 + 1) {
        retrains += service.advance(chunk).unwrap().retrains;
        let requests: Vec<QueryRequest> = datasets[0]
            .dominant_classes(3)
            .into_iter()
            .map(QueryRequest::new)
            .collect();
        service.serve(&requests).unwrap();
    }
    assert!(retrains >= 2, "retrains = {retrains}");
    service.seal_all().unwrap();

    // Every class any sealed record posts, over the whole timeline.
    let mut classes: Vec<ClassId> = service
        .store()
        .merged_index()
        .unwrap()
        .clusters()
        .flat_map(|record| record.top_k_classes.iter().copied())
        .collect();
    classes.sort();
    classes.dedup();
    let requests: Vec<QueryRequest> = classes.into_iter().map(QueryRequest::new).collect();
    service.serve(&requests).unwrap();
    let swept = service.query_server().cache_stats();
    assert!(
        swept.entries <= service.corpus().centroids.len(),
        "{} verdicts for {} centroids",
        swept.entries,
        service.corpus().centroids.len()
    );
    let again = service.serve(&requests).unwrap();
    assert_eq!(
        again.iter().map(|o| o.centroid_inferences).sum::<usize>(),
        0
    );
    assert_eq!(
        service.query_server().cache_stats().entries,
        swept.entries,
        "a repeated sweep adds no entries"
    );
}

/// Maintenance seals exactly what the next push would have sealed and
/// compacts without changing results.
#[test]
fn maintenance_seals_due_tails_and_compacts() {
    let secs = 60.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 128);
    let mut service = FocusService::create_with(
        mem_fs(),
        MEM_DIR,
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
    assert!(stats.lru.decoded_capacity_bytes > 0);
    assert!(stats.lru.raw_capacity_bytes > 0);
    assert!(stats.io.block_hits + stats.io.block_raw_hits > 0);
}

/// Restart-and-recover: the manifest plus the service sidecar restore the
/// sealed past; ingest resumes with non-colliding cluster keys.
#[test]
fn recover_resumes_ingest_and_serving() {
    let secs = 40.0;
    let datasets = workload(secs);
    let requests = request_mix(&datasets, secs);
    let fs = mem_fs();
    let recover = |fs: Arc<dyn Fs>| {
        FocusService::recover_with(fs, MEM_DIR, config(8.0), GroundTruthCnn::resnet152())
    };
    {
        let gt = GroundTruthCnn::resnet152();
        let mut service = FocusService::create_with(fs.clone(), MEM_DIR, config(8.0), gt).unwrap();
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
    let (mut recovered, report) = recover(fs.clone()).unwrap();
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
    fs.remove(&Path::new(MEM_DIR).join(SERVICE_STATE_FILE))
        .unwrap();
    assert!(recover(fs).is_err());
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
    let dir = test_dir("seal_failure");
    let mut service = service_at(Arc::new(OsFs), &dir, 1e9, &datasets);
    for ds in &datasets {
        service.advance(&ds.frames).unwrap();
    }
    let before = service.serve(&requests).unwrap();
    assert!(service.store().is_empty());

    // Block the next segment file's path with a directory: the atomic
    // rename fails, the seal errors out.
    let blocker = dir.join("seg-000000.bin");
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

/// A retrain that comes due on a seal boundary whose durable write fails:
/// the stream has one model, so its query routing is still the model that
/// indexes its records after the failed `advance`; its unsealed watermark
/// stays on the failed segment's first frame until the resumed seal
/// succeeds; and once the fault is cleared and ingest resumes at the next
/// frame every class answers as on a twin whose seal succeeded.
#[test]
fn a_failed_seal_on_the_retrain_frame_keeps_routing_on_the_live_model() {
    let ds = VideoDataset::generate(profile_by_name("jacksonh").unwrap(), 60.0);
    let stream = ds.profile.stream_id;
    let config = ServiceConfig {
        worker: StreamWorkerConfig {
            bootstrap_secs: 20.0,
            ls: 2,
            ..StreamWorkerConfig::default()
        },
        seal: SealPolicy::every_secs(20.0),
        ..ServiceConfig::default()
    };
    let open = |name: &str| {
        let dir = test_dir(name);
        let mut service =
            FocusService::create(&dir, config.clone(), GroundTruthCnn::resnet152()).unwrap();
        service.register_stream(stream, ds.profile.fps).unwrap();
        (service, dir)
    };
    let (mut twin, twin_dir) = open("retrain_seal_twin");
    twin.advance(&ds.frames).unwrap();

    // Block the first segment file's path with a directory: the first seal
    // boundary, which is also the retrain frame, fails its durable write.
    let (mut service, dir) = open("retrain_seal_fault");
    let blocker = dir.join("seg-000000.bin");
    std::fs::create_dir(&blocker).unwrap();
    assert!(service.advance(&ds.frames).is_err());
    assert!(service.store().is_empty(), "nothing was half-sealed");
    let stats = service.stats();
    assert_eq!(stats.retrains, 1, "the retrain landed on the failing frame");
    let live = service.stream_model(stream).unwrap();
    assert!(live.descriptor.is_specialized());
    let stale: Vec<ClassId> = (0..NUM_CLASSES)
        .map(ClassId)
        .filter(|&class| service.corpus().route(stream, class) != live.effective_query_class(class))
        .collect();
    assert!(
        stale.is_empty(),
        "{} classes route differently from the live model",
        stale.len()
    );
    // The unsealed watermark still names the failed segment's first frame,
    // so a restart or a failover would replay the restored window.
    let failed_from = Some(ds.frames[0].frame_id);
    assert_eq!(service.unsealed_from_by_stream()[&stream], failed_from);

    // Clear the fault and resume at the frame after the failing one.
    std::fs::remove_dir(&blocker).unwrap();
    service
        .advance(&ds.frames[stats.frames_ingested..])
        .unwrap();
    // The resumed seal succeeded: the watermark moved past the failed
    // segment, to where the twin's stands.
    let unsealed_from = service.unsealed_from_by_stream()[&stream];
    assert!(unsealed_from > failed_from, "{unsealed_from:?}");
    assert_eq!(unsealed_from, twin.unsealed_from_by_stream()[&stream]);
    let requests: Vec<QueryRequest> = (0..NUM_CLASSES)
        .map(|class| QueryRequest::new(ClassId(class)))
        .collect();
    let expected = twin.serve(&requests).unwrap();
    let got = service.serve(&requests).unwrap();
    for (a, b) in expected.iter().zip(&got) {
        assert_eq!(a.frames, b.frames, "class {:?}", a.class);
        assert_eq!(a.objects, b.objects, "class {:?}", a.class);
        assert_eq!(
            a.matched_clusters, b.matched_clusters,
            "class {:?}",
            a.class
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
}

/// The labellers read the query server's ground-truth model: a GT retrain
/// made through `query_server()` relabels the specialization sample and
/// the audit window exactly as a service created with that model does.
#[test]
fn a_ground_truth_retrain_through_the_query_server_relabels_the_samples() {
    let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
    let config = ServiceConfig {
        worker: StreamWorkerConfig {
            bootstrap_secs: 20.0,
            ..StreamWorkerConfig::default()
        },
        adaptation: Some(AdaptationConfig {
            audit_fraction: 0.05,
            ..AdaptationConfig::default()
        }),
        ..ServiceConfig::default()
    };
    let samples = |created_with: GroundTruthCnn, retrain_to: Option<GroundTruthCnn>| {
        let mut service =
            FocusService::create_with(mem_fs(), MEM_DIR, config.clone(), created_with).unwrap();
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
        if let Some(gt) = retrain_to {
            service.query_server().retrain_ground_truth(gt);
        }
        service.advance(&ds.frames).unwrap();
        let controller = service.stream_controller(ds.profile.stream_id).unwrap();
        let specialization = controller.reference().cloned();
        let audit = controller.recent_histogram();
        (specialization, audit)
    };
    let flickering = GroundTruthCnn::with_flicker(1.0);
    let retrained = samples(GroundTruthCnn::resnet152(), Some(flickering.clone()));
    let created = samples(flickering, None);
    let untouched = samples(GroundTruthCnn::resnet152(), None);
    assert!(retrained.0.is_some(), "the stream specialized");
    assert!(!retrained.1.is_empty(), "the controller audited");
    assert_eq!(retrained, created);
    assert_ne!(retrained.0, untouched.0);
    assert_ne!(retrained.1, untouched.1);
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
    /// GT-inference count never exceeds one inference per matched cluster,
    /// what an uncached serve of each request costs.
    #[test]
    fn arbitrary_interleavings_serve_identically(
        (raw_ops, seal_secs) in (
            prop::collection::vec((0usize..5, 64usize..512), 4..12),
            4.0f64..15.0,
        )
    ) {
        let mut ops: Vec<Op> = raw_ops.into_iter().map(decode_op).collect();
        ops.push(Op::Serve);
        let secs = 30.0;
        let datasets = workload(secs);
        let frames = interleave(&datasets, 64);
        let requests = request_mix(&datasets, secs);
        let mut live = service_with(seal_secs, &datasets);

        let mut cursor = 0usize;
        for (i, op) in ops.iter().enumerate() {
            apply(&mut live, op, &frames, &mut cursor, &datasets);
            if !matches!(op, Op::Serve) {
                continue;
            }
            let outcomes = live.serve(&requests).unwrap();

            let mut reference = service_with(seal_secs, &datasets);
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
            // it costs uncached (one inference per matched cluster).
            prop_assert!(
                outcomes.iter().map(|o| o.centroid_inferences).sum::<usize>()
                    <= expected.iter().map(|o| o.matched_clusters).sum::<usize>()
            );
        }
    }
}
