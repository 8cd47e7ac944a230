//! Quickstart: ingest one synthetic camera and query it for cars.
//!
//! This is the smallest end-to-end use of the public API:
//!
//! 1. generate a recording of a busy traffic intersection,
//! 2. ingest it into a `FocusService` with a cheap compressed CNN (building
//!    the top-K index, sealed into segments),
//! 3. query for the frames that contain a car,
//! 4. verify the answer against the ground-truth CNN.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use focus::index::{MemFs, SegmentError};
use focus::prelude::*;
use focus::video::ClassRegistry;

fn main() -> Result<(), SegmentError> {
    // 1. A five-minute recording of the `auburn_c` traffic camera profile.
    let profile = focus::video::profile::profile_by_name("auburn_c").expect("built-in profile");
    println!(
        "recording 5 minutes of {} ({})",
        profile.name, profile.description
    );
    let dataset = VideoDataset::generate(profile, 300.0);
    println!(
        "  {} frames, {} moving objects",
        dataset.frames.len(),
        dataset.object_count()
    );

    // 2. Ingest with a generic compressed CNN (ResNet18-class, ~8x cheaper
    //    than the ground truth) and a top-60 index — the operating point
    //    Figure 5 of the paper picks for this model. (Per-stream specialized
    //    models do even better; see the live_service and
    //    traffic_investigation examples.) The service keeps its store in
    //    memory here (`FocusService::create(dir, ..)` puts it on disk), and
    //    draws no ground-truth labels, so it never specializes and the model
    //    stays fixed.
    let gt = GroundTruthCnn::resnet152();
    let gpus = GpuClusterSpec::new(10);
    let config = ServiceConfig {
        worker: StreamWorkerConfig {
            params: IngestParams {
                k: 60,
                ..IngestParams::default()
            },
            bootstrap_model: focus::cnn::ModelSpec::cheap_cnn_1(),
            gt_label_fraction: 0.0,
            ..StreamWorkerConfig::default()
        },
        gpus,
        ..ServiceConfig::default()
    };
    let mut service = FocusService::create_with(
        Arc::new(MemFs::default()),
        "/quickstart",
        config,
        gt.clone(),
    )?;
    service.register_stream(dataset.profile.stream_id, dataset.profile.fps)?;
    service.advance(&dataset.frames)?;
    service.seal_all()?;
    let stats = service.stats();
    // The stream's ingest GPU seconds as its pipeline accrued them, one
    // inference at a time: the figures read the same number.
    let ingest_gpu = service
        .stream_pipeline(dataset.profile.stream_id)
        .expect("the stream is registered")
        .gpu_cost();
    println!(
        "ingested: {} objects into {} clusters in {} segments, {:.1} GPU-seconds",
        stats.objects_indexed,
        stats.store_clusters,
        stats.segments,
        ingest_gpu.seconds()
    );

    // 3. Query: "find all frames with a car", on a 10-GPU cluster.
    let registry = ClassRegistry::new();
    let car = registry.find("car").expect("car is a known class");
    let outcome = service.serve(&[QueryRequest::new(car)])?.remove(0);
    println!(
        "query 'car': {} frames returned, {} clusters verified by the GT-CNN, batched latency {:.2}s",
        outcome.frames.len(),
        outcome.centroid_inferences,
        outcome.latency_secs
    );

    // 4. Evaluate against the ground-truth CNN (the paper's 1-second-segment
    //    smoothing rule).
    let labels = GroundTruthLabels::compute(&dataset, &gt);
    let report = labels.evaluate(car, &outcome.frames);
    println!(
        "accuracy vs ground truth: precision {:.1}%, recall {:.1}%",
        report.precision * 100.0,
        report.recall * 100.0
    );

    // How much work did we save compared to the brute-force baselines?
    // Query-all is charged one un-batched GT inference per object, so the
    // query is compared in the same unit: one per verified cluster.
    let baselines = focus::core::BaselineCosts::compute(&dataset, &gt, gpus);
    let unbatched = gpus.latency_secs(gt.cost_per_inference() * outcome.matched_clusters);
    println!(
        "vs baselines: ingest {:.0}x cheaper than Ingest-all, query {:.0}x faster than Query-all",
        baselines.ingest_cheaper_factor(ingest_gpu),
        baselines.query_faster_factor(unbatched)
    );
    Ok(())
}
