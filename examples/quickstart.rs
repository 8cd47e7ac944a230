//! Quickstart: ingest one synthetic camera and query it for cars.
//!
//! This is the smallest end-to-end use of the public API:
//!
//! 1. generate a recording of a busy traffic intersection,
//! 2. ingest it with a cheap compressed CNN (building the top-K index),
//! 3. query for the frames that contain a car,
//! 4. verify the answer against the ground-truth CNN.
//!
//! Run with `cargo run --release --example quickstart`.

use focus::prelude::*;
use focus::video::ClassRegistry;

fn main() {
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
    //    traffic_investigation examples.)
    let meter = GpuMeter::new();
    let ingest = IngestEngine::new(
        IngestCnn::generic(focus::cnn::ModelSpec::cheap_cnn_1()),
        IngestParams {
            k: 60,
            ..IngestParams::default()
        },
    )
    .ingest(&dataset, &meter);
    println!(
        "ingested: {} objects classified ({} skipped by pixel differencing), {} clusters, {:.1} GPU-seconds",
        ingest.objects_classified,
        ingest.objects_total - ingest.objects_classified,
        ingest.clusters,
        ingest.gpu_cost.seconds()
    );

    // 3. Query: "find all frames with a car", on a 10-GPU cluster.
    let registry = ClassRegistry::new();
    let car = registry.find("car").expect("car is a known class");
    let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(10));
    let outcome = engine.query(&ingest, car, &QueryFilter::any(), &meter);
    println!(
        "query 'car': {} frames returned, {} clusters verified by the GT-CNN, latency {:.2}s",
        outcome.frames.len(),
        outcome.centroid_inferences,
        outcome.latency_secs
    );

    // 4. Evaluate against the ground-truth CNN (the paper's 1-second-segment
    //    smoothing rule).
    let labels = GroundTruthLabels::compute(&dataset, &GroundTruthCnn::resnet152());
    let report = labels.evaluate(car, &outcome.frames);
    println!(
        "accuracy vs ground truth: precision {:.1}%, recall {:.1}%",
        report.precision * 100.0,
        report.recall * 100.0
    );

    // How much work did we save compared to the brute-force baselines?
    let baselines = focus::core::BaselineCosts::compute(
        &dataset,
        &GroundTruthCnn::resnet152(),
        GpuClusterSpec::new(10),
    );
    println!(
        "vs baselines: ingest {:.0}x cheaper than Ingest-all, query {:.0}x faster than Query-all",
        baselines.ingest_cheaper_factor(ingest.gpu_cost),
        baselines.query_faster_factor(outcome.latency_secs)
    );
}
