//! Traffic investigation: the paper's motivating scenario.
//!
//! "Following a theft, the police would query a few days of video from a
//! handful of surveillance cameras" (§1). This example ingests several
//! cameras into one combined index, then answers a time-restricted,
//! camera-restricted query: *which frames from the two downtown cameras
//! contain a truck between minute 2 and minute 6?*
//!
//! It demonstrates: per-stream parameter selection, index merging across
//! cameras, camera/time filters, and the dynamic-Kx knob for a fast first
//! look at the results.
//!
//! Run with `cargo run --release --example traffic_investigation`.

use std::collections::HashMap;

use focus::core::{AccuracyTarget, IngestOutput, TradeoffPolicy};
use focus::prelude::*;
use focus::video::ClassRegistry;

/// Ingest one camera with the configuration chosen by Focus's parameter
/// selection (Balance policy).
fn ingest_camera(name: &str, duration_secs: f64, meter: &GpuMeter) -> (VideoDataset, IngestOutput) {
    let profile = focus::video::profile::profile_by_name(name).expect("built-in profile");
    let dataset = VideoDataset::generate(profile, duration_secs);
    let runner = ExperimentRunner::new(ExperimentConfig {
        duration_secs,
        sample_secs: 60.0,
        target: AccuracyTarget::both(0.9),
        policy: TradeoffPolicy::Balance,
        sweep: SweepSpace::quick(),
        ..ExperimentConfig::quick()
    });
    let (selection, chosen) = runner.select_parameters(&dataset, &GroundTruthCnn::resnet152());
    // Fall back to the most accurate configuration when the quick sweep has
    // nothing meeting the targets on this camera's sample — the same
    // best-effort rule the experiment runner applies.
    let chosen = chosen
        .or_else(|| selection.choose_or_best_effort(TradeoffPolicy::Balance))
        .expect("parameter selection evaluated at least one configuration");
    println!(
        "  {name}: chose {} with K={} T={:.1}{}",
        chosen.point.model.display_name(),
        chosen.point.k,
        chosen.point.threshold,
        if chosen.met_targets {
            ""
        } else {
            " (best effort: accuracy targets not met on the sample)"
        }
    );
    let output = IngestEngine::new(chosen.model, chosen.params).ingest(&dataset, meter);
    (dataset, output)
}

fn main() {
    let cameras = ["auburn_c", "city_a_d", "jacksonh"];
    let duration = 480.0;
    let meter = GpuMeter::new();

    println!(
        "ingesting {} cameras ({duration} seconds each):",
        cameras.len()
    );
    let mut ingested: HashMap<&str, (VideoDataset, IngestOutput)> = HashMap::new();
    for camera in cameras {
        let (dataset, output) = ingest_camera(camera, duration, &meter);
        ingested.insert(camera, (dataset, output));
    }
    println!(
        "total ingest GPU time: {:.1}s across {} cameras\n",
        meter.phase("ingest").seconds(),
        cameras.len()
    );

    // The investigation: trucks seen by the two downtown cameras between
    // minute 2 and minute 6.
    let registry = ClassRegistry::new();
    let truck = registry.find("truck").expect("truck is a known class");
    let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(10));
    let window = (120.0, 360.0);
    println!(
        "investigation: trucks on auburn_c and city_a_d between {}s and {}s",
        window.0, window.1
    );

    for camera in ["auburn_c", "city_a_d"] {
        let (dataset, output) = &ingested[camera];
        let filter =
            QueryFilter::for_stream(dataset.profile.stream_id).with_time_range(window.0, window.1);

        // First pass: a low dynamic Kx for a quick look (§5 of the paper).
        let request = QueryRequest::new(truck).with_filter(filter.clone().with_kx(2));
        let quick_look = server.serve(output, &[request], &meter).remove(0);
        // Full pass: the complete stored K for the final answer. The quick
        // look's verdicts are cached, so it verifies only the rest.
        let request = QueryRequest::new(truck).with_filter(filter);
        let full = server.serve(output, &[request], &meter).remove(0);

        let labels = GroundTruthLabels::compute(dataset, &GroundTruthCnn::resnet152());
        let precision = labels.evaluate(truck, &full.frames).precision;
        // Recall over the whole recording is diluted by out-of-window
        // segments: score against the window's one-second segments only.
        let mut in_window = labels.truth_segments(truck);
        in_window.retain(|second| (window.0..window.1).contains(&(*second as f64)));
        let recall = labels.evaluate_against(&in_window, &full.frames).recall;
        println!(
            "  {camera}: quick look {} frames in {:.2}s; full answer {} frames in {:.2}s more \
             (precision {:.0}%, recall of in-window truth {:.0}%)",
            quick_look.frames.len(),
            quick_look.latency_secs,
            full.frames.len(),
            full.latency_secs,
            precision * 100.0,
            recall * 100.0
        );
        if let (Some(first), Some(last)) = (full.frames.first(), full.frames.last()) {
            println!(
                "    first sighting at {:.1}s, last at {:.1}s",
                first.timestamp_secs(dataset.profile.fps),
                last.timestamp_secs(dataset.profile.fps)
            );
        }
    }

    println!(
        "\ntotal query GPU time: {:.2}s (the GT-CNN touched only cluster centroids)",
        meter.phase("query").seconds()
    );
}
