//! Traffic investigation: the paper's motivating scenario.
//!
//! "Following a theft, the police would query a few days of video from a
//! handful of surveillance cameras" (§1). This example ingests several
//! cameras into one service, then answers a time-restricted,
//! camera-restricted query: *which frames from the two downtown cameras
//! contain a truck between minute 2 and minute 6?*
//!
//! It demonstrates: per-stream parameter selection installed on a live
//! service, one store shared by every camera, camera/time filters, and the
//! dynamic-Kx knob for a fast first look at the results.
//!
//! Run with `cargo run --release --example traffic_investigation`.

use std::collections::HashMap;
use std::sync::Arc;

use focus::core::{AccuracyTarget, TradeoffPolicy};
use focus::index::{MemFs, SegmentError};
use focus::prelude::*;
use focus::video::ClassRegistry;

/// Ingest one camera into `service` with the configuration chosen by
/// Focus's parameter selection (Balance policy).
fn ingest_camera(
    service: &mut FocusService,
    name: &str,
    duration_secs: f64,
) -> Result<VideoDataset, SegmentError> {
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
    let stream = dataset.profile.stream_id;
    service.register_stream(stream, dataset.profile.fps)?;
    service.install_configuration(stream, &chosen)?;
    service.advance(&dataset.frames)?;
    Ok(dataset)
}

fn main() -> Result<(), SegmentError> {
    let cameras = ["auburn_c", "city_a_d", "jacksonh"];
    let duration = 480.0;

    // One service for every camera, its store in memory here
    // (`FocusService::create(dir, ..)` puts it on disk). It draws no
    // ground-truth labels, so the configurations installed below stay
    // fixed.
    let config = ServiceConfig {
        worker: StreamWorkerConfig {
            gt_label_fraction: 0.0,
            ..StreamWorkerConfig::default()
        },
        gpus: GpuClusterSpec::new(10),
        ..ServiceConfig::default()
    };
    let gt = GroundTruthCnn::resnet152();
    let mut service =
        FocusService::create_with(Arc::new(MemFs::default()), "/investigation", config, gt)?;

    println!(
        "ingesting {} cameras ({duration} seconds each):",
        cameras.len()
    );
    let mut ingested: HashMap<&str, VideoDataset> = HashMap::new();
    for camera in cameras {
        ingested.insert(camera, ingest_camera(&mut service, camera, duration)?);
    }
    service.seal_all()?;
    let stats = service.stats();
    println!(
        "total ingest GPU time: {:.1}s across {} cameras, {} segments\n",
        stats.gpu.submitted_by_phase["ingest"],
        cameras.len(),
        stats.segments
    );

    // The investigation: trucks seen by the two downtown cameras between
    // minute 2 and minute 6.
    let registry = ClassRegistry::new();
    let truck = registry.find("truck").expect("truck is a known class");
    let window = (120.0, 360.0);
    println!(
        "investigation: trucks on auburn_c and city_a_d between {}s and {}s",
        window.0, window.1
    );

    for camera in ["auburn_c", "city_a_d"] {
        let dataset = &ingested[camera];
        let filter =
            QueryFilter::for_stream(dataset.profile.stream_id).with_time_range(window.0, window.1);

        // First pass: a low dynamic Kx for a quick look (§5 of the paper).
        let request = QueryRequest::new(truck).with_filter(filter.clone().with_kx(2));
        let quick_look = service.serve(&[request])?.remove(0);
        // Full pass: the complete stored K for the final answer. The quick
        // look's verdicts are cached, so it verifies only the rest.
        let request = QueryRequest::new(truck).with_filter(filter);
        let full = service.serve(&[request])?.remove(0);

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
        service.stats().gpu.submitted_by_phase["query"]
    );
    Ok(())
}
