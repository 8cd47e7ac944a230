//! Live service: one long-lived object ingesting and serving at once.
//!
//! The other examples run Focus as two batch phases; this one runs it the
//! way a deployment would — a [`FocusService`] that interleaves ingest
//! ticks with query waves:
//!
//! 1. register two cameras and **bootstrap** them with a generic cheap
//!    CNN while a GT-labelled sample accumulates,
//! 2. keep advancing until each stream **specializes** (retrains swap the
//!    stream's model; the GT verdicts cached so far stay valid),
//! 3. issue **live queries mid-ingest**: answers come from the union of
//!    durable segments and the in-memory hot tail, snapshot-consistently,
//! 4. **restart**: drop the service, recover it from the manifest + the
//!    service sidecar, and keep ingesting and serving.
//!
//! Run with `cargo run --release --example live_service`.

use focus::cnn::GroundTruthCnn;
use focus::core::service::{FocusService, ServiceConfig};
use focus::core::{QueryRequest, SealPolicy, StreamWorkerConfig};
use focus::index::QueryFilter;
use focus::video::profile::profile_by_name;
use focus::video::VideoDataset;

fn main() {
    let dir = std::env::temp_dir().join("focus_example_live_service");
    let _ = std::fs::remove_dir_all(&dir);

    // 1. A service with 30-second segments and specialization after one
    //    minute.
    let config = ServiceConfig {
        worker: StreamWorkerConfig {
            bootstrap_secs: 60.0,
            retrain_interval_secs: 90.0,
            ..StreamWorkerConfig::default()
        },
        seal: SealPolicy::every_secs(30.0),
        ..ServiceConfig::default()
    };
    let mut service =
        FocusService::create(&dir, config.clone(), GroundTruthCnn::resnet152()).expect("store");

    let datasets: Vec<VideoDataset> = ["auburn_c", "lausanne"]
        .iter()
        .map(|name| VideoDataset::generate(profile_by_name(name).unwrap(), 240.0))
        .collect();
    for ds in &datasets {
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    let class = datasets[0].dominant_classes(1)[0];
    println!(
        "live service over {} cameras, querying class {}\n",
        datasets.len(),
        class.0
    );

    // 2. Advance in ~20-second ticks, serving a query wave after each.
    let tick_frames = 600; // 20 s at 30 fps
    let mut cursors = vec![0usize; datasets.len()];
    let mut wave = 0usize;
    loop {
        let mut progressed = false;
        for (ds, cursor) in datasets.iter().zip(cursors.iter_mut()) {
            let end = (*cursor + tick_frames).min(ds.frames.len());
            if *cursor < end {
                let report = service.advance(&ds.frames[*cursor..end]).unwrap();
                if report.retrains > 0 {
                    println!(
                        "  stream {} specialized -> {} ({} cached verdicts kept)",
                        ds.profile.stream_id.0,
                        service
                            .stream_model(ds.profile.stream_id)
                            .unwrap()
                            .descriptor
                            .display_name(),
                        service.query_server().cache_stats().entries
                    );
                }
                *cursor = end;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
        service.maintain().unwrap();

        // 3. A query wave mid-ingest: the tail answers the newest window.
        wave += 1;
        let outcomes = service
            .serve(&[
                QueryRequest::new(class),
                QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(0.0, 30.0)),
            ])
            .unwrap();
        let stats = service.stats();
        println!(
            "wave {wave:2}: {:5} frames answered | {:2} segments | tail-hit {:4.1}% | \
             cache hit-rate {:4.1}% | GPU backlog i/q {:5.2}/{:5.2}s",
            outcomes[0].frames.len(),
            stats.segments,
            100.0 * stats.tail_hit_fraction(),
            100.0 * stats.cache.hit_rate(),
            stats.gpu.ingest_backlog_secs,
            stats.gpu.query_backlog_secs,
        );
    }

    let before = service.stats();
    println!(
        "\ningested {} objects into {} segments ({} sealed, {} compactions, {} retrains)",
        before.objects_indexed,
        before.segments,
        before.segments_sealed,
        before.compactions,
        before.retrains
    );

    // 4. Restart: drop the live object, recover from the manifest and the
    //    durable sidecar, and carry on.
    let final_wave = service.serve(&[QueryRequest::new(class)]).unwrap();
    drop(service);
    let (recovered, report) =
        FocusService::recover(&dir, config, GroundTruthCnn::resnet152()).expect("recovery");
    println!(
        "\nrecovered from manifest: {} segments, repairs clean = {}",
        recovered.store().len(),
        report.is_clean()
    );
    let after_restart = recovered.serve(&[QueryRequest::new(class)]).unwrap();
    println!(
        "query after restart: {} frames (pre-restart sealed view had {})",
        after_restart[0].frames.len(),
        final_wave[0].frames.len(),
    );
    assert!(!after_restart[0].frames.is_empty());

    std::fs::remove_dir_all(&dir).ok();
    println!("\ndone.");
}
