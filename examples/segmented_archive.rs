//! Segmented archive: durable, time-partitioned index storage with pruned
//! time-window queries.
//!
//! A surveillance deployment ingests continuously for weeks; the index
//! cannot live as one in-memory map that dies with the process. This
//! example shows the storage subsystem end to end:
//!
//! 1. ingest two cameras, sealing the index into durable 30-second
//!    segments as ingest progresses,
//! 2. drop the service, recover it from nothing but the directory (the
//!    crash recovery path) and serve time-windowed queries that open only
//!    the intersecting segments,
//! 3. compact the small segments into larger ones and show the results
//!    are unchanged.
//!
//! Run with `cargo run --release --example segmented_archive`.

use focus::cnn::GroundTruthCnn;
use focus::core::{
    FocusService, IngestParams, QueryRequest, SealPolicy, ServiceConfig, StreamWorkerConfig,
};
use focus::index::QueryFilter;
use focus::runtime::GpuClusterSpec;
use focus::video::profile::profile_by_name;
use focus::video::VideoDataset;

fn main() {
    // An archive replay: the ingest model stays fixed (no bootstrap
    // specialization, no retraining), and small segments are compacted as
    // soon as a maintenance tick sees two of them.
    let config = ServiceConfig {
        worker: StreamWorkerConfig {
            params: IngestParams {
                k: 10,
                ..IngestParams::default()
            },
            bootstrap_secs: f64::INFINITY,
            retrain_interval_secs: f64::INFINITY,
            gt_label_fraction: 0.0,
            ..StreamWorkerConfig::default()
        },
        seal: SealPolicy::every_secs(30.0),
        gpus: GpuClusterSpec::new(4),
        small_segment_clusters: 1000,
        compact_small_threshold: 2,
        compact_max_clusters: 1000,
        ..ServiceConfig::default()
    };

    // 1. Four minutes from two cameras, sealed every 30 seconds.
    let datasets: Vec<VideoDataset> = ["auburn_c", "lausanne"]
        .iter()
        .map(|name| VideoDataset::generate(profile_by_name(name).unwrap(), 240.0))
        .collect();
    let dir = std::env::temp_dir().join("focus_example_segmented_archive");
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = FocusService::create(&dir, config.clone(), GroundTruthCnn::resnet152())
        .expect("fresh store");
    for dataset in &datasets {
        service
            .register_stream(dataset.profile.stream_id, dataset.profile.fps)
            .expect("register stream");
        service.advance(&dataset.frames).expect("ingest");
    }
    service.seal_all().expect("final seal");
    let stats = service.stats();
    println!(
        "ingested {} objects from {} cameras into {} durable segments ({} clusters, {:.1} GPU-s)",
        stats.objects_indexed,
        stats.streams,
        stats.segments,
        stats.store_clusters,
        stats.gpu.submitted_by_phase["ingest"],
    );
    for meta in service.store().segments().iter().take(3) {
        println!(
            "  {}  [{:6.1}s, {:6.1}s]  {} clusters  checksum {:#018x}",
            meta.file, meta.t_start, meta.t_end, meta.clusters, meta.checksum
        );
    }
    println!("  ... ({} more)", stats.segments.saturating_sub(3));

    // 2. Restart: the ingesting service is gone, and everything the serving
    //    side knows comes from the directory — manifest, segments (records
    //    and their centroids), stream registry. Serve a time-windowed
    //    investigation: "cars around the 2-minute mark".
    let class = datasets[0].dominant_classes(1)[0];
    drop(service);
    let (mut service, report) =
        FocusService::recover(&dir, config, GroundTruthCnn::resnet152()).expect("recover");
    assert!(report.is_clean(), "unexpected repairs: {report:?}");
    let recovered = service.stats();
    println!(
        "\nrecovered service: {} segments, {} clusters, manifest clean",
        recovered.segments, recovered.store_clusters
    );
    let window =
        QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(110.0, 130.0));
    let before = service
        .serve(std::slice::from_ref(&window))
        .expect("windowed serve");
    let served = service.stats();
    println!(
        "time-window query [110s, 130s] for {class}: {} frames from {} confirmed clusters",
        before[0].frames.len(),
        before[0].confirmed_clusters
    );
    println!(
        "  opened {} of {} segments (pruned {})",
        served.io.segments_opened(),
        served.segments,
        served.segments - served.io.segments_opened(),
    );
    // Recovery read and verified every segment file whole, checking each
    // sealed cluster against its centroid, and left the newest segments'
    // blocks decoded; the query's block fetches are its own account.
    let io = served.io;
    println!(
        "  cold: recovery read {} segment files; warm: the query opened {} segments \
         ({} cached, {} cold) and fetched {} blocks ({} decoded, {} raw, {} from disk)",
        recovered.segments,
        io.segments_opened(),
        io.cache_hits,
        io.cold_loads,
        io.block_hits + io.block_raw_hits + io.blocks_read,
        io.block_hits,
        io.block_raw_hits,
        io.blocks_read,
    );

    // 3. Compact: a maintenance tick folds the 30-second segments into few
    //    large ones; the query answer does not change.
    let folded = service.maintain().expect("maintenance").segments_folded;
    println!(
        "\ncompacted: folded {folded} segments away, {} remain",
        service.store().len()
    );
    let after = service
        .serve(std::slice::from_ref(&window))
        .expect("post-compaction serve");
    assert_eq!(before[0].frames, after[0].frames);
    assert_eq!(before[0].objects, after[0].objects);
    println!(
        "post-compaction query results are identical — storage layout is invisible to queries"
    );

    std::fs::remove_dir_all(&dir).ok();
}
