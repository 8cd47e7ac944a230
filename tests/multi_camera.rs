//! Integration test: multi-camera ingestion through the segmented driver
//! into one merged index, with camera- and time-restricted queries (the
//! paper's query formulation in §3 allows restricting a query to a subset
//! of cameras and a time range).

use focus::cnn::{GroundTruthCnn, ModelSpec};
use focus::core::{IngestCnn, IngestParams, QueryEngine, SealPolicy, SegmentedIngest};
use focus::index::{QueryFilter, SegmentStore};
use focus::runtime::{GpuClusterSpec, GpuMeter};
use focus::video::profile::profile_by_name;
use focus::video::{StreamId, VideoDataset};

#[test]
fn merged_index_answers_camera_and_time_restricted_queries() {
    let cameras = ["auburn_c", "city_a_d"];
    let datasets: Vec<VideoDataset> = cameras
        .iter()
        .map(|camera| VideoDataset::generate(profile_by_name(camera).unwrap(), 120.0))
        .collect();
    let stream_ids: Vec<StreamId> = datasets.iter().map(|d| d.profile.stream_id).collect();

    // One shard per camera, ingested in parallel and merged.
    let ingest = SegmentedIngest::new(
        IngestCnn::generic(ModelSpec::cheap_cnn_1()),
        IngestParams {
            k: 10,
            ..IngestParams::default()
        },
        SealPolicy::default(),
        cameras.len(),
    );
    let dir = std::env::temp_dir().join("focus_multi_camera");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SegmentStore::create(&dir).unwrap();
    let meter = GpuMeter::new();
    let combined = ingest
        .ingest_to_store(&datasets, &mut store, &meter)
        .unwrap()
        .combined;
    assert_eq!(combined.index.streams(), {
        let mut ids = stream_ids.clone();
        ids.sort();
        ids
    });

    let class = datasets[0].dominant_classes(1)[0];
    let query_engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(8));

    // Unrestricted query sees frames from both cameras.
    let all = query_engine.query(&combined, class, &QueryFilter::any(), &meter);
    assert!(!all.frames.is_empty());

    // Camera-restricted query only returns clusters of that camera.
    for stream in &stream_ids {
        let filter = QueryFilter::for_stream(*stream);
        let restricted = query_engine.query(&combined, class, &filter, &meter);
        assert!(restricted.matched_clusters <= all.matched_clusters);
        for record in combined.index.lookup(class, &filter) {
            assert_eq!(record.key.stream, *stream);
        }
    }

    // Time-restricted query to the first 30 seconds never returns clusters
    // that start after the window.
    let early = QueryFilter::any().with_time_range(0.0, 30.0);
    for record in combined.index.lookup(class, &early) {
        assert!(record.start_secs <= 30.0);
    }

    // Restricting to a camera that was never ingested returns nothing.
    let ghost = QueryFilter::for_stream(StreamId(999));
    let nothing = query_engine.query(&combined, class, &ghost, &meter);
    assert_eq!(nothing.matched_clusters, 0);
    assert!(nothing.frames.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
