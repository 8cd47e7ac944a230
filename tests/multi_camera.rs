//! Integration test: multi-camera ingestion through the live service into
//! one durable store, recovered and answered with camera- and
//! time-restricted queries (the paper's query formulation in §3 allows
//! restricting a query to a subset of cameras and a time range).

mod common;

use common::{interleave, reference_output, service_at};
use focus::cnn::GroundTruthCnn;
use focus::core::{FocusService, QueryEngine, QueryRequest};
use focus::index::QueryFilter;
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

    // Both cameras arrive interleaved at one service, sealed once a minute;
    // the restart reads back nothing but the directory.
    let seal_secs = 60.0;
    let dir = std::env::temp_dir().join("focus_multi_camera");
    let _ = std::fs::remove_dir_all(&dir);
    let mut service = service_at(&dir, seal_secs, &datasets);
    service.advance(&interleave(&datasets, 64)).unwrap();
    service.seal_all().unwrap();
    let combined = reference_output(&service);
    drop(service);
    let (service, report) =
        FocusService::recover(&dir, common::config(seal_secs), GroundTruthCnn::resnet152())
            .unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(combined.index.streams(), {
        let mut ids = stream_ids.clone();
        ids.sort();
        ids
    });

    let class = datasets[0].dominant_classes(1)[0];
    let query_engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(8));
    let meter = GpuMeter::new();
    let serve = |filter: &QueryFilter| {
        let request = QueryRequest::new(class).with_filter(filter.clone());
        service.serve(&[request]).unwrap().remove(0)
    };

    // Unrestricted query sees frames from both cameras.
    let all = query_engine.query(&combined, class, &QueryFilter::any(), &meter);
    assert!(!all.frames.is_empty());
    assert_eq!(serve(&QueryFilter::any()).frames, all.frames);

    // Camera-restricted query only returns clusters of that camera.
    for stream in &stream_ids {
        let filter = QueryFilter::for_stream(*stream);
        let restricted = query_engine.query(&combined, class, &filter, &meter);
        assert!(restricted.matched_clusters <= all.matched_clusters);
        assert_eq!(serve(&filter).frames, restricted.frames);
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

    // Restricting to a camera that was never ingested returns nothing and
    // opens nothing.
    let ghost = QueryFilter::for_stream(StreamId(999));
    let nothing = serve(&ghost);
    assert_eq!(nothing.matched_clusters, 0);
    assert!(nothing.frames.is_empty());
    let planned = service
        .corpus()
        .plan_with_tail(&QueryRequest::new(class).with_filter(ghost), None)
        .unwrap();
    assert_eq!(planned.access.segments_opened(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
