//! End-to-end guarantees of the concurrent query-serving subsystem:
//! byte-identical results to the serial engine, strictly fewer GT-CNN
//! inferences on overlapping workloads, and epoch-keyed cache invalidation.

use focus::cnn::{GroundTruthCnn, ModelSpec};
use focus::core::{IngestCnn, IngestEngine, IngestParams, QueryEngine, QueryRequest, QueryServer};
use focus::index::QueryFilter;
use focus::runtime::{GpuClusterSpec, GpuMeter};
use focus::video::profile::profile_by_name;
use focus::video::{ClassId, VideoDataset};

fn ingest(duration_secs: f64, k: usize) -> (VideoDataset, focus::core::IngestOutput) {
    let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), duration_secs);
    let out = IngestEngine::new(
        IngestCnn::generic(ModelSpec::cheap_cnn_1()),
        IngestParams {
            k,
            ..IngestParams::default()
        },
    )
    .ingest(&ds, &GpuMeter::new());
    (ds, out)
}

/// An overlapping query workload: repeated classes, narrowing filters, and
/// time windows that share clusters with the unrestricted queries.
fn overlapping_workload(ds: &VideoDataset) -> Vec<QueryRequest> {
    let classes = ds.dominant_classes(3);
    let mut requests = Vec::new();
    for class in &classes {
        requests.push(QueryRequest::new(*class));
    }
    // Overlap: the same classes again, restricted — every candidate these
    // match was already verified for the unrestricted queries.
    requests.push(QueryRequest::new(classes[0]).with_filter(QueryFilter::any().with_kx(2)));
    requests.push(
        QueryRequest::new(classes[1]).with_filter(QueryFilter::any().with_time_range(0.0, 60.0)),
    );
    // And an exact repeat.
    requests.push(QueryRequest::new(classes[0]));
    requests
}

#[test]
fn concurrent_cached_run_is_byte_identical_to_serial_uncached_with_fewer_inferences() {
    let (ds, out) = ingest(120.0, 10);
    let workload = overlapping_workload(&ds);

    // (a) Serial, uncached: one engine, every query re-verifies everything.
    let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
    let serial_meter = GpuMeter::new();
    let serial: Vec<_> = workload
        .iter()
        .map(|req| engine.query(&out, req.class, &req.filter, &serial_meter))
        .collect();

    // (b) Concurrent, cached: one server call over the whole workload.
    let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
    let served_meter = GpuMeter::new();
    let served = server.serve(&out, &workload, &served_meter);

    assert_eq!(serial.len(), served.len());
    for (a, b) in serial.iter().zip(served.iter()) {
        // Byte-identical user-visible results.
        assert_eq!(
            serde_json::to_string(&a.frames).unwrap(),
            serde_json::to_string(&b.frames).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.objects).unwrap(),
            serde_json::to_string(&b.objects).unwrap()
        );
        assert_eq!(a.matched_clusters, b.matched_clusters);
        assert_eq!(a.confirmed_clusters, b.confirmed_clusters);
    }

    // Strictly fewer GT-CNN inferences: the serial run verified every
    // matched cluster of every query; the server deduplicated the overlap.
    let serial_inferences: usize = serial.iter().map(|o| o.centroid_inferences).sum();
    let served_inferences: usize = served.iter().map(|o| o.centroid_inferences).sum();
    assert!(serial_inferences > 0);
    assert!(
        served_inferences < serial_inferences,
        "server performed {served_inferences} inferences vs {serial_inferences} serial"
    );
    // The amortized batched cost is cheaper too.
    assert!(served_meter.phase("query").seconds() < serial_meter.phase("query").seconds());

    // The cache saw the overlap.
    let stats = server.cache_stats();
    assert_eq!(stats.misses, served_inferences);
    assert!(stats.hits > 0);
    assert!(stats.hit_rate() > 0.0);
}

#[test]
fn second_wave_is_served_entirely_from_cache() {
    let (ds, out) = ingest(90.0, 10);
    let workload = overlapping_workload(&ds);
    let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));

    let first = server.serve(&out, &workload, &GpuMeter::new());
    let misses_after_first = server.cache_stats().misses;
    assert!(misses_after_first > 0);

    let meter = GpuMeter::new();
    let second = server.serve(&out, &workload, &meter);
    // Identical outcomes, zero fresh inferences, zero GPU time.
    for (a, b) in first.iter().zip(second.iter()) {
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.objects, b.objects);
        assert_eq!(b.centroid_inferences, 0);
    }
    assert_eq!(server.cache_stats().misses, misses_after_first);
    assert_eq!(meter.total().seconds(), 0.0);
}

#[test]
fn retrain_epoch_bump_flips_centroid_verdicts_instead_of_serving_stale_ones() {
    let (ds, out) = ingest(60.0, 10);
    let class = ds.dominant_classes(1)[0];
    let request = vec![QueryRequest::new(class)];

    // Epoch 0: a flicker-free ground truth confirms the dominant class.
    let server = QueryServer::new(GroundTruthCnn::with_flicker(0.0), GpuClusterSpec::new(4));
    let before = server.serve(&out, &request, &GpuMeter::new());
    assert!(before[0].confirmed_clusters > 0);
    assert!(!before[0].frames.is_empty());

    // Epoch 1: a retrained model that flips every centroid's class (flicker
    // probability 1.0 scatters answers away from the true class). If stale
    // epoch-0 verdicts were served, the result would be unchanged.
    server.retrain_ground_truth(GroundTruthCnn::with_flicker(1.0));
    let after = server.serve(&out, &request, &GpuMeter::new());
    assert!(
        after[0].centroid_inferences > 0,
        "the retrained model must re-verify, not reuse cached verdicts"
    );
    assert_eq!(after[0].confirmed_clusters, 0);
    assert!(after[0].frames.is_empty());
    assert_ne!(before[0].frames, after[0].frames);

    // Epoch 2: re-ingest invalidation without a model change re-does the
    // work but reproduces the rejection.
    server.invalidate();
    assert_eq!(server.epoch(), 2);
    let again = server.serve(&out, &request, &GpuMeter::new());
    assert!(again[0].centroid_inferences > 0);
    assert_eq!(again[0].frames, after[0].frames);
}

#[test]
fn server_handles_absent_classes_and_empty_batches() {
    let (_, out) = ingest(30.0, 4);
    let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(2));
    assert!(server.serve(&out, &[], &GpuMeter::new()).is_empty());
    let outcome = &server.serve(&out, &[QueryRequest::new(ClassId(850))], &GpuMeter::new())[0];
    assert_eq!(outcome.confirmed_clusters, 0);
    assert!(outcome.frames.is_empty());
}
