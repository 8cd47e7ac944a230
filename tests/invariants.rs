//! Property-based integration tests over the whole pipeline: whatever the
//! stream characteristics and parameter choices, structural invariants of
//! ingest and query must hold.

mod common;

use proptest::prelude::*;

use common::{cold_serve, reference_output, sealed_service};
use focus::cnn::{Classifier, GroundTruthCnn, ModelSpec};
use focus::core::{IngestCnn, IngestParams, QueryRequest};
use focus::runtime::BatchCostModel;
use focus::video::profile::{profile_by_name, table1_profiles};
use focus::video::VideoDataset;

/// A small strategy over (stream, duration, K, threshold) pipeline inputs.
fn pipeline_inputs() -> impl Strategy<Value = (usize, f64, usize, f32)> {
    (
        0usize..table1_profiles().len(),
        20.0f64..60.0,
        prop_oneof![Just(1usize), Just(4), Just(10), Just(60)],
        prop_oneof![Just(0.5f32), Just(1.5), Just(3.0)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Ingest never loses or duplicates objects, never classifies more
    /// objects than it saw, and charges GPU time consistent with the model's
    /// per-inference cost.
    #[test]
    fn ingest_structural_invariants((stream, duration, k, threshold) in pipeline_inputs()) {
        let profile = table1_profiles().swap_remove(stream);
        let dataset = VideoDataset::generate(profile, duration);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let per_inference = model.cost_per_inference().seconds();
        let service = sealed_service(
            &dataset,
            IngestParams {
                k,
                cluster_threshold: threshold,
                ..IngestParams::default()
            },
        );
        let stats = service.stats();
        let index = service.store().merged_index().unwrap();

        // Every object is indexed exactly once across all clusters.
        let indexed: usize = index.clusters().map(|c| c.len()).sum();
        prop_assert_eq!(indexed, stats.objects_indexed);
        prop_assert_eq!(stats.objects_indexed, dataset.object_count());
        prop_assert_eq!(stats.store_clusters, index.len());
        // GPU accounting matches the number of inferences, on the stream's
        // pipeline and on the scheduler's meter.
        let pipeline = service.stream_pipeline(dataset.profile.stream_id).unwrap();
        let classified = pipeline.stats().objects_classified;
        prop_assert!(classified <= pipeline.stats().objects);
        let expected = per_inference * classified as f64;
        prop_assert!((pipeline.gpu_cost().seconds() - expected).abs() < 1e-9);
        let ingest = stats.gpu.submitted_by_phase.get("ingest").copied().unwrap_or(0.0);
        prop_assert!((ingest - expected).abs() < 1e-9);
        // Every stored cluster has a centroid observation and valid time
        // bounds.
        for record in index.clusters() {
            prop_assert!(index.centroid(record.centroid_object).is_some());
            prop_assert!(service.corpus().centroids.contains_key(&record.centroid_object));
            prop_assert!(record.start_secs <= record.end_secs + 1e-9);
            prop_assert!(record.top_k_classes.len() <= k);
            prop_assert!(!record.is_empty());
        }
    }

    /// Query results are always consistent: returned frames exist in the
    /// dataset, confirmed clusters never exceed matched clusters, and a cold
    /// server runs one GT-CNN inference per matched cluster, charged at the
    /// batched cost of that many.
    #[test]
    fn query_structural_invariants((stream, duration, k, threshold) in pipeline_inputs()) {
        let profile = table1_profiles().swap_remove(stream);
        let dataset = VideoDataset::generate(profile, duration);
        if dataset.object_count() == 0 {
            return Ok(());
        }
        let service = sealed_service(
            &dataset,
            IngestParams {
                k,
                cluster_threshold: threshold,
                ..IngestParams::default()
            },
        );
        let gt = GroundTruthCnn::resnet152();
        let class = dataset.dominant_classes(1)[0];
        let request = QueryRequest::new(class);
        let outcome = cold_serve(&reference_output(&service), &request);
        // The service answers what the in-memory reference answers.
        let served = service.serve(std::slice::from_ref(&request)).unwrap().remove(0);
        prop_assert_eq!(&served.frames, &outcome.frames);
        prop_assert_eq!(&served.objects, &outcome.objects);

        prop_assert!(outcome.confirmed_clusters <= outcome.matched_clusters);
        prop_assert_eq!(outcome.centroid_inferences, outcome.matched_clusters);
        let expected_cost = BatchCostModel::default()
            .batch_cost(gt.cost_per_inference(), outcome.matched_clusters)
            .seconds();
        prop_assert!((outcome.gpu_cost.seconds() - expected_cost).abs() < 1e-9);
        // Frames are sorted, unique, and belong to the dataset.
        let frame_ids: std::collections::HashSet<_> =
            dataset.frames.iter().map(|f| f.frame_id).collect();
        for window in outcome.frames.windows(2) {
            prop_assert!(window[0] < window[1]);
        }
        for frame in &outcome.frames {
            prop_assert!(frame_ids.contains(frame));
        }
        // Objects returned really are members of confirmed clusters of the
        // queried (effective) class.
        prop_assert!(outcome.objects.len() <= dataset.object_count());
    }
}

#[test]
fn dominant_class_query_recall_holds_across_streams() {
    // A coarse cross-stream guarantee: with a wide index (K=200, enough for
    // even the quiet, long-dwell streams per Figure 5) and the ground-truth
    // verification step, the dominant class of every stream is found with
    // high segment recall.
    for name in ["auburn_c", "lausanne", "cnn"] {
        let dataset = VideoDataset::generate(profile_by_name(name).unwrap(), 90.0);
        let service = sealed_service(
            &dataset,
            IngestParams {
                k: 200,
                ..IngestParams::default()
            },
        );
        let gt = GroundTruthCnn::resnet152();
        let labels = focus::core::GroundTruthLabels::compute(&dataset, &gt);
        let class = labels.dominant_classes(1)[0];
        let outcome = service
            .serve(&[QueryRequest::new(class)])
            .unwrap()
            .remove(0);
        let report = labels.evaluate(class, &outcome.frames);
        assert!(
            report.recall > 0.85,
            "{name}: recall {} for dominant class",
            report.recall
        );
        assert!(
            report.precision > 0.85,
            "{name}: precision {} for dominant class",
            report.precision
        );
    }
}
