//! The serial, single-query driver: one GT-CNN inference per matched
//! cluster, run in order on the caller's thread, neither batched nor
//! cached.
//!
//! [`QueryEngine`] is the reference implementation of the query path — the
//! concurrent [`QueryServer`](crate::query_server::QueryServer) is required
//! (and tested) to return byte-identical frames and objects while doing
//! strictly less GT-CNN work on overlapping workloads.

use focus_cnn::{Classifier, GroundTruthCnn};
use focus_index::QueryFilter;
use focus_runtime::{GpuClusterSpec, GpuMeter};
use focus_video::ClassId;

use crate::ingest::IngestOutput;
use crate::query::execute::{assemble_outcome, QueryOutcome};
use crate::query::plan::{QueryPlan, QueryRequest};

/// The query engine: owns the ground-truth CNN and the GPU-cluster model
/// that turns its GPU work into latency.
///
/// Every call to [`query`](Self::query) re-verifies every matched centroid
/// with the GT-CNN, one inference at a time. For serving many (possibly
/// overlapping) queries, prefer
/// [`QueryServer`](crate::query_server::QueryServer), which deduplicates and
/// batches the centroid inferences and memoizes verdicts across queries.
///
/// # Examples
///
/// ```
/// use focus_core::prelude::*;
/// use focus_video::profile::profile_by_name;
///
/// let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 20.0);
/// let ingest = IngestEngine::new(
///     IngestCnn::generic(focus_cnn::ModelSpec::cheap_cnn_1()),
///     IngestParams { k: 10, ..IngestParams::default() },
/// )
/// .ingest(&ds, &focus_runtime::GpuMeter::new());
///
/// let engine = QueryEngine::new(
///     focus_cnn::GroundTruthCnn::resnet152(),
///     focus_runtime::GpuClusterSpec::new(4),
/// );
/// let class = ds.dominant_classes(1)[0];
/// let outcome = engine.query(
///     &ingest,
///     class,
///     &focus_index::QueryFilter::any(),
///     &focus_runtime::GpuMeter::new(),
/// );
/// // The serial engine performs exactly one inference per matched cluster.
/// assert_eq!(outcome.centroid_inferences, outcome.matched_clusters);
/// ```
#[derive(Debug, Clone)]
pub struct QueryEngine {
    gt: GroundTruthCnn,
    gpus: GpuClusterSpec,
}

impl QueryEngine {
    /// Creates a query engine around the given ground-truth CNN and GPU
    /// cluster.
    pub fn new(gt: GroundTruthCnn, gpus: GpuClusterSpec) -> Self {
        Self { gt, gpus }
    }

    /// The GPU cluster serving queries.
    pub fn gpus(&self) -> GpuClusterSpec {
        self.gpus
    }

    /// The ground-truth CNN used to confirm centroids.
    pub fn ground_truth(&self) -> &GroundTruthCnn {
        &self.gt
    }

    /// Runs the query `class` over the ingested stream `ingest`, restricted
    /// by `filter`. GPU time is charged to `meter` under the phase
    /// `"query"`.
    pub fn query(
        &self,
        ingest: &IngestOutput,
        class: ClassId,
        filter: &QueryFilter,
        meter: &GpuMeter,
    ) -> QueryOutcome {
        // QT1/QT2: plan the candidate set from the top-K index.
        let request = QueryRequest::new(class).with_filter(filter.clone());
        let plan = QueryPlan::build(ingest, &request);

        // QT3: classify only the centroids with the GT-CNN — one
        // un-batched inference each.
        let labels: Vec<ClassId> = plan
            .candidates
            .iter()
            .map(|handle| {
                let centroid = ingest
                    .index
                    .centroid(handle.centroid)
                    .expect("ingest stored every centroid observation");
                self.gt.classify_top1(centroid)
            })
            .collect();
        let inferences = labels.len();
        let gpu_cost = self.gt.cost_per_inference() * inferences;
        meter.charge("query", gpu_cost);

        // QT4: keep clusters confirmed by the GT-CNN and return their
        // frames.
        assemble_outcome(
            ingest,
            &plan,
            &labels,
            inferences,
            gpu_cost,
            self.gpus.latency_secs(gpu_cost),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::GroundTruthLabels;
    use crate::ingest::{IngestCnn, IngestEngine, IngestParams};
    use focus_cnn::specialize::SpecializationLevel;
    use focus_cnn::{ModelSpec, SpecializedCnn};
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    fn dataset() -> VideoDataset {
        VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 120.0)
    }

    fn ingest_generic(ds: &VideoDataset, k: usize) -> IngestOutput {
        IngestEngine::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_1()),
            IngestParams {
                k,
                ..IngestParams::default()
            },
        )
        .ingest(ds, &GpuMeter::new())
    }

    fn ingest_specialized(ds: &VideoDataset, k: usize, ls: usize) -> IngestOutput {
        let gt = GroundTruthCnn::resnet152();
        let sample: Vec<_> = ds
            .objects()
            .map(|o| (o.clone(), gt.classify_top1(o)))
            .collect();
        let model = IngestCnn::specialized(
            SpecializedCnn::train(&ds.profile.name, SpecializationLevel::Medium, &sample, ls)
                .unwrap(),
        );
        IngestEngine::new(
            model,
            IngestParams {
                k,
                ..IngestParams::default()
            },
        )
        .ingest(ds, &GpuMeter::new())
    }

    #[test]
    fn query_returns_frames_of_dominant_class_with_high_accuracy() {
        let ds = dataset();
        let gt = GroundTruthCnn::resnet152();
        let labels = GroundTruthLabels::compute(&ds, &gt);
        let class = labels.dominant_classes(1)[0];
        let ingest = ingest_specialized(&ds, 2, 15);
        let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(10));
        let meter = GpuMeter::new();
        let outcome = engine.query(&ingest, class, &QueryFilter::any(), &meter);
        assert!(!outcome.frames.is_empty());
        assert!(outcome.confirmed_clusters <= outcome.matched_clusters);
        assert_eq!(outcome.centroid_inferences, outcome.matched_clusters);
        let report = labels.evaluate(class, &outcome.frames);
        assert!(report.recall > 0.8, "recall = {}", report.recall);
        assert!(report.precision > 0.8, "precision = {}", report.precision);
        // The meter was charged for the GT work.
        assert!((meter.phase("query").seconds() - outcome.gpu_cost.seconds()).abs() < 1e-9);
    }

    #[test]
    fn query_is_much_cheaper_than_classifying_every_object() {
        let ds = dataset();
        let ingest = ingest_specialized(&ds, 2, 15);
        let class = ds.dominant_classes(1)[0];
        let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(10));
        let outcome = engine.query(&ingest, class, &QueryFilter::any(), &GpuMeter::new());
        let query_all_cost =
            GroundTruthCnn::resnet152().cost_per_inference() * ingest.objects_total;
        assert!(
            outcome.gpu_cost.seconds() * 5.0 < query_all_cost.seconds(),
            "query cost {} vs query-all {}",
            outcome.gpu_cost.seconds(),
            query_all_cost.seconds()
        );
        assert!(outcome.latency_secs > 0.0);
        assert!(outcome.latency_secs < query_all_cost.seconds());
    }

    #[test]
    fn rare_class_query_goes_through_other() {
        let ds = dataset();
        let ingest = ingest_specialized(&ds, 2, 6);
        // Pick a class that occurs but was not specialized for.
        let hist = ds.class_histogram();
        let specialized = ingest.model.specialized_classes.clone().unwrap();
        let rare = hist
            .iter()
            .filter(|(c, _)| !specialized.contains(c))
            .max_by_key(|(_, n)| **n)
            .map(|(c, _)| *c);
        let Some(rare) = rare else {
            // Every observed class was specialized for; nothing to test.
            return;
        };
        let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(10));
        let outcome = engine.query(&ingest, rare, &QueryFilter::any(), &GpuMeter::new());
        // The OTHER path still finds the class (recall may be lower, but the
        // class must be reachable).
        assert!(outcome.matched_clusters > 0);
    }

    #[test]
    fn time_range_filter_limits_results() {
        let ds = dataset();
        let ingest = ingest_generic(&ds, 10);
        let class = ds.dominant_classes(1)[0];
        let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
        let all = engine.query(&ingest, class, &QueryFilter::any(), &GpuMeter::new());
        let first_half = engine.query(
            &ingest,
            class,
            &QueryFilter::any().with_time_range(0.0, 60.0),
            &GpuMeter::new(),
        );
        assert!(first_half.matched_clusters <= all.matched_clusters);
        assert!(first_half.frames.len() <= all.frames.len());
        for f in &first_half.frames {
            // Frames can extend slightly past the cut-off because clusters
            // only need to overlap the range, but they must start within it.
            assert!(f.0 <= (65.0 * ds.profile.fps as f64) as u64);
        }
    }

    #[test]
    fn dynamic_kx_trades_recall_for_latency() {
        let ds = dataset();
        let ingest = ingest_generic(&ds, 20);
        let class = ds.dominant_classes(1)[0];
        let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
        let full = engine.query(&ingest, class, &QueryFilter::any(), &GpuMeter::new());
        let narrow = engine.query(
            &ingest,
            class,
            &QueryFilter::any().with_kx(2),
            &GpuMeter::new(),
        );
        assert!(narrow.matched_clusters <= full.matched_clusters);
        assert!(narrow.gpu_cost <= full.gpu_cost);
    }

    #[test]
    fn query_for_absent_class_returns_nothing() {
        let ds = dataset();
        let ingest = ingest_generic(&ds, 4);
        let engine = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
        // Class 850 is far outside the traffic palette's dominant classes;
        // even if a stray top-K posting matches, GT-CNN confirmation must
        // reject it.
        let outcome = engine.query(&ingest, ClassId(850), &QueryFilter::any(), &GpuMeter::new());
        assert_eq!(outcome.confirmed_clusters, 0);
        assert!(outcome.frames.is_empty());
        assert!(outcome.objects.is_empty());
    }

    #[test]
    fn more_gpus_reduce_latency_not_cost() {
        let ds = dataset();
        let ingest = ingest_generic(&ds, 10);
        let class = ds.dominant_classes(1)[0];
        let few = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(2));
        let many = QueryEngine::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(20));
        let a = few.query(&ingest, class, &QueryFilter::any(), &GpuMeter::new());
        let b = many.query(&ingest, class, &QueryFilter::any(), &GpuMeter::new());
        assert!((a.gpu_cost.seconds() - b.gpu_cost.seconds()).abs() < 1e-9);
        assert!(b.latency_secs < a.latency_secs);
        assert_eq!(few.gpus().num_gpus, 2);
    }
}
