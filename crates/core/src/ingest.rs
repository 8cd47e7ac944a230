//! The batch ingest driver: replays a recorded dataset through the shared
//! [`FramePipeline`] (IT1–IT4 in Figure 4 of the paper).
//!
//! The per-frame work itself — motion filtering, pixel differencing,
//! cheap-CNN classification, incremental clustering and index-record
//! emission — lives in [`crate::pipeline`]; this module owns the batch
//! driver ([`IngestEngine`]), the ingest model handle ([`IngestCnn`]) and
//! the output bookkeeping ([`IngestOutput`]). The live, frame-by-frame,
//! durable driver is [`FocusService`](crate::service::FocusService); this
//! one is the in-memory reference it is compared against, and its
//! [`IngestOutput`] is the corpus
//! [`QueryServer::serve`](crate::query_server::QueryServer::serve) answers
//! from.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::{
    CheapCnn, Classifier, GpuCost, GroundTruthCnn, ModelSpec, SpecializedCnn, OTHER_CLASS,
};
use focus_index::TopKIndex;
use focus_runtime::GpuMeter;
use focus_video::{ClassId, VideoDataset};

use crate::pipeline::{FramePipeline, PipelineOutput};

/// Ingest-time parameters chosen by Focus's parameter selection (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestParams {
    /// Number of top classes from the ingest CNN stored per cluster.
    pub k: usize,
    /// Clustering distance threshold `T`.
    pub cluster_threshold: f32,
    /// Cap `M` on concurrently active clusters.
    pub max_active_clusters: usize,
    /// Whether pixel differencing between adjacent frames is applied.
    pub pixel_differencing: bool,
    /// Whether ingest-time clustering is applied at all; when disabled every
    /// object becomes its own cluster (used by the Figure-8 ablation).
    pub enable_clustering: bool,
}

impl Default for IngestParams {
    fn default() -> Self {
        Self {
            k: 4,
            cluster_threshold: 1.5,
            max_active_clusters: 512,
            pixel_differencing: true,
            enable_clustering: true,
        }
    }
}

/// A compact, serializable description of the chosen ingest CNN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum IngestModelDescriptor {
    /// The ground-truth model itself (used by the Ingest-all baseline).
    GroundTruth,
    /// A generic compressed model.
    Generic {
        /// The model spec.
        spec: ModelSpec,
    },
    /// A per-stream specialized model.
    Specialized {
        /// Display name of the trained model.
        name: String,
        /// Number of specialized classes.
        ls: usize,
        /// Cheapness factor vs the ground truth.
        cheapness: f64,
    },
}

impl IngestModelDescriptor {
    /// Human-readable name.
    pub fn display_name(&self) -> String {
        match self {
            IngestModelDescriptor::GroundTruth => "ResNet152".to_string(),
            IngestModelDescriptor::Generic { spec } => spec.display_name(),
            IngestModelDescriptor::Specialized { name, .. } => name.clone(),
        }
    }

    /// Whether the descriptor refers to a specialized model.
    pub fn is_specialized(&self) -> bool {
        matches!(self, IngestModelDescriptor::Specialized { .. })
    }
}

/// The ingest CNN handle: the classifier plus the metadata the query path
/// needs (specialized class set for OTHER handling).
#[derive(Clone)]
pub struct IngestCnn {
    /// The classifier used at ingest time.
    pub classifier: Arc<dyn Classifier>,
    /// Serializable description of the model.
    pub descriptor: IngestModelDescriptor,
    /// For specialized models, the classes the model was specialized for;
    /// queries for any other class are routed through the OTHER class.
    pub specialized_classes: Option<Vec<ClassId>>,
}

impl std::fmt::Debug for IngestCnn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestCnn")
            .field("descriptor", &self.descriptor)
            .field("cheapness", &self.classifier.cheapness_vs_gt())
            .finish()
    }
}

impl IngestCnn {
    /// A generic compressed ingest model.
    pub fn generic(spec: ModelSpec) -> Self {
        Self {
            classifier: Arc::new(CheapCnn::from_spec(spec)),
            descriptor: IngestModelDescriptor::Generic { spec },
            specialized_classes: None,
        }
    }

    /// A specialized ingest model.
    pub fn specialized(model: SpecializedCnn) -> Self {
        let descriptor = IngestModelDescriptor::Specialized {
            name: model.name().to_string(),
            ls: model.ls(),
            cheapness: model.cheapness_vs_gt(),
        };
        let classes = model.specialized_classes().to_vec();
        Self {
            classifier: Arc::new(model),
            descriptor,
            specialized_classes: Some(classes),
        }
    }

    /// The ground-truth CNN used as an "ingest model" (the Ingest-all
    /// baseline indexes with the GT-CNN directly).
    pub fn ground_truth(gt: GroundTruthCnn) -> Self {
        Self {
            classifier: Arc::new(gt),
            descriptor: IngestModelDescriptor::GroundTruth,
            specialized_classes: None,
        }
    }

    /// The class to look up in the index when the user queries for `class`:
    /// specialized models map un-specialized classes to OTHER (§4.3).
    pub fn effective_query_class(&self, class: ClassId) -> ClassId {
        match &self.specialized_classes {
            Some(classes) if !classes.contains(&class) => OTHER_CLASS,
            _ => class,
        }
    }

    /// GPU cost of one inference of this model.
    pub fn cost_per_inference(&self) -> GpuCost {
        self.classifier.cost_per_inference()
    }
}

/// The output of ingesting one stream: the top-K index plus the bookkeeping
/// the query path and the evaluation need.
#[derive(Debug, Clone)]
pub struct IngestOutput {
    /// The top-K index produced by ingest, with the centroid
    /// (representative) observation of every cluster in its centroid
    /// section — the only objects the GT-CNN touches at query time.
    pub index: TopKIndex,
    /// The ingest model used.
    pub model: IngestCnn,
    /// Parameters used.
    pub params: IngestParams,
    /// Total GPU time spent by the ingest CNN.
    pub gpu_cost: GpuCost,
    /// Total frames in the dataset.
    pub frames_total: usize,
    /// Frames that passed motion filtering.
    pub frames_with_motion: usize,
    /// Total object observations in motion frames.
    pub objects_total: usize,
    /// Observations actually classified by the ingest CNN (after pixel
    /// differencing).
    pub objects_classified: usize,
    /// Number of clusters written to the index.
    pub clusters: usize,
}

impl IngestOutput {
    /// Assembles the output of a finished pipeline run for `model`.
    pub fn from_pipeline(output: PipelineOutput, model: IngestCnn) -> Self {
        let PipelineOutput {
            index,
            gpu_cost,
            stats,
            params,
        } = output;
        Self {
            index,
            model,
            params,
            gpu_cost,
            frames_total: stats.frames,
            frames_with_motion: stats.frames_with_motion,
            objects_total: stats.objects,
            objects_classified: stats.objects_classified,
            clusters: stats.clusters,
        }
    }

    /// Average number of objects per cluster (the redundancy the clustering
    /// step eliminates at query time).
    pub fn mean_cluster_size(&self) -> f64 {
        if self.clusters == 0 {
            0.0
        } else {
            self.objects_total as f64 / self.clusters as f64
        }
    }
}

/// The ingest engine: applies the ingest pipeline of Figure 4 to a recorded
/// dataset (or, frame by frame, to a live stream).
#[derive(Debug, Clone)]
pub struct IngestEngine {
    model: IngestCnn,
    params: IngestParams,
}

impl IngestEngine {
    /// Creates an engine for the given model and parameters.
    pub fn new(model: IngestCnn, params: IngestParams) -> Self {
        Self { model, params }
    }

    /// The model this engine ingests with.
    pub fn model(&self) -> &IngestCnn {
        &self.model
    }

    /// The parameters this engine ingests with.
    pub fn params(&self) -> IngestParams {
        self.params
    }

    /// Ingests a recorded dataset, producing the top-K index and cost
    /// accounting. GPU cost is charged to `meter` under the phase
    /// `"ingest"`.
    pub fn ingest(&self, dataset: &VideoDataset, meter: &GpuMeter) -> IngestOutput {
        let mut pipeline =
            FramePipeline::new(dataset.profile.stream_id, dataset.profile.fps, self.params);
        let classifier = self.model.classifier.as_ref();
        for frame in &dataset.frames {
            pipeline.push_frame(frame, classifier);
        }
        let output = pipeline.finish();
        // One charge per run: the pipeline accrues cost lock-free, so the
        // batch hot loop never touches the meter's mutex.
        meter.charge("ingest", output.gpu_cost);
        IngestOutput::from_pipeline(output, self.model.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_index::QueryFilter;
    use focus_video::profile::profile_by_name;

    fn small_dataset() -> VideoDataset {
        VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 90.0)
    }

    fn specialized_model(dataset: &VideoDataset, ls: usize) -> IngestCnn {
        let gt = GroundTruthCnn::resnet152();
        let sample: Vec<_> = dataset
            .objects()
            .map(|o| (o.clone(), gt.classify_top1(o)))
            .collect();
        IngestCnn::specialized(
            SpecializedCnn::train(
                &dataset.profile.name,
                focus_cnn::specialize::SpecializationLevel::Medium,
                &sample,
                ls,
            )
            .unwrap(),
        )
    }

    #[test]
    fn ingest_produces_consistent_index() {
        let ds = small_dataset();
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let engine = IngestEngine::new(model, IngestParams::default());
        let meter = GpuMeter::new();
        let out = engine.ingest(&ds, &meter);
        assert_eq!(out.frames_total, ds.frames.len());
        assert!(out.frames_with_motion <= out.frames_total);
        assert_eq!(out.objects_total, ds.object_count());
        assert!(out.objects_classified <= out.objects_total);
        assert!(out.objects_classified > 0);
        assert_eq!(out.clusters, out.index.len());
        assert!(out.clusters > 0);
        // Every object appears in exactly one cluster.
        let indexed: usize = out.index.clusters().map(|c| c.len()).sum();
        assert_eq!(indexed, out.objects_total);
        // GPU cost was charged to the meter.
        assert!((meter.phase("ingest").seconds() - out.gpu_cost.seconds()).abs() < 1e-9);
        // Every cluster's centroid observation is available for query-time
        // classification.
        for record in out.index.clusters() {
            assert!(out.index.centroid(record.centroid_object).is_some());
            assert_eq!(record.top_k_classes.len(), engine.params().k.min(1000));
        }
    }

    #[test]
    fn clustering_reduces_cluster_count() {
        let ds = small_dataset();
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let with = IngestEngine::new(
            model.clone(),
            IngestParams {
                enable_clustering: true,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        let without = IngestEngine::new(
            model,
            IngestParams {
                enable_clustering: false,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        assert!(with.clusters < without.clusters);
        assert_eq!(without.clusters, without.objects_total);
        assert!(with.mean_cluster_size() > 1.5);
        assert!((without.mean_cluster_size() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pixel_differencing_reduces_classified_objects() {
        let ds = small_dataset();
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_2());
        let with = IngestEngine::new(
            model.clone(),
            IngestParams {
                pixel_differencing: true,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        let without = IngestEngine::new(
            model,
            IngestParams {
                pixel_differencing: false,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        assert!(with.objects_classified < without.objects_classified);
        assert_eq!(without.objects_classified, without.objects_total);
        // Differencing skips more than a tenth of the inferences.
        assert!(with.objects_classified * 10 < with.objects_total * 9);
        assert!(with.gpu_cost < without.gpu_cost);
    }

    #[test]
    fn cheaper_models_cost_less_to_ingest() {
        let ds = small_dataset();
        let expensive = IngestEngine::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_1()),
            IngestParams::default(),
        )
        .ingest(&ds, &GpuMeter::new());
        let cheap = IngestEngine::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_3()),
            IngestParams::default(),
        )
        .ingest(&ds, &GpuMeter::new());
        assert!(cheap.gpu_cost < expensive.gpu_cost);
    }

    #[test]
    fn ground_truth_ingest_is_most_expensive() {
        let ds = small_dataset();
        let gt = IngestEngine::new(
            IngestCnn::ground_truth(GroundTruthCnn::resnet152()),
            IngestParams {
                k: 1,
                enable_clustering: false,
                pixel_differencing: false,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        let cheap = IngestEngine::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_3()),
            IngestParams::default(),
        )
        .ingest(&ds, &GpuMeter::new());
        assert!(gt.gpu_cost.seconds() > 10.0 * cheap.gpu_cost.seconds());
    }

    #[test]
    fn index_lookup_finds_dominant_class_clusters() {
        let ds = small_dataset();
        let dominant = ds.dominant_classes(1)[0];
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let out = IngestEngine::new(
            model,
            IngestParams {
                k: 20,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        let matches = out.index.lookup(dominant, &QueryFilter::any());
        assert!(!matches.is_empty());
    }

    #[test]
    fn specialized_ingest_maps_rare_classes_to_other() {
        let ds = small_dataset();
        let model = specialized_model(&ds, 8);
        assert!(model.descriptor.is_specialized());
        let rare = ClassId(999);
        assert_eq!(model.effective_query_class(rare), OTHER_CLASS);
        let dominant = ds.dominant_classes(1)[0];
        assert_eq!(model.effective_query_class(dominant), dominant);
        let out = IngestEngine::new(
            model,
            IngestParams {
                k: 2,
                ..IngestParams::default()
            },
        )
        .ingest(&ds, &GpuMeter::new());
        // Clusters of rare-class objects are indexed under OTHER.
        let other_clusters = out.index.lookup(OTHER_CLASS, &QueryFilter::any());
        assert!(!other_clusters.is_empty());
    }

    #[test]
    fn descriptors_are_descriptive() {
        let generic = IngestCnn::generic(ModelSpec::cheap_cnn_2());
        assert!(generic.descriptor.display_name().contains("ResNet18"));
        assert!(!generic.descriptor.is_specialized());
        let gt = IngestCnn::ground_truth(GroundTruthCnn::resnet152());
        assert_eq!(gt.descriptor.display_name(), "ResNet152");
        assert_eq!(gt.effective_query_class(ClassId(5)), ClassId(5));
        let ds = small_dataset();
        let spec = specialized_model(&ds, 10);
        assert!(spec.descriptor.display_name().contains("Specialized"));
        let debug = format!("{spec:?}");
        assert!(debug.contains("cheapness"));
    }

    #[test]
    fn ingest_on_empty_dataset_is_empty() {
        let profile = profile_by_name("bend").unwrap();
        let ds = VideoDataset::from_frames(profile, 0.0, vec![]);
        let out = IngestEngine::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_1()),
            IngestParams::default(),
        )
        .ingest(&ds, &GpuMeter::new());
        assert_eq!(out.objects_total, 0);
        assert_eq!(out.clusters, 0);
        assert_eq!(out.gpu_cost.seconds(), 0.0);
        assert_eq!(out.mean_cluster_size(), 0.0);
    }
}
