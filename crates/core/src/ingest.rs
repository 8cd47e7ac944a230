//! What ingest runs with: the ingest CNN handle ([`IngestCnn`]) and the
//! parameters chosen by parameter selection ([`IngestParams`]).
//!
//! The per-frame work itself (IT1–IT4 in Figure 4 of the paper) — motion
//! filtering, pixel differencing, cheap-CNN classification, incremental
//! clustering and index-record emission — lives in [`crate::pipeline`],
//! and the one driver that runs it is
//! [`FocusService`](crate::service::FocusService): a recorded dataset is
//! ingested by registering its stream, installing the configuration and
//! advancing over its frames.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::{
    CheapCnn, Classifier, GpuCost, GroundTruthCnn, ModelSpec, SpecializedCnn, OTHER_CLASS,
};
use focus_video::ClassId;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::replay;
    use crate::pipeline::PipelineStats;
    use focus_index::{QueryFilter, TopKIndex};
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

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

    /// What one replay of a recording through a bare pipeline left: the
    /// drained index, the ingest GPU cost and the counters.
    struct Run {
        index: TopKIndex,
        cost: GpuCost,
        stats: PipelineStats,
    }

    fn run(dataset: &VideoDataset, model: &IngestCnn, params: IngestParams) -> Run {
        let mut pipeline = replay(dataset, model, params);
        Run {
            index: pipeline.seal_segment(),
            cost: pipeline.gpu_cost(),
            stats: pipeline.stats(),
        }
    }

    /// One row per ingest property: the recording, the runs it compares and
    /// what must hold between them.
    #[test]
    fn ingest_properties() {
        type Row<'a> = (
            &'a str,
            &'a VideoDataset,
            Vec<(&'a IngestCnn, IngestParams)>,
            fn(&VideoDataset, &[Run]) -> bool,
        );
        let ds = small_dataset();
        let empty = VideoDataset::from_frames(profile_by_name("bend").unwrap(), 0.0, vec![]);
        let [cheap1, cheap2, cheap3] = [
            ModelSpec::cheap_cnn_1(),
            ModelSpec::cheap_cnn_2(),
            ModelSpec::cheap_cnn_3(),
        ]
        .map(IngestCnn::generic);
        let gt = IngestCnn::ground_truth(GroundTruthCnn::resnet152());
        let specialized = specialized_model(&ds, 8);
        let default = IngestParams::default();
        let unclustered = IngestParams {
            enable_clustering: false,
            ..default
        };
        let undifferenced = IngestParams {
            pixel_differencing: false,
            ..default
        };
        let with_k = |k| IngestParams { k, ..default };
        // The Ingest-all baseline: every object classified by the GT-CNN.
        let ingest_all = IngestParams {
            k: 1,
            enable_clustering: false,
            pixel_differencing: false,
            ..default
        };
        let rows: Vec<Row> = vec![
            (
                "every object is indexed once, beside its cluster's centroid",
                &ds,
                vec![(&cheap1, default)],
                |ds, r| {
                    let indexed: usize = r[0].index.clusters().map(|c| c.len()).sum();
                    r[0].stats.frames == ds.frames.len()
                        && r[0].stats.frames_with_motion <= r[0].stats.frames
                        && r[0].stats.objects == ds.object_count()
                        && r[0].stats.objects_classified > 0
                        && r[0].stats.objects_classified <= r[0].stats.objects
                        && indexed == r[0].stats.objects
                        && r[0].stats.clusters == r[0].index.len()
                        && r[0].index.clusters().all(|record| {
                            record.top_k_classes.len() == IngestParams::default().k
                                && r[0].index.centroid(record.centroid_object).is_some()
                        })
                },
            ),
            (
                "clustering reduces clusters",
                &ds,
                vec![(&cheap1, default), (&cheap1, unclustered)],
                |_, r| {
                    r[0].stats.clusters < r[1].stats.clusters
                        && r[1].stats.clusters == r[1].stats.objects
                        && r[0].stats.objects as f64 > 1.5 * r[0].stats.clusters as f64
                },
            ),
            (
                "pixel differencing reduces classified objects",
                &ds,
                vec![(&cheap2, default), (&cheap2, undifferenced)],
                |_, r| {
                    r[0].stats.objects_classified < r[1].stats.objects_classified
                        && r[1].stats.objects_classified == r[1].stats.objects
                        // More than a tenth of the inferences are skipped.
                        && r[0].stats.objects_classified * 10 < r[0].stats.objects * 9
                        && r[0].cost < r[1].cost
                },
            ),
            (
                "cheaper models cost less",
                &ds,
                vec![(&cheap3, default), (&cheap1, default)],
                |_, r| r[0].cost < r[1].cost,
            ),
            (
                "GT ingest is the most expensive",
                &ds,
                vec![(&gt, ingest_all), (&cheap3, default)],
                |_, r| r[0].cost.seconds() > 10.0 * r[1].cost.seconds(),
            ),
            (
                "a wide index posts the dominant class",
                &ds,
                vec![(&cheap1, with_k(20))],
                |ds, r| {
                    let dominant = ds.dominant_classes(1)[0];
                    !r[0].index.lookup(dominant, &QueryFilter::any()).is_empty()
                },
            ),
            (
                "a specialized model routes rare classes to OTHER",
                &ds,
                vec![(&specialized, with_k(2))],
                |_, r| {
                    !r[0]
                        .index
                        .lookup(OTHER_CLASS, &QueryFilter::any())
                        .is_empty()
                },
            ),
            (
                "an empty dataset gives an empty index",
                &empty,
                vec![(&cheap1, default)],
                |_, r| {
                    r[0].index.is_empty()
                        && r[0].stats.objects == 0
                        && r[0].stats.clusters == 0
                        && r[0].cost.seconds() == 0.0
                },
            ),
        ];
        for (property, dataset, configs, check) in rows {
            let runs: Vec<Run> = configs
                .into_iter()
                .map(|(model, params)| run(dataset, model, params))
                .collect();
            assert!(check(dataset, &runs), "{property}");
        }
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
        assert!(spec.descriptor.is_specialized());
        assert!(spec.descriptor.display_name().contains("Specialized"));
        let debug = format!("{spec:?}");
        assert!(debug.contains("cheapness"));
        // Queries for a class the model was not specialized for go through
        // OTHER; a specialized class is looked up as itself.
        assert_eq!(spec.effective_query_class(ClassId(999)), OTHER_CLASS);
        let dominant = ds.dominant_classes(1)[0];
        assert_eq!(spec.effective_query_class(dominant), dominant);
    }
}
