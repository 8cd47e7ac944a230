//! Parameter selection: the sweep over (ingest CNN, K, Ls, T) and the
//! ingest-cost / query-latency trade-off (§4.4 and Figure 6 of the paper).
//!
//! Focus samples a representative slice of each stream, labels it with the
//! ground-truth CNN, and evaluates every candidate configuration on that
//! sample: expected precision, expected recall, ingest cost and query
//! latency. Configurations that miss the accuracy targets are discarded;
//! the Pareto boundary of the remainder is computed, and one configuration
//! is chosen per trade-off policy (Opt-Ingest / Balance / Opt-Query).

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use focus_cluster::IncrementalClusterer;
use focus_cnn::specialize::SpecializationLevel;
use focus_cnn::{Classifier, GroundTruthCnn, ModelSpec, ModelZoo};
use focus_video::motion::PixelDiffOutcome;
use focus_video::{ClassId, FrameId, MotionFilter, ObjectObservation, PixelDiff, VideoDataset};

use crate::accuracy::GroundTruthLabels;
use crate::config::{AblationMode, AccuracyTarget, TradeoffPolicy};
use crate::ingest::{IngestCnn, IngestParams};

/// Which part of the candidate space a sweep explores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpace {
    /// Generic compressed model candidates.
    pub generic_specs: Vec<ModelSpec>,
    /// Specialization levels to train per stream.
    pub specialization_levels: Vec<SpecializationLevel>,
    /// `Ls` values (number of specialized classes) to train per stream.
    pub ls_values: Vec<usize>,
    /// K candidates for generic models.
    pub generic_k: Vec<usize>,
    /// K candidates for specialized models.
    pub specialized_k: Vec<usize>,
    /// Clustering distance thresholds `T` to evaluate.
    pub thresholds: Vec<f32>,
    /// Whether generic models participate in the sweep.
    pub include_generic: bool,
    /// Whether specialized models participate in the sweep.
    pub include_specialized: bool,
    /// Whether ingest-time clustering is applied (disabled for the
    /// Figure-8 ablations).
    pub clustering: bool,
    /// Cap on active clusters during the sweep.
    pub max_active_clusters: usize,
    /// How many of the stream's dominant classes the expected accuracy and
    /// query latency are averaged over.
    pub dominant_classes: usize,
}

impl SweepSpace {
    /// The full sweep used by the benchmark harness.
    pub fn full() -> Self {
        let zoo = ModelZoo::new();
        Self {
            generic_specs: zoo.generic_specs(),
            specialization_levels: SpecializationLevel::all().to_vec(),
            ls_values: zoo.ls_candidates(),
            generic_k: vec![10, 20, 60, 100, 200],
            specialized_k: vec![1, 2, 4, 8],
            thresholds: vec![0.5, 1.0, 1.5, 2.0, 2.5],
            include_generic: true,
            include_specialized: true,
            clustering: true,
            max_active_clusters: 256,
            dominant_classes: 5,
        }
    }

    /// A reduced sweep for unit/integration tests: fewer candidates, same
    /// structure.
    pub fn quick() -> Self {
        Self {
            generic_specs: vec![ModelSpec::cheap_cnn_1(), ModelSpec::cheap_cnn_3()],
            specialization_levels: vec![SpecializationLevel::Medium],
            ls_values: vec![15],
            generic_k: vec![20, 60, 200],
            specialized_k: vec![2, 4],
            thresholds: vec![1.0, 2.0],
            include_generic: true,
            include_specialized: true,
            clustering: true,
            max_active_clusters: 128,
            dominant_classes: 3,
        }
    }

    /// The reduced sweep the adaptive controller runs *online* when a
    /// drift is detected: [`ModelZoo::adaptive_specs`] generic candidates,
    /// one specialization level over [`ModelZoo::adaptive_ls_candidates`],
    /// and a thinned K/T grid. Small enough that re-selecting on a
    /// drift-window sample costs a bounded slice of the shared GPU budget
    /// (see [`ParameterSelector::select_metered`]), while still spanning
    /// the generic-vs-specialized and cheap-vs-accurate axes the drifted
    /// distribution may have moved along.
    pub fn adaptive() -> Self {
        let zoo = ModelZoo::new();
        Self {
            generic_specs: zoo.adaptive_specs(),
            specialization_levels: vec![SpecializationLevel::Medium],
            ls_values: zoo.adaptive_ls_candidates(),
            generic_k: vec![20, 60, 200],
            specialized_k: vec![2, 4],
            thresholds: vec![1.0, 2.0],
            include_generic: true,
            include_specialized: true,
            clustering: true,
            max_active_clusters: 256,
            dominant_classes: 3,
        }
    }

    /// Restricts the sweep to what an ablation mode allows.
    pub fn for_ablation(mut self, mode: AblationMode) -> Self {
        self.include_specialized = mode.specialization();
        // The compressed-only ablation still needs *some* model family, so
        // generic models stay enabled; when specialization is on, generic
        // models remain in the space and simply lose the competition.
        self.clustering = mode.clustering();
        if !self.clustering {
            self.thresholds = vec![0.0];
        }
        self
    }
}

/// A serializable identifier of which ingest model a configuration uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelChoice {
    /// A generic compressed model.
    Generic(ModelSpec),
    /// A per-stream specialized model.
    Specialized {
        /// Compression level of the specialized model.
        level: SpecializationLevel,
        /// Number of specialized classes.
        ls: usize,
    },
}

impl ModelChoice {
    /// Human-readable name.
    pub fn display_name(&self) -> String {
        match self {
            ModelChoice::Generic(spec) => spec.display_name(),
            ModelChoice::Specialized { level, ls } => {
                format!("Specialized[{}|Ls={ls}]", level.name())
            }
        }
    }
}

/// One evaluated configuration: the knob settings and the expected metrics
/// on the labelled sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigurationPoint {
    /// Which ingest model the configuration uses.
    pub model: ModelChoice,
    /// The top-K index width.
    pub k: usize,
    /// Clustering threshold `T`.
    pub threshold: f32,
    /// Ingest cost normalized to ingesting every sampled object with the
    /// ground-truth CNN (the Ingest-all baseline).
    pub ingest_cost_norm: f64,
    /// Query latency normalized to classifying every sampled object with the
    /// ground-truth CNN at query time (the Query-all baseline), averaged
    /// over the dominant classes.
    pub query_latency_norm: f64,
    /// Expected precision on the sample, averaged over the dominant classes.
    pub precision: f64,
    /// Expected recall on the sample, averaged over the dominant classes.
    pub recall: f64,
    /// Expected precision of the worst dominant class. Viability is judged
    /// on the worst class (the paper computes the expectation "for each of
    /// the object classes"), so no queried class falls below the target.
    #[serde(default)]
    pub worst_precision: f64,
    /// Expected recall of the worst dominant class.
    #[serde(default)]
    pub worst_recall: f64,
}

impl ConfigurationPoint {
    /// Whether this point dominates `other` (no worse in both costs, better
    /// in at least one).
    pub fn dominates(&self, other: &ConfigurationPoint) -> bool {
        let no_worse = self.ingest_cost_norm <= other.ingest_cost_norm
            && self.query_latency_norm <= other.query_latency_norm;
        let better = self.ingest_cost_norm < other.ingest_cost_norm
            || self.query_latency_norm < other.query_latency_norm;
        no_worse && better
    }
}

/// The outcome of parameter selection for one stream.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Every configuration that met the accuracy targets.
    pub viable: Vec<ConfigurationPoint>,
    /// The subset of `viable` on the Pareto boundary (sorted by ingest
    /// cost).
    pub pareto: Vec<ConfigurationPoint>,
    /// All evaluated configurations (including non-viable ones), for
    /// plotting the full trade-off space (Figure 6).
    pub evaluated: Vec<ConfigurationPoint>,
    /// The dominant classes the expectations were averaged over.
    pub dominant_classes: Vec<ClassId>,
    /// Trained/instantiated models keyed by their display name, so the
    /// chosen configuration can be turned into a runnable [`IngestCnn`].
    models: HashMap<String, IngestCnn>,
}

/// The configuration chosen for a policy, ready to run.
#[derive(Debug, Clone)]
pub struct SelectedConfiguration {
    /// The evaluated point that was chosen.
    pub point: ConfigurationPoint,
    /// The runnable ingest model.
    pub model: IngestCnn,
    /// Ingest parameters implied by the point.
    pub params: IngestParams,
    /// Whether the configuration met the accuracy targets on the sample
    /// (`false` only for best-effort fall-back choices).
    pub met_targets: bool,
}

impl SelectionResult {
    /// Chooses a viable configuration according to `policy`; returns `None`
    /// when no configuration met the accuracy targets.
    pub fn choose(&self, policy: TradeoffPolicy) -> Option<SelectedConfiguration> {
        let candidates = if self.pareto.is_empty() {
            &self.viable
        } else {
            &self.pareto
        };
        self.choose_among(policy, candidates, true)
    }

    /// Like [`choose`](Self::choose), but when no configuration meets the
    /// accuracy targets it falls back to the *most accurate* configurations
    /// evaluated and picks among them by `policy`. The returned
    /// configuration then has `met_targets == false`.
    ///
    /// The paper's streams always admit a viable configuration; with other
    /// workloads (or very high targets) the best-effort choice keeps the
    /// system operational and lets the caller report the shortfall.
    pub fn choose_or_best_effort(&self, policy: TradeoffPolicy) -> Option<SelectedConfiguration> {
        if let Some(chosen) = self.choose(policy) {
            return Some(chosen);
        }
        let best = self
            .evaluated
            .iter()
            .map(|p| p.worst_precision.min(p.worst_recall))
            .fold(f64::NEG_INFINITY, f64::max);
        if !best.is_finite() {
            return None;
        }
        let best_effort: Vec<ConfigurationPoint> = self
            .evaluated
            .iter()
            .filter(|p| p.worst_precision.min(p.worst_recall) >= best - 0.01)
            .cloned()
            .collect();
        self.choose_among(policy, &best_effort, false)
    }

    fn choose_among(
        &self,
        policy: TradeoffPolicy,
        candidates: &[ConfigurationPoint],
        met_targets: bool,
    ) -> Option<SelectedConfiguration> {
        if candidates.is_empty() {
            return None;
        }
        // `total_cmp` orders every float: this runs on the service's
        // `maintain` path, where a NaN cost must not be a panic.
        let point = match policy {
            TradeoffPolicy::OptIngest => candidates.iter().min_by(|a, b| {
                a.ingest_cost_norm
                    .total_cmp(&b.ingest_cost_norm)
                    .then(a.query_latency_norm.total_cmp(&b.query_latency_norm))
            }),
            TradeoffPolicy::OptQuery => candidates.iter().min_by(|a, b| {
                a.query_latency_norm
                    .total_cmp(&b.query_latency_norm)
                    .then(a.ingest_cost_norm.total_cmp(&b.ingest_cost_norm))
            }),
            TradeoffPolicy::Balance => candidates.iter().min_by(|a, b| {
                (a.ingest_cost_norm + a.query_latency_norm)
                    .total_cmp(&(b.ingest_cost_norm + b.query_latency_norm))
            }),
        }?
        .clone();
        let model = self.models.get(&point.model.display_name())?.clone();
        let params = IngestParams {
            k: point.k,
            cluster_threshold: point.threshold,
            max_active_clusters: 512,
            pixel_differencing: true,
            enable_clustering: point.threshold > 0.0,
        };
        Some(SelectedConfiguration {
            point,
            model,
            params,
            met_targets,
        })
    }
}

/// Computes the Pareto boundary (minimal ingest cost and query latency) of a
/// set of configurations.
pub fn pareto_boundary(points: &[ConfigurationPoint]) -> Vec<ConfigurationPoint> {
    let mut boundary: Vec<ConfigurationPoint> = points
        .iter()
        .filter(|p| !points.iter().any(|q| q.dominates(p)))
        .cloned()
        .collect();
    boundary.sort_by(|a, b| {
        a.ingest_cost_norm
            .total_cmp(&b.ingest_cost_norm)
            .then(a.query_latency_norm.total_cmp(&b.query_latency_norm))
    });
    boundary.dedup_by(|a, b| {
        a.ingest_cost_norm == b.ingest_cost_norm && a.query_latency_norm == b.query_latency_norm
    });
    boundary
}

/// The parameter selector: evaluates the sweep space on a labelled sample of
/// one stream.
#[derive(Debug, Clone)]
pub struct ParameterSelector {
    space: SweepSpace,
    target: AccuracyTarget,
}

/// Pre-processed sample object: its observation (borrowed from the
/// sample), ground-truth label and whether pixel differencing would have
/// skipped its inference.
struct SampleObject<'a> {
    observation: &'a ObjectObservation,
    gt_label: ClassId,
    frame: FrameId,
    needs_inference: bool,
}

/// One candidate ingest model and the K values it is evaluated at.
#[derive(Clone)]
struct Candidate {
    choice: ModelChoice,
    cnn: IngestCnn,
    k_values: Vec<usize>,
}

/// One dominant class as one candidate model sees it: everything about the
/// class that does not depend on `T` or `K`.
struct ClassTarget<'a> {
    class: ClassId,
    /// The class looked up in the index (OTHER when a specialized model
    /// does not cover `class`).
    lookup_class: ClassId,
    /// The class's ground-truth segments on the sample.
    truth: &'a HashSet<u64>,
}

/// The labelled sample one sweep evaluates every configuration on.
struct SweepSample<'a> {
    objects: &'a [SampleObject<'a>],
    labels: &'a GroundTruthLabels,
    /// Seconds of one GT-CNN inference.
    gt_cost: f64,
    /// Cost of classifying every sampled object with the GT-CNN.
    normalizer: f64,
}

impl ParameterSelector {
    /// Creates a selector for a sweep space and accuracy target.
    pub fn new(space: SweepSpace, target: AccuracyTarget) -> Self {
        Self { space, target }
    }

    /// The sweep space used.
    pub fn space(&self) -> &SweepSpace {
        &self.space
    }

    /// Runs the sweep on `sample` (a representative slice of the stream) and
    /// returns the viable configurations, the Pareto boundary and the
    /// runnable models.
    pub fn select(&self, sample: &VideoDataset, gt: &GroundTruthCnn) -> SelectionResult {
        self.select_metered(sample, gt, &focus_runtime::GpuMeter::new())
    }

    /// Like [`select`](Self::select), but charges the sweep's modelled GPU
    /// bill to `meter` under the phase `"selection"`: one ground-truth
    /// labelling pass over the sample plus one classification pass per
    /// candidate model. The offline harness discards this (selection runs
    /// before the experiment clock starts); the adaptive controller
    /// ([`crate::adapt`]) submits it to the shared [`GpuScheduler`] so a
    /// drift-triggered re-selection competes for the same budget as ingest
    /// and queries instead of being free.
    ///
    /// The bill is every candidate's forward pass over the *whole* sample —
    /// a real sweep needs each object's features to cluster it. The CPU
    /// work is smaller: per candidate the sample is featurized once,
    /// clustered once per `T`, and only the cluster representatives are
    /// ranked (once each, however many `T` values pick them), because a
    /// configuration's expected accuracy and latency read nothing of a
    /// non-representative's ranking — the index stores one top-K list per
    /// cluster, the representative's. `docs/adaptation.md` ("What a
    /// re-selection costs") has the per-stage times.
    ///
    /// [`GpuScheduler`]: focus_runtime::GpuScheduler
    pub fn select_metered(
        &self,
        sample: &VideoDataset,
        gt: &GroundTruthCnn,
        meter: &focus_runtime::GpuMeter,
    ) -> SelectionResult {
        let objects = Self::label_sample(sample, gt);
        // Ground-truth segments (the paper's one-second / 50% smoothing
        // rule) and the dominant classes the expectations are averaged over.
        let labels = GroundTruthLabels::compute(sample, gt);
        let candidates = self.candidates(sample, &objects);
        self.sweep(&objects, &labels, &candidates, gt, meter)
    }

    /// Ground-truth labels every sampled object once; this is the paper's
    /// "sample a representative fraction of frames and classify them with
    /// GT-CNN for the ground truth".
    fn label_sample<'a>(sample: &'a VideoDataset, gt: &GroundTruthCnn) -> Vec<SampleObject<'a>> {
        let mut motion = MotionFilter::new();
        let mut pixel_diff = PixelDiff::new();
        let mut objects = Vec::new();
        for frame in &sample.frames {
            if !motion.admit(frame) {
                continue;
            }
            for obj in &frame.objects {
                let needs_inference =
                    !matches!(pixel_diff.check(obj), PixelDiffOutcome::DuplicateOf(_));
                objects.push(SampleObject {
                    observation: obj,
                    gt_label: gt.classify_top1(obj),
                    frame: obj.frame_id,
                    needs_inference,
                });
            }
        }
        objects
    }

    /// Builds the candidate models of the sweep space, training the
    /// specialized ones on the labelled sample.
    fn candidates(&self, sample: &VideoDataset, objects: &[SampleObject]) -> Vec<Candidate> {
        let mut candidates = Vec::new();
        if self.space.include_generic {
            for spec in &self.space.generic_specs {
                candidates.push(Candidate {
                    choice: ModelChoice::Generic(*spec),
                    cnn: IngestCnn::generic(*spec),
                    k_values: self.space.generic_k.clone(),
                });
            }
        }
        if self.space.include_specialized && !objects.is_empty() {
            let labelled: Vec<(ObjectObservation, ClassId)> = objects
                .iter()
                .map(|o| (o.observation.clone(), o.gt_label))
                .collect();
            for level in &self.space.specialization_levels {
                for ls in &self.space.ls_values {
                    if let Some(model) = focus_cnn::SpecializedCnn::train(
                        &sample.profile.name,
                        *level,
                        &labelled,
                        *ls,
                    ) {
                        candidates.push(Candidate {
                            choice: ModelChoice::Specialized {
                                level: *level,
                                ls: *ls,
                            },
                            cnn: IngestCnn::specialized(model),
                            k_values: self.space.specialized_k.clone(),
                        });
                    }
                }
            }
        }
        candidates
    }

    /// Evaluates every (candidate, T, K) configuration on the labelled
    /// sample and charges the sweep's bill to `meter`.
    fn sweep(
        &self,
        objects: &[SampleObject],
        labels: &GroundTruthLabels,
        candidates: &[Candidate],
        gt: &GroundTruthCnn,
        meter: &focus_runtime::GpuMeter,
    ) -> SelectionResult {
        let dominant: Vec<ClassId> = labels.dominant_classes(self.space.dominant_classes);
        let gt_cost = gt.cost_per_inference().seconds();
        let sample = SweepSample {
            objects,
            labels,
            gt_cost,
            normalizer: gt_cost * objects.len().max(1) as f64,
        };
        let inferences_needed = objects.iter().filter(|o| o.needs_inference).count();

        // The sweep's GPU bill: the GT labelling pass plus one
        // classification pass per candidate model over the sample.
        meter.charge_inferences("selection", gt.cost_per_inference(), objects.len());
        for candidate in candidates {
            meter.charge_inferences(
                "selection",
                candidate.cnn.classifier.cost_per_inference(),
                objects.len(),
            );
        }

        // A class without a ground-truth segment on the sample has no
        // recall to estimate and is left out of every average.
        let truths: Vec<(ClassId, HashSet<u64>)> = dominant
            .iter()
            .map(|&class| (class, labels.truth_segments(class)))
            .filter(|(_, truth)| !truth.is_empty())
            .collect();

        let mut evaluated = Vec::new();
        let mut models: HashMap<String, IngestCnn> = HashMap::new();

        for candidate in candidates {
            models.insert(candidate.choice.display_name(), candidate.cnn.clone());
            let classifier = candidate.cnn.classifier.as_ref();
            let max_k = candidate.k_values.iter().copied().max().unwrap_or(1);
            let targets: Vec<ClassTarget> = truths
                .iter()
                .map(|(class, truth)| ClassTarget {
                    class: *class,
                    lookup_class: candidate.cnn.effective_query_class(*class),
                    truth,
                })
                .collect();
            // Featurize every sampled object once per model.
            let features: Vec<Vec<f32>> = objects
                .iter()
                .map(|o| classifier.extract_features(o.observation).0)
                .collect();
            // The model's ranking of an object, filled in when the object
            // first represents a cluster and kept across the `T` values.
            let mut ranked: Vec<Option<Vec<ClassId>>> = vec![None; objects.len()];
            let ingest_cost = classifier.cost_per_inference().seconds() * inferences_needed as f64;
            let ingest_cost_norm = ingest_cost / sample.normalizer;

            for &threshold in &self.space.thresholds {
                // Cluster once per (model, T); cluster membership does not
                // depend on K.
                let clusters = self.cluster_members(&features, threshold);
                for members in &clusters {
                    let representative = members[0];
                    ranked[representative].get_or_insert_with(|| {
                        classifier
                            .classify_top_k(objects[representative].observation, max_k)
                            .classes()
                    });
                }

                for &k in &candidate.k_values {
                    evaluated.push(Self::evaluate_configuration(
                        &candidate.choice,
                        k,
                        threshold,
                        ingest_cost_norm,
                        &sample,
                        &ranked,
                        &clusters,
                        &targets,
                    ));
                }
            }
        }

        self.conclude(evaluated, dominant, models)
    }

    /// Clusters `features` at one threshold: each cluster's members as
    /// object indices, representative first. With clustering off every
    /// object is its own cluster.
    fn cluster_members(&self, features: &[Vec<f32>], threshold: f32) -> Vec<Vec<usize>> {
        if !(self.space.clustering && threshold > 0.0) {
            return (0..features.len()).map(|i| vec![i]).collect();
        }
        let mut clusterer = IncrementalClusterer::new(threshold, self.space.max_active_clusters);
        for (i, f) in features.iter().enumerate() {
            clusterer.add(i as u64, 0, f);
        }
        let (clusters, _) = clusterer.finish();
        clusters
            .into_iter()
            .map(|c| c.members.iter().map(|m| m.item as usize).collect())
            .collect()
    }

    /// Filters the evaluated configurations down to the viable ones and
    /// their Pareto boundary.
    fn conclude(
        &self,
        evaluated: Vec<ConfigurationPoint>,
        dominant_classes: Vec<ClassId>,
        models: HashMap<String, IngestCnn>,
    ) -> SelectionResult {
        let viable: Vec<ConfigurationPoint> = evaluated
            .iter()
            .filter(|p| self.target.met_by(p.worst_precision, p.worst_recall))
            .cloned()
            .collect();
        let pareto = pareto_boundary(&viable);
        SelectionResult {
            viable,
            pareto,
            evaluated,
            dominant_classes,
            models,
        }
    }

    /// Evaluates a single (model, K, T) configuration on the pre-processed
    /// sample. Precision and recall are measured the same way the end-to-end
    /// evaluation measures them — over one-second ground-truth segments —
    /// so the expectations used for selection are unbiased estimates of what
    /// the full run will achieve.
    ///
    /// `ranked` holds the model's ranking of every cluster representative
    /// (it is never read for any other object).
    #[allow(clippy::too_many_arguments)]
    fn evaluate_configuration(
        choice: &ModelChoice,
        k: usize,
        threshold: f32,
        ingest_cost_norm: f64,
        sample: &SweepSample,
        ranked: &[Option<Vec<ClassId>>],
        clusters: &[Vec<usize>],
        targets: &[ClassTarget],
    ) -> ConfigurationPoint {
        let mut precision_sum = 0.0;
        let mut recall_sum = 0.0;
        let mut worst_precision = 1.0f64;
        let mut worst_recall = 1.0f64;
        let mut query_cost_sum = 0.0;

        for target in targets {
            let mut matched_clusters = 0usize;
            let mut retrieved_frames: HashSet<FrameId> = HashSet::new();
            for members in clusters {
                let representative = members[0];
                let in_top_k = ranked[representative]
                    .iter()
                    .flatten()
                    .take(k)
                    .any(|c| *c == target.lookup_class);
                if !in_top_k {
                    continue;
                }
                matched_clusters += 1;
                // Query-time GT confirmation of the representative.
                if sample.objects[representative].gt_label == target.class {
                    retrieved_frames.extend(members.iter().map(|&i| sample.objects[i].frame));
                }
            }
            let frames: Vec<FrameId> = retrieved_frames.into_iter().collect();
            let report = sample.labels.evaluate_against(target.truth, &frames);
            precision_sum += report.precision;
            recall_sum += report.recall;
            worst_precision = worst_precision.min(report.precision);
            worst_recall = worst_recall.min(report.recall);
            query_cost_sum += matched_clusters as f64 * sample.gt_cost;
        }

        let divisor = targets.len().max(1) as f64;
        ConfigurationPoint {
            model: choice.clone(),
            k,
            threshold,
            ingest_cost_norm,
            query_latency_norm: (query_cost_sum / divisor) / sample.normalizer,
            precision: precision_sum / divisor,
            recall: recall_sum / divisor,
            worst_precision,
            worst_recall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_video::profile::profile_by_name;

    fn sample(stream: &str, secs: f64) -> VideoDataset {
        VideoDataset::generate(profile_by_name(stream).unwrap(), secs)
    }

    fn point(i: f64, q: f64) -> ConfigurationPoint {
        ConfigurationPoint {
            model: ModelChoice::Generic(ModelSpec::cheap_cnn_1()),
            k: 10,
            threshold: 1.0,
            ingest_cost_norm: i,
            query_latency_norm: q,
            precision: 0.99,
            recall: 0.99,
            worst_precision: 0.99,
            worst_recall: 0.99,
        }
    }

    #[test]
    fn pareto_boundary_removes_dominated_points() {
        let points = vec![
            point(0.1, 0.5),
            point(0.2, 0.2),
            point(0.3, 0.3),
            point(0.05, 0.9),
        ];
        let pareto = pareto_boundary(&points);
        // (0.3, 0.3) is dominated by (0.2, 0.2); the rest are incomparable.
        assert_eq!(pareto.len(), 3);
        assert!(pareto
            .iter()
            .all(|p| { !(p.ingest_cost_norm == 0.3 && p.query_latency_norm == 0.3) }));
        // Sorted by ingest cost.
        for w in pareto.windows(2) {
            assert!(w[0].ingest_cost_norm <= w[1].ingest_cost_norm);
        }
    }

    #[test]
    fn dominates_is_strict() {
        assert!(point(0.1, 0.1).dominates(&point(0.2, 0.2)));
        assert!(point(0.1, 0.2).dominates(&point(0.1, 0.3)));
        assert!(!point(0.1, 0.3).dominates(&point(0.2, 0.2)));
        assert!(!point(0.1, 0.1).dominates(&point(0.1, 0.1)));
    }

    #[test]
    fn quick_sweep_finds_viable_configurations() {
        let ds = sample("auburn_c", 90.0);
        let selector = ParameterSelector::new(SweepSpace::quick(), AccuracyTarget::both(0.9));
        let gt = GroundTruthCnn::resnet152();
        let result = selector.select(&ds, &gt);
        assert!(!result.evaluated.is_empty());
        assert!(
            !result.viable.is_empty(),
            "no viable configurations out of {}",
            result.evaluated.len()
        );
        assert!(!result.pareto.is_empty());
        assert!(result.pareto.len() <= result.viable.len());
        assert!(!result.dominant_classes.is_empty());
        // Every viable point meets the target.
        for p in &result.viable {
            assert!(p.precision >= 0.9 - 1e-9);
            assert!(p.recall >= 0.9 - 1e-9);
        }
    }

    #[test]
    fn policies_pick_configurations_with_expected_ordering() {
        let ds = sample("auburn_c", 90.0);
        let selector = ParameterSelector::new(SweepSpace::quick(), AccuracyTarget::both(0.9));
        let gt = GroundTruthCnn::resnet152();
        let result = selector.select(&ds, &gt);
        let opt_ingest = result.choose(TradeoffPolicy::OptIngest).unwrap();
        let balance = result.choose(TradeoffPolicy::Balance).unwrap();
        let opt_query = result.choose(TradeoffPolicy::OptQuery).unwrap();
        assert!(opt_ingest.point.ingest_cost_norm <= balance.point.ingest_cost_norm + 1e-12);
        assert!(opt_ingest.point.ingest_cost_norm <= opt_query.point.ingest_cost_norm + 1e-12);
        assert!(opt_query.point.query_latency_norm <= balance.point.query_latency_norm + 1e-12);
        assert!(opt_query.point.query_latency_norm <= opt_ingest.point.query_latency_norm + 1e-12);
        // The chosen configurations are runnable.
        assert!(opt_ingest.params.k >= 1);
        assert!(balance.model.classifier.cheapness_vs_gt() > 1.0);
    }

    #[test]
    fn specialized_models_win_when_available() {
        // §6.3: specialization is the main source of ingest savings; when
        // the sweep includes specialized candidates the balanced choice
        // should use one of them.
        let ds = sample("auburn_c", 120.0);
        let selector = ParameterSelector::new(SweepSpace::quick(), AccuracyTarget::both(0.9));
        let gt = GroundTruthCnn::resnet152();
        let result = selector.select(&ds, &gt);
        let balance = result.choose(TradeoffPolicy::Balance).unwrap();
        assert!(
            matches!(balance.point.model, ModelChoice::Specialized { .. }),
            "balanced choice was {:?}",
            balance.point.model
        );
    }

    #[test]
    fn ablation_without_clustering_uses_zero_threshold() {
        let space = SweepSpace::quick().for_ablation(AblationMode::CompressedSpecialized);
        assert!(!space.clustering);
        assert_eq!(space.thresholds, vec![0.0]);
        assert!(space.include_specialized);
        let compressed_only = SweepSpace::quick().for_ablation(AblationMode::CompressedOnly);
        assert!(!compressed_only.include_specialized);
        let full = SweepSpace::quick().for_ablation(AblationMode::Full);
        assert!(full.clustering);
    }

    #[test]
    fn no_viable_configuration_yields_none() {
        let ds = sample("bend", 30.0);
        // An impossible accuracy target: nothing can be viable.
        let selector = ParameterSelector::new(SweepSpace::quick(), AccuracyTarget::both(1.0));
        let gt = GroundTruthCnn::resnet152();
        let result = selector.select(&ds, &gt);
        if result.viable.is_empty() {
            assert!(result.choose(TradeoffPolicy::Balance).is_none());
        }
    }

    #[test]
    fn metered_selection_charges_the_sweep_bill() {
        let ds = sample("auburn_c", 60.0);
        let gt = GroundTruthCnn::resnet152();
        let selector = ParameterSelector::new(SweepSpace::adaptive(), AccuracyTarget::both(0.9));
        let meter = focus_runtime::GpuMeter::new();
        let result = selector.select_metered(&ds, &gt, &meter);
        assert!(!result.evaluated.is_empty());
        let billed = meter.phase("selection").seconds();
        // At least the GT labelling pass, at most GT + every candidate at
        // GT price (every candidate is cheaper than GT).
        let objects = ds.object_count() as f64;
        let gt_pass = gt.cost_per_inference().seconds() * objects;
        assert!(billed >= gt_pass);
        assert!(billed <= gt_pass * (2 + result.evaluated.len()) as f64);
        // The adaptive sweep is strictly smaller than the full one.
        assert!(
            SweepSpace::adaptive().generic_specs.len() < SweepSpace::full().generic_specs.len()
        );
    }

    /// The sweep as it was before it ranked representatives only: every
    /// sampled object ranked by every candidate, and the per-class work
    /// (`effective_query_class`, the truth segments inside `evaluate`)
    /// redone for every (T, K). Kept as the reference [`ParameterSelector::sweep`]
    /// is compared against.
    fn eager_sweep(
        selector: &ParameterSelector,
        objects: &[SampleObject],
        labels: &GroundTruthLabels,
        candidates: &[Candidate],
        gt: &GroundTruthCnn,
        meter: &focus_runtime::GpuMeter,
    ) -> SelectionResult {
        let space = &selector.space;
        let dominant = labels.dominant_classes(space.dominant_classes);
        let gt_cost = gt.cost_per_inference().seconds();
        let normalizer = gt_cost * objects.len().max(1) as f64;
        let inferences_needed = objects.iter().filter(|o| o.needs_inference).count();
        meter.charge_inferences("selection", gt.cost_per_inference(), objects.len());
        for candidate in candidates {
            meter.charge_inferences(
                "selection",
                candidate.cnn.classifier.cost_per_inference(),
                objects.len(),
            );
        }
        let mut evaluated = Vec::new();
        let mut models = HashMap::new();
        for candidate in candidates {
            models.insert(candidate.choice.display_name(), candidate.cnn.clone());
            let classifier = candidate.cnn.classifier.as_ref();
            let max_k = candidate.k_values.iter().copied().max().unwrap_or(1);
            let ranked_classes: Vec<Vec<ClassId>> = objects
                .iter()
                .map(|o| classifier.classify_top_k(o.observation, max_k).classes())
                .collect();
            let features: Vec<Vec<f32>> = objects
                .iter()
                .map(|o| classifier.extract_features(o.observation).0)
                .collect();
            let ingest_cost = classifier.cost_per_inference().seconds() * inferences_needed as f64;
            for &threshold in &space.thresholds {
                let clusters = selector.cluster_members(&features, threshold);
                for &k in &candidate.k_values {
                    let mut precision_sum = 0.0;
                    let mut recall_sum = 0.0;
                    let mut worst_precision = 1.0f64;
                    let mut worst_recall = 1.0f64;
                    let mut query_cost_sum = 0.0;
                    let mut classes_counted = 0usize;
                    for &class in &dominant {
                        let lookup_class = candidate.cnn.effective_query_class(class);
                        let mut matched_clusters = 0usize;
                        let mut retrieved_frames: HashSet<FrameId> = HashSet::new();
                        for members in &clusters {
                            let rep_classes = &ranked_classes[members[0]];
                            if !rep_classes.iter().take(k).any(|c| *c == lookup_class) {
                                continue;
                            }
                            matched_clusters += 1;
                            if objects[members[0]].gt_label == class {
                                retrieved_frames.extend(members.iter().map(|&i| objects[i].frame));
                            }
                        }
                        let frames: Vec<FrameId> = retrieved_frames.into_iter().collect();
                        let report = labels.evaluate(class, &frames);
                        if report.truth_segments == 0 {
                            continue;
                        }
                        classes_counted += 1;
                        precision_sum += report.precision;
                        recall_sum += report.recall;
                        worst_precision = worst_precision.min(report.precision);
                        worst_recall = worst_recall.min(report.recall);
                        query_cost_sum += matched_clusters as f64 * gt_cost;
                    }
                    let divisor = classes_counted.max(1) as f64;
                    evaluated.push(ConfigurationPoint {
                        model: candidate.choice.clone(),
                        k,
                        threshold,
                        ingest_cost_norm: ingest_cost / normalizer,
                        query_latency_norm: (query_cost_sum / divisor) / normalizer,
                        precision: precision_sum / divisor,
                        recall: recall_sum / divisor,
                        worst_precision,
                        worst_recall,
                    });
                }
            }
        }
        selector.conclude(evaluated, dominant, models)
    }

    #[test]
    fn sweep_matches_the_eager_reference_bit_for_bit() {
        let gt = GroundTruthCnn::resnet152();
        for stream in ["auburn_c", "cnn", "lausanne"] {
            let ds = sample(stream, 30.0);
            // Ls = 2 under five dominant classes: three of them are looked
            // up through OTHER.
            let through_other = SweepSpace {
                ls_values: vec![2],
                dominant_classes: 5,
                ..SweepSpace::quick()
            };
            for space in [SweepSpace::quick(), SweepSpace::adaptive(), through_other] {
                let selector = ParameterSelector::new(space, AccuracyTarget::both(0.9));
                let objects = ParameterSelector::label_sample(&ds, &gt);
                let labels = GroundTruthLabels::compute(&ds, &gt);
                let candidates = selector.candidates(&ds, &objects);
                assert!(candidates.len() >= 3, "{stream}: generic and specialized");
                assert!(objects.len() > 300, "{stream}: {} objects", objects.len());

                let meter = focus_runtime::GpuMeter::new();
                let got = selector.sweep(&objects, &labels, &candidates, &gt, &meter);
                let reference_meter = focus_runtime::GpuMeter::new();
                let want = eager_sweep(
                    &selector,
                    &objects,
                    &labels,
                    &candidates,
                    &gt,
                    &reference_meter,
                );

                assert!(!got.evaluated.is_empty());
                assert_eq!(got.evaluated, want.evaluated, "{stream}");
                assert_eq!(got.viable, want.viable, "{stream}");
                assert_eq!(got.pareto, want.pareto, "{stream}");
                assert_eq!(got.dominant_classes, want.dominant_classes, "{stream}");
                assert_eq!(
                    meter.phase("selection").seconds().to_bits(),
                    reference_meter.phase("selection").seconds().to_bits()
                );
                for policy in [
                    TradeoffPolicy::OptIngest,
                    TradeoffPolicy::Balance,
                    TradeoffPolicy::OptQuery,
                ] {
                    let got = got.choose_or_best_effort(policy).unwrap();
                    let want = want.choose_or_best_effort(policy).unwrap();
                    assert_eq!(got.point, want.point);
                    assert_eq!(got.params, want.params);
                    assert_eq!(got.met_targets, want.met_targets);
                    assert_eq!(got.model.descriptor, want.model.descriptor);
                }

                // The public entry point is the same sweep on the same
                // inputs.
                let public = selector.select(&ds, &gt);
                assert_eq!(public.evaluated, want.evaluated, "{stream}");
            }
        }
    }

    /// Counts the rankings a candidate is asked for.
    struct CountingClassifier {
        inner: std::sync::Arc<dyn Classifier>,
        top_k_calls: std::sync::atomic::AtomicUsize,
    }

    impl Classifier for CountingClassifier {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn cost_per_inference(&self) -> focus_cnn::GpuCost {
            self.inner.cost_per_inference()
        }
        fn cheapness_vs_gt(&self) -> f64 {
            self.inner.cheapness_vs_gt()
        }
        fn classify_top_k(&self, obj: &ObjectObservation, k: usize) -> focus_cnn::RankedClasses {
            self.top_k_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.classify_top_k(obj, k)
        }
        fn extract_features(&self, obj: &ObjectObservation) -> focus_cnn::FeatureVector {
            self.inner.extract_features(obj)
        }
    }

    #[test]
    fn sweep_ranks_each_cluster_representative_once_and_nothing_else() {
        let gt = GroundTruthCnn::resnet152();
        let ds = sample("auburn_c", 60.0);
        let selector = ParameterSelector::new(SweepSpace::adaptive(), AccuracyTarget::both(0.9));
        let objects = ParameterSelector::label_sample(&ds, &gt);
        let labels = GroundTruthLabels::compute(&ds, &gt);
        let mut candidates = selector.candidates(&ds, &objects);
        let counters: Vec<std::sync::Arc<CountingClassifier>> = candidates
            .iter_mut()
            .map(|candidate| {
                let counter = std::sync::Arc::new(CountingClassifier {
                    inner: candidate.cnn.classifier.clone(),
                    top_k_calls: Default::default(),
                });
                candidate.cnn.classifier = counter.clone();
                counter
            })
            .collect();
        selector.sweep(
            &objects,
            &labels,
            &candidates,
            &gt,
            &focus_runtime::GpuMeter::new(),
        );

        let space = selector.space();
        assert!(
            space.thresholds.len() > 1,
            "the memo needs two T values to matter"
        );
        for counter in &counters {
            let features: Vec<Vec<f32>> = objects
                .iter()
                .map(|o| counter.inner.extract_features(o.observation).0)
                .collect();
            // Objects that represent a cluster at some T, and how often.
            let mut representatives = HashSet::new();
            let mut clusters_total = 0usize;
            for &threshold in &space.thresholds {
                for members in selector.cluster_members(&features, threshold) {
                    representatives.insert(members[0]);
                    clusters_total += 1;
                }
            }
            let calls = counter
                .top_k_calls
                .load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(calls, representatives.len(), "{}", counter.name());
            assert!(
                calls < clusters_total,
                "{}: some object represents a cluster at two T values",
                counter.name()
            );
            assert!(calls < objects.len(), "{}", counter.name());
        }
    }

    #[test]
    fn a_nan_cost_is_ordered_not_a_panic() {
        // `maintain` reaches these through `maybe_reconfigure`; a NaN must
        // come out as an answer.
        let ds = sample("bend", 20.0);
        let gt = GroundTruthCnn::resnet152();
        let selector = ParameterSelector::new(SweepSpace::quick(), AccuracyTarget::both(0.9));
        let mut result = selector.select(&ds, &gt);
        assert!(!result.evaluated.is_empty());
        let mut poisoned = result.evaluated[0].clone();
        poisoned.ingest_cost_norm = f64::NAN;
        poisoned.query_latency_norm = f64::NAN;
        result.evaluated.push(poisoned.clone());
        result.viable.push(poisoned.clone());
        result.pareto = pareto_boundary(&result.viable);
        assert!(result.pareto.iter().any(|p| p.ingest_cost_norm.is_nan()));
        for policy in [
            TradeoffPolicy::OptIngest,
            TradeoffPolicy::Balance,
            TradeoffPolicy::OptQuery,
        ] {
            let chosen = result.choose_or_best_effort(policy).unwrap();
            // NaN orders after every number, so a finite point wins.
            assert!(chosen.point.ingest_cost_norm.is_finite());
        }
        // Best effort over nothing but the NaN point still answers.
        result.viable.clear();
        result.pareto.clear();
        result.evaluated = vec![poisoned];
        let chosen = result
            .choose_or_best_effort(TradeoffPolicy::Balance)
            .unwrap();
        assert!(chosen.point.ingest_cost_norm.is_nan());
        assert!(!chosen.met_targets);
    }

    #[test]
    fn higher_accuracy_targets_shrink_the_viable_set() {
        let ds = sample("auburn_c", 90.0);
        let gt = GroundTruthCnn::resnet152();
        let loose = ParameterSelector::new(SweepSpace::quick(), AccuracyTarget::both(0.85))
            .select(&ds, &gt);
        let strict = ParameterSelector::new(SweepSpace::quick(), AccuracyTarget::both(0.97))
            .select(&ds, &gt);
        assert!(strict.viable.len() <= loose.viable.len());
    }
}
