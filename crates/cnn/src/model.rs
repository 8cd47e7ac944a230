//! The classifier interface, the ground-truth CNN and generic cheap CNNs.
//!
//! The heart of the simulated CNN substrate: instead of real CNN
//! inference, classification outcomes are drawn from a calibrated,
//! deterministic error model. What Focus needs from a classifier is
//!
//! * the GPU cost of one inference (from [`crate::architecture::ModelSpec`]),
//! * a ranked list of classes whose *top-K-contains-the-truth* probability
//!   matches the published Figure-5 curves, and
//! * penultimate-layer feature vectors (from [`crate::features`]).
//!
//! Determinism matters: a real frozen model always gives the same answer for
//! the same pixels. The simulation therefore derives every outcome from a
//! hash of (model identity, object appearance), never from global RNG state.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use focus_video::{ClassId, ObjectObservation, NUM_CLASSES};

use crate::architecture::ModelSpec;
use crate::cost::GpuCost;
use crate::features::{FeatureExtractor, FeatureVector};

/// A ranked classification result: classes in decreasing order of
/// confidence, as returned by an image-classification CNN.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedClasses {
    /// `(class, confidence)` pairs, most confident first.
    pub ranked: Vec<(ClassId, f32)>,
}

impl RankedClasses {
    /// The most confident class.
    pub fn top1(&self) -> Option<ClassId> {
        self.ranked.first().map(|(c, _)| *c)
    }

    /// The classes only, most confident first.
    pub fn classes(&self) -> Vec<ClassId> {
        self.ranked.iter().map(|(c, _)| *c).collect()
    }

    /// Whether `class` appears among the first `k` results.
    pub fn contains_in_top(&self, class: ClassId, k: usize) -> bool {
        self.ranked.iter().take(k).any(|(c, _)| *c == class)
    }

    /// Rank (1-based) of `class`, if present.
    pub fn rank_of(&self, class: ClassId) -> Option<usize> {
        self.ranked
            .iter()
            .position(|(c, _)| *c == class)
            .map(|p| p + 1)
    }
}

/// Common interface of every classifier model in the system (ground truth,
/// generic compressed, specialized).
pub trait Classifier: Send + Sync {
    /// Human-readable model name (used in reports and as part of the
    /// deterministic seed).
    fn name(&self) -> &str;

    /// GPU cost of classifying one object.
    fn cost_per_inference(&self) -> GpuCost;

    /// How many times cheaper one inference is than the ground-truth CNN.
    fn cheapness_vs_gt(&self) -> f64;

    /// Returns the `k` most confident classes for the object, most confident
    /// first and each at most once — fewer than `k` when the model has fewer
    /// labels to give: a generic model or the ground truth returns
    /// `min(k, NUM_CLASSES)` classes (one fewer when the true class ranks
    /// beyond them), a specialized model at most its `Ls + 1` labels. Any
    /// `k` is safe to ask for; `0` is read as `1`.
    fn classify_top_k(&self, obj: &ObjectObservation, k: usize) -> RankedClasses;

    /// Extracts the penultimate-layer feature vector for the object.
    fn extract_features(&self, obj: &ObjectObservation) -> FeatureVector;

    /// Convenience: the single most confident class.
    fn classify_top1(&self, obj: &ObjectObservation) -> ClassId {
        self.classify_top_k(obj, 1).top1().unwrap_or(ClassId(0))
    }
}

/// Calibration of the rank-error model: interpolation points mapping a
/// model's rank quality to `(top1_probability, tail_decay)` so that the
/// resulting recall-vs-K curves match Figure 5 of the paper.
///
/// * `top1_probability` — chance the ground-truth class is the model's
///   top-most answer.
/// * `tail_decay` — geometric decay of the rank when it is not top-most;
///   smaller values push the true class deeper into the ranking, requiring a
///   larger K.
const RANK_CALIBRATION: &[(f64, f64, f64)] = &[
    // (rank_quality, top1_probability, tail_decay)
    (0.40, 0.15, 0.006),
    (0.55, 0.25, 0.009), // ≈ CheapCNN3 (58× cheaper): ~90% recall at K ≈ 200
    (0.68, 0.35, 0.016), // ≈ CheapCNN2 (28× cheaper): ~90% recall at K ≈ 100
    (0.86, 0.45, 0.025), // ≈ CheapCNN1 (7× cheaper):  ~90% recall at K ≈ 60
    (0.97, 0.90, 0.250),
    (1.00, 0.96, 0.600), // the ground-truth model itself
];

/// Maps a rank quality to the `(top1_probability, tail_decay)` pair by
/// piecewise-linear interpolation over the `RANK_CALIBRATION` anchors.
pub fn rank_error_parameters(rank_quality: f64) -> (f64, f64) {
    let q = rank_quality.clamp(RANK_CALIBRATION[0].0, 1.0);
    let mut prev = RANK_CALIBRATION[0];
    for &point in RANK_CALIBRATION.iter() {
        if q <= point.0 {
            let (q0, a0, p0) = prev;
            let (q1, a1, p1) = point;
            if (q1 - q0).abs() < 1e-12 {
                return (a1, p1);
            }
            let t = (q - q0) / (q1 - q0);
            return (a0 + t * (a1 - a0), p0 + t * (p1 - p0));
        }
        prev = point;
    }
    let last = RANK_CALIBRATION[RANK_CALIBRATION.len() - 1];
    (last.1, last.2)
}

fn hash64(parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

/// Uniform `[0, 1)` value derived from a hash.
fn unit_from_hash(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn name_seed(name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// Appearance drift bucket used to keep classification outcomes stable for
/// near-identical observations of the same object while letting them change
/// as the object's appearance drifts (§2.2.3).
fn drift_bucket(drift: f32) -> u64 {
    // One bucket corresponds to roughly one second of accumulated
    // appearance drift: the same physical object keeps (or misses) its
    // classification for about a second at a time, so errors are correlated
    // across the near-duplicate observations the way a real frozen model's
    // errors are.
    (drift / 0.6).floor() as u64
}

/// The confusion sequence for one classification: the plausible-but-wrong
/// classes a model ranks highly when it is unsure.
///
/// Roughly a quarter of the filler slots are "neighbouring" classes
/// (visually similar classes occupy nearby ids in the synthetic label
/// space), the rest are drawn pseudo-randomly from the full label space. The
/// sequence is deterministic per `(true class, slot, seed)` but varies
/// between observations (the seed includes the object), so a wrong class
/// appears in another class's top-K with a realistic probability rather
/// than always or never.
pub fn confusion_class(true_class: ClassId, slot: usize, seed: u64) -> ClassId {
    let base = true_class.0 as i32;
    let h = hash64(&[seed, 0xC0FF_E77E, true_class.0 as u64, slot as u64]);
    if h.is_multiple_of(4) {
        let offsets = [1i32, -1, 2, -2, 3, -3, 4, 5];
        // Clamp (rather than wrap) at the label-space edges so confusions
        // stay in the visually similar neighbourhood.
        let cand = (base + offsets[((h >> 3) % 8) as usize]).clamp(0, NUM_CLASSES as i32 - 1);
        return ClassId(cand as u16);
    }
    ClassId(((h >> 5) % NUM_CLASSES as u64) as u16)
}

/// The classes a ranking under construction has already used: one bit per
/// class of the label space (128 bytes — the ground-truth `classify_top1`
/// on the query path builds one per call), so asking "is this filler
/// taken?" does not rescan the list.
struct TakenClasses {
    bits: [u64; (NUM_CLASSES as usize).div_ceil(64)],
    /// Classes of the label space not taken yet.
    free: usize,
}

impl TakenClasses {
    fn new() -> Self {
        Self {
            bits: [0; (NUM_CLASSES as usize).div_ceil(64)],
            free: NUM_CLASSES as usize,
        }
    }

    /// Marks `class` as taken; `false` when it already was. A class outside
    /// the label space is never a filler candidate and is not tracked.
    fn take(&mut self, class: ClassId) -> bool {
        if !class.is_valid() {
            return false;
        }
        let (word, bit) = (class.0 as usize / 64, 1u64 << (class.0 % 64));
        let fresh = self.bits[word] & bit == 0;
        if fresh {
            self.bits[word] |= bit;
            self.free -= 1;
        }
        fresh
    }
}

/// Builds the ranked output list for an object given the rank at which the
/// ground-truth class must appear (`usize::MAX` places it beyond every
/// returned slot). The list ends early when the label space is exhausted:
/// at most `NUM_CLASSES` entries, one fewer when the true class ranks beyond
/// them.
fn build_ranked(
    true_class: ClassId,
    true_rank: usize,
    k: usize,
    fill_seed: u64,
    confidence_seed: u64,
) -> RankedClasses {
    let mut ranked = Vec::with_capacity(k.min(NUM_CLASSES as usize));
    // The true class is never a filler, so it appears exactly once (at its
    // rank) or not at all.
    let mut taken = TakenClasses::new();
    taken.take(true_class);
    let mut filler = 0usize;
    while ranked.len() < k {
        let position = ranked.len() + 1;
        let class = if position == true_rank {
            true_class
        } else if taken.free == 0 {
            break;
        } else {
            loop {
                let cand = confusion_class(true_class, filler, fill_seed);
                filler += 1;
                if taken.take(cand) {
                    break cand;
                }
            }
        };
        let noise = unit_from_hash(hash64(&[confidence_seed, position as u64])) as f32;
        let confidence = (1.0 / position as f32) * (0.85 + 0.15 * noise);
        ranked.push((class, confidence));
    }
    RankedClasses { ranked }
}

/// The ground-truth CNN (ResNet152 in the paper).
///
/// Focus treats its output as the accuracy baseline. Like the real model it
/// is imperfect in a specific way the paper calls out (§6.1): it can give
/// different answers for the same object in consecutive frames. That flicker
/// is reproduced here (a small per-frame chance of answering with a
/// confusable class) so the one-second ground-truth smoothing rule has real
/// work to do.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundTruthCnn {
    name: String,
    flicker_probability: f64,
    features: FeatureExtractor,
}

impl Default for GroundTruthCnn {
    fn default() -> Self {
        Self::resnet152()
    }
}

impl GroundTruthCnn {
    /// The default ground-truth model, ResNet152.
    pub fn resnet152() -> Self {
        Self {
            name: "ResNet152".to_string(),
            flicker_probability: 0.02,
            features: FeatureExtractor::new("ResNet152", 0.01),
        }
    }

    /// A ground-truth model with a custom per-frame flicker probability
    /// (used by tests).
    pub fn with_flicker(flicker_probability: f64) -> Self {
        Self {
            name: "ResNet152".to_string(),
            flicker_probability: flicker_probability.clamp(0.0, 1.0),
            features: FeatureExtractor::new("ResNet152", 0.01),
        }
    }

    /// Classifies a batch of objects in one GPU submission, returning the
    /// top-1 class of each object in input order.
    ///
    /// The *labels* are identical to calling
    /// [`classify_top1`](Classifier::classify_top1) per object — batching
    /// changes how the GPU is driven, never what the frozen model answers —
    /// but the *cost* of the batch is amortized: per-launch overhead is paid
    /// once per batch instead of once per image (see
    /// `focus_runtime::BatchCostModel`, which converts a batch size into
    /// GPU time). This is the path the query server uses to verify the
    /// deduplicated union of cluster centroids across concurrent queries.
    ///
    /// # Examples
    ///
    /// Batched answers are exactly the serial answers:
    ///
    /// ```
    /// use focus_cnn::{Classifier, GroundTruthCnn};
    /// use focus_video::{profile::profile_by_name, VideoDataset};
    ///
    /// let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 10.0);
    /// let objects: Vec<_> = ds.objects().take(16).cloned().collect();
    /// let gt = GroundTruthCnn::resnet152();
    ///
    /// let batched = gt.classify_batch(&objects);
    /// let serial: Vec<_> = objects.iter().map(|o| gt.classify_top1(o)).collect();
    /// assert_eq!(batched, serial);
    /// ```
    ///
    /// An empty batch is a no-op:
    ///
    /// ```
    /// use focus_cnn::GroundTruthCnn;
    ///
    /// let gt = GroundTruthCnn::resnet152();
    /// assert!(gt.classify_batch(&[]).is_empty());
    /// ```
    pub fn classify_batch(&self, objects: &[ObjectObservation]) -> Vec<ClassId> {
        objects.iter().map(|o| self.classify_top1(o)).collect()
    }
}

impl Classifier for GroundTruthCnn {
    fn name(&self) -> &str {
        &self.name
    }

    fn cost_per_inference(&self) -> GpuCost {
        GpuCost::gt_inference()
    }

    fn cheapness_vs_gt(&self) -> f64 {
        1.0
    }

    fn classify_top_k(&self, obj: &ObjectObservation, k: usize) -> RankedClasses {
        let seed = name_seed(&self.name);
        let flicker_roll = unit_from_hash(hash64(&[
            seed,
            0xF11C,
            obj.appearance.track_signature,
            obj.frame_id.0,
        ]));
        let confidence_seed = hash64(&[seed, obj.object_id.0]);
        if flicker_roll < self.flicker_probability {
            // A momentary misclassification: some essentially arbitrary class
            // wins this frame and the true class drops to rank 2. The wrong
            // answer is not systematically the same confusable class — a
            // strong model's rare errors are scattered — which is what the
            // paper's one-second ground-truth smoothing rule absorbs.
            let wrong_raw = hash64(&[seed, 0xF11D, obj.object_id.0]) % NUM_CLASSES as u64;
            let mut wrong = ClassId(wrong_raw as u16);
            if wrong == obj.true_class {
                wrong = ClassId((wrong_raw as u16 + 1) % NUM_CLASSES);
            }
            let mut ranked = build_ranked(
                obj.true_class,
                2,
                k.max(1),
                confidence_seed,
                confidence_seed,
            );
            if let Some((first, rest)) = ranked.ranked.split_first_mut() {
                // `wrong` may already sit in a filler slot further down;
                // that slot takes the class `wrong` displaces, so the list
                // stays duplicate-free.
                let displaced = std::mem::replace(&mut first.0, wrong);
                if let Some(slot) = rest.iter_mut().find(|(c, _)| *c == wrong) {
                    slot.0 = displaced;
                }
            }
            return ranked;
        }
        build_ranked(
            obj.true_class,
            1,
            k.max(1),
            confidence_seed,
            confidence_seed,
        )
    }

    fn extract_features(&self, obj: &ObjectObservation) -> FeatureVector {
        self.features.extract(obj)
    }
}

/// A generic (compressed but not specialized) cheap CNN.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheapCnn {
    spec: ModelSpec,
    name: String,
    top1_probability: f64,
    tail_decay: f64,
    features: FeatureExtractor,
}

impl CheapCnn {
    /// Builds the cheap model described by `spec`.
    pub fn from_spec(spec: ModelSpec) -> Self {
        let name = spec.display_name();
        let (top1_probability, tail_decay) = rank_error_parameters(spec.rank_quality());
        // Cheaper models extract noisier features; the noise stays small
        // enough that nearest neighbours still share classes (§2.2.3).
        let noise = (0.015 + 0.0006 * spec.cheapness()).min(0.08) as f32;
        Self {
            features: FeatureExtractor::new(name.clone(), noise),
            spec,
            name,
            top1_probability,
            tail_decay,
        }
    }

    /// CheapCNN1 of Figure 5 (≈7× cheaper than the ground truth).
    pub fn cheap_cnn_1() -> Self {
        Self::from_spec(ModelSpec::cheap_cnn_1())
    }

    /// CheapCNN2 of Figure 5 (≈28× cheaper).
    pub fn cheap_cnn_2() -> Self {
        Self::from_spec(ModelSpec::cheap_cnn_2())
    }

    /// CheapCNN3 of Figure 5 (≈58× cheaper).
    pub fn cheap_cnn_3() -> Self {
        Self::from_spec(ModelSpec::cheap_cnn_3())
    }

    /// The model spec this cheap CNN was built from.
    pub fn spec(&self) -> ModelSpec {
        self.spec
    }

    /// The calibrated rank-error parameters `(top1_probability, tail_decay)`.
    pub fn rank_parameters(&self) -> (f64, f64) {
        (self.top1_probability, self.tail_decay)
    }

    /// The rank at which the ground-truth class appears in this model's
    /// output for `obj`. Deterministic per (model, track, drift bucket).
    fn true_class_rank(&self, obj: &ObjectObservation) -> usize {
        let seed = name_seed(&self.name);
        let key = hash64(&[
            seed,
            0x4A4E,
            obj.appearance.track_signature,
            drift_bucket(obj.appearance.drift),
        ]);
        let u = unit_from_hash(key);
        if u < self.top1_probability {
            return 1;
        }
        // Geometric tail: deeper ranks for cheaper models.
        let v = unit_from_hash(hash64(&[key, 0x7A11]));
        let decay = self.tail_decay.clamp(1e-4, 0.999);
        let extra = ((1.0 - v).ln() / (1.0 - decay).ln()).ceil().max(1.0);
        1 + extra as usize
    }
}

impl Classifier for CheapCnn {
    fn name(&self) -> &str {
        &self.name
    }

    fn cost_per_inference(&self) -> GpuCost {
        GpuCost::inference_with_cheapness(self.spec.cheapness())
    }

    fn cheapness_vs_gt(&self) -> f64 {
        self.spec.cheapness()
    }

    fn classify_top_k(&self, obj: &ObjectObservation, k: usize) -> RankedClasses {
        let seed = name_seed(&self.name);
        let rank = self.true_class_rank(obj);
        let confidence_seed = hash64(&[seed, obj.object_id.0]);
        build_ranked(
            obj.true_class,
            rank,
            k.max(1),
            confidence_seed,
            confidence_seed,
        )
    }

    fn extract_features(&self, obj: &ObjectObservation) -> FeatureVector {
        self.features.extract(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_video::{profile, VideoDataset};

    fn sample_objects(n: usize) -> Vec<ObjectObservation> {
        let ds = VideoDataset::generate(profile::profile_by_name("lausanne").unwrap(), 600.0);
        ds.objects().take(n).cloned().collect()
    }

    fn recall_at_k(model: &dyn Classifier, objects: &[ObjectObservation], k: usize) -> f64 {
        let hit = objects
            .iter()
            .filter(|o| model.classify_top_k(o, k).contains_in_top(o.true_class, k))
            .count();
        hit as f64 / objects.len() as f64
    }

    #[test]
    fn ground_truth_is_almost_always_right() {
        let gt = GroundTruthCnn::resnet152();
        let objects = sample_objects(2000);
        let correct = objects
            .iter()
            .filter(|o| gt.classify_top1(o) == o.true_class)
            .count();
        let accuracy = correct as f64 / objects.len() as f64;
        assert!(accuracy > 0.93, "GT top-1 accuracy = {accuracy}");
        assert!(accuracy < 1.0, "GT should flicker occasionally");
    }

    #[test]
    fn ground_truth_without_flicker_is_perfect() {
        let gt = GroundTruthCnn::with_flicker(0.0);
        let objects = sample_objects(500);
        assert!(objects.iter().all(|o| gt.classify_top1(o) == o.true_class));
    }

    #[test]
    fn classification_is_deterministic() {
        let cheap = CheapCnn::cheap_cnn_2();
        let objects = sample_objects(50);
        for o in &objects {
            assert_eq!(cheap.classify_top_k(o, 30), cheap.classify_top_k(o, 30));
        }
    }

    #[test]
    fn ranked_output_has_unique_classes_and_descending_confidence() {
        let cheap = CheapCnn::cheap_cnn_1();
        let objects = sample_objects(20);
        for o in &objects {
            let out = cheap.classify_top_k(o, 50);
            assert_eq!(out.ranked.len(), 50);
            let mut seen = std::collections::HashSet::new();
            for (c, _) in &out.ranked {
                assert!(seen.insert(*c), "duplicate class in ranked output");
            }
            for w in out.ranked.windows(2) {
                assert!(w[0].1 >= w[1].1 * 0.5, "confidences roughly descend");
            }
        }
    }

    #[test]
    fn recall_grows_with_k_and_with_model_quality() {
        // The qualitative content of Figure 5.
        let objects = sample_objects(3000);
        let c1 = CheapCnn::cheap_cnn_1();
        let c2 = CheapCnn::cheap_cnn_2();
        let c3 = CheapCnn::cheap_cnn_3();
        for model in [&c1, &c2, &c3] {
            let r10 = recall_at_k(model, &objects, 10);
            let r60 = recall_at_k(model, &objects, 60);
            let r200 = recall_at_k(model, &objects, 200);
            assert!(
                r10 < r60 && r60 < r200,
                "{}: {r10} {r60} {r200}",
                model.name()
            );
        }
        // At equal K, the more expensive model has better recall.
        let k = 60;
        assert!(recall_at_k(&c1, &objects, k) > recall_at_k(&c2, &objects, k));
        assert!(recall_at_k(&c2, &objects, k) > recall_at_k(&c3, &objects, k));
    }

    #[test]
    fn recall_calibration_matches_figure5_anchors() {
        let objects = sample_objects(4000);
        // CheapCNN1 reaches ~90% recall at K = 60, CheapCNN2 at K = 100,
        // CheapCNN3 at K = 200 (Figure 5). Allow a generous band — the
        // claim is about shape, not the third decimal.
        let r1 = recall_at_k(&CheapCnn::cheap_cnn_1(), &objects, 60);
        let r2 = recall_at_k(&CheapCnn::cheap_cnn_2(), &objects, 100);
        let r3 = recall_at_k(&CheapCnn::cheap_cnn_3(), &objects, 200);
        for (name, r) in [
            ("CheapCNN1@60", r1),
            ("CheapCNN2@100", r2),
            ("CheapCNN3@200", r3),
        ] {
            assert!((0.82..=0.97).contains(&r), "{name}: recall {r}");
        }
    }

    #[test]
    fn cheap_models_cost_less() {
        let gt = GroundTruthCnn::resnet152();
        let c3 = CheapCnn::cheap_cnn_3();
        assert!(c3.cost_per_inference() < gt.cost_per_inference());
        assert!(c3.cheapness_vs_gt() > 40.0);
        assert_eq!(gt.cheapness_vs_gt(), 1.0);
    }

    #[test]
    fn rank_error_interpolation_is_monotone() {
        let mut prev = rank_error_parameters(0.40);
        for q in [0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            let cur = rank_error_parameters(q);
            assert!(cur.0 >= prev.0, "top1 probability must not decrease");
            assert!(cur.1 >= prev.1, "tail decay must not decrease");
            prev = cur;
        }
        // Out-of-range queries clamp.
        assert_eq!(rank_error_parameters(0.0), rank_error_parameters(0.40));
        assert_eq!(rank_error_parameters(2.0), rank_error_parameters(1.0));
    }

    #[test]
    fn ranked_classes_helpers() {
        let rc = RankedClasses {
            ranked: vec![(ClassId(5), 0.9), (ClassId(2), 0.5), (ClassId(7), 0.1)],
        };
        assert_eq!(rc.top1(), Some(ClassId(5)));
        assert_eq!(rc.classes(), vec![ClassId(5), ClassId(2), ClassId(7)]);
        assert!(rc.contains_in_top(ClassId(2), 2));
        assert!(!rc.contains_in_top(ClassId(7), 2));
        assert_eq!(rc.rank_of(ClassId(7)), Some(3));
        assert_eq!(rc.rank_of(ClassId(9)), None);
        let empty = RankedClasses { ranked: vec![] };
        assert_eq!(empty.top1(), None);
    }

    #[test]
    fn classify_batch_matches_serial_classification() {
        let gt = GroundTruthCnn::resnet152();
        let objects = sample_objects(200);
        let batched = gt.classify_batch(&objects);
        assert_eq!(batched.len(), objects.len());
        for (obj, label) in objects.iter().zip(batched.iter()) {
            assert_eq!(*label, gt.classify_top1(obj));
        }
        assert!(gt.classify_batch(&[]).is_empty());
    }

    #[test]
    fn oversized_k_returns_the_label_space_instead_of_spinning() {
        // Regression: with 999 non-true classes to fill from, asking for
        // more never terminated. Every model must now hand back the classes
        // there are, each once.
        let objects = sample_objects(4);
        let models: Vec<Box<dyn Classifier>> = vec![
            Box::new(GroundTruthCnn::with_flicker(0.0)),
            Box::new(GroundTruthCnn::with_flicker(1.0)),
            Box::new(CheapCnn::cheap_cnn_1()),
            Box::new(CheapCnn::cheap_cnn_2()),
            Box::new(CheapCnn::cheap_cnn_3()),
        ];
        let label_space = NUM_CLASSES as usize;
        for model in &models {
            for k in [999usize, 1000, 1001, 5000] {
                for o in &objects {
                    let out = model.classify_top_k(o, k);
                    let mut seen = std::collections::HashSet::new();
                    for (c, _) in &out.ranked {
                        assert!(c.is_valid());
                        assert!(seen.insert(*c), "{} k={k}: duplicate {c:?}", model.name());
                    }
                    // The true class is the one label that can be missing:
                    // it is placed at its rank or not at all.
                    let expected = if seen.contains(&o.true_class) {
                        k.min(label_space)
                    } else {
                        k.min(label_space - 1)
                    };
                    assert_eq!(out.ranked.len(), expected, "{} k={k}", model.name());
                }
            }
        }
    }

    #[test]
    fn flicker_replaces_the_top_answer_without_duplicating_it() {
        let gt = GroundTruthCnn::with_flicker(1.0);
        for o in &sample_objects(300) {
            let out = gt.classify_top_k(o, 200);
            assert_eq!(out.ranked.len(), 200);
            assert_ne!(out.ranked[0].0, o.true_class);
            assert_eq!(out.ranked[1].0, o.true_class);
            let distinct: std::collections::HashSet<_> = out.classes().into_iter().collect();
            assert_eq!(distinct.len(), 200);
        }
    }

    /// The list builder as it was before the taken set: every filler
    /// candidate is checked against the whole list so far, O(K²). Kept as
    /// the reference `build_ranked` is compared against. One deviation: the
    /// original looped forever once all 999 non-true classes were placed;
    /// this one stops there.
    fn build_ranked_quadratic(
        true_class: ClassId,
        true_rank: usize,
        k: usize,
        fill_seed: u64,
        confidence_seed: u64,
    ) -> RankedClasses {
        let mut ranked: Vec<(ClassId, f32)> = Vec::new();
        let mut filler = 0usize;
        let mut fillers_placed = 0usize;
        while ranked.len() < k {
            let position = ranked.len() + 1;
            let class = if position == true_rank {
                true_class
            } else {
                if fillers_placed == NUM_CLASSES as usize - 1 {
                    break;
                }
                let mut cand = confusion_class(true_class, filler, fill_seed);
                filler += 1;
                while cand == true_class || ranked.iter().any(|(c, _)| *c == cand) {
                    cand = confusion_class(true_class, filler, fill_seed);
                    filler += 1;
                }
                fillers_placed += 1;
                cand
            };
            let noise = unit_from_hash(hash64(&[confidence_seed, position as u64])) as f32;
            let confidence = (1.0 / position as f32) * (0.85 + 0.15 * noise);
            ranked.push((class, confidence));
        }
        RankedClasses { ranked }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// The O(K) builder returns exactly the `(class, confidence)`
            /// list of the O(K²) original, wherever the true class ranks.
            #[test]
            fn build_ranked_matches_the_quadratic_original(
                k in 1usize..1001,
                true_class in 0usize..NUM_CLASSES as usize,
                // 0: inside the list, 1: just beyond it, 2: `usize::MAX`,
                // 3: rank 2 with one seed for both roles, as the ground
                // truth's flicker path calls it.
                placement in 0usize..4,
                offset in 0usize..1000,
                fill_seed in 0u64..u64::MAX,
                confidence_seed in 0u64..u64::MAX,
            ) {
                let true_class = ClassId(true_class as u16);
                let (true_rank, fill_seed) = match placement {
                    0 => (1 + offset % k, fill_seed),
                    1 => (k + 1 + offset, fill_seed),
                    2 => (usize::MAX, fill_seed),
                    _ => (2, confidence_seed),
                };
                let fast = build_ranked(true_class, true_rank, k, fill_seed, confidence_seed);
                let slow =
                    build_ranked_quadratic(true_class, true_rank, k, fill_seed, confidence_seed);
                prop_assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn confusion_sequence_is_deterministic_and_avoidable() {
        let a = confusion_class(ClassId(0), 0, 42);
        let b = confusion_class(ClassId(0), 0, 42);
        assert_eq!(a, b);
        assert_ne!(a, ClassId(0));
        let far = confusion_class(ClassId(0), 20, 42);
        assert!(far.is_valid());
    }
}
