//! Feature vectors and their extraction.
//!
//! Focus clusters objects by the feature vector output by the
//! previous-to-last layer of the cheap ingest CNN (§2.1, §4.2). The paper
//! verifies (§2.2.3) that these features are robust: the nearest neighbour
//! of an object in feature space has the same class more than 99% of the
//! time, even with features from the cheap ResNet18.
//!
//! The synthetic extractor reproduces that geometry. Every observation's
//! feature vector is the sum of
//!
//! * a **class-group anchor** (shared by a small group of visually
//!   confusable classes; groups are far apart),
//! * a **class offset** separating confusable classes within a group,
//! * a **track offset** (shared by all observations of one physical object),
//! * an **appearance-pose offset** that stays constant for a dozen or so
//!   consecutive frames and then jumps as the object's appearance drifts
//!   (new angle, lighting), and
//! * **extraction noise** that grows mildly as the extracting model gets
//!   cheaper.
//!
//! Consequently consecutive observations of one object are nearly
//! identical, one object's appearances over time form a handful of nearby
//! "poses", and distinct classes only start to blur together at distances
//! comparable to the pose spread — exactly the structure the clustering
//! threshold `T` navigates (§4.2).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use focus_video::ObjectObservation;

/// Dimensionality of the synthetic feature vectors.
///
/// Real classifier CNNs produce 512–4096-dimensional penultimate features;
/// the clustering behaviour only depends on relative distances, so a smaller
/// dimension keeps the simulation fast without changing the geometry.
pub const FEATURE_DIM: usize = 32;

/// Scale of the class-group anchor component. Classes are organised in
/// small groups of visually confusable classes (car/truck/bus/van, ...);
/// groups are far apart in feature space.
const GROUP_SCALE: f32 = 1.0;
/// Scale of the within-group offset that separates confusable classes from
/// each other. Deliberately small relative to the appearance spread, so an
/// overly large clustering threshold `T` that merges distinct appearances
/// also starts to merge confusable classes — the precision risk §4.2
/// describes.
const CLASS_OFFSET_SCALE: f32 = 0.18;
/// Scale of the per-track offset component: different physical objects of
/// the same class (different cars) are separated, but less than their
/// appearance spread, mirroring how real embeddings of a class overlap.
const TRACK_SCALE: f32 = 0.2;
/// How much appearance drift a track accumulates before its feature vector
/// jumps to a new "appearance pose" (a new lighting/angle regime). One pose
/// lasts roughly a dozen frames, so clusters built at a tight threshold hold
/// tens of observations — the redundancy-elimination granularity the
/// paper's query speed-ups imply.
const DRIFT_POSE_SIZE: f32 = 0.25;
/// Scale of the per-pose appearance offset. Comparable to the inter-track
/// and inter-class spreads, so a clustering threshold loose enough to merge
/// different poses of one object also risks merging confusable classes.
const POSE_SCALE: f32 = 0.7;
/// Number of consecutive class ids that form one visually confusable group.
const CLASS_GROUP_SIZE: u16 = 4;

/// A dense feature vector in `R^FEATURE_DIM`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector(pub Vec<f32>);

impl FeatureVector {
    /// Creates a vector from raw components.
    ///
    /// # Panics
    ///
    /// Panics if the component count differs from [`FEATURE_DIM`].
    pub fn new(values: Vec<f32>) -> Self {
        assert_eq!(values.len(), FEATURE_DIM, "feature dimension mismatch");
        Self(values)
    }

    /// Dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Euclidean (L2) distance to another vector, the metric Focus clusters
    /// by (§4.2).
    pub fn l2_distance(&self, other: &FeatureVector) -> f32 {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Squared L2 distance (cheaper; monotone in the distance).
    pub fn l2_distance_sq(&self, other: &FeatureVector) -> f32 {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
    }

    /// L2 norm of the vector.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Element-wise scaling used for centroid maintenance.
    pub fn scale(&mut self, factor: f32) {
        for a in &mut self.0 {
            *a *= factor;
        }
    }
}

fn seeded_unit_vector(seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..FEATURE_DIM)
        .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
        .collect()
}

fn hash_seed(parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    for p in parts {
        p.hash(&mut h);
    }
    h.finish()
}

/// Deterministic feature extractor attributed to a specific model.
///
/// `noise` models how much worse a cheaper model's features are; Focus
/// extracts features from the cheap ingest CNN, so its clustering sees the
/// slightly noisier geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Name of the model the features are attributed to (part of the seed so
    /// different models produce different — but internally consistent —
    /// embeddings).
    pub model_name: String,
    /// Standard scale of per-observation extraction noise.
    pub noise: f32,
}

impl FeatureExtractor {
    /// Extractor for a model with the given per-observation noise scale.
    pub fn new(model_name: impl Into<String>, noise: f32) -> Self {
        Self {
            model_name: model_name.into(),
            noise: noise.max(0.0),
        }
    }

    fn model_seed(&self) -> u64 {
        hash_seed(&[0xFEA7, self.model_name.len() as u64, {
            let mut h = DefaultHasher::new();
            self.model_name.hash(&mut h);
            h.finish()
        }])
    }

    /// Extracts the feature vector of one observation.
    pub fn extract(&self, obj: &ObjectObservation) -> FeatureVector {
        let model_seed = self.model_seed();
        let group = obj.true_class.0 / CLASS_GROUP_SIZE;
        let group_anchor =
            seeded_unit_vector(hash_seed(&[model_seed, 0x6409, group as u64]), GROUP_SCALE);
        let class_offset = seeded_unit_vector(
            hash_seed(&[model_seed, 0xC1A55, obj.appearance.class_signature]),
            CLASS_OFFSET_SCALE,
        );
        let track_offset = seeded_unit_vector(
            hash_seed(&[model_seed, 0x7AC4, obj.appearance.track_signature]),
            TRACK_SCALE,
        );
        // The object's current appearance pose: constant for a dozen or so
        // consecutive frames, then jumps as the accumulated drift crosses a
        // pose boundary. Poses stay within a bounded ball around the track,
        // so a track never wanders into another class's region.
        let pose = (obj.appearance.drift / DRIFT_POSE_SIZE).floor() as i64 as u64;
        let pose_offset = seeded_unit_vector(
            hash_seed(&[model_seed, 0xD41F7, obj.appearance.track_signature, pose]),
            POSE_SCALE,
        );
        let noise = seeded_unit_vector(
            hash_seed(&[
                model_seed,
                0x0153,
                obj.appearance.track_signature,
                obj.object_id.0,
            ]),
            self.noise,
        );
        let values: Vec<f32> = (0..FEATURE_DIM)
            .map(|i| {
                group_anchor[i] + class_offset[i] + track_offset[i] + pose_offset[i] + noise[i]
            })
            .collect();
        FeatureVector(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_video::{Appearance, BoundingBox, ClassId, FrameId, ObjectId, StreamId, TrackId};

    fn obs(object_id: u64, track: u64, class: u64, drift: f32) -> ObjectObservation {
        ObjectObservation {
            object_id: ObjectId(object_id),
            track_id: TrackId(track),
            frame_id: FrameId(object_id),
            stream_id: StreamId(0),
            true_class: ClassId(class as u16),
            bbox: BoundingBox::default(),
            appearance: Appearance {
                track_signature: track.wrapping_mul(0x9E3779B97F4A7C15),
                class_signature: class.wrapping_mul(0xD6E8FEB86659FD93),
                drift,
                pixel_signature: 0,
            },
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let ex = FeatureExtractor::new("ResNet18", 0.02);
        let a = ex.extract(&obs(1, 10, 3, 0.1));
        let b = ex.extract(&obs(1, 10, 3, 0.1));
        assert_eq!(a, b);
    }

    #[test]
    fn same_track_is_much_closer_than_other_classes() {
        let ex = FeatureExtractor::new("ResNet18", 0.02);
        let a = ex.extract(&obs(1, 10, 3, 0.10));
        let b = ex.extract(&obs(2, 10, 3, 0.11));
        let same_class_other_track = ex.extract(&obs(3, 99, 3, 0.1));
        let other_class = ex.extract(&obs(4, 50, 7, 0.1));
        let d_track = a.l2_distance(&b);
        let d_class = a.l2_distance(&same_class_other_track);
        let d_other = a.l2_distance(&other_class);
        assert!(d_track < d_class, "{d_track} !< {d_class}");
        assert!(d_class < d_other, "{d_class} !< {d_other}");
    }

    #[test]
    fn nearest_neighbour_shares_class_over_99_percent() {
        // §2.2.3: over 99% of nearest-neighbour pairs (by cheap-CNN
        // features) belong to the same class.
        let ex = FeatureExtractor::new("ResNet18", 0.03);
        let mut objects = Vec::new();
        // 40 tracks spread over 8 classes, 5 observations each.
        for track in 0..40u64 {
            let class = track % 8;
            for j in 0..5u64 {
                objects.push(obs(track * 100 + j, track, class, j as f32 * 0.02));
            }
        }
        let feats: Vec<FeatureVector> = objects.iter().map(|o| ex.extract(o)).collect();
        let mut same = 0;
        for (i, fi) in feats.iter().enumerate() {
            let mut best = f32::MAX;
            let mut best_j = usize::MAX;
            for (j, fj) in feats.iter().enumerate() {
                if i == j {
                    continue;
                }
                let d = fi.l2_distance(fj);
                if d < best {
                    best = d;
                    best_j = j;
                }
            }
            if objects[i].true_class == objects[best_j].true_class {
                same += 1;
            }
        }
        let fraction = same as f64 / feats.len() as f64;
        assert!(fraction > 0.99, "nearest-neighbour same-class = {fraction}");
    }

    #[test]
    fn cheaper_models_have_noisier_features() {
        let clean = FeatureExtractor::new("ResNet18", 0.01);
        let noisy = FeatureExtractor::new("ResNet18", 0.30);
        let a = obs(1, 10, 3, 0.1);
        let b = obs(2, 10, 3, 0.1);
        let d_clean = clean.extract(&a).l2_distance(&clean.extract(&b));
        let d_noisy = noisy.extract(&a).l2_distance(&noisy.extract(&b));
        assert!(d_noisy > d_clean);
    }

    #[test]
    fn different_models_give_different_embeddings() {
        let a = FeatureExtractor::new("ResNet18", 0.02);
        let b = FeatureExtractor::new("AlexNet", 0.02);
        let o = obs(1, 10, 3, 0.1);
        assert_ne!(a.extract(&o), b.extract(&o));
    }

    #[test]
    fn vector_arithmetic() {
        let ones = FeatureVector::new(vec![1.0; FEATURE_DIM]);
        assert_eq!(ones.dim(), FEATURE_DIM);
        let mut v = ones.clone();
        v.scale(2.0);
        assert!((v.norm() - (4.0 * FEATURE_DIM as f32).sqrt()).abs() < 1e-4);
        assert!((v.l2_distance(&ones) - (FEATURE_DIM as f32).sqrt()).abs() < 1e-4);
        assert_eq!(v.l2_distance_sq(&ones), FEATURE_DIM as f32);
        assert_eq!(ones.l2_distance(&ones), 0.0);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_dimension_panics() {
        let _ = FeatureVector::new(vec![0.0; 3]);
    }
}
