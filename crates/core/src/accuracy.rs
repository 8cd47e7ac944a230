//! Accuracy evaluation against the ground-truth CNN.
//!
//! The paper (§6.1) defines ground truth at one-second granularity: a class
//! is *present* in a one-second segment if the GT-CNN reports that class in
//! at least 50% of the segment's frames. This smooths out the GT-CNN's
//! occasional per-frame flicker. Precision and recall of a query are then
//! measured over segments: a segment counts as retrieved if the query
//! returned at least one frame inside it.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use focus_cnn::Classifier;
use focus_video::{ClassId, FrameId, VideoDataset};

/// Fraction of a segment's frames that must contain the class for the
/// segment to count as ground-truth positive (the paper's 50% rule).
pub const SEGMENT_PRESENCE_THRESHOLD: f64 = 0.5;

/// Precision/recall report for one query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Fraction of retrieved segments that are ground-truth positive.
    pub precision: f64,
    /// Fraction of ground-truth-positive segments that were retrieved.
    pub recall: f64,
    /// Number of ground-truth-positive segments.
    pub truth_segments: usize,
    /// Number of segments retrieved by the query.
    pub retrieved_segments: usize,
    /// Number of retrieved segments that are ground-truth positive.
    pub correct_segments: usize,
}

/// Per-frame ground-truth class sets, computed once per dataset and reused
/// across queries (running the GT-CNN over every object is the expensive
/// oracle step, so callers should share one `GroundTruthLabels`).
#[derive(Debug, Clone, Default)]
pub struct GroundTruthLabels {
    /// For every frame with motion: the set of classes the GT-CNN reports.
    frame_classes: HashMap<FrameId, HashSet<ClassId>>,
    /// Frames per second of the underlying stream (segment size).
    fps: u32,
    /// How many frames of the dataset fall into each one-second segment.
    /// Derived from the actual frames present, so subsampled or
    /// non-contiguous datasets (frame sampling, spread-out parameter-
    /// selection samples) are handled correctly.
    segment_frames: HashMap<u64, usize>,
}

impl GroundTruthLabels {
    /// Labels every object of `dataset` with `gt` and records the per-frame
    /// class sets.
    pub fn compute(dataset: &VideoDataset, gt: &dyn Classifier) -> Self {
        let fps = dataset.profile.fps;
        let mut frame_classes: HashMap<FrameId, HashSet<ClassId>> = HashMap::new();
        let mut segment_frames: HashMap<u64, usize> = HashMap::new();
        for frame in &dataset.frames {
            *segment_frames
                .entry(frame.frame_id.0 / fps.max(1) as u64)
                .or_insert(0) += 1;
            if frame.objects.is_empty() {
                continue;
            }
            let entry = frame_classes.entry(frame.frame_id).or_default();
            for obj in &frame.objects {
                entry.insert(gt.classify_top1(obj));
            }
        }
        Self {
            frame_classes,
            fps,
            segment_frames,
        }
    }

    /// The classes the GT-CNN reported anywhere in the dataset, with the
    /// number of frames each appears in, most frequent first.
    pub fn classes_by_frequency(&self) -> Vec<(ClassId, usize)> {
        let mut counts: HashMap<ClassId, usize> = HashMap::new();
        for classes in self.frame_classes.values() {
            for class in classes {
                *counts.entry(*class).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(ClassId, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// The `n` most frequently occurring classes according to the GT-CNN.
    pub fn dominant_classes(&self, n: usize) -> Vec<ClassId> {
        self.classes_by_frequency()
            .into_iter()
            .take(n)
            .map(|(c, _)| c)
            .collect()
    }

    /// One-second segment index of a frame.
    fn segment_of(&self, frame: FrameId) -> u64 {
        frame.0 / self.fps.max(1) as u64
    }

    /// Number of dataset frames that fall into `segment`.
    fn frames_in_segment(&self, segment: u64) -> usize {
        self.segment_frames.get(&segment).copied().unwrap_or(0)
    }

    /// The set of one-second segments in which `class` is present according
    /// to the paper's 50% rule.
    pub fn truth_segments(&self, class: ClassId) -> HashSet<u64> {
        let mut per_segment: HashMap<u64, usize> = HashMap::new();
        for (frame, classes) in &self.frame_classes {
            if classes.contains(&class) {
                *per_segment.entry(self.segment_of(*frame)).or_insert(0) += 1;
            }
        }
        per_segment
            .into_iter()
            .filter(|(segment, count)| {
                let total = self.frames_in_segment(*segment).max(1);
                *count as f64 / total as f64 >= SEGMENT_PRESENCE_THRESHOLD
            })
            .map(|(segment, _)| segment)
            .collect()
    }

    /// The segments a query *covers*: segments where the returned frames
    /// span at least [`SEGMENT_PRESENCE_THRESHOLD`] of the segment's frames
    /// — the same 50% rule used for the ground truth, so both sides of the
    /// precision/recall computation use the same granularity.
    pub fn retrieved_segments(&self, returned_frames: &[FrameId]) -> HashSet<u64> {
        let mut unique: HashSet<FrameId> = HashSet::new();
        let mut per_segment: HashMap<u64, usize> = HashMap::new();
        for frame in returned_frames {
            if unique.insert(*frame) {
                *per_segment.entry(self.segment_of(*frame)).or_insert(0) += 1;
            }
        }
        per_segment
            .into_iter()
            .filter(|(segment, count)| {
                let total = self.frames_in_segment(*segment).max(1);
                *count as f64 / total as f64 >= SEGMENT_PRESENCE_THRESHOLD
            })
            .map(|(segment, _)| segment)
            .collect()
    }

    /// Evaluates a query's returned frames against the ground truth for
    /// `class`.
    pub fn evaluate(&self, class: ClassId, returned_frames: &[FrameId]) -> AccuracyReport {
        self.evaluate_against(&self.truth_segments(class), returned_frames)
    }

    /// [`evaluate`](Self::evaluate) for a caller that scores many answers
    /// for one class: `truth` is that class's
    /// [`truth_segments`](Self::truth_segments), computed once.
    pub fn evaluate_against(
        &self,
        truth: &HashSet<u64>,
        returned_frames: &[FrameId],
    ) -> AccuracyReport {
        let retrieved = self.retrieved_segments(returned_frames);
        let correct = retrieved.intersection(truth).count();
        let precision = if retrieved.is_empty() {
            1.0
        } else {
            correct as f64 / retrieved.len() as f64
        };
        let recall = if truth.is_empty() {
            1.0
        } else {
            correct as f64 / truth.len() as f64
        };
        AccuracyReport {
            precision,
            recall,
            truth_segments: truth.len(),
            retrieved_segments: retrieved.len(),
            correct_segments: correct,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_cnn::GroundTruthCnn;
    use focus_video::profile::profile_by_name;

    fn labels_for(stream: &str, secs: f64) -> (VideoDataset, GroundTruthLabels) {
        let ds = VideoDataset::generate(profile_by_name(stream).unwrap(), secs);
        let gt = GroundTruthCnn::resnet152();
        let labels = GroundTruthLabels::compute(&ds, &gt);
        (ds, labels)
    }

    #[test]
    fn dominant_classes_are_nonempty_and_ranked() {
        let (_, labels) = labels_for("auburn_c", 120.0);
        let ranked = labels.classes_by_frequency();
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(labels.dominant_classes(3).len(), 3);
    }

    #[test]
    fn perfect_answer_has_perfect_accuracy() {
        let (ds, labels) = labels_for("auburn_c", 120.0);
        let class = labels.dominant_classes(1)[0];
        // Return exactly the frames whose GT labels contain the class.
        let frames: Vec<FrameId> = ds
            .frames
            .iter()
            .filter(|f| {
                labels
                    .frame_classes
                    .get(&f.frame_id)
                    .map(|cs| cs.contains(&class))
                    .unwrap_or(false)
            })
            .map(|f| f.frame_id)
            .collect();
        let report = labels.evaluate(class, &frames);
        assert!(report.recall > 0.99, "recall = {}", report.recall);
        // Precision can dip slightly below 1.0 because returning a frame in
        // a segment where the class appears in under 50% of frames counts as
        // a false positive under the smoothing rule.
        assert!(report.precision > 0.9, "precision = {}", report.precision);
    }

    #[test]
    fn empty_answer_has_zero_recall_full_precision() {
        let (_, labels) = labels_for("auburn_c", 60.0);
        let class = labels.dominant_classes(1)[0];
        let report = labels.evaluate(class, &[]);
        assert_eq!(report.retrieved_segments, 0);
        assert_eq!(report.precision, 1.0);
        assert!(report.recall < 0.5);
    }

    #[test]
    fn wrong_answer_has_low_precision() {
        let (ds, labels) = labels_for("auburn_c", 120.0);
        let class = labels.dominant_classes(1)[0];
        // Return only frames where the class is absent.
        let frames: Vec<FrameId> = ds
            .frames
            .iter()
            .filter(|f| {
                !labels
                    .frame_classes
                    .get(&f.frame_id)
                    .map(|cs| cs.contains(&class))
                    .unwrap_or(false)
            })
            .map(|f| f.frame_id)
            .take(200)
            .collect();
        let report = labels.evaluate(class, &frames);
        assert!(report.precision < 0.5, "precision = {}", report.precision);
    }

    #[test]
    fn never_occurring_class_has_empty_truth() {
        let (_, labels) = labels_for("bend", 60.0);
        // Class 999 is essentially never generated for this stream palette.
        let truth = labels.truth_segments(ClassId(999));
        assert!(truth.len() <= 1);
        let report = labels.evaluate(ClassId(999), &[]);
        assert_eq!(report.recall, 1.0);
    }

    #[test]
    fn flicker_is_smoothed_by_segments() {
        // With heavy per-frame flicker the per-frame labels are noisy, but a
        // dominant class that is continuously present still yields stable
        // ground-truth segments.
        let ds = VideoDataset::generate(profile_by_name("jacksonh").unwrap(), 60.0);
        let noisy_gt = GroundTruthCnn::with_flicker(0.3);
        let labels = GroundTruthLabels::compute(&ds, &noisy_gt);
        let class = labels.dominant_classes(1)[0];
        let truth = labels.truth_segments(class);
        assert!(!truth.is_empty());
    }

    #[test]
    fn segment_mapping_uses_fps() {
        let (_, labels) = labels_for("auburn_c", 10.0);
        let segs = [0, 29, 30, 61].map(|f| labels.segment_of(FrameId(f)));
        assert_eq!(segs, [0, 0, 1, 2]);
    }
}
