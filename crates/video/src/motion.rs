//! Motion filtering and pixel differencing.
//!
//! The paper's pipeline (and both of its baselines) run background
//! subtraction first so that frames with no moving objects never reach a
//! CNN. [`MotionFilter`] reproduces that pre-filter over synthetic frames.
//!
//! At ingest time Focus additionally applies *pixel differencing* between
//! objects in adjacent frames (§4.2): if two observations have nearly
//! identical pixels, only one of them is run through the cheap CNN and both
//! are placed in the same cluster. [`PixelDiff`] implements that filter over
//! the synthetic pixel signatures.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::types::{Frame, ObjectId, ObjectObservation};

/// Statistics produced by the motion filter over a sequence of frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MotionStats {
    /// Frames inspected.
    pub total_frames: usize,
    /// Frames that contained at least one moving object.
    pub frames_with_motion: usize,
    /// Object observations in the retained frames.
    pub objects: usize,
}

/// Background-subtraction-style motion filter: drops frames that contain no
/// moving objects.
#[derive(Debug, Clone, Default)]
pub struct MotionFilter {
    stats: MotionStats,
}

impl MotionFilter {
    /// Creates a fresh filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the frame has moving objects and should be
    /// processed further. Updates the running statistics either way.
    pub fn admit(&mut self, frame: &Frame) -> bool {
        self.stats.total_frames += 1;
        if frame.has_motion() {
            self.stats.frames_with_motion += 1;
            self.stats.objects += frame.objects.len();
            true
        } else {
            false
        }
    }

    /// Filters a slice of frames, returning references to the frames with
    /// motion.
    pub fn filter<'a>(&mut self, frames: &'a [Frame]) -> Vec<&'a Frame> {
        frames.iter().filter(|f| self.admit(f)).collect()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MotionStats {
        self.stats
    }
}

/// Outcome of pixel differencing for one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PixelDiffOutcome {
    /// The object looks new (or changed enough); it must be classified by
    /// the ingest CNN.
    Process,
    /// The object's pixels are nearly identical to a previously processed
    /// observation; reuse that observation's classification and cluster.
    DuplicateOf(ObjectId),
}

/// Pixel-differencing filter over consecutive frames (§4.2, "Pixel
/// Differencing of Objects").
///
/// The filter keeps, per track position in the scene, the pixel signature of
/// the most recent observation that was actually processed by the ingest
/// CNN. A new observation whose signature matches is reported as a
/// duplicate. Real Focus compares raw pixels of objects in adjacent frames;
/// the synthetic pixel signature plays the same role (it changes only when
/// the object's appearance has drifted by more than a quantization bucket).
#[derive(Debug, Clone, Default)]
pub struct PixelDiff {
    last_processed: HashMap<TrackKey, (ObjectId, u32)>,
    duplicates: usize,
    processed: usize,
}

/// Pixel differencing has no access to track identity in the real system; it
/// relates objects by their position in adjacent frames. The synthetic
/// equivalent keys by the coarse spatial cell of the object, which matches
/// "the same region of the frame".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TrackKey {
    cell_x: i32,
    cell_y: i32,
}

const CELL_SIZE: f32 = 160.0;

impl PixelDiff {
    /// Creates a fresh filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decides whether `obj` needs CNN processing or duplicates an earlier
    /// observation.
    pub fn check(&mut self, obj: &ObjectObservation) -> PixelDiffOutcome {
        let key = TrackKey {
            cell_x: (obj.bbox.x / CELL_SIZE) as i32,
            cell_y: (obj.bbox.y / CELL_SIZE) as i32,
        };
        match self.last_processed.get(&key) {
            Some(&(prev_id, prev_sig)) if prev_sig == obj.appearance.pixel_signature => {
                self.duplicates += 1;
                PixelDiffOutcome::DuplicateOf(prev_id)
            }
            _ => {
                self.processed += 1;
                self.last_processed
                    .insert(key, (obj.object_id, obj.appearance.pixel_signature));
                PixelDiffOutcome::Process
            }
        }
    }

    /// Forgets the per-cell last-processed signatures while keeping the
    /// cumulative savings counters. Callers that segment ingest into model
    /// epochs reset the window at each epoch boundary: a duplicate of an
    /// observation from a *previous* epoch could never reuse its
    /// classification anyway (the model may have changed), and dropping the
    /// stale signatures makes the filter's decisions a pure function of the
    /// current epoch's frames — which is what lets a crash-recovered
    /// pipeline replaying its unsealed frames reproduce a never-crashed
    /// pipeline exactly.
    pub fn reset_window(&mut self) {
        self.last_processed.clear();
    }

    /// Number of observations reported as duplicates so far.
    pub fn duplicates(&self) -> usize {
        self.duplicates
    }

    /// Number of observations that required processing so far.
    pub fn processed(&self) -> usize {
        self.processed
    }

    /// Fraction of observations skipped thanks to pixel differencing.
    pub fn savings(&self) -> f64 {
        let total = self.duplicates + self.processed;
        if total == 0 {
            0.0
        } else {
            self.duplicates as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_by_name;
    use crate::stream::VideoStream;
    use crate::types::{Appearance, BoundingBox, FrameId, StreamId, TrackId};
    use crate::ClassId;

    fn obs(id: u64, x: f32, sig: u32) -> ObjectObservation {
        ObjectObservation {
            object_id: ObjectId(id),
            track_id: TrackId(0),
            frame_id: FrameId(id),
            stream_id: StreamId(0),
            true_class: ClassId(0),
            bbox: BoundingBox {
                x,
                y: 0.0,
                width: 50.0,
                height: 50.0,
            },
            appearance: Appearance {
                track_signature: 1,
                class_signature: 2,
                drift: 0.0,
                pixel_signature: sig,
            },
        }
    }

    #[test]
    fn motion_filter_drops_empty_frames() {
        let profile = profile_by_name("auburn_r").unwrap();
        let frames: Vec<Frame> = VideoStream::recording(profile, 300.0).collect();
        let mut filter = MotionFilter::new();
        let kept = filter.filter(&frames);
        let stats = filter.stats();
        assert_eq!(stats.total_frames, frames.len());
        assert_eq!(stats.frames_with_motion, kept.len());
        assert!((kept.len() as f64) < 0.9 * frames.len() as f64, "{stats:?}");
        assert!(kept.iter().all(|f| f.has_motion()));
    }

    #[test]
    fn pixel_diff_detects_identical_signatures() {
        let mut pd = PixelDiff::new();
        assert_eq!(pd.check(&obs(1, 10.0, 42)), PixelDiffOutcome::Process);
        assert_eq!(
            pd.check(&obs(2, 12.0, 42)),
            PixelDiffOutcome::DuplicateOf(ObjectId(1))
        );
        assert_eq!(pd.duplicates(), 1);
        assert_eq!(pd.processed(), 1);
        assert!((pd.savings() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pixel_diff_processes_changed_signatures() {
        let mut pd = PixelDiff::new();
        assert_eq!(pd.check(&obs(1, 10.0, 42)), PixelDiffOutcome::Process);
        assert_eq!(pd.check(&obs(2, 12.0, 43)), PixelDiffOutcome::Process);
        assert_eq!(pd.duplicates(), 0);
    }

    #[test]
    fn pixel_diff_distinguishes_far_apart_objects() {
        let mut pd = PixelDiff::new();
        assert_eq!(pd.check(&obs(1, 10.0, 42)), PixelDiffOutcome::Process);
        // Same signature but a very different scene position: not the same
        // object, must be processed.
        assert_eq!(pd.check(&obs(2, 900.0, 42)), PixelDiffOutcome::Process);
    }

    #[test]
    fn pixel_diff_saves_work_on_real_streams() {
        let profile = profile_by_name("lausanne").unwrap();
        let frames: Vec<Frame> = VideoStream::recording(profile, 120.0).collect();
        let mut pd = PixelDiff::new();
        for f in &frames {
            for o in &f.objects {
                pd.check(o);
            }
        }
        let savings = pd.savings();
        assert!(
            savings > 0.1 && savings < 0.95,
            "pixel differencing savings = {savings}"
        );
    }
}
