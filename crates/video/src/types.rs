//! Core video data types: frames, object observations, tracks and
//! identifiers shared by every crate in the workspace.

use serde::{Deserialize, Serialize};

use crate::class::ClassId;

/// Identifier of a video stream (camera).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct StreamId(pub u32);

/// Identifier of a frame within a stream (frame index since stream start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FrameId(pub u64);

impl FrameId {
    /// Wall-clock timestamp of this frame, in seconds since stream start,
    /// given the stream's frame rate.
    pub fn timestamp_secs(self, fps: u32) -> f64 {
        self.0 as f64 / fps.max(1) as f64
    }
}

/// Identifier of a detected moving object (a single observation in a single
/// frame). Globally unique: the generator namespaces ids by stream (stream
/// id in the high bits), so observations from different cameras can share
/// one map without colliding.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ObjectId(pub u64);

/// Identifier of a *track*: the same physical object observed across
/// multiple consecutive frames (e.g. one car crossing the intersection).
///
/// Track ids are stream-local (every stream numbers its tracks from zero),
/// so cross-stream code must qualify them with the stream — the index layer
/// does this with its `TrackKey`. The generator owns track *identity*: it
/// assigns the id when it synthesizes an object's dwell through the scene,
/// standing in for the real system's ingest-time tracker (background
/// subtraction + association), which the paper treats as given. The Focus
/// pipelines consume the id at seal time to fold each observation's
/// position into its track's spatio-temporal sketch; the ground-truth
/// oracle and tests also read it to reconstruct whole trajectories.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TrackId(pub u64);

/// Axis-aligned bounding box of a detected object, in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct BoundingBox {
    /// Left edge, pixels from the frame's left border.
    pub x: f32,
    /// Top edge, pixels from the frame's top border.
    pub y: f32,
    /// Width in pixels.
    pub width: f32,
    /// Height in pixels.
    pub height: f32,
}

impl BoundingBox {
    /// Area of the box in square pixels.
    pub fn area(&self) -> f32 {
        self.width * self.height
    }

    /// Center of the box in pixels.
    ///
    /// This is *the* position of an observation for track purposes: the
    /// ingest pipeline folds it into track sketches and the brute-force
    /// track scan replays it, so both sides must share one definition.
    pub fn center(&self) -> (f64, f64) {
        (
            (self.x + self.width * 0.5) as f64,
            (self.y + self.height * 0.5) as f64,
        )
    }
}

/// Visual appearance description of an object observation.
///
/// This is the synthetic stand-in for the object's pixels. The CNN substrate
/// derives feature vectors and classification outcomes from it, and the
/// pixel-differencing filter compares `pixel_signature`s of consecutive
/// observations. The structure deliberately exposes only what a camera would:
/// nothing here names the true class directly (that lives in
/// [`ObjectObservation::true_class`], which only the ground-truth oracle and
/// the workload generator read).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Appearance {
    /// Stable per-track appearance seed: two observations of the same track
    /// share it, observations of different tracks (even of the same class)
    /// do not.
    pub track_signature: u64,
    /// Per-class appearance seed shared by all objects of the same class.
    pub class_signature: u64,
    /// Frame-to-frame appearance drift within the track, in `[0, 1]`;
    /// grows slowly as the object moves through the scene.
    pub drift: f32,
    /// Quantized pixel content summary used by pixel differencing. Two
    /// observations with close signatures have nearly identical pixels.
    pub pixel_signature: u32,
}

/// A single detected moving object in a single frame.
///
/// This is the unit of work for the entire system: ingest-time CNNs classify
/// observations, the clusterer groups them, the index stores them, and
/// queries return the frames that contain them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ObjectObservation {
    /// Unique id of this observation within its stream.
    pub object_id: ObjectId,
    /// Track this observation belongs to (same physical object over time).
    pub track_id: TrackId,
    /// Frame in which the object was observed.
    pub frame_id: FrameId,
    /// Stream (camera) the observation comes from.
    pub stream_id: StreamId,
    /// Ground-truth class of the object. Only the ground-truth CNN oracle
    /// and evaluation code may consult this; ingest-time models receive a
    /// noisy view derived from [`Appearance`].
    pub true_class: ClassId,
    /// Bounding box of the object in the frame.
    pub bbox: BoundingBox,
    /// Synthetic appearance used by the CNN substrate.
    pub appearance: Appearance,
}

/// A single video frame: its id, timestamp and the moving objects detected
/// in it by background subtraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Frame index since stream start.
    pub frame_id: FrameId,
    /// Stream the frame belongs to.
    pub stream_id: StreamId,
    /// Wall-clock timestamp in seconds since stream start.
    pub timestamp_secs: f64,
    /// Moving objects detected in this frame. Empty for frames with no
    /// motion (e.g. a garage camera at night).
    pub objects: Vec<ObjectObservation>,
}

impl Frame {
    /// Returns `true` if background subtraction found at least one moving
    /// object in this frame.
    pub fn has_motion(&self) -> bool {
        !self.objects.is_empty()
    }

    /// The one-second segment this frame belongs to, used by the paper's
    /// ground-truth smoothing rule (§6.1).
    pub fn segment(&self, fps: u32) -> u64 {
        self.frame_id.0 / fps.max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_id_timestamp() {
        assert_eq!(FrameId(0).timestamp_secs(30), 0.0);
        assert_eq!(FrameId(30).timestamp_secs(30), 1.0);
        assert_eq!(FrameId(45).timestamp_secs(30), 1.5);
        // A zero-fps stream must not divide by zero.
        assert_eq!(FrameId(10).timestamp_secs(0), 10.0);
    }

    #[test]
    fn bounding_box_area() {
        let a = BoundingBox {
            x: 0.0,
            y: 0.0,
            width: 10.0,
            height: 10.0,
        };
        assert_eq!(a.area(), 100.0);
    }

    #[test]
    fn frame_motion_and_segment() {
        let empty = Frame {
            frame_id: FrameId(75),
            stream_id: StreamId(0),
            timestamp_secs: 2.5,
            objects: vec![],
        };
        assert!(!empty.has_motion());
        assert_eq!(empty.segment(30), 2);
        assert_eq!(empty.segment(0), 75);
    }
}
