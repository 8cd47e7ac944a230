//! Cluster records: what the top-K index stores per object cluster.

use serde::{Deserialize, Serialize};

use focus_video::{ClassId, FrameId, ObjectId, StreamId, TrackId};

/// Globally unique identifier of a cluster in the index: the stream it was
/// ingested from plus the stream-local cluster number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterKey {
    /// The stream (camera) the cluster belongs to.
    pub stream: StreamId,
    /// Cluster number within the stream's ingest run.
    pub local: u64,
}

impl ClusterKey {
    /// Builds a key.
    pub fn new(stream: StreamId, local: u64) -> Self {
        Self { stream, local }
    }
}

/// One object of a cluster: the observation and the frame it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemberRef {
    /// The object observation.
    pub object: ObjectId,
    /// The frame that contains it.
    pub frame: FrameId,
    /// The stream-local track the observation belongs to (qualify with the
    /// cluster key's stream to get a [`crate::track::TrackKey`]). Defaults
    /// to track 0 when absent from a JSON snapshot written before tracks
    /// existed.
    #[serde(default)]
    pub track: TrackId,
}

/// A cluster as stored in the top-K index.
///
/// The record carries everything query-time processing needs: the centroid
/// object (which the ground-truth CNN classifies), the cheap CNN's ranked
/// top-K classes for the cluster (which the inverted index is keyed by), the
/// member objects with their frames (which are returned to the user), and
/// the covered time range (for time-restricted queries).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterRecord {
    /// Unique key of the cluster.
    pub key: ClusterKey,
    /// The representative object; the only member the GT-CNN classifies at
    /// query time.
    pub centroid_object: ObjectId,
    /// Frame that contains the centroid object.
    pub centroid_frame: FrameId,
    /// The cheap ingest CNN's ranked classes for this cluster, most
    /// confident first, truncated at the ingest-time K.
    pub top_k_classes: Vec<ClassId>,
    /// All member objects and their frames (including the centroid).
    pub members: Vec<MemberRef>,
    /// Earliest timestamp covered by the cluster, seconds since stream
    /// start.
    pub start_secs: f64,
    /// Latest timestamp covered by the cluster, seconds since stream start.
    pub end_secs: f64,
}

impl ClusterRecord {
    /// Number of objects in the cluster.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members (should never happen for records
    /// produced by ingest).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The distinct frames covered by this cluster.
    pub fn frames(&self) -> Vec<FrameId> {
        let mut frames: Vec<FrameId> = self.members.iter().map(|m| m.frame).collect();
        frames.sort();
        frames.dedup();
        frames
    }

    /// Rank (1-based) of `class` within the stored top-K classes, if
    /// present.
    pub fn rank_of(&self, class: ClassId) -> Option<usize> {
        self.top_k_classes
            .iter()
            .position(|c| *c == class)
            .map(|p| p + 1)
    }

    /// Whether `class` appears within the first `kx` stored classes.
    pub fn matches_class(&self, class: ClassId, kx: usize) -> bool {
        self.top_k_classes.iter().take(kx).any(|c| *c == class)
    }

    /// Whether the cluster overlaps the closed time interval
    /// `[from_secs, to_secs]`.
    pub fn overlaps_time(&self, from_secs: f64, to_secs: f64) -> bool {
        self.start_secs <= to_secs && self.end_secs >= from_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ClusterRecord {
        ClusterRecord {
            key: ClusterKey::new(StreamId(1), 7),
            centroid_object: ObjectId(100),
            centroid_frame: FrameId(10),
            top_k_classes: vec![ClassId(0), ClassId(2), ClassId(5)],
            members: vec![
                MemberRef {
                    object: ObjectId(100),
                    frame: FrameId(10),
                    track: TrackId(1),
                },
                MemberRef {
                    object: ObjectId(101),
                    frame: FrameId(11),
                    track: TrackId(1),
                },
                MemberRef {
                    object: ObjectId(102),
                    frame: FrameId(11),
                    track: TrackId(2),
                },
            ],
            start_secs: 0.33,
            end_secs: 0.37,
        }
    }

    #[test]
    fn record_accessors() {
        let r = record();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.frames(), vec![FrameId(10), FrameId(11)]);
        assert_eq!(r.rank_of(ClassId(2)), Some(2));
        assert_eq!(r.rank_of(ClassId(9)), None);
    }

    #[test]
    fn matches_class_respects_kx() {
        let r = record();
        assert!(r.matches_class(ClassId(5), 3));
        assert!(!r.matches_class(ClassId(5), 2));
        assert!(r.matches_class(ClassId(0), 1));
        assert!(!r.matches_class(ClassId(9), 3));
    }

    #[test]
    fn time_overlap() {
        let r = record();
        assert!(r.overlaps_time(0.0, 1.0));
        assert!(r.overlaps_time(0.35, 0.36));
        assert!(!r.overlaps_time(1.0, 2.0));
        assert!(!r.overlaps_time(0.0, 0.2));
        // Boundary containment counts as overlap.
        assert!(r.overlaps_time(0.37, 0.5));
    }

    #[test]
    fn cluster_key_ordering() {
        let a = ClusterKey::new(StreamId(0), 5);
        let b = ClusterKey::new(StreamId(1), 0);
        assert!(a < b);
        assert_eq!(a, ClusterKey::new(StreamId(0), 5));
    }
}
