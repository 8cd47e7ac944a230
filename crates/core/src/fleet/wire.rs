//! The fleet's wire layout, as a length function.
//!
//! The transport is simulated, so no message is ever encoded: the meter
//! needs only the number of bytes an encoding *would* occupy, and a fixed
//! layout makes that a sum of field widths. The layout (documented per
//! message in `docs/fleet.md`):
//!
//! * fields in declaration order, fixed-width little-endian — ids and
//!   counts at their integer width (`usize` as `u64`), `f32`/`f64` as
//!   their IEEE bits, `bool` and enum tags as one byte;
//! * a sequence is a `u32` element count followed by its elements;
//! * an `Option` is a one-byte tag followed by the value when present.
//!
//! [`WireLen`] is implemented for exactly the messages that cross the
//! wire. A length depends on element counts only — never on a value, so
//! never on how a float would print.

use focus_index::ClusterRecord;
use focus_video::Frame;

use crate::query::plan::QueryRequest;
use crate::service::{AdvanceReport, MaintenanceReport};

use super::{PlanRequest, ShardPlanMsg, ShardRequestPlan};

/// Bytes a message occupies on the simulated wire.
pub(super) trait WireLen {
    /// The message's encoded length under the fleet's wire layout.
    fn wire_len(&self) -> u64;
}

/// `u32` element count in front of every sequence.
const LEN_PREFIX: u64 = 4;
/// Presence byte in front of every `Option`.
const OPTION_TAG: u64 = 1;
/// `u64` (and `usize`, `f64`, `FrameId`, `ObjectId`, `TrackId`).
const WORD: u64 = 8;
/// `StreamId`.
const STREAM_ID: u64 = 4;
/// `ClassId`.
const CLASS_ID: u64 = 2;
/// `ClusterKey` and `TrackKey`: a stream plus a stream-local `u64`.
const STREAM_KEY: u64 = STREAM_ID + WORD;
/// `MemberRef`: object, frame, track.
const MEMBER_REF: u64 = 3 * WORD;
/// `BoundingBox`: four `f32`.
const BOUNDING_BOX: u64 = 4 * 4;
/// `Appearance`: two `u64` signatures, `f32` drift, `u32` pixel signature.
const APPEARANCE: u64 = 2 * WORD + 4 + 4;
/// `ObjectObservation`: object, track, frame, stream, class, box,
/// appearance.
const OBSERVATION: u64 = 3 * WORD + STREAM_ID + CLASS_ID + BOUNDING_BOX + APPEARANCE;
/// A `(ObjectId, ObjectObservation)` centroid entry.
const CENTROID_ENTRY: u64 = WORD + OBSERVATION;
/// `SegmentAccess`: eight counters.
const ACCESS: u64 = 8 * WORD;
/// `AnytimeMode`: flag, two budgets, confidence.
const ANYTIME_MODE: u64 = 1 + 3 * WORD;
/// `Region`: four `f64`.
const REGION: u64 = 4 * WORD;
/// `TrackPredicate`: kind tag, two regions, dwell seconds, speed.
const TRACK_PREDICATE: u64 = 1 + 2 * REGION + 2 * WORD;
/// `TickReport`: five `f64`.
const TICK_REPORT: u64 = 5 * WORD;

/// A sequence of `count` elements of `width` bytes each.
fn fixed_seq(count: usize, width: u64) -> u64 {
    LEN_PREFIX + count as u64 * width
}

/// A sequence of variable-width elements.
fn seq<T>(items: &[T], len: impl Fn(&T) -> u64) -> u64 {
    LEN_PREFIX + items.iter().map(len).sum::<u64>()
}

/// An `Option`: the tag, then the payload's width when present.
fn option(payload: Option<u64>) -> u64 {
    OPTION_TAG + payload.unwrap_or(0)
}

/// Key, centroid object and frame, classes, members, start and end
/// seconds: `52 + 2·k + 24·members`, in O(1).
fn record_len(record: &ClusterRecord) -> u64 {
    STREAM_KEY
        + 2 * WORD
        + fixed_seq(record.top_k_classes.len(), CLASS_ID)
        + fixed_seq(record.members.len(), MEMBER_REF)
        + 2 * WORD
}

/// Frame id, stream, timestamp, objects.
fn frame_len(frame: &Frame) -> u64 {
    WORD + STREAM_ID + WORD + fixed_seq(frame.objects.len(), OBSERVATION)
}

/// Class, the filter's three options, anytime mode, track predicates.
fn request_len(request: &QueryRequest) -> u64 {
    let filter = &request.filter;
    let streams = filter.streams.as_ref();
    CLASS_ID
        + option(streams.map(|streams| fixed_seq(streams.len(), STREAM_ID)))
        + option(filter.time_range.map(|_| 2 * WORD))
        + option(filter.kx.map(|_| WORD))
        + ANYTIME_MODE
        + fixed_seq(request.tracks.predicates.len(), TRACK_PREDICATE)
}

impl WireLen for [Frame] {
    fn wire_len(&self) -> u64 {
        seq(self, frame_len)
    }
}

impl WireLen for ShardRequestPlan {
    fn wire_len(&self) -> u64 {
        seq(&self.records, |record| record_len(record))
            + fixed_seq(self.centroids.len(), CENTROID_ENTRY)
            + WORD
            + ACCESS
            + fixed_seq(self.rejected_tracks.len(), STREAM_KEY)
    }
}

impl WireLen for ShardPlanMsg {
    fn wire_len(&self) -> u64 {
        4 + seq(&self.per_request, ShardRequestPlan::wire_len)
    }
}

impl WireLen for PlanRequest<'_> {
    fn wire_len(&self) -> u64 {
        seq(self.requests, request_len)
            + seq(self.lookup_classes, |classes| {
                fixed_seq(classes.len(), CLASS_ID)
            })
            + 1
    }
}

impl WireLen for AdvanceReport {
    fn wire_len(&self) -> u64 {
        3 * WORD
    }
}

impl WireLen for MaintenanceReport {
    fn wire_len(&self) -> u64 {
        3 * WORD + TICK_REPORT
    }
}

#[cfg(test)]
mod tests {
    use focus_index::{ClusterKey, MemberRef, SegmentAccess};
    use focus_video::{
        Appearance, BoundingBox, ClassId, FrameId, ObjectId, ObjectObservation, StreamId, TrackId,
    };

    use super::*;

    fn observation(id: u64) -> ObjectObservation {
        ObjectObservation {
            object_id: ObjectId(id),
            track_id: TrackId(1),
            frame_id: FrameId(id),
            stream_id: StreamId(0),
            true_class: ClassId(3),
            bbox: BoundingBox::default(),
            appearance: Appearance {
                track_signature: 7,
                class_signature: 9,
                drift: 0.25,
                pixel_signature: 11,
            },
        }
    }

    fn frame(id: u64, objects: usize) -> Frame {
        Frame {
            frame_id: FrameId(id),
            stream_id: StreamId(0),
            timestamp_secs: id as f64 / 30.0,
            objects: (0..objects as u64).map(observation).collect(),
        }
    }

    fn record(classes: usize, members: usize, start_secs: f64) -> ClusterRecord {
        ClusterRecord {
            key: ClusterKey {
                stream: StreamId(0),
                local: 5,
            },
            centroid_object: ObjectId(0),
            centroid_frame: FrameId(0),
            top_k_classes: (0..classes as u16).map(ClassId).collect(),
            members: (0..members as u64)
                .map(|i| MemberRef {
                    object: ObjectId(i),
                    frame: FrameId(i),
                    track: TrackId(1),
                })
                .collect(),
            start_secs,
            end_secs: 2.0,
        }
    }

    fn request_plan(records: Vec<ClusterRecord>) -> ShardRequestPlan {
        ShardRequestPlan {
            centroids: records
                .iter()
                .map(|r| (r.centroid_object, observation(r.centroid_object.0)))
                .collect(),
            records: records.into_iter().map(std::sync::Arc::new).collect(),
            tail_records: 0,
            access: SegmentAccess::default(),
            rejected_tracks: Vec::new(),
        }
    }

    #[test]
    fn empty_plan_message_is_its_header() {
        let msg = ShardPlanMsg {
            shard: 3,
            per_request: Vec::new(),
        };
        // shard u32 + empty per-request sequence.
        assert_eq!(msg.wire_len(), 4 + 4);
    }

    #[test]
    fn plan_with_one_record_and_its_centroid() {
        let msg = ShardPlanMsg {
            shard: 0,
            per_request: vec![request_plan(vec![record(2, 3, 0.5)])],
        };
        // Record: key 12, centroid object 8 + frame 8, classes 4 + 2·2,
        // members 4 + 3·24, start 8 + end 8.
        let record = 12 + 8 + 8 + (4 + 4) + (4 + 72) + 8 + 8;
        assert_eq!(record, 128);
        // Observation: object 8, track 8, frame 8, stream 4, class 2,
        // box 16, appearance 8 + 8 + 4 + 4; keyed by an object id.
        let centroid = 8 + (8 + 8 + 8 + 4 + 2 + 16 + 24);
        assert_eq!(centroid, 78);
        // Request plan: records 4 + .., centroids 4 + .., tail count 8,
        // access 8·8, rejected tracks 4.
        let plan = (4 + record) + (4 + centroid) + 8 + 64 + 4;
        assert_eq!(msg.wire_len(), 4 + 4 + plan);
        assert_eq!(msg.wire_len(), 298);
    }

    #[test]
    fn frame_batch_with_and_without_objects() {
        let batch = [frame(0, 0), frame(1, 2)];
        // Prefix 4; frame header id 8 + stream 4 + timestamp 8 + prefix 4;
        // two observations of 70.
        assert_eq!(batch.wire_len(), 4 + 24 + (24 + 2 * 70));
        assert_eq!(<[Frame]>::wire_len(&[]), 4);
    }

    #[test]
    fn concatenation_is_additive_up_to_one_prefix() {
        let a = [frame(0, 1), frame(1, 0)];
        let b = [frame(2, 3)];
        let joined: Vec<Frame> = a.iter().chain(&b).cloned().collect();
        assert_eq!(joined.wire_len(), a.wire_len() + b.wire_len() - LEN_PREFIX);

        let one = request_plan(vec![record(2, 3, 0.0)]);
        let other = request_plan(vec![record(4, 1, 0.0)]);
        let both = request_plan(vec![record(2, 3, 0.0), record(4, 1, 0.0)]);
        let empty = request_plan(Vec::new());
        assert_eq!(
            both.wire_len(),
            one.wire_len() + other.wire_len() - empty.wire_len()
        );
    }

    #[test]
    fn length_ignores_how_floats_print() {
        // JSON sizing charged "0.5" three bytes and this one nineteen.
        assert_eq!(
            record_len(&record(2, 3, 0.5)),
            record_len(&record(2, 3, 0.123_456_789_012_345_68))
        );
        let mut a = frame(4, 1);
        let mut b = a.clone();
        a.timestamp_secs = 1.0;
        b.timestamp_secs = 1.0 / 3.0;
        assert_eq!([a].wire_len(), [b].wire_len());
    }

    #[test]
    fn plan_request_counts_filters_classes_and_the_prune_flag() {
        use focus_index::QueryFilter;
        let plain = QueryRequest::new(ClassId(1));
        // class 2, three absent options 3, anytime 25, no predicates 4.
        assert_eq!(request_len(&plain), 2 + 3 + 25 + 4);
        let narrow = QueryRequest::new(ClassId(1)).with_filter(
            QueryFilter::for_stream(StreamId(2))
                .with_time_range(0.0, 9.0)
                .with_kx(2),
        );
        // One stream (4 + 4), a time range (16) and a kx (8) more.
        assert_eq!(request_len(&narrow), request_len(&plain) + 8 + 16 + 8);

        let requests = [plain, narrow];
        let lookup_classes = [vec![ClassId(1)], vec![ClassId(1), ClassId(9)]];
        let msg = PlanRequest {
            requests: &requests,
            lookup_classes: &lookup_classes,
            prune_segments: true,
        };
        assert_eq!(msg.wire_len(), (4 + 34 + 66) + (4 + (4 + 2) + (4 + 4)) + 1);
    }

    #[test]
    fn reports_are_fixed_width() {
        assert_eq!(AdvanceReport::default().wire_len(), 24);
        // Three counters and the scheduler tick's five f64.
        assert_eq!(MaintenanceReport::default().wire_len(), 24 + 40);
    }
}
