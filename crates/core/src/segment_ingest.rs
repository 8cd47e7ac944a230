//! Segment sealing: the policy that decides when a stream's pending records
//! become an immutable segment, and the per-stream [`StreamSegmenter`] that
//! applies it frame by frame.
//!
//! One in-memory index per run is fine for an experiment, useless for weeks
//! of footage: a restart replays ingest from scratch and every query scans
//! the whole postings map. The live
//! [`FocusService`](crate::service::FocusService) instead owns one
//! [`StreamSegmenter`] per stream and seals the records it drains — whenever
//! a configurable frame or time budget is hit — durably into a
//! [`SegmentStore`](focus_index::SegmentStore) (centroid delta, then atomic
//! segment file, then crash-safe manifest) as ingest progresses.
//! Time-restricted queries then open only the segments whose bounds
//! intersect (see [`crate::query::segmented`]).
//!
//! Determinism: a segmenter's drained parts are a pure function of the
//! frame sequence, the parameters, the classifier and the [`SealPolicy`], so
//! replaying a stream always reproduces the same segment partitioning, ids
//! and bytes. `tests/live_service.rs`
//! (`live_ingest_matches_batch_ingest_for_a_fixed_model`) pins the service's
//! index and ingest GPU seconds to the in-memory batch reference.

use serde::{Deserialize, Serialize};

use focus_cnn::Classifier;
use focus_index::TopKIndex;
use focus_video::{Frame, ObjectObservation, StreamId};

use crate::ingest::IngestParams;
use crate::pipeline::{FramePipeline, PipelineOutput};

/// When a stream's pending records are sealed into a segment: after
/// `max_frames` frames or `max_secs` of stream time, whichever comes first.
///
/// # Examples
///
/// ```
/// use focus_core::segment_ingest::SealPolicy;
///
/// let by_time = SealPolicy::every_secs(30.0);
/// assert_eq!(by_time.max_secs, 30.0);
/// let by_frames = SealPolicy::every_frames(900);
/// assert_eq!(by_frames.max_frames, 900);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SealPolicy {
    /// Maximum frames per segment (minimum 1 is enforced at ingest time).
    pub max_frames: usize,
    /// Maximum stream seconds per segment.
    pub max_secs: f64,
}

impl Default for SealPolicy {
    fn default() -> Self {
        // One segment per minute of a 30-fps stream: long enough that
        // clustering quality is unaffected, short enough that time-filtered
        // queries prune meaningfully.
        Self {
            max_frames: 1800,
            max_secs: 60.0,
        }
    }
}

impl SealPolicy {
    /// Seals on a frame budget only.
    pub fn every_frames(max_frames: usize) -> Self {
        Self {
            max_frames,
            max_secs: f64::INFINITY,
        }
    }

    /// Seals on a stream-time budget only.
    pub fn every_secs(max_secs: f64) -> Self {
        Self {
            max_frames: usize::MAX,
            max_secs,
        }
    }
}

/// Incremental seal/advance over one stream: a [`FramePipeline`] plus the
/// [`SealPolicy`] bookkeeping that decides, frame by frame, when the
/// pending records become an immutable segment.
///
/// This is the unit the live
/// [`FocusService`](crate::service::FocusService) advances continuously,
/// one per registered stream; the same frame sequence always produces the
/// same segment partitioning.
///
/// **Boundary semantics** (regression-pinned in
/// `tests/segment_durability.rs`): segment time is derived from the frame
/// id (`frame_id / fps`), a segment's start is the time of its *first*
/// frame, and a frame landing exactly on a [`SealPolicy::every_secs`]
/// boundary seals the pending segment and becomes the first frame of the
/// next one — every frame lands in exactly one segment, never zero, never
/// two.
///
/// # Examples
///
/// ```
/// use focus_core::prelude::*;
/// use focus_core::segment_ingest::StreamSegmenter;
/// use focus_video::profile::profile_by_name;
///
/// let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
/// let model = IngestCnn::generic(focus_cnn::ModelSpec::cheap_cnn_1());
/// let mut segmenter = StreamSegmenter::new(
///     ds.profile.stream_id,
///     ds.profile.fps,
///     IngestParams { k: 10, ..IngestParams::default() },
///     SealPolicy::every_secs(10.0),
/// );
/// let mut parts: Vec<focus_index::TopKIndex> = ds
///     .frames
///     .iter()
///     .filter_map(|frame| segmenter.push_frame(frame, model.classifier.as_ref()))
///     .collect();
/// let (last, output) = segmenter.finish();
/// parts.extend(last);
///
/// // 40 seconds at a 10-second budget: four key-disjoint parts that hold
/// // every object of the stream between them.
/// assert_eq!(parts.len(), 4);
/// let mut merged = focus_index::TopKIndex::new();
/// for part in &parts {
///     assert_eq!(merged.merge_from(part), 0);
/// }
/// assert_eq!(merged.stats().objects, output.stats.objects);
/// ```
#[derive(Debug)]
pub struct StreamSegmenter {
    pipeline: FramePipeline,
    policy: SealPolicy,
    frames_in_segment: usize,
    segment_start_secs: f64,
    last_frame_secs: f64,
}

impl StreamSegmenter {
    /// Creates a segmenter for one stream.
    pub fn new(stream: StreamId, fps: u32, params: IngestParams, policy: SealPolicy) -> Self {
        Self::from_pipeline(FramePipeline::new(stream, fps, params), policy)
    }

    /// Wraps an existing pipeline (the recovery path: the pipeline may have
    /// had its cluster-key counter resumed past the sealed segments).
    pub fn from_pipeline(pipeline: FramePipeline, policy: SealPolicy) -> Self {
        Self {
            pipeline,
            policy,
            frames_in_segment: 0,
            segment_start_secs: 0.0,
            last_frame_secs: 0.0,
        }
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &FramePipeline {
        &self.pipeline
    }

    /// Mutable access to the underlying pipeline (the service seals model
    /// epochs through this on retrain).
    pub fn pipeline_mut(&mut self) -> &mut FramePipeline {
        &mut self.pipeline
    }

    /// Frames pushed since the last seal (the pending tail of this stream).
    pub fn pending_frames(&self) -> usize {
        self.frames_in_segment
    }

    /// Stream time of `frame`, derived from its id so a resumed stream
    /// keeps a consistent clock.
    fn now_secs(&self, frame: &Frame) -> f64 {
        frame.frame_id.0 as f64 / self.pipeline.fps() as f64
    }

    /// The single seal predicate both the push path and the maintenance
    /// path evaluate: would a frame arriving at `at_secs` seal the pending
    /// records? Keeping this in one place is what guarantees maintenance
    /// seals exactly the segments the next push would have sealed.
    fn seal_due(&self, at_secs: f64) -> bool {
        self.frames_in_segment > 0
            && (self.frames_in_segment >= self.policy.max_frames.max(1)
                || at_secs - self.segment_start_secs >= self.policy.max_secs)
    }

    /// Whether the pending records have hit a seal budget — true exactly
    /// when the *next* frame push would seal them, so a maintenance tick
    /// that seals on `should_seal` never changes the segment partitioning
    /// relative to a purely push-driven run.
    pub fn should_seal(&self) -> bool {
        self.seal_due(self.last_frame_secs + 1.0 / self.pipeline.fps() as f64)
    }

    /// Pushes one frame; returns the drained segment index when the push
    /// crossed a seal boundary (the boundary frame itself starts the new
    /// segment). Empty drains are swallowed.
    pub fn push_frame(&mut self, frame: &Frame, classifier: &dyn Classifier) -> Option<TopKIndex> {
        self.push_frame_observed(frame, classifier, |_, _| {})
    }

    /// Like [`push_frame`](Self::push_frame), with the pipeline's observer
    /// hook (the service maintains its GT-labelled retraining sample
    /// through this).
    pub fn push_frame_observed(
        &mut self,
        frame: &Frame,
        classifier: &dyn Classifier,
        observer: impl FnMut(&ObjectObservation, usize),
    ) -> Option<TopKIndex> {
        let now_secs = self.now_secs(frame);
        let mut part = None;
        if self.seal_due(now_secs) {
            let drained = self.pipeline.seal_segment();
            if !drained.is_empty() {
                part = Some(drained);
            }
            self.frames_in_segment = 0;
        }
        if self.frames_in_segment == 0 {
            // A segment's clock starts at its first frame, which also makes
            // a segmenter resumed mid-stream (recovery) start its first
            // segment at the resume point instead of spuriously sealing.
            self.segment_start_secs = now_secs;
        }
        self.pipeline
            .push_frame_observed(frame, classifier, observer);
        self.frames_in_segment += 1;
        self.last_frame_secs = now_secs;
        part
    }

    /// Unconditionally drains everything pending into a segment index
    /// (empty if nothing is pending) — the flush path for shutdown,
    /// `seal_all`, and maintenance ticks.
    pub fn seal_pending(&mut self) -> TopKIndex {
        self.frames_in_segment = 0;
        self.pipeline.seal_segment()
    }

    /// Drains the final pending segment and finishes the pipeline,
    /// consuming the segmenter. The output's own index is empty by
    /// construction (every record was drained into a part).
    pub fn finish(mut self) -> (Option<TopKIndex>, PipelineOutput) {
        let part = self.seal_pending();
        let part = (!part.is_empty()).then_some(part);
        let output = self.pipeline.finish();
        debug_assert!(
            output.index.is_empty(),
            "pipeline was drained before finish"
        );
        (part, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestCnn;
    use focus_cnn::ModelSpec;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    /// Replays `dataset` through one segmenter and returns every drained
    /// part, the final partial one included.
    fn drain(dataset: &VideoDataset, params: IngestParams, policy: SealPolicy) -> Vec<TopKIndex> {
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let mut segmenter = StreamSegmenter::new(
            dataset.profile.stream_id,
            dataset.profile.fps,
            params,
            policy,
        );
        let mut parts: Vec<TopKIndex> = dataset
            .frames
            .iter()
            .filter_map(|frame| segmenter.push_frame(frame, model.classifier.as_ref()))
            .collect();
        parts.extend(segmenter.finish().0);
        parts
    }

    /// The stream-time span `[start, end]` covered by a part's records.
    fn bounds(part: &TopKIndex) -> (f64, f64) {
        part.clusters()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
                (lo.min(r.start_secs), hi.max(r.end_secs))
            })
    }

    #[test]
    fn segment_bounds_partition_stream_time() {
        let dataset = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let params = IngestParams {
            k: 10,
            ..IngestParams::default()
        };
        let parts = drain(&dataset, params, SealPolicy::every_secs(15.0));
        assert_eq!(parts.len(), 4);
        for (i, part) in parts.iter().enumerate() {
            let (t_start, t_end) = bounds(part);
            assert!(t_end >= t_start);
            // Each 15-second budget window stays within its slice of the
            // stream (clusters can't span a seal boundary).
            assert!(t_start >= i as f64 * 15.0 - 1e-9);
            assert!(t_end <= (i + 1) as f64 * 15.0 + 1e-9);
        }
    }

    #[test]
    fn frame_budget_seals_too() {
        let dataset = VideoDataset::generate(profile_by_name("bend").unwrap(), 30.0);
        let fps = dataset.profile.fps as usize;
        let parts = drain(
            &dataset,
            IngestParams::default(),
            SealPolicy::every_frames(fps * 10),
        );
        // 30 s at a 10-s-of-frames budget: up to 3 segments (sparse streams
        // may seal empty windows, which are skipped).
        assert!(!parts.is_empty());
        assert!(parts.len() <= 3);
    }

    #[test]
    fn policy_constructors() {
        assert_eq!(SealPolicy::default().max_frames, 1800);
        assert_eq!(SealPolicy::every_frames(5).max_secs, f64::INFINITY);
        assert_eq!(SealPolicy::every_secs(5.0).max_frames, usize::MAX);
    }
}
