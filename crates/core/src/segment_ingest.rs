//! Segmented ingest: sealing the pipeline's output into a durable,
//! time-partitioned [`SegmentStore`].
//!
//! The single-stream batch driver builds one in-memory index per run — fine
//! for an experiment, useless for weeks of footage: a restart replays
//! ingest from scratch and every query scans the whole postings map.
//! [`SegmentedIngest`], the multi-stream batch driver, instead seals the [`FramePipeline`]'s records into an
//! immutable segment whenever a configurable frame or time budget is hit,
//! writing each segment durably (atomic file + crash-safe manifest) as
//! ingest progresses. Time-restricted queries then open only the segments
//! whose bounds intersect (see [`crate::query::segmented`]).
//!
//! Determinism: per-stream pipelines run concurrently on the worker pool
//! (one shard per stream with a private pipeline, index and cost tally, so
//! scheduling cannot perturb it — a shard indexes and costs exactly what one
//! [`IngestEngine`] run over its stream does), but segments are sealed to the store and the caller's meter is charged on the caller's
//! thread in workload order, so the resulting store — manifest, ids, file
//! bytes, checksums — is byte-identical and the meter totals are bitwise
//! equal for any shard count. `tests/segment_durability.rs` pins both.
//!
//! [`FramePipeline`]: crate::pipeline::FramePipeline

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use focus_cnn::Classifier;
use focus_index::{SegmentError, SegmentMeta, SegmentStore, TopKIndex};
use focus_runtime::{GpuMeter, WorkerPool};
use focus_video::{Frame, ObjectId, ObjectObservation, StreamId, VideoDataset};

use crate::ingest::{IngestCnn, IngestEngine, IngestOutput, IngestParams};
use crate::pipeline::{FramePipeline, PipelineOutput};

/// When the segmented driver seals the live records into a segment: after
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

/// The combined result of a segmented ingest run.
#[derive(Debug)]
pub struct SegmentedIngestOutput {
    /// The whole corpus as one in-memory [`IngestOutput`] (merged across
    /// streams and segments) — the reference the segmented query path is
    /// proven byte-identical against, and what callers use when they want
    /// in-memory serving anyway.
    pub combined: IngestOutput,
    /// The segments sealed to the store, in seal order.
    pub sealed: Vec<SegmentMeta>,
}

/// Multi-stream ingest that seals its output into a durable
/// [`SegmentStore`] as it goes: one [`FramePipeline`] per stream shard on
/// the worker pool, one immutable segment per [`SealPolicy`] budget.
///
/// # Examples
///
/// ```
/// use focus_core::prelude::*;
/// use focus_core::segment_ingest::{SealPolicy, SegmentedIngest};
/// use focus_index::SegmentStore;
/// use focus_video::profile::profile_by_name;
///
/// let ds = focus_video::VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 40.0);
/// let dir = std::env::temp_dir().join("focus_segmented_ingest_doc");
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut store = SegmentStore::create(&dir).unwrap();
///
/// let ingest = SegmentedIngest::new(
///     IngestCnn::generic(focus_cnn::ModelSpec::cheap_cnn_1()),
///     IngestParams { k: 10, ..IngestParams::default() },
///     SealPolicy::every_secs(10.0),
///     2,
/// );
/// let output = ingest
///     .ingest_to_store(std::slice::from_ref(&ds), &mut store, &focus_runtime::GpuMeter::new())
///     .unwrap();
///
/// // 40 seconds at a 10-second budget: four durable segments whose merge
/// // is exactly the in-memory combined index.
/// assert_eq!(output.sealed.len(), 4);
/// assert_eq!(store.merged_index().unwrap().len(), output.combined.index.len());
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug, Clone)]
pub struct SegmentedIngest {
    engine: IngestEngine,
    policy: SealPolicy,
    pool: WorkerPool,
}

impl SegmentedIngest {
    /// Creates a segmented ingest layer running every stream with the same
    /// `model` and `params` on `shards` pool threads, sealing per `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(model: IngestCnn, params: IngestParams, policy: SealPolicy, shards: usize) -> Self {
        Self {
            engine: IngestEngine::new(model, params),
            policy,
            pool: WorkerPool::new(shards),
        }
    }

    /// The engine each stream shard runs.
    pub fn engine(&self) -> &IngestEngine {
        &self.engine
    }

    /// Ingests a multi-camera workload, sealing segments into `store` and
    /// returning the sealed metadata plus the merged in-memory reference.
    ///
    /// GPU cost is charged to `meter` under the phase `"ingest"`, one charge
    /// per stream in workload order, so meter totals are bitwise
    /// reproducible for any shard count.
    ///
    /// # Panics
    ///
    /// Panics if two datasets share a stream id (a shard is *the* ingest
    /// worker of its stream) or if the workload is empty.
    pub fn ingest_to_store(
        &self,
        datasets: &[VideoDataset],
        store: &mut SegmentStore,
        meter: &GpuMeter,
    ) -> Result<SegmentedIngestOutput, SegmentError> {
        let mut streams: Vec<_> = datasets.iter().map(|d| d.profile.stream_id).collect();
        streams.sort();
        streams.dedup();
        assert_eq!(
            streams.len(),
            datasets.len(),
            "each shard must own a distinct stream"
        );
        assert!(
            !datasets.is_empty(),
            "cannot ingest an empty segmented workload"
        );

        // Per-stream pipelines run concurrently; each drains a list of
        // segment-sized indexes at its seal boundaries.
        let engine = &self.engine;
        let policy = self.policy;
        let per_stream: Vec<(Vec<TopKIndex>, PipelineOutput)> =
            self.pool.map(datasets.iter().collect(), |dataset| {
                ingest_stream_segmented(engine, policy, dataset)
            });

        // Seal to the store on this thread, in workload order: the store
        // contents are deterministic for any shard count.
        let mut sealed = Vec::new();
        let mut index = TopKIndex::new();
        let mut centroids: HashMap<ObjectId, ObjectObservation> = HashMap::new();
        let mut combined: Option<IngestOutput> = None;
        for (parts, output) in per_stream {
            meter.charge("ingest", output.gpu_cost);
            for part in &parts {
                if let Some(meta) = store.seal(part)? {
                    sealed.push(meta);
                }
                let replaced = index.merge_from(part);
                assert_eq!(replaced, 0, "drained segments must be key-disjoint");
            }
            let mut stream_output =
                IngestOutput::from_pipeline(output, self.engine.model().clone());
            let stream_centroids = std::mem::take(&mut stream_output.centroids);
            let expected = centroids.len() + stream_centroids.len();
            centroids.extend(stream_centroids);
            assert_eq!(
                centroids.len(),
                expected,
                "cross-stream ObjectId collision: centroid observations would be clobbered"
            );
            combined = Some(match combined {
                None => stream_output,
                Some(mut acc) => {
                    acc.gpu_cost += stream_output.gpu_cost;
                    acc.frames_total += stream_output.frames_total;
                    acc.frames_with_motion += stream_output.frames_with_motion;
                    acc.objects_total += stream_output.objects_total;
                    acc.objects_classified += stream_output.objects_classified;
                    acc
                }
            });
        }
        let mut combined = combined.expect("non-empty workload");
        combined.index = index;
        combined.centroids = centroids;
        combined.clusters = combined.index.len();
        Ok(SegmentedIngestOutput { combined, sealed })
    }
}

/// Incremental seal/advance over one stream: a [`FramePipeline`] plus the
/// [`SealPolicy`] bookkeeping that decides, frame by frame, when the
/// pending records become an immutable segment.
///
/// This is the unit the one-shot [`SegmentedIngest::ingest_to_store`]
/// driver loops over a recorded dataset, and the unit the live
/// [`FocusService`](crate::service::FocusService) advances continuously —
/// both produce the exact same segment partitioning for the same frame
/// sequence.
///
/// **Boundary semantics** (regression-pinned in
/// `tests/segment_durability.rs`): segment time is derived from the frame
/// id (`frame_id / fps`), a segment's start is the time of its *first*
/// frame, and a frame landing exactly on a [`SealPolicy::every_secs`]
/// boundary seals the pending segment and becomes the first frame of the
/// next one — every frame lands in exactly one segment, never zero, never
/// two.
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

/// Runs one stream through a segmenter, draining a segment index at every
/// seal boundary. The final partial segment is drained too, so the
/// pipeline's own output index comes back empty and `parts` holds every
/// record of the stream.
fn ingest_stream_segmented(
    engine: &IngestEngine,
    policy: SealPolicy,
    dataset: &VideoDataset,
) -> (Vec<TopKIndex>, PipelineOutput) {
    let classifier = engine.model().classifier.as_ref();
    let mut segmenter = StreamSegmenter::new(
        dataset.profile.stream_id,
        dataset.profile.fps,
        engine.params(),
        policy,
    );
    let mut parts = Vec::new();
    for frame in &dataset.frames {
        if let Some(part) = segmenter.push_frame(frame, classifier) {
            parts.push(part);
        }
    }
    let (final_part, output) = segmenter.finish();
    parts.extend(final_part);
    (parts, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_cnn::ModelSpec;
    use focus_index::persist;
    use focus_video::profile::profile_by_name;
    use std::path::PathBuf;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("focus_segment_ingest_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn workload(names: &[&str], secs: f64) -> Vec<VideoDataset> {
        names
            .iter()
            .map(|n| VideoDataset::generate(profile_by_name(n).unwrap(), secs))
            .collect()
    }

    fn ingest(shards: usize) -> SegmentedIngest {
        SegmentedIngest::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_1()),
            IngestParams {
                k: 10,
                ..IngestParams::default()
            },
            SealPolicy::every_secs(15.0),
            shards,
        )
    }

    #[test]
    fn store_merge_equals_combined_index() {
        let datasets = workload(&["auburn_c", "lausanne"], 45.0);
        let dir = test_dir("merge_equals");
        let mut store = SegmentStore::create(&dir).unwrap();
        let meter = GpuMeter::new();
        let output = ingest(2)
            .ingest_to_store(&datasets, &mut store, &meter)
            .unwrap();
        // 45 s at a 15-s budget: 3 segments per stream.
        assert_eq!(output.sealed.len(), 6);
        assert_eq!(store.len(), 6);
        assert_eq!(
            persist::to_json(&store.merged_index().unwrap()).unwrap(),
            persist::to_json(&output.combined.index).unwrap()
        );
        // Bookkeeping is whole-run: every object indexed exactly once, every
        // centroid retained, the meter charged the full cost.
        let indexed: usize = output.combined.index.clusters().map(|c| c.len()).sum();
        assert_eq!(indexed, output.combined.objects_total);
        assert_eq!(
            output.combined.objects_total,
            datasets.iter().map(|d| d.object_count()).sum::<usize>()
        );
        for record in output.combined.index.clusters() {
            assert!(output
                .combined
                .centroids
                .contains_key(&record.centroid_object));
        }
        assert!(
            (meter.phase("ingest").seconds() - output.combined.gpu_cost.seconds()).abs() < 1e-12
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_bounds_partition_stream_time() {
        let datasets = workload(&["auburn_c"], 60.0);
        let dir = test_dir("bounds");
        let mut store = SegmentStore::create(&dir).unwrap();
        let output = ingest(1)
            .ingest_to_store(&datasets, &mut store, &GpuMeter::new())
            .unwrap();
        assert_eq!(output.sealed.len(), 4);
        for window in output.sealed.windows(2) {
            // Consecutive segments of one stream cover later and later time.
            assert!(window[0].t_start <= window[1].t_start);
            assert!(window[0].t_end <= window[1].t_end);
        }
        for (i, meta) in output.sealed.iter().enumerate() {
            assert!(meta.t_end >= meta.t_start);
            // Each 15-second budget window stays within its slice of the
            // stream (clusters can't span a seal boundary).
            assert!(meta.t_start >= i as f64 * 15.0 - 1e-9);
            assert!(meta.t_end <= (i + 1) as f64 * 15.0 + 1e-9);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_budget_seals_too() {
        let datasets = workload(&["bend"], 30.0);
        let fps = datasets[0].profile.fps as usize;
        let dir = test_dir("frame_budget");
        let mut store = SegmentStore::create(&dir).unwrap();
        let ingest = SegmentedIngest::new(
            IngestCnn::generic(ModelSpec::cheap_cnn_1()),
            IngestParams::default(),
            SealPolicy::every_frames(fps * 10),
            1,
        );
        let output = ingest
            .ingest_to_store(&datasets, &mut store, &GpuMeter::new())
            .unwrap();
        // 30 s at a 10-s-of-frames budget: up to 3 segments (sparse streams
        // may seal empty windows, which are skipped).
        assert!(!output.sealed.is_empty());
        assert!(output.sealed.len() <= 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_contents_are_identical_for_any_shard_count() {
        let datasets = workload(&["auburn_c", "lausanne", "bend"], 30.0);
        let mut manifests = Vec::new();
        for shards in [1usize, 2, 4] {
            let dir = test_dir(&format!("shards_{shards}"));
            let mut store = SegmentStore::create(&dir).unwrap();
            ingest(shards)
                .ingest_to_store(&datasets, &mut store, &GpuMeter::new())
                .unwrap();
            let manifest_json =
                std::fs::read_to_string(dir.join(focus_index::manifest::MANIFEST_FILE)).unwrap();
            let segment_bytes: Vec<Vec<u8>> = store
                .segments()
                .iter()
                .map(|m| std::fs::read(dir.join(&m.file)).unwrap())
                .collect();
            manifests.push((manifest_json, segment_bytes));
            std::fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(manifests[0], manifests[1]);
        assert_eq!(manifests[0], manifests[2]);
    }

    #[test]
    #[should_panic(expected = "distinct stream")]
    fn duplicate_streams_are_rejected() {
        let mut datasets = workload(&["auburn_c"], 10.0);
        datasets.push(datasets[0].clone());
        let dir = test_dir("duplicate");
        let mut store = SegmentStore::create(&dir).unwrap();
        let _ = ingest(2).ingest_to_store(&datasets, &mut store, &GpuMeter::new());
    }

    #[test]
    fn policy_constructors() {
        assert_eq!(SealPolicy::default().max_frames, 1800);
        assert_eq!(SealPolicy::every_frames(5).max_secs, f64::INFINITY);
        assert_eq!(SealPolicy::every_secs(5.0).max_frames, usize::MAX);
    }
}
