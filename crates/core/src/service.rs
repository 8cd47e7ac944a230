//! The live Focus service: one long-lived object that ingests and serves
//! at the same time.
//!
//! The paper runs its two sides as phases: ingest builds the index, then
//! queries read it. [`FocusService`] is the one driver of both, and runs
//! them at once — a recorded dataset is the special case of a stream whose
//! frames all arrive before the first query (`register_stream` →
//! `advance` → `seal_all` → `serve`, which is what
//! [`ExperimentRunner`](crate::experiment::ExperimentRunner) does for every
//! figure):
//!
//! * **Hot tail + sealed past** (LSM-style read path): each stream owns a
//!   [`StreamSegmenter`] whose pipeline accumulates not-yet-sealed records
//!   in memory; sealed segments live in the durable [`SegmentStore`]. A
//!   [`serve`](FocusService::serve) call takes every stream's shared tail
//!   part ([`FramePipeline::peek_shared`] — built once per write to the
//!   stream, from the previous part plus the clusters that grew, and
//!   reused by every read until the next one), overlays the parts
//!   on the store ([`SegmentedCorpus::plan_with_tail`]) and answers from
//!   the union — proven byte-identical to sealing everything first and
//!   then querying (`tests/live_service.rs`).
//! * **Snapshot consistency**: the tail overlay is assembled once per
//!   serve call from immutable parts, so every query of the call sees the
//!   same instant; the verdict
//!   cache of the embedded [`QueryServer`] keys by `(centroid,
//!   ground-truth epoch)`, so nothing cached for the current epoch is ever
//!   re-verified.
//! * **Specialization behind the service**: each stream runs the
//!   bootstrap → specialize → retrain lifecycle
//!   ([`SpecializationLifecycle`]), labelling with the query server's
//!   current ground-truth CNN. A stream has one model: the corpus's routing
//!   model for it ([`SegmentedCorpus::route`]) is the model that classifies
//!   its frames, and a retrain goes through the same install body as a
//!   reconfiguration — seal the pipeline's model epoch, install the model,
//!   persist the sidecar. The query server's cached verdicts survive it:
//!   a GT verdict does not depend on the ingest model.
//! * **One GPU budget**: ingest classification, specialization labelling
//!   and query-time GT verification are all submitted to a shared
//!   [`GpuScheduler`], which keeps the per-phase accounting and models
//!   each tick's drain: queries first, ingest from what is left.
//! * **Background maintenance**: [`maintain`](FocusService::maintain)
//!   seals tails that hit their [`SealPolicy`] budget, triggers
//!   [`compact`](focus_index::SegmentStore::compact) when the
//!   small-segment count crosses a threshold, and drains one scheduler
//!   tick.
//! * **Durability**: every seal is one segment file holding its records
//!   and their centroid observations, plus the `service_state.json` stream
//!   registry beside the manifest; [`recover`](FocusService::recover)
//!   reopens the manifest, reads each segment's centroids in the same pass
//!   as its records, resumes cluster-key counters past the sealed segments
//!   and keeps ingesting.
//!
//! See `docs/service.md` for the lifecycle walkthrough.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use focus_cnn::GroundTruthCnn;
use focus_index::persist::{read_document, write_document, Versioned};
use focus_index::{
    ClusterKey, Fs, LruOccupancy, OsFs, SegmentAccess, SegmentError, SegmentMeta, SegmentStore,
    TopKIndex,
};
use focus_runtime::{GpuClusterSpec, GpuMeter, GpuScheduler, GpuSchedulerStats, TickReport};
use focus_video::{Frame, FrameId, StreamId};

use crate::adapt::{AdaptationConfig, Reconfiguration, StreamController};
use crate::ingest::{IngestCnn, IngestParams};
use crate::params::SelectedConfiguration;
use crate::pipeline::FramePipeline;
use crate::query::anytime::{run_batch, AnytimeOutcome, AnytimePartial, PlannedRequest};
use crate::query::segmented::{SegmentedCorpus, TailOverlay};
use crate::query::{QueryOutcome, QueryRequest};
use crate::query_server::{CacheStats, QueryServer};
use crate::segment_ingest::{SealPolicy, StreamSegmenter};
use crate::serving::ServingStats;
use crate::worker::{SpecializationLifecycle, StreamWorkerConfig};

/// Name of the service's durable sidecar next to the store's manifest.
pub const SERVICE_STATE_FILE: &str = "service_state.json";

/// Version of the service-state sidecar format.
pub const SERVICE_STATE_VERSION: u32 = 1;

/// Configuration of a [`FocusService`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Per-stream ingest parameters and specialization lifecycle
    /// (bootstrap model, retrain schedule, GT-labelling fraction).
    pub worker: StreamWorkerConfig,
    /// When a stream's pending records become an immutable segment.
    pub seal: SealPolicy,
    /// The GPU fleet shared by ingest and queries.
    pub gpus: GpuClusterSpec,
    /// Wall-clock length of one scheduler tick
    /// ([`FocusService::maintain`] drains one tick per call).
    pub tick_secs: f64,
    /// A live segment with at most this many clusters counts as *small*
    /// for the compaction trigger.
    pub small_segment_clusters: usize,
    /// Maintenance compacts the store once this many small segments are
    /// live.
    pub compact_small_threshold: usize,
    /// Fold budget handed to [`SegmentStore::compact`]: adjacent segments
    /// are merged while their combined record count stays within this.
    pub compact_max_clusters: usize,
    /// Drift-aware per-stream adaptation (`None` disables it): every
    /// stream gets a [`StreamController`] auditing the live class
    /// distribution and re-selecting the configuration when it drifts
    /// (see [`crate::adapt`]).
    #[serde(default)]
    pub adaptation: Option<AdaptationConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            worker: StreamWorkerConfig::default(),
            seal: SealPolicy::default(),
            gpus: GpuClusterSpec::default(),
            tick_secs: 1.0,
            small_segment_clusters: 32,
            compact_small_threshold: 8,
            compact_max_clusters: 256,
            adaptation: None,
        }
    }
}

/// What one [`FocusService::advance`] call did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdvanceReport {
    /// Frames pushed.
    pub frames: usize,
    /// Segments sealed to the store by seal-policy boundaries crossed
    /// during the call.
    pub segments_sealed: usize,
    /// Specialized models (re)trained during the call. A retrain leaves
    /// the verdict cache as it was: only a ground-truth change bumps its
    /// epoch.
    pub retrains: usize,
}

/// What one [`FocusService::maintain`] tick did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MaintenanceReport {
    /// Segments sealed because their stream's tail had hit a seal budget.
    pub segments_sealed: usize,
    /// Segments folded away by compaction (zero when the small-segment
    /// trigger was not crossed).
    pub segments_folded: usize,
    /// Streams whose controller detected drift and installed a re-selected
    /// configuration during this tick.
    #[serde(default)]
    pub reconfigured_streams: usize,
    /// The GPU scheduler tick drained by this call.
    pub tick: TickReport,
}

/// Unified, serializable snapshot of everything the service is doing:
/// ingest progress, storage shape, verdict-cache activity, storage I/O,
/// segment-LRU occupancy and the shared GPU scheduler's breakdown — one
/// struct instead of four separate snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Streams registered.
    pub streams: usize,
    /// Frames pushed across all streams.
    pub frames_ingested: usize,
    /// Object observations indexed across all streams.
    pub objects_indexed: usize,
    /// Specialized models (re)trained across all streams.
    pub retrains: usize,
    /// Drift-triggered configuration re-selections installed across all
    /// streams (see [`crate::adapt::StreamController`]).
    #[serde(default)]
    pub reconfigurations: usize,
    /// Audit labels drawn by the adaptation controllers (each one a GT
    /// inference on the shared budget, phase `"audit"`).
    #[serde(default)]
    pub audit_labels: usize,
    /// Live segments in the store.
    pub segments: usize,
    /// Cluster records in live segments.
    pub store_clusters: usize,
    /// Segments sealed since the service started.
    pub segments_sealed: usize,
    /// Maintenance compactions run.
    pub compactions: usize,
    /// Queries served.
    pub queries_served: usize,
    /// Candidate clusters served across all queries.
    pub candidates_served: usize,
    /// Candidates resolved from the in-memory tail (the rest came from
    /// sealed segments).
    pub tail_candidates_served: usize,
    /// Verdict-cache activity of the embedded [`QueryServer`].
    pub cache: CacheStats,
    /// Every store read since the service started: the [`SegmentAccess`]
    /// of each serve's and each anytime request's planning, merged —
    /// segments opened cold or cached, bytes read, block fetches per cache
    /// tier. Its `segments_total` is the sum of the segments each plan
    /// saw, so `segments_pruned()` is the segments the plans pruned.
    pub io: SegmentAccess,
    /// Tiered segment-cache occupancy: decoded-block and raw-bytes tiers'
    /// bytes, budgets and entries. Where fetches land is in `io`.
    pub lru: LruOccupancy,
    /// Shared GPU scheduler breakdown (per-phase submissions, per-side
    /// served/backlog, utilization inputs).
    pub gpu: GpuSchedulerStats,
    /// Request-plane SLO counters and latency histograms (admission,
    /// shedding, deadlines). Empty unless a
    /// [`RequestPlane`](crate::serving::RequestPlane) fronts the service —
    /// see [`RequestPlane::stats`](crate::serving::RequestPlane::stats).
    #[serde(default)]
    pub serving: ServingStats,
}

impl ServiceStats {
    /// Fraction of served candidates that were resolved from the hot tail
    /// (0.0 before any query).
    pub fn tail_hit_fraction(&self) -> f64 {
        if self.candidates_served == 0 {
            0.0
        } else {
            self.tail_candidates_served as f64 / self.candidates_served as f64
        }
    }
}

/// Durable sidecar: the registered streams (segment files and the
/// manifest know nothing about stream frame rates) plus each stream's
/// historical query routing. Rewritten atomically on every
/// [`FocusService::register_stream`] and on every model install (retrain
/// or reconfiguration).
#[derive(Debug, Serialize, Deserialize)]
struct ServiceState {
    version: u32,
    /// `(stream id, fps)` for every registered stream.
    streams: Vec<(u32, u32)>,
    /// Per-stream folded routing of every specialized model generation —
    /// the retired ones plus the one live at persist time (a restart
    /// effectively retires it too: models are process state and restart
    /// from bootstrap, but the records they indexed are durable and must
    /// stay findable under their routing). Absent for streams that never
    /// specialized. Missing in pre-adaptation sidecars (`serde(default)`).
    #[serde(default)]
    retired_routes: Vec<(u32, crate::query::segmented::RetiredRouting)>,
}

impl Versioned for ServiceState {
    const VERSION: u32 = SERVICE_STATE_VERSION;
    fn version(&self) -> u32 {
        self.version
    }
}

/// Per-stream live state: the incremental segmenter (hot tail) plus the
/// specialization lifecycle. The stream's ingest model is its routing
/// model in the corpus, so the two cannot disagree.
struct StreamState {
    segmenter: StreamSegmenter,
    lifecycle: SpecializationLifecycle,
    /// The drift-aware adaptation controller (present when the service
    /// runs with [`ServiceConfig::adaptation`]).
    controller: Option<StreamController>,
    /// Classifications already submitted to the scheduler (per-frame
    /// deltas, exact inference counts — no float telescoping).
    inferences_metered: usize,
}

/// The live Focus service (see the module docs).
///
/// # Examples
///
/// ```
/// use focus_core::prelude::*;
/// use focus_core::service::{FocusService, ServiceConfig};
/// use focus_cnn::GroundTruthCnn;
/// use focus_video::profile::profile_by_name;
///
/// // `FocusService::create(dir, ..)` is the same service on the disk.
/// let mut service = FocusService::create_with(
///     std::sync::Arc::new(focus_index::MemFs::default()),
///     "/store",
///     ServiceConfig {
///         seal: SealPolicy::every_secs(10.0),
///         ..ServiceConfig::default()
///     },
///     GroundTruthCnn::resnet152(),
/// )
/// .unwrap();
///
/// let profile = profile_by_name("auburn_c").unwrap();
/// let ds = focus_video::VideoDataset::generate(profile.clone(), 25.0);
/// service.register_stream(profile.stream_id, profile.fps).unwrap();
///
/// // Interleave ingest and queries: results issued mid-ingest include
/// // the not-yet-sealed tail.
/// service.advance(&ds.frames).unwrap();
/// let class = ds.dominant_classes(1)[0];
/// let outcomes = service
///     .serve(&[focus_core::query::QueryRequest::new(class)])
///     .unwrap();
/// assert!(!outcomes[0].frames.is_empty());
///
/// let stats = service.stats();
/// assert_eq!(stats.queries_served, 1);
/// assert!(stats.tail_hit_fraction() > 0.0, "the tail answered part of it");
/// ```
pub struct FocusService {
    config: ServiceConfig,
    corpus: SegmentedCorpus,
    streams: BTreeMap<StreamId, StreamState>,
    server: QueryServer,
    scheduler: GpuScheduler,
    io: Mutex<SegmentAccess>,
    segments_sealed: usize,
    reconfigurations: usize,
    compactions: usize,
    queries_served: AtomicUsize,
    candidates_served: AtomicUsize,
    tail_candidates_served: AtomicUsize,
}

impl std::fmt::Debug for FocusService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FocusService")
            .field("streams", &self.streams.len())
            .field("segments", &self.corpus.store().len())
            .finish()
    }
}

impl FocusService {
    /// Creates a fresh service over a new store at `dir`.
    pub fn create(
        dir: impl Into<PathBuf>,
        config: ServiceConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, SegmentError> {
        Self::create_with(Arc::new(OsFs), dir, config, gt)
    }

    /// [`create`](Self::create) on `fs`, which the store and its sidecar use.
    pub fn create_with(
        fs: Arc<dyn Fs>,
        dir: impl Into<PathBuf>,
        config: ServiceConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, SegmentError> {
        let store = SegmentStore::create_with(fs, dir.into())?;
        Ok(Self::assemble(store, config, gt))
    }

    /// Reopens a service from a store directory: reads and validates the
    /// `service_state.json` sidecar (a directory without a usable one is
    /// refused before anything in it is touched), verifies and repairs the
    /// manifest while reading each segment once
    /// ([`SegmentStore::open_scanning`], which also leaves the most recent
    /// segments warm in the decoded tier and hands back every segment's
    /// centroid observations — a segment missing one is refused by the
    /// format), checks that no cluster key is sealed twice
    /// ([`SegmentError::DuplicateKey`] naming both segments), re-registers
    /// the recorded streams and resumes their cluster-key counters past the
    /// sealed segments.
    ///
    /// Ingest models restart from the bootstrap model and re-specialize on
    /// fresh samples (models are process state, not data); sealed records
    /// and their verdict-cache behaviour are unaffected.
    pub fn recover(
        dir: impl Into<PathBuf>,
        config: ServiceConfig,
        gt: GroundTruthCnn,
    ) -> Result<(Self, focus_index::OpenReport), SegmentError> {
        Self::recover_with(Arc::new(OsFs), dir, config, gt)
    }

    /// [`recover`](Self::recover) on `fs`, for the sidecar and the store.
    pub fn recover_with(
        fs: Arc<dyn Fs>,
        dir: impl Into<PathBuf>,
        config: ServiceConfig,
        gt: GroundTruthCnn,
    ) -> Result<(Self, focus_index::OpenReport), SegmentError> {
        let dir = dir.into();
        // Validate the sidecar before the store is opened: opening repairs
        // (sweeps temp files, quarantines orphans, may rewrite the
        // manifest), and a directory this service cannot serve must be
        // refused untouched.
        let state: ServiceState = read_document(&*fs, &dir.join(SERVICE_STATE_FILE))?;
        // A stream listed twice would be registered twice below; refuse it
        // here, before the open repairs anything.
        let mut listed: Vec<u32> = state.streams.iter().map(|(stream, _)| *stream).collect();
        listed.sort_unstable();
        if let Some(pair) = listed.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(SegmentError::StreamRegistered {
                stream: StreamId(pair[0]),
            });
        }
        // One read per segment: the open's own pass over the verified bytes
        // yields every sealed record's key and every segment's centroids.
        let mut sealed: Vec<(ClusterKey, u64)> = Vec::new();
        let mut centroids = HashMap::new();
        let (store, report) = SegmentStore::open_scanning(
            fs,
            &dir,
            |segment, record| sealed.push((record.key, segment)),
            |segment| centroids.extend(segment.into_iter().map(|o| (o.object_id, o))),
        )?;

        // Segments must be key-disjoint, and new cluster keys must continue
        // past the sealed ones.
        sealed.sort_unstable();
        if let Some(pair) = sealed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(SegmentError::DuplicateKey {
                key: pair[0].0,
                segments: [pair[0].1, pair[1].1],
            });
        }
        let mut next_keys: HashMap<StreamId, u64> = HashMap::new();
        for (key, _) in &sealed {
            let next = next_keys.entry(key.stream).or_insert(0);
            *next = (*next).max(key.local + 1);
        }

        let mut service = Self::assemble(store, config, gt);
        service.corpus.centroids = centroids;
        for (stream, fps) in state.streams {
            let stream = StreamId(stream);
            let mut pipeline = FramePipeline::new(stream, fps, service.config.worker.params);
            if let Some(next) = next_keys.get(&stream) {
                pipeline.start_cluster_keys_at(*next);
            }
            service.insert_stream(stream, pipeline)?;
        }
        // Every specialized generation that ever indexed records — the
        // retired ones and the one live at crash time — stays in the query
        // routing, so sealed epochs posted under OTHER remain reachable
        // after recovery exactly as before it.
        for (stream, routing) in state.retired_routes {
            service
                .corpus
                .retired_routes
                .insert(StreamId(stream), routing);
        }
        Ok((service, report))
    }

    fn assemble(store: SegmentStore, config: ServiceConfig, gt: GroundTruthCnn) -> Self {
        let bootstrap = IngestCnn::generic(config.worker.bootstrap_model);
        let corpus = SegmentedCorpus::new(store, HashMap::new(), bootstrap);
        let server = QueryServer::new(gt, config.gpus);
        let scheduler = GpuScheduler::new(config.gpus, config.tick_secs);
        Self {
            config,
            corpus,
            streams: BTreeMap::new(),
            server,
            scheduler,
            io: Mutex::new(SegmentAccess::default()),
            segments_sealed: 0,
            reconfigurations: 0,
            compactions: 0,
            queries_served: AtomicUsize::new(0),
            candidates_served: AtomicUsize::new(0),
            tail_candidates_served: AtomicUsize::new(0),
        }
    }

    /// Registers a stream and persists the sidecar so the stream survives
    /// recovery. A stream registered twice is
    /// [`SegmentError::StreamRegistered`], and the service is unchanged.
    pub fn register_stream(&mut self, stream: StreamId, fps: u32) -> Result<(), SegmentError> {
        let pipeline = FramePipeline::new(stream, fps, self.config.worker.params);
        self.insert_stream(stream, pipeline)?;
        self.persist_state()
    }

    fn insert_stream(
        &mut self,
        stream: StreamId,
        pipeline: FramePipeline,
    ) -> Result<(), SegmentError> {
        if self.streams.contains_key(&stream) {
            return Err(SegmentError::StreamRegistered { stream });
        }
        let controller = self
            .config
            .adaptation
            .clone()
            .map(|config| StreamController::new(stream, pipeline.fps(), config));
        let state = StreamState {
            segmenter: StreamSegmenter::from_pipeline(pipeline, self.config.seal),
            lifecycle: SpecializationLifecycle::new(stream, self.config.worker.clone()),
            controller,
            inferences_metered: 0,
        };
        self.streams.insert(stream, state);
        Ok(())
    }

    /// Pushes a batch of live frames (any interleaving of registered
    /// streams, in stream order per stream). Seal-policy boundaries
    /// crossed during the call seal segments durably; retrain schedules
    /// coming due swap stream models (cached GT verdicts stay valid).
    /// All GPU work is submitted to the shared scheduler.
    ///
    /// A frame of an unregistered stream is [`SegmentError::UnknownStream`].
    /// An error stops the batch at the failing frame: the frames before it
    /// stay ingested, and their GPU work stays charged. The resume rule: a
    /// frame whose seal failed is ingested (its records wait in the tail
    /// for the next seal), so a caller resumes after it; a frame of an
    /// unknown stream is not.
    pub fn advance(&mut self, frames: &[Frame]) -> Result<AdvanceReport, SegmentError> {
        let spec_meter = GpuMeter::new();
        let mut report = AdvanceReport::default();
        let pushed = self.push_frames(frames, &spec_meter, &mut report);
        let labelling = spec_meter.phase("specialization");
        self.scheduler.submit("specialization", labelling);
        self.scheduler.submit("audit", spec_meter.phase("audit"));
        pushed.map(|()| report)
    }

    /// [`advance`](Self::advance)'s frame loop, with labelling charged to
    /// `spec_meter`. A frame that crosses a seal boundary and brings a
    /// retrain due installs the model and then seals the part it drained:
    /// both run whatever the other returns, so the drained part is sealed
    /// or restored on every exit and the stream always routes through the
    /// model that indexes it.
    fn push_frames(
        &mut self,
        frames: &[Frame],
        spec_meter: &GpuMeter,
        report: &mut AdvanceReport,
    ) -> Result<(), SegmentError> {
        let gt = self.server.ground_truth();
        for frame in frames {
            let stream = frame.stream_id;
            let StreamState {
                segmenter,
                lifecycle,
                controller,
                inferences_metered,
            } = self
                .streams
                .get_mut(&stream)
                .ok_or(SegmentError::UnknownStream { stream })?;
            let model = self.corpus.stream_model(stream);
            if let Some(controller) = controller.as_mut() {
                controller.note_frame(frame);
            }
            let sealed =
                segmenter.push_frame_observed(frame, model.classifier.as_ref(), |obj, n| {
                    lifecycle.observe(obj, n, &gt, spec_meter);
                    if let Some(controller) = controller.as_mut() {
                        controller.observe(obj, n, &gt, spec_meter);
                    }
                });
            let classified = segmenter.pipeline().stats().objects_classified;
            let new_inferences = classified - *inferences_metered;
            if new_inferences > 0 {
                self.scheduler
                    .submit("ingest", model.cost_per_inference() * new_inferences);
                *inferences_metered = classified;
            }
            let retrained = lifecycle.maybe_retrain(frame.timestamp_secs);
            if let (Some(_), Some(controller)) = (&retrained, controller.as_mut()) {
                // The specialization sample's class mix becomes the drift
                // detector's reference: the configuration now in force was
                // chosen for exactly that distribution.
                controller.set_reference(lifecycle.sample_class_histogram());
            }
            let installed = retrained
                .map(|model| self.install_model(stream, model, None))
                .transpose();
            let sealed = sealed
                .map(|part| self.seal_durably(stream, part))
                .transpose();
            report.retrains += usize::from(installed?.is_some());
            report.segments_sealed += usize::from(sealed?.unwrap_or(false));
            report.frames += 1;
        }
        Ok(())
    }

    /// Each registered stream's unsealed watermark: the first frame whose
    /// records are in no durable segment (`None` when nothing is pending).
    /// A failed seal does not move it. Replaying a stream's frames from it
    /// into a [`recover`](Self::recover)ed service rebuilds the tail
    /// byte-identically (each seal starts a fresh pipeline epoch, so the
    /// tail is a pure function of these frames).
    pub fn unsealed_from_by_stream(&self) -> BTreeMap<StreamId, Option<FrameId>> {
        self.streams
            .iter()
            .map(|(stream, state)| (*stream, state.segmenter.unsealed_from()))
            .collect()
    }

    /// The registered streams and their frame rates.
    pub fn registered_streams(&self) -> BTreeMap<StreamId, u32> {
        self.streams
            .iter()
            .map(|(stream, state)| (*stream, state.segmenter.pipeline().fps()))
            .collect()
    }

    /// Serves a batch of queries over the snapshot-consistent union of
    /// sealed segments and every stream's hot tail. The tail overlay is
    /// built once per call; the verdict cache, dedupe and batched GT
    /// verification behave exactly as in [`QueryServer::serve_resolved`] —
    /// each request run as its [`anytime`](QueryRequest::anytime) mode
    /// says — and the GPU work is submitted to the shared scheduler.
    pub fn serve(&self, requests: &[QueryRequest]) -> Result<Vec<QueryOutcome>, SegmentError> {
        let runs = self.serve_streaming(requests, |_, _| {}, |_| {})?;
        Ok(runs.into_iter().map(|run| run.outcome).collect())
    }

    /// Serves one query with its round trail ([`crate::query::anytime`]):
    /// an incremental request verifies its sealed and tail candidates in
    /// one fixed order under `request.anytime`'s budget and round size, with
    /// one [`AnytimePartial`] per round and its rounds submitted to the
    /// scheduler as `"anytime"`; an exact request is one round with no
    /// partials, its outcome equal to [`serve`](Self::serve)'s.
    pub fn serve_anytime(&self, request: &QueryRequest) -> Result<AnytimeOutcome, SegmentError> {
        self.serve_anytime_with(request, |_| {})
    }

    /// [`serve_anytime`](Self::serve_anytime), streaming each round's
    /// [`AnytimePartial`] to `on_partial` as it is produced.
    pub fn serve_anytime_with(
        &self,
        request: &QueryRequest,
        mut on_partial: impl FnMut(&AnytimePartial),
    ) -> Result<AnytimeOutcome, SegmentError> {
        let mut runs = self.serve_streaming(
            std::slice::from_ref(request),
            |_, partial| on_partial(partial),
            |_| {},
        )?;
        Ok(runs.remove(0))
    }

    /// The one serving body behind [`serve`](Self::serve),
    /// [`serve_anytime`](Self::serve_anytime) and the request plane: plan
    /// over one tail snapshot, execute ([`run_batch`], `on_partial(i, _)`
    /// after each round of incremental request `i`, `on_stop(i)` once
    /// request `i` has stopped), submit each phase.
    pub(crate) fn serve_streaming(
        &self,
        requests: &[QueryRequest],
        on_partial: impl FnMut(usize, &AnytimePartial),
        on_stop: impl FnMut(usize),
    ) -> Result<Vec<AnytimeOutcome>, SegmentError> {
        let tail = self.tail_snapshot();
        let mut plans = Vec::with_capacity(requests.len());
        // Accumulate accounting locally and commit only once every plan
        // succeeded: a planning error mid-batch serves nothing, so it must
        // also count nothing.
        let mut access = SegmentAccess::default();
        let mut tail_candidates = 0usize;
        let mut candidates = 0usize;
        for request in requests {
            let planned = self.corpus.plan_with_tail(request, Some(&tail))?;
            access.merge(&planned.access);
            tail_candidates += planned.tail_records;
            candidates += planned.plan.candidates.len();
            plans.push(planned);
        }
        self.io.lock().merge(&access);
        self.tail_candidates_served
            .fetch_add(tail_candidates, Ordering::SeqCst);
        self.candidates_served
            .fetch_add(candidates, Ordering::SeqCst);
        let planned: Vec<PlannedRequest> = plans
            .iter()
            .zip(requests)
            .map(|(plan, request)| PlannedRequest::new(plan, request.anytime))
            .collect();
        let meter = GpuMeter::new();
        let runs = run_batch(
            &self.server,
            &planned,
            |id| self.corpus.centroid(id, &tail).cloned(),
            &meter,
            on_partial,
            on_stop,
        );
        for phase in ["query", "anytime"] {
            self.scheduler.submit(phase, meter.phase(phase));
        }
        self.queries_served
            .fetch_add(requests.len(), Ordering::SeqCst);
        Ok(runs)
    }

    /// A snapshot of every stream's not-yet-sealed records, taken at one
    /// instant (streams in id order). Each stream contributes its
    /// pipeline's shared part ([`FramePipeline::peek_shared`]): a stream
    /// that has not been written since the last snapshot costs a
    /// reference-count bump, not a rebuild.
    pub fn tail_snapshot(&self) -> TailOverlay {
        let mut tail = TailOverlay::new();
        for state in self.streams.values() {
            let part = state.segmenter.pipeline().peek_shared();
            if !part.index().is_empty() {
                tail.add_shared(part);
            }
        }
        tail
    }

    /// One background maintenance tick: seals every stream tail that has
    /// hit its seal budget (exactly the segments the next frame push would
    /// have sealed, so maintenance never changes the partitioning),
    /// compacts the store when the small-segment count crosses the
    /// configured threshold, runs the adaptation controllers (drift check →
    /// re-select → install, when [`ServiceConfig::adaptation`] is on) and
    /// drains one GPU-scheduler tick.
    pub fn maintain(&mut self) -> Result<MaintenanceReport, SegmentError> {
        let mut report = MaintenanceReport::default();
        let due: Vec<StreamId> = self
            .streams
            .iter()
            .filter(|(_, s)| s.segmenter.should_seal())
            .map(|(id, _)| *id)
            .collect();
        for stream in due {
            if self.seal_stream_unconditionally(stream)? {
                report.segments_sealed += 1;
            }
        }
        let small = self
            .corpus
            .store()
            .segments()
            .iter()
            .filter(|m| m.clusters <= self.config.small_segment_clusters)
            .count();
        if small >= self.config.compact_small_threshold {
            report.segments_folded = self
                .corpus
                .store_mut()
                .compact(self.config.compact_max_clusters)?;
            if report.segments_folded > 0 {
                self.compactions += 1;
            }
        }

        // Drift check → re-select → install, one pass over the streams.
        // Re-selection sweeps charge the adaptation meter ("selection"),
        // which is submitted to the shared scheduler below — adapting
        // competes for the same GPU budget as ingest and queries.
        let adapt_meter = GpuMeter::new();
        let gt = self.server.ground_truth();
        let mut reconfigured: Vec<(StreamId, Reconfiguration)> = Vec::new();
        for (stream, state) in self.streams.iter_mut() {
            if let Some(controller) = state.controller.as_mut() {
                let now = controller.last_seen_secs();
                if let Some(event) = controller.maybe_reconfigure(now, &gt, &adapt_meter) {
                    reconfigured.push((*stream, event));
                }
            }
        }
        self.scheduler
            .submit("selection", adapt_meter.phase("selection"));
        for (stream, event) in reconfigured {
            self.install_configuration(stream, &event.selection)?;
            report.reconfigured_streams += 1;
        }

        report.tick = self.scheduler.tick();
        Ok(report)
    }

    /// Installs a (re-)selected configuration on one stream through the
    /// install body a scheduled retrain takes, plus the parameter switch:
    ///
    /// 1. the old configuration's live epoch seals into the hot tail
    ///    (records indexed before the switch are untouched and stay
    ///    reachable, byte-identical to a seal-then-reconfigure reference —
    ///    `tests/adaptive_drift.rs` pins this);
    /// 2. the pipeline's parameters (K, clustering threshold) switch on
    ///    the now-empty epoch;
    /// 3. the stream's model — its ingest model and its query routing,
    ///    one value — swaps and the sidecar is rewritten, exactly as after
    ///    a retrain. The query server's cached verdicts stay valid: they
    ///    depend on the observation and the ground-truth model, not on the
    ///    ingest model that indexed the centroid.
    ///
    /// The adaptation controllers call this on drift; it is public so an
    /// operator (or a test building a reference run) can install a
    /// configuration by hand. An unregistered stream is
    /// [`SegmentError::UnknownStream`], returned before anything changes.
    pub fn install_configuration(
        &mut self,
        stream: StreamId,
        selection: &SelectedConfiguration,
    ) -> Result<(), SegmentError> {
        self.install_model(stream, selection.model.clone(), Some(selection.params))?;
        self.reconfigurations += 1;
        Ok(())
    }

    /// The one model-install body, behind a retrain and a reconfiguration:
    /// seals the stream's live model epoch into its tail (feature spaces of
    /// different models are not comparable), switches the pipeline's
    /// parameters when `params` is given, installs `model` as the stream's
    /// ingest and routing model and persists the sidecar so the new
    /// generation's routing survives a restart.
    ///
    /// The verdict cache is left alone: a GT verdict depends only on the
    /// observation and the GT model, and an object id names one
    /// observation for the life of the corpus, so every verdict cached
    /// under the old ingest model is still the verdict the GT model gives
    /// (see [`QueryServer`]'s module docs for the bound this keeps).
    fn install_model(
        &mut self,
        stream: StreamId,
        model: IngestCnn,
        params: Option<IngestParams>,
    ) -> Result<(), SegmentError> {
        let state = self
            .streams
            .get_mut(&stream)
            .ok_or(SegmentError::UnknownStream { stream })?;
        let pipeline = state.segmenter.pipeline_mut();
        pipeline.seal_epoch();
        if let Some(params) = params {
            pipeline.set_params(params);
        }
        self.corpus.install_stream_model(stream, model);
        self.persist_state()
    }

    /// Unconditionally seals every stream's pending tail into the store
    /// (shutdown / checkpoint). After this, [`serve`](Self::serve) over
    /// the (now empty) tail and a cold recovery answer identically.
    pub fn seal_all(&mut self) -> Result<Vec<SegmentMeta>, SegmentError> {
        let streams: Vec<StreamId> = self.streams.keys().copied().collect();
        let before = self.corpus.store().len();
        for stream in streams {
            self.seal_stream_unconditionally(stream)?;
        }
        Ok(self.corpus.store().segments()[before..].to_vec())
    }

    /// Drains one stream's pending tail and seals it durably. Returns
    /// whether a segment was sealed.
    fn seal_stream_unconditionally(&mut self, stream: StreamId) -> Result<bool, SegmentError> {
        let state = self
            .streams
            .get_mut(&stream)
            .ok_or(SegmentError::UnknownStream { stream })?;
        let part = state.segmenter.seal_pending();
        self.seal_durably(stream, part)
    }

    /// Seals one drained part durably — records and centroid observations
    /// in one segment file, then the manifest — makes its centroids
    /// resolvable through the corpus and moves the unsealed watermark (the
    /// service's one call). Returns whether a segment was written. If the
    /// durable write fails, the drained records are restored into the
    /// stream's hot tail ([`FramePipeline::restore_drained`]) and the
    /// watermark stays, so they stay visible to [`serve`](Self::serve),
    /// the next seal attempt re-drains them and a restart or failover
    /// replays them: a transient I/O error never loses a time window.
    fn seal_durably(&mut self, stream: StreamId, part: TopKIndex) -> Result<bool, SegmentError> {
        let state = self
            .streams
            .get_mut(&stream)
            .ok_or(SegmentError::UnknownStream { stream })?;
        match self.corpus.store_mut().seal(&part) {
            Ok(meta) => {
                state.segmenter.mark_sealed();
                let centroids = part.centroids().map(|o| (o.object_id, o.clone()));
                self.corpus.centroids.extend(centroids);
                self.segments_sealed += usize::from(meta.is_some());
                Ok(meta.is_some())
            }
            Err(e) => {
                state.segmenter.pipeline_mut().restore_drained(part);
                Err(e)
            }
        }
    }

    /// Writes the durable stream registry and routing history atomically
    /// next to the manifest.
    fn persist_state(&self) -> Result<(), SegmentError> {
        // Persist each stream's routing history as it would look after a
        // restart: the already-retired generations plus the live model
        // (models are process state — a recovered service restarts from
        // the bootstrap model, which turns today's live specialized model
        // into one more retired generation).
        let mut retired_routes = Vec::new();
        for id in self.streams.keys() {
            let mut routing = self
                .corpus
                .retired_routes
                .get(id)
                .cloned()
                .unwrap_or_default();
            if let Some(model) = self.corpus.stream_models.get(id) {
                if let Some(classes) = model.specialized_classes.as_deref() {
                    routing.retire(classes);
                }
            }
            if routing.generations > 0 {
                retired_routes.push((id.0, routing));
            }
        }
        let state = ServiceState {
            version: SERVICE_STATE_VERSION,
            streams: self
                .streams
                .iter()
                .map(|(id, s)| (id.0, s.segmenter.pipeline().fps()))
                .collect(),
            retired_routes,
        };
        let store = self.corpus.store();
        write_document(store.fs(), &store.dir().join(SERVICE_STATE_FILE), &state)?;
        Ok(())
    }

    /// Replaces the ground-truth CNN (bumping the verdict-cache epoch).
    /// The query server holds the service's one copy: verification,
    /// specialization labelling, audit labels and re-selection all read
    /// it, so this is the same as
    /// [`QueryServer::retrain_ground_truth`] on [`query_server`](Self::query_server).
    pub fn retrain_ground_truth(&mut self, gt: GroundTruthCnn) {
        self.server.retrain_ground_truth(gt);
    }

    /// The adaptation controller of one stream (`None` for unregistered
    /// streams or when the service runs without
    /// [`ServiceConfig::adaptation`]).
    pub fn stream_controller(&self, stream: StreamId) -> Option<&StreamController> {
        self.streams.get(&stream)?.controller.as_ref()
    }

    /// The ingest pipeline of one stream (`None` for unregistered
    /// streams): its counters and the GPU seconds its classifications
    /// accrued, one inference at a time.
    pub fn stream_pipeline(&self, stream: StreamId) -> Option<&FramePipeline> {
        Some(self.streams.get(&stream)?.segmenter.pipeline())
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The embedded query server (verdict cache, GT epoch).
    pub fn query_server(&self) -> &QueryServer {
        &self.server
    }

    /// The shared GPU scheduler.
    pub fn scheduler(&self) -> &GpuScheduler {
        &self.scheduler
    }

    /// The query-side view of the corpus (store, centroids, routing
    /// models).
    pub fn corpus(&self) -> &SegmentedCorpus {
        &self.corpus
    }

    /// The durable segment store.
    pub fn store(&self) -> &SegmentStore {
        self.corpus.store()
    }

    /// The live ingest model of one stream — its routing model in the
    /// corpus (bootstrap model until the first specialization).
    pub fn stream_model(&self, stream: StreamId) -> Option<&IngestCnn> {
        self.streams
            .contains_key(&stream)
            .then(|| self.corpus.stream_model(stream))
    }

    /// Frames ingested across every stream ([`ServiceStats::frames_ingested`]).
    pub(crate) fn frames_ingested(&self) -> usize {
        let streams = self.streams.values();
        streams.map(|s| s.segmenter.pipeline().stats().frames).sum()
    }

    /// Unified stats snapshot across every subsystem.
    pub fn stats(&self) -> ServiceStats {
        let mut objects = 0;
        let mut retrains = 0;
        let mut audit_labels = 0;
        for state in self.streams.values() {
            objects += state.segmenter.pipeline().stats().objects;
            retrains += state.lifecycle.retrains();
            if let Some(controller) = state.controller.as_ref() {
                audit_labels += controller.audit_labels();
            }
        }
        ServiceStats {
            streams: self.streams.len(),
            frames_ingested: self.frames_ingested(),
            objects_indexed: objects,
            retrains,
            reconfigurations: self.reconfigurations,
            audit_labels,
            segments: self.corpus.store().len(),
            store_clusters: self.corpus.store().total_clusters(),
            segments_sealed: self.segments_sealed,
            compactions: self.compactions,
            queries_served: self.queries_served.load(Ordering::SeqCst),
            candidates_served: self.candidates_served.load(Ordering::SeqCst),
            tail_candidates_served: self.tail_candidates_served.load(Ordering::SeqCst),
            cache: self.server.cache_stats(),
            io: *self.io.lock(),
            lru: self.corpus.store().cache_occupancy(),
            gpu: self.scheduler.stats(),
            serving: ServingStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_index::MemFs;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;
    use std::path::Path;

    /// Where every unit test's store lives, each on its own [`MemFs`].
    const DIR: &str = "/store";

    /// A fresh service at [`DIR`] on `fs`.
    fn service_on(fs: &Arc<dyn Fs>, config: ServiceConfig) -> FocusService {
        FocusService::create_with(Arc::clone(fs), DIR, config, GroundTruthCnn::resnet152()).unwrap()
    }

    /// A fresh, empty in-memory filesystem.
    fn mem_fs() -> Arc<dyn Fs> {
        Arc::new(MemFs::default())
    }

    /// A fresh service on a fresh in-memory filesystem.
    fn mem_service(config: ServiceConfig) -> FocusService {
        service_on(&mem_fs(), config)
    }

    fn quiet_config() -> ServiceConfig {
        ServiceConfig {
            worker: StreamWorkerConfig {
                bootstrap_secs: 1e9,
                retrain_interval_secs: 1e9,
                gt_label_fraction: 0.0,
                ..StreamWorkerConfig::default()
            },
            seal: SealPolicy::every_secs(10.0),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn service_stats_fold_every_subsystem_and_serialize() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 25.0);
        let mut service = mem_service(quiet_config());
        service
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        service.advance(&ds.frames).unwrap();
        let class = ds.dominant_classes(1)[0];
        service.serve(&[QueryRequest::new(class)]).unwrap();
        service.maintain().unwrap();

        let stats = service.stats();
        assert_eq!(stats.streams, 1);
        assert_eq!(stats.frames_ingested, ds.frames.len());
        assert_eq!(stats.objects_indexed, ds.object_count());
        assert!(stats.segments >= 2);
        assert_eq!(stats.queries_served, 1);
        assert!(stats.candidates_served > 0);
        assert!(stats.cache.misses > 0, "fresh verdicts were computed");
        assert!(stats.gpu.ingest_submitted_secs > 0.0);
        assert!(stats.gpu.query_submitted_secs > 0.0);
        assert_eq!(stats.gpu.ticks, 1);
        assert!(stats.tail_hit_fraction() >= 0.0);

        // The whole snapshot is one serde-serializable struct and
        // round-trips.
        let json = serde_json::to_string(&stats).unwrap();
        let back: ServiceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn ingest_and_query_share_one_gpu_budget() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 20.0);
        let config = ServiceConfig {
            gpus: GpuClusterSpec::new(2),
            tick_secs: 0.05,
            ..quiet_config()
        };
        let mut service = mem_service(config);
        service
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        service.advance(&ds.frames).unwrap();
        let class = ds.dominant_classes(1)[0];
        service.serve(&[QueryRequest::new(class)]).unwrap();

        // Both sides were charged against the same scheduler, and a
        // query-first tick under backlog serves the query side first.
        let tick = service.maintain().unwrap().tick;
        let stats = service.scheduler().stats();
        assert!(stats.ingest_submitted_secs > 0.0);
        assert!(stats.query_submitted_secs > 0.0);
        assert!(
            (stats.ingest_served_secs
                + stats.query_served_secs
                + stats.ingest_backlog_secs
                + stats.query_backlog_secs
                - stats.ingest_submitted_secs
                - stats.query_submitted_secs)
                .abs()
                < 1e-9,
            "budget conservation"
        );
        if tick.query_backlog_secs > 0.0 {
            assert_eq!(
                tick.ingest_served_secs, 0.0,
                "query-first never serves ingest while query work is queued"
            );
        }
        // The scheduler's meter carries the ordinary per-phase accounting.
        assert!(service.scheduler().meter().phase("ingest").seconds() > 0.0);
        assert!(service.scheduler().meter().phase("query").seconds() > 0.0);
    }

    #[test]
    fn adaptive_service_audits_on_the_shared_budget() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 30.0);
        let config = ServiceConfig {
            adaptation: Some(crate::adapt::AdaptationConfig {
                audit_fraction: 0.05,
                ..crate::adapt::AdaptationConfig::default()
            }),
            ..quiet_config()
        };
        let mut service = mem_service(config);
        service
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        service.advance(&ds.frames).unwrap();
        service.maintain().unwrap();

        let stats = service.stats();
        assert!(stats.audit_labels > 0, "the controller drew audit labels");
        assert_eq!(stats.reconfigurations, 0, "no drift, no reconfiguration");
        // Audit labelling went through the shared scheduler as ingest-side
        // work.
        assert!(stats.gpu.submitted_by_phase["audit"] > 0.0);
        assert!(
            service.stream_controller(profile.stream_id).is_some(),
            "controller attached to the stream"
        );
        // The whole snapshot still round-trips.
        let json = serde_json::to_string(&stats).unwrap();
        let back: ServiceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn retired_routing_survives_recovery() {
        use crate::ingest::IngestParams;
        use crate::params::{ConfigurationPoint, ModelChoice, SelectedConfiguration};
        use focus_cnn::{Classifier, ModelSpec, SpecializedCnn, OTHER_CLASS};
        use focus_video::ClassId;

        fn selection_of(model: IngestCnn, k: usize) -> SelectedConfiguration {
            SelectedConfiguration {
                point: ConfigurationPoint {
                    model: ModelChoice::Generic(ModelSpec::cheap_cnn_1()),
                    k,
                    threshold: 1.5,
                    ingest_cost_norm: 0.0,
                    query_latency_norm: 0.0,
                    precision: 1.0,
                    recall: 1.0,
                    worst_precision: 1.0,
                    worst_recall: 1.0,
                },
                model,
                params: IngestParams {
                    k,
                    ..IngestParams::default()
                },
                met_targets: true,
            }
        }

        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 120.0);
        let gt = GroundTruthCnn::resnet152();
        let sample: Vec<_> = ds
            .objects()
            .map(|o| (o.clone(), gt.classify_top1(o)))
            .collect();
        // Gen 1 specializes WITHOUT some class C (its records post under
        // OTHER); gen 2 specializes FOR C.
        let gen1 = IngestCnn::specialized(
            SpecializedCnn::train(
                "recover-gen1",
                focus_cnn::specialize::SpecializationLevel::Medium,
                &sample,
                1,
            )
            .unwrap(),
        );
        let gen2 = IngestCnn::specialized(
            SpecializedCnn::train(
                "recover-gen2",
                focus_cnn::specialize::SpecializationLevel::Medium,
                &sample,
                8,
            )
            .unwrap(),
        );
        // The split class must really occur during the gen1 era (the GT
        // sample's tail ranks can be flicker-only labels with no objects
        // behind them), so gen1-era OTHER records of it exist. The gen1
        // era covers three quarters of the recording because the
        // generator's busy/quiet bursts can keep a class entirely out of
        // the first half.
        let cut = ds.frames.len() * 3 / 4;
        let occurs = |class: ClassId, frames: &[Frame]| {
            frames
                .iter()
                .flat_map(|f| f.objects.iter())
                .filter(|o| o.true_class == class)
                .count()
                > 20
        };
        let split_class = *gen2
            .specialized_classes
            .as_ref()
            .unwrap()
            .iter()
            .find(|c| {
                !gen1.specialized_classes.as_ref().unwrap().contains(c)
                    && occurs(**c, &ds.frames[..cut])
            })
            .expect("gen2 covers a real class gen1 lacks");

        let fs = mem_fs();
        let mut service = service_on(&fs, quiet_config());
        service
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        service
            .install_configuration(profile.stream_id, &selection_of(gen1, 4))
            .unwrap();
        service.advance(&ds.frames[..cut]).unwrap();
        service
            .install_configuration(profile.stream_id, &selection_of(gen2, 4))
            .unwrap();
        service.advance(&ds.frames[cut..]).unwrap();
        service.seal_all().unwrap();
        let request = QueryRequest::new(split_class);
        let before = service.serve(std::slice::from_ref(&request)).unwrap();
        assert!(
            !before[0].frames.is_empty(),
            "the split class has gen1-era records"
        );
        drop(service);

        // A recovered service has no models (process state), but the
        // routing history must still reach gen1's OTHER-indexed epochs.
        let gt = GroundTruthCnn::resnet152();
        let (recovered, _) = FocusService::recover_with(fs, DIR, quiet_config(), gt).unwrap();
        let routing = &recovered.corpus().retired_routes[&profile.stream_id];
        assert!(routing.generations >= 2);
        assert!(routing.specialized_union.contains(&split_class));
        assert!(!routing.specialized_intersection.contains(&split_class));
        assert_eq!(
            recovered.corpus().route(profile.stream_id, split_class),
            split_class,
            "no live override after recovery: the default generic routes"
        );
        let after = recovered.serve(std::slice::from_ref(&request)).unwrap();
        assert_eq!(
            serde_json::to_string(&before[0].frames).unwrap(),
            serde_json::to_string(&after[0].frames).unwrap(),
            "recovery must not hide any generation's records"
        );
        // And OTHER records really were involved (the scan needed the
        // retired routing, not just the class itself).
        let other = recovered
            .store()
            .lookup(OTHER_CLASS, &focus_index::QueryFilter::any())
            .unwrap();
        assert!(!other.records.is_empty());
    }

    #[test]
    fn advancing_an_unregistered_stream_is_an_error() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 5.0);
        let config = ServiceConfig {
            worker: StreamWorkerConfig {
                gt_label_fraction: 0.5,
                ..quiet_config().worker
            },
            ..quiet_config()
        };
        let mut service = mem_service(config);
        service
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        let stranger = StreamId(profile.stream_id.0 + 1);
        let mut frames = ds.frames.clone();
        let last = frames.len() - 1;
        frames[last].stream_id = stranger;
        match service.advance(&frames) {
            Err(SegmentError::UnknownStream { stream }) => assert_eq!(stream, stranger),
            other => panic!("expected UnknownStream, got {other:?}"),
        }
        // The frames before the offending one stay ingested, and the
        // labelling they drew stays charged.
        assert_eq!(service.stats().frames_ingested, last);
        let meter = service.scheduler().meter();
        assert!(meter.phase("specialization").seconds() > 0.0);
    }

    #[test]
    fn double_registration_is_an_error_and_changes_nothing() {
        let fs = mem_fs();
        let mut service = service_on(&fs, quiet_config());
        service.register_stream(StreamId(1), 30).unwrap();
        let sidecar_path = Path::new(DIR).join(SERVICE_STATE_FILE);
        let sidecar = fs.read(&sidecar_path).unwrap();
        match service.register_stream(StreamId(1), 15) {
            Err(SegmentError::StreamRegistered { stream }) => assert_eq!(stream, StreamId(1)),
            other => panic!("expected StreamRegistered, got {other:?}"),
        }
        assert_eq!(
            service.registered_streams(),
            BTreeMap::from([(StreamId(1), 30)])
        );
        assert_eq!(fs.read(&sidecar_path).unwrap(), sidecar);
    }

    #[test]
    fn installing_on_an_unknown_stream_is_an_error_and_changes_nothing() {
        use crate::ingest::IngestParams;
        use crate::params::{ConfigurationPoint, ModelChoice};
        use focus_cnn::ModelSpec;

        let mut service = mem_service(quiet_config());
        service.register_stream(StreamId(1), 30).unwrap();
        let epoch = service.query_server().epoch();
        let selection = SelectedConfiguration {
            point: ConfigurationPoint {
                model: ModelChoice::Generic(ModelSpec::cheap_cnn_1()),
                k: 2,
                threshold: 1.5,
                ingest_cost_norm: 0.0,
                query_latency_norm: 0.0,
                precision: 1.0,
                recall: 1.0,
                worst_precision: 1.0,
                worst_recall: 1.0,
            },
            model: IngestCnn::generic(ModelSpec::cheap_cnn_1()),
            params: IngestParams {
                k: 2,
                ..IngestParams::default()
            },
            met_targets: true,
        };
        match service.install_configuration(StreamId(2), &selection) {
            Err(SegmentError::UnknownStream { stream }) => assert_eq!(stream, StreamId(2)),
            other => panic!("expected UnknownStream, got {other:?}"),
        }
        assert_eq!(service.query_server().epoch(), epoch, "no cache bump");
        assert_eq!(service.stats().reconfigurations, 0);
    }

    #[test]
    fn empty_serve_is_a_no_op() {
        let service = mem_service(quiet_config());
        assert!(service.serve(&[]).unwrap().is_empty());
        assert_eq!(service.stats().queries_served, 0);
    }

    /// Two hand-sealed segments that both hold cluster key (0, 1), each
    /// with its records' centroids, beside a valid sidecar, so the shared
    /// key is the store's only defect: recovery refuses it with the typed
    /// error naming both segments, not a panic.
    #[test]
    fn recover_refuses_a_key_sealed_twice_with_a_typed_error() {
        use focus_index::{ClusterRecord, MemberRef};
        use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation, TrackId};

        let fs = mem_fs();
        let record = |local: u64| ClusterRecord {
            key: ClusterKey::new(StreamId(0), local),
            centroid_object: ObjectId(local),
            centroid_frame: FrameId(local),
            top_k_classes: vec![ClassId(5)],
            members: vec![MemberRef {
                object: ObjectId(local),
                frame: FrameId(local),
                track: TrackId(0),
            }],
            start_secs: local as f64,
            end_secs: local as f64 + 1.0,
        };
        let mut store = SegmentStore::create_with(Arc::clone(&fs), DIR.into()).unwrap();
        let ids: Vec<u64> = [[0, 1], [1, 2]]
            .iter()
            .map(|locals| {
                let mut index = TopKIndex::new();
                for &local in locals {
                    index.insert(record(local));
                    index.insert_centroid(ObjectObservation {
                        object_id: ObjectId(local),
                        ..ObjectObservation::default()
                    });
                }
                store.seal(&index).unwrap().unwrap().id
            })
            .collect();
        drop(store);

        let state = ServiceState {
            version: SERVICE_STATE_VERSION,
            streams: vec![(0, 30)],
            retired_routes: Vec::new(),
        };
        let state_path = Path::new(DIR).join(SERVICE_STATE_FILE);
        let json = serde_json::to_string(&state).unwrap();
        fs.write_atomic(&state_path, json.as_bytes()).unwrap();

        let gt = GroundTruthCnn::resnet152();
        match FocusService::recover_with(fs, DIR, quiet_config(), gt) {
            Err(SegmentError::DuplicateKey { key, segments }) => {
                assert_eq!(key, ClusterKey::new(StreamId(0), 1));
                assert_eq!(segments.to_vec(), ids);
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
    }

    /// Bytes a durable document may hold after a torn write, bit rot or
    /// tampering: one of the three versioned JSON documents (`MANIFEST.json`,
    /// `service_state.json`, a `CLUSTER.json` replica) or the manifest log
    /// (`MANIFEST.log`, one JSON segment entry per line) with a few bytes
    /// flipped, overwritten, inserted, cut or truncated away, a deep nest
    /// spliced in, or arbitrary bytes instead. Yields the document's index
    /// (0, 1, 2, 3 in that order) and the bytes, and no mutation one case
    /// in eight.
    struct HostileDocuments;

    /// Each document as this build writes it. The log's two entries follow
    /// the checkpoint's `next_segment_id`, so both are live.
    const VALID_DOCUMENTS: [&str; 4] = [
        r#"{"version":2,"next_segment_id":2,"segments":[{"id":0,"file":"seg-000000.bin","t_start":0.0,"t_end":9.5,"streams":[0],"clusters":3,"checksum":4276993775,"format":"Binary"},{"id":1,"file":"seg-000001.bin","t_start":10.0,"t_end":19.5,"streams":[1],"clusters":3,"checksum":4276993775,"format":"Binary"}]}"#,
        r#"{"version":1,"streams":[[0,30],[3,15]],"retired_routes":[[3,{"generations":2,"specialized_union":[1,4],"specialized_intersection":[4]}]]}"#,
        r#"{"version":1,"epoch":4,"assignments":[{"shard":0,"node":1,"dir":"shard-0000","streams":[0,3]}],"checksum":15749359373386256733}"#,
        concat!(
            r#"{"id":2,"file":"seg-000002.bin","t_start":20.0,"t_end":29.5,"streams":[0],"clusters":3,"checksum":4276993775,"format":"Binary"}"#,
            "\n",
            r#"{"id":3,"file":"seg-000003.bin","t_start":30.0,"t_end":39.5,"streams":[1],"clusters":3,"checksum":4276993775,"format":"Binary"}"#,
            "\n",
        ),
    ];

    impl proptest::Strategy for HostileDocuments {
        type Value = (usize, Vec<u8>);
        fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> (usize, Vec<u8>) {
            let kind = rng.below(VALID_DOCUMENTS.len() as u64) as usize;
            let mut bytes = VALID_DOCUMENTS[kind].as_bytes().to_vec();
            if rng.below(8) == 0 {
                return (kind, bytes);
            }
            if rng.below(8) == 0 {
                let len = rng.below(64) as usize;
                return (kind, (0..len).map(|_| rng.below(256) as u8).collect());
            }
            const INTERESTING: &[u8] = b"[]{}\",:-09e.tnf \\\xff\x00";
            for _ in 0..=rng.below(4) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                match rng.below(6) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                    1 if at < bytes.len() => {
                        bytes[at] = INTERESTING[rng.below(INTERESTING.len() as u64) as usize]
                    }
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    3 => bytes.truncate(at),
                    4 => {
                        let open: &[u8] = if rng.below(2) == 0 { b"[" } else { b"{\"a\":" };
                        let depth = [1, 127, 128, 129, 100_000][rng.below(5) as usize];
                        let nest = open.repeat(depth);
                        bytes.splice(at..at, nest);
                    }
                    _ => {
                        let byte = INTERESTING[rng.below(INTERESTING.len() as u64) as usize];
                        bytes.insert(at, byte);
                    }
                }
            }
            (kind, bytes)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Whatever bytes a durable document holds, its loader returns
        /// `Ok` or `Err` — never a panic, and never an abort from a
        /// recursion that overflows the stack. An unmutated document
        /// loads. The log loads through [`Manifest::load_live`] beside a
        /// valid checkpoint.
        #[test]
        fn hostile_bytes_in_a_durable_document_are_an_error_not_a_crash(
            (kind, bytes) in HostileDocuments
        ) {
            use crate::fleet::{ClusterManifest, CLUSTER_MANIFEST_FILE};
            use focus_index::manifest::{MANIFEST_FILE, MANIFEST_LOG_FILE};
            use focus_index::Manifest;
            let (fs, dir) = (MemFs::default(), Path::new(DIR));
            fs.create_dir_all(dir).unwrap();
            let file = [
                MANIFEST_FILE,
                SERVICE_STATE_FILE,
                CLUSTER_MANIFEST_FILE,
                MANIFEST_LOG_FILE,
            ][kind];
            fs.write_atomic(&dir.join(file), &bytes).unwrap();
            let loaded = match kind {
                0 => Manifest::load(&fs, &dir.join(file)).is_ok(),
                1 => read_document::<ServiceState>(&fs, &dir.join(file)).is_ok(),
                2 => ClusterManifest::load(&fs, &[dir.to_path_buf()]).is_ok(),
                _ => {
                    let checkpoint = VALID_DOCUMENTS[0].as_bytes();
                    fs.write_atomic(&dir.join(MANIFEST_FILE), checkpoint).unwrap();
                    Manifest::load_live(&fs, dir).is_ok()
                }
            };
            if bytes == VALID_DOCUMENTS[kind].as_bytes() {
                proptest::prop_assert!(loaded, "{file} as written does not load");
            }
        }
    }
}
