//! The live Focus service: one long-lived object that ingests and serves
//! at the same time.
//!
//! The in-memory reference pair ([`IngestEngine`](crate::ingest::IngestEngine)
//! then [`QueryEngine`](crate::query::QueryEngine)) runs the paper's two
//! sides as disjoint phases — ingest finishes, *then* queries are served —
//! so nothing is durable, nothing is visible before the end of the
//! recording and nothing arbitrates the GPU between the sides.
//! [`FocusService`] is the one durable driver and unifies them:
//!
//! * **Hot tail + sealed past** (LSM-style read path): each stream owns a
//!   [`StreamSegmenter`] whose pipeline accumulates not-yet-sealed records
//!   in memory; sealed segments live in the durable [`SegmentStore`]. A
//!   [`serve`](FocusService::serve) call takes every stream's shared tail
//!   part ([`FramePipeline::peek_shared`] — built once per write to the
//!   stream, reused by every read until the next one), overlays the parts
//!   on the store ([`SegmentedCorpus::plan_with_tail`]) and answers from
//!   the union — proven byte-identical to sealing everything first and
//!   then querying (`tests/live_service.rs`).
//! * **Snapshot consistency**: the tail overlay is assembled once per
//!   serve call from immutable parts, so every query of the call sees the
//!   same instant; the verdict
//!   cache keys by `(centroid, ground-truth epoch)` exactly as in the
//!   standalone [`QueryServer`], so nothing cached for the current epoch
//!   is ever re-verified.
//! * **Specialization behind the service**: each stream runs the
//!   bootstrap → specialize → retrain lifecycle
//!   ([`SpecializationLifecycle`]); a retrain seals the pipeline's model
//!   epoch, installs the stream's new routing model, and bumps the query
//!   server's verdict-cache epoch automatically.
//! * **One GPU budget**: ingest classification, specialization labelling
//!   and query-time GT verification are all submitted to a shared
//!   [`GpuScheduler`], whose priority policy decides who gets capacity
//!   when both sides want it (the paper's §5 tradeoff, live).
//! * **Background maintenance**: [`maintain`](FocusService::maintain)
//!   seals tails that hit their [`SealPolicy`] budget, triggers
//!   [`compact`](focus_index::SegmentStore::compact) when the
//!   small-segment count crosses a threshold, and drains one scheduler
//!   tick.
//! * **Durability**: the service persists a `service_state.json` stream
//!   registry plus one append-only `centroids-NNNNNN.json` delta per seal
//!   (written *before* the segment, so a sealed segment is always
//!   verifiable), and [`recover`](FocusService::recover) reopens the
//!   manifest, unions the deltas, resumes cluster-key counters past the
//!   sealed segments and keeps ingesting.
//!
//! See `docs/service.md` for the lifecycle walkthrough.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use focus_cnn::GroundTruthCnn;
use focus_index::persist::{write_atomic, PersistError};
use focus_index::{
    ClusterKey, LruOccupancy, SegmentAccess, SegmentError, SegmentMeta, SegmentStore, TopKIndex,
};
use focus_runtime::{
    GpuClusterSpec, GpuMeter, GpuPriorityPolicy, GpuScheduler, GpuSchedulerStats, IoMeter, IoStats,
    TickReport,
};
use focus_video::{Frame, ObjectId, ObjectObservation, StreamId};

use crate::adapt::{
    AdaptationConfig, GovernorConfig, Reconfiguration, StreamController, WorkloadGovernor,
};
use crate::ingest::IngestCnn;
use crate::params::SelectedConfiguration;
use crate::pipeline::FramePipeline;
use crate::query::anytime::{run_anytime, AnytimeOutcome, AnytimePartial};
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

/// File-name prefix of the per-seal centroid delta files (see
/// [`FocusService::recover`]).
pub const CENTROID_DELTA_PREFIX: &str = "centroids-";

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
    /// How the shared fleet's capacity is split between ingest and query
    /// backlogs.
    pub priority: GpuPriorityPolicy,
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
    /// Manifest-adjacent segments prefetched into the cache per maintenance
    /// tick ([`SegmentStore::prefetch_adjacent`]; 0 disables prefetch —
    /// the value a config persisted before this field existed deserializes
    /// to).
    #[serde(default)]
    pub prefetch_per_maintain: usize,
    /// Drift-aware per-stream adaptation (`None` disables it): every
    /// stream gets a [`StreamController`] auditing the live class
    /// distribution and re-selecting the configuration when it drifts
    /// (see [`crate::adapt`]).
    #[serde(default)]
    pub adaptation: Option<AdaptationConfig>,
    /// Workload-driven GPU governor (`None` disables it): retargets a
    /// `Weighted` [`GpuPriorityPolicy`] from the observed backlogs each
    /// maintenance tick.
    #[serde(default)]
    pub governor: Option<GovernorConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            worker: StreamWorkerConfig::default(),
            seal: SealPolicy::default(),
            gpus: GpuClusterSpec::default(),
            priority: GpuPriorityPolicy::QueryFirst,
            tick_secs: 1.0,
            small_segment_clusters: 32,
            compact_small_threshold: 8,
            compact_max_clusters: 256,
            prefetch_per_maintain: 2,
            adaptation: None,
            governor: None,
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
    /// Specialized models (re)trained during the call (each bumped the
    /// verdict-cache epoch).
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
    /// Recently-cold-adjacent segments prefetched into the cache this tick
    /// (see [`ServiceConfig::prefetch_per_maintain`]).
    #[serde(default)]
    pub segments_prefetched: usize,
    /// Streams whose controller detected drift and installed a re-selected
    /// configuration during this tick.
    #[serde(default)]
    pub reconfigured_streams: usize,
    /// The query share the workload governor retargeted the scheduler to,
    /// when it acted this tick.
    #[serde(default)]
    pub governor_query_share: Option<f64>,
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
    /// Times the workload governor retargeted the scheduler's query share.
    #[serde(default)]
    pub governor_retargets: usize,
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
    /// Storage-I/O counters (cold loads, cache hits, bytes).
    pub io: IoStats,
    /// Tiered segment-cache snapshot: decoded-block and raw-bytes
    /// occupancy plus per-tier hit counters, so dashboards see where cold
    /// reads actually land.
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

/// One durable centroid delta: the observations behind one sealed
/// segment's records (segment files store records, not observations, and
/// the GT-CNN needs the observation to verify a centroid at query time).
///
/// Deltas are append-only — one `centroids-NNNNNN.json` file per seal,
/// written atomically *before* the segment itself — so each seal's sidecar
/// I/O is proportional to that segment, not to the service's lifetime, and
/// a crash between the two writes leaves a harmless extra delta, never an
/// unverifiable segment. [`FocusService::recover`] unions every delta.
#[derive(Debug, Serialize, Deserialize)]
struct CentroidDelta {
    version: u32,
    /// Centroid observations, sorted by object id for deterministic bytes.
    centroids: Vec<(ObjectId, ObjectObservation)>,
}

/// Per-stream live state: the incremental segmenter (hot tail) plus the
/// specialization lifecycle and the live ingest model.
struct StreamState {
    segmenter: StreamSegmenter,
    lifecycle: SpecializationLifecycle,
    /// The drift-aware adaptation controller (present when the service
    /// runs with [`ServiceConfig::adaptation`]).
    controller: Option<StreamController>,
    model: IngestCnn,
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
/// let dir = std::env::temp_dir().join("focus_service_doc");
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut service = FocusService::create(
///     &dir,
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
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct FocusService {
    config: ServiceConfig,
    /// The ground-truth CNN handed to newly registered streams' labelling
    /// lifecycles (the query server holds its own copy behind the epoch
    /// lock).
    gt_template: GroundTruthCnn,
    corpus: SegmentedCorpus,
    streams: BTreeMap<StreamId, StreamState>,
    server: QueryServer,
    scheduler: GpuScheduler,
    governor: Option<WorkloadGovernor>,
    io: IoMeter,
    segments_sealed: usize,
    reconfigurations: usize,
    /// Sequence number of the next per-seal centroid delta file.
    next_centroid_delta: u64,
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
        let store = SegmentStore::create(dir)?;
        Ok(Self::assemble(store, config, gt))
    }

    /// Reopens a service from a store directory: reads and validates the
    /// `service_state.json` sidecar (a directory without a usable one is
    /// refused before anything in it is touched), verifies and repairs the
    /// manifest while reading each segment once
    /// ([`SegmentStore::open_scanning`], which also leaves the most recent
    /// segments warm in the decoded tier), reads the per-seal centroid
    /// deltas, checks that no cluster key is sealed twice
    /// ([`SegmentError::DuplicateKey`] naming both segments) and that every
    /// sealed cluster's centroid observation is resolvable, re-registers the
    /// recorded streams and resumes their cluster-key counters past the
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
        let dir = dir.into();
        // Validate the sidecar before the store is opened: opening repairs
        // (sweeps temp files, quarantines orphans, may rewrite the
        // manifest), and a directory this service cannot serve must be
        // refused untouched.
        let state_path = dir.join(SERVICE_STATE_FILE);
        let json = std::fs::read_to_string(&state_path).map_err(|source| {
            SegmentError::Persist(PersistError::Io {
                path: state_path.clone(),
                source,
            })
        })?;
        let state: ServiceState = serde_json::from_str(&json).map_err(|source| {
            SegmentError::Persist(PersistError::Format {
                path: Some(state_path.clone()),
                source,
            })
        })?;
        if state.version != SERVICE_STATE_VERSION {
            return Err(SegmentError::Persist(PersistError::VersionMismatch {
                path: Some(state_path),
                found: state.version,
                expected: SERVICE_STATE_VERSION,
            }));
        }
        // One read per segment: the open's own pass over the verified bytes
        // yields every sealed record's key and centroid.
        let mut sealed: Vec<(ClusterKey, u64, ObjectId)> = Vec::new();
        let (store, report) = SegmentStore::open_scanning(&dir, |segment, record| {
            sealed.push((record.key, segment, record.centroid_object))
        })?;
        let (centroids, next_delta) = Self::load_centroid_deltas(&dir, store.total_clusters())?;

        // Segments must be key-disjoint, every sealed cluster must be
        // verifiable after recovery, and new cluster keys must continue
        // past the sealed ones.
        sealed.sort_unstable();
        if let Some(pair) = sealed.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(SegmentError::DuplicateKey {
                key: pair[0].0,
                segments: [pair[0].1, pair[1].1],
            });
        }
        let mut next_keys: HashMap<StreamId, u64> = HashMap::new();
        for (key, _, centroid) in &sealed {
            if !centroids.contains_key(centroid) {
                return Err(SegmentError::Persist(PersistError::Io {
                    path: dir.clone(),
                    source: std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "sealed cluster {key:?} has no centroid observation in any \
                             centroid delta"
                        ),
                    ),
                }));
            }
            let next = next_keys.entry(key.stream).or_insert(0);
            *next = (*next).max(key.local + 1);
        }

        let mut service = Self::assemble(store, config, gt);
        service.corpus.centroids = centroids;
        service.next_centroid_delta = next_delta;
        for (stream, fps) in state.streams {
            let stream = StreamId(stream);
            let mut pipeline = FramePipeline::new(stream, fps, service.config.worker.params);
            if let Some(next) = next_keys.get(&stream) {
                pipeline.start_cluster_keys_at(*next);
            }
            service.insert_stream(stream, pipeline);
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

    /// Unions every `centroids-NNNNNN.json` delta in `dir` and returns the
    /// map plus the next delta sequence number. Extra deltas (from a crash
    /// between delta write and segment seal, or from quarantined segments)
    /// are harmless supersets; a torn delta cannot exist (atomic writes)
    /// and a malformed one is a structured error. The map is sized for
    /// `expected` centroids (one per sealed cluster).
    fn load_centroid_deltas(
        dir: &std::path::Path,
        expected: usize,
    ) -> Result<(HashMap<ObjectId, ObjectObservation>, u64), SegmentError> {
        let mut centroids = HashMap::with_capacity(expected);
        let mut next_delta = 0u64;
        let entries = std::fs::read_dir(dir).map_err(|source| {
            SegmentError::Persist(PersistError::Io {
                path: dir.to_path_buf(),
                source,
            })
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(seq) = name
                .strip_prefix(CENTROID_DELTA_PREFIX)
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let json = std::fs::read_to_string(&path).map_err(|source| {
                SegmentError::Persist(PersistError::Io {
                    path: path.clone(),
                    source,
                })
            })?;
            let delta: CentroidDelta = serde_json::from_str(&json).map_err(|source| {
                SegmentError::Persist(PersistError::Format {
                    path: Some(path.clone()),
                    source,
                })
            })?;
            if delta.version != SERVICE_STATE_VERSION {
                return Err(SegmentError::Persist(PersistError::VersionMismatch {
                    path: Some(path),
                    found: delta.version,
                    expected: SERVICE_STATE_VERSION,
                }));
            }
            centroids.extend(delta.centroids);
            next_delta = next_delta.max(seq + 1);
        }
        Ok((centroids, next_delta))
    }

    fn assemble(store: SegmentStore, config: ServiceConfig, gt: GroundTruthCnn) -> Self {
        let bootstrap = IngestCnn::generic(config.worker.bootstrap_model);
        let corpus = SegmentedCorpus::new(store, HashMap::new(), bootstrap);
        let server = QueryServer::new(gt.clone(), config.gpus);
        let scheduler = GpuScheduler::new(config.gpus, config.priority, config.tick_secs);
        let governor = config.governor.map(WorkloadGovernor::new);
        Self {
            gt_template: gt,
            config,
            corpus,
            streams: BTreeMap::new(),
            server,
            scheduler,
            governor,
            io: IoMeter::new(),
            segments_sealed: 0,
            reconfigurations: 0,
            next_centroid_delta: 0,
            compactions: 0,
            queries_served: AtomicUsize::new(0),
            candidates_served: AtomicUsize::new(0),
            tail_candidates_served: AtomicUsize::new(0),
        }
    }

    /// Registers a stream; frames for unregistered streams panic in
    /// [`advance`](Self::advance). Persists the sidecar so the stream
    /// survives recovery.
    ///
    /// # Panics
    ///
    /// Panics if the stream is already registered.
    pub fn register_stream(&mut self, stream: StreamId, fps: u32) -> Result<(), SegmentError> {
        let pipeline = FramePipeline::new(stream, fps, self.config.worker.params);
        self.insert_stream(stream, pipeline);
        self.persist_state()
    }

    fn insert_stream(&mut self, stream: StreamId, pipeline: FramePipeline) {
        assert!(
            !self.streams.contains_key(&stream),
            "stream {} is already registered",
            stream.0
        );
        let controller = self.config.adaptation.clone().map(|config| {
            StreamController::new(stream, pipeline.fps(), config, self.gt_template.clone())
        });
        let state = StreamState {
            segmenter: StreamSegmenter::from_pipeline(pipeline, self.config.seal),
            lifecycle: SpecializationLifecycle::new(
                stream,
                self.config.worker.clone(),
                self.gt_template.clone(),
            ),
            controller,
            model: IngestCnn::generic(self.config.worker.bootstrap_model),
            inferences_metered: 0,
        };
        self.streams.insert(stream, state);
    }

    /// Pushes a batch of live frames (any interleaving of registered
    /// streams, in stream order per stream). Seal-policy boundaries
    /// crossed during the call seal segments durably; retrain schedules
    /// coming due swap stream models and bump the verdict-cache epoch.
    /// All GPU work is submitted to the shared scheduler.
    ///
    /// # Panics
    ///
    /// Panics if a frame belongs to an unregistered stream.
    pub fn advance(&mut self, frames: &[Frame]) -> Result<AdvanceReport, SegmentError> {
        let spec_meter = GpuMeter::new();
        let mut report = AdvanceReport::default();
        for frame in frames {
            let stream = frame.stream_id;
            let (sealed, retrained) = {
                let state = self
                    .streams
                    .get_mut(&stream)
                    .unwrap_or_else(|| panic!("stream {} is not registered", stream.0));
                let StreamState {
                    segmenter,
                    lifecycle,
                    controller,
                    model,
                    inferences_metered,
                } = state;
                if let Some(controller) = controller.as_mut() {
                    controller.note_frame(frame);
                }
                let part =
                    segmenter.push_frame_observed(frame, model.classifier.as_ref(), |obj, n| {
                        lifecycle.observe(obj, n, &spec_meter);
                        if let Some(controller) = controller.as_mut() {
                            controller.observe(obj, n, &spec_meter);
                        }
                    });
                let classified = segmenter.pipeline().stats().objects_classified;
                let new_inferences = classified - *inferences_metered;
                if new_inferences > 0 {
                    self.scheduler
                        .submit("ingest", model.cost_per_inference() * new_inferences);
                    *inferences_metered = classified;
                }
                let sealed = part.map(|part| {
                    let centroids = part_centroids(&part, segmenter.pipeline().centroids());
                    (part, centroids)
                });
                let retrained = lifecycle.maybe_retrain(frame.timestamp_secs);
                if let Some(m) = &retrained {
                    // Feature spaces of different models are not
                    // comparable: the old model's clusters seal into the
                    // tail before the swap.
                    segmenter.pipeline_mut().seal_epoch();
                    *model = m.clone();
                    // The specialization sample's class mix becomes the
                    // drift detector's reference: the configuration now in
                    // force was chosen for exactly that distribution.
                    if let Some(controller) = controller.as_mut() {
                        controller.set_reference(lifecycle.sample_class_histogram());
                    }
                }
                (sealed, retrained)
            };
            if let Some((part, centroids)) = sealed {
                self.seal_durably(stream, part, centroids)?;
                report.segments_sealed += 1;
            }
            if let Some(model) = retrained {
                self.corpus.install_stream_model(stream, model);
                // Conservative by design (the verdict cache would stay
                // correct: GT verdicts depend only on the observation and
                // the GT model, and object ids are never reused): bumping
                // the epoch on every model generation keeps cache lifetime
                // aligned with ingest epochs, at the cost of re-verifying
                // the working set after a retrain.
                self.server.invalidate();
                // The new generation's routing must survive a restart.
                self.persist_state()?;
                report.retrains += 1;
            }
            report.frames += 1;
        }
        let labelling = spec_meter.phase("specialization");
        self.scheduler.submit("specialization", labelling);
        self.scheduler.submit("audit", spec_meter.phase("audit"));
        Ok(report)
    }

    /// Frames pushed since each registered stream's last durable seal —
    /// exactly the suffix of that stream's pushed frame sequence whose
    /// records live only in the in-memory tail. A coordinator that keeps a
    /// replay buffer per stream trims it to this count after every
    /// [`advance`](Self::advance)/[`maintain`](Self::maintain): replaying
    /// the retained suffix into a [`recover`](Self::recover)ed service
    /// rebuilds the tail byte-identically (each seal starts a fresh
    /// pipeline epoch, so the tail is a pure function of these frames).
    pub fn pending_frames_by_stream(&self) -> BTreeMap<StreamId, usize> {
        self.streams
            .iter()
            .map(|(stream, state)| (*stream, state.segmenter.pending_frames()))
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
    /// verification behave exactly as in [`QueryServer::serve`], and the
    /// query-side GPU work is submitted to the shared scheduler.
    pub fn serve(&self, requests: &[QueryRequest]) -> Result<Vec<QueryOutcome>, SegmentError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let tail = self.tail_snapshot();
        let mut plans = Vec::with_capacity(requests.len());
        let mut records = Vec::with_capacity(requests.len());
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
            plans.push(planned.plan);
            records.push(planned.records);
        }
        self.charge_access(&access);
        self.tail_candidates_served
            .fetch_add(tail_candidates, Ordering::SeqCst);
        self.candidates_served
            .fetch_add(candidates, Ordering::SeqCst);
        let meter = GpuMeter::new();
        let outcomes = self.server.serve_resolved(
            &plans,
            &records,
            |id| self.corpus.centroid(id, &tail).cloned(),
            &meter,
        );
        self.scheduler.submit("query", meter.phase("query"));
        self.queries_served
            .fetch_add(requests.len(), Ordering::SeqCst);
        Ok(outcomes)
    }

    /// Serves one query incrementally through the anytime loop
    /// ([`crate::query::anytime`]): the candidate set is chunked by
    /// sealed segment (plus the hot tail), GT verification is spent
    /// adaptively on the most promising chunk, and the returned
    /// [`AnytimeOutcome`] carries every round's [`AnytimePartial`]. The
    /// per-round verification work is submitted to the shared scheduler
    /// under the `"anytime"` phase, so interactive anytime queries
    /// coexist with exact queries and ingest on one GPU budget.
    ///
    /// Termination (budget / confidence / exhaustion) follows
    /// `request.anytime`; run to candidate exhaustion, the outcome's
    /// frames and objects are byte-identical to [`serve`](Self::serve)'s.
    pub fn serve_anytime(&self, request: &QueryRequest) -> Result<AnytimeOutcome, SegmentError> {
        self.serve_anytime_with(request, |_| {})
    }

    /// [`serve_anytime`](Self::serve_anytime), streaming each round's
    /// [`AnytimePartial`] to `on_partial` as it is produced — the hook the
    /// request plane's streaming-partials dispatch uses.
    pub fn serve_anytime_with(
        &self,
        request: &QueryRequest,
        on_partial: impl FnMut(&AnytimePartial),
    ) -> Result<AnytimeOutcome, SegmentError> {
        let tail = self.tail_snapshot();
        let plan = self.corpus.plan_with_tail(request, Some(&tail))?;
        self.charge_access(&plan.access);
        self.tail_candidates_served
            .fetch_add(plan.tail_records, Ordering::SeqCst);
        self.candidates_served
            .fetch_add(plan.plan.candidates.len(), Ordering::SeqCst);
        let meter = GpuMeter::new();
        let outcome = run_anytime(
            &self.server,
            &plan,
            &request.anytime,
            |id| self.corpus.centroid(id, &tail).cloned(),
            &meter,
            on_partial,
        );
        self.scheduler.submit("anytime", meter.phase("anytime"));
        self.queries_served.fetch_add(1, Ordering::SeqCst);
        Ok(outcome)
    }

    /// Charges what one planning pass touched in the store to the
    /// service's I/O meter.
    fn charge_access(&self, access: &SegmentAccess) {
        self.io.record_loads(access.cold_loads, access.bytes_read);
        self.io.record_cache_hits(access.cache_hits);
        self.io
            .record_blocks(access.blocks_read, access.block_raw_hits, access.block_hits);
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
    /// configured threshold, prefetches segments adjacent to recently-cold
    /// ones (see [`ServiceConfig::prefetch_per_maintain`]), runs the adaptation
    /// controllers (drift check → re-select → install, when
    /// [`ServiceConfig::adaptation`] is on) and the workload governor
    /// (when [`ServiceConfig::governor`] is on), and drains one
    /// GPU-scheduler tick.
    pub fn maintain(&mut self) -> Result<MaintenanceReport, SegmentError> {
        let mut report = MaintenanceReport::default();
        let due: Vec<StreamId> = self
            .streams
            .iter()
            .filter(|(_, s)| s.segmenter.should_seal())
            .map(|(id, _)| *id)
            .collect();
        for stream in due {
            // seal_pending on a tail that emptied since the filter ran is
            // a no-op, so no re-check is needed.
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
        // Adjacency prefetch is steady background work: a bounded budget
        // each tick, never a stop-the-world pass.
        if self.config.prefetch_per_maintain > 0 {
            report.segments_prefetched = self
                .corpus
                .store()
                .prefetch_adjacent(self.config.prefetch_per_maintain)?;
        }

        // Drift check → re-select → install, one pass over the streams.
        // Re-selection sweeps charge the adaptation meter ("selection"),
        // which is submitted to the shared scheduler below — adapting
        // competes for the same GPU budget as ingest and queries.
        let adapt_meter = GpuMeter::new();
        let mut reconfigured: Vec<(StreamId, Reconfiguration)> = Vec::new();
        for (stream, state) in self.streams.iter_mut() {
            if let Some(controller) = state.controller.as_mut() {
                let now = controller.last_seen_secs();
                if let Some(event) = controller.maybe_reconfigure(now, &adapt_meter) {
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

        if let Some(governor) = self.governor.as_mut() {
            report.governor_query_share = governor.tick(&self.scheduler);
        }
        report.tick = self.scheduler.tick();
        Ok(report)
    }

    /// Installs a (re-)selected configuration on one stream through the
    /// model-epoch seal machinery — the same path a scheduled retrain
    /// takes, plus the parameter switch:
    ///
    /// 1. the old configuration's live epoch seals into the hot tail
    ///    (records indexed before the switch are untouched and stay
    ///    reachable, byte-identical to a seal-then-reconfigure reference —
    ///    `tests/adaptive_drift.rs` pins this);
    /// 2. the pipeline's parameters (K, clustering threshold) switch on
    ///    the now-empty epoch;
    /// 3. the stream's ingest model and query routing swap, and the
    ///    verdict-cache epoch bumps exactly as after a retrain.
    ///
    /// The adaptation controllers call this on drift; it is public so an
    /// operator (or a test building a reference run) can install a
    /// configuration by hand.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not registered.
    pub fn install_configuration(
        &mut self,
        stream: StreamId,
        selection: &SelectedConfiguration,
    ) -> Result<(), SegmentError> {
        let state = self
            .streams
            .get_mut(&stream)
            .unwrap_or_else(|| panic!("stream {} is not registered", stream.0));
        let pipeline = state.segmenter.pipeline_mut();
        pipeline.seal_epoch();
        pipeline.set_params(selection.params);
        state.model = selection.model.clone();
        self.corpus
            .install_stream_model(stream, selection.model.clone());
        // Conservative, matching the retrain path: GT verdicts would stay
        // valid, but keeping cache lifetime aligned with configuration
        // epochs is cheap and simple.
        self.server.invalidate();
        self.reconfigurations += 1;
        // The new generation's routing must survive a restart.
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
        let (part, centroids) = {
            let state = self.streams.get_mut(&stream).expect("registered stream");
            let part = state.segmenter.seal_pending();
            if part.is_empty() {
                return Ok(false);
            }
            let centroids = part_centroids(&part, state.segmenter.pipeline().centroids());
            (part, centroids)
        };
        self.seal_durably(stream, part, centroids)?;
        Ok(true)
    }

    /// [`seal_part`](Self::seal_part) with the failure path a live service
    /// needs: if the durable write fails, the drained records are restored
    /// into the stream's hot tail ([`FramePipeline::restore_drained`]), so
    /// they stay visible to [`serve`](Self::serve) and the next seal
    /// attempt re-drains them — a transient I/O error never silently loses
    /// a time window.
    fn seal_durably(
        &mut self,
        stream: StreamId,
        part: TopKIndex,
        centroids: Vec<(ObjectId, ObjectObservation)>,
    ) -> Result<(), SegmentError> {
        if let Err(e) = self.seal_part(&part, centroids) {
            self.streams
                .get_mut(&stream)
                .expect("registered stream")
                .segmenter
                .pipeline_mut()
                .restore_drained(part);
            return Err(e);
        }
        Ok(())
    }

    /// Seals one drained part durably. Ordering: the part's centroid delta
    /// is persisted *first* (an extra delta is harmless; a segment whose
    /// centroids are missing would be unrecoverable), then the segment
    /// file + manifest. Each seal's sidecar I/O is proportional to the
    /// part, not to the service's history.
    fn seal_part(
        &mut self,
        part: &TopKIndex,
        mut centroids: Vec<(ObjectId, ObjectObservation)>,
    ) -> Result<(), SegmentError> {
        centroids.sort_by_key(|(id, _)| *id);
        let delta = CentroidDelta {
            version: SERVICE_STATE_VERSION,
            centroids,
        };
        let json = serde_json::to_string(&delta)
            .map_err(|source| SegmentError::Persist(PersistError::Format { path: None, source }))?;
        let path = self.corpus.store().dir().join(format!(
            "{CENTROID_DELTA_PREFIX}{:06}.json",
            self.next_centroid_delta
        ));
        write_atomic(&path, &json)
            .map_err(|source| SegmentError::Persist(PersistError::Io { path, source }))?;
        self.next_centroid_delta += 1;
        self.corpus.centroids.extend(delta.centroids);
        let meta = self.corpus.store_mut().seal(part)?;
        if meta.is_some() {
            self.segments_sealed += 1;
        }
        Ok(())
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
        let json = serde_json::to_string(&state)
            .map_err(|source| SegmentError::Persist(PersistError::Format { path: None, source }))?;
        let path = self.corpus.store().dir().join(SERVICE_STATE_FILE);
        write_atomic(&path, &json)
            .map_err(|source| SegmentError::Persist(PersistError::Io { path, source }))
    }

    /// Replaces the ground-truth CNN everywhere it is consulted — the
    /// query server's verification (bumping the verdict-cache epoch) and
    /// every stream's labelling lifecycle.
    pub fn retrain_ground_truth(&mut self, gt: GroundTruthCnn) {
        self.server.retrain_ground_truth(gt.clone());
        for state in self.streams.values_mut() {
            state.lifecycle.set_ground_truth(gt.clone());
            if let Some(controller) = state.controller.as_mut() {
                controller.set_ground_truth(gt.clone());
            }
        }
        self.gt_template = gt;
    }

    /// The adaptation controller of one stream (`None` for unregistered
    /// streams or when the service runs without
    /// [`ServiceConfig::adaptation`]).
    pub fn stream_controller(&self, stream: StreamId) -> Option<&StreamController> {
        self.streams.get(&stream)?.controller.as_ref()
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

    /// The live ingest model of one stream (bootstrap model until the
    /// first specialization).
    pub fn stream_model(&self, stream: StreamId) -> Option<&IngestCnn> {
        self.streams.get(&stream).map(|s| &s.model)
    }

    /// Unified stats snapshot across every subsystem.
    pub fn stats(&self) -> ServiceStats {
        let mut frames = 0;
        let mut objects = 0;
        let mut retrains = 0;
        let mut audit_labels = 0;
        for state in self.streams.values() {
            let stats = state.segmenter.pipeline().stats();
            frames += stats.frames;
            objects += stats.objects;
            retrains += state.lifecycle.retrains();
            if let Some(controller) = state.controller.as_ref() {
                audit_labels += controller.audit_labels();
            }
        }
        ServiceStats {
            streams: self.streams.len(),
            frames_ingested: frames,
            objects_indexed: objects,
            retrains,
            reconfigurations: self.reconfigurations,
            audit_labels,
            governor_retargets: self.governor.as_ref().map_or(0, |g| g.retargets()),
            segments: self.corpus.store().len(),
            store_clusters: self.corpus.store().total_clusters(),
            segments_sealed: self.segments_sealed,
            compactions: self.compactions,
            queries_served: self.queries_served.load(Ordering::SeqCst),
            candidates_served: self.candidates_served.load(Ordering::SeqCst),
            tail_candidates_served: self.tail_candidates_served.load(Ordering::SeqCst),
            cache: self.server.cache_stats(),
            io: self.io.snapshot(),
            lru: self.corpus.store().cache_occupancy(),
            gpu: self.scheduler.stats(),
            serving: ServingStats::default(),
        }
    }
}

/// The centroid observations behind a drained part's records, read from
/// the pipeline's cumulative centroid map.
fn part_centroids(
    part: &TopKIndex,
    centroids: &HashMap<ObjectId, ObjectObservation>,
) -> Vec<(ObjectId, ObjectObservation)> {
    part.clusters()
        .map(|record| {
            (
                record.centroid_object,
                centroids[&record.centroid_object].clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;
    use std::path::PathBuf;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("focus_service_unit_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
        let dir = test_dir("stats");
        let mut service =
            FocusService::create(&dir, quiet_config(), GroundTruthCnn::resnet152()).unwrap();
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_and_query_share_one_gpu_budget() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 20.0);
        let dir = test_dir("budget");
        let config = ServiceConfig {
            gpus: GpuClusterSpec::new(2),
            priority: GpuPriorityPolicy::QueryFirst,
            tick_secs: 0.05,
            ..quiet_config()
        };
        let mut service = FocusService::create(&dir, config, GroundTruthCnn::resnet152()).unwrap();
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_service_audits_on_the_shared_budget() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 30.0);
        let dir = test_dir("adaptive_audit");
        let config = ServiceConfig {
            adaptation: Some(crate::adapt::AdaptationConfig {
                audit_fraction: 0.05,
                ..crate::adapt::AdaptationConfig::default()
            }),
            ..quiet_config()
        };
        let mut service = FocusService::create(&dir, config, GroundTruthCnn::resnet152()).unwrap();
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
        std::fs::remove_dir_all(&dir).ok();
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

        let dir = test_dir("retired_recover");
        let mut service =
            FocusService::create(&dir, quiet_config(), GroundTruthCnn::resnet152()).unwrap();
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
        let (recovered, _) =
            FocusService::recover(&dir, quiet_config(), GroundTruthCnn::resnet152()).unwrap();
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
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn governor_retargets_the_shared_scheduler() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 30.0);
        let dir = test_dir("governor");
        let config = ServiceConfig {
            priority: GpuPriorityPolicy::Weighted { query_share: 0.9 },
            governor: Some(crate::adapt::GovernorConfig::default()),
            ..quiet_config()
        };
        let mut service = FocusService::create(&dir, config, GroundTruthCnn::resnet152()).unwrap();
        service
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        // A pure-ingest backlog: the governor must walk the query share
        // down towards ingest.
        service.advance(&ds.frames).unwrap();
        let report = service.maintain().unwrap();
        let share = report
            .governor_query_share
            .expect("imbalanced backlog retargets");
        assert!(share < 0.9);
        let stats = service.stats();
        assert_eq!(stats.governor_retargets, 1);
        assert_eq!(stats.gpu.retargets, 1);
        assert_eq!(
            service.scheduler().policy(),
            GpuPriorityPolicy::Weighted { query_share: share }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn advancing_an_unregistered_stream_panics() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile, 2.0);
        let dir = test_dir("unregistered");
        let mut service =
            FocusService::create(&dir, quiet_config(), GroundTruthCnn::resnet152()).unwrap();
        let _ = service.advance(&ds.frames);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_registration_panics() {
        let dir = test_dir("double_reg");
        let mut service =
            FocusService::create(&dir, quiet_config(), GroundTruthCnn::resnet152()).unwrap();
        service.register_stream(StreamId(1), 30).unwrap();
        let _ = service.register_stream(StreamId(1), 30);
    }

    #[test]
    fn empty_serve_is_a_no_op() {
        let dir = test_dir("empty_serve");
        let service =
            FocusService::create(&dir, quiet_config(), GroundTruthCnn::resnet152()).unwrap();
        assert!(service.serve(&[]).unwrap().is_empty());
        assert_eq!(service.stats().queries_served, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two hand-sealed segments that both hold cluster key (0, 1), beside
    /// a valid sidecar and a centroid delta covering every record, so the
    /// shared key is the store's only defect: recovery refuses it with the
    /// typed error naming both segments, not a panic.
    #[test]
    fn recover_refuses_a_key_sealed_twice_with_a_typed_error() {
        use focus_index::{ClusterRecord, MemberRef};
        use focus_video::{ClassId, FrameId, TrackId};

        let dir = test_dir("duplicate_key");
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
        let mut store = SegmentStore::create(&dir).unwrap();
        let ids: Vec<u64> = [[0, 1], [1, 2]]
            .iter()
            .map(|locals| {
                let mut index = TopKIndex::new();
                for &local in locals {
                    index.insert(record(local));
                }
                store.seal(&index).unwrap().unwrap().id
            })
            .collect();
        drop(store);

        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 5.0);
        let observation = ds.frames.iter().flat_map(|f| &f.objects).next().unwrap();
        let centroids = (0..3)
            .map(|local| {
                let object_id = ObjectId(local);
                let observation = ObjectObservation {
                    object_id,
                    stream_id: StreamId(0),
                    ..observation.clone()
                };
                (object_id, observation)
            })
            .collect();
        let delta = CentroidDelta {
            version: SERVICE_STATE_VERSION,
            centroids,
        };
        let state = ServiceState {
            version: SERVICE_STATE_VERSION,
            streams: vec![(0, 30)],
            retired_routes: Vec::new(),
        };
        let delta_path = dir.join(format!("{CENTROID_DELTA_PREFIX}000000.json"));
        std::fs::write(delta_path, serde_json::to_string(&delta).unwrap()).unwrap();
        let state_path = dir.join(SERVICE_STATE_FILE);
        std::fs::write(state_path, serde_json::to_string(&state).unwrap()).unwrap();

        match FocusService::recover(&dir, quiet_config(), GroundTruthCnn::resnet152()) {
            Err(SegmentError::DuplicateKey { key, segments }) => {
                assert_eq!(key, ClusterKey::new(StreamId(0), 1));
                assert_eq!(segments.to_vec(), ids);
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
