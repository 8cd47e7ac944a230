//! Scale-out: a coordinator fronting N in-process [`FocusService`] nodes.
//!
//! Everything below this module is one process; the fleet makes it a
//! cluster. Streams are partitioned into single-stream **shards** (one
//! durable [`FocusService`] store each — the stream-namespaced object ids
//! and per-stream cluster keys make shards key-disjoint by construction),
//! a replicated [`ClusterManifest`] maps shards to **nodes**, ingest is
//! routed by stream shard, and queries **scatter** to only the nodes whose
//! segment time/stream bounds intersect the request, then **gather**
//! through the existing
//! [`QueryServer::serve_resolved`](crate::query_server::QueryServer::serve_resolved)
//! seam — so a fleet-served answer is byte-identical (canonical JSON) to a
//! single-node service over the union of streams
//! (`tests/fleet.rs` pins this with a proptest over arbitrary placements
//! and node-loss schedules).
//!
//! **Failover.** Node loss drops process state only: the lost shards'
//! segments (centroids included) and service sidecars are durable, so a
//! survivor re-opens them with [`FocusService::recover`] and the
//! coordinator replays each stream's buffered frames from its unsealed
//! watermark ([`FocusService::unsealed_from_by_stream`], which a failed
//! seal does not move). Every seal starts a fresh pipeline epoch (and
//! resets the pixel-diff window), so the rebuilt hot tail — cluster keys,
//! classes, geometry — is exactly the one that was lost, and post-failover
//! answers stay byte-identical to a never-crashed single node.
//!
//! **Simulated transport.** No sockets: every coordinator↔node exchange
//! is an in-process call whose messages are weighed by the wire layout's
//! length function (`fleet/wire.rs` — nothing is encoded) and charged to a
//! [`NetMeter`]/[`NetCostModel`] (and, when attached, a [`VirtualClock`]),
//! the same capability discipline `GpuMeter` applies to compute. Scatter
//! width, bytes over the wire and failover time are therefore exact and
//! machine-independent — CI asserts them (`fleet-faults` job), the
//! benchmark's `fleet_scatter` workload tracks them.

pub mod manifest;
mod wire;

pub use manifest::{ClusterManifest, ShardAssignment, CLUSTER_MANIFEST_FILE};

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::GroundTruthCnn;
use focus_index::persist::PersistError;
use focus_index::{CentroidHandle, ClusterRecord, Fs, OsFs, SegmentAccess, SegmentError, TrackKey};
use focus_runtime::{GpuMeter, NetCostModel, NetMeter, NetStats, VirtualClock};
use focus_video::{ClassId, Frame, ObjectId, ObjectObservation, StreamId};

use crate::ingest::IngestCnn;
use crate::query::plan::{QueryPlan, QueryRequest};
use crate::query::track::TrackScope;
use crate::query::QueryOutcome;
use crate::query_server::QueryServer;
use crate::service::{FocusService, MaintenanceReport, ServiceConfig};

use wire::WireLen;

/// Errors from fleet coordination (placement, routing, node liveness) or
/// the per-shard services underneath.
#[derive(Debug)]
pub enum FleetError {
    /// A per-shard service operation failed.
    Segment(SegmentError),
    /// Reading or writing fleet state (a `CLUSTER.json` replica or a node
    /// directory) failed; the error names the path.
    Persist(PersistError),
    /// The cluster manifest is invalid (a checksum that does not match its
    /// body, or a duplicate shard/stream claim — the split-brain guard).
    Manifest(String),
    /// A frame or query referenced a stream no shard owns.
    UnknownStream(StreamId),
    /// The shard's owning node is down and has not been failed over.
    NodeDown {
        /// The dead node.
        node: u32,
        /// The shard it still owns in the manifest.
        shard: u32,
    },
    /// No alive node remains to take over a dead node's shards.
    NoSurvivor,
    /// A scatter/gather invariant was broken: a cluster contributed by two
    /// responses, a planned record whose centroid observation its shard
    /// cannot resolve, or a batch gathered with a different number of
    /// requests than it was scattered with.
    Scatter(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Segment(err) => write!(f, "shard service error: {err}"),
            Self::Persist(err) => write!(f, "fleet state: {err}"),
            Self::Manifest(msg) => write!(f, "cluster manifest rejected: {msg}"),
            Self::UnknownStream(stream) => write!(f, "no shard owns stream {}", stream.0),
            Self::NodeDown { node, shard } => {
                write!(
                    f,
                    "node {node} owning shard {shard} is down (failover pending)"
                )
            }
            Self::NoSurvivor => write!(f, "no alive node left to adopt orphaned shards"),
            Self::Scatter(msg) => write!(f, "scatter/gather invariant broken: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Segment(err) => Some(err),
            Self::Persist(err) => Some(err),
            _ => None,
        }
    }
}

impl From<SegmentError> for FleetError {
    fn from(err: SegmentError) -> Self {
        Self::Segment(err)
    }
}

impl From<PersistError> for FleetError {
    fn from(err: PersistError) -> Self {
        Self::Persist(err)
    }
}

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Nodes in the fleet (fixed at creation; shards move, nodes do not).
    pub nodes: usize,
    /// Configuration of every per-shard [`FocusService`]. One shared config
    /// keeps the default routing model identical across shards, which the
    /// scatter planner's lookup-class union relies on.
    pub service: ServiceConfig,
    /// Latency/bandwidth model of the simulated transport.
    pub net: NetCostModel,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            nodes: 2,
            service: ServiceConfig::default(),
            net: NetCostModel::default(),
        }
    }
}

/// What one [`FleetCoordinator::advance`] call did, summed over shards.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetAdvanceReport {
    /// Per-shard [`AdvanceReport`](crate::service::AdvanceReport)s folded
    /// together.
    pub frames: usize,
    /// Segments sealed across all shards.
    pub segments_sealed: usize,
    /// Retrains across all shards. Like a single-node retrain, a shard
    /// retrain leaves the gather-side verdict cache as it was: a GT
    /// verdict does not depend on the ingest model.
    pub retrains: usize,
    /// Shards that received at least one frame.
    pub shards_touched: usize,
}

/// What one [`FleetCoordinator::failover`] call did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Shards re-opened on survivors.
    pub shards_recovered: usize,
    /// Buffered tail frames replayed into the recovered services.
    pub frames_replayed: usize,
    /// Simulated wall-clock cost of the whole failover: loss detection,
    /// shipping the replay buffers, and the manifest round.
    pub secs: f64,
}

/// Point-in-time fleet statistics (serializable for benches).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Nodes in the fleet.
    pub nodes: usize,
    /// Nodes currently alive.
    pub nodes_alive: usize,
    /// Shards placed.
    pub shards: usize,
    /// Streams registered.
    pub streams: usize,
    /// Current placement epoch.
    pub manifest_epoch: u64,
    /// Simulated-transport account.
    pub net: NetStats,
    /// Query batches served.
    pub serves: usize,
    /// Queries served.
    pub queries: usize,
    /// Every shard plan's [`SegmentAccess`], merged over serves: segments
    /// opened, bytes read and block fetches per cache tier across the
    /// fleet's stores. Its `segments_total` is the sum of the segments each
    /// shard plan saw, so `segments_pruned()` is the segments they pruned.
    pub reads: SegmentAccess,
    /// Shards contacted by the most recent serve.
    pub last_scatter_width: usize,
    /// Node losses processed by [`failover`](FleetCoordinator::failover).
    pub failovers: usize,
    /// Simulated seconds the most recent failover took.
    pub last_failover_secs: f64,
    /// Shard migrations completed by
    /// [`rebalance`](FleetCoordinator::rebalance).
    pub rebalances: usize,
    /// GPU seconds spent on gather-side verification.
    pub query_gpu_secs: f64,
}

/// One shard's answer for one request of a scattered batch.
#[derive(Debug, Clone)]
pub struct ShardRequestPlan {
    /// Matching records, sorted by cluster key (key-disjoint across shards
    /// by construction, which is what makes the gather merge exactly-once).
    /// In process they are the shard's own shared records; on the wire, the
    /// records themselves.
    pub records: Vec<Arc<ClusterRecord>>,
    /// The centroid observation behind every record, sorted by object id.
    pub centroids: Vec<(ObjectId, ObjectObservation)>,
    /// Records resolved from the shard's in-memory tail.
    pub tail_records: usize,
    /// Segment-access account of the shard-local plan.
    pub access: SegmentAccess,
    /// Tracks this shard's sketches rejected for the request's track
    /// filter (empty without one). Shards hold disjoint streams, so the
    /// coordinator unions these losslessly into the gathered plan's
    /// [`TrackScope`].
    pub rejected_tracks: Vec<TrackKey>,
}

/// One shard's full response to a scattered plan request.
#[derive(Debug, Clone)]
pub struct ShardPlanMsg {
    /// The responding shard.
    pub shard: u32,
    /// One entry per request in the scattered batch.
    pub per_request: Vec<ShardRequestPlan>,
}

/// The coordinator→node plan request. Borrowed: the call is in-process, so
/// the node-side handler reads the coordinator's own data.
#[derive(Debug, Clone, Copy)]
struct PlanRequest<'a> {
    requests: &'a [QueryRequest],
    /// The fleet-wide lookup classes of each request, parallel to
    /// `requests`.
    lookup_classes: &'a [Vec<ClassId>],
    /// Whether the shard may prune segments by their bounds.
    prune_segments: bool,
}

/// A scattered query batch awaiting [`FleetCoordinator::gather`]. Holding
/// the responses as owned data is what lets a rebalance (or failover)
/// complete between scatter and gather without double- or zero-counting a
/// shard: the batch pins exactly one response per contacted shard.
#[derive(Debug)]
pub struct ScatterBatch {
    /// Placement epoch the batch was scattered under.
    pub epoch: u64,
    /// Shards contacted.
    pub contacted: Vec<u32>,
    /// Whether shard-level segment pruning was pushed down (`false` is the
    /// broadcast baseline: every alive shard, no bound pruning).
    pub prune: bool,
    /// Requests the batch was scattered with; every response answers each.
    requests: usize,
    responses: Vec<ShardPlanMsg>,
}

struct NodeRuntime {
    alive: bool,
    shards: BTreeMap<u32, FocusService>,
}

/// The fleet coordinator: placement, ingest routing, scatter-gather
/// serving, failover and rebalancing over N in-process nodes.
pub struct FleetCoordinator {
    /// How the coordinator reaches the disk: the node directories, the
    /// `CLUSTER.json` replicas and every shard's store go through it.
    fs: Arc<dyn Fs>,
    root: PathBuf,
    config: FleetConfig,
    bootstrap: IngestCnn,
    manifest: ClusterManifest,
    nodes: BTreeMap<u32, NodeRuntime>,
    fps: BTreeMap<StreamId, u32>,
    /// Per-stream frames from that stream's unsealed watermark on — exactly
    /// the suffix a failover must replay to rebuild the lost hot tail.
    replay: BTreeMap<StreamId, Vec<Frame>>,
    /// Gather-side verification server: the verdict cache, dedupe and
    /// batching live here, exactly as on a single node.
    gather_server: QueryServer,
    net: NetMeter,
    clock: Option<VirtualClock>,
    stats: FleetStats,
}

impl std::fmt::Debug for FleetCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCoordinator")
            .field("nodes", &self.nodes.len())
            .field("shards", &self.manifest.assignments.len())
            .field("epoch", &self.manifest.epoch)
            .finish()
    }
}

impl FleetCoordinator {
    /// Creates a fresh fleet rooted at `root`: `nodes` empty nodes and an
    /// epoch-0 manifest replicated to the root and every node directory.
    /// A fleet of zero nodes is [`FleetError::Manifest`], and a root or
    /// node directory holding a `CLUSTER.json` is [`FleetError::Persist`]
    /// (use [`recover`](Self::recover)), both before anything is written.
    pub fn create(
        root: impl Into<PathBuf>,
        config: FleetConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, FleetError> {
        Self::create_with(Arc::new(OsFs), root, config, gt)
    }

    /// [`create`](Self::create) on `fs`, which the fleet and its shards use.
    pub fn create_with(
        fs: Arc<dyn Fs>,
        root: impl Into<PathBuf>,
        config: FleetConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, FleetError> {
        let coordinator = Self::assemble(fs, root.into(), config, gt)?;
        let replicas = coordinator.replica_dirs();
        for path in replicas.iter().map(|dir| dir.join(CLUSTER_MANIFEST_FILE)) {
            let exists = coordinator.fs.exists(&path);
            if exists.map_err(|e| PersistError::io(&path, e))? {
                let msg = "fleet already exists; use FleetCoordinator::recover";
                let err = std::io::Error::new(std::io::ErrorKind::AlreadyExists, msg);
                return Err(PersistError::io(&path, err).into());
            }
        }
        for dir in &replicas {
            coordinator
                .fs
                .create_dir_all(dir)
                .map_err(|e| PersistError::io(dir, e))?;
        }
        coordinator.manifest.save(&*coordinator.fs, &replicas)?;
        Ok(coordinator)
    }

    /// Reopens a fleet from its root: loads the highest-epoch valid
    /// manifest replica (rejecting duplicate shard/stream claims) and
    /// recovers every shard's service on its assigned node. In-memory
    /// tails and replay buffers are process state and start empty — a
    /// planned restart should [`seal_all`](Self::seal_all) first.
    pub fn recover(
        root: impl Into<PathBuf>,
        config: FleetConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, FleetError> {
        Self::recover_with(Arc::new(OsFs), root, config, gt)
    }

    /// [`recover`](Self::recover) on `fs`, which the fleet and its shards use.
    pub fn recover_with(
        fs: Arc<dyn Fs>,
        root: impl Into<PathBuf>,
        config: FleetConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, FleetError> {
        let mut coordinator = Self::assemble(fs, root.into(), config, gt)?;
        coordinator.manifest =
            ClusterManifest::load(&*coordinator.fs, &coordinator.replica_dirs())?;
        for assignment in coordinator.manifest.assignments.clone() {
            let service = coordinator.open_shard(&assignment)?;
            for (stream, rate) in service.registered_streams() {
                coordinator.fps.insert(stream, rate);
            }
            coordinator.place(assignment.node, assignment.shard, service)?;
        }
        Ok(coordinator)
    }

    /// A coordinator with `config.nodes` alive, empty nodes and an epoch-0
    /// manifest, touching nothing on disk. The gather server holds the
    /// fleet's one ground-truth CNN; shards open with a copy of it.
    fn assemble(
        fs: Arc<dyn Fs>,
        root: PathBuf,
        config: FleetConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, FleetError> {
        if config.nodes == 0 {
            return Err(FleetError::Manifest(
                "a fleet needs at least one node".into(),
            ));
        }
        let nodes = (0..config.nodes as u32)
            .map(|node| {
                let runtime = NodeRuntime {
                    alive: true,
                    shards: BTreeMap::new(),
                };
                (node, runtime)
            })
            .collect();
        Ok(Self {
            fs,
            root,
            bootstrap: IngestCnn::generic(config.service.worker.bootstrap_model),
            gather_server: QueryServer::new(gt, config.service.gpus),
            config,
            manifest: ClusterManifest::new().seal()?,
            nodes,
            fps: BTreeMap::new(),
            replay: BTreeMap::new(),
            net: NetMeter::new(),
            clock: None,
            stats: FleetStats::default(),
        })
    }

    /// Attaches a virtual clock; every simulated transport/failover cost
    /// advances it, so CI can assert deterministic timings.
    pub fn with_clock(mut self, clock: VirtualClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// The current placement map.
    pub fn manifest(&self) -> &ClusterManifest {
        &self.manifest
    }

    /// The simulated-transport meter (cloneable shared handle).
    pub fn net_meter(&self) -> NetMeter {
        self.net.clone()
    }

    fn replica_dirs(&self) -> Vec<PathBuf> {
        let mut dirs = vec![self.root.clone()];
        for (id, node) in &self.nodes {
            if node.alive {
                dirs.push(self.root.join(format!("node-{id}")));
            }
        }
        dirs
    }

    fn tick(&self, secs: f64) {
        if let Some(clock) = &self.clock {
            clock.advance(secs);
        }
    }

    /// The alive node with the fewest shards (ties to the lowest id).
    fn least_loaded_alive(&self) -> Option<u32> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.alive)
            .min_by_key(|(id, n)| (n.shards.len(), **id))
            .map(|(id, _)| *id)
    }

    fn shard_of_stream(&self, stream: StreamId) -> Result<u32, FleetError> {
        self.manifest
            .assignments
            .iter()
            .find(|a| a.streams.contains(&stream.0))
            .map(|a| a.shard)
            .ok_or(FleetError::UnknownStream(stream))
    }

    /// `shard`'s placement in the current manifest.
    fn assignment(&self, shard: u32) -> Result<&ShardAssignment, FleetError> {
        self.manifest
            .assignment(shard)
            .ok_or_else(|| FleetError::Manifest(format!("shard {shard} has no assignment")))
    }

    /// `shard`'s service on its owner; [`FleetError::NodeDown`] when the
    /// owner is dead or no longer runs it.
    fn shard_service(&self, shard: u32) -> Result<&FocusService, FleetError> {
        let node = self.assignment(shard)?.node;
        self.nodes
            .get(&node)
            .filter(|n| n.alive)
            .and_then(|n| n.shards.get(&shard))
            .ok_or(FleetError::NodeDown { node, shard })
    }

    /// [`shard_service`](Self::shard_service), mutably.
    fn shard_service_mut(&mut self, shard: u32) -> Result<&mut FocusService, FleetError> {
        let node = self.assignment(shard)?.node;
        self.nodes
            .get_mut(&node)
            .filter(|n| n.alive)
            .and_then(|n| n.shards.get_mut(&shard))
            .ok_or(FleetError::NodeDown { node, shard })
    }

    /// Opens a shard's durable store ([`FocusService::recover_with`]) on
    /// the fleet's `Fs`, configuration and ground-truth CNN.
    fn open_shard(&self, assignment: &ShardAssignment) -> Result<FocusService, FleetError> {
        let (service, _report) = FocusService::recover_with(
            Arc::clone(&self.fs),
            self.root.join(&assignment.dir),
            self.config.service.clone(),
            GroundTruthCnn::clone(&self.gather_server.ground_truth()),
        )?;
        Ok(service)
    }

    /// Runs `service` as `shard` on `node`.
    fn place(&mut self, node: u32, shard: u32, service: FocusService) -> Result<(), FleetError> {
        let runtime = self.nodes.get_mut(&node).ok_or_else(|| {
            FleetError::Manifest(format!(
                "shard {shard} is placed on node {node}, outside the fleet"
            ))
        })?;
        runtime.shards.insert(shard, service);
        Ok(())
    }

    /// The placement commit every placement change goes through: `manifest`
    /// becomes the next epoch, is sealed, validated and saved to every
    /// alive replica, and only then adopted. Returns the bytes of one
    /// replica — what the placement round ships to each node.
    fn commit_placement(&mut self, mut manifest: ClusterManifest) -> Result<u64, FleetError> {
        manifest.epoch = self.manifest.epoch + 1;
        let manifest = manifest.seal()?;
        let bytes = manifest.save(&*self.fs, &self.replica_dirs())?;
        self.manifest = manifest;
        Ok(bytes)
    }

    /// Registers a stream: a fresh single-stream shard is created on the
    /// least-loaded alive node and the manifest epoch is bumped and
    /// re-replicated.
    pub fn register_stream(&mut self, stream: StreamId, fps: u32) -> Result<u32, FleetError> {
        if self.shard_of_stream(stream).is_ok() {
            return Err(FleetError::Manifest(format!(
                "stream {} is already placed",
                stream.0
            )));
        }
        let shard = self
            .manifest
            .assignments
            .iter()
            .map(|a| a.shard + 1)
            .max()
            .unwrap_or(0);
        let node = self.least_loaded_alive().ok_or(FleetError::NoSurvivor)?;
        let dir = format!("shard-{shard:04}");
        let mut service = FocusService::create_with(
            Arc::clone(&self.fs),
            self.root.join(&dir),
            self.config.service.clone(),
            GroundTruthCnn::clone(&self.gather_server.ground_truth()),
        )?;
        service.register_stream(stream, fps)?;
        let mut manifest = self.manifest.clone();
        manifest.assignments.push(ShardAssignment {
            shard,
            node,
            dir,
            streams: vec![stream.0],
        });
        self.commit_placement(manifest)?;
        self.place(node, shard, service)?;
        self.fps.insert(stream, fps);
        self.replay.insert(stream, Vec::new());
        Ok(shard)
    }

    /// Routes a batch of live frames to their owning shards (per-stream
    /// order preserved — the only order a per-stream pipeline observes, so
    /// routing is ingest-equivalent to a single node seeing the full
    /// interleaving). Each touched shard costs one simulated exchange.
    /// Each routed batch is moved into its streams' replay buffers once its
    /// shard call returns, and the buffers are then trimmed to the frames
    /// from each stream's unsealed watermark on.
    ///
    /// On an error nothing further is sent, but every frame routed before
    /// the error that is not yet durable stays buffered — the frames the
    /// failed shard took, the whole batch of a shard whose owner is down,
    /// and the batches of shards not reached — so a
    /// [`failover`](Self::failover) after a [`FleetError::NodeDown`]
    /// replays the dead owner's share of the batch.
    ///
    /// The resume rule is [`FocusService::advance`]'s: a frame whose seal
    /// failed was ingested, so a caller resumes after it. A frame of a
    /// stream no shard owns ([`FleetError::UnknownStream`]) is not: the
    /// whole batch is refused while it is routed, before any shard is
    /// contacted, and none of it is buffered.
    pub fn advance(&mut self, frames: &[Frame]) -> Result<FleetAdvanceReport, FleetError> {
        let mut by_shard: BTreeMap<u32, Vec<Frame>> = BTreeMap::new();
        for frame in frames {
            // A refused batch buffers nothing: the caller resends it, and
            // a buffered copy would be replayed twice.
            let shard = self.shard_of_stream(frame.stream_id)?;
            by_shard.entry(shard).or_default().push(frame.clone());
        }
        let mut report = FleetAdvanceReport::default();
        let mut routed = by_shard.into_iter();
        let result = routed.by_ref().try_for_each(|(shard, mut batch)| {
            let before = self.shard_service(shard).map(FocusService::frames_ingested);
            let advanced = self.advance_shard(shard, &batch, &mut report);
            if let (Err(_), Ok(before), Ok(service)) =
                (&advanced, before, self.shard_service(shard))
            {
                // The shard stopped at a failing frame: buffer only
                // the frames it took.
                batch.truncate(service.frames_ingested() - before);
            }
            self.buffer_for_replay(batch);
            self.trim_replay(shard);
            advanced
        });
        for (_, batch) in routed {
            self.buffer_for_replay(batch);
        }
        result.map(|()| report)
    }

    /// One ingest exchange with `shard`'s owner: ships `batch` and folds
    /// the shard's report into `report`.
    fn advance_shard(
        &mut self,
        shard: u32,
        batch: &[Frame],
        report: &mut FleetAdvanceReport,
    ) -> Result<(), FleetError> {
        // Resolve ownership fresh per shard: an earlier error leaves
        // untouched shards untouched.
        let shard_report = self.shard_service_mut(shard)?.advance(batch)?;
        let (sent, received) = (batch.wire_len(), shard_report.wire_len());
        self.net.record_exchange(sent, received);
        self.tick(self.config.net.exchange_secs(sent + received));
        report.frames += shard_report.frames;
        report.segments_sealed += shard_report.segments_sealed;
        report.retrains += shard_report.retrains;
        report.shards_touched += 1;
        Ok(())
    }

    fn buffer_for_replay(&mut self, batch: Vec<Frame>) {
        for frame in batch {
            self.replay.entry(frame.stream_id).or_default().push(frame);
        }
    }

    /// Drops the replay frames `shard` has made durable: each of its
    /// streams keeps the frames from its unsealed watermark on, and none
    /// when nothing is pending. A shard no node runs (its owner died)
    /// keeps its buffers.
    fn trim_replay(&mut self, shard: u32) {
        let Some(service) = self.nodes.values().find_map(|node| node.shards.get(&shard)) else {
            return;
        };
        for (stream, unsealed_from) in service.unsealed_from_by_stream() {
            if let Some(buffer) = self.replay.get_mut(&stream) {
                let durable = unsealed_from.map_or(buffer.len(), |from| {
                    buffer.partition_point(|frame| frame.frame_id < from)
                });
                buffer.drain(..durable);
            }
        }
    }

    /// Runs one maintenance tick on every alive shard (budget-due seals,
    /// compaction, migration), trimming replay buffers after
    /// maintenance-driven seals.
    pub fn maintain(&mut self) -> Result<MaintenanceReport, FleetError> {
        let mut total = MaintenanceReport::default();
        let shards: Vec<u32> = self.manifest.assignments.iter().map(|a| a.shard).collect();
        for shard in shards {
            let Ok(service) = self.shard_service_mut(shard) else {
                continue; // dead owner: maintenance resumes after failover
            };
            let report = service.maintain()?;
            let received = report.wire_len();
            self.net.record_exchange(0, received);
            self.tick(self.config.net.exchange_secs(received));
            total.segments_sealed += report.segments_sealed;
            total.segments_folded += report.segments_folded;
            self.trim_replay(shard);
        }
        Ok(total)
    }

    /// Seals every alive shard's pending tail durably (planned-shutdown /
    /// pre-rebalance discipline). Replay buffers empty out: there is
    /// nothing left to replay.
    pub fn seal_all(&mut self) -> Result<usize, FleetError> {
        let mut sealed = 0;
        let shards: Vec<u32> = self.manifest.assignments.iter().map(|a| a.shard).collect();
        for shard in shards {
            sealed += self.shard_service_mut(shard)?.seal_all()?.len();
            self.trim_replay(shard);
        }
        Ok(sealed)
    }

    /// The lookup classes a query for `class` must scan fleet-wide: the
    /// union of every alive shard's routing (each shard only knows the
    /// per-stream models of its own streams). Scattering this *global* set
    /// to every contacted shard is what keeps scattered plans equal to a
    /// single node's: stream A's specialized override may route the class
    /// through OTHER, and stream B's shard must then scan OTHER too — a
    /// single-node corpus would.
    fn global_lookup_classes(&self, request: &QueryRequest) -> Vec<ClassId> {
        let mut classes = vec![self.bootstrap.effective_query_class(request.class)];
        for (_, node) in self.nodes.iter().filter(|(_, n)| n.alive) {
            for service in node.shards.values() {
                classes.extend(
                    service
                        .corpus()
                        .lookup_classes(request.class, &request.filter),
                );
            }
        }
        classes.sort();
        classes.dedup();
        classes
    }

    /// Whether any of `request`'s records could live on this shard: its
    /// streams must pass the stream filter, and under a time filter either
    /// a sealed segment's bounds or the buffered tail interval must
    /// intersect the range. Conservative by construction — sealed bounds
    /// tightly cover sealed records, and the replay buffer starts at the
    /// unsealed watermark, so it covers every tail record (a failed seal's
    /// too) — so skipping a shard never drops an answer.
    fn shard_intersects(
        &self,
        assignment: &ShardAssignment,
        service: &FocusService,
        request: &QueryRequest,
    ) -> bool {
        let filter = &request.filter;
        let reachable: Vec<StreamId> = assignment
            .streams
            .iter()
            .map(|s| StreamId(*s))
            .filter(|s| {
                filter
                    .streams
                    .as_ref()
                    .is_none_or(|streams| streams.contains(s))
            })
            .collect();
        if reachable.is_empty() {
            return false;
        }
        let Some((from, to)) = filter.time_range else {
            return true;
        };
        let sealed_hit = service.store().segments().iter().any(|meta| {
            meta.t_end >= from
                && meta.t_start <= to
                && meta.streams.iter().any(|s| reachable.contains(s))
        });
        if sealed_hit {
            return true;
        }
        reachable.iter().any(|stream| {
            let fps = self.fps.get(stream).copied().unwrap_or(1);
            let secs = |frame: &Frame| frame.frame_id.timestamp_secs(fps);
            let buffer = self.replay.get(stream).map_or(&[][..], Vec::as_slice);
            match (buffer.first(), buffer.last()) {
                (Some(first), Some(last)) => secs(last) >= from && secs(first) <= to,
                _ => false,
            }
        })
    }

    /// Scatters a query batch: computes the global lookup-class union,
    /// selects the shards whose bounds intersect any request (all alive
    /// shards when `prune` is false — the broadcast baseline, which also
    /// disables shard-local segment-bound pruning), and collects one
    /// response per contacted shard. Pure read phase: the returned batch
    /// owns its data, so placement may change before
    /// [`gather`](Self::gather).
    pub fn scatter(
        &self,
        requests: &[QueryRequest],
        prune: bool,
    ) -> Result<ScatterBatch, FleetError> {
        let lookup_classes: Vec<Vec<ClassId>> = requests
            .iter()
            .map(|request| self.global_lookup_classes(request))
            .collect();
        let mut contacted = Vec::new();
        let mut responses = Vec::new();
        let plan_request = PlanRequest {
            requests,
            lookup_classes: &lookup_classes,
            prune_segments: prune,
        };
        let sent = plan_request.wire_len();
        let mut per_node_bytes = Vec::new();
        for assignment in &self.manifest.assignments {
            let service = self.shard_service(assignment.shard)?;
            let relevant = !prune
                || requests
                    .iter()
                    .any(|request| self.shard_intersects(assignment, service, request));
            if !relevant {
                continue;
            }
            let response = plan_on_shard(assignment.shard, service, plan_request)?;
            let received = response.wire_len();
            self.net.record_exchange(sent, received);
            per_node_bytes.push(sent + received);
            contacted.push(assignment.shard);
            responses.push(response);
        }
        self.net.record_scatter(contacted.len());
        // Parallel fan-out: the slowest exchange bounds the batch.
        self.tick(self.config.net.scatter_secs(&per_node_bytes));
        Ok(ScatterBatch {
            epoch: self.manifest.epoch,
            contacted,
            prune,
            requests: requests.len(),
            responses,
        })
    }

    /// Merges a scattered batch and verifies/assembles centrally through
    /// [`QueryServer::serve_resolved`] — the exact single-node seam, fed
    /// the exact single-node plan: each request's key-sorted shard record
    /// vectors are k-way merged into one key-sorted vector (shards are
    /// key-disjoint, so it is byte-identical to planning on one node over
    /// the union of streams), and a fresh inference's centroid observation
    /// is found by binary search in the shards' id-sorted centroid vectors.
    /// The batch is consumed: records, centroid observations and rejected
    /// tracks move into the merged plan. A cluster contributed twice (a
    /// double-counted scatter — two equal keys side by side in the merge),
    /// or a `requests` slice of a different length than the batch was
    /// scattered with, is a [`FleetError::Scatter`] — nothing is served.
    pub fn gather(
        &mut self,
        requests: &[QueryRequest],
        batch: ScatterBatch,
    ) -> Result<Vec<QueryOutcome>, FleetError> {
        if requests.len() != batch.requests {
            return Err(FleetError::Scatter(format!(
                "batch scattered with {} requests gathered with {}",
                batch.requests,
                requests.len()
            )));
        }
        let mut runs: Vec<Vec<ShardRun>> = vec![Vec::new(); requests.len()];
        let mut rejected: Vec<Vec<TrackKey>> = vec![Vec::new(); requests.len()];
        let mut centroids: Vec<Vec<(ObjectId, ObjectObservation)>> = Vec::new();
        let mut reads = SegmentAccess::default();
        for response in batch.responses {
            let parts = response.per_request.into_iter();
            for ((part, runs), rejected) in parts.zip(&mut runs).zip(&mut rejected) {
                reads.merge(&part.access);
                rejected.extend(part.rejected_tracks);
                centroids.push(part.centroids);
                runs.push((response.shard, part.records.into_iter().peekable()));
            }
        }
        let records = runs
            .into_iter()
            .map(merge_shard_runs)
            .collect::<Result<Vec<_>, _>>()?;
        let plans: Vec<QueryPlan> = requests
            .iter()
            .zip(&records)
            .zip(rejected)
            .map(|((request, records), rejected)| QueryPlan {
                class: request.class,
                lookup_class: self.bootstrap.effective_query_class(request.class),
                candidates: records.iter().map(CentroidHandle::from).collect(),
                track_scope: TrackScope::from_rejected(rejected),
            })
            .collect();
        let meter = GpuMeter::new();
        // The resolver hands an owned observation to the GT-CNN: one clone
        // per fresh inference, none per candidate.
        let outcomes = self.gather_server.serve_resolved(
            &plans,
            &records,
            |id| {
                centroids.iter().find_map(|shard| {
                    let at = shard.binary_search_by_key(&id, |(id, _)| *id).ok()?;
                    Some(shard[at].1.clone())
                })
            },
            &meter,
        );
        self.stats.serves += 1;
        self.stats.queries += requests.len();
        self.stats.reads.merge(&reads);
        self.stats.last_scatter_width = batch.contacted.len();
        self.stats.query_gpu_secs += meter.phase("query").0;
        Ok(outcomes)
    }

    /// Scatter + gather with filter pushdown: queries touch only the
    /// shards whose segment/tail bounds intersect them.
    pub fn serve(&mut self, requests: &[QueryRequest]) -> Result<Vec<QueryOutcome>, FleetError> {
        self.scatter_gather(requests, true)
    }

    /// The broadcast baseline: every alive shard is contacted and plans
    /// without segment-bound pruning. Answers are byte-identical to
    /// [`serve`](Self::serve) (record-level filtering is unchanged); only
    /// the cost differs — strictly more segments opened under a selective
    /// time filter, which the fleet proptest pins.
    pub fn serve_broadcast(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<QueryOutcome>, FleetError> {
        self.scatter_gather(requests, false)
    }

    /// The body of [`serve`](Self::serve) and
    /// [`serve_broadcast`](Self::serve_broadcast): an empty batch serves
    /// nothing and contacts no shard.
    fn scatter_gather(
        &mut self,
        requests: &[QueryRequest],
        prune: bool,
    ) -> Result<Vec<QueryOutcome>, FleetError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let batch = self.scatter(requests, prune)?;
        self.gather(requests, batch)
    }

    /// Marks a node dead, dropping its in-process services (their durable
    /// state — segments, manifests, sidecars — stays on disk). Queries and
    /// ingest for its shards fail with
    /// [`FleetError::NodeDown`] until [`failover`](Self::failover) runs.
    pub fn kill_node(&mut self, node: u32) {
        if let Some(runtime) = self.nodes.get_mut(&node) {
            runtime.alive = false;
            runtime.shards.clear();
        }
    }

    /// Restarts a previously killed node as empty and alive (shards it
    /// owned before the kill stay wherever failover moved them).
    pub fn restart_node(&mut self, node: u32) {
        if let Some(runtime) = self.nodes.get_mut(&node) {
            runtime.alive = true;
        }
    }

    /// Adopts every dead node's shards onto survivors: re-opens each
    /// shard's durable store ([`FocusService::recover`]), replays the
    /// coordinator's buffered frames from each stream's unsealed watermark
    /// to rebuild the lost hot tail byte-identically, reassigns the shard
    /// in a fresh manifest epoch, and charges the simulated cost (detection
    /// RTT + replay shipping + manifest round) to the meter/clock.
    pub fn failover(&mut self) -> Result<FailoverReport, FleetError> {
        let orphaned: Vec<ShardAssignment> = self
            .manifest
            .assignments
            .iter()
            // Orphaned: the owner is dead, or it restarted empty and no
            // longer runs the shard it still claims on paper.
            .filter(|a| {
                self.nodes
                    .get(&a.node)
                    .is_none_or(|n| !n.alive || !n.shards.contains_key(&a.shard))
            })
            .cloned()
            .collect();
        let mut report = FailoverReport {
            // Loss detection: one missed heartbeat round-trip.
            secs: self.config.net.rtt_secs,
            ..FailoverReport::default()
        };
        if orphaned.is_empty() {
            return Ok(report);
        }
        let mut manifest = self.manifest.clone();
        for assignment in orphaned {
            let target = self.least_loaded_alive().ok_or(FleetError::NoSurvivor)?;
            let mut service = self.open_shard(&assignment)?;
            // Replay the lost tail from the coordinator's buffers. Single
            // stream per shard, so buffer order is exactly arrival order.
            let replayed: Vec<Frame> = assignment
                .streams
                .iter()
                .filter_map(|stream| self.replay.get(&StreamId(*stream)))
                .flatten()
                .cloned()
                .collect();
            let replay_bytes = replayed.wire_len();
            if !replayed.is_empty() {
                service.advance(&replayed)?;
                report.frames_replayed += replayed.len();
            }
            self.net.record_exchange(replay_bytes, 0);
            report.secs += self.config.net.exchange_secs(replay_bytes);
            for entry in manifest.assignments.iter_mut() {
                if entry.shard == assignment.shard {
                    entry.node = target;
                }
            }
            self.place(target, assignment.shard, service)?;
            self.trim_replay(assignment.shard);
            report.shards_recovered += 1;
        }
        let manifest_bytes = self.commit_placement(manifest)?;
        report.secs += self.config.net.exchange_secs(manifest_bytes);
        self.tick(report.secs);
        self.stats.failovers += 1;
        self.stats.last_failover_secs = report.secs;
        Ok(report)
    }

    /// Migrates a shard to another alive node under the crash-safe
    /// manifest discipline: seal the tail durably on the source, commit
    /// the new placement epoch (data-durable-before-ownership-flips), then
    /// open on the target and drop the source's handle. A crash between
    /// commit and open recovers onto the target with nothing lost.
    pub fn rebalance(&mut self, shard: u32, to_node: u32) -> Result<(), FleetError> {
        let assignment = self.assignment(shard)?.clone();
        if assignment.node == to_node {
            return Ok(());
        }
        if !self.nodes.get(&to_node).is_some_and(|n| n.alive) {
            return Err(FleetError::NodeDown {
                node: to_node,
                shard,
            });
        }
        // 1. Drain the tail to durable segments on the source.
        self.shard_service_mut(shard)?.seal_all()?;
        self.trim_replay(shard);
        // 2. Commit the new placement (the crash-safe point).
        let mut manifest = self.manifest.clone();
        for entry in manifest.assignments.iter_mut() {
            if entry.shard == shard {
                entry.node = to_node;
            }
        }
        let manifest_bytes = self.commit_placement(manifest)?;
        // 3. Open on the target, drop the source handle.
        if let Some(source) = self.nodes.get_mut(&assignment.node) {
            source.shards.remove(&shard);
        }
        let service = self.open_shard(&assignment)?;
        self.place(to_node, shard, service)?;
        self.net.record_exchange(manifest_bytes, 0);
        self.tick(self.config.net.exchange_secs(manifest_bytes) + 2.0 * self.config.net.rtt_secs);
        self.stats.rebalances += 1;
        Ok(())
    }

    /// Point-in-time statistics (placement, transport account, scatter
    /// widths, failover/rebalance counters).
    pub fn stats(&self) -> FleetStats {
        let mut stats = self.stats.clone();
        stats.nodes = self.nodes.len();
        stats.nodes_alive = self.nodes.values().filter(|n| n.alive).count();
        stats.shards = self.manifest.assignments.len();
        stats.streams = self.fps.len();
        stats.manifest_epoch = self.manifest.epoch;
        stats.net = self.net.snapshot();
        stats
    }
}

/// One shard's key-sorted records for one request, tagged with the shard,
/// as [`FleetCoordinator::gather`] merges them.
type ShardRun = (
    u32,
    std::iter::Peekable<std::vec::IntoIter<Arc<ClusterRecord>>>,
);

/// K-way merges one request's shard runs into one key-sorted record vector.
/// Shards are key-disjoint, so a key met twice in a row — from two
/// responses, or twice in one — is a double-counted scatter.
fn merge_shard_runs(mut runs: Vec<ShardRun>) -> Result<Vec<Arc<ClusterRecord>>, FleetError> {
    let mut merged: Vec<Arc<ClusterRecord>> =
        Vec::with_capacity(runs.iter().map(|(_, run)| run.len()).sum());
    while let Some((key, i)) = runs
        .iter_mut()
        .enumerate()
        .filter_map(|(i, (_, run))| run.peek().map(|record| (record.key, i)))
        .min()
    {
        let (shard, run) = &mut runs[i];
        if merged.last().is_some_and(|last| last.key == key) {
            return Err(FleetError::Scatter(format!(
                "cluster {key:?} contributed twice (by shard {shard} and an earlier \
                 response) — scatter must be exactly-once"
            )));
        }
        merged.extend(run.next());
    }
    Ok(merged)
}

/// The node-side plan handler: plans every request of the batch against
/// this shard's sealed segments + hot tail with the coordinator's global
/// lookup-class set, and resolves each record's centroid observation so
/// the coordinator can verify centrally without another round trip. The
/// plan's key-sorted records ship as they are.
fn plan_on_shard(
    shard: u32,
    service: &FocusService,
    msg: PlanRequest<'_>,
) -> Result<ShardPlanMsg, FleetError> {
    let tail = service.tail_snapshot();
    let corpus = service.corpus();
    let mut per_request = Vec::with_capacity(msg.requests.len());
    for (request, classes) in msg.requests.iter().zip(msg.lookup_classes) {
        let planned = corpus.plan_with_tail_scoped(
            request,
            Some(&tail),
            classes,
            msg.prune_segments,
            true,
        )?;
        let records = planned.records;
        let mut centroids = records
            .iter()
            .map(|record| {
                let id = record.centroid_object;
                corpus
                    .centroid(id, &tail)
                    .map(|observation| (id, observation.clone()))
                    .ok_or_else(|| {
                        FleetError::Scatter(format!(
                            "shard {shard} cannot resolve the centroid observation of \
                             planned cluster {:?}",
                            record.key
                        ))
                    })
            })
            .collect::<Result<Vec<_>, FleetError>>()?;
        centroids.sort_by_key(|(id, _)| *id);
        centroids.dedup_by_key(|(id, _)| *id);
        per_request.push(ShardRequestPlan {
            records,
            centroids,
            tail_records: planned.tail_records,
            rejected_tracks: planned.plan.track_scope.rejected,
            access: planned.access,
        });
    }
    Ok(ShardPlanMsg { shard, per_request })
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_index::MemFs;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;
    use std::path::Path;

    /// A fresh in-memory filesystem.
    fn mem_fs() -> Arc<dyn Fs> {
        Arc::new(MemFs::default())
    }

    /// The default configuration on `nodes` nodes.
    fn nodes(nodes: usize) -> FleetConfig {
        FleetConfig {
            nodes,
            ..FleetConfig::default()
        }
    }

    /// `create` at `/fleet` on `fs`.
    fn create_on(fs: &Arc<dyn Fs>, config: FleetConfig) -> Result<FleetCoordinator, FleetError> {
        FleetCoordinator::create_with(
            Arc::clone(fs),
            "/fleet",
            config,
            GroundTruthCnn::resnet152(),
        )
    }

    /// A one-camera fleet of `count` nodes on `fs` with 12 s ingested, and
    /// a class that recording contains.
    fn small_fleet(fs: &Arc<dyn Fs>, count: usize) -> (FleetCoordinator, ClassId) {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 12.0);
        let mut fleet = create_on(fs, nodes(count)).unwrap();
        fleet
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        fleet.advance(&ds.frames).unwrap();
        (fleet, ds.dominant_classes(1)[0])
    }

    /// On a fault-free run the watermark keeps replay buffers as short as
    /// a pending-frame count did: after every `advance` and `maintain`,
    /// each stream's buffer holds exactly the frames from its pending
    /// segment's first frame on (none once a seal left nothing pending).
    /// The pending segment comes from a model of the seal policy. A 1-s
    /// window is short enough that some windows hold no record and drain
    /// empty, which must move the watermark too.
    #[test]
    fn replay_buffers_hold_exactly_the_pending_segment() {
        use crate::segment_ingest::SealPolicy;
        use focus_video::FrameId;

        let seal_secs = 1.0;
        let config = FleetConfig {
            nodes: 2,
            service: ServiceConfig {
                seal: SealPolicy::every_secs(seal_secs),
                ..ServiceConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut fleet = create_on(&mem_fs(), config).unwrap();
        let datasets: Vec<VideoDataset> = ["auburn_c", "bend"]
            .iter()
            .map(|name| VideoDataset::generate(profile_by_name(name).unwrap(), 20.0))
            .collect();
        for ds in &datasets {
            fleet
                .register_stream(ds.profile.stream_id, ds.profile.fps)
                .unwrap();
        }
        // Per stream: the pending segment's first frame, the last frame
        // pushed, and the frames pushed so far.
        let mut model: Vec<(Option<FrameId>, FrameId, &[Frame])> = datasets
            .iter()
            .map(|_| (None, FrameId(0), &[][..]))
            .collect();
        let secs = |id: FrameId, ds: &VideoDataset| id.timestamp_secs(ds.profile.fps);
        let (mut windows, mut sealed) = (0, 0);
        let check = |fleet: &FleetCoordinator, model: &[(Option<FrameId>, FrameId, &[Frame])]| {
            for (ds, (first, _, pushed)) in datasets.iter().zip(model) {
                let expected: Vec<FrameId> = pushed
                    .iter()
                    .map(|frame| frame.frame_id)
                    .filter(|id| first.is_some_and(|first| *id >= first))
                    .collect();
                let buffered: Vec<FrameId> = fleet.replay[&ds.profile.stream_id]
                    .iter()
                    .map(|frame| frame.frame_id)
                    .collect();
                assert_eq!(buffered, expected, "stream {}", ds.profile.name);
            }
        };
        for round in 0..30 {
            let mut batch = Vec::new();
            for (ds, (first, last, pushed)) in datasets.iter().zip(&mut model) {
                let chunk = &ds.frames[round * 20..(round + 1) * 20];
                for frame in chunk {
                    let at = secs(frame.frame_id, ds);
                    if first.is_some_and(|first| at - secs(first, ds) >= seal_secs) {
                        (*first, windows) = (None, windows + 1);
                    }
                    first.get_or_insert(frame.frame_id);
                    *last = frame.frame_id;
                }
                *pushed = &ds.frames[..(round + 1) * 20];
                batch.extend(chunk.iter().cloned());
            }
            sealed += fleet.advance(&batch).unwrap().segments_sealed;
            check(&fleet, &model);
            if round % 3 == 2 {
                for (ds, (first, last, _)) in datasets.iter().zip(&mut model) {
                    let next = secs(*last, ds) + 1.0 / ds.profile.fps as f64;
                    if first.is_some_and(|first| next - secs(first, ds) >= seal_secs) {
                        (*first, windows) = (None, windows + 1);
                    }
                }
                sealed += fleet.maintain().unwrap().segments_sealed;
                check(&fleet, &model);
            }
        }
        assert!(
            windows > sealed,
            "{windows} windows closed and {sealed} segments sealed: none drained empty"
        );
    }

    #[test]
    fn a_fleet_of_no_nodes_is_refused_before_anything_is_written() {
        let fs = mem_fs();
        let err = create_on(&fs, nodes(0)).unwrap_err();
        assert!(matches!(err, FleetError::Manifest(_)), "{err}");
        assert!(
            !fs.exists(Path::new("/fleet")).unwrap(),
            "nothing was written"
        );
    }

    /// `create` over an existing fleet is refused before it writes, whether
    /// the root's `CLUSTER.json` or only a node's replica is there, and the
    /// fleet still recovers with its shard, stream and epoch.
    #[test]
    fn create_over_an_existing_fleet_is_refused_and_leaves_it_recoverable() {
        let fs = mem_fs();
        let (mut fleet, _) = small_fleet(&fs, 2);
        fleet.seal_all().unwrap();
        drop(fleet);
        let root = Path::new("/fleet");
        let replica = root.join(CLUSTER_MANIFEST_FILE);
        let written = fs.read(&replica).unwrap();
        for refused_at in [&replica, &root.join("node-0").join(CLUSTER_MANIFEST_FILE)] {
            match create_on(&fs, nodes(2)) {
                Err(FleetError::Persist(err)) => {
                    assert_eq!(err.path(), Some(refused_at.as_path()));
                    assert!(err.to_string().contains("recover"), "{err}");
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
            // The node replicas still refuse once the root's is gone.
            fs.remove(&replica).ok();
        }
        fs.write_atomic(&replica, &written).unwrap();

        let gt = GroundTruthCnn::resnet152();
        let fleet = FleetCoordinator::recover_with(fs, root, nodes(2), gt).unwrap();
        let placed = (
            fleet.manifest().epoch,
            fleet.stats().shards,
            fleet.fps.len(),
        );
        assert_eq!(placed, (1, 1, 1));
        assert!(fleet.shard_service(0).unwrap().stats().segments > 0);
    }

    #[test]
    fn gather_rejects_a_response_counted_twice() {
        let (mut fleet, class) = small_fleet(&mem_fs(), 1);
        let requests = [QueryRequest::new(class)];
        let mut batch = fleet.scatter(&requests, true).unwrap();
        assert!(!batch.responses[0].per_request[0].records.is_empty());
        batch.responses.push(batch.responses[0].clone());
        let err = fleet.gather(&requests, batch).unwrap_err();
        assert!(matches!(err, FleetError::Scatter(_)), "{err}");
        assert_eq!(fleet.stats().serves, 0, "nothing was served");
    }

    #[test]
    fn gather_rejects_a_request_slice_of_another_length() {
        let (mut fleet, class) = small_fleet(&mem_fs(), 1);
        let requests = [QueryRequest::new(class), QueryRequest::new(class)];
        let batch = fleet.scatter(&requests, true).unwrap();
        let err = fleet.gather(&requests[..1], batch).unwrap_err();
        assert!(matches!(err, FleetError::Scatter(_)), "{err}");
        // The same batch shape gathers fine with the slice it was
        // scattered with.
        let batch = fleet.scatter(&requests, true).unwrap();
        assert_eq!(fleet.gather(&requests, batch).unwrap().len(), 2);
    }
}
