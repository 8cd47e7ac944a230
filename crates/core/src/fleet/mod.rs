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
//! segments, centroid deltas and service sidecars are durable, so a
//! survivor re-opens them with [`FocusService::recover`] and the
//! coordinator replays each stream's since-last-seal frame suffix from its
//! replay buffer. Every seal starts a fresh pipeline epoch (and resets the
//! pixel-diff window), so the rebuilt hot tail — cluster keys, classes,
//! geometry — is exactly the one that was lost, and post-failover answers
//! stay byte-identical to a never-crashed single node.
//!
//! **Simulated transport.** No sockets: every coordinator↔node exchange
//! is an in-process call whose messages are weighed by the wire layout's
//! length function (`fleet/wire.rs` — nothing is encoded) and charged to a
//! [`NetMeter`]/[`NetCostModel`] (and, when attached, a [`VirtualClock`]),
//! the same capability discipline `GpuMeter`/`IoMeter` apply to compute and
//! storage. Scatter width, bytes over the wire and failover time are
//! therefore exact and machine-independent — CI asserts them
//! (`fleet-faults` job), the benchmark's `fleet_scatter` workload tracks
//! them.

pub mod manifest;
mod wire;

pub use manifest::{ClusterManifest, ShardAssignment, CLUSTER_MANIFEST_FILE};

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::GroundTruthCnn;
use focus_index::{CentroidHandle, ClusterRecord, SegmentError, TrackKey};
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
    /// Reading or writing fleet state failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The cluster manifest is invalid (torn replica, version skew, or a
    /// duplicate shard/stream claim — the split-brain guard).
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
            Self::Io { path, source } => write!(f, "fleet i/o error at {path:?}: {source}"),
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
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<SegmentError> for FleetError {
    fn from(err: SegmentError) -> Self {
        Self::Segment(err)
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
    /// Retrains across all shards (each invalidated the gather-side
    /// verdict cache, mirroring the single-node epoch bump).
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
    /// Segments opened by scattered plans, summed over serves.
    pub segments_opened: usize,
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

/// Scalar projection of a shard plan's `SegmentAccess` (the wire carries
/// plain counts).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireAccess {
    /// Live segments in the shard's store.
    pub segments_total: usize,
    /// Segments whose bounds intersected the filter.
    pub segments_considered: usize,
    /// Considered segments needing a disk read.
    pub cold_loads: usize,
    /// Considered segments served from cache.
    pub cache_hits: usize,
    /// Bytes read from disk.
    pub bytes_read: u64,
}

impl WireAccess {
    fn opened(&self) -> usize {
        self.cold_loads + self.cache_hits
    }
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
    pub access: WireAccess,
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
    root: PathBuf,
    config: FleetConfig,
    gt: GroundTruthCnn,
    bootstrap: IngestCnn,
    manifest: ClusterManifest,
    nodes: BTreeMap<u32, NodeRuntime>,
    fps: BTreeMap<StreamId, u32>,
    /// Per-stream frames since that stream's last durable seal — exactly
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
    pub fn create(
        root: impl Into<PathBuf>,
        config: FleetConfig,
        gt: GroundTruthCnn,
    ) -> Result<Self, FleetError> {
        assert!(config.nodes > 0, "a fleet needs at least one node");
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|source| FleetError::Io {
            path: root.clone(),
            source,
        })?;
        let mut nodes = BTreeMap::new();
        for node in 0..config.nodes as u32 {
            let dir = root.join(format!("node-{node}"));
            std::fs::create_dir_all(&dir).map_err(|source| FleetError::Io {
                path: dir.clone(),
                source,
            })?;
            nodes.insert(
                node,
                NodeRuntime {
                    alive: true,
                    shards: BTreeMap::new(),
                },
            );
        }
        let manifest = ClusterManifest::new();
        let bootstrap = IngestCnn::generic(config.service.worker.bootstrap_model);
        let gather_server = QueryServer::new(gt.clone(), config.service.gpus);
        let coordinator = Self {
            root,
            config,
            gt,
            bootstrap,
            manifest,
            nodes,
            fps: BTreeMap::new(),
            replay: BTreeMap::new(),
            gather_server,
            net: NetMeter::new(),
            clock: None,
            stats: FleetStats::default(),
        };
        coordinator.manifest.save(&coordinator.replica_dirs())?;
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
        let root = root.into();
        let mut replicas = vec![root.clone()];
        for node in 0..config.nodes as u32 {
            replicas.push(root.join(format!("node-{node}")));
        }
        let manifest = ClusterManifest::load(&replicas)?;
        let bootstrap = IngestCnn::generic(config.service.worker.bootstrap_model);
        let gather_server = QueryServer::new(gt.clone(), config.service.gpus);
        let mut nodes: BTreeMap<u32, NodeRuntime> = (0..config.nodes as u32)
            .map(|node| {
                (
                    node,
                    NodeRuntime {
                        alive: true,
                        shards: BTreeMap::new(),
                    },
                )
            })
            .collect();
        let mut fps = BTreeMap::new();
        for assignment in &manifest.assignments {
            let (service, _report) = FocusService::recover(
                root.join(&assignment.dir),
                config.service.clone(),
                gt.clone(),
            )?;
            for (stream, rate) in service.registered_streams() {
                fps.insert(stream, rate);
            }
            nodes
                .get_mut(&assignment.node)
                .ok_or_else(|| {
                    FleetError::Manifest(format!(
                        "assignment of shard {} names node {} outside the fleet",
                        assignment.shard, assignment.node
                    ))
                })?
                .shards
                .insert(assignment.shard, service);
        }
        Ok(Self {
            root,
            config,
            gt,
            bootstrap,
            manifest,
            nodes,
            fps,
            replay: BTreeMap::new(),
            gather_server,
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

    fn alive_node_ids(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.alive)
            .map(|(id, _)| *id)
            .collect()
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

    fn shard_service(&self, shard: u32) -> Result<(u32, &FocusService), FleetError> {
        let assignment = self
            .manifest
            .assignment(shard)
            .ok_or_else(|| FleetError::Manifest(format!("shard {shard} has no assignment")))?;
        let node =
            self.nodes
                .get(&assignment.node)
                .filter(|n| n.alive)
                .ok_or(FleetError::NodeDown {
                    node: assignment.node,
                    shard,
                })?;
        node.shards
            .get(&shard)
            .map(|service| (assignment.node, service))
            .ok_or(FleetError::NodeDown {
                node: assignment.node,
                shard,
            })
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
        let mut service = FocusService::create(
            self.root.join(&dir),
            self.config.service.clone(),
            self.gt.clone(),
        )?;
        service.register_stream(stream, fps)?;
        let mut manifest = self.manifest.clone();
        manifest.assignments.push(ShardAssignment {
            shard,
            node,
            dir,
            streams: vec![stream.0],
        });
        manifest.epoch += 1;
        let manifest = manifest.seal();
        manifest.validate()?;
        manifest.save(&self.replica_dirs())?;
        self.manifest = manifest;
        self.nodes
            .get_mut(&node)
            .expect("alive node exists")
            .shards
            .insert(shard, service);
        self.fps.insert(stream, fps);
        self.replay.insert(stream, Vec::new());
        Ok(shard)
    }

    /// Routes a batch of live frames to their owning shards (per-stream
    /// order preserved — the only order a per-stream pipeline observes, so
    /// routing is ingest-equivalent to a single node seeing the full
    /// interleaving). Each touched shard costs one simulated exchange.
    /// Each routed batch is moved into its streams' replay buffers once its
    /// shard call returns, and the buffers are then trimmed to each stream's
    /// since-last-seal suffix.
    ///
    /// On an error nothing further is sent, but every frame routed before
    /// the error is still buffered — the failed shard's batch and the
    /// batches of shards not reached — so a [`failover`](Self::failover)
    /// after a [`FleetError::NodeDown`] replays the dead owner's share of
    /// the batch.
    pub fn advance(&mut self, frames: &[Frame]) -> Result<FleetAdvanceReport, FleetError> {
        let mut by_shard: BTreeMap<u32, Vec<Frame>> = BTreeMap::new();
        let mut routing = Ok(());
        for frame in frames {
            match self.shard_of_stream(frame.stream_id) {
                Ok(shard) => by_shard.entry(shard).or_default().push(frame.clone()),
                Err(err) => {
                    routing = Err(err);
                    break;
                }
            }
        }
        let mut report = FleetAdvanceReport::default();
        let mut routed = by_shard.into_iter();
        let result = routing.and_then(|()| {
            routed.by_ref().try_for_each(|(shard, batch)| {
                let pending = self.advance_shard(shard, &batch, &mut report);
                self.buffer_for_replay(batch);
                self.trim_replay(&pending?);
                Ok(())
            })
        });
        for (_, batch) in routed {
            self.buffer_for_replay(batch);
        }
        result.map(|()| report)
    }

    /// One ingest exchange with `shard`'s owner: ships `batch`, folds the
    /// shard's report into `report`, and returns the shard's pending-frame
    /// counts (what its replay buffers must keep).
    fn advance_shard(
        &mut self,
        shard: u32,
        batch: &[Frame],
        report: &mut FleetAdvanceReport,
    ) -> Result<BTreeMap<StreamId, usize>, FleetError> {
        // Resolve ownership fresh per shard: an earlier error leaves
        // untouched shards untouched.
        let (node_id, _) = self.shard_service(shard)?;
        let service = self
            .nodes
            .get_mut(&node_id)
            .expect("owner checked alive")
            .shards
            .get_mut(&shard)
            .expect("owner checked present");
        let shard_report = service.advance(batch)?;
        let pending = service.pending_frames_by_stream();
        let (sent, received) = (batch.wire_len(), shard_report.wire_len());
        self.net.record_exchange(sent, received);
        self.tick(self.config.net.exchange_secs(sent + received));
        if shard_report.retrains > 0 {
            // Mirror the single-node epoch bump: a new model generation
            // invalidates the (gather-side) verdict cache.
            self.gather_server.invalidate();
        }
        report.frames += shard_report.frames;
        report.segments_sealed += shard_report.segments_sealed;
        report.retrains += shard_report.retrains;
        report.shards_touched += 1;
        Ok(pending)
    }

    fn buffer_for_replay(&mut self, batch: Vec<Frame>) {
        for frame in batch {
            self.replay.entry(frame.stream_id).or_default().push(frame);
        }
    }

    fn trim_replay(&mut self, pending: &BTreeMap<StreamId, usize>) {
        for (stream, keep) in pending {
            if let Some(buffer) = self.replay.get_mut(stream) {
                if buffer.len() > *keep {
                    let drop = buffer.len() - *keep;
                    buffer.drain(..drop);
                }
            }
        }
    }

    /// Runs one maintenance tick on every alive shard (budget-due seals,
    /// compaction, migration, prefetch), trimming replay buffers after
    /// maintenance-driven seals.
    pub fn maintain(&mut self) -> Result<MaintenanceReport, FleetError> {
        let mut total = MaintenanceReport::default();
        let shards: Vec<u32> = self.manifest.assignments.iter().map(|a| a.shard).collect();
        for shard in shards {
            let Ok((node_id, _)) = self.shard_service(shard) else {
                continue; // dead owner: maintenance resumes after failover
            };
            let service = self
                .nodes
                .get_mut(&node_id)
                .expect("owner checked alive")
                .shards
                .get_mut(&shard)
                .expect("owner checked present");
            let report = service.maintain()?;
            let pending = service.pending_frames_by_stream();
            let received = report.wire_len();
            self.net.record_exchange(0, received);
            self.tick(self.config.net.exchange_secs(received));
            total.segments_sealed += report.segments_sealed;
            total.segments_folded += report.segments_folded;
            total.segments_prefetched += report.segments_prefetched;
            self.trim_replay(&pending);
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
            let (node_id, _) = self.shard_service(shard)?;
            let service = self
                .nodes
                .get_mut(&node_id)
                .expect("owner checked alive")
                .shards
                .get_mut(&shard)
                .expect("owner checked present");
            sealed += service.seal_all()?.len();
            let pending = service.pending_frames_by_stream();
            self.trim_replay(&pending);
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
    /// tightly cover sealed records and the replay buffer tightly covers
    /// tail records — so skipping a shard never drops an answer.
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
            let Some(buffer) = self.replay.get(stream) else {
                return false;
            };
            let (Some(first), Some(last)) = (buffer.first(), buffer.last()) else {
                return false;
            };
            let fps = self.fps.get(stream).copied().unwrap_or(1).max(1) as f64;
            let t_first = first.frame_id.0 as f64 / fps;
            let t_last = last.frame_id.0 as f64 / fps;
            t_last >= from && t_first <= to
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
            let (_, service) = self.shard_service(assignment.shard)?;
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
        let mut segments_opened = 0;
        for response in batch.responses {
            let parts = response.per_request.into_iter();
            for ((part, runs), rejected) in parts.zip(&mut runs).zip(&mut rejected) {
                segments_opened += part.access.opened();
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
        self.stats.segments_opened += segments_opened;
        self.stats.last_scatter_width = batch.contacted.len();
        self.stats.query_gpu_secs += meter.phase("query").0;
        Ok(outcomes)
    }

    /// Scatter + gather with filter pushdown: queries touch only the
    /// shards whose segment/tail bounds intersect them.
    pub fn serve(&mut self, requests: &[QueryRequest]) -> Result<Vec<QueryOutcome>, FleetError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let batch = self.scatter(requests, true)?;
        self.gather(requests, batch)
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
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let batch = self.scatter(requests, false)?;
        self.gather(requests, batch)
    }

    /// Marks a node dead, dropping its in-process services (their durable
    /// state — segments, manifests, sidecars, centroid deltas — stays on
    /// disk). Queries and ingest for its shards fail with
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
    /// coordinator's buffered since-last-seal frames to rebuild the lost
    /// hot tail byte-identically, reassigns the shard in a fresh manifest
    /// epoch, and charges the simulated cost (detection RTT + replay
    /// shipping + manifest round) to the meter/clock.
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
            let (mut service, _open_report) = FocusService::recover(
                self.root.join(&assignment.dir),
                self.config.service.clone(),
                self.gt.clone(),
            )?;
            // Replay the lost tail from the coordinator's buffers. Single
            // stream per shard, so buffer order is exactly arrival order.
            let mut replayed: Vec<Frame> = Vec::new();
            for stream in assignment.streams.iter().map(|s| StreamId(*s)) {
                if let Some(buffer) = self.replay.get(&stream) {
                    replayed.extend(buffer.iter().cloned());
                }
            }
            let replay_bytes = replayed.wire_len();
            if !replayed.is_empty() {
                let shard_report = service.advance(&replayed)?;
                if shard_report.retrains > 0 {
                    self.gather_server.invalidate();
                }
                report.frames_replayed += replayed.len();
            }
            let pending = service.pending_frames_by_stream();
            self.trim_replay(&pending);
            self.net.record_exchange(replay_bytes, 0);
            report.secs += self.config.net.exchange_secs(replay_bytes);
            for entry in manifest.assignments.iter_mut() {
                if entry.shard == assignment.shard {
                    entry.node = target;
                }
            }
            self.nodes
                .get_mut(&target)
                .expect("alive target exists")
                .shards
                .insert(assignment.shard, service);
            report.shards_recovered += 1;
        }
        manifest.epoch += 1;
        let manifest = manifest.seal();
        manifest.validate()?;
        let manifest_bytes = manifest.save(&self.replica_dirs())?;
        self.manifest = manifest;
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
        let assignment = self
            .manifest
            .assignment(shard)
            .ok_or_else(|| FleetError::Manifest(format!("shard {shard} has no assignment")))?
            .clone();
        if assignment.node == to_node {
            return Ok(());
        }
        if !self.nodes.get(&to_node).is_some_and(|n| n.alive) {
            return Err(FleetError::NodeDown {
                node: to_node,
                shard,
            });
        }
        let (source_id, _) = self.shard_service(shard)?;
        // 1. Drain the tail to durable segments on the source.
        let source = self
            .nodes
            .get_mut(&source_id)
            .expect("source checked alive")
            .shards
            .get_mut(&shard)
            .expect("source checked present");
        source.seal_all()?;
        let pending = source.pending_frames_by_stream();
        self.trim_replay(&pending);
        // 2. Commit the new placement (the crash-safe point).
        let mut manifest = self.manifest.clone();
        for entry in manifest.assignments.iter_mut() {
            if entry.shard == shard {
                entry.node = to_node;
            }
        }
        manifest.epoch += 1;
        let manifest = manifest.seal();
        manifest.validate()?;
        let manifest_bytes = manifest.save(&self.replica_dirs())?;
        self.manifest = manifest;
        // 3. Open on the target, drop the source handle.
        self.nodes
            .get_mut(&source_id)
            .expect("source exists")
            .shards
            .remove(&shard);
        let (service, _report) = FocusService::recover(
            self.root.join(&assignment.dir),
            self.config.service.clone(),
            self.gt.clone(),
        )?;
        self.nodes
            .get_mut(&to_node)
            .expect("target checked alive")
            .shards
            .insert(shard, service);
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
        stats.nodes_alive = self.alive_node_ids().len();
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
            access: WireAccess {
                segments_total: planned.access.segments_total,
                segments_considered: planned.access.segments_considered,
                cold_loads: planned.access.cold_loads,
                cache_hits: planned.access.cache_hits,
                bytes_read: planned.access.bytes_read,
            },
        });
    }
    Ok(ShardPlanMsg { shard, per_request })
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    /// A one-node, one-camera fleet with 12 s ingested, and a class that
    /// recording contains.
    fn small_fleet(name: &str) -> (FleetCoordinator, ClassId, PathBuf) {
        let dir = std::env::temp_dir().join(format!("focus_fleet_unit_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile.clone(), 12.0);
        let config = FleetConfig {
            nodes: 1,
            ..FleetConfig::default()
        };
        let mut fleet =
            FleetCoordinator::create(&dir, config, GroundTruthCnn::resnet152()).unwrap();
        fleet
            .register_stream(profile.stream_id, profile.fps)
            .unwrap();
        fleet.advance(&ds.frames).unwrap();
        (fleet, ds.dominant_classes(1)[0], dir)
    }

    #[test]
    fn gather_rejects_a_response_counted_twice() {
        let (mut fleet, class, dir) = small_fleet("dup");
        let requests = [QueryRequest::new(class)];
        let mut batch = fleet.scatter(&requests, true).unwrap();
        assert!(!batch.responses[0].per_request[0].records.is_empty());
        batch.responses.push(batch.responses[0].clone());
        let err = fleet.gather(&requests, batch).unwrap_err();
        assert!(matches!(err, FleetError::Scatter(_)), "{err}");
        assert_eq!(fleet.stats().serves, 0, "nothing was served");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gather_rejects_a_request_slice_of_another_length() {
        let (mut fleet, class, dir) = small_fleet("short");
        let requests = [QueryRequest::new(class), QueryRequest::new(class)];
        let batch = fleet.scatter(&requests, true).unwrap();
        let err = fleet.gather(&requests[..1], batch).unwrap_err();
        assert!(matches!(err, FleetError::Scatter(_)), "{err}");
        // The same batch shape gathers fine with the slice it was
        // scattered with.
        let batch = fleet.scatter(&requests, true).unwrap();
        assert_eq!(fleet.gather(&requests, batch).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
