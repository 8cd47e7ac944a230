//! Integration tests for the multi-node fleet: scatter-gather answers must
//! be byte-identical to a single-node service over the union of streams —
//! across placements, node losses mid-ingest and mid-query, and rebalances
//! — while scattering opens strictly fewer segments than broadcasting
//! under selective time filters. The `fleet_faults_*` tests are the
//! deterministic kill/recover/rebalance matrix the `fleet-faults` CI job
//! runs per node count; `fleet_failover_soak` is the nightly soak.

mod common;

use proptest::prelude::*;

use common::{config, interleave, mem_fs, payload_json, service_at, test_dir, MEM_DIR};
use focus::cnn::GroundTruthCnn;
use focus::core::fleet::{FleetConfig, FleetCoordinator, FleetError};
use focus::core::service::{FocusService, ServiceConfig};
use focus::core::{QueryOutcome, QueryRequest, SealPolicy, StreamWorkerConfig};
use focus::index::{Fs, OsFs, QueryFilter};
use focus::runtime::{Clock, NetCostModel, VirtualClock};
use focus::video::profile::profile_by_name;
use focus::video::{ClassId, Frame, StreamId, VideoDataset, NUM_CLASSES};

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Specialization and adaptation are per-process schedules that a failover
/// resets, so the equivalence tests run with both disabled
/// ([`common::config`]) — the regime in which fleet answers are provably
/// byte-identical to a single node's.
fn fleet_config(nodes: usize, seal_secs: f64) -> FleetConfig {
    FleetConfig {
        nodes,
        service: config(seal_secs),
        net: NetCostModel::default(),
    }
}

fn workload(secs: f64) -> Vec<VideoDataset> {
    ["auburn_c", "lausanne", "cnn"]
        .iter()
        .map(|n| VideoDataset::generate(profile_by_name(n).unwrap(), secs))
        .collect()
}

/// The standard request mix: unfiltered, two time windows, a stream
/// restriction (exercises shard skipping), and a second class.
fn request_mix(datasets: &[VideoDataset], secs: f64) -> Vec<QueryRequest> {
    let classes = datasets[0].dominant_classes(2);
    let second = classes.get(1).copied().unwrap_or(classes[0]);
    vec![
        QueryRequest::new(classes[0]),
        QueryRequest::new(classes[0])
            .with_filter(QueryFilter::any().with_time_range(0.0, secs / 3.0)),
        QueryRequest::new(classes[0]).with_filter(
            QueryFilter::any()
                .with_time_range(secs / 2.0, secs)
                .with_kx(3),
        ),
        QueryRequest::new(classes[0])
            .with_filter(QueryFilter::for_stream(datasets[0].profile.stream_id)),
        QueryRequest::new(second),
    ]
}

/// A fleet at `root` on `fs` with every dataset's stream registered.
fn fleet_on(
    fs: Arc<dyn Fs>,
    root: &Path,
    nodes: usize,
    seal_secs: f64,
    datasets: &[VideoDataset],
) -> FleetCoordinator {
    let config = fleet_config(nodes, seal_secs);
    let mut fleet =
        FleetCoordinator::create_with(fs, root, config, GroundTruthCnn::resnet152()).unwrap();
    for ds in datasets {
        fleet
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    fleet
}

/// [`fleet_on`] a fresh in-memory filesystem.
fn fleet_with(nodes: usize, seal_secs: f64, datasets: &[VideoDataset]) -> FleetCoordinator {
    fleet_on(mem_fs(), Path::new(MEM_DIR), nodes, seal_secs, datasets)
}

/// The single-node twin: one `FocusService` over the union of streams, on
/// a fresh in-memory filesystem.
fn twin_with(seal_secs: f64, datasets: &[VideoDataset]) -> FocusService {
    service_at(mem_fs(), MEM_DIR, seal_secs, datasets)
}

fn canonical(outcomes: &[focus::core::QueryOutcome]) -> String {
    // The vendored serde implements `Serialize` for `Vec`, not `[T]`.
    serde_json::to_string(&outcomes.to_vec()).unwrap()
}

/// The tentpole acceptance: for 1, 2 and 4 nodes, a fleet-served wave is
/// byte-identical (canonical JSON, accounting included) to the single-node
/// twin's, broadcast returns the same answers, and under the mix's time
/// filters scattering opens strictly fewer segments than broadcasting.
#[test]
fn fleet_serves_byte_identical_to_single_node_twin() {
    let secs = 40.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);

    let mut twin = twin_with(6.0, &datasets);
    twin.advance(&frames).unwrap();
    let expected = canonical(&twin.serve(&requests).unwrap());

    for nodes in [1usize, 2, 4] {
        let mut fleet = fleet_with(nodes, 6.0, &datasets);
        fleet.advance(&frames).unwrap();
        let outcomes = fleet.serve(&requests).unwrap();
        assert_eq!(canonical(&outcomes), expected, "{nodes} nodes");

        let stats = fleet.stats();
        assert_eq!(stats.shards, datasets.len());
        assert!(
            stats.last_scatter_width <= datasets.len(),
            "scatter contacted {} shards",
            stats.last_scatter_width
        );
        let scatter_opened = stats.reads.segments_opened();
        // The shards' own accounts come back with their plans: the scatter
        // fetched blocks from some tier of some shard's store.
        let fetched = stats.reads.block_hits + stats.reads.block_raw_hits + stats.reads.blocks_read;
        assert!(fetched > 0, "{nodes} nodes: {:?}", stats.reads);

        // Broadcast: identical answers (the verdict cache is warm now, so
        // compare content, not accounting), strictly more segment opens.
        let broadcast = fleet.serve_broadcast(&requests).unwrap();
        for (a, b) in outcomes.iter().zip(broadcast.iter()) {
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.objects, b.objects);
            assert_eq!(a.matched_clusters, b.matched_clusters);
            assert_eq!(a.confirmed_clusters, b.confirmed_clusters);
        }
        let broadcast_opened = fleet.stats().reads.segments_opened() - scatter_opened;
        assert!(
            scatter_opened < broadcast_opened,
            "{nodes} nodes: scatter opened {scatter_opened}, broadcast {broadcast_opened}"
        );
        assert!(fleet.stats().net.bytes_total() > 0);
    }
}

/// Satellite: a query scattered before a rebalance gathers correctly after
/// it — every shard contributed exactly once (the gather merge panics on a
/// duplicate cluster key) and the answers equal the twin's.
#[test]
fn query_during_rebalance_sees_exactly_once_results() {
    let secs = 30.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);

    let mut fleet = fleet_with(2, 8.0, &datasets);
    fleet.advance(&frames).unwrap();

    // Scatter, then move a shard while the batch is in flight.
    let batch = fleet.scatter(&requests, true).unwrap();
    let moved = fleet.manifest().assignments[0].clone();
    let target = (moved.node + 1) % 2;
    fleet.rebalance(moved.shard, target).unwrap();
    assert_eq!(
        fleet.manifest().assignment(moved.shard).unwrap().node,
        target
    );
    assert_eq!(fleet.manifest().epoch, datasets.len() as u64 + 1);

    let mut contacted = batch.contacted.clone();
    contacted.dedup();
    assert_eq!(contacted, batch.contacted, "a shard was contacted twice");
    let outcomes = fleet.gather(&requests, batch).unwrap();

    // The rebalance sealed the shard's tail but moved no data: answers
    // still equal the never-rebalanced twin's.
    let mut twin = twin_with(8.0, &datasets);
    twin.advance(&frames).unwrap();
    let expected = twin.serve(&requests).unwrap();
    assert_eq!(canonical(&outcomes), canonical(&expected));

    // And the moved shard serves from its new node: a fresh wave still
    // matches (cache-warm on both sides for byte equality).
    let again = fleet.serve(&requests).unwrap();
    let expected_again = twin.serve(&requests).unwrap();
    assert_eq!(canonical(&again), canonical(&expected_again));
    assert_eq!(fleet.stats().rebalances, 1);
}

/// A shard retrain leaves the gather-side verdict cache alone: a GT
/// verdict does not depend on the ingest model. A windowed query served
/// before the shards' first retrain and again after them costs no fresh
/// inference the second time and returns the same frames and objects.
#[test]
fn a_query_repeated_across_shard_retrains_is_answered_from_the_cache() {
    let datasets = workload(120.0);
    let config = FleetConfig {
        nodes: 2,
        service: ServiceConfig {
            worker: StreamWorkerConfig {
                bootstrap_secs: 30.0,
                retrain_interval_secs: 45.0,
                ..StreamWorkerConfig::default()
            },
            seal: SealPolicy::every_secs(20.0),
            ..ServiceConfig::default()
        },
        net: NetCostModel::default(),
    };
    let gt = GroundTruthCnn::resnet152();
    let mut fleet =
        FleetCoordinator::create_with(mem_fs(), Path::new(MEM_DIR), config, gt).unwrap();
    for ds in &datasets {
        fleet
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    let (before, after): (Vec<Frame>, Vec<Frame>) = interleave(&datasets, 64)
        .into_iter()
        .partition(|f| f.timestamp_secs < 25.0);
    // The window closes before any retrain's frames: both serves plan the
    // same candidates.
    let window = QueryFilter::any().with_time_range(0.0, 20.0);
    let requests: Vec<QueryRequest> = datasets[0]
        .dominant_classes(2)
        .into_iter()
        .map(|class| QueryRequest::new(class).with_filter(window.clone()))
        .collect();

    assert_eq!(fleet.advance(&before).unwrap().retrains, 0);
    let first = fleet.serve(&requests).unwrap();
    assert!(first.iter().map(|o| o.centroid_inferences).sum::<usize>() > 0);

    let report = fleet.advance(&after).unwrap();
    assert!(report.retrains >= 2, "retrains = {}", report.retrains);
    let again = fleet.serve(&requests).unwrap();
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(b.centroid_inferences, 0, "re-verified after a retrain");
        assert_eq!(payload_json(a), payload_json(b));
    }
}

/// Satellite: a manifest in which two nodes claim the same segment range
/// (here: the same stream, hence the same shard ranges) is rejected when
/// the coordinator loads it — split-brain placements refuse to start.
#[test]
fn conflicting_segment_range_claims_rejected_at_recover() {
    use focus::core::fleet::{ClusterManifest, ShardAssignment};
    let (fs, root) = (mem_fs(), Path::new(MEM_DIR));
    fs.create_dir_all(&root.join("node-0")).unwrap();
    let mut manifest = ClusterManifest::new();
    manifest.assignments.push(ShardAssignment {
        shard: 0,
        node: 0,
        dir: "shard-0000".into(),
        streams: vec![7],
    });
    manifest.assignments.push(ShardAssignment {
        shard: 1,
        node: 1,
        dir: "shard-0001".into(),
        streams: vec![7],
    });
    manifest.epoch = 1;
    let manifest = manifest.seal().unwrap();
    let json = serde_json::to_string(&manifest).unwrap();
    for dir in [root.to_path_buf(), root.join("node-0")] {
        fs.write_atomic(&dir.join("CLUSTER.json"), json.as_bytes())
            .unwrap();
    }

    let gt = GroundTruthCnn::resnet152();
    let err = FleetCoordinator::recover_with(fs, root, fleet_config(1, 10.0), gt).unwrap_err();
    assert!(
        err.to_string().contains("claimed by two shards"),
        "unexpected error: {err}"
    );
}

/// The wire account is a pure function of the messages' shapes: two fleets
/// fed the same frames and requests report bit-identical `NetStats`.
#[test]
fn identical_fleets_report_identical_net_stats() {
    let secs = 30.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);
    let run = || {
        let mut fleet = fleet_with(2, 6.0, &datasets);
        for chunk in frames.chunks(500) {
            fleet.advance(chunk).unwrap();
        }
        fleet.maintain().unwrap();
        fleet.serve(&requests).unwrap();
        fleet.serve_broadcast(&requests).unwrap();
        fleet.stats().net
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b);
    assert!(a.bytes_sent > 0 && a.bytes_received > 0);
}

/// What pruning saves on the wire: a one-camera request costs exactly one
/// exchange and strictly fewer bytes than its broadcast; a time-filtered
/// all-camera request never costs more than its broadcast.
#[test]
fn scatter_charges_no_more_wire_than_broadcast() {
    let secs = 30.0;
    let datasets = workload(secs);
    let mut fleet = fleet_with(2, 6.0, &datasets);
    fleet.advance(&interleave(&datasets, 64)).unwrap();
    let class = datasets[0].dominant_classes(1)[0];
    let mut cost = |request: QueryRequest, broadcast: bool| {
        let before = fleet.stats().net;
        let requests = [request];
        if broadcast {
            fleet.serve_broadcast(&requests).unwrap();
        } else {
            fleet.serve(&requests).unwrap();
        }
        let after = fleet.stats().net;
        (
            after.messages_sent - before.messages_sent,
            after.bytes_total() - before.bytes_total(),
        )
    };

    let one_camera = QueryRequest::new(class)
        .with_filter(QueryFilter::for_stream(datasets[0].profile.stream_id));
    let (exchanges, bytes) = cost(one_camera.clone(), false);
    let (broadcast_exchanges, broadcast_bytes) = cost(one_camera, true);
    assert_eq!(exchanges, 1, "a one-camera request contacts one shard");
    assert_eq!(broadcast_exchanges, datasets.len());
    assert!(
        bytes < broadcast_bytes,
        "one-camera scatter moved {bytes} B, broadcast {broadcast_bytes} B"
    );

    let windowed =
        QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(0.0, secs / 3.0));
    let (_, bytes) = cost(windowed.clone(), false);
    let (_, broadcast_bytes) = cost(windowed, true);
    assert!(
        bytes <= broadcast_bytes,
        "windowed scatter moved {bytes} B, broadcast {broadcast_bytes} B"
    );
}

/// An `advance` that fails part-way — the last touched shard's owner is
/// dead — still leaves that shard's share of the batch in the replay
/// buffer, so the failover delivers it and the fleet ends up equal to a twin
/// that saw every frame once.
#[test]
fn owner_lost_mid_advance_is_made_whole_by_failover() {
    let secs = 30.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);
    let (first, rest) = frames.split_at(frames.len() / 3);
    let (second, third) = rest.split_at(rest.len() / 2);

    // Four nodes, three shards: every shard has its own node, so killing
    // the last shard's owner fails the batch after the others were served.
    let mut fleet = fleet_with(4, 7.0, &datasets);
    fleet.advance(first).unwrap();
    let last = fleet.manifest().assignments.last().unwrap().clone();
    fleet.kill_node(last.node);
    let err = fleet.advance(second).unwrap_err();
    assert!(
        matches!(err, FleetError::NodeDown { shard, .. } if shard == last.shard),
        "{err}"
    );
    let lost = second
        .iter()
        .filter(|frame| last.streams.contains(&frame.stream_id.0))
        .count();
    let report = fleet.failover().unwrap();
    assert_eq!(report.shards_recovered, 1);
    assert!(
        report.frames_replayed >= lost,
        "replayed {} frames, the failed batch alone held {lost}",
        report.frames_replayed
    );
    fleet.advance(third).unwrap();

    let mut twin = twin_with(7.0, &datasets);
    twin.advance(&frames).unwrap();
    assert_eq!(
        canonical(&fleet.serve(&requests).unwrap()),
        canonical(&twin.serve(&requests).unwrap())
    );
}

/// A batch refused for a frame of a stream no shard owns reaches no shard
/// and buffers nothing: the caller resends its frames, and a failover
/// replays each of them once.
#[test]
fn a_refused_batch_buffers_nothing() {
    let datasets = [VideoDataset::generate(
        profile_by_name("auburn_c").unwrap(),
        10.0,
    )];
    let frames = &datasets[0].frames;
    let mut fleet = fleet_with(2, 60.0, &datasets);
    let mut batch = frames[..100].to_vec();
    let mut stray = frames[100].clone();
    stray.stream_id = StreamId(999);
    batch.push(stray);
    let err = fleet.advance(&batch).unwrap_err();
    assert!(
        matches!(err, FleetError::UnknownStream(StreamId(999))),
        "{err}"
    );

    fleet.advance(&frames[..100]).unwrap();
    let owner = fleet.manifest().assignments[0].node;
    fleet.kill_node(owner);
    let report = fleet.failover().unwrap();
    assert_eq!(report.shards_recovered, 1);
    assert_eq!(report.frames_replayed, 100);
}

/// One step of a failed-seal schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Advance the recording's frames in this index range.
    Advance(Range<usize>),
    Maintain,
    SealAll,
    /// Block this segment file's path with a directory, so the next step's
    /// durable write fails.
    Block(&'static str),
    /// Clear the fault.
    Unblock,
    /// Lose the process state: a single node is dropped, recovered and fed
    /// the frames from its pre-crash unsealed watermark; a fleet loses the
    /// shard's owner and fails over. Either replays this many frames: every
    /// frame from the first one whose records are in no durable segment.
    Crash(usize),
}

/// What a failed-seal schedule runs on: one service, or a 2-node fleet
/// holding the stream's one shard.
enum Target {
    Node(Box<FocusService>),
    Fleet(Box<FleetCoordinator>),
}

/// One row per site that writes a segment, each on one 30-s `auburn_c`
/// stream sealing every 10 s (a boundary every 300 frames).
fn failed_seal_rows() -> Vec<(&'static str, Vec<Step>)> {
    use Step::*;
    vec![
        // The push-driven boundary: the batch ends on the boundary frame,
        // whose seal fails, and nothing is sealed before the crash.
        (
            "boundary",
            vec![
                Block("seg-000000.bin"),
                Advance(0..301),
                Unblock,
                Advance(301..450),
                Crash(450),
                Advance(450..900),
            ],
        ),
        // A batch that runs past the failing boundary: the shard takes the
        // frames up to the failing one, and the caller resumes after it.
        (
            "mid_batch",
            vec![
                Block("seg-000000.bin"),
                Advance(0..400),
                Unblock,
                Advance(301..450),
                Crash(450),
                Advance(450..900),
            ],
        ),
        // A `maintain` budget seal: the same boundary, reached by the tick.
        (
            "maintain",
            vec![
                Advance(0..300),
                Block("seg-000000.bin"),
                Maintain,
                Unblock,
                Advance(300..450),
                Crash(450),
                Advance(450..900),
            ],
        ),
        // `seal_all` between boundaries; the checkpoint is retried once the
        // fault clears.
        (
            "seal_all",
            vec![
                Advance(0..200),
                Block("seg-000000.bin"),
                SealAll,
                Unblock,
                Crash(200),
                SealAll,
                Advance(200..900),
            ],
        ),
        // `compact` inside `maintain`: two segments are live, no seal is
        // due, and the replacement's file is blocked.
        (
            "compact",
            vec![
                Advance(0..601),
                Block("seg-000002.bin"),
                Maintain,
                Unblock,
                Advance(601..750),
                Crash(150),
                Advance(750..900),
            ],
        ),
    ]
}

/// The failed-seal rows' configuration: the equivalence config, sealing
/// every 10 s, with a compaction trigger that two segments reach.
fn failed_seal_config() -> ServiceConfig {
    ServiceConfig {
        small_segment_clusters: usize::MAX,
        compact_small_threshold: 2,
        ..config(10.0)
    }
}

/// A fresh [`Target`] at `dir` with `ds`'s stream registered.
fn failed_seal_target(dir: &Path, ds: &VideoDataset, fleet: bool) -> Target {
    let (stream, fps) = (ds.profile.stream_id, ds.profile.fps);
    let gt = GroundTruthCnn::resnet152();
    if fleet {
        let config = FleetConfig {
            service: failed_seal_config(),
            ..fleet_config(2, 10.0)
        };
        let mut fleet = FleetCoordinator::create(dir, config, gt).unwrap();
        fleet.register_stream(stream, fps).unwrap();
        Target::Fleet(Box::new(fleet))
    } else {
        let mut service = FocusService::create(dir, failed_seal_config(), gt).unwrap();
        service.register_stream(stream, fps).unwrap();
        Target::Node(Box::new(service))
    }
}

impl Target {
    /// Runs one ingest or seal step.
    fn apply(&mut self, step: &Step, frames: &[Frame]) -> Result<(), String> {
        match (self, step) {
            (Target::Node(s), Step::Advance(range)) => s
                .advance(&frames[range.clone()])
                .map(drop)
                .map_err(|e| e.to_string()),
            (Target::Node(s), Step::Maintain) => s.maintain().map(drop).map_err(|e| e.to_string()),
            (Target::Node(s), Step::SealAll) => s.seal_all().map(drop).map_err(|e| e.to_string()),
            (Target::Fleet(f), Step::Advance(range)) => f
                .advance(&frames[range.clone()])
                .map(drop)
                .map_err(|e| e.to_string()),
            (Target::Fleet(f), Step::Maintain) => f.maintain().map(drop).map_err(|e| e.to_string()),
            (Target::Fleet(f), Step::SealAll) => f.seal_all().map(drop).map_err(|e| e.to_string()),
            (_, step) => panic!("{step:?} is not an ingest or seal step"),
        }
    }

    /// Loses the process state and restores it from the durable store plus
    /// the frames from the unsealed watermark on, which must number
    /// `replayed`.
    fn crash(self, dir: &Path, pushed: &[Frame], replayed: usize) -> Self {
        match self {
            Target::Node(service) => {
                let from = service.unsealed_from_by_stream()[&pushed[0].stream_id];
                drop(service);
                let replay: Vec<Frame> = pushed
                    .iter()
                    .filter(|frame| from.is_some_and(|from| frame.frame_id >= from))
                    .cloned()
                    .collect();
                assert_eq!(replay.len(), replayed, "frames replayed");
                let (mut service, _) =
                    FocusService::recover(dir, failed_seal_config(), GroundTruthCnn::resnet152())
                        .unwrap();
                service.advance(&replay).unwrap();
                Target::Node(Box::new(service))
            }
            Target::Fleet(mut fleet) => {
                fleet.kill_node(fleet.manifest().assignments[0].node);
                let report = fleet.failover().unwrap();
                assert_eq!(report.shards_recovered, 1);
                assert_eq!(report.frames_replayed, replayed, "frames replayed");
                Target::Fleet(fleet)
            }
        }
    }

    fn serve(&mut self, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
        match self {
            Target::Node(service) => service.serve(requests).unwrap(),
            Target::Fleet(fleet) => fleet.serve(requests).unwrap(),
        }
    }
}

/// Runs `steps` on `target` over `ds`'s frames. In the `faulty` run the
/// step after each `Block` must fail and every other step must succeed;
/// the never-failed twin skips the fault and crash steps.
fn run_schedule(
    mut target: Target,
    dir: &Path,
    ds: &VideoDataset,
    steps: &[Step],
    faulty: bool,
) -> Target {
    let store = match target {
        Target::Node(_) => dir.to_path_buf(),
        Target::Fleet(_) => dir.join("shard-0000"),
    };
    let (mut pushed, mut blocked, mut fails) = (0, None, false);
    for step in steps {
        match step {
            Step::Block(_) | Step::Unblock | Step::Crash(_) if !faulty => {}
            Step::Block(file) => {
                let path = store.join(file);
                std::fs::create_dir(&path).unwrap();
                (blocked, fails) = (Some(path), true);
            }
            Step::Unblock => std::fs::remove_dir(blocked.take().unwrap()).unwrap(),
            Step::Crash(replayed) => target = target.crash(dir, &ds.frames[..pushed], *replayed),
            step => {
                let step = match step {
                    // A faulty run resumes after the frame whose seal
                    // failed; the twin takes each frame once.
                    Step::Advance(range) if !faulty => {
                        Step::Advance(range.start.max(pushed)..range.end)
                    }
                    step => step.clone(),
                };
                if let Step::Advance(range) = &step {
                    pushed = range.end;
                }
                let result = target.apply(&step, &ds.frames);
                assert_eq!(result.is_err(), fails, "{step:?}: {result:?}");
                fails = false;
            }
        }
    }
    target
}

/// A failed seal loses nothing, at every site that writes a segment, on one
/// node (drop, `recover`, replay from the pre-crash watermark) and across a
/// fleet failover: once the fault clears, every class's answer — and the
/// dominant class's over `[0, 9 s]` — equals the never-failed twin's. The
/// boundary row's fleet run is the failover that replayed 150 of 450
/// frames when the replay buffers were trimmed to a pending-frame count;
/// the mid-batch row's replayed 549 (frames 301–399 twice) when a failed
/// shard's whole batch was buffered, frames it never took included.
#[test]
fn a_failed_seal_loses_nothing_at_any_seal_site_or_across_a_failover() {
    let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 30.0);
    let dominant = ds.dominant_classes(1)[0];
    let mut requests: Vec<QueryRequest> = (0..NUM_CLASSES)
        .map(|class| QueryRequest::new(ClassId(class)))
        .collect();
    requests.push(
        QueryRequest::new(dominant).with_filter(QueryFilter::any().with_time_range(0.0, 9.0)),
    );
    for (row, steps) in failed_seal_rows() {
        let twin_dir = test_dir(&format!("seal_{row}_twin"));
        let twin = failed_seal_target(&twin_dir, &ds, false);
        let expected = run_schedule(twin, &twin_dir, &ds, &steps, false).serve(&requests);
        assert!(!expected.last().unwrap().frames.is_empty());
        for fleet in [false, true] {
            let mode = if fleet { "fleet" } else { "node" };
            let dir = test_dir(&format!("seal_{row}_{mode}"));
            let target = failed_seal_target(&dir, &ds, fleet);
            let got = run_schedule(target, &dir, &ds, &steps, true).serve(&requests);
            for (a, b) in expected.iter().zip(&got) {
                let counts =
                    |o: &QueryOutcome| (o.frames.len(), o.objects.len(), o.matched_clusters);
                let at = format!("{row} ({mode}), class {:?}", a.class);
                assert_eq!(
                    counts(a),
                    counts(b),
                    "{at}: frames, objects, matched clusters"
                );
                assert!(a.frames == b.frames && a.objects == b.objects, "{at}");
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&twin_dir).ok();
    }
}

/// A time-windowed fleet `serve` after a failed seal prunes by the replay
/// buffer's span, which must still cover the restored window: before any
/// node is lost, it answers as `serve_broadcast` and the never-failed twin
/// do (with buffers trimmed to a pending-frame count it answered 0 frames
/// where they answered 50).
#[test]
fn a_pruned_fleet_query_after_a_failed_seal_still_sees_the_restored_window() {
    let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 15.0);
    let windowed = [QueryRequest::new(ds.dominant_classes(1)[0])
        .with_filter(QueryFilter::any().with_time_range(0.0, 9.0))];
    let steps = [
        Step::Block("seg-000000.bin"),
        Step::Advance(0..301),
        Step::Unblock,
        Step::Advance(301..450),
    ];
    let dir = test_dir("pruned_after_failed_seal");
    let target = failed_seal_target(&dir, &ds, true);
    let Target::Fleet(mut fleet) = run_schedule(target, &dir, &ds, &steps, true) else {
        unreachable!("a fleet target")
    };
    let twin_dir = test_dir("pruned_after_failed_seal_twin");
    let twin = failed_seal_target(&twin_dir, &ds, false);
    let expected = run_schedule(twin, &twin_dir, &ds, &steps, false).serve(&windowed);
    assert!(!expected[0].frames.is_empty());
    let pruned = fleet.serve(&windowed).unwrap();
    let broadcast = fleet.serve_broadcast(&windowed).unwrap();
    let frames = |outcomes: &[QueryOutcome]| outcomes[0].frames.len();
    assert_eq!(frames(&pruned), frames(&broadcast), "pruned vs broadcast");
    assert_eq!(frames(&pruned), frames(&expected), "pruned vs twin");
    assert!(pruned[0].frames == expected[0].frames && pruned[0].objects == expected[0].objects);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
}

/// The deterministic fault scenario the `fleet-faults` CI matrix runs per
/// node count: ingest, lose a loaded node mid-ingest, fail over (replaying
/// the buffered tail), keep ingesting, lose another mid-query (between
/// scatter and gather), fail over again, rebalance, and compare the final
/// wave byte-for-byte against a never-crashed single-node twin. All under
/// a virtual clock, so the simulated failover time is asserted exactly.
fn fault_scenario(nodes: usize) {
    let secs = 36.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);
    let cut = frames.len() / 2;

    let clock = VirtualClock::new();
    let dir = test_dir(&format!("faults_{nodes}"));
    let fleet = fleet_on(Arc::new(OsFs), &dir, nodes, 7.0, &datasets);
    let mut fleet = fleet.with_clock(clock.clone());

    // Mid-ingest loss: the victim's hot tails die with it.
    fleet.advance(&frames[..cut]).unwrap();
    let victim = fleet.manifest().assignments[0].node;
    fleet.kill_node(victim);
    if nodes == 1 {
        // No survivor: failover must refuse, not corrupt.
        assert!(matches!(fleet.failover(), Err(FleetError::NoSurvivor)));
        assert!(matches!(
            fleet.serve(&requests),
            Err(FleetError::NodeDown { .. })
        ));
        fleet.restart_node(victim);
    }
    let before = clock.now_secs();
    let report = fleet.failover().unwrap();
    assert_eq!(
        clock.now_secs(),
        before + report.secs,
        "clock charges failover"
    );
    if nodes > 1 {
        assert!(report.shards_recovered >= 1);
        assert!(report.frames_replayed > 0, "the lost tail was replayed");
        assert!(report.secs > 0.0);
        assert!(fleet
            .manifest()
            .assignments
            .iter()
            .all(|a| a.node != victim));
    } else {
        // The restarted node re-adopts its own durable shards.
        assert_eq!(report.shards_recovered, datasets.len());
    }

    // Ingest continues seamlessly on the survivors.
    fleet.advance(&frames[cut..]).unwrap();

    // Mid-query loss: the scattered batch owns its data, so gather
    // completes even though a contacted node just died.
    if nodes > 1 {
        // The first victim rejoins (empty) so a survivor always exists.
        fleet.restart_node(victim);
        let batch = fleet.scatter(&requests, true).unwrap();
        let victim2 = fleet.manifest().assignments[0].node;
        fleet.kill_node(victim2);
        let outcomes = fleet.gather(&requests, batch).unwrap();
        assert!(!outcomes.is_empty());
        fleet.failover().unwrap();
        fleet.restart_node(victim2);
        // Rebalance a shard back onto the restarted second victim.
        let shard = fleet.manifest().assignments[0].shard;
        fleet.rebalance(shard, victim2).unwrap();
        assert_eq!(fleet.manifest().assignment(shard).unwrap().node, victim2);
    } else {
        let batch = fleet.scatter(&requests, true).unwrap();
        fleet.gather(&requests, batch).unwrap();
    }

    // Final wave vs the never-crashed twin: warm both verdict caches with
    // one wave, then compare byte-identically, accounting included.
    let mut twin = twin_with(7.0, &datasets);
    twin.advance(&frames).unwrap();
    twin.serve(&requests).unwrap();
    fleet.serve(&requests).unwrap();
    assert_eq!(
        canonical(&fleet.serve(&requests).unwrap()),
        canonical(&twin.serve(&requests).unwrap()),
        "{nodes}-node fleet diverged from the twin after faults"
    );
    let stats = fleet.stats();
    assert_eq!(stats.failovers, if nodes > 1 { 2 } else { 1 });
    assert!(stats.last_failover_secs > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_faults_1_node() {
    fault_scenario(1);
}

#[test]
fn fleet_faults_2_nodes() {
    fault_scenario(2);
}

#[test]
fn fleet_faults_4_nodes() {
    fault_scenario(4);
}

/// Nightly soak: repeated kill → failover → rebalance → ingest rounds on a
/// longer recording, checking twin equivalence after every round.
#[test]
// nightly: multi-round failover soak takes minutes; nightly.yml's
// failover-soak job runs it with --ignored.
#[ignore = "nightly failover soak (minutes): run with --ignored"]
fn fleet_failover_soak() {
    let secs = 90.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);
    let rounds = 6usize;
    let chunk = frames.len() / rounds;

    let clock = VirtualClock::new();
    let mut fleet = fleet_with(3, 9.0, &datasets).with_clock(clock.clone());
    let mut twin = twin_with(9.0, &datasets);

    for round in 0..rounds {
        let slice = &frames[round * chunk..((round + 1) * chunk).min(frames.len())];
        fleet.advance(slice).unwrap();
        twin.advance(slice).unwrap();
        // Node loss mid-ingest: the failover replays the victim's tails.
        let victim = fleet.manifest().assignments[round % datasets.len()].node;
        fleet.kill_node(victim);
        let report = fleet.failover().unwrap();
        assert!(report.secs > 0.0);
        fleet.restart_node(victim);
        // A rebalance force-seals the moved shard — a segmentation event
        // the twin must mirror, so both sides seal at the round boundary
        // (the shard's tail is then already durable and the rebalance
        // moves ownership only).
        fleet.seal_all().unwrap();
        twin.seal_all().unwrap();
        let shard = fleet.manifest().assignments[round % datasets.len()].shard;
        fleet.rebalance(shard, victim).unwrap();
        assert_eq!(
            canonical(&fleet.serve(&requests).unwrap()),
            canonical(&twin.serve(&requests).unwrap()),
            "round {round}"
        );
    }
    let stats = fleet.stats();
    assert_eq!(stats.failovers, rounds);
    assert_eq!(stats.rebalances, rounds);
    assert!(stats.net.scatter_width() > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5,
        .. ProptestConfig::default()
    })]

    /// The pinned acceptance proptest: over arbitrary node counts, seal
    /// cadences, ingest split points and node-loss schedules, the fleet's
    /// answers are byte-identical to the single-node twin's, and the
    /// scattered path never opens more segments than broadcast (strictly
    /// fewer whenever broadcast had prunable segments to open).
    #[test]
    fn fleet_matches_twin_over_arbitrary_placements_and_losses(
        (nodes, seal_secs, cut_fraction, kill_slot) in (
            1usize..5,
            5.0f64..12.0,
            0.3f64..0.9,
            // 0..3 kills the node owning that shard slot; 3 = no kill.
            0usize..4,
        )
    ) {
        let secs = 30.0;
        let datasets = workload(secs);
        let frames = interleave(&datasets, 64);
        let requests = request_mix(&datasets, secs);
        let cut = (frames.len() as f64 * cut_fraction) as usize;

        let mut fleet = fleet_with(nodes, seal_secs, &datasets);
        fleet.advance(&frames[..cut]).unwrap();
        if kill_slot < datasets.len() && nodes > 1 {
            let victim = fleet.manifest().assignments[kill_slot].node;
            fleet.kill_node(victim);
            fleet.failover().unwrap();
        }
        fleet.advance(&frames[cut..]).unwrap();
        let outcomes = fleet.serve(&requests).unwrap();
        let scatter_opened = fleet.stats().reads.segments_opened();

        let mut twin = twin_with(seal_secs, &datasets);
        twin.advance(&frames).unwrap();
        let expected = twin.serve(&requests).unwrap();
        prop_assert_eq!(canonical(&outcomes), canonical(&expected));

        // Broadcast is never cheaper, and strictly costlier whenever it
        // actually opened something (the mix's filters always prune).
        fleet.serve_broadcast(&requests).unwrap();
        let broadcast_opened = fleet.stats().reads.segments_opened() - scatter_opened;
        if broadcast_opened > 0 {
            prop_assert!(
                scatter_opened < broadcast_opened,
                "scatter {} vs broadcast {}", scatter_opened, broadcast_opened
            );
        }
    }
}
