//! Integration tests for the multi-node fleet: scatter-gather answers must
//! be byte-identical to a single-node service over the union of streams —
//! across placements, node losses mid-ingest and mid-query, and rebalances
//! — while scattering opens strictly fewer segments than broadcasting
//! under selective time filters. The `fleet_faults_*` tests are the
//! deterministic kill/recover/rebalance matrix the `fleet-faults` CI job
//! runs per node count; `fleet_failover_soak` is the nightly soak.

mod common;

use proptest::prelude::*;

use common::{config, interleave, service_at};
use focus::cnn::GroundTruthCnn;
use focus::core::fleet::{FleetConfig, FleetCoordinator, FleetError};
use focus::core::service::FocusService;
use focus::core::QueryRequest;
use focus::index::QueryFilter;
use focus::runtime::{Clock, NetCostModel, VirtualClock};
use focus::video::profile::profile_by_name;
use focus::video::VideoDataset;

use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus_fleet_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

fn fleet_with(
    name: &str,
    nodes: usize,
    seal_secs: f64,
    datasets: &[VideoDataset],
) -> (FleetCoordinator, PathBuf) {
    let dir = test_dir(name);
    let mut fleet = FleetCoordinator::create(
        &dir,
        fleet_config(nodes, seal_secs),
        GroundTruthCnn::resnet152(),
    )
    .unwrap();
    for ds in datasets {
        fleet
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    (fleet, dir)
}

/// The single-node twin: one `FocusService` over the union of streams.
fn twin_with(name: &str, seal_secs: f64, datasets: &[VideoDataset]) -> (FocusService, PathBuf) {
    let dir = test_dir(name);
    (service_at(&dir, seal_secs, datasets), dir)
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

    let (mut twin, twin_dir) = twin_with("twin", 6.0, &datasets);
    twin.advance(&frames).unwrap();
    let expected = canonical(&twin.serve(&requests).unwrap());

    for nodes in [1usize, 2, 4] {
        let (mut fleet, dir) = fleet_with(&format!("ident_{nodes}"), nodes, 6.0, &datasets);
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
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&twin_dir).ok();
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

    let (mut fleet, dir) = fleet_with("rebalance_query", 2, 8.0, &datasets);
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
    let (mut twin, twin_dir) = twin_with("rebalance_twin", 8.0, &datasets);
    twin.advance(&frames).unwrap();
    let expected = twin.serve(&requests).unwrap();
    assert_eq!(canonical(&outcomes), canonical(&expected));

    // And the moved shard serves from its new node: a fresh wave still
    // matches (cache-warm on both sides for byte equality).
    let again = fleet.serve(&requests).unwrap();
    let expected_again = twin.serve(&requests).unwrap();
    assert_eq!(canonical(&again), canonical(&expected_again));
    assert_eq!(fleet.stats().rebalances, 1);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
}

/// Satellite: a manifest in which two nodes claim the same segment range
/// (here: the same stream, hence the same shard ranges) is rejected when
/// the coordinator loads it — split-brain placements refuse to start.
#[test]
fn conflicting_segment_range_claims_rejected_at_recover() {
    use focus::core::fleet::{ClusterManifest, ShardAssignment};
    let dir = test_dir("split_brain");
    std::fs::create_dir_all(dir.join("node-0")).unwrap();
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
    let manifest = manifest.seal();
    let json = serde_json::to_string(&manifest).unwrap();
    std::fs::write(dir.join("CLUSTER.json"), &json).unwrap();
    std::fs::write(dir.join("node-0").join("CLUSTER.json"), &json).unwrap();

    let err = FleetCoordinator::recover(&dir, fleet_config(1, 10.0), GroundTruthCnn::resnet152())
        .unwrap_err();
    assert!(
        err.to_string().contains("claimed by two shards"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The wire account is a pure function of the messages' shapes: two fleets
/// fed the same frames and requests report bit-identical `NetStats`.
#[test]
fn identical_fleets_report_identical_net_stats() {
    let secs = 30.0;
    let datasets = workload(secs);
    let frames = interleave(&datasets, 64);
    let requests = request_mix(&datasets, secs);
    let run = |name: &str| {
        let (mut fleet, dir) = fleet_with(name, 2, 6.0, &datasets);
        for chunk in frames.chunks(500) {
            fleet.advance(chunk).unwrap();
        }
        fleet.maintain().unwrap();
        fleet.serve(&requests).unwrap();
        fleet.serve_broadcast(&requests).unwrap();
        let net = fleet.stats().net;
        std::fs::remove_dir_all(&dir).ok();
        net
    };
    let (a, b) = (run("net_a"), run("net_b"));
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
    let (mut fleet, dir) = fleet_with("wire_cost", 2, 6.0, &datasets);
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
    std::fs::remove_dir_all(&dir).ok();
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
    let (mut fleet, dir) = fleet_with("mid_advance", 4, 7.0, &datasets);
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

    let (mut twin, twin_dir) = twin_with("mid_advance_twin", 7.0, &datasets);
    twin.advance(&frames).unwrap();
    assert_eq!(
        canonical(&fleet.serve(&requests).unwrap()),
        canonical(&twin.serve(&requests).unwrap())
    );
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
    let (fleet, dir) = fleet_with(&format!("faults_{nodes}"), nodes, 7.0, &datasets);
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
    let (mut twin, twin_dir) = twin_with(&format!("faults_twin_{nodes}"), 7.0, &datasets);
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
    std::fs::remove_dir_all(&twin_dir).ok();
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
    let (fleet, dir) = fleet_with("soak", 3, 9.0, &datasets);
    let mut fleet = fleet.with_clock(clock.clone());
    let (mut twin, twin_dir) = twin_with("soak_twin", 9.0, &datasets);

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
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
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
        (nodes, seal_secs, cut_fraction, kill_slot, case) in (
            1usize..5,
            5.0f64..12.0,
            0.3f64..0.9,
            // 0..3 kills the node owning that shard slot; 3 = no kill.
            0usize..4,
            0u64..1_000_000,
        )
    ) {
        let secs = 30.0;
        let datasets = workload(secs);
        let frames = interleave(&datasets, 64);
        let requests = request_mix(&datasets, secs);
        let cut = (frames.len() as f64 * cut_fraction) as usize;

        let (mut fleet, dir) =
            fleet_with(&format!("prop_{case}"), nodes, seal_secs, &datasets);
        fleet.advance(&frames[..cut]).unwrap();
        if kill_slot < datasets.len() && nodes > 1 {
            let victim = fleet.manifest().assignments[kill_slot].node;
            fleet.kill_node(victim);
            fleet.failover().unwrap();
        }
        fleet.advance(&frames[cut..]).unwrap();
        let outcomes = fleet.serve(&requests).unwrap();
        let scatter_opened = fleet.stats().reads.segments_opened();

        let (mut twin, twin_dir) =
            twin_with(&format!("prop_twin_{case}"), seal_secs, &datasets);
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
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&twin_dir).ok();
    }
}
