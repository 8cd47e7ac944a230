//! Integration tests for the durable, time-partitioned segment store, all
//! driven through the one durable driver: a [`FocusService`] recovered from
//! disk — the writing service dropped first, nothing carried over but the
//! directory — must answer queries byte-identically to the in-memory
//! reference while opening strictly fewer segments under time filters, and
//! must recover every sealed segment after crashes and corruption.

mod common;

use proptest::prelude::*;

use common::{config, interleave, reference_output, service_at, workload};
use focus::cnn::GroundTruthCnn;
use focus::core::service::{SERVICE_STATE_FILE, SERVICE_STATE_VERSION};
use focus::core::{FocusService, IngestOutput, QueryRequest, QueryServer, ServiceConfig};
use focus::index::persist::{self, PersistError};
use focus::index::{
    binseg, ClusterKey, ClusterRecord, Manifest, MemberRef, QueryFilter, SegmentError, SegmentMeta,
    SegmentStore, TopKIndex,
};
use focus::runtime::{GpuClusterSpec, GpuMeter};
use focus::video::{ClassId, FrameId, ObjectId, StreamId, TrackId, VideoDataset};

use std::path::{Path, PathBuf};

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus_segment_durability_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What a finished, dropped ingest run leaves behind: the directory, plus
/// — for the assertions only, never handed to the serving side — the
/// segments it sealed and the in-memory reference of what it indexed.
struct Archive {
    datasets: Vec<VideoDataset>,
    sealed: Vec<SegmentMeta>,
    reference: IngestOutput,
    dir: PathBuf,
}

/// Replays the two-camera workload through a fixed-model service (frames
/// arriving interleaved in `chunk`-frame runs), seals everything and drops
/// the service.
fn build(name: &str, secs: f64, seal_secs: f64, chunk: usize) -> Archive {
    let datasets = workload(secs);
    let dir = test_dir(name);
    let mut service = service_at(&dir, seal_secs, &datasets);
    service.advance(&interleave(&datasets, chunk)).unwrap();
    service.seal_all().unwrap();
    Archive {
        sealed: service.store().segments().to_vec(),
        reference: reference_output(&service),
        datasets,
        dir,
    }
}

/// The restart: a service recovered from nothing but the directory.
fn recover(dir: &Path, seal_secs: f64) -> (FocusService, focus::index::OpenReport) {
    FocusService::recover(dir, config(seal_secs), GroundTruthCnn::resnet152()).unwrap()
}

/// A cold in-memory server with the GPU cluster of [`config`].
fn server() -> QueryServer {
    QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4))
}

/// Every file in `dir` with its bytes, sorted by name.
fn listing(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
        .collect();
    files.sort();
    files
}

/// Acceptance criterion: time-filtered queries over a recovered store
/// return byte-identical results to the merged in-memory index while
/// opening strictly fewer segments.
#[test]
fn time_filtered_queries_are_identical_and_open_fewer_segments() {
    let archive = build("pruned_query", 60.0, 15.0, 64);
    let (recovered, report) = recover(&archive.dir, 15.0);
    assert!(report.is_clean(), "{report:?}");

    let classes = archive.datasets[0].dominant_classes(3);
    let requests: Vec<QueryRequest> = classes
        .iter()
        .flat_map(|c| {
            [
                QueryRequest::new(*c).with_filter(QueryFilter::any().with_time_range(0.0, 10.0)),
                QueryRequest::new(*c).with_filter(QueryFilter::any().with_time_range(30.0, 44.0)),
                QueryRequest::new(*c),
                QueryRequest::new(*c)
                    .with_filter(QueryFilter::any().with_time_range(10.0, 40.0).with_kx(3)),
            ]
        })
        .collect();

    // The recovered service and the cold in-memory server run the same
    // model on the same candidates: outcomes must serialize
    // byte-identically, accounting fields included.
    let served = recovered.serve(&requests).unwrap();
    let reference = server().serve(&archive.reference, &requests, &GpuMeter::new());
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&reference).unwrap()
    );
    for outcome in &served {
        assert!(!outcome.frames.is_empty() || outcome.confirmed_clusters == 0);
    }

    // Strictly fewer segments opened than the store holds, per query and in
    // total: every time-restricted request above spans at most half the
    // timeline.
    let total_segments = recovered.store().len();
    assert!(total_segments >= 8, "expected a well-segmented store");
    for request in requests.iter().filter(|r| r.filter.time_range.is_some()) {
        let planned = recovered.corpus().plan_with_tail(request, None).unwrap();
        assert!(
            planned.access.segments_considered < total_segments,
            "request {request:?} opened {} of {total_segments}",
            planned.access.segments_considered
        );
    }
    // The service's I/O meter saw the storage work.
    let io = recovered.stats().io;
    assert!(io.segments_opened() > 0);
    assert!(io.blocks_fetched() > 0);
    std::fs::remove_dir_all(&archive.dir).ok();
}

/// Satellite: a bit-flipped segment is detected by its manifest checksum
/// and quarantined on recovery instead of being silently loaded.
#[test]
fn corrupted_segment_is_quarantined_not_loaded() {
    let archive = build("corrupt", 45.0, 15.0, 64);
    let victim = archive.sealed[2].file.clone();
    let path = archive.dir.join(&victim);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let (recovered, report) = recover(&archive.dir, 15.0);
    assert_eq!(report.quarantined, vec![victim.clone()]);
    assert!(archive.dir.join(format!("{victim}.quarantined")).exists());
    let store = recovered.store();
    assert_eq!(store.len(), archive.sealed.len() - 1);
    // The survivors are exactly the other segments' records.
    let mut expected = TopKIndex::new();
    for meta in archive.sealed.iter().filter(|m| m.file != victim) {
        let loaded = store.load(meta.id).unwrap();
        assert_eq!(expected.merge_from(&loaded), 0);
    }
    assert_eq!(
        persist::to_json(&store.merged_index().unwrap()).unwrap(),
        persist::to_json(&expected).unwrap()
    );
    std::fs::remove_dir_all(&archive.dir).ok();
}

/// Acceptance criterion: a kill between the two-step write (segment file,
/// then manifest) loses nothing that was acknowledged — every manifested
/// segment is recovered, the half-written temp file is swept, and the
/// unacknowledged orphan is quarantined rather than trusted.
#[test]
fn kill_between_writes_recovers_every_sealed_segment() {
    let archive = build("crash", 45.0, 15.0, 64);
    let dir = &archive.dir;
    let sealed_json = persist::to_json(&archive.reference.index).unwrap();

    // Crash A: killed mid-segment-write — a partial temp file remains.
    std::fs::write(dir.join("seg-000099.json.tmp"), b"{\"version\":1,\"ind").unwrap();
    // Crash B: killed after the segment rename but before the manifest
    // update — a complete, valid-looking segment the manifest never saw.
    let orphan_payload = persist::to_json(&TopKIndex::new()).unwrap();
    std::fs::write(dir.join("seg-000098.json"), orphan_payload).unwrap();

    let (recovered, report) = recover(dir, 15.0);
    assert_eq!(report.removed_temp, vec!["seg-000099.json.tmp".to_string()]);
    assert_eq!(report.quarantined, vec!["seg-000098.json".to_string()]);
    assert!(report.missing.is_empty());
    // Every sealed segment is back, byte-identically.
    assert_eq!(recovered.store().len(), archive.sealed.len());
    assert_eq!(
        persist::to_json(&recovered.store().merged_index().unwrap()).unwrap(),
        sealed_json
    );
    // And the repaired store recovers clean the next time.
    drop(recovered);
    let (_, report) = recover(dir, 15.0);
    assert!(report.is_clean(), "{report:?}");
    std::fs::remove_dir_all(dir).ok();
}

/// Satellite: `recover` refuses before it repairs. A sealed store whose
/// `service_state.json` is missing, malformed or of another version is
/// refused with a typed error naming the sidecar, and the refusal touches
/// nothing — in particular the stray temp file `SegmentStore::open` would
/// sweep is still there.
#[test]
fn recover_refuses_a_bad_sidecar_and_leaves_the_store_untouched() {
    let archive = build("refuse", 30.0, 10.0, 64);
    let dir = &archive.dir;
    let sidecar = dir.join(SERVICE_STATE_FILE);
    let valid = std::fs::read_to_string(&sidecar).unwrap();
    // Bait for the open-time sweep, should it run before the refusal.
    std::fs::write(dir.join("seg-000099.bin.tmp"), b"partial").unwrap();

    let version = format!("\"version\":{SERVICE_STATE_VERSION}");
    assert!(valid.contains(&version), "{valid}");
    let bumped = valid.replace(
        &version,
        &format!("\"version\":{}", SERVICE_STATE_VERSION + 1),
    );
    type Expected = fn(&PersistError) -> bool;
    let cases: [(Option<&str>, Expected); 3] = [
        (None, |e| matches!(e, PersistError::Io { .. })),
        (Some("not json"), |e| {
            matches!(e, PersistError::Format { .. })
        }),
        (Some(&bumped), |e| {
            matches!(e, PersistError::VersionMismatch { .. })
        }),
    ];
    for (content, is_expected) in cases {
        match content {
            None => std::fs::remove_file(&sidecar).unwrap(),
            Some(text) => std::fs::write(&sidecar, text).unwrap(),
        }
        let before = listing(dir);
        let Err(SegmentError::Persist(e)) =
            FocusService::recover(dir, config(10.0), GroundTruthCnn::resnet152())
        else {
            panic!("a directory with sidecar {content:?} must be refused");
        };
        assert!(is_expected(&e), "sidecar {content:?}: {e:?}");
        assert_eq!(e.path(), Some(sidecar.as_path()), "{e}");
        assert_eq!(listing(dir), before, "sidecar {content:?}");
    }

    // With the sidecar back the same directory recovers (and only now is
    // the temp file swept).
    std::fs::write(&sidecar, valid).unwrap();
    let (recovered, report) = recover(dir, 10.0);
    assert_eq!(report.removed_temp, vec!["seg-000099.bin.tmp".to_string()]);
    assert_eq!(recovered.store().len(), archive.sealed.len());
    std::fs::remove_dir_all(dir).ok();
}

/// Satellite: a sealed cluster whose centroid observation is in no
/// centroid delta — here one seal's delta file is gone — cannot be
/// verified, so `recover` refuses the store with a typed error naming that
/// cluster, and the refusal changes no file.
#[test]
fn recover_refuses_a_sealed_cluster_without_a_centroid_and_changes_nothing() {
    let archive = build("missing_centroid", 30.0, 10.0, 64);
    let dir = &archive.dir;
    // Seal k writes delta k and then segment id k; drop the second seal's
    // delta. The refusal names the smallest key of that segment.
    let victim = archive.sealed.iter().find(|m| m.id == 1).unwrap();
    let expected = {
        let (reader, _) = SegmentStore::open(dir).unwrap();
        let segment = reader.load(victim.id).unwrap();
        segment.clusters().map(|r| r.key).min().unwrap()
    };
    std::fs::remove_file(dir.join("centroids-000001.json")).unwrap();

    let before = listing(dir);
    match FocusService::recover(dir, config(10.0), GroundTruthCnn::resnet152()) {
        Err(SegmentError::Persist(PersistError::Io { path, source })) => {
            assert_eq!(&path, dir);
            assert_eq!(source.kind(), std::io::ErrorKind::InvalidData);
            let message = source.to_string();
            assert!(
                message.contains(&format!("sealed cluster {expected:?} has no centroid")),
                "{message}"
            );
        }
        other => panic!("expected a missing-centroid refusal, got {other:?}"),
    }
    assert_eq!(listing(dir), before);
    std::fs::remove_dir_all(dir).ok();
}

/// Satellite: recovery leaves the store warm — every segment of a store
/// smaller than the decoded tier resident as a whole index, so an
/// unfiltered lookup reads no block from disk — while a plain
/// `SegmentStore::open` leaves the cache cold.
#[test]
fn recover_leaves_a_small_store_resident_and_plain_open_leaves_it_cold() {
    let archive = build("warm_set", 45.0, 10.0, 64);
    let class = archive.datasets[0].dominant_classes(1)[0];

    let (recovered, _) = recover(&archive.dir, 10.0);
    let store = recovered.store();
    assert!(store.len() >= 4, "expected a segmented store");
    let occupancy = store.cache_occupancy();
    assert!(store.len() <= occupancy.capacity);
    assert_eq!(occupancy.occupancy, store.len());
    let lookup = store.lookup(class, &QueryFilter::any()).unwrap();
    assert!(!lookup.records.is_empty());
    assert_eq!(lookup.access.blocks_read, 0, "{:?}", lookup.access);
    assert_eq!(lookup.access.cold_loads, 0, "{:?}", lookup.access);
    drop(recovered);

    let (plain, report) = SegmentStore::open(&archive.dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(plain.cache_occupancy().occupancy, 0);
    assert!(
        plain
            .lookup(class, &QueryFilter::any())
            .unwrap()
            .access
            .blocks_read
            > 0
    );
    std::fs::remove_dir_all(&archive.dir).ok();
}

/// Satellite: a store from before binary became the only segment format —
/// its manifest lists a `"format":"Json"` segment or, older still, carries
/// no format tag at all — is refused with a typed error naming the
/// manifest, and the refusal touches nothing: no sweep of the stray temp
/// file, no quarantine, no manifest rewrite.
#[test]
fn legacy_json_manifests_are_refused_and_the_store_left_untouched() {
    let mut index = TopKIndex::new();
    index.insert(ClusterRecord {
        key: ClusterKey::new(StreamId(0), 0),
        centroid_object: ObjectId(0),
        centroid_frame: FrameId(0),
        top_k_classes: vec![ClassId(7)],
        members: Vec::new(),
        start_secs: 0.0,
        end_secs: 5.0,
    });
    let segment = persist::to_json(&index).unwrap();
    let checksum = focus::index::manifest::fnv1a64(segment.as_bytes());

    for (name, tag) in [("tagged", ",\"format\":\"Json\""), ("untagged", "")] {
        let dir = test_dir(&format!("legacy_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-000000.json"), &segment).unwrap();
        let manifest = dir.join("MANIFEST.json");
        let entry = format!(
            "{{\"id\":0,\"file\":\"seg-000000.json\",\"t_start\":0.0,\"t_end\":5.0,\
             \"streams\":[0],\"clusters\":1,\"checksum\":{checksum}{tag}}}"
        );
        let json = format!("{{\"version\":1,\"next_segment_id\":1,\"segments\":[{entry}]}}");
        std::fs::write(&manifest, json).unwrap();
        // A valid sidecar, so `recover` gets as far as the manifest.
        let sidecar = format!("{{\"version\":{SERVICE_STATE_VERSION},\"streams\":[[0,30]]}}");
        std::fs::write(dir.join(SERVICE_STATE_FILE), sidecar).unwrap();
        // Bait for the open-time sweep, should it ever run.
        std::fs::write(dir.join("seg-000001.bin.tmp"), b"partial").unwrap();
        let before = listing(&dir);

        let gt = GroundTruthCnn::resnet152();
        for refused in [
            Manifest::load(&manifest).map(|_| ()).map_err(Into::into),
            SegmentStore::open(&dir).map(|_| ()),
            FocusService::recover(&dir, ServiceConfig::default(), gt).map(|_| ()),
        ] {
            match refused {
                Err(SegmentError::Persist(e @ PersistError::Format { .. })) => {
                    assert_eq!(e.path(), Some(manifest.as_path()), "{e}")
                }
                other => panic!("expected a manifest format error, got {other:?}"),
            }
        }
        assert_eq!(listing(&dir), before);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Satellite regression: a bit flipped inside a binary record block after
/// the store was opened fails that block's checksum at lookup time (the
/// whole-file manifest checksum never re-runs on the block path), and the
/// next open quarantines the segment through the usual report machinery.
#[test]
fn bit_flipped_binary_block_fails_block_checksum_at_lookup() {
    let archive = build("block_corrupt", 45.0, 15.0, 64);
    let dir = &archive.dir;
    let victim = archive.sealed[1].clone();

    // The class held by the victim's first record block, discovered via a
    // scratch handle so the store under test caches nothing.
    let first_class = {
        let (scratch, _) = SegmentStore::open(dir).unwrap();
        let segment = scratch.load(victim.id).unwrap();
        segment
            .clusters()
            .min_by_key(|r| r.key)
            .expect("sealed segments are never empty")
            .top_k_classes[0]
    };

    let (store, report) = SegmentStore::open(dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    // Flip one bit inside the first record block (just past the magic).
    let path = dir.join(&victim.file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[6] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let err = store.lookup(first_class, &QueryFilter::any()).unwrap_err();
    assert!(matches!(err, SegmentError::Corrupt { .. }), "{err:?}");

    // Same detection, same quarantine machinery on the next open.
    drop(store);
    let (reopened, report) = SegmentStore::open(dir).unwrap();
    assert_eq!(report.quarantined, vec![victim.file.clone()]);
    assert_eq!(reopened.len(), archive.sealed.len() - 1);
    std::fs::remove_dir_all(dir).ok();
}

/// Compaction folds small adjacent segments without changing query results.
#[test]
fn compaction_preserves_query_results() {
    let archive = build("compact", 60.0, 10.0, 64);
    let class = archive.datasets[0].dominant_classes(1)[0];
    let requests = vec![
        QueryRequest::new(class),
        QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(0.0, 25.0)),
    ];
    let reference =
        serde_json::to_string(&server().serve(&archive.reference, &requests, &GpuMeter::new()))
            .unwrap();

    // An aggressive trigger, so one maintenance tick compacts.
    let compacting = ServiceConfig {
        small_segment_clusters: 1_000,
        compact_small_threshold: 2,
        compact_max_clusters: 200,
        ..config(10.0)
    };
    let recover_compacting = || {
        FocusService::recover(
            &archive.dir,
            compacting.clone(),
            GroundTruthCnn::resnet152(),
        )
        .unwrap()
        .0
    };
    let mut recovered = recover_compacting();
    let before_segments = recovered.store().len();
    let before = recovered.serve(&requests).unwrap();
    assert_eq!(serde_json::to_string(&before).unwrap(), reference);

    let folded = recovered.maintain().unwrap().segments_folded;
    assert!(folded > 0, "expected the 10-second segments to fold");
    assert!(recovered.store().len() < before_segments);

    // A restart over the compacted layout serves cold: the accounting
    // fields must match too, not just the result sets.
    drop(recovered);
    let after = recover_compacting().serve(&requests).unwrap();
    assert_eq!(serde_json::to_string(&after).unwrap(), reference);
    std::fs::remove_dir_all(&archive.dir).ok();
}

/// Satellite regression: a frame landing exactly on a
/// [`SealPolicy::every_secs`](focus::core::SealPolicy::every_secs) boundary
/// must land in exactly one segment — no duplicate, no drop. The boundary
/// frame starts the *next* segment: its timestamp equals the new segment's
/// `t_start`.
#[test]
fn seal_boundary_frame_lands_in_exactly_one_segment() {
    // 30 s at a 10-s budget: boundary frames sit exactly at t = 10 and
    // t = 20 (frame ids fps*10 and fps*20, both exactly representable).
    let budget = 10.0;
    let archive = build("boundary", 30.0, budget, 64);
    let (recovered, _) = recover(&archive.dir, budget);
    let store = recovered.store();

    // Every object of the workload is a member of exactly one sealed
    // record: totals match and no member object id repeats.
    let mut member_objects = Vec::new();
    for meta in store.segments() {
        let segment = store.load(meta.id).unwrap();
        for record in segment.clusters() {
            member_objects.extend(record.members.iter().map(|m| m.object));
        }
    }
    let total = member_objects.len();
    assert_eq!(
        total,
        archive
            .datasets
            .iter()
            .map(|d| d.object_count())
            .sum::<usize>(),
        "every frame's objects sealed exactly once"
    );
    member_objects.sort();
    member_objects.dedup();
    assert_eq!(total, member_objects.len(), "no duplicates");

    // The boundary frame belongs to the segment that *starts* at the
    // boundary, for every stream that has motion in that frame.
    for ds in &archive.datasets {
        let fps = ds.profile.fps;
        for boundary in [budget, 2.0 * budget] {
            let boundary_frame = FrameId((boundary * fps as f64) as u64);
            let with_objects = ds
                .frames
                .iter()
                .find(|f| f.frame_id == boundary_frame)
                .map(|f| !f.objects.is_empty())
                .unwrap_or(false);
            if !with_objects {
                continue;
            }
            let mut holders = Vec::new();
            for meta in store.segments() {
                let segment = store.load(meta.id).unwrap();
                let members: usize = segment
                    .clusters()
                    .filter(|r| r.key.stream == ds.profile.stream_id)
                    .flat_map(|r| r.members.iter())
                    .filter(|m| m.frame == boundary_frame)
                    .count();
                if members > 0 {
                    holders.push((meta.t_start, members));
                }
            }
            assert_eq!(
                holders.len(),
                1,
                "boundary frame {boundary_frame:?} in one segment"
            );
            // It opens the next window: the holding segment starts at
            // the boundary.
            assert!(
                (holders[0].0 - boundary).abs() < 1e-9,
                "boundary frame starts the next segment \
                 (t_start = {}, boundary = {boundary})",
                holders[0].0
            );
        }
    }
    std::fs::remove_dir_all(&archive.dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Satellite: arbitrary seal boundaries never change query results —
    /// for any (duration, seal budget, arrival-interleave chunk), serving
    /// from the recovered store is byte-identical to serving over the
    /// merged in-memory index, filtered and unfiltered.
    #[test]
    fn arbitrary_seal_boundaries_never_change_query_results(
        (secs, budget_secs, chunk, case) in (
            20.0f64..40.0,
            3.0f64..20.0,
            prop_oneof![Just(1usize), Just(17), Just(256)],
            0u64..1_000_000,
        )
    ) {
        let archive = build(&format!("proptest_{case}_{chunk}"), secs, budget_secs, chunk);
        let (recovered, _) = recover(&archive.dir, budget_secs);

        let class = archive.datasets[0].dominant_classes(1)[0];
        let half = secs / 2.0;
        let requests = vec![
            QueryRequest::new(class),
            QueryRequest::new(class)
                .with_filter(QueryFilter::any().with_time_range(0.0, half)),
            QueryRequest::new(class)
                .with_filter(QueryFilter::any().with_time_range(half, secs).with_kx(3)),
        ];
        let served = recovered.serve(&requests).unwrap();
        let reference = server().serve(&archive.reference, &requests, &GpuMeter::new());
        prop_assert_eq!(
            serde_json::to_string(&served).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        std::fs::remove_dir_all(&archive.dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Satellite: the binary segment codec round-trips *arbitrary* indexes
    /// to canonical-JSON byte identity — including empty indexes, records
    /// with empty top-K lists (no postings entry anywhere), single-class
    /// segments, and key gaps far beyond one delta block's span — and
    /// re-encoding the decoded index reproduces the exact bytes.
    #[test]
    fn binseg_roundtrip_is_byte_identical_for_arbitrary_indexes(
        parts in prop::collection::vec(
            (
                (
                    0u64..3,                                // stream
                    prop_oneof![                            // key gap: small,
                        1u64..1000,                         // beyond one block's
                        (1u64 << 32)..(1u64 << 32) + 2,     // span, and near the
                        (1u64 << 57)..(1u64 << 57) + 2,     // top of the space
                    ],
                    0u64..u64::MAX,                         // centroid object
                    0u64..u64::MAX,                         // centroid frame
                ),
                (
                    prop::collection::vec(0u64..50, 0..5),  // top-K classes
                    prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..4),
                    -1.0e9f64..1.0e9,                       // start_secs
                    0.0f64..1.0e6,                          // duration
                ),
            ),
            0..60,
        ),
        single_class in 0u64..2,
    ) {
        let single_class = single_class == 1;
        let mut index = TopKIndex::new();
        let mut local = 0u64;
        for ((stream, gap, object, frame), (classes, members, start, duration)) in parts {
            local += gap;
            // A ranked top-K list never repeats a class; duplicates would
            // double-post the key, which the postings codec rejects.
            let mut top_k_classes: Vec<ClassId> = if single_class {
                vec![ClassId(7)]
            } else {
                classes.into_iter().map(|c| ClassId(c as u16)).collect()
            };
            let mut seen = std::collections::HashSet::new();
            top_k_classes.retain(|c| seen.insert(*c));
            index.insert(ClusterRecord {
                key: ClusterKey::new(StreamId(stream as u32), local),
                centroid_object: ObjectId(object),
                centroid_frame: FrameId(frame),
                top_k_classes,
                members: members
                    .into_iter()
                    .map(|(o, f)| MemberRef {
                        object: ObjectId(o),
                        frame: FrameId(f),
                        track: TrackId(o % 7),
                    })
                    .collect(),
                start_secs: start,
                end_secs: start + duration,
            });
        }
        let bytes = binseg::encode(&index);
        let decoded = binseg::decode(&bytes).unwrap();
        prop_assert_eq!(
            persist::to_json(&index).unwrap(),
            persist::to_json(&decoded).unwrap()
        );
        // Deterministic codec: re-encoding reproduces the bytes exactly.
        prop_assert_eq!(bytes, binseg::encode(&decoded));
    }
}
