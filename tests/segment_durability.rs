//! Integration tests for the durable, time-partitioned segment store, all
//! driven through the one durable driver: a [`FocusService`] recovered from
//! disk — the writing service dropped first, nothing carried over but the
//! directory — must answer queries byte-identically to the in-memory
//! reference while opening strictly fewer segments under time filters, and
//! must recover every sealed segment after crashes and corruption.

mod common;

use proptest::prelude::*;

use common::{
    config, interleave, reference_output, reference_serve, service_at, test_dir, workload,
};
use focus::cnn::GroundTruthCnn;
use focus::core::fleet::{FleetConfig, FleetCoordinator};
use focus::core::service::{SERVICE_STATE_FILE, SERVICE_STATE_VERSION};
use focus::core::{FocusService, QueryRequest, ServiceConfig};
use focus::index::persist::{self, PersistError};
use focus::index::{
    binseg, BinsegError, ClusterKey, ClusterRecord, Fs, Manifest, MemFs, MemberRef, OsFs,
    QueryFilter, SegmentError, SegmentMeta, SegmentStore, TopKIndex,
};
use focus::video::{
    Appearance, BoundingBox, ClassId, FrameId, ObjectId, ObjectObservation, StreamId, TrackId,
    VideoDataset,
};

use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What a finished, dropped ingest run leaves behind: the directory, plus
/// — for the assertions only, never handed to the serving side — the
/// segments it sealed and the in-memory reference of what it indexed.
struct Archive {
    datasets: Vec<VideoDataset>,
    sealed: Vec<SegmentMeta>,
    reference: TopKIndex,
    dir: PathBuf,
}

/// Replays the two-camera workload through a fixed-model service (frames
/// arriving interleaved in `chunk`-frame runs), seals everything and drops
/// the service.
fn build(name: &str, secs: f64, seal_secs: f64, chunk: usize) -> Archive {
    let datasets = workload(secs);
    let dir = test_dir(name);
    let mut service = service_at(Arc::new(OsFs), &dir, seal_secs, &datasets);
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

/// Every directory and file below `root` on `fs`, as its path below
/// `root` and its bytes (`None` for a directory), sorted.
fn tree(fs: &dyn Fs, root: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    let mut entries = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for path in fs.list(&dir).unwrap() {
            let below = path.strip_prefix(root).unwrap().to_path_buf();
            if fs.list(&path).is_ok() {
                entries.push((below, None));
                dirs.push(path);
            } else {
                entries.push((below, Some(fs.read(&path).unwrap())));
            }
        }
    }
    entries.sort();
    entries
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
    let reference = reference_serve(&archive.reference, &requests);
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
    // The service's read account saw the storage work.
    let io = recovered.stats().io;
    assert!(io.segments_opened() > 0);
    assert!(io.blocks_read + io.block_raw_hits + io.block_hits > 0);
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
    let sealed_json = persist::to_json(&archive.reference).unwrap();

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
/// `service_state.json` is missing, malformed (nested 100,000 deep
/// included) or of another version is
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
    // Nested past the JSON parser's limit of 128, and deep enough to
    // overflow the stack of a parser without one.
    let deep = "[".repeat(100_000);
    type Expected = fn(&PersistError) -> bool;
    let cases: [(Option<&str>, Expected); 4] = [
        (None, |e| matches!(e, PersistError::Io { .. })),
        (Some("not json"), |e| {
            matches!(e, PersistError::Format { .. })
        }),
        (Some(&deep), |e| e.to_string().contains("recursion limit")),
        (Some(&bumped), |e| {
            matches!(e, PersistError::VersionMismatch { .. })
        }),
    ];
    for (content, is_expected) in cases {
        match content {
            None => std::fs::remove_file(&sidecar).unwrap(),
            Some(text) => std::fs::write(&sidecar, text).unwrap(),
        }
        let before = tree(&OsFs, dir);
        let Err(SegmentError::Persist(e)) =
            FocusService::recover(dir, config(10.0), GroundTruthCnn::resnet152())
        else {
            panic!("a directory with sidecar {content:?} must be refused");
        };
        assert!(is_expected(&e), "sidecar {content:?}: {e:?}");
        assert_eq!(e.path(), Some(sidecar.as_path()), "{e}");
        assert_eq!(tree(&OsFs, dir), before, "sidecar {content:?}");
    }

    // With the sidecar back the same directory recovers (and only now is
    // the temp file swept).
    std::fs::write(&sidecar, valid).unwrap();
    let (recovered, report) = recover(dir, 10.0);
    assert_eq!(report.removed_temp, vec!["seg-000099.bin.tmp".to_string()]);
    assert_eq!(recovered.store().len(), archive.sealed.len());
    std::fs::remove_dir_all(dir).ok();
}

/// A sidecar that lists one stream twice passes the version check but
/// would register the stream twice; `recover` refuses it with a typed
/// error before the open repairs anything, and the refusal changes no file.
#[test]
fn recover_refuses_a_sidecar_listing_a_stream_twice_and_changes_nothing() {
    let archive = build("stream_twice", 30.0, 10.0, 64);
    let dir = &archive.dir;
    let sidecar = dir.join(SERVICE_STATE_FILE);
    let valid = std::fs::read_to_string(&sidecar).unwrap();
    let profile = &archive.datasets[0].profile;
    let doubled = valid.replacen(
        "\"streams\":[",
        &format!("\"streams\":[[{},{}],", profile.stream_id.0, profile.fps),
        1,
    );
    assert_ne!(doubled, valid, "{valid}");
    std::fs::write(&sidecar, doubled).unwrap();
    // Bait for the open-time sweep, should it run before the refusal.
    std::fs::write(dir.join("seg-000099.bin.tmp"), b"partial").unwrap();

    let before = tree(&OsFs, dir);
    match FocusService::recover(dir, config(10.0), GroundTruthCnn::resnet152()) {
        Err(SegmentError::StreamRegistered { stream }) => assert_eq!(stream, profile.stream_id),
        other => panic!("expected StreamRegistered, got {other:?}"),
    }
    assert_eq!(tree(&OsFs, dir), before);
    std::fs::remove_dir_all(dir).ok();
}

/// Replaces `meta`'s segment file with `bytes` and points its manifest
/// entry's checksum at them, so the store's whole-file check passes: the
/// live list, so edited, becomes the checkpoint, and the log is emptied.
fn rewrite_segment(dir: &Path, meta: &SegmentMeta, bytes: &[u8]) {
    std::fs::write(dir.join(&meta.file), bytes).unwrap();
    let (mut manifest, _) = Manifest::load_live(&OsFs, dir).unwrap();
    let entry = manifest.segments.iter_mut().find(|m| m.id == meta.id);
    entry.unwrap().checksum = focus::index::manifest::fnv1a64(bytes);
    manifest.save(&OsFs, &dir.join("MANIFEST.json")).unwrap();
    std::fs::write(dir.join("MANIFEST.log"), b"").unwrap();
}

/// Satellite: a segment whose centroid block lacks one record's centroid
/// — every checksum valid — cannot be verified at query time, so `recover`
/// refuses the store with a typed error naming that cluster (and a plain
/// open's `load` refuses the segment the same way), and the refusal
/// changes no file.
#[test]
fn recover_refuses_a_sealed_cluster_without_a_centroid_and_changes_nothing() {
    let archive = build("missing_centroid", 30.0, 10.0, 64);
    let dir = &archive.dir;
    let victim = archive.sealed.iter().find(|m| m.id == 1).unwrap();
    let segment = SegmentStore::open(dir).unwrap().0.load(victim.id).unwrap();
    let expected = segment.clusters().map(|r| r.key).min().unwrap();
    let orphan = segment.get(expected).unwrap().centroid_object;
    // The same segment, minus that record's centroid observation.
    let mut damaged = TopKIndex::new();
    for record in segment.clusters() {
        damaged.insert(record.clone());
    }
    for sketch in segment.sketches() {
        damaged.insert_sketch(sketch.clone());
    }
    for observation in segment.centroids().filter(|o| o.object_id != orphan) {
        damaged.insert_centroid(observation.clone());
    }
    rewrite_segment(dir, victim, &binseg::encode(&damaged));
    // A plain open checks no centroid: lookups never read them.
    let (store, report) = SegmentStore::open(dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    // Bait for the open-time sweep, should it run before the refusal.
    std::fs::write(dir.join("seg-000099.bin.tmp"), b"partial").unwrap();

    let before = tree(&OsFs, dir);
    let path = dir.join(&victim.file);
    for refused in [
        store.load(victim.id).map(|_| ()),
        FocusService::recover(dir, config(10.0), GroundTruthCnn::resnet152()).map(|_| ()),
    ] {
        match refused {
            Err(SegmentError::InvalidSegment {
                path: at,
                source: BinsegError::MissingCentroid(key),
            }) => assert_eq!((at, key), (path.clone(), expected)),
            other => panic!("expected a missing-centroid refusal, got {other:?}"),
        }
    }
    assert_eq!(tree(&OsFs, dir), before);
    std::fs::remove_dir_all(dir).ok();
}

/// Satellite: a store in the layout from before segments held their
/// centroids — `FSG2` segments beside per-seal `centroids-NNNNNN.json`
/// deltas — is refused by `SegmentStore::open` and by `recover` with a
/// typed error naming the segment, and the refusal changes no file.
#[test]
fn a_store_in_the_old_layout_is_refused_and_left_untouched() {
    let archive = build("old_layout", 20.0, 10.0, 64);
    let dir = &archive.dir;
    let victim = &archive.sealed[0];
    let path = dir.join(&victim.file);
    let mut bytes = std::fs::read(&path).unwrap();
    let end = bytes.len();
    bytes[..4].copy_from_slice(b"FSG2");
    bytes[end - 4..].copy_from_slice(b"FSG2");
    rewrite_segment(dir, victim, &bytes);
    let delta = "{\"version\":1,\"centroids\":[]}";
    std::fs::write(dir.join("centroids-000000.json"), delta).unwrap();
    std::fs::write(dir.join("seg-000099.bin.tmp"), b"partial").unwrap();

    let before = tree(&OsFs, dir);
    let gt = GroundTruthCnn::resnet152();
    for refused in [
        SegmentStore::open(dir).map(|_| ()),
        FocusService::recover(dir, config(10.0), gt).map(|_| ()),
    ] {
        match refused {
            Err(SegmentError::InvalidSegment {
                path: at,
                source: BinsegError::UnsupportedVersion(magic),
            }) => assert_eq!((at, magic), (path.clone(), *b"FSG2")),
            other => panic!("expected an unsupported-version refusal, got {other:?}"),
        }
    }
    assert_eq!(tree(&OsFs, dir), before);
    std::fs::remove_dir_all(dir).ok();
}

/// Satellite: `seal` refuses an index holding a record without its
/// centroid observation, with a typed error naming the key, before it
/// writes anything: no file appears and the manifest is unchanged.
#[test]
fn seal_refuses_a_record_without_a_centroid_and_writes_nothing() {
    let dir = test_dir("seal_missing_centroid");
    let mut store = SegmentStore::create(&dir).unwrap();
    let record = |local: u64| ClusterRecord {
        key: ClusterKey::new(StreamId(0), local),
        centroid_object: ObjectId(local),
        centroid_frame: FrameId(local),
        top_k_classes: vec![ClassId(7)],
        members: Vec::new(),
        start_secs: local as f64,
        end_secs: local as f64 + 1.0,
    };
    let centroid = |local: u64| ObjectObservation {
        object_id: ObjectId(local),
        ..ObjectObservation::default()
    };
    let mut valid = TopKIndex::new();
    valid.insert(record(0));
    valid.insert_centroid(centroid(0));
    store.seal(&valid).unwrap().unwrap();

    let mut index = TopKIndex::new();
    for local in [1, 2, 3] {
        index.insert(record(local));
    }
    index.insert_centroid(centroid(1));
    let before = tree(&OsFs, &dir);
    let live = store.segments().to_vec();
    match store.seal(&index) {
        Err(SegmentError::InvalidSegment {
            source: BinsegError::MissingCentroid(key),
            ..
        }) => assert_eq!(key, ClusterKey::new(StreamId(0), 2)),
        other => panic!("expected a missing-centroid refusal, got {other:?}"),
    }
    assert_eq!(tree(&OsFs, &dir), before);
    assert_eq!(store.segments(), &live[..]);
    // The store still seals: the refused index left no gap behind.
    index.insert_centroid(centroid(2));
    index.insert_centroid(centroid(3));
    let meta = store.seal(&index).unwrap().unwrap();
    assert_eq!(meta.file, "seg-000001.bin");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a segment holds its own centroids, so after `seal_all` a
/// service directory holds the manifest (its checkpoint and its log), the
/// sidecar and one file per segment — nothing else.
#[test]
fn a_sealed_service_directory_holds_only_the_manifest_sidecar_and_segments() {
    let archive = build("directory_contents", 30.0, 10.0, 64);
    let names: Vec<String> = tree(&OsFs, &archive.dir)
        .into_iter()
        .map(|(name, _)| name.display().to_string())
        .collect();
    let mut expected: Vec<String> = archive.sealed.iter().map(|m| m.file.clone()).collect();
    expected.extend(["MANIFEST.json", "MANIFEST.log", SERVICE_STATE_FILE].map(String::from));
    expected.sort();
    assert_eq!(names, expected);
    assert!(archive.sealed.iter().all(|m| m.file.ends_with(".bin")));
    std::fs::remove_dir_all(&archive.dir).ok();
}

/// The whole system writes the same bytes through `OsFs` and `MemFs`: a
/// two-camera service (interleaved, sealing every 10 s, `advance` and
/// `maintain`, `seal_all`, then `recover`) and a 2-node fleet over the same
/// frames that rebalances shard 0 leave byte-identical trees — every
/// directory, every file name and every file's bytes.
#[test]
fn os_fs_and_mem_fs_write_byte_identical_trees_for_a_service_and_a_fleet() {
    let datasets = workload(40.0);
    let frames = interleave(&datasets, 64);
    let run = |fs: Arc<dyn Fs>, root: &Path| {
        let dir = root.join("service");
        let mut service = service_at(Arc::clone(&fs), &dir, 10.0, &datasets);
        let (first, rest) = frames.split_at(frames.len() / 2);
        for part in [first, rest] {
            service.advance(part).unwrap();
            service.maintain().unwrap();
        }
        service.seal_all().unwrap();
        drop(service);
        let gt = GroundTruthCnn::resnet152();
        let (_, report) =
            FocusService::recover_with(Arc::clone(&fs), &dir, config(10.0), gt).unwrap();
        assert!(report.is_clean(), "{report:?}");

        let fleet_config = FleetConfig {
            nodes: 2,
            service: config(10.0),
            ..FleetConfig::default()
        };
        let gt = GroundTruthCnn::resnet152();
        let mut fleet =
            FleetCoordinator::create_with(fs.clone(), root.join("fleet"), fleet_config, gt)
                .unwrap();
        for ds in &datasets {
            fleet
                .register_stream(ds.profile.stream_id, ds.profile.fps)
                .unwrap();
        }
        fleet.advance(&frames).unwrap();
        let moved = fleet.manifest().assignments[0].clone();
        fleet.rebalance(moved.shard, (moved.node + 1) % 2).unwrap();
        tree(&*fs, root)
    };
    let os_root = test_dir("os_vs_mem");
    let on_disk = run(Arc::new(OsFs), &os_root);
    let in_memory = run(Arc::new(MemFs::default()), Path::new("/mem"));
    let names: Vec<&PathBuf> = on_disk.iter().map(|(path, _)| path).collect();
    assert_eq!(
        names,
        in_memory.iter().map(|(path, _)| path).collect::<Vec<_>>()
    );
    for ((path, disk), (_, memory)) in on_disk.iter().zip(&in_memory) {
        assert!(disk == memory, "{} differs", path.display());
    }
    // Both stores, the fleet's replicas, both shards and the segment the
    // rebalance sealed are compared.
    for written in [
        "service/service_state.json",
        "fleet/node-1/CLUSTER.json",
        "fleet/shard-0000/seg-000003.bin",
        "fleet/shard-0001/MANIFEST.json",
    ] {
        assert!(names.contains(&&PathBuf::from(written)), "{written}");
    }
    std::fs::remove_dir_all(&os_root).ok();
}

/// Satellite: recovery leaves the store warm — every block of a store
/// smaller than the decoded tier resident, so an unfiltered lookup reads no
/// block from disk — while a plain `SegmentStore::open` leaves the cache
/// cold.
#[test]
fn recover_leaves_a_small_store_resident_and_plain_open_leaves_it_cold() {
    let archive = build("warm_set", 45.0, 10.0, 64);
    let class = archive.datasets[0].dominant_classes(1)[0];
    // What every block of every segment weighs: its encoded length.
    let store_bytes: u64 = archive
        .sealed
        .iter()
        .map(|meta| {
            let footer =
                binseg::footer_of(&std::fs::read(archive.dir.join(&meta.file)).unwrap()).unwrap();
            let records = footer.record_blocks.iter().map(|b| b.block.len);
            let postings = footer.postings.iter().map(|b| b.block.len);
            let tracks = footer.tracks.iter().map(|b| b.len);
            records.chain(postings).chain(tracks).sum::<u64>()
        })
        .sum();

    let (recovered, _) = recover(&archive.dir, 10.0);
    let store = recovered.store();
    assert!(store.len() >= 4, "expected a segmented store");
    let occupancy = store.cache_occupancy();
    assert!(store_bytes <= occupancy.decoded_capacity_bytes);
    assert_eq!(occupancy.decoded_occupancy_bytes, store_bytes);
    assert_eq!(occupancy.raw_occupancy_bytes, 0);
    let lookup = store.lookup(class, &QueryFilter::any()).unwrap();
    assert!(!lookup.records.is_empty());
    assert_eq!(lookup.access.blocks_read, 0, "{:?}", lookup.access);
    assert_eq!(lookup.access.cold_loads, 0, "{:?}", lookup.access);
    drop(recovered);

    let (plain, report) = SegmentStore::open(&archive.dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let occupancy = plain.cache_occupancy();
    assert_eq!(occupancy.decoded_occupancy_bytes, 0);
    assert_eq!(occupancy.raw_occupancy_bytes, 0);
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
/// file, no quarantine, no manifest rewrite. So is a manifest nested
/// 100,000 arrays deep.
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

    let cases = [
        ("tagged", Some(",\"format\":\"Json\"")),
        ("untagged", Some("")),
        ("nested", None),
    ];
    for (name, tag) in cases {
        let dir = test_dir(&format!("legacy_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-000000.json"), &segment).unwrap();
        let manifest = dir.join("MANIFEST.json");
        let entry = format!(
            "{{\"id\":0,\"file\":\"seg-000000.json\",\"t_start\":0.0,\"t_end\":5.0,\
             \"streams\":[0],\"clusters\":1,\"checksum\":{checksum}{}}}",
            tag.unwrap_or_default()
        );
        let json = match tag {
            Some(_) => format!("{{\"version\":1,\"next_segment_id\":1,\"segments\":[{entry}]}}"),
            // Nested past the JSON parser's limit: an error, not a crash.
            None => "[".repeat(100_000),
        };
        std::fs::write(&manifest, json).unwrap();
        // A valid sidecar, so `recover` gets as far as the manifest.
        let sidecar = format!("{{\"version\":{SERVICE_STATE_VERSION},\"streams\":[[0,30]]}}");
        std::fs::write(dir.join(SERVICE_STATE_FILE), sidecar).unwrap();
        // Bait for the open-time sweep, should it ever run.
        std::fs::write(dir.join("seg-000001.bin.tmp"), b"partial").unwrap();
        let before = tree(&OsFs, &dir);

        let gt = GroundTruthCnn::resnet152();
        for refused in [
            Manifest::load(&OsFs, &manifest)
                .map(|_| ())
                .map_err(Into::into),
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
        assert_eq!(tree(&OsFs, &dir), before);
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
    let reference = serde_json::to_string(&reference_serve(&archive.reference, &requests)).unwrap();

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
        let reference = reference_serve(&archive.reference, &requests);
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
    /// segments, key gaps far beyond one delta block's span, and arbitrary
    /// centroid observations (floats included, bit for bit) — and
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
                (
                    0u64..u64::MAX,                         // centroid track, class,
                    0u64..u64::MAX,                         // signatures
                    -1.0e6f32..1.0e6,                       // bbox corner
                    0.0f32..1.0,                            // drift
                ),
            ),
            0..60,
        ),
        single_class in 0u64..2,
    ) {
        let single_class = single_class == 1;
        let mut index = TopKIndex::new();
        let mut local = 0u64;
        for ((stream, gap, object, frame), (classes, members, start, duration), centroid) in parts {
            local += gap;
            let (track, signature, corner, drift) = centroid;
            index.insert_centroid(ObjectObservation {
                object_id: ObjectId(object),
                track_id: TrackId(track),
                frame_id: FrameId(frame),
                stream_id: StreamId(stream as u32),
                true_class: ClassId((track % 1000) as u16),
                bbox: BoundingBox {
                    x: corner,
                    y: -corner,
                    width: drift * 64.0,
                    height: f32::from_bits(signature as u32 & 0x7f7f_ffff),
                },
                appearance: Appearance {
                    track_signature: track,
                    class_signature: signature,
                    drift,
                    pixel_signature: (signature >> 32) as u32,
                },
            });
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
