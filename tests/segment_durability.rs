//! Integration tests for the durable, time-partitioned segment store: a
//! segmented corpus must answer queries byte-identically to the merged
//! in-memory index while opening strictly fewer segments under time
//! filters, and must recover every sealed segment after crashes and
//! corruption.

use proptest::prelude::*;

use focus::cnn::{GroundTruthCnn, ModelSpec};
use focus::core::segment_ingest::{SealPolicy, SegmentedIngest, SegmentedIngestOutput};
use focus::core::{
    FocusService, IngestCnn, IngestParams, QueryRequest, QueryServer, SegmentedCorpus,
    ServiceConfig,
};
use focus::index::persist::{self, PersistError};
use focus::index::{
    binseg, ClusterKey, ClusterRecord, Manifest, MemberRef, QueryFilter, SegmentError,
    SegmentStore, TopKIndex,
};
use focus::runtime::{GpuClusterSpec, GpuMeter, IoMeter};
use focus::video::profile::profile_by_name;
use focus::video::{ClassId, FrameId, ObjectId, StreamId, TrackId, VideoDataset};

use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus_segment_durability_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload(secs: f64) -> Vec<VideoDataset> {
    ["auburn_c", "lausanne"]
        .iter()
        .map(|n| VideoDataset::generate(profile_by_name(n).unwrap(), secs))
        .collect()
}

fn segmented(policy: SealPolicy, shards: usize) -> SegmentedIngest {
    SegmentedIngest::new(
        IngestCnn::generic(ModelSpec::cheap_cnn_1()),
        IngestParams {
            k: 10,
            ..IngestParams::default()
        },
        policy,
        shards,
    )
}

fn build(
    name: &str,
    secs: f64,
    policy: SealPolicy,
    shards: usize,
) -> (Vec<VideoDataset>, SegmentedIngestOutput, PathBuf) {
    let datasets = workload(secs);
    let dir = test_dir(name);
    let mut store = SegmentStore::create(&dir).unwrap();
    let output = segmented(policy, shards)
        .ingest_to_store(&datasets, &mut store, &GpuMeter::new())
        .unwrap();
    (datasets, output, dir)
}

fn server() -> QueryServer {
    QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4))
}

/// Satellite: round-trip save/open across 1/2/4 shards asserting
/// canonical-JSON equality between the store (reopened from disk) and the
/// in-memory combined index — and that the pool width changes nothing a
/// caller can observe: index and GPU accounting are bitwise what
/// per-dataset [`IngestEngine`](focus::core::IngestEngine) runs produce.
#[test]
fn store_roundtrip_matches_in_memory_index_across_shard_counts() {
    let datasets = workload(45.0);
    let bits = |cost: focus::cnn::GpuCost| cost.seconds().to_bits();
    let ingest = |policy, shards, datasets: &[VideoDataset], name: &str, meter: &GpuMeter| {
        let dir = test_dir(&format!("roundtrip_{name}_{shards}"));
        let mut store = SegmentStore::create(&dir).unwrap();
        let output = segmented(policy, shards)
            .ingest_to_store(datasets, &mut store, meter)
            .unwrap();
        (output, dir)
    };

    // One shard is one direct engine run: the driver adds nothing and loses
    // nothing. (Sealed as a single segment — a seal boundary closes the
    // clusters open across it, so only that run compares to the engine's.)
    let whole = SealPolicy::every_secs(f64::INFINITY);
    let engine = segmented(whole, 1).engine().clone();
    let direct_meter = GpuMeter::new();
    let mut direct_index = TopKIndex::new();
    for dataset in &datasets {
        let direct = engine.ingest(dataset, &direct_meter);
        let one = std::slice::from_ref(dataset);
        let (single, dir) = ingest(whole, 1, one, "single", &GpuMeter::new());
        assert_eq!(bits(single.combined.gpu_cost), bits(direct.gpu_cost));
        assert_eq!(direct_index.merge(direct.index), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
    let direct_index = persist::to_json(&direct_index).unwrap();

    let mut canonical: Option<String> = None;
    for shards in [1usize, 2, 4] {
        // At any width the whole workload equals the per-dataset engine
        // runs charged in workload order, bit for bit.
        let meter = GpuMeter::new();
        let (output, dir) = ingest(whole, shards, &datasets, "whole", &meter);
        let combined = output.combined;
        assert_eq!(persist::to_json(&combined.index).unwrap(), direct_index);
        for (got, want) in [
            (meter.total(), direct_meter.total()),
            (meter.phase("ingest"), direct_meter.phase("ingest")),
            (combined.gpu_cost, direct_meter.total()),
        ] {
            assert_eq!(bits(got), bits(want), "shards={shards}");
        }
        std::fs::remove_dir_all(&dir).ok();

        let policy = SealPolicy::every_secs(15.0);
        let (output, dir) = ingest(policy, shards, &datasets, "sealed", &GpuMeter::new());
        let (reopened, report) = SegmentStore::open(&dir).unwrap();
        assert!(report.is_clean(), "shards={shards}: {report:?}");
        let from_disk = persist::to_json(&reopened.merged_index().unwrap()).unwrap();
        let in_memory = persist::to_json(&output.combined.index).unwrap();
        assert_eq!(from_disk, in_memory, "shards={shards}");
        // Every shard count produces the same canonical bytes.
        match &canonical {
            None => canonical = Some(from_disk),
            Some(expected) => assert_eq!(&from_disk, expected, "shards={shards}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Acceptance criterion: time-filtered queries over a segmented store
/// return byte-identical results to the merged in-memory index while
/// opening strictly fewer segments.
#[test]
fn time_filtered_queries_are_identical_and_open_fewer_segments() {
    let (datasets, output, dir) = build("pruned_query", 60.0, SealPolicy::every_secs(15.0), 2);
    let (store, report) = SegmentStore::open(&dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let corpus = SegmentedCorpus::from_output(store, &output);

    let classes = datasets[0].dominant_classes(3);
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

    // The segmented server and the in-memory server run the same model on
    // the same candidates: outcomes must serialize byte-identically.
    let io = IoMeter::new();
    let served = server()
        .serve_segmented(&corpus, &requests, &GpuMeter::new(), &io)
        .unwrap();
    let reference = server().serve(&output.combined, &requests, &GpuMeter::new());
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
    let total_segments = corpus.store().len();
    assert!(total_segments >= 8, "expected a well-segmented store");
    for request in requests.iter().filter(|r| r.filter.time_range.is_some()) {
        let planned = corpus.plan(request).unwrap();
        assert!(
            planned.access.segments_considered < total_segments,
            "request {request:?} opened {} of {total_segments}",
            planned.access.segments_considered
        );
    }
    // The IoMeter saw the storage work.
    let stats = io.snapshot();
    assert!(stats.segments_opened() > 0);
    assert!(stats.segment_loads > 0);
    assert!(stats.bytes_read > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: a bit-flipped segment is detected by its manifest checksum
/// and quarantined on open instead of being silently loaded.
#[test]
fn corrupted_segment_is_quarantined_not_loaded() {
    let (_, output, dir) = build("corrupt", 45.0, SealPolicy::every_secs(15.0), 2);
    let victim = output.sealed[2].file.clone();
    let path = dir.join(&victim);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let (store, report) = SegmentStore::open(&dir).unwrap();
    assert_eq!(report.quarantined, vec![victim.clone()]);
    assert!(dir.join(format!("{victim}.quarantined")).exists());
    assert_eq!(store.len(), output.sealed.len() - 1);
    // The survivors are exactly the other segments' records.
    let mut expected = focus::index::TopKIndex::new();
    for meta in output.sealed.iter().filter(|m| m.file != victim) {
        let loaded = store.load(meta.id).unwrap();
        assert_eq!(expected.merge_from(&loaded), 0);
    }
    assert_eq!(
        persist::to_json(&store.merged_index().unwrap()).unwrap(),
        persist::to_json(&expected).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance criterion: a kill between the two-step write (segment file,
/// then manifest) loses nothing that was acknowledged — every manifested
/// segment is recovered, the half-written temp file is swept, and the
/// unacknowledged orphan is quarantined rather than trusted.
#[test]
fn kill_between_writes_recovers_every_sealed_segment() {
    let (_, output, dir) = build("crash", 45.0, SealPolicy::every_secs(15.0), 1);
    let sealed_json = {
        let (store, _) = SegmentStore::open(&dir).unwrap();
        persist::to_json(&store.merged_index().unwrap()).unwrap()
    };

    // Crash A: killed mid-segment-write — a partial temp file remains.
    std::fs::write(dir.join("seg-000099.json.tmp"), b"{\"version\":1,\"ind").unwrap();
    // Crash B: killed after the segment rename but before the manifest
    // update — a complete, valid-looking segment the manifest never saw.
    let orphan_payload = persist::to_json(&focus::index::TopKIndex::new()).unwrap();
    std::fs::write(dir.join("seg-000098.json"), orphan_payload).unwrap();

    let (recovered, report) = SegmentStore::open(&dir).unwrap();
    assert_eq!(report.removed_temp, vec!["seg-000099.json.tmp".to_string()]);
    assert_eq!(report.quarantined, vec!["seg-000098.json".to_string()]);
    assert!(report.missing.is_empty());
    // Every sealed segment is back, byte-identically.
    assert_eq!(recovered.len(), output.sealed.len());
    assert_eq!(
        persist::to_json(&recovered.merged_index().unwrap()).unwrap(),
        sealed_json
    );
    // And the repaired store opens clean the next time.
    drop(recovered);
    let (_, report) = SegmentStore::open(&dir).unwrap();
    assert!(report.is_clean(), "{report:?}");
    std::fs::remove_dir_all(&dir).ok();
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
    let listing = |dir: &PathBuf| -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap())
            .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
            .collect();
        files.sort();
        files
    };

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
    let (_, output, dir) = build("block_corrupt", 45.0, SealPolicy::every_secs(15.0), 2);
    let victim = output.sealed[1].clone();

    // The class held by the victim's first record block, discovered via a
    // scratch handle so the store under test caches nothing.
    let first_class = {
        let (scratch, _) = SegmentStore::open(&dir).unwrap();
        let segment = scratch.load(victim.id).unwrap();
        segment
            .clusters()
            .min_by_key(|r| r.key)
            .expect("sealed segments are never empty")
            .top_k_classes[0]
    };

    let (store, report) = SegmentStore::open(&dir).unwrap();
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
    let (reopened, report) = SegmentStore::open(&dir).unwrap();
    assert_eq!(report.quarantined, vec![victim.file.clone()]);
    assert_eq!(reopened.len(), output.sealed.len() - 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Compaction folds small adjacent segments without changing query results.
#[test]
fn compaction_preserves_query_results() {
    let (datasets, output, dir) = build("compact", 60.0, SealPolicy::every_secs(10.0), 2);
    let (store, _) = SegmentStore::open(&dir).unwrap();
    let mut corpus = SegmentedCorpus::from_output(store, &output);
    let before_segments = corpus.store().len();

    let class = datasets[0].dominant_classes(1)[0];
    let requests = vec![
        QueryRequest::new(class),
        QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(0.0, 25.0)),
    ];
    let before = server()
        .serve_segmented(&corpus, &requests, &GpuMeter::new(), &IoMeter::new())
        .unwrap();

    let folded = corpus.store_mut().compact(200).unwrap();
    assert!(folded > 0, "expected the 10-second segments to fold");
    assert!(corpus.store().len() < before_segments);

    // A fresh (cold) server: the accounting fields must match too, not just
    // the result sets.
    let after = server()
        .serve_segmented(&corpus, &requests, &GpuMeter::new(), &IoMeter::new())
        .unwrap();
    assert_eq!(
        serde_json::to_string(&before).unwrap(),
        serde_json::to_string(&after).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a frame landing exactly on a
/// [`SealPolicy::every_secs`] boundary must land in exactly one segment —
/// no duplicate, no drop — for 1, 2 and 4 shards. The boundary frame
/// starts the *next* segment: its timestamp equals the new segment's
/// `t_start`.
#[test]
fn seal_boundary_frame_lands_in_exactly_one_segment() {
    // 30 s at a 10-s budget: boundary frames sit exactly at t = 10 and
    // t = 20 (frame ids fps*10 and fps*20, both exactly representable).
    let secs = 30.0;
    let budget = 10.0;
    let datasets = workload(secs);
    for shards in [1usize, 2, 4] {
        let dir = test_dir(&format!("boundary_{shards}"));
        let mut store = SegmentStore::create(&dir).unwrap();
        let output = segmented(SealPolicy::every_secs(budget), shards)
            .ingest_to_store(&datasets, &mut store, &GpuMeter::new())
            .unwrap();

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
            datasets.iter().map(|d| d.object_count()).sum::<usize>(),
            "shards={shards}: every frame's objects sealed exactly once"
        );
        member_objects.sort();
        member_objects.dedup();
        assert_eq!(
            total,
            member_objects.len(),
            "shards={shards}: no duplicates"
        );

        // The boundary frame belongs to the segment that *starts* at the
        // boundary, for every stream that has motion in that frame.
        for ds in &datasets {
            let fps = ds.profile.fps;
            for boundary in [budget, 2.0 * budget] {
                let boundary_frame = focus::video::FrameId((boundary * fps as f64) as u64);
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
                    "shards={shards}: boundary frame {boundary_frame:?} in one segment"
                );
                // It opens the next window: the holding segment starts at
                // the boundary.
                assert!(
                    (holders[0].0 - boundary).abs() < 1e-9,
                    "shards={shards}: boundary frame starts the next segment \
                     (t_start = {}, boundary = {boundary})",
                    holders[0].0
                );
            }
        }

        // Whole-store invariant unchanged by the boundary handling.
        assert_eq!(
            persist::to_json(&store.merged_index().unwrap()).unwrap(),
            persist::to_json(&output.combined.index).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Satellite: arbitrary seal boundaries never change query results —
    /// for any (duration, seal budget, shard count), serving over the
    /// segmented store is byte-identical to serving over the merged
    /// in-memory index, filtered and unfiltered.
    #[test]
    fn arbitrary_seal_boundaries_never_change_query_results(
        (secs, budget_secs, shards, case) in (
            20.0f64..40.0,
            3.0f64..20.0,
            prop_oneof![Just(1usize), Just(2), Just(3)],
            0u64..1_000_000,
        )
    ) {
        let datasets = workload(secs);
        let dir = test_dir(&format!("proptest_{case}_{shards}"));
        let mut store = SegmentStore::create(&dir).unwrap();
        let output = segmented(SealPolicy::every_secs(budget_secs), shards)
            .ingest_to_store(&datasets, &mut store, &GpuMeter::new())
            .unwrap();
        let corpus = SegmentedCorpus::from_output(store, &output);

        let class = datasets[0].dominant_classes(1)[0];
        let half = secs / 2.0;
        let requests = vec![
            QueryRequest::new(class),
            QueryRequest::new(class)
                .with_filter(QueryFilter::any().with_time_range(0.0, half)),
            QueryRequest::new(class)
                .with_filter(QueryFilter::any().with_time_range(half, secs).with_kx(3)),
        ];
        let srv = server();
        let segmented_outcomes = srv
            .serve_segmented(&corpus, &requests, &GpuMeter::new(), &IoMeter::new())
            .unwrap();
        let reference = server().serve(&output.combined, &requests, &GpuMeter::new());
        prop_assert_eq!(
            serde_json::to_string(&segmented_outcomes).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
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
