//! Open and repair: what is trusted on open. The manifest log is replayed
//! onto its checkpoint, every listed segment is verified against its
//! manifest checksum, untrusted files are quarantined, crash leftovers are
//! swept, and the footer directory is filled from the verified bytes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use focus_video::ObjectObservation;

use crate::binseg;
use crate::cluster_store::ClusterRecord;
use crate::fs::{Fs, OsFs};
use crate::manifest::{fnv1a64, LogEnd, Manifest, MANIFEST_VERSION};
use crate::persist::PersistError;

use super::read::{TieredCache, DEFAULT_DECODED_CACHE_BYTES, DEFAULT_RAW_CACHE_BYTES};
use super::{SegmentError, SegmentStore};

/// What [`SegmentStore::open`] had to repair: files that were present but
/// untrusted (quarantined by renaming to `<name>.quarantined`) and stray
/// temp files from interrupted writes (deleted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Segment files moved aside instead of loaded: manifest-listed files
    /// whose checksum did not match (corrupt), plus complete-looking segment
    /// files the manifest never acknowledged (orphans from a crash between
    /// segment rename and manifest update).
    pub quarantined: Vec<String>,
    /// Manifest-listed segments whose file was missing entirely (dropped
    /// from the manifest; nothing on disk to quarantine).
    pub missing: Vec<String>,
    /// Leftover `*.tmp` files from interrupted atomic writes, deleted.
    pub removed_temp: Vec<String>,
}

impl OpenReport {
    /// Whether the store opened without finding anything to repair.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.missing.is_empty() && self.removed_temp.is_empty()
    }
}

/// What a scanning open ([`SegmentStore::open_scanning`]) hands every
/// record it decodes to (with the record's segment id), and every
/// segment's centroid observations to.
pub(super) struct Scan<'a> {
    record: &'a mut dyn FnMut(u64, &ClusterRecord),
    centroids: &'a mut dyn FnMut(Vec<ObjectObservation>),
}

impl SegmentStore {
    /// Opens an existing store, verifying it and repairing crash leftovers:
    /// stray `*.tmp` files are deleted, manifest-listed segments whose bytes
    /// fail their checksum are quarantined (renamed to `<name>.quarantined`
    /// and dropped from the manifest), and complete segment files the
    /// manifest never acknowledged are quarantined too — among them the
    /// segment of a torn last log record, which is dropped. The returned
    /// [`OpenReport`] lists every repair, and only repairs that happened:
    /// a rename, removal or directory listing that fails is
    /// [`PersistError::Io`] naming the file, returned before the manifest
    /// is rewritten. A log line that is not a segment entry refuses the
    /// store ([`Manifest::load_live`]) before anything is touched. A
    /// repair that changes the live list or drops a torn record ends in a
    /// checkpoint; a clean open writes nothing.
    ///
    /// Every segment file is read once, whole; nothing enters the cache
    /// tiers.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(SegmentStore, OpenReport), SegmentError> {
        Self::open_body(
            Arc::new(OsFs),
            dir.into(),
            DEFAULT_DECODED_CACHE_BYTES,
            None,
        )
    }

    /// [`open`](Self::open), plus a record pass over the same verified
    /// bytes — still one read per segment. Every record of every segment
    /// that verifies is handed to `visit` with its segment id, segment by
    /// segment in manifest order (within a segment, in key order), and each
    /// segment's centroid observations — one per record, or the open fails
    /// with [`BinsegError::MissingCentroid`](crate::BinsegError::MissingCentroid) — to `centroids`. Every record,
    /// postings and tracks block of those segments is decoded from the same
    /// bytes into the decoded tier, in manifest order, so the tier keeps the
    /// newest blocks that fit its byte budget and the first requests after
    /// a restart find the recent segments warm. The raw tier stays empty.
    ///
    /// This is the open `FocusService::recover` runs: its checks
    /// (key-disjointness, next cluster keys) need every record once, its
    /// corpus every centroid, and a second pass would read and decode every
    /// segment again. It runs on `fs`, which the store keeps.
    pub fn open_scanning(
        fs: Arc<dyn Fs>,
        dir: impl Into<PathBuf>,
        mut visit: impl FnMut(u64, &ClusterRecord),
        mut centroids: impl FnMut(Vec<ObjectObservation>),
    ) -> Result<(SegmentStore, OpenReport), SegmentError> {
        let scan = Scan {
            record: &mut visit,
            centroids: &mut centroids,
        };
        Self::open_body(fs, dir.into(), DEFAULT_DECODED_CACHE_BYTES, Some(scan))
    }

    /// The one open body, on `fs`: [`open`](Self::open) when `scan` is
    /// `None`, [`open_scanning`](Self::open_scanning) otherwise.
    pub(super) fn open_body(
        fs: Arc<dyn Fs>,
        dir: PathBuf,
        decoded_bytes: u64,
        mut scan: Option<Scan<'_>>,
    ) -> Result<(SegmentStore, OpenReport), SegmentError> {
        let (mut manifest, log_end) = Manifest::load_live(&*fs, &dir)?;
        let mut report = OpenReport::default();
        let mut cache = TieredCache::new(decoded_bytes, DEFAULT_RAW_CACHE_BYTES);

        // Verify every listed segment's bytes against its checksum, and
        // keep the footer of each one that passes: the bytes are in memory
        // and vouched for, so the directory costs no I/O of its own — and
        // neither does the record pass.
        let listed_count = manifest.segments.len();
        let mut verified = Vec::with_capacity(listed_count);
        let mut footers = HashMap::with_capacity(listed_count);
        for meta in std::mem::take(&mut manifest.segments) {
            let path = dir.join(&meta.file);
            match fs.read(&path) {
                Ok(bytes) if fnv1a64(&bytes) == meta.checksum => {
                    let invalid = |source| SegmentError::InvalidSegment {
                        path: path.clone(),
                        source,
                    };
                    let footer = binseg::footer_of(&bytes).map_err(invalid)?;
                    if let Some(scan) = scan.as_mut() {
                        let centroids = cache
                            .warm_segment(meta.id, &bytes, &footer, scan.record)
                            .map_err(invalid)?;
                        (scan.centroids)(centroids);
                    }
                    footers.insert(meta.id, Arc::new(footer));
                    verified.push(meta);
                }
                Ok(_) => {
                    // Torn or rotted: move aside for post-mortem, never load.
                    quarantine(&*fs, &path)?;
                    report.quarantined.push(meta.file);
                }
                // Only a confirmed absence may delist a segment. Any other
                // read failure (permissions, fd exhaustion, transient I/O)
                // aborts the open: dropping a healthy segment from the
                // manifest over a transient error would be permanent.
                Err(source) if source.kind() == std::io::ErrorKind::NotFound => {
                    report.missing.push(meta.file)
                }
                Err(source) => return Err(PersistError::io(&path, source).into()),
            }
        }
        let entries_dropped = verified.len() != listed_count;
        manifest.segments = verified;

        // Sweep the directory for crash leftovers: interrupted temp writes
        // and complete segment files the manifest never acknowledged
        // (`.json` too: a leftover from a store that once held JSON
        // segments is as unlisted as any other).
        let listed: HashMap<&str, ()> = manifest
            .segments
            .iter()
            .map(|m| (m.file.as_str(), ()))
            .collect();
        let entries = fs.list(&dir).map_err(|e| PersistError::io(&dir, e))?;
        for path in entries {
            let name = path
                .file_name()
                .map(|name| name.to_string_lossy().into_owned())
                .unwrap_or_default();
            if name.ends_with(".tmp") {
                fs.remove(&path).map_err(|e| PersistError::io(&path, e))?;
                report.removed_temp.push(name);
            } else if name.starts_with("seg-")
                && (name.ends_with(".json") || name.ends_with(".bin"))
                && !listed.contains_key(name.as_str())
            {
                quarantine(&*fs, &path)?;
                report.quarantined.push(name);
            }
        }

        let checkpoint_due = log_end != LogEnd::Clean || manifest.version != MANIFEST_VERSION;
        let mut store = SegmentStore {
            fs,
            dir,
            manifest,
            checkpoint_due,
            footers,
            cache: Mutex::new(cache),
        };
        if entries_dropped || log_end == LogEnd::Torn {
            store.checkpoint()?;
        }
        Ok((store, report))
    }
}

/// Moves an untrusted file aside to `<name>.quarantined` next to the
/// original. A failed rename is [`PersistError::Io`] naming the file.
fn quarantine(fs: &dyn Fs, path: &Path) -> Result<(), PersistError> {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".quarantined");
    fs.rename(path, &path.with_file_name(name))
        .map_err(|e| PersistError::io(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_store::ClusterKey;
    use crate::manifest::{SegmentMeta, MANIFEST_FILE, MANIFEST_LOG_FILE};
    use crate::persist;
    use crate::query::QueryFilter;
    use crate::segment::read::blocks_of;
    use crate::segment::tests::{
        cold, live_ids, lookup_costs, populated, record, reopen, seal_populated, segment_of,
        sketched_index, test_dir, tree, weight, ManifestFs,
    };
    use crate::topk::TopKIndex;
    use focus_video::{ClassId, StreamId};
    use std::fs;
    use std::sync::atomic::Ordering;

    #[test]
    fn open_roundtrips_a_clean_store() {
        let dir = test_dir("open_clean");
        let store = populated(SegmentStore::create(&dir).unwrap());
        let expected = persist::to_json(&store.merged_index().unwrap()).unwrap();
        let (reopened, report) = SegmentStore::open(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(reopened.len(), 3);
        assert_eq!(
            persist::to_json(&reopened.merged_index().unwrap()).unwrap(),
            expected
        );
        assert_eq!(reopened.total_clusters(), 6);
        fs::remove_dir_all(&dir).ok();
    }

    /// Recovery's open visits every record once and leaves the decoded tier
    /// holding every block of the newest segments that fit its byte
    /// budget, in manifest order — here two of three, after a compaction
    /// made manifest order differ from id order: a lookup on the newest
    /// segment reads nothing, one on the oldest reads from disk. Plain
    /// `open` leaves both tiers empty.
    #[test]
    fn recovery_warms_the_newest_segments_that_fit() {
        let dir = test_dir("open_scanning");
        let mut store = populated(SegmentStore::create(&dir).unwrap());
        let three = [0, 1, 2].map(|local| record(2, local, 5, local as f64));
        store.seal(&segment_of(&three)).unwrap();
        // Sizes 2, 2, 2, 3 under a cap of 4: only [0, 1] fold, into id 4,
        // listed where they were: manifest [4, 2, 3].
        store.compact(4).unwrap();
        let order: Vec<u64> = store.segments().iter().map(|m| m.id).collect();
        assert_eq!(order, vec![4, 2, 3]);
        let budget = weight(&store, 2) + weight(&store, 3);
        let entries = |id: u64| blocks_of(&store.footers[&id]).count();
        let newest_entries = entries(2) + entries(3);
        drop(store);

        let mut seen = Vec::new();
        let mut centroids = 0;
        let scan = Scan {
            record: &mut |id: u64, record: &ClusterRecord| seen.push((record.key, id)),
            centroids: &mut |segment: Vec<ObjectObservation>| centroids += segment.len(),
        };
        let (scanned, report) =
            SegmentStore::open_body(Arc::new(OsFs), dir.clone(), budget, Some(scan)).unwrap();
        assert_eq!(centroids, scanned.total_clusters());
        assert!(report.is_clean(), "{report:?}");
        seen.sort();
        let mut expected: Vec<(ClusterKey, u64)> = Vec::new();
        for meta in scanned.segments() {
            let segment = binseg::decode(&fs::read(dir.join(&meta.file)).unwrap()).unwrap();
            expected.extend(segment.clusters().map(|r| (r.key, meta.id)));
        }
        expected.sort();
        assert_eq!(seen, expected);
        assert_eq!(seen.len(), scanned.total_clusters());

        let occupancy = scanned.cache_occupancy();
        assert_eq!(occupancy.decoded_occupancy_bytes, budget);
        assert_eq!(occupancy.decoded_entries, newest_entries);
        assert_eq!(occupancy.raw_entries, 0);
        // Segment 3 (stream 2) is the newest: served decoded, nothing read.
        let newest = QueryFilter::for_stream(StreamId(2));
        let newest = scanned.lookup(ClassId(5), &newest).unwrap();
        let mut reads = newest.access;
        assert_eq!(newest.records.len(), 3);
        assert_eq!(
            (newest.access.cache_hits, newest.access.blocks_read),
            (1, 0)
        );
        assert_eq!(newest.access.block_hits, lookup_costs(&scanned, 5)[2].0);
        // Segment 4 (stream 0) is the oldest: evicted, so it comes off disk.
        let oldest = QueryFilter::for_stream(StreamId(0));
        let oldest = scanned.lookup(ClassId(5), &oldest).unwrap();
        assert_eq!(oldest.access.cold_loads, 1);
        assert_eq!(oldest.access.block_hits, 0);
        assert_eq!(oldest.access.blocks_read, lookup_costs(&scanned, 5)[0].0);
        // Recovery's own reads are not fetches: across both lookups, the
        // disk served the oldest segment's blocks and nothing else.
        reads.merge(&oldest.access);
        assert_eq!(reads.blocks_read, lookup_costs(&scanned, 5)[0].0);
        assert_eq!(reads.block_raw_hits, 0);

        let (plain, _) = SegmentStore::open(&dir).unwrap();
        let occupancy = plain.cache_occupancy();
        assert_eq!((occupancy.decoded_entries, occupancy.raw_entries), (0, 0));
        assert_eq!(occupancy.decoded_occupancy_bytes, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segments_are_quarantined_on_open() {
        let dir = test_dir("quarantine");
        let store = populated(SegmentStore::create(&dir).unwrap());
        let victim = store.segments()[1].file.clone();
        // Flip one byte in the middle of the file.
        let path = dir.join(&victim);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        drop(store);

        let (reopened, report) = SegmentStore::open(&dir).unwrap();
        assert_eq!(report.quarantined, vec![victim.clone()]);
        assert_eq!(reopened.len(), 2);
        assert!(!dir.join(&victim).exists());
        assert!(dir.join(format!("{victim}.quarantined")).exists());
        // The surviving segments still load and answer.
        let lookup = reopened.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        assert_eq!(lookup.records.len(), 3);
        // A second open is clean: the repair was persisted to the manifest.
        let (_, report) = SegmentStore::open(&dir).unwrap();
        assert!(report.quarantined.is_empty(), "{report:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sketch_block_corruption_fails_checksum_and_quarantines_on_open() {
        let dir = test_dir("sketch_corrupt");
        let mut store = SegmentStore::create(&dir).unwrap();
        store.seal(&sketched_index(0, 0, 0.0, 1)).unwrap();
        let store = cold(store);
        let meta = store.segments()[0].clone();
        let path = dir.join(&meta.file);
        // Flip one byte inside the tracks block (located via the trailer
        // and footer), leaving every other block intact.
        let mut bytes = fs::read(&path).unwrap();
        let footer = binseg::footer_of(&bytes).unwrap();
        let tmeta = footer
            .tracks
            .expect("sealed segment carries a tracks block");
        bytes[tmeta.offset as usize + 2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        // Lookup-time: the tracks block fails its footer checksum, exactly
        // like record/postings block corruption.
        match store.sketches(&QueryFilter::any()) {
            Err(SegmentError::Corrupt {
                expected, found, ..
            }) => assert_ne!(expected, found),
            other => panic!("expected tracks-block corruption, got {other:?}"),
        }
        // The damage is confined: record lookups in the same segment still
        // serve (their blocks verify).
        let lookup = store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        assert_eq!(lookup.records.len(), 1);
        drop(store);

        // Open-time: the whole-file checksum quarantines the segment via
        // the same OpenReport machinery as any other corruption.
        let (reopened, report) = SegmentStore::open(&dir).unwrap();
        assert_eq!(report.quarantined, vec![meta.file.clone()]);
        assert_eq!(reopened.len(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    /// The repair operation [`RefusingFs`] fails.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Refused {
        Rename,
        Remove,
        List,
    }

    /// [`OsFs`] with one repair operation failing.
    #[derive(Debug)]
    struct RefusingFs(Refused);

    impl RefusingFs {
        fn check(&self, op: Refused) -> std::io::Result<()> {
            if self.0 == op {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::PermissionDenied,
                    "refused",
                ));
            }
            Ok(())
        }
    }

    impl Fs for RefusingFs {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            OsFs.read(path)
        }
        fn open(&self, path: &Path) -> std::io::Result<Box<dyn crate::fs::ReadAt>> {
            OsFs.open(path)
        }
        fn write_atomic(&self, path: &Path, contents: &[u8]) -> std::io::Result<()> {
            OsFs.write_atomic(path, contents)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            OsFs.append(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.check(Refused::Rename)?;
            OsFs.rename(from, to)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.check(Refused::Remove)?;
            OsFs.remove(path)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
            self.check(Refused::List)?;
            OsFs.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            OsFs.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> std::io::Result<bool> {
            OsFs.exists(path)
        }
    }

    /// A repair that fails is [`PersistError::Io`] naming the file, and
    /// the open returns it before it rewrites the manifest: the store is
    /// left as it was, and an `OpenReport` never lists a repair that did
    /// not happen. Once the fault clears, the open makes the repair.
    #[test]
    fn a_failed_repair_is_an_error_naming_the_file_and_changes_nothing() {
        // (case, refused operation, planted file, the file the error names)
        let cases = [
            (
                "corrupt",
                Refused::Rename,
                "seg-000001.bin",
                "seg-000001.bin",
            ),
            (
                "orphan",
                Refused::Rename,
                "seg-000097.bin",
                "seg-000097.bin",
            ),
            (
                "temp",
                Refused::Remove,
                "seg-000099.bin.tmp",
                "seg-000099.bin.tmp",
            ),
            ("list", Refused::List, "seg-000099.bin.tmp", ""),
        ];
        let snapshot = |dir: &Path| -> Vec<(PathBuf, Vec<u8>)> {
            let paths = OsFs.list(dir).unwrap();
            paths
                .into_iter()
                .map(|path| (path.clone(), fs::read(&path).unwrap()))
                .collect()
        };
        for (case, refused, planted, named) in cases {
            let dir = test_dir(&format!("refused_repair_{case}"));
            drop(populated(SegmentStore::create(&dir).unwrap()));
            let path = dir.join(planted);
            let bytes = match fs::read(&path) {
                Ok(mut listed) => {
                    let mid = listed.len() / 2;
                    listed[mid] ^= 0x01;
                    listed
                }
                Err(_) => b"partial".to_vec(),
            };
            fs::write(&path, bytes).unwrap();
            let before = snapshot(&dir);

            let fs: Arc<dyn Fs> = Arc::new(RefusingFs(refused));
            match SegmentStore::open_body(fs, dir.clone(), DEFAULT_DECODED_CACHE_BYTES, None) {
                Err(SegmentError::Persist(PersistError::Io { path, source })) => {
                    assert_eq!(path, dir.join(named), "{case}");
                    assert_eq!(source.kind(), std::io::ErrorKind::PermissionDenied);
                }
                other => panic!("{case}: expected an I/O error, got {other:?}"),
            }
            assert_eq!(snapshot(&dir), before, "{case}: the open changed the store");

            let (_, report) = SegmentStore::open(&dir).unwrap();
            let repaired = [&report.quarantined[..], &report.removed_temp[..]].concat();
            assert_eq!(repaired, [planted], "{case}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    /// One sequence on [`OsFs`] and on
    /// [`MemFs`](crate::fs::MemFs): create, seal five segments,
    /// compact, flip one byte of a live segment, drop a temp file and an
    /// unlisted segment file, reopen with a scanning open. Both leave the
    /// same files holding the same bytes, repair the same way, hand the
    /// scan the same records and answer the same lookups.
    #[test]
    fn os_fs_and_mem_fs_write_the_same_store_and_answer_the_same() {
        use crate::fs::MemFs;

        let os_dir = test_dir("fs_equivalence");
        let sides: [(Arc<dyn Fs>, PathBuf); 2] = [
            (Arc::new(OsFs), os_dir.clone()),
            (
                Arc::new(MemFs::default()),
                PathBuf::from("/mem/fs_equivalence"),
            ),
        ];
        let outcomes: Vec<_> = sides
            .into_iter()
            .map(|(fs, dir)| {
                let mut store = SegmentStore::create_with(Arc::clone(&fs), dir.clone()).unwrap();
                seal_populated(&mut store);
                store
                    .seal(&segment_of(&[
                        record(1, 2, 5, 100.0),
                        record(1, 3, 6, 110.0),
                    ]))
                    .unwrap();
                store.seal(&segment_of(&[record(0, 4, 7, 200.0)])).unwrap();
                assert_eq!(store.compact(4).unwrap(), 2);
                let victim = dir.join(&store.segments()[1].file);
                drop(store);

                let mut bytes = fs.read(&victim).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                fs.write_atomic(&victim, &bytes).unwrap();
                fs.write_atomic(&dir.join("seg-000099.bin.tmp"), b"partial")
                    .unwrap();
                fs.write_atomic(
                    &dir.join("seg-000098.bin"),
                    &binseg::encode(&TopKIndex::new()),
                )
                .unwrap();

                let mut scanned = Vec::new();
                let mut centroids = Vec::new();
                let scan = Scan {
                    record: &mut |id, record: &ClusterRecord| scanned.push((id, record.key)),
                    centroids: &mut |segment: Vec<ObjectObservation>| {
                        centroids.extend(segment.into_iter().map(|o| o.object_id))
                    },
                };
                let (store, report) = SegmentStore::open_body(
                    fs.clone(),
                    dir.clone(),
                    DEFAULT_DECODED_CACHE_BYTES,
                    Some(scan),
                )
                .unwrap();
                let lookups: Vec<_> = (5..=7)
                    .map(|class| {
                        let hit = store.lookup(ClassId(class), &QueryFilter::any()).unwrap();
                        let records: Vec<ClusterRecord> =
                            hit.records.iter().map(|r| (**r).clone()).collect();
                        (records, hit.access)
                    })
                    .collect();
                let files: Vec<(String, Vec<u8>)> = fs
                    .list(&dir)
                    .unwrap()
                    .iter()
                    .map(|path| {
                        let name = path.file_name().unwrap().to_string_lossy().into_owned();
                        (name, fs.read(path).unwrap())
                    })
                    .collect();
                (files, report, scanned, centroids, lookups)
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1]);
        let (files, report, ..) = &outcomes[0];
        let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "MANIFEST.json",
                "MANIFEST.log",
                "seg-000004.bin",
                "seg-000005.bin",
                "seg-000006.bin.quarantined",
                "seg-000098.bin.quarantined"
            ]
        );
        assert_eq!(report.quarantined, ["seg-000006.bin", "seg-000098.bin"]);
        assert_eq!(report.removed_temp, ["seg-000099.bin.tmp"]);
        assert!(report.missing.is_empty());
        fs::remove_dir_all(&os_dir).ok();
    }

    #[test]
    fn open_sweeps_temp_files_and_orphans() {
        let dir = test_dir("sweep");
        let store = populated(SegmentStore::create(&dir).unwrap());
        let expected = persist::to_json(&store.merged_index().unwrap()).unwrap();
        drop(store);
        // A crash mid-write leaves a temp file; a crash between segment
        // rename and manifest update leaves a complete but unlisted segment;
        // a `.json` leftover from a store that once held JSON segments is
        // swept the same way.
        fs::write(dir.join("seg-000099.json.tmp"), "{\"partial").unwrap();
        fs::write(
            dir.join("seg-000098.json"),
            "{\"version\":1,\"index\":{\"clusters\":[]}}",
        )
        .unwrap();
        fs::write(
            dir.join("seg-000097.bin"),
            crate::binseg::encode(&TopKIndex::new()),
        )
        .unwrap();
        let (reopened, report) = SegmentStore::open(&dir).unwrap();
        assert_eq!(report.removed_temp, vec!["seg-000099.json.tmp".to_string()]);
        let mut quarantined = report.quarantined.clone();
        quarantined.sort();
        assert_eq!(
            quarantined,
            vec!["seg-000097.bin".to_string(), "seg-000098.json".to_string()]
        );
        assert!(!dir.join("seg-000099.json.tmp").exists());
        assert!(dir.join("seg-000098.json.quarantined").exists());
        assert!(dir.join("seg-000097.bin.quarantined").exists());
        // Every sealed segment survived untouched.
        assert_eq!(
            persist::to_json(&reopened.merged_index().unwrap()).unwrap(),
            expected
        );
        fs::remove_dir_all(&dir).ok();
    }

    /// The live list as the manifest files spell it: the checkpoint's
    /// entries, then the log's lines.
    fn manifest_files(store: &SegmentStore) -> (Manifest, Vec<u8>) {
        let (fs, dir) = (store.fs(), store.dir());
        let checkpoint = Manifest::load(fs, &dir.join(MANIFEST_FILE)).unwrap();
        (checkpoint, fs.read(&dir.join(MANIFEST_LOG_FILE)).unwrap())
    }

    /// Where a crash can stop the manifest commit, each on `MemFs`, with
    /// what the next open must make of the directory: the segments it
    /// quarantines, the live list, and whether it writes a checkpoint.
    /// Every row's store then reopens clean with the same live list.
    #[test]
    fn every_commit_crash_point_opens_to_the_acknowledged_segments() {
        let log_path = Path::new("/store").join(MANIFEST_LOG_FILE);
        // Segments 0, 1 and 2, each two records, listed by the log.
        let sealed = || {
            let (mut store, fs) = ManifestFs::store();
            seal_populated(&mut store);
            (store, fs)
        };
        let torn = || {
            // An append cut short: segment 2's record lost its `\n`.
            let (store, fs) = sealed();
            let mut log = fs.read(&log_path).unwrap();
            log.truncate(log.len() - 7);
            fs.write_atomic(&log_path, &log).unwrap();
            store
        };
        let stale_log = || {
            // A compaction's checkpoint landed, then the crash: the log
            // still lists segments 0-2 and the folded files are still there.
            let (mut store, fs) = sealed();
            let (log, files) = (fs.read(&log_path).unwrap(), tree(&store));
            assert_eq!(store.compact(4).unwrap(), 1);
            fs.write_atomic(&log_path, &log).unwrap();
            for (name, bytes) in &files[2..4] {
                fs.write_atomic(&store.dir().join(name), bytes).unwrap();
            }
            store
        };
        let v1_then_seal = || {
            // A version-1 store (a checkpoint, no log) opens writing
            // nothing; its first seal writes a version-2 checkpoint.
            let (store, fs) = sealed();
            let mut v1 = store.manifest.clone();
            v1.version = 1;
            let json = serde_json::to_string(&v1).unwrap();
            fs.write_atomic(&store.dir().join(MANIFEST_FILE), json.as_bytes())
                .unwrap();
            fs.remove(&log_path).unwrap();
            let before = tree(&store);
            let (mut store, report) = reopen(&store);
            assert!(report.is_clean(), "{report:?}");
            assert_eq!(tree(&store), before);
            store.seal(&segment_of(&[record(2, 0, 5, 0.0)])).unwrap();
            let (checkpoint, log) = manifest_files(&store);
            assert_eq!(checkpoint.version, MANIFEST_VERSION);
            assert_eq!((checkpoint.segments.len(), log.len()), (4, 0));
            store
        };
        let failed_append_then_seal = || {
            // The append of segment 3 fails half-way; the retry, segment
            // 4, is the first commit after it and writes a checkpoint.
            let (mut store, fs) = sealed();
            let index = segment_of(&[record(2, 0, 5, 0.0)]);
            fs.refuse.store(true, Ordering::SeqCst);
            assert!(store.seal(&index).is_err());
            fs.refuse.store(false, Ordering::SeqCst);
            let log = fs.read(&log_path).unwrap();
            assert_ne!(log.last(), Some(&b'\n'), "the append was not torn");
            store.seal(&index).unwrap();
            let (checkpoint, log) = manifest_files(&store);
            assert_eq!((checkpoint.segments.len(), log.len()), (4, 0));
            store
        };
        // (row, the crash, quarantined on open, live after it, whether
        // the open writes a checkpoint)
        type Row<'a> = (
            &'a str,
            &'a dyn Fn() -> SegmentStore,
            &'a [&'a str],
            &'a [u64],
            bool,
        );
        let rows: [Row; 5] = [
            ("clean", &|| sealed().0, &[], &[0, 1, 2], false),
            ("torn last line", &torn, &["seg-000002.bin"], &[0, 1], true),
            (
                "checkpoint beside the old log",
                &stale_log,
                &["seg-000000.bin", "seg-000001.bin"],
                &[3, 2],
                false,
            ),
            (
                "v1 store, then a seal",
                &v1_then_seal,
                &[],
                &[0, 1, 2, 3],
                false,
            ),
            (
                "failed append, then a seal",
                &failed_append_then_seal,
                &["seg-000003.bin"],
                &[0, 1, 2, 4],
                false,
            ),
        ];
        for (row, crash, quarantined, live, checkpoints) in rows {
            let crashed = crash();
            let log_before = crashed.fs().read(&log_path).unwrap();
            let (store, report) = reopen(&crashed);
            assert_eq!(report.quarantined, quarantined, "{row}");
            assert!(
                report.missing.is_empty() && report.removed_temp.is_empty(),
                "{row}"
            );
            assert_eq!(live_ids(&store), live, "{row}");
            let (checkpoint, log) = manifest_files(&store);
            if checkpoints {
                assert_eq!(
                    (live_ids(&store), log.len()),
                    (checkpoint.segments.iter().map(|m| m.id).collect(), 0),
                    "{row}"
                );
            } else {
                assert_eq!(log, log_before, "{row}: the open rewrote the log");
            }
            let (again, report) = reopen(&store);
            assert!(report.is_clean(), "{row}: {report:?}");
            assert_eq!(again.segments(), store.segments(), "{row}");
        }
    }

    /// A complete log line that is not a segment entry refuses the store
    /// with a format error naming the log, before any repair: every file
    /// keeps its bytes, the sweep's bait included.
    #[test]
    fn a_corrupt_log_line_refuses_the_store_and_changes_nothing() {
        let (mut store, fs) = ManifestFs::store();
        seal_populated(&mut store);
        let log_path = store.dir().join(MANIFEST_LOG_FILE);
        let log = String::from_utf8(fs.read(&log_path).unwrap()).unwrap();
        let mut lines: Vec<&str> = log.lines().collect();
        let middle = lines[1].replacen("\"clusters\"", "\"clusters\"x", 1);
        assert!(serde_json::from_str::<SegmentMeta>(&middle).is_err());
        lines[1] = &middle;
        fs.write_atomic(&log_path, format!("{}\n", lines.join("\n")).as_bytes())
            .unwrap();
        fs.write_atomic(&store.dir().join("seg-000099.bin.tmp"), b"partial")
            .unwrap();
        let before = tree(&store);

        let opened = SegmentStore::open_body(
            fs.clone(),
            store.dir().to_path_buf(),
            DEFAULT_DECODED_CACHE_BYTES,
            None,
        );
        match opened {
            Err(SegmentError::Persist(e @ PersistError::Format { .. })) => {
                assert_eq!(e.path(), Some(log_path.as_path()), "{e}")
            }
            other => panic!("expected a log format error, got {other:?}"),
        }
        assert_eq!(tree(&store), before);
    }
}
