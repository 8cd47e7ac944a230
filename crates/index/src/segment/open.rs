//! Open and repair: what is trusted on open. Every listed segment is
//! verified against its manifest checksum, untrusted files are quarantined,
//! crash leftovers are swept, and the footer directory is filled from the
//! verified bytes.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use focus_video::ObjectObservation;

use crate::binseg;
use crate::cluster_store::ClusterRecord;
use crate::manifest::{fnv1a64, Manifest, MANIFEST_FILE};
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
struct Scan<'a> {
    record: &'a mut dyn FnMut(u64, &ClusterRecord),
    centroids: &'a mut dyn FnMut(Vec<ObjectObservation>),
}

impl SegmentStore {
    /// Opens an existing store, verifying it and repairing crash leftovers:
    /// stray `*.tmp` files are deleted, manifest-listed segments whose bytes
    /// fail their checksum are quarantined (renamed to `<name>.quarantined`
    /// and dropped from the manifest), and complete segment files the
    /// manifest never acknowledged are quarantined too. The returned
    /// [`OpenReport`] lists every repair.
    ///
    /// Every segment file is read once, whole; nothing enters the cache
    /// tiers.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(SegmentStore, OpenReport), SegmentError> {
        Self::open_body(dir.into(), DEFAULT_DECODED_CACHE_BYTES, None)
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
    /// segment again.
    pub fn open_scanning(
        dir: impl Into<PathBuf>,
        mut visit: impl FnMut(u64, &ClusterRecord),
        mut centroids: impl FnMut(Vec<ObjectObservation>),
    ) -> Result<(SegmentStore, OpenReport), SegmentError> {
        let scan = Scan {
            record: &mut visit,
            centroids: &mut centroids,
        };
        Self::open_body(dir.into(), DEFAULT_DECODED_CACHE_BYTES, Some(scan))
    }

    /// The one open body: [`open`](Self::open) when `scan` is `None`,
    /// [`open_scanning`](Self::open_scanning) otherwise.
    fn open_body(
        dir: PathBuf,
        decoded_bytes: u64,
        mut scan: Option<Scan<'_>>,
    ) -> Result<(SegmentStore, OpenReport), SegmentError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest = Manifest::load(&manifest_path)?;
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
            match fs::read(&path) {
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
                    let _ = fs::rename(&path, quarantine_path(&path));
                    report.quarantined.push(meta.file);
                }
                // Only a confirmed absence may delist a segment. Any other
                // read failure (permissions, fd exhaustion, transient I/O)
                // aborts the open: dropping a healthy segment from the
                // manifest over a transient error would be permanent.
                Err(source) if source.kind() == std::io::ErrorKind::NotFound => {
                    report.missing.push(meta.file)
                }
                Err(source) => {
                    return Err(SegmentError::Persist(PersistError::Io { path, source }))
                }
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
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let path = entry.path();
                if name.ends_with(".tmp") {
                    let _ = fs::remove_file(&path);
                    report.removed_temp.push(name);
                } else if name.starts_with("seg-")
                    && (name.ends_with(".json") || name.ends_with(".bin"))
                    && !listed.contains_key(name.as_str())
                {
                    let _ = fs::rename(&path, quarantine_path(&path));
                    report.quarantined.push(name);
                }
            }
        }

        if entries_dropped {
            manifest.save(&manifest_path)?;
        }
        Ok((
            SegmentStore {
                dir,
                manifest,
                footers,
                cache: Mutex::new(cache),
            },
            report,
        ))
    }
}

/// The quarantine name for an untrusted file: `<name>.quarantined` next to
/// the original.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".quarantined");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_store::ClusterKey;
    use crate::persist;
    use crate::query::QueryFilter;
    use crate::segment::read::blocks_of;
    use crate::segment::tests::{
        cold, lookup_costs, populated, record, segment_of, sketched_index, test_dir, weight,
    };
    use crate::topk::TopKIndex;
    use focus_video::{ClassId, StreamId};

    #[test]
    fn open_roundtrips_a_clean_store() {
        let dir = test_dir("open_clean");
        let store = populated(&dir);
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
        let mut store = populated(&dir);
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
        let (scanned, report) = SegmentStore::open_body(dir.clone(), budget, Some(scan)).unwrap();
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
        let store = populated(&dir);
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

    #[test]
    fn open_sweeps_temp_files_and_orphans() {
        let dir = test_dir("sweep");
        let store = populated(&dir);
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
}
