//! Durable, time-partitioned index segments.
//!
//! A [`SegmentStore`] is the on-disk home of a top-K index that has grown
//! past what one monolithic snapshot should hold: ingest seals batches of
//! cluster records into immutable *segments* (each covering the tight time
//! range of its records, per stream), and queries open only the segments
//! whose bounds intersect their camera/time restriction — the rest are
//! pruned without touching disk.
//!
//! Layout of a store directory:
//!
//! ```text
//! store/
//!   MANIFEST.json      # checkpoint: versioned list of live segments (see `manifest`)
//!   MANIFEST.log       # one line per segment sealed since the checkpoint
//!   seg-000000.bin     # one immutable index snapshot per segment
//!   seg-000001.bin     # (binary columnar, see `binseg`)
//!   ...
//! ```
//!
//! Segments are written and read in the binary columnar format of
//! [`crate::binseg`], the one module that knows how a segment is laid out.
//!
//! Durability protocol: a segment file is written atomically
//! ([`Fs::write_atomic`]), then its entry is appended to the manifest log
//! ([`Fs::append`]); compaction rewrites the checkpoint instead. The
//! manifest is the source of truth — on
//! [`open`](SegmentStore::open), unlisted segment files and stray temp
//! files are quarantined/removed, and listed segments whose bytes fail
//! their manifest checksum are quarantined instead of silently loaded. See
//! [`crate::manifest`] for the crash analysis.
//!
//! Every live segment's footer (its block table, ~1 KB) stays resident in
//! a *footer directory* outside the caches, filled from the bytes `open`
//! verifies and `seal`/`compact` encode — so a lookup knows which classes a
//! segment posts, and skips one that posts none of them, without touching
//! the file. The block — a record block, a postings block or the tracks
//! block — is the only unit the store reads and caches. (The centroid
//! block is never cached: lookups do not read it, and recovery's open
//! decodes it once, from the bytes it verifies, to hand the centroids to
//! its caller.) Blocks go through
//! two tiers of one byte-weighted LRU, each entry weighing its block's
//! encoded length: decoded blocks above raw verified bytes, the raw tier
//! doubling as the decoded tier's probation — a block read from disk enters
//! the raw tier only, and earns a decoded entry on its second touch, so a
//! scan larger than the decoded tier cannot flush it. Two warmers fill the
//! tiers from bytes the store already holds: recovery's open
//! ([`SegmentStore::open_scanning`]) leaves the newest segments' blocks
//! decoded, and `seal`/`compact` leave the blocks they have just encoded in
//! the raw tier. Lookups read and checksum-verify only the blocks a query
//! needs — the postings block of each lookup class and the record blocks
//! covering the union of their candidate keys, each once per request;
//! [`SegmentAccess`] reports per-call pruning, cache and block behaviour,
//! and is the one account of store reads: each block fetch is counted once,
//! in the account of the call that made it, and the cache tiers keep no
//! counters of their own.

mod open;
mod read;
mod store;

pub use open::OpenReport;
pub use read::{
    GroupedLookup, LruOccupancy, SegmentAccess, SegmentLookup, DEFAULT_DECODED_CACHE_BYTES,
    DEFAULT_RAW_CACHE_BYTES,
};

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use focus_video::StreamId;

use crate::binseg::{BinsegError, SegmentFooter};
use crate::cluster_store::ClusterKey;
use crate::fs::Fs;
use crate::manifest::Manifest;
use crate::persist::PersistError;

use read::TieredCache;

/// Errors produced by the segment store.
#[derive(Debug)]
pub enum SegmentError {
    /// Reading or writing a snapshot/manifest failed (carries the path).
    Persist(PersistError),
    /// A segment file's bytes (or one of its blocks) do not match the
    /// recorded checksum (torn write or bit rot).
    Corrupt {
        /// The corrupt segment file.
        path: PathBuf,
        /// Checksum recorded in the manifest (or the segment's footer, for
        /// block-level reads).
        expected: u64,
        /// Checksum of the bytes actually on disk.
        found: u64,
    },
    /// A binary segment file could not be parsed (bad magic, truncation, or
    /// a structural invariant failure).
    InvalidSegment {
        /// The unparsable segment file.
        path: PathBuf,
        /// What the binary decoder rejected.
        source: BinsegError,
    },
    /// A segment id was requested that the manifest does not list.
    UnknownSegment {
        /// The requested id.
        id: u64,
    },
    /// Two segments answered one lookup with the same cluster key. Segments
    /// are key-disjoint by construction, so the store is corrupt; dropping
    /// either record silently would mask it.
    DuplicateKey {
        /// The key both segments hold.
        key: ClusterKey,
        /// The two segments (manifest ids) that returned it.
        segments: [u64; 2],
    },
    /// A not-yet-sealed tail record has the key of a sealed record. A
    /// stream's pipeline only drains keys it has never drained before, so
    /// the tail and the store disagree; a planner refuses to pick one of
    /// the two copies.
    TailKeySealed {
        /// The key the tail and the segment both hold.
        key: ClusterKey,
        /// The segment (manifest id) that already holds it.
        segment: u64,
    },
    /// A stream was named that the service has not registered: a frame
    /// handed to `advance`, or a configuration installed on it.
    UnknownStream {
        /// The unregistered stream.
        stream: StreamId,
    },
    /// A stream was registered twice, by a caller or by a
    /// `service_state.json` sidecar that lists it twice.
    StreamRegistered {
        /// The stream already registered.
        stream: StreamId,
    },
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Persist(e) => write!(f, "segment store: {e}"),
            SegmentError::Corrupt {
                path,
                expected,
                found,
            } => write!(
                f,
                "segment store: corrupt segment `{}`: checksum {found:#018x}, expected {expected:#018x}",
                path.display()
            ),
            SegmentError::InvalidSegment { path, source } => write!(
                f,
                "segment store: invalid segment `{}`: {source}",
                path.display()
            ),
            SegmentError::UnknownSegment { id } => {
                write!(f, "segment store: unknown segment id {id}")
            }
            SegmentError::DuplicateKey { key, segments } => write!(
                f,
                "segment store: segments {} and {} both hold cluster key {key:?}; \
                 segments must be key-disjoint",
                segments[0], segments[1]
            ),
            SegmentError::TailKeySealed { key, segment } => write!(
                f,
                "segment store: the tail holds cluster key {key:?}, already sealed in \
                 segment {segment}; tail and segments must be key-disjoint"
            ),
            SegmentError::UnknownStream { stream } => {
                write!(f, "service: stream {} is not registered", stream.0)
            }
            SegmentError::StreamRegistered { stream } => {
                write!(f, "service: stream {} is already registered", stream.0)
            }
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Persist(e) => Some(e),
            SegmentError::InvalidSegment { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<PersistError> for SegmentError {
    fn from(e: PersistError) -> Self {
        SegmentError::Persist(e)
    }
}

/// A durable, time-partitioned index store (see the module docs for the
/// on-disk layout and durability protocol).
///
/// All mutations (`seal`, `compact`) take `&mut self` and serialize their
/// atomic writes; reads (`load`, `lookup`, `sketches`) take `&self`, and
/// the lookups share the tiered cache behind a mutex, so a store can serve
/// concurrent queries.
///
/// # Examples
///
/// ```
/// use focus_index::{ClusterKey, ClusterRecord, MemberRef, QueryFilter, SegmentStore, TopKIndex};
/// use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation, StreamId, TrackId};
///
/// // In memory; `SegmentStore::create(dir)` is the same store on the disk.
/// let fs = std::sync::Arc::new(focus_index::MemFs::default());
/// let mut store = SegmentStore::create_with(fs, "/store".into()).unwrap();
///
/// // Seal two single-record segments covering different time windows,
/// // each record with its centroid observation.
/// for (local, start) in [(0u64, 0.0f64), (1, 100.0)] {
///     let mut seg = TopKIndex::new();
///     seg.insert_centroid(ObjectObservation { object_id: ObjectId(local), ..Default::default() });
///     seg.insert(ClusterRecord {
///         key: ClusterKey::new(StreamId(0), local),
///         centroid_object: ObjectId(local),
///         centroid_frame: FrameId(local),
///         top_k_classes: vec![ClassId(7)],
///         members: vec![MemberRef { object: ObjectId(local), frame: FrameId(local), track: TrackId(0) }],
///         start_secs: start,
///         end_secs: start + 10.0,
///     });
///     store.seal(&seg).unwrap();
/// }
///
/// // A time-restricted lookup opens only the intersecting segment.
/// let early = QueryFilter::any().with_time_range(0.0, 20.0);
/// let hit = store.lookup(ClassId(7), &early).unwrap();
/// assert_eq!(hit.records.len(), 1);
/// assert_eq!(hit.access.segments_considered, 1);
/// assert_eq!(hit.access.segments_pruned(), 1);
/// ```
#[derive(Debug)]
pub struct SegmentStore {
    /// How the store reaches the disk: every file it reads or writes goes
    /// through this capability.
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    /// The live list, as the checkpoint and the log on disk list it.
    manifest: Manifest,
    /// Whether the next commit must write a checkpoint instead of an
    /// append: the log is missing, may end in a torn append, or the
    /// checkpoint is an older version.
    checkpoint_due: bool,
    /// The footer directory: every live segment's decoded footer, by
    /// segment id. Filled from bytes already verified in memory (`open`'s
    /// whole-file read, the encoder's output at `seal`/`compact`), dropped
    /// with the segment, never evicted — a lookup never reads a footer.
    footers: HashMap<u64, Arc<SegmentFooter>>,
    cache: Mutex<TieredCache>,
}

// Callers share one store across their own threads (the library spawns
// none); keep the store's cross-thread shareability an explicit API
// guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SegmentStore>();
};

/// Segments are key-disjoint by construction: a key two of them hold means
/// a corrupt store, and silently keeping one of the records would mask it.
/// `keys` pairs each key with the segment holding it.
fn check_disjoint(mut keys: Vec<(ClusterKey, u64)>) -> Result<(), SegmentError> {
    keys.sort_unstable();
    match keys.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        Some(pair) => Err(SegmentError::DuplicateKey {
            key: pair[0].0,
            segments: [pair[0].1, pair[1].1],
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binseg;
    use crate::cluster_store::{ClusterRecord, MemberRef};
    use crate::fs::MemFs;
    use crate::manifest::SegmentMeta;
    use crate::topk::TopKIndex;
    use crate::track::{TrackKey, TrackSketch};
    use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation, TrackId};
    use read::{blocks_of, DEFAULT_DECODED_CACHE_BYTES};
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    pub(super) fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("focus_segment_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fresh, empty store on its own in-memory filesystem.
    pub(super) fn mem_store() -> SegmentStore {
        SegmentStore::create_with(Arc::new(MemFs::default()), "/store".into()).unwrap()
    }

    /// A [`MemFs`] that counts the bytes written to the manifest's files
    /// (`MANIFEST.*`) and, while `refuse` is set, fails every write to
    /// them. A refused append first lands half its bytes, as a write torn
    /// by a full disk would; a refused atomic write lands nothing.
    #[derive(Debug, Default)]
    pub(super) struct ManifestFs {
        inner: MemFs,
        pub(super) written: AtomicU64,
        pub(super) refuse: AtomicBool,
    }

    impl ManifestFs {
        /// A store at `/store` on a fresh `ManifestFs`, and the `Fs`.
        pub(super) fn store() -> (SegmentStore, Arc<ManifestFs>) {
            let fs = Arc::new(ManifestFs::default());
            let store = SegmentStore::create_with(fs.clone(), "/store".into()).unwrap();
            (store, fs)
        }

        /// Whether a write of `bytes` to `path` goes ahead; counts it if
        /// it is a manifest write that does.
        fn admit(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if !name.starts_with("MANIFEST") {
                return Ok(());
            }
            if self.refuse.load(Ordering::SeqCst) {
                return Err(io::Error::new(io::ErrorKind::PermissionDenied, "refused"));
            }
            self.written.fetch_add(bytes.len() as u64, Ordering::SeqCst);
            Ok(())
        }
    }

    impl Fs for ManifestFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn open(&self, path: &Path) -> io::Result<Box<dyn crate::fs::ReadAt>> {
            self.inner.open(path)
        }
        fn write_atomic(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
            self.admit(path, contents)?;
            self.inner.write_atomic(path, contents)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if let Err(refused) = self.admit(path, bytes) {
                self.inner.append(path, &bytes[..bytes.len() / 2])?;
                return Err(refused);
            }
            self.inner.append(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.inner.remove(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
            self.inner.list(dir)
        }
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.inner.create_dir_all(dir)
        }
        fn exists(&self, path: &Path) -> io::Result<bool> {
            self.inner.exists(path)
        }
    }

    /// Every file in `store`'s directory, by name, with its bytes.
    pub(super) fn tree(store: &SegmentStore) -> Vec<(String, Vec<u8>)> {
        let fs = store.fs();
        let paths = fs.list(store.dir()).unwrap();
        let file = |path: &PathBuf| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs.read(path).unwrap())
        };
        paths.iter().map(file).collect()
    }

    /// The ids of `store`'s live segments, in manifest order.
    pub(super) fn live_ids(store: &SegmentStore) -> Vec<u64> {
        store.segments().iter().map(|meta| meta.id).collect()
    }

    pub(super) fn record(stream: u32, local: u64, class: u16, start: f64) -> ClusterRecord {
        ClusterRecord {
            key: ClusterKey::new(StreamId(stream), local),
            centroid_object: ObjectId((stream as u64) << 32 | local),
            centroid_frame: FrameId(local),
            top_k_classes: vec![ClassId(class), ClassId(0)],
            members: vec![MemberRef {
                object: ObjectId((stream as u64) << 32 | local),
                frame: FrameId(local),
                track: TrackId(local % 4),
            }],
            start_secs: start,
            end_secs: start + 5.0,
        }
    }

    /// The centroid observation behind `record`.
    pub(super) fn centroid_of(record: &ClusterRecord) -> ObjectObservation {
        ObjectObservation {
            object_id: record.centroid_object,
            frame_id: record.centroid_frame,
            stream_id: record.key.stream,
            ..ObjectObservation::default()
        }
    }

    /// An index of `records`, each with its centroid observation.
    pub(super) fn segment_of(records: &[ClusterRecord]) -> TopKIndex {
        let mut idx = TopKIndex::new();
        for r in records {
            idx.insert_centroid(centroid_of(r));
            idx.insert(r.clone());
        }
        idx
    }

    pub(super) fn seal_populated(store: &mut SegmentStore) {
        store
            .seal(&segment_of(&[record(0, 0, 5, 0.0), record(0, 1, 5, 10.0)]))
            .unwrap();
        store
            .seal(&segment_of(&[
                record(0, 2, 5, 100.0),
                record(0, 3, 6, 110.0),
            ]))
            .unwrap();
        store
            .seal(&segment_of(&[record(1, 0, 5, 0.0), record(1, 1, 7, 10.0)]))
            .unwrap();
    }

    /// Seals three binary segments into `store`: stream 0 at [0,15],
    /// stream 0 at [100,115], stream 1 at [0,15] — and returns it reopened,
    /// so both cache tiers start empty.
    pub(super) fn populated(mut store: SegmentStore) -> SegmentStore {
        seal_populated(&mut store);
        cold(store)
    }

    /// A second store over `store`'s directory and `Fs`, opened as a plain
    /// `open` opens it.
    pub(super) fn reopen(store: &SegmentStore) -> (SegmentStore, OpenReport) {
        let (fs, dir) = (Arc::clone(&store.fs), store.dir.clone());
        SegmentStore::open_body(fs, dir, DEFAULT_DECODED_CACHE_BYTES, None).unwrap()
    }

    /// `store` reopened: the same segments, both cache tiers empty (sealing
    /// leaves the fresh blocks in the raw tier).
    pub(super) fn cold(store: SegmentStore) -> SegmentStore {
        reopen(&store).0
    }

    /// What every block of segment `id` weighs in either tier: the sum of
    /// their encoded lengths.
    pub(super) fn weight(store: &SegmentStore, id: u64) -> u64 {
        blocks_of(&store.footers[&id]).map(|(_, m)| m.len).sum()
    }

    /// What one cold lookup of `class` costs in each segment, read off the
    /// file's own footer: the block fetches (the class's postings block and
    /// the record blocks covering its keys; the footer is resident and is
    /// not a fetch) and their bytes, which is what lands in the raw tier.
    pub(super) fn lookup_costs(store: &SegmentStore, class: u16) -> Vec<(usize, u64)> {
        let segments = store.segments().iter();
        segments
            .map(|meta| lookup_cost(store, meta, class))
            .collect()
    }

    /// [`lookup_costs`] for one segment (which must post `class`).
    pub(super) fn lookup_cost(
        store: &SegmentStore,
        meta: &SegmentMeta,
        class: u16,
    ) -> (usize, u64) {
        let bytes = store.fs().read(&store.dir().join(&meta.file)).unwrap();
        let footer = binseg::footer_of(&bytes).unwrap();
        let postings = footer.postings_for(ClassId(class)).unwrap().block;
        let block = binseg::block_slice(&bytes, &postings).unwrap();
        let covering = footer.blocks_covering(&binseg::decode_postings_block(block).unwrap());
        let record_bytes: u64 = covering
            .iter()
            .map(|b| footer.record_blocks[*b].block.len)
            .sum();
        (1 + covering.len(), postings.len + record_bytes)
    }

    /// One segment of 256 records whose classes cycle 1..=8 (and all carry
    /// class 0 second), so every class's keys touch every record block.
    pub(super) fn one_big_segment(store: &mut SegmentStore) -> SegmentMeta {
        let records: Vec<ClusterRecord> = (0..256u64)
            .map(|local| record(0, local, (local % 8) as u16 + 1, local as f64))
            .collect();
        store.seal(&segment_of(&records)).unwrap().unwrap()
    }

    /// One-record index with a two-observation sketch for `track` on
    /// `stream`, windowed at `start`.
    pub(super) fn sketched_index(stream: u32, local: u64, start: f64, track: u64) -> TopKIndex {
        let mut idx = segment_of(&[record(stream, local, 5, start)]);
        let key = TrackKey {
            stream: StreamId(stream),
            track: TrackId(track),
        };
        let mut sketch = TrackSketch::first(key, start, 40.0, 40.0);
        sketch.absorb(&TrackSketch::first(key, start + 2.0, 200.0, 40.0));
        idx.insert_sketch(sketch);
        idx
    }

    #[test]
    fn errors_display_their_context() {
        let errors: [SegmentError; 7] = [
            SegmentError::Persist(PersistError::VersionMismatch {
                path: None,
                found: 9,
                expected: 1,
            }),
            SegmentError::Corrupt {
                path: PathBuf::from("/s/seg-000001.bin"),
                expected: 1,
                found: 2,
            },
            SegmentError::InvalidSegment {
                path: PathBuf::from("/s/seg-000002.bin"),
                source: BinsegError::BadMagic,
            },
            SegmentError::UnknownSegment { id: 7 },
            SegmentError::DuplicateKey {
                key: ClusterKey::new(StreamId(0), 3),
                segments: [1, 4],
            },
            SegmentError::UnknownStream {
                stream: StreamId(2),
            },
            SegmentError::StreamRegistered {
                stream: StreamId(2),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
