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
//!   MANIFEST.json      # versioned list of live segments (see `manifest`)
//!   seg-000000.bin     # one immutable index snapshot per segment
//!   seg-000001.bin     # (binary columnar, see `binseg`)
//!   ...
//! ```
//!
//! Segments are written and read in the binary columnar format of
//! [`crate::binseg`], the one module that knows how a segment is laid out.
//!
//! Durability protocol: a segment file is written atomically (temp +
//! rename), then the manifest is rewritten atomically to list it. The
//! manifest is the source of truth — on [`open`](SegmentStore::open),
//! unlisted segment files and stray temp files are quarantined/removed, and
//! listed segments whose bytes fail their manifest checksum are quarantined
//! instead of silently loaded. See [`crate::manifest`] for the crash
//! analysis.
//!
//! Every live segment's footer (its block table, ~1 KB) stays resident in
//! a *footer directory* outside the caches, filled from the bytes `open`
//! verifies and `seal`/`compact` encode — so a lookup knows which classes a
//! segment posts, and skips one that posts none of them, without touching
//! the file. Blocks go through a two-tier cache: a decoded-block LRU (whole
//! indexes, record blocks, postings blocks, tracks blocks) above a
//! raw-bytes LRU that doubles as the decoded tier's probation: a block read
//! from disk enters the raw tier only, and earns a decoded entry on its
//! second touch, so a scan larger than the decoded tier cannot flush it.
//! Lookups read and checksum-verify only the blocks a query needs — the
//! postings block of each lookup class and the record blocks covering the
//! union of their candidate keys, each once per request;
//! [`SegmentAccess`] reports per-call pruning, cache and block behaviour so
//! callers can account for storage cost (the runtime crate's `IoMeter`).

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use focus_video::ClassId;

use crate::binseg::{self, BinsegError, SegmentFooter};
use crate::cluster_store::{ClusterKey, ClusterRecord};
use crate::manifest::{fnv1a64, Manifest, SegmentFormat, SegmentMeta, MANIFEST_FILE};
use crate::persist::{write_atomic_bytes, PersistError};
use crate::query::QueryFilter;
use crate::topk::TopKIndex;
use crate::track::{TrackKey, TrackSketch};

/// Default capacity of the decoded-block LRU cache, in entries. An entry is
/// one decoded unit — a whole segment index, a record block, a postings
/// block or a tracks block.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// Default capacity of the raw-bytes LRU tier, in bytes.
pub const DEFAULT_RAW_CACHE_BYTES: u64 = 8 * 1024 * 1024;

/// How many recently-cold segment ids the cache remembers for
/// [`SegmentStore::prefetch_adjacent`].
const RECENT_COLD_CAP: usize = 32;

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

/// Per-call account of what a pruned lookup touched: how many segments the
/// store holds, how many survived pruning, how the opened ones were served
/// (cold disk load vs cache), and at block granularity how many block
/// fetches went to disk vs either cache tier.
///
/// A segment is counted once per store call however many lookup classes the
/// call carries ([`SegmentStore::lookup_classes_grouped`] walks the
/// segments once), so `segments_considered`, `cold_loads` and `cache_hits`
/// in a planner's account — and the `IoMeter` totals a service accumulates
/// from it — are per request, not per lookup class. Footers are resident
/// ([`SegmentStore`]'s footer directory) and are not block fetches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentAccess {
    /// Live segments in the store at lookup time.
    pub segments_total: usize,
    /// Segments whose bounds intersected the filter (the rest were pruned
    /// without being opened). A considered segment whose footer posts none
    /// of the lookup classes (or, for sketches, holds no tracks block) is
    /// skipped there and then: it is neither a cold load nor a cache hit.
    pub segments_considered: usize,
    /// Considered segments that needed at least one disk read.
    pub cold_loads: usize,
    /// Considered segments that had blocks to fetch and were served
    /// entirely from the cache tiers.
    pub cache_hits: usize,
    /// Bytes read from disk for the cold loads.
    pub bytes_read: u64,
    /// Block fetches that went to disk.
    pub blocks_read: usize,
    /// Block fetches served by re-decoding bytes from the raw tier.
    pub block_raw_hits: usize,
    /// Block fetches served from the decoded tier.
    pub block_hits: usize,
}

impl SegmentAccess {
    /// Segments actually opened (cold or cached): the considered ones the
    /// footer directory could not rule out.
    pub fn segments_opened(&self) -> usize {
        self.cold_loads + self.cache_hits
    }

    /// Segments skipped by pruning.
    pub fn segments_pruned(&self) -> usize {
        self.segments_total - self.segments_considered
    }

    /// Accumulates another access report into this one.
    pub fn merge(&mut self, other: &SegmentAccess) {
        // `segments_total` is a store-level snapshot, not additive.
        self.segments_total = self.segments_total.max(other.segments_total);
        self.segments_considered += other.segments_considered;
        self.cold_loads += other.cold_loads;
        self.cache_hits += other.cache_hits;
        self.bytes_read += other.bytes_read;
        self.blocks_read += other.blocks_read;
        self.block_raw_hits += other.block_raw_hits;
        self.block_hits += other.block_hits;
    }
}

/// Occupancy and hit-rate snapshot of the two cache tiers, as returned by
/// [`SegmentStore::cache_occupancy`] — what a serving layer folds into its
/// stats to see how much of the working set is resident and where cold
/// reads actually land. The footer directory is outside both tiers and is
/// not counted here: it holds one footer per live segment, always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LruOccupancy {
    /// Decoded entries currently resident (whole indexes, record, postings
    /// and tracks blocks). A block is admitted on its second touch — the
    /// first leaves it in the raw tier only — so a one-pass scan adds
    /// nothing here.
    pub occupancy: usize,
    /// Maximum decoded entries the cache holds.
    pub capacity: usize,
    /// Bytes currently resident in the raw tier.
    #[serde(default)]
    pub raw_occupancy_bytes: u64,
    /// Byte capacity of the raw tier (0 disables it).
    #[serde(default)]
    pub raw_capacity_bytes: u64,
    /// Entries currently resident in the raw tier.
    #[serde(default)]
    pub raw_entries: usize,
    /// Cumulative fetches served from the decoded tier.
    #[serde(default)]
    pub decoded_hits: u64,
    /// Cumulative fetches served by re-decoding raw-tier bytes.
    #[serde(default)]
    pub raw_hits: u64,
    /// Cumulative fetches that went to disk.
    #[serde(default)]
    pub disk_reads: u64,
}

impl LruOccupancy {
    /// Fraction of the decoded tier in use (0.0 for an unbounded-but-empty
    /// cache).
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.occupancy as f64 / self.capacity as f64
        }
    }

    /// Fraction of the raw tier's byte budget in use.
    pub fn raw_fill_fraction(&self) -> f64 {
        if self.raw_capacity_bytes == 0 {
            0.0
        } else {
            self.raw_occupancy_bytes as f64 / self.raw_capacity_bytes as f64
        }
    }

    /// Fraction of all fetches served from the decoded tier (0.0 before any
    /// fetch).
    pub fn decoded_hit_rate(&self) -> f64 {
        let total = self.decoded_hits + self.raw_hits + self.disk_reads;
        if total == 0 {
            0.0
        } else {
            self.decoded_hits as f64 / total as f64
        }
    }

    /// Fraction of decoded-tier misses rescued by the raw tier (0.0 before
    /// any miss).
    pub fn raw_hit_rate(&self) -> f64 {
        let misses = self.raw_hits + self.disk_reads;
        if misses == 0 {
            0.0
        } else {
            self.raw_hits as f64 / misses as f64
        }
    }
}

/// The result of a pruned lookup: the matching records (sorted by cluster
/// key, exactly as [`TopKIndex::lookup`] on the merged index would return
/// them) plus the access account.
#[derive(Debug, Clone)]
pub struct SegmentLookup {
    /// Matching cluster records, sorted by key — shared with the decoded
    /// tier when that is where they came from.
    pub records: Vec<Arc<ClusterRecord>>,
    /// What the lookup touched.
    pub access: SegmentAccess,
}

/// The result of a pruned lookup kept grouped by contributing segment:
/// one `(segment id, records)` entry per segment that matched the filter
/// and contributed at least one record, in manifest (seal) order, each
/// group sorted by cluster key and holding a record once however many
/// lookup classes it matched. Flattening the groups and sorting by cluster
/// key reproduces [`SegmentLookup::records`] exactly — segments are
/// key-disjoint (checked: [`SegmentError::DuplicateKey`]), so the groups
/// partition the result set. This is the shape the query planner
/// consumes: each group becomes one plan chunk, which the anytime loop
/// samples and the exhaustive path drains.
///
/// A record served from the decoded tier (a record block or a resident
/// whole segment) is the tier's own [`Arc`]: a hit costs a reference-count
/// bump per record, not a copy.
#[derive(Debug, Clone)]
pub struct GroupedLookup {
    /// Per-segment record groups, manifest order, empty groups omitted.
    pub groups: Vec<(u64, Vec<Arc<ClusterRecord>>)>,
    /// What the lookup touched (summed across all opened segments).
    pub access: SegmentAccess,
}

/// What a cache entry holds for one segment: the whole decoded index, one
/// record block, one class's postings block, or the tracks block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BlockKey {
    Whole,
    Records(u32),
    Postings(u16),
    Tracks,
}

type CacheKey = (u64, BlockKey);

/// A decoded unit in the top cache tier.
#[derive(Debug, Clone)]
enum DecodedEntry {
    Whole(Arc<TopKIndex>),
    Records(Arc<Vec<Arc<ClusterRecord>>>),
    Postings(Arc<Vec<ClusterKey>>),
    Tracks(Arc<Vec<TrackSketch>>),
}

/// The two-tier cache: a decoded-block LRU (entry-capped) above a raw-bytes
/// LRU (byte-capped). A decoded miss that hits the raw tier costs a
/// re-decode instead of a disk read; only a miss in both goes to disk.
///
/// The raw tier is also the decoded tier's probationary queue: a block
/// fetched from disk is inserted here only ([`SegmentReader::block`]), and
/// the raw hit of its second touch is what promotes it. Whole-segment
/// loads (`load`, compaction, prefetch) are not scan traffic and enter
/// both tiers at once; recovery's warm set
/// ([`SegmentStore::open_scanning`]) enters the decoded tier only.
#[derive(Debug)]
struct TieredCache {
    decoded_capacity: usize,
    decoded_order: VecDeque<CacheKey>,
    decoded: HashMap<CacheKey, DecodedEntry>,
    raw_capacity: u64,
    raw_used: u64,
    raw_order: VecDeque<CacheKey>,
    raw: HashMap<CacheKey, Arc<Vec<u8>>>,
    decoded_hits: u64,
    raw_hits: u64,
    disk_reads: u64,
    /// Segment ids that recently went to disk on the query path, feeding
    /// adjacency prefetch. Deduplicated, capped, drained by
    /// [`SegmentStore::prefetch_adjacent`].
    recent_cold: VecDeque<u64>,
}

impl TieredCache {
    fn new(decoded_capacity: usize, raw_capacity: u64) -> Self {
        Self {
            decoded_capacity: decoded_capacity.max(1),
            decoded_order: VecDeque::new(),
            decoded: HashMap::new(),
            raw_capacity,
            raw_used: 0,
            raw_order: VecDeque::new(),
            raw: HashMap::new(),
            decoded_hits: 0,
            raw_hits: 0,
            disk_reads: 0,
            recent_cold: VecDeque::new(),
        }
    }

    fn touch(order: &mut VecDeque<CacheKey>, key: CacheKey) {
        if let Some(pos) = order.iter().position(|x| *x == key) {
            order.remove(pos);
        }
        order.push_back(key);
    }

    fn decoded_get(&mut self, key: CacheKey) -> Option<DecodedEntry> {
        let entry = self.decoded.get(&key)?.clone();
        Self::touch(&mut self.decoded_order, key);
        self.decoded_hits += 1;
        Some(entry)
    }

    fn decoded_contains(&self, key: CacheKey) -> bool {
        self.decoded.contains_key(&key)
    }

    fn decoded_insert(&mut self, key: CacheKey, entry: DecodedEntry) {
        if self.decoded.insert(key, entry).is_none() {
            self.decoded_order.push_back(key);
        } else {
            Self::touch(&mut self.decoded_order, key);
        }
        while self.decoded.len() > self.decoded_capacity {
            if let Some(evicted) = self.decoded_order.pop_front() {
                self.decoded.remove(&evicted);
            }
        }
    }

    fn raw_get(&mut self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        let bytes = Arc::clone(self.raw.get(&key)?);
        Self::touch(&mut self.raw_order, key);
        self.raw_hits += 1;
        Some(bytes)
    }

    /// Inserts `bytes` into the raw tier; `false` when the tier cannot hold
    /// them at all.
    fn raw_insert(&mut self, key: CacheKey, bytes: Arc<Vec<u8>>) -> bool {
        let len = bytes.len() as u64;
        // An entry bigger than the whole tier would evict everything for
        // nothing; skip it (and everything, when the tier is disabled).
        if len > self.raw_capacity {
            return false;
        }
        if let Some(old) = self.raw.insert(key, bytes) {
            self.raw_used -= old.len() as u64;
            Self::touch(&mut self.raw_order, key);
        } else {
            self.raw_order.push_back(key);
        }
        self.raw_used += len;
        while self.raw_used > self.raw_capacity {
            if let Some(evicted) = self.raw_order.pop_front() {
                if let Some(old) = self.raw.remove(&evicted) {
                    self.raw_used -= old.len() as u64;
                }
            }
        }
        true
    }

    /// Drops every entry (both tiers) belonging to segment `id`.
    fn remove_segment(&mut self, id: u64) {
        self.decoded_order.retain(|k| k.0 != id);
        self.decoded.retain(|k, _| k.0 != id);
        self.raw_order.retain(|k| k.0 != id);
        let raw_used = &mut self.raw_used;
        self.raw.retain(|k, v| {
            if k.0 == id {
                *raw_used -= v.len() as u64;
                false
            } else {
                true
            }
        });
        self.recent_cold.retain(|x| *x != id);
    }

    fn note_cold(&mut self, id: u64) {
        if self.recent_cold.contains(&id) {
            return;
        }
        if self.recent_cold.len() >= RECENT_COLD_CAP {
            self.recent_cold.pop_front();
        }
        self.recent_cold.push_back(id);
    }

    fn take_recent_cold(&mut self) -> Vec<u64> {
        self.recent_cold.drain(..).collect()
    }

    fn occupancy(&self) -> LruOccupancy {
        LruOccupancy {
            occupancy: self.decoded.len(),
            capacity: self.decoded_capacity,
            raw_occupancy_bytes: self.raw_used,
            raw_capacity_bytes: self.raw_capacity,
            raw_entries: self.raw.len(),
            decoded_hits: self.decoded_hits,
            raw_hits: self.raw_hits,
            disk_reads: self.disk_reads,
        }
    }
}

/// A block payload the decoded tier can hold, and what decoding its bytes
/// yields before it is shared.
trait CachedBlock: Sized {
    type Decoded;
    fn share(decoded: Self::Decoded) -> Self;
    fn wrap(block: Arc<Self>) -> DecodedEntry;
    fn extract(entry: DecodedEntry) -> Option<Arc<Self>>;
}

/// A record block decodes to owned records; the decoded tier holds each
/// one shared, so a hit hands out reference-count bumps.
impl CachedBlock for Vec<Arc<ClusterRecord>> {
    type Decoded = Vec<ClusterRecord>;
    fn share(decoded: Vec<ClusterRecord>) -> Self {
        decoded.into_iter().map(Arc::new).collect()
    }
    fn wrap(block: Arc<Self>) -> DecodedEntry {
        DecodedEntry::Records(block)
    }
    fn extract(entry: DecodedEntry) -> Option<Arc<Self>> {
        match entry {
            DecodedEntry::Records(block) => Some(block),
            _ => None,
        }
    }
}

impl CachedBlock for Vec<ClusterKey> {
    type Decoded = Self;
    fn share(decoded: Self) -> Self {
        decoded
    }
    fn wrap(block: Arc<Self>) -> DecodedEntry {
        DecodedEntry::Postings(block)
    }
    fn extract(entry: DecodedEntry) -> Option<Arc<Self>> {
        match entry {
            DecodedEntry::Postings(block) => Some(block),
            _ => None,
        }
    }
}

impl CachedBlock for Vec<TrackSketch> {
    type Decoded = Self;
    fn share(decoded: Self) -> Self {
        decoded
    }
    fn wrap(block: Arc<Self>) -> DecodedEntry {
        DecodedEntry::Tracks(block)
    }
    fn extract(entry: DecodedEntry) -> Option<Arc<Self>> {
        match entry {
            DecodedEntry::Tracks(block) => Some(block),
            _ => None,
        }
    }
}

/// A fetched block, by where it came from.
enum Fetched<T: CachedBlock> {
    /// Shared with the decoded tier: a decoded hit, or a raw-tier hit that
    /// was just promoted.
    Shared(Arc<T>),
    /// Decoded from bytes this fetch read (and verified) off disk. Nothing
    /// else holds it, so the caller may take it apart instead of sharing it
    /// whole.
    Fresh(T::Decoded),
}

impl<T: CachedBlock<Decoded = T>> std::ops::Deref for Fetched<T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Fetched::Shared(block) => block,
            Fetched::Fresh(block) => block,
        }
    }
}

/// One segment's share of one request: the lazily opened file — a request
/// may read several ranges of it, and opening once and seeking keeps the
/// cold path at one `open` syscall per segment instead of one per block —
/// and the request's access account.
struct SegmentReader<'a> {
    store: &'a SegmentStore,
    id: u64,
    path: PathBuf,
    file: Option<fs::File>,
    access: &'a mut SegmentAccess,
}

impl<'a> SegmentReader<'a> {
    fn new(store: &'a SegmentStore, meta: &SegmentMeta, access: &'a mut SegmentAccess) -> Self {
        Self {
            store,
            id: meta.id,
            path: store.dir.join(&meta.file),
            file: None,
            access,
        }
    }

    fn invalid(&self, source: BinsegError) -> SegmentError {
        SegmentError::InvalidSegment {
            path: self.path.clone(),
            source,
        }
    }

    /// Reads `len` bytes at `offset`, opening the file on first use.
    fn read_range(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, SegmentError> {
        let io_err = |source| {
            SegmentError::Persist(PersistError::Io {
                path: self.path.clone(),
                source,
            })
        };
        let file = match self.file.take() {
            Some(file) => file,
            None => fs::File::open(&self.path).map_err(io_err)?,
        };
        let file = self.file.insert(file);
        file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf).map_err(io_err)?;
        Ok(buf)
    }

    /// One verified block of the segment, through both cache tiers, with
    /// second-touch admission to the decoded one: a block that has to come
    /// from disk is left in the raw tier only and handed back
    /// [`Fetched::Fresh`]; the raw hit of its next fetch decodes it again
    /// and promotes it; from then on it is a decoded hit. A one-pass scan
    /// therefore never inserts into (or evicts from) the decoded tier.
    fn block<T: CachedBlock>(
        &mut self,
        key: BlockKey,
        offset: u64,
        len: u64,
        checksum: u64,
        decode: impl Fn(&[u8]) -> Result<T::Decoded, BinsegError>,
    ) -> Result<Fetched<T>, SegmentError> {
        let cache_key = (self.id, key);
        let raw = {
            let mut cache = self.store.cache.lock();
            if let Some(block) = cache.decoded_get(cache_key).and_then(T::extract) {
                self.access.block_hits += 1;
                return Ok(Fetched::Shared(block));
            }
            cache.raw_get(cache_key)
        };
        if let Some(bytes) = raw {
            let block = Arc::new(T::share(decode(&bytes).map_err(|e| self.invalid(e))?));
            self.access.block_raw_hits += 1;
            self.store
                .cache
                .lock()
                .decoded_insert(cache_key, T::wrap(Arc::clone(&block)));
            return Ok(Fetched::Shared(block));
        }
        let bytes = self.read_range(offset, len as usize)?;
        let found = fnv1a64(&bytes);
        if found != checksum {
            return Err(SegmentError::Corrupt {
                path: self.path.clone(),
                expected: checksum,
                found,
            });
        }
        let block = decode(&bytes).map_err(|e| self.invalid(e))?;
        self.access.blocks_read += 1;
        self.access.bytes_read += len;
        let mut cache = self.store.cache.lock();
        cache.disk_reads += 1;
        cache.note_cold(self.id);
        if cache.raw_insert(cache_key, Arc::new(bytes)) {
            return Ok(Fetched::Fresh(block));
        }
        // No probation to serve — the raw tier is off, or smaller than this
        // block — so a second touch could never be told from a first:
        // admit at once, as a one-tier cache does.
        let block = Arc::new(T::share(block));
        cache.decoded_insert(cache_key, T::wrap(Arc::clone(&block)));
        Ok(Fetched::Shared(block))
    }

    /// Closes the segment's account: cold if any fetch went to disk, a
    /// cache hit otherwise.
    fn finish(self) {
        if self.file.is_some() {
            self.access.cold_loads += 1;
        } else {
            self.access.cache_hits += 1;
        }
    }
}

/// What a scanning open ([`SegmentStore::open_scanning`]) hands every
/// record it decodes to, with the record's segment id.
type RecordVisitor<'a> = &'a mut dyn FnMut(u64, &ClusterRecord);

/// A durable, time-partitioned index store (see the module docs for the
/// on-disk layout and durability protocol).
///
/// All mutations (`seal`, `compact`) take `&mut self` and serialize their
/// atomic writes; reads (`load`, `lookup`,
/// `prefetch_adjacent`) take `&self` and share the tiered cache behind a
/// mutex, so a store can serve concurrent queries.
///
/// # Examples
///
/// ```
/// use focus_index::{ClusterKey, ClusterRecord, MemberRef, QueryFilter, SegmentStore, TopKIndex};
/// use focus_video::{ClassId, FrameId, ObjectId, StreamId, TrackId};
///
/// let dir = std::env::temp_dir().join("focus_segment_doc_example");
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut store = SegmentStore::create(&dir).unwrap();
///
/// // Seal two single-record segments covering different time windows.
/// for (local, start) in [(0u64, 0.0f64), (1, 100.0)] {
///     let mut seg = TopKIndex::new();
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
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    manifest: Manifest,
    /// The footer directory: every live segment's decoded footer, by
    /// segment id. Filled from bytes already verified in memory (`open`'s
    /// whole-file read, the encoder's output at `seal`/`compact`), dropped
    /// with the segment, never evicted — a lookup never reads a footer.
    footers: HashMap<u64, Arc<SegmentFooter>>,
    cache: Mutex<TieredCache>,
}

// The query layer shares one store across its worker threads; keep the
// store's cross-thread shareability an explicit API guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SegmentStore>();
};

impl SegmentStore {
    /// Creates a fresh, empty store at `dir` (creating the directory if
    /// needed) and writes its initial manifest.
    ///
    /// Fails with an I/O error if `dir` already contains a manifest — use
    /// [`open`](Self::open) for an existing store.
    pub fn create(dir: impl Into<PathBuf>) -> Result<SegmentStore, SegmentError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| {
            SegmentError::Persist(PersistError::Io {
                path: dir.clone(),
                source,
            })
        })?;
        let manifest_path = dir.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(SegmentError::Persist(PersistError::Io {
                path: manifest_path,
                source: std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "store already exists; use SegmentStore::open",
                ),
            }));
        }
        let manifest = Manifest::new();
        manifest.save(&manifest_path)?;
        Ok(SegmentStore {
            dir,
            manifest,
            footers: HashMap::new(),
            cache: Mutex::new(TieredCache::new(
                DEFAULT_CACHE_CAPACITY,
                DEFAULT_RAW_CACHE_BYTES,
            )),
        })
    }

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
        Self::open_body(dir.into(), DEFAULT_CACHE_CAPACITY, None)
    }

    /// [`open`](Self::open), plus a record pass over the same verified
    /// bytes — still one read per segment. Every record of every segment
    /// that verifies is handed to `visit` with its segment id, segment by
    /// segment in manifest order (within a segment, in no particular
    /// order). Of the `n` listed segments, the last `min(n, capacity)` —
    /// those of them that verify — are decoded whole from the same bytes
    /// and left resident in the decoded tier in manifest order: what a pass
    /// of whole-segment loads over the store would leave there, so the
    /// first requests after a restart find the recent segments warm. The
    /// raw tier stays empty.
    ///
    /// This is the open `FocusService::recover` runs: its checks (centroid
    /// resolvability, key-disjointness, next cluster keys) need every
    /// record once, and a second pass would read and decode every segment
    /// again.
    pub fn open_scanning(
        dir: impl Into<PathBuf>,
        mut visit: impl FnMut(u64, &ClusterRecord),
    ) -> Result<(SegmentStore, OpenReport), SegmentError> {
        Self::open_body(dir.into(), DEFAULT_CACHE_CAPACITY, Some(&mut visit))
    }

    /// The one open body: [`open`](Self::open) when `visit` is `None`,
    /// [`open_scanning`](Self::open_scanning) otherwise.
    fn open_body(
        dir: PathBuf,
        decoded_capacity: usize,
        mut visit: Option<RecordVisitor<'_>>,
    ) -> Result<(SegmentStore, OpenReport), SegmentError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest = Manifest::load(&manifest_path)?;
        let mut report = OpenReport::default();
        let mut cache = TieredCache::new(decoded_capacity, DEFAULT_RAW_CACHE_BYTES);

        // Verify every listed segment's bytes against its checksum, and
        // keep the footer of each one that passes: the bytes are in memory
        // and vouched for, so the directory costs no I/O of its own — and
        // neither does the record pass.
        let listed_count = manifest.segments.len();
        let warm_from = listed_count.saturating_sub(cache.decoded_capacity);
        let mut verified = Vec::with_capacity(listed_count);
        let mut footers = HashMap::with_capacity(listed_count);
        for (position, meta) in std::mem::take(&mut manifest.segments)
            .into_iter()
            .enumerate()
        {
            let path = dir.join(&meta.file);
            match fs::read(&path) {
                Ok(bytes) if fnv1a64(&bytes) == meta.checksum => {
                    let invalid = |source| SegmentError::InvalidSegment {
                        path: path.clone(),
                        source,
                    };
                    let footer = binseg::footer_of(&bytes).map_err(invalid)?;
                    if let Some(visit) = visit.as_deref_mut() {
                        if position >= warm_from {
                            let index = binseg::decode_vouched(&bytes, &footer).map_err(invalid)?;
                            index.clusters().for_each(|r| visit(meta.id, r));
                            let entry = DecodedEntry::Whole(Arc::new(index));
                            cache.decoded_insert((meta.id, BlockKey::Whole), entry);
                        } else {
                            let records =
                                binseg::decode_records(&bytes, &footer).map_err(invalid)?;
                            records.iter().for_each(|r| visit(meta.id, r));
                        }
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

    /// Returns the store with the decoded-block LRU capacity set to
    /// `capacity` entries (minimum 1; the default is
    /// [`DEFAULT_CACHE_CAPACITY`]).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        let raw_capacity = self.cache.lock().raw_capacity;
        SegmentStore {
            cache: Mutex::new(TieredCache::new(capacity, raw_capacity)),
            ..self
        }
    }

    /// Returns the store with the raw-bytes tier capped at `bytes` (0
    /// disables the tier; the default is [`DEFAULT_RAW_CACHE_BYTES`]).
    pub fn with_raw_capacity(self, bytes: u64) -> Self {
        let decoded_capacity = self.cache.lock().decoded_capacity;
        SegmentStore {
            cache: Mutex::new(TieredCache::new(decoded_capacity, bytes)),
            ..self
        }
    }

    /// Returns the store unchanged: [`SegmentFormat::Binary`] is the only
    /// format, and this builder remains only because the benchmark's probe
    /// names it.
    pub fn with_seal_format(self, _format: SegmentFormat) -> Self {
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The live segments, in seal order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.manifest.segments
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Whether the store holds no segments.
    pub fn is_empty(&self) -> bool {
        self.manifest.segments.is_empty()
    }

    /// Total cluster records across all live segments.
    pub fn total_clusters(&self) -> usize {
        self.manifest.segments.iter().map(|s| s.clusters).sum()
    }

    /// Occupancy and hit rates of both cache tiers.
    pub fn cache_occupancy(&self) -> LruOccupancy {
        self.cache.lock().occupancy()
    }

    /// Decodes a whole segment's bytes.
    fn decode_segment(&self, meta: &SegmentMeta, bytes: &[u8]) -> Result<TopKIndex, SegmentError> {
        binseg::decode(bytes).map_err(|source| SegmentError::InvalidSegment {
            path: self.dir.join(&meta.file),
            source,
        })
    }

    /// Encodes `index` as the next segment, writes its file atomically and
    /// enters its footer (decoded back out of the encoder's bytes) in the
    /// directory. The returned entry is not live until the caller commits
    /// it to the manifest; until then the file is an orphan
    /// [`open`](Self::open) would quarantine, and its directory entry is
    /// as inert — ids are never reused and lookups walk the manifest.
    fn write_segment(
        &mut self,
        index: &TopKIndex,
        t_start: f64,
        t_end: f64,
    ) -> Result<SegmentMeta, SegmentError> {
        let id = self.manifest.allocate_id();
        let format = SegmentFormat::Binary;
        let file = format.file_name(id);
        let payload = binseg::encode(index);
        let path = self.dir.join(&file);
        let footer =
            binseg::footer_of(&payload).map_err(|source| SegmentError::InvalidSegment {
                path: path.clone(),
                source,
            })?;
        write_atomic_bytes(&path, &payload)
            .map_err(|source| SegmentError::Persist(PersistError::Io { path, source }))?;
        self.footers.insert(id, Arc::new(footer));
        Ok(SegmentMeta {
            id,
            file,
            t_start,
            t_end,
            streams: index.streams(),
            clusters: index.len(),
            checksum: fnv1a64(&payload),
            format,
        })
    }

    /// Seals `index` as one new immutable segment: writes the segment file
    /// atomically, then commits it to the manifest. An empty index seals
    /// nothing and returns `Ok(None)`.
    ///
    /// The segment's time bounds are the tight cover of the records' time
    /// ranges and its stream list is exactly the records' streams, which is
    /// what makes later pruning sound (see [`SegmentMeta::admits_filter`]).
    pub fn seal(&mut self, index: &TopKIndex) -> Result<Option<SegmentMeta>, SegmentError> {
        if index.is_empty() {
            return Ok(None);
        }
        let mut t_start = f64::INFINITY;
        let mut t_end = f64::NEG_INFINITY;
        for record in index.clusters() {
            t_start = t_start.min(record.start_secs);
            t_end = t_end.max(record.end_secs);
        }
        let meta = self.write_segment(index, t_start, t_end)?;
        self.manifest.segments.push(meta.clone());
        self.manifest.save(&self.dir.join(MANIFEST_FILE))?;
        Ok(Some(meta))
    }

    /// Loads segment `id`, serving it from the cache tiers when possible
    /// and verifying the manifest checksum on every cold load.
    ///
    /// Segment files are binary; to read one as text, render the loaded
    /// index in its canonical JSON form:
    ///
    /// ```
    /// use focus_index::{persist, ClusterKey, ClusterRecord, MemberRef, SegmentStore, TopKIndex};
    /// use focus_video::{ClassId, FrameId, ObjectId, StreamId, TrackId};
    ///
    /// let dir = std::env::temp_dir().join("focus_segment_inspect_doc_example");
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = SegmentStore::create(&dir).unwrap();
    /// let mut seg = TopKIndex::new();
    /// seg.insert(ClusterRecord {
    ///     key: ClusterKey::new(StreamId(0), 0),
    ///     centroid_object: ObjectId(0),
    ///     centroid_frame: FrameId(0),
    ///     top_k_classes: vec![ClassId(7)],
    ///     members: vec![MemberRef { object: ObjectId(0), frame: FrameId(0), track: TrackId(0) }],
    ///     start_secs: 0.0,
    ///     end_secs: 10.0,
    /// });
    /// let id = store.seal(&seg).unwrap().unwrap().id;
    ///
    /// let text = persist::to_json(&*store.load(id).unwrap()).unwrap();
    /// assert!(text.starts_with("{\"version\":1,"));
    /// assert_eq!(text, persist::to_json(&seg).unwrap());
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn load(&self, id: u64) -> Result<Arc<TopKIndex>, SegmentError> {
        let meta = self
            .manifest
            .segment(id)
            .ok_or(SegmentError::UnknownSegment { id })?;
        let (index, _) = self.load_whole(meta, true)?;
        Ok(index)
    }

    /// Loads a whole segment through the cache tiers; returns the decoded
    /// index and whether it was already resident in the decoded tier.
    fn load_whole(
        &self,
        meta: &SegmentMeta,
        note_cold: bool,
    ) -> Result<(Arc<TopKIndex>, bool), SegmentError> {
        let key = (meta.id, BlockKey::Whole);
        let raw = {
            let mut cache = self.cache.lock();
            if let Some(DecodedEntry::Whole(index)) = cache.decoded_get(key) {
                return Ok((index, true));
            }
            cache.raw_get(key)
        };
        if let Some(bytes) = raw {
            let index = Arc::new(self.decode_segment(meta, &bytes)?);
            self.cache
                .lock()
                .decoded_insert(key, DecodedEntry::Whole(Arc::clone(&index)));
            return Ok((index, false));
        }
        let path = self.dir.join(&meta.file);
        let bytes = fs::read(&path).map_err(|source| {
            SegmentError::Persist(PersistError::Io {
                path: path.clone(),
                source,
            })
        })?;
        let found = fnv1a64(&bytes);
        if found != meta.checksum {
            return Err(SegmentError::Corrupt {
                path,
                expected: meta.checksum,
                found,
            });
        }
        let index = Arc::new(self.decode_segment(meta, &bytes)?);
        let mut cache = self.cache.lock();
        cache.disk_reads += 1;
        if note_cold {
            cache.note_cold(meta.id);
        }
        cache.raw_insert(key, Arc::new(bytes));
        cache.decoded_insert(key, DecodedEntry::Whole(Arc::clone(&index)));
        Ok((index, false))
    }

    /// Segment `id`'s footer, from the directory.
    fn footer(&self, id: u64) -> Result<&SegmentFooter, SegmentError> {
        let footer = self.footers.get(&id);
        Ok(footer.ok_or(SegmentError::UnknownSegment { id })?)
    }

    /// Block-granular lookup of `classes` in one segment: each class's
    /// postings block, then only the record blocks covering the union of
    /// their candidate keys — every block fetched, verified against its
    /// footer checksum and decoded once, whatever the number of classes.
    /// A record qualifies when it passes the single-class predicate (key in
    /// that class's postings, `kx`, `filter.admits`) for any class.
    fn lookup_segment(
        &self,
        meta: &SegmentMeta,
        footer: &SegmentFooter,
        classes: &[ClassId],
        filter: &QueryFilter,
        access: &mut SegmentAccess,
    ) -> Result<Vec<Arc<ClusterRecord>>, SegmentError> {
        let mut reader = SegmentReader::new(self, meta, access);
        let mut postings = Vec::with_capacity(classes.len());
        for &class in classes {
            if let Some(pmeta) = footer.postings_for(class) {
                let keys = reader.block::<Vec<ClusterKey>>(
                    BlockKey::Postings(class.0),
                    pmeta.offset,
                    pmeta.len,
                    pmeta.checksum,
                    binseg::decode_postings_block,
                )?;
                postings.push((class, keys));
            }
        }
        // A stream restriction narrows the candidate keys before any
        // record block is chosen — fewer blocks read, fewer bytes.
        let mut candidates: Vec<ClusterKey> = postings
            .iter()
            .flat_map(|(_, keys)| keys.iter().copied())
            .filter(|key| {
                filter
                    .streams
                    .as_ref()
                    .is_none_or(|streams| streams.contains(&key.stream))
            })
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let qualifies = |record: &ClusterRecord| {
            filter.admits(record)
                && postings.iter().any(|(class, keys)| {
                    keys.binary_search(&record.key).is_ok()
                        && filter.kx.is_none_or(|kx| record.matches_class(*class, kx))
                })
        };
        let mut out = Vec::new();
        for block_idx in footer.blocks_covering(&candidates) {
            let bmeta = footer.record_blocks[block_idx];
            let block = reader.block::<Vec<Arc<ClusterRecord>>>(
                BlockKey::Records(block_idx as u32),
                bmeta.offset,
                bmeta.len,
                bmeta.checksum,
                |bytes| binseg::decode_record_block(bytes, footer.version),
            )?;
            // A shared block's records are handed out as they are; a fresh
            // one's are wrapped once, only those that qualify.
            match block {
                Fetched::Shared(records) => {
                    out.extend(records.iter().filter(|r| qualifies(r)).cloned())
                }
                Fetched::Fresh(records) => {
                    out.extend(records.into_iter().filter(|r| qualifies(r)).map(Arc::new))
                }
            }
        }
        reader.finish();
        Ok(out)
    }

    /// Pruned lookup: opens only the segments intersecting `filter`, runs
    /// [`TopKIndex::lookup`] in each (reading only the needed blocks), and
    /// returns the union sorted by cluster key — byte-identical to looking
    /// `class` up in the merged in-memory index (segments are key-disjoint,
    /// so no deduplication across segments is ever needed; a store that
    /// breaks this fails with [`SegmentError::DuplicateKey`]).
    pub fn lookup(
        &self,
        class: ClassId,
        filter: &QueryFilter,
    ) -> Result<SegmentLookup, SegmentError> {
        let GroupedLookup { groups, access } = self.lookup_grouped(class, filter)?;
        let mut records: Vec<Arc<ClusterRecord>> = groups
            .into_iter()
            .flat_map(|(_, records)| records)
            .collect();
        records.sort_by_key(|r| r.key);
        Ok(SegmentLookup { records, access })
    }

    /// The same pruned lookup as [`lookup`](Self::lookup), but keeping each
    /// contributing segment's records as a separate group (manifest order,
    /// empty groups dropped) instead of flattening into one sorted run:
    /// [`lookup_classes_grouped`](Self::lookup_classes_grouped) for one
    /// class.
    pub fn lookup_grouped(
        &self,
        class: ClassId,
        filter: &QueryFilter,
    ) -> Result<GroupedLookup, SegmentError> {
        self.lookup_classes_grouped(&[class], filter)
    }

    /// The store's one lookup body: every record matching *any* of the
    /// (distinct) `classes` under `filter`, grouped by contributing
    /// segment — the union of the per-class [`lookup`](Self::lookup)s,
    /// with a record that matches several classes returned once.
    ///
    /// The walk is segment-major: each segment admitted by `filter` is
    /// visited once. Its footer comes from the resident directory, so a
    /// segment that posts none of `classes` is skipped without opening its
    /// file; otherwise each class's postings block and each record block
    /// covering the union of their keys is fetched once. Cross-segment
    /// key-disjointness is checked over the whole answer, across classes
    /// too; a violation is [`SegmentError::DuplicateKey`] naming both
    /// segments.
    pub fn lookup_classes_grouped(
        &self,
        classes: &[ClassId],
        filter: &QueryFilter,
    ) -> Result<GroupedLookup, SegmentError> {
        let mut access = SegmentAccess {
            segments_total: self.manifest.segments.len(),
            ..SegmentAccess::default()
        };
        let mut groups: Vec<(u64, Vec<Arc<ClusterRecord>>)> = Vec::new();
        for meta in self
            .manifest
            .segments
            .iter()
            .filter(|m| m.admits_filter(filter))
        {
            access.segments_considered += 1;
            let footer = self.footer(meta.id)?;
            if !classes.iter().any(|c| footer.postings_for(*c).is_some()) {
                continue;
            }
            // A resident whole index is the fastest path: no block
            // navigation at all.
            let whole = self.cache.lock().decoded_get((meta.id, BlockKey::Whole));
            let records = if let Some(DecodedEntry::Whole(index)) = whole {
                access.cache_hits += 1;
                access.block_hits += 1;
                let mut hits: Vec<&Arc<ClusterRecord>> = classes
                    .iter()
                    .flat_map(|class| index.lookup(*class, filter))
                    .collect();
                hits.sort_by_key(|r| r.key);
                hits.dedup_by_key(|r| r.key);
                hits.into_iter().cloned().collect()
            } else {
                self.lookup_segment(meta, footer, classes, filter, &mut access)?
            };
            if !records.is_empty() {
                groups.push((meta.id, records));
            }
        }
        // Segments are key-disjoint by construction; a key two groups share
        // means a corrupt store, and silently dropping one record would
        // mask it.
        let mut keys: Vec<(ClusterKey, u64)> = groups
            .iter()
            .flat_map(|(id, records)| records.iter().map(move |r| (r.key, *id)))
            .collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(SegmentError::DuplicateKey {
                key: pair[0].0,
                segments: [pair[0].1, pair[1].1],
            });
        }
        Ok(GroupedLookup { groups, access })
    }

    /// All track sketches reachable under `filter`'s *stream* restriction,
    /// absorb-merged per track across segments.
    ///
    /// Only stream pruning applies: a sketch summarises a track's whole
    /// life, so a time-restricted query must still see the complete path —
    /// pruning by the filter's time range would truncate sketches at
    /// segment boundaries and turn the conservative track planner unsound.
    /// Reads only each segment's tracks block, verified against its
    /// footer checksum — a flipped bit inside the tracks block surfaces as
    /// [`SegmentError::Corrupt`] exactly like record and postings blocks —
    /// and through both cache tiers like them. The footer comes from the
    /// resident directory, so a segment without a tracks block is skipped
    /// without opening its file.
    pub fn sketches(
        &self,
        filter: &QueryFilter,
    ) -> Result<(HashMap<TrackKey, TrackSketch>, SegmentAccess), SegmentError> {
        let mut access = SegmentAccess {
            segments_total: self.manifest.segments.len(),
            ..SegmentAccess::default()
        };
        let mut merged: HashMap<TrackKey, TrackSketch> = HashMap::new();
        let absorb = |merged: &mut HashMap<TrackKey, TrackSketch>, sketch: &TrackSketch| {
            if let Some(streams) = &filter.streams {
                if !streams.contains(&sketch.key.stream) {
                    return;
                }
            }
            match merged.get_mut(&sketch.key) {
                Some(existing) => existing.absorb(sketch),
                None => {
                    merged.insert(sketch.key, sketch.clone());
                }
            }
        };
        for meta in self
            .manifest
            .segments
            .iter()
            .filter(|m| match &filter.streams {
                Some(streams) => m.streams.iter().any(|s| streams.contains(s)),
                None => true,
            })
        {
            access.segments_considered += 1;
            let Some(tmeta) = self.footer(meta.id)?.tracks else {
                continue;
            };
            // A resident whole index is the fastest path.
            if let Some(DecodedEntry::Whole(index)) =
                self.cache.lock().decoded_get((meta.id, BlockKey::Whole))
            {
                access.cache_hits += 1;
                access.block_hits += 1;
                for sketch in index.sketches() {
                    absorb(&mut merged, sketch);
                }
                continue;
            }
            let mut reader = SegmentReader::new(self, meta, &mut access);
            let sketches = reader.block::<Vec<TrackSketch>>(
                BlockKey::Tracks,
                tmeta.offset,
                tmeta.len,
                tmeta.checksum,
                binseg::decode_tracks_block,
            )?;
            for sketch in sketches.iter() {
                absorb(&mut merged, sketch);
            }
            reader.finish();
        }
        Ok((merged, access))
    }

    /// Merges every live segment into one in-memory index (manifest order).
    /// This is the reference the pruned query path is tested against, and
    /// an inspection tool for callers that want the whole corpus in memory;
    /// it reads and decodes every segment again, so recovery does not use
    /// it ([`open_scanning`](Self::open_scanning) checks records in the
    /// open's own pass).
    pub fn merged_index(&self) -> Result<TopKIndex, SegmentError> {
        let mut merged = TopKIndex::new();
        for meta in &self.manifest.segments {
            let (index, _) = self.load_whole(meta, false)?;
            let replaced = merged.merge_from(&index);
            assert_eq!(replaced, 0, "segments must be key-disjoint");
        }
        Ok(merged)
    }

    /// Folds runs of adjacent small segments into larger ones: consecutive
    /// segments (in seal order) whose combined record count stays within
    /// `max_clusters` are merged into a single new segment. Query results are
    /// unchanged — the same records end up live, in fewer files.
    ///
    /// Crash-safe in the same way as sealing: each replacement segment file
    /// is written atomically before the manifest commits the swap, and the
    /// obsolete files are deleted only afterwards (a crash in between leaves
    /// orphans that the next [`open`](Self::open) quarantines).
    ///
    /// Returns the number of segments folded away (old segments removed
    /// minus replacements added).
    pub fn compact(&mut self, max_clusters: usize) -> Result<usize, SegmentError> {
        // Work on a copy: the live segment list must stay intact if any
        // write below fails (replacement files already written become
        // orphans that the next open() quarantines — never data loss).
        let old = self.manifest.segments.clone();
        let before = old.len();
        let mut new_segments: Vec<SegmentMeta> = Vec::with_capacity(before);
        let mut obsolete: Vec<SegmentMeta> = Vec::new();
        let mut run: Vec<SegmentMeta> = Vec::new();
        let mut run_clusters = 0usize;

        // Writes a run back: runs of one keep their segment untouched; runs
        // of two or more are merged into a freshly sealed replacement.
        let flush = |this: &mut Self,
                     run: &mut Vec<SegmentMeta>,
                     new_segments: &mut Vec<SegmentMeta>,
                     obsolete: &mut Vec<SegmentMeta>|
         -> Result<(), SegmentError> {
            if run.len() < 2 {
                new_segments.append(run);
                return Ok(());
            }
            let mut merged = TopKIndex::new();
            for meta in run.iter() {
                let (index, _) = this.load_whole(meta, false)?;
                let replaced = merged.merge_from(&index);
                assert_eq!(replaced, 0, "segments must be key-disjoint");
            }
            let t_start = run.iter().map(|m| m.t_start).fold(f64::INFINITY, f64::min);
            let t_end = run
                .iter()
                .map(|m| m.t_end)
                .fold(f64::NEG_INFINITY, f64::max);
            let meta = this.write_segment(&merged, t_start, t_end)?;
            this.cache.lock().decoded_insert(
                (meta.id, BlockKey::Whole),
                DecodedEntry::Whole(Arc::new(merged)),
            );
            obsolete.append(run);
            new_segments.push(meta);
            Ok(())
        };

        for meta in old.iter().cloned() {
            if !run.is_empty() && run_clusters + meta.clusters > max_clusters {
                flush(self, &mut run, &mut new_segments, &mut obsolete)?;
                run_clusters = 0;
            }
            run_clusters += meta.clusters;
            run.push(meta);
        }
        flush(self, &mut run, &mut new_segments, &mut obsolete)?;

        if obsolete.is_empty() {
            return Ok(0);
        }
        // Commit: swap the list in memory, persist it, then retire the old
        // files. A failed save restores the old list so the in-memory store
        // keeps matching the manifest on disk.
        self.manifest.segments = new_segments;
        if let Err(e) = self.manifest.save(&self.dir.join(MANIFEST_FILE)) {
            self.manifest.segments = old;
            return Err(e.into());
        }
        let mut cache = self.cache.lock();
        for meta in &obsolete {
            cache.remove_segment(meta.id);
            self.footers.remove(&meta.id);
            let _ = fs::remove_file(self.dir.join(&meta.file));
        }
        drop(cache);
        Ok(before - self.manifest.segments.len())
    }

    /// Warms up to `budget` segments that are manifest-adjacent to segments
    /// recently served cold on the query path — the background prefetch
    /// `FocusService::maintain()` drives between queries. Segments already
    /// resident in the decoded tier are skipped, and prefetch loads are
    /// never fed back into the recently-cold set (no cascading).
    ///
    /// Returns how many segments were actually warmed.
    pub fn prefetch_adjacent(&self, budget: usize) -> Result<usize, SegmentError> {
        if budget == 0 || self.manifest.segments.is_empty() {
            return Ok(0);
        }
        let cold = self.cache.lock().take_recent_cold();
        if cold.is_empty() {
            return Ok(0);
        }
        let mut targets: Vec<u64> = Vec::new();
        for id in cold {
            if let Some(pos) = self.manifest.segments.iter().position(|m| m.id == id) {
                if pos > 0 {
                    targets.push(self.manifest.segments[pos - 1].id);
                }
                if pos + 1 < self.manifest.segments.len() {
                    targets.push(self.manifest.segments[pos + 1].id);
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        let mut warmed = 0usize;
        for id in targets {
            if warmed >= budget {
                break;
            }
            let Some(meta) = self.manifest.segment(id) else {
                continue;
            };
            if self.cache.lock().decoded_contains((id, BlockKey::Whole)) {
                continue;
            }
            let (_, resident) = self.load_whole(meta, false)?;
            if !resident {
                warmed += 1;
            }
        }
        Ok(warmed)
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
    use crate::cluster_store::{ClusterKey, MemberRef};
    use crate::persist;
    use focus_video::{FrameId, ObjectId, StreamId, TrackId};

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("focus_segment_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(stream: u32, local: u64, class: u16, start: f64) -> ClusterRecord {
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

    fn segment_of(records: &[ClusterRecord]) -> TopKIndex {
        let mut idx = TopKIndex::new();
        for r in records {
            idx.insert(r.clone());
        }
        idx
    }

    fn seal_populated(store: &mut SegmentStore) {
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

    /// Seals three binary segments: stream 0 at [0,15], stream 0 at
    /// [100,115], stream 1 at [0,15].
    fn populated(dir: &Path) -> SegmentStore {
        let mut store = SegmentStore::create(dir).unwrap();
        seal_populated(&mut store);
        store
    }

    /// What one cold lookup of `class` costs in each segment, read off the
    /// file's own footer: the block fetches (the class's postings block and
    /// the record blocks covering its keys; the footer is resident and is
    /// not a fetch) and their bytes, which is what lands in the raw tier.
    fn lookup_costs(store: &SegmentStore, class: u16) -> Vec<(usize, u64)> {
        let segments = store.segments().iter();
        segments
            .map(|meta| lookup_cost(store, meta, class))
            .collect()
    }

    /// [`lookup_costs`] for one segment (which must post `class`).
    fn lookup_cost(store: &SegmentStore, meta: &SegmentMeta, class: u16) -> (usize, u64) {
        let bytes = fs::read(store.dir().join(&meta.file)).unwrap();
        let footer = binseg::footer_of(&bytes).unwrap();
        let postings = footer.postings_for(ClassId(class)).unwrap();
        let end = (postings.offset + postings.len) as usize;
        let block = &bytes[postings.offset as usize..end];
        let covering = footer.blocks_covering(&binseg::decode_postings_block(block).unwrap());
        let record_bytes: u64 = covering.iter().map(|b| footer.record_blocks[*b].len).sum();
        (1 + covering.len(), postings.len + record_bytes)
    }

    /// One segment of 256 records whose classes cycle 1..=8 (and all carry
    /// class 0 second), so every class's keys touch every record block.
    fn one_big_segment(store: &mut SegmentStore) -> SegmentMeta {
        let mut idx = TopKIndex::new();
        for local in 0..256u64 {
            idx.insert(record(0, local, (local % 8) as u16 + 1, local as f64));
        }
        store.seal(&idx).unwrap().unwrap()
    }

    #[test]
    fn seal_assigns_bounds_streams_and_checksums() {
        let dir = test_dir("seal_bounds");
        let mut store = SegmentStore::create(&dir).unwrap();
        let meta = store
            .seal(&segment_of(&[record(0, 0, 5, 2.0), record(0, 1, 5, 30.0)]))
            .unwrap()
            .unwrap();
        assert_eq!(meta.id, 0);
        assert_eq!(meta.file, "seg-000000.bin");
        assert_eq!(meta.t_start, 2.0);
        assert_eq!(meta.t_end, 35.0);
        assert_eq!(meta.streams, vec![StreamId(0)]);
        assert_eq!(meta.clusters, 2);
        let bytes = fs::read(dir.join(&meta.file)).unwrap();
        assert_eq!(fnv1a64(&bytes), meta.checksum);
        assert!(crate::binseg::is_binseg(&bytes));
        // Sealing an empty index is a no-op.
        assert!(store.seal(&TopKIndex::new()).unwrap().is_none());
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber_an_existing_store() {
        let dir = test_dir("create_clobber");
        let _store = SegmentStore::create(&dir).unwrap();
        assert!(SegmentStore::create(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lookup_equals_merged_index_and_prunes() {
        let dir = test_dir("lookup_prune");
        let store = populated(&dir);
        let merged = store.merged_index().unwrap();

        for (filter, expect_considered) in [
            (QueryFilter::any(), 3),
            (QueryFilter::any().with_time_range(0.0, 20.0), 2),
            (QueryFilter::for_stream(StreamId(1)), 1),
            (
                QueryFilter::for_stream(StreamId(0)).with_time_range(90.0, 200.0),
                1,
            ),
        ] {
            let lookup = store.lookup(ClassId(5), &filter).unwrap();
            let expected: Vec<Arc<ClusterRecord>> = merged
                .lookup(ClassId(5), &filter)
                .into_iter()
                .cloned()
                .collect();
            assert_eq!(lookup.records, expected, "filter {filter:?}");
            assert_eq!(
                lookup.access.segments_considered, expect_considered,
                "filter {filter:?}"
            );
            assert_eq!(lookup.access.segments_total, 3);
        }
        // A fully disjoint time range opens nothing.
        let none = store
            .lookup(
                ClassId(5),
                &QueryFilter::any().with_time_range(500.0, 600.0),
            )
            .unwrap();
        assert!(none.records.is_empty());
        assert_eq!(none.access.segments_opened(), 0);
        assert_eq!(none.access.segments_pruned(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_cold_lookup_reads_only_needed_blocks() {
        let dir = test_dir("block_reads");
        let mut store = SegmentStore::create(&dir).unwrap();
        let meta = one_big_segment(&mut store);
        let file_len = fs::metadata(dir.join(&meta.file)).unwrap().len();
        let (blocks, bytes) = lookup_costs(&store, 3)[0];

        // First touch: the class's postings block and the record blocks
        // covering its keys come from disk — not the footer (resident), not
        // the whole file — and land in the raw tier only.
        let any = QueryFilter::any();
        let cold = store.lookup(ClassId(3), &any).unwrap();
        assert_eq!(cold.records.len(), 32);
        assert_eq!(cold.access.cold_loads, 1);
        assert_eq!(cold.access.blocks_read, blocks);
        assert_eq!(cold.access.bytes_read, bytes);
        assert!(
            bytes < file_len,
            "{bytes} must undercut the file ({file_len})"
        );
        let occ = store.cache_occupancy();
        assert_eq!((occ.occupancy, occ.raw_entries), (0, blocks));
        // Second touch: every block is a raw-tier hit, re-decoded and
        // promoted; nothing is read.
        let second = store.lookup(ClassId(3), &any).unwrap();
        assert_eq!(second.access.cache_hits, 1);
        assert_eq!(second.access.block_raw_hits, blocks);
        assert_eq!(second.access.blocks_read, 0);
        assert_eq!(second.access.bytes_read, 0);
        assert_eq!(store.cache_occupancy().occupancy, blocks);
        // Third touch: all decoded-tier hits.
        let third = store.lookup(ClassId(3), &any).unwrap();
        assert_eq!(third.access.cache_hits, 1);
        assert_eq!(third.access.block_hits, blocks);
        assert_eq!(third.access.block_raw_hits + third.access.blocks_read, 0);
        assert_eq!(second.records, cold.records);
        assert_eq!(third.records, cold.records);
        // A class the segment does not post is answered by the footer
        // directory: considered, never opened.
        let none = store.lookup(ClassId(99), &any).unwrap();
        assert!(none.records.is_empty());
        assert_eq!(none.access.segments_considered, 1);
        assert_eq!(none.access.segments_opened(), 0);
        assert_eq!(none.access.blocks_read + none.access.block_hits, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_class_lookup_fetches_each_block_once() {
        let dir = test_dir("two_class");
        let mut store = SegmentStore::create(&dir).unwrap();
        one_big_segment(&mut store);
        // Classes 3 and 0 share every record block (class 0 is every
        // record's second choice).
        let (blocks_3, _) = lookup_costs(&store, 3)[0];
        let (blocks_0, _) = lookup_costs(&store, 0)[0];
        assert_eq!(blocks_3, blocks_0);
        let record_blocks = blocks_3 - 1;
        let both = store
            .lookup_classes_grouped(&[ClassId(0), ClassId(3)], &QueryFilter::any())
            .unwrap();
        // Two postings blocks and each distinct record block, each fetched
        // exactly once, all from disk: a walk that returned to the segment
        // for the second class would fetch the record blocks twice.
        assert_eq!(both.access.blocks_read, 2 + record_blocks);
        assert_eq!(both.access.block_raw_hits + both.access.block_hits, 0);
        assert_eq!(both.access.segments_considered, 1);
        assert_eq!(both.access.cold_loads, 1);
        // Every record carries class 0, a few also class 3: each once.
        assert_eq!(both.groups.len(), 1);
        assert_eq!(both.groups[0].1.len(), 256);
        // With kx = 1 only the class-3 records qualify, through either
        // class's postings.
        let top = store
            .lookup_classes_grouped(&[ClassId(0), ClassId(3)], &QueryFilter::any().with_kx(1))
            .unwrap();
        assert_eq!(top.groups[0].1.len(), 32);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_cache_serves_warm_lookups_without_reads() {
        let dir = test_dir("lru");
        let store = populated(&dir);
        let blocks: Vec<usize> = lookup_costs(&store, 5).iter().map(|c| c.0).collect();
        let all_blocks: usize = blocks.iter().sum();
        // Raw tier off — no probation to serve, so blocks are admitted to
        // the decoded tier on first touch — and a decoded tier that holds
        // exactly the blocks of the two most recently read segments.
        let store = store
            .with_cache_capacity(blocks[1] + blocks[2])
            .with_raw_capacity(0);
        let cold = store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        assert_eq!(cold.access.cold_loads, 3);
        assert_eq!(cold.access.cache_hits, 0);
        assert_eq!(cold.access.blocks_read, all_blocks);
        assert_eq!(cold.access.block_hits, 0);
        assert!(cold.access.bytes_read > 0);
        // A pruned lookup touching only the last-read segment is served
        // entirely warm.
        let last = QueryFilter::for_stream(StreamId(1));
        let warm = store.lookup(ClassId(5), &last).unwrap();
        assert_eq!(warm.access.segments_considered, 1);
        assert_eq!(warm.access.cache_hits, 1);
        assert_eq!(warm.access.cold_loads, 0);
        assert_eq!(warm.access.block_hits, blocks[2]);
        assert_eq!(warm.access.blocks_read, 0);
        // A full sequential rescan thrashes an LRU smaller than the working
        // set: every fetch evicts the block the scan needs next, and with no
        // raw tier every miss goes to disk.
        let rescan = store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        assert_eq!(rescan.access.cold_loads, 3);
        assert_eq!(rescan.access.blocks_read, all_blocks);
        assert_eq!(rescan.access.block_hits, 0);
        assert_eq!(rescan.access.block_raw_hits, 0);
        assert_eq!(rescan.records, cold.records);
        // A default store walks the three touches: disk, then raw hits
        // that promote, then decoded hits — and reads nothing after the
        // first.
        let (store, _) = SegmentStore::open(&dir).unwrap();
        store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        let second = store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        assert_eq!(second.access.cache_hits, 3);
        assert_eq!(second.access.cold_loads, 0);
        assert_eq!(second.access.block_raw_hits, all_blocks);
        assert_eq!(second.access.bytes_read, 0);
        let third = store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        assert_eq!(third.access.cache_hits, 3);
        assert_eq!(third.access.block_hits, all_blocks);
        assert_eq!(third.access.block_raw_hits, 0);
        assert_eq!(third.access.bytes_read, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn raw_tier_rescues_decoded_evictions_without_disk() {
        let dir = test_dir("raw_tier");
        // One segment, the first half of its records class 1 and the second
        // half class 2: each class's keys live in their own record blocks,
        // so the two lookups share no block.
        let mut store = SegmentStore::create(&dir).unwrap();
        let records: Vec<ClusterRecord> = (0..256u64)
            .map(|local| record(0, local, 1 + (local / 128) as u16, local as f64))
            .collect();
        store.seal(&segment_of(&records)).unwrap();
        let (blocks, raw_bytes) = lookup_costs(&store, 1)[0];
        let (other_blocks, other_raw_bytes) = lookup_costs(&store, 2)[0];
        assert_eq!(other_blocks, blocks);
        assert!(blocks > 3, "each class must span several record blocks");
        // The decoded tier holds one lookup's blocks, not two.
        let store = store.with_cache_capacity(blocks);
        let any = QueryFilter::any();
        // First touches go to disk and stay on probation in the raw tier.
        let first = store.lookup(ClassId(1), &any).unwrap();
        assert_eq!(first.access.cold_loads, 1);
        assert_eq!(first.access.blocks_read, blocks);
        let other = store.lookup(ClassId(2), &any).unwrap();
        assert_eq!(other.access.blocks_read, blocks);
        let disk_reads = store.cache_occupancy().disk_reads;
        assert_eq!(disk_reads as usize, 2 * blocks);
        assert_eq!(store.cache_occupancy().occupancy, 0);
        // Second touches promote; class 2's promotion evicts every decoded
        // block of class 1.
        for class in [1, 2] {
            let again = store.lookup(ClassId(class), &any).unwrap();
            assert_eq!(again.access.block_raw_hits, blocks);
            assert_eq!(again.access.blocks_read, 0);
        }
        assert_eq!(store.cache_occupancy().occupancy, blocks);
        // The evicted blocks are re-decoded from the raw tier, never re-read.
        let again = store.lookup(ClassId(1), &any).unwrap();
        assert_eq!(again.records, first.records);
        assert_eq!(again.access.cold_loads, 0);
        assert_eq!(again.access.cache_hits, 1);
        assert_eq!(again.access.block_hits, 0);
        assert_eq!(again.access.block_raw_hits, blocks);
        assert_eq!(again.access.blocks_read, 0);
        assert_eq!(again.access.bytes_read, 0);
        // And what is resident is served decoded.
        let resident = store.lookup(ClassId(1), &any).unwrap();
        assert_eq!(resident.access.block_hits, blocks);
        let occ = store.cache_occupancy();
        assert_eq!(occ.disk_reads, disk_reads);
        assert_eq!(occ.raw_hits as usize, 3 * blocks);
        assert_eq!(occ.raw_entries, 2 * blocks);
        assert_eq!(occ.raw_occupancy_bytes, raw_bytes + other_raw_bytes);
        assert!(occ.raw_hit_rate() > 0.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn class_absent_segments_are_skipped_without_opening_the_file() {
        let dir = test_dir("class_skip");
        let store = populated(&dir);
        // Delete the middle segment (the only one posting class 6) behind
        // the store's back.
        let victim = store.segments()[1].clone();
        fs::remove_file(dir.join(&victim.file)).unwrap();
        // Class 7 lives in the last segment only: the footer directory rules
        // the other two out, so the missing file is never asked for.
        let found = store.lookup(ClassId(7), &QueryFilter::any()).unwrap();
        assert_eq!(found.records.len(), 1);
        assert_eq!(found.access.segments_considered, 3);
        assert_eq!(found.access.cold_loads, 1);
        assert_eq!(found.access.cache_hits, 0);
        assert_eq!(
            found.access.blocks_read,
            lookup_cost(&store, &store.segments()[2], 7).0
        );
        // A class the missing segment does post has to open it.
        match store.lookup(ClassId(6), &QueryFilter::any()) {
            Err(SegmentError::Persist(PersistError::Io { path, .. })) => {
                assert_eq!(path, dir.join(&victim.file))
            }
            other => panic!("expected an I/O error naming the file, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn footer_directory_tracks_the_live_segments() {
        let dir = test_dir("directory");
        let store = populated(&dir);
        let on_disk = |store: &SegmentStore| -> HashMap<u64, SegmentFooter> {
            let footer = |meta: &SegmentMeta| {
                let bytes = fs::read(store.dir().join(&meta.file)).unwrap();
                (meta.id, binseg::footer_of(&bytes).unwrap())
            };
            store.segments().iter().map(footer).collect()
        };
        let resident = |store: &SegmentStore| -> HashMap<u64, SegmentFooter> {
            let footers = store.footers.iter();
            footers.map(|(id, f)| (*id, (**f).clone())).collect()
        };
        // Sealed, reopened, sealed again, compacted, reopened: at every
        // step the directory holds exactly the live segments' footers.
        assert_eq!(resident(&store), on_disk(&store));
        let (mut store, _) = SegmentStore::open(&dir).unwrap();
        assert_eq!(resident(&store), on_disk(&store));
        store.seal(&segment_of(&[record(2, 0, 9, 50.0)])).unwrap();
        assert_eq!(resident(&store), on_disk(&store));
        // Budget 4 folds the four segments (2, 2, 2 and 1 records) pairwise.
        let folded_away: Vec<u64> = store.segments().iter().map(|m| m.id).collect();
        assert_eq!(store.compact(4).unwrap(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(resident(&store), on_disk(&store));
        assert!(folded_away.iter().all(|id| !store.footers.contains_key(id)));
        let (store, report) = SegmentStore::open(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(resident(&store), on_disk(&store));
        assert_eq!(store.footers.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_disjointness_holds_across_lookup_classes() {
        let dir = test_dir("duplicate_key");
        let mut store = SegmentStore::create(&dir).unwrap();
        // Two hand-sealed segments holding the same cluster key, posted
        // under class 5 in one and class 6 in the other.
        store
            .seal(&segment_of(&[record(0, 0, 5, 0.0), record(0, 1, 5, 10.0)]))
            .unwrap();
        store
            .seal(&segment_of(&[record(0, 1, 6, 10.0), record(0, 2, 6, 20.0)]))
            .unwrap();
        let any = QueryFilter::any();
        // Either class alone sees one copy and answers; together they
        // collide, and the error names the key and both segments.
        assert_eq!(store.lookup(ClassId(5), &any).unwrap().records.len(), 2);
        assert_eq!(store.lookup(ClassId(6), &any).unwrap().records.len(), 2);
        match store.lookup_classes_grouped(&[ClassId(5), ClassId(6)], &any) {
            Err(SegmentError::DuplicateKey { key, segments }) => {
                assert_eq!(key, ClusterKey::new(StreamId(0), 1));
                assert_eq!(segments, [store.segments()[0].id, store.segments()[1].id]);
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

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

    /// Recovery's open visits every record once and leaves warm exactly
    /// what a full pass of whole-segment loads (`merged_index`, the pass it
    /// replaces) leaves: the last `capacity` segments, in manifest order —
    /// here two of three, after a compaction made manifest order differ
    /// from id order. Plain `open` leaves both tiers empty.
    #[test]
    fn scanning_open_warms_the_last_segments_in_manifest_order() {
        let dir = test_dir("open_scanning");
        let mut store = populated(&dir);
        let three = [0, 1, 2].map(|local| record(2, local, 5, local as f64));
        store.seal(&segment_of(&three)).unwrap();
        // Sizes 2, 2, 2, 3 under a cap of 4: only [0, 1] fold, into id 4,
        // listed where they were: manifest [4, 2, 3].
        store.compact(4).unwrap();
        let order: Vec<u64> = store.segments().iter().map(|m| m.id).collect();
        assert_eq!(order, vec![4, 2, 3]);
        drop(store);

        let mut seen = Vec::new();
        let mut visit = |id: u64, record: &ClusterRecord| seen.push((record.key, id));
        let (scanned, report) = SegmentStore::open_body(dir.clone(), 2, Some(&mut visit)).unwrap();
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

        let resident = |store: &SegmentStore| -> Vec<CacheKey> {
            store.cache.lock().decoded_order.iter().copied().collect()
        };
        assert_eq!(
            resident(&scanned),
            vec![(2, BlockKey::Whole), (3, BlockKey::Whole)]
        );
        let occupancy = scanned.cache_occupancy();
        assert_eq!((occupancy.occupancy, occupancy.raw_entries), (2, 0));
        assert_eq!(occupancy.disk_reads, 0);

        let (plain, _) = SegmentStore::open(&dir).unwrap();
        assert_eq!(plain.cache_occupancy().occupancy, 0);
        assert_eq!(plain.cache_occupancy().raw_entries, 0);
        let plain = plain.with_cache_capacity(2);
        plain.merged_index().unwrap();
        assert_eq!(resident(&plain), resident(&scanned));
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
    fn corruption_after_open_is_detected_at_load_time() {
        let dir = test_dir("late_corrupt");
        let store = populated(&dir);
        let meta = store.segments()[0].clone();
        let path = dir.join(&meta.file);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match store.load(meta.id) {
            Err(SegmentError::Corrupt {
                expected, found, ..
            }) => {
                assert_eq!(expected, meta.checksum);
                assert_ne!(found, expected);
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        assert!(matches!(
            store.load(999),
            Err(SegmentError::UnknownSegment { id: 999 })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn block_corruption_is_detected_at_lookup_time() {
        let dir = test_dir("block_corrupt");
        let store = populated(&dir);
        // Corrupt a byte early in the file — inside a record or postings
        // block, leaving the trailer/footer intact — after open-time
        // verification already passed.
        let meta = store.segments()[0].clone();
        let path = dir.join(&meta.file);
        let mut bytes = fs::read(&path).unwrap();
        bytes[6] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match store.lookup(ClassId(5), &QueryFilter::any()) {
            Err(SegmentError::Corrupt {
                expected, found, ..
            }) => assert_ne!(expected, found),
            other => panic!("expected block corruption error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// One-record index with a two-observation sketch for `track` on
    /// `stream`, windowed at `start`.
    fn sketched_index(stream: u32, local: u64, start: f64, track: u64) -> TopKIndex {
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
    fn sketches_merge_across_segments_and_ignore_time_pruning() {
        let dir = test_dir("sketches_store");
        let mut store = SegmentStore::create(&dir).unwrap();
        // The same track appears in two segments (key-disjoint records);
        // a third segment covers another stream.
        store.seal(&sketched_index(0, 0, 0.0, 7)).unwrap();
        store.seal(&sketched_index(0, 1, 100.0, 7)).unwrap();
        store.seal(&sketched_index(1, 2, 0.0, 3)).unwrap();

        let (all, access) = store.sketches(&QueryFilter::any()).unwrap();
        assert_eq!(access.segments_considered, 3);
        assert_eq!(all.len(), 2);
        let merged = &all[&TrackKey {
            stream: StreamId(0),
            track: TrackId(7),
        }];
        assert_eq!(merged.observations, 4);
        assert_eq!(merged.t_start, 0.0);
        assert_eq!(merged.t_end, 102.0);

        // A time restriction does not truncate sketches: the merged sketch
        // is identical to the unrestricted one.
        let (timed, timed_access) = store
            .sketches(&QueryFilter::any().with_time_range(0.0, 10.0))
            .unwrap();
        assert_eq!(timed_access.segments_considered, 3);
        assert_eq!(timed[&merged.key], *merged);

        // A stream restriction prunes segments and sketches.
        let (scoped, scoped_access) = store
            .sketches(&QueryFilter::for_stream(StreamId(1)))
            .unwrap();
        assert_eq!(scoped_access.segments_considered, 1);
        assert_eq!(scoped.len(), 1);
        assert!(scoped.contains_key(&TrackKey {
            stream: StreamId(1),
            track: TrackId(3),
        }));

        // Resident whole indexes answer identically to the tracks blocks:
        // sketches ride the decoded index too.
        store.merged_index().unwrap();
        let (from_whole, whole_access) = store.sketches(&QueryFilter::any()).unwrap();
        assert_eq!(from_whole, all);
        assert_eq!(whole_access.block_hits, 3);
        assert_eq!(whole_access.blocks_read, 0);

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sketch_block_corruption_fails_checksum_and_quarantines_on_open() {
        let dir = test_dir("sketch_corrupt");
        let mut store = SegmentStore::create(&dir).unwrap();
        store.seal(&sketched_index(0, 0, 0.0, 1)).unwrap();
        let meta = store.segments()[0].clone();
        let path = dir.join(&meta.file);
        // Flip one byte inside the tracks block (located via the trailer
        // and footer), leaving every other block intact.
        let mut bytes = fs::read(&path).unwrap();
        let trailer = bytes[bytes.len() - binseg::TRAILER_LEN..].to_vec();
        let (foff, flen, _, version) = binseg::parse_trailer(&trailer).unwrap();
        let footer =
            binseg::decode_footer(&bytes[foff as usize..(foff + flen) as usize], version).unwrap();
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

    #[test]
    fn compact_folds_small_adjacent_segments_without_changing_results() {
        let dir = test_dir("compact");
        let mut store = populated(&dir);
        let before = persist::to_json(&store.merged_index().unwrap()).unwrap();
        // Each segment holds 2 clusters: a budget of 4 folds the first two
        // and leaves the third alone.
        let folded = store.compact(4).unwrap();
        assert_eq!(folded, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.segments()[0].clusters, 4);
        assert_eq!(store.segments()[0].t_start, 0.0);
        assert_eq!(store.segments()[0].t_end, 115.0);
        assert_eq!(
            persist::to_json(&store.merged_index().unwrap()).unwrap(),
            before
        );
        // Old files are gone; the store reopens cleanly and still matches.
        let (reopened, report) = SegmentStore::open(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(
            persist::to_json(&reopened.merged_index().unwrap()).unwrap(),
            before
        );
        // Compacting an already-compact store is a no-op.
        let mut reopened = reopened;
        assert_eq!(reopened.compact(4).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_everything_into_one_segment() {
        let dir = test_dir("compact_all");
        let mut store = populated(&dir);
        let before = persist::to_json(&store.merged_index().unwrap()).unwrap();
        let folded = store.compact(usize::MAX).unwrap();
        assert_eq!(folded, 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.segments()[0].streams, vec![StreamId(0), StreamId(1)]);
        assert_eq!(
            persist::to_json(&store.merged_index().unwrap()).unwrap(),
            before
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_compaction_leaves_the_segment_list_intact() {
        let dir = test_dir("compact_fail");
        let mut store = populated(&dir);
        // Delete one segment file out from under the store: the fold's load
        // fails mid-compaction. The live segment list must survive — losing
        // it would delist every segment on the next manifest save.
        let victim = store.segments()[1].file.clone();
        fs::remove_file(dir.join(&victim)).unwrap();
        assert!(store.compact(usize::MAX).is_err());
        assert_eq!(store.len(), 3);
        // And it still matches the manifest on disk.
        let manifest = Manifest::load(&dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.segments, store.segments());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetch_warms_manifest_adjacent_segments() {
        let dir = test_dir("prefetch");
        let store = populated(&dir);
        // Nothing recently cold: prefetch is a no-op.
        assert_eq!(store.prefetch_adjacent(8).unwrap(), 0);
        // A pruned cold lookup touches only the middle segment...
        let mid = QueryFilter::for_stream(StreamId(0)).with_time_range(90.0, 200.0);
        let cold = store.lookup(ClassId(5), &mid).unwrap();
        assert_eq!(cold.access.cold_loads, 1);
        // ...so prefetch warms its two manifest neighbours.
        assert_eq!(store.prefetch_adjacent(8).unwrap(), 2);
        let warm = store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        assert_eq!(warm.access.cold_loads, 0);
        assert_eq!(warm.access.cache_hits, 3);
        // The recently-cold set was drained; prefetch loads did not refill
        // it (no cascade).
        assert_eq!(store.prefetch_adjacent(8).unwrap(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_occupancy_tracks_both_tiers() {
        let dir = test_dir("occupancy");
        let store = populated(&dir);
        let costs = lookup_costs(&store, 5);
        let blocks: usize = costs.iter().map(|c| c.0).sum();
        let raw_bytes: u64 = costs.iter().map(|c| c.1).sum();
        let capacity = blocks - costs[0].0;
        let store = store.with_cache_capacity(capacity);
        let empty = store.cache_occupancy();
        assert_eq!(empty.occupancy, 0);
        assert_eq!(empty.capacity, capacity);
        assert_eq!(empty.fill_fraction(), 0.0);
        assert_eq!(empty.decoded_hit_rate(), 0.0);
        assert_eq!(empty.raw_hit_rate(), 0.0);
        // A first pass leaves every block in the raw tier and none in the
        // decoded one.
        store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        let scanned = store.cache_occupancy();
        assert_eq!(scanned.occupancy, 0, "first touch admits nothing");
        assert_eq!(scanned.disk_reads as usize, blocks);
        assert_eq!(scanned.raw_entries, blocks);
        assert_eq!(scanned.raw_occupancy_bytes, raw_bytes);
        assert!(scanned.raw_fill_fraction() > 0.0);
        assert_eq!(scanned.raw_capacity_bytes, DEFAULT_RAW_CACHE_BYTES);
        // The second pass promotes them all.
        store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        let full = store.cache_occupancy();
        assert_eq!(full.occupancy, capacity, "the promotions overflow the LRU");
        assert_eq!(full.fill_fraction(), 1.0);
        assert_eq!(full.raw_hits as usize, blocks);
        assert_eq!(full.disk_reads as usize, blocks);
        assert_eq!(full.raw_hit_rate(), 0.5);
        assert_eq!(LruOccupancy::default().fill_fraction(), 0.0);
        assert_eq!(LruOccupancy::default().raw_fill_fraction(), 0.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn access_report_arithmetic() {
        let mut a = SegmentAccess {
            segments_total: 5,
            segments_considered: 2,
            cold_loads: 1,
            cache_hits: 1,
            bytes_read: 100,
            blocks_read: 2,
            block_raw_hits: 1,
            block_hits: 3,
        };
        assert_eq!(a.segments_opened(), 2);
        assert_eq!(a.segments_pruned(), 3);
        a.merge(&SegmentAccess {
            segments_total: 5,
            segments_considered: 3,
            cold_loads: 2,
            cache_hits: 1,
            bytes_read: 50,
            blocks_read: 4,
            block_raw_hits: 2,
            block_hits: 1,
        });
        assert_eq!(a.segments_considered, 5);
        assert_eq!(a.cold_loads, 3);
        assert_eq!(a.bytes_read, 150);
        assert_eq!(a.segments_total, 5);
        assert_eq!(a.blocks_read, 6);
        assert_eq!(a.block_raw_hits, 3);
        assert_eq!(a.block_hits, 4);
    }

    #[test]
    fn errors_display_their_context() {
        let errors: [SegmentError; 5] = [
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
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::cluster_store::MemberRef;
    use focus_video::{FrameId, ObjectId, StreamId, TrackId};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// A record on one of `streams` streams whose ranking holds one to
    /// three distinct classes out of `1..=classes`.
    fn arbitrary_record(
        rng: &mut TestRng,
        streams: u64,
        classes: u64,
        local: u64,
    ) -> ClusterRecord {
        let mut top_k_classes = Vec::new();
        for _ in 0..=rng.below(3) {
            let class = ClassId(1 + rng.below(classes) as u16);
            if !top_k_classes.contains(&class) {
                top_k_classes.push(class);
            }
        }
        let start_secs = rng.below(200) as f64;
        ClusterRecord {
            key: ClusterKey::new(StreamId(rng.below(streams) as u32), local),
            centroid_object: ObjectId(local),
            centroid_frame: FrameId(local),
            top_k_classes,
            members: vec![MemberRef {
                object: ObjectId(local),
                frame: FrameId(local),
                track: TrackId(local % 4),
            }],
            start_secs,
            end_secs: start_secs + rng.below(10) as f64,
        }
    }

    /// One to three distinct classes out of `1..=classes + 1` — the last is
    /// a class no segment posts — and a filter with each of the stream, time
    /// and `kx` restrictions present half the time.
    fn arbitrary_request(
        rng: &mut TestRng,
        streams: u64,
        classes: u64,
    ) -> (Vec<ClassId>, QueryFilter) {
        let mut wanted = Vec::new();
        for _ in 0..=rng.below(3) {
            let class = ClassId(1 + rng.below(classes + 1) as u16);
            if !wanted.contains(&class) {
                wanted.push(class);
            }
        }
        let mut filter = QueryFilter::any();
        if rng.below(2) == 1 {
            let picked = (0..=rng.below(streams)).map(|_| StreamId(rng.below(streams) as u32));
            filter = filter.with_streams(picked.collect::<Vec<_>>());
        }
        if rng.below(2) == 1 {
            let from = rng.below(200) as f64;
            filter = filter.with_time_range(from, from + rng.below(100) as f64);
        }
        if rng.below(2) == 1 {
            filter = filter.with_kx(1 + rng.below(3) as usize);
        }
        (wanted, filter)
    }

    /// The union of the per-class lookups on the merged index, by key.
    fn reference(merged: &TopKIndex, classes: &[ClassId], filter: &QueryFilter) -> String {
        let mut hits: Vec<&ClusterRecord> = classes
            .iter()
            .flat_map(|class| merged.lookup(*class, filter))
            .map(|record| &**record)
            .collect();
        hits.sort_by_key(|r| r.key);
        hits.dedup_by_key(|r| r.key);
        serde_json::to_string(&hits).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The segment-major multi-class lookup is the union of the
        /// per-class lookups on the merged index — cold, on every later
        /// touch, and after compaction — whatever the cache tiers hold.
        #[test]
        fn multi_class_lookup_is_the_union_of_per_class_lookups(
            seed in 0u64..1 << 48,
            segments in 1usize..9,
            streams in 1u64..4,
            classes in 1u64..7,
            decoded_capacity in prop_oneof![Just(1usize), Just(3), Just(DEFAULT_CACHE_CAPACITY)],
            raw_tier in 0usize..3,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let dir = std::env::temp_dir().join(format!("focus_segment_prop_{seed}"));
            let _ = fs::remove_dir_all(&dir);
            let mut store = SegmentStore::create(&dir).unwrap();
            let mut local = 0u64;
            for _ in 0..segments {
                let mut index = TopKIndex::new();
                for _ in 0..=rng.below(100) {
                    index.insert(arbitrary_record(&mut rng, streams, classes, local));
                    local += 1;
                }
                store.seal(&index).unwrap();
            }
            // Raw tier: off, exactly one (largest) record block, or default.
            let largest_block = store
                .footers
                .values()
                .flat_map(|f| f.record_blocks.iter().map(|b| b.len))
                .max()
                .unwrap();
            let raw_capacity = [0, largest_block, DEFAULT_RAW_CACHE_BYTES][raw_tier];
            let mut store = store
                .with_cache_capacity(decoded_capacity)
                .with_raw_capacity(raw_capacity);
            // The reference comes from a second store on the same directory,
            // so loading it leaves this store's cache tiers alone.
            let merged = SegmentStore::open(&dir).unwrap().0.merged_index().unwrap();
            let requests: Vec<_> = (0..6)
                .map(|_| arbitrary_request(&mut rng, streams, classes))
                .collect();

            for compacted in [false, true] {
                if compacted {
                    store.compact(1 + rng.below(300) as usize).unwrap();
                }
                // Three passes: first, second and third touch of every block.
                for _ in 0..3 {
                    for (wanted, filter) in &requests {
                        let found = store.lookup_classes_grouped(wanted, filter).unwrap();
                        let order: Vec<u64> = store.segments().iter().map(|m| m.id).collect();
                        let mut at = 0;
                        for (id, group) in &found.groups {
                            prop_assert!(!group.is_empty(), "empty group for segment {id}");
                            let Some(step) = order[at..].iter().position(|live| live == id) else {
                                return Err(TestCaseError::fail(format!(
                                    "group {id} is out of manifest order {order:?}"
                                )));
                            };
                            at += step + 1;
                        }
                        let mut flat: Vec<&ClusterRecord> = found
                            .groups
                            .iter()
                            .flat_map(|(_, group)| group.iter().map(|record| &**record))
                            .collect();
                        flat.sort_by_key(|r| r.key);
                        prop_assert!(
                            serde_json::to_string(&flat).unwrap()
                                == reference(&merged, wanted, filter),
                            "classes {wanted:?} filter {filter:?} compacted {compacted}"
                        );
                    }
                }
            }
            fs::remove_dir_all(&dir).ok();
        }
    }
}
