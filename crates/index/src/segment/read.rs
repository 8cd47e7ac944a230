//! The resident read path: what is resident. The footer directory, the two
//! cache tiers (a byte-weighted [`Lru`] of decoded blocks above one of raw
//! verified bytes) and the block-granular lookups and track sketches that
//! read through them.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::Mutex;

use focus_video::{ClassId, ObjectObservation};

use crate::binseg::{self, BinsegError, BlockMeta, SegmentFooter};
use crate::cluster_store::{ClusterKey, ClusterRecord};
use crate::fs::ReadAt;
use crate::manifest::{fnv1a64, SegmentMeta};
use crate::persist::PersistError;
use crate::query::QueryFilter;
use crate::track::{TrackKey, TrackSketch};

use super::{check_disjoint, SegmentError, SegmentStore};

/// Default byte budget of the decoded-block tier. A decoded block weighs its
/// encoded length, so this is about what 1024 whole segments of a
/// ten-second, four-camera archive hold.
pub const DEFAULT_DECODED_CACHE_BYTES: u64 = 28 * 1024 * 1024;

/// Default byte budget of the raw-bytes tier.
pub const DEFAULT_RAW_CACHE_BYTES: u64 = 8 * 1024 * 1024;

/// Per-call account of what a pruned lookup touched: how many segments the
/// store holds, how many survived pruning, how the opened ones were served
/// (cold disk load vs cache), and at block granularity how many block
/// fetches went to disk vs either cache tier.
///
/// A segment is counted once per store call however many lookup classes the
/// call carries ([`SegmentStore::lookup_classes_grouped`] walks the
/// segments once), so `segments_considered`, `cold_loads` and `cache_hits`
/// in a planner's account — and in the totals a service or a fleet merges
/// from such accounts — are per request, not per lookup class. Footers are
/// resident ([`SegmentStore`]'s footer directory) and are not block
/// fetches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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

    /// Accumulates another access report into this one. Every count
    /// adds, `segments_total` included: each walk of the store could have
    /// considered every segment it saw, so the merged total bounds the
    /// merged `segments_considered` and `segments_pruned` stays the sum of
    /// the reports' pruned segments.
    pub fn merge(&mut self, other: &SegmentAccess) {
        self.segments_total += other.segments_total;
        self.segments_considered += other.segments_considered;
        self.cold_loads += other.cold_loads;
        self.cache_hits += other.cache_hits;
        self.bytes_read += other.bytes_read;
        self.blocks_read += other.blocks_read;
        self.block_raw_hits += other.block_raw_hits;
        self.block_hits += other.block_hits;
    }
}

/// Occupancy snapshot of the two cache tiers, as returned by
/// [`SegmentStore::cache_occupancy`] — what a serving layer folds into its
/// stats to see how much of the working set is resident. Where fetches
/// land is counted per call, in [`SegmentAccess`]. The footer directory is
/// outside both tiers and is not counted here: it holds one footer per
/// live segment, always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LruOccupancy {
    /// Bytes currently resident in the decoded tier, each decoded block
    /// weighed by its encoded length. A block is admitted on its second
    /// touch — the first leaves it in the raw tier only — so a one-pass
    /// scan adds nothing here.
    pub decoded_occupancy_bytes: u64,
    /// Byte budget of the decoded tier (0 disables it).
    pub decoded_capacity_bytes: u64,
    /// Entries (record, postings and tracks blocks) currently resident in
    /// the decoded tier.
    pub decoded_entries: usize,
    /// Bytes currently resident in the raw tier.
    #[serde(default)]
    pub raw_occupancy_bytes: u64,
    /// Byte capacity of the raw tier (0 disables it).
    #[serde(default)]
    pub raw_capacity_bytes: u64,
    /// Entries currently resident in the raw tier.
    #[serde(default)]
    pub raw_entries: usize,
}

/// The result of a pruned lookup: the matching records (sorted by cluster
/// key, exactly as [`TopKIndex::lookup`](crate::TopKIndex::lookup) on the merged index would return
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
/// consumes: it merges the groups and the tail into one key-sorted
/// candidate list.
///
/// A record served from the decoded tier is its record block's own
/// [`Arc`]: a hit costs a reference-count bump per record, not a copy.
#[derive(Debug, Clone)]
pub struct GroupedLookup {
    /// Per-segment record groups, manifest order, empty groups omitted.
    pub groups: Vec<(u64, Vec<Arc<ClusterRecord>>)>,
    /// What the lookup touched (summed across all opened segments).
    pub access: SegmentAccess,
}

/// Which block of a segment a cache entry holds: one record block, one
/// class's postings block, or the tracks block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum BlockKey {
    Records(u32),
    Postings(u16),
    Tracks,
}

pub(super) type CacheKey = (u64, BlockKey);

/// A decoded block in the top cache tier.
#[derive(Debug, Clone)]
enum DecodedEntry {
    Records(Arc<Vec<Arc<ClusterRecord>>>),
    Postings(Arc<Vec<ClusterKey>>),
    Tracks(Arc<Vec<TrackSketch>>),
}

/// One resident [`Lru`] entry.
#[derive(Debug)]
struct LruEntry<V> {
    value: V,
    weight: u64,
    /// When the entry was last used: its key in [`Lru::order`].
    stamp: u64,
}

/// A byte-weighted LRU map: each entry carries a weight (its block's
/// encoded length), and inserting past the byte budget evicts the least
/// recently used entries until the weights fit again. Recency is a
/// monotonic stamp kept in an ordered map, so a hit, an insert and an
/// eviction each cost O(log n).
#[derive(Debug)]
pub(crate) struct Lru<V> {
    budget: u64,
    used: u64,
    next_stamp: u64,
    entries: HashMap<CacheKey, LruEntry<V>>,
    /// Resident keys by stamp, least recently used first.
    order: BTreeMap<u64, CacheKey>,
}

impl<V: Clone> Lru<V> {
    fn new(budget: u64) -> Self {
        Self {
            budget,
            used: 0,
            next_stamp: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// The value under `key`, which becomes the most recently used entry.
    fn get(&mut self, key: CacheKey) -> Option<V> {
        let entry = self.entries.get_mut(&key)?;
        self.order.remove(&entry.stamp);
        entry.stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.insert(entry.stamp, key);
        Some(entry.value.clone())
    }

    /// Stores `value` under `key` as the most recently used entry — a key
    /// already resident is replaced and re-weighed — then evicts from the
    /// least recently used end until the weights fit the budget. An entry
    /// heavier than the whole budget would evict everything for nothing:
    /// it is refused (`false`) and nothing changes.
    pub(super) fn insert(&mut self, key: CacheKey, value: V, weight: u64) -> bool {
        if weight > self.budget {
            return false;
        }
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.order.insert(stamp, key);
        let entry = LruEntry {
            value,
            weight,
            stamp,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.used -= old.weight;
            self.order.remove(&old.stamp);
        }
        self.used += weight;
        while self.used > self.budget {
            let Some((_, evicted)) = self.order.pop_first() else {
                break;
            };
            if let Some(old) = self.entries.remove(&evicted) {
                self.used -= old.weight;
            }
        }
        true
    }

    /// Drops every entry of segment `id`, releasing its weight.
    fn remove_segment(&mut self, id: u64) {
        let (used, order) = (&mut self.used, &mut self.order);
        self.entries.retain(|key, entry| {
            if key.0 != id {
                return true;
            }
            *used -= entry.weight;
            order.remove(&entry.stamp);
            false
        });
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The two-tier cache: one [`Lru`] of decoded blocks above one of raw
/// verified block bytes, both weighed by the blocks' encoded length. A
/// decoded miss that hits the raw tier costs a re-decode instead of a disk
/// read; only a miss in both goes to disk.
///
/// The raw tier is also the decoded tier's probationary queue: a block
/// fetched from disk is inserted there only ([`SegmentReader::block`]), and
/// the raw hit of its second touch is what promotes it. Two warmers skip
/// probation, because the store holds the bytes already: recovery's open
/// ([`SegmentStore::open_scanning`]) decodes every block into the decoded
/// tier, and `write_segment` puts a fresh segment's encoded blocks into the
/// raw tier.
#[derive(Debug)]
pub(super) struct TieredCache {
    decoded: Lru<DecodedEntry>,
    pub(super) raw: Lru<Arc<Vec<u8>>>,
}

impl TieredCache {
    pub(super) fn new(decoded_bytes: u64, raw_bytes: u64) -> Self {
        Self {
            decoded: Lru::new(decoded_bytes),
            raw: Lru::new(raw_bytes),
        }
    }

    /// Drops every entry (both tiers) belonging to segment `id`.
    pub(super) fn remove_segment(&mut self, id: u64) {
        self.decoded.remove_segment(id);
        self.raw.remove_segment(id);
    }

    /// Recovery's warmer: decodes every cached block of one segment out of
    /// its verified bytes — each record handed to `visit` on the way — and
    /// keeps them in the decoded tier. Called segment by segment in
    /// manifest order, it leaves the newest blocks that fit the budget.
    /// Returns the segment's centroid observations, checked against its
    /// records (the centroid block itself stays out of the tiers).
    pub(super) fn warm_segment(
        &mut self,
        id: u64,
        bytes: &[u8],
        footer: &SegmentFooter,
        visit: &mut dyn FnMut(u64, &ClusterRecord),
    ) -> Result<Vec<ObjectObservation>, BinsegError> {
        let blocks = binseg::decode_record_blocks(bytes, footer)?;
        let centroids = binseg::decode_centroids(bytes, footer, blocks.iter().flatten())?;
        for (index, (records, meta)) in blocks.into_iter().zip(&footer.record_blocks).enumerate() {
            records.iter().for_each(|record| visit(id, record));
            let entry =
                DecodedEntry::Records(Arc::new(records.into_iter().map(Arc::new).collect()));
            let key = (id, BlockKey::Records(index as u32));
            self.decoded.insert(key, entry, meta.block.len);
        }
        for meta in &footer.postings {
            let block = binseg::block_slice(bytes, &meta.block)?;
            let entry = DecodedEntry::Postings(Arc::new(binseg::decode_postings_block(block)?));
            let key = (id, BlockKey::Postings(meta.class.0));
            self.decoded.insert(key, entry, meta.block.len);
        }
        if let Some(meta) = &footer.tracks {
            let block = binseg::block_slice(bytes, meta)?;
            let entry = DecodedEntry::Tracks(Arc::new(binseg::decode_tracks_block(block)?));
            self.decoded.insert((id, BlockKey::Tracks), entry, meta.len);
        }
        Ok(centroids)
    }

    fn occupancy(&self) -> LruOccupancy {
        LruOccupancy {
            decoded_occupancy_bytes: self.decoded.used,
            decoded_capacity_bytes: self.decoded.budget,
            decoded_entries: self.decoded.len(),
            raw_occupancy_bytes: self.raw.used,
            raw_capacity_bytes: self.raw.budget,
            raw_entries: self.raw.len(),
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
    file: Option<Box<dyn ReadAt>>,
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
        let io_err = |source| PersistError::io(&self.path, source);
        let file = match self.file.take() {
            Some(file) => file,
            None => self.store.fs.open(&self.path).map_err(io_err)?,
        };
        let file = self.file.insert(file);
        let mut buf = vec![0u8; len];
        file.read_exact_at(offset, &mut buf).map_err(io_err)?;
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
        meta: &BlockMeta,
        decode: impl Fn(&[u8]) -> Result<T::Decoded, BinsegError>,
    ) -> Result<Fetched<T>, SegmentError> {
        let (len, checksum) = (meta.len, meta.checksum);
        let cache_key = (self.id, key);
        let raw = {
            let mut cache = self.store.cache.lock();
            if let Some(block) = cache.decoded.get(cache_key).and_then(T::extract) {
                self.access.block_hits += 1;
                return Ok(Fetched::Shared(block));
            }
            cache.raw.get(cache_key)
        };
        if let Some(bytes) = raw {
            let block = Arc::new(T::share(decode(&bytes).map_err(|e| self.invalid(e))?));
            self.access.block_raw_hits += 1;
            let entry = T::wrap(Arc::clone(&block));
            self.store
                .cache
                .lock()
                .decoded
                .insert(cache_key, entry, len);
            return Ok(Fetched::Shared(block));
        }
        let bytes = self.read_range(meta.offset, len as usize)?;
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
        if cache.raw.insert(cache_key, Arc::new(bytes), len) {
            return Ok(Fetched::Fresh(block));
        }
        // No probation to serve — the raw tier is off, or smaller than this
        // block — so a second touch could never be told from a first:
        // admit at once, as a one-tier cache does.
        let block = Arc::new(T::share(block));
        cache
            .decoded
            .insert(cache_key, T::wrap(Arc::clone(&block)), len);
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

impl SegmentStore {
    /// Returns the store, both cache tiers empty, with the decoded tier
    /// capped at `bytes` of encoded blocks (0 disables the tier; the default
    /// is [`DEFAULT_DECODED_CACHE_BYTES`]).
    pub fn with_decoded_bytes(self, bytes: u64) -> Self {
        let raw_bytes = self.cache.lock().raw.budget;
        SegmentStore {
            cache: Mutex::new(TieredCache::new(bytes, raw_bytes)),
            ..self
        }
    }

    /// Returns the store, both cache tiers empty, with the raw-bytes tier
    /// capped at `bytes` (0 disables the tier; the default is
    /// [`DEFAULT_RAW_CACHE_BYTES`]).
    pub fn with_raw_capacity(self, bytes: u64) -> Self {
        let decoded_bytes = self.cache.lock().decoded.budget;
        SegmentStore {
            cache: Mutex::new(TieredCache::new(decoded_bytes, bytes)),
            ..self
        }
    }

    /// Occupancy of both cache tiers.
    pub fn cache_occupancy(&self) -> LruOccupancy {
        self.cache.lock().occupancy()
    }

    /// Segment `id`'s footer, from the directory.
    pub(super) fn footer(&self, id: u64) -> Result<&SegmentFooter, SegmentError> {
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
                    &pmeta.block,
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
                &bmeta.block,
                binseg::decode_record_block,
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
    /// [`TopKIndex::lookup`](crate::TopKIndex::lookup) in each (reading only the needed blocks), and
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
            let records = self.lookup_segment(meta, footer, classes, filter, &mut access)?;
            if !records.is_empty() {
                groups.push((meta.id, records));
            }
        }
        check_disjoint(
            groups
                .iter()
                .flat_map(|(id, records)| records.iter().map(move |r| (r.key, *id)))
                .collect(),
        )?;
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
            let mut reader = SegmentReader::new(self, meta, &mut access);
            let sketches = reader.block::<Vec<TrackSketch>>(
                BlockKey::Tracks,
                &tmeta,
                binseg::decode_tracks_block,
            )?;
            for sketch in sketches.iter() {
                absorb(&mut merged, sketch);
            }
            reader.finish();
        }
        Ok((merged, access))
    }
}

/// Every cached block of a segment and where its bytes lie: the record
/// blocks in key order, the postings blocks in class order, then the tracks
/// block. The centroid block is not among them: no lookup reads it.
pub(super) fn blocks_of(
    footer: &SegmentFooter,
) -> impl Iterator<Item = (BlockKey, &BlockMeta)> + '_ {
    let records = footer.record_blocks.iter().enumerate();
    let records = records.map(|(index, m)| (BlockKey::Records(index as u32), &m.block));
    let postings = footer.postings.iter();
    let postings = postings.map(|m| (BlockKey::Postings(m.class.0), &m.block));
    let tracks = footer.tracks.iter().map(|m| (BlockKey::Tracks, m));
    records.chain(postings).chain(tracks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::tests::{
        cold, lookup_cost, lookup_costs, mem_store, one_big_segment, populated, record, reopen,
        seal_populated, segment_of, sketched_index, weight,
    };
    use focus_video::{StreamId, TrackId};

    #[test]
    fn lookup_equals_merged_index_and_prunes() {
        let store = populated(mem_store());
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
    }

    #[test]
    fn binary_cold_lookup_reads_only_needed_blocks() {
        let mut store = mem_store();
        let meta = one_big_segment(&mut store);
        let store = cold(store);
        let file = store.fs().read(&store.dir().join(&meta.file)).unwrap();
        let file_len = file.len() as u64;
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
        assert_eq!((occ.decoded_entries, occ.raw_entries), (0, blocks));
        // Second touch: every block is a raw-tier hit, re-decoded and
        // promoted; nothing is read.
        let second = store.lookup(ClassId(3), &any).unwrap();
        assert_eq!(second.access.cache_hits, 1);
        assert_eq!(second.access.block_raw_hits, blocks);
        assert_eq!(second.access.blocks_read, 0);
        assert_eq!(second.access.bytes_read, 0);
        assert_eq!(store.cache_occupancy().decoded_entries, blocks);
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
    }

    #[test]
    fn two_class_lookup_fetches_each_block_once() {
        let mut store = mem_store();
        one_big_segment(&mut store);
        let store = cold(store);
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
    }

    #[test]
    fn lru_cache_serves_warm_lookups_without_reads() {
        let store = populated(mem_store());
        let costs = lookup_costs(&store, 5);
        let blocks: Vec<usize> = costs.iter().map(|c| c.0).collect();
        let all_blocks: usize = blocks.iter().sum();
        // Raw tier off — no probation to serve, so blocks are admitted to
        // the decoded tier on first touch — and a decoded tier whose byte
        // budget holds exactly the blocks of the two most recently read
        // segments.
        let store = store
            .with_decoded_bytes(costs[1].1 + costs[2].1)
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
        let (store, _) = reopen(&store);
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
    }

    #[test]
    fn raw_tier_rescues_decoded_evictions_without_disk() {
        // One segment, the first half of its records class 1 and the second
        // half class 2: each class's keys live in their own record blocks,
        // so the two lookups share no block.
        let mut store = mem_store();
        let records: Vec<ClusterRecord> = (0..256u64)
            .map(|local| record(0, local, 1 + (local / 128) as u16, local as f64))
            .collect();
        store.seal(&segment_of(&records)).unwrap();
        let (blocks, raw_bytes) = lookup_costs(&store, 1)[0];
        let (other_blocks, other_raw_bytes) = lookup_costs(&store, 2)[0];
        assert_eq!(other_blocks, blocks);
        assert!(blocks > 3, "each class must span several record blocks");
        // Class 2's keys are the larger ones, so its blocks weigh at least
        // as much as class 1's.
        assert!(other_raw_bytes >= raw_bytes);
        // The decoded tier holds one lookup's blocks, not two.
        let store = store.with_decoded_bytes(other_raw_bytes);
        let any = QueryFilter::any();
        // Every call's account, merged: what the store read, and from where.
        let mut reads = SegmentAccess::default();
        let mut lookup = |class: u16| {
            let found = store.lookup(ClassId(class), &any).unwrap();
            reads.merge(&found.access);
            found
        };
        // First touches go to disk and stay on probation in the raw tier.
        let first = lookup(1);
        assert_eq!(first.access.cold_loads, 1);
        assert_eq!(first.access.blocks_read, blocks);
        let other = lookup(2);
        assert_eq!(other.access.blocks_read, blocks);
        assert_eq!(store.cache_occupancy().decoded_entries, 0);
        // Second touches promote; class 2's promotion evicts every decoded
        // block of class 1.
        for class in [1, 2] {
            let again = lookup(class);
            assert_eq!(again.access.block_raw_hits, blocks);
            assert_eq!(again.access.blocks_read, 0);
        }
        assert_eq!(store.cache_occupancy().decoded_entries, blocks);
        // The evicted blocks are re-decoded from the raw tier, never re-read.
        let again = lookup(1);
        assert_eq!(again.records, first.records);
        assert_eq!(again.access.cold_loads, 0);
        assert_eq!(again.access.cache_hits, 1);
        assert_eq!(again.access.block_hits, 0);
        assert_eq!(again.access.block_raw_hits, blocks);
        assert_eq!(again.access.blocks_read, 0);
        assert_eq!(again.access.bytes_read, 0);
        // And what is resident is served decoded.
        let resident = lookup(1);
        assert_eq!(resident.access.block_hits, blocks);
        // Only the first touches read the disk; the raw tier rescued more
        // decoded misses than the disk served.
        assert_eq!(reads.blocks_read, 2 * blocks);
        assert_eq!(reads.block_raw_hits, 3 * blocks);
        assert_eq!(reads.block_hits, blocks);
        assert!(reads.block_raw_hits > reads.blocks_read);
        let occ = store.cache_occupancy();
        assert_eq!(occ.raw_entries, 2 * blocks);
        assert_eq!(occ.raw_occupancy_bytes, raw_bytes + other_raw_bytes);
    }

    #[test]
    fn class_absent_segments_are_skipped_without_opening_the_file() {
        let store = populated(mem_store());
        // Delete the middle segment (the only one posting class 6) behind
        // the store's back.
        let victim = store.segments()[1].clone();
        let victim_path = store.dir().join(&victim.file);
        store.fs().remove(&victim_path).unwrap();
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
                assert_eq!(path, victim_path)
            }
            other => panic!("expected an I/O error naming the file, got {other:?}"),
        }
    }

    #[test]
    fn key_disjointness_holds_across_lookup_classes() {
        let mut store = mem_store();
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
    }

    /// `seal` and `compact` leave the blocks they have just encoded in the
    /// raw tier, so a fresh segment's first lookup is a raw hit, never a
    /// disk read; a folded segment's entries go with it.
    #[test]
    fn a_fresh_segment_is_a_raw_hit_on_first_lookup() {
        let mut store = mem_store();
        seal_populated(&mut store);
        let any = QueryFilter::any();
        let sealed = store.lookup(ClassId(5), &any).unwrap();
        assert_eq!(sealed.records.len(), 4);
        assert_eq!(sealed.access.blocks_read, 0, "{:?}", sealed.access);
        assert!(sealed.access.block_raw_hits > 0, "{:?}", sealed.access);

        assert_eq!(store.compact(usize::MAX).unwrap(), 2);
        let compacted = store.lookup(ClassId(5), &any).unwrap();
        assert_eq!(compacted.records, sealed.records);
        assert_eq!(compacted.access.blocks_read, 0, "{:?}", compacted.access);
        assert!(
            compacted.access.block_raw_hits > 0,
            "{:?}",
            compacted.access
        );
        let occupancy = store.cache_occupancy();
        let replacement = store.segments()[0].id;
        assert_eq!(occupancy.raw_occupancy_bytes, weight(&store, replacement));
        let mut reads = sealed.access;
        reads.merge(&compacted.access);
        assert_eq!(reads.blocks_read, 0, "{reads:?}");
    }

    /// The byte-weighted LRU both tiers use.
    #[test]
    fn lru_evicts_by_bytes_in_least_recently_used_order() {
        let key = |id: u64, block: u32| (id, BlockKey::Records(block));
        let mut lru: Lru<u64> = Lru::new(100);
        let state = |lru: &Lru<u64>| {
            assert_eq!(lru.order.len(), lru.len(), "order and entries agree");
            (lru.used, lru.len())
        };
        // The byte budget is honoured: 30 + 30 + 30 fit, 20 more does not,
        // and the least recently used entry goes first.
        for id in 1..=3 {
            assert!(lru.insert(key(id, 0), id, 30));
        }
        assert_eq!(state(&lru), (90, 3));
        assert_eq!(lru.get(key(1, 0)), Some(1));
        assert!(lru.insert(key(4, 0), 4, 20));
        assert_eq!(lru.get(key(2, 0)), None);
        assert_eq!(state(&lru), (80, 3));
        // Eviction walks recency, not insertion: 3, then 1 (last used
        // before 4 was inserted), go before 4 would.
        assert!(lru.insert(key(5, 0), 5, 70));
        assert_eq!(lru.get(key(3, 0)), None);
        assert_eq!(lru.get(key(1, 0)), None);
        assert_eq!(state(&lru), (90, 2));
        // A re-insert re-weighs: 5 shrinks from 70 to 10.
        assert!(lru.insert(key(5, 0), 50, 10));
        assert_eq!(state(&lru), (30, 2));
        assert_eq!(lru.get(key(5, 0)), Some(50));
        // `remove_segment` releases every block of one segment.
        assert!(lru.insert(key(4, 1), 41, 25));
        assert_eq!(state(&lru), (55, 3));
        lru.remove_segment(4);
        assert_eq!(state(&lru), (10, 1));
        // An entry heavier than the budget is refused and changes nothing;
        // one of exactly the budget evicts everything else.
        assert!(!lru.insert(key(6, 0), 6, 101));
        assert_eq!(state(&lru), (10, 1));
        assert!(lru.insert(key(7, 0), 7, 100));
        assert_eq!(state(&lru), (100, 1));
        assert_eq!(lru.get(key(5, 0)), None);
        // A budget of 0 holds nothing.
        let mut off: Lru<u64> = Lru::new(0);
        assert!(!off.insert(key(1, 0), 1, 1));
        assert_eq!(state(&off), (0, 0));
    }

    #[test]
    fn block_corruption_is_detected_at_lookup_time() {
        let store = populated(mem_store());
        // Corrupt a byte early in the file — inside a record or postings
        // block, leaving the trailer/footer intact — after open-time
        // verification already passed.
        let meta = store.segments()[0].clone();
        let path = store.dir().join(&meta.file);
        let mut bytes = store.fs().read(&path).unwrap();
        bytes[6] ^= 0x01;
        store.fs().write_atomic(&path, &bytes).unwrap();
        match store.lookup(ClassId(5), &QueryFilter::any()) {
            Err(SegmentError::Corrupt {
                expected, found, ..
            }) => assert_ne!(expected, found),
            other => panic!("expected block corruption error, got {other:?}"),
        }
    }

    #[test]
    fn sketches_merge_across_segments_and_ignore_time_pruning() {
        let mut store = mem_store();
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

        // Tracks blocks ride the cache tiers like every other block: sealing
        // left them in the raw tier, the first pass promoted them, and now
        // every one is a decoded hit that answers identically.
        let (warm, warm_access) = store.sketches(&QueryFilter::any()).unwrap();
        assert_eq!(warm, all);
        assert_eq!(warm_access.block_hits, 3);
        assert_eq!(warm_access.blocks_read, 0);
    }

    #[test]
    fn cache_occupancy_tracks_both_tiers() {
        let store = populated(mem_store());
        let costs = lookup_costs(&store, 5);
        let blocks: usize = costs.iter().map(|c| c.0).sum();
        let raw_bytes: u64 = costs.iter().map(|c| c.1).sum();
        let capacity = raw_bytes - costs[0].1;
        let store = store.with_decoded_bytes(capacity);
        let empty = store.cache_occupancy();
        assert_eq!(empty.decoded_occupancy_bytes, 0);
        assert_eq!(empty.decoded_capacity_bytes, capacity);
        // A first pass reads every block from disk and leaves it in the raw
        // tier, none in the decoded one.
        let pass = || store.lookup(ClassId(5), &QueryFilter::any()).unwrap();
        let mut reads = pass().access;
        assert_eq!(reads.blocks_read, blocks);
        let scanned = store.cache_occupancy();
        assert_eq!(scanned.decoded_entries, 0, "first touch admits nothing");
        assert_eq!(scanned.raw_entries, blocks);
        assert_eq!(scanned.raw_occupancy_bytes, raw_bytes);
        assert_eq!(scanned.raw_capacity_bytes, DEFAULT_RAW_CACHE_BYTES);
        // The second pass promotes them all: half of all fetches were raw
        // hits, half disk reads.
        reads.merge(&pass().access);
        assert_eq!((reads.block_raw_hits, reads.blocks_read), (blocks, blocks));
        assert_eq!(reads.block_hits, 0);
        let full = store.cache_occupancy();
        let overflow = "the promotions overflow the LRU";
        assert_eq!(full.decoded_occupancy_bytes, capacity, "{overflow}");
        assert_eq!(full.decoded_entries, blocks - costs[0].0, "{overflow}");
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
        assert_eq!(a.segments_total, 10);
        assert_eq!(a.blocks_read, 6);
        assert_eq!(a.block_raw_hits, 3);
        assert_eq!(a.block_hits, 4);
    }

    /// Merged accounts stay consistent: three full-scan reports merged
    /// prune exactly what they pruned between them, and never underflow.
    #[test]
    fn merged_accounts_prune_the_sum_of_their_parts() {
        let reports = [(7, 7), (7, 3), (4, 0)].map(|(total, considered)| SegmentAccess {
            segments_total: total,
            segments_considered: considered,
            ..SegmentAccess::default()
        });
        let mut merged = SegmentAccess::default();
        for report in &reports {
            merged.merge(report);
        }
        let pruned: usize = reports.iter().map(SegmentAccess::segments_pruned).sum();
        assert_eq!(pruned, 8);
        assert_eq!(merged.segments_pruned(), pruned);
        assert_eq!(merged.segments_total, 18);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::cluster_store::MemberRef;
    use crate::topk::TopKIndex;
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
            decoded_tier in 0usize..3,
            raw_tier in 0usize..3,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let mut store = super::super::tests::mem_store();
            let mut local = 0u64;
            for _ in 0..segments {
                let mut index = TopKIndex::new();
                for _ in 0..=rng.below(100) {
                    let record = arbitrary_record(&mut rng, streams, classes, local);
                    index.insert_centroid(super::super::tests::centroid_of(&record));
                    index.insert(record);
                    local += 1;
                }
                store.seal(&index).unwrap();
            }
            // Raw tier: off, exactly one (largest) record block, or default.
            let largest_block = store
                .footers
                .values()
                .flat_map(|f| f.record_blocks.iter().map(|b| b.block.len))
                .max()
                .unwrap();
            let raw_capacity = [0, largest_block, DEFAULT_RAW_CACHE_BYTES][raw_tier];
            // Decoded tier: the heaviest block, the three heaviest blocks,
            // or default.
            let mut weights: Vec<u64> = store
                .footers
                .values()
                .flat_map(|f| blocks_of(f).map(|(_, m)| m.len))
                .collect();
            weights.sort_unstable_by(|a, b| b.cmp(a));
            let three: u64 = weights.iter().take(3).sum();
            let decoded_bytes = [weights[0], three, DEFAULT_DECODED_CACHE_BYTES][decoded_tier];
            let mut store = store
                .with_decoded_bytes(decoded_bytes)
                .with_raw_capacity(raw_capacity);
            // The reference comes from a second store on the same directory,
            // so loading it leaves this store's cache tiers alone.
            let merged = super::super::tests::reopen(&store).0.merged_index().unwrap();
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
        }
    }
}
