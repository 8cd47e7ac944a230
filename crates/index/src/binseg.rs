//! The binary columnar segment format (`seg-*.bin`).
//!
//! The one module that knows how a segment is laid out. A whole-file
//! format pays its whole decode cost on every cold load — the ~32×
//! cold/warm cliff the first segmented-store measurements showed. This
//! format makes cold reads proportional to what a query actually touches:
//!
//! ```text
//! ┌───────┬──────────────┬────────────────┬────────┬───────────┬────────┬─────────┐
//! │ magic │ record blocks│ postings blocks│ tracks │ centroid  │ footer │ trailer │
//! │"FSG3" │ (≤32 records │ (one per class,│ block  │ block     │        │ (fixed  │
//! │       │  each)       │  delta keys)   │        │           │        │  28 B)  │
//! └───────┴──────────────┴────────────────┴────────┴───────────┴────────┴─────────┘
//! ```
//!
//! * **Record blocks** hold the cluster records sorted by [`ClusterKey`],
//!   chunked into groups of [`RECORDS_PER_BLOCK`]; keys are delta-encoded
//!   (LEB128 varints, restarting at every block so blocks decode
//!   independently) and floats are stored bit-exact.
//! * **Postings blocks** hold, per class, the sorted keys of every cluster
//!   whose ingest top-K contains that class — the on-disk mirror of
//!   [`TopKIndex`]'s inverted index.
//! * The **tracks block** holds the per-track spatio-temporal
//!   [`TrackSketch`]es sorted by [`TrackKey`] — one checksummed block per
//!   segment (absent when the segment has no sketches), read only by
//!   trajectory-restricted query planning.
//! * The **centroid block** holds the centroid observation of every
//!   record — what the ground-truth CNN classifies at query time — sorted
//!   by object id, every field bit-exact. A segment decodes only if the
//!   block holds exactly one observation per record
//!   ([`BinsegError::MissingCentroid`] names a record without one), so a
//!   record and its centroid share one file and one checksum domain.
//! * The **footer** is the block index: per record block its key range,
//!   byte range, FNV-1a checksum and record count; per class its postings
//!   block's byte range and checksum; the tracks and centroid blocks' byte
//!   ranges and checksums; plus the segment's time bounds and stream list.
//! * The **trailer** locates and checksums the footer, so a reader seeks
//!   to the end, reads the footer, and then reads *only* the blocks a
//!   query needs — each one verified against its own checksum.
//!
//! A class+filter lookup therefore reads: trailer + footer (once,
//! cached), the class's postings block, and the record blocks whose key
//! ranges cover the candidate keys. Everything else stays on disk.
//!
//! There is one format version. Files of the earlier versions (`FSG1`,
//! `FSG2`, which kept centroids outside the segment) are refused with
//! [`BinsegError::UnsupportedVersion`].
//!
//! [`encode`]/[`decode`] round-trip an entire [`TopKIndex`]
//! byte-identically under the canonical JSON representation
//! (`tests/segment_durability.rs` holds the property test); the encoding
//! itself is deterministic (records, postings, sketches and centroids are
//! sorted), so equal indexes produce equal files. Decoders never size an
//! allocation by a count they have not checked against the bytes left.

use std::collections::BTreeMap;

use focus_video::{
    Appearance, BoundingBox, ClassId, FrameId, ObjectId, ObjectObservation, StreamId, TrackId,
};

use crate::cluster_store::{ClusterKey, ClusterRecord, MemberRef};
use crate::manifest::fnv1a64;
use crate::topk::TopKIndex;
use crate::track::{TrackKey, TrackSketch};

/// Magic bytes opening a binary segment file (and closing its trailer).
/// The trailing digit is the format version.
pub const BINSEG_MAGIC: [u8; 4] = *b"FSG3";

/// Records per record block — the unit of a partial read. Small enough
/// that a point lookup reads little, large enough that varint/delta
/// framing amortizes.
pub const RECORDS_PER_BLOCK: usize = 32;

/// Byte length of the fixed trailer: footer offset, footer length, footer
/// checksum (u64 little-endian each) + closing magic.
pub const TRAILER_LEN: usize = 8 + 8 + 8 + 4;

/// Decode errors for binary segments. Checksum failures carry both sums so
/// the store can surface them exactly like manifest-level corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinsegError {
    /// The bytes end before the structure they should hold.
    Truncated,
    /// The leading or trailing magic is wrong — not a binary segment.
    BadMagic,
    /// A binary segment of another format version (its magic).
    UnsupportedVersion([u8; 4]),
    /// A structural invariant failed (named for diagnostics).
    Malformed(&'static str),
    /// A record whose centroid observation the segment does not hold.
    MissingCentroid(ClusterKey),
    /// A block's bytes do not match the checksum its footer recorded.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        expected: u64,
        /// Checksum of the bytes read.
        found: u64,
    },
}

impl std::fmt::Display for BinsegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinsegError::Truncated => write!(f, "binary segment truncated"),
            BinsegError::BadMagic => write!(f, "not a binary segment (bad magic)"),
            BinsegError::UnsupportedVersion(magic) => write!(
                f,
                "unsupported binary segment version `{}` (this build reads `{}`)",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(&BINSEG_MAGIC)
            ),
            BinsegError::Malformed(what) => write!(f, "malformed binary segment: {what}"),
            BinsegError::MissingCentroid(key) => write!(
                f,
                "binary segment holds no centroid observation for cluster {key:?}"
            ),
            BinsegError::ChecksumMismatch { expected, found } => write!(
                f,
                "binary segment block checksum mismatch: found {found:#018x}, footer says {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for BinsegError {}

/// Where one block lies in a segment file: the footer entry every block
/// has (record, postings, tracks and centroid blocks alike).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockMeta {
    /// Byte offset of the block within the segment file.
    pub offset: u64,
    /// Byte length of the block.
    pub len: u64,
    /// FNV-1a 64 checksum of the block's bytes.
    pub checksum: u64,
    /// Entries (records, keys, sketches or observations) in the block.
    pub count: usize,
}

/// Footer entry for one record block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordBlockMeta {
    /// Smallest cluster key in the block (blocks are sorted and disjoint).
    pub first_key: ClusterKey,
    /// Largest cluster key in the block.
    pub last_key: ClusterKey,
    /// Where the block lies.
    pub block: BlockMeta,
}

/// Footer entry for one class's postings block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostingsBlockMeta {
    /// The class whose postings the block holds.
    pub class: ClassId,
    /// Where the block lies.
    pub block: BlockMeta,
}

/// The decoded footer: the block index a reader navigates by, plus the
/// segment-level bounds (the same cover the manifest records).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentFooter {
    /// Earliest `start_secs` of any record (`+inf` for an empty segment).
    pub t_start: f64,
    /// Latest `end_secs` of any record (`-inf` for an empty segment).
    pub t_end: f64,
    /// Total records across all record blocks.
    pub clusters: usize,
    /// The streams with at least one record, sorted.
    pub streams: Vec<StreamId>,
    /// Record blocks in key order.
    pub record_blocks: Vec<RecordBlockMeta>,
    /// Postings blocks in class order.
    pub postings: Vec<PostingsBlockMeta>,
    /// The tracks block, when the segment holds any sketches.
    pub tracks: Option<BlockMeta>,
    /// The centroid block (present in every segment, empty ones included).
    pub centroids: BlockMeta,
}

impl SegmentFooter {
    /// The postings block for `class`, if the segment indexes it.
    pub fn postings_for(&self, class: ClassId) -> Option<&PostingsBlockMeta> {
        self.postings
            .binary_search_by_key(&class, |p| p.class)
            .ok()
            .map(|i| &self.postings[i])
    }

    /// Indices of the record blocks whose key range could contain any of
    /// `keys` (which must be sorted). Blocks are key-ordered and disjoint,
    /// so this is a linear merge over the two sorted sequences.
    pub fn blocks_covering(&self, keys: &[ClusterKey]) -> Vec<usize> {
        let mut wanted = Vec::new();
        let mut block = 0usize;
        for key in keys {
            while block < self.record_blocks.len() && self.record_blocks[block].last_key < *key {
                block += 1;
            }
            if block >= self.record_blocks.len() {
                break;
            }
            if self.record_blocks[block].first_key <= *key && wanted.last() != Some(&block) {
                wanted.push(block);
            }
        }
        wanted
    }
}

// ---------------------------------------------------------------------------
// Primitive encoders/decoders
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A block meta's byte range, checksum and count.
fn put_block_meta(out: &mut Vec<u8>, block: &BlockMeta) {
    put_varint(out, block.offset);
    put_varint(out, block.len);
    out.extend_from_slice(&block.checksum.to_le_bytes());
    put_varint(out, block.count as u64);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn varint(&mut self) -> Result<u64, BinsegError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 64 {
                return Err(BinsegError::Malformed("varint overflows u64"));
            }
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn byte(&mut self) -> Result<u8, BinsegError> {
        let b = *self.bytes.get(self.pos).ok_or(BinsegError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], BinsegError> {
        let end = self.pos.checked_add(N).ok_or(BinsegError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(BinsegError::Truncated)?;
        let mut buf = [0u8; N];
        buf.copy_from_slice(slice);
        self.pos = end;
        Ok(buf)
    }

    fn u64(&mut self) -> Result<u64, BinsegError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, BinsegError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f32(&mut self) -> Result<f32, BinsegError> {
        Ok(f32::from_bits(u32::from_le_bytes(self.array()?)))
    }

    /// A count of elements that follow, read as a varint, and the capacity
    /// to reserve for them: never more than the bytes left, since every
    /// element takes at least one — a hostile count cannot size an
    /// allocation.
    fn count(&mut self, what: &'static str) -> Result<(usize, usize), BinsegError> {
        let count = narrow_usize(self.varint()?, what)?;
        Ok((count, count.min(self.bytes.len() - self.pos)))
    }

    fn block_meta(&mut self) -> Result<BlockMeta, BinsegError> {
        Ok(BlockMeta {
            offset: self.varint()?,
            len: self.varint()?,
            checksum: self.u64()?,
            count: narrow_usize(self.varint()?, "block entry count overflows usize")?,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn narrow_u32(v: u64, what: &'static str) -> Result<u32, BinsegError> {
    u32::try_from(v).map_err(|_| BinsegError::Malformed(what))
}

fn narrow_u16(v: u64, what: &'static str) -> Result<u16, BinsegError> {
    u16::try_from(v).map_err(|_| BinsegError::Malformed(what))
}

fn narrow_usize(v: u64, what: &'static str) -> Result<usize, BinsegError> {
    usize::try_from(v).map_err(|_| BinsegError::Malformed(what))
}

/// Delta encoder for a sorted run of cluster keys. The first key is
/// absolute; later keys in the same stream store only `local - prev.local`
/// behind a same-stream tag, and a stream change restarts absolute.
struct KeyEncoder {
    prev: Option<ClusterKey>,
}

impl KeyEncoder {
    fn new() -> Self {
        Self { prev: None }
    }

    fn push(&mut self, out: &mut Vec<u8>, key: ClusterKey) {
        match self.prev {
            None => {
                put_varint(out, key.stream.0 as u64);
                put_varint(out, key.local);
            }
            Some(prev) if prev.stream == key.stream => {
                debug_assert!(key.local > prev.local, "keys must be strictly increasing");
                out.push(0);
                put_varint(out, key.local - prev.local);
            }
            Some(_) => {
                out.push(1);
                put_varint(out, key.stream.0 as u64);
                put_varint(out, key.local);
            }
        }
        self.prev = Some(key);
    }
}

struct KeyDecoder {
    prev: Option<ClusterKey>,
}

impl KeyDecoder {
    fn new() -> Self {
        Self { prev: None }
    }

    fn next(&mut self, r: &mut Reader<'_>) -> Result<ClusterKey, BinsegError> {
        let key = match self.prev {
            None => {
                let stream = narrow_u32(r.varint()?, "stream id overflows u32")?;
                ClusterKey::new(StreamId(stream), r.varint()?)
            }
            Some(prev) => match r.byte()? {
                0 => {
                    let delta = r.varint()?;
                    if delta == 0 {
                        return Err(BinsegError::Malformed("zero key delta"));
                    }
                    let local = prev
                        .local
                        .checked_add(delta)
                        .ok_or(BinsegError::Malformed("key delta overflows u64"))?;
                    ClusterKey::new(prev.stream, local)
                }
                1 => {
                    let stream = narrow_u32(r.varint()?, "stream id overflows u32")?;
                    ClusterKey::new(StreamId(stream), r.varint()?)
                }
                _ => return Err(BinsegError::Malformed("bad key tag")),
            },
        };
        self.prev = Some(key);
        Ok(key)
    }
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

fn encode_record_block(records: &[&ClusterRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, records.len() as u64);
    let mut keys = KeyEncoder::new();
    for record in records {
        keys.push(&mut out, record.key);
        put_varint(&mut out, record.centroid_object.0);
        put_varint(&mut out, record.centroid_frame.0);
        put_varint(&mut out, record.top_k_classes.len() as u64);
        for class in &record.top_k_classes {
            put_varint(&mut out, class.0 as u64);
        }
        put_varint(&mut out, record.members.len() as u64);
        for member in &record.members {
            put_varint(&mut out, member.object.0);
            put_varint(&mut out, member.frame.0);
            put_varint(&mut out, member.track.0);
        }
        put_f64(&mut out, record.start_secs);
        put_f64(&mut out, record.end_secs);
    }
    out
}

/// Decodes one record block (the exact byte range the footer describes).
pub fn decode_record_block(bytes: &[u8]) -> Result<Vec<ClusterRecord>, BinsegError> {
    let mut r = Reader::new(bytes);
    let (count, capacity) = r.count("record count overflows usize")?;
    let mut keys = KeyDecoder::new();
    let mut records = Vec::with_capacity(capacity);
    for _ in 0..count {
        let key = keys.next(&mut r)?;
        let centroid_object = ObjectId(r.varint()?);
        let centroid_frame = FrameId(r.varint()?);
        let (classes, capacity) = r.count("class count overflows usize")?;
        let mut top_k_classes = Vec::with_capacity(capacity);
        for _ in 0..classes {
            top_k_classes.push(ClassId(narrow_u16(r.varint()?, "class id overflows u16")?));
        }
        let (members, capacity) = r.count("member count overflows usize")?;
        let mut member_refs = Vec::with_capacity(capacity);
        for _ in 0..members {
            member_refs.push(MemberRef {
                object: ObjectId(r.varint()?),
                frame: FrameId(r.varint()?),
                track: TrackId(r.varint()?),
            });
        }
        let start_secs = r.f64()?;
        let end_secs = r.f64()?;
        records.push(ClusterRecord {
            key,
            centroid_object,
            centroid_frame,
            top_k_classes,
            members: member_refs,
            start_secs,
            end_secs,
        });
    }
    if !r.done() {
        return Err(BinsegError::Malformed("trailing bytes in record block"));
    }
    Ok(records)
}

fn encode_postings_block(keys: &[ClusterKey]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, keys.len() as u64);
    let mut enc = KeyEncoder::new();
    for key in keys {
        enc.push(&mut out, *key);
    }
    out
}

/// Decodes one postings block into its sorted cluster keys.
pub fn decode_postings_block(bytes: &[u8]) -> Result<Vec<ClusterKey>, BinsegError> {
    let mut r = Reader::new(bytes);
    let (count, capacity) = r.count("postings count overflows usize")?;
    let mut dec = KeyDecoder::new();
    let mut keys = Vec::with_capacity(capacity);
    for _ in 0..count {
        keys.push(dec.next(&mut r)?);
    }
    if !r.done() {
        return Err(BinsegError::Malformed("trailing bytes in postings block"));
    }
    Ok(keys)
}

fn encode_tracks_block(sketches: &[&TrackSketch]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, sketches.len() as u64);
    for sketch in sketches {
        put_varint(&mut out, sketch.key.stream.0 as u64);
        put_varint(&mut out, sketch.key.track.0);
        put_varint(&mut out, sketch.entry_cell as u64);
        put_varint(&mut out, sketch.exit_cell as u64);
        put_f64(&mut out, sketch.t_start);
        put_f64(&mut out, sketch.t_end);
        put_varint(&mut out, sketch.observations);
        put_varint(&mut out, sketch.speed_pairs);
        put_f64(&mut out, sketch.min_speed);
        put_f64(&mut out, sketch.max_speed);
        // Cells are sorted and strictly increasing: delta-encode them.
        put_varint(&mut out, sketch.cells.len() as u64);
        let mut prev = 0u64;
        for (i, cell) in sketch.cells.iter().enumerate() {
            let cell = *cell as u64;
            if i == 0 {
                put_varint(&mut out, cell);
            } else {
                put_varint(&mut out, cell - prev);
            }
            prev = cell;
        }
    }
    out
}

/// Decodes one tracks block into its sketches, sorted by track key.
pub fn decode_tracks_block(bytes: &[u8]) -> Result<Vec<TrackSketch>, BinsegError> {
    let mut r = Reader::new(bytes);
    let (count, capacity) = r.count("sketch count overflows usize")?;
    let mut sketches = Vec::with_capacity(capacity);
    for _ in 0..count {
        let stream = StreamId(narrow_u32(r.varint()?, "stream id overflows u32")?);
        let track = TrackId(r.varint()?);
        let entry_cell = narrow_u32(r.varint()?, "entry cell overflows u32")?;
        let exit_cell = narrow_u32(r.varint()?, "exit cell overflows u32")?;
        let t_start = r.f64()?;
        let t_end = r.f64()?;
        let observations = r.varint()?;
        let speed_pairs = r.varint()?;
        let min_speed = r.f64()?;
        let max_speed = r.f64()?;
        let (cell_count, capacity) = r.count("cell count overflows usize")?;
        let mut cells = Vec::with_capacity(capacity);
        let mut prev = 0u64;
        for i in 0..cell_count {
            let delta = r.varint()?;
            let cell = if i == 0 {
                delta
            } else {
                if delta == 0 {
                    return Err(BinsegError::Malformed("zero cell delta"));
                }
                prev.checked_add(delta)
                    .ok_or(BinsegError::Malformed("cell delta overflows u64"))?
            };
            cells.push(narrow_u32(cell, "cell code overflows u32")?);
            prev = cell;
        }
        sketches.push(TrackSketch {
            key: TrackKey::new(stream, track),
            cells,
            entry_cell,
            exit_cell,
            t_start,
            t_end,
            observations,
            speed_pairs,
            min_speed,
            max_speed,
        });
    }
    if !r.done() {
        return Err(BinsegError::Malformed("trailing bytes in tracks block"));
    }
    Ok(sketches)
}

fn encode_centroid_block(centroids: &[&ObjectObservation]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, centroids.len() as u64);
    for o in centroids {
        put_varint(&mut out, o.object_id.0);
        put_varint(&mut out, o.track_id.0);
        put_varint(&mut out, o.frame_id.0);
        put_varint(&mut out, o.stream_id.0 as u64);
        put_varint(&mut out, o.true_class.0 as u64);
        for v in [o.bbox.x, o.bbox.y, o.bbox.width, o.bbox.height] {
            put_f32(&mut out, v);
        }
        out.extend_from_slice(&o.appearance.track_signature.to_le_bytes());
        out.extend_from_slice(&o.appearance.class_signature.to_le_bytes());
        put_f32(&mut out, o.appearance.drift);
        out.extend_from_slice(&o.appearance.pixel_signature.to_le_bytes());
    }
    out
}

/// Decodes one centroid block into its observations, sorted by object id
/// (strictly increasing, or the block is malformed).
pub fn decode_centroid_block(bytes: &[u8]) -> Result<Vec<ObjectObservation>, BinsegError> {
    let mut r = Reader::new(bytes);
    let (count, capacity) = r.count("centroid count overflows usize")?;
    let mut centroids: Vec<ObjectObservation> = Vec::with_capacity(capacity);
    for _ in 0..count {
        let observation = ObjectObservation {
            object_id: ObjectId(r.varint()?),
            track_id: TrackId(r.varint()?),
            frame_id: FrameId(r.varint()?),
            stream_id: StreamId(narrow_u32(r.varint()?, "stream id overflows u32")?),
            true_class: ClassId(narrow_u16(r.varint()?, "class id overflows u16")?),
            bbox: BoundingBox {
                x: r.f32()?,
                y: r.f32()?,
                width: r.f32()?,
                height: r.f32()?,
            },
            appearance: Appearance {
                track_signature: r.u64()?,
                class_signature: r.u64()?,
                drift: r.f32()?,
                pixel_signature: u32::from_le_bytes(r.array()?),
            },
        };
        if centroids
            .last()
            .is_some_and(|prev| prev.object_id >= observation.object_id)
        {
            return Err(BinsegError::Malformed("centroids not sorted by object id"));
        }
        centroids.push(observation);
    }
    if !r.done() {
        return Err(BinsegError::Malformed("trailing bytes in centroid block"));
    }
    Ok(centroids)
}

/// The one centroid rule, for an index about to be encoded and for a
/// decoded segment alike: `centroids` observations must be exactly one per
/// record. The smallest key among `records` whose centroid `holds` does
/// not find is [`BinsegError::MissingCentroid`]; a count that differs from
/// the record count (an observation no record owns, or two records sharing
/// one) is malformed.
fn check_centroid_rule<'a>(
    records: impl Iterator<Item = &'a ClusterRecord>,
    records_len: usize,
    centroids: usize,
    holds: impl Fn(ObjectId) -> bool,
) -> Result<(), BinsegError> {
    let missing = records
        .filter(|record| !holds(record.centroid_object))
        .map(|record| record.key)
        .min();
    if let Some(key) = missing {
        return Err(BinsegError::MissingCentroid(key));
    }
    if centroids != records_len {
        return Err(BinsegError::Malformed(
            "centroid count differs from record count",
        ));
    }
    Ok(())
}

/// Checks that `index` can be encoded as a segment that decodes: its
/// centroid section holds exactly one observation per record. The check
/// [`SegmentStore::seal`](crate::segment::SegmentStore::seal) runs before
/// it writes anything.
pub fn check_centroids(index: &TopKIndex) -> Result<(), BinsegError> {
    check_centroid_rule(
        index.clusters(),
        index.len(),
        index.centroids().count(),
        |id| index.centroid(id).is_some(),
    )
}

// ---------------------------------------------------------------------------
// Footer + trailer
// ---------------------------------------------------------------------------

fn encode_footer(footer: &SegmentFooter) -> Vec<u8> {
    let mut out = Vec::new();
    put_f64(&mut out, footer.t_start);
    put_f64(&mut out, footer.t_end);
    put_varint(&mut out, footer.clusters as u64);
    put_varint(&mut out, footer.streams.len() as u64);
    for stream in &footer.streams {
        put_varint(&mut out, stream.0 as u64);
    }
    put_varint(&mut out, footer.record_blocks.len() as u64);
    for meta in &footer.record_blocks {
        put_varint(&mut out, meta.first_key.stream.0 as u64);
        put_varint(&mut out, meta.first_key.local);
        put_varint(&mut out, meta.last_key.stream.0 as u64);
        put_varint(&mut out, meta.last_key.local);
        put_block_meta(&mut out, &meta.block);
    }
    put_varint(&mut out, footer.postings.len() as u64);
    for meta in &footer.postings {
        put_varint(&mut out, meta.class.0 as u64);
        put_block_meta(&mut out, &meta.block);
    }
    match &footer.tracks {
        Some(block) => {
            out.push(1);
            put_block_meta(&mut out, block);
        }
        None => out.push(0),
    }
    put_block_meta(&mut out, &footer.centroids);
    out
}

/// Decodes a footer from the exact byte range the trailer describes.
fn decode_footer(bytes: &[u8]) -> Result<SegmentFooter, BinsegError> {
    let mut r = Reader::new(bytes);
    let t_start = r.f64()?;
    let t_end = r.f64()?;
    let clusters = narrow_usize(r.varint()?, "cluster count overflows usize")?;
    let (stream_count, capacity) = r.count("stream count overflows usize")?;
    let mut streams = Vec::with_capacity(capacity);
    for _ in 0..stream_count {
        streams.push(StreamId(narrow_u32(
            r.varint()?,
            "stream id overflows u32",
        )?));
    }
    let (block_count, capacity) = r.count("record block count overflows usize")?;
    let mut record_blocks = Vec::with_capacity(capacity);
    for _ in 0..block_count {
        let first_key = ClusterKey::new(
            StreamId(narrow_u32(r.varint()?, "stream id overflows u32")?),
            r.varint()?,
        );
        let last_key = ClusterKey::new(
            StreamId(narrow_u32(r.varint()?, "stream id overflows u32")?),
            r.varint()?,
        );
        record_blocks.push(RecordBlockMeta {
            first_key,
            last_key,
            block: r.block_meta()?,
        });
    }
    let (postings_count, capacity) = r.count("postings block count overflows usize")?;
    let mut postings = Vec::with_capacity(capacity);
    for _ in 0..postings_count {
        postings.push(PostingsBlockMeta {
            class: ClassId(narrow_u16(r.varint()?, "class id overflows u16")?),
            block: r.block_meta()?,
        });
    }
    let tracks = match r.byte()? {
        0 => None,
        1 => Some(r.block_meta()?),
        _ => return Err(BinsegError::Malformed("bad tracks block tag")),
    };
    let centroids = r.block_meta()?;
    if !r.done() {
        return Err(BinsegError::Malformed("trailing bytes in footer"));
    }
    Ok(SegmentFooter {
        t_start,
        t_end,
        clusters,
        streams,
        record_blocks,
        postings,
        tracks,
        centroids,
    })
}

/// Checks a segment magic: the current version's passes, an earlier
/// version's is [`BinsegError::UnsupportedVersion`], anything else is not a
/// binary segment.
fn check_magic(magic: &[u8]) -> Result<(), BinsegError> {
    match magic {
        m if m == BINSEG_MAGIC => Ok(()),
        [b'F', b'S', b'G', digit] if digit.is_ascii_digit() => {
            Err(BinsegError::UnsupportedVersion([b'F', b'S', b'G', *digit]))
        }
        _ => Err(BinsegError::BadMagic),
    }
}

/// Where a file's footer lives, per its trailer: `(offset, len, checksum)`.
///
/// `trailer` must be the file's final [`TRAILER_LEN`] bytes.
fn parse_trailer(trailer: &[u8]) -> Result<(u64, u64, u64), BinsegError> {
    if trailer.len() != TRAILER_LEN {
        return Err(BinsegError::Truncated);
    }
    check_magic(&trailer[24..28])?;
    let mut r = Reader::new(trailer);
    Ok((r.u64()?, r.u64()?, r.u64()?))
}

// ---------------------------------------------------------------------------
// Whole-segment encode/decode
// ---------------------------------------------------------------------------

/// Encodes an index into a complete binary segment file.
///
/// Deterministic: records are sorted by key, postings by class, sketches
/// by track key and centroids by object id, so two equal indexes always
/// produce identical bytes (the property every byte-identity test on
/// sealed stores relies on).
///
/// The centroid section is written as it is: an index that fails
/// [`check_centroids`] encodes to a file [`decode`] refuses.
pub fn encode(index: &TopKIndex) -> Vec<u8> {
    let mut records: Vec<&ClusterRecord> = index.clusters().collect();
    records.sort_by_key(|r| r.key);

    let mut t_start = f64::INFINITY;
    let mut t_end = f64::NEG_INFINITY;
    let mut postings: BTreeMap<ClassId, Vec<ClusterKey>> = BTreeMap::new();
    for record in &records {
        t_start = t_start.min(record.start_secs);
        t_end = t_end.max(record.end_secs);
        for class in &record.top_k_classes {
            postings.entry(*class).or_default().push(record.key);
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(&BINSEG_MAGIC);
    // Appends one block and returns its footer entry.
    fn push_block(out: &mut Vec<u8>, bytes: Vec<u8>, count: usize) -> BlockMeta {
        let meta = BlockMeta {
            offset: out.len() as u64,
            len: bytes.len() as u64,
            checksum: fnv1a64(&bytes),
            count,
        };
        out.extend_from_slice(&bytes);
        meta
    }

    let mut record_blocks = Vec::new();
    for chunk in records.chunks(RECORDS_PER_BLOCK) {
        record_blocks.push(RecordBlockMeta {
            first_key: chunk[0].key,
            last_key: chunk[chunk.len() - 1].key,
            block: push_block(&mut out, encode_record_block(chunk), chunk.len()),
        });
    }

    let mut postings_blocks = Vec::new();
    for (class, keys) in &postings {
        postings_blocks.push(PostingsBlockMeta {
            class: *class,
            block: push_block(&mut out, encode_postings_block(keys), keys.len()),
        });
    }

    let mut sketches: Vec<&TrackSketch> = index.sketches().collect();
    sketches.sort_by_key(|s| s.key);
    let tracks = (!sketches.is_empty())
        .then(|| push_block(&mut out, encode_tracks_block(&sketches), sketches.len()));

    let mut centroids: Vec<&ObjectObservation> = index.centroids().collect();
    centroids.sort_by_key(|o| o.object_id);
    let centroids = push_block(&mut out, encode_centroid_block(&centroids), centroids.len());

    let footer = SegmentFooter {
        t_start,
        t_end,
        clusters: records.len(),
        streams: index.streams(),
        record_blocks,
        postings: postings_blocks,
        tracks,
        centroids,
    };
    let footer_bytes = encode_footer(&footer);
    let footer_offset = out.len() as u64;
    out.extend_from_slice(&footer_bytes);
    out.extend_from_slice(&footer_offset.to_le_bytes());
    out.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&footer_bytes).to_le_bytes());
    out.extend_from_slice(&BINSEG_MAGIC);
    out
}

/// Reads and verifies the footer out of a complete segment's bytes.
pub fn footer_of(bytes: &[u8]) -> Result<SegmentFooter, BinsegError> {
    check_magic(bytes.get(..4).ok_or(BinsegError::BadMagic)?)?;
    if bytes.len() < BINSEG_MAGIC.len() + TRAILER_LEN {
        return Err(BinsegError::Truncated);
    }
    let (offset, len, checksum) = parse_trailer(&bytes[bytes.len() - TRAILER_LEN..])?;
    let offset = narrow_usize(offset, "footer offset overflows usize")?;
    let len = narrow_usize(len, "footer length overflows usize")?;
    let end = offset
        .checked_add(len)
        .filter(|end| *end <= bytes.len() - TRAILER_LEN)
        .ok_or(BinsegError::Truncated)?;
    let footer_bytes = &bytes[offset..end];
    let found = fnv1a64(footer_bytes);
    if found != checksum {
        return Err(BinsegError::ChecksumMismatch {
            expected: checksum,
            found,
        });
    }
    decode_footer(footer_bytes)
}

/// Extracts one block's byte range out of a complete segment's bytes,
/// unverified: the caller vouches for them (see [`decode_vouched`]).
pub fn block_slice<'a>(bytes: &'a [u8], meta: &BlockMeta) -> Result<&'a [u8], BinsegError> {
    let offset = narrow_usize(meta.offset, "block offset overflows usize")?;
    let len = narrow_usize(meta.len, "block length overflows usize")?;
    let end = offset
        .checked_add(len)
        .filter(|end| *end <= bytes.len())
        .ok_or(BinsegError::Truncated)?;
    Ok(&bytes[offset..end])
}

/// Verifies and extracts one block's byte range out of a complete
/// segment's bytes.
fn block_bytes<'a>(bytes: &'a [u8], meta: &BlockMeta) -> Result<&'a [u8], BinsegError> {
    let block = block_slice(bytes, meta)?;
    let found = fnv1a64(block);
    if found != meta.checksum {
        return Err(BinsegError::ChecksumMismatch {
            expected: meta.checksum,
            found,
        });
    }
    Ok(block)
}

/// Decodes an entire binary segment back into an index, verifying every
/// block checksum first — postings blocks too, though they are derived
/// data the inserts rebuild, so that `decode` vouches for every byte. The
/// inverse of [`encode`].
pub fn decode(bytes: &[u8]) -> Result<TopKIndex, BinsegError> {
    let footer = footer_of(bytes)?;
    let records = footer.record_blocks.iter().map(|m| &m.block);
    let postings = footer.postings.iter().map(|m| &m.block);
    for meta in records.chain(postings).chain(&footer.tracks) {
        block_bytes(bytes, meta)?;
    }
    block_bytes(bytes, &footer.centroids)?;
    decode_vouched(bytes, &footer)
}

/// Decodes an entire segment whose bytes the caller has already verified
/// as a whole (they match the checksum its manifest entry records), so the
/// per-block checksums are not run again; `footer` is [`footer_of`] the
/// same bytes. Structure is still checked: block bounds, counts, that no
/// key repeats and that every record has its centroid.
pub fn decode_vouched(bytes: &[u8], footer: &SegmentFooter) -> Result<TopKIndex, BinsegError> {
    let blocks = decode_record_blocks(bytes, footer)?;
    let centroids = decode_centroids(bytes, footer, blocks.iter().flatten())?;
    let mut index = TopKIndex::new();
    for record in blocks.into_iter().flatten() {
        index.insert(record);
    }
    if let Some(meta) = &footer.tracks {
        let sketches = decode_tracks_block(block_slice(bytes, meta)?)?;
        if sketches.len() != meta.count {
            return Err(BinsegError::Malformed("tracks block count mismatch"));
        }
        for sketch in sketches {
            index.insert_sketch(sketch);
        }
    }
    for centroid in centroids {
        index.insert_centroid(centroid);
    }
    if index.len() != footer.clusters {
        return Err(BinsegError::Malformed("footer cluster count mismatch"));
    }
    Ok(index)
}

/// Every record block of a segment whose bytes the caller has already
/// verified as a whole (see [`decode_vouched`]), one vector per block in
/// footer (key) order — the record blocks alone, without building an
/// index.
pub fn decode_record_blocks(
    bytes: &[u8],
    footer: &SegmentFooter,
) -> Result<Vec<Vec<ClusterRecord>>, BinsegError> {
    let mut blocks = Vec::with_capacity(footer.record_blocks.len());
    let mut records = 0;
    for meta in &footer.record_blocks {
        let block = decode_record_block(block_slice(bytes, &meta.block)?)?;
        if block.len() != meta.block.count {
            return Err(BinsegError::Malformed("record block count mismatch"));
        }
        records += block.len();
        blocks.push(block);
    }
    if records != footer.clusters {
        return Err(BinsegError::Malformed("footer cluster count mismatch"));
    }
    Ok(blocks)
}

/// The centroid block of a segment whose bytes the caller has already
/// verified as a whole (see [`decode_vouched`]), checked against the
/// segment's `records` (all of them, as [`decode_record_blocks`] returns
/// them): one observation per record, or [`BinsegError::MissingCentroid`]
/// naming the smallest key without one.
pub fn decode_centroids<'a>(
    bytes: &[u8],
    footer: &SegmentFooter,
    records: impl Iterator<Item = &'a ClusterRecord>,
) -> Result<Vec<ObjectObservation>, BinsegError> {
    let meta = &footer.centroids;
    let centroids = decode_centroid_block(block_slice(bytes, meta)?)?;
    if centroids.len() != meta.count {
        return Err(BinsegError::Malformed("centroid block count mismatch"));
    }
    check_centroid_rule(records, footer.clusters, centroids.len(), |id| {
        centroids.binary_search_by_key(&id, |o| o.object_id).is_ok()
    })?;
    Ok(centroids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;
    use proptest::prelude::*;

    fn record(stream: u32, local: u64, classes: &[u16], start: f64) -> ClusterRecord {
        ClusterRecord {
            key: ClusterKey::new(StreamId(stream), local),
            centroid_object: ObjectId(((stream as u64) << 32) | local),
            centroid_frame: FrameId(local.wrapping_mul(3)),
            top_k_classes: classes.iter().map(|c| ClassId(*c)).collect(),
            members: vec![
                MemberRef {
                    object: ObjectId(((stream as u64) << 32) | local),
                    frame: FrameId(local.wrapping_mul(3)),
                    track: TrackId(local % 5),
                },
                MemberRef {
                    object: ObjectId(((stream as u64) << 32) | local.wrapping_add(1000)),
                    frame: FrameId(local.wrapping_mul(3).wrapping_add(1)),
                    track: TrackId(local % 5),
                },
            ],
            start_secs: start,
            end_secs: start + 4.5,
        }
    }

    /// The centroid observation behind `record`, every field distinct and
    /// some floats awkward (negative zero, subnormal), so a bit-exact round
    /// trip is a real check.
    fn centroid_of(record: &ClusterRecord) -> ObjectObservation {
        let id = record.centroid_object.0;
        ObjectObservation {
            object_id: record.centroid_object,
            track_id: TrackId(id % 5),
            frame_id: record.centroid_frame,
            stream_id: record.key.stream,
            true_class: ClassId((id % 900) as u16),
            bbox: BoundingBox {
                x: -0.0,
                y: f32::MIN_POSITIVE / 2.0,
                width: id as f32 * 0.25,
                height: 17.5,
            },
            appearance: Appearance {
                track_signature: id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                class_signature: u64::MAX - id,
                drift: 0.1,
                pixel_signature: id as u32 ^ 0xdead_beef,
            },
        }
    }

    /// Inserts `record` with its centroid observation.
    fn insert(index: &mut TopKIndex, record: ClusterRecord) {
        index.insert_centroid(centroid_of(&record));
        index.insert(record);
    }

    fn sample() -> TopKIndex {
        let mut index = TopKIndex::new();
        for local in 0..100u64 {
            insert(
                &mut index,
                record(
                    (local % 3) as u32,
                    local,
                    &[(local % 7) as u16, 900],
                    local as f64,
                ),
            );
        }
        for stream in 0..3u32 {
            for track in 0..5u64 {
                let mut sketch = TrackSketch::first(
                    TrackKey::new(StreamId(stream), TrackId(track)),
                    track as f64,
                    10.0 * track as f64,
                    20.0,
                );
                sketch.absorb(&TrackSketch::first(
                    TrackKey::new(StreamId(stream), TrackId(track)),
                    track as f64 + 2.0,
                    10.0 * track as f64 + 300.0,
                    180.0,
                ));
                index.insert_sketch(sketch);
            }
        }
        index
    }

    #[test]
    fn roundtrip_is_canonically_identical() {
        let index = sample();
        let bytes = encode(&index);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(
            persist::to_json(&decoded).unwrap(),
            persist::to_json(&index).unwrap()
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        // Same records inserted in different orders must produce identical
        // bytes — every byte-identity test on sealed stores depends on it.
        let a = sample();
        let mut b = TopKIndex::new();
        for r in {
            let mut rs: Vec<ClusterRecord> = a.clusters().cloned().collect();
            rs.reverse();
            rs
        } {
            insert(&mut b, r);
        }
        let mut sketches: Vec<TrackSketch> = a.sketches().cloned().collect();
        sketches.sort_by_key(|s| s.key);
        sketches.reverse();
        for s in sketches {
            b.insert_sketch(s);
        }
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn empty_index_roundtrips() {
        let bytes = encode(&TopKIndex::new());
        let decoded = decode(&bytes).unwrap();
        assert!(decoded.is_empty());
        let footer = footer_of(&bytes).unwrap();
        assert!(footer.record_blocks.is_empty());
        assert!(footer.postings.is_empty());
        assert_eq!(footer.clusters, 0);
        assert_eq!(footer.centroids.count, 0);
    }

    #[test]
    fn footer_indexes_blocks_and_bounds() {
        let index = sample();
        let bytes = encode(&index);
        let footer = footer_of(&bytes).unwrap();
        assert_eq!(footer.clusters, 100);
        assert_eq!(
            footer.record_blocks.len(),
            100usize.div_ceil(RECORDS_PER_BLOCK)
        );
        assert_eq!(footer.streams, index.streams());
        assert_eq!(footer.t_start, 0.0);
        assert_eq!(footer.t_end, 99.0 + 4.5);
        // Record blocks are key-ordered and disjoint.
        for pair in footer.record_blocks.windows(2) {
            assert!(pair[0].last_key < pair[1].first_key);
        }
        // Every indexed class has a postings block, sorted by class.
        assert_eq!(footer.postings.len(), index.indexed_classes().len());
        for pair in footer.postings.windows(2) {
            assert!(pair[0].class < pair[1].class);
        }
        assert!(footer.postings_for(ClassId(900)).is_some());
        assert!(footer.postings_for(ClassId(901)).is_none());
        // The centroid block follows the tracks block, right before the
        // footer.
        let tracks = footer.tracks.unwrap();
        assert_eq!(footer.centroids.offset, tracks.offset + tracks.len);
        assert_eq!(footer.centroids.count, 100);
    }

    #[test]
    fn postings_blocks_decode_to_sorted_keys() {
        let index = sample();
        let bytes = encode(&index);
        let footer = footer_of(&bytes).unwrap();
        let meta = footer.postings_for(ClassId(900)).unwrap();
        let block = block_bytes(&bytes, &meta.block).unwrap();
        let keys = decode_postings_block(block).unwrap();
        assert_eq!(keys.len(), 100);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn blocks_covering_maps_keys_to_block_indices() {
        let index = sample();
        let bytes = encode(&index);
        let footer = footer_of(&bytes).unwrap();
        let all: Vec<ClusterKey> = {
            let mut keys: Vec<ClusterKey> = index.clusters().map(|r| r.key).collect();
            keys.sort();
            keys
        };
        // All keys touch all blocks.
        assert_eq!(
            footer.blocks_covering(&all),
            (0..footer.record_blocks.len()).collect::<Vec<_>>()
        );
        // One key touches exactly the block that holds it.
        let one = footer.blocks_covering(&all[..1]);
        assert_eq!(one.len(), 1);
        assert!(footer.record_blocks[one[0]].first_key <= all[0]);
        assert!(all[0] <= footer.record_blocks[one[0]].last_key);
        // A key beyond every block touches nothing.
        let beyond = vec![ClusterKey::new(StreamId(u32::MAX), u64::MAX)];
        assert!(footer.blocks_covering(&beyond).is_empty());
    }

    #[test]
    fn sketches_roundtrip_through_the_tracks_block() {
        let index = sample();
        let bytes = encode(&index);
        assert_eq!(&bytes[..4], &BINSEG_MAGIC);
        let footer = footer_of(&bytes).unwrap();
        let tracks = footer.tracks.expect("sample index has sketches");
        assert_eq!(tracks.count, 15);
        let block = block_bytes(&bytes, &tracks).unwrap();
        let sketches = decode_tracks_block(block).unwrap();
        assert_eq!(sketches.len(), 15);
        assert!(sketches.windows(2).all(|w| w[0].key < w[1].key));
        for sketch in &sketches {
            assert_eq!(index.sketch(sketch.key), Some(sketch));
        }
        // The full decode carries them back into the index.
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.sketch_count(), 15);
        assert_eq!(
            persist::to_json(&decoded).unwrap(),
            persist::to_json(&index).unwrap()
        );
    }

    #[test]
    fn centroids_roundtrip_bit_exact_through_the_centroid_block() {
        let index = sample();
        let bytes = encode(&index);
        let meta = footer_of(&bytes).unwrap().centroids;
        let block = block_bytes(&bytes, &meta).unwrap();
        let centroids = decode_centroid_block(block).unwrap();
        assert_eq!(centroids.len(), 100);
        assert!(centroids
            .windows(2)
            .all(|w| w[0].object_id < w[1].object_id));
        let decoded = decode(&bytes).unwrap();
        for observation in &centroids {
            let original = index.centroid(observation.object_id).unwrap();
            assert_eq!(observation, original);
            assert_eq!(observation.bbox.x.to_bits(), (-0.0f32).to_bits());
            assert_eq!(decoded.centroid(observation.object_id), Some(original));
        }
    }

    #[test]
    fn a_record_without_its_centroid_is_refused_naming_its_key() {
        let full = sample();
        let victim = full.clusters().map(|r| r.key).max().unwrap();
        let orphan = full.get(victim).unwrap().centroid_object;
        // Every record but the victim keeps its centroid; an unrelated
        // observation takes the victim's place, so counts still agree.
        let mut index = TopKIndex::new();
        for record in full.clusters() {
            index.insert(record.clone());
        }
        for observation in full.centroids().filter(|o| o.object_id != orphan) {
            index.insert_centroid(observation.clone());
        }
        index.insert_centroid(ObjectObservation {
            object_id: ObjectId(u64::MAX),
            ..ObjectObservation::default()
        });
        assert_eq!(
            check_centroids(&index),
            Err(BinsegError::MissingCentroid(victim))
        );
        // The checksums are valid; the structure is not.
        assert_eq!(
            decode(&encode(&index)).unwrap_err(),
            BinsegError::MissingCentroid(victim)
        );
        // An observation no record owns is refused too.
        let mut extra = sample();
        extra.insert_centroid(ObjectObservation {
            object_id: ObjectId(u64::MAX),
            ..ObjectObservation::default()
        });
        assert!(matches!(
            check_centroids(&extra),
            Err(BinsegError::Malformed(_))
        ));
        assert!(matches!(
            decode(&encode(&extra)),
            Err(BinsegError::Malformed(_))
        ));
        assert_eq!(check_centroids(&sample()), Ok(()));
    }

    #[test]
    fn earlier_format_versions_are_refused_as_unsupported() {
        let bytes = encode(&sample());
        for legacy in [*b"FSG1", *b"FSG2"] {
            let mut old = bytes.clone();
            old[..4].copy_from_slice(&legacy);
            let end = old.len();
            old[end - 4..].copy_from_slice(&legacy);
            assert_eq!(
                footer_of(&old).unwrap_err(),
                BinsegError::UnsupportedVersion(legacy)
            );
            assert_eq!(
                decode(&old).unwrap_err(),
                BinsegError::UnsupportedVersion(legacy)
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_tracks_block_checksum() {
        let index = sample();
        let mut bytes = encode(&index);
        let footer = footer_of(&bytes).unwrap();
        let tracks = footer.tracks.unwrap();
        bytes[tracks.offset as usize + 3] ^= 0x01;
        match block_bytes(&bytes, &tracks) {
            Err(BinsegError::ChecksumMismatch { expected, found }) => {
                assert_eq!(expected, tracks.checksum);
                assert_ne!(found, expected);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert!(matches!(
            decode(&bytes),
            Err(BinsegError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bit_flips_fail_block_checksums() {
        let index = sample();
        for victim in [
            |f: &SegmentFooter| f.record_blocks[0].block.offset,
            |f: &SegmentFooter| f.centroids.offset,
        ] {
            let mut bytes = encode(&index);
            let footer = footer_of(&bytes).unwrap();
            bytes[victim(&footer) as usize + 2] ^= 0x01;
            assert!(matches!(
                decode(&bytes),
                Err(BinsegError::ChecksumMismatch { .. })
            ));
        }
        let mut bytes = encode(&index);
        let victim = footer_of(&bytes).unwrap().record_blocks[0];
        bytes[victim.block.offset as usize + 2] ^= 0x01;
        match block_bytes(&bytes, &victim.block) {
            Err(BinsegError::ChecksumMismatch { expected, found }) => {
                assert_eq!(expected, victim.block.checksum);
                assert_ne!(found, expected);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_bad_magic_are_detected() {
        let bytes = encode(&sample());
        assert_eq!(decode(&bytes[..10]).unwrap_err(), BinsegError::Truncated);
        assert_eq!(decode(b"nope").unwrap_err(), BinsegError::BadMagic);
        assert_eq!(decode(b"FS").unwrap_err(), BinsegError::BadMagic);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(decode(&wrong).unwrap_err(), BinsegError::BadMagic);
        assert!(bytes.starts_with(&BINSEG_MAGIC));
    }

    #[test]
    fn extreme_key_gaps_roundtrip() {
        let mut index = TopKIndex::new();
        insert(&mut index, record(0, 0, &[1], 0.0));
        insert(&mut index, record(0, u64::MAX, &[1], 1.0));
        insert(&mut index, record(u32::MAX, 7, &[1], 2.0));
        let decoded = decode(&encode(&index)).unwrap();
        assert_eq!(
            persist::to_json(&decoded).unwrap(),
            persist::to_json(&index).unwrap()
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            BinsegError::Truncated,
            BinsegError::BadMagic,
            BinsegError::UnsupportedVersion(*b"FSG2"),
            BinsegError::Malformed("x"),
            BinsegError::MissingCentroid(ClusterKey::new(StreamId(1), 2)),
            BinsegError::ChecksumMismatch {
                expected: 1,
                found: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    // Hostile counts: a count varint of 2^40 ahead of a few bytes must be
    // an error, not a 2^40-element allocation that aborts the process.

    /// `prefix`, then a 2^40 count, then a few bytes of padding.
    fn hostile(prefix: &[u8]) -> Vec<u8> {
        let mut bytes = prefix.to_vec();
        put_varint(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[1, 2, 3]);
        bytes
    }

    #[test]
    fn record_block_with_a_huge_count_is_an_error() {
        // Record count; then the class and member counts of one record
        // (key 0/1, centroid 2, frame 3).
        assert!(decode_record_block(&hostile(&[])).is_err());
        assert!(decode_record_block(&hostile(&[1, 0, 1, 2, 3])).is_err());
        assert!(decode_record_block(&hostile(&[1, 0, 1, 2, 3, 0])).is_err());
    }

    #[test]
    fn postings_block_with_a_huge_count_is_an_error() {
        assert!(decode_postings_block(&hostile(&[])).is_err());
    }

    #[test]
    fn tracks_block_with_a_huge_count_is_an_error() {
        assert!(decode_tracks_block(&hostile(&[])).is_err());
        // One sketch's cell count: stream, track, entry, exit, two f64
        // times, observations, speed pairs, two f64 speeds.
        let mut sketch = vec![1, 0, 0, 0, 0];
        sketch.extend_from_slice(&[0; 16]);
        sketch.extend_from_slice(&[1, 0]);
        sketch.extend_from_slice(&[0; 16]);
        assert!(decode_tracks_block(&hostile(&sketch)).is_err());
    }

    #[test]
    fn centroid_block_with_a_huge_count_is_an_error() {
        assert!(decode_centroid_block(&hostile(&[])).is_err());
    }

    #[test]
    fn footer_with_a_huge_count_is_an_error() {
        // After the times and a zero cluster count: the stream count, the
        // record block count after no streams, the postings count after no
        // record blocks.
        let times = [0u8; 16];
        let mut prefix = times.to_vec();
        prefix.push(0);
        assert!(decode_footer(&hostile(&prefix)).is_err());
        prefix.push(0);
        assert!(decode_footer(&hostile(&prefix)).is_err());
        prefix.push(0);
        assert!(decode_footer(&hostile(&prefix)).is_err());
    }

    /// Every decoder over `bytes`; none may panic.
    fn decode_everything(bytes: &[u8]) {
        let _ = decode(bytes);
        if let Ok(footer) = footer_of(bytes) {
            let _ = decode_vouched(bytes, &footer);
        }
        let _ = decode_footer(bytes);
        let _ = decode_record_block(bytes);
        let _ = decode_postings_block(bytes);
        let _ = decode_tracks_block(bytes);
        let _ = decode_centroid_block(bytes);
        if bytes.len() >= TRAILER_LEN {
            let _ = parse_trailer(&bytes[bytes.len() - TRAILER_LEN..]);
        }
    }

    proptest! {
        /// Hostile bytes — arbitrary strings, and single-bit flips and
        /// truncations of a valid segment — through every decoder: `Ok` or
        /// `Err`, never a panic.
        #[test]
        fn hostile_bytes_never_panic(
            noise in prop::collection::vec(0u64..256, 0..96),
            at in 0u64..u64::MAX,
            bit in 0u64..8,
        ) {
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            decode_everything(&noise);
            let mut framed = BINSEG_MAGIC.to_vec();
            framed.extend_from_slice(&noise);
            decode_everything(&framed);

            let valid = encode(&sample());
            let at = (at % valid.len() as u64) as usize;
            let mut flipped = valid.clone();
            flipped[at] ^= 1 << bit;
            decode_everything(&flipped);
            decode_everything(&valid[..at]);
            prop_assert!(decode(&valid).is_ok());
        }
    }
}
