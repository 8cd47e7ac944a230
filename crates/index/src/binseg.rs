//! The binary columnar segment format (`seg-*.bin`).
//!
//! The one module that knows how a segment is laid out. A whole-file
//! format pays its whole decode cost on every cold load — the ~32×
//! cold/warm cliff the first segmented-store measurements showed. This
//! format makes cold reads proportional to what a query actually touches:
//!
//! ```text
//! ┌──────────┬───────────────┬────────────────┬──────────┬────────┬─────────┐
//! │ magic    │ record blocks │ postings blocks│ tracks   │ footer │ trailer │
//! │ "FSG2"   │ (≤32 records  │ (one per class,│ block    │        │ (fixed  │
//! │          │  each)        │  delta keys)   │ (v2 only)│        │  28 B)  │
//! └──────────┴───────────────┴────────────────┴──────────┴────────┴─────────┘
//! ```
//!
//! * **Record blocks** hold the cluster records sorted by [`ClusterKey`],
//!   chunked into groups of [`RECORDS_PER_BLOCK`]; keys are delta-encoded
//!   (LEB128 varints, restarting at every block so blocks decode
//!   independently) and floats are stored bit-exact.
//! * **Postings blocks** hold, per class, the sorted keys of every cluster
//!   whose ingest top-K contains that class — the on-disk mirror of
//!   [`TopKIndex`]'s inverted index.
//! * The **tracks block** (version 2) holds the per-track spatio-temporal
//!   [`TrackSketch`]es sorted by [`TrackKey`] — one checksummed block per
//!   segment, read only by trajectory-restricted query planning.
//! * The **footer** is the block index: per record block its key range,
//!   byte range, FNV-1a checksum and record count; per class its postings
//!   block's byte range and checksum; the tracks block's byte range and
//!   checksum; plus the segment's time bounds and stream list.
//! * The **trailer** locates and checksums the footer, so a reader seeks
//!   to the end, reads the footer, and then reads *only* the blocks a
//!   query needs — each one verified against its own checksum.
//!
//! A class+filter lookup therefore reads: trailer + footer (once,
//! cached), the class's postings block, and the record blocks whose key
//! ranges cover the candidate keys. Everything else stays on disk.
//!
//! Two versions coexist, distinguished by the magic (`FSG1` / `FSG2`).
//! Version 1 predates track sketches: its record blocks carry no member
//! track ids and it has no tracks block. Readers accept both (v1 members
//! decode with the default track id and an empty sketch set); [`encode`]
//! writes version 2, and [`encode_with_version`] can still produce v1
//! files so the v1 read path stays testable.
//!
//! [`encode`]/[`decode`] round-trip an entire [`TopKIndex`]
//! byte-identically under the canonical JSON representation
//! (`tests/segment_durability.rs` holds the property test); the encoding
//! itself is deterministic (records, postings and sketches are sorted), so
//! equal indexes produce equal files.

use std::collections::BTreeMap;

use focus_video::{ClassId, FrameId, ObjectId, StreamId, TrackId};

use crate::cluster_store::{ClusterKey, ClusterRecord, MemberRef};
use crate::manifest::fnv1a64;
use crate::topk::TopKIndex;
use crate::track::{TrackKey, TrackSketch};

/// Magic bytes opening a version-1 binary segment file (and closing its
/// trailer). The trailing digit is the format version.
pub const BINSEG_MAGIC: [u8; 4] = *b"FSG1";

/// Magic bytes of the current (version 2) format: members carry their
/// track id and the segment persists a tracks block of [`TrackSketch`]es.
pub const BINSEG_MAGIC_V2: [u8; 4] = *b"FSG2";

/// The binary segment format versions a reader accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BinsegVersion {
    /// `FSG1`: no member track ids, no tracks block.
    V1,
    /// `FSG2`: member track ids + a per-segment tracks block. The version
    /// [`encode`] writes.
    #[default]
    V2,
}

impl BinsegVersion {
    /// The magic bytes this version opens and closes files with.
    pub fn magic(self) -> [u8; 4] {
        match self {
            BinsegVersion::V1 => BINSEG_MAGIC,
            BinsegVersion::V2 => BINSEG_MAGIC_V2,
        }
    }

    /// The version a magic identifies, if any.
    pub fn from_magic(magic: &[u8]) -> Option<BinsegVersion> {
        if magic == BINSEG_MAGIC {
            Some(BinsegVersion::V1)
        } else if magic == BINSEG_MAGIC_V2 {
            Some(BinsegVersion::V2)
        } else {
            None
        }
    }
}

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
    /// A structural invariant failed (named for diagnostics).
    Malformed(&'static str),
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
            BinsegError::Malformed(what) => write!(f, "malformed binary segment: {what}"),
            BinsegError::ChecksumMismatch { expected, found } => write!(
                f,
                "binary segment block checksum mismatch: found {found:#018x}, footer says {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for BinsegError {}

/// Footer entry for one record block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordBlockMeta {
    /// Smallest cluster key in the block (blocks are sorted and disjoint).
    pub first_key: ClusterKey,
    /// Largest cluster key in the block.
    pub last_key: ClusterKey,
    /// Byte offset of the block within the segment file.
    pub offset: u64,
    /// Byte length of the block.
    pub len: u64,
    /// FNV-1a 64 checksum of the block's bytes.
    pub checksum: u64,
    /// Records stored in the block.
    pub count: usize,
}

/// Footer entry for one class's postings block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostingsBlockMeta {
    /// The class whose postings the block holds.
    pub class: ClassId,
    /// Byte offset of the block within the segment file.
    pub offset: u64,
    /// Byte length of the block.
    pub len: u64,
    /// FNV-1a 64 checksum of the block's bytes.
    pub checksum: u64,
    /// Keys stored in the block.
    pub count: usize,
}

/// Footer entry for the segment's tracks block (version 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracksBlockMeta {
    /// Byte offset of the block within the segment file.
    pub offset: u64,
    /// Byte length of the block.
    pub len: u64,
    /// FNV-1a 64 checksum of the block's bytes.
    pub checksum: u64,
    /// Sketches stored in the block.
    pub count: usize,
}

/// The decoded footer: the block index a reader navigates by, plus the
/// segment-level bounds (the same cover the manifest records).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SegmentFooter {
    /// The format version the file was written in (from its magic).
    pub version: BinsegVersion,
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
    /// The tracks block, when the segment holds any sketches (always
    /// `None` for version-1 files).
    pub tracks: Option<TracksBlockMeta>,
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
            let byte = *self.bytes.get(self.pos).ok_or(BinsegError::Truncated)?;
            self.pos += 1;
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

    fn f64(&mut self) -> Result<f64, BinsegError> {
        let end = self.pos.checked_add(8).ok_or(BinsegError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(BinsegError::Truncated)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(slice);
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(buf)))
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

fn encode_record_block(records: &[&ClusterRecord], version: BinsegVersion) -> Vec<u8> {
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
            if version == BinsegVersion::V2 {
                put_varint(&mut out, member.track.0);
            }
        }
        put_f64(&mut out, record.start_secs);
        put_f64(&mut out, record.end_secs);
    }
    out
}

/// Decodes one record block (the exact byte range the footer describes).
/// Version-1 blocks carry no member track ids; their members decode with
/// the default track.
pub fn decode_record_block(
    bytes: &[u8],
    version: BinsegVersion,
) -> Result<Vec<ClusterRecord>, BinsegError> {
    let mut r = Reader::new(bytes);
    let count = narrow_usize(r.varint()?, "record count overflows usize")?;
    let mut keys = KeyDecoder::new();
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let key = keys.next(&mut r)?;
        let centroid_object = ObjectId(r.varint()?);
        let centroid_frame = FrameId(r.varint()?);
        let classes = narrow_usize(r.varint()?, "class count overflows usize")?;
        let mut top_k_classes = Vec::with_capacity(classes);
        for _ in 0..classes {
            top_k_classes.push(ClassId(narrow_u16(r.varint()?, "class id overflows u16")?));
        }
        let members = narrow_usize(r.varint()?, "member count overflows usize")?;
        let mut member_refs = Vec::with_capacity(members);
        for _ in 0..members {
            member_refs.push(MemberRef {
                object: ObjectId(r.varint()?),
                frame: FrameId(r.varint()?),
                track: match version {
                    BinsegVersion::V1 => TrackId::default(),
                    BinsegVersion::V2 => TrackId(r.varint()?),
                },
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
    let count = narrow_usize(r.varint()?, "postings count overflows usize")?;
    let mut dec = KeyDecoder::new();
    let mut keys = Vec::with_capacity(count);
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
    let count = narrow_usize(r.varint()?, "sketch count overflows usize")?;
    let mut sketches = Vec::with_capacity(count);
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
        let cell_count = narrow_usize(r.varint()?, "cell count overflows usize")?;
        let mut cells = Vec::with_capacity(cell_count);
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
    for block in &footer.record_blocks {
        put_varint(&mut out, block.first_key.stream.0 as u64);
        put_varint(&mut out, block.first_key.local);
        put_varint(&mut out, block.last_key.stream.0 as u64);
        put_varint(&mut out, block.last_key.local);
        put_varint(&mut out, block.offset);
        put_varint(&mut out, block.len);
        out.extend_from_slice(&block.checksum.to_le_bytes());
        put_varint(&mut out, block.count as u64);
    }
    put_varint(&mut out, footer.postings.len() as u64);
    for block in &footer.postings {
        put_varint(&mut out, block.class.0 as u64);
        put_varint(&mut out, block.offset);
        put_varint(&mut out, block.len);
        out.extend_from_slice(&block.checksum.to_le_bytes());
        put_varint(&mut out, block.count as u64);
    }
    if footer.version == BinsegVersion::V2 {
        match &footer.tracks {
            Some(block) => {
                out.push(1);
                put_varint(&mut out, block.offset);
                put_varint(&mut out, block.len);
                out.extend_from_slice(&block.checksum.to_le_bytes());
                put_varint(&mut out, block.count as u64);
            }
            None => out.push(0),
        }
    }
    out
}

/// Decodes a footer from the exact byte range the trailer describes.
/// `version` comes from the trailer's magic (see [`parse_trailer`]).
pub fn decode_footer(bytes: &[u8], version: BinsegVersion) -> Result<SegmentFooter, BinsegError> {
    let mut r = Reader::new(bytes);
    let t_start = r.f64()?;
    let t_end = r.f64()?;
    let clusters = narrow_usize(r.varint()?, "cluster count overflows usize")?;
    let stream_count = narrow_usize(r.varint()?, "stream count overflows usize")?;
    let mut streams = Vec::with_capacity(stream_count);
    for _ in 0..stream_count {
        streams.push(StreamId(narrow_u32(
            r.varint()?,
            "stream id overflows u32",
        )?));
    }
    let block_count = narrow_usize(r.varint()?, "record block count overflows usize")?;
    let mut record_blocks = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        let first_key = ClusterKey::new(
            StreamId(narrow_u32(r.varint()?, "stream id overflows u32")?),
            r.varint()?,
        );
        let last_key = ClusterKey::new(
            StreamId(narrow_u32(r.varint()?, "stream id overflows u32")?),
            r.varint()?,
        );
        let offset = r.varint()?;
        let len = r.varint()?;
        let mut sum = [0u8; 8];
        for b in sum.iter_mut() {
            *b = r.byte()?;
        }
        let count = narrow_usize(r.varint()?, "record count overflows usize")?;
        record_blocks.push(RecordBlockMeta {
            first_key,
            last_key,
            offset,
            len,
            checksum: u64::from_le_bytes(sum),
            count,
        });
    }
    let postings_count = narrow_usize(r.varint()?, "postings block count overflows usize")?;
    let mut postings = Vec::with_capacity(postings_count);
    for _ in 0..postings_count {
        let class = ClassId(narrow_u16(r.varint()?, "class id overflows u16")?);
        let offset = r.varint()?;
        let len = r.varint()?;
        let mut sum = [0u8; 8];
        for b in sum.iter_mut() {
            *b = r.byte()?;
        }
        let count = narrow_usize(r.varint()?, "postings count overflows usize")?;
        postings.push(PostingsBlockMeta {
            class,
            offset,
            len,
            checksum: u64::from_le_bytes(sum),
            count,
        });
    }
    let tracks = if version == BinsegVersion::V2 && r.byte()? == 1 {
        let offset = r.varint()?;
        let len = r.varint()?;
        let mut sum = [0u8; 8];
        for b in sum.iter_mut() {
            *b = r.byte()?;
        }
        let count = narrow_usize(r.varint()?, "sketch count overflows usize")?;
        Some(TracksBlockMeta {
            offset,
            len,
            checksum: u64::from_le_bytes(sum),
            count,
        })
    } else {
        None
    };
    if !r.done() {
        return Err(BinsegError::Malformed("trailing bytes in footer"));
    }
    Ok(SegmentFooter {
        version,
        t_start,
        t_end,
        clusters,
        streams,
        record_blocks,
        postings,
        tracks,
    })
}

/// Where a file's footer lives, per its trailer:
/// `(offset, len, checksum, version)`. Both format versions are accepted;
/// the version (from the closing magic) tells the caller how to decode the
/// footer and record blocks.
///
/// `trailer` must be the file's final [`TRAILER_LEN`] bytes.
pub fn parse_trailer(trailer: &[u8]) -> Result<(u64, u64, u64, BinsegVersion), BinsegError> {
    if trailer.len() != TRAILER_LEN {
        return Err(BinsegError::Truncated);
    }
    let version = BinsegVersion::from_magic(&trailer[24..28]).ok_or(BinsegError::BadMagic)?;
    let word = |at: usize| {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&trailer[at..at + 8]);
        u64::from_le_bytes(buf)
    };
    Ok((word(0), word(8), word(16), version))
}

// ---------------------------------------------------------------------------
// Whole-segment encode/decode
// ---------------------------------------------------------------------------

/// Encodes an index into a complete binary segment file in the current
/// format version.
///
/// Deterministic: records are sorted by key, postings by class and
/// sketches by track key, so two equal indexes always produce identical
/// bytes (the property every byte-identity test on sealed stores relies
/// on).
pub fn encode(index: &TopKIndex) -> Vec<u8> {
    encode_with_version(index, BinsegVersion::V2)
}

/// Encodes an index as a specific format version. Version 1 drops member
/// track ids and the tracks block — it exists so reading v1 files stays
/// testable end to end.
pub fn encode_with_version(index: &TopKIndex, version: BinsegVersion) -> Vec<u8> {
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
    out.extend_from_slice(&version.magic());

    let mut record_blocks = Vec::new();
    for chunk in records.chunks(RECORDS_PER_BLOCK) {
        let bytes = encode_record_block(chunk, version);
        record_blocks.push(RecordBlockMeta {
            first_key: chunk[0].key,
            last_key: chunk[chunk.len() - 1].key,
            offset: out.len() as u64,
            len: bytes.len() as u64,
            checksum: fnv1a64(&bytes),
            count: chunk.len(),
        });
        out.extend_from_slice(&bytes);
    }

    let mut postings_blocks = Vec::new();
    for (class, keys) in &postings {
        let bytes = encode_postings_block(keys);
        postings_blocks.push(PostingsBlockMeta {
            class: *class,
            offset: out.len() as u64,
            len: bytes.len() as u64,
            checksum: fnv1a64(&bytes),
            count: keys.len(),
        });
        out.extend_from_slice(&bytes);
    }

    let mut tracks_meta = None;
    if version == BinsegVersion::V2 {
        let mut sketches: Vec<&TrackSketch> = index.sketches().collect();
        sketches.sort_by_key(|s| s.key);
        if !sketches.is_empty() {
            let bytes = encode_tracks_block(&sketches);
            tracks_meta = Some(TracksBlockMeta {
                offset: out.len() as u64,
                len: bytes.len() as u64,
                checksum: fnv1a64(&bytes),
                count: sketches.len(),
            });
            out.extend_from_slice(&bytes);
        }
    }

    let footer = SegmentFooter {
        version,
        t_start,
        t_end,
        clusters: records.len(),
        streams: index.streams(),
        record_blocks,
        postings: postings_blocks,
        tracks: tracks_meta,
    };
    let footer_bytes = encode_footer(&footer);
    let footer_offset = out.len() as u64;
    out.extend_from_slice(&footer_bytes);
    out.extend_from_slice(&footer_offset.to_le_bytes());
    out.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&footer_bytes).to_le_bytes());
    out.extend_from_slice(&version.magic());
    out
}

/// Whether `bytes` carry a binary segment magic (either version).
pub fn is_binseg(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && BinsegVersion::from_magic(&bytes[..4]).is_some()
}

/// Reads and verifies the footer out of a complete segment's bytes.
pub fn footer_of(bytes: &[u8]) -> Result<SegmentFooter, BinsegError> {
    if !is_binseg(bytes) {
        return Err(BinsegError::BadMagic);
    }
    if bytes.len() < BINSEG_MAGIC.len() + TRAILER_LEN {
        return Err(BinsegError::Truncated);
    }
    let (offset, len, checksum, version) = parse_trailer(&bytes[bytes.len() - TRAILER_LEN..])?;
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
    decode_footer(footer_bytes, version)
}

/// Extracts one block's byte range out of a complete segment's bytes.
fn block_slice(bytes: &[u8], offset: u64, len: u64) -> Result<&[u8], BinsegError> {
    let offset = narrow_usize(offset, "block offset overflows usize")?;
    let len = narrow_usize(len, "block length overflows usize")?;
    let end = offset
        .checked_add(len)
        .filter(|end| *end <= bytes.len())
        .ok_or(BinsegError::Truncated)?;
    Ok(&bytes[offset..end])
}

/// Verifies and extracts one block's byte range out of a complete
/// segment's bytes.
fn block_bytes(bytes: &[u8], offset: u64, len: u64, checksum: u64) -> Result<&[u8], BinsegError> {
    let block = block_slice(bytes, offset, len)?;
    let found = fnv1a64(block);
    if found != checksum {
        return Err(BinsegError::ChecksumMismatch {
            expected: checksum,
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
    for m in &footer.record_blocks {
        block_bytes(bytes, m.offset, m.len, m.checksum)?;
    }
    for m in &footer.postings {
        block_bytes(bytes, m.offset, m.len, m.checksum)?;
    }
    if let Some(m) = &footer.tracks {
        block_bytes(bytes, m.offset, m.len, m.checksum)?;
    }
    decode_vouched(bytes, &footer)
}

/// Decodes an entire segment whose bytes the caller has already verified
/// as a whole (they match the checksum its manifest entry records), so the
/// per-block checksums are not run again; `footer` is [`footer_of`] the
/// same bytes. Structure is still checked: block bounds, counts, and that
/// no key repeats.
pub fn decode_vouched(bytes: &[u8], footer: &SegmentFooter) -> Result<TopKIndex, BinsegError> {
    let mut index = TopKIndex::new();
    for record in decode_records(bytes, footer)? {
        index.insert(record);
    }
    if let Some(meta) = &footer.tracks {
        let sketches = decode_tracks_block(block_slice(bytes, meta.offset, meta.len)?)?;
        if sketches.len() != meta.count {
            return Err(BinsegError::Malformed("tracks block count mismatch"));
        }
        for sketch in sketches {
            index.insert_sketch(sketch);
        }
    }
    if index.len() != footer.clusters {
        return Err(BinsegError::Malformed("footer cluster count mismatch"));
    }
    Ok(index)
}

/// Every record of a segment whose bytes the caller has already verified
/// as a whole (see [`decode_vouched`]), in key order — the record blocks
/// alone, without building an index.
pub fn decode_records(
    bytes: &[u8],
    footer: &SegmentFooter,
) -> Result<Vec<ClusterRecord>, BinsegError> {
    let mut records = Vec::new();
    for meta in &footer.record_blocks {
        let block =
            decode_record_block(block_slice(bytes, meta.offset, meta.len)?, footer.version)?;
        if block.len() != meta.count {
            return Err(BinsegError::Malformed("record block count mismatch"));
        }
        records.extend(block);
    }
    if records.len() != footer.clusters {
        return Err(BinsegError::Malformed("footer cluster count mismatch"));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist;

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

    fn sample() -> TopKIndex {
        let mut index = TopKIndex::new();
        for local in 0..100u64 {
            index.insert(record(
                (local % 3) as u32,
                local,
                &[(local % 7) as u16, 900],
                local as f64,
            ));
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
            b.insert(r);
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
    }

    #[test]
    fn postings_blocks_decode_to_sorted_keys() {
        let index = sample();
        let bytes = encode(&index);
        let footer = footer_of(&bytes).unwrap();
        let meta = footer.postings_for(ClassId(900)).unwrap();
        let block = block_bytes(&bytes, meta.offset, meta.len, meta.checksum).unwrap();
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
    fn v1_files_decode_without_tracks() {
        let index = sample();
        let v1 = encode_with_version(&index, BinsegVersion::V1);
        assert!(is_binseg(&v1));
        assert_eq!(&v1[..4], &BINSEG_MAGIC);
        let footer = footer_of(&v1).unwrap();
        assert_eq!(footer.version, BinsegVersion::V1);
        assert!(footer.tracks.is_none());
        let decoded = decode(&v1).unwrap();
        assert_eq!(decoded.len(), index.len());
        assert_eq!(decoded.sketch_count(), 0);
        // Members decode with the default track id.
        assert!(decoded
            .clusters()
            .all(|r| r.members.iter().all(|m| m.track == TrackId::default())));
        // Re-encoding the decoded v1 index as v2 is a valid migration.
        let migrated = encode(&decode(&v1).unwrap());
        assert_eq!(&migrated[..4], &BINSEG_MAGIC_V2);
        let refooter = footer_of(&migrated).unwrap();
        assert_eq!(refooter.version, BinsegVersion::V2);
        assert_eq!(refooter.clusters, index.len());
    }

    #[test]
    fn v2_roundtrips_sketches_through_the_tracks_block() {
        let index = sample();
        let bytes = encode(&index);
        assert_eq!(&bytes[..4], &BINSEG_MAGIC_V2);
        let footer = footer_of(&bytes).unwrap();
        let tracks = footer.tracks.expect("sample index has sketches");
        assert_eq!(tracks.count, 15);
        let block = block_bytes(&bytes, tracks.offset, tracks.len, tracks.checksum).unwrap();
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
    fn bit_flips_fail_the_tracks_block_checksum() {
        let index = sample();
        let mut bytes = encode(&index);
        let footer = footer_of(&bytes).unwrap();
        let tracks = footer.tracks.unwrap();
        bytes[tracks.offset as usize + 3] ^= 0x01;
        match block_bytes(&bytes, tracks.offset, tracks.len, tracks.checksum) {
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
        let mut bytes = encode(&index);
        let footer = footer_of(&bytes).unwrap();
        let victim = footer.record_blocks[0];
        bytes[victim.offset as usize + 2] ^= 0x01;
        match block_bytes(&bytes, victim.offset, victim.len, victim.checksum) {
            Err(BinsegError::ChecksumMismatch { expected, found }) => {
                assert_eq!(expected, victim.checksum);
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
    fn truncation_and_bad_magic_are_detected() {
        let bytes = encode(&sample());
        assert_eq!(decode(&bytes[..10]).unwrap_err(), BinsegError::Truncated);
        assert_eq!(decode(b"nope").unwrap_err(), BinsegError::BadMagic);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(decode(&wrong).unwrap_err(), BinsegError::BadMagic);
        assert!(is_binseg(&bytes));
        assert!(!is_binseg(b"{\"version\":1}"));
    }

    #[test]
    fn extreme_key_gaps_roundtrip() {
        let mut index = TopKIndex::new();
        index.insert(record(0, 0, &[1], 0.0));
        index.insert(record(0, u64::MAX, &[1], 1.0));
        index.insert(record(u32::MAX, 7, &[1], 2.0));
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
            BinsegError::Malformed("x"),
            BinsegError::ChecksumMismatch {
                expected: 1,
                found: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
