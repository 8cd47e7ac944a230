//! The crash-safe manifest of a segment store.
//!
//! A [`Manifest`] is the single source of truth for which segment files of
//! a [`SegmentStore`](crate::segment::SegmentStore) directory are live: a
//! segment exists exactly when the manifest lists it. The manifest is two
//! files:
//!
//! * `MANIFEST.json`, the *checkpoint*: the live list as of the last
//!   checkpoint, and the `next_segment_id` it had reached, written
//!   atomically ([`Fs::write_atomic`]);
//! * `MANIFEST.log`, the *log*: one [`SegmentMeta`] per line, each line
//!   JSON ending in `\n`, appended ([`Fs::append`]) once per seal.
//!
//! The live list is the checkpoint's segments plus every log record whose
//! id is at least the checkpoint's `next_segment_id`
//! ([`Manifest::load_live`]). A seal therefore costs one append whatever
//! the store's size; a checkpoint (store creation, compaction, a repair on
//! open, and the first commit after a failed one) rewrites the checkpoint
//! and then resets the log to empty. The id rule makes a log the
//! checkpoint already covers harmless: its records' ids are all below the
//! new `next_segment_id`.
//!
//! Segment files are written atomically and always before the manifest
//! records them, so a crash at any point leaves the store recoverable:
//!
//! * crash mid-segment-write → a stray `*.tmp` file, removed on open;
//! * crash after the segment rename but before its log record → a
//!   complete but unlisted segment file, quarantined on open (its data is
//!   also still in the live in-memory index of whoever was sealing, so
//!   nothing acknowledged is lost);
//! * crash mid-append → a last log line with no `\n`: dropped on open, its
//!   segment quarantined as unlisted, and a checkpoint written;
//! * crash mid-checkpoint → the previous checkpoint survives intact, or the
//!   new one does beside the log it already covers.
//!
//! Every listed segment carries an FNV-1a checksum of its file bytes, so a
//! torn or bit-rotted segment is detected and quarantined on open instead of
//! being silently loaded.

use std::collections::HashSet;
use std::path::Path;

use serde::{Deserialize, Serialize};

use focus_video::StreamId;

use crate::fs::Fs;
use crate::persist::{read_document, write_document, PersistError, Versioned};
use crate::query::QueryFilter;

/// Current manifest format version. Version 2 lists segments sealed since
/// the checkpoint in [`MANIFEST_LOG_FILE`]; a version-1 checkpoint (which
/// has no log) still loads, and the store's next commit rewrites it as
/// version 2, which an older build refuses rather than misreads.
pub const MANIFEST_VERSION: u32 = 2;

/// File name of the manifest checkpoint inside a segment store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// File name of the manifest log inside a segment store directory.
pub const MANIFEST_LOG_FILE: &str = "MANIFEST.log";

/// FNV-1a 64-bit hash of `bytes` — the checksum stored per segment in the
/// manifest and verified on every cold segment load.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How a segment's file is encoded on disk.
///
/// The manifest records the tag per segment. Binary is the only format; a
/// manifest entry tagged anything else (or, from before the tag existed,
/// not tagged at all) fails [`Manifest::load`] with
/// [`PersistError::Format`] instead of being read as something it is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentFormat {
    /// The binary columnar format (`seg-*.bin`, see [`crate::binseg`]):
    /// checksummed blocks behind a footer index, read per-block.
    Binary,
}

impl SegmentFormat {
    /// The segment file name for segment `id` in this format.
    pub fn file_name(&self, id: u64) -> String {
        match self {
            SegmentFormat::Binary => format!("seg-{id:06}.bin"),
        }
    }
}

/// One sealed, immutable segment as listed in the manifest: where it lives,
/// what it covers, and how to verify it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Store-unique segment id (monotonic; never reused, even across
    /// compactions).
    pub id: u64,
    /// File name of the segment inside the store directory.
    pub file: String,
    /// Earliest timestamp covered by any record in the segment, seconds
    /// since stream start.
    pub t_start: f64,
    /// Latest timestamp covered by any record in the segment, seconds since
    /// stream start. Together with `t_start` this is the tight closed cover
    /// of the contained records' time ranges, which is what makes segment
    /// pruning safe: a record can only be admitted by a time filter its
    /// segment's bounds also overlap.
    pub t_end: f64,
    /// The streams with at least one record in the segment, sorted.
    pub streams: Vec<StreamId>,
    /// Number of cluster records stored in the segment.
    pub clusters: usize,
    /// FNV-1a 64-bit checksum of the segment file's bytes.
    pub checksum: u64,
    /// On-disk encoding of the segment file.
    pub format: SegmentFormat,
}

impl SegmentMeta {
    /// The entry as one record of the manifest log: its JSON and a `\n`.
    pub fn log_line(&self) -> Result<String, serde_json::Error> {
        let mut line = serde_json::to_string(self)?;
        line.push('\n');
        Ok(line)
    }

    /// Whether the segment's time cover overlaps the closed interval
    /// `[from_secs, to_secs]` (the same overlap rule records use, see
    /// [`crate::cluster_store::ClusterRecord::overlaps_time`]).
    pub fn overlaps_time(&self, from_secs: f64, to_secs: f64) -> bool {
        self.t_start <= to_secs && self.t_end >= from_secs
    }

    /// Whether any record in this segment could be admitted by `filter`'s
    /// stream and time restrictions. Segments for which this is `false` are
    /// pruned from a query without being opened.
    ///
    /// This is a conservative (sound) test: it may admit a segment none of
    /// whose records survive the per-record filter, but it never prunes a
    /// segment containing an admissible record — `t_start`/`t_end` cover
    /// every record's time range and `streams` lists every record's stream.
    pub fn admits_filter(&self, filter: &QueryFilter) -> bool {
        if let Some(streams) = &filter.streams {
            if !self.streams.iter().any(|s| streams.contains(s)) {
                return false;
            }
        }
        if let Some((from, to)) = filter.time_range {
            if !self.overlaps_time(from, to) {
                return false;
            }
        }
        true
    }
}

/// The versioned list of live segments in a store directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Manifest {
    /// Manifest format version.
    pub version: u32,
    /// The next segment id to allocate (ids are never reused).
    pub next_segment_id: u64,
    /// The live segments, in seal order. Per-stream, seal order is time
    /// order, which keeps compaction's "adjacent segments" meaningful.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// An empty manifest at the current version.
    pub fn new() -> Self {
        Self {
            version: MANIFEST_VERSION,
            next_segment_id: 0,
            segments: Vec::new(),
        }
    }

    /// Allocates the next segment id.
    pub fn allocate_id(&mut self) -> u64 {
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        id
    }

    /// The manifest entry for segment `id`, if it is live.
    pub fn segment(&self, id: u64) -> Option<&SegmentMeta> {
        self.segments.iter().find(|s| s.id == id)
    }

    /// The distinct streams covered by any live segment, sorted.
    pub fn streams(&self) -> Vec<StreamId> {
        let set: HashSet<StreamId> = self
            .segments
            .iter()
            .flat_map(|s| s.streams.iter().copied())
            .collect();
        let mut streams: Vec<StreamId> = set.into_iter().collect();
        streams.sort();
        streams
    }

    /// Loads a checkpoint from `path` through `fs`, verifying the format
    /// version. The log is not read: [`load_live`](Self::load_live) is the
    /// live list.
    pub fn load(fs: &dyn Fs, path: &Path) -> Result<Manifest, PersistError> {
        read_document(fs, path)
    }

    /// Loads the live list of the store in `dir`: its checkpoint, then
    /// every log record with an id at or past the checkpoint's
    /// `next_segment_id`, in log order, advancing `next_segment_id` past
    /// each. A last line with no `\n` is a torn append and is dropped
    /// ([`LogEnd::Torn`]); a missing log reads as empty
    /// ([`LogEnd::Missing`]). A complete line that is not a segment entry
    /// is [`PersistError::Format`] naming the log (bytes that are not
    /// UTF-8 are [`PersistError::Io`] with [`std::io::ErrorKind::InvalidData`],
    /// as in [`read_document`]). Reads only.
    pub fn load_live(fs: &dyn Fs, dir: &Path) -> Result<(Manifest, LogEnd), PersistError> {
        let mut manifest = Self::load(fs, &dir.join(MANIFEST_FILE))?;
        let path = dir.join(MANIFEST_LOG_FILE);
        let log = match fs.read(&path) {
            Ok(log) => log,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((manifest, LogEnd::Missing))
            }
            Err(e) => return Err(PersistError::io(&path, e)),
        };
        let mut lines = log.split(|byte| *byte == b'\n');
        // What follows the last `\n`: empty unless an append was torn.
        let torn = lines.next_back().is_some_and(|rest| !rest.is_empty());
        let checkpoint = manifest.next_segment_id;
        for line in lines {
            let line = std::str::from_utf8(line).map_err(|e| {
                PersistError::io(
                    &path,
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e),
                )
            })?;
            let meta: SegmentMeta =
                serde_json::from_str(line).map_err(|source| PersistError::Format {
                    path: Some(path.clone()),
                    source,
                })?;
            if meta.id >= checkpoint {
                manifest.next_segment_id = manifest.next_segment_id.max(meta.id.saturating_add(1));
                manifest.segments.push(meta);
            }
        }
        let end = if torn { LogEnd::Torn } else { LogEnd::Clean };
        Ok((manifest, end))
    }

    /// Writes the manifest to `path` through `fs` atomically
    /// ([`Fs::write_atomic`]): a crash mid-write leaves the previous
    /// manifest intact.
    pub fn save(&self, fs: &dyn Fs, path: &Path) -> Result<(), PersistError> {
        write_document(fs, path, self).map(drop)
    }
}

/// How a store's manifest log ended when [`Manifest::load_live`] read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEnd {
    /// Every line ends in `\n`.
    Clean,
    /// The last line has no `\n`: an append that a crash or a failed write
    /// cut short. It was dropped.
    Torn,
    /// There is no log: a version-1 store, or a crash between the two
    /// writes of the store's first checkpoint.
    Missing,
}

impl Versioned for Manifest {
    const VERSION: u32 = MANIFEST_VERSION;
    const OLDEST_READ: u32 = 1;
    fn version(&self) -> u32 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;

    fn meta(id: u64, t_start: f64, t_end: f64, streams: &[u32]) -> SegmentMeta {
        SegmentMeta {
            id,
            file: SegmentFormat::Binary.file_name(id),
            t_start,
            t_end,
            streams: streams.iter().map(|s| StreamId(*s)).collect(),
            clusters: 3,
            checksum: 42,
            format: SegmentFormat::Binary,
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Sensitive to single-bit flips.
        assert_ne!(fnv1a64(b"foobar"), fnv1a64(b"fooba r"));
    }

    #[test]
    fn admits_filter_prunes_by_time_and_stream() {
        let m = meta(0, 10.0, 20.0, &[1, 2]);
        assert!(m.admits_filter(&QueryFilter::any()));
        assert!(m.admits_filter(&QueryFilter::any().with_time_range(15.0, 30.0)));
        assert!(m.admits_filter(&QueryFilter::any().with_time_range(20.0, 30.0)));
        assert!(!m.admits_filter(&QueryFilter::any().with_time_range(20.1, 30.0)));
        assert!(!m.admits_filter(&QueryFilter::any().with_time_range(0.0, 9.9)));
        assert!(m.admits_filter(&QueryFilter::for_stream(StreamId(2))));
        assert!(!m.admits_filter(&QueryFilter::for_stream(StreamId(3))));
        // Both restrictions must pass.
        let f = QueryFilter::for_stream(StreamId(1)).with_time_range(0.0, 5.0);
        assert!(!m.admits_filter(&f));
        // `kx` never affects pruning (it is a per-record rank test).
        assert!(m.admits_filter(&QueryFilter::any().with_kx(1)));
    }

    #[test]
    fn manifest_roundtrip_and_id_allocation() {
        let fs = MemFs::default();
        fs.create_dir_all(Path::new("/store")).unwrap();
        let path = Path::new("/store").join(MANIFEST_FILE);
        let mut m = Manifest::new();
        assert_eq!(m.allocate_id(), 0);
        assert_eq!(m.allocate_id(), 1);
        m.segments.push(meta(0, 0.0, 10.0, &[0]));
        m.segments.push(meta(1, 10.0, 20.0, &[1]));
        m.save(&fs, &path).unwrap();
        let restored = Manifest::load(&fs, &path).unwrap();
        assert_eq!(restored, m);
        assert_eq!(restored.streams(), vec![StreamId(0), StreamId(1)]);
        assert_eq!(restored.segment(1).unwrap().file, "seg-000001.bin");
        assert!(restored.segment(9).is_none());
    }

    #[test]
    fn manifest_version_mismatch_is_detected() {
        let (fs, path) = (MemFs::default(), Path::new("/MANIFEST.json"));
        fs.create_dir_all(Path::new("/")).unwrap();
        let json = r#"{"version":7,"next_segment_id":0,"segments":[]}"#;
        fs.write_atomic(path, json.as_bytes()).unwrap();
        assert!(matches!(
            Manifest::load(&fs, path),
            Err(PersistError::VersionMismatch {
                found: 7,
                expected: MANIFEST_VERSION,
                ..
            })
        ));
    }
}
