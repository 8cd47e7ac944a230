//! The crash-safe manifest of a segment store.
//!
//! A [`Manifest`] is the single source of truth for which segment files of
//! a [`SegmentStore`](crate::segment::SegmentStore) directory are live: a
//! segment exists exactly when the manifest lists it. Because both segment
//! files and the manifest are written atomically (temp file + rename, see
//! [`crate::persist::write_atomic`]) and always in the order *segment file
//! first, manifest second*, a crash at any point leaves the store
//! recoverable:
//!
//! * crash mid-segment-write → a stray `*.tmp` file, removed on open;
//! * crash after the segment rename but before the manifest update → a
//!   complete but unlisted segment file, quarantined on open (its data is
//!   also still in the live in-memory index of whoever was sealing, so
//!   nothing acknowledged is lost);
//! * crash mid-manifest-write → the previous manifest survives intact.
//!
//! Every listed segment carries an FNV-1a checksum of its file bytes, so a
//! torn or bit-rotted segment is detected and quarantined on open instead of
//! being silently loaded.

use std::collections::HashSet;
use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use focus_video::StreamId;

use crate::persist::{write_atomic, PersistError};
use crate::query::QueryFilter;

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// File name of the manifest inside a segment store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

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

    /// Loads a manifest from `path`, verifying the format version.
    pub fn load(path: &Path) -> Result<Manifest, PersistError> {
        let json = fs::read_to_string(path).map_err(|source| PersistError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let manifest: Manifest =
            serde_json::from_str(&json).map_err(|source| PersistError::Format {
                path: Some(path.to_path_buf()),
                source,
            })?;
        if manifest.version != MANIFEST_VERSION {
            return Err(PersistError::VersionMismatch {
                path: Some(path.to_path_buf()),
                found: manifest.version,
                expected: MANIFEST_VERSION,
            });
        }
        Ok(manifest)
    }

    /// Writes the manifest to `path` atomically (temp file + rename): a
    /// crash mid-write leaves the previous manifest intact.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        let json = serde_json::to_string(self)?;
        write_atomic(path, &json).map_err(|source| PersistError::Io {
            path: path.to_path_buf(),
            source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let dir = std::env::temp_dir().join("focus_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut m = Manifest::new();
        assert_eq!(m.allocate_id(), 0);
        assert_eq!(m.allocate_id(), 1);
        m.segments.push(meta(0, 0.0, 10.0, &[0]));
        m.segments.push(meta(1, 10.0, 20.0, &[1]));
        m.save(&path).unwrap();
        let restored = Manifest::load(&path).unwrap();
        assert_eq!(restored, m);
        assert_eq!(restored.streams(), vec![StreamId(0), StreamId(1)]);
        assert_eq!(restored.segment(1).unwrap().file, "seg-000001.bin");
        assert!(restored.segment(9).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_version_mismatch_is_detected() {
        let dir = std::env::temp_dir().join("focus_manifest_version_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let m = Manifest::new();
        m.save(&path).unwrap();
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"version\":1", "\"version\":7");
        std::fs::write(&path, tampered).unwrap();
        match Manifest::load(&path) {
            Err(PersistError::VersionMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, 7);
                assert_eq!(expected, MANIFEST_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
