//! The durability primitives under the segment store, and the one codec
//! for its versioned JSON documents.
//!
//! The paper stores the index in MongoDB; here it persists through the
//! segment store (see [`crate::segment`]). This module holds what that
//! store is built on:
//!
//! * [`write_atomic_bytes`] (temp file + `fsync` + rename) — a crash
//!   mid-write can never truncate an existing file: the target path either
//!   still holds the previous complete contents or already holds the new
//!   ones. Segment files and every JSON document are written through it.
//! * [`read_document`] / [`write_document`] — the codec of every
//!   [`Versioned`] JSON document: read → parse → version check, and
//!   serialize → atomic write → bytes written. The segment manifest
//!   (`MANIFEST.json`), the service sidecar (`service_state.json`) and the
//!   fleet's `CLUSTER.json` replicas go through it.
//! * [`to_json`] / [`from_json`] — the canonical text form of a whole
//!   [`TopKIndex`], decoded by the same codec. Nothing is stored in it; it
//!   is the form byte-identity tests compare indexes through, and the way
//!   to look inside a segment (`to_json(&store.load(id)?)`).
//!
//! Every [`PersistError`] carries the file path it occurred on (when a file
//! was involved), so a failed load in a store of hundreds of segments points
//! at the exact file instead of a bare "invalid JSON". The JSON parser
//! refuses documents nested deeper than 128 containers, so a hostile file
//! is a [`PersistError::Format`], not a stack overflow.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::topk::TopKIndex;

/// Version of the canonical index text form ([`to_json`]).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Errors produced by reading or writing persisted state, each carrying the path of the
/// file involved (absent for in-memory encode/decode).
#[derive(Debug)]
pub enum PersistError {
    /// Underlying file I/O failed.
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The I/O failure.
        source: io::Error,
    },
    /// The document could not be encoded or decoded.
    Format {
        /// The file being decoded, if the bytes came from a file.
        path: Option<PathBuf>,
        /// The underlying encode/decode failure.
        source: serde_json::Error,
    },
    /// The document was written by an incompatible version of this crate.
    VersionMismatch {
        /// The file carrying the incompatible document, if any.
        path: Option<PathBuf>,
        /// Version found in the document.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
}

impl PersistError {
    /// The file the error occurred on, when one was involved.
    pub fn path(&self) -> Option<&Path> {
        match self {
            PersistError::Io { path, .. } => Some(path),
            PersistError::Format { path, .. } => path.as_deref(),
            PersistError::VersionMismatch { path, .. } => path.as_deref(),
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(path) = self.path() {
            write!(f, "`{}`: ", path.display())?;
        }
        match self {
            PersistError::Io { source, .. } => write!(f, "I/O error: {source}"),
            PersistError::Format { source, .. } => write!(f, "format error: {source}"),
            PersistError::VersionMismatch {
                found, expected, ..
            } => write!(f, "version mismatch: found {found}, expected {expected}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Format { source, .. } => Some(source),
            PersistError::VersionMismatch { .. } => None,
        }
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format {
            path: None,
            source: e,
        }
    }
}

/// A JSON document that carries its format version in a `version` field.
/// [`read_document`] and [`write_document`] are its one codec (and
/// [`from_json`] for the in-memory index text).
pub trait Versioned: Serialize + Deserialize {
    /// The one version this build reads and writes.
    const VERSION: u32;
    /// The version this document carries.
    fn version(&self) -> u32;
}

/// Parses `json` as a `T` and checks its version. Errors name `path`, the
/// file the text came from, when there is one.
fn decode<T: Versioned>(json: &str, path: Option<&Path>) -> Result<T, PersistError> {
    let path = || path.map(Path::to_path_buf);
    let doc: T = serde_json::from_str(json).map_err(|source| PersistError::Format {
        path: path(),
        source,
    })?;
    if doc.version() != T::VERSION {
        return Err(PersistError::VersionMismatch {
            path: path(),
            found: doc.version(),
            expected: T::VERSION,
        });
    }
    Ok(doc)
}

/// Reads the document at `path`: read, parse, version check.
pub fn read_document<T: Versioned>(path: &Path) -> Result<T, PersistError> {
    let json = fs::read_to_string(path).map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    decode(&json, Some(path))
}

/// Writes `doc` to `path` atomically ([`write_atomic_bytes`]) and returns
/// the number of bytes written.
pub fn write_document<T: Versioned>(path: &Path, doc: &T) -> Result<u64, PersistError> {
    let json = serde_json::to_string(doc).map_err(|source| PersistError::Format {
        path: Some(path.to_path_buf()),
        source,
    })?;
    write_atomic_bytes(path, json.as_bytes())?;
    Ok(json.len() as u64)
}

#[derive(Debug, Serialize, Deserialize)]
struct Snapshot {
    version: u32,
    index: TopKIndex,
}

impl Versioned for Snapshot {
    const VERSION: u32 = SNAPSHOT_VERSION;
    fn version(&self) -> u32 {
        self.version
    }
}

/// Serializes `index` to a JSON string.
pub fn to_json(index: &TopKIndex) -> Result<String, PersistError> {
    let snapshot = Snapshot {
        version: SNAPSHOT_VERSION,
        index: index.clone(),
    };
    Ok(serde_json::to_string(&snapshot)?)
}

/// Deserializes an index from a JSON string produced by [`to_json`].
pub fn from_json(json: &str) -> Result<TopKIndex, PersistError> {
    decode::<Snapshot>(json, None).map(|snapshot| snapshot.index)
}

/// Creates `dir` and any missing parents.
pub fn create_dir_all(dir: &Path) -> Result<(), PersistError> {
    fs::create_dir_all(dir).map_err(|source| PersistError::Io {
        path: dir.to_path_buf(),
        source,
    })
}

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// `<name>.tmp` file first, are flushed to disk, the temp file is renamed
/// over `path`, and the parent directory is fsynced so the rename itself
/// survives power loss. A crash at any point leaves `path` either untouched
/// (still the previous complete file) or fully replaced — never truncated.
/// A failure is [`PersistError::Io`] naming `path`.
///
/// The temp name is deterministic, so two concurrent writers to the same
/// path race on it; callers that share a path must serialize writes (the
/// segment store does, by requiring `&mut self` for all writes).
pub fn write_atomic_bytes(path: &Path, contents: &[u8]) -> Result<(), PersistError> {
    let write = || -> io::Result<()> {
        let mut file_name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
            .to_os_string();
        file_name.push(".tmp");
        let tmp = path.with_file_name(file_name);
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(contents)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Durability of the rename: the directory entry must reach disk
        // too, or a power cut can resurrect the old file (or lose the new
        // name) after the caller was told the write succeeded.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        fs::File::open(parent)?.sync_all()
    };
    write().map_err(|source| PersistError::Io {
        path: path.to_path_buf(),
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_store::{ClusterKey, ClusterRecord, MemberRef};
    use crate::query::QueryFilter;
    use focus_video::{ClassId, FrameId, ObjectId, StreamId, TrackId};

    fn sample_index() -> TopKIndex {
        let mut idx = TopKIndex::new();
        for local in 0..5u64 {
            idx.insert(ClusterRecord {
                key: ClusterKey::new(StreamId(0), local),
                centroid_object: ObjectId(local),
                centroid_frame: FrameId(local),
                top_k_classes: vec![ClassId(local as u16), ClassId(0)],
                members: vec![MemberRef {
                    object: ObjectId(local),
                    frame: FrameId(local),
                    track: TrackId(local),
                }],
                start_secs: local as f64,
                end_secs: local as f64 + 1.0,
            });
        }
        idx
    }

    #[test]
    fn json_roundtrip_preserves_lookups() {
        let idx = sample_index();
        let json = to_json(&idx).unwrap();
        let restored = from_json(&json).unwrap();
        assert_eq!(restored.len(), idx.len());
        assert_eq!(
            restored.lookup(ClassId(0), &QueryFilter::any()).len(),
            idx.lookup(ClassId(0), &QueryFilter::any()).len()
        );
        assert_eq!(restored.stats(), idx.stats());
    }

    #[test]
    fn write_atomic_replaces_existing_files_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join("focus_index_persist_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.json");
        // Overwrite a snapshot with a bigger one: the temp file must not
        // linger and the final content must be the second snapshot.
        write_atomic_bytes(&path, to_json(&TopKIndex::new()).unwrap().as_bytes()).unwrap();
        let full = to_json(&sample_index()).unwrap();
        write_atomic_bytes(&path, full.as_bytes()).unwrap();
        assert!(!path.with_file_name("index.json.tmp").exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_detected() {
        let idx = sample_index();
        let json = to_json(&idx).unwrap();
        let tampered = json.replace("\"version\":1", "\"version\":999");
        match from_json(&tampered) {
            Err(PersistError::VersionMismatch {
                path,
                found,
                expected,
            }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, SNAPSHOT_VERSION);
                assert!(path.is_none());
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(
            from_json("{not json"),
            Err(PersistError::Format { path: None, .. })
        ));
    }

    #[test]
    fn file_errors_name_the_file() {
        let errors = [
            PersistError::Io {
                path: PathBuf::from("/x/y.json"),
                source: io::Error::new(io::ErrorKind::NotFound, "x"),
            },
            PersistError::VersionMismatch {
                path: Some(PathBuf::from("/x/y.json")),
                found: 2,
                expected: 1,
            },
        ];
        for e in errors {
            assert_eq!(e.path(), Some(Path::new("/x/y.json")));
            assert!(e.to_string().contains("/x/y.json"));
        }
        let unnamed = PersistError::VersionMismatch {
            path: None,
            found: 2,
            expected: 1,
        };
        assert!(unnamed.path().is_none());
        assert!(!unnamed.to_string().is_empty());
    }
}
