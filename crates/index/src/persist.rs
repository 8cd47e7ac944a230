//! The canonical text form of an index, and the durability primitives.
//!
//! The paper stores the index in MongoDB; here it persists through the
//! segment store (see [`crate::segment`]). This module holds what that
//! store is built on:
//!
//! * [`to_json`] / [`from_json`] — a self-describing, versioned JSON
//!   rendering of a whole [`TopKIndex`]. Nothing is stored in it; it is the
//!   canonical form byte-identity tests compare indexes through, and the way
//!   to look inside a segment (`to_json(&*store.load(id)?)`).
//! * [`write_atomic`] / [`write_atomic_bytes`] (temp file + `fsync` +
//!   rename) — a crash mid-write can never truncate an existing file: the
//!   target path either still holds the previous complete contents or
//!   already holds the new ones. Manifests and segment files are written
//!   through them.
//!
//! Every [`PersistError`] carries the file path it occurred on (when a file
//! was involved), so a failed load in a store of hundreds of segments points
//! at the exact file instead of a bare "invalid JSON".

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::topk::TopKIndex;

/// Current snapshot format version.
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
    /// The snapshot could not be encoded or decoded.
    Format {
        /// The file being decoded, if the bytes came from a file.
        path: Option<PathBuf>,
        /// The underlying encode/decode failure.
        source: serde_json::Error,
    },
    /// The snapshot was written by an incompatible version of this crate.
    VersionMismatch {
        /// The file carrying the incompatible snapshot, if any.
        path: Option<PathBuf>,
        /// Version found in the snapshot.
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
        match self {
            PersistError::Io { path, source } => {
                write!(
                    f,
                    "index snapshot I/O error at `{}`: {source}",
                    path.display()
                )
            }
            PersistError::Format {
                path: Some(path),
                source,
            } => {
                write!(
                    f,
                    "index snapshot format error in `{}`: {source}",
                    path.display()
                )
            }
            PersistError::Format { path: None, source } => {
                write!(f, "index snapshot format error: {source}")
            }
            PersistError::VersionMismatch {
                path,
                found,
                expected,
            } => {
                write!(
                    f,
                    "index snapshot version mismatch{}: found {found}, expected {expected}",
                    match path {
                        Some(p) => format!(" in `{}`", p.display()),
                        None => String::new(),
                    }
                )
            }
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

#[derive(Debug, Serialize, Deserialize)]
struct Snapshot {
    version: u32,
    index: TopKIndex,
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
    let snapshot: Snapshot = serde_json::from_str(json)?;
    if snapshot.version != SNAPSHOT_VERSION {
        return Err(PersistError::VersionMismatch {
            path: None,
            found: snapshot.version,
            expected: SNAPSHOT_VERSION,
        });
    }
    Ok(snapshot.index)
}

/// Writes `contents` to `path` atomically: the bytes go to a sibling
/// `<name>.tmp` file first, are flushed to disk, the temp file is renamed
/// over `path`, and the parent directory is fsynced so the rename itself
/// survives power loss. A crash at any point leaves `path` either untouched
/// (still the previous complete file) or fully replaced — never truncated.
///
/// The temp name is deterministic, so two concurrent writers to the same
/// path race on it; callers that share a path must serialize writes (the
/// segment store does, by requiring `&mut self` for all writes).
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    write_atomic_bytes(path, contents.as_bytes())
}

/// Byte-level twin of [`write_atomic`], for non-text payloads (the binary
/// segment format). Same protocol: temp file, fsync, rename, parent-dir
/// fsync; same deterministic temp name, so the same single-writer rule
/// applies.
pub fn write_atomic_bytes(path: &Path, contents: &[u8]) -> io::Result<()> {
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
    // Durability of the rename: the directory entry must reach disk too,
    // or a power cut can resurrect the old file (or lose the new name)
    // after the caller was told the write succeeded.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()?;
    Ok(())
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
        write_atomic(&path, &to_json(&TopKIndex::new()).unwrap()).unwrap();
        let full = to_json(&sample_index()).unwrap();
        write_atomic(&path, &full).unwrap();
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
