//! The one codec for the segment store's versioned JSON documents.
//!
//! The paper stores the index in MongoDB; here it persists through the
//! segment store (see [`crate::segment`]). This module holds the codec its
//! JSON documents share:
//!
//! * [`read_document`] / [`write_document`] — the codec of every
//!   [`Versioned`] JSON document: read → parse → version check, and
//!   serialize → atomic write ([`Fs::write_atomic`]) → bytes written. The
//!   segment manifest's checkpoint (`MANIFEST.json`), the service sidecar
//!   (`service_state.json`) and the fleet's `CLUSTER.json` replicas go
//!   through it, each on the [`Fs`] its owner holds.
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

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::fs::Fs;
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
    /// A [`PersistError::Io`] naming `path`.
    pub fn io(path: &Path, source: io::Error) -> Self {
        PersistError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

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
    /// The version this build writes.
    const VERSION: u32;
    /// The oldest version this build still reads; versions from it up to
    /// [`VERSION`](Self::VERSION) load.
    const OLDEST_READ: u32 = Self::VERSION;
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
    if !(T::OLDEST_READ..=T::VERSION).contains(&doc.version()) {
        return Err(PersistError::VersionMismatch {
            path: path(),
            found: doc.version(),
            expected: T::VERSION,
        });
    }
    Ok(doc)
}

/// Reads the document at `path` through `fs`: read, parse, version check.
/// Bytes that are not UTF-8 are [`PersistError::Io`] with
/// [`io::ErrorKind::InvalidData`].
pub fn read_document<T: Versioned>(fs: &dyn Fs, path: &Path) -> Result<T, PersistError> {
    let bytes = fs.read(path).map_err(|e| PersistError::io(path, e))?;
    let json = String::from_utf8(bytes)
        .map_err(|e| PersistError::io(path, io::Error::new(io::ErrorKind::InvalidData, e)))?;
    decode(&json, Some(path))
}

/// Writes `doc` to `path` through `fs` atomically ([`Fs::write_atomic`])
/// and returns the number of bytes written.
pub fn write_document<T: Versioned>(
    fs: &dyn Fs,
    path: &Path,
    doc: &T,
) -> Result<u64, PersistError> {
    let json = serde_json::to_string(doc).map_err(|source| PersistError::Format {
        path: Some(path.to_path_buf()),
        source,
    })?;
    fs.write_atomic(path, json.as_bytes())
        .map_err(|e| PersistError::io(path, e))?;
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
