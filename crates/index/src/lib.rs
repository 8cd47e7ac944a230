//! Top-K index substrate (the output of Focus's ingest-time processing).
//!
//! The paper stores, per video stream, a mapping
//!
//! ```text
//! object class → ⟨cluster ID⟩
//! cluster ID   → [centroid object, ⟨objects⟩ in cluster, ⟨frame IDs⟩ of objects]
//! ```
//!
//! in MongoDB (§5). This crate provides the equivalent embedded store: an
//! inverted index from class to cluster records with camera / time-range /
//! dynamic-Kx filtering at lookup time, persisted through the segment store
//! below. GPU-time accounting in the paper excludes index I/O, so an
//! in-process store preserves the measured quantities while keeping the
//! system self-contained.
//!
//! [`TopKIndex::lookup`] borrows the full cluster records (each a shared
//! `Arc`, so a caller that keeps one clones a pointer, not the record);
//! a record's stable [`CentroidHandle`] is the form the query-serving layer
//! plans with and keys its cross-query verdict cache by.
//!
//! The [`segment`] module is the persistence API, a durable,
//! time-partitioned store: ingest seals immutable checksummed [`segment`]
//! files under a crash-safe [`manifest`], and time/camera-restricted
//! lookups open only the segments whose bounds intersect the filter (see
//! `docs/storage.md` at the workspace root). Segments persist in the binary
//! columnar [`binseg`] format (block-granular reads, per-block checksums);
//! [`persist`] holds the codec of the store's versioned JSON documents and
//! the canonical JSON text form used to compare and inspect indexes, and
//! [`fs`] the one way both reach the disk (the [`Fs`] capability).

#![deny(missing_docs)]

pub mod binseg;
pub mod cluster_store;
pub mod fs;
pub mod manifest;
pub mod persist;
pub mod query;
pub mod segment;
pub mod topk;
pub mod track;

pub use crate::fs::{Fs, MemFs, OsFs, ReadAt};
pub use binseg::BinsegError;
pub use cluster_store::{ClusterKey, ClusterRecord, MemberRef};
pub use manifest::{Manifest, SegmentFormat, SegmentMeta};
pub use query::QueryFilter;
pub use segment::{
    GroupedLookup, LruOccupancy, OpenReport, SegmentAccess, SegmentError, SegmentLookup,
    SegmentStore,
};
pub use topk::{CentroidHandle, IndexStats, TopKIndex};
pub use track::{TrackKey, TrackSketch, TrackSketcher, TRACK_CELL_PX};
