//! Focus — low-latency, low-cost querying on large video datasets.
//!
//! This is the façade crate of the workspace: it re-exports every
//! sub-crate under one roof so applications can depend on `focus` alone.
//!
//! The workspace reproduces the system described in *"Focus: Querying Large
//! Video Datasets with Low Latency and Low Cost"* (Hsieh et al., OSDI
//! 2018). See `README.md` for the architecture overview and `docs/` for
//! the storage, query-path, service and fleet walkthroughs.
//!
//! # Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`video`] | `focus-video` | Synthetic stream substrate: the 13 Table-1 stream profiles, frame/object/track generation, motion filtering, frame sampling |
//! | [`cnn`] | `focus-cnn` | Simulated CNN substrate: ground-truth CNN, compressed cheap CNNs, per-stream specialization, feature vectors, GPU cost model |
//! | [`cluster`] | `focus-cluster` | Single-pass incremental clustering |
//! | [`index`] | `focus-index` | The top-K inverted index with camera/time/Kx filtering, merging and the durable segment store |
//! | [`runtime`] | `focus-runtime` | GPU accounting, the GPU-cluster latency model, the reusable worker pool, the shared ingest/query `GpuScheduler` |
//! | [`core`] | `focus-core` | The Focus system itself: the shared `FramePipeline`, batch, segmented and live ingest drivers, the query subsystem (serial engine plus the concurrent, batched, cached `QueryServer`), the live `FocusService`, parameter selection, policies, baselines, experiment runner |
//!
//! # Quick start
//!
//! ```
//! use focus::prelude::*;
//!
//! // Record one minute of a busy synthetic traffic camera.
//! let profile = focus::video::profile::profile_by_name("auburn_c").unwrap();
//! let dataset = focus::video::VideoDataset::generate(profile, 60.0);
//!
//! // Ingest with a cheap compressed CNN, then query the dominant class.
//! let meter = focus::runtime::GpuMeter::new();
//! let ingest = IngestEngine::new(
//!     IngestCnn::generic(focus::cnn::ModelSpec::cheap_cnn_1()),
//!     IngestParams { k: 10, ..IngestParams::default() },
//! )
//! .ingest(&dataset, &meter);
//!
//! let engine = QueryEngine::new(
//!     focus::cnn::GroundTruthCnn::resnet152(),
//!     focus::runtime::GpuClusterSpec::new(10),
//! );
//! let class = dataset.dominant_classes(1)[0];
//! let result = engine.query(&ingest, class, &focus::index::QueryFilter::any(), &meter);
//! assert!(!result.frames.is_empty());
//! ```
//!
//! # Multi-camera workloads
//!
//! A multi-camera recording is ingested shard-parallel — one
//! [`FramePipeline`](focus_core::pipeline::FramePipeline) per stream on a
//! worker pool — sealed into a segment store and merged into one index; the
//! result is byte-identical for any shard count:
//!
//! ```
//! use focus::prelude::*;
//!
//! let datasets: Vec<_> = ["auburn_c", "lausanne"]
//!     .iter()
//!     .map(|name| {
//!         let profile = focus::video::profile::profile_by_name(name).unwrap();
//!         focus::video::VideoDataset::generate(profile, 30.0)
//!     })
//!     .collect();
//!
//! let dir = std::env::temp_dir().join("focus_facade_multi_camera_doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = focus::index::SegmentStore::create(&dir).unwrap();
//! let meter = focus::runtime::GpuMeter::new();
//! let ingest = SegmentedIngest::new(
//!     IngestCnn::generic(focus::cnn::ModelSpec::cheap_cnn_1()),
//!     IngestParams::default(),
//!     SealPolicy::every_secs(10.0),
//!     2, // shards (worker threads)
//! );
//! let combined = ingest.ingest_to_store(&datasets, &mut store, &meter).unwrap().combined;
//! assert_eq!(combined.index.streams().len(), 2);
//! assert_eq!(store.merged_index().unwrap().len(), combined.index.len());
//!
//! let engine = QueryEngine::new(
//!     focus::cnn::GroundTruthCnn::resnet152(),
//!     focus::runtime::GpuClusterSpec::new(4),
//! );
//! let class = datasets[0].dominant_classes(1)[0];
//! let result = engine.query(&combined, class, &focus::index::QueryFilter::any(), &meter);
//! assert!(result.matched_clusters > 0);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! # Concurrent query serving
//!
//! Heavy query traffic goes through
//! [`QueryServer`](focus_core::query_server::QueryServer) instead of the
//! serial engine: requests are planned concurrently, the union of their
//! candidate centroids is deduplicated and verified through the batched
//! GT-CNN path, and verdicts are memoized across queries under the current
//! ground-truth epoch. Results are byte-identical to the serial engine with
//! strictly fewer GT-CNN inferences on overlapping workloads — see
//! `docs/query-path.md` for the full walkthrough.

pub use focus_cluster as cluster;
pub use focus_cnn as cnn;
pub use focus_core as core;
pub use focus_index as index;
pub use focus_runtime as runtime;
pub use focus_video as video;

/// The most commonly used types from across the workspace.
pub mod prelude {
    pub use focus_cnn::{Classifier, GroundTruthCnn, ModelSpec};
    pub use focus_core::prelude::*;
    pub use focus_index::QueryFilter;
    pub use focus_runtime::{GpuClusterSpec, GpuMeter};
    pub use focus_video::{ClassId, StreamProfile, VideoDataset};
}
