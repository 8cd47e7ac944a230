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
//! | [`runtime`] | `focus-runtime` | GPU accounting, the GPU-cluster latency model, the shared ingest/query `GpuScheduler` |
//! | [`core`] | `focus-core` | The Focus system itself: the shared `FramePipeline`, its one driver, the live, durable `FocusService`, the query subsystem (one concurrent, batched, cached `QueryServer`), parameter selection, policies, baselines, experiment runner |
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
//! // Ingest it into a service over an in-memory store, seal it, then query
//! // the dominant class.
//! let mut service = FocusService::create_with(
//!     std::sync::Arc::new(focus::index::MemFs::default()),
//!     "/store",
//!     ServiceConfig::default(),
//!     GroundTruthCnn::resnet152(),
//! )
//! .unwrap();
//! service.register_stream(dataset.profile.stream_id, dataset.profile.fps).unwrap();
//! service.advance(&dataset.frames).unwrap();
//! service.seal_all().unwrap();
//!
//! let class = dataset.dominant_classes(1)[0];
//! let result = service.serve(&[QueryRequest::new(class)]).unwrap().remove(0);
//! assert!(!result.frames.is_empty());
//! ```
//!
//! # Multi-camera workloads
//!
//! A multi-camera deployment runs on the live, durable
//! [`FocusService`](focus_core::service::FocusService): one
//! [`FramePipeline`](focus_core::pipeline::FramePipeline) per registered
//! stream, frames arriving in any interleaving, the index sealed into a
//! segment store as ingest progresses, and queries answered over the sealed
//! segments plus the not-yet-sealed tail. Dropping the service and calling
//! `FocusService::recover` on the directory gives the same answers:
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
//! let config = ServiceConfig {
//!     seal: SealPolicy::every_secs(10.0),
//!     ..ServiceConfig::default()
//! };
//! let gt = focus::cnn::GroundTruthCnn::resnet152();
//! let mut service = FocusService::create(&dir, config.clone(), gt.clone()).unwrap();
//! for dataset in &datasets {
//!     service.register_stream(dataset.profile.stream_id, dataset.profile.fps).unwrap();
//!     service.advance(&dataset.frames).unwrap();
//! }
//! assert_eq!(service.stats().streams, 2);
//!
//! let class = datasets[0].dominant_classes(1)[0];
//! let request = [QueryRequest::new(class)];
//! let live = service.serve(&request).unwrap();
//! assert!(live[0].matched_clusters > 0);
//!
//! // Checkpoint, restart, same answer.
//! service.seal_all().unwrap();
//! drop(service);
//! let (recovered, _) = FocusService::recover(&dir, config, gt).unwrap();
//! assert_eq!(recovered.serve(&request).unwrap()[0].frames, live[0].frames);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```
//!
//! # Concurrent query serving
//!
//! Every query goes through
//! [`QueryServer`](focus_core::query_server::QueryServer), the one
//! query-time verifier: a batch of requests is planned in order, the union
//! of their candidate centroids is deduplicated and verified through the
//! batched GT-CNN path, and verdicts are memoized across queries under the
//! current ground-truth epoch. Results are byte-identical to serving each
//! request alone on a cold server, with strictly fewer GT-CNN inferences on
//! overlapping workloads — see `docs/query-path.md` for the full
//! walkthrough.

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
