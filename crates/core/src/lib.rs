//! Focus: low-latency, low-cost querying on large video datasets.
//!
//! This crate is the reproduction of the system described in *"Focus:
//! Querying Large Video Datasets with Low Latency and Low Cost"* (Hsieh et
//! al., OSDI 2018). It ties the workspace's substrates together into the
//! paper's architecture (Figure 4):
//!
//! * **Ingest time** ([`pipeline`], [`ingest`]): motion filtering, pixel
//!   differencing, classification with a cheap (compressed + per-stream
//!   specialized) CNN, single-pass clustering of the CNN feature vectors,
//!   and construction of the approximate top-K index.
//! * **Query time** ([`query`], [`query_server`]): index lookup for the
//!   queried class, ground-truth-CNN verification of only the cluster
//!   centroids, and return of all frames of the confirmed clusters. The
//!   [`query_server::QueryServer`] serves many queries concurrently,
//!   deduplicating and batching the centroid verifications and memoizing
//!   verdicts in a cross-query cache (see `docs/query-path.md`).
//! * **Durable storage and live serving** ([`service`],
//!   [`segment_ingest`], [`query::segmented`]): the long-lived
//!   [`service::FocusService`] is the one durable driver. It seals each
//!   stream's index into immutable time-partitioned segments under a
//!   crash-safe manifest (centroid observations persisted beside them, so a
//!   recovered store is queryable), and time/camera-restricted queries open
//!   only the segments whose bounds intersect (see `docs/storage.md`). It
//!   interleaves ingest ticks with query waves — queries see a
//!   snapshot-consistent union of sealed segments and the in-memory hot
//!   tail, specialization retrains keep every cached GT verdict (a
//!   verdict does not depend on the ingest model), and all GPU work
//!   shares one scheduled budget (see `docs/service.md`).
//! * **Parameter selection** ([`params`]): the sweep over (cheap CNN, K,
//!   Ls, T) on a GT-labelled sample, the Pareto frontier of ingest cost vs
//!   query latency, and the Opt-Ingest / Balance / Opt-Query policies.
//! * **Evaluation machinery** ([`accuracy`], [`baselines`],
//!   [`experiment`]): the paper's one-second-segment ground-truth rule, the
//!   Ingest-all and Query-all baselines, and the end-to-end experiment
//!   runner every table and figure is regenerated from.
//!
//! # Quick start
//!
//! ```
//! use focus_core::prelude::*;
//! use focus_video::profile::profile_by_name;
//!
//! // A one-minute recording of a busy traffic camera.
//! let dataset = focus_video::VideoDataset::generate(
//!     profile_by_name("auburn_c").unwrap(),
//!     60.0,
//! );
//!
//! // The live service, in its default configuration, over an in-memory
//! // store (`FocusService::create(dir, ..)` puts the store on disk).
//! let mut service = FocusService::create_with(
//!     std::sync::Arc::new(focus_index::MemFs::default()),
//!     "/store",
//!     ServiceConfig::default(),
//!     focus_cnn::GroundTruthCnn::resnet152(),
//! )
//! .unwrap();
//! let profile = &dataset.profile;
//! service.register_stream(profile.stream_id, profile.fps).unwrap();
//! service.advance(&dataset.frames).unwrap();
//! service.seal_all().unwrap();
//!
//! // Query for the dominant class and check the result is non-empty.
//! let class = dataset.dominant_classes(1)[0];
//! let outcome = service.serve(&[QueryRequest::new(class)]).unwrap().remove(0);
//! assert!(!outcome.frames.is_empty());
//! ```

pub mod accuracy;
pub mod adapt;
pub mod baselines;
pub mod config;
pub mod experiment;
pub mod fleet;
pub mod ingest;
pub mod params;
pub mod pipeline;
pub mod query;
pub mod query_server;
pub mod segment_ingest;
pub mod service;
pub mod serving;
pub mod worker;

pub use accuracy::{AccuracyReport, GroundTruthLabels};
pub use adapt::{AdaptationConfig, DriftDetector, Reconfiguration, StreamController};
pub use baselines::{AllQueriedComparison, BaselineCosts, QueryTimeOnlyComparison};
pub use config::{AblationMode, AccuracyTarget, TradeoffPolicy};
pub use experiment::{
    AggregateFactors, ExperimentConfig, ExperimentError, ExperimentRunner, QueryReportEntry,
    StreamExperimentReport,
};
pub use fleet::{
    ClusterManifest, FailoverReport, FleetConfig, FleetCoordinator, FleetError, FleetStats,
    ShardAssignment,
};
pub use ingest::{IngestCnn, IngestModelDescriptor, IngestParams};
pub use params::{
    pareto_boundary, ConfigurationPoint, ModelChoice, ParameterSelector, SelectedConfiguration,
    SelectionResult, SweepSpace,
};
pub use pipeline::{FramePipeline, PipelineStats, TailPart};
pub use query::{QueryOutcome, QueryPlan, QueryRequest, SegmentedCorpus, TailOverlay};
pub use query_server::{CacheStats, QueryServer};
pub use segment_ingest::{SealPolicy, StreamSegmenter};
pub use service::{AdvanceReport, FocusService, MaintenanceReport, ServiceConfig, ServiceStats};
pub use serving::{
    Completed, Overloaded, RequestPlane, Response, ServingConfig, ServingStats, ShedReason,
    TenantConfig, TenantId, Ticket,
};
pub use worker::{SpecializationLifecycle, StreamWorkerConfig};

/// Convenience prelude re-exporting the types most applications need.
pub mod prelude {
    pub use crate::accuracy::GroundTruthLabels;
    pub use crate::adapt::{AdaptationConfig, DriftDetector};
    pub use crate::config::{AblationMode, AccuracyTarget, TradeoffPolicy};
    pub use crate::experiment::{ExperimentConfig, ExperimentRunner, StreamExperimentReport};
    pub use crate::fleet::{FleetConfig, FleetCoordinator};
    pub use crate::ingest::{IngestCnn, IngestParams};
    pub use crate::params::{ParameterSelector, SweepSpace};
    pub use crate::pipeline::FramePipeline;
    pub use crate::query::{QueryOutcome, QueryRequest, SegmentedCorpus};
    pub use crate::query_server::{CacheStats, QueryServer};
    pub use crate::segment_ingest::SealPolicy;
    pub use crate::service::{FocusService, ServiceConfig, ServiceStats};
    pub use crate::serving::{RequestPlane, ServingConfig, TenantConfig, TenantId};
    pub use crate::worker::StreamWorkerConfig;
}
