//! The end-to-end experiment runner used by every table and figure of the
//! evaluation (§6 of the paper).
//!
//! For one stream the runner: generates (or accepts) a recorded dataset,
//! selects parameters on a sampled slice, ingests the full recording with
//! the chosen configuration, runs queries for the stream's dominant classes,
//! evaluates precision/recall against the ground-truth CNN, and reports the
//! ingest-cost and query-latency factors against the Ingest-all and
//! Query-all baselines.
//!
//! Ingest and queries run on the system's one driver, a
//! [`FocusService`] over an in-memory store: the recording is the special
//! case of a stream whose frames all arrive before the first query.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_cnn::{Classifier, GpuCost, GroundTruthCnn};
use focus_index::{MemFs, SegmentError};
use focus_runtime::GpuClusterSpec;
use focus_video::sampling::sample_dataset;
use focus_video::{ClassId, StreamProfile, VideoDataset};

use crate::accuracy::GroundTruthLabels;
use crate::baselines::{AllQueriedComparison, BaselineCosts, QueryTimeOnlyComparison};
use crate::config::{AblationMode, AccuracyTarget, TradeoffPolicy};
use crate::params::{ParameterSelector, SelectedConfiguration, SelectionResult, SweepSpace};
use crate::query::QueryRequest;
use crate::segment_ingest::SealPolicy;
use crate::service::{FocusService, ServiceConfig};
use crate::worker::StreamWorkerConfig;

/// Configuration of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Length of the recorded video analysed per stream, in seconds. The
    /// paper uses 12-hour recordings; the default here is a 10-minute slice,
    /// which preserves all the distributional properties the techniques
    /// depend on while keeping the harness runnable on a laptop.
    pub duration_secs: f64,
    /// Length of the sampled slice used for parameter selection, in seconds.
    pub sample_secs: f64,
    /// Accuracy targets (precision, recall).
    pub target: AccuracyTarget,
    /// Trade-off policy used to pick the configuration.
    pub policy: TradeoffPolicy,
    /// GPU cluster serving queries.
    pub gpus: GpuClusterSpec,
    /// Candidate space swept during parameter selection.
    pub sweep: SweepSpace,
    /// Which Focus components are enabled (Figure-8 ablation).
    pub ablation: AblationMode,
    /// How many of the stream's dominant classes are queried and averaged.
    pub query_classes: usize,
    /// If set, the dataset is subsampled to this frame rate before any
    /// processing (§6.6).
    pub frame_rate: Option<u32>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            duration_secs: 600.0,
            sample_secs: 90.0,
            target: AccuracyTarget::default(),
            policy: TradeoffPolicy::Balance,
            gpus: GpuClusterSpec::default(),
            sweep: SweepSpace::full(),
            ablation: AblationMode::Full,
            query_classes: 5,
            frame_rate: None,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for tests: shorter videos, smaller sweep.
    pub fn quick() -> Self {
        Self {
            duration_secs: 180.0,
            sample_secs: 60.0,
            sweep: SweepSpace::quick(),
            query_classes: 3,
            ..Self::default()
        }
    }
}

/// Per-class query measurements within a stream report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryReportEntry {
    /// The queried class.
    pub class: ClassId,
    /// GPU time of the query in the paper's unit: one un-batched GT-CNN
    /// inference per matched cluster.
    pub gpu_secs: f64,
    /// Wall-clock latency of `gpu_secs` on the configured GPU cluster.
    pub latency_secs: f64,
    /// Precision against the ground truth.
    pub precision: f64,
    /// Recall against the ground truth.
    pub recall: f64,
    /// Frames returned.
    pub frames_returned: usize,
    /// Clusters whose top-K matched (each costs one GT-CNN inference).
    pub matched_clusters: usize,
}

/// The end-to-end measurements for one stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamExperimentReport {
    /// Stream name.
    pub stream: String,
    /// Policy used.
    pub policy: TradeoffPolicy,
    /// Ablation mode used.
    pub ablation: AblationMode,
    /// Display name of the chosen ingest model.
    pub chosen_model: String,
    /// Chosen top-K width.
    pub chosen_k: usize,
    /// Chosen clustering threshold.
    pub chosen_threshold: f32,
    /// Whether the chosen configuration met the accuracy targets during
    /// parameter selection (`false` for best-effort fall-backs).
    pub met_accuracy_targets: bool,
    /// Frames analysed.
    pub frames: usize,
    /// Object observations analysed.
    pub objects: usize,
    /// Clusters in the index.
    pub clusters: usize,
    /// Focus ingest GPU seconds.
    pub ingest_gpu_secs: f64,
    /// Ingest-all baseline GPU seconds.
    pub ingest_all_gpu_secs: f64,
    /// How many times cheaper Focus's ingest is than Ingest-all (Figure 7,
    /// top).
    pub ingest_cheaper_factor: f64,
    /// Mean Focus query latency over the queried classes, seconds.
    pub mean_query_latency_secs: f64,
    /// Query-all baseline latency, seconds.
    pub query_all_latency_secs: f64,
    /// How many times faster Focus's queries are than Query-all (Figure 7,
    /// bottom).
    pub query_faster_factor: f64,
    /// Mean precision over the queried classes.
    pub mean_precision: f64,
    /// Mean recall over the queried classes.
    pub mean_recall: f64,
    /// §6.7 extreme: total-cost comparison when everything is queried.
    pub all_queried_cheaper_factor: f64,
    /// §6.7 extreme: latency comparison when Focus runs entirely at query
    /// time.
    pub query_time_only_faster_factor: f64,
    /// Per-class query details.
    pub queries: Vec<QueryReportEntry>,
}

/// Errors produced by the experiment runner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentError {
    /// Parameter selection found no configuration meeting the accuracy
    /// targets.
    NoViableConfiguration {
        /// The stream that failed.
        stream: String,
        /// Number of configurations evaluated.
        evaluated: usize,
    },
    /// The dataset contained no objects to analyse.
    EmptyDataset {
        /// The stream that failed.
        stream: String,
    },
    /// The service refused a step of the run.
    Service {
        /// The stream that failed.
        stream: String,
        /// The service's error.
        message: String,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::NoViableConfiguration { stream, evaluated } => write!(
                f,
                "no configuration met the accuracy targets for stream {stream} \
                 ({evaluated} evaluated)"
            ),
            ExperimentError::EmptyDataset { stream } => {
                write!(f, "stream {stream} produced no objects to analyse")
            }
            ExperimentError::Service { stream, message } => {
                write!(f, "the service failed on stream {stream}: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// The experiment runner.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    config: ExperimentConfig,
}

impl ExperimentRunner {
    /// Creates a runner for `config`.
    pub fn new(config: ExperimentConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Generates the dataset for a profile according to the configuration
    /// (duration and optional frame-rate subsampling).
    pub fn dataset_for(&self, profile: &StreamProfile) -> VideoDataset {
        let dataset = VideoDataset::generate(profile.clone(), self.config.duration_secs);
        match self.config.frame_rate {
            Some(fps) if fps < profile.fps => sample_dataset(&dataset, fps),
            _ => dataset,
        }
    }

    /// The representative sample of a dataset used for parameter selection.
    ///
    /// The paper "samples a representative fraction of frames of the video
    /// stream" (§4.4); taking only the leading seconds would bias the
    /// selection towards whatever happened first (a busy rush hour makes
    /// every configuration look accurate, a quiet night the opposite), so
    /// whole one-second chunks are taken evenly across the recording until
    /// `sample_secs` of video are collected. One-second granularity keeps
    /// the ground-truth segment rule meaningful on the sample.
    fn sample_of(&self, dataset: &VideoDataset) -> VideoDataset {
        if dataset.frames.is_empty() {
            return dataset.clone();
        }
        let fps = dataset.profile.fps.max(1) as u64;
        let total_seconds = (dataset.frames.len() as u64).div_ceil(fps).max(1);
        let wanted_seconds = (self.config.sample_secs.max(1.0) as u64).max(1);
        let stride = (total_seconds / wanted_seconds.min(total_seconds)).max(1);
        let frames: Vec<_> = dataset
            .frames
            .iter()
            .filter(|f| (f.frame_id.0 / fps).is_multiple_of(stride))
            .cloned()
            .collect();
        let sampled_secs = frames.len() as f64 / fps as f64;
        VideoDataset::from_frames(dataset.profile.clone(), sampled_secs, frames)
    }

    /// Runs parameter selection for a dataset, returning both the full
    /// selection result (for Figures 1 and 6) and the configuration chosen
    /// by the configured policy.
    pub fn select_parameters(
        &self,
        dataset: &VideoDataset,
        gt: &GroundTruthCnn,
    ) -> (SelectionResult, Option<SelectedConfiguration>) {
        let sweep = self.config.sweep.clone().for_ablation(self.config.ablation);
        let selector = ParameterSelector::new(sweep, self.config.target);
        let sample = self.sample_of(dataset);
        let result = selector.select(&sample, gt);
        let chosen = result.choose(self.config.policy);
        (result, chosen)
    }

    /// Runs the full experiment for one stream profile.
    pub fn run_stream(
        &self,
        profile: &StreamProfile,
    ) -> Result<StreamExperimentReport, ExperimentError> {
        let dataset = self.dataset_for(profile);
        self.run_dataset(&dataset)
    }

    /// Runs the full experiment on an already-materialized dataset.
    pub fn run_dataset(
        &self,
        dataset: &VideoDataset,
    ) -> Result<StreamExperimentReport, ExperimentError> {
        let stream_name = dataset.profile.name.clone();
        if dataset.object_count() == 0 {
            return Err(ExperimentError::EmptyDataset {
                stream: stream_name,
            });
        }
        let gt = GroundTruthCnn::resnet152();

        // 1. Parameter selection on the sampled slice. If nothing meets the
        //    targets (which does not happen on the paper's streams, but can
        //    with unusually strict targets or sparse streams), fall back to
        //    the most accurate configuration and record the shortfall.
        let (selection, chosen) = self.select_parameters(dataset, &gt);
        let chosen = match chosen {
            Some(chosen) => chosen,
            None => selection.choose_or_best_effort(self.config.policy).ok_or(
                ExperimentError::NoViableConfiguration {
                    stream: stream_name.clone(),
                    evaluated: selection.evaluated.len(),
                },
            )?,
        };

        // 2. Ingest the full recording with the chosen configuration.
        let service_error = |e: SegmentError| ExperimentError::Service {
            stream: stream_name.clone(),
            message: e.to_string(),
        };
        let service = self.ingest(dataset, &chosen, &gt).map_err(service_error)?;

        // 3. Baselines.
        let baselines = BaselineCosts::compute(dataset, &gt, self.config.gpus);

        // 4. Ground truth and dominant classes for querying.
        let labels = GroundTruthLabels::compute(dataset, &gt);
        let classes = labels.dominant_classes(self.config.query_classes);

        // 5. Queries, served in one batch. The figures keep the paper's cost
        //    unit — one un-batched GT inference per matched cluster, the
        //    unit Query-all is charged in — so neither batch amortization
        //    nor verdicts shared across classes reach them.
        let requests: Vec<QueryRequest> = classes.iter().map(|c| QueryRequest::new(*c)).collect();
        let outcomes = service.serve(&requests).map_err(service_error)?;
        let stats = service.stats();
        // The stream's own ingest GPU seconds, summed per inference as its
        // pipeline accrued them; the scheduler's `"ingest"` phase holds the
        // same inferences summed per frame, across every stream.
        let stream = service.stream_pipeline(dataset.profile.stream_id);
        let ingest_gpu = stream.map_or(GpuCost::ZERO, |pipeline| pipeline.gpu_cost());
        let mut queries = Vec::new();
        let mut query_gpu_total = 0.0;
        for outcome in &outcomes {
            let gpu_cost = gt.cost_per_inference() * outcome.matched_clusters;
            let accuracy = labels.evaluate(outcome.class, &outcome.frames);
            query_gpu_total += gpu_cost.seconds();
            queries.push(QueryReportEntry {
                class: outcome.class,
                gpu_secs: gpu_cost.seconds(),
                latency_secs: self.config.gpus.latency_secs(gpu_cost),
                precision: accuracy.precision,
                recall: accuracy.recall,
                frames_returned: outcome.frames.len(),
                matched_clusters: outcome.matched_clusters,
            });
        }
        let n = queries.len().max(1) as f64;
        let mean_latency = queries.iter().map(|q| q.latency_secs).sum::<f64>() / n;
        let mean_precision = queries.iter().map(|q| q.precision).sum::<f64>() / n;
        let mean_recall = queries.iter().map(|q| q.recall).sum::<f64>() / n;
        let mean_query_gpu = query_gpu_total / n;

        // 6. §6.7 extremes.
        let all_queried =
            AllQueriedComparison::compute(ingest_gpu, stats.store_clusters, &gt, &baselines);
        let query_time_only = QueryTimeOnlyComparison::compute(
            ingest_gpu,
            GpuCost(mean_query_gpu),
            self.config.gpus,
            &baselines,
        );

        Ok(StreamExperimentReport {
            stream: stream_name,
            policy: self.config.policy,
            ablation: self.config.ablation,
            chosen_model: chosen.point.model.display_name(),
            chosen_k: chosen.point.k,
            chosen_threshold: chosen.point.threshold,
            met_accuracy_targets: chosen.met_targets,
            frames: dataset.frames.len(),
            objects: stats.objects_indexed,
            clusters: stats.store_clusters,
            ingest_gpu_secs: ingest_gpu.seconds(),
            ingest_all_gpu_secs: baselines.ingest_all_gpu.seconds(),
            ingest_cheaper_factor: baselines.ingest_cheaper_factor(ingest_gpu),
            mean_query_latency_secs: mean_latency,
            query_all_latency_secs: baselines.query_all_latency_secs,
            query_faster_factor: baselines.query_faster_factor(mean_latency),
            mean_precision,
            mean_recall,
            all_queried_cheaper_factor: all_queried.focus_cheaper_factor,
            query_time_only_faster_factor: query_time_only.focus_faster_factor,
            queries,
        })
    }

    /// Ingests `dataset` with `chosen` on a fresh service over an
    /// in-memory store: the stream registered, the configuration installed,
    /// every frame advanced and the whole recording sealed as one segment.
    ///
    /// The service replays with the model held fixed: no ground-truth
    /// labelling, so no specialization and no retrain, and a seal policy
    /// that never fires before `seal_all`.
    fn ingest(
        &self,
        dataset: &VideoDataset,
        chosen: &SelectedConfiguration,
        gt: &GroundTruthCnn,
    ) -> Result<FocusService, SegmentError> {
        let config = ServiceConfig {
            worker: StreamWorkerConfig {
                bootstrap_secs: f64::INFINITY,
                retrain_interval_secs: f64::INFINITY,
                gt_label_fraction: 0.0,
                ..StreamWorkerConfig::default()
            },
            seal: SealPolicy::every_frames(usize::MAX),
            gpus: self.config.gpus,
            ..ServiceConfig::default()
        };
        let mut service = FocusService::create_with(
            Arc::new(MemFs::default()),
            "/experiment",
            config,
            gt.clone(),
        )?;
        let profile = &dataset.profile;
        service.register_stream(profile.stream_id, profile.fps)?;
        service.install_configuration(profile.stream_id, chosen)?;
        service.advance(&dataset.frames)?;
        service.seal_all()?;
        Ok(service)
    }
}

/// Averages the headline factors over a set of stream reports (the "Avg"
/// bars in Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct AggregateFactors {
    /// Number of streams aggregated.
    pub streams: usize,
    /// Mean ingest-cheaper factor.
    pub mean_ingest_cheaper: f64,
    /// Maximum ingest-cheaper factor.
    pub max_ingest_cheaper: f64,
    /// Mean query-faster factor.
    pub mean_query_faster: f64,
    /// Maximum query-faster factor.
    pub max_query_faster: f64,
    /// Mean precision across streams.
    pub mean_precision: f64,
    /// Mean recall across streams.
    pub mean_recall: f64,
}

impl AggregateFactors {
    /// Aggregates a set of reports.
    pub fn from_reports(reports: &[StreamExperimentReport]) -> Self {
        if reports.is_empty() {
            return Self::default();
        }
        let n = reports.len() as f64;
        Self {
            streams: reports.len(),
            mean_ingest_cheaper: reports.iter().map(|r| r.ingest_cheaper_factor).sum::<f64>() / n,
            max_ingest_cheaper: reports
                .iter()
                .map(|r| r.ingest_cheaper_factor)
                .fold(0.0, f64::max),
            mean_query_faster: reports.iter().map(|r| r.query_faster_factor).sum::<f64>() / n,
            max_query_faster: reports
                .iter()
                .map(|r| r.query_faster_factor)
                .fold(0.0, f64::max),
            mean_precision: reports.iter().map(|r| r.mean_precision).sum::<f64>() / n,
            mean_recall: reports.iter().map(|r| r.mean_recall).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryPlan;
    use crate::query_server::QueryServer;
    use focus_runtime::GpuMeter;
    use focus_video::profile::profile_by_name;

    fn quick_runner(policy: TradeoffPolicy) -> ExperimentRunner {
        ExperimentRunner::new(ExperimentConfig {
            policy,
            target: AccuracyTarget::both(0.9),
            ..ExperimentConfig::quick()
        })
    }

    #[test]
    fn end_to_end_beats_both_baselines() {
        let profile = profile_by_name("auburn_c").unwrap();
        let report = quick_runner(TradeoffPolicy::Balance)
            .run_stream(&profile)
            .unwrap();
        assert!(
            report.ingest_cheaper_factor > 5.0,
            "ingest factor = {}",
            report.ingest_cheaper_factor
        );
        assert!(
            report.query_faster_factor > 3.0,
            "query factor = {}",
            report.query_faster_factor
        );
        assert!(report.mean_precision > 0.8, "{}", report.mean_precision);
        assert!(report.mean_recall > 0.8, "{}", report.mean_recall);
        assert!(report.clusters > 0 && report.clusters < report.objects);
        assert_eq!(report.queries.len(), 3);
        assert!(report.all_queried_cheaper_factor > 1.0);
        assert!(report.query_time_only_faster_factor > 1.0);
    }

    /// The figures charge queries in the paper's unit — one un-batched GT
    /// inference per matched cluster, whatever the verifier amortized or
    /// shared across the stream's classes — and answer what the in-memory
    /// reference planner and a cold server answer for each class alone over
    /// the same records.
    #[test]
    fn query_entries_are_charged_one_unbatched_inference_per_matched_cluster() {
        let runner = quick_runner(TradeoffPolicy::Balance);
        let dataset = runner.dataset_for(&profile_by_name("auburn_c").unwrap());
        let report = runner.run_dataset(&dataset).unwrap();

        // The ingest the runner queried: the same selection, replayed.
        let gt = GroundTruthCnn::resnet152();
        let (selection, chosen) = runner.select_parameters(&dataset, &gt);
        let chosen = chosen
            .or_else(|| selection.choose_or_best_effort(TradeoffPolicy::Balance))
            .unwrap();
        assert_eq!(chosen.point.k, report.chosen_k);
        let service = runner.ingest(&dataset, &chosen, &gt).unwrap();
        assert_eq!(service.stats().store_clusters, report.clusters);
        let index = service.store().merged_index().unwrap();

        let gpus = runner.config().gpus;
        assert_eq!(report.queries.len(), 3);
        for entry in &report.queries {
            let cost = gt.cost_per_inference() * entry.matched_clusters;
            assert_eq!(entry.gpu_secs.to_bits(), cost.seconds().to_bits());
            assert_eq!(
                entry.latency_secs.to_bits(),
                gpus.latency_secs(cost).to_bits()
            );
            let request = QueryRequest::new(entry.class);
            let (plan, records) = QueryPlan::build(&index, &chosen.model, &request);
            let alone = QueryServer::new(gt.clone(), gpus)
                .serve_resolved(
                    &[plan],
                    &[records],
                    |id| index.centroid(id).cloned(),
                    &GpuMeter::new(),
                )
                .remove(0);
            assert_eq!(entry.frames_returned, alone.frames.len());
            assert_eq!(entry.matched_clusters, alone.matched_clusters);
        }
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let profile = profile_by_name("bend").unwrap();
        let runner = quick_runner(TradeoffPolicy::Balance);
        let empty = VideoDataset::from_frames(profile, 0.0, vec![]);
        let err = runner.run_dataset(&empty).unwrap_err();
        assert!(matches!(err, ExperimentError::EmptyDataset { .. }));
        assert!(err.to_string().contains("bend"));
    }

    #[test]
    fn aggregate_factors_average_reports() {
        let profile = profile_by_name("auburn_c").unwrap();
        let report = quick_runner(TradeoffPolicy::Balance)
            .run_stream(&profile)
            .unwrap();
        let agg = AggregateFactors::from_reports(&[report.clone(), report.clone()]);
        assert_eq!(agg.streams, 2);
        assert!((agg.mean_ingest_cheaper - report.ingest_cheaper_factor).abs() < 1e-9);
        assert!((agg.max_query_faster - report.query_faster_factor).abs() < 1e-9);
        assert_eq!(AggregateFactors::from_reports(&[]).streams, 0);
    }

    #[test]
    fn frame_rate_subsampling_reduces_work() {
        let profile = profile_by_name("auburn_c").unwrap();
        let full = quick_runner(TradeoffPolicy::Balance);
        let sampled = ExperimentRunner::new(ExperimentConfig {
            frame_rate: Some(5),
            target: AccuracyTarget::both(0.9),
            ..ExperimentConfig::quick()
        });
        let full_ds = full.dataset_for(&profile);
        let sampled_ds = sampled.dataset_for(&profile);
        assert!(sampled_ds.frames.len() < full_ds.frames.len());
        assert!(sampled_ds.object_count() < full_ds.object_count());
    }

    #[test]
    fn report_serializes_to_json() {
        let profile = profile_by_name("auburn_c").unwrap();
        let report = quick_runner(TradeoffPolicy::Balance)
            .run_stream(&profile)
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("auburn_c"));
        let back: StreamExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stream, report.stream);
    }
}
