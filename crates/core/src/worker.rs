//! The per-stream model lifecycle of §4.3/§5 of the paper: bootstrap
//! specialization and periodic retraining, run by the live
//! [`FocusService`](crate::service::FocusService) over each stream's
//! [`FramePipeline`](crate::pipeline::FramePipeline):
//!
//! 1. **Bootstrap** — the first `bootstrap_secs` of video are indexed with a
//!    generic compressed CNN while a ground-truth-labelled sample is
//!    collected.
//! 2. **Specialize** — once enough labelled objects exist, a per-stream
//!    specialized model is trained and becomes the ingest CNN.
//! 3. **Steady state** — frames are indexed with the specialized model;
//!    a small fraction of objects keeps being GT-labelled so the model can
//!    be **retrained periodically** (the paper retrains every few days; the
//!    interval here is configurable in stream-seconds).
//!
//! Each model epoch uses its own clusterer (feature spaces of different
//! models are not comparable) — the driver seals the pipeline's epoch on
//! every model switch — and sealed epochs accumulate in one top-K index, so
//! queries spanning epochs behave exactly like queries over a
//! batch-ingested recording.

use serde::{Deserialize, Serialize};

use focus_cnn::specialize::SpecializationLevel;
use focus_cnn::{Classifier, GroundTruthCnn, ModelSpec, SpecializedCnn};
use focus_runtime::GpuMeter;
use focus_video::{ClassId, ObjectObservation, StreamId};

use crate::ingest::{IngestCnn, IngestParams};

/// Configuration of a live stream worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamWorkerConfig {
    /// Ingest parameters (K, clustering threshold, pixel differencing, ...).
    pub params: IngestParams,
    /// Generic compressed model used before the first specialization.
    pub bootstrap_model: ModelSpec,
    /// Seconds of video to observe before training the first specialized
    /// model.
    pub bootstrap_secs: f64,
    /// How often (in stream-seconds) the specialized model is retrained.
    pub retrain_interval_secs: f64,
    /// Fraction of objects sent to the ground-truth CNN to maintain the
    /// labelled sample used for (re)training.
    pub gt_label_fraction: f64,
    /// Specialization compression level.
    pub level: SpecializationLevel,
    /// Number of specialized classes.
    pub ls: usize,
}

impl Default for StreamWorkerConfig {
    fn default() -> Self {
        Self {
            params: IngestParams {
                k: 2,
                ..IngestParams::default()
            },
            bootstrap_model: ModelSpec::cheap_cnn_1(),
            bootstrap_secs: 60.0,
            retrain_interval_secs: 600.0,
            gt_label_fraction: 0.02,
            level: SpecializationLevel::Medium,
            ls: 20,
        }
    }
}

/// The per-stream model lifecycle of §4.3/§5, which the
/// [`FocusService`](crate::service::FocusService) runs over each stream's
/// pipeline (bootstrap → specialize → periodic retrain):
///
/// * [`observe`](Self::observe) maintains the ground-truth-labelled sample
///   (a small fraction of objects goes through the caller's GT-CNN — in
///   the service, the query server's current model — charged to the
///   caller's meter under `"specialization"`);
/// * [`maybe_retrain`](Self::maybe_retrain) trains a specialized model once
///   the schedule and the sample allow, returning the new ingest CNN; the
///   caller seals its pipeline's epoch and swaps models (the query
///   server's cached GT verdicts stay valid across the swap).
#[derive(Debug)]
pub struct SpecializationLifecycle {
    stream_id: StreamId,
    config: StreamWorkerConfig,
    labelled_sample: Vec<(ObjectObservation, ClassId)>,
    objects_gt_labelled: usize,
    retrains: usize,
    next_retrain_at_secs: f64,
}

impl SpecializationLifecycle {
    /// Creates the lifecycle for one stream; the first (re)train fires
    /// after `config.bootstrap_secs` of stream time.
    pub fn new(stream_id: StreamId, config: StreamWorkerConfig) -> Self {
        Self {
            stream_id,
            next_retrain_at_secs: config.bootstrap_secs,
            config,
            labelled_sample: Vec::new(),
            objects_gt_labelled: 0,
            retrains: 0,
        }
    }

    /// Class histogram of the ground-truth-labelled sample accumulated so
    /// far — the reference distribution the drift detector
    /// ([`crate::adapt::DriftDetector`]) compares live audit labels
    /// against: a configuration chosen from this sample is only as good as
    /// the sample's class mix, so drift is measured relative to it.
    pub fn sample_class_histogram(&self) -> std::collections::HashMap<ClassId, usize> {
        let mut hist = std::collections::HashMap::new();
        for (_, class) in &self.labelled_sample {
            *hist.entry(*class).or_insert(0) += 1;
        }
        hist
    }

    /// Number of times a specialized model was (re)trained.
    pub fn retrains(&self) -> usize {
        self.retrains
    }

    /// Feeds one object observation: sends it through `gt` for the
    /// labelled sample when the configured fraction is due (charging
    /// `meter` under `"specialization"`). `objects_seen` is the
    /// running 1-based count of observed objects, as delivered by
    /// [`FramePipeline::push_frame_observed`](crate::pipeline::FramePipeline::push_frame_observed).
    /// Returns whether the object was labelled.
    pub fn observe(
        &mut self,
        obj: &ObjectObservation,
        objects_seen: usize,
        gt: &GroundTruthCnn,
        meter: &GpuMeter,
    ) -> bool {
        let labelling_due = (objects_seen as f64 * self.config.gt_label_fraction).floor()
            > self.objects_gt_labelled as f64;
        if !labelling_due {
            return false;
        }
        self.objects_gt_labelled += 1;
        meter.charge("specialization", gt.cost_per_inference());
        let label = gt.classify_top1(obj);
        self.labelled_sample.push((obj.clone(), label));
        true
    }

    /// Trains a specialized model when the retrain schedule has come due
    /// and the labelled sample is non-empty. The caller must seal its
    /// pipeline's epoch before switching to the returned model (feature
    /// spaces of different models are not comparable).
    pub fn maybe_retrain(&mut self, now_secs: f64) -> Option<IngestCnn> {
        if now_secs < self.next_retrain_at_secs {
            return None;
        }
        if self.labelled_sample.is_empty() {
            // Nothing to train on yet (the stream may have been quiet since
            // start-up); retry shortly instead of waiting a full interval.
            self.next_retrain_at_secs = now_secs + 10.0;
            return None;
        }
        self.next_retrain_at_secs = now_secs + self.config.retrain_interval_secs;
        let specialized = SpecializedCnn::train(
            &format!("stream-{}", self.stream_id.0),
            self.config.level,
            &self.labelled_sample,
            self.config.ls,
        )?;
        self.retrains += 1;
        Some(IngestCnn::specialized(specialized))
    }
}
