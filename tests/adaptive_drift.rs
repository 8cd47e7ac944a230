//! Drift-injection integration test for the adaptive live service
//! (`focus_core::adapt` + `FocusService`).
//!
//! Scenario: a traffic camera runs long enough to bootstrap and specialize
//! on its daytime class mix, then the content drifts hard (the palette
//! shifts to a different domain — the day/night shift of a long-lived
//! deployment, injected via [`StreamProfile::drifted`] +
//! [`VideoDataset::continue_with`]). Three properties are pinned:
//!
//! 1. **Adaptation restores accuracy**: after the shift, a static service
//!    (specialized once, never re-selected) decays *below* the 95%/95%
//!    accuracy target on the post-drift dominant classes, while the
//!    adaptive service detects the drift, re-selects on a live window and
//!    re-meets the target.
//! 2. **Adapting is metered and bounded**: audit labelling and the
//!    re-selection sweeps are charged to the shared GPU scheduler (phases
//!    `"audit"` / `"selection"`), the cooldown bounds how many sweeps can
//!    run, and their total GPU bill is a bounded fraction of what
//!    ground-truth-ingesting the stream would cost.
//! 3. **Reconfiguration never changes pre-switch results**: queries over
//!    data indexed before the switch answer byte-identically (canonical
//!    JSON) on the live adaptive run and on a twin that sealed everything
//!    durably before installing the same chosen configuration — old
//!    epochs stay reachable exactly as with scheduled retrains.

use focus::cnn::specialize::SpecializationLevel;
use focus::cnn::{Classifier, GroundTruthCnn};
use focus::core::adapt::AdaptationConfig;
use focus::core::service::{FocusService, ServiceConfig};
use focus::core::{
    AccuracyTarget, GroundTruthLabels, IngestParams, QueryRequest, SealPolicy, StreamWorkerConfig,
    TradeoffPolicy,
};
use focus::index::{MemFs, QueryFilter};
use focus::video::profile::{profile_by_name, StreamDomain};
use focus::video::{Frame, VideoDataset};

use std::sync::Arc;

/// A fresh service on its own in-memory filesystem.
fn mem_service(config: ServiceConfig, gt: GroundTruthCnn) -> FocusService {
    FocusService::create_with(Arc::new(MemFs::default()), "/store", config, gt).unwrap()
}

/// Seconds of pre-drift stream (bootstrap + stable specialized phase).
const PRE_DRIFT_SECS: f64 = 150.0;
/// Seconds of post-drift stream.
const POST_DRIFT_SECS: f64 = 150.0;
/// The post-drift window accuracy is measured on: late enough that the
/// adaptive service has had time to detect the drift and reconfigure.
const EVAL_START_SECS: f64 = 220.0;
/// Seconds of frames pushed per advance tick (one maintenance tick each).
const TICK_SECS: f64 = 5.0;
/// How many of the post-drift dominant classes accuracy is judged on
/// (worst-class, matching the paper's per-class viability rule and the
/// adaptive sweep's `dominant_classes` horizon).
const EVAL_CLASSES: usize = 3;

fn drifted_workload() -> VideoDataset {
    let profile = profile_by_name("auburn_c").unwrap();
    let base = VideoDataset::generate(profile.clone(), PRE_DRIFT_SECS);
    let tail = VideoDataset::generate(
        profile.drifted("night", StreamDomain::News, 11),
        POST_DRIFT_SECS,
    );
    base.continue_with(&tail)
}

fn base_config() -> ServiceConfig {
    ServiceConfig {
        worker: StreamWorkerConfig {
            params: IngestParams {
                k: 2,
                ..IngestParams::default()
            },
            bootstrap_secs: 40.0,
            // The scheduled retrain never fires: without the controller
            // the configuration chosen at bootstrap is final.
            retrain_interval_secs: 1e9,
            gt_label_fraction: 0.05,
            ls: 8,
            level: SpecializationLevel::Aggressive,
            ..StreamWorkerConfig::default()
        },
        seal: SealPolicy::every_secs(20.0),
        ..ServiceConfig::default()
    }
}

fn adaptation() -> AdaptationConfig {
    AdaptationConfig {
        audit_fraction: 0.08,
        window_labels: 150,
        min_window_labels: 40,
        drift_threshold: 0.45,
        window_secs: 30.0,
        cooldown_secs: 90.0,
        target: AccuracyTarget::both(0.95),
        policy: TradeoffPolicy::Balance,
        ..AdaptationConfig::default()
    }
}

/// The workload cut into advance-tick chunks.
fn ticks(workload: &VideoDataset) -> Vec<Vec<Frame>> {
    let per_tick = (TICK_SECS * workload.profile.fps as f64) as usize;
    workload
        .frames
        .chunks(per_tick)
        .map(|chunk| chunk.to_vec())
        .collect()
}

/// The frames of the evaluation window as a dataset (for ground-truth
/// labelling).
fn eval_window(workload: &VideoDataset) -> VideoDataset {
    let frames: Vec<Frame> = workload
        .frames
        .iter()
        .filter(|f| f.timestamp_secs >= EVAL_START_SECS)
        .cloned()
        .collect();
    VideoDataset::from_frames(
        workload.profile.clone(),
        PRE_DRIFT_SECS + POST_DRIFT_SECS - EVAL_START_SECS,
        frames,
    )
}

/// Worst-class precision/recall of one service over the evaluation
/// window's `EVAL_CLASSES` dominant classes.
fn worst_class_accuracy(
    service: &FocusService,
    eval: &VideoDataset,
    labels: &GroundTruthLabels,
) -> (f64, f64) {
    let mut worst_precision = 1.0f64;
    let mut worst_recall = 1.0f64;
    for class in eval.dominant_classes(EVAL_CLASSES) {
        let request = QueryRequest::new(class).with_filter(
            QueryFilter::any().with_time_range(EVAL_START_SECS, PRE_DRIFT_SECS + POST_DRIFT_SECS),
        );
        let outcome = &service.serve(std::slice::from_ref(&request)).unwrap()[0];
        let report = labels.evaluate(class, &outcome.frames);
        worst_precision = worst_precision.min(report.precision);
        worst_recall = worst_recall.min(report.recall);
    }
    (worst_precision, worst_recall)
}

#[test]
fn adaptive_service_restores_accuracy_after_drift_at_bounded_cost() {
    let workload = drifted_workload();
    let stream = workload.profile.stream_id;
    let gt = GroundTruthCnn::resnet152();

    let mut static_service = mem_service(base_config(), gt.clone());
    let mut adaptive_service = mem_service(
        ServiceConfig {
            adaptation: Some(adaptation()),
            ..base_config()
        },
        gt.clone(),
    );
    static_service
        .register_stream(stream, workload.profile.fps)
        .unwrap();
    adaptive_service
        .register_stream(stream, workload.profile.fps)
        .unwrap();

    for tick in ticks(&workload) {
        static_service.advance(&tick).unwrap();
        static_service.maintain().unwrap();
        adaptive_service.advance(&tick).unwrap();
        adaptive_service.maintain().unwrap();
    }

    // Both services specialized once during bootstrap; only the adaptive
    // one reconfigured afterwards, and the cooldown bounds how often.
    assert_eq!(static_service.stats().retrains, 1);
    assert_eq!(static_service.stats().reconfigurations, 0);
    let adaptive_stats = adaptive_service.stats();
    assert!(
        adaptive_stats.reconfigurations >= 1,
        "the drift must trigger at least one re-selection"
    );
    let cooldown_cap =
        1 + ((PRE_DRIFT_SECS + POST_DRIFT_SECS) / adaptation().cooldown_secs) as usize;
    assert!(
        adaptive_stats.reconfigurations <= cooldown_cap,
        "{} reconfigurations exceed the cooldown cap {}",
        adaptive_stats.reconfigurations,
        cooldown_cap
    );

    // The drift premise: the post-drift dominant classes are (mostly) ones
    // the static model never specialized for.
    let eval = eval_window(&workload);
    let static_specialized = static_service
        .stream_model(stream)
        .unwrap()
        .specialized_classes
        .clone()
        .expect("the static service specialized during bootstrap");
    assert!(
        eval.dominant_classes(EVAL_CLASSES)
            .iter()
            .any(|c| !static_specialized.contains(c)),
        "the injected drift must surface new dominant classes"
    );

    // Worst-class accuracy over the post-drift window.
    let labels = GroundTruthLabels::compute(&eval, &gt);
    let (static_precision, static_recall) = worst_class_accuracy(&static_service, &eval, &labels);
    let (adaptive_precision, adaptive_recall) =
        worst_class_accuracy(&adaptive_service, &eval, &labels);

    let target = AccuracyTarget::both(0.95);
    assert!(
        !target.met_by(static_precision, static_recall),
        "the static configuration should have decayed below 95%/95% \
         (got worst precision {static_precision:.3}, worst recall {static_recall:.3})"
    );
    assert!(
        target.met_by(adaptive_precision, adaptive_recall),
        "the adaptive service must re-meet 95%/95% after the shift \
         (got worst precision {adaptive_precision:.3}, worst recall {adaptive_recall:.3})"
    );

    // Adaptation's GPU bill is metered through the shared scheduler and
    // bounded: audit labelling plus every re-selection sweep together stay
    // well under what ground-truth-ingesting the stream would cost (an
    // unbounded controller — e.g. re-sweeping every tick — would blow far
    // past this).
    let audit = adaptive_stats.gpu.submitted_by_phase["audit"];
    let selection = adaptive_stats.gpu.submitted_by_phase["selection"];
    assert!(audit > 0.0, "audit labels were metered");
    assert!(selection > 0.0, "the re-selection sweeps were metered");
    let gt_ingest_all = gt.cost_per_inference().seconds() * workload.object_count() as f64;
    assert!(
        audit + selection < 0.6 * gt_ingest_all,
        "adaptation cost {:.1}s exceeds 60% of GT-ingest-all ({:.1}s)",
        audit + selection,
        gt_ingest_all
    );
    assert!(
        audit < 0.15 * gt_ingest_all,
        "the audit budget alone must stay a small fraction"
    );
    // And the static run paid none of it.
    let static_stats = static_service.stats();
    assert!(!static_stats.gpu.submitted_by_phase.contains_key("audit"));
    assert!(!static_stats
        .gpu
        .submitted_by_phase
        .contains_key("selection"));
}

#[test]
fn reconfiguration_is_byte_identical_to_a_seal_then_reconfigure_reference() {
    let workload = drifted_workload();
    let stream = workload.profile.stream_id;
    let gt = GroundTruthCnn::resnet152();

    // The live run reconfigures through the controller mid-stream; the
    // reference runs without adaptation and is driven in lockstep.
    let mut live = mem_service(
        ServiceConfig {
            adaptation: Some(adaptation()),
            ..base_config()
        },
        gt.clone(),
    );
    let mut reference = mem_service(base_config(), gt.clone());
    live.register_stream(stream, workload.profile.fps).unwrap();
    reference
        .register_stream(stream, workload.profile.fps)
        .unwrap();

    // Phase 1: lockstep until the live controller's first reconfiguration.
    let chunks = ticks(&workload);
    let mut tick = 0usize;
    while tick < chunks.len() && live.stats().reconfigurations == 0 {
        live.advance(&chunks[tick]).unwrap();
        live.maintain().unwrap();
        reference.advance(&chunks[tick]).unwrap();
        reference.maintain().unwrap();
        tick += 1;
    }
    assert_eq!(
        live.stats().reconfigurations,
        1,
        "the live controller must reconfigure within the workload"
    );
    // The stream time of the switch: the live controller reconfigured in
    // the maintenance call after chunk `tick - 1`.
    let switch_secs = tick as f64 * TICK_SECS;
    let event = live
        .stream_controller(stream)
        .unwrap()
        .last_reconfiguration()
        .expect("controller recorded the reconfiguration")
        .clone();

    // The reference seals *everything* durably, then installs the same
    // chosen configuration by hand.
    reference.seal_all().unwrap();
    reference
        .install_configuration(stream, &event.selection)
        .unwrap();
    assert_eq!(reference.stats().reconfigurations, 1);

    // Phase 2: both keep ingesting past the switch (staying inside the
    // live cooldown so no second reconfiguration diverges the models).
    let more_ticks =
        ((adaptation().cooldown_secs / TICK_SECS) as usize - 2).min(chunks.len() - tick);
    for chunk in chunks[tick..tick + more_ticks].iter() {
        live.advance(chunk).unwrap();
        live.maintain().unwrap();
        reference.advance(chunk).unwrap();
        reference.maintain().unwrap();
    }
    assert_eq!(live.stats().reconfigurations, 1, "cooldown held");

    // Queries over pre-switch data answer byte-identically: installing
    // the new configuration never rewrote, re-keyed or hid a single
    // record indexed before the switch. (Post-switch data is a different
    // run by construction — the reference's seal-all restarted its
    // segment clock — which is exactly why the guarantee is scoped to the
    // data that existed when the configuration changed.)
    let end = switch_secs - 0.5;
    let classes = workload.dominant_classes(2);
    let mut requests = Vec::new();
    for &class in &classes {
        requests.push(
            QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(0.0, end)),
        );
        requests.push(
            QueryRequest::new(class)
                .with_filter(QueryFilter::any().with_time_range(0.0, end / 2.0)),
        );
        requests.push(
            QueryRequest::new(class).with_filter(
                QueryFilter::any()
                    .with_time_range((end - 20.0).max(0.0), end)
                    .with_kx(2),
            ),
        );
    }
    let live_outcomes = live.serve(&requests).unwrap();
    let reference_outcomes = reference.serve(&requests).unwrap();
    assert!(
        live_outcomes.iter().any(|o| !o.frames.is_empty()),
        "the pre-switch window must actually hold results"
    );
    assert_eq!(
        serde_json::to_string(&live_outcomes).unwrap(),
        serde_json::to_string(&reference_outcomes).unwrap(),
        "live reconfiguration and seal-then-reconfigure must answer \
         byte-identically on pre-switch data"
    );
}
