//! Live adaptation: drift-aware per-stream reconfiguration.
//!
//! Focus picks each stream's configuration — cheap CNN, top-K width,
//! clustering threshold — *once*, on a short sample, under a fixed
//! ingest/query trade-off policy (§4.4, Figures 1/6 of the paper). That is
//! the right shape for a recorded experiment and the wrong shape for a
//! long-lived service: class distributions drift (day/night,
//! weekday/weekend), and a one-shot choice decays silently — the
//! specialized model keeps mapping the new dominant classes through OTHER,
//! recall slides below the accuracy target, and nothing notices. This module closes the loop between the offline
//! [`ParameterSelector`] and the online
//! [`FocusService`](crate::service::FocusService):
//!
//! * [`DriftDetector`] — compares the live class distribution against the
//!   distribution the current configuration was selected on (total
//!   variation distance over normalized class histograms).
//! * [`StreamController`] — per-stream observe → detect → re-select loop.
//!   It maintains a rolling window of recent frames and a rolling
//!   histogram of **audit labels** (a small fraction of objects sent
//!   through the ground-truth CNN on a metered budget, phase `"audit"`).
//!   When the audit histogram drifts past the threshold it re-runs the
//!   parameter sweep on the window
//!   ([`ParameterSelector::select_metered`], phase `"selection"`) and
//!   hands the chosen configuration back to the service, which installs it
//!   through the ordinary model-epoch seal machinery — records indexed
//!   before the switch are untouched and stay reachable exactly as after a
//!   scheduled retrain (`tests/adaptive_drift.rs` pins this byte-identical
//!   against a seal-then-reconfigure reference).
//!
//! All adaptation GPU work — audit labelling and re-selection sweeps — is
//! submitted to the same scheduler as ingest and queries, so adapting is a
//! *visible, bounded* cost, not a free lunch (ExSample makes the same
//! point for adaptive sampling: the win is reallocating a fixed budget,
//! not spending more of it).
//!
//! See `docs/adaptation.md` for the end-to-end walkthrough.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use focus_cnn::{Classifier, GroundTruthCnn};
use focus_runtime::GpuMeter;
use focus_video::profile::StreamDomain;
use focus_video::{ClassId, Frame, ObjectObservation, StreamId, StreamProfile, VideoDataset};

use crate::config::{AccuracyTarget, TradeoffPolicy};
use crate::params::{ParameterSelector, SelectedConfiguration, SweepSpace};

/// Compares two class histograms and decides whether the distribution has
/// drifted past a threshold.
///
/// The metric is the total variation distance between the normalized
/// histograms: `0.0` for identical distributions, `1.0` for disjoint ones.
/// It is insensitive to the absolute number of labels on either side, so a
/// 50-label audit window can be compared against a 5,000-label
/// specialization sample.
///
/// # Examples
///
/// ```
/// use focus_core::adapt::DriftDetector;
/// use focus_video::ClassId;
/// use std::collections::HashMap;
///
/// let reference: HashMap<ClassId, usize> =
///     [(ClassId(1), 90), (ClassId(2), 10)].into_iter().collect();
/// let same = reference.clone();
/// let shifted: HashMap<ClassId, usize> =
///     [(ClassId(7), 80), (ClassId(1), 20)].into_iter().collect();
///
/// let detector = DriftDetector::new(0.5);
/// assert_eq!(DriftDetector::distance(&reference, &same), 0.0);
/// assert!(!detector.drifted(&reference, &same));
/// assert!(detector.drifted(&reference, &shifted));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftDetector {
    /// Total-variation distance at or above which the distribution counts
    /// as drifted, in `[0, 1]`.
    pub threshold: f64,
}

impl DriftDetector {
    /// Creates a detector with the given threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is outside `[0, 1]`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "drift threshold must be in [0, 1]"
        );
        Self { threshold }
    }

    /// Total variation distance between the normalized histograms:
    /// `0.5 * Σ_c |p(c) - q(c)|`, which is `0.0` for identical
    /// distributions and `1.0` for disjoint ones. Two empty histograms are
    /// identical; an empty histogram against a non-empty one is disjoint.
    pub fn distance(reference: &HashMap<ClassId, usize>, recent: &HashMap<ClassId, usize>) -> f64 {
        let ref_total: usize = reference.values().sum();
        let rec_total: usize = recent.values().sum();
        match (ref_total, rec_total) {
            (0, 0) => return 0.0,
            (0, _) | (_, 0) => return 1.0,
            _ => {}
        }
        let mut diff = 0.0;
        for (class, count) in reference {
            let p = *count as f64 / ref_total as f64;
            let q = recent.get(class).copied().unwrap_or(0) as f64 / rec_total as f64;
            diff += (p - q).abs();
        }
        for (class, count) in recent {
            if !reference.contains_key(class) {
                diff += *count as f64 / rec_total as f64;
            }
        }
        diff / 2.0
    }

    /// Whether `recent` has drifted from `reference`: true exactly when
    /// the distance is **at or above** the threshold (a distance equal to
    /// the threshold counts as drift; pinned by this module's tests).
    pub fn drifted(
        &self,
        reference: &HashMap<ClassId, usize>,
        recent: &HashMap<ClassId, usize>,
    ) -> bool {
        Self::distance(reference, recent) >= self.threshold
    }
}

/// Configuration of a stream's adaptive controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptationConfig {
    /// Fraction of observed objects sent through the ground-truth CNN as
    /// audit labels (charged to the shared budget under `"audit"`). This
    /// is on top of the specialization lifecycle's own labelling.
    pub audit_fraction: f64,
    /// How many of the most recent audit labels form the live histogram
    /// the drift detector compares against the reference.
    pub window_labels: usize,
    /// Minimum audit labels in the window before drift is judged at all —
    /// a handful of labels is noise, not a distribution.
    pub min_window_labels: usize,
    /// Total-variation distance at or above which the stream counts as
    /// drifted and re-selection runs.
    pub drift_threshold: f64,
    /// Length of the rolling frame window the re-selection sweep runs on,
    /// in stream seconds.
    pub window_secs: f64,
    /// Minimum stream time between two reconfigurations of one stream
    /// (re-selection is not free; this bounds how often it can be paid).
    pub cooldown_secs: f64,
    /// The candidate space the online re-selection sweeps — defaults to
    /// the reduced [`SweepSpace::adaptive`] grid.
    pub sweep: SweepSpace,
    /// Accuracy target the re-selected configuration must meet on the
    /// window sample.
    pub target: AccuracyTarget,
    /// Trade-off policy applied to the viable re-selected configurations.
    pub policy: TradeoffPolicy,
}

impl Default for AdaptationConfig {
    fn default() -> Self {
        Self {
            audit_fraction: 0.02,
            window_labels: 200,
            min_window_labels: 50,
            drift_threshold: 0.35,
            window_secs: 60.0,
            cooldown_secs: 120.0,
            sweep: SweepSpace::adaptive(),
            target: AccuracyTarget::default(),
            policy: TradeoffPolicy::Balance,
        }
    }
}

/// What a drift-triggered re-selection decided.
#[derive(Debug, Clone)]
pub struct Reconfiguration {
    /// The total-variation distance that triggered the re-selection.
    pub drift_distance: f64,
    /// The configuration chosen on the drift window, ready to install.
    pub selection: SelectedConfiguration,
    /// Audit labels in the window when the drift was judged.
    pub window_labels: usize,
}

/// The per-stream observe → detect → re-select controller (see the module
/// docs). Owned by the service next to the stream's specialization
/// lifecycle; inert until the first specialization hands it a reference
/// histogram ([`set_reference`](Self::set_reference)).
#[derive(Debug)]
pub struct StreamController {
    stream: StreamId,
    fps: u32,
    config: AdaptationConfig,
    detector: DriftDetector,
    /// The class histogram the current configuration was selected on.
    reference: Option<HashMap<ClassId, usize>>,
    /// Rolling window of the most recent audit labels.
    recent: VecDeque<ClassId>,
    audit_labels: usize,
    /// Rolling window of recent frames the re-selection sweep samples.
    window: VecDeque<Frame>,
    generation: usize,
    reconfigurations: usize,
    last_reconfiguration_secs: f64,
    last_reconfiguration: Option<Reconfiguration>,
}

impl StreamController {
    /// Creates a controller for one stream.
    pub fn new(stream: StreamId, fps: u32, config: AdaptationConfig) -> Self {
        let detector = DriftDetector::new(config.drift_threshold);
        Self {
            stream,
            fps: fps.max(1),
            config,
            detector,
            reference: None,
            recent: VecDeque::new(),
            audit_labels: 0,
            window: VecDeque::new(),
            generation: 0,
            reconfigurations: 0,
            last_reconfiguration_secs: f64::NEG_INFINITY,
            last_reconfiguration: None,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &AdaptationConfig {
        &self.config
    }

    /// Audit labels drawn so far (each one cost a GT inference on the
    /// shared budget).
    pub fn audit_labels(&self) -> usize {
        self.audit_labels
    }

    /// Reconfigurations this controller has triggered.
    pub fn reconfigurations(&self) -> usize {
        self.reconfigurations
    }

    /// The most recent reconfiguration this controller decided (`None`
    /// before the first one) — what a seal-then-reconfigure reference run
    /// replays to pin byte-identical pre-drift results.
    pub fn last_reconfiguration(&self) -> Option<&Reconfiguration> {
        self.last_reconfiguration.as_ref()
    }

    /// The reference histogram the live distribution is compared against
    /// (`None` until the first specialization).
    pub fn reference(&self) -> Option<&HashMap<ClassId, usize>> {
        self.reference.as_ref()
    }

    /// Installs the distribution the current configuration was selected on
    /// — the specialization sample's histogram after a lifecycle
    /// (re)train, or the audit window after a controller reconfiguration.
    /// Arms the drift detector.
    pub fn set_reference(&mut self, histogram: HashMap<ClassId, usize>) {
        self.reference = Some(histogram);
    }

    /// Feeds one object observation: draws it as an audit label from `gt`
    /// when the configured fraction is due, charging `meter` under
    /// `"audit"`.
    /// `objects_seen` is the running 1-based count of observed objects, as
    /// delivered by the pipeline's observer hook. Returns whether the
    /// object was audited.
    pub fn observe(
        &mut self,
        obj: &ObjectObservation,
        objects_seen: usize,
        gt: &GroundTruthCnn,
        meter: &GpuMeter,
    ) -> bool {
        let due =
            (objects_seen as f64 * self.config.audit_fraction).floor() > self.audit_labels as f64;
        if !due {
            return false;
        }
        self.audit_labels += 1;
        meter.charge("audit", gt.cost_per_inference());
        let label = gt.classify_top1(obj);
        self.recent.push_back(label);
        while self.recent.len() > self.config.window_labels.max(1) {
            self.recent.pop_front();
        }
        true
    }

    /// Feeds one frame into the rolling re-selection window (trimmed to
    /// [`AdaptationConfig::window_secs`] of stream time).
    pub fn note_frame(&mut self, frame: &Frame) {
        let horizon = frame.timestamp_secs - self.config.window_secs;
        self.window.push_back(frame.clone());
        while self
            .window
            .front()
            .is_some_and(|f| f.timestamp_secs < horizon)
        {
            self.window.pop_front();
        }
    }

    /// Stream time of the newest frame the controller has seen (0.0
    /// before any frame) — the clock [`maybe_reconfigure`] runs on.
    ///
    /// [`maybe_reconfigure`]: Self::maybe_reconfigure
    pub fn last_seen_secs(&self) -> f64 {
        self.window.back().map(|f| f.timestamp_secs).unwrap_or(0.0)
    }

    /// The live histogram over the rolling audit-label window.
    pub fn recent_histogram(&self) -> HashMap<ClassId, usize> {
        let mut hist = HashMap::new();
        for class in &self.recent {
            *hist.entry(*class).or_insert(0) += 1;
        }
        hist
    }

    /// The current drift distance, or `None` while the detector is
    /// un-armed (no reference yet) or the audit window is still too small
    /// to judge.
    pub fn drift_distance(&self) -> Option<f64> {
        let reference = self.reference.as_ref()?;
        if self.recent.len() < self.config.min_window_labels.max(1) {
            return None;
        }
        Some(DriftDetector::distance(reference, &self.recent_histogram()))
    }

    /// The detect → re-select step, run once per maintenance tick: if the
    /// cooldown has passed and the audit histogram has drifted past the
    /// threshold, re-runs the parameter sweep on the rolling frame window
    /// against `gt` (GPU bill charged to `meter` under `"selection"`) and
    /// returns the chosen configuration for the service to install. The
    /// audit window becomes the new reference, so the detector re-arms
    /// against the distribution just reconfigured for.
    ///
    /// Returns `None` when nothing needs to change (no drift, cooldown,
    /// window empty, or the sweep found nothing to run).
    pub fn maybe_reconfigure(
        &mut self,
        now_secs: f64,
        gt: &GroundTruthCnn,
        meter: &GpuMeter,
    ) -> Option<Reconfiguration> {
        if now_secs - self.last_reconfiguration_secs < self.config.cooldown_secs {
            return None;
        }
        let distance = self.drift_distance()?;
        if distance < self.detector.threshold {
            return None;
        }
        if self.window.is_empty() {
            return None;
        }
        self.generation += 1;
        let sample = self.window_sample();
        let selector = ParameterSelector::new(self.config.sweep.clone(), self.config.target);
        let result = selector.select_metered(&sample, gt, meter);
        let selection = result.choose_or_best_effort(self.config.policy)?;
        self.reconfigurations += 1;
        self.last_reconfiguration_secs = now_secs;
        self.set_reference(self.recent_histogram());
        let event = Reconfiguration {
            drift_distance: distance,
            selection,
            window_labels: self.recent.len(),
        };
        self.last_reconfiguration = Some(event.clone());
        Some(event)
    }

    /// The rolling frame window as a dataset the parameter sweep can run
    /// on. The synthesized profile carries the stream identity the sweep
    /// actually reads — the frame rate (ground-truth segmenting) and a
    /// per-generation name (part of a trained specialized model's
    /// deterministic identity) — the statistical fields describe
    /// generation, which this window did not come from.
    fn window_sample(&self) -> VideoDataset {
        let frames: Vec<Frame> = self.window.iter().cloned().collect();
        let span = match (frames.first(), frames.last()) {
            (Some(first), Some(last)) => last.timestamp_secs - first.timestamp_secs,
            _ => 0.0,
        };
        let profile = StreamProfile {
            name: format!("stream-{}-adapt{}", self.stream.0, self.generation),
            location: String::new(),
            description: "live re-selection window".to_string(),
            domain: StreamDomain::Traffic,
            stream_id: self.stream,
            fps: self.fps,
            distinct_classes: 1,
            zipf_exponent: 1.0,
            empty_frame_fraction: 0.0,
            mean_objects_per_busy_frame: 1.0,
            mean_dwell_secs: 1.0,
            seed: 0,
        };
        VideoDataset::from_frames(profile, span, frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_video::profile::profile_by_name;

    fn hist(entries: &[(u16, usize)]) -> HashMap<ClassId, usize> {
        entries.iter().map(|(c, n)| (ClassId(*c), *n)).collect()
    }

    #[test]
    fn distance_is_zero_for_identical_and_one_for_disjoint() {
        let a = hist(&[(1, 80), (2, 20)]);
        assert_eq!(DriftDetector::distance(&a, &a), 0.0);
        // Scale invariance: the same distribution at 10x the labels.
        let scaled = hist(&[(1, 800), (2, 200)]);
        assert!(DriftDetector::distance(&a, &scaled) < 1e-12);
        let disjoint = hist(&[(9, 5)]);
        assert!((DriftDetector::distance(&a, &disjoint) - 1.0).abs() < 1e-12);
        // Empty cases.
        assert_eq!(DriftDetector::distance(&hist(&[]), &hist(&[])), 0.0);
        assert_eq!(DriftDetector::distance(&a, &hist(&[])), 1.0);
        assert_eq!(DriftDetector::distance(&hist(&[]), &a), 1.0);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let a = hist(&[(1, 50), (2, 30), (3, 20)]);
        let b = hist(&[(2, 10), (3, 10), (4, 80)]);
        let ab = DriftDetector::distance(&a, &b);
        let ba = DriftDetector::distance(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
        // Half the mass moved from class 1 to class 4 plus the rest:
        // |0.5-0| + |0.3-0.1| + |0.2-0.1| + |0-0.8| over 2 = 0.8.
        assert!((ab - 0.8).abs() < 1e-12);
    }

    #[test]
    fn exact_threshold_counts_as_drift() {
        // A distance exactly at the threshold triggers (>= semantics).
        let reference = hist(&[(1, 1), (2, 1)]);
        let recent = hist(&[(1, 1), (3, 1)]);
        let distance = DriftDetector::distance(&reference, &recent);
        assert!((distance - 0.5).abs() < 1e-12);
        assert!(DriftDetector::new(0.5).drifted(&reference, &recent));
        assert!(!DriftDetector::new(0.5 + 1e-9).drifted(&reference, &recent));
        assert!(DriftDetector::new(0.0).drifted(&reference, &reference));
    }

    #[test]
    #[should_panic(expected = "drift threshold")]
    fn out_of_range_threshold_panics() {
        let _ = DriftDetector::new(1.5);
    }

    fn controller(config: AdaptationConfig) -> StreamController {
        StreamController::new(StreamId(0), 30, config)
    }

    #[test]
    fn controller_audits_the_configured_fraction_and_charges_the_meter() {
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile, 30.0);
        let mut c = controller(AdaptationConfig {
            audit_fraction: 0.05,
            ..AdaptationConfig::default()
        });
        let meter = GpuMeter::new();
        let gt = GroundTruthCnn::resnet152();
        let mut seen = 0usize;
        for frame in &ds.frames {
            c.note_frame(frame);
            for obj in &frame.objects {
                seen += 1;
                c.observe(obj, seen, &gt, &meter);
            }
        }
        let expected = (seen as f64 * 0.05).floor() as usize;
        assert_eq!(c.audit_labels(), expected);
        assert!(
            (meter.phase("audit").seconds() - gt.cost_per_inference().seconds() * expected as f64)
                .abs()
                < 1e-9
        );
        // The rolling label window is capped.
        assert!(c.recent.len() <= c.config().window_labels);
        // The frame window only keeps the configured span.
        let span =
            c.window.back().unwrap().timestamp_secs - c.window.front().unwrap().timestamp_secs;
        assert!(span <= c.config().window_secs + 1e-9);
    }

    #[test]
    fn no_drift_means_no_reconfiguration() {
        // A stationary stream: the audit window matches the specialization
        // sample, so the controller must never re-select.
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile, 60.0);
        let mut c = controller(AdaptationConfig {
            audit_fraction: 0.1,
            min_window_labels: 20,
            cooldown_secs: 0.0,
            ..AdaptationConfig::default()
        });
        let meter = GpuMeter::new();
        let gt = GroundTruthCnn::resnet152();
        let mut seen = 0usize;
        let mut armed = false;
        for frame in &ds.frames {
            c.note_frame(frame);
            for obj in &frame.objects {
                seen += 1;
                c.observe(obj, seen, &gt, &meter);
            }
            if !armed && c.recent.len() >= 60 {
                // Arm the detector with the live distribution itself, as a
                // lifecycle specialization would.
                c.set_reference(c.recent_histogram());
                armed = true;
            }
            if armed {
                assert!(
                    c.maybe_reconfigure(frame.timestamp_secs, &gt, &meter)
                        .is_none(),
                    "stationary stream reconfigured at {}s (distance {:?})",
                    frame.timestamp_secs,
                    c.drift_distance()
                );
            }
        }
        assert!(armed);
        assert_eq!(c.reconfigurations(), 0);
        assert_eq!(meter.phase("selection").seconds(), 0.0, "no sweep ran");
    }

    #[test]
    fn unarmed_or_underfilled_controller_reports_no_drift() {
        let mut c = controller(AdaptationConfig::default());
        assert_eq!(c.drift_distance(), None, "un-armed");
        c.set_reference(hist(&[(1, 10)]));
        assert_eq!(c.drift_distance(), None, "window below minimum");
        let meter = GpuMeter::new();
        let gt = GroundTruthCnn::resnet152();
        assert!(c.maybe_reconfigure(1_000.0, &gt, &meter).is_none());
    }

    #[test]
    fn drifted_stream_reselects_and_rearms_on_the_new_distribution() {
        let profile = profile_by_name("auburn_c").unwrap();
        let drifted = profile.drifted("night", StreamDomain::News, 3);
        let base = VideoDataset::generate(profile, 30.0);
        let tail = VideoDataset::generate(drifted, 30.0);
        let spliced = base.continue_with(&tail);
        let mut c = controller(AdaptationConfig {
            audit_fraction: 0.1,
            window_labels: 120,
            min_window_labels: 30,
            drift_threshold: 0.4,
            window_secs: 20.0,
            cooldown_secs: 0.0,
            ..AdaptationConfig::default()
        });
        let meter = GpuMeter::new();
        let gt = GroundTruthCnn::resnet152();
        let mut seen = 0usize;
        let mut reconfigured = None;
        for frame in &spliced.frames {
            c.note_frame(frame);
            for obj in &frame.objects {
                seen += 1;
                c.observe(obj, seen, &gt, &meter);
            }
            if frame.timestamp_secs >= 29.0 && c.reference().is_none() {
                c.set_reference(c.recent_histogram());
            }
            if c.reference().is_some() && reconfigured.is_none() {
                reconfigured = c.maybe_reconfigure(frame.timestamp_secs, &gt, &meter);
                if reconfigured.is_some() {
                    // The detector re-armed on the distribution it just
                    // reconfigured for: at this instant there is no drift
                    // left to act on.
                    assert!(c.drift_distance().unwrap() < 1e-9);
                }
            }
        }
        let event = reconfigured.expect("the injected drift must trigger re-selection");
        assert!(event.drift_distance >= 0.4);
        assert!(event.window_labels >= 30);
        assert_eq!(c.reconfigurations(), 1);
        // The sweep's bill landed on the meter.
        assert!(meter.phase("selection").seconds() > 0.0);
        // The chosen configuration is runnable.
        assert!(event.selection.params.k >= 1);
        assert!(event.selection.model.classifier.cheapness_vs_gt() > 1.0);
    }

    #[test]
    fn cooldown_suppresses_back_to_back_reconfigurations() {
        let mut c = controller(AdaptationConfig {
            min_window_labels: 1,
            drift_threshold: 0.0,
            cooldown_secs: 100.0,
            ..AdaptationConfig::default()
        });
        // Force a drifted state with a tiny synthetic window.
        let profile = profile_by_name("auburn_c").unwrap();
        let ds = VideoDataset::generate(profile, 5.0);
        let meter = GpuMeter::new();
        let gt = GroundTruthCnn::resnet152();
        let mut seen = 0usize;
        for frame in &ds.frames {
            c.note_frame(frame);
            for obj in &frame.objects {
                seen += 1;
                c.observe(obj, seen, &gt, &meter);
            }
        }
        c.set_reference(hist(&[(999, 5)]));
        let first = c.maybe_reconfigure(10.0, &gt, &meter);
        assert!(first.is_some());
        // Within the cooldown nothing fires, even though the reference was
        // re-armed and the distance may still be non-zero.
        c.set_reference(hist(&[(999, 5)]));
        assert!(c.maybe_reconfigure(50.0, &gt, &meter).is_none());
        assert!(c.maybe_reconfigure(110.0, &gt, &meter).is_some());
    }
}
