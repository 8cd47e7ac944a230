//! GPU-time accounting and the cluster latency model.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use focus_cnn::GpuCost;

/// Per-phase breakdown of GPU time charged to a meter.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// GPU seconds charged per phase name.
    pub phases: HashMap<String, f64>,
}

impl PhaseBreakdown {
    /// Total GPU seconds across all phases.
    pub fn total(&self) -> GpuCost {
        GpuCost(self.phases.values().sum())
    }

    /// GPU time of one phase (zero if the phase never ran).
    pub fn phase(&self, name: &str) -> GpuCost {
        GpuCost(self.phases.get(name).copied().unwrap_or(0.0))
    }
}

/// Thread-safe accumulator of GPU time.
///
/// Cloning a meter yields a handle to the same underlying counters, so
/// worker threads can charge the meter concurrently.
#[derive(Debug, Clone, Default)]
pub struct GpuMeter {
    inner: Arc<Mutex<PhaseBreakdown>>,
}

// The ingest and query layers hand meter clones to worker threads; this
// compile-time assertion keeps the meter's cross-thread shareability an
// explicit API guarantee rather than an accident of its field types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GpuMeter>();
};

impl GpuMeter {
    /// Creates a meter with no charges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cost` GPU seconds to the phase `phase`.
    pub fn charge(&self, phase: &str, cost: GpuCost) {
        let mut inner = self.inner.lock();
        *inner.phases.entry(phase.to_string()).or_insert(0.0) += cost.seconds();
    }

    /// Charges the cost of `count` inferences of `per_inference` cost.
    pub fn charge_inferences(&self, phase: &str, per_inference: GpuCost, count: usize) {
        self.charge(phase, per_inference * count);
    }

    /// Total GPU time charged so far.
    pub fn total(&self) -> GpuCost {
        self.inner.lock().total()
    }

    /// GPU time charged to one phase.
    pub fn phase(&self, name: &str) -> GpuCost {
        self.inner.lock().phase(name)
    }

    /// Snapshot of the per-phase breakdown.
    pub fn breakdown(&self) -> PhaseBreakdown {
        self.inner.lock().clone()
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.inner.lock().phases.clear();
    }
}

/// Amortized cost model for **batched** GPU inference.
///
/// Submitting one image at a time pays the full per-launch overhead (kernel
/// launch, weight/activation transfer, pipeline fill) on every inference.
/// Submitting a batch pays that overhead once per launch and the pure
/// compute cost per image, which is how real GPUs reach their published
/// throughput numbers. The model splits a single inference's cost into an
/// `overhead_fraction` that is fixed per launch and a `1 - overhead_fraction`
/// compute part that scales with the number of images:
///
/// ```text
/// cost(n) = per_inference × ((1 − f)·n + f·⌈n / max_batch⌉)
/// ```
///
/// so a lone inference costs exactly `per_inference` (the serial path and
/// the batched path agree at n = 1), and a full batch of `max_batch` images
/// approaches a `1 − f` discount per image.
///
/// # Examples
///
/// ```
/// use focus_runtime::BatchCostModel;
/// use focus_cnn::GpuCost;
///
/// let model = BatchCostModel::default();
/// let per = GpuCost(1.0);
/// // A single inference is not discounted.
/// assert_eq!(model.batch_cost(per, 1), per);
/// // A full batch is strictly cheaper than the same work done serially.
/// let batched = model.batch_cost(per, 64);
/// assert!(batched < per * 64usize);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchCostModel {
    /// Fraction of a single inference's GPU time that is fixed per-launch
    /// overhead, amortized across the images of a batch.
    pub overhead_fraction: f64,
    /// Maximum number of images per GPU launch; larger requests are split
    /// into `⌈n / max_batch⌉` launches.
    pub max_batch: usize,
}

impl Default for BatchCostModel {
    fn default() -> Self {
        // A quarter of a K80 ResNet152 inference is launch/transfer overhead
        // at batch size 1, and 32 images fill the card — conservative
        // numbers in line with published ResNet batching curves.
        Self {
            overhead_fraction: 0.25,
            max_batch: 32,
        }
    }
}

impl BatchCostModel {
    /// Builds a model from an overhead fraction in `[0, 1)` and a positive
    /// maximum batch size.
    ///
    /// # Panics
    ///
    /// Panics if `overhead_fraction` is outside `[0, 1)` or `max_batch` is
    /// zero.
    pub fn new(overhead_fraction: f64, max_batch: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&overhead_fraction),
            "overhead fraction must be in [0, 1)"
        );
        assert!(max_batch > 0, "max batch size must be positive");
        Self {
            overhead_fraction,
            max_batch,
        }
    }

    /// Number of GPU launches needed for `n` images.
    pub fn launches(&self, n: usize) -> usize {
        n.div_ceil(self.max_batch)
    }

    /// Amortized GPU cost of classifying `n` images whose un-batched cost is
    /// `per_inference` each. Zero images cost nothing; one image costs
    /// exactly `per_inference`; larger batches amortize the per-launch
    /// overhead.
    pub fn batch_cost(&self, per_inference: GpuCost, n: usize) -> GpuCost {
        if n == 0 {
            return GpuCost::ZERO;
        }
        let compute = (1.0 - self.overhead_fraction) * n as f64;
        let overhead = self.overhead_fraction * self.launches(n) as f64;
        per_inference * (compute + overhead)
    }

    /// How many times cheaper a batch of `n` is than `n` serial inferences
    /// (1.0 for n ≤ 1, approaching `1 / (1 − overhead_fraction)` for large
    /// full batches).
    pub fn amortization_factor(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let serial = n as f64;
        let batched = (1.0 - self.overhead_fraction) * n as f64
            + self.overhead_fraction * self.launches(n) as f64;
        serial / batched
    }
}

/// The provisioned GPU fleet that serves queries.
///
/// The paper notes that organisations provision a few tens to hundreds of
/// GPUs and parallelize a query's GT-CNN work across whatever is idle; the
/// resulting wall-clock latency is the GPU work divided by that parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuClusterSpec {
    /// Number of GPUs available to a query.
    pub num_gpus: usize,
}

impl Default for GpuClusterSpec {
    fn default() -> Self {
        // The paper's end-to-end walkthrough uses a 10-GPU cluster ("with a
        // 10-GPU cluster, the query latency on a 24-hour video goes down
        // from one hour to less than two minutes").
        Self { num_gpus: 10 }
    }
}

impl GpuClusterSpec {
    /// A cluster of `num_gpus` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn new(num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "a GPU cluster needs at least one GPU");
        Self { num_gpus }
    }

    /// Wall-clock latency (seconds) of executing `work` GPU seconds spread
    /// perfectly across the cluster.
    pub fn latency_secs(&self, work: GpuCost) -> f64 {
        work.seconds() / self.num_gpus as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_phases() {
        let meter = GpuMeter::new();
        meter.charge("ingest", GpuCost(1.0));
        meter.charge("ingest", GpuCost(0.5));
        meter.charge("query", GpuCost(2.0));
        assert!((meter.total().seconds() - 3.5).abs() < 1e-12);
        assert!((meter.phase("ingest").seconds() - 1.5).abs() < 1e-12);
        assert!((meter.phase("query").seconds() - 2.0).abs() < 1e-12);
        assert_eq!(meter.phase("other").seconds(), 0.0);
        let breakdown = meter.breakdown();
        assert_eq!(breakdown.phases.len(), 2);
        meter.reset();
        assert_eq!(meter.total().seconds(), 0.0);
    }

    #[test]
    fn charge_inferences_multiplies() {
        let meter = GpuMeter::new();
        meter.charge_inferences("ingest", GpuCost(0.01), 100);
        assert!((meter.total().seconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cloned_meters_share_state() {
        let meter = GpuMeter::new();
        let clone = meter.clone();
        clone.charge("x", GpuCost(1.0));
        assert_eq!(meter.total().seconds(), 1.0);
    }

    #[test]
    fn meters_are_thread_safe() {
        let meter = GpuMeter::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = meter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.charge("p", GpuCost(0.001));
                    }
                });
            }
        });
        assert!((meter.total().seconds() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn cluster_latency_divides_work() {
        let cluster = GpuClusterSpec::new(10);
        assert!((cluster.latency_secs(GpuCost(100.0)) - 10.0).abs() < 1e-12);
        let single = GpuClusterSpec::new(1);
        assert_eq!(single.latency_secs(GpuCost(7.0)), 7.0);
        assert_eq!(GpuClusterSpec::default().num_gpus, 10);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = GpuClusterSpec::new(0);
    }

    #[test]
    fn batch_cost_amortizes_overhead() {
        let model = BatchCostModel::default();
        let per = GpuCost(1.0);
        assert_eq!(model.batch_cost(per, 0), GpuCost::ZERO);
        assert_eq!(model.batch_cost(per, 1), per);
        // A full launch of 32 pays the overhead once.
        let full = model.batch_cost(per, 32);
        assert!((full.seconds() - (0.75 * 32.0 + 0.25)).abs() < 1e-12);
        assert!(full < per * 32usize);
        // Cost is monotone in n and never beats the pure-compute floor.
        let mut prev = GpuCost::ZERO;
        for n in 1..200 {
            let cost = model.batch_cost(per, n);
            assert!(cost > prev);
            assert!(cost.seconds() >= 0.75 * n as f64);
            prev = cost;
        }
    }

    #[test]
    fn launches_split_oversized_batches() {
        let model = BatchCostModel::new(0.2, 10);
        assert_eq!(model.launches(1), 1);
        assert_eq!(model.launches(10), 1);
        assert_eq!(model.launches(11), 2);
        assert_eq!(model.launches(30), 3);
    }

    #[test]
    fn amortization_factor_grows_toward_limit() {
        let model = BatchCostModel::default();
        assert_eq!(model.amortization_factor(0), 1.0);
        assert_eq!(model.amortization_factor(1), 1.0);
        let half = model.amortization_factor(16);
        let full = model.amortization_factor(32);
        assert!(half > 1.0);
        assert!(half < full);
        assert!(full < 1.0 / (1.0 - model.overhead_fraction));
        // Whole multiples of a full launch amortize exactly as well as one.
        assert!((model.amortization_factor(320) - full).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overhead fraction")]
    fn out_of_range_overhead_panics() {
        let _ = BatchCostModel::new(1.0, 8);
    }

    #[test]
    #[should_panic(expected = "max batch size")]
    fn zero_max_batch_panics() {
        let _ = BatchCostModel::new(0.2, 0);
    }
}
