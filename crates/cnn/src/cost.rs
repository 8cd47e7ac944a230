//! GPU-time cost model.
//!
//! Both metrics the paper reports — ingest cost and query latency — are GPU
//! time spent in CNN inference (§6.1 explicitly excludes CPU time for
//! decoding, background subtraction and index I/O). This module provides the
//! unit of account: [`GpuCost`], seconds of GPU time on the reference
//! accelerator.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul};

use serde::{Deserialize, Serialize};

/// Throughput of the ground-truth CNN (ResNet152) on the reference GPU:
/// 77 images per second on an NVIDIA K80 (§2.1 of the paper).
pub const GT_CNN_IMAGES_PER_SECOND: f64 = 77.0;

/// An amount of GPU time, in seconds on the reference accelerator.
///
/// `GpuCost` is an additive resource: summing the costs of all inferences in
/// a phase gives the phase's GPU cost. Query *latency* is derived from GPU
/// cost by dividing across the GPUs available to the query
/// (see `focus-runtime`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct GpuCost(pub f64);

impl GpuCost {
    /// Zero GPU time.
    pub const ZERO: GpuCost = GpuCost(0.0);

    /// GPU time of a single ground-truth CNN (ResNet152) inference.
    pub fn gt_inference() -> GpuCost {
        GpuCost(1.0 / GT_CNN_IMAGES_PER_SECOND)
    }

    /// GPU time of one inference of a model that is `cheapness` times
    /// cheaper than the ground-truth CNN.
    ///
    /// # Panics
    ///
    /// Panics if `cheapness` is not strictly positive.
    pub fn inference_with_cheapness(cheapness: f64) -> GpuCost {
        assert!(cheapness > 0.0, "cheapness factor must be positive");
        GpuCost(Self::gt_inference().0 / cheapness)
    }

    /// The raw number of GPU-seconds.
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// GPU time expressed in hours.
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// How many times larger `other` is than `self`; returns infinity when
    /// `self` is zero and `other` is not.
    pub fn ratio_of(self, other: GpuCost) -> f64 {
        if self.0 == 0.0 {
            if other.0 == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            other.0 / self.0
        }
    }
}

impl Add for GpuCost {
    type Output = GpuCost;
    fn add(self, rhs: GpuCost) -> GpuCost {
        GpuCost(self.0 + rhs.0)
    }
}

impl AddAssign for GpuCost {
    fn add_assign(&mut self, rhs: GpuCost) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for GpuCost {
    type Output = GpuCost;
    fn mul(self, rhs: f64) -> GpuCost {
        GpuCost(self.0 * rhs)
    }
}

impl Mul<usize> for GpuCost {
    type Output = GpuCost;
    fn mul(self, rhs: usize) -> GpuCost {
        GpuCost(self.0 * rhs as f64)
    }
}

impl Div<f64> for GpuCost {
    type Output = GpuCost;
    fn div(self, rhs: f64) -> GpuCost {
        GpuCost(self.0 / rhs)
    }
}

impl Sum for GpuCost {
    fn sum<I: Iterator<Item = GpuCost>>(iter: I) -> GpuCost {
        iter.fold(GpuCost::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gt_inference_cost_matches_throughput() {
        let cost = GpuCost::gt_inference();
        assert!((cost.seconds() * GT_CNN_IMAGES_PER_SECOND - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cheapness_scales_cost() {
        let cheap = GpuCost::inference_with_cheapness(58.0);
        assert!((GpuCost::gt_inference().seconds() / cheap.seconds() - 58.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cheapness factor must be positive")]
    fn zero_cheapness_panics() {
        let _ = GpuCost::inference_with_cheapness(0.0);
    }

    #[test]
    fn arithmetic_and_sum() {
        let a = GpuCost(1.0);
        let b = GpuCost(2.0);
        assert_eq!((a + b).seconds(), 3.0);
        assert_eq!((a * 4.0).seconds(), 4.0);
        assert_eq!((a * 3usize).seconds(), 3.0);
        assert_eq!((b / 2.0).seconds(), 1.0);
        let total: GpuCost = vec![a, b, GpuCost(0.5)].into_iter().sum();
        assert!((total.seconds() - 3.5).abs() < 1e-12);
        let mut acc = GpuCost::ZERO;
        acc += b;
        assert_eq!(acc.seconds(), 2.0);
    }

    #[test]
    fn ratios_handle_zero() {
        assert_eq!(GpuCost(2.0).ratio_of(GpuCost(10.0)), 5.0);
        assert_eq!(GpuCost::ZERO.ratio_of(GpuCost::ZERO), 1.0);
        assert!(GpuCost::ZERO.ratio_of(GpuCost(1.0)).is_infinite());
    }
}
