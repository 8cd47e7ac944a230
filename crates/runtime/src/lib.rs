//! Execution-model substrate: GPU accounting and the GPU cluster model.
//!
//! The paper's two metrics are GPU time: *ingest cost* is the GPU time spent
//! indexing a stream, and *query latency* is the GPU time of a query divided
//! across the GPUs that serve it (§6.1 measures GPU time only and notes the
//! GPU is the bottleneck resource; §5 parallelizes query work across idle
//! worker processes). This crate provides:
//!
//! * [`GpuMeter`] — thread-safe accounting of GPU time per named phase.
//! * [`GpuClusterSpec`] — the provisioned GPU fleet, which converts a
//!   query's total GPU work into wall-clock latency. This model is the
//!   paper's query-time parallelism: verification itself runs on the
//!   calling thread, and concurrency comes from the callers.
//! * [`BatchCostModel`] — the amortized cost of **batched** inference:
//!   per-launch overhead is paid once per batch instead of once per image,
//!   which is what makes the query server's batched GT-CNN path cheaper
//!   than one-at-a-time verification.
//! * [`GpuScheduler`] — one metered budget shared by ingest classification
//!   and query-time GT verification: per-phase accounting, drained in
//!   modelled ticks that serve queries first and ingest from what is left.
//! * [`Clock`] / [`RealClock`] / [`VirtualClock`] — time as a capability,
//!   so the serving layer's admission, batching and shedding decisions are
//!   deterministic under test.
//! * [`LatencyHistogram`] — log-bucketed, exactly-mergeable latency
//!   histograms for p50/p99/p999 SLO reporting.

pub mod clock;
pub mod gpu;
pub mod hist;
pub mod net;
pub mod sched;

pub use clock::{Clock, RealClock, VirtualClock};
pub use gpu::{BatchCostModel, GpuClusterSpec, GpuMeter, PhaseBreakdown};
pub use hist::LatencyHistogram;
pub use net::{NetCostModel, NetMeter, NetStats};
pub use sched::{GpuScheduler, GpuSchedulerStats, GpuSide, TickReport};
