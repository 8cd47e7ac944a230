//! Execution-model substrate: GPU accounting, the GPU cluster model and a
//! worker pool.
//!
//! The paper's two metrics are GPU time: *ingest cost* is the GPU time spent
//! indexing a stream, and *query latency* is the GPU time of a query divided
//! across the GPUs that serve it (§6.1 measures GPU time only and notes the
//! GPU is the bottleneck resource; §5 parallelizes query work across idle
//! worker processes). This crate provides:
//!
//! * [`GpuMeter`] — thread-safe accounting of GPU time per named phase.
//! * [`GpuClusterSpec`] — the provisioned GPU fleet, which converts a
//!   query's total GPU work into wall-clock latency.
//! * [`BatchCostModel`] — the amortized cost of **batched** inference:
//!   per-launch overhead is paid once per batch instead of once per image,
//!   which is what makes the query server's batched GT-CNN path cheaper
//!   than one-at-a-time verification.
//! * [`WorkerPool`] — a real thread pool (crossbeam channels) used to
//!   parallelize query-time classification across workers, mirroring the
//!   paper's worker processes.
//! * [`IoMeter`] — storage-I/O accounting (cold segment loads, block
//!   fetches per cache tier, bytes read), so the service can report what
//!   paging the index in actually costs.
//! * [`GpuScheduler`] — one metered budget shared by ingest classification
//!   and query-time GT verification, drained in ticks under a configurable
//!   ingest/query priority policy (the paper's §5 tradeoff, live).
//! * [`Clock`] / [`RealClock`] / [`VirtualClock`] — time as a capability,
//!   so the serving layer's admission, batching and shedding decisions are
//!   deterministic under test.
//! * [`LatencyHistogram`] — log-bucketed, exactly-mergeable latency
//!   histograms for p50/p99/p999 SLO reporting.

pub mod clock;
pub mod gpu;
pub mod hist;
pub mod io;
pub mod net;
pub mod sched;
pub mod workers;

pub use clock::{Clock, RealClock, VirtualClock};
pub use gpu::{BatchCostModel, GpuClusterSpec, GpuMeter, PhaseBreakdown};
pub use hist::LatencyHistogram;
pub use io::{IoMeter, IoStats};
pub use net::{NetCostModel, NetMeter, NetStats};
pub use sched::{GpuPriorityPolicy, GpuScheduler, GpuSchedulerStats, GpuSide, TickReport};
pub use workers::WorkerPool;
