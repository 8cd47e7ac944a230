//! Simulated network transport accounting: a latency/bandwidth cost model
//! plus a shared-handle meter, mirroring how [`GpuMeter`](crate::GpuMeter)
//! and [`IoMeter`](crate::IoMeter) stand in for compute and storage.
//!
//! A multi-node deployment's distributed behaviour (scatter width, bytes
//! over the wire, failover time) must be provable in CI on any machine, so
//! no real sockets are involved anywhere: every coordinator↔node exchange
//! is an in-process call whose *cost* is recorded here and charged to a
//! [`Clock`](crate::Clock) through [`NetCostModel`]. The numbers are exact
//! and machine-independent — two runs of the same workload produce the
//! same meter snapshot byte-for-byte.

use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// Cumulative network-transport statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NetStats {
    /// Request messages sent coordinator → node.
    pub messages_sent: usize,
    /// Response messages received node → coordinator.
    pub messages_received: usize,
    /// Wire-layout bytes of requests, coordinator → node: what the caller's
    /// length function says each message would occupy — nothing is encoded.
    pub bytes_sent: u64,
    /// Wire-layout bytes of responses, node → coordinator.
    pub bytes_received: u64,
    /// Scatter fan-outs recorded (one per scattered query batch).
    pub scatters: usize,
    /// Total nodes contacted across all recorded scatters.
    pub nodes_contacted: usize,
}

impl NetStats {
    /// Total bytes moved in either direction.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Mean nodes contacted per scatter (0 when none were recorded).
    pub fn scatter_width(&self) -> f64 {
        if self.scatters == 0 {
            0.0
        } else {
            self.nodes_contacted as f64 / self.scatters as f64
        }
    }
}

/// Shared-handle meter for simulated network traffic. Clones share state,
/// so the coordinator and its callers observe one account.
#[derive(Debug, Clone, Default)]
pub struct NetMeter {
    stats: Arc<Mutex<NetStats>>,
}

// Shared across worker threads like the other meters.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NetMeter>();
};

impl NetMeter {
    /// Creates a fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request/response exchange with a node.
    pub fn record_exchange(&self, bytes_sent: u64, bytes_received: u64) {
        let mut stats = self.stats.lock().expect("net meter poisoned");
        stats.messages_sent += 1;
        stats.messages_received += 1;
        stats.bytes_sent += bytes_sent;
        stats.bytes_received += bytes_received;
    }

    /// Records one scatter fan-out of `nodes` contacted nodes.
    pub fn record_scatter(&self, nodes: usize) {
        let mut stats = self.stats.lock().expect("net meter poisoned");
        stats.scatters += 1;
        stats.nodes_contacted += nodes;
    }

    /// A copy of the accumulated statistics.
    pub fn snapshot(&self) -> NetStats {
        *self.stats.lock().expect("net meter poisoned")
    }

    /// Clears the account.
    pub fn reset(&self) {
        *self.stats.lock().expect("net meter poisoned") = NetStats::default();
    }
}

/// Latency/bandwidth cost model for the simulated transport: a fixed
/// round-trip charge per exchange plus a size-proportional transfer charge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetCostModel {
    /// Round-trip latency of one request/response exchange, seconds.
    pub rtt_secs: f64,
    /// Transfer time per byte in either direction, seconds (the reciprocal
    /// of link bandwidth).
    pub secs_per_byte: f64,
}

impl Default for NetCostModel {
    /// Datacenter-flavoured defaults: 0.5 ms RTT, ~1 GiB/s links.
    fn default() -> Self {
        Self {
            rtt_secs: 0.5e-3,
            secs_per_byte: 1.0 / (1024.0 * 1024.0 * 1024.0),
        }
    }
}

impl NetCostModel {
    /// A free network (for tests that only care about counts).
    pub fn free() -> Self {
        Self {
            rtt_secs: 0.0,
            secs_per_byte: 0.0,
        }
    }

    /// Wall-clock cost of one request/response exchange moving `bytes`
    /// total across both directions.
    pub fn exchange_secs(&self, bytes: u64) -> f64 {
        self.rtt_secs + bytes as f64 * self.secs_per_byte
    }

    /// Wall-clock cost of a scatter that contacts nodes in parallel: the
    /// slowest exchange bounds the batch, so the cost is the maximum
    /// per-node cost, not the sum.
    pub fn scatter_secs(&self, per_node_bytes: &[u64]) -> f64 {
        per_node_bytes
            .iter()
            .map(|&bytes| self.exchange_secs(bytes))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_and_resets() {
        let meter = NetMeter::new();
        meter.record_exchange(100, 900);
        meter.record_exchange(50, 450);
        meter.record_scatter(3);
        let stats = meter.snapshot();
        assert_eq!(stats.messages_sent, 2);
        assert_eq!(stats.messages_received, 2);
        assert_eq!(stats.bytes_total(), 1500);
        assert_eq!(stats.scatter_width(), 3.0);
        meter.reset();
        assert_eq!(meter.snapshot(), NetStats::default());
    }

    #[test]
    fn clones_share_one_account() {
        let meter = NetMeter::new();
        let clone = meter.clone();
        clone.record_exchange(10, 20);
        assert_eq!(meter.snapshot().bytes_total(), 30);
    }

    #[test]
    fn cost_model_charges_rtt_plus_transfer() {
        let model = NetCostModel {
            rtt_secs: 1.0,
            secs_per_byte: 0.5,
        };
        assert_eq!(model.exchange_secs(4), 3.0);
        // Parallel scatter is bounded by the slowest node, not the sum.
        assert_eq!(model.scatter_secs(&[4, 2, 0]), 3.0);
        assert_eq!(model.scatter_secs(&[]), 0.0);
        assert_eq!(NetCostModel::free().exchange_secs(1 << 30), 0.0);
    }
}
