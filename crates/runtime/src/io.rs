//! Storage-I/O accounting for the segmented index store.
//!
//! The paper's cost metrics are GPU time only (§6.1 excludes index I/O),
//! but a production service paging index segments in and out of a durable
//! store needs to see that work to size caches and provision disks:
//! [`IoMeter`] holds thread-safe counters of segment loads, cache hits,
//! block fetches and bytes read (the analogue of
//! [`GpuMeter`](crate::GpuMeter)).

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Snapshot of storage-I/O activity charged to an [`IoMeter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoStats {
    /// Segments read and decoded from disk (cold loads).
    pub segment_loads: usize,
    /// Segment opens served from the decoded-segment cache.
    pub cache_hits: usize,
    /// Bytes read from disk across all cold loads.
    pub bytes_read: u64,
    /// Block fetches that went to disk.
    #[serde(default)]
    pub block_loads: usize,
    /// Block fetches served by re-decoding bytes held in the raw cache tier.
    #[serde(default)]
    pub block_raw_hits: usize,
    /// Block fetches served from the decoded cache tier.
    #[serde(default)]
    pub block_hits: usize,
}

impl IoStats {
    /// Total segment opens, cold or cached.
    pub fn segments_opened(&self) -> usize {
        self.segment_loads + self.cache_hits
    }

    /// Fraction of segment opens served from the cache (0.0 when nothing
    /// has been opened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.segments_opened();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Total block fetches, from disk or either cache tier.
    pub fn blocks_fetched(&self) -> usize {
        self.block_loads + self.block_raw_hits + self.block_hits
    }

    /// Fraction of block fetches served off-disk (0.0 when no block has
    /// been fetched yet).
    pub fn block_hit_rate(&self) -> f64 {
        let total = self.blocks_fetched();
        if total == 0 {
            0.0
        } else {
            (self.block_raw_hits + self.block_hits) as f64 / total as f64
        }
    }
}

/// Thread-safe accumulator of storage-I/O work.
///
/// Cloning a meter yields a handle to the same underlying counters, exactly
/// like [`GpuMeter`](crate::GpuMeter), so the query layer can hand one
/// meter to many serving threads.
///
/// # Examples
///
/// ```
/// use focus_runtime::IoMeter;
///
/// let io = IoMeter::new();
/// io.record_loads(2, 4096);
/// io.record_cache_hits(6);
/// let stats = io.snapshot();
/// assert_eq!(stats.segments_opened(), 8);
/// assert_eq!(stats.bytes_read, 4096);
/// assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IoMeter {
    inner: Arc<Mutex<IoStats>>,
}

// The query server charges the meter from worker threads; keep the
// cross-thread shareability an explicit API guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IoMeter>();
};

impl IoMeter {
    /// Creates a meter with no charges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `loads` cold segment loads totalling `bytes` bytes read.
    pub fn record_loads(&self, loads: usize, bytes: u64) {
        let mut inner = self.inner.lock();
        inner.segment_loads += loads;
        inner.bytes_read += bytes;
    }

    /// Records `hits` segment opens served from the cache.
    pub fn record_cache_hits(&self, hits: usize) {
        self.inner.lock().cache_hits += hits;
    }

    /// Records block-level fetch outcomes: `loads` blocks read from disk,
    /// `raw_hits` served from the raw-bytes tier, `hits` from the decoded
    /// tier.
    pub fn record_blocks(&self, loads: usize, raw_hits: usize, hits: usize) {
        let mut inner = self.inner.lock();
        inner.block_loads += loads;
        inner.block_raw_hits += raw_hits;
        inner.block_hits += hits;
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self) -> IoStats {
        *self.inner.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates() {
        let io = IoMeter::new();
        io.record_loads(1, 100);
        io.record_loads(2, 300);
        io.record_cache_hits(5);
        let stats = io.snapshot();
        assert_eq!(stats.segment_loads, 3);
        assert_eq!(stats.cache_hits, 5);
        assert_eq!(stats.bytes_read, 400);
        assert_eq!(stats.segments_opened(), 8);
        assert!((stats.hit_rate() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(IoMeter::new().snapshot().hit_rate(), 0.0);
    }

    #[test]
    fn block_counters_accumulate_and_rate() {
        let io = IoMeter::new();
        assert_eq!(io.snapshot().block_hit_rate(), 0.0);
        io.record_blocks(2, 0, 0);
        io.record_blocks(0, 1, 5);
        let stats = io.snapshot();
        assert_eq!(stats.block_loads, 2);
        assert_eq!(stats.block_raw_hits, 1);
        assert_eq!(stats.block_hits, 5);
        assert_eq!(stats.blocks_fetched(), 8);
        assert!((stats.block_hit_rate() - 6.0 / 8.0).abs() < 1e-12);
        // Block counters ride along segment-level accounting untouched.
        assert_eq!(stats.segments_opened(), 0);
    }

    #[test]
    fn cloned_meters_share_state_across_threads() {
        let io = IoMeter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = io.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        m.record_loads(1, 10);
                        m.record_cache_hits(2);
                    }
                });
            }
        });
        let stats = io.snapshot();
        assert_eq!(stats.segment_loads, 400);
        assert_eq!(stats.cache_hits, 800);
        assert_eq!(stats.bytes_read, 4000);
    }
}
