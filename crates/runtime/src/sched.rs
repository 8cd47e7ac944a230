//! The shared GPU scheduler: per-phase accounting plus one modelled drain
//! rule.
//!
//! Ingest classification, specialization labelling and query-time GT
//! verification all spend GPU time on one fleet, so a long-lived service
//! charges them to one budget. [`GpuScheduler`] is that budget:
//!
//! * every unit of GPU work is **submitted** to the scheduler, which
//!   charges it to a shared [`GpuMeter`] (so per-phase accounting stays
//!   bitwise identical to the standalone drivers) and adds it to the
//!   ingest-side or query-side backlog;
//! * a periodic **tick** drains the backlogs against the fleet's capacity
//!   (`num_gpus × tick_secs` GPU-seconds per tick) under one rule: queries
//!   first, and ingest takes what is left;
//! * [`GpuSchedulerStats`] reports the split, the backlogs and the modelled
//!   utilization, which is what the service folds into its unified stats
//!   snapshot.
//!
//! Scheduling here is an *accounting and latency model*, like
//! [`GpuClusterSpec::latency_secs`]: work is never dropped or reordered —
//! the simulation executes it inline — so the drain rule changes no answer
//! and no GPU cost, only the modelled backlog split. The paper's trade-off
//! between ingest cost and query latency lives in configuration selection
//! (the Opt-Ingest, Balance and Opt-Query policies of §4.4), not here.

use std::collections::HashMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use focus_cnn::GpuCost;

use crate::gpu::{GpuClusterSpec, GpuMeter};

/// Which side of the system a unit of GPU work belongs to.
///
/// The scheduler's budget arbitration is two-sided; phases map onto sides
/// via [`GpuScheduler::side_of_phase`] (everything except `"query"` and
/// `"anytime"` is ingest-side work: classification, GT labelling for specialization,
/// maintenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuSide {
    /// Ingest-time work: cheap-CNN classification, specialization
    /// labelling, maintenance.
    Ingest,
    /// Query-time work: ground-truth CNN verification.
    Query,
}

/// What one [`GpuScheduler::tick`] served and what it left behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TickReport {
    /// GPU-seconds of capacity this tick offered.
    pub capacity_secs: f64,
    /// Ingest-side GPU-seconds served.
    pub ingest_served_secs: f64,
    /// Query-side GPU-seconds served.
    pub query_served_secs: f64,
    /// Ingest-side backlog remaining after the tick.
    pub ingest_backlog_secs: f64,
    /// Query-side backlog remaining after the tick.
    pub query_backlog_secs: f64,
}

impl TickReport {
    /// Fraction of the tick's capacity that was used (0.0 for an idle
    /// tick, 1.0 for a saturated one).
    pub fn utilization(&self) -> f64 {
        if self.capacity_secs <= 0.0 {
            0.0
        } else {
            (self.ingest_served_secs + self.query_served_secs) / self.capacity_secs
        }
    }
}

/// Serializable snapshot of everything the scheduler has seen: per-phase
/// submissions, per-side served/backlog totals, and tick counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GpuSchedulerStats {
    /// GPU-seconds submitted per phase name (mirrors the shared meter).
    pub submitted_by_phase: HashMap<String, f64>,
    /// Total ingest-side GPU-seconds submitted.
    pub ingest_submitted_secs: f64,
    /// Total query-side GPU-seconds submitted.
    pub query_submitted_secs: f64,
    /// Ingest-side GPU-seconds served by ticks so far.
    pub ingest_served_secs: f64,
    /// Query-side GPU-seconds served by ticks so far.
    pub query_served_secs: f64,
    /// Ingest-side backlog currently waiting for capacity.
    pub ingest_backlog_secs: f64,
    /// Query-side backlog currently waiting for capacity.
    pub query_backlog_secs: f64,
    /// Ticks drained so far.
    pub ticks: u64,
    /// GPU-seconds of capacity offered per tick.
    pub capacity_secs_per_tick: f64,
}

impl GpuSchedulerStats {
    /// Fraction of all offered capacity that was used (0.0 before the
    /// first tick).
    pub fn utilization(&self) -> f64 {
        let offered = self.ticks as f64 * self.capacity_secs_per_tick;
        if offered <= 0.0 {
            0.0
        } else {
            (self.ingest_served_secs + self.query_served_secs) / offered
        }
    }
}

/// Mutable scheduling state behind the scheduler's mutex, shared by every
/// cloned handle.
#[derive(Debug, Default)]
struct SchedState {
    ingest_submitted: f64,
    query_submitted: f64,
    ingest_served: f64,
    query_served: f64,
    ingest_backlog: f64,
    query_backlog: f64,
    ticks: u64,
}

/// The shared GPU scheduler (see the module docs).
///
/// Cloned handles share one underlying state, exactly like [`GpuMeter`],
/// so the ingest and query sides of a service can charge the same budget
/// from different call paths.
///
/// # Examples
///
/// ```
/// use focus_cnn::GpuCost;
/// use focus_runtime::{GpuClusterSpec, GpuScheduler};
///
/// // A 2-GPU fleet draining one-second ticks.
/// let sched = GpuScheduler::new(GpuClusterSpec::new(2), 1.0);
/// sched.submit("ingest", GpuCost(3.0));
/// sched.submit("query", GpuCost(1.0));
///
/// // The tick offers 2 GPU-seconds: the query second is served first,
/// // ingest gets the remaining one, and two ingest seconds stay queued.
/// let tick = sched.tick();
/// assert_eq!(tick.query_served_secs, 1.0);
/// assert_eq!(tick.ingest_served_secs, 1.0);
/// assert_eq!(tick.ingest_backlog_secs, 2.0);
/// assert_eq!(tick.utilization(), 1.0);
///
/// // The shared meter keeps the ordinary per-phase accounting.
/// assert_eq!(sched.meter().phase("ingest").seconds(), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct GpuScheduler {
    gpus: GpuClusterSpec,
    tick_secs: f64,
    meter: GpuMeter,
    state: std::sync::Arc<Mutex<SchedState>>,
}

// The service charges the scheduler from ingest ticks and serving threads;
// keep the cross-thread shareability an explicit API guarantee.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GpuScheduler>();
};

impl GpuScheduler {
    /// Creates a scheduler for `gpus` draining `tick_secs`-long ticks.
    ///
    /// # Panics
    ///
    /// Panics if `tick_secs` is not positive.
    pub fn new(gpus: GpuClusterSpec, tick_secs: f64) -> Self {
        assert!(
            tick_secs > 0.0 && tick_secs.is_finite(),
            "tick length must be positive"
        );
        Self {
            gpus,
            tick_secs,
            meter: GpuMeter::new(),
            state: std::sync::Arc::new(Mutex::new(SchedState::default())),
        }
    }

    /// The fleet this scheduler arbitrates.
    pub fn gpus(&self) -> GpuClusterSpec {
        self.gpus
    }

    /// GPU-seconds of capacity one tick offers.
    pub fn capacity_secs_per_tick(&self) -> f64 {
        self.gpus.num_gpus as f64 * self.tick_secs
    }

    /// The shared per-phase meter every submission is charged to.
    pub fn meter(&self) -> &GpuMeter {
        &self.meter
    }

    /// Which side of the budget a phase name belongs to: `"query"` and
    /// `"anytime"` (incremental anytime verification rounds) are
    /// query-side, everything else (classification, specialization
    /// labelling, maintenance) is ingest-side.
    pub fn side_of_phase(phase: &str) -> GpuSide {
        if phase == "query" || phase == "anytime" {
            GpuSide::Query
        } else {
            GpuSide::Ingest
        }
    }

    /// Submits `cost` GPU-seconds of `phase` work: charges the shared
    /// meter and queues the work on its side's backlog.
    pub fn submit(&self, phase: &str, cost: GpuCost) {
        if cost.seconds() == 0.0 {
            return;
        }
        self.meter.charge(phase, cost);
        let mut state = self.state.lock();
        match Self::side_of_phase(phase) {
            GpuSide::Ingest => {
                state.ingest_submitted += cost.seconds();
                state.ingest_backlog += cost.seconds();
            }
            GpuSide::Query => {
                state.query_submitted += cost.seconds();
                state.query_backlog += cost.seconds();
            }
        }
    }

    /// Drains one tick of capacity from the backlogs and returns what was
    /// served: the query backlog first, then ingest from what is left, so
    /// a tick never idles while work is queued.
    pub fn tick(&self) -> TickReport {
        let capacity = self.capacity_secs_per_tick();
        let mut state = self.state.lock();
        let query_served = state.query_backlog.min(capacity);
        let ingest_served = state.ingest_backlog.min(capacity - query_served);
        state.query_backlog -= query_served;
        state.ingest_backlog -= ingest_served;
        state.query_served += query_served;
        state.ingest_served += ingest_served;
        state.ticks += 1;
        TickReport {
            capacity_secs: capacity,
            ingest_served_secs: ingest_served,
            query_served_secs: query_served,
            ingest_backlog_secs: state.ingest_backlog,
            query_backlog_secs: state.query_backlog,
        }
    }

    /// Snapshot of everything submitted, served and still queued.
    pub fn stats(&self) -> GpuSchedulerStats {
        let state = self.state.lock();
        GpuSchedulerStats {
            submitted_by_phase: self.meter.breakdown().phases,
            ingest_submitted_secs: state.ingest_submitted,
            query_submitted_secs: state.query_submitted,
            ingest_served_secs: state.ingest_served,
            query_served_secs: state.query_served,
            ingest_backlog_secs: state.ingest_backlog,
            query_backlog_secs: state.query_backlog,
            ticks: state.ticks,
            capacity_secs_per_tick: self.capacity_secs_per_tick(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> GpuScheduler {
        GpuScheduler::new(GpuClusterSpec::new(2), 1.0)
    }

    #[test]
    fn submissions_are_conserved_across_ticks() {
        let s = sched();
        s.submit("ingest", GpuCost(5.0));
        s.submit("query", GpuCost(3.0));
        s.submit("specialization", GpuCost(1.0));
        // Work keeps arriving between ticks. Every cost is dyadic, so every
        // drain is exact float arithmetic and served + backlog must equal
        // the submitted total bit for bit, on both sides, after every tick.
        let arrivals = [
            ("query", 1.5),
            ("ingest", 0.75),
            ("anytime", 0.25),
            ("audit", 2.125),
        ];
        let mut served = 0.0;
        let mut ticks = 0;
        loop {
            if let Some((phase, cost)) = arrivals.get(ticks) {
                s.submit(phase, GpuCost(*cost));
            }
            let tick = s.tick();
            ticks += 1;
            served += tick.ingest_served_secs + tick.query_served_secs;
            let stats = s.stats();
            assert_eq!(
                (stats.ingest_served_secs + stats.ingest_backlog_secs).to_bits(),
                stats.ingest_submitted_secs.to_bits()
            );
            assert_eq!(
                (stats.query_served_secs + stats.query_backlog_secs).to_bits(),
                stats.query_submitted_secs.to_bits()
            );
            if ticks >= arrivals.len() && tick.ingest_backlog_secs + tick.query_backlog_secs == 0.0
            {
                break;
            }
            assert!(ticks < 100, "the backlog must drain");
        }
        let stats = s.stats();
        assert_eq!(stats.ingest_submitted_secs, 8.875);
        assert_eq!(stats.query_submitted_secs, 4.75);
        assert_eq!(served, 13.625);
        // 13.625 GPU-seconds at 2 per tick: no tick idled while work queued.
        assert_eq!(stats.ticks, 7);
        // The shared meter saw the same per-phase charges.
        assert_eq!(s.meter().phase("ingest").seconds(), 5.75);
        assert_eq!(s.meter().phase("query").seconds(), 4.5);
        assert_eq!(s.meter().phase("specialization").seconds(), 1.0);
        assert_eq!(s.meter().phase("anytime").seconds(), 0.25);
        assert_eq!(s.meter().phase("audit").seconds(), 2.125);
    }

    #[test]
    fn query_first_starves_ingest_under_saturation() {
        let s = sched();
        s.submit("ingest", GpuCost(10.0));
        s.submit("query", GpuCost(10.0));
        let tick = s.tick();
        assert_eq!(tick.query_served_secs, 2.0);
        assert_eq!(tick.ingest_served_secs, 0.0);
        assert_eq!(tick.utilization(), 1.0);
    }

    #[test]
    fn idle_ticks_report_zero_utilization() {
        let s = sched();
        let tick = s.tick();
        assert_eq!(tick.utilization(), 0.0);
        assert_eq!(s.stats().utilization(), 0.0);
        assert_eq!(GpuSchedulerStats::default().utilization(), 0.0);
    }

    #[test]
    fn zero_cost_submissions_are_ignored() {
        let s = sched();
        s.submit("ingest", GpuCost::ZERO);
        let stats = s.stats();
        assert_eq!(stats.ingest_submitted_secs, 0.0);
        assert!(stats.submitted_by_phase.is_empty());
    }

    #[test]
    fn phases_map_onto_sides() {
        assert_eq!(GpuScheduler::side_of_phase("query"), GpuSide::Query);
        assert_eq!(GpuScheduler::side_of_phase("anytime"), GpuSide::Query);
        assert_eq!(GpuScheduler::side_of_phase("ingest"), GpuSide::Ingest);
        assert_eq!(
            GpuScheduler::side_of_phase("specialization"),
            GpuSide::Ingest
        );
        assert_eq!(GpuScheduler::side_of_phase("maintenance"), GpuSide::Ingest);
    }

    #[test]
    fn cloned_handles_share_state() {
        let s = sched();
        let clone = s.clone();
        clone.submit("query", GpuCost(1.0));
        assert_eq!(s.stats().query_submitted_secs, 1.0);
        s.tick();
        assert_eq!(clone.stats().ticks, 1);
    }

    #[test]
    #[should_panic(expected = "tick length")]
    fn zero_tick_panics() {
        let _ = GpuScheduler::new(GpuClusterSpec::new(1), 0.0);
    }
}
