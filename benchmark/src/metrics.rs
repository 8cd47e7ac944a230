//! The benchmark's metric tables. `BENCHMARK.json` at the repository root
//! lists the same names, units, directions and bounds; `--check` compares
//! the two so they cannot drift apart.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: something a user of the system would see.
///
/// Units keep wall-clock and modelled time apart: `s` and `ms` are always
/// measured wall time; `gpu_s` and `gpu_ms` are GPU time as the cost model
/// charges it, `model_ms` is simulated network time. Modelled values repeat
/// exactly from run to run; measured times never do.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
    /// Wall-clock metrics vary between runs of the same code; the others
    /// are counts or modelled costs and repeat exactly at one seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

/// Bound of the wall-clock metrics: the most the driver's contract allows,
/// not the 0.10 the issue asked for. The driver refuses a benchmark whose
/// ten same-code runs spread by more than the bound, and on the 2-core
/// shared machine this was defined on they spread by 0.045 of their median
/// typically and by 0.13-0.23 in a set where three runs meet a slow minute,
/// whatever estimator summarizes the laps (see `REPEATABILITY.md`).
const WALL: f64 = 0.25;

/// The 13 end-to-end metrics; every workload reports all of them.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, WALL, false),
    e2e("ingest_frames_per_s", "1/s", Better::Higher, WALL, false),
    e2e("queries_per_s", "1/s", Better::Higher, WALL, false),
    e2e("query_p50_ms", "ms", Better::Lower, WALL, false),
    e2e("query_p95_ms", "ms", Better::Lower, WALL, false),
    e2e("recover_s", "s", Better::Lower, WALL, false),
    e2e("gt_inferences_per_query", "count", Better::Lower, 0.01, true),
    e2e("query_gpu_ms_per_query", "gpu_ms", Better::Lower, 0.01, true),
    e2e("ingest_gpu_s_per_video_hour", "gpu_s", Better::Lower, 0.01, true),
    e2e("recall_min", "fraction", Better::Higher, 0.01, true),
    e2e("precision_min", "fraction", Better::Higher, 0.01, true),
    e2e("index_bytes_per_video_hour", "bytes", Better::Lower, 0.01, true),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10, false),
];

/// One per-layer metric; the layer is the part of the name before the dot.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as Hi, Lower as Lo};

/// Per-layer metrics, reported by the traced run. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [PerLayer; 66] = [
    layer("service.advance_ms_p50", "ms", Lo),
    layer("service.maintain_ms_p50", "ms", Lo),
    layer("service.maintain_ms_max", "ms", Lo),
    layer("service.tail_snapshot_ms_p50", "ms", Lo),
    layer("service.tail_snapshot_share", "fraction", Lo),
    layer("service.serve_self_ms_p50", "ms", Lo),
    layer("service.tail_hit_fraction", "fraction", Hi),
    layer("service.warm_query_ms_p50", "ms", Lo),
    layer("service.cold_over_warm_ratio", "ratio", Lo),
    layer("pipeline.push_frame_us_p50", "us", Lo),
    layer("pipeline.peek_segment_ms_p50", "ms", Lo),
    layer("pipeline.seal_segment_ms_p50", "ms", Lo),
    layer("pipeline.frames_skipped_fraction", "fraction", Hi),
    layer("pipeline.cheap_inferences_per_frame", "count", Lo),
    layer("cnn.cheap_classify_us_p50", "us", Lo),
    layer("cnn.gt_classify_batch_us_per_item", "us", Lo),
    layer("cnn.specialize_train_ms", "ms", Lo),
    layer("cluster.assign_us_p50", "us", Lo),
    layer("cluster.objects_per_cluster", "count", Hi),
    layer("cluster.clusters_per_video_s", "1/s", Lo),
    layer("adapt.reconfigurations", "count", Lo),
    layer("adapt.gpu_s_audit", "gpu_s", Lo),
    layer("adapt.gpu_s_selection", "gpu_s", Lo),
    layer("adapt.reselect_ms_max", "ms", Lo),
    layer("adapt.ingest_slowdown_ratio", "ratio", Lo),
    layer("index.seal_ms_p50", "ms", Lo),
    layer("index.lookup_ms_p50", "ms", Lo),
    layer("index.open_s", "s", Lo),
    layer("index.compact_s", "s", Lo),
    layer("index.blocks_read_per_query", "count", Lo),
    layer("index.bytes_read_per_query", "bytes", Lo),
    layer("index.disk_reads_per_query", "count", Lo),
    layer("index.decoded_hit_rate", "fraction", Hi),
    layer("index.raw_hit_rate", "fraction", Hi),
    layer("index.bytes_per_cluster", "bytes", Lo),
    layer("index.bytes_written_per_live_byte", "ratio", Lo),
    layer("index.segments_live", "count", Lo),
    layer("query.plan_ms_p50", "ms", Lo),
    layer("query.plan_share", "fraction", Lo),
    layer("query.candidates_per_query", "count", Lo),
    layer("query.segments_opened_per_query", "count", Lo),
    layer("query.segments_pruned_fraction", "fraction", Hi),
    layer("query.track_pruned_fraction", "fraction", Hi),
    layer("query.anytime_inferences_to_first_result", "count", Lo),
    layer("query_server.verify_assemble_ms_p50", "ms", Lo),
    layer("query_server.verify_assemble_share", "fraction", Lo),
    layer("query_server.verdict_hit_rate", "fraction", Hi),
    layer("query_server.fresh_inferences_per_query", "count", Lo),
    layer("query_server.candidates_per_inference", "count", Hi),
    layer("query_server.result_frames_per_query", "count", Hi),
    layer("serving.submit_us_p50", "us", Lo),
    layer("serving.dispatch_overhead_us_p50", "us", Lo),
    layer("serving.shed_fraction", "fraction", Lo),
    layer("serving.queue_len_max", "count", Lo),
    layer("fleet.scatter_ms_p50", "ms", Lo),
    layer("fleet.gather_ms_p50", "ms", Lo),
    layer("fleet.scatter_share", "fraction", Lo),
    layer("fleet.scatter_width", "count", Lo),
    layer("fleet.wire_bytes_per_query", "bytes", Lo),
    layer("fleet.modelled_net_ms_per_query", "model_ms", Lo),
    layer("fleet.advance_ms_p50", "ms", Lo),
    layer("runtime.gpu_utilization", "fraction", Hi),
    layer("runtime.gpu_query_share", "fraction", Lo),
    layer("video.generate_s", "s", Lo),
    layer("trace.overhead_fraction", "fraction", Lo),
    layer("trace.unexplained_share", "fraction", Lo),
];

/// Metric values by name, as one run reports them.
pub type Values = BTreeMap<&'static str, f64>;

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
