//! The four workloads and the run shape they share: `setup` (timed as
//! `setup_s`), then for the measurement time a verification pass that feeds
//! the inputs through another code path and identical laps.

mod archive;
mod drift;
mod fleet;
mod live;

use std::collections::BTreeMap;
use std::time::Instant;

use focus_video::VideoDataset;

use crate::common::{peak_rss_mib, Lap, Scratch, Trace};
use crate::lap::run_laps;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::oracle::{judge, Digest, Floors, Tally, Verdict, MIN_TRUTH_SECS};
use crate::probes;
use crate::stats::{fastest_quarter, max, median, percentile, ratio, samples_beyond};

/// Workload names and the one-line reason each exists (`BENCHMARK.json`
/// carries the same lines).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest_drift",
        "write path under content drift: cnn, cluster, pipeline, adapt and index seal/compact do nearly all the work, the query layers almost none; recordings fixed, --seed moves the evaluation window",
    ),
    (
        "archive_cold",
        "read path, archive larger than both cache tiers: recover, block read/decode, planning over ~1190 segments, fresh GT verification; tail, plane, fleet idle; recordings fixed, --seed moves the windows",
    ),
    (
        "live_mixed",
        "reads beside writes on one service through the request plane: the tail is never empty and seals fall between queries; recordings fixed, --seed moves the sealed windows",
    ),
    (
        "fleet_scatter",
        "scatter/gather over a 2-node fleet of single-camera shards: verification mostly cached, so scatter, cloning, wire sizing and gather dominate; recordings fixed, --seed moves the windows",
    ),
];

/// How much video each workload handles. `full` is what `BENCHMARK.json`
/// measures; `check` is the smoke scale of `--check`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `ingest_drift`: minutes per camera per lap (drift at the midpoint).
    pub drift_minutes: u64,
    /// `archive_cold`: minutes per camera in the archive.
    pub archive_minutes: u64,
    /// `live_mixed`: minutes per camera per lap.
    pub live_minutes: u64,
    /// `fleet_scatter`: minutes per camera per lap.
    pub fleet_minutes: u64,
    /// Whether a run fails when fewer than ten latency samples lie beyond
    /// `query_p95_ms`.
    pub enforce_samples: bool,
}

impl Scale {
    pub const fn full() -> Self {
        Self {
            drift_minutes: 5,
            archive_minutes: 60,
            live_minutes: 12,
            fleet_minutes: 6,
            enforce_samples: true,
        }
    }

    pub const fn check() -> Self {
        Self {
            drift_minutes: 4,
            archive_minutes: 5,
            live_minutes: 3,
            fleet_minutes: 2,
            enforce_samples: false,
        }
    }
}

/// Laps every run completes even if the measurement time is over.
const MIN_LAPS: usize = 3;

/// Latency samples that leave ten beyond the 95th percentile.
const P95_SAMPLES: usize = 200;

/// `setup` is repeated (and `setup_s` is the median) until the repeats have
/// used this share of the measurement time: the driver's contract asks for
/// several set-ups in a run. A cheap setup (tens of milliseconds) is timed
/// some dozens of times, the archive build once.
const SETUP_SHARE: f64 = 0.05;

/// What the verification pass produced.
pub struct Reference {
    /// Digest of the answers the other code path gave.
    pub digest: Digest,
    /// Operations the pass attempted and failed.
    pub tally: Tally,
    /// Modelled ingest GPU seconds, where only the reference can see them
    /// (the fleet exposes no per-shard scheduler).
    pub ingest_gpu_s: Option<f64>,
}

/// One prepared workload: inputs generated, oracle labelled, ready to lap.
pub trait Workload {
    /// One lap: identical, seed-determined work from an identical state.
    /// Lap 0 is also scored against the oracle (the digest proves every
    /// other lap answered the same).
    fn lap(&mut self, lap: usize, trace: Option<&mut Trace>) -> Result<Lap, String>;

    /// Feeds the same inputs through the other code path, before the laps.
    /// `None`: lap 0 is the reference.
    fn verify(&mut self) -> Result<Option<Reference>, String> {
        Ok(None)
    }

    /// Requests one lap times: its latency samples.
    fn requests_per_lap(&self) -> usize;

    /// Hours of video one lap (or, for the archive, `setup`) ingests.
    fn video_hours(&self) -> f64;

    fn floors(&self) -> Floors;

    /// Frames per second of the ingest `setup` did, where laps ingest
    /// nothing.
    fn setup_ingest_rate(&self) -> Option<f64> {
        None
    }

    /// Metrics of the layers only this workload drives.
    fn layers(&mut self, _laps: &[Lap], _trace: &Trace, _out: &mut Values) {}

    /// The recordings, for the once-per-run layer probes.
    fn datasets(&self) -> &[VideoDataset];

    /// Sizes worth printing (archive bytes, segments, ...).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

fn prepare(
    name: &str,
    seed: u64,
    scale: &Scale,
    scratch: &Scratch,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ingest_drift" => Box::new(drift::IngestDrift::prepare(seed, scale, scratch)?),
        "archive_cold" => Box::new(archive::ArchiveCold::prepare(seed, scale, scratch)?),
        "live_mixed" => Box::new(live::LiveMixed::prepare(seed, scale, scratch)?),
        "fleet_scatter" => Box::new(fleet::FleetScatter::prepare(seed, scale, scratch)?),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {other:?}; one of {names:?}"));
        }
    })
}

/// Everything one run measured.
pub struct Report {
    /// The 13 end-to-end metrics (from untraced laps only).
    pub end_to_end: Values,
    /// Every per-layer metric; present in the traced run.
    pub per_layer: Option<Values>,
    pub verdict: Verdict,
    pub laps: usize,
    /// Latency samples the untraced laps took.
    pub samples: usize,
    pub notes: Vec<String>,
    /// The spans as JSON lines; present in the traced run.
    pub spans: Option<String>,
}

/// Runs one workload: setup, then verification and laps for `seconds`,
/// then judgement.
/// In the traced run odd laps record spans and even laps do not, so the
/// same process yields the per-layer numbers and the tracing overhead.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
    scratch: &Scratch,
) -> Result<Report, String> {
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut workload = loop {
        let start = Instant::now();
        let prepared = prepare(name, seed, scale, scratch)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        if setup_secs.iter().sum::<f64>() >= SETUP_SHARE * seconds {
            break prepared;
        }
        // This repeat's inputs go before the next is built, as they would
        // between two processes.
        drop(prepared);
    };

    // The measurement time covers the verification pass and the laps, so
    // a run's length does not depend on whether its workload has one.
    let measuring = Instant::now();
    let reference = workload.verify()?;
    let mut trace = Trace::new();
    // The traced run needs a lap of each kind; the untraced run enough laps
    // for ten latency samples beyond p95 (200 in all), however slow the box.
    let min_laps = MIN_LAPS.max(match (traced, scale.enforce_samples) {
        (true, _) => 2,
        (false, true) => P95_SAMPLES.div_ceil(workload.requests_per_lap()),
        (false, false) => 1,
    });
    let seconds = seconds - measuring.elapsed().as_secs_f64();
    let laps = run_laps(seconds, min_laps, |i| {
        let spans_on = traced && i % 2 == 1;
        let mut lap = workload.lap(i, spans_on.then_some(&mut trace))?;
        lap.traced = spans_on;
        Ok::<Lap, String>(lap)
    })?;

    let mut tallies: Vec<Tally> = laps.iter().map(|lap| lap.tally.clone()).collect();
    let reference_digest = match &reference {
        Some(reference) => {
            // The reference pass is judged like a lap, except for its digest.
            let mut tally = reference.tally.clone();
            tally.digest = laps[0].tally.digest;
            tallies.push(tally);
            reference.digest
        }
        None => laps[0].tally.digest,
    };
    let mut verdict = judge(&tallies, reference_digest, workload.floors());

    let plain: Vec<&Lap> = laps.iter().filter(|lap| !lap.traced).collect();
    let samples: usize = plain.iter().map(|lap| lap.latencies_ms.len()).sum();
    if scale.enforce_samples && !traced && samples_beyond(samples, 0.95) < 10 {
        verdict.failed += 1;
        verdict.correct = false;
        verdict.reasons.push(format!(
            "{samples} latency samples leave fewer than ten beyond query_p95_ms"
        ));
    }
    let counts_repeat = plain.windows(2).all(|w| {
        (w[0].gt_inferences, w[0].index_bytes, w[0].frames)
            == (w[1].gt_inferences, w[1].index_bytes, w[1].frames)
            && w[0].query_gpu_s == w[1].query_gpu_s
            && w[0].ingest_gpu_s == w[1].ingest_gpu_s
    });
    if !counts_repeat {
        verdict.failed += 1;
        verdict.correct = false;
        verdict
            .reasons
            .push("exact counts differ between laps of one run".to_string());
    }

    // Laps repeat the same operations, so operation `i` has one sample per
    // lap. The machine's noise only ever adds time (a lower clock, a busy
    // neighbour), so the operation's own time is estimated from the fastest
    // quarter of its samples; a lap-level metric sums or ranks those
    // estimates.
    let steady = |samples: &dyn Fn(&Lap) -> &[f64]| -> Vec<f64> {
        (0..samples(plain[0]).len())
            .map(|i| {
                fastest_quarter(
                    &plain
                        .iter()
                        .map(|lap| samples(lap)[i])
                        .collect::<Vec<f64>>(),
                )
            })
            .collect()
    };
    let tick_secs = steady(&|lap| &lap.tick_secs);
    let latencies_ms = steady(&|lap| &lap.latencies_ms);
    // A lap's recoveries all recover the same state: one operation.
    let recover_secs: Vec<f64> = plain
        .iter()
        .flat_map(|lap| lap.recover_secs.iter().copied())
        .collect();
    let hours = workload.video_hours();
    let queries = plain[0].latencies_ms.len() as f64;
    let ingest_gpu_s = reference
        .as_ref()
        .and_then(|r| r.ingest_gpu_s)
        .unwrap_or(plain[0].ingest_gpu_s);
    let mut end_to_end = Values::new();
    end_to_end.insert("setup_s", median(&setup_secs));
    end_to_end.insert(
        "ingest_frames_per_s",
        workload
            .setup_ingest_rate()
            .unwrap_or_else(|| ratio(plain[0].frames as f64, tick_secs.iter().sum())),
    );
    end_to_end.insert(
        "queries_per_s",
        ratio(queries, latencies_ms.iter().sum::<f64>() / 1e3),
    );
    end_to_end.insert("query_p50_ms", percentile(&latencies_ms, 0.50));
    end_to_end.insert("query_p95_ms", percentile(&latencies_ms, 0.95));
    end_to_end.insert("recover_s", fastest_quarter(&recover_secs));
    end_to_end.insert(
        "gt_inferences_per_query",
        ratio(plain[0].gt_inferences as f64, queries),
    );
    end_to_end.insert(
        "query_gpu_ms_per_query",
        ratio(plain[0].query_gpu_s * 1e3, queries),
    );
    end_to_end.insert("ingest_gpu_s_per_video_hour", ratio(ingest_gpu_s, hours));
    end_to_end.insert("recall_min", verdict.recall_min);
    end_to_end.insert("precision_min", verdict.precision_min);
    end_to_end.insert(
        "index_bytes_per_video_hour",
        ratio(plain[0].index_bytes as f64, hours),
    );
    debug_assert_eq!(end_to_end.len() + 1, END_TO_END.len());

    let mut notes = workload.notes();
    let scored = &laps[0].tally;
    notes.push(format!(
        "quality: {} queries scored on their own (at least {MIN_TRUTH_SECS} s of truth); bootstrap minutes pooled: recall {:.4}, precision {:.4} over {} s of truth",
        scored.scored_queries(),
        scored.bootstrap.recall(),
        scored.bootstrap.precision(),
        scored.bootstrap.truth
    ));
    notes.push(format!(
        "laps {} ({} untraced), latency samples {}, threads available {}",
        laps.len(),
        plain.len(),
        samples,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    let mut per_layer = None;
    let mut spans = None;
    if traced {
        let mut values: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        shared_layers(&laps, &trace, &mut values);
        workload.layers(&laps, &trace, &mut values);
        probes::run(workload.datasets(), scratch, &mut trace.tracer, &mut values)?;
        spans = Some(trace.tracer.to_json_lines());
        per_layer = Some(values);
    }
    // Last, so it covers everything the run allocated.
    end_to_end.insert("peak_rss_mb", peak_rss_mib());

    Ok(Report {
        end_to_end,
        per_layer,
        verdict,
        laps: laps.len(),
        samples,
        notes,
        spans,
    })
}

/// Per-layer metrics of the layers every `FocusService` workload drives,
/// from the spans and boundary counts of the traced laps.
fn shared_layers(laps: &[Lap], trace: &Trace, out: &mut Values) {
    let tracer = &trace.tracer;
    let counts = &trace.counts;
    let queries = counts.queries as f64;
    let serve_secs = tracer.total_secs("service.serve");

    let maintain = tracer.durations_ms("service.maintain");
    out.insert(
        "service.advance_ms_p50",
        median(&tracer.durations_ms("service.advance")),
    );
    out.insert("service.maintain_ms_p50", median(&maintain));
    out.insert("service.maintain_ms_max", max(&maintain));
    out.insert(
        "service.tail_snapshot_ms_p50",
        median(&tracer.durations_ms("service.tail_snapshot")),
    );
    out.insert(
        "service.tail_snapshot_share",
        ratio(tracer.total_secs("service.tail_snapshot"), serve_secs),
    );
    let serve_self = tracer.self_ms("service.serve");
    out.insert("service.serve_self_ms_p50", median(&serve_self));
    out.insert(
        "service.tail_hit_fraction",
        ratio(counts.tail_candidates as f64, counts.candidates as f64),
    );

    out.insert(
        "query.plan_ms_p50",
        median(&tracer.durations_ms("query.plan")),
    );
    out.insert(
        "query.plan_share",
        ratio(tracer.total_secs("query.plan"), serve_secs),
    );
    out.insert(
        "query.candidates_per_query",
        ratio(counts.candidates as f64, queries),
    );
    out.insert(
        "query.segments_opened_per_query",
        ratio(counts.access.segments_opened() as f64, queries),
    );
    out.insert(
        "query.segments_pruned_fraction",
        ratio(
            counts
                .segments_total
                .saturating_sub(counts.access.segments_considered) as f64,
            counts.segments_total as f64,
        ),
    );
    out.insert(
        "query.track_pruned_fraction",
        ratio(
            counts
                .track_candidates_unpruned
                .saturating_sub(counts.track_candidates_pruned) as f64,
            counts.track_candidates_unpruned as f64,
        ),
    );

    out.insert(
        "query_server.verify_assemble_ms_p50",
        median(&tracer.durations_ms("query_server.verify_assemble")),
    );
    out.insert(
        "query_server.verify_assemble_share",
        ratio(
            tracer.total_secs("query_server.verify_assemble"),
            serve_secs,
        ),
    );
    out.insert(
        "query_server.verdict_hit_rate",
        1.0 - ratio(counts.fresh_inferences as f64, counts.candidates as f64),
    );
    out.insert(
        "query_server.fresh_inferences_per_query",
        ratio(counts.fresh_inferences as f64, queries),
    );
    out.insert(
        "query_server.candidates_per_inference",
        ratio(counts.candidates as f64, counts.fresh_inferences as f64),
    );
    out.insert(
        "query_server.result_frames_per_query",
        ratio(counts.result_frames as f64, queries),
    );

    let access = &counts.access;
    let fetches = (access.blocks_read + access.block_raw_hits + access.block_hits) as f64;
    out.insert(
        "index.blocks_read_per_query",
        ratio(access.blocks_read as f64, queries),
    );
    out.insert(
        "index.bytes_read_per_query",
        ratio(access.bytes_read as f64, queries),
    );
    out.insert(
        "index.disk_reads_per_query",
        ratio(access.cold_loads as f64, queries),
    );
    out.insert(
        "index.decoded_hit_rate",
        ratio(access.block_hits as f64, fetches),
    );
    out.insert(
        "index.raw_hit_rate",
        ratio(
            access.block_raw_hits as f64,
            (access.block_raw_hits + access.blocks_read) as f64,
        ),
    );

    // Observations laps took of their own service (store shape, scheduler).
    let mut observed: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in laps.iter().flat_map(|lap| &lap.observed) {
        observed.entry(name).or_default().push(*value);
    }
    for (name, values) in observed {
        out.insert(name, median(&values));
    }

    out.insert(
        "trace.unexplained_share",
        ratio(serve_self.iter().sum::<f64>() / 1e3, serve_secs),
    );
    let rate = |traced: bool| {
        median(
            &laps
                .iter()
                .filter(|lap| lap.traced == traced)
                .map(Lap::queries_per_s)
                .collect::<Vec<f64>>(),
        )
    };
    out.insert(
        "trace.overhead_fraction",
        1.0 - ratio(rate(true), rate(false)),
    );
}
