//! Pieces every workload shares: the paper's service configuration, the
//! per-lap record, the traced decomposition of `FocusService::serve`, and
//! process-level measurements (store size, peak memory).

use std::path::{Path, PathBuf};
use std::time::Instant;

use focus_cnn::GroundTruthCnn;
use focus_core::adapt::AdaptationConfig;
use focus_core::service::{FocusService, ServiceConfig};
use focus_core::{
    AccuracyTarget, IngestParams, QueryOutcome, QueryRequest, SealPolicy, StreamWorkerConfig,
    TradeoffPolicy,
};
use focus_index::{QueryFilter, SegmentAccess, SegmentError};
use focus_runtime::{GpuClusterSpec, GpuMeter};
use focus_video::{ClassId, Frame, StreamId};

use crate::inputs::Window;
use crate::oracle::{Oracle, Tally};
use crate::stats::ratio;
use crate::trace::Tracer;

/// GPUs of every service: `QueryServer` sizes its worker pool from this,
/// and the benchmark must not run more threads than a 2-core box has.
pub const GPUS: usize = 2;

/// The paper's configuration: specialization on (`StreamWorkerConfig`
/// defaults — bootstrap 60 s, retrain 600 s, 2% GT labelling), K = 4,
/// binary segments sealed every 60 stream seconds. `tick_secs` is the
/// stream time one `maintain` call stands for, so the modelled GPU capacity
/// per tick matches the video ingested per tick. `adaptive` adds the drift
/// controller, configured as in `benches/service_adaptive.rs`.
pub fn service_config(tick_secs: f64, adaptive: bool) -> ServiceConfig {
    ServiceConfig {
        worker: StreamWorkerConfig {
            params: IngestParams {
                k: 4,
                ..IngestParams::default()
            },
            ..StreamWorkerConfig::default()
        },
        seal: SealPolicy::every_secs(60.0),
        gpus: GpuClusterSpec::new(GPUS),
        tick_secs,
        adaptation: adaptive.then(|| AdaptationConfig {
            audit_fraction: 0.08,
            window_labels: 150,
            min_window_labels: 40,
            drift_threshold: 0.45,
            window_secs: 30.0,
            cooldown_secs: 90.0,
            target: AccuracyTarget::both(0.95),
            policy: TradeoffPolicy::Balance,
            ..AdaptationConfig::default()
        }),
        ..ServiceConfig::default()
    }
}

/// A fresh service over a new store at `dir` with `streams` registered.
pub fn create_service(
    dir: &Path,
    config: ServiceConfig,
    streams: &[(StreamId, u32)],
) -> Result<FocusService, String> {
    let mut service = FocusService::create(dir, config, GroundTruthCnn::resnet152())
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (stream, fps) in streams {
        service
            .register_stream(*stream, *fps)
            .map_err(|e| format!("register stream {}: {e}", stream.0))?;
    }
    Ok(service)
}

/// What the oracle needs to score a quality query.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub cam: usize,
    pub window: Option<Window>,
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Ask {
    pub request: QueryRequest,
    /// Present when this is a quality query: one camera, one of its
    /// quality classes, no `Kx`, no track filter.
    pub quality: Option<Quality>,
}

impl Ask {
    /// A quality query: `class` on camera `cam`, optionally windowed.
    pub fn quality(
        cam: usize,
        stream: (StreamId, u32),
        class: ClassId,
        window: Option<Window>,
    ) -> Self {
        let mut filter = QueryFilter::for_stream(stream.0);
        if let Some(window) = window {
            let (from, to) = window.filter_range(stream.1);
            filter = filter.with_time_range(from, to);
        }
        Self {
            request: QueryRequest::new(class).with_filter(filter),
            quality: Some(Quality { cam, window }),
        }
    }

    /// Scores the answer only up to stream second `to`: what had been
    /// ingested when the request was made. The request itself is unchanged.
    pub fn scored_until(mut self, to: u64) -> Self {
        if let Some(quality) = self.quality.as_mut() {
            quality.window = Some(Window { from: 0, to });
        }
        self
    }

    /// A timed but unscored request (cross-camera or track-filtered).
    pub fn unscored(request: QueryRequest) -> Self {
        Self {
            request,
            quality: None,
        }
    }
}

/// Counts taken at the layer boundaries of traced laps, so ratios are
/// measured where the work happens.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub queries: usize,
    pub candidates: usize,
    pub tail_candidates: usize,
    pub fresh_inferences: usize,
    pub result_frames: usize,
    pub access: SegmentAccess,
    /// Σ over queries of the store's live segment count at plan time.
    pub segments_total: usize,
    /// Candidates of track-filtered requests without / with sketch pruning.
    pub track_candidates_unpruned: usize,
    pub track_candidates_pruned: usize,
}

/// The traced run's recorder: spans plus boundary counts.
#[derive(Debug)]
pub struct Trace {
    pub tracer: Tracer,
    pub counts: Counts,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            counts: Counts::default(),
        }
    }
}

/// `FocusService::serve` for one request, replaced by its public
/// decomposition with a span around each layer: `tail_snapshot()` →
/// `corpus().plan_with_tail()` → `query_server().serve_resolved()`. The
/// query-side GPU work is submitted to the shared scheduler exactly as
/// `serve` does.
pub fn serve_traced(
    service: &FocusService,
    request: &QueryRequest,
    op: u64,
    trace: &mut Trace,
) -> Result<QueryOutcome, SegmentError> {
    let Trace { tracer, counts } = trace;
    let serve = tracer.begin("service.serve", op);
    let span = tracer.begin("service.tail_snapshot", op);
    let tail = service.tail_snapshot();
    tracer.end(span);

    let span = tracer.begin("query.plan", op);
    let planned = service.corpus().plan_with_tail(request, Some(&tail));
    tracer.end(span);
    let planned = match planned {
        Ok(planned) => planned,
        Err(e) => {
            tracer.end(serve);
            return Err(e);
        }
    };
    let candidates = planned.plan.candidates.len();

    let span = tracer.begin("query_server.verify_assemble", op);
    let meter = GpuMeter::new();
    let corpus = service.corpus();
    let outcome = service
        .query_server()
        .serve_resolved(
            &[planned.plan],
            &[planned.records],
            |id| {
                corpus
                    .centroids
                    .get(&id)
                    .or_else(|| tail.centroid(id))
                    .cloned()
            },
            &meter,
        )
        .pop()
        .expect("one outcome per plan");
    service.scheduler().submit("query", meter.phase("query"));
    tracer.end(span);
    tracer.end(serve);

    counts.queries += 1;
    counts.candidates += candidates;
    counts.tail_candidates += planned.tail_records;
    counts.fresh_inferences += outcome.centroid_inferences;
    counts.result_frames += outcome.frames.len();
    counts.segments_total += planned.access.segments_total;
    counts.access.merge(&planned.access);
    Ok(outcome)
}

/// What the sketch intersection saved on a track-filtered request: the same
/// request planned again without candidate pruning. Runs outside every span
/// and outside the request's latency.
fn count_track_pruning(service: &FocusService, request: &QueryRequest, counts: &mut Counts) {
    let corpus = service.corpus();
    let tail = service.tail_snapshot();
    let classes = corpus.lookup_classes(request.class, &request.filter);
    let plan = |prune_tracks| {
        corpus
            .plan_with_tail_scoped(request, Some(&tail), &classes, true, prune_tracks)
            .map(|planned| planned.plan.candidates.len())
    };
    if let (Ok(unpruned), Ok(pruned)) = (plan(false), plan(true)) {
        counts.track_candidates_unpruned += unpruned;
        counts.track_candidates_pruned += pruned;
    }
}

/// Serves one request on `service` — directly, or through the traced
/// decomposition — and returns the outcome with its wall latency in ms.
pub fn ask_service(
    service: &FocusService,
    request: &QueryRequest,
    op: u64,
    mut trace: Option<&mut Trace>,
) -> (Result<QueryOutcome, String>, f64) {
    let start = Instant::now();
    let outcome = match trace.as_deref_mut() {
        Some(trace) => serve_traced(service, request, op, trace),
        None => service
            .serve(std::slice::from_ref(request))
            .map(|mut outcomes| outcomes.pop().expect("one outcome per request")),
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(trace) = trace.filter(|_| !request.tracks.is_empty()) {
        count_track_pruning(service, request, &mut trace.counts);
    }
    (outcome.map_err(|e| e.to_string()), ms)
}

/// What one lap measured. Counts are exact and identical lap to lap; every
/// timed operation (tick, request, recovery) is one sample of that
/// operation's time.
#[derive(Debug, Clone, Default)]
pub struct Lap {
    /// Whether the lap ran with spans on (only in the traced run).
    pub traced: bool,
    pub frames: usize,
    /// Wall seconds inside `advance` + `maintain`, per ingest tick.
    pub tick_secs: Vec<f64>,
    /// Per-request wall latency, ms, in request order.
    pub latencies_ms: Vec<f64>,
    /// Wall seconds of each recovery the lap timed.
    pub recover_secs: Vec<f64>,
    /// Fresh GT-CNN inferences the lap's requests caused.
    pub gt_inferences: usize,
    /// Modelled GPU seconds of those inferences (batched).
    pub query_gpu_s: f64,
    /// Modelled ingest + specialization + audit + selection GPU seconds.
    pub ingest_gpu_s: f64,
    /// Bytes in the store directory when the lap ended.
    pub index_bytes: u64,
    pub tally: Tally,
    /// Per-layer observations the lap took of its own service at its end
    /// (store shape, scheduler shares); the run reports their median.
    pub observed: Vec<(&'static str, f64)>,
}

impl Lap {
    /// Folds one request's result into the lap: latency, inference and GPU
    /// accounting, the oracle's tally, and (on the scoring lap) its score.
    pub fn record(
        &mut self,
        index: usize,
        ask: &Ask,
        result: Result<QueryOutcome, String>,
        latency_ms: f64,
        oracle: Option<&Oracle>,
    ) {
        self.latencies_ms.push(latency_ms);
        match result {
            Ok(outcome) => {
                self.gt_inferences += outcome.centroid_inferences;
                self.query_gpu_s += outcome.gpu_cost.seconds();
                self.tally.answered(index, &outcome);
                if let (Some(oracle), Some(quality)) = (oracle, ask.quality) {
                    self.tally.scored(oracle.score(
                        quality.cam,
                        ask.request.class,
                        quality.window,
                        &outcome.frames,
                    ));
                }
            }
            Err(_) => self.tally.operation(false),
        }
    }

    /// Frames per second of wall time spent inside `advance` + `maintain`.
    pub fn ingest_frames_per_s(&self) -> f64 {
        ratio(self.frames as f64, self.tick_secs.iter().sum())
    }

    /// Requests per second of wall time spent inside the query calls.
    pub fn queries_per_s(&self) -> f64 {
        let secs: f64 = self.latencies_ms.iter().sum::<f64>() / 1e3;
        ratio(self.latencies_ms.len() as f64, secs)
    }
}

/// Times `recover` three times over (a cheap recovery is too short to time
/// once) and returns the wall seconds of each and whether all succeeded.
pub fn time_recover<T, E>(recover: impl Fn() -> Result<T, E>) -> (Vec<f64>, bool) {
    let mut secs = Vec::new();
    let mut ok = true;
    for _ in 0..3 {
        let start = Instant::now();
        let recovered = recover();
        secs.push(start.elapsed().as_secs_f64());
        ok &= recovered.is_ok();
    }
    (secs, ok)
}

/// Modelled GPU seconds the service's ingest side submitted: ingest
/// classification, specialization labelling, drift audit and re-selection.
pub fn ingest_gpu_secs(service: &FocusService) -> f64 {
    let stats = service.scheduler().stats();
    ["ingest", "specialization", "audit", "selection"]
        .iter()
        .map(|phase| stats.submitted_by_phase.get(*phase).copied().unwrap_or(0.0))
        .sum()
}

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn spanned<R>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        None => f(),
        Some(trace) => {
            let span = trace.tracer.begin(name, op);
            let result = f();
            trace.tracer.end(span);
            result
        }
    }
}

/// What one ingest tick (`advance` + `maintain`) did.
#[derive(Debug, Clone, Copy)]
pub struct Ticked {
    /// Wall seconds inside the two calls.
    pub secs: f64,
    /// Wall seconds inside `maintain` alone.
    pub maintain_secs: f64,
    /// Whether both calls succeeded.
    pub ok: bool,
    /// Streams the drift controller reconfigured during `maintain`.
    pub reconfigured: usize,
}

/// Pushes one tick — one slice of frames per camera — through `advance`,
/// then runs `maintain`, timed.
pub fn ingest_tick(
    service: &mut FocusService,
    tick: &[&[Frame]],
    op: u64,
    mut trace: Option<&mut Trace>,
) -> Ticked {
    let start = Instant::now();
    let mut advanced = true;
    for frames in tick {
        advanced &= spanned(&mut trace, "service.advance", op, || {
            service.advance(frames)
        })
        .is_ok();
    }
    let advanced_at = start.elapsed().as_secs_f64();
    let maintained = spanned(&mut trace, "service.maintain", op, || service.maintain());
    let secs = start.elapsed().as_secs_f64();
    Ticked {
        secs,
        maintain_secs: secs - advanced_at,
        ok: advanced && maintained.is_ok(),
        reconfigured: maintained.map_or(0, |report| report.reconfigured_streams),
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The benchmark's working directory, one sub-directory per process under
/// `<directory of the executable>/focus-benchmark-work/`. The issue asked
/// for `std::env::temp_dir()`; the benchmark driver's contract forbids it
/// ("reads and writes only inside its checkout"), and the build directory
/// is the one place inside the checkout that git ignores. Removed when
/// dropped — on success, on a failed run and on a panic that unwinds; what
/// a killed run left behind is swept by the next run.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let work = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("focus-benchmark-work");
        sweep_stale(&work);
        let root = work.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Self { root })
    }

    /// A fresh, empty sub-directory path (not created).
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Removes the working directories of processes that no longer exist (a
/// run that was killed could not remove its own).
fn sweep_stale(work: &Path) {
    for entry in std::fs::read_dir(work).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let alive = name
            .to_str()
            .and_then(|pid| pid.parse::<u32>().ok())
            .is_some_and(|pid| Path::new("/proc").join(pid.to_string()).exists());
        if !alive {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Records what a traced lap sees of its own service when it ends: store
/// shape, scheduler shares and the drift controller's activity.
pub fn observe_service(lap: &mut Lap, service: &FocusService) {
    let stats = service.stats();
    let phase = |name: &str| {
        stats
            .gpu
            .submitted_by_phase
            .get(name)
            .copied()
            .unwrap_or(0.0)
    };
    let submitted = stats.gpu.query_submitted_secs + stats.gpu.ingest_submitted_secs;
    lap.observed.extend([
        ("index.segments_live", stats.segments as f64),
        (
            "index.bytes_per_cluster",
            ratio(lap.index_bytes as f64, stats.store_clusters as f64),
        ),
        ("runtime.gpu_utilization", stats.gpu.utilization()),
        (
            "runtime.gpu_query_share",
            ratio(stats.gpu.query_submitted_secs, submitted),
        ),
        ("adapt.reconfigurations", stats.reconfigurations as f64),
        ("adapt.gpu_s_audit", phase("audit")),
        ("adapt.gpu_s_selection", phase("selection")),
    ]);
}
