//! `live_mixed` — reads beside writes on one service. Per lap a fresh
//! service ingests every camera in 10 s ticks; after each tick five
//! requests go one at a time through `RequestPlane::submit` + `dispatch`:
//! three over the last 30 s (only the tail can answer), one over a sealed
//! ten-minute window, one over a camera's full history. The tail is never
//! empty and seals fall between queries, so `tail_snapshot` /
//! `peek_segment`, the plane and maintenance stalls show here and nowhere
//! else.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use focus_cnn::GroundTruthCnn;
use focus_core::service::FocusService;
use focus_core::serving::{RequestPlane, Response, ServingConfig, TenantConfig, TenantId};
use focus_core::QueryOutcome;
use focus_runtime::RealClock;
use focus_video::{StreamId, VideoDataset};

use super::{Reference, Scale, Workload};
use crate::common::{
    ask_service, create_service, dir_bytes, ingest_gpu_secs, ingest_tick, observe_service,
    serve_traced, service_config, time_recover, Ask, Lap, Scratch, Trace,
};
use crate::inputs::{self, mix, Window};
use crate::metrics::Values;
use crate::oracle::{Floors, Oracle};
use crate::stats::median;

/// Stream seconds per ingest tick.
const TICK_SECS: u64 = 10;
/// Length of the freshest-window requests: shorter than the 60 s seal
/// period, so only the hot tail can answer them.
const TAIL_SECS: u64 = 30;
/// Length of the sealed-window request, once the recording is that long.
const SEALED_SECS: u64 = 600;
/// The seal period of the paper's configuration.
const SEAL_SECS: u64 = 60;

pub struct LiveMixed {
    datasets: Vec<VideoDataset>,
    streams: Vec<(StreamId, u32)>,
    /// The five requests issued after each tick.
    asks: Vec<Vec<Ask>>,
    oracle: Oracle,
    dir: PathBuf,
}

/// How a lap's requests reach the service.
#[derive(Clone, Copy)]
enum Path<'a> {
    /// `RequestPlane::submit` + `dispatch`, one request at a time.
    Plane(&'a RequestPlane),
    /// `FocusService::serve`, the reference.
    Direct,
}

impl LiveMixed {
    pub fn prepare(seed: u64, scale: &Scale, scratch: &Scratch) -> Result<Self, String> {
        let total = scale.live_minutes * 60;
        let datasets = inputs::record(total as f64, None);
        let streams = inputs::streams(&datasets);
        let oracle = Oracle::new(&datasets);
        let cams = streams.len();
        let asks = (0..inputs::tick_count(&datasets, TICK_SECS as f64))
            .map(|tick| {
                let now = (tick as u64 + 1) * TICK_SECS;
                // The `n`-th request of a kind asks camera `n % cams` about
                // its quality class `n / cams`, so every camera is asked
                // about every class.
                let quality = |n: usize, window: Option<Window>| {
                    let cam = n % cams;
                    let classes = oracle.classes(cam);
                    let class = classes[n / cams % classes.len()];
                    Ask::quality(cam, streams[cam], class, window)
                };
                let mut asks = Vec::new();
                for j in 0..3 {
                    let window = Window {
                        from: now.saturating_sub(TAIL_SECS),
                        to: now,
                    };
                    asks.push(quality(tick * 3 + j, Some(window)));
                }
                // A window that ended at least one seal period ago — the
                // seed decides how long ago, not how long the window is — or
                // everything so far while the recording is younger than two
                // seal periods.
                let sealed = match now.checked_sub(2 * SEAL_SECS) {
                    Some(room) if room > 0 => {
                        let to = now - SEAL_SECS - mix(seed, tick as u64) % SEAL_SECS;
                        Window::new(to - room.min(SEALED_SECS), room.min(SEALED_SECS))
                    }
                    _ => Window { from: 0, to: now },
                };
                asks.push(quality(tick, Some(sealed)));
                asks.push(quality(tick + 1, None).scored_until(now));
                asks
            })
            .collect();
        Ok(Self {
            datasets,
            streams,
            asks,
            oracle,
            dir: scratch.dir("live_mixed"),
        })
    }

    /// One pass over the whole workload on a fresh service.
    fn pass(
        &self,
        path: Path,
        score: bool,
        mut trace: Option<&mut Trace>,
    ) -> Result<(Lap, FocusService), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let mut service = create_service(
            &self.dir,
            service_config(TICK_SECS as f64, false),
            &self.streams,
        )?;
        let mut lap = Lap::default();
        let oracle = score.then_some(&self.oracle);
        let mut index = 0;
        for (tick, asks) in self.asks.iter().enumerate() {
            let frames = inputs::tick(&self.datasets, TICK_SECS as f64, tick);
            let ticked = ingest_tick(&mut service, &frames, tick as u64, trace.as_deref_mut());
            lap.tally.operation(ticked.ok);
            lap.frames += frames.iter().map(|f| f.len()).sum::<usize>();
            lap.tick_secs.push(ticked.secs);
            for ask in asks {
                let (result, ms) = match path {
                    Path::Direct => ask_service(&service, &ask.request, index as u64, None),
                    Path::Plane(plane) => {
                        through_plane(plane, &service, ask, index as u64, trace.as_deref_mut())
                    }
                };
                lap.record(index, ask, result, ms, oracle);
                index += 1;
            }
        }
        lap.ingest_gpu_s = ingest_gpu_secs(&service);
        lap.index_bytes = dir_bytes(&self.dir);
        Ok((lap, service))
    }
}

/// One request through the plane: `submit`, then `dispatch` closes a batch
/// of exactly that request. A shed or an expiry is a failed operation.
fn through_plane(
    plane: &RequestPlane,
    service: &FocusService,
    ask: &Ask,
    op: u64,
    trace: Option<&mut Trace>,
) -> (Result<QueryOutcome, String>, f64) {
    let start = Instant::now();
    let result = match trace {
        None => plane
            .submit(TenantId(0), ask.request.clone())
            .map_err(|shed| format!("shed: {:?}", shed.reason))
            .and_then(|_| plane.dispatch(service).map_err(|e| e.to_string())),
        Some(trace) => {
            let span = trace.tracer.begin("serving.submit", op);
            let submitted = plane.submit(TenantId(0), ask.request.clone());
            trace.tracer.end(span);
            submitted
                .map_err(|shed| format!("shed: {:?}", shed.reason))
                .and_then(|_| {
                    let span = trace.tracer.begin("serving.dispatch", op);
                    let completed = plane.dispatch_with(|batch| {
                        batch
                            .iter()
                            .map(|request| serve_traced(service, request, op, trace))
                            .collect()
                    });
                    trace.tracer.end(span);
                    completed.map_err(|e| e.to_string())
                })
        }
    };
    let outcome = result.and_then(|mut completed| match completed.pop().map(|c| c.response) {
        Some(Response::Answered(outcome)) if completed.is_empty() => Ok(outcome),
        Some(Response::DeadlineExpired) => Err("expired".to_string()),
        _ => Err("dispatch did not complete exactly the submitted request".to_string()),
    });
    (outcome, start.elapsed().as_secs_f64() * 1e3)
}

/// A plane on the real clock whose tenant bucket and deadline sit far above
/// what one closed-loop client can reach: it never sheds here, so a shed is
/// a failure.
fn plane() -> RequestPlane {
    let config = ServingConfig {
        default_tenant: TenantConfig {
            weight: 1.0,
            rate_per_sec: 1e6,
            burst: 1e6,
            deadline_secs: 60.0,
        },
        ..ServingConfig::default()
    };
    RequestPlane::new(config, Arc::new(RealClock::new()))
}

impl Workload for LiveMixed {
    fn lap(&mut self, index: usize, trace: Option<&mut Trace>) -> Result<Lap, String> {
        let traced = trace.is_some();
        let plane = plane();
        let (mut lap, service) = self.pass(Path::Plane(&plane), index == 0, trace)?;
        if traced {
            observe_service(&mut lap, &service);
            let stats = plane.serving_stats();
            lap.observed
                .push(("serving.shed_fraction", stats.shed_fraction()));
            lap.observed
                .push(("serving.queue_len_max", stats.max_queue_len as f64));
        }
        let config = service.config().clone();
        drop(service);

        let (secs, ok) = time_recover(|| {
            FocusService::recover(&self.dir, config.clone(), GroundTruthCnn::resnet152())
        });
        lap.recover_secs = secs;
        lap.tally.operation(ok);
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(lap)
    }

    /// The same ticks and requests through `FocusService::serve` directly:
    /// the plane must not change a single answer.
    fn verify(&mut self) -> Result<Option<Reference>, String> {
        let (lap, service) = self.pass(Path::Direct, false, None)?;
        drop(service);
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(Some(Reference {
            digest: lap.tally.digest,
            tally: lap.tally,
            ingest_gpu_s: None,
        }))
    }

    fn requests_per_lap(&self) -> usize {
        self.asks.iter().map(Vec::len).sum()
    }

    fn video_hours(&self) -> f64 {
        inputs::video_hours(&self.datasets)
    }

    /// First measured values minus 0.02 (see README.md, *Correctness*): the
    /// worst scored query's recall was 0.924-0.931 over twelve seeds.
    fn floors(&self) -> Floors {
        Floors {
            recall: 0.90,
            precision: 0.95,
            bootstrap_recall: 0.50,
        }
    }

    fn layers(&mut self, _laps: &[Lap], trace: &Trace, out: &mut Values) {
        let us = |ms: Vec<f64>| median(&ms) * 1e3;
        out.insert(
            "serving.submit_us_p50",
            us(trace.tracer.durations_ms("serving.submit")),
        );
        out.insert(
            "serving.dispatch_overhead_us_p50",
            us(trace.tracer.self_ms("serving.dispatch")),
        );
    }

    fn datasets(&self) -> &[VideoDataset] {
        &self.datasets
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "per lap: {} cameras x {} min in {} s ticks, {} requests through the plane ({} per tick)",
            self.datasets.len(),
            self.datasets[0].duration_secs / 60.0,
            TICK_SECS,
            self.asks.iter().map(Vec::len).sum::<usize>(),
            self.asks[0].len()
        )]
    }
}
