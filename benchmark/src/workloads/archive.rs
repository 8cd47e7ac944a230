//! `archive_cold` — the read path over an archive larger than both
//! segment-cache tiers. `setup` ingests every camera once; each lap recovers
//! a service from disk and serves 20 single requests — 60% ten-minute
//! one-camera windows, 20% one camera's full history, 20% all cameras' full
//! history, two of them track-filtered. Lap 0 and the traced laps serve the
//! same 20 again (the warm pass: answers must match, timings feed per-layer
//! metrics only). The mix puts p50 inside the light mode and p95 inside the
//! heavy one, so neither percentile sits on a mode boundary.
//!
//! `recover` loads every segment whole, and a whole segment is one entry of
//! the 1024-entry decoded tier, so an archive of fewer segments than that is
//! entirely resident after recovery and its queries read nothing. The
//! store's cache sizes are not configurable through `ServiceConfig`; the
//! segment count is. This workload therefore seals every 10 stream seconds
//! and never compacts: one hour of four cameras becomes about 1190 segments
//! (35 MB, four times the 8 MiB raw tier), recovery leaves the decoded tier
//! full and evicting, and queries miss it, miss the raw tier and read
//! blocks from disk.

use std::path::PathBuf;
use std::time::Instant;

use focus_cnn::GroundTruthCnn;
use focus_core::query::{Region, TrackFilter, TrackPredicate};
use focus_core::service::{FocusService, ServiceConfig};
use focus_core::{QueryRequest, SealPolicy};
use focus_video::VideoDataset;

use super::{Scale, Workload};
use crate::common::{
    ask_service, create_service, dir_bytes, ingest_gpu_secs, ingest_tick, observe_service,
    service_config, Ask, Lap, Scratch, Trace,
};
use crate::inputs::{self, spread_window};
use crate::oracle::{Floors, Oracle};
use crate::stats::{median, ratio};

/// Stream seconds per ingest tick of the archive build.
const TICK_SECS: f64 = 10.0;
/// Stream seconds per sealed segment (the other workloads: 60).
const SEAL_SECS: f64 = 10.0;
/// Classes per camera the requests ask about.
const CLASSES: usize = 3;
/// Length of the windowed requests' windows (shorter archives: a third).
const WINDOW_SECS: u64 = 600;

pub struct ArchiveCold {
    datasets: Vec<VideoDataset>,
    asks: Vec<Ask>,
    oracle: Oracle,
    dir: PathBuf,
    config: ServiceConfig,
    /// Median over the build's ticks of frames per wall second.
    ingest_rate: f64,
    ingest_gpu_s: f64,
    archive_bytes: u64,
    segments: usize,
    clusters: usize,
}

impl ArchiveCold {
    pub fn prepare(seed: u64, scale: &Scale, scratch: &Scratch) -> Result<Self, String> {
        let total = scale.archive_minutes * 60;
        let datasets = inputs::record(total as f64, None);
        let streams = inputs::streams(&datasets);
        let oracle = Oracle::new(&datasets);

        let dir = scratch.dir("archive_cold");
        let config = ServiceConfig {
            seal: SealPolicy::every_secs(SEAL_SECS),
            compact_small_threshold: usize::MAX,
            ..service_config(TICK_SECS, false)
        };
        let mut service = create_service(&dir, config.clone(), &streams)?;
        let mut rates = Vec::new();
        for i in 0..inputs::tick_count(&datasets, TICK_SECS) {
            let tick = inputs::tick(&datasets, TICK_SECS, i);
            let ticked = ingest_tick(&mut service, &tick, i as u64, None);
            if !ticked.ok {
                return Err(format!("archive build failed at tick {i}"));
            }
            let frames: usize = tick.iter().map(|frames| frames.len()).sum();
            rates.push(ratio(frames as f64, ticked.secs));
        }
        // Nothing may live only in memory: laps start from the disk alone.
        service
            .seal_all()
            .map_err(|e| format!("sealing the archive: {e}"))?;
        let stats = service.stats();
        let ingest_gpu_s = ingest_gpu_secs(&service);
        drop(service);

        let window = WINDOW_SECS.min(total / 3);
        let class = |cam: usize, k: usize| oracle.classes(cam)[k % CLASSES];
        let band = Region::new(500.0, 120.0, 780.0, 600.0);
        let left = Region::new(0.0, 0.0, 640.0, 720.0);
        let right = Region::new(640.0, 0.0, 1280.0, 720.0);
        let mut asks = Vec::new();
        // Five requests per camera: three windows, the camera's full
        // history, every camera's full history.
        for (cam, stream) in streams.iter().enumerate() {
            for j in 0..3 {
                let k = (cam * 3 + j) as u64;
                asks.push(Ask::quality(
                    cam,
                    *stream,
                    class(cam, j),
                    Some(spread_window(seed, k, 12, window, total)),
                ));
            }
            let own = Ask::quality(cam, *stream, class(cam, cam), None);
            let all = QueryRequest::new(class(cam, 0));
            match cam {
                // Two of the twenty carry a track filter (timed, unscored).
                1 => {
                    let tracks = TrackFilter::new().and(TrackPredicate::enters(band));
                    asks.push(Ask::unscored(own.request.with_tracks(tracks)));
                    asks.push(Ask::unscored(all));
                }
                2 => {
                    let tracks = TrackFilter::new().and(TrackPredicate::transit(left, right));
                    asks.push(own);
                    asks.push(Ask::unscored(all.with_tracks(tracks)));
                }
                _ => {
                    asks.push(own);
                    asks.push(Ask::unscored(all));
                }
            }
        }

        Ok(Self {
            archive_bytes: dir_bytes(&dir),
            datasets,
            asks,
            oracle,
            dir,
            config,
            ingest_rate: median(&rates),
            ingest_gpu_s,
            segments: stats.segments,
            clusters: stats.store_clusters,
        })
    }
}

impl Workload for ArchiveCold {
    fn lap(&mut self, index: usize, mut trace: Option<&mut Trace>) -> Result<Lap, String> {
        let mut lap = Lap {
            ingest_gpu_s: self.ingest_gpu_s,
            index_bytes: self.archive_bytes,
            ..Lap::default()
        };
        let start = Instant::now();
        let recovered =
            FocusService::recover(&self.dir, self.config.clone(), GroundTruthCnn::resnet152());
        lap.recover_secs.push(start.elapsed().as_secs_f64());
        lap.tally.operation(recovered.is_ok());
        let (service, _report) = recovered.map_err(|e| format!("recover: {e}"))?;

        let oracle = (index == 0).then_some(&self.oracle);
        for (i, ask) in self.asks.iter().enumerate() {
            let (result, ms) = ask_service(&service, &ask.request, i as u64, trace.as_deref_mut());
            lap.record(i, ask, result, ms, oracle);
        }

        if index > 0 && trace.is_none() {
            return Ok(lap);
        }
        // The warm pass: the same requests again on the same service. It
        // must answer exactly what the cold pass answered; its timings feed
        // per-layer metrics only.
        let mut warm = Lap::default();
        for (i, ask) in self.asks.iter().enumerate() {
            let (result, ms) = ask_service(&service, &ask.request, i as u64, None);
            warm.record(i, ask, result, ms, None);
        }
        lap.tally.attempted += warm.tally.attempted;
        lap.tally.failed += warm.tally.failed;
        lap.tally.operation(warm.tally.digest == lap.tally.digest);
        if trace.is_some() {
            observe_service(&mut lap, &service);
            let cold_p50 = median(&lap.latencies_ms);
            let warm_p50 = median(&warm.latencies_ms);
            lap.observed.push(("service.warm_query_ms_p50", warm_p50));
            lap.observed
                .push(("service.cold_over_warm_ratio", ratio(cold_p50, warm_p50)));
        }
        Ok(lap)
    }

    fn requests_per_lap(&self) -> usize {
        self.asks.len()
    }

    fn video_hours(&self) -> f64 {
        inputs::video_hours(&self.datasets)
    }

    /// First measured values minus 0.02 (see README.md, *Correctness*): the
    /// worst scored query's recall was 0.940-0.951 over twelve seeds.
    fn floors(&self) -> Floors {
        Floors {
            recall: 0.92,
            precision: 0.95,
            bootstrap_recall: 0.50,
        }
    }

    fn setup_ingest_rate(&self) -> Option<f64> {
        Some(self.ingest_rate)
    }

    fn datasets(&self) -> &[VideoDataset] {
        &self.datasets
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "archive: {} cameras x {} min, {} frames, {} bytes on disk, {} segments, {} clusters; per lap: recover + {} requests",
            self.datasets.len(),
            self.datasets[0].duration_secs / 60.0,
            self.datasets.iter().map(|d| d.frames.len()).sum::<usize>(),
            self.archive_bytes,
            self.segments,
            self.clusters,
            self.asks.len()
        )]
    }
}
