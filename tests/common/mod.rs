//! Helpers shared by the integration tests that drive a fixed-model
//! [`FocusService`] and compare it with the in-memory reference pair.
#![allow(dead_code)]

use focus::cnn::{GpuCost, GroundTruthCnn};
use focus::core::{
    FocusService, IngestCnn, IngestOutput, IngestParams, QueryOutcome, QueryRequest, QueryServer,
    SealPolicy, ServiceConfig, StreamWorkerConfig,
};
use focus::index::{Fs, MemFs};
use focus::runtime::{GpuClusterSpec, GpuMeter};
use focus::video::profile::profile_by_name;
use focus::video::{Frame, VideoDataset};

use std::path::PathBuf;
use std::sync::Arc;

/// A fresh, empty in-memory filesystem: the stores of a test that needs
/// only a scratch store live on it, so nothing reaches the disk and nothing
/// is left behind.
pub fn mem_fs() -> Arc<dyn Fs> {
    Arc::new(MemFs::default())
}

/// Where a store lives on a [`mem_fs`]: every test has its own filesystem,
/// so one path serves them all.
pub const MEM_DIR: &str = "/store";

/// A fresh scratch directory on disk, for the tests that must reach it:
/// `focus_<suite>_<name>` under the system temp directory, removed if a
/// previous run left it behind.
pub fn test_dir(name: &str) -> PathBuf {
    let suite = env!("CARGO_CRATE_NAME");
    let dir = std::env::temp_dir().join(format!("focus_{suite}_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A service config with the model fixed (no bootstrap, no retrain, no GT
/// labelling — identity query routing), so a service run is a replay of the
/// recording and its results can be compared against the in-memory
/// reference over the merged corpus.
pub fn config(seal_secs: f64) -> ServiceConfig {
    ServiceConfig {
        worker: StreamWorkerConfig {
            params: IngestParams {
                k: 10,
                ..IngestParams::default()
            },
            bootstrap_secs: 1e9,
            retrain_interval_secs: 1e9,
            gt_label_fraction: 0.0,
            ..StreamWorkerConfig::default()
        },
        seal: SealPolicy::every_secs(seal_secs),
        gpus: GpuClusterSpec::new(4),
        ..ServiceConfig::default()
    }
}

pub fn workload(secs: f64) -> Vec<VideoDataset> {
    ["auburn_c", "lausanne"]
        .iter()
        .map(|n| VideoDataset::generate(profile_by_name(n).unwrap(), secs))
        .collect()
}

/// Round-robin interleaving of the datasets' frames in `chunk`-frame runs —
/// the arrival order a live multi-camera service sees.
pub fn interleave(datasets: &[VideoDataset], chunk: usize) -> Vec<Frame> {
    let mut cursors = vec![0usize; datasets.len()];
    let mut frames = Vec::new();
    loop {
        let mut progressed = false;
        for (ds, cursor) in datasets.iter().zip(cursors.iter_mut()) {
            let end = (*cursor + chunk).min(ds.frames.len());
            if *cursor < end {
                frames.extend(ds.frames[*cursor..end].iter().cloned());
                *cursor = end;
                progressed = true;
            }
        }
        if !progressed {
            return frames;
        }
    }
}

/// A fresh [`config`]-configured service over `dir` on `fs` with every
/// dataset's stream registered.
pub fn service_at(
    fs: Arc<dyn Fs>,
    dir: impl Into<PathBuf>,
    seal_secs: f64,
    datasets: &[VideoDataset],
) -> FocusService {
    let gt = GroundTruthCnn::resnet152();
    let mut service = FocusService::create_with(fs, dir, config(seal_secs), gt).unwrap();
    for ds in datasets {
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    service
}

/// [`service_at`] on a fresh [`mem_fs`], with `frames` ingested.
pub fn ingested_service(
    seal_secs: f64,
    datasets: &[VideoDataset],
    frames: &[Frame],
) -> FocusService {
    let mut service = service_at(mem_fs(), MEM_DIR, seal_secs, datasets);
    service.advance(frames).unwrap();
    service
}

/// The stable payload of an outcome: result frames and objects. The
/// accounting fields (inference counts, GPU cost, latency) legitimately
/// differ between execution modes.
pub fn payload_json(outcome: &QueryOutcome) -> String {
    serde_json::to_string(&(&outcome.frames, &outcome.objects)).unwrap()
}

/// Everything a fixed-model service holds — its sealed segments merged,
/// plus the hot tail, centroid observations included — as one in-memory
/// [`IngestOutput`]: the corpus [`cold_serve`] answers from, and so the
/// reference a durable serve is compared against.
pub fn reference_output(service: &FocusService) -> IngestOutput {
    let mut index = service.store().merged_index().unwrap();
    for part in service.tail_snapshot().parts() {
        assert_eq!(index.merge_from(part.index()), 0);
    }
    let objects_total = index.stats().objects;
    IngestOutput {
        clusters: index.len(),
        index,
        model: IngestCnn::generic(service.config().worker.bootstrap_model),
        params: service.config().worker.params,
        gpu_cost: GpuCost::ZERO,
        frames_total: 0,
        frames_with_motion: 0,
        objects_total,
        objects_classified: objects_total,
    }
}

/// `request` served alone by a fresh [`QueryServer`] over `ingest`: every
/// candidate verified exactly once, with no cache and nothing shared — the
/// reference a shared, cached or durable serve is compared against.
pub fn cold_serve(ingest: &IngestOutput, request: &QueryRequest) -> QueryOutcome {
    QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4))
        .serve(ingest, std::slice::from_ref(request), &GpuMeter::new())
        .remove(0)
}
