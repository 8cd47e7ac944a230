//! Helpers shared by the integration tests that drive a fixed-model
//! [`FocusService`] and compare it with the in-memory reference: the
//! service's records merged into one index, planned by [`QueryPlan::build`]
//! and verified by a cold [`QueryServer`].
#![allow(dead_code)]

use focus::cnn::GroundTruthCnn;
use focus::core::{
    FocusService, IngestCnn, IngestParams, QueryOutcome, QueryPlan, QueryRequest, QueryServer,
    SealPolicy, ServiceConfig, StreamWorkerConfig,
};
use focus::index::{Fs, MemFs, TopKIndex};
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

/// `dataset` replayed through a fresh [`config`]-configured service on a
/// [`mem_fs`] with `params` in force, every record sealed.
pub fn sealed_service(dataset: &VideoDataset, params: IngestParams) -> FocusService {
    let mut config = config(1e9);
    config.worker.params = params;
    let gt = GroundTruthCnn::resnet152();
    let mut service = FocusService::create_with(mem_fs(), MEM_DIR, config, gt).unwrap();
    let profile = &dataset.profile;
    service
        .register_stream(profile.stream_id, profile.fps)
        .unwrap();
    service.advance(&dataset.frames).unwrap();
    service.seal_all().unwrap();
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
/// index: the corpus [`reference_serve`] answers from, and so the reference
/// a durable serve is compared against.
pub fn reference_output(service: &FocusService) -> TopKIndex {
    let mut index = service.store().merged_index().unwrap();
    for part in service.tail_snapshot().parts() {
        assert_eq!(index.merge_from(part.index()), 0);
    }
    index
}

/// `requests` planned over `index` by the in-memory reference planner
/// ([`QueryPlan::build`], under the fixed model of [`config`]) and served
/// in one [`QueryServer::serve_resolved`] call by `server`.
pub fn serve_planned(
    server: &QueryServer,
    index: &TopKIndex,
    requests: &[QueryRequest],
    meter: &GpuMeter,
) -> Vec<QueryOutcome> {
    let model = IngestCnn::generic(config(1e9).worker.bootstrap_model);
    let (plans, records): (Vec<_>, Vec<_>) = requests
        .iter()
        .map(|request| QueryPlan::build(index, &model, request))
        .unzip();
    server.serve_resolved(&plans, &records, |id| index.centroid(id).cloned(), meter)
}

/// `requests` served in one call by the in-memory reference: planned over
/// `index` and verified by a fresh [`QueryServer`] with the GPU cluster of
/// [`config`], nothing cached.
pub fn reference_serve(index: &TopKIndex, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
    let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
    serve_planned(&server, index, requests, &GpuMeter::new())
}

/// `request` served alone by the in-memory reference ([`reference_serve`]):
/// every candidate verified exactly once, with no cache and nothing shared
/// — the reference a shared, cached or durable serve is compared against.
pub fn cold_serve(index: &TopKIndex, request: &QueryRequest) -> QueryOutcome {
    reference_serve(index, std::slice::from_ref(request)).remove(0)
}
