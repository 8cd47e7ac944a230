//! Helpers shared by the integration tests that drive a fixed-model
//! [`FocusService`] and compare it with the in-memory reference pair.
#![allow(dead_code)]

use focus::cnn::{GpuCost, GroundTruthCnn};
use focus::core::{
    FocusService, IngestCnn, IngestOutput, IngestParams, SealPolicy, ServiceConfig,
    StreamWorkerConfig,
};
use focus::runtime::GpuClusterSpec;
use focus::video::profile::profile_by_name;
use focus::video::{Frame, VideoDataset};

use std::path::Path;

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

/// A fresh [`config`]-configured service over `dir` with every dataset's
/// stream registered.
pub fn service_at(dir: &Path, seal_secs: f64, datasets: &[VideoDataset]) -> FocusService {
    let mut service =
        FocusService::create(dir, config(seal_secs), GroundTruthCnn::resnet152()).unwrap();
    for ds in datasets {
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    service
}

/// Everything a fixed-model service holds — its sealed segments merged,
/// plus the hot tail — as one in-memory [`IngestOutput`]: the corpus
/// `QueryServer::serve` and `QueryEngine::query` answer from, and so the
/// reference a durable serve is compared against.
pub fn reference_output(service: &FocusService) -> IngestOutput {
    let mut index = service.store().merged_index().unwrap();
    let mut centroids = service.corpus().centroids.clone();
    for part in service.tail_snapshot().parts() {
        assert_eq!(index.merge_from(part.index()), 0);
        centroids.extend(part.centroids().clone());
    }
    let objects_total = index.stats().objects;
    IngestOutput {
        clusters: index.len(),
        index,
        centroids,
        model: IngestCnn::generic(service.config().worker.bootstrap_model),
        params: service.config().worker.params,
        gpu_cost: GpuCost::ZERO,
        frames_total: 0,
        frames_with_motion: 0,
        objects_total,
        objects_classified: objects_total,
    }
}
