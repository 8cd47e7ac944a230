//! Once per traced run, short probes replay the first minutes of one camera
//! through each layer's public functions, so every layer reports its own
//! cost even on a workload that barely drives it: `FramePipeline`, the
//! ingest classifier, the GT-CNN, `SpecializedCnn::train`,
//! `IncrementalClusterer`, `SegmentStore` and one `serve_anytime`.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use focus_cluster::IncrementalClusterer;
use focus_cnn::specialize::SpecializationLevel;
use focus_cnn::{Classifier, GroundTruthCnn, ModelSpec, SpecializedCnn};
use focus_core::query::AnytimeMode;
use focus_core::{FramePipeline, IngestCnn, IngestParams, QueryRequest};
use focus_index::{QueryFilter, SegmentFormat, SegmentStore, TopKIndex};
use focus_video::{ClassId, Frame, ObjectObservation, VideoDataset};

use crate::common::{create_service, service_config, Scratch};
use crate::metrics::Values;
use crate::stats::{median, ratio};
use crate::trace::Tracer;

/// Stream seconds of the first camera the probes replay.
const PROBE_SECS: f64 = 300.0;
/// Objects per timed chunk where one call is too short to time alone.
const CHUNK: usize = 50;
/// The pipeline probe peeks every 5 s and seals every 10 s of stream time,
/// leaving the store probe enough small segments to compact.
const PEEK_EVERY_FRAMES: usize = 150;
const SEAL_EVERY_FRAMES: usize = 300;

/// Wall seconds to generate the run's recordings again (`video.generate_s`,
/// the part of `setup_s` the `video` layer owns).
fn generate_secs(datasets: &[VideoDataset]) -> f64 {
    let start = Instant::now();
    for dataset in datasets {
        let again = VideoDataset::generate(dataset.profile.clone(), dataset.duration_secs);
        std::hint::black_box(again.frames.len());
    }
    start.elapsed().as_secs_f64()
}

/// Runs every probe and writes the `pipeline.`, `cnn.`, `cluster.` metrics,
/// the timed part of `index.`, `query.anytime_…` and `video.generate_s` into
/// `out`.
pub fn run(
    datasets: &[VideoDataset],
    scratch: &Scratch,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<(), String> {
    let dataset = &datasets[0];
    let fps = dataset.profile.fps;
    let frames = &dataset.frames[..dataset.frames.len().min((PROBE_SECS * fps as f64) as usize)];
    let video_secs = frames.len() as f64 / fps as f64;
    let objects: Vec<&ObjectObservation> = frames.iter().flat_map(|f| &f.objects).collect();
    if objects.is_empty() {
        return Err("the probe recording holds no objects".to_string());
    }
    let cheap = IngestCnn::generic(ModelSpec::cheap_cnn_1());
    let gt = GroundTruthCnn::resnet152();

    out.insert("video.generate_s", generate_secs(datasets));
    let parts = pipeline(frames, dataset, cheap.classifier.as_ref(), tracer, out);
    cnn(&objects, cheap.classifier.as_ref(), &gt, tracer, out);
    cluster(&objects, cheap.classifier.as_ref(), video_secs, tracer, out);
    let class = gt.classify_top1(objects[0]);
    store(&parts, class, &scratch.dir("probe_store"), tracer, out)?;
    anytime(
        dataset,
        frames,
        class,
        &scratch.dir("probe_service"),
        tracer,
        out,
    )
}

/// Median per-item microseconds of the `name` spans, each of which covered
/// exactly `CHUNK` items.
fn per_item_us(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_ms(name)) * 1e3 / CHUNK as f64
}

fn pipeline(
    frames: &[Frame],
    dataset: &VideoDataset,
    classifier: &dyn Classifier,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Vec<TopKIndex> {
    let params = IngestParams {
        k: 4,
        ..IngestParams::default()
    };
    let mut pipeline = FramePipeline::new(dataset.profile.stream_id, dataset.profile.fps, params);
    let mut parts = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let span = tracer.begin("pipeline.push_frame", i as u64);
        pipeline.push_frame(frame, classifier);
        tracer.end(span);
        if (i + 1) % PEEK_EVERY_FRAMES == 0 {
            let span = tracer.begin("pipeline.peek_segment", i as u64);
            std::hint::black_box(pipeline.peek_segment().0.len());
            tracer.end(span);
        }
        if (i + 1) % SEAL_EVERY_FRAMES == 0 || i + 1 == frames.len() {
            let span = tracer.begin("pipeline.seal_segment", i as u64);
            let part = pipeline.seal_segment();
            tracer.end(span);
            parts.push(part);
        }
    }
    let stats = pipeline.stats();
    let push_us: Vec<f64> = tracer
        .durations_ms("pipeline.push_frame")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    out.insert("pipeline.push_frame_us_p50", median(&push_us));
    out.insert(
        "pipeline.peek_segment_ms_p50",
        median(&tracer.durations_ms("pipeline.peek_segment")),
    );
    out.insert(
        "pipeline.seal_segment_ms_p50",
        median(&tracer.durations_ms("pipeline.seal_segment")),
    );
    out.insert(
        "pipeline.frames_skipped_fraction",
        1.0 - ratio(stats.frames_with_motion as f64, stats.frames as f64),
    );
    out.insert(
        "pipeline.cheap_inferences_per_frame",
        ratio(stats.objects_classified as f64, stats.frames as f64),
    );
    parts
}

fn cnn(
    objects: &[&ObjectObservation],
    cheap: &dyn Classifier,
    gt: &GroundTruthCnn,
    tracer: &mut Tracer,
    out: &mut Values,
) {
    for (i, chunk) in objects.chunks_exact(CHUNK).enumerate() {
        let span = tracer.begin("cnn.cheap_classify", i as u64);
        for object in chunk {
            std::hint::black_box(cheap.classify_top_k(object, 4));
        }
        tracer.end(span);
    }
    out.insert(
        "cnn.cheap_classify_us_p50",
        per_item_us(tracer, "cnn.cheap_classify"),
    );

    let owned: Vec<ObjectObservation> = objects.iter().map(|o| (*o).clone()).collect();
    for (i, batch) in owned.chunks_exact(CHUNK).enumerate() {
        let span = tracer.begin("cnn.gt_classify_batch", i as u64);
        std::hint::black_box(gt.classify_batch(batch));
        tracer.end(span);
    }
    out.insert(
        "cnn.gt_classify_batch_us_per_item",
        per_item_us(tracer, "cnn.gt_classify_batch"),
    );

    let sample: Vec<(ObjectObservation, ClassId)> = owned
        .iter()
        .take(2000)
        .map(|o| (o.clone(), gt.classify_top1(o)))
        .collect();
    let span = tracer.begin("cnn.specialize_train", 0);
    std::hint::black_box(SpecializedCnn::train(
        "probe",
        SpecializationLevel::Medium,
        &sample,
        20,
    ));
    tracer.end(span);
    out.insert(
        "cnn.specialize_train_ms",
        median(&tracer.durations_ms("cnn.specialize_train")),
    );
}

fn cluster(
    objects: &[&ObjectObservation],
    cheap: &dyn Classifier,
    video_secs: f64,
    tracer: &mut Tracer,
    out: &mut Values,
) {
    let params = IngestParams::default();
    let features: Vec<Vec<f32>> = objects
        .iter()
        .map(|o| cheap.extract_features(o).0)
        .collect();
    let mut clusterer =
        IncrementalClusterer::new(params.cluster_threshold, params.max_active_clusters);
    for (i, chunk) in features.chunks_exact(CHUNK).enumerate() {
        let span = tracer.begin("cluster.assign", i as u64);
        for (j, vector) in chunk.iter().enumerate() {
            let object = objects[i * CHUNK + j];
            clusterer.add(object.object_id.0, object.frame_id.0, vector);
        }
        tracer.end(span);
    }
    let (_clusters, stats) = clusterer.finish();
    out.insert(
        "cluster.assign_us_p50",
        per_item_us(tracer, "cluster.assign"),
    );
    out.insert("cluster.objects_per_cluster", stats.mean_cluster_size);
    out.insert(
        "cluster.clusters_per_video_s",
        ratio(stats.clusters as f64, video_secs),
    );
}

/// Names and sizes of the segment files in `dir`.
fn segment_files(dir: &Path) -> BTreeSet<(String, u64)> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            let len = entry.metadata().ok()?.len();
            name.starts_with("seg").then_some((name, len))
        })
        .collect()
}

fn store(
    parts: &[TopKIndex],
    class: ClassId,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<(), String> {
    let mut store = SegmentStore::create(dir)
        .map_err(|e| format!("probe store: {e}"))?
        .with_seal_format(SegmentFormat::Binary);
    for (i, part) in parts.iter().enumerate() {
        let span = tracer.begin("index.seal", i as u64);
        let sealed = store.seal(part);
        tracer.end(span);
        sealed.map_err(|e| format!("probe seal: {e}"))?;
    }
    let sealed = segment_files(dir);
    drop(store);

    let span = tracer.begin("index.open", 0);
    let opened = SegmentStore::open(dir);
    tracer.end(span);
    let (store, _report) = opened.map_err(|e| format!("probe open: {e}"))?;
    let mut store = store.with_seal_format(SegmentFormat::Binary);

    // Cold, then warm, over the whole store and over each tenth of it.
    let span_secs = 10.0 * parts.len() as f64;
    for round in 0..2 {
        for k in 0..=10u64 {
            let filter = match k {
                0 => QueryFilter::any(),
                k => QueryFilter::any().with_time_range(
                    (k - 1) as f64 * span_secs / 10.0,
                    k as f64 * span_secs / 10.0,
                ),
            };
            let span = tracer.begin("index.lookup", round * 11 + k);
            let found = store.lookup_grouped(class, &filter);
            tracer.end(span);
            found.map_err(|e| format!("probe lookup: {e}"))?;
        }
    }

    let span = tracer.begin("index.compact", 0);
    let folded = store.compact(256);
    tracer.end(span);
    folded.map_err(|e| format!("probe compact: {e}"))?;
    let live = segment_files(dir);
    let bytes = |files: &BTreeSet<(String, u64)>| files.iter().map(|(_, len)| len).sum::<u64>();
    let rewritten: BTreeSet<(String, u64)> = live.difference(&sealed).cloned().collect();

    out.insert(
        "index.seal_ms_p50",
        median(&tracer.durations_ms("index.seal")),
    );
    out.insert(
        "index.lookup_ms_p50",
        median(&tracer.durations_ms("index.lookup")),
    );
    out.insert("index.open_s", tracer.total_secs("index.open"));
    out.insert("index.compact_s", tracer.total_secs("index.compact"));
    out.insert(
        "index.bytes_written_per_live_byte",
        ratio(
            (bytes(&sealed) + bytes(&rewritten)) as f64,
            bytes(&live) as f64,
        ),
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

fn anytime(
    dataset: &VideoDataset,
    frames: &[Frame],
    class: ClassId,
    dir: &Path,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<(), String> {
    let streams = [(dataset.profile.stream_id, dataset.profile.fps)];
    let mut service = create_service(dir, service_config(10.0, false), &streams)?;
    service
        .advance(frames)
        .map_err(|e| format!("probe ingest: {e}"))?;
    let request = QueryRequest::new(class).with_anytime(AnytimeMode::incremental(8));
    let span = tracer.begin("query.serve_anytime", 0);
    let served = service.serve_anytime(&request);
    tracer.end(span);
    let served = served.map_err(|e| format!("probe serve_anytime: {e}"))?;
    let mut spent = 0;
    for partial in &served.partials {
        spent += partial.inferences_spent;
        if !partial.new_results.is_empty() {
            break;
        }
    }
    out.insert("query.anytime_inferences_to_first_result", spent as f64);
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
