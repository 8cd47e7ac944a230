//! Synthetic video stream generation.
//!
//! [`StreamGenerator`] turns a [`StreamProfile`] into an infinite sequence of
//! [`Frame`]s. The generator models:
//!
//! * **Busy/quiet alternation** — a two-state Markov process whose
//!   stationary distribution matches the profile's empty-frame fraction
//!   (§2.2.1 of the paper: one-third to one-half of frames have no moving
//!   objects).
//! * **Object tracks** — each physical object (a car crossing the
//!   intersection, a pedestrian walking a plaza) appears for an
//!   exponentially distributed dwell time and produces one
//!   [`ObjectObservation`] per frame while visible, with slowly drifting
//!   appearance (§2.2.3: consecutive observations are near-duplicates).
//! * **Skewed class mix** — track classes are drawn from a per-stream Zipf
//!   distribution over a per-stream class palette, with domain-typical
//!   classes at the head of the palette (§2.2.2: a handful of classes
//!   dominate, and streams of the same domain share their dominant classes).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::class::{ClassId, ClassRegistry, NUM_CLASSES};
use crate::profile::{StreamDomain, StreamProfile};
use crate::types::{Appearance, BoundingBox, Frame, FrameId, ObjectId, ObjectObservation, TrackId};

/// Width of the synthetic camera frame, in pixels.
pub const FRAME_WIDTH: f32 = 1280.0;
/// Height of the synthetic camera frame, in pixels.
pub const FRAME_HEIGHT: f32 = 720.0;

/// Appearance drift accumulated per frame by a moving object. Chosen so an
/// object's appearance changes noticeably over a few seconds but barely
/// between adjacent frames.
const DRIFT_PER_FRAME: f32 = 0.02;

/// Granularity of the pixel signature: drifts within the same bucket produce
/// identical pixel signatures, which is what lets pixel differencing skip
/// the cheap CNN for near-identical consecutive observations (§4.2).
const PIXEL_SIGNATURE_BUCKET: f32 = 0.035;

/// Average length of a quiet (no moving objects) period, in seconds.
const MEAN_QUIET_PERIOD_SECS: f64 = 20.0;

/// Bit position of the stream id within an [`ObjectId`]: ids are allocated
/// as `stream_id << 40 | per_stream_counter`, making them globally unique
/// across cameras (up to 2^40 objects per stream) so cross-stream maps can
/// key on the object id alone.
const OBJECT_ID_STREAM_SHIFT: u32 = 40;

fn hash2(a: u64, b: u64) -> u64 {
    let mut h = DefaultHasher::new();
    a.hash(&mut h);
    b.hash(&mut h);
    h.finish()
}

/// Classes that are typical for each domain and therefore occupy the head of
/// the Zipf palette (the dominant classes) for streams of that domain.
fn domain_typical_classes(domain: StreamDomain, registry: &ClassRegistry) -> Vec<ClassId> {
    let names: &[&str] = match domain {
        StreamDomain::Traffic => &[
            "car",
            "person",
            "truck",
            "bus",
            "bicycle",
            "van",
            "motorcycle",
            "taxi",
            "traffic_light",
            "police_car",
            "stop_sign",
            "ambulance",
        ],
        StreamDomain::Surveillance => &[
            "person",
            "handbag",
            "backpack",
            "bicycle",
            "dog",
            "stroller",
            "shopping_bag",
            "umbrella",
            "car",
            "bench",
            "suitcase",
            "scooter",
        ],
        StreamDomain::News => &[
            "news_anchor",
            "person",
            "microphone",
            "tv_screen",
            "suit",
            "tie",
            "caption_banner",
            "chart_graphic",
            "flag",
            "podium",
            "studio_desk",
            "car",
        ],
    };
    names
        .iter()
        .filter_map(|n| registry.find(n))
        .collect::<Vec<_>>()
}

/// The per-stream class palette: which classes occur in the stream and in
/// which frequency rank order.
#[derive(Debug, Clone)]
pub struct ClassPalette {
    /// Classes present in the stream, from most to least frequent.
    pub classes: Vec<ClassId>,
    /// Zipf weights aligned with `classes`, normalized to sum to 1.
    pub weights: Vec<f64>,
    cumulative: Vec<f64>,
}

impl ClassPalette {
    /// Builds the palette for a profile: domain-typical classes first (these
    /// become the dominant classes), then a deterministic pseudo-random
    /// selection of additional classes up to `distinct_classes`.
    pub fn for_profile(profile: &StreamProfile) -> Self {
        let registry = ClassRegistry::new();
        let mut rng = StdRng::seed_from_u64(profile.seed ^ 0x0C1A_55E5);
        let mut classes = domain_typical_classes(profile.domain, &registry);
        // Perturb the head mildly (adjacent swaps only) so dominant-class
        // order differs between streams of the same domain while the
        // universally shared classes (person, car, ...) stay near the top.
        // This gives the moderate-but-not-identical class overlap between
        // streams the paper observes (average Jaccard index ≈ 0.46).
        for i in (1..classes.len()).step_by(2) {
            if rng.gen::<f64>() < 0.5 {
                classes.swap(i - 1, i);
            }
        }
        classes.truncate(profile.distinct_classes);
        let mut present: std::collections::HashSet<ClassId> = classes.iter().copied().collect();
        while classes.len() < profile.distinct_classes {
            let c = ClassId(rng.gen_range(0..NUM_CLASSES));
            if present.insert(c) {
                classes.push(c);
            }
        }
        let mut weights: Vec<f64> = (0..classes.len())
            .map(|rank| 1.0 / ((rank + 1) as f64).powf(profile.zipf_exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self {
            classes,
            weights,
            cumulative,
        }
    }

    /// Draws a class according to the Zipf weights.
    pub fn sample(&self, rng: &mut impl Rng) -> ClassId {
        let u: f64 = rng.gen();
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).unwrap())
        {
            Ok(i) => i,
            Err(i) => i,
        };
        self.classes[idx.min(self.classes.len() - 1)]
    }

    /// The `n` most frequent classes of the palette.
    pub fn dominant(&self, n: usize) -> Vec<ClassId> {
        self.classes.iter().take(n).copied().collect()
    }

    /// Smallest number of classes whose combined weight reaches `fraction`
    /// of all objects (e.g. how many classes cover 95% of objects).
    pub fn classes_covering(&self, fraction: f64) -> usize {
        let mut acc = 0.0;
        for (i, w) in self.weights.iter().enumerate() {
            acc += w;
            if acc >= fraction {
                return i + 1;
            }
        }
        self.classes.len()
    }
}

/// An active object track inside the generator.
#[derive(Debug, Clone)]
struct ActiveTrack {
    track_id: TrackId,
    class: ClassId,
    track_signature: u64,
    frames_remaining: u64,
    drift: f32,
    x: f32,
    y: f32,
    vx: f32,
    vy: f32,
    width: f32,
    height: f32,
}

/// Deterministic generator of synthetic frames for one stream.
#[derive(Debug, Clone)]
pub struct StreamGenerator {
    profile: StreamProfile,
    palette: ClassPalette,
    rng: StdRng,
    next_frame: u64,
    next_track: u64,
    next_object: u64,
    busy: bool,
    active: Vec<ActiveTrack>,
}

impl StreamGenerator {
    /// Creates a generator for `profile`, seeded deterministically from the
    /// profile's seed.
    pub fn new(profile: StreamProfile) -> Self {
        let palette = ClassPalette::for_profile(&profile);
        let rng = StdRng::seed_from_u64(profile.seed);
        // Namespace object ids by stream (stream id in the high bits) so
        // observations from different cameras never collide in cross-stream
        // maps (merged centroid sets, combined indexes).
        let first_object = (profile.stream_id.0 as u64) << OBJECT_ID_STREAM_SHIFT;
        Self {
            profile,
            palette,
            rng,
            next_frame: 0,
            next_track: 0,
            next_object: first_object,
            busy: true,
            active: Vec::new(),
        }
    }

    /// The class palette used by this generator.
    pub fn palette(&self) -> &ClassPalette {
        &self.palette
    }

    /// The profile this generator was built from.
    pub fn profile(&self) -> &StreamProfile {
        &self.profile
    }

    fn exp_sample(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * mean
    }

    fn poisson_sample(&mut self, lambda: f64) -> u64 {
        // Knuth's algorithm; lambda is small (< ~1) in this workload.
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 1000 {
                return k;
            }
        }
    }

    fn step_busy_state(&mut self) {
        let fps = self.profile.fps as f64;
        let quiet_frames = (MEAN_QUIET_PERIOD_SECS * fps).max(1.0);
        let f = self.profile.empty_frame_fraction.clamp(0.01, 0.95);
        // Stationary quiet fraction = quiet_len / (quiet_len + busy_len).
        let busy_frames = (quiet_frames * (1.0 - f) / f).max(1.0);
        if self.busy {
            if self.rng.gen::<f64>() < 1.0 / busy_frames {
                self.busy = false;
            }
        } else if self.rng.gen::<f64>() < 1.0 / quiet_frames {
            self.busy = true;
        }
    }

    fn spawn_tracks(&mut self) {
        if !self.busy {
            return;
        }
        let dwell = self.profile.mean_dwell_frames();
        let lambda = self.profile.mean_objects_per_busy_frame / dwell;
        let n = self.poisson_sample(lambda);
        for _ in 0..n {
            let class = self.palette.sample(&mut self.rng);
            let duration = self.exp_sample(dwell).max(1.0) as u64;
            let track_id = TrackId(self.next_track);
            self.next_track += 1;
            let width = self.rng.gen_range(40.0..220.0);
            let height = self.rng.gen_range(40.0..220.0);
            let track = ActiveTrack {
                track_id,
                class,
                track_signature: hash2(self.profile.seed, track_id.0 ^ 0xBEEF),
                frames_remaining: duration,
                drift: 0.0,
                x: self.rng.gen_range(0.0..FRAME_WIDTH - width),
                y: self.rng.gen_range(0.0..FRAME_HEIGHT - height),
                vx: self.rng.gen_range(-4.0..4.0),
                vy: self.rng.gen_range(-2.0..2.0),
                width,
                height,
            };
            self.active.push(track);
        }
    }

    fn emit_frame(&mut self) -> Frame {
        let frame_id = FrameId(self.next_frame);
        self.next_frame += 1;
        let timestamp = frame_id.timestamp_secs(self.profile.fps);
        let mut objects = Vec::with_capacity(self.active.len());
        let stream_id = self.profile.stream_id;
        for track in &mut self.active {
            let object_id = ObjectId(self.next_object);
            self.next_object += 1;
            let bucket = (track.drift / PIXEL_SIGNATURE_BUCKET) as u32;
            let pixel_signature =
                (hash2(track.track_signature, bucket as u64) & 0xFFFF_FFFF) as u32;
            objects.push(ObjectObservation {
                object_id,
                track_id: track.track_id,
                frame_id,
                stream_id,
                true_class: track.class,
                bbox: BoundingBox {
                    x: track.x.clamp(0.0, FRAME_WIDTH - 1.0),
                    y: track.y.clamp(0.0, FRAME_HEIGHT - 1.0),
                    width: track.width,
                    height: track.height,
                },
                appearance: Appearance {
                    track_signature: track.track_signature,
                    class_signature: hash2(0xC1A5, track.class.0 as u64),
                    drift: track.drift,
                    pixel_signature,
                },
            });
            track.drift += DRIFT_PER_FRAME;
            track.x += track.vx;
            track.y += track.vy;
            track.frames_remaining = track.frames_remaining.saturating_sub(1);
        }
        self.active.retain(|t| t.frames_remaining > 0);
        Frame {
            frame_id,
            stream_id,
            timestamp_secs: timestamp,
            objects,
        }
    }

    /// Generates the next frame of the stream.
    pub fn next_frame(&mut self) -> Frame {
        self.step_busy_state();
        self.spawn_tracks();
        self.emit_frame()
    }
}

/// An iterator adapter over [`StreamGenerator`], producing an endless live
/// video stream.
#[derive(Debug, Clone)]
pub struct VideoStream {
    generator: StreamGenerator,
    remaining: Option<u64>,
}

impl VideoStream {
    /// An endless live stream for `profile`.
    pub fn live(profile: StreamProfile) -> Self {
        Self {
            generator: StreamGenerator::new(profile),
            remaining: None,
        }
    }

    /// A recording of fixed duration (in seconds) for `profile`.
    pub fn recording(profile: StreamProfile, duration_secs: f64) -> Self {
        let frames = profile.frames_for_duration(duration_secs);
        Self {
            generator: StreamGenerator::new(profile),
            remaining: Some(frames),
        }
    }

    /// The profile backing this stream.
    pub fn profile(&self) -> &StreamProfile {
        self.generator.profile()
    }

    /// The class palette backing this stream.
    pub fn palette(&self) -> &ClassPalette {
        self.generator.palette()
    }
}

impl Iterator for VideoStream {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        match self.remaining {
            Some(0) => None,
            Some(ref mut n) => {
                *n -= 1;
                Some(self.generator.next_frame())
            }
            None => Some(self.generator.next_frame()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{profile_by_name, table1_profiles};

    fn gen_minutes(name: &str, minutes: f64) -> Vec<Frame> {
        let profile = profile_by_name(name).unwrap();
        VideoStream::recording(profile, minutes * 60.0).collect()
    }

    #[test]
    fn recording_has_expected_frame_count() {
        let frames = gen_minutes("auburn_c", 1.0);
        assert_eq!(frames.len(), 1800);
        assert_eq!(frames[0].frame_id, FrameId(0));
        assert_eq!(frames[1799].frame_id, FrameId(1799));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen_minutes("auburn_c", 0.5);
        let b = gen_minutes("auburn_c", 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_differ() {
        let a = gen_minutes("auburn_c", 0.5);
        let b = gen_minutes("jacksonh", 0.5);
        let objs_a: usize = a.iter().map(|f| f.objects.len()).sum();
        let objs_b: usize = b.iter().map(|f| f.objects.len()).sum();
        assert_ne!((objs_a, a.len()), (objs_b, 0));
        assert_ne!(a.first().unwrap().stream_id, b.first().unwrap().stream_id);
    }

    #[test]
    fn empty_frame_fraction_is_roughly_respected() {
        for name in ["auburn_c", "auburn_r", "lausanne"] {
            let profile = profile_by_name(name).unwrap();
            let frames = gen_minutes(name, 20.0);
            let empty = frames.iter().filter(|f| !f.has_motion()).count() as f64;
            let fraction = empty / frames.len() as f64;
            let target = profile.empty_frame_fraction;
            assert!(
                (fraction - target).abs() < 0.18,
                "{name}: empty fraction {fraction:.2} vs target {target:.2}"
            );
        }
    }

    #[test]
    fn objects_belong_to_tracks_spanning_frames() {
        let frames = gen_minutes("auburn_c", 2.0);
        let mut per_track: std::collections::HashMap<TrackId, usize> =
            std::collections::HashMap::new();
        for f in &frames {
            for o in &f.objects {
                *per_track.entry(o.track_id).or_default() += 1;
            }
        }
        assert!(!per_track.is_empty());
        let avg = per_track.values().sum::<usize>() as f64 / per_track.len() as f64;
        // Mean dwell is 8 seconds at 30 fps = 240 frames; tracks truncated by
        // the recording end pull the average down, so just check objects
        // clearly persist across many frames.
        assert!(avg > 20.0, "average observations per track = {avg}");
    }

    #[test]
    fn consecutive_observations_share_pixel_signatures_sometimes() {
        let frames = gen_minutes("auburn_c", 2.0);
        let mut prev: std::collections::HashMap<TrackId, u32> = std::collections::HashMap::new();
        let mut same = 0usize;
        let mut total = 0usize;
        for f in &frames {
            for o in &f.objects {
                if let Some(sig) = prev.get(&o.track_id) {
                    total += 1;
                    if *sig == o.appearance.pixel_signature {
                        same += 1;
                    }
                }
                prev.insert(o.track_id, o.appearance.pixel_signature);
            }
        }
        assert!(total > 0);
        let ratio = same as f64 / total as f64;
        assert!(
            ratio > 0.3 && ratio < 0.95,
            "pixel-signature repeat ratio = {ratio}"
        );
    }

    #[test]
    fn object_ids_are_unique() {
        let frames = gen_minutes("cnn", 1.0);
        let mut ids = std::collections::HashSet::new();
        for f in &frames {
            for o in &f.objects {
                assert!(ids.insert(o.object_id), "duplicate object id");
            }
        }
    }

    #[test]
    fn object_ids_are_disjoint_across_streams() {
        // Cross-stream maps (merged centroid sets) key on the object id
        // alone, so ids must never collide between cameras.
        let mut ids = std::collections::HashSet::new();
        for name in ["auburn_c", "city_a_d", "cnn"] {
            for f in &gen_minutes(name, 1.0) {
                for o in &f.objects {
                    assert!(
                        ids.insert(o.object_id),
                        "object id {:?} appears in more than one stream",
                        o.object_id
                    );
                }
            }
        }
    }

    #[test]
    fn palette_respects_distinct_classes_and_weights() {
        for profile in table1_profiles() {
            let palette = ClassPalette::for_profile(&profile);
            assert_eq!(palette.classes.len(), profile.distinct_classes);
            let total: f64 = palette.weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            // Dominant classes cover the bulk of objects (power law, §2.2.2).
            let covering95 = palette.classes_covering(0.95);
            assert!(
                covering95 <= profile.distinct_classes / 2,
                "{}: {covering95} classes needed for 95%",
                profile.name
            );
        }
    }

    #[test]
    fn dominant_classes_are_domain_typical() {
        let registry = ClassRegistry::new();
        let traffic = ClassPalette::for_profile(&profile_by_name("auburn_c").unwrap());
        let dominant: Vec<&str> = traffic
            .dominant(5)
            .into_iter()
            .map(|c| registry.label(c))
            .collect::<Vec<_>>();
        let vehicleish = [
            "car",
            "truck",
            "bus",
            "person",
            "bicycle",
            "van",
            "taxi",
            "motorcycle",
            "traffic_light",
            "police_car",
            "stop_sign",
            "ambulance",
        ];
        for d in &dominant {
            assert!(vehicleish.contains(d), "unexpected dominant class {d}");
        }
    }

    #[test]
    fn palette_sampling_follows_rank_order() {
        let profile = profile_by_name("auburn_c").unwrap();
        let palette = ClassPalette::for_profile(&profile);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20000 {
            *counts.entry(palette.sample(&mut rng)).or_insert(0usize) += 1;
        }
        let head = counts.get(&palette.classes[0]).copied().unwrap_or(0);
        let tail = counts
            .get(&palette.classes[palette.classes.len() - 1])
            .copied()
            .unwrap_or(0);
        assert!(head > tail, "head {head} should outnumber tail {tail}");
    }

    #[test]
    fn live_stream_is_endless() {
        let profile = profile_by_name("bend").unwrap();
        let mut stream = VideoStream::live(profile);
        for _ in 0..100 {
            assert!(stream.next().is_some());
        }
    }
}
