//! The inputs: the four cameras' recordings, their drifted continuations,
//! ingest ticks and seed-determined query windows. The program under test
//! sees only the frames and requests generated here.
//!
//! `--seed` moves the query windows and nothing else. Re-seeding the
//! cameras' content was measured when the benchmark was defined: over 16
//! seeds the counts that are exact at one seed spread by 5-31% of their
//! median (index bytes, modelled GPU seconds, GT inferences per query),
//! wider than any bound a regression gate could use. The recordings are
//! therefore the built-in profiles' own, identical at every seed.

use focus_video::profile::{profile_by_name, StreamDomain};
use focus_video::{Frame, StreamId, VideoDataset};

/// The four cameras every workload records: two busy traffic
/// intersections, a pedestrian plaza and a news channel, so all three of
/// the paper's domains are present.
pub const CAMERAS: [&str; 4] = ["auburn_c", "lausanne", "jacksonh", "cnn"];

/// The domain each camera drifts *to* in `ingest_drift` — always a domain
/// other than its own, and not the same for all cameras.
const DRIFT_TO: [StreamDomain; 4] = [
    StreamDomain::News,
    StreamDomain::Traffic,
    StreamDomain::Surveillance,
    StreamDomain::Surveillance,
];

/// SplitMix64: decorrelates `--seed` from the small integers mixed into it.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Records `secs` seconds of each camera. With `drift_at`, each camera's
/// content switches to another domain's palette at that time (same stream
/// id, contiguous ids).
pub fn record(secs: f64, drift_at: Option<f64>) -> Vec<VideoDataset> {
    CAMERAS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let profile = profile_by_name(name).expect("built-in camera profile");
            match drift_at {
                None => VideoDataset::generate(profile, secs),
                Some(at) => {
                    let drifted = profile.drifted("drift", DRIFT_TO[i], 11 + i as u64);
                    VideoDataset::generate(profile, at)
                        .continue_with(&VideoDataset::generate(drifted, secs - at))
                }
            }
        })
        .collect()
}

/// Number of ingest ticks of `tick_secs` stream seconds the longest
/// recording spans.
pub fn tick_count(datasets: &[VideoDataset], tick_secs: f64) -> usize {
    datasets
        .iter()
        .map(|d| d.frames.len().div_ceil(frames_per_tick(d, tick_secs)))
        .max()
        .unwrap_or(0)
}

/// Tick `i`: every camera's frames of `[i, i+1) * tick_secs`, one slice per
/// camera that still has frames (per-stream order is the only order a
/// pipeline observes, so each slice goes to `advance` on its own).
pub fn tick(datasets: &[VideoDataset], tick_secs: f64, i: usize) -> Vec<&[Frame]> {
    datasets
        .iter()
        .filter_map(|d| {
            let per_tick = frames_per_tick(d, tick_secs);
            let from = (i * per_tick).min(d.frames.len());
            let to = ((i + 1) * per_tick).min(d.frames.len());
            (from < to).then(|| &d.frames[from..to])
        })
        .collect()
}

fn frames_per_tick(dataset: &VideoDataset, tick_secs: f64) -> usize {
    ((tick_secs * dataset.profile.fps as f64) as usize).max(1)
}

/// Stream ids and frame rates of the recordings, in camera order.
pub fn streams(datasets: &[VideoDataset]) -> Vec<(StreamId, u32)> {
    datasets
        .iter()
        .map(|d| (d.profile.stream_id, d.profile.fps))
        .collect()
}

/// Hours of video across all recordings.
pub fn video_hours(datasets: &[VideoDataset]) -> f64 {
    datasets.iter().map(|d| d.duration_secs).sum::<f64>() / 3600.0
}

/// A whole-second window `[from, to)` of stream time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub from: u64,
    pub to: u64,
}

impl Window {
    /// A window of `len` seconds starting at `from`.
    pub fn new(from: u64, len: u64) -> Self {
        Self {
            from,
            to: from + len,
        }
    }

    /// The inclusive `[from, to]` range a `QueryFilter` takes, stopping half
    /// a frame short of `to` so the frame at exactly `to` stays outside.
    pub fn filter_range(&self, fps: u32) -> (f64, f64) {
        (self.from as f64, self.to as f64 - 0.5 / fps.max(1) as f64)
    }

    pub fn contains(&self, second: u64) -> bool {
        (self.from..self.to).contains(&second)
    }
}

/// How far, at most, the seed moves a window: far enough that different
/// seeds ask about different seconds, near enough that they ask for the same
/// amount of work.
pub const JITTER_SECS: u64 = 60;

/// The `k`-th of `n` windows of `len` seconds spread evenly over
/// `[0, total)`, moved later by a seed-determined offset below
/// [`JITTER_SECS`].
pub fn spread_window(seed: u64, k: u64, n: u64, len: u64, total: u64) -> Window {
    let room = total.saturating_sub(len);
    let stride = room / n.max(1);
    let offset = mix(seed, 64 + k) % stride.clamp(1, JITTER_SECS);
    Window::new((k * stride + offset).min(room), len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recordings_repeat_exactly() {
        let a = record(20.0, None);
        let b = record(20.0, None);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.frames, y.frames);
        }
    }

    #[test]
    fn drifted_recordings_are_contiguous() {
        let datasets = record(40.0, Some(20.0));
        for dataset in &datasets {
            assert_eq!(dataset.frames.len(), 40 * 30);
            assert!(dataset
                .frames
                .windows(2)
                .all(|w| w[1].frame_id.0 == w[0].frame_id.0 + 1));
        }
    }

    #[test]
    fn ticks_cover_every_frame_once_in_stream_order() {
        let datasets = record(25.0, None);
        assert_eq!(tick_count(&datasets, 10.0), 3);
        let sizes: Vec<Vec<usize>> = (0..4)
            .map(|i| tick(&datasets, 10.0, i).iter().map(|s| s.len()).collect())
            .collect();
        assert_eq!(sizes, [vec![300; 4], vec![300; 4], vec![150; 4], vec![]]);
        let first = tick(&datasets, 10.0, 1)[2];
        assert_eq!(first[0].frame_id.0, 300);
        assert_eq!(first[0].stream_id, datasets[2].profile.stream_id);
    }

    #[test]
    fn spread_windows_stay_inside_the_recording() {
        for seed in 0..50 {
            for k in 0..12 {
                let w = spread_window(seed, k, 12, 600, 3600);
                assert!(w.to <= 3600 && w.to - w.from == 600);
            }
        }
        assert_ne!(
            spread_window(1, 3, 12, 600, 3600),
            spread_window(2, 3, 12, 600, 3600)
        );
    }
}
