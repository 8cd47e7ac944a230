//! The brute-force reference every answer is checked against.
//!
//! Truth comes from running the ground-truth CNN over every raw observation
//! of each camera ([`GroundTruthLabels`], the paper's one-second / 50%
//! rule) — never from the index under test. Every quality query with enough
//! truth is scored on its own and the worst one must clear the floors. On
//! top of that the oracle keeps a digest of every answered request (so two
//! code paths fed the same inputs can be proven to answer identically) and
//! the tally of attempted and failed operations that becomes the run's exit
//! status.

use std::collections::{BTreeSet, HashMap};

use focus_cnn::GroundTruthCnn;
use focus_core::{GroundTruthLabels, QueryOutcome};
use focus_video::{ClassId, FrameId, VideoDataset};

use crate::inputs::Window;

/// Classes scored per camera: its most frequent according to the GT-CNN.
pub const QUALITY_CLASSES: usize = 4;

/// Stream seconds at the start of every camera that the generic bootstrap
/// model indexes (`StreamWorkerConfig::bootstrap_secs`). Its recall at K = 4
/// is far below a specialized model's, so these seconds are scored apart
/// from the rest, pooled over a run's quality queries, against a floor of
/// their own ([`Floors::bootstrap_recall`]).
pub const BOOTSTRAP_SECS: u64 = 60;

/// A quality query with fewer truth seconds than this (past the bootstrap
/// minute) is answered and digested but not scored: below it one missed
/// second moves recall by more than the distance between a good answer and
/// the floor.
pub const MIN_TRUTH_SECS: usize = 60;

/// What a run's answers must reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floors {
    /// Recall of the worst scored quality query.
    pub recall: f64,
    /// Precision of the worst scored quality query.
    pub precision: f64,
    /// Recall over the bootstrap minutes of all quality queries together.
    pub bootstrap_recall: f64,
}

/// One quality query's score, split at the end of the bootstrap minute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    pub bootstrap: Hits,
    pub steady: Hits,
}

/// One-second segments of an answer: how many truly hold the class, how
/// many were returned, how many of both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hits {
    pub truth: usize,
    pub retrieved: usize,
    pub correct: usize,
}

impl Hits {
    pub fn recall(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.correct as f64 / self.truth as f64
        }
    }

    pub fn precision(&self) -> f64 {
        if self.retrieved == 0 {
            1.0
        } else {
            self.correct as f64 / self.retrieved as f64
        }
    }

    fn add(&mut self, other: Hits) {
        self.truth += other.truth;
        self.retrieved += other.retrieved;
        self.correct += other.correct;
    }
}

struct CameraTruth {
    labels: GroundTruthLabels,
    classes: Vec<ClassId>,
    /// One-second segments where each quality class is present.
    truth: HashMap<ClassId, BTreeSet<u64>>,
}

/// Ground truth of every camera of a run.
pub struct Oracle {
    cameras: Vec<CameraTruth>,
}

impl Oracle {
    /// Labels every observation of every recording with the GT-CNN.
    pub fn new(datasets: &[VideoDataset]) -> Self {
        let gt = GroundTruthCnn::resnet152();
        let cameras = datasets
            .iter()
            .map(|dataset| {
                let labels = GroundTruthLabels::compute(dataset, &gt);
                let classes = labels.dominant_classes(QUALITY_CLASSES);
                let truth = classes
                    .iter()
                    .map(|c| (*c, labels.truth_segments(*c).into_iter().collect()))
                    .collect();
                CameraTruth {
                    labels,
                    classes,
                    truth,
                }
            })
            .collect();
        Self { cameras }
    }

    /// The classes quality queries ask camera `cam` about, most frequent
    /// first.
    pub fn classes(&self, cam: usize) -> &[ClassId] {
        &self.cameras[cam].classes
    }

    /// Scores the frames returned for `class` on camera `cam`. With a
    /// window, truth and answer are both cut to the window's seconds, so a
    /// cluster straddling the edge is neither rewarded nor punished for its
    /// frames outside.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not one of the camera's quality classes.
    pub fn score(
        &self,
        cam: usize,
        class: ClassId,
        window: Option<Window>,
        frames: &[FrameId],
    ) -> Score {
        let camera = &self.cameras[cam];
        let inside = |second: &u64| window.is_none_or(|w| w.contains(*second));
        let truth: BTreeSet<u64> = camera.truth[&class]
            .iter()
            .copied()
            .filter(|s| inside(s))
            .collect();
        let retrieved: BTreeSet<u64> = camera
            .labels
            .retrieved_segments(frames)
            .into_iter()
            .filter(|s| inside(s))
            .collect();
        let hits = |part: &dyn Fn(&&u64) -> bool| Hits {
            truth: truth.iter().filter(part).count(),
            retrieved: retrieved.iter().filter(part).count(),
            correct: retrieved.intersection(&truth).filter(part).count(),
        };
        Score {
            bootstrap: hits(&|s| **s < BOOTSTRAP_SECS),
            steady: hits(&|s| **s >= BOOTSTRAP_SECS),
        }
    }
}

/// FNV-style digest (one multiply per 64-bit word) over `(request index,
/// frames, objects)` of every answered request, in the order answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    /// Folds one answer in.
    pub fn answer(&mut self, index: usize, outcome: &QueryOutcome) {
        self.word(index as u64);
        self.word(outcome.frames.len() as u64);
        for frame in &outcome.frames {
            self.word(frame.0);
        }
        self.word(outcome.objects.len() as u64);
        for object in &outcome.objects {
            self.word(object.0);
        }
    }
}

/// What one lap (or one reference pass) attempted, failed and answered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted: ingest ticks, recoveries and requests.
    pub attempted: usize,
    /// Operations that returned an error, were shed or expired.
    pub failed: usize,
    pub digest: Digest,
    /// The score of every quality query with at least [`MIN_TRUTH_SECS`]
    /// seconds of truth past the bootstrap minute.
    scores: Vec<Hits>,
    /// The bootstrap minutes of all quality queries, pooled.
    pub bootstrap: Hits,
}

impl Tally {
    /// Counts one operation, failed when `ok` is false.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    /// Counts one answered request and folds it into the digest.
    pub fn answered(&mut self, index: usize, outcome: &QueryOutcome) {
        self.operation(true);
        self.digest.answer(index, outcome);
    }

    /// Takes in the score of one quality query.
    pub fn scored(&mut self, score: Score) {
        self.bootstrap.add(score.bootstrap);
        if score.steady.truth >= MIN_TRUTH_SECS {
            self.scores.push(score.steady);
        }
    }

    /// Quality queries scored on their own.
    pub fn scored_queries(&self) -> usize {
        self.scores.len()
    }

    /// Recall of the worst scored query (1.0 when nothing was scored).
    pub fn recall_min(&self) -> f64 {
        self.scores.iter().map(Hits::recall).fold(1.0, f64::min)
    }

    /// Precision of the worst scored query (1.0 when nothing was scored).
    pub fn precision_min(&self) -> f64 {
        self.scores.iter().map(Hits::precision).fold(1.0, f64::min)
    }
}

/// The run's verdict: `correct` only when nothing failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub recall_min: f64,
    pub precision_min: f64,
    /// Why operations were counted as failed, for the human-readable output.
    pub reasons: Vec<String>,
}

/// Judges a run. Every lap must have answered exactly what `reference`
/// answered (another code path fed the same inputs, or lap 0 itself), and
/// the worst quality query of every lap must clear the floors. Each error,
/// shed, digest mismatch and floor miss is one failed operation.
pub fn judge(laps: &[Tally], reference: Digest, floors: Floors) -> Verdict {
    let mut verdict = Verdict {
        correct: false,
        attempted: 0,
        failed: 0,
        recall_min: 1.0,
        precision_min: 1.0,
        reasons: Vec::new(),
    };
    for (i, lap) in laps.iter().enumerate() {
        verdict.attempted += lap.attempted;
        verdict.failed += lap.failed;
        if lap.failed > 0 {
            verdict
                .reasons
                .push(format!("lap {i}: {} operations failed", lap.failed));
        }
        if lap.digest != reference {
            verdict.failed += 1;
            verdict
                .reasons
                .push(format!("lap {i}: answers differ from the reference"));
        }
        let (recall, precision) = (lap.recall_min(), lap.precision_min());
        if recall < floors.recall {
            verdict.failed += 1;
            verdict.reasons.push(format!(
                "lap {i}: recall {recall:.4} below the floor {:.4}",
                floors.recall
            ));
        }
        if precision < floors.precision {
            verdict.failed += 1;
            verdict.reasons.push(format!(
                "lap {i}: precision {precision:.4} below the floor {:.4}",
                floors.precision
            ));
        }
        let bootstrap = lap.bootstrap.recall();
        if bootstrap < floors.bootstrap_recall {
            verdict.failed += 1;
            verdict.reasons.push(format!(
                "lap {i}: bootstrap-minute recall {bootstrap:.4} below the floor {:.4}",
                floors.bootstrap_recall
            ));
        }
        verdict.recall_min = verdict.recall_min.min(recall);
        verdict.precision_min = verdict.precision_min.min(precision);
    }
    verdict.correct = verdict.failed == 0 && verdict.attempted > 0;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_cnn::GpuCost;
    use focus_video::profile::profile_by_name;
    use focus_video::ObjectId;

    const SECS: u64 = 240;
    const FLOORS: Floors = Floors {
        recall: 0.95,
        precision: 0.95,
        bootstrap_recall: 0.4,
    };

    fn camera() -> (VideoDataset, Oracle) {
        let dataset = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), SECS as f64);
        let oracle = Oracle::new(std::slice::from_ref(&dataset));
        (dataset, oracle)
    }

    fn outcome(class: ClassId, frames: Vec<FrameId>) -> QueryOutcome {
        QueryOutcome {
            class,
            objects: frames.iter().map(|f| ObjectId(f.0)).collect(),
            frames,
            matched_clusters: 0,
            confirmed_clusters: 0,
            centroid_inferences: 0,
            gpu_cost: GpuCost::ZERO,
            latency_secs: 0.0,
        }
    }

    /// The tally of one request answered with `frames`.
    fn answer(oracle: &Oracle, class: ClassId, frames: Vec<FrameId>) -> Tally {
        let mut tally = Tally::default();
        let outcome = outcome(class, frames);
        tally.answered(0, &outcome);
        tally.scored(oracle.score(0, class, None, &outcome.frames));
        tally
    }

    /// The gate must be able to fail: an answer with one result segment
    /// dropped and one spurious segment of frames added is not correct.
    #[test]
    fn a_tampered_answer_is_not_correct() {
        let (dataset, oracle) = camera();
        let class = oracle.classes(0)[0];
        let fps = dataset.profile.fps as u64;
        let truth: Vec<u64> = oracle.cameras[0].truth[&class].iter().copied().collect();
        let steady: Vec<u64> = truth
            .iter()
            .copied()
            .filter(|s| *s >= BOOTSTRAP_SECS)
            .collect();
        assert!(
            steady.len() >= MIN_TRUTH_SECS,
            "the dominant class is present"
        );
        let spurious = (BOOTSTRAP_SECS..SECS)
            .find(|s| !truth.contains(s))
            .expect("and absent from at least one second");

        // The brute-force answer: every frame of every truth second.
        let second = |s: u64| (s * fps..(s + 1) * fps).map(FrameId);
        let perfect: Vec<FrameId> = truth.iter().flat_map(|s| second(*s)).collect();
        let honest = answer(&oracle, class, perfect.clone());
        let reference = honest.digest;
        assert_eq!(honest.scored_queries(), 1);
        let verdict = judge(&[honest], reference, FLOORS);
        assert!(verdict.correct, "{:?}", verdict.reasons);
        assert_eq!((verdict.recall_min, verdict.precision_min), (1.0, 1.0));

        // Drop one truth second; add a second where the class is absent.
        let mut frames: Vec<FrameId> = perfect
            .iter()
            .copied()
            .filter(|f| f.0 / fps != steady[0])
            .collect();
        frames.extend(second(spurious));
        let tampered = answer(&oracle, class, frames);
        let n = steady.len() as f64;
        assert_eq!(tampered.recall_min(), (n - 1.0) / n);
        assert_eq!(tampered.precision_min(), (n - 1.0) / n);
        let verdict = judge(&[tampered], reference, FLOORS);
        assert!(!verdict.correct);
        assert!(verdict
            .reasons
            .iter()
            .any(|r| r.contains("differ from the reference")));
        // With few enough truth seconds the floors see it too.
        assert_eq!(verdict.reasons.len() == 3, (n - 1.0) / n < FLOORS.recall);

        // A single spurious frame moves no second past the 50% rule, but the
        // digest still sees it.
        let mut one_frame = perfect.clone();
        one_frame.push(FrameId(spurious * fps));
        let subtle = answer(&oracle, class, one_frame);
        assert_eq!(subtle.precision_min(), 1.0);
        assert!(!judge(&[subtle], reference, FLOORS).correct);

        // Nothing returned for the bootstrap minute: its own floor fails.
        let late: Vec<FrameId> = steady.iter().flat_map(|s| second(*s)).collect();
        let tally = answer(&oracle, class, late);
        assert_eq!(tally.recall_min(), 1.0);
        assert_eq!(tally.bootstrap.recall(), 0.0);
        let verdict = judge(std::slice::from_ref(&tally), tally.digest, FLOORS);
        assert!(verdict.reasons.iter().any(|r| r.contains("bootstrap")));
    }

    #[test]
    fn a_window_cuts_truth_and_answer_alike() {
        let (dataset, oracle) = camera();
        let class = oracle.classes(0)[0];
        let fps = dataset.profile.fps as u64;
        let truth = &oracle.cameras[0].truth[&class];
        // Everything the class truly occupies, inside and outside the window.
        let all: Vec<FrameId> = truth
            .iter()
            .flat_map(|s| (s * fps..(s + 1) * fps).map(FrameId))
            .collect();
        let window = Window::new(80, 40);
        let inside = truth.iter().filter(|s| window.contains(**s)).count();
        let exact = Hits {
            truth: inside,
            retrieved: inside,
            correct: inside,
        };
        let score = oracle.score(0, class, Some(window), &all);
        assert_eq!((score.steady, score.bootstrap), (exact, Hits::default()));
        // Nothing returned: all of the window's truth is missed.
        let missed = oracle.score(0, class, Some(window), &[]).steady;
        assert_eq!((missed.truth, missed.retrieved), (inside, 0));
        assert_eq!(missed.recall() == 1.0, inside == 0);
        // A window inside the bootstrap minute scores into that part only.
        let early = oracle.score(0, class, Some(Window::new(0, BOOTSTRAP_SECS)), &all);
        assert_eq!(early.steady, Hits::default());
        assert_eq!(early.bootstrap.truth, early.bootstrap.correct);
        assert!(early.bootstrap.truth > 0);
    }

    #[test]
    fn every_query_with_enough_truth_counts_on_its_own() {
        let hits = |truth, correct| Score {
            steady: Hits {
                truth,
                retrieved: correct,
                correct,
            },
            bootstrap: Hits {
                truth: 10,
                retrieved: 5,
                correct: 5,
            },
        };
        let mut tally = Tally::default();
        tally.scored(hits(200, 200));
        tally.scored(hits(100, 90));
        // Too little truth to score: it cannot drag the minimum to 0.5.
        tally.scored(hits(MIN_TRUTH_SECS - 1, MIN_TRUTH_SECS / 2));
        assert_eq!(tally.scored_queries(), 2);
        // The worst query, not the average of the two (290 of 300).
        assert_eq!(tally.recall_min(), 0.9);
        assert_eq!(tally.precision_min(), 1.0);
        // The bootstrap minutes of all three are pooled.
        assert_eq!(tally.bootstrap.truth, 30);
        assert_eq!(tally.bootstrap.recall(), 0.5);
    }

    #[test]
    fn errors_sheds_and_floor_misses_are_failed_operations() {
        let mut lap = Tally::default();
        lap.operation(true);
        lap.operation(false);
        lap.scored(Score {
            steady: Hits {
                truth: 100,
                retrieved: 90,
                correct: 90,
            },
            bootstrap: Hits::default(),
        });
        let verdict = judge(std::slice::from_ref(&lap), lap.digest, FLOORS);
        assert_eq!((verdict.attempted, verdict.failed), (2, 2));
        assert!(!verdict.correct);
        assert!(!judge(&[], Digest::default(), FLOORS).correct);
    }
}
