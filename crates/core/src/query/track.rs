//! Track-level spatio-temporal predicates: the `TrackFilter` language and
//! its two evaluators.
//!
//! A [`TrackFilter`] restricts a class query to tracks whose *trajectory*
//! satisfies a conjunction of [`TrackPredicate`]s — "cars that entered from
//! the left edge", "anything that crossed from the driveway to the street",
//! "pedestrians that lingered near the door for ten seconds", "objects
//! moving faster than 120 px/s". Every predicate has two evaluations:
//!
//! - [`admits_sketch`](TrackPredicate::admits_sketch) — **conservative**,
//!   against the whole-life [`TrackSketch`] the ingest pipeline persisted
//!   (O(tracks) work, no raw frames touched). It may admit a track that
//!   does not exactly satisfy the predicate (a sketch grid cell is
//!   [`TRACK_CELL_PX`] pixels coarse, and a transit sketch cannot see
//!   visit *order*), but it never rejects one that does.
//! - [`admits_trace`](TrackPredicate::admits_trace) — **exact**, against
//!   the raw `(secs, x, y)` observation trace. This is the ground truth
//!   the recall harness replays and the semantics the query ultimately
//!   promises.
//!
//! The planner uses the conservative form to build a [`TrackScope`]: the
//! set of tracks whose sketches *reject* the filter. Candidate clusters
//! whose members all fall in rejected tracks are dropped **before**
//! ground-truth verification — strictly fewer GT inferences — and members
//! of rejected tracks are filtered out at assembly. Because sketch
//! rejection is conservative, recall against the exact evaluation is 1.0
//! by construction (`tests/track_queries.rs` pins this).
//!
//! # Predicate grammar
//!
//! | Constructor | Exact meaning (over the time-ordered trace) |
//! |---|---|
//! | [`TrackPredicate::enters`] | first observation lies in the region |
//! | [`TrackPredicate::exits`] | last observation lies in the region |
//! | [`TrackPredicate::visits`] | some observation lies in the region |
//! | [`TrackPredicate::transit`] | visits `from`, then (no earlier) visits `to` |
//! | [`TrackPredicate::dwells`] | stays inside the region for a contiguous run of at least `min_secs` |
//! | [`TrackPredicate::speed_above`] | some consecutive-observation pair moves at ≥ the threshold (px/s) |
//! | [`TrackPredicate::speed_below`] | some consecutive-observation pair moves at ≤ the threshold (px/s) |
//!
//! Predicates compose by conjunction inside a [`TrackFilter`] and the
//! filter composes with the existing class / stream / time / `Kx`
//! restrictions on [`QueryRequest`](crate::query::QueryRequest) — tracks
//! are an additional cut, never a replacement for class verification.
//!
//! # Examples
//!
//! ```
//! use focus_core::query::track::{Region, TrackFilter, TrackPredicate};
//!
//! // "entered in the left quarter of the frame, moving at 100 px/s+".
//! let left = Region::new(0.0, 0.0, 320.0, 720.0);
//! let filter = TrackFilter::new()
//!     .and(TrackPredicate::enters(left))
//!     .and(TrackPredicate::speed_above(100.0));
//!
//! // Exact evaluation over a raw (secs, x, y) trace.
//! let trace = [(0.0, 100.0, 300.0), (1.0, 400.0, 300.0)];
//! assert!(filter.admits_trace(&trace));
//! let slow = [(0.0, 100.0, 300.0), (10.0, 400.0, 300.0)];
//! assert!(!filter.admits_trace(&slow));
//! ```

use serde::{Deserialize, Serialize};

use focus_index::track::{cell_coords, TRACK_CELL_PX};
use focus_index::{ClusterRecord, QueryFilter, TrackKey, TrackSketch};

/// An axis-aligned pixel rectangle, the spatial operand of every region
/// predicate. Bounds are inclusive; coordinates clamp at zero to match the
/// sketch grid, which folds off-frame positions into its edge cells.
///
/// # Examples
///
/// ```
/// use focus_core::query::track::Region;
///
/// let r = Region::new(80.0, 0.0, 240.0, 160.0);
/// assert!(r.contains_point(80.0, 0.0));
/// assert!(r.contains_point(240.0, 160.0));
/// assert!(!r.contains_point(241.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Region {
    /// Left edge, pixels.
    pub x0: f64,
    /// Top edge, pixels.
    pub y0: f64,
    /// Right edge, pixels (inclusive).
    pub x1: f64,
    /// Bottom edge, pixels (inclusive).
    pub y1: f64,
}

impl Region {
    /// Builds a region from any two opposite corners, normalizing the
    /// order and clamping at zero.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Region {
            x0: x0.min(x1).max(0.0),
            y0: y0.min(y1).max(0.0),
            x1: x0.max(x1).max(0.0),
            y1: y0.max(y1).max(0.0),
        }
    }

    /// Whether the pixel point `(x, y)` lies in the region (inclusive).
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        self.x0 <= x && x <= self.x1 && self.y0 <= y && y <= self.y1
    }

    /// Whether the sketch grid cell `code` intersects the region.
    ///
    /// This is the conservative counterpart of
    /// [`contains_point`](Self::contains_point): a cell covers
    /// [`TRACK_CELL_PX`]² pixels, so any point the region contains lands in
    /// a cell this method accepts — but an accepted cell may also hold
    /// points outside the region.
    pub fn overlaps_cell(&self, code: u32) -> bool {
        let (cx, cy) = cell_coords(code);
        let cell_x0 = cx as f64 * TRACK_CELL_PX;
        let cell_y0 = cy as f64 * TRACK_CELL_PX;
        self.x0 < cell_x0 + TRACK_CELL_PX
            && self.x1 >= cell_x0
            && self.y0 < cell_y0 + TRACK_CELL_PX
            && self.y1 >= cell_y0
    }

    /// Whether any cell in a sketch's sorted visited-cell list intersects
    /// the region.
    fn overlaps_any(&self, cells: &[u32]) -> bool {
        cells.iter().any(|&c| self.overlaps_cell(c))
    }
}

/// Which trajectory property a [`TrackPredicate`] tests. Carries no data
/// itself — the operands live as flat fields on the predicate (the
/// vendored serde derive does not support data-carrying enum variants),
/// mirroring the sentinel-field layout of
/// [`AnytimeMode`](crate::query::AnytimeMode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackPredicateKind {
    /// The track's first observation lies in `region`.
    EnterRegion,
    /// The track's last observation lies in `region`.
    ExitRegion,
    /// Some observation lies in `region`.
    VisitRegion,
    /// The track visits `region` and then (no earlier) visits `region_to`.
    Transit,
    /// The track stays inside `region` for a contiguous run of at least
    /// `min_secs` seconds.
    Dwell,
    /// Some consecutive-observation pair moves at `speed` px/s or faster.
    SpeedAbove,
    /// Some consecutive-observation pair moves at `speed` px/s or slower.
    SpeedBelow,
}

/// One trajectory predicate: a [`TrackPredicateKind`] plus its operands.
/// Unused operand fields hold their defaults and are ignored. Build with
/// the named constructors.
///
/// # Examples
///
/// ```
/// use focus_core::query::track::{Region, TrackPredicate};
///
/// let door = Region::new(560.0, 0.0, 720.0, 160.0);
/// let p = TrackPredicate::dwells(door, 5.0);
/// // Lingered by the door for 6 contiguous seconds: admitted.
/// let trace: Vec<(f64, f64, f64)> = (0..=6).map(|i| (i as f64, 600.0, 80.0)).collect();
/// assert!(p.admits_trace(&trace));
/// // Only passed through: rejected.
/// let pass = [(0.0, 600.0, 80.0), (1.0, 900.0, 80.0)];
/// assert!(!p.admits_trace(&pass));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackPredicate {
    /// Which property is tested.
    pub kind: TrackPredicateKind,
    /// Spatial operand of every region kind (the *from* region for
    /// [`TrackPredicateKind::Transit`]).
    pub region: Region,
    /// The *to* region of [`TrackPredicateKind::Transit`]; default
    /// otherwise.
    pub region_to: Region,
    /// Minimum contiguous in-region residence of
    /// [`TrackPredicateKind::Dwell`], seconds; `0.0` otherwise.
    pub min_secs: f64,
    /// Threshold of the speed kinds, px/s; `0.0` otherwise.
    pub speed: f64,
}

impl TrackPredicate {
    fn with_kind(kind: TrackPredicateKind) -> Self {
        TrackPredicate {
            kind,
            region: Region::default(),
            region_to: Region::default(),
            min_secs: 0.0,
            speed: 0.0,
        }
    }

    /// The track's first observation lies in `region`.
    pub fn enters(region: Region) -> Self {
        TrackPredicate {
            region,
            ..Self::with_kind(TrackPredicateKind::EnterRegion)
        }
    }

    /// The track's last observation lies in `region`.
    pub fn exits(region: Region) -> Self {
        TrackPredicate {
            region,
            ..Self::with_kind(TrackPredicateKind::ExitRegion)
        }
    }

    /// Some observation of the track lies in `region`.
    pub fn visits(region: Region) -> Self {
        TrackPredicate {
            region,
            ..Self::with_kind(TrackPredicateKind::VisitRegion)
        }
    }

    /// The track visits `from` and then (no earlier) visits `to`.
    pub fn transit(from: Region, to: Region) -> Self {
        TrackPredicate {
            region: from,
            region_to: to,
            ..Self::with_kind(TrackPredicateKind::Transit)
        }
    }

    /// The track stays inside `region` for a contiguous run of at least
    /// `min_secs` seconds.
    pub fn dwells(region: Region, min_secs: f64) -> Self {
        TrackPredicate {
            region,
            min_secs: min_secs.max(0.0),
            ..Self::with_kind(TrackPredicateKind::Dwell)
        }
    }

    /// Some consecutive-observation pair moves at `px_per_sec` or faster.
    pub fn speed_above(px_per_sec: f64) -> Self {
        TrackPredicate {
            speed: px_per_sec,
            ..Self::with_kind(TrackPredicateKind::SpeedAbove)
        }
    }

    /// Some consecutive-observation pair moves at `px_per_sec` or slower.
    pub fn speed_below(px_per_sec: f64) -> Self {
        TrackPredicate {
            speed: px_per_sec,
            ..Self::with_kind(TrackPredicateKind::SpeedBelow)
        }
    }

    /// Conservative evaluation against a whole-life [`TrackSketch`].
    ///
    /// Guaranteed never to reject a track whose exact trace satisfies the
    /// predicate ([`admits_trace`](Self::admits_trace) implies this), so
    /// the planner may drop sketch-rejected tracks without losing recall.
    /// The over-approximations: region tests see [`TRACK_CELL_PX`]-coarse
    /// cells, transit cannot see visit order, and dwell sees only the
    /// whole-life duration, not contiguous in-region residence.
    pub fn admits_sketch(&self, sketch: &TrackSketch) -> bool {
        match self.kind {
            TrackPredicateKind::EnterRegion => self.region.overlaps_cell(sketch.entry_cell),
            TrackPredicateKind::ExitRegion => self.region.overlaps_cell(sketch.exit_cell),
            TrackPredicateKind::VisitRegion => self.region.overlaps_any(&sketch.cells),
            TrackPredicateKind::Transit => {
                self.region.overlaps_any(&sketch.cells)
                    && self.region_to.overlaps_any(&sketch.cells)
            }
            TrackPredicateKind::Dwell => {
                self.region.overlaps_any(&sketch.cells) && sketch.duration_secs() >= self.min_secs
            }
            TrackPredicateKind::SpeedAbove => {
                sketch.speed_pairs > 0 && sketch.max_speed >= self.speed
            }
            TrackPredicateKind::SpeedBelow => {
                sketch.speed_pairs > 0 && sketch.min_speed <= self.speed
            }
        }
    }

    /// Exact evaluation against the raw time-ordered `(secs, x, y)`
    /// observation trace — the semantics the query promises and the recall
    /// harness replays. Positions must be the shared
    /// [`BoundingBox::center`](focus_video::BoundingBox::center)
    /// definition the ingest sketcher folded in; speeds use the same
    /// displacement formula, so the speed kinds agree bit-for-bit with the
    /// sketch extrema.
    ///
    /// An empty trace satisfies nothing.
    pub fn admits_trace(&self, trace: &[(f64, f64, f64)]) -> bool {
        match self.kind {
            TrackPredicateKind::EnterRegion => trace
                .first()
                .is_some_and(|&(_, x, y)| self.region.contains_point(x, y)),
            TrackPredicateKind::ExitRegion => trace
                .last()
                .is_some_and(|&(_, x, y)| self.region.contains_point(x, y)),
            TrackPredicateKind::VisitRegion => trace
                .iter()
                .any(|&(_, x, y)| self.region.contains_point(x, y)),
            TrackPredicateKind::Transit => {
                let mut seen_from = false;
                for &(_, x, y) in trace {
                    seen_from = seen_from || self.region.contains_point(x, y);
                    if seen_from && self.region_to.contains_point(x, y) {
                        return true;
                    }
                }
                false
            }
            TrackPredicateKind::Dwell => {
                let mut run_start: Option<f64> = None;
                for &(secs, x, y) in trace {
                    if self.region.contains_point(x, y) {
                        let start = *run_start.get_or_insert(secs);
                        if secs - start >= self.min_secs {
                            return true;
                        }
                    } else {
                        run_start = None;
                    }
                }
                false
            }
            TrackPredicateKind::SpeedAbove => pair_speeds(trace).any(|speed| speed >= self.speed),
            TrackPredicateKind::SpeedBelow => pair_speeds(trace).any(|speed| speed <= self.speed),
        }
    }
}

/// Displacement speed of every consecutive-observation pair with a
/// positive time delta — exactly the pairs the ingest
/// [`TrackSketcher`](focus_index::TrackSketcher) sampled.
fn pair_speeds(trace: &[(f64, f64, f64)]) -> impl Iterator<Item = f64> + '_ {
    trace.windows(2).filter_map(|w| {
        let (t0, x0, y0) = w[0];
        let (t1, x1, y1) = w[1];
        let dt = t1 - t0;
        (dt > 0.0).then(|| (x1 - x0).hypot(y1 - y0) / dt)
    })
}

/// A conjunction of [`TrackPredicate`]s. Empty (the default) admits every
/// track — a request with an empty filter plans exactly as before tracks
/// existed.
///
/// # Examples
///
/// ```
/// use focus_core::query::track::{Region, TrackFilter, TrackPredicate};
///
/// let filter = TrackFilter::new()
///     .and(TrackPredicate::visits(Region::new(0.0, 0.0, 160.0, 160.0)))
///     .and(TrackPredicate::speed_below(30.0));
/// assert_eq!(filter.predicates.len(), 2);
/// assert!(TrackFilter::default().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrackFilter {
    /// The predicates, all of which must admit (AND semantics).
    pub predicates: Vec<TrackPredicate>,
}

impl TrackFilter {
    /// An empty filter (admits every track).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with one more predicate conjoined.
    pub fn and(mut self, predicate: TrackPredicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Whether the filter has no predicates (and so restricts nothing).
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Conservative conjunction over a whole-life sketch: `true` iff every
    /// predicate's [`TrackPredicate::admits_sketch`] admits it.
    pub fn admits_sketch(&self, sketch: &TrackSketch) -> bool {
        self.predicates.iter().all(|p| p.admits_sketch(sketch))
    }

    /// Exact conjunction over a raw trace: `true` iff every predicate's
    /// [`TrackPredicate::admits_trace`] admits it.
    pub fn admits_trace(&self, trace: &[(f64, f64, f64)]) -> bool {
        self.predicates.iter().all(|p| p.admits_trace(trace))
    }

    /// The planner's [`TrackScope`] over an iterator of whole-life
    /// sketches: rejects every sketch from a `filter`-admitted stream that
    /// fails the conjunction. Only the stream restriction of `filter` is
    /// consulted — sketches summarize a track's whole life, so time-range
    /// pruning would truncate them and break conservativeness.
    pub fn scope_over<'a>(
        &self,
        filter: &QueryFilter,
        sketches: impl Iterator<Item = &'a TrackSketch>,
    ) -> TrackScope {
        let rejected = sketches
            .filter(|s| {
                filter
                    .streams
                    .as_ref()
                    .is_none_or(|streams| streams.contains(&s.key.stream))
            })
            .filter(|s| !self.admits_sketch(s))
            .map(|s| s.key)
            .collect();
        TrackScope::from_rejected(rejected)
    }
}

/// The planner's verdict on a [`TrackFilter`]: the tracks whose sketches
/// *rejected* it. Stored as a rejection list (not an admission list) so
/// tracks with no sketch — version-1 segments, pre-track snapshots — are
/// conservatively admitted rather than silently dropped.
///
/// An empty scope (the default, and the scope of every request without a
/// track filter) admits everything.
///
/// # Examples
///
/// ```
/// use focus_core::query::track::TrackScope;
/// use focus_index::TrackKey;
/// use focus_video::{StreamId, TrackId};
///
/// let rejected = TrackKey::new(StreamId(0), TrackId(7));
/// let scope = TrackScope::from_rejected(vec![rejected]);
/// assert!(!scope.admits(rejected));
/// assert!(scope.admits(TrackKey::new(StreamId(0), TrackId(8))));
/// assert!(TrackScope::default().admits(rejected));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrackScope {
    /// Tracks whose sketches rejected the filter, sorted and deduplicated.
    pub rejected: Vec<TrackKey>,
}

impl TrackScope {
    /// Builds a scope from a rejection list, sorting and deduplicating.
    pub fn from_rejected(mut rejected: Vec<TrackKey>) -> Self {
        rejected.sort_unstable();
        rejected.dedup();
        TrackScope { rejected }
    }

    /// Whether `key`'s members may appear in results (i.e. the track was
    /// not rejected — unknown tracks are admitted).
    pub fn admits(&self, key: TrackKey) -> bool {
        self.rejected.binary_search(&key).is_err()
    }

    /// Whether any of `record`'s members may appear in results — the
    /// planners drop a cluster that fails this before verifying it.
    pub fn admits_record(&self, record: &ClusterRecord) -> bool {
        record
            .members
            .iter()
            .any(|m| self.admits(TrackKey::new(record.key.stream, m.track)))
    }

    /// Whether the scope rejects nothing.
    pub fn is_empty(&self) -> bool {
        self.rejected.is_empty()
    }

    /// Unions another scope's rejections into this one (the fleet gather
    /// seam: shards hold disjoint streams, so their rejection lists union
    /// losslessly).
    pub fn merge(&mut self, other: &TrackScope) {
        self.rejected.extend_from_slice(&other.rejected);
        self.rejected.sort_unstable();
        self.rejected.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_index::TrackSketcher;
    use focus_video::{StreamId, TrackId};

    /// Builds the whole-life sketch of a trace the way ingest would.
    fn sketch_of(trace: &[(f64, f64, f64)]) -> TrackSketch {
        let mut sketcher = TrackSketcher::new(StreamId(0));
        for &(secs, x, y) in trace {
            sketcher.observe(TrackId(1), secs, x, y);
        }
        sketcher.snapshot_window().remove(0)
    }

    fn diagonal_trace() -> Vec<(f64, f64, f64)> {
        (0..12)
            .map(|i| {
                (
                    i as f64 * 0.5,
                    40.0 + i as f64 * 60.0,
                    40.0 + i as f64 * 30.0,
                )
            })
            .collect()
    }

    #[test]
    fn region_normalizes_and_tests_points() {
        let r = Region::new(300.0, 200.0, 100.0, 50.0);
        assert_eq!(r, Region::new(100.0, 50.0, 300.0, 200.0));
        assert!(r.contains_point(100.0, 50.0));
        assert!(r.contains_point(300.0, 200.0));
        assert!(!r.contains_point(99.9, 50.0));
        // Negative corners clamp to the frame edge.
        let edge = Region::new(-50.0, -50.0, 80.0, 80.0);
        assert!(edge.contains_point(0.0, 0.0));
        assert!(!edge.contains_point(-1.0, 0.0));
    }

    #[test]
    fn cell_overlap_covers_every_contained_point() {
        // Any point a region contains must land in a cell the region
        // overlaps — the invariant conservative planning rests on.
        let regions = [
            Region::new(0.0, 0.0, 79.0, 79.0),
            Region::new(75.0, 75.0, 85.0, 85.0),
            Region::new(80.0, 160.0, 400.0, 400.0),
            Region::new(0.0, 0.0, 1280.0, 720.0),
        ];
        for region in &regions {
            let mut x = 0.0;
            while x < 500.0 {
                let mut y = 0.0;
                while y < 500.0 {
                    if region.contains_point(x, y) {
                        let cell = focus_index::track::cell_of(x, y);
                        assert!(
                            region.overlaps_cell(cell),
                            "region {region:?} contains ({x}, {y}) but misses its cell"
                        );
                    }
                    y += 7.3;
                }
                x += 7.3;
            }
        }
    }

    #[test]
    fn exact_predicates_on_a_diagonal_trace() {
        let trace = diagonal_trace();
        let start = Region::new(0.0, 0.0, 80.0, 80.0);
        let end = Region::new(640.0, 320.0, 800.0, 420.0);
        assert!(TrackPredicate::enters(start).admits_trace(&trace));
        assert!(!TrackPredicate::enters(end).admits_trace(&trace));
        assert!(TrackPredicate::exits(end).admits_trace(&trace));
        assert!(TrackPredicate::visits(start).admits_trace(&trace));
        assert!(TrackPredicate::transit(start, end).admits_trace(&trace));
        // Order matters for the exact transit: end → start never happens.
        assert!(!TrackPredicate::transit(end, start).admits_trace(&trace));
        // ~134 px/s diagonal speed.
        assert!(TrackPredicate::speed_above(130.0).admits_trace(&trace));
        assert!(!TrackPredicate::speed_above(200.0).admits_trace(&trace));
        assert!(TrackPredicate::speed_below(140.0).admits_trace(&trace));
        assert!(!TrackPredicate::speed_below(50.0).admits_trace(&trace));
    }

    #[test]
    fn dwell_requires_a_contiguous_run() {
        let zone = Region::new(0.0, 0.0, 100.0, 100.0);
        // In, out, back in: two 1-second runs, never a 2-second one.
        let bouncing = [
            (0.0, 50.0, 50.0),
            (1.0, 60.0, 50.0),
            (2.0, 500.0, 50.0),
            (3.0, 50.0, 50.0),
            (4.0, 60.0, 50.0),
        ];
        assert!(TrackPredicate::dwells(zone, 1.0).admits_trace(&bouncing));
        assert!(!TrackPredicate::dwells(zone, 2.0).admits_trace(&bouncing));
        // The whole-life sketch cannot see contiguity: it conservatively
        // admits the 2-second dwell (duration 4 s, zone visited).
        let sketch = sketch_of(&bouncing);
        assert!(TrackPredicate::dwells(zone, 2.0).admits_sketch(&sketch));
    }

    #[test]
    fn sketch_evaluation_is_conservative_over_exact() {
        // admits_trace ⇒ admits_sketch for every predicate, on a family of
        // synthetic traces.
        let traces: Vec<Vec<(f64, f64, f64)>> = vec![
            diagonal_trace(),
            vec![(0.0, 640.0, 360.0)],
            (0..30)
                .map(|i| (i as f64, (i * 41 % 1280) as f64, (i * 97 % 720) as f64))
                .collect(),
            (0..10)
                .map(|i| (i as f64 * 2.0, 100.0, 700.0 - i as f64 * 70.0))
                .collect(),
        ];
        let a = Region::new(0.0, 0.0, 160.0, 720.0);
        let b = Region::new(600.0, 0.0, 1280.0, 720.0);
        let predicates = [
            TrackPredicate::enters(a),
            TrackPredicate::exits(b),
            TrackPredicate::visits(a),
            TrackPredicate::transit(a, b),
            TrackPredicate::transit(b, a),
            TrackPredicate::dwells(a, 3.0),
            TrackPredicate::speed_above(60.0),
            TrackPredicate::speed_below(60.0),
        ];
        for trace in &traces {
            let sketch = sketch_of(trace);
            for p in &predicates {
                if p.admits_trace(trace) {
                    assert!(
                        p.admits_sketch(&sketch),
                        "sketch rejected a trace the exact evaluation admits: {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn transit_sketch_ignores_order_but_exact_does_not() {
        let trace = diagonal_trace();
        let start = Region::new(0.0, 0.0, 80.0, 80.0);
        let end = Region::new(640.0, 320.0, 800.0, 420.0);
        let backwards = TrackPredicate::transit(end, start);
        let sketch = sketch_of(&trace);
        // The documented over-approximation: both regions were visited, so
        // the sketch admits; the exact trace knows the order was wrong.
        assert!(backwards.admits_sketch(&sketch));
        assert!(!backwards.admits_trace(&trace));
    }

    #[test]
    fn filter_conjunction_and_empty_semantics() {
        let trace = diagonal_trace();
        let sketch = sketch_of(&trace);
        let empty = TrackFilter::default();
        assert!(empty.is_empty());
        assert!(empty.admits_trace(&trace));
        assert!(empty.admits_sketch(&sketch));
        let both = TrackFilter::new()
            .and(TrackPredicate::enters(Region::new(0.0, 0.0, 80.0, 80.0)))
            .and(TrackPredicate::speed_above(130.0));
        assert!(both.admits_trace(&trace));
        let contradiction = both.and(TrackPredicate::speed_above(10_000.0));
        assert!(!contradiction.admits_trace(&trace));
        assert!(!contradiction.admits_sketch(&sketch));
    }

    #[test]
    fn scope_rejection_list_and_merge() {
        let k = |s: u32, t: u64| TrackKey::new(StreamId(s), TrackId(t));
        let mut scope = TrackScope::from_rejected(vec![k(1, 3), k(0, 5), k(1, 3)]);
        assert_eq!(scope.rejected, vec![k(0, 5), k(1, 3)]);
        assert!(!scope.admits(k(0, 5)));
        assert!(scope.admits(k(0, 4)));
        assert!(scope.admits(k(2, 5)));
        let other = TrackScope::from_rejected(vec![k(2, 1), k(0, 5)]);
        scope.merge(&other);
        assert_eq!(scope.rejected, vec![k(0, 5), k(1, 3), k(2, 1)]);
    }

    #[test]
    fn predicates_roundtrip_through_serde() {
        let filter = TrackFilter::new()
            .and(TrackPredicate::transit(
                Region::new(0.0, 0.0, 160.0, 720.0),
                Region::new(600.0, 0.0, 1280.0, 720.0),
            ))
            .and(TrackPredicate::dwells(
                Region::new(0.0, 0.0, 100.0, 100.0),
                2.5,
            ));
        let json = serde_json::to_string(&filter).unwrap();
        let back: TrackFilter = serde_json::from_str(&json).unwrap();
        assert_eq!(filter, back);
        let scope = TrackScope::from_rejected(vec![TrackKey::new(StreamId(3), TrackId(9))]);
        let json = serde_json::to_string(&scope).unwrap();
        let back: TrackScope = serde_json::from_str(&json).unwrap();
        assert_eq!(scope, back);
    }
}
