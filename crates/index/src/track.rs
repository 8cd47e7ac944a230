//! Per-track spatio-temporal sketches.
//!
//! Focus's index answers "which clusters contain class X"; trajectory
//! queries ("cars that crossed from the left lane to the driveway",
//! "anything moving faster than 30 px/s") additionally need *where a track
//! went*. Scanning every member frame at query time would be O(frames);
//! instead ingest folds each observation into a compact per-track
//! [`TrackSketch`] — the coarse grid cells the bounding-box path visited,
//! its entry/exit cells, time bounds and displacement-speed stats — so
//! query planning only intersects sketches: O(tracks).
//!
//! Sketches are **conservative**: every quantity is an over-approximation
//! of the exact trace (a visited point always lands in a visited cell, the
//! speed extrema cover every consecutive-observation pair), so a predicate
//! evaluated against a sketch can admit a track that does not exactly
//! satisfy it, but never rejects one that does. That is what lets the query
//! planner drop candidates *before* ground-truth verification without
//! losing recall.
//!
//! Sketches are accumulated per seal window by a [`TrackSketcher`] and
//! merged across windows with [`TrackSketch::absorb`], which is commutative
//! and associative over the fields any predicate reads — so the merged
//! whole-life sketch of a track is independent of where segment seals fell.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use focus_video::{StreamId, TrackId};

/// Side length of one sketch grid cell, in pixels. At 1280×720 frames this
/// yields a 16×9 grid — coarse enough that a sketch stays a few dozen bytes,
/// fine enough that region predicates prune most off-path tracks.
pub const TRACK_CELL_PX: f64 = 80.0;

/// Globally unique identifier of a track: the stream it was observed on plus
/// the generator's stream-local track number (track ids restart at zero per
/// stream, so the raw [`TrackId`] alone is ambiguous across cameras).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TrackKey {
    /// The stream (camera) the track was observed on.
    pub stream: StreamId,
    /// The generator's stream-local track id.
    pub track: TrackId,
}

impl TrackKey {
    /// Builds a key.
    pub fn new(stream: StreamId, track: TrackId) -> Self {
        Self { stream, track }
    }
}

/// Packs grid cell coordinates into one code (`cy` in the high half).
pub fn cell_code(cx: u16, cy: u16) -> u32 {
    (cy as u32) << 16 | cx as u32
}

/// Unpacks a cell code back into `(cx, cy)` coordinates.
pub fn cell_coords(code: u32) -> (u16, u16) {
    ((code & 0xFFFF) as u16, (code >> 16) as u16)
}

/// The grid cell containing pixel position `(x, y)` (clamped at zero, so
/// boxes nudged past the frame edge still land in an edge cell).
pub fn cell_of(x: f64, y: f64) -> u32 {
    let cx = (x.max(0.0) / TRACK_CELL_PX) as u32;
    let cy = (y.max(0.0) / TRACK_CELL_PX) as u32;
    cell_code(
        cx.min(u16::MAX as u32) as u16,
        cy.min(u16::MAX as u32) as u16,
    )
}

/// Compact spatio-temporal summary of one track (or of one seal window of
/// it): the grid cells its bounding-box centroid visited, where it entered
/// and left, when it was live, and its displacement-speed extrema.
///
/// Whole-life sketches are produced by [`absorb`](Self::absorb)-merging the
/// per-window sketches persisted in each segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackSketch {
    /// The track this sketch summarizes.
    pub key: TrackKey,
    /// Sorted, deduplicated [`cell_code`]s of every cell the track's
    /// centroid visited.
    pub cells: Vec<u32>,
    /// Cell of the earliest observation.
    pub entry_cell: u32,
    /// Cell of the latest observation.
    pub exit_cell: u32,
    /// Timestamp of the earliest observation, seconds since stream start.
    pub t_start: f64,
    /// Timestamp of the latest observation, seconds since stream start.
    pub t_end: f64,
    /// Number of observations folded in.
    pub observations: u64,
    /// Number of consecutive-observation pairs with positive time delta
    /// that contributed a speed sample. Zero for single-observation tracks;
    /// the two speed fields below are zero (not meaningful) in that case.
    pub speed_pairs: u64,
    /// Minimum displacement speed over all pairs, px/sec.
    pub min_speed: f64,
    /// Maximum displacement speed over all pairs, px/sec.
    pub max_speed: f64,
}

impl TrackSketch {
    /// A sketch of a single observation at `(x, y)` pixels, `secs` seconds
    /// since stream start.
    pub fn first(key: TrackKey, secs: f64, x: f64, y: f64) -> Self {
        let cell = cell_of(x, y);
        TrackSketch {
            key,
            cells: vec![cell],
            entry_cell: cell,
            exit_cell: cell,
            t_start: secs,
            t_end: secs,
            observations: 1,
            speed_pairs: 0,
            min_speed: 0.0,
            max_speed: 0.0,
        }
    }

    /// Adds `cell` to the visited set, keeping it sorted and deduplicated.
    fn add_cell(&mut self, cell: u32) {
        if let Err(pos) = self.cells.binary_search(&cell) {
            self.cells.insert(pos, cell);
        }
    }

    /// Folds in one later observation (observations of a track arrive in
    /// strictly increasing time order).
    fn observe(&mut self, secs: f64, x: f64, y: f64) {
        let cell = cell_of(x, y);
        self.add_cell(cell);
        if secs >= self.t_end {
            self.t_end = secs;
            self.exit_cell = cell;
        }
        self.observations += 1;
    }

    /// Records one consecutive-pair speed sample, px/sec.
    fn add_speed(&mut self, speed: f64) {
        if self.speed_pairs == 0 {
            self.min_speed = speed;
            self.max_speed = speed;
        } else {
            self.min_speed = self.min_speed.min(speed);
            self.max_speed = self.max_speed.max(speed);
        }
        self.speed_pairs += 1;
    }

    /// Merges another window of the same track into this sketch.
    ///
    /// Every field merges commutatively and associatively (cell union,
    /// entry/exit by time bound, time/speed extrema, integer counts), so
    /// the whole-life merge is *byte-identical* no matter how seal
    /// boundaries partitioned the track — there is deliberately no
    /// float-summation-order-sensitive field (a mean-speed sum was dropped
    /// for exactly this reason).
    ///
    /// # Panics
    ///
    /// Panics if the two sketches describe different tracks.
    pub fn absorb(&mut self, other: &TrackSketch) {
        assert_eq!(self.key, other.key, "absorb requires matching track keys");
        for cell in &other.cells {
            self.add_cell(*cell);
        }
        if other.t_start < self.t_start {
            self.t_start = other.t_start;
            self.entry_cell = other.entry_cell;
        }
        if other.t_end > self.t_end {
            self.t_end = other.t_end;
            self.exit_cell = other.exit_cell;
        }
        self.observations += other.observations;
        if other.speed_pairs > 0 {
            if self.speed_pairs == 0 {
                self.min_speed = other.min_speed;
                self.max_speed = other.max_speed;
            } else {
                self.min_speed = self.min_speed.min(other.min_speed);
                self.max_speed = self.max_speed.max(other.max_speed);
            }
            self.speed_pairs += other.speed_pairs;
        }
    }

    /// Lifetime of the sketch in seconds (zero for a single observation).
    pub fn duration_secs(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Per-window accumulator state of one track: the sketch of the current
/// seal window plus the last observed point, which is *not* reset when the
/// window drains — the pair straddling a seal boundary is charged to the
/// later window, so the absorb-merge of all windows sees every
/// consecutive-observation pair exactly once.
#[derive(Debug, Clone, Default)]
struct TrackWindow {
    sketch: Option<TrackSketch>,
    last: Option<(f64, f64, f64)>,
}

/// Accumulates [`TrackSketch`]es for one stream's ingest pipeline,
/// windowed by segment seals.
///
/// [`observe`](Self::observe) is O(cells) per observation;
/// [`drain_window`](Self::drain_window) hands the current window's sketches
/// to the segment being sealed and starts a new window, carrying each
/// track's last point across the boundary. Because the carried point only
/// feeds speed pairs (charged to the later window) and every other field
/// merges commutatively, draining at arbitrary points never changes the
/// absorb-merged whole-life sketch.
#[derive(Debug, Clone)]
pub struct TrackSketcher {
    stream: StreamId,
    windows: HashMap<TrackId, TrackWindow>,
}

impl TrackSketcher {
    /// An empty accumulator for `stream`.
    pub fn new(stream: StreamId) -> Self {
        TrackSketcher {
            stream,
            windows: HashMap::new(),
        }
    }

    /// The stream this sketcher accumulates for.
    pub fn stream(&self) -> StreamId {
        self.stream
    }

    /// Folds one observation of `track` at pixel position `(x, y)` into the
    /// current window. Observations of a track must arrive in increasing
    /// time order (which ingest guarantees).
    pub fn observe(&mut self, track: TrackId, secs: f64, x: f64, y: f64) {
        let window = self.windows.entry(track).or_default();
        let key = TrackKey::new(self.stream, track);
        match &mut window.sketch {
            Some(sketch) => sketch.observe(secs, x, y),
            None => window.sketch = Some(TrackSketch::first(key, secs, x, y)),
        }
        if let Some((last_secs, lx, ly)) = window.last {
            let dt = secs - last_secs;
            if dt > 0.0 {
                let dist = (x - lx).hypot(y - ly);
                window
                    .sketch
                    .as_mut()
                    .expect("sketch created above")
                    .add_speed(dist / dt);
            }
        }
        window.last = Some((secs, x, y));
    }

    /// The current window's sketches, sorted by key, resetting the window
    /// (but keeping each track's carried last point for boundary pairs).
    pub fn drain_window(&mut self) -> Vec<TrackSketch> {
        let mut out: Vec<TrackSketch> = self
            .windows
            .values_mut()
            .filter_map(|w| w.sketch.take())
            .collect();
        out.sort_by_key(|s| s.key);
        out
    }

    /// The current window's sketches without resetting anything — the hot
    /// tail's view, byte-identical to what [`drain_window`](Self::drain_window)
    /// would produce at this instant.
    pub fn snapshot_window(&self) -> Vec<TrackSketch> {
        let mut out: Vec<TrackSketch> = self
            .windows
            .values()
            .filter_map(|w| w.sketch.clone())
            .collect();
        out.sort_by_key(|s| s.key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(track: u64) -> TrackKey {
        TrackKey::new(StreamId(0), TrackId(track))
    }

    #[test]
    fn cell_codes_roundtrip_and_clamp() {
        assert_eq!(cell_coords(cell_code(3, 7)), (3, 7));
        assert_eq!(cell_of(0.0, 0.0), cell_code(0, 0));
        assert_eq!(cell_of(79.9, 79.9), cell_code(0, 0));
        assert_eq!(cell_of(80.0, 160.0), cell_code(1, 2));
        // Negative coordinates clamp into the edge cell.
        assert_eq!(cell_of(-5.0, -5.0), cell_code(0, 0));
    }

    #[test]
    fn single_window_sketch_tracks_path_and_speed() {
        let mut sketcher = TrackSketcher::new(StreamId(0));
        // 100 px in 1 s, then 50 px in 1 s.
        sketcher.observe(TrackId(1), 0.0, 0.0, 0.0);
        sketcher.observe(TrackId(1), 1.0, 100.0, 0.0);
        sketcher.observe(TrackId(1), 2.0, 150.0, 0.0);
        let sketches = sketcher.snapshot_window();
        assert_eq!(sketches.len(), 1);
        let s = &sketches[0];
        assert_eq!(s.key, key(1));
        assert_eq!(s.observations, 3);
        assert_eq!(s.entry_cell, cell_code(0, 0));
        assert_eq!(s.exit_cell, cell_code(1, 0));
        assert_eq!(s.cells, vec![cell_code(0, 0), cell_code(1, 0)]);
        assert_eq!(s.t_start, 0.0);
        assert_eq!(s.t_end, 2.0);
        assert_eq!(s.speed_pairs, 2);
        assert_eq!(s.min_speed, 50.0);
        assert_eq!(s.max_speed, 100.0);
        assert_eq!(s.duration_secs(), 2.0);
    }

    #[test]
    fn single_observation_has_no_speed() {
        let mut sketcher = TrackSketcher::new(StreamId(0));
        sketcher.observe(TrackId(1), 5.0, 10.0, 10.0);
        let s = &sketcher.snapshot_window()[0];
        assert_eq!(s.speed_pairs, 0);
        assert_eq!(s.min_speed, 0.0);
        assert_eq!(s.duration_secs(), 0.0);
    }

    #[test]
    fn drains_are_invariant_under_window_boundaries() {
        // One continuous pass vs. draining after every observation: the
        // absorb-merged sketches must agree on every predicate-visible
        // field.
        let path: Vec<(f64, f64, f64)> = (0..20)
            .map(|i| (i as f64 * 0.5, i as f64 * 37.0, (i % 7) as f64 * 60.0))
            .collect();
        let mut whole = TrackSketcher::new(StreamId(2));
        let mut chopped = TrackSketcher::new(StreamId(2));
        let mut merged: Option<TrackSketch> = None;
        for (secs, x, y) in &path {
            whole.observe(TrackId(9), *secs, *x, *y);
            chopped.observe(TrackId(9), *secs, *x, *y);
            for part in chopped.drain_window() {
                match &mut merged {
                    Some(m) => m.absorb(&part),
                    None => merged = Some(part),
                }
            }
        }
        let reference = &whole.snapshot_window()[0];
        let merged = merged.unwrap();
        assert_eq!(merged.key, reference.key);
        assert_eq!(merged.cells, reference.cells);
        assert_eq!(merged.entry_cell, reference.entry_cell);
        assert_eq!(merged.exit_cell, reference.exit_cell);
        assert_eq!(merged.t_start, reference.t_start);
        assert_eq!(merged.t_end, reference.t_end);
        assert_eq!(merged.observations, reference.observations);
        assert_eq!(merged.speed_pairs, reference.speed_pairs);
        assert_eq!(merged.min_speed, reference.min_speed);
        assert_eq!(merged.max_speed, reference.max_speed);
    }

    #[test]
    fn absorb_is_commutative_on_predicate_fields() {
        let mut a = TrackSketch::first(key(3), 0.0, 10.0, 10.0);
        a.observe(1.0, 90.0, 10.0);
        a.add_speed(80.0);
        let mut b = TrackSketch::first(key(3), 2.0, 200.0, 200.0);
        b.add_speed(30.0);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.cells, ba.cells);
        assert_eq!(ab.entry_cell, ba.entry_cell);
        assert_eq!(ab.exit_cell, ba.exit_cell);
        assert_eq!(ab.t_start, ba.t_start);
        assert_eq!(ab.t_end, ba.t_end);
        assert_eq!(ab.min_speed, ba.min_speed);
        assert_eq!(ab.max_speed, ba.max_speed);
        assert_eq!(ab.observations, ba.observations);
        assert_eq!(ab.speed_pairs, ba.speed_pairs);
        assert_eq!(ab.entry_cell, cell_code(0, 0));
        assert_eq!(ab.exit_cell, cell_code(2, 2));
    }

    #[test]
    #[should_panic(expected = "matching track keys")]
    fn absorb_rejects_mismatched_keys() {
        let mut a = TrackSketch::first(key(1), 0.0, 0.0, 0.0);
        let b = TrackSketch::first(key(2), 0.0, 0.0, 0.0);
        a.absorb(&b);
    }

    #[test]
    fn tracks_are_kept_separate() {
        let mut sketcher = TrackSketcher::new(StreamId(1));
        sketcher.observe(TrackId(1), 0.0, 0.0, 0.0);
        sketcher.observe(TrackId(2), 0.0, 500.0, 500.0);
        sketcher.observe(TrackId(1), 1.0, 40.0, 0.0);
        let sketches = sketcher.drain_window();
        assert_eq!(sketches.len(), 2);
        assert_eq!(sketches[0].key, TrackKey::new(StreamId(1), TrackId(1)));
        assert_eq!(sketches[0].observations, 2);
        assert_eq!(sketches[1].key, TrackKey::new(StreamId(1), TrackId(2)));
        assert_eq!(sketches[1].observations, 1);
        // A later observation of track 1 starts a fresh window but still
        // pairs with the carried point for speed.
        sketcher.observe(TrackId(1), 2.0, 80.0, 0.0);
        let next = sketcher.drain_window();
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].observations, 1);
        assert_eq!(next[0].speed_pairs, 1);
        assert_eq!(next[0].min_speed, 40.0);
    }
}
