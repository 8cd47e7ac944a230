//! The query-time pipeline (QT1–QT4 in Figure 4 of the paper).
//!
//! A query names an object class (and optionally a camera subset, a time
//! range, and a dynamic `Kx`). To answer it, Focus
//!
//! 1. looks up the matching clusters in the top-K index,
//! 2. classifies only the cluster centroids with the ground-truth CNN
//!    (parallelised across the GPU cluster / worker pool),
//! 3. keeps the clusters whose centroid the GT-CNN confirms as the queried
//!    class, and
//! 4. returns all frames of the confirmed clusters.
//!
//! The pipeline is split by phase:
//!
//! * [`plan`] — QT1/QT2: mapping the queried class through the specialized
//!   model's OTHER handling and retrieving the candidate centroid set from
//!   the index as stable [`focus_index::CentroidHandle`]s.
//! * [`execute`] — QT4: applying per-centroid GT verdicts and assembling
//!   the [`QueryOutcome`].
//! * [`serve`] — the serial, single-query driver ([`QueryEngine`]), which
//!   runs QT3 one centroid inference at a time.
//! * [`segmented`] — QT1/QT2 with segment pruning over a durable
//!   [`SegmentStore`](focus_index::SegmentStore): time/camera-restricted
//!   queries open only the segments whose bounds intersect (see
//!   `docs/storage.md`).
//! * [`anytime`] — incremental execution over the segmented plan's
//!   per-segment chunks: GT verification spent adaptively on the chunk
//!   most likely to yield new distinct results, and partial results
//!   streamed out after every round (see `docs/query-path.md`).
//! * [`track`] — trajectory restrictions: the [`TrackFilter`] predicate
//!   language (region entry/exit/visit, transit, dwell, speed bands)
//!   evaluated conservatively against the per-track sketches persisted in
//!   segments, so candidates whose tracks cannot match are dropped
//!   *before* GT verification (see `docs/query-path.md`).
//!
//! Concurrent serving — many queries at once, batched GT-CNN verification
//! of the *deduplicated* union of their candidate sets, and a cross-query
//! centroid-verdict cache — lives in [`crate::query_server`]. See
//! `docs/query-path.md` for the end-to-end walkthrough.

pub mod anytime;
pub mod execute;
pub mod plan;
pub mod segmented;
pub mod serve;
pub mod track;

pub use anytime::{
    pick_most_promising, run_anytime, run_anytime_with_picker, AnytimeOutcome, AnytimePartial,
    AnytimeTermination, ChunkEstimate,
};
pub use execute::{assemble_outcome, assemble_outcome_from, QueryOutcome};
pub use plan::{AnytimeMode, QueryPlan, QueryRequest};
pub use segmented::{
    AnytimeChunk, ChunkSource, RetiredRouting, SegmentedCorpus, SegmentedPlan, TailOverlay,
};
pub use serve::QueryEngine;
pub use track::{Region, TrackFilter, TrackPredicate, TrackPredicateKind, TrackScope};
