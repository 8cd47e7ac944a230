//! The query-time pipeline (QT1–QT4 in Figure 4 of the paper).
//!
//! A query names an object class (and optionally a camera subset, a time
//! range, and a dynamic `Kx`). To answer it, Focus
//!
//! 1. looks up the matching clusters in the top-K index,
//! 2. classifies only the cluster centroids with the ground-truth CNN
//!    (its latency divided across the modelled GPU cluster),
//! 3. keeps the clusters whose centroid the GT-CNN confirms as the queried
//!    class, and
//! 4. returns all frames of the confirmed clusters.
//!
//! The pipeline is split by phase:
//!
//! * [`plan`] — QT1/QT2 over an in-memory index: mapping the queried class
//!   through the specialized model's OTHER handling and retrieving the
//!   candidate centroid set from the index as stable
//!   [`focus_index::CentroidHandle`]s, with their records aligned.
//! * [`execute`] — QT4: applying per-centroid GT verdicts and assembling
//!   the [`QueryOutcome`].
//! * [`segmented`] — QT1/QT2 with segment pruning over a durable
//!   [`SegmentStore`](focus_index::SegmentStore): time/camera-restricted
//!   queries open only the segments whose bounds intersect (see
//!   `docs/storage.md`).
//! * [`anytime`] — the one executor (QT3): a batch of planned requests
//!   verified in rounds by [`QueryServer`](crate::query_server::QueryServer).
//!   An exact request takes all its candidates in round 1; an incremental
//!   one takes them a round budget at a time in one fixed order — the
//!   queried class's rank in each cluster's top-K, then cluster size,
//!   largest first — streaming partial results after every round (see
//!   `docs/query-path.md`).
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
pub mod track;

pub use anytime::{run_batch, AnytimeOutcome, AnytimePartial, AnytimeTermination, PlannedRequest};
pub use execute::{assemble_outcome, QueryOutcome};
pub use plan::{AnytimeMode, QueryPlan, QueryRequest};
pub use segmented::{RetiredRouting, SegmentedCorpus, SegmentedPlan, TailOverlay};
pub use track::{Region, TrackFilter, TrackPredicate, TrackPredicateKind, TrackScope};
