//! Single-pass incremental clustering substrate (§4.2 of the paper).
//!
//! Focus clusters objects at ingest time by the feature vectors produced by
//! the cheap ingest CNN, so that at query time only one object per cluster —
//! the centroid — has to be classified by the expensive ground-truth CNN.
//!
//! The paper's requirements for the clustering algorithm are:
//!
//! 1. **Single pass** — video arrives continuously and volumes are large, so
//!    quadratic algorithms are out.
//! 2. **No fixed cluster count** — the number of clusters must adapt to the
//!    data; outliers simply open new clusters.
//! 3. **Bounded state** — the active set is capped at `M` clusters; when the
//!    cap is exceeded the smallest clusters are sealed (spilled) to the
//!    index, keeping the per-object cost `O(M)` and the total cost `O(M·n)`.
//!
//! The algorithm (following the incremental/leader clustering literature the
//! paper cites): the first object opens the first cluster; each subsequent
//! object joins the nearest active cluster if its centroid is within the
//! distance threshold `T`, otherwise it opens a new cluster.
//!
//! This crate is deliberately independent of the CNN substrate — it clusters
//! plain `&[f32]` points — so it can be reused and property-tested in
//! isolation.

pub mod incremental;

pub use incremental::{Cluster, ClusterId, ClusterMember, ClusteringStats, IncrementalClusterer};
