//! The threshold-based single-pass incremental clusterer.

use serde::{Deserialize, Serialize};

/// Identifier of a cluster, unique within one clusterer instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ClusterId(pub u64);

/// An item that was assigned to a cluster. The clusterer is generic over
/// what an item *is* (Focus stores object and frame identifiers); it only
/// needs an opaque 64-bit payload pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterMember {
    /// Primary identifier of the member (Focus: the object id).
    pub item: u64,
    /// Secondary identifier carried along (Focus: the frame id).
    pub tag: u64,
}

/// A cluster: its running centroid and its members. The first member is the
/// cluster's representative (the object whose features opened or currently
/// anchor the cluster); Focus classifies exactly that representative with
/// the ground-truth CNN at query time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Cluster identifier.
    pub id: ClusterId,
    /// Running mean of the members' feature vectors.
    pub centroid: Vec<f32>,
    /// Members in insertion order; the first member is the representative.
    pub members: Vec<ClusterMember>,
}

impl Cluster {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never true for sealed clusters).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The representative member classified by the GT-CNN at query time.
    pub fn representative(&self) -> ClusterMember {
        self.members[0]
    }
}

/// Statistics describing a finished clustering run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusteringStats {
    /// Objects added.
    pub objects: usize,
    /// Clusters produced (active + spilled).
    pub clusters: usize,
    /// Number of clusters spilled because the active set exceeded its cap.
    pub spilled: usize,
    /// Average members per cluster.
    pub mean_cluster_size: f64,
    /// Total number of centroid distance evaluations performed (the `O(M·n)`
    /// work term).
    pub distance_evaluations: u64,
}

/// The single-pass incremental clusterer.
///
/// Distances are Euclidean (L2), matching §4.2 of the paper. The clusterer
/// never re-assigns an object once placed, which is what keeps it single
/// pass.
#[derive(Debug, Clone)]
pub struct IncrementalClusterer {
    threshold: f32,
    max_active: usize,
    dim: Option<usize>,
    /// The active clusters' centroids, row-major: row `i` (`dim` floats) is
    /// the running mean of `active[i]`. One contiguous buffer, because every
    /// `add` walks all of it.
    centroids: Vec<f32>,
    active: Vec<ClusterState>,
    sealed: Vec<Cluster>,
    next_id: u64,
    objects: usize,
    spilled: usize,
    distance_evaluations: u64,
}

/// How many recent additions protect a cluster from being spilled. A
/// cluster that absorbed an object within this window is still "hot" (the
/// object it tracks is probably still in view), so sealing it would split
/// what should be one cluster into many.
const SPILL_RECENCY_GRACE: u64 = 32;

/// How many lanes [`bounded_squared_distance`] sums between two looks at
/// its bound.
const DISTANCE_CHECK_LANES: usize = 8;

/// An active cluster; its centroid is its row of
/// [`IncrementalClusterer::centroids`].
#[derive(Debug, Clone)]
struct ClusterState {
    id: ClusterId,
    sum: Vec<f32>,
    members: Vec<ClusterMember>,
    /// Value of the clusterer's add counter when this cluster last absorbed
    /// an object.
    last_update: u64,
}

impl ClusterState {
    fn into_cluster(self, centroid: &[f32]) -> Cluster {
        Cluster {
            id: self.id,
            centroid: centroid.to_vec(),
            members: self.members,
        }
    }
}

/// Squared Euclidean distance, summed left to right exactly like
/// `a.zip(b).map(|(x, y)| (x - y) * (x - y)).sum()`, except that it gives up
/// once the running sum exceeds `bound` and returns that partial sum. Every
/// term is non-negative, so a running sum above `bound` means the full
/// distance is above it too: a caller that only keeps distances `<= bound`
/// decides the same either way, and a distance it keeps is the full sum,
/// bit for bit.
fn bounded_squared_distance(a: &[f32], b: &[f32], bound: f32) -> f32 {
    let mut sum = 0.0f32;
    for (lanes_a, lanes_b) in a
        .chunks(DISTANCE_CHECK_LANES)
        .zip(b.chunks(DISTANCE_CHECK_LANES))
    {
        for (x, y) in lanes_a.iter().zip(lanes_b) {
            sum += (x - y) * (x - y);
        }
        if sum > bound {
            break;
        }
    }
    sum
}

impl IncrementalClusterer {
    /// Creates a clusterer with distance threshold `threshold` and at most
    /// `max_active` concurrently open clusters.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative/NaN or `max_active` is zero.
    pub fn new(threshold: f32, max_active: usize) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "threshold must be a non-negative finite number"
        );
        assert!(max_active > 0, "max_active must be positive");
        Self {
            threshold,
            max_active,
            dim: None,
            centroids: Vec::new(),
            active: Vec::new(),
            sealed: Vec::new(),
            next_id: 0,
            objects: 0,
            spilled: 0,
            distance_evaluations: 0,
        }
    }

    /// The distance threshold `T`.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The active-set cap `M`.
    pub fn max_active(&self) -> usize {
        self.max_active
    }

    /// Number of clusters currently active (not yet sealed).
    pub fn active_clusters(&self) -> usize {
        self.active.len()
    }

    /// Every cluster so far, spilled and active, as its id and members —
    /// borrowed, unsorted: spilled clusters in spill order, then the active
    /// set in its slot order.
    ///
    /// What a reader may rely on: ids are dense from 0 in opening order,
    /// each id is yielded exactly once, and a cluster's members only ever
    /// grow at the end, so `members[0]` (the representative) never changes.
    /// A reader that remembers how many members it saw per id can therefore
    /// pick up exactly the members added since.
    pub fn clusters(&self) -> impl Iterator<Item = (ClusterId, &[ClusterMember])> {
        let spilled = self.sealed.iter().map(|c| (c.id, c.members.as_slice()));
        let active = self.active.iter().map(|s| (s.id, s.members.as_slice()));
        spilled.chain(active)
    }

    /// Adds one object (identified by `item`/`tag`) with feature vector
    /// `features`; returns the cluster it was assigned to — the active
    /// cluster whose centroid is nearest among those within `T` (the first
    /// examined on an exact tie), or a new one.
    ///
    /// Every active centroid is examined — the paper's `O(M·n)` term, and
    /// what [`ClusteringStats::distance_evaluations`] counts — but an
    /// examination stops summing lanes as soon as the distance is known to
    /// exceed `min(T², nearest so far)`, which decides the same assignment
    /// as the full distance would.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or its dimension differs from earlier
    /// objects.
    pub fn add(&mut self, item: u64, tag: u64, features: &[f32]) -> ClusterId {
        assert!(!features.is_empty(), "features must not be empty");
        let dim = *self.dim.get_or_insert(features.len());
        assert_eq!(dim, features.len(), "feature dimension changed mid-stream");
        self.objects += 1;
        let member = ClusterMember { item, tag };
        let threshold_sq = self.threshold * self.threshold;
        let mut best: Option<(usize, f32)> = None;
        // `min(T², nearest so far)`: a centroid farther than this cannot be
        // chosen.
        let mut bound = threshold_sq;
        for (idx, centroid) in self.centroids.chunks_exact(dim).enumerate() {
            self.distance_evaluations += 1;
            let d = bounded_squared_distance(centroid, features, bound);
            if d <= threshold_sq && best.map(|(_, bd)| d < bd).unwrap_or(true) {
                best = Some((idx, d));
                bound = d;
            }
        }
        if let Some((idx, _)) = best {
            let cluster = &mut self.active[idx];
            for (s, f) in cluster.sum.iter_mut().zip(features.iter()) {
                *s += f;
            }
            cluster.members.push(member);
            cluster.last_update = self.objects as u64;
            let n = cluster.members.len() as f32;
            let centroid = &mut self.centroids[idx * dim..(idx + 1) * dim];
            for (c, s) in centroid.iter_mut().zip(cluster.sum.iter()) {
                *c = s / n;
            }
            return cluster.id;
        }
        // No cluster close enough: open a new one.
        let id = ClusterId(self.next_id);
        self.next_id += 1;
        self.centroids.extend_from_slice(features);
        self.active.push(ClusterState {
            id,
            sum: features.to_vec(),
            members: vec![member],
            last_update: self.objects as u64,
        });
        if self.active.len() > self.max_active {
            self.spill_one(dim);
        }
        id
    }

    /// Seals one active cluster, moving it to the output set. This is the
    /// paper's "keep the number of clusters at a constant M by removing the
    /// smallest ones and storing their data in the top-K index", with one
    /// refinement for small `M`: clusters that absorbed an object very
    /// recently are protected, because the smallest cluster is otherwise
    /// almost always the one that is *currently being formed* (evicting it
    /// would shatter ongoing tracks into singleton clusters). Among the
    /// non-recent clusters the smallest is sealed, oldest first on ties.
    fn spill_one(&mut self, dim: usize) {
        let cutoff = (self.objects as u64).saturating_sub(SPILL_RECENCY_GRACE);
        let Some((idx, _)) = self.active.iter().enumerate().min_by_key(|(_, c)| {
            let recently_updated = c.last_update >= cutoff;
            (recently_updated, c.members.len(), c.last_update)
        }) else {
            return;
        };
        // `swap_remove` on both: the last cluster's row moves into the hole.
        let last = self.active.len() - 1;
        let state = self.active.swap_remove(idx);
        self.sealed
            .push(state.into_cluster(&self.centroids[idx * dim..(idx + 1) * dim]));
        self.centroids
            .copy_within(last * dim..(last + 1) * dim, idx * dim);
        self.centroids.truncate(last * dim);
        self.spilled += 1;
    }

    /// Finishes clustering, returning every cluster (sealed and active).
    pub fn finish(mut self) -> (Vec<Cluster>, ClusteringStats) {
        let mut clusters = std::mem::take(&mut self.sealed);
        if let Some(dim) = self.dim {
            clusters.extend(
                self.active
                    .into_iter()
                    .zip(self.centroids.chunks_exact(dim))
                    .map(|(state, centroid)| state.into_cluster(centroid)),
            );
        }
        clusters.sort_by_key(|c| c.id);
        let stats = ClusteringStats {
            objects: self.objects,
            clusters: clusters.len(),
            spilled: self.spilled,
            mean_cluster_size: if clusters.is_empty() {
                0.0
            } else {
                self.objects as f64 / clusters.len() as f64
            },
            distance_evaluations: self.distance_evaluations,
        };
        (clusters, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(values: &[f32]) -> Vec<f32> {
        values.to_vec()
    }

    #[test]
    fn first_object_opens_first_cluster() {
        let mut c = IncrementalClusterer::new(1.0, 16);
        let id = c.add(1, 100, &point(&[0.0, 0.0]));
        assert_eq!(id, ClusterId(0));
        let (clusters, stats) = c.finish();
        assert_eq!(clusters.len(), 1);
        assert_eq!(stats.objects, 1);
        assert_eq!(
            clusters[0].representative(),
            ClusterMember { item: 1, tag: 100 }
        );
    }

    #[test]
    fn close_objects_join_far_objects_split() {
        let mut c = IncrementalClusterer::new(1.0, 16);
        let a = c.add(1, 0, &point(&[0.0, 0.0]));
        let b = c.add(2, 0, &point(&[0.1, 0.1]));
        let d = c.add(3, 0, &point(&[10.0, 10.0]));
        assert_eq!(a, b);
        assert_ne!(a, d);
        let (clusters, stats) = c.finish();
        assert_eq!(clusters.len(), 2);
        assert_eq!(stats.clusters, 2);
        assert!((stats.mean_cluster_size - 1.5).abs() < 1e-9);
    }

    #[test]
    fn centroid_is_running_mean() {
        let mut c = IncrementalClusterer::new(10.0, 16);
        c.add(1, 0, &point(&[0.0, 0.0]));
        c.add(2, 0, &point(&[2.0, 0.0]));
        c.add(3, 0, &point(&[4.0, 0.0]));
        let (clusters, _) = c.finish();
        assert_eq!(clusters.len(), 1);
        assert!((clusters[0].centroid[0] - 2.0).abs() < 1e-6);
        assert!((clusters[0].centroid[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn zero_threshold_separates_distinct_points() {
        let mut c = IncrementalClusterer::new(0.0, 100);
        c.add(1, 0, &point(&[0.0]));
        c.add(2, 0, &point(&[0.0]));
        c.add(3, 0, &point(&[1.0]));
        let (clusters, _) = c.finish();
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn active_set_is_capped_and_spills_smallest() {
        let mut c = IncrementalClusterer::new(0.1, 2);
        // Three mutually distant clusters; the cap is 2, so one gets sealed.
        for i in 0..5 {
            c.add(i, 0, &point(&[0.0, 0.0]));
        }
        c.add(100, 0, &point(&[100.0, 0.0]));
        assert_eq!(c.active_clusters(), 2);
        c.add(200, 0, &point(&[200.0, 0.0]));
        assert_eq!(c.active_clusters(), 2, "cap must hold after spill");
        let (clusters, stats) = c.finish();
        assert_eq!(clusters.len(), 3);
        assert_eq!(stats.spilled, 1);
        // Every object is in exactly one cluster.
        let total: usize = clusters.iter().map(|cl| cl.len()).sum();
        assert_eq!(total, stats.objects);
    }

    #[test]
    fn spilled_cluster_does_not_absorb_new_members() {
        let mut c = IncrementalClusterer::new(0.5, 1);
        c.add(1, 0, &point(&[0.0]));
        c.add(2, 0, &point(&[50.0])); // spills the first cluster
        c.add(3, 0, &point(&[0.0])); // first cluster is sealed; opens a new one
        let (clusters, _) = c.finish();
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn stats_count_distance_evaluations_linear_in_active_set() {
        let mut c = IncrementalClusterer::new(0.1, 4);
        for i in 0..100u64 {
            c.add(i, 0, &point(&[(i % 4) as f32 * 100.0, 0.0]));
        }
        let (_, stats) = c.finish();
        // Each add scans at most `max_active` centroids.
        assert!(stats.distance_evaluations <= 100 * 4);
        assert_eq!(stats.objects, 100);
    }

    #[test]
    #[should_panic(expected = "feature dimension changed")]
    fn dimension_mismatch_panics() {
        let mut c = IncrementalClusterer::new(1.0, 4);
        c.add(1, 0, &point(&[0.0, 0.0]));
        c.add(2, 0, &point(&[0.0]));
    }

    #[test]
    #[should_panic(expected = "features must not be empty")]
    fn empty_features_panic() {
        let mut c = IncrementalClusterer::new(1.0, 4);
        c.add(1, 0, &[]);
    }

    #[test]
    #[should_panic(expected = "max_active must be positive")]
    fn zero_cap_panics() {
        let _ = IncrementalClusterer::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "threshold must be a non-negative finite number")]
    fn negative_threshold_panics() {
        let _ = IncrementalClusterer::new(-1.0, 4);
    }

    #[test]
    fn finish_on_empty_clusterer() {
        let (clusters, stats) = IncrementalClusterer::new(1.0, 4).finish();
        assert!(clusters.is_empty());
        assert_eq!(stats.objects, 0);
        assert_eq!(stats.mean_cluster_size, 0.0);
    }

    #[test]
    fn object_joins_nearest_qualifying_cluster() {
        let mut c = IncrementalClusterer::new(2.0, 16);
        let a = c.add(1, 0, &point(&[0.0]));
        let b = c.add(2, 0, &point(&[3.0]));
        assert_ne!(a, b, "3.0 exceeds the threshold, so a new cluster opens");
        // 1.9 is within the threshold of both centroids (0 and 3) but closer
        // to the second one.
        let joined = c.add(3, 0, &point(&[1.9]));
        assert_eq!(joined, b);
        assert_ne!(joined, a);
    }

    #[test]
    fn a_partial_sum_at_the_bound_is_not_a_verdict() {
        // Nine lanes, so the first look at the bound comes with one lane
        // still to add. After eight lanes both points sit at exactly T² = 4
        // from the origin; only the full sum tells them apart.
        let mut c = IncrementalClusterer::new(2.0, 16);
        let origin = c.add(0, 0, &[0.0; 9]);
        let mut at_t = [0.0f32; 9];
        at_t[0] = 2.0;
        let mut beyond_t = at_t;
        beyond_t[8] = 1.0;
        assert_ne!(
            c.add(1, 0, &beyond_t),
            origin,
            "distance² 5 is outside T² 4"
        );
        let mut c = IncrementalClusterer::new(2.0, 16);
        let origin = c.add(0, 0, &[0.0; 9]);
        assert_eq!(c.add(1, 0, &at_t), origin, "a point exactly at T joins");
    }

    #[test]
    fn spilling_keeps_centroid_rows_with_their_clusters() {
        // Cap 2: opening the third cluster seals the oldest singleton
        // (cluster 0) and moves the last row into its place. Cluster 1 must
        // still answer with its own centroid afterwards.
        let mut c = IncrementalClusterer::new(0.5, 2);
        c.add(0, 0, &point(&[0.0, 0.0]));
        let b = c.add(1, 0, &point(&[10.0, 0.0]));
        let d = c.add(2, 0, &point(&[20.0, 0.0]));
        assert_eq!(c.add(3, 0, &point(&[10.25, 0.0])), b);
        assert_eq!(c.add(4, 0, &point(&[20.25, 0.0])), d);
        let (clusters, stats) = c.finish();
        assert_eq!(stats.spilled, 1);
        let centroids: Vec<f32> = clusters.iter().map(|cl| cl.centroid[0]).collect();
        assert_eq!(centroids, vec![0.0, 10.125, 20.125]);
    }

    /// Adds `n` points cycling over `spread` far-apart positions, so with a
    /// small cap clusters keep opening and spilling.
    fn spilling_clusterer(n: u64, spread: u64, cap: usize) -> IncrementalClusterer {
        let mut c = IncrementalClusterer::new(0.5, cap);
        for i in 0..n {
            c.add(i, 3 * i, &point(&[((i * 7) % spread) as f32 * 10.0, 0.0]));
        }
        c
    }

    #[test]
    fn clusters_yields_ids_dense_from_zero_once_each_and_agrees_with_finish() {
        for cap in [1, 2, 3, 64] {
            let c = spilling_clusterer(150, 11, cap);
            let mut borrowed: Vec<(ClusterId, Vec<ClusterMember>)> =
                c.clusters().map(|(id, m)| (id, m.to_vec())).collect();
            borrowed.sort_by_key(|(id, _)| *id);
            let ids: Vec<u64> = borrowed.iter().map(|(id, _)| id.0).collect();
            let (finished, stats) = c.finish();
            assert!(
                cap == 64 || stats.spilled > 0,
                "cap {cap} must force spills"
            );
            assert_eq!(
                ids,
                (0..stats.clusters as u64).collect::<Vec<_>>(),
                "cap {cap}"
            );
            let finished: Vec<_> = finished.into_iter().map(|c| (c.id, c.members)).collect();
            assert_eq!(borrowed, finished, "cap {cap}");
        }
    }

    #[test]
    fn members_are_append_only_with_a_stable_representative() {
        let mut c = IncrementalClusterer::new(0.5, 2);
        let mut seen: Vec<Vec<ClusterMember>> = Vec::new();
        for i in 0..300u64 {
            c.add(i, i, &point(&[((i * 5) % 9) as f32 * 10.0]));
            for (id, members) in c.clusters() {
                let id = id.0 as usize;
                if seen.len() <= id {
                    seen.resize(id + 1, Vec::new());
                }
                // What was seen before is still a prefix, so `members[0]`
                // never moved.
                let before = &seen[id];
                assert!(members.len() >= before.len(), "cluster {id} shrank");
                assert_eq!(&members[..before.len()], &before[..], "cluster {id}");
                seen[id] = members.to_vec();
            }
        }
        assert!(seen.len() > 2, "clusters must have spilled");
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_points() -> impl Strategy<Value = Vec<Vec<f32>>> {
        prop::collection::vec(prop::collection::vec(-100.0f32..100.0, 4), 1..200)
    }

    /// The clusterer as it was before the contiguous centroid buffer and the
    /// bounded distance: one `Vec` per centroid and the full distance to
    /// every active one. Kept as the reference [`IncrementalClusterer`] is
    /// compared against, bit for bit.
    struct FullDistanceClusterer {
        threshold: f32,
        max_active: usize,
        active: Vec<ReferenceCluster>,
        sealed: Vec<Cluster>,
        next_id: u64,
        objects: usize,
        spilled: usize,
        distance_evaluations: u64,
    }

    struct ReferenceCluster {
        cluster: Cluster,
        sum: Vec<f32>,
        last_update: u64,
    }

    impl FullDistanceClusterer {
        fn new(threshold: f32, max_active: usize) -> Self {
            Self {
                threshold,
                max_active,
                active: Vec::new(),
                sealed: Vec::new(),
                next_id: 0,
                objects: 0,
                spilled: 0,
                distance_evaluations: 0,
            }
        }

        fn add(&mut self, item: u64, tag: u64, features: &[f32]) -> ClusterId {
            self.objects += 1;
            let member = ClusterMember { item, tag };
            let threshold_sq = self.threshold * self.threshold;
            let mut best: Option<(usize, f32)> = None;
            for (idx, state) in self.active.iter().enumerate() {
                self.distance_evaluations += 1;
                let d: f32 = state
                    .cluster
                    .centroid
                    .iter()
                    .zip(features.iter())
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                if d <= threshold_sq && best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((idx, d));
                }
            }
            if let Some((idx, _)) = best {
                let state = &mut self.active[idx];
                for (s, f) in state.sum.iter_mut().zip(features.iter()) {
                    *s += f;
                }
                state.cluster.members.push(member);
                state.last_update = self.objects as u64;
                let n = state.cluster.members.len() as f32;
                for (c, s) in state.cluster.centroid.iter_mut().zip(state.sum.iter()) {
                    *c = s / n;
                }
                return state.cluster.id;
            }
            let id = ClusterId(self.next_id);
            self.next_id += 1;
            self.active.push(ReferenceCluster {
                cluster: Cluster {
                    id,
                    centroid: features.to_vec(),
                    members: vec![member],
                },
                sum: features.to_vec(),
                last_update: self.objects as u64,
            });
            if self.active.len() > self.max_active {
                let cutoff = (self.objects as u64).saturating_sub(SPILL_RECENCY_GRACE);
                let (idx, _) = self
                    .active
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| {
                        (
                            c.last_update >= cutoff,
                            c.cluster.members.len(),
                            c.last_update,
                        )
                    })
                    .unwrap();
                self.sealed.push(self.active.swap_remove(idx).cluster);
                self.spilled += 1;
            }
            id
        }

        fn finish(mut self) -> (Vec<Cluster>, ClusteringStats) {
            let mut clusters = std::mem::take(&mut self.sealed);
            clusters.extend(self.active.into_iter().map(|state| state.cluster));
            clusters.sort_by_key(|c| c.id);
            let stats = ClusteringStats {
                objects: self.objects,
                clusters: clusters.len(),
                spilled: self.spilled,
                mean_cluster_size: if clusters.is_empty() {
                    0.0
                } else {
                    self.objects as f64 / clusters.len() as f64
                },
                distance_evaluations: self.distance_evaluations,
            };
            (clusters, stats)
        }
    }

    /// Feeds `points` to both clusterers and demands the same answer at
    /// every step and at the end: assigned ids, cluster ids, member order,
    /// centroid bits and statistics.
    fn assert_matches_reference(
        points: &[Vec<f32>],
        threshold: f32,
        max_active: usize,
    ) -> Result<(), TestCaseError> {
        let mut fast = IncrementalClusterer::new(threshold, max_active);
        let mut reference = FullDistanceClusterer::new(threshold, max_active);
        for (i, p) in points.iter().enumerate() {
            prop_assert_eq!(
                fast.add(i as u64, 7 * i as u64, p),
                reference.add(i as u64, 7 * i as u64, p)
            );
        }
        let (clusters, stats) = fast.finish();
        let (expected, expected_stats) = reference.finish();
        prop_assert_eq!(stats, expected_stats);
        prop_assert_eq!(clusters.len(), expected.len());
        for (got, want) in clusters.iter().zip(&expected) {
            prop_assert_eq!(got.id, want.id);
            prop_assert_eq!(&got.members, &want.members);
            let bits = |c: &Cluster| c.centroid.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(got), bits(want));
        }
        Ok(())
    }

    fn caps() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), Just(2), Just(256)]
    }

    proptest! {
        /// Random 32-dimensional points, each fed twice (so exact
        /// duplicates, distance 0, are everywhere), at thresholds that make
        /// some join and some not.
        #[test]
        fn matches_the_full_distance_reference_on_random_points(
            points in prop::collection::vec(prop::collection::vec(-2.0f32..2.0, 32), 1..120),
            threshold in 0.0f32..16.0,
            cap in caps(),
        ) {
            let mut twice = points.clone();
            twice.extend(points);
            assert_matches_reference(&twice, threshold, cap)?;
        }

        /// Points on a half-integer lattice in 12 dimensions (so the bound
        /// is looked at after lane 8 with lanes still to add), of which only
        /// the first `varying` move: squared distances are exact multiples
        /// of 0.25, so points land exactly at `T`, partial sums land exactly
        /// on `T²` with more to come, and two centroids tie exactly.
        #[test]
        fn matches_the_full_distance_reference_on_lattice_points(
            coords in prop::collection::vec(prop::collection::vec(0usize..4, 12), 1..150),
            varying in 1usize..13,
            threshold in prop_oneof![Just(0.5f32), Just(1.0), Just(1.5), Just(2.0)],
            cap in caps(),
        ) {
            let points: Vec<Vec<f32>> = coords
                .iter()
                .map(|p| {
                    p.iter()
                        .enumerate()
                        .map(|(lane, c)| if lane < varying { *c as f32 * 0.5 } else { 0.0 })
                        .collect()
                })
                .collect();
            assert_matches_reference(&points, threshold, cap)?;
        }

        /// Every object ends up in exactly one cluster, regardless of the
        /// threshold or cap.
        #[test]
        fn every_object_assigned_exactly_once(
            points in arbitrary_points(),
            threshold in 0.0f32..50.0,
            cap in 1usize..32,
        ) {
            let mut c = IncrementalClusterer::new(threshold, cap);
            for (i, p) in points.iter().enumerate() {
                c.add(i as u64, 0, p);
            }
            let (clusters, stats) = c.finish();
            let mut seen = std::collections::HashSet::new();
            for cluster in &clusters {
                prop_assert!(!cluster.is_empty());
                for m in &cluster.members {
                    prop_assert!(seen.insert(m.item), "object assigned twice");
                }
            }
            prop_assert_eq!(seen.len(), points.len());
            prop_assert_eq!(stats.objects, points.len());
            prop_assert_eq!(stats.clusters, clusters.len());
        }

        /// The number of active clusters never exceeds the cap, and total
        /// distance evaluations stay linear in (objects × cap).
        #[test]
        fn active_cap_and_linear_work(
            points in arbitrary_points(),
            cap in 1usize..16,
        ) {
            let mut c = IncrementalClusterer::new(1.0, cap);
            for (i, p) in points.iter().enumerate() {
                c.add(i as u64, 0, p);
                prop_assert!(c.active_clusters() <= cap);
            }
            let n = points.len() as u64;
            let (_, stats) = c.finish();
            prop_assert!(stats.distance_evaluations <= n * cap as u64);
        }

        /// Cluster centroids lie within the bounding box of the data.
        #[test]
        fn centroids_inside_data_hull(
            points in arbitrary_points(),
            threshold in 0.1f32..20.0,
        ) {
            let mut c = IncrementalClusterer::new(threshold, 64);
            for (i, p) in points.iter().enumerate() {
                c.add(i as u64, 0, p);
            }
            let (clusters, _) = c.finish();
            for d in 0..4 {
                let lo = points.iter().map(|p| p[d]).fold(f32::INFINITY, f32::min);
                let hi = points.iter().map(|p| p[d]).fold(f32::NEG_INFINITY, f32::max);
                for cluster in &clusters {
                    prop_assert!(cluster.centroid[d] >= lo - 1e-3);
                    prop_assert!(cluster.centroid[d] <= hi + 1e-3);
                }
            }
        }

        /// With an infinite threshold everything lands in one cluster; with a
        /// zero threshold distinct points never merge.
        #[test]
        fn threshold_extremes(points in arbitrary_points()) {
            let mut all = IncrementalClusterer::new(f32::MAX.sqrt() / 4.0, 8);
            for (i, p) in points.iter().enumerate() {
                all.add(i as u64, 0, p);
            }
            let (clusters, _) = all.finish();
            prop_assert_eq!(clusters.len(), 1);

            let mut none = IncrementalClusterer::new(0.0, usize::MAX >> 1);
            for (i, p) in points.iter().enumerate() {
                none.add(i as u64, 0, p);
            }
            let (clusters, _) = none.finish();
            let distinct: std::collections::HashSet<Vec<u32>> = points
                .iter()
                .map(|p| p.iter().map(|f| f.to_bits()).collect())
                .collect();
            prop_assert_eq!(clusters.len(), distinct.len());
        }
    }
}
