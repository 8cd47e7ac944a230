//! The top-K inverted index.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_video::{ClassId, FrameId, ObjectId, StreamId};

use crate::cluster_store::{ClusterKey, ClusterRecord};
use crate::query::QueryFilter;
use crate::track::{TrackKey, TrackSketch};

/// A stable reference to the centroid of one matched cluster, as returned by
/// [`TopKIndex::lookup_centroids`].
///
/// The handle is what the query-serving layer caches verdicts under: the
/// `centroid` object id identifies the exact observation the ground-truth
/// CNN would classify, so two queries whose candidate sets overlap can share
/// one inference, and a re-ingested stream (which assigns fresh object ids)
/// can never be served a stale verdict by accident. The `cluster` key links
/// the verdict back to the cluster's members for result assembly.
///
/// # Examples
///
/// ```
/// use focus_index::{CentroidHandle, ClusterKey};
/// use focus_video::{FrameId, ObjectId, StreamId};
///
/// let handle = CentroidHandle {
///     cluster: ClusterKey::new(StreamId(3), 7),
///     centroid: ObjectId(42),
///     centroid_frame: FrameId(9),
/// };
/// assert_eq!(handle.centroid, ObjectId(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CentroidHandle {
    /// The matched cluster.
    pub cluster: ClusterKey,
    /// The cluster's representative object — the only member the GT-CNN
    /// classifies, and the key under which its verdict is cached.
    pub centroid: ObjectId,
    /// The frame containing the centroid object.
    pub centroid_frame: FrameId,
}

impl From<&ClusterRecord> for CentroidHandle {
    fn from(record: &ClusterRecord) -> Self {
        Self {
            cluster: record.key,
            centroid: record.centroid_object,
            centroid_frame: record.centroid_frame,
        }
    }
}

impl From<&Arc<ClusterRecord>> for CentroidHandle {
    fn from(record: &Arc<ClusterRecord>) -> Self {
        Self::from(&**record)
    }
}

/// Summary statistics of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct IndexStats {
    /// Number of cluster records stored.
    pub clusters: usize,
    /// Total number of object members across all clusters.
    pub objects: usize,
    /// Number of distinct classes with at least one posting.
    pub classes: usize,
    /// Total number of postings (class → cluster pairs).
    pub postings: usize,
}

/// The top-K index: an inverted mapping from object class to the clusters
/// whose ingest-time top-K contains that class, plus the cluster records
/// themselves.
///
/// Records are held as shared [`Arc<ClusterRecord>`]s: cloning an index,
/// merging one into another, or handing a looked-up record to a query plan
/// costs a reference-count bump per record, never a deep copy.
///
/// Serialization stores only the cluster records and track sketches; the
/// inverted postings are rebuilt on deserialization (they are derived data,
/// and JSON maps require string keys anyway).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "SerializedIndex", into = "SerializedIndex")]
pub struct TopKIndex {
    clusters: HashMap<ClusterKey, Arc<ClusterRecord>>,
    postings: HashMap<ClassId, Vec<ClusterKey>>,
    sketches: HashMap<TrackKey, TrackSketch>,
}

/// On-disk shape of [`TopKIndex`]: the records plus the per-track sketches
/// (both sorted by key for canonical output; `sketches` defaults to empty
/// so pre-track snapshots still load).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SerializedIndex {
    clusters: Vec<ClusterRecord>,
    #[serde(default)]
    sketches: Vec<TrackSketch>,
}

impl From<SerializedIndex> for TopKIndex {
    fn from(s: SerializedIndex) -> Self {
        let mut index = TopKIndex::new();
        for record in s.clusters {
            index.insert(record);
        }
        for sketch in s.sketches {
            index.insert_sketch(sketch);
        }
        index
    }
}

impl From<TopKIndex> for SerializedIndex {
    fn from(index: TopKIndex) -> Self {
        let mut clusters: Vec<ClusterRecord> = index
            .clusters
            .into_values()
            .map(Arc::unwrap_or_clone)
            .collect();
        clusters.sort_by_key(|r| r.key);
        let mut sketches: Vec<TrackSketch> = index.sketches.into_values().collect();
        sketches.sort_by_key(|s| s.key);
        SerializedIndex { clusters, sketches }
    }
}

impl TopKIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a cluster record, updating the inverted index.
    /// An owned record is wrapped once; a shared one is stored as is.
    ///
    /// Replacing an existing key removes its old postings first, so the
    /// index never accumulates stale entries.
    pub fn insert(&mut self, record: impl Into<Arc<ClusterRecord>>) {
        let record = record.into();
        if self.clusters.contains_key(&record.key) {
            self.remove(record.key);
        }
        for class in &record.top_k_classes {
            self.postings.entry(*class).or_default().push(record.key);
        }
        self.clusters.insert(record.key, record);
    }

    /// Removes a cluster record and its postings; returns the record if it
    /// existed.
    pub fn remove(&mut self, key: ClusterKey) -> Option<Arc<ClusterRecord>> {
        let record = self.clusters.remove(&key)?;
        for class in &record.top_k_classes {
            if let Some(list) = self.postings.get_mut(class) {
                list.retain(|k| *k != key);
                if list.is_empty() {
                    self.postings.remove(class);
                }
            }
        }
        Some(record)
    }

    /// Looks up a cluster record by key.
    pub fn get(&self, key: ClusterKey) -> Option<&ClusterRecord> {
        self.clusters.get(&key).map(|record| &**record)
    }

    /// All cluster records, in unspecified order.
    pub fn clusters(&self) -> impl Iterator<Item = &ClusterRecord> {
        self.clusters.values().map(|record| &**record)
    }

    /// Number of clusters stored.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Folds a per-window track sketch into the index, absorbing it into
    /// any sketch already stored for the same track (so re-inserting is a
    /// merge, never a replacement — the union over windows is what
    /// whole-life track predicates evaluate against).
    pub fn insert_sketch(&mut self, sketch: TrackSketch) {
        match self.sketches.get_mut(&sketch.key) {
            Some(existing) => existing.absorb(&sketch),
            None => {
                self.sketches.insert(sketch.key, sketch);
            }
        }
    }

    /// Looks up the sketch of one track.
    pub fn sketch(&self, key: TrackKey) -> Option<&TrackSketch> {
        self.sketches.get(&key)
    }

    /// All track sketches, in unspecified order.
    pub fn sketches(&self) -> impl Iterator<Item = &TrackSketch> {
        self.sketches.values()
    }

    /// Number of tracks with a sketch.
    pub fn sketch_count(&self) -> usize {
        self.sketches.len()
    }

    /// The classes that have at least one posting.
    pub fn indexed_classes(&self) -> Vec<ClassId> {
        let mut classes: Vec<ClassId> = self.postings.keys().copied().collect();
        classes.sort();
        classes
    }

    /// Clusters matching `class` under `filter`, sorted by key for
    /// deterministic iteration order. The records are the index's own
    /// shared ones: cloning a hit shares it.
    ///
    /// A cluster matches when `class` appears within the first
    /// `filter.kx.unwrap_or(stored K)` entries of its stored ranking and the
    /// camera/time restrictions admit it.
    pub fn lookup(&self, class: ClassId, filter: &QueryFilter) -> Vec<&Arc<ClusterRecord>> {
        let Some(keys) = self.postings.get(&class) else {
            return Vec::new();
        };
        let mut result: Vec<&Arc<ClusterRecord>> = keys
            .iter()
            .filter_map(|k| self.clusters.get(k))
            .filter(|r| match filter.kx {
                Some(kx) => r.matches_class(class, kx),
                None => true,
            })
            .filter(|r| filter.admits(r))
            .collect();
        result.sort_by_key(|r| r.key);
        result.dedup_by_key(|r| r.key);
        result
    }

    /// Like [`lookup`](Self::lookup), but returns stable
    /// [`CentroidHandle`]s instead of borrowed records — the shape the
    /// query-serving layer plans with and keys its cross-query verdict
    /// cache by. Handles come back sorted by cluster key, so the plan for a
    /// given `(class, filter)` is deterministic.
    ///
    /// # Examples
    ///
    /// ```
    /// use focus_index::{ClusterKey, ClusterRecord, MemberRef, QueryFilter, TopKIndex};
    /// use focus_video::{ClassId, FrameId, ObjectId, StreamId, TrackId};
    ///
    /// let mut index = TopKIndex::new();
    /// index.insert(ClusterRecord {
    ///     key: ClusterKey::new(StreamId(0), 1),
    ///     centroid_object: ObjectId(10),
    ///     centroid_frame: FrameId(5),
    ///     top_k_classes: vec![ClassId(2), ClassId(4)],
    ///     members: vec![MemberRef { object: ObjectId(10), frame: FrameId(5), track: TrackId(0) }],
    ///     start_secs: 0.0,
    ///     end_secs: 1.0,
    /// });
    ///
    /// let handles = index.lookup_centroids(ClassId(4), &QueryFilter::any());
    /// assert_eq!(handles.len(), 1);
    /// assert_eq!(handles[0].centroid, ObjectId(10));
    /// // Under kx = 1 only the top-ranked class matches.
    /// assert!(index
    ///     .lookup_centroids(ClassId(4), &QueryFilter::any().with_kx(1))
    ///     .is_empty());
    /// ```
    pub fn lookup_centroids(&self, class: ClassId, filter: &QueryFilter) -> Vec<CentroidHandle> {
        self.lookup(class, filter)
            .into_iter()
            .map(CentroidHandle::from)
            .collect()
    }

    /// Total number of objects (members) that would be returned for `class`
    /// under `filter`, without deduplicating objects shared between clusters
    /// (clusters never share objects in practice).
    pub fn matching_objects(&self, class: ClassId, filter: &QueryFilter) -> usize {
        self.lookup(class, filter).iter().map(|r| r.len()).sum()
    }

    /// Summary statistics.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            clusters: self.clusters.len(),
            objects: self.clusters.values().map(|c| c.len()).sum(),
            classes: self.postings.len(),
            postings: self.postings.values().map(|v| v.len()).sum(),
        }
    }

    /// The streams that contributed at least one cluster.
    pub fn streams(&self) -> Vec<StreamId> {
        let mut streams: Vec<StreamId> = self.clusters.keys().map(|k| k.stream).collect();
        streams.sort();
        streams.dedup();
        streams
    }

    /// Merges another index into this one (used to combine per-stream ingest
    /// outputs into a multi-camera index), returning the number of records
    /// that replaced an existing record with the same key.
    ///
    /// Per-stream ingest outputs are key-disjoint by construction (a
    /// [`ClusterKey`] embeds its stream), so callers merging shard outputs
    /// can assert the returned collision count is zero.
    pub fn merge(&mut self, other: TopKIndex) -> usize {
        let mut replaced = 0;
        for (_, record) in other.clusters {
            if self.clusters.contains_key(&record.key) {
                replaced += 1;
            }
            self.insert(record);
        }
        for (_, sketch) in other.sketches {
            self.insert_sketch(sketch);
        }
        replaced
    }

    /// Like [`merge`](Self::merge), but borrows the other index, sharing
    /// its cluster records (the inverted postings are rebuilt here, so
    /// copying them — as `other.clone()` + `merge` would — is wasted work).
    pub fn merge_from(&mut self, other: &TopKIndex) -> usize {
        let mut replaced = 0;
        for record in other.clusters.values() {
            if self.clusters.contains_key(&record.key) {
                replaced += 1;
            }
            self.insert(Arc::clone(record));
        }
        for sketch in other.sketches.values() {
            self.insert_sketch(sketch.clone());
        }
        replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_store::MemberRef;
    use focus_video::{FrameId, ObjectId, TrackId};

    fn record(
        stream: u32,
        local: u64,
        classes: &[u16],
        members: usize,
        start: f64,
    ) -> ClusterRecord {
        ClusterRecord {
            key: ClusterKey::new(StreamId(stream), local),
            centroid_object: ObjectId(local * 1000),
            centroid_frame: FrameId(local * 10),
            top_k_classes: classes.iter().map(|c| ClassId(*c)).collect(),
            members: (0..members)
                .map(|i| MemberRef {
                    object: ObjectId(local * 1000 + i as u64),
                    frame: FrameId(local * 10 + i as u64),
                    track: TrackId(local),
                })
                .collect(),
            start_secs: start,
            end_secs: start + 1.0,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[0, 2, 5], 3, 0.0));
        idx.insert(record(0, 2, &[2, 7], 2, 5.0));
        idx.insert(record(1, 3, &[0], 4, 0.0));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.lookup(ClassId(0), &QueryFilter::any()).len(), 2);
        assert_eq!(idx.lookup(ClassId(2), &QueryFilter::any()).len(), 2);
        assert_eq!(idx.lookup(ClassId(7), &QueryFilter::any()).len(), 1);
        assert!(idx.lookup(ClassId(99), &QueryFilter::any()).is_empty());
    }

    #[test]
    fn lookup_respects_stream_and_time_filters() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[0], 3, 0.0));
        idx.insert(record(1, 2, &[0], 2, 100.0));
        let only_s1 = QueryFilter::for_stream(StreamId(1));
        let found = idx.lookup(ClassId(0), &only_s1);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].key.stream, StreamId(1));
        let early = QueryFilter::any().with_time_range(0.0, 10.0);
        assert_eq!(idx.lookup(ClassId(0), &early).len(), 1);
    }

    #[test]
    fn lookup_respects_dynamic_kx() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[3, 0, 9], 3, 0.0));
        // Class 0 is at rank 2; with kx = 1 it must not match.
        assert_eq!(
            idx.lookup(ClassId(0), &QueryFilter::any().with_kx(1)).len(),
            0
        );
        assert_eq!(
            idx.lookup(ClassId(0), &QueryFilter::any().with_kx(2)).len(),
            1
        );
        assert_eq!(idx.lookup(ClassId(0), &QueryFilter::any()).len(), 1);
    }

    #[test]
    fn matching_objects_counts_members() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[0], 3, 0.0));
        idx.insert(record(0, 2, &[0], 5, 0.0));
        assert_eq!(idx.matching_objects(ClassId(0), &QueryFilter::any()), 8);
        assert_eq!(idx.matching_objects(ClassId(1), &QueryFilter::any()), 0);
    }

    #[test]
    fn reinsert_replaces_postings() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[0, 1], 3, 0.0));
        idx.insert(record(0, 1, &[2], 3, 0.0));
        assert_eq!(idx.len(), 1);
        assert!(idx.lookup(ClassId(0), &QueryFilter::any()).is_empty());
        assert!(idx.lookup(ClassId(1), &QueryFilter::any()).is_empty());
        assert_eq!(idx.lookup(ClassId(2), &QueryFilter::any()).len(), 1);
        let stats = idx.stats();
        assert_eq!(stats.postings, 1);
        assert_eq!(stats.classes, 1);
    }

    #[test]
    fn remove_cleans_postings() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[0, 1], 3, 0.0));
        let removed = idx.remove(ClusterKey::new(StreamId(0), 1));
        assert!(removed.is_some());
        assert!(idx.is_empty());
        assert!(idx.indexed_classes().is_empty());
        assert!(idx.remove(ClusterKey::new(StreamId(0), 1)).is_none());
    }

    #[test]
    fn stats_and_streams() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[0, 2], 3, 0.0));
        idx.insert(record(1, 2, &[2], 2, 0.0));
        let stats = idx.stats();
        assert_eq!(stats.clusters, 2);
        assert_eq!(stats.objects, 5);
        assert_eq!(stats.classes, 2);
        assert_eq!(stats.postings, 3);
        assert_eq!(idx.streams(), vec![StreamId(0), StreamId(1)]);
        assert_eq!(idx.indexed_classes(), vec![ClassId(0), ClassId(2)]);
    }

    #[test]
    fn merge_combines_indexes() {
        let mut a = TopKIndex::new();
        a.insert(record(0, 1, &[0], 3, 0.0));
        let mut b = TopKIndex::new();
        b.insert(record(1, 1, &[0], 2, 0.0));
        assert_eq!(a.merge(b), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.lookup(ClassId(0), &QueryFilter::any()).len(), 2);
    }

    #[test]
    fn merge_reports_key_collisions() {
        let mut a = TopKIndex::new();
        a.insert(record(0, 1, &[0], 3, 0.0));
        let mut b = TopKIndex::new();
        b.insert(record(0, 1, &[2], 2, 0.0));
        b.insert(record(0, 2, &[2], 2, 0.0));
        assert_eq!(a.merge(b), 1);
        assert_eq!(a.len(), 2);
        // The colliding record replaced the original, postings included.
        assert!(a.lookup(ClassId(0), &QueryFilter::any()).is_empty());
        assert_eq!(a.lookup(ClassId(2), &QueryFilter::any()).len(), 2);
    }

    #[test]
    fn merge_from_borrows_and_matches_owning_merge() {
        let mut owned = TopKIndex::new();
        owned.insert(record(0, 1, &[0], 3, 0.0));
        let mut borrowed = owned.clone();
        let mut other = TopKIndex::new();
        other.insert(record(1, 1, &[0, 2], 2, 5.0));
        other.insert(record(0, 1, &[7], 1, 9.0));
        assert_eq!(borrowed.merge_from(&other), 1);
        assert_eq!(owned.merge(other), 1);
        assert_eq!(owned.stats(), borrowed.stats());
        for record in owned.clusters() {
            assert_eq!(borrowed.get(record.key), Some(record));
        }
    }

    #[test]
    fn lookup_centroids_mirrors_lookup() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 2, &[0, 3], 2, 5.0));
        idx.insert(record(0, 1, &[0], 3, 0.0));
        idx.insert(record(1, 9, &[7], 1, 0.0));
        let handles = idx.lookup_centroids(ClassId(0), &QueryFilter::any());
        let records = idx.lookup(ClassId(0), &QueryFilter::any());
        assert_eq!(handles.len(), records.len());
        for (handle, record) in handles.iter().zip(records.iter()) {
            assert_eq!(handle.cluster, record.key);
            assert_eq!(handle.centroid, record.centroid_object);
            assert_eq!(handle.centroid_frame, record.centroid_frame);
        }
        // Sorted by cluster key, like lookup.
        assert!(handles.windows(2).all(|w| w[0].cluster < w[1].cluster));
        // Filters apply identically.
        let filtered =
            idx.lookup_centroids(ClassId(0), &QueryFilter::any().with_time_range(0.0, 1.0));
        assert_eq!(filtered.len(), 1);
        assert!(idx
            .lookup_centroids(ClassId(99), &QueryFilter::any())
            .is_empty());
    }

    #[test]
    fn lookup_order_is_deterministic() {
        let mut idx = TopKIndex::new();
        for local in (0..20).rev() {
            idx.insert(record(0, local, &[0], 1, local as f64));
        }
        let keys: Vec<ClusterKey> = idx
            .lookup(ClassId(0), &QueryFilter::any())
            .iter()
            .map(|r| r.key)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn insert_sketch_absorbs_same_track_windows() {
        use crate::track::{TrackKey, TrackSketch};
        let mut idx = TopKIndex::new();
        let key = TrackKey::new(StreamId(0), TrackId(4));
        idx.insert_sketch(TrackSketch::first(key, 0.0, 10.0, 10.0));
        idx.insert_sketch(TrackSketch::first(key, 3.0, 300.0, 10.0));
        assert_eq!(idx.sketch_count(), 1);
        let s = idx.sketch(key).unwrap();
        assert_eq!(s.observations, 2);
        assert_eq!(s.t_start, 0.0);
        assert_eq!(s.t_end, 3.0);
        assert_eq!(s.cells.len(), 2);
        assert!(idx.sketch(TrackKey::new(StreamId(1), TrackId(4))).is_none());
    }

    #[test]
    fn sketches_survive_serialization_and_merge() {
        use crate::track::{TrackKey, TrackSketch};
        let mut a = TopKIndex::new();
        a.insert(record(0, 1, &[0], 2, 0.0));
        a.insert_sketch(TrackSketch::first(
            TrackKey::new(StreamId(0), TrackId(1)),
            0.0,
            5.0,
            5.0,
        ));
        let json = crate::persist::to_json(&a).unwrap();
        let restored = crate::persist::from_json(&json).unwrap();
        assert_eq!(restored.sketch_count(), 1);
        assert_eq!(crate::persist::to_json(&restored).unwrap(), json);

        // Merging indexes absorbs same-track sketches instead of replacing.
        let mut b = TopKIndex::new();
        b.insert(record(1, 1, &[0], 1, 5.0));
        b.insert_sketch(TrackSketch::first(
            TrackKey::new(StreamId(0), TrackId(1)),
            2.0,
            200.0,
            5.0,
        ));
        b.insert_sketch(TrackSketch::first(
            TrackKey::new(StreamId(1), TrackId(1)),
            5.0,
            5.0,
            5.0,
        ));
        let mut borrowed = a.clone();
        assert_eq!(borrowed.merge_from(&b), 0);
        assert_eq!(a.merge(b), 0);
        assert_eq!(a.sketch_count(), 2);
        assert_eq!(
            a.sketch(TrackKey::new(StreamId(0), TrackId(1)))
                .unwrap()
                .observations,
            2
        );
        assert_eq!(
            crate::persist::to_json(&a).unwrap(),
            crate::persist::to_json(&borrowed).unwrap()
        );
    }
}
