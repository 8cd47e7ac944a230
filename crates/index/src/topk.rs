//! The top-K inverted index.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation, StreamId};

use crate::cluster_store::{ClusterKey, ClusterRecord};
use crate::query::QueryFilter;
use crate::track::{TrackKey, TrackSketch};

/// A stable reference to the centroid of one matched cluster, taken from its
/// record (`CentroidHandle::from`).
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
/// themselves and the centroid observation behind each record (what the
/// ground-truth CNN classifies at query time, §4).
///
/// Records are held as shared [`Arc<ClusterRecord>`]s: cloning an index,
/// merging one into another, or handing a looked-up record to a query plan
/// costs a reference-count bump per record, never a deep copy.
///
/// Serialization stores only the cluster records, track sketches and
/// centroid observations; the inverted postings are rebuilt on
/// deserialization (they are derived data, and JSON maps require string
/// keys anyway).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "SerializedIndex", into = "SerializedIndex")]
pub struct TopKIndex {
    clusters: HashMap<ClusterKey, Arc<ClusterRecord>>,
    postings: HashMap<ClassId, Vec<ClusterKey>>,
    sketches: HashMap<TrackKey, TrackSketch>,
    centroids: HashMap<ObjectId, ObjectObservation>,
}

/// On-disk shape of [`TopKIndex`]: the records, the per-track sketches and
/// the centroid observations (each sorted by key for canonical output;
/// `sketches` and `centroids` default to empty so older snapshots still
/// load).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SerializedIndex {
    clusters: Vec<ClusterRecord>,
    #[serde(default)]
    sketches: Vec<TrackSketch>,
    #[serde(default)]
    centroids: Vec<ObjectObservation>,
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
        for centroid in s.centroids {
            index.insert_centroid(centroid);
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
        let mut centroids: Vec<ObjectObservation> = index.centroids.into_values().collect();
        centroids.sort_by_key(|o| o.object_id);
        SerializedIndex {
            clusters,
            sketches,
            centroids,
        }
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
    /// Replacing an existing key [`remove`](Self::remove)s the old record
    /// first, so the index never accumulates stale entries. A record's
    /// centroid observation goes in through
    /// [`insert_centroid`](Self::insert_centroid).
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

    /// Swaps `record` in for the stored record with the same key, provided
    /// both have the same shape — equal `top_k_classes` and
    /// `centroid_object` — so the postings and the centroid observation stay
    /// as they are (O(1), where [`insert`](Self::insert) on a stored key
    /// rewrites every posting list the old record was on). Returns whether
    /// it swapped; an index without a same-shape record is left unchanged.
    pub fn replace_same_shape(&mut self, record: impl Into<Arc<ClusterRecord>>) -> bool {
        let record = record.into();
        match self.clusters.get_mut(&record.key) {
            Some(stored)
                if stored.top_k_classes == record.top_k_classes
                    && stored.centroid_object == record.centroid_object =>
            {
                *stored = record;
                true
            }
            _ => false,
        }
    }

    /// Removes a cluster record, its postings and its centroid observation;
    /// returns the record if it existed.
    pub fn remove(&mut self, key: ClusterKey) -> Option<Arc<ClusterRecord>> {
        let record = self.clusters.remove(&key)?;
        self.centroids.remove(&record.centroid_object);
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

    /// Looks up a cluster record by key, as the index's own shared record:
    /// cloning the result shares it.
    pub fn get(&self, key: ClusterKey) -> Option<&Arc<ClusterRecord>> {
        self.clusters.get(&key)
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

    /// Drops every track sketch, leaving records, postings and centroid
    /// observations as they are. Because [`insert_sketch`](Self::insert_sketch)
    /// merges, this is how a caller replaces the sketches wholesale.
    pub fn clear_sketches(&mut self) {
        self.sketches.clear();
    }

    /// Stores the centroid observation of a record (keyed by its object
    /// id, replacing any earlier one).
    pub fn insert_centroid(&mut self, observation: ObjectObservation) {
        self.centroids.insert(observation.object_id, observation);
    }

    /// The centroid observation stored under object `id`.
    pub fn centroid(&self, id: ObjectId) -> Option<&ObjectObservation> {
        self.centroids.get(&id)
    }

    /// All centroid observations, in unspecified order.
    pub fn centroids(&self) -> impl Iterator<Item = &ObjectObservation> {
        self.centroids.values()
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
        self.centroids.extend(other.centroids);
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
        self.centroids
            .extend(other.centroids().map(|o| (o.object_id, o.clone())));
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
    fn replace_same_shape_keeps_postings_and_centroid() {
        let mut idx = TopKIndex::new();
        idx.insert(record(0, 1, &[0, 1], 3, 0.0));
        idx.insert_centroid(ObjectObservation {
            object_id: ObjectId(1000),
            ..ObjectObservation::default()
        });
        let postings = idx.stats();
        // Same classes and centroid, more members: swapped in place.
        let grown = record(0, 1, &[0, 1], 5, 0.0);
        assert!(idx.replace_same_shape(grown.clone()));
        assert_eq!(idx.get(grown.key).map(|r| &**r), Some(&grown));
        assert_eq!(idx.stats().postings, postings.postings);
        assert_eq!(idx.stats().objects, 5);
        assert!(idx.centroid(ObjectId(1000)).is_some());
        assert_eq!(idx.lookup(ClassId(1), &QueryFilter::any()).len(), 1);
        // A different shape, or no stored record, changes nothing.
        assert!(!idx.replace_same_shape(record(0, 1, &[2], 5, 0.0)));
        assert!(!idx.replace_same_shape(record(0, 2, &[0, 1], 5, 0.0)));
        assert_eq!(idx.get(grown.key).map(|r| &**r), Some(&grown));
        assert_eq!(idx.len(), 1);
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
            assert_eq!(borrowed.get(record.key).map(|r| &**r), Some(record));
        }
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
    fn centroids_travel_with_their_records() {
        let observation = |id| ObjectObservation {
            object_id: ObjectId(id),
            ..ObjectObservation::default()
        };
        let mut a = TopKIndex::new();
        a.insert(record(0, 1, &[0], 2, 0.0));
        a.insert_centroid(observation(1000));
        // Replacing a record replaces its centroid too.
        a.insert(record(0, 1, &[2], 2, 0.0));
        assert!(a.centroid(ObjectId(1000)).is_none());
        a.insert_centroid(observation(1000));

        let mut b = TopKIndex::new();
        b.insert(record(1, 2, &[0], 1, 5.0));
        b.insert_centroid(observation(2000));
        let mut borrowed = a.clone();
        borrowed.merge_from(&b);
        a.merge(b);
        assert_eq!(a.centroids().count(), 2);
        let json = crate::persist::to_json(&a).unwrap();
        assert_eq!(json, crate::persist::to_json(&borrowed).unwrap());
        let restored = crate::persist::from_json(&json).unwrap();
        assert_eq!(restored.centroid(ObjectId(2000)), Some(&observation(2000)));
        assert_eq!(crate::persist::to_json(&restored).unwrap(), json);

        // Removing a record drops its centroid.
        a.remove(ClusterKey::new(StreamId(1), 2));
        assert!(a.centroid(ObjectId(2000)).is_none());
        assert_eq!(a.centroids().count(), 1);
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
        // Clearing is the only way to replace rather than absorb.
        idx.clear_sketches();
        idx.insert_sketch(TrackSketch::first(key, 3.0, 300.0, 10.0));
        assert_eq!(idx.sketch(key).unwrap().observations, 1);
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
