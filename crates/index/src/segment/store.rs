//! The manifest commit: what is live. Sealing and compaction write segment
//! files atomically and then commit them to the manifest — a seal by one
//! append to the manifest log, a compaction by a checkpoint; `load` and
//! `merged_index` read live segments back, uncached.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::binseg;
use crate::fs::{Fs, OsFs};
use crate::manifest::{
    fnv1a64, Manifest, SegmentFormat, SegmentMeta, MANIFEST_FILE, MANIFEST_LOG_FILE,
    MANIFEST_VERSION,
};
use crate::persist::PersistError;
use crate::topk::TopKIndex;

use super::read::{blocks_of, TieredCache, DEFAULT_DECODED_CACHE_BYTES, DEFAULT_RAW_CACHE_BYTES};
use super::{check_disjoint, SegmentError, SegmentStore};

impl SegmentStore {
    /// Creates a fresh, empty store at `dir` (creating the directory if
    /// needed) and writes its initial manifest: an empty checkpoint and an
    /// empty log.
    ///
    /// Fails with an I/O error if `dir` already contains a manifest — use
    /// [`open`](Self::open) for an existing store.
    pub fn create(dir: impl Into<PathBuf>) -> Result<SegmentStore, SegmentError> {
        Self::create_with(Arc::new(OsFs), dir.into())
    }

    /// [`create`](Self::create) on `fs`, which the store keeps.
    pub fn create_with(fs: Arc<dyn Fs>, dir: PathBuf) -> Result<SegmentStore, SegmentError> {
        fs.create_dir_all(&dir)
            .map_err(|e| PersistError::io(&dir, e))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let exists = fs
            .exists(&manifest_path)
            .map_err(|e| PersistError::io(&manifest_path, e))?;
        if exists {
            return Err(SegmentError::Persist(PersistError::io(
                &manifest_path,
                std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    "store already exists; use SegmentStore::open",
                ),
            )));
        }
        let mut store = SegmentStore {
            fs,
            dir,
            manifest: Manifest::new(),
            checkpoint_due: true,
            footers: HashMap::new(),
            cache: Mutex::new(TieredCache::new(
                DEFAULT_DECODED_CACHE_BYTES,
                DEFAULT_RAW_CACHE_BYTES,
            )),
        };
        store.checkpoint()?;
        Ok(store)
    }

    /// The one checkpoint body: writes the live list to `MANIFEST.json`
    /// atomically, at the current version, then resets `MANIFEST.log` to
    /// empty. A crash between the two leaves a log whose records the new
    /// checkpoint already covers, which the next open skips by id. Until
    /// both writes succeed, the next commit is a checkpoint too.
    pub(super) fn checkpoint(&mut self) -> Result<(), PersistError> {
        self.checkpoint_due = true;
        self.manifest.version = MANIFEST_VERSION;
        self.manifest
            .save(&*self.fs, &self.dir.join(MANIFEST_FILE))?;
        let log = self.dir.join(MANIFEST_LOG_FILE);
        self.fs
            .write_atomic(&log, b"")
            .map_err(|e| PersistError::io(&log, e))?;
        self.checkpoint_due = false;
        Ok(())
    }

    /// Commits `meta`, a segment whose file is written, to the manifest:
    /// appends its entry to the log, or writes a checkpoint when one is
    /// due. The entry is live in memory only once the commit succeeds; a
    /// failed append makes the next commit a checkpoint, which drops
    /// whatever part of the record reached the log.
    fn commit(&mut self, meta: &SegmentMeta) -> Result<(), PersistError> {
        self.manifest.segments.push(meta.clone());
        let committed = if self.checkpoint_due {
            self.checkpoint()
        } else {
            self.append_to_log(meta)
        };
        if committed.is_err() {
            self.manifest.segments.pop();
        }
        committed
    }

    /// Appends `meta`'s log record. A failed append may have left part of
    /// it behind, so it makes a checkpoint due.
    fn append_to_log(&mut self, meta: &SegmentMeta) -> Result<(), PersistError> {
        let log = self.dir.join(MANIFEST_LOG_FILE);
        let line = meta.log_line().map_err(|source| PersistError::Format {
            path: Some(log.clone()),
            source,
        })?;
        let appended = self.fs.append(&log, line.as_bytes());
        self.checkpoint_due = appended.is_err();
        appended.map_err(|e| PersistError::io(&log, e))
    }

    /// Returns the store unchanged: [`SegmentFormat::Binary`] is the only
    /// format, and this builder remains only because the benchmark's probe
    /// names it.
    pub fn with_seal_format(self, _format: SegmentFormat) -> Self {
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem the store reads and writes through; a document kept
    /// beside the store (the service's sidecar) goes through it too.
    pub fn fs(&self) -> &dyn Fs {
        &*self.fs
    }

    /// The live segments, in seal order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.manifest.segments
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Whether the store holds no segments.
    pub fn is_empty(&self) -> bool {
        self.manifest.segments.is_empty()
    }

    /// Total cluster records across all live segments.
    pub fn total_clusters(&self) -> usize {
        self.manifest.segments.iter().map(|s| s.clusters).sum()
    }

    /// Encodes `index` as the next segment, writes its file atomically,
    /// enters its footer (decoded back out of the encoder's bytes) in the
    /// directory and its blocks in the raw tier — they are in hand, so the
    /// segment's first lookup is a raw hit, not a disk read. The returned
    /// entry is not live until the caller commits it to the manifest; until
    /// then the file is an orphan [`open`](Self::open) would quarantine,
    /// and its directory and cache entries are as inert — an id is spent
    /// once its file is written, so a written id is never reused, and
    /// lookups walk the manifest. A failed write spends nothing: the retry
    /// writes the same file name.
    fn write_segment(
        &mut self,
        index: &TopKIndex,
        t_start: f64,
        t_end: f64,
    ) -> Result<SegmentMeta, SegmentError> {
        let format = SegmentFormat::Binary;
        let id = self.manifest.next_segment_id;
        let file = format.file_name(id);
        let path = self.dir.join(&file);
        let invalid = |source| SegmentError::InvalidSegment {
            path: path.clone(),
            source,
        };
        binseg::check_centroids(index).map_err(invalid)?;
        let payload = binseg::encode(index);
        let footer = binseg::footer_of(&payload).map_err(invalid)?;
        self.fs
            .write_atomic(&path, &payload)
            .map_err(|e| PersistError::io(&path, e))?;
        self.manifest.allocate_id();
        let cache = self.cache.get_mut();
        for (key, meta) in blocks_of(&footer) {
            let block = binseg::block_slice(&payload, meta).map_err(invalid)?;
            cache
                .raw
                .insert((id, key), Arc::new(block.to_vec()), meta.len);
        }
        self.footers.insert(id, Arc::new(footer));
        Ok(SegmentMeta {
            id,
            file,
            t_start,
            t_end,
            streams: index.streams(),
            clusters: index.len(),
            checksum: fnv1a64(&payload),
            format,
        })
    }

    /// Seals `index` as one new immutable segment: writes the segment file
    /// atomically, then commits it to the manifest by appending its entry
    /// to the log — one line, however many segments the store holds. An
    /// empty index seals nothing and returns `Ok(None)`. A failed commit
    /// leaves the segment unlisted (its file is an orphan the next open
    /// quarantines), so sealing the same index again lists it once.
    ///
    /// The segment's time bounds are the tight cover of the records' time
    /// ranges and its stream list is exactly the records' streams, which is
    /// what makes later pruning sound (see [`SegmentMeta::admits_filter`]).
    ///
    /// An index whose centroid section does not hold exactly one
    /// observation per record ([`binseg::check_centroids`]) is refused
    /// before anything is written: [`SegmentError::InvalidSegment`] naming
    /// the file it would have become, carrying
    /// [`BinsegError::MissingCentroid`](crate::BinsegError::MissingCentroid) with the smallest key lacking one.
    pub fn seal(&mut self, index: &TopKIndex) -> Result<Option<SegmentMeta>, SegmentError> {
        if index.is_empty() {
            return Ok(None);
        }
        let mut t_start = f64::INFINITY;
        let mut t_end = f64::NEG_INFINITY;
        for record in index.clusters() {
            t_start = t_start.min(record.start_secs);
            t_end = t_end.max(record.end_secs);
        }
        let meta = self.write_segment(index, t_start, t_end)?;
        self.commit(&meta)?;
        Ok(Some(meta))
    }

    /// Reads segment `id` whole, verifies its manifest checksum and decodes
    /// it. An uncached reader for tests and inspection: it neither consults
    /// nor fills the cache tiers, whose unit is the block.
    ///
    /// Segment files are binary; to read one as text, render the loaded
    /// index in its canonical JSON form:
    ///
    /// ```
    /// use focus_index::{persist, ClusterKey, ClusterRecord, MemberRef, SegmentStore, TopKIndex};
    /// use focus_video::{ClassId, FrameId, ObjectId, ObjectObservation, StreamId, TrackId};
    ///
    /// let fs = std::sync::Arc::new(focus_index::MemFs::default());
    /// let mut store = SegmentStore::create_with(fs, "/store".into()).unwrap();
    /// let mut seg = TopKIndex::new();
    /// seg.insert_centroid(ObjectObservation { object_id: ObjectId(0), ..Default::default() });
    /// seg.insert(ClusterRecord {
    ///     key: ClusterKey::new(StreamId(0), 0),
    ///     centroid_object: ObjectId(0),
    ///     centroid_frame: FrameId(0),
    ///     top_k_classes: vec![ClassId(7)],
    ///     members: vec![MemberRef { object: ObjectId(0), frame: FrameId(0), track: TrackId(0) }],
    ///     start_secs: 0.0,
    ///     end_secs: 10.0,
    /// });
    /// let id = store.seal(&seg).unwrap().unwrap().id;
    ///
    /// let text = persist::to_json(&store.load(id).unwrap()).unwrap();
    /// assert!(text.starts_with("{\"version\":1,"));
    /// assert_eq!(text, persist::to_json(&seg).unwrap());
    /// ```
    pub fn load(&self, id: u64) -> Result<TopKIndex, SegmentError> {
        let meta = self
            .manifest
            .segment(id)
            .ok_or(SegmentError::UnknownSegment { id })?;
        self.read_segment(meta)
    }

    /// [`load`](Self::load) for a live segment's manifest entry. The
    /// footer comes from the directory: the whole-file checksum vouches
    /// that the bytes are the ones it was decoded from.
    fn read_segment(&self, meta: &SegmentMeta) -> Result<TopKIndex, SegmentError> {
        let path = self.dir.join(&meta.file);
        let bytes = self
            .fs
            .read(&path)
            .map_err(|e| PersistError::io(&path, e))?;
        let found = fnv1a64(&bytes);
        if found != meta.checksum {
            return Err(SegmentError::Corrupt {
                path,
                expected: meta.checksum,
                found,
            });
        }
        binseg::decode_vouched(&bytes, self.footer(meta.id)?)
            .map_err(|source| SegmentError::InvalidSegment { path, source })
    }

    /// Reads `segments` (uncached) and merges them into one index. They
    /// must be key-disjoint: a key two of them hold is
    /// [`SegmentError::DuplicateKey`] naming both.
    fn merge_segments(&self, segments: &[SegmentMeta]) -> Result<TopKIndex, SegmentError> {
        let mut merged = TopKIndex::new();
        let mut keys = Vec::new();
        for meta in segments {
            let index = self.read_segment(meta)?;
            keys.extend(index.clusters().map(|record| (record.key, meta.id)));
            merged.merge(index);
        }
        check_disjoint(keys)?;
        Ok(merged)
    }

    /// Merges every live segment into one in-memory index (manifest order).
    /// This is the reference the pruned query path is tested against, and
    /// an inspection tool for callers that want the whole corpus in memory;
    /// it reads and decodes every segment again, uncached, so recovery does
    /// not use it ([`open_scanning`](Self::open_scanning) checks records in
    /// the open's own pass). Segments sharing a key are
    /// [`SegmentError::DuplicateKey`].
    pub fn merged_index(&self) -> Result<TopKIndex, SegmentError> {
        self.merge_segments(&self.manifest.segments)
    }

    /// Folds runs of adjacent small segments into larger ones: consecutive
    /// segments (in seal order) whose combined record count stays within
    /// `max_clusters` are merged into a single new segment. Query results are
    /// unchanged — the same records end up live, in fewer files.
    ///
    /// Crash-safe in the same way as sealing: each replacement segment file
    /// is written atomically before a checkpoint commits the swap, and the
    /// obsolete files are deleted only afterwards (a crash in between leaves
    /// orphans that the next [`open`](Self::open) quarantines).
    ///
    /// Returns the number of segments folded away (old segments removed
    /// minus replacements added). A run whose segments share a key is
    /// refused with [`SegmentError::DuplicateKey`] before its replacement
    /// is written, and the manifest is left as it was.
    pub fn compact(&mut self, max_clusters: usize) -> Result<usize, SegmentError> {
        // Work on a copy: the live segment list must stay intact if any
        // write below fails (replacement files already written become
        // orphans that the next open() quarantines — never data loss).
        let old = self.manifest.segments.clone();
        let before = old.len();
        let mut new_segments: Vec<SegmentMeta> = Vec::with_capacity(before);
        let mut obsolete: Vec<SegmentMeta> = Vec::new();
        let mut run: Vec<SegmentMeta> = Vec::new();
        let mut run_clusters = 0usize;

        // Writes a run back: runs of one keep their segment untouched; runs
        // of two or more are merged into a freshly sealed replacement.
        let flush = |this: &mut Self,
                     run: &mut Vec<SegmentMeta>,
                     new_segments: &mut Vec<SegmentMeta>,
                     obsolete: &mut Vec<SegmentMeta>|
         -> Result<(), SegmentError> {
            if run.len() < 2 {
                new_segments.append(run);
                return Ok(());
            }
            let merged = this.merge_segments(run)?;
            let t_start = run.iter().map(|m| m.t_start).fold(f64::INFINITY, f64::min);
            let t_end = run
                .iter()
                .map(|m| m.t_end)
                .fold(f64::NEG_INFINITY, f64::max);
            let meta = this.write_segment(&merged, t_start, t_end)?;
            obsolete.append(run);
            new_segments.push(meta);
            Ok(())
        };

        for meta in old.iter().cloned() {
            if !run.is_empty() && run_clusters + meta.clusters > max_clusters {
                flush(self, &mut run, &mut new_segments, &mut obsolete)?;
                run_clusters = 0;
            }
            run_clusters += meta.clusters;
            run.push(meta);
        }
        flush(self, &mut run, &mut new_segments, &mut obsolete)?;

        if obsolete.is_empty() {
            return Ok(0);
        }
        // Commit: swap the list in memory, checkpoint it, then retire the
        // old files. A failed checkpoint restores the old list, and the
        // next commit checkpoints it again.
        self.manifest.segments = new_segments;
        if let Err(e) = self.checkpoint() {
            self.manifest.segments = old;
            return Err(e.into());
        }
        let mut cache = self.cache.lock();
        for meta in &obsolete {
            cache.remove_segment(meta.id);
            self.footers.remove(&meta.id);
            // The manifest no longer lists it: a file left behind is an
            // orphan the next open quarantines.
            let _ = self.fs.remove(&self.dir.join(&meta.file));
        }
        drop(cache);
        Ok(before - self.manifest.segments.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binseg::SegmentFooter;
    use crate::cluster_store::ClusterKey;
    use crate::fs::MemFs;
    use crate::persist;
    use crate::segment::tests::{
        mem_store, populated, record, reopen, segment_of, tree, ManifestFs,
    };
    use focus_video::StreamId;
    use std::sync::atomic::Ordering;

    #[test]
    fn seal_assigns_bounds_streams_and_checksums() {
        let mut store = mem_store();
        let meta = store
            .seal(&segment_of(&[record(0, 0, 5, 2.0), record(0, 1, 5, 30.0)]))
            .unwrap()
            .unwrap();
        assert_eq!(meta.id, 0);
        assert_eq!(meta.file, "seg-000000.bin");
        assert_eq!(meta.t_start, 2.0);
        assert_eq!(meta.t_end, 35.0);
        assert_eq!(meta.streams, vec![StreamId(0)]);
        assert_eq!(meta.clusters, 2);
        let bytes = store.fs().read(&store.dir().join(&meta.file)).unwrap();
        assert_eq!(fnv1a64(&bytes), meta.checksum);
        assert!(bytes.starts_with(&crate::binseg::BINSEG_MAGIC));
        // Sealing an empty index is a no-op.
        assert!(store.seal(&TopKIndex::new()).unwrap().is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn create_refuses_to_clobber_an_existing_store() {
        let fs: Arc<dyn Fs> = Arc::new(MemFs::default());
        let _store = SegmentStore::create_with(Arc::clone(&fs), "/store".into()).unwrap();
        assert!(SegmentStore::create_with(fs, "/store".into()).is_err());
    }

    #[test]
    fn footer_directory_tracks_the_live_segments() {
        let store = populated(mem_store());
        let on_disk = |store: &SegmentStore| -> HashMap<u64, SegmentFooter> {
            let footer = |meta: &SegmentMeta| {
                let bytes = store.fs().read(&store.dir().join(&meta.file)).unwrap();
                (meta.id, binseg::footer_of(&bytes).unwrap())
            };
            store.segments().iter().map(footer).collect()
        };
        let resident = |store: &SegmentStore| -> HashMap<u64, SegmentFooter> {
            let footers = store.footers.iter();
            footers.map(|(id, f)| (*id, (**f).clone())).collect()
        };
        // Sealed, reopened, sealed again, compacted, reopened: at every
        // step the directory holds exactly the live segments' footers.
        assert_eq!(resident(&store), on_disk(&store));
        let (mut store, _) = reopen(&store);
        assert_eq!(resident(&store), on_disk(&store));
        store.seal(&segment_of(&[record(2, 0, 9, 50.0)])).unwrap();
        assert_eq!(resident(&store), on_disk(&store));
        // Budget 4 folds the four segments (2, 2, 2 and 1 records) pairwise.
        let folded_away: Vec<u64> = store.segments().iter().map(|m| m.id).collect();
        assert_eq!(store.compact(4).unwrap(), 2);
        assert_eq!(store.len(), 2);
        assert_eq!(resident(&store), on_disk(&store));
        assert!(folded_away.iter().all(|id| !store.footers.contains_key(id)));
        let (store, report) = reopen(&store);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(resident(&store), on_disk(&store));
        assert_eq!(store.footers.len(), 2);
    }

    /// A run of segments sharing a key is refused before its replacement is
    /// written: the manifest and every segment file stay as they were, and
    /// the uncached reference reader refuses the store the same way.
    #[test]
    fn compact_refuses_segments_sharing_a_key_and_changes_nothing() {
        let mut store = mem_store();
        store
            .seal(&segment_of(&[record(0, 0, 5, 0.0), record(0, 1, 5, 10.0)]))
            .unwrap();
        store
            .seal(&segment_of(&[record(0, 1, 6, 10.0), record(0, 2, 6, 20.0)]))
            .unwrap();
        let before = tree(&store);
        let live = store.segments().to_vec();
        let ids = [live[0].id, live[1].id];
        let duplicate = ClusterKey::new(StreamId(0), 1);
        match store.compact(usize::MAX) {
            Err(SegmentError::DuplicateKey { key, segments }) => {
                assert_eq!((key, segments), (duplicate, ids))
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        assert_eq!(tree(&store), before);
        assert_eq!(store.segments(), &live[..]);
        match store.merged_index() {
            Err(SegmentError::DuplicateKey { key, segments }) => {
                assert_eq!((key, segments), (duplicate, ids))
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
    }

    #[test]
    fn corruption_after_open_is_detected_at_load_time() {
        let store = populated(mem_store());
        let meta = store.segments()[0].clone();
        let path = store.dir().join(&meta.file);
        let mut bytes = store.fs().read(&path).unwrap();
        bytes[0] ^= 0x01;
        store.fs().write_atomic(&path, &bytes).unwrap();
        match store.load(meta.id) {
            Err(SegmentError::Corrupt {
                expected, found, ..
            }) => {
                assert_eq!(expected, meta.checksum);
                assert_ne!(found, expected);
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
        assert!(matches!(
            store.load(999),
            Err(SegmentError::UnknownSegment { id: 999 })
        ));
    }

    #[test]
    fn compact_folds_small_adjacent_segments_without_changing_results() {
        let mut store = populated(mem_store());
        let before = persist::to_json(&store.merged_index().unwrap()).unwrap();
        // Each segment holds 2 clusters: a budget of 4 folds the first two
        // and leaves the third alone.
        let folded = store.compact(4).unwrap();
        assert_eq!(folded, 1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.segments()[0].clusters, 4);
        assert_eq!(store.segments()[0].t_start, 0.0);
        assert_eq!(store.segments()[0].t_end, 115.0);
        assert_eq!(
            persist::to_json(&store.merged_index().unwrap()).unwrap(),
            before
        );
        // Old files are gone; the store reopens cleanly and still matches.
        let (reopened, report) = reopen(&store);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(
            persist::to_json(&reopened.merged_index().unwrap()).unwrap(),
            before
        );
        // Compacting an already-compact store is a no-op.
        let mut reopened = reopened;
        assert_eq!(reopened.compact(4).unwrap(), 0);
    }

    #[test]
    fn compact_everything_into_one_segment() {
        let mut store = populated(mem_store());
        let before = persist::to_json(&store.merged_index().unwrap()).unwrap();
        let folded = store.compact(usize::MAX).unwrap();
        assert_eq!(folded, 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.segments()[0].streams, vec![StreamId(0), StreamId(1)]);
        assert_eq!(
            persist::to_json(&store.merged_index().unwrap()).unwrap(),
            before
        );
    }

    #[test]
    fn failed_compaction_leaves_the_segment_list_intact() {
        let mut store = populated(mem_store());
        // Delete one segment file out from under the store: the fold's load
        // fails mid-compaction. The live segment list must survive — losing
        // it would delist every segment on the next manifest save.
        let victim = store.segments()[1].file.clone();
        store.fs().remove(&store.dir().join(&victim)).unwrap();
        assert!(store.compact(usize::MAX).is_err());
        assert_eq!(store.len(), 3);
        // And it still matches the manifest on disk.
        let (manifest, _) = Manifest::load_live(store.fs(), store.dir()).unwrap();
        assert_eq!(manifest.segments, store.segments());
    }

    /// A seal whose manifest commit fails lists nothing, in memory or on
    /// disk: the store's length is unchanged, and once the fault clears,
    /// sealing the same index again lists its records once. Reopened, the
    /// store answers as a twin that never failed, with the refused
    /// commit's segment file quarantined as an orphan.
    #[test]
    fn a_refused_commit_lists_nothing_and_the_retry_lists_the_segment_once() {
        let (mut store, fs) = ManifestFs::store();
        let mut twin = mem_store();
        let first = segment_of(&[record(0, 0, 5, 0.0), record(0, 1, 5, 10.0)]);
        let second = segment_of(&[record(0, 2, 5, 20.0), record(1, 0, 6, 20.0)]);
        store.seal(&first).unwrap();
        twin.seal(&first).unwrap();

        fs.refuse.store(true, Ordering::SeqCst);
        match store.seal(&second) {
            Err(SegmentError::Persist(PersistError::Io { path, .. })) => {
                assert_eq!(path, store.dir().join(MANIFEST_LOG_FILE))
            }
            other => panic!("expected the refused append, got {other:?}"),
        }
        assert_eq!(store.len(), 1);
        fs.refuse.store(false, Ordering::SeqCst);
        store.seal(&second).unwrap();
        twin.seal(&second).unwrap();
        assert_eq!(store.len(), 2);

        let (reopened, report) = reopen(&store);
        assert_eq!(report.quarantined, ["seg-000001.bin"]);
        let (twin, twin_report) = reopen(&twin);
        assert!(twin_report.is_clean(), "{twin_report:?}");
        // The same entries but for the id the refused commit spent.
        let entries = |store: &SegmentStore| -> Vec<_> {
            let entry = |m: &SegmentMeta| {
                (
                    m.t_start,
                    m.t_end,
                    m.streams.clone(),
                    m.clusters,
                    m.checksum,
                )
            };
            store.segments().iter().map(entry).collect()
        };
        assert_eq!(entries(&reopened), entries(&twin));
        let merged =
            |store: &SegmentStore| persist::to_json(&store.merged_index().unwrap()).unwrap();
        assert_eq!(merged(&reopened), merged(&twin));
    }

    /// A seal's commit writes one log record, so the bytes a store writes
    /// to its manifest files grow with the live list, not with its square:
    /// over 1,000 seals they stay within twice the final list's JSON
    /// (rewriting the whole list per seal writes ~500 times it).
    #[test]
    fn commit_bytes_grow_linearly_with_the_live_list() {
        let (mut store, fs) = ManifestFs::store();
        for local in 0..1000u64 {
            let index = segment_of(&[record(0, local, 5, local as f64)]);
            store.seal(&index).unwrap();
        }
        let live = serde_json::to_string(&store.segments().to_vec())
            .unwrap()
            .len() as u64;
        let written = fs.written.load(Ordering::SeqCst);
        assert!(
            written <= 2 * live,
            "{written} manifest bytes written for a {live}-byte live list"
        );
    }
}
