//! The replicated cluster manifest: which node owns which shard.
//!
//! The fleet's placement map follows the same crash-safe discipline as the
//! per-store segment manifest (`focus_index::Manifest`): a checksummed JSON
//! document written atomically (temp file + rename), bumped to a fresh
//! monotonic epoch on every placement change, and **replicated** — one copy
//! at the fleet root plus one per node directory. Loading reads every
//! replica and adopts the highest-epoch valid copy, so a crash that tears
//! one replica (or loses the root disk) still recovers the newest placement
//! any surviving replica saw.
//!
//! Validation rejects a manifest in which two nodes claim the same shard or
//! two shards claim the same stream: since a shard owns its streams' whole
//! segment range, a duplicate claim is exactly the "two nodes own one
//! segment range" split-brain a coordinator must refuse to load.

use std::collections::BTreeSet;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use focus_index::manifest::fnv1a64;
use focus_index::persist::{read_document, write_document, PersistError, Versioned};
use focus_index::Fs;

use super::FleetError;

/// File name of every manifest replica.
pub const CLUSTER_MANIFEST_FILE: &str = "CLUSTER.json";

/// Current on-disk format version.
pub const CLUSTER_MANIFEST_VERSION: u32 = 1;

/// One shard's placement: the node that owns it, the store directory it
/// lives in (relative to the fleet root), and the streams it indexes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardAssignment {
    /// Fleet-unique shard id (monotonic, never reused).
    pub shard: u32,
    /// The node currently serving the shard.
    pub node: u32,
    /// Store directory, relative to the fleet root. Reassignment moves
    /// ownership, never the directory — shard stores live on shared
    /// storage, like a detachable volume.
    pub dir: String,
    /// Streams whose segments this shard owns, sorted.
    pub streams: Vec<u32>,
}

/// The replicated placement map. Construct via [`ClusterManifest::new`],
/// mutate assignments, then [`seal`](Self::seal) + [`save`](Self::save).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterManifest {
    /// On-disk format version.
    pub version: u32,
    /// Monotonic placement epoch; every change bumps it.
    pub epoch: u64,
    /// All shard placements, sorted by shard id.
    pub assignments: Vec<ShardAssignment>,
    /// FNV-1a over the canonical JSON of the body with `checksum` zeroed.
    pub checksum: u64,
}

impl ClusterManifest {
    /// An empty epoch-0 manifest, not yet sealed: [`save`](Self::save)
    /// refuses it until it is [`seal`](Self::seal)ed.
    pub fn new() -> Self {
        Self {
            version: CLUSTER_MANIFEST_VERSION,
            epoch: 0,
            assignments: Vec::new(),
            checksum: 0,
        }
    }

    fn body_checksum(&self) -> Result<u64, FleetError> {
        let body = Self {
            checksum: 0,
            ..self.clone()
        };
        let json = serde_json::to_string(&body).map_err(PersistError::from)?;
        Ok(fnv1a64(json.as_bytes()))
    }

    /// Recomputes the checksum after a mutation.
    pub fn seal(mut self) -> Result<Self, FleetError> {
        self.assignments.sort_by_key(|a| a.shard);
        self.checksum = self.body_checksum()?;
        Ok(self)
    }

    /// The assignment of `shard`, if any.
    pub fn assignment(&self, shard: u32) -> Option<&ShardAssignment> {
        self.assignments.iter().find(|a| a.shard == shard)
    }

    /// Structural validation: checksum, and — the split-brain guard — no
    /// shard claimed by two entries and no stream claimed by two shards.
    /// (The version is checked where a replica is read.)
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.checksum != self.body_checksum()? {
            return Err(FleetError::Manifest(
                "cluster manifest checksum mismatch (torn or tampered replica)".into(),
            ));
        }
        let mut shards = BTreeSet::new();
        let mut dirs = BTreeSet::new();
        let mut streams = BTreeSet::new();
        for assignment in &self.assignments {
            if !shards.insert(assignment.shard) {
                return Err(FleetError::Manifest(format!(
                    "shard {} claimed by two assignments — two nodes would \
                     own one segment range",
                    assignment.shard
                )));
            }
            if !dirs.insert(assignment.dir.clone()) {
                return Err(FleetError::Manifest(format!(
                    "store directory {:?} claimed by two shards",
                    assignment.dir
                )));
            }
            for stream in &assignment.streams {
                if !streams.insert(*stream) {
                    return Err(FleetError::Manifest(format!(
                        "stream {stream} claimed by two shards — two nodes \
                         would own one segment range"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Writes the manifest atomically through `fs` to every replica path
    /// (fleet root first, then each node directory). A crash between
    /// replicas leaves a mixed-epoch set; [`load`](Self::load) resolves it
    /// by taking the highest valid epoch. A manifest that fails
    /// [`validate`](Self::validate) — unsealed, or with a duplicate claim —
    /// is refused before any replica is written, so no replica `load`
    /// would reject reaches disk. Returns the bytes of one replica — what
    /// a placement round ships to each node.
    pub fn save(&self, fs: &dyn Fs, replicas: &[PathBuf]) -> Result<u64, FleetError> {
        self.validate()?;
        let mut bytes = 0;
        for dir in replicas {
            bytes = write_document(fs, &dir.join(CLUSTER_MANIFEST_FILE), self)?;
        }
        Ok(bytes)
    }

    /// Loads the highest-epoch valid replica through `fs`. Replicas that
    /// are missing, torn, of another version, or fail
    /// [`validate`](Self::validate) are skipped; if *no* replica is
    /// loadable the fleet refuses to start (better no placement than a
    /// split-brain one).
    pub fn load(fs: &dyn Fs, replicas: &[PathBuf]) -> Result<Self, FleetError> {
        let mut best: Option<Self> = None;
        let mut last_error: Option<FleetError> = None;
        for dir in replicas {
            let replica = read_document::<Self>(fs, &dir.join(CLUSTER_MANIFEST_FILE));
            match replica
                .map_err(FleetError::from)
                .and_then(|m| m.validate().map(|()| m))
            {
                Ok(manifest) if best.as_ref().is_none_or(|b| manifest.epoch > b.epoch) => {
                    best = Some(manifest)
                }
                Ok(_) => {}
                Err(err) => last_error = Some(err),
            }
        }
        best.ok_or_else(|| {
            last_error.unwrap_or_else(|| FleetError::Manifest("no manifest replica found".into()))
        })
    }
}

impl Versioned for ClusterManifest {
    const VERSION: u32 = CLUSTER_MANIFEST_VERSION;
    fn version(&self) -> u32 {
        self.version
    }
}

impl Default for ClusterManifest {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_index::MemFs;

    fn assignment(shard: u32, node: u32, streams: &[u32]) -> ShardAssignment {
        ShardAssignment {
            shard,
            node,
            dir: format!("shard-{shard:04}"),
            streams: streams.to_vec(),
        }
    }

    /// `n` replica directories on a fresh in-memory filesystem.
    fn replica_dirs(n: usize) -> (MemFs, Vec<PathBuf>) {
        let fs = MemFs::default();
        let dirs: Vec<PathBuf> = (0..n)
            .map(|i| PathBuf::from(format!("/node-{i}")))
            .collect();
        for dir in &dirs {
            fs.create_dir_all(dir).unwrap();
        }
        (fs, dirs)
    }

    #[test]
    fn round_trips_through_replicas() {
        let (fs, dirs) = replica_dirs(3);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[7]));
        manifest.epoch = 3;
        // Unsealed, it fails `validate`, so `save` refuses it.
        assert!(matches!(
            manifest.save(&fs, &dirs),
            Err(FleetError::Manifest(_))
        ));
        let manifest = manifest.seal().unwrap();
        manifest.save(&fs, &dirs).unwrap();
        let loaded = ClusterManifest::load(&fs, &dirs).unwrap();
        assert_eq!(loaded, manifest);
    }

    #[test]
    fn load_takes_highest_valid_epoch_and_skips_torn_replicas() {
        let (fs, dirs) = replica_dirs(4);
        let mut old = ClusterManifest::new();
        old.assignments.push(assignment(0, 0, &[1]));
        old.epoch = 1;
        old.seal().unwrap().save(&fs, &dirs[..1]).unwrap();
        let mut new = ClusterManifest::new();
        new.assignments.push(assignment(0, 1, &[1]));
        new.epoch = 2;
        new.seal().unwrap().save(&fs, &dirs[1..2]).unwrap();
        // The third replica is torn mid-write.
        let torn = dirs[2].join(CLUSTER_MANIFEST_FILE);
        fs.write_atomic(&torn, b"{\"version\":").unwrap();
        // The fourth is a newer epoch, written by a build of another version.
        let mut skewed = ClusterManifest::new();
        (skewed.version, skewed.epoch) = (7, 9);
        let skewed = skewed.seal().unwrap();
        write_document(&fs, &dirs[3].join(CLUSTER_MANIFEST_FILE), &skewed).unwrap();
        assert!(matches!(
            ClusterManifest::load(&fs, &dirs[3..]),
            Err(FleetError::Persist(PersistError::VersionMismatch {
                found: 7,
                ..
            }))
        ));
        let loaded = ClusterManifest::load(&fs, &dirs).unwrap();
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.assignments[0].node, 1);
    }

    #[test]
    fn duplicate_shard_claim_is_rejected_at_load() {
        let (fs, dirs) = replica_dirs(1);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[1]));
        let mut twin = assignment(0, 1, &[2]);
        twin.dir = "shard-9999".into();
        manifest.assignments.push(twin);
        // `save` refuses it; bypass it to model a corrupted/hostile
        // replica: a valid checksum, so only the claim check fires.
        let manifest = manifest.seal().unwrap();
        assert!(matches!(
            manifest.save(&fs, &dirs),
            Err(FleetError::Manifest(_))
        ));
        write_document(&fs, &dirs[0].join(CLUSTER_MANIFEST_FILE), &manifest).unwrap();
        let err = ClusterManifest::load(&fs, &dirs).unwrap_err();
        assert!(
            err.to_string().contains("claimed by two"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn duplicate_stream_claim_is_rejected_at_load() {
        let (fs, dirs) = replica_dirs(1);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[1, 2]));
        manifest.assignments.push(assignment(1, 1, &[2, 3]));
        let manifest = manifest.seal().unwrap();
        write_document(&fs, &dirs[0].join(CLUSTER_MANIFEST_FILE), &manifest).unwrap();
        let err = ClusterManifest::load(&fs, &dirs).unwrap_err();
        assert!(
            err.to_string().contains("stream 2 claimed by two shards"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn checksum_guards_against_tampering() {
        let (fs, dirs) = replica_dirs(1);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[1]));
        manifest.seal().unwrap().save(&fs, &dirs).unwrap();
        let path = dirs[0].join(CLUSTER_MANIFEST_FILE);
        let tampered = String::from_utf8(fs.read(&path).unwrap())
            .unwrap()
            .replace("\"node\":0", "\"node\":5");
        fs.write_atomic(&path, tampered.as_bytes()).unwrap();
        assert!(ClusterManifest::load(&fs, &dirs).is_err());
    }

    #[test]
    fn a_replica_nested_past_the_parser_limit_is_an_error() {
        let (fs, dirs) = replica_dirs(2);
        for dir in &dirs {
            let nested = "[".repeat(100_000);
            fs.write_atomic(&dir.join(CLUSTER_MANIFEST_FILE), nested.as_bytes())
                .unwrap();
        }
        match ClusterManifest::load(&fs, &dirs) {
            Err(FleetError::Persist(e)) => {
                assert!(e.to_string().contains("recursion limit"), "{e}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }
}
