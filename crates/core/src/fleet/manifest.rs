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

use focus_index::persist::write_atomic;

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

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

impl ClusterManifest {
    /// An empty epoch-0 manifest.
    pub fn new() -> Self {
        Self {
            version: CLUSTER_MANIFEST_VERSION,
            epoch: 0,
            assignments: Vec::new(),
            checksum: 0,
        }
        .seal()
    }

    fn body_checksum(&self) -> u64 {
        let body = Self {
            checksum: 0,
            ..self.clone()
        };
        let json = serde_json::to_string(&body).expect("manifest body serializes");
        fnv1a64(json.as_bytes())
    }

    /// Recomputes the checksum after a mutation.
    pub fn seal(mut self) -> Self {
        self.assignments.sort_by_key(|a| a.shard);
        self.checksum = self.body_checksum();
        self
    }

    /// The assignment of `shard`, if any.
    pub fn assignment(&self, shard: u32) -> Option<&ShardAssignment> {
        self.assignments.iter().find(|a| a.shard == shard)
    }

    /// Structural validation: version, checksum, and — the split-brain
    /// guard — no shard claimed by two entries and no stream claimed by
    /// two shards.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.version != CLUSTER_MANIFEST_VERSION {
            return Err(FleetError::Manifest(format!(
                "cluster manifest version {} (expected {})",
                self.version, CLUSTER_MANIFEST_VERSION
            )));
        }
        if self.checksum != self.body_checksum() {
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

    /// Writes the manifest atomically to every replica path (fleet root
    /// first, then each node directory). A crash between replicas leaves a
    /// mixed-epoch set; [`load`](Self::load) resolves it by taking the
    /// highest valid epoch. Returns the bytes of one replica — what a
    /// placement round ships to each node.
    pub fn save(&self, replicas: &[PathBuf]) -> Result<u64, FleetError> {
        let json = serde_json::to_string(self).expect("manifest serializes");
        for dir in replicas {
            let path = dir.join(CLUSTER_MANIFEST_FILE);
            write_atomic(&path, &json).map_err(|source| FleetError::Io { path, source })?;
        }
        Ok(json.len() as u64)
    }

    /// Loads the highest-epoch valid replica. Replicas that are missing,
    /// torn, or fail [`validate`](Self::validate) are skipped; if *no*
    /// replica is loadable the fleet refuses to start (better no placement
    /// than a split-brain one).
    pub fn load(replicas: &[PathBuf]) -> Result<Self, FleetError> {
        let mut best: Option<Self> = None;
        let mut last_error: Option<FleetError> = None;
        for dir in replicas {
            let path = dir.join(CLUSTER_MANIFEST_FILE);
            let json = match std::fs::read_to_string(&path) {
                Ok(json) => json,
                Err(source) => {
                    last_error = Some(FleetError::Io { path, source });
                    continue;
                }
            };
            let manifest: Self = match serde_json::from_str(&json) {
                Ok(manifest) => manifest,
                Err(err) => {
                    last_error = Some(FleetError::Manifest(format!(
                        "replica {path:?} is malformed: {err}"
                    )));
                    continue;
                }
            };
            if let Err(err) = manifest.validate() {
                last_error = Some(err);
                continue;
            }
            if best.as_ref().is_none_or(|b| manifest.epoch > b.epoch) {
                best = Some(manifest);
            }
        }
        best.ok_or_else(|| {
            last_error.unwrap_or_else(|| FleetError::Manifest("no manifest replica found".into()))
        })
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

    fn assignment(shard: u32, node: u32, streams: &[u32]) -> ShardAssignment {
        ShardAssignment {
            shard,
            node,
            dir: format!("shard-{shard:04}"),
            streams: streams.to_vec(),
        }
    }

    fn temp_dirs(name: &str, n: usize) -> Vec<PathBuf> {
        (0..n)
            .map(|i| {
                let dir = std::env::temp_dir().join(format!("focus_cluster_manifest_{name}_{i}"));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                dir
            })
            .collect()
    }

    #[test]
    fn round_trips_through_replicas() {
        let dirs = temp_dirs("round_trip", 3);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[7]));
        manifest.epoch = 3;
        let manifest = manifest.seal();
        manifest.save(&dirs).unwrap();
        let loaded = ClusterManifest::load(&dirs).unwrap();
        assert_eq!(loaded, manifest);
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn load_takes_highest_valid_epoch_and_skips_torn_replicas() {
        let dirs = temp_dirs("epochs", 3);
        let mut old = ClusterManifest::new();
        old.assignments.push(assignment(0, 0, &[1]));
        old.epoch = 1;
        old.seal().save(&dirs[..1]).unwrap();
        let mut new = ClusterManifest::new();
        new.assignments.push(assignment(0, 1, &[1]));
        new.epoch = 2;
        new.seal().save(&dirs[1..2]).unwrap();
        // The third replica is torn mid-write.
        std::fs::write(dirs[2].join(CLUSTER_MANIFEST_FILE), "{\"version\":").unwrap();
        let loaded = ClusterManifest::load(&dirs).unwrap();
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.assignments[0].node, 1);
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn duplicate_shard_claim_is_rejected_at_load() {
        let dirs = temp_dirs("dup_shard", 1);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[1]));
        let mut twin = assignment(0, 1, &[2]);
        twin.dir = "shard-9999".into();
        manifest.assignments.push(twin);
        let mut manifest = manifest.seal();
        // Bypass validation at write time to model a corrupted/hostile
        // replica: recompute the checksum so only the claim check fires.
        manifest.checksum = manifest.body_checksum();
        let json = serde_json::to_string(&manifest).unwrap();
        std::fs::write(dirs[0].join(CLUSTER_MANIFEST_FILE), json).unwrap();
        let err = ClusterManifest::load(&dirs).unwrap_err();
        assert!(
            err.to_string().contains("claimed by two"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dirs[0]).ok();
    }

    #[test]
    fn duplicate_stream_claim_is_rejected_at_load() {
        let dirs = temp_dirs("dup_stream", 1);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[1, 2]));
        manifest.assignments.push(assignment(1, 1, &[2, 3]));
        let manifest = manifest.seal();
        let json = serde_json::to_string(&manifest).unwrap();
        std::fs::write(dirs[0].join(CLUSTER_MANIFEST_FILE), json).unwrap();
        let err = ClusterManifest::load(&dirs).unwrap_err();
        assert!(
            err.to_string().contains("stream 2 claimed by two shards"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&dirs[0]).ok();
    }

    #[test]
    fn checksum_guards_against_tampering() {
        let dirs = temp_dirs("tamper", 1);
        let mut manifest = ClusterManifest::new();
        manifest.assignments.push(assignment(0, 0, &[1]));
        manifest.seal().save(&dirs).unwrap();
        let path = dirs[0].join(CLUSTER_MANIFEST_FILE);
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"node\":0", "\"node\":5");
        std::fs::write(&path, tampered).unwrap();
        assert!(ClusterManifest::load(&dirs).is_err());
        std::fs::remove_dir_all(&dirs[0]).ok();
    }
}
