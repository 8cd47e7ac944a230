//! Result assembly (QT4): applying ground-truth verdicts to a plan and
//! collecting the confirmed clusters' frames and objects.

use serde::{Deserialize, Serialize};

use focus_cnn::GpuCost;
use focus_video::{ClassId, FrameId, ObjectId};

use crate::query::plan::QueryPlan;

/// The result of one class query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// The class that was queried.
    pub class: ClassId,
    /// Frames returned to the user, sorted and de-duplicated.
    pub frames: Vec<FrameId>,
    /// Objects belonging to the returned frames' confirmed clusters.
    pub objects: Vec<ObjectId>,
    /// Clusters whose top-K matched the query (the candidate set).
    pub matched_clusters: usize,
    /// Clusters whose centroid the GT-CNN confirmed as the queried class.
    pub confirmed_clusters: usize,
    /// Ground-truth CNN inferences performed *for this outcome*: only the
    /// **fresh** inferences this query was first to need. Verdicts served
    /// from the cross-query centroid-verdict cache, or computed once for
    /// several overlapping in-flight queries, are not re-counted — a
    /// repeated query can return a full result set with
    /// `centroid_inferences == 0`, and a cold
    /// [`QueryServer`](crate::query_server::QueryServer) serving one exact
    /// request counts one per matched cluster.
    pub centroid_inferences: usize,
    /// GPU time consumed by the query: its amortized share of the batched
    /// verification rounds it took part in.
    pub gpu_cost: GpuCost,
    /// Wall-clock latency of the query on the configured GPU cluster.
    /// Queries verified in one round share the round's wall-clock latency.
    pub latency_secs: f64,
}

/// Applies per-candidate GT verdicts to `plan` and assembles the outcome
/// (QT4): clusters whose centroid verdict equals the queried class
/// contribute all their member frames and objects; everything else is
/// discarded.
///
/// `verdicts[i]` must be the ground-truth class of
/// `plan.candidates[i].centroid`, and `get_record(i, handle)` must return
/// that candidate's cluster record — both planners hand back records
/// aligned with the candidates ([`QueryPlan::build`],
/// [`SegmentedPlan::records`](crate::query::segmented::SegmentedPlan::records)),
/// so a record is found by position. The accounting fields
/// (`centroid_inferences`, `gpu_cost`, `latency_secs`) are passed through
/// from the caller, because how much work the verdicts actually cost
/// depends on what the verifier's cache and batch already held.
///
/// # Panics
///
/// Panics if `verdicts.len() != plan.candidates.len()`.
pub fn assemble_outcome<'a>(
    plan: &QueryPlan,
    verdicts: &[ClassId],
    centroid_inferences: usize,
    gpu_cost: GpuCost,
    latency_secs: f64,
    mut get_record: impl FnMut(usize, &focus_index::CentroidHandle) -> &'a focus_index::ClusterRecord,
) -> QueryOutcome {
    assert_eq!(
        verdicts.len(),
        plan.candidates.len(),
        "one verdict per planned candidate"
    );
    let mut frames: Vec<FrameId> = Vec::new();
    let mut objects: Vec<ObjectId> = Vec::new();
    let mut confirmed = 0usize;
    for (i, (handle, verdict)) in plan.candidates.iter().zip(verdicts).enumerate() {
        if *verdict != plan.class {
            continue;
        }
        confirmed += 1;
        let record = get_record(i, handle);
        for member in &record.members {
            // A confirmed cluster may still mix tracks; members whose track
            // the planner's sketch scope rejected are filtered here (the
            // pruned and unpruned planned paths apply the same scope, so
            // their frames and objects agree byte-for-byte).
            if !plan
                .track_scope
                .admits(focus_index::TrackKey::new(record.key.stream, member.track))
            {
                continue;
            }
            frames.push(member.frame);
            objects.push(member.object);
        }
    }
    frames.sort_unstable();
    frames.dedup();
    objects.sort_unstable();
    objects.dedup();

    QueryOutcome {
        class: plan.class,
        frames,
        objects,
        matched_clusters: plan.candidates.len(),
        confirmed_clusters: confirmed,
        centroid_inferences,
        gpu_cost,
        latency_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{IngestCnn, IngestParams};
    use crate::pipeline::tests::replay;
    use crate::query::plan::QueryRequest;
    use focus_cnn::{Classifier, GroundTruthCnn, ModelSpec};
    use focus_index::TopKIndex;
    use focus_video::profile::profile_by_name;
    use focus_video::VideoDataset;

    /// A minute of `auburn_c` in a top-10 index, and the plan of a query
    /// for its dominant class with the candidates' records.
    fn setup() -> (
        TopKIndex,
        QueryPlan,
        Vec<std::sync::Arc<focus_index::ClusterRecord>>,
    ) {
        let ds = VideoDataset::generate(profile_by_name("auburn_c").unwrap(), 60.0);
        let model = IngestCnn::generic(ModelSpec::cheap_cnn_1());
        let params = IngestParams {
            k: 10,
            ..IngestParams::default()
        };
        let index = replay(&ds, &model, params).seal_segment();
        let request = QueryRequest::new(ds.dominant_classes(1)[0]);
        let (plan, records) = QueryPlan::build(&index, &model, &request);
        (index, plan, records)
    }

    #[test]
    fn assembles_only_confirmed_clusters() {
        let (index, plan, records) = setup();
        let gt = GroundTruthCnn::resnet152();
        let verdicts: Vec<ClassId> = plan
            .candidates
            .iter()
            .map(|h| gt.classify_top1(index.centroid(h.centroid).unwrap()))
            .collect();
        let n = verdicts.len();
        let outcome = assemble_outcome(&plan, &verdicts, n, GpuCost(1.0), 0.5, |i, _| &records[i]);
        assert_eq!(outcome.class, plan.class);
        assert_eq!(outcome.matched_clusters, plan.candidates.len());
        assert!(outcome.confirmed_clusters <= outcome.matched_clusters);
        assert!(!outcome.frames.is_empty());
        // Frames are sorted and unique.
        assert!(outcome.frames.windows(2).all(|w| w[0] < w[1]));
        assert!(outcome.objects.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(outcome.gpu_cost, GpuCost(1.0));
        assert_eq!(outcome.latency_secs, 0.5);
    }

    #[test]
    fn all_rejecting_verdicts_return_nothing() {
        let (_, plan, records) = setup();
        let wrong = ClassId(plan.class.0.wrapping_add(1));
        let verdicts = vec![wrong; plan.candidates.len()];
        let outcome = assemble_outcome(&plan, &verdicts, 0, GpuCost::ZERO, 0.0, |i, _| &records[i]);
        assert_eq!(outcome.confirmed_clusters, 0);
        assert!(outcome.frames.is_empty());
        assert!(outcome.objects.is_empty());
        assert_eq!(outcome.centroid_inferences, 0);
    }

    #[test]
    #[should_panic(expected = "one verdict per planned candidate")]
    fn verdict_count_mismatch_panics() {
        let (_, plan, records) = setup();
        assert!(!plan.candidates.is_empty());
        let _ = assemble_outcome(&plan, &[], 0, GpuCost::ZERO, 0.0, |i, _| &records[i]);
    }

    /// The assembly body `assemble_outcome` replaced — frames
    /// collected into a `HashSet`, then sorted — kept as the reference the
    /// property below holds the sort-dedup body to.
    fn assemble_outcome_reference<'a>(
        plan: &QueryPlan,
        verdicts: &[ClassId],
        centroid_inferences: usize,
        gpu_cost: GpuCost,
        latency_secs: f64,
        mut get_record: impl FnMut(&focus_index::CentroidHandle) -> &'a focus_index::ClusterRecord,
    ) -> QueryOutcome {
        assert_eq!(
            verdicts.len(),
            plan.candidates.len(),
            "one verdict per planned candidate"
        );
        let mut frames: std::collections::HashSet<FrameId> = std::collections::HashSet::new();
        let mut objects: Vec<ObjectId> = Vec::new();
        let mut confirmed = 0usize;
        for (handle, verdict) in plan.candidates.iter().zip(verdicts.iter()) {
            if *verdict != plan.class {
                continue;
            }
            confirmed += 1;
            let record = get_record(handle);
            for member in &record.members {
                if !plan
                    .track_scope
                    .admits(focus_index::TrackKey::new(record.key.stream, member.track))
                {
                    continue;
                }
                frames.insert(member.frame);
                objects.push(member.object);
            }
        }
        let mut frames: Vec<FrameId> = frames.into_iter().collect();
        frames.sort();
        objects.sort();
        objects.dedup();

        QueryOutcome {
            class: plan.class,
            frames,
            objects,
            matched_clusters: plan.candidates.len(),
            confirmed_clusters: confirmed,
            centroid_inferences,
            gpu_cost,
            latency_secs,
        }
    }

    mod property {
        use super::*;
        use crate::query::track::TrackScope;
        use focus_index::{CentroidHandle, ClusterKey, ClusterRecord, MemberRef, TrackKey};
        use focus_video::{StreamId, TrackId};
        use proptest::prelude::*;

        /// SplitMix64: the case's whole shape from one seed.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// Random candidates over a few streams, members whose frames,
            /// objects and tracks collide across clusters, verdicts over a
            /// few classes and a random rejected-track scope: the
            /// sort-dedup assembly returns the reference's outcome exactly.
            #[test]
            fn sort_dedup_assembly_matches_the_hash_set_reference(
                clusters in 0usize..48,
                max_members in 1u64..12,
                (frames, objects, tracks) in (1u64..80, 1u64..120, 1u64..6),
                (classes, rejected) in (1u64..4, 0usize..8),
                seed in 0u64..u64::MAX,
            ) {
                let mut state = seed;
                let mut records: Vec<ClusterRecord> = (0..clusters as u64)
                    .map(|local| {
                        let stream = StreamId((next(&mut state) % 3) as u32);
                        let members = 1 + next(&mut state) % max_members;
                        ClusterRecord {
                            key: ClusterKey::new(stream, local),
                            centroid_object: ObjectId(local),
                            centroid_frame: FrameId(local),
                            top_k_classes: vec![ClassId(0)],
                            members: (0..members)
                                .map(|_| MemberRef {
                                    object: ObjectId(next(&mut state) % objects),
                                    frame: FrameId(next(&mut state) % frames),
                                    track: TrackId(next(&mut state) % tracks),
                                })
                                .collect(),
                            start_secs: 0.0,
                            end_secs: 1.0,
                        }
                    })
                    .collect();
                records.sort_by_key(|record| record.key);
                let verdicts: Vec<ClassId> = records
                    .iter()
                    .map(|_| ClassId((next(&mut state) % classes) as u16))
                    .collect();
                let scope = TrackScope::from_rejected(
                    (0..rejected)
                        .map(|_| {
                            TrackKey::new(
                                StreamId((next(&mut state) % 3) as u32),
                                TrackId(next(&mut state) % tracks),
                            )
                        })
                        .collect(),
                );
                let plan = QueryPlan {
                    class: ClassId(0),
                    lookup_class: ClassId(0),
                    candidates: records.iter().map(CentroidHandle::from).collect(),
                    track_scope: scope,
                };
                let fast = assemble_outcome(&plan, &verdicts, 3, GpuCost(0.5), 0.25, |i, _| {
                    &records[i]
                });
                let reference =
                    assemble_outcome_reference(&plan, &verdicts, 3, GpuCost(0.5), 0.25, |handle| {
                        let at = records.binary_search_by_key(&handle.cluster, |r| r.key);
                        &records[at.unwrap()]
                    });
                prop_assert_eq!(fast, reference);
            }
        }
    }
}
