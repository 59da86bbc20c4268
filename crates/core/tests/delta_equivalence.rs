//! Equivalence pins for the incremental engine:
//!
//! * after any sequence of update batches, a [`DeltaSession`] refresh
//!   must hold artifacts **byte-identical** (serialized frame compare,
//!   every stage) to a cold run over the same final sample set — at
//!   `Parallelism::sequential()` and `Parallelism::threads(4)`, whether
//!   it refreshes after every batch or coalesces them;
//! * an empty update batch is a byte-identical no-op: zero recomputes,
//!   every stage a delta skip, every held `Arc` reused, every encoded
//!   frame unchanged — pinned via the engine's cache counters.
//!
//! The rebuild-from-scratch semantics of [`UpdateBatch::apply`] is the
//! oracle throughout.

use asrank_core::delta::DeltaSession;
use asrank_core::engine::Snapshot;
use asrank_core::persist::encode_artifact;
use asrank_core::pipeline::InferenceConfig;
use asrank_types::{PathDelta, UpdateBatch};
use asrank_types::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Random raw path sets over a small ASN universe — same shape as the
/// engine equivalence suite, so sanitization sees loops, prepending,
/// and overlapping paths. `(vp, prefix)` keys are unique by
/// construction (the prefix encodes the sample index).
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..6), 1..30)
}

/// Raw op streams: `(kind, index, hops)` tuples that [`build_batch`]
/// resolves against the evolving sample set — withdraws and replacing
/// announcements target live keys, fresh announcements mint new ones.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u8, usize, Vec<u32>)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                0u8..6,
                any::<usize>(),
                proptest::collection::vec(1u32..40, 2..6),
            ),
            0..8,
        ),
        1..4,
    )
}

fn path_set(paths: &[Vec<u32>]) -> PathSet {
    paths
        .iter()
        .enumerate()
        .map(|(i, p)| PathSample {
            vp: Asn(p[0]),
            prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
            path: AsPath::from_u32s(p.iter().copied()),
        })
        .collect()
}

/// Resolve one raw op stream into an [`UpdateBatch`] against the
/// current sample set. `fresh` mints never-before-seen prefixes in a
/// range disjoint from the base set's.
fn build_batch(
    ops: &[(u8, usize, Vec<u32>)],
    current: &PathSet,
    fresh: &mut u32,
) -> UpdateBatch {
    let keys: Vec<(Asn, Ipv4Prefix)> = current.iter().map(|s| (s.vp, s.prefix)).collect();
    let mut deltas = Vec::new();
    for (kind, idx, hops) in ops {
        let path = AsPath::from_u32s(hops.iter().copied());
        match kind % 3 {
            0 if !keys.is_empty() => {
                let (vp, prefix) = keys[idx % keys.len()];
                deltas.push((vp, prefix, PathDelta::Withdraw));
            }
            1 if !keys.is_empty() => {
                let (vp, prefix) = keys[idx % keys.len()];
                deltas.push((vp, prefix, PathDelta::Announce(path)));
            }
            _ => {
                *fresh += 1;
                let prefix = Ipv4Prefix::new(0xC000_0000 | (*fresh << 8), 24).unwrap();
                deltas.push((Asn(hops[0]), prefix, PathDelta::Announce(path)));
            }
        }
    }
    UpdateBatch::from_deltas(deltas)
}

/// Every artifact the session holds must serialize to the same bytes a
/// cold snapshot over `oracle` produces for that stage.
fn assert_matches_cold(session: &DeltaSession, oracle: &PathSet, cfg: &InferenceConfig) {
    let mut cold = Snapshot::new(oracle, cfg.clone());
    for (idx, name) in Snapshot::stage_names().iter().enumerate() {
        let want = encode_artifact(&cold.materialize(name).expect("cold stage"));
        let got = encode_artifact(&session.artifacts()[idx]);
        assert_eq!(
            got, want,
            "stage {name} frame differs from the cold run after delta refresh"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn refresh_per_batch_matches_cold_run(
        paths in paths_strategy(),
        raw in batches_strategy(),
    ) {
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let mut cfg = InferenceConfig::default();
            cfg.parallelism = par;
            let mut oracle = path_set(&paths);
            let mut session =
                DeltaSession::new(oracle.clone(), cfg.clone()).expect("session");
            let mut fresh = 0u32;
            for ops in &raw {
                let batch = build_batch(ops, &oracle, &mut fresh);
                session.apply(&batch).expect("apply");
                oracle = batch.apply(oracle);
                session.refresh().expect("refresh");
                prop_assert_eq!(session.len(), oracle.len());
                assert_matches_cold(&session, &oracle, &cfg);
            }
        }
    }

    #[test]
    fn coalesced_batches_match_cold_run(
        paths in paths_strategy(),
        raw in batches_strategy(),
    ) {
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let mut cfg = InferenceConfig::default();
            cfg.parallelism = par;
            let mut oracle = path_set(&paths);
            let mut session =
                DeltaSession::new(oracle.clone(), cfg.clone()).expect("session");
            let mut fresh = 0u32;
            for ops in &raw {
                let batch = build_batch(ops, &oracle, &mut fresh);
                session.apply(&batch).expect("apply");
                oracle = batch.apply(oracle);
            }
            session.refresh().expect("refresh");
            assert_matches_cold(&session, &oracle, &cfg);
        }
    }

    #[test]
    fn empty_batch_is_byte_identical_noop(paths in paths_strategy()) {
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let mut cfg = InferenceConfig::default();
            cfg.parallelism = par;
            let ps = path_set(&paths);
            let mut session = DeltaSession::new(ps, cfg).expect("session");
            let frames_before: Vec<Vec<u8>> =
                session.artifacts().iter().map(encode_artifact).collect();
            let inference_before = session.inference().expect("inference");
            let arena_before = session.arena().expect("arena");

            session.apply(&UpdateBatch::default()).expect("apply");
            prop_assert!(!session.pending(), "empty batch must not dirty the session");
            let outcome = session.refresh().expect("refresh");

            // Zero recomputes, every stage a skip — via the engine's
            // own delta counters.
            prop_assert_eq!(outcome.recomputed, 0);
            prop_assert_eq!(outcome.skipped, Snapshot::stage_names().len());
            for (name, stats) in &session.stage_report().stages {
                prop_assert_eq!(stats.runs, 0, "stage {} ran on an empty batch", name);
                prop_assert_eq!(stats.delta_skipped, 1, "stage {} not skipped", name);
                prop_assert_eq!(stats.delta_recomputed, 0, "stage {} recomputed", name);
            }

            // Held artifacts are the same allocations, and every
            // serialized frame is byte-identical.
            prop_assert!(Arc::ptr_eq(
                &inference_before,
                &session.inference().expect("inference")
            ));
            prop_assert!(Arc::ptr_eq(&arena_before, &session.arena().expect("arena")));
            for (idx, before) in frames_before.iter().enumerate() {
                let after = encode_artifact(&session.artifacts()[idx]);
                prop_assert_eq!(
                    before, &after,
                    "stage {} frame changed across an empty-batch refresh",
                    Snapshot::stage_names()[idx]
                );
            }
        }
    }
}
