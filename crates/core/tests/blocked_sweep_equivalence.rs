//! Property test pinning the cache-blocked pair merge of the observed
//! cone sweep to the full-width unblocked merge: for random topologies,
//! and every forced block width (including degenerate 1-id blocks and
//! widths larger than the id space), the blocked merge must produce the
//! bit-identical sorted pair list. The block width is a cache-layout
//! parameter: it must never be observable in any output. The cones built from the merged pairs
//! are pinned against the pre-arena references in `cone_equivalence.rs`.

use asrank_core::cone::{bgp_raw_sweep_pairs, merge_sweep_pairs_blocked, merge_sweep_pairs_unblocked};
use asrank_core::{sanitize, PathArena, SanitizeConfig, SanitizedPaths};
use asrank_types::prelude::*;
use proptest::prelude::*;

/// Forced owner-block widths the sweep must be invariant over: 0 is
/// the automatic cache-sized width, 1 makes every owner its own block,
/// 3/17 force ragged boundaries, 256 typically covers the whole small
/// universe in one block (the unblocked fast path).
const BLOCK_WIDTHS: [usize; 5] = [0, 1, 3, 17, 256];

/// Random raw path sets over a small ASN universe (same shape as
/// `cone_equivalence.rs`, the unblocked sweep's own oracle suite).
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..6), 1..40)
}

/// Random mixed relationship edges: `(x, y, peer?)` — p2p when the
/// flag is set, c2p (x customer of y) otherwise.
fn mixed_edges_strategy() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    proptest::collection::vec((1u32..40, 1u32..40, any::<bool>()), 0..80)
}

fn sanitized_from(paths: &[Vec<u32>]) -> SanitizedPaths {
    let ps: PathSet = paths
        .iter()
        .enumerate()
        .map(|(i, p)| PathSample {
            vp: Asn(p[0]),
            prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
            path: AsPath::from_u32s(p.iter().copied()),
        })
        .collect();
    sanitize(&ps, &SanitizeConfig::default())
}

fn mixed_rels(edges: &[(u32, u32, bool)]) -> RelationshipMap {
    let mut rels = RelationshipMap::new();
    for &(x, y, peer) in edges {
        if x == y {
            continue;
        }
        if peer {
            rels.insert_p2p(Asn(x), Asn(y));
        } else {
            rels.insert_c2p(Asn(x), Asn(y));
        }
    }
    rels
}

proptest! {
    #[test]
    fn blocked_pair_merge_is_bit_identical(
        paths in paths_strategy(),
        edges in mixed_edges_strategy(),
    ) {
        // One level below the cones: the merged pair lists themselves
        // must be bit-identical, not merely materialize to equal sets.
        let sanitized = sanitized_from(&paths);
        let rels = mixed_rels(&edges);
        let arena = PathArena::build(&sanitized);
        let raw = bgp_raw_sweep_pairs(&arena, &rels);
        let reference = merge_sweep_pairs_unblocked(&raw, arena.num_ases());
        for block in BLOCK_WIDTHS {
            let merged = merge_sweep_pairs_blocked(&raw, arena.num_ases(), block);
            prop_assert_eq!(&merged, &reference, "merged pairs differ at block {}", block);
        }
    }
}
