//! Property tests pinning the fast cone engines to their references:
//!
//! * the dense bitset recursive-cone closure must agree with the
//!   straightforward HashSet implementation on random small topologies —
//!   including ones with c2p cycles, which the bitset path collapses
//!   through an SCC condensation while the reference walks them directly
//!   with a visited-set BFS;
//! * the arena-backed single-sweep BGP-observed and provider/peer
//!   observed cones must agree exactly with the retained pre-arena
//!   references on random path sets + relationship maps.

use asrank_core::{sanitize, CustomerCones, PathArena, SanitizeConfig, SanitizedPaths};
use asrank_types::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Random c2p edge list over a small ASN universe. Drawing endpoints
/// independently produces diamonds, multihoming, self-referential SCCs,
/// and disconnected fragments with high probability.
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((1u32..40, 1u32..40), 0..80)
}

/// Optional prefix table assigning a deterministic number of /24s to a
/// subset of the ASes, so measured sizes are exercised too.
fn prefixes_for(edges: &[(u32, u32)]) -> HashMap<Asn, Vec<Ipv4Prefix>> {
    let mut table: HashMap<Asn, Vec<Ipv4Prefix>> = HashMap::new();
    for &(c, p) in edges {
        for a in [c, p] {
            if a % 3 == 0 {
                table.entry(Asn(a)).or_insert_with(|| {
                    (0..a % 5)
                        .map(|i| Ipv4Prefix::new((a << 16) | (i << 8), 24).unwrap())
                        .collect()
                });
            }
        }
    }
    table
}

fn rels_from(edges: &[(u32, u32)]) -> RelationshipMap {
    let mut rels = RelationshipMap::new();
    for &(c, p) in edges {
        if c != p {
            rels.insert_c2p(Asn(c), Asn(p));
        }
    }
    rels
}

/// Random raw path sets over the same small ASN universe. Sanitization
/// discards loops and compresses prepending, so the surviving set is a
/// realistic mix of short, duplicated, and overlapping paths.
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..6), 1..40)
}

/// Random mixed relationship edges: `(x, y, peer?)` — p2p when the flag
/// is set, c2p (x customer of y) otherwise. Last writer wins, exactly as
/// in the pipeline.
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
    fn bitset_closure_matches_reference(edges in edges_strategy()) {
        let rels = rels_from(&edges);
        let prefixes = prefixes_for(&edges);
        let fast = CustomerCones::recursive(&rels, Some(&prefixes));
        let slow = CustomerCones::recursive_reference(&rels, Some(&prefixes));

        prop_assert_eq!(fast.len(), slow.len());
        for asn in slow.ases() {
            prop_assert_eq!(
                fast.members(asn),
                slow.members(asn),
                "members of {} differ",
                asn
            );
            prop_assert_eq!(fast.size(asn), slow.size(asn), "size of {} differs", asn);
        }
        prop_assert_eq!(fast.largest(), slow.largest());
    }

    #[test]
    // chain ≥ 3: a 2-ring is unrepresentable (both directed edges share
    // one undirected AsLink, so the second insert overwrites the first).
    fn forced_cycles_still_match(chain in 3u32..12, extra in edges_strategy()) {
        // Sprinkle random edges, then deterministically close a ring
        // 1→2→…→chain→1 *afterwards* — `insert_c2p` is last-writer-wins,
        // so inserting the ring last guarantees it survives and every
        // case contains at least one non-trivial SCC.
        let mut edges: Vec<(u32, u32)> = extra;
        edges.extend((1..=chain).map(|i| (i, if i == chain { 1 } else { i + 1 })));
        let rels = rels_from(&edges);
        let fast = CustomerCones::recursive(&rels, None);
        let slow = CustomerCones::recursive_reference(&rels, None);
        for asn in slow.ases() {
            prop_assert_eq!(fast.members(asn), slow.members(asn));
        }
        // Every ring member shares the identical cone.
        let first = fast.members(Asn(1)).to_vec();
        for i in 2..=chain {
            prop_assert_eq!(fast.members(Asn(i)), first.as_slice());
        }
    }

    #[test]
    fn arena_bgp_observed_matches_reference(
        paths in paths_strategy(),
        edges in mixed_edges_strategy(),
    ) {
        let sanitized = sanitized_from(&paths);
        let rels = mixed_rels(&edges);
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(x, y, _)| (x, y)).collect();
        let prefixes = prefixes_for(&pairs);
        let slow = CustomerCones::bgp_observed_reference(&sanitized, &rels, Some(&prefixes));
        let fast = CustomerCones::bgp_observed(&PathArena::build(&sanitized), &rels, Some(&prefixes));
        prop_assert_eq!(fast.len(), slow.len(), "cone count differs");
        for asn in slow.ases() {
            prop_assert_eq!(fast.members(asn), slow.members(asn), "members of {} differ", asn);
            prop_assert_eq!(fast.size(asn), slow.size(asn), "size of {} differs", asn);
        }
    }

    #[test]
    fn arena_provider_peer_observed_matches_reference(
        paths in paths_strategy(),
        edges in mixed_edges_strategy(),
    ) {
        let sanitized = sanitized_from(&paths);
        let rels = mixed_rels(&edges);
        let pairs: Vec<(u32, u32)> = edges.iter().map(|&(x, y, _)| (x, y)).collect();
        let prefixes = prefixes_for(&pairs);
        let slow = CustomerCones::provider_peer_observed_reference(&sanitized, &rels, Some(&prefixes));
        let fast = CustomerCones::provider_peer_observed(&PathArena::build(&sanitized), &rels, Some(&prefixes));
        prop_assert_eq!(fast.len(), slow.len(), "cone count differs");
        for asn in slow.ases() {
            prop_assert_eq!(fast.members(asn), slow.members(asn), "members of {} differ", asn);
            prop_assert_eq!(fast.size(asn), slow.size(asn), "size of {} differs", asn);
        }
    }
}
