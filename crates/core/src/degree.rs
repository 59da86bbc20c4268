//! Step S2 — transit degree and AS ranking.
//!
//! The pipeline's visiting order is governed by **transit degree**: the
//! number of distinct neighbors an AS is observed *providing transit
//! between* — i.e., neighbors adjacent to the AS at path positions where
//! the AS is in the middle. Transit degree is a far better proxy for
//! position in the hierarchy than plain node degree, because a stub with
//! many peers still has transit degree zero. Ties break by node degree,
//! then by lower ASN (the paper's ordering).

use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use asrank_types::FxHashMap;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Per-AS degree information derived from sanitized paths.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegreeTable {
    transit: HashMap<Asn, usize>,
    node: HashMap<Asn, usize>,
    /// ASes sorted by (transit degree desc, node degree desc, ASN asc).
    ranked: Vec<Asn>,
}

impl DegreeTable {
    /// Compute degrees over a sanitized dataset: every clean path folded
    /// into the S2 degree ledger, then emitted in rank order.
    pub fn compute(paths: &SanitizedPaths) -> Self {
        let mut ledger = DegreeLedger::default();
        for path in paths.paths() {
            ledger.add(path);
        }
        ledger.emit()
    }

    /// Rebuild a table from its canonical serialized form: one
    /// `(asn, transit degree, node degree)` entry per observed AS, in
    /// `ranked` order. The three internal collections share one key set
    /// by construction, so this is a lossless inverse of walking
    /// [`DegreeTable::ranked`] with the degree accessors — the persistent
    /// artifact codec's decode path. The caller owns the ordering
    /// invariant; only the S2 degree ledger's `emit` establishes it from
    /// scratch.
    pub fn from_ranked_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Asn, usize, usize)>,
    {
        let mut transit = HashMap::new();
        let mut node = HashMap::new();
        let mut ranked = Vec::new();
        for (asn, t, n) in entries {
            transit.insert(asn, t);
            node.insert(asn, n);
            ranked.push(asn);
        }
        DegreeTable {
            transit,
            node,
            ranked,
        }
    }

    /// Transit degree of `asn` (0 for unknown ASes).
    pub fn transit_degree(&self, asn: Asn) -> usize {
        self.transit.get(&asn).copied().unwrap_or(0)
    }

    /// Node degree of `asn` (0 for unknown ASes).
    pub fn node_degree(&self, asn: Asn) -> usize {
        self.node.get(&asn).copied().unwrap_or(0)
    }

    /// ASes in visiting order (highest transit degree first).
    pub fn ranked(&self) -> &[Asn] {
        &self.ranked
    }

    /// Rank position of `asn` (0 = highest), if observed.
    pub fn position(&self, asn: Asn) -> Option<usize> {
        // Linear scan is fine for tests/reports; hot paths use `ranked()`.
        self.ranked.iter().position(|&a| a == asn)
    }

    /// Number of ASes observed.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when no AS was observed.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// ASes with zero transit degree (the edge of the Internet).
    pub fn stubs(&self) -> impl Iterator<Item = Asn> + '_ {
        self.ranked
            .iter()
            .copied()
            .filter(move |&a| self.transit_degree(a) == 0)
    }
}

/// Refcounted degree evidence — the one S2 implementation, shared by the
/// cold stage ([`DegreeTable::compute`]) and the incremental session
/// (`DeltaSession`), which adds and removes paths as update batches
/// arrive. One counter per *directed* neighbor link `(as, neighbor)`
/// across the folded paths, split into the two adjacency flavors S2
/// distinguishes (any position vs. mid-path), plus the per-AS
/// distinct-neighbor tallies those links induce. Each counter is the
/// number of times the link occurs across the folded paths, so
/// [`DegreeLedger::remove`] of a previously added path is exact even when
/// a path repeats an AS.
#[derive(Debug, Clone, Default)]
pub(crate) struct DegreeLedger {
    node: Links,
    transit: Links,
}

/// Refcounted directed links plus the distinct-neighbor count per AS.
#[derive(Debug, Clone, Default)]
struct Links {
    count: FxHashMap<(Asn, Asn), u32>,
    degree: FxHashMap<Asn, u32>,
}

impl Links {
    fn up(&mut self, asn: Asn, neighbor: Asn) {
        let c = self.count.entry((asn, neighbor)).or_insert(0);
        *c += 1;
        if *c == 1 {
            *self.degree.entry(asn).or_insert(0) += 1;
        }
    }

    fn down(&mut self, asn: Asn, neighbor: Asn) {
        let Some(c) = self.count.get_mut(&(asn, neighbor)) else {
            return;
        };
        *c -= 1;
        if *c > 0 {
            return;
        }
        self.count.remove(&(asn, neighbor));
        if let Some(d) = self.degree.get_mut(&asn) {
            *d -= 1;
            if *d == 0 {
                self.degree.remove(&asn);
            }
        }
    }

    fn degree(&self, asn: Asn) -> usize {
        self.degree.get(&asn).copied().unwrap_or(0) as usize
    }
}

impl DegreeLedger {
    /// Count one path's neighbor links.
    pub(crate) fn add(&mut self, path: &AsPath) {
        self.walk(path, Links::up);
    }

    /// Uncount one path previously passed to [`DegreeLedger::add`].
    pub(crate) fn remove(&mut self, path: &AsPath) {
        self.walk(path, Links::down);
    }

    /// The S2 hop walk: every adjacent pair `(a, b)` links both ways; a
    /// link counts toward transit degree when its owner sits mid-path.
    fn walk(&mut self, path: &AsPath, step: fn(&mut Links, Asn, Asn)) {
        let hops = &path.0;
        for (i, pair) in hops.windows(2).enumerate() {
            let (a, b) = (pair[0], pair[1]);
            step(&mut self.node, a, b);
            step(&mut self.node, b, a);
            if i > 0 {
                step(&mut self.transit, a, b);
            }
            if i + 2 < hops.len() {
                step(&mut self.transit, b, a);
            }
        }
    }

    /// Assemble the degree table from the live counters in `O(V log V)`
    /// over observed ASes. The observed set is exactly "node degree > 0"
    /// (a length-1 path contributes no links), ranked by transit degree
    /// desc, node degree desc, ASN asc — the paper's ordering.
    pub(crate) fn emit(&self) -> DegreeTable {
        let mut entries: Vec<(Asn, usize, usize)> = self
            .node
            .degree
            .iter()
            .map(|(&a, &n)| (a, self.transit.degree(a), n as usize))
            .collect();
        // ASNs are unique, so the key is total and the order is fixed
        // regardless of the hash map's visit order.
        entries.sort_unstable_by_key(|&(a, t, n)| (Reverse(t), Reverse(n), a));
        DegreeTable::from_ranked_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{sanitize, SanitizeConfig};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The set-based S2 definition, independent of the ledger: per AS,
    /// the distinct neighbors at any path position (node degree) and at
    /// positions where the AS sits mid-path (transit degree), ranked by
    /// transit desc, node desc, ASN asc.
    fn oracle(paths: &[AsPath]) -> DegreeTable {
        let mut transit_sets: HashMap<Asn, HashSet<Asn>> = HashMap::new();
        let mut node_sets: HashMap<Asn, HashSet<Asn>> = HashMap::new();
        for path in paths {
            let hops = &path.0;
            for (i, &asn) in hops.iter().enumerate() {
                let prev = i.checked_sub(1).map(|j| hops[j]);
                let next = hops.get(i + 1).copied();
                for nb in prev.into_iter().chain(next) {
                    node_sets.entry(asn).or_default().insert(nb);
                }
                if let (Some(p), Some(n)) = (prev, next) {
                    transit_sets.entry(asn).or_default().extend([p, n]);
                }
            }
        }
        let transit = |a: &Asn| transit_sets.get(a).map_or(0, HashSet::len);
        let mut ranked: Vec<Asn> = node_sets.keys().copied().collect();
        ranked.sort_by(|a, b| {
            transit(b)
                .cmp(&transit(a))
                .then_with(|| node_sets[b].len().cmp(&node_sets[a].len()))
                .then_with(|| a.cmp(b))
        });
        DegreeTable::from_ranked_entries(
            ranked
                .into_iter()
                .map(|a| (a, transit(&a), node_sets[&a].len())),
        )
    }

    fn fold<'p>(paths: impl IntoIterator<Item = &'p AsPath>) -> DegreeLedger {
        let mut ledger = DegreeLedger::default();
        for p in paths {
            ledger.add(p);
        }
        ledger
    }

    /// Random paths over a small ASN universe: length-1 paths and
    /// repeated ASes (loops, prepending) are common.
    fn paths_strategy() -> impl Strategy<Value = Vec<AsPath>> {
        proptest::collection::vec(proptest::collection::vec(1u32..12, 1..6), 0..30)
            .prop_map(|raw| raw.into_iter().map(AsPath::from_u32s).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn ledger_fold_matches_set_oracle(paths in paths_strategy()) {
            prop_assert_eq!(fold(&paths).emit(), oracle(&paths));
        }

        #[test]
        fn remove_matches_fresh_fold_of_survivors(
            paths in paths_strategy(),
            drop in proptest::collection::vec(any::<bool>(), 30),
        ) {
            let mut ledger = fold(&paths);
            for (p, _) in paths.iter().zip(&drop).filter(|(_, &d)| d) {
                ledger.remove(p);
            }
            let survivors: Vec<AsPath> = paths
                .iter()
                .zip(&drop)
                .filter(|(_, &d)| !d)
                .map(|(p, _)| p.clone())
                .collect();
            let emitted = ledger.emit();
            prop_assert_eq!(&emitted, &fold(&survivors).emit());
            prop_assert_eq!(&emitted, &oracle(&survivors));
        }
    }

    fn table(paths: &[&[u32]]) -> DegreeTable {
        let ps: PathSet = paths
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect();
        DegreeTable::compute(&sanitize(&ps, &SanitizeConfig::default()))
    }

    #[test]
    fn transit_degree_counts_middle_positions_only() {
        // 2 transits between 1 and 3; 1 and 3 are endpoints everywhere.
        let t = table(&[&[1, 2, 3]]);
        assert_eq!(t.transit_degree(Asn(2)), 2);
        assert_eq!(t.transit_degree(Asn(1)), 0);
        assert_eq!(t.transit_degree(Asn(3)), 0);
        assert_eq!(t.node_degree(Asn(2)), 2);
        assert_eq!(t.node_degree(Asn(1)), 1);
    }

    #[test]
    fn transit_neighbors_accumulate_across_paths() {
        let t = table(&[&[1, 2, 3], &[4, 2, 5], &[1, 2, 5]]);
        // 2's transit neighbors: 1, 3, 4, 5.
        assert_eq!(t.transit_degree(Asn(2)), 4);
    }

    #[test]
    fn ranking_prefers_transit_then_node_then_asn() {
        // 5 has transit degree 2; 9 and 7 have 0.
        // 9 has node degree 1; 7 has node degree 1 → tie broken by ASN.
        let t = table(&[&[9, 5, 7]]);
        assert_eq!(t.ranked()[0], Asn(5));
        assert_eq!(t.ranked()[1], Asn(7));
        assert_eq!(t.ranked()[2], Asn(9));
        assert_eq!(t.position(Asn(5)), Some(0));
    }

    #[test]
    fn stub_detection() {
        let t = table(&[&[1, 2, 3]]);
        let stubs: Vec<Asn> = t.stubs().collect();
        assert_eq!(stubs, vec![Asn(1), Asn(3)]);
    }

    #[test]
    fn endpoint_of_one_path_middle_of_another() {
        let t = table(&[&[1, 2], &[3, 1, 4]]);
        // 1 is an endpoint in path 0 but transits in path 1.
        assert_eq!(t.transit_degree(Asn(1)), 2);
        assert_eq!(t.node_degree(Asn(1)), 3);
    }

    #[test]
    fn empty_input() {
        let t = table(&[]);
        assert!(t.is_empty());
        assert_eq!(t.transit_degree(Asn(1)), 0);
    }
}
