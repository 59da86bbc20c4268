//! Bench: incremental delta runs vs the cold pipeline at the 8k tier
//! (`make bench-delta`).
//!
//! A long-lived [`DeltaSession`] absorbs an update batch and refreshes;
//! the question is what fraction of a cold run that refresh costs at
//! realistic churn. Three churn points:
//!
//! * `delta_1pct` — 1% of the samples re-announced as path *swaps* that
//!   preserve the distinct path set and the per-`(vp, first hop)`
//!   evidence: the dirty set is exactly S1 + the arena fast path + the
//!   S6 counter re-classification, everything else is injected. This is
//!   the PR9 acceptance point (`delta_over_cold_ratio/1pct <= 0.10`).
//! * `delta_5pct` / `delta_20pct` — mixed withdraw + never-seen-path
//!   churn that dirties the path structure, so most of the DAG
//!   recomputes. `delta_20pct` is gated at `<= 1.0`: even when every
//!   stage re-runs, the session must not cost *more* than a cold
//!   rebuild.
//!
//! Why every refresh takes the incremental walk, with no cutover to a
//! cold rebuild at high churn: this bench measured **no crossover up to
//! 20% churn**. The session's maintained evidence keeps the walk's S1
//! (fate reassembly), S2 (the live degree ledger), arena (slot
//! canonicalization), and S6 (counter re-classification) strictly
//! cheaper than their cold scans, and every other stage runs the same
//! body either way. Routing high-churn refreshes through a cold rebuild
//! measured *slower* (~1.5-1.8x the walk at 20%) because it forfeits
//! those provider savings. What actually fixed the former `delta_20pct`
//! regression (1.10 in the PR9 record) was making the evidence cheaper
//! to maintain and consume: the flattened S6 triple-sort, the S2 degree
//! ledger, and `apply`'s in-place compaction with index fix-up instead
//! of a rebuild.
//!
//! The vendored criterion has no `iter_batched`, so each delta bench
//! alternates a forward batch with its exact inverse — every timed
//! iteration is a real churn-then-refresh cycle and the session returns
//! to the base state every second iteration, with nothing cloned inside
//! the timed path.

use as_topology_gen::TopologyConfig;
use asrank_bench::harness::{scenario_inputs, Scenario};
use asrank_core::delta::DeltaSession;
use asrank_core::engine::Snapshot;
use asrank_core::pipeline::InferenceConfig;
use asrank_types::prelude::*;
use asrank_types::{PathDelta, UpdateBatch};
use bgp_sim::AnomalyConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;

/// The 8k scale tier (same parameters as `benches/scale.rs`).
fn tier_inputs() -> (PathSet, InferenceConfig) {
    let scenario = Scenario {
        topology: TopologyConfig::internet_2013().scaled(0.19),
        vps: 60,
        full_feed: 116.0 / 315.0,
        anomalies: AnomalyConfig::none(),
        destination_sample: Some(2_000),
        rib_cap_per_vp: None,
        seed: 42,
    };
    scenario_inputs(&scenario)
}

/// Deterministic churn-site picker (splitmix-style LCG) — the batches
/// must be identical run to run for the recorded medians to be
/// comparable across snapshots.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Paths the sanitizer passes through untouched: no repeated ASN (no
/// loop to discard, no prepending to compress) and at least three hops.
/// Swapping between such paths leaves every sanitize counter unchanged.
fn is_simple(path: &AsPath) -> bool {
    let h = &path.0;
    h.len() >= 3 && (1..h.len()).all(|i| !h[..i].contains(&h[i]))
}

/// A churn batch plus its exact inverse (applying `forward` then
/// `backward` returns the session to its starting state).
struct ChurnPair {
    forward: UpdateBatch,
    backward: UpdateBatch,
}

/// Multiplicity-preserving 1% churn: for ~`len/100` samples, re-announce
/// the key with the raw path of another sample that shares the same
/// first two hops (so `(vp, first hop)` evidence totals are unchanged)
/// and whose own path stays in the set. A path retired `r` times across
/// the batch needs `r + 1` original occurrences — then its live count
/// stays positive at every intermediate point of the batch application
/// (in either direction, in any sample order), so the distinct path set
/// never changes and only multiplicities move.
fn swap_churn(paths: &PathSet, fraction_pct: usize) -> ChurnPair {
    let samples: Vec<&PathSample> = paths.iter().collect();
    let mut occurrences: HashMap<&AsPath, u32> = HashMap::new();
    for s in &samples {
        *occurrences.entry(&s.path).or_default() += 1;
    }
    // Candidate pools keyed by the first two hops, simple paths only.
    let mut pools: HashMap<(Asn, Asn), Vec<usize>> = HashMap::new();
    for (i, s) in samples.iter().enumerate() {
        if is_simple(&s.path) {
            pools.entry((s.path.0[0], s.path.0[1])).or_default().push(i);
        }
    }

    let target = samples.len() * fraction_pct / 100;
    let mut rng = Lcg::new(0x9e37_79b9_97f4_a7c5);
    let mut used: HashSet<(Asn, Ipv4Prefix)> = HashSet::new();
    let mut retired: HashMap<&AsPath, u32> = HashMap::new();
    let mut forward = Vec::new();
    let mut backward = Vec::new();
    let mut attempts = 0usize;
    while forward.len() < target && attempts < samples.len() * 20 {
        attempts += 1;
        let i = (rng.next() as usize) % samples.len();
        let s = samples[i];
        if !is_simple(&s.path) || used.contains(&(s.vp, s.prefix)) {
            continue;
        }
        // Cap total retirements of this path at occurrences - 1: the
        // worst-case interleaving leaves at least one live copy.
        if retired.get(&s.path).copied().unwrap_or(0) + 1 >= occurrences[&s.path] {
            continue;
        }
        let pool = &pools[&(s.path.0[0], s.path.0[1])];
        let j = pool[(rng.next() as usize) % pool.len()];
        if samples[j].path == s.path {
            continue;
        }
        used.insert((s.vp, s.prefix));
        *retired.entry(&s.path).or_default() += 1;
        forward.push((s.vp, s.prefix, PathDelta::Announce(samples[j].path.clone())));
        backward.push((s.vp, s.prefix, PathDelta::Announce(s.path.clone())));
    }
    assert!(
        forward.len() * 2 >= target,
        "swap churn could only build {}/{} entries",
        forward.len(),
        target
    );
    ChurnPair {
        forward: UpdateBatch::from_deltas(forward),
        backward: UpdateBatch::from_deltas(backward),
    }
}

/// Mixed structural churn: half withdraws of live keys, half
/// announcements of never-seen paths under fresh prefixes. Both halves
/// change the distinct path set, so the refresh pays the
/// structure-dirty pipeline.
fn mixed_churn(paths: &PathSet, fraction_pct: usize) -> ChurnPair {
    let samples: Vec<&PathSample> = paths.iter().collect();
    let target = samples.len() * fraction_pct / 100;
    let mut rng = Lcg::new(0x0123_4567_89ab_cdef);
    let mut used: HashSet<(Asn, Ipv4Prefix)> = HashSet::new();
    let mut forward = Vec::new();
    let mut backward = Vec::new();
    for k in 0..target {
        if k % 2 == 0 {
            // Withdraw a live key (re-announced exactly on the way back).
            loop {
                let i = (rng.next() as usize) % samples.len();
                let s = samples[i];
                if used.insert((s.vp, s.prefix)) {
                    forward.push((s.vp, s.prefix, PathDelta::Withdraw));
                    backward.push((s.vp, s.prefix, PathDelta::Announce(s.path.clone())));
                    break;
                }
            }
        } else {
            // A brand-new path (unique trailing ASN) under a fresh /24.
            let i = (rng.next() as usize) % samples.len();
            let s = samples[i];
            let mut hops: Vec<u32> = s.path.0.iter().map(|a| a.0).collect();
            hops.push(3_000_000 + k as u32);
            let prefix = Ipv4Prefix::new(0xC600_0000 | ((k as u32) << 8), 24)
                .expect("fresh bench prefix");
            forward.push((s.vp, prefix, PathDelta::Announce(AsPath::from_u32s(hops))));
            backward.push((s.vp, prefix, PathDelta::Withdraw));
        }
    }
    ChurnPair {
        forward: UpdateBatch::from_deltas(forward),
        backward: UpdateBatch::from_deltas(backward),
    }
}

fn bench_delta(c: &mut Criterion) {
    let (paths, cfg) = tier_inputs();
    let mut group = c.benchmark_group("delta");
    group.sample_size(10);

    // Cold: every stage plus the three cones from scratch — the
    // denominator of every delta_over_cold ratio.
    group.bench_with_input(BenchmarkId::new("cold", "8k"), &paths, |b, paths| {
        b.iter(|| {
            let mut snap = Snapshot::new(paths, cfg.clone());
            black_box(snap.inference().unwrap());
            black_box(snap.cones().unwrap());
        })
    });

    let churns: [(&str, ChurnPair); 3] = [
        ("delta_1pct", swap_churn(&paths, 1)),
        ("delta_5pct", mixed_churn(&paths, 5)),
        ("delta_20pct", mixed_churn(&paths, 20)),
    ];
    for (name, pair) in churns {
        let mut session = DeltaSession::new(paths.clone(), cfg.clone()).expect("delta session");
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new(name, "8k"), &pair, |b, pair| {
            b.iter(|| {
                let batch = if flip { &pair.backward } else { &pair.forward };
                flip = !flip;
                session.apply(batch).expect("apply");
                black_box(session.refresh().expect("refresh"))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_delta);
criterion_main!(benches);
