//! Bench: the three customer-cone computations.

use as_topology_gen::{generate, TopologyConfig};
use asrank_core::cone::CustomerCones;
use asrank_core::pipeline::{infer, InferenceConfig};
use asrank_core::{sanitize, SanitizeConfig};
use bgp_sim::{simulate, SimConfig, VpSelection};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_cones(c: &mut Criterion) {
    let mut group = c.benchmark_group("cones");
    group.sample_size(10);
    for (name, factor) in [("1k", 1.0), ("2k", 2.0)] {
        let topo = generate(&TopologyConfig::small().scaled(factor), 4);
        let mut cfg = SimConfig::defaults(4);
        cfg.vp_selection = VpSelection::Count(20);
        let sim = simulate(&topo, &cfg);
        let inference = infer(&sim.paths, &InferenceConfig::default());
        let clean = sanitize(&sim.paths, &SanitizeConfig::default());
        let rels = &inference.relationships;
        // Prefix tables are passed because that is how `rank` calls these
        // in the real pipeline — cone sizing is part of the measured work.
        let prefixes = &topo.ground_truth.prefixes;
        group.bench_with_input(BenchmarkId::new("recursive", name), rels, |b, rels| {
            b.iter(|| black_box(CustomerCones::recursive(rels, Some(prefixes))))
        });
        // The pre-rewrite HashSet closure — the baseline the bitset
        // implementation is measured against (acceptance: ≥ 3× faster).
        group.bench_with_input(
            BenchmarkId::new("recursive_reference", name),
            rels,
            |b, rels| {
                b.iter(|| black_box(CustomerCones::recursive_reference(rels, Some(prefixes))))
            },
        );
        // The arena engines, measured per cone flavour over the shared
        // prebuilt arena — exactly what `ConeSets::compute` pays per
        // flavour (the pipeline builds the arena once; its one-shot cost
        // is the separate `arena_build` bench below).
        let arena = clean.arena();
        group.bench_with_input(
            BenchmarkId::new("bgp_observed", name),
            &(&arena, rels),
            |b, (arena, rels)| {
                b.iter(|| black_box(CustomerCones::bgp_observed(arena, rels, None)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("provider_peer", name),
            &(&arena, rels),
            |b, (arena, rels)| {
                b.iter(|| black_box(CustomerCones::provider_peer_observed(arena, rels, None)))
            },
        );
        // The pre-arena per-AS-rescan engines (the PR1 baselines, kept as
        // proptest oracles) — the denominators of the derived
        // `bgp_observed_speedup` / `provider_peer_speedup` ratios.
        group.bench_with_input(
            BenchmarkId::new("bgp_observed_reference", name),
            &(&clean, rels),
            |b, (clean, rels)| {
                b.iter(|| black_box(CustomerCones::bgp_observed_reference(clean, rels, None)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("provider_peer_reference", name),
            &(&clean, rels),
            |b, (clean, rels)| {
                b.iter(|| {
                    black_box(CustomerCones::provider_peer_observed_reference(clean, rels, None))
                })
            },
        );
        // Arena construction alone: the one-shot cost the pipeline pays
        // once and every path-consuming stage then shares.
        group.bench_with_input(BenchmarkId::new("arena_build", name), &clean, |b, clean| {
            b.iter(|| black_box(clean.arena()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cones);
criterion_main!(benches);
