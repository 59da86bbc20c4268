//! Run settings and the traced calls into each layer of the chain.
//!
//! Every call the benchmark makes into a layer goes through one of the
//! wrappers here, so the traced run sees a span per layer call with the
//! counts measured at that boundary.

use crate::report::Out;
use crate::stats::Rng;
use crate::trace::{self, Span};
use as_topology_gen::{generate, GeneratedTopology, TopologyConfig};
use asrank_core::engine::Snapshot;
use asrank_core::pipeline::{Inference, InferenceConfig};
use asrank_core::CustomerCones;
use asrank_types::{Asn, Ipv4Prefix, Parallelism, PathSet, RelationshipMap};
use asrank_validation::{evaluate_against_truth, GroundTruthReport};
use bgp_sim::collector::select_vps;
use bgp_sim::{simulate, AnomalyConfig, PolicyGraph, SimConfig, SimOutput, VpSelection};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured part, seconds.
    pub seconds: f64,
    pub traced: bool,
    /// Worker threads for bgpsim, MRT decode and the engine:
    /// `min(2, available cores)`, never "auto".
    pub threads: usize,
    /// Scratch directory for files the workload writes (RIB, cache).
    pub workdir: PathBuf,
}

/// The three cone flavours, in `Snapshot::cones` order.
pub type Cones = (Arc<CustomerCones>, Arc<CustomerCones>, Arc<CustomerCones>);

/// A simulation scenario: topology preset plus collection settings.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub topology: TopologyConfig,
    pub vps: usize,
    pub destination_sample: Option<usize>,
}

/// Share of vantage points that export their whole table (the paper's
/// 116 of 315).
const FULL_FEED: f64 = 116.0 / 315.0;

impl Scenario {
    fn sim_config(&self, seed: u64, threads: usize) -> SimConfig {
        SimConfig {
            vp_selection: VpSelection::Count(self.vps),
            full_feed_fraction: FULL_FEED,
            anomalies: AnomalyConfig::none(),
            destination_sample: self.destination_sample,
            rib_cap_per_vp: None,
            threads,
            seed,
        }
    }
}

/// Wall seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one closure, returning its value and wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

pub fn gen(sc: &Scenario, seed: u64) -> GeneratedTopology {
    let _s = trace::span("topology.generate");
    generate(&sc.topology, seed)
}

pub fn sim(topo: &GeneratedTopology, sc: &Scenario, seed: u64, threads: usize) -> SimOutput {
    let _s = trace::span("bgpsim.simulate");
    let out = simulate(topo, &sc.sim_config(seed, threads));
    trace::attr("samples", out.paths.len() as f64);
    out
}

/// Candidate simulation seeds [`sim_seed`] compares.
const SIM_SEED_CANDIDATES: usize = 16;

/// The simulation seed for `topo`, derived from the run seed so that
/// every seed collects about the same volume of routes.
///
/// bgpsim draws, per vantage point, a full feed with probability
/// [`FULL_FEED`] and otherwise a feed of a uniform 5-50% of the table
/// (27.5% on average), so the RIB size of a 30-VP collection varies by a
/// quarter from seed to seed, and run-to-run spread would measure the
/// seed, not the code. The benchmark therefore draws a fixed number of
/// candidate simulation seeds from the run seed and keeps the one whose
/// vantage points' feed shares add up closest to their expectation (a
/// fixed count, so set-up costs the same for every seed). Which ASes are
/// vantage points, and the topology itself, still change with the run
/// seed. Returns the chosen seed and the summed feed share.
pub fn sim_seed(topo: &GeneratedTopology, sc: &Scenario, seed: u64) -> (u64, f64) {
    let fabrics: Vec<(Asn, Vec<Asn>)> = topo
        .ixps
        .iter()
        .map(|i| (i.route_server, i.members.clone()))
        .collect();
    let g = PolicyGraph::with_ixp_links(&topo.ground_truth, &fabrics);
    let expected = sc.vps as f64 * (FULL_FEED + (1.0 - FULL_FEED) * 0.275);
    let mut rng = Rng::new(seed ^ 0x5eed_5e1e_c700_0000);
    let mut best = (seed, f64::INFINITY);
    for _ in 0..SIM_SEED_CANDIDATES {
        let cand = rng.next_u64();
        let vps = select_vps(&g, &VpSelection::Count(sc.vps), FULL_FEED, cand);
        let feed: f64 = vps.iter().map(|v| v.feed_fraction).sum();
        if (feed - expected).abs() < (best.1 - expected).abs() {
            best = (cand, feed);
        }
    }
    best
}

pub fn encode_rib(paths: &PathSet, seed: u64) -> Vec<u8> {
    let _s = trace::span("mrt.encode");
    let mut buf = Vec::new();
    mrt_codec::write_rib_dump(paths, &mut buf, seed as u32)
        .expect("encoding into memory cannot fail");
    trace::attr("bytes", buf.len() as f64);
    buf
}

pub fn decode_rib(bytes: &[u8], threads: usize) -> Result<PathSet, String> {
    let _s = trace::span("mrt.decode");
    trace::attr("bytes", bytes.len() as f64);
    mrt_codec::read_rib_dump_parallel(bytes, Parallelism::threads(threads))
        .map_err(|e| e.to_string())
}

/// The engine configuration `asrank infer --topo` builds: IXP route
/// servers from the topology, an explicit thread count.
pub fn engine_cfg(topo: &GeneratedTopology, threads: usize) -> InferenceConfig {
    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    let mut cfg = InferenceConfig::with_ixps(ixps);
    cfg.parallelism = Parallelism::threads(threads);
    cfg
}

/// One engine run: `inference()` + `cones()` over `paths`, optionally on
/// a persistent cache. The stage report is folded into the span.
pub fn engine(
    paths: &PathSet,
    cfg: &InferenceConfig,
    prefixes: &HashMap<Asn, Vec<Ipv4Prefix>>,
    cache: Option<&Path>,
) -> Result<(Arc<Inference>, Cones, asrank_core::StageReport), String> {
    let _s = trace::span("core.engine");
    let snap = Snapshot::new(paths, cfg.clone());
    let snap = match cache {
        Some(dir) => snap.with_cache_dir(dir),
        None => snap,
    };
    let mut snap = snap.with_prefixes(prefixes.clone());
    let inf = snap.inference().map_err(|e| e.to_string())?;
    let cones = snap.cones().map_err(|e| e.to_string())?;
    let report = snap.stage_report();
    trace::fold_stages(&report);
    let (hits, stores) = report.stages.iter().fold((0u64, 0u64), |(h, s), (_, st)| {
        (h + st.disk_hits, s + st.disk_stores)
    });
    trace::attr("disk_hits", hits as f64);
    trace::attr("disk_stores", stores as f64);
    Ok((inf, cones, report))
}

pub fn evaluate(inferred: &RelationshipMap, truth: &RelationshipMap) -> GroundTruthReport {
    let _s = trace::span("validation.evaluate");
    let r = evaluate_against_truth(inferred, truth);
    trace::attr("c2p_ppv", r.c2p_ppv());
    trace::attr("p2p_ppv", r.p2p_ppv());
    r
}

/// PPV floors per scenario. Each sits below the lowest value measured
/// over a few dozen seeds, so a real accuracy loss trips it while
/// seed-to-seed variation does not.
#[derive(Debug, Clone, Copy)]
pub struct PpvFloor {
    pub c2p: f64,
    pub p2p: f64,
}

pub fn check_ppv(out: &mut Out, what: &str, r: &GroundTruthReport, floor: PpvFloor) {
    let (c2p, p2p) = (r.c2p_ppv(), r.p2p_ppv());
    if !out.named.iter().any(|m| m.name == "c2p_ppv") {
        out.named(
            "c2p_ppv",
            c2p,
            "ratio",
            format!("output check: floor {}", floor.c2p),
        );
        out.named(
            "p2p_ppv",
            p2p,
            "ratio",
            format!("output check: floor {}", floor.p2p),
        );
    }
    out.check(c2p >= floor.c2p, || {
        format!("{what}: c2p PPV {c2p:.4} below floor {}", floor.c2p)
    });
    out.check(p2p >= floor.p2p, || {
        format!("{what}: p2p PPV {p2p:.4} below floor {}", floor.p2p)
    });
}

/// Where a per-layer metric should show, per layer family.
pub struct Moves {
    pub topology: &'static str,
    pub bgpsim: &'static str,
    pub encode: &'static str,
    pub decode: &'static str,
    pub core: &'static str,
    pub validation: &'static str,
}

fn wall(spans: &[Span], name: &str) -> f64 {
    trace::layer_times(spans)
        .get(name)
        .map_or(0.0, |t| t.wall_s)
}

fn last_attr(spans: &[Span], name: &str, key: &str) -> f64 {
    spans
        .iter()
        .rev()
        .filter(|s| s.name == name)
        .flat_map(|s| s.attrs.iter())
        .find(|(k, _)| k == key)
        .map_or(f64::NAN, |&(_, v)| v)
}

/// The per-layer metrics every workload reports. `spans` are the traced
/// spans at the benchmark's thread count (set-up and one timed pass).
/// `scale_2t` and `scale_1t` hold the same layer calls made after the
/// process warmed up, at the benchmark's thread count and at one thread:
/// the `*.scaling_2t` rows are their ratios.
pub fn common_layers(
    out: &mut Out,
    spans: &[Span],
    scale_2t: &[Span],
    scale_1t: &[Span],
    overhead_s: f64,
    mv: &Moves,
) {
    let gen_s = wall(spans, "topology.generate");
    out.layer("topology.generate_s", gen_s, "s", mv.topology);

    let sim_s = wall(spans, "bgpsim.simulate");
    let samples = trace::attr_sum(
        &spans
            .iter()
            .filter(|s| s.name == "bgpsim.simulate")
            .cloned()
            .collect::<Vec<_>>(),
        "samples",
    );
    out.layer("bgpsim.simulate_s", sim_s, "s", mv.bgpsim);
    out.layer("bgpsim.samples", samples, "count", mv.bgpsim);
    out.layer("bgpsim.samples_per_s", samples / sim_s, "1/s", mv.bgpsim);
    let scaling = |name: &str| wall(scale_1t, name) / wall(scale_2t, name);
    out.layer(
        "bgpsim.scaling_2t",
        scaling("bgpsim.simulate"),
        "ratio",
        mv.bgpsim,
    );

    let bytes_of = |name: &str| {
        trace::attr_sum(
            &spans
                .iter()
                .filter(|s| s.name == name)
                .cloned()
                .collect::<Vec<_>>(),
            "bytes",
        )
    };
    let enc_s = wall(spans, "mrt.encode");
    out.layer("mrt.encode_s", enc_s, "s", mv.encode);
    out.layer(
        "mrt.encode_mb_per_s",
        bytes_of("mrt.encode") / 1e6 / enc_s,
        "MB/s",
        mv.encode,
    );
    let dec_s = wall(spans, "mrt.decode");
    out.layer("mrt.decode_s", dec_s, "s", mv.decode);
    out.layer(
        "mrt.decode_mb_per_s",
        bytes_of("mrt.decode") / 1e6 / dec_s,
        "MB/s",
        mv.decode,
    );
    out.layer(
        "mrt.decode.scaling_2t",
        scaling("mrt.decode"),
        "ratio",
        mv.decode,
    );

    let engine_s = wall(spans, "core.engine");
    let mut busy_total = 0.0;
    let mut stage_rows = Vec::new();
    for name in Snapshot::stage_names() {
        let key = format!("busy_s.{name}");
        let busy = trace::attr_sum(spans, &key);
        busy_total += busy;
        let scaling = trace::attr_sum(scale_1t, &key) / trace::attr_sum(scale_2t, &key);
        stage_rows.push((name, busy, scaling));
    }
    out.layer("core.engine_s", engine_s, "s", mv.core);
    out.layer("core.untimed_s", engine_s - busy_total, "s", mv.core);
    for (name, busy, _) in &stage_rows {
        out.layer(format!("core.{name}.busy_s"), *busy, "s", mv.core);
    }
    for (name, _, scaling) in &stage_rows {
        out.layer(
            format!("core.{name}.scaling_2t"),
            *scaling,
            "ratio",
            mv.core,
        );
    }

    out.layer(
        "validation.evaluate_s",
        wall(spans, "validation.evaluate"),
        "s",
        mv.validation,
    );
    out.layer(
        "validation.c2p_ppv",
        last_attr(spans, "validation.evaluate", "c2p_ppv"),
        "ratio",
        mv.validation,
    );
    out.layer(
        "validation.p2p_ppv",
        last_attr(spans, "validation.evaluate", "p2p_ppv"),
        "ratio",
        mv.validation,
    );

    for (name, t) in trace::layer_times(spans) {
        let note = format!("self time: wall {:.6} s over {} calls", t.wall_s, t.calls);
        out.extra(format!("{name}.self_s"), t.self_s, "s", note);
    }
    out.layer(
        "trace.uncovered_share",
        trace::uncovered_share(spans, "workload.timed"),
        "ratio",
        "share of the timed wall no layer span covers (target <= 0.05)",
    );
    out.layer(
        "trace.overhead_s",
        overhead_s,
        "s",
        "traced minus untraced wall of one timed pass",
    );
}
