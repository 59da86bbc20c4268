//! `chain_medium`: the reproduction chain at the `medium` preset.
//!
//! Timed per pass: generate -> simulate -> write_rib_dump ->
//! read_rib_dump_parallel -> cold engine `inference()` + `cones()` (no
//! cache) -> evaluate_against_truth. Set-up is an untimed warm-up pass
//! of the same chain at the `small` preset. bgpsim does most of the work
//! here, so simulator and encoder changes show here and, elsewhere, only
//! in set-up time.

use crate::common::*;
use crate::report::Out;
use crate::stats::{median, peak_rss_mib, reset_peak_rss, tail};
use crate::trace;
use as_topology_gen::TopologyConfig;
use asrank_core::engine::Artifact;
use asrank_core::persist::encode_artifact;
use asrank_types::{checksum64, PathSample, PathSet};
use asrank_validation::GroundTruthReport;
use std::time::Instant;

const SETUP_REPS: usize = 5;
const WARMUP_SEED: u64 = 42;
const MIN_PASSES: usize = 3;
const FLOOR: PpvFloor = PpvFloor {
    c2p: 0.985,
    p2p: 0.50,
};

fn scenario() -> Scenario {
    Scenario {
        topology: TopologyConfig::medium(),
        vps: 30,
        destination_sample: None,
    }
}

fn warmup_scenario() -> Scenario {
    Scenario {
        topology: TopologyConfig::small(),
        vps: 30,
        destination_sample: None,
    }
}

/// What one pass leaves for the checks, which run after its timer stops.
struct Pass {
    wall_s: f64,
    samples: usize,
    /// The decoded RIB holds exactly the simulated samples.
    roundtrip: bool,
    mrt_sum: u64,
    /// Checksums of the inference frame and the three cone frames.
    frame_sums: Result<[u64; 4], String>,
    ppv: Option<GroundTruthReport>,
}

fn pass(sc: &Scenario, seed: u64, sim_seed: u64, threads: usize) -> Pass {
    let t = Instant::now();
    let root = trace::span("workload.timed");
    let topo = gen(sc, seed);
    let sim_out = sim(&topo, sc, sim_seed, threads);
    let bytes = encode_rib(&sim_out.paths, seed);
    let decoded = decode_rib(&bytes, threads);
    let mut ppv = None;
    let mut outputs = Err(String::from("decode failed"));
    if let Ok(paths) = &decoded {
        let cfg = engine_cfg(&topo, threads);
        outputs = engine(paths, &cfg, &topo.ground_truth.prefixes, None);
        if let Ok((inf, _, _)) = &outputs {
            ppv = Some(evaluate(
                &inf.relationships,
                &topo.ground_truth.relationships,
            ));
        }
    }
    drop(root);
    let wall_s = secs(t);
    let frame_sums = outputs.map(|(inf, (rec, bgp, pp), _)| {
        [
            checksum64(&encode_artifact(&Artifact::Inference(inf))),
            checksum64(&encode_artifact(&Artifact::Cone(rec))),
            checksum64(&encode_artifact(&Artifact::Cone(bgp))),
            checksum64(&encode_artifact(&Artifact::Cone(pp))),
        ]
    });
    let roundtrip = match &decoded {
        Ok(d) => sorted(d) == sorted(&sim_out.paths),
        Err(_) => false,
    };
    Pass {
        wall_s,
        samples: sim_out.paths.len(),
        roundtrip,
        mrt_sum: checksum64(&bytes),
        frame_sums,
        ppv,
    }
}

fn sorted(ps: &PathSet) -> Vec<&PathSample> {
    let mut v: Vec<&PathSample> = ps.iter().collect();
    v.sort_by_key(|s| (s.vp, s.prefix));
    v
}

/// Output checks of one pass against the first pass of the run.
fn check(out: &mut Out, p: &Pass, first: &Pass) {
    out.check(p.roundtrip, || {
        "decoded RIB differs from the simulated path set".into()
    });
    out.check(p.mrt_sum == first.mrt_sum, || {
        "MRT bytes differ between passes".into()
    });
    let same = matches!((&p.frame_sums, &first.frame_sums), (Ok(a), Ok(b)) if a == b);
    out.check(same, || match &p.frame_sums {
        Err(e) => format!("engine failed: {e}"),
        Ok(_) => "inference/cone frames differ between passes".into(),
    });
    match &p.ppv {
        Some(r) => check_ppv(out, "chain_medium", r, FLOOR),
        None => out.check(false, || "no validation report".into()),
    }
}

pub fn run(rc: &RunCfg) -> Out {
    let mut out = Out::default();
    let sc = scenario();
    let warm = warmup_scenario();
    let reps = if rc.traced { 1 } else { SETUP_REPS };
    // Set-up: a warm-up pass at `small` on fixed seeds (the same work for
    // every run seed), then the medium topology once to derive the
    // simulation seed.
    let mut setup = Vec::new();
    let mut sim_seed_feed = (rc.seed, 0.0);
    for _ in 0..reps {
        let t = Instant::now();
        pass(&warm, WARMUP_SEED, WARMUP_SEED, rc.threads);
        sim_seed_feed = sim_seed(
            &as_topology_gen::generate(&sc.topology, rc.seed),
            &sc,
            rc.seed,
        );
        setup.push(secs(t));
    }
    let (ss, feed) = sim_seed_feed;

    if rc.traced {
        let untraced = pass(&sc, rc.seed, ss, rc.threads);
        trace::enable();
        let traced = pass(&sc, rc.seed, ss, rc.threads);
        let spans = trace::take();
        trace::enable();
        let single = pass(&sc, rc.seed, ss, 1);
        let spans_1t = trace::take();
        for p in [&untraced, &traced, &single] {
            check(&mut out, p, &untraced);
        }
        let mv = Moves {
            topology: "cold_s (chain_s) on chain_medium",
            bgpsim: "cold_s (chain_s) on chain_medium",
            encode: "cold_s (chain_s) on chain_medium",
            decode: "cold_s (chain_s) on chain_medium",
            core: "cold_s (chain_s) on chain_medium",
            validation: "cold_s (chain_s) on chain_medium",
        };
        common_layers(
            &mut out,
            &spans,
            &spans,
            &spans_1t,
            traced.wall_s - untraced.wall_s,
            &mv,
        );
        crate::write_trace(rc, "chain_medium", &[("2t", &spans), ("1t", &spans_1t)]);
        return out;
    }

    reset_peak_rss();
    let t = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || secs(t) < rc.seconds {
        let p = pass(&sc, rc.seed, ss, rc.threads);
        check(&mut out, &p, passes.first().unwrap_or(&p));
        passes.push(p);
    }
    let rss = peak_rss_mib();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let chain_s = median(&walls);
    let (pct, tail_s) = tail(&walls);
    let samples = passes[0].samples as f64;

    out.named(
        "vp_feed_sum",
        feed,
        "VPs",
        format!("summed feed share of the 30 VPs (simulation seed {ss})"),
    );
    out.e2e(
        "cold_s",
        chain_s,
        format!("chain_s: median of passes {walls:.2?}"),
    );
    out.e2e("p50_ms", chain_s * 1e3, "median chain pass");
    out.e2e(
        "tail_ms",
        tail_s * 1e3,
        format!("p{pct:.1} chain pass (n={})", walls.len()),
    );
    out.e2e(
        "rate_per_s",
        samples / chain_s,
        "RIB samples through the whole chain per second",
    );
    out.e2e("peak_rss_mib", rss, "VmHWM of the timed passes");
    out.e2e(
        "setup_s",
        median(&setup),
        format!("median of {reps} set-ups: warm-up pass at `small` + simulation seed"),
    );
    out.named(
        "chain_s",
        chain_s,
        "s",
        "seed -> validated relationships + 3 cones",
    );
    out.named("setup_s", median(&setup), "s", "untimed warm-up");
    out.named("peak_rss_mib", rss, "MiB", "");
    out
}
