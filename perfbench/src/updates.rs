//! `updates_8k`: the `asrank timeline` flow at the 8k tier (the
//! delta-bench scenario: `internet_2013` scaled by 0.19, 60 VPs, 2,000
//! sampled destinations).
//!
//! Set-up generates and simulates the base RIB and a seeded stream of
//! update batches, each encoded as BGP4MP with `write_update_stream`.
//! Every forward batch is followed by its exact inverse (a flap), so the
//! session returns to its base state after each pair. Batch sizes run
//! from 0.1% to 5% of the samples: multiplicity-only swaps and structural
//! churn (withdrawals and never-seen paths).
//!
//! Timed, in rounds until `--seconds` have passed: `DeltaSession::new`
//! over the base (the timeline's cold start), then one whole pass over
//! the stream, per batch `read_update_batch` -> `apply` -> `refresh`.
//! After the timed part the last session takes one more
//! forward batch and its artifacts are compared, frame by frame, with a
//! cold run over the resulting path set.

use crate::common::*;
use crate::report::Out;
use crate::stats::{median, peak_rss_mib, reset_peak_rss, tail, Rng};
use crate::trace::{self, Span};
use as_topology_gen::{GeneratedTopology, TopologyConfig};
use asrank_core::delta::DeltaSession;
use asrank_core::engine::Snapshot;
use asrank_core::persist::encode_artifact;
use asrank_core::pipeline::InferenceConfig;
use asrank_types::{
    AsPath, Asn, Ipv4Prefix, Parallelism, PathDelta, PathSample, PathSet, UpdateBatch,
    UpdateMessage,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

const SETUP_REPS: usize = 3;
const MIN_ROUNDS: usize = 20;
const FLOOR: PpvFloor = PpvFloor {
    c2p: 0.98,
    p2p: 0.60,
};

#[derive(Debug, Clone, Copy)]
enum Churn {
    /// Multiplicity-only: the distinct path set never changes.
    Swap,
    /// Structural: withdrawals plus never-seen paths under fresh prefixes.
    Mixed,
}

/// The stream's forward batches, as (kind, percent of samples). Any
/// structural change re-runs most of the DAG, so structural batches cost
/// several times a swap of the same size. With 12 swap and 4 structural
/// batches per pass the median batch is a swap, and the three 1% swap
/// pairs put it inside a cluster of equal batches rather than between
/// two sizes; the tail is a 5% structural batch.
const STREAM: [(Churn, f64); 8] = [
    (Churn::Swap, 0.1),
    (Churn::Swap, 0.5),
    (Churn::Swap, 1.0),
    (Churn::Mixed, 0.1),
    (Churn::Swap, 1.0),
    (Churn::Swap, 1.0),
    (Churn::Swap, 3.0),
    (Churn::Mixed, 5.0),
];

fn scenario() -> Scenario {
    Scenario {
        topology: TopologyConfig::internet_2013().scaled(0.19),
        vps: 60,
        destination_sample: Some(2_000),
    }
}

type Deltas = Vec<(Asn, Ipv4Prefix, PathDelta)>;

/// Paths the sanitizer passes through untouched: no repeated ASN and at
/// least three hops, so swapping between them moves no sanitize counter.
fn is_simple(path: &AsPath) -> bool {
    let h = &path.0;
    h.len() >= 3 && (1..h.len()).all(|i| !h[..i].contains(&h[i]))
}

/// Re-announce samples with the path of another sample that shares its
/// first two hops. A path retired `r` times keeps `r + 1` occurrences,
/// so its live count stays positive at every point of either batch and
/// the distinct path set never changes.
fn swap_churn(samples: &[&PathSample], pct: f64, rng: &mut Rng) -> (Deltas, Deltas) {
    let mut occurrences: HashMap<&AsPath, u32> = HashMap::new();
    for s in samples {
        *occurrences.entry(&s.path).or_default() += 1;
    }
    let mut pools: HashMap<(Asn, Asn), Vec<usize>> = HashMap::new();
    for (i, s) in samples.iter().enumerate() {
        if is_simple(&s.path) {
            pools.entry((s.path.0[0], s.path.0[1])).or_default().push(i);
        }
    }
    let target = ((samples.len() as f64) * pct / 100.0).round() as usize;
    let mut used: HashSet<(Asn, Ipv4Prefix)> = HashSet::new();
    let mut retired: HashMap<&AsPath, u32> = HashMap::new();
    let (mut fwd, mut back) = (Vec::new(), Vec::new());
    let mut attempts = 0;
    while fwd.len() < target && attempts < samples.len() * 20 {
        attempts += 1;
        let s = samples[rng.below(samples.len())];
        if !is_simple(&s.path) || used.contains(&(s.vp, s.prefix)) {
            continue;
        }
        if retired.get(&s.path).copied().unwrap_or(0) + 1 >= occurrences[&s.path] {
            continue;
        }
        let pool = &pools[&(s.path.0[0], s.path.0[1])];
        let j = pool[rng.below(pool.len())];
        if samples[j].path == s.path {
            continue;
        }
        used.insert((s.vp, s.prefix));
        *retired.entry(&s.path).or_default() += 1;
        fwd.push((s.vp, s.prefix, PathDelta::Announce(samples[j].path.clone())));
        back.push((s.vp, s.prefix, PathDelta::Announce(s.path.clone())));
    }
    (fwd, back)
}

/// Half withdrawals of live keys, half announcements of never-seen paths
/// (a unique trailing ASN) under prefixes the base set does not hold.
fn mixed_churn(samples: &[&PathSample], pct: f64, rng: &mut Rng) -> (Deltas, Deltas) {
    let taken: HashSet<Ipv4Prefix> = samples.iter().map(|s| s.prefix).collect();
    let mut fresh = (0u32..)
        .map(|k| 0xC600_0000u32.wrapping_add(k << 8))
        .filter_map(|p| Ipv4Prefix::new(p, 24).ok().filter(|p| !taken.contains(p)));
    let target = ((samples.len() as f64) * pct / 100.0).round() as usize;
    let mut used: HashSet<(Asn, Ipv4Prefix)> = HashSet::new();
    let (mut fwd, mut back) = (Vec::new(), Vec::new());
    for k in 0..target {
        let s = samples[rng.below(samples.len())];
        if k % 2 == 0 {
            if used.insert((s.vp, s.prefix)) {
                fwd.push((s.vp, s.prefix, PathDelta::Withdraw));
                back.push((s.vp, s.prefix, PathDelta::Announce(s.path.clone())));
            }
        } else {
            let prefix = fresh.next().expect("the /24 space outlasts any batch");
            let mut hops: Vec<u32> = s.path.0.iter().map(|a| a.0).collect();
            hops.push(3_000_000 + k as u32);
            fwd.push((s.vp, prefix, PathDelta::Announce(AsPath::from_u32s(hops))));
            back.push((s.vp, prefix, PathDelta::Withdraw));
        }
    }
    (fwd, back)
}

/// One batch of the stream: the batch, its BGP4MP bytes, its size.
struct Encoded {
    batch: UpdateBatch,
    bytes: Vec<u8>,
}

fn encode_batch(batch: UpdateBatch, seed: u64) -> Encoded {
    let _s = trace::span("mrt.encode");
    let msgs: Vec<UpdateMessage> = batch
        .iter()
        .map(|(vp, prefix, d)| match d {
            PathDelta::Announce(path) => UpdateMessage {
                vp: *vp,
                withdrawn: Vec::new(),
                announced: vec![(*prefix, path.clone())],
            },
            PathDelta::Withdraw => UpdateMessage {
                vp: *vp,
                withdrawn: vec![*prefix],
                announced: Vec::new(),
            },
        })
        .collect();
    let mut bytes = Vec::new();
    mrt_codec::write_update_stream(&msgs, &mut bytes, seed as u32)
        .expect("encoding into memory cannot fail");
    trace::attr("bytes", bytes.len() as f64);
    Encoded { batch, bytes }
}

struct Setup {
    topo: GeneratedTopology,
    base: PathSet,
    stream: Vec<Encoded>,
    sim_seed: u64,
    /// Summed feed share of the vantage points.
    feed: f64,
}

fn setup(rc: &RunCfg, out: &mut Out) -> Setup {
    let sc = scenario();
    let topo = gen(&sc, rc.seed);
    let (sim_seed, feed) = sim_seed(&topo, &sc, rc.seed);
    let base = sim(&topo, &sc, sim_seed, rc.threads).paths;
    let samples: Vec<&PathSample> = base.iter().collect();
    let mut rng = Rng::new(rc.seed ^ 0xc4a2_9e55_0000_0001);
    let mut stream = Vec::new();
    for (kind, pct) in STREAM {
        let (fwd, back) = match kind {
            Churn::Swap => swap_churn(&samples, pct, &mut rng),
            Churn::Mixed => mixed_churn(&samples, pct, &mut rng),
        };
        out.check(!fwd.is_empty(), || {
            format!("{kind:?} {pct}% churn built no deltas")
        });
        for deltas in [fwd, back] {
            stream.push(encode_batch(UpdateBatch::from_deltas(deltas), rc.seed));
        }
    }
    // The stream must decode to exactly the batches it encodes.
    for e in &stream {
        let ok = mrt_codec::read_update_batch(&e.bytes, Parallelism::threads(rc.threads))
            .is_ok_and(|b| b == e.batch);
        out.check(ok, || {
            "an update batch does not round-trip through BGP4MP".into()
        });
    }
    Setup {
        topo,
        base,
        stream,
        sim_seed,
        feed,
    }
}

fn build(base: &PathSet, cfg: &InferenceConfig) -> Result<(DeltaSession, f64), String> {
    let base = base.clone();
    let t = Instant::now();
    let _root = trace::span("workload.timed");
    let _s = trace::span("core.engine");
    let session = DeltaSession::new(base, cfg.clone()).map_err(|e| e.to_string())?;
    trace::fold_stages(session.stage_report());
    Ok((session, secs(t)))
}

/// Per-batch measurements of the timed loop.
#[derive(Default)]
struct Batches {
    latency_s: Vec<f64>,
    deltas: u64,
    decode_s: f64,
    apply_s: f64,
    refresh_s: f64,
    dirty: u64,
    skipped: u64,
    errors: Vec<String>,
}

/// One pass over the whole stream.
fn pass(session: &mut DeltaSession, stream: &[Encoded], threads: usize, b: &mut Batches) {
    let _root = trace::span("workload.timed");
    for e in stream {
        let t = Instant::now();
        let (batch, dec) = timed(|| {
            let _s = trace::span("mrt.decode");
            trace::attr("bytes", e.bytes.len() as f64);
            mrt_codec::read_update_batch(&e.bytes, Parallelism::threads(threads))
        });
        let batch = match batch {
            Ok(batch) => batch,
            Err(err) => {
                b.errors.push(format!("read_update_batch: {err}"));
                continue;
            }
        };
        let (applied, app) = timed(|| {
            let _s = trace::span("core.delta.apply");
            session.apply(&batch)
        });
        let (outcome, refr) = timed(|| {
            let _s = trace::span("core.engine");
            let o = session.refresh();
            trace::fold_stages(session.stage_report());
            o
        });
        let lat = secs(t);
        match applied
            .map_err(|e| e.to_string())
            .and(outcome.map_err(|e| e.to_string()))
        {
            Ok(o) => {
                b.latency_s.push(lat);
                b.deltas += batch.len() as u64;
                b.dirty += o.dirty_set_size() as u64;
                b.skipped += o.skipped as u64;
            }
            Err(err) => b.errors.push(format!("apply/refresh: {err}")),
        }
        b.decode_s += dec;
        b.apply_s += app;
        b.refresh_s += refr;
    }
}

/// After one pass of a fresh session over the stream: one more forward
/// batch, then every held artifact must equal, byte for byte, a cold run
/// over the path set the same batches give when applied from scratch
/// (`UpdateBatch::apply`, which fixes sample order too); and the
/// inference must stay accurate.
fn final_check(out: &mut Out, session: &mut DeltaSession, s: &Setup, cfg: &InferenceConfig) -> f64 {
    let last = &s.stream[s.stream.len() - 2].batch;
    let applied = session.apply(last).and_then(|_| session.refresh());
    out.check(applied.is_ok(), || {
        format!("final apply/refresh: {:?}", applied.err())
    });
    let mut oracle = s.base.clone();
    for e in &s.stream {
        oracle = e.batch.apply(oracle);
    }
    let oracle = last.apply(oracle);
    let t = Instant::now();
    let mut cold = Snapshot::new(&oracle, cfg.clone());
    let mut same = true;
    for (idx, name) in Snapshot::stage_names().into_iter().enumerate() {
        match cold.materialize(name) {
            Ok(a) => same &= encode_artifact(&a) == encode_artifact(&session.artifacts()[idx]),
            Err(_) => same = false,
        }
    }
    let cold_s = secs(t);
    out.check(same, || {
        "session artifacts differ from a cold run over the final path set".into()
    });
    match session.inference() {
        Ok(inf) => {
            let r = evaluate(&inf.relationships, &s.topo.ground_truth.relationships);
            check_ppv(out, "updates_8k", &r, FLOOR);
        }
        Err(e) => out.check(false, || format!("session inference: {e}")),
    }
    cold_s
}

fn batch_checks(out: &mut Out, b: &Batches, expected: usize) {
    out.check_many(expected as u64, b.errors.len() as u64, || {
        format!(
            "{} batches failed: {}",
            b.errors.len(),
            b.errors.first().cloned().unwrap_or_default()
        )
    });
}

fn delta_extras(out: &mut Out, b: &Batches, cold_rebuild_s: f64) {
    let n = b.latency_s.len().max(1) as f64;
    let on = "p50_ms/tail_ms/rate_per_s (refresh_*, updates_per_s) on updates_8k";
    out.extra("mrt.batch_decode_s", b.decode_s, "s", on);
    out.extra("core.delta.apply_s", b.apply_s, "s", on);
    out.extra("core.delta.refresh_s", b.refresh_s, "s", on);
    out.extra(
        "core.delta.dirty_stages",
        b.dirty as f64 / n,
        "count",
        format!("{on} (mean dirty_set_size)"),
    );
    out.extra("core.delta.recomputed", b.dirty as f64, "count", on);
    out.extra("core.delta.skipped", b.skipped as f64, "count", on);
    out.extra(
        "core.cold_rebuild_s",
        cold_rebuild_s,
        "s",
        "none: the cold run of the final check, for delta/cold ratios",
    );
}

pub fn run(rc: &RunCfg) -> Out {
    let mut out = Out::default();
    let reps = if rc.traced { 1 } else { SETUP_REPS };
    if rc.traced {
        trace::enable();
    }
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..reps {
        let (built, t) = timed(|| setup(rc, &mut out));
        setup_s.push(t);
        s = Some(built);
    }
    let setup_spans = trace::take();
    let s = s.expect("at least one set-up");
    let cfg = engine_cfg(&s.topo, rc.threads);

    if rc.traced {
        let wall = |out: &mut Out| -> Option<(DeltaSession, Batches, f64)> {
            let (mut session, build_s) = match build(&s.base, &cfg) {
                Ok(x) => x,
                Err(e) => {
                    out.check(false, || format!("DeltaSession::new: {e}"));
                    return None;
                }
            };
            let mut b = Batches::default();
            let (_, pass_s) = timed(|| pass(&mut session, &s.stream, rc.threads, &mut b));
            batch_checks(out, &b, s.stream.len());
            Some((session, b, build_s + pass_s))
        };
        let untraced = wall(&mut out);
        trace::enable();
        let mut traced = wall(&mut out);
        let cold_rebuild_s = match traced {
            Some((ref mut session, _, _)) => final_check(&mut out, session, &s, &cfg),
            None => f64::NAN,
        };
        let timed_spans = trace::take();
        let spans = trace::concat(setup_spans, timed_spans.clone());
        trace::enable();
        let _ = sim(&s.topo, &scenario(), s.sim_seed, rc.threads);
        let scale_2t = trace::concat(trace::take(), timed_spans);
        trace::enable();
        let _ = sim(&s.topo, &scenario(), s.sim_seed, 1);
        let cfg_1t = engine_cfg(&s.topo, 1);
        match build(&s.base, &cfg_1t) {
            Ok((mut session, _)) => {
                let mut b = Batches::default();
                pass(&mut session, &s.stream, 1, &mut b);
                batch_checks(&mut out, &b, s.stream.len());
            }
            Err(e) => out.check(false, || format!("DeltaSession::new at 1 thread: {e}")),
        }
        let spans_1t: Vec<Span> = trace::take();
        let (Some(u), Some(t)) = (untraced, traced) else {
            return out;
        };
        let mv = Moves {
            topology: "setup_s on updates_8k",
            bgpsim: "setup_s on updates_8k",
            encode: "setup_s on updates_8k",
            decode: "p50_ms/tail_ms (refresh_*) on updates_8k",
            core: "cold_s (session build) and p50_ms/tail_ms/rate_per_s (refresh_*, updates_per_s) on updates_8k",
            validation: "none: output check only on updates_8k",
        };
        common_layers(&mut out, &spans, &scale_2t, &spans_1t, t.2 - u.2, &mv);
        delta_extras(&mut out, &t.1, cold_rebuild_s);
        crate::write_trace(rc, "updates_8k", &[("2t", &spans), ("1t", &spans_1t)]);
        return out;
    }

    reset_peak_rss();
    // Rounds of one session build and one pass over the stream, so build
    // and batch timings sample the whole measured period.
    let mut builds = Vec::new();
    let mut b = Batches::default();
    let mut session = None;
    let t = Instant::now();
    while builds.len() < MIN_ROUNDS || secs(t) < rc.seconds {
        // Free the previous session first, so the peak is one session's.
        drop(session.take());
        match build(&s.base, &cfg) {
            Ok((mut sess, build_s)) => {
                builds.push(build_s);
                pass(&mut sess, &s.stream, rc.threads, &mut b);
                session = Some(sess);
            }
            Err(e) => {
                out.check(false, || format!("DeltaSession::new: {e}"));
                return out;
            }
        }
    }
    let rss = peak_rss_mib();
    let rounds = builds.len();
    batch_checks(&mut out, &b, rounds * s.stream.len());
    let Some(mut session) = session else {
        return out;
    };
    let cold_rebuild_s = final_check(&mut out, &mut session, &s, &cfg);

    let (pct, tail_s) = tail(&b.latency_s);
    let p50 = median(&b.latency_s);
    let busy: f64 = b.latency_s.iter().sum();
    let rate = b.deltas as f64 / busy;
    let n = b.latency_s.len();
    let build_s = median(&builds);
    out.e2e(
        "cold_s",
        build_s,
        format!(
            "DeltaSession::new over {} samples, median of {}",
            s.base.len(),
            builds.len()
        ),
    );
    out.e2e(
        "p50_ms",
        p50 * 1e3,
        format!("refresh_p50 over {n} batches ({rounds} passes)"),
    );
    out.e2e(
        "tail_ms",
        tail_s * 1e3,
        format!("refresh_tail: p{pct:.1} of {n}"),
    );
    out.e2e(
        "rate_per_s",
        rate,
        "updates_per_s: path deltas absorbed per timed second",
    );
    out.e2e("peak_rss_mib", rss, "VmHWM of the build + pass rounds");
    out.e2e(
        "setup_s",
        median(&setup_s),
        format!("median of {reps} set-ups"),
    );
    out.named(
        "vp_feed_sum",
        s.feed,
        "VPs",
        format!(
            "summed feed share of the 60 VPs (simulation seed {})",
            s.sim_seed
        ),
    );
    out.named(
        "refresh_p50_ms",
        p50 * 1e3,
        "ms",
        "per batch: decode + apply + refresh",
    );
    out.named(
        "refresh_tail_ms",
        tail_s * 1e3,
        "ms",
        format!("p{pct:.1}, n={n}"),
    );
    out.named(
        "updates_per_s",
        rate,
        "1/s",
        "path deltas absorbed per timed second",
    );
    out.named("session_build_s", build_s, "s", "the timeline's cold start");
    out.named("setup_s", median(&setup_s), "s", "");
    out.named("peak_rss_mib", rss, "MiB", "");
    delta_extras(&mut out, &b, cold_rebuild_s);
    out
}
