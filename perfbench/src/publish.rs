//! `publish_internet`: the `asrank infer --cache-dir` -> `asrank serve`
//! flow at the paper's 2013 scale (`Scale::Internet` scenario: 315 VPs,
//! 6,000 sampled destinations).
//!
//! Set-up runs generate + simulate + encode and writes the RIB file.
//! Timed, in four phases:
//! 1. `infer_cold`: read + decode the RIB, store the `rib_ingest` path
//!    set as `load_rib` does, cold `inference()` + `cones()` into a fresh
//!    cache directory (every stage frame is persisted);
//! 2. `infer_warm`: the same flow again, answered from the cache frames;
//! 3. `serve_load`: `Server::start` on that cache until the first answer;
//! 4. queries: a closed loop of 2 persistent TCP connections, one request
//!    outstanding each, over a fixed window; then a fixed sequence of
//!    one-shot connections (connect, one query, `quit`).
//!
//! Every TCP answer is compared, after the window, with the answer built
//! from the owned cold-run inference and cones.

use crate::common::*;
use crate::queries::{mix, Conn, Oracle, Request};
use crate::report::Out;
use crate::stats::{median, peak_rss_mib, reset_peak_rss, tail};
use crate::trace::{self, Span};
use as_topology_gen::{GeneratedTopology, TopologyConfig};
use asrank_core::engine::Artifact;
use asrank_core::persist::encode_artifact;
use asrank_core::pipeline::{Inference, InferenceConfig};
use asrank_core::CacheDir;
use asrank_serve::{Answer, Query, ServeSnapshot, Server, SourceSpec, RIB_INGEST_STAGE};
use asrank_types::{checksum64, Asn, Ipv4Prefix, RelationshipMap};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONNECTIONS: usize = 2;
const QUERIES_PER_CONNECTION: usize = 4096;
const ONESHOTS: usize = 40;
/// Repetitions of phases 1-3 in an untraced run; each reports its median.
const REPS: usize = 2;
/// Query window of the traced run, which measures layers, not latency.
const TRACED_WINDOW_S: f64 = 2.0;
const FLOOR: PpvFloor = PpvFloor {
    c2p: 0.99,
    p2p: 0.80,
};

fn scenario() -> Scenario {
    Scenario {
        topology: TopologyConfig::internet_2013(),
        vps: 315,
        destination_sample: Some(6_000),
    }
}

struct Setup {
    topo: GeneratedTopology,
    rib: PathBuf,
    samples: usize,
    sim_seed: u64,
    /// Summed feed share of the vantage points.
    feed: f64,
}

fn setup(rc: &RunCfg) -> Result<Setup, String> {
    let sc = scenario();
    let topo = gen(&sc, rc.seed);
    let (sim_seed, feed) = sim_seed(&topo, &sc, rc.seed);
    let sim_out = sim(&topo, &sc, sim_seed, rc.threads);
    let bytes = encode_rib(&sim_out.paths, rc.seed);
    let rib = rc.workdir.join("internet.mrt");
    {
        let _s = trace::span("io.write");
        std::fs::write(&rib, &bytes).map_err(|e| format!("writing {}: {e}", rib.display()))?;
    }
    Ok(Setup {
        samples: sim_out.paths.len(),
        topo,
        rib,
        sim_seed,
        feed,
    })
}

/// Owned outputs of one infer phase.
struct Built {
    inf: Arc<Inference>,
    cones: Cones,
    /// Stage bodies run and frames read from disk, over all stages.
    runs: u64,
    disk_hits: u64,
}

impl Built {
    fn frames(&self) -> Vec<Vec<u8>> {
        vec![
            encode_artifact(&Artifact::Inference(Arc::clone(&self.inf))),
            encode_artifact(&Artifact::Cone(Arc::clone(&self.cones.0))),
            encode_artifact(&Artifact::Cone(Arc::clone(&self.cones.1))),
            encode_artifact(&Artifact::Cone(Arc::clone(&self.cones.2))),
        ]
    }
}

struct Inputs<'a> {
    rib: &'a Path,
    cfg: InferenceConfig,
    prefixes: &'a HashMap<Asn, Vec<Ipv4Prefix>>,
}

fn read_rib(rib: &Path) -> Result<Vec<u8>, String> {
    let _s = trace::span("io.read");
    std::fs::read(rib).map_err(|e| format!("reading {}: {e}", rib.display()))
}

fn finish(inf: Arc<Inference>, cones: Cones, report: asrank_core::StageReport) -> Built {
    let (runs, disk_hits) = report
        .stages
        .iter()
        .fold((0, 0), |(r, h), (_, s)| (r + s.runs, h + s.disk_hits));
    Built {
        inf,
        cones,
        runs,
        disk_hits,
    }
}

/// Phase 1: RIB file -> inference + cones persisted under `cache`.
fn infer_cold(inp: &Inputs, cache: &Path) -> Result<Built, String> {
    let _root = trace::span("workload.timed");
    let bytes = read_rib(inp.rib)?;
    let paths = decode_rib(&bytes, inp.cfg.parallelism.effective())?;
    {
        let _s = trace::span("core.persist.store_rib_ingest");
        if !CacheDir::new(cache).store_paths(RIB_INGEST_STAGE, checksum64(&bytes), &paths) {
            return Err("storing the rib_ingest frame failed".into());
        }
    }
    let (inf, cones, report) = engine(&paths, &inp.cfg, inp.prefixes, Some(cache))?;
    Ok(finish(inf, cones, report))
}

/// Phase 2: the same flow over a warm cache — no decode, no stage body.
fn infer_warm(inp: &Inputs, cache: &Path) -> Result<Built, String> {
    let _root = trace::span("workload.timed");
    let bytes = read_rib(inp.rib)?;
    let paths = {
        let _s = trace::span("core.persist.load_rib_ingest");
        CacheDir::new(cache)
            .load_paths(RIB_INGEST_STAGE, checksum64(&bytes))
            .ok_or("rib_ingest frame missing from the warm cache")?
    };
    let (inf, cones, report) = engine(&paths, &inp.cfg, inp.prefixes, Some(cache))?;
    Ok(finish(inf, cones, report))
}

fn spec(inp: &Inputs, cache: &Path) -> SourceSpec {
    SourceSpec {
        rib: inp.rib.to_path_buf(),
        cache_root: cache.to_path_buf(),
        cfg: inp.cfg.clone(),
        prefixes: Some(inp.prefixes.clone()),
    }
}

/// Answers one connection received: `(request index, latency s, line)`.
type Received = Vec<(usize, f64, String)>;

/// Phase 3: start the server and wait for its first answer.
fn serve_load(inp: &Inputs, cache: &Path, first: &Request) -> Result<(Server, String), String> {
    let _root = trace::span("workload.timed");
    let _s = trace::span("serve.load");
    let server =
        Server::start(spec(inp, cache), 0, None).map_err(|e| format!("serve start: {e}"))?;
    let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let answer = conn
        .ask(&first.line)
        .map_err(|e| format!("first query: {e}"))?
        .to_string();
    let _ = conn.quit();
    Ok((server, answer))
}

/// Closed loop on one persistent connection until `deadline`.
fn client(addr: std::net::SocketAddr, reqs: &[Request], deadline: Instant) -> (Received, u64) {
    let mut got = Vec::new();
    let Ok(mut conn) = Conn::connect(addr) else {
        return (got, 1);
    };
    let mut i = 0usize;
    while Instant::now() < deadline {
        let idx = i % reqs.len();
        let t = Instant::now();
        match conn.ask(&reqs[idx].line) {
            Ok(a) => got.push((idx, secs(t), a.to_string())),
            Err(_) => return (got, 1),
        }
        i += 1;
    }
    let _ = conn.quit();
    (got, 0)
}

struct QueryPhase {
    /// Measured length of the closed-loop window.
    window_s: f64,
    received: Vec<Received>,
    client_errors: u64,
    oneshots: Vec<(usize, f64, String)>,
    oneshot_errors: u64,
}

/// Phase 4: the query window, then the one-shot sequence.
fn query_phase(addr: std::net::SocketAddr, lists: &[Vec<Request>], window_s: f64) -> QueryPhase {
    let _root = trace::span("workload.timed");
    let start = Instant::now();
    let (received, client_errors) = {
        let _s = trace::span("serve.tcp_window");
        let deadline = start + Duration::from_secs_f64(window_s);
        let results: Vec<(Received, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = lists
                .iter()
                .map(|reqs| s.spawn(move || client(addr, reqs, deadline)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let errors = results.iter().map(|r| r.1).sum();
        (results.into_iter().map(|r| r.0).collect(), errors)
    };
    // The window closes when the last request in flight at the deadline
    // has its answer.
    let window_s = secs(start);
    let mut oneshots = Vec::new();
    let mut oneshot_errors = 0;
    for i in 0..ONESHOTS {
        let _s = trace::span("serve.oneshot");
        let idx = i % lists[0].len();
        let t = Instant::now();
        let result = Conn::connect(addr).and_then(|mut c| {
            let a = c.ask(&lists[0][idx].line)?.to_string();
            c.quit()?;
            Ok(a)
        });
        match result {
            Ok(a) => oneshots.push((idx, secs(t), a)),
            Err(_) => oneshot_errors += 1,
        }
    }
    QueryPhase {
        window_s,
        received,
        client_errors,
        oneshots,
        oneshot_errors,
    }
}

/// In-process lookup cost over the same query lists, ns per query.
fn inproc_ns_per_query(
    inp: &Inputs,
    cache: &Path,
    lists: &[Vec<Request>],
    oracle: &Oracle,
    out: &mut Out,
) -> f64 {
    let _s = trace::span("serve.inproc");
    let snap = match ServeSnapshot::load(&spec(inp, cache), 1) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("ServeSnapshot::load: {e}"));
            return f64::NAN;
        }
    };
    let queries: Vec<Query> = lists.iter().flatten().map(|r| r.query).collect();
    let mut answers: Vec<Answer> = Vec::new();
    snap.answer_batch(&queries, &mut answers);
    let bad = queries
        .iter()
        .zip(&answers)
        .filter(|(q, a)| oracle.answer(**q) != **a)
        .count();
    out.check_many(queries.len() as u64, bad as u64, || {
        format!("{bad} in-process answers differ from the engine")
    });
    let t = Instant::now();
    let mut rounds = 0u64;
    while rounds < 3 || secs(t) < 0.2 {
        snap.answer_batch(std::hint::black_box(&queries), &mut answers);
        rounds += 1;
    }
    secs(t) * 1e9 / (rounds as f64 * queries.len() as f64)
}

/// What one pass over the four phases measured.
struct Phases {
    cold_s: f64,
    warm_s: f64,
    serve_load_s: f64,
    queries: QueryPhase,
    frame_bytes: u64,
    warm_hits: u64,
    inproc_ns: f64,
    /// Sum of the phase walls (the query window is fixed-length).
    wall_s: f64,
    cold_runs: Vec<f64>,
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// One pass over the four phases, with every output check. Phases 1-3
/// run `reps` times (each cold run into a fresh cache directory) and
/// report their medians; the last repetition's cache and server carry on
/// into the next phase. `None` when a phase failed outright.
fn phases(
    rc: &RunCfg,
    inp: &Inputs,
    truth: &RelationshipMap,
    cache: &Path,
    window_s: f64,
    reps: usize,
    out: &mut Out,
) -> Option<Phases> {
    let mut cold_runs = Vec::new();
    let mut cold = None;
    for _ in 0..reps {
        // Free the previous repetition's outputs first, so the peak is one
        // cold run's.
        drop(cold.take());
        let _ = std::fs::remove_dir_all(cache);
        let (built, t) = timed(|| infer_cold(inp, cache));
        match built {
            Ok(b) => {
                out.check(b.runs > 0, || "infer_cold ran no stage body".into());
                cold_runs.push(t);
                cold = Some(b);
            }
            Err(e) => {
                out.check(false, || format!("infer_cold: {e}"));
                return None;
            }
        }
    }
    let cold = cold?;
    let frame_bytes = dir_bytes(cache);

    let mut warm_runs = Vec::new();
    let mut warm_hits = 0;
    for rep in 0..reps {
        let (warm, t) = timed(|| infer_warm(inp, cache));
        warm_runs.push(t);
        match warm {
            Ok(w) => {
                if rep == 0 {
                    out.check(w.frames() == cold.frames(), || {
                        "infer_warm artifacts differ from infer_cold".into()
                    });
                }
                out.check(w.runs == 0, || {
                    format!("infer_warm ran {} stage bodies", w.runs)
                });
                warm_hits = w.disk_hits;
            }
            Err(e) => out.check(false, || format!("infer_warm: {e}")),
        }
    }

    let ppv = evaluate(&cold.inf.relationships, truth);
    check_ppv(out, "publish_internet", &ppv, FLOOR);

    let oracle = Oracle::new(Arc::clone(&cold.inf), cold.cones.clone());
    let lists: Vec<Vec<Request>> = (0..CONNECTIONS as u64)
        .map(|c| {
            mix(
                &cold.inf,
                rc.seed ^ (0x5e4e_0000 + c),
                QUERIES_PER_CONNECTION,
            )
        })
        .collect();
    let first = &lists[0][0];
    let want = oracle.line(first.query);
    let mut load_runs = Vec::new();
    let mut server = None;
    for _ in 0..reps {
        // Stop the previous repetition's server before starting the next.
        drop(server.take());
        match timed(|| serve_load(inp, cache, first)) {
            (Ok((s, answer)), t) => {
                out.check(answer == want, || {
                    format!("first answer {answer:?}, engine says {want:?}")
                });
                load_runs.push(t);
                server = Some(s);
            }
            (Err(e), _) => {
                out.check(false, || format!("serve_load: {e}"));
                return None;
            }
        }
    }
    let server = server?;
    let (queries, query_s) = timed(|| query_phase(server.addr(), &lists, window_s));
    drop(server);

    // Compare every TCP answer with the engine's, after the window.
    let mut n = 0u64;
    let mut bad = 0u64;
    for (c, got) in queries.received.iter().enumerate() {
        for (idx, _, line) in got {
            n += 1;
            if *line != oracle.line(lists[c][*idx].query) {
                bad += 1;
            }
        }
    }
    for (idx, _, line) in &queries.oneshots {
        n += 1;
        if *line != oracle.line(lists[0][*idx].query) {
            bad += 1;
        }
    }
    out.check_many(n, bad, || {
        format!("{bad} of {n} TCP answers differ from the engine")
    });
    let errs = queries.client_errors + queries.oneshot_errors;
    out.check_many(errs, errs, || format!("{errs} TCP connections failed"));

    let (cold_s, warm_s, serve_load_s) =
        (median(&cold_runs), median(&warm_runs), median(&load_runs));
    let inproc_ns = inproc_ns_per_query(inp, cache, &lists, &oracle, out);
    Some(Phases {
        cold_s,
        warm_s,
        serve_load_s,
        frame_bytes,
        warm_hits,
        inproc_ns,
        wall_s: cold_runs
            .iter()
            .chain(&warm_runs)
            .chain(&load_runs)
            .sum::<f64>()
            + query_s,
        queries,
        cold_runs,
    })
}

/// Infer phase only, at one thread, for the scaling rows.
fn cold_only(inp: &Inputs, cache: &Path, out: &mut Out) {
    let _ = std::fs::remove_dir_all(cache);
    if let Err(e) = infer_cold(inp, cache) {
        out.check(false, || format!("infer_cold at 1 thread: {e}"));
    }
    let _ = std::fs::remove_dir_all(cache);
}

fn extras(out: &mut Out, p: &Phases, spans: Option<&[Span]>) {
    out.extra(
        "core.persist.frame_bytes",
        p.frame_bytes as f64,
        "bytes",
        "infer_warm_s, serve_load_s on publish_internet",
    );
    out.extra(
        "core.persist.disk_hits",
        p.warm_hits as f64,
        "count",
        "infer_warm_s on publish_internet",
    );
    out.extra(
        "core.persist.warm_s",
        p.warm_s,
        "s",
        "infer_warm_s on publish_internet",
    );
    if let Some(spans) = spans {
        let t = trace::layer_times(spans);
        let get = |n: &str| t.get(n).map_or(0.0, |x| x.wall_s);
        out.extra(
            "core.persist.store_rib_ingest_s",
            get("core.persist.store_rib_ingest"),
            "s",
            "cold_s (infer_cold_s) on publish_internet",
        );
        out.extra(
            "core.persist.load_rib_ingest_s",
            get("core.persist.load_rib_ingest"),
            "s",
            "infer_warm_s on publish_internet",
        );
        out.extra(
            "io.read_s",
            get("io.read"),
            "s",
            "cold_s (infer_cold_s) on publish_internet",
        );
    }
    out.extra(
        "serve.load_s",
        p.serve_load_s,
        "s",
        "serve_load_s on publish_internet",
    );
    out.extra(
        "serve.inproc_ns_per_query",
        p.inproc_ns,
        "ns",
        "p50_ms/tail_ms (query_*) on publish_internet, as far as lookup costs",
    );
}

pub fn run(rc: &RunCfg) -> Out {
    let mut out = Out::default();
    if rc.traced {
        trace::enable();
    }
    let (setup, setup_s) = timed(|| setup(rc));
    let setup_spans = trace::take();
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("setup: {e}"));
            return out;
        }
    };
    let truth = setup.topo.ground_truth.relationships.clone();
    let prefixes = setup.topo.ground_truth.prefixes.clone();
    let rib = setup.rib.clone();
    let inp = Inputs {
        rib: &rib,
        cfg: engine_cfg(&setup.topo, rc.threads),
        prefixes: &prefixes,
    };
    let cache = rc.workdir.join("cache");

    if rc.traced {
        let untraced = phases(rc, &inp, &truth, &cache, TRACED_WINDOW_S, 1, &mut out);
        trace::enable();
        let traced = phases(rc, &inp, &truth, &cache, TRACED_WINDOW_S, 1, &mut out);
        let timed_spans = trace::take();
        let spans = trace::concat(setup_spans, timed_spans.clone());
        trace::enable();
        let _ = sim(&setup.topo, &scenario(), setup.sim_seed, rc.threads);
        let scale_2t = trace::concat(trace::take(), timed_spans);
        trace::enable();
        let _ = sim(&setup.topo, &scenario(), setup.sim_seed, 1);
        let inp_1t = Inputs {
            cfg: engine_cfg(&setup.topo, 1),
            ..inp
        };
        cold_only(&inp_1t, &cache, &mut out);
        let spans_1t = trace::take();
        let _ = std::fs::remove_dir_all(&cache);
        let (Some(u), Some(t)) = (untraced, traced) else {
            return out;
        };
        let mv = Moves {
            topology: "setup_s on publish_internet",
            bgpsim: "setup_s on publish_internet",
            encode: "setup_s on publish_internet",
            decode: "cold_s (infer_cold_s) on publish_internet",
            core: "cold_s (infer_cold_s) on publish_internet",
            validation: "none: output check only on publish_internet",
        };
        common_layers(
            &mut out,
            &spans,
            &scale_2t,
            &spans_1t,
            t.wall_s - u.wall_s,
            &mv,
        );
        extras(&mut out, &t, Some(&spans));
        crate::write_trace(rc, "publish_internet", &[("2t", &spans), ("1t", &spans_1t)]);
        return out;
    }

    drop(setup_spans);
    let samples = setup.samples;
    out.named(
        "vp_feed_sum",
        setup.feed,
        "VPs",
        format!(
            "summed feed share of the 315 VPs (simulation seed {})",
            setup.sim_seed
        ),
    );
    drop(setup);
    reset_peak_rss();
    let p = phases(rc, &inp, &truth, &cache, rc.seconds / 2.0, REPS, &mut out);
    let rss = peak_rss_mib();
    let _ = std::fs::remove_dir_all(&cache);
    let Some(p) = p else { return out };

    let lat: Vec<f64> = p.queries.received.iter().flatten().map(|r| r.1).collect();
    let (pct, tail_s) = tail(&lat);
    let p50 = median(&lat);
    let qps = lat.len() as f64 / p.queries.window_s;
    let oneshot: Vec<f64> = p.queries.oneshots.iter().map(|r| r.1).collect();
    let n = lat.len();

    out.e2e(
        "cold_s",
        p.cold_s,
        format!(
            "infer_cold_s: median of {:.2?} ({samples} samples)",
            p.cold_runs
        ),
    );
    out.e2e(
        "p50_ms",
        p50 * 1e3,
        format!("query_p50 over {n} TCP queries"),
    );
    out.e2e(
        "tail_ms",
        tail_s * 1e3,
        format!("query_tail: p{pct:.1} of {n}"),
    );
    out.e2e(
        "rate_per_s",
        qps,
        "queries_per_s: completed queries / window",
    );
    out.e2e("peak_rss_mib", rss, "VmHWM of the four phases");
    out.e2e(
        "setup_s",
        setup_s,
        "generate + simulate + encode + write RIB, once",
    );
    out.named(
        "infer_cold_s",
        p.cold_s,
        "s",
        "RIB file -> inference + cones persisted",
    );
    out.named(
        "infer_warm_s",
        p.warm_s,
        "s",
        "same answer, all from cache frames",
    );
    out.named(
        "serve_load_s",
        p.serve_load_s,
        "s",
        "Server::start until the first answer",
    );
    out.named("query_p50_us", p50 * 1e6, "us", format!("n={n}"));
    out.named(
        "query_tail_us",
        tail_s * 1e6,
        "us",
        format!("p{pct:.1}, n={n}"),
    );
    out.named(
        "queries_per_s",
        qps,
        "1/s",
        format!(
            "{CONNECTIONS} connections, {:.1} s window",
            p.queries.window_s
        ),
    );
    out.named(
        "oneshot_p50_ms",
        median(&oneshot) * 1e3,
        "ms",
        format!("n={}", oneshot.len()),
    );
    out.named("setup_s", setup_s, "s", "");
    out.named("peak_rss_mib", rss, "MiB", "");
    extras(&mut out, &p, None);
    out
}
