//! `report` — regenerate any experiment table/figure analog, or
//! assemble criterion output into a benchmark snapshot.
//!
//! Usage:
//! ```text
//! report <e1|e2|…|e11|all> [--scale tiny|small|medium|internet|tenx] [--seed N]
//! report stage-report [--scale tiny|small|medium|internet|tenx] [--seed N]
//! report bench-json <criterion-lines-file> <out.json>
//! report bench-check <new.json> <baseline.json>
//! ```
//!
//! `stage-report` runs the staged engine end to end over a generated
//! scenario and prints the per-stage instrumentation JSON (wall time,
//! item counts, artifact sizes, cache hits/misses) to stdout — the
//! `make stage-report` profile of where inference time goes.
//!
//! `bench-json` consumes the JSON-lines file the vendored criterion
//! writes when `CRITERION_JSON` is set (one object per benchmark) and
//! emits a single snapshot document with derived speedup ratios —
//! `make bench` drives it to produce `BENCH_*.json`.

use asrank_bench::experiments;
use asrank_bench::harness::{scenario_inputs, Scale, Scenario};
use asrank_core::engine::Snapshot;

/// Run the staged engine over a generated scenario and print the
/// per-stage instrumentation JSON. Every stage (inference plus all three
/// cone flavors) is materialized, so the report covers the whole DAG.
fn stage_report(scale: Scale, seed: u64) -> i32 {
    let (paths, cfg) = scenario_inputs(&Scenario::at_scale(scale, seed));
    let mut snapshot = Snapshot::new(&paths, cfg);
    if let Err(e) = snapshot.cones() {
        eprintln!("engine run failed: {e}");
        return 1;
    }
    print!("{}", snapshot.stage_report().to_json());
    0
}

/// Pull a string field out of a flat single-line JSON object.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Pull a numeric field out of a flat single-line JSON object.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Assemble criterion JSON lines into one snapshot document.
fn bench_json(input: &str, output: &str) -> i32 {
    let raw = match std::fs::read_to_string(input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return 1;
        }
    };
    let lines: Vec<&str> = raw
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .collect();
    if lines.is_empty() {
        eprintln!("no criterion JSON lines in {input}");
        return 1;
    }

    // Median lookup for the derived ratios.
    let median = |group: &str, bench: &str| -> Option<f64> {
        lines.iter().find_map(|l| {
            (json_str(l, "group").as_deref() == Some(group)
                && json_str(l, "bench").as_deref() == Some(bench))
            .then(|| json_num(l, "median_ns"))
            .flatten()
        })
    };

    // fast-vs-reference speedups per scale: `recursive` tracks PR1's
    // bitset-vs-HashSet acceptance; `bgp_observed`/`provider_peer`
    // track PR3's arena-sweep-vs-per-AS-rescan acceptance (the
    // `*_reference` benches are the retained PR1 implementations).
    let mut ratios: Vec<String> = Vec::new();
    let pairs = [
        ("recursive_cone_speedup", "recursive_reference", "recursive"),
        ("bgp_observed_speedup", "bgp_observed_reference", "bgp_observed"),
        ("provider_peer_speedup", "provider_peer_reference", "provider_peer"),
    ];
    for (ratio_name, reference, fast_name) in pairs {
        for scale in ["1k", "2k"] {
            if let (Some(slow), Some(fast)) = (
                median("cones", &format!("{reference}/{scale}")),
                median("cones", &format!("{fast_name}/{scale}")),
            ) {
                if fast > 0.0 {
                    ratios.push(format!(
                        "{{\"name\":\"{ratio_name}/{scale}\",\
                         \"baseline\":\"{reference}\",\"ratio\":{:.2}}}",
                        slow / fast
                    ));
                }
            }
        }
    }

    // PR5 acceptance ratios: parallel MRT decode vs the streaming
    // reader, and the warm full pipeline (all artifacts from the disk
    // cache) vs the cold one.
    for scale in ["1k", "2k"] {
        if let (Some(slow), Some(fast)) = (
            median("ingest", &format!("sequential/{scale}")),
            median("ingest", &format!("parallel4/{scale}")),
        ) {
            if fast > 0.0 {
                ratios.push(format!(
                    "{{\"name\":\"ingest_parallel_speedup/{scale}\",\
                     \"baseline\":\"sequential\",\"ratio\":{:.2}}}",
                    slow / fast
                ));
            }
        }
    }
    if let (Some(cold), Some(warm)) = (
        median("warm_vs_cold", "cold/2k"),
        median("warm_vs_cold", "warm/2k"),
    ) {
        if warm > 0.0 {
            ratios.push(format!(
                "{{\"name\":\"warm_vs_cold_speedup/2k\",\
                 \"baseline\":\"cold\",\"ratio\":{:.2}}}",
                cold / warm
            ));
        }
    }

    // PR6 serve-tier acceptance: absolute query rates over the mapped
    // frames (M-ops/s, derived from element throughput / median ns —
    // not a speedup, but gated through the same derived machinery), and
    // the peak-RSS ratio of the owned-decode load over the mapped one
    // (both measured in their own child process, `benches/serve.rs`).
    let field = |group: &str, bench: &str, key: &str| -> Option<f64> {
        lines.iter().find_map(|l| {
            (json_str(l, "group").as_deref() == Some(group)
                && json_str(l, "bench").as_deref() == Some(bench))
            .then(|| json_num(l, key))
            .flatten()
        })
    };
    for (family, bench) in [
        ("serve_rel_mlookups_per_s", "rel_lookup/2k"),
        ("serve_cone_mchecks_per_s", "cone_contains/2k"),
    ] {
        if let (Some(med), Some(elems)) = (
            field("serve", bench, "median_ns"),
            field("serve", bench, "throughput_elems"),
        ) {
            if med > 0.0 {
                // elems/iter over ns/iter is G-ops/s; x1000 -> M-ops/s.
                ratios.push(format!(
                    "{{\"name\":\"{family}/2k\",\
                     \"baseline\":\"wall_clock\",\"ratio\":{:.2}}}",
                    elems / med * 1000.0
                ));
            }
        }
    }
    if let (Some(owned), Some(mapped)) = (
        field("serve_rss", "owned/2k", "rss_kb"),
        field("serve_rss", "mapped/2k", "rss_kb"),
    ) {
        if mapped > 0.0 {
            ratios.push(format!(
                "{{\"name\":\"serve_rss_owned_over_mapped/2k\",\
                 \"baseline\":\"mapped\",\"ratio\":{:.2}}}",
                owned / mapped
            ));
        }
    }

    // PR8 scale-tier trajectories: absolute cold-infer rates per size
    // tier (kelems/s = path samples per wall second / 1000), recorded
    // for the micro sizes too so bench-check can compare the whole
    // trajectory across snapshots — a superlinear hot spot shows up as
    // the rate collapsing between tiers.
    for (family, group, tiers) in [
        ("pipeline_infer_kelems_per_s", "pipeline", &["500", "1k", "2k"][..]),
        ("scale_infer_kelems_per_s", "scale", &["8k", "16k", "42k", "tenx"][..]),
    ] {
        for tier in tiers {
            let bench = format!("infer/{tier}");
            if let (Some(med), Some(elems)) = (
                field(group, &bench, "median_ns"),
                field(group, &bench, "throughput_elems"),
            ) {
                if med > 0.0 {
                    // elems/iter over ns/iter is G-ops/s; x1e6 -> k-ops/s.
                    ratios.push(format!(
                        "{{\"name\":\"{family}/{tier}\",\
                         \"baseline\":\"wall_clock\",\"ratio\":{:.2}}}",
                        elems / med * 1.0e6
                    ));
                }
            }
        }
    }

    // PR8 cache-blocking acceptance: the blocked pair merge against the
    // full-width counting sort on identical 42k raw pairs.
    if let (Some(slow_ns), Some(fast_ns)) = (
        median("scale_sweep", "merge_unblocked/42k"),
        median("scale_sweep", "merge_blocked/42k"),
    ) {
        if fast_ns > 0.0 {
            ratios.push(format!(
                "{{\"name\":\"scale_blocked_sweep_speedup/42k\",\
                 \"baseline\":\"unblocked\",\"ratio\":{:.2}}}",
                slow_ns / fast_ns
            ));
        }
    }

    // PR8/PR10 memory acceptance: headroom of the cold infer under the
    // 8 GiB tier ceiling (>= 1.0 means the peak stayed below it), per
    // tier that measured a child-process RSS.
    const SCALE_RSS_CEILING_KB: f64 = 8.0 * 1024.0 * 1024.0; // 8 GiB
    for tier in ["42k", "tenx"] {
        if let Some(rss) = field("scale_rss", &format!("infer/{tier}"), "rss_kb") {
            if rss > 0.0 {
                ratios.push(format!(
                    "{{\"name\":\"scale_rss_headroom/{tier}\",\
                     \"baseline\":\"ceiling_8gib\",\"ratio\":{:.2}}}",
                    SCALE_RSS_CEILING_KB / rss
                ));
            }
        }
    }

    // PR9 incremental acceptance: the delta refresh after a churn batch
    // as a fraction of the cold pipeline at the same tier (lower is
    // better — the only derived family where bench-check applies a
    // ceiling instead of a floor). 1% is the gated multiplicity-
    // preserving point; 5%/20% document the structural-churn
    // degradation curve.
    if let Some(cold) = median("delta", "cold/8k") {
        for churn in ["1pct", "5pct", "20pct"] {
            if let Some(delta) = median("delta", &format!("delta_{churn}/8k")) {
                if cold > 0.0 {
                    ratios.push(format!(
                        "{{\"name\":\"delta_over_cold_ratio/{churn}\",\
                         \"baseline\":\"cold\",\"ratio\":{:.3}}}",
                        delta / cold
                    ));
                }
            }
        }
    }

    // Recorded so bench-check can judge thread-scaling floors against
    // what the measuring host could physically deliver.
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut doc = format!("{{\n  \"host_cpus\": {host_cpus},\n  \"benches\": [\n");
    for (i, l) in lines.iter().enumerate() {
        doc.push_str("    ");
        doc.push_str(l);
        if i + 1 < lines.len() {
            doc.push(',');
        }
        doc.push('\n');
    }
    doc.push_str("  ],\n  \"derived\": [\n");
    for (i, r) in ratios.iter().enumerate() {
        doc.push_str("    ");
        doc.push_str(r);
        if i + 1 < ratios.len() {
            doc.push(',');
        }
        doc.push('\n');
    }
    doc.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(output, &doc) {
        eprintln!("cannot write {output}: {e}");
        return 1;
    }
    println!("wrote {output}: {} benches, {} derived ratios", lines.len(), ratios.len());
    0
}

/// Parse the `host_cpus` field out of a snapshot document. Snapshots
/// written before the field existed default to "enough cores" so their
/// floors keep gating at full strength.
fn snapshot_host_cpus(path: &str) -> usize {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|raw| {
            raw.lines()
                .find_map(|l| json_num(l.trim(), "host_cpus"))
                .map(|n| n as usize)
        })
        .unwrap_or(usize::MAX)
}

/// Rate (kelems/s) derivable from a snapshot's raw bench lines for
/// `group`/`bench` — the trajectory fallback for baselines written
/// before the derived `*_kelems_per_s` families existed.
fn snapshot_rate_kelems(path: &str, group: &str, bench: &str) -> Option<f64> {
    let raw = std::fs::read_to_string(path).ok()?;
    raw.lines().map(str::trim).find_map(|l| {
        (json_str(l, "group").as_deref() == Some(group)
            && json_str(l, "bench").as_deref() == Some(bench))
        .then(|| {
            let med = json_num(l, "median_ns")?;
            let elems = json_num(l, "throughput_elems")?;
            (med > 0.0).then_some(elems / med * 1.0e6)
        })
        .flatten()
    })
}

/// Parse the `derived` ratio entries out of a snapshot document.
fn derived_ratios(path: &str) -> Result<Vec<(String, f64)>, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    let mut in_derived = false;
    for line in raw.lines() {
        let t = line.trim();
        if t.starts_with("\"derived\"") {
            in_derived = true;
            continue;
        }
        if !in_derived {
            continue;
        }
        if let (Some(name), Some(ratio)) = (json_str(t, "name"), json_num(t, "ratio")) {
            out.push((name, ratio));
        }
    }
    Ok(out)
}

/// Compare a fresh snapshot's derived speedup ratios against a baseline
/// snapshot, failing when any recorded speedup family regresses below
/// its acceptance floor (the `make bench-cones` / `make bench-ingest`
/// gate). Only the families present in the snapshot are gated — a cones
/// snapshot is not failed for lacking ingest ratios — but a snapshot
/// with no known family at all is an error.
fn bench_check(new_path: &str, baseline_path: &str) -> i32 {
    /// Per-family acceptance floors, applied to the family's best scale:
    /// the smaller workloads finish in ~100us per iteration and their
    /// medians jitter well past the margin between the measured speedup
    /// and the floor, so gating every scale would fail on measurement
    /// noise rather than real regressions.
    const FLOORS: &[(&str, f64)] = &[
        ("recursive_cone_speedup", 4.0),
        ("ingest_parallel_speedup", 2.0),
        ("warm_vs_cold_speedup", 5.0),
        // Serve-tier absolute rates in M-ops/s on one core (the PR6
        // targets: >=1M relationship lookups/s, >=500k cone checks/s),
        // plus "mapping the frames never costs more peak RSS than
        // decoding them".
        ("serve_rel_mlookups_per_s", 1.0),
        ("serve_cone_mchecks_per_s", 0.5),
        ("serve_rss_owned_over_mapped", 1.0),
        // PR8 scale-tier acceptance: the cache-blocked pair merge must
        // beat the full-width counting sort at 42k (a locality win, so
        // it holds on one core), and the 42k cold infer must peak under
        // the 8 GiB tier ceiling (headroom ratio >= 1.0).
        ("scale_blocked_sweep_speedup", 1.3),
        ("scale_rss_headroom", 1.0),
    ];
    /// The ingest floor asserts 2x thread scaling at 4 decode workers.
    /// A host with fewer cores than that cannot physically show it (the
    /// decode fan-out clamps workers to the cores available), so on such
    /// hosts the floor degrades to "the parallel path must not regress
    /// against the streaming reader" — still a real gate, honestly
    /// scoped to what the machine can measure.
    const SINGLE_CORE_INGEST_FLOOR: f64 = 0.9;
    /// The serve rate floors assume one reasonably provisioned core to
    /// itself. On a host with fewer than 4 cores (the same boundary the
    /// ingest floor uses) the bench shares its core with the OS and the
    /// sibling child processes, so the absolute-rate floors halve —
    /// still asserting the zero-copy path is in the right decade.
    const SMALL_HOST_SERVE_RATE_SCALE: f64 = 0.5;
    let (new, base) = match (derived_ratios(new_path), derived_ratios(baseline_path)) {
        (Ok(n), Ok(b)) => (n, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if new.is_empty() {
        eprintln!("{new_path} has no derived ratios");
        return 1;
    }

    println!("derived speedup ratios ({new_path} vs {baseline_path}):");
    for (name, ratio) in &new {
        let old = base.iter().find(|(n, _)| n == name).map(|&(_, r)| r);
        match old {
            Some(o) => println!("  {name}: {o:.2} -> {ratio:.2}"),
            None => println!("  {name}: (new) {ratio:.2}"),
        }
    }

    let host_cpus = snapshot_host_cpus(new_path);
    let mut gated = 0;
    let mut failed = false;
    for &(family, floor) in FLOORS {
        let prefix = format!("{family}/");
        // Speedup families gate their best scale (small tiers jitter);
        // the RSS headroom is a ceiling property that must hold at
        // every measured tier, so it gates its *worst* one.
        let pick = new.iter().filter(|(n, _)| n.starts_with(&prefix));
        let picked = if family == "scale_rss_headroom" {
            pick.min_by(|a, b| a.1.total_cmp(&b.1))
        } else {
            pick.max_by(|a, b| a.1.total_cmp(&b.1))
        };
        let Some((name, ratio)) = picked else {
            continue;
        };
        let floor = if family == "ingest_parallel_speedup" && host_cpus < 4 {
            println!(
                "bench-check: host has {host_cpus} cpu(s); {family} floor \
                 relaxed to {SINGLE_CORE_INGEST_FLOOR:.1}x (no-regression)"
            );
            SINGLE_CORE_INGEST_FLOOR
        } else if host_cpus < 4
            && matches!(
                family,
                "serve_rel_mlookups_per_s" | "serve_cone_mchecks_per_s"
            )
        {
            let relaxed = floor * SMALL_HOST_SERVE_RATE_SCALE;
            println!(
                "bench-check: host has {host_cpus} cpu(s); {family} floor \
                 relaxed to {relaxed:.2} M-ops/s (shared-host margin)"
            );
            relaxed
        } else {
            floor
        };
        gated += 1;
        if *ratio < floor {
            eprintln!("FAIL: best {name} = {ratio:.2} regressed below {floor:.1}x");
            failed = true;
        } else {
            println!("bench-check: {name} = {ratio:.2} >= {floor:.1}x");
        }
    }
    /// Cost-ratio ceilings (lower is better), matched by exact name:
    /// the PR9 incremental acceptance — a delta refresh after the
    /// multiplicity-preserving 1%-churn batch must cost at most 10% of
    /// a cold run — and the PR10 structural-churn bound: even at 20%
    /// mixed churn, where every stage recomputes, the session's
    /// maintained evidence must keep the refresh no dearer than a cold
    /// rebuild. The 5% ratio stays recorded but ungated.
    const CEILINGS: &[(&str, f64)] = &[
        ("delta_over_cold_ratio/1pct", 0.10),
        ("delta_over_cold_ratio/20pct", 1.0),
    ];
    for &(name, ceiling) in CEILINGS {
        let Some((_, ratio)) = new.iter().find(|(n, _)| n == name) else {
            continue;
        };
        gated += 1;
        if *ratio > ceiling {
            eprintln!("FAIL: {name} = {ratio:.3} exceeded the {ceiling:.2} ceiling");
            failed = true;
        } else {
            println!("bench-check: {name} = {ratio:.3} <= {ceiling:.2}");
        }
    }
    // Elems/sec trajectory families: every size tier recorded in BOTH
    // snapshots must retain TRAJECTORY_RETAIN of the baseline's rate.
    // Tiers the baseline lacks are warned about, never failed — adding
    // a new size tier must not require regenerating history. Baselines
    // written before the derived trajectory families existed are read
    // through their raw bench lines instead.
    const TRAJECTORY_RETAIN: f64 = 0.7;
    for (family, group) in [
        ("pipeline_infer_kelems_per_s", "pipeline"),
        ("scale_infer_kelems_per_s", "scale"),
    ] {
        let prefix = format!("{family}/");
        for (name, rate) in new.iter().filter(|(n, _)| n.starts_with(&prefix)) {
            let tier = &name[prefix.len()..];
            let base_rate = base
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, r)| r)
                .or_else(|| snapshot_rate_kelems(baseline_path, group, &format!("infer/{tier}")));
            match base_rate {
                Some(b) if b > 0.0 => {
                    gated += 1;
                    let floor = b * TRAJECTORY_RETAIN;
                    if *rate < floor {
                        eprintln!(
                            "FAIL: trajectory {name} = {rate:.2} kelems/s fell below \
                             {floor:.2} ({:.0}% of baseline {b:.2})",
                            TRAJECTORY_RETAIN * 100.0
                        );
                        failed = true;
                    } else {
                        println!(
                            "bench-check: trajectory {name} = {rate:.2} kelems/s \
                             >= {floor:.2} (baseline {b:.2})"
                        );
                    }
                }
                _ => println!(
                    "bench-check: warn: {name} has no tier in {baseline_path}; \
                     recorded {rate:.2} kelems/s, not gated"
                ),
            }
        }
    }

    if gated == 0 {
        eprintln!("FAIL: {new_path} records no gated speedup family");
        return 1;
    }
    if failed {
        1
    } else {
        println!("bench-check passed: {gated} speedup families at or above their floors");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("bench-json") {
        let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: report bench-json <criterion-lines-file> <out.json>");
            std::process::exit(2);
        };
        std::process::exit(bench_json(input, output));
    }

    if args.first().map(String::as_str) == Some("bench-check") {
        let (Some(new), Some(baseline)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: report bench-check <new.json> <baseline.json>");
            std::process::exit(2);
        };
        std::process::exit(bench_check(new, baseline));
    }

    let mut id: Option<String> = None;
    let mut scale = Scale::Small;
    let mut seed = 42u64;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match Scale::parse(v) {
                    Ok(s) => scale = s,
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse() {
                    Ok(s) => seed = s,
                    Err(_) => {
                        eprintln!("invalid seed {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            other if id.is_none() => id = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let Some(id) = id else {
        eprintln!(
            "usage: report <e1..e11|all|stage-report> \
             [--scale tiny|small|medium|internet|tenx] [--seed N]"
        );
        std::process::exit(2);
    };

    if id == "stage-report" {
        std::process::exit(stage_report(scale, seed));
    }

    let ids: Vec<&str> = if id == "all" {
        experiments::ALL.to_vec()
    } else {
        vec![id.as_str()]
    };
    for (i, id) in ids.iter().enumerate() {
        match experiments::run(id, scale, seed) {
            Some(out) => {
                if i > 0 {
                    println!("\n{}\n", "=".repeat(72));
                }
                println!("{out}");
            }
            None => {
                eprintln!("unknown experiment {id:?} (e1..e11 or all)");
                std::process::exit(2);
            }
        }
    }
}
