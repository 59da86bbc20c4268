//! End-to-end benchmark of the asrank chain.
//!
//! ```text
//! asrank-perfbench --workload <chain_medium|publish_internet|updates_8k>
//!                  [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced runs
//! (`--trace 1`) record a span around every layer call, repeat the layer
//! calls at one thread, and report the per-layer metrics. Either way the
//! last line of standard output is the JSON result, whose `correct` field
//! says whether every output check passed. The exit code is 0 whenever a
//! result was printed; bad arguments exit with 2.

mod chain;
mod common;
mod publish;
mod queries;
mod report;
mod stats;
mod trace;
mod updates;

use common::RunCfg;
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["chain_medium", "publish_internet", "updates_8k"];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: asrank-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse() -> (String, RunCfg) {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut workdir = PathBuf::from("perfbench/.work");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => {
                seed = val
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = val
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds takes a number"));
            }
            "--trace" => {
                traced = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--workdir" => workdir = PathBuf::from(val),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workdir = workdir.join(format!("{workload}-{}", std::process::id()));
    let rc = RunCfg {
        seed,
        seconds,
        traced,
        threads: cores.min(2),
        workdir,
    };
    (workload, rc)
}

/// Write the traced run's spans to `<workdir>/../trace-<workload>-<seed>.json`.
pub fn write_trace(rc: &RunCfg, workload: &str, lists: &[(&str, &[trace::Span])]) {
    let mut body = String::from("{\n");
    for (i, (label, spans)) in lists.iter().enumerate() {
        let sep = if i + 1 == lists.len() { "\n" } else { ",\n" };
        body.push_str(&format!("\"{label}\": {}{sep}", trace::to_json(spans)));
    }
    body.push('}');
    let dir = rc
        .workdir
        .parent()
        .map_or_else(|| rc.workdir.clone(), PathBuf::from);
    let path = dir.join(format!("trace-{workload}-{}.json", rc.seed));
    match std::fs::write(&path, body) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn main() {
    let (workload, rc) = parse();
    if let Err(e) = std::fs::create_dir_all(&rc.workdir) {
        eprintln!("cannot create {}: {e}", rc.workdir.display());
        std::process::exit(1);
    }
    let out = match workload.as_str() {
        "chain_medium" => chain::run(&rc),
        "publish_internet" => publish::run(&rc),
        _ => updates::run(&rc),
    };
    let _ = std::fs::remove_dir_all(&rc.workdir);
    out.print(
        &format!(
            "perfbench {workload} seed={} seconds={} trace={} threads={}",
            rc.seed, rc.seconds, rc.traced as u8, rc.threads
        ),
        rc.traced,
    );
}
