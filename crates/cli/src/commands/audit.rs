//! `asrank audit` — semantic invariant checks over an inferred as-rel file.
//!
//! Grades a relationship assignment against the structural invariants the
//! inference algorithm promises (CSR well-formedness, clique p2p
//! completeness, cycle containment, cone containment and agreement) and —
//! when a RIB is supplied — valley-free consistency of every sanitized
//! path. Exit 0 when no error-severity findings, 1 otherwise.
//!
//! With `--stage NAME` the command instead materializes one memoized
//! engine artifact from `--rib` (plus its upstream dependencies, served
//! from the snapshot store) and audits only that artifact — useful for
//! bisecting which pipeline stage first breaks an invariant without
//! paying for the full inference.

use crate::args::{Flags, CACHE_SWITCHES};
use crate::snapshot::{apply_cache_flags, load_inputs, load_rib};
use asrank_core::audit::{audit, audit_stage, AuditConfig};
use asrank_core::read_as_rel;
use asrank_core::sanitize::{sanitize_with, SanitizeConfig};
use asrank_types::{Asn, EngineError, Parallelism};

/// Audit one engine stage artifact: shares the `--rib`/`--topo`/`--threads`
/// loader with `infer` and `rank`, so a warm snapshot is graded without
/// re-running anything upstream of the named stage.
fn run_stage(stage: &str, flags: &Flags) -> i32 {
    let inputs = match load_inputs(flags) {
        Ok(i) => i,
        Err(code) => return code,
    };
    let mut snapshot = inputs.snapshot();
    match audit_stage(&mut snapshot, stage, &AuditConfig::default()) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                0
            } else {
                1
            }
        }
        Err(e @ EngineError::UnknownStage(_)) => {
            eprintln!(
                "{e}; valid stages: {}",
                asrank_core::engine::Snapshot::stage_names().join(", ")
            );
            2
        }
        Err(e) => {
            eprintln!("stage audit failed: {e}");
            1
        }
    }
}

pub fn run(args: &[String]) -> i32 {
    let Some(flags) = Flags::parse_with_switches(args, CACHE_SWITCHES) else {
        return 2;
    };
    if let Some(stage) = flags.get("stage") {
        return run_stage(stage, &flags);
    }
    let Some(rels_path) = flags.required("rels") else {
        return 2;
    };
    let Some(threads) = flags.get_or("threads", Parallelism::auto()) else {
        return 2;
    };
    apply_cache_flags(&flags);

    // Optional clique: comma-separated ASNs expected to be mutually p2p.
    // Parsed before any file IO so flag mistakes always exit 2.
    let clique: Option<Vec<Asn>> = match flags.get("clique") {
        Some(list) => {
            let mut members = Vec::new();
            for tok in list.split(',').filter(|t| !t.trim().is_empty()) {
                match tok.trim().parse::<u32>() {
                    Ok(n) => members.push(Asn(n)),
                    Err(_) => {
                        eprintln!("--clique expects comma-separated ASNs, got {tok:?}");
                        return 2;
                    }
                }
            }
            Some(members)
        }
        None => None,
    };

    let file = match std::fs::File::open(rels_path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot open {rels_path}: {e}");
            return 1;
        }
    };
    let rels = match read_as_rel(std::io::BufReader::new(file)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed reading as-rel {rels_path}: {e}");
            return 1;
        }
    };

    // Optional RIB: enables the valley-free checks over sanitized paths.
    let sanitized = match flags.get("rib") {
        Some(rib) => match load_rib(rib, threads) {
            Ok(paths) => Some(sanitize_with(&paths, &SanitizeConfig::default(), threads)),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        },
        None => None,
    };

    let report = audit(
        &rels,
        sanitized.as_ref(),
        clique.as_deref(),
        &AuditConfig::default(),
    );
    print!("{}", report.render());
    if report.passed() {
        0
    } else {
        1
    }
}
