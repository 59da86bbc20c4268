//! E7 — cone-definition divergence for the largest ASes (paper analog:
//! the figure comparing the three definitions per AS).

use crate::harness::{Scale, Scenario, Workbench};
use crate::sanitized;
use crate::table::{f, Table};
use asrank_core::cone::ConeSets;
use asrank_core::rank_ases;

/// Produce the E7 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let clean = sanitized(&wb);
    let cones = ConeSets::compute(
        &clean,
        &wb.inference.relationships,
        Some(&wb.topo.ground_truth.prefixes),
    );
    let ranked = rank_ases(&cones.recursive, &wb.inference.degrees);

    let mut t = Table::new([
        "rank",
        "asn",
        "recursive",
        "bgp-obs",
        "prov/peer",
        "obs/rec",
        "true cone",
    ]);
    for row in ranked.iter().take(10) {
        let rec = cones.recursive.size(row.asn).ases;
        let obs = cones.bgp_observed.size(row.asn).ases;
        let pp = cones.provider_peer_observed.size(row.asn).ases;
        let truth = wb.topo.ground_truth.true_customer_cone(row.asn).len();
        t.row([
            row.rank.to_string(),
            row.asn.to_string(),
            rec.to_string(),
            obs.to_string(),
            pp.to_string(),
            f(obs as f64 / rec.max(1) as f64, 2),
            truth.to_string(),
        ]);
    }
    format!(
        "E7: cone definitions on the top-10 ASes (paper: observed cones \
         shrink relative to recursive cones as visibility thins)\n\n{}",
        t.render()
    )
}
