//! E6 — customer cone size distributions for the three definitions
//! (paper analog: the cone-size CCDF figure).

use crate::harness::{Scale, Scenario, Workbench};
use crate::sanitized;
use crate::table::{pct, Table};
use asrank_core::cone::ConeSets;

/// Produce the E6 report: CCDF points and quantiles per definition.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let clean = sanitized(&wb);
    let cones = ConeSets::compute(
        &clean,
        &wb.inference.relationships,
        Some(&wb.topo.ground_truth.prefixes),
    );

    let defs: [(&str, &asrank_core::CustomerCones); 3] = [
        ("recursive", &cones.recursive),
        ("bgp-observed", &cones.bgp_observed),
        ("provider/peer", &cones.provider_peer_observed),
    ];

    let thresholds = [2usize, 5, 10, 50, 100, 1000];
    let mut t = Table::new({
        let mut h = vec![
            "definition".to_string(),
            "max".to_string(),
            "p99".to_string(),
        ];
        h.extend(thresholds.iter().map(|k| format!("P(cone>={k})")));
        h
    });
    for (name, c) in defs {
        let mut sizes: Vec<usize> = c.iter_sizes().map(|(_, s)| s.ases).collect();
        sizes.sort_unstable();
        let n = sizes.len().max(1);
        let p99 = sizes[(n * 99 / 100).min(n - 1)];
        let max = sizes.last().copied().unwrap_or(0);
        let mut row = vec![name.to_string(), max.to_string(), p99.to_string()];
        for &k in &thresholds {
            let ge = sizes.iter().filter(|&&s| s >= k).count();
            row.push(pct(ge as f64 / n as f64));
        }
        t.row(row);
    }
    format!(
        "E6: customer cone CCDF by definition (paper: the observed \
         definitions trade recall for robustness; heavy tail at the top)\n\n{}",
        t.render()
    )
}
