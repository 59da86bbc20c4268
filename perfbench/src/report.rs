//! What a run measured and checked, and how it is printed.
//!
//! Every run prints a human-readable table (metrics by name, with unit
//! and, for per-layer rows, the end-to-end metric they should move) and
//! then, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The JSON carries
//! the generic end-to-end metrics untraced and the common per-layer
//! metrics traced; the workload-specific names appear in the table.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// For per-layer rows: the end-to-end metric this layer should move,
    /// and on which workload. For end-to-end rows: what it means here.
    pub note: String,
}

/// Generic end-to-end metrics, reported by every workload untraced.
pub const E2E: [(&str, &str); 6] = [
    ("cold_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

#[derive(Debug, Default)]
pub struct Out {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first failed checks (capped).
    pub failures: Vec<String>,
    /// Generic end-to-end metrics (JSON, untraced).
    pub e2e: Vec<Metric>,
    /// The same measurements under their workload-specific names.
    pub named: Vec<Metric>,
    /// Per-layer metrics every workload reports (JSON, traced).
    pub layers: Vec<Metric>,
    /// Per-layer rows for the table only: metrics only this workload
    /// exercises, and the self time of every span name.
    pub extra: Vec<Metric>,
}

impl Out {
    /// Count one checked operation; record a description when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Count `n` checked operations of which `bad` failed.
    pub fn check_many(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, note: impl Into<String>) {
        let unit = E2E
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .expect("end-to-end metric names come from E2E");
        self.e2e.push(metric(name, value, unit, note));
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.named.push(metric(name, value, unit, note));
    }

    pub fn layer(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        moves: impl Into<String>,
    ) {
        self.layers.push(metric(name, value, unit, moves));
    }

    pub fn extra(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        moves: impl Into<String>,
    ) {
        self.extra.push(metric(name, value, unit, moves));
    }

    /// Print the table, then the JSON result line.
    pub fn print(&self, header: &str, traced: bool) {
        let mut t = String::new();
        let _ = writeln!(t, "== {header}");
        let rows = |t: &mut String, title: &str, ms: &[Metric]| {
            if ms.is_empty() {
                return;
            }
            let _ = writeln!(t, "-- {title}");
            for m in ms {
                let _ = writeln!(
                    t,
                    "  {:<34} {:>16.6} {:<6} {}",
                    m.name, m.value, m.unit, m.note
                );
            }
        };
        rows(&mut t, "end-to-end (workload names)", &self.named);
        rows(&mut t, "end-to-end (JSON names)", &self.e2e);
        rows(
            &mut t,
            "per-layer, every workload (JSON when traced) -> moves",
            &self.layers,
        );
        rows(&mut t, "per-layer, table only -> moves", &self.extra);
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            t,
            "-- checks: attempted {} failed {} fail_frac {frac}",
            self.attempted, self.failed
        );
        for f in &self.failures {
            let _ = writeln!(t, "   FAILED: {f}");
        }
        print!("{t}");
        println!("{}", self.json(traced));
    }

    /// The result object: end-to-end metrics untraced, per-layer traced.
    /// A run that checked nothing (it failed before its first check) is
    /// not correct; `attempted` is then reported as 1.
    pub fn json(&self, traced: bool) -> String {
        let ms = if traced { &self.layers } else { &self.e2e };
        let mut body = String::new();
        for (i, m) in ms.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    }
}

/// JSON has no NaN/inf; a metric that could not be measured is `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
