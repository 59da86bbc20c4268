//! In-memory span recorder for the traced run.
//!
//! Spans are opened around every call the benchmark makes into a layer
//! of the chain (`trace::span("mrt.decode")`) and closed when the
//! returned guard drops. Each span keeps its name, start, end and parent,
//! plus numeric attributes (the engine's `stage_report()` is folded into
//! the engine span this way). Nothing is written until the run ends.
//! With tracing off, `span` is a thread-local flag test and nothing is
//! recorded, so the untraced run pays no bookkeeping.

use asrank_core::StageReport;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding anything recorded before.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stop recording and hand back every closed span, in open order.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Closes its span on drop.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let now = rec.origin.elapsed().as_nanos() as u64;
                rec.spans[id].end_ns = now;
                if rec.open.last() == Some(&id) {
                    rec.open.pop();
                }
            }
        });
    }
}

/// Open a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Guard(None);
        };
        let now = rec.origin.elapsed().as_nanos() as u64;
        let id = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
            attrs: Vec::new(),
        });
        rec.open.push(id);
        Guard(Some(id))
    })
}

/// Attach a numeric attribute to the innermost open span.
pub fn attr(key: impl Into<String>, value: f64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(&id) = rec.open.last() {
                rec.spans[id].attrs.push((key.into(), value));
            }
        }
    });
}

/// Fold an engine stage report into the innermost open span: one
/// `busy_s.<stage>` attribute per stage that ran its body.
pub fn fold_stages(report: &StageReport) {
    for (name, s) in &report.stages {
        if s.wall_ns > 0 {
            attr(format!("busy_s.{name}"), s.wall_ns as f64 / 1e9);
        }
    }
}

/// Append `more` to `spans`, re-pointing its parent links. Each list
/// keeps the time origin of the recorder that produced it.
pub fn concat(mut spans: Vec<Span>, more: Vec<Span>) -> Vec<Span> {
    let off = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + off);
        s
    }));
    spans
}

/// Per-name totals over a span list: wall and self time (wall minus the
/// part covered by child spans), in seconds, plus the call count.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub wall_s: f64,
    pub self_s: f64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.wall_s += s.dur_ns() as f64 / 1e9;
        t.self_s += s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e9;
    }
    out
}

/// Share of the spans named `root` that no child span covers. Children
/// of one span run one after another on the benchmark thread, so their
/// durations add without overlap.
pub fn uncovered_share(spans: &[Span], root: &str) -> f64 {
    let mut root_ns = 0u64;
    let mut covered_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.name != root {
            continue;
        }
        root_ns += s.dur_ns();
        covered_ns += spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(Span::dur_ns)
            .sum::<u64>();
    }
    if root_ns == 0 {
        return 0.0;
    }
    root_ns.saturating_sub(covered_ns) as f64 / root_ns as f64
}

/// Sum of an attribute over every span that carries it.
pub fn attr_sum(spans: &[Span], key: &str) -> f64 {
    spans
        .iter()
        .flat_map(|s| s.attrs.iter())
        .filter(|(k, _)| k == key)
        .map(|&(_, v)| v)
        .sum()
}

/// Render the span list as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"attrs\": {{",
            s.name, s.start_ns, s.end_ns
        );
        for (j, (k, v)) in s.attrs.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push_str(if i + 1 == spans.len() {
            "}}\n"
        } else {
            "}},\n"
        });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_uncovered_share_is_the_gap() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                attrs: vec![],
            },
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 40,
                parent: Some(0),
                attrs: vec![],
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                attrs: vec![],
            },
            Span {
                name: "c",
                start_ns: 55,
                end_ns: 65,
                parent: Some(2),
                attrs: vec![],
            },
        ];
        let t = layer_times(&spans);
        assert!((t["root"].self_s - 20e-9).abs() < 1e-15);
        assert!((t["b"].self_s - 30e-9).abs() < 1e-15);
        assert!((uncovered_share(&spans, "root") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _ = take();
        {
            let _g = span("x");
            attr("k", 1.0);
        }
        assert!(take().is_empty());
        enable();
        {
            let _g = span("x");
            let _h = span("y");
        }
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
