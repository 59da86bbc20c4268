//! Steps S4–S11 — the ASRank relationship-inference pipeline.
//!
//! [`infer`] wires the whole algorithm together: sanitize (S1), rank by
//! transit degree (S2), infer the clique (S3), then run the relationship
//! steps in [`steps`]. The output [`Inference`] carries the relationship
//! map plus everything needed to audit how each link was classified.

pub mod steps;

use crate::clique::{infer_clique, CliqueConfig};
use crate::degree::DegreeTable;
use crate::patharena::PathArena;
use crate::sanitize::{sanitize_with, SanitizeConfig, SanitizeReport};
use asrank_types::prelude::*;
use asrank_types::EngineError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Pipeline configuration. `Default` matches the paper's published
/// parameters where known and conservative values elsewhere.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default)]
pub struct InferenceConfig {
    /// S1: sanitization (IXP ASN list).
    pub sanitize: SanitizeConfig,
    /// S3: clique inference parameters.
    pub clique: CliqueConfig,
    /// S6: minimum share of a VP's distinct prefixes that must arrive via
    /// a first-hop neighbor before the neighbor is inferred to be the
    /// VP's provider.
    pub vp_provider_threshold: f64,
    /// S7: a c2p inference is demoted to p2p when the customer's transit
    /// degree exceeds the provider's by this factor.
    pub degree_flip_ratio: f64,
    /// Ablation switches: disable individual steps to measure their
    /// contribution (all `false` = full pipeline).
    pub ablation: Ablation,
    /// Thread budget for S1 sanitize, the engine's only fan-out; every
    /// other stage runs on the calling thread. The default (`auto`) uses
    /// all available cores; [`Parallelism::sequential`] runs
    /// single-threaded. Results are identical for every value.
    // lint: allow(fp-excluded, thread budget only — outputs are bit-identical for every value, so it must not invalidate cached artifacts)
    pub parallelism: Parallelism,
}

/// Per-step ablation switches (used by the E12 ablation experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ablation {
    /// Skip S4 (poisoned-path discard).
    pub no_poison_filter: bool,
    /// Skip S6 (VP-side provider inference).
    pub no_vp_step: bool,
    /// Skip S7 (degree-anomaly repair).
    pub no_anomaly_repair: bool,
    /// Skip S8 (stub-to-clique links).
    pub no_stub_clique: bool,
    /// Skip S9 (providers for provider-less transit ASes).
    pub no_providerless: bool,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            sanitize: SanitizeConfig::default(),
            clique: CliqueConfig::default(),
            // The paper's published parameters: a first-hop neighbor must
            // carry ≥ 35% of a VP's prefixes to be inferred its provider
            // (S6), and a customer whose transit degree exceeds its
            // provider's 10× triggers the S7 demotion.
            vp_provider_threshold: 0.35,
            degree_flip_ratio: 10.0,
            ablation: Ablation::default(),
            parallelism: Parallelism::default(),
        }
    }
}

impl InferenceConfig {
    /// Defaults plus a known IXP route-server ASN list.
    pub fn with_ixps<I: IntoIterator<Item = Asn>>(ixps: I) -> Self {
        InferenceConfig {
            sanitize: SanitizeConfig::with_ixps(ixps),
            ..Default::default()
        }
    }
}

/// Per-step accounting of the pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// S1 counters.
    pub sanitize: SanitizeReport,
    /// S4: distinct paths discarded as poisoned.
    pub discarded_poisoned: usize,
    /// S5: c2p links inferred by the top-down walk.
    pub c2p_from_topdown: usize,
    /// S5: walks aborted by a conflicting earlier inference.
    pub conflicts: usize,
    /// S6: c2p links inferred from VP table shares.
    pub c2p_from_vps: usize,
    /// S7: c2p inferences demoted to p2p for degree anomalies.
    pub repaired_anomalies: usize,
    /// S8: stub-to-clique c2p links.
    pub c2p_stub_clique: usize,
    /// S9: providers assigned to otherwise provider-less transit ASes.
    pub c2p_providerless: usize,
    /// S10: remaining links classified p2p.
    pub p2p_assigned: usize,
    /// S11: links participating in a c2p cycle (audit only).
    pub cycle_links: usize,
    /// Total classified links.
    pub total_links: usize,
}

/// Full inference output.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The inferred relationship for every observed (non-discarded) link.
    pub relationships: RelationshipMap,
    /// The inferred Tier-1 clique, sorted by ASN.
    pub clique: Vec<Asn>,
    /// Transit/node degrees and the visiting order.
    pub degrees: DegreeTable,
    /// Per-step accounting.
    pub report: InferenceReport,
}

/// Run the full ASRank pipeline over observed paths.
///
/// ```
/// use asrank_core::pipeline::{infer, InferenceConfig};
/// use asrank_types::{AsPath, Asn, Ipv4Prefix, PathSample, PathSet};
///
/// // Two vantage points observing a tiny hierarchy: clique {1, 2}.
/// let paths: PathSet = [
///     [100, 10, 1, 2, 20, 200],
///     [200, 20, 2, 1, 10, 100],
/// ]
/// .into_iter()
/// .enumerate()
/// .map(|(i, hops)| PathSample {
///     vp: Asn(hops[0]),
///     prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
///     path: AsPath::from_u32s(hops),
/// })
/// .collect();
///
/// let inference = infer(&paths, &InferenceConfig::default());
/// assert_eq!(inference.clique, vec![Asn(1), Asn(2)]);
/// assert!(inference.relationships.is_p2p(Asn(1), Asn(2)));
/// assert!(inference.relationships.is_c2p(Asn(10), Asn(1)));
/// ```
pub fn infer(paths: &PathSet, cfg: &InferenceConfig) -> Inference {
    // lint: allow(panics, every stage body is total over sanitized input; only a RelationshipMap corrupting its own endpoint set can fail S11)
    try_infer(paths, cfg).expect("inference stages are total over sanitized input")
}

/// [`infer`] with structured errors: drives the staged engine
/// ([`crate::engine::Snapshot`]) and surfaces any stage failure as an
/// [`EngineError`] instead of panicking.
pub fn try_infer(paths: &PathSet, cfg: &InferenceConfig) -> Result<Inference, EngineError> {
    let mut snapshot = crate::engine::Snapshot::new(paths, cfg.clone());
    let inference = snapshot.inference()?;
    // Dropping the snapshot releases the store's reference, so the
    // inference moves out without a copy.
    drop(snapshot);
    Ok(Arc::unwrap_or_clone(inference))
}

/// The original single-call pipeline, kept as the reference
/// implementation the staged engine is tested bit-identical against
/// (see `tests/engine_equivalence.rs`). Prefer [`infer`] — it memoizes
/// through the engine — for everything except equivalence oracles.
pub fn infer_monolithic(paths: &PathSet, cfg: &InferenceConfig) -> Inference {
    // S1: sanitize.
    let sanitized = sanitize_with(paths, &cfg.sanitize, cfg.parallelism);
    let mut report = InferenceReport {
        sanitize: sanitized.report,
        ..Default::default()
    };

    // S2: degrees & visiting order.
    let degrees = DegreeTable::compute(&sanitized);

    // S3: clique.
    let clique = infer_clique(&sanitized, &degrees, &cfg.clique);

    // Interned path arena: paths are parsed, deduplicated, and indexed
    // exactly once; S4–S10 share this view.
    let arena = PathArena::build(&sanitized);

    // S4–S10.
    let relationships = steps::run(&arena, &sanitized, &degrees, &clique, cfg, &mut report);

    report.total_links = relationships.len();
    Inference {
        relationships,
        clique,
        degrees,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test on a hand-built hierarchy:
    ///
    /// ```text
    ///   1 ===== 2      clique
    ///  / \     / \
    /// 10  11 20  21    transit
    /// |   |  |   |
    /// 100 110 200 210  stubs (VPs at 100 and 210)
    /// ```
    fn hierarchy_paths() -> PathSet {
        let routes: Vec<&[u32]> = vec![
            // VP 100 toward everything.
            &[100, 10, 1, 11, 110],
            &[100, 10, 1, 2, 20, 200],
            &[100, 10, 1, 2, 21, 210],
            &[100, 10, 1, 2, 20],
            &[100, 10, 1, 2, 21],
            &[100, 10, 1, 11],
            &[100, 10, 1, 2],
            &[100, 10, 1],
            // VP 210 toward everything.
            &[210, 21, 2, 20, 200],
            &[210, 21, 2, 1, 10, 100],
            &[210, 21, 2, 1, 11, 110],
            &[210, 21, 2, 1, 10],
            &[210, 21, 2, 1, 11],
            &[210, 21, 2, 20],
            &[210, 21, 2, 1],
            &[210, 21, 2],
        ];
        routes
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect()
    }

    #[test]
    fn end_to_end_hierarchy() {
        let inf = infer(&hierarchy_paths(), &InferenceConfig::default());
        assert_eq!(inf.clique, vec![Asn(1), Asn(2)]);
        let r = &inf.relationships;
        assert!(r.is_p2p(Asn(1), Asn(2)), "clique link must be p2p");
        for (c, p) in [(10u32, 1u32), (11, 1), (20, 2), (21, 2)] {
            assert!(
                r.is_c2p(Asn(c), Asn(p)),
                "expected {c} c2p {p}, got {:?}",
                r.get(Asn(c), Asn(p))
            );
        }
        for (c, p) in [(100u32, 10u32), (110, 11), (200, 20), (210, 21)] {
            assert!(
                r.is_c2p(Asn(c), Asn(p)),
                "expected {c} c2p {p}, got {:?}",
                r.get(Asn(c), Asn(p))
            );
        }
        // Every observed link classified.
        assert_eq!(inf.report.total_links, 9);
    }

    #[test]
    fn report_accounts_for_every_classification() {
        let inf = infer(&hierarchy_paths(), &InferenceConfig::default());
        let rep = &inf.report;
        let (c2p, p2p, s2s) = inf.relationships.counts();
        assert_eq!(s2s, 0);
        assert_eq!(c2p + p2p, rep.total_links);
        // Clique p2p links are assigned before S10, so p2p_assigned counts
        // only leftovers.
        assert!(rep.p2p_assigned <= p2p);
        assert_eq!(
            rep.c2p_from_topdown + rep.c2p_from_vps + rep.c2p_stub_clique + rep.c2p_providerless
                - rep.repaired_anomalies,
            c2p,
            "c2p accounting mismatch: {rep:?}"
        );
    }

    #[test]
    fn empty_input() {
        let inf = infer(&PathSet::new(), &InferenceConfig::default());
        assert!(inf.relationships.is_empty());
        assert!(inf.clique.is_empty());
        assert_eq!(inf.report.total_links, 0);
    }
}
