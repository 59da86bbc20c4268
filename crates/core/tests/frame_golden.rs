//! Golden-frame pin: the persisted codec frame of every engine stage
//! must stay byte-identical across commits, not only across the paths
//! inside one build.
//!
//! The equivalence suites compare two implementations compiled side by
//! side (staged vs monolithic, delta vs cold, blocked vs unblocked), so
//! a change that every path shares — a new S2 implementation, a
//! reordered cone merge — passes them all while the frames change. This
//! test hashes each stage's `encode_artifact` frame over a fixed
//! generator + bgpsim scenario and compares against constants recorded
//! from an earlier build. A mismatch means persisted caches and served
//! views would change; update the constants only when a stage's output
//! is meant to change, and say so in the change log.

use as_topology_gen::{generate, TopologyConfig};
use asrank_core::engine::{stage_disk_key, Snapshot};
use asrank_core::persist::{encode_artifact, pathset_fingerprint};
use asrank_core::pipeline::InferenceConfig;
use asrank_types::prelude::*;
use asrank_types::checksum64;
use std::collections::HashMap;
use bgp_sim::{simulate, SimConfig, VpSelection};

const SEED: u64 = 42;

/// `checksum64(encode_artifact(..))` per stage, in DAG order.
const GOLDEN: [(&str, u64); 16] = [
    ("s1_sanitize", 0x617b5b02b91be809),
    ("s2_degrees", 0x27f98454894e62ec),
    ("s3_clique", 0x994c86aa64f7e95c),
    ("path_arena", 0x63b53149087ae669),
    ("s4_poison", 0xed340831718379ee),
    ("observed_links", 0xc6ef23ed341c4bf2),
    ("s5_topdown", 0x33c84f3d664aeb5b),
    ("s6_vp_providers", 0xedddc286489ddc35),
    ("s7_anomaly_repair", 0xedddc286489ddc35),
    ("s8_stub_clique", 0x632d0f6b0819468d),
    ("s9_providerless", 0x632d0f6b0819468d),
    ("s10_p2p", 0x3b840f25f1bdc1e6),
    ("s11_inference", 0x2ff8165bb424d9de),
    ("cone_recursive", 0x47a457dd9b2e840f),
    ("cone_bgp_observed", 0x5ba2be7a60e00615),
    ("cone_provider_peer", 0x8363094fb591da77),
];

/// `stage_disk_key` per stage for the same scenario, in DAG order.
const GOLDEN_DISK_KEYS: [(&str, u64); 16] = [
    ("s1_sanitize", 0xbdc297b32cfa1561),
    ("s2_degrees", 0x8a718bbac761332e),
    ("s3_clique", 0x0f20659a8eb2be43),
    ("path_arena", 0x0761ba49db8475fe),
    ("s4_poison", 0xd7245b9fda1f4e6d),
    ("observed_links", 0x19bfd89e8d305721),
    ("s5_topdown", 0x0140c2a2a96f96fa),
    ("s6_vp_providers", 0x05326ec854f6c52f),
    ("s7_anomaly_repair", 0xc7ce5eb352f21085),
    ("s8_stub_clique", 0x1a64a13f7bd641d4),
    ("s9_providerless", 0xab7de355ff7faa64),
    ("s10_p2p", 0xc167a2a587621fa8),
    ("s11_inference", 0x4d7a210b5a88a392),
    ("cone_recursive", 0x26d8297c9c589d35),
    ("cone_bgp_observed", 0x23a0c07b2d9f151e),
    ("cone_provider_peer", 0xd8fad49898e7f65c),
];

/// The fixed scenario: a tiny generated topology, 12 simulated vantage
/// points, the topology's IXP route servers as the sanitize list and its
/// prefix table as the cone weights.
fn scenario() -> (PathSet, InferenceConfig, HashMap<Asn, Vec<Ipv4Prefix>>) {
    let topo = generate(&TopologyConfig::tiny(), SEED);
    let sim = simulate(
        &topo,
        &SimConfig {
            vp_selection: VpSelection::Count(12),
            ..SimConfig::defaults(SEED)
        },
    );
    let cfg =
        InferenceConfig::with_ixps(topo.ixps.iter().map(|i| i.route_server).collect::<Vec<_>>());
    (sim.paths, cfg, topo.ground_truth.prefixes)
}

fn render(got: &[(&str, u64)]) -> String {
    got.iter()
        .map(|(name, v)| format!("    (\"{name}\", {v:#018x}),"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn frame_checksums(par: Parallelism) -> Vec<(&'static str, u64)> {
    let (paths, mut cfg, prefixes) = scenario();
    cfg.parallelism = par;
    let mut snap = Snapshot::new(&paths, cfg)
        .without_cache()
        .with_prefixes(prefixes);
    Snapshot::stage_names()
        .into_iter()
        .map(|name| {
            let artifact = snap
                .materialize(name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, checksum64(&encode_artifact(&artifact)))
        })
        .collect()
}

#[test]
fn every_stage_frame_matches_the_recorded_checksum() {
    for par in [Parallelism::sequential(), Parallelism::threads(2)] {
        let got = frame_checksums(par);
        assert_eq!(
            got,
            GOLDEN.to_vec(),
            "frame checksums at {par} (actual, in GOLDEN form):\n{}",
            render(&got)
        );
    }
}

#[test]
fn every_stage_disk_key_matches_the_recorded_key() {
    let (paths, cfg, prefixes) = scenario();
    let content_fp = pathset_fingerprint(&paths);
    let got: Vec<(&str, u64)> = Snapshot::stage_names()
        .into_iter()
        .map(|name| {
            let key = stage_disk_key(name, &cfg, Some(&prefixes), content_fp)
                .unwrap_or_else(|| panic!("{name}: unknown stage"));
            (name, key)
        })
        .collect();
    assert_eq!(
        got,
        GOLDEN_DISK_KEYS.to_vec(),
        "disk keys (actual, in GOLDEN_DISK_KEYS form):\n{}",
        render(&got)
    );
}
