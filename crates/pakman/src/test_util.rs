//! Shared fixtures for the crate's unit tests (compiled only under `cfg(test)`).
//!
//! These used to be copy-pasted into the `batch`, `stage` and `kmer_count` test
//! modules; any test that needs a deterministic read set builds it here.

use crate::graph::PakGraph;
use crate::macronode::{MacroNode, ThroughPath};
use crate::Extension;
use nmp_pak_genome::{
    DnaString, Kmer, ReadSimulator, ReferenceGenome, SequencerConfig, SequencingRead,
};

/// Simulates an error-free read set over a fresh repeat-free genome of
/// `length` bases at the given coverage. Deterministic per seed.
pub(crate) fn reads_for(length: usize, coverage: f64, seed: u64) -> Vec<SequencingRead> {
    let genome = ReferenceGenome::builder()
        .length(length)
        .no_repeats()
        .seed(seed)
        .build()
        .unwrap();
    ReadSimulator::new(SequencerConfig {
        coverage,
        substitution_error_rate: 0.0,
        seed: seed + 1,
        ..SequencerConfig::default()
    })
    .simulate(&genome)
    .unwrap()
}

/// Builds reads directly from ASCII sequences (ids `r0`, `r1`, …).
pub(crate) fn reads_from(strs: &[&str]) -> Vec<SequencingRead> {
    strs.iter()
        .enumerate()
        .map(|(i, s)| SequencingRead::new(format!("r{i}"), s.parse::<DnaString>().unwrap()))
        .collect()
}

/// The graph of `nodes` plus the hand-wired case of `tests/graph_index.rs` at
/// `k` (k − 1 even, at most 32), so that compaction's first iteration meets
/// every kind of delivery: `G…` lists `T…` as a predecessor that does not list
/// it back, both dominate what they list (A < C < T < G), and `T…` is retired
/// beside the node that sends to it.
pub(crate) fn with_a_doomed_destination(mut nodes: Vec<MacroNode>, k: usize) -> PakGraph {
    let len = k - 1;
    let dna = |text: String| text.parse::<Extension>().unwrap();
    let k1mer = |unit: &str| Kmer::from_ascii(&unit.repeat(len / unit.len())).unwrap();
    let wired = |unit: &str, path: Option<(&str, &str)>| {
        let mut node = MacroNode::new(k1mer(unit));
        if let Some((prefix, suffix)) = path {
            let path =
                ThroughPath::through(dna(prefix.repeat(len)), dna(suffix.repeat(len / 2)), 1);
            node.push_path(path);
        }
        node
    };
    nodes.push(wired("G", Some(("T", "CC"))));
    nodes.push(wired("T", Some(("A", "AC"))));
    nodes.extend(["A", "C", "AC"].map(|unit| wired(unit, None)));
    PakGraph::from_nodes(nodes, k)
}
