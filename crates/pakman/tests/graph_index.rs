//! The graph's index contract, under every engine that leans on it.
//!
//! `PakGraph` answers *where* (the sorted-rank index) and *alive* (a one-bit-
//! per-slot bitmap) without reading a MacroNode, and stage D asks *where* once
//! per edge per iteration: P1 resolves a node's neighbours and hands the ranks
//! to P3. Three things therefore have to hold at every point of a run, in
//! debug and release alike:
//!
//! * the bitmap mirrors `slots[i].is_some()` — after every constructor, after
//!   every compaction iteration of all three engines, and after the sharded
//!   graph is stitched back together;
//! * the rank index finds exactly the present keys, whatever its table size;
//! * the destination P3 takes from P1's hand-off is the one a fresh
//!   `index_of(&transfer.destination)` returns, for every transfer.

use nmp_pak_genome::{DnaString, Kmer, ReadSimulator, ReferenceGenome, SequencerConfig};
use nmp_pak_pakman::compaction::{compact, is_invalidation_target};
use nmp_pak_pakman::kmer_count::{count_kmers, CountedKmer, KmerCounterConfig};
use nmp_pak_pakman::shard::{compact_sharded, ShardedGraph};
use nmp_pak_pakman::{
    CompactionMode, MacroNode, PakGraph, PakmanConfig, ShardConfig, ShardSchedule, ThroughPath,
    TransferNode,
};

const K: usize = 21;

/// The counted k-mers of a 20 kbp, 30× error-bearing read set (the shape of
/// the determinism suites' inputs).
fn counted_kmers() -> Vec<CountedKmer> {
    let genome = ReferenceGenome::builder()
        .length(20_000)
        .seed(0x1DE5)
        .build()
        .unwrap();
    let reads = ReadSimulator::new(SequencerConfig {
        coverage: 30.0,
        substitution_error_rate: 0.001,
        seed: 0x1DE6,
        ..SequencerConfig::default()
    })
    .simulate(&genome)
    .unwrap();
    let config = KmerCounterConfig {
        k: K,
        min_count: 2,
        threads: 1,
    };
    count_kmers(&reads, config).unwrap().0
}

/// The (k-1)-mer of every slot of a graph whose slots are all alive.
fn slot_k1mers(graph: &PakGraph) -> Vec<Kmer> {
    assert_eq!(graph.alive_count(), graph.slot_count());
    graph.iter_alive().map(|(_, node)| node.k1mer()).collect()
}

/// Every bitmap-backed accessor agrees with the slot vector (`node(slot)` is
/// the one accessor that reads it). `k1mers[slot]` is the slot's key, recorded
/// while the slot was alive.
fn assert_bitmap_matches_slots(graph: &PakGraph, k1mers: &[Kmer], what: &str) {
    assert_eq!(graph.slot_count(), k1mers.len(), "{what}");
    let alive: Vec<usize> = (0..graph.slot_count())
        .filter(|&slot| graph.node(slot).is_some())
        .collect();
    assert_eq!(graph.alive_count(), alive.len(), "{what}");
    assert_eq!(graph.is_empty(), alive.is_empty(), "{what}");
    assert_eq!(graph.alive_slots(), alive, "{what}");
    let iterated: Vec<usize> = graph
        .iter_alive()
        .map(|(slot, node)| {
            assert_eq!(node.k1mer(), k1mers[slot], "{what}: slot {slot}");
            slot
        })
        .collect();
    assert_eq!(iterated, alive, "{what}");
    for (slot, k1mer) in k1mers.iter().enumerate() {
        let expected = graph.node(slot).is_some();
        assert_eq!(graph.is_alive(slot), expected, "{what}: slot {slot}");
        assert_eq!(
            graph.index_of(k1mer),
            expected.then_some(slot),
            "{what}: slot {slot}"
        );
        assert_eq!(graph.contains(k1mer), expected, "{what}: slot {slot}");
    }
    assert!(!graph.is_alive(graph.slot_count()), "{what}: past the end");
}

fn one_step(threads: usize) -> PakmanConfig {
    PakmanConfig {
        k: K,
        compaction_node_threshold: 0,
        max_compaction_iterations: 1,
        threads,
        ..PakmanConfig::default()
    }
}

#[test]
fn bitmap_mirrors_the_slots_after_every_constructor() {
    let counted = counted_kmers();
    let reference = PakGraph::from_counted_kmers(&counted, K, 1);
    let k1mers = slot_k1mers(&reference);
    assert!(k1mers.len() > 10_000);
    for threads in [1, 2, 8] {
        let graph = PakGraph::from_counted_kmers(&counted, K, threads);
        assert_bitmap_matches_slots(&graph, &k1mers, &format!("threads = {threads}"));
    }

    // Invalidation clears the bit with the slot, once.
    let mut graph = reference.clone();
    for slot in (0..graph.slot_count()).step_by(3) {
        assert!(graph.invalidate(slot).is_some());
        assert!(graph.invalidate(slot).is_none());
    }
    assert_bitmap_matches_slots(&graph, &k1mers, "every third slot invalidated");

    // `from_nodes` over the survivors: a fresh, fully alive layout.
    let survivors = graph.into_nodes();
    let rebuilt = PakGraph::from_nodes(survivors.clone(), K);
    let rebuilt_k1mers: Vec<Kmer> = survivors.iter().map(MacroNode::k1mer).collect();
    assert_bitmap_matches_slots(&rebuilt, &rebuilt_k1mers, "from_nodes");
}

#[test]
fn bitmap_mirrors_the_slots_after_every_iteration_of_every_engine() {
    let counted = counted_kmers();

    // Single graph, one iteration per call (each call's iteration 0 is a full
    // scan, so the steps compose to the ordinary run).
    let mut single = PakGraph::from_counted_kmers(&counted, K, 1);
    let k1mers = slot_k1mers(&single);
    let mut steps = 0usize;
    loop {
        let outcome = compact(&mut single, &one_step(2));
        assert_bitmap_matches_slots(&single, &k1mers, &format!("single, step {steps}"));
        if outcome
            .stats
            .iterations
            .iter()
            .all(|it| it.invalidated == 0)
        {
            break;
        }
        steps += 1;
    }
    assert!(steps >= 5, "only {steps} compaction iterations");

    // The sharded engines: every shard's graph after every step, then the
    // stitched global graph (rebuilt from parts, dead slots included), which
    // must be the single graph's result node for node.
    for schedule in [ShardSchedule::Lockstep, ShardSchedule::Async] {
        let config = PakmanConfig {
            shard_schedule: schedule,
            shards: ShardConfig { shard_count: 4 },
            ..one_step(2)
        };
        let mut sharded = ShardedGraph::from_counted_kmers(&counted, K, 4, 2);
        let shard_k1mers: Vec<Vec<Kmer>> = (0..4)
            .map(|shard| slot_k1mers(sharded.shard(shard)))
            .collect();
        for step in 0..=steps {
            let alive_before = sharded.alive_count();
            compact_sharded(&mut sharded, &config);
            for (shard, k1mers) in shard_k1mers.iter().enumerate() {
                let what = format!("{schedule:?}, step {step}, shard {shard}");
                assert_bitmap_matches_slots(sharded.shard(shard), k1mers, &what);
            }
            let converged = sharded.alive_count() == alive_before;
            assert_eq!(converged, step == steps, "{schedule:?}, step {step}");
        }
        let global = sharded.into_global_graph();
        assert_bitmap_matches_slots(&global, &k1mers, &format!("{schedule:?}, stitched"));
        assert!(global.alive_count() < global.slot_count());
        for slot in 0..global.slot_count() {
            assert_eq!(global.node(slot), single.node(slot), "{schedule:?}: {slot}");
        }
    }
}

/// A graph of empty nodes over the given packed (k-1)-mers.
fn graph_over_keys(keys: &[u64], k1_len: usize) -> PakGraph {
    let nodes = keys
        .iter()
        .map(|&key| MacroNode::new(Kmer::from_packed(key, k1_len)))
        .collect();
    PakGraph::from_nodes(nodes, k1_len + 1)
}

/// Every probe resolves to its rank among `keys` if present, to nothing if not.
fn assert_finds_exactly(graph: &PakGraph, keys: &[u64], k1_len: usize, probes: &[u64]) {
    for &probe in probes {
        let expected = keys.binary_search(&probe).ok();
        assert_eq!(
            graph.index_of(&Kmer::from_packed(probe, k1_len)),
            expected,
            "key {probe:#x}"
        );
    }
}

#[test]
fn rank_index_finds_exactly_the_present_keys_at_every_table_size() {
    // No keys, one key.
    let empty = graph_over_keys(&[], 4);
    assert!(empty.is_empty());
    assert_finds_exactly(&empty, &[], 4, &[0, 1, 255]);
    let one = graph_over_keys(&[77], 4);
    assert_eq!(one.alive_count(), 1);
    assert_finds_exactly(&one, &[77], 4, &[0, 76, 77, 78, 255]);

    // More keys than the key width can index: all sixteen 2-mers (4 key bits,
    // 16 keys), then the odd ones only.
    let all: Vec<u64> = (0..16).collect();
    let probes: Vec<u64> = (0..16).collect();
    assert_finds_exactly(&graph_over_keys(&all, 2), &all, 2, &probes);
    let odd: Vec<u64> = (0..16).filter(|key| key % 2 == 1).collect();
    assert_finds_exactly(&graph_over_keys(&odd, 2), &odd, 2, &probes);

    // More than 2^16 keys, so the prefix table outgrows the old cap: every
    // present key, and absent keys below, between and above them.
    let keys: Vec<u64> = (0..70_000u64).map(|i| 5 + 14 * i).collect();
    let graph = graph_over_keys(&keys, 10);
    assert!(*keys.last().unwrap() < (1 << 20) - 1);
    assert_eq!(graph.alive_count(), keys.len());
    assert_finds_exactly(&graph, &keys, 10, &keys);
    let absent: Vec<u64> = (0..5)
        .chain(keys.iter().flat_map(|&key| [key - 1, key + 1, key + 7]))
        .chain([(1 << 20) - 1])
        .collect();
    assert_finds_exactly(&graph, &keys, 10, &absent);
    // A (k-1)-mer of another length never aliases a key.
    assert_eq!(graph.index_of(&Kmer::from_packed(5, 9)), None);
    assert_eq!(graph.index_of(&Kmer::from_packed(5, 11)), None);
}

/// The single-graph hand-off oracle. Runs the whole compaction of `graph` at
/// `threads` in both scan modes (which must agree bit for bit), then replays it
/// on a shadow graph one iteration at a time: before each step the shadow
/// predicts the invalidated set and extracts its transfers through the public
/// API; after the step a fresh `index_of(&transfer.destination)` per transfer
/// is what the run's recorded transfer events — built from the ranks P1 handed
/// to P3 — must equal, dropped transfers included. Returns how many transfers
/// found their destination gone.
fn assert_handoff_matches_index_of(graph: &PakGraph, threads: usize, what: &str) -> usize {
    let config = |mode| PakmanConfig {
        k: graph.k(),
        compaction_node_threshold: 0,
        threads,
        record_trace: true,
        compaction_mode: mode,
        ..PakmanConfig::default()
    };
    let mut frontier_graph = graph.clone();
    let frontier = compact(&mut frontier_graph, &config(CompactionMode::Frontier));
    let mut full_graph = graph.clone();
    let full = compact(&mut full_graph, &config(CompactionMode::FullScan));
    assert_eq!(frontier.stats, full.stats, "{what}: FullScan ≢ Frontier");
    assert_eq!(frontier.trace, full.trace, "{what}: FullScan ≢ Frontier");
    for slot in 0..graph.slot_count() {
        assert_eq!(frontier_graph.node(slot), full_graph.node(slot), "{what}");
    }

    let trace = frontier.trace.expect("trace requested");
    let mut shadow = graph.clone();
    let mut dropped = 0usize;
    for (iteration, recorded) in trace.iterations.iter().enumerate() {
        let what = format!("{what}, iteration {iteration}");
        let mut targets = Vec::new();
        let mut transfers: Vec<(usize, TransferNode)> = Vec::new();
        for (slot, node) in shadow.iter_alive() {
            if !is_invalidation_target(&shadow, node) {
                continue;
            }
            targets.push(slot);
            for path in node.paths() {
                let (pred, succ) = TransferNode::extract_pair(node, path).expect("interior path");
                transfers.push((slot, pred));
                transfers.push((slot, succ));
            }
        }
        let invalidated: Vec<usize> = recorded
            .checks
            .iter()
            .filter(|check| check.invalidated)
            .map(|check| check.slot)
            .collect();
        assert_eq!(invalidated, targets, "{what}");
        assert_eq!(
            frontier.stats.iterations[iteration].transfers,
            transfers.len(),
            "{what}"
        );

        let step = PakmanConfig {
            k: graph.k(),
            ..one_step(1)
        };
        compact(&mut shadow, &step);
        let expected: Vec<(usize, usize, usize)> = transfers
            .iter()
            .filter_map(|(source, transfer)| {
                let dest = shadow.index_of(&transfer.destination);
                dropped += usize::from(dest.is_none());
                Some((*source, dest?, transfer.size_bytes()))
            })
            .collect();
        let events: Vec<(usize, usize, usize)> = recorded
            .transfers
            .iter()
            .map(|event| (event.source_slot, event.dest_slot, event.size_bytes))
            .collect();
        assert_eq!(events, expected, "{what}");
    }
    for slot in 0..graph.slot_count() {
        assert_eq!(shadow.node(slot), frontier_graph.node(slot), "{what}");
    }
    dropped
}

/// Five nodes wired asymmetrically so that a destination dies in the very
/// iteration that sends to it: `GGGG` lists `TTTT` as its predecessor, `TTTT`
/// does not list `GGGG` back, and both dominate every neighbour they do list
/// (A < C < T < G). P1 sees `TTTT` alive and invalidates both.
fn asymmetric_graph() -> PakGraph {
    let dna = |text: &str| text.parse::<DnaString>().unwrap();
    let node = |k1mer: &str, path: Option<(&str, &str)>| {
        let mut node = MacroNode::new(Kmer::from_ascii(k1mer).unwrap());
        if let Some((prefix, suffix)) = path {
            node.push_path(ThroughPath::through(dna(prefix), dna(suffix), 1));
        }
        node
    };
    PakGraph::from_nodes(
        vec![
            node("GGGG", Some(("TTTT", "CCCC"))),
            node("TTTT", Some(("AAAA", "ACAC"))),
            node("AAAA", None),
            node("ACAC", None),
            node("CCCC", None),
        ],
        5,
    )
}

#[test]
fn p3_destinations_equal_index_of_for_every_transfer_at_every_iteration() {
    let counted = counted_kmers();
    let graph = PakGraph::from_counted_kmers(&counted, K, 1);

    // Stale wiring on demand: remove neighbours of would-be targets behind
    // their backs, as an earlier iteration's unmatched transfers do.
    let mut stale = graph.clone();
    let doomed: Vec<usize> = graph
        .iter_alive()
        .filter(|(_, node)| is_invalidation_target(&graph, node))
        .filter_map(|(_, node)| {
            graph.index_of(&node.successor_k1mer(node.paths()[0].suffix.as_ref()?))
        })
        .step_by(3)
        .collect();
    assert!(doomed.len() > 100);
    for slot in doomed {
        stale.invalidate(slot);
    }

    for threads in [1, 2, 8] {
        assert_handoff_matches_index_of(&graph, threads, &format!("threads = {threads}"));
        assert_handoff_matches_index_of(&stale, threads, &format!("stale, threads = {threads}"));
        let dropped = assert_handoff_matches_index_of(
            &asymmetric_graph(),
            threads,
            &format!("asymmetric, threads = {threads}"),
        );
        assert_eq!(dropped, 1, "GGGG's transfer to TTTT finds it gone");
    }
}
