//! Sharded subgraph execution: the owner-computes decomposition of the
//! PaK-graph, mapped one shard per NMP channel, measured over the one graph.
//!
//! Distributed PaKman partitions MacroNodes across MPI ranks by hashing each
//! (k-1)-mer and compacts the per-rank subgraphs mostly independently, with
//! boundary traffic exchanged via `MPI_Alltoallv` once per iteration. NMP-PaK's
//! scalability claim rests on the same decomposition mapped onto channels: each
//! channel's local memory holds one subgraph, and only TransferNodes whose
//! destination lives on another channel cross the inter-DIMM network. Where a
//! node lives is a pure function of its (k-1)-mer
//! ([`nmp_pak_genome::shard_of_packed`]), so this module measures that
//! decomposition without moving a node:
//!
//! * [`ShardedGraph`] — the one built [`PakGraph`] plus its shard count; the
//!   owner of every slot is the hash of its key;
//! * [`compact_sharded`] — Iterative Compaction by [`crate::compaction`]'s
//!   barriered driver over a store that forwards every access to that graph
//!   and keeps the owner ledger: P1 work per owner shard, and every
//!   TransferNode on its (owner of source, owner of destination) lane, flushed
//!   **once per iteration**;
//! * [`ShardingTelemetry`] — the measured per-shard load and inter-shard
//!   traffic the hardware models consume instead of assuming uniformity; its
//!   flush ledger is the one record of the exchange, and every traffic total
//!   is a sum over it.
//!
//! **Determinism contract.** Sharding changes *where* work would execute,
//! never what it computes: the nodes, the driver and the transfer stream are
//! the single graph's, so contigs, statistics and the recorded trace are
//! bit-identical to the single-graph path at every shard count and thread
//! count, and the ledger — a function of the keys and of the canonical
//! transfer stream — is identical at every thread count.
//!
//! **One schedule.** The paper's PEs exchange TransferNodes once per
//! iteration (§4.2), and the ledger books exactly that barriered schedule.
//! [`crate::ShardSchedule`] selects nothing: both of its variants run it.

use crate::compaction::{run_barriered, CompactionOutcome, NodeStore};
use crate::config::PakmanConfig;
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::kmer_count::CountedKmer;
use crate::macronode::MacroNode;
use crate::transfer::{ShardMailbox, TransferNode};
use nmp_pak_genome::{shard_of_packed, Kmer};

/// The PaK-graph under owner-computes sharding: the one built graph, whose
/// slot layout every artifact (traces, statistics, the compacted output
/// graph) is expressed in, plus the shard count that assigns each slot an
/// owner.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    graph: PakGraph,
    shard_count: usize,
}

impl ShardedGraph {
    /// Builds the sharded graph from the sorted counted k-mer stream: the
    /// single-graph build ([`PakGraph::from_counted_kmers`], on up to `threads`
    /// chunks), owned by `shard_count` shards.
    ///
    /// More shards than MacroNodes is not an error: the surplus shards own zero
    /// nodes and the corresponding channels idle (zeros in
    /// [`ShardingTelemetry::initial_alive_per_shard`]).
    pub fn from_counted_kmers(
        counted: &[CountedKmer],
        k: usize,
        shard_count: usize,
        threads: usize,
    ) -> ShardedGraph {
        let graph = PakGraph::from_counted_kmers(counted, k, threads);
        ShardedGraph::new(graph, shard_count)
    }

    /// Wraps an already-built single graph as a one-shard sharded graph. Used
    /// by the overhead benchmark, which runs the sharded store over one shard.
    pub fn from_single(graph: PakGraph) -> ShardedGraph {
        ShardedGraph::new(graph, 1)
    }

    /// `graph` owned by `shard_count` shards (clamped to at least one).
    pub(crate) fn new(graph: PakGraph, shard_count: usize) -> ShardedGraph {
        ShardedGraph {
            graph,
            shard_count: shard_count.max(1),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The graph itself, in its one slot layout.
    pub fn graph(&self) -> &PakGraph {
        &self.graph
    }

    /// The owner shard of slot `slot`, alive or not.
    pub fn shard_of_global(&self, slot: usize) -> usize {
        shard_of_packed(self.graph.slot_keys()[slot], self.shard_count)
    }

    /// Total alive MacroNodes.
    pub fn alive_count(&self) -> usize {
        self.graph.alive_count()
    }

    /// Alive MacroNodes per owner shard — the per-channel residency the
    /// hardware model reads as measured (not assumed) load.
    pub fn per_shard_alive(&self) -> Vec<usize> {
        let mut alive = vec![0; self.shard_count];
        for slot in self.graph.alive_slots() {
            alive[self.shard_of_global(slot)] += 1;
        }
        alive
    }

    /// The graph, dead slots included, for the walk, batch merging and the
    /// memory-trace layout.
    pub fn into_global_graph(self) -> PakGraph {
        self.graph
    }
}

/// One mailbox flush: the TransferNodes one source shard sent one destination
/// shard in one iteration.
///
/// The barriered exchange is decomposed into one record per (iteration, src,
/// dst) lane with traffic, and every traffic figure — [`ShardingTelemetry`]'s
/// totals, the channel model's intra/cross-channel split, the network model's
/// per-flush charges — is a sum over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxFlushStats {
    /// Source shard.
    pub src: usize,
    /// Destination shard (equal to `src` for shard-local deliveries).
    pub dst: usize,
    /// The global compaction iteration that produced this flush (every shard
    /// runs every iteration, so there is no per-shard count).
    pub src_iteration: usize,
    /// TransferNodes carried.
    pub transfers: u64,
    /// Payload bytes carried.
    pub bytes: u64,
}

/// Measured per-shard load and inter-shard traffic of one sharded run — the
/// telemetry the `nmphw` channel model and its multi-node projection consume
/// instead of assuming uniform work and uniform traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingTelemetry {
    /// Number of shards the run executed with.
    pub shard_count: usize,
    /// Alive MacroNodes per shard before compaction.
    pub initial_alive_per_shard: Vec<usize>,
    /// Alive MacroNodes per shard after compaction.
    pub final_alive_per_shard: Vec<usize>,
    /// P1 invalidation predicates evaluated per shard across the run — the
    /// per-channel compute load.
    pub checked_per_shard: Vec<u64>,
    /// The exchange: one record per (iteration, src, dst) lane that carried a
    /// transfer, sorted by (src_iteration, src, dst). The only record of the
    /// traffic; the totals below are sums over it.
    pub flushes: Vec<MailboxFlushStats>,
}

impl ShardingTelemetry {
    /// The telemetry of a run about to start on `sharded`: residency recorded,
    /// every ledger empty.
    fn at_start(sharded: &ShardedGraph) -> ShardingTelemetry {
        let shard_count = sharded.shard_count();
        ShardingTelemetry {
            shard_count,
            initial_alive_per_shard: sharded.per_shard_alive(),
            final_alive_per_shard: Vec::new(),
            checked_per_shard: vec![0; shard_count],
            flushes: Vec::new(),
        }
    }

    /// Per-shard load imbalance: max over mean of the per-shard P1 work
    /// (falls back to the initial residency when no predicate ran). 1.0 means
    /// perfectly balanced; the hardware model multiplies its
    /// perfectly-parallel critical path by this factor.
    ///
    /// The mean runs over *working* shards only, matching the channel model's
    /// convention (`nmphw::ChannelLoadStats::imbalance` excludes idle
    /// channels): a shard that owns zero k-mers reflects over-partitioning,
    /// not skew among the lanes that actually execute in lock-step.
    pub fn load_imbalance(&self) -> f64 {
        let ratio = |counts: &[u64]| -> Option<f64> {
            let working: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
            let total: u64 = working.iter().sum();
            if working.is_empty() || total == 0 {
                return None;
            }
            let mean = total as f64 / working.len() as f64;
            let max = working.iter().copied().max().unwrap_or(0) as f64;
            Some(max / mean)
        };
        let residency: Vec<u64> = self
            .initial_alive_per_shard
            .iter()
            .map(|&n| n as u64)
            .collect();
        ratio(&self.checked_per_shard)
            .or_else(|| ratio(&residency))
            .unwrap_or(1.0)
    }

    /// Total TransferNodes routed across the run.
    pub fn total_transfers(&self) -> usize {
        self.flushes.iter().map(|f| f.transfers as usize).sum()
    }

    /// Total mailbox payload bytes across the run.
    pub fn total_mailbox_bytes(&self) -> u64 {
        self.flushes.iter().map(|f| f.bytes).sum()
    }

    /// Total payload bytes that crossed shards across the run.
    pub fn total_cross_shard_bytes(&self) -> u64 {
        let crossing = self.flushes.iter().filter(|f| f.src != f.dst);
        crossing.map(|f| f.bytes).sum()
    }

    /// Fraction of mailbox bytes that crossed shards (0 when nothing moved).
    pub fn cross_shard_fraction(&self) -> f64 {
        let total = self.total_mailbox_bytes();
        if total == 0 {
            return 0.0;
        }
        self.total_cross_shard_bytes() as f64 / total as f64
    }
}

/// Runs Iterative Compaction over the sharded graph and books where its work
/// would run: the outcome — statistics, trace, compacted nodes — is
/// **bit-identical** to [`crate::compaction::compact`] on the same graph, at
/// every shard count and thread count, and the telemetry's flush ledger
/// records the exchange, one record per lane that carried a transfer in an
/// iteration.
pub fn compact_sharded(
    sharded: &mut ShardedGraph,
    config: &PakmanConfig,
) -> (CompactionOutcome, ShardingTelemetry) {
    compact_sharded_controlled(sharded, config, &RunControl::default())
        .expect("the null control never cancels and a graph's slots fit the 32-bit census")
}

/// [`compact_sharded`] under a [`RunControl`]: the cancellation token is polled
/// at the top of every iteration (so no iteration is ever half booked) and the
/// observer gets one `compaction_iteration` callback per iteration.
/// Bit-identical to [`compact_sharded`] under the default control.
///
/// # Errors
///
/// Returns [`PakmanError::Cancelled`] if the control's token fires between
/// iterations; the sharded graph is left mid-compaction and should be dropped.
/// Returns [`PakmanError::InvalidConfig`], with the graph untouched, if it has
/// more than `u32::MAX` slots.
pub fn compact_sharded_controlled(
    sharded: &mut ShardedGraph,
    config: &PakmanConfig,
    control: &RunControl<'_>,
) -> Result<(CompactionOutcome, ShardingTelemetry), PakmanError> {
    let mut store = OwnerLedger {
        mailbox: ShardMailbox::new(sharded.shard_count),
        telemetry: ShardingTelemetry::at_start(sharded),
        iteration: 0,
        sharded,
    };
    let outcome = run_barriered(&mut store, config, control)?;
    let mut telemetry = store.telemetry;
    telemetry.final_alive_per_shard = store.sharded.per_shard_alive();
    Ok((outcome, telemetry))
}

/// The sharded [`NodeStore`]: every access goes to the one graph, as
/// [`PakGraph`]'s own store does, and the ledger books what each owner shard
/// would have done — its P1 checks, and each transfer on its (owner of
/// source, owner of destination) lane; the iteration's lanes enter the flush
/// ledger when it closes.
struct OwnerLedger<'g> {
    sharded: &'g mut ShardedGraph,
    mailbox: ShardMailbox,
    telemetry: ShardingTelemetry,
    /// The open iteration.
    iteration: usize,
}

impl NodeStore for OwnerLedger<'_> {
    const CHECKPOINT: &'static str = "sharded compaction";

    fn slot_count(&self) -> usize {
        self.sharded.graph.slot_count()
    }
    fn is_alive(&self, slot: usize) -> bool {
        self.sharded.graph.is_alive(slot)
    }
    fn node(&self, slot: usize) -> Option<&MacroNode> {
        self.sharded.graph.node(slot)
    }
    fn index_of(&self, k1mer: &Kmer) -> Option<usize> {
        self.sharded.graph.index_of(k1mer)
    }
    fn retire(&mut self, slot: usize) {
        self.sharded.graph.retire(slot);
    }
    fn take_retired(&mut self, slot: usize) -> MacroNode {
        self.sharded.graph.take_retired(slot)
    }
    fn checked(&mut self, slots: &[usize]) {
        for &slot in slots {
            self.telemetry.checked_per_shard[self.sharded.shard_of_global(slot)] += 1;
        }
    }
    fn prefetch(&self, slot: usize) {
        self.sharded.graph.prefetch(slot);
    }
    fn open(&mut self, iteration: usize) {
        self.mailbox.clear();
        self.iteration = iteration;
    }

    /// Books the transfer on its (src, dst) lane — a dropped one too: it
    /// crossed the network before anyone could know — then applies it in
    /// place, as the single graph does.
    fn deliver(&mut self, source: usize, dest: Option<usize>, transfer: TransferNode) -> bool {
        let src = self.sharded.shard_of_global(source);
        let dst = shard_of_packed(transfer.destination.packed(), self.sharded.shard_count);
        self.mailbox.enter(src, dst, &transfer);
        self.sharded.graph.deliver(source, dest, transfer)
    }

    /// Enters the iteration's exchange in the flush ledger: one record per
    /// (src, dst) lane with traffic, already in (iteration, src, dst) order by
    /// construction.
    fn close(&mut self) {
        let src_iteration = self.iteration;
        let flushes = self
            .mailbox
            .lanes()
            .map(|(src, dst, transfers, bytes)| MailboxFlushStats {
                src,
                dst,
                src_iteration,
                transfers,
                bytes,
            });
        self.telemetry.flushes.extend(flushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::compact;
    use crate::config::ShardSchedule;
    use crate::kmer_count::{count_kmers, KmerCounterConfig};
    use crate::test_util::reads_for;
    use crate::walk::generate_contigs;

    fn counted_for(k: usize) -> Vec<CountedKmer> {
        let reads = reads_for(4_000, 15.0, 0x5A4D);
        count_kmers(
            &reads,
            KmerCounterConfig {
                k,
                min_count: 1,
                threads: 1,
            },
        )
        .unwrap()
        .0
    }

    fn cfg(threads: usize) -> PakmanConfig {
        PakmanConfig {
            k: 17,
            min_kmer_count: 1,
            compaction_node_threshold: 10,
            threads,
            record_trace: true,
            ..PakmanConfig::default()
        }
    }

    #[test]
    fn sharded_construction_matches_single_graph_node_for_node() {
        let counted = counted_for(17);
        let reference = PakGraph::from_counted_kmers(&counted, 17, 1);
        for shards in [1usize, 2, 7, 32] {
            let sharded = ShardedGraph::from_counted_kmers(&counted, 17, shards, 4);
            assert_eq!(sharded.alive_count(), reference.alive_count());
            // Every alive slot's owner is its node's, and the owners' residency
            // adds up to the graph's.
            for (slot, node) in sharded.graph().iter_alive() {
                assert_eq!(sharded.shard_of_global(slot), node.owner_shard(shards));
            }
            let per_shard = sharded.per_shard_alive();
            assert_eq!(per_shard.len(), shards);
            assert_eq!(per_shard.iter().sum::<usize>(), reference.alive_count());
            // The graph is the single build, slot for slot.
            let global = sharded.into_global_graph();
            assert_eq!(global.slot_count(), reference.slot_count());
            for slot in 0..reference.slot_count() {
                assert_eq!(global.node(slot), reference.node(slot), "shards = {shards}");
            }
        }
    }

    /// Five nodes wired asymmetrically so that a destination dies in the very
    /// iteration that sends to it (the graph of `tests/graph_index.rs`): `GGGG`
    /// lists `TTTT` as its predecessor, `TTTT` does not list `GGGG` back, and
    /// both dominate every neighbour they do list (A < C < T < G). `CCCC` holds
    /// the extension `GGGG`'s transfer looks for; `AAAA` and `ACAC` hold none.
    fn asymmetric_nodes() -> Vec<MacroNode> {
        let dna = |text: &str| text.parse::<crate::Extension>().unwrap();
        let node = |k1mer: &str, prefix: Option<&str>, suffix: Option<&str>| {
            let mut node = MacroNode::new(Kmer::from_ascii(k1mer).unwrap());
            if prefix.is_some() || suffix.is_some() {
                node.push_path(crate::macronode::ThroughPath {
                    prefix: prefix.map(dna),
                    suffix: suffix.map(dna),
                    count: 1,
                });
            }
            node
        };
        vec![
            node("AAAA", None, None),
            node("ACAC", None, None),
            node("CCCC", Some("GGGG"), None),
            node("TTTT", Some("AAAA"), Some("ACAC")),
            node("GGGG", Some("TTTT"), Some("CCCC")),
        ]
    }

    #[test]
    fn a_destination_retired_beside_its_source_is_dropped_under_every_store() {
        use crate::trace::{TransferEvent, UpdateEvent};
        let nodes = asymmetric_nodes();
        let sharded_over =
            |shards: usize| ShardedGraph::new(PakGraph::from_nodes(nodes.clone(), 5), shards);
        for record_trace in [true, false] {
            let config = PakmanConfig {
                k: 5,
                compaction_node_threshold: 0,
                threads: 1,
                record_trace,
                ..PakmanConfig::default()
            };
            let mut reference_graph = PakGraph::from_nodes(nodes.clone(), 5);
            let reference = compact(&mut reference_graph, &config);

            // Slots ascend A < C < T < G: AAAA 0, ACAC 1, CCCC 2, TTTT 3, GGGG 4.
            // Both targets go in iteration 0; of their four transfers the one to
            // TTTT is dropped, two find no extension, and CCCC takes GGGG's.
            let first = &reference.stats.iterations[0];
            assert_eq!((first.invalidated, first.transfers), (2, 4));
            assert_eq!(first.unmatched_transfers, 3);
            assert_eq!(reference_graph.alive_slots(), [0, 1, 2]);
            let spelled = reference_graph.node(2).unwrap().paths()[0].prefix.clone();
            assert_eq!(spelled.unwrap().to_string(), "TTTTGGGG");
            assert_eq!(reference.trace.is_some(), record_trace);
            if let Some(trace) = &reference.trace {
                let event = |source_slot, dest_slot| TransferEvent {
                    source_slot,
                    dest_slot,
                    size_bytes: 27,
                };
                let landed = [event(3, 0), event(3, 1), event(4, 2)];
                assert_eq!(trace.iterations[0].transfers, landed);
                let update = UpdateEvent::new(2, reference_graph.node(2).unwrap().size_bytes());
                assert_eq!(trace.iterations[0].updates, [update]);
            }

            for shards in [1usize, 4] {
                let what = format!("shards = {shards}, traced = {record_trace}");
                let mut sharded = sharded_over(shards);
                let (outcome, telemetry) = compact_sharded(&mut sharded, &config);
                assert_eq!(outcome.stats, reference.stats, "{what}");
                assert_eq!(outcome.trace, reference.trace, "{what}");
                // The dropped transfer crossed the mailbox all the same.
                assert_eq!(telemetry.total_transfers(), 4, "{what}");
                let global = sharded.into_global_graph();
                for slot in 0..5 {
                    assert_eq!(global.node(slot), reference_graph.node(slot), "{what}");
                }
            }
        }
    }

    #[test]
    fn sharded_compaction_is_bit_identical_to_single_graph() {
        let counted = counted_for(17);
        let mut reference_graph = PakGraph::from_counted_kmers(&counted, 17, 1);
        let reference = compact(&mut reference_graph, &cfg(1));
        let reference_contigs = generate_contigs(&reference_graph, 0);
        for shards in [1usize, 2, 5, 7, 32] {
            for threads in [1usize, 2, 4] {
                let mut sharded = ShardedGraph::from_counted_kmers(&counted, 17, shards, threads);
                let (outcome, telemetry) = compact_sharded(&mut sharded, &cfg(threads));
                let what = format!("shards = {shards}, threads = {threads}");
                assert_eq!(outcome.stats, reference.stats, "stats diverged: {what}");
                assert_eq!(outcome.trace, reference.trace, "trace diverged: {what}");
                assert_eq!(telemetry.shard_count, shards);
                assert_eq!(
                    telemetry.initial_alive_per_shard.iter().sum::<usize>(),
                    reference.stats.initial_nodes
                );
                assert_eq!(
                    telemetry.final_alive_per_shard.iter().sum::<usize>(),
                    reference.stats.final_nodes
                );
                // Every transfer went through the mailbox.
                assert_eq!(telemetry.total_transfers(), reference.stats.total_transfers);
                let global = sharded.into_global_graph();
                for slot in 0..reference_graph.slot_count() {
                    assert_eq!(
                        global.node(slot),
                        reference_graph.node(slot),
                        "graph diverged at slot {slot}: {what}"
                    );
                }
                let contigs = generate_contigs(&global, 0);
                assert_eq!(contigs, reference_contigs, "contigs diverged: {what}");
            }
        }
    }

    #[test]
    fn cross_shard_traffic_appears_once_sharded() {
        let counted = counted_for(17);
        let mut sharded = ShardedGraph::from_counted_kmers(&counted, 17, 8, 2);
        let (_, telemetry) = compact_sharded(&mut sharded, &cfg(2));
        assert!(telemetry.total_mailbox_bytes() > 0);
        // With 8 hash-assigned shards most destinations live elsewhere (≈ 7/8).
        assert!(
            telemetry.cross_shard_fraction() > 0.5,
            "cross fraction = {}",
            telemetry.cross_shard_fraction()
        );
        assert!(telemetry.load_imbalance() >= 1.0);

        // The retired schedule name runs the same lock-step schedule.
        let untraced = |shard_schedule| PakmanConfig {
            shard_schedule,
            record_trace: false,
            ..cfg(2)
        };
        let mut lockstep = ShardedGraph::from_counted_kmers(&counted, 17, 8, 2);
        let lockstep_run = compact_sharded(&mut lockstep, &untraced(ShardSchedule::Lockstep));
        let mut renamed = ShardedGraph::from_counted_kmers(&counted, 17, 8, 2);
        let renamed_run = compact_sharded(&mut renamed, &untraced(ShardSchedule::Async));
        assert_eq!(renamed_run.0.stats, lockstep_run.0.stats);
        assert_eq!(renamed_run.1, lockstep_run.1);
        assert_eq!(
            renamed.into_global_graph().into_nodes(),
            lockstep.into_global_graph().into_nodes()
        );

        // One shard: everything stays local.
        let mut single = ShardedGraph::from_counted_kmers(&counted, 17, 1, 2);
        let (_, telemetry) = compact_sharded(&mut single, &cfg(2));
        assert_eq!(telemetry.total_cross_shard_bytes(), 0);
        assert_eq!(telemetry.cross_shard_fraction(), 0.0);
    }

    #[test]
    fn telemetry_totals_are_sums_over_the_flush_ledger() {
        let flush = |src_iteration, src, dst, transfers, bytes| MailboxFlushStats {
            src,
            dst,
            src_iteration,
            transfers,
            bytes,
        };
        let mut telemetry = ShardingTelemetry {
            shard_count: 3,
            initial_alive_per_shard: vec![10, 10, 10],
            final_alive_per_shard: vec![4, 4, 4],
            checked_per_shard: vec![30, 20, 10],
            flushes: Vec::new(),
        };
        assert_eq!(telemetry.total_transfers(), 0);
        assert_eq!(telemetry.total_mailbox_bytes(), 0);
        assert_eq!(telemetry.cross_shard_fraction(), 0.0);

        // Three iterations over three shards: a self lane (0 → 0, 1 → 1), a
        // lane that carried zero payload bytes (2 → 0), and cross lanes.
        telemetry.flushes = vec![
            flush(0, 0, 0, 4, 100),
            flush(0, 0, 1, 2, 60),
            flush(0, 2, 0, 1, 0),
            flush(1, 1, 1, 3, 90),
            flush(1, 1, 2, 5, 150),
            flush(2, 2, 0, 2, 40),
        ];
        // The zero-byte lane counts its transfer and adds no bytes.
        assert_eq!(telemetry.total_transfers(), 4 + 2 + 1 + 3 + 5 + 2);
        assert_eq!(telemetry.total_mailbox_bytes(), 100 + 60 + 90 + 150 + 40);
        assert_eq!(telemetry.total_cross_shard_bytes(), 60 + 150 + 40);
        assert_eq!(telemetry.cross_shard_fraction(), 250.0 / 440.0);
        assert_eq!(telemetry.load_imbalance(), 1.5);
    }

    #[test]
    fn more_shards_than_nodes_leaves_idle_shards_and_stays_bit_identical() {
        // A tiny read set: far fewer (k-1)-mers than shards, so some shards own
        // zero k-mers. The build must not panic and stays bit-identical.
        let reads = crate::test_util::reads_from(&["ACGTACCTGATCAGT", "ACGTACCTGATCAGT"]);
        let (counted, _) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 7,
                min_count: 1,
                threads: 1,
            },
        )
        .unwrap();
        let reference = PakGraph::from_counted_kmers(&counted, 7, 1);
        let sharded = ShardedGraph::from_counted_kmers(&counted, 7, 64, 2);
        assert!(sharded.per_shard_alive().contains(&0));
        assert_eq!(sharded.alive_count(), reference.alive_count());
        let mut sharded = sharded;
        let mut reference = reference;
        let config = PakmanConfig {
            k: 7,
            min_kmer_count: 1,
            compaction_node_threshold: 0,
            threads: 2,
            record_trace: true,
            ..PakmanConfig::default()
        };
        let single_outcome = compact(&mut reference, &config);
        let (outcome, telemetry) = compact_sharded(&mut sharded, &config);
        assert_eq!(outcome.stats, single_outcome.stats);
        assert_eq!(outcome.trace, single_outcome.trace);
        assert_eq!(telemetry.shard_count, 64);
    }

    #[test]
    fn global_lookup_roundtrips() {
        let counted = counted_for(15);
        let sharded = ShardedGraph::from_counted_kmers(&counted, 15, 7, 2);
        let graph = sharded.graph();
        for slot in 0..graph.slot_count() {
            let node = graph.node(slot).expect("freshly built: all alive");
            assert_eq!(graph.index_of(&node.k1mer()), Some(slot));
            assert_eq!(
                sharded.shard_of_global(slot),
                node.owner_shard(sharded.shard_count())
            );
        }
    }
}
