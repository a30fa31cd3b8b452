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
//!   one driver over that graph, booking into the owner ledger from the
//!   driver's own records: P1 work per owner shard, and every TransferNode on
//!   its (owner of source, owner of destination) lane, flushed **once per
//!   iteration**;
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

use crate::compaction::{compact_booked, CompactionOutcome};
use crate::config::PakmanConfig;
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::kmer_count::CountedKmer;
use crate::transfer::TransferNode;
use nmp_pak_genome::shard_of_packed;

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
        alive_per_shard(&self.graph, self.shard_count)
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
    let mut ledger = OwnerLedger::new(&sharded.graph, sharded.shard_count);
    let outcome = compact_booked(&mut sharded.graph, Some(&mut ledger), config, control)?;
    let mut telemetry = ledger.telemetry;
    telemetry.final_alive_per_shard = sharded.per_shard_alive();
    Ok((outcome, telemetry))
}

/// Alive MacroNodes of `graph` per owner shard of `shards`.
fn alive_per_shard(graph: &PakGraph, shards: usize) -> Vec<usize> {
    let mut alive = vec![0; shards];
    for slot in graph.alive_slot_iter() {
        alive[shard_of_packed(graph.slot_keys()[slot], shards)] += 1;
    }
    alive
}

/// What each owner shard would have done, booked by the compaction driver
/// from its own records — the software image of distributed PaKman's
/// `MPI_Alltoallv` and of the NMP hardware's cross-channel hop, kept as
/// counts: no node or transfer is held or moved. The owner of a slot is the
/// hash of its key.
#[derive(Debug)]
pub(crate) struct OwnerLedger {
    /// Number of shards, the side of the lane matrix.
    shards: usize,
    /// `(transfers, payload bytes)` booked shard→shard in the open iteration,
    /// flattened `src * shards + dst`; zeroed at every close, so the matrix is
    /// allocated once per run (§4.5's pre-allocation).
    lanes: Vec<(u64, u64)>,
    /// The run's telemetry, residency recorded at the start.
    pub(crate) telemetry: ShardingTelemetry,
}

impl OwnerLedger {
    /// The ledger of a run about to start on `graph` under `shards` owners:
    /// residency recorded, every count zero.
    pub(crate) fn new(graph: &PakGraph, shards: usize) -> OwnerLedger {
        OwnerLedger {
            shards,
            lanes: vec![(0, 0); shards * shards],
            telemetry: ShardingTelemetry {
                shard_count: shards,
                initial_alive_per_shard: alive_per_shard(graph, shards),
                final_alive_per_shard: Vec::new(),
                checked_per_shard: vec![0; shards],
                flushes: Vec::new(),
            },
        }
    }

    /// P1 evaluated the predicate on `slots`, whose keys are in `keys`.
    pub(crate) fn checked(&mut self, keys: &[u64], slots: &[usize]) {
        for &slot in slots {
            self.telemetry.checked_per_shard[shard_of_packed(keys[slot], self.shards)] += 1;
        }
    }

    /// Books `transfer`, sent by the node keyed `source_key`, on the lane from
    /// its owner to the owner of its destination — whether or not it then
    /// lands: it crossed the exchange before anyone could know.
    pub(crate) fn enter(&mut self, source_key: u64, transfer: &TransferNode) {
        let src = shard_of_packed(source_key, self.shards);
        let dst = shard_of_packed(transfer.destination.packed(), self.shards);
        let lane = &mut self.lanes[src * self.shards + dst];
        lane.0 += 1;
        lane.1 += transfer.size_bytes() as u64;
    }

    /// Closes `iteration`: one flush record per (src, dst) lane with traffic,
    /// in (iteration, src, dst) order by construction; every lane zeroed.
    pub(crate) fn close(&mut self, iteration: usize) {
        let shards = self.shards;
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let (transfers, bytes) = std::mem::take(lane);
            if transfers > 0 {
                self.telemetry.flushes.push(MailboxFlushStats {
                    src: i / shards,
                    dst: i % shards,
                    src_iteration: iteration,
                    transfers,
                    bytes,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::compact;
    use crate::config::ShardSchedule;
    use crate::kmer_count::{count_kmers, KmerCounterConfig};
    use crate::macronode::MacroNode;
    use crate::test_util::reads_for;
    use crate::walk::generate_contigs;
    use nmp_pak_genome::Kmer;

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
    fn a_destination_retired_beside_its_source_is_dropped_and_still_booked() {
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

    /// Per iteration of a full-scan chain over `graph` (one-iteration
    /// `compact` calls, `iterations` of them): how many of the transfers its
    /// targets send go to a destination that is itself a target, and their
    /// wire bytes.
    fn transfers_to_targets(
        mut graph: PakGraph,
        config: &PakmanConfig,
        iterations: usize,
    ) -> Vec<(usize, u64)> {
        use crate::compaction::is_invalidation_target;
        let one_step = PakmanConfig {
            max_compaction_iterations: 1,
            ..*config
        };
        let mut dropped = Vec::new();
        for _ in 0..iterations {
            let targets: Vec<usize> = graph
                .iter_alive()
                .filter(|(_, node)| is_invalidation_target(&graph, node))
                .map(|(slot, _)| slot)
                .collect();
            let (mut count, mut bytes) = (0usize, 0u64);
            for &slot in &targets {
                for transfer in TransferNode::extract_all(graph.node(slot).unwrap()) {
                    let dest = graph.index_of(&transfer.destination);
                    if targets
                        .binary_search(&dest.expect("P1 found it alive"))
                        .is_ok()
                    {
                        count += 1;
                        bytes += transfer.size_bytes() as u64;
                    }
                }
            }
            dropped.push((count, bytes));
            compact(&mut graph, &one_step);
        }
        dropped
    }

    #[test]
    fn check_counts_and_lane_totals_are_folds_over_the_trace() {
        // The ledger books nothing a trace cannot give back. Its per-shard
        // check counts are iteration 0's check list, then each iteration the
        // distinct destinations the previous one's transfers landed on (the
        // frontier), mapped to owners. Its transfers beyond the traced ones
        // are, iteration by iteration, exactly those sent to a destination
        // retired beside its source.
        let nodes = PakGraph::from_counted_kmers(&counted_for(17), 17, 1).into_nodes();
        let graph = crate::test_util::with_a_doomed_destination(nodes, 17);
        let iterations = compact(&mut graph.clone(), &cfg(1)).stats.iterations.len();
        let dropped = transfers_to_targets(graph.clone(), &cfg(1), iterations);
        assert_eq!(dropped[0].0, 1, "G's transfer to T");
        assert!(dropped[1..].iter().all(|&(count, _)| count == 0));

        for shards in [1, 2, 7, 8, 32] {
            for threads in [1, 4] {
                let what = format!("shards = {shards}, threads = {threads}");
                let mut sharded = ShardedGraph::new(graph.clone(), shards);
                let (outcome, telemetry) = compact_sharded(&mut sharded, &cfg(threads));
                let trace = outcome.trace.expect("traced");
                assert_eq!(trace.iterations.len(), iterations, "{what}");

                let mut checked = vec![0u64; shards];
                for (i, it) in trace.iterations.iter().enumerate() {
                    let mut frontier: Vec<u32> = match i {
                        0 => it.checks.iter().map(|check| check.slot).collect(),
                        _ => {
                            let landed = trace.iterations[i - 1].transfers.iter();
                            landed.map(|event| event.dest_slot).collect()
                        }
                    };
                    frontier.sort_unstable();
                    frontier.dedup();
                    let profiled = outcome.profile.iterations[i].checked_nodes;
                    assert_eq!(frontier.len(), profiled, "{what}, iteration {i}");
                    for slot in frontier {
                        checked[sharded.shard_of_global(slot as usize)] += 1;
                    }

                    let flushes = telemetry.flushes.iter().filter(|f| f.src_iteration == i);
                    let booked = flushes.fold((0, 0), |(n, b), f| (n + f.transfers, b + f.bytes));
                    let traced = it.transfers.iter().map(|event| u64::from(event.size_bytes));
                    let beyond = (
                        (booked.0 - it.transfers.len() as u64) as usize,
                        booked.1 - traced.sum::<u64>(),
                    );
                    assert_eq!(beyond, dropped[i], "{what}, iteration {i}");
                }
                assert_eq!(checked, telemetry.checked_per_shard, "{what}");
            }
        }
    }
}
