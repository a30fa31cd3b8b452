//! Sharded subgraph execution: the owner-computes decomposition of the
//! PaK-graph, mapped one shard per NMP channel.
//!
//! Distributed PaKman partitions MacroNodes across MPI ranks by hashing each
//! (k-1)-mer and compacts the per-rank subgraphs mostly independently, with
//! boundary traffic exchanged via `MPI_Alltoallv` once per iteration. NMP-PaK's
//! scalability claim rests on the same decomposition mapped onto channels: each
//! channel's local memory holds one subgraph, and only TransferNodes whose
//! destination lives on another channel cross the inter-DIMM network. This
//! module is that execution model in software:
//!
//! * [`ShardedGraph`] — one [`PakGraph`] per shard (nodes assigned by the
//!   stable ownership hash [`nmp_pak_genome::shard_of_packed`]) plus the global
//!   rank mapping that ties local slots back to the single-graph slot space, so
//!   traces and statistics stay expressed in global slots;
//! * [`ShardedGraph::from_counted_kmers`] — the single-graph build, then a
//!   split that moves every node to its owner shard: the only place the owner
//!   hash splits anything before compaction starts;
//! * [`compact_sharded`] — Iterative Compaction with P1/P2/P3 running
//!   per-shard and a batched, slot-ordered mailbox exchanged **once
//!   per iteration** for cross-shard TransferNodes. The lock-step schedule has
//!   no loop of its own: it is [`crate::compaction`]'s barriered driver over a
//!   store that routes every access to the owner shard (`Lockstep`, below);
//! * [`ShardingTelemetry`] — the measured per-shard load and inter-shard
//!   traffic the hardware models consume instead of assuming uniformity; its
//!   flush ledger is the one record of the exchange, and every traffic total
//!   is a sum over it.
//!
//! **Determinism contract.** Sharding changes *where* work executes, never
//! what it computes: contigs, statistics, and the recorded trace are
//! bit-identical to the single-graph path at every shard count and thread
//! count. The load-bearing facts are (1) ownership is a pure function of the
//! (k-1)-mer, (2) each node is the single build's node, moved whole to its
//! owner, (3) the mailbox is a stable partition of the canonical transfer
//! stream, so per-destination delivery order equals the serial order, and (4)
//! every reduction (histogram, counts) is order-free and every ordered
//! artifact (trace events, dirty set) is re-serialized from the canonical
//! global-slot order.
//!
//! **One schedule.** The paper's PEs exchange TransferNodes once per
//! iteration (§4.2), and this module runs exactly that barriered schedule.
//! [`crate::ShardSchedule`] selects nothing: both of its variants run it.

use crate::compaction::{apply_transfer, run_barriered, CompactionOutcome, NodeStore};
use crate::config::PakmanConfig;
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::kmer_count::CountedKmer;
use crate::macronode::MacroNode;
use crate::par::fork_join;
use crate::transfer::{PostedTransfer, ShardMailbox, TransferNode};
use nmp_pak_genome::{shard_of_packed, Kmer};

/// The PaK-graph split into owner-computes shards, with the global rank mapping
/// that keeps every externally visible artifact (traces, statistics, the
/// compacted output graph) in single-graph slot coordinates.
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    /// One subgraph per shard; local slots ascend in (k-1)-mer order.
    shards: Vec<PakGraph>,
    /// Packed (k-1)-mer of every global slot, ascending — identical to the
    /// single-graph slot layout.
    global_keys: Vec<u64>,
    /// Global slot → (owner shard, local slot).
    route: Vec<(u32, u32)>,
    /// Per shard: local slot → global slot (ascending, since local key order is
    /// a subsequence of the global key order).
    global_slots: Vec<Vec<u32>>,
    /// k-mer length the graph was built for.
    k: usize,
}

impl ShardedGraph {
    /// Builds the sharded graph from the sorted counted k-mer stream: the
    /// single-graph build ([`PakGraph::from_counted_kmers`], on up to `threads`
    /// chunks), then a split that moves every node to its owner shard.
    ///
    /// Every node is therefore bit-identical to the single build's, and the
    /// global slot layout is the single build's own. A shard count of 1 wraps
    /// the single graph as is ([`ShardedGraph::from_single`]).
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
        ShardedGraph::from_counted_kmers_sized(counted, k, shard_count, threads).0
    }

    /// [`ShardedGraph::from_counted_kmers`] plus the total MacroNode bytes of the
    /// nodes it built (see [`PakGraph::from_counted_kmers_sized`]).
    pub(crate) fn from_counted_kmers_sized(
        counted: &[CountedKmer],
        k: usize,
        shard_count: usize,
        threads: usize,
    ) -> (ShardedGraph, usize) {
        let (graph, size_bytes) = PakGraph::from_counted_kmers_sized(counted, k, threads);
        (ShardedGraph::split(graph, shard_count), size_bytes)
    }

    /// Wraps an already-built single graph as a one-shard sharded graph (the
    /// identity mapping). Used by the `shard_count == 1` fast path and the
    /// overhead benchmark, which runs the full sharded engine over one shard.
    pub fn from_single(graph: PakGraph) -> ShardedGraph {
        let n = graph.slot_count();
        let k = graph.k();
        debug_assert!(n <= u32::MAX as usize);
        ShardedGraph {
            global_keys: graph.slot_keys().to_vec(),
            route: (0..n as u32).map(|local| (0, local)).collect(),
            global_slots: vec![(0..n as u32).collect()],
            shards: vec![graph],
            k,
        }
    }

    /// Splits a built graph into `shard_count` owner shards: each slot moves
    /// to [`shard_of_packed`] of its key, in slot order, so every shard's local
    /// slots ascend and the global mapping is the graph's own slot layout.
    fn split(graph: PakGraph, shard_count: usize) -> ShardedGraph {
        let shard_count = shard_count.max(1);
        if shard_count == 1 {
            return ShardedGraph::from_single(graph);
        }
        let k = graph.k();
        let global_keys = graph.slot_keys().to_vec();
        debug_assert!(global_keys.len() <= u32::MAX as usize);
        let mut sizes = vec![0u32; shard_count];
        let route: Vec<(u32, u32)> = global_keys
            .iter()
            .map(|&key| {
                let shard = shard_of_packed(key, shard_count);
                sizes[shard] += 1;
                (shard as u32, sizes[shard] - 1)
            })
            .collect();
        // Sized by the routing pass above, so no per-shard vector reallocates.
        fn per_shard<T>(sizes: &[u32]) -> Vec<Vec<T>> {
            sizes
                .iter()
                .map(|&n| Vec::with_capacity(n as usize))
                .collect()
        }
        let mut keys: Vec<Vec<u64>> = per_shard(&sizes);
        let mut slots: Vec<Vec<Option<MacroNode>>> = per_shard(&sizes);
        let mut global_slots: Vec<Vec<u32>> = per_shard(&sizes);
        let moves = graph.into_slots().into_iter().zip(&global_keys).zip(&route);
        for (global, ((node, &key), &(shard, _))) in moves.enumerate() {
            let shard = shard as usize;
            keys[shard].push(key);
            slots[shard].push(node);
            global_slots[shard].push(global as u32);
        }
        let shards = keys
            .into_iter()
            .zip(slots)
            .map(|(keys, slots)| PakGraph::from_parts(keys, slots, k))
            .collect();
        ShardedGraph {
            shards,
            global_keys,
            route,
            global_slots,
            k,
        }
    }

    /// The k-mer length this graph was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The subgraph of shard `shard`.
    pub fn shard(&self, shard: usize) -> &PakGraph {
        &self.shards[shard]
    }

    /// Total number of global slots (alive + invalidated).
    pub fn global_slot_count(&self) -> usize {
        self.route.len()
    }

    /// `(owner shard, local slot)` of global slot `slot`. One shard is the
    /// identity mapping and skips the route table — with the matching branches
    /// in [`ShardedGraph::index_of_global`] and [`ShardedGraph::contains`] this
    /// keeps the sharded engine's single-shard overhead within the benchmark
    /// gate, and every accessor below keeps one call site into the shard graph.
    #[inline]
    fn locate(&self, slot: usize) -> (usize, usize) {
        if self.shards.len() == 1 {
            return (0, slot);
        }
        let (shard, local) = self.route[slot];
        (shard as usize, local as usize)
    }

    /// The owner shard of global slot `slot`.
    #[inline]
    pub fn shard_of_global(&self, slot: usize) -> usize {
        self.locate(slot).0
    }

    /// Total alive MacroNodes across all shards.
    pub fn alive_count(&self) -> usize {
        self.shards.iter().map(PakGraph::alive_count).sum()
    }

    /// Alive MacroNodes per shard — the per-channel residency the hardware
    /// model reads as measured (not assumed) load.
    pub fn per_shard_alive(&self) -> Vec<usize> {
        self.shards.iter().map(PakGraph::alive_count).collect()
    }

    /// The alive node at global slot `slot`, if any.
    #[inline]
    pub fn node_global(&self, slot: usize) -> Option<&MacroNode> {
        let (shard, local) = self.locate(slot);
        self.shards[shard].node(local)
    }

    /// `true` if global slot `slot` holds an alive node (its owner's alive bit).
    #[inline]
    pub(crate) fn is_alive_global(&self, slot: usize) -> bool {
        let (shard, local) = self.locate(slot);
        self.shards[shard].is_alive(local)
    }

    /// `true` if a node with this (k-1)-mer is alive — resolved on its owner
    /// shard, exactly as a PE would consult its channel's mapping table.
    #[inline]
    pub fn contains(&self, k1mer: &Kmer) -> bool {
        self.shards[shard_of_packed(k1mer.packed(), self.shards.len())].contains(k1mer)
    }

    /// The global slot of the alive node with this (k-1)-mer, if any.
    #[inline]
    pub fn index_of_global(&self, k1mer: &Kmer) -> Option<usize> {
        let shard = shard_of_packed(k1mer.packed(), self.shards.len());
        let local = self.shards[shard].index_of(k1mer)?;
        Some(if self.shards.len() == 1 {
            local
        } else {
            self.global_slots[shard][local] as usize
        })
    }

    /// Reassembles the single global graph (dead slots included), preserving
    /// the exact single-graph slot layout so downstream consumers — the walk,
    /// batch merging, the memory-trace layout — see an identical structure.
    pub fn into_global_graph(self) -> PakGraph {
        let ShardedGraph {
            shards,
            global_keys,
            route,
            k,
            ..
        } = self;
        let mut shard_slots: Vec<Vec<Option<MacroNode>>> =
            shards.into_iter().map(PakGraph::into_slots).collect();
        let mut slots = Vec::with_capacity(route.len());
        for &(shard, local) in &route {
            slots.push(shard_slots[shard as usize][local as usize].take());
        }
        PakGraph::from_parts(global_keys, slots, k)
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
/// telemetry the `nmphw` channel model and the PANDA cost model consume instead
/// of assuming uniform work and uniform traffic.
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

/// Runs Iterative Compaction over the sharded graph: P1/P2/P3 execute
/// per-shard, cross-shard TransferNodes travel through a batched slot-ordered
/// mailbox exchanged once per iteration, and the outcome — statistics,
/// trace, compacted nodes — is **bit-identical** to [`crate::compaction::compact`]
/// on the equivalent single graph, at every shard count and thread count. The
/// telemetry's flush ledger records the exchange, one record per lane that
/// carried a transfer in an iteration.
pub fn compact_sharded(
    sharded: &mut ShardedGraph,
    config: &PakmanConfig,
) -> (CompactionOutcome, ShardingTelemetry) {
    compact_sharded_controlled(sharded, config, &RunControl::default())
        .expect("the null control never cancels and a graph's slots fit the 32-bit census")
}

/// [`compact_sharded`] under a [`RunControl`]: the cancellation token is polled
/// at the top of every iteration (before the mailbox exchange, so no shard ever
/// sees a half-delivered iteration) and the observer gets one
/// `compaction_iteration` callback per iteration. Bit-identical to
/// [`compact_sharded`] under the default control.
///
/// # Errors
///
/// Returns [`PakmanError::Cancelled`] if the control's token fires between
/// iterations; the sharded graph is left mid-compaction and should be dropped.
/// Returns [`PakmanError::InvalidConfig`], with the graph untouched, if it has
/// more than `u32::MAX` global slots.
pub fn compact_sharded_controlled(
    sharded: &mut ShardedGraph,
    config: &PakmanConfig,
    control: &RunControl<'_>,
) -> Result<(CompactionOutcome, ShardingTelemetry), PakmanError> {
    let mut store = Lockstep::over(sharded);
    let outcome = run_barriered(&mut store, config, control)?;
    let mut telemetry = store.telemetry;
    telemetry.final_alive_per_shard = sharded.per_shard_alive();
    Ok((outcome, telemetry))
}

/// The lock-step [`NodeStore`]: the barriered driver's slots are global slots,
/// every access is routed to the owner shard — the identity mapping for one
/// shard, chosen by `locate` and `shard_of_packed` from the shard count — and
/// every delivery crosses the inter-shard mailbox, which books it; the
/// iteration's bookings enter the flush ledger when it closes.
struct Lockstep<'g> {
    sharded: &'g mut ShardedGraph,
    mailbox: ShardMailbox,
    telemetry: ShardingTelemetry,
    /// The open iteration.
    iteration: usize,
    /// Chunks its apply runs on, at most one a shard ([`apply_inboxes`] works by
    /// groups of shards): one applies on delivery, more post each transfer.
    chunks: usize,
}

impl<'g> Lockstep<'g> {
    fn over(sharded: &'g mut ShardedGraph) -> Lockstep<'g> {
        Lockstep {
            mailbox: ShardMailbox::new(sharded.shard_count()),
            telemetry: ShardingTelemetry::at_start(sharded),
            iteration: 0,
            chunks: 1,
            sharded,
        }
    }
}

impl NodeStore for Lockstep<'_> {
    const CHECKPOINT: &'static str = "sharded compaction";

    fn slot_count(&self) -> usize {
        self.sharded.global_slot_count()
    }
    fn is_alive(&self, slot: usize) -> bool {
        self.sharded.is_alive_global(slot)
    }
    fn node(&self, slot: usize) -> Option<&MacroNode> {
        self.sharded.node_global(slot)
    }
    fn index_of(&self, k1mer: &Kmer) -> Option<usize> {
        self.sharded.index_of_global(k1mer)
    }
    fn retire(&mut self, slot: usize) {
        let (shard, local) = self.sharded.locate(slot);
        self.sharded.shards[shard].retire(local);
    }
    fn take_retired(&mut self, slot: usize) -> MacroNode {
        let (shard, local) = self.sharded.locate(slot);
        self.sharded.shards[shard].take_retired(local)
    }
    fn checked(&mut self, slots: &[usize]) {
        for &slot in slots {
            self.telemetry.checked_per_shard[self.sharded.shard_of_global(slot)] += 1;
        }
    }
    fn prefetch(&self, slot: usize) {
        let (shard, local) = self.sharded.locate(slot);
        self.sharded.shards[shard].prefetch(local);
    }
    fn open(&mut self, iteration: usize, chunks: usize) {
        self.mailbox.clear();
        (self.iteration, self.chunks) = (iteration, chunks.min(self.sharded.shard_count()));
    }

    /// Books the transfer on its (src, dst) lane, then applies it in place —
    /// measured on 4 shards, 6–25 % the faster at one chunk — or moves it into
    /// its destination shard's inbox: posting in stream order is a stable
    /// partition of the canonical stream, so delivery stays slot-ordered.
    fn deliver(
        &mut self,
        source: usize,
        dest: Option<usize>,
        transfer: TransferNode,
    ) -> Option<bool> {
        let src = self.sharded.shard_of_global(source);
        let dst = shard_of_packed(transfer.destination.packed(), self.sharded.shard_count());
        self.mailbox.enter(src, dst, &transfer);
        let global = dest?;
        let (shard, local) = self.sharded.locate(global);
        debug_assert_eq!(shard, dst);
        if self.chunks > 1 {
            self.mailbox.post(dst, global, local, transfer);
            return None;
        }
        let node = self.sharded.shards[shard].node_mut(local);
        Some(apply_transfer(
            node.expect("destination is alive"),
            &transfer,
        ))
    }

    /// Enters the iteration's exchange in the flush ledger — one record per
    /// (src, dst) lane with traffic, already in (iteration, src, dst) order by
    /// construction — then has every destination shard apply its inbox
    /// ([`apply_inboxes`]) and settles the outcomes in delivery order.
    fn close(&mut self, settle: impl FnMut(usize, bool)) {
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
        if self.chunks > 1 {
            let mailbox = &mut self.mailbox;
            apply_inboxes(&mut self.sharded.shards, mailbox.inboxes_mut(), self.chunks);
            mailbox.settle(settle);
        }
    }
}

/// The forked stage P3: every destination shard applies its inbox, in inbox
/// (= canonical per-destination) order, marking each transfer's outcome —
/// contiguous groups of shards per chunk, the first group on the calling
/// thread. Measured on 4 shards: 28 % faster than in place at two chunks on a
/// 400 kbp graph (DESIGN.md).
fn apply_inboxes(shards: &mut [PakGraph], inboxes: &mut [Vec<PostedTransfer>], chunks: usize) {
    let per_chunk = shards.len().div_ceil(chunks);
    let groups = shards
        .chunks_mut(per_chunk)
        .zip(inboxes.chunks_mut(per_chunk));
    fork_join(groups, |(graphs, inboxes)| {
        for (graph, inbox) in graphs.iter_mut().zip(inboxes) {
            for posted in inbox {
                let node = graph.node_mut(posted.local_slot);
                posted.matched =
                    apply_transfer(node.expect("destination is alive"), &posted.transfer);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{compact, CompactionScratch};
    use crate::config::ShardSchedule;
    use crate::kmer_count::{count_kmers, KmerCounterConfig};
    use crate::par::{plan, GRAIN};
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
            assert_eq!(sharded.global_slot_count(), reference.slot_count());
            assert_eq!(sharded.alive_count(), reference.alive_count());
            // Ownership is respected and the global mapping inverts correctly.
            for shard in 0..sharded.shard_count() {
                for (_, node) in sharded.shard(shard).iter_alive() {
                    assert_eq!(node.owner_shard(shards), shard);
                }
            }
            // The stitched global graph equals the reference slot for slot.
            let global = sharded.into_global_graph();
            for slot in 0..reference.slot_count() {
                assert_eq!(global.node(slot), reference.node(slot), "shards = {shards}");
            }
        }
    }

    #[test]
    fn construction_and_lockstep_phases_agree_across_chunk_counts() {
        // 20 kbp at `min_count = 1` is two construction grains, so `threads = 4`
        // builds the graph on two chunks before the split; the lock-step phases
        // take the chunk count as an argument.
        let reads = reads_for(20_000, 15.0, 0x5A4E);
        let config = KmerCounterConfig {
            k: 17,
            min_count: 1,
            threads: 1,
        };
        let counted = count_kmers(&reads, config).unwrap().0;
        assert!(plan(counted.len(), 4, GRAIN) >= 2);
        let nodes_of = |graph: PakGraph| graph.into_slots();
        let sharded = ShardedGraph::from_counted_kmers(&counted, 17, 5, 1);
        let grouped = ShardedGraph::from_counted_kmers(&counted, 17, 5, 4);
        assert_eq!(sharded.global_keys, grouped.global_keys);
        assert_eq!(sharded.route, grouped.route);
        assert_eq!(
            nodes_of(sharded.clone().into_global_graph()),
            nodes_of(grouped.into_global_graph())
        );

        // One iteration by hand — P1, the streamed pass, the close — on one
        // chunk (every transfer applied in place on delivery) and on three (every
        // transfer posted, five inboxes applied in three groups).
        let iteration_on = |chunks: usize| {
            let mut routed = sharded.clone();
            let mut store = Lockstep::over(&mut routed);
            let mut scratch = CompactionScratch::new(&store).unwrap();
            scratch.recheck.extend(0..store.slot_count());
            scratch.check(&store, chunks);
            scratch.fold_census();
            let mut events = Vec::new();
            let delivered = scratch.stream(&mut store, 0, chunks, Some(&mut events));
            assert!(delivered > 1_000, "{delivered} transfers");
            assert_eq!(scratch.resolved.len(), delivered);
            // Posted transfers settle at the close, delivered ones on the spot.
            assert_eq!(scratch.touched_order.is_empty(), chunks > 1);
            store.close(|dest, matched| scratch.settle(dest, matched));
            assert!(!scratch.touched_order.is_empty());
            let ledger = store.telemetry;
            let nodes = nodes_of(routed.into_global_graph());
            let checks = (scratch.check_results, scratch.resolved, events);
            let outcomes = (scratch.unmatched, scratch.touched_order);
            (checks, outcomes, ledger, nodes)
        };
        let (serial, grouped) = (iteration_on(1), iteration_on(3));
        assert_eq!(serial.2.total_transfers(), serial.0 .1.len());
        assert!(serial.2.cross_shard_fraction() > 0.5);
        assert_eq!(serial, grouped);
    }

    /// Five nodes wired asymmetrically so that a destination dies in the very
    /// iteration that sends to it (the graph of `tests/graph_index.rs`): `GGGG`
    /// lists `TTTT` as its predecessor, `TTTT` does not list `GGGG` back, and
    /// both dominate every neighbour they do list (A < C < T < G). `CCCC` holds
    /// the extension `GGGG`'s transfer looks for; `AAAA` and `ACAC` hold none.
    fn asymmetric_nodes() -> Vec<MacroNode> {
        let dna = |text: &str| text.parse::<nmp_pak_genome::DnaString>().unwrap();
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
            |shards: usize| ShardedGraph::split(PakGraph::from_nodes(nodes.clone(), 5), shards);
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
                let update = UpdateEvent {
                    dest_slot: 2,
                    size_bytes: reference_graph.node(2).unwrap().size_bytes(),
                };
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
            renamed.into_global_graph().into_slots(),
            lockstep.into_global_graph().into_slots()
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
        for slot in 0..sharded.global_slot_count() {
            let node = sharded.node_global(slot).expect("freshly built: all alive");
            assert_eq!(sharded.index_of_global(&node.k1mer()), Some(slot));
            assert!(sharded.contains(&node.k1mer()));
            assert_eq!(
                sharded.shard_of_global(slot),
                node.owner_shard(sharded.shard_count())
            );
        }
    }
}
