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
//! **Determinism contract.** Under the default lock-step schedule, sharding
//! changes *where* work executes, never what it computes: contigs, statistics,
//! and the recorded trace are bit-identical to the single-graph path at every
//! shard count and thread count. The load-bearing facts are (1) ownership is a
//! pure function of the (k-1)-mer, (2) each node is the single build's node,
//! moved whole to its owner, (3) the mailbox is a stable partition of the
//! canonical transfer stream, so per-destination delivery order equals the
//! serial order, and (4) every
//! reduction (histogram, counts) is order-free and every ordered artifact
//! (trace events, dirty set) is re-serialized from the canonical global-slot
//! order.
//!
//! **Async schedule.** [`crate::ShardSchedule::Async`] drops the per-iteration
//! thread barrier: shards run as queued tasks over a persistent worker pool,
//! each advancing its own wave counter and flushing mailbox lanes
//! ([`MailboxFlushStats`]) to destination shards as soon as its P3 finishes,
//! with a bounded number of unconsumed flushes per (src, dst) lane and
//! slot-tagged transfers within each flush. Wave completion is counted
//! through a shared ledger rather than joined: the last shard to finish a
//! wave re-arms the others, detects the global fixed point (a wave with zero
//! invalidations), applies the node threshold against the global census, and
//! enforces the iteration cap — so an empty or quiescent shard costs O(1) per
//! wave instead of three phase joins. Because `apply_transfer` is
//! order-sensitive (partial-count takes and path splits do not commute), each
//! destination buffers inbound flushes and applies a wave's worth in one
//! stable pass ordered by global source slot — the canonical stream order the
//! lock-step mailbox delivers — and deaths are published as *versioned* wave
//! numbers so a concurrent predicate always reads its wave-start snapshot.
//! The result is the *verified-equivalent* contract (DESIGN.md): final
//! contigs, the compacted graph, statistics and the flush ledger are
//! byte-identical to lock-step, while scheduling telemetry (iteration stats,
//! the profile, per-round timing) may differ. The equivalence is enforced by
//! a test sweep across shard counts and thread counts.

use crate::compaction::{
    apply_transfer, is_invalidation_target_with, remove_sorted, run_barriered, transfer_count,
    CompactionOutcome, CompactionProfile, CompactionStats, NodeStore,
};
use crate::config::{PakmanConfig, ShardSchedule};
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::kmer_count::CountedKmer;
use crate::macronode::MacroNode;
use crate::memory::MemoryBudget;
use crate::par::fork_join;
use crate::transfer::{PostedTransfer, ShardMailbox, TransferNode};
use nmp_pak_genome::{shard_of_packed, Kmer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

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

/// One mailbox flush: a batch of TransferNodes from one source shard's local
/// iteration, delivered to one destination shard.
///
/// Under the async schedule each record is an *actual* flush (published as
/// soon as the source's P3 finished that local iteration); under lock-step the
/// barriered exchange is decomposed into one record per (iteration, src, dst)
/// lane with traffic. The two ledgers are identical record for record, and
/// every traffic figure — [`ShardingTelemetry`]'s totals, the channel model's
/// intra/cross-channel split, the network model's per-flush charges — is a sum
/// over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxFlushStats {
    /// Source shard.
    pub src: usize,
    /// Destination shard (equal to `src` for shard-local deliveries).
    pub dst: usize,
    /// The source shard's local iteration that produced this flush.
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
    /// Wall nanoseconds of each completed local round, per shard — recorded by
    /// the async engine only (empty vectors under lock-step, whose telemetry
    /// stays deterministic and comparable across thread counts).
    pub round_nanos: Vec<Vec<u64>>,
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
            round_nanos: Vec::new(),
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

    /// The barriered critical path implied by the measured per-shard round
    /// times: with a lock-step barrier every round costs as much as its
    /// slowest shard (`Σ_r max_s t[s][r]`). Zero when round times were not
    /// recorded (lock-step runs do not measure them).
    pub fn lockstep_critical_path_nanos(&self) -> u64 {
        let rounds = self.round_nanos.iter().map(Vec::len).max().unwrap_or(0);
        (0..rounds)
            .map(|round| {
                self.round_nanos
                    .iter()
                    .filter_map(|shard| shard.get(round).copied())
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    }

    /// The asynchronous critical path over the same measured rounds: without
    /// the barrier no shard waits for a straggler, so the critical path is the
    /// busiest shard's total work (`max_s Σ_r t[s][r]`). By construction this
    /// never exceeds [`ShardingTelemetry::lockstep_critical_path_nanos`].
    pub fn async_critical_path_nanos(&self) -> u64 {
        self.round_nanos
            .iter()
            .map(|shard| shard.iter().sum())
            .max()
            .unwrap_or(0)
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
        .expect("an uncancelled run fails only on a broken schedule invariant")
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
/// iterations, and — under [`ShardSchedule::Async`] only —
/// [`PakmanError::ScheduleInvariant`] if the schedule broke one of its own
/// invariants; either way the sharded graph is left mid-compaction and should
/// be dropped.
pub fn compact_sharded_controlled(
    sharded: &mut ShardedGraph,
    config: &PakmanConfig,
    control: &RunControl<'_>,
) -> Result<(CompactionOutcome, ShardingTelemetry), PakmanError> {
    // The async engine takes over for multi-shard runs on the async schedule.
    // Trace recording forces lock-step: the trace format is defined in global
    // barrier iterations, which the async engine does not have.
    if config.shard_schedule == ShardSchedule::Async
        && sharded.shard_count() > 1
        && !config.record_trace
    {
        return compact_sharded_async(sharded, config, control);
    }
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
    /// (src, dst) lane with traffic, so lock-step and async expose the same
    /// ledger (already in (iteration, src, dst) order by construction) — then
    /// has every destination shard apply its inbox ([`apply_inboxes`]) and
    /// settles the outcomes in delivery order.
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

// ---------------------------------------------------------------------------
// The asynchronously scheduled engine ([`ShardSchedule::Async`]).
// ---------------------------------------------------------------------------

/// Maximum unconsumed flushes one (src, dst) lane may hold before the sender
/// backs off — the bounded in-flight window that keeps a fast shard from
/// flooding a straggler's inbox. Later flushes on a blocked lane wait behind
/// it (per-lane FIFO), while flushes to other destinations proceed.
const ASYNC_LANE_DEPTH: usize = 4;

/// One eagerly delivered mailbox flush between two shards.
struct AsyncFlush {
    src: usize,
    dst: usize,
    /// The global wave the sender extracted this flush in; the receiver folds
    /// it into the canonical apply stream at the start of wave
    /// `src_iteration + 1`.
    src_iteration: usize,
    /// `(global source slot, transfer)`, ascending by source slot — the
    /// sender extracts in ascending slot order, so a stable sort over all of a
    /// wave's flushes reconstructs the canonical global stream exactly.
    transfers: Vec<(u32, TransferNode)>,
    bytes: u64,
}

/// Mutable per-shard compaction state. The run queue admits each shard at most
/// once, so the mutex is held by at most one worker at a time.
struct AsyncShardState<'g> {
    graph: &'g mut PakGraph,
    /// Local slot → global slot.
    globals: &'g [u32],
    /// The next wave this shard executes (== waves completed so far).
    wave: usize,
    /// This shard executed a wave whose completion it has not reported yet
    /// (outbound flushes are still back-pressured on a full lane).
    completion_pending: bool,
    /// Invalidations of the yet-unreported wave, fed into the global
    /// fixed-point check on completion.
    unreported_deaths: usize,
    /// Alive local slots, ascending.
    alive_list: Vec<u32>,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Drained-but-unapplied inbound flushes, wave-tagged. Also carries this
    /// shard's own self-lane flushes (never deposited, never charged).
    inbuf: Vec<AsyncFlush>,
    /// Outbound flushes not yet deposited (back-pressured lanes retry here;
    /// FIFO order per lane is preserved).
    pending_out: VecDeque<AsyncFlush>,
    /// Wall nanoseconds of each executed wave (one entry per wave).
    round_nanos: Vec<u64>,
    checked: u64,
    flushes: Vec<MailboxFlushStats>,
}

/// The shard run queue plus the wave ledger. A shard is `active` from enqueue
/// until its round finishes, so duplicate enqueues collapse; the wave fields
/// implement the decentralized completion count that replaced the thread
/// barrier.
struct AsyncQueue {
    runnable: VecDeque<usize>,
    active: Vec<bool>,
    running: usize,
    done: bool,
    /// Shards that have not yet completed the current wave.
    wave_remaining: usize,
    /// Invalidations reported for the current wave so far.
    wave_deaths: usize,
    /// The current wave is the apply-only epilogue after a threshold or
    /// iteration-cap stop (lock-step applies its last mailbox before exiting,
    /// so the async engine must land those flushes too).
    finishing: bool,
    converged: bool,
}

/// Everything the async workers share.
struct AsyncEngine<'g> {
    states: Vec<Mutex<AsyncShardState<'g>>>,
    inboxes: Vec<Mutex<Vec<AsyncFlush>>>,
    /// Versioned global-slot aliveness — the concurrent analogue of
    /// [`ShardedGraph::contains`]. The stored value is `death wave + 1`
    /// (`usize::MAX` = never died, `0` = never alive), so a wave-`r` predicate
    /// reads its wave-start snapshot as `value > r`: a death published by a
    /// concurrent wave-`r` peer is still alive for wave-`r` checks, exactly as
    /// under the barrier, and dead from wave `r + 1` on.
    death_wave: Vec<AtomicUsize>,
    /// Packed (k-1)-mer of every global slot, ascending.
    global_keys: &'g [u64],
    alive: AtomicUsize,
    /// Mirror of the queue's current wave, readable without the queue lock.
    global_wave: AtomicUsize,
    /// Mirror of [`AsyncQueue::finishing`].
    finishing: AtomicBool,
    queue: Mutex<AsyncQueue>,
    queue_cv: Condvar,
    failure: Mutex<Option<PakmanError>>,
    shard_count: usize,
    threshold: usize,
    max_iterations: usize,
}

impl AsyncEngine<'_> {
    /// Records `err` as the run's failure unless one is recorded already, and
    /// shuts the pool down: `done` is set and every parked worker is woken. The
    /// post-run drain then releases every in-flight flush, so a violated
    /// scheduling invariant leaves the ledger at zero exactly as a cancellation
    /// does.
    fn fail(&self, err: PakmanError) {
        let mut failure = self.failure.lock().expect("failure slot poisoned");
        failure.get_or_insert(err);
        drop(failure);
        self.queue.lock().expect("queue poisoned").done = true;
        self.queue_cv.notify_all();
    }
}

/// [`compact_sharded_controlled`] without the thread barrier: a worker pool of
/// `min(threads, shards)` drains a run queue of shards, each pop running one
/// *local* round (drain inbox → apply the previous wave's canonical stream →
/// P1 over the local frontier → P2 extraction → publish deaths → P3 route,
/// with remote lanes flushed eagerly and shard-local lanes folded back into
/// the same canonical stream). Wave completion is counted, not joined: the
/// last shard to finish a wave re-arms every shard for the next one, detects
/// the global fixed point, applies the node threshold against the global
/// census, and enforces the iteration cap — so the run is bit-identical to
/// lock-step in everything but scheduling telemetry (per-shard `round_nanos`
/// are recorded; per-iteration stats, the profile and the trace are not).
fn compact_sharded_async(
    sharded: &mut ShardedGraph,
    config: &PakmanConfig,
    control: &RunControl<'_>,
) -> Result<(CompactionOutcome, ShardingTelemetry), PakmanError> {
    let shard_count = sharded.shard_count();
    let slot_count = sharded.global_slot_count();
    let initial_nodes = sharded.alive_count();

    let mut stats = CompactionStats {
        initial_nodes,
        final_nodes: initial_nodes,
        ..CompactionStats::default()
    };
    let mut telemetry = ShardingTelemetry::at_start(sharded);
    telemetry.round_nanos = vec![Vec::new(); shard_count];

    control.check("async sharded compaction")?;
    control.compaction_iteration(0, initial_nodes);
    if initial_nodes <= config.compaction_node_threshold {
        stats.converged = true;
        telemetry.final_alive_per_shard = sharded.per_shard_alive();
        return Ok((
            CompactionOutcome {
                stats,
                trace: None,
                profile: CompactionProfile::default(),
            },
            telemetry,
        ));
    }

    // In-flight flush payloads are charged to this ledger on deposit and
    // released when applied (or by the post-run drain), so a cancelled run
    // always leaves the ledger at zero.
    let ledger = control.adopt(MemoryBudget::unbounded());

    let death_wave: Vec<AtomicUsize> = (0..slot_count)
        .map(|slot| {
            AtomicUsize::new(if sharded.is_alive_global(slot) {
                usize::MAX
            } else {
                0
            })
        })
        .collect();
    let workers = config.threads.max(1).min(shard_count);

    let ShardedGraph {
        shards,
        global_keys,
        global_slots,
        ..
    } = sharded;
    let global_keys: &[u64] = global_keys;

    let states: Vec<Mutex<AsyncShardState<'_>>> = shards
        .iter_mut()
        .zip(global_slots.iter())
        .map(|(graph, globals)| {
            let alive_list: Vec<u32> = graph.alive_slot_iter().map(|slot| slot as u32).collect();
            let slots = graph.slot_count();
            Mutex::new(AsyncShardState {
                graph,
                globals,
                wave: 0,
                completion_pending: false,
                unreported_deaths: 0,
                alive_list,
                dirty: vec![false; slots],
                dirty_list: Vec::new(),
                inbuf: Vec::new(),
                pending_out: VecDeque::new(),
                round_nanos: Vec::new(),
                checked: 0,
                flushes: Vec::new(),
            })
        })
        .collect();

    let engine = AsyncEngine {
        states,
        inboxes: (0..shard_count).map(|_| Mutex::new(Vec::new())).collect(),
        death_wave,
        global_keys,
        alive: AtomicUsize::new(initial_nodes),
        global_wave: AtomicUsize::new(0),
        finishing: AtomicBool::new(false),
        queue: Mutex::new(AsyncQueue {
            runnable: (0..shard_count).collect(),
            active: vec![true; shard_count],
            running: 0,
            done: false,
            wave_remaining: shard_count,
            wave_deaths: 0,
            finishing: false,
            converged: false,
        }),
        queue_cv: Condvar::new(),
        failure: Mutex::new(None),
        shard_count,
        threshold: config.compaction_node_threshold,
        max_iterations: config.max_compaction_iterations,
    };

    if workers <= 1 {
        // Single-worker runs stay on the caller thread: the queue drains FIFO,
        // so scheduling is fully deterministic.
        async_worker(&engine, control, &ledger);
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let engine = &engine;
                let ledger = &ledger;
                scope.spawn(move || async_worker(engine, control, ledger));
            }
        });
    }

    // A run that ended on its own has applied every flush it buffered; one left
    // over would be dropped below, so it fails the run (a cancelled run keeps
    // its own failure).
    let states = engine.states.iter();
    let unapplied: usize = states
        .map(|state| state.lock().expect("shard state poisoned").inbuf.len())
        .sum();
    if unapplied > 0 {
        engine.fail(PakmanError::ScheduleInvariant {
            message: format!("async run ended with {unapplied} buffered flush(es) unapplied"),
        });
    }

    let AsyncEngine {
        states,
        inboxes,
        queue,
        failure,
        ..
    } = engine;

    // Drain whatever is still parked: a flush is charged from deposit until it
    // is applied, so release everything sitting in an inbox or a drained-but-
    // unapplied buffer (a cancelled run must leave the ledger at zero; a
    // converged run has applied everything and this is a no-op).
    for inbox in &inboxes {
        let mut inbox = inbox.lock().expect("inbox poisoned");
        for flush in inbox.drain(..) {
            ledger.release(flush.bytes);
        }
    }
    if let Some(err) = failure.lock().expect("failure slot poisoned").take() {
        for (shard, state) in states.iter().enumerate() {
            let state = state.lock().expect("shard state poisoned");
            for flush in &state.inbuf {
                if flush.src != shard {
                    ledger.release(flush.bytes);
                }
            }
        }
        return Err(err);
    }

    let mut final_nodes = 0usize;
    for (src, state) in states.into_iter().enumerate() {
        let state = state.into_inner().expect("shard state poisoned");
        telemetry.checked_per_shard[src] = state.checked;
        telemetry.flushes.extend(state.flushes);
        telemetry.round_nanos[src] = state.round_nanos;
        let alive = state.graph.alive_count();
        final_nodes += alive;
        telemetry.final_alive_per_shard.push(alive);
    }
    // Waves are global iterations, so this reproduces the lock-step flush
    // ledger exactly — same tags, same lanes, same order.
    telemetry
        .flushes
        .sort_by_key(|f| (f.src_iteration, f.src, f.dst));
    stats.total_transfers = telemetry.total_transfers();
    stats.final_nodes = final_nodes;
    stats.converged = queue.into_inner().expect("queue poisoned").converged
        || final_nodes <= config.compaction_node_threshold;
    Ok((
        CompactionOutcome {
            stats,
            trace: None,
            profile: CompactionProfile::default(),
        },
        telemetry,
    ))
}

/// Worker main loop: pop a runnable shard, run one round, decide whether the
/// shard needs to run again. On error the first failure is recorded and the
/// whole pool shuts down.
fn async_worker(engine: &AsyncEngine<'_>, control: &RunControl<'_>, ledger: &MemoryBudget) {
    while let Some(shard) = async_pop(engine) {
        match async_round(engine, shard, control, ledger) {
            Ok(progress) => {
                async_finish(engine, shard);
                if !progress {
                    // Pure retry round (e.g. a back-pressured lane): let the
                    // destination's worker run before spinning again.
                    std::thread::yield_now();
                }
            }
            Err(err) => {
                engine.fail(err);
                engine.queue.lock().expect("queue poisoned").running -= 1;
                break;
            }
        }
    }
}

/// Pops the next runnable shard, blocking while work may still appear.
/// Returns `None` once the run is done. Every wave completion either refills
/// the queue or sets `done`, and a blocked sender re-enqueues itself, so an
/// idle pool over an empty queue that is not `done` is a broken invariant: the
/// run fails with [`PakmanError::ScheduleInvariant`].
fn async_pop(engine: &AsyncEngine<'_>) -> Option<usize> {
    let mut queue = engine.queue.lock().expect("queue poisoned");
    loop {
        if queue.done {
            return None;
        }
        if let Some(shard) = queue.runnable.pop_front() {
            queue.running += 1;
            return Some(shard);
        }
        if queue.running == 0 {
            // Nothing queued, nothing running, not done: no completion is left
            // to refill the queue. Fail the run rather than hand back a
            // half-compacted graph as `Ok` (the guard goes first: `fail` takes it).
            let message = format!(
                "async run queue stalled in wave {}: {} of {} shards still owe it, \
                 none is queued or running",
                engine.global_wave.load(Ordering::Acquire),
                queue.wave_remaining,
                engine.shard_count
            );
            drop(queue);
            engine.fail(PakmanError::ScheduleInvariant { message });
            return None;
        }
        queue = engine.queue_cv.wait(queue).expect("queue poisoned");
    }
}

/// Enqueues `shard` unless it is already queued or running.
fn async_enqueue(engine: &AsyncEngine<'_>, shard: usize) {
    let mut queue = engine.queue.lock().expect("queue poisoned");
    if queue.done || queue.active[shard] {
        return;
    }
    queue.active[shard] = true;
    queue.runnable.push_back(shard);
    drop(queue);
    engine.queue_cv.notify_one();
}

/// Finishes a round: clears the shard's active marker *first*, then re-checks
/// for pending work. A deposit or wave advance racing with the end of the
/// round either saw the marker still set (and this re-check sees its work) or
/// re-enqueues the shard itself — no lost wakeups either way.
fn async_finish(engine: &AsyncEngine<'_>, shard: usize) {
    engine.queue.lock().expect("queue poisoned").active[shard] = false;
    if async_needs_rerun(engine, shard) {
        async_enqueue(engine, shard);
    }
    // Stay counted in `running` until the re-enqueue decision is made: an
    // idle peer seeing `running == 0` over an empty queue in that window
    // would declare a stall. Then wake idle workers — possibly the last
    // actor — so the pool can notice `done` (or a stall) in `async_pop`.
    engine.queue.lock().expect("queue poisoned").running -= 1;
    engine.queue_cv.notify_all();
}

/// Whether `shard` has pending work: it still owes the current wave, holds
/// undeposited outbound flushes or an unreported completion, or has arrivals
/// to drain.
fn async_needs_rerun(engine: &AsyncEngine<'_>, shard: usize) -> bool {
    {
        let state = engine.states[shard].lock().expect("shard state poisoned");
        if !state.pending_out.is_empty() || state.completion_pending {
            return true;
        }
        if state.wave <= engine.global_wave.load(Ordering::Acquire) {
            return true;
        }
    }
    !engine.inboxes[shard]
        .lock()
        .expect("inbox poisoned")
        .is_empty()
}

/// Reports one shard's completion of the current wave; the last reporter
/// decides what comes next: a wave with zero invalidations is the global
/// fixed point, a census at or below the node threshold stops exactly where
/// lock-step's start-of-iteration gate would (after one apply-only finishing
/// wave lands the outstanding flushes), the iteration cap stops unconverged
/// (same finishing wave), and otherwise every shard is re-armed for the next
/// wave.
fn async_complete_wave(engine: &AsyncEngine<'_>, control: &RunControl<'_>, deaths: usize) {
    let mut queue = engine.queue.lock().expect("queue poisoned");
    queue.wave_deaths += deaths;
    queue.wave_remaining -= 1;
    if queue.wave_remaining > 0 {
        return;
    }
    let next = engine.global_wave.load(Ordering::Acquire) + 1;
    let alive = engine.alive.load(Ordering::Acquire);
    let mut callback = false;
    if queue.finishing || queue.wave_deaths == 0 {
        // The epilogue finished, or the wave was the fixed point (in which
        // case nothing is in flight and no epilogue is needed).
        queue.converged |= !queue.finishing;
        queue.done = true;
    } else {
        let cap = next >= engine.max_iterations;
        let threshold = alive <= engine.threshold;
        if cap || threshold {
            // Lock-step applies the mailbox of its last iteration before
            // leaving the loop; run one apply-only wave to match. The capped
            // exit issues no further iteration callback (the loop bound was
            // hit); the threshold exit issues one, then breaks at the gate.
            queue.finishing = true;
            queue.converged = threshold && !cap;
            engine.finishing.store(true, Ordering::Release);
            callback = threshold && !cap;
        } else {
            callback = true;
        }
        queue.wave_remaining = engine.shard_count;
        queue.wave_deaths = 0;
        engine.global_wave.store(next, Ordering::Release);
        for shard in 0..engine.shard_count {
            if !queue.active[shard] {
                queue.active[shard] = true;
                queue.runnable.push_back(shard);
            }
        }
    }
    drop(queue);
    engine.queue_cv.notify_all();
    if callback {
        control.compaction_iteration(next, alive);
    }
}

/// Applies one arrived TransferNode against the owner shard, marking the
/// destination dirty for the next wave's frontier. A destination that died in
/// an earlier wave is dropped — the same outcome as a lock-step unmatched
/// transfer.
fn apply_async_transfer(state: &mut AsyncShardState<'_>, transfer: &TransferNode) {
    let Some(local) = state.graph.index_of(&transfer.destination) else {
        return;
    };
    let node = state.graph.node_mut(local).expect("destination is alive");
    apply_transfer(node, transfer);
    if !state.dirty[local] {
        state.dirty[local] = true;
        state.dirty_list.push(local as u32);
    }
}

/// One scheduled round of `shard`: drain the inbox, execute the current wave
/// if this shard still owes it, deposit outbound flushes eagerly, and report
/// wave completion once every outbound lane has drained. Returns whether the
/// round made progress (executed a wave or deposited a flush).
fn async_round(
    engine: &AsyncEngine<'_>,
    shard: usize,
    control: &RunControl<'_>,
    ledger: &MemoryBudget,
) -> Result<bool, PakmanError> {
    control.check("async sharded compaction")?;
    let round_start = Instant::now();
    let mut state = engine.states[shard].lock().expect("shard state poisoned");
    let state = &mut *state;

    // Read the wave *before* draining: every flush tagged below it was
    // deposited before it was published, so the drain below cannot miss one.
    let wave = engine.global_wave.load(Ordering::Acquire);

    // ---- Drain: move arrivals out of the inbox immediately, freeing their
    // lanes, even when they cannot be applied yet — application waits for the
    // canonical wave boundary below. ----
    {
        let mut inbox = engine.inboxes[shard].lock().expect("inbox poisoned");
        state.inbuf.append(&mut inbox);
    }

    let mut executed = false;
    if state.wave <= wave && !state.completion_pending {
        let r = state.wave;

        // ---- Apply everything tagged wave `r - 1` — remote lanes and the
        // self lane — in one stable pass ordered by global source slot: the
        // exact order the lock-step mailbox applies its inbox in, so the
        // order-sensitive partial-count takes and path splits inside
        // [`apply_transfer`] land identically. ----
        if r > 0 {
            // A flush older than wave `r - 1` missed its wave's canonical pass;
            // applying it now would land it out of order. Checked before the
            // drain, so it stays in `inbuf` for the post-run release.
            if let Some(late) = state.inbuf.iter().find(|f| f.src_iteration + 1 < r) {
                let (from, tag) = (late.src, late.src_iteration);
                return Err(PakmanError::ScheduleInvariant {
                    message: format!(
                        "shard {shard} starts wave {r} holding shard {from}'s flush of wave {tag}"
                    ),
                });
            }
            let mut due: Vec<AsyncFlush> = Vec::new();
            let mut held: Vec<AsyncFlush> = Vec::new();
            for flush in state.inbuf.drain(..) {
                if flush.src_iteration < r {
                    due.push(flush);
                } else {
                    held.push(flush);
                }
            }
            state.inbuf = held;
            let mut stream: Vec<&(u32, TransferNode)> =
                due.iter().flat_map(|f| f.transfers.iter()).collect();
            // Stable by source slot: one slot's transfers live in one flush,
            // so their relative (path) order survives the sort.
            stream.sort_by_key(|entry| entry.0);
            for (_, transfer) in stream {
                apply_async_transfer(state, transfer);
            }
            for flush in &due {
                if flush.src != shard {
                    ledger.release(flush.bytes);
                }
            }
        }

        if engine.finishing.load(Ordering::Acquire) {
            // Apply-only epilogue: the stop decision is already made, this
            // wave only lands the last iteration's flushes.
            for &slot in &state.dirty_list {
                state.dirty[slot as usize] = false;
            }
            state.dirty_list.clear();
        } else {
            // ---- P1 over the wave's frontier: wave 0 scans every alive
            // slot, later waves recheck only slots whose neighbourhood changed
            // in the previous wave. Neighbour aliveness reads the wave-`r`
            // snapshot. ----
            let mut recheck: Vec<u32> = Vec::new();
            if r == 0 {
                recheck.extend(state.alive_list.iter().copied());
            } else {
                state.dirty_list.sort_unstable();
                recheck.extend(state.dirty_list.iter().copied());
            }
            for &slot in &state.dirty_list {
                state.dirty[slot as usize] = false;
            }
            state.dirty_list.clear();
            state.checked += recheck.len() as u64;

            let mut invalidated: Vec<usize> = Vec::new();
            for &local in &recheck {
                let Some(node) = state.graph.node(local as usize) else {
                    continue;
                };
                let lookup = |k1mer: &Kmer| {
                    let slot = engine.global_keys.binary_search(&k1mer.packed()).ok()?;
                    (engine.death_wave[slot].load(Ordering::Acquire) > r).then_some(())
                };
                if is_invalidation_target_with(lookup, node, |()| {}) {
                    invalidated.push(local as usize);
                }
            }

            // ---- P2: extract the canonical (ascending local slot, path
            // order) stream, tagging each transfer with its global source
            // slot, then publish the deaths as wave-`r` deaths: concurrent
            // wave-`r` predicates still see the wave-start snapshot, wave
            // `r + 1` sees them dead. ----
            let mut outbound: Vec<(u32, TransferNode)> = Vec::with_capacity(transfer_count(
                invalidated.iter().map(|&local| state.graph.node(local)),
            ));
            for &local in &invalidated {
                let node = state.graph.node(local).expect("invalidated slot was alive");
                let global = state.globals[local];
                for path in node.paths() {
                    if let Some((pred, succ)) = TransferNode::extract_pair(node, path) {
                        outbound.push((global, pred));
                        outbound.push((global, succ));
                    }
                }
            }
            for &local in &invalidated {
                engine.death_wave[state.globals[local] as usize].store(r + 1, Ordering::Release);
                state.graph.invalidate(local);
            }
            if !invalidated.is_empty() {
                engine.alive.fetch_sub(invalidated.len(), Ordering::AcqRel);
                remove_sorted(&mut state.alive_list, &invalidated);
            }

            // ---- P3: stable partition by destination owner. The self lane
            // goes straight into this shard's wave-tagged buffer (applied at
            // the next wave boundary with everything else); remote lanes
            // queue for eager deposit below. ----
            if !outbound.is_empty() {
                let mut batches: Vec<Vec<(u32, TransferNode)>> =
                    vec![Vec::new(); engine.shard_count];
                for (slot, transfer) in outbound {
                    let dst = shard_of_packed(transfer.destination.packed(), engine.shard_count);
                    batches[dst].push((slot, transfer));
                }
                for (dst, batch) in batches.into_iter().enumerate() {
                    if batch.is_empty() {
                        continue;
                    }
                    let bytes: u64 = batch.iter().map(|(_, t)| t.size_bytes() as u64).sum();
                    state.flushes.push(MailboxFlushStats {
                        src: shard,
                        dst,
                        src_iteration: r,
                        transfers: batch.len() as u64,
                        bytes,
                    });
                    let flush = AsyncFlush {
                        src: shard,
                        dst,
                        src_iteration: r,
                        transfers: batch,
                        bytes,
                    };
                    if dst == shard {
                        state.inbuf.push(flush);
                    } else {
                        state.pending_out.push_back(flush);
                    }
                }
            }
            state.unreported_deaths = invalidated.len();
        }

        state.wave = r + 1;
        state.completion_pending = true;
        executed = true;
    }

    // ---- Flush delivery: deposit pending lanes eagerly, with per-lane
    // back-pressure ([`ASYNC_LANE_DEPTH`]) and a cancellation point between
    // flushes. Blocked lanes keep FIFO order; other lanes proceed. ----
    let mut blocked = vec![false; engine.shard_count];
    let mut retained: VecDeque<AsyncFlush> = VecDeque::new();
    let mut deposited: Vec<usize> = Vec::new();
    while let Some(flush) = state.pending_out.pop_front() {
        if blocked[flush.dst] {
            retained.push_back(flush);
            continue;
        }
        if let Err(err) = control.check("async mailbox flush") {
            retained.push_back(flush);
            retained.append(&mut state.pending_out);
            state.pending_out = retained;
            return Err(err);
        }
        let mut inbox = engine.inboxes[flush.dst].lock().expect("inbox poisoned");
        let lane_depth = inbox.iter().filter(|f| f.src == shard).count();
        if lane_depth >= ASYNC_LANE_DEPTH {
            blocked[flush.dst] = true;
            drop(inbox);
            retained.push_back(flush);
            continue;
        }
        ledger.charge(flush.bytes);
        let dst = flush.dst;
        inbox.push(flush);
        drop(inbox);
        deposited.push(dst);
    }
    state.pending_out = retained;
    for dst in &deposited {
        async_enqueue(engine, *dst);
    }

    if executed {
        state
            .round_nanos
            .push(round_start.elapsed().as_nanos() as u64);
    }
    if state.completion_pending && state.pending_out.is_empty() {
        state.completion_pending = false;
        let deaths = std::mem::take(&mut state.unreported_deaths);
        async_complete_wave(engine, control, deaths);
    }
    Ok(executed || !deposited.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{compact, CompactionScratch};
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
            round_nanos: Vec::new(),
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
    fn a_stalled_async_queue_fails_the_run_and_unparks_every_waiter() {
        // A hand-built engine over no shards whose one wave is still owed while
        // nothing is queued: the state no completion can get the run out of.
        let engine = AsyncEngine {
            states: Vec::new(),
            inboxes: Vec::new(),
            death_wave: Vec::new(),
            global_keys: &[],
            alive: AtomicUsize::new(0),
            global_wave: AtomicUsize::new(3),
            finishing: AtomicBool::new(false),
            queue: Mutex::new(AsyncQueue {
                runnable: VecDeque::new(),
                active: Vec::new(),
                // As if this thread were mid-round, so the waiter parks.
                running: 1,
                done: false,
                wave_remaining: 2,
                wave_deaths: 0,
                finishing: false,
                converged: false,
            }),
            queue_cv: Condvar::new(),
            failure: Mutex::new(None),
            shard_count: 2,
            threshold: 0,
            max_iterations: 10,
        };
        std::thread::scope(|scope| {
            let (about_to_wait, waiting) = std::sync::mpsc::channel();
            let engine = &engine;
            let waiter = scope.spawn(move || {
                about_to_wait.send(()).expect("the test thread listens");
                async_pop(engine)
            });
            waiting.recv().expect("the waiter announces itself");
            // The round ends without re-enqueueing anything. Whichever thread
            // then finds the idle pool over the empty queue fails the run; the
            // other is woken (or arrives) to `done`. Neither may hang.
            engine.queue.lock().unwrap().running -= 1;
            engine.queue_cv.notify_all();
            assert_eq!(async_pop(engine), None);
            assert_eq!(waiter.join().expect("the waiter does not panic"), None);
        });
        assert!(engine.queue.lock().unwrap().done);
        let failure = engine.failure.lock().unwrap().take();
        let Some(PakmanError::ScheduleInvariant { message }) = failure else {
            panic!("expected a schedule-invariant failure, got {failure:?}");
        };
        assert!(message.contains("stalled in wave 3"), "{message}");
        assert!(message.contains("2 of 2 shards"), "{message}");
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
