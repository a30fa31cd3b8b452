//! Iterative Compaction (assembly step D, Figs. 2 and 4) — the phase NMP-PaK
//! accelerates.
//!
//! Every iteration performs the three pipeline stages the paper maps onto its
//! processing elements (Fig. 10):
//!
//! 1. **P1 — invalidation check**: compute the (k-1)-mers of every neighbour and mark
//!    the node for invalidation if its own (k-1)-mer is strictly the lexicographically
//!    largest (and the node is fully interior, so no contig endpoint is lost). Under
//!    [`CompactionMode::Frontier`] (the default) only *dirty* nodes — destinations of
//!    the previous iteration's TransferNodes — are re-evaluated after iteration 0;
//!    every other alive node's cached verdict still stands (see DESIGN.md for the
//!    invariant proof). Cut into at most [`PakmanConfig::threads`] chunks by
//!    [`crate::par`] (§4.5) — chunk 0 on the calling thread, a helper per further
//!    chunk, and a helper only for a grain of work, so a late iteration's (or a
//!    small graph's) checks run inline.
//! 2. **P2 — TransferNode extraction**: for each through-path of an invalidated node,
//!    build the TransferNodes destined for its predecessor and successor.
//! 3. **P3 — routing and update**: every destination is a neighbour P1 already
//!    resolved through the sorted-rank index, so P1 hands its ranks over and P3 only
//!    re-tests their aliveness (one bitmap bit each) and applies the transfer.
//!
//! P2 and P3 are one streamed pass, as on the paper's PE: the iteration first
//! clears the alive bit of every node P1 invalidated, then visits them in
//! ascending slot order, takes each out of its slot, and sends every TransferNode
//! it yields straight into its destination; no transfer stream is materialised.
//! Extraction reads only retired nodes and application writes only alive ones
//! (two adjacent nodes are never invalidated together), so this is the canonical
//! serial order by construction, on the calling thread (a destination-sharded
//! parallel apply never repaid its sort and scatter: DESIGN.md, "Fork-join and grain").
//!
//! One private driver, `run_barriered`, runs that iteration for both barriered
//! entry points: it is generic over a `NodeStore` — where the nodes live and how
//! a transfer reaches its destination — which [`compact`] instantiates with the
//! [`PakGraph`] itself and [`crate::shard::compact_sharded`] with its owner-routed
//! lock-step store, so a stage-D change is made once. All per-iteration buffers
//! live in the driver's scratch, so the untraced hot loop performs no
//! per-iteration reallocation. Iterations repeat until the alive node count drops
//! below the configured threshold, no node can be invalidated, or the iteration cap
//! is hit. Both scan modes, every thread count, every shard count and the serial
//! fallback produce bit-identical statistics, traces, and contigs — the
//! determinism contract of DESIGN.md.

use crate::config::{CompactionMode, PakmanConfig};
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::macronode::{MacroNode, ThroughPath};
use crate::par::{fork_join_into, plan, GRAIN};
use crate::trace::{CompactionTrace, IterationTrace, NodeCheck, TransferEvent, UpdateEvent};
use crate::transfer::{TransferNode, TransferSide};
use nmp_pak_genome::Kmer;
use std::time::{Duration, Instant};

/// Histogram of MacroNode sizes with the power-of-two buckets of Fig. 7
/// (≤256 B, 512 B, 1 KB, 2 KB, 4 KB, 8 KB, 16 KB, 32 KB, >32 KB).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    /// Count per bucket; bucket `i` covers `(bound[i-1], bound[i]]` with the bounds
    /// given by [`SizeHistogram::BUCKET_BOUNDS`], and the final bucket is overflow.
    counts: Vec<usize>,
}

impl SizeHistogram {
    /// Upper bounds (inclusive) of the non-overflow buckets, in bytes.
    pub const BUCKET_BOUNDS: [usize; 8] = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

    /// Creates an empty histogram.
    pub fn new() -> Self {
        SizeHistogram {
            counts: vec![0; Self::BUCKET_BOUNDS.len() + 1],
        }
    }

    /// Records one node of `size` bytes.
    pub fn record(&mut self, size: usize) {
        self.counts[Self::bucket_of(size)] += 1;
    }

    /// Removes one previously [`SizeHistogram::record`]ed node of `size` bytes —
    /// the incremental-census counterpart used when a node's size changes or the
    /// node is invalidated.
    pub(crate) fn unrecord(&mut self, size: usize) {
        let idx = Self::bucket_of(size);
        debug_assert!(self.counts[idx] > 0, "unrecord of an empty bucket");
        self.counts[idx] -= 1;
    }

    /// Bucket index for a node of `size` bytes.
    fn bucket_of(size: usize) -> usize {
        Self::BUCKET_BOUNDS
            .iter()
            .position(|&bound| size <= bound)
            .unwrap_or(Self::BUCKET_BOUNDS.len())
    }

    /// Per-bucket counts: one entry per bound plus a final overflow bucket.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total nodes recorded.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Fraction of recorded nodes whose size exceeds `threshold` bytes.
    ///
    /// This is the quantity plotted in Fig. 8 (proportion of MacroNodes larger than
    /// 1/2/4/8 KB) and the basis of the hybrid CPU-NMP offload decision.
    pub fn fraction_exceeding(&self, threshold: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut exceeding = 0usize;
        for (i, &count) in self.counts.iter().enumerate() {
            let lower = if i == 0 {
                0
            } else {
                Self::BUCKET_BOUNDS[i - 1]
            };
            if lower >= threshold {
                exceeding += count;
            }
        }
        exceeding as f64 / total as f64
    }
}

/// Per-iteration compaction statistics (drives Figs. 7 and 8).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Alive nodes at the start of the iteration.
    pub alive_before: usize,
    /// Nodes invalidated during the iteration.
    pub invalidated: usize,
    /// TransferNodes routed.
    pub transfers: usize,
    /// TransferNodes whose destination or matching extension could not be found
    /// (wiring-heuristic mismatches); their flow is dropped.
    pub unmatched_transfers: usize,
    /// MacroNode size distribution at the start of the iteration.
    pub histogram: SizeHistogram,
}

/// Whole-run compaction statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactionStats {
    /// Alive nodes before the first iteration.
    pub initial_nodes: usize,
    /// Alive nodes after the last iteration.
    pub final_nodes: usize,
    /// Per-iteration statistics.
    pub iterations: Vec<IterationStats>,
    /// Total TransferNodes routed across the run.
    pub total_transfers: usize,
    /// `true` if the run stopped because the node threshold was reached or no further
    /// invalidation was possible (as opposed to hitting the iteration cap).
    pub converged: bool,
}

impl CompactionStats {
    /// Number of iterations executed.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Overall node reduction factor (initial / final); `inf` if everything compacted.
    pub fn reduction_factor(&self) -> f64 {
        if self.final_nodes == 0 {
            f64::INFINITY
        } else {
            self.initial_nodes as f64 / self.final_nodes as f64
        }
    }
}

/// Wall-clock and work profile of one compaction iteration, recorded by
/// [`compact`] alongside the (bit-identity-checked) statistics. Timings vary run
/// to run; the node counts are deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterationProfile {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Wall-clock of stage P1 (invalidation checks).
    pub p1: Duration,
    /// Wall-clock of the streamed pass: retiring the invalidated nodes, then P2
    /// and P3 per node — extraction, routing and the update of every destination
    /// a store applies on delivery.
    pub p2: Duration,
    /// Wall-clock of the end-of-iteration flush: a store that posts its
    /// transfers applies them here, the outcomes are folded, and a traced run
    /// records its update events.
    pub p3: Duration,
    /// Invalidation predicates actually evaluated this iteration (the frontier
    /// re-check set; equals `alive_nodes` under [`CompactionMode::FullScan`]).
    pub checked_nodes: usize,
    /// Alive nodes at the start of the iteration — what a full scan evaluates.
    pub alive_nodes: usize,
}

/// Per-iteration profile of a whole compaction run (read by the repository
/// benchmark's `compaction.*` metrics and the bench crate's engine-identity test).
#[derive(Debug, Clone, Default)]
pub struct CompactionProfile {
    /// One entry per executed iteration.
    pub iterations: Vec<IterationProfile>,
}

impl CompactionProfile {
    /// Total invalidation predicates evaluated across the run.
    pub fn total_checked(&self) -> usize {
        self.iterations.iter().map(|i| i.checked_nodes).sum()
    }

    /// Total predicates a full scan would have evaluated (Σ alive at each
    /// iteration start).
    pub fn total_full_scan_checks(&self) -> usize {
        self.iterations.iter().map(|i| i.alive_nodes).sum()
    }
}

/// Result of running Iterative Compaction.
#[derive(Debug, Clone, Default)]
pub struct CompactionOutcome {
    /// Whole-run statistics.
    pub stats: CompactionStats,
    /// The access trace, when [`PakmanConfig::record_trace`] was set.
    pub trace: Option<CompactionTrace>,
    /// Per-iteration stage timings and checked-node counts (always recorded; two
    /// `Instant` reads per stage per iteration).
    pub profile: CompactionProfile,
}

/// Where a barriered compaction run's nodes live, in one slot space, and how a
/// TransferNode reaches its destination — all the two barriered entry points
/// differ in. [`run_barriered`] is monomorphised per store: a [`PakGraph`]
/// answers from its own slots and applies on delivery, so a single-graph run
/// executes no routing or telemetry code; the sharded lock-step store
/// (`shard.rs`) routes every access to the owner shard and keeps the mailbox
/// ledger.
pub(crate) trait NodeStore: Sync {
    /// The checkpoint a cancellation is reported at.
    const CHECKPOINT: &'static str;

    /// Number of slots, alive or not.
    fn slot_count(&self) -> usize;
    /// `true` if `slot` holds an alive node.
    fn is_alive(&self, slot: usize) -> bool;
    /// The node at `slot`: alive, or retired and not yet taken.
    fn node(&self, slot: usize) -> Option<&MacroNode>;
    /// The slot of the alive node with this (k-1)-mer, if any.
    fn index_of(&self, k1mer: &Kmer) -> Option<usize>;
    /// The first half of an invalidation: `slot` stops being alive, its node
    /// stays readable.
    fn retire(&mut self, slot: usize);
    /// The second half: moves the retired node out of `slot`.
    fn take_retired(&mut self, slot: usize) -> MacroNode;
    /// P1 evaluated the predicate on `slots` this iteration (a load ledger's hook).
    fn checked(&mut self, _slots: &[usize]) {}
    /// Opens `iteration`'s stream; `chunks` is the plan of its apply over the
    /// whole stream ([`plan`] over [`GRAIN`]).
    fn open(&mut self, _iteration: usize, _chunks: usize) {}
    /// Stage P3 for one TransferNode of the canonical stream, sent by the
    /// retired node of slot `source`; `dest` is its destination's slot if that
    /// is still alive. `Some(matched)` — whether it found its extension — if it
    /// was applied on the spot; `None` if it was dropped (no `dest`) or posted
    /// for [`NodeStore::close`].
    fn deliver(
        &mut self,
        source: usize,
        dest: Option<usize>,
        transfer: TransferNode,
    ) -> Option<bool>;
    /// Ends the iteration: applies what [`NodeStore::deliver`] posted, every
    /// destination receiving its transfers in delivery order, and reports each
    /// posted transfer's `(dest, matched)` in delivery order.
    fn close(&mut self, _settle: impl FnMut(usize, bool)) {}
}

impl NodeStore for PakGraph {
    const CHECKPOINT: &'static str = "compaction";

    fn slot_count(&self) -> usize {
        PakGraph::slot_count(self)
    }
    fn is_alive(&self, slot: usize) -> bool {
        PakGraph::is_alive(self, slot)
    }
    fn node(&self, slot: usize) -> Option<&MacroNode> {
        PakGraph::node(self, slot)
    }
    fn index_of(&self, k1mer: &Kmer) -> Option<usize> {
        PakGraph::index_of(self, k1mer)
    }
    fn retire(&mut self, slot: usize) {
        PakGraph::retire(self, slot);
    }
    fn take_retired(&mut self, slot: usize) -> MacroNode {
        PakGraph::take_retired(self, slot)
    }
    /// In place, on the spot.
    fn deliver(&mut self, _: usize, dest: Option<usize>, transfer: TransferNode) -> Option<bool> {
        let node = self.node_mut(dest?).expect("destination is alive");
        Some(apply_transfer(node, &transfer))
    }
}

/// The next iteration's frontier: one bit per slot, set for every destination a
/// transfer reached. Marking is an OR; draining yields the marked slots in
/// ascending order and leaves every word zero — no list to sort.
#[derive(Debug, Default)]
struct Frontier(Vec<u64>);

impl Frontier {
    fn mark(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    /// Appends the marked slots to `out`, ascending, clearing them.
    fn drain_into(&mut self, out: &mut Vec<usize>) {
        for (w, word) in self.0.iter_mut().enumerate() {
            let mut rest = std::mem::take(word);
            while rest != 0 {
                out.push(w * 64 + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
    }
}

/// Every buffer [`run_barriered`]'s loop needs, allocated once per run and
/// carried across its iterations — §4.5's "pre-allocated per-thread buffers"
/// applied to compaction: the untraced hot loop performs no per-iteration heap
/// allocation once the buffers have grown to their steady-state sizes. Slots
/// are the store's (global slots under a sharded store), so the frontier
/// bookkeeping is the same wherever the nodes live. The methods are the
/// driver's steps, one call site each; the fields a step reads are the outputs
/// of the steps before it (`pub(crate)` where `shard.rs`'s phase test runs the
/// steps by hand over its store).
#[derive(Debug, Default)]
pub(crate) struct CompactionScratch {
    /// Destinations the last streamed pass reached: the slots to re-evaluate.
    dirty: Frontier,
    /// Per-slot `size_bytes` as of the node's last evaluation. Valid for every
    /// clean node — a node's size changes only when a transfer lands on it, which
    /// marks it dirty.
    cached_size: Vec<usize>,
    /// Alive slots, ascending — the compacted alive census. Maintained
    /// incrementally (invalidated slots are merged out each iteration), so the
    /// per-iteration loop never rescans the whole slot vector.
    alive_list: Vec<u32>,
    /// Running size histogram over the alive nodes, updated in O(re-checked +
    /// invalidated) per iteration; the per-iteration snapshot is a clone.
    running_hist: SizeHistogram,
    /// `false` only until iteration 0's full scan has populated `cached_size`
    /// and `running_hist` for every alive node.
    census_primed: bool,
    /// Slots to re-evaluate this iteration, ascending.
    pub(crate) recheck: Vec<usize>,
    /// Evaluation results, aligned with `recheck`.
    pub(crate) check_results: Vec<NodeCheck>,
    /// The assembled per-alive-node check list (only populated when tracing; the
    /// trace takes ownership of it each iteration).
    checks: Vec<NodeCheck>,
    /// Slots invalidated this iteration, ascending.
    pub(crate) invalidated: Vec<usize>,
    /// P1's resolved neighbour ranks of chunks 1.. (chunk 0 writes `resolved`
    /// itself), appended to `resolved` in chunk (= slot) order.
    rank_buffers: Vec<Vec<Option<usize>>>,
    /// The hand-off: the slot of each transfer's destination, in the order the
    /// streamed pass produces the transfers. Written by P1 — the neighbour ranks
    /// of every node it invalidates, in (pred, succ) path order; the pass
    /// re-tests each one's aliveness as it consumes it.
    pub(crate) resolved: Vec<Option<usize>>,
    /// Transfers of the open iteration that did not land: destination gone, or
    /// no matching extension.
    pub(crate) unmatched: usize,
    /// Per-slot touched bitmap (reset via `touched_order`, not a full clear).
    touched: Vec<bool>,
    /// Destinations in first-touch order (the deterministic update-trace order).
    pub(crate) touched_order: Vec<usize>,
    /// The first nodes a pass takes out of their slots — up to two grains of
    /// them — parked until it ends and dropped together; the capacity stays with
    /// the run. Like the reservations of [`CompactionScratch::new`] this is for
    /// runs too small to fork, and for the allocator, not for speed: DESIGN.md,
    /// "Step D", has what these blocks do to glibc's steady state on many small
    /// assemblies, and what a per-pass block, or none, does instead.
    retired: Vec<MacroNode>,
}

impl CompactionScratch {
    /// The scratch of a run over `store`: its alive census taken, its vectors
    /// reserved (why so: DESIGN.md, "Step D"). A store with more slots than the
    /// census's `u32`s can name is [`PakmanError::InvalidConfig`], unallocated.
    pub(crate) fn new<S: NodeStore>(store: &S) -> Result<Self, PakmanError> {
        let slot_count = store.slot_count();
        if u32::try_from(slot_count).is_err() {
            let checkpoint = S::CHECKPOINT;
            let message =
                format!("{checkpoint}: {slot_count} slots do not fit the 32-bit alive census");
            return Err(PakmanError::InvalidConfig { message });
        }
        let alive_slots = (0..slot_count).filter(|&slot| store.is_alive(slot));
        let alive_list: Vec<u32> = alive_slots.map(|slot| slot as u32).collect();
        // The vectors that grow start at iteration 0's bound — an entry a node,
        // two ranks a node — for a run of up to two grains, which forks nowhere
        // and then never regrows; a larger one doubles from there as before.
        let n = alive_list.len().min(2 * GRAIN);
        Ok(CompactionScratch {
            recheck: Vec::with_capacity(n),
            check_results: Vec::with_capacity(n),
            invalidated: Vec::with_capacity(n),
            touched_order: Vec::with_capacity(n),
            resolved: Vec::with_capacity(2 * n),
            dirty: Frontier(vec![0; slot_count.div_ceil(64)]),
            cached_size: vec![0; slot_count],
            alive_list,
            running_hist: SizeHistogram::new(),
            touched: vec![false; slot_count],
            ..CompactionScratch::default()
        })
    }

    /// Stage P1: evaluates the invalidation predicate for `recheck` (ascending),
    /// writing one result per slot into `check_results` in the same order, and
    /// the neighbour ranks of every slot whose verdict is `true` into `resolved`
    /// (slot-major, then path order, predecessor before successor — the order the
    /// streamed pass emits that slot's TransferNodes). Cut into `chunks`
    /// contiguous chunks ([`plan`] over [`GRAIN`]): `check_results` is position-aligned with the
    /// input, chunk 0 writes `resolved` itself and the helpers' rank buffers are
    /// appended in chunk order, so the chunk count cannot change either output.
    pub(crate) fn check<S: NodeStore>(&mut self, store: &S, chunks: usize) {
        self.check_results.clear();
        self.check_results.resize(
            self.recheck.len(),
            NodeCheck {
                slot: 0,
                size_bytes: 0,
                invalidated: false,
            },
        );
        self.resolved.clear();
        let chunk = self.recheck.len().div_ceil(chunks).max(1);
        fork_join_into(
            self.check_results
                .chunks_mut(chunk)
                .zip(self.recheck.chunks(chunk)),
            &mut self.resolved,
            &mut self.rank_buffers,
            |(out_chunk, slot_chunk), ranks| {
                for (out, &slot) in out_chunk.iter_mut().zip(slot_chunk) {
                    let node = store.node(slot).expect("slot is alive");
                    // The ranks are kept only when the verdict is `true` (a
                    // rejected node emits no transfers).
                    let mark = ranks.len();
                    let invalidated = is_invalidation_target_with(
                        |k1mer| store.index_of(k1mer),
                        node,
                        |rank| ranks.push(Some(rank)),
                    );
                    if !invalidated {
                        ranks.truncate(mark);
                    }
                    *out = NodeCheck {
                        slot,
                        size_bytes: node.size_bytes(),
                        invalidated,
                    };
                }
            },
        );
    }

    /// Folds P1's results into the incremental alive census: each re-checked
    /// slot's previous size leaves the running histogram, its current size
    /// enters, the size cache refreshes, and the invalidated slots are collected
    /// in ascending order. Clean slots keep their recorded size — it cannot have
    /// changed (only a landed transfer changes a size, and that marks the slot
    /// dirty) — so the histogram equals a from-scratch one over all alive nodes
    /// in O(re-checked) instead of O(alive).
    pub(crate) fn fold_census(&mut self) {
        self.invalidated.clear();
        for check in &self.check_results {
            if self.census_primed {
                self.running_hist.unrecord(self.cached_size[check.slot]);
            }
            self.running_hist.record(check.size_bytes);
            self.cached_size[check.slot] = check.size_bytes;
            if check.invalidated {
                self.invalidated.push(check.slot);
            }
        }
        self.census_primed = true;
    }

    /// Assembles the traced per-alive-node check list: re-checked slots report
    /// their fresh result, clean slots their cached `(size, not-invalidated)`
    /// verdict, so replays are identical across scan modes; only traced runs pay
    /// this O(alive) assembly.
    fn assemble_trace_checks(&mut self) {
        let mut ri = 0usize;
        for &slot32 in &self.alive_list {
            let slot = slot32 as usize;
            let check = if self.recheck.get(ri) == Some(&slot) {
                let check = self.check_results[ri];
                ri += 1;
                check
            } else {
                NodeCheck {
                    slot,
                    size_bytes: self.cached_size[slot],
                    invalidated: false,
                }
            };
            self.checks.push(check);
        }
        debug_assert_eq!(ri, self.recheck.len(), "every re-check slot is alive");
    }

    /// Stages P2 and P3 as one streamed pass over the `invalidated` slots
    /// (ascending; none on the iteration that converges). Every target is
    /// retired first — the aliveness re-test of a handed-off rank must see all
    /// of this iteration's invalidations: stale or asymmetric wiring lets a
    /// destination be invalidated beside its source, and the re-test is what
    /// makes `dest` exactly `index_of(&transfer.destination)`. Then each retired
    /// node is taken out of its slot and its TransferNodes go, in path order,
    /// predecessor before successor, straight to the store; what reached an
    /// alive destination is recorded as it lands — the trace event (into
    /// `events`, when tracing), the next frontier, and through
    /// [`CompactionScratch::settle`] the outcome. `chunks` is the store's to use
    /// ([`NodeStore::open`]). Returns the number of transfers delivered.
    ///
    /// The hand-off is checked ahead of the first change to any node, in release
    /// builds too: P1 must have handed over one rank per transfer the
    /// invalidated nodes will yield (two a path — they are fully interior), or
    /// transfers would be paired with the wrong destinations.
    pub(crate) fn stream<S: NodeStore>(
        &mut self,
        store: &mut S,
        iteration: usize,
        chunks: usize,
        frontier: bool,
        mut events: Option<&mut Vec<TransferEvent>>,
    ) -> usize {
        let expected = transfer_count(self.invalidated.iter().map(|&slot| store.node(slot)));
        assert_eq!(
            self.resolved.len(),
            expected,
            "P1 must hand P3 one resolved rank per transfer of the nodes it invalidated"
        );
        for &slot in &self.invalidated {
            store.retire(slot);
            self.running_hist.unrecord(self.cached_size[slot]);
        }
        remove_sorted(&mut self.alive_list, &self.invalidated);
        for &slot in &self.touched_order {
            self.touched[slot] = false;
        }
        self.touched_order.clear();
        self.unmatched = 0;
        if let Some(events) = events.as_deref_mut() {
            events.reserve_exact(expected);
        }
        store.open(iteration, chunks);
        let parking = self.invalidated.len().min(2 * GRAIN);
        self.retired.reserve(parking);

        let mut delivered = 0usize;
        for i in 0..self.invalidated.len() {
            let source = self.invalidated[i];
            let node = store.take_retired(source);
            let pairs = node.paths().iter();
            let pairs = pairs.filter_map(|path| TransferNode::extract_pair(&node, path));
            for transfer in pairs.flat_map(|(pred, succ)| [pred, succ]) {
                let dest = self.resolved[delivered].filter(|&rank| store.is_alive(rank));
                debug_assert_eq!(dest, store.index_of(&transfer.destination));
                delivered += 1;
                if let (Some(events), Some(dest_slot)) = (events.as_deref_mut(), dest) {
                    events.push(TransferEvent {
                        source_slot: source,
                        dest_slot,
                        size_bytes: transfer.size_bytes(),
                    });
                }
                let settled = store.deliver(source, dest, transfer);
                let Some(dest_slot) = dest else {
                    self.unmatched += 1;
                    continue;
                };
                if frontier {
                    self.dirty.mark(dest_slot);
                }
                if let Some(matched) = settled {
                    self.settle(dest_slot, matched);
                }
            }
            if self.retired.len() < parking {
                self.retired.push(node);
            }
        }
        self.retired.clear();
        assert_eq!(
            delivered, expected,
            "the streamed pass must consume every rank P1 handed over"
        );
        delivered
    }

    /// Records the outcome of one transfer delivered to alive slot `dest`: the
    /// unmatched count, or the first-touch update order. Called in canonical
    /// order — by the pass itself, or by [`NodeStore::close`] for a store that
    /// posts.
    pub(crate) fn settle(&mut self, dest: usize, matched: bool) {
        if !matched {
            self.unmatched += 1;
        } else if !self.touched[dest] {
            self.touched[dest] = true;
            self.touched_order.push(dest);
        }
    }
}

/// Runs Iterative Compaction on `graph` in place.
///
/// P1 forks over at most `config.threads` chunks (§4.5), evaluating the
/// (frontier-restricted) check set in parallel; the streamed pass then takes
/// P1's resolved destinations and sends each invalidated node's TransferNodes
/// straight into them. Output is bit-identical across thread counts and
/// [`CompactionMode`]s. Panics on a graph of more than `u32::MAX` slots (the
/// typed error of [`compact_controlled`]).
pub fn compact(graph: &mut PakGraph, config: &PakmanConfig) -> CompactionOutcome {
    compact_controlled(graph, config, &RunControl::default())
        .expect("the null control never cancels and a graph's slots fit the 32-bit census")
}

/// [`compact`] under a [`RunControl`]: the cancellation token is polled at the
/// top of every iteration (unwinding with [`PakmanError::Cancelled`]) and the
/// observer sees one `compaction_iteration` callback per iteration. With the
/// default (never-cancelled, unobserved) control this is bit-identical to
/// [`compact`].
///
/// # Errors
///
/// Returns [`PakmanError::Cancelled`] if the control's token fires between
/// iterations; the graph is left mid-compaction and should be dropped. Returns
/// [`PakmanError::InvalidConfig`], with the graph untouched, if it has more
/// than `u32::MAX` slots: the alive census stores slots as `u32`.
pub fn compact_controlled(
    graph: &mut PakGraph,
    config: &PakmanConfig,
    control: &RunControl<'_>,
) -> Result<CompactionOutcome, PakmanError> {
    run_barriered(graph, config, control)
}

/// The barriered iteration loop — the one copy of it. Every iteration runs
/// frontier build → P1 → census fold → the streamed pass (retire, then P2 + P3
/// per invalidated node) → [`NodeStore::close`] over `store`'s slot space, with
/// an all-chunks join after each forked phase; what differs between a single
/// graph and lock-step shards is behind [`NodeStore`].
pub(crate) fn run_barriered<S: NodeStore>(
    store: &mut S,
    config: &PakmanConfig,
    control: &RunControl<'_>,
) -> Result<CompactionOutcome, PakmanError> {
    let slot_count = store.slot_count();
    let mut scratch = CompactionScratch::new(store)?;
    let initial_nodes = scratch.alive_list.len();
    let mut trace = config.record_trace.then(|| {
        let mut sizes = vec![0usize; slot_count];
        for &slot in &scratch.alive_list {
            let node = store.node(slot as usize).expect("slot is alive");
            sizes[slot as usize] = node.size_bytes();
        }
        CompactionTrace::new(slot_count, sizes)
    });

    let mut stats = CompactionStats {
        initial_nodes,
        final_nodes: initial_nodes,
        ..CompactionStats::default()
    };
    let mut profile = CompactionProfile::default();
    let frontier = config.compaction_mode == CompactionMode::Frontier;

    for iteration in 0..config.max_compaction_iterations {
        control.check(S::CHECKPOINT)?;
        let alive_before = scratch.alive_list.len();
        control.compaction_iteration(iteration, alive_before);
        if alive_before <= config.compaction_node_threshold {
            stats.converged = true;
            break;
        }

        // ---- Stage P1: invalidation check (parallel, read-only) ----
        let p1_start = Instant::now();
        scratch.recheck.clear();
        if !frontier || iteration == 0 {
            let alive_slots = scratch.alive_list.iter().map(|&slot| slot as usize);
            scratch.recheck.extend(alive_slots);
        } else {
            // The frontier: destinations the previous iteration's transfers
            // reached, in ascending slot order. Everything else is clean and
            // keeps its cached "not a target" verdict (see DESIGN.md).
            scratch.dirty.drain_into(&mut scratch.recheck);
        }
        scratch.check(store, plan(scratch.recheck.len(), config.threads, GRAIN));
        store.checked(&scratch.recheck);
        scratch.fold_census();
        let histogram = scratch.running_hist.clone();
        // The trace lists one NodeCheck per alive node per iteration.
        if trace.is_some() {
            scratch.assemble_trace_checks();
        }
        let p1 = p1_start.elapsed();

        // ---- Stages P2 + P3: the streamed pass, then the store's flush ----
        // Every destination is a neighbour P1 resolved, handed over in the
        // order the pass emits the transfers: no second search.
        let p2_start = Instant::now();
        let mut transfer_events = Vec::new();
        let transfers = scratch.stream(
            store,
            iteration,
            plan(scratch.resolved.len(), config.threads, GRAIN),
            frontier,
            trace.is_some().then_some(&mut transfer_events),
        );
        let p2 = p2_start.elapsed();
        let p3_start = Instant::now();
        if transfers > 0 {
            store.close(|dest, matched| scratch.settle(dest, matched));
        }
        let mut updates: Vec<UpdateEvent> = Vec::new();
        if trace.is_some() {
            updates.extend(scratch.touched_order.iter().map(|&dest_slot| UpdateEvent {
                dest_slot,
                size_bytes: store.node(dest_slot).map_or(0, MacroNode::size_bytes),
            }));
        }
        profile.iterations.push(IterationProfile {
            iteration,
            p1,
            p2,
            p3: p3_start.elapsed(),
            checked_nodes: scratch.recheck.len(),
            alive_nodes: alive_before,
        });

        stats.total_transfers += transfers;
        stats.iterations.push(IterationStats {
            iteration,
            alive_before,
            invalidated: scratch.invalidated.len(),
            transfers,
            unmatched_transfers: scratch.unmatched,
            histogram,
        });
        if let Some(trace) = trace.as_mut() {
            trace.iterations.push(IterationTrace {
                checks: std::mem::take(&mut scratch.checks),
                transfers: transfer_events,
                updates,
            });
        }
        if scratch.invalidated.is_empty() {
            stats.converged = true;
            break;
        }
    }

    stats.final_nodes = scratch.alive_list.len();
    let alive_in_store = || (0..slot_count).filter(|&slot| store.is_alive(slot)).count();
    debug_assert_eq!(stats.final_nodes, alive_in_store());
    if stats.final_nodes <= config.compaction_node_threshold {
        stats.converged = true;
    }
    Ok(CompactionOutcome {
        stats,
        trace,
        profile,
    })
}

/// Removes the sorted slot set `removed` from the sorted `alive` list in place
/// (one forward pass; both inputs ascending).
pub(crate) fn remove_sorted(alive: &mut Vec<u32>, removed: &[usize]) {
    debug_assert!(removed.windows(2).all(|w| w[0] < w[1]));
    let mut rest = removed.iter().peekable();
    alive.retain(|&slot| rest.next_if(|&&gone| gone == slot as usize).is_none());
    debug_assert!(rest.next().is_none(), "every removed slot was alive");
}

/// The exact length of the transfer stream the invalidated `nodes` (all fully
/// interior) will produce: two TransferNodes per path. Shared with the async
/// sharded engine's extraction.
pub(crate) fn transfer_count<'a>(nodes: impl Iterator<Item = Option<&'a MacroNode>>) -> usize {
    2 * nodes
        .flatten()
        .map(|node| node.paths().len())
        .sum::<usize>()
}

/// Stage P1 decision: the node is invalidated if it is fully interior and its
/// (k-1)-mer is strictly the lexicographically largest among its neighbours
/// (Fig. 4 (b)). The strictness guarantees two adjacent nodes are never invalidated in
/// the same iteration. A neighbour that no longer exists in the graph (it was pruned,
/// or its wiring went stale after an earlier invalidation) does not block the check;
/// the corresponding TransferNode is simply dropped and counted as unmatched.
///
/// Neighbour (k-1)-mers are computed per path directly on the packed
/// representations ([`MacroNode::predecessor_k1mer`] /
/// [`MacroNode::successor_k1mer`]) — no extension aggregation, no intermediate
/// vectors, no heap allocation. Visiting the path multiset instead of the
/// deduplicated neighbour set cannot change the verdict: every condition is
/// universally quantified over the neighbours.
pub fn is_invalidation_target(graph: &PakGraph, node: &MacroNode) -> bool {
    is_invalidation_target_with(|k1mer| graph.index_of(k1mer), node, |_| {})
}

/// [`is_invalidation_target`] generalized over the neighbour lookup, so the
/// sharded engines can route lookups through the owner shards while evaluating
/// the very same predicate. `resolve` answers "alive, and where" for one
/// neighbour (k-1)-mer (`None` = not alive); every answer is handed to `sink` in
/// path order, predecessor before successor — the order
/// [`TransferNode::extract_pair`] emits a path's two TransferNodes — so a caller
/// that keeps them has each transfer's destination without searching again. On a
/// `false` verdict the sink may have seen a prefix of the neighbours; the caller
/// discards it. Callers with no use for the answers pass a no-op sink.
///
/// The predicate is a conjunction over the neighbours — each is strictly
/// dominated *and* alive — so it is evaluated cheapest conjunct first: one
/// pure-arithmetic dominance pass over every neighbour, and only a node that
/// survives it (about three checks in ten) pays the rank-index lookups of the
/// aliveness pass. The verdict, and with it the frontier and every count, is
/// the one a lookup-first evaluation returns.
pub(crate) fn is_invalidation_target_with<R>(
    resolve: impl Fn(&nmp_pak_genome::Kmer) -> Option<R>,
    node: &MacroNode,
    mut sink: impl FnMut(R),
) -> bool {
    let own = node.k1mer();
    let neighbours = |path: &ThroughPath| {
        // A terminal path never counts as a dominated neighbour: only fully
        // interior nodes are invalidated, so no contig endpoint is lost.
        let (prefix, suffix) = (path.prefix.as_ref()?, path.suffix.as_ref()?);
        Some([node.predecessor_k1mer(prefix), node.successor_k1mer(suffix)])
    };
    let dominates = |path: &ThroughPath| {
        neighbours(path).is_some_and(|pair| pair.iter().all(|neighbour| *neighbour < own))
    };
    if node.paths().is_empty() || !node.paths().iter().all(dominates) {
        return false;
    }
    // Every neighbour must still be alive: invalidating a node whose wiring
    // has gone stale (a residual path pointing at an already-removed
    // neighbour) would drop its TransferNodes and lose assembled sequence,
    // so such nodes are kept. This is conservative — compaction stops
    // earlier than PaKman's — but it keeps the walk lossless; see DESIGN.md.
    for path in node.paths() {
        let pair = neighbours(path).expect("the dominance pass saw both extensions");
        for neighbour in &pair {
            match resolve(neighbour) {
                Some(rank) => sink(rank),
                None => return false,
            }
        }
    }
    true
}

/// Applies one TransferNode to its destination node, splitting paths as necessary so
/// that exactly `transfer.count` units of flow receive the new extension. Returns
/// `false` if no matching extension was found. Shared with the sharded engine,
/// whose per-shard P3 applies mailbox deliveries with this exact function.
pub(crate) fn apply_transfer(dest: &mut MacroNode, transfer: &TransferNode) -> bool {
    let mut remaining = transfer.count;
    let mut new_paths = Vec::new();
    let paths = dest.paths_mut();

    for path in paths.iter_mut() {
        if remaining == 0 {
            break;
        }
        let matches = match transfer.side {
            TransferSide::Predecessor => path.suffix.as_ref() == Some(&transfer.match_ext),
            TransferSide::Successor => path.prefix.as_ref() == Some(&transfer.match_ext),
        };
        if !matches {
            continue;
        }
        let take = path.count.min(remaining);
        if take == path.count {
            // Whole path is redirected.
            match transfer.side {
                TransferSide::Predecessor => path.suffix = Some(transfer.new_ext.clone()),
                TransferSide::Successor => path.prefix = Some(transfer.new_ext.clone()),
            }
        } else {
            // Split: `take` units get the new extension, the rest keeps the old one.
            path.count -= take;
            let mut split = path.clone();
            split.count = take;
            match transfer.side {
                TransferSide::Predecessor => split.suffix = Some(transfer.new_ext.clone()),
                TransferSide::Successor => split.prefix = Some(transfer.new_ext.clone()),
            }
            new_paths.push(split);
        }
        remaining -= take;
    }

    paths.extend(new_paths);
    remaining < transfer.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer_count::{count_kmers, KmerCounterConfig};
    use nmp_pak_genome::{DnaString, Kmer, SequencingRead};

    fn graph_from_reads(reads: &[&str], k: usize) -> PakGraph {
        let reads: Vec<SequencingRead> = reads
            .iter()
            .enumerate()
            .map(|(i, s)| SequencingRead::new(format!("r{i}"), s.parse::<DnaString>().unwrap()))
            .collect();
        let (counted, _) = count_kmers(
            &reads,
            KmerCounterConfig {
                k,
                min_count: 1,
                threads: 1,
            },
        )
        .unwrap();
        PakGraph::from_counted_kmers(&counted, k, 1)
    }

    fn compact_config(threshold: usize) -> PakmanConfig {
        PakmanConfig {
            compaction_node_threshold: threshold,
            threads: 1,
            record_trace: true,
            ..PakmanConfig::default()
        }
    }

    #[test]
    fn histogram_buckets_and_fractions() {
        let mut h = SizeHistogram::new();
        for size in [100, 300, 600, 1500, 9000, 40_000] {
            h.record(size);
        }
        assert_eq!(h.total(), 6);
        // Sizes > 1 KB: 1500, 9000, 40000 → 3/6. (600 sits in the 512–1024 bucket.)
        assert!((h.fraction_exceeding(1024) - 0.5).abs() < 1e-12);
        // Sizes > 8 KB: 9000 and 40000 → 2/6.
        assert!((h.fraction_exceeding(8192) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.counts().len(), SizeHistogram::BUCKET_BOUNDS.len() + 1);
    }

    #[test]
    fn compaction_reduces_node_count_on_a_chain() {
        let mut graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAAC"], 5);
        let before = graph.alive_count();
        let outcome = compact(&mut graph, &compact_config(2));
        let after = graph.alive_count();
        assert!(after < before, "compaction should remove interior nodes");
        assert_eq!(outcome.stats.initial_nodes, before);
        assert_eq!(outcome.stats.final_nodes, after);
        assert!(outcome.stats.converged);
        assert!(outcome.stats.iteration_count() >= 1);
    }

    #[test]
    fn compaction_preserves_spelled_sequence_on_a_chain() {
        // After full compaction of a linear chain, walking from the terminal-start node
        // must reproduce the original read.
        let read = "ACGTACCTGATCAGTTGCAAC";
        let mut graph = graph_from_reads(&[read], 5);
        compact(&mut graph, &compact_config(0));
        let contigs = crate::walk::generate_contigs(&graph, 0);
        assert!(
            contigs.iter().any(|c| c.sequence.to_string() == read),
            "expected contig {read}, got {:?}",
            contigs
                .iter()
                .map(|c| c.sequence.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn adjacent_nodes_are_never_both_invalidated() {
        let mut graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAACGGTT"], 6);
        let cfg = compact_config(0);
        let outcome = compact(&mut graph, &cfg);
        let trace = outcome.trace.expect("trace recorded");
        for it in &trace.iterations {
            let invalidated: std::collections::HashSet<usize> = it
                .checks
                .iter()
                .filter(|c| c.invalidated)
                .map(|c| c.slot)
                .collect();
            // No transfer may target an invalidated slot: destinations are neighbours,
            // and neighbours of an invalidated node must stay alive this iteration.
            for t in &it.transfers {
                assert!(!invalidated.contains(&t.dest_slot));
            }
        }
    }

    #[test]
    fn terminal_nodes_are_not_invalidated() {
        let graph = graph_from_reads(&["ACGTACCTG"], 5);
        for (_, node) in graph.iter_alive() {
            if !node.is_fully_interior() {
                assert!(!is_invalidation_target(&graph, node));
            }
        }
    }

    #[test]
    fn lexicographically_largest_interior_node_is_selected() {
        // Read "ACGTTAC", k = 5 gives (k-1)-mer chain ACGT → CGTT → GTTA → TTAC.
        // Interior nodes are CGTT and GTTA. Under the paper's A<C<T<G ordering,
        // GTTA is larger than both of its neighbours (CGTT and TTAC), so it is the
        // invalidation target; CGTT is not (its successor GTTA is larger).
        let graph = graph_from_reads(&["ACGTTAC"], 5);
        let gtta = graph
            .node_by_k1mer(&Kmer::from_ascii("GTTA").unwrap())
            .unwrap();
        let cgtt = graph
            .node_by_k1mer(&Kmer::from_ascii("CGTT").unwrap())
            .unwrap();
        assert!(is_invalidation_target(&graph, gtta));
        assert!(!is_invalidation_target(&graph, cgtt));

        // Compacting removes GTTA and routes its content to CGTT and TTAC
        // (two transfers for its single through-path), after which no further
        // interior node dominates its neighbours.
        let mut graph = graph;
        let outcome = compact(&mut graph, &compact_config(0));
        assert_eq!(outcome.stats.total_transfers, 2);
        assert!(outcome.stats.converged);
        assert_eq!(graph.alive_count(), 3);
        assert!(!graph.contains(&Kmer::from_ascii("GTTA").unwrap()));
        // CGTT's suffix grew from "A" to "AC".
        let cgtt = graph
            .node_by_k1mer(&Kmer::from_ascii("CGTT").unwrap())
            .unwrap();
        assert_eq!(cgtt.suffix_extensions()[0].0.to_string(), "AC");
    }

    #[test]
    fn trace_records_checks_transfers_and_updates() {
        let mut graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAAC"], 5);
        let outcome = compact(&mut graph, &compact_config(2));
        let trace = outcome.trace.expect("trace requested");
        assert_eq!(trace.slot_count, trace.initial_sizes.len());
        assert!(trace.iteration_count() >= 1);
        let total_invalidated = trace.total_invalidated();
        assert!(total_invalidated > 0);
        // Every invalidated interior node produces two transfers per path.
        assert!(trace.total_transfers() >= total_invalidated);
        // Updates reference alive-at-the-time destinations with nonzero sizes.
        for it in &trace.iterations {
            for u in &it.updates {
                assert!(u.size_bytes > 0);
                assert!(u.dest_slot < trace.slot_count);
            }
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let mut graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAACGGTTACCAGT"], 5);
        let cfg = PakmanConfig {
            compaction_node_threshold: 0,
            max_compaction_iterations: 1,
            threads: 1,
            ..PakmanConfig::default()
        };
        let outcome = compact(&mut graph, &cfg);
        assert!(outcome.stats.iteration_count() <= 1);
    }

    /// P1 over `slots` on `chunks` chunks, on a scratch of its own.
    fn checks_on(graph: &PakGraph, slots: &[usize], chunks: usize) -> CompactionScratch {
        let mut scratch = CompactionScratch::new(graph).unwrap();
        scratch.recheck.extend_from_slice(slots);
        scratch.check(graph, chunks);
        scratch
    }

    #[test]
    fn parallel_and_serial_checks_agree() {
        let graph = simulated_graph();
        let slots = graph.alive_slots();
        let serial = checks_on(&graph, &slots, 1);
        // The chunk count is the argument: four chunks, three of them helpers.
        let parallel = checks_on(&graph, &slots, 4);
        // Results are position-aligned with the slot list in both cases, and
        // the handed-off ranks come out in the same (slot-major) order.
        assert_eq!(serial.check_results, parallel.check_results);
        assert_eq!(serial.check_results.len(), slots.len());
        assert_eq!(serial.resolved, parallel.resolved);
        assert!(!serial.resolved.is_empty());
    }

    /// A store that answers and applies as the graph it wraps, keeping every
    /// delivery: `(source, dest, transfer, matched)`.
    struct Recording {
        graph: PakGraph,
        deliveries: Vec<(usize, Option<usize>, TransferNode, bool)>,
    }

    impl NodeStore for Recording {
        const CHECKPOINT: &'static str = "recording";

        fn slot_count(&self) -> usize {
            self.graph.slot_count()
        }
        fn is_alive(&self, slot: usize) -> bool {
            self.graph.is_alive(slot)
        }
        fn node(&self, slot: usize) -> Option<&MacroNode> {
            self.graph.node(slot)
        }
        fn index_of(&self, k1mer: &Kmer) -> Option<usize> {
            self.graph.index_of(k1mer)
        }
        fn retire(&mut self, slot: usize) {
            self.graph.retire(slot);
        }
        fn take_retired(&mut self, slot: usize) -> MacroNode {
            NodeStore::take_retired(&mut self.graph, slot)
        }
        fn deliver(
            &mut self,
            source: usize,
            dest: Option<usize>,
            transfer: TransferNode,
        ) -> Option<bool> {
            let matched = self.graph.deliver(source, dest, transfer.clone());
            self.deliveries
                .push((source, dest, transfer, matched == Some(true)));
            matched
        }
    }

    /// The simulated graph plus the hand-wired case of `tests/graph_index.rs` at
    /// k = 21, so its first iteration meets every kind of delivery: `G…` lists
    /// `T…` as a predecessor that does not list it back, both dominate what they
    /// list, and `T…` is retired beside the node that sends to it.
    fn graph_with_a_doomed_destination() -> PakGraph {
        let dna = |text: String| text.parse::<DnaString>().unwrap();
        let k1mer = |unit: &str| Kmer::from_ascii(&unit.repeat(20 / unit.len())).unwrap();
        let wired = |unit: &str, path: Option<(&str, &str)>| {
            let mut node = MacroNode::new(k1mer(unit));
            if let Some((prefix, suffix)) = path {
                let path = ThroughPath::through(dna(prefix.repeat(20)), dna(suffix.repeat(10)), 1);
                node.push_path(path);
            }
            node
        };
        let mut nodes = simulated_graph().into_nodes();
        nodes.push(wired("G", Some(("T", "CC"))));
        nodes.push(wired("T", Some(("A", "AC"))));
        nodes.extend(["A", "C", "AC"].map(|unit| wired(unit, None)));
        PakGraph::from_nodes(nodes, 21)
    }

    #[test]
    fn the_streamed_pass_equals_the_materialised_stream() {
        // One iteration by hand — P1 on four chunks, then the streamed pass —
        // against the flow it replaced: extract every transfer, invalidate every
        // target, resolve each destination afresh, apply in stream order.
        let graph = graph_with_a_doomed_destination();
        let mut scratch = checks_on(&graph, &graph.alive_slots(), 4);
        scratch.fold_census();
        let invalidated = scratch.invalidated.clone();

        let mut oracle = graph.clone();
        let mut stream: Vec<(usize, TransferNode)> = Vec::new();
        for &slot in &invalidated {
            let node = oracle.node(slot).expect("a target is alive");
            stream.extend(
                TransferNode::extract_all(node)
                    .into_iter()
                    .map(|t| (slot, t)),
            );
        }
        for &slot in &invalidated {
            oracle.invalidate(slot);
        }
        let expected: Vec<_> = stream
            .into_iter()
            .map(|(source, transfer)| {
                let dest = oracle.index_of(&transfer.destination);
                let matched = dest
                    .is_some_and(|slot| apply_transfer(oracle.node_mut(slot).unwrap(), &transfer));
                (source, dest, transfer, matched)
            })
            .collect();
        assert!(expected.len() > 1_000);
        let dropped = expected.iter().filter(|entry| entry.1.is_none()).count();
        assert_eq!(dropped, 1, "GGGG's transfer to TTTT finds it retired");

        let mut store = Recording {
            graph: graph.clone(),
            deliveries: Vec::new(),
        };
        let mut events = Vec::new();
        let delivered = scratch.stream(&mut store, 0, 1, true, Some(&mut events));
        assert_eq!(delivered, expected.len());
        assert_eq!(store.deliveries, expected);
        // The nodes the pass parked (its first two grains' worth) went with it.
        assert!(scratch.retired.is_empty());
        assert!(scratch.retired.capacity() >= invalidated.len().min(2 * GRAIN));
        for slot in 0..graph.slot_count() {
            assert_eq!(store.graph.node(slot), oracle.node(slot), "slot {slot}");
            assert_eq!(store.graph.is_alive(slot), oracle.is_alive(slot));
        }

        // What the pass recorded as each transfer landed is the fold of that
        // stream: events for the live destinations, the unmatched count, the
        // first-touch order, and the next frontier.
        let landed = expected.iter().filter_map(|(source, dest, transfer, _)| {
            Some(TransferEvent {
                source_slot: *source,
                dest_slot: (*dest)?,
                size_bytes: transfer.size_bytes(),
            })
        });
        assert_eq!(events, landed.collect::<Vec<_>>());
        let unmatched = expected.iter().filter(|entry| !entry.3).count();
        assert_eq!(scratch.unmatched, unmatched);
        assert!(
            unmatched > dropped,
            "some live destination lacks the extension"
        );
        let mut first_touch: Vec<usize> = Vec::new();
        for (_, dest, _, matched) in &expected {
            if *matched && !first_touch.contains(&dest.unwrap()) {
                first_touch.push(dest.unwrap());
            }
        }
        assert_eq!(scratch.touched_order, first_touch);
        let mut reached: Vec<usize> = events.iter().map(|event| event.dest_slot).collect();
        reached.sort_unstable();
        reached.dedup();
        let mut frontier = Vec::new();
        scratch.dirty.drain_into(&mut frontier);
        assert_eq!(frontier, reached);
    }

    #[test]
    fn a_short_hand_off_stops_the_pass_before_any_node_changes() {
        let graph = simulated_graph();
        let mut scratch = checks_on(&graph, &graph.alive_slots(), 1);
        scratch.fold_census();
        assert!(scratch.invalidated.len() > 100);
        scratch.resolved.pop();
        let mut victim = graph.clone();
        let pass = std::panic::AssertUnwindSafe(|| scratch.stream(&mut victim, 0, 1, true, None));
        let panic = std::panic::catch_unwind(pass).expect_err("a short hand-off must not run");
        let message = panic.downcast_ref::<String>().expect("an assert message");
        assert!(
            message.contains("one resolved rank per transfer"),
            "{message}"
        );
        assert_eq!(victim.alive_count(), graph.alive_count());
        for slot in 0..graph.slot_count() {
            assert!(victim.is_alive(slot));
            assert_eq!(victim.node(slot), graph.node(slot), "slot {slot}");
        }
    }

    #[test]
    fn frontier_bitmap_round_trips_its_edges_and_drains_to_zero() {
        for slot_count in [1usize, 64, 65, 130, 1_000] {
            let mut frontier = Frontier(vec![0; slot_count.div_ceil(64)]);
            let mut edges: Vec<usize> = [0, 63, 64, slot_count - 1]
                .into_iter()
                .filter(|&slot| slot < slot_count)
                .collect();
            // Marked out of order and twice over: the drain is ascending, once each.
            for &slot in edges.iter().rev().chain(&edges) {
                frontier.mark(slot);
            }
            edges.sort_unstable();
            edges.dedup();
            let mut drained = vec![usize::MAX];
            frontier.drain_into(&mut drained);
            assert_eq!(drained[1..], edges, "{slot_count} slots");
            assert!(
                frontier.0.iter().all(|&word| word == 0),
                "{slot_count} slots"
            );
            frontier.drain_into(&mut drained);
            assert_eq!(
                drained.len(),
                1 + edges.len(),
                "a drained frontier is empty"
            );
        }
    }

    #[test]
    fn more_slots_than_the_census_can_name_is_a_typed_error() {
        /// Claims 2^32 slots and must not be asked anything else.
        struct Oversized;
        impl NodeStore for Oversized {
            const CHECKPOINT: &'static str = "oversized store";
            fn slot_count(&self) -> usize {
                u32::MAX as usize + 1
            }
            fn is_alive(&self, _: usize) -> bool {
                unreachable!("rejected before the census is taken")
            }
            fn node(&self, _: usize) -> Option<&MacroNode> {
                unreachable!()
            }
            fn index_of(&self, _: &Kmer) -> Option<usize> {
                unreachable!()
            }
            fn retire(&mut self, _: usize) {
                unreachable!()
            }
            fn take_retired(&mut self, _: usize) -> MacroNode {
                unreachable!()
            }
            fn deliver(&mut self, _: usize, _: Option<usize>, _: TransferNode) -> Option<bool> {
                unreachable!()
            }
        }
        let err = run_barriered(&mut Oversized, &compact_config(0), &RunControl::default())
            .expect_err("2^32 slots overflow the u32 census");
        let PakmanError::InvalidConfig { message } = err else {
            panic!("expected InvalidConfig, got {err:?}");
        };
        assert!(
            message.contains("oversized store: 4294967296 slots"),
            "{message}"
        );
    }

    fn outcomes_identical(a: &CompactionOutcome, b: &CompactionOutcome, what: &str) {
        assert_eq!(a.stats, b.stats, "stats diverged: {what}");
        assert_eq!(a.trace, b.trace, "trace diverged: {what}");
    }

    #[test]
    fn frontier_matches_full_scan_bit_for_bit() {
        let reads = [
            "ACGTACCTGATCAGTTGCAACGGTTACCAGTACGATC",
            "GGGCCCAAATTTACGTAG",
        ];
        for threads in [1, 2, 4, 8] {
            let mut full_graph = graph_from_reads(&reads, 6);
            let mut frontier_graph = full_graph.clone();
            let full_cfg = PakmanConfig {
                compaction_mode: CompactionMode::FullScan,
                threads,
                ..compact_config(0)
            };
            let frontier_cfg = PakmanConfig {
                compaction_mode: CompactionMode::Frontier,
                ..full_cfg
            };
            let full = compact(&mut full_graph, &full_cfg);
            let frontier = compact(&mut frontier_graph, &frontier_cfg);
            outcomes_identical(&full, &frontier, &format!("threads = {threads}"));
            // The compacted graphs agree node for node.
            assert_eq!(full_graph.slot_count(), frontier_graph.slot_count());
            for slot in 0..full_graph.slot_count() {
                assert_eq!(full_graph.node(slot), frontier_graph.node(slot));
            }
            // The frontier never evaluates more predicates than the full scan,
            // and both record the same per-iteration alive census.
            for (full_it, frontier_it) in full
                .profile
                .iterations
                .iter()
                .zip(&frontier.profile.iterations)
            {
                assert_eq!(full_it.alive_nodes, frontier_it.alive_nodes);
                assert_eq!(full_it.checked_nodes, full_it.alive_nodes);
                assert!(frontier_it.checked_nodes <= frontier_it.alive_nodes);
            }
        }
    }

    /// A 20 kbp, 30× error-bearing read set's graph at k = 21 (the shape of the
    /// determinism suites' inputs).
    fn simulated_graph() -> PakGraph {
        use nmp_pak_genome::{ReadSimulator, ReferenceGenome, SequencerConfig};
        let genome = ReferenceGenome::builder()
            .length(20_000)
            .seed(0xD5EED)
            .build()
            .unwrap();
        let reads = ReadSimulator::new(SequencerConfig {
            coverage: 30.0,
            substitution_error_rate: 0.001,
            seed: 0xD5EEE,
            ..SequencerConfig::default()
        })
        .simulate(&genome)
        .unwrap();
        let config = KmerCounterConfig {
            k: 21,
            min_count: 2,
            threads: 1,
        };
        let (counted, _) = count_kmers(&reads, config).unwrap();
        PakGraph::from_counted_kmers(&counted, 21, 1)
    }

    /// Runs `inspect` on the graph before every compaction iteration and after
    /// the last one, stepping one iteration per `compact` call (each call's
    /// iteration 0 is a full scan, so the steps compose to the ordinary run).
    /// Returns the number of iterations that invalidated something.
    fn at_every_iteration(graph: &mut PakGraph, mut inspect: impl FnMut(&PakGraph)) -> usize {
        let one_step = PakmanConfig {
            max_compaction_iterations: 1,
            ..compact_config(0)
        };
        for step in 0.. {
            inspect(graph);
            let outcome = compact(graph, &one_step);
            if outcome
                .stats
                .iterations
                .iter()
                .all(|it| it.invalidated == 0)
            {
                return step;
            }
        }
        unreachable!("compaction converges")
    }

    #[test]
    fn extract_pair_equals_the_spelled_oracle_on_every_path_at_every_iteration() {
        let mut graph = simulated_graph();
        let (mut interior_paths, mut longest) = (0usize, 0usize);
        let steps = at_every_iteration(&mut graph, |graph| {
            for (_, node) in graph.iter_alive() {
                for path in node.paths() {
                    let word = TransferNode::extract_pair(node, path);
                    assert_eq!(word, TransferNode::extract_pair_spelled(node, path));
                    if let Some((pred, succ)) = word {
                        interior_paths += 1;
                        longest = longest.max(pred.new_ext.len()).max(succ.new_ext.len());
                    }
                }
            }
        });
        // The run went deep enough for extensions to outgrow the (k-1)-mer, so
        // both branches of every primitive ran (heap-length extensions do not
        // arise at this scale; transfer.rs covers them by hand).
        assert!(steps >= 5, "only {steps} compaction iterations");
        assert!(interior_paths > 20_000, "{interior_paths} interior paths");
        assert!(longest > 20, "longest extension: {longest} bases");
    }

    /// The predicate as it was written before the arithmetic-first reordering:
    /// per neighbour, the aliveness lookup and then the dominance comparison.
    fn lookup_first_predicate(graph: &PakGraph, node: &MacroNode) -> bool {
        if !node.is_fully_interior() {
            return false;
        }
        let own = node.k1mer();
        for path in node.paths() {
            let (Some(prefix), Some(suffix)) = (&path.prefix, &path.suffix) else {
                return false;
            };
            for neighbour in [node.predecessor_k1mer(prefix), node.successor_k1mer(suffix)] {
                if !graph.contains(&neighbour) || neighbour >= own {
                    return false;
                }
            }
        }
        true
    }

    /// Asserts both predicates agree on every alive node; returns how many
    /// nodes are targets and how many dominate every neighbour yet are kept
    /// because one of them is gone (stale wiring).
    fn predicates_agree(graph: &PakGraph) -> (usize, usize) {
        let (mut targets, mut stale_rejections) = (0usize, 0usize);
        for (slot, node) in graph.iter_alive() {
            let verdict = is_invalidation_target(graph, node);
            assert_eq!(verdict, lookup_first_predicate(graph, node), "slot {slot}");
            targets += usize::from(verdict);
            stale_rejections +=
                usize::from(!verdict && is_invalidation_target_with(|_| Some(()), node, |()| {}));
        }
        (targets, stale_rejections)
    }

    #[test]
    fn arithmetic_first_and_lookup_first_predicates_agree_at_every_iteration() {
        let mut graph = simulated_graph();
        let mut targets = 0usize;
        at_every_iteration(&mut graph, |graph| targets += predicates_agree(graph).0);
        assert!(targets > 1_000);

        // Stale wiring on demand: remove the neighbours of would-be targets
        // behind their backs, as an earlier iteration's unmatched transfers do.
        let mut graph = simulated_graph();
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
            graph.invalidate(slot);
        }
        let (_, stale_rejections) = predicates_agree(&graph);
        assert!(stale_rejections > 100);
    }

    #[test]
    fn profile_records_every_iteration() {
        let mut graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAAC"], 5);
        let outcome = compact(&mut graph, &compact_config(0));
        assert_eq!(
            outcome.profile.iterations.len(),
            outcome.stats.iteration_count()
        );
        // Iteration 0 is always a full scan.
        let first = &outcome.profile.iterations[0];
        assert_eq!(first.checked_nodes, first.alive_nodes);
        assert_eq!(first.alive_nodes, outcome.stats.initial_nodes);
        assert!(outcome.profile.total_checked() <= outcome.profile.total_full_scan_checks());
    }

    #[test]
    fn reduction_factor_reported() {
        let mut graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAAC"], 5);
        let outcome = compact(&mut graph, &compact_config(2));
        assert!(outcome.stats.reduction_factor() > 1.0);
    }
}
