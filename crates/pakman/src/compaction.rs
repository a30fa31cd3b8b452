//! Iterative Compaction (assembly step D, Figs. 2 and 4) — the phase NMP-PaK
//! accelerates.
//!
//! Every iteration performs the three pipeline stages the paper maps onto its
//! processing elements (Fig. 10):
//!
//! 1. **P1 — invalidation check**: compute the (k-1)-mers of every neighbour and mark
//!    the node for invalidation if its own (k-1)-mer is strictly the lexicographically
//!    largest (and the node is fully interior, so no contig endpoint is lost).
//!    Iteration 0 scans every alive node; after it only the *frontier* — the
//!    destinations of the previous iteration's TransferNodes — is re-evaluated,
//!    because every other alive node's cached verdict still stands (see DESIGN.md
//!    for the invariant proof). Cut into at most [`PakmanConfig::threads`] chunks
//!    — chunk 0 on the calling thread, a helper per further chunk, and a helper
//!    only for a grain of work (§4.5), so a late iteration's (or a small graph's)
//!    checks run inline.
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
//! One driver runs that iteration over the one [`PakGraph`] for both entry
//! points: [`compact`] passes it no ledger, and
//! [`crate::shard::compact_sharded`] passes the owner ledger, which the driver
//! books from records it already holds — P1's re-check list, each transfer's
//! source slot and destination key before it is applied, and the iteration's
//! close. So there is one compiled copy of the loop, a stage-D change is made
//! in one place, and every transfer is applied by one function. All
//! per-iteration buffers live in the driver's scratch, so the untraced hot loop
//! performs no per-iteration reallocation. Iterations repeat until the alive
//! node count drops below the configured threshold, no node can be invalidated,
//! or the iteration cap is hit. Every thread count, every shard count and a chain of one-iteration
//! runs (each of whose iteration 0 is a full scan) produce bit-identical
//! statistics, traces, and contigs — the determinism contract of DESIGN.md.

use crate::config::PakmanConfig;
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::extension::Extension;
use crate::graph::PakGraph;
use crate::macronode::{MacroNode, ThroughPath};
use crate::par::{fork_join_into, plan, CHECK_LOOKAHEAD, DEST_LOOKAHEAD, GRAIN, SOURCE_LOOKAHEAD};
use crate::shard::OwnerLedger;
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
    /// node is invalidated. Panics, in release builds too, on an empty bucket:
    /// the census has drifted from the nodes it counts.
    pub(crate) fn unrecord(&mut self, size: usize) {
        let idx = Self::bucket_of(size);
        assert!(self.counts[idx] > 0, "unrecord of an empty bucket");
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
    /// and P3 per node — extraction, routing and the in-place update of every
    /// destination.
    pub p2: Duration,
    /// Wall-clock of the iteration's close: a sharded run's owner ledger enters
    /// the iteration's lanes in its flush ledger, and a traced run records its
    /// update events. Every transfer was applied in the streamed pass.
    pub p3: Duration,
    /// Invalidation predicates actually evaluated this iteration: every alive
    /// node on iteration 0, the frontier after it (a full scan evaluates
    /// [`IterationStats::alive_before`]).
    pub checked_nodes: usize,
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

/// One P1 verdict, as stage D's census folds it: the node's slot, its size and
/// whether it is invalidated. Kept at `usize` width (24 bytes) while the trace
/// narrows its copy to 32-bit fields ([`NodeCheck`]): untraced runs allocate
/// this scratch alone, and a narrower one moved glibc's steady state on
/// `asm_1t` (DESIGN.md, "Step D").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Verdict {
    slot: usize,
    size_bytes: usize,
    invalidated: bool,
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

/// Every buffer [`compact_booked`]'s loop needs, allocated once per run and
/// carried across its iterations — §4.5's "pre-allocated per-thread buffers"
/// applied to compaction: the untraced hot loop performs no per-iteration heap
/// allocation once the buffers have grown to their steady-state sizes. The
/// methods are the driver's steps, one call site each; the fields a step reads
/// are the outputs of the steps before it.
#[derive(Debug, Default)]
struct CompactionScratch {
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
    recheck: Vec<usize>,
    /// Evaluation results, aligned with `recheck`.
    check_results: Vec<Verdict>,
    /// The assembled per-alive-node check list (only populated when tracing; the
    /// trace takes ownership of it each iteration).
    checks: Vec<NodeCheck>,
    /// Slots invalidated this iteration, ascending.
    invalidated: Vec<usize>,
    /// P1's resolved neighbour ranks of chunks 1.. (chunk 0 writes `resolved`
    /// itself), appended to `resolved` in chunk (= slot) order.
    rank_buffers: Vec<Vec<Option<usize>>>,
    /// The hand-off: the slot of each transfer's destination, in the order the
    /// streamed pass produces the transfers. Written by P1 — the neighbour ranks
    /// of every node it invalidates, in (pred, succ) path order; the pass
    /// re-tests each one's aliveness as it consumes it.
    resolved: Vec<Option<usize>>,
    /// Transfers of the open iteration that did not land: destination gone, or
    /// no matching extension.
    unmatched: usize,
    /// Per-slot touched bitmap (reset via `touched_order`, not a full clear).
    touched: Vec<bool>,
    /// Destinations in first-touch order (the deterministic update-trace order).
    touched_order: Vec<usize>,
    /// The first nodes a pass takes out of their slots — up to two grains of
    /// them — parked until it ends and dropped together; the capacity stays with
    /// the run. Like the reservations of [`CompactionScratch::new`] this is for
    /// runs too small to fork, and for the allocator, not for speed: DESIGN.md,
    /// "Step D", has what these blocks do to glibc's steady state on many small
    /// assemblies, and what a per-pass block, or none, does instead.
    retired: Vec<MacroNode>,
}

impl CompactionScratch {
    /// The alive census names slots as `u32`s: a graph of more slots is
    /// [`PakmanError::InvalidConfig`], reported at `checkpoint` before the
    /// scratch is allocated.
    fn check_slot_count(slot_count: usize, checkpoint: &str) -> Result<(), PakmanError> {
        if u32::try_from(slot_count).is_ok() {
            return Ok(());
        }
        let message =
            format!("{checkpoint}: {slot_count} slots do not fit the 32-bit alive census");
        Err(PakmanError::InvalidConfig { message })
    }

    /// The scratch of a run over `graph`, whose slots passed
    /// [`CompactionScratch::check_slot_count`]: its alive census taken, its
    /// vectors reserved (why so: DESIGN.md, "Step D").
    fn new(graph: &PakGraph) -> Self {
        let slot_count = graph.slot_count();
        let alive_list: Vec<u32> = (0..slot_count as u32)
            .filter(|&slot| graph.is_alive(slot as usize))
            .collect();
        // The vectors that grow start at iteration 0's bound — an entry a node,
        // two ranks a node — for a run of up to two grains, which forks nowhere
        // and then never regrows; a larger one doubles from there as before.
        let n = alive_list.len().min(2 * GRAIN);
        CompactionScratch {
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
        }
    }

    /// Stage P1: evaluates the invalidation predicate for `recheck` (ascending),
    /// writing one result per slot into `check_results` in the same order, and
    /// the neighbour ranks of every slot whose verdict is `true` into `resolved`
    /// (slot-major, then path order, predecessor before successor — the order the
    /// streamed pass emits that slot's TransferNodes). Cut into `chunks`
    /// contiguous chunks ([`plan`] over [`GRAIN`]): `check_results` is position-aligned with the
    /// input, chunk 0 writes `resolved` itself and the helpers' rank buffers are
    /// appended in chunk order, so the chunk count cannot change either output.
    /// Each chunk hints the cache at the slot [`CHECK_LOOKAHEAD`] checks on.
    fn check(&mut self, graph: &PakGraph, chunks: usize) {
        self.check_results.clear();
        self.check_results
            .resize(self.recheck.len(), Verdict::default());
        self.resolved.clear();
        let chunk = self.recheck.len().div_ceil(chunks).max(1);
        fork_join_into(
            self.check_results
                .chunks_mut(chunk)
                .zip(self.recheck.chunks(chunk)),
            &mut self.resolved,
            &mut self.rank_buffers,
            |(out_chunk, slot_chunk), ranks| {
                for (j, (out, &slot)) in out_chunk.iter_mut().zip(slot_chunk).enumerate() {
                    if let Some(&ahead) = slot_chunk.get(j + CHECK_LOOKAHEAD) {
                        graph.prefetch(ahead);
                    }
                    let node = graph.node(slot).expect("slot is alive");
                    // The ranks are kept only when the verdict is `true` (a
                    // rejected node emits no transfers).
                    let mark = ranks.len();
                    let invalidated = is_invalidation_target_with(
                        |k1mer| graph.index_of(k1mer),
                        node,
                        |rank| ranks.push(Some(rank)),
                    );
                    if !invalidated {
                        ranks.truncate(mark);
                    }
                    *out = Verdict {
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
    fn fold_census(&mut self) {
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
    /// verdict — the list a full scan would produce; only traced runs pay this
    /// O(alive) assembly, and only they hold its 32-bit records.
    fn assemble_trace_checks(&mut self) {
        // Empty here (the trace took the last iteration's list): this sizes the
        // list exactly, one entry per alive slot.
        self.checks.reserve_exact(self.alive_list.len());
        let mut ri = 0usize;
        for &slot32 in &self.alive_list {
            let slot = slot32 as usize;
            let (size_bytes, invalidated) = match self.check_results.get(ri) {
                Some(fresh) if fresh.slot == slot => {
                    ri += 1;
                    (fresh.size_bytes, fresh.invalidated)
                }
                _ => (self.cached_size[slot], false),
            };
            self.checks
                .push(NodeCheck::new(slot, size_bytes, invalidated));
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
    /// predecessor before successor, straight into their destinations. Each is
    /// booked on `ledger`'s lane before it is applied — a dropped one too —
    /// and what reached an alive destination is recorded as it lands: the
    /// trace event (into `events`, when tracing), the next frontier (every
    /// destination a transfer lands on), the unmatched count and the
    /// first-touch update order. Returns the number of transfers delivered.
    /// Every slot the pass reads is named in advance, so it hints the cache at
    /// the source [`SOURCE_LOOKAHEAD`] visits on and the destination
    /// [`DEST_LOOKAHEAD`] transfers on.
    ///
    /// The hand-off is checked ahead of the first change to any node, in release
    /// builds too: P1 must have handed over one rank per transfer the
    /// invalidated nodes will yield (two a path — they are fully interior), or
    /// transfers would be paired with the wrong destinations.
    fn stream(
        &mut self,
        graph: &mut PakGraph,
        mut ledger: Option<&mut OwnerLedger>,
        mut events: Option<&mut Vec<TransferEvent>>,
    ) -> usize {
        let expected = Self::transfer_count(self.invalidated.iter().map(|&slot| graph.node(slot)));
        assert_eq!(
            self.resolved.len(),
            expected,
            "P1 must hand P3 one resolved rank per transfer of the nodes it invalidated"
        );
        for &slot in &self.invalidated {
            graph.retire(slot);
            self.running_hist.unrecord(self.cached_size[slot]);
        }
        Self::remove_sorted(&mut self.alive_list, &self.invalidated);
        for &slot in &self.touched_order {
            self.touched[slot] = false;
        }
        self.touched_order.clear();
        self.unmatched = 0;
        if let Some(events) = events.as_deref_mut() {
            events.reserve_exact(expected);
        }
        let parking = self.invalidated.len().min(2 * GRAIN);
        self.retired.reserve(parking);

        let mut delivered = 0usize;
        for i in 0..self.invalidated.len() {
            let source = self.invalidated[i];
            if let Some(&ahead) = self.invalidated.get(i + SOURCE_LOOKAHEAD) {
                graph.prefetch(ahead);
            }
            let node = graph.take_retired(source);
            for transfer in TransferNode::extract_all(&node) {
                if let Some(&Some(ahead)) = self.resolved.get(delivered + DEST_LOOKAHEAD) {
                    graph.prefetch(ahead);
                }
                let dest = self.resolved[delivered].filter(|&rank| graph.is_alive(rank));
                debug_assert_eq!(dest, graph.index_of(&transfer.destination));
                delivered += 1;
                if let Some(ledger) = ledger.as_deref_mut() {
                    ledger.enter(graph.slot_keys()[source], &transfer);
                }
                if let (Some(events), Some(dest_slot)) = (events.as_deref_mut(), dest) {
                    events.push(TransferEvent::new(source, dest_slot, transfer.size_bytes()));
                }
                let matched = dest.is_some_and(|slot| {
                    apply_transfer(
                        graph.node_mut(slot).expect("destination is alive"),
                        transfer,
                    )
                });
                if !matched {
                    self.unmatched += 1;
                }
                let Some(dest_slot) = dest else { continue };
                self.dirty.mark(dest_slot);
                if matched && !self.touched[dest_slot] {
                    self.touched[dest_slot] = true;
                    self.touched_order.push(dest_slot);
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

    /// The traced update records of the pass just run: one per destination a
    /// transfer landed on, in first-touch order, with the node's size after the
    /// pass. Hints the cache [`DEST_LOOKAHEAD`] destinations ahead, as the pass
    /// does, so the reads overlap instead of paying one miss each. A touched
    /// destination is alive by construction: a missing one panics, in release
    /// builds too, naming its slot.
    fn trace_updates(&self, graph: &PakGraph) -> Vec<UpdateEvent> {
        let order = &self.touched_order;
        let mut updates = Vec::with_capacity(order.len());
        for (i, &dest_slot) in order.iter().enumerate() {
            if let Some(&ahead) = order.get(i + DEST_LOOKAHEAD) {
                graph.prefetch(ahead);
            }
            let node = graph.node(dest_slot).unwrap_or_else(|| {
                panic!("touched destination {dest_slot} is not alive at the update record")
            });
            updates.push(UpdateEvent::new(dest_slot, node.size_bytes()));
        }
        updates
    }

    /// Removes the sorted slot set `removed` from the sorted `alive` list in
    /// place (one forward pass; both inputs ascending). Panics, in release
    /// builds too, if a removed slot was not in the list.
    fn remove_sorted(alive: &mut Vec<u32>, removed: &[usize]) {
        debug_assert!(removed.windows(2).all(|w| w[0] < w[1]));
        let mut rest = removed.iter().peekable();
        alive.retain(|&slot| rest.next_if(|&&gone| gone == slot as usize).is_none());
        assert!(rest.next().is_none(), "every removed slot was alive");
    }

    /// The exact length of the transfer stream the invalidated `nodes` (all
    /// fully interior) will produce: two TransferNodes per path.
    fn transfer_count<'a>(nodes: impl Iterator<Item = Option<&'a MacroNode>>) -> usize {
        2 * nodes
            .flatten()
            .map(|node| node.paths().len())
            .sum::<usize>()
    }
}

/// Runs Iterative Compaction on `graph` in place.
///
/// P1 forks over at most `config.threads` chunks (§4.5), evaluating every alive
/// node on iteration 0 and only the frontier after it; the streamed pass then
/// takes P1's resolved destinations and sends each invalidated node's
/// TransferNodes straight into them. Output is bit-identical across thread
/// counts, and to a chain of calls with `max_compaction_iterations: 1` — each
/// call's iteration 0 is a full scan, so the chain is the full-scan reference.
/// Panics on a graph of more than `u32::MAX` slots (the typed error of
/// [`compact_controlled`]).
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
    compact_booked(graph, None, config, control)
}

/// The barriered iteration loop — the one copy of it. Every iteration runs
/// frontier build → P1 → census fold → the streamed pass (retire, then P2 + P3
/// per invalidated node) → the iteration's close over `graph`'s slots, with an
/// all-chunks join after the forked P1. A sharded run passes its owner
/// `ledger`, and the loop books into it at three points: P1's re-check list,
/// each transfer before it is applied, and the close. Cancellation is
/// reported at `"sharded compaction"` when there is a ledger, at
/// `"compaction"` when there is none.
pub(crate) fn compact_booked(
    graph: &mut PakGraph,
    mut ledger: Option<&mut OwnerLedger>,
    config: &PakmanConfig,
    control: &RunControl<'_>,
) -> Result<CompactionOutcome, PakmanError> {
    let checkpoint = if ledger.is_some() {
        "sharded compaction"
    } else {
        "compaction"
    };
    let slot_count = graph.slot_count();
    CompactionScratch::check_slot_count(slot_count, checkpoint)?;
    let mut scratch = CompactionScratch::new(graph);
    let initial_nodes = scratch.alive_list.len();
    let mut trace = config.record_trace.then(|| {
        let mut sizes = vec![0usize; slot_count];
        for &slot in &scratch.alive_list {
            let node = graph.node(slot as usize).expect("slot is alive");
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

    for iteration in 0..config.max_compaction_iterations {
        control.check(checkpoint)?;
        let alive_before = scratch.alive_list.len();
        control.compaction_iteration(iteration, alive_before);
        if alive_before <= config.compaction_node_threshold {
            stats.converged = true;
            break;
        }

        // ---- Stage P1: invalidation check (parallel, read-only) ----
        let p1_start = Instant::now();
        scratch.recheck.clear();
        if iteration == 0 {
            let alive_slots = scratch.alive_list.iter().map(|&slot| slot as usize);
            scratch.recheck.extend(alive_slots);
        } else {
            // The frontier: destinations the previous iteration's transfers
            // reached, in ascending slot order. Everything else is clean and
            // keeps its cached "not a target" verdict (see DESIGN.md).
            scratch.dirty.drain_into(&mut scratch.recheck);
        }
        scratch.check(graph, plan(scratch.recheck.len(), config.threads, GRAIN));
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.checked(graph.slot_keys(), &scratch.recheck);
        }
        scratch.fold_census();
        let histogram = scratch.running_hist.clone();
        // The trace lists one NodeCheck per alive node per iteration.
        if trace.is_some() {
            scratch.assemble_trace_checks();
        }
        let p1 = p1_start.elapsed();

        // ---- Stages P2 + P3: the streamed pass, then the iteration's close ----
        // Every destination is a neighbour P1 resolved, handed over in the
        // order the pass emits the transfers: no second search.
        let p2_start = Instant::now();
        let mut transfer_events = Vec::new();
        let transfers = scratch.stream(
            graph,
            ledger.as_deref_mut(),
            trace.is_some().then_some(&mut transfer_events),
        );
        let p2 = p2_start.elapsed();
        let p3_start = Instant::now();
        if let Some(ledger) = ledger.as_deref_mut() {
            ledger.close(iteration);
        }
        let updates = if trace.is_some() {
            scratch.trace_updates(graph)
        } else {
            Vec::new()
        };
        profile.iterations.push(IterationProfile {
            iteration,
            p1,
            p2,
            p3: p3_start.elapsed(),
            checked_nodes: scratch.recheck.len(),
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

    // The incremental census is all that counts the alive nodes; cross-check
    // it against the graph's bitmap once per run, in release builds too.
    stats.final_nodes = scratch.alive_list.len();
    let alive_in_graph = (0..slot_count).filter(|&slot| graph.is_alive(slot)).count();
    assert_eq!(
        stats.final_nodes, alive_in_graph,
        "the alive census drifted from the graph"
    );
    if stats.final_nodes <= config.compaction_node_threshold {
        stats.converged = true;
    }
    Ok(CompactionOutcome {
        stats,
        trace,
        profile,
    })
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

/// [`is_invalidation_target`] generalized over the neighbour lookup: P1
/// resolves through the graph's rank index, and a test through a lookup that
/// finds every neighbour alive. `resolve` answers "alive, and where" for one
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
    resolve: impl Fn(&Kmer) -> Option<R>,
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
/// `false` if no matching extension was found.
///
/// Takes the transfer by value: the path that receives the last of its flow —
/// in the common case the one matching path, taking all of it — gets
/// `new_ext` moved in; only a transfer spread over several paths clones it.
fn apply_transfer(dest: &mut MacroNode, transfer: TransferNode) -> bool {
    let TransferNode {
        side,
        match_ext,
        new_ext,
        count,
        ..
    } = transfer;
    fn side_of(path: &mut ThroughPath, side: TransferSide) -> &mut Option<Extension> {
        match side {
            TransferSide::Predecessor => &mut path.suffix,
            TransferSide::Successor => &mut path.prefix,
        }
    }
    let mut new_ext = Some(new_ext);
    let mut remaining = count;
    let mut new_paths = Vec::new();
    let paths = dest.paths_mut();

    for path in paths.iter_mut() {
        if remaining == 0 {
            break;
        }
        if side_of(path, side).as_ref() != Some(&match_ext) {
            continue;
        }
        let take = path.count.min(remaining);
        remaining -= take;
        let ext = if remaining == 0 {
            new_ext.take()
        } else {
            new_ext.clone()
        };
        if take == path.count {
            // Whole path is redirected.
            *side_of(path, side) = ext;
        } else {
            // Split: `take` units get the new extension, the rest keeps the old one.
            path.count -= take;
            let mut split = path.clone();
            split.count = take;
            *side_of(&mut split, side) = ext;
            new_paths.push(split);
        }
    }

    paths.extend(new_paths);
    remaining < count
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
            let invalidated: std::collections::HashSet<u32> = it
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
                assert!((u.dest_slot as usize) < trace.slot_count);
            }
        }
    }

    #[test]
    fn every_update_record_is_what_the_next_iteration_checks() {
        // A destination a transfer landed on is alive, and unchanged, until the
        // next P1 re-checks it (it is on the frontier): the write-back size the
        // trace records is the size that check reads.
        let mut graph = simulated_graph();
        let trace = compact(&mut graph, &compact_config(0)).trace.unwrap();
        assert!(trace.iteration_count() >= 5);
        let mut recorded = 0usize;
        for (i, pair) in trace.iterations.windows(2).enumerate() {
            let next_checks = &pair[1].checks;
            for update in &pair[0].updates {
                let slot = update.dest_slot;
                let found = next_checks.binary_search_by_key(&slot, |check| check.slot);
                let at = found.unwrap_or_else(|_| panic!("iteration {i}: {slot} is not checked"));
                assert_eq!(next_checks[at].size_bytes, update.size_bytes, "slot {slot}");
            }
            recorded += pair[0].updates.len();
        }
        // Enough of them that the record loop's hints ran ahead and then stopped.
        assert!(recorded > 1_000, "{recorded} update records");
    }

    #[test]
    fn a_vanished_destination_is_not_recorded_as_an_empty_write_back() {
        let mut graph = graph_from_reads(&["ACGTTAC"], 5);
        let mut scratch = CompactionScratch::new(&graph);
        scratch.touched_order.extend([0, 2]);
        assert!(graph.invalidate(2).is_some());
        let record = std::panic::AssertUnwindSafe(|| scratch.trace_updates(&graph));
        let panic = std::panic::catch_unwind(record).expect_err("slot 2 is gone");
        let message = panic.downcast_ref::<String>().expect("a panic message");
        assert!(message.contains("touched destination 2"), "{message}");
    }

    #[test]
    fn an_applied_transfer_grows_an_extension_past_one_word() {
        // Two paths hold the extension a 5-unit transfer looks for (3 and 4
        // units): the first is redirected whole, the second split 2 + 2. The
        // 20-base suffix becomes 40 bases (the long form), and a successor
        // transfer then grows a prefix to 70.
        let ext = |text: &str| text.parse::<Extension>().unwrap();
        let old = "GATTACAGATTACAGATTAC";
        let grown = format!("{old}CCGTACCGTAGGATCCATGA");
        let k1mer = Kmer::from_ascii("ACGTACGTAC").unwrap();
        let mut dest = MacroNode::new(k1mer);
        dest.push_path(ThroughPath::through(ext("C"), ext(old), 3));
        dest.push_path(ThroughPath::through(ext("T"), ext("A"), 9));
        dest.push_path(ThroughPath::through(ext("G"), ext(old), 4));
        let transfer = |side, match_ext: &str, new_ext: &str, count| TransferNode {
            destination: k1mer,
            side,
            match_ext: ext(match_ext),
            new_ext: ext(new_ext),
            count,
        };
        assert!(apply_transfer(
            &mut dest,
            transfer(TransferSide::Predecessor, old, &grown, 5)
        ));
        let render = |node: &MacroNode| -> Vec<(String, String, u32)> {
            let text = |e: &Option<Extension>| e.as_ref().unwrap().to_string();
            let paths = node.paths().iter();
            paths
                .map(|p| (text(&p.prefix), text(&p.suffix), p.count))
                .collect()
        };
        let row = |prefix: &str, suffix: &str, count| (prefix.into(), suffix.into(), count);
        assert_eq!(
            render(&dest),
            [
                row("C", &grown, 3),
                row("T", "A", 9),
                row("G", old, 2),
                row("G", &grown, 2),
            ]
        );
        let mut spelled = old.parse::<DnaString>().unwrap();
        spelled.extend_from(&"CCGTACCGTAGGATCCATGA".parse().unwrap());
        assert_eq!(
            dest.paths()[0].suffix.as_ref().unwrap().to_dna_string(),
            spelled
        );

        let long_prefix = "TGCA".repeat(17) + "GG";
        assert!(apply_transfer(
            &mut dest,
            transfer(TransferSide::Successor, "T", &long_prefix, 9)
        ));
        assert_eq!(render(&dest)[1], row(&long_prefix, "A", 9));
        assert_eq!(dest.paths()[1].prefix.as_ref().unwrap().len(), 70);
        // An extension nobody holds changes nothing.
        let before = dest.clone();
        assert!(!apply_transfer(
            &mut dest,
            transfer(TransferSide::Successor, "A", &grown, 1)
        ));
        assert_eq!(dest, before);
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
        let mut scratch = CompactionScratch::new(graph);
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

    /// The simulated graph plus the hand-wired case of `tests/graph_index.rs`.
    fn graph_with_a_doomed_destination() -> PakGraph {
        crate::test_util::with_a_doomed_destination(simulated_graph().into_nodes(), 21)
    }

    #[test]
    fn the_streamed_pass_equals_the_materialised_stream() {
        // One iteration by hand — P1 on four chunks, then the streamed pass —
        // against the flow it replaced: extract every transfer, invalidate every
        // target, resolve each destination afresh, apply in stream order. On a
        // pass longer than the destination look-ahead (its hints run ahead, then
        // stop at its tail) and on one shorter (one chain node: no hint at all).
        // The pass books into a four-owner ledger as it goes.
        let chain = graph_from_reads(&["ACGTTAC"], 5);
        for (graph, long) in [(graph_with_a_doomed_destination(), true), (chain, false)] {
            let mut scratch = checks_on(&graph, &graph.alive_slots(), 4);
            scratch.fold_census();
            let invalidated = scratch.invalidated.clone();
            let hand_off = scratch.resolved.len();
            assert_eq!(hand_off > DEST_LOOKAHEAD, long, "{hand_off} transfers");

            let mut oracle = graph.clone();
            let mut stream: Vec<(usize, TransferNode)> = Vec::new();
            for &slot in &invalidated {
                let node = oracle.node(slot).expect("a target is alive");
                stream.extend(TransferNode::extract_all(node).map(|t| (slot, t)));
            }
            for &slot in &invalidated {
                oracle.invalidate(slot);
            }
            let expected: Vec<_> = stream
                .into_iter()
                .map(|(source, transfer)| {
                    let dest = oracle.index_of(&transfer.destination);
                    let matched = dest.is_some_and(|slot| {
                        apply_transfer(oracle.node_mut(slot).unwrap(), transfer.clone())
                    });
                    (source, dest, transfer, matched)
                })
                .collect();
            let dropped = expected.iter().filter(|entry| entry.1.is_none()).count();
            let unmatched = expected.iter().filter(|entry| !entry.3).count();
            if long {
                assert!(expected.len() > 1_000);
                assert_eq!(dropped, 1, "GGGG's transfer to TTTT finds it retired");
                assert!(
                    unmatched > dropped,
                    "some live destination lacks the extension"
                );
            } else {
                // GTTA alone: its one path's pair lands on CGTT and TTAC.
                assert_eq!((invalidated.len(), expected.len(), unmatched), (1, 2, 0));
            }

            let mut streamed = graph.clone();
            let mut ledger = OwnerLedger::new(&graph, 4);
            let mut events = Vec::new();
            let delivered = scratch.stream(&mut streamed, Some(&mut ledger), Some(&mut events));
            assert_eq!(delivered, expected.len());
            // The nodes the pass parked (its first two grains' worth) went with it.
            assert!(scratch.retired.is_empty());
            assert!(scratch.retired.capacity() >= invalidated.len().min(2 * GRAIN));
            for slot in 0..graph.slot_count() {
                assert_eq!(streamed.node(slot), oracle.node(slot), "slot {slot}");
                assert_eq!(streamed.is_alive(slot), oracle.is_alive(slot));
            }

            // What the pass recorded as each transfer landed is the fold of that
            // stream: events for the live destinations, the unmatched count, the
            // first-touch order, and the next frontier.
            let landed = expected.iter().filter_map(|(source, dest, transfer, _)| {
                Some(TransferEvent::new(*source, (*dest)?, transfer.size_bytes()))
            });
            assert_eq!(events, landed.collect::<Vec<_>>());
            assert_eq!(scratch.unmatched, unmatched);
            let mut first_touch: Vec<usize> = Vec::new();
            for (_, dest, _, matched) in &expected {
                if *matched && !first_touch.contains(&dest.unwrap()) {
                    first_touch.push(dest.unwrap());
                }
            }
            assert_eq!(scratch.touched_order, first_touch);
            let reached = events.iter().map(|event| event.dest_slot as usize);
            let mut reached: Vec<usize> = reached.collect();
            reached.sort_unstable();
            reached.dedup();
            let mut frontier = Vec::new();
            scratch.dirty.drain_into(&mut frontier);
            assert_eq!(frontier, reached);

            // The ledger booked every transfer of the stream, the dropped one
            // too, on the lane of its source's owner and its destination's;
            // the close flushes the busy lanes in (src, dst) order and zeroes
            // them all.
            let owner = |key: u64| nmp_pak_genome::shard_of_packed(key, 4);
            let mut lanes = [(0u64, 0u64); 16];
            for (source, _, transfer, _) in &expected {
                let src = owner(graph.slot_keys()[*source]);
                let lane = &mut lanes[src * 4 + owner(transfer.destination.packed())];
                *lane = (lane.0 + 1, lane.1 + transfer.size_bytes() as u64);
            }
            let busy = lanes.iter().enumerate().filter(|(_, lane)| lane.0 > 0);
            let flushes: Vec<_> = busy
                .map(|(i, &(transfers, bytes))| crate::shard::MailboxFlushStats {
                    src: i / 4,
                    dst: i % 4,
                    src_iteration: 7,
                    transfers,
                    bytes,
                })
                .collect();
            assert!(flushes.len() > 1, "{} busy lanes", flushes.len());
            ledger.close(7);
            ledger.close(8);
            assert_eq!(ledger.telemetry.flushes, flushes);
        }
    }

    #[test]
    fn a_short_hand_off_stops_the_pass_before_any_node_changes() {
        let graph = simulated_graph();
        let mut scratch = checks_on(&graph, &graph.alive_slots(), 1);
        scratch.fold_census();
        assert!(scratch.invalidated.len() > 100);
        scratch.resolved.pop();
        let mut victim = graph.clone();
        let pass = std::panic::AssertUnwindSafe(|| scratch.stream(&mut victim, None, None));
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
        let most = u32::MAX as usize;
        assert!(CompactionScratch::check_slot_count(most, "compaction").is_ok());
        let err = CompactionScratch::check_slot_count(most + 1, "sharded compaction")
            .expect_err("2^32 slots overflow the u32 census");
        let PakmanError::InvalidConfig { message } = err else {
            panic!("expected InvalidConfig, got {err:?}");
        };
        assert!(
            message.contains("sharded compaction: 4294967296 slots"),
            "{message}"
        );
    }

    /// Asserts that `run`, one whole compaction, took the steps of `chain`, the
    /// outcomes of one-iteration `compact` calls on the same graph: iteration by
    /// iteration the same census, verdicts, transfers and trace.
    fn assert_run_is_the_chain(run: &CompactionOutcome, chain: &[CompactionOutcome], what: &str) {
        assert_eq!(run.stats.iterations.len(), chain.len(), "{what}");
        let trace = run.trace.as_ref().expect("trace recorded");
        for (i, step) in chain.iter().enumerate() {
            let what = format!("{what}, iteration {i}");
            let it = &run.stats.iterations[i];
            assert_eq!(it.iteration, i, "{what}");
            let it = IterationStats {
                iteration: 0,
                ..it.clone()
            };
            assert_eq!(it, step.stats.iterations[0], "{what}");
            let step_trace = step.trace.as_ref().expect("trace recorded");
            assert_eq!(trace.iterations[i], step_trace.iterations[0], "{what}");
        }
    }

    #[test]
    fn frontier_matches_full_scan_bit_for_bit() {
        let reads = [
            "ACGTACCTGATCAGTTGCAACGGTTACCAGTACGATC",
            "GGGCCCAAATTTACGTAG",
        ];
        let mut chain_graph = graph_from_reads(&reads, 6);
        let original = chain_graph.clone();
        let chain = at_every_iteration(&mut chain_graph, |_| {});
        assert!(chain.len() > 1);
        for threads in [1, 2, 4, 8] {
            let mut graph = original.clone();
            let config = PakmanConfig {
                threads,
                ..compact_config(0)
            };
            let frontier = compact(&mut graph, &config);
            assert_run_is_the_chain(&frontier, &chain, &format!("threads = {threads}"));
            // The compacted graphs agree node for node.
            for slot in 0..graph.slot_count() {
                assert_eq!(graph.node(slot), chain_graph.node(slot));
            }
            // Iteration 0 is the full scan; the frontier never evaluates more
            // predicates than one.
            let checks = frontier.profile.iterations.iter();
            for ((it, stats), step) in checks.zip(&frontier.stats.iterations).zip(&chain) {
                assert_eq!(stats.alive_before, step.profile.iterations[0].checked_nodes);
                assert!(it.checked_nodes <= stats.alive_before);
            }
            assert_eq!(
                frontier.profile.iterations[0].checked_nodes,
                chain[0].profile.total_checked()
            );
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
    /// the last one, stepping one iteration per `compact` call. Each call's
    /// iteration 0 is a full scan, so the steps are the full-scan reference of
    /// the ordinary run. Returns every step's (traced) outcome; only the last
    /// invalidated nothing.
    fn at_every_iteration(
        graph: &mut PakGraph,
        mut inspect: impl FnMut(&PakGraph),
    ) -> Vec<CompactionOutcome> {
        let one_step = PakmanConfig {
            max_compaction_iterations: 1,
            ..compact_config(0)
        };
        let mut steps = Vec::new();
        loop {
            inspect(graph);
            let outcome = compact(graph, &one_step);
            let converged = outcome
                .stats
                .iterations
                .iter()
                .all(|it| it.invalidated == 0);
            steps.push(outcome);
            if converged {
                return steps;
            }
        }
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
        })
        .len()
            - 1;
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
        let first = &outcome.stats.iterations[0];
        assert_eq!(
            outcome.profile.iterations[0].checked_nodes,
            first.alive_before
        );
        assert_eq!(first.alive_before, outcome.stats.initial_nodes);
        let alive: usize = outcome
            .stats
            .iterations
            .iter()
            .map(|it| it.alive_before)
            .sum();
        assert!(outcome.profile.total_checked() <= alive);
    }

    #[test]
    #[should_panic(expected = "unrecord of an empty bucket")]
    fn unrecording_from_an_empty_bucket_panics() {
        let mut histogram = SizeHistogram::new();
        histogram.record(300);
        histogram.unrecord(100);
    }

    #[test]
    #[should_panic(expected = "every removed slot was alive")]
    fn removing_a_slot_that_is_not_alive_panics() {
        let mut alive = vec![1u32, 4, 9];
        CompactionScratch::remove_sorted(&mut alive, &[4, 7]);
    }

    #[test]
    fn reduction_factor_reported() {
        let mut graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAAC"], 5);
        let outcome = compact(&mut graph, &compact_config(2));
        assert!(outcome.stats.reduction_factor() > 1.0);
    }
}
