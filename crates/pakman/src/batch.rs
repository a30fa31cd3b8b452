//! Customized batch processing (§4.4 of the paper) with overlapped batch
//! streaming (§4.5, Fig. 2) over a chunked [`ReadSource`].
//!
//! The input read stream is partitioned into batches, and what batching buys is
//! that only one batch's PaK-graph is ever resident: when a batch's Iterative
//! Compaction ends, its graph is consumed into its alive nodes (small — tens of
//! MB in the paper), those are folded into one running merged node list, and
//! the next batch's graph is built only then. This trades a lower peak memory
//! footprint against contig quality: very small batches fragment the graph
//! (k-mers split across batches fall below the pruning threshold, and the
//! per-batch compaction takes divergent routes), which is the N50-vs-batch-size
//! trade-off of Table 1.
//!
//! Ingestion is streaming: [`BatchAssembler::assemble_source`] pulls one
//! [`ReadChunk`] per batch off any [`ReadSource`] (an in-memory slice, a
//! FASTA/FASTQ file, a synthetic generator), so the full read set never has to
//! be materialized. The slice-based [`BatchAssembler::assemble`] is a thin
//! wrapper that cuts the slice into `batch_fraction`-sized read ranges and
//! streams them through a zero-copy [`nmp_pak_genome::InMemorySource`].
//!
//! Batches flow through the staged pipeline ([`crate::stage::AssemblyPipeline`])
//! under a [`BatchSchedule`]:
//!
//! * [`BatchSchedule::Sequential`] runs each batch A→D before starting the next —
//!   the original PaKman process flow: the window below with no look-ahead.
//! * [`BatchSchedule::Pipelined`] executes the paper's pipelined flow for real:
//!   while batch *i* is built and compacted (stages C–D) and folded into the
//!   merge on the calling thread, ingest and counting (stages A–B — the half
//!   that holds the reads, and whose footprint the spill budget bounds) of
//!   batches *i + 1 … i + depth* run on their own scoped threads, with the
//!   admitted read bytes bounded by `max_inflight_bytes`. A graph is built,
//!   compacted, folded and freed by one thread, so its memory goes back to the
//!   allocator arena the next graph is taken from. Depth 1 is the default.
//!
//! Stage E runs once, on the merged graph: a batch's own contigs would be
//! discarded by the merge, so no batch walks its graph.
//!
//! All schedules are **bit-identical**: every batch is a deterministic function
//! of its reads alone, and per-batch outputs are folded in batch-index order
//! regardless of completion order (the determinism contract of DESIGN.md).

use crate::compaction::CompactionStats;
use crate::config::PakmanConfig;
use crate::contig::{AssemblyStats, Contig};
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::macronode::MacroNode;
use crate::memory::{MemoryBudget, MemoryFootprint};
use crate::pipeline::PhaseTimings;
use crate::shard::ShardingTelemetry;
use crate::spill::SpillTelemetry;
use crate::stage::{AssemblyPipeline, CountedBatch};
use crate::trace::CompactionTrace;
use crate::walk::generate_contigs;
use nmp_pak_genome::shard::mix_packed;
use nmp_pak_genome::{InMemorySource, ReadChunk, ReadSource, SequencingRead};
use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A plan dividing an in-memory read set into batches.
#[derive(Debug)]
pub(crate) struct BatchPlan {
    /// Read-index ranges, one per batch.
    ranges: Vec<std::ops::Range<usize>>,
}

impl BatchPlan {
    /// Splits `read_count` reads into batches of `batch_fraction` of the input each
    /// (e.g. `0.1` → 10 batches). A fraction of 1.0 (or ≥ 1.0) yields a single batch.
    ///
    /// Every produced range is non-empty and the ranges cover `0..read_count`
    /// exactly once: a fraction small enough that the rounded batch count exceeds
    /// the read count is clamped to one read per batch.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] if the fraction is not positive and
    /// [`PakmanError::EmptyInput`] if the read count is zero.
    pub(crate) fn by_fraction(
        read_count: usize,
        batch_fraction: f64,
    ) -> Result<BatchPlan, PakmanError> {
        if batch_fraction.is_nan() || batch_fraction <= 0.0 {
            return Err(PakmanError::InvalidConfig {
                message: format!("batch fraction {batch_fraction} must be positive"),
            });
        }
        if read_count == 0 {
            return Err(PakmanError::EmptyInput {
                message: "cannot plan batches over zero reads".to_string(),
            });
        }
        let fraction = batch_fraction.min(1.0);
        // Clamp to the read count: `1.0 / fraction` can round to more batches than
        // there are reads (float→usize casts saturate, so even 1e-300 is safe),
        // and a plan must never contain an empty batch.
        let batch_count = ((1.0 / fraction).round().max(1.0) as usize).min(read_count);
        let base = read_count / batch_count;
        let remainder = read_count % batch_count;
        let mut ranges = Vec::with_capacity(batch_count);
        let mut start = 0usize;
        for i in 0..batch_count {
            let len = base + usize::from(i < remainder);
            debug_assert!(len > 0, "clamped plans have no empty batches");
            ranges.push(start..start + len);
            start += len;
        }
        debug_assert_eq!(start, read_count, "plan must cover every read exactly once");
        Ok(BatchPlan { ranges })
    }
}

/// How the batches are driven through the staged pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchSchedule {
    /// Each batch runs A→D to completion before the next batch starts (the
    /// original sequential-stage process flow): the window of
    /// [`BatchSchedule::Pipelined`] with no look-ahead and no byte budget, its
    /// one batch's read bytes charged like the window's.
    Sequential,
    /// The paper's pipelined flow as a *k*-deep software pipeline: while batch
    /// *i* runs stages C–D on the calling thread, ingest and counting (A–B) of
    /// up to `depth` later batches run concurrently on scoped worker threads.
    /// Output is bit-identical to [`BatchSchedule::Sequential`] at any depth,
    /// thread count, or budget.
    Pipelined {
        /// Maximum number of batches being counted while one batch finishes
        /// (clamped to at least 1).
        depth: usize,
        /// Budget on the approximate bytes of read data admitted to the window
        /// (see [`ReadChunk::approx_read_bytes`]). Admission of further batches
        /// stalls while the in-flight reads exceed the budget; a single batch
        /// larger than the budget is still admitted alone so the schedule always
        /// makes progress. `None` leaves the window unbounded.
        max_inflight_bytes: Option<u64>,
    },
}

impl Default for BatchSchedule {
    /// One batch being counted behind the compacting one, no byte budget.
    fn default() -> Self {
        BatchSchedule::Pipelined {
            depth: 1,
            max_inflight_bytes: None,
        }
    }
}

/// Output of a batched assembly run.
#[derive(Debug, Clone)]
pub struct BatchAssemblyOutput {
    /// Contigs generated from the merged compacted graph.
    pub contigs: Vec<Contig>,
    /// Assembly-quality statistics.
    pub stats: AssemblyStats,
    /// Per-batch compaction statistics, in batch-index order.
    pub batch_compaction: Vec<CompactionStats>,
    /// Per-batch phase timings, in batch-index order (`walk` is zero: stage E
    /// runs once, on the merged graph).
    pub batch_timings: Vec<PhaseTimings>,
    /// Per-batch compaction traces, in batch-index order (empty unless
    /// [`PakmanConfig::record_trace`] is set).
    pub batch_traces: Vec<CompactionTrace>,
    /// Per-batch sharded-execution telemetry, in batch-index order (empty
    /// unless [`crate::config::ShardConfig`] engages sharded execution).
    pub batch_sharding: Vec<ShardingTelemetry>,
    /// Per-batch external-memory counting telemetry, in batch-index order
    /// (empty unless [`crate::config::SpillConfig`] bounds the counter).
    pub batch_spill: Vec<SpillTelemetry>,
    /// Peak footprint of the largest single batch (the batched peak, §4.4).
    pub peak_batch_footprint: MemoryFootprint,
    /// Footprint the same workload would need without batching.
    pub unbatched_footprint: MemoryFootprint,
    /// Peak approximate bytes of read data concurrently admitted to the batch
    /// scheduler ([`ReadChunk::approx_read_bytes`] accounting). For a streamed
    /// source this is the ingestion memory high-water mark — bounded by
    /// [`BatchSchedule::Pipelined::max_inflight_bytes`] whenever every single
    /// batch fits the budget. A batch's bytes are released when its counting
    /// is joined: its reads are dropped at the end of stage B, before its
    /// graph is built.
    pub peak_inflight_read_bytes: u64,
    /// The merged compacted graph.
    pub merged_graph: PakGraph,
}

impl BatchAssemblyOutput {
    /// Memory-footprint reduction achieved by batching (unbatched / batched peak).
    pub fn footprint_reduction(&self) -> f64 {
        let batched = self.peak_batch_footprint.peak_bytes();
        if batched == 0 {
            return 0.0;
        }
        self.unbatched_footprint.peak_bytes() as f64 / batched as f64
    }
}

/// The running merge: all that is resident of the batches finished so far —
/// their alive nodes folded into one list, and their records (an entirely
/// pruned batch leaves none) in batch-index order.
#[derive(Debug, Default)]
struct Folded {
    /// One node per (k-1)-mer, ascending; a node several batches share carries
    /// their paths in batch order.
    nodes: Vec<MacroNode>,
    compaction: Vec<CompactionStats>,
    timings: Vec<PhaseTimings>,
    traces: Vec<CompactionTrace>,
    sharding: Vec<ShardingTelemetry>,
    spill: Vec<SpillTelemetry>,
    peak_batch_footprint: MemoryFootprint,
    /// Sums over the batches: the unbatched footprint's inputs.
    total_read_bases: u64,
    total_kmers: u64,
    total_macronode_bytes: u64,
}

impl Folded {
    /// Builds, compacts and folds one counted batch (C → D → fold) on the
    /// calling thread: the batch's graph lives from here to the end of this
    /// call and nowhere else.
    fn finish_batch(
        &mut self,
        pipeline: &AssemblyPipeline,
        counted: CountedBatch,
        control: &RunControl<'_>,
    ) -> Result<(), PakmanError> {
        let built = pipeline.construct(counted, control)?;
        let batch = pipeline.compact(built, control)?;
        self.nodes = fold_nodes(std::mem::take(&mut self.nodes), batch.graph.into_nodes());
        let total_kmers = batch.kmer_stats.total_kmers;
        let footprint = MemoryFootprint::from_workload(
            batch.total_read_bases,
            total_kmers,
            batch.macronode_bytes,
        );
        if footprint.peak_bytes() > self.peak_batch_footprint.peak_bytes() {
            self.peak_batch_footprint = footprint;
        }
        self.total_read_bases += batch.total_read_bases;
        self.total_kmers += total_kmers;
        self.total_macronode_bytes += batch.macronode_bytes;
        self.timings.push(batch.timings);
        self.compaction.push(batch.stats);
        self.traces.extend(batch.trace);
        self.sharding.extend(batch.sharding);
        self.spill.extend(batch.spill);
        Ok(())
    }
}

/// Assembles a read stream batch-by-batch and merges the compacted graphs.
#[derive(Debug, Clone)]
pub struct BatchAssembler {
    config: PakmanConfig,
    batch_fraction: f64,
    schedule: BatchSchedule,
}

impl BatchAssembler {
    /// Creates a batch assembler processing `batch_fraction` of the reads at a
    /// time, with the default depth-1 [`BatchSchedule::Pipelined`] schedule.
    pub fn new(config: PakmanConfig, batch_fraction: f64) -> Self {
        BatchAssembler::with_schedule(config, batch_fraction, BatchSchedule::default())
    }

    /// Creates a batch assembler with an explicit schedule.
    pub fn with_schedule(
        config: PakmanConfig,
        batch_fraction: f64,
        schedule: BatchSchedule,
    ) -> Self {
        BatchAssembler {
            config,
            batch_fraction,
            schedule,
        }
    }

    /// The configured batch fraction (used only by the slice-based
    /// [`BatchAssembler::assemble`]; a streamed source defines its own batch
    /// boundaries).
    pub fn batch_fraction(&self) -> f64 {
        self.batch_fraction
    }

    /// The configured schedule.
    pub fn schedule(&self) -> BatchSchedule {
        self.schedule
    }

    /// Runs the batched assembly over an in-memory read set: cuts it into
    /// batches of `batch_fraction` of the reads each and streams them zero-copy
    /// through [`BatchAssembler::assemble_source`].
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] for a bad configuration or batch
    /// fraction, then [`PakmanError::EmptyInput`] for an empty read set, as
    /// [`crate::PakmanAssembler::assemble`] does; propagates the per-batch
    /// pipeline's errors.
    pub fn assemble(&self, reads: &[SequencingRead]) -> Result<BatchAssemblyOutput, PakmanError> {
        self.config.validate()?;
        let plan = BatchPlan::by_fraction(reads.len(), self.batch_fraction)?;
        self.assemble_source(InMemorySource::with_ranges(reads, plan.ranges)?)
    }

    /// Runs the batched assembly over a streaming source, one batch per
    /// [`ReadChunk`]. The full read set is never materialized: under the
    /// pipelined schedules at most the in-flight window of chunks (plus one
    /// staged chunk when the byte budget blocks admission) is resident.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors, source I/O/parse errors, and
    /// [`PakmanError::EmptyInput`] when no batch yields any MacroNodes.
    pub fn assemble_source<'r>(
        &self,
        source: impl ReadSource<'r>,
    ) -> Result<BatchAssemblyOutput, PakmanError> {
        self.assemble_source_controlled(source, &RunControl::default())
    }

    /// [`BatchAssembler::assemble_source`] under an explicit [`RunControl`]:
    /// cancellation is polled at every batch boundary, the pipelined window's
    /// byte ledger is chained into the control's shared ledger (so a server can
    /// account all jobs against one global budget), and progress observers see
    /// per-batch stage callbacks. Passing [`RunControl::default`] is exactly
    /// [`BatchAssembler::assemble_source`].
    ///
    /// # Errors
    ///
    /// As [`BatchAssembler::assemble_source`], plus [`PakmanError::Cancelled`]
    /// when the control's token latches.
    pub fn assemble_source_controlled<'r>(
        &self,
        source: impl ReadSource<'r>,
        control: &RunControl<'_>,
    ) -> Result<BatchAssemblyOutput, PakmanError> {
        let pipeline = AssemblyPipeline::new(self.config)?;
        let (folded, peak_inflight) = match self.schedule {
            BatchSchedule::Sequential => run_window(&pipeline, source, 0, None, control)?,
            BatchSchedule::Pipelined {
                depth,
                max_inflight_bytes,
            } => run_window(&pipeline, source, depth.max(1), max_inflight_bytes, control)?,
        };
        self.merge(folded, peak_inflight)
    }

    /// Turns the running merge into the final result: one walk over the merged
    /// graph, then contig deduplication.
    fn merge(
        &self,
        folded: Folded,
        peak_inflight_read_bytes: u64,
    ) -> Result<BatchAssemblyOutput, PakmanError> {
        // A batch that is entirely pruned away contributes nothing; this can
        // happen for very small batches, which is precisely the quality
        // degradation the batching trade-off studies.
        if folded.nodes.is_empty() {
            return Err(PakmanError::EmptyInput {
                message: "no batch produced any MacroNodes".to_string(),
            });
        }

        // In the merged graph nodes sharing a (k-1)-mer have their through-path
        // lists concatenated. Because every batch covers the same genome at reduced
        // coverage, the merged graph spells each region several times; contig-level
        // deduplication keeps one copy of each assembled region.
        let merged_graph = PakGraph::from_nodes(folded.nodes, self.config.k);
        let raw_contigs = generate_contigs(&merged_graph, self.config.min_contig_length);
        let contigs = dedup_contigs(raw_contigs, self.config.k);
        let stats = AssemblyStats::from_contigs(&contigs);
        let unbatched_footprint = MemoryFootprint::from_workload(
            folded.total_read_bases,
            folded.total_kmers,
            folded.total_macronode_bytes,
        );

        Ok(BatchAssemblyOutput {
            contigs,
            stats,
            batch_compaction: folded.compaction,
            batch_timings: folded.timings,
            batch_traces: folded.traces,
            batch_sharding: folded.sharding,
            batch_spill: folded.spill,
            peak_batch_footprint: folded.peak_batch_footprint,
            unbatched_footprint,
            peak_inflight_read_bytes,
            merged_graph,
        })
    }
}

/// Runs ingest and counting (A–B) of one batch and drops its reads; an
/// entirely pruned batch yields `None`.
fn count_chunk(
    pipeline: &AssemblyPipeline,
    chunk: ReadChunk<'_>,
    control: &RunControl<'_>,
) -> Result<Option<CountedBatch>, PakmanError> {
    match pipeline.count(chunk.reads(), control) {
        Ok(counted) => Ok(Some(counted)),
        Err(PakmanError::EmptyInput { .. }) => Ok(None),
        Err(other) => Err(other),
    }
}

/// The one batch driver: an in-flight window over the batches.
///
/// While batch *i* runs C → D → fold on the calling thread, ingest and counting
/// (A–B) of batches *i + 1 … i + look_ahead* run on scoped worker threads.
/// Chunks are pulled from the source only when admitted to the window, and
/// admission stalls while the approximate in-flight read bytes exceed
/// `max_inflight_bytes` (one pulled chunk may be staged while blocked; a chunk
/// larger than the whole budget is admitted alone so the schedule cannot
/// deadlock). With no look-ahead — the sequential schedule — the window holds
/// one batch: it is admitted, its counting joined and the batch finished
/// before the next is admitted, so exactly one chunk is resident at a time.
/// Either way the admitted read bytes are charged to the control's ledger
/// while they are resident.
///
/// Counted batches are joined and finished strictly in batch-index order, so
/// the output is bit-identical at every look-ahead no matter how the threads
/// interleave.
fn run_window<'r, S: ReadSource<'r>>(
    pipeline: &AssemblyPipeline,
    mut source: S,
    look_ahead: usize,
    max_inflight_bytes: Option<u64>,
    control: &RunControl<'_>,
) -> Result<(Folded, u64), PakmanError> {
    std::thread::scope(|scope| {
        let mut folded = Folded::default();
        let mut window: Window<'_, 'r> = Window {
            inflight: VecDeque::new(),
            staged: None,
            // Chained into the shared ledger (when one is set) so a multi-job
            // server sees every window's resident read bytes in one place.
            budget: control.adopt(match max_inflight_bytes {
                Some(bytes) => MemoryBudget::bounded(bytes),
                None => MemoryBudget::unbounded(),
            }),
            exhausted: false,
            depth: look_ahead.max(1),
        };

        // The loop's errors return from this closure, not from the function, so
        // the ledger-settling cleanup below runs on every exit path.
        let result: Result<(), PakmanError> = (|| loop {
            control.check("batch loop")?;
            window.admit(scope, pipeline, &mut source, control)?;
            let Some(batch) = window.inflight.pop_front() else {
                return Ok(());
            };
            // The worker dropped the batch's reads when its counting ended.
            let joined = batch.handle.join().expect("counting worker panicked");
            window.budget.release(batch.bytes);
            let counted = joined?;
            // Admit the replacement *before* finishing, so the next batches are
            // counted while this one is built and compacted — the paper's
            // overlap of compaction with counting, `look_ahead` batches deep.
            if look_ahead > 0 {
                window.admit(scope, pipeline, &mut source, control)?;
            }
            if let Some(counted) = counted {
                folded.finish_batch(pipeline, counted, control)?;
            }
        })();
        // On error (including cancellation) the window may still hold staged or
        // in-flight charges; settle the ledger before the scope joins workers so
        // a chained global budget never leaks a dead job's bytes.
        if let Some(staged) = window.staged.take() {
            window.budget.release(staged.approx_read_bytes());
        }
        for batch in window.inflight.drain(..) {
            let _ = batch.handle.join().expect("counting worker panicked");
            window.budget.release(batch.bytes);
        }
        result?;
        Ok((folded, window.budget.peak_bytes()))
    })
}

/// One batch being counted (A–B) on a worker: the worker's handle plus the
/// admission accounting of the reads it holds.
struct Inflight<'scope> {
    bytes: u64,
    handle: std::thread::ScopedJoinHandle<'scope, Result<Option<CountedBatch>, PakmanError>>,
}

/// The pipelined scheduler's in-flight window state: the batches whose reads
/// are resident, either being counted on a worker or staged. Resident read
/// bytes are accounted through the same [`MemoryBudget`] machinery as the
/// external-memory counter's spill budget (the shared-accounting contract in
/// DESIGN.md).
struct Window<'scope, 'r> {
    inflight: VecDeque<Inflight<'scope>>,
    /// A chunk pulled from the source but blocked by the byte budget. Its bytes
    /// already count as in-flight: it is resident.
    staged: Option<ReadChunk<'r>>,
    /// Ledger over the admitted read bytes; bounded by `max_inflight_bytes`.
    budget: MemoryBudget,
    exhausted: bool,
    depth: usize,
}

impl<'scope, 'r: 'scope> Window<'scope, 'r> {
    /// Admits batches until `depth` of them are being counted, the byte budget
    /// blocks, or the source runs dry.
    fn admit<'env, S: ReadSource<'r>>(
        &mut self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        pipeline: &'scope AssemblyPipeline,
        source: &mut S,
        control: &'scope RunControl<'scope>,
    ) -> Result<(), PakmanError> {
        while self.inflight.len() < self.depth {
            let chunk = match self.staged.take() {
                Some(chunk) => chunk,
                None => {
                    if self.exhausted {
                        break;
                    }
                    match source.next_chunk()? {
                        Some(chunk) if chunk.is_empty() => continue,
                        Some(chunk) => {
                            self.budget.charge(chunk.approx_read_bytes());
                            chunk
                        }
                        None => {
                            self.exhausted = true;
                            break;
                        }
                    }
                }
            };
            if self.budget.is_over() && !self.inflight.is_empty() {
                self.staged = Some(chunk);
                break;
            }
            let bytes = chunk.approx_read_bytes();
            let handle = scope.spawn(move || count_chunk(pipeline, chunk, control));
            self.inflight.push_back(Inflight { bytes, handle });
        }
        Ok(())
    }
}

/// Drops contigs whose sequence content is already represented by longer contigs.
///
/// Contigs are accepted longest-first; a candidate is discarded when at least 80 % of
/// its k-mers already appear in accepted contigs. This is the standard containment
/// filter used when per-batch assemblies of the same genome are combined.
fn dedup_contigs(mut contigs: Vec<Contig>, k: usize) -> Vec<Contig> {
    use nmp_pak_genome::Kmer;

    let k = k.clamp(2, 31);
    contigs.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut seen: HashSet<u64, BuildHasherDefault<PackedHasher>> = HashSet::default();
    let mut kept = Vec::with_capacity(contigs.len());
    for contig in contigs {
        if contig.len() < k {
            // Too short to fingerprint; keep only if nothing comparable was kept yet.
            if kept.is_empty() {
                kept.push(contig);
            }
            continue;
        }
        // Test the windows against the set while sliding; only a contig that
        // is kept slides a second time, to enter its own.
        let windows = || {
            Kmer::iter_windows(&contig.sequence, k)
                .expect("length checked above")
                .map(|kmer| kmer.packed())
        };
        let total = contig.len() - k + 1;
        let known = windows().filter(|km| seen.contains(km)).count();
        if (known as f64) < 0.8 * total as f64 {
            seen.extend(windows());
            kept.push(contig);
        }
    }
    kept
}

/// Hashes [`dedup_contigs`]' packed k-mers with one [`mix_packed`] instead of
/// SipHash: the keys are this run's own contigs, not outside input.
#[derive(Default)]
struct PackedHasher(u64);

impl Hasher for PackedHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("the set is keyed by u64 only");
    }
    fn write_u64(&mut self, packed: u64) {
        self.0 = mix_packed(packed);
    }
}

/// Folds one batch's alive nodes (`batch`, ascending distinct (k-1)-mers — a
/// graph's slot order) into the running merge (`merged`, likewise) by a
/// two-way merge. A (k-1)-mer both sides hold keeps one node whose paths are
/// the earlier batches' followed by this batch's: folding the batches in index
/// order yields exactly what a stable sort of all their nodes by (k-1)-mer
/// followed by a scan would (`merge_nodes`, the test oracle).
fn fold_nodes(merged: Vec<MacroNode>, batch: Vec<MacroNode>) -> Vec<MacroNode> {
    if merged.is_empty() {
        return batch;
    }
    let mut out = Vec::with_capacity(merged.len() + batch.len());
    let mut merged = merged.into_iter().peekable();
    for node in batch {
        while let Some(earlier) = merged.next_if(|m| m.k1mer() < node.k1mer()) {
            out.push(earlier);
        }
        match merged.next_if(|m| m.k1mer() == node.k1mer()) {
            Some(mut earlier) => {
                for path in node.paths() {
                    earlier.push_path(path.clone());
                }
                out.push(earlier);
            }
            None => out.push(node),
        }
    }
    out.extend(merged);
    out
}

/// The sort-and-scan merge [`fold_nodes`] replaced, kept as its oracle: the
/// stable sort keeps batch order among duplicate (k-1)-mers.
#[cfg(test)]
fn merge_nodes(mut nodes: Vec<MacroNode>) -> Vec<MacroNode> {
    nodes.sort_by_key(MacroNode::k1mer);
    let mut merged: Vec<MacroNode> = Vec::with_capacity(nodes.len());
    for node in nodes {
        match merged.last_mut() {
            Some(last) if last.k1mer() == node.k1mer() => {
                for path in node.paths() {
                    last.push_path(path.clone());
                }
            }
            _ => merged.push(node),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::reads_for;

    fn cfg(k: usize) -> PakmanConfig {
        PakmanConfig {
            k,
            min_kmer_count: 1,
            compaction_node_threshold: 10,
            threads: 2,
            ..PakmanConfig::default()
        }
    }

    #[test]
    fn plan_covers_all_reads_without_overlap() {
        let plan = BatchPlan::by_fraction(1003, 0.1).unwrap();
        assert_eq!(plan.ranges.len(), 10);
        let mut covered = 0usize;
        let mut last_end = 0usize;
        for range in &plan.ranges {
            assert_eq!(range.start, last_end);
            covered += range.len();
            last_end = range.end;
        }
        assert_eq!(covered, 1003);
    }

    #[test]
    fn full_fraction_is_one_batch() {
        let plan = BatchPlan::by_fraction(100, 1.0).unwrap();
        assert_eq!(plan.ranges.len(), 1);
        let plan = BatchPlan::by_fraction(100, 5.0).unwrap();
        assert_eq!(plan.ranges.len(), 1);
    }

    #[test]
    fn fraction_with_zero_sized_tail_still_covers_every_read() {
        // 10 reads at 1/3: the rounded batch count (3) does not divide the read
        // count, so the remainder must be spread without producing an empty batch.
        let plan = BatchPlan::by_fraction(10, 1.0 / 3.0).unwrap();
        assert_eq!(plan.ranges.len(), 3);
        let mut covered = 0usize;
        for range in &plan.ranges {
            assert!(!range.is_empty(), "empty batch in {:?}", plan.ranges);
            covered += range.len();
        }
        assert_eq!(covered, 10);
        // 4 batches over 6 reads: base is 1 with remainder 2 — the naive split
        // would leave trailing zero-read batches.
        let plan = BatchPlan::by_fraction(6, 0.25).unwrap();
        assert_eq!(plan.ranges.len(), 4);
        assert!(plan.ranges.iter().all(|r| !r.is_empty()));
        assert_eq!(plan.ranges.iter().map(|r| r.len()).sum::<usize>(), 6);
    }

    #[test]
    fn more_batches_than_reads_clamps_to_one_read_per_batch() {
        let plan = BatchPlan::by_fraction(3, 0.1).unwrap();
        assert_eq!(plan.ranges.len(), 3);
        assert!(plan.ranges.iter().all(|r| r.len() == 1));
        let mut last_end = 0usize;
        for range in &plan.ranges {
            assert_eq!(range.start, last_end);
            last_end = range.end;
        }
        assert_eq!(last_end, 3);

        // Pathologically small fractions must clamp instead of allocating a
        // billion-range plan (float→usize casts saturate, then the clamp applies).
        let plan = BatchPlan::by_fraction(5, 1e-12).unwrap();
        assert_eq!(plan.ranges.len(), 5);
        assert!(plan.ranges.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(BatchPlan::by_fraction(0, 0.1).is_err());
        assert!(BatchPlan::by_fraction(10, 0.0).is_err());
        assert!(BatchPlan::by_fraction(10, -0.5).is_err());
        assert!(BatchPlan::by_fraction(10, f64::NAN).is_err());
    }

    #[test]
    fn batched_assembly_produces_contigs() {
        let reads = reads_for(6_000, 20.0, 21);
        let output = BatchAssembler::new(cfg(17), 0.25).assemble(&reads).unwrap();
        assert!(!output.contigs.is_empty());
        assert!(output.stats.total_length > 3_000);
        assert_eq!(output.batch_compaction.len(), 4);
    }

    #[test]
    fn batching_reduces_peak_footprint() {
        let reads = reads_for(6_000, 20.0, 33);
        let output = BatchAssembler::new(cfg(17), 0.2).assemble(&reads).unwrap();
        assert!(
            output.footprint_reduction() > 2.0,
            "reduction = {}",
            output.footprint_reduction()
        );
    }

    #[test]
    fn smaller_batches_do_not_improve_n50() {
        // Table 1's trend: N50 is non-increasing as the batch size shrinks.
        let reads = reads_for(8_000, 25.0, 55);
        let full = BatchAssembler::new(cfg(17), 1.0).assemble(&reads).unwrap();
        let tenth = BatchAssembler::new(cfg(17), 0.1).assemble(&reads).unwrap();
        assert!(
            tenth.stats.n50 <= full.stats.n50,
            "tenth = {}, full = {}",
            tenth.stats.n50,
            full.stats.n50
        );
    }

    #[test]
    fn single_batch_matches_unbatched_pipeline() {
        // A single batch runs the same pipeline; the only difference is the final
        // contig-containment dedup, so the assembled content must agree closely.
        let reads = reads_for(4_000, 15.0, 77);
        let unbatched = crate::pipeline::PakmanAssembler::new(cfg(17))
            .assemble(&reads)
            .unwrap();
        let single_batch = BatchAssembler::new(cfg(17), 1.0).assemble(&reads).unwrap();
        let ratio = single_batch.stats.total_length as f64 / unbatched.stats.total_length as f64;
        // The containment dedup drops reverse-strand / repeat duplicates, so the
        // single-batch total is bounded by the unbatched total but stays the same
        // order of magnitude, and the longest contig is identical.
        assert!((0.4..=1.0).contains(&ratio), "ratio = {ratio}");
        assert!(single_batch.stats.largest_contig == unbatched.stats.largest_contig);
    }

    #[test]
    fn pipelined_schedules_match_sequential_at_any_depth() {
        let reads = reads_for(6_000, 20.0, 91);
        let mut config = cfg(17);
        config.record_trace = true;
        let at_depth = |depth| BatchSchedule::Pipelined {
            depth,
            max_inflight_bytes: None,
        };
        // The default schedule on fifths of the reads, every depth on tenths.
        let sweeps = [
            (0.2, vec![BatchSchedule::default()]),
            (0.1, [0, 1, 3, 16].map(at_depth).to_vec()),
        ];
        for (fraction, schedules) in sweeps {
            let sequential =
                BatchAssembler::with_schedule(config, fraction, BatchSchedule::Sequential)
                    .assemble(&reads)
                    .unwrap();
            assert!(!sequential.batch_traces.is_empty());
            for schedule in schedules {
                let pipelined = BatchAssembler::with_schedule(config, fraction, schedule)
                    .assemble(&reads)
                    .unwrap();
                let what = format!("{schedule:?} on batches of {fraction}");
                assert_eq!(pipelined.contigs, sequential.contigs, "{what}");
                assert_eq!(pipelined.stats, sequential.stats, "{what}");
                assert_eq!(
                    pipelined.batch_compaction, sequential.batch_compaction,
                    "{what}"
                );
                assert_eq!(pipelined.batch_traces, sequential.batch_traces, "{what}");
            }
        }
    }

    #[test]
    fn folding_batches_equals_the_sort_and_scan_merge() {
        use crate::macronode::ThroughPath;
        use nmp_pak_genome::{DnaString, Kmer};

        // xorshift64*, the generator of `tests/count_props.rs`.
        let mut state = 0x00F0_1DED_u64;
        let mut below = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize) % bound
        };
        for case in 0..300 {
            // 0–6 batches over the 64 possible 3-mers, each batch holding none,
            // a quarter, half or three quarters of them (ascending, distinct)
            // with 1–3 paths a node; `count` tags every path with its origin.
            let mut tag = 0u32;
            let batches: Vec<Vec<MacroNode>> = (0..below(7))
                .map(|_| {
                    let density = below(4);
                    let mut nodes = Vec::new();
                    for packed in 0..64u64 {
                        if below(4) >= density {
                            continue;
                        }
                        let mut node = MacroNode::new(Kmer::from_packed(packed, 3));
                        for _ in 0..1 + below(3) {
                            let mut ext = || {
                                let mut dna = DnaString::new();
                                (0..1 + below(40)).for_each(|_| dna.push_code(below(4) as u8));
                                dna
                            };
                            tag += 1;
                            node.push_path(ThroughPath::through(ext(), ext(), tag));
                        }
                        nodes.push(node);
                    }
                    nodes
                })
                .collect();
            let folded = batches.iter().cloned().fold(Vec::new(), fold_nodes);
            assert_eq!(folded, merge_nodes(batches.concat()), "case {case}");
            assert!(folded.windows(2).all(|w| w[0].k1mer() < w[1].k1mer()));
        }
    }

    #[test]
    fn byte_budget_bounds_the_inflight_window() {
        let reads = reads_for(6_000, 20.0, 47);
        let unbounded = BatchAssembler::with_schedule(
            cfg(17),
            0.1,
            BatchSchedule::Pipelined {
                depth: 4,
                max_inflight_bytes: None,
            },
        )
        .assemble(&reads)
        .unwrap();
        // Budget just above one batch: the deep window degrades gracefully to
        // (nearly) one batch in flight, and the output does not change a bit.
        let one_batch_bytes = ReadChunk::Borrowed(&reads[..reads.len() / 10]).approx_read_bytes();
        let budget = one_batch_bytes * 3 / 2;
        let bounded = BatchAssembler::with_schedule(
            cfg(17),
            0.1,
            BatchSchedule::Pipelined {
                depth: 4,
                max_inflight_bytes: Some(budget),
            },
        )
        .assemble(&reads)
        .unwrap();
        assert_eq!(bounded.contigs, unbounded.contigs);
        assert_eq!(bounded.batch_compaction, unbounded.batch_compaction);
        // One admitted batch plus at most one staged chunk can be resident.
        assert!(
            bounded.peak_inflight_read_bytes <= budget + one_batch_bytes + 1024,
            "peak {} exceeds budget {budget} + one batch {one_batch_bytes}",
            bounded.peak_inflight_read_bytes
        );
        assert!(bounded.peak_inflight_read_bytes < unbounded.peak_inflight_read_bytes);
    }

    #[test]
    fn sequential_peak_is_one_batch() {
        let reads = reads_for(4_000, 15.0, 13);
        let output = BatchAssembler::with_schedule(cfg(17), 0.25, BatchSchedule::Sequential)
            .assemble(&reads)
            .unwrap();
        let whole = ReadChunk::Borrowed(&reads[..]).approx_read_bytes();
        assert!(output.peak_inflight_read_bytes > 0);
        assert!(
            output.peak_inflight_read_bytes < whole,
            "sequential peak {} should be far below the whole read set {whole}",
            output.peak_inflight_read_bytes
        );
    }

    #[test]
    fn assemble_source_uses_chunks_as_batches() {
        let reads = reads_for(6_000, 20.0, 63);
        // Boundary equality with the 0.25-fraction plan needs 4 equal chunks:
        // count-based chunking only matches by_fraction's remainder-first
        // split when 4 divides the read count.
        assert_eq!(
            reads.len() % 4,
            0,
            "pick a workload divisible into 4 batches"
        );
        let chunked = BatchAssembler::new(cfg(17), 1.0)
            .assemble_source(InMemorySource::chunked(&reads, reads.len() / 4))
            .unwrap();
        assert_eq!(chunked.batch_compaction.len(), 4);
        // The same boundaries through the slice API agree bit for bit.
        let planned = BatchAssembler::new(cfg(17), 0.25).assemble(&reads).unwrap();
        assert_eq!(chunked.contigs, planned.contigs);
        assert_eq!(chunked.batch_compaction, planned.batch_compaction);
    }

    #[test]
    fn default_schedule_is_depth_one_pipelined() {
        let assembler = BatchAssembler::new(cfg(17), 0.5);
        assert_eq!(
            assembler.schedule(),
            BatchSchedule::Pipelined {
                depth: 1,
                max_inflight_bytes: None
            }
        );
    }
}
