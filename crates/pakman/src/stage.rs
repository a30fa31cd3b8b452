//! The staged assembly pipeline: Fig. 2's steps A–E as explicit [`Stage`] objects
//! with typed inter-stage artifacts.
//!
//! Five stages — [`AccessStage`] (A), [`CountStage`] (B), [`ConstructStage`]
//! (C), [`CompactStage`] (D) and [`WalkStage`] (E) — are composed by
//! [`AssemblyPipeline`]. Each stage consumes the previous stage's artifact by
//! value, so the hand-offs are zero-copy and the compiler enforces the A→E order.
//! The artifact is the whole hand-off: from [`CountedBatch`] on, each one also
//! carries the run's census (k-mer statistics, read bases, MacroNode bytes,
//! spill telemetry) and its [`PhaseTimings`] so far.
//!
//! [`AssemblyPipeline`] has one method per boundary — `count` (A–B),
//! `construct` (C), `compact` (D), `walk` (E) — and `run` / `run_source`
//! composing them, each under the caller's [`RunControl`]. The streaming batch
//! scheduler ([`crate::batch`]) runs `count` of later batches on their own
//! scoped threads while batch *i* goes through `construct` and `compact` on
//! the calling thread: the paper's pipelined process flow (§4.4–4.5, Fig. 2)
//! with one graph resident. Every stage is deterministic, so overlapping them
//! cannot change any output bit.
//!
//! Ingestion is pluggable: [`AccessStage`] consumes a borrowed slice, and
//! [`AccessStage::drain`] materialises any [`ReadSource`] into one.

use crate::compaction::{compact_controlled, CompactionProfile, CompactionStats};
use crate::config::{PakmanConfig, SpillConfig};
use crate::contig::{AssemblyStats, Contig};
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::kmer_count::{count_kmers_controlled, CountedKmer, KmerCountStats, KmerCounterConfig};
use crate::memory::{MemoryBudget, MemoryFootprint};
use crate::pipeline::{AssemblyOutput, PhaseTimings};
use crate::shard::{compact_sharded_controlled, ShardedGraph, ShardingTelemetry};
use crate::spill::SpillTelemetry;
use crate::trace::CompactionTrace;
use crate::walk::generate_contigs;
use nmp_pak_genome::{ReadChunk, ReadSource, SequencingRead};
use std::time::{Duration, Instant};

/// One assembly stage: a pure function from the previous stage's artifact to the
/// next, with a stable display name.
///
/// `Input` is a trait parameter (not an associated type) so borrowing stages —
/// [`AccessStage`] consumes `&[SequencingRead]` and lends it onward — can be
/// expressed without generic associated types.
pub trait Stage<Input> {
    /// The artifact this stage produces.
    type Output;

    /// Stable stage name (used by logs and the Fig. 5 phase labels).
    fn name(&self) -> &'static str;

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError`] when the stage cannot produce its artifact (empty
    /// input, invalid configuration).
    fn run(&self, input: Input) -> Result<Self::Output, PakmanError>;
}

/// Artifact of step A: the validated read set plus its length census.
#[derive(Debug, Clone, Copy)]
pub struct ReadAccess<'r> {
    /// The reads, borrowed from the caller.
    pub reads: &'r [SequencingRead],
    /// Total number of bases across the reads (used by the footprint model).
    pub total_bases: u64,
}

/// Artifact of step B: the pruned, globally sorted counted k-mer stream.
#[derive(Debug, Clone)]
pub struct CountedBatch {
    /// Counted k-mers in ascending packed order.
    pub counted: Vec<CountedKmer>,
    /// Counting statistics (totals, distinct, pruned).
    pub stats: KmerCountStats,
    /// Carried forward from [`ReadAccess`] for the footprint model.
    pub total_read_bases: u64,
    /// The counter's telemetry when it ran under a byte budget
    /// ([`SpillConfig`] bounded), `None` when it had no bound.
    pub spill: Option<SpillTelemetry>,
    /// Stage timings so far: A and B once [`AssemblyPipeline::count`] wrote
    /// them, zero when [`CountStage`] ran alone.
    pub timings: PhaseTimings,
}

/// Artifact of step C: the wired, uncompacted PaK-graph.
#[derive(Debug)]
pub struct ConstructedGraph {
    /// The freshly built graph.
    pub graph: PakGraph,
    /// Total MacroNode bytes at construction time (footprint model input).
    pub macronode_bytes: u64,
    /// Counting statistics, carried through.
    pub kmer_stats: KmerCountStats,
    /// Read census, carried through.
    pub total_read_bases: u64,
    /// External-memory counting telemetry, carried through.
    pub spill: Option<SpillTelemetry>,
    /// Stage timings, carried through (stage C's written by
    /// [`AssemblyPipeline::construct`]).
    pub timings: PhaseTimings,
}

/// Artifact of step D: the compacted graph plus compaction telemetry.
#[derive(Debug)]
pub struct CompactedGraph {
    /// The compacted graph, dead slots included, in stage C's slot layout
    /// whether or not the run was sharded. The slots are the ones the trace
    /// addresses; [`AssemblyPipeline::walk`] deletes the dead ones.
    pub graph: PakGraph,
    /// Whole-run compaction statistics.
    pub stats: CompactionStats,
    /// The access trace, when [`PakmanConfig::record_trace`] was set.
    pub trace: Option<CompactionTrace>,
    /// Per-iteration stage timings and checked-node counts.
    pub profile: CompactionProfile,
    /// Measured per-shard load and mailbox traffic (sharded execution only).
    pub sharding: Option<ShardingTelemetry>,
    /// Counting statistics, carried through.
    pub kmer_stats: KmerCountStats,
    /// Read census, carried through.
    pub total_read_bases: u64,
    /// MacroNode bytes at construction time, carried through.
    pub macronode_bytes: u64,
    /// External-memory counting telemetry, carried through.
    pub spill: Option<SpillTelemetry>,
    /// Stage timings, carried through (stage D's written by
    /// [`AssemblyPipeline::compact`]).
    pub timings: PhaseTimings,
}

/// Step A: access and distribute reads. In the single-node library this is the
/// bookkeeping pass over the read set (length census for pre-allocation); over
/// a streamed source ([`AccessStage::drain`]) it is also the ingestion pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessStage;

impl AccessStage {
    /// Pulls every chunk of a streaming source into one read set, polling
    /// `control` before each pull. This is how the *unbatched* pipeline reads
    /// a file — counting needs the whole batch resident; bounded-memory
    /// consumers use the batch scheduler
    /// ([`crate::batch::BatchAssembler::assemble_source`]), which keeps at most
    /// its in-flight window of chunks alive. An empty source drains to an empty
    /// set, which [`Stage::run`] then rejects.
    ///
    /// # Errors
    ///
    /// Propagates source I/O and parse errors, and returns
    /// [`PakmanError::Cancelled`] when the token fires between chunks.
    pub fn drain<'s>(
        &self,
        mut source: impl ReadSource<'s>,
        control: &RunControl<'_>,
    ) -> Result<Vec<SequencingRead>, PakmanError> {
        let mut reads = Vec::with_capacity(source.reads_hint().0);
        loop {
            control.check("ingest (read source)")?;
            match source.next_chunk()? {
                // Move owned chunks; only borrowed ones are copied.
                Some(chunk) => reads.append(&mut chunk.into_reads()),
                None => return Ok(reads),
            }
        }
    }
}

impl<'r> Stage<&'r [SequencingRead]> for AccessStage {
    type Output = ReadAccess<'r>;

    fn name(&self) -> &'static str {
        "A. access & distribute reads"
    }

    fn run(&self, reads: &'r [SequencingRead]) -> Result<ReadAccess<'r>, PakmanError> {
        let total_bases: u64 = reads.iter().map(|r| r.len() as u64).sum();
        if total_bases == 0 {
            return Err(PakmanError::EmptyInput {
                message: "the read set is empty".to_string(),
            });
        }
        Ok(ReadAccess { reads, total_bases })
    }
}

/// Step B: parallel k-mer counting (bucket-major: each bucket counted in a
/// table, or its spilled runs merged, then pruned; see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct CountStage {
    config: KmerCounterConfig,
    spill: SpillConfig,
}

impl CountStage {
    /// Builds the stage from the pipeline configuration.
    pub fn new(config: &PakmanConfig) -> Self {
        CountStage {
            config: KmerCounterConfig::from(config),
            spill: config.spill,
        }
    }

    /// [`Stage::run`] under a [`RunControl`]: a bounded resident budget is
    /// chained into the control's global ledger and cancellation is polled
    /// between ingest waves. Bit-identical to `run` either way.
    ///
    /// # Errors
    ///
    /// Everything `run` returns, plus [`PakmanError::Cancelled`].
    pub fn run_controlled(
        &self,
        access: ReadAccess<'_>,
        control: &RunControl<'_>,
    ) -> Result<CountedBatch, PakmanError> {
        let (counted, stats, spill) =
            count_kmers_controlled(access.reads, self.config, &self.spill, control)?;
        if counted.is_empty() {
            return Err(PakmanError::EmptyInput {
                message: format!(
                    "all k-mers were pruned (min count {})",
                    self.config.min_count
                ),
            });
        }
        Ok(CountedBatch {
            counted,
            stats,
            total_read_bases: access.total_bases,
            spill,
            timings: PhaseTimings::default(),
        })
    }
}

impl<'r> Stage<ReadAccess<'r>> for CountStage {
    type Output = CountedBatch;

    fn name(&self) -> &'static str {
        "B. k-mer counting"
    }

    fn run(&self, access: ReadAccess<'r>) -> Result<CountedBatch, PakmanError> {
        self.run_controlled(access, &RunControl::default())
    }
}

/// Step C: MacroNode construction and wiring (parallel single-pass build over the
/// sorted counted stream). A sharded run builds the same graph: its shards are
/// owners of the built graph's slots, assigned in stage D.
#[derive(Debug, Clone, Copy)]
pub struct ConstructStage {
    k: usize,
    threads: usize,
}

impl ConstructStage {
    /// Builds the stage from the pipeline configuration.
    pub fn new(config: &PakmanConfig) -> Self {
        ConstructStage {
            k: config.k,
            threads: config.threads,
        }
    }
}

impl Stage<CountedBatch> for ConstructStage {
    type Output = ConstructedGraph;

    fn name(&self) -> &'static str {
        "C. MacroNode construct & wiring"
    }

    fn run(&self, counted: CountedBatch) -> Result<ConstructedGraph, PakmanError> {
        // The builders sum the node sizes as they write the nodes, so the
        // footprint input costs no second pass over the slot vector.
        let (graph, macronode_bytes) =
            PakGraph::from_counted_kmers_sized(&counted.counted, self.k, self.threads);
        Ok(ConstructedGraph {
            graph,
            macronode_bytes: macronode_bytes as u64,
            kmer_stats: counted.stats,
            total_read_bases: counted.total_read_bases,
            spill: counted.spill,
            timings: counted.timings,
        })
    }
}

/// Step D: Iterative Compaction — [`crate::compaction::compact`], or
/// [`crate::shard::compact_sharded`] with its owner ledger when
/// [`PakmanConfig::shards`] engages sharded execution.
#[derive(Debug, Clone, Copy)]
pub struct CompactStage {
    config: PakmanConfig,
}

impl CompactStage {
    /// Builds the stage from the pipeline configuration.
    pub fn new(config: &PakmanConfig) -> Self {
        CompactStage { config: *config }
    }

    /// [`Stage::run`] under a [`RunControl`]: cancellation is polled between
    /// compaction iterations and the observer sees per-iteration progress.
    /// Bit-identical to `run` under the default control.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] when the token fires mid-compaction.
    pub fn run_controlled(
        &self,
        built: ConstructedGraph,
        control: &RunControl<'_>,
    ) -> Result<CompactedGraph, PakmanError> {
        let shards = self.config.shards;
        let (graph, outcome, sharding) = if shards.is_sharded() {
            let mut sharded = ShardedGraph::new(built.graph, shards.shard_count);
            let (outcome, telemetry) =
                compact_sharded_controlled(&mut sharded, &self.config, control)?;
            (sharded.into_global_graph(), outcome, Some(telemetry))
        } else {
            let mut graph = built.graph;
            let outcome = compact_controlled(&mut graph, &self.config, control)?;
            (graph, outcome, None)
        };
        Ok(CompactedGraph {
            graph,
            stats: outcome.stats,
            trace: outcome.trace,
            profile: outcome.profile,
            sharding,
            kmer_stats: built.kmer_stats,
            total_read_bases: built.total_read_bases,
            macronode_bytes: built.macronode_bytes,
            spill: built.spill,
            timings: built.timings,
        })
    }
}

impl Stage<ConstructedGraph> for CompactStage {
    type Output = CompactedGraph;

    fn name(&self) -> &'static str {
        "D. iterative compaction"
    }

    fn run(&self, built: ConstructedGraph) -> Result<CompactedGraph, PakmanError> {
        self.run_controlled(built, &RunControl::default())
    }
}

/// Step E: graph walk and contig generation (the serial streaming walk of
/// `pakman::walk`; ~1 % of runtime in the paper's Fig. 5). [`Stage::run`]
/// walks the graph it is given, dead slots and all; the pipeline's
/// [`AssemblyPipeline::walk`] deletes them first.
#[derive(Debug, Clone, Copy)]
pub struct WalkStage {
    min_contig_length: usize,
}

impl WalkStage {
    /// Builds the stage from the pipeline configuration.
    pub fn new(config: &PakmanConfig) -> Self {
        WalkStage {
            min_contig_length: config.min_contig_length,
        }
    }
}

impl Stage<&CompactedGraph> for WalkStage {
    type Output = Vec<Contig>;

    fn name(&self) -> &'static str {
        "E. graph walk & contig gen"
    }

    fn run(&self, compacted: &CompactedGraph) -> Result<Vec<Contig>, PakmanError> {
        Ok(generate_contigs(&compacted.graph, self.min_contig_length))
    }
}

/// The staged A–E assembly pipeline.
///
/// Validates its configuration once at construction, then runs one stage
/// boundary per method, each under the caller's [`RunControl`]: cancellation
/// is polled at every stage entry (and between spill waves in B and
/// compaction iterations in D), the observer sees `stage_started` per stage,
/// and budgets chain into the control's ledger. Under
/// [`RunControl::default`] nothing observes or cancels; the output is the same
/// bit for bit under any control that does not cancel.
#[derive(Debug, Clone, Copy)]
pub struct AssemblyPipeline {
    access: AccessStage,
    count: CountStage,
    construct: ConstructStage,
    compact: CompactStage,
    walk: WalkStage,
}

/// One stage boundary: polls the checkpoint `at`, announces the stage `name`,
/// runs it, and writes its wall-clock into `slot` of the run's [`PhaseTimings`].
fn step<T>(
    control: &RunControl<'_>,
    at: &str,
    name: &'static str,
    slot: &mut Duration,
    stage: impl FnOnce() -> Result<T, PakmanError>,
) -> Result<T, PakmanError> {
    control.check(at)?;
    control.stage_started(name);
    let t0 = Instant::now();
    let artifact = stage();
    *slot = t0.elapsed();
    artifact
}

impl AssemblyPipeline {
    /// Creates a pipeline for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: PakmanConfig) -> Result<AssemblyPipeline, PakmanError> {
        config.validate()?;
        Ok(AssemblyPipeline {
            access: AccessStage,
            count: CountStage::new(&config),
            construct: ConstructStage::new(&config),
            compact: CompactStage::new(&config),
            walk: WalkStage::new(&config),
        })
    }

    /// Stages A–B: the half that needs the reads, and the one whose footprint
    /// the spill budget bounds. The batch scheduler runs it for later batches
    /// on worker threads and drops the reads when it returns.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::EmptyInput`] when the reads hold no bases or
    /// every k-mer is pruned, and [`PakmanError::Cancelled`].
    pub fn count(
        &self,
        reads: &[SequencingRead],
        control: &RunControl<'_>,
    ) -> Result<CountedBatch, PakmanError> {
        let mut timings = PhaseTimings::default();
        let access = step(
            control,
            "stage A (access reads)",
            self.access.name(),
            &mut timings.access_reads,
            || self.access.run(reads),
        )?;
        let counted = step(
            control,
            "stage B (k-mer counting)",
            self.count.name(),
            &mut timings.kmer_counting,
            || self.count.run_controlled(access, control),
        )?;
        Ok(CountedBatch { timings, ..counted })
    }

    /// Stage C, on the thread that will compact the graph it builds.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] when the token fires at the boundary.
    pub fn construct(
        &self,
        counted: CountedBatch,
        control: &RunControl<'_>,
    ) -> Result<ConstructedGraph, PakmanError> {
        let mut timings = counted.timings;
        let built = step(
            control,
            "stage C (MacroNode construction)",
            self.construct.name(),
            &mut timings.macronode_construction,
            || self.construct.run(counted),
        )?;
        Ok(ConstructedGraph { timings, ..built })
    }

    /// Stage D. A batch stops here: the batch scheduler folds the compacted
    /// graph's alive nodes into its running merge and walks once.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] when the token fires at the boundary
    /// or between compaction iterations.
    pub fn compact(
        &self,
        built: ConstructedGraph,
        control: &RunControl<'_>,
    ) -> Result<CompactedGraph, PakmanError> {
        let mut timings = built.timings;
        let compacted = step(
            control,
            "stage D (iterative compaction)",
            self.compact.name(),
            &mut timings.compaction,
            || self.compact.run_controlled(built, control),
        )?;
        Ok(CompactedGraph {
            timings,
            ..compacted
        })
    }

    /// Stage E, then the final [`AssemblyOutput`] from the census the
    /// compacted graph carries. Compaction is done, so stage E first deletes
    /// the graph's dead slots (the deletion §4.5 defers to this point) and
    /// walks the survivors only; [`AssemblyOutput::graph`] is that graph.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] when the token fires at the boundary.
    pub fn walk(
        &self,
        mut compacted: CompactedGraph,
        control: &RunControl<'_>,
    ) -> Result<AssemblyOutput, PakmanError> {
        let mut timings = compacted.timings;
        let contigs = step(
            control,
            "stage E (graph walk)",
            self.walk.name(),
            &mut timings.walk,
            || {
                compacted.graph.purge_dead();
                self.walk.run(&compacted)
            },
        )?;
        Ok(AssemblyOutput {
            stats: AssemblyStats::from_contigs(&contigs),
            contigs,
            timings,
            kmer_stats: compacted.kmer_stats,
            compaction: compacted.stats,
            compaction_profile: compacted.profile,
            trace: compacted.trace,
            sharding: compacted.sharding,
            spill: compacted.spill,
            footprint: MemoryFootprint::from_workload(
                compacted.total_read_bases,
                compacted.kmer_stats.total_kmers,
                compacted.macronode_bytes,
            ),
            graph: compacted.graph,
        })
    }

    /// Runs the full pipeline (A–E). For the whole run the reads'
    /// [`ReadChunk::approx_read_bytes`] — the unit the batch window uses — are
    /// charged to the control's ledger and released on every exit. Stages C–E
    /// charge nothing yet: the graph is not on the ledger.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::EmptyInput`] when the reads contain no usable
    /// k-mers, and [`PakmanError::Cancelled`].
    pub fn run(
        &self,
        reads: &[SequencingRead],
        control: &RunControl<'_>,
    ) -> Result<AssemblyOutput, PakmanError> {
        let resident = control.adopt(MemoryBudget::unbounded());
        resident.charge(ReadChunk::Borrowed(reads).approx_read_bytes());
        let result = self.count(reads, control).and_then(|counted| {
            let built = self.construct(counted, control)?;
            self.walk(self.compact(built, control)?, control)
        });
        resident.release(resident.used());
        result
    }

    /// [`AssemblyPipeline::run`] over a streaming source, drained by
    /// [`AccessStage::drain`]; the drain's time is added to stage A, and the
    /// drained reads are what `run` charges to the control's ledger. Stages
    /// C–E charge nothing yet.
    ///
    /// # Errors
    ///
    /// Propagates source I/O and parse errors, and returns
    /// [`PakmanError::EmptyInput`] when the source contains no usable k-mers,
    /// and [`PakmanError::Cancelled`].
    pub fn run_source<'s>(
        &self,
        source: impl ReadSource<'s>,
        control: &RunControl<'_>,
    ) -> Result<AssemblyOutput, PakmanError> {
        let t0 = Instant::now();
        let reads = self.access.drain(source, control)?;
        let ingest = t0.elapsed();
        let mut output = self.run(&reads, control)?;
        output.timings.access_reads += ingest;
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardConfig;
    use crate::control::ProgressObserver;
    use crate::test_util::reads_for;
    use nmp_pak_genome::{GenomeError, InMemorySource};
    use std::cell::Cell;
    use std::sync::{Arc, Mutex};

    fn cfg(k: usize) -> PakmanConfig {
        PakmanConfig {
            k,
            min_kmer_count: 1,
            compaction_node_threshold: 10,
            threads: 2,
            record_trace: true,
            ..PakmanConfig::default()
        }
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        assert!(AssemblyPipeline::new(PakmanConfig {
            k: 1,
            ..PakmanConfig::default()
        })
        .is_err());
    }

    #[test]
    fn stage_names_follow_the_paper_order() {
        #[derive(Default)]
        struct Recording(Mutex<Vec<&'static str>>);
        impl ProgressObserver for Recording {
            fn stage_started(&self, stage: &'static str) {
                self.0.lock().unwrap().push(stage);
            }
        }
        let recording = Recording::default();
        let control = RunControl::default().observed_by(&recording);
        let reads = reads_for(2_000, 10.0, 7);
        AssemblyPipeline::new(cfg(15))
            .unwrap()
            .run(&reads, &control)
            .unwrap();
        let started = recording.0.into_inner().unwrap();
        let letters: Vec<&str> = started.iter().map(|name| &name[..2]).collect();
        assert_eq!(letters, ["A.", "B.", "C.", "D.", "E."], "{started:?}");
    }

    #[test]
    fn count_construct_compact_walk_equals_run() {
        let reads = reads_for(4_000, 15.0, 101);
        let pipeline = AssemblyPipeline::new(cfg(17)).unwrap();
        let none = RunControl::default();
        let counted = pipeline.count(&reads, &none).unwrap();
        let built = pipeline.construct(counted, &none).unwrap();
        let compacted = pipeline.compact(built, &none).unwrap();
        let split = pipeline.walk(compacted, &none).unwrap();
        let whole = pipeline.run(&reads, &none).unwrap();
        assert_eq!(split.contigs, whole.contigs);
        assert_eq!(split.stats, whole.stats);
        assert_eq!(split.kmer_stats, whole.kmer_stats);
        assert_eq!(split.compaction, whole.compaction);
        assert_eq!(split.trace, whole.trace);
        for t in [split.timings, whole.timings] {
            let stages = [
                t.access_reads,
                t.kmer_counting,
                t.macronode_construction,
                t.compaction,
                t.walk,
            ];
            assert!(stages.iter().all(|d| *d > Duration::ZERO), "{t:?}");
        }
    }

    #[test]
    fn artifacts_carry_the_census_through() {
        let reads = reads_for(2_000, 10.0, 7);
        let pipeline = AssemblyPipeline::new(cfg(15)).unwrap();
        let none = RunControl::default();
        let built = pipeline
            .construct(pipeline.count(&reads, &none).unwrap(), &none)
            .unwrap();
        let expected: u64 = reads.iter().map(|r| r.len() as u64).sum();
        assert_eq!(built.total_read_bases, expected);
        assert!(built.macronode_bytes > 0);
        assert!(built.kmer_stats.total_kmers > 0);
        let (kmer_stats, macronode_bytes) = (built.kmer_stats, built.macronode_bytes);
        let compacted = pipeline.compact(built, &none).unwrap();
        assert_eq!(compacted.total_read_bases, expected);
        assert_eq!(compacted.macronode_bytes, macronode_bytes);
        assert_eq!(compacted.kmer_stats, kmer_stats);
        assert!(compacted.spill.is_none());
    }

    #[test]
    fn empty_reads_fail_in_stage_a() {
        let pipeline = AssemblyPipeline::new(cfg(15)).unwrap();
        assert!(matches!(
            pipeline.count(&[], &RunControl::default()),
            Err(PakmanError::EmptyInput { .. })
        ));
    }

    #[test]
    fn sharded_pipeline_matches_single_graph_bit_for_bit() {
        let reads = reads_for(4_000, 15.0, 101);
        let none = RunControl::default();
        let compact = |pipeline: &AssemblyPipeline| {
            let counted = pipeline.count(&reads, &none).unwrap();
            let built = pipeline.construct(counted, &none).unwrap();
            pipeline.compact(built, &none).unwrap()
        };
        let single_pipeline = AssemblyPipeline::new(cfg(17)).unwrap();
        let sharded_pipeline = AssemblyPipeline::new(PakmanConfig {
            shards: ShardConfig::per_channel(8),
            ..cfg(17)
        })
        .unwrap();
        let (single, sharded) = (compact(&single_pipeline), compact(&sharded_pipeline));
        // The reassembled graph preserves the global slot layout, dead slots
        // included (stage E has not deleted them yet).
        assert!(single.graph.alive_count() < single.graph.slot_count());
        assert_eq!(sharded.graph.slot_count(), single.graph.slot_count());
        for slot in 0..single.graph.slot_count() {
            assert_eq!(sharded.graph.node(slot), single.graph.node(slot));
        }

        let single = single_pipeline.walk(single, &none).unwrap();
        let sharded = sharded_pipeline.walk(sharded, &none).unwrap();
        assert!(single.sharding.is_none());
        assert_eq!(sharded.contigs, single.contigs);
        assert_eq!(sharded.stats, single.stats);
        assert_eq!(sharded.kmer_stats, single.kmer_stats);
        assert_eq!(sharded.compaction, single.compaction);
        assert_eq!(sharded.trace, single.trace);
        let telemetry = sharded.sharding.expect("sharded run records telemetry");
        assert_eq!(telemetry.shard_count, 8);
        assert!(telemetry.total_mailbox_bytes() > 0);
    }

    #[test]
    fn run_source_matches_run_on_the_same_reads() {
        let reads = reads_for(4_000, 15.0, 101);
        let pipeline = AssemblyPipeline::new(cfg(17)).unwrap();
        let none = RunControl::default();
        let from_slice = pipeline.run(&reads, &none).unwrap();
        let from_source = pipeline
            .run_source(InMemorySource::chunked(&reads, 100), &none)
            .unwrap();
        assert_eq!(from_source.contigs, from_slice.contigs);
        assert_eq!(from_source.stats, from_slice.stats);
        assert_eq!(from_source.kmer_stats, from_slice.kmer_stats);
        assert_eq!(from_source.compaction, from_slice.compaction);
    }

    #[test]
    fn run_source_charges_the_drained_read_bytes_for_the_run() {
        // No spill bound and one graph: the drained reads are the only charge
        // the run puts on the ledger.
        let reads = reads_for(4_000, 15.0, 101);
        let ledger = Arc::new(MemoryBudget::unbounded());
        let control = RunControl::default().with_ledger(&ledger);
        AssemblyPipeline::new(cfg(17))
            .unwrap()
            .run_source(InMemorySource::chunked(&reads, 100), &control)
            .unwrap();
        assert_eq!(
            ledger.peak_bytes(),
            ReadChunk::Borrowed(&reads).approx_read_bytes()
        );
        assert_eq!(ledger.used(), 0);
    }

    #[test]
    fn run_charges_the_reads_for_the_run() {
        let reads = reads_for(4_000, 15.0, 101);
        let ledger = Arc::new(MemoryBudget::unbounded());
        let control = RunControl::default().with_ledger(&ledger);
        let pipeline = AssemblyPipeline::new(cfg(17)).unwrap();
        pipeline.run(&reads, &control).unwrap();
        let read_bytes = ReadChunk::Borrowed(&reads).approx_read_bytes();
        assert_eq!(ledger.peak_bytes(), read_bytes);
        assert_eq!(ledger.used(), 0);
        // An error exit releases the charge too.
        let short = crate::test_util::reads_from(&["ACGT"]);
        let err = pipeline.run(&short, &control).unwrap_err();
        assert!(matches!(err, PakmanError::EmptyInput { .. }), "{err:?}");
        assert_eq!(ledger.used(), 0);
    }

    #[test]
    fn access_stage_drains_sources_and_rejects_empty_reads() {
        let reads = reads_for(1_000, 5.0, 9);
        let none = RunControl::default();
        let drained = AccessStage
            .drain(InMemorySource::chunked(&reads, 7), &none)
            .unwrap();
        assert_eq!(drained, reads);

        let nothing = AccessStage.drain(InMemorySource::new(&[]), &none).unwrap();
        assert!(matches!(
            AccessStage.run(&nothing[..]),
            Err(PakmanError::EmptyInput { .. })
        ));
    }

    #[test]
    fn a_cancelled_drain_pulls_no_chunk() {
        struct Counting<'c, S>(S, &'c Cell<usize>);
        impl<'s, S: ReadSource<'s>> ReadSource<'s> for Counting<'_, S> {
            fn next_chunk(&mut self) -> Result<Option<ReadChunk<'s>>, GenomeError> {
                self.1.set(self.1.get() + 1);
                self.0.next_chunk()
            }
        }
        let reads = reads_for(1_000, 5.0, 9);
        let pulls = Cell::new(0);
        let control = RunControl::default();
        control.cancel.cancel();
        assert!(matches!(
            AccessStage.drain(
                Counting(InMemorySource::chunked(&reads, 7), &pulls),
                &control
            ),
            Err(PakmanError::Cancelled { .. })
        ));
        assert_eq!(pulls.get(), 0);
        // Uncancelled, the same wrapper sees every chunk and the final `None`.
        let drained = AccessStage
            .drain(
                Counting(InMemorySource::chunked(&reads, 7), &pulls),
                &RunControl::default(),
            )
            .unwrap();
        assert_eq!(drained, reads);
        assert_eq!(pulls.get(), reads.len().div_ceil(7) + 1);
    }
}
