//! The staged assembly pipeline: Fig. 2's steps A–E as explicit [`Stage`] objects
//! with typed inter-stage artifacts.
//!
//! The monolithic `PakmanAssembler::assemble` of earlier revisions is decomposed
//! into five stages — [`AccessStage`] (A), [`CountStage`] (B), [`ConstructStage`]
//! (C), [`CompactStage`] (D) and [`WalkStage`] (E) — composed by
//! [`AssemblyPipeline`]. Each stage consumes the previous stage's artifact by
//! value, so the hand-offs are zero-copy and the compiler enforces the A→E order.
//!
//! The pipeline is split into two halves at the C/D boundary:
//!
//! * [`AssemblyPipeline::front`] runs A–C and returns a [`FrontArtifact`];
//! * [`AssemblyPipeline::finish`] runs D–E on a `FrontArtifact`.
//!
//! The job server schedules the halves as separate work units. The streaming
//! batch scheduler ([`crate::batch`]) splits one stage earlier, at B|C (a
//! crate-private split of the front half), to execute the paper's pipelined
//! process flow (§4.4–4.5, Fig. 2) with one graph resident: ingest and counting
//! (A–B) of later batches run on their own scoped threads while batch *i* is
//! built and compacted (C–D) on the calling thread. Every part is
//! deterministic, so overlapping them cannot change any output bit.
//!
//! Ingestion is pluggable: [`AccessStage`] consumes borrowed slices, borrowed
//! [`ReadChunk`]s pulled from a [`ReadSource`], or (via [`AccessStage::drain`] /
//! [`AssemblyPipeline::run_source`]) an entire streaming source.

use crate::compaction::{compact_controlled, CompactionProfile, CompactionStats};
use crate::config::{PakmanConfig, ShardConfig, SpillConfig};
use crate::contig::Contig;
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::kmer_count::{count_kmers_controlled, CountedKmer, KmerCountStats, KmerCounterConfig};
use crate::pipeline::PhaseTimings;
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
}

/// The wired, uncompacted PaK-graph in whichever execution shape stage C built
/// it: the monolithic single graph, or the owner-computes sharded graph when
/// [`ShardConfig`] engages sharded execution. Both shapes hold bit-identical
/// node content; they differ only in where compaction's work will execute.
#[derive(Debug)]
pub enum BuiltGraph {
    /// One monolithic graph (the classic path; also `shard_count == 1`).
    Single(PakGraph),
    /// One subgraph per owner-computes shard plus the global rank mapping.
    Sharded(ShardedGraph),
}

impl BuiltGraph {
    /// Number of alive MacroNodes.
    pub fn alive_count(&self) -> usize {
        match self {
            BuiltGraph::Single(graph) => graph.alive_count(),
            BuiltGraph::Sharded(sharded) => sharded.alive_count(),
        }
    }
}

/// Artifact of step C: the wired, uncompacted PaK-graph.
#[derive(Debug)]
pub struct ConstructedGraph {
    /// The freshly built graph (single or sharded — see [`BuiltGraph`]).
    pub graph: BuiltGraph,
    /// Total MacroNode bytes at construction time (footprint model input).
    pub macronode_bytes: u64,
    /// Counting statistics, carried through.
    pub kmer_stats: KmerCountStats,
    /// Read census, carried through.
    pub total_read_bases: u64,
    /// External-memory counting telemetry, carried through.
    pub spill: Option<SpillTelemetry>,
}

/// Artifact of step D: the compacted graph plus compaction telemetry.
#[derive(Debug)]
pub struct CompactedGraph {
    /// The compacted graph, always reassembled into the global slot layout
    /// (sharded runs stitch their shards back together, dead slots included,
    /// so downstream consumers see the identical structure).
    pub graph: PakGraph,
    /// Whole-run compaction statistics.
    pub stats: CompactionStats,
    /// The access trace, when [`PakmanConfig::record_trace`] was set.
    pub trace: Option<CompactionTrace>,
    /// Per-iteration stage timings and checked-node counts.
    pub profile: CompactionProfile,
    /// Measured per-shard load and mailbox traffic (sharded execution only).
    pub sharding: Option<ShardingTelemetry>,
}

/// Reads materialized from a streaming source by [`AccessStage::drain`]: step
/// A's artifact when the input is an [`impl ReadSource`](ReadSource) rather
/// than a borrowed slice.
#[derive(Debug, Clone)]
pub struct DrainedReads {
    /// The materialized reads.
    pub reads: Vec<SequencingRead>,
    /// Total number of bases across the reads.
    pub total_bases: u64,
}

/// Step A: access and distribute reads. In the single-node library this is the
/// bookkeeping pass over the read set (length census for pre-allocation); over
/// a streamed source ([`AccessStage::drain`]) it is also the ingestion pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessStage;

impl AccessStage {
    /// Runs step A over a streaming source: pulls every chunk, materializes the
    /// reads, and performs the length census. This is the convenience path for
    /// running the *unbatched* pipeline off a file — counting needs the whole
    /// batch resident, so the source is drained; bounded-memory consumers use
    /// the batch scheduler ([`crate::batch::BatchAssembler::assemble_source`]),
    /// which keeps at most its in-flight window of chunks alive.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::EmptyInput`] if the source yields no bases and
    /// propagates source I/O and parse errors.
    pub fn drain<'s, S: ReadSource<'s>>(&self, mut source: S) -> Result<DrainedReads, PakmanError> {
        let mut reads = Vec::with_capacity(source.reads_hint().0);
        while let Some(chunk) = source.next_chunk()? {
            // Move owned chunks; only borrowed ones are copied.
            reads.append(&mut chunk.into_reads());
        }
        let total_bases: u64 = reads.iter().map(|r| r.len() as u64).sum();
        if total_bases == 0 {
            return Err(PakmanError::EmptyInput {
                message: "the read source produced no bases".to_string(),
            });
        }
        Ok(DrainedReads { reads, total_bases })
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

impl<'r, 'c> Stage<&'c ReadChunk<'r>> for AccessStage {
    type Output = ReadAccess<'c>;

    fn name(&self) -> &'static str {
        "A. access & distribute reads"
    }

    fn run(&self, chunk: &'c ReadChunk<'r>) -> Result<ReadAccess<'c>, PakmanError> {
        Stage::<&'c [SequencingRead]>::run(self, chunk.reads())
    }
}

/// Step B: parallel k-mer counting (bucket-major sort/merge fused with the
/// count + prune, see DESIGN.md).
#[derive(Debug, Clone, Copy)]
pub struct CountStage {
    config: KmerCounterConfig,
    spill: SpillConfig,
    /// Owner-hash disk partitions for spill files: the shard count, so spilled
    /// runs align with shard ownership.
    partitions: usize,
}

impl CountStage {
    /// Builds the stage from the pipeline configuration.
    pub fn new(config: &PakmanConfig) -> Self {
        CountStage {
            config: KmerCounterConfig::from(config),
            spill: config.spill,
            partitions: config.shards.shard_count.max(1),
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
        let (counted, stats, spill) = count_kmers_controlled(
            access.reads,
            self.config,
            &self.spill,
            self.partitions,
            control,
        )?;
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
/// sorted counted stream; shard-parallel per-owner builds under sharded
/// execution).
#[derive(Debug, Clone, Copy)]
pub struct ConstructStage {
    k: usize,
    threads: usize,
    shards: ShardConfig,
}

impl ConstructStage {
    /// Builds the stage from the pipeline configuration.
    pub fn new(config: &PakmanConfig) -> Self {
        ConstructStage {
            k: config.k,
            threads: config.threads,
            shards: config.shards,
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
        let (graph, macronode_bytes) = if self.shards.is_sharded() {
            let (sharded, bytes) = ShardedGraph::from_counted_kmers_sized(
                &counted.counted,
                self.k,
                self.shards.shard_count,
                self.threads,
            );
            (BuiltGraph::Sharded(sharded), bytes)
        } else {
            let (graph, bytes) =
                PakGraph::from_counted_kmers_sized(&counted.counted, self.k, self.threads);
            (BuiltGraph::Single(graph), bytes)
        };
        Ok(ConstructedGraph {
            graph,
            macronode_bytes: macronode_bytes as u64,
            kmer_stats: counted.stats,
            total_read_bases: counted.total_read_bases,
            spill: counted.spill,
        })
    }
}

/// Step D: Iterative Compaction.
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
        match built.graph {
            BuiltGraph::Single(mut graph) => {
                let outcome = compact_controlled(&mut graph, &self.config, control)?;
                Ok(CompactedGraph {
                    graph,
                    stats: outcome.stats,
                    trace: outcome.trace,
                    profile: outcome.profile,
                    sharding: None,
                })
            }
            BuiltGraph::Sharded(mut sharded) => {
                let (outcome, telemetry) =
                    compact_sharded_controlled(&mut sharded, &self.config, control)?;
                Ok(CompactedGraph {
                    graph: sharded.into_global_graph(),
                    stats: outcome.stats,
                    trace: outcome.trace,
                    profile: outcome.profile,
                    sharding: Some(telemetry),
                })
            }
        }
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
/// `pakman::walk`; ~1 % of runtime in the paper's Fig. 5).
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

/// Everything the front half (stages A–C) of the pipeline produces for one batch.
///
/// This is the artifact the job server hands from its Front phase to its
/// Compact phase: it owns the constructed graph and carries the statistics and
/// partial timings the back half needs to complete an
/// [`crate::pipeline::AssemblyOutput`].
#[derive(Debug)]
pub struct FrontArtifact {
    /// The constructed (uncompacted) graph plus carried statistics.
    pub built: ConstructedGraph,
    /// Wall-clock of stage A.
    pub access_reads: Duration,
    /// Wall-clock of stage B.
    pub kmer_counting: Duration,
    /// Wall-clock of stage C.
    pub macronode_construction: Duration,
}

/// What stages A–B hand to stage C: the counted stream plus the timings so far
/// (the B|C boundary the batch scheduler splits [`FrontArtifact`]'s half at).
#[derive(Debug)]
pub(crate) struct CountedArtifact {
    counted: CountedBatch,
    access_reads: Duration,
    kmer_counting: Duration,
}

/// Everything stages A–D of the pipeline have produced for one run: the
/// compacted graph plus the carried statistics and timings stage E needs to
/// assemble the final [`crate::pipeline::AssemblyOutput`].
///
/// This is the second hand-off point (after [`FrontArtifact`] at the C/D
/// boundary): the job server schedules [`AssemblyPipeline::compact_part`] and
/// [`AssemblyPipeline::walk_part`] as separate work units, so stage work from
/// different jobs can interleave on one shared pool, and the batch scheduler
/// ([`crate::batch`]) stops every batch here — it folds the compacted graph's
/// alive nodes into its running merge and walks once.
#[derive(Debug)]
pub struct CompactArtifact {
    /// The compacted graph plus compaction telemetry.
    pub compacted: CompactedGraph,
    /// Counting statistics, carried through.
    pub kmer_stats: KmerCountStats,
    /// Read census, carried through.
    pub total_read_bases: u64,
    /// MacroNode bytes at construction time, carried through.
    pub macronode_bytes: u64,
    /// External-memory counting telemetry, carried through.
    pub spill: Option<SpillTelemetry>,
    /// Wall-clock of stage A.
    pub access_reads: Duration,
    /// Wall-clock of stage B.
    pub kmer_counting: Duration,
    /// Wall-clock of stage C.
    pub macronode_construction: Duration,
    /// Wall-clock of stage D.
    pub compaction: Duration,
}

/// The staged A–E assembly pipeline.
///
/// Validates its configuration once at construction, then exposes the whole run
/// ([`AssemblyPipeline::run`]) and the two halves the streaming batch scheduler
/// overlaps ([`AssemblyPipeline::front`], [`AssemblyPipeline::finish`]).
#[derive(Debug, Clone, Copy)]
pub struct AssemblyPipeline {
    config: PakmanConfig,
    access: AccessStage,
    count: CountStage,
    construct: ConstructStage,
    compact: CompactStage,
    walk: WalkStage,
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
            config,
            access: AccessStage,
            count: CountStage::new(&config),
            construct: ConstructStage::new(&config),
            compact: CompactStage::new(&config),
            walk: WalkStage::new(&config),
        })
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PakmanConfig {
        &self.config
    }

    /// Stage names in execution order (A–E).
    pub fn stage_names(&self) -> [&'static str; 5] {
        [
            Stage::<&[SequencingRead]>::name(&self.access),
            Stage::<ReadAccess<'_>>::name(&self.count),
            Stage::<CountedBatch>::name(&self.construct),
            Stage::<ConstructedGraph>::name(&self.compact),
            Stage::<&CompactedGraph>::name(&self.walk),
        ]
    }

    /// Runs stages A–C.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::EmptyInput`] when the reads contain no usable
    /// k-mers.
    pub fn front(&self, reads: &[SequencingRead]) -> Result<FrontArtifact, PakmanError> {
        self.front_controlled(reads, &RunControl::default())
    }

    /// [`AssemblyPipeline::front`] under a [`RunControl`]: cancellation is
    /// polled at each stage boundary (and between spill waves inside B), the
    /// observer sees `stage_started` per stage, and the spill budget chains
    /// into the control's ledger. Bit-identical to `front` under the default
    /// control.
    ///
    /// # Errors
    ///
    /// Everything `front` returns, plus [`PakmanError::Cancelled`].
    pub fn front_controlled(
        &self,
        reads: &[SequencingRead],
        control: &RunControl<'_>,
    ) -> Result<FrontArtifact, PakmanError> {
        self.construct_part(self.count_part(reads, control)?, control)
    }

    /// Stages A–B of [`AssemblyPipeline::front_controlled`]: the half that
    /// needs the reads, and the one whose footprint the spill budget bounds.
    /// The batch scheduler runs it for later batches on worker threads and
    /// drops the reads when it returns.
    pub(crate) fn count_part(
        &self,
        reads: &[SequencingRead],
        control: &RunControl<'_>,
    ) -> Result<CountedArtifact, PakmanError> {
        control.check("stage A (access reads)")?;
        control.stage_started(Stage::<&[SequencingRead]>::name(&self.access));
        let t0 = Instant::now();
        let access = self.access.run(reads)?;
        let access_reads = t0.elapsed();

        control.check("stage B (k-mer counting)")?;
        control.stage_started(Stage::<ReadAccess<'_>>::name(&self.count));
        let t1 = Instant::now();
        let counted = self.count.run_controlled(access, control)?;
        let kmer_counting = t1.elapsed();

        Ok(CountedArtifact {
            counted,
            access_reads,
            kmer_counting,
        })
    }

    /// Stage C of [`AssemblyPipeline::front_controlled`], on the thread that
    /// will compact the graph it builds.
    pub(crate) fn construct_part(
        &self,
        counted: CountedArtifact,
        control: &RunControl<'_>,
    ) -> Result<FrontArtifact, PakmanError> {
        control.check("stage C (MacroNode construction)")?;
        control.stage_started(Stage::<CountedBatch>::name(&self.construct));
        let t2 = Instant::now();
        let built = self.construct.run(counted.counted)?;
        let macronode_construction = t2.elapsed();

        Ok(FrontArtifact {
            built,
            access_reads: counted.access_reads,
            kmer_counting: counted.kmer_counting,
            macronode_construction,
        })
    }

    /// Runs stage D on a front-half artifact under a [`RunControl`]. Together
    /// with [`AssemblyPipeline::walk_part`] this is the scheduler-granular
    /// decomposition of [`AssemblyPipeline::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] when the token fires at the stage
    /// boundary or between compaction iterations.
    pub fn compact_part(
        &self,
        front: FrontArtifact,
        control: &RunControl<'_>,
    ) -> Result<CompactArtifact, PakmanError> {
        let FrontArtifact {
            built,
            access_reads,
            kmer_counting,
            macronode_construction,
        } = front;
        let kmer_stats = built.kmer_stats;
        let total_read_bases = built.total_read_bases;
        let macronode_bytes = built.macronode_bytes;
        let spill = built.spill;

        control.check("stage D (iterative compaction)")?;
        control.stage_started(Stage::<ConstructedGraph>::name(&self.compact));
        let t3 = Instant::now();
        let compacted = self.compact.run_controlled(built, control)?;
        let compaction = t3.elapsed();

        Ok(CompactArtifact {
            compacted,
            kmer_stats,
            total_read_bases,
            macronode_bytes,
            spill,
            access_reads,
            kmer_counting,
            macronode_construction,
            compaction,
        })
    }

    /// Runs stage E on a compacted artifact under a [`RunControl`] and
    /// assembles the final output.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] when the token fires at the stage
    /// boundary.
    pub fn walk_part(
        &self,
        mid: CompactArtifact,
        control: &RunControl<'_>,
    ) -> Result<crate::pipeline::AssemblyOutput, PakmanError> {
        let CompactArtifact {
            compacted,
            kmer_stats,
            total_read_bases,
            macronode_bytes,
            spill,
            access_reads,
            kmer_counting,
            macronode_construction,
            compaction,
        } = mid;

        control.check("stage E (graph walk)")?;
        control.stage_started(Stage::<&CompactedGraph>::name(&self.walk));
        let t4 = Instant::now();
        let contigs = self.walk.run(&compacted)?;
        let walk = t4.elapsed();

        let stats = crate::contig::AssemblyStats::from_contigs(&contigs);
        let footprint = crate::memory::MemoryFootprint::from_workload(
            total_read_bases,
            kmer_stats.total_kmers,
            macronode_bytes,
        );

        Ok(crate::pipeline::AssemblyOutput {
            contigs,
            stats,
            timings: PhaseTimings {
                access_reads,
                kmer_counting,
                macronode_construction,
                compaction,
                walk,
            },
            kmer_stats,
            compaction: compacted.stats,
            compaction_profile: compacted.profile,
            trace: compacted.trace,
            sharding: compacted.sharding,
            spill,
            footprint,
            graph: compacted.graph,
        })
    }

    /// Runs stages D–E on a front-half artifact and assembles the final output.
    ///
    /// # Errors
    ///
    /// Propagates stage errors (none occur for a well-formed artifact).
    pub fn finish(
        &self,
        front: FrontArtifact,
    ) -> Result<crate::pipeline::AssemblyOutput, PakmanError> {
        self.finish_controlled(front, &RunControl::default())
    }

    /// [`AssemblyPipeline::finish`] under an explicit [`RunControl`].
    ///
    /// # Errors
    ///
    /// Everything `finish` returns, plus [`PakmanError::Cancelled`].
    pub fn finish_controlled(
        &self,
        front: FrontArtifact,
        control: &RunControl<'_>,
    ) -> Result<crate::pipeline::AssemblyOutput, PakmanError> {
        self.walk_part(self.compact_part(front, control)?, control)
    }

    /// Runs the full pipeline (A–E).
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::EmptyInput`] when the reads contain no usable
    /// k-mers.
    pub fn run(
        &self,
        reads: &[SequencingRead],
    ) -> Result<crate::pipeline::AssemblyOutput, PakmanError> {
        self.finish(self.front(reads)?)
    }

    /// Runs the full pipeline (A–E) under a [`RunControl`]: cancellation at
    /// every stage boundary and between compaction iterations / spill waves,
    /// `stage_started` + `compaction_iteration` progress callbacks, budgets
    /// chained into the control's ledger. Bit-identical to
    /// [`AssemblyPipeline::run`] under the default control.
    ///
    /// # Errors
    ///
    /// Everything `run` returns, plus [`PakmanError::Cancelled`].
    pub fn run_controlled(
        &self,
        reads: &[SequencingRead],
        control: &RunControl<'_>,
    ) -> Result<crate::pipeline::AssemblyOutput, PakmanError> {
        let front = self.front_controlled(reads, control)?;
        self.walk_part(self.compact_part(front, control)?, control)
    }

    /// Runs the full pipeline (A–E) over a streaming source, draining it via
    /// [`AccessStage::drain`]. Ingestion time is charged to stage A's timing.
    ///
    /// # Errors
    ///
    /// Propagates source I/O and parse errors, and returns
    /// [`PakmanError::EmptyInput`] when the source contains no usable k-mers.
    pub fn run_source<'s>(
        &self,
        source: impl ReadSource<'s>,
    ) -> Result<crate::pipeline::AssemblyOutput, PakmanError> {
        self.run_source_controlled(source, &RunControl::default())
    }

    /// [`AssemblyPipeline::run_source`] under an explicit [`RunControl`]: the
    /// drained read bytes are charged against the control's ledger for the
    /// duration of the run, and cancellation/progress behave as in
    /// [`AssemblyPipeline::run_controlled`].
    ///
    /// # Errors
    ///
    /// Everything `run_source` returns, plus [`PakmanError::Cancelled`].
    pub fn run_source_controlled<'s>(
        &self,
        source: impl ReadSource<'s>,
        control: &RunControl<'_>,
    ) -> Result<crate::pipeline::AssemblyOutput, PakmanError> {
        let t0 = Instant::now();
        let drained = self.access.drain(source)?;
        let ingest = t0.elapsed();
        // Account the resident read set against the shared ledger while the
        // front half runs; stages B–E keep their own charges.
        let resident = control.adopt(crate::memory::MemoryBudget::unbounded());
        resident.charge(drained.total_bases);
        let result = self
            .front_controlled(&drained.reads, control)
            .map(|mut front| {
                front.access_reads += ingest;
                front
            })
            .and_then(|front| self.finish_controlled(front, control));
        resident.release(resident.used());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::reads_for;
    use nmp_pak_genome::InMemorySource;

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
        let pipeline = AssemblyPipeline::new(cfg(17)).unwrap();
        let names = pipeline.stage_names();
        assert!(names[0].starts_with("A."));
        assert!(names[1].starts_with("B."));
        assert!(names[2].starts_with("C."));
        assert!(names[3].starts_with("D."));
        assert!(names[4].starts_with("E."));
    }

    #[test]
    fn front_plus_finish_equals_run() {
        let reads = reads_for(4_000, 15.0, 101);
        let pipeline = AssemblyPipeline::new(cfg(17)).unwrap();
        let split = pipeline.finish(pipeline.front(&reads).unwrap()).unwrap();
        let whole = pipeline.run(&reads).unwrap();
        assert_eq!(split.contigs, whole.contigs);
        assert_eq!(split.stats, whole.stats);
        assert_eq!(split.kmer_stats, whole.kmer_stats);
        assert_eq!(split.compaction, whole.compaction);
        assert_eq!(split.trace, whole.trace);
    }

    #[test]
    fn artifacts_carry_the_census_through() {
        let reads = reads_for(2_000, 10.0, 7);
        let pipeline = AssemblyPipeline::new(cfg(15)).unwrap();
        let front = pipeline.front(&reads).unwrap();
        let expected: u64 = reads.iter().map(|r| r.len() as u64).sum();
        assert_eq!(front.built.total_read_bases, expected);
        assert!(front.built.macronode_bytes > 0);
        assert!(front.built.kmer_stats.total_kmers > 0);
    }

    #[test]
    fn empty_reads_fail_in_stage_a() {
        let pipeline = AssemblyPipeline::new(cfg(15)).unwrap();
        assert!(matches!(
            pipeline.front(&[]),
            Err(PakmanError::EmptyInput { .. })
        ));
    }

    #[test]
    fn sharded_pipeline_matches_single_graph_bit_for_bit() {
        let reads = reads_for(4_000, 15.0, 101);
        let single = AssemblyPipeline::new(cfg(17)).unwrap().run(&reads).unwrap();
        assert!(single.sharding.is_none());
        let sharded_cfg = PakmanConfig {
            shards: ShardConfig::per_channel(8),
            ..cfg(17)
        };
        let sharded = AssemblyPipeline::new(sharded_cfg)
            .unwrap()
            .run(&reads)
            .unwrap();
        assert_eq!(sharded.contigs, single.contigs);
        assert_eq!(sharded.stats, single.stats);
        assert_eq!(sharded.kmer_stats, single.kmer_stats);
        assert_eq!(sharded.compaction, single.compaction);
        assert_eq!(sharded.trace, single.trace);
        let telemetry = sharded.sharding.expect("sharded run records telemetry");
        assert_eq!(telemetry.shard_count, 8);
        assert!(telemetry.total_mailbox_bytes() > 0);
        // The reassembled graph preserves the global slot layout.
        assert_eq!(sharded.graph.slot_count(), single.graph.slot_count());
        for slot in 0..single.graph.slot_count() {
            assert_eq!(sharded.graph.node(slot), single.graph.node(slot));
        }
    }

    #[test]
    fn run_source_matches_run_on_the_same_reads() {
        let reads = reads_for(4_000, 15.0, 101);
        let pipeline = AssemblyPipeline::new(cfg(17)).unwrap();
        let from_slice = pipeline.run(&reads).unwrap();
        let from_source = pipeline
            .run_source(InMemorySource::chunked(&reads, 100))
            .unwrap();
        assert_eq!(from_source.contigs, from_slice.contigs);
        assert_eq!(from_source.stats, from_slice.stats);
        assert_eq!(from_source.kmer_stats, from_slice.kmer_stats);
        assert_eq!(from_source.compaction, from_slice.compaction);
    }

    #[test]
    fn access_stage_drains_sources_and_accepts_chunks() {
        let reads = reads_for(1_000, 5.0, 9);
        let drained = AccessStage
            .drain(InMemorySource::chunked(&reads, 7))
            .unwrap();
        assert_eq!(drained.reads, reads);
        let expected: u64 = reads.iter().map(|r| r.len() as u64).sum();
        assert_eq!(drained.total_bases, expected);

        let chunk = nmp_pak_genome::ReadChunk::Borrowed(&reads[..]);
        let access = Stage::<&nmp_pak_genome::ReadChunk<'_>>::run(&AccessStage, &chunk).unwrap();
        assert_eq!(access.total_bases, expected);

        assert!(matches!(
            AccessStage.drain(InMemorySource::new(&[])),
            Err(PakmanError::EmptyInput { .. })
        ));
    }
}
