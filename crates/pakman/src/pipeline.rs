//! The end-to-end PaKman assembly pipeline (Fig. 2 steps A–E) with per-phase timing.
//!
//! [`PakmanAssembler`] is the convenience facade over the staged
//! [`crate::stage::AssemblyPipeline`]: one call runs stages A–E and returns the
//! bundled [`AssemblyOutput`]. Callers that need stage-level control — the
//! streaming batch scheduler in [`crate::batch`], custom schedulers, profilers —
//! use the stage API directly.

use crate::compaction::{CompactionProfile, CompactionStats};
use crate::config::PakmanConfig;
use crate::contig::{AssemblyStats, Contig};
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::kmer_count::KmerCountStats;
use crate::memory::MemoryFootprint;
use crate::shard::ShardingTelemetry;
use crate::stage::AssemblyPipeline;
use crate::trace::CompactionTrace;
use nmp_pak_genome::{ReadSource, SequencingRead};
use std::time::Duration;

/// Wall-clock time spent in each assembly phase (the quantities behind Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Step A: accessing and distributing reads (here: partitioning / bookkeeping).
    pub access_reads: Duration,
    /// Step B: k-mer counting.
    pub kmer_counting: Duration,
    /// Step C: MacroNode construction and wiring.
    pub macronode_construction: Duration,
    /// Step D: Iterative Compaction.
    pub compaction: Duration,
    /// Step E: graph walk and contig generation.
    pub walk: Duration,
}

impl PhaseTimings {
    /// Total assembly time.
    pub fn total(&self) -> Duration {
        self.access_reads
            + self.kmer_counting
            + self.macronode_construction
            + self.compaction
            + self.walk
    }

    /// Per-phase shares of the total runtime, in the order A–E. Returns zeros if the
    /// total is zero.
    pub fn shares(&self) -> [f64; 5] {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            return [0.0; 5];
        }
        [
            self.access_reads.as_secs_f64() / total,
            self.kmer_counting.as_secs_f64() / total,
            self.macronode_construction.as_secs_f64() / total,
            self.compaction.as_secs_f64() / total,
            self.walk.as_secs_f64() / total,
        ]
    }
}

/// Everything produced by one assembly run.
#[derive(Debug, Clone)]
pub struct AssemblyOutput {
    /// The assembled contigs, longest first.
    pub contigs: Vec<Contig>,
    /// Assembly-quality statistics (N50 etc.).
    pub stats: AssemblyStats,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// k-mer counting statistics.
    pub kmer_stats: KmerCountStats,
    /// Iterative Compaction statistics.
    pub compaction: CompactionStats,
    /// Per-iteration compaction stage timings and checked-node counts (always
    /// recorded; timings vary run to run, the node counts are deterministic).
    pub compaction_profile: CompactionProfile,
    /// Compaction access trace (when requested in the configuration).
    pub trace: Option<CompactionTrace>,
    /// Measured per-shard load and inter-shard mailbox traffic, recorded when
    /// [`PakmanConfig::shards`](crate::config::ShardConfig) engages sharded
    /// execution (`None` on the single-graph path).
    pub sharding: Option<ShardingTelemetry>,
    /// External-memory counting telemetry, recorded when
    /// [`PakmanConfig::spill`](crate::config::SpillConfig) bounds the
    /// resident-byte budget (`None` on the in-memory counting path).
    pub spill: Option<crate::spill::SpillTelemetry>,
    /// Memory-footprint model for this workload.
    pub footprint: MemoryFootprint,
    /// The compacted PaK-graph, survivors only (useful for merging batches or
    /// re-walking: a walk of it gives `contigs` again). Stage E deleted its
    /// dead slots, so a slot here is a node's rank among the survivors, not
    /// the stage-D slot the `trace` addresses; the stage-D layout is
    /// [`CompactedGraph::graph`](crate::stage::CompactedGraph::graph).
    pub graph: PakGraph,
}

/// The end-to-end PaKman assembler.
///
/// # Example
///
/// ```
/// use nmp_pak_genome::{DnaString, SequencingRead};
/// use nmp_pak_pakman::{PakmanAssembler, PakmanConfig};
///
/// # fn main() -> Result<(), nmp_pak_pakman::PakmanError> {
/// let reads = vec![SequencingRead::new(
///     "r0",
///     "ACGTACCTGATCAGTTGCAACGGT".parse::<DnaString>().unwrap(),
/// )];
/// let output = PakmanAssembler::new(PakmanConfig {
///     k: 5,
///     min_kmer_count: 1,
///     threads: 1,
///     ..PakmanConfig::default()
/// })
/// .assemble(&reads)?;
/// assert_eq!(output.contigs[0].sequence.to_string(), "ACGTACCTGATCAGTTGCAACGGT");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PakmanAssembler {
    config: PakmanConfig,
}

impl PakmanAssembler {
    /// Creates an assembler with the given configuration.
    pub fn new(config: PakmanConfig) -> Self {
        PakmanAssembler { config }
    }

    /// The assembler configuration.
    pub fn config(&self) -> &PakmanConfig {
        &self.config
    }

    /// Runs the full pipeline on `reads` (stages A–E of the staged
    /// [`AssemblyPipeline`]).
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] for invalid configurations and
    /// [`PakmanError::EmptyInput`] when the reads contain no usable k-mers.
    pub fn assemble(&self, reads: &[SequencingRead]) -> Result<AssemblyOutput, PakmanError> {
        AssemblyPipeline::new(self.config)?.run(reads, &RunControl::default())
    }

    /// Runs the full pipeline over a streaming [`ReadSource`] (a FASTA/FASTQ
    /// file, a synthetic generator, chunked in-memory reads). The unbatched
    /// pipeline needs the whole read set for counting, so the source is drained
    /// by stage A; use [`crate::batch::BatchAssembler::assemble_source`] for
    /// bounded-memory streaming.
    ///
    /// # Errors
    ///
    /// Propagates source I/O and parse errors plus the errors of
    /// [`PakmanAssembler::assemble`].
    pub fn assemble_source<'s>(
        &self,
        source: impl ReadSource<'s>,
    ) -> Result<AssemblyOutput, PakmanError> {
        AssemblyPipeline::new(self.config)?.run_source(source, &RunControl::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_genome::{ReadSimulator, ReferenceGenome, SequencerConfig};

    fn simulated_reads(
        length: usize,
        coverage: f64,
        seed: u64,
    ) -> (ReferenceGenome, Vec<SequencingRead>) {
        let genome = ReferenceGenome::builder()
            .length(length)
            .no_repeats()
            .seed(seed)
            .build()
            .unwrap();
        let reads = ReadSimulator::new(SequencerConfig {
            coverage,
            substitution_error_rate: 0.0,
            seed: seed + 1,
            ..SequencerConfig::default()
        })
        .simulate(&genome)
        .unwrap();
        (genome, reads)
    }

    fn test_config(k: usize) -> PakmanConfig {
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
    fn assembles_error_free_reads_into_long_contigs() {
        let (genome, reads) = simulated_reads(8_000, 30.0, 11);
        let output = PakmanAssembler::new(test_config(21))
            .assemble(&reads)
            .unwrap();
        // The assembly should recover most of the genome with few contigs.
        assert!(
            output.stats.total_length as f64 > 0.8 * genome.len() as f64,
            "total assembled {} of genome {}",
            output.stats.total_length,
            genome.len()
        );
        // Deep compaction (threshold 10) trades contiguity for node reduction in this
        // implementation (see DESIGN.md "known deviations"); a shallower run keeps
        // long contigs.
        let shallow = PakmanAssembler::new(PakmanConfig {
            compaction_node_threshold: usize::MAX,
            ..test_config(21)
        })
        .assemble(&reads)
        .unwrap();
        assert!(
            shallow.stats.n50 as f64 > 0.2 * genome.len() as f64,
            "n50 = {}",
            shallow.stats.n50
        );
    }

    #[test]
    fn compaction_dominates_macronode_count_reduction() {
        let (_, reads) = simulated_reads(4_000, 20.0, 5);
        let output = PakmanAssembler::new(test_config(17))
            .assemble(&reads)
            .unwrap();
        assert!(output.compaction.initial_nodes > output.compaction.final_nodes);
        assert!(output.compaction.reduction_factor() > 2.0);
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let (_, reads) = simulated_reads(2_000, 15.0, 9);
        let output = PakmanAssembler::new(test_config(15))
            .assemble(&reads)
            .unwrap();
        let trace = output.trace.expect("trace requested");
        assert!(trace.iteration_count() > 0);
        assert!(trace.total_transfers() > 0);

        let mut cfg = test_config(15);
        cfg.record_trace = false;
        let output = PakmanAssembler::new(cfg).assemble(&reads).unwrap();
        assert!(output.trace.is_none());
    }

    #[test]
    fn timings_cover_all_phases() {
        let (_, reads) = simulated_reads(2_000, 10.0, 3);
        let output = PakmanAssembler::new(test_config(15))
            .assemble(&reads)
            .unwrap();
        let shares = output.timings.shares();
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(output.timings.total() > Duration::ZERO);
    }

    #[test]
    fn empty_input_is_rejected() {
        let assembler = PakmanAssembler::new(test_config(15));
        assert!(matches!(
            assembler.assemble(&[]),
            Err(PakmanError::EmptyInput { .. })
        ));
        assert!(matches!(
            crate::BatchAssembler::new(test_config(15), 0.25).assemble(&[]),
            Err(PakmanError::EmptyInput { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (_, reads) = simulated_reads(1_000, 5.0, 2);
        let assembler = PakmanAssembler::new(PakmanConfig {
            k: 1,
            ..PakmanConfig::default()
        });
        assert!(matches!(
            assembler.assemble(&reads),
            Err(PakmanError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn footprint_reflects_workload_size() {
        let (_, reads_small) = simulated_reads(2_000, 10.0, 7);
        let (_, reads_large) = simulated_reads(8_000, 10.0, 7);
        let small = PakmanAssembler::new(test_config(17))
            .assemble(&reads_small)
            .unwrap();
        let large = PakmanAssembler::new(test_config(17))
            .assemble(&reads_large)
            .unwrap();
        assert!(large.footprint.peak_bytes() > small.footprint.peak_bytes());
        assert!(large.footprint.expansion_factor() > 1.0);
    }
}
