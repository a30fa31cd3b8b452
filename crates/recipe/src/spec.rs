//! Typed scenario cells: the fully-bound configuration one sweep cell runs.

use nmp_pak_core::backend::BackendId;
use nmp_pak_core::Workload;
use nmp_pak_genome::GenomeError;
use nmp_pak_pakman::{BatchSchedule, PakmanConfig, ShardConfig, SpillConfig};

/// Identity of one synthesized read set: genome length plus the bit patterns
/// of coverage, error rate, and seed. Cells with equal keys assemble
/// bit-identical reads.
pub type WorkloadKey = (usize, u64, u64, u64);

/// How a cell's reads move through the pipeline: one shot, or batched under
/// the pipelined [`BatchSchedule`]. The batch fraction travels with the
/// schedule because it only means something for batched runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleSpec {
    /// The whole read set in one pass (`PakmanAssembler::assemble`).
    SingleBatch,
    /// Depth-`depth` software pipelining across batches: the fronts of batches
    /// i+1 … i+depth overlap the back of batch i.
    Pipelined {
        /// Fraction of the reads per batch (0 < f ≤ 1).
        batch_fraction: f64,
        /// Number of batch fronts allowed in flight.
        depth: usize,
    },
}

impl ScheduleSpec {
    /// Whether the cell runs through the batch assembler rather than one shot.
    pub fn is_batched(&self) -> bool {
        !matches!(self, ScheduleSpec::SingleBatch)
    }

    /// Compact label used in cell ids (`single`, `pip0.5d3`, …).
    pub fn label(&self) -> String {
        match self {
            ScheduleSpec::SingleBatch => "single".to_string(),
            ScheduleSpec::Pipelined {
                batch_fraction,
                depth,
            } => format!("pip{batch_fraction}d{depth}"),
        }
    }

    /// The batch fraction plus the [`BatchSchedule`] to hand the batch
    /// assembler, or `None` for the one-shot path.
    pub fn to_batch(&self) -> Option<(f64, BatchSchedule)> {
        match *self {
            ScheduleSpec::SingleBatch => None,
            ScheduleSpec::Pipelined {
                batch_fraction,
                depth,
            } => Some((
                batch_fraction,
                BatchSchedule::Pipelined {
                    depth,
                    max_inflight_bytes: None,
                },
            )),
        }
    }

    /// The pipelining depth the schedule admits (`depth` for pipelined cells,
    /// 1 otherwise).
    pub fn depth(&self) -> usize {
        match *self {
            ScheduleSpec::Pipelined { depth, .. } => depth.max(1),
            _ => 1,
        }
    }
}

/// One fully-bound scenario: every knob a sweep can vary, with defaults that
/// mirror the hand-rolled experiment drivers (`Workload::tiny(0xBE9C)`
/// assembled by `NmpPakAssembler::default()`), so a cell that binds nothing
/// reproduces the quick-scale figure runs bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Reference genome length in bases.
    pub genome_length: usize,
    /// Sequencing coverage (×).
    pub coverage: f64,
    /// Per-base substitution error rate.
    pub error_rate: f64,
    /// Seed for the reference genome (the sequencer derives its own from it).
    pub seed: u64,
    /// K-mer length (2..=32).
    pub k: usize,
    /// Minimum k-mer multiplicity kept by counting.
    pub min_kmer_count: u32,
    /// Worker threads for the software pipeline.
    pub threads: usize,
    /// Shard count (1 = monolithic single-graph path).
    pub shards: usize,
    /// Batching strategy.
    pub schedule: ScheduleSpec,
    /// Hardware backend to simulate on the recorded trace, when any.
    pub backend: Option<BackendId>,
    /// Resident-byte cap for external-memory counting (`None` = in-memory).
    pub spill_budget: Option<u64>,
}

impl Default for ScenarioSpec {
    fn default() -> ScenarioSpec {
        ScenarioSpec {
            genome_length: 20_000,
            coverage: 20.0,
            error_rate: 0.0,
            seed: 0xBE9C,
            k: 21,
            min_kmer_count: 2,
            threads: 4,
            shards: 1,
            schedule: ScheduleSpec::SingleBatch,
            backend: None,
            spill_budget: None,
        }
    }
}

impl ScenarioSpec {
    /// A deterministic, human-readable cell id encoding every knob. Cell
    /// deduplication compares these labels, so two specs collide exactly when
    /// every field renders identically.
    pub fn label(&self) -> String {
        let spill = match self.spill_budget {
            Some(bytes) => format!("b{bytes}"),
            None => "mem".to_string(),
        };
        let backend = match self.backend {
            Some(id) => id.as_str().to_string(),
            None => "sw".to_string(),
        };
        format!(
            "g{}_x{}_e{}_s{:x}_k{}_t{}_sh{}_{}_{}_{}",
            self.genome_length,
            self.coverage,
            self.error_rate,
            self.seed,
            self.k,
            self.threads,
            self.shards,
            self.schedule.label(),
            spill,
            backend,
        )
    }

    /// The software-pipeline configuration for this cell. Trace recording is
    /// enabled exactly when a backend simulation needs the trace, matching
    /// `NmpPakAssembler` (which forces it on for its backend runs).
    pub fn pakman_config(&self) -> PakmanConfig {
        PakmanConfig {
            k: self.k,
            min_kmer_count: self.min_kmer_count,
            compaction_node_threshold: 100,
            threads: self.threads,
            shards: ShardConfig {
                shard_count: self.shards,
            },
            spill: match self.spill_budget {
                Some(bytes) => SpillConfig::bounded(bytes),
                None => SpillConfig::in_memory(),
            },
            record_trace: self.backend.is_some(),
            ..PakmanConfig::default()
        }
    }

    /// The key identifying this cell's read set: two cells with equal keys
    /// assemble bit-identical reads (the workload name does not influence
    /// read content).
    pub fn workload_key(&self) -> WorkloadKey {
        (
            self.genome_length,
            self.coverage.to_bits(),
            self.error_rate.to_bits(),
            self.seed,
        )
    }

    /// Synthesizes this cell's workload; identical parameters yield
    /// bit-identical reads regardless of the label.
    ///
    /// # Errors
    ///
    /// Propagates genome-synthesis errors (e.g. a zero-length genome).
    pub fn synthesize_workload(&self) -> Result<Workload, GenomeError> {
        Workload::synthesize(
            self.label(),
            self.genome_length,
            self.coverage,
            self.error_rate,
            self.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_core::NmpPakAssembler;

    #[test]
    fn default_spec_mirrors_the_hand_rolled_figure_drivers() {
        let spec = ScenarioSpec {
            backend: Some(BackendId::NMP_PAK),
            ..ScenarioSpec::default()
        };
        assert_eq!(spec.pakman_config(), NmpPakAssembler::default().pakman);
        let tiny = Workload::tiny(0xBE9C).unwrap();
        let ours = spec.synthesize_workload().unwrap();
        assert_eq!(ours.reads, tiny.reads);
    }

    #[test]
    fn labels_distinguish_every_knob() {
        let base = ScenarioSpec::default();
        let variants = [
            ScenarioSpec {
                k: 17,
                ..base.clone()
            },
            ScenarioSpec {
                shards: 4,
                ..base.clone()
            },
            ScenarioSpec {
                schedule: ScheduleSpec::Pipelined {
                    batch_fraction: 0.5,
                    depth: 3,
                },
                ..base.clone()
            },
            ScenarioSpec {
                spill_budget: Some(65_536),
                ..base.clone()
            },
            ScenarioSpec {
                backend: Some(BackendId::NMP_PAK),
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.label(), base.label());
        }
    }

    #[test]
    fn schedule_depth_and_batch_mapping() {
        assert_eq!(ScheduleSpec::SingleBatch.depth(), 1);
        assert!(ScheduleSpec::SingleBatch.to_batch().is_none());
        let pip = ScheduleSpec::Pipelined {
            batch_fraction: 0.25,
            depth: 3,
        };
        assert_eq!(pip.depth(), 3);
        let (fraction, schedule) = pip.to_batch().unwrap();
        assert_eq!(fraction, 0.25);
        assert!(matches!(
            schedule,
            BatchSchedule::Pipelined { depth: 3, .. }
        ));
    }
}
