//! Canonical synthetic workloads.
//!
//! The paper's workload is 10 % of the full human genome sequenced at 100× coverage
//! with 100 bp reads (Table 2). These presets reproduce the same *pipeline shape*
//! (read length, coverage, error rate, repeat content) at scales a laptop can
//! simulate; the experiment harness reports normalized quantities so the scale
//! difference does not change who wins.

use nmp_pak_genome::{
    GenomeError, InMemorySource, ReadSimulator, ReferenceGenome, RepeatSpec, SequencerConfig,
    SequencingRead,
};

/// A named workload: a read set plus, for synthesized workloads, the reference
/// genome and sequencing configuration the reads were sampled with.
///
/// A workload built by hand from reads of unknown origin (a FASTQ file, say)
/// leaves `genome` and `sequencer` at `None`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name.
    pub name: String,
    /// The reference genome the reads were sampled from, when known
    /// (synthesized workloads only).
    pub genome: Option<ReferenceGenome>,
    /// The short reads.
    pub reads: Vec<SequencingRead>,
    /// The sequencing configuration used, when the reads were simulated.
    pub sequencer: Option<SequencerConfig>,
}

impl Workload {
    /// Builds a workload from explicit parameters.
    pub fn synthesize(
        name: impl Into<String>,
        genome_length: usize,
        coverage: f64,
        error_rate: f64,
        seed: u64,
    ) -> Result<Workload, GenomeError> {
        let genome = ReferenceGenome::builder()
            .length(genome_length)
            .seed(seed)
            .repeats(vec![
                RepeatSpec::new(300, genome_length / 20_000 + 2),
                RepeatSpec::new(120, genome_length / 8_000 + 4),
            ])
            .name(name_for(genome_length))
            .build()?;
        let sequencer = SequencerConfig {
            read_length: 100,
            coverage,
            substitution_error_rate: error_rate,
            seed: seed ^ 0x5EED,
            ..SequencerConfig::default()
        };
        let reads = ReadSimulator::new(sequencer).simulate(&genome)?;
        Ok(Workload {
            name: name.into(),
            genome: Some(genome),
            reads,
            sequencer: Some(sequencer),
        })
    }

    /// A zero-copy streaming source over this workload's reads (one chunk).
    pub fn source(&self) -> InMemorySource<'_> {
        InMemorySource::new(&self.reads)
    }

    /// Length of the reference genome, when known.
    pub fn genome_length(&self) -> Option<usize> {
        self.genome.as_ref().map(ReferenceGenome::len)
    }

    /// A tiny workload for unit tests (≈ 20 kbp, 20×).
    pub fn tiny(seed: u64) -> Result<Workload, GenomeError> {
        Workload::synthesize("tiny", 20_000, 20.0, 0.0, seed)
    }

    /// A small workload for fast experiments (≈ 100 kbp, 30×).
    pub fn small(seed: u64) -> Result<Workload, GenomeError> {
        Workload::synthesize("small", 100_000, 30.0, 0.002, seed)
    }

    /// A medium workload for the headline experiments (≈ 500 kbp, 40×).
    pub fn medium(seed: u64) -> Result<Workload, GenomeError> {
        Workload::synthesize("medium", 500_000, 40.0, 0.002, seed)
    }

    /// Total bases across all reads.
    pub fn total_read_bases(&self) -> u64 {
        self.reads.iter().map(|r| r.len() as u64).sum()
    }
}

fn name_for(length: usize) -> String {
    format!("synthetic_{length}bp")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_has_expected_scale() {
        let w = Workload::tiny(1).unwrap();
        assert_eq!(w.genome_length(), Some(20_000));
        assert_eq!(w.reads.len(), 4_000);
        assert_eq!(w.total_read_bases(), 400_000);
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = Workload::tiny(5).unwrap();
        let b = Workload::tiny(5).unwrap();
        assert_eq!(a.genome, b.genome);
        assert_eq!(a.reads, b.reads);
        let c = Workload::tiny(6).unwrap();
        assert_ne!(a.reads, c.reads);
    }

    #[test]
    fn synthesize_respects_parameters() {
        let w = Workload::synthesize("x", 50_000, 10.0, 0.01, 2).unwrap();
        assert_eq!(w.genome_length(), Some(50_000));
        assert_eq!(w.reads.len(), 5_000);
        let sequencer = w
            .sequencer
            .expect("synthesized workloads record the sequencer");
        assert!((sequencer.substitution_error_rate - 0.01).abs() < 1e-12);
    }

    #[test]
    fn workload_source_round_trips() {
        let w = Workload::tiny(9).unwrap();
        let collected = nmp_pak_genome::source::collect_reads(w.source()).unwrap();
        assert_eq!(collected, w.reads);
    }
}
