//! ART-like short-read sequencing simulation.
//!
//! The paper sequences its sample DNA with the ART simulator (Table 2: 100 bp reads,
//! 100× coverage, k = 32). This module reproduces that statistical process: reads are
//! sampled uniformly from both strands of the reference genome and each base is
//! independently substituted with a configurable error probability (< 1 % for Illumina
//! short reads, per §2.1).

use crate::dna::DnaString;
use crate::error::GenomeError;
use crate::reads::SequencingRead;
use crate::reference::ReferenceGenome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the short-read simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequencerConfig {
    /// Read length in base pairs. The paper uses 100.
    pub read_length: usize,
    /// Mean sequencing coverage (average number of reads covering each base).
    /// The paper uses 100×.
    pub coverage: f64,
    /// Per-base substitution error probability. Illumina short reads are < 1 %.
    pub substitution_error_rate: f64,
    /// Probability of sampling a read from the reverse strand.
    pub reverse_strand_probability: f64,
    /// RNG seed; the same seed and genome yield the same read set.
    pub seed: u64,
}

impl Default for SequencerConfig {
    fn default() -> Self {
        SequencerConfig {
            read_length: 100,
            coverage: 100.0,
            substitution_error_rate: 0.005,
            reverse_strand_probability: 0.5,
            seed: 0xBEEF,
        }
    }
}

impl SequencerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidConfig`] if the read length is zero, coverage is
    /// not positive, or any probability lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), GenomeError> {
        if self.read_length == 0 {
            return Err(GenomeError::InvalidConfig {
                message: "read length must be positive".to_string(),
            });
        }
        if self.coverage <= 0.0 {
            return Err(GenomeError::InvalidConfig {
                message: format!("coverage {} must be positive", self.coverage),
            });
        }
        for (name, p) in [
            ("substitution error rate", self.substitution_error_rate),
            (
                "reverse strand probability",
                self.reverse_strand_probability,
            ),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(GenomeError::InvalidConfig {
                    message: format!("{name} {p} must lie in [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// Simulates Illumina-style short reads from a reference genome.
///
/// # Example
///
/// ```
/// use nmp_pak_genome::{ReferenceGenome, ReadSimulator, SequencerConfig};
///
/// # fn main() -> Result<(), nmp_pak_genome::GenomeError> {
/// let genome = ReferenceGenome::builder().length(5_000).seed(1).build()?;
/// let reads = ReadSimulator::new(SequencerConfig {
///     coverage: 10.0,
///     ..SequencerConfig::default()
/// })
/// .simulate(&genome)?;
/// // coverage * genome_len / read_len reads, up to rounding
/// assert_eq!(reads.len(), 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReadSimulator {
    config: SequencerConfig,
}

impl ReadSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SequencerConfig) -> Self {
        ReadSimulator { config }
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SequencerConfig {
        &self.config
    }

    /// Number of reads that will be produced for a genome of `genome_len` bases.
    pub fn read_count_for(&self, genome_len: usize) -> usize {
        ((genome_len as f64 * self.config.coverage) / self.config.read_length as f64).round()
            as usize
    }

    /// Samples reads from `genome` according to the configuration.
    ///
    /// # Errors
    ///
    /// * [`GenomeError::InvalidConfig`] if the configuration is invalid.
    /// * [`GenomeError::SequenceTooShort`] if the genome is shorter than one read.
    pub fn simulate(&self, genome: &ReferenceGenome) -> Result<Vec<SequencingRead>, GenomeError> {
        self.config.validate()?;
        let seq = genome.sequence();
        if seq.len() < self.config.read_length {
            return Err(GenomeError::SequenceTooShort {
                actual: seq.len(),
                required: self.config.read_length,
            });
        }

        let n_reads = self.read_count_for(seq.len());
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut reads = Vec::with_capacity(n_reads);
        for idx in 0..n_reads {
            reads.push(sample_read(&self.config, genome, &mut rng, idx));
        }
        Ok(reads)
    }
}

/// Samples one read from `genome` — the shared per-read step of
/// [`ReadSimulator::simulate`] and the streaming
/// [`crate::source::SyntheticSource`]. Both draw from the same RNG stream, so a
/// chunked source concatenates to exactly the simulator's read set.
///
/// The configuration must be validated and the genome at least one read long.
pub(crate) fn sample_read(
    config: &SequencerConfig,
    genome: &ReferenceGenome,
    rng: &mut StdRng,
    idx: usize,
) -> SequencingRead {
    let seq = genome.sequence();
    let max_start = seq.len() - config.read_length;
    let start = rng.gen_range(0..=max_start);
    let reverse = rng.gen_bool(config.reverse_strand_probability);
    let window = seq.slice(start, config.read_length);
    let oriented = if reverse {
        window.reverse_complement()
    } else {
        window
    };

    let mut bases = Vec::with_capacity(oriented.len());
    let mut qualities = Vec::with_capacity(oriented.len());
    for b in oriented.iter() {
        if rng.gen_bool(config.substitution_error_rate) {
            bases.push(b.substitute(rng.gen_range(0..3u8)));
            qualities.push(15);
        } else {
            bases.push(b);
            qualities.push(38);
        }
    }
    let sequence: DnaString = bases.into_iter().collect();
    SequencingRead::with_provenance(
        format!("{}_{idx}", genome.name()),
        sequence,
        qualities,
        start,
        reverse,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts how many sampled read bases differ from the reference window they
    /// were drawn from: the error model's observable.
    fn count_substitutions(genome: &ReferenceGenome, read: &SequencingRead) -> Option<usize> {
        let origin = read.origin()?;
        let window = genome.sequence().slice(origin, read.len());
        let expected = if read.is_reverse_strand() {
            window.reverse_complement()
        } else {
            window
        };
        Some(
            expected
                .iter()
                .zip(read.sequence().iter())
                .filter(|(a, b)| a != b)
                .count(),
        )
    }

    fn small_genome() -> ReferenceGenome {
        ReferenceGenome::builder()
            .length(10_000)
            .no_repeats()
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn read_count_matches_coverage() {
        let genome = small_genome();
        let sim = ReadSimulator::new(SequencerConfig {
            coverage: 30.0,
            read_length: 100,
            ..SequencerConfig::default()
        });
        let reads = sim.simulate(&genome).unwrap();
        assert_eq!(reads.len(), 3_000);
        assert!(reads.iter().all(|r| r.len() == 100));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let genome = small_genome();
        let cfg = SequencerConfig {
            coverage: 5.0,
            seed: 7,
            ..SequencerConfig::default()
        };
        let a = ReadSimulator::new(cfg).simulate(&genome).unwrap();
        let b = ReadSimulator::new(cfg).simulate(&genome).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_free_reads_match_reference_exactly() {
        let genome = small_genome();
        let sim = ReadSimulator::new(SequencerConfig {
            coverage: 5.0,
            substitution_error_rate: 0.0,
            ..SequencerConfig::default()
        });
        for read in sim.simulate(&genome).unwrap() {
            assert_eq!(count_substitutions(&genome, &read), Some(0));
        }
    }

    #[test]
    fn substitution_rate_is_close_to_configured() {
        let genome = small_genome();
        let rate = 0.01;
        let sim = ReadSimulator::new(SequencerConfig {
            coverage: 20.0,
            substitution_error_rate: rate,
            ..SequencerConfig::default()
        });
        let reads = sim.simulate(&genome).unwrap();
        let total_bases: usize = reads.iter().map(SequencingRead::len).sum();
        let total_subs: usize = reads
            .iter()
            .map(|r| count_substitutions(&genome, r).unwrap())
            .sum();
        let observed = total_subs as f64 / total_bases as f64;
        assert!(
            (observed - rate).abs() < 0.002,
            "observed substitution rate {observed}"
        );
    }

    #[test]
    fn both_strands_are_sampled() {
        let genome = small_genome();
        let sim = ReadSimulator::new(SequencerConfig {
            coverage: 10.0,
            ..SequencerConfig::default()
        });
        let reads = sim.simulate(&genome).unwrap();
        let reverse = reads.iter().filter(|r| r.is_reverse_strand()).count();
        let fraction = reverse as f64 / reads.len() as f64;
        assert!((fraction - 0.5).abs() < 0.1, "reverse fraction {fraction}");
    }

    #[test]
    fn forward_only_when_probability_zero() {
        let genome = small_genome();
        let sim = ReadSimulator::new(SequencerConfig {
            coverage: 2.0,
            reverse_strand_probability: 0.0,
            ..SequencerConfig::default()
        });
        let reads = sim.simulate(&genome).unwrap();
        assert!(reads.iter().all(|r| !r.is_reverse_strand()));
    }

    #[test]
    fn rejects_invalid_configs_and_short_genomes() {
        let genome = small_genome();
        assert!(ReadSimulator::new(SequencerConfig {
            read_length: 0,
            ..SequencerConfig::default()
        })
        .simulate(&genome)
        .is_err());
        assert!(ReadSimulator::new(SequencerConfig {
            coverage: -1.0,
            ..SequencerConfig::default()
        })
        .simulate(&genome)
        .is_err());
        assert!(ReadSimulator::new(SequencerConfig {
            substitution_error_rate: 2.0,
            ..SequencerConfig::default()
        })
        .simulate(&genome)
        .is_err());

        let tiny = ReferenceGenome::builder()
            .length(50)
            .no_repeats()
            .seed(1)
            .build()
            .unwrap();
        assert!(ReadSimulator::new(SequencerConfig::default())
            .simulate(&tiny)
            .is_err());
    }
}
