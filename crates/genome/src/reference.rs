//! Synthetic reference-genome generation.
//!
//! The paper evaluates on the full human genome (383 GB of reads). That dataset is a
//! hardware/data gate for a laptop-scale reproduction, so this module generates
//! synthetic reference genomes whose *structural* properties — GC content, tandem and
//! dispersed repeats — drive the same algorithmic behaviour in the assembler
//! (k-mer multiplicities, de Bruijn graph branching, MacroNode size skew) at a
//! configurable, much smaller scale. See `DESIGN.md` for the substitution rationale.

use crate::base::Base;
use crate::dna::DnaString;
use crate::error::GenomeError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Description of repeat structure to embed in a synthetic genome.
///
/// Repeats are what make real de novo assembly hard: they create high-multiplicity
/// k-mers and branching MacroNodes, which in turn produce the long-tailed MacroNode
/// size distribution the paper reports (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatSpec {
    /// Length of each repeated unit in bases.
    pub unit_length: usize,
    /// Number of copies of the unit scattered across the genome.
    pub copies: usize,
}

impl RepeatSpec {
    /// A repeat family with `copies` copies of a `unit_length`-base unit.
    pub fn new(unit_length: usize, copies: usize) -> Self {
        RepeatSpec {
            unit_length,
            copies,
        }
    }
}

/// A synthetic reference genome.
///
/// Use [`ReferenceGenome::builder`] to configure length, GC bias, repeat content and
/// the RNG seed, then [`ReferenceGenomeBuilder::build`] to generate the sequence.
///
/// # Example
///
/// ```
/// use nmp_pak_genome::ReferenceGenome;
///
/// let genome = ReferenceGenome::builder()
///     .length(50_000)
///     .gc_content(0.41) // human-like GC fraction
///     .seed(42)
///     .build()
///     .unwrap();
/// assert_eq!(genome.len(), 50_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceGenome {
    sequence: DnaString,
    name: String,
}

impl ReferenceGenome {
    /// Starts building a synthetic genome with default parameters.
    pub fn builder() -> ReferenceGenomeBuilder {
        ReferenceGenomeBuilder::default()
    }

    /// The genome sequence.
    pub fn sequence(&self) -> &DnaString {
        &self.sequence
    }

    /// The genome name (used as the FASTA header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Genome length in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` if the genome is empty.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Builder for [`ReferenceGenome`]. Created by [`ReferenceGenome::builder`].
#[derive(Debug, Clone)]
pub struct ReferenceGenomeBuilder {
    length: usize,
    gc_content: f64,
    seed: u64,
    name: String,
    repeats: Vec<RepeatSpec>,
}

impl Default for ReferenceGenomeBuilder {
    fn default() -> Self {
        ReferenceGenomeBuilder {
            length: 100_000,
            gc_content: 0.41,
            seed: 0xD1CE,
            name: "synthetic".to_string(),
            repeats: vec![RepeatSpec::new(500, 8), RepeatSpec::new(200, 20)],
        }
    }
}

impl ReferenceGenomeBuilder {
    /// Sets the genome length in bases.
    pub fn length(mut self, length: usize) -> Self {
        self.length = length;
        self
    }

    /// Sets the target GC fraction in `[0, 1]`.
    pub fn gc_content(mut self, gc: f64) -> Self {
        self.gc_content = gc;
        self
    }

    /// Sets the RNG seed; the same seed always yields the same genome.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the genome name (FASTA header).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the repeat families embedded in the genome.
    pub fn repeats(mut self, repeats: Vec<RepeatSpec>) -> Self {
        self.repeats = repeats;
        self
    }

    /// Removes all repeat families (a purely random genome).
    pub fn no_repeats(mut self) -> Self {
        self.repeats.clear();
        self
    }

    /// Generates the genome.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidConfig`] if the length is zero, the GC content is
    /// outside `[0, 1]`, or a repeat unit is longer than the genome.
    pub fn build(self) -> Result<ReferenceGenome, GenomeError> {
        if self.length == 0 {
            return Err(GenomeError::InvalidConfig {
                message: "genome length must be positive".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.gc_content) {
            return Err(GenomeError::InvalidConfig {
                message: format!("gc content {} must lie in [0, 1]", self.gc_content),
            });
        }
        for r in &self.repeats {
            if r.unit_length == 0 {
                return Err(GenomeError::InvalidConfig {
                    message: "repeat unit length must be positive".to_string(),
                });
            }
            if r.unit_length > self.length {
                return Err(GenomeError::InvalidConfig {
                    message: format!(
                        "repeat unit of {} bases does not fit in a {}-base genome",
                        r.unit_length, self.length
                    ),
                });
            }
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut bases: Vec<Base> = (0..self.length)
            .map(|_| random_base(&mut rng, self.gc_content))
            .collect();

        // Stamp repeat copies at random (non-wrapping) offsets. Copies of the same
        // family share the same unit, creating genuinely repeated k-mer content.
        for family in &self.repeats {
            let unit: Vec<Base> = (0..family.unit_length)
                .map(|_| random_base(&mut rng, self.gc_content))
                .collect();
            for _ in 0..family.copies {
                if self.length <= family.unit_length {
                    continue;
                }
                let start = rng.gen_range(0..=self.length - family.unit_length);
                bases[start..start + family.unit_length].copy_from_slice(&unit);
            }
        }

        let sequence: DnaString = bases.into_iter().collect();
        Ok(ReferenceGenome {
            sequence,
            name: self.name,
        })
    }
}

fn random_base<R: Rng>(rng: &mut R, gc: f64) -> Base {
    if rng.gen_bool(gc) {
        if rng.gen_bool(0.5) {
            Base::G
        } else {
            Base::C
        }
    } else if rng.gen_bool(0.5) {
        Base::A
    } else {
        Base::T
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_genome_of_requested_length() {
        let g = ReferenceGenome::builder()
            .length(12_345)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(g.len(), 12_345);
        assert!(!g.is_empty());
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = ReferenceGenome::builder()
            .length(5_000)
            .seed(99)
            .build()
            .unwrap();
        let b = ReferenceGenome::builder()
            .length(5_000)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ReferenceGenome::builder()
            .length(5_000)
            .seed(1)
            .build()
            .unwrap();
        let b = ReferenceGenome::builder()
            .length(5_000)
            .seed(2)
            .build()
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn gc_content_tracks_target() {
        let g = ReferenceGenome::builder()
            .length(200_000)
            .gc_content(0.7)
            .no_repeats()
            .seed(3)
            .build()
            .unwrap();
        let gc = g.sequence().gc_content();
        assert!((gc - 0.7).abs() < 0.02, "observed GC {gc}");
    }

    #[test]
    fn repeats_create_duplicated_kmers() {
        use crate::kmer::Kmer;
        use std::collections::HashMap;

        let g = ReferenceGenome::builder()
            .length(20_000)
            .repeats(vec![RepeatSpec::new(400, 10)])
            .seed(5)
            .build()
            .unwrap();
        let mut counts: HashMap<Kmer, u32> = HashMap::new();
        for kmer in Kmer::iter_windows(g.sequence(), 31).unwrap() {
            *counts.entry(kmer).or_insert(0) += 1;
        }
        let repeated = counts.values().filter(|&&c| c > 1).count();
        assert!(
            repeated > 100,
            "expected repeated 31-mers, found {repeated}"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(ReferenceGenome::builder().length(0).build().is_err());
        assert!(ReferenceGenome::builder().gc_content(1.5).build().is_err());
        assert!(ReferenceGenome::builder()
            .length(100)
            .repeats(vec![RepeatSpec::new(500, 1)])
            .build()
            .is_err());
        assert!(ReferenceGenome::builder()
            .repeats(vec![RepeatSpec::new(0, 1)])
            .build()
            .is_err());
    }
}
