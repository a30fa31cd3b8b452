//! DNA substrate for the NMP-PaK reproduction.
//!
//! This crate provides everything the assembler needs to know about DNA as data:
//!
//! * [`Base`] — a single nucleotide with 2-bit encoding,
//! * [`DnaString`] — a growable, 2-bit-packed DNA sequence,
//! * [`Kmer`] — a fixed-length (≤32) k-mer packed into a `u64`,
//! * [`ReferenceGenome`] — a synthetic reference-genome generator (substitute for the
//!   human genome dataset used in the paper),
//! * [`ReadSimulator`] — an ART-like short-read simulator (100 bp reads, configurable
//!   coverage and substitution-error rate),
//! * FASTA/FASTQ serialization in [`fasta`],
//! * [`ReadSource`] — chunked, bounded-memory streaming ingestion of reads
//!   (in-memory slices, FASTA/FASTQ files, seeded synthetic generation) in
//!   [`source`].
//!
//! # Example
//!
//! ```
//! use nmp_pak_genome::{ReferenceGenome, ReadSimulator, SequencerConfig};
//!
//! # fn main() -> Result<(), nmp_pak_genome::GenomeError> {
//! let genome = ReferenceGenome::builder()
//!     .length(10_000)
//!     .seed(7)
//!     .build()?;
//! let reads = ReadSimulator::new(SequencerConfig {
//!     read_length: 100,
//!     coverage: 20.0,
//!     substitution_error_rate: 0.005,
//!     seed: 11,
//!     ..SequencerConfig::default()
//! })
//! .simulate(&genome)?;
//! assert!(!reads.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod base;
pub mod dna;
pub mod error;
pub mod fasta;
pub mod kmer;
pub mod reads;
pub mod reference;
pub mod sequencer;
pub mod shard;
pub mod source;

pub use base::Base;
pub use dna::DnaString;
pub use error::GenomeError;
pub use kmer::{Kmer, KmerIter};
pub use reads::SequencingRead;
pub use reference::{ReferenceGenome, ReferenceGenomeBuilder, RepeatSpec};
pub use sequencer::{ReadSimulator, SequencerConfig};
pub use shard::shard_of_packed;
pub use source::{
    FastaFastqSource, InMemorySource, PrefetchSource, ReadChunk, ReadSource, SequenceFileFormat,
    SyntheticSource,
};
