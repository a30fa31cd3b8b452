//! The PaKman de novo genome assembly algorithm, as described (and refined) by the
//! NMP-PaK paper.
//!
//! PaKman assembles short reads with a de Bruijn graph expressed as **MacroNodes**:
//! all k-mers sharing a (k-1)-mer are grouped into one node that stores the shared
//! (k-1)-mer plus its prefix/suffix extensions (Fig. 3 of the paper). MacroNodes form
//! the **PaK-graph**, which is then shrunk by **Iterative Compaction** — repeatedly
//! invalidating nodes whose (k-1)-mer is the lexicographically largest among their
//! neighbours and folding their sequence content into those neighbours via
//! **TransferNodes** (Fig. 4) — until the graph is small enough for a fast final
//! **graph walk** that emits contigs.
//!
//! This crate is the pure-software (CPU) implementation, including the software
//! optimizations of §4.5 (parallel k-mer counting, pointer-based MacroNode storage,
//! batch processing of §4.4). The near-memory hardware model that accelerates
//! Iterative Compaction lives in the `nmp-pak-nmphw` crate and consumes the
//! [`trace::CompactionTrace`] recorded here, mirroring the paper's trace-driven
//! methodology (§5.2) with analytic models in place of Ramulator.
//!
//! # Quick start
//!
//! ```
//! use nmp_pak_genome::{ReferenceGenome, ReadSimulator, SequencerConfig};
//! use nmp_pak_pakman::{PakmanAssembler, PakmanConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let genome = ReferenceGenome::builder().length(20_000).seed(3).build()?;
//! let reads = ReadSimulator::new(SequencerConfig {
//!     coverage: 25.0,
//!     substitution_error_rate: 0.0,
//!     ..SequencerConfig::default()
//! })
//! .simulate(&genome)?;
//!
//! let assembler = PakmanAssembler::new(PakmanConfig {
//!     k: 21,
//!     ..PakmanConfig::default()
//! });
//! let output = assembler.assemble(&reads)?;
//! assert!(output.stats.total_length > 10_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod compaction;
pub mod config;
pub mod contig;
pub mod control;
pub mod error;
pub mod graph;
pub mod kmer_count;
pub mod macronode;
pub mod memory;
pub(crate) mod par;
pub mod pipeline;
pub mod shard;
pub mod spill;
pub mod stage;
#[cfg(test)]
pub(crate) mod test_util;
pub mod trace;
pub mod transfer;
pub mod walk;

pub use batch::{BatchAssembler, BatchAssemblyOutput, BatchPlan, BatchSchedule};
pub use compaction::{
    compact, compact_controlled, CompactionOutcome, CompactionProfile, CompactionStats,
    IterationProfile, IterationStats, SizeHistogram,
};
pub use config::{PakmanConfig, ShardConfig, ShardSchedule, SpillConfig};
pub use contig::{AssemblyStats, Contig};
pub use control::{CancelToken, NullObserver, ProgressObserver, RunControl};
pub use error::PakmanError;
pub use graph::PakGraph;
pub use kmer_count::{count_kmers, count_kmers_spilled, CountedKmer, KmerCounterConfig};
pub use macronode::{MacroNode, ThroughPath};
pub use memory::{MemoryBudget, MemoryFootprint};
pub use pipeline::{AssemblyOutput, PakmanAssembler, PhaseTimings};
pub use shard::{
    compact_sharded, compact_sharded_controlled, MailboxFlushStats, ShardedGraph, ShardingTelemetry,
};
pub use spill::SpillTelemetry;
pub use stage::{AssemblyPipeline, Stage};
pub use trace::{CompactionTrace, IterationTrace, NodeCheck, TransferEvent, UpdateEvent};
pub use transfer::TransferNode;
pub use walk::{generate_contigs, write_contigs_fasta};
