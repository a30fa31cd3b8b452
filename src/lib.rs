//! NMP-PaK — façade crate re-exporting the whole workspace.
//!
//! This is a reproduction of *"NMP-PaK: Near-Memory Processing Acceleration of
//! Scalable De Novo Genome Assembly"* (ISCA 2025). The system is split into focused
//! crates; this façade re-exports them under one roof so examples and downstream users
//! can depend on a single package:
//!
//! * [`genome`] — DNA substrate: bases, packed k-mers, synthetic reference genomes,
//!   an ART-like short-read simulator and FASTA/FASTQ I/O.
//! * [`pakman`] — the PaKman assembly algorithm: k-mer counting, MacroNodes, the
//!   PaK-graph, Iterative Compaction, contig generation and batch processing.
//! * [`memsim`] — the memory-system substrate: the DDR4 organization, the
//!   MacroNode slot → DIMM/PE layout, CPU-core and GPU analytic models folded
//!   over the compaction trace, and traffic/bandwidth statistics.
//! * [`nmphw`] — the NMP-PaK hardware model: pipelined systolic processing elements in
//!   the DIMM buffer chip, crossbar, inter-DIMM network bridge, hybrid CPU-NMP runtime
//!   and the area/power model.
//! * [`core`] — the end-to-end system: the seven execution backends of Fig. 12
//!   (CPU baseline with and without software optimizations, CPU-PaK, GPU, NMP-PaK
//!   and its ideal-PE and ideal-forwarding variants) and one experiment driver per
//!   table/figure of the paper's evaluation.

pub use nmp_pak_core as core;
pub use nmp_pak_genome as genome;
pub use nmp_pak_memsim as memsim;
pub use nmp_pak_nmphw as nmphw;
pub use nmp_pak_pakman as pakman;
