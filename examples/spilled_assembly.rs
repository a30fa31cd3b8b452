//! External-memory assembly: generate a FASTQ file, stream it back through the
//! double-buffered [`PrefetchSource`] adapter, and count k-mers under a fixed
//! resident-byte budget — the counter spills sorted runs to disk and merges
//! them back, so the workload size no longer bounds the counting RAM.
//!
//! This is the CI smoke test for the spill path: it exits non-zero if the
//! budget-capped assembly diverges from the unconstrained in-memory run, if
//! the budget produced no disk traffic, or if the contig stream written by
//! [`write_contigs_fasta`] disagrees with the collected contigs.
//!
//! ```text
//! cargo run --release --example spilled_assembly
//! ```

use nmp_pak::genome::fasta::write_fastq;
use nmp_pak::genome::{
    FastaFastqSource, PrefetchSource, ReadSimulator, ReadSource, ReferenceGenome, SequencerConfig,
};
use nmp_pak::pakman::{write_contigs_fasta, PakmanAssembler, PakmanConfig, SpillConfig};
use std::fs::File;
use std::io::BufWriter;

/// The synthetic genome's length: large enough to spill many runs, small
/// enough for a smoke run.
const GENOME_LENGTH: usize = 200_000;
/// The counter's resident-byte cap: 64 KiB forces heavy spilling and
/// multi-run merges.
const BUDGET_BYTES: u64 = 64 * 1024;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Sequence a synthetic genome at 25x and persist it as FASTQ.
    let genome = ReferenceGenome::builder()
        .length(GENOME_LENGTH)
        .seed(83)
        .build()?;
    let reads = ReadSimulator::new(SequencerConfig {
        coverage: 25.0,
        substitution_error_rate: 0.001,
        seed: 29,
        ..SequencerConfig::default()
    })
    .simulate(&genome)?;
    let fastq_path = std::env::temp_dir().join("nmp_pak_spilled_assembly.fastq");
    write_fastq(BufWriter::new(File::create(&fastq_path)?), &reads)?;
    println!(
        "wrote {} reads ({} KB FASTQ) for a {} kbp genome to {}",
        reads.len(),
        std::fs::metadata(&fastq_path)?.len() / 1024,
        GENOME_LENGTH / 1000,
        fastq_path.display()
    );

    // 2. Stream the file back through the prefetching adapter: a dedicated
    //    worker thread parses the next chunk while the pipeline consumes the
    //    current one (two-slot double buffer), and the counter runs under the
    //    fixed resident-byte cap.
    let config = PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 100,
        threads: 4,
        spill: SpillConfig::bounded(BUDGET_BYTES),
        ..PakmanConfig::default()
    };
    let file_source = FastaFastqSource::open(&fastq_path)?.with_chunk_reads(4_096);
    println!(
        "source size hint: ~{} KB of bases",
        file_source.bases_hint().unwrap_or(0) / 1024
    );
    let source = PrefetchSource::new(file_source);
    let spilled = PakmanAssembler::new(config).assemble_source(source)?;
    let telemetry = spilled
        .spill
        .expect("a bounded budget records spill telemetry");
    println!(
        "spilled: {} contigs, N50 = {}, total {} bases",
        spilled.stats.contig_count, spilled.stats.n50, spilled.stats.total_length
    );
    println!(
        "spill telemetry: budget {} KB, spilled {} KB in {} runs, {} merge pass(es), \
         peak resident {} KB",
        telemetry.budget_bytes / 1024,
        telemetry.bytes_spilled / 1024,
        telemetry.runs_written,
        telemetry.merge_passes,
        telemetry.peak_resident_bytes / 1024,
    );

    // 3. The smoke assertions CI relies on: the budget produced real disk
    //    traffic and the capped assembly is bit-identical to the unconstrained
    //    in-memory run on the same reads.
    assert!(!spilled.contigs.is_empty(), "assembly produced no contigs");
    assert!(
        telemetry.bytes_spilled > 0,
        "the {BUDGET_BYTES}-byte budget moved no data to disk"
    );
    assert!(
        telemetry.merge_passes >= 1,
        "spilled counting must merge runs back"
    );
    let in_memory = PakmanAssembler::new(PakmanConfig {
        spill: SpillConfig::in_memory(),
        ..config
    })
    .assemble(&reads)?;
    assert_eq!(
        spilled.contigs, in_memory.contigs,
        "budget-capped and in-memory assemblies must be bit-identical"
    );
    assert_eq!(
        spilled.kmer_stats, in_memory.kmer_stats,
        "budget-capped and in-memory k-mer statistics must be bit-identical"
    );
    println!("ok: spilled to disk, bit-identical to the unconstrained run");

    // 4. Stream the contigs to FASTA without re-materializing them: the
    //    streaming writer walks the graph once, emitting records as they are
    //    spelled.
    let contig_path = std::env::temp_dir().join("nmp_pak_spilled_contigs.fasta");
    let mut writer = BufWriter::new(File::create(&contig_path)?);
    let written = write_contigs_fasta(&spilled.graph, config.min_contig_length, &mut writer)?;
    drop(writer);
    assert_eq!(
        written,
        spilled.contigs.len(),
        "the streamed FASTA writer must emit exactly the collected contigs"
    );
    println!(
        "streamed {written} contigs to {} ({} KB)",
        contig_path.display(),
        std::fs::metadata(&contig_path)?.len() / 1024
    );

    std::fs::remove_file(&fastq_path).ok();
    std::fs::remove_file(&contig_path).ok();
    Ok(())
}
