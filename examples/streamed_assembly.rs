//! File-streamed assembly: generate a FASTQ file, then assemble it through the
//! bounded-memory [`ReadSource`] ingestion path with the k-deep pipelined batch
//! schedule — the full read set is never materialized.
//!
//! This is the CI smoke test for the streaming API: it exits non-zero if the
//! streamed assembly diverges from the in-memory path or the in-flight read
//! budget is not respected.
//!
//! ```text
//! cargo run --release --example streamed_assembly
//! ```

use nmp_pak::genome::fasta::write_fastq;
use nmp_pak::genome::{
    FastaFastqSource, ReadChunk, ReadSimulator, ReferenceGenome, SequencerConfig,
};
use nmp_pak::pakman::{BatchAssembler, BatchSchedule, PakmanConfig};
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Sequence a synthetic 60 kbp genome at 25x and persist it as FASTQ —
    //    the stand-in for a real sequencing run's output file.
    let genome = ReferenceGenome::builder().length(60_000).seed(41).build()?;
    let reads = ReadSimulator::new(SequencerConfig {
        coverage: 25.0,
        substitution_error_rate: 0.001,
        seed: 17,
        ..SequencerConfig::default()
    })
    .simulate(&genome)?;
    let fastq_path = std::env::temp_dir().join("nmp_pak_streamed_assembly.fastq");
    write_fastq(BufWriter::new(File::create(&fastq_path)?), &reads)?;
    let file_bytes = std::fs::metadata(&fastq_path)?.len();
    println!(
        "wrote {} reads ({} KB FASTQ) to {}",
        reads.len(),
        file_bytes / 1024,
        fastq_path.display()
    );

    // 2. Stream the file back through the batch scheduler: 8 batches of
    //    FASTQ records, counting of up to 3 batches overlapping each compaction,
    //    and at most ~2 batches of reads admitted at any instant. The
    //    bit-identity check against the slice path below compares the same
    //    batch boundaries, so the read count must split into 8 equal chunks.
    assert_eq!(
        reads.len() % 8,
        0,
        "workload must divide into 8 equal batches"
    );
    let chunk_reads = reads.len() / 8;
    let chunk_bytes = ReadChunk::Borrowed(&reads[..chunk_reads]).approx_read_bytes();
    let budget = 2 * chunk_bytes;
    let config = PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 100,
        threads: 2,
        ..PakmanConfig::default()
    };
    let assembler = BatchAssembler::with_schedule(
        config,
        1.0 / 8.0,
        BatchSchedule::Pipelined {
            depth: 3,
            max_inflight_bytes: Some(budget),
        },
    );
    let source = FastaFastqSource::open(&fastq_path)?.with_chunk_reads(chunk_reads);
    let streamed = assembler.assemble_source(source)?;
    println!(
        "streamed: {} batches, {} contigs, N50 = {}, total {} bases",
        streamed.batch_compaction.len(),
        streamed.stats.contig_count,
        streamed.stats.n50,
        streamed.stats.total_length
    );
    println!(
        "in-flight reads: peak {} KB vs budget {} KB (whole set ~{} KB)",
        streamed.peak_inflight_read_bytes / 1024,
        budget / 1024,
        ReadChunk::Borrowed(&reads[..]).approx_read_bytes() / 1024
    );

    // 3. The smoke assertions CI relies on: bounded ingestion and bit-identical
    //    output to the in-memory slice path over the same batch boundaries.
    assert!(!streamed.contigs.is_empty(), "assembly produced no contigs");
    assert!(
        streamed.peak_inflight_read_bytes <= budget + chunk_bytes,
        "in-flight reads {} exceeded budget {budget} + one staged chunk {chunk_bytes}",
        streamed.peak_inflight_read_bytes
    );
    let in_memory = assembler.assemble(&reads)?;
    assert_eq!(
        streamed.contigs, in_memory.contigs,
        "streamed and in-memory assemblies must be bit-identical"
    );
    println!("ok: bounded ingestion, bit-identical to the in-memory path");

    std::fs::remove_file(&fastq_path).ok();
    Ok(())
}
