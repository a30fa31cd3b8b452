//! Cross-crate integration tests: genome → reads → PaKman pipeline → hardware
//! simulation, exercised through the public façade.

use nmp_pak::core::assembler::NmpPakAssembler;
use nmp_pak::core::backend::BackendId;
use nmp_pak::core::workload::Workload;
use nmp_pak::genome::{ReadSimulator, ReferenceGenome, SequencerConfig};
use nmp_pak::pakman::{BatchAssembler, PakmanAssembler, PakmanConfig};

fn clean_reads(
    genome_len: usize,
    coverage: f64,
    seed: u64,
) -> (ReferenceGenome, Vec<nmp_pak::genome::SequencingRead>) {
    let genome = ReferenceGenome::builder()
        .length(genome_len)
        .no_repeats()
        .seed(seed)
        .build()
        .expect("genome builds");
    let reads = ReadSimulator::new(SequencerConfig {
        coverage,
        substitution_error_rate: 0.0,
        seed: seed + 1,
        ..SequencerConfig::default()
    })
    .simulate(&genome)
    .expect("simulation succeeds");
    (genome, reads)
}

#[test]
fn error_free_assembly_recovers_most_of_the_genome() {
    let (genome, reads) = clean_reads(30_000, 30.0, 404);
    let output = PakmanAssembler::new(PakmanConfig {
        k: 23,
        min_kmer_count: 1,
        threads: 4,
        ..PakmanConfig::default()
    })
    .assemble(&reads)
    .expect("assembly succeeds");

    assert!(
        output.stats.total_length as f64 >= 0.9 * genome.len() as f64,
        "assembled {} of {}",
        output.stats.total_length,
        genome.len()
    );
    assert!(
        output.stats.largest_contig as f64 >= 0.2 * genome.len() as f64,
        "largest contig {} too small",
        output.stats.largest_contig
    );
    // Compaction must shrink the graph substantially without losing sequence.
    assert!(output.compaction.reduction_factor() > 2.0);
}

#[test]
fn noisy_reads_still_assemble_after_pruning() {
    let genome = ReferenceGenome::builder()
        .length(20_000)
        .seed(77)
        .build()
        .unwrap();
    let reads = ReadSimulator::new(SequencerConfig {
        coverage: 40.0,
        substitution_error_rate: 0.005,
        seed: 78,
        ..SequencerConfig::default()
    })
    .simulate(&genome)
    .unwrap();
    let output = PakmanAssembler::new(PakmanConfig {
        k: 21,
        min_kmer_count: 3,
        threads: 4,
        ..PakmanConfig::default()
    })
    .assemble(&reads)
    .expect("assembly succeeds");
    assert!(output.stats.total_length as f64 > 0.7 * genome.len() as f64);
    assert!(
        output.kmer_stats.pruned_kmers > 0,
        "error k-mers should be pruned"
    );
}

#[test]
fn batched_and_unbatched_assemblies_cover_similar_content() {
    let (_genome, reads) = clean_reads(20_000, 25.0, 99);
    let config = PakmanConfig {
        k: 21,
        min_kmer_count: 1,
        threads: 2,
        ..PakmanConfig::default()
    };
    let unbatched = PakmanAssembler::new(config).assemble(&reads).unwrap();
    let batched = BatchAssembler::new(config, 0.25).assemble(&reads).unwrap();
    let ratio = batched.stats.total_length as f64 / unbatched.stats.total_length as f64;
    assert!(
        (0.4..=1.25).contains(&ratio),
        "batched/unbatched coverage ratio {ratio}"
    );
    // Batching must cut the peak footprint. (The N50-vs-batch-size trend of Table 1 is
    // asserted in `nmp-pak-pakman`'s batch tests and the Table 1 experiment test.)
    assert!(batched.footprint_reduction() > 2.0);
}

#[test]
fn all_backends_simulate_the_same_workload_consistently() {
    let workload = Workload::tiny(2024).unwrap();
    let assembler = NmpPakAssembler::default();
    let (_, results) = assembler.run_all_backends(&workload).unwrap();
    assert_eq!(results.len(), assembler.registry().ids().len());

    let by = |b: BackendId| results.iter().find(|r| r.backend == b).unwrap();
    let baseline = by(BackendId::CPU_BASELINE);
    let nmp = by(BackendId::NMP_PAK);
    let cpu_pak = by(BackendId::CPU_PAK);
    let ideal_fwd = by(BackendId::NMP_IDEAL_FORWARDING);

    // Headline orderings of Figs. 12–14.
    assert!(nmp.speedup_over(baseline) > cpu_pak.speedup_over(baseline));
    assert!(nmp.speedup_over(baseline) > 3.0);
    assert!(ideal_fwd.speedup_over(baseline) >= nmp.speedup_over(baseline));
    assert!(nmp.bandwidth_utilization() > baseline.bandwidth_utilization());
    assert!(nmp.traffic.read_bytes < baseline.traffic.read_bytes);
    assert!(nmp.traffic.write_bytes < baseline.traffic.write_bytes);
}

#[test]
fn hardware_simulation_is_deterministic() {
    let workload = Workload::tiny(5).unwrap();
    let assembler = NmpPakAssembler::default();
    let a = assembler.run(&workload, BackendId::NMP_PAK).unwrap();
    let b = assembler.run(&workload, BackendId::NMP_PAK).unwrap();
    assert_eq!(a.backend_result.runtime_ns, b.backend_result.runtime_ns);
    assert_eq!(a.backend_result.traffic, b.backend_result.traffic);
    assert_eq!(a.assembly.stats, b.assembly.stats);
}
