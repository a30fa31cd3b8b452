//! Pipeline-level determinism: the entire assembly — contigs, quality statistics,
//! and compaction statistics — must be bit-identical at every thread count.
//!
//! The per-phase unit tests already check that k-mer counting and graph
//! construction are thread-count-invariant in isolation; this test catches the
//! ordering bugs those miss: a nondeterministic merge segment boundary, a
//! first-touch trace ordering that leaks into statistics, or a wiring order that
//! shifts with the parallel construction chunking.

use nmp_pak_genome::{ReadSimulator, ReferenceGenome, SequencerConfig, SequencingRead};
use nmp_pak_pakman::{
    compact, count_kmers, generate_contigs, AssemblyOutput, AssemblyPipeline, BatchAssembler,
    BatchAssemblyOutput, BatchSchedule, KmerCounterConfig, PakGraph, PakmanAssembler, PakmanConfig,
    RunControl, ShardConfig, SpillConfig,
};

fn simulated_reads(length: usize, coverage: f64, seed: u64) -> Vec<SequencingRead> {
    let genome = ReferenceGenome::builder()
        .length(length)
        .seed(seed)
        .build()
        .unwrap();
    ReadSimulator::new(SequencerConfig {
        coverage,
        substitution_error_rate: 0.001,
        seed: seed + 1,
        ..SequencerConfig::default()
    })
    .simulate(&genome)
    .unwrap()
}

fn assemble(reads: &[SequencingRead], k: usize, threads: usize) -> AssemblyOutput {
    assemble_sharded(reads, k, threads, 1)
}

fn assemble_sharded(
    reads: &[SequencingRead],
    k: usize,
    threads: usize,
    shards: usize,
) -> AssemblyOutput {
    PakmanAssembler::new(PakmanConfig {
        k,
        min_kmer_count: 2,
        compaction_node_threshold: 10,
        threads,
        record_trace: false,
        shards: ShardConfig {
            shard_count: shards,
        },
        ..PakmanConfig::default()
    })
    .assemble(reads)
    .unwrap()
}

fn assert_outputs_identical(run: &AssemblyOutput, reference: &AssemblyOutput, what: &str) {
    assert_eq!(run.contigs, reference.contigs, "contigs diverged: {what}");
    assert_eq!(
        run.stats, reference.stats,
        "assembly stats diverged: {what}"
    );
    assert_eq!(
        run.kmer_stats, reference.kmer_stats,
        "k-mer stats diverged: {what}"
    );
    assert_eq!(
        run.compaction, reference.compaction,
        "compaction stats diverged: {what}"
    );
}

#[test]
fn full_pipeline_is_bit_identical_across_thread_counts() {
    let reads = simulated_reads(10_000, 30.0, 0xD5EED);
    let reference = assemble(&reads, 21, 1);
    assert!(!reference.contigs.is_empty());
    for threads in [2, 4, 8] {
        let multi = assemble(&reads, 21, threads);
        assert_outputs_identical(&multi, &reference, &format!("threads = {threads}"));
    }

    // Small phases run on the calling thread whatever `threads` says (a helper
    // is spawned only for a grain of work), so most of the 10 kbp run above is
    // one chunk. 24 kbp holds two grains of every phase — 64 Ki k-mer windows
    // in stage B, 8 Ki counted k-mers in stage C, 8 Ki checks and 8 Ki
    // transfers in iteration 0 — so `threads = 2` forks stages B and C and
    // D's P1 under both stores.
    let reads = simulated_reads(24_000, 30.0, 0xD5EED);
    let reference = assemble(&reads, 21, 1);
    let windows: usize = reads.iter().map(|read| read.len() - 20).sum();
    let first = &reference.compaction.iterations[0];
    assert!(windows >= 2 * 65_536, "{windows} k-mer windows");
    assert!(first.alive_before >= 2 * 8_192, "{first:?}");
    assert!(first.transfers >= 2 * 8_192, "{first:?}");
    for shards in [1, 4] {
        let multi = assemble_sharded(&reads, 21, 2, shards);
        let what = format!("24 kbp, threads = 2, shards = {shards}");
        assert_outputs_identical(&multi, &reference, &what);
    }
}

fn batched_config(threads: usize) -> PakmanConfig {
    PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 10,
        threads,
        record_trace: true,
        ..PakmanConfig::default()
    }
}

fn assemble_batched(
    reads: &[SequencingRead],
    threads: usize,
    schedule: BatchSchedule,
) -> BatchAssemblyOutput {
    BatchAssembler::with_schedule(batched_config(threads), 0.25, schedule)
        .assemble(reads)
        .unwrap()
}

fn assert_batch_outputs_identical(a: &BatchAssemblyOutput, b: &BatchAssemblyOutput, what: &str) {
    assert_eq!(a.contigs, b.contigs, "contigs diverged: {what}");
    assert_eq!(a.stats, b.stats, "assembly stats diverged: {what}");
    assert_eq!(
        a.batch_compaction, b.batch_compaction,
        "per-batch compaction stats diverged: {what}"
    );
    assert_eq!(
        a.batch_traces, b.batch_traces,
        "per-batch traces diverged: {what}"
    );
}

#[test]
fn spilled_counting_is_bit_identical_to_in_memory_across_threads_and_shards() {
    // The external-memory counting path (64 KiB resident budget — tiny, forcing
    // repeated evictions and multi-run merges) must reproduce the unconstrained
    // in-memory assembly bit for bit at every thread count and shard count. The
    // wave boundaries, eviction schedule, and k-way read-back merge are all
    // value-ordered, so nothing downstream may observe the budget.
    let reads = simulated_reads(10_000, 30.0, 0x5B11);
    let config_for = |threads: usize, shards: usize, spill: SpillConfig| PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 10,
        threads,
        record_trace: false,
        shards: ShardConfig {
            shard_count: shards,
        },
        spill,
        ..PakmanConfig::default()
    };
    let reference = PakmanAssembler::new(config_for(1, 1, SpillConfig::in_memory()))
        .assemble(&reads)
        .unwrap();
    assert!(!reference.contigs.is_empty());
    assert!(reference.spill.is_none(), "in-memory run reports no spill");

    for threads in [1, 4, 8] {
        for shards in [1, 8] {
            let spilled =
                PakmanAssembler::new(config_for(threads, shards, SpillConfig::bounded(64 * 1024)))
                    .assemble(&reads)
                    .unwrap();
            let what = format!("threads = {threads}, shards = {shards}");
            let telemetry = spilled.spill.expect("bounded run records telemetry");
            assert!(
                telemetry.bytes_spilled > 0,
                "{what}: the 64 KiB budget must force spilling"
            );
            assert!(
                telemetry.merge_passes >= 1,
                "{what}: read-back requires at least the final merge pass"
            );
            assert_eq!(
                spilled.contigs, reference.contigs,
                "contigs diverged: {what}"
            );
            assert_eq!(spilled.stats, reference.stats, "stats diverged: {what}");
            assert_eq!(
                spilled.kmer_stats, reference.kmer_stats,
                "k-mer stats diverged: {what}"
            );
            assert_eq!(
                spilled.compaction, reference.compaction,
                "compaction stats diverged: {what}"
            );
        }
    }
}

#[test]
fn streaming_scheduler_is_bit_identical_to_the_sequential_path() {
    // The default depth-1 pipelined scheduler runs stages A–C of batch i+1
    // concurrently with stage D of batch i; no interleaving may change any
    // output bit, at any thread count, and both schedules must agree with the
    // single-threaded sequential reference.
    let reads = simulated_reads(10_000, 30.0, 0xBA7C);
    let reference = assemble_batched(&reads, 1, BatchSchedule::Sequential);
    assert!(!reference.contigs.is_empty());
    assert!(
        reference.batch_compaction.len() >= 2,
        "the scheduler test needs multiple batches"
    );
    assert_eq!(
        reference.batch_traces.len(),
        reference.batch_compaction.len()
    );

    for threads in [1, 2, 4, 8] {
        let sequential = assemble_batched(&reads, threads, BatchSchedule::Sequential);
        let overlapped = assemble_batched(&reads, threads, BatchSchedule::default());
        assert_batch_outputs_identical(
            &sequential,
            &reference,
            &format!("sequential at threads = {threads}"),
        );
        assert_batch_outputs_identical(
            &overlapped,
            &reference,
            &format!("overlapped at threads = {threads}"),
        );
    }
}

#[test]
fn pipelined_scheduler_is_bit_identical_to_the_sequential_path() {
    // The k-deep window runs the fronts of up to `depth` batches concurrently
    // with the back of the finishing batch; no interleaving, depth, byte
    // budget, or thread count may change any output bit.
    let reads = simulated_reads(10_000, 30.0, 0xBA7C);
    let reference = assemble_batched(&reads, 1, BatchSchedule::Sequential);
    assert!(reference.batch_compaction.len() >= 2);

    for threads in [1, 2, 4, 8] {
        let pipelined = assemble_batched(
            &reads,
            threads,
            BatchSchedule::Pipelined {
                depth: 3,
                max_inflight_bytes: None,
            },
        );
        assert_batch_outputs_identical(
            &pipelined,
            &reference,
            &format!("pipelined depth 3 at threads = {threads}"),
        );
    }
    // A byte budget can stall admission but never change the output.
    let budget = reads.iter().map(|r| r.len() as u64).sum::<u64>() / 2;
    let budgeted = assemble_batched(
        &reads,
        4,
        BatchSchedule::Pipelined {
            depth: 3,
            max_inflight_bytes: Some(budget),
        },
    );
    assert_batch_outputs_identical(&budgeted, &reference, "pipelined with byte budget");
}

#[test]
fn streamed_fastq_assembly_is_bounded_and_matches_in_memory() {
    use nmp_pak_genome::{fasta::write_fastq, FastaFastqSource, ReadChunk};
    use std::io::Cursor;

    // Serialize a read set to FASTQ text and assemble it back through the
    // streaming source, multi-batch, with a byte budget on the in-flight
    // window: the full read set must never be resident at once.
    let reads = simulated_reads(10_000, 30.0, 0xF00D);
    let mut fastq = Vec::new();
    write_fastq(&mut fastq, &reads).unwrap();

    // The streamed/planned comparison below requires identical batch
    // boundaries: count-based chunking (4 equal chunks) only matches
    // BatchPlan::by_fraction's remainder-first split when 4 divides the count.
    assert_eq!(
        reads.len() % 4,
        0,
        "pick a workload divisible into 4 batches"
    );
    let chunk_reads = reads.len() / 4;
    let chunk_bytes = ReadChunk::Borrowed(&reads[..chunk_reads]).approx_read_bytes();
    let total_bytes = ReadChunk::Borrowed(&reads[..]).approx_read_bytes();
    let budget = 2 * chunk_bytes;

    let assembler = BatchAssembler::with_schedule(
        batched_config(4),
        0.25,
        BatchSchedule::Pipelined {
            depth: 3,
            max_inflight_bytes: Some(budget),
        },
    );
    let streamed = assembler
        .assemble_source(FastaFastqSource::fastq(Cursor::new(fastq)).with_chunk_reads(chunk_reads))
        .unwrap();
    assert_eq!(streamed.batch_compaction.len(), 4);

    // Bounded ingestion: the high-water mark respects the budget (plus at most
    // one staged chunk) and stays well below the whole read set. The FASTQ
    // reads lack simulation provenance, so allow a small accounting delta.
    assert!(
        streamed.peak_inflight_read_bytes <= budget + chunk_bytes,
        "peak {} vs budget {budget}",
        streamed.peak_inflight_read_bytes
    );
    assert!(
        streamed.peak_inflight_read_bytes < total_bytes,
        "peak {} should be below the whole set {total_bytes}",
        streamed.peak_inflight_read_bytes
    );

    // The streamed assembly matches the in-memory path over the same batches:
    // FASTQ round-tripping preserves ids and sequences, and batch boundaries
    // (4 × chunk_reads) equal the 0.25-fraction plan.
    let in_memory = assembler.assemble(&reads).unwrap();
    assert_eq!(streamed.contigs, in_memory.contigs);
    assert_eq!(streamed.stats, in_memory.stats);
    assert_eq!(streamed.batch_compaction, in_memory.batch_compaction);
    assert_eq!(streamed.batch_traces, in_memory.batch_traces);
}

#[test]
fn frontier_compaction_is_bit_identical_to_full_scan() {
    // The frontier-driven P1 re-evaluates only nodes whose neighbourhood
    // changed; a chain of one-iteration `compact` calls re-evaluates every alive
    // node (each call's iteration 0 is a full scan). Both must take the same
    // steps — census, verdicts, transfers, trace — and leave the same graph, at
    // every thread count, or the frontier invariant (DESIGN.md) is broken.
    let reads = simulated_reads(10_000, 30.0, 0xF207);
    let config = PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 10,
        threads: 1,
        record_trace: true,
        ..PakmanConfig::default()
    };
    let (counted, _) = count_kmers(&reads, KmerCounterConfig::from(&config)).unwrap();
    let graph = PakGraph::from_counted_kmers(&counted, config.k, 1);

    let one_step = PakmanConfig {
        max_compaction_iterations: 1,
        ..config
    };
    let mut chained = graph.clone();
    let mut chain = Vec::new();
    loop {
        let step = compact(&mut chained, &one_step);
        // No iteration: the census reached the threshold.
        let Some(it) = step.stats.iterations.first() else {
            break;
        };
        let converged = it.invalidated == 0;
        chain.push(step);
        if converged {
            break;
        }
    }
    assert!(chain.len() > 1);

    for threads in [1, 2, 4, 8] {
        let what = format!("threads = {threads}");
        let mut compacted = graph.clone();
        let run = compact(&mut compacted, &PakmanConfig { threads, ..config });
        assert_eq!(run.stats.iterations.len(), chain.len(), "{what}");
        let trace = run.trace.as_ref().expect("trace requested");
        for (i, step) in chain.iter().enumerate() {
            let what = format!("{what}, iteration {i}");
            let (it, full) = (&run.stats.iterations[i], &step.stats.iterations[0]);
            assert_eq!(it.alive_before, full.alive_before, "{what}");
            assert_eq!(it.invalidated, full.invalidated, "{what}");
            assert_eq!(it.transfers, full.transfers, "{what}");
            assert_eq!(it.unmatched_transfers, full.unmatched_transfers, "{what}");
            assert_eq!(it.histogram, full.histogram, "{what}");
            let full = &step.trace.as_ref().expect("trace requested").iterations[0];
            let it = &trace.iterations[i];
            assert_eq!(it.checks, full.checks, "{what}");
            assert_eq!(it.transfers, full.transfers, "{what}");
            assert_eq!(it.updates, full.updates, "{what}");
        }
        for slot in 0..graph.slot_count() {
            let what = format!("{what}, slot {slot}");
            assert_eq!(compacted.node(slot), chained.node(slot), "{what}");
        }
    }
}

#[test]
fn frontier_checks_strictly_fewer_nodes_than_full_scan() {
    // The profile is the work ledger behind the frontier's speedup claim: after
    // the iteration-0 full scan, every later iteration must evaluate strictly
    // fewer predicates than the alive-node census a full scan would pay.
    let reads = simulated_reads(10_000, 30.0, 0xF207);
    let output = PakmanAssembler::new(PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 10,
        threads: 4,
        ..PakmanConfig::default()
    })
    .assemble(&reads)
    .unwrap();
    let profile = &output.compaction_profile;
    assert!(profile.iterations.len() > 1, "need a multi-iteration run");
    assert_eq!(
        profile.iterations[0].checked_nodes, profile.iterations[0].alive_nodes,
        "iteration 0 is a full scan"
    );
    for it in &profile.iterations[1..] {
        assert!(
            it.checked_nodes < it.alive_nodes,
            "iteration {}: frontier checked {} of {} alive nodes",
            it.iteration,
            it.checked_nodes,
            it.alive_nodes
        );
    }
}

#[test]
fn frontier_batched_pipelined_schedule_matches_full_scan_sequential() {
    // The frontier compactor composed with the k-deep batch scheduler: the
    // stacked fast paths must still reproduce the conservative configuration
    // (sequential schedule, one thread) bit for bit.
    let reads = simulated_reads(10_000, 30.0, 0xBA7C);
    let reference =
        BatchAssembler::with_schedule(batched_config(1), 0.25, BatchSchedule::Sequential)
            .assemble(&reads)
            .unwrap();
    assert!(reference.batch_compaction.len() >= 2);

    for threads in [1, 2, 4, 8] {
        let pipelined = BatchAssembler::with_schedule(
            batched_config(threads),
            0.25,
            BatchSchedule::Pipelined {
                depth: 3,
                max_inflight_bytes: None,
            },
        )
        .assemble(&reads)
        .unwrap();
        assert_batch_outputs_identical(
            &pipelined,
            &reference,
            &format!("frontier pipelined depth 3 at threads = {threads}"),
        );
    }
}

#[test]
fn recorded_traces_are_identical_across_thread_counts() {
    // The compaction trace is replayed by the memory-system simulators, so its
    // event streams must not depend on the thread count either.
    let reads = simulated_reads(4_000, 20.0, 0xACE5);
    let trace_for = |threads: usize| {
        PakmanAssembler::new(PakmanConfig {
            k: 17,
            min_kmer_count: 2,
            compaction_node_threshold: 10,
            threads,
            record_trace: true,
            ..PakmanConfig::default()
        })
        .assemble(&reads)
        .unwrap()
        .trace
        .expect("trace requested")
    };
    let reference = trace_for(1);
    for threads in [2, 8] {
        assert_eq!(
            trace_for(threads),
            reference,
            "trace diverged at threads = {threads}"
        );
    }
}

#[test]
fn walking_the_purged_graph_gives_the_compacted_graphs_contigs() {
    // Stage E deletes the compacted graph's dead slots before it walks. The
    // walk must not see the difference, and the output graph it leaves must
    // re-walk to the output's contigs — after a sharded compaction too.
    let reads = simulated_reads(10_000, 30.0, 0xD5EED);
    let none = RunControl::default();
    for shards in [1, 4] {
        let config = PakmanConfig {
            k: 21,
            min_kmer_count: 2,
            compaction_node_threshold: 10,
            threads: 1,
            min_contig_length: 30,
            shards: ShardConfig {
                shard_count: shards,
            },
            ..PakmanConfig::default()
        };
        let pipeline = AssemblyPipeline::new(config).unwrap();
        let built = pipeline
            .construct(pipeline.count(&reads, &none).unwrap(), &none)
            .unwrap();
        let compacted = pipeline.compact(built, &none).unwrap();
        let graph = &compacted.graph;
        assert!(
            graph.alive_count() < graph.slot_count(),
            "shards = {shards}"
        );
        let from_layout = generate_contigs(graph, config.min_contig_length);
        let output = pipeline.walk(compacted, &none).unwrap();
        let graph = &output.graph;
        assert_eq!(graph.slot_count(), graph.alive_count(), "shards = {shards}");
        assert!(!output.contigs.is_empty());
        assert_eq!(output.contigs, from_layout, "shards = {shards}");
        let rewalked = generate_contigs(graph, config.min_contig_length);
        assert_eq!(rewalked, output.contigs, "shards = {shards}");
    }
}

/// Contig count, total bases, and an FNV-1a hash over the contig sequences in
/// returned order.
fn contig_digest(contigs: &[nmp_pak_pakman::Contig]) -> (usize, usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut bases = 0usize;
    for contig in contigs {
        bases += contig.len();
        // A terminator per contig keeps the hash sensitive to contig boundaries.
        for byte in contig.sequence.to_string().bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (contigs.len(), bases, hash)
}

#[test]
fn contigs_match_the_golden_digests() {
    // The constants were computed on commit 85524d6, whose stage E still had a
    // speculative parallel fork and whose batches each walked their own graph;
    // the single serial walk and the walk-once batch merge must not move a base.
    let single_reads = simulated_reads(10_000, 30.0, 0xD5EED);
    let batched_reads = simulated_reads(10_000, 30.0, 0xBA7C);
    for threads in [1, 2, 8] {
        let single = assemble(&single_reads, 21, threads);
        assert_eq!(
            contig_digest(&single.contigs),
            (1145, 38_123, 8_941_878_621_728_546_560),
            "single graph at threads = {threads}"
        );
        let batched = assemble_batched(&batched_reads, threads, BatchSchedule::default());
        assert_eq!(batched.batch_compaction.len(), 4);
        assert_eq!(
            contig_digest(&batched.contigs),
            (142, 17_228, 12_170_339_602_539_465_032),
            "4 batches at threads = {threads}"
        );
    }
}
