//! The async schedule's verified-equivalent contract: dropping the all-shards
//! thread barrier may reorder work arbitrarily, but the *outputs* — final
//! contigs, assembly statistics, the counted-kmer stream — must be
//! byte-identical to the lock-step engine, and the mailbox flush ledger (what
//! the network model charges) must match flush for flush. Only scheduling
//! telemetry (per-round times, per-iteration stats, the trace) may differ.
//!
//! The sweeps pin `compaction_node_threshold: 0` so both engines compact all
//! the way to the fixed point (the async engine honors any threshold against
//! the global census at wave boundaries, exactly like lock-step — zero just
//! maximizes the amount of compaction the equivalence covers).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nmp_pak_genome::{ReadSimulator, ReferenceGenome, SequencerConfig, SequencingRead};
use nmp_pak_pakman::{
    AssemblyOutput, AssemblyPipeline, BatchAssembler, BatchSchedule, CancelToken, MemoryBudget,
    PakmanAssembler, PakmanConfig, PakmanError, ProgressObserver, RunControl, ShardConfig,
    ShardSchedule,
};

const SHARD_SWEEP: [usize; 4] = [1, 2, 7, 32];
const THREAD_SWEEP: [usize; 3] = [1, 4, 8];

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

fn config(shards: usize, threads: usize, schedule: ShardSchedule) -> PakmanConfig {
    PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 0,
        threads,
        shard_schedule: schedule,
        shards: ShardConfig {
            shard_count: shards,
        },
        ..PakmanConfig::default()
    }
}

fn assemble(reads: &[SequencingRead], config: PakmanConfig) -> AssemblyOutput {
    PakmanAssembler::new(config).assemble(reads).unwrap()
}

/// The outputs the verified-equivalent contract covers (everything except
/// scheduling telemetry).
fn assert_equivalent(run: &AssemblyOutput, reference: &AssemblyOutput, what: &str) {
    assert_eq!(run.contigs, reference.contigs, "contigs diverged: {what}");
    assert_eq!(run.stats, reference.stats, "stats diverged: {what}");
    assert_eq!(
        run.kmer_stats, reference.kmer_stats,
        "k-mer stats diverged: {what}"
    );
    assert_eq!(
        run.compaction.initial_nodes, reference.compaction.initial_nodes,
        "{what}"
    );
    assert_eq!(
        run.compaction.final_nodes, reference.compaction.final_nodes,
        "{what}"
    );
    assert_eq!(
        run.compaction.total_transfers, reference.compaction.total_transfers,
        "the schedule must not change what is transferred: {what}"
    );
    assert!(run.compaction.converged, "{what}");
}

#[test]
fn async_matches_lockstep_across_shards_and_threads() {
    let reads = simulated_reads(8_000, 25.0, 0x54A2D);
    let reference = assemble(&reads, config(1, 1, ShardSchedule::Lockstep));
    assert!(!reference.contigs.is_empty());
    for shards in SHARD_SWEEP {
        for threads in THREAD_SWEEP {
            let run = assemble(&reads, config(shards, threads, ShardSchedule::Async));
            let what = format!("shards = {shards}, threads = {threads}");
            assert_equivalent(&run, &reference, &what);
            if shards > 1 {
                let telemetry = run.sharding.expect("sharded runs record telemetry");
                assert_eq!(telemetry.shard_count, shards, "{what}");
                // Async records one round-time row per shard, each with at
                // least the initial full scan.
                assert_eq!(telemetry.round_nanos.len(), shards, "{what}");
                assert!(
                    telemetry.round_nanos.iter().all(|r| !r.is_empty()),
                    "every shard runs at least one round: {what}"
                );
            }
        }
    }
}

#[test]
fn async_flush_ledger_matches_the_lockstep_byte_matrix() {
    // The network and channel models charge the measured mailbox traffic —
    // the shard → shard byte matrix and every total are sums over the flush
    // ledger — so the schedule must not change the ledger. Waves are global
    // iterations, so the two ledgers are identical record for record.
    let reads = simulated_reads(8_000, 25.0, 0x54A2D);
    for shards in [2usize, 7, 32] {
        let lockstep = assemble(&reads, config(shards, 4, ShardSchedule::Lockstep))
            .sharding
            .unwrap();
        let async_run = assemble(&reads, config(shards, 4, ShardSchedule::Async))
            .sharding
            .unwrap();
        assert!(lockstep.total_cross_shard_bytes() > 0, "shards = {shards}");
        assert_eq!(
            async_run.flushes, lockstep.flushes,
            "flush ledger diverged at shards = {shards}"
        );
        assert_eq!(
            async_run.checked_per_shard, lockstep.checked_per_shard,
            "predicate work diverged at shards = {shards}"
        );
    }
}

#[test]
fn async_honors_threshold_and_iteration_cap_like_lockstep() {
    // Mid-run stops exercise the apply-only finishing wave: lock-step applies
    // its last mailbox before leaving the loop, and the async engine must land
    // exactly the same flushes before reporting done.
    let reads = simulated_reads(8_000, 25.0, 0x54A2D);
    for threshold in [50usize, 400] {
        let mut reference = config(7, 4, ShardSchedule::Lockstep);
        reference.compaction_node_threshold = threshold;
        let mut run = config(7, 4, ShardSchedule::Async);
        run.compaction_node_threshold = threshold;
        assert_equivalent(
            &assemble(&reads, run),
            &assemble(&reads, reference),
            &format!("threshold = {threshold}"),
        );
    }
    let mut reference = config(7, 4, ShardSchedule::Lockstep);
    reference.max_compaction_iterations = 3;
    let mut run = config(7, 4, ShardSchedule::Async);
    run.max_compaction_iterations = 3;
    let reference = assemble(&reads, reference);
    let run = assemble(&reads, run);
    assert!(
        !reference.compaction.converged,
        "3 iterations must not reach the fixed point"
    );
    assert_eq!(run.contigs, reference.contigs, "capped contigs diverged");
    assert_eq!(
        run.compaction.final_nodes, reference.compaction.final_nodes,
        "capped final census diverged"
    );
    assert!(!run.compaction.converged);
}

#[test]
fn async_zero_kmer_shards_match_lockstep() {
    // Far more shards than k-mers: most shards start (and stay) empty, so
    // their workers go quiescent immediately. Output must still match.
    let reads = simulated_reads(2_000, 8.0, 0xE0E0);
    let small_config = |schedule: ShardSchedule, shards: usize| PakmanConfig {
        k: 15,
        min_kmer_count: 1,
        compaction_node_threshold: 0,
        threads: 4,
        shard_schedule: schedule,
        shards: ShardConfig {
            shard_count: shards,
        },
        ..PakmanConfig::default()
    };
    let reference = assemble(&reads, small_config(ShardSchedule::Lockstep, 1));
    let run = assemble(&reads, small_config(ShardSchedule::Async, 4096));
    assert_equivalent(&run, &reference, "shards = 4096 (mostly empty)");
    let telemetry = run.sharding.unwrap();
    assert!(
        telemetry.initial_alive_per_shard.contains(&0),
        "with 4096 shards over a tiny graph, some shard owns zero k-mers"
    );
}

#[test]
fn async_under_pipelined_batches_matches_sequential_lockstep() {
    // The async engine stacked under the k-deep pipelined batch scheduler must
    // still reproduce the fully conservative configuration's contigs.
    let reads = simulated_reads(8_000, 25.0, 0xBA7C5);
    let reference = BatchAssembler::with_schedule(
        config(1, 1, ShardSchedule::Lockstep),
        0.25,
        BatchSchedule::Sequential,
    )
    .assemble(&reads)
    .unwrap();
    assert!(reference.batch_compaction.len() >= 2);

    let pipelined = BatchAssembler::with_schedule(
        config(7, 4, ShardSchedule::Async),
        0.25,
        BatchSchedule::Pipelined {
            depth: 3,
            max_inflight_bytes: None,
        },
    )
    .assemble(&reads)
    .unwrap();
    assert_eq!(pipelined.contigs, reference.contigs, "contigs diverged");
    assert_eq!(pipelined.stats, reference.stats, "stats diverged");
    assert_eq!(
        pipelined.batch_sharding.len(),
        pipelined.batch_compaction.len(),
        "every sharded batch surfaces telemetry"
    );
}

/// Cancels the run from inside the engine's own progress callback, so the
/// flag goes up while async rounds and mailbox flushes are in flight.
struct CancelAfter {
    token: CancelToken,
    after: usize,
    seen: AtomicUsize,
}

impl ProgressObserver for CancelAfter {
    fn compaction_iteration(&self, _iteration: usize, _alive_nodes: usize) {
        if self.seen.fetch_add(1, Ordering::AcqRel) + 1 == self.after {
            self.token.cancel();
        }
    }
}

#[test]
fn cancel_mid_async_flush_drains_the_ledger() {
    let reads = simulated_reads(20_000, 15.0, 0xCA9CE1);
    let pipeline = AssemblyPipeline::new(config(7, 4, ShardSchedule::Async)).unwrap();

    let token = CancelToken::new();
    let observer = CancelAfter {
        token: token.clone(),
        after: 3,
        seen: AtomicUsize::new(0),
    };
    let ledger = Arc::new(MemoryBudget::unbounded());
    let control = RunControl::with_cancel(token)
        .observed_by(&observer)
        .with_ledger(&ledger);

    let err = pipeline
        .run(&reads, &control)
        .expect_err("cancelled mid-compaction must not complete");
    match err {
        PakmanError::Cancelled { at } => {
            assert!(
                at.starts_with("async"),
                "cancellation raised inside the async engine must be observed \
                 at an async checkpoint, got {at:?}"
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(ledger.peak_bytes() > 0, "the run charged real memory");
    assert_eq!(
        ledger.used(),
        0,
        "every in-flight flush and stage charge must be released on unwind"
    );
}
