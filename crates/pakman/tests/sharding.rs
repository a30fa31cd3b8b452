//! Sharded-execution determinism: the owner-computes decomposition must be
//! invisible in every output bit. For every shard count and thread count —
//! including under the k-deep pipelined batch schedule — contigs, assembly and
//! compaction statistics, and the recorded access trace must equal the
//! single-graph reference exactly; only the telemetry (where work happened,
//! what crossed shards) may differ.

use nmp_pak_genome::{ReadSimulator, ReferenceGenome, SequencerConfig, SequencingRead};
use nmp_pak_pakman::{
    compact, compact_controlled, compact_sharded, compact_sharded_controlled, count_kmers,
    AssemblyOutput, BatchAssembler, BatchSchedule, CancelToken, CompactionTrace, KmerCounterConfig,
    PakGraph, PakmanAssembler, PakmanConfig, PakmanError, ProgressObserver, RunControl,
    ShardConfig, ShardedGraph, ShardingTelemetry,
};
use std::sync::Mutex;

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

fn config(shards: usize, threads: usize) -> PakmanConfig {
    PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 10,
        threads,
        record_trace: true,
        shards: ShardConfig {
            shard_count: shards,
        },
        ..PakmanConfig::default()
    }
}

fn assemble(reads: &[SequencingRead], shards: usize, threads: usize) -> AssemblyOutput {
    PakmanAssembler::new(config(shards, threads))
        .assemble(reads)
        .unwrap()
}

#[test]
fn sharded_assembly_is_bit_identical_across_shard_and_thread_counts() {
    let reads = simulated_reads(8_000, 25.0, 0x54A2D);
    let reference = assemble(&reads, 1, 1);
    assert!(!reference.contigs.is_empty());
    assert!(
        reference.sharding.is_none(),
        "shard_count 1 stays single-graph"
    );

    for shards in SHARD_SWEEP {
        for threads in THREAD_SWEEP {
            let run = assemble(&reads, shards, threads);
            let what = format!("shards = {shards}, threads = {threads}");
            assert_eq!(run.contigs, reference.contigs, "contigs diverged: {what}");
            assert_eq!(run.stats, reference.stats, "stats diverged: {what}");
            assert_eq!(
                run.kmer_stats, reference.kmer_stats,
                "k-mer stats diverged: {what}"
            );
            assert_eq!(
                run.compaction, reference.compaction,
                "compaction stats diverged: {what}"
            );
            assert_eq!(run.trace, reference.trace, "trace diverged: {what}");
            if shards > 1 {
                let telemetry = run.sharding.expect("sharded runs record telemetry");
                assert_eq!(telemetry.shard_count, shards);
                assert_eq!(
                    telemetry.initial_alive_per_shard.iter().sum::<usize>(),
                    reference.compaction.initial_nodes,
                    "{what}"
                );
                assert_eq!(
                    telemetry.total_transfers(),
                    reference.compaction.total_transfers,
                    "every transfer goes through the mailbox: {what}"
                );
            }
        }
    }
}

#[test]
fn sharding_telemetry_is_deterministic() {
    // Telemetry is derived data, so it must be identical across thread counts
    // for a fixed shard count (where work lands depends on ownership, never on
    // scheduling).
    let reads = simulated_reads(8_000, 25.0, 0x54A2D);
    let reference = assemble(&reads, 7, 1).sharding.unwrap();
    for threads in [4usize, 8] {
        let telemetry = assemble(&reads, 7, threads).sharding.unwrap();
        assert_eq!(
            telemetry, reference,
            "telemetry diverged at threads = {threads}"
        );
    }
    // Sharded runs move real traffic across shards.
    assert!(reference.total_mailbox_bytes() > 0);
    assert!(reference.cross_shard_fraction() > 0.0);
}

#[test]
fn sharded_batched_pipelined_schedule_matches_single_graph_sequential() {
    // The stacked fast paths — owner-computes sharding composed with the k-deep
    // pipelined batch scheduler — must still reproduce the fully conservative
    // configuration (single graph, sequential schedule, one thread) bit for bit.
    let reads = simulated_reads(8_000, 25.0, 0xBA7C5);
    let reference = BatchAssembler::with_schedule(config(1, 1), 0.25, BatchSchedule::Sequential)
        .assemble(&reads)
        .unwrap();
    assert!(reference.batch_compaction.len() >= 2);

    for shards in [2usize, 7] {
        for threads in [1usize, 4] {
            let pipelined = BatchAssembler::with_schedule(
                config(shards, threads),
                0.25,
                BatchSchedule::Pipelined {
                    depth: 3,
                    max_inflight_bytes: None,
                },
            )
            .assemble(&reads)
            .unwrap();
            let what = format!("shards = {shards}, threads = {threads}");
            assert_eq!(
                pipelined.contigs, reference.contigs,
                "contigs diverged: {what}"
            );
            assert_eq!(pipelined.stats, reference.stats, "stats diverged: {what}");
            assert_eq!(
                pipelined.batch_compaction, reference.batch_compaction,
                "per-batch compaction diverged: {what}"
            );
            assert_eq!(
                pipelined.batch_traces, reference.batch_traces,
                "per-batch traces diverged: {what}"
            );
            // Every sharded batch surfaces its telemetry, in batch-index order.
            assert_eq!(
                pipelined.batch_sharding.len(),
                pipelined.batch_compaction.len(),
                "missing per-batch telemetry: {what}"
            );
            assert!(pipelined
                .batch_sharding
                .iter()
                .all(|t| t.shard_count == shards));
            assert!(reference.batch_sharding.is_empty());
        }
    }
}

#[test]
fn zero_kmer_shards_are_harmless_at_pipeline_level() {
    // A workload far smaller than the shard count: many shards own zero
    // k-mers. The run must not panic and still match the single-graph output
    // exactly.
    let reads = simulated_reads(2_000, 8.0, 0xE0E0);
    let small_config = |shards: usize| PakmanConfig {
        k: 15,
        min_kmer_count: 1,
        compaction_node_threshold: 0,
        threads: 2,
        record_trace: true,
        shards: ShardConfig {
            shard_count: shards,
        },
        ..PakmanConfig::default()
    };
    let reference = PakmanAssembler::new(small_config(1))
        .assemble(&reads)
        .unwrap();
    let sharded = PakmanAssembler::new(small_config(4096))
        .assemble(&reads)
        .unwrap();
    assert_eq!(sharded.contigs, reference.contigs);
    assert_eq!(sharded.stats, reference.stats);
    assert_eq!(sharded.compaction, reference.compaction);
    assert_eq!(sharded.trace, reference.trace);
    let telemetry = sharded.sharding.unwrap();
    assert_eq!(telemetry.shard_count, 4096);
    assert!(
        telemetry.initial_alive_per_shard.contains(&0),
        "with 4096 shards over a tiny graph, some shard owns zero k-mers"
    );
}

/// Records every `compaction_iteration` callback and cancels the run from
/// inside callback `cancel_at`, if any.
struct Recording {
    seen: Mutex<Vec<(usize, usize)>>,
    cancel_at: Option<usize>,
    token: CancelToken,
}

impl Recording {
    fn new(cancel_at: Option<usize>) -> Recording {
        Recording {
            seen: Mutex::new(Vec::new()),
            cancel_at,
            token: CancelToken::new(),
        }
    }

    fn control(&self) -> RunControl<'_> {
        RunControl::with_cancel(self.token.clone()).observed_by(self)
    }

    fn seen(self) -> Vec<(usize, usize)> {
        self.seen.into_inner().unwrap()
    }
}

impl ProgressObserver for Recording {
    fn compaction_iteration(&self, iteration: usize, alive_nodes: usize) {
        self.seen.lock().unwrap().push((iteration, alive_nodes));
        if self.cancel_at == Some(iteration) {
            self.token.cancel();
        }
    }
}

/// The single graph of the control-contract tests and a sharded build of it.
fn control_contract_graphs(config: &PakmanConfig) -> (PakGraph, impl Fn(usize) -> ShardedGraph) {
    let reads = simulated_reads(8_000, 25.0, 0xC0417);
    let (counted, _) = count_kmers(&reads, KmerCounterConfig::from(config)).unwrap();
    let single = PakGraph::from_counted_kmers(&counted, config.k, 1);
    let one_shard = single.clone();
    let k = config.k;
    let sharded = move |shards: usize| match shards {
        1 => ShardedGraph::from_single(one_shard.clone()),
        _ => ShardedGraph::from_counted_kmers(&counted, k, shards, 1),
    };
    (single, sharded)
}

fn assert_same_graph(a: &PakGraph, b: &PakGraph, what: &str) {
    assert_eq!(a.slot_count(), b.slot_count(), "{what}");
    for slot in 0..a.slot_count() {
        assert_eq!(a.node(slot), b.node(slot), "slot {slot}: {what}");
    }
}

#[test]
fn both_barriered_entry_points_keep_one_control_contract() {
    // Callback `n` fires at the top of iteration `n`, after the cancellation
    // poll: a token cancelled inside it lets iteration `n` finish and stops the
    // run at the next poll — `n + 1` callbacks, `n + 1` iterations applied.
    const CANCEL_AT: usize = 2;
    for threads in [1usize, 4] {
        let config = PakmanConfig {
            record_trace: false,
            ..config(1, threads)
        };
        let (single, sharded) = control_contract_graphs(&config);

        let watched = Recording::new(None);
        let mut graph = single.clone();
        compact_controlled(&mut graph, &config, &watched.control()).unwrap();
        let callbacks = watched.seen();
        assert!(
            callbacks.len() > CANCEL_AT + 2,
            "{} callbacks",
            callbacks.len()
        );
        assert_eq!(callbacks[0], (0, single.alive_count()));

        // What a run stopped after callback `CANCEL_AT` must leave behind.
        let mut stopped = single.clone();
        let capped = PakmanConfig {
            max_compaction_iterations: CANCEL_AT + 1,
            ..config
        };
        compact(&mut stopped, &capped);

        let cancelling = Recording::new(Some(CANCEL_AT));
        let mut graph = single.clone();
        let err = compact_controlled(&mut graph, &config, &cancelling.control()).unwrap_err();
        assert_eq!(
            err,
            PakmanError::Cancelled {
                at: "compaction".to_string()
            }
        );
        assert_eq!(cancelling.seen(), callbacks[..=CANCEL_AT]);
        assert_same_graph(
            &graph,
            &stopped,
            &format!("single graph, threads = {threads}"),
        );

        for shards in [1usize, 2, 8] {
            let what = format!("shards = {shards}, threads = {threads}");
            let watched = Recording::new(None);
            compact_sharded_controlled(&mut sharded(shards), &config, &watched.control()).unwrap();
            assert_eq!(watched.seen(), callbacks, "{what}");

            let cancelling = Recording::new(Some(CANCEL_AT));
            let mut graph = sharded(shards);
            let err =
                compact_sharded_controlled(&mut graph, &config, &cancelling.control()).unwrap_err();
            let at = "sharded compaction".to_string();
            assert_eq!(err, PakmanError::Cancelled { at }, "{what}");
            assert_eq!(cancelling.seen(), callbacks[..=CANCEL_AT], "{what}");
            assert_same_graph(&graph.into_global_graph(), &stopped, &what);
        }
    }
}

#[test]
fn one_shard_lockstep_ledger_agrees_with_the_outcome() {
    let config = PakmanConfig {
        record_trace: false,
        ..config(1, 1)
    };
    let (_, sharded) = control_contract_graphs(&config);
    let (outcome, telemetry) = compact_sharded(&mut sharded(1), &config);
    assert!(outcome.stats.total_transfers > 0);
    assert_eq!(telemetry.total_transfers(), outcome.stats.total_transfers);
    assert_eq!(telemetry.cross_shard_fraction(), 0.0);
    assert_eq!(
        telemetry.checked_per_shard,
        [outcome.profile.total_checked() as u64]
    );
    // One (0 → 0) flush record per iteration that moved anything, in order.
    let moved = outcome
        .stats
        .iterations
        .iter()
        .filter(|it| it.transfers > 0);
    let expected: Vec<(usize, u64)> = moved
        .map(|it| (it.iteration, it.transfers as u64))
        .collect();
    let recorded = telemetry.flushes.iter();
    let recorded: Vec<(usize, u64)> = recorded.map(|f| (f.src_iteration, f.transfers)).collect();
    assert_eq!(recorded, expected);
    assert!(telemetry.flushes.iter().all(|f| (f.src, f.dst) == (0, 0)));
    assert_eq!(
        telemetry.total_flush_bytes(),
        telemetry.total_mailbox_bytes()
    );
}

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every ordered artifact of the trace: per iteration the transfer events
/// (source, destination, size) in routing order and the update events
/// (destination, size) in first-touch order, with the counts as separators.
fn trace_digest(trace: &CompactionTrace) -> u64 {
    let word = |n: usize| n as u64;
    fnv(trace.iterations.iter().flat_map(|it| {
        let counts = [it.checks.len(), it.transfers.len(), it.updates.len()];
        let transfers = it.transfers.iter();
        let transfers = transfers.flat_map(|t| [t.source_slot, t.dest_slot, t.size_bytes]);
        let updates = it.updates.iter().flat_map(|u| [u.dest_slot, u.size_bytes]);
        let words = counts.into_iter().chain(transfers).chain(updates);
        words.map(word).collect::<Vec<u64>>()
    }))
}

/// The whole lock-step ledger: every flush record in order, the route matrix,
/// the per-shard check counts and the per-iteration mailbox entries.
fn telemetry_digest(telemetry: &ShardingTelemetry) -> u64 {
    let word = |n: usize| n as u64;
    let flushes = telemetry.flushes.iter().flat_map(|f| {
        let lane = [word(f.src), word(f.dst), word(f.src_iteration)];
        lane.into_iter().chain([f.transfers, f.bytes])
    });
    let mailbox = telemetry.mailbox.iter().flat_map(|m| {
        let counts = [m.iteration, m.transfers, m.cross_shard_transfers].map(word);
        counts.into_iter().chain([m.bytes, m.cross_shard_bytes])
    });
    let route = telemetry.route_bytes.iter().copied();
    let checked = telemetry.checked_per_shard.iter().copied();
    fnv(flushes.chain(route).chain(checked).chain(mailbox))
}

#[test]
fn traces_and_telemetry_repeat_the_pinned_values_across_threads_and_shards() {
    // A 40 kbp read set: iteration 0 moves more than two grains of transfers, so
    // from `threads = 2` the lock-step store posts them to its inboxes and
    // applies by shard group; the later iterations, and every iteration at
    // `threads = 1`, deliver in place. The values are the parent commit's (the
    // materialised transfer stream) on this read set.
    const TRACE: u64 = 0xee42_5a01_588f_2d1a;
    const TELEMETRY: [(usize, u64); 3] = [
        (1, 0x7a28_e9c7_e40f_aa7f),
        (2, 0x74a5_d7d9_8b2a_240e),
        (4, 0x4eaa_deb6_9c6e_6d49),
    ];
    const TRANSFERS: usize = 87_490;

    let reads = simulated_reads(40_000, 30.0, 0x57E4);
    let config = |threads| config(1, threads);
    let (counted, _) = count_kmers(&reads, KmerCounterConfig::from(&config(1))).unwrap();
    let single = PakGraph::from_counted_kmers(&counted, 21, 1);

    let mut pinned_nodes = single.clone();
    let reference = compact(&mut pinned_nodes, &config(1));
    let moved = reference.stats.iterations.iter().map(|it| it.transfers);
    assert!(
        moved.clone().max().unwrap() > 2 * 8_192,
        "iteration 0 forks"
    );
    assert!(
        moved.clone().any(|n| (1..8_192).contains(&n)),
        "late ones do not"
    );
    assert_eq!(reference.stats.total_transfers, TRANSFERS);
    assert_eq!(trace_digest(reference.trace.as_ref().unwrap()), TRACE);

    for threads in [1usize, 2, 4] {
        let what = format!("single graph, threads = {threads}");
        let mut graph = single.clone();
        let outcome = compact(&mut graph, &config(threads));
        assert_eq!(outcome.stats, reference.stats, "{what}");
        assert_eq!(outcome.trace, reference.trace, "{what}");
        assert_same_graph(&graph, &pinned_nodes, &what);

        for (shards, pinned) in TELEMETRY {
            let what = format!("shards = {shards}, threads = {threads}");
            let mut sharded = match shards {
                1 => ShardedGraph::from_single(single.clone()),
                _ => ShardedGraph::from_counted_kmers(&counted, 21, shards, threads),
            };
            let (outcome, telemetry) = compact_sharded(&mut sharded, &config(threads));
            assert_eq!(outcome.stats, reference.stats, "{what}");
            assert_eq!(outcome.trace, reference.trace, "{what}");
            assert_eq!(telemetry.total_transfers(), TRANSFERS, "{what}");
            assert_eq!(telemetry_digest(&telemetry), pinned, "{what}");
            assert_same_graph(&sharded.into_global_graph(), &pinned_nodes, &what);
        }
    }
}
