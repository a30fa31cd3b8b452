//! Reproducible end-to-end pipeline benchmark (`BENCH_pipeline.json`).
//!
//! Runs the full assembly pipeline on a fixed-seed synthetic workload (20 kbp
//! genome, 30× coverage, k = 21) and times, in the same process and on the same
//! inputs, the pre-refactor baseline implementations of steps B and C from
//! [`crate::baseline`]. The report is written as hand-rolled JSON (no serde in the
//! offline environment) so later PRs have a recorded perf trajectory to beat.

use crate::baseline::{build_graph_baseline, compact_baseline, count_kmers_baseline};
use nmp_pak_core::workload::Workload;
use nmp_pak_nmphw::{ChannelLoadStats, NmpSystem};
use nmp_pak_pakman::{
    compact_sharded, compact_with_scratch, count_kmers, count_kmers_spilled, AssemblyOutput,
    BatchAssembler, BatchSchedule, CompactionMode, CompactionProfile, CompactionScratch,
    KmerCounterConfig, PakGraph, PakmanAssembler, PakmanConfig, ShardSchedule, ShardedGraph,
    ShardingTelemetry, SpillConfig, SpillTelemetry,
};
use std::time::{Duration, Instant};

/// Fixed workload parameters for the benchmark (kept stable across PRs so the
/// recorded numbers stay comparable).
pub const BENCH_GENOME_LENGTH: usize = 20_000;
/// Coverage of the benchmark read set.
pub const BENCH_COVERAGE: f64 = 30.0;
/// k-mer length used by the benchmark.
pub const BENCH_K: usize = 21;
/// Seed for the benchmark workload.
pub const BENCH_SEED: u64 = 0xBEC4;
/// Batch fraction of the multi-batch streaming comparison (0.25 → 4 batches).
pub const BENCH_BATCH_FRACTION: f64 = 0.25;
/// In-flight window depth of the benchmarked k-deep pipelined schedule.
pub const BENCH_PIPELINE_DEPTH: usize = 3;
/// Shard counts swept by the sharded-execution benchmark (1 is the overhead
/// probe; 8 matches the paper's channel count).
pub const BENCH_SHARD_COUNTS: [usize; 3] = [1, 4, 8];
/// Shard count of the async-schedule comparison (the paper's channel count;
/// owner-hashing at 8 shards leaves a measurably skewed per-shard load, the
/// regime where dropping the barrier pays).
pub const BENCH_ASYNC_SHARDS: usize = 8;
/// Resident-byte budget of the external-memory counting benchmark — small
/// enough that the standard workload (≈ 600 k extracted k-mers ≈ 4.8 MB) must
/// evict and merge repeatedly, the regime the spill path exists for.
pub const BENCH_SPILL_BUDGET_BYTES: u64 = 256 * 1024;
/// Disk partitions of the spill benchmark (the paper's 8-channel owner map).
pub const BENCH_SPILL_PARTITIONS: usize = 8;

/// One timed phase pair: optimized vs pre-refactor baseline.
#[derive(Debug, Clone, Copy)]
pub struct PhaseComparison {
    /// Current-pipeline wall clock.
    pub optimized: Duration,
    /// Pre-refactor wall clock on identical inputs.
    pub baseline: Duration,
}

impl PhaseComparison {
    /// baseline / optimized (higher is better; 1.0 means no change).
    pub fn speedup(&self) -> f64 {
        let opt = self.optimized.as_secs_f64();
        if opt == 0.0 {
            return f64::INFINITY;
        }
        self.baseline.as_secs_f64() / opt
    }
}

/// Wall-clock comparison of the two batch schedules on the same multi-batch
/// workload (the §4.4/§4.5 overlapped process flow vs the sequential-stage one).
///
/// Two views are recorded:
///
/// * the **measured** end-to-end wall clocks of both schedules on this host —
///   meaningful when ≥ 2 cores are available; a single-core host serializes both
///   schedules onto one CPU, so the measured numbers show parity there;
/// * the **critical paths** derived from the measured per-batch stage timings —
///   the wall clock each schedule needs when the two pipeline halves do not
///   compete for a core, which is the paper's deployment (Iterative Compaction
///   on the NMP hardware while the host counts the next batch, Fig. 2).
#[derive(Debug, Clone, Copy)]
pub struct BatchStreamingComparison {
    /// Number of batches in the plan.
    pub batches: usize,
    /// Measured end-to-end wall clock of [`BatchSchedule::Sequential`].
    pub sequential: Duration,
    /// Measured end-to-end wall clock of the default depth-1
    /// [`BatchSchedule::Pipelined`] schedule.
    pub overlapped: Duration,
    /// Measured end-to-end wall clock of [`BatchSchedule::Pipelined`] at depth
    /// [`BENCH_PIPELINE_DEPTH`].
    pub pipelined: Duration,
    /// Critical path of the sequential schedule: the sum of every batch's
    /// measured A–E stage times.
    pub sequential_critical_path: Duration,
    /// Critical path of the overlapped schedule over the same measured stage
    /// times: `front₀ + Σ max(backᵢ, frontᵢ₊₁) + back_{n-1}`, the two-deep
    /// software pipeline with non-competing halves.
    pub overlapped_critical_path: Duration,
    /// Critical path of the k-deep pipelined schedule (depth
    /// [`BENCH_PIPELINE_DEPTH`]) over the same measured stage times, with
    /// non-competing fronts — never longer than the overlapped critical path.
    pub pipelined_critical_path: Duration,
    /// Hardware threads the scheduler had available (the measured overlap win
    /// requires ≥ 2 — on a single-core host both schedules serialize).
    pub available_cores: usize,
}

impl BatchStreamingComparison {
    /// Measured sequential / overlapped wall clock (higher is better; 1.0 means
    /// no measured overlap win).
    pub fn overlap_speedup(&self) -> f64 {
        let overlapped = self.overlapped.as_secs_f64();
        if overlapped == 0.0 {
            return f64::INFINITY;
        }
        self.sequential.as_secs_f64() / overlapped
    }

    /// Critical-path sequential / overlapped ratio: the overlap win with
    /// non-competing pipeline halves. Strictly above 1.0 for ≥ 2 batches with
    /// non-trivial stage times.
    pub fn critical_path_speedup(&self) -> f64 {
        let overlapped = self.overlapped_critical_path.as_secs_f64();
        if overlapped == 0.0 {
            return f64::INFINITY;
        }
        self.sequential_critical_path.as_secs_f64() / overlapped
    }

    /// Critical-path sequential / pipelined ratio for the k-deep schedule —
    /// at least [`BatchStreamingComparison::critical_path_speedup`], since a
    /// deeper window can only admit fronts earlier.
    pub fn pipelined_critical_path_speedup(&self) -> f64 {
        let pipelined = self.pipelined_critical_path.as_secs_f64();
        if pipelined == 0.0 {
            return f64::INFINITY;
        }
        self.sequential_critical_path.as_secs_f64() / pipelined
    }
}

/// Wall-clock comparison of the Iterative Compaction engines on the same
/// constructed graph: the vendored pre-refactor serial-P2/P3 full-scan
/// compactor ([`compact_baseline`]), the current engine forced to
/// [`CompactionMode::FullScan`], and the current engine in its default
/// [`CompactionMode::Frontier`]. All three produce bit-identical statistics,
/// traces, and graphs — asserted on every run — so only the wall clock and the
/// checked-node ledger differ.
#[derive(Debug, Clone)]
pub struct CompactionComparison {
    /// Pre-refactor compactor wall clock (best of reps).
    pub baseline: Duration,
    /// Current engine, full-scan P1 (parallel P2/P3, allocation-free checks).
    pub full_scan: Duration,
    /// Current engine, frontier P1 (the shipped default).
    pub frontier: Duration,
    /// Per-iteration stage times and checked-node counts of the frontier run.
    pub frontier_profile: CompactionProfile,
    /// Per-iteration profile of the full-scan run (checked == alive).
    pub full_scan_profile: CompactionProfile,
    /// Worker threads used by all three engines.
    pub threads: usize,
}

impl CompactionComparison {
    /// baseline / frontier — the headline `speedup.compaction` (higher is better).
    pub fn speedup(&self) -> f64 {
        let frontier = self.frontier.as_secs_f64();
        if frontier == 0.0 {
            return f64::INFINITY;
        }
        self.baseline.as_secs_f64() / frontier
    }

    /// full-scan / frontier: the share of the win attributable to the dirty-set
    /// tracking alone (both sides use the parallel P2/P3 and the
    /// allocation-free checks).
    pub fn frontier_vs_full_scan(&self) -> f64 {
        let frontier = self.frontier.as_secs_f64();
        if frontier == 0.0 {
            return f64::INFINITY;
        }
        self.full_scan.as_secs_f64() / frontier
    }

    /// `true` when every post-iteration-0 frontier iteration evaluated strictly
    /// fewer predicates than the alive census a full scan pays.
    pub fn frontier_strictly_narrower(&self) -> bool {
        self.frontier_profile.iterations.len() > 1
            && self.frontier_profile.iterations[1..]
                .iter()
                .all(|it| it.checked_nodes < it.alive_nodes)
    }
}

/// One sharded-execution measurement: the sharded compactor at a given shard
/// count on the benchmark graph, with its measured telemetry folded onto the
/// 8-channel NMP model.
#[derive(Debug, Clone)]
pub struct ShardingRun {
    /// Shard count of this run.
    pub shards: usize,
    /// Wall clock of `compact_sharded` (best of reps) on the pre-built graph.
    pub wall: Duration,
    /// Telemetry of the fastest run (deterministic across runs).
    pub telemetry: ShardingTelemetry,
    /// The telemetry folded onto the NMP channels (measured per-channel load
    /// and intra- vs cross-channel mailbox traffic).
    pub channel_load: ChannelLoadStats,
}

/// Wall-clock and traffic comparison of sharded versus single-graph execution
/// of Iterative Compaction on the same constructed graph.
///
/// All runs are bit-identical in statistics, trace, and compacted nodes
/// (asserted on every benchmark run); the interesting numbers are the
/// single-shard *overhead* of the sharded engine — the price of the global
/// bookkeeping and the mailbox indirection, gated in CI via
/// `NMP_PAK_BENCH_MAX_SHARD_OVERHEAD` — and the measured per-shard load
/// imbalance and inter-shard traffic at real shard counts.
#[derive(Debug, Clone)]
pub struct ShardingComparison {
    /// Single-graph `compact` wall clock (best of reps) — the baseline.
    pub single_graph: Duration,
    /// One entry per swept shard count ([`BENCH_SHARD_COUNTS`]).
    pub runs: Vec<ShardingRun>,
    /// Worker threads used by every engine.
    pub threads: usize,
}

impl ShardingComparison {
    /// Sharded-at-one-shard wall over single-graph wall — the engine's
    /// bookkeeping overhead (1.0 = free; the CI gate allows 1.15).
    pub fn overhead_at_one(&self) -> f64 {
        let single = self.single_graph.as_secs_f64();
        if single == 0.0 {
            return f64::INFINITY;
        }
        self.runs
            .iter()
            .find(|r| r.shards == 1)
            .map(|r| r.wall.as_secs_f64() / single)
            .unwrap_or(f64::INFINITY)
    }
}

/// Wall-clock and modeled-critical-path comparison of the async shard schedule
/// against lock-step at [`BENCH_ASYNC_SHARDS`] shards on the same constructed
/// graph.
///
/// The two schedules are verified-equivalent — contigs, statistics, and the
/// per-flush mailbox ledger are asserted byte-identical on every benchmark run
/// — so the interesting numbers are the wall clocks and the critical paths
/// rebuilt from the async run's measured per-shard round times: under a
/// lock-step barrier every round costs its slowest shard (`Σ_r max_s`), while
/// the async schedule is paced by the busiest shard's own work (`max_s Σ_r`).
/// The ratio is ≥ 1 by construction and grows with per-shard skew; CI gates it
/// via `NMP_PAK_BENCH_MIN_ASYNC_SPEEDUP`.
#[derive(Debug, Clone)]
pub struct AsyncScheduleComparison {
    /// Shard count of both runs ([`BENCH_ASYNC_SHARDS`]).
    pub shards: usize,
    /// Lock-step `compact_sharded` wall clock (best of reps).
    pub lockstep_wall: Duration,
    /// Async `compact_sharded` wall clock (best of reps).
    pub async_wall: Duration,
    /// Barriered critical path over the async run's measured round times.
    pub lockstep_critical_path: Duration,
    /// Barrier-free critical path over the same measured round times.
    pub async_critical_path: Duration,
    /// Mailbox flushes recorded by the async run (identical to lock-step's).
    pub flushes: usize,
    /// Measured per-shard load imbalance (max/mean of P1 work) — the skew the
    /// barrier pays for.
    pub load_imbalance: f64,
    /// Worker threads used by both engines.
    pub threads: usize,
}

impl AsyncScheduleComparison {
    /// Barriered over barrier-free critical path (≥ 1 by construction; the
    /// gated quantity).
    pub fn critical_path_speedup(&self) -> f64 {
        let async_cp = self.async_critical_path.as_secs_f64();
        if async_cp == 0.0 {
            return f64::INFINITY;
        }
        self.lockstep_critical_path.as_secs_f64() / async_cp
    }

    /// Measured lock-step over async wall clock (noisy on shared hosts; the
    /// critical-path ratio is the stable signal).
    pub fn wall_speedup(&self) -> f64 {
        let async_wall = self.async_wall.as_secs_f64();
        if async_wall == 0.0 {
            return f64::INFINITY;
        }
        self.lockstep_wall.as_secs_f64() / async_wall
    }
}

/// Wall-clock and telemetry comparison of external-memory k-mer counting under
/// [`BENCH_SPILL_BUDGET_BYTES`] versus the unconstrained in-memory counter on
/// identical inputs.
///
/// Both sides produce bit-identical counted streams and statistics — asserted
/// on every run — so the interesting numbers are the wall-clock *overhead* of
/// spilling (gated in CI via `NMP_PAK_BENCH_MAX_SPILL_OVERHEAD`) and the
/// recorded spill telemetry: how many bytes went to disk, how many merge
/// passes the read-back needed, and the resident high-water mark the budget
/// actually enforced.
#[derive(Debug, Clone, Copy)]
pub struct SpillComparison {
    /// Unconstrained in-memory counting wall clock (best of reps).
    pub in_memory: Duration,
    /// Budget-capped spilled counting wall clock (best of reps).
    pub spilled: Duration,
    /// Telemetry of the fastest spilled run (deterministic across runs).
    pub telemetry: SpillTelemetry,
    /// Worker threads used by both counters.
    pub threads: usize,
}

impl SpillComparison {
    /// Spilled / in-memory wall clock (1.0 = free; the CI gate bounds this).
    pub fn overhead(&self) -> f64 {
        let in_memory = self.in_memory.as_secs_f64();
        if in_memory == 0.0 {
            return f64::INFINITY;
        }
        self.spilled.as_secs_f64() / in_memory
    }
}

/// The full benchmark report behind `BENCH_pipeline.json`.
#[derive(Debug, Clone)]
pub struct PipelineBenchReport {
    /// Worker threads used by both implementations.
    pub threads: usize,
    /// Number of reads in the workload.
    pub reads: usize,
    /// Total read bases in the workload.
    pub read_bases: u64,
    /// Step B comparison.
    pub kmer_counting: PhaseComparison,
    /// Step C comparison.
    pub macronode_construction: PhaseComparison,
    /// Multi-batch streaming comparison (overlapped vs sequential schedule).
    pub batch_streaming: BatchStreamingComparison,
    /// Step D comparison: pre-refactor vs full-scan vs frontier compaction.
    pub compaction: CompactionComparison,
    /// Sharded-execution comparison (owner-computes shards vs single graph).
    pub sharding: ShardingComparison,
    /// Async vs lock-step shard-schedule comparison at the paper's shard count.
    pub async_schedule: AsyncScheduleComparison,
    /// External-memory counting comparison (budget-capped spill vs in-memory).
    pub spill: SpillComparison,
    /// Full optimized assembly output (timings of all phases, quality stats).
    pub assembly: AssemblyOutput,
}

impl PipelineBenchReport {
    /// Combined speedup over the two refactored phases (the acceptance metric).
    pub fn counting_plus_construction_speedup(&self) -> f64 {
        let opt = self.kmer_counting.optimized + self.macronode_construction.optimized;
        let base = self.kmer_counting.baseline + self.macronode_construction.baseline;
        if opt.as_secs_f64() == 0.0 {
            return f64::INFINITY;
        }
        base.as_secs_f64() / opt.as_secs_f64()
    }
}

/// Builds the fixed-seed benchmark workload and pipeline configuration shared
/// by every benchmark entry point, so all recorded numbers and gates measure
/// identical inputs.
fn bench_workload_and_config(name: &str) -> (Workload, PakmanConfig) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let workload =
        Workload::synthesize(name, BENCH_GENOME_LENGTH, BENCH_COVERAGE, 0.001, BENCH_SEED)
            .expect("benchmark workload builds");
    let config = PakmanConfig {
        k: BENCH_K,
        min_kmer_count: 2,
        compaction_node_threshold: 100,
        threads,
        record_trace: false,
        ..PakmanConfig::default()
    };
    (workload, config)
}

/// Runs the benchmark: `reps` repetitions, keeping the fastest time per phase per
/// implementation (best-of filters scheduler noise without favouring either side).
pub fn run_pipeline_bench(reps: usize) -> PipelineBenchReport {
    let reps = reps.max(1);
    let (workload, config) = bench_workload_and_config("bench_pipeline");
    let threads = config.threads;

    // Shared counted input for the step C comparison.
    let (counted, _) = count_kmers(&workload.reads, KmerCounterConfig::from(&config))
        .expect("benchmark counting succeeds");

    let mut best_opt_count = Duration::MAX;
    let mut best_base_count = Duration::MAX;
    let mut best_opt_build = Duration::MAX;
    let mut best_base_build = Duration::MAX;
    let mut assembly = None;

    for _ in 0..reps {
        let t = Instant::now();
        let (opt_counted, _) = count_kmers(&workload.reads, KmerCounterConfig::from(&config))
            .expect("benchmark counting succeeds");
        best_opt_count = best_opt_count.min(t.elapsed());
        assert_eq!(opt_counted.len(), counted.len());

        let t = Instant::now();
        let base_counted =
            count_kmers_baseline(&workload.reads, BENCH_K, config.min_kmer_count, threads);
        best_base_count = best_base_count.min(t.elapsed());
        assert_eq!(base_counted, counted, "baseline counting diverged");

        let t = Instant::now();
        let opt_graph = PakGraph::from_counted_kmers(&counted, BENCH_K, threads);
        best_opt_build = best_opt_build.min(t.elapsed());

        let t = Instant::now();
        let base_graph = build_graph_baseline(&counted, BENCH_K);
        best_base_build = best_base_build.min(t.elapsed());
        assert_eq!(
            opt_graph.slot_count(),
            base_graph.slot_count(),
            "baseline construction diverged"
        );

        if assembly.is_none() {
            assembly = Some(
                PakmanAssembler::new(config)
                    .assemble(&workload.reads)
                    .expect("benchmark assembly succeeds"),
            );
        }
    }

    let batch_streaming = run_batch_streaming_bench(&workload.reads, &config, reps);
    let compaction = run_compaction_bench(&counted, &config, reps);
    let sharding = run_sharding_bench(&counted, &config, reps);
    let async_schedule = run_async_schedule_bench(&counted, &config, reps);
    let spill = run_spill_bench(&workload.reads, &config, reps);

    PipelineBenchReport {
        threads,
        reads: workload.reads.len(),
        read_bases: workload.total_read_bases(),
        kmer_counting: PhaseComparison {
            optimized: best_opt_count,
            baseline: best_base_count,
        },
        macronode_construction: PhaseComparison {
            optimized: best_opt_build,
            baseline: best_base_build,
        },
        batch_streaming,
        compaction,
        sharding,
        async_schedule,
        spill,
        assembly: assembly.expect("at least one repetition ran"),
    }
}

/// Runs only the external-memory counting comparison on the standard benchmark
/// workload (the `experiments spill` subcommand).
pub fn run_spill_bench_standalone(reps: usize) -> SpillComparison {
    let (workload, config) = bench_workload_and_config("bench_spill");
    run_spill_bench(&workload.reads, &config, reps.max(1))
}

/// Times the budget-capped spilled counter against the unconstrained in-memory
/// counter on identical reads (best-of-`reps` each), asserting on every
/// repetition that the counted stream, the statistics, and the telemetry
/// invariants (bytes spilled > 0, ≥ 1 merge pass) hold.
fn run_spill_bench(
    reads: &[nmp_pak_genome::SequencingRead],
    config: &PakmanConfig,
    reps: usize,
) -> SpillComparison {
    let counter_config = KmerCounterConfig::from(config);
    let spill_config = SpillConfig::bounded(BENCH_SPILL_BUDGET_BYTES);

    let mut best_in_memory = Duration::MAX;
    let mut best_spilled = Duration::MAX;
    let mut telemetry = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let (in_memory, in_memory_stats) =
            count_kmers(reads, counter_config).expect("in-memory counting succeeds");
        best_in_memory = best_in_memory.min(t.elapsed());

        let t = Instant::now();
        let (spilled, spilled_stats, run_telemetry) =
            count_kmers_spilled(reads, counter_config, &spill_config, BENCH_SPILL_PARTITIONS)
                .expect("spilled counting succeeds");
        let elapsed = t.elapsed();
        if elapsed < best_spilled {
            best_spilled = elapsed;
            telemetry = Some(run_telemetry);
        }

        assert_eq!(spilled, in_memory, "spilled counted stream diverged");
        assert_eq!(
            spilled_stats, in_memory_stats,
            "spilled counting stats diverged"
        );
        assert!(
            run_telemetry.bytes_spilled > 0,
            "the {BENCH_SPILL_BUDGET_BYTES}-byte budget must force spilling"
        );
        assert!(
            run_telemetry.merge_passes >= 1,
            "read-back merges at least once"
        );
    }

    SpillComparison {
        in_memory: best_in_memory,
        spilled: best_spilled,
        telemetry: telemetry.expect("at least one repetition ran"),
        threads: config.threads,
    }
}

/// Runs only the sharded-execution comparison on the standard benchmark
/// workload (the `experiments sharding` subcommand).
pub fn run_sharding_bench_standalone(reps: usize) -> ShardingComparison {
    let (workload, config) = bench_workload_and_config("bench_sharding");
    let (counted, _) = count_kmers(&workload.reads, KmerCounterConfig::from(&config))
        .expect("benchmark counting succeeds");
    run_sharding_bench(&counted, &config, reps.max(1))
}

/// Times the sharded compactor at every [`BENCH_SHARD_COUNTS`] shard count
/// against the single-graph engine on identical constructed graphs, asserting
/// bit-identity of statistics and trace on every run and folding the measured
/// telemetry onto the default 8-channel NMP system.
fn run_sharding_bench(
    counted: &[nmp_pak_pakman::CountedKmer],
    config: &PakmanConfig,
    reps: usize,
) -> ShardingComparison {
    let untraced = PakmanConfig {
        record_trace: false,
        ..*config
    };
    let reference_graph = PakGraph::from_counted_kmers(counted, config.k, config.threads);
    let system_config = nmp_pak_core::backend::SystemConfig::default();
    let nmp_system = NmpSystem::new(system_config.nmp, system_config.dram, system_config.cpu);

    // Single-graph baseline (the engine the 1-shard run must stay within
    // 1.15× of).
    let mut single_graph = Duration::MAX;
    let mut scratch = CompactionScratch::new();
    for _ in 0..reps.max(1) {
        let mut graph = reference_graph.clone();
        let t = Instant::now();
        let _ = compact_with_scratch(&mut graph, &untraced, &mut scratch);
        single_graph = single_graph.min(t.elapsed());
    }

    // Bit-identity reference (traced, once).
    let traced = PakmanConfig {
        record_trace: true,
        ..untraced
    };
    let mut traced_graph = reference_graph.clone();
    let reference_outcome = compact_with_scratch(&mut traced_graph, &traced, &mut scratch);

    let mut runs = Vec::with_capacity(BENCH_SHARD_COUNTS.len());
    for shards in BENCH_SHARD_COUNTS {
        // One shard probes the engine overhead on the *same* graph object; real
        // shard counts build their owner-partitioned graphs from the counted
        // stream, exactly as the pipeline does.
        let prototype = if shards == 1 {
            ShardedGraph::from_single(reference_graph.clone())
        } else {
            ShardedGraph::from_counted_kmers(counted, config.k, shards, config.threads)
        };
        let mut wall = Duration::MAX;
        let mut telemetry = None;
        for _ in 0..reps.max(1) {
            let mut sharded = prototype.clone();
            let t = Instant::now();
            let (_, run_telemetry) = compact_sharded(&mut sharded, &untraced);
            let elapsed = t.elapsed();
            if elapsed < wall {
                wall = elapsed;
                telemetry = Some(run_telemetry);
            }
        }
        // Bit-identity cross-check: stats, trace, and compacted nodes must
        // match the single-graph engine before any wall clock is comparable.
        let mut sharded = prototype;
        let (outcome, _) = compact_sharded(&mut sharded, &traced);
        assert_eq!(
            outcome.stats, reference_outcome.stats,
            "sharded stats diverged at {shards} shard(s)"
        );
        assert_eq!(
            outcome.trace, reference_outcome.trace,
            "sharded trace diverged at {shards} shard(s)"
        );
        let global = sharded.into_global_graph();
        for slot in 0..traced_graph.slot_count() {
            assert_eq!(
                global.node(slot),
                traced_graph.node(slot),
                "sharded graph diverged at slot {slot} with {shards} shard(s)"
            );
        }

        let telemetry = telemetry.expect("at least one repetition ran");
        let channel_load = nmp_system.channel_load_from_sharding(&telemetry);
        runs.push(ShardingRun {
            shards,
            wall,
            telemetry,
            channel_load,
        });
    }

    ShardingComparison {
        single_graph,
        runs,
        threads: config.threads,
    }
}

/// Runs only the async-schedule comparison on the standard benchmark workload
/// (the `experiments async` subcommand).
pub fn run_async_schedule_bench_standalone(reps: usize) -> AsyncScheduleComparison {
    let (workload, config) = bench_workload_and_config("bench_async");
    let (counted, _) = count_kmers(&workload.reads, KmerCounterConfig::from(&config))
        .expect("benchmark counting succeeds");
    run_async_schedule_bench(&counted, &config, reps.max(1))
}

/// Times the async shard schedule against lock-step at [`BENCH_ASYNC_SHARDS`]
/// shards on identical owner-partitioned graphs (best-of-`reps` each),
/// asserting the verified-equivalent contract — statistics, compacted nodes,
/// and the per-flush mailbox ledger byte-identical — on an untimed pair, then
/// rebuilding both critical paths from the async run's measured round times.
fn run_async_schedule_bench(
    counted: &[nmp_pak_pakman::CountedKmer],
    config: &PakmanConfig,
    reps: usize,
) -> AsyncScheduleComparison {
    let lockstep_config = PakmanConfig {
        record_trace: false,
        shard_schedule: ShardSchedule::Lockstep,
        ..*config
    };
    let async_config = PakmanConfig {
        shard_schedule: ShardSchedule::Async,
        ..lockstep_config
    };
    let prototype =
        ShardedGraph::from_counted_kmers(counted, config.k, BENCH_ASYNC_SHARDS, config.threads);

    let mut lockstep_wall = Duration::MAX;
    let mut async_wall = Duration::MAX;
    let mut telemetry = None;
    for _ in 0..reps.max(1) {
        let mut sharded = prototype.clone();
        let t = Instant::now();
        let _ = compact_sharded(&mut sharded, &lockstep_config);
        lockstep_wall = lockstep_wall.min(t.elapsed());

        let mut sharded = prototype.clone();
        let t = Instant::now();
        let (_, run_telemetry) = compact_sharded(&mut sharded, &async_config);
        let elapsed = t.elapsed();
        if elapsed < async_wall {
            async_wall = elapsed;
            telemetry = Some(run_telemetry);
        }
    }

    // Verified-equivalent cross-check (untimed): the wall clocks are only
    // comparable while both schedules agree on every output bit and every
    // mailbox flush.
    let mut lockstep_graph = prototype.clone();
    let (lockstep_outcome, lockstep_telemetry) =
        compact_sharded(&mut lockstep_graph, &lockstep_config);
    let mut async_graph = prototype;
    let (async_outcome, async_telemetry) = compact_sharded(&mut async_graph, &async_config);
    // Per-iteration stats are scheduling telemetry (the async engine does not
    // record them); the contract covers the census, transfers, and outcome.
    assert_eq!(
        async_outcome.stats.initial_nodes, lockstep_outcome.stats.initial_nodes,
        "async initial census diverged from lock-step"
    );
    assert_eq!(
        async_outcome.stats.final_nodes, lockstep_outcome.stats.final_nodes,
        "async final census diverged from lock-step"
    );
    assert_eq!(
        async_outcome.stats.total_transfers, lockstep_outcome.stats.total_transfers,
        "async transfer total diverged from lock-step"
    );
    assert_eq!(
        async_outcome.stats.converged, lockstep_outcome.stats.converged,
        "async convergence diverged from lock-step"
    );
    assert_eq!(
        async_telemetry.flushes, lockstep_telemetry.flushes,
        "async mailbox flush ledger diverged from lock-step"
    );
    let lockstep_global = lockstep_graph.into_global_graph();
    let async_global = async_graph.into_global_graph();
    for slot in 0..lockstep_global.slot_count() {
        assert_eq!(
            async_global.node(slot),
            lockstep_global.node(slot),
            "async compacted graph diverged at slot {slot}"
        );
    }

    let telemetry = telemetry.expect("at least one repetition ran");
    AsyncScheduleComparison {
        shards: BENCH_ASYNC_SHARDS,
        lockstep_wall,
        async_wall,
        lockstep_critical_path: Duration::from_nanos(telemetry.lockstep_critical_path_nanos()),
        async_critical_path: Duration::from_nanos(telemetry.async_critical_path_nanos()),
        flushes: telemetry.flushes.len(),
        load_imbalance: telemetry.load_imbalance(),
        threads: config.threads,
    }
}

/// Runs only the Iterative Compaction comparison on the standard benchmark
/// workload (the `experiments compaction` subcommand).
pub fn run_compaction_bench_standalone(reps: usize) -> CompactionComparison {
    let (workload, config) = bench_workload_and_config("bench_compaction");
    let (counted, _) = count_kmers(&workload.reads, KmerCounterConfig::from(&config))
        .expect("benchmark counting succeeds");
    run_compaction_bench(&counted, &config, reps.max(1))
}

/// Times the three compaction engines on identical constructed graphs
/// (best-of-`reps` each, untraced), then re-runs all three once *with* traces to
/// assert bit-identity of statistics and access traces.
fn run_compaction_bench(
    counted: &[nmp_pak_pakman::CountedKmer],
    config: &PakmanConfig,
    reps: usize,
) -> CompactionComparison {
    let reference_graph = PakGraph::from_counted_kmers(counted, config.k, config.threads);
    let full_scan_config = PakmanConfig {
        compaction_mode: CompactionMode::FullScan,
        record_trace: false,
        ..*config
    };
    let frontier_config = PakmanConfig {
        compaction_mode: CompactionMode::Frontier,
        ..full_scan_config
    };

    let mut best_baseline = Duration::MAX;
    let mut best_full_scan = Duration::MAX;
    let mut best_frontier = Duration::MAX;
    let mut full_scan_profile = CompactionProfile::default();
    let mut frontier_profile = CompactionProfile::default();
    // The scratch persists across repetitions (the `compact_with_scratch`
    // reuse path), so steady-state runs pay no per-run buffer growth.
    let mut scratch = CompactionScratch::new();

    for _ in 0..reps.max(1) {
        let mut graph = reference_graph.clone();
        let t = Instant::now();
        let _ = compact_baseline(&mut graph, &full_scan_config);
        best_baseline = best_baseline.min(t.elapsed());

        let mut graph = reference_graph.clone();
        let t = Instant::now();
        let outcome = compact_with_scratch(&mut graph, &full_scan_config, &mut scratch);
        let elapsed = t.elapsed();
        if elapsed < best_full_scan {
            best_full_scan = elapsed;
            full_scan_profile = outcome.profile;
        }

        let mut graph = reference_graph.clone();
        let t = Instant::now();
        let outcome = compact_with_scratch(&mut graph, &frontier_config, &mut scratch);
        let elapsed = t.elapsed();
        if elapsed < best_frontier {
            best_frontier = elapsed;
            frontier_profile = outcome.profile;
        }
    }

    // Bit-identity cross-check (untimed, with traces): the baseline is only a
    // valid speedup denominator while all three engines agree on every bit.
    let traced = PakmanConfig {
        record_trace: true,
        ..full_scan_config
    };
    let mut baseline_graph = reference_graph.clone();
    let (baseline_stats, baseline_trace) = compact_baseline(&mut baseline_graph, &traced);
    for mode in [CompactionMode::FullScan, CompactionMode::Frontier] {
        let mut graph = reference_graph.clone();
        let outcome = compact_with_scratch(
            &mut graph,
            &PakmanConfig {
                compaction_mode: mode,
                ..traced
            },
            &mut scratch,
        );
        assert_eq!(
            outcome.stats, baseline_stats,
            "{mode:?} compaction stats diverged from the pre-refactor baseline"
        );
        assert_eq!(
            outcome.trace, baseline_trace,
            "{mode:?} compaction trace diverged from the pre-refactor baseline"
        );
        for slot in 0..reference_graph.slot_count() {
            assert_eq!(
                graph.node(slot),
                baseline_graph.node(slot),
                "{mode:?} compacted graph diverged at slot {slot}"
            );
        }
    }

    CompactionComparison {
        baseline: best_baseline,
        full_scan: best_full_scan,
        frontier: best_frontier,
        frontier_profile,
        full_scan_profile,
        threads: config.threads,
    }
}

/// Times the sequential and overlapped batch schedules on identical inputs
/// (best-of-`reps` each, alternating so neither side systematically benefits
/// from a warm cache). The outputs are bit-identical by the determinism
/// contract; only the wall clock differs.
fn run_batch_streaming_bench(
    reads: &[nmp_pak_genome::SequencingRead],
    config: &PakmanConfig,
    reps: usize,
) -> BatchStreamingComparison {
    // One worker thread per batch half keeps the per-stage parallelism from
    // saturating the machine, so the scheduler-level overlap has cores to use.
    let config = PakmanConfig {
        threads: 1,
        ..*config
    };
    let sequential_assembler =
        BatchAssembler::with_schedule(config, BENCH_BATCH_FRACTION, BatchSchedule::Sequential);
    let overlapped_assembler =
        BatchAssembler::with_schedule(config, BENCH_BATCH_FRACTION, BatchSchedule::default());
    let pipelined_assembler = BatchAssembler::with_schedule(
        config,
        BENCH_BATCH_FRACTION,
        BatchSchedule::Pipelined {
            depth: BENCH_PIPELINE_DEPTH,
            max_inflight_bytes: None,
        },
    );

    // One untimed warm-up of each schedule: the first assembly after process
    // start pays allocator growth and page faults that would otherwise be
    // charged to whichever schedule runs first.
    let _ = sequential_assembler.assemble(reads);
    let _ = overlapped_assembler.assemble(reads);
    let _ = pipelined_assembler.assemble(reads);

    let mut best_sequential = Duration::MAX;
    let mut best_overlapped = Duration::MAX;
    let mut best_pipelined = Duration::MAX;
    let mut batches = 0usize;
    let mut best_critical = (Duration::MAX, Duration::MAX, Duration::MAX);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let sequential = sequential_assembler
            .assemble(reads)
            .expect("sequential batch assembly succeeds");
        best_sequential = best_sequential.min(t.elapsed());

        let t = Instant::now();
        let overlapped = overlapped_assembler
            .assemble(reads)
            .expect("overlapped batch assembly succeeds");
        best_overlapped = best_overlapped.min(t.elapsed());

        let t = Instant::now();
        let pipelined = pipelined_assembler
            .assemble(reads)
            .expect("pipelined batch assembly succeeds");
        best_pipelined = best_pipelined.min(t.elapsed());

        assert_eq!(
            sequential.contigs, overlapped.contigs,
            "schedules must be bit-identical"
        );
        assert_eq!(
            sequential.contigs, pipelined.contigs,
            "the k-deep schedule must be bit-identical"
        );
        batches = sequential.batch_compaction.len();
        let sequential_cp = critical_paths(&sequential.batch_timings).0;
        let overlapped_cp = pipelined_critical_path(&sequential.batch_timings, 1);
        let pipelined_cp = pipelined_critical_path(&sequential.batch_timings, BENCH_PIPELINE_DEPTH);
        if sequential_cp < best_critical.0 {
            best_critical = (sequential_cp, overlapped_cp, pipelined_cp);
        }
    }

    BatchStreamingComparison {
        batches,
        sequential: best_sequential,
        overlapped: best_overlapped,
        pipelined: best_pipelined,
        sequential_critical_path: best_critical.0,
        overlapped_critical_path: best_critical.1,
        pipelined_critical_path: best_critical.2,
        available_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Critical paths of both schedules over the same measured per-batch stage
/// times: `(sequential, overlapped)`. Sequential is the plain sum; overlapped is
/// the two-deep pipeline `front₀ + Σ max(backᵢ, frontᵢ₊₁) + back_{n-1}` where
/// `front` is stages A–C and `back` is stages D–E.
fn critical_paths(batch_timings: &[nmp_pak_pakman::PhaseTimings]) -> (Duration, Duration) {
    let front = |t: &nmp_pak_pakman::PhaseTimings| {
        t.access_reads + t.kmer_counting + t.macronode_construction
    };
    let back = |t: &nmp_pak_pakman::PhaseTimings| t.compaction + t.walk;

    let sequential: Duration = batch_timings.iter().map(|t| front(t) + back(t)).sum();
    let mut overlapped = Duration::ZERO;
    for (i, timings) in batch_timings.iter().enumerate() {
        if i == 0 {
            overlapped += front(timings);
        }
        match batch_timings.get(i + 1) {
            Some(next) => overlapped += back(timings).max(front(next)),
            None => overlapped += back(timings),
        }
    }
    (sequential, overlapped)
}

/// Critical path of the k-deep pipelined schedule over measured stage times,
/// assuming non-competing workers (every admitted front has a core).
///
/// The scheduler admits the front of batch *j* when batch *j − depth* starts
/// finishing, which gives the recurrence
///
/// ```text
/// admit[j]        = 0                       for j < depth
///                 = finish_start[j - depth] otherwise
/// front_done[j]   = admit[j] + front_j
/// finish_start[j] = max(finish_done[j - 1], front_done[j])
/// finish_done[j]  = finish_start[j] + back_j
/// ```
///
/// At `depth = 1` this reproduces the overlapped closed form
/// `front₀ + Σ max(backᵢ, frontᵢ₊₁) + back_{n-1}`; deeper windows only move
/// admissions earlier, so the result is non-increasing in `depth`.
pub fn pipelined_critical_path(
    batch_timings: &[nmp_pak_pakman::PhaseTimings],
    depth: usize,
) -> Duration {
    let front = |t: &nmp_pak_pakman::PhaseTimings| {
        t.access_reads + t.kmer_counting + t.macronode_construction
    };
    let back = |t: &nmp_pak_pakman::PhaseTimings| t.compaction + t.walk;
    let depth = depth.max(1);

    let mut finish_starts: Vec<Duration> = Vec::with_capacity(batch_timings.len());
    let mut finish_done = Duration::ZERO;
    for (j, timings) in batch_timings.iter().enumerate() {
        let admit = if j < depth {
            Duration::ZERO
        } else {
            finish_starts[j - depth]
        };
        let front_done = admit + front(timings);
        let finish_start = finish_done.max(front_done);
        finish_starts.push(finish_start);
        finish_done = finish_start + back(timings);
    }
    finish_done
}

/// Renders the per-iteration P1/P2/P3 wall times and checked-node counts of a
/// compaction profile as a JSON array (one object per iteration).
fn profile_iterations_json(profile: &CompactionProfile, indent: &str) -> String {
    let rows: Vec<String> = profile
        .iterations
        .iter()
        .map(|it| {
            format!(
                "{indent}{{\"iteration\": {}, \"p1_s\": {:.6}, \"p2_s\": {:.6}, \
                 \"p3_s\": {:.6}, \"checked_nodes\": {}, \"alive_nodes\": {}}}",
                it.iteration,
                it.p1.as_secs_f64(),
                it.p2.as_secs_f64(),
                it.p3.as_secs_f64(),
                it.checked_nodes,
                it.alive_nodes,
            )
        })
        .collect();
    rows.join(",\n")
}

/// Renders the sharding comparison's per-shard-count rows as a JSON array.
fn sharding_runs_json(cmp: &ShardingComparison, indent: &str) -> String {
    let rows: Vec<String> = cmp
        .runs
        .iter()
        .map(|run| {
            format!(
                "{indent}{{\"shards\": {}, \"wall_s\": {:.6}, \"load_imbalance\": {:.4}, \
                 \"mailbox_bytes\": {}, \"cross_shard_bytes\": {}, \
                 \"cross_shard_fraction\": {:.4}, \"channel_imbalance\": {:.4}, \
                 \"cross_channel_bytes\": {}, \"intra_channel_bytes\": {}}}",
                run.shards,
                run.wall.as_secs_f64(),
                run.telemetry.load_imbalance(),
                run.telemetry.total_mailbox_bytes(),
                run.telemetry.total_cross_shard_bytes(),
                run.telemetry.cross_shard_fraction(),
                run.channel_load.imbalance(),
                run.channel_load.cross_channel_bytes,
                run.channel_load.intra_channel_bytes,
            )
        })
        .collect();
    rows.join(",\n")
}

/// Serializes the report as JSON (hand-rolled; the offline environment has no
/// serde_json).
pub fn report_to_json(report: &PipelineBenchReport) -> String {
    let t = &report.assembly.timings;
    let stats = &report.assembly.stats;
    let secs = Duration::as_secs_f64;
    format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\n",
            "    \"genome_length\": {genome_length},\n",
            "    \"coverage\": {coverage},\n",
            "    \"k\": {k},\n",
            "    \"seed\": {seed},\n",
            "    \"reads\": {reads},\n",
            "    \"read_bases\": {read_bases}\n",
            "  }},\n",
            "  \"threads\": {threads},\n",
            "  \"phase_timings_s\": {{\n",
            "    \"access_reads\": {access_reads:.6},\n",
            "    \"kmer_counting\": {kmer_counting:.6},\n",
            "    \"macronode_construction\": {construction:.6},\n",
            "    \"compaction\": {compaction:.6},\n",
            "    \"walk\": {walk:.6},\n",
            "    \"total\": {total:.6}\n",
            "  }},\n",
            "  \"baseline_s\": {{\n",
            "    \"kmer_counting\": {base_count:.6},\n",
            "    \"macronode_construction\": {base_build:.6}\n",
            "  }},\n",
            "  \"optimized_s\": {{\n",
            "    \"kmer_counting\": {opt_count:.6},\n",
            "    \"macronode_construction\": {opt_build:.6}\n",
            "  }},\n",
            "  \"speedup\": {{\n",
            "    \"kmer_counting\": {count_speedup:.3},\n",
            "    \"macronode_construction\": {build_speedup:.3},\n",
            "    \"counting_plus_construction\": {combined_speedup:.3},\n",
            "    \"compaction\": {compaction_speedup:.3}\n",
            "  }},\n",
            "  \"compaction_bench\": {{\n",
            "    \"threads\": {compaction_threads},\n",
            "    \"baseline_s\": {compaction_baseline_s:.6},\n",
            "    \"full_scan_s\": {compaction_full_scan_s:.6},\n",
            "    \"frontier_s\": {compaction_frontier_s:.6},\n",
            "    \"speedup_vs_baseline\": {compaction_speedup:.3},\n",
            "    \"frontier_vs_full_scan\": {frontier_vs_full_scan:.3},\n",
            "    \"checked_nodes_full_scan\": {checked_full},\n",
            "    \"checked_nodes_frontier\": {checked_frontier},\n",
            "    \"frontier_iterations\": [\n{frontier_iterations}\n    ]\n",
            "  }},\n",
            "  \"sharding\": {{\n",
            "    \"threads\": {sharding_threads},\n",
            "    \"single_graph_s\": {sharding_single_s:.6},\n",
            "    \"overhead_at_one\": {sharding_overhead:.3},\n",
            "    \"runs\": [\n{sharding_runs}\n    ]\n",
            "  }},\n",
            "  \"async\": {{\n",
            "    \"shards\": {async_shards},\n",
            "    \"threads\": {async_threads},\n",
            "    \"load_imbalance\": {async_imbalance:.4},\n",
            "    \"lockstep_wall_s\": {async_lockstep_wall_s:.6},\n",
            "    \"async_wall_s\": {async_wall_s:.6},\n",
            "    \"wall_speedup\": {async_wall_speedup:.3},\n",
            "    \"lockstep_critical_path_s\": {async_lockstep_cp_s:.6},\n",
            "    \"async_critical_path_s\": {async_cp_s:.6},\n",
            "    \"critical_path_speedup\": {async_cp_speedup:.3},\n",
            "    \"flushes\": {async_flushes}\n",
            "  }},\n",
            "  \"spill\": {{\n",
            "    \"threads\": {spill_threads},\n",
            "    \"budget_bytes\": {spill_budget},\n",
            "    \"partitions\": {spill_partitions},\n",
            "    \"in_memory_s\": {spill_in_memory_s:.6},\n",
            "    \"spilled_s\": {spill_spilled_s:.6},\n",
            "    \"overhead\": {spill_overhead:.3},\n",
            "    \"bytes_spilled\": {spill_bytes},\n",
            "    \"runs_written\": {spill_runs},\n",
            "    \"merge_passes\": {spill_merge_passes},\n",
            "    \"peak_resident_bytes\": {spill_peak_resident}\n",
            "  }},\n",
            "  \"batch_streaming\": {{\n",
            "    \"batches\": {batches},\n",
            "    \"available_cores\": {available_cores},\n",
            "    \"pipeline_depth\": {pipeline_depth},\n",
            "    \"sequential_s\": {seq_s:.6},\n",
            "    \"overlapped_s\": {ovl_s:.6},\n",
            "    \"pipelined_s\": {pip_s:.6},\n",
            "    \"overlap_speedup\": {overlap_speedup:.3},\n",
            "    \"sequential_critical_path_s\": {seq_cp_s:.6},\n",
            "    \"overlapped_critical_path_s\": {ovl_cp_s:.6},\n",
            "    \"pipelined_critical_path_s\": {pip_cp_s:.6},\n",
            "    \"critical_path_speedup\": {cp_speedup:.3},\n",
            "    \"pipelined_critical_path_speedup\": {pip_cp_speedup:.3}\n",
            "  }},\n",
            "  \"assembly\": {{\n",
            "    \"contigs\": {contigs},\n",
            "    \"total_length\": {total_length},\n",
            "    \"n50\": {n50},\n",
            "    \"compaction_iterations\": {iterations},\n",
            "    \"initial_nodes\": {initial_nodes},\n",
            "    \"final_nodes\": {final_nodes}\n",
            "  }}\n",
            "}}\n",
        ),
        genome_length = BENCH_GENOME_LENGTH,
        coverage = BENCH_COVERAGE,
        k = BENCH_K,
        seed = BENCH_SEED,
        reads = report.reads,
        read_bases = report.read_bases,
        threads = report.threads,
        access_reads = secs(&t.access_reads),
        kmer_counting = secs(&t.kmer_counting),
        construction = secs(&t.macronode_construction),
        compaction = secs(&t.compaction),
        walk = secs(&t.walk),
        total = secs(&t.total()),
        base_count = secs(&report.kmer_counting.baseline),
        base_build = secs(&report.macronode_construction.baseline),
        opt_count = secs(&report.kmer_counting.optimized),
        opt_build = secs(&report.macronode_construction.optimized),
        count_speedup = report.kmer_counting.speedup(),
        build_speedup = report.macronode_construction.speedup(),
        combined_speedup = report.counting_plus_construction_speedup(),
        compaction_speedup = report.compaction.speedup(),
        compaction_threads = report.compaction.threads,
        compaction_baseline_s = secs(&report.compaction.baseline),
        compaction_full_scan_s = secs(&report.compaction.full_scan),
        compaction_frontier_s = secs(&report.compaction.frontier),
        frontier_vs_full_scan = report.compaction.frontier_vs_full_scan(),
        checked_full = report.compaction.full_scan_profile.total_checked(),
        checked_frontier = report.compaction.frontier_profile.total_checked(),
        frontier_iterations =
            profile_iterations_json(&report.compaction.frontier_profile, "      "),
        sharding_threads = report.sharding.threads,
        sharding_single_s = secs(&report.sharding.single_graph),
        sharding_overhead = report.sharding.overhead_at_one(),
        sharding_runs = sharding_runs_json(&report.sharding, "      "),
        async_shards = report.async_schedule.shards,
        async_threads = report.async_schedule.threads,
        async_imbalance = report.async_schedule.load_imbalance,
        async_lockstep_wall_s = secs(&report.async_schedule.lockstep_wall),
        async_wall_s = secs(&report.async_schedule.async_wall),
        async_wall_speedup = report.async_schedule.wall_speedup(),
        async_lockstep_cp_s = secs(&report.async_schedule.lockstep_critical_path),
        async_cp_s = secs(&report.async_schedule.async_critical_path),
        async_cp_speedup = report.async_schedule.critical_path_speedup(),
        async_flushes = report.async_schedule.flushes,
        spill_threads = report.spill.threads,
        spill_budget = BENCH_SPILL_BUDGET_BYTES,
        spill_partitions = report.spill.telemetry.partitions,
        spill_in_memory_s = secs(&report.spill.in_memory),
        spill_spilled_s = secs(&report.spill.spilled),
        spill_overhead = report.spill.overhead(),
        spill_bytes = report.spill.telemetry.bytes_spilled,
        spill_runs = report.spill.telemetry.runs_written,
        spill_merge_passes = report.spill.telemetry.merge_passes,
        spill_peak_resident = report.spill.telemetry.peak_resident_bytes,
        batches = report.batch_streaming.batches,
        available_cores = report.batch_streaming.available_cores,
        pipeline_depth = BENCH_PIPELINE_DEPTH,
        seq_s = secs(&report.batch_streaming.sequential),
        ovl_s = secs(&report.batch_streaming.overlapped),
        pip_s = secs(&report.batch_streaming.pipelined),
        overlap_speedup = report.batch_streaming.overlap_speedup(),
        seq_cp_s = secs(&report.batch_streaming.sequential_critical_path),
        ovl_cp_s = secs(&report.batch_streaming.overlapped_critical_path),
        pip_cp_s = secs(&report.batch_streaming.pipelined_critical_path),
        cp_speedup = report.batch_streaming.critical_path_speedup(),
        pip_cp_speedup = report.batch_streaming.pipelined_critical_path_speedup(),
        contigs = report.assembly.contigs.len(),
        total_length = stats.total_length,
        n50 = stats.n50,
        iterations = report.assembly.compaction.iteration_count(),
        initial_nodes = report.assembly.compaction.initial_nodes,
        final_nodes = report.assembly.compaction.final_nodes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_well_formed() {
        let report = run_pipeline_bench(1);
        let json = report_to_json(&report);
        // Structural sanity without a JSON parser: balanced braces, expected keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"workload\"",
            "\"phase_timings_s\"",
            "\"baseline_s\"",
            "\"speedup\"",
            "\"counting_plus_construction\"",
            "\"compaction\"",
            "\"compaction_bench\"",
            "\"checked_nodes_frontier\"",
            "\"frontier_iterations\"",
            "\"batch_streaming\"",
            "\"overlap_speedup\"",
            "\"sharding\"",
            "\"overhead_at_one\"",
            "\"cross_channel_bytes\"",
            "\"async\"",
            "\"async_critical_path_s\"",
            "\"spill\"",
            "\"bytes_spilled\"",
            "\"merge_passes\"",
            "\"peak_resident_bytes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Spill invariants: the budget forced real disk traffic, the read-back
        // merged at least once, the resident high-water mark stayed in the
        // budget's regime (waves target budget/2; eviction can briefly overshoot
        // one wave's extraction), and the overhead ratio is a positive finite
        // number.
        assert!(report.spill.telemetry.bytes_spilled > 0);
        assert!(report.spill.telemetry.runs_written > 0);
        assert!(report.spill.telemetry.merge_passes >= 1);
        assert!(report.spill.telemetry.peak_resident_bytes > 0);
        assert_eq!(
            report.spill.telemetry.budget_bytes,
            BENCH_SPILL_BUDGET_BYTES
        );
        assert_eq!(report.spill.telemetry.partitions, BENCH_SPILL_PARTITIONS);
        assert!(report.spill.overhead().is_finite());
        assert!(report.spill.overhead() > 0.0);
        // Sharding invariants: the sweep includes the 1-shard overhead probe,
        // real shard counts move real cross-shard traffic, and the overhead
        // ratio is a positive finite number.
        assert_eq!(report.sharding.runs.len(), BENCH_SHARD_COUNTS.len());
        assert!(report.sharding.overhead_at_one().is_finite());
        assert!(report.sharding.overhead_at_one() > 0.0);
        let one = &report.sharding.runs[0];
        assert_eq!(one.shards, 1);
        assert_eq!(one.telemetry.total_cross_shard_bytes(), 0);
        let eight = report.sharding.runs.iter().find(|r| r.shards == 8).unwrap();
        assert!(eight.telemetry.total_cross_shard_bytes() > 0);
        assert!(eight.telemetry.cross_shard_fraction() > 0.5);
        assert!(eight.channel_load.imbalance() >= 1.0);
        // Async-schedule invariants: the run recorded real mailbox flushes,
        // and the barrier-free critical path never exceeds the barriered one
        // rebuilt from the same measured round times.
        assert_eq!(report.async_schedule.shards, BENCH_ASYNC_SHARDS);
        assert!(report.async_schedule.flushes > 0);
        assert!(report.async_schedule.async_critical_path > Duration::ZERO);
        assert!(
            report.async_schedule.async_critical_path
                <= report.async_schedule.lockstep_critical_path
        );
        assert!(report.async_schedule.critical_path_speedup() >= 1.0);
        assert!(report.async_schedule.wall_speedup() > 0.0);
        // The compaction comparison's deterministic invariants: iteration 0 is a
        // full scan, every later frontier iteration checks strictly fewer nodes
        // than the alive census, and the totals reflect that.
        assert!(report.compaction.speedup() > 0.0);
        assert!(report.compaction.frontier_strictly_narrower());
        assert!(
            report.compaction.frontier_profile.total_checked()
                < report.compaction.full_scan_profile.total_checked()
        );
        assert_eq!(
            report.compaction.full_scan_profile.total_checked(),
            report.compaction.full_scan_profile.total_full_scan_checks()
        );
        assert!(report.kmer_counting.speedup() > 0.0);
        assert!(report.batch_streaming.batches >= 2);
        assert!(report.batch_streaming.overlap_speedup() > 0.0);
        // With ≥ 2 batches the pipelined critical path is strictly shorter than
        // the sequential one (this holds on any host — it is derived from the
        // same measured stage times).
        assert!(
            report.batch_streaming.overlapped_critical_path
                < report.batch_streaming.sequential_critical_path,
            "overlap must shorten the critical path: {:?} vs {:?}",
            report.batch_streaming.overlapped_critical_path,
            report.batch_streaming.sequential_critical_path,
        );
        assert!(report.batch_streaming.critical_path_speedup() > 1.0);
        // The k-deep window can only admit fronts earlier than the 1-deep one.
        assert!(
            report.batch_streaming.pipelined_critical_path
                <= report.batch_streaming.overlapped_critical_path
        );
        assert!(
            report.batch_streaming.pipelined_critical_path_speedup()
                >= report.batch_streaming.critical_path_speedup()
        );
        assert!(json.contains("\"pipelined_critical_path_speedup\""));
    }

    #[test]
    fn pipelined_critical_path_generalizes_the_overlapped_closed_form() {
        use nmp_pak_pakman::PhaseTimings;
        let ms = Duration::from_millis;
        let batch = |front_ms: u64, back_ms: u64| PhaseTimings {
            access_reads: Duration::ZERO,
            kmer_counting: ms(front_ms),
            macronode_construction: Duration::ZERO,
            compaction: ms(back_ms),
            walk: Duration::ZERO,
        };
        // Fronts longer than backs: a deeper window genuinely helps.
        let timings = vec![batch(30, 10), batch(30, 10), batch(30, 10), batch(30, 10)];
        let (sequential, overlapped_closed_form) = critical_paths(&timings);
        assert_eq!(pipelined_critical_path(&timings, 1), overlapped_closed_form);
        let deep = pipelined_critical_path(&timings, 3);
        assert!(deep < overlapped_closed_form);
        assert!(deep < sequential);
        // Depth beyond the batch count saturates: every front starts at 0, so
        // the bound is front₀ plus at most Σ back plus trailing stalls.
        assert_eq!(
            pipelined_critical_path(&timings, 8),
            pipelined_critical_path(&timings, 4)
        );
        // Backs dominating: depth cannot help beyond the 1-deep overlap, and
        // the result never regresses past it.
        let back_heavy = vec![batch(5, 40), batch(5, 40), batch(5, 40)];
        let (_, overlapped_bh) = critical_paths(&back_heavy);
        assert_eq!(pipelined_critical_path(&back_heavy, 1), overlapped_bh);
        assert!(pipelined_critical_path(&back_heavy, 3) <= overlapped_bh);
    }
}
