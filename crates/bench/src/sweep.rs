//! The five CI sweeps: `smoke`, `fig12`, `sharding`, `spill` and `multinode`.
//!
//! Each sweep is a plain function that runs a short, fixed list of
//! configurations through the pipeline and returns one [`Check`] per
//! (cell, metric) a floor reads: the cell, the metric, the floor and the
//! observed value. `experiments sweep <name>` looks a sweep up in
//! [`crate::builtin`], prints its checks, writes them to `BENCH_sweep.json`
//! ([`crate::report`]) and exits 1 when one fails. Every floor is a constant
//! here; nothing in the environment overrides one.
//!
//! Most checks read the pipeline's own telemetry and repeat bit for bit. Six
//! are timings: the speedups over the vendored pre-refactor engines
//! ([`crate::baseline`]), the two critical-path speedups, the one-shard
//! sharding overhead and the bounded-counting overhead. They are tripwires for
//! a hot path falling back to its old cost, meaningful in release builds only.

use crate::baseline::{build_graph_baseline, compact_baseline, count_kmers_baseline};
use crate::report::{at_least, at_most, Check};
use nmp_pak_core::backend::{BackendId, SystemConfig};
use nmp_pak_core::experiments::Experiments;
use nmp_pak_core::{NmpPakAssembler, Workload};
use nmp_pak_genome::SequencingRead;
use nmp_pak_nmphw::NetworkModel;
use nmp_pak_pakman::{
    compact, compact_sharded, count_kmers, count_kmers_spilled, AssemblyOutput, BatchAssembler,
    BatchSchedule, KmerCounterConfig, PakGraph, PakmanAssembler, PakmanConfig, PakmanError,
    PhaseTimings, ShardConfig, ShardedGraph, ShardingTelemetry, SpillConfig,
};
use std::error::Error;
use std::time::{Duration, Instant};

/// What a sweep returns: its checks, or the error a measurement hit.
pub type Checks = Result<Vec<Check>, Box<dyn Error>>;

/// The reference genome's seed in every cell (the quick-scale figures').
const SEED: u64 = 0xBE9C;

/// Timing repetitions behind the spill overhead (best-of).
const REPS: usize = 2;

/// Back-to-back (baseline, current) pairs behind each of the two speedups.
const SPEEDUP_PAIRS: usize = 11;

/// Back-to-back (single-graph, one-shard sharded) pairs behind
/// `sharded_overhead_at_one` (≈ 17 ms a pair on the 20 kbp cell).
const OVERHEAD_PAIRS: usize = 25;

/// The software settings of every cell: the figures' (k = 21, threads = 4),
/// without the trace.
fn config() -> PakmanConfig {
    PakmanConfig {
        record_trace: false,
        ..NmpPakAssembler::default().pakman
    }
}

/// The CI speedup floors on a 12 kbp, 15× genome: every cell must assemble,
/// the `threads = 4` one-shot run must keep its speedups over the vendored
/// pre-refactor engines (probed at `min(4, cores)` threads, the cell keeping
/// its name), and the depth-2 pipelined schedule's critical path
/// must not be longer than the sequential one. There is no single-thread
/// pipelined cell: pipelining overlaps batch fronts with backs on other
/// threads, so at one thread it gains nothing.
pub fn smoke() -> Checks {
    let workload = Workload::synthesize("smoke", 12_000, 15.0, 0.0, SEED)?;
    let reads = &workload.reads;
    let mut n50 = Vec::new();
    for threads in [1, 4] {
        let output = PakmanAssembler::new(PakmanConfig {
            threads,
            ..config()
        })
        .assemble(reads)?;
        n50.push((format!("threads={threads} single"), output.stats.n50));
    }
    let batched = BatchAssembler::with_schedule(
        config(),
        0.5,
        BatchSchedule::Pipelined {
            depth: 2,
            max_inflight_bytes: None,
        },
    )
    .assemble(reads)?;
    n50.push(("threads=4 pipelined".to_string(), batched.stats.n50));

    let (counting, compaction) = speedups(
        reads,
        &PakmanConfig {
            threads: probe_threads(),
            ..config()
        },
    )?;
    let sequential =
        BatchAssembler::with_schedule(config(), 0.5, BatchSchedule::Sequential).assemble(reads)?;
    let sequential_cp: f64 = sequential
        .batch_timings
        .iter()
        .map(|t| t.total().as_secs_f64())
        .sum();
    let path_speedup = |depth| {
        let path = pipelined_critical_path(&sequential.batch_timings, depth);
        sequential_cp / path.as_secs_f64().max(1e-9)
    };

    let (single, pipelined) = ("threads=4 single", "threads=4 pipelined");
    let mut checks: Vec<Check> = n50
        .into_iter()
        .map(|(cell, n50)| at_least(cell, "n50", 1.0, n50 as f64))
        .collect();
    checks.extend([
        at_least(single, "speedup.counting_plus_construction", 1.3, counting),
        at_least(single, "speedup.compaction", 1.2, compaction),
        at_least(pipelined, "critical_path_speedup", 1.0, path_speedup(1)),
        at_least(
            pipelined,
            "pipelined_critical_path_speedup",
            1.0,
            path_speedup(2),
        ),
    ]);
    Ok(checks)
}

/// Fig. 12: the seven backends simulated on one shared trace, normalized to
/// the CPU baseline. The baseline must read exactly 1.0 against itself
/// (anything else means the shared-trace contract broke), NMP-PaK must beat
/// it (the paper's headline), and the assembly must produce contigs.
pub fn fig12() -> Checks {
    let exp = Experiments::prepare(Workload::tiny(SEED)?, NmpPakAssembler::default())?;
    let rows = exp.fig12_normalized_performance();
    let normalized = |id: BackendId| {
        exp.backends
            .iter()
            .zip(&rows)
            .find(|(result, _)| result.backend == id)
            .map_or(f64::NAN, |(_, row)| row.value)
    };
    let (cpu, nmp) = (BackendId::CPU_BASELINE, BackendId::NMP_PAK);
    let metric = "normalized_performance";
    Ok(vec![
        at_least(cpu.as_str(), metric, 1.0, normalized(cpu)),
        at_most(cpu.as_str(), metric, 1.0, normalized(cpu)),
        at_least(nmp.as_str(), metric, 1.0, normalized(nmp)),
        at_least("assembly", "n50", 1.0, exp.assembly.stats.n50 as f64),
    ])
}

/// Owner-computes sharding up to the channel count: every sharded run must
/// book mailbox bytes across shards, at 8 shards more than half of them
/// (§6.3: the fraction approaches 7/8), and the owner ledger must cost the
/// one-shard run at most 15 % over the single graph.
pub fn sharding() -> Checks {
    let workload = Workload::tiny(SEED)?;
    let overhead = sharded_overhead_at_one(&workload.reads, &config())?;
    let mut checks = Vec::new();
    let mut fraction_at_eight = f64::NAN;
    for shards in [2, 4, ShardConfig::DEFAULT_CHANNELS] {
        let output = assemble_sharded(&workload, shards)?;
        let sharding = output.sharding.as_ref().ok_or("no sharding telemetry")?;
        let bytes = sharding.total_cross_shard_bytes() as f64;
        checks.push(at_least(
            format!("shards={shards}"),
            "cross_shard_bytes",
            1.0,
            bytes,
        ));
        if shards == 8 {
            fraction_at_eight = sharding.cross_shard_fraction();
        }
    }
    checks.extend([
        at_least("shards=8", "cross_shard_fraction", 0.5, fraction_at_eight),
        at_most("shards=1", "sharded_overhead_at_one", 1.15, overhead),
    ]);
    Ok(checks)
}

/// External-memory counting under two budgets: both must move bytes to disk
/// and merge them, and the 512 KiB budget must count at most 12× slower than
/// in memory. The 64 KiB budget exists to force multi-pass merges; its ratio
/// on this tiny workload is whatever the host's disk makes it, so it has no
/// cap. The cap is a tripwire for the spill path going quadratic; the number
/// to track is `spill.overhead_x` on the repository benchmark's
/// `batch_stream` workload.
pub fn spill() -> Checks {
    const CAPPED: u64 = 512 * 1024;
    let workload = Workload::tiny(SEED)?;
    let mut telemetry = Vec::new();
    let mut overhead = f64::NAN;
    for budget in [CAPPED, 64 * 1024] {
        let config = PakmanConfig {
            spill: SpillConfig::bounded(budget),
            ..config()
        };
        let output = PakmanAssembler::new(config).assemble(&workload.reads)?;
        let spill = output.spill.ok_or("no spill telemetry")?;
        telemetry.push((format!("budget={}KiB", budget / 1024), spill));
        if budget == CAPPED {
            overhead = spill_overhead(&workload.reads, &config, budget);
        }
    }
    let bytes = telemetry
        .iter()
        .map(|(cell, spill)| at_least(cell, "bytes_spilled", 1.0, spill.bytes_spilled as f64));
    let passes = telemetry
        .iter()
        .map(|(cell, spill)| at_least(cell, "merge_passes", 1.0, f64::from(spill.merge_passes)));
    let mut checks: Vec<Check> = bytes.chain(passes).collect();
    checks.push(at_most("budget=512KiB", "spill_overhead", 12.0, overhead));
    Ok(checks)
}

/// One 8-shard run projected onto 2-, 4- and 8-node clusters by the default
/// network model charging the run's own flush ledger. The speedup floors
/// assert that every projection is emitted and sane, not that it pays —
/// §6.3's point is that the network may eat the parallelism; with every
/// shard on its own node, the cross-node share of mailbox bytes approaches
/// 7/8.
pub fn multinode() -> Checks {
    const CELL: &str = "shards=8";
    let output = assemble_sharded(&Workload::tiny(SEED)?, 8)?;
    let sharding = output.sharding.as_ref().ok_or("no sharding telemetry")?;
    let base_ns = modeled_compaction_ns(&output, sharding);
    let network = NetworkModel::default();
    let [two, four, eight] =
        [2, 4, 8].map(|nodes| network.project_multinode(sharding, nodes, base_ns));
    Ok(vec![
        at_least(CELL, "n50", 1.0, output.stats.n50 as f64),
        at_least(CELL, "multinode.nodes2_speedup", 0.05, two.speedup()),
        at_least(CELL, "multinode.nodes4_speedup", 0.05, four.speedup()),
        at_least(CELL, "multinode.nodes8_speedup", 0.05, eight.speedup()),
        at_least(
            CELL,
            "multinode.nodes8_cross_fraction",
            0.5,
            eight.cross_node_fraction(),
        ),
    ])
}

fn assemble_sharded(workload: &Workload, shards: usize) -> Result<AssemblyOutput, PakmanError> {
    PakmanAssembler::new(PakmanConfig {
        shards: ShardConfig {
            shard_count: shards,
        },
        ..config()
    })
    .assemble(&workload.reads)
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The median of `pairs` ratios, each `pair()` timing two runs back to back
/// and dividing them: a host hiccup slows both sides of a pair, and one lucky
/// run cannot move a median.
fn median_of_pairs(pairs: usize, mut pair: impl FnMut() -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..pairs.max(1)).map(|_| pair()).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Threads of the speedup probe: the cell's 4, or the host's core count when
/// it has fewer. More threads than cores leaves each side of a pair to the
/// scheduler's noise on its own.
fn probe_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |cores| cores.get().min(4))
}

/// Counting plus construction, and compaction, each timed against its
/// vendored pre-refactor engine on the same reads: `baseline / current` for
/// both, the median over [`SPEEDUP_PAIRS`] back-to-back (baseline, current)
/// pairs, at [`probe_threads`] threads.
fn speedups(reads: &[SequencingRead], config: &PakmanConfig) -> Result<(f64, f64), PakmanError> {
    let (counted, _) = count_kmers(reads, KmerCounterConfig::from(config))?;
    let counting = median_of_pairs(SPEEDUP_PAIRS, || {
        let baseline = seconds(|| {
            let c = count_kmers_baseline(reads, config.k, config.min_kmer_count, config.threads);
            let _ = build_graph_baseline(&c, config.k);
        });
        let current = seconds(|| {
            let (c, _) = count_kmers(reads, KmerCounterConfig::from(config))
                .expect("counting succeeded above");
            let _ = PakGraph::from_counted_kmers(&c, config.k, config.threads);
        });
        baseline / current.max(1e-9)
    });

    let reference = PakGraph::from_counted_kmers(&counted, config.k, config.threads);
    let compaction = median_of_pairs(SPEEDUP_PAIRS, || {
        let mut graph = reference.clone();
        let baseline = seconds(|| {
            let _ = compact_baseline(&mut graph, config);
        });
        let mut graph = reference.clone();
        let current = seconds(|| {
            let _ = compact(&mut graph, config);
        });
        baseline / current.max(1e-9)
    });
    Ok((counting, compaction))
}

/// The one-shard sharded compaction over the single-graph one, on the same
/// graph.
///
/// The engines' ratio is read as the speedups are — the median over
/// [`OVERHEAD_PAIRS`] back-to-back (single, sharded) pairs — with more pairs,
/// since it sits a few percent under its cap. Both sides run the one
/// barriered driver on the same graph, so the ratio is what the sharded
/// store's owner ledger adds to it.
fn sharded_overhead_at_one(
    reads: &[SequencingRead],
    config: &PakmanConfig,
) -> Result<f64, PakmanError> {
    let (counted, _) = count_kmers(reads, KmerCounterConfig::from(config))?;
    let reference = PakGraph::from_counted_kmers(&counted, config.k, config.threads);
    Ok(median_of_pairs(OVERHEAD_PAIRS, || {
        let mut graph = reference.clone();
        let single = seconds(|| {
            let _ = compact(&mut graph, config);
        });
        let mut graph = ShardedGraph::from_single(reference.clone());
        let sharded = seconds(|| {
            let _ = compact_sharded(&mut graph, config);
        });
        sharded / single.max(1e-9)
    }))
}

/// Counting under a `budget`-byte bound over counting in memory, best of
/// [`REPS`] on each side.
fn spill_overhead(reads: &[SequencingRead], config: &PakmanConfig, budget: u64) -> f64 {
    let spill_config = SpillConfig::bounded(budget);
    let in_memory = best_of(REPS, || {
        seconds(|| {
            let _ = count_kmers(reads, KmerCounterConfig::from(config));
        })
    });
    let spilled = best_of(REPS, || {
        seconds(|| {
            let _ = count_kmers_spilled(reads, KmerCounterConfig::from(config), &spill_config);
        })
    });
    spilled / in_memory.max(1e-9)
}

/// Critical path of the k-deep pipelined schedule over measured stage times,
/// assuming non-competing workers (every admitted batch has a core).
///
/// The scheduler overlaps what `pakman::batch` overlaps: ingest and counting
/// (`front` = A + B) run on workers, construction, compaction and the walk
/// (`back` = C + D + E) on the calling thread, one batch at a time. It admits
/// the front of batch *j* when batch *j − depth* starts finishing, which gives
/// the recurrence
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
fn pipelined_critical_path(batch_timings: &[PhaseTimings], depth: usize) -> Duration {
    let front = |t: &PhaseTimings| t.access_reads + t.kmer_counting;
    let back = |t: &PhaseTimings| t.macronode_construction + t.compaction + t.walk;
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

/// The one-host compaction time a multi-node projection splits, in
/// nanoseconds: the run's P1 checks, each charged the host-CPU model's
/// one-core visit of a node of the run's mean initial MacroNode size. It is a
/// function of the run's census, not a timing, so two runs with the same
/// ledger project the same speedups whatever the host's load.
fn modeled_compaction_ns(output: &AssemblyOutput, sharding: &ShardingTelemetry) -> f64 {
    let system = SystemConfig::default();
    let checks: u64 = sharding.checked_per_shard.iter().sum();
    let nodes = output.compaction.initial_nodes.max(1) as u64;
    let mean_node_bytes = (output.footprint.macronode_bytes / nodes) as usize;
    let visit = system
        .cpu
        .node_cost(mean_node_bytes, system.dram.line_bytes);
    checks as f64 * visit.total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_critical_path_generalizes_the_overlapped_closed_form() {
        let ms = Duration::from_millis;
        // Construction takes 4 ms of every back: the fixtures below would miss
        // their closed forms if it were counted with the overlapped front.
        let timings = |batches: &[(u64, u64)]| -> Vec<PhaseTimings> {
            batches
                .iter()
                .map(|&(front_ms, back_ms)| PhaseTimings {
                    access_reads: Duration::ZERO,
                    kmer_counting: ms(front_ms),
                    macronode_construction: ms(4),
                    compaction: ms(back_ms - 4),
                    walk: Duration::ZERO,
                })
                .collect()
        };
        // The depth-1 closed form: front₀ + Σ max(backᵢ, frontᵢ₊₁) + back_{n-1}.
        let overlapped_closed_form = |batches: &[(u64, u64)]| {
            let last = batches.len() - 1;
            let stalls: u64 = (0..last).map(|i| batches[i].1.max(batches[i + 1].0)).sum();
            ms(batches[0].0 + stalls + batches[last].1)
        };

        // Fronts longer than backs: a deeper window genuinely helps.
        let front_heavy = [(30, 10); 4];
        let sequential = ms(front_heavy.iter().map(|(f, b)| f + b).sum());
        let overlapped = overlapped_closed_form(&front_heavy);
        assert_eq!(
            pipelined_critical_path(&timings(&front_heavy), 1),
            overlapped
        );
        let deep = pipelined_critical_path(&timings(&front_heavy), 3);
        assert!(deep < overlapped);
        assert!(deep < sequential);
        // Depth beyond the batch count saturates: every front starts at 0, so
        // the bound is front₀ plus at most Σ back plus trailing stalls.
        assert_eq!(
            pipelined_critical_path(&timings(&front_heavy), 8),
            pipelined_critical_path(&timings(&front_heavy), 4)
        );
        // Backs dominating: depth cannot help beyond the 1-deep overlap, and
        // the result never regresses past it.
        let back_heavy = [(5, 40); 3];
        let overlapped = overlapped_closed_form(&back_heavy);
        assert_eq!(
            pipelined_critical_path(&timings(&back_heavy), 1),
            overlapped
        );
        assert!(pipelined_critical_path(&timings(&back_heavy), 3) <= overlapped);
    }
}
