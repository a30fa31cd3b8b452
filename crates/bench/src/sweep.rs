//! Recipe-sweep support: the vendored-baseline [`MetricProbe`] plus the
//! report printing/writing used by `experiments sweep`.
//!
//! The probe computes the `speedup.*`/overhead/critical-path metrics the
//! built-in recipes' CI floors read — current engines timed against the
//! vendored pre-refactor baselines (`crate::baseline`) — but only for the
//! metrics the recipe's gates actually reference, so sweeps without timing
//! gates (e.g. `fig12`) pay nothing.

use crate::baseline::{build_graph_baseline, compact_baseline, count_kmers_baseline};
use nmp_pak_core::Workload;
use nmp_pak_pakman::{
    compact, compact_sharded, count_kmers, count_kmers_spilled, BatchAssembler, BatchSchedule,
    KmerCounterConfig, PakGraph, PakmanConfig, PhaseTimings, ShardedGraph, SpillConfig,
};
use nmp_pak_recipe::{metric, CellOutput, MetricProbe, Recipe, RecipeError, ScenarioSpec};
use nmp_pak_recipe::{Executor, SweepReport};
use std::time::{Duration, Instant};

/// [`MetricProbe`] over the vendored pre-refactor baselines.
#[derive(Debug, Clone, Copy)]
pub struct BaselineProbe {
    /// Timing repetitions per measurement (best-of). At least 1.
    pub reps: usize,
}

impl Default for BaselineProbe {
    fn default() -> BaselineProbe {
        BaselineProbe { reps: 2 }
    }
}

/// Back-to-back (single-graph, one-shard sharded) pairs behind
/// `sharded_overhead_at_one` (≈ 17 ms a pair on the 20 kbp cell).
const OVERHEAD_PAIRS: usize = 25;

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

impl MetricProbe for BaselineProbe {
    fn cell_metrics(
        &self,
        wants: &[String],
        spec: &ScenarioSpec,
        workload: &Workload,
        _output: &CellOutput,
    ) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        let want = |m: &str| wants.iter().any(|w| w == m);
        let config = spec.pakman_config();
        let untraced = PakmanConfig {
            record_trace: false,
            ..config
        };
        let reps = self.reps.max(1);

        let needs_counted = want(metric::SPEEDUP_COUNTING_PLUS_CONSTRUCTION)
            || want(metric::SPEEDUP_COMPACTION)
            || (want(metric::SHARDED_OVERHEAD_AT_ONE) && spec.shards == 1);
        if needs_counted {
            let Ok((counted, _)) = count_kmers(&workload.reads, KmerCounterConfig::from(&config))
            else {
                return out;
            };

            if want(metric::SPEEDUP_COUNTING_PLUS_CONSTRUCTION) {
                let current = best_of(reps, || {
                    seconds(|| {
                        let (c, _) = count_kmers(&workload.reads, KmerCounterConfig::from(&config))
                            .expect("counting succeeded above");
                        let _ = PakGraph::from_counted_kmers(&c, config.k, config.threads);
                    })
                });
                let baseline = best_of(reps, || {
                    seconds(|| {
                        let c = count_kmers_baseline(
                            &workload.reads,
                            config.k,
                            config.min_kmer_count,
                            config.threads,
                        );
                        let _ = build_graph_baseline(&c, config.k);
                    })
                });
                out.push((
                    metric::SPEEDUP_COUNTING_PLUS_CONSTRUCTION.to_string(),
                    baseline / current.max(1e-9),
                ));
            }

            if want(metric::SPEEDUP_COMPACTION) || want(metric::SHARDED_OVERHEAD_AT_ONE) {
                let reference = PakGraph::from_counted_kmers(&counted, config.k, config.threads);

                if want(metric::SPEEDUP_COMPACTION) {
                    let current = best_of(reps, || {
                        let mut graph = reference.clone();
                        seconds(|| {
                            let _ = compact(&mut graph, &untraced);
                        })
                    });
                    let baseline = best_of(reps, || {
                        let mut graph = reference.clone();
                        seconds(|| {
                            let _ = compact_baseline(&mut graph, &untraced);
                        })
                    });
                    out.push((
                        metric::SPEEDUP_COMPACTION.to_string(),
                        baseline / current.max(1e-9),
                    ));
                }

                if want(metric::SHARDED_OVERHEAD_AT_ONE) && spec.shards == 1 {
                    // The engines' honest ratio (≈ 1.1) sits a few percent under
                    // its cap, where the speedup floors have 2–4× of headroom, so
                    // this cell is read tighter: the two engines run back to back
                    // and the median of the per-pair ratios is reported (a host
                    // hiccup slows both sides of a pair, and one lucky run cannot
                    // move a median). Both sides run the one barriered driver,
                    // on the same graph, so the ratio is what the sharded
                    // store's owner ledger adds to it.
                    let mut ratios: Vec<f64> = (0..OVERHEAD_PAIRS.max(reps))
                        .map(|_| {
                            let mut graph = reference.clone();
                            let single = seconds(|| {
                                let _ = compact(&mut graph, &untraced);
                            });
                            let mut graph = ShardedGraph::from_single(reference.clone());
                            let sharded = seconds(|| {
                                let _ = compact_sharded(&mut graph, &untraced);
                            });
                            sharded / single.max(1e-9)
                        })
                        .collect();
                    ratios.sort_by(f64::total_cmp);
                    out.push((
                        metric::SHARDED_OVERHEAD_AT_ONE.to_string(),
                        ratios[ratios.len() / 2],
                    ));
                }
            }
        }

        if want(metric::SPILL_OVERHEAD) {
            if let Some(budget) = spec.spill_budget {
                let spill_config = SpillConfig::bounded(budget);
                let in_memory = best_of(reps, || {
                    seconds(|| {
                        let _ = count_kmers(&workload.reads, KmerCounterConfig::from(&config));
                    })
                });
                let spilled = best_of(reps, || {
                    seconds(|| {
                        let _ = count_kmers_spilled(
                            &workload.reads,
                            KmerCounterConfig::from(&config),
                            &spill_config,
                        );
                    })
                });
                out.push((
                    metric::SPILL_OVERHEAD.to_string(),
                    spilled / in_memory.max(1e-9),
                ));
            }
        }

        if (want(metric::CRITICAL_PATH_SPEEDUP) || want(metric::PIPELINED_CRITICAL_PATH_SPEEDUP))
            && spec.schedule.is_batched()
        {
            let (fraction, _) = spec
                .schedule
                .to_batch()
                .expect("batched schedules map to a batch plan");
            let Ok(sequential) =
                BatchAssembler::with_schedule(untraced, fraction, BatchSchedule::Sequential)
                    .assemble(&workload.reads)
            else {
                return out;
            };
            let sequential_cp: f64 = sequential
                .batch_timings
                .iter()
                .map(|t| t.total().as_secs_f64())
                .sum();
            if want(metric::CRITICAL_PATH_SPEEDUP) {
                let overlapped = pipelined_critical_path(&sequential.batch_timings, 1);
                out.push((
                    metric::CRITICAL_PATH_SPEEDUP.to_string(),
                    sequential_cp / overlapped.as_secs_f64().max(1e-9),
                ));
            }
            if want(metric::PIPELINED_CRITICAL_PATH_SPEEDUP) {
                let pipelined =
                    pipelined_critical_path(&sequential.batch_timings, spec.schedule.depth());
                out.push((
                    metric::PIPELINED_CRITICAL_PATH_SPEEDUP.to_string(),
                    sequential_cp / pipelined.as_secs_f64().max(1e-9),
                ));
            }
        }

        out
    }
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

/// Runs a recipe with the vendored-baseline probe attached.
///
/// # Errors
///
/// Propagates [`RecipeError`] from enumeration and execution; gate violations
/// are reported in the returned [`SweepReport`], not as errors.
pub fn run_sweep(recipe: &Recipe) -> Result<SweepReport, RecipeError> {
    Executor::local()
        .with_probe(BaselineProbe::default())
        .run(recipe)
}

/// Prints the per-cell matrix and gate verdicts to stdout.
pub fn print_report(report: &SweepReport) {
    println!("sweep `{}` — {}", report.recipe, report.description);
    println!("  {} cell(s):", report.cells.len());
    for cell in &report.cells {
        let highlights: Vec<String> = cell
            .metrics
            .iter()
            .filter(|(name, _)| {
                report.gates.iter().any(|g| g.metric == *name)
                    || name == metric::WALL_S
                    || name == metric::N50
            })
            .map(|(name, value)| format!("{name}={value:.4}"))
            .collect();
        println!("    {}  {}", cell.label, highlights.join("  "));
    }
    println!("  {} gate(s):", report.gates.len());
    for gate in &report.gates {
        let verdict = if gate.passed { "PASS" } else { "FAIL" };
        let observed = match gate.observed {
            Some(v) => format!("{v:.4}"),
            None => "n/a".to_string(),
        };
        println!(
            "    [{verdict}] {} (observed {observed} over {} cell(s); {})",
            gate.description, gate.cells_checked, gate.detail
        );
    }
}

/// Writes the report's JSON matrix to `path`.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_report(report: &SweepReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, report.to_json())
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
