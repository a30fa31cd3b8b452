//! The shipped recipes: the Fig. 12 backend sweep, the sharding scaling
//! curve, the spill-budget curve, and the CI smoke grid.
//!
//! The timing gates here are the repository's only CI floors: each threshold
//! is a constant of its recipe (one set of thresholds, one code path — pinned
//! by `ci_floors_are_the_documented_constants`), and `experiments sweep
//! <recipe>` exits non-zero when one is violated. To tighten a floor for one
//! run, append an ad-hoc gate (`experiments sweep smoke
//! 'speedup.compaction>=1.5'`).

use crate::axis::Axis;
use crate::exec::metric;
use crate::gate::{CellSelector, Gate};
use crate::grid::{Filter, Grid};
use crate::spec::{ScenarioSpec, ScheduleSpec};
use crate::Recipe;
use nmp_pak_core::backend::BackendId;
use nmp_pak_pakman::{ShardConfig, ShardSchedule};

/// Names of the shipped recipes, in presentation order.
pub fn names() -> &'static [&'static str] {
    &["smoke", "fig12", "sharding", "spill", "multinode"]
}

/// Looks a shipped recipe up by name.
pub fn by_name(name: &str) -> Option<Recipe> {
    match name {
        "smoke" => Some(smoke()),
        "fig12" => Some(fig12()),
        "sharding" => Some(sharding()),
        "spill" => Some(spill()),
        "multinode" => Some(multinode()),
        _ => None,
    }
}

/// Fig. 12: every standard backend simulated on one shared software trace,
/// reported as runtime normalized to the CPU baseline. Cells reproduce the
/// hand-rolled `experiments fig12` quick-scale rows bit for bit.
pub fn fig12() -> Recipe {
    Recipe {
        name: "fig12".to_string(),
        description: "Backend sweep on one shared trace, normalized to the CPU baseline \
                      (paper Fig. 12)"
            .to_string(),
        base: ScenarioSpec::default(),
        grid: Grid::axis(Axis::backend(&[
            BackendId::CPU_BASELINE_UNOPTIMIZED,
            BackendId::CPU_BASELINE,
            BackendId::GPU_BASELINE,
            BackendId::CPU_PAK,
            BackendId::NMP_PAK,
            BackendId::NMP_IDEAL_PE,
            BackendId::NMP_IDEAL_FORWARDING,
        ])),
        gates: vec![
            // The baseline normalizes to exactly 1.0 against itself; anything
            // else indicates the shared-trace contract broke.
            Gate::at_least(metric::NORMALIZED_PERFORMANCE, 1.0)
                .on(CellSelector::backend_is(BackendId::CPU_BASELINE)),
            Gate::at_most(metric::NORMALIZED_PERFORMANCE, 1.0)
                .on(CellSelector::backend_is(BackendId::CPU_BASELINE)),
            // The paper's headline: NMP-PaK beats the CPU baseline.
            Gate::at_least(metric::NORMALIZED_PERFORMANCE, 1.0)
                .on(CellSelector::backend_is(BackendId::NMP_PAK)),
            Gate::at_least(metric::N50, 1.0),
        ],
    }
}

/// The sharding scaling curve: shard counts up to the channel count (a filter
/// drops the out-of-range point), gated on the measured mailbox telemetry and
/// — via the bench probe — the sharding tax at one shard.
pub fn sharding() -> Recipe {
    Recipe {
        name: "sharding".to_string(),
        description: "Owner-computes sharded execution across shard counts, gated on \
                      mailbox telemetry and the one-shard overhead"
            .to_string(),
        base: ScenarioSpec::default(),
        grid: Grid::axis(Axis::shards(&[1, 2, 4, 8, 16]))
            .filter(Filter::shards_at_most(ShardConfig::DEFAULT_CHANNELS)),
        gates: vec![
            Gate::at_least(metric::CROSS_SHARD_BYTES, 1.0).on(CellSelector::sharded()),
            // §6.3: at 8 shards the cross-shard fraction approaches 7/8.
            Gate::at_least(metric::CROSS_SHARD_FRACTION, 0.5).on(CellSelector::shards_eq(8)),
            Gate::at_most(metric::SHARDED_OVERHEAD_AT_ONE, 1.15).on(CellSelector::shards_eq(1)),
        ],
    }
}

/// The spill-budget curve: in-memory counting against two bounded budgets,
/// gated on the spill telemetry and — via the bench probe — the bounded
/// counting overhead.
///
/// The overhead cap covers only budgets of at least 512 KiB: the 64 KiB cell
/// exists to force multi-pass merges, and its ratio on this tiny workload is
/// whatever the host's disk makes it. The cap is a tripwire for the spill
/// path going quadratic; the number to track is `spill.overhead_x` on the
/// repository benchmark's `batch_stream` workload (`BENCHMARK.json`).
pub fn spill() -> Recipe {
    const CAPPED_FROM: u64 = 512 * 1024;
    let roomy_budget = CellSelector::custom("spill budget >= 512 KiB", |s| {
        s.spill_budget.is_some_and(|b| b >= CAPPED_FROM)
    });
    Recipe {
        name: "spill".to_string(),
        description: "External-memory counting across resident-byte budgets, gated on \
                      spill telemetry and bounded-counting overhead"
            .to_string(),
        base: ScenarioSpec::default(),
        grid: Grid::axis(Axis::spill_budget(&[
            None,
            Some(CAPPED_FROM),
            Some(64 * 1024),
        ])),
        gates: vec![
            Gate::at_least(metric::BYTES_SPILLED, 1.0).on(CellSelector::spilled()),
            Gate::at_least(metric::MERGE_PASSES, 1.0).on(CellSelector::spilled()),
            Gate::at_most(metric::SPILL_OVERHEAD, 12.0).on(roomy_budget),
        ],
    }
}

/// The multi-node projection sweep: lock-step against the async
/// verified-equivalent schedule at 8 shards, each measured run projected onto
/// 2/4/8-node clusters by the default network model charging the cell's own
/// mailbox flush ledger.
pub fn multinode() -> Recipe {
    let async_cells = CellSelector::custom("async schedule", |s| {
        s.shard_schedule == ShardSchedule::Async
    });
    Recipe {
        name: "multinode".to_string(),
        description: "Async vs lock-step shard scheduling at 8 shards, projected onto \
                      2/4/8-node clusters by the mailbox network model"
            .to_string(),
        base: ScenarioSpec {
            shards: 8,
            ..ScenarioSpec::default()
        },
        grid: Grid::axis(Axis::shard_schedule(&[
            ShardSchedule::Lockstep,
            ShardSchedule::Async,
        ])),
        gates: vec![
            // The schedules are verified-equivalent, so assembly quality must
            // be identical cell to cell; N50 ≥ 1 keeps both producing contigs.
            Gate::at_least(metric::N50, 1.0),
            // Removing the barrier can only shorten the modeled critical path
            // rebuilt from the async run's own measured round times.
            Gate::at_least(metric::ASYNC_CRITICAL_PATH_SPEEDUP, 1.0).on(async_cells.clone()),
            // Every cell must emit all three cluster projections; the low
            // floor asserts emission and sanity, not merit — §6.3's point is
            // precisely that the network may eat the parallelism.
            Gate::at_least(metric::MULTINODE_2_SPEEDUP, 0.05),
            Gate::at_least(metric::MULTINODE_4_SPEEDUP, 0.05),
            Gate::at_least(metric::MULTINODE_8_SPEEDUP, 0.05),
            // With every shard on its own node, the §6.3 cross-node share of
            // mailbox traffic approaches 7/8.
            Gate::at_least(metric::MULTINODE_8_CROSS_FRACTION, 0.5).on(async_cells),
        ],
    }
}

/// The CI smoke grid: a tiny cross of threads × schedule exercising `cross`
/// and `filter`, carrying the speedup floors against the vendored
/// pre-refactor baselines as recipe gates (the bench probe computes the
/// speedups).
pub fn smoke() -> Recipe {
    let base = ScenarioSpec {
        genome_length: 12_000,
        coverage: 15.0,
        ..ScenarioSpec::default()
    };
    let full_run = CellSelector::custom("threads=4 single-batch", |s| {
        s.threads == 4 && !s.schedule.is_batched()
    });
    Recipe {
        name: "smoke".to_string(),
        description: "Tiny threads x schedule grid carrying the CI speedup floors as \
                      declarative gates"
            .to_string(),
        base,
        grid: Grid::axis(Axis::threads(&[1, 4]))
            .cross(Grid::axis(Axis::batch_schedule(&[
                ScheduleSpec::SingleBatch,
                ScheduleSpec::Pipelined {
                    batch_fraction: 0.5,
                    depth: 2,
                },
            ])))
            // Single-thread hosts gain nothing from pipelining; skip the cell.
            .filter(Filter::new("skip single-thread pipelined", |s| {
                s.threads > 1 || !s.schedule.is_batched()
            })),
        gates: vec![
            Gate::at_least(metric::N50, 1.0),
            Gate::at_least(metric::SPEEDUP_COUNTING_PLUS_CONSTRUCTION, 1.3).on(full_run.clone()),
            Gate::at_least(metric::SPEEDUP_COMPACTION, 1.2).on(full_run),
            Gate::at_least(metric::CRITICAL_PATH_SPEEDUP, 1.0).on(CellSelector::batched()),
            Gate::at_least(metric::PIPELINED_CRITICAL_PATH_SPEEDUP, 1.0)
                .on(CellSelector::batched()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateOp::{self, AtLeast, AtMost};

    /// Nothing overrides a recipe threshold at run time, so the timing floors
    /// CI enforces are pinned here: editing one has to edit this table (and
    /// DESIGN.md's "CI floors" table) in the same change.
    #[test]
    fn ci_floors_are_the_documented_constants() {
        let floors: [(&str, &str, GateOp, f64); 7] = [
            (
                "smoke",
                metric::SPEEDUP_COUNTING_PLUS_CONSTRUCTION,
                AtLeast,
                1.3,
            ),
            ("smoke", metric::SPEEDUP_COMPACTION, AtLeast, 1.2),
            ("smoke", metric::CRITICAL_PATH_SPEEDUP, AtLeast, 1.0),
            (
                "smoke",
                metric::PIPELINED_CRITICAL_PATH_SPEEDUP,
                AtLeast,
                1.0,
            ),
            ("sharding", metric::SHARDED_OVERHEAD_AT_ONE, AtMost, 1.15),
            ("spill", metric::SPILL_OVERHEAD, AtMost, 12.0),
            (
                "multinode",
                metric::ASYNC_CRITICAL_PATH_SPEEDUP,
                AtLeast,
                1.0,
            ),
        ];
        for (recipe, gated, op, threshold) in floors {
            let gates = by_name(recipe).unwrap().gates;
            let pinned: Vec<(GateOp, f64)> = gates
                .iter()
                .filter(|g| g.metric == gated)
                .map(|g| (g.op, g.threshold))
                .collect();
            assert_eq!(pinned, [(op, threshold)], "{recipe}: {gated}");
        }

        // The spill overhead cap skips the cell that exists to force
        // multi-pass merges.
        let gates = spill().gates;
        let cap = gates
            .iter()
            .find(|g| g.metric == metric::SPILL_OVERHEAD)
            .map(|g| &g.selector)
            .unwrap();
        let with_budget = |spill_budget| ScenarioSpec {
            spill_budget,
            ..ScenarioSpec::default()
        };
        assert!(cap.matches(&with_budget(Some(512 * 1024))));
        assert!(!cap.matches(&with_budget(Some(64 * 1024))));
        assert!(!cap.matches(&with_budget(None)));
    }

    #[test]
    fn every_named_recipe_resolves_and_enumerates() {
        for name in names() {
            let recipe = by_name(name).unwrap();
            assert_eq!(&recipe.name, name);
            let specs = recipe.scenarios().unwrap();
            assert!(!specs.is_empty(), "recipe `{name}` enumerates no cells");
        }
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn fig12_enumerates_the_seven_standard_backends_in_order() {
        let specs = fig12().scenarios().unwrap();
        let ids: Vec<&str> = specs.iter().map(|s| s.backend.unwrap().as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "cpu-baseline-unoptimized",
                "cpu-baseline",
                "gpu-baseline",
                "cpu-pak",
                "nmp-pak",
                "nmp-ideal-pe",
                "nmp-ideal-forwarding",
            ]
        );
    }

    #[test]
    fn sharding_filter_drops_the_out_of_range_point() {
        let specs = sharding().scenarios().unwrap();
        let shards: Vec<usize> = specs.iter().map(|s| s.shards).collect();
        assert_eq!(shards, vec![1, 2, 4, 8]);
    }

    #[test]
    fn multinode_enumerates_both_schedules_at_eight_shards() {
        let specs = multinode().scenarios().unwrap();
        let schedules: Vec<ShardSchedule> = specs.iter().map(|s| s.shard_schedule).collect();
        assert_eq!(
            schedules,
            vec![ShardSchedule::Lockstep, ShardSchedule::Async]
        );
        assert!(specs.iter().all(|s| s.shards == 8));
        let labels: Vec<String> = specs.iter().map(ScenarioSpec::label).collect();
        assert_ne!(labels[0], labels[1], "the schedule must mark the cell id");
    }

    #[test]
    fn smoke_filter_drops_single_thread_pipelined() {
        let specs = smoke().scenarios().unwrap();
        assert_eq!(specs.len(), 3);
        assert!(!specs
            .iter()
            .any(|s| s.threads == 1 && s.schedule.is_batched()));
        assert!(specs.iter().all(|s| s.k == 21));
    }
}
