//! The shipped recipes: the Fig. 12 backend sweep, the sharding scaling
//! curve, the spill-budget curve, the multi-node projection, and the CI smoke
//! sweep.
//!
//! The timing gates here are the repository's only CI floors: each threshold
//! is a constant of its recipe (one set of thresholds, one code path — pinned
//! by `ci_floors_are_the_documented_constants`), and `experiments sweep
//! <recipe>` exits non-zero when one is violated. To tighten a floor for one
//! run, append an ad-hoc gate (`experiments sweep smoke
//! 'speedup.compaction>=1.5'`).

use crate::exec::metric;
use crate::gate::{CellSelector, Gate};
use crate::spec::{ScenarioSpec, ScheduleSpec};
use crate::Recipe;
use nmp_pak_core::backend::BackendId;
use nmp_pak_pakman::ShardConfig;

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
        cells: [
            BackendId::CPU_BASELINE_UNOPTIMIZED,
            BackendId::CPU_BASELINE,
            BackendId::GPU_BASELINE,
            BackendId::CPU_PAK,
            BackendId::NMP_PAK,
            BackendId::NMP_IDEAL_PE,
            BackendId::NMP_IDEAL_FORWARDING,
        ]
        .map(|id| ScenarioSpec {
            backend: Some(id),
            ..ScenarioSpec::default()
        })
        .into(),
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

/// The sharding scaling curve: shard counts up to the channel count, gated on
/// the measured mailbox telemetry and — via the bench probe — the sharding tax
/// at one shard.
pub fn sharding() -> Recipe {
    Recipe {
        name: "sharding".to_string(),
        description: "Owner-computes sharded execution across shard counts, gated on \
                      mailbox telemetry and the one-shard overhead"
            .to_string(),
        cells: [1, 2, 4, ShardConfig::DEFAULT_CHANNELS]
            .map(|shards| ScenarioSpec {
                shards,
                ..ScenarioSpec::default()
            })
            .into(),
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
        cells: [None, Some(CAPPED_FROM), Some(64 * 1024)]
            .map(|spill_budget| ScenarioSpec {
                spill_budget,
                ..ScenarioSpec::default()
            })
            .into(),
        gates: vec![
            Gate::at_least(metric::BYTES_SPILLED, 1.0).on(CellSelector::spilled()),
            Gate::at_least(metric::MERGE_PASSES, 1.0).on(CellSelector::spilled()),
            Gate::at_most(metric::SPILL_OVERHEAD, 12.0).on(roomy_budget),
        ],
    }
}

/// The multi-node projection sweep: one 8-shard run projected onto 2/4/8-node
/// clusters by the default network model charging the run's own mailbox
/// flush ledger.
pub fn multinode() -> Recipe {
    Recipe {
        name: "multinode".to_string(),
        description: "8-shard lock-step compaction projected onto 2/4/8-node clusters \
                      by the mailbox network model"
            .to_string(),
        cells: vec![ScenarioSpec {
            shards: 8,
            ..ScenarioSpec::default()
        }],
        gates: vec![
            // N50 ≥ 1 keeps the cell producing contigs.
            Gate::at_least(metric::N50, 1.0),
            // Every cell must emit all three cluster projections; the low
            // floor asserts emission and sanity, not merit — §6.3's point is
            // precisely that the network may eat the parallelism.
            Gate::at_least(metric::MULTINODE_2_SPEEDUP, 0.05),
            Gate::at_least(metric::MULTINODE_4_SPEEDUP, 0.05),
            Gate::at_least(metric::MULTINODE_8_SPEEDUP, 0.05),
            // With every shard on its own node, the §6.3 cross-node share of
            // mailbox traffic approaches 7/8.
            Gate::at_least(metric::MULTINODE_8_CROSS_FRACTION, 0.5),
        ],
    }
}

/// The CI smoke sweep: threads × schedule on a tiny genome, carrying the
/// speedup floors against the vendored pre-refactor baselines as recipe gates
/// (the bench probe computes the speedups).
pub fn smoke() -> Recipe {
    let cell = |threads, schedule| ScenarioSpec {
        genome_length: 12_000,
        coverage: 15.0,
        threads,
        schedule,
        ..ScenarioSpec::default()
    };
    let pipelined = ScheduleSpec::Pipelined {
        batch_fraction: 0.5,
        depth: 2,
    };
    let full_run = CellSelector::custom("threads=4 single-batch", |s| {
        s.threads == 4 && !s.schedule.is_batched()
    });
    Recipe {
        name: "smoke".to_string(),
        description: "Tiny threads x schedule grid carrying the CI speedup floors as \
                      declarative gates"
            .to_string(),
        // No single-thread pipelined cell: pipelining overlaps batch fronts
        // with backs on other threads, so at one thread it gains nothing.
        cells: vec![
            cell(1, ScheduleSpec::SingleBatch),
            cell(4, ScheduleSpec::SingleBatch),
            cell(4, pipelined),
        ],
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
        let floors: [(&str, &str, GateOp, f64); 6] = [
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

    /// The cells every recipe runs, in order, as `BENCH_sweep.json` labels
    /// them: a change to any recipe's cell list shows here.
    #[test]
    fn every_named_recipe_resolves_and_enumerates() {
        let expected: [(&str, &[&str]); 5] = [
            (
                "smoke",
                &[
                    "g12000_x15_e0_sbe9c_k21_t1_sh1_single_mem_sw",
                    "g12000_x15_e0_sbe9c_k21_t4_sh1_single_mem_sw",
                    "g12000_x15_e0_sbe9c_k21_t4_sh1_pip0.5d2_mem_sw",
                ],
            ),
            (
                "fig12",
                &[
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_cpu-baseline-unoptimized",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_cpu-baseline",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_gpu-baseline",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_cpu-pak",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_nmp-pak",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_nmp-ideal-pe",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_nmp-ideal-forwarding",
                ],
            ),
            (
                "sharding",
                &[
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_sw",
                    "g20000_x20_e0_sbe9c_k21_t4_sh2_single_mem_sw",
                    "g20000_x20_e0_sbe9c_k21_t4_sh4_single_mem_sw",
                    "g20000_x20_e0_sbe9c_k21_t4_sh8_single_mem_sw",
                ],
            ),
            (
                "spill",
                &[
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_mem_sw",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_b524288_sw",
                    "g20000_x20_e0_sbe9c_k21_t4_sh1_single_b65536_sw",
                ],
            ),
            (
                "multinode",
                &["g20000_x20_e0_sbe9c_k21_t4_sh8_single_mem_sw"],
            ),
        ];
        assert_eq!(names().len(), expected.len());
        for (name, (expected_name, labels)) in names().iter().zip(expected) {
            assert_eq!(*name, expected_name);
            let recipe = by_name(name).unwrap();
            assert_eq!(&recipe.name, name);
            let got: Vec<String> = recipe.cells.iter().map(ScenarioSpec::label).collect();
            assert_eq!(got, labels, "recipe `{name}`");
        }
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn fig12_enumerates_the_seven_standard_backends_in_order() {
        let ids: Vec<&str> = fig12()
            .cells
            .iter()
            .map(|s| s.backend.unwrap().as_str())
            .collect();
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
    fn sharding_runs_every_shard_count_up_to_the_channel_count() {
        let shards: Vec<usize> = sharding().cells.iter().map(|s| s.shards).collect();
        assert_eq!(shards, vec![1, 2, 4, ShardConfig::DEFAULT_CHANNELS]);
    }

    #[test]
    fn smoke_has_no_single_thread_pipelined_cell() {
        let specs = smoke().cells;
        assert_eq!(specs.len(), 3);
        assert!(!specs
            .iter()
            .any(|s| s.threads == 1 && s.schedule.is_batched()));
        assert!(specs.iter().all(|s| s.k == 21));
    }
}
