//! The acceptance contract for `experiments sweep`: the fig12 recipe's cells
//! are bit-identical to the hand-rolled `experiments fig12` subcommand, and a
//! deliberately violated gate fails the sweep.

use nmp_pak_bench::sweep::{run_sweep, BaselineProbe};
use nmp_pak_bench::{prepare_experiments, BenchScale};
use nmp_pak_recipe::{builtin, metric, Executor, Gate};

#[test]
fn fig12_sweep_is_bit_identical_to_the_hand_rolled_driver() {
    let report = Executor::local().run(&builtin::fig12()).unwrap();
    assert!(report.passed());

    let exp = prepare_experiments(BenchScale::Quick);
    let rows = exp.fig12_normalized_performance();
    assert_eq!(report.cells.len(), rows.len());
    for (cell, row) in report.cells.iter().zip(rows.iter()) {
        // Exact f64 equality: both paths simulate the same backend on the
        // same trace from the same deterministic software run.
        assert_eq!(
            cell.metric(metric::NORMALIZED_PERFORMANCE),
            Some(row.value),
            "cell {} diverged from hand-rolled row {}",
            cell.label,
            row.label
        );
    }
    // The software run itself matches the hand-rolled preparation.
    for cell in &report.cells {
        assert_eq!(cell.output.stats(), &exp.assembly.stats);
        assert_eq!(cell.output.contigs(), exp.assembly.contigs.as_slice());
    }
}

#[test]
fn a_deliberately_violated_gate_fails_the_sweep() {
    let mut recipe = builtin::fig12();
    recipe
        .gates
        .push(Gate::at_least(metric::NORMALIZED_PERFORMANCE, 100.0));
    let report = Executor::local().run(&recipe).unwrap();
    assert!(!report.passed());
}

#[test]
fn smoke_recipe_runs_with_the_baseline_probe() {
    // Thresholds are relaxed for this debug-build unit test (timing ratios
    // are only meaningful in release); the release-mode CI step runs the
    // smoke recipe with its real floors.
    let mut recipe = builtin::smoke();
    for gate in &mut recipe.gates {
        if gate.metric.starts_with("speedup.") || gate.metric.contains("critical_path") {
            gate.threshold = 0.01;
        }
    }
    let report = run_sweep(&recipe).unwrap();
    assert_eq!(report.cells.len(), 3);
    assert!(
        report.passed(),
        "smoke sweep failed: {:?}",
        report
            .gates
            .iter()
            .filter(|g| !g.passed)
            .map(|g| &g.detail)
            .collect::<Vec<_>>()
    );
    // The probe produced every gated metric on the cells its gates select.
    let single_threads4 = report
        .cells
        .iter()
        .find(|c| c.spec.threads == 4 && !c.spec.schedule.is_batched())
        .unwrap();
    assert!(single_threads4
        .metric(metric::SPEEDUP_COUNTING_PLUS_CONSTRUCTION)
        .is_some());
    assert!(single_threads4.metric(metric::SPEEDUP_COMPACTION).is_some());
    let pipelined = report
        .cells
        .iter()
        .find(|c| c.spec.schedule.is_batched())
        .unwrap();
    assert!(pipelined.metric(metric::CRITICAL_PATH_SPEEDUP).is_some());
    assert!(pipelined
        .metric(metric::PIPELINED_CRITICAL_PATH_SPEEDUP)
        .is_some());
}

#[test]
fn sharding_and_spill_recipes_carry_their_telemetry_gates() {
    // The telemetry gates are deterministic and checked for real; the two
    // timing-overhead gates are relaxed here (debug-build ratios are not
    // meaningful — the release-mode CI steps enforce the real caps).
    let relax_timing = |recipe: &mut nmp_pak_recipe::Recipe| {
        for gate in &mut recipe.gates {
            if gate.metric.contains("overhead") {
                gate.threshold = 1e9;
            }
        }
    };
    let mut sharding_recipe = builtin::sharding();
    relax_timing(&mut sharding_recipe);
    let sharding = Executor::local()
        .with_probe(BaselineProbe { reps: 1 })
        .run(&sharding_recipe)
        .unwrap();
    assert!(
        sharding.passed(),
        "sharding sweep failed: {:?}",
        sharding
            .gates
            .iter()
            .filter(|g| !g.passed)
            .map(|g| &g.detail)
            .collect::<Vec<_>>()
    );
    let eight = sharding.cells.iter().find(|c| c.spec.shards == 8).unwrap();
    assert!(eight.metric(metric::CROSS_SHARD_FRACTION).unwrap() >= 0.5);

    let mut spill_recipe = builtin::spill();
    relax_timing(&mut spill_recipe);
    let spill = Executor::local()
        .with_probe(BaselineProbe { reps: 1 })
        .run(&spill_recipe)
        .unwrap();
    assert!(
        spill.passed(),
        "spill sweep failed: {:?}",
        spill
            .gates
            .iter()
            .filter(|g| !g.passed)
            .map(|g| &g.detail)
            .collect::<Vec<_>>()
    );
    let bounded = spill
        .cells
        .iter()
        .find(|c| c.spec.spill_budget == Some(64 * 1024))
        .unwrap();
    assert!(bounded.metric(metric::BYTES_SPILLED).unwrap() >= 1.0);
}
