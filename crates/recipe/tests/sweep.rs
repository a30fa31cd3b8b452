//! End-to-end sweep tests: cells are bit-identical to one-shot
//! `PakmanAssembler` runs and degenerate recipes behave predictably.

use nmp_pak_core::backend::BackendId;
use nmp_pak_pakman::PakmanAssembler;
use nmp_pak_recipe::{
    metric, Axis, Executor, Gate, Grid, Recipe, RecipeError, ScenarioSpec, ScheduleSpec,
};

fn two_by_two() -> Recipe {
    Recipe {
        name: "2x2".to_string(),
        description: "threads x k".to_string(),
        base: ScenarioSpec {
            genome_length: 10_000,
            coverage: 15.0,
            ..ScenarioSpec::default()
        },
        grid: Grid::axis(Axis::threads(&[1, 4])).cross(Grid::axis(Axis::k(&[17, 21]))),
        gates: vec![Gate::at_least(metric::N50, 1.0)],
    }
}

#[test]
fn two_by_two_cells_are_bit_identical_to_one_shot_runs() {
    let recipe = two_by_two();
    let report = Executor::local().run(&recipe).unwrap();
    assert_eq!(report.cells.len(), 4);
    assert!(report.passed());

    for cell in &report.cells {
        let workload = cell.spec.synthesize_workload().unwrap();
        let reference = PakmanAssembler::new(cell.spec.pakman_config())
            .assemble(&workload.reads)
            .unwrap();
        assert_eq!(
            cell.output.contigs(),
            reference.contigs.as_slice(),
            "cell {} diverged from the one-shot run",
            cell.label
        );
        assert_eq!(cell.output.stats(), &reference.stats);
        assert_eq!(cell.metric(metric::N50), Some(reference.stats.n50 as f64));
    }
}

#[test]
fn violated_gate_fails_the_report_without_erroring() {
    let mut recipe = two_by_two();
    recipe
        .gates
        .push(Gate::at_least(metric::N50, 1e12).on(nmp_pak_recipe::CellSelector::all()));
    let report = Executor::local().run(&recipe).unwrap();
    assert!(!report.passed());
    let failed = report.gates.iter().find(|g| !g.passed).unwrap();
    assert_eq!(failed.metric, metric::N50);
    assert!(failed.observed.is_some());
}

#[test]
fn gate_on_missing_metric_fails_loudly() {
    let mut recipe = two_by_two();
    recipe.gates.push(Gate::at_least("no_such_metric", 0.0));
    let report = Executor::local().run(&recipe).unwrap();
    assert!(!report.passed());
    let failed = report.gates.iter().find(|g| !g.passed).unwrap();
    assert!(failed.detail.contains("missing"));
}

#[test]
fn gate_matching_no_cells_fails_loudly() {
    let mut recipe = two_by_two();
    recipe
        .gates
        .push(Gate::at_least(metric::N50, 1.0).on(nmp_pak_recipe::CellSelector::shards_eq(999)));
    let report = Executor::local().run(&recipe).unwrap();
    assert!(!report.passed());
    let failed = report.gates.iter().find(|g| !g.passed).unwrap();
    assert!(failed.detail.contains("no cells matched"));
}

#[test]
fn empty_grid_reports_zero_cells_and_all_cell_gates_fail() {
    let recipe = Recipe {
        name: "empty".to_string(),
        description: "no cells".to_string(),
        base: ScenarioSpec::default(),
        grid: Grid::axis(Axis::threads(&[])),
        gates: vec![Gate::at_least(metric::N50, 1.0)],
    };
    let report = Executor::local().run(&recipe).unwrap();
    assert!(report.cells.is_empty());
    assert!(!report.passed());
}

#[test]
fn backend_on_a_batched_schedule_is_rejected() {
    let recipe = Recipe {
        name: "bad".to_string(),
        description: "backend x pipelined".to_string(),
        base: ScenarioSpec {
            backend: Some(BackendId::NMP_PAK),
            schedule: ScheduleSpec::Pipelined {
                batch_fraction: 0.5,
                depth: 2,
            },
            ..ScenarioSpec::default()
        },
        grid: Grid::axis(Axis::threads(&[4])),
        gates: Vec::new(),
    };
    assert!(matches!(
        Executor::local().run(&recipe),
        Err(RecipeError::UnsupportedCell { .. })
    ));
}

#[test]
fn report_json_is_structurally_sound() {
    let recipe = two_by_two();
    let report = Executor::local().run(&recipe).unwrap();
    let json = report.to_json();
    assert!(json.contains("\"recipe\": \"2x2\""));
    assert!(json.contains("\"passed\": true"));
    assert_eq!(json.matches("\"label\":").count(), 4);
    assert_eq!(json.matches("\"gate\":").count(), 1);
    // Balanced braces/brackets (cheap well-formedness check without a parser).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
