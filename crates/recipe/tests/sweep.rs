//! End-to-end sweep tests: cells are bit-identical to one-shot
//! `PakmanAssembler` runs and degenerate recipes behave predictably.

use nmp_pak_core::backend::BackendId;
use nmp_pak_core::Workload;
use nmp_pak_pakman::PakmanAssembler;
use nmp_pak_recipe::{
    metric, CellOutput, Executor, Gate, MetricProbe, Recipe, RecipeError, ScenarioSpec,
    ScheduleSpec,
};
use std::cell::Cell;
use std::rc::Rc;

fn two_by_two() -> Recipe {
    let cells = [1, 4]
        .into_iter()
        .flat_map(|threads| {
            [17, 21].map(|k| ScenarioSpec {
                genome_length: 10_000,
                coverage: 15.0,
                threads,
                k,
                ..ScenarioSpec::default()
            })
        })
        .collect();
    Recipe {
        name: "2x2".to_string(),
        description: "threads x k".to_string(),
        cells,
        gates: vec![Gate::at_least(metric::N50, 1.0)],
    }
}

/// Reads `probe` = NaN on the `threads = 4` cells and 2 on the others, and
/// counts the cells it was asked about.
struct NanOnFourThreads(Rc<Cell<usize>>);

impl MetricProbe for NanOnFourThreads {
    fn cell_metrics(
        &self,
        _wants: &[String],
        spec: &ScenarioSpec,
        _workload: &Workload,
        _output: &CellOutput,
    ) -> Vec<(String, f64)> {
        self.0.set(self.0.get() + 1);
        let value = if spec.threads == 4 { f64::NAN } else { 2.0 };
        vec![("probe".to_string(), value)]
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
fn a_nan_metric_fails_its_gate_wherever_the_cell_sits() {
    for reversed in [false, true] {
        let mut recipe = two_by_two();
        if reversed {
            recipe.cells.reverse();
        }
        recipe.gates = vec![Gate::at_least("probe", 1.0)];
        let executor = Executor::local().with_probe(NanOnFourThreads(Rc::default()));
        let report = executor.run(&recipe).unwrap();
        let gate = &report.gates[0];
        assert!(!gate.passed, "reversed = {reversed}: {}", gate.detail);
        assert_eq!(gate.observed, None);
        assert!(
            gate.detail.contains("NaN on 2 cell(s)")
                && gate.detail.contains("_k21_t4_")
                && gate.detail.contains("_k17_t4_"),
            "{}",
            gate.detail
        );
    }
}

#[test]
fn a_label_listed_twice_is_rejected() {
    let mut recipe = two_by_two();
    recipe.cells.push(recipe.cells[0].clone());
    let calls = Rc::new(Cell::new(0));
    let executor = Executor::local().with_probe(NanOnFourThreads(Rc::clone(&calls)));
    match executor.run(&recipe) {
        Err(RecipeError::DuplicateCell { label }) => {
            assert_eq!(label, recipe.cells[0].label());
        }
        other => panic!("expected DuplicateCell, got {other:?}"),
    }
    assert_eq!(
        calls.get(),
        0,
        "a cell ran before the duplicate was rejected"
    );
}

#[test]
fn empty_recipe_reports_zero_cells_and_all_cell_gates_fail() {
    let recipe = Recipe {
        name: "empty".to_string(),
        description: "no cells".to_string(),
        cells: Vec::new(),
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
        cells: vec![ScenarioSpec {
            backend: Some(BackendId::NMP_PAK),
            schedule: ScheduleSpec::Pipelined {
                batch_fraction: 0.5,
                depth: 2,
            },
            ..ScenarioSpec::default()
        }],
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

#[test]
fn multinode_projections_repeat_bit_for_bit_across_executions() {
    let recipe = nmp_pak_recipe::builtin::multinode();
    let run = || Executor::local().run(&recipe).unwrap();
    let (first, second) = (run(), run());
    assert!(first.passed() && second.passed());
    for name in [
        metric::MULTINODE_2_SPEEDUP,
        metric::MULTINODE_4_SPEEDUP,
        metric::MULTINODE_8_SPEEDUP,
        metric::MULTINODE_8_CROSS_FRACTION,
    ] {
        let value = |report: &nmp_pak_recipe::SweepReport| report.cells[0].metric(name).unwrap();
        assert_eq!(
            value(&first).to_bits(),
            value(&second).to_bits(),
            "{name} moved between two executions of the same cell"
        );
    }
}
