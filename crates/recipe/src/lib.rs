//! Scenario-sweep recipes for the NMP-PaK reproduction.
//!
//! The paper's evaluation runs short, fixed lists of configurations — Fig.
//! 12's backends, Fig. 15's PE counts, Table 1's batch sizes — and this crate
//! turns such a list into data instead of a hand-rolled loop:
//!
//! * [`ScenarioSpec`] — one fully-bound cell; its defaults mirror the
//!   hand-rolled quick-scale figure drivers, so recipes are bit-identical to
//!   the subcommands they replace.
//! * [`Recipe`] — a named list of cells plus the gates they must satisfy.
//!   Cells are built with ordinary Rust (`map`, `flat_map`, `filter` over
//!   struct literals); the list order is the run and report order.
//! * [`Gate`] — a declarative assertion (`speedup >= 1.3`) over selected
//!   cells; the built-in recipes' timing gates are the repository's CI floors.
//! * [`Executor`] — runs every cell through `PakmanAssembler`/`BatchAssembler`,
//!   simulates requested backends on the recorded trace, and emits one
//!   [`SweepReport`] (`BENCH_sweep.json`). It rejects a recipe that lists the
//!   same cell twice before running anything.
//!
//! Shipped recipes live in [`builtin`]: `fig12`, `sharding`, `spill`,
//! `multinode`, and the CI `smoke` sweep.

#![warn(missing_docs)]

pub mod builtin;
mod error;
mod exec;
mod gate;
mod report;
mod spec;

pub use error::RecipeError;
pub use exec::{metric, CellOutput, CellResult, Executor, MetricProbe};
pub use gate::{CellSelector, Gate, GateOp, GateOutcome};
pub use report::SweepReport;
pub use spec::{ScenarioSpec, ScheduleSpec, WorkloadKey};

/// A named sweep: the cells to run, in order, and the gates they must satisfy.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Recipe name (the `experiments sweep <name>` argument).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// The cells, in run and report order. Each label may appear once.
    pub cells: Vec<ScenarioSpec>,
    /// The declarative assertions evaluated over the executed cells.
    pub gates: Vec<Gate>,
}
