//! Composable scenario-sweep recipes for the NMP-PaK reproduction.
//!
//! The paper's evaluation is a cross-product of knobs — genome scale, k,
//! shard count, backend, batch schedule — and this crate turns that product
//! into data instead of hand-rolled loops:
//!
//! * [`Axis`] — a named list of values for one knob (`threads`, `shards`,
//!   `backend`, …).
//! * [`Grid`] — composition: [`Grid::cross`] (cartesian product),
//!   [`Grid::zip`] (positional pairing), [`Grid::plug`] (fill unbound knobs),
//!   [`Grid::filter`] (drop cells by predicate). Enumeration is deterministic
//!   and duplicate-free.
//! * [`ScenarioSpec`] — one fully-bound cell; its defaults mirror the
//!   hand-rolled quick-scale figure drivers, so recipes are bit-identical to
//!   the subcommands they replace.
//! * [`Gate`] — a declarative assertion (`speedup >= 1.3`) over selected
//!   cells; the built-in recipes' timing gates are the repository's CI floors.
//! * [`Executor`] — runs every cell through `PakmanAssembler`/`BatchAssembler`,
//!   simulates requested backends on the recorded trace, and emits one
//!   [`SweepReport`] (`BENCH_sweep.json`).
//!
//! Shipped recipes live in [`builtin`]: `fig12`, `sharding`, `spill`,
//! `multinode`, and the CI `smoke` grid.

#![warn(missing_docs)]

pub mod axis;
pub mod builtin;
pub mod error;
pub mod exec;
pub mod gate;
pub mod grid;
pub mod report;
pub mod spec;

pub use axis::{Axis, AxisKey, Setting};
pub use error::RecipeError;
pub use exec::{metric, CellOutput, CellResult, Executor, MetricProbe};
pub use gate::{CellSelector, Gate, GateOp, GateOutcome};
pub use grid::{Filter, Grid};
pub use report::SweepReport;
pub use spec::{ScenarioSpec, ScheduleSpec, WorkloadKey};

/// A named sweep: a base scenario, a grid of cells over it, and the gates the
/// sweep must satisfy.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Recipe name (the `experiments sweep <name>` argument).
    pub name: String,
    /// One-line description for reports.
    pub description: String,
    /// The scenario every cell starts from; unbound knobs keep these values.
    pub base: ScenarioSpec,
    /// The grid of cells.
    pub grid: Grid,
    /// The declarative assertions evaluated over the executed cells.
    pub gates: Vec<Gate>,
}

impl Recipe {
    /// Deterministically enumerates the recipe's cells.
    ///
    /// # Errors
    ///
    /// Grid-composition errors ([`RecipeError::DuplicateAxis`],
    /// [`RecipeError::ZipLengthMismatch`], [`RecipeError::DuplicateCell`]).
    pub fn scenarios(&self) -> Result<Vec<ScenarioSpec>, RecipeError> {
        self.grid.scenarios(&self.base)
    }
}
