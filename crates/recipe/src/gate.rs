//! Declarative gates: per-metric pass/fail assertions over sweep cells.
//!
//! A gate names a metric, a direction ([`GateOp`]), a threshold, and the cells
//! it applies to ([`CellSelector`]). The threshold is the constant the recipe
//! carries — nothing in the environment overrides it; to tighten a floor for
//! one run, append an ad-hoc gate on the `experiments sweep` command line.
//!
//! Gates fail loudly rather than silently vacuously: a selector matching zero
//! cells fails, and a matched cell missing the metric fails.

use crate::exec::CellResult;
use crate::spec::ScenarioSpec;
use std::sync::Arc;

/// Direction of a gate's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOp {
    /// Metric must be `>= threshold` on every selected cell.
    AtLeast,
    /// Metric must be `<= threshold` on every selected cell.
    AtMost,
}

impl GateOp {
    fn symbol(self) -> &'static str {
        match self {
            GateOp::AtLeast => ">=",
            GateOp::AtMost => "<=",
        }
    }
}

/// Which cells a gate applies to.
#[derive(Clone)]
pub struct CellSelector {
    label: String,
    pred: Arc<dyn Fn(&ScenarioSpec) -> bool + Send + Sync>,
}

impl CellSelector {
    /// A selector from a label and a predicate.
    pub fn custom(
        label: impl Into<String>,
        pred: impl Fn(&ScenarioSpec) -> bool + Send + Sync + 'static,
    ) -> CellSelector {
        CellSelector {
            label: label.into(),
            pred: Arc::new(pred),
        }
    }

    /// Every cell.
    pub fn all() -> CellSelector {
        CellSelector::custom("all cells", |_| true)
    }

    /// Cells with exactly `shards` shards.
    pub fn shards_eq(shards: usize) -> CellSelector {
        CellSelector::custom(format!("shards={shards}"), move |s| s.shards == shards)
    }

    /// Cells running sharded (more than one shard).
    pub fn sharded() -> CellSelector {
        CellSelector::custom("shards>1", |s| s.shards > 1)
    }

    /// Cells simulating the given backend.
    pub fn backend_is(id: nmp_pak_core::backend::BackendId) -> CellSelector {
        CellSelector::custom(format!("backend={id}"), move |s| s.backend == Some(id))
    }

    /// Cells with a bounded spill budget.
    pub fn spilled() -> CellSelector {
        CellSelector::custom("spill-bounded", |s| s.spill_budget.is_some())
    }

    /// Cells running a batched schedule.
    pub fn batched() -> CellSelector {
        CellSelector::custom("batched", |s| s.schedule.is_batched())
    }

    /// The selector's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Whether the selector matches a scenario.
    pub fn matches(&self, spec: &ScenarioSpec) -> bool {
        (self.pred)(spec)
    }
}

impl std::fmt::Debug for CellSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellSelector")
            .field("label", &self.label)
            .finish()
    }
}

/// One declarative assertion over the sweep's cells.
#[derive(Debug, Clone)]
pub struct Gate {
    /// The metric name the gate reads from each selected cell.
    pub metric: String,
    /// Comparison direction.
    pub op: GateOp,
    /// The floor (`AtLeast`) or cap (`AtMost`) the metric is held to.
    pub threshold: f64,
    /// The cells the gate applies to.
    pub selector: CellSelector,
}

impl Gate {
    /// `metric >= threshold` over all cells.
    pub fn at_least(metric: impl Into<String>, threshold: f64) -> Gate {
        Gate {
            metric: metric.into(),
            op: GateOp::AtLeast,
            threshold,
            selector: CellSelector::all(),
        }
    }

    /// `metric <= threshold` over all cells.
    pub fn at_most(metric: impl Into<String>, threshold: f64) -> Gate {
        Gate {
            metric: metric.into(),
            op: GateOp::AtMost,
            threshold,
            selector: CellSelector::all(),
        }
    }

    /// Restricts the gate to cells matched by `selector`.
    #[must_use]
    pub fn on(mut self, selector: CellSelector) -> Gate {
        self.selector = selector;
        self
    }

    /// Human-readable description (`metric >= 1.3 on shards=1`).
    pub fn describe(&self) -> String {
        format!(
            "{} {} {} on {}",
            self.metric,
            self.op.symbol(),
            self.threshold,
            self.selector.label()
        )
    }

    /// Evaluates the gate over the sweep's cells.
    pub fn evaluate(&self, cells: &[CellResult]) -> GateOutcome {
        let threshold = self.threshold;
        let matched: Vec<&CellResult> = cells
            .iter()
            .filter(|c| self.selector.matches(&c.spec))
            .collect();
        if matched.is_empty() {
            return GateOutcome {
                description: self.describe(),
                metric: self.metric.clone(),
                threshold,
                observed: None,
                cells_checked: 0,
                passed: false,
                detail: format!("no cells matched selector `{}`", self.selector.label()),
            };
        }

        let mut worst: Option<(f64, String)> = None;
        let mut missing = Vec::new();
        for cell in &matched {
            match cell.metric(&self.metric) {
                Some(value) => {
                    let is_worse = match (&worst, self.op) {
                        (None, _) => true,
                        (Some((w, _)), GateOp::AtLeast) => value < *w,
                        (Some((w, _)), GateOp::AtMost) => value > *w,
                    };
                    if is_worse {
                        worst = Some((value, cell.label.clone()));
                    }
                }
                None => missing.push(cell.label.clone()),
            }
        }
        if !missing.is_empty() {
            return GateOutcome {
                description: self.describe(),
                metric: self.metric.clone(),
                threshold,
                observed: None,
                cells_checked: matched.len(),
                passed: false,
                detail: format!(
                    "metric `{}` missing on {} cell(s): {}",
                    self.metric,
                    missing.len(),
                    missing.join(", ")
                ),
            };
        }

        let (value, label) = worst.expect("matched cells is non-empty");
        let passed = match self.op {
            GateOp::AtLeast => value >= threshold,
            GateOp::AtMost => value <= threshold,
        };
        GateOutcome {
            description: self.describe(),
            metric: self.metric.clone(),
            threshold,
            observed: Some(value),
            cells_checked: matched.len(),
            passed,
            detail: format!("worst cell `{label}`: {value}"),
        }
    }
}

/// The result of evaluating one gate.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Human-readable description of the gate.
    pub description: String,
    /// The metric the gate read.
    pub metric: String,
    /// The gate's threshold.
    pub threshold: f64,
    /// The worst observed value across selected cells, when all were present.
    pub observed: Option<f64>,
    /// Number of cells the selector matched.
    pub cells_checked: usize,
    /// Whether the gate held.
    pub passed: bool,
    /// Failure/worst-cell details.
    pub detail: String,
}
