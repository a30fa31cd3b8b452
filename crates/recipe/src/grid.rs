//! Grid composition: `cross`/`filter` over axes, with deterministic
//! enumeration into [`ScenarioSpec`] cells.
//!
//! Composition laws (all enumeration is left-to-right, right side fastest):
//!
//! * `a.cross(b)` — cartesian product. Rejects overlapping keys.
//! * `g.filter(f)` — keeps the cells whose materialized scenario satisfies
//!   the predicate, preserving order.
//!
//! A knob no axis binds keeps the base scenario's value.
//!
//! Enumerating the same grid twice yields the same cells in the same order,
//! and [`Grid::scenarios`] rejects grids that enumerate duplicate cells.

use crate::axis::{Axis, AxisKey, Setting};
use crate::error::RecipeError;
use crate::spec::ScenarioSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A partially-bound cell: one value per bound knob.
pub(crate) type Cell = BTreeMap<AxisKey, Setting>;

/// A labeled cell predicate, applied to fully-materialized scenarios.
#[derive(Clone)]
pub struct Filter {
    label: String,
    pred: Arc<dyn Fn(&ScenarioSpec) -> bool + Send + Sync>,
}

impl Filter {
    /// A filter from a label (for reports) and a predicate.
    pub fn new(
        label: impl Into<String>,
        pred: impl Fn(&ScenarioSpec) -> bool + Send + Sync + 'static,
    ) -> Filter {
        Filter {
            label: label.into(),
            pred: Arc::new(pred),
        }
    }

    /// Keeps cells whose shard count does not exceed `channels` — the
    /// canonical "skip shards > channels" guard.
    pub fn shards_at_most(channels: usize) -> Filter {
        Filter::new(format!("shards <= {channels}"), move |spec| {
            spec.shards <= channels
        })
    }

    /// The filter's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    pub(crate) fn keeps(&self, spec: &ScenarioSpec) -> bool {
        (self.pred)(spec)
    }
}

impl std::fmt::Debug for Filter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Filter")
            .field("label", &self.label)
            .finish()
    }
}

/// A composable scenario grid.
#[derive(Debug, Clone)]
pub enum Grid {
    /// A single axis: one cell per value.
    Axis(Axis),
    /// Cartesian product of two grids (disjoint keys).
    Cross(Box<Grid>, Box<Grid>),
    /// A grid restricted to cells satisfying a predicate.
    Filter(Box<Grid>, Filter),
}

impl Grid {
    /// A grid over one axis.
    pub fn axis(axis: Axis) -> Grid {
        Grid::Axis(axis)
    }

    /// Cartesian product with `other` (right side varies fastest).
    #[must_use]
    pub fn cross(self, other: Grid) -> Grid {
        Grid::Cross(Box::new(self), Box::new(other))
    }

    /// Restricts the grid to cells whose scenario satisfies `filter`.
    #[must_use]
    pub fn filter(self, filter: Filter) -> Grid {
        Grid::Filter(Box::new(self), filter)
    }

    /// Enumerates the raw cells (partial bindings) of this grid.
    pub(crate) fn cells(&self, base: &ScenarioSpec) -> Result<Vec<Cell>, RecipeError> {
        match self {
            Grid::Axis(axis) => Ok(axis
                .settings()
                .iter()
                .map(|s| {
                    let mut cell = Cell::new();
                    cell.insert(s.key(), *s);
                    cell
                })
                .collect()),
            Grid::Cross(a, b) => {
                let (left, right) = (a.cells(base)?, b.cells(base)?);
                let mut out = Vec::with_capacity(left.len() * right.len());
                for l in &left {
                    for r in &right {
                        out.push(merge_disjoint(l, r)?);
                    }
                }
                Ok(out)
            }
            Grid::Filter(grid, filter) => {
                let cells = grid.cells(base)?;
                Ok(cells
                    .into_iter()
                    .filter(|cell| filter.keeps(&materialize(base, cell)))
                    .collect())
            }
        }
    }

    /// Deterministically enumerates the grid into fully-bound scenarios over
    /// `base` (unbound knobs keep the base's values).
    ///
    /// # Errors
    ///
    /// [`RecipeError::DuplicateAxis`] when `cross` would bind a knob twice, and
    /// [`RecipeError::DuplicateCell`] when two cells materialize identically.
    pub fn scenarios(&self, base: &ScenarioSpec) -> Result<Vec<ScenarioSpec>, RecipeError> {
        let cells = self.cells(base)?;
        let mut seen = std::collections::HashSet::with_capacity(cells.len());
        let mut specs = Vec::with_capacity(cells.len());
        for cell in &cells {
            let spec = materialize(base, cell);
            if !seen.insert(spec.label()) {
                return Err(RecipeError::DuplicateCell {
                    label: spec.label(),
                });
            }
            specs.push(spec);
        }
        Ok(specs)
    }
}

fn materialize(base: &ScenarioSpec, cell: &Cell) -> ScenarioSpec {
    cell.values()
        .fold(base.clone(), |spec, setting| setting.apply(spec))
}

fn merge_disjoint(a: &Cell, b: &Cell) -> Result<Cell, RecipeError> {
    let mut out = a.clone();
    for (key, value) in b {
        if out.insert(*key, *value).is_some() {
            return Err(RecipeError::DuplicateAxis { key: *key });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioSpec {
        ScenarioSpec::default()
    }

    #[test]
    fn cross_enumerates_the_product_right_fastest() {
        let grid = Grid::axis(Axis::threads(&[1, 4])).cross(Grid::axis(Axis::k(&[17, 21])));
        let specs = grid.scenarios(&base()).unwrap();
        let pairs: Vec<(usize, usize)> = specs.iter().map(|s| (s.threads, s.k)).collect();
        assert_eq!(pairs, vec![(1, 17), (1, 21), (4, 17), (4, 21)]);
        // A knob no axis binds keeps the base scenario's value.
        assert!(specs.iter().all(|s| s.shards == base().shards));
    }

    #[test]
    fn cross_rejects_overlapping_keys() {
        let grid = Grid::axis(Axis::k(&[17])).cross(Grid::axis(Axis::k(&[21])));
        assert!(matches!(
            grid.scenarios(&base()),
            Err(RecipeError::DuplicateAxis { key: AxisKey::K })
        ));
    }

    #[test]
    fn filter_keeps_only_satisfying_cells_in_order() {
        let grid = Grid::axis(Axis::shards(&[1, 4, 8, 16])).filter(Filter::shards_at_most(8));
        let specs = grid.scenarios(&base()).unwrap();
        let shards: Vec<usize> = specs.iter().map(|s| s.shards).collect();
        assert_eq!(shards, vec![1, 4, 8]);
    }

    #[test]
    fn empty_axis_enumerates_zero_cells() {
        let empty = Grid::axis(Axis::threads(&[]));
        assert!(empty.scenarios(&base()).unwrap().is_empty());
        let crossed = Grid::axis(Axis::k(&[17, 21])).cross(Grid::axis(Axis::threads(&[])));
        assert!(crossed.scenarios(&base()).unwrap().is_empty());
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let grid = Grid::axis(Axis::threads(&[4, 4]));
        assert!(matches!(
            grid.scenarios(&base()),
            Err(RecipeError::DuplicateCell { .. })
        ));
    }
}
