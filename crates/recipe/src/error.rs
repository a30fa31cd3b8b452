//! Errors surfaced by recipe composition and execution.

use crate::axis::AxisKey;
use nmp_pak_genome::GenomeError;
use nmp_pak_pakman::PakmanError;

/// Everything that can go wrong building or running a recipe.
#[derive(Debug)]
pub enum RecipeError {
    /// `cross` would bind the same knob twice in one cell.
    DuplicateAxis {
        /// The knob bound twice.
        key: AxisKey,
    },
    /// Two cells materialize to the identical scenario.
    DuplicateCell {
        /// The colliding cell label.
        label: String,
    },
    /// A cell names a backend the standard registry does not know.
    UnknownBackend {
        /// The backend id.
        id: String,
    },
    /// A cell combines knobs the executor cannot honor together.
    UnsupportedCell {
        /// The offending cell label.
        label: String,
        /// Why the combination is unsupported.
        reason: String,
    },
    /// Workload synthesis failed.
    Workload(GenomeError),
    /// The software pipeline failed.
    Pipeline(PakmanError),
}

impl std::fmt::Display for RecipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecipeError::DuplicateAxis { key } => {
                write!(f, "axis `{key}` is bound twice in one cell")
            }
            RecipeError::DuplicateCell { label } => {
                write!(f, "grid enumerates duplicate cell `{label}`")
            }
            RecipeError::UnknownBackend { id } => {
                write!(f, "backend `{id}` is not in the standard registry")
            }
            RecipeError::UnsupportedCell { label, reason } => {
                write!(f, "cell `{label}` is unsupported: {reason}")
            }
            RecipeError::Workload(e) => write!(f, "workload synthesis failed: {e}"),
            RecipeError::Pipeline(e) => write!(f, "pipeline failed: {e}"),
        }
    }
}

impl std::error::Error for RecipeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecipeError::Workload(e) => Some(e),
            RecipeError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GenomeError> for RecipeError {
    fn from(e: GenomeError) -> RecipeError {
        RecipeError::Workload(e)
    }
}

impl From<PakmanError> for RecipeError {
    fn from(e: PakmanError) -> RecipeError {
        RecipeError::Pipeline(e)
    }
}
