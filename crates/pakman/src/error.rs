//! Error type for the PaKman assembler.

use nmp_pak_genome::GenomeError;
use std::fmt;

/// Errors produced while running the PaKman assembly pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PakmanError {
    /// An invalid configuration value was supplied.
    InvalidConfig {
        /// Human readable description of the problem.
        message: String,
    },
    /// The input read set produced no usable k-mers (e.g. all reads shorter than k).
    EmptyInput {
        /// Description of what was empty.
        message: String,
    },
    /// An underlying DNA/sequence error.
    Genome(GenomeError),
    /// A spill-file I/O or framing failure in the external-memory counting path
    /// (unwritable spill directory, truncated or corrupt run file).
    Spill {
        /// Human readable description including the offending file.
        message: String,
    },
    /// The run was cooperatively cancelled via a [`crate::control::CancelToken`].
    ///
    /// Cancellation is checked at stage boundaries and between compaction
    /// iterations, so partially-built artifacts are simply dropped; no output
    /// is produced past a cancellation point.
    Cancelled {
        /// The checkpoint that observed the cancellation (e.g. `"compaction"`,
        /// `"stage B (k-mer counting)"`).
        at: String,
    },
    /// The async shard schedule broke one of its own invariants — a stalled run
    /// queue, a mailbox flush that missed its wave, flushes left unapplied at the
    /// end — which is a bug in the engine, not in the input. The run stops, every
    /// worker is released and every in-flight flush is un-charged; the graph is
    /// left mid-compaction and should be dropped.
    ScheduleInvariant {
        /// The violated invariant and the engine state that shows it.
        message: String,
    },
}

impl fmt::Display for PakmanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PakmanError::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            PakmanError::EmptyInput { message } => write!(f, "empty input: {message}"),
            PakmanError::Genome(err) => write!(f, "genome error: {err}"),
            PakmanError::Spill { message } => write!(f, "spill error: {message}"),
            PakmanError::Cancelled { at } => write!(f, "cancelled at {at}"),
            PakmanError::ScheduleInvariant { message } => {
                write!(f, "schedule invariant violated: {message}")
            }
        }
    }
}

impl std::error::Error for PakmanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PakmanError::Genome(err) => Some(err),
            _ => None,
        }
    }
}

impl From<GenomeError> for PakmanError {
    fn from(err: GenomeError) -> Self {
        PakmanError::Genome(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = PakmanError::InvalidConfig {
            message: "k must be at most 32".to_string(),
        };
        assert!(err.to_string().contains("k must be at most 32"));

        let err = PakmanError::EmptyInput {
            message: "no reads".to_string(),
        };
        assert!(err.to_string().contains("no reads"));

        let err = PakmanError::Spill {
            message: "truncated run in part-3.runs".to_string(),
        };
        assert!(err.to_string().contains("part-3.runs"));
    }

    #[test]
    fn genome_errors_convert_and_chain() {
        use std::error::Error;
        let err: PakmanError = GenomeError::InvalidK { k: 99 }.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PakmanError>();
    }
}
