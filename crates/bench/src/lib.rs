//! Shared helpers for the NMP-PaK benchmark harness.
//!
//! The `experiments` binary's subcommands all need the same prepared context: a
//! synthetic workload, one software assembly run with a recorded compaction
//! trace, and the per-backend simulations. This crate centralizes that setup so
//! every table/figure is regenerated from identical inputs.

pub mod baseline;
pub mod sweep;

use nmp_pak_core::assembler::NmpPakAssembler;
use nmp_pak_core::experiments::Experiments;
use nmp_pak_core::workload::Workload;

/// Workload scale used by the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// ~20 kbp genome, 20× coverage: seconds-fast, used by default and in CI.
    Quick,
    /// ~100 kbp genome, 30× coverage: slower, closer to the paper's workload shape.
    Standard,
}

impl BenchScale {
    /// Reads the scale from the `NMP_PAK_BENCH_SCALE` environment variable
    /// (`quick` / `standard`), defaulting to [`BenchScale::Quick`].
    pub fn from_env() -> Self {
        match std::env::var("NMP_PAK_BENCH_SCALE").as_deref() {
            Ok("standard") | Ok("STANDARD") => BenchScale::Standard,
            _ => BenchScale::Quick,
        }
    }

    /// Builds the workload for this scale.
    pub fn workload(self, seed: u64) -> Workload {
        match self {
            BenchScale::Quick => Workload::tiny(seed).expect("tiny workload builds"),
            BenchScale::Standard => Workload::small(seed).expect("small workload builds"),
        }
    }
}

/// Prepares the shared experiment context at the given scale.
pub fn prepare_experiments(scale: BenchScale) -> Experiments {
    let workload = scale.workload(0xBE9C);
    Experiments::prepare(workload, NmpPakAssembler::default())
        .expect("experiment preparation succeeds on synthetic workloads")
}

/// Formats a percentage for table output.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_prepares() {
        let exp = prepare_experiments(BenchScale::Quick);
        assert!(exp.trace.iteration_count() > 0);
    }

    #[test]
    fn scale_from_env_defaults_to_quick() {
        assert_eq!(BenchScale::from_env(), BenchScale::Quick);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.4397), "44.0%");
    }
}
