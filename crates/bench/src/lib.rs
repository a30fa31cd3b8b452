//! Shared helpers for the NMP-PaK benchmark harness.
//!
//! The `experiments` binary's subcommands all need the same prepared context: a
//! synthetic workload, one software assembly run with a recorded compaction
//! trace, and the per-backend simulations. This crate centralizes that setup so
//! every table/figure is regenerated from identical inputs.

pub mod baseline;
pub mod builtin;
pub mod report;
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
    /// Reads the scale from the `NMP_PAK_BENCH_SCALE` environment variable,
    /// defaulting to [`BenchScale::Quick`] when it is unset.
    ///
    /// # Errors
    ///
    /// A value [`BenchScale::parse`] rejects, or one that is not Unicode.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("NMP_PAK_BENCH_SCALE") {
            Ok(value) => BenchScale::parse(Some(&value)),
            Err(std::env::VarError::NotPresent) => BenchScale::parse(None),
            Err(err) => Err(format!("NMP_PAK_BENCH_SCALE: {err}")),
        }
    }

    /// The scale a value of `NMP_PAK_BENCH_SCALE` names: `quick` or
    /// `standard` in any case, and [`BenchScale::Quick`] when unset.
    ///
    /// # Errors
    ///
    /// Any other value, so that a typo cannot run the quick scale unnoticed.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None => Ok(BenchScale::Quick),
            Some(v) if v.eq_ignore_ascii_case("quick") => Ok(BenchScale::Quick),
            Some(v) if v.eq_ignore_ascii_case("standard") => Ok(BenchScale::Standard),
            Some(v) => Err(format!(
                "NMP_PAK_BENCH_SCALE is `{v}`; expected `quick` or `standard`"
            )),
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
        assert_eq!(BenchScale::parse(None), Ok(BenchScale::Quick));
    }

    #[test]
    fn scale_parse_ignores_case_and_rejects_anything_else() {
        for value in ["quick", "Quick", "QUICK"] {
            assert_eq!(BenchScale::parse(Some(value)), Ok(BenchScale::Quick));
        }
        for value in ["standard", "Standard", "STANDARD"] {
            assert_eq!(BenchScale::parse(Some(value)), Ok(BenchScale::Standard));
        }
        for value in ["standrad", "", " quick", "small"] {
            let err = BenchScale::parse(Some(value)).unwrap_err();
            assert!(err.contains(&format!("`{value}`")), "{err}");
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.4397), "44.0%");
    }
}
