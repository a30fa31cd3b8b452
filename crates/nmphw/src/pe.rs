//! Cycle model of the pipelined systolic processing element (Fig. 10).
//!
//! Each PE runs a 3-stage pipeline at MacroNode granularity. The per-stage work
//! consists of simple integer operations — shifts, bitwise OR/AND, additions and
//! comparisons — dominated by the "append a base sequence" primitive, which touches
//! every byte of the extensions involved. The cycle model therefore charges a fixed
//! overhead per stage plus a per-byte cost for the node data each stage actually
//! reads, matching the paper's "execution time based on the RTL design and the
//! instruction count statistics for each stage" methodology (§5.2).

use crate::config::{NmpConfig, PeVariant};

/// Cycle counts of one MacroNode's trip through the PE pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Stage P1: invalidation check (neighbour (k-1)-mer computation + comparisons).
    pub p1: u64,
    /// Stage P2: TransferNode extraction (appending prefix/suffix extensions).
    pub p2: u64,
    /// Stage P3: routing and destination update (destination lookup + splice + write).
    pub p3: u64,
}

impl StageCycles {
    /// Total cycles across the three stages.
    pub fn total(&self) -> u64 {
        self.p1 + self.p2 + self.p3
    }
}

/// The PE cycle model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeCycleModel {
    /// Fixed cycles per stage (pipeline control, field decoding).
    pub fixed_cycles_per_stage: u64,
    /// Cycles per 8 bytes of node/extension data processed (shift+OR append datapath).
    pub cycles_per_word: u64,
    /// Which variant is modelled.
    pub variant: PeVariant,
    /// PE clock frequency in GHz.
    pub freq_ghz: f64,
}

impl PeCycleModel {
    /// Builds the cycle model from an [`NmpConfig`].
    pub fn from_config(config: &NmpConfig) -> Self {
        PeCycleModel {
            fixed_cycles_per_stage: 12,
            cycles_per_word: 1,
            variant: config.pe_variant,
            freq_ghz: config.pe_freq_ghz,
        }
    }

    /// Cycles spent in stage P1 for a node of `node_bytes`.
    pub fn p1_cycles(&self, node_bytes: usize) -> u64 {
        match self.variant {
            PeVariant::Ideal => 1,
            PeVariant::Pipelined => {
                self.fixed_cycles_per_stage + self.cycles_per_word * (node_bytes as u64).div_ceil(8)
            }
        }
    }

    /// Cycles spent in stage P2 for an invalidated node of `node_bytes`.
    pub fn p2_cycles(&self, node_bytes: usize) -> u64 {
        match self.variant {
            PeVariant::Ideal => 1,
            PeVariant::Pipelined => {
                self.fixed_cycles_per_stage
                    + self.cycles_per_word * (node_bytes as u64).div_ceil(8) / 2
            }
        }
    }

    /// Cycles spent in stage P3 to apply one TransferNode of `transfer_bytes` to a
    /// destination node of `dest_bytes`.
    pub fn p3_cycles(&self, transfer_bytes: usize, dest_bytes: usize) -> u64 {
        match self.variant {
            PeVariant::Ideal => 1,
            PeVariant::Pipelined => {
                self.fixed_cycles_per_stage
                    + self.cycles_per_word * ((transfer_bytes + dest_bytes / 4) as u64).div_ceil(8)
            }
        }
    }

    /// All three stages for one node (P2/P3 only when the node is invalidated /
    /// receives a transfer).
    pub fn node_cycles(&self, node_bytes: usize, invalidated: bool) -> StageCycles {
        StageCycles {
            p1: self.p1_cycles(node_bytes),
            p2: if invalidated {
                self.p2_cycles(node_bytes)
            } else {
                0
            },
            p3: 0,
        }
    }

    /// Converts cycles to nanoseconds at the PE clock.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PeCycleModel {
        PeCycleModel::from_config(&NmpConfig::default())
    }

    #[test]
    fn cycles_scale_with_node_size() {
        let m = model();
        assert!(m.p1_cycles(4096) > m.p1_cycles(256));
        assert!(m.p2_cycles(4096) > m.p2_cycles(256));
        assert!(m.p3_cycles(256, 4096) > m.p3_cycles(64, 256));
    }

    #[test]
    fn ideal_pe_is_single_cycle() {
        let m = PeCycleModel::from_config(&NmpConfig::ideal_pe());
        assert_eq!(m.p1_cycles(32_768), 1);
        assert_eq!(m.p2_cycles(32_768), 1);
        assert_eq!(m.p3_cycles(1024, 32_768), 1);
    }

    #[test]
    fn node_cycles_skip_p2_when_not_invalidated() {
        let m = model();
        let kept = m.node_cycles(512, false);
        let invalidated = m.node_cycles(512, true);
        assert_eq!(kept.p2, 0);
        assert!(invalidated.p2 > 0);
        assert!(invalidated.total() > kept.total());
    }

    #[test]
    fn cycles_to_ns_uses_the_pe_clock() {
        let m = model();
        // 1.6 GHz → 0.625 ns per cycle.
        assert!((m.cycles_to_ns(16) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_row_buffer_sized_node_fits_the_pipeline_budget() {
        // A 1 KB node (the offload threshold) should take well under a microsecond of
        // PE compute, keeping PEs from becoming the bottleneck (the paper's ideal-PE
        // study shows no gain from faster PEs).
        let m = model();
        let cycles = m.node_cycles(1024, true).total();
        assert!(m.cycles_to_ns(cycles) < 1_000.0);
    }
}
