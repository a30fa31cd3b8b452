//! Area and power model (Table 3 of the paper, 28 nm post-synthesis).
//!
//! The paper reports per-component area/power for one PE and for a 16-PE buffer-chip
//! integration, then compares against a 100 mm² buffer chip and a 13 W DIMM. The
//! component values are taken from the paper; this module reproduces the composition
//! for arbitrary PE counts and configurations, plus the §6.6 GPU-efficiency
//! comparison.

use crate::config::NmpConfig;

/// Area (mm²) and power (mW) of one hardware component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentBudget {
    /// Component name.
    pub name: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// Reference buffer-chip area the overhead is compared against (mm², §6.5).
pub const BUFFER_CHIP_AREA_MM2: f64 = 100.0;
/// Reference DIMM power the overhead is compared against (W, §6.5).
pub const DIMM_POWER_W: f64 = 13.0;

/// The Table 3 component model.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerModel {
    /// Per-PE components (buffers, scratchpads, ALUs).
    pub pe_components: Vec<ComponentBudget>,
    /// Per-buffer-chip components shared by all PEs (the crossbar switch).
    pub shared_components: Vec<ComponentBudget>,
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        AreaPowerModel {
            pe_components: vec![
                ComponentBudget {
                    name: "MacroNode buffer (4 KB) x2",
                    area_mm2: 0.038,
                    power_mw: 9.2,
                },
                ComponentBudget {
                    name: "TransferNode scratchpad (1 KB) x2",
                    area_mm2: 0.009,
                    power_mw: 2.3,
                },
                ComponentBudget {
                    name: "ALU x3",
                    area_mm2: 0.037,
                    power_mw: 18.5,
                },
            ],
            shared_components: vec![ComponentBudget {
                name: "crossbar switch",
                area_mm2: 0.025,
                power_mw: 0.3,
            }],
        }
    }
}

impl AreaPowerModel {
    /// Area of one PE in mm² (the paper's 0.110 mm², including its crossbar share).
    pub fn pe_area_mm2(&self) -> f64 {
        self.pe_components.iter().map(|c| c.area_mm2).sum::<f64>()
            + self
                .shared_components
                .iter()
                .map(|c| c.area_mm2)
                .sum::<f64>()
    }

    /// Power of one PE in mW (the paper's 30.6 mW).
    pub fn pe_power_mw(&self) -> f64 {
        self.pe_components.iter().map(|c| c.power_mw).sum::<f64>()
            + self
                .shared_components
                .iter()
                .map(|c| c.power_mw)
                .sum::<f64>()
    }

    /// Area of `pes` PEs in one buffer chip, in mm².
    pub fn chip_area_mm2(&self, pes: usize) -> f64 {
        self.pe_area_mm2() * pes as f64
    }

    /// Power of `pes` PEs in one buffer chip, in mW.
    pub fn chip_power_mw(&self, pes: usize) -> f64 {
        self.pe_power_mw() * pes as f64
    }

    /// Total NMP area (mm²) and power (W) for a whole system configuration.
    pub fn system_totals(&self, config: &NmpConfig, channels: usize) -> (f64, f64) {
        let pes = config.pes_per_channel;
        let area = self.chip_area_mm2(pes) * channels as f64;
        let power_w = self.chip_power_mw(pes) / 1_000.0 * channels as f64;
        (area, power_w)
    }
}

/// §6.6 comparison: power and area advantage of an 8-DIMM NMP-PaK system over the GPU
/// cluster needed to hold the same footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuComparison {
    /// GPUs required for the footprint.
    pub gpus_needed: u64,
    /// GPU cluster power in watts.
    pub gpu_power_w: f64,
    /// GPU cluster die area in mm².
    pub gpu_area_mm2: f64,
    /// NMP system power in watts.
    pub nmp_power_w: f64,
    /// NMP system die area in mm².
    pub nmp_area_mm2: f64,
}

impl GpuComparison {
    /// Builds the comparison for a workload needing `footprint_bytes`.
    pub fn new(
        model: &AreaPowerModel,
        nmp_config: &NmpConfig,
        channels: usize,
        gpu: &nmp_pak_memsim::GpuConfig,
        footprint_bytes: u64,
    ) -> Self {
        let gpus_needed = gpu.devices_needed(footprint_bytes);
        let (nmp_area_mm2, nmp_power_w) = model.system_totals(nmp_config, channels);
        GpuComparison {
            gpus_needed,
            gpu_power_w: gpus_needed as f64 * gpu.board_power_w,
            gpu_area_mm2: gpus_needed as f64 * gpu.die_area_mm2,
            nmp_power_w,
            nmp_area_mm2,
        }
    }

    /// GPU-to-NMP power ratio (the paper reports 385×).
    pub fn power_ratio(&self) -> f64 {
        if self.nmp_power_w == 0.0 {
            return 0.0;
        }
        self.gpu_power_w / self.nmp_power_w
    }

    /// GPU-to-NMP area ratio (the paper reports 293×).
    pub fn area_ratio(&self) -> f64 {
        if self.nmp_area_mm2 == 0.0 {
            return 0.0;
        }
        self.gpu_area_mm2 / self.nmp_area_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_pe_totals_match_table3() {
        let model = AreaPowerModel::default();
        assert!(
            (model.pe_area_mm2() - 0.109).abs() < 0.005,
            "{}",
            model.pe_area_mm2()
        );
        assert!(
            (model.pe_power_mw() - 30.3).abs() < 0.5,
            "{}",
            model.pe_power_mw()
        );
    }

    #[test]
    fn sixteen_pe_totals_match_table3() {
        let model = AreaPowerModel::default();
        // Table 3: 1.763 mm² and 489.3 mW for 16 PEs.
        assert!((model.chip_area_mm2(16) - 1.763).abs() < 0.1);
        assert!((model.chip_power_mw(16) - 489.3).abs() < 10.0);
    }

    #[test]
    fn overheads_are_negligible() {
        let model = AreaPowerModel::default();
        // §6.5: 1.8 % area and 3.8 % power for 16 PEs.
        let area = model.chip_area_mm2(16) / BUFFER_CHIP_AREA_MM2;
        let power = model.chip_power_mw(16) / 1_000.0 / DIMM_POWER_W;
        assert!(area > 0.015 && area < 0.02, "area fraction {area}");
        assert!(power > 0.03 && power < 0.045, "power fraction {power}");
    }

    #[test]
    fn system_totals_scale_with_channels_and_pes() {
        let model = AreaPowerModel::default();
        let (a8, p8) = model.system_totals(&NmpConfig::sixteen_pes(), 8);
        let (a4, p4) = model.system_totals(&NmpConfig::sixteen_pes(), 4);
        assert!((a8 - 2.0 * a4).abs() < 1e-9);
        assert!((p8 - 2.0 * p4).abs() < 1e-9);
        // 8 DIMMs with 16 PEs each: ~14.1 mm², ~3.9 W (§6.6).
        assert!(a8 > 12.0 && a8 < 16.0, "area {a8}");
        assert!(p8 > 3.0 && p8 < 4.5, "power {p8}");
    }

    #[test]
    fn gpu_comparison_reproduces_the_order_of_magnitude() {
        let model = AreaPowerModel::default();
        let gpu = nmp_pak_memsim::GpuConfig::a100_80gb();
        // §6.6: a 379 GB footprint needs five 80 GB A100s (1500 W with the paper's
        // 300 W-class boards; 400 W SXM boards here) and 4130 mm².
        let cmp = GpuComparison::new(&model, &NmpConfig::sixteen_pes(), 8, &gpu, 379 << 30);
        assert_eq!(cmp.gpus_needed, 5);
        assert!(
            cmp.power_ratio() > 100.0,
            "power ratio {}",
            cmp.power_ratio()
        );
        assert!(cmp.area_ratio() > 100.0, "area ratio {}", cmp.area_ratio());
    }
}
