//! DRAM organization parameters (Table 2 of the paper).

/// DRAM organization: the paper's system is DDR4-3200, 8 channels, one DIMM per
/// channel, 1 TB total (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of memory channels (each hosting one DIMM in this model).
    pub channels: usize,
    /// Cache-line / transfer granularity in bytes.
    pub line_bytes: usize,
    /// Memory-controller clock frequency in MHz (data rate is 2× this).
    pub clock_mhz: u64,
    /// Data-bus width per channel in bytes.
    pub bus_width_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 8,
            line_bytes: 64,
            clock_mhz: 1600,
            bus_width_bytes: 8,
        }
    }
}

impl DramConfig {
    /// Peak bandwidth of one channel in GB/s (data rate × bus width).
    /// 25.6 GB/s for DDR4-3200 with an 8-byte bus.
    pub fn channel_peak_bandwidth_gbps(&self) -> f64 {
        (2.0 * self.clock_mhz as f64 * 1e6 * self.bus_width_bytes as f64) / 1e9
    }

    /// Aggregate peak bandwidth across channels in GB/s (204.8 GB/s for 8 channels).
    pub fn total_peak_bandwidth_gbps(&self) -> f64 {
        self.channel_peak_bandwidth_gbps() * self.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_system() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.channels, 8);
        assert!((cfg.channel_peak_bandwidth_gbps() - 25.6).abs() < 1e-9);
        assert!((cfg.total_peak_bandwidth_gbps() - 204.8).abs() < 1e-9);
    }
}
