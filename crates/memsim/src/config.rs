//! DRAM organization and timing parameters (Table 2 of the paper).

/// DDR4 timing parameters, expressed in memory-controller clock cycles
/// (one cycle = 0.625 ns at DDR4-3200).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTimings {
    /// Row-to-column delay (ACT → READ/WRITE).
    pub t_rcd: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// CAS latency.
    pub t_cl: u64,
    /// Minimum row-active time.
    pub t_ras: u64,
    /// Column-to-column delay between bursts to the same bank group.
    pub t_ccd: u64,
    /// Cycles a 64-byte burst occupies the data bus (BL8 at double data rate).
    pub burst_cycles: u64,
}

impl Default for DramTimings {
    /// DDR4-3200AA-like timings: 22-22-22, tRAS 52, tCCD_L 8, BL8.
    fn default() -> Self {
        DramTimings {
            t_rcd: 22,
            t_rp: 22,
            t_cl: 22,
            t_ras: 52,
            t_ccd: 8,
            burst_cycles: 4,
        }
    }
}

impl DramTimings {
    /// Latency of a row-buffer hit (CAS + burst).
    pub fn hit_latency(&self) -> u64 {
        self.t_cl + self.burst_cycles
    }

    /// Latency of an access to a closed row (ACT + CAS + burst).
    pub fn closed_latency(&self) -> u64 {
        self.t_rcd + self.t_cl + self.burst_cycles
    }

    /// Latency of a row-buffer conflict (PRE + ACT + CAS + burst).
    pub fn conflict_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cl + self.burst_cycles
    }
}

/// DRAM organization: the paper's system is DDR4-3200, 8 channels, one DIMM per
/// channel, 2 ranks per channel, 1 TB total (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of memory channels (each hosting one DIMM in this model).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Row-buffer (page) size in bytes. 8 KB in the paper.
    pub row_buffer_bytes: usize,
    /// Cache-line / transfer granularity in bytes.
    pub line_bytes: usize,
    /// Memory-controller clock frequency in MHz (data rate is 2× this).
    pub clock_mhz: u64,
    /// Data-bus width per channel in bytes.
    pub bus_width_bytes: u64,
    /// Timing parameters.
    pub timings: DramTimings,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 8,
            ranks_per_channel: 2,
            banks_per_rank: 16,
            row_buffer_bytes: 8 * 1024,
            line_bytes: 64,
            clock_mhz: 1600,
            bus_width_bytes: 8,
            timings: DramTimings::default(),
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

    /// Total banks in the system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Duration of one memory-controller clock cycle in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1e3 / self.clock_mhz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_system() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.channels, 8);
        assert_eq!(cfg.ranks_per_channel, 2);
        assert_eq!(cfg.row_buffer_bytes, 8192);
        assert!((cfg.channel_peak_bandwidth_gbps() - 25.6).abs() < 1e-9);
        assert!((cfg.total_peak_bandwidth_gbps() - 204.8).abs() < 1e-9);
        assert_eq!(cfg.total_banks(), 8 * 2 * 16);
        assert!((cfg.cycle_ns() - 0.625).abs() < 1e-9);
    }

    #[test]
    fn latency_ordering_hit_closed_conflict() {
        let t = DramTimings::default();
        assert!(t.hit_latency() < t.closed_latency());
        assert!(t.closed_latency() < t.conflict_latency());
    }
}
