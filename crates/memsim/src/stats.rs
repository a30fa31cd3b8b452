//! Traffic and bandwidth statistics.

/// Aggregate memory-system statistics for one simulated region of execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryStats {
    /// Number of read requests (line granularity).
    pub read_lines: u64,
    /// Number of write requests (line granularity).
    pub write_lines: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Row-buffer hits observed.
    pub row_hits: u64,
    /// Row-buffer misses (closed rows and conflicts).
    pub row_misses: u64,
    /// Simulated elapsed time in nanoseconds.
    pub elapsed_ns: f64,
    /// Peak bandwidth of the simulated memory system in GB/s.
    pub peak_bandwidth_gbps: f64,
}

impl MemoryStats {
    /// Total bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Total line-granularity requests.
    pub fn total_lines(&self) -> u64 {
        self.read_lines + self.write_lines
    }

    /// Achieved bandwidth in GB/s (0 if no time elapsed).
    pub fn achieved_bandwidth_gbps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.elapsed_ns
    }

    /// Fraction of peak bandwidth achieved, in `[0, 1]` (Fig. 13's metric).
    pub fn bandwidth_utilization(&self) -> f64 {
        if self.peak_bandwidth_gbps <= 0.0 {
            return 0.0;
        }
        (self.achieved_bandwidth_gbps() / self.peak_bandwidth_gbps).min(1.0)
    }

    /// Row-buffer hit rate in `[0, 1]`.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }

    /// Accumulates another statistics block (summing traffic, taking the max of
    /// elapsed time is *not* done — times add, as regions run back to back).
    pub fn accumulate(&mut self, other: &MemoryStats) {
        self.read_lines += other.read_lines;
        self.write_lines += other.write_lines;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.elapsed_ns += other.elapsed_ns;
        if self.peak_bandwidth_gbps == 0.0 {
            self.peak_bandwidth_gbps = other.peak_bandwidth_gbps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math() {
        let stats = MemoryStats {
            read_bytes: 128_000,
            write_bytes: 72_000,
            elapsed_ns: 1_000.0,
            peak_bandwidth_gbps: 204.8,
            ..MemoryStats::default()
        };
        // 200 000 bytes in 1000 ns = 200 GB/s.
        assert!((stats.achieved_bandwidth_gbps() - 200.0).abs() < 1e-9);
        assert!((stats.bandwidth_utilization() - 200.0 / 204.8).abs() < 1e-9);
    }

    #[test]
    fn zero_time_is_safe() {
        let stats = MemoryStats::default();
        assert_eq!(stats.achieved_bandwidth_gbps(), 0.0);
        assert_eq!(stats.bandwidth_utilization(), 0.0);
        assert_eq!(stats.row_hit_rate(), 0.0);
    }

    #[test]
    fn utilization_is_clamped_to_one() {
        let stats = MemoryStats {
            read_bytes: 10_000_000,
            elapsed_ns: 1.0,
            peak_bandwidth_gbps: 1.0,
            ..MemoryStats::default()
        };
        assert_eq!(stats.bandwidth_utilization(), 1.0);
    }

    #[test]
    fn accumulate_sums_traffic_and_time() {
        let mut a = MemoryStats {
            read_lines: 10,
            read_bytes: 640,
            elapsed_ns: 100.0,
            row_hits: 5,
            row_misses: 5,
            peak_bandwidth_gbps: 25.6,
            ..MemoryStats::default()
        };
        let b = MemoryStats {
            write_lines: 4,
            write_bytes: 256,
            elapsed_ns: 50.0,
            row_hits: 2,
            row_misses: 2,
            peak_bandwidth_gbps: 25.6,
            ..MemoryStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.total_lines(), 14);
        assert_eq!(a.total_bytes(), 896);
        assert_eq!(a.elapsed_ns, 150.0);
        assert!((a.row_hit_rate() - 0.5).abs() < 1e-12);
    }
}
