//! The inter-DIMM network bridge (DIMM-Link-style, §4.1 / [58]).
//!
//! TransferNodes whose destination MacroNode lives in a different DIMM leave the
//! buffer chip through the bridge. The paper's bridge also broadcasts; compaction's
//! TransferNodes are point-to-point, so only that is modelled. Its 25 GB/s links are
//! shared by all cross-DIMM traffic of a compaction iteration.

/// Network-bridge model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkBridge {
    /// Per-link bandwidth in GB/s (25 GB/s in the paper).
    pub link_bandwidth_gbps: f64,
    /// Number of DIMMs connected.
    pub dimms: usize,
    /// Per-message latency in nanoseconds.
    pub message_latency_ns: f64,
}

impl NetworkBridge {
    /// Creates a bridge connecting `dimms` DIMMs at `link_bandwidth_gbps`.
    pub fn new(dimms: usize, link_bandwidth_gbps: f64) -> Self {
        NetworkBridge {
            link_bandwidth_gbps,
            dimms,
            message_latency_ns: 40.0,
        }
    }

    /// Time to move `per_dimm_outgoing_bytes[i]` bytes out of DIMM `i` this iteration,
    /// in nanoseconds. Links operate in parallel, so the slowest link bounds the time;
    /// one message latency is charged for the iteration's routing.
    pub fn iteration_ns(&self, per_dimm_outgoing_bytes: &[u64]) -> f64 {
        let max_link = per_dimm_outgoing_bytes.iter().copied().max().unwrap_or(0);
        if max_link == 0 {
            return 0.0;
        }
        self.message_latency_ns + max_link as f64 / self.link_bandwidth_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bridge_costs_nothing() {
        let bridge = NetworkBridge::new(8, 25.0);
        assert_eq!(bridge.iteration_ns(&[0; 8]), 0.0);
        assert_eq!(bridge.iteration_ns(&[]), 0.0);
    }

    #[test]
    fn slowest_link_bounds_the_iteration() {
        let bridge = NetworkBridge::new(8, 25.0);
        let balanced = bridge.iteration_ns(&[1_000_000; 8]);
        let skewed = bridge.iteration_ns(&[8_000_000, 0, 0, 0, 0, 0, 0, 0]);
        assert!(skewed > balanced);
        // 1 MB at 25 GB/s = 40 µs (plus latency).
        assert!((balanced - (40.0 + 40_000.0)).abs() < 1.0);
    }
}
