//! The inter-PE crossbar switch inside each buffer chip (§4.1).
//!
//! The crossbar has one input/output port per PE plus one port for the network
//! bridge — a 17×17 configuration for 16 PEs. TransferNodes whose destination lives
//! in the same DIMM but a different PE traverse it; the model charges a fixed
//! per-hop latency plus output-port serialization.

/// Crossbar model: per-transfer latency and per-port bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarSwitch {
    /// Number of PE ports (the bridge adds one more).
    pub pe_ports: usize,
    /// Fixed traversal latency per transfer in nanoseconds.
    pub hop_latency_ns: f64,
    /// Per-output-port bandwidth in GB/s.
    pub port_bandwidth_gbps: f64,
}

impl CrossbarSwitch {
    /// Creates a crossbar for `pe_ports` PEs.
    pub fn new(pe_ports: usize) -> Self {
        CrossbarSwitch {
            pe_ports,
            hop_latency_ns: 2.0,
            port_bandwidth_gbps: 25.6,
        }
    }

    /// Total ports including the network-bridge port (17 for 16 PEs).
    pub fn total_ports(&self) -> usize {
        self.pe_ports + 1
    }

    /// Time for one transfer of `bytes` to traverse the crossbar, in nanoseconds.
    pub fn transfer_ns(&self, bytes: usize) -> f64 {
        self.hop_latency_ns + bytes as f64 / self.port_bandwidth_gbps
    }

    /// Time to deliver a set of transfers, accounting for serialization at the most
    /// contended output port. `per_port_bytes[i]` is the total payload destined to
    /// output port `i`.
    pub fn route_ns(&self, per_port_bytes: &[u64]) -> f64 {
        let max_port = per_port_bytes.iter().copied().max().unwrap_or(0);
        self.hop_latency_ns + max_port as f64 / self.port_bandwidth_gbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_pes_make_a_17x17_crossbar() {
        let xbar = CrossbarSwitch::new(16);
        assert_eq!(xbar.total_ports(), 17);
    }

    #[test]
    fn transfer_time_scales_with_payload() {
        let xbar = CrossbarSwitch::new(16);
        assert!(xbar.transfer_ns(1024) > xbar.transfer_ns(64));
        assert!(xbar.transfer_ns(0) >= xbar.hop_latency_ns);
    }

    #[test]
    fn routing_time_is_set_by_the_hottest_port() {
        let xbar = CrossbarSwitch::new(4);
        let balanced = xbar.route_ns(&[256, 256, 256, 256]);
        let skewed = xbar.route_ns(&[1024, 0, 0, 0]);
        assert!(skewed > balanced);
        assert_eq!(xbar.route_ns(&[]), xbar.hop_latency_ns);
    }
}
