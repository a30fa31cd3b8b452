//! NMP hardware configuration (Table 2's "NMP Implementation" block).

/// Which processing-element timing variant to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeVariant {
    /// The proposed pipelined systolic PE with its RTL-derived cycle counts.
    Pipelined,
    /// An infinitely fast PE: every stage completes in a single cycle (§5.3,
    /// "NMP-PaK with ideal PE"). Runtime is then limited purely by memory.
    Ideal,
}

/// Configuration of the NMP system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NmpConfig {
    /// Processing elements per channel (the paper evaluates 1–64 and picks 16–32).
    pub pes_per_channel: usize,
    /// PE clock frequency in GHz (1.6 GHz in Table 2).
    pub pe_freq_ghz: f64,
    /// MacroNode buffer size per PE in bytes (4 KB in Table 2).
    pub macronode_buffer_bytes: usize,
    /// TransferNode scratchpad size per PE in bytes (1 KB in Table 2).
    pub transfer_scratchpad_bytes: usize,
    /// MacroNodes larger than this are offloaded to the host CPU (1 KB, §4.3).
    pub cpu_offload_threshold_bytes: usize,
    /// Inter-DIMM network-bridge bandwidth in GB/s (25 GB/s, §4.6).
    pub bridge_bandwidth_gbps: f64,
    /// Average DRAM access latency seen from the buffer chip, in nanoseconds
    /// (shorter than the host's: no off-chip link or memory-controller queueing).
    pub near_memory_latency_ns: f64,
    /// Per-iteration CPU↔NMP synchronization overhead in nanoseconds (§4.3 lock-step).
    pub iteration_sync_ns: f64,
    /// PE timing variant.
    pub pe_variant: PeVariant,
    /// When `true`, stage P3 reuses the MacroNode data fetched in stage P1
    /// ("ideal forwarding logic", §5.3), eliminating the destination re-read.
    pub ideal_forwarding: bool,
}

impl Default for NmpConfig {
    fn default() -> Self {
        NmpConfig {
            pes_per_channel: 32,
            pe_freq_ghz: 1.6,
            macronode_buffer_bytes: 4 * 1024,
            transfer_scratchpad_bytes: 1024,
            cpu_offload_threshold_bytes: 1024,
            bridge_bandwidth_gbps: 25.0,
            near_memory_latency_ns: 45.0,
            iteration_sync_ns: 2_000.0,
            pe_variant: PeVariant::Pipelined,
            ideal_forwarding: false,
        }
    }
}

impl NmpConfig {
    /// The paper's cost-effective configuration: 16 PEs per channel (§6.2).
    pub fn sixteen_pes() -> Self {
        NmpConfig {
            pes_per_channel: 16,
            ..NmpConfig::default()
        }
    }

    /// The ideal-PE study configuration.
    pub fn ideal_pe() -> Self {
        NmpConfig {
            pe_variant: PeVariant::Ideal,
            ..NmpConfig::default()
        }
    }

    /// The ideal-forwarding study configuration.
    pub fn ideal_forwarding() -> Self {
        NmpConfig {
            ideal_forwarding: true,
            ..NmpConfig::default()
        }
    }

    /// Validates the configuration, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.pes_per_channel == 0 {
            return Err("at least one PE per channel is required".to_string());
        }
        if self.pe_freq_ghz <= 0.0 {
            return Err("PE frequency must be positive".to_string());
        }
        if self.macronode_buffer_bytes < self.cpu_offload_threshold_bytes {
            return Err(format!(
                "the MacroNode buffer ({} B) must hold any node below the CPU offload threshold ({} B)",
                self.macronode_buffer_bytes, self.cpu_offload_threshold_bytes
            ));
        }
        if self.bridge_bandwidth_gbps <= 0.0 {
            return Err("bridge bandwidth must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let cfg = NmpConfig::default();
        assert_eq!(cfg.pe_freq_ghz, 1.6);
        assert_eq!(cfg.macronode_buffer_bytes, 4096);
        assert_eq!(cfg.transfer_scratchpad_bytes, 1024);
        assert_eq!(cfg.cpu_offload_threshold_bytes, 1024);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn variants_toggle_the_right_knobs() {
        assert_eq!(NmpConfig::sixteen_pes().pes_per_channel, 16);
        assert_eq!(NmpConfig::ideal_pe().pe_variant, PeVariant::Ideal);
        assert!(NmpConfig::ideal_forwarding().ideal_forwarding);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(NmpConfig {
            pes_per_channel: 0,
            ..NmpConfig::default()
        }
        .validate()
        .is_err());
        assert!(NmpConfig {
            pe_freq_ghz: 0.0,
            ..NmpConfig::default()
        }
        .validate()
        .is_err());
        assert!(NmpConfig {
            macronode_buffer_bytes: 512,
            ..NmpConfig::default()
        }
        .validate()
        .is_err());
        assert!(NmpConfig {
            bridge_bandwidth_gbps: 0.0,
            ..NmpConfig::default()
        }
        .validate()
        .is_err());
    }
}
