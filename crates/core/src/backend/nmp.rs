//! The near-memory execution backends: **NMP-PaK** and its ideal-PE /
//! ideal-forwarding ablations (§5.3).
//!
//! Each variant is a fully configured [`NmpBackend`] — the ideal variants bake
//! their idealization into the owned [`NmpConfig`] at construction, so
//! simulation is straight-line trait dispatch with no per-call variant `match`.

use super::{BackendId, BackendResult, CompactionBackend, SimulationContext, SystemConfig};
use nmp_pak_memsim::{CpuConfig, DramConfig, NodeLayout};
use nmp_pak_nmphw::{NmpConfig, NmpSystem, PeVariant};
use nmp_pak_pakman::CompactionTrace;

/// A near-memory execution backend.
#[derive(Debug, Clone, Copy)]
pub struct NmpBackend {
    id: BackendId,
    label: &'static str,
    nmp: NmpConfig,
    dram: DramConfig,
    cpu: CpuConfig,
}

impl NmpBackend {
    /// The proposed design — **NMP-PaK**.
    pub fn pak(config: &SystemConfig) -> NmpBackend {
        NmpBackend {
            id: BackendId::NMP_PAK,
            label: "NMP-PaK",
            nmp: config.nmp,
            dram: config.dram,
            cpu: config.cpu,
        }
    }

    /// NMP-PaK with infinitely fast PEs (§5.3's ideal-PE ablation).
    pub fn ideal_pe(config: &SystemConfig) -> NmpBackend {
        NmpBackend {
            id: BackendId::NMP_IDEAL_PE,
            label: "NMP-PaK+ideal-PE",
            nmp: NmpConfig {
                pe_variant: PeVariant::Ideal,
                ..config.nmp
            },
            dram: config.dram,
            cpu: config.cpu,
        }
    }

    /// NMP-PaK with ideal P1→P3 forwarding logic (§5.3).
    pub fn ideal_forwarding(config: &SystemConfig) -> NmpBackend {
        NmpBackend {
            id: BackendId::NMP_IDEAL_FORWARDING,
            label: "NMP-PaK+ideal-fwd",
            nmp: NmpConfig {
                ideal_forwarding: true,
                ..config.nmp
            },
            dram: config.dram,
            cpu: config.cpu,
        }
    }

    /// An NMP backend with an explicit hardware configuration (PE-count sweeps
    /// and other ablations).
    pub fn with_config(
        id: BackendId,
        label: &'static str,
        nmp: NmpConfig,
        config: &SystemConfig,
    ) -> NmpBackend {
        NmpBackend {
            id,
            label,
            nmp,
            dram: config.dram,
            cpu: config.cpu,
        }
    }

    /// The hardware configuration this backend simulates with.
    pub fn nmp_config(&self) -> &NmpConfig {
        &self.nmp
    }
}

impl CompactionBackend for NmpBackend {
    fn id(&self) -> BackendId {
        self.id
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn simulate(
        &self,
        trace: &CompactionTrace,
        layout: &NodeLayout,
        ctx: &SimulationContext,
    ) -> BackendResult {
        let system = NmpSystem::new(self.nmp, self.dram, self.cpu);
        // When the software ran sharded, fold the measured owner-computes
        // telemetry onto this system's channels: measured per-channel work
        // shares and cross-channel bytes replace the uniform-placement
        // assumption.
        let channel_load = ctx
            .sharding
            .as_ref()
            .map(|telemetry| system.channel_load_from_sharding(telemetry));
        let r = system.simulate(trace, layout, channel_load.as_ref());
        BackendResult {
            backend: self.id,
            label: self.label,
            runtime_ns: r.runtime_ns,
            traffic: r.traffic,
            memory: r.memory,
            stall: None,
            comm: Some(r.comm),
            capacity_exceeded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::synthetic;
    use super::*;

    #[test]
    fn ideal_variants_bake_their_configuration() {
        let system = SystemConfig::default();
        assert_eq!(
            NmpBackend::ideal_pe(&system).nmp_config().pe_variant,
            PeVariant::Ideal
        );
        assert!(
            NmpBackend::ideal_forwarding(&system)
                .nmp_config()
                .ideal_forwarding
        );
        assert!(!NmpBackend::pak(&system).nmp_config().ideal_forwarding);
    }

    #[test]
    fn nmp_reports_communication_stats() {
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let ctx = SimulationContext::new(1 << 30);
        let result = NmpBackend::pak(&system).simulate(&trace, &layout, &ctx);
        assert!(result.comm.is_some());
        assert!(result.stall.is_none());
        assert!(result.runtime_ns > 0.0);
    }

    #[test]
    fn measured_sharding_telemetry_reaches_the_channel_model() {
        use nmp_pak_nmphw::NetworkModel;
        use nmp_pak_pakman::{PakmanAssembler, PakmanConfig, ShardConfig, ShardingTelemetry};
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let backend = NmpBackend::pak(&system);
        let uniform = backend.simulate(&trace, &layout, &SimulationContext::new(1 << 30));

        // One shard measured doing 64× everyone else's work: the busiest
        // channel paces every lock-step iteration, so runtime must grow.
        let shards = 8usize;
        let mut checked = vec![1_000u64; shards];
        checked[0] *= 64;
        let telemetry = ShardingTelemetry {
            shard_count: shards,
            initial_alive_per_shard: vec![100; shards],
            final_alive_per_shard: vec![50; shards],
            checked_per_shard: checked,
            flushes: Vec::new(),
        };
        let ctx = SimulationContext::new(1 << 30).with_sharding(telemetry);
        assert!(ctx.load_imbalance > 4.0);
        let skewed = backend.simulate(&trace, &layout, &ctx);
        assert!(
            skewed.runtime_ns > uniform.runtime_ns,
            "skewed {} vs uniform {}",
            skewed.runtime_ns,
            uniform.runtime_ns
        );
        // Traffic accounting describes the trace, not the placement.
        assert_eq!(skewed.traffic, uniform.traffic);

        // Real 2- and 8-shard runs: the measured mailbox traffic crosses
        // channels, and the 8-shard ledger crosses nodes on 2, 4 and 8 nodes.
        let reads = crate::Workload::tiny(3).unwrap().reads;
        let nmp = NmpSystem::new(system.nmp, system.dram, system.cpu);
        for shards in [2, ShardConfig::DEFAULT_CHANNELS] {
            let config = PakmanConfig {
                shards: ShardConfig::per_channel(shards),
                ..PakmanConfig::default()
            };
            let run = PakmanAssembler::new(config).assemble(&reads).unwrap();
            let telemetry = run.sharding.expect("sharded runs record telemetry");
            let load = nmp.channel_load_from_sharding(&telemetry);
            assert!(load.cross_channel_bytes > 0, "{shards} shards");
            if shards == ShardConfig::DEFAULT_CHANNELS {
                for nodes in [2, 4, 8] {
                    let projection =
                        NetworkModel::default().project_multinode(&telemetry, nodes, 1e6);
                    assert!(projection.cross_node_bytes > 0, "{nodes} nodes");
                }
            }
        }
    }
}
