//! The GPU-baseline execution backend (§5.3, §6.6).
//!
//! An A100-class device runs the optimized flow at high bandwidth but behind a
//! hard memory-capacity wall: a footprint past [`GpuConfig::fits`] sets the
//! result's [`BackendResult::capacity_exceeded`], which is what forces the
//! small batch sizes — and the contig-quality collapse — analysed in Table 1.

use super::{BackendId, BackendResult, CompactionBackend, SimulationContext, SystemConfig};
use nmp_pak_memsim::gpu::simulate_gpu_compaction;
use nmp_pak_memsim::{DramConfig, GpuConfig, NodeLayout};
use nmp_pak_pakman::CompactionTrace;

/// A GPU execution backend.
#[derive(Debug, Clone, Copy)]
pub struct GpuBackend {
    id: BackendId,
    label: &'static str,
    dram: DramConfig,
    gpu: GpuConfig,
}

impl GpuBackend {
    /// The paper's **GPU baseline** (A100 40 GB).
    pub fn baseline(config: &SystemConfig) -> GpuBackend {
        GpuBackend {
            id: BackendId::GPU_BASELINE,
            label: "GPU-baseline",
            dram: config.dram,
            gpu: config.gpu,
        }
    }

    /// A custom GPU backend (e.g. the 80 GB configuration).
    pub fn custom(
        id: BackendId,
        label: &'static str,
        dram: DramConfig,
        gpu: GpuConfig,
    ) -> GpuBackend {
        GpuBackend {
            id,
            label,
            dram,
            gpu,
        }
    }
}

impl CompactionBackend for GpuBackend {
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
        let r = simulate_gpu_compaction(trace, layout, &self.dram, &self.gpu, ctx.footprint_bytes);
        BackendResult {
            backend: self.id,
            label: self.label,
            runtime_ns: r.runtime_ns,
            traffic: r.traffic,
            memory: r.memory,
            stall: None,
            comm: None,
            capacity_exceeded: r.capacity_exceeded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::synthetic;
    use super::*;

    #[test]
    fn capacity_check_matches_simulation_flag() {
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let gpu = GpuBackend::baseline(&system);

        // The flag is the device's capacity check, at and on either side of
        // its capacity.
        let capacity = system.gpu.memory_capacity_bytes;
        let cases = [
            (1 << 30, false),
            (capacity, false),
            (capacity + 1, true),
            (500 << 30, true),
        ];
        for (footprint, exceeded) in cases {
            let result = gpu.simulate(&trace, &layout, &SimulationContext::new(footprint));
            assert_eq!(result.capacity_exceeded, exceeded, "{footprint} B");
            assert_eq!(system.gpu.fits(footprint), !exceeded, "{footprint} B");
        }
    }
}
