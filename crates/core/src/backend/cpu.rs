//! Host-CPU execution backends: the paper's "W/O SW-opt", "CPU-baseline" and
//! "CPU-PaK" configurations (§5.3, Fig. 12).
//!
//! All three replay the compaction trace through the analytic multicore model in
//! [`nmp_pak_memsim::cpu`]; they differ in the process flow (sequential-stage vs
//! the §4.5 pipelined flow) and in the core budget.

use super::{BackendId, BackendResult, CompactionBackend, SimulationContext, SystemConfig};
use nmp_pak_memsim::cpu::simulate_cpu_compaction;
use nmp_pak_memsim::{CpuConfig, DramConfig, NodeLayout, ProcessFlow};
use nmp_pak_pakman::CompactionTrace;

/// Configuration of the unoptimized-software CPU backend.
///
/// Before the §4.5 optimizations, PaKman's compaction parallelizes poorly (the
/// paper measures an ≈11.6× compaction slowdown), modelled here as a limited
/// thread count. This knob used to be `SystemConfig::unoptimized_threads`, where
/// every other backend silently ignored it; it now lives with the one backend
/// that uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnoptimizedCpuConfig {
    /// Thread count modelling the unoptimized software's limited parallel
    /// sections.
    pub threads: usize,
}

impl Default for UnoptimizedCpuConfig {
    fn default() -> Self {
        UnoptimizedCpuConfig { threads: 6 }
    }
}

/// A host-CPU backend: one process flow on one core/memory configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpuBackend {
    id: BackendId,
    label: &'static str,
    flow: ProcessFlow,
    dram: DramConfig,
    cpu: CpuConfig,
}

impl CpuBackend {
    /// The paper's **CPU baseline**: optimized software, sequential-stage flow.
    pub fn baseline(config: &SystemConfig) -> CpuBackend {
        CpuBackend {
            id: BackendId::CPU_BASELINE,
            label: "CPU-baseline",
            flow: ProcessFlow::Baseline,
            dram: config.dram,
            cpu: config.cpu,
        }
    }

    /// The paper's **W/O SW-opt** configuration: the pre-§4.5 software, modelled
    /// by restricting the baseline to `unoptimized.threads` cores.
    pub fn unoptimized(config: &SystemConfig, unoptimized: UnoptimizedCpuConfig) -> CpuBackend {
        CpuBackend {
            id: BackendId::CPU_BASELINE_UNOPTIMIZED,
            label: "W/O SW-opt",
            flow: ProcessFlow::Baseline,
            dram: config.dram,
            cpu: CpuConfig {
                threads: unoptimized.threads,
                ..config.cpu
            },
        }
    }

    /// The paper's **CPU-PaK**: the NMP-PaK software optimizations (pipelined
    /// flow, batching) executed on the host CPU.
    pub fn pak(config: &SystemConfig) -> CpuBackend {
        CpuBackend {
            id: BackendId::CPU_PAK,
            label: "CPU-PaK",
            flow: ProcessFlow::Optimized,
            dram: config.dram,
            cpu: config.cpu,
        }
    }

    /// A fully custom CPU backend (ablations, alternative hosts).
    pub fn custom(
        id: BackendId,
        label: &'static str,
        flow: ProcessFlow,
        dram: DramConfig,
        cpu: CpuConfig,
    ) -> CpuBackend {
        CpuBackend {
            id,
            label,
            flow,
            dram,
            cpu,
        }
    }

    /// The core/memory model this backend simulates with.
    #[cfg(test)]
    pub(crate) fn cpu_config(&self) -> &CpuConfig {
        &self.cpu
    }
}

impl CompactionBackend for CpuBackend {
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
        _ctx: &SimulationContext,
    ) -> BackendResult {
        let r = simulate_cpu_compaction(trace, layout, self.flow, &self.dram, &self.cpu);
        BackendResult {
            backend: self.id,
            label: self.label,
            runtime_ns: r.runtime_ns,
            traffic: r.traffic,
            memory: r.memory,
            stall: Some(r.stall),
            comm: None,
            capacity_exceeded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::synthetic;
    use super::super::SimulationContext;
    use super::*;

    #[test]
    fn unoptimized_threads_live_with_the_backend() {
        let system = SystemConfig::default();
        let unopt = CpuBackend::unoptimized(&system, UnoptimizedCpuConfig { threads: 3 });
        assert_eq!(unopt.cpu_config().threads, 3);
        // The shared host config is untouched.
        assert_eq!(
            CpuBackend::baseline(&system).cpu_config().threads,
            system.cpu.threads
        );
    }

    #[test]
    fn fewer_threads_run_slower() {
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let ctx = SimulationContext::new(1 << 30);
        let baseline = CpuBackend::baseline(&system).simulate(&trace, &layout, &ctx);
        let unopt = CpuBackend::unoptimized(&system, UnoptimizedCpuConfig::default())
            .simulate(&trace, &layout, &ctx);
        assert!(unopt.runtime_ns > baseline.runtime_ns);
        assert!(baseline.stall.is_some());
        assert!(baseline.comm.is_none());
    }
}
