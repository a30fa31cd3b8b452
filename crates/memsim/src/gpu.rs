//! Analytic GPU baseline (an NVIDIA A100-like device, §5.3 and §6.6).
//!
//! The paper models its GPU baseline with "parameters similar to those of the A100"
//! and replays a subset of traces whose footprint fits in device memory; here
//! each iteration's counted traffic is charged at the usable bandwidth. The GPU's
//! massive parallelism makes Iterative Compaction bandwidth-bound there, but the
//! fine-grained, irregular MacroNode accesses waste most of each HBM transaction, so
//! only a fraction of the nominal bandwidth is useful. The device's limited capacity
//! (40/80 GB) is what forces the small batch sizes — and the contig-quality collapse —
//! analysed in Table 1 and §6.6.

use crate::config::DramConfig;
use crate::layout::NodeLayout;
use crate::stats::MemoryStats;
use crate::table::SizeTable;
use crate::traffic::{IterationTraffic, ProcessFlow, TrafficSummary};
use nmp_pak_pakman::CompactionTrace;

/// GPU device parameters (defaults: A100 40 GB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Device memory capacity in bytes.
    pub memory_capacity_bytes: u64,
    /// Nominal HBM bandwidth in GB/s.
    pub peak_bandwidth_gbps: f64,
    /// Fraction of the nominal bandwidth that irregular, fine-grained MacroNode
    /// accesses can use (sector-level over-fetch, divergence).
    pub irregular_efficiency: f64,
    /// Kernel-launch plus host synchronization overhead per compaction iteration, in
    /// nanoseconds (the CPU and GPU must stay in lock-step per iteration).
    pub per_iteration_overhead_ns: f64,
    /// Board power in watts (A100 SXM: 400 W), used by the §6.6 efficiency analysis.
    pub board_power_w: f64,
    /// Die area in mm² (A100: 826 mm²), used by the §6.6 efficiency analysis.
    pub die_area_mm2: f64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            memory_capacity_bytes: 40 * 1024 * 1024 * 1024,
            peak_bandwidth_gbps: 1_555.0,
            irregular_efficiency: 0.10,
            per_iteration_overhead_ns: 20_000.0,
            board_power_w: 400.0,
            die_area_mm2: 826.0,
        }
    }
}

impl GpuConfig {
    /// An 80 GB A100/H100-class configuration.
    pub fn a100_80gb() -> Self {
        GpuConfig {
            memory_capacity_bytes: 80 * 1024 * 1024 * 1024,
            peak_bandwidth_gbps: 2_039.0,
            ..GpuConfig::default()
        }
    }

    /// `true` if a workload with the given peak footprint fits in device memory.
    pub fn fits(&self, footprint_bytes: u64) -> bool {
        footprint_bytes <= self.memory_capacity_bytes
    }

    /// Number of devices needed to hold the given footprint (§6.6's five-A100 example).
    pub fn devices_needed(&self, footprint_bytes: u64) -> u64 {
        footprint_bytes.div_ceil(self.memory_capacity_bytes.max(1))
    }
}

/// Result of simulating a compaction trace on the GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRunResult {
    /// Simulated runtime in nanoseconds.
    pub runtime_ns: f64,
    /// Traffic moved through device memory.
    pub traffic: TrafficSummary,
    /// Memory statistics over the run.
    pub memory: MemoryStats,
    /// `true` if the workload's footprint exceeded device memory (the run then models
    /// the paper's "subset of traces" methodology but flags the violation).
    pub capacity_exceeded: bool,
}

/// Simulates a compaction trace on the GPU model.
///
/// `footprint_bytes` is the workload's peak memory footprint, checked against the
/// device capacity.
pub fn simulate_gpu_compaction(
    trace: &CompactionTrace,
    layout: &NodeLayout,
    dram: &DramConfig,
    gpu: &GpuConfig,
    footprint_bytes: u64,
) -> GpuRunResult {
    let mut traffic = TrafficSummary::default();
    let mut runtime_ns = 0.0f64;
    let effective_bw = (gpu.peak_bandwidth_gbps * gpu.irregular_efficiency).max(1e-9);

    let access_bytes = SizeTable::new(|size| layout.access_bytes(size));

    for iteration in &trace.iterations {
        // The GPU runs the optimized (pipelined) software flow: massive parallelism
        // makes the per-iteration time bandwidth-bound, so its traffic is all
        // the model reads of the events.
        let counts = IterationTraffic::count(iteration, |size| access_bytes.get(size));
        let before = traffic.total_bytes();
        traffic.add_iteration(counts, layout, ProcessFlow::Optimized);
        let bytes = (traffic.total_bytes() - before) as f64;
        runtime_ns += bytes / effective_bw + gpu.per_iteration_overhead_ns;
    }

    let memory = MemoryStats {
        read_lines: traffic.read_bytes / dram.line_bytes as u64,
        write_lines: traffic.write_bytes / dram.line_bytes as u64,
        read_bytes: traffic.read_bytes,
        write_bytes: traffic.write_bytes,
        elapsed_ns: runtime_ns,
        peak_bandwidth_gbps: gpu.peak_bandwidth_gbps,
    };

    GpuRunResult {
        runtime_ns,
        traffic,
        memory,
        capacity_exceeded: !gpu.fits(footprint_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_pakman::trace::{IterationTrace, NodeCheck, UpdateEvent};

    fn synthetic(nodes: usize, iterations: usize) -> (CompactionTrace, NodeLayout) {
        let sizes: Vec<usize> = (0..nodes).map(|i| 256 + (i % 5) * 100).collect();
        let mut trace = CompactionTrace::new(nodes, sizes.clone());
        for _ in 0..iterations {
            trace.iterations.push(IterationTrace {
                checks: (0..nodes)
                    .map(|slot| NodeCheck::new(slot, sizes[slot], slot % 3 == 0))
                    .collect(),
                transfers: vec![],
                updates: (0..nodes / 3)
                    .map(|i| UpdateEvent::new(i * 3 + 1, 300))
                    .collect(),
            });
        }
        (trace, NodeLayout::new(&sizes, &DramConfig::default()))
    }

    #[test]
    fn capacity_check_and_device_count() {
        let gpu = GpuConfig::default();
        assert!(gpu.fits(10 << 30));
        assert!(!gpu.fits(400 << 30));
        // §6.6: a 379 GB footprint needs five 80 GB devices.
        assert_eq!(GpuConfig::a100_80gb().devices_needed(379 << 30), 5);
    }

    #[test]
    fn runtime_scales_with_trace_size() {
        let dram = DramConfig::default();
        let gpu = GpuConfig::default();
        let (small_trace, small_layout) = synthetic(500, 3);
        let (large_trace, large_layout) = synthetic(5_000, 3);
        let small = simulate_gpu_compaction(&small_trace, &small_layout, &dram, &gpu, 1 << 30);
        let large = simulate_gpu_compaction(&large_trace, &large_layout, &dram, &gpu, 1 << 30);
        assert!(large.runtime_ns > small.runtime_ns);
        assert!(large.traffic.total_bytes() > small.traffic.total_bytes());
    }

    #[test]
    fn capacity_exceeded_is_flagged() {
        let dram = DramConfig::default();
        let gpu = GpuConfig::default();
        let (trace, layout) = synthetic(100, 1);
        let ok = simulate_gpu_compaction(&trace, &layout, &dram, &gpu, 1 << 30);
        assert!(!ok.capacity_exceeded);
        let too_big = simulate_gpu_compaction(&trace, &layout, &dram, &gpu, 500 << 30);
        assert!(too_big.capacity_exceeded);
    }

    #[test]
    fn higher_irregular_efficiency_is_faster() {
        let dram = DramConfig::default();
        let (trace, layout) = synthetic(2_000, 3);
        let slow = simulate_gpu_compaction(
            &trace,
            &layout,
            &dram,
            &GpuConfig {
                irregular_efficiency: 0.05,
                ..GpuConfig::default()
            },
            1 << 30,
        );
        let fast = simulate_gpu_compaction(
            &trace,
            &layout,
            &dram,
            &GpuConfig {
                irregular_efficiency: 0.5,
                ..GpuConfig::default()
            },
            1 << 30,
        );
        assert!(fast.runtime_ns < slow.runtime_ns);
    }
}
