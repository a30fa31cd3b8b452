//! Analytic multicore CPU model for Iterative Compaction.
//!
//! The paper profiles its software-optimized PaKman baseline on a 2× Xeon 8380 host
//! (Table 2) with Linux perf and the Sniper simulator, and reports that DRAM-access
//! stalls (54 %) and core workload imbalance (`sync-futex`, 39 %) dominate (Fig. 6),
//! while memory bandwidth stays under 7 % of peak (Fig. 13). This module reproduces
//! those quantities with a first-order core model: MacroNode processing is dominated
//! by dependent (pointer-chasing) DRAM accesses with little memory-level parallelism,
//! plus a small compute component, a barrier at the end of every iteration (imbalance)
//! and per-update lock hand-offs.
//!
//! The model's constants are calibrated once against the paper's reported breakdown
//! and then held fixed across all experiments.

use crate::config::DramConfig;
use crate::layout::NodeLayout;
use crate::stats::MemoryStats;
use crate::table::SizeTable;
use crate::traffic::{IterationTraffic, ProcessFlow, TrafficSummary};
use nmp_pak_pakman::CompactionTrace;

/// CPU machine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Hardware threads used by the run (the paper profiles with 64).
    pub threads: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Average DRAM access latency in nanoseconds (row misses, queueing, TLB included).
    pub dram_latency_ns: f64,
    /// Average last-level-cache hit latency in nanoseconds.
    pub l3_latency_ns: f64,
    /// Fraction of MacroNode line accesses served by the LLC (low: data has low reuse).
    pub l3_hit_rate: f64,
    /// Dependent (non-overlappable) accesses per MacroNode visit, from the nested
    /// 1D/2D vector indirections of the MacroNode structure.
    pub dependent_accesses_per_node: f64,
    /// Memory-level parallelism achieved for the streaming part of a node access.
    pub streaming_mlp: f64,
    /// Compute nanoseconds per MacroNode byte processed.
    pub compute_ns_per_byte: f64,
    /// Branch-misprediction overhead as a fraction of compute time.
    pub branch_fraction: f64,
    /// Serialized lock hand-off cost per destination update, in nanoseconds
    /// (the `omp_set_lock` protecting concurrent TransferNode application).
    pub lock_overhead_ns: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            threads: 64,
            freq_ghz: 2.3,
            dram_latency_ns: 95.0,
            l3_latency_ns: 18.0,
            l3_hit_rate: 0.15,
            dependent_accesses_per_node: 6.0,
            streaming_mlp: 1.5,
            compute_ns_per_byte: 0.02,
            branch_fraction: 0.05,
            lock_overhead_ns: 6.0,
        }
    }
}

impl CpuConfig {
    /// One core's time to visit a node of `size_bytes` stored in lines of
    /// `line_bytes`: a few dependent DRAM accesses, the node's lines streamed
    /// at [`CpuConfig::streaming_mlp`], and per-byte compute.
    pub fn node_cost(&self, size_bytes: usize, line_bytes: usize) -> NodeCost {
        let lines = (size_bytes as f64 / line_bytes as f64).ceil().max(1.0);
        let dependent = self.dependent_accesses_per_node * self.dram_latency_ns;
        let streamed = lines
            * (self.l3_hit_rate * self.l3_latency_ns
                + (1.0 - self.l3_hit_rate) * self.dram_latency_ns)
            / self.streaming_mlp;
        let l3 = lines * self.l3_hit_rate * self.l3_latency_ns / self.streaming_mlp;
        let dram = (dependent + streamed - l3).max(0.0);
        let compute = size_bytes as f64 * self.compute_ns_per_byte;
        let branch = compute * self.branch_fraction;
        NodeCost {
            compute,
            branch,
            l3,
            dram,
        }
    }
}

/// One node visit's time in nanoseconds, by the stall category it is charged to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeCost {
    /// Core computation.
    pub compute: f64,
    /// Branch misprediction.
    pub branch: f64,
    /// Last-level-cache access.
    pub l3: f64,
    /// DRAM access.
    pub dram: f64,
}

impl NodeCost {
    /// The whole visit.
    pub fn total(&self) -> f64 {
        self.compute + self.branch + self.l3 + self.dram
    }
}

/// Stall-time decomposition of a compaction run, as fractions summing to 1
/// (the categories of Fig. 6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StallBreakdown {
    /// Core computation.
    pub base: f64,
    /// Branch misprediction.
    pub branch: f64,
    /// Last-level-cache access.
    pub mem_l3: f64,
    /// DRAM access.
    pub mem_dram: f64,
    /// Synchronization: barrier imbalance and lock hand-offs.
    pub sync_futex: f64,
    /// Everything else.
    pub other: f64,
}

impl StallBreakdown {
    /// Sum of all categories (≈ 1 for a normalized breakdown).
    pub fn total(&self) -> f64 {
        self.base + self.branch + self.mem_l3 + self.mem_dram + self.sync_futex + self.other
    }
}

/// Result of simulating Iterative Compaction on the CPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuRunResult {
    /// Simulated runtime in nanoseconds.
    pub runtime_ns: f64,
    /// Stall-time decomposition.
    pub stall: StallBreakdown,
    /// Read/write traffic under the chosen process flow.
    pub traffic: TrafficSummary,
    /// DRAM statistics (traffic plus achieved bandwidth over the runtime).
    pub memory: MemoryStats,
}

impl CpuRunResult {
    /// Fraction of peak memory bandwidth achieved.
    pub fn bandwidth_utilization(&self) -> f64 {
        self.memory.bandwidth_utilization()
    }
}

/// Simulates a compaction trace on the CPU model under the given process flow.
pub fn simulate_cpu_compaction(
    trace: &CompactionTrace,
    layout: &NodeLayout,
    flow: ProcessFlow,
    dram: &DramConfig,
    cpu: &CpuConfig,
) -> CpuRunResult {
    let threads = cpu.threads.max(1);
    let read_passes = match flow {
        ProcessFlow::Baseline => 2.0,
        ProcessFlow::Optimized | ProcessFlow::IdealForwarding => 1.0,
    };

    let mut runtime_ns = 0.0f64;
    let mut busy_base = 0.0f64;
    let mut busy_branch = 0.0f64;
    let mut busy_l3 = 0.0f64;
    let mut busy_dram = 0.0f64;
    let mut sync_ns = 0.0f64;
    let mut traffic = TrafficSummary::default();
    // Per node size: the bytes its access moves and the cost of visiting it.
    let sizes = SizeTable::new(|size| {
        (
            layout.access_bytes(size),
            cpu.node_cost(size, dram.line_bytes),
        )
    });
    let mut per_thread_busy = vec![0.0f64; threads];

    for iteration in &trace.iterations {
        let mut counts = IterationTraffic::new(iteration);

        // The paper's runtime distributes equal node *counts* to threads; sizes are
        // skewed, so per-thread busy time differs and the iteration barrier exposes
        // the imbalance as sync-futex time.
        per_thread_busy.fill(0.0);
        let chunk = iteration.checks.len().div_ceil(threads).max(1);
        for (busy, nodes) in per_thread_busy
            .iter_mut()
            .zip(iteration.checks.chunks(chunk))
        {
            for check in nodes {
                let (bytes, cost) = sizes.get(check.size_bytes as usize);
                counts.check(bytes, check.invalidated);
                *busy += cost.total() * read_passes;
                busy_base += cost.compute * read_passes;
                busy_branch += cost.branch * read_passes;
                busy_l3 += cost.l3 * read_passes;
                busy_dram += cost.dram * read_passes;
            }
        }

        // Destination updates: a read-modify-write per destination plus the lock
        // hand-off that serializes concurrent writers.
        let chunk = iteration.updates.len().div_ceil(threads).max(1);
        for (busy, updates) in per_thread_busy
            .iter_mut()
            .zip(iteration.updates.chunks(chunk))
        {
            for update in updates {
                let (bytes, cost) = sizes.get(update.size_bytes as usize);
                counts.update(bytes);
                *busy += cost.total();
                busy_base += cost.compute;
                busy_branch += cost.branch;
                busy_l3 += cost.l3;
                busy_dram += cost.dram;
            }
        }
        let serialized_locks = iteration.updates.len() as f64 * cpu.lock_overhead_ns;
        traffic.add_iteration(counts, layout, flow);

        let max_busy = per_thread_busy.iter().copied().fold(0.0f64, f64::max);
        let iteration_time = max_busy + serialized_locks;
        runtime_ns += iteration_time;

        // Threads wait at the barrier for the slowest thread and during serialized
        // lock hand-offs.
        for busy in &per_thread_busy {
            sync_ns += (iteration_time - busy).max(0.0);
        }
    }

    let total_thread_time = runtime_ns * threads as f64;
    let busy_total = busy_base + busy_branch + busy_l3 + busy_dram;
    let other = (total_thread_time - busy_total - sync_ns).max(0.0);
    let norm = if total_thread_time > 0.0 {
        total_thread_time
    } else {
        1.0
    };
    let stall = StallBreakdown {
        base: busy_base / norm,
        branch: busy_branch / norm,
        mem_l3: busy_l3 / norm,
        mem_dram: busy_dram / norm,
        sync_futex: sync_ns / norm,
        other: other / norm,
    };

    let memory = MemoryStats {
        read_lines: traffic.read_bytes / dram.line_bytes as u64,
        write_lines: traffic.write_bytes / dram.line_bytes as u64,
        read_bytes: traffic.read_bytes,
        write_bytes: traffic.write_bytes,
        elapsed_ns: runtime_ns,
        peak_bandwidth_gbps: dram.total_peak_bandwidth_gbps(),
    };

    CpuRunResult {
        runtime_ns,
        stall,
        traffic,
        memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_pakman::trace::{IterationTrace, NodeCheck, UpdateEvent};

    fn synthetic_trace(nodes: usize, iterations: usize) -> (CompactionTrace, NodeLayout) {
        let sizes: Vec<usize> = (0..nodes).map(|i| 200 + (i % 7) * 120).collect();
        let mut trace = CompactionTrace::new(nodes, sizes.clone());
        for it in 0..iterations {
            let alive = nodes - it * nodes / (iterations + 1);
            let checks: Vec<NodeCheck> = (0..alive)
                .map(|slot| NodeCheck::new(slot, sizes[slot] + it * 16, slot % 4 == 1))
                .collect();
            let updates: Vec<UpdateEvent> = checks
                .iter()
                .filter(|c| c.invalidated)
                .map(|c| {
                    let dest_slot = (c.slot as usize + 1) % alive.max(1);
                    UpdateEvent::new(dest_slot, c.size_bytes as usize + 32)
                })
                .collect();
            trace.iterations.push(IterationTrace {
                checks,
                transfers: vec![],
                updates,
            });
        }
        let layout = NodeLayout::new(&sizes, &DramConfig::default());
        (trace, layout)
    }

    #[test]
    fn breakdown_sums_to_one_and_dram_dominates() {
        let (trace, layout) = synthetic_trace(2_000, 5);
        let result = simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Baseline,
            &DramConfig::default(),
            &CpuConfig::default(),
        );
        let total = result.stall.total();
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
        assert!(
            result.stall.mem_dram > result.stall.base,
            "dram {} vs base {}",
            result.stall.mem_dram,
            result.stall.base
        );
        assert!(result.stall.mem_dram > 0.3);
        assert!(result.stall.sync_futex > 0.05);
    }

    #[test]
    fn bandwidth_utilization_is_single_digit_percent() {
        let (trace, layout) = synthetic_trace(4_000, 5);
        let result = simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Baseline,
            &DramConfig::default(),
            &CpuConfig::default(),
        );
        let util = result.bandwidth_utilization();
        assert!(util > 0.005 && util < 0.25, "utilization = {util}");
    }

    #[test]
    fn optimized_flow_is_faster_than_baseline() {
        let (trace, layout) = synthetic_trace(2_000, 5);
        let base = simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Baseline,
            &DramConfig::default(),
            &CpuConfig::default(),
        );
        let opt = simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Optimized,
            &DramConfig::default(),
            &CpuConfig::default(),
        );
        assert!(opt.runtime_ns < base.runtime_ns);
        assert!(opt.traffic.read_bytes < base.traffic.read_bytes);
        assert!(opt.traffic.write_bytes < base.traffic.write_bytes);
    }

    #[test]
    fn more_threads_reduce_runtime_but_not_below_serial_sections() {
        let (trace, layout) = synthetic_trace(2_000, 3);
        let few = simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Optimized,
            &DramConfig::default(),
            &CpuConfig {
                threads: 4,
                ..CpuConfig::default()
            },
        );
        let many = simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Optimized,
            &DramConfig::default(),
            &CpuConfig {
                threads: 64,
                ..CpuConfig::default()
            },
        );
        assert!(many.runtime_ns < few.runtime_ns);
        // Sync share grows with thread count (barrier + serialized locks).
        assert!(many.stall.sync_futex > few.stall.sync_futex);
    }

    #[test]
    fn empty_trace_is_safe() {
        let trace = CompactionTrace::new(0, vec![]);
        let layout = NodeLayout::new(&[], &DramConfig::default());
        let result = simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Optimized,
            &DramConfig::default(),
            &CpuConfig::default(),
        );
        assert_eq!(result.runtime_ns, 0.0);
        assert_eq!(result.traffic.total_bytes(), 0);
    }
}
