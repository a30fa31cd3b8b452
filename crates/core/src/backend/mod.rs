//! Execution backends (§5.3 of the paper) behind the pluggable
//! [`CompactionBackend`] trait.
//!
//! Iterative Compaction — the phase NMP-PaK accelerates — can be simulated on any
//! of the paper's baseline and proposed configurations. All backends replay the
//! same [`nmp_pak_pakman::CompactionTrace`], so they perform the same assembly
//! work and differ only in where and how the MacroNode accesses execute.
//!
//! Backends are ordinary trait objects: the seven paper configurations live in
//! [`cpu`], [`gpu`] and [`nmp`] and are registered, in Fig. 12 plot order, by
//! [`BackendRegistry::standard`]. New execution targets (a PIM-style bitwise
//! backend, a different GPU, a hybrid) implement [`CompactionBackend`] and are
//! [`BackendRegistry::register`]ed next to them — no enum to extend, no dispatch
//! `match` to edit.

pub mod cpu;
pub mod gpu;
pub mod nmp;
pub mod panda;
pub mod registry;

pub use cpu::{CpuBackend, UnoptimizedCpuConfig};
pub use gpu::GpuBackend;
pub use nmp::NmpBackend;
pub use panda::{PandaBackend, PandaConfig};
pub use registry::BackendRegistry;

use nmp_pak_memsim::{CpuConfig, DramConfig, GpuConfig, MemoryStats, NodeLayout, TrafficSummary};
use nmp_pak_nmphw::{CommStats, NmpConfig};
use nmp_pak_pakman::CompactionTrace;

/// Stable identifier of an execution backend.
///
/// Ids name a *configuration*, not an implementation: the paper's seven
/// configurations have the constants below, and custom backends mint their own
/// with [`BackendId::new`]. Lookup by id (or by figure label) goes through
/// [`BackendRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BackendId(&'static str);

impl BackendId {
    /// PaKman software before the §4.5 parallelism/memory optimizations
    /// ("W/O SW-opt" in Fig. 12).
    pub const CPU_BASELINE_UNOPTIMIZED: BackendId = BackendId("cpu-baseline-unoptimized");
    /// The software-optimized PaKman on the host CPU with the original
    /// sequential-stage process flow — the paper's **CPU baseline**.
    pub const CPU_BASELINE: BackendId = BackendId("cpu-baseline");
    /// The NMP-PaK software optimizations (pipelined flow, batching) executed on
    /// the CPU — the paper's **CPU-PaK**.
    pub const CPU_PAK: BackendId = BackendId("cpu-pak");
    /// An A100-class GPU running the optimized flow — the paper's **GPU baseline**.
    pub const GPU_BASELINE: BackendId = BackendId("gpu-baseline");
    /// The proposed near-memory design — **NMP-PaK**.
    pub const NMP_PAK: BackendId = BackendId("nmp-pak");
    /// NMP-PaK with infinitely fast PEs (§5.3).
    pub const NMP_IDEAL_PE: BackendId = BackendId("nmp-ideal-pe");
    /// NMP-PaK with ideal P1→P3 forwarding logic (§5.3).
    pub const NMP_IDEAL_FORWARDING: BackendId = BackendId("nmp-ideal-forwarding");
    /// PANDA-style in-DRAM bitwise-logic execution (Angizi et al.) — a research
    /// configuration registered by [`BackendRegistry::extended`].
    pub const PANDA: BackendId = BackendId("panda-bitwise");

    /// Mints an id for a custom backend.
    pub const fn new(name: &'static str) -> BackendId {
        BackendId(name)
    }

    /// The id as a string.
    pub const fn as_str(&self) -> &'static str {
        self.0
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Whether a workload footprint fits a backend's memory capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityVerdict {
    /// The footprint fits (or the backend has no hard capacity limit).
    Fits,
    /// The footprint exceeds the backend's capacity; the workload must be batched
    /// down (§6.6's GPU analysis) before it can run there.
    Exceeded {
        /// The workload's peak footprint in bytes.
        footprint_bytes: u64,
        /// The backend's memory capacity in bytes.
        capacity_bytes: u64,
    },
}

impl CapacityVerdict {
    /// `true` if the workload fits.
    pub fn fits(&self) -> bool {
        matches!(self, CapacityVerdict::Fits)
    }
}

/// Workload-level context shared by every backend simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimulationContext {
    /// The workload's peak memory footprint (used for capacity checks).
    pub footprint_bytes: u64,
    /// Measured per-partition load imbalance (max work over mean work) from
    /// sharded execution telemetry; `1.0` — the uniform-work assumption — when
    /// the workload ran unsharded. Spatial-compute backends (NMP channels,
    /// PANDA subarrays) operate in per-iteration lock-step, so the busiest
    /// partition paces every iteration: these models stretch their
    /// perfectly-parallel critical path by this factor.
    pub load_imbalance: f64,
    /// Full measured sharded-execution telemetry, when the software ran
    /// sharded. Backends that model spatial placement directly (the NMP
    /// channel model) fold this onto their channels — per-channel work shares
    /// and the measured cross-channel byte fraction — instead of collapsing it
    /// to the single [`SimulationContext::load_imbalance`] scalar.
    pub sharding: Option<nmp_pak_pakman::ShardingTelemetry>,
}

impl SimulationContext {
    /// Creates a context for a workload with the given peak footprint (uniform
    /// load assumed until measured telemetry says otherwise).
    pub fn new(footprint_bytes: u64) -> SimulationContext {
        SimulationContext {
            footprint_bytes,
            load_imbalance: 1.0,
            sharding: None,
        }
    }

    /// Attaches a measured load-imbalance factor (clamped to ≥ 1.0).
    pub fn with_load_imbalance(mut self, imbalance: f64) -> SimulationContext {
        self.load_imbalance = if imbalance.is_finite() {
            imbalance.max(1.0)
        } else {
            1.0
        };
        self
    }

    /// Attaches the full sharded-execution telemetry and derives
    /// [`SimulationContext::load_imbalance`] from it, so scalar-only backends
    /// stay consistent with backends that consume the full telemetry.
    pub fn with_sharding(
        mut self,
        telemetry: nmp_pak_pakman::ShardingTelemetry,
    ) -> SimulationContext {
        self = self.with_load_imbalance(telemetry.load_imbalance());
        self.sharding = Some(telemetry);
        self
    }
}

/// An execution configuration that can simulate Iterative Compaction.
///
/// Implementations own their machine parameters (DRAM organization, core model,
/// device config): a backend is a *fully configured* target, so
/// [`CompactionBackend::simulate`] is straight-line — no per-call configuration
/// dispatch on the hot path.
pub trait CompactionBackend: std::fmt::Debug + Send + Sync {
    /// Stable identifier (registry lookup key).
    fn id(&self) -> BackendId;

    /// The label used by the paper's figures.
    fn label(&self) -> &'static str;

    /// Checks whether a workload footprint fits this backend's memory.
    ///
    /// The default is [`CapacityVerdict::Fits`]: host-memory backends are bounded
    /// by DIMM count, not device capacity.
    fn capacity_check(&self, footprint_bytes: u64) -> CapacityVerdict {
        let _ = footprint_bytes;
        CapacityVerdict::Fits
    }

    /// Simulates Iterative Compaction by replaying `trace` over `layout`.
    fn simulate(
        &self,
        trace: &CompactionTrace,
        layout: &NodeLayout,
        ctx: &SimulationContext,
    ) -> BackendResult;
}

/// Machine configuration shared by every standard backend.
///
/// Per-backend knobs (e.g. the unoptimized software's limited thread count) live
/// with their backend — see [`UnoptimizedCpuConfig`] — not here.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemConfig {
    /// Main-memory organization (shared by the CPU host and the NMP DIMMs).
    pub dram: DramConfig,
    /// Host CPU parameters.
    pub cpu: CpuConfig,
    /// GPU baseline parameters.
    pub gpu: GpuConfig,
    /// NMP configuration for the proposed design.
    pub nmp: NmpConfig,
}

/// The outcome of simulating Iterative Compaction on one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendResult {
    /// Which backend produced this result.
    pub backend: BackendId,
    /// The backend's figure label (denormalized for row printing).
    pub label: &'static str,
    /// Simulated compaction runtime in nanoseconds.
    pub runtime_ns: f64,
    /// Read/write traffic.
    pub traffic: TrafficSummary,
    /// Memory statistics (achieved bandwidth over the run).
    pub memory: MemoryStats,
    /// Stall breakdown, for CPU backends.
    pub stall: Option<nmp_pak_memsim::StallBreakdown>,
    /// TransferNode routing locality, for NMP backends.
    pub comm: Option<CommStats>,
    /// `true` if the workload footprint exceeded the backend's memory capacity
    /// (GPU baseline only among the standard backends).
    pub capacity_exceeded: bool,
}

impl BackendResult {
    /// Fraction of peak memory bandwidth achieved (Fig. 13).
    pub fn bandwidth_utilization(&self) -> f64 {
        self.memory.bandwidth_utilization()
    }

    /// Speedup of this backend over `baseline` (Fig. 12's normalization).
    pub fn speedup_over(&self, baseline: &BackendResult) -> f64 {
        if self.runtime_ns <= 0.0 {
            return 0.0;
        }
        baseline.runtime_ns / self.runtime_ns
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nmp_pak_pakman::trace::{IterationTrace, NodeCheck, TransferEvent, UpdateEvent};

    pub(crate) fn synthetic() -> (CompactionTrace, NodeLayout) {
        let nodes = 3_000usize;
        let sizes: Vec<usize> = (0..nodes)
            .map(|i| {
                if i % 89 == 0 {
                    5_000
                } else {
                    220 + (i % 8) * 100
                }
            })
            .collect();
        let mut trace = CompactionTrace::new(nodes, sizes.clone());
        for it in 0..5 {
            let alive = nodes - it * 400;
            let checks: Vec<NodeCheck> = (0..alive)
                .map(|slot| NodeCheck {
                    slot,
                    size_bytes: sizes[slot] + it * 24,
                    invalidated: slot % 5 == 3,
                })
                .collect();
            let transfers: Vec<TransferEvent> = checks
                .iter()
                .filter(|c| c.invalidated)
                .flat_map(|c| {
                    [
                        TransferEvent {
                            source_slot: c.slot,
                            dest_slot: (c.slot * 7919 + 3) % alive,
                            size_bytes: 48,
                        },
                        TransferEvent {
                            source_slot: c.slot,
                            dest_slot: (c.slot * 104_729 + 11) % alive,
                            size_bytes: 48,
                        },
                    ]
                })
                .collect();
            let updates: Vec<UpdateEvent> = transfers
                .iter()
                .map(|t| UpdateEvent {
                    dest_slot: t.dest_slot,
                    size_bytes: sizes[t.dest_slot] + 48,
                })
                .collect();
            trace.iterations.push(IterationTrace {
                checks,
                transfers,
                updates,
            });
        }
        let layout = NodeLayout::new(&sizes, &DramConfig::default());
        (trace, layout)
    }

    #[test]
    fn backend_ids_are_unique_and_stable() {
        let ids = [
            BackendId::CPU_BASELINE_UNOPTIMIZED,
            BackendId::CPU_BASELINE,
            BackendId::GPU_BASELINE,
            BackendId::CPU_PAK,
            BackendId::NMP_PAK,
            BackendId::NMP_IDEAL_PE,
            BackendId::NMP_IDEAL_FORWARDING,
        ];
        let set: std::collections::HashSet<BackendId> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
        assert_eq!(BackendId::NMP_PAK.as_str(), "nmp-pak");
        assert_eq!(BackendId::new("nmp-pak"), BackendId::NMP_PAK);
        assert_eq!(format!("{}", BackendId::CPU_PAK), "cpu-pak");
    }

    #[test]
    fn capacity_verdict_reports_fit() {
        assert!(CapacityVerdict::Fits.fits());
        assert!(!CapacityVerdict::Exceeded {
            footprint_bytes: 2,
            capacity_bytes: 1
        }
        .fits());
    }
}
