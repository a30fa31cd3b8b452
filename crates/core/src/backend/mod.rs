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
//! [`BackendRegistry::standard`], which every sweep and the benchmark
//! simulate. Another configuration (an 80 GB GPU, an NMP system with more PEs,
//! as Fig. 15 sweeps) is a [`CompactionBackend`] its caller
//! [`BackendRegistry::register`]s or simulates on its own
//! ([`crate::NmpPakAssembler::run_with`]); no sweep picks it up.

pub mod cpu;
pub mod gpu;
pub mod nmp;
#[cfg(test)]
mod oracle;
pub mod registry;

pub use cpu::{CpuBackend, UnoptimizedCpuConfig};
pub use gpu::GpuBackend;
pub use nmp::NmpBackend;
pub use registry::BackendRegistry;

use nmp_pak_memsim::{CpuConfig, DramConfig, GpuConfig, MemoryStats, NodeLayout, TrafficSummary};
use nmp_pak_nmphw::{CommStats, NmpConfig};
use nmp_pak_pakman::CompactionTrace;

/// Stable identifier of an execution backend.
///
/// Ids name a *configuration*, not an implementation: the paper's seven
/// configurations have the constants below, and custom backends mint their own
/// with [`BackendId::new`]. Lookup by id goes through [`BackendRegistry`].
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

/// Workload-level context shared by every backend simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SimulationContext {
    /// The workload's peak memory footprint (used for capacity checks).
    pub footprint_bytes: u64,
    /// Measured sharded-execution telemetry, when the software ran sharded.
    /// The NMP channel model folds it onto its channels — per-channel work
    /// shares and the measured cross-channel byte fraction — so the busiest
    /// channel paces each lock-step iteration; `None` assumes uniform work.
    pub sharding: Option<nmp_pak_pakman::ShardingTelemetry>,
}

impl SimulationContext {
    /// Creates a context for a workload with the given peak footprint (uniform
    /// load assumed until measured telemetry says otherwise).
    pub fn new(footprint_bytes: u64) -> SimulationContext {
        SimulationContext {
            footprint_bytes,
            sharding: None,
        }
    }

    /// Attaches the measured sharded-execution telemetry.
    pub fn with_sharding(
        mut self,
        telemetry: nmp_pak_pakman::ShardingTelemetry,
    ) -> SimulationContext {
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

    /// Simulates Iterative Compaction in one pass over `trace`'s events, placed
    /// by `layout`.
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
                .map(|slot| NodeCheck::new(slot, sizes[slot] + it * 24, slot % 5 == 3))
                .collect();
            let transfers: Vec<TransferEvent> = checks
                .iter()
                .filter(|c| c.invalidated)
                .flat_map(|c| {
                    let slot = c.slot as usize;
                    [
                        TransferEvent::new(slot, (slot * 7919 + 3) % alive, 48),
                        TransferEvent::new(slot, (slot * 104_729 + 11) % alive, 48),
                    ]
                })
                .collect();
            let updates: Vec<UpdateEvent> = transfers
                .iter()
                .map(|t| UpdateEvent::new(t.dest_slot as usize, sizes[t.dest_slot as usize] + 48))
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

    /// FNV-1a over every simulated field of a result, f64s by their bits, each
    /// optional block behind a presence word.
    fn result_digest(r: &BackendResult) -> u64 {
        let (t, m) = (r.traffic, r.memory);
        let mut words = vec![t.reads, t.writes, t.read_bytes, t.write_bytes];
        words.extend([m.read_lines, m.write_lines, m.read_bytes, m.write_bytes]);
        words.extend([m.elapsed_ns, m.peak_bandwidth_gbps].map(f64::to_bits));
        words.push(u64::from(r.capacity_exceeded));
        words.push(u64::from(r.stall.is_some()));
        if let Some(s) = r.stall {
            let fractions = [
                s.base,
                s.branch,
                s.mem_l3,
                s.mem_dram,
                s.sync_futex,
                s.other,
            ];
            words.extend(fractions.map(f64::to_bits));
        }
        words.push(u64::from(r.comm.is_some()));
        if let Some(c) = r.comm {
            words.extend([c.same_pe, c.cross_pe_same_dimm, c.cross_dimm]);
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// `(runtime_ns bits, digest of everything else)` per result of the
    /// standard registry, in its order, against the pinned table; a failure
    /// prints the table it got.
    fn assert_pinned(results: &[BackendResult], pinned: &[(u64, u64)]) {
        let ids: Vec<BackendId> = results.iter().map(|r| r.backend).collect();
        assert_eq!(
            ids,
            BackendRegistry::standard(&SystemConfig::default()).ids()
        );
        let got: Vec<(u64, u64)> = results
            .iter()
            .map(|r| (r.runtime_ns.to_bits(), result_digest(r)))
            .collect();
        let table: String = got
            .iter()
            .zip(&ids)
            .map(|((bits, digest), id)| format!("({bits:#018x}, {digest:#018x}), // {id}\n"))
            .collect();
        assert_eq!(got, pinned, "results moved; got:\n{table}");
    }

    #[test]
    fn pinned_results_on_the_synthetic_trace() {
        const PINNED: [(u64, u64); 7] = [
            (0x41541f3a79168723, 0x879b8e43e460d074), // cpu-baseline-unoptimized
            (0x412175c6978d4fe0, 0x0b22b6d706e9817e), // cpu-baseline
            (0x41071d09e0b862c8, 0x548a0261ab1bd760), // gpu-baseline
            (0x4115a5ab38a94d24, 0x6381373f891a1fa3), // cpu-pak
            (0x40f7215b80000000, 0x179bfb85e86b3600), // nmp-pak
            (0x40f7215b80000000, 0x179bfb85e86b3600), // nmp-ideal-pe
            (0x40f2482d00000000, 0x199fcb441fe0404f), // nmp-ideal-forwarding
        ];
        const PINNED_SHARDED: [(u64, u64); 7] = [
            (0x41541f3a79168723, 0x879b8e43e460d074), // cpu-baseline-unoptimized
            (0x412175c6978d4fe0, 0x0b22b6d706e9817e), // cpu-baseline
            (0x41071d09e0b862c8, 0x548a0261ab1bd760), // gpu-baseline
            (0x4115a5ab38a94d24, 0x6381373f891a1fa3), // cpu-pak
            (0x4102502000000000, 0xc48312b9acef9e1e), // nmp-pak
            (0x4102502000000000, 0xc48312b9acef9e1e), // nmp-ideal-pe
            (0x40fc9725e0000000, 0x6e2c5e7838a75b00), // nmp-ideal-forwarding
        ];
        let (trace, layout) = synthetic();
        let registry = BackendRegistry::standard(&SystemConfig::default());
        let results = registry.simulate_all(&trace, &layout, &SimulationContext::new(1 << 30));
        assert_pinned(&results, &PINNED);

        // Measured sharding: 12 shards folded onto 8 channels, shard 0 doing
        // 3× the work, a third of the mailbox bytes channel-local.
        let shards = 12usize;
        let flush = |dst, bytes| nmp_pak_pakman::MailboxFlushStats {
            src: 0,
            dst,
            src_iteration: 0,
            transfers: 1,
            bytes,
        };
        let mut checked_per_shard = vec![1_000u64; shards];
        checked_per_shard[0] = 3_000;
        let telemetry = nmp_pak_pakman::ShardingTelemetry {
            shard_count: shards,
            initial_alive_per_shard: vec![100; shards],
            final_alive_per_shard: vec![50; shards],
            checked_per_shard,
            // Shard 0 → shard 8 (both on channel 0), shard 0 → shard 1 (cross).
            flushes: vec![flush(8, 1_000), flush(1, 2_000)],
        };
        let ctx = SimulationContext::new(1 << 30).with_sharding(telemetry);
        assert_pinned(
            &registry.simulate_all(&trace, &layout, &ctx),
            &PINNED_SHARDED,
        );
    }

    #[test]
    fn pinned_results_on_a_traced_assembly() {
        const PINNED: [(u64, u64); 7] = [
            (0x418a62c7fa2221f2, 0x3fcc42e6153ea79d), // cpu-baseline-unoptimized
            (0x4155083e760418a5, 0xf1e06b153a1ca17e), // cpu-baseline
            (0x4120a9f7900d2ba0, 0xc8502e9829e8f4cc), // gpu-baseline
            (0x4147fe221e098ebf, 0x6fa627e7da17528f), // cpu-pak
            (0x411874d570000000, 0xe7c4e6e13633b66e), // nmp-pak
            (0x411874d570000000, 0xe7c4e6e13633b66e), // nmp-ideal-pe
            (0x4115237458000000, 0x828805cab8b3bf3f), // nmp-ideal-forwarding
        ];
        let assembler = crate::NmpPakAssembler::default();
        let workload = crate::Workload::tiny(3).unwrap();
        let assembly = nmp_pak_pakman::PakmanAssembler::new(assembler.pakman)
            .assemble(&workload.reads)
            .unwrap();
        let trace = assembly
            .trace
            .as_ref()
            .expect("the assembler records a trace");
        let layout = NodeLayout::new(&trace.initial_sizes, &assembler.system.dram);
        let ctx = crate::NmpPakAssembler::context_for(&assembly);
        let results =
            BackendRegistry::standard(&assembler.system).simulate_all(trace, &layout, &ctx);
        assert_pinned(&results, &PINNED);
    }
}
