//! Execution backends (§5.3 of the paper): the seven configurations Fig. 12
//! compares, as one closed [`Backend`] type.
//!
//! Iterative Compaction — the phase NMP-PaK accelerates — can be simulated on any
//! of the paper's baseline and proposed configurations. All backends replay the
//! same [`nmp_pak_pakman::CompactionTrace`], so they perform the same assembly
//! work and differ only in where and how the MacroNode accesses execute.
//!
//! A [`Backend`] is an id, a label and a machine: a host CPU running one
//! process flow, the GPU baseline, or an NMP system. [`BackendRegistry::standard`]
//! builds the seven from one table, in Fig. 12 plot order, and every sweep,
//! figure and the benchmark simulate it. The one other backend there is to
//! build is NMP-PaK on another [`NmpConfig`] ([`Backend::nmp`]), which Fig. 15's
//! PE sweep simulates on its own.

use nmp_pak_memsim::cpu::simulate_cpu_compaction;
use nmp_pak_memsim::gpu::simulate_gpu_compaction;
use nmp_pak_memsim::{
    CpuConfig, DramConfig, GpuConfig, MemoryStats, NodeLayout, ProcessFlow, TrafficSummary,
};
use nmp_pak_nmphw::{CommStats, NmpConfig, NmpSystem, PeVariant};
use nmp_pak_pakman::CompactionTrace;

/// Stable identifier of an execution backend.
///
/// Ids name a *configuration*, not an implementation: the paper's seven
/// configurations have the constants below, and a backend built with
/// [`Backend::nmp`] mints its own with [`BackendId::new`]. Lookup by id goes
/// through [`BackendRegistry`].
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

    /// Mints an id for a backend outside the seven.
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

/// Machine configuration shared by every standard backend.
///
/// The three ablations (W/O SW-opt's thread count, ideal PEs, ideal
/// forwarding) are derived from it in [`BackendRegistry::standard`]'s table.
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

/// The machine a backend simulates Iterative Compaction on.
#[derive(Debug, Clone, Copy)]
enum Machine {
    /// The analytic multicore model ([`nmp_pak_memsim::cpu`]) running one
    /// process flow: the sequential-stage baseline or the §4.5 pipelined flow.
    Cpu { flow: ProcessFlow, cpu: CpuConfig },
    /// An A100-class device running the optimized flow at high bandwidth but
    /// behind a hard capacity wall: a footprint past [`GpuConfig::fits`] sets
    /// [`BackendResult::capacity_exceeded`] (§3.5, §6.6, Table 1).
    Gpu(GpuConfig),
    /// The NMP system; `host` is the CPU it offloads large nodes to and
    /// synchronizes with each lock-step iteration.
    Nmp { nmp: NmpConfig, host: CpuConfig },
}

/// A fully configured execution backend: one of the seven §5.3
/// configurations [`BackendRegistry::standard`] builds, or NMP-PaK on another
/// hardware configuration ([`Backend::nmp`]).
#[derive(Debug, Clone, Copy)]
pub struct Backend {
    id: BackendId,
    label: &'static str,
    dram: DramConfig,
    machine: Machine,
}

impl Backend {
    /// NMP-PaK on the hardware configuration `nmp`, with `system`'s DRAM and
    /// host CPU (Fig. 15 sweeps the PE count this way).
    pub fn nmp(
        id: BackendId,
        label: &'static str,
        nmp: NmpConfig,
        system: &SystemConfig,
    ) -> Backend {
        Backend {
            id,
            label,
            dram: system.dram,
            machine: Machine::Nmp {
                nmp,
                host: system.cpu,
            },
        }
    }

    /// Stable identifier (registry lookup key).
    pub fn id(&self) -> BackendId {
        self.id
    }

    /// The label used by the paper's figures.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Simulates Iterative Compaction in one pass over `trace`'s events, placed
    /// by `layout`.
    pub fn simulate(
        &self,
        trace: &CompactionTrace,
        layout: &NodeLayout,
        ctx: &SimulationContext,
    ) -> BackendResult {
        let result = |runtime_ns, traffic, memory| BackendResult {
            backend: self.id,
            label: self.label,
            runtime_ns,
            traffic,
            memory,
            stall: None,
            comm: None,
            capacity_exceeded: false,
        };
        match self.machine {
            Machine::Cpu { flow, cpu } => {
                let r = simulate_cpu_compaction(trace, layout, flow, &self.dram, &cpu);
                BackendResult {
                    stall: Some(r.stall),
                    ..result(r.runtime_ns, r.traffic, r.memory)
                }
            }
            Machine::Gpu(gpu) => {
                let r =
                    simulate_gpu_compaction(trace, layout, &self.dram, &gpu, ctx.footprint_bytes);
                BackendResult {
                    capacity_exceeded: r.capacity_exceeded,
                    ..result(r.runtime_ns, r.traffic, r.memory)
                }
            }
            Machine::Nmp { nmp, host } => {
                let system = NmpSystem::new(nmp, self.dram, host);
                // When the software ran sharded, fold the measured
                // owner-computes telemetry onto this system's channels:
                // measured per-channel work shares and cross-channel bytes
                // replace the uniform-placement assumption.
                let channel_load = ctx
                    .sharding
                    .as_ref()
                    .map(|telemetry| system.channel_load_from_sharding(telemetry));
                let r = system.simulate(trace, layout, channel_load.as_ref());
                BackendResult {
                    comm: Some(r.comm),
                    ..result(r.runtime_ns, r.traffic, r.memory)
                }
            }
        }
    }
}

/// W/O SW-opt's thread count. Before the §4.5 optimizations PaKman's
/// compaction parallelizes poorly (the paper measures an ≈ 11.6× compaction
/// slowdown), modelled as the CPU baseline restricted to this many threads.
const UNOPTIMIZED_CPU_THREADS: usize = 6;

/// The seven §5.3 configurations, in Fig. 12 plot order; lookup is by
/// [`BackendId`].
#[derive(Debug)]
pub struct BackendRegistry {
    backends: Vec<Backend>,
}

impl BackendRegistry {
    /// The seven paper configurations (§5.3), in the order Fig. 12 plots them.
    pub fn standard(system: &SystemConfig) -> BackendRegistry {
        let (host, nmp) = (system.cpu, system.nmp);
        let unoptimized = CpuConfig {
            threads: UNOPTIMIZED_CPU_THREADS,
            ..host
        };
        let table = [
            (
                BackendId::CPU_BASELINE_UNOPTIMIZED,
                "W/O SW-opt",
                Machine::Cpu {
                    flow: ProcessFlow::Baseline,
                    cpu: unoptimized,
                },
            ),
            (
                BackendId::CPU_BASELINE,
                "CPU-baseline",
                Machine::Cpu {
                    flow: ProcessFlow::Baseline,
                    cpu: host,
                },
            ),
            (
                BackendId::GPU_BASELINE,
                "GPU-baseline",
                Machine::Gpu(system.gpu),
            ),
            (
                BackendId::CPU_PAK,
                "CPU-PaK",
                Machine::Cpu {
                    flow: ProcessFlow::Optimized,
                    cpu: host,
                },
            ),
            (BackendId::NMP_PAK, "NMP-PaK", Machine::Nmp { nmp, host }),
            (
                BackendId::NMP_IDEAL_PE,
                "NMP-PaK+ideal-PE",
                Machine::Nmp {
                    nmp: NmpConfig {
                        pe_variant: PeVariant::Ideal,
                        ..nmp
                    },
                    host,
                },
            ),
            (
                BackendId::NMP_IDEAL_FORWARDING,
                "NMP-PaK+ideal-fwd",
                Machine::Nmp {
                    nmp: NmpConfig {
                        ideal_forwarding: true,
                        ..nmp
                    },
                    host,
                },
            ),
        ];
        let backends = table
            .into_iter()
            .map(|(id, label, machine)| Backend {
                id,
                label,
                dram: system.dram,
                machine,
            })
            .collect();
        BackendRegistry { backends }
    }

    /// Looks a backend up by id.
    pub fn get(&self, id: BackendId) -> Option<&Backend> {
        self.backends.iter().find(|b| b.id == id)
    }

    /// Iterates the backends in Fig. 12 order.
    pub fn iter(&self) -> impl Iterator<Item = &Backend> {
        self.backends.iter()
    }

    /// The ids, in Fig. 12 order.
    pub fn ids(&self) -> Vec<BackendId> {
        self.backends.iter().map(|b| b.id).collect()
    }

    /// Simulates every backend on the same trace, in Fig. 12 order (the
    /// Fig. 12 sweep).
    #[cfg(test)]
    fn simulate_all(
        &self,
        trace: &CompactionTrace,
        layout: &NodeLayout,
        ctx: &SimulationContext,
    ) -> Vec<BackendResult> {
        self.iter()
            .map(|b| b.simulate(trace, layout, ctx))
            .collect()
    }
}

#[cfg(test)]
mod oracle;

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

    /// Measured sharding: 12 shards folded onto 8 channels, shard 0 doing 3×
    /// the work, a third of the mailbox bytes channel-local.
    fn measured_sharding() -> SimulationContext {
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
        SimulationContext::new(1 << 30).with_sharding(telemetry)
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

        assert_pinned(
            &registry.simulate_all(&trace, &layout, &measured_sharding()),
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

    fn standard(system: &SystemConfig, id: BackendId) -> Backend {
        *BackendRegistry::standard(system)
            .get(id)
            .expect("a standard backend")
    }

    fn results() -> Vec<BackendResult> {
        let (trace, layout) = synthetic();
        let registry = BackendRegistry::standard(&SystemConfig::default());
        registry.simulate_all(&trace, &layout, &SimulationContext::new(1 << 30))
    }

    fn by(results: &[BackendResult], id: BackendId) -> &BackendResult {
        results
            .iter()
            .find(|r| r.backend == id)
            .expect("all standard backends simulated")
    }

    #[test]
    fn standard_registry_preserves_fig12_order() {
        let registry = BackendRegistry::standard(&SystemConfig::default());
        assert_eq!(
            registry.ids(),
            vec![
                BackendId::CPU_BASELINE_UNOPTIMIZED,
                BackendId::CPU_BASELINE,
                BackendId::GPU_BASELINE,
                BackendId::CPU_PAK,
                BackendId::NMP_PAK,
                BackendId::NMP_IDEAL_PE,
                BackendId::NMP_IDEAL_FORWARDING,
            ]
        );
    }

    #[test]
    fn lookup_by_id_and_label_agree() {
        let registry = BackendRegistry::standard(&SystemConfig::default());
        for backend in registry.iter() {
            let found = registry.get(backend.id()).unwrap();
            assert_eq!(found.id(), backend.id());
            assert_eq!(found.label(), backend.label());
        }
        assert!(registry.get(BackendId::new("no-such-backend")).is_none());
    }

    #[test]
    fn labels_are_unique() {
        let registry = BackendRegistry::standard(&SystemConfig::default());
        let labels: std::collections::HashSet<&str> = registry.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), registry.ids().len());
    }

    #[test]
    fn ideal_variants_bake_their_configuration() {
        let system = SystemConfig::default();
        let nmp = |id| match standard(&system, id).machine {
            Machine::Nmp { nmp, .. } => nmp,
            other => panic!("{id} runs on {other:?}"),
        };
        assert_eq!(nmp(BackendId::NMP_IDEAL_PE).pe_variant, PeVariant::Ideal);
        assert!(nmp(BackendId::NMP_IDEAL_FORWARDING).ideal_forwarding);
        assert!(!nmp(BackendId::NMP_PAK).ideal_forwarding);
        assert_eq!(nmp(BackendId::NMP_PAK).pe_variant, PeVariant::Pipelined);
    }

    #[test]
    fn fewer_threads_run_slower() {
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let ctx = SimulationContext::new(1 << 30);
        let baseline = standard(&system, BackendId::CPU_BASELINE).simulate(&trace, &layout, &ctx);
        let unopt =
            standard(&system, BackendId::CPU_BASELINE_UNOPTIMIZED).simulate(&trace, &layout, &ctx);
        assert!(unopt.runtime_ns > baseline.runtime_ns);
        assert!(baseline.stall.is_some());
        assert!(baseline.comm.is_none());
    }

    #[test]
    fn capacity_check_matches_simulation_flag() {
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let gpu = standard(&system, BackendId::GPU_BASELINE);

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

    #[test]
    fn a_50_gb_footprint_flags_the_40_gb_gpu_and_not_the_80_gb_one() {
        let (trace, layout) = synthetic();
        let ctx = SimulationContext::new(50 << 30);
        let exceeded = |system: &SystemConfig| {
            standard(system, BackendId::GPU_BASELINE)
                .simulate(&trace, &layout, &ctx)
                .capacity_exceeded
        };
        assert!(exceeded(&SystemConfig::default()));
        assert!(!exceeded(&SystemConfig {
            gpu: GpuConfig::a100_80gb(),
            ..SystemConfig::default()
        }));
    }

    #[test]
    fn nmp_reports_communication_stats() {
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let ctx = SimulationContext::new(1 << 30);
        let result = standard(&system, BackendId::NMP_PAK).simulate(&trace, &layout, &ctx);
        assert!(result.comm.is_some());
        assert!(result.stall.is_none());
        assert!(result.runtime_ns > 0.0);
    }

    #[test]
    fn a_custom_nmp_backend_at_the_system_config_equals_nmp_pak() {
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let custom = Backend::nmp(BackendId::new("nmp-custom"), "custom", system.nmp, &system);
        let registered = standard(&system, BackendId::NMP_PAK);
        for ctx in [SimulationContext::new(1 << 30), measured_sharding()] {
            let got = custom.simulate(&trace, &layout, &ctx);
            assert_eq!((got.backend, got.label), (custom.id(), "custom"));
            let want = registered.simulate(&trace, &layout, &ctx);
            assert_eq!(
                BackendResult {
                    backend: want.backend,
                    label: want.label,
                    ..got
                },
                want
            );
        }
    }

    #[test]
    fn measured_sharding_telemetry_reaches_the_channel_model() {
        use nmp_pak_nmphw::NetworkModel;
        use nmp_pak_pakman::{PakmanAssembler, PakmanConfig, ShardConfig, ShardingTelemetry};
        let (trace, layout) = synthetic();
        let system = SystemConfig::default();
        let backend = standard(&system, BackendId::NMP_PAK);
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
        assert!(telemetry.load_imbalance() > 4.0);
        let ctx = SimulationContext::new(1 << 30).with_sharding(telemetry);
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

    #[test]
    fn backend_ordering_matches_the_paper() {
        let results = results();
        let baseline = by(&results, BackendId::CPU_BASELINE);
        let unopt = by(&results, BackendId::CPU_BASELINE_UNOPTIMIZED);
        let cpu_pak = by(&results, BackendId::CPU_PAK);
        let gpu = by(&results, BackendId::GPU_BASELINE);
        let nmp = by(&results, BackendId::NMP_PAK);
        let ideal_pe = by(&results, BackendId::NMP_IDEAL_PE);
        let ideal_fwd = by(&results, BackendId::NMP_IDEAL_FORWARDING);

        // Fig. 12's ordering: W/O SW-opt < CPU baseline < {CPU-PaK, GPU} < NMP ≤ ideal.
        assert!(unopt.speedup_over(baseline) < 1.0);
        assert!(cpu_pak.speedup_over(baseline) > 1.2);
        assert!(gpu.speedup_over(baseline) > 1.2);
        assert!(nmp.speedup_over(baseline) > cpu_pak.speedup_over(baseline));
        assert!(nmp.speedup_over(baseline) > gpu.speedup_over(baseline));
        assert!(
            nmp.speedup_over(baseline) > 5.0,
            "nmp speedup {}",
            nmp.speedup_over(baseline)
        );
        assert!(ideal_pe.speedup_over(baseline) >= nmp.speedup_over(baseline) * 0.95);
        assert!(ideal_fwd.speedup_over(baseline) >= nmp.speedup_over(baseline));
    }

    #[test]
    fn bandwidth_utilization_ordering() {
        let results = results();
        let cpu = by(&results, BackendId::CPU_BASELINE);
        let nmp = by(&results, BackendId::NMP_PAK);
        assert!(nmp.bandwidth_utilization() > 3.0 * cpu.bandwidth_utilization());
    }

    #[test]
    fn traffic_ordering_matches_fig14() {
        let results = results();
        let cpu = by(&results, BackendId::CPU_BASELINE);
        let cpu_pak = by(&results, BackendId::CPU_PAK);
        let nmp = by(&results, BackendId::NMP_PAK);
        let fwd = by(&results, BackendId::NMP_IDEAL_FORWARDING);
        // CPU-PaK and NMP-PaK share the optimized flow → identical traffic, below the baseline.
        assert_eq!(cpu_pak.traffic, nmp.traffic);
        assert!(nmp.traffic.read_bytes < cpu.traffic.read_bytes);
        assert!(nmp.traffic.write_bytes < cpu.traffic.write_bytes);
        // Ideal forwarding trims reads further but not writes.
        assert!(fwd.traffic.read_bytes < nmp.traffic.read_bytes);
        assert_eq!(fwd.traffic.write_bytes, nmp.traffic.write_bytes);
    }
}
