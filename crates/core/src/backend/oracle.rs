//! Two-pass reference replays of every backend, written the plainest way.
//!
//! Each function here walks an iteration's events once for the traffic
//! (`count_traffic`, every size through `NodeLayout::access_bytes`) and again
//! for its model, computing every per-size cost where it is used and every
//! slot's DIMM and PE by division: no table, no cursor, no fused counting. The
//! tests below hold every field of every `BackendRegistry::standard` result,
//! and of every `NmpSystem::simulate` result, to these bit for bit, on traces
//! the pinned results do not cover.

use super::{
    BackendId, BackendRegistry, BackendResult, SimulationContext, SystemConfig,
    UNOPTIMIZED_CPU_THREADS,
};
use nmp_pak_memsim::{
    CpuConfig, DramConfig, MemoryStats, NodeLayout, ProcessFlow, StallBreakdown, TrafficSummary,
    SIZE_TABLE_CAP,
};
use nmp_pak_nmphw::{
    ChannelLoadStats, CommStats, CrossbarSwitch, NetworkBridge, NmpConfig, NmpRunResult, NmpSystem,
    PeCycleModel,
};
use nmp_pak_pakman::trace::{IterationTrace, NodeCheck, TransferEvent, UpdateEvent};
use nmp_pak_pakman::{CompactionTrace, MailboxFlushStats, ShardingTelemetry};

/// The traffic of one iteration, counted in a pass of its own.
fn count_traffic(
    summary: &mut TrafficSummary,
    iteration: &IterationTrace,
    layout: &NodeLayout,
    flow: ProcessFlow,
) {
    fn read(summary: &mut TrafficSummary, requests: u64, bytes: u64) {
        summary.reads += requests;
        summary.read_bytes += bytes;
    }
    fn write(summary: &mut TrafficSummary, requests: u64, bytes: u64) {
        summary.writes += requests;
        summary.write_bytes += bytes;
    }
    let metadata_bytes = layout.access_bytes(64);
    let (mut check_bytes, mut invalidated, mut invalidated_bytes) = (0u64, 0u64, 0u64);
    for check in &iteration.checks {
        let bytes = layout.access_bytes(check.size_bytes as usize);
        check_bytes += bytes;
        if check.invalidated {
            invalidated += 1;
            invalidated_bytes += bytes;
        }
    }
    let updates = iteration.updates.iter();
    let update_bytes: u64 = updates
        .map(|u| layout.access_bytes(u.size_bytes as usize))
        .sum();
    let checks = iteration.checks.len() as u64;
    let updates = iteration.updates.len() as u64;

    read(summary, checks, check_bytes);
    write(summary, updates, update_bytes);
    match flow {
        ProcessFlow::Baseline => {
            write(summary, checks, checks * metadata_bytes);
            read(summary, checks, check_bytes);
            write(summary, invalidated, invalidated_bytes);
            read(summary, updates, update_bytes);
        }
        ProcessFlow::Optimized => {
            read(summary, invalidated, invalidated * metadata_bytes);
            read(summary, updates, update_bytes);
        }
        ProcessFlow::IdealForwarding => {
            read(summary, invalidated, invalidated * metadata_bytes);
        }
    }
}

fn memory(traffic: &TrafficSummary, line: usize, elapsed_ns: f64, peak: f64) -> MemoryStats {
    MemoryStats {
        read_lines: traffic.read_bytes / line as u64,
        write_lines: traffic.write_bytes / line as u64,
        read_bytes: traffic.read_bytes,
        write_bytes: traffic.write_bytes,
        elapsed_ns,
        peak_bandwidth_gbps: peak,
    }
}

fn result(id: BackendId, runtime_ns: f64, traffic: TrafficSummary) -> BackendResult {
    BackendResult {
        backend: id,
        label: "",
        runtime_ns,
        traffic,
        memory: MemoryStats::default(),
        stall: None,
        comm: None,
        capacity_exceeded: false,
    }
}

fn cpu(
    id: BackendId,
    trace: &CompactionTrace,
    layout: &NodeLayout,
    flow: ProcessFlow,
    dram: &DramConfig,
    cpu: &CpuConfig,
) -> BackendResult {
    let threads = cpu.threads.max(1);
    let read_passes = if flow == ProcessFlow::Baseline {
        2.0
    } else {
        1.0
    };
    let (mut runtime_ns, mut sync_ns) = (0.0f64, 0.0f64);
    let (mut base, mut branch, mut l3, mut dram_ns) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut traffic = TrafficSummary::default();
    for iteration in &trace.iterations {
        count_traffic(&mut traffic, iteration, layout, flow);
        let node_cost = |size_bytes: usize| -> (f64, f64, f64, f64) {
            let lines = (size_bytes as f64 / dram.line_bytes as f64).ceil().max(1.0);
            let dependent = cpu.dependent_accesses_per_node * cpu.dram_latency_ns;
            let streamed = lines
                * (cpu.l3_hit_rate * cpu.l3_latency_ns
                    + (1.0 - cpu.l3_hit_rate) * cpu.dram_latency_ns)
                / cpu.streaming_mlp;
            let l3_part = lines * cpu.l3_hit_rate * cpu.l3_latency_ns / cpu.streaming_mlp;
            let dram_part = (dependent + streamed - l3_part).max(0.0);
            let compute = size_bytes as f64 * cpu.compute_ns_per_byte;
            (compute, compute * cpu.branch_fraction, l3_part, dram_part)
        };
        let mut per_thread_busy = vec![0.0f64; threads];
        let chunk = iteration.checks.len().div_ceil(threads).max(1);
        for (t, nodes) in iteration.checks.chunks(chunk).enumerate() {
            for check in nodes {
                let (c, b, l, d) = node_cost(check.size_bytes as usize);
                per_thread_busy[t] += (c + b + l + d) * read_passes;
                base += c * read_passes;
                branch += b * read_passes;
                l3 += l * read_passes;
                dram_ns += d * read_passes;
            }
        }
        let chunk = iteration.updates.len().div_ceil(threads).max(1);
        for (t, updates) in iteration.updates.chunks(chunk).enumerate() {
            for update in updates {
                let (c, b, l, d) = node_cost(update.size_bytes as usize);
                per_thread_busy[t % threads] += c + b + l + d;
                base += c;
                branch += b;
                l3 += l;
                dram_ns += d;
            }
        }
        let locks = iteration.updates.len() as f64 * cpu.lock_overhead_ns;
        let iteration_time = per_thread_busy.iter().copied().fold(0.0f64, f64::max) + locks;
        runtime_ns += iteration_time;
        for busy in &per_thread_busy {
            sync_ns += (iteration_time - busy).max(0.0);
        }
    }
    let total = runtime_ns * threads as f64;
    let other = (total - (base + branch + l3 + dram_ns) - sync_ns).max(0.0);
    let norm = if total > 0.0 { total } else { 1.0 };
    let peak = dram.total_peak_bandwidth_gbps();
    BackendResult {
        memory: memory(&traffic, dram.line_bytes, runtime_ns, peak),
        stall: Some(StallBreakdown {
            base: base / norm,
            branch: branch / norm,
            mem_l3: l3 / norm,
            mem_dram: dram_ns / norm,
            sync_futex: sync_ns / norm,
            other: other / norm,
        }),
        ..result(id, runtime_ns, traffic)
    }
}

fn gpu(
    trace: &CompactionTrace,
    layout: &NodeLayout,
    config: &SystemConfig,
    ctx: &SimulationContext,
) -> BackendResult {
    let gpu = &config.gpu;
    let (mut traffic, mut runtime_ns) = (TrafficSummary::default(), 0.0f64);
    let effective_bw = (gpu.peak_bandwidth_gbps * gpu.irregular_efficiency).max(1e-9);
    for iteration in &trace.iterations {
        let before = traffic.total_bytes();
        count_traffic(&mut traffic, iteration, layout, ProcessFlow::Optimized);
        let bytes = (traffic.total_bytes() - before) as f64;
        runtime_ns += bytes / effective_bw + gpu.per_iteration_overhead_ns;
    }
    let line = config.dram.line_bytes;
    BackendResult {
        memory: memory(&traffic, line, runtime_ns, gpu.peak_bandwidth_gbps),
        capacity_exceeded: !gpu.fits(ctx.footprint_bytes),
        ..result(BackendId::GPU_BASELINE, runtime_ns, traffic)
    }
}

fn nmp(
    nmp: &NmpConfig,
    config: &SystemConfig,
    trace: &CompactionTrace,
    layout: &NodeLayout,
    load: Option<&ChannelLoadStats>,
) -> NmpRunResult {
    let (dram, host) = (&config.dram, &config.cpu);
    let channels = dram.channels.max(1);
    let measured_shares: Option<Vec<f64>> = load.and_then(|stats| {
        let mut shares = vec![0.0f64; channels];
        for (ch, &work) in stats.work_per_channel.iter().enumerate() {
            shares[ch % channels] += work as f64;
        }
        let total: f64 = shares.iter().sum();
        (total > 0.0).then(|| shares.iter().map(|s| s / total).collect())
    });
    let measured_cross_fraction = load.map(ChannelLoadStats::cross_channel_fraction);
    let pe_model = PeCycleModel::from_config(nmp);
    let crossbar = CrossbarSwitch::new(nmp.pes_per_channel);
    let bridge = NetworkBridge::new(channels, nmp.bridge_bandwidth_gbps);
    let flow = if nmp.ideal_forwarding {
        ProcessFlow::IdealForwarding
    } else {
        ProcessFlow::Optimized
    };
    let channel_bandwidth_gbps = dram.channel_peak_bandwidth_gbps();
    let offload_ns = |size_bytes: usize| {
        let lines = (size_bytes as f64 / dram.line_bytes as f64).ceil();
        let mem = host.dependent_accesses_per_node * host.dram_latency_ns
            + lines * host.dram_latency_ns / host.streaming_mlp;
        mem + size_bytes as f64 * host.compute_ns_per_byte
    };

    let mut runtime_ns = 0.0f64;
    let mut traffic = TrafficSummary::default();
    let mut comm = CommStats::default();
    let (mut offloaded_nodes, mut total_nodes, mut cpu_bound_iterations) = (0u64, 0u64, 0usize);
    for iteration in &trace.iterations {
        count_traffic(&mut traffic, iteration, layout, flow);
        total_nodes += iteration.checks.len() as u64;
        let mut channel_bytes = vec![0u64; channels];
        let pes = nmp.pes_per_channel.max(1);
        let mut pe_cycles = vec![vec![0u64; pes]; channels];
        let mut cpu_ns = 0.0f64;
        for check in &iteration.checks {
            if check.size_bytes as usize > nmp.cpu_offload_threshold_bytes {
                offloaded_nodes += 1;
                cpu_ns += offload_ns(check.size_bytes as usize);
                continue;
            }
            let dimm = layout.dimm_of(check.slot as usize);
            let pe = layout.pe_of(check.slot as usize, pes);
            channel_bytes[dimm] += check.size_bytes as u64;
            pe_cycles[dimm][pe] += pe_model
                .node_cycles(check.size_bytes as usize, check.invalidated)
                .total();
        }
        for update in &iteration.updates {
            let dimm = layout.dimm_of(update.dest_slot as usize);
            let pe = layout.pe_of(update.dest_slot as usize, pes);
            let copies = if nmp.ideal_forwarding { 1 } else { 2 };
            channel_bytes[dimm] += copies * update.size_bytes as u64;
            pe_cycles[dimm][pe] += pe_model.p3_cycles(64, update.size_bytes as usize);
        }
        let mut crossbar_port_bytes = vec![0u64; pes];
        let mut bridge_out_bytes = vec![0u64; channels];
        for transfer in &iteration.transfers {
            let (source, dest) = (transfer.source_slot as usize, transfer.dest_slot as usize);
            let src_dimm = layout.dimm_of(source);
            let dst_dimm = layout.dimm_of(dest);
            let src_pe = layout.pe_of(source, pes);
            let dst_pe = layout.pe_of(dest, pes);
            if src_dimm != dst_dimm {
                comm.cross_dimm += 1;
                bridge_out_bytes[src_dimm] += transfer.size_bytes as u64;
            } else if src_pe == dst_pe {
                comm.same_pe += 1;
            } else {
                comm.cross_pe_same_dimm += 1;
                crossbar_port_bytes[dst_pe] += transfer.size_bytes as u64;
            }
        }
        if let Some(shares) = &measured_shares {
            let total_bytes: u64 = channel_bytes.iter().sum();
            let total_cycles: u64 = pe_cycles.iter().flatten().sum();
            for ch in 0..channels {
                channel_bytes[ch] = (total_bytes as f64 * shares[ch]).round() as u64;
                let ch_cycles = (total_cycles as f64 * shares[ch]).round() as u64;
                pe_cycles[ch].fill(ch_cycles.div_ceil(pes as u64));
            }
            let payload: u64 =
                crossbar_port_bytes.iter().sum::<u64>() + bridge_out_bytes.iter().sum::<u64>();
            let cross = (payload as f64 * measured_cross_fraction.unwrap_or(0.0)).round() as u64;
            let intra = payload.saturating_sub(cross);
            for ch in 0..channels {
                bridge_out_bytes[ch] = (cross as f64 * shares[ch]).round() as u64;
            }
            crossbar_port_bytes.fill(intra.div_ceil(pes as u64));
        }
        let mut nmp_time_ns = 0.0f64;
        for ch in 0..channels {
            let latency = if channel_bytes[ch] > 0 {
                nmp.near_memory_latency_ns
            } else {
                0.0
            };
            let stream_ns = channel_bytes[ch] as f64 / channel_bandwidth_gbps + latency;
            let compute_ns = pe_cycles[ch]
                .iter()
                .map(|&c| pe_model.cycles_to_ns(c))
                .fold(0.0f64, f64::max);
            nmp_time_ns = nmp_time_ns.max(stream_ns.max(compute_ns));
        }
        let interconnect_ns = crossbar
            .route_ns(&crossbar_port_bytes)
            .max(bridge.iteration_ns(&bridge_out_bytes));
        let nmp_time_ns = nmp_time_ns.max(interconnect_ns);
        let cpu_time_ns = cpu_ns / host.threads.max(1) as f64;
        if cpu_time_ns > nmp_time_ns {
            cpu_bound_iterations += 1;
        }
        runtime_ns += nmp_time_ns.max(cpu_time_ns) + nmp.iteration_sync_ns;
    }
    let peak = dram.total_peak_bandwidth_gbps();
    NmpRunResult {
        runtime_ns,
        traffic,
        memory: memory(&traffic, dram.line_bytes, runtime_ns, peak),
        comm,
        cpu_offload_fraction: if total_nodes == 0 {
            0.0
        } else {
            offloaded_nodes as f64 / total_nodes as f64
        },
        cpu_bound_iteration_fraction: if trace.iterations.is_empty() {
            0.0
        } else {
            cpu_bound_iterations as f64 / trace.iterations.len() as f64
        },
    }
}

/// The three NMP configurations of `config`, in registry order.
fn nmp_configs(config: &SystemConfig) -> [(BackendId, NmpConfig); 3] {
    [
        (BackendId::NMP_PAK, config.nmp),
        (
            BackendId::NMP_IDEAL_PE,
            NmpConfig {
                pe_variant: nmp_pak_nmphw::PeVariant::Ideal,
                ..config.nmp
            },
        ),
        (
            BackendId::NMP_IDEAL_FORWARDING,
            NmpConfig {
                ideal_forwarding: true,
                ..config.nmp
            },
        ),
    ]
}

/// Every result of `BackendRegistry::standard(config)`, replayed in two passes.
fn standard(
    trace: &CompactionTrace,
    layout: &NodeLayout,
    config: &SystemConfig,
    ctx: &SimulationContext,
) -> Vec<BackendResult> {
    let host = |threads| CpuConfig {
        threads,
        ..config.cpu
    };
    let unoptimized = host(UNOPTIMIZED_CPU_THREADS);
    let dram = &config.dram;
    let mut results = vec![
        cpu(
            BackendId::CPU_BASELINE_UNOPTIMIZED,
            trace,
            layout,
            ProcessFlow::Baseline,
            dram,
            &unoptimized,
        ),
        cpu(
            BackendId::CPU_BASELINE,
            trace,
            layout,
            ProcessFlow::Baseline,
            dram,
            &config.cpu,
        ),
        gpu(trace, layout, config, ctx),
        cpu(
            BackendId::CPU_PAK,
            trace,
            layout,
            ProcessFlow::Optimized,
            dram,
            &config.cpu,
        ),
    ];
    let system = NmpSystem::new(config.nmp, config.dram, config.cpu);
    let load = ctx
        .sharding
        .as_ref()
        .map(|telemetry| system.channel_load_from_sharding(telemetry));
    for (id, nmp_config) in nmp_configs(config) {
        let r = nmp(&nmp_config, config, trace, layout, load.as_ref());
        results.push(BackendResult {
            memory: r.memory,
            comm: Some(r.comm),
            ..result(id, r.runtime_ns, r.traffic)
        });
    }
    results
}

/// Every simulated field of a result; f64s by their bits.
fn fields(r: &BackendResult) -> Vec<u64> {
    let (t, m) = (r.traffic, r.memory);
    let mut words = vec![r.runtime_ns.to_bits(), t.reads, t.writes, t.read_bytes];
    words.extend([
        t.write_bytes,
        m.read_lines,
        m.write_lines,
        m.read_bytes,
        m.write_bytes,
    ]);
    words.extend([m.elapsed_ns, m.peak_bandwidth_gbps].map(f64::to_bits));
    words.push(u64::from(r.capacity_exceeded));
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
    if let Some(c) = r.comm {
        words.extend([c.same_pe, c.cross_pe_same_dimm, c.cross_dimm]);
    }
    words
}

/// Every field of an `NmpSystem::simulate` result; f64s by their bits.
fn nmp_fields(r: &NmpRunResult) -> Vec<u64> {
    let fractions = [r.cpu_offload_fraction, r.cpu_bound_iteration_fraction];
    let mut words = fields(&BackendResult {
        memory: r.memory,
        comm: Some(r.comm),
        ..result(BackendId::NMP_PAK, r.runtime_ns, r.traffic)
    });
    words.extend(fractions.map(f64::to_bits));
    words
}

/// A uniform context, and one measured on 12 shards with shard 0 doing 3×
/// the work and a third of the mailbox bytes channel-local: the NMP models'
/// measured-placement path.
fn contexts() -> Vec<SimulationContext> {
    let flush = |dst, bytes| MailboxFlushStats {
        src: 0,
        dst,
        src_iteration: 0,
        transfers: 1,
        bytes,
    };
    let mut checked_per_shard = vec![1_000u64; 12];
    checked_per_shard[0] = 3_000;
    let sharded = SimulationContext::new(1 << 30).with_sharding(ShardingTelemetry {
        shard_count: 12,
        initial_alive_per_shard: vec![100; 12],
        final_alive_per_shard: vec![50; 12],
        checked_per_shard,
        flushes: vec![flush(8, 1_000), flush(1, 2_000)],
    });
    vec![SimulationContext::new(1 << 30), sharded]
}

/// Holds every backend of `config` to its two-pass replay on `trace`, under
/// each of `contexts`.
fn assert_matches_oracle(
    case: &str,
    trace: &CompactionTrace,
    config: &SystemConfig,
    contexts: &[SimulationContext],
) {
    let layout = NodeLayout::new(&trace.initial_sizes, &config.dram);
    let registry = BackendRegistry::standard(config);
    for (c, ctx) in contexts.iter().enumerate() {
        let got = registry.simulate_all(trace, &layout, ctx);
        let want = standard(trace, &layout, config, ctx);
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(&want) {
            assert_eq!(got.backend, want.backend);
            let id = got.backend;
            assert_eq!(fields(got), fields(want), "{id} on {case}, context {c}");
        }

        let system = NmpSystem::new(config.nmp, config.dram, config.cpu);
        let load = ctx
            .sharding
            .as_ref()
            .map(|telemetry| system.channel_load_from_sharding(telemetry));
        for (id, nmp_config) in nmp_configs(config) {
            let system = NmpSystem::new(nmp_config, config.dram, config.cpu);
            let got = system.simulate(trace, &layout, load.as_ref());
            let want = nmp(&nmp_config, config, trace, &layout, load.as_ref());
            assert_eq!(
                nmp_fields(&got),
                nmp_fields(&want),
                "{id} run result on {case}, context {c}"
            );
        }
    }
}

/// The machines the traces replay on: the default, 16 and 24 PEs per
/// channel, 128-byte lines, three DIMMs, and a 7-thread host.
fn configs() -> Vec<(&'static str, SystemConfig)> {
    let default = SystemConfig::default();
    vec![
        ("default", default),
        (
            "16 PEs",
            SystemConfig {
                nmp: NmpConfig::sixteen_pes(),
                ..default
            },
        ),
        (
            "24 PEs",
            SystemConfig {
                nmp: NmpConfig {
                    pes_per_channel: 24,
                    ..NmpConfig::default()
                },
                ..default
            },
        ),
        (
            "128 B lines",
            SystemConfig {
                dram: DramConfig {
                    line_bytes: 128,
                    ..DramConfig::default()
                },
                ..default
            },
        ),
        (
            "3 DIMMs, 7 threads",
            SystemConfig {
                dram: DramConfig {
                    channels: 3,
                    ..DramConfig::default()
                },
                cpu: CpuConfig {
                    threads: 7,
                    ..CpuConfig::default()
                },
                ..default
            },
        ),
    ]
}

/// Node sizes at, below and above the 1 KiB offload threshold and the table
/// cap, the empty node, and a few line edges.
const EDGE_SIZES: [usize; 14] = [
    0,
    1,
    63,
    64,
    65,
    112,
    1_023,
    1_024,
    1_025,
    SIZE_TABLE_CAP - 1,
    SIZE_TABLE_CAP,
    SIZE_TABLE_CAP + 1,
    3 * SIZE_TABLE_CAP + 5,
    40_000,
];

/// A trace over 2 000 slots whose checks skip slots by gaps shorter and
/// longer than a PE row, whose sizes cycle through [`EDGE_SIZES`], whose
/// updates come in a scrambled (first-touch-like) order, whose transfer
/// sources repeat, and whose third iteration is empty.
fn edge_trace() -> CompactionTrace {
    let slots = 2_000usize;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let sizes: Vec<usize> = (0..slots).map(|_| 64 + next(400)).collect();
    let mut trace = CompactionTrace::new(slots, sizes);
    for it in 0..5 {
        if it == 2 {
            trace.iterations.push(IterationTrace::default());
            continue;
        }
        let mut checks = Vec::new();
        let mut slot = next(3);
        while slot < slots {
            let size_bytes = EDGE_SIZES[next(EDGE_SIZES.len())];
            checks.push(NodeCheck::new(slot, size_bytes, next(4) == 0));
            slot += [1, 1, 2, 5, 31, 32, 33, 70, 300][next(9)];
        }
        let mut transfers = Vec::new();
        for check in checks.iter().filter(|c| c.invalidated) {
            let source_slot = check.slot as usize;
            for _ in 0..next(3) {
                // Half the destinations near the source, so some share its
                // DIMM and PE.
                let dest_slot = if next(2) == 0 {
                    (source_slot + next(64)).min(slots - 1)
                } else {
                    next(slots)
                };
                let size_bytes = EDGE_SIZES[next(EDGE_SIZES.len())];
                transfers.push(TransferEvent::new(source_slot, dest_slot, size_bytes));
            }
        }
        let mut updates: Vec<UpdateEvent> = transfers
            .iter()
            .map(|t| UpdateEvent::new(t.dest_slot as usize, EDGE_SIZES[next(EDGE_SIZES.len())]))
            .collect();
        for i in (1..updates.len()).rev() {
            updates.swap(i, next(i + 1));
        }
        trace.iterations.push(IterationTrace {
            checks,
            transfers,
            updates,
        });
    }
    trace
}

#[test]
fn oracle_every_backend_matches_its_two_pass_replay_on_edge_sizes_and_gaps() {
    let trace = edge_trace();
    for (name, config) in configs() {
        let case = format!("the edge trace, {name}");
        assert_matches_oracle(&case, &trace, &config, &contexts());
    }
}

#[test]
fn oracle_every_backend_matches_its_two_pass_replay_on_traced_assemblies() {
    use nmp_pak_pakman::{PakmanAssembler, PakmanConfig, ShardConfig};
    let reads = crate::Workload::tiny(5).unwrap().reads;
    let pakman = crate::NmpPakAssembler::default().pakman;
    for shards in [ShardConfig::default(), ShardConfig::per_channel(8)] {
        let config = PakmanConfig { shards, ..pakman };
        let run = PakmanAssembler::new(config).assemble(&reads).unwrap();
        let trace = run.trace.as_ref().expect("the assembler records a trace");
        // A real trace skips the slots that compaction removed and lists its
        // updates in first-touch order.
        assert!(trace
            .iterations
            .iter()
            .any(|i| i.checks.len() < trace.slot_count));
        let mut contexts = contexts();
        contexts.push(crate::NmpPakAssembler::context_for(&run));
        for (name, config) in configs() {
            let case = format!("a traced assembly ({} shards), {name}", shards.shard_count);
            assert_matches_oracle(&case, trace, &config, &contexts);
        }
    }
}
