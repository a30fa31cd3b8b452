//! Full-system NMP-PaK simulation.
//!
//! [`NmpSystem::simulate`] folds a compaction trace through the hardware model in
//! one pass over its events: every iteration, the MacroNodes resident in each DIMM are streamed through that
//! DIMM's PE array (stage P1/P2), TransferNodes are routed through the crossbar or the
//! network bridge, destination nodes are updated in their home DIMM (stage P3), and
//! oversized nodes are processed by the host CPU in parallel (hybrid processing,
//! §4.3). The per-iteration time is the maximum over the parallel resources —
//! channel DRAM bandwidth, PE compute, bridge links and the CPU-offload slice — plus
//! the iteration-lock-step synchronization.

use crate::bridge::NetworkBridge;
use crate::config::NmpConfig;
use crate::crossbar::CrossbarSwitch;
use crate::mapping::ShardChannelMap;
use crate::pe::PeCycleModel;
use nmp_pak_memsim::{
    CpuConfig, DramConfig, IterationTraffic, MemoryStats, NodeLayout, ProcessFlow, SizeTable,
    SlotCursor, TrafficSummary,
};
use nmp_pak_pakman::{CompactionTrace, ShardingTelemetry};

/// Communication-locality statistics for TransferNode routing (§6.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Transfers whose source and destination are handled by the same PE.
    pub same_pe: u64,
    /// Transfers between different PEs of the same DIMM (crossbar traffic).
    pub cross_pe_same_dimm: u64,
    /// Transfers between DIMMs (network-bridge traffic).
    pub cross_dimm: u64,
}

impl CommStats {
    /// Total transfers routed.
    pub fn total(&self) -> u64 {
        self.same_pe + self.cross_pe_same_dimm + self.cross_dimm
    }

    /// Fraction of transfers that stay within one DIMM.
    pub fn intra_dimm_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.same_pe + self.cross_pe_same_dimm) as f64 / total as f64
    }

    /// Fraction of transfers that cross DIMMs.
    pub fn inter_dimm_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.cross_dimm as f64 / total as f64
    }

    /// Among intra-DIMM transfers, the fraction that needs the crossbar (different PE).
    pub fn cross_pe_fraction_of_intra(&self) -> f64 {
        let intra = self.same_pe + self.cross_pe_same_dimm;
        if intra == 0 {
            return 0.0;
        }
        self.cross_pe_same_dimm as f64 / intra as f64
    }
}

/// Result of one NMP-PaK simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct NmpRunResult {
    /// Simulated Iterative Compaction runtime in nanoseconds.
    pub runtime_ns: f64,
    /// DRAM traffic under the (optionally ideal-forwarding) optimized flow.
    pub traffic: TrafficSummary,
    /// Memory statistics over the run (achieved bandwidth, utilization).
    pub memory: MemoryStats,
    /// TransferNode routing locality.
    pub comm: CommStats,
    /// Fraction of MacroNode visits offloaded to the CPU by the hybrid runtime.
    pub cpu_offload_fraction: f64,
    /// Fraction of iterations in which the CPU-offload slice, not the NMP side,
    /// bounded the iteration time (should be small: the offload overlaps).
    pub cpu_bound_iteration_fraction: f64,
}

impl NmpRunResult {
    /// Fraction of peak DRAM bandwidth achieved.
    pub fn bandwidth_utilization(&self) -> f64 {
        self.memory.bandwidth_utilization()
    }
}

/// Per-channel load and traffic derived from **measured** sharded-execution
/// telemetry, replacing the uniform-work assumption: each owner-computes shard
/// folds onto one channel ([`ShardChannelMap`]), per-channel work is the summed
/// P1 evaluations of the shards it hosts, and cross-channel bytes come from the
/// mailbox's flush ledger — only bytes whose source and destination shards land
/// on *different channels* count as bridge traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelLoadStats {
    /// The shard → channel mapping used.
    pub map: ShardChannelMap,
    /// P1 predicate evaluations hosted per channel (measured work).
    pub work_per_channel: Vec<u64>,
    /// Final alive MacroNodes resident per channel.
    pub resident_per_channel: Vec<u64>,
    /// Mailbox bytes that crossed channels (network-bridge traffic).
    pub cross_channel_bytes: u64,
    /// Mailbox bytes that stayed within one channel (crossbar / local traffic,
    /// including shard-to-shard traffic folded onto the same channel).
    pub intra_channel_bytes: u64,
}

impl ChannelLoadStats {
    /// Max-over-mean load imbalance across *occupied* channels (1.0 = perfectly
    /// balanced). The per-iteration lock-step (§4.3) means the slowest channel
    /// paces every iteration, so this factor stretches the critical path.
    pub fn imbalance(&self) -> f64 {
        let occupied: Vec<u64> = self
            .work_per_channel
            .iter()
            .copied()
            .filter(|&w| w > 0)
            .collect();
        let total: u64 = occupied.iter().sum();
        if occupied.is_empty() || total == 0 {
            return 1.0;
        }
        let mean = total as f64 / occupied.len() as f64;
        let max = occupied.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Fraction of mailbox bytes that crossed channels.
    pub fn cross_channel_fraction(&self) -> f64 {
        let total = self.cross_channel_bytes + self.intra_channel_bytes;
        if total == 0 {
            return 0.0;
        }
        self.cross_channel_bytes as f64 / total as f64
    }
}

/// What [`NmpSystem::simulate`] charges a node of one size, tabulated per size.
#[derive(Debug, Clone, Copy)]
struct NodeSizeCost {
    /// Bytes a DRAM access to the node moves (whole lines).
    access_bytes: u64,
    /// PE cycles of a check that keeps the node.
    kept_cycles: u64,
    /// PE cycles of a check that invalidates the node.
    invalidated_cycles: u64,
    /// PE cycles of a P3 update of a destination of this size.
    update_cycles: u64,
    /// Host time of the node when it is offloaded to the CPU.
    offload_ns: f64,
}

/// The NMP-PaK system simulator.
#[derive(Debug, Clone)]
pub struct NmpSystem {
    nmp: NmpConfig,
    dram: DramConfig,
    cpu: CpuConfig,
}

impl NmpSystem {
    /// Creates a system with the given NMP, DRAM and host-CPU configurations.
    pub fn new(nmp: NmpConfig, dram: DramConfig, cpu: CpuConfig) -> Self {
        NmpSystem { nmp, dram, cpu }
    }

    /// Folds measured sharded-execution telemetry onto this system's channels:
    /// per-channel work and residency from the per-shard ledgers, and the
    /// mailbox's flush ledger split, in one pass, into intra- versus
    /// cross-channel traffic. This is the hardware-facing view of the owner-computes
    /// decomposition — load imbalance and cross-channel bytes are *measured*,
    /// not assumed uniform.
    pub fn channel_load_from_sharding(&self, telemetry: &ShardingTelemetry) -> ChannelLoadStats {
        let channels = self.dram.channels.max(1);
        let map = ShardChannelMap::new(telemetry.shard_count, channels);
        let mut work_per_channel = vec![0u64; channels];
        for (shard, &checked) in telemetry.checked_per_shard.iter().enumerate() {
            work_per_channel[map.channel_of(shard)] += checked;
        }
        let mut resident_per_channel = vec![0u64; channels];
        for (shard, &alive) in telemetry.final_alive_per_shard.iter().enumerate() {
            resident_per_channel[map.channel_of(shard)] += alive as u64;
        }
        let mut cross_channel_bytes = 0u64;
        let mut intra_channel_bytes = 0u64;
        for flush in &telemetry.flushes {
            if map.channel_of(flush.src) == map.channel_of(flush.dst) {
                intra_channel_bytes += flush.bytes;
            } else {
                cross_channel_bytes += flush.bytes;
            }
        }
        ChannelLoadStats {
            map,
            work_per_channel,
            resident_per_channel,
            cross_channel_bytes,
            intra_channel_bytes,
        }
    }

    /// Simulates the compaction trace in one pass over its events, returning
    /// runtime and statistics. The DRAM traffic is counted in the same loops
    /// that charge the channels and PEs; every per-size cost comes from a
    /// [`SizeTable`], and the checks' (ascending) slots find their DIMM and
    /// PE with a [`SlotCursor`].
    ///
    /// Without `load` this is the uniform-placement model: every byte and PE
    /// cycle is attributed to the channel the slot-interleaved [`NodeLayout`]
    /// assigns it to. With `load` (from
    /// [`NmpSystem::channel_load_from_sharding`]) the *aggregate* per-iteration
    /// work is redistributed by the measured owner-computes decomposition
    /// instead:
    ///
    /// * check/update bytes and PE cycles land on channels in proportion to
    ///   each channel's measured share of P1 work, so the measured imbalance —
    ///   not the interleaved layout — paces the lock-step iteration;
    /// * interconnect payload bytes split into bridge (cross-channel) versus
    ///   crossbar (intra-channel) traffic by the measured
    ///   [`ChannelLoadStats::cross_channel_fraction`].
    ///
    /// Totals are conserved: the same bytes and cycles are simulated either
    /// way, only their placement changes. DRAM [`TrafficSummary`] accounting
    /// and the [`CommStats`] routing *counts* stay layout-based — they
    /// describe the trace, not the placement.
    ///
    /// Hybrid processing (§4.3): a node larger than
    /// [`NmpConfig::cpu_offload_threshold_bytes`] is processed by the host CPU
    /// instead of a PE, overlapped with the NMP side of its iteration.
    pub fn simulate(
        &self,
        trace: &CompactionTrace,
        layout: &NodeLayout,
        load: Option<&ChannelLoadStats>,
    ) -> NmpRunResult {
        let channels = self.dram.channels.max(1);
        // Measured per-channel work shares, normalized over `channels` slots.
        // A telemetry channel count differing from ours (a different system
        // config than the one that produced the stats) folds modulo ours.
        let measured_shares: Option<Vec<f64>> = load.and_then(|stats| {
            let mut shares = vec![0.0f64; channels];
            for (ch, &work) in stats.work_per_channel.iter().enumerate() {
                shares[ch % channels] += work as f64;
            }
            let total: f64 = shares.iter().sum();
            if total > 0.0 {
                shares.iter_mut().for_each(|s| *s /= total);
                Some(shares)
            } else {
                None
            }
        });
        let measured_cross_fraction = load.map(ChannelLoadStats::cross_channel_fraction);
        let pe_model = PeCycleModel::from_config(&self.nmp);
        let crossbar = CrossbarSwitch::new(self.nmp.pes_per_channel);
        let bridge = NetworkBridge::new(channels, self.nmp.bridge_bandwidth_gbps);
        let flow = if self.nmp.ideal_forwarding {
            ProcessFlow::IdealForwarding
        } else {
            ProcessFlow::Optimized
        };
        // Internal bandwidth available to the PEs of one buffer chip (one DIMM's
        // DDR4-3200 interface).
        let channel_bandwidth_gbps = self.dram.channel_peak_bandwidth_gbps();
        let pes = self.nmp.pes_per_channel.max(1);
        let sizes = SizeTable::new(|size| NodeSizeCost {
            access_bytes: layout.access_bytes(size),
            kept_cycles: pe_model.node_cycles(size, false).total(),
            invalidated_cycles: pe_model.node_cycles(size, true).total(),
            update_cycles: pe_model.p3_cycles(64, size),
            offload_ns: self.cpu_offload_ns(size),
        });

        let mut runtime_ns = 0.0f64;
        let mut traffic = TrafficSummary::default();
        let mut comm = CommStats::default();
        let mut offloaded_nodes = 0u64;
        let mut total_nodes = 0u64;
        let mut cpu_bound_iterations = 0usize;
        // Per-channel bytes and per-(channel, PE) cycles of one iteration,
        // `pe_cycles[ch * pes + pe]`; cleared at the start of each iteration.
        let mut channel_bytes = vec![0u64; channels];
        let mut pe_cycles = vec![0u64; channels * pes];
        let mut crossbar_port_bytes = vec![0u64; pes];
        let mut bridge_out_bytes = vec![0u64; channels];

        for iteration in &trace.iterations {
            let mut counts = IterationTraffic::new(iteration);
            total_nodes += iteration.checks.len() as u64;
            channel_bytes.fill(0);
            pe_cycles.fill(0);
            crossbar_port_bytes.fill(0);
            bridge_out_bytes.fill(0);

            // --- NMP side: per-channel byte and PE-compute accounting -------------
            // Oversized nodes go to the CPU slice instead; their host time is
            // summed in check order. The checks come in ascending slot order,
            // so a cursor finds their DIMM and PE.
            let mut cpu_ns = 0.0f64;
            let mut slots = SlotCursor::new(layout, pes);
            for check in &iteration.checks {
                let cost = sizes.get(check.size_bytes as usize);
                counts.check(cost.access_bytes, check.invalidated);
                if check.size_bytes as usize > self.nmp.cpu_offload_threshold_bytes {
                    offloaded_nodes += 1;
                    cpu_ns += cost.offload_ns;
                    continue;
                }
                let (dimm, pe) = slots.locate(check.slot as usize);
                channel_bytes[dimm] += check.size_bytes as u64;
                pe_cycles[dimm * pes + pe] += if check.invalidated {
                    cost.invalidated_cycles
                } else {
                    cost.kept_cycles
                };
            }

            // Destination updates: read-modify-write in the destination's DIMM, plus
            // P3 compute on the destination's PE.
            for update in &iteration.updates {
                let cost = sizes.get(update.size_bytes as usize);
                counts.update(cost.access_bytes);
                let dimm = layout.dimm_of(update.dest_slot as usize);
                let pe = layout.pe_of(update.dest_slot as usize, pes);
                let bytes = if self.nmp.ideal_forwarding {
                    update.size_bytes as u64 // write-back only
                } else {
                    2 * update.size_bytes as u64 // read + write
                };
                channel_bytes[dimm] += bytes;
                pe_cycles[dimm * pes + pe] += cost.update_cycles;
            }
            traffic.add_iteration(counts, layout, flow);

            // TransferNode routing locality and interconnect payloads. Sources
            // come in check order too; a destination needs its own PE only
            // when it shares the source's DIMM.
            let mut sources = SlotCursor::new(layout, pes);
            for transfer in &iteration.transfers {
                let (src_dimm, src_pe) = sources.locate(transfer.source_slot as usize);
                if sources.in_dimm(transfer.dest_slot as usize) {
                    let dst_pe = layout.pe_of(transfer.dest_slot as usize, pes);
                    if src_pe == dst_pe {
                        comm.same_pe += 1;
                    } else {
                        comm.cross_pe_same_dimm += 1;
                        crossbar_port_bytes[dst_pe] += transfer.size_bytes as u64;
                    }
                } else {
                    comm.cross_dimm += 1;
                    bridge_out_bytes[src_dimm] += transfer.size_bytes as u64;
                }
            }

            // Measured placement: redistribute the iteration's aggregate work by
            // the owner-computes channel shares, and re-split interconnect
            // payload by the measured cross-channel byte fraction. Totals are
            // conserved; only where the work lands changes.
            if let Some(shares) = &measured_shares {
                let total_bytes: u64 = channel_bytes.iter().sum();
                let total_cycles: u64 = pe_cycles.iter().sum();
                for ch in 0..channels {
                    channel_bytes[ch] = (total_bytes as f64 * shares[ch]).round() as u64;
                    // The telemetry has no per-PE resolution: a channel's
                    // measured compute spreads evenly over its PE array, so the
                    // per-PE max the timing model takes is the even share.
                    let ch_cycles = (total_cycles as f64 * shares[ch]).round() as u64;
                    pe_cycles[ch * pes..][..pes].fill(ch_cycles.div_ceil(pes as u64));
                }
                let payload: u64 =
                    crossbar_port_bytes.iter().sum::<u64>() + bridge_out_bytes.iter().sum::<u64>();
                let fraction = measured_cross_fraction.unwrap_or(0.0);
                let cross = (payload as f64 * fraction).round() as u64;
                let intra = payload.saturating_sub(cross);
                for ch in 0..channels {
                    bridge_out_bytes[ch] = (cross as f64 * shares[ch]).round() as u64;
                }
                crossbar_port_bytes.fill(intra.div_ceil(pes as u64));
            }

            // Per-channel time: the DIMM interface streams the bytes while the PEs
            // compute; whichever is longer bounds the channel.
            let mut nmp_time_ns = 0.0f64;
            for ch in 0..channels {
                let stream_ns = channel_bytes[ch] as f64 / channel_bandwidth_gbps
                    + if channel_bytes[ch] > 0 {
                        self.nmp.near_memory_latency_ns
                    } else {
                        0.0
                    };
                let compute_ns = pe_cycles[ch * pes..][..pes]
                    .iter()
                    .map(|&c| pe_model.cycles_to_ns(c))
                    .fold(0.0f64, f64::max);
                nmp_time_ns = nmp_time_ns.max(stream_ns.max(compute_ns));
            }
            let interconnect_ns = crossbar
                .route_ns(&crossbar_port_bytes)
                .max(bridge.iteration_ns(&bridge_out_bytes));
            let nmp_time_ns = nmp_time_ns.max(interconnect_ns);

            // --- CPU-offload slice (overlapped with the NMP side) -----------------
            let cpu_time_ns = cpu_ns / self.cpu.threads.max(1) as f64;
            if cpu_time_ns > nmp_time_ns {
                cpu_bound_iterations += 1;
            }

            runtime_ns += nmp_time_ns.max(cpu_time_ns) + self.nmp.iteration_sync_ns;
        }

        let memory = MemoryStats {
            read_lines: traffic.read_bytes / self.dram.line_bytes as u64,
            write_lines: traffic.write_bytes / self.dram.line_bytes as u64,
            read_bytes: traffic.read_bytes,
            write_bytes: traffic.write_bytes,
            elapsed_ns: runtime_ns,
            peak_bandwidth_gbps: self.dram.total_peak_bandwidth_gbps(),
        };

        NmpRunResult {
            runtime_ns,
            traffic,
            memory,
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

    /// Single-thread host time to process one offloaded MacroNode.
    fn cpu_offload_ns(&self, size_bytes: usize) -> f64 {
        let lines = (size_bytes as f64 / self.dram.line_bytes as f64).ceil();
        let mem = self.cpu.dependent_accesses_per_node * self.cpu.dram_latency_ns
            + lines * self.cpu.dram_latency_ns / self.cpu.streaming_mlp;
        let compute = size_bytes as f64 * self.cpu.compute_ns_per_byte;
        mem + compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeVariant;
    use nmp_pak_pakman::trace::{IterationTrace, NodeCheck, TransferEvent, UpdateEvent};

    /// A synthetic trace with a skewed size distribution and uniformly random
    /// destinations, like real compaction behaviour.
    fn synthetic_trace(nodes: usize, iterations: usize) -> (CompactionTrace, NodeLayout) {
        let sizes: Vec<usize> = (0..nodes)
            .map(|i| {
                if i % 97 == 0 {
                    6_000
                } else {
                    200 + (i % 9) * 90
                }
            })
            .collect();
        let mut trace = CompactionTrace::new(nodes, sizes.clone());
        for it in 0..iterations {
            let alive = nodes - it * (nodes / (iterations + 1));
            let checks: Vec<NodeCheck> = (0..alive)
                .map(|slot| NodeCheck::new(slot, sizes[slot], slot % 5 == 2))
                .collect();
            let transfers: Vec<TransferEvent> = checks
                .iter()
                .filter(|c| c.invalidated)
                .flat_map(|c| {
                    let slot = c.slot as usize;
                    let d1 = (slot.wrapping_mul(7919) + 3) % alive.max(1);
                    let d2 = (slot.wrapping_mul(104_729) + 11) % alive.max(1);
                    [
                        TransferEvent::new(slot, d1, 48),
                        TransferEvent::new(slot, d2, 48),
                    ]
                })
                .collect();
            let updates: Vec<UpdateEvent> = transfers
                .iter()
                .map(|t| UpdateEvent::new(t.dest_slot as usize, sizes[t.dest_slot as usize] + 32))
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

    fn system(nmp: NmpConfig) -> NmpSystem {
        NmpSystem::new(nmp, DramConfig::default(), CpuConfig::default())
    }

    #[test]
    fn nmp_is_much_faster_than_the_cpu_model() {
        let (trace, layout) = synthetic_trace(4_000, 6);
        let nmp = system(NmpConfig::default()).simulate(&trace, &layout, None);
        let cpu = nmp_pak_memsim::cpu::simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Baseline,
            &DramConfig::default(),
            &CpuConfig::default(),
        );
        let speedup = cpu.runtime_ns / nmp.runtime_ns;
        assert!(speedup > 4.0, "speedup = {speedup}");
    }

    #[test]
    fn bandwidth_utilization_is_much_higher_than_cpu() {
        let (trace, layout) = synthetic_trace(4_000, 6);
        let nmp = system(NmpConfig::default()).simulate(&trace, &layout, None);
        let cpu = nmp_pak_memsim::cpu::simulate_cpu_compaction(
            &trace,
            &layout,
            ProcessFlow::Baseline,
            &DramConfig::default(),
            &CpuConfig::default(),
        );
        assert!(
            nmp.bandwidth_utilization() > 3.0 * cpu.bandwidth_utilization(),
            "nmp {} cpu {}",
            nmp.bandwidth_utilization(),
            cpu.bandwidth_utilization()
        );
    }

    #[test]
    fn inter_dimm_communication_dominates_with_random_destinations() {
        let (trace, layout) = synthetic_trace(4_000, 4);
        let result = system(NmpConfig::sixteen_pes()).simulate(&trace, &layout, None);
        // With 8 DIMMs and uniform destinations ~7/8 of transfers cross DIMMs (§6.3
        // reports 87.5 %).
        assert!(result.comm.inter_dimm_fraction() > 0.7);
        assert!(result.comm.intra_dimm_fraction() < 0.3);
        // Most intra-DIMM transfers still change PE (94 % in the 16-PE case).
        assert!(result.comm.cross_pe_fraction_of_intra() > 0.8);
    }

    #[test]
    fn more_pes_is_never_slower_and_saturates() {
        let (trace, layout) = synthetic_trace(4_000, 4);
        let mut last = f64::INFINITY;
        let mut runtimes = Vec::new();
        for pes in [1usize, 2, 4, 8, 16, 32, 64] {
            let cfg = NmpConfig {
                pes_per_channel: pes,
                ..NmpConfig::default()
            };
            let r = system(cfg).simulate(&trace, &layout, None);
            assert!(
                r.runtime_ns <= last * 1.001,
                "{pes} PEs slower than previous"
            );
            last = r.runtime_ns;
            runtimes.push(r.runtime_ns);
        }
        // Saturation: 64 PEs is within a few percent of 32 PEs.
        let r32 = runtimes[5];
        let r64 = runtimes[6];
        assert!((r32 - r64).abs() / r32 < 0.05);
    }

    #[test]
    fn ideal_pe_changes_little_ideal_forwarding_helps_some() {
        let (trace, layout) = synthetic_trace(4_000, 5);
        let base = system(NmpConfig::default()).simulate(&trace, &layout, None);
        let ideal_pe = system(NmpConfig {
            pe_variant: PeVariant::Ideal,
            ..NmpConfig::default()
        })
        .simulate(&trace, &layout, None);
        let ideal_fwd = system(NmpConfig {
            ideal_forwarding: true,
            ..NmpConfig::default()
        })
        .simulate(&trace, &layout, None);
        // Ideal PEs: at most a small improvement (PEs are not the bottleneck).
        assert!(ideal_pe.runtime_ns <= base.runtime_ns);
        assert!(
            (base.runtime_ns - ideal_pe.runtime_ns) / base.runtime_ns < 0.2,
            "ideal PE gained too much"
        );
        // Ideal forwarding removes destination reads → less traffic, somewhat faster.
        assert!(ideal_fwd.traffic.read_bytes < base.traffic.read_bytes);
        assert!(ideal_fwd.runtime_ns <= base.runtime_ns);
    }

    #[test]
    fn hybrid_offload_fraction_is_small_and_overlapped() {
        let (trace, layout) = synthetic_trace(4_000, 4);
        let result = system(NmpConfig::default()).simulate(&trace, &layout, None);
        assert!(
            result.cpu_offload_fraction < 0.05,
            "{}",
            result.cpu_offload_fraction
        );
        assert!(result.cpu_bound_iteration_fraction < 0.5);
    }

    #[test]
    fn offload_threshold_is_strict() {
        // A node of exactly the threshold stays on the PEs; one a byte larger
        // goes to the host CPU.
        let threshold = NmpConfig::default().cpu_offload_threshold_bytes;
        let fraction = |sizes: &[usize]| {
            let mut trace = CompactionTrace::new(sizes.len(), sizes.to_vec());
            trace.iterations.push(IterationTrace {
                checks: (0..sizes.len())
                    .map(|slot| NodeCheck::new(slot, sizes[slot], false))
                    .collect(),
                transfers: vec![],
                updates: vec![],
            });
            let layout = NodeLayout::new(sizes, &DramConfig::default());
            let result = system(NmpConfig::default()).simulate(&trace, &layout, None);
            result.cpu_offload_fraction
        };
        assert_eq!(fraction(&[threshold]), 0.0);
        assert_eq!(fraction(&[threshold + 1]), 1.0);
        assert_eq!(fraction(&[256, threshold, threshold + 1, 40_000]), 0.5);
    }

    #[test]
    fn channel_load_folds_measured_shard_telemetry() {
        use nmp_pak_pakman::ShardingTelemetry;
        // 12 shards on the default 8 channels: shards 8..12 fold onto channels
        // 0..4. Shard 0 did twice everyone's work; shard 0 → shard 8 traffic is
        // *intra*-channel (both on channel 0), shard 0 → shard 1 is cross.
        let shards = 12usize;
        let telemetry = ShardingTelemetry {
            shard_count: shards,
            initial_alive_per_shard: vec![100; shards],
            final_alive_per_shard: vec![50; shards],
            checked_per_shard: {
                let mut work = vec![100u64; shards];
                work[0] = 200;
                work
            },
            flushes: vec![flush(0, 8, 1_000), flush(0, 1, 3_000)],
        };
        let stats = system(NmpConfig::default()).channel_load_from_sharding(&telemetry);
        assert_eq!(stats.map, ShardChannelMap::new(12, 8));
        // Channel 0 hosts shards 0 and 8: 200 + 100 work units.
        assert_eq!(stats.work_per_channel[0], 300);
        assert_eq!(stats.work_per_channel[5], 100);
        assert_eq!(stats.resident_per_channel[0], 100);
        assert_eq!(stats.resident_per_channel[7], 50);
        // Shard-crossing bytes that stay on one channel are not bridge traffic.
        assert_eq!(stats.intra_channel_bytes, 1_000);
        assert_eq!(stats.cross_channel_bytes, 3_000);
        assert!((stats.cross_channel_fraction() - 0.75).abs() < 1e-12);
        assert!(stats.imbalance() > 1.0);

        // Uniform work is reported as balanced.
        let uniform = ShardingTelemetry {
            checked_per_shard: vec![100; shards],
            ..telemetry
        };
        let stats = system(NmpConfig::default()).channel_load_from_sharding(&uniform);
        assert!(
            (stats.imbalance() - 4.0 / 3.0).abs() < 1e-12,
            "12 uniform shards on 8 channels: 4 channels host 2 shards → max 200 vs mean 150"
        );
    }

    /// One iteration-0 flush of `bytes` from shard `src` to shard `dst`.
    fn flush(src: usize, dst: usize, bytes: u64) -> nmp_pak_pakman::MailboxFlushStats {
        nmp_pak_pakman::MailboxFlushStats {
            src,
            dst,
            src_iteration: 0,
            transfers: 1,
            bytes,
        }
    }

    /// Telemetry where one shard did `skew`× the others' work and all mailbox
    /// bytes crossed shards that land on different channels.
    fn skewed_telemetry(shards: usize, skew: u64) -> nmp_pak_pakman::ShardingTelemetry {
        let mut checked = vec![1_000u64; shards];
        checked[0] *= skew;
        nmp_pak_pakman::ShardingTelemetry {
            shard_count: shards,
            initial_alive_per_shard: vec![100; shards],
            final_alive_per_shard: vec![50; shards],
            checked_per_shard: checked,
            // Shard 0 → shard 1: cross-channel.
            flushes: vec![flush(0, 1, 10_000)],
        }
    }

    #[test]
    fn measured_skew_slows_the_lock_step_and_balance_matches_uniform() {
        let (trace, layout) = synthetic_trace(4_000, 5);
        let sys = system(NmpConfig::default());
        let uniform = sys.simulate(&trace, &layout, None);

        // Strongly skewed measured load: one channel hosts ~8× its fair share,
        // so the lock-step iterations stretch.
        let skew_load = sys.channel_load_from_sharding(&skewed_telemetry(8, 64));
        assert!(skew_load.imbalance() > 4.0);
        let skewed = sys.simulate(&trace, &layout, Some(&skew_load));
        assert!(
            skewed.runtime_ns > uniform.runtime_ns,
            "skewed {} vs uniform {}",
            skewed.runtime_ns,
            uniform.runtime_ns
        );

        // Balanced measured load: never slower than the layout model — the
        // even measured spread removes the layout's natural per-PE hotspots
        // (e.g. the oversized every-97th-slot nodes) — and much faster than
        // the skewed placement.
        let flat_load = sys.channel_load_from_sharding(&skewed_telemetry(8, 1));
        assert!((flat_load.imbalance() - 1.0).abs() < 1e-12);
        let flat = sys.simulate(&trace, &layout, Some(&flat_load));
        assert!(flat.runtime_ns <= uniform.runtime_ns * 1.001);
        assert!(flat.runtime_ns < skewed.runtime_ns);

        // Placement changes timing only: DRAM traffic and routing counts are
        // properties of the trace, identical across placements.
        assert_eq!(skewed.traffic, uniform.traffic);
        assert_eq!(skewed.comm, uniform.comm);
    }

    #[test]
    fn empty_trace_is_safe() {
        let trace = CompactionTrace::new(0, vec![]);
        let layout = NodeLayout::new(&[], &DramConfig::default());
        let result = system(NmpConfig::default()).simulate(&trace, &layout, None);
        assert_eq!(result.runtime_ns, 0.0);
        assert_eq!(result.comm.total(), 0);
    }
}
