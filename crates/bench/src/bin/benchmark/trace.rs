//! The traced run: the layers called one by one, a span around each call.
//!
//! End-to-end calls and stage-by-stage passes alternate, [`MIN_REPS`] of each,
//! and every timing reported is the median of its repetitions: the host's
//! speed drifts over seconds, and a staged pass compared against an end-to-end
//! call made some other second would measure the drift.

use crate::calibrate::{Calibration, NOMINAL_S};
use crate::child::{
    assemble_members, assemble_streamed, chunked_fastq, cpu_seconds, digest, entry, load_members,
    single_threaded, vm_hwm_mb, BatchFacts, ChildArgs, ChildReport, Metrics, Output, ResidentReads,
    Tally, MIN_REPS, STREAMED_SCHEDULE,
};
use crate::metrics::{host_time_metric, simulated_time_metric, BACKENDS};
use crate::span::Recorder;
use crate::stats::median;
use crate::workload::{reads_path, Workload};
use nmp_pak_core::{BackendId, BackendRegistry, BackendResult, SimulationContext, SystemConfig};
use nmp_pak_genome::{ReadSource, SequencingRead};
use nmp_pak_memsim::NodeLayout;
use nmp_pak_pakman::stage::{
    AccessStage, CompactStage, CompactedGraph, ConstructStage, CountStage, WalkStage,
};
use nmp_pak_pakman::{
    compact, compact_sharded, count_kmers, write_contigs_fasta, BatchSchedule, CompactionTrace,
    Contig, CountedKmer, KmerCounterConfig, MemoryFootprint, PakGraph, PakmanConfig, ShardConfig,
    ShardSchedule, ShardedGraph, SpillTelemetry, Stage,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Shards of the sharded-engine probe (the paper's 8-channel system).
const PROBE_SHARDS: usize = ShardConfig::DEFAULT_CHANNELS;
/// The paper's headline NMP-PaK speed-up over the CPU baseline: the only
/// reference figure the repository holds for the simulated layer.
const PAPER_NMP_SPEEDUP: f64 = 16.0;

pub fn trace(args: &ChildArgs) -> Result<ChildReport, String> {
    let mut rec = Recorder::new();
    let mut report = match args.workload {
        Workload::BatchStream => trace_streamed(args, &mut rec)?,
        _ => trace_in_memory(args, &mut rec)?,
    };
    let (user_s, sys_s) = cpu_seconds()?;
    report.metrics.set("bench.cpu_user_s", user_s);
    report.metrics.set("bench.cpu_sys_s", sys_s);
    report.metrics.zero_not_applicable(args.workload);
    if let Some(path) = &args.trace_out {
        std::fs::write(path, rec.to_json().to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// The stages, one call at a time
// ---------------------------------------------------------------------------

/// A timing a stage-by-stage pass accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timing {
    /// Stages A to E, in order.
    Access,
    Count,
    Construct,
    Compact,
    Walk,
    /// The `staged` span around the five stage calls.
    Pass,
    /// Parsing FASTQ chunks (streamed workload only).
    ChunkParse,
    /// Probe: the same reads counted fully in memory (streamed workload only).
    CountInMemory,
    /// Probe: the serial walk over the pass's compacted graph.
    WalkSerial,
    /// Probe: the walk streamed as FASTA into a sink.
    FastaStream,
    /// Probe: stage D again without trace recording (`sim_fig12` only).
    CompactUntraced,
    /// `NodeLayout::new` over the recorded trace (`sim_fig12` only).
    Layout,
}

const TIMINGS: usize = Timing::Layout as usize + 1;
const STAGES: [Timing; 5] = [
    Timing::Access,
    Timing::Count,
    Timing::Construct,
    Timing::Compact,
    Timing::Walk,
];

/// What one stage-by-stage pass measured (summed over its batches when the
/// workload has several).
#[derive(Debug, Default, Clone)]
struct LayerSums {
    seconds: [f64; TIMINGS],
    /// Host seconds of each standard backend's `simulate` (`sim_fig12` only).
    backend_s: Vec<f64>,
    total_kmers: u64,
    distinct_kmers: u64,
    kept_kmers: u64,
    nodes: u64,
    macronode_bytes: u64,
    iterations: u64,
    checked_nodes: u64,
    invalidated_nodes: u64,
    transfers: u64,
    final_nodes: u64,
    contigs: u64,
    contig_bases: u64,
}

impl LayerSums {
    fn add(&mut self, timing: Timing, seconds: f64) {
        self.seconds[timing as usize] += seconds;
    }

    fn s(&self, timing: Timing) -> f64 {
        self.seconds[timing as usize]
    }

    /// Seconds in stages A to E.
    fn stage_sum_s(&self) -> f64 {
        STAGES.iter().map(|&stage| self.s(stage)).sum()
    }

    /// Host seconds of the layout plus the backend simulations.
    fn simulated_s(&self) -> f64 {
        self.s(Timing::Layout) + self.backend_s.iter().sum::<f64>()
    }

    /// The counts of the first pass (they repeat exactly) with each timing
    /// replaced by its median over `passes`.
    fn median_of(passes: &[LayerSums]) -> Option<LayerSums> {
        let mut sums = passes.first()?.clone();
        let median_by = |field: &dyn Fn(&LayerSums) -> f64| {
            median(&passes.iter().map(field).collect::<Vec<_>>())
        };
        for (i, slot) in sums.seconds.iter_mut().enumerate() {
            *slot = median_by(&|pass| pass.seconds[i]);
        }
        for (i, slot) in sums.backend_s.iter_mut().enumerate() {
            *slot = median_by(&|pass| pass.backend_s.get(i).copied().unwrap_or(0.0));
        }
        Some(sums)
    }

    fn emit(&self, m: &mut Metrics) {
        let count_s = self.s(Timing::Count);
        let construct_s = self.s(Timing::Construct);
        let compact_s = self.s(Timing::Compact);
        let walk_s = self.s(Timing::Walk);
        m.set("kmer_count.s", count_s);
        m.set(
            "kmer_count.ns_per_kmer",
            nanos_per(count_s, self.total_kmers),
        );
        m.set("kmer_count.total_kmers", self.total_kmers as f64);
        m.set("kmer_count.kept_kmers", self.kept_kmers as f64);
        m.set(
            "kmer_count.kept_ratio",
            ratio(self.kept_kmers, self.distinct_kmers),
        );
        m.set("graph.construct_s", construct_s);
        m.set("graph.ns_per_node", nanos_per(construct_s, self.nodes));
        m.set("graph.nodes", self.nodes as f64);
        m.set("graph.macronode_bytes", self.macronode_bytes as f64);
        m.set("compaction.s", compact_s);
        m.set("compaction.iterations", self.iterations as f64);
        m.set("compaction.checked_nodes", self.checked_nodes as f64);
        m.set(
            "compaction.invalidated_nodes",
            self.invalidated_nodes as f64,
        );
        m.set(
            "compaction.useful_check_ratio",
            ratio(self.invalidated_nodes, self.checked_nodes),
        );
        m.set("compaction.transfers", self.transfers as f64);
        m.set("compaction.final_nodes", self.final_nodes as f64);
        m.set(
            "compaction.ns_per_checked_node",
            nanos_per(compact_s, self.checked_nodes),
        );
        m.set("walk.s", walk_s);
        m.set("walk.serial_s", self.s(Timing::WalkSerial));
        m.set(
            "walk.threaded_vs_serial_x",
            walk_s / self.s(Timing::WalkSerial),
        );
        m.set("walk.fasta_stream_s", self.s(Timing::FastaStream));
        m.set("walk.contigs", self.contigs as f64);
        m.set("walk.contig_bases", self.contig_bases as f64);
        m.set(
            "walk.ns_per_contig_base",
            nanos_per(walk_s, self.contig_bases),
        );
    }
}

fn nanos_per(seconds: f64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        seconds * 1e9 / items as f64
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Artifacts of a staged pass that the probes reuse.
struct Staged {
    contigs: Vec<Contig>,
    compacted: CompactedGraph,
    /// Seconds this pass spent in stage D.
    compact_s: f64,
    /// The counted k-mer stream, when a probe rebuilds graphs from it.
    counted: Vec<CountedKmer>,
}

/// Runs stages A–E one by one through `Stage::run`, a span around each, then
/// (outside the `staged` span) the two walk probes on the compacted graph and,
/// with `recount`, stages A and B once more for the probes that rebuild graphs
/// from the counted stream: stage C consumes it, and a copy held through the
/// pass would be timed and resident with the stages.
fn staged_pass(
    config: &PakmanConfig,
    reads: &[SequencingRead],
    recount: bool,
    rec: &mut Recorder,
    sums: &mut LayerSums,
) -> Result<Staged, String> {
    let err = |e: nmp_pak_pakman::PakmanError| e.to_string();
    let pass = rec.enter("staged");

    let span = rec.enter("stage.access");
    let access = AccessStage.run(reads).map_err(err)?;
    sums.add(Timing::Access, rec.exit(span));

    let span = rec.enter("stage.count");
    let counted = CountStage::new(config).run(access).map_err(err)?;
    sums.add(Timing::Count, rec.exit(span));
    sums.total_kmers += counted.stats.total_kmers;
    sums.distinct_kmers += counted.stats.distinct_kmers as u64;
    sums.kept_kmers += counted.counted.len() as u64;

    let span = rec.enter("stage.construct");
    let built = ConstructStage::new(config).run(counted).map_err(err)?;
    sums.add(Timing::Construct, rec.exit(span));
    sums.nodes += built.graph.alive_count() as u64;
    sums.macronode_bytes += built.macronode_bytes;

    let span = rec.enter("stage.compact");
    let compacted = CompactStage::new(config).run(built).map_err(err)?;
    let compact_s = rec.exit(span);
    sums.add(Timing::Compact, compact_s);
    sums.iterations += compacted.stats.iteration_count() as u64;
    sums.checked_nodes += compacted.profile.total_checked() as u64;
    sums.invalidated_nodes += compacted
        .stats
        .iterations
        .iter()
        .map(|i| i.invalidated as u64)
        .sum::<u64>();
    sums.transfers += compacted.stats.total_transfers as u64;
    sums.final_nodes += compacted.stats.final_nodes as u64;

    let span = rec.enter("stage.walk");
    let contigs = WalkStage::new(config).run(&compacted).map_err(err)?;
    sums.add(Timing::Walk, rec.exit(span));
    sums.contigs += contigs.len() as u64;
    sums.contig_bases += contigs.iter().map(|c| c.len() as u64).sum::<u64>();
    sums.add(Timing::Pass, rec.exit(pass));

    let span = rec.enter("probe.walk_serial");
    let serial = WalkStage::new(&single_threaded(*config))
        .run(&compacted)
        .map_err(err)?;
    sums.add(Timing::WalkSerial, rec.exit(span));
    if serial != contigs {
        return Err("the serial walk's contigs differ from the configured walk's".to_string());
    }
    let span = rec.enter("probe.walk_fasta_stream");
    write_contigs_fasta(
        &compacted.graph,
        config.min_contig_length,
        &mut std::io::sink(),
    )
    .map_err(err)?;
    sums.add(Timing::FastaStream, rec.exit(span));

    let counted = if recount {
        let access = AccessStage.run(reads).map_err(err)?;
        CountStage::new(config).run(access).map_err(err)?.counted
    } else {
        Vec::new()
    };
    Ok(Staged {
        contigs,
        compacted,
        compact_s,
        counted,
    })
}

// ---------------------------------------------------------------------------
// Probes of engines no workload runs by default
// ---------------------------------------------------------------------------

/// Slots at which two graphs over the same slot layout differ.
fn differing_slots(a: &PakGraph, b: &PakGraph) -> usize {
    let slots = a.slot_count().max(b.slot_count());
    (0..slots)
        .filter(|&slot| a.node(slot) != b.node(slot))
        .count()
}

/// The sharded-engine probe: the staged pass's counted stream through
/// `ShardedGraph::from_counted_kmers` and `compact_sharded`, lock-step then
/// async, each compared against what it must reproduce.
fn shard_probe(
    config: &PakmanConfig,
    staged: &Staged,
    rec: &mut Recorder,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let sharded_config = |schedule| PakmanConfig {
        shards: ShardConfig::per_channel(PROBE_SHARDS),
        shard_schedule: schedule,
        // Trace recording forces lock-step; the probe compares the engines.
        record_trace: false,
        ..*config
    };
    let build = || {
        ShardedGraph::from_counted_kmers(&staged.counted, config.k, PROBE_SHARDS, config.threads)
    };

    let lockstep = tally.attempt("sharded lock-step compaction", || {
        let span = rec.enter("probe.shard_construct");
        let mut sharded = build();
        let construct_s = rec.exit(span);
        let span = rec.enter("probe.shard_lockstep");
        let (outcome, telemetry) =
            compact_sharded(&mut sharded, &sharded_config(ShardSchedule::Lockstep));
        let lockstep_s = rec.exit(span);
        Ok((
            sharded.into_global_graph(),
            outcome,
            telemetry,
            construct_s,
            lockstep_s,
        ))
    });
    let Some(((lockstep_graph, outcome, telemetry, construct_s, lockstep_s), _)) = lockstep else {
        return;
    };
    tally.check(
        differing_slots(&lockstep_graph, &staged.compacted.graph) == 0
            && outcome.stats == staged.compacted.stats,
        "sharded lock-step compaction differs from the single-graph engine",
    );

    let asynchronous = tally.attempt("sharded async compaction", || {
        let mut sharded = build();
        let span = rec.enter("probe.shard_async");
        let (outcome, _) = compact_sharded(&mut sharded, &sharded_config(ShardSchedule::Async));
        let async_s = rec.exit(span);
        Ok((sharded.into_global_graph(), outcome, async_s))
    });
    let Some(((async_graph, async_outcome, async_s), _)) = asynchronous else {
        return;
    };
    let mismatch = differing_slots(&async_graph, &lockstep_graph)
        + usize::from(async_outcome.stats.final_nodes != outcome.stats.final_nodes)
        + usize::from(async_outcome.stats.total_transfers != outcome.stats.total_transfers);
    tally.check(
        mismatch == 0,
        "async sharded compaction differs from lock-step",
    );

    m.set("shard.construct_s", construct_s);
    m.set("shard.lockstep_s", lockstep_s);
    m.set("shard.async_s", async_s);
    m.set("shard.overhead_x", lockstep_s / staged.compact_s);
    m.set("shard.async_vs_lockstep_x", async_s / lockstep_s);
    m.set(
        "shard.mailbox_bytes",
        telemetry.total_mailbox_bytes() as f64,
    );
    m.set(
        "shard.cross_shard_fraction",
        telemetry.cross_shard_fraction(),
    );
    m.set("shard.load_imbalance", telemetry.load_imbalance());
    m.set("shard.flushes", telemetry.flushes.len() as f64);
    m.set("shard.async_mismatch", mismatch as f64);
}

fn trace_events(trace: &CompactionTrace) -> u64 {
    trace
        .iterations
        .iter()
        .map(|i| (i.checks.len() + i.transfers.len() + i.updates.len()) as u64)
        .sum()
}

/// The simulated-hardware layer one call at a time, on one pass's recorded
/// trace: stage D again without recording (what recording costs), then
/// `NodeLayout::new` and each standard backend's `simulate`.
fn simulation_pass(
    config: &PakmanConfig,
    staged: &Staged,
    footprint_bytes: u64,
    rec: &mut Recorder,
    sums: &mut LayerSums,
) -> Result<Vec<BackendResult>, String> {
    let trace = staged
        .compacted
        .trace
        .as_ref()
        .ok_or("the staged compaction recorded no trace")?;

    let mut untraced = PakGraph::from_counted_kmers(&staged.counted, config.k, config.threads);
    let span = rec.enter("probe.compact_untraced");
    compact(
        &mut untraced,
        &PakmanConfig {
            record_trace: false,
            ..*config
        },
    );
    sums.add(Timing::CompactUntraced, rec.exit(span));
    drop(untraced);

    let system = SystemConfig::default();
    let span = rec.enter("sim.layout");
    let layout = NodeLayout::new(&trace.initial_sizes, &system.dram);
    sums.add(Timing::Layout, rec.exit(span));

    let ctx = SimulationContext::new(footprint_bytes);
    let mut results = Vec::new();
    for backend in BackendRegistry::standard(&system).iter() {
        let span = rec.enter(&format!("sim.backend.{}", backend.id()));
        results.push(backend.simulate(trace, &layout, &ctx));
        sums.backend_s.push(rec.exit(span));
    }
    Ok(results)
}

/// Host-time metrics of the simulated layer, from the median pass.
fn emit_simulation_host_time(sums: &LayerSums, trace: &CompactionTrace, m: &mut Metrics) {
    m.set(
        "core.trace_record_overhead_x",
        sums.s(Timing::Compact) / sums.s(Timing::CompactUntraced),
    );
    m.set("core.trace_events", trace_events(trace) as f64);
    m.set("memsim.layout_s", sums.s(Timing::Layout));
    for (backend, &seconds) in BACKENDS.iter().zip(&sums.backend_s) {
        m.set(&host_time_metric(backend), seconds);
    }
    let host_s: f64 = sums.backend_s.iter().sum();
    m.set("core.sim_host_s", host_s);
    m.set(
        "core.sim_events_per_s",
        (trace_events(trace) * sums.backend_s.len() as u64) as f64 / host_s,
    );
}

/// Simulated statistics: exact, and identical under any host-speed change.
fn emit_simulated(results: &[BackendResult], m: &mut Metrics) -> Result<(), String> {
    let ids: Vec<&str> = results.iter().map(|r| r.backend.as_str()).collect();
    if ids != BACKENDS {
        return Err(format!(
            "the standard registry simulated {ids:?}, not {BACKENDS:?}"
        ));
    }
    for result in results {
        m.set(
            &simulated_time_metric(result.backend.as_str()),
            result.runtime_ns / 1e6,
        );
    }
    let find = |id: BackendId| {
        results
            .iter()
            .find(|r| r.backend == id)
            .expect("checked against BACKENDS above")
    };
    let cpu = find(BackendId::CPU_BASELINE);
    let nmp = find(BackendId::NMP_PAK);
    let speedup = nmp.speedup_over(cpu);
    m.set("nmphw.nmp_speedup", speedup);
    m.set(
        "nmphw.speedup_rel_err",
        (speedup - PAPER_NMP_SPEEDUP).abs() / PAPER_NMP_SPEEDUP,
    );
    m.set(
        "nmphw.nmp_vs_cpu_pak_x",
        nmp.speedup_over(find(BackendId::CPU_PAK)),
    );
    m.set(
        "nmphw.intra_dimm_fraction",
        nmp.comm.map_or(0.0, |c| c.intra_dimm_fraction()),
    );
    m.set("nmphw.nmp_bw_util", nmp.bandwidth_utilization());
    m.set(
        "memsim.traffic_reduction_x",
        cpu.traffic.total_bytes() as f64 / nmp.traffic.total_bytes().max(1) as f64,
    );
    m.set("memsim.cpu_bw_util", cpu.bandwidth_utilization());
    Ok(())
}

// ---------------------------------------------------------------------------
// The reference end-to-end calls
// ---------------------------------------------------------------------------

/// Parses every member's FASTQ under a span; returns the reads.
fn parse_probe(
    args: &ChildArgs,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<Vec<ResidentReads>, String> {
    let mut file_bytes = 0;
    for member in 0..args.members {
        let path = reads_path(&args.inputs, member);
        file_bytes += std::fs::metadata(&path)
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
            .len();
    }
    let span = rec.enter("genome.fastq_parse");
    let reads = load_members(args)?;
    let parse_s = rec.exit(span);
    m.set("genome.fastq_parse_s", parse_s);
    m.set(
        "genome.fastq_parse_mbytes_per_s",
        file_bytes as f64 / 1e6 / parse_s,
    );
    Ok(reads)
}

/// What the traced run keeps of its warm-up end-to-end call. The output itself
/// is dropped at once, so every later call starts from the memory state a
/// repetition of the untraced run starts from.
struct Reference {
    digest: u64,
    backends: Vec<BackendResult>,
    batch: Option<BatchFacts>,
}

/// The workload's entry call, untraced, once: `VmHWM` of a fresh process's
/// first assembly, the footprint model's figure for it, the reference digest.
fn warm_up(
    tally: &mut Tally,
    m: &mut Metrics,
    call: impl FnOnce() -> Result<Output, String>,
) -> Result<Option<Reference>, String> {
    let output = tally.attempt("warm-up assembly", call);
    let rss_mb = vm_hwm_mb()?;
    let Some((output, _)) = output else {
        return Ok(None);
    };
    let model_mb = output.model_peak_bytes as f64 / 1e6;
    m.set("memory.model_peak_mb", model_mb);
    m.set("memory.rss_mb", rss_mb);
    m.set("memory.rss_vs_model_x", rss_mb / model_mb);
    Ok(Some(Reference {
        digest: digest(&output.contigs),
        backends: output.backends,
        batch: output.batch,
    }))
}

/// One more untraced entry call, timed; its contigs must be the warm-up's.
fn timed_call(
    tally: &mut Tally,
    reference: &Reference,
    call: impl FnOnce() -> Result<Output, String>,
) -> Option<(f64, Output)> {
    let (output, wall) = tally.attempt("timed assembly", call)?;
    tally.check(
        digest(&output.contigs) == reference.digest,
        "contigs differ from the warm-up assembly's",
    );
    Some((wall.as_secs_f64(), output))
}

// ---------------------------------------------------------------------------
// asm_1t, asm_mt, sim_fig12: the reads are resident
// ---------------------------------------------------------------------------

fn trace_in_memory(args: &ChildArgs, rec: &mut Recorder) -> Result<ChildReport, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let config = args.workload.config();
    let simulated = args.workload == Workload::SimFig12;
    let reads = parse_probe(args, rec, &mut m)?;
    let unfinished = |metrics, tally| Ok(ChildReport { metrics, tally });

    let Some(reference) = warm_up(&mut tally, &mut m, || entry(args, &reads))? else {
        return unfinished(m, tally);
    };
    // Allocated after the warm-up: `memory.rss_mb` is the assembly's alone.
    let mut calibration = Calibration::new(args.workload.threads());
    let mut kernel_s = Vec::new();
    let mut walls = Vec::new();
    let mut twin_walls = Vec::new();
    let mut passes = Vec::new();
    let mut kept = None;
    for rep in 0..MIN_REPS {
        kernel_s.push(calibration.run());
        let timed = timed_call(&mut tally, &reference, || entry(args, &reads));
        walls.extend(timed.map(|(seconds, _)| seconds));
        if args.workload == Workload::AsmMt {
            let twin = timed_call(&mut tally, &reference, || {
                assemble_members(single_threaded(config), &reads)
            });
            twin_walls.extend(twin.map(|(seconds, _)| seconds));
        }

        // Only the last pass keeps its artifacts (its last member's, for the
        // shard probe): nothing extra is resident while the calls above are
        // timed.
        let last = rep + 1 == MIN_REPS;
        let mut sums = LayerSums::default();
        let staged = tally.attempt("staged assembly", || {
            let mut contigs = Vec::new();
            let mut last_member = None;
            for (i, member) in reads.iter().enumerate() {
                let recount = simulated || (last && i + 1 == reads.len());
                let mut staged = staged_pass(&config, &member.reads, recount, rec, &mut sums)?;
                contigs.append(&mut staged.contigs);
                last_member = Some(staged);
            }
            let staged = last_member.ok_or("the workload has no members")?;
            Ok((contigs, staged))
        });
        let Some(((contigs, staged), _)) = staged else {
            continue;
        };
        tally.check(
            digest(&contigs) == reference.digest,
            "the stage-by-stage run's contigs differ from the end-to-end run's",
        );
        drop(contigs);
        if simulated {
            let footprint = MemoryFootprint::from_workload(
                args.read_bases,
                sums.total_kmers,
                sums.macronode_bytes,
            );
            let results =
                simulation_pass(&config, &staged, footprint.peak_bytes(), rec, &mut sums)?;
            tally.check(
                results == reference.backends,
                "backend results of the one-by-one run differ from run_all_backends'",
            );
        }
        passes.push(sums);
        kept = last.then_some(staged);
    }
    let (Some(sums), Some(staged)) = (LayerSums::median_of(&passes), kept) else {
        return unfinished(m, tally);
    };
    if walls.is_empty() {
        return unfinished(m, tally);
    }
    let e2e_wall_s = median(&walls);
    m.set("bench.e2e_wall_s", e2e_wall_s);
    m.set("bench.host_speed_x", NOMINAL_S / median(&kernel_s));
    if !twin_walls.is_empty() {
        m.set("bench.thread_speedup_x", median(&twin_walls) / e2e_wall_s);
    }
    sums.emit(&mut m);
    if simulated {
        let trace = staged
            .compacted
            .trace
            .as_ref()
            .ok_or("the staged compaction recorded no trace")?;
        emit_simulation_host_time(&sums, trace, &mut m);
        emit_simulated(&reference.backends, &mut m)?;
    }
    // `sim_fig12`'s entry call is the software pipeline plus the layout and
    // the seven simulations, so those spans count towards its wall clock.
    let staged_wall_s = sums.s(Timing::Pass) + sums.simulated_s();
    m.set("bench.staged_wall_s", staged_wall_s);
    m.set("bench.trace_overhead_x", staged_wall_s / e2e_wall_s);
    m.set(
        "bench.attributed_share",
        (sums.stage_sum_s() + sums.simulated_s()) / e2e_wall_s,
    );
    shard_probe(&config, &staged, rec, &mut m, &mut tally);
    Ok(ChildReport { metrics: m, tally })
}

// ---------------------------------------------------------------------------
// batch_stream: the reads stay in the file
// ---------------------------------------------------------------------------

/// One batch-by-batch pass: each FASTQ chunk parsed under a span, then through
/// the stages one by one, then counted again in memory (what spilling costs).
fn staged_batches(
    args: &ChildArgs,
    rec: &mut Recorder,
    sums: &mut LayerSums,
    tally: &mut Tally,
) -> Result<(), String> {
    let config = args.workload.config();
    let mut source = chunked_fastq(args)?;
    loop {
        let span = rec.enter("genome.fastq_parse_chunk");
        let chunk = source.next_chunk().map_err(|e| e.to_string())?;
        sums.add(Timing::ChunkParse, rec.exit(span));
        let Some(chunk) = chunk else { break };
        tally.attempt("staged batch", || {
            staged_pass(&config, chunk.reads(), false, rec, sums)
        });
        let span = rec.enter("probe.count_in_memory");
        count_kmers(chunk.reads(), KmerCounterConfig::from(&config)).map_err(|e| e.to_string())?;
        sums.add(Timing::CountInMemory, rec.exit(span));
    }
    Ok(())
}

fn trace_streamed(args: &ChildArgs, rec: &mut Recorder) -> Result<ChildReport, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let unfinished = |metrics, tally| Ok(ChildReport { metrics, tally });

    // The streamed call comes first: nothing else has touched memory yet, so
    // `VmHWM` after it is the streamed path's own.
    let waits = Rc::new(RefCell::new(Vec::new()));
    let streamed = || assemble_streamed(args, STREAMED_SCHEDULE, true, &waits);
    let Some(reference) = warm_up(&mut tally, &mut m, streamed)? else {
        return unfinished(m, tally);
    };
    let facts = reference
        .batch
        .as_ref()
        .expect("streamed runs carry batch facts");
    m.set("batch.batches", facts.batches as f64);
    m.set(
        "batch.peak_inflight_read_bytes",
        facts.peak_inflight_read_bytes as f64,
    );
    m.set(
        "batch.footprint_reduction_model",
        facts.footprint_reduction_model,
    );
    let total =
        |field: fn(&SpillTelemetry) -> u64| facts.spill.iter().map(field).sum::<u64>() as f64;
    m.set("spill.bytes_spilled", total(|t| t.bytes_spilled));
    m.set("spill.runs_written", total(|t| t.runs_written));
    m.set("spill.merge_passes", total(|t| u64::from(t.merge_passes)));
    m.set(
        "spill.peak_resident_bytes",
        facts
            .spill
            .iter()
            .map(|t| t.peak_resident_bytes)
            .max()
            .unwrap_or(0) as f64,
    );

    // Allocated after the warm-up: `memory.rss_mb` is the assembly's alone.
    let mut calibration = Calibration::new(args.workload.threads());
    let mut kernel_s = Vec::new();
    let mut walls = Vec::new();
    let mut wait_s = Vec::new();
    let mut sequential_s = Vec::new();
    let mut sequential_self_s = Vec::new();
    let mut library_stage_sum_s = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..MIN_REPS {
        kernel_s.push(calibration.run());
        // The pipelined, prefetched schedule: the workload's entry call.
        waits.borrow_mut().clear();
        let timed = timed_call(&mut tally, &reference, streamed);
        walls.extend(timed.map(|(seconds, _)| seconds));
        wait_s.push(seconds_between(&waits.borrow()));

        // The same batches one after another, parsing on the calling thread:
        // what the pipelined schedule and the prefetcher overlap.
        let parses = Rc::new(RefCell::new(Vec::new()));
        let span = rec.enter("batch.sequential");
        let finished = timed_call(&mut tally, &reference, || {
            assemble_streamed(args, BatchSchedule::Sequential, false, &parses)
        });
        let seconds = rec.exit(span);
        for &(start, end) in parses.borrow().iter() {
            rec.record("genome.fastq_parse_chunk", span, start, end);
        }
        if let Some((_, output)) = finished {
            sequential_s.push(seconds);
            sequential_self_s.push(rec.self_seconds(span));
            library_stage_sum_s.extend(output.batch.map(|facts| facts.library_stage_sum_s));
        }

        let mut sums = LayerSums::default();
        staged_batches(args, rec, &mut sums, &mut tally)?;
        passes.push(sums);
    }
    let Some(sums) = LayerSums::median_of(&passes) else {
        return unfinished(m, tally);
    };
    if walls.is_empty() || sequential_s.is_empty() {
        return unfinished(m, tally);
    }
    let e2e_wall_s = median(&walls);
    let sequential_s = median(&sequential_s);
    m.set("bench.e2e_wall_s", e2e_wall_s);
    m.set("bench.host_speed_x", NOMINAL_S / median(&kernel_s));
    m.set("genome.prefetch_wait_s", median(&wait_s));
    m.set("batch.sequential_s", sequential_s);
    m.set("batch.overlap_x", sequential_s / e2e_wall_s);
    parse_probe(args, rec, &mut m)?;

    sums.emit(&mut m);
    m.set("spill.count_s", sums.s(Timing::Count));
    m.set("spill.in_memory_count_s", sums.s(Timing::CountInMemory));
    m.set(
        "spill.overhead_x",
        sums.s(Timing::Count) / sums.s(Timing::CountInMemory),
    );
    m.set("batch.stage_sum_s", sums.stage_sum_s());
    // What the sequential run spent outside parsing and the per-batch stages:
    // merging the batch graphs, the walk over the merged graph, deduplication.
    m.set(
        "batch.merge_self_s",
        median(&sequential_self_s) - sums.stage_sum_s(),
    );
    let staged_wall_s = sums.s(Timing::Pass) + sums.s(Timing::ChunkParse);
    m.set("bench.staged_wall_s", staged_wall_s);
    // The stages under spans against the same stages as the library timed them
    // inside the sequential run.
    m.set(
        "bench.trace_overhead_x",
        sums.stage_sum_s() / median(&library_stage_sum_s),
    );
    // The batch-by-batch pass has no merge step: its share of the sequential
    // run is what the named spans explain, and the rest is `merge_self_s`.
    m.set("bench.attributed_share", staged_wall_s / sequential_s);
    Ok(ChildReport { metrics: m, tally })
}

fn seconds_between(intervals: &[(std::time::Instant, std::time::Instant)]) -> f64 {
    intervals
        .iter()
        .map(|(start, end)| end.duration_since(*start).as_secs_f64())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_timings_are_medians_and_counts_are_the_first_pass() {
        let pass = |count_s: f64, nodes: u64| {
            let mut sums = LayerSums {
                nodes,
                backend_s: vec![count_s, 1.0],
                ..LayerSums::default()
            };
            sums.add(Timing::Count, count_s);
            sums.add(Timing::Layout, count_s * 2.0);
            sums
        };
        let sums = LayerSums::median_of(&[pass(3.0, 10), pass(1.0, 10), pass(2.0, 10)])
            .expect("three passes");
        assert_eq!(sums.s(Timing::Count), 2.0);
        assert_eq!(sums.s(Timing::Layout), 4.0);
        assert_eq!(sums.backend_s, vec![2.0, 1.0]);
        assert_eq!(sums.nodes, 10);
        assert_eq!(sums.stage_sum_s(), 2.0);
        assert_eq!(sums.simulated_s(), 7.0);
        assert!(LayerSums::median_of(&[]).is_none());
        assert_eq!(nanos_per(1.0, 0), 0.0);
        assert_eq!(nanos_per(2.0, 4), 5e8);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
