//! The sweep executor: runs every cell of a recipe through the existing
//! pipeline machinery and collects per-cell metrics.
//!
//! Cells sharing a (workload, config, schedule) software run share its output
//! (the pipeline is deterministic: same inputs ⇒ bit-identical outputs), so a
//! backend sweep pays for one assembly plus one simulation per backend —
//! exactly like the hand-rolled Fig. 12 driver. Every run is in-process, one
//! after another.

use crate::error::RecipeError;
use crate::gate::GateOutcome;
use crate::report::SweepReport;
use crate::spec::{ScenarioSpec, ScheduleSpec, WorkloadKey};
use crate::Recipe;
use nmp_pak_core::backend::{BackendId, BackendRegistry, BackendResult, SystemConfig};
use nmp_pak_core::{NmpPakAssembler, Workload};
use nmp_pak_memsim::NodeLayout;
use nmp_pak_nmphw::NetworkModel;
use nmp_pak_pakman::{
    AssemblyOutput, AssemblyStats, BatchAssembler, BatchAssemblyOutput, PakmanAssembler,
    PakmanConfig, ShardingTelemetry,
};

/// Well-known metric names.
///
/// The executor computes the `wall_s`/telemetry/backend families for every
/// cell where they are defined; the `speedup.*`/overhead families come from
/// [`MetricProbe`] implementations (the bench crate's vendored-baseline probe)
/// and are only computed when a gate asks for them.
pub mod metric {
    /// Sum of phase wall times in seconds.
    pub const WALL_S: &str = "wall_s";
    /// Stage A (read access) seconds.
    pub const ACCESS_READS_S: &str = "access_reads_s";
    /// Stage B (k-mer counting) seconds.
    pub const KMER_COUNTING_S: &str = "kmer_counting_s";
    /// Stage C (MacroNode construction) seconds.
    pub const MACRONODE_CONSTRUCTION_S: &str = "macronode_construction_s";
    /// Stage D (Iterative Compaction) seconds.
    pub const COMPACTION_S: &str = "compaction_s";
    /// Stage E (contig walk) seconds.
    pub const WALK_S: &str = "walk_s";
    /// Number of contigs.
    pub const CONTIGS: &str = "contigs";
    /// Assembly N50.
    pub const N50: &str = "n50";
    /// Total assembled bases.
    pub const TOTAL_LENGTH: &str = "total_length";
    /// Largest contig length.
    pub const LARGEST_CONTIG: &str = "largest_contig";
    /// Compaction iterations (summed over batches).
    pub const COMPACTION_ITERATIONS: &str = "compaction_iterations";
    /// Peak resident footprint in bytes.
    pub const PEAK_FOOTPRINT_BYTES: &str = "peak_footprint_bytes";
    /// Max/mean per-shard initial load.
    pub const LOAD_IMBALANCE: &str = "load_imbalance";
    /// Total mailbox traffic in bytes.
    pub const MAILBOX_BYTES: &str = "mailbox_bytes";
    /// Mailbox bytes crossing shard boundaries.
    pub const CROSS_SHARD_BYTES: &str = "cross_shard_bytes";
    /// Fraction of mailbox bytes crossing shard boundaries.
    pub const CROSS_SHARD_FRACTION: &str = "cross_shard_fraction";
    /// Bytes evicted to disk by external-memory counting.
    pub const BYTES_SPILLED: &str = "bytes_spilled";
    /// Sorted runs written by external-memory counting.
    pub const RUNS_WRITTEN: &str = "runs_written";
    /// K-way merge passes over spilled runs.
    pub const MERGE_PASSES: &str = "merge_passes";
    /// Peak resident bytes inside the bounded counter.
    pub const PEAK_RESIDENT_BYTES: &str = "peak_resident_bytes";
    /// Backend runtime normalized to the CPU baseline on the same trace
    /// (the Fig. 12 quantity).
    pub const NORMALIZED_PERFORMANCE: &str = "normalized_performance";
    /// Simulated backend runtime in nanoseconds.
    pub const BACKEND_RUNTIME_NS: &str = "backend_runtime_ns";
    /// Simulated bandwidth utilization (0..=1).
    pub const BANDWIDTH_UTILIZATION: &str = "bandwidth_utilization";
    /// Projected speedup on a 2-node cluster under the default network model.
    pub const MULTINODE_2_SPEEDUP: &str = "multinode.nodes2_speedup";
    /// Projected speedup on a 4-node cluster under the default network model.
    pub const MULTINODE_4_SPEEDUP: &str = "multinode.nodes4_speedup";
    /// Projected speedup on an 8-node cluster under the default network model.
    pub const MULTINODE_8_SPEEDUP: &str = "multinode.nodes8_speedup";
    /// Fraction of mailbox bytes crossing node boundaries at 8 nodes.
    pub const MULTINODE_8_CROSS_FRACTION: &str = "multinode.nodes8_cross_fraction";

    /// Probe metric: current counting+construction vs the vendored baseline.
    pub const SPEEDUP_COUNTING_PLUS_CONSTRUCTION: &str = "speedup.counting_plus_construction";
    /// Probe metric: current compaction vs the vendored baseline compactor.
    pub const SPEEDUP_COMPACTION: &str = "speedup.compaction";
    /// Probe metric: single-shard engine runtime over the sharded engine
    /// forced to one shard (the sharding tax at shard_count = 1).
    pub const SHARDED_OVERHEAD_AT_ONE: &str = "sharded_overhead_at_one";
    /// Probe metric: bounded-budget counting runtime over in-memory counting.
    pub const SPILL_OVERHEAD: &str = "spill_overhead";
    /// Probe metric: sequential critical path over depth-1 (overlapped)
    /// critical path.
    pub const CRITICAL_PATH_SPEEDUP: &str = "critical_path_speedup";
    /// Probe metric: sequential critical path over the schedule's own depth.
    pub const PIPELINED_CRITICAL_PATH_SPEEDUP: &str = "pipelined_critical_path_speedup";
}

/// What a cell's software run produced.
#[derive(Debug, Clone)]
pub enum CellOutput {
    /// One-shot pipeline output.
    Single(Box<AssemblyOutput>),
    /// Batched pipeline output.
    Batched(Box<BatchAssemblyOutput>),
}

impl CellOutput {
    /// The assembled contigs.
    pub fn contigs(&self) -> &[nmp_pak_pakman::Contig] {
        match self {
            CellOutput::Single(o) => &o.contigs,
            CellOutput::Batched(o) => &o.contigs,
        }
    }

    /// The assembly quality statistics.
    pub fn stats(&self) -> &AssemblyStats {
        match self {
            CellOutput::Single(o) => &o.stats,
            CellOutput::Batched(o) => &o.stats,
        }
    }
}

/// One executed cell: its scenario, label, metrics, and full output (kept so
/// bit-identity tests can compare contigs directly).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The fully-bound scenario.
    pub spec: ScenarioSpec,
    /// The cell's deterministic label.
    pub label: String,
    /// Metric name → value, in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// The software run's full output.
    pub output: CellOutput,
}

impl CellResult {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Extension point for metrics the core executor cannot compute — the bench
/// crate implements this over its vendored pre-refactor baselines. `wants`
/// lists the metric names the recipe's gates reference, so probes skip work
/// no gate will read.
pub trait MetricProbe {
    /// Computes extra metrics for one cell.
    fn cell_metrics(
        &self,
        wants: &[String],
        spec: &ScenarioSpec,
        workload: &Workload,
        output: &CellOutput,
    ) -> Vec<(String, f64)>;
}

/// Runs recipes: checks the cell list, executes every cell, computes metrics,
/// and evaluates gates into a [`SweepReport`].
pub struct Executor {
    probes: Vec<Box<dyn MetricProbe>>,
}

impl Executor {
    /// An executor running every cell in-process.
    pub fn local() -> Executor {
        Executor { probes: Vec::new() }
    }

    /// Registers a metric probe.
    #[must_use]
    pub fn with_probe(mut self, probe: impl MetricProbe + 'static) -> Executor {
        self.probes.push(Box::new(probe));
        self
    }

    /// Runs a recipe to completion.
    ///
    /// # Errors
    ///
    /// Before any cell runs: [`RecipeError::DuplicateCell`] when two cells
    /// share a label, and [`RecipeError::UnsupportedCell`] for a backend on a
    /// batched schedule. Then workload/pipeline failures. Gate violations are
    /// not errors — they are reported in the returned [`SweepReport`].
    pub fn run(&self, recipe: &Recipe) -> Result<SweepReport, RecipeError> {
        let specs = &recipe.cells;
        let mut labels = std::collections::HashSet::with_capacity(specs.len());
        for spec in specs {
            if !labels.insert(spec.label()) {
                return Err(RecipeError::DuplicateCell {
                    label: spec.label(),
                });
            }
            if spec.backend.is_some() && spec.schedule.is_batched() {
                return Err(RecipeError::UnsupportedCell {
                    label: spec.label(),
                    reason: "backend simulation replays a one-shot compaction trace; \
                             use the single-batch schedule"
                        .to_string(),
                });
            }
        }

        let mut wants: Vec<String> = Vec::new();
        for gate in &recipe.gates {
            if !wants.contains(&gate.metric) {
                wants.push(gate.metric.clone());
            }
        }

        let mut workloads: Vec<((usize, u64, u64, u64), Workload)> = Vec::new();
        let mut runs: Vec<(RunKey, CellOutput)> = Vec::new();

        let system = SystemConfig::default();
        let registry = BackendRegistry::standard(&system);
        // The CPU-baseline result per software run, shared by every backend
        // cell normalizing against it.
        let mut baselines: Vec<(RunKey, BackendResult)> = Vec::new();

        let mut cells = Vec::with_capacity(specs.len());
        for spec in specs {
            let workload_index = workload_index(&mut workloads, spec)?;
            let run_key = RunKey::of(spec);
            let run_index = match runs.iter().position(|(k, _)| *k == run_key) {
                Some(i) => i,
                None => {
                    let output = run_cell(&workloads[workload_index].1, spec)?;
                    runs.push((run_key, output));
                    runs.len() - 1
                }
            };
            let workload = &workloads[workload_index].1;
            let output = runs[run_index].1.clone();

            let mut metrics = standard_metrics(&output);
            if let Some(id) = spec.backend {
                let backend_metrics =
                    simulate_backend(&registry, &system, id, &run_key, &output, &mut baselines)?;
                metrics.extend(backend_metrics);
            }
            for probe in &self.probes {
                metrics.extend(probe.cell_metrics(&wants, spec, workload, &output));
            }

            cells.push(CellResult {
                spec: spec.clone(),
                label: spec.label(),
                metrics,
                output,
            });
        }

        let gates: Vec<GateOutcome> = recipe.gates.iter().map(|g| g.evaluate(&cells)).collect();
        Ok(SweepReport {
            recipe: recipe.name.clone(),
            description: recipe.description.clone(),
            cells,
            gates,
        })
    }
}

/// Identity of one software run: cells with equal keys share bit-identical
/// outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunKey {
    workload: WorkloadKey,
    config: PakmanConfig,
    schedule: ScheduleSpec,
}

impl RunKey {
    fn of(spec: &ScenarioSpec) -> RunKey {
        RunKey {
            workload: spec.workload_key(),
            config: spec.pakman_config(),
            schedule: spec.schedule,
        }
    }
}

fn workload_index(
    workloads: &mut Vec<(WorkloadKey, Workload)>,
    spec: &ScenarioSpec,
) -> Result<usize, RecipeError> {
    let key = spec.workload_key();
    if let Some(i) = workloads.iter().position(|(k, _)| *k == key) {
        return Ok(i);
    }
    workloads.push((key, spec.synthesize_workload()?));
    Ok(workloads.len() - 1)
}

fn run_cell(workload: &Workload, spec: &ScenarioSpec) -> Result<CellOutput, RecipeError> {
    let config = spec.pakman_config();
    match spec.schedule.to_batch() {
        None => {
            let output = PakmanAssembler::new(config).assemble(&workload.reads)?;
            Ok(CellOutput::Single(Box::new(output)))
        }
        Some((fraction, schedule)) => {
            let output = BatchAssembler::with_schedule(config, fraction, schedule)
                .assemble(&workload.reads)?;
            Ok(CellOutput::Batched(Box::new(output)))
        }
    }
}

fn standard_metrics(output: &CellOutput) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, value: f64| m.push((name.to_string(), value));

    let stats = output.stats();
    match output {
        CellOutput::Single(o) => {
            let t = &o.timings;
            push(metric::WALL_S, t.total().as_secs_f64());
            push(metric::ACCESS_READS_S, t.access_reads.as_secs_f64());
            push(metric::KMER_COUNTING_S, t.kmer_counting.as_secs_f64());
            push(
                metric::MACRONODE_CONSTRUCTION_S,
                t.macronode_construction.as_secs_f64(),
            );
            push(metric::COMPACTION_S, t.compaction.as_secs_f64());
            push(metric::WALK_S, t.walk.as_secs_f64());
            push(
                metric::COMPACTION_ITERATIONS,
                o.compaction.iterations.len() as f64,
            );
            push(
                metric::PEAK_FOOTPRINT_BYTES,
                o.footprint.peak_bytes() as f64,
            );
            if let Some(sharding) = &o.sharding {
                push(metric::LOAD_IMBALANCE, sharding.load_imbalance());
                push(metric::MAILBOX_BYTES, sharding.total_mailbox_bytes() as f64);
                push(
                    metric::CROSS_SHARD_BYTES,
                    sharding.total_cross_shard_bytes() as f64,
                );
                push(
                    metric::CROSS_SHARD_FRACTION,
                    sharding.cross_shard_fraction(),
                );
                // Project the one-host run onto small clusters: the network
                // model charges the cell's own flush ledger against the
                // modelled compaction time of its census.
                let base_ns = modeled_compaction_ns(o, sharding);
                if sharding.shard_count > 1 && base_ns > 0.0 {
                    let network = NetworkModel::default();
                    for (nodes, name) in [
                        (2usize, metric::MULTINODE_2_SPEEDUP),
                        (4, metric::MULTINODE_4_SPEEDUP),
                        (8, metric::MULTINODE_8_SPEEDUP),
                    ] {
                        let projection = network.project_multinode(sharding, nodes, base_ns);
                        push(name, projection.speedup());
                        if nodes == 8 {
                            push(
                                metric::MULTINODE_8_CROSS_FRACTION,
                                projection.cross_node_fraction(),
                            );
                        }
                    }
                }
            }
            if let Some(spill) = &o.spill {
                push(metric::BYTES_SPILLED, spill.bytes_spilled as f64);
                push(metric::RUNS_WRITTEN, spill.runs_written as f64);
                push(metric::MERGE_PASSES, f64::from(spill.merge_passes));
                push(
                    metric::PEAK_RESIDENT_BYTES,
                    spill.peak_resident_bytes as f64,
                );
            }
        }
        CellOutput::Batched(o) => {
            let sum = |f: fn(&nmp_pak_pakman::PhaseTimings) -> std::time::Duration| -> f64 {
                o.batch_timings.iter().map(|t| f(t).as_secs_f64()).sum()
            };
            push(
                metric::WALL_S,
                o.batch_timings
                    .iter()
                    .map(|t| t.total().as_secs_f64())
                    .sum(),
            );
            push(metric::ACCESS_READS_S, sum(|t| t.access_reads));
            push(metric::KMER_COUNTING_S, sum(|t| t.kmer_counting));
            push(
                metric::MACRONODE_CONSTRUCTION_S,
                sum(|t| t.macronode_construction),
            );
            push(metric::COMPACTION_S, sum(|t| t.compaction));
            push(metric::WALK_S, sum(|t| t.walk));
            push(
                metric::COMPACTION_ITERATIONS,
                o.batch_compaction
                    .iter()
                    .map(|c| c.iterations.len())
                    .sum::<usize>() as f64,
            );
            push(
                metric::PEAK_FOOTPRINT_BYTES,
                o.peak_batch_footprint.peak_bytes() as f64,
            );
            if !o.batch_sharding.is_empty() {
                let mailbox: u64 = o
                    .batch_sharding
                    .iter()
                    .map(|s| s.total_mailbox_bytes())
                    .sum();
                let cross: u64 = o
                    .batch_sharding
                    .iter()
                    .map(|s| s.total_cross_shard_bytes())
                    .sum();
                push(metric::MAILBOX_BYTES, mailbox as f64);
                push(metric::CROSS_SHARD_BYTES, cross as f64);
                if mailbox > 0 {
                    push(metric::CROSS_SHARD_FRACTION, cross as f64 / mailbox as f64);
                }
            }
            if !o.batch_spill.is_empty() {
                push(
                    metric::BYTES_SPILLED,
                    o.batch_spill.iter().map(|s| s.bytes_spilled).sum::<u64>() as f64,
                );
                push(
                    metric::RUNS_WRITTEN,
                    o.batch_spill.iter().map(|s| s.runs_written).sum::<u64>() as f64,
                );
                push(
                    metric::MERGE_PASSES,
                    o.batch_spill
                        .iter()
                        .map(|s| u64::from(s.merge_passes))
                        .sum::<u64>() as f64,
                );
            }
        }
    }
    push(metric::CONTIGS, stats.contig_count as f64);
    push(metric::N50, stats.n50 as f64);
    push(metric::TOTAL_LENGTH, stats.total_length as f64);
    push(metric::LARGEST_CONTIG, stats.largest_contig as f64);
    m
}

/// The one-host compaction time a multi-node projection splits, in
/// nanoseconds: the run's P1 checks, each charged the host-CPU model's
/// one-core visit of a node of the run's mean initial MacroNode size. It is a
/// function of the run's census, not a timing, so two runs with the same
/// ledger project the same speedups whatever the host's load.
fn modeled_compaction_ns(output: &AssemblyOutput, sharding: &ShardingTelemetry) -> f64 {
    let system = SystemConfig::default();
    let checks: u64 = sharding.checked_per_shard.iter().sum();
    let nodes = output.compaction.initial_nodes.max(1) as u64;
    let mean_node_bytes = (output.footprint.macronode_bytes / nodes) as usize;
    let visit = system
        .cpu
        .node_cost(mean_node_bytes, system.dram.line_bytes);
    checks as f64 * visit.total()
}

fn simulate_backend(
    registry: &BackendRegistry,
    system: &SystemConfig,
    id: BackendId,
    run_key: &RunKey,
    output: &CellOutput,
    baselines: &mut Vec<(RunKey, BackendResult)>,
) -> Result<Vec<(String, f64)>, RecipeError> {
    let CellOutput::Single(assembly) = output else {
        unreachable!("backend cells are validated to be single-batch");
    };
    let backend = registry
        .get(id)
        .ok_or_else(|| RecipeError::UnknownBackend { id: id.to_string() })?;
    let trace = assembly
        .trace
        .as_ref()
        .expect("backend cells record the compaction trace");
    let layout = NodeLayout::new(&trace.initial_sizes, &system.dram);
    let ctx = NmpPakAssembler::context_for(assembly);
    let result = backend.simulate(trace, &layout, &ctx);

    let baseline = match baselines.iter().find(|(k, _)| k == run_key) {
        Some((_, b)) => b.clone(),
        None => {
            let cpu = registry
                .get(BackendId::CPU_BASELINE)
                .expect("standard registry always has the CPU baseline");
            let b = cpu.simulate(trace, &layout, &ctx);
            baselines.push((*run_key, b.clone()));
            b
        }
    };

    Ok(vec![
        (
            metric::NORMALIZED_PERFORMANCE.to_string(),
            result.speedup_over(&baseline),
        ),
        (metric::BACKEND_RUNTIME_NS.to_string(), result.runtime_ns),
        (
            metric::BANDWIDTH_UTILIZATION.to_string(),
            result.bandwidth_utilization(),
        ),
    ])
}
