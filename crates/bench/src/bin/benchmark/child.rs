//! The child process: one workload's assemblies in a process of their own, so
//! `VmHWM`, allocator state and a hang are that workload's alone.
//!
//! The parent generated the inputs (that is `setup_s`) and passes file paths;
//! everything here that is not the workload's entry call is untimed.

use crate::calibrate::{at_nominal_speed, Calibration};
use crate::metrics;
use crate::refeval::{self, EVAL_K};
use crate::stats::median;
use crate::workload::{reads_path, reference_path, Workload, BATCHES};
use nmp_pak_core::{BackendResult, NmpPakAssembler, SystemConfig};
use nmp_pak_genome::fasta::read_fasta;
use nmp_pak_genome::source::collect_reads;
use nmp_pak_genome::{
    DnaString, FastaFastqSource, GenomeError, PrefetchSource, ReadChunk, ReadSource, SequencingRead,
};
use nmp_pak_pakman::{
    BatchAssembler, BatchSchedule, Contig, PakmanAssembler, PakmanConfig, SpillTelemetry,
};
use std::cell::RefCell;
use std::fs::File;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Timed repetitions a run makes at the least, however long one takes.
pub const MIN_REPS: usize = 3;
/// Lowest share of the reference's k-mers an assembly may recover.
const MIN_RECALL: f64 = 0.99;

/// What the child was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Warm-up, timed repetitions and output checks: the end-to-end metrics.
    Measure,
    /// The layers called one by one with a span around each: per-layer metrics.
    Trace,
    /// One unbatched in-memory assembly in a fresh process; prints its `VmHWM`.
    UnbatchedRss,
}

#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: Workload,
    pub mode: Mode,
    /// Directory the parent generated the inputs into.
    pub inputs: PathBuf,
    /// Genomes, each with its own read set, in `inputs`.
    pub members: usize,
    /// Reads and read bases over all members.
    pub read_count: usize,
    pub read_bases: u64,
    pub seconds: f64,
    pub trace_out: Option<PathBuf>,
}

/// Metric values in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Reports 0 for every declared per-layer metric of a layer the workload
    /// never exercises.
    pub fn zero_not_applicable(&mut self, workload: Workload) {
        for metric in metrics::per_layer() {
            if !metrics::applies(workload, &metric.name) {
                self.set(&metric.name, 0.0);
            }
        }
    }
}

/// Operations attempted and failed: an `Err`, a panic or a failed output check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Runs one assembly-sized operation, returning its value and wall time.
    pub fn attempt<T>(
        &mut self,
        what: &str,
        op: impl FnOnce() -> Result<T, String>,
    ) -> Option<(T, Duration)> {
        self.attempted += 1;
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(op));
        let wall = started.elapsed();
        match outcome {
            Ok(Ok(value)) => Some((value, wall)),
            Ok(Err(message)) => {
                self.fail(&format!("{what}: {message}"));
                None
            }
            Err(_) => {
                self.fail(&format!("{what}: panicked"));
                None
            }
        }
    }

    /// Counts a failed output check of the latest operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(what);
        }
    }

    fn fail(&mut self, what: &str) {
        self.failed = (self.failed + 1).min(self.attempted.max(1));
        eprintln!("benchmark: FAILED {what}");
    }
}

/// Result of one child invocation.
#[derive(Debug, Default)]
pub struct ChildReport {
    pub metrics: Metrics,
    pub tally: Tally,
}

pub fn run(args: &ChildArgs) -> Result<ChildReport, String> {
    match args.mode {
        Mode::Measure => measure(args),
        Mode::Trace => crate::trace::trace(args),
        Mode::UnbatchedRss => unbatched_rss(args),
    }
}

// ---------------------------------------------------------------------------
// Entry calls
// ---------------------------------------------------------------------------

/// What a workload's single entry call returns: contigs, plus the simulated
/// results for `sim_fig12`.
pub struct Output {
    pub contigs: Vec<Contig>,
    pub backends: Vec<BackendResult>,
    /// The library's own footprint model for this run, in bytes.
    pub model_peak_bytes: u64,
    pub batch: Option<BatchFacts>,
    /// Owns whatever else the call returned, so dropping it stays outside the
    /// timed region.
    _rest: Box<dyn std::any::Any>,
}

impl Output {
    /// The contigs and backend results; everything else is dropped here.
    fn into_results(self) -> (Vec<Contig>, Vec<BackendResult>) {
        (self.contigs, self.backends)
    }
}

/// Scheduler facts of a batched run.
pub struct BatchFacts {
    pub batches: usize,
    pub peak_inflight_read_bytes: u64,
    pub footprint_reduction_model: f64,
    pub spill: Vec<SpillTelemetry>,
    /// Seconds the library itself timed in stages A-E, summed over the batches.
    pub library_stage_sum_s: f64,
}

/// Order-sensitive FNV-1a digest of the contig sequences.
pub fn digest(contigs: &[Contig]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for contig in contigs {
        contig.sequence.codes().for_each(&mut eat);
        eat(0xff);
    }
    hash
}

/// The resident read set, in the shape `run_all_backends` takes it.
pub type ResidentReads = nmp_pak_core::Workload;

fn resident(reads: Vec<SequencingRead>) -> ResidentReads {
    ResidentReads {
        name: "bench".to_string(),
        genome: None,
        reads,
        sequencer: None,
    }
}

fn load_reads(path: &Path) -> Result<ResidentReads, String> {
    FastaFastqSource::open(path)
        .and_then(collect_reads)
        .map(resident)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Every member's reads, in member order.
pub fn load_members(args: &ChildArgs) -> Result<Vec<ResidentReads>, String> {
    (0..args.members)
        .map(|member| load_reads(&reads_path(&args.inputs, member)))
        .collect()
}

/// Every member's reference genome, in member order.
fn load_references(args: &ChildArgs) -> Result<Vec<DnaString>, String> {
    let path = reference_path(&args.inputs);
    let context = |e: String| format!("cannot read {}: {e}", path.display());
    let file = File::open(&path).map_err(|e| context(e.to_string()))?;
    let records = read_fasta(BufReader::new(file)).map_err(|e| context(e.to_string()))?;
    if records.len() != args.members {
        return Err(context(format!(
            "expected {} reference records, found {}",
            args.members,
            records.len()
        )));
    }
    Ok(records.into_iter().map(|record| record.sequence).collect())
}

pub fn assemble_in_memory(
    config: PakmanConfig,
    reads: &[SequencingRead],
) -> Result<Output, String> {
    let mut output = PakmanAssembler::new(config)
        .assemble(reads)
        .map_err(|e| e.to_string())?;
    Ok(Output {
        contigs: std::mem::take(&mut output.contigs),
        backends: Vec::new(),
        model_peak_bytes: output.footprint.peak_bytes(),
        batch: None,
        _rest: Box::new(output),
    })
}

/// One in-memory assembly per member, one after another; the contigs in
/// member order.
pub fn assemble_members(config: PakmanConfig, members: &[ResidentReads]) -> Result<Output, String> {
    let mut contigs = Vec::new();
    let mut model_peak_bytes = 0;
    let mut rest = Vec::with_capacity(members.len());
    for member in members {
        let output = assemble_in_memory(config, &member.reads)?;
        contigs.extend(output.contigs);
        model_peak_bytes = model_peak_bytes.max(output.model_peak_bytes);
        rest.push(output._rest);
    }
    Ok(Output {
        contigs,
        backends: Vec::new(),
        model_peak_bytes,
        batch: None,
        _rest: Box::new(rest),
    })
}

fn simulate_all(config: PakmanConfig, reads: &ResidentReads) -> Result<Output, String> {
    let (mut assembly, backends) = NmpPakAssembler::new(config, SystemConfig::default())
        .run_all_backends(reads)
        .map_err(|e| e.to_string())?;
    Ok(Output {
        contigs: std::mem::take(&mut assembly.contigs),
        backends,
        model_peak_bytes: assembly.footprint.peak_bytes(),
        batch: None,
        _rest: Box::new(assembly),
    })
}

/// A `ReadSource` that notes when each `next_chunk` call started and ended.
struct TimedSource<S> {
    inner: S,
    calls: Rc<RefCell<Vec<(Instant, Instant)>>>,
}

impl<S: ReadSource<'static>> ReadSource<'static> for TimedSource<S> {
    fn next_chunk(&mut self) -> Result<Option<ReadChunk<'static>>, GenomeError> {
        let started = Instant::now();
        let chunk = self.inner.next_chunk();
        self.calls.borrow_mut().push((started, Instant::now()));
        chunk
    }

    fn reads_hint(&self) -> (usize, Option<usize>) {
        self.inner.reads_hint()
    }

    fn bases_hint(&self) -> Option<u64> {
        self.inner.bases_hint()
    }
}

pub fn chunked_fastq(args: &ChildArgs) -> Result<FastaFastqSource<BufReader<File>>, String> {
    let path = reads_path(&args.inputs, 0);
    FastaFastqSource::open(&path)
        .map(|source| source.with_chunk_reads(args.read_count.div_ceil(BATCHES)))
        .map_err(|e| format!("cannot open {}: {e}", path.display()))
}

/// The streamed small-footprint path: prefetched FASTQ chunks through the
/// batch scheduler. `calls` receives the consumer-side `next_chunk` intervals.
pub fn assemble_streamed(
    args: &ChildArgs,
    schedule: BatchSchedule,
    prefetch: bool,
    calls: &Rc<RefCell<Vec<(Instant, Instant)>>>,
) -> Result<Output, String> {
    let assembler =
        BatchAssembler::with_schedule(args.workload.config(), 1.0 / BATCHES as f64, schedule);
    let file = chunked_fastq(args)?;
    let calls = Rc::clone(calls);
    let result = if prefetch {
        assembler.assemble_source(TimedSource {
            inner: PrefetchSource::new(file),
            calls,
        })
    } else {
        assembler.assemble_source(TimedSource { inner: file, calls })
    };
    let mut output = result.map_err(|e| e.to_string())?;
    Ok(Output {
        contigs: std::mem::take(&mut output.contigs),
        backends: Vec::new(),
        model_peak_bytes: output.peak_batch_footprint.peak_bytes(),
        batch: Some(BatchFacts {
            batches: output.batch_timings.len(),
            peak_inflight_read_bytes: output.peak_inflight_read_bytes,
            footprint_reduction_model: output.footprint_reduction(),
            spill: output.batch_spill.clone(),
            library_stage_sum_s: output
                .batch_timings
                .iter()
                .map(|t| t.total().as_secs_f64())
                .sum(),
        }),
        _rest: Box::new(output),
    })
}

pub const STREAMED_SCHEDULE: BatchSchedule = BatchSchedule::Pipelined {
    depth: 1,
    max_inflight_bytes: None,
};

/// The workload's entry call, reads in → contigs (or backend results) out.
/// `reads` holds every member's reads; it is empty for the streamed workload,
/// which never holds them all.
pub fn entry(args: &ChildArgs, reads: &[ResidentReads]) -> Result<Output, String> {
    let config = args.workload.config();
    match args.workload {
        Workload::Asm1t | Workload::AsmMt => assemble_members(config, reads),
        Workload::BatchStream => assemble_streamed(args, STREAMED_SCHEDULE, true, &Rc::default()),
        Workload::SimFig12 => simulate_all(config, &reads[0]),
    }
}

pub fn single_threaded(config: PakmanConfig) -> PakmanConfig {
    PakmanConfig {
        threads: 1,
        ..config
    }
}

// ---------------------------------------------------------------------------
// Measure: the end-to-end metrics
// ---------------------------------------------------------------------------

/// Members one timed call assembles. A repetition of `asm_mt` is its 48 read
/// sets in calls of eight with the calibration kernel between them: seven
/// kernel readings spread over the 3 s instead of two at its ends (5 minutes of
/// two-thread assemblies cut into runs of five repetitions: the runs spread
/// by 3.7 % that way and by 7.0 % the other). Every other workload has one
/// member and makes one call.
const CALL_MEMBERS: usize = 8;

/// One timed repetition of the workload.
#[derive(Default)]
struct Repetition {
    /// Wall clock of the calls, each at the nominal host speed.
    wall_s: f64,
    raw_wall_s: f64,
    /// `VmHWM` since the repetition started, without the calibration tables.
    peak_rss_mb: f64,
    contigs: Vec<Contig>,
    backends: Vec<BackendResult>,
}

/// `None` when a call failed (the tally has counted it).
fn timed_repetition(
    args: &ChildArgs,
    reads: &[ResidentReads],
    calibration: &mut Calibration,
    tally: &mut Tally,
) -> Result<Option<Repetition>, String> {
    // The streamed workload holds no reads: one call, on the file.
    let calls: Vec<&[ResidentReads]> = if reads.is_empty() {
        vec![reads]
    } else {
        reads.chunks(CALL_MEMBERS).collect()
    };
    let mut rep = Repetition::default();
    let mut kernel_before_s = calibration.run();
    reset_vm_hwm();
    for call in calls {
        let Some((output, wall)) = tally.attempt("timed assembly", || entry(args, call)) else {
            return Ok(None);
        };
        // Read before any verification work touches memory.
        rep.peak_rss_mb = vm_hwm_mb()? - calibration.resident_bytes() as f64 / 1e6;
        let kernel_after_s = calibration.run();
        rep.raw_wall_s += wall.as_secs_f64();
        rep.wall_s += at_nominal_speed(wall.as_secs_f64(), kernel_before_s, kernel_after_s);
        kernel_before_s = kernel_after_s;
        let (contigs, backends) = output.into_results();
        rep.contigs.extend(contigs);
        rep.backends = backends;
    }
    Ok(Some(rep))
}

fn measure(args: &ChildArgs) -> Result<ChildReport, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let reads = match args.workload {
        Workload::BatchStream => Vec::new(),
        _ => load_members(args)?,
    };

    let Some((warm_up, _)) = tally.attempt("warm-up assembly", || entry(args, &reads)) else {
        return Ok(ChildReport { metrics: m, tally });
    };
    m.set("info.rss_after_warm_up_mb", vm_hwm_mb()?);
    let mut calibration = Calibration::new(args.workload.threads());
    let rss_resets = reset_vm_hwm();
    m.set("info.rss_measured_per_rep", f64::from(u8::from(rss_resets)));
    let reference_digest = digest(&warm_up.contigs);
    // Only the contigs outlive the call (the reference evaluator reads them
    // once the timed repetitions are over): holding a whole output would keep
    // a second graph resident while the next repetition runs.
    let (contigs, reference_backends) = warm_up.into_results();

    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut peaks_mb = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        match timed_repetition(args, &reads, &mut calibration, &mut tally)? {
            Some(rep) => {
                tally.check(
                    digest(&rep.contigs) == reference_digest,
                    "contigs differ from the warm-up assembly's",
                );
                tally.check(
                    rep.backends == reference_backends,
                    "simulated statistics differ from the warm-up run's",
                );
                walls.push(rep.wall_s);
                raw_walls.push(rep.raw_wall_s);
                peaks_mb.push(rep.peak_rss_mb);
            }
            None if tally.failed >= MIN_REPS as u64 => break,
            None => {}
        }
        if args.workload == Workload::AsmMt {
            let twin = tally.attempt("threads=1 twin", || {
                assemble_members(single_threaded(args.workload.config()), &reads)
            });
            if let Some((output, _)) = twin {
                tally.check(
                    digest(&output.contigs) == reference_digest,
                    "threads=2 contigs differ from the threads=1 twin's",
                );
            }
        }
    }
    // One assembly's peak depends on how its threads happen to overlap
    // (203-359 MB from repetition to repetition for the streamed path at
    // 100 kbp, around two modes), so the high-water mark is reset before every
    // repetition and the mean of the per-repetition peaks reported: between
    // runs the median jumps from one mode to the other, the mean does not. It
    // is the peak of a process that has assembled before (freed memory the
    // allocator kept counts); a fresh process's first assembly is
    // `memory.rss_mb` of the traced run.
    let peak_rss_mb = peaks_mb.iter().sum::<f64>() / peaks_mb.len().max(1) as f64;

    let genomes = load_references(args)?;
    let sequences: Vec<&DnaString> = contigs.iter().map(|c| &c.sequence).collect();
    let quality = refeval::evaluate(&genomes, &sequences, EVAL_K);
    tally.check(
        quality.ref_kmer_recall >= MIN_RECALL,
        &format!(
            "reference k-mer recall {} is below {MIN_RECALL}",
            quality.ref_kmer_recall
        ),
    );

    let wall_s = median(&walls);
    m.set("wall_s", wall_s);
    m.set("read_mbases_per_s", args.read_bases as f64 / wall_s / 1e6);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("ref_kmer_recall", quality.ref_kmer_recall);
    m.set("duplication_ratio", quality.duplication_ratio);
    m.set("n50", quality.n50 as f64);
    // Context for the table, not part of the result line.
    m.set("info.wall_raw_s", median(&raw_walls));
    m.set("info.timed_reps", walls.len() as f64);
    m.set("info.rep_spread", crate::stats::spread(&walls));
    Ok(ChildReport { metrics: m, tally })
}

fn unbatched_rss(args: &ChildArgs) -> Result<ChildReport, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let reads = load_reads(&reads_path(&args.inputs, 0))?;
    let config = PakmanConfig {
        spill: nmp_pak_pakman::SpillConfig::in_memory(),
        ..args.workload.config()
    };
    tally.attempt("unbatched assembly", || {
        assemble_in_memory(config, &reads.reads)
    });
    m.set("info.unbatched_rss_mb", vm_hwm_mb()?);
    Ok(ChildReport { metrics: m, tally })
}

// ---------------------------------------------------------------------------
// /proc
// ---------------------------------------------------------------------------

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Resets `VmHWM` to the current resident set size, so the next reading is the
/// peak since now. Returns whether the kernel allowed it; where it does not,
/// `VmHWM` stays the peak since the process started.
fn reset_vm_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// User and system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in the kernel's 100 Hz `USER_HZ` ticks).
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|(user, sys)| (user as f64 / 100.0, sys as f64 / 100.0))
        .ok_or_else(|| "cannot parse /proc/self/stat".to_string())
}

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    // The command name (field 2) may contain spaces; fields resume after ")".
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let user = fields.nth(11)?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some((user, sys))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_files_parse() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
        let stat = "42 (bench mark) R 1 42 42 0 -1 4194304 100 0 0 0 250 75 0 0 20 0 1 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some((250, 75)));
        assert!(vm_hwm_mb().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().is_ok());
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let contig = |s: &str| Contig::new(s.parse().expect("dna"));
        let ab = [contig("ACGT"), contig("TTGA")];
        let ba = [contig("TTGA"), contig("ACGT")];
        let joined = [contig("ACGTTTGA")];
        assert_eq!(digest(&ab), digest(&ab.clone()));
        assert_ne!(digest(&ab), digest(&ba));
        assert_ne!(digest(&ab), digest(&joined));
    }

    #[test]
    fn tally_counts_errors_panics_and_failed_checks() {
        let mut tally = Tally::default();
        assert!(tally.attempt("ok", || Ok(1)).is_some());
        assert!(tally.attempt::<()>("err", || Err("boom".into())).is_none());
        assert!(tally.attempt::<()>("panic", || panic!("boom")).is_none());
        tally.check(true, "fine");
        tally.check(false, "bad output");
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        tally.check(false, "never more failures than attempts");
        assert_eq!(tally.failed, 3);
    }
}
