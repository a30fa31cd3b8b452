//! The repository benchmark: four assembly workloads, reads → contigs wall
//! clock / peak RSS / reference-anchored quality end to end, one span per A–E
//! layer. See `README.md` beside this file for every metric and workload.
//!
//! ```text
//! benchmark                                   # every workload, both runs, as a table
//! benchmark --workload asm_1t --seed 11       # one workload, another seed
//! benchmark --aa                              # the whole set twice; non-zero on disagreement
//! benchmark --workload W --seed N --seconds S --trace 0|1   # one run, result line last
//! ```

mod calibrate;
mod child;
mod json;
mod metrics;
mod refeval;
mod span;
mod stats;
mod trace;
mod workload;

use calibrate::{at_nominal_speed, Calibration};
use child::{ChildArgs, ChildReport, Mode};
use json::Json;
use metrics::{END_TO_END, RUN_SECONDS, SETUP_S};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{generate_inputs, Inputs, Workload};

const DEFAULT_SEED: u64 = 7;
/// Input generations per run, `setup_s` being their median: at least
/// `SETUPS.start()`, then more while they have taken less than `SETUP_SECONDS`
/// together (a 20 kbp input generates in 30 ms, and five such readings do not
/// make a steady median), up to `SETUPS.end()`.
const SETUPS: std::ops::RangeInclusive<usize> = 5..=100;
const SETUP_SECONDS: f64 = 1.5;
/// Everything one run does (set-up, children, checks) must end within this
/// long, or its child is killed and the run reported as failed.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

#[derive(Debug, Clone)]
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// `None` runs both: the untraced run, then the traced one.
    trace: Option<bool>,
    aa: bool,
    /// Where the traced run of the one selected workload writes its spans.
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--aa] [--trace-out PATH] | --manifest";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        aa: false,
        trace_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: `{text}` is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = Workload::ALL.map(Workload::name).join(", ");
                cli.workloads = vec![Workload::from_name(name)
                    .ok_or_else(|| format!("unknown workload `{name}` (known: {known})"))?];
            }
            "--seed" => {
                let text = value()?;
                cli.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: `{text}` is not an unsigned integer"))?;
            }
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
            "--aa" => cli.aa = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    // One file holds one traced run's spans.
    if cli.trace_out.is_some() && (cli.workloads.len() != 1 || cli.aa || cli.trace == Some(false)) {
        return Err(format!(
            "--trace-out needs --workload and a traced run\n{USAGE}"
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some("--child") => child_main(&args[1..]).map(|()| true),
        _ => parse_cli(&args).and_then(|cli| if cli.aa { aa(&cli) } else { report(&cli) }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// One run: set-up in this process, the assemblies in a child
// ---------------------------------------------------------------------------

/// What one run reports: the declared metrics of its kind (end-to-end for an
/// untraced run, per-layer for a traced one) plus context lines for the table.
#[derive(Debug)]
struct RunResult {
    workload: Workload,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Name, value, unit.
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, f64)>,
}

impl RunResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result line of the driver contract.
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(*value)),
                                    ("unit".into(), Json::Str(unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit: `workload metric value unit`.
    fn print_table(&self) {
        let name = self.workload.name();
        for (metric, value, unit) in &self.metrics {
            println!("{name} {metric} {value} {unit}");
        }
        for (metric, value) in &self.info {
            println!("{name} {metric} {value} -");
        }
        println!("{name} attempted {} count", self.attempted);
        println!("{name} failed {} count", self.failed);
    }
}

/// Median set-up cost over the run's generations; the files of the last stay.
struct Setup {
    inputs: Inputs,
    /// At the nominal host speed (see `calibrate.rs`), like `wall_s`.
    setup_s: f64,
    setup_raw_s: f64,
    synthesize_s: f64,
    fastq_write_s: f64,
}

fn set_up(genome_bp: usize, members: usize, seed: u64, dir: &Path) -> Result<Setup, String> {
    let mut calibration = Calibration::new(1);
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut scaled = Vec::new();
    while runs.len() < *SETUPS.start()
        || (runs.len() < *SETUPS.end() && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let kernel_before_s = calibration.run();
        let inputs = generate_inputs(genome_bp, members, seed, dir)?;
        scaled.push(at_nominal_speed(
            inputs.total_s,
            kernel_before_s,
            calibration.run(),
        ));
        runs.push(inputs);
    }
    let median_of =
        |field: fn(&Inputs) -> f64| stats::median(&runs.iter().map(field).collect::<Vec<_>>());
    Ok(Setup {
        setup_s: stats::median(&scaled),
        setup_raw_s: median_of(|i| i.total_s),
        synthesize_s: median_of(|i| i.synthesize_s),
        fastq_write_s: median_of(|i| i.fastq_write_s),
        inputs: runs.pop().expect("at least one generation was made"),
    })
}

/// A scratch directory beside the executable (so inside the checkout's build
/// directory), removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(label: &str) -> Result<WorkDir, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the executable has no parent directory")?
            .join("benchmark-work")
            .join(format!("{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_once(workload: Workload, cli: &Cli, traced: bool) -> Result<RunResult, String> {
    let started = Instant::now();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if workload.threads() > cores {
        return Err(format!(
            "workload {} runs {} threads but this host has {cores} core(s); thread scaling \
             cannot be measured here",
            workload.name(),
            workload.threads()
        ));
    }
    let work = WorkDir::create(workload.name())?;
    let setup = set_up(workload.genome_bp(), workload.members(), cli.seed, &work.0)?;

    let args = ChildArgs {
        workload,
        mode: if traced { Mode::Trace } else { Mode::Measure },
        inputs: setup.inputs.dir.clone(),
        members: setup.inputs.members,
        read_count: setup.inputs.read_count,
        read_bases: setup.inputs.read_bases,
        seconds: cli.seconds,
        trace_out: cli.trace_out.clone().filter(|_| traced),
    };
    let deadline = started + RUN_DEADLINE;
    // A child that crashed or was killed at the deadline is one failed
    // operation; the run still reports what it has, marked incorrect.
    let child = |args: &ChildArgs| {
        spawn_child(args, &work.0, deadline).unwrap_or_else(|message| {
            eprintln!("benchmark: {message}");
            ChildReport {
                tally: child::Tally {
                    attempted: 1,
                    failed: 1,
                },
                ..ChildReport::default()
            }
        })
    };
    let report = child(&args);
    // The measured side of the 14x footprint claim needs the unbatched path's
    // RSS on the same reads: one more fresh process.
    let unbatched_rss_mb = (traced && workload == Workload::BatchStream)
        .then(|| {
            child(&ChildArgs {
                mode: Mode::UnbatchedRss,
                ..args.clone()
            })
        })
        .and_then(|probe| probe.metrics.get("info.unbatched_rss_mb"));
    Ok(compose(workload, traced, &setup, report, unbatched_rss_mb))
}

/// Joins the parent's set-up metrics and the child's report into the run's
/// result, and checks that exactly the declared metrics are there.
fn compose(
    workload: Workload,
    traced: bool,
    setup: &Setup,
    report: ChildReport,
    unbatched_rss_mb: Option<f64>,
) -> RunResult {
    let ChildReport { mut metrics, tally } = report;
    let declared: Vec<(String, &'static str)> = if traced {
        metrics.set("genome.synthesize_s", setup.synthesize_s);
        metrics.set("genome.fastq_write_s", setup.fastq_write_s);
        if let (Some(unbatched), Some(batched)) = (unbatched_rss_mb, metrics.get("memory.rss_mb")) {
            metrics.set("batch.footprint_reduction_measured", unbatched / batched);
        }
        metrics::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics.set(SETUP_S, setup.setup_s);
        metrics.set("info.setup_raw_s", setup.setup_raw_s);
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };

    let mut complete = true;
    let mut values = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        match metrics.get(&name) {
            Some(value) if value.is_finite() => values.push((name, value, unit)),
            other => {
                eprintln!(
                    "benchmark: {} did not report {name} ({other:?})",
                    workload.name()
                );
                complete = false;
            }
        }
    }
    let info = metrics
        .iter()
        .filter(|(name, _)| name.starts_with("info."))
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    RunResult {
        workload,
        correct: complete && tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics: values,
        info,
    }
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Measure => "measure",
        Mode::Trace => "trace",
        Mode::UnbatchedRss => "unbatched-rss",
    }
}

/// Runs `current_exe() --child …`, killing it at `deadline`, and parses the
/// `M name value` / `R attempted failed` lines it prints.
fn spawn_child(args: &ChildArgs, work: &Path, deadline: Instant) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--child")
        .arg(args.workload.name())
        .arg(mode_name(args.mode))
        .arg(&args.inputs)
        .arg(args.members.to_string())
        .arg(args.read_count.to_string())
        .arg(args.read_bases.to_string())
        .arg(args.seconds.to_string())
        .args(args.trace_out.iter())
        // Spill files go to the process's temporary directory: keep it inside
        // the checkout.
        .env("TMPDIR", work)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });

    let what = format!("{} {} child", args.workload.name(), mode_name(args.mode));
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!(
                    "the {what} ran past the run deadline and was killed"
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("cannot wait for the {what}: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| format!("the {what}'s output reader panicked"))?
        .map_err(|e| format!("cannot read the {what}'s output: {e}"))?;
    if !status.success() {
        return Err(format!("the {what} ended with {status}"));
    }
    parse_child_output(&text).ok_or_else(|| format!("the {what} printed a malformed report"))
}

fn parse_child_output(text: &str) -> Option<ChildReport> {
    let mut report = ChildReport::default();
    let mut finished = false;
    for line in text.lines() {
        let mut fields = line.split(' ');
        match fields.next()? {
            "M" => report
                .metrics
                .set(fields.next()?, fields.next()?.parse().ok()?),
            "R" => {
                report.tally.attempted = fields.next()?.parse().ok()?;
                report.tally.failed = fields.next()?.parse().ok()?;
                finished = true;
            }
            _ => return None,
        }
    }
    finished.then_some(report)
}

/// The report as the lines `parse_child_output` reads back.
fn format_child_output(report: &ChildReport) -> String {
    let mut text = String::new();
    for (name, value) in report.metrics.iter() {
        text.push_str(&format!("M {name} {value}\n"));
    }
    text.push_str(&format!(
        "R {} {}\n",
        report.tally.attempted, report.tally.failed
    ));
    text
}

/// `--child WORKLOAD MODE INPUTS MEMBERS READ_COUNT READ_BASES SECONDS [TRACE_OUT]`
fn child_main(args: &[String]) -> Result<(), String> {
    let malformed = || format!("malformed --child arguments: {args:?}");
    let [workload, mode, inputs, members, read_count, read_bases, seconds, rest @ ..] = args else {
        return Err(malformed());
    };
    let args = ChildArgs {
        workload: Workload::from_name(workload).ok_or_else(malformed)?,
        mode: [Mode::Measure, Mode::Trace, Mode::UnbatchedRss]
            .into_iter()
            .find(|&m| mode_name(m) == mode)
            .ok_or_else(malformed)?,
        inputs: PathBuf::from(inputs),
        members: members.parse().map_err(|_| malformed())?,
        read_count: read_count.parse().map_err(|_| malformed())?,
        read_bases: read_bases.parse().map_err(|_| malformed())?,
        seconds: seconds.parse().map_err(|_| malformed())?,
        trace_out: rest.first().map(PathBuf::from),
    };
    print!("{}", format_child_output(&child::run(&args)?));
    Ok(())
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Runs the selected workloads and prints every metric; `Ok(false)` when any
/// operation failed.
fn report(cli: &Cli) -> Result<bool, String> {
    // With `--trace` given this is the driver's one run: its result line must
    // be the last line of output.
    let runs: &[bool] = match cli.trace {
        Some(traced) => &[traced],
        None => &[false, true],
    };
    if cli.trace.is_none() {
        print_host();
    }
    let mut all_correct = true;
    for &workload in &cli.workloads {
        for &traced in runs {
            let result = run_once(workload, cli, traced)?;
            result.print_table();
            println!("{}", result.to_json());
            all_correct &= result.correct;
        }
    }
    Ok(all_correct)
}

/// Best-effort provenance for the table: cores, compiler, commit.
fn print_host() {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    println!(
        "# host nproc={} rustc=\"{}\" git={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        run("rustc", &["-V"]),
        run("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// The distance between two readings as a share of the first.
fn relative_difference(a: f64, b: f64) -> f64 {
    (b - a).abs() / a.abs()
}

/// The A/A check: the whole set twice on this binary. Every end-to-end metric
/// of the two sets but `setup_s` must agree within its bound, and every metric
/// computed from the outputs alone must be identical.
fn aa(cli: &Cli) -> Result<bool, String> {
    print_host();
    let mut agree = true;
    for &workload in &cli.workloads {
        let first = run_once(workload, cli, false)?;
        let second = run_once(workload, cli, false)?;
        agree &= first.correct && second.correct;
        for metric in END_TO_END {
            let (Some(a), Some(b)) = (first.get(metric.name), second.get(metric.name)) else {
                agree = false;
                continue;
            };
            let difference = relative_difference(a, b);
            // `setup_s` is printed but not held to its bound here, as the
            // driver exempts it from the spread rule: one pair of readings of a
            // 20 ms set-up differs by 40 % whenever the host's clock steps.
            let exempt = metric.name == SETUP_S;
            let ok = if metric.exact {
                a == b
            } else {
                exempt || difference <= metric.bound
            };
            agree &= ok;
            println!(
                "{} {} {a} {b} {} diff={difference:.4} bound={}{} {}",
                workload.name(),
                metric.name,
                metric.unit,
                metric.bound,
                if metric.exact { " exact" } else { "" },
                match (ok, exempt) {
                    (false, _) => "DISAGREE",
                    (true, true) => "exempt",
                    (true, false) => "ok",
                },
            );
        }
    }
    println!("# A/A {}", if agree { "agrees" } else { "DISAGREES" });
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_takes_the_driver_arguments() {
        let cli = parse_cli(&strings(&[
            "--workload",
            "asm_mt",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("driver arguments parse");
        assert_eq!(cli.workloads, vec![Workload::AsmMt]);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (11, 10.0, Some(true)));
        let all = parse_cli(&[]).expect("no arguments parse");
        assert_eq!(all.workloads, Workload::ALL.to_vec());
        assert_eq!((all.seed, all.trace, all.aa), (DEFAULT_SEED, None, false));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed", "-1"],
            &["--seconds"],
            &["--frobnicate"],
            // Every workload's traced child would write the one file.
            &["--trace-out", "spans.json"],
            &[
                "--workload",
                "asm_1t",
                "--trace",
                "0",
                "--trace-out",
                "spans.json",
            ],
        ] {
            assert!(parse_cli(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn child_reports_round_trip_through_the_pipe_format() {
        let mut report = ChildReport::default();
        report.metrics.set("wall_s", 0.1 + 0.2);
        report.metrics.set("n50", 25.0);
        let text = "M wall_s 0.30000000000000004\nM n50 25\nR 5 1\n";
        let parsed = parse_child_output(text).expect("well-formed");
        assert_eq!(parsed.metrics.get("wall_s"), Some(0.1 + 0.2));
        assert_eq!(parsed.metrics.get("n50"), Some(25.0));
        assert_eq!((parsed.tally.attempted, parsed.tally.failed), (5, 1));
        // A report cut short (a crashed child) or with stray lines is refused.
        assert!(parse_child_output("M wall_s 1\n").is_none());
        assert!(parse_child_output("hello\nR 1 0\n").is_none());
        assert!(parse_child_output("M wall_s fast\nR 1 0\n").is_none());
    }

    /// Runs each workload's child in-process on a 5 kbp input (two such members
    /// where the workload has several) and checks that
    /// the composed result carries exactly the metric names `BENCHMARK.json`
    /// declares, for the untraced and the traced run.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let dir =
            std::env::temp_dir().join(format!("nmp-pak-benchmark-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        for workload in Workload::ALL {
            let setup = set_up(5_000, workload.members().min(2), 3, &dir).expect("5 kbp inputs");
            for traced in [false, true] {
                let args = ChildArgs {
                    workload,
                    mode: if traced { Mode::Trace } else { Mode::Measure },
                    inputs: setup.inputs.dir.clone(),
                    members: setup.inputs.members,
                    read_count: setup.inputs.read_count,
                    read_bases: setup.inputs.read_bases,
                    seconds: 0.0,
                    trace_out: traced.then(|| dir.join(format!("{}.spans.json", workload.name()))),
                };
                let report = child::run(&args).expect("child runs");
                // Piping the report through the text format is part of the path.
                let report =
                    parse_child_output(&format_child_output(&report)).expect("well-formed report");
                let unbatched = (traced && workload == Workload::BatchStream).then_some(100.0);
                let result = compose(workload, traced, &setup, report, unbatched);

                let label = format!("{} traced={traced}", workload.name());
                let names: Vec<&str> = result.metrics.iter().map(|(n, ..)| n.as_str()).collect();
                let declared: Vec<String> = if traced {
                    metrics::per_layer().into_iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name.to_string()).collect()
                };
                assert_eq!(names, declared, "{label}");
                assert!(result.correct, "{label}: {result:?}");
                assert_eq!(result.failed, 0, "{label}");
                assert!(result.attempted >= 1, "{label}");
                if !traced {
                    assert!(
                        result.metrics.iter().all(|&(_, v, _)| v > 0.0),
                        "{label}: {result:?}"
                    );
                }
                let line = result.to_json().to_string();
                assert!(
                    line.starts_with("{\"correct\":true,\"attempted\":"),
                    "{label}: {line}"
                );
                assert!(
                    !line.contains('\n') && !line.contains("null"),
                    "{label}: {line}"
                );
            }
            assert!(dir
                .join(format!("{}.spans.json", workload.name()))
                .is_file());
        }
        std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    }
}
