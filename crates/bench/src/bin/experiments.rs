//! Prints every table and figure of the NMP-PaK evaluation for the synthetic
//! workload, and runs the recipe sweeps that carry the CI floors.
//!
//! Usage:
//!
//! ```text
//! experiments            # print every figure/table at the quick scale
//!                        # (writes no file)
//! experiments fig12 tab1 # print a subset
//! experiments sweep fig12          # run a recipe sweep — writes ./BENCH_sweep.json
//!                                  # and exits 1 when a recipe gate is violated
//! experiments sweep fig12 'normalized_performance>=100'  # extra ad-hoc gate
//!                                  # (applies to every cell; exit 1 on violation)
//! NMP_PAK_SWEEP_OUT=/tmp/s.json experiments sweep smoke  # sweep report path
//! NMP_PAK_BENCH_SCALE=standard experiments   # the 100 kbp workload (slower)
//! ```

use nmp_pak_bench::sweep::{print_report, run_sweep, write_report};
use nmp_pak_bench::{pct, prepare_experiments, BenchScale};
use nmp_pak_core::experiments::Experiments;
use nmp_pak_recipe::{builtin, Gate};

/// Every subcommand `main` dispatches on (plus `sweep`, handled separately).
const KNOWN_SUBCOMMANDS: &[&str] = &[
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "tab1",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "comm",
    "table3",
    "tab3",
    "supercomputer",
    "footprint",
];

fn usage() -> String {
    format!(
        "usage: experiments [SUBCOMMAND]...\n       experiments sweep <recipe> \
         [metric>=x | metric<=x]...\n\nsubcommands: {}\nrecipes:     {}",
        KNOWN_SUBCOMMANDS.join(" "),
        builtin::names().join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();

    if args.first().map(String::as_str) == Some("sweep") {
        sweep_main(&args[1..]);
        return;
    }
    if let Some(unknown) = args
        .iter()
        .find(|a| !KNOWN_SUBCOMMANDS.contains(&a.as_str()))
    {
        eprintln!("error: unknown subcommand `{unknown}`\n\n{}", usage());
        std::process::exit(1);
    }

    let wanted = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    let scale = BenchScale::from_env();
    eprintln!("# preparing workload and backend simulations ({scale:?} scale)…");
    let exp = prepare_experiments(scale);
    eprintln!(
        "# workload: {} ({} reads, {} bases); compaction: {} iterations, {} -> {} MacroNodes\n",
        exp.workload.name,
        exp.workload.reads.len(),
        exp.workload.total_read_bases(),
        exp.assembly.compaction.iteration_count(),
        exp.assembly.compaction.initial_nodes,
        exp.assembly.compaction.final_nodes,
    );

    if wanted("fig5") {
        fig5(&exp);
    }
    if wanted("fig6") {
        fig6(&exp);
    }
    if wanted("fig7") {
        fig7(&exp);
    }
    if wanted("fig8") {
        fig8(&exp);
    }
    if wanted("table1") || wanted("tab1") {
        table1(&exp);
    }
    if wanted("fig12") {
        fig12(&exp);
    }
    if wanted("fig13") {
        fig13(&exp);
    }
    if wanted("fig14") {
        fig14(&exp);
    }
    if wanted("fig15") {
        fig15(&exp);
    }
    if wanted("comm") {
        comm(&exp);
    }
    if wanted("table3") || wanted("tab3") {
        table3(&exp);
    }
    if wanted("supercomputer") {
        supercomputer(&exp);
    }
    if wanted("footprint") {
        footprint(&exp);
    }
}

/// `experiments sweep <recipe> [metric>=x | metric<=x]...`:
/// resolves a shipped recipe, runs it with the vendored-baseline probe,
/// prints the matrix, writes `BENCH_sweep.json` (path override:
/// `NMP_PAK_SWEEP_OUT`), and exits 1 when any gate — built-in or ad-hoc —
/// is violated.
fn sweep_main(args: &[String]) {
    let Some(name) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("error: `sweep` needs a recipe name\n\n{}", usage());
        std::process::exit(1);
    };
    let Some(mut recipe) = builtin::by_name(name) else {
        eprintln!(
            "error: unknown recipe `{name}` (shipped recipes: {})\n\n{}",
            builtin::names().join(" "),
            usage()
        );
        std::process::exit(1);
    };

    for arg in &args[1..] {
        let Some(gate) = parse_gate(arg) else {
            eprintln!("error: unknown sweep argument `{arg}`\n\n{}", usage());
            std::process::exit(1);
        };
        recipe.gates.push(gate);
    }

    let report = match run_sweep(&recipe) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: sweep `{name}` failed: {err}");
            std::process::exit(1);
        }
    };
    print_report(&report);

    let path =
        std::env::var("NMP_PAK_SWEEP_OUT").unwrap_or_else(|_| "BENCH_sweep.json".to_string());
    match write_report(&report, &path) {
        Ok(()) => println!("\nwrote {path}"),
        Err(err) => {
            eprintln!("error: could not write {path}: {err}");
            std::process::exit(1);
        }
    }
    if !report.passed() {
        eprintln!("\nFAIL: one or more sweep gates violated");
        std::process::exit(1);
    }
}

/// Parses an ad-hoc gate argument of the form `metric>=x` or `metric<=x`.
/// Ad-hoc gates apply to every cell of the sweep.
fn parse_gate(arg: &str) -> Option<Gate> {
    let (metric, threshold, at_least) = if let Some((m, t)) = arg.split_once(">=") {
        (m, t, true)
    } else if let Some((m, t)) = arg.split_once("<=") {
        (m, t, false)
    } else {
        return None;
    };
    let threshold: f64 = threshold.trim().parse().ok()?;
    let metric = metric.trim();
    if metric.is_empty() {
        return None;
    }
    Some(if at_least {
        Gate::at_least(metric, threshold)
    } else {
        Gate::at_most(metric, threshold)
    })
}

fn heading(title: &str) {
    println!("\n== {title} ==");
}

fn fig5(exp: &Experiments) {
    heading("Fig. 5 — PaKman phase runtime breakdown");
    for row in exp.fig5_phase_breakdown() {
        println!("{:<36} {}", row.label, pct(row.value));
    }
}

fn fig6(exp: &Experiments) {
    heading("Fig. 6 — Iterative Compaction stall breakdown (CPU baseline)");
    let s = exp.fig6_stall_breakdown();
    for (label, value) in [
        ("base", s.base),
        ("branch", s.branch),
        ("mem-l3", s.mem_l3),
        ("mem-dram", s.mem_dram),
        ("sync-futex", s.sync_futex),
        ("other", s.other),
    ] {
        println!("{label:<12} {}", pct(value));
    }
}

fn fig7(exp: &Experiments) {
    heading("Fig. 7 — MacroNode size distribution across compaction");
    let bounds = nmp_pak_pakman::SizeHistogram::BUCKET_BOUNDS;
    print!("{:<12}", "iteration");
    for b in bounds {
        print!("{:>8}", format!("≤{b}"));
    }
    println!("{:>8}", ">32K");
    for (iteration, hist) in exp.fig7_size_distributions() {
        print!("{iteration:<12}");
        for count in hist.counts() {
            print!("{count:>8}");
        }
        println!();
    }
}

fn fig8(exp: &Experiments) {
    heading("Fig. 8 — proportion of MacroNodes exceeding size thresholds");
    println!(
        "{:<12}{:>10}{:>10}{:>10}{:>10}",
        "iteration", ">1KB", ">2KB", ">4KB", ">8KB"
    );
    for (iteration, f) in exp.fig8_oversize_fractions() {
        println!(
            "{iteration:<12}{:>10}{:>10}{:>10}{:>10}",
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3])
        );
    }
}

fn table1(exp: &Experiments) {
    heading("Table 1 — contig quality (N50) vs batch size");
    let fractions = [0.005, 0.01, 0.03, 0.04, 0.05, 0.10, 1.0];
    match exp.table1_batch_quality(&fractions) {
        Ok(rows) => {
            for row in rows {
                println!("batch {:<8} N50 = {}", row.label, row.value as u64);
            }
        }
        Err(err) => println!("(table 1 unavailable for this workload: {err})"),
    }
}

fn fig12(exp: &Experiments) {
    heading("Fig. 12 — performance normalized to the CPU baseline");
    for row in exp.fig12_normalized_performance() {
        println!("{:<22} {:>6.2}x", row.label, row.value);
    }
}

fn fig13(exp: &Experiments) {
    heading("Fig. 13 — memory bandwidth utilization");
    for row in exp.fig13_bandwidth_utilization() {
        println!("{:<22} {:>7}", row.label, pct(row.value));
    }
}

fn fig14(exp: &Experiments) {
    heading("Fig. 14 — memory traffic normalized to CPU-baseline reads");
    println!("{:<22}{:>10}{:>10}", "backend", "reads", "writes");
    for (label, reads, writes) in exp.fig14_traffic() {
        println!("{label:<22}{reads:>10.2}{writes:>10.2}");
    }
}

fn fig15(exp: &Experiments) {
    heading("Fig. 15 — NMP-PaK performance vs PEs per channel");
    for row in exp.fig15_pe_sweep(&[1, 2, 4, 8, 16, 32, 64]) {
        println!("{:<10} {:>6.2}x", row.label, row.value);
    }
}

fn comm(exp: &Experiments) {
    heading("§6.3 — TransferNode communication locality");
    let c = exp.comm_breakdown();
    println!("intra-DIMM  {}", pct(c.intra_dimm_fraction()));
    println!("inter-DIMM  {}", pct(c.inter_dimm_fraction()));
    println!(
        "  of intra-DIMM, cross-PE {}",
        pct(c.cross_pe_fraction_of_intra())
    );
}

fn table3(exp: &Experiments) {
    heading("Table 3 — area and power");
    println!(
        "{:<40}{:>12}{:>12}",
        "component", "area (mm²)", "power (mW)"
    );
    for (name, area, power) in exp.table3_area_power() {
        println!("{name:<40}{area:>12.3}{power:>12.1}");
    }
}

fn supercomputer(exp: &Experiments) {
    heading("§6.4 — comparison with the PaKman supercomputer run");
    let sc = exp.supercomputer_comparison();
    println!(
        "single-node assembly time        {:.2} s",
        sc.nmp_single_node_seconds
    );
    println!(
        "supercomputer ({} cores)       {:.0} s",
        sc.supercomputer_cores, sc.supercomputer_seconds
    );
    println!(
        "supercomputer raw speed advantage {:.1}x",
        sc.supercomputer_speed_advantage
    );
    println!(
        "NMP-PaK throughput advantage      {:.1}x",
        sc.nmp_throughput_advantage
    );
    println!(
        "integration speedup (Amdahl)      {:.2}x",
        sc.supercomputer_integration_speedup
    );
}

fn footprint(exp: &Experiments) {
    heading("§3.5 / §6.6 — memory footprint and GPU capacity");
    let f = exp.footprint_summary();
    println!("unoptimized peak     {} bytes", f.unoptimized_peak_bytes);
    println!("optimized peak       {} bytes", f.optimized_peak_bytes);
    println!("batched (10%) peak   {} bytes", f.batched_peak_bytes);
    println!("combined reduction   {:.1}x", f.reduction_factor);
    println!("fits a 40 GB GPU     {}", f.fits_gpu);
    println!(
        "GPU cluster power ratio {:.0}x, area ratio {:.0}x",
        f.gpu_power_ratio, f.gpu_area_ratio
    );
}
