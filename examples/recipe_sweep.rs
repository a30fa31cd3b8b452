//! Build and run a custom scenario-sweep recipe: list the shards × threads
//! cells with plain iterators, leave out the oversubscribed corner, gate the
//! result on assembly quality and the measured cross-shard mailbox traffic,
//! and print the per-cell matrix.
//!
//! Exits non-zero if any gate is violated — the same contract as
//! `experiments sweep <recipe>`.
//!
//! ```text
//! cargo run --release --example recipe_sweep
//! ```

use nmp_pak::recipe::{metric, CellSelector, Executor, Gate, Recipe, ScenarioSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Shards x threads over one 10 kbp workload, minus the cell where
    //    shards would exceed threads x 4 (a demonstrative guard).
    let cells: Vec<ScenarioSpec> = [1, 4, 8]
        .into_iter()
        .flat_map(|shards| {
            [1, 4].map(|threads| ScenarioSpec {
                genome_length: 10_000,
                coverage: 15.0,
                shards,
                threads,
                ..ScenarioSpec::default()
            })
        })
        .filter(|s| s.shards <= s.threads * 4)
        .collect();
    println!("recipe lists {} cells:", cells.len());
    for spec in &cells {
        println!("  {}", spec.label());
    }
    let recipe = Recipe {
        name: "custom-shard-sweep".to_string(),
        description: "shards x threads over one tiny workload".to_string(),
        cells,
        gates: vec![
            Gate::at_least(metric::N50, 1.0),
            Gate::at_least(metric::CROSS_SHARD_BYTES, 1.0).on(CellSelector::sharded()),
        ],
    };

    // 2. Execute every cell in-process, in list order.

    let report = Executor::local().run(&recipe)?;

    // 3. The per-cell matrix: every cell is bit-identical to a one-shot
    //    PakmanAssembler run with the same configuration.
    println!("\nper-cell results:");
    for cell in &report.cells {
        println!(
            "  sh{} t{}: n50={} contigs={} cross_shard_bytes={}",
            cell.spec.shards,
            cell.spec.threads,
            cell.metric(metric::N50).unwrap_or(0.0),
            cell.metric(metric::CONTIGS).unwrap_or(0.0),
            cell.metric(metric::CROSS_SHARD_BYTES).unwrap_or(0.0),
        );
    }

    // 4. Gate verdicts decide the exit code.
    println!("\ngates:");
    for gate in &report.gates {
        let verdict = if gate.passed { "PASS" } else { "FAIL" };
        println!("  [{verdict}] {}", gate.description);
    }
    if !report.passed() {
        eprintln!("FAIL: sweep gates violated");
        std::process::exit(1);
    }
    println!("\nOK: all gates held");
    Ok(())
}
