//! The CI sweeps' report: a check past its floor, or a NaN anywhere, fails
//! it; its JSON shape; and the exit status of `experiments sweep` that CI
//! depends on.

use nmp_pak_bench::report::{self, Check, Floor};
use nmp_pak_bench::sweep;
use std::path::{Path, PathBuf};
use std::process::Command;

fn check(cell: &str, floor: Floor, observed: f64) -> Check {
    Check {
        cell: cell.to_string(),
        metric: "n50",
        floor,
        observed,
    }
}

#[test]
fn violated_gate_fails_the_report_without_erroring() {
    let checks = [
        check("shards=8", Floor::AtLeast(1.0), 29.0),
        check("shards=8", Floor::AtLeast(1e12), 29.0),
    ];
    assert!(checks[0].passed() && !checks[1].passed());
    report::print("multinode", &checks);
    let json = report::to_json("multinode", &checks);
    assert!(json.contains("\"passed\": false,\n"), "{json}");
    assert!(json.contains("\"floor\": 1000000000000, \"observed\": 29, \"passed\": false}"));
    assert_eq!(json.matches("\"passed\": true}").count(), 1, "{json}");
}

#[test]
fn a_nan_metric_fails_its_gate_wherever_the_cell_sits() {
    for floor in [Floor::AtLeast(1.0), Floor::AtMost(100.0)] {
        for nan_at in 0..3 {
            let checks: Vec<Check> = ["shards=2", "shards=4", "shards=8"]
                .iter()
                .enumerate()
                .map(|(i, cell)| check(cell, floor, if i == nan_at { f64::NAN } else { 29.0 }))
                .collect();
            let failed: Vec<bool> = checks.iter().map(|c| !c.passed()).collect();
            let expected: Vec<bool> = (0..3).map(|i| i == nan_at).collect();
            assert_eq!(failed, expected, "{floor:?}, NaN at {nan_at}");
            let json = report::to_json("sharding", &checks);
            assert!(json.contains("\"passed\": false,\n"), "{json}");
            assert_eq!(
                json.matches("\"observed\": null, \"passed\": false}")
                    .count(),
                1
            );
            assert_eq!(
                json.matches("\"observed\": 29, \"passed\": true}").count(),
                2
            );
        }
    }
}

#[test]
fn report_json_is_structurally_sound() {
    let checks = sweep::multinode().unwrap();
    let json = report::to_json("multinode", &checks);
    assert!(json.contains("\"sweep\": \"multinode\""));
    assert!(json.contains("\"passed\": true,\n"));
    assert_eq!(json.matches("\"cell\":").count(), checks.len());
    assert_eq!(json.matches("\"passed\": true}").count(), checks.len());
    // Balanced braces/brackets (cheap well-formedness check without a parser).
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
}

/// The projections read the run's census, not its wall time, so every value
/// is a function of the 8-shard ledger and the default full mesh: pinned by
/// its bits, in two executions.
#[test]
fn multinode_projections_repeat_bit_for_bit_across_executions() {
    const PINNED: [(&str, u64); 5] = [
        ("n50", 0x403d000000000000),                             // 29
        ("multinode.nodes2_speedup", 0x3fff9816a64351db),        // 1.9746
        ("multinode.nodes4_speedup", 0x400f467359d3e500),        // 3.9094
        ("multinode.nodes8_speedup", 0x401ebf252c678b88),        // 7.6867
        ("multinode.nodes8_cross_fraction", 0x3fec16117ae8158a), // 0.8777
    ];
    let bits = |checks: Vec<Check>| -> Vec<(&'static str, u64)> {
        checks
            .iter()
            .map(|c| (c.metric, c.observed.to_bits()))
            .collect()
    };
    assert_eq!(bits(sweep::multinode().unwrap()), PINNED);
    assert_eq!(bits(sweep::multinode().unwrap()), PINNED);
}

/// A fresh directory for one run of the binary, and the report path in it.
fn scratch(test: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("nmp-pak-sweep-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.json");
    (dir, report)
}

fn experiments(dir: &Path, report: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .env("NMP_PAK_SWEEP_OUT", report)
        .output()
        .unwrap()
}

#[test]
fn sweep_without_one_known_name_fails_and_writes_no_report() {
    let (dir, report) = scratch("usage");
    for args in [
        &["sweep"][..],
        &["sweep", "fig99"],
        &["sweep", "fig12", "n50>=1"],
    ] {
        let output = experiments(&dir, &report, args);
        assert!(!output.status.success(), "{args:?} exited 0");
        assert!(!report.exists(), "{args:?} wrote a report");
        assert!(!dir.join("BENCH_sweep.json").exists());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_fig12_passes_and_writes_its_report() {
    let (dir, report) = scratch("fig12");
    let output = experiments(&dir, &report, &["sweep", "fig12"]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json = std::fs::read_to_string(&report).unwrap();
    assert_eq!(json.matches("\"passed\": true}").count(), 4, "{json}");
    assert!(!json.contains("\"passed\": false"), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}
