//! The sweeps' own measurements in a debug build: smoke's timing probes and
//! sharding's and spill's telemetry produce every value their checks read,
//! every check not based on timing passes, and a check held past its floor
//! fails the sweep's report.

use nmp_pak_bench::report::{self, Check, Floor};
use nmp_pak_bench::sweep;

/// Asserts that every check of `checks` passes except those on the `timed`
/// metrics, each of which must be there and read a finite, positive value
/// (debug-build timings are not held to their release floors).
fn assert_passes_but_timings(name: &str, checks: &[Check], timed: &[&str]) {
    for metric in timed {
        assert!(
            checks.iter().any(|c| c.metric == *metric),
            "{name}: {metric}"
        );
    }
    for check in checks {
        let timing = check.observed.is_finite() && check.observed > 0.0;
        let ok = if timed.contains(&check.metric) {
            timing
        } else {
            check.passed()
        };
        assert!(ok, "{name}: {check:?}");
    }
}

#[test]
fn a_deliberately_violated_gate_fails_the_sweep() {
    let mut checks = sweep::fig12().unwrap();
    assert!(report::to_json("fig12", &checks).contains("\"passed\": true,\n"));
    let nmp = checks.iter().find(|c| c.cell == "nmp-pak").unwrap().clone();
    checks.push(Check {
        floor: Floor::AtLeast(100.0),
        ..nmp
    });
    assert!(report::to_json("fig12", &checks).contains("\"passed\": false,\n"));
}

#[test]
fn smoke_recipe_runs_with_the_baseline_probe() {
    let probes = [
        "speedup.counting_plus_construction",
        "speedup.compaction",
        "critical_path_speedup",
        "pipelined_critical_path_speedup",
    ];
    assert_passes_but_timings("smoke", &sweep::smoke().unwrap(), &probes);
}

#[test]
fn sharding_and_spill_recipes_carry_their_telemetry_gates() {
    let sharding = sweep::sharding().unwrap();
    assert_passes_but_timings("sharding", &sharding, &["sharded_overhead_at_one"]);
    let spill = sweep::spill().unwrap();
    assert_passes_but_timings("spill", &spill, &["spill_overhead"]);
    let passes: Vec<f64> = spill
        .iter()
        .filter(|c| c.metric == "merge_passes")
        .map(|c| c.observed)
        .collect();
    // The 64 KiB budget exists to force a multi-pass merge.
    assert_eq!(passes, [1.0, 3.0]);
}
