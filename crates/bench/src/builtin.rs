//! The built-in CI sweeps by name, as `experiments sweep <name>` looks them
//! up. The sweeps themselves are the functions of [`crate::sweep`].

use crate::sweep::{self, Checks};

/// The sweeps `experiments sweep` runs, in CI order.
pub const NAMES: [&str; 5] = ["smoke", "fig12", "sharding", "spill", "multinode"];

/// Runs the sweep called `name`, or returns `None` for a name not in
/// [`NAMES`].
pub fn run(name: &str) -> Option<Checks> {
    let sweep: fn() -> Checks = match name {
        "smoke" => sweep::smoke,
        "fig12" => sweep::fig12,
        "sharding" => sweep::sharding,
        "spill" => sweep::spill,
        "multinode" => sweep::multinode,
        _ => return None,
    };
    Some(sweep())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Check, Floor};
    use nmp_pak_pakman::ShardConfig;
    use std::sync::OnceLock;

    /// The metrics that are timings: meaningful in release builds only, so a
    /// debug run does not hold them to their floors.
    const TIMED: [&str; 6] = [
        "speedup.counting_plus_construction",
        "speedup.compaction",
        "critical_path_speedup",
        "pipelined_critical_path_speedup",
        "sharded_overhead_at_one",
        "spill_overhead",
    ];

    /// Every sweep's checks, from one run of each (≈ 15 s in a debug build)
    /// that the tests below share.
    fn checks() -> &'static [(&'static str, Vec<Check>)] {
        static CHECKS: OnceLock<Vec<(&str, Vec<Check>)>> = OnceLock::new();
        CHECKS.get_or_init(|| {
            NAMES
                .iter()
                .map(|&name| (name, run(name).unwrap().unwrap()))
                .collect()
        })
    }

    /// The distinct cells of the sweep called `name`, in order.
    fn cells(name: &str) -> Vec<&'static str> {
        let (_, checks) = checks().iter().find(|(n, _)| *n == name).unwrap();
        let mut cells: Vec<&str> = Vec::new();
        for check in checks {
            if !cells.contains(&check.cell.as_str()) {
                cells.push(&check.cell);
            }
        }
        cells
    }

    /// Every check of every sweep, in order, as `sweep cell: metric floor`.
    /// Nothing overrides a floor at run time, so a change to a cell, a metric
    /// or a floor has to edit this list (and DESIGN.md's "CI floors" table)
    /// in the same change. The six timing floors are 1.3 / 1.2 / 1.0 / 1.0 /
    /// ≤ 1.15 / ≤ 12; every other check must pass even in a debug build.
    #[test]
    fn ci_floors_are_the_documented_constants() {
        const DOCUMENTED: [&str; 26] = [
            "smoke threads=1 single: n50 >= 1",
            "smoke threads=4 single: n50 >= 1",
            "smoke threads=4 pipelined: n50 >= 1",
            "smoke threads=4 single: speedup.counting_plus_construction >= 1.3",
            "smoke threads=4 single: speedup.compaction >= 1.2",
            "smoke threads=4 pipelined: critical_path_speedup >= 1",
            "smoke threads=4 pipelined: pipelined_critical_path_speedup >= 1",
            "fig12 cpu-baseline: normalized_performance >= 1",
            "fig12 cpu-baseline: normalized_performance <= 1",
            "fig12 nmp-pak: normalized_performance >= 1",
            "fig12 assembly: n50 >= 1",
            "sharding shards=2: cross_shard_bytes >= 1",
            "sharding shards=4: cross_shard_bytes >= 1",
            "sharding shards=8: cross_shard_bytes >= 1",
            "sharding shards=8: cross_shard_fraction >= 0.5",
            "sharding shards=1: sharded_overhead_at_one <= 1.15",
            "spill budget=512KiB: bytes_spilled >= 1",
            "spill budget=64KiB: bytes_spilled >= 1",
            "spill budget=512KiB: merge_passes >= 1",
            "spill budget=64KiB: merge_passes >= 1",
            "spill budget=512KiB: spill_overhead <= 12",
            "multinode shards=8: n50 >= 1",
            "multinode shards=8: multinode.nodes2_speedup >= 0.05",
            "multinode shards=8: multinode.nodes4_speedup >= 0.05",
            "multinode shards=8: multinode.nodes8_speedup >= 0.05",
            "multinode shards=8: multinode.nodes8_cross_fraction >= 0.5",
        ];
        let mut listed = Vec::new();
        for (name, checks) in checks() {
            for check in checks {
                let floor = match check.floor {
                    Floor::AtLeast(floor) => format!(">= {floor}"),
                    Floor::AtMost(cap) => format!("<= {cap}"),
                };
                listed.push(format!("{name} {}: {} {floor}", check.cell, check.metric));
                if !TIMED.contains(&check.metric) {
                    assert!(check.passed(), "{name}: {check:?}");
                }
            }
        }
        assert_eq!(listed, DOCUMENTED);
    }

    /// The cells every sweep runs, in order, as `BENCH_sweep.json` names
    /// them; a name outside [`NAMES`] resolves to nothing.
    #[test]
    fn every_named_recipe_resolves_and_enumerates() {
        let listed: Vec<String> = checks()
            .iter()
            .map(|(name, _)| format!("{name}: {}", cells(name).join(", ")))
            .collect();
        let expected = [
            "smoke: threads=1 single, threads=4 single, threads=4 pipelined",
            "fig12: cpu-baseline, nmp-pak, assembly",
            "sharding: shards=2, shards=4, shards=8, shards=1",
            "spill: budget=512KiB, budget=64KiB",
            "multinode: shards=8",
        ];
        assert_eq!(listed, expected);
        assert!(run("fig99").is_none());
    }

    /// Every sharded assembly books mailbox bytes, from two shards up to one
    /// per channel; the one-shard cell is the overhead probe alone.
    #[test]
    fn sharding_runs_every_shard_count_up_to_the_channel_count() {
        let (_, checks) = checks().iter().find(|(n, _)| *n == "sharding").unwrap();
        let booked: Vec<&str> = checks
            .iter()
            .filter(|c| c.metric == "cross_shard_bytes")
            .map(|c| c.cell.as_str())
            .collect();
        let channels = format!("shards={}", ShardConfig::DEFAULT_CHANNELS);
        assert_eq!(booked, ["shards=2", "shards=4", channels.as_str()]);
        let fraction = checks
            .iter()
            .find(|c| c.metric == "cross_shard_fraction")
            .unwrap();
        assert_eq!(fraction.cell, channels);
    }

    /// Pipelining overlaps batch fronts with backs on other threads, so a
    /// single-thread pipelined cell would gain nothing.
    #[test]
    fn smoke_has_no_single_thread_pipelined_cell() {
        let cells = cells("smoke");
        assert_eq!(cells.len(), 3);
        assert!(!cells.contains(&"threads=1 pipelined"));
        assert!(cells.contains(&"threads=4 pipelined"));
    }
}
