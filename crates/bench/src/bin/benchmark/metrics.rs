//! Every metric the benchmark reports, declared once: `BENCHMARK.json` is
//! generated from these tables (`--manifest`) and a test pins the two together.

use crate::json::Json;
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees; reported by every workload's untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; also the A/A tolerance.
    pub bound: f64,
    /// Computed from the outputs alone: two runs on one seed must agree exactly.
    pub exact: bool,
}

pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "read_mbases_per_s",
        unit: "Mbases/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "ref_kmer_recall",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
        exact: true,
    },
    EndToEnd {
        name: "duplication_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "n50",
        unit: "bases",
        better: Better::Higher,
        bound: 0.25,
        exact: true,
    },
];

/// The seven §5.3 configurations `BackendRegistry::standard` simulates, in
/// Fig. 12 order; each gets a host-time and a simulated-time metric.
pub const BACKENDS: [&str; 7] = [
    "cpu-baseline-unoptimized",
    "cpu-baseline",
    "gpu-baseline",
    "cpu-pak",
    "nmp-pak",
    "nmp-ideal-pe",
    "nmp-ideal-forwarding",
];

/// Whether `workload`'s traced run exercises the layer a per-layer metric
/// belongs to; a metric of a layer it never runs is reported as 0.
pub fn applies(workload: Workload, metric: &str) -> bool {
    let under = |prefixes: &[&str]| prefixes.iter().any(|prefix| metric.starts_with(prefix));
    let streamed = under(&["genome.prefetch_", "spill.", "batch."]);
    let simulated = under(&["core.", "memsim.", "nmphw.", "sim."]);
    let twin = metric.starts_with("bench.thread_");
    match workload {
        Workload::Asm1t => !(streamed || simulated || twin),
        Workload::AsmMt => !(streamed || simulated),
        // The streamed path never holds the whole graph the shard probe needs.
        Workload::BatchStream => !(simulated || twin || metric.starts_with("shard.")),
        Workload::SimFig12 => !(streamed || twin),
    }
}

/// A metric of a single layer; reported by every workload's traced run.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

const PER_LAYER: &[(&str, &str, Better)] = {
    use Better::{Higher, Lower};
    &[
        // genome: input generation (set-up) and FASTQ ingestion.
        ("genome.synthesize_s", "s", Lower),
        ("genome.fastq_write_s", "s", Lower),
        ("genome.fastq_parse_s", "s", Lower),
        ("genome.fastq_parse_mbytes_per_s", "MB/s", Higher),
        ("genome.prefetch_wait_s", "s", Lower),
        // pakman stage B: k-mer counting.
        ("kmer_count.s", "s", Lower),
        ("kmer_count.ns_per_kmer", "ns", Lower),
        ("kmer_count.total_kmers", "count", Lower),
        ("kmer_count.kept_kmers", "count", Lower),
        ("kmer_count.kept_ratio", "ratio", Higher),
        // pakman stage B, external-memory path.
        ("spill.count_s", "s", Lower),
        ("spill.in_memory_count_s", "s", Lower),
        ("spill.overhead_x", "x", Lower),
        ("spill.bytes_spilled", "bytes", Lower),
        ("spill.runs_written", "count", Lower),
        ("spill.merge_passes", "count", Lower),
        ("spill.peak_resident_bytes", "bytes", Lower),
        // pakman stage C: MacroNode construction.
        ("graph.construct_s", "s", Lower),
        ("graph.ns_per_node", "ns", Lower),
        ("graph.nodes", "count", Lower),
        ("graph.macronode_bytes", "bytes", Lower),
        // pakman stage D: Iterative Compaction.
        ("compaction.s", "s", Lower),
        ("compaction.iterations", "count", Lower),
        ("compaction.checked_nodes", "count", Lower),
        ("compaction.invalidated_nodes", "count", Higher),
        ("compaction.useful_check_ratio", "ratio", Higher),
        ("compaction.transfers", "count", Lower),
        ("compaction.final_nodes", "count", Lower),
        ("compaction.ns_per_checked_node", "ns", Lower),
        // pakman sharded engine (a probe: no workload shards by default).
        ("shard.construct_s", "s", Lower),
        ("shard.lockstep_s", "s", Lower),
        ("shard.async_s", "s", Lower),
        ("shard.overhead_x", "x", Lower),
        ("shard.async_vs_lockstep_x", "x", Lower),
        ("shard.mailbox_bytes", "bytes", Lower),
        ("shard.cross_shard_fraction", "ratio", Lower),
        ("shard.load_imbalance", "ratio", Lower),
        ("shard.flushes", "count", Lower),
        ("shard.async_mismatch", "count", Lower),
        // pakman stage E: graph walk.
        ("walk.s", "s", Lower),
        ("walk.serial_s", "s", Lower),
        ("walk.threaded_vs_serial_x", "x", Lower),
        ("walk.fasta_stream_s", "s", Lower),
        ("walk.contigs", "count", Lower),
        ("walk.contig_bases", "bases", Lower),
        ("walk.ns_per_contig_base", "ns", Lower),
        // pakman batch scheduler and the footprint model.
        ("batch.sequential_s", "s", Lower),
        ("batch.overlap_x", "x", Higher),
        ("batch.stage_sum_s", "s", Lower),
        ("batch.merge_self_s", "s", Lower),
        ("batch.batches", "count", Lower),
        ("batch.peak_inflight_read_bytes", "bytes", Lower),
        ("batch.footprint_reduction_model", "x", Higher),
        ("batch.footprint_reduction_measured", "x", Higher),
        ("memory.model_peak_mb", "MB", Lower),
        ("memory.rss_mb", "MB", Lower),
        ("memory.rss_vs_model_x", "x", Lower),
        // core / memsim / nmphw: the simulated-hardware layer. Host time may
        // improve; simulated statistics must repeat exactly.
        ("core.trace_record_overhead_x", "x", Lower),
        ("core.trace_events", "count", Lower),
        ("core.sim_host_s", "s", Lower),
        ("core.sim_events_per_s", "1/s", Higher),
        ("memsim.layout_s", "s", Lower),
        ("memsim.traffic_reduction_x", "x", Higher),
        ("memsim.cpu_bw_util", "ratio", Higher),
        ("nmphw.nmp_speedup", "x", Higher),
        ("nmphw.speedup_rel_err", "ratio", Lower),
        ("nmphw.nmp_vs_cpu_pak_x", "x", Higher),
        ("nmphw.intra_dimm_fraction", "ratio", Higher),
        ("nmphw.nmp_bw_util", "ratio", Higher),
        // The benchmark itself: what explains wall-clock noise.
        ("bench.host_speed_x", "x", Higher),
        ("bench.e2e_wall_s", "s", Lower),
        ("bench.staged_wall_s", "s", Lower),
        ("bench.trace_overhead_x", "x", Lower),
        ("bench.attributed_share", "ratio", Higher),
        ("bench.thread_speedup_x", "x", Higher),
        ("bench.cpu_user_s", "s", Lower),
        ("bench.cpu_sys_s", "s", Lower),
    ]
};

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut all: Vec<PerLayer> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
        .collect();
    for backend in BACKENDS {
        all.push(PerLayer {
            name: host_time_metric(backend),
            unit: "s",
            better: Better::Lower,
        });
        all.push(PerLayer {
            name: simulated_time_metric(backend),
            unit: "ms",
            better: Better::Lower,
        });
    }
    all
}

/// Host seconds one backend's `simulate` took.
pub fn host_time_metric(backend: &str) -> String {
    format!("core.sim_host_s.{backend}")
}

/// Simulated Iterative Compaction runtime on one backend.
pub fn simulated_time_metric(backend: &str) -> String {
    format!("sim.runtime_ms.{backend}")
}

/// The driver command of `BENCHMARK.json`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/benchmark/Cargo.toml",
    "--",
];

const PATHS: [&str; 1] = ["crates/bench/src/bin/benchmark"];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let strings =
        |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let field = |key: &str, value: &str| (key.to_string(), Json::Str(value.to_string()));
    Json::Obj(vec![
        ("command".into(), strings(&COMMAND)),
        ("paths".into(), strings(&PATHS)),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Json::Obj(vec![field("name", w.name()), field("why", w.why())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            field("name", m.name),
                            field("unit", m.unit),
                            field("better", m.better.as_str()),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            field("name", &m.name),
                            field("unit", m.unit),
                            field("better", m.better.as_str()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for w in Workload::ALL {
            assert!(is_name(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name().to_string()), "duplicate {}", w.name());
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        let layers = per_layer();
        assert!(
            !layers.is_empty() && layers.len() <= 128,
            "{} per-layer metrics",
            layers.len()
        );
        for m in &layers {
            assert!(is_name(&m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == SETUP_S)
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_workload_skips_some_layers_and_runs_the_stages() {
        let layers = per_layer();
        for w in Workload::ALL {
            assert!(layers.iter().any(|m| !applies(w, &m.name)), "{}", w.name());
            for stage in [
                "kmer_count.s",
                "graph.nodes",
                "compaction.s",
                "walk.s",
                "memory.rss_mb",
            ] {
                assert!(applies(w, stage), "{} {stage}", w.name());
            }
        }
        assert!(applies(Workload::BatchStream, "spill.count_s"));
        assert!(!applies(Workload::BatchStream, "shard.lockstep_s"));
        assert!(applies(Workload::SimFig12, "sim.runtime_ms.nmp-pak"));
        assert!(!applies(Workload::Asm1t, "core.sim_host_s"));
        assert!(applies(Workload::AsmMt, "bench.thread_speedup_x"));
        assert!(!applies(Workload::Asm1t, "bench.thread_speedup_x"));
    }

    #[test]
    fn backends_are_the_standard_registry() {
        let ids = nmp_pak_core::BackendRegistry::standard(&nmp_pak_core::SystemConfig::default())
            .ids()
            .iter()
            .map(|id| id.as_str())
            .collect::<Vec<_>>();
        assert_eq!(ids, BACKENDS);
    }

    /// `CARGO_MANIFEST_DIR` is `crates/bench` under the workspace and this
    /// directory when built as a package of its own.
    fn repository_root() -> &'static std::path::Path {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").is_file() && dir.join("ROADMAP.md").is_file())
            .expect("repository root above the manifest directory")
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = std::fs::read_to_string(repository_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json");
        assert_eq!(
            committed,
            manifest().pretty(),
            "regenerate with `benchmark --manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    /// The lines of one table of a manifest, comments and blanks left out.
    fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|line| line.trim() != header)
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
            .collect()
    }

    /// The measured build (this directory's own `Cargo.toml`) and the tested one
    /// (`nmp-pak-bench`'s auto-discovered binary) must not drift apart.
    #[test]
    fn own_package_builds_what_the_workspace_builds() {
        let read = |path: &str| std::fs::read_to_string(repository_root().join(path)).expect(path);
        let own = read(&format!("{}/Cargo.toml", PATHS[0]));
        let bench = read("crates/bench/Cargo.toml");
        let workspace = read("Cargo.toml");
        let names = |manifest: &str| -> Vec<String> {
            table(manifest, "[dependencies]")
                .iter()
                .filter_map(|line| {
                    line.split_once('=')
                        .map(|(name, _)| name.trim().to_string())
                })
                .collect()
        };
        let own_names = names(&own);
        assert!(!own_names.is_empty());
        for name in &own_names {
            assert!(
                names(&bench).contains(name),
                "{name} is not a dependency of nmp-pak-bench"
            );
        }
        let profile = table(&workspace, "[profile.release]");
        assert!(!profile.is_empty());
        assert_eq!(table(&own, "[profile.release]"), profile);
        assert_eq!(COMMAND[6], format!("{}/Cargo.toml", PATHS[0]));
    }
}
