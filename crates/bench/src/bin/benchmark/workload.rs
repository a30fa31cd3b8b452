//! The four benchmark workloads and their seeded inputs.

use nmp_pak_core::Workload as SynthesizedReads;
use nmp_pak_genome::fasta::{write_fasta_record, write_fastq};
use nmp_pak_pakman::{PakmanConfig, SpillConfig};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sequencing depth and substitution rate of every workload's reads
/// (100 bp reads; the 300 bp / 120 bp repeat families of `Workload::synthesize`).
const COVERAGE: f64 = 30.0;
const ERROR_RATE: f64 = 0.002;

/// Batches the streamed workload splits its reads into.
pub const BATCHES: usize = 4;

/// Resident-byte budget of the streamed workload's external-memory counter.
const SPILL_BUDGET_BYTES: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Asm1t,
    AsmMt,
    BatchStream,
    SimFig12,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Asm1t,
        Workload::AsmMt,
        Workload::BatchStream,
        Workload::SimFig12,
    ];

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Asm1t => "asm_1t",
            Workload::AsmMt => "asm_mt",
            Workload::BatchStream => "batch_stream",
            Workload::SimFig12 => "sim_fig12",
        }
    }

    /// Why the workload is in the set (copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Asm1t => {
                "400 kbp in-memory assembly at threads=1: the plain baseline, every A-E layer does \
                 its ordinary share, so a layer gain shows here and a threading change must not"
            }
            Workload::AsmMt => {
                "48 genomes of 5 kbp assembled one after another at threads=2, with a threads=1 \
                 twin per rep: the speculative walk does most of the work, so thread scaling \
                 shows here"
            }
            Workload::BatchStream => {
                "100 kbp FASTQ streamed in 4 batches with 1 MiB spilled counting: same layers used \
                 differently (file parsing, external-memory counting, merged graphs), tests RSS"
            }
            Workload::SimFig12 => {
                "100 kbp through run_all_backends: trace recording, node layout and the seven \
                 simulated backends do most of the work here and none elsewhere"
            }
        }
    }

    /// Reference genome length in bases. Sized so a run (the set-ups, a
    /// warm-up and `run_seconds` of timed reps) fits the per-run budget of the
    /// acceptance driver on a 2-core host; see the README's sizing table.
    pub fn genome_bp(self) -> usize {
        match self {
            Workload::Asm1t => 400_000,
            Workload::AsmMt => 5_000,
            Workload::BatchStream | Workload::SimFig12 => 100_000,
        }
    }

    /// Genomes (each with its own read set) one repetition assembles, one
    /// after another. The speculative walk's cost swings 4x between read sets
    /// of one size, so `asm_mt`'s wall clock is the sum over enough small read
    /// sets for runs on different seeds to be comparable (see the README).
    pub fn members(self) -> usize {
        match self {
            Workload::AsmMt => 48,
            _ => 1,
        }
    }

    pub fn threads(self) -> usize {
        match self {
            Workload::AsmMt => 2,
            _ => 1,
        }
    }

    /// The assembler configuration the workload's entry call runs with.
    pub fn config(self) -> PakmanConfig {
        PakmanConfig {
            k: crate::refeval::EVAL_K,
            min_kmer_count: 2,
            compaction_node_threshold: 100,
            threads: self.threads(),
            spill: match self {
                Workload::BatchStream => SpillConfig::bounded(SPILL_BUDGET_BYTES),
                _ => SpillConfig::in_memory(),
            },
            record_trace: self == Workload::SimFig12,
            ..PakmanConfig::default()
        }
    }
}

/// One generated input set on disk, plus what generating it cost.
#[derive(Debug)]
pub struct Inputs {
    /// Holds `reads_path(dir, member)` for every member and `reference_path(dir)`.
    pub dir: PathBuf,
    pub members: usize,
    pub read_count: usize,
    pub read_bases: u64,
    pub synthesize_s: f64,
    pub fastq_write_s: f64,
    /// Whole set-up: synthesis, FASTQ and reference FASTA.
    pub total_s: f64,
}

/// FASTQ file of one member's reads.
pub fn reads_path(dir: &Path, member: usize) -> PathBuf {
    dir.join(format!("reads.{member}.fastq"))
}

/// FASTA file of the reference genomes, one record per member.
pub fn reference_path(dir: &Path) -> PathBuf {
    dir.join("reference.fasta")
}

/// Generates the inputs of `workload` from `seed` (`members` genomes of
/// `genome_bp` bases each, member `i` from seed `seed * members + i`) and
/// writes them under `dir`: each member's reads as FASTQ and the references as
/// one FASTA. The same seed gives the same files.
pub fn generate_inputs(
    genome_bp: usize,
    members: usize,
    seed: u64,
    dir: &Path,
) -> Result<Inputs, String> {
    let started = Instant::now();
    let mut inputs = Inputs {
        dir: dir.to_path_buf(),
        members,
        read_count: 0,
        read_bases: 0,
        synthesize_s: 0.0,
        fastq_write_s: 0.0,
        total_s: 0.0,
    };
    let mut references = Vec::with_capacity(members);
    for member in 0..members {
        let member_started = Instant::now();
        let member_seed = seed
            .wrapping_mul(members as u64)
            .wrapping_add(member as u64);
        let synthesized =
            SynthesizedReads::synthesize("bench", genome_bp, COVERAGE, ERROR_RATE, member_seed)
                .map_err(|e| format!("cannot synthesize a {genome_bp} bp workload: {e}"))?;
        inputs.synthesize_s += member_started.elapsed().as_secs_f64();

        let write_started = Instant::now();
        write_file(&reads_path(dir, member), |w| {
            write_fastq(w, &synthesized.reads).map_err(|e| e.to_string())
        })?;
        inputs.fastq_write_s += write_started.elapsed().as_secs_f64();
        inputs.read_count += synthesized.reads.len();
        inputs.read_bases += synthesized.total_read_bases();
        references.push(
            synthesized
                .genome
                .expect("synthesized workloads carry their genome"),
        );
    }
    write_file(&reference_path(dir), |w| {
        references.iter().try_for_each(|genome| {
            write_fasta_record(w, genome.name(), genome.sequence(), 80).map_err(|e| e.to_string())
        })
    })?;
    inputs.total_s = started.elapsed().as_secs_f64();
    Ok(inputs)
}

fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), String>,
) -> Result<(), String> {
    let context = |e: String| format!("cannot write {}: {e}", path.display());
    let file = File::create(path).map_err(|e| context(e.to_string()))?;
    let mut writer = BufWriter::new(file);
    write(&mut writer).map_err(context)?;
    writer.flush().map_err(|e| context(e.to_string()))
}
