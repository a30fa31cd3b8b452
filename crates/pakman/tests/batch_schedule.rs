//! What runs where in the batch scheduler, and what it leaves behind when a run
//! ends early: the contract behind "one batch graph resident at a time".
//!
//! Under [`BatchSchedule::Pipelined`] only ingest and counting (stages A–B) of
//! later batches run on workers; every batch's graph is built (C) and
//! compacted (D) on the calling thread, one after the other, so no two graphs
//! coexist. And whichever way a run ends — a batch pruned to nothing, a cancel
//! between two stages, a failing source — every byte it charged to a chained
//! ledger is released.

use nmp_pak_genome::{
    GenomeError, InMemorySource, ReadChunk, ReadSimulator, ReadSource, ReferenceGenome,
    SequencerConfig, SequencingRead,
};
use nmp_pak_pakman::{
    BatchAssembler, BatchSchedule, CancelToken, MemoryBudget, PakmanConfig, PakmanError,
    ProgressObserver, RunControl, SpillConfig,
};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

const K: usize = 17;
const BATCHES: usize = 5;

fn reads() -> Vec<SequencingRead> {
    let genome = ReferenceGenome::builder()
        .length(6_000)
        .no_repeats()
        .seed(0xBA7C)
        .build()
        .unwrap();
    ReadSimulator::new(SequencerConfig {
        coverage: 20.0,
        substitution_error_rate: 0.0,
        seed: 0xBA7D,
        ..SequencerConfig::default()
    })
    .simulate(&genome)
    .unwrap()
}

/// Counting spills under a 64 KiB bound, so stage B charges the chained ledger
/// next to the window's read bytes.
fn config() -> PakmanConfig {
    PakmanConfig {
        k: K,
        min_kmer_count: 1,
        compaction_node_threshold: 10,
        threads: 2,
        spill: SpillConfig::bounded(64 << 10),
        ..PakmanConfig::default()
    }
}

fn pipelined(depth: usize) -> BatchSchedule {
    BatchSchedule::Pipelined {
        depth,
        max_inflight_bytes: None,
    }
}

/// Records every `stage_started` with the thread it arrived on, and latches
/// `cancel` when the `cancel_at`-th stage C starts.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<(&'static str, ThreadId)>>,
    cancel: CancelToken,
    cancel_at: Option<usize>,
}

impl ProgressObserver for Recorder {
    fn stage_started(&self, stage: &'static str) {
        let mut events = self.events.lock().unwrap();
        events.push((stage, std::thread::current().id()));
        let constructions = events.iter().filter(|(s, _)| s.starts_with("C.")).count();
        if stage.starts_with("C.") && Some(constructions) == self.cancel_at {
            self.cancel.cancel();
        }
    }
}

#[test]
fn every_graph_is_built_and_compacted_on_the_calling_thread_one_at_a_time() {
    let reads = reads();
    let caller = std::thread::current().id();
    for depth in [1, 3] {
        let recorder = Recorder::default();
        let control = RunControl::default().observed_by(&recorder);
        BatchAssembler::with_schedule(config(), 1.0 / BATCHES as f64, pipelined(depth))
            .assemble_source_controlled(
                InMemorySource::chunked(&reads, reads.len().div_ceil(BATCHES)),
                &control,
            )
            .unwrap();
        let events = recorder.events.into_inner().unwrap();
        // Counting starts of later batches may fall anywhere in between.
        let counting = events.iter().filter(|(s, _)| s.starts_with("B.")).count();
        assert_eq!(counting, BATCHES, "depth {depth}");
        let graph_stages: Vec<_> = events
            .iter()
            .filter(|(stage, _)| stage.starts_with("C.") || stage.starts_with("D."))
            .collect();
        assert_eq!(graph_stages.len(), 2 * BATCHES, "depth {depth}");
        for (i, (stage, thread)) in graph_stages.into_iter().enumerate() {
            let expected = if i % 2 == 0 { "C." } else { "D." };
            assert!(
                stage.starts_with(expected),
                "depth {depth}: graph stage {i} is `{stage}`, not C₀ D₀ C₁ D₁ …"
            );
            assert_eq!(*thread, caller, "depth {depth}: `{stage}` ran on a worker");
        }
    }
}

#[test]
fn a_batch_pruned_to_nothing_mid_stream_changes_nothing_and_settles_the_ledger() {
    // The middle chunk holds only reads shorter than k: stage B prunes it to
    // nothing, and the batches around it must fold as if it were not there.
    let reads = reads();
    let half = reads.len() / 2;
    let short: Vec<SequencingRead> = reads[..8]
        .iter()
        .map(|r| SequencingRead::new(r.id().to_string(), r.sequence().slice(0, K - 1)))
        .collect();
    let mut stream = reads[..half].to_vec();
    stream.extend(short);
    stream.extend_from_slice(&reads[half..]);
    let ranges = vec![0..half, half..half + 8, half + 8..stream.len()];

    let run = |schedule| {
        let ledger = Arc::new(MemoryBudget::unbounded());
        let control = RunControl::default().with_ledger(&ledger);
        let output = BatchAssembler::with_schedule(config(), 1.0, schedule)
            .assemble_source_controlled(
                InMemorySource::with_ranges(&stream, ranges.clone()).unwrap(),
                &control,
            )
            .unwrap();
        assert!(ledger.peak_bytes() > 0, "{schedule:?} charged real memory");
        assert_eq!(ledger.used(), 0, "{schedule:?} left bytes on the ledger");
        output
    };
    let sequential = run(BatchSchedule::Sequential);
    assert_eq!(sequential.batch_compaction.len(), 2);
    for depth in [1, 3] {
        let output = run(pipelined(depth));
        assert_eq!(output.contigs, sequential.contigs, "depth {depth}");
        assert_eq!(output.batch_compaction, sequential.batch_compaction);
    }
}

#[test]
fn a_cancel_between_construction_and_compaction_settles_the_ledger() {
    let reads = reads();
    for schedule in [BatchSchedule::Sequential, pipelined(1), pipelined(3)] {
        let recorder = Recorder {
            cancel_at: Some(2),
            ..Recorder::default()
        };
        let ledger = Arc::new(MemoryBudget::unbounded());
        let control = RunControl::with_cancel(recorder.cancel.clone())
            .observed_by(&recorder)
            .with_ledger(&ledger);
        let result = BatchAssembler::with_schedule(config(), 1.0 / BATCHES as f64, schedule)
            .assemble_source_controlled(
                InMemorySource::chunked(&reads, reads.len().div_ceil(BATCHES)),
                &control,
            );
        match result {
            Err(PakmanError::Cancelled { at }) => {
                assert_eq!(at, "stage D (iterative compaction)", "{schedule:?}");
            }
            other => panic!("{schedule:?}: expected Cancelled, got {other:?}"),
        }
        assert!(ledger.peak_bytes() > 0, "{schedule:?} charged real memory");
        assert_eq!(ledger.used(), 0, "{schedule:?} left bytes on the ledger");
    }
}

/// Yields `good` chunks of the reads, then fails like a truncated file.
struct FailingSource<'r> {
    inner: InMemorySource<'r>,
    good: usize,
}

impl<'r> ReadSource<'r> for FailingSource<'r> {
    fn next_chunk(&mut self) -> Result<Option<ReadChunk<'r>>, GenomeError> {
        if self.good == 0 {
            return Err(GenomeError::ParseError {
                line: 1,
                message: "truncated record".to_string(),
            });
        }
        self.good -= 1;
        self.inner.next_chunk()
    }
}

#[test]
fn a_source_error_after_two_batches_settles_the_ledger() {
    let reads = reads();
    for schedule in [BatchSchedule::Sequential, pipelined(1), pipelined(3)] {
        let ledger = Arc::new(MemoryBudget::unbounded());
        let control = RunControl::default().with_ledger(&ledger);
        let result = BatchAssembler::with_schedule(config(), 1.0 / BATCHES as f64, schedule)
            .assemble_source_controlled(
                FailingSource {
                    inner: InMemorySource::chunked(&reads, reads.len().div_ceil(BATCHES)),
                    good: 2,
                },
                &control,
            );
        assert!(
            matches!(result, Err(PakmanError::Genome(_))),
            "{schedule:?}: {result:?}"
        );
        assert!(ledger.peak_bytes() > 0, "{schedule:?} charged real memory");
        assert_eq!(ledger.used(), 0, "{schedule:?} left bytes on the ledger");
    }
}
