//! End-to-end server tests: admission under a saturated ledger, mid-run
//! cancellation releasing the shared budget, and the determinism contract —
//! jobs scheduled concurrently on the shared pool produce contigs
//! bit-identical to one-shot [`PakmanAssembler`] runs.

use std::time::Duration;

use nmp_pak_genome::{ReadSimulator, ReferenceGenome, SequencerConfig, SyntheticSource};
use nmp_pak_pakman::{PakmanAssembler, PakmanConfig, PakmanError, ShardConfig};
use nmp_pak_server::{AssemblyServer, JobEvent, JobInput, JobPriority, JobSpec, ServerConfig};

const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

fn sequencer(seed: u64) -> SequencerConfig {
    SequencerConfig {
        coverage: 12.0,
        substitution_error_rate: 0.0,
        seed,
        ..SequencerConfig::default()
    }
}

fn config() -> PakmanConfig {
    PakmanConfig {
        k: 17,
        ..PakmanConfig::default()
    }
}

fn synthetic_input(genome_length: usize, genome_seed: u64, read_seed: u64) -> JobInput {
    JobInput::Synthetic {
        genome_length,
        genome_seed,
        sequencer: sequencer(read_seed),
    }
}

/// Blocks until `handle`'s stream yields an event matching `want`, panicking
/// on timeout or a closed stream.
fn wait_for_event(
    handle: &nmp_pak_server::JobHandle,
    mut want: impl FnMut(&JobEvent) -> bool,
) -> JobEvent {
    loop {
        let event = handle
            .events()
            .recv_timeout(EVENT_TIMEOUT)
            .expect("event stream closed or timed out before the awaited event");
        if want(&event) {
            return event;
        }
    }
}

#[test]
fn cancellation_mid_compaction_frees_the_reservation() {
    let server = AssemblyServer::start(ServerConfig {
        workers: 2,
        memory_cap_bytes: Some(1 << 30),
    });
    let spec = JobSpec::new(synthetic_input(60_000, 3, 4), config()).with_reservation(1 << 20);
    let handle = server.submit(spec).expect("valid config");

    // The reservation is held once the job is admitted...
    wait_for_event(&handle, |e| matches!(e, JobEvent::Admitted { .. }));
    assert_eq!(server.ledger().used(), 1 << 20);

    // ...cancel at the first compaction iteration: the stage observes the flag
    // at its next between-iterations checkpoint and unwinds.
    wait_for_event(&handle, |e| {
        matches!(e, JobEvent::CompactionIteration { .. })
    });
    handle.cancel();

    let err = handle.join().expect_err("cancelled job must not complete");
    assert!(
        matches!(err, PakmanError::Cancelled { .. }),
        "unexpected outcome: {err:?}"
    );
    // The terminal transition released the reservation (and the job's chained
    // internal budgets net to zero): the shared ledger is empty again.
    assert_eq!(server.ledger().used(), 0);
    server.shutdown();
}

#[test]
fn cancelling_a_sharded_job_drains_the_ledger() {
    // A sharded job cancelled mid-compaction stops at the sharded store's
    // checkpoint and releases its stage charges along with its reservation,
    // leaving the shared budget empty.
    let server = AssemblyServer::start(ServerConfig {
        workers: 2,
        memory_cap_bytes: Some(1 << 30),
    });
    let sharded_config = PakmanConfig {
        threads: 4,
        shards: ShardConfig { shard_count: 7 },
        compaction_node_threshold: 0,
        ..config()
    };
    let spec =
        JobSpec::new(synthetic_input(60_000, 5, 6), sharded_config).with_reservation(1 << 20);
    let handle = server.submit(spec).expect("valid config");

    wait_for_event(&handle, |e| matches!(e, JobEvent::Admitted { .. }));
    wait_for_event(&handle, |e| {
        matches!(e, JobEvent::CompactionIteration { .. })
    });
    handle.cancel();

    let err = handle.join().expect_err("cancelled job must not complete");
    let at = "sharded compaction".to_string();
    assert_eq!(err, PakmanError::Cancelled { at });
    // Every stage budget unwound: the terminal transition leaves the shared
    // ledger empty.
    assert_eq!(server.ledger().used(), 0);
    server.shutdown();
}

#[test]
fn saturated_ledger_queues_jobs_and_admits_best_first() {
    // Cap fits exactly one 900-byte reservation: the three jobs serialize
    // through admission even though two workers are available.
    let server = AssemblyServer::start(ServerConfig {
        workers: 2,
        memory_cap_bytes: Some(1_000),
    });
    let job = |seed: u64, priority: JobPriority| {
        server
            .submit(
                JobSpec::new(synthetic_input(8_000, seed, seed + 10), config())
                    .with_priority(priority)
                    .with_reservation(900),
            )
            .expect("valid config")
    };
    let first = job(1, JobPriority::Normal);
    let low = job(2, JobPriority::Low);
    let high = job(3, JobPriority::High);

    // The high-priority job is admitted ahead of the earlier low-priority one;
    // at that instant the low job can only have been submitted (the cap admits
    // one at a time, so it cannot also hold a reservation).
    wait_for_event(&high, |e| matches!(e, JobEvent::Admitted { .. }));
    assert!(
        low.drain_events()
            .iter()
            .all(|e| matches!(e, JobEvent::Submitted { .. })),
        "low-priority job admitted while the high-priority one held the ledger"
    );

    // Queued jobs are never dropped: all three complete.
    assert!(first.join().is_ok());
    assert!(high.join().is_ok());
    assert!(low.join().is_ok());
    // The high-water mark proves serialization: never two 900-byte
    // reservations (or any other charge) in flight at once.
    assert_eq!(server.ledger().peak_bytes(), 900);
    assert_eq!(server.ledger().used(), 0);
    server.shutdown();
}

#[test]
fn concurrent_jobs_are_bit_identical_to_one_shot_runs() {
    // One-shot references, run outside the server.
    let assembler = PakmanAssembler::new(config());
    let genome_a = ReferenceGenome::builder()
        .length(20_000)
        .seed(7)
        .build()
        .unwrap();
    let one_shot_a = assembler
        .assemble_source(SyntheticSource::new(genome_a.clone(), sequencer(8)).unwrap())
        .unwrap();
    let reads_b = ReadSimulator::new(sequencer(9))
        .simulate(
            &ReferenceGenome::builder()
                .length(15_000)
                .seed(5)
                .build()
                .unwrap(),
        )
        .unwrap();
    let one_shot_b = assembler.assemble(&reads_b).unwrap();

    // The same workloads as concurrent jobs sharing one pool and one ledger.
    let server = AssemblyServer::start(ServerConfig {
        workers: 3,
        memory_cap_bytes: None,
    });
    let job_a = server
        .submit(JobSpec::new(synthetic_input(20_000, 7, 8), config()))
        .expect("valid config");
    let job_b = server
        .submit(
            JobSpec::new(JobInput::Reads(reads_b.clone()), config())
                .with_priority(JobPriority::High),
        )
        .expect("valid config");
    let out_a = job_a.join().expect("job A failed");
    let out_b = job_b.join().expect("job B failed");

    // Scheduling is observation plus ordering, never a change to the
    // computation: contigs and deterministic statistics match bit-for-bit.
    assert_eq!(out_a.contigs, one_shot_a.contigs);
    assert_eq!(out_a.stats, one_shot_a.stats);
    assert_eq!(out_b.contigs, one_shot_b.contigs);
    assert_eq!(out_b.stats, one_shot_b.stats);
    server.shutdown();
}

#[test]
fn event_stream_is_ordered_and_terminal() {
    let server = AssemblyServer::start(ServerConfig::default());
    let handle = server
        .submit(JobSpec::new(synthetic_input(6_000, 11, 12), config()))
        .expect("valid config");
    let id = handle.id();

    // Collect the full stream through the terminal event, then join.
    let mut events = Vec::new();
    loop {
        let event = handle
            .events()
            .recv_timeout(EVENT_TIMEOUT)
            .expect("stream closed before the terminal event");
        let terminal = matches!(
            event,
            JobEvent::Done { .. } | JobEvent::Failed { .. } | JobEvent::Cancelled { .. }
        );
        events.push(event);
        if terminal {
            break;
        }
    }
    let output = handle.join().expect("job failed");
    assert!(matches!(events.first(), Some(JobEvent::Submitted { id: got }) if *got == id));
    assert!(matches!(events.get(1), Some(JobEvent::Admitted { .. })));
    let contig_events = events
        .iter()
        .filter(|e| matches!(e, JobEvent::ContigWritten { .. }))
        .count();
    assert_eq!(contig_events, output.contigs.len());
    match events.last() {
        Some(JobEvent::Done { summary }) => {
            assert_eq!(summary.contig_count, output.stats.contig_count);
            assert_eq!(summary.n50, output.stats.n50);
            assert_eq!(
                summary.compaction_profile.iterations.len(),
                output.compaction_profile.iterations.len()
            );
        }
        other => panic!("expected a terminal Done event, got {other:?}"),
    }
    server.shutdown();
}
