//! The shared worker pool, admission control, and per-step execution.
//!
//! Every worker runs the same loop: admit what fits, pop the best runnable
//! stage-step, execute exactly one stage of that job, write the next phase
//! back, repeat. Because the unit of scheduling is a *stage-step* — not a
//! whole job — the stages of concurrent jobs interleave freely on one pool,
//! and a high-priority arrival starts its stage A ahead of a low-priority
//! job's pending stage D.
//!
//! Admission is strictly best-first: the head of the pending queue is
//! admitted when its reservation fits the shared [`MemoryBudget`] ledger (or
//! when nothing else is admitted, so an oversized job cannot deadlock the
//! server — the same escape the pipelined batch window uses). A saturated
//! ledger therefore *queues* jobs; it never drops them.

use nmp_pak_genome::{
    FastaFastqSource, PrefetchSource, ReferenceGenome, SequencingRead, SyntheticSource,
};
use nmp_pak_pakman::stage::AccessStage;
use nmp_pak_pakman::{
    AssemblyOutput, AssemblyPipeline, CancelToken, MemoryBudget, PakmanConfig, PakmanError,
    RunControl,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::event::{EventSink, JobEvent, JobSummary};
use crate::job::{JobId, JobInput, JobPriority, JobShared};
use crate::queue::JobQueue;
use crate::registry::{JobPhase, JobRecord, Registry};

/// Scheduler state behind the one server mutex.
#[derive(Debug, Default)]
pub(crate) struct State {
    pub(crate) registry: Registry,
    pub(crate) pending: JobQueue,
    pub(crate) ready: JobQueue,
    /// Jobs admitted (ledger charged) and not yet terminal.
    pub(crate) admitted: usize,
    /// Stage-steps executing on workers right now.
    pub(crate) active: usize,
    pub(crate) shutdown: bool,
    pub(crate) next_seq: u64,
}

/// State shared between the server facade and its workers.
#[derive(Debug)]
pub(crate) struct Inner {
    pub(crate) state: Mutex<State>,
    pub(crate) work_ready: Condvar,
    /// The global memory ledger: admission reservations and every admitted
    /// job's internal budgets (spill, batch windows) are charged here.
    pub(crate) ledger: Arc<MemoryBudget>,
}

impl Inner {
    pub(crate) fn new(ledger: Arc<MemoryBudget>) -> Inner {
        Inner {
            state: Mutex::new(State::default()),
            work_ready: Condvar::new(),
            ledger,
        }
    }
}

/// What a worker does with a job after executing one of its stage-steps.
enum StepOutcome {
    /// The job advances; re-enqueue it at its priority.
    Next(JobPhase),
    /// The job terminated (completed, failed, or observed cancellation).
    /// Boxed: an [`AssemblyOutput`] dwarfs the `Next` variant.
    Finished(Box<Result<AssemblyOutput, PakmanError>>),
}

/// Immutable per-step context cloned out of the record so the state lock is
/// not held while the stage runs.
struct StepCtx {
    priority: JobPriority,
    seq: u64,
    config: PakmanConfig,
    cancel: CancelToken,
    sink: Arc<EventSink>,
}

/// The worker loop: admit, pop a step, execute, apply, repeat; parks on the
/// condvar when idle and exits once shutdown is requested and the registry has
/// drained (graceful shutdown completes every submitted job).
pub(crate) fn worker_loop(inner: &Inner) {
    let mut state = inner.state.lock().expect("server state lock poisoned");
    loop {
        try_admit(&mut state, inner);
        if let Some(id) = state.ready.pop() {
            let record = state
                .registry
                .get_mut(&id)
                .expect("ready step for unregistered job");
            let phase = std::mem::replace(&mut record.phase, JobPhase::Running);
            let ctx = StepCtx {
                priority: record.priority,
                seq: record.seq,
                config: record.config,
                cancel: record.cancel.clone(),
                sink: Arc::clone(&record.sink),
            };
            state.active += 1;
            drop(state);

            let outcome = execute_step(phase, &ctx, &inner.ledger);

            state = inner.state.lock().expect("server state lock poisoned");
            state.active -= 1;
            match outcome {
                StepOutcome::Next(next) => {
                    let record = state
                        .registry
                        .get_mut(&id)
                        .expect("running job left the registry");
                    record.phase = next;
                    state.ready.push(id, ctx.priority, ctx.seq);
                }
                StepOutcome::Finished(result) => {
                    finish_job(&mut state, inner, id, *result);
                }
            }
            inner.work_ready.notify_all();
            continue;
        }
        if state.shutdown && state.registry.is_empty() {
            break;
        }
        state = inner
            .work_ready
            .wait(state)
            .expect("server state lock poisoned");
    }
}

/// Admits pending jobs best-first while their reservations fit the ledger;
/// queued jobs whose cancel flag is already up are reaped without admission.
fn try_admit(state: &mut State, inner: &Inner) {
    while let Some(id) = state.pending.peek() {
        let record = state
            .registry
            .get(&id)
            .expect("pending entry for unregistered job");
        if record.cancel.is_cancelled() {
            state.pending.pop();
            finish_job(
                state,
                inner,
                id,
                Err(PakmanError::Cancelled {
                    at: "admission queue".to_string(),
                }),
            );
            continue;
        }
        let fits = !inner.ledger.would_exceed(record.reservation) || state.admitted == 0;
        if !fits {
            break;
        }
        state.pending.pop();
        let record = state
            .registry
            .get_mut(&id)
            .expect("pending entry for unregistered job");
        inner.ledger.charge(record.reservation);
        record.admitted = true;
        state.admitted += 1;
        record.sink.emit(JobEvent::Admitted {
            reserved_bytes: record.reservation,
        });
        let JobPhase::Queued { input } = std::mem::replace(&mut record.phase, JobPhase::Running)
        else {
            unreachable!("pending job past the Queued phase");
        };
        record.phase = JobPhase::Ingest { input };
        state.ready.push(id, record.priority, record.seq);
    }
}

/// Terminal transition: emit the terminal event, release the reservation,
/// resolve the join slot, and drop the record (and with it any artifact).
pub(crate) fn finish_job(
    state: &mut State,
    inner: &Inner,
    id: JobId,
    result: Result<AssemblyOutput, PakmanError>,
) {
    let record = state
        .registry
        .remove(&id)
        .expect("finishing an unregistered job");
    if record.admitted {
        inner.ledger.release(record.reservation);
        state.admitted -= 1;
    }
    match &result {
        Ok(output) => record.sink.emit(JobEvent::Done {
            summary: Box::new(JobSummary {
                contig_count: output.stats.contig_count,
                total_length: output.stats.total_length,
                n50: output.stats.n50,
                compaction_profile: output.compaction_profile.clone(),
                sharding: output.sharding.clone(),
                spill: output.spill,
            }),
        }),
        Err(PakmanError::Cancelled { at }) => {
            record.sink.emit(JobEvent::Cancelled { at: at.clone() });
        }
        Err(other) => record.sink.emit(JobEvent::Failed {
            error: other.to_string(),
        }),
    }
    record.shared.finish(result);
}

/// Registers a freshly submitted job and queues it for admission. Returns the
/// pieces the handle needs.
pub(crate) fn submit(
    inner: &Inner,
    input: JobInput,
    config: PakmanConfig,
    priority: JobPriority,
    reservation: u64,
) -> (
    JobId,
    CancelToken,
    std::sync::mpsc::Receiver<JobEvent>,
    Arc<JobShared>,
) {
    let (tx, rx) = std::sync::mpsc::channel();
    let sink = Arc::new(EventSink::new(tx));
    let cancel = CancelToken::new();
    let shared = Arc::new(JobShared::default());
    let mut state = inner.state.lock().expect("server state lock poisoned");
    let seq = state.next_seq;
    state.next_seq += 1;
    let id = JobId(seq);
    sink.emit(JobEvent::Submitted { id });
    state.registry.insert(
        id,
        JobRecord {
            priority,
            seq,
            config,
            reservation,
            admitted: false,
            cancel: cancel.clone(),
            sink,
            shared: Arc::clone(&shared),
            phase: JobPhase::Queued { input },
        },
    );
    state.pending.push(id, priority, seq);
    drop(state);
    inner.work_ready.notify_all();
    (id, cancel, rx, shared)
}

/// Executes exactly one stage of one job. Every arm polls cancellation on
/// entry (inside the pipeline's boundary methods) and the compaction arm also
/// polls between iterations, so a cancelled job unwinds at the next checkpoint
/// without finishing its current stage batch of work.
fn execute_step(phase: JobPhase, ctx: &StepCtx, ledger: &Arc<MemoryBudget>) -> StepOutcome {
    let control = RunControl::with_cancel(ctx.cancel.clone())
        .observed_by(ctx.sink.as_ref())
        .with_ledger(ledger);
    let advance = |next: Result<JobPhase, PakmanError>| match next {
        Ok(next) => StepOutcome::Next(next),
        Err(err) => StepOutcome::Finished(Box::new(Err(err))),
    };
    let pipeline = match AssemblyPipeline::new(ctx.config) {
        Ok(pipeline) => pipeline,
        Err(err) => return advance(Err(err)),
    };
    match phase {
        JobPhase::Ingest { input } => {
            control.stage_started("ingest");
            let t0 = Instant::now();
            advance(ingest(input, &control).map(|reads| JobPhase::Front {
                reads,
                ingest: t0.elapsed(),
            }))
        }
        JobPhase::Front { reads, ingest } => advance(
            pipeline
                .count(&reads, &control)
                .and_then(|mut counted| {
                    counted.timings.access_reads += ingest;
                    pipeline.construct(counted, &control)
                })
                .map(|built| JobPhase::Compact {
                    built: Box::new(built),
                }),
        ),
        JobPhase::Compact { built } => advance(pipeline.compact(*built, &control).map(
            |compacted| JobPhase::Walk {
                compacted: Box::new(compacted),
            },
        )),
        JobPhase::Walk { compacted } => {
            let output = pipeline.walk(*compacted, &control);
            if let Ok(output) = &output {
                for (index, contig) in output.contigs.iter().enumerate() {
                    ctx.sink.emit(JobEvent::ContigWritten {
                        index,
                        length: contig.len(),
                    });
                }
            }
            StepOutcome::Finished(Box::new(output))
        }
        JobPhase::Queued { .. } | JobPhase::Running => {
            unreachable!("unrunnable phase reached a worker")
        }
    }
}

/// Materializes a job's input. File and synthetic inputs go through the
/// pipeline's one drain, which polls cancellation between chunks; dropping a
/// [`PrefetchSource`] (a cancelled drain) joins its worker, and a drained one
/// has already surfaced any error the worker hit.
fn ingest(input: JobInput, control: &RunControl<'_>) -> Result<Vec<SequencingRead>, PakmanError> {
    match input {
        JobInput::Reads(reads) => {
            control.check("ingest (in-memory reads)")?;
            Ok(reads)
        }
        JobInput::File { path } => {
            let source = FastaFastqSource::open(&path)?;
            AccessStage.drain(PrefetchSource::new(source), control)
        }
        JobInput::Synthetic {
            genome_length,
            genome_seed,
            sequencer,
        } => {
            let genome = ReferenceGenome::builder()
                .length(genome_length)
                .seed(genome_seed)
                .build()?;
            AccessStage.drain(SyntheticSource::new(genome, sequencer)?, control)
        }
    }
}
