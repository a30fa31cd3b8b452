//! Job descriptions and the client-side handle.

use nmp_pak_genome::{SequencerConfig, SequencingRead};
use nmp_pak_pakman::{AssemblyOutput, CancelToken, PakmanConfig, PakmanError};
use std::path::PathBuf;
use std::sync::mpsc::Receiver;
use std::sync::{Condvar, Mutex};

use crate::event::JobEvent;

/// Server-assigned job identifier (monotone per server, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority. Higher-priority jobs are admitted first and their
/// ready stages run first; within a priority class the server is FIFO by
/// submission order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobPriority {
    /// Background work; yields to everything else.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work; scheduled ahead of both other classes.
    High,
}

/// Where a job's reads come from.
///
/// All three inputs feed the identical downstream pipeline; the server
/// guarantees each job's contigs are bit-identical to a one-shot
/// [`nmp_pak_pakman::PakmanAssembler`] run over the same reads.
#[derive(Debug)]
pub enum JobInput {
    /// Stream a FASTA/FASTQ file off disk (prefetched on a worker thread).
    File {
        /// Path to the FASTA or FASTQ file.
        path: PathBuf,
    },
    /// Assemble reads the client already holds.
    Reads(Vec<SequencingRead>),
    /// Generate a synthetic read set server-side (the paper's simulated
    /// workloads): a seeded reference genome plus a sequencer configuration.
    Synthetic {
        /// Length of the generated reference genome in bases.
        genome_length: usize,
        /// Seed for the reference genome content.
        genome_seed: u64,
        /// Read-sampling configuration (coverage, read length, error rate,
        /// seed).
        sequencer: SequencerConfig,
    },
}

/// Default admission reservation when the spec does not set one and the input
/// size is unknown (a file path): 16 MiB.
pub(crate) const DEFAULT_RESERVATION_BYTES: u64 = 16 << 20;

/// One assembly job: input, assembly configuration, scheduling class, and the
/// admission reservation charged against the server's shared memory ledger.
#[derive(Debug)]
pub struct JobSpec {
    /// The read source.
    pub(crate) input: JobInput,
    /// Assembly configuration (validated at submission).
    pub(crate) config: PakmanConfig,
    /// Scheduling class.
    pub(crate) priority: JobPriority,
    /// Bytes reserved in the server ledger at admission; `None` lets the
    /// server estimate from the input ([`JobSpec::estimated_reservation`]).
    pub(crate) reservation_bytes: Option<u64>,
}

impl JobSpec {
    /// A spec with default priority and a server-estimated reservation.
    pub fn new(input: JobInput, config: PakmanConfig) -> JobSpec {
        JobSpec {
            input,
            config,
            priority: JobPriority::default(),
            reservation_bytes: None,
        }
    }

    /// Sets the scheduling class.
    #[must_use]
    pub fn with_priority(mut self, priority: JobPriority) -> JobSpec {
        self.priority = priority;
        self
    }

    /// Pins the admission reservation instead of estimating it.
    #[must_use]
    pub fn with_reservation(mut self, bytes: u64) -> JobSpec {
        self.reservation_bytes = Some(bytes);
        self
    }

    /// The reservation the server will charge at admission: the explicit
    /// reservation when set, otherwise an input-derived estimate (in-memory
    /// reads: their approximate footprint; synthetic: coverage × genome
    /// length; file: [`DEFAULT_RESERVATION_BYTES`]).
    pub(crate) fn estimated_reservation(&self) -> u64 {
        if let Some(bytes) = self.reservation_bytes {
            return bytes;
        }
        match &self.input {
            JobInput::Reads(reads) => {
                nmp_pak_genome::ReadChunk::Borrowed(reads.as_slice()).approx_read_bytes()
            }
            JobInput::Synthetic {
                genome_length,
                sequencer,
                ..
            } => ((*genome_length as f64) * sequencer.coverage.max(1.0)) as u64,
            JobInput::File { .. } => DEFAULT_RESERVATION_BYTES,
        }
    }
}

/// The slot a finished job's outcome lands in; [`JobHandle::join`] blocks on
/// it.
#[derive(Debug, Default)]
pub(crate) struct JobShared {
    pub(crate) outcome: Mutex<Option<Result<AssemblyOutput, PakmanError>>>,
    pub(crate) done: Condvar,
}

impl JobShared {
    pub(crate) fn finish(&self, outcome: Result<AssemblyOutput, PakmanError>) {
        *self.outcome.lock().expect("job outcome lock poisoned") = Some(outcome);
        self.done.notify_all();
    }
}

/// Client-side handle to a submitted job: progress events, cancellation, and
/// the final outcome.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: JobId,
    pub(crate) cancel: CancelToken,
    pub(crate) events: Receiver<JobEvent>,
    pub(crate) shared: std::sync::Arc<JobShared>,
}

impl JobHandle {
    /// The server-assigned id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Requests cooperative cancellation. The job observes the flag at its
    /// next checkpoint (a stage boundary or the top of a compaction
    /// iteration), unwinds, and resolves to [`PakmanError::Cancelled`]; a job
    /// still queued at admission never starts. Idempotent.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The job's progress-event stream. Events accumulate until read; after
    /// the terminal event (`Done`/`Failed`/`Cancelled`) the channel closes.
    pub fn events(&self) -> &Receiver<JobEvent> {
        &self.events
    }

    /// Drains every event currently queued without blocking.
    pub fn drain_events(&self) -> Vec<JobEvent> {
        self.events.try_iter().collect()
    }

    /// Blocks until the job reaches a terminal state and returns its outcome.
    /// A cancelled job returns [`PakmanError::Cancelled`].
    ///
    /// # Errors
    ///
    /// The job's failure, when it did not complete.
    pub fn join(self) -> Result<AssemblyOutput, PakmanError> {
        let mut slot = self
            .shared
            .outcome
            .lock()
            .expect("job outcome lock poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .shared
                .done
                .wait(slot)
                .expect("job outcome lock poisoned");
        }
    }
}
