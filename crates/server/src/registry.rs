//! The job registry: per-job state owned by the scheduler.
//!
//! A job advances through [`JobPhase`] one stage-step at a time. The phase
//! *owns* the inter-stage artifact (drained reads, constructed graph, compacted
//! graph), so a worker executing a step takes the phase out of the record,
//! computes the next artifact, and writes the next phase back — no artifact is
//! ever shared between threads, and a job's memory is dropped the moment it
//! terminates.

use nmp_pak_genome::SequencingRead;
use nmp_pak_pakman::stage::{CompactedGraph, ConstructedGraph};
use nmp_pak_pakman::{CancelToken, PakmanConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::event::EventSink;
use crate::job::{JobId, JobInput, JobPriority, JobShared};

/// Where a job is in its lifecycle; non-terminal phases own the artifact the
/// next stage consumes.
#[derive(Debug)]
pub(crate) enum JobPhase {
    /// Waiting for admission; not yet charged to the ledger.
    Queued {
        /// The submitted input, handed to ingestion at admission.
        input: JobInput,
    },
    /// Admitted; the next step materializes the reads.
    Ingest {
        /// The submitted input.
        input: JobInput,
    },
    /// Reads resident; the next step runs stages A–C.
    Front {
        /// The materialized read set.
        reads: Vec<SequencingRead>,
        /// Ingestion wall-clock, charged to stage A's timing.
        ingest: Duration,
    },
    /// Graph built; the next step runs stage D.
    Compact {
        /// Stage C artifact (boxed: artifacts dwarf the other variants).
        built: Box<ConstructedGraph>,
    },
    /// Compaction done; the next step runs stage E and finishes.
    Walk {
        /// Stage D artifact (boxed, as above).
        compacted: Box<CompactedGraph>,
    },
    /// A worker currently holds this job's artifact and is executing a step.
    Running,
}

/// One registered job.
#[derive(Debug)]
pub(crate) struct JobRecord {
    pub(crate) priority: JobPriority,
    /// Submission sequence number (FIFO tiebreak inside a priority class).
    pub(crate) seq: u64,
    pub(crate) config: PakmanConfig,
    /// Bytes charged to the server ledger at admission.
    pub(crate) reservation: u64,
    /// `true` once the reservation has been charged (and must be released).
    pub(crate) admitted: bool,
    pub(crate) cancel: CancelToken,
    pub(crate) sink: Arc<EventSink>,
    pub(crate) shared: Arc<JobShared>,
    pub(crate) phase: JobPhase,
}

/// The registry: jobs are inserted at submission and removed at their
/// terminal transition, so `is_empty` means "no job anywhere in flight".
pub(crate) type Registry = HashMap<JobId, JobRecord>;
