//! Assembly-as-a-service: a multi-tenant job server over the PaKman pipeline.
//!
//! The server accepts many concurrent assembly jobs — a FASTA/FASTQ path, an
//! in-memory read set, or a synthetic-workload spec — and schedules their
//! pipeline stages onto **one shared worker pool**. The unit of scheduling is
//! a *stage-step* (one job's A–C, D, or E stage), so stages of different jobs
//! interleave on the same threads instead of each job monopolizing a pool.
//!
//! Three control planes tie the tenants together:
//!
//! * **Shared-budget admission** — every job reserves bytes in one global
//!   [`MemoryBudget`] ledger before it may start; jobs queue (never drop) at
//!   admission while the ledger is saturated, and every admitted job's
//!   internal budgets (external-memory spill, batch windows) chain into the
//!   same ledger via [`nmp_pak_pakman::RunControl`].
//! * **Priority** — [`JobPriority`] orders both admission and the ready
//!   queue; FIFO within a class.
//! * **Cooperative cancellation** — [`JobHandle::cancel`] raises a
//!   [`nmp_pak_pakman::CancelToken`] the pipeline polls at stage boundaries
//!   and between compaction iterations; a cancelled job unwinds, frees its
//!   reservation, and resolves to [`nmp_pak_pakman::PakmanError::Cancelled`].
//!
//! Progress streams out per job as [`JobEvent`]s (submitted → admitted →
//! stage/iteration/contig events → done/failed/cancelled), carrying the
//! pipeline's own telemetry. Control never changes computation: each job's
//! contigs are bit-identical to a one-shot [`nmp_pak_pakman::PakmanAssembler`]
//! run over the same reads, whatever the interleaving.
//!
//! ```
//! use nmp_pak_genome::SequencerConfig;
//! use nmp_pak_pakman::PakmanConfig;
//! use nmp_pak_server::{AssemblyServer, JobInput, JobSpec, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = AssemblyServer::start(ServerConfig::default());
//! let job = server.submit(JobSpec::new(
//!     JobInput::Synthetic {
//!         genome_length: 6_000,
//!         genome_seed: 11,
//!         sequencer: SequencerConfig {
//!             coverage: 15.0,
//!             substitution_error_rate: 0.0,
//!             ..SequencerConfig::default()
//!         },
//!     },
//!     PakmanConfig { k: 17, ..PakmanConfig::default() },
//! ))?;
//! let output = job.join()?;
//! assert!(output.stats.total_length > 0);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod job;
mod queue;
mod registry;
mod scheduler;

pub use event::{JobEvent, JobSummary};
pub use job::{JobHandle, JobId, JobInput, JobPriority, JobSpec};

use nmp_pak_pakman::{MemoryBudget, PakmanError};
use scheduler::Inner;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server sizing: worker-pool width and the global memory cap.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Threads in the shared stage-step pool (clamped to at least 1). This is
    /// the *only* pool: no job gets threads of its own.
    pub workers: usize,
    /// Capacity of the global [`MemoryBudget`] ledger; `None` is unbounded
    /// (admission never queues).
    pub memory_cap_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            memory_cap_bytes: None,
        }
    }
}

/// The job server: submit jobs, watch their event streams, shut down
/// gracefully. Dropping the server also shuts it down (completing every
/// submitted job first).
#[derive(Debug)]
pub struct AssemblyServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl AssemblyServer {
    /// Starts the worker pool and the shared ledger.
    pub fn start(config: ServerConfig) -> AssemblyServer {
        let ledger = Arc::new(match config.memory_cap_bytes {
            Some(bytes) => MemoryBudget::bounded(bytes),
            None => MemoryBudget::unbounded(),
        });
        let inner = Arc::new(Inner::new(ledger));
        let workers = (0..config.workers.max(1))
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("assembly-worker-{index}"))
                    .spawn(move || scheduler::worker_loop(&inner))
                    .expect("failed to spawn assembly worker")
            })
            .collect();
        AssemblyServer { inner, workers }
    }

    /// Submits a job: validates its configuration, queues it for admission,
    /// and returns the handle carrying its event stream. Never blocks on the
    /// ledger — a job that does not fit waits in the admission queue.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] for an invalid
    /// [`nmp_pak_pakman::PakmanConfig`]; nothing is queued in that case.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, PakmanError> {
        spec.config.validate()?;
        let reservation = spec.estimated_reservation();
        let JobSpec {
            input,
            config,
            priority,
            ..
        } = spec;
        let (id, cancel, events, shared) =
            scheduler::submit(&self.inner, input, config, priority, reservation);
        Ok(JobHandle {
            id,
            cancel,
            events,
            shared,
        })
    }

    /// The shared memory ledger (admission reservations plus every admitted
    /// job's chained budgets). Exposed for observability: `used()` is the
    /// server's current accounted footprint, `peak_bytes()` its high-water
    /// mark.
    pub fn ledger(&self) -> &Arc<MemoryBudget> {
        &self.inner.ledger
    }

    /// Graceful shutdown: stops accepting progress, completes every already
    /// submitted job (queued ones included), and joins the worker pool.
    pub fn shutdown(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("server state lock poisoned");
            state.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for AssemblyServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}
