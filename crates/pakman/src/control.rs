//! Cooperative run control: cancellation, progress observation, and a shared
//! memory ledger for multi-tenant execution.
//!
//! [`crate::PakmanConfig`] is plain `Copy` data — a pure description of *what*
//! to assemble — so everything about *who is watching this particular run* lives
//! here instead: a [`CancelToken`] polled at stage boundaries and between
//! compaction iterations, a [`ProgressObserver`] that streams stage/iteration
//! events out (the job server turns these into `JobEvent`s), and an optional
//! global [`MemoryBudget`] ledger that per-run budgets are chained into.
//!
//! The controlled entry points ([`crate::compact_controlled`],
//! [`crate::compact_sharded_controlled`], the `*_controlled` pipeline methods)
//! are bit-identical to their uncontrolled twins when the token never fires:
//! control is observation plus early exit, never a change to the computation.
//! The two compaction entry points run one barriered iteration driver (the
//! lock-step schedule), so they share one contract: the token is polled, then
//! the observer called, at the top of every iteration, and only the checkpoint
//! label differs (`"compaction"` / `"sharded compaction"`). The async shard
//! schedule polls once per shard round and between mailbox flushes instead.

use crate::error::PakmanError;
use crate::memory::MemoryBudget;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cheap, cloneable cancellation flag shared between a controller and a run.
///
/// Cancellation is cooperative: the run polls [`CancelToken::check`] at
/// well-defined checkpoints (stage boundaries, tops of compaction iterations,
/// batch-window admissions) and unwinds with [`PakmanError::Cancelled`] naming
/// the checkpoint that observed the flag. Work already completed is simply
/// dropped; no partial output escapes.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Polls the flag at the checkpoint named `at`.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] carrying `at` once the token has
    /// been cancelled.
    pub fn check(&self, at: &str) -> Result<(), PakmanError> {
        if self.is_cancelled() {
            Err(PakmanError::Cancelled { at: at.to_string() })
        } else {
            Ok(())
        }
    }
}

/// Receiver of progress callbacks from a controlled run.
///
/// Callbacks arrive from whichever thread is executing the stage, so
/// implementations must be `Sync`; they should also be cheap — the compaction
/// loop fires [`ProgressObserver::compaction_iteration`] once per iteration on
/// the critical path. All methods default to no-ops.
pub trait ProgressObserver: Sync {
    /// A pipeline stage is about to run (e.g. `"stage B (k-mer counting)"`).
    fn stage_started(&self, stage: &'static str) {
        let _ = stage;
    }

    /// A compaction iteration is about to run with `alive_nodes` MacroNodes
    /// still live. Fires for both the single-graph and sharded engines.
    fn compaction_iteration(&self, iteration: usize, alive_nodes: usize) {
        let (_, _) = (iteration, alive_nodes);
    }
}

/// No-op observer used when a controlled entry point runs unobserved.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl ProgressObserver for NullObserver {}

/// The control plane for one run: cancellation + observation + shared ledger.
///
/// Borrowed (`&RunControl`) across every stage and scoped worker thread of the
/// run. [`RunControl::default`] is the null control — never cancelled,
/// unobserved, no shared ledger — under which every controlled entry point is
/// bit-identical to its uncontrolled twin.
#[derive(Default)]
pub struct RunControl<'a> {
    /// Cancellation flag polled at checkpoints.
    pub cancel: CancelToken,
    /// Progress sink, if anyone is listening.
    pub observer: Option<&'a dyn ProgressObserver>,
    /// Global memory ledger; when present, every per-run [`MemoryBudget`]
    /// (batch window, spill budget) is chained into it via
    /// [`RunControl::adopt`], so host-wide pressure stalls and spills exactly
    /// like local pressure.
    pub ledger: Option<&'a Arc<MemoryBudget>>,
}

impl fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("cancel", &self.cancel)
            .field("observer", &self.observer.map(|_| "dyn ProgressObserver"))
            .field("ledger", &self.ledger)
            .finish()
    }
}

impl<'a> RunControl<'a> {
    /// Control with the given cancellation token and no observer/ledger.
    pub fn with_cancel(cancel: CancelToken) -> RunControl<'a> {
        RunControl {
            cancel,
            ..RunControl::default()
        }
    }

    /// Attaches a progress observer.
    pub fn observed_by(mut self, observer: &'a dyn ProgressObserver) -> RunControl<'a> {
        self.observer = Some(observer);
        self
    }

    /// Chains this run's memory budgets into `ledger` (see
    /// [`RunControl::adopt`]).
    pub fn with_ledger(mut self, ledger: &'a Arc<MemoryBudget>) -> RunControl<'a> {
        self.ledger = Some(ledger);
        self
    }

    /// Polls the cancellation token at the checkpoint named `at`.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::Cancelled`] once the run has been cancelled.
    pub fn check(&self, at: &str) -> Result<(), PakmanError> {
        self.cancel.check(at)
    }

    /// Notifies the observer (if any) that `stage` is starting.
    pub fn stage_started(&self, stage: &'static str) {
        if let Some(observer) = self.observer {
            observer.stage_started(stage);
        }
    }

    /// Notifies the observer (if any) of a compaction iteration.
    pub fn compaction_iteration(&self, iteration: usize, alive_nodes: usize) {
        if let Some(observer) = self.observer {
            observer.compaction_iteration(iteration, alive_nodes);
        }
    }

    /// Chains a per-run budget into the global ledger, when one is attached;
    /// otherwise returns the budget unchanged. Budget decisions never change
    /// output bits (they only add stalls or spills), so adoption preserves the
    /// determinism contract.
    pub fn adopt(&self, budget: MemoryBudget) -> MemoryBudget {
        match self.ledger {
            Some(parent) => budget.with_parent(Arc::clone(parent)),
            None => budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.check("anywhere").is_ok());
        let peer = token.clone();
        peer.cancel();
        assert!(token.is_cancelled());
        match token.check("stage D (compaction)") {
            Err(PakmanError::Cancelled { at }) => assert_eq!(at, "stage D (compaction)"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn null_control_never_cancels_and_adopts_verbatim() {
        let control = RunControl::default();
        assert!(control.check("x").is_ok());
        let budget = control.adopt(MemoryBudget::bounded(10));
        budget.charge(99);
        assert!(budget.is_over());
        assert_eq!(budget.capacity(), Some(10));
    }

    #[test]
    fn ledger_adoption_chains_budgets() {
        let global = Arc::new(MemoryBudget::bounded(100));
        let control = RunControl::default().with_ledger(&global);
        let child = control.adopt(MemoryBudget::unbounded());
        child.charge(150);
        assert_eq!(global.used(), 150);
        assert!(child.is_over());
    }

    #[test]
    fn observer_callbacks_are_forwarded() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counting {
            stages: AtomicUsize,
            iterations: AtomicUsize,
        }
        impl ProgressObserver for Counting {
            fn stage_started(&self, _stage: &'static str) {
                self.stages.fetch_add(1, Ordering::Relaxed);
            }
            fn compaction_iteration(&self, _iteration: usize, _alive: usize) {
                self.iterations.fetch_add(1, Ordering::Relaxed);
            }
        }
        let counting = Counting::default();
        let control = RunControl::default().observed_by(&counting);
        control.stage_started("stage A (reads access)");
        control.compaction_iteration(0, 42);
        control.compaction_iteration(1, 17);
        assert_eq!(counting.stages.load(Ordering::Relaxed), 1);
        assert_eq!(counting.iterations.load(Ordering::Relaxed), 2);
    }
}
