//! The priority queue for admission and for runnable stage-steps.
//!
//! It orders by `(priority, submission order)`: the highest priority
//! class first, FIFO within a class. The ready queue holds *steps* (one stage
//! of one job), which is what lets the shared worker pool interleave stages of
//! different jobs instead of running each job to completion.

use std::collections::BinaryHeap;

use crate::job::{JobId, JobPriority};

/// Heap key: higher priority wins, then earlier submission (`seq`) wins.
#[derive(Debug, PartialEq, Eq)]
struct StepKey {
    priority: JobPriority,
    seq: u64,
    job: JobId,
}

impl Ord for StepKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for StepKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A best-first job queue. The scheduler keeps two: runnable stage-steps,
/// popped by the worker pool, and jobs waiting for admission, which admission
/// examines strictly best-first (it peeks at the head and never lets a smaller
/// low-priority job jump a blocked high-priority one, so a saturated ledger
/// cannot starve the head of the queue).
#[derive(Debug, Default)]
pub(crate) struct JobQueue {
    heap: BinaryHeap<StepKey>,
}

impl JobQueue {
    pub(crate) fn push(&mut self, job: JobId, priority: JobPriority, seq: u64) {
        self.heap.push(StepKey { priority, seq, job });
    }

    /// The job [`JobQueue::pop`] would return, without removing it.
    pub(crate) fn peek(&self) -> Option<JobId> {
        self.heap.peek().map(|key| key.job)
    }

    pub(crate) fn pop(&mut self) -> Option<JobId> {
        self.heap.pop().map(|key| key.job)
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_queue_orders_by_priority_then_fifo() {
        let mut queue = JobQueue::default();
        queue.push(JobId(0), JobPriority::Normal, 0);
        queue.push(JobId(1), JobPriority::High, 1);
        queue.push(JobId(2), JobPriority::Normal, 2);
        queue.push(JobId(3), JobPriority::Low, 3);
        queue.push(JobId(4), JobPriority::High, 4);
        let order: Vec<JobId> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            order,
            vec![JobId(1), JobId(4), JobId(0), JobId(2), JobId(3)]
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn pending_queue_peek_matches_pop() {
        let mut queue = JobQueue::default();
        queue.push(JobId(7), JobPriority::Low, 0);
        queue.push(JobId(8), JobPriority::High, 1);
        assert_eq!(queue.peek(), Some(JobId(8)));
        assert_eq!(queue.pop(), Some(JobId(8)));
        assert_eq!(queue.pop(), Some(JobId(7)));
        assert!(queue.is_empty());
    }
}
