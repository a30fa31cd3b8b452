//! Compaction traces: the record of every MacroNode access performed by Iterative
//! Compaction.
//!
//! The paper evaluates its hardware by generating "memory traces of read and write
//! operations from the actual assembly execution" and feeding them to Ramulator
//! (§5.2), grouping the per-cache-line accesses of one MacroNode under its `mn_idx`.
//! [`CompactionTrace`] is this repository's equivalent: a per-iteration log of which
//! MacroNode slots were read for the invalidation check, which were invalidated, which
//! TransferNodes were routed where, and which destination nodes were updated
//! (read-modify-write). The `memsim` and `nmphw` crates fold it, one pass each,
//! through their analytic CPU, GPU and NMP models (no cycle-level DRAM replay).

/// One invalidation-check access (pipeline stage P1) for a MacroNode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCheck {
    /// Stable slot index of the node (its rank in ascending (k-1)-mer order).
    pub slot: usize,
    /// Node size in bytes at the time of the check (drives how many cache lines /
    /// bursts the access spans and whether the node is offloaded to the CPU).
    pub size_bytes: usize,
    /// Whether the check concluded the node must be invalidated.
    pub invalidated: bool,
}

/// One TransferNode routed from an invalidated node to a neighbour (stages P2→P3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferEvent {
    /// Slot of the invalidated source node.
    pub source_slot: usize,
    /// Slot of the destination (neighbour) node.
    pub dest_slot: usize,
    /// TransferNode payload size in bytes.
    pub size_bytes: usize,
}

/// One destination-node update (stage P3 read-modify-write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateEvent {
    /// Slot of the updated node.
    pub dest_slot: usize,
    /// Node size in bytes after the update (the write-back size).
    pub size_bytes: usize,
}

/// Everything that happened during one compaction iteration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterationTrace {
    /// Stage P1 accesses: one per alive node, in ascending slot order. This
    /// holds under the frontier scan too — nodes outside the dirty set report
    /// their cached (size, not-invalidated) verdict — so the trace a memory
    /// simulator replays is the one a full scan of every iteration records.
    pub checks: Vec<NodeCheck>,
    /// Stage P2/P3 TransferNode routing events.
    pub transfers: Vec<TransferEvent>,
    /// Stage P3 destination updates (one per distinct destination per iteration).
    pub updates: Vec<UpdateEvent>,
}

impl IterationTrace {
    /// Number of nodes that were invalidated this iteration.
    pub fn invalidated_count(&self) -> usize {
        self.checks.iter().filter(|c| c.invalidated).count()
    }

    /// Total bytes read by the invalidation checks.
    pub fn check_bytes(&self) -> u64 {
        self.checks.iter().map(|c| c.size_bytes as u64).sum()
    }

    /// Total bytes carried by TransferNodes.
    pub fn transfer_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.size_bytes as u64).sum()
    }

    /// Total bytes written back by destination updates.
    pub fn update_bytes(&self) -> u64 {
        self.updates.iter().map(|u| u.size_bytes as u64).sum()
    }
}

/// The full trace of an Iterative Compaction run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionTrace {
    /// Number of MacroNode slots in the graph (alive + later-invalidated); slot indices
    /// in the iteration records are `< slot_count`.
    pub slot_count: usize,
    /// Initial size in bytes of every slot, indexed by slot. Used by the memory model
    /// to lay MacroNodes out in the address space.
    pub initial_sizes: Vec<usize>,
    /// Per-iteration activity.
    pub iterations: Vec<IterationTrace>,
}

impl CompactionTrace {
    /// Creates an empty trace for a graph with `slot_count` slots.
    pub fn new(slot_count: usize, initial_sizes: Vec<usize>) -> Self {
        debug_assert_eq!(slot_count, initial_sizes.len());
        CompactionTrace {
            slot_count,
            initial_sizes,
            iterations: Vec::new(),
        }
    }

    /// Number of compaction iterations recorded.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// Total TransferNodes routed across the whole run.
    pub fn total_transfers(&self) -> usize {
        self.iterations.iter().map(|i| i.transfers.len()).sum()
    }

    /// Total nodes invalidated across the whole run.
    #[cfg(test)]
    pub(crate) fn total_invalidated(&self) -> usize {
        self.iterations
            .iter()
            .map(IterationTrace::invalidated_count)
            .sum()
    }

    /// Total bytes read (checks) plus written (updates), a first-order traffic figure.
    pub fn total_bytes(&self) -> u64 {
        self.iterations
            .iter()
            .map(|i| i.check_bytes() + i.update_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> CompactionTrace {
        let mut trace = CompactionTrace::new(4, vec![100, 200, 300, 400]);
        trace.iterations.push(IterationTrace {
            checks: vec![
                NodeCheck {
                    slot: 0,
                    size_bytes: 100,
                    invalidated: false,
                },
                NodeCheck {
                    slot: 1,
                    size_bytes: 200,
                    invalidated: true,
                },
                NodeCheck {
                    slot: 2,
                    size_bytes: 300,
                    invalidated: false,
                },
            ],
            transfers: vec![
                TransferEvent {
                    source_slot: 1,
                    dest_slot: 0,
                    size_bytes: 32,
                },
                TransferEvent {
                    source_slot: 1,
                    dest_slot: 2,
                    size_bytes: 32,
                },
            ],
            updates: vec![
                UpdateEvent {
                    dest_slot: 0,
                    size_bytes: 120,
                },
                UpdateEvent {
                    dest_slot: 2,
                    size_bytes: 320,
                },
            ],
        });
        trace
    }

    #[test]
    fn iteration_accounting() {
        let trace = sample_trace();
        let it = &trace.iterations[0];
        assert_eq!(it.invalidated_count(), 1);
        assert_eq!(it.check_bytes(), 600);
        assert_eq!(it.transfer_bytes(), 64);
        assert_eq!(it.update_bytes(), 440);
    }

    #[test]
    fn trace_level_accounting() {
        let trace = sample_trace();
        assert_eq!(trace.iteration_count(), 1);
        assert_eq!(trace.total_transfers(), 2);
        assert_eq!(trace.total_invalidated(), 1);
        assert_eq!(trace.total_bytes(), 600 + 440);
        assert_eq!(trace.slot_count, 4);
    }
}
