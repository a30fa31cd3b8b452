//! Conversion of compaction traces into memory-request streams.
//!
//! The paper contrasts two process flows for Iterative Compaction (§4.5, "Optimize
//! Process Flow for Less Memory Operations"):
//!
//! * the **baseline** flow executes each stage as a separate pass over the whole
//!   MacroNode set, so every stage re-reads every node and the per-node bookkeeping is
//!   written back each pass; and
//! * the **optimized** (pipelined systolic) flow reads each MacroNode once per
//!   iteration, reuses the stage-P1 data in stage P2, and only touches the destination
//!   nodes that actually receive TransferNodes.
//!
//! An additional **ideal forwarding** variant (§5.3) also reuses the P1 data in P3,
//! eliminating the destination re-read. These three policies are what produce the
//! read/write traffic ratios of Fig. 14.

use crate::layout::NodeLayout;
use crate::request::MemRequest;
use nmp_pak_pakman::trace::IterationTrace;

/// Which process flow to model when expanding a trace into memory requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessFlow {
    /// Original PaKman flow: one full pass over all MacroNodes per stage
    /// (3 read passes), plus a bookkeeping write-back of every node per iteration.
    Baseline,
    /// NMP-PaK / CPU-PaK flow: one read per alive node, destination read + write per
    /// updated node.
    Optimized,
    /// Optimized flow with ideal P1→P3 forwarding: the destination read is served from
    /// data already fetched in stage P1.
    IdealForwarding,
}

/// Aggregate read/write traffic over a whole trace, normalized later for Fig. 14.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Read requests (node granularity).
    pub reads: u64,
    /// Write requests (node granularity).
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

impl TrafficSummary {
    /// Accumulates the traffic of one request list.
    pub fn add_requests(&mut self, requests: &[MemRequest]) {
        for r in requests {
            if r.is_write() {
                self.writes += 1;
                self.write_bytes += r.size_bytes as u64;
            } else {
                self.reads += 1;
                self.read_bytes += r.size_bytes as u64;
            }
        }
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Expands one compaction iteration into a memory-request stream under `flow`.
///
/// Requests are emitted in stage order (P1 checks, then P2 re-reads for the baseline,
/// then P3 destination traffic), with node-granular sizes; the DRAM model splits them
/// into line-granular bursts.
pub fn build_iteration_requests(
    iteration: &IterationTrace,
    layout: &NodeLayout,
    flow: ProcessFlow,
) -> Vec<MemRequest> {
    let mut requests = Vec::new();

    // Stage P1: read every alive node's data1 (the (k-1)-mer plus extensions).
    for check in &iteration.checks {
        requests.push(layout.node_read(check.slot, check.size_bytes));
    }

    match flow {
        ProcessFlow::Baseline => {
            // Separate stage passes: stage P2 re-reads every node (it is a fresh scan
            // over the MacroNode set to find the marked ones and pull their wiring),
            // and the per-node invalidation mark is written back during P1.
            for check in &iteration.checks {
                requests.push(layout.node_write(check.slot, layout.config_line()));
            }
            for check in &iteration.checks {
                requests.push(layout.node_read(check.slot, check.size_bytes));
            }
            // Stage P3: destination read-modify-write, plus the baseline's node
            // movement (invalidated nodes are copied/erased rather than lazily
            // deleted), modelled as a write of each invalidated node.
            for check in iteration.checks.iter().filter(|c| c.invalidated) {
                requests.push(layout.node_write(check.slot, check.size_bytes));
            }
            for update in &iteration.updates {
                requests.push(layout.node_read(update.dest_slot, update.size_bytes));
                requests.push(layout.node_write(update.dest_slot, update.size_bytes));
            }
        }
        ProcessFlow::Optimized => {
            // Stage P2 reuses the P1 data (only the small `MN data2` wiring info is
            // additionally fetched for invalidated nodes).
            for check in iteration.checks.iter().filter(|c| c.invalidated) {
                requests.push(layout.node_read(check.slot, layout.config_line()));
            }
            for update in &iteration.updates {
                requests.push(layout.node_read(update.dest_slot, update.size_bytes));
                requests.push(layout.node_write(update.dest_slot, update.size_bytes));
            }
        }
        ProcessFlow::IdealForwarding => {
            for check in iteration.checks.iter().filter(|c| c.invalidated) {
                requests.push(layout.node_read(check.slot, layout.config_line()));
            }
            // P1→P3 forwarding: the destination's current contents are already in the
            // pipeline, so only the write-back remains.
            for update in &iteration.updates {
                requests.push(layout.node_write(update.dest_slot, update.size_bytes));
            }
        }
    }

    requests
}

impl NodeLayout {
    /// Line size shortcut used for small metadata accesses.
    fn config_line(&self) -> usize {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use nmp_pak_pakman::trace::{NodeCheck, UpdateEvent};

    fn sample_iteration() -> IterationTrace {
        IterationTrace {
            checks: vec![
                NodeCheck {
                    slot: 0,
                    size_bytes: 256,
                    invalidated: false,
                },
                NodeCheck {
                    slot: 1,
                    size_bytes: 512,
                    invalidated: true,
                },
                NodeCheck {
                    slot: 2,
                    size_bytes: 128,
                    invalidated: false,
                },
            ],
            transfers: vec![],
            updates: vec![
                UpdateEvent {
                    dest_slot: 0,
                    size_bytes: 300,
                },
                UpdateEvent {
                    dest_slot: 2,
                    size_bytes: 160,
                },
            ],
        }
    }

    fn layout() -> NodeLayout {
        NodeLayout::new(&[256, 512, 128], &DramConfig::default())
    }

    #[test]
    fn optimized_flow_reads_each_alive_node_once() {
        let reqs = build_iteration_requests(&sample_iteration(), &layout(), ProcessFlow::Optimized);
        let reads_of_slot0 = reqs
            .iter()
            .filter(|r| !r.is_write() && r.mn_slot == 0)
            .count();
        // One P1 read + one destination read.
        assert_eq!(reads_of_slot0, 2);
        let writes: Vec<_> = reqs.iter().filter(|r| r.is_write()).collect();
        assert_eq!(writes.len(), 2); // only the two destination write-backs
    }

    #[test]
    fn baseline_flow_has_more_reads_and_writes_than_optimized() {
        let it = sample_iteration();
        let l = layout();
        let mut base = TrafficSummary::default();
        base.add_requests(&build_iteration_requests(&it, &l, ProcessFlow::Baseline));
        let mut opt = TrafficSummary::default();
        opt.add_requests(&build_iteration_requests(&it, &l, ProcessFlow::Optimized));
        assert!(base.read_bytes > opt.read_bytes);
        assert!(base.write_bytes > opt.write_bytes);
        assert!(base.reads > opt.reads);
        assert!(base.writes > opt.writes);
    }

    #[test]
    fn ideal_forwarding_removes_destination_reads() {
        let it = sample_iteration();
        let l = layout();
        let mut opt = TrafficSummary::default();
        opt.add_requests(&build_iteration_requests(&it, &l, ProcessFlow::Optimized));
        let mut fwd = TrafficSummary::default();
        fwd.add_requests(&build_iteration_requests(
            &it,
            &l,
            ProcessFlow::IdealForwarding,
        ));
        assert!(fwd.read_bytes < opt.read_bytes);
        assert_eq!(fwd.write_bytes, opt.write_bytes);
    }

    #[test]
    fn traffic_summary_totals() {
        let mut summary = TrafficSummary::default();
        summary.add_requests(&[MemRequest::read(0, 128, 0), MemRequest::write(64, 64, 1)]);
        assert_eq!(summary.reads, 1);
        assert_eq!(summary.writes, 1);
        assert_eq!(summary.total_bytes(), 192);
    }
}
