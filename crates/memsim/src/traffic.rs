//! Memory traffic of compaction traces under each process flow.
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
//!
//! Traffic is counted, not replayed: every access is one request of whole lines
//! ([`NodeLayout`]'s line size, at least one line), summed per iteration by the
//! backend's own model loop into an [`IterationTraffic`].

use crate::layout::NodeLayout;
use nmp_pak_pakman::trace::IterationTrace;

/// Bytes of the small per-node metadata accesses (the invalidation mark, the
/// `MN data2` wiring info), before rounding to lines.
const METADATA_BYTES: usize = 64;

/// Which process flow to model when counting a trace's memory traffic.
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

/// The traffic of one compaction iteration: the integer counts every
/// [`ProcessFlow`] is a function of.
///
/// A backend counts these in its own model loops, as it visits each check and
/// update for its timing, and then adds them with
/// [`TrafficSummary::add_iteration`]; no second pass over the events is
/// needed. Every byte count is of line-rounded accesses
/// ([`NodeLayout::access_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterationTraffic {
    /// Stage-P1 checks (one per alive node).
    pub checks: u64,
    /// Bytes the checks read.
    pub check_bytes: u64,
    /// Checks that invalidated their node.
    pub invalidated: u64,
    /// Bytes of the invalidated nodes.
    pub invalidated_bytes: u64,
    /// Destination updates.
    pub updates: u64,
    /// Bytes of the updated destinations.
    pub update_bytes: u64,
}

impl IterationTraffic {
    /// The request counts of `iteration` — one per check, one per update —
    /// with no bytes yet: the model loop adds them with
    /// [`IterationTraffic::check`] and [`IterationTraffic::update`].
    pub fn new(iteration: &IterationTrace) -> IterationTraffic {
        IterationTraffic {
            checks: iteration.checks.len() as u64,
            updates: iteration.updates.len() as u64,
            ..IterationTraffic::default()
        }
    }

    /// Counts `iteration` by itself, for a model that needs nothing else from
    /// its events; `access_bytes` is the layout's line rounding.
    pub fn count(
        iteration: &IterationTrace,
        access_bytes: impl Fn(usize) -> u64,
    ) -> IterationTraffic {
        let mut counts = IterationTraffic::new(iteration);
        for check in &iteration.checks {
            counts.check(access_bytes(check.size_bytes as usize), check.invalidated);
        }
        for update in &iteration.updates {
            counts.update(access_bytes(update.size_bytes as usize));
        }
        counts
    }

    /// Adds the bytes of one check that moves `bytes`.
    #[inline]
    pub fn check(&mut self, bytes: u64, invalidated: bool) {
        // Branch-free: the verdicts of a real trace do not follow a pattern.
        let invalidated = u64::from(invalidated);
        self.check_bytes += bytes;
        self.invalidated += invalidated;
        self.invalidated_bytes += bytes * invalidated;
    }

    /// Adds the bytes of one destination update that moves `bytes`.
    #[inline]
    pub fn update(&mut self, bytes: u64) {
        self.update_bytes += bytes;
    }
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
    /// Adds the requests of one compaction iteration, counted in `counts`,
    /// under `flow`.
    ///
    /// Every flow reads each alive node in stage P1 and writes each updated
    /// destination back in P3. The baseline also writes every node's
    /// invalidation mark during P1, re-reads every node in its separate P2
    /// scan, moves (writes) each invalidated node instead of deleting it
    /// lazily, and reads each destination before updating it. The optimized
    /// flow fetches only the invalidated nodes' wiring metadata in P2 and
    /// reads each destination; ideal forwarding drops that destination read.
    /// The metadata accesses round to `layout`'s lines.
    #[inline]
    pub fn add_iteration(
        &mut self,
        counts: IterationTraffic,
        layout: &NodeLayout,
        flow: ProcessFlow,
    ) {
        let metadata_bytes = layout.access_bytes(METADATA_BYTES);
        let IterationTraffic {
            checks,
            check_bytes,
            invalidated,
            invalidated_bytes,
            updates,
            update_bytes,
        } = counts;

        self.read(checks, check_bytes);
        self.write(updates, update_bytes);
        match flow {
            ProcessFlow::Baseline => {
                self.write(checks, checks * metadata_bytes);
                self.read(checks, check_bytes);
                self.write(invalidated, invalidated_bytes);
                self.read(updates, update_bytes);
            }
            ProcessFlow::Optimized => {
                self.read(invalidated, invalidated * metadata_bytes);
                self.read(updates, update_bytes);
            }
            ProcessFlow::IdealForwarding => {
                self.read(invalidated, invalidated * metadata_bytes);
            }
        }
    }

    fn read(&mut self, requests: u64, bytes: u64) {
        self.reads += requests;
        self.read_bytes += bytes;
    }

    fn write(&mut self, requests: u64, bytes: u64) {
        self.writes += requests;
        self.write_bytes += bytes;
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use nmp_pak_pakman::trace::{NodeCheck, UpdateEvent};

    /// Three alive nodes — one a line multiple, one invalidated, one empty —
    /// and two destination updates whose sizes are not line multiples.
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
                    size_bytes: 0,
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

    fn counts(layout: &NodeLayout) -> IterationTraffic {
        IterationTraffic::count(&sample_iteration(), |bytes| layout.access_bytes(bytes))
    }

    fn counted(flow: ProcessFlow) -> TrafficSummary {
        let (mut summary, layout) = (TrafficSummary::default(), layout());
        summary.add_iteration(counts(&layout), &layout, flow);
        summary
    }

    /// `(reads, writes, read bytes, write bytes)`.
    fn tuple(t: TrafficSummary) -> (u64, u64, u64, u64) {
        (t.reads, t.writes, t.read_bytes, t.write_bytes)
    }

    // Line-rounded sizes: checks 256 + 512 + 64 (the empty node still moves a
    // line) = 832 B, of which 512 B invalidated; updates 320 + 192 = 512 B.

    #[test]
    fn iteration_counts_are_line_rounded_per_access() {
        let expected = IterationTraffic {
            checks: 3,
            check_bytes: 832,
            invalidated: 1,
            invalidated_bytes: 512,
            updates: 2,
            update_bytes: 512,
        };
        assert_eq!(counts(&layout()), expected);
        let empty = IterationTraffic::count(&IterationTrace::default(), |_| unreachable!());
        assert_eq!(empty, IterationTraffic::default());
    }

    #[test]
    fn optimized_flow_reads_each_alive_node_once() {
        // Reads: 3 checks (832 B), 1 metadata fetch (64 B), 2 destinations
        // (512 B). Writes: the 2 destination write-backs (512 B).
        assert_eq!(tuple(counted(ProcessFlow::Optimized)), (6, 2, 1_408, 512));
    }

    #[test]
    fn baseline_flow_has_more_reads_and_writes_than_optimized() {
        // Reads: P1 and P2 each read 3 nodes (2 × 832 B), 2 destinations
        // (512 B). Writes: 3 invalidation marks (3 × 64 B), 1 moved node
        // (512 B), 2 destination write-backs (512 B).
        let base = counted(ProcessFlow::Baseline);
        assert_eq!(tuple(base), (8, 6, 2_176, 1_216));
        let opt = counted(ProcessFlow::Optimized);
        assert!(base.read_bytes > opt.read_bytes);
        assert!(base.write_bytes > opt.write_bytes);
        assert!(base.reads > opt.reads);
        assert!(base.writes > opt.writes);
    }

    #[test]
    fn ideal_forwarding_removes_destination_reads() {
        let fwd = counted(ProcessFlow::IdealForwarding);
        assert_eq!(tuple(fwd), (4, 2, 896, 512));
        let opt = counted(ProcessFlow::Optimized);
        assert_eq!(
            opt.read_bytes - fwd.read_bytes,
            512,
            "the destination reads"
        );
        assert_eq!(fwd.write_bytes, opt.write_bytes);
    }

    #[test]
    fn traffic_summary_totals() {
        let mut summary = TrafficSummary::default();
        let layout = layout();
        summary.add_iteration(counts(&layout), &layout, ProcessFlow::Optimized);
        assert_eq!(summary.total_bytes(), 1_920);
        summary.add_iteration(counts(&layout), &layout, ProcessFlow::Optimized);
        assert_eq!(tuple(summary), (12, 4, 2_816, 1_024));
        assert_eq!(summary.total_bytes(), 3_840);
    }

    #[test]
    fn metadata_accesses_round_to_the_layout_line() {
        let wide = NodeLayout::new(
            &[256, 512, 128],
            &DramConfig {
                line_bytes: 128,
                ..DramConfig::default()
            },
        );
        let mut summary = TrafficSummary::default();
        summary.add_iteration(counts(&wide), &wide, ProcessFlow::IdealForwarding);
        // Checks 256 + 512 + 128, one 128 B metadata fetch; updates 384 + 256.
        assert_eq!(tuple(summary), (4, 2, 1_024, 640));
    }
}
