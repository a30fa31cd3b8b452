//! Memory-footprint accounting (§3.5 and §4.4–4.5 of the paper).
//!
//! PaKman's runtime footprint expands to 13–25× the on-disk input size during
//! MacroNode construction, wiring and Iterative Compaction; the paper's software
//! optimizations reduce the peak by 1.4× (pointer-based `MN_map`, deferred deletion)
//! and batching by a further ~10× (processing 10 % of the input at a time), for a
//! combined 14× reduction. This module models those quantities for a given workload
//! so the footprint experiments (Table 1 context, §6.6 GPU-capacity analysis) can be
//! reproduced at any scale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live byte-budget accounting shared by every bounded-memory mechanism.
///
/// Where [`MemoryFootprint`] is the *analytic* model (what a workload would
/// need), a `MemoryBudget` is the *runtime* ledger: bytes are charged as data
/// becomes resident and released when it is evicted, and the high-water mark is
/// recorded. Both the pipelined batch scheduler's `max_inflight_bytes` window
/// ([`crate::batch::BatchSchedule::Pipelined`]) and the external-memory
/// counter's spill budget ([`crate::config::SpillConfig`]) draw from this one
/// machinery, so "resident bytes" means the same thing on both paths (the
/// shared-accounting contract in DESIGN.md).
///
/// The ledger is advisory, not an allocator: callers decide what to do when
/// [`MemoryBudget::is_over`] reports an overdraft (stall admission, spill the
/// largest buckets). Charging is allowed to exceed the capacity so a consumer
/// larger than the whole budget can still make progress.
///
/// Budgets can be chained: a child created with [`MemoryBudget::with_parent`]
/// forwards every charge and release to its parent, and reports an overdraft
/// when *either* its own capacity or the parent's is exceeded. This is how the
/// job server imposes one host-wide cap across many concurrent assemblies —
/// each job's batch window and spill budget are children of the server's
/// global ledger, so global pressure stalls admission or triggers spilling
/// exactly like local pressure does, without changing any output bit.
#[derive(Debug, Default)]
pub struct MemoryBudget {
    /// Budget in bytes; `None` is unbounded (the ledger still tracks the peak).
    capacity: Option<u64>,
    used: AtomicU64,
    peak: AtomicU64,
    /// Upstream ledger every charge/release is mirrored into.
    parent: Option<Arc<MemoryBudget>>,
}

impl MemoryBudget {
    /// A budget of `capacity_bytes`.
    pub fn bounded(capacity_bytes: u64) -> MemoryBudget {
        MemoryBudget {
            capacity: Some(capacity_bytes),
            ..MemoryBudget::default()
        }
    }

    /// An unlimited budget that still records usage and the peak.
    pub fn unbounded() -> MemoryBudget {
        MemoryBudget::default()
    }

    /// Rebinds this budget as a child of `parent`: every subsequent charge and
    /// release is mirrored into the parent ledger, and overdraft checks
    /// consider both capacities.
    pub fn with_parent(mut self, parent: Arc<MemoryBudget>) -> MemoryBudget {
        self.parent = Some(parent);
        self
    }

    /// The configured capacity, or `None` when unbounded.
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Charges `bytes` as resident, updating the peak. Returns the new total.
    /// Chained parents are charged too.
    pub fn charge(&self, bytes: u64) -> u64 {
        if let Some(parent) = &self.parent {
            parent.charge(bytes);
        }
        let now = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Releases `bytes` previously charged (saturating at zero). Chained
    /// parents see the release too.
    pub fn release(&self, bytes: u64) {
        if let Some(parent) = &self.parent {
            parent.release(bytes);
        }
        // fetch_update never fails with Some; saturate rather than underflow so a
        // double-release stays a bookkeeping blemish instead of a wrapping bug.
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                Some(used.saturating_sub(bytes))
            });
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of charged bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// `true` when the charged bytes exceed a bounded capacity, either this
    /// ledger's own or (for chained budgets) any ancestor's.
    pub fn is_over(&self) -> bool {
        self.capacity.is_some_and(|cap| self.used() > cap)
            || self.parent.as_ref().is_some_and(|p| p.is_over())
    }

    /// `true` if charging `bytes` more would exceed a bounded capacity, this
    /// ledger's own or any ancestor's.
    pub fn would_exceed(&self, bytes: u64) -> bool {
        self.capacity
            .is_some_and(|cap| self.used().saturating_add(bytes) > cap)
            || self.parent.as_ref().is_some_and(|p| p.would_exceed(bytes))
    }
}

/// Peak-memory model for one assembly run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryFootprint {
    /// Bytes of packed input reads held in memory.
    pub reads_bytes: u64,
    /// Bytes of extracted (non-distinct) k-mers during counting (8 B per packed k-mer).
    pub kmer_buffer_bytes: u64,
    /// Bytes of MacroNodes after graph construction.
    pub macronode_bytes: u64,
    /// Peak bytes during Iterative Compaction with the §4.5 pointer/deferred-deletion
    /// optimizations applied.
    pub compaction_peak_bytes: u64,
    /// Peak bytes during Iterative Compaction **without** those optimizations
    /// (MacroNodes copied by value on every call; the paper measures this as 1.4×).
    pub unoptimized_compaction_peak_bytes: u64,
}

/// Factor by which the unoptimized implementation inflates the compaction-phase peak
/// (528 GB → 379 GB for the 10 % human batch in §4.5 ⇒ ≈ 1.39×).
pub const UNOPTIMIZED_EXPANSION_FACTOR: f64 = 1.4;

impl MemoryFootprint {
    /// Builds the footprint model from observed workload quantities.
    pub fn from_workload(
        read_bases: u64,
        total_kmers: u64,
        macronode_bytes: u64,
    ) -> MemoryFootprint {
        let reads_bytes = read_bases.div_ceil(4);
        let kmer_buffer_bytes = total_kmers * 8;
        // During compaction the live set is the graph plus what stage D holds
        // beside it. The eighth is the allowance for in-flight transfer state.
        // Since the streamed pass that is one path's pair of TransferNodes and
        // the nodes retired this iteration, parked until the pass ends — nodes
        // `macronode_bytes` already counts, so the term now errs high. (Until
        // that pass the whole iteration's transfers were materialised — 2 × Σ
        // paths entries of 112 B, 9.7 MB beside the 13.3 MB slot vector of one
        // of the benchmark's `batch_stream` batches — and "a small fraction of
        // node bytes", as this comment then read, was false.) The driver's
        // per-slot scratch (≈ 70 B a slot on iteration 0) is not modelled: it is
        // part of what `memory.rss_vs_model_x` reads above 1.
        let compaction_peak_bytes = macronode_bytes + macronode_bytes / 8;
        let unoptimized_compaction_peak_bytes =
            (compaction_peak_bytes as f64 * UNOPTIMIZED_EXPANSION_FACTOR) as u64;
        MemoryFootprint {
            reads_bytes,
            kmer_buffer_bytes,
            macronode_bytes,
            compaction_peak_bytes,
            unoptimized_compaction_peak_bytes,
        }
    }

    /// Peak bytes across all phases with the software optimizations applied.
    pub fn peak_bytes(&self) -> u64 {
        self.reads_bytes
            .max(self.kmer_buffer_bytes + self.reads_bytes)
            .max(self.compaction_peak_bytes)
    }

    /// Peak bytes without the §4.5 memory-management optimizations.
    pub fn unoptimized_peak_bytes(&self) -> u64 {
        self.reads_bytes
            .max(self.kmer_buffer_bytes + self.reads_bytes)
            .max(self.unoptimized_compaction_peak_bytes)
    }

    /// Expansion of the peak footprint relative to the packed input reads
    /// (the paper reports 13–25× relative to the on-disk input).
    #[cfg(test)]
    pub(crate) fn expansion_factor(&self) -> f64 {
        if self.reads_bytes == 0 {
            return 0.0;
        }
        self.peak_bytes() as f64 / self.reads_bytes as f64
    }

    /// Footprint if the input were split into `1 / batch_fraction` equal batches and
    /// processed sequentially (§4.4): per-phase quantities scale with the fraction,
    /// while the merged compacted graphs (tens of MB in the paper) are negligible and
    /// folded into the per-batch peak.
    pub fn with_batching(&self, batch_fraction: f64) -> MemoryFootprint {
        let f = batch_fraction.clamp(0.0, 1.0);
        let scale = |v: u64| (v as f64 * f) as u64;
        MemoryFootprint {
            reads_bytes: scale(self.reads_bytes),
            kmer_buffer_bytes: scale(self.kmer_buffer_bytes),
            macronode_bytes: scale(self.macronode_bytes),
            compaction_peak_bytes: scale(self.compaction_peak_bytes),
            unoptimized_compaction_peak_bytes: scale(self.unoptimized_compaction_peak_bytes),
        }
    }

    /// Combined reduction factor of batching plus the software optimizations, relative
    /// to the unoptimized, unbatched footprint (the paper's headline 14×).
    pub fn reduction_factor_vs_unoptimized(&self, batch_fraction: f64) -> f64 {
        let batched = self.with_batching(batch_fraction);
        if batched.peak_bytes() == 0 {
            return 0.0;
        }
        self.unoptimized_peak_bytes() as f64 / batched.peak_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemoryFootprint {
        // 1 Gbase of reads, 1 G k-mers, 20 GB of MacroNodes — proportions in line with
        // the paper's 10 % human batch (38 GB reads → 379 GB peak).
        MemoryFootprint::from_workload(1_000_000_000, 1_000_000_000, 20_000_000_000)
    }

    #[test]
    fn peak_is_dominated_by_compaction_phase() {
        let fp = sample();
        assert_eq!(fp.peak_bytes(), fp.compaction_peak_bytes);
        assert!(fp.unoptimized_peak_bytes() > fp.peak_bytes());
    }

    #[test]
    fn expansion_factor_is_an_order_of_magnitude() {
        let fp = sample();
        let factor = fp.expansion_factor();
        assert!(factor > 10.0 && factor < 200.0, "factor = {factor}");
    }

    #[test]
    fn unoptimized_costs_about_1_4x() {
        let fp = sample();
        let ratio = fp.unoptimized_compaction_peak_bytes as f64 / fp.compaction_peak_bytes as f64;
        assert!((ratio - UNOPTIMIZED_EXPANSION_FACTOR).abs() < 0.01);
    }

    #[test]
    fn batching_scales_the_footprint() {
        let fp = sample();
        let tenth = fp.with_batching(0.1);
        assert!(tenth.peak_bytes() < fp.peak_bytes() / 9);
        assert!(tenth.peak_bytes() > fp.peak_bytes() / 11);
    }

    #[test]
    fn combined_reduction_reaches_the_paper_magnitude() {
        // 1.4× (software) × 10× (batching) ≈ 14×.
        let fp = sample();
        let reduction = fp.reduction_factor_vs_unoptimized(0.1);
        assert!(
            reduction > 12.0 && reduction < 16.0,
            "reduction = {reduction}"
        );
    }

    #[test]
    fn empty_workload_is_safe() {
        let fp = MemoryFootprint::from_workload(0, 0, 0);
        assert_eq!(fp.peak_bytes(), 0);
        assert_eq!(fp.expansion_factor(), 0.0);
        assert_eq!(fp.reduction_factor_vs_unoptimized(0.1), 0.0);
    }

    #[test]
    fn budget_tracks_usage_peak_and_overdraft() {
        let budget = MemoryBudget::bounded(100);
        assert_eq!(budget.capacity(), Some(100));
        assert!(!budget.is_over());
        assert_eq!(budget.charge(60), 60);
        assert!(!budget.is_over());
        assert!(budget.would_exceed(41));
        assert!(!budget.would_exceed(40));
        assert_eq!(budget.charge(60), 120);
        assert!(budget.is_over());
        assert_eq!(budget.peak_bytes(), 120);
        budget.release(80);
        assert_eq!(budget.used(), 40);
        assert!(!budget.is_over());
        // The peak survives releases.
        assert_eq!(budget.peak_bytes(), 120);
        // Over-release saturates instead of wrapping.
        budget.release(1_000);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn chained_budget_mirrors_into_parent() {
        let global = Arc::new(MemoryBudget::bounded(100));
        let child = MemoryBudget::unbounded().with_parent(Arc::clone(&global));
        child.charge(60);
        assert_eq!(child.used(), 60);
        assert_eq!(global.used(), 60);
        // The child itself is unbounded, but the parent's cap makes it report
        // overdraft once the *global* ledger is saturated.
        assert!(!child.is_over());
        assert!(child.would_exceed(41));
        global.charge(50);
        assert!(child.is_over());
        child.release(60);
        assert_eq!(child.used(), 0);
        assert_eq!(global.used(), 50);
        assert!(!child.is_over());
        // Peaks are tracked per ledger.
        assert_eq!(child.peak_bytes(), 60);
        assert_eq!(global.peak_bytes(), 110);
    }

    #[test]
    fn unbounded_budget_never_overdraws() {
        let budget = MemoryBudget::unbounded();
        assert_eq!(budget.capacity(), None);
        budget.charge(u64::MAX / 2);
        assert!(!budget.is_over());
        assert!(!budget.would_exceed(u64::MAX / 2));
        assert_eq!(budget.peak_bytes(), u64::MAX / 2);
    }
}
