//! Pre-refactor reference implementations of assembly steps B, C and D.
//!
//! These reproduce, through public APIs only, the hot paths this repository shipped
//! before the packed-u64 and frontier-compaction refactors (see `DESIGN.md`): a
//! *serial* k-way merge and run-length count that reconstructs every distinct
//! k-mer base-by-base, a `BTreeMap`-based MacroNode construction with per-entry
//! allocation and linear-probe extension bumping, and a full-scan Iterative
//! Compaction whose P2/P3 stages run serially and whose neighbour iteration
//! aggregates extensions with an O(n²) dedupe and a `to_string()`-per-comparison
//! sort. The recipe probe ([`crate::sweep::BaselineProbe`]) times them against
//! the current pipeline; the resulting `speedup.*` metrics are what the `smoke`
//! recipe's CI floors gate.
//!
//! They are benchmark fixtures, not supported assembly entry points: all of them
//! must keep producing output identical to the optimized pipeline (asserted by
//! this module's tests), but nothing else in the workspace may call them.

use nmp_pak_genome::{Base, DnaString, Kmer, SequencingRead};
use nmp_pak_pakman::transfer::TransferSide;
use nmp_pak_pakman::{
    CompactionStats, CompactionTrace, CountedKmer, IterationStats, IterationTrace, MacroNode,
    NodeCheck, PakGraph, PakmanConfig, SizeHistogram, TransferEvent, TransferNode, UpdateEvent,
};
use std::collections::BTreeMap;

/// Pre-refactor step B: parallel extraction and per-thread sort (the seed already
/// had §4.5 (a)–(c)), followed by a serial pairwise merge, a serial run-length
/// count, and per-base k-mer reconstruction.
pub fn count_kmers_baseline(
    reads: &[SequencingRead],
    k: usize,
    min_count: u32,
    threads: usize,
) -> Vec<CountedKmer> {
    let threads = threads.clamp(1, reads.len().max(1));
    let chunk_size = reads.len().div_ceil(threads).max(1);
    let mut runs: Vec<Vec<u64>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for chunk in reads.chunks(chunk_size) {
            handles.push(scope.spawn(move || {
                let capacity: usize = chunk.iter().map(|r| r.len().saturating_sub(k - 1)).sum();
                let mut local = Vec::with_capacity(capacity);
                for read in chunk {
                    if read.len() < k {
                        continue;
                    }
                    for kmer in Kmer::iter_windows(read.sequence(), k).expect("length checked") {
                        local.push(kmer.packed());
                    }
                }
                local.sort_unstable();
                local
            }));
        }
        for handle in handles {
            runs.push(handle.join().expect("extraction worker panicked"));
        }
    });

    // Serial pairwise merge — the single-threaded funnel the refactor removed.
    runs.retain(|r| !r.is_empty());
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_two_serial(a, b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    let merged = runs.pop().unwrap_or_default();

    // Serial run-length count with base-by-base k-mer reconstruction.
    let mut counted = Vec::new();
    let mut i = 0usize;
    while i < merged.len() {
        let value = merged[i];
        let mut j = i + 1;
        while j < merged.len() && merged[j] == value {
            j += 1;
        }
        let count = (j - i) as u32;
        if count >= min_count {
            counted.push(CountedKmer {
                kmer: kmer_from_packed_per_base(value, k),
                count,
            });
        }
        i = j;
    }
    counted
}

/// The per-base reconstruction loop the refactor replaced with `Kmer::from_packed`.
fn kmer_from_packed_per_base(packed: u64, k: usize) -> Kmer {
    let bases = (0..k).map(|i| {
        let shift = 2 * (k - 1 - i);
        Base::from_code(((packed >> shift) & 0b11) as u8)
    });
    Kmer::from_bases(bases).expect("k validated by caller")
}

fn merge_two_serial(a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Pre-refactor step C: accumulate extensions in a `BTreeMap<Kmer, Pending>` with
/// one heap entry per (k-1)-mer and linear-probe extension bumping.
pub fn build_graph_baseline(counted: &[CountedKmer], k: usize) -> PakGraph {
    #[derive(Default)]
    struct Pending {
        prefixes: Vec<(Base, u32)>,
        suffixes: Vec<(Base, u32)>,
    }
    fn bump(list: &mut Vec<(Base, u32)>, base: Base, count: u32) {
        match list.iter_mut().find(|(b, _)| *b == base) {
            Some((_, c)) => *c += count,
            None => list.push((base, count)),
        }
    }

    let mut pending: BTreeMap<Kmer, Pending> = BTreeMap::new();
    for ck in counted {
        let kmer = ck.kmer;
        bump(
            &mut pending.entry(kmer.suffix_k1()).or_default().prefixes,
            kmer.first_base(),
            ck.count,
        );
        bump(
            &mut pending.entry(kmer.prefix_k1()).or_default().suffixes,
            kmer.last_base(),
            ck.count,
        );
    }

    let nodes: Vec<MacroNode> = pending
        .into_iter()
        .map(|(k1mer, p)| MacroNode::from_extensions(k1mer, p.prefixes, p.suffixes))
        .collect();
    PakGraph::from_nodes(nodes, k)
}

/// Pre-refactor step D: full-scan Iterative Compaction with serial P2/P3 and
/// allocating neighbour iteration.
///
/// This is a faithful vendoring of the `compact()` this repository shipped
/// before the frontier refactor: every iteration re-checks every alive node
/// (P1, parallel over `config.threads`), extracts and invalidates serially
/// (P2), and resolves + applies every TransferNode on the calling thread (P3),
/// allocating its check vectors, transfer list and touched bitmap per
/// iteration. The invalidation check aggregates extensions through the seed's
/// O(n²) linear-scan dedupe with a `to_string()`-per-comparison sort, then
/// spells each neighbour's (k-1)-mer through an intermediate `DnaString`.
///
/// Returns the statistics and (when `config.record_trace` is set) the trace; the
/// current engine must reproduce both bit for bit, which is asserted by this
/// module's tests.
pub fn compact_baseline(
    graph: &mut PakGraph,
    config: &PakmanConfig,
) -> (CompactionStats, Option<CompactionTrace>) {
    let initial_nodes = graph.alive_count();
    let mut trace = config.record_trace.then(|| {
        let mut sizes = vec![0usize; graph.slot_count()];
        for (slot, node) in graph.iter_alive() {
            sizes[slot] = node.size_bytes();
        }
        CompactionTrace::new(graph.slot_count(), sizes)
    });

    let mut stats = CompactionStats {
        initial_nodes,
        final_nodes: initial_nodes,
        ..CompactionStats::default()
    };

    for iteration in 0..config.max_compaction_iterations {
        let alive_before = graph.alive_count();
        if alive_before <= config.compaction_node_threshold {
            stats.converged = true;
            break;
        }

        // ---- Stage P1: full-scan invalidation check ----
        let checks = run_invalidation_checks_baseline(graph, config.threads);
        let mut histogram = SizeHistogram::new();
        for check in &checks {
            histogram.record(check.size_bytes);
        }
        let invalidated_slots: Vec<usize> = checks
            .iter()
            .filter(|c| c.invalidated)
            .map(|c| c.slot)
            .collect();

        if invalidated_slots.is_empty() {
            stats.iterations.push(IterationStats {
                iteration,
                alive_before,
                invalidated: 0,
                transfers: 0,
                unmatched_transfers: 0,
                histogram,
            });
            if let Some(trace) = trace.as_mut() {
                trace.iterations.push(IterationTrace {
                    checks,
                    transfers: Vec::new(),
                    updates: Vec::new(),
                });
            }
            stats.converged = true;
            break;
        }

        // ---- Stage P2: serial extraction + invalidation ----
        let mut transfers: Vec<(usize, TransferNode)> = Vec::new();
        for &slot in &invalidated_slots {
            let node = graph.node(slot).expect("invalidated slot was alive");
            transfers.extend(TransferNode::extract_all(node).map(|t| (slot, t)));
            graph.invalidate(slot);
        }

        // ---- Stage P3: serial routing and destination update ----
        let mut transfer_events = Vec::with_capacity(transfers.len());
        let mut touched = vec![false; graph.slot_count()];
        let mut touched_order: Vec<usize> = Vec::new();
        let mut unmatched = 0usize;
        for (source_slot, transfer) in &transfers {
            match graph.index_of(&transfer.destination) {
                Some(dest_slot) => {
                    transfer_events.push(TransferEvent {
                        source_slot: *source_slot,
                        dest_slot,
                        size_bytes: transfer.size_bytes(),
                    });
                    let dest = graph.node_mut(dest_slot).expect("destination is alive");
                    if apply_transfer_baseline(dest, transfer) {
                        if !touched[dest_slot] {
                            touched[dest_slot] = true;
                            touched_order.push(dest_slot);
                        }
                    } else {
                        unmatched += 1;
                    }
                }
                None => unmatched += 1,
            }
        }

        let updates: Vec<UpdateEvent> = touched_order
            .iter()
            .map(|&dest_slot| UpdateEvent {
                dest_slot,
                size_bytes: graph
                    .node(dest_slot)
                    .map(MacroNode::size_bytes)
                    .unwrap_or(0),
            })
            .collect();

        stats.total_transfers += transfers.len();
        stats.iterations.push(IterationStats {
            iteration,
            alive_before,
            invalidated: invalidated_slots.len(),
            transfers: transfers.len(),
            unmatched_transfers: unmatched,
            histogram,
        });
        if let Some(trace) = trace.as_mut() {
            trace.iterations.push(IterationTrace {
                checks,
                transfers: transfer_events,
                updates,
            });
        }
    }

    stats.final_nodes = graph.alive_count();
    if graph.alive_count() <= config.compaction_node_threshold {
        stats.converged = true;
    }
    (stats, trace)
}

/// The pre-refactor P1 scan: one check per alive node, chunked over scoped
/// threads, collecting into freshly allocated per-thread vectors.
fn run_invalidation_checks_baseline(graph: &PakGraph, threads: usize) -> Vec<NodeCheck> {
    let slots: Vec<usize> = graph.iter_alive().map(|(slot, _)| slot).collect();
    let threads = threads.max(1).min(slots.len().max(1));
    if threads <= 1 || slots.len() < 64 {
        return slots
            .iter()
            .map(|&slot| check_one_baseline(graph, slot))
            .collect();
    }

    let chunk = slots.len().div_ceil(threads);
    let mut results: Vec<NodeCheck> = Vec::with_capacity(slots.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in slots.chunks(chunk) {
            handles.push(scope.spawn(move || {
                part.iter()
                    .map(|&slot| check_one_baseline(graph, slot))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            results.extend(handle.join().expect("invalidation-check worker panicked"));
        }
    });
    results
}

fn check_one_baseline(graph: &PakGraph, slot: usize) -> NodeCheck {
    let node = graph.node(slot).expect("slot is alive");
    NodeCheck {
        slot,
        size_bytes: node.size_bytes(),
        invalidated: is_invalidation_target_baseline(graph, node),
    }
}

/// The pre-refactor invalidation check: aggregate the distinct prefix/suffix
/// extensions (O(n²) dedupe, `to_string()` sort), spell each neighbour
/// (k-1)-mer through an intermediate `DnaString`, sort and dedup the neighbour
/// lists, then compare.
fn is_invalidation_target_baseline(graph: &PakGraph, node: &MacroNode) -> bool {
    if !node.is_fully_interior() {
        return false;
    }
    let own = node.k1mer();
    let k1_len = own.k();
    let predecessors: Vec<Kmer> = {
        let mut out: Vec<Kmer> = aggregate_baseline(
            node.paths()
                .iter()
                .filter_map(|p| p.prefix.as_ref().map(|e| (e.clone(), p.count))),
        )
        .iter()
        .map(|(prefix, _)| {
            let mut spell = DnaString::with_capacity(prefix.len() + k1_len);
            spell.extend_from(prefix);
            spell.extend(own.to_dna_string().iter());
            Kmer::from_dna(&spell, 0, k1_len).expect("spell long enough")
        })
        .collect();
        out.sort();
        out.dedup();
        out
    };
    let successors: Vec<Kmer> = {
        let mut out: Vec<Kmer> = aggregate_baseline(
            node.paths()
                .iter()
                .filter_map(|p| p.suffix.as_ref().map(|e| (e.clone(), p.count))),
        )
        .iter()
        .map(|(suffix, _)| {
            let mut spell = DnaString::with_capacity(suffix.len() + k1_len);
            spell.extend(own.to_dna_string().iter());
            spell.extend_from(suffix);
            Kmer::from_dna(&spell, spell.len() - k1_len, k1_len).expect("spell long enough")
        })
        .collect();
        out.sort();
        out.dedup();
        out
    };

    let mut neighbour_count = 0usize;
    for neighbour in predecessors.into_iter().chain(successors) {
        if !graph.contains(&neighbour) {
            return false;
        }
        neighbour_count += 1;
        if neighbour >= own {
            return false;
        }
    }
    neighbour_count > 0
}

/// The seed's extension aggregation: linear-scan dedupe (O(n²)) and a sort whose
/// comparator stringifies both sides on every call.
fn aggregate_baseline<I: Iterator<Item = (DnaString, u32)>>(items: I) -> Vec<(DnaString, u32)> {
    let mut out: Vec<(DnaString, u32)> = Vec::new();
    for (ext, count) in items {
        match out.iter_mut().find(|(e, _)| *e == ext) {
            Some((_, c)) => *c += count,
            None => out.push((ext, count)),
        }
    }
    out.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });
    out
}

/// The pre-refactor TransferNode application (unchanged semantics; vendored so
/// the baseline is self-contained).
fn apply_transfer_baseline(dest: &mut MacroNode, transfer: &TransferNode) -> bool {
    let mut remaining = transfer.count;
    let mut new_paths = Vec::new();
    let paths = dest.paths_mut();

    for path in paths.iter_mut() {
        if remaining == 0 {
            break;
        }
        let matches = match transfer.side {
            TransferSide::Predecessor => path.suffix.as_ref() == Some(&transfer.match_ext),
            TransferSide::Successor => path.prefix.as_ref() == Some(&transfer.match_ext),
        };
        if !matches {
            continue;
        }
        let take = path.count.min(remaining);
        if take == path.count {
            match transfer.side {
                TransferSide::Predecessor => path.suffix = Some(transfer.new_ext.clone()),
                TransferSide::Successor => path.prefix = Some(transfer.new_ext.clone()),
            }
        } else {
            path.count -= take;
            let mut split = path.clone();
            split.count = take;
            match transfer.side {
                TransferSide::Predecessor => split.suffix = Some(transfer.new_ext.clone()),
                TransferSide::Successor => split.prefix = Some(transfer.new_ext.clone()),
            }
            new_paths.push(split);
        }
        remaining -= take;
    }

    paths.extend(new_paths);
    remaining < transfer.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_core::workload::Workload;
    use nmp_pak_pakman::{compact, count_kmers, KmerCounterConfig};

    /// The baseline is only a valid speedup denominator while it still produces the
    /// same assembly state as the optimized pipeline.
    #[test]
    fn baseline_matches_optimized_pipeline() {
        let workload = Workload::synthesize("baseline_check", 5_000, 15.0, 0.001, 7).unwrap();
        let k = 17;
        let (optimized, _) = count_kmers(
            &workload.reads,
            KmerCounterConfig {
                k,
                min_count: 2,
                threads: 4,
            },
        )
        .unwrap();
        let baseline = count_kmers_baseline(&workload.reads, k, 2, 4);
        assert_eq!(optimized, baseline);

        let opt_graph = PakGraph::from_counted_kmers(&optimized, k, 4);
        let base_graph = build_graph_baseline(&baseline, k);
        assert_eq!(opt_graph.slot_count(), base_graph.slot_count());
        for slot in 0..opt_graph.slot_count() {
            assert_eq!(opt_graph.node(slot), base_graph.node(slot), "slot {slot}");
        }

        // Step D: the pre-refactor compactor, a full scan every iteration, and
        // the current engine's frontier agree on statistics, trace, and every
        // graph slot.
        let traced = PakmanConfig {
            k,
            record_trace: true,
            ..PakmanConfig::default()
        };
        let mut base_compacted = base_graph;
        let (base_stats, base_trace) = compact_baseline(&mut base_compacted, &traced);
        let mut graph = opt_graph;
        let outcome = compact(&mut graph, &traced);
        assert_eq!(outcome.stats, base_stats);
        assert_eq!(outcome.trace, base_trace);
        for slot in 0..graph.slot_count() {
            assert_eq!(graph.node(slot), base_compacted.node(slot), "slot {slot}");
        }
        // What the frontier buys: after the iteration-0 full scan it evaluates
        // strictly fewer predicates than the alive census a full scan pays.
        let frontier = outcome.profile;
        assert!(frontier.iterations.len() > 1);
        assert!(frontier.iterations[1..]
            .iter()
            .all(|it| it.checked_nodes < it.alive_nodes));
        let full_scan: usize = frontier.iterations.iter().map(|it| it.alive_nodes).sum();
        assert!(frontier.total_checked() < full_scan);
    }
}
