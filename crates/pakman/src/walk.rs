//! Graph walk and contig generation (assembly step E, Fig. 2).
//!
//! After Iterative Compaction the PaK-graph is small and its extensions are long, so
//! a simple traversal suffices (the paper measures this step at ~1 % of runtime,
//! Fig. 5). The walk starts at nodes carrying terminal-start flow (reads began there),
//! repeatedly follows the wired through-path with the highest remaining count, and
//! spells out the visited (k-1)-mer plus every suffix extension along the way.
//!
//! There is one serial stepping core with two sinks over it:
//! [`write_contigs_fasta`] emits each contig straight to a `Write` sink as the
//! traversal produces it, and [`generate_contigs`] collects the same stream into
//! a length-sorted `Vec`. The walk is deliberately not parallel: every start
//! shares the `used`-path state with all earlier ones, and the speculative
//! fork that once ran here measured 35× slower than this core (DESIGN.md,
//! "Streaming contig output"). Each contig's backing
//! [`DnaString`] is allocated once, pre-sized from the span of the chosen path,
//! and filled by appending packed codes — no per-node re-encoding.

use crate::contig::Contig;
use crate::error::PakmanError;
use crate::graph::PakGraph;
use crate::macronode::MacroNode;
use nmp_pak_genome::{fasta, DnaString};
use std::io::Write;
use std::ops::ControlFlow;

/// Generates contigs from a (typically compacted) PaK-graph.
///
/// Contigs shorter than `min_length` bases are discarded. The result is sorted by
/// decreasing length.
pub fn generate_contigs(graph: &PakGraph, min_length: usize) -> Vec<Contig> {
    let mut contigs = Vec::new();
    walk_contigs(graph, min_length, &mut |contig| {
        contigs.push(contig);
        ControlFlow::Continue(())
    });
    contigs.sort_by_key(|c| std::cmp::Reverse(c.len()));
    contigs
}

/// Streams the graph's contigs to `writer` as FASTA records (80-column lines),
/// in walk order, skipping contigs shorter than `min_length` bases. Returns the
/// number of records written.
///
/// Unlike [`generate_contigs`] + [`nmp_pak_genome::fasta::write_fasta`], this
/// never holds more than one contig in memory, so writing the assembly of a
/// budget-capped run (see [`crate::config::SpillConfig`]) does not reintroduce
/// an O(assembly) resident buffer. Records are named `contig_{i} length={len}`.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_contigs_fasta<W: Write>(
    graph: &PakGraph,
    min_length: usize,
    writer: &mut W,
) -> Result<usize, PakmanError> {
    let mut written = 0usize;
    let mut io_error: Option<PakmanError> = None;
    walk_contigs(graph, min_length, &mut |contig| {
        let name = format!("contig_{written} length={}", contig.len());
        match fasta::write_fasta_record(writer, &name, &contig.sequence, 80) {
            Ok(()) => {
                written += 1;
                ControlFlow::Continue(())
            }
            Err(err) => {
                io_error = Some(err.into());
                ControlFlow::Break(())
            }
        }
    });
    match io_error {
        Some(err) => Err(err),
        None => Ok(written),
    }
}

/// The streaming walk core: traverses the graph's three start-point passes and
/// hands each contig of at least `min_length` bases to `emit`, stopping early if
/// `emit` breaks.
fn walk_contigs(
    graph: &PakGraph,
    min_length: usize,
    emit: &mut dyn FnMut(Contig) -> ControlFlow<()>,
) {
    let (mut used, sources, isolated) = UsedPaths::scan(graph);
    // One suffix list for every walk of the run.
    let mut suffixes = Vec::new();

    let deliver = |contig: Contig, emit: &mut dyn FnMut(Contig) -> ControlFlow<()>| {
        if contig.len() >= min_length {
            emit(contig)
        } else {
            ControlFlow::Continue(())
        }
    };

    // Pass 1: start from true source nodes (no incoming interior flow at all). Reads
    // that merely *start* at an otherwise covered node contribute redundant terminal
    // flow and are not separate contig starts.
    for slot in sources {
        let node = graph.node(slot).expect("a source slot is alive");
        for path_idx in 0..node.paths().len() {
            let path = &node.paths()[path_idx];
            if path.suffix.is_some() && !used.of(slot)[path_idx] {
                let contig = walk_from(graph, &mut used, &mut suffixes, slot, path_idx);
                if deliver(contig, emit).is_break() {
                    return;
                }
            }
        }
    }

    // Pass 2: cover leftovers (cycles or wiring breaks) by starting at any unused
    // interior path whose successor still exists. Residual paths that point at nodes
    // removed by compaction are stale wiring noise, not assembly content.
    for (slot, node) in graph.iter_alive() {
        for path_idx in 0..node.paths().len() {
            let path = &node.paths()[path_idx];
            if path.prefix.is_some() && !used.of(slot)[path_idx] {
                if let Some(suffix) = path.suffix.as_ref() {
                    if graph.contains(&node.successor_k1mer(suffix)) {
                        let contig = walk_from(graph, &mut used, &mut suffixes, slot, path_idx);
                        if deliver(contig, emit).is_break() {
                            return;
                        }
                    }
                }
            }
        }
    }

    // Pass 3: isolated nodes with only terminal flow still carry their (k-1)-mer.
    for slot in isolated {
        if used.of(slot).iter().all(|u| !u) {
            used.of_mut(slot).fill(true);
            let node = graph.node(slot).expect("an isolated slot is alive");
            let contig = Contig::new(node.k1mer().to_dna_string());
            if deliver(contig, emit).is_break() {
                return;
            }
        }
    }
}

/// The walk's used-path flags: one flat vector with one flag per path of every
/// alive node, addressed through per-slot offsets (`offsets[slot] ..
/// offsets[slot + 1]`; a dead slot's range is empty).
struct UsedPaths {
    flags: Vec<bool>,
    offsets: Vec<u32>,
}

impl UsedPaths {
    /// One read of the slot vector for everything about a node that the walk
    /// cannot change: the flag layout, and the start candidates of passes 1 and
    /// 3, each ascending — the slots with no incoming interior flow, and the
    /// slots none of whose paths leads on.
    fn scan(graph: &PakGraph) -> (UsedPaths, Vec<usize>, Vec<usize>) {
        let mut offsets = Vec::with_capacity(graph.slot_count() + 1);
        let (mut sources, mut isolated) = (Vec::new(), Vec::new());
        let mut total = 0u32;
        offsets.push(0);
        for slot in 0..graph.slot_count() {
            // Off the alive bitmap: a dead slot is never read.
            if graph.is_alive(slot) {
                let node = graph.node(slot).expect("alive bit implies a node");
                total += node.paths().len() as u32;
                if node.paths().iter().all(|p| p.suffix.is_none()) {
                    isolated.push(slot);
                } else if node.incoming_count() == 0 {
                    sources.push(slot);
                }
            }
            offsets.push(total);
        }
        let used = UsedPaths {
            flags: vec![false; total as usize],
            offsets,
        };
        (used, sources, isolated)
    }

    fn of(&self, slot: usize) -> &[bool] {
        &self.flags[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    fn of_mut(&mut self, slot: usize) -> &mut [bool] {
        &mut self.flags[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }
}

/// The unused path of `node` with the highest count among those whose incoming
/// extension `accept`s — the last of equals, as `Iterator::max_by_key` picks.
fn best_unused(
    node: &MacroNode,
    used: &[bool],
    accept: impl Fn(&DnaString) -> bool,
) -> Option<usize> {
    let mut best: Option<(usize, u32)> = None;
    for (i, path) in node.paths().iter().enumerate() {
        if !used[i]
            && best.is_none_or(|(_, count)| path.count >= count)
            && path.prefix.as_ref().is_some_and(&accept)
        {
            best = Some((i, path.count));
        }
    }
    best.map(|(i, _)| i)
}

/// Walks forward from `(slot, path_idx)`, collecting the suffix extension of every
/// wired step in `suffixes` (cleared first; the caller's, so one allocation
/// serves every walk), until the chain ends or every continuation has already
/// been used.
/// Each path is flagged in `used` as the walk steps onto it, so a walk that
/// re-enters a node (a repeat longer than k) cannot take its own path twice.
/// The contig is then spelled in one pass: a single allocation pre-sized to the
/// walk's span, then the start (k-1)-mer and each suffix spliced in packed form
/// via [`DnaString::extend_from`].
fn walk_from<'g>(
    graph: &'g PakGraph,
    used: &mut UsedPaths,
    suffixes: &mut Vec<&'g DnaString>,
    start_slot: usize,
    start_path: usize,
) -> Contig {
    let start_node = graph.node(start_slot).expect("start slot is alive");
    let start_k1mer = start_node.k1mer();

    let mut slot = start_slot;
    let mut path_idx = start_path;
    suffixes.clear();
    // Bound the walk defensively; each step consumes a path so this cannot loop
    // forever, but the explicit cap keeps malformed graphs from degenerating.
    let max_steps = graph.slot_count().saturating_mul(4) + 16;

    for _ in 0..max_steps {
        let node = match graph.node(slot) {
            Some(n) => n,
            None => break,
        };
        if std::mem::replace(&mut used.of_mut(slot)[path_idx], true) {
            break;
        }

        let path = &node.paths()[path_idx];
        let Some(suffix) = path.suffix.as_ref() else {
            break;
        };
        suffixes.push(suffix);

        // Move to the successor through this suffix. The incoming extension the
        // successor knows us by is the spelled edge minus its own (k-1)-mer —
        // compared in place; only the fallback spells it out.
        let successor_k1mer = node.successor_k1mer(suffix);
        let Some(next_slot) = graph.index_of(&successor_k1mer) else {
            break;
        };
        let next_node = graph.node(next_slot).expect("successor is alive");
        let next_used = used.of(next_slot);
        let exact = |prefix: &DnaString| node.successor_prefix_is(suffix, prefix);
        // Compaction can leave the two sides of an edge at different extension lengths
        // (partial transfers); accept a consistent prefix — one string being a suffix
        // of the other — when no exact match remains.
        let next_path = best_unused(next_node, next_used, exact).or_else(|| {
            let incoming = node.successor_prefix(suffix);
            let consistent =
                |prefix: &DnaString| incoming.ends_with(prefix) || prefix.ends_with(&incoming);
            best_unused(next_node, next_used, consistent)
        });

        match next_path {
            Some(i) => {
                slot = next_slot;
                path_idx = i;
            }
            None => break,
        }
    }

    // Spell the contig in one pre-sized allocation: the walk's span is known
    // exactly, so no growth reallocation and no per-node re-encoding happens.
    let span = start_k1mer.k() + suffixes.iter().map(|s| s.len()).sum::<usize>();
    let mut sequence = DnaString::with_capacity(span);
    sequence.extend_from(&start_k1mer.to_dna_string());
    for suffix in suffixes.iter() {
        sequence.extend_from(suffix);
    }
    debug_assert_eq!(sequence.len(), span);
    Contig::new(sequence)
}

/// Convenience: returns the longest contig spelled by the graph, if any.
pub fn longest_contig(graph: &PakGraph) -> Option<DnaString> {
    generate_contigs(graph, 0)
        .into_iter()
        .map(|c| c.sequence)
        .max_by_key(DnaString::len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::compact;
    use crate::config::PakmanConfig;
    use crate::kmer_count::{count_kmers, KmerCounterConfig};
    use nmp_pak_genome::{Kmer, SequencingRead};

    fn graph_from_reads(reads: &[&str], k: usize) -> PakGraph {
        let reads: Vec<SequencingRead> = reads
            .iter()
            .enumerate()
            .map(|(i, s)| SequencingRead::new(format!("r{i}"), s.parse::<DnaString>().unwrap()))
            .collect();
        let (counted, _) = count_kmers(
            &reads,
            KmerCounterConfig {
                k,
                min_count: 1,
                threads: 1,
            },
        )
        .unwrap();
        PakGraph::from_counted_kmers(&counted, k, 1)
    }

    #[test]
    fn uncompacted_chain_walks_back_to_the_read() {
        let read = "ACGTACCTGATCAG";
        let graph = graph_from_reads(&[read], 5);
        let contigs = generate_contigs(&graph, 0);
        assert_eq!(contigs[0].sequence.to_string(), read);
    }

    #[test]
    fn compacted_chain_walks_back_to_the_read() {
        let read = "ACGTACCTGATCAGTTGCAACGGT";
        let mut graph = graph_from_reads(&[read], 5);
        compact(
            &mut graph,
            &PakmanConfig {
                compaction_node_threshold: 0,
                threads: 1,
                ..PakmanConfig::default()
            },
        );
        let contigs = generate_contigs(&graph, 0);
        assert_eq!(contigs[0].sequence.to_string(), read);
    }

    #[test]
    fn duplicate_reads_do_not_duplicate_contig_content() {
        let read = "ACGTACCTGATCAG";
        let graph = graph_from_reads(&[read, read, read], 5);
        let contigs = generate_contigs(&graph, 0);
        assert_eq!(contigs[0].sequence.to_string(), read);
        // All additional contigs (from duplicated terminal flow) are no longer than
        // the primary contig.
        assert!(contigs.iter().all(|c| c.len() <= read.len()));
    }

    #[test]
    fn two_disjoint_reads_produce_two_contigs() {
        let a = "ACGTACCTGATCAG";
        let b = "GGCCTTAAGTCCTA";
        let graph = graph_from_reads(&[a, b], 5);
        let contigs = generate_contigs(&graph, 0);
        let spelled: Vec<String> = contigs.iter().map(|c| c.sequence.to_string()).collect();
        assert!(
            spelled.contains(&a.to_string()),
            "missing {a} in {spelled:?}"
        );
        assert!(
            spelled.contains(&b.to_string()),
            "missing {b} in {spelled:?}"
        );
    }

    #[test]
    fn min_length_filter_applies() {
        let graph = graph_from_reads(&["ACGTACCTGATCAG"], 5);
        let all = generate_contigs(&graph, 0);
        let filtered = generate_contigs(&graph, 1_000);
        assert!(!all.is_empty());
        assert!(filtered.is_empty());
    }

    #[test]
    fn cyclic_graph_still_terminates_and_covers_sequence() {
        // A perfectly periodic read yields a cycle in the (k-1)-mer graph.
        let read = "ACGACGACGACGACG";
        let graph = graph_from_reads(&[read], 4);
        let contigs = generate_contigs(&graph, 0);
        assert!(!contigs.is_empty());
        let longest = contigs[0].len();
        assert!(longest >= 6, "cycle walk too short: {longest}");
    }

    #[test]
    fn a_walk_re_entering_a_node_does_not_reuse_its_own_path() {
        // Three copies of the unit ACGTTC at k = 5. The walk from the read's
        // start passes through node CGTT, comes back round to it one unit later,
        // and must find that node's only path — the one it took itself — used:
        // it stops there instead of circling until the step cap.
        let read = "GGTCAACGTTCACGTTCACGTTCCCATG";
        let graph = graph_from_reads(&[read], 5);
        let (mut used, _, _) = UsedPaths::scan(&graph);
        let repeat_node = graph
            .index_of(&Kmer::from_dna(&"CGTT".parse().unwrap(), 0, 4).unwrap())
            .unwrap();
        assert_eq!(used.of(repeat_node).len(), 1);

        let start = graph
            .index_of(&Kmer::from_dna(&read.parse().unwrap(), 0, 4).unwrap())
            .unwrap();
        let contig = walk_from(&graph, &mut used, &mut Vec::new(), start, 0);
        assert_eq!(contig.sequence.to_string(), "GGTCAACGTTCACGTT");
        assert!(used.of(repeat_node)[0]);
    }

    #[test]
    fn longest_contig_helper() {
        let graph = graph_from_reads(&["ACGTACCTGATCAG", "GGCCTTA"], 5);
        let longest = longest_contig(&graph).unwrap();
        assert_eq!(longest.to_string(), "ACGTACCTGATCAG");
    }

    #[test]
    fn empty_graph_produces_no_contigs() {
        let graph = PakGraph::default();
        assert!(generate_contigs(&graph, 0).is_empty());
        assert!(longest_contig(&graph).is_none());
        let mut sink = Vec::new();
        assert_eq!(write_contigs_fasta(&graph, 0, &mut sink).unwrap(), 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn incoming_extension_matches_the_spelled_edge_slice() {
        // Suffixes shorter than, as long as and longer than the (k-1)-mer, up to
        // ones whose incoming extension lives on the heap (> 64 bases).
        let k1mer = Kmer::from_dna(&"ACGTA".parse().unwrap(), 0, 5).unwrap();
        let node = MacroNode::new(k1mer);
        let unit = "TGCATGGATTACA";
        for len in [1, 2, 4, 5, 9, 31, 32, 33, 37, 38, 64, 65, 69, 70, 100] {
            let suffix: DnaString = unit.repeat(len / unit.len() + 1)[..len].parse().unwrap();
            let via_spell = crate::macronode::spell_suffix(&k1mer, &suffix).slice(0, len);
            assert_eq!(node.successor_prefix(&suffix), via_spell, "suffix of {len}");

            // The in-place comparison accepts exactly that string: not one with
            // any single base changed, not a shorter or a longer one.
            assert!(
                node.successor_prefix_is(&suffix, &via_spell),
                "suffix of {len}"
            );
            for at in 0..len {
                let mut text = via_spell.to_ascii().into_bytes();
                text[at] = if text[at] == b'A' { b'C' } else { b'A' };
                let wrong: DnaString = String::from_utf8(text).unwrap().parse().unwrap();
                assert!(
                    !node.successor_prefix_is(&suffix, &wrong),
                    "{len}: base {at}"
                );
            }
            let shorter = via_spell.slice(0, len - 1);
            assert!(
                !node.successor_prefix_is(&suffix, &shorter),
                "suffix of {len}"
            );
            let mut longer = via_spell.clone();
            longer.extend_from(&"A".parse().unwrap());
            assert!(
                !node.successor_prefix_is(&suffix, &longer),
                "suffix of {len}"
            );
        }
    }

    #[test]
    fn the_best_unused_path_is_the_last_of_the_highest_counts() {
        let dna = |text: &str| text.parse::<DnaString>().unwrap();
        let mut node = MacroNode::new(Kmer::from_ascii("ACGT").unwrap());
        for (prefix, count) in [("A", 2), ("C", 5), ("A", 5), ("G", 9), ("A", 5), ("A", 1)] {
            node.push_path(crate::macronode::ThroughPath::through(
                dna(prefix),
                dna("T"),
                count,
            ));
        }
        let is_a = |prefix: &DnaString| *prefix == dna("A");
        let oracle = |used: &[bool]| {
            let paths = node.paths().iter().enumerate();
            let open = paths.filter(|(i, p)| !used[*i] && p.prefix.as_ref().is_some_and(is_a));
            open.max_by_key(|(_, p)| p.count).map(|(i, _)| i)
        };
        let mut used = [false; 6];
        for expected in [Some(4), Some(2), Some(0), Some(5), None] {
            assert_eq!(best_unused(&node, &used, is_a), expected);
            assert_eq!(oracle(&used), expected);
            if let Some(i) = expected {
                used[i] = true;
            }
        }
    }

    #[test]
    fn streamed_fasta_matches_the_collected_contigs() {
        let reads = ["ACGTACCTGATCAGTTGCAACGGT", "GGCCTTAAGTCCTA"];
        let mut graph = graph_from_reads(&reads, 5);
        compact(
            &mut graph,
            &PakmanConfig {
                compaction_node_threshold: 0,
                threads: 1,
                ..PakmanConfig::default()
            },
        );

        let mut sink = Vec::new();
        let written = write_contigs_fasta(&graph, 0, &mut sink).unwrap();
        let records = nmp_pak_genome::fasta::read_fasta(std::io::Cursor::new(sink)).unwrap();
        assert_eq!(records.len(), written);
        assert!(written >= 2);

        // The streamed records are exactly the collected contigs (walk order vs
        // length order), with self-describing names.
        let mut streamed: Vec<String> = records.iter().map(|r| r.sequence.to_string()).collect();
        let contigs = generate_contigs(&graph, 0);
        // The walk keeps no state between calls: the same graph walks the same.
        assert_eq!(generate_contigs(&graph, 0), contigs);
        let mut collected: Vec<String> = contigs.iter().map(|c| c.sequence.to_string()).collect();
        streamed.sort();
        collected.sort();
        assert_eq!(streamed, collected);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(
                record.name,
                format!("contig_{i} length={}", record.sequence.len())
            );
        }
    }

    #[test]
    fn min_length_filter_applies_to_the_streamed_writer() {
        let graph = graph_from_reads(&["ACGTACCTGATCAG"], 5);
        let mut sink = Vec::new();
        assert_eq!(write_contigs_fasta(&graph, 1_000, &mut sink).unwrap(), 0);
        assert!(sink.is_empty());
    }
}
