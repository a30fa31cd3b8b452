//! The MacroNode data structure (Fig. 3 of the paper).
//!
//! A MacroNode groups every k-mer that shares a (k-1)-mer. The shared (k-1)-mer is
//! stored once; each grouped k-mer contributes a one-base *prefix* or *suffix*
//! extension. During Iterative Compaction those extensions grow into multi-base
//! strings as neighbouring nodes are folded in, which is exactly the dynamic,
//! non-uniform size behaviour the paper analyses in §3.4 (Figs. 7 and 8).
//!
//! Internally this implementation stores the node's *wiring* directly as a list of
//! [`ThroughPath`]s — (prefix extension, suffix extension, count) triples describing
//! how sequence flow passes through the node. The paper's prefix list, suffix list and
//! internal wiring information are all derived views of this list, which keeps the
//! TransferNode extraction and update rules (Fig. 4) straightforward to express.

use crate::extension::Extension;
use nmp_pak_genome::{Base, Kmer};

/// One unit of sequence flow through a MacroNode.
///
/// * `prefix = None` means the flow *starts* at this node (a read began here);
/// * `suffix = None` means the flow *ends* at this node (a read ended here).
///
/// The invariant linking neighbouring nodes: if node `X` has a path with prefix `e`,
/// then the predecessor node `P` (whose (k-1)-mer is the first k-1 bases of
/// `e + X.k1mer`) has a path whose suffix `s` satisfies `P.k1mer + s == e + X.k1mer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughPath {
    /// Incoming extension (bases that precede the (k-1)-mer), or `None` for a
    /// read-start terminal.
    pub prefix: Option<Extension>,
    /// Outgoing extension (bases that follow the (k-1)-mer), or `None` for a
    /// read-end terminal.
    pub suffix: Option<Extension>,
    /// Number of k-mer observations supporting this path.
    pub count: u32,
}

impl ThroughPath {
    /// Creates a path with both sides present.
    pub fn through(prefix: Extension, suffix: Extension, count: u32) -> Self {
        ThroughPath {
            prefix: Some(prefix),
            suffix: Some(suffix),
            count,
        }
    }

    /// `true` if the path has both an incoming and an outgoing extension.
    pub fn is_interior(&self) -> bool {
        self.prefix.is_some() && self.suffix.is_some()
    }

    /// Bytes this path takes in PaKman's MacroNode layout (Fig. 11): each
    /// present extension packed four bases a byte behind a 16-byte header, an
    /// absent one a byte, plus the count and list bookkeeping.
    ///
    /// This models the paper's node, not this struct (a path here is 40
    /// bytes, its extensions inline up to 32 bases): the trace, the memory
    /// footprints and Fig. 12's traffic are all read off this formula.
    pub fn size_bytes(&self) -> usize {
        let ext_bytes =
            |e: &Option<Extension>| e.as_ref().map(|s| s.len().div_ceil(4) + 16).unwrap_or(1);
        // count (4) + two Option discriminants (2) + vector bookkeeping share (8)
        14 + ext_bytes(&self.prefix) + ext_bytes(&self.suffix)
    }
}

/// The through-path list of a [`MacroNode`], with the first path stored inline.
///
/// Most nodes of a PaK-graph are 1-in / 1-out chain links carrying exactly one
/// path, so a node with one path owns no heap allocation: the node, its
/// (k-1)-mer and its path are one contiguous slot of the graph's slot vector, and
/// a check / apply / walk step reaches the extensions without a second
/// dependent cache miss. From the second path on, all paths live in a vector
/// grown to exactly the number of paths (extensions only ever split, a handful
/// of times per node, so exact growth is cheap and nothing is over-reserved).
///
/// Dereferences to `[ThroughPath]`; equality compares the paths, not which
/// variant holds them.
#[derive(Debug, Clone)]
pub struct PathList(Paths);

#[derive(Debug, Clone)]
enum Paths {
    One(ThroughPath),
    /// Zero paths (an unallocated vector) or at least two.
    Many(Vec<ThroughPath>),
}

impl PathList {
    fn new() -> Self {
        PathList(Paths::Many(Vec::new()))
    }

    /// Appends one path.
    pub fn push(&mut self, path: ThroughPath) {
        self.0 = match std::mem::replace(&mut self.0, Paths::Many(Vec::new())) {
            Paths::Many(paths) if paths.is_empty() => Paths::One(path),
            Paths::Many(mut paths) => {
                paths.reserve_exact(1);
                paths.push(path);
                Paths::Many(paths)
            }
            Paths::One(first) => Paths::Many(vec![first, path]),
        };
    }
}

impl Extend<ThroughPath> for PathList {
    fn extend<I: IntoIterator<Item = ThroughPath>>(&mut self, iter: I) {
        for path in iter {
            self.push(path);
        }
    }
}

impl std::ops::Deref for PathList {
    type Target = [ThroughPath];

    fn deref(&self) -> &[ThroughPath] {
        match &self.0 {
            Paths::One(path) => std::slice::from_ref(path),
            Paths::Many(paths) => paths,
        }
    }
}

impl std::ops::DerefMut for PathList {
    fn deref_mut(&mut self) -> &mut [ThroughPath] {
        match &mut self.0 {
            Paths::One(path) => std::slice::from_mut(path),
            Paths::Many(paths) => paths,
        }
    }
}

impl PartialEq for PathList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PathList {}

/// A MacroNode: a shared (k-1)-mer plus the sequence flow passing through it.
///
/// # Example
///
/// ```
/// use nmp_pak_genome::{Base, Kmer};
/// use nmp_pak_pakman::MacroNode;
///
/// // Node "GTCA" with one incoming k-mer AGTCA and one outgoing k-mer GTCAT.
/// let node = MacroNode::from_extensions(
///     Kmer::from_ascii("GTCA").unwrap(),
///     vec![(Base::A, 6)],
///     vec![(Base::T, 6)],
/// );
/// assert_eq!(node.paths().len(), 1);
/// assert_eq!(node.predecessor_k1mers()[0].to_string(), "AGTC");
/// assert_eq!(node.successor_k1mers()[0].to_string(), "TCAT");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroNode {
    k1mer: Kmer,
    paths: PathList,
}

impl MacroNode {
    /// Creates an empty MacroNode for the given (k-1)-mer.
    pub fn new(k1mer: Kmer) -> Self {
        MacroNode {
            k1mer,
            paths: PathList::new(),
        }
    }

    /// Builds a MacroNode from single-base prefix and suffix extensions with counts,
    /// running the count-based wiring step of assembly stage C (Fig. 2).
    ///
    /// Prefix and suffix multiplicities are matched greedily in descending count order
    /// (the same count-proportional heuristic PaKman uses); any imbalance becomes
    /// terminal flow (`prefix = None` or `suffix = None` paths).
    pub fn from_extensions(
        k1mer: Kmer,
        prefixes: Vec<(Base, u32)>,
        suffixes: Vec<(Base, u32)>,
    ) -> Self {
        let mut node = MacroNode::new(k1mer);
        node.wire(prefixes, suffixes);
        node
    }

    /// Fast-path constructor for the by-far most common node shape: exactly one
    /// prefix extension and one suffix extension (an interior chain node).
    ///
    /// Produces exactly what [`MacroNode::from_extensions`] would for the same
    /// input — a single through-path carrying `max(prefix_count, suffix_count)`
    /// flow (the count-imbalance folding of [`MacroNode::wire`][Self::from_extensions]
    /// collapses to `max` when each side has one extension) — without allocating
    /// the intermediate extension lists. Construction calls this for every 1-in /
    /// 1-out node, which is the overwhelming majority of the graph.
    ///
    /// # Panics
    ///
    /// Debug builds assert both counts are nonzero (a zero count would make the
    /// node terminal, which this constructor cannot express).
    pub fn single_through(
        k1mer: Kmer,
        prefix: Base,
        prefix_count: u32,
        suffix: Base,
        suffix_count: u32,
    ) -> Self {
        debug_assert!(prefix_count > 0 && suffix_count > 0);
        MacroNode {
            k1mer,
            paths: PathList(Paths::One(ThroughPath::through(
                Extension::from_base(prefix),
                Extension::from_base(suffix),
                prefix_count.max(suffix_count),
            ))),
        }
    }

    fn wire(&mut self, prefixes: Vec<(Base, u32)>, suffixes: Vec<(Base, u32)>) {
        let mut ps: Vec<(Extension, u32)> = prefixes
            .into_iter()
            .filter(|(_, c)| *c > 0)
            .map(|(b, c)| (Extension::from_base(b), c))
            .collect();
        let mut ss: Vec<(Extension, u32)> = suffixes
            .into_iter()
            .filter(|(_, c)| *c > 0)
            .map(|(b, c)| (Extension::from_base(b), c))
            .collect();
        ps.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        ss.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        let best_prefix = ps.first().map(|(e, _)| e.clone());
        let best_suffix = ss.first().map(|(e, _)| e.clone());

        let (mut i, mut j) = (0usize, 0usize);
        while i < ps.len() && j < ss.len() {
            let flow = ps[i].1.min(ss[j].1);
            self.paths
                .push(ThroughPath::through(ps[i].0.clone(), ss[j].0.clone(), flow));
            ps[i].1 -= flow;
            ss[j].1 -= flow;
            if ps[i].1 == 0 {
                i += 1;
            }
            if ss[j].1 == 0 {
                j += 1;
            }
        }

        // Leftover flow on one side: if the opposite side saw any flow at all, the
        // imbalance is only sampling noise from read boundaries (the reads that start
        // or end here are covered by longer reads passing through), so the leftover is
        // folded into an existing path with the same extension (or wired through the
        // opposite side's dominant extension). Only nodes with *no* flow on the
        // opposite side carry true terminal (contig-endpoint) flow.
        for (prefix, count) in ps.into_iter().skip(i).filter(|(_, c)| *c > 0) {
            if let Some(path) = self
                .paths
                .iter_mut()
                .find(|p| p.prefix.as_ref() == Some(&prefix))
            {
                path.count += count;
            } else if let Some(suffix) = &best_suffix {
                self.paths
                    .push(ThroughPath::through(prefix, suffix.clone(), count));
            } else {
                self.paths.push(ThroughPath {
                    prefix: Some(prefix),
                    suffix: None,
                    count,
                });
            }
        }
        for (suffix, count) in ss.into_iter().skip(j).filter(|(_, c)| *c > 0) {
            if let Some(path) = self
                .paths
                .iter_mut()
                .find(|p| p.suffix.as_ref() == Some(&suffix))
            {
                path.count += count;
            } else if let Some(prefix) = &best_prefix {
                self.paths
                    .push(ThroughPath::through(prefix.clone(), suffix, count));
            } else {
                self.paths.push(ThroughPath {
                    prefix: None,
                    suffix: Some(suffix),
                    count,
                });
            }
        }
    }

    /// The node's (k-1)-mer.
    pub fn k1mer(&self) -> Kmer {
        self.k1mer
    }

    /// The owner-computes shard this node lives on when the graph is split into
    /// `shard_count` shards (a stable hash of the packed (k-1)-mer; see
    /// [`nmp_pak_genome::shard_of_packed`]).
    #[cfg(test)]
    pub(crate) fn owner_shard(&self, shard_count: usize) -> usize {
        nmp_pak_genome::shard_of_packed(self.k1mer.packed(), shard_count)
    }

    /// The sequence-flow paths through this node.
    pub fn paths(&self) -> &[ThroughPath] {
        &self.paths
    }

    /// Mutable access to the through-path list (`iter_mut`, indexing, `push`,
    /// `extend`). Hidden: this exists for compaction updates and the
    /// pre-refactor benchmark fixtures in `nmp-pak-bench`; direct edits bypass
    /// the wiring invariants, so it is not part of the supported API surface.
    #[doc(hidden)]
    pub fn paths_mut(&mut self) -> &mut PathList {
        &mut self.paths
    }

    /// Adds a path (used when merging per-batch compacted graphs).
    pub fn push_path(&mut self, path: ThroughPath) {
        self.paths.push(path);
    }

    /// Distinct prefix extensions with aggregated counts.
    pub fn prefix_extensions(&self) -> Vec<(Extension, u32)> {
        aggregate(
            self.paths
                .iter()
                .filter_map(|p| p.prefix.as_ref().map(|e| (e.clone(), p.count))),
        )
    }

    /// Distinct suffix extensions with aggregated counts.
    pub fn suffix_extensions(&self) -> Vec<(Extension, u32)> {
        aggregate(
            self.paths
                .iter()
                .filter_map(|p| p.suffix.as_ref().map(|e| (e.clone(), p.count))),
        )
    }

    /// Total incoming (prefix-side) flow, excluding terminal starts.
    pub fn incoming_count(&self) -> u32 {
        self.paths
            .iter()
            .filter(|p| p.prefix.is_some())
            .map(|p| p.count)
            .sum()
    }

    /// Total outgoing (suffix-side) flow, excluding terminal ends.
    #[cfg(test)]
    pub(crate) fn outgoing_count(&self) -> u32 {
        self.paths
            .iter()
            .filter(|p| p.suffix.is_some())
            .map(|p| p.count)
            .sum()
    }

    /// Flow that starts at this node (read-start terminals).
    #[cfg(test)]
    pub(crate) fn terminal_start_count(&self) -> u32 {
        self.paths
            .iter()
            .filter(|p| p.prefix.is_none())
            .map(|p| p.count)
            .sum()
    }

    /// Flow that ends at this node (read-end terminals).
    #[cfg(test)]
    pub(crate) fn terminal_end_count(&self) -> u32 {
        self.paths
            .iter()
            .filter(|p| p.suffix.is_none())
            .map(|p| p.count)
            .sum()
    }

    /// `true` if every path passes through the node (no terminal flow). Only such
    /// nodes are candidates for invalidation during Iterative Compaction — removing a
    /// node with terminal flow would lose a contig endpoint.
    pub fn is_fully_interior(&self) -> bool {
        !self.paths.is_empty() && self.paths.iter().all(ThroughPath::is_interior)
    }

    /// The (k-1)-mer of the predecessor node reached through prefix extension `prefix`.
    ///
    /// This is the "calculate preceding node's (k-1)-mer" append operation of
    /// pipeline stage P1 (Fig. 4 (b), Fig. 10): the first k-1 bases of
    /// `prefix + self.k1mer`. The extension and the (k-1)-mer share one bit
    /// layout, so this is the extension's head shifted over the (k-1)-mer's
    /// remaining bases — stage P1 evaluates it for every neighbour of every
    /// checked node, every iteration.
    #[inline]
    pub fn predecessor_k1mer(&self, prefix: &Extension) -> Kmer {
        let (k1_len, p) = (self.k1mer.k(), prefix.len());
        if p >= k1_len {
            // The neighbour lies entirely inside the extension.
            return Kmer::from_packed(prefix.head(k1_len), k1_len);
        }
        // `prefix` supplies the leading bases; the rest is our own (k-1)-mer with
        // its last `p` bases dropped (`packed >> 2p`).
        let low = self.k1mer.packed() >> (2 * p);
        Kmer::from_packed((prefix.head(p) << (2 * (k1_len - p))) | low, k1_len)
    }

    /// The (k-1)-mer of the successor node reached through suffix extension `suffix`:
    /// the last k-1 bases of `self.k1mer + suffix`. Mirror of
    /// [`MacroNode::predecessor_k1mer`].
    #[inline]
    pub fn successor_k1mer(&self, suffix: &Extension) -> Kmer {
        let (k1_len, s) = (self.k1mer.k(), suffix.len());
        if s >= k1_len {
            return Kmer::from_packed(suffix.tail(k1_len), k1_len);
        }
        // Our own (k-1)-mer shifted up by `s` bases (`from_packed` masks off
        // the first `s`), then `suffix` below it.
        Kmer::from_packed((self.k1mer.packed() << (2 * s)) | suffix.tail(s), k1_len)
    }

    /// The suffix extension under which the predecessor reached through `prefix`
    /// records this edge: the last `prefix.len()` bases of `prefix + self.k1mer`
    /// (the spelled edge minus the predecessor's own (k-1)-mer) — `pred_ext` of
    /// Fig. 4 (c). A mask of our (k-1)-mer, or the tail of `prefix` joined to it.
    #[inline]
    pub fn predecessor_suffix(&self, prefix: &Extension) -> Extension {
        let (k1_len, p) = (self.k1mer.k(), prefix.len());
        if p <= k1_len {
            // The low 2p bits of our own packed (k-1)-mer.
            return Extension::from_packed(self.k1mer.packed(), p);
        }
        prefix.range_then_word(k1_len, p - k1_len, self.k1mer.packed(), k1_len)
    }

    /// The prefix extension under which the successor reached through `suffix`
    /// records this edge: the first `suffix.len()` bases of `self.k1mer + suffix`.
    /// Mirror of [`MacroNode::predecessor_suffix`]; the walk matches a
    /// successor's paths against it.
    #[inline]
    pub fn successor_prefix(&self, suffix: &Extension) -> Extension {
        let (k1_len, s) = (self.k1mer.k(), suffix.len());
        if s <= k1_len {
            return Extension::from_packed(self.k1mer.packed() >> (2 * (k1_len - s)), s);
        }
        Extension::word_then_range(self.k1mer.packed(), k1_len, suffix, s - k1_len)
    }

    /// `prefix == self.successor_prefix(suffix)` without building the right-hand
    /// side past one word: the first bases of `prefix` against this node's
    /// (k-1)-mer, the rest against the head of `suffix`, a word at a time. The
    /// walk asks this of every candidate path of every step.
    #[inline]
    pub fn successor_prefix_is(&self, suffix: &Extension, prefix: &Extension) -> bool {
        let (k1_len, s) = (self.k1mer.k(), suffix.len());
        if prefix.len() != s {
            return false;
        }
        if s <= 32 {
            return *prefix == self.successor_prefix(suffix);
        }
        prefix.head(k1_len) == self.k1mer.packed()
            && (k1_len..s).step_by(32).all(|at| {
                let n = (s - at).min(32);
                prefix.window(at, n) == suffix.window(at - k1_len, n)
            })
    }

    /// Distinct predecessor (k-1)-mers over all prefix extensions.
    pub fn predecessor_k1mers(&self) -> Vec<Kmer> {
        let mut out: Vec<Kmer> = self
            .prefix_extensions()
            .iter()
            .map(|(e, _)| self.predecessor_k1mer(e))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Distinct successor (k-1)-mers over all suffix extensions.
    pub fn successor_k1mers(&self) -> Vec<Kmer> {
        let mut out: Vec<Kmer> = self
            .suffix_extensions()
            .iter()
            .map(|(e, _)| self.successor_k1mer(e))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Bytes this node takes in PaKman's MacroNode layout (Fig. 11): a fixed
    /// header (packed (k-1)-mer, vector headers, map entry) plus each path's
    /// [`ThroughPath::size_bytes`] — the accounting of Figs. 7–8 and the 1 KB
    /// hybrid-offload threshold.
    ///
    /// This models the paper's node, not this struct (56 bytes with its first
    /// path, more only for a second path or a long extension); the trace, the
    /// memory footprints and Fig. 12 are all read off this formula.
    pub fn size_bytes(&self) -> usize {
        const HEADER_BYTES: usize = 64;
        HEADER_BYTES
            + self
                .paths
                .iter()
                .map(ThroughPath::size_bytes)
                .sum::<usize>()
    }
}

/// `prefix + k1mer` spelled out as a [`nmp_pak_genome::DnaString`] — the
/// reference construction the word arithmetic is tested against.
#[cfg(test)]
pub(crate) fn spell_prefix(prefix: &Extension, k1mer: &Kmer) -> nmp_pak_genome::DnaString {
    let mut s = prefix.to_dna_string();
    s.extend_from(&k1mer.to_dna_string());
    s
}

/// `k1mer + suffix` spelled out (test reference, as above).
#[cfg(test)]
pub(crate) fn spell_suffix(k1mer: &Kmer, suffix: &Extension) -> nmp_pak_genome::DnaString {
    let mut s = k1mer.to_dna_string();
    s.extend_from(&suffix.to_dna_string());
    s
}

/// Extracts the `[start, start + len)` window of `dna` as a [`Kmer`].
#[cfg(test)]
pub(crate) fn kmer_from_slice(dna: &nmp_pak_genome::DnaString, start: usize, len: usize) -> Kmer {
    Kmer::from_dna(dna, start, len).expect("window bounds validated by caller")
}

/// Merges duplicate extensions and orders the result by count (descending), then
/// ASCII-lexicographically ([`Extension::cmp_lexicographic`]). The dedupe is a
/// sort over the packed words followed by a run-length merge.
fn aggregate<I: Iterator<Item = (Extension, u32)>>(items: I) -> Vec<(Extension, u32)> {
    let mut out: Vec<(Extension, u32)> = items.collect();
    out.sort_by(|a, b| a.0.cmp_lexicographic(&b.0));
    let mut merged: Vec<(Extension, u32)> = Vec::with_capacity(out.len());
    for (ext, count) in out {
        match merged.last_mut() {
            Some((e, c)) if *e == ext => *c += count,
            _ => merged.push((ext, count)),
        }
    }
    merged.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp_lexicographic(&b.0)));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(text: &str) -> Kmer {
        Kmer::from_ascii(text).unwrap()
    }

    fn d(text: &str) -> Extension {
        text.parse().unwrap()
    }

    #[test]
    fn paper_fig3_example_groups_kmers_by_shared_k1mer() {
        // Fig. 3(a): with k = 5, k-mers AGTCA, CGTCA, TGTCA, GTCAT, GTCAG share
        // (k-1)-mer GTCA: three prefixes (A, C, T) and two suffixes (T, G).
        let node = MacroNode::from_extensions(
            k("GTCA"),
            vec![(Base::A, 1), (Base::C, 1), (Base::T, 1)],
            vec![(Base::T, 1), (Base::G, 1)],
        );
        assert_eq!(node.prefix_extensions().len(), 3);
        assert_eq!(node.suffix_extensions().len(), 2);
        assert_eq!(node.incoming_count(), 3);
        // The read that ends at this node is covered by the through-flow, so the
        // one-k-mer imbalance is wired through rather than kept as terminal flow.
        assert_eq!(node.outgoing_count(), 3);
        assert_eq!(node.terminal_end_count(), 0);
        assert!(node.is_fully_interior());
    }

    #[test]
    fn single_through_matches_general_wiring() {
        for (pc, sc) in [(1, 1), (7, 7), (2, 5), (9, 3)] {
            let fast = MacroNode::single_through(k("GTCA"), Base::A, pc, Base::T, sc);
            let general =
                MacroNode::from_extensions(k("GTCA"), vec![(Base::A, pc)], vec![(Base::T, sc)]);
            assert_eq!(fast, general, "pc={pc} sc={sc}");
        }
    }

    #[test]
    fn equality_clone_and_push_are_representation_independent() {
        // The same paths reach a node three ways: the wiring of
        // `from_extensions`, one `push_path` at a time (inline first path, then
        // the exactly-grown vector), and one `extend` of the whole list.
        let wired = MacroNode::from_extensions(
            k("ACGT"),
            vec![(Base::A, 10), (Base::C, 3)],
            vec![(Base::G, 7), (Base::T, 6)],
        );
        assert!(wired.paths().len() >= 2);
        let mut pushed = MacroNode::new(k("ACGT"));
        let mut extended = MacroNode::new(k("ACGT"));
        assert_eq!(pushed, extended);
        assert!(pushed.paths().is_empty());
        for (i, path) in wired.paths().iter().enumerate() {
            assert_ne!(pushed, wired);
            pushed.push_path(path.clone());
            assert_eq!(pushed.paths(), &wired.paths()[..=i]);
            assert_eq!(pushed.clone(), pushed);
        }
        extended.paths_mut().extend(wired.paths().to_vec());
        assert_eq!(pushed, wired);
        assert_eq!(extended, wired);
        assert_eq!(pushed.size_bytes(), wired.size_bytes());

        // A clone is equal and independent; `iter_mut` reaches the inline path.
        let single = MacroNode::single_through(k("ACGT"), Base::A, 2, Base::T, 2);
        let mut edited = single.clone();
        assert_eq!(edited, single);
        for path in edited.paths_mut().iter_mut() {
            path.count += 1;
        }
        assert_ne!(edited, single);
        assert_eq!(single.paths()[0].count, 2);
        // One path pushed onto an empty node equals the single-path fast path.
        let mut one = MacroNode::new(k("ACGT"));
        one.push_path(single.paths()[0].clone());
        assert_eq!(one, single);
    }

    #[test]
    fn slot_and_transfer_layouts_stay_within_their_cache_line_budget() {
        // A graph slot is the node, its (k-1)-mer and its first path in one
        // piece: one cache line at most. A TransferNode with its source slot is
        // what the streamed pass builds and hands over per transfer: one line
        // too. A new field must not silently double either.
        use std::mem::size_of;
        assert!(size_of::<Option<MacroNode>>() <= 64);
        assert_eq!(size_of::<Option<MacroNode>>(), size_of::<MacroNode>());
        assert!(size_of::<(usize, crate::transfer::TransferNode)>() <= 64);
    }

    #[test]
    fn wiring_conserves_counts() {
        let node = MacroNode::from_extensions(
            k("ACGT"),
            vec![(Base::A, 10), (Base::C, 3)],
            vec![(Base::G, 7), (Base::T, 6)],
        );
        let total_in: u32 = node.incoming_count();
        let total_out: u32 = node.outgoing_count();
        assert_eq!(total_in, 13);
        assert_eq!(total_out, 13);
        let path_total: u32 = node.paths().iter().map(|p| p.count).sum();
        // Interior flow is min(13, 13) = 13; no terminals needed.
        assert_eq!(path_total, 13);
        assert!(node.is_fully_interior());
    }

    #[test]
    fn imbalance_with_flow_on_both_sides_is_wired_through() {
        let node = MacroNode::from_extensions(k("ACGT"), vec![(Base::A, 2)], vec![(Base::G, 5)]);
        // The 3 extra suffix observations are wired through the dominant prefix.
        assert_eq!(node.terminal_start_count(), 0);
        assert_eq!(node.incoming_count(), 5);
        assert_eq!(node.outgoing_count(), 5);
        assert!(node.is_fully_interior());
    }

    #[test]
    fn one_sided_nodes_carry_terminal_flow() {
        let start = MacroNode::from_extensions(k("ACGT"), vec![(Base::A, 0)], vec![(Base::G, 4)]);
        assert_eq!(start.terminal_start_count(), 4);
        assert!(!start.is_fully_interior());
        let end = MacroNode::from_extensions(k("ACGT"), vec![(Base::C, 2)], vec![(Base::G, 0)]);
        assert_eq!(end.terminal_end_count(), 2);
        assert!(!end.is_fully_interior());
    }

    #[test]
    fn zero_count_extensions_are_ignored() {
        let node = MacroNode::from_extensions(
            k("ACGT"),
            vec![(Base::A, 0), (Base::C, 2)],
            vec![(Base::G, 2), (Base::T, 0)],
        );
        assert_eq!(node.prefix_extensions().len(), 1);
        assert_eq!(node.suffix_extensions().len(), 1);
    }

    #[test]
    fn neighbour_k1mers_match_paper_fig4() {
        // Fig. 4(b): node GTCA with prefixes {A, C} and suffixes {T, G} has
        // predecessors AGTC / CGTC and successors TCAT / TCAG.
        let node = MacroNode::from_extensions(
            k("GTCA"),
            vec![(Base::A, 1), (Base::C, 1)],
            vec![(Base::T, 1), (Base::G, 1)],
        );
        let preds: Vec<String> = node
            .predecessor_k1mers()
            .iter()
            .map(Kmer::to_string)
            .collect();
        let succs: Vec<String> = node
            .successor_k1mers()
            .iter()
            .map(Kmer::to_string)
            .collect();
        assert!(preds.contains(&"AGTC".to_string()));
        assert!(preds.contains(&"CGTC".to_string()));
        assert!(succs.contains(&"TCAT".to_string()));
        assert!(succs.contains(&"TCAG".to_string()));
    }

    #[test]
    fn multi_base_extensions_compute_neighbours_correctly() {
        // Fig. 4(b) also computes CAGT for the two-base prefix "CA" of node GTCA.
        let node = MacroNode::new(k("GTCA"));
        assert_eq!(node.predecessor_k1mer(&d("CA")).to_string(), "CAGT");
        assert_eq!(node.successor_k1mer(&d("CA")).to_string(), "CACA");
        // Extensions longer than k-1 work too: the neighbour lies entirely inside the
        // extension.
        assert_eq!(node.predecessor_k1mer(&d("TTTTTT")).to_string(), "TTTT");
        assert_eq!(node.successor_k1mer(&d("AAAAAA")).to_string(), "AAAA");
    }

    #[test]
    fn size_grows_with_extension_length() {
        let small = MacroNode::from_extensions(k("ACGT"), vec![(Base::A, 1)], vec![(Base::C, 1)]);
        let mut large = small.clone();
        large.paths_mut()[0].suffix = Some(d(&"ACGT".repeat(64)));
        assert!(large.size_bytes() > small.size_bytes());
        assert!(small.size_bytes() >= 64);
    }

    #[test]
    fn aggregated_extensions_merge_duplicates() {
        let mut node = MacroNode::new(k("ACGT"));
        node.push_path(ThroughPath::through(d("A"), d("T"), 3));
        node.push_path(ThroughPath::through(d("A"), d("G"), 2));
        node.push_path(ThroughPath::through(d("C"), d("T"), 1));
        let prefixes = node.prefix_extensions();
        assert_eq!(prefixes[0], (d("A"), 5));
        assert_eq!(prefixes[1], (d("C"), 1));
        let suffixes = node.suffix_extensions();
        assert_eq!(suffixes[0], (d("T"), 4));
    }

    #[test]
    fn spell_helpers_concatenate() {
        assert_eq!(spell_prefix(&d("AG"), &k("TTC")).to_string(), "AGTTC");
        assert_eq!(spell_suffix(&k("TTC"), &d("AG")).to_string(), "TTCAG");
    }

    #[test]
    fn packed_neighbour_k1mers_match_the_spelled_construction() {
        // The packed-arithmetic neighbour computation must agree with the
        // reference construction (spell the extension + (k-1)-mer, then slice)
        // for every extension length: shorter than, equal to, and longer than
        // the (k-1)-mer.
        let node = MacroNode::new(k("GTCA"));
        let k1 = node.k1mer();
        for ext in ["A", "CA", "TAG", "GATC", "CATGA", "TTTTTTTT"] {
            let ext = d(ext);
            let pred_spell = spell_prefix(&ext, &k1);
            assert_eq!(
                node.predecessor_k1mer(&ext),
                kmer_from_slice(&pred_spell, 0, k1.k()),
                "predecessor via extension {ext:?}"
            );
            let succ_spell = spell_suffix(&k1, &ext);
            assert_eq!(
                node.successor_k1mer(&ext),
                kmer_from_slice(&succ_spell, succ_spell.len() - k1.k(), k1.k()),
                "successor via extension {ext:?}"
            );
            // What the neighbour records for the edge is the spelled edge
            // minus that neighbour's own (k-1)-mer.
            assert_eq!(
                node.predecessor_suffix(&ext).to_dna_string(),
                pred_spell.slice(k1.k(), ext.len())
            );
            assert_eq!(
                node.successor_prefix(&ext).to_dna_string(),
                succ_spell.slice(0, ext.len())
            );
        }
        assert!(node.predecessor_suffix(&d("")).is_empty());
        assert!(node.successor_prefix(&d("")).is_empty());
    }

    #[test]
    fn aggregate_orders_by_count_desc_then_lexicographic() {
        // Regression for the sort-over-packed-codes rewrite: the order must stay
        // count-descending with ASCII-lexicographic (`A < C < G < T`) tie-breaks
        // — note G sorts *before* T here even though the packed code order is
        // A < C < T < G.
        let mut node = MacroNode::new(k("ACGT"));
        for (prefix, count) in [
            ("T", 2),
            ("G", 2),
            ("GA", 5),
            ("A", 2),
            ("GAT", 5),
            ("T", 3), // duplicate: merges with the earlier "T" to count 5
        ] {
            node.push_path(ThroughPath::through(d(prefix), d("C"), count));
        }
        let prefixes = node.prefix_extensions();
        let rendered: Vec<(String, u32)> =
            prefixes.iter().map(|(e, c)| (e.to_string(), *c)).collect();
        assert_eq!(
            rendered,
            vec![
                ("GA".to_string(), 5),
                ("GAT".to_string(), 5),
                ("T".to_string(), 5),
                ("A".to_string(), 2),
                ("G".to_string(), 2),
            ]
        );
        // The comparator agrees with string comparison on every pair, including
        // the prefix-of-the-other case.
        for a in ["A", "C", "G", "T", "GA", "GAT", "TA"] {
            for b in ["A", "C", "G", "T", "GA", "GAT", "TA"] {
                assert_eq!(
                    d(a).cmp_lexicographic(&d(b)),
                    a.to_string().cmp(&b.to_string()),
                    "{a}.cmp_lexicographic({b})"
                );
            }
        }
    }
}
