//! The PaK-graph: the distributed de Bruijn graph expressed over MacroNodes
//! (assembly step C of Fig. 2).

use crate::kmer_count::CountedKmer;
use crate::macronode::MacroNode;
use crate::par::{fork_join, parallel_merge_round, plan, radix_sort_pairs, GRAIN};

use nmp_pak_genome::{Base, Kmer};

/// Sorted-rank slot index: maps a packed (k-1)-mer to its slot by binary search
/// over the ascending slot order the graph layout already guarantees, instead of
/// hashing every lookup (the seed paid SipHash on every TransferNode delivery).
///
/// A radix prefix table over the top bits of the packed key narrows each binary
/// search to one bucket — the "static MacroNode→DIMM mapping table" of §4.2 in
/// miniature. The table is sized to about one key per bucket (up to
/// [`RankIndex::MAX_PREFIX_BITS`]), so a lookup is one table read and a search
/// over a bucket of one or two keys. The structure is immutable after
/// construction (invalidation clears slots, never moves them), so lookups are
/// lock-free and `Sync` for the parallel compaction stages.
#[derive(Debug, Clone, Default)]
struct RankIndex {
    /// Packed (k-1)-mer of every slot, ascending; the position *is* the slot index.
    keys: Vec<u64>,
    /// `starts[p]..starts[p + 1]` is the key range whose top `bits` bits equal `p`.
    starts: Vec<u32>,
    /// Number of leading key bits indexing the prefix table.
    bits: u32,
    /// Total significant bits of a packed key (`2 * (k-1)`).
    key_bits: u32,
}

impl RankIndex {
    /// Cap on the prefix table: 2^20 buckets (4 MiB of `u32`s), reached by graphs
    /// of half a million nodes and more. Measured on the 780 k-node graph of the
    /// benchmark's `asm_1t` (random lookups): 2^16 buckets leave ≈ 12 keys per
    /// bucket, 2^20 leave fewer than one (DESIGN.md, "The sorted-rank index").
    const MAX_PREFIX_BITS: u32 = 20;

    /// Builds the index over `keys`, which must be ascending packed (k-1)-mers of
    /// `k1_len` bases each.
    fn build(keys: Vec<u64>, k1_len: usize) -> RankIndex {
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let key_bits = (2 * k1_len) as u32;
        // Size the prefix table to roughly one entry per key, capped at
        // `MAX_PREFIX_BITS` and at the key width itself.
        let log2_len = usize::BITS - keys.len().leading_zeros();
        let bits = key_bits.min(Self::MAX_PREFIX_BITS).min(log2_len);
        let mut starts = vec![0u32; (1usize << bits) + 1];
        for &key in &keys {
            starts[(key >> (key_bits - bits)) as usize + 1] += 1;
        }
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        RankIndex {
            keys,
            starts,
            bits,
            key_bits,
        }
    }

    /// The slot whose key equals `packed`, if present.
    #[inline]
    fn rank_of(&self, packed: u64) -> Option<usize> {
        if self.keys.is_empty() {
            return None;
        }
        // Callers guarantee `packed` is a (k-1)-mer of the graph's own length, so
        // it fits in `key_bits` bits (index_of's length guard enforces this).
        debug_assert_eq!(packed >> self.key_bits, 0);
        let bucket = (packed >> (self.key_bits - self.bits)) as usize;
        let lo = self.starts[bucket] as usize;
        let hi = self.starts[bucket + 1] as usize;
        self.keys[lo..hi]
            .binary_search(&packed)
            .ok()
            .map(|off| lo + off)
    }
}

/// One aliveness bit per slot plus the number of bits set: what `index_of`,
/// `contains`, `alive_count`, `iter_alive` and `alive_slots` read instead of an
/// 88-byte slot's discriminant. Bit `i` is set exactly while `slots[i]` is `Some`
/// (a slot [`PakGraph::retire`]d mid-iteration still holds its node, bit clear,
/// until the same iteration takes it out).
#[derive(Debug, Clone, Default)]
struct AliveBits {
    words: Vec<u64>,
    count: usize,
}

impl AliveBits {
    /// `len` slots, all alive.
    fn all(len: usize) -> AliveBits {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        let tail = len % 64;
        if tail > 0 {
            *words.last_mut().expect("len > 0 has a last word") = (1u64 << tail) - 1;
        }
        AliveBits { words, count: len }
    }

    /// Mirrors `slots[i].is_some()` (the one construction-time read of every slot
    /// a graph with dead slots needs).
    fn of_slots(slots: &[Option<MacroNode>]) -> AliveBits {
        let mut bits = AliveBits {
            words: vec![0; slots.len().div_ceil(64)],
            count: 0,
        };
        for (i, slot) in slots.iter().enumerate() {
            if slot.is_some() {
                bits.words[i / 64] |= 1 << (i % 64);
                bits.count += 1;
            }
        }
        bits
    }

    #[inline]
    fn get(&self, slot: usize) -> bool {
        self.words
            .get(slot / 64)
            .is_some_and(|word| word >> (slot % 64) & 1 == 1)
    }

    fn clear(&mut self, slot: usize) {
        debug_assert!(self.get(slot));
        self.words[slot / 64] &= !(1 << (slot % 64));
        self.count -= 1;
    }

    /// Set bits, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }
}

/// The PaK-graph: every MacroNode keyed by its (k-1)-mer.
///
/// Nodes are stored in a slot vector ordered by ascending (k-1)-mer — the same layout
/// the paper assumes for its static MacroNode→DIMM mapping table ("MacroNodes are
/// stored in ascending (k-1)-mer order across DIMMs", §4.2). Invalidation during
/// compaction clears a slot but never reuses it (the paper postpones deletion until
/// compaction completes, §4.5), so slot indices are stable identifiers that the memory
/// traces and the hardware model can use as addresses.
///
/// Because the layout is sorted, the slot of a (k-1)-mer is its *rank*: lookups are
/// a bucketed binary search over packed `u64` keys (`RankIndex`) — no hashing and
/// no per-entry heap allocation on the compaction routing path. See `DESIGN.md`.
///
/// Nodes live inline in the slot vector, and a node's first through-path lives
/// inline in the node ([`crate::macronode::PathList`]): a slot is 88 contiguous
/// bytes holding the (k-1)-mer and the first path, so the 1-in / 1-out nodes that
/// make up most of the graph cost no per-node allocation during construction and
/// no pointer chase during the invalidation scan, transfer application or the
/// walk — this implementation's reading of §4.5's "efficient memory management".
/// Only a node with two or more paths owns a heap vector (exactly as long as its
/// path list), and only its paths are behind a pointer.
///
/// *Where* a (k-1)-mer lives and whether it is *alive* are answered without
/// touching a slot: the rank index gives the slot, a one-bit-per-slot bitmap
/// (cleared by [`PakGraph::invalidate`]) gives the aliveness.
#[derive(Debug, Clone, Default)]
pub struct PakGraph {
    slots: Vec<Option<MacroNode>>,
    alive: AliveBits,
    index: RankIndex,
    k: usize,
}

impl PakGraph {
    /// Builds the PaK-graph from counted k-mers (MacroNode construction and wiring),
    /// on the calling thread plus up to `threads - 1` helpers.
    ///
    /// Every k-mer `b₀ b₁ … b_{k-1}` with count `c` contributes:
    /// * prefix `b₀` (count `c`) to the node of its suffix (k-1)-mer `b₁ … b_{k-1}`, and
    /// * suffix `b_{k-1}` (count `c`) to the node of its prefix (k-1)-mer `b₀ … b_{k-2}`
    ///
    /// exactly as in Fig. 3(b).
    ///
    /// The build is a linear single pass over the sorted counted k-mers: the
    /// suffix-extension stream is consumed in place (its node key `packed >> 2`
    /// inherits the input order), the prefix-extension stream is materialized into
    /// per-chunk vectors, sorted, and merged, and one merge-scan over both streams
    /// emits the MacroNodes in ascending (k-1)-mer order. The output is bit-identical
    /// at every thread count.
    pub fn from_counted_kmers(counted: &[CountedKmer], k: usize, threads: usize) -> PakGraph {
        PakGraph::from_counted_kmers_sized(counted, k, threads).0
    }

    /// [`PakGraph::from_counted_kmers`] plus the sum of [`MacroNode::size_bytes`]
    /// over the nodes it built, accumulated while each node is still in cache
    /// (stage C's footprint input; [`PakGraph::total_size_bytes`] would re-read
    /// the whole slot vector for the same number).
    pub(crate) fn from_counted_kmers_sized(
        counted: &[CountedKmer],
        k: usize,
        threads: usize,
    ) -> (PakGraph, usize) {
        // One plan for the whole build: a counted stream too short to repay a
        // spawn is built on the calling thread, whatever `threads` allows.
        PakGraph::build_chunked(counted, k, plan(counted.len(), threads, GRAIN))
    }

    /// [`PakGraph::from_counted_kmers_sized`] on a given chunk count (the
    /// plan's; unit tests force it).
    fn build_chunked(counted: &[CountedKmer], k: usize, chunks: usize) -> (PakGraph, usize) {
        debug_assert!(k >= 2, "k = {k} must be at least 2 to form (k-1)-mers");
        let k1_len = k - 1;

        // The prefix-extension stream: one record per k-mer, its suffix (k-1)-mer
        // key and first base packed into a single machine word (`key << 2 | base`,
        // unique per record) with the count as payload. Built per chunk into
        // pre-allocated vectors (§4.5 (a)+(b)), radix-sorted, then merged pairwise
        // in parallel.
        let k1_shift = 2 * k1_len;
        let k1_mask = (1u64 << k1_shift) - 1;
        let chunk_size = counted.len().div_ceil(chunks).max(1);
        let mut runs = fork_join(counted.chunks(chunk_size), |chunk| {
            let mut local: Vec<(u64, u64)> = Vec::with_capacity(chunk.len());
            for ck in chunk {
                let packed = ck.kmer.packed();
                let first_base = packed >> k1_shift;
                local.push((((packed & k1_mask) << 2) | first_base, ck.count as u64));
            }
            radix_sort_pairs(&mut local, k1_shift as u32 + 2);
            local
        });
        while runs.len() > 1 {
            runs = parallel_merge_round(runs);
        }
        let prefix_records = runs.pop().unwrap_or_default();

        // Merge-scan both streams into nodes, split across the chunks at node-key
        // boundaries so each segment builds a disjoint, contiguous slot range.
        // Segment 0 is built on this thread and its vectors *become* the
        // graph's: with one segment (always, at `threads = 1`) the slot vector
        // is written once and never copied, with several only segments 1.. are
        // appended. (A spawned builder would put the nodes' heap parts in its own
        // allocator arena, which the caller's frees do not trim: the benchmark's
        // `asm_mt` peaked 16 MB, 18 %, higher that way.)
        let cuts = node_split_points(&prefix_records, counted, chunks);
        let mut segments = fork_join(cuts.windows(2), |w| {
            let pr = &prefix_records[w[0].0..w[1].0];
            build_segment(pr, &counted[w[0].1..w[1].1], k1_len)
        })
        .into_iter();
        let mut segment = segments.next().expect("cuts bound at least one segment");
        let rest: usize = segments.as_slice().iter().map(|seg| seg.keys.len()).sum();
        segment.keys.reserve_exact(rest);
        segment.slots.reserve_exact(rest);
        for seg in segments {
            segment.keys.extend(seg.keys);
            segment.slots.extend(seg.slots);
            segment.size_bytes += seg.size_bytes;
        }
        let graph = PakGraph {
            alive: AliveBits::all(segment.slots.len()),
            slots: segment.slots,
            index: RankIndex::build(segment.keys, k1_len),
            k,
        };
        (graph, segment.size_bytes)
    }

    /// Builds a graph directly from its sorted parts: `keys[i]` is the packed
    /// (k-1)-mer of `slots[i]`, ascending. Crate-internal — the sharded builder
    /// assembles per-shard graphs from pre-partitioned streams, and the sharded
    /// compactor reconstitutes the global graph (dead slots included) without
    /// re-sorting.
    pub(crate) fn from_parts(keys: Vec<u64>, slots: Vec<Option<MacroNode>>, k: usize) -> PakGraph {
        debug_assert!(k >= 2, "k = {k} must be at least 2 to form (k-1)-mers");
        debug_assert_eq!(keys.len(), slots.len());
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        PakGraph {
            alive: AliveBits::of_slots(&slots),
            slots,
            index: RankIndex::build(keys, k - 1),
            k,
        }
    }

    /// The packed (k-1)-mer key of every slot, ascending (the slot order).
    /// Crate-internal: the sharded layer derives its global rank mapping from
    /// the per-shard key vectors.
    pub(crate) fn slot_keys(&self) -> &[u64] {
        &self.index.keys
    }

    /// Builds a graph from already-constructed MacroNodes with distinct
    /// (k-1)-mers, in any order: the nodes are sorted into ascending (k-1)-mer
    /// order here. The batch merge hands over an already-ascending list, which
    /// the sort passes over in one linear scan.
    pub fn from_nodes(mut nodes: Vec<MacroNode>, k: usize) -> PakGraph {
        debug_assert!(k >= 2, "k = {k} must be at least 2 to form (k-1)-mers");
        nodes.sort_by_key(MacroNode::k1mer);
        let mut keys = Vec::with_capacity(nodes.len());
        let mut slots = Vec::with_capacity(nodes.len());
        for node in nodes {
            keys.push(node.k1mer().packed());
            slots.push(Some(node));
        }
        PakGraph {
            alive: AliveBits::all(slots.len()),
            slots,
            index: RankIndex::build(keys, k - 1),
            k,
        }
    }

    /// The k-mer length this graph was built for (the (k-1)-mers are one shorter).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of slots ever allocated (alive + invalidated).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of alive (non-invalidated) MacroNodes.
    pub fn alive_count(&self) -> usize {
        self.alive.count
    }

    /// Returns `true` if the graph has no alive nodes.
    pub fn is_empty(&self) -> bool {
        self.alive_count() == 0
    }

    /// The slot index of the node with the given (k-1)-mer, if it is alive.
    pub fn index_of(&self, k1mer: &Kmer) -> Option<usize> {
        if k1mer.k() + 1 != self.k {
            return None;
        }
        let idx = self.index.rank_of(k1mer.packed())?;
        self.alive.get(idx).then_some(idx)
    }

    /// `true` if `slot` holds an alive node. A slot's rank never changes, so a
    /// rank resolved earlier stays valid and only its aliveness needs re-testing.
    #[inline]
    pub fn is_alive(&self, slot: usize) -> bool {
        self.alive.get(slot)
    }

    /// `true` if a node with this (k-1)-mer is alive.
    pub fn contains(&self, k1mer: &Kmer) -> bool {
        self.index_of(k1mer).is_some()
    }

    /// The alive node at `slot`, if any.
    pub fn node(&self, slot: usize) -> Option<&MacroNode> {
        self.slots.get(slot)?.as_ref()
    }

    /// Mutable access to the alive node at `slot`, if any.
    pub fn node_mut(&mut self, slot: usize) -> Option<&mut MacroNode> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// The alive node with the given (k-1)-mer.
    #[cfg(test)]
    pub(crate) fn node_by_k1mer(&self, k1mer: &Kmer) -> Option<&MacroNode> {
        self.node(self.index_of(k1mer)?)
    }

    /// Invalidates (removes) the node at `slot`, returning it. The slot is left empty;
    /// physical deletion is deferred, matching §4.5.
    pub fn invalidate(&mut self, slot: usize) -> Option<MacroNode> {
        let node = self.slots.get_mut(slot)?.take()?;
        self.alive.clear(slot);
        Some(node)
    }

    /// The first half of an invalidation, for the compaction driver: clears the
    /// alive bit of `slot` and leaves the node where it is, readable through
    /// [`PakGraph::node`] until [`PakGraph::take_retired`] moves it out. Every
    /// lookup already answers "not alive", so an iteration can retire all of its
    /// targets before it extracts the first of them.
    pub(crate) fn retire(&mut self, slot: usize) {
        self.alive.clear(slot);
    }

    /// The second half: moves the node [`PakGraph::retire`]d at `slot` out.
    pub(crate) fn take_retired(&mut self, slot: usize) -> MacroNode {
        debug_assert!(!self.alive.get(slot), "slot {slot} was not retired");
        self.slots[slot]
            .take()
            .expect("a retired slot holds its node")
    }

    /// Iterates over `(slot, node)` for every alive node, ascending (dead slots
    /// are skipped off the bitmap, not visited).
    pub fn iter_alive(&self) -> impl Iterator<Item = (usize, &MacroNode)> {
        self.alive.iter().map(|slot| {
            let node = self.slots[slot].as_ref().expect("alive bit implies a node");
            (slot, node)
        })
    }

    /// Slot indices of all alive nodes, ascending.
    pub fn alive_slots(&self) -> Vec<usize> {
        let mut slots = Vec::with_capacity(self.alive.count);
        slots.extend(self.alive_slot_iter());
        slots
    }

    /// [`PakGraph::alive_slots`] without the vector (the compaction engines fill
    /// their `u32` alive census from it).
    pub(crate) fn alive_slot_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive.iter()
    }

    /// Sum of [`MacroNode::size_bytes`] over alive nodes.
    pub fn total_size_bytes(&self) -> usize {
        self.iter_alive().map(|(_, n)| n.size_bytes()).sum()
    }

    /// Collects the alive nodes, ascending by (k-1)-mer, into a vector sized to
    /// exactly the alive count (consuming the graph).
    pub fn into_nodes(self) -> Vec<MacroNode> {
        let mut nodes = Vec::with_capacity(self.alive.count);
        nodes.extend(self.slots.into_iter().flatten());
        nodes
    }

    /// Consumes the graph into its raw slot vector (dead slots included).
    /// Crate-internal: the sharded layer stitches per-shard slot vectors back
    /// into the exact global layout.
    pub(crate) fn into_slots(self) -> Vec<Option<MacroNode>> {
        self.slots
    }

    /// Total number of graph edges (distinct suffix extensions over alive nodes).
    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.iter_alive()
            .map(|(_, n)| n.suffix_extensions().len())
            .sum()
    }
}

/// Splits the node-build merge-scan over `prefix_records` (keyed by `.0 >> 2`)
/// and the suffix stream `counted` (keyed by `kmer.packed() >> 2`) into up to
/// `parts` segments cut at node-key boundaries, so no (k-1)-mer's records straddle
/// two segments and concatenating the per-segment outputs in order reproduces the
/// serial scan exactly, whatever the thread count.
fn node_split_points(
    prefix_records: &[(u64, u64)],
    counted: &[CountedKmer],
    parts: usize,
) -> Vec<(usize, usize)> {
    let suffix_key = |ck: &CountedKmer| ck.kmer.packed() >> 2;
    let mut cuts = vec![(0usize, 0usize)];
    if parts > 1 {
        let splitters: Vec<u64> = if prefix_records.len() >= counted.len() {
            (1..parts)
                .map(|s| s * prefix_records.len() / parts)
                .filter(|&i| i > 0 && i < prefix_records.len())
                .map(|i| prefix_records[i].0 >> 2)
                .collect()
        } else {
            (1..parts)
                .map(|s| s * counted.len() / parts)
                .filter(|&i| i > 0 && i < counted.len())
                .map(|i| suffix_key(&counted[i]))
                .collect()
        };
        let mut last = None;
        for key in splitters {
            if last == Some(key) {
                continue;
            }
            last = Some(key);
            let cut = (
                prefix_records.partition_point(|r| r.0 >> 2 < key),
                counted.partition_point(|ck| suffix_key(ck) < key),
            );
            if cut != *cuts.last().expect("cuts is non-empty") {
                cuts.push(cut);
            }
        }
    }
    cuts.push((prefix_records.len(), counted.len()));
    cuts
}

/// One contiguous run of the slot layout as [`build_segment`] produces it.
pub(crate) struct Segment {
    /// Packed (k-1)-mer of every slot, ascending.
    pub keys: Vec<u64>,
    /// The nodes, all alive, aligned with `keys`.
    pub slots: Vec<Option<MacroNode>>,
    /// Sum of [`MacroNode::size_bytes`] over `slots`.
    pub size_bytes: usize,
}

/// Builds the MacroNodes of one node-key segment: a linear merge-scan over the
/// sorted prefix-extension records and the suffix-extension stream, accumulating
/// per-base counts in fixed `[u32; 4]` arrays (no map, no per-entry allocation).
/// A counting pre-pass over the same two streams sizes the key and slot vectors
/// exactly, so each is allocated and written once: neither stream's length
/// bounds the node count (a lone read of L bases has L − k + 1 k-mers and
/// L − k + 2 (k-1)-mers), and a vector that outgrows its reservation doubles.
/// Crate-internal: the sharded builder runs one segment per shard over the
/// owner-partitioned streams.
pub(crate) fn build_segment(
    prefix_records: &[(u64, u64)],
    counted: &[CountedKmer],
    k1_len: usize,
) -> Segment {
    let suffix_key = |ck: &CountedKmer| ck.kmer.packed() >> 2;
    // The next node key: the smaller head of the two streams.
    let head = |i: usize, j: usize| match (prefix_records.get(i), counted.get(j)) {
        (Some(&(rec, _)), Some(ck)) => Some((rec >> 2).min(suffix_key(ck))),
        (Some(&(rec, _)), None) => Some(rec >> 2),
        (None, Some(ck)) => Some(suffix_key(ck)),
        (None, None) => None,
    };

    let (mut i, mut j, mut nodes) = (0usize, 0usize, 0usize);
    while let Some(key) = head(i, j) {
        i += prefix_records[i..]
            .iter()
            .take_while(|rec| rec.0 >> 2 == key)
            .count();
        j += counted[j..]
            .iter()
            .take_while(|ck| suffix_key(ck) == key)
            .count();
        nodes += 1;
    }
    let mut keys = Vec::with_capacity(nodes);
    let mut slots: Vec<Option<MacroNode>> = Vec::with_capacity(nodes);
    let mut size_bytes = 0usize;

    let (mut i, mut j) = (0usize, 0usize);
    while let Some(key) = head(i, j) {
        let mut prefixes = [0u32; 4];
        while let Some(&(rec, count)) = prefix_records.get(i) {
            if rec >> 2 != key {
                break;
            }
            prefixes[(rec & 0b11) as usize] += count as u32;
            i += 1;
        }
        let mut suffixes = [0u32; 4];
        while let Some(ck) = counted.get(j) {
            if suffix_key(ck) != key {
                break;
            }
            suffixes[(ck.kmer.packed() & 0b11) as usize] += ck.count;
            j += 1;
        }

        let nonzero = |counts: &[u32; 4]| counts.iter().filter(|&&c| c > 0).count();
        let node = if nonzero(&prefixes) == 1 && nonzero(&suffixes) == 1 {
            // 1-in / 1-out chain node: skip the general wiring machinery.
            let (pb, pc) = first_extension(prefixes);
            let (sb, sc) = first_extension(suffixes);
            MacroNode::single_through(Kmer::from_packed(key, k1_len), pb, pc, sb, sc)
        } else {
            MacroNode::from_extensions(
                Kmer::from_packed(key, k1_len),
                extension_list(prefixes),
                extension_list(suffixes),
            )
        };
        size_bytes += node.size_bytes();
        keys.push(key);
        slots.push(Some(node));
    }
    Segment {
        keys,
        slots,
        size_bytes,
    }
}

/// The single nonzero entry of a per-base accumulator (caller guarantees there is
/// exactly one).
fn first_extension(counts: [u32; 4]) -> (Base, u32) {
    for (code, &count) in counts.iter().enumerate() {
        if count > 0 {
            return (Base::from_code(code as u8), count);
        }
    }
    unreachable!("caller checked for exactly one nonzero extension")
}

/// Converts per-base accumulator counts into the `(Base, count)` list
/// [`MacroNode::from_extensions`] expects, in ascending base-code order — the same
/// order the k-mers contributing each extension appear in the sorted counted
/// stream, which keeps the wiring (and therefore the whole pipeline) bit-identical
/// to a one-kmer-at-a-time build.
fn extension_list(counts: [u32; 4]) -> Vec<(Base, u32)> {
    let mut out = Vec::with_capacity(counts.iter().filter(|&&c| c > 0).count());
    for (code, &count) in counts.iter().enumerate() {
        if count > 0 {
            out.push((Base::from_code(code as u8), count));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer_count::{count_kmers, KmerCounterConfig};
    use nmp_pak_genome::{DnaString, SequencingRead};

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
    fn single_kmer_creates_two_macronodes() {
        // Fig. 3(b): k-mer GTTAC creates node TTAC (prefix G) and node GTTA (suffix C).
        let graph = graph_from_reads(&["GTTAC"], 5);
        assert_eq!(graph.alive_count(), 2);
        let gtta = graph
            .node_by_k1mer(&Kmer::from_ascii("GTTA").unwrap())
            .expect("GTTA node exists");
        assert_eq!(gtta.suffix_extensions()[0].0.to_string(), "C");
        let ttac = graph
            .node_by_k1mer(&Kmer::from_ascii("TTAC").unwrap())
            .expect("TTAC node exists");
        assert_eq!(ttac.prefix_extensions()[0].0.to_string(), "G");
    }

    #[test]
    fn linear_read_creates_chain_of_nodes() {
        let graph = graph_from_reads(&["ACGTACCTG"], 5);
        // (k-1)-mers: ACGT, CGTA, GTAC, TACC, ACCT, CCTG → 6 nodes.
        assert_eq!(graph.alive_count(), 6);
        // Interior nodes have exactly one predecessor and one successor.
        let interior = graph
            .node_by_k1mer(&Kmer::from_ascii("GTAC").unwrap())
            .unwrap();
        assert_eq!(interior.predecessor_k1mers().len(), 1);
        assert_eq!(interior.successor_k1mers().len(), 1);
    }

    #[test]
    fn slots_are_in_ascending_k1mer_order() {
        let graph = graph_from_reads(&["ACGTACCTGTTGAC"], 6);
        let k1mers: Vec<Kmer> = graph.iter_alive().map(|(_, n)| n.k1mer()).collect();
        for pair in k1mers.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        // index_of agrees with slot positions.
        for (slot, node) in graph.iter_alive() {
            assert_eq!(graph.index_of(&node.k1mer()), Some(slot));
        }
    }

    #[test]
    fn construction_is_identical_across_thread_counts() {
        let reads = &[
            "ACGTACCTGATCAGTTGCAACGGTTACCAGT",
            "GGGCCCAAATTTACGTAGACGTACCTGATCA",
        ];
        let reads: Vec<SequencingRead> = reads
            .iter()
            .enumerate()
            .map(|(i, s)| SequencingRead::new(format!("r{i}"), s.parse::<DnaString>().unwrap()))
            .collect();
        let (counted, _) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 7,
                min_count: 1,
                threads: 1,
            },
        )
        .unwrap();
        // The plan would build this little stream in one chunk at any thread
        // count; forcing the chunk count runs the merge rounds, the node-key
        // split points and the segment concatenation.
        let (reference, reference_bytes) = PakGraph::build_chunked(&counted, 7, 1);
        for chunks in [2, 3, 4, 8] {
            let (parallel, bytes) = PakGraph::build_chunked(&counted, 7, chunks);
            assert_eq!(bytes, reference_bytes, "chunks = {chunks}");
            assert_eq!(parallel.slot_keys(), reference.slot_keys());
            for slot in 0..reference.slot_count() {
                assert_eq!(
                    parallel.node(slot),
                    reference.node(slot),
                    "chunks = {chunks}"
                );
            }
        }
    }

    #[test]
    fn slot_and_key_vectors_are_sized_exactly() {
        // A lone read of L bases has L − k + 1 k-mers but L − k + 2 (k-1)-mers:
        // more nodes than either input stream has records.
        let reads = crate::test_util::reads_from(&["ACGTACCTGATCAGTTGCAACGGTTACCAGT"]);
        let config = KmerCounterConfig {
            k: 7,
            min_count: 1,
            threads: 1,
        };
        let (counted, _) = count_kmers(&reads, config).unwrap();
        for chunks in [1, 2, 3] {
            let (mut graph, _) = PakGraph::build_chunked(&counted, 7, chunks);
            assert!(graph.slot_count() > counted.len(), "chunks = {chunks}");
            assert_eq!(
                graph.slots.capacity(),
                graph.slots.len(),
                "chunks = {chunks}"
            );
            assert_eq!(
                graph.index.keys.capacity(),
                graph.index.keys.len(),
                "chunks = {chunks}"
            );
            // The survivors' vector is sized by the alive count, not the slots.
            graph.invalidate(0);
            graph.invalidate(3);
            let alive = graph.alive_count();
            let nodes = graph.into_nodes();
            assert_eq!((nodes.len(), nodes.capacity()), (alive, alive));
        }
    }

    #[test]
    fn lookups_reject_wrong_length_k1mers() {
        let graph = graph_from_reads(&["ACGTACCTG"], 5);
        // A 3-mer that prefixes an existing 4-mer key must not alias it.
        assert!(!graph.contains(&Kmer::from_ascii("ACG").unwrap()));
        assert!(!graph.contains(&Kmer::from_ascii("ACGTA").unwrap()));
    }

    #[test]
    fn branching_read_creates_multi_extension_node() {
        // Two reads diverging after GTCA: GTCAT and GTCAG (plus shared AGTCA context).
        let graph = graph_from_reads(&["AGTCAT", "AGTCAG"], 5);
        let node = graph
            .node_by_k1mer(&Kmer::from_ascii("GTCA").unwrap())
            .unwrap();
        assert_eq!(node.suffix_extensions().len(), 2);
        assert_eq!(node.prefix_extensions().len(), 1);
        assert_eq!(node.prefix_extensions()[0].1, 2);
    }

    #[test]
    fn invalidate_clears_slot_but_keeps_layout() {
        let mut graph = graph_from_reads(&["ACGTACCTG"], 5);
        let total_slots = graph.slot_count();
        let victim = graph.alive_slots()[2];
        let removed = graph.invalidate(victim).expect("node existed");
        assert_eq!(graph.alive_count(), 5);
        assert_eq!(graph.slot_count(), total_slots);
        assert!(graph.node(victim).is_none());
        assert!(!graph.contains(&removed.k1mer()));
        // Double invalidation returns None.
        assert!(graph.invalidate(victim).is_none());
    }

    #[test]
    fn from_nodes_round_trips() {
        let graph = graph_from_reads(&["ACGTACCTG"], 5);
        let k = graph.k();
        let count = graph.alive_count();
        let rebuilt = PakGraph::from_nodes(graph.into_nodes(), k);
        assert_eq!(rebuilt.alive_count(), count);
        let k1mers: Vec<Kmer> = rebuilt.iter_alive().map(|(_, n)| n.k1mer()).collect();
        for pair in k1mers.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn size_and_edge_statistics() {
        let graph = graph_from_reads(&["ACGTACCTGAC", "ACGTACCTGAC"], 5);
        assert!(graph.total_size_bytes() > 0);
        assert!(graph.edge_count() > 0);
        assert!(!graph.is_empty());
    }

    #[test]
    fn from_parts_mirrors_dead_slots_in_the_bitmap() {
        let graph = graph_from_reads(&["ACGTACCTGATCAGTTGCAAC"], 5);
        let keys = graph.slot_keys().to_vec();
        let mut slots = graph.into_slots();
        for slot in slots.iter_mut().step_by(2) {
            *slot = None;
        }
        let alive: Vec<usize> = (0..slots.len()).filter(|i| i % 2 == 1).collect();
        let rebuilt = PakGraph::from_parts(keys.clone(), slots, 5);
        assert_eq!(rebuilt.alive_slots(), alive);
        assert_eq!(rebuilt.alive_count(), alive.len());
        for (slot, &key) in keys.iter().enumerate() {
            let found = rebuilt.index_of(&Kmer::from_packed(key, 4));
            assert_eq!(found, (slot % 2 == 1).then_some(slot));
        }
    }

    #[test]
    fn alive_bits_cover_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut bits = AliveBits::all(len);
            assert_eq!(
                bits.iter().collect::<Vec<_>>(),
                (0..len).collect::<Vec<_>>()
            );
            assert_eq!(bits.count, len);
            assert!(!bits.get(len), "bit {len} of {len} is past the end");
            if len > 1 {
                bits.clear(len - 1);
                bits.clear(0);
                assert_eq!(bits.count, len - 2);
                assert_eq!(
                    bits.iter().collect::<Vec<_>>(),
                    (1..len - 1).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn rank_index_handles_empty_and_dense_key_sets() {
        let empty = RankIndex::build(Vec::new(), 4);
        assert_eq!(empty.rank_of(0), None);
        assert!(empty.keys.is_empty());

        // Every even 2-mer key: buckets are dense and misses sit between hits.
        let keys: Vec<u64> = (0..16).filter(|k| k % 2 == 0).collect();
        let index = RankIndex::build(keys, 2);
        for key in 0..16u64 {
            if key % 2 == 0 {
                assert_eq!(index.rank_of(key), Some(key as usize / 2));
            } else {
                assert_eq!(index.rank_of(key), None);
            }
        }
    }
}
