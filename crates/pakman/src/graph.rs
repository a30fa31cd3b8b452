//! The PaK-graph: the distributed de Bruijn graph expressed over MacroNodes
//! (assembly step C of Fig. 2).

use crate::kmer_count::CountedKmer;
use crate::macronode::MacroNode;
use crate::par::{fork_join, plan, GRAIN};

use nmp_pak_genome::{Base, Kmer};

/// Sorted-rank slot index: maps a packed (k-1)-mer to its slot by binary search
/// over the ascending slot order the graph layout already guarantees, instead of
/// hashing every lookup (the seed paid SipHash on every TransferNode delivery).
///
/// A radix prefix table over the top bits of the packed key narrows each binary
/// search to one bucket — the "static MacroNode→DIMM mapping table" of §4.2 in
/// miniature. The table is sized to about one key per bucket (up to
/// [`RankIndex::MAX_PREFIX_BITS`]), so a lookup is one table read and a search
/// over a bucket of one or two keys. The structure is immutable through
/// compaction (invalidation clears slots, never moves them), so lookups are
/// lock-free and `Sync` for the parallel compaction stages; only
/// [`PakGraph::purge_dead`] rewrites it, once stage D is done.
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
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let key_bits = (2 * k1_len) as u32;
        // Size the prefix table to roughly one entry per key, capped at
        // `MAX_PREFIX_BITS` and at the key width itself.
        let log2_len = usize::BITS - keys.len().leading_zeros();
        let bits = key_bits.min(Self::MAX_PREFIX_BITS).min(log2_len);
        let mut index = RankIndex {
            keys,
            starts: vec![0u32; (1usize << bits) + 1],
            bits,
            key_bits,
        };
        index.count_starts();
        index
    }

    /// Recounts the prefix table over the current keys, in its own buffer and
    /// at its current size.
    fn count_starts(&mut self) {
        self.starts.fill(0);
        for &key in &self.keys {
            self.starts[(key >> (self.key_bits - self.bits)) as usize + 1] += 1;
        }
        for p in 1..self.starts.len() {
            self.starts[p] += self.starts[p - 1];
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
        let mut bits = AliveBits {
            words: vec![0; len.div_ceil(64)],
            count: 0,
        };
        bits.set_first(len);
        bits
    }

    /// Makes the first `len` slots alive and drops the words past them, in
    /// place: `len` must not exceed the slots the bitmap already covers.
    fn set_first(&mut self, len: usize) {
        debug_assert!(len.div_ceil(64) <= self.words.len());
        self.words.truncate(len.div_ceil(64));
        self.words.fill(u64::MAX);
        let tail = len % 64;
        if tail > 0 {
            *self.words.last_mut().expect("len > 0 has a last word") = (1u64 << tail) - 1;
        }
        self.count = len;
    }

    /// Mirrors `slots[i].is_some()` (the one construction-time read of every slot
    /// a graph with dead slots needs).
    #[cfg(test)]
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
/// traces and the hardware model can use as addresses. They are stable through
/// stage D only: once compaction is done, stage E deletes the dead slots
/// (`purge_dead`), and each survivor's slot becomes its rank among the survivors.
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
    /// The build is one merge-scan over the sorted counted k-mers, read as five
    /// streams in place: the suffix-extension stream is `counted` itself (its
    /// node key `packed >> 2` inherits the input order), and the
    /// prefix-extension stream is `counted`'s four first-base ranges, each
    /// already ascending by its node key, the suffix (k-1)-mer. The scan emits
    /// the MacroNodes in ascending (k-1)-mer order. The output is bit-identical
    /// at every thread count.
    ///
    /// # Panics
    ///
    /// In release builds too, if `counted` is not strictly ascending or holds a
    /// k-mer whose length is not `k`: the build relies on both, and would
    /// otherwise build a wrong graph without a word.
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
        // One pass (`None` orders below every key): ≈ 1 ms at 780 k k-mers.
        let mut previous = None;
        let well_formed = counted.iter().all(|ck| {
            let packed = Some(ck.kmer.packed());
            let ascending = previous < packed;
            previous = packed;
            ascending && ck.kmer.k() == k
        });
        assert!(
            well_formed,
            "counted k-mers must be strictly ascending {k}-mers"
        );
        let k1_len = k - 1;

        // Merge-scan the streams into nodes, split across the chunks at node-key
        // boundaries so each segment builds a disjoint, contiguous slot range.
        // Segment 0 is built on this thread and its vectors *become* the
        // graph's: with one segment (always, at `threads = 1`) the slot vector
        // is written once and never copied, with several only segments 1.. are
        // appended. (A spawned builder would put the nodes' heap parts in its own
        // allocator arena, which the caller's frees do not trim: the benchmark's
        // `asm_mt` peaked 16 MB, 18 %, higher that way.)
        let k1_mask = (1u64 << (2 * k1_len)) - 1;
        let cuts = node_split_points(counted, k1_len, chunks);
        let mut segments = fork_join(cuts.windows(2), |w| {
            let merge = ExtensionMerge {
                prefixes: std::array::from_fn(|b| {
                    RangeCursor::new(&counted[w[0][b]..w[1][b]], k1_mask)
                }),
                suffixes: &counted[w[0][4]..w[1][4]],
                k1_mask,
            };
            build_segment(merge, k1_len)
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
    /// (k-1)-mer of `slots[i]`, ascending, and a `None` slot is dead. Tests use
    /// it to lay the same nodes out over different slot spaces.
    #[cfg(test)]
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
    /// Crate-internal: the sharded layer hashes them to each slot's owner.
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

    /// Number of slots in the layout: alive plus invalidated (none are left
    /// invalidated once stage E has deleted the dead slots).
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

    /// `true` if `slot` holds an alive node. Through compaction a slot's rank
    /// never changes, so a rank resolved earlier stays valid and only its
    /// aliveness needs re-testing.
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
    /// Panics, in release builds too, on a slot that is still alive: emptying
    /// it would leave an alive bit over no node.
    pub(crate) fn take_retired(&mut self, slot: usize) -> MacroNode {
        assert!(!self.alive.get(slot), "slot {slot} was not retired");
        self.slots[slot]
            .take()
            .expect("a retired slot holds its node")
    }

    /// Hints the cache to fetch `slot`, which compaction will read soon; an
    /// index past the end is ignored. Changes nothing the program can observe.
    pub(crate) fn prefetch(&self, slot: usize) {
        if let Some(entry) = self.slots.get(slot) {
            prefetch_lines(entry);
        }
    }

    /// Physically deletes the dead slots, the deletion §4.5 defers until
    /// compaction completes: the alive nodes move down to slots `0..alive`,
    /// in their ascending order, and their keys with them; the prefix table is
    /// recounted and the bitmap set all-ones. Everything happens in the
    /// existing buffers, whose capacities do not change (a fresh or shrunk
    /// copy of the slot vector would move glibc's mmap threshold; DESIGN.md,
    /// "allocator-bistable"). A slot index taken before the purge does not
    /// name the same node after it, so only stage E calls this.
    pub(crate) fn purge_dead(&mut self) {
        if self.alive.count == self.slots.len() {
            return;
        }
        let mut kept = 0;
        for slot in self.alive.iter() {
            // `slots[kept]` is dead or already moved down: it holds `None`.
            self.slots.swap(kept, slot);
            self.index.keys[kept] = self.index.keys[slot];
            kept += 1;
        }
        self.slots.truncate(kept);
        self.index.keys.truncate(kept);
        self.index.count_starts();
        self.alive.set_first(kept);
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

    /// Total number of graph edges (distinct suffix extensions over alive nodes).
    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.iter_alive()
            .map(|(_, n)| n.suffix_extensions().len())
            .sum()
    }
}

/// Hints the cache to fetch every 64-byte line `value` spans, from its first
/// byte to its last: an 88-byte slot spans two or three, depending on where it
/// starts. Loads nothing the program sees; a no-op off x86-64.
#[allow(unsafe_code)]
fn prefetch_lines<T>(value: &T) {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse"))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let first = std::ptr::from_ref(value).cast::<i8>();
        let skip = first.addr() % 64;
        for offset in (0..skip + std::mem::size_of::<T>()).step_by(64) {
            let line = first.wrapping_sub(skip).wrapping_add(offset);
            // SAFETY: the `cfg` above compiles this only where SSE, the one
            // target feature `_mm_prefetch` requires, is enabled. A prefetch
            // is a hint: for any address, mapped or not, it never faults,
            // reads no value into the program and changes no architectural
            // state, so the pointer need not be dereferenceable.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
        }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse")))]
    let _ = value;
}

/// Splits the node-build merge-scan over `counted` into up to `parts` segments
/// cut at node-key boundaries, so no (k-1)-mer's extensions straddle two
/// segments and concatenating the per-segment outputs in order reproduces the
/// serial scan exactly, whatever the thread count.
///
/// The scan reads five streams of `counted` in place. The suffix-extension
/// stream is `counted` itself, keyed by `packed >> 2`. The prefix-extension
/// stream needs no copy and no sort: a k-mer's first base is the top two bits
/// of its packed value, so the k-mers of first base `b` are one contiguous
/// range, ascending by their low bits, `packed & k1_mask` — the suffix
/// (k-1)-mer, their node key. A cut holds one position per stream: the four
/// ranges', then the suffix stream's; the splitter keys are suffix-stream keys
/// at even spacing.
fn node_split_points(counted: &[CountedKmer], k1_len: usize, parts: usize) -> Vec<[usize; 5]> {
    let k1_mask = (1u64 << (2 * k1_len)) - 1;
    let range_start = |b: u64| counted.partition_point(|ck| ck.kmer.packed() >> (2 * k1_len) < b);
    let ranges = [
        0,
        range_start(1),
        range_start(2),
        range_start(3),
        counted.len(),
    ];
    let suffix_key = |ck: &CountedKmer| ck.kmer.packed() >> 2;
    let mut cuts = vec![[ranges[0], ranges[1], ranges[2], ranges[3], 0]];
    let splitters = (1..parts).filter_map(|s| counted.get(s * counted.len() / parts));
    for key in splitters.map(suffix_key) {
        let mut cut = [0; 5];
        for b in 0..4 {
            let range = &counted[ranges[b]..ranges[b + 1]];
            cut[b] = ranges[b] + range.partition_point(|ck| ck.kmer.packed() & k1_mask < key);
        }
        cut[4] = counted.partition_point(|ck| suffix_key(ck) < key);
        if cut != *cuts.last().expect("cuts is non-empty") {
            cuts.push(cut);
        }
    }
    cuts.push([ranges[1], ranges[2], ranges[3], ranges[4], counted.len()]);
    cuts
}

/// One contiguous run of the slot layout as [`build_segment`] produces it.
struct Segment {
    /// Packed (k-1)-mer of every slot, ascending.
    keys: Vec<u64>,
    /// The nodes, all alive, aligned with `keys`.
    slots: Vec<Option<MacroNode>>,
    /// Sum of [`MacroNode::size_bytes`] over `slots`.
    size_bytes: usize,
}

/// One first-base range of the counted stream, as the prefix-extension stream
/// of [`ExtensionMerge`]: the k-mers of first base `b`, ascending by suffix
/// (k-1)-mer, each key at most once (the counted k-mers are distinct). A k-mer
/// gives the node of that key its prefix extension `b`.
#[derive(Clone, Copy)]
struct RangeCursor<'a> {
    /// The range from its head on.
    rest: &'a [CountedKmer],
    /// The head's node key, or `u64::MAX` once the range is drained: a
    /// (k-1)-mer has at most 31 bases, so every key is below 2^62.
    key: u64,
    /// The head's count (0 once drained).
    count: u32,
}

impl<'a> RangeCursor<'a> {
    fn new(rest: &'a [CountedKmer], k1_mask: u64) -> Self {
        let (key, count) = rest
            .first()
            .map_or((u64::MAX, 0), |ck| (ck.kmer.packed() & k1_mask, ck.count));
        RangeCursor { rest, key, count }
    }

    /// The head's count if its key is `key` (then the cursor moves past it),
    /// else 0. Branch-free on the match: which of the four ranges holds a node's
    /// key is data, so a branch on it mispredicts about once a node.
    fn take(&mut self, key: u64, k1_mask: u64) -> u32 {
        let hit = self.key == key;
        let count = if hit { self.count } else { 0 };
        *self = RangeCursor::new(&self.rest[usize::from(hit)..], k1_mask);
        count
    }
}

/// The merge of one segment's five sorted extension streams by node key: yields
/// every node key once, ascending, with the per-base counts of its prefix and
/// suffix extensions in fixed `[u32; 4]` arrays (no map, no per-entry
/// allocation).
#[derive(Clone)]
struct ExtensionMerge<'a> {
    /// The prefix-extension stream: one cursor per first base.
    prefixes: [RangeCursor<'a>; 4],
    /// The suffix-extension stream, ascending by prefix (k-1)-mer, `packed >> 2`.
    suffixes: &'a [CountedKmer],
    k1_mask: u64,
}

impl Iterator for ExtensionMerge<'_> {
    /// A node key and the counts of its prefix and suffix extensions, by base code.
    type Item = (u64, [u32; 4], [u32; 4]);

    fn next(&mut self) -> Option<Self::Item> {
        let suffix_head = self
            .suffixes
            .first()
            .map_or(u64::MAX, |ck| ck.kmer.packed() >> 2);
        let key = self
            .prefixes
            .iter()
            .map(|c| c.key)
            .fold(suffix_head, u64::min);
        if key == u64::MAX {
            return None;
        }
        let k1_mask = self.k1_mask;
        let prefixes = self.prefixes.each_mut().map(|c| c.take(key, k1_mask));
        let mut suffixes = [0u32; 4];
        while let Some((ck, rest)) = self.suffixes.split_first() {
            if ck.kmer.packed() >> 2 != key {
                break;
            }
            suffixes[(ck.kmer.packed() & 0b11) as usize] = ck.count;
            self.suffixes = rest;
        }
        Some((key, prefixes, suffixes))
    }
}

/// Builds the MacroNodes of one node-key segment from its [`ExtensionMerge`].
/// A counting pre-pass over the same merge sizes the key and slot vectors
/// exactly, so each is allocated and written once: no stream's length bounds
/// the node count (a lone read of L bases has L − k + 1 k-mers and L − k + 2
/// (k-1)-mers), and a vector that outgrows its reservation doubles.
fn build_segment(merge: ExtensionMerge<'_>, k1_len: usize) -> Segment {
    let nodes = merge.clone().count();
    let mut keys = Vec::with_capacity(nodes);
    let mut slots: Vec<Option<MacroNode>> = Vec::with_capacity(nodes);
    let mut size_bytes = 0usize;

    for (key, prefixes, suffixes) in merge {
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
        // count; forcing the chunk count runs the node-key split points over
        // the five streams and the segment concatenation.
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

    /// Strictly ascending, distinct `k`-mers with counts in 1..=5: `n` random
    /// suffix (k-1)-mers, each behind every first base in `first_bases`.
    fn random_counted(k: usize, first_bases: &[u64], n: usize, seed: u64) -> Vec<CountedKmer> {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let k1_mask = (1u64 << (2 * (k - 1))) - 1;
        let suffixes: Vec<u64> = (0..n).map(|_| next() & k1_mask).collect();
        let mut packed: Vec<u64> = first_bases
            .iter()
            .flat_map(|&b| {
                suffixes
                    .iter()
                    .map(move |&suffix| b << (2 * (k - 1)) | suffix)
            })
            .collect();
        packed.sort_unstable();
        packed.dedup();
        packed
            .into_iter()
            .map(|p| CountedKmer {
                kmer: Kmer::from_packed(p, k),
                count: 1 + (next() % 5) as u32,
            })
            .collect()
    }

    /// Checks the build at 1, 2, 3 and 8 chunks against an independent oracle:
    /// a map from each (k-1)-mer to the per-base counts of its prefix and
    /// suffix extensions, tallied one k-mer at a time, wired by
    /// [`MacroNode::from_extensions`].
    fn assert_matches_naive_tally(counted: &[CountedKmer], k: usize, what: &str) {
        use std::collections::BTreeMap;

        let mut tally: BTreeMap<u64, ([u32; 4], [u32; 4])> = BTreeMap::new();
        for ck in counted {
            let (first, last) = (ck.kmer.first_base().code(), ck.kmer.last_base().code());
            tally.entry(ck.kmer.suffix_k1().packed()).or_default().0[first as usize] += ck.count;
            tally.entry(ck.kmer.prefix_k1().packed()).or_default().1[last as usize] += ck.count;
        }
        let expected: Vec<MacroNode> = tally
            .iter()
            .map(|(&key, &(prefixes, suffixes))| {
                MacroNode::from_extensions(
                    Kmer::from_packed(key, k - 1),
                    extension_list(prefixes),
                    extension_list(suffixes),
                )
            })
            .collect();
        let keys: Vec<u64> = tally.into_keys().collect();
        let bytes: usize = expected.iter().map(MacroNode::size_bytes).sum();
        for chunks in [1, 2, 3, 8] {
            let (graph, graph_bytes) = PakGraph::build_chunked(counted, k, chunks);
            assert_eq!(graph.slot_keys(), keys, "{what}, chunks = {chunks}");
            for (slot, node) in expected.iter().enumerate() {
                assert_eq!(graph.node(slot), Some(node), "{what}, chunks = {chunks}");
            }
            assert_eq!(graph_bytes, bytes, "{what}, chunks = {chunks}");
        }
    }

    #[test]
    fn first_base_ranges_build_what_a_naive_tally_builds() {
        let first_base = |ck: &CountedKmer| ck.kmer.first_base().code();

        // Reads over {A, C, T}: the range of first base G is empty.
        let mut state = 0x5EED_u64;
        let texts: Vec<String> = (0..6)
            .map(|_| {
                (0..80)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        "ACT".as_bytes()[(state >> 33) as usize % 3] as char
                    })
                    .collect()
            })
            .collect();
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let config = KmerCounterConfig {
            k: 11,
            min_count: 1,
            threads: 1,
        };
        let (counted, _) = count_kmers(&crate::test_util::reads_from(&texts), config).unwrap();
        assert!(counted.iter().all(|ck| ck.kmer.first_base() != Base::G));
        assert_matches_naive_tally(&counted, 11, "reads over ACT");

        // Every k-mer of one first base: three empty ranges.
        let counted = random_counted(9, &[Base::C.code().into()], 300, 0xC0FFEE);
        assert_matches_naive_tally(&counted, 9, "one first base");

        // Four equal ranges over the same suffixes: every key is in each range,
        // and the splitters of 2 and 8 chunks fall on the range boundaries.
        let counted = random_counted(9, &[0, 1, 2, 3], 64, 0xB0DA);
        assert_eq!(counted.len(), 256);
        for boundary in [64, 128, 192] {
            assert_ne!(
                first_base(&counted[boundary - 1]),
                first_base(&counted[boundary])
            );
        }
        assert_matches_naive_tally(&counted, 9, "splitters on range boundaries");

        // k = 2: (k-1)-mers of one base.
        let counted = random_counted(2, &[0, 1, 2, 3], 3, 0x2);
        assert_matches_naive_tally(&counted, 2, "k = 2");

        // k = 32: the first base is bits 62–63, and the all-G run puts the
        // largest key, 2^62 - 1, in every stream.
        let mut texts = vec!["G".repeat(40)];
        texts.extend((0..4).map(|i| {
            (0..70)
                .map(|j| "ACGT".as_bytes()[(i * 7 + j * j * 3 + j / 5) % 4] as char)
                .collect::<String>()
        }));
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        let config = KmerCounterConfig { k: 32, ..config };
        let (counted, _) = count_kmers(&crate::test_util::reads_from(&texts), config).unwrap();
        assert_eq!(
            counted.last().map(|ck| ck.kmer.suffix_k1().packed()),
            Some((1 << 62) - 1)
        );
        assert_matches_naive_tally(&counted, 32, "k = 32");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_counted_kmers_panic() {
        let reads = crate::test_util::reads_from(&["ACGTACCTGATCAGTTGCAAC"]);
        let config = KmerCounterConfig {
            k: 7,
            min_count: 1,
            threads: 1,
        };
        let (mut counted, _) = count_kmers(&reads, config).unwrap();
        counted.swap(3, 4);
        PakGraph::from_counted_kmers(&counted, 7, 1);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn counted_kmers_of_another_length_panic() {
        let reads = crate::test_util::reads_from(&["ACGTACCTGATCAGTTGCAAC"]);
        let config = KmerCounterConfig {
            k: 7,
            min_count: 1,
            threads: 1,
        };
        let (counted, _) = count_kmers(&reads, config).unwrap();
        PakGraph::from_counted_kmers(&counted, 8, 1);
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
    #[should_panic(expected = "was not retired")]
    fn taking_an_alive_slot_panics() {
        let mut graph = graph_from_reads(&["ACGTACCTG"], 5);
        let alive = graph.alive_slots()[2];
        graph.take_retired(alive);
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
        let mut slots: Vec<Option<MacroNode>> = (0..graph.slot_count())
            .map(|slot| graph.node(slot).cloned())
            .collect();
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
    fn purge_dead_moves_the_survivors_down_in_place() {
        let reads = crate::test_util::reads_for(300, 5.0, 3);
        let config = KmerCounterConfig {
            k: 15,
            min_count: 1,
            threads: 1,
        };
        let (counted, _) = count_kmers(&reads, config).unwrap();
        let full = PakGraph::from_counted_kmers(&counted, 15, 1);
        let last = full.slot_count() - 1;
        assert!(last > 64, "{} slots", full.slot_count());
        let keys = full.slot_keys().to_vec();
        let capacities = |g: &PakGraph| {
            (
                g.slots.capacity(),
                g.index.keys.capacity(),
                g.index.starts.capacity(),
                g.alive.words.capacity(),
            )
        };
        let word_edges = vec![0, 63, 64, last];
        for dead in [
            word_edges,
            (0..=last).step_by(3).collect(),
            (0..=last).collect(),
        ] {
            let what = format!("{} dead", dead.len());
            let mut graph = full.clone();
            for &slot in &dead {
                assert!(graph.invalidate(slot).is_some(), "{what}");
            }
            let survivors: Vec<MacroNode> = graph.iter_alive().map(|(_, n)| n.clone()).collect();
            let before = capacities(&graph);
            graph.purge_dead();
            assert_eq!(capacities(&graph), before, "{what}");

            let n = survivors.len();
            assert_eq!((graph.slot_count(), graph.alive_count()), (n, n), "{what}");
            assert_eq!(graph.alive.words.len(), n.div_ceil(64), "{what}");
            assert_eq!(graph.alive_slots(), (0..n).collect::<Vec<_>>(), "{what}");
            assert!(!graph.is_alive(n), "{what}");
            for (rank, node) in survivors.iter().enumerate() {
                assert_eq!(graph.node(rank), Some(node), "{what}: rank {rank}");
                assert_eq!(graph.index_of(&node.k1mer()), Some(rank), "{what}");
                assert_eq!(graph.slot_keys()[rank], node.k1mer().packed(), "{what}");
            }
            for &slot in &dead {
                let key = Kmer::from_packed(keys[slot], 14);
                assert_eq!(graph.index_of(&key), None, "{what}: slot {slot}");
            }

            // A second purge is a no-op.
            let purged = graph.clone();
            graph.purge_dead();
            assert_eq!(capacities(&graph), before, "{what}");
            assert_eq!(graph.slots, purged.slots, "{what}");
            assert_eq!(graph.index.keys, purged.index.keys, "{what}");
            assert_eq!(graph.index.starts, purged.index.starts, "{what}");
            assert_eq!(graph.alive.words, purged.alive.words, "{what}");
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

    #[test]
    fn pakgraph_conserves_kmer_flow_and_splits_across_owner_shards() {
        use crate::shard::ShardedGraph;
        use std::collections::BTreeSet;

        // xorshift64*, the generator of `tests/count_props.rs`.
        let mut state = 0x0F10_3A7E_u64;
        let mut below = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize) % bound
        };
        for case in 0..64 {
            // 1–12 reads of 0–150 bases (about one in four repeats an earlier
            // read), counted at k in 3..=21 with nothing pruned.
            let k = 3 + below(19);
            let mut texts: Vec<String> = Vec::new();
            for _ in 0..1 + below(12) {
                if !texts.is_empty() && below(4) == 0 {
                    texts.push(texts[below(texts.len())].clone());
                    continue;
                }
                texts.push(
                    (0..below(151))
                        .map(|_| "ACGT".as_bytes()[below(4)] as char)
                        .collect(),
                );
            }
            let reads: Vec<SequencingRead> = texts
                .iter()
                .enumerate()
                .map(|(i, t)| SequencingRead::new(format!("r{i}"), t.parse::<DnaString>().unwrap()))
                .collect();
            let config = KmerCounterConfig {
                k,
                min_count: 1,
                threads: 1,
            };
            let Ok((counted, _)) = count_kmers(&reads, config) else {
                continue; // no read holds a k-mer
            };
            let what = format!("case {case}: {} reads, k = {k}", reads.len());
            let total: u64 = counted.iter().map(|c| u64::from(c.count)).sum();
            let graph = PakGraph::from_counted_kmers(&counted, k, 1);

            // Every k-mer puts its count on the prefix side of its suffix node
            // and on the suffix side of its prefix node; wiring only folds
            // read-boundary imbalance into through flow, so neither side loses
            // any, and a node with flow on both sides is balanced.
            let flow = |side: fn(&MacroNode) -> u32| -> u64 {
                graph.iter_alive().map(|(_, n)| u64::from(side(n))).sum()
            };
            assert!(flow(MacroNode::incoming_count) >= total, "{what}");
            assert!(flow(MacroNode::outgoing_count) >= total, "{what}");
            for (_, node) in graph.iter_alive() {
                if node.incoming_count() > 0 && node.outgoing_count() > 0 {
                    assert_eq!(node.incoming_count(), node.outgoing_count(), "{what}");
                }
            }
            // The nodes are exactly the k-mers' prefix and suffix (k-1)-mers.
            let k1mers: BTreeSet<Kmer> = counted
                .iter()
                .flat_map(|ck| [ck.kmer.prefix_k1(), ck.kmer.suffix_k1()])
                .collect();
            let nodes: BTreeSet<Kmer> = graph.iter_alive().map(|(_, n)| n.k1mer()).collect();
            assert_eq!(nodes, k1mers, "{what}");

            // Sharded, the build is the same graph, and its owners partition
            // the alive nodes.
            for shards in [1usize, 3, 8] {
                let sharded = ShardedGraph::from_counted_kmers(&counted, k, shards, 2);
                let per_shard = sharded.per_shard_alive();
                assert_eq!(
                    per_shard.iter().sum::<usize>(),
                    graph.alive_count(),
                    "{what}"
                );
                for (slot, node) in sharded.graph().iter_alive() {
                    let owner = sharded.shard_of_global(slot);
                    assert_eq!(owner, node.owner_shard(shards), "{what}, {shards} shards");
                }
                let global = sharded.into_global_graph();
                assert_eq!(global.slot_keys(), graph.slot_keys(), "{what}");
                for slot in 0..graph.slot_count() {
                    assert_eq!(
                        global.node(slot),
                        graph.node(slot),
                        "{what}, {shards} shards"
                    );
                }
            }
        }
    }
}
