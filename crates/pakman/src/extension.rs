//! MacroNode extensions as words: the bases a path carries on either side of
//! its node's (k-1)-mer, packed in the (k-1)-mer's own bit layout.
//!
//! Every rule of Iterative Compaction (Fig. 4) joins an extension to a
//! (k-1)-mer or cuts one out of their concatenation: a neighbour's (k-1)-mer,
//! the extension a neighbour records the edge under, the replacement a
//! TransferNode carries. [`nmp_pak_genome::Kmer`] packs its first base in the
//! most significant occupied 2-bit group; an [`Extension`] of up to 32 bases
//! is one `u64` in that same layout, so each of those rules is a shift, a mask
//! and an OR of two words — no base-order reversal, no per-base loop, no heap.
//! Longer extensions (a chain folded into a neighbour over many iterations)
//! keep the layout across a boxed run of words, and every operation below
//! reads them 32 bases per step.
//!
//! `DnaString`, the reads' and contigs' type, meets an extension only at a
//! boundary: [`Extension::to_dna_string`] and `From<&DnaString>`, and the
//! walk's contig spelling, which appends each word with
//! [`DnaString::push_packed`].

use nmp_pak_genome::{Base, DnaString, GenomeError};
use std::cmp::Ordering;
use std::fmt;

/// Bases per `u64` word.
const WORD_BASES: usize = 32;

/// Mask of the low `n ≤ 32` two-bit groups of a word.
#[inline]
fn mask(n: usize) -> u64 {
    if n >= WORD_BASES {
        u64::MAX
    } else {
        (1u64 << (2 * n)) - 1
    }
}

/// `word` moved up by `bases` two-bit groups; `0` once all 32 are shifted out.
#[inline]
fn shl(word: u64, bases: usize) -> u64 {
    word.checked_shl(2 * bases as u32).unwrap_or(0)
}

/// A MacroNode extension: a sequence of bases, packed 2 bits a base in the
/// [`nmp_pak_genome::Kmer`] layout (first base most significant).
///
/// Up to 32 bases are one inline word — no allocation, and an
/// `Option<Extension>` is 16 bytes. A longer extension is one boxed header
/// holding its length and its words (the bases as one stream, base `i` at bits
/// `62 - 2 (i % 32)` of word `i / 32`, the last word zero below its bases). A
/// fat `Box<[u64]>` inline would make the extension 24 bytes and a graph slot
/// 72 (over its 64-byte budget), so the long form pays a second pointer
/// instead; 98 % of transfers carry at most four bases.
///
/// The form follows the length — at most 32 bases is always the word — so the
/// derived `==` and `Hash` compare content.
///
/// # Example
///
/// ```
/// use nmp_pak_pakman::Extension;
///
/// let ext: Extension = "GATTACA".parse().unwrap();
/// assert_eq!(ext.len(), 7);
/// let joined = ext.concat(&"CC".parse().unwrap());
/// assert_eq!(joined.to_string(), "GATTACACC");
/// assert!(joined.ends_with(&"ACC".parse().unwrap()));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Extension(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// At most 32 bases, right-aligned; the bits above `2 * len` are zero.
    Word { word: u64, len: u8 },
    /// More than 32 bases.
    Words(Box<Words>),
}

/// The long form: `len > 32` bases as a left-aligned stream of words.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Words {
    len: usize,
    /// Exactly `len.div_ceil(32)` words; the bits below the last base are zero.
    words: Box<[u64]>,
}

impl Words {
    /// The `1 ≤ n ≤ 32` bases at `[start, start + n)`, right-aligned: the two
    /// words the window can touch, as one `u128`, shifted into place.
    #[inline]
    fn window(&self, start: usize, n: usize) -> u64 {
        let (i, offset) = (start / WORD_BASES, start % WORD_BASES);
        let high = u128::from(self.words[i]) << 64;
        let low = u128::from(self.words.get(i + 1).copied().unwrap_or(0));
        (((high | low) << (2 * offset)) >> (128 - 2 * n)) as u64
    }
}

/// Builds an extension longer than one word from right-aligned pieces of at
/// most 32 bases each, appended to a left-aligned word stream.
struct Writer {
    words: Vec<u64>,
    len: usize,
}

impl Writer {
    /// A writer sized for exactly `total` bases.
    fn new(total: usize) -> Writer {
        Writer {
            words: Vec::with_capacity(total.div_ceil(WORD_BASES)),
            len: 0,
        }
    }

    /// Appends the `n ≤ 32` bases of the right-aligned `word` (bits above
    /// `2 * n` zero).
    #[inline]
    fn push(&mut self, word: u64, n: usize) {
        debug_assert!(n <= WORD_BASES && word & !mask(n) == 0);
        if n == 0 {
            return;
        }
        let aligned = word << (64 - 2 * n);
        let used = self.len % WORD_BASES;
        if used == 0 {
            self.words.push(aligned);
        } else {
            *self.words.last_mut().expect("a partial word") |= aligned >> (2 * used);
            let free = WORD_BASES - used;
            if n > free {
                self.words.push(aligned << (2 * free));
            }
        }
        self.len += n;
    }

    /// Appends `ext[start .. start + n]`, 32 bases per step.
    fn push_range(&mut self, ext: &Extension, start: usize, n: usize) {
        let mut done = 0;
        while done < n {
            let step = (n - done).min(WORD_BASES);
            self.push(ext.window(start + done, step), step);
            done += step;
        }
    }

    fn finish(self) -> Extension {
        if self.len <= WORD_BASES {
            let word = self.words.first().map_or(0, |w| w >> (64 - 2 * self.len));
            return Extension::from_packed(word, self.len);
        }
        debug_assert_eq!(self.words.len(), self.len.div_ceil(WORD_BASES));
        Extension(Repr::Words(Box::new(Words {
            len: self.len,
            words: self.words.into_boxed_slice(),
        })))
    }
}

impl Extension {
    /// The one-base extension `base`.
    #[inline]
    pub fn from_base(base: Base) -> Extension {
        Extension::from_packed(u64::from(base.code()), 1)
    }

    /// The `len ≤ 32` bases held in the low `2 * len` bits of `packed`, in
    /// the [`nmp_pak_genome::Kmer`] layout. Bits above `2 * len` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[inline]
    pub(crate) fn from_packed(packed: u64, len: usize) -> Extension {
        assert!(len <= WORD_BASES, "one word holds at most 32 bases");
        Extension(Repr::Word {
            word: packed & mask(len),
            len: len as u8,
        })
    }

    /// Number of bases.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Word { len, .. } => *len as usize,
            Repr::Words(long) => long.len,
        }
    }

    /// `true` for the empty extension.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `n ≤ 32` bases at `[start, start + n)` in the
    /// [`nmp_pak_genome::Kmer`] layout (right-aligned, first base most
    /// significant); `0` for an empty window.
    ///
    /// # Panics
    ///
    /// Debug builds assert `n ≤ 32` and that the window lies inside the
    /// extension.
    #[inline]
    pub(crate) fn window(&self, start: usize, n: usize) -> u64 {
        debug_assert!(n <= WORD_BASES && start + n <= self.len());
        if n == 0 {
            return 0;
        }
        match &self.0 {
            Repr::Word { word, len } => (word >> (2 * (*len as usize - start - n))) & mask(n),
            Repr::Words(long) => long.window(start, n),
        }
    }

    /// The first `n ≤ 32` bases as a word ([`Extension::window`] at 0).
    #[inline]
    pub(crate) fn head(&self, n: usize) -> u64 {
        self.window(0, n)
    }

    /// The last `n ≤ 32` bases as a word.
    #[inline]
    pub(crate) fn tail(&self, n: usize) -> u64 {
        match &self.0 {
            Repr::Word { word, .. } => word & mask(n),
            Repr::Words(long) => self.window(long.len - n, n),
        }
    }

    /// `self[start .. start + n]` followed by the `m ≤ 32` bases of the
    /// right-aligned `word` — the shape of every neighbour extension
    /// ([`crate::MacroNode::predecessor_suffix`]): one shift and one OR when
    /// the result fits a word.
    #[inline]
    pub(crate) fn range_then_word(&self, start: usize, n: usize, word: u64, m: usize) -> Extension {
        if n + m <= WORD_BASES {
            return Extension::from_packed(shl(self.window(start, n), m) | word, n + m);
        }
        let mut out = Writer::new(n + m);
        out.push_range(self, start, n);
        out.push(word, m);
        out.finish()
    }

    /// The `m ≤ 32` bases of the right-aligned `word` followed by
    /// `self[start .. start + n]`; mirror of [`Extension::range_then_word`].
    #[inline]
    pub(crate) fn word_then_range(word: u64, m: usize, ext: &Extension, n: usize) -> Extension {
        if n + m <= WORD_BASES {
            return Extension::from_packed(shl(word, n) | ext.head(n), n + m);
        }
        let mut out = Writer::new(n + m);
        out.push(word, m);
        out.push_range(ext, 0, n);
        out.finish()
    }

    /// `self` followed by `other`: one shift and one OR when both fit a word
    /// together, one exactly sized word stream otherwise.
    #[inline]
    pub fn concat(&self, other: &Extension) -> Extension {
        if let (Repr::Word { word: x, len: a }, Repr::Word { word: y, len: b }) =
            (&self.0, &other.0)
        {
            let (a, b) = (*a as usize, *b as usize);
            if a + b <= WORD_BASES {
                return Extension::from_packed(shl(*x, b) | y, a + b);
            }
        }
        let (a, b) = (self.len(), other.len());
        let mut out = Writer::new(a + b);
        out.push_range(self, 0, a);
        out.push_range(other, 0, b);
        out.finish()
    }

    /// `true` if the extension ends with `suffix` (every extension ends with
    /// the empty one); one masked compare when both are words.
    #[inline]
    pub fn ends_with(&self, suffix: &Extension) -> bool {
        let n = suffix.len();
        let Some(start) = self.len().checked_sub(n) else {
            return false;
        };
        if let (Repr::Word { word: x, .. }, Repr::Word { word: y, .. }) = (&self.0, &suffix.0) {
            return x & mask(n) == *y;
        }
        (0..n).step_by(WORD_BASES).all(|at| {
            let step = (n - at).min(WORD_BASES);
            self.window(start + at, step) == suffix.window(at, step)
        })
    }

    /// Appends the bases to `dna`, one right-aligned word of at most 32
    /// bases per [`DnaString::push_packed`].
    #[inline]
    pub(crate) fn append_to(&self, dna: &mut DnaString) {
        let len = self.len();
        for at in (0..len).step_by(WORD_BASES) {
            let n = (len - at).min(WORD_BASES);
            dna.push_packed(self.window(at, n), n);
        }
    }

    /// The bases as a [`DnaString`].
    pub fn to_dna_string(&self) -> DnaString {
        let mut dna = DnaString::with_capacity(self.len());
        self.append_to(&mut dna);
        dna
    }

    /// Orders two extensions as their ASCII spellings order (`A < C < G < T`,
    /// a proper prefix first), 32 bases per step. The packed code order is
    /// `A < C < T < G`, so each word's codes are first mapped to their ASCII
    /// rank: the high bit stays, the low bit becomes `low ^ high`.
    pub(crate) fn cmp_lexicographic(&self, other: &Extension) -> Ordering {
        const LOW_BITS: u64 = 0x5555_5555_5555_5555;
        let rank = |word: u64| word ^ ((word >> 1) & LOW_BITS);
        let common = self.len().min(other.len());
        for at in (0..common).step_by(WORD_BASES) {
            let n = (common - at).min(WORD_BASES);
            let (x, y) = (rank(self.window(at, n)), rank(other.window(at, n)));
            if x != y {
                return x.cmp(&y);
            }
        }
        self.len().cmp(&other.len())
    }
}

impl From<&DnaString> for Extension {
    fn from(dna: &DnaString) -> Extension {
        let len = dna.len();
        let mut out = Writer::new(len);
        for at in (0..len).step_by(WORD_BASES) {
            let n = (len - at).min(WORD_BASES);
            out.push(dna.packed_window(at, n), n);
        }
        out.finish()
    }
}

impl FromIterator<Base> for Extension {
    /// Places each base at its bit position one at a time, sharing no
    /// shift-and-merge step with the word operations above — the tests
    /// build their expected values this way.
    fn from_iter<T: IntoIterator<Item = Base>>(iter: T) -> Self {
        let mut out = Writer::new(0);
        for base in iter {
            let offset = out.len % WORD_BASES;
            if offset == 0 {
                out.words.push(0);
            }
            let code = u64::from(base.code());
            *out.words.last_mut().expect("pushed above") |= code << (62 - 2 * offset);
            out.len += 1;
        }
        out.finish()
    }
}

impl std::str::FromStr for Extension {
    type Err = GenomeError;

    /// Parses `ACGT` text (either case), base by base.
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        text.chars().map(Base::from_char).collect()
    }
}

impl fmt::Display for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dna_string().to_ascii())
    }
}

impl fmt::Debug for Extension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Extension(\"{self}\")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(text: &str) -> DnaString {
        text.parse().unwrap()
    }

    /// Deterministic ACGT text of `len` bases: xorshift64*, the generator of
    /// `tests/count_props.rs`.
    fn text(len: usize, seed: u64) -> String {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                b"ACGT"[(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 62) as usize] as char
            })
            .collect()
    }

    #[test]
    fn an_option_of_an_extension_is_two_words() {
        assert_eq!(std::mem::size_of::<Extension>(), 16);
        assert_eq!(std::mem::size_of::<Option<Extension>>(), 16);
    }

    #[test]
    fn round_trips_through_dna_string_and_text_at_every_length() {
        for len in 0..=140 {
            let t = text(len, len as u64);
            let ext: Extension = t.parse().unwrap();
            assert_eq!(ext.len(), len);
            assert_eq!(ext.is_empty(), len == 0);
            assert_eq!(ext.to_string(), t);
            assert_eq!(ext.to_dna_string(), d(&t));
            assert_eq!(Extension::from(&d(&t)), ext);
            assert_eq!(d(&t).iter().collect::<Extension>(), ext);
            // The word form exactly up to one word.
            assert_eq!(
                matches!(ext.0, Repr::Word { .. }),
                len <= WORD_BASES,
                "{len}"
            );
        }
        assert_eq!(Extension::from_base(Base::G).to_string(), "G");
        assert_eq!(Extension::from_packed(u64::MAX, 2).to_string(), "GG");
    }

    #[test]
    fn windows_heads_and_tails_match_the_dna_string_words() {
        for len in [1, 5, 31, 32, 33, 63, 64, 65, 70, 97, 130] {
            let t = text(len, 7 + len as u64);
            let (ext, dna) = (t.parse::<Extension>().unwrap(), d(&t));
            for start in 0..=len {
                for n in 0..=(len - start).min(WORD_BASES) {
                    assert_eq!(
                        ext.window(start, n),
                        dna.packed_window(start, n),
                        "len {len}, window [{start}, +{n})"
                    );
                }
            }
            for n in 0..=len.min(WORD_BASES) {
                assert_eq!(ext.head(n), dna.packed_window(0, n));
                assert_eq!(ext.tail(n), dna.packed_window(len - n, n));
            }
        }
    }

    #[test]
    fn concat_equality_and_ends_with_match_the_dna_string_primitives_across_the_word() {
        // Every pair of lengths 0..=70 crosses the one-word boundary on both
        // sides and in the result.
        for a in 0..=70 {
            for b in 0..=70 {
                let (ta, tb) = (text(a, 11 * a as u64 + 1), text(b, 13 * b as u64 + 2));
                let (ea, eb) = (ta.parse::<Extension>().unwrap(), tb.parse().unwrap());
                let (da, db) = (d(&ta), d(&tb));

                let mut joined = da.clone();
                joined.extend_from(&db);
                let concat = ea.concat(&eb);
                assert_eq!(concat.to_dna_string(), joined, "{a} + {b}");
                assert_eq!(concat, Extension::from(&joined), "{a} + {b}");

                assert_eq!(ea == eb, da == db);
                assert_eq!(ea.ends_with(&eb), da.ends_with(&db), "{a} ends with {b}");
                assert_eq!(concat.ends_with(&eb), joined.ends_with(&db));
                assert!(concat.ends_with(&eb));
                assert_eq!(ea.cmp_lexicographic(&eb), ta.cmp(&tb), "{ta} against {tb}");

                // The neighbour-extension splices against the spelled text.
                if a <= WORD_BASES {
                    let word = ea.head(a);
                    for start in [0, b / 3, b] {
                        let n = b - start;
                        let tail_of_b = &tb[start..];
                        assert_eq!(
                            eb.range_then_word(start, n, word, a).to_string(),
                            format!("{tail_of_b}{ta}")
                        );
                        assert_eq!(
                            Extension::word_then_range(word, a, &eb, start).to_string(),
                            format!("{ta}{}", &tb[..start])
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn equality_and_ends_with_see_every_base() {
        for len in [1, 31, 32, 33, 64, 65, 70] {
            let t = text(len, 99);
            let ext: Extension = t.parse().unwrap();
            for i in 0..len {
                let mut bytes = t.clone().into_bytes();
                bytes[i] = if bytes[i] == b'A' { b'C' } else { b'A' };
                let changed: Extension = String::from_utf8(bytes).unwrap().parse().unwrap();
                assert_ne!(changed, ext, "len {len}, base {i}");
                assert!(!ext.ends_with(&changed) && !changed.ends_with(&ext));
            }
            let empty: Extension = "".parse().unwrap();
            assert!(ext.ends_with(&empty));
            assert!(!empty.ends_with(&ext));
        }
    }

    #[test]
    fn extract_pair_equals_the_spelled_oracle_at_every_length_for_k_3_21_32() {
        // Every prefix and suffix length 0..=70 — shorter than, as long as and
        // longer than the (k-1)-mer, and across the one-word boundary on
        // either side and in both replacements — against Fig. 4 (c) read
        // literally on text, built base by base.
        use crate::macronode::{MacroNode, ThroughPath};
        use crate::transfer::TransferNode;
        for k in [3usize, 21, 32] {
            let x = text(k - 1, k as u64);
            let node = MacroNode::new(nmp_pak_genome::Kmer::from_ascii(&x).unwrap());
            for p in 0..=70 {
                for s in 0..=70 {
                    let (e, f) = (text(p, 3 * p as u64 + 5), text(s, 5 * s as u64 + 3));
                    let (prefix, suffix): (Extension, Extension) =
                        (e.parse().unwrap(), f.parse().unwrap());
                    let mut node = node.clone();
                    node.push_path(ThroughPath::through(prefix, suffix.clone(), 3));
                    let path = &node.paths()[0];
                    let pair = TransferNode::extract_pair(&node, path);
                    let what = format!("k {k}, prefix {p}, suffix {s}");
                    assert_eq!(
                        pair,
                        TransferNode::extract_pair_spelled(&node, path),
                        "{what}"
                    );
                    let (pred, succ) = pair.unwrap();
                    let spelled = format!("{e}{x}{f}");
                    assert_eq!(format!("{}{}", pred.destination, pred.new_ext), spelled);
                    assert_eq!(format!("{}{}", succ.new_ext, succ.destination), spelled);
                    // The walk's in-place test accepts what the successor
                    // records the edge under, and nothing one base shorter.
                    assert!(node.successor_prefix_is(&suffix, &succ.match_ext), "{what}");
                    if s > 0 {
                        let shorter = &succ.match_ext.to_string()[1..];
                        let shorter = shorter.parse().unwrap();
                        assert!(!node.successor_prefix_is(&suffix, &shorter), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn words_append_the_bases_to_a_dna_string() {
        for len in [0, 1, 32, 33, 64, 100] {
            let t = text(len, 3);
            let mut dna = d("GAT");
            t.parse::<Extension>().unwrap().append_to(&mut dna);
            assert_eq!(dna.to_string(), format!("GAT{t}"));
        }
    }
}
