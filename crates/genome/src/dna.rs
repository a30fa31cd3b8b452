//! Growable, 2-bit-packed DNA sequences, and the text codec between them and
//! ASCII.

use crate::base::Base;
use crate::error::GenomeError;
use crate::kmer::mask_for;
use std::fmt;

/// Number of packed bytes stored inline before spilling to the heap; 16 bytes hold
/// 64 bases, which covers every (k-1)-mer and k-mer window without an allocation.
const INLINE_BYTES: usize = 16;

/// Maximum number of bases the inline representation holds.
pub const INLINE_BASES: usize = INLINE_BYTES * 4;

/// Packed storage: a fixed inline buffer for short sequences (no heap allocation),
/// spilling to a `Vec<u8>` once the sequence outgrows it.
///
/// Invariants: the inline buffer's bytes beyond the sequence are zero, the unused
/// high bits of the last partial byte are zero in both variants, and a heap vector
/// has exactly `len.div_ceil(4)` bytes. Together these make byte-slice comparison
/// an exact equality check regardless of which variant holds the data.
///
/// The inline buffer is read as one little-endian `u128` with base `i` at bits
/// `2i`, so slicing, appending at any alignment and suffix comparison of inline
/// sequences are shift/mask/OR operations on that word, 32 bases (one `u64`) at
/// a time; the zero padding is what lets an append OR its bases in without
/// clearing first. The array (not a `u128` field) keeps the alignment at 1 and
/// `DnaString` at 32 bytes.
#[derive(Clone)]
enum Repr {
    Inline([u8; INLINE_BYTES]),
    Heap(Vec<u8>),
}

/// Bases moved per step of the word-at-a-time primitives: one `u64`.
const WORD_BASES: usize = 32;

/// Marks a byte that spells no base in [`ASCII_TO_CODE`].
const NOT_A_BASE: u8 = 0x80;

/// The text codec's input half: ASCII byte → 2-bit code (`A`/`a` = 0, `C`/`c` =
/// 1, `T`/`t` = 2, `G`/`g` = 3, the order of [`Base`]); every other byte maps
/// to [`NOT_A_BASE`].
static ASCII_TO_CODE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut code = 0;
    while code < 4 {
        let letter = CODE_TO_ASCII[code];
        table[letter as usize] = code as u8;
        table[letter.to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    table
};

/// Uppercase letter of each 2-bit code.
const CODE_TO_ASCII: [u8; 4] = *b"ACTG";

/// The text codec's output half: packed byte → its four bases as uppercase
/// ASCII, first base (bits 0–1) first.
static PACKED_TO_ASCII: [[u8; 4]; 256] = {
    let mut table = [[0; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut i = 0;
        while i < 4 {
            table[byte][i] = CODE_TO_ASCII[(byte >> (2 * i)) & 0b11];
            i += 1;
        }
        byte += 1;
    }
    table
};

/// The 2-bit code of the ASCII byte `byte` (either case), or `None` if it
/// spells no base.
#[inline]
pub(crate) fn code_of_ascii(byte: u8) -> Option<u8> {
    let code = ASCII_TO_CODE[byte as usize];
    (code != NOT_A_BASE).then_some(code)
}

/// Packs 32 ASCII bases into a little-endian word (base `i` at bits `2i`),
/// or returns `None` if a byte spells no base.
#[inline]
fn pack_ascii_word(bytes: &[u8; WORD_BASES]) -> Option<u64> {
    let (mut word, mut flags) = (0u64, 0u8);
    for (i, &byte) in bytes.iter().enumerate() {
        let code = ASCII_TO_CODE[byte as usize];
        flags |= code;
        word |= u64::from(code & 0b11) << (2 * i);
    }
    (flags & NOT_A_BASE == 0).then_some(word)
}

/// Reverses the order of the 32 two-bit groups of `word`: byte order via
/// `swap_bytes`, then the four groups inside every byte with two mask-shifts.
/// Converts between the little-endian layout of [`DnaString`] (base `i` at bits
/// `2i`) and the first-base-highest layout of [`crate::Kmer`].
#[inline]
pub(crate) fn reverse_base_order(word: u64) -> u64 {
    let x = word.swap_bytes();
    let x = ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
    ((x & 0x3333_3333_3333_3333) << 2) | ((x >> 2) & 0x3333_3333_3333_3333)
}

/// A DNA sequence stored with 2 bits per base.
///
/// `DnaString` is the in-memory representation for reference genomes, reads and
/// contigs. Four bases are packed per byte, which keeps the synthetic workloads used
/// by the experiments an order of magnitude smaller than an ASCII representation —
/// the same reason the paper packs k-mers into machine words. Sequences of up to
/// [`INLINE_BASES`] bases live entirely inline (no heap allocation). MacroNode
/// extensions are not `DnaString`s: they are words in the k-mer layout (the
/// assembler's `Extension`), which meet this type through
/// [`DnaString::packed_window`] and [`DnaString::push_packed`]. [`DnaString::slice`],
/// [`DnaString::extend_from`], [`DnaString::ends_with`], `==` and the k-mer word
/// conversions ([`DnaString::packed_window`], [`DnaString::from_packed`],
/// [`DnaString::push_packed`]) work on
/// whole machine words, 32 bases per step; [`DnaString::push`],
/// [`DnaString::get`] and the iterators are the per-base interface.
///
/// # Example
///
/// ```
/// use nmp_pak_genome::DnaString;
///
/// let s: DnaString = "ACGTACGT".parse().unwrap();
/// assert_eq!(s.len(), 8);
/// assert_eq!(s.to_string(), "ACGTACGT");
/// assert_eq!(s.reverse_complement().to_string(), "ACGTACGT");
/// ```
#[derive(Clone)]
pub struct DnaString {
    /// Packed bases, 4 per byte, little-end first within each byte.
    repr: Repr,
    /// Number of bases stored.
    len: usize,
}

impl Default for DnaString {
    #[inline]
    fn default() -> Self {
        DnaString {
            repr: Repr::Inline([0; INLINE_BYTES]),
            len: 0,
        }
    }
}

impl PartialEq for DnaString {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Compare content, not representation: the same sequence may be inline in
        // one value and heap-allocated in another (e.g. a slice of a long contig).
        if self.len != other.len {
            return false;
        }
        match (&self.repr, &other.repr) {
            // Zero padding makes the whole buffer comparable: one 128-bit compare.
            (Repr::Inline(a), Repr::Inline(b)) => a == b,
            _ => self.used_bytes() == other.used_bytes(),
        }
    }
}

impl Eq for DnaString {}

impl std::hash::Hash for DnaString {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.used_bytes().hash(state);
    }
}

impl DnaString {
    /// Creates an empty sequence.
    #[inline]
    pub fn new() -> Self {
        DnaString::default()
    }

    /// Creates an empty sequence with capacity for `capacity` bases.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= INLINE_BASES {
            return DnaString::new();
        }
        DnaString {
            repr: Repr::Heap(Vec::with_capacity(capacity.div_ceil(4))),
            len: 0,
        }
    }

    /// The packed bytes currently holding the sequence (`len.div_ceil(4)` of them).
    #[inline]
    fn used_bytes(&self) -> &[u8] {
        let used = self.len.div_ceil(4);
        match &self.repr {
            Repr::Inline(buf) => &buf[..used],
            Repr::Heap(v) => &v[..used],
        }
    }

    /// Moves an inline buffer to the heap so it can hold `nbytes` packed bytes.
    #[cold]
    fn spill_to_heap(&mut self, nbytes: usize) {
        if let Repr::Inline(buf) = &self.repr {
            let used = self.len.div_ceil(4);
            let mut v = Vec::with_capacity(nbytes.max(2 * INLINE_BYTES));
            v.extend_from_slice(&buf[..used]);
            self.repr = Repr::Heap(v);
        }
    }

    /// Builds a sequence from an ASCII string of `ACGT` characters (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBase`] with the offending character, as
    /// written, and its byte offset for any other character.
    pub fn from_ascii(text: &str) -> Result<Self, GenomeError> {
        let mut s = DnaString::with_capacity(text.len());
        s.extend_from_ascii(text)?;
        Ok(s)
    }

    /// Appends the bases spelled by `text` (`ACGT`, either case), packing 32
    /// bytes into a word per step.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidBase`] with the offending character and
    /// its byte offset in `text`; the bases before it may have been appended.
    pub(crate) fn extend_from_ascii(&mut self, text: &str) -> Result<(), GenomeError> {
        // The first byte at or after `from` that spells no base.
        let invalid = |from: usize| {
            let offset = text.as_bytes()[from..]
                .iter()
                .position(|&b| code_of_ascii(b).is_none());
            let position = from + offset.expect("a byte was flagged");
            GenomeError::InvalidBase {
                character: text[position..].chars().next().expect("a byte was read"),
                position: Some(position),
            }
        };
        let mut words = text.as_bytes().chunks_exact(WORD_BASES);
        for (i, word) in (&mut words).enumerate() {
            let word = word.try_into().expect("a whole word");
            let packed = pack_ascii_word(word).ok_or_else(|| invalid(i * WORD_BASES))?;
            self.append_word(packed, WORD_BASES);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // `A` packs to 0, so the padding keeps the bits above the tail zero.
            let mut padded = [b'A'; WORD_BASES];
            padded[..tail.len()].copy_from_slice(tail);
            let packed =
                pack_ascii_word(&padded).ok_or_else(|| invalid(text.len() - tail.len()))?;
            self.append_word(packed, tail.len());
        }
        Ok(())
    }

    /// Number of bases in the sequence.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the sequence contains no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one base.
    pub fn push(&mut self, base: Base) {
        self.push_code(base.code());
    }

    /// Appends one base given as its 2-bit code (the representation
    /// [`DnaString::codes`] yields), skipping the enum round-trip. Only the low
    /// two bits are used.
    pub fn push_code(&mut self, code: u8) {
        let code = code & 0b11;
        let byte_idx = self.len / 4;
        let shift = (self.len % 4) * 2;
        match &mut self.repr {
            Repr::Inline(buf) if byte_idx < INLINE_BYTES => {
                // Bytes beyond the sequence are zero by invariant; just OR the bits.
                buf[byte_idx] |= code << shift;
            }
            Repr::Inline(_) => {
                self.spill_to_heap(byte_idx + 1);
                self.push_code(code);
                return;
            }
            Repr::Heap(v) => {
                if byte_idx == v.len() {
                    v.push(0);
                }
                v[byte_idx] |= code << shift;
            }
        }
        self.len += 1;
    }

    /// Overwrites the base at `index` with the 2-bit `code` (only the low two
    /// bits are used).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub(crate) fn set_code(&mut self, index: usize, code: u8) {
        assert!(
            index < self.len,
            "base index {index} out of range (len {})",
            self.len
        );
        let byte = match &mut self.repr {
            Repr::Inline(buf) => &mut buf[index / 4],
            Repr::Heap(v) => &mut v[index / 4],
        };
        let shift = (index % 4) * 2;
        *byte = (*byte & !(0b11 << shift)) | ((code & 0b11) << shift);
    }

    /// Appends every base of `other`, at any alignment, 32 bases per step: a
    /// shift and an OR into the inline word while the result fits it, a
    /// shift-merge across byte boundaries on the heap.
    #[inline]
    pub fn extend_from(&mut self, other: &DnaString) {
        self.append_window(other, 0, other.len);
    }

    /// The `n ≤ 32` bases at `[start, start + n)` as a little-endian word (base
    /// `start + i` at bits `2i`, bits above `2n` zero).
    #[inline]
    fn window(&self, start: usize, n: usize) -> u64 {
        debug_assert!(n <= WORD_BASES && start + n <= self.len);
        if n == 0 {
            return 0;
        }
        let word = match &self.repr {
            Repr::Inline(buf) => u128::from_le_bytes(*buf) >> (2 * start),
            Repr::Heap(v) => {
                // 32 bases at a 0..=3 base offset span at most 9 bytes.
                let first = start / 4;
                let bytes = &v[first..v.len().min(first + 9)];
                let mut buf = [0u8; INLINE_BYTES];
                buf[..bytes.len()].copy_from_slice(bytes);
                u128::from_le_bytes(buf) >> (2 * (start % 4))
            }
        };
        word as u64 & mask_for(n)
    }

    /// Appends the `n ≤ 32` bases of the little-endian `word` (bits above `2n`
    /// must be zero — that is what keeps the padding invariant).
    #[inline]
    fn append_word(&mut self, word: u64, n: usize) {
        debug_assert!(n <= WORD_BASES && word & !mask_for(n) == 0);
        if n == 0 {
            return;
        }
        let new_len = self.len + n;
        if let Repr::Inline(buf) = &mut self.repr {
            if new_len <= INLINE_BASES {
                let merged = u128::from_le_bytes(*buf) | (word as u128) << (2 * self.len);
                *buf = merged.to_le_bytes();
                self.len = new_len;
                return;
            }
            self.spill_to_heap(new_len.div_ceil(4));
        }
        let Repr::Heap(v) = &mut self.repr else {
            unreachable!("spilled above")
        };
        // Shift-merge: the word's low bits complete the last partial byte, the
        // rest become new bytes.
        let partial = self.len % 4;
        let bytes = ((word as u128) << (2 * partial)).to_le_bytes();
        let mut from = 0usize;
        if partial != 0 {
            *v.last_mut().expect("a partial byte exists") |= bytes[0];
            from = 1;
        }
        let fresh = new_len.div_ceil(4) - v.len();
        v.extend_from_slice(&bytes[from..from + fresh]);
        self.len = new_len;
    }

    /// Appends `other[start .. start + len]` a word at a time.
    #[inline]
    fn append_window(&mut self, other: &DnaString, start: usize, len: usize) {
        let mut done = 0usize;
        while done < len {
            let n = (len - done).min(WORD_BASES);
            self.append_word(other.window(start + done, n), n);
            done += n;
        }
    }

    /// `true` if the sequence ends with `suffix` (compared a word at a time;
    /// every sequence ends with the empty one).
    #[inline]
    pub fn ends_with(&self, suffix: &DnaString) -> bool {
        let Some(start) = self.len.checked_sub(suffix.len) else {
            return false;
        };
        (0..suffix.len).step_by(WORD_BASES).all(|at| {
            let n = (suffix.len - at).min(WORD_BASES);
            self.window(start + at, n) == suffix.window(at, n)
        })
    }

    /// The sequence of the `len ≤ 32` bases held in the low `2 * len` bits of
    /// `packed` in the [`crate::Kmer`] bit layout (first base in the most
    /// significant occupied 2-bit group) — the inverse of
    /// [`DnaString::packed_window`]. Bits above `2 * len` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[inline]
    pub fn from_packed(packed: u64, len: usize) -> DnaString {
        let mut out = DnaString::new();
        out.push_packed(packed, len);
        out
    }

    /// Appends the `len ≤ 32` bases held in the low `2 * len` bits of
    /// `packed` in the [`crate::Kmer`] bit layout (first base in the most
    /// significant occupied 2-bit group) — one base-order reversal and one
    /// word append. Bits above `2 * len` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[inline]
    pub fn push_packed(&mut self, packed: u64, len: usize) {
        assert!(len <= WORD_BASES, "a packed word holds at most 32 bases");
        if len == 0 {
            return;
        }
        // Left-aligning first drops the ignored high bits; the reversal then
        // lands the first base at bits 0 with zero padding above.
        self.append_word(reverse_base_order(packed << (2 * (WORD_BASES - len))), len);
    }

    /// The `len ≤ 32` bases at `[start, start + len)` packed in the
    /// [`crate::Kmer`] bit layout: first base in the most significant occupied
    /// 2-bit group, `0` for an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32` or the window extends past the end of the sequence.
    #[inline]
    pub fn packed_window(&self, start: usize, len: usize) -> u64 {
        assert!(
            len <= WORD_BASES && start + len <= self.len,
            "window [{start}, {}) of at most {WORD_BASES} bases out of range (len {})",
            start + len,
            self.len
        );
        if len == 0 {
            return 0;
        }
        reverse_base_order(self.window(start, len)) >> (2 * (WORD_BASES - len))
    }

    /// Returns the base at `index`, or `None` if out of range.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Base> {
        if index >= self.len {
            return None;
        }
        let byte = match &self.repr {
            Repr::Inline(buf) => buf[index / 4],
            Repr::Heap(v) => v[index / 4],
        };
        let shift = (index % 4) * 2;
        Some(Base::from_code((byte >> shift) & 0b11))
    }

    /// Returns the base at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn base(&self, index: usize) -> Base {
        self.get(index)
            .unwrap_or_else(|| panic!("base index {index} out of range (len {})", self.len))
    }

    /// Iterates over the bases in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { dna: self, pos: 0 }
    }

    /// Iterates over the raw 2-bit codes in order, reading the packed bytes
    /// directly. This is the hot-path accessor the k-mer extractor uses: it avoids
    /// the per-base representation dispatch and enum round-trip of [`Self::base`],
    /// which matters when sliding a window over hundreds of thousands of reads.
    #[inline]
    pub fn codes(&self) -> impl Iterator<Item = u8> + '_ {
        let bytes = self.used_bytes();
        (0..self.len).map(move |i| (bytes[i >> 2] >> ((i & 3) * 2)) & 0b11)
    }

    /// Returns the sub-sequence `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the sequence.
    #[inline]
    pub fn slice(&self, start: usize, len: usize) -> DnaString {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) out of range (len {})",
            start + len,
            self.len
        );
        let mut out = DnaString::with_capacity(len);
        out.append_window(self, start, len);
        out
    }

    /// Returns the reverse complement of the sequence.
    #[inline]
    pub fn reverse_complement(&self) -> DnaString {
        self.reverse_complement_of_slice(0, self.len)
    }

    /// The reverse complement of `self.slice(start, len)`, without the slice:
    /// 32 bases per step, each word read from the end, reversed with
    /// [`reverse_base_order`] and complemented with one XOR (`A=0 ↔ T=2`,
    /// `C=1 ↔ G=3` differ in the high bit of the code only).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the sequence.
    pub(crate) fn reverse_complement_of_slice(&self, start: usize, len: usize) -> DnaString {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) out of range (len {})",
            start + len,
            self.len
        );
        let mut out = DnaString::with_capacity(len);
        let mut end = start + len;
        while end > start {
            let n = (end - start).min(WORD_BASES);
            end -= n;
            let reversed = reverse_base_order(self.window(end, n)) >> (2 * (WORD_BASES - n));
            out.append_word(reversed ^ (0xAAAA_AAAA_AAAA_AAAA & mask_for(n)), n);
        }
        out
    }

    /// Fraction of bases that are G or C, in `[0, 1]`. Returns 0 for an empty sequence.
    pub fn gc_content(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let gc = self
            .iter()
            .filter(|b| matches!(b, Base::G | Base::C))
            .count();
        gc as f64 / self.len as f64
    }

    /// `true` while the sequence fits in the inline buffer (no heap allocation).
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline(_))
    }

    /// Converts the sequence to an ASCII `String` of `ACGT` characters.
    pub fn to_ascii(&self) -> String {
        let mut text = Vec::with_capacity(self.len);
        self.write_ascii(&mut text);
        String::from_utf8(text).expect("the codec writes ASCII")
    }

    /// Appends the sequence to `out` as uppercase ASCII, four bases per
    /// packed byte.
    pub(crate) fn write_ascii(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.len, 0);
        let mut quads = out[start..].chunks_exact_mut(4);
        let bytes = self.used_bytes();
        for (quad, &byte) in (&mut quads).zip(bytes) {
            quad.copy_from_slice(&PACKED_TO_ASCII[byte as usize]);
        }
        let tail = quads.into_remainder();
        if let Some(&last) = bytes.get(self.len / 4) {
            tail.copy_from_slice(&PACKED_TO_ASCII[last as usize][..tail.len()]);
        }
    }
}

impl fmt::Display for DnaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ascii())
    }
}

impl fmt::Debug for DnaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 64 {
            write!(f, "DnaString(\"{self}\")")
        } else {
            write!(f, "DnaString(len={}, \"{}…\")", self.len, self.slice(0, 32))
        }
    }
}

impl std::str::FromStr for DnaString {
    type Err = GenomeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnaString::from_ascii(s)
    }
}

impl FromIterator<Base> for DnaString {
    fn from_iter<T: IntoIterator<Item = Base>>(iter: T) -> Self {
        let mut s = DnaString::new();
        s.extend(iter);
        s
    }
}

impl Extend<Base> for DnaString {
    /// Gathers 32 bases into a word per append.
    fn extend<T: IntoIterator<Item = Base>>(&mut self, iter: T) {
        let (mut word, mut n) = (0u64, 0usize);
        for b in iter {
            word |= u64::from(b.code()) << (2 * n);
            n += 1;
            if n == WORD_BASES {
                self.append_word(word, n);
                (word, n) = (0, 0);
            }
        }
        self.append_word(word, n);
    }
}

impl<'a> IntoIterator for &'a DnaString {
    type Item = Base;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over the bases of a [`DnaString`], produced by [`DnaString::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    dna: &'a DnaString,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = Base;

    fn next(&mut self) -> Option<Base> {
        let b = self.dna.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.dna.len.saturating_sub(self.pos);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_code_matches_push_across_the_inline_boundary() {
        // Long enough to spill from the inline buffer to the heap.
        let mut by_base = DnaString::new();
        let mut by_code = DnaString::new();
        for i in 0..200usize {
            let base = match i % 4 {
                0 => Base::A,
                1 => Base::C,
                2 => Base::G,
                _ => Base::T,
            };
            by_base.push(base);
            by_code.push_code(base.code());
        }
        assert_eq!(by_base, by_code);
        assert_eq!(by_base.to_string(), by_code.to_string());
        // High bits of the code are masked, preserving the packed invariant.
        let mut masked = DnaString::new();
        masked.push_code(0b1111_1110);
        assert_eq!(masked.base(0), Base::from_code(0b10));
        assert_eq!(masked.len(), 1);
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut s = DnaString::new();
        let bases = [Base::A, Base::C, Base::G, Base::T, Base::T, Base::G];
        for b in bases {
            s.push(b);
        }
        assert_eq!(s.len(), 6);
        for (i, b) in bases.iter().enumerate() {
            assert_eq!(s.base(i), *b);
        }
        assert_eq!(s.get(6), None);
    }

    #[test]
    fn ascii_round_trip() {
        let text = "ACGTTGCAACGTTTTGGGGCCCCAAAA";
        let s = DnaString::from_ascii(text).unwrap();
        assert_eq!(s.to_ascii(), text);
        assert_eq!(s.to_string(), text);
    }

    #[test]
    fn from_ascii_reports_position_of_bad_base() {
        let err = DnaString::from_ascii("ACGNX").unwrap_err();
        match err {
            GenomeError::InvalidBase {
                character,
                position,
            } => {
                assert_eq!(character, 'N');
                assert_eq!(position, Some(3));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn slice_extracts_expected_window() {
        let s: DnaString = "ACGTACGTAC".parse().unwrap();
        assert_eq!(s.slice(2, 4).to_string(), "GTAC");
        assert_eq!(s.slice(0, 0).len(), 0);
        assert_eq!(s.slice(9, 1).to_string(), "C");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let s: DnaString = "ACGT".parse().unwrap();
        let _ = s.slice(2, 5);
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: DnaString = "ACGGTTTACGATCG".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn reverse_complement_known_value() {
        let s: DnaString = "AACGT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "ACGTT");
    }

    #[test]
    fn gc_content_computed() {
        let s: DnaString = "GGCC".parse().unwrap();
        assert!((s.gc_content() - 1.0).abs() < 1e-12);
        let s: DnaString = "AATT".parse().unwrap();
        assert!(s.gc_content().abs() < 1e-12);
        let s: DnaString = "ACGT".parse().unwrap();
        assert!((s.gc_content() - 0.5).abs() < 1e-12);
        assert_eq!(DnaString::new().gc_content(), 0.0);
    }

    #[test]
    fn codes_match_bases() {
        let s: DnaString = "ACGTTGCAACGTTTTGGGGCCCCAAAA".parse().unwrap();
        let via_codes: Vec<u8> = s.codes().collect();
        let via_bases: Vec<u8> = s.iter().map(Base::code).collect();
        assert_eq!(via_codes, via_bases);
        // And across the inline/heap boundary.
        let long: DnaString = "ACGT".repeat(40).parse().unwrap();
        assert_eq!(
            long.codes().collect::<Vec<_>>(),
            long.iter().map(Base::code).collect::<Vec<_>>()
        );
    }

    #[test]
    fn iterator_and_collect() {
        let s: DnaString = "ACGT".parse().unwrap();
        let collected: DnaString = s.iter().collect();
        assert_eq!(collected, s);
        assert_eq!(s.iter().len(), 4);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a: DnaString = "ACG".parse().unwrap();
        let b: DnaString = "TTT".parse().unwrap();
        a.extend_from(&b);
        assert_eq!(a.to_string(), "ACGTTT");
        // Byte-aligned destination (len % 4 == 0).
        let mut c: DnaString = "ACGT".parse().unwrap();
        c.extend_from(&b);
        assert_eq!(c.to_string(), "ACGTTTT");
    }

    #[test]
    fn short_sequences_stay_inline_and_long_ones_spill() {
        let short: DnaString = "ACGT".repeat(16).parse().unwrap(); // 64 bases
        assert!(short.is_inline());
        let mut spilled = short.clone();
        spilled.push(Base::G); // 65th base
        assert!(!spilled.is_inline());
        assert_eq!(spilled.len(), 65);
        assert_eq!(spilled.to_string(), format!("{}G", "ACGT".repeat(16)));
        // Pushing across the boundary preserves every earlier base.
        for i in 0..64 {
            assert_eq!(spilled.base(i), short.base(i));
        }
    }

    #[test]
    fn equality_ignores_representation() {
        // Same content, one inline and one heap-backed (reserved for more).
        let mut heap_backed = DnaString::with_capacity(100);
        for c in "ACGTACGT".chars() {
            heap_backed.push(Base::from_char(c).unwrap());
        }
        assert!(!heap_backed.is_inline());
        let inline: DnaString = "ACGTACGT".parse().unwrap();
        assert!(inline.is_inline());
        assert_eq!(inline, heap_backed);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &DnaString| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&inline), hash(&heap_backed));
    }

    #[test]
    fn extend_across_inline_boundary() {
        let unit: DnaString = "ACGTTGCA".parse().unwrap();
        let mut grown = DnaString::new();
        let mut expected = String::new();
        for _ in 0..20 {
            grown.extend_from(&unit);
            expected.push_str("ACGTTGCA");
        }
        assert_eq!(grown.len(), 160);
        assert_eq!(grown.to_string(), expected);
        // Unaligned growth across the boundary too.
        let tri: DnaString = "ACG".parse().unwrap();
        let mut grown = DnaString::new();
        let mut expected = String::new();
        for _ in 0..30 {
            grown.extend_from(&tri);
            expected.push_str("ACG");
        }
        assert_eq!(grown.to_string(), expected);
    }

    #[test]
    fn reverse_complement_of_slice_equals_the_slice_reverse_complemented() {
        let text: String = (0..150)
            .map(|i| ['A', 'C', 'G', 'T', 'T', 'A', 'G'][i % 7])
            .collect();
        let s = DnaString::from_ascii(&text).unwrap();
        for start in 0..=s.len() {
            for len in 0..=s.len() - start {
                assert_eq!(
                    s.reverse_complement_of_slice(start, len),
                    s.slice(start, len).reverse_complement(),
                    "({start}, {len})"
                );
            }
        }
    }

    #[test]
    fn set_code_overwrites_one_base_inline_and_on_the_heap() {
        for len in [1, 5, 64, 65, 130] {
            let original = DnaString::from_ascii(&"ACGT".repeat(40)[..len]).unwrap();
            for index in 0..len {
                let mut s = original.clone();
                let code = original.base(index).complement().code();
                s.set_code(index, code | 0b1100);
                for i in 0..len {
                    let want = if i == index {
                        Base::from_code(code)
                    } else {
                        original.base(i)
                    };
                    assert_eq!(s.base(i), want, "len {len}, index {index}, base {i}");
                }
            }
        }
    }

    #[test]
    fn push_packed_appends_what_packed_window_reads() {
        let text = "GATTACACCGTAGGCTTAACGTTGCAACGTTTTGGGGCCCCAAAATGCA";
        let source = DnaString::from_ascii(text).unwrap();
        // Every alignment of the destination, inline and on the heap.
        for head in [0, 1, 3, 4, 30, 63, 64, 65, 99] {
            for n in 0..=WORD_BASES {
                let mut s = DnaString::from_ascii(&"C".repeat(head)).unwrap();
                s.push_packed(source.packed_window(1, n) | !mask_for(n), n);
                assert_eq!(
                    s.to_ascii(),
                    format!("{}{}", "C".repeat(head), &text[1..1 + n])
                );
            }
        }
        assert_eq!(DnaString::from_packed(0b1110, 2).to_ascii(), "GT");
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", DnaString::new()).is_empty());
        let long: DnaString = "ACGT".repeat(40).parse().unwrap();
        assert!(format!("{long:?}").contains("len=160"));
    }
}
