//! Fixed-length k-mers (k ≤ 32) packed into a single `u64`.
//!
//! The paper's pipeline operates on 32-mers extracted with a sliding window
//! (Fig. 2 A/B) and groups k-mers that share a (k-1)-mer into MacroNodes (Fig. 3).
//! This module provides the packed k-mer value type and the sliding-window iterator
//! used by the k-mer counting phase, plus the (k-1)-mer manipulations the
//! MacroNode construction and Iterative Compaction stages rely on:
//! dropping the first or last base and appending prefix/suffix extensions.

use crate::base::Base;
use crate::dna::DnaString;
use crate::error::GenomeError;
use std::cmp::Ordering;
use std::fmt;

/// Maximum supported k-mer length (bases) for the packed representation.
pub const MAX_K: usize = 32;

/// A DNA substring of fixed length `k ≤ 32`, packed 2 bits per base into a `u64`.
///
/// Bases are stored with the *first* base in the most-significant position, so for two
/// k-mers of equal length the numeric order of the packed word equals lexicographic
/// order under the paper's `A < C < T < G` base ordering. This is exactly the ordering
/// the Iterative Compaction invalidation check uses ("invalidate if the current node's
/// (k-1)-mer is the largest", Fig. 4).
///
/// # Example
///
/// ```
/// use nmp_pak_genome::Kmer;
///
/// let k = Kmer::from_ascii("GTCAT").unwrap();
/// assert_eq!(k.k(), 5);
/// assert_eq!(k.prefix_k1().to_string(), "GTCA");
/// assert_eq!(k.suffix_k1().to_string(), "TCAT");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kmer {
    /// Packed bases; first base occupies the highest-order 2-bit group in use.
    packed: u64,
    /// Number of bases (1..=32).
    k: u8,
}

impl Kmer {
    /// Builds a k-mer from the `k` bases starting at `start` in `dna`.
    ///
    /// # Errors
    ///
    /// * [`GenomeError::InvalidK`] if `k` is zero or exceeds [`MAX_K`].
    /// * [`GenomeError::SequenceTooShort`] if the window does not fit in `dna`.
    pub fn from_dna(dna: &DnaString, start: usize, k: usize) -> Result<Kmer, GenomeError> {
        if k == 0 || k > MAX_K {
            return Err(GenomeError::InvalidK { k });
        }
        if start + k > dna.len() {
            return Err(GenomeError::SequenceTooShort {
                actual: dna.len(),
                required: start + k,
            });
        }
        Ok(Kmer {
            packed: dna.packed_window(start, k),
            k: k as u8,
        })
    }

    /// Builds a k-mer from an iterator of bases; `k` is the number of items consumed.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidK`] if the iterator yields zero or more than
    /// [`MAX_K`] bases.
    pub fn from_bases<I: IntoIterator<Item = Base>>(bases: I) -> Result<Kmer, GenomeError> {
        let mut packed = 0u64;
        let mut k = 0usize;
        for b in bases {
            if k == MAX_K {
                return Err(GenomeError::InvalidK { k: k + 1 });
            }
            packed = (packed << 2) | b.code() as u64;
            k += 1;
        }
        if k == 0 {
            return Err(GenomeError::InvalidK { k: 0 });
        }
        Ok(Kmer { packed, k: k as u8 })
    }

    /// Reconstructs a k-mer from its packed 2-bit representation.
    ///
    /// This is the cheap constructor the hot paths use: counting produces sorted
    /// packed `u64` values and turns them back into [`Kmer`]s without touching
    /// individual bases. Infallible by construction — bits above the `2 * k` in use
    /// are masked off, so any `u64` yields a valid k-mer of length `k`.
    ///
    /// # Panics
    ///
    /// Debug builds assert that `k` lies in `1..=`[`MAX_K`]; release builds clamp
    /// nothing and rely on the caller having validated `k` (every pipeline entry
    /// point does).
    #[inline]
    pub fn from_packed(packed: u64, k: usize) -> Kmer {
        debug_assert!((1..=MAX_K).contains(&k), "k = {k} must lie in 1..={MAX_K}");
        Kmer {
            packed: packed & mask_for(k),
            k: k as u8,
        }
    }

    /// Parses a k-mer from ASCII text.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid characters or unsupported lengths.
    pub fn from_ascii(text: &str) -> Result<Kmer, GenomeError> {
        let dna = DnaString::from_ascii(text)?;
        Kmer::from_dna(&dna, 0, dna.len())
    }

    /// The k-mer length in bases.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The raw packed representation. First base in the highest-order occupied bits.
    #[inline]
    pub fn packed(&self) -> u64 {
        self.packed
    }

    /// Returns the base at position `index` (0 = first / leftmost base).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.k()`.
    #[inline]
    pub fn base(&self, index: usize) -> Base {
        assert!(
            index < self.k(),
            "k-mer index {index} out of range (k={})",
            self.k
        );
        let shift = 2 * (self.k() - 1 - index);
        Base::from_code(((self.packed >> shift) & 0b11) as u8)
    }

    /// The first (leftmost) base.
    #[inline]
    pub fn first_base(&self) -> Base {
        self.base(0)
    }

    /// The last (rightmost) base.
    #[inline]
    pub fn last_base(&self) -> Base {
        self.base(self.k() - 1)
    }

    /// Returns the (k-1)-mer obtained by dropping the **last** base.
    ///
    /// For k-mer `GTTAC` this is `GTTA` — the MacroNode that receives suffix `C`
    /// in Fig. 3(b).
    ///
    /// # Panics
    ///
    /// Panics if `k == 1`.
    pub fn prefix_k1(&self) -> Kmer {
        assert!(self.k > 1, "cannot take (k-1)-mer of a 1-mer");
        Kmer {
            packed: self.packed >> 2,
            k: self.k - 1,
        }
    }

    /// Returns the (k-1)-mer obtained by dropping the **first** base.
    ///
    /// For k-mer `GTTAC` this is `TTAC` — the MacroNode that receives prefix `G`
    /// in Fig. 3(b).
    ///
    /// # Panics
    ///
    /// Panics if `k == 1`.
    pub fn suffix_k1(&self) -> Kmer {
        assert!(self.k > 1, "cannot take (k-1)-mer of a 1-mer");
        let mask = mask_for(self.k as usize - 1);
        Kmer {
            packed: self.packed & mask,
            k: self.k - 1,
        }
    }

    /// Appends `base` at the end, producing a (k+1)-mer.
    ///
    /// This is the "appending genome base pair sequences … implemented using shift and
    /// bitwise OR" operation the PE datapath performs (§4.2). Used to compute a
    /// succeeding neighbour's (k-1)-mer: `suffix_k1()` of the current node appended
    /// with one of its suffix extensions.
    ///
    /// # Panics
    ///
    /// Panics if the result would exceed [`MAX_K`] bases.
    pub fn append(&self, base: Base) -> Kmer {
        assert!(self.k() < MAX_K, "cannot extend a {MAX_K}-mer");
        Kmer {
            packed: (self.packed << 2) | base.code() as u64,
            k: self.k + 1,
        }
    }

    /// Prepends `base` at the front, producing a (k+1)-mer.
    ///
    /// Used to compute a preceding neighbour's (k-1)-mer: one of the current node's
    /// prefix extensions prepended to `prefix_k1()`.
    ///
    /// # Panics
    ///
    /// Panics if the result would exceed [`MAX_K`] bases.
    #[cfg(test)]
    pub(crate) fn prepend(&self, base: Base) -> Kmer {
        assert!(self.k() < MAX_K, "cannot extend a {MAX_K}-mer");
        Kmer {
            packed: ((base.code() as u64) << (2 * self.k())) | self.packed,
            k: self.k + 1,
        }
    }

    /// Slides the window right: drops the first base and appends `base`, keeping `k` fixed.
    pub fn roll(&self, base: Base) -> Kmer {
        let mask = mask_for(self.k as usize);
        Kmer {
            packed: ((self.packed << 2) | base.code() as u64) & mask,
            k: self.k,
        }
    }

    /// The reverse complement of this k-mer.
    pub fn reverse_complement(&self) -> Kmer {
        let mut packed = 0u64;
        for i in (0..self.k()).rev() {
            packed = (packed << 2) | self.base(i).complement().code() as u64;
        }
        Kmer { packed, k: self.k }
    }

    /// The canonical form: the lexicographically smaller of this k-mer and its reverse
    /// complement.
    pub fn canonical(&self) -> Kmer {
        let rc = self.reverse_complement();
        if rc < *self {
            rc
        } else {
            *self
        }
    }

    /// Converts to an owned [`DnaString`]: one 2-bit-group reversal from the
    /// first-base-highest word to the string's little-endian layout.
    #[inline]
    pub fn to_dna_string(&self) -> DnaString {
        DnaString::from_packed(self.packed, self.k())
    }

    /// Iterates over all k-mers of `dna` with a sliding window of size `k`.
    ///
    /// # Errors
    ///
    /// * [`GenomeError::InvalidK`] for unsupported `k`.
    /// * [`GenomeError::SequenceTooShort`] if `dna` is shorter than `k`.
    pub fn iter_windows(dna: &DnaString, k: usize) -> Result<KmerIter<'_>, GenomeError> {
        if k == 0 || k > MAX_K {
            return Err(GenomeError::InvalidK { k });
        }
        if dna.len() < k {
            return Err(GenomeError::SequenceTooShort {
                actual: dna.len(),
                required: k,
            });
        }
        Ok(KmerIter {
            dna,
            k,
            next_end: 0,
            current: None,
        })
    }
}

/// Mask of the low `k ≤ 32` two-bit groups of a packed word.
#[inline]
pub(crate) fn mask_for(k: usize) -> u64 {
    if k >= 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    }
}

impl PartialOrd for Kmer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Kmer {
    /// Lexicographic comparison under `A < C < T < G`; k-mers of different lengths are
    /// compared base-by-base with the shorter one ordered first on a tie.
    fn cmp(&self, other: &Self) -> Ordering {
        if self.k == other.k {
            return self.packed.cmp(&other.packed);
        }
        let min_k = self.k.min(other.k) as usize;
        for i in 0..min_k {
            match self.base(i).cmp(&other.base(i)) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        self.k.cmp(&other.k)
    }
}

impl fmt::Display for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base(i).to_char())?;
        }
        Ok(())
    }
}

impl fmt::Debug for Kmer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kmer(\"{self}\")")
    }
}

/// Sliding-window iterator over the k-mers of a [`DnaString`], produced by
/// [`Kmer::iter_windows`].
#[derive(Debug, Clone)]
pub struct KmerIter<'a> {
    dna: &'a DnaString,
    k: usize,
    /// Index one past the end of the next window to produce.
    next_end: usize,
    current: Option<Kmer>,
}

impl Iterator for KmerIter<'_> {
    type Item = Kmer;

    fn next(&mut self) -> Option<Kmer> {
        match self.current {
            None => {
                // First window.
                let first = Kmer::from_dna(self.dna, 0, self.k).ok()?;
                self.current = Some(first);
                self.next_end = self.k;
                Some(first)
            }
            Some(prev) => {
                if self.next_end >= self.dna.len() {
                    return None;
                }
                let rolled = prev.roll(self.dna.base(self.next_end));
                self.next_end += 1;
                self.current = Some(rolled);
                Some(rolled)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = self.dna.len() + 1 - self.k;
        let produced = if self.current.is_none() {
            0
        } else {
            self.next_end + 1 - self.k
        };
        let remaining = total - produced;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for KmerIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let k = Kmer::from_ascii("ACGTACGTACGTACGTACGTACGTACGTACGT").unwrap();
        assert_eq!(k.k(), 32);
        assert_eq!(k.to_string(), "ACGTACGTACGTACGTACGTACGTACGTACGT");
    }

    #[test]
    fn rejects_unsupported_k() {
        assert!(matches!(
            Kmer::from_ascii(""),
            Err(GenomeError::InvalidK { k: 0 })
        ));
        let too_long = "A".repeat(33);
        assert!(Kmer::from_ascii(&too_long).is_err());
    }

    #[test]
    fn prefix_and_suffix_k1_match_paper_example() {
        // Fig. 3(b): k-mer GTTAC splits into (k-1)-mers GTTA (keeps suffix C)
        // and TTAC (keeps prefix G).
        let k = Kmer::from_ascii("GTTAC").unwrap();
        assert_eq!(k.prefix_k1().to_string(), "GTTA");
        assert_eq!(k.suffix_k1().to_string(), "TTAC");
        assert_eq!(k.first_base(), Base::G);
        assert_eq!(k.last_base(), Base::C);
    }

    #[test]
    fn append_and_prepend_reconstruct_kmer() {
        let k = Kmer::from_ascii("GTTAC").unwrap();
        let reconstructed_from_prefix = k.prefix_k1().append(Base::C);
        let reconstructed_from_suffix = k.suffix_k1().prepend(Base::G);
        assert_eq!(reconstructed_from_prefix, k);
        assert_eq!(reconstructed_from_suffix, k);
    }

    #[test]
    fn roll_slides_the_window() {
        let dna: DnaString = "ACGTT".parse().unwrap();
        let first = Kmer::from_dna(&dna, 0, 4).unwrap();
        assert_eq!(first.to_string(), "ACGT");
        let second = first.roll(Base::T);
        assert_eq!(second.to_string(), "CGTT");
        assert_eq!(second, Kmer::from_dna(&dna, 1, 4).unwrap());
    }

    #[test]
    fn ordering_follows_paper_base_order() {
        // Fig. 4: A=0, C=1, T=2, G=3, so "AGTC" < "CAGT" < "TCAG" < "GTCA"? Let's use
        // exactly the paper's comparison: GTCA (3210) is the largest among
        // {AGTC=0321, CAGT=1032, TCAT=2102, TCAG=2103, GTCA=3210}.
        let gtca = Kmer::from_ascii("GTCA").unwrap();
        let others = ["AGTC", "CAGT", "TCAT", "TCAG"];
        for o in others {
            let other = Kmer::from_ascii(o).unwrap();
            assert!(gtca > other, "GTCA should be larger than {o}");
        }
    }

    #[test]
    fn ordering_across_lengths_is_prefix_based() {
        let a = Kmer::from_ascii("ACG").unwrap();
        let b = Kmer::from_ascii("ACGT").unwrap();
        assert!(a < b);
        let c = Kmer::from_ascii("AT").unwrap();
        assert!(c > b);
    }

    #[test]
    fn reverse_complement_and_canonical() {
        let k = Kmer::from_ascii("AACGT").unwrap();
        assert_eq!(k.reverse_complement().to_string(), "ACGTT");
        assert_eq!(k.reverse_complement().reverse_complement(), k);
        let canon = k.canonical();
        assert!(canon == k || canon == k.reverse_complement());
        assert!(canon <= k && canon <= k.reverse_complement());
    }

    #[test]
    fn window_iterator_produces_all_kmers() {
        let dna: DnaString = "ACGTACG".parse().unwrap();
        let kmers: Vec<String> = Kmer::iter_windows(&dna, 4)
            .unwrap()
            .map(|k| k.to_string())
            .collect();
        assert_eq!(kmers, vec!["ACGT", "CGTA", "GTAC", "TACG"]);
    }

    #[test]
    fn window_iterator_len_is_exact() {
        let dna: DnaString = "ACGTACGTAC".parse().unwrap();
        let iter = Kmer::iter_windows(&dna, 4).unwrap();
        assert_eq!(iter.len(), 7);
        assert_eq!(iter.count(), 7);
    }

    #[test]
    fn window_iterator_rejects_short_sequences() {
        let dna: DnaString = "ACG".parse().unwrap();
        assert!(Kmer::iter_windows(&dna, 4).is_err());
    }

    #[test]
    fn base_accessor_positions() {
        let k = Kmer::from_ascii("GATC").unwrap();
        assert_eq!(k.base(0), Base::G);
        assert_eq!(k.base(1), Base::A);
        assert_eq!(k.base(2), Base::T);
        assert_eq!(k.base(3), Base::C);
    }

    #[test]
    fn from_packed_round_trips() {
        for text in ["A", "GTTAC", "ACGTACGTACGTACGTACGTACGTACGTACGT"] {
            let k = Kmer::from_ascii(text).unwrap();
            assert_eq!(Kmer::from_packed(k.packed(), k.k()), k);
        }
    }

    #[test]
    fn from_packed_masks_unused_high_bits() {
        // Garbage above the 2k bits in use must not affect equality or ordering.
        let k = Kmer::from_ascii("GTTAC").unwrap();
        let noisy = Kmer::from_packed(k.packed() | (0xDEAD << (2 * k.k())), k.k());
        assert_eq!(noisy, k);
        assert_eq!(noisy.to_string(), "GTTAC");
    }

    #[test]
    fn from_bases_matches_from_ascii() {
        let text = "GGTTACCA";
        let via_ascii = Kmer::from_ascii(text).unwrap();
        let via_bases =
            Kmer::from_bases(text.chars().map(|c| Base::from_char(c).unwrap())).unwrap();
        assert_eq!(via_ascii, via_bases);
    }
}
