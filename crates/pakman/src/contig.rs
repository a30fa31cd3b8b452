//! Contigs and assembly-quality metrics.

use nmp_pak_genome::DnaString;

/// A contig: one contiguous stretch of assembled genome (Fig. 1, step 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contig {
    /// The assembled sequence.
    pub sequence: DnaString,
}

impl Contig {
    /// Creates a contig from a sequence.
    pub fn new(sequence: DnaString) -> Self {
        Contig { sequence }
    }

    /// Contig length in bases.
    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    /// Returns `true` if the contig is empty.
    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// Assembly-quality statistics over a set of contigs.
///
/// N50 is the paper's quality metric (§4.4, Table 1): the length of the smallest
/// contig such that contigs of that length or longer cover at least half of the total
/// assembly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssemblyStats {
    /// Number of contigs.
    pub contig_count: usize,
    /// Sum of contig lengths in bases.
    pub total_length: usize,
    /// The N50 metric.
    pub n50: usize,
    /// Length of the largest contig.
    pub largest_contig: usize,
}

impl AssemblyStats {
    /// Computes statistics for a set of contigs.
    pub(crate) fn from_contigs(contigs: &[Contig]) -> Self {
        let lengths: Vec<usize> = contigs.iter().map(Contig::len).collect();
        Self::from_lengths(&lengths)
    }

    /// Computes statistics directly from contig lengths.
    pub(crate) fn from_lengths(lengths: &[usize]) -> Self {
        let total_length: usize = lengths.iter().sum();
        let contig_count = lengths.len();
        AssemblyStats {
            contig_count,
            total_length,
            n50: n50(lengths),
            largest_contig: lengths.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Computes the N50 of a set of contig lengths.
///
/// Returns 0 for an empty set.
pub fn n50(lengths: &[usize]) -> usize {
    if lengths.is_empty() {
        return 0;
    }
    let total: usize = lengths.iter().sum();
    let mut sorted: Vec<usize> = lengths.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let half = total.div_ceil(2);
    let mut cumulative = 0usize;
    for len in sorted {
        cumulative += len;
        if cumulative >= half {
            return len;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n50_of_known_sets() {
        // Classic example: lengths 80, 70, 50, 40, 30, 20 (total 290, half 145):
        // 80 + 70 = 150 ≥ 145 → N50 = 70.
        assert_eq!(n50(&[80, 70, 50, 40, 30, 20]), 70);
        assert_eq!(n50(&[100]), 100);
        assert_eq!(n50(&[]), 0);
        // Equal lengths: N50 equals that length.
        assert_eq!(n50(&[50, 50, 50, 50]), 50);
    }

    #[test]
    fn n50_is_order_independent() {
        let a = [10, 500, 20, 300, 40];
        let mut b = a;
        b.reverse();
        assert_eq!(n50(&a), n50(&b));

        // 64 random sets of 1..=49 lengths in 1..10 000: N50 is one of the
        // lengths, survives reversal, and the contigs at least that long hold
        // half the bases. xorshift64*, the generator of `tests/count_props.rs`.
        let mut state = 0x0005_0E50_u64;
        let mut below = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize) % bound
        };
        for _ in 0..64 {
            let mut lengths: Vec<usize> = (0..1 + below(49)).map(|_| 1 + below(9_999)).collect();
            let value = n50(&lengths);
            assert!(lengths.contains(&value));
            lengths.reverse();
            assert_eq!(n50(&lengths), value);
            let total: usize = lengths.iter().sum();
            let covered: usize = lengths.iter().filter(|&&l| l >= value).sum();
            assert!(covered * 2 >= total, "{lengths:?}");
        }
    }

    #[test]
    fn fragmentation_lowers_n50() {
        // One long contig versus the same bases split into many pieces.
        let whole = [10_000usize];
        let fragmented = [1_000usize; 10];
        assert!(n50(&whole) > n50(&fragmented));
        assert_eq!(
            whole.iter().sum::<usize>(),
            fragmented.iter().sum::<usize>()
        );
    }

    #[test]
    fn stats_from_contigs() {
        let contigs = vec![
            Contig::new("ACGTACGTAC".parse().unwrap()),
            Contig::new("ACGT".parse().unwrap()),
            Contig::new("AC".parse().unwrap()),
        ];
        let stats = AssemblyStats::from_contigs(&contigs);
        assert_eq!(stats.contig_count, 3);
        assert_eq!(stats.total_length, 16);
        assert_eq!(stats.largest_contig, 10);
        assert_eq!(stats.n50, 10);
    }

    #[test]
    fn empty_stats_are_zeroed() {
        let stats = AssemblyStats::from_contigs(&[]);
        assert_eq!(stats, AssemblyStats::default());
    }

    #[test]
    fn contig_basics() {
        let c = Contig::new("ACGT".parse().unwrap());
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }
}
