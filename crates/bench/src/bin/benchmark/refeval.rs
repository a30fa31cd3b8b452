//! Reference-anchored assembly quality: contigs are judged against the genome
//! the reads were sampled from, not against another run of the assembler.
//!
//! Runs outside every timed region (≈ 0.15 s at 400 kbp).

use nmp_pak_genome::{DnaString, Kmer};
use nmp_pak_pakman::contig::n50;

/// k-mer length the evaluator compares at (the workloads' assembly `k`).
pub const EVAL_K: usize = 21;

/// Quality of a contig set against its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Share of the reference's distinct canonical k-mers present in the contigs.
    pub ref_kmer_recall: f64,
    /// Contig bases over reference bases (1 = every base assembled once).
    pub duplication_ratio: f64,
    /// N50 of the contig lengths.
    pub n50: usize,
}

/// The distinct canonical (strand-independent) packed k-mers of `sequences`,
/// sorted ascending. Sequences shorter than `k` contribute nothing.
pub fn canonical_kmers<'a>(
    sequences: impl IntoIterator<Item = &'a DnaString>,
    k: usize,
) -> Vec<u64> {
    let mut kmers = Vec::new();
    for sequence in sequences {
        if let Ok(windows) = Kmer::iter_windows(sequence, k) {
            kmers.extend(windows.map(|kmer| kmer.canonical().packed()));
        }
    }
    kmers.sort_unstable();
    kmers.dedup();
    kmers
}

/// How many values of sorted, deduplicated `needles` occur in sorted,
/// deduplicated `haystack`.
fn count_present(needles: &[u64], haystack: &[u64]) -> usize {
    let mut hay = haystack.iter().peekable();
    needles
        .iter()
        .filter(|&&needle| {
            while hay.next_if(|&&h| h < needle).is_some() {}
            hay.peek() == Some(&&needle)
        })
        .count()
}

/// Evaluates `contigs` against `references` (the genomes the reads came from,
/// pooled) at k-mer length `k`.
pub fn evaluate(references: &[DnaString], contigs: &[&DnaString], k: usize) -> Quality {
    let reference_kmers = canonical_kmers(references, k);
    let reference_bases: usize = references.iter().map(DnaString::len).sum();
    let contig_kmers = canonical_kmers(contigs.iter().copied(), k);
    let lengths: Vec<usize> = contigs.iter().map(|c| c.len()).collect();
    let contig_bases: usize = lengths.iter().sum();
    Quality {
        ref_kmer_recall: if reference_kmers.is_empty() {
            0.0
        } else {
            count_present(&reference_kmers, &contig_kmers) as f64 / reference_kmers.len() as f64
        },
        duplication_ratio: if reference_bases == 0 {
            0.0
        } else {
            contig_bases as f64 / reference_bases as f64
        },
        n50: n50(&lengths),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_genome::ReferenceGenome;

    /// A repeat-free 2 kbp toy genome: every 21-mer is distinct.
    fn toy() -> DnaString {
        ReferenceGenome::builder()
            .length(2_000)
            .no_repeats()
            .seed(17)
            .build()
            .expect("toy genome builds")
            .sequence()
            .clone()
    }

    #[test]
    fn perfect_contig_has_recall_one_and_duplication_one() {
        let genome = toy();
        let q = evaluate(std::slice::from_ref(&genome), &[&genome], EVAL_K);
        assert_eq!(q.ref_kmer_recall, 1.0);
        assert_eq!(q.duplication_ratio, 1.0);
        assert_eq!(q.n50, 2_000);
    }

    #[test]
    fn doubled_contig_doubles_duplication_only() {
        let genome = toy();
        let q = evaluate(std::slice::from_ref(&genome), &[&genome, &genome], EVAL_K);
        assert_eq!(q.ref_kmer_recall, 1.0);
        assert_eq!(q.duplication_ratio, 2.0);
        assert_eq!(q.n50, 2_000);
    }

    #[test]
    fn half_contig_recalls_about_half() {
        let genome = toy();
        let half = genome.slice(0, 1_000);
        let q = evaluate(std::slice::from_ref(&genome), &[&half], EVAL_K);
        // 980 of the 1980 reference 21-mers lie inside the first 1000 bases.
        assert!((q.ref_kmer_recall - 980.0 / 1980.0).abs() < 1e-12);
        assert_eq!(q.duplication_ratio, 0.5);
        assert_eq!(q.n50, 1_000);
    }

    #[test]
    fn reverse_complement_contig_counts_as_present() {
        let genome = toy();
        let q = evaluate(
            std::slice::from_ref(&genome),
            &[&genome.reverse_complement()],
            EVAL_K,
        );
        assert_eq!(q.ref_kmer_recall, 1.0);
        assert_eq!(q.duplication_ratio, 1.0);
    }

    #[test]
    fn several_references_are_pooled() {
        let first = toy();
        let second = first.slice(0, 1_000).reverse_complement();
        // The second reference adds bases but no new canonical 21-mers.
        let q = evaluate(&[first.clone(), second], &[&first], EVAL_K);
        assert_eq!(q.ref_kmer_recall, 1.0);
        assert_eq!(q.duplication_ratio, 2_000.0 / 3_000.0);
    }

    #[test]
    fn foreign_and_short_contigs_recall_nothing() {
        let genome = toy();
        let other = ReferenceGenome::builder()
            .length(500)
            .no_repeats()
            .seed(99)
            .build()
            .expect("toy genome builds")
            .sequence()
            .clone();
        let short = genome.slice(0, EVAL_K - 1);
        let q = evaluate(std::slice::from_ref(&genome), &[&other, &short], EVAL_K);
        assert_eq!(q.ref_kmer_recall, 0.0);
        assert_eq!(q.n50, 500);
        assert_eq!(
            evaluate(std::slice::from_ref(&genome), &[], EVAL_K).ref_kmer_recall,
            0.0
        );
    }
}
