//! Property tests for the one k-mer counter, on the seeded xorshift harness of
//! `genome/tests/word_props.rs` (`proptest` is unavailable offline). Random
//! read sets — lengths 0..=150, so some reads are shorter than k, with
//! duplicated reads — are counted at every k in 2..=32 and `min_count` in
//! 1..=3, across threads × memory bound, and every run must
//! equal a naive `BTreeMap` count built from direct per-position k-mer
//! construction: the same stream, the same statistics, and (at `min_count = 1`)
//! every extracted window accounted for.

use nmp_pak_genome::{DnaString, Kmer, SequencingRead};
use nmp_pak_pakman::kmer_count::{KmerCountStats, KmerCounterConfig};
use nmp_pak_pakman::{count_kmers, count_kmers_spilled, CountedKmer, PakmanError, SpillConfig};
use std::collections::BTreeMap;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        ((self.next() >> 33) as usize) % bound
    }

    /// 1..=40 reads of 0..=150 bases; about one in five repeats an earlier read.
    fn reads(&mut self) -> Vec<SequencingRead> {
        let mut sequences: Vec<DnaString> = Vec::new();
        for _ in 0..1 + self.below(40) {
            if !sequences.is_empty() && self.below(5) == 0 {
                sequences.push(sequences[self.below(sequences.len())].clone());
                continue;
            }
            let mut dna = DnaString::new();
            for _ in 0..self.below(151) {
                dna.push_code((self.next() >> 33) as u8 & 0b11);
            }
            sequences.push(dna);
        }
        sequences
            .into_iter()
            .enumerate()
            .map(|(i, dna)| SequencingRead::new(format!("r{i}"), dna))
            .collect()
    }
}

/// The reference: one `Kmer::from_dna` per window position into an ordered map,
/// pruned at the end. Returns the surviving `(packed, count)` stream and the
/// statistics the counter must report.
fn naive_count(
    reads: &[SequencingRead],
    k: usize,
    min_count: u32,
) -> (Vec<(u64, u32)>, KmerCountStats) {
    let mut map: BTreeMap<u64, u32> = BTreeMap::new();
    let mut stats = KmerCountStats::default();
    for read in reads {
        if read.len() < k {
            stats.skipped_reads += 1;
            continue;
        }
        for start in 0..=read.len() - k {
            let kmer = Kmer::from_dna(read.sequence(), start, k).unwrap();
            *map.entry(kmer.packed()).or_default() += 1;
            stats.total_kmers += 1;
        }
    }
    stats.distinct_kmers = map.len();
    let kept: Vec<(u64, u32)> = map.into_iter().filter(|&(_, c)| c >= min_count).collect();
    stats.pruned_kmers = stats.distinct_kmers - kept.len();
    (kept, stats)
}

#[test]
fn every_bound_thread_count_and_partitioning_equals_the_naive_count() {
    let mut rng = Rng::new(0xC0_0417);
    // Two passes over k = 2..=32, so every k meets two read sets.
    for case in 0..62usize {
        let reads = rng.reads();
        let k = 2 + case % 31;
        let min_count = 1 + rng.below(3) as u32;
        let (want, want_stats) = naive_count(&reads, k, min_count);
        let windows: usize = reads.iter().map(|r| r.len().saturating_sub(k - 1)).sum();
        assert_eq!(want_stats.total_kmers, windows as u64);
        let input_bytes = want_stats.total_kmers * 8;
        let what = format!("case {case}: {} reads, k = {k}", reads.len());

        let check = |got: Result<(Vec<CountedKmer>, KmerCountStats), PakmanError>, how: &str| {
            if want_stats.total_kmers == 0 {
                let err = got.expect_err("no read holds a k-mer");
                assert!(
                    matches!(err, PakmanError::EmptyInput { .. }),
                    "{what} {how}"
                );
                return;
            }
            let (counted, stats) = got.unwrap_or_else(|e| panic!("{what} {how}: {e}"));
            let stream: Vec<(u64, u32)> =
                counted.iter().map(|c| (c.kmer.packed(), c.count)).collect();
            assert_eq!(stream, want, "{what} {how}: counted stream");
            assert!(counted.iter().all(|c| c.kmer.k() == k), "{what} {how}: k");
            assert_eq!(stats, want_stats, "{what} {how}: statistics");
            if min_count == 1 {
                let sum: u64 = counted.iter().map(|c| u64::from(c.count)).sum();
                assert_eq!(sum, stats.total_kmers, "{what} {how}: Σ count");
            }
        };

        for threads in [1, 2, 3, 8] {
            let config = KmerCounterConfig {
                k,
                min_count,
                threads,
            };
            check(count_kmers(&reads, config), &format!("t{threads} no bound"));
            // One read a wave; a few reads a wave; overflowing once or twice;
            // never overflowing.
            for bound in [64, 1024, input_bytes / 2 + 8, input_bytes + 64] {
                let spill = SpillConfig::bounded(bound);
                let got = count_kmers_spilled(&reads, config, &spill);
                if let Ok((_, _, telemetry)) = &got {
                    assert_eq!(
                        telemetry.bytes_spilled > 0,
                        input_bytes > bound,
                        "{what}: a run spills exactly when its input overflows {bound} B"
                    );
                }
                check(
                    got.map(|(counted, stats, _)| (counted, stats)),
                    &format!("t{threads} {bound} B"),
                );
            }
        }
    }
}

#[test]
fn the_count_table_at_its_edges_equals_the_naive_count() {
    // 1 200 random reads and 150 poly-A plus 150 poly-G reads of 150 bases:
    // ≈ 200 k windows, so ≥ 4 value-range buckets, and two extraction chunks
    // from `threads = 2` on. Poly-A and poly-G are the k-mer values 0 and
    // 4^k − 1 (`u64::MAX` at k = 32), in the first and the last bucket, each
    // with a multiplicity (≥ 17 850) above its bucket table's first size
    // (16 Ki slots). At k ≥ 21 the random k-mers are almost all distinct, so
    // every table grows.
    let mut rng = Rng::new(0x7AB1E);
    let mut reads = Vec::new();
    for i in 0..1_500usize {
        let mut dna = DnaString::new();
        for _ in 0..150 {
            let code = match i {
                0..1_200 => (rng.next() >> 33) as u8 & 0b11,
                1_200..1_350 => 0b00,
                _ => 0b11,
            };
            dna.push_code(code);
        }
        reads.push(SequencingRead::new(format!("r{i}"), dna));
    }
    for k in [2, 21, 32] {
        let (want, want_stats) = naive_count(&reads, k, 2);
        let all_ones = u64::MAX >> (64 - 2 * k);
        assert_eq!(want.first().map(|&(v, _)| v), Some(0), "k = {k}: poly-A");
        assert_eq!(
            want.last().map(|&(v, _)| v),
            Some(all_ones),
            "k = {k}: poly-G"
        );
        let input_bytes = want_stats.total_kmers * 8;
        for threads in [1, 2, 8] {
            let config = KmerCounterConfig {
                k,
                min_count: 2,
                threads,
            };
            let what = format!("k = {k}, threads = {threads}");
            let (counted, stats) = count_kmers(&reads, config).unwrap();
            let stream: Vec<(u64, u32)> =
                counted.iter().map(|c| (c.kmer.packed(), c.count)).collect();
            assert_eq!(stream, want, "{what}: counted stream");
            assert_eq!(stats, want_stats, "{what}: statistics");
            let spill = SpillConfig::bounded(input_bytes / 4);
            let (spilled, stats, telemetry) = count_kmers_spilled(&reads, config, &spill).unwrap();
            assert!(telemetry.bytes_spilled > 0, "{what}: {telemetry:?}");
            assert_eq!(spilled, counted, "{what}: spilled stream");
            assert_eq!(stats, want_stats, "{what}: spilled statistics");
        }
    }
}
