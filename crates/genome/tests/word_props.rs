//! Property tests for the word-parallel `DnaString` / `Kmer` primitives,
//! hand-rolled over a seeded xorshift generator (`proptest` is unavailable
//! offline). Every
//! primitive is compared with a per-base reference for all lengths 0..=130 and
//! all start offsets — across the inline/heap boundary at 64 bases and the
//! 32-base word boundary, with unaligned sources and destinations — and every
//! result must keep the zero-padding invariant that equality, hashing and the
//! OR-in appends rely on. The text codec (ASCII in and out, the reverse
//! complement, FASTA/FASTQ) is held to a per-base oracle the same way, for
//! all lengths 0..=300.

use nmp_pak_genome::fasta::{read_fasta, read_fastq, write_fasta, write_fastq, FastaRecord};
use nmp_pak_genome::{Base, DnaString, GenomeError, Kmer, SequencingRead};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::Cursor;

const MAX_LEN: usize = 130;

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

    fn bases(&mut self, len: usize) -> Vec<Base> {
        (0..len)
            .map(|_| Base::from_code((self.next() >> 33) as u8 & 0b11))
            .collect()
    }
}

/// The per-base reference construction: one `push` per base.
fn pushed(bases: &[Base]) -> DnaString {
    let mut s = DnaString::new();
    for &b in bases {
        s.push(b);
    }
    s
}

fn hash_of(s: &DnaString) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// `got` spells `want`, and is indistinguishable from the per-base build of
/// `want` under equality, hashing and further appends — which it would not be
/// with a stray bit in its padding.
fn assert_canonical(got: &DnaString, want: &[Base], what: &str) {
    let reference = pushed(want);
    assert_eq!(got.len(), want.len(), "{what}: length");
    assert_eq!(got.iter().collect::<Vec<_>>(), want, "{what}: bases");
    assert_eq!(got, &reference, "{what}: equality");
    assert_eq!(hash_of(got), hash_of(&reference), "{what}: hash");
    let (mut grown, mut grown_reference) = (got.clone(), reference);
    for b in [Base::A, Base::G, Base::C, Base::T, Base::A] {
        grown.push(b);
        grown_reference.push(b);
    }
    assert_eq!(grown, grown_reference, "{what}: padding was not zero");
}

#[test]
fn slice_equals_the_per_base_window_at_every_offset_and_length() {
    let mut rng = Rng::new(0x51_1CE);
    for total in 0..=MAX_LEN {
        let bases = rng.bases(total);
        let dna = pushed(&bases);
        // The whole string round-trips through ASCII, and its reverse
        // complement is the per-base one and an involution.
        let ascii: String = bases.iter().map(|b| b.to_char()).collect();
        assert_eq!(dna.to_ascii(), ascii);
        assert_eq!(DnaString::from_ascii(&ascii).unwrap(), dna);
        let rc: Vec<Base> = bases.iter().rev().map(|b| b.complement()).collect();
        assert_canonical(&dna.reverse_complement(), &rc, &format!("rc of {total}"));
        assert_eq!(dna.reverse_complement().reverse_complement(), dna);
        for start in 0..=total {
            for len in 0..=total - start {
                assert_canonical(
                    &dna.slice(start, len),
                    &bases[start..start + len],
                    &format!("slice({start}, {len}) of {total}"),
                );
            }
        }
    }
}

#[test]
fn extend_from_equals_per_base_pushes_at_every_destination_alignment() {
    let mut rng = Rng::new(0xE7_7E4D);
    for dst_len in 0..=MAX_LEN {
        let dst_bases = rng.bases(dst_len);
        for src_len in 0..=MAX_LEN {
            let src_bases = rng.bases(src_len);
            let mut grown = pushed(&dst_bases);
            grown.extend_from(&pushed(&src_bases));
            let want: Vec<Base> = dst_bases.iter().chain(&src_bases).copied().collect();
            assert_canonical(&grown, &want, &format!("{dst_len} + {src_len}"));
        }
    }
}

#[test]
fn extend_from_a_slice_of_a_heap_string_is_representation_independent() {
    // The source is a window of a heap string that itself fits inline, the
    // destination crosses the boundary: every mix of representations.
    let mut rng = Rng::new(0x5EED_0003);
    let long_bases = rng.bases(MAX_LEN);
    let long = pushed(&long_bases);
    for start in (0..MAX_LEN).step_by(7) {
        for len in [0, 1, 3, 31, 32, 33, 63, 64, 65] {
            if start + len > MAX_LEN {
                continue;
            }
            for dst_len in [0, 1, 5, 31, 32, 60, 63, 64, 65, 100] {
                let dst_bases = rng.bases(dst_len);
                let mut grown = pushed(&dst_bases);
                grown.extend_from(&long.slice(start, len));
                let want: Vec<Base> = dst_bases
                    .iter()
                    .chain(&long_bases[start..start + len])
                    .copied()
                    .collect();
                assert_canonical(&grown, &want, &format!("{dst_len} + long[{start}; {len}]"));
            }
        }
    }
}

#[test]
fn ends_with_equals_the_per_base_suffix_comparison() {
    let mut rng = Rng::new(0xE9D5);
    for total in 0..=MAX_LEN {
        let bases = rng.bases(total);
        let dna = pushed(&bases);
        for suffix_len in 0..=total {
            let mut suffix = bases[total - suffix_len..].to_vec();
            assert!(
                dna.ends_with(&pushed(&suffix)),
                "true suffix of {suffix_len} bases of {total}"
            );
            if suffix_len > 0 {
                // One substituted base anywhere breaks the match.
                let at = (rng.next() as usize) % suffix_len;
                suffix[at] = Base::from_code(suffix[at].code() ^ 0b01);
                assert!(
                    !dna.ends_with(&pushed(&suffix)),
                    "suffix of {suffix_len} of {total} with base {at} substituted"
                );
            }
        }
        // A longer string is never a suffix.
        let mut longer = bases.clone();
        longer.insert(0, Base::C);
        assert!(!dna.ends_with(&pushed(&longer)));
    }
}

/// The per-base packing fold (`Kmer` layout: first base most significant).
fn folded(bases: &[Base]) -> u64 {
    bases
        .iter()
        .fold(0u64, |acc, b| (acc << 2) | u64::from(b.code()))
}

#[test]
fn packed_window_and_from_packed_are_inverse_and_equal_the_per_base_fold() {
    let mut rng = Rng::new(0x9AC4ED);
    for total in 0..=MAX_LEN {
        let bases = rng.bases(total);
        let dna = pushed(&bases);
        for start in 0..=total {
            for len in 0..=(total - start).min(32) {
                let window = &bases[start..start + len];
                let packed = dna.packed_window(start, len);
                assert_eq!(
                    packed,
                    folded(window),
                    "packed_window({start}, {len}) of {total}"
                );
                // Garbage above the 2·len bits in use is ignored.
                let noisy = if len == 32 {
                    packed
                } else {
                    packed | (rng.next() << (2 * len))
                };
                assert_canonical(
                    &DnaString::from_packed(noisy, len),
                    window,
                    &format!("from_packed of window ({start}, {len}) of {total}"),
                );
            }
        }
    }
}

#[test]
fn kmer_conversions_equal_their_per_base_references() {
    let mut rng = Rng::new(0x4B_3E8);
    for total in 1..=MAX_LEN {
        let bases = rng.bases(total);
        let dna = pushed(&bases);
        for start in 0..total {
            for k in 1..=(total - start).min(32) {
                let window = &bases[start..start + k];
                let kmer = Kmer::from_dna(&dna, start, k).unwrap();
                assert_eq!(kmer, Kmer::from_bases(window.iter().copied()).unwrap());
                assert_eq!((0..k).map(|i| kmer.base(i)).collect::<Vec<_>>(), window);
                assert_eq!(Kmer::from_ascii(&kmer.to_string()).unwrap(), kmer);
                // The packed order is the per-base order (A < C < T < G, the
                // shorter first on a tie), here against a random 1..=32-mer.
                let other_k = 1 + (rng.next() % 32) as usize;
                let other = rng.bases(other_k);
                let other_kmer = Kmer::from_bases(other.iter().copied()).unwrap();
                assert_eq!(kmer.cmp(&other_kmer), window.cmp(&other[..]));
                assert_canonical(
                    &kmer.to_dna_string(),
                    window,
                    &format!("to_dna_string of the {k}-mer at {start} of {total}"),
                );
            }
        }
    }
}

/// Longest sequence the codec properties run to: past the 64-base inline
/// capacity and several 32-base words.
const CODEC_MAX_LEN: usize = 300;

/// The per-base oracle of the text codec: one `match` per character, as
/// FASTA and FASTQ spell bases.
fn oracle_base(c: char) -> Option<Base> {
    match c {
        'A' | 'a' => Some(Base::A),
        'C' | 'c' => Some(Base::C),
        'G' | 'g' => Some(Base::G),
        'T' | 't' => Some(Base::T),
        _ => None,
    }
}

/// The per-base oracle's spelling: uppercase, one character per base.
fn oracle_ascii(bases: &[Base]) -> String {
    bases
        .iter()
        .map(|b| match b {
            Base::A => 'A',
            Base::C => 'C',
            Base::G => 'G',
            Base::T => 'T',
        })
        .collect()
}

/// `bases` spelled in random case.
fn mixed_case(rng: &mut Rng, bases: &[Base]) -> String {
    oracle_ascii(bases)
        .chars()
        .map(|c| {
            if rng.next() & 1 == 0 {
                c
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

#[test]
fn codec_equals_the_per_base_oracle_at_every_length_in_mixed_case() {
    let mut rng = Rng::new(0xC0DEC);
    for total in 0..=CODEC_MAX_LEN {
        let bases = rng.bases(total);
        let text = mixed_case(&mut rng, &bases);
        let parsed: Vec<Base> = text.chars().map(|c| oracle_base(c).unwrap()).collect();
        assert_eq!(parsed, bases);
        let dna = DnaString::from_ascii(&text).unwrap();
        assert_canonical(&dna, &bases, &format!("from_ascii of {total}"));
        assert_canonical(
            &bases.iter().copied().collect(),
            &bases,
            &format!("collect of {total}"),
        );
        assert_eq!(dna.to_ascii(), oracle_ascii(&bases), "to_ascii of {total}");
        assert_eq!(dna.to_string(), oracle_ascii(&bases), "Display of {total}");
        let rc: Vec<Base> = bases.iter().rev().map(|b| b.complement()).collect();
        assert_canonical(&dna.reverse_complement(), &rc, &format!("rc of {total}"));
        // The same sequence heap-backed below the inline capacity.
        let mut heap_backed = DnaString::with_capacity(CODEC_MAX_LEN);
        heap_backed.extend_from(&dna);
        assert_canonical(
            &heap_backed.reverse_complement(),
            &rc,
            &format!("rc of heap-backed {total}"),
        );
    }
}

#[test]
fn an_invalid_byte_is_reported_as_written_at_its_byte_offset() {
    let mut rng = Rng::new(0xBAD_BA5E);
    let invalid = [
        'N',
        'n',
        'x',
        'U',
        '-',
        ' ',
        '\n',
        '\0',
        '~',
        'é',
        '\u{1F9EC}',
    ];
    for total in 1..=CODEC_MAX_LEN {
        let bases = rng.bases(total);
        let text = mixed_case(&mut rng, &bases);
        for position in 0..total {
            let bad = invalid[(rng.next() % invalid.len() as u64) as usize];
            // Bases after the bad one may be invalid too: the first is reported.
            let tail = if rng.next() & 1 == 0 { "" } else { "N" };
            let corrupted = format!("{}{bad}{}{tail}", &text[..position], &text[position + 1..]);
            assert_eq!(
                DnaString::from_ascii(&corrupted),
                Err(GenomeError::InvalidBase {
                    character: bad,
                    position: Some(position),
                }),
                "{bad:?} at {position} of {total}"
            );
        }
    }
}

/// Every line ending of `text` made CRLF, and a blank line before every line
/// that starts a record.
fn crlf_with_blank_lines(text: &[u8], starts_record: impl Fn(usize, &str) -> bool) -> String {
    let text = String::from_utf8(text.to_vec()).unwrap();
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        if starts_record(i, line) {
            out.push_str("\r\n");
        }
        out.push_str(line);
        out.push_str("\r\n");
    }
    out
}

#[test]
fn fastq_round_trips_with_crlf_and_blank_lines() {
    let mut rng = Rng::new(0x000F_A570);
    let reads: Vec<SequencingRead> = (0..=CODEC_MAX_LEN)
        .map(|len| {
            let sequence = pushed(&rng.bases(len));
            let qualities = (0..len).map(|_| (rng.next() % 94) as u8).collect();
            SequencingRead::with_qualities(format!("read_{len}"), sequence, qualities)
        })
        .collect();
    let mut text = Vec::new();
    write_fastq(&mut text, &reads).unwrap();
    for input in [
        String::from_utf8(text.clone()).unwrap(),
        crlf_with_blank_lines(&text, |i, _| i % 4 == 0),
    ] {
        let parsed = read_fastq(Cursor::new(input)).unwrap();
        assert_eq!(parsed, reads);
    }
}

#[test]
fn fasta_round_trips_with_crlf_and_blank_lines_at_every_width() {
    let mut rng = Rng::new(0x000F_A57A);
    let records: Vec<FastaRecord> = (0..=CODEC_MAX_LEN)
        .map(|len| FastaRecord {
            name: format!("contig_{len} length={len}"),
            sequence: pushed(&rng.bases(len)),
        })
        .collect();
    for width in [1, 3, 4, 31, 32, 33, 64, 65, 80, CODEC_MAX_LEN + 1] {
        let mut text = Vec::new();
        write_fasta(&mut text, &records, width).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&text).unwrap().lines().collect();
        assert!(lines
            .iter()
            .all(|line| line.starts_with('>') || (1..=width).contains(&line.len())));
        for input in [
            String::from_utf8(text.clone()).unwrap(),
            crlf_with_blank_lines(&text, |_, line| line.starts_with('>')),
        ] {
            let parsed = read_fasta(Cursor::new(input)).unwrap();
            assert_eq!(parsed, records, "width {width}");
        }
    }
}
