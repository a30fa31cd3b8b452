//! Property-based tests over the core data structures and invariants.
//!
//! Not compiled offline (`proptest` is unavailable; see the root `Cargo.toml`).
//! Properties are ported one by one to the seeded xorshift harness: k-mer
//! window extraction and count conservation now live in
//! `crates/pakman/tests/count_props.rs`, `address_mapping_is_in_bounds` and
//! `node_layout_is_disjoint` in `crates/memsim/tests/layout_props.rs`, and
//! `pakgraph_conserves_kmer_flow` in `crates/pakman/src/graph.rs`'s unit tests
//! (`pakgraph_conserves_kmer_flow_and_splits_across_owner_shards`).

use nmp_pak::genome::{DnaString, Kmer};
use nmp_pak::pakman::contig::n50;
use nmp_pak::pakman::transfer::{TransferNode, TransferSide};
use proptest::prelude::*;

fn dna_string_strategy(max_len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'T']), 1..max_len)
        .prop_map(|v| v.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DnaString packs and unpacks losslessly.
    #[test]
    fn dna_ascii_round_trip(text in dna_string_strategy(200)) {
        let dna = DnaString::from_ascii(&text).unwrap();
        prop_assert_eq!(dna.to_ascii(), text);
    }

    /// Reverse complement is an involution and preserves length.
    #[test]
    fn reverse_complement_involution(text in dna_string_strategy(200)) {
        let dna = DnaString::from_ascii(&text).unwrap();
        let rc = dna.reverse_complement();
        prop_assert_eq!(rc.len(), dna.len());
        prop_assert_eq!(rc.reverse_complement(), dna);
    }

    /// Packed k-mers round-trip through their string form, and numeric comparison of
    /// equal-length k-mers matches lexicographic comparison under A<C<T<G.
    #[test]
    fn kmer_pack_order_consistency(a in dna_string_strategy(32), b in dna_string_strategy(32)) {
        let ka = Kmer::from_ascii(&a).unwrap();
        prop_assert_eq!(ka.to_string(), a.clone());
        if a.len() == b.len() {
            let kb = Kmer::from_ascii(&b).unwrap();
            let by_string = a.chars().map(code).collect::<Vec<_>>().cmp(&b.chars().map(code).collect::<Vec<_>>());
            prop_assert_eq!(ka.cmp(&kb), by_string);
        }
    }

    /// TransferNode extraction preserves the spelled sequence: for every interior
    /// path, the predecessor-side and successor-side transfers describe the same
    /// string `prefix + (k-1)-mer + suffix`.
    #[test]
    fn transfer_nodes_preserve_spelling(k1 in dna_string_strategy(12), p in dna_string_strategy(6), s in dna_string_strategy(6)) {
        prop_assume!(k1.len() >= 2 && k1.len() <= 31);
        let mut node = nmp_pak::pakman::MacroNode::new(Kmer::from_ascii(&k1).unwrap());
        node.push_path(nmp_pak::pakman::ThroughPath::through(
            p.parse().unwrap(),
            s.parse().unwrap(),
            3,
        ));
        let spelled = format!("{p}{k1}{s}");
        for t in TransferNode::extract_all(&node) {
            let reconstructed = match t.side {
                TransferSide::Predecessor => format!("{}{}", t.destination, t.new_ext),
                TransferSide::Successor => format!("{}{}", t.new_ext, t.destination),
            };
            prop_assert_eq!(reconstructed, spelled.clone());
            prop_assert_eq!(t.count, 3);
        }
    }

    /// N50 is invariant under permutation, bounded by the maximum length, and at
    /// least as large as the median-covering length property requires.
    #[test]
    fn n50_properties(mut lengths in proptest::collection::vec(1usize..10_000, 1..50)) {
        let value = n50(&lengths);
        let max = *lengths.iter().max().unwrap();
        prop_assert!(value <= max);
        prop_assert!(lengths.contains(&value));
        // Permutation invariance.
        lengths.reverse();
        prop_assert_eq!(n50(&lengths), value);
        // Contigs of length >= N50 cover at least half of the assembly.
        let total: usize = lengths.iter().sum();
        let covered: usize = lengths.iter().filter(|&&l| l >= value).sum();
        prop_assert!(covered * 2 >= total);
    }
}

fn code(c: char) -> u8 {
    match c {
        'A' => 0,
        'C' => 1,
        'T' => 2,
        _ => 3,
    }
}
