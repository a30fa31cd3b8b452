//! Property-based tests over the core data structures and invariants.
//!
//! Not compiled offline (`proptest` is unavailable; see the root `Cargo.toml`).
//! Properties are ported one by one to the seeded xorshift harness: k-mer
//! window extraction and count conservation now live in
//! `crates/pakman/tests/count_props.rs`.

use nmp_pak::genome::{DnaString, Kmer, SequencingRead};
use nmp_pak::memsim::{AddressMapping, DramConfig, NodeLayout};
use nmp_pak::pakman::contig::n50;
use nmp_pak::pakman::graph::PakGraph;
use nmp_pak::pakman::kmer_count::{count_kmers, KmerCounterConfig};
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

    /// MacroNode construction preserves k-mer flow: every counted k-mer contributes at
    /// least its multiplicity to both sides of the graph, each node with flow on both
    /// sides is internally balanced, and every (k-1)-mer of the read appears as a node.
    #[test]
    fn pakgraph_conserves_kmer_flow(text in dna_string_strategy(150)) {
        prop_assume!(text.len() >= 8);
        let reads = vec![SequencingRead::new("r", text.parse().unwrap())];
        let k = 6;
        let (counted, _) = count_kmers(&reads, KmerCounterConfig { k, min_count: 1, threads: 1 }).unwrap();
        let total: u64 = counted.iter().map(|c| c.count as u64).sum();
        let graph = PakGraph::from_counted_kmers(&counted, k, 1);
        let prefix_flow: u64 = graph.iter_alive().map(|(_, n)| n.incoming_count() as u64).sum();
        let suffix_flow: u64 = graph.iter_alive().map(|(_, n)| n.outgoing_count() as u64).sum();
        // Read-boundary imbalance is wired through, so per-side flow can only grow.
        prop_assert!(prefix_flow >= total.saturating_sub(counted.len() as u64));
        prop_assert!(suffix_flow >= total.saturating_sub(counted.len() as u64));
        for (_, node) in graph.iter_alive() {
            if node.incoming_count() > 0 && node.outgoing_count() > 0 {
                prop_assert_eq!(node.incoming_count(), node.outgoing_count());
            }
        }
        // Every k-mer's prefix and suffix (k-1)-mers exist as nodes.
        for ck in &counted {
            prop_assert!(graph.contains(&ck.kmer.prefix_k1()));
            prop_assert!(graph.contains(&ck.kmer.suffix_k1()));
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

    /// Address decomposition stays within the configured geometry and is stable.
    #[test]
    fn address_mapping_is_in_bounds(addr in 0u64..(1 << 40)) {
        let config = DramConfig::default();
        let mapping = AddressMapping::new(config, 1 << 32);
        let loc = mapping.locate(addr);
        prop_assert!(loc.channel < config.channels);
        prop_assert!(loc.rank < config.ranks_per_channel);
        prop_assert!(loc.bank < config.banks_per_rank);
        prop_assert!((loc.column as usize) < config.row_buffer_bytes / config.line_bytes);
        prop_assert_eq!(mapping.flat_bank(loc), mapping.flat_bank(mapping.locate(addr)));
    }

    /// The MacroNode layout never overlaps allocations within a DIMM and assigns
    /// every slot to a valid DIMM.
    #[test]
    fn node_layout_is_disjoint(sizes in proptest::collection::vec(1usize..4096, 1..120)) {
        let config = DramConfig::default();
        let layout = NodeLayout::new(&sizes, &config);
        for slot in 0..sizes.len() {
            prop_assert!(layout.dimm_of(slot) < config.channels);
            prop_assert!(layout.allocated_size(slot) >= sizes[slot]);
        }
        let mut per_dimm: std::collections::HashMap<usize, Vec<(u64, u64)>> = std::collections::HashMap::new();
        for slot in 0..sizes.len() {
            let start = layout.address_of(slot);
            per_dimm
                .entry(layout.dimm_of(slot))
                .or_default()
                .push((start, start + layout.allocated_size(slot) as u64));
        }
        for ranges in per_dimm.values_mut() {
            ranges.sort();
            for pair in ranges.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0, "overlapping allocations");
            }
        }
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
