//! TransferNodes: the messages that carry an invalidated MacroNode's sequence content
//! to its neighbours during Iterative Compaction (Fig. 4 (c)–(d)).

use crate::extension::Extension;
use crate::macronode::{MacroNode, ThroughPath};
use nmp_pak_genome::Kmer;

/// Which side of the destination MacroNode a TransferNode updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferSide {
    /// The destination precedes the invalidated node; its matching **suffix**
    /// extension is extended forward (Fig. 4 (d): `new_ext = pred_ext + suffix`).
    Predecessor,
    /// The destination succeeds the invalidated node; its matching **prefix**
    /// extension is extended backward (`new_ext = prefix + succ_ext`).
    Successor,
}

/// A TransferNode extracted from an invalidated MacroNode.
///
/// Extraction for a through-path `(prefix e, suffix f, count c)` of invalidated node
/// `X` produces two TransferNodes:
///
/// * to the **predecessor** `P` (first k-1 bases of `e + X.k1mer`): locate the suffix
///   `s` with `P.k1mer + s == e + X.k1mer` and replace it with `s + f`;
/// * to the **successor** `S` (last k-1 bases of `X.k1mer + f`): locate the prefix `p`
///   with `p + S.k1mer == X.k1mer + f` and replace it with `e + p`.
///
/// Both updates preserve the spelled sequence of the path `P → X → S`, so compaction
/// never loses assembled bases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferNode {
    /// (k-1)-mer of the MacroNode to update.
    pub destination: Kmer,
    /// Which side of the destination is updated.
    pub side: TransferSide,
    /// The existing extension at the destination to locate (`pred_ext` in Fig. 4).
    pub match_ext: Extension,
    /// The replacement extension (`new_ext` in Fig. 4).
    pub new_ext: Extension,
    /// Flow count carried by this transfer.
    pub count: u32,
}

impl TransferNode {
    /// Wire size of this TransferNode in bytes, as PaKman sends it (Fig. 11)
    /// and the hardware model routes it through the crossbar / network bridge:
    /// a 24-byte header and both extensions packed four bases a byte.
    ///
    /// This models the message on the wire, not this struct (whose extensions
    /// are inline words up to 32 bases, and which names no source): the trace,
    /// the shard ledger's lane bytes and Fig. 12's traffic are read off it.
    pub fn size_bytes(&self) -> usize {
        // destination + source (8 B each), side + count (8 B), packed extensions.
        24 + self.match_ext.len().div_ceil(4) + self.new_ext.len().div_ceil(4)
    }

    /// The TransferNodes of every interior path of `node` (pipeline stage P2),
    /// in path order, predecessor before successor — the one extractor:
    /// compaction's streamed pass applies them one at a time.
    ///
    /// Paths with terminal flow produce no transfers; callers should only invalidate
    /// fully interior nodes (see [`MacroNode::is_fully_interior`]).
    pub fn extract_all(node: &MacroNode) -> impl Iterator<Item = TransferNode> + '_ {
        let pairs = node.paths().iter();
        let pairs = pairs.filter_map(|path| TransferNode::extract_pair(node, path));
        pairs.flat_map(|(pred, succ)| [pred, succ])
    }

    /// Extracts the (predecessor, successor) pair for one interior path.
    /// Terminal paths yield `None`.
    ///
    /// Everything is computed on the packed words: the destinations by
    /// [`MacroNode::predecessor_k1mer`] / [`MacroNode::successor_k1mer`], the
    /// extensions to match by [`MacroNode::predecessor_suffix`] /
    /// [`MacroNode::successor_prefix`], the replacements by one
    /// [`Extension::concat`] each — a shift and an OR while they fit a word.
    /// The edge `prefix + k1mer + suffix` is never spelled out.
    #[inline]
    pub fn extract_pair(
        node: &MacroNode,
        path: &ThroughPath,
    ) -> Option<(TransferNode, TransferNode)> {
        let (Some(prefix), Some(suffix)) = (&path.prefix, &path.suffix) else {
            return None;
        };
        let pred_match = node.predecessor_suffix(prefix);
        let pred_new = pred_match.concat(suffix);
        let succ_match = node.successor_prefix(suffix);
        let succ_new = prefix.concat(&succ_match);

        Some((
            TransferNode {
                destination: node.predecessor_k1mer(prefix),
                side: TransferSide::Predecessor,
                match_ext: pred_match,
                new_ext: pred_new,
                count: path.count,
            },
            TransferNode {
                destination: node.successor_k1mer(suffix),
                side: TransferSide::Successor,
                match_ext: succ_match,
                new_ext: succ_new,
                count: path.count,
            },
        ))
    }

    /// The reference construction [`TransferNode::extract_pair`] is tested
    /// against: Fig. 4 (c) read literally, on ASCII text — spell
    /// `prefix + k1mer` and `k1mer + suffix`, cut the destinations and
    /// extensions out of the spelled edges, and re-encode them base by base.
    /// Shares no packed-word primitive with the production path.
    #[cfg(test)]
    pub(crate) fn extract_pair_spelled(
        node: &MacroNode,
        path: &ThroughPath,
    ) -> Option<(TransferNode, TransferNode)> {
        use nmp_pak_genome::Base;
        let (Some(prefix), Some(suffix)) = (&path.prefix, &path.suffix) else {
            return None;
        };
        fn bases(text: &str) -> impl Iterator<Item = Base> + '_ {
            text.chars().map(|c| Base::from_char(c).expect("ACGT"))
        }
        let k1 = node.k1mer();
        let k1_len = k1.k();
        let (e, x, f) = (prefix.to_string(), k1.to_string(), suffix.to_string());

        let pred_spell = format!("{e}{x}");
        let (pred_k1mer, pred_match) = pred_spell.split_at(k1_len);
        let succ_spell = format!("{x}{f}");
        let (succ_match, succ_k1mer) = succ_spell.split_at(succ_spell.len() - k1_len);

        let transfer = |destination: &str, side, match_ext: &str, new_ext: String| TransferNode {
            destination: Kmer::from_bases(bases(destination)).expect("a (k-1)-mer"),
            side,
            match_ext: bases(match_ext).collect(),
            new_ext: bases(&new_ext).collect(),
            count: path.count,
        };
        Some((
            transfer(
                pred_k1mer,
                TransferSide::Predecessor,
                pred_match,
                format!("{pred_match}{f}"),
            ),
            transfer(
                succ_k1mer,
                TransferSide::Successor,
                succ_match,
                format!("{e}{succ_match}"),
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_genome::Base;

    fn k(text: &str) -> Kmer {
        Kmer::from_ascii(text).unwrap()
    }

    fn d(text: &str) -> Extension {
        text.parse().unwrap()
    }

    #[test]
    fn paper_fig4_transfer_extraction() {
        // Fig. 4 (c): invalidated node GTCA with prefix 'A' and suffix 'T' (count 6)
        // produces a TransferNode to predecessor AGTC with pred_ext 'A' and
        // new_ext 'AT'.
        let node = MacroNode::from_extensions(k("GTCA"), vec![(Base::A, 6)], vec![(Base::T, 6)]);
        let transfers: Vec<_> = TransferNode::extract_all(&node).collect();
        assert_eq!(transfers.len(), 2);

        let pred = transfers
            .iter()
            .find(|t| t.side == TransferSide::Predecessor)
            .unwrap();
        assert_eq!(pred.destination.to_string(), "AGTC");
        assert_eq!(pred.match_ext.to_string(), "A");
        assert_eq!(pred.new_ext.to_string(), "AT");
        assert_eq!(pred.count, 6);

        let succ = transfers
            .iter()
            .find(|t| t.side == TransferSide::Successor)
            .unwrap();
        assert_eq!(succ.destination.to_string(), "TCAT");
        assert_eq!(succ.match_ext.to_string(), "G");
        assert_eq!(succ.new_ext.to_string(), "AG");
        assert_eq!(succ.count, 6);
    }

    #[test]
    fn transfers_preserve_spelled_sequence() {
        // The predecessor update and successor update must describe the same
        // spelled path e + X.k1mer + f.
        let node = MacroNode::from_extensions(k("GTCA"), vec![(Base::C, 4)], vec![(Base::G, 4)]);
        let full_spell = "CGTCAG"; // e + k1mer + f
        let transfers: Vec<_> = TransferNode::extract_all(&node).collect();
        let pred = transfers
            .iter()
            .find(|t| t.side == TransferSide::Predecessor)
            .unwrap();
        let succ = transfers
            .iter()
            .find(|t| t.side == TransferSide::Successor)
            .unwrap();
        // predecessor: P.k1mer + new_ext == full spell
        assert_eq!(format!("{}{}", pred.destination, pred.new_ext), full_spell);
        // successor: new_ext + S.k1mer == full spell
        assert_eq!(format!("{}{}", succ.new_ext, succ.destination), full_spell);
    }

    #[test]
    fn multi_base_extensions_are_supported() {
        let mut node = MacroNode::new(k("GTCA"));
        node.push_path(ThroughPath::through(d("CA"), d("TG"), 3));
        let transfers: Vec<_> = TransferNode::extract_all(&node).collect();
        let pred = transfers
            .iter()
            .find(|t| t.side == TransferSide::Predecessor)
            .unwrap();
        assert_eq!(pred.destination.to_string(), "CAGT");
        assert_eq!(pred.match_ext.to_string(), "CA");
        assert_eq!(pred.new_ext.to_string(), "CATG");
        let succ = transfers
            .iter()
            .find(|t| t.side == TransferSide::Successor)
            .unwrap();
        assert_eq!(succ.destination.to_string(), "CATG");
        assert_eq!(succ.match_ext.to_string(), "GT");
        assert_eq!(succ.new_ext.to_string(), "CAGT");
        // Both sides still spell CAGTCATG.
        assert_eq!(format!("{}{}", pred.destination, pred.new_ext), "CAGTCATG");
        assert_eq!(format!("{}{}", succ.new_ext, succ.destination), "CAGTCATG");
    }

    #[test]
    fn extract_pair_equals_the_spelled_oracle_around_every_length_boundary() {
        // k - 1 = 5: extensions shorter than, as long as and longer than the
        // (k-1)-mer on either side, up to extensions that live on the heap
        // (> 64 bases) and push the replacement across the inline boundary.
        let unit = "GATTACACCGTA";
        let ext = |len: usize| d(&unit.repeat(len / unit.len() + 1)[..len]);
        let lengths = [1, 2, 4, 5, 6, 11, 31, 32, 33, 59, 60, 64, 65, 100];
        for &p in &lengths {
            for &s in &lengths {
                let mut node = MacroNode::new(k("GTCAT"));
                node.push_path(ThroughPath::through(ext(p), ext(s), 3));
                let path = &node.paths()[0];
                assert_eq!(
                    TransferNode::extract_pair(&node, path),
                    TransferNode::extract_pair_spelled(&node, path),
                    "prefix of {p} bases, suffix of {s}"
                );
            }
        }

        // Random (k-1)-mers of 2..=31 bases with random 1..=70-base
        // extensions. xorshift64*, the generator of `tests/count_props.rs`.
        let mut state = 0x72AF_3E55_u64;
        let mut below = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize) % bound
        };
        for _ in 0..256 {
            let [k1, p, s] = [2 + below(30), 1 + below(70), 1 + below(70)].map(|len| {
                (0..len)
                    .map(|_| "ACGT".as_bytes()[below(4)] as char)
                    .collect::<String>()
            });
            let mut node = MacroNode::new(k(&k1));
            node.push_path(ThroughPath::through(d(&p), d(&s), 3));
            let path = &node.paths()[0];
            let pair = TransferNode::extract_pair(&node, path);
            assert_eq!(pair, TransferNode::extract_pair_spelled(&node, path));
            let (pred, succ) = pair.unwrap();
            let spelled = format!("{p}{k1}{s}");
            assert_eq!(format!("{}{}", pred.destination, pred.new_ext), spelled);
            assert_eq!(format!("{}{}", succ.new_ext, succ.destination), spelled);
        }
    }

    #[test]
    fn terminal_paths_produce_no_transfers() {
        let mut node = MacroNode::new(k("GTCA"));
        node.push_path(ThroughPath {
            prefix: None,
            suffix: Some(d("T")),
            count: 2,
        });
        node.push_path(ThroughPath {
            prefix: Some(d("A")),
            suffix: None,
            count: 2,
        });
        assert_eq!(TransferNode::extract_all(&node).next(), None);
    }

    #[test]
    fn size_bytes_scales_with_extension_length() {
        let node = MacroNode::from_extensions(k("GTCA"), vec![(Base::A, 1)], vec![(Base::T, 1)]);
        let small = TransferNode::extract_all(&node).next().unwrap();
        let mut long_node = MacroNode::new(k("GTCA"));
        long_node.push_path(ThroughPath::through(
            d(&"A".repeat(100)),
            d(&"T".repeat(100)),
            1,
        ));
        let large = TransferNode::extract_all(&long_node).next().unwrap();
        assert!(large.size_bytes() > small.size_bytes());
    }
}
