//! TransferNodes: the messages that carry an invalidated MacroNode's sequence content
//! to its neighbours during Iterative Compaction (Fig. 4 (c)–(d)).

use crate::macronode::{MacroNode, ThroughPath};
use nmp_pak_genome::{DnaString, Kmer};

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
    pub match_ext: DnaString,
    /// The replacement extension (`new_ext` in Fig. 4).
    pub new_ext: DnaString,
    /// Flow count carried by this transfer.
    pub count: u32,
    /// (k-1)-mer of the invalidated source node (for bookkeeping and traces).
    pub source: Kmer,
}

impl TransferNode {
    /// Approximate wire size of this TransferNode in bytes, used by the hardware model
    /// when routing transfers through the crossbar / network bridge.
    pub fn size_bytes(&self) -> usize {
        // destination + source (8 B each), side + count (8 B), packed extensions.
        24 + self.match_ext.len().div_ceil(4) + self.new_ext.len().div_ceil(4)
    }

    /// Extracts the TransferNodes for every interior path of `node` (pipeline stage P2).
    ///
    /// Paths with terminal flow produce no transfers; callers should only invalidate
    /// fully interior nodes (see [`MacroNode::is_fully_interior`]).
    pub fn extract_all(node: &MacroNode) -> Vec<TransferNode> {
        let mut out = Vec::with_capacity(node.paths().len() * 2);
        for path in node.paths() {
            if let Some((pred, succ)) = TransferNode::extract_pair(node, path) {
                out.push(pred);
                out.push(succ);
            }
        }
        out
    }

    /// Extracts the (predecessor, successor) pair for one interior path without
    /// wrapping the result in a `Vec` — the form compaction's streamed pass
    /// hands, one transfer at a time, to its store. Terminal paths yield
    /// `None`.
    ///
    /// Everything is computed on the packed words: the destinations by
    /// [`MacroNode::predecessor_k1mer`] / [`MacroNode::successor_k1mer`], the
    /// extensions to match by [`MacroNode::predecessor_suffix`] /
    /// [`MacroNode::successor_prefix`], the replacements by one word append each.
    /// The edge `prefix + k1mer + suffix` is never spelled out.
    #[inline]
    pub fn extract_pair(
        node: &MacroNode,
        path: &ThroughPath,
    ) -> Option<(TransferNode, TransferNode)> {
        let (Some(prefix), Some(suffix)) = (&path.prefix, &path.suffix) else {
            return None;
        };
        let k1 = node.k1mer();

        let pred_match = node.predecessor_suffix(prefix);
        let mut pred_new = pred_match.clone();
        pred_new.extend_from(suffix);

        let succ_match = node.successor_prefix(suffix);
        let mut succ_new = prefix.clone();
        succ_new.extend_from(&succ_match);

        Some((
            TransferNode {
                destination: node.predecessor_k1mer(prefix),
                side: TransferSide::Predecessor,
                match_ext: pred_match,
                new_ext: pred_new,
                count: path.count,
                source: k1,
            },
            TransferNode {
                destination: node.successor_k1mer(suffix),
                side: TransferSide::Successor,
                match_ext: succ_match,
                new_ext: succ_new,
                count: path.count,
                source: k1,
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
        let (e, x, f) = (prefix.to_ascii(), k1.to_string(), suffix.to_ascii());

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
            source: k1,
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

/// One TransferNode resting in its destination shard's inbox.
#[derive(Debug, Clone)]
pub struct PostedTransfer {
    /// Position among the iteration's posted transfers (the canonical order).
    seq: usize,
    /// Global slot of the destination node.
    dest_slot: usize,
    /// The destination's local slot on the receiving shard.
    pub local_slot: usize,
    /// The transfer itself, moved here once.
    pub transfer: TransferNode,
    /// Whether applying it found the extension to replace; the receiving shard
    /// fills this in.
    pub matched: bool,
}

/// The batched inter-shard TransferNode exchange of one compaction iteration —
/// the shared-memory analogue of distributed PaKman's `MPI_Alltoallv` and the
/// cross-channel hop of the NMP hardware.
///
/// The compaction driver streams the canonical (source-slot-major, path-order)
/// transfers through it one at a time. [`ShardMailbox::enter`] books each on its
/// (source shard, destination shard) lane — the traffic ledger the hardware
/// model consumes as measured cross-channel traffic. A store that applies on
/// delivery needs nothing more. One that applies shard-parallel
/// [`ShardMailbox::post`]s each transfer into its destination owner's inbox:
/// posting in stream order is a stable partition of the canonical stream, so
/// every inbox is *slot-ordered* — transfers addressed to the same destination
/// rest in exactly the order the serial compactor would have applied them,
/// which is what keeps the sharded P3 bit-identical (path splits compose in
/// delivery order) — and [`ShardMailbox::settle`] hands the outcomes back in
/// posting order.
#[derive(Debug, Clone, Default)]
pub struct ShardMailbox {
    /// Per destination shard: the posted transfers, in posting (therefore
    /// per-destination slot) order.
    inboxes: Vec<Vec<PostedTransfer>>,
    /// `(destination slot, matched)` by posting position, rebuilt by `settle`.
    outcomes: Vec<(usize, bool)>,
    /// Transfers posted this iteration.
    posted: usize,
    /// `(transfers, payload bytes)` entered shard→shard this iteration,
    /// flattened `src * shards + dst`.
    lanes: Vec<(u64, u64)>,
}

impl ShardMailbox {
    /// An empty mailbox for `shard_count` shards.
    pub fn new(shard_count: usize) -> ShardMailbox {
        let shards = shard_count.max(1);
        ShardMailbox {
            inboxes: vec![Vec::new(); shards],
            lanes: vec![(0, 0); shards * shards],
            ..ShardMailbox::default()
        }
    }

    /// Clears the inboxes and the lanes (capacity is kept — the exchange
    /// buffers are reused across iterations, §4.5's pre-allocation discipline
    /// applied to the mailbox).
    pub fn clear(&mut self) {
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        self.posted = 0;
        self.lanes.fill((0, 0));
    }

    /// Books `transfer`, sent by shard `src`, on the lane to its destination's
    /// owner, and returns that owner.
    pub fn enter(&mut self, src: usize, transfer: &TransferNode) -> usize {
        let shards = self.inboxes.len();
        debug_assert!(src < shards);
        let dst = nmp_pak_genome::shard_of_packed(transfer.destination.packed(), shards);
        let lane = &mut self.lanes[src * shards + dst];
        lane.0 += 1;
        lane.1 += transfer.size_bytes() as u64;
        dst
    }

    /// The lanes with traffic this iteration: `(src, dst, transfers, payload
    /// bytes)`, in (src, dst) order.
    pub fn lanes(&self) -> impl Iterator<Item = (usize, usize, u64, u64)> + '_ {
        let shards = self.inboxes.len();
        let busy = self.lanes.iter().enumerate().filter(|(_, lane)| lane.0 > 0);
        busy.map(move |(i, &(transfers, bytes))| (i / shards, i % shards, transfers, bytes))
    }

    /// Moves an entered `transfer` into the inbox of shard `dst`, which owns its
    /// destination: global slot `dest_slot`, the shard's `local_slot`.
    pub fn post(
        &mut self,
        dst: usize,
        dest_slot: usize,
        local_slot: usize,
        transfer: TransferNode,
    ) {
        self.inboxes[dst].push(PostedTransfer {
            seq: self.posted,
            dest_slot,
            local_slot,
            transfer,
            matched: false,
        });
        self.posted += 1;
    }

    /// All inboxes, indexed by destination shard, for the receiving shards to
    /// apply (each in inbox order) and mark.
    pub fn inboxes_mut(&mut self) -> &mut [Vec<PostedTransfer>] {
        &mut self.inboxes
    }

    /// Empties the inboxes and reports every posted transfer's `(destination
    /// slot, matched)` in posting order — the canonical stream order again.
    pub fn settle(&mut self, mut report: impl FnMut(usize, bool)) {
        self.outcomes.clear();
        self.outcomes.resize(self.posted, (0, false));
        for inbox in &mut self.inboxes {
            for posted in inbox.drain(..) {
                self.outcomes[posted.seq] = (posted.dest_slot, posted.matched);
            }
        }
        self.posted = 0;
        for &(dest_slot, matched) in &self.outcomes {
            report(dest_slot, matched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_genome::Base;

    fn k(text: &str) -> Kmer {
        Kmer::from_ascii(text).unwrap()
    }

    fn d(text: &str) -> DnaString {
        text.parse().unwrap()
    }

    #[test]
    fn paper_fig4_transfer_extraction() {
        // Fig. 4 (c): invalidated node GTCA with prefix 'A' and suffix 'T' (count 6)
        // produces a TransferNode to predecessor AGTC with pred_ext 'A' and
        // new_ext 'AT'.
        let node = MacroNode::from_extensions(k("GTCA"), vec![(Base::A, 6)], vec![(Base::T, 6)]);
        let transfers = TransferNode::extract_all(&node);
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
        let transfers = TransferNode::extract_all(&node);
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
        let transfers = TransferNode::extract_all(&node);
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
        assert!(TransferNode::extract_all(&node).is_empty());
    }

    #[test]
    fn mailbox_routing_is_stable_and_fully_accounted() {
        // A small canonical stream: transfers to several destinations, sources
        // attributed round-robin across 3 shards, destination slots made up.
        let shards = 3usize;
        let node_a = MacroNode::from_extensions(k("GTCA"), vec![(Base::A, 2)], vec![(Base::T, 2)]);
        let node_b = MacroNode::from_extensions(k("CATG"), vec![(Base::C, 1)], vec![(Base::G, 1)]);
        let mut stream: Vec<(usize, TransferNode)> = Vec::new();
        for (slot, node) in [(0usize, &node_a), (1, &node_b), (2, &node_a)] {
            for t in TransferNode::extract_all(node) {
                stream.push((slot, t));
            }
        }
        let mut mailbox = ShardMailbox::new(shards);
        let post_all = |mailbox: &mut ShardMailbox| {
            for (i, (slot, transfer)) in stream.iter().enumerate() {
                let dst = mailbox.enter(slot % shards, transfer);
                let dest = &transfer.destination;
                assert_eq!(nmp_pak_genome::shard_of_packed(dest.packed(), shards), dst);
                mailbox.post(dst, 100 + i, i, transfer.clone());
            }
        };
        post_all(&mut mailbox);

        // Every transfer lands in exactly one inbox, at its owner.
        let total: usize = mailbox.inboxes_mut().iter().map(Vec::len).sum();
        assert_eq!(total, stream.len());
        for (s, inbox) in mailbox.inboxes_mut().iter_mut().enumerate() {
            for posted in inbox.iter_mut() {
                // `local_slot` is the stream position here.
                assert_eq!(posted.transfer, stream[posted.local_slot].1);
                let dest = &posted.transfer.destination;
                assert_eq!(nmp_pak_genome::shard_of_packed(dest.packed(), shards), s);
                posted.matched = posted.local_slot % 2 == 0;
            }
            // Slot-ordered delivery: stream positions ascend within an inbox
            // (a stable partition of the canonical stream).
            assert!(inbox.windows(2).all(|w| w[0].local_slot < w[1].local_slot));
        }
        // The lanes account for every transfer and byte, each on the lane of
        // its source's shard and its destination's owner.
        let mut traffic = vec![(0u64, 0u64); shards * shards];
        for (slot, transfer) in &stream {
            let dst = nmp_pak_genome::shard_of_packed(transfer.destination.packed(), shards);
            let lane = &mut traffic[slot % shards * shards + dst];
            *lane = (lane.0 + 1, lane.1 + transfer.size_bytes() as u64);
        }
        let cells = (0..shards).flat_map(|s| (0..shards).map(move |d| (s, d)));
        let expected_lanes: Vec<(usize, usize, u64, u64)> = cells
            .map(|(s, d)| (s, d, traffic[s * shards + d].0, traffic[s * shards + d].1))
            .filter(|lane| lane.2 > 0)
            .collect();
        assert!(expected_lanes.len() > 1 && expected_lanes.len() < shards * shards);
        assert_eq!(mailbox.lanes().collect::<Vec<_>>(), expected_lanes);

        // Settling hands the outcomes back in posting order and empties the
        // inboxes; posting again after a clear settles the same way.
        let expected: Vec<(usize, bool)> =
            (0..stream.len()).map(|i| (100 + i, i % 2 == 0)).collect();
        let mut settled = Vec::new();
        mailbox.settle(|dest, matched| settled.push((dest, matched)));
        assert_eq!(settled, expected);
        assert!(mailbox.inboxes_mut().iter().all(Vec::is_empty));
        mailbox.clear();
        assert_eq!(mailbox.lanes().count(), 0);
        post_all(&mut mailbox);
        assert_eq!(mailbox.lanes().collect::<Vec<_>>(), expected_lanes);
        settled.clear();
        mailbox.settle(|dest, matched| settled.push((dest, matched)));
        let unmarked: Vec<(usize, bool)> =
            expected.iter().map(|&(dest, _)| (dest, false)).collect();
        assert_eq!(settled, unmarked);
    }

    #[test]
    fn size_bytes_scales_with_extension_length() {
        let node = MacroNode::from_extensions(k("GTCA"), vec![(Base::A, 1)], vec![(Base::T, 1)]);
        let small = &TransferNode::extract_all(&node)[0];
        let mut long_node = MacroNode::new(k("GTCA"));
        long_node.push_path(ThroughPath::through(
            d(&"A".repeat(100)),
            d(&"T".repeat(100)),
            1,
        ));
        let large = &TransferNode::extract_all(&long_node)[0];
        assert!(large.size_bytes() > small.size_bytes());
    }
}
