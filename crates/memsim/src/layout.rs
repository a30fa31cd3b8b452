//! MacroNode slot layout.
//!
//! MacroNodes are stored in ascending (k-1)-mer order and partitioned across DIMMs:
//! DIMM 0 holds the lowest (k-1)-mers (§4.2). Slot indices from the compaction trace
//! are therefore assigned to DIMMs in contiguous runs of equal length. The same
//! rule is the hardware model's static slot → DIMM mapping table (Fig. 11: one
//! boundary per DIMM, an equal number of consecutive slots each) and decides its
//! intra-/inter-DIMM communication statistics (§6.3). No backend reads a byte
//! address: a slot is placed by its DIMM and PE, and an access is costed in
//! whole lines.

use crate::config::DramConfig;

/// The placement of every MacroNode slot: its DIMM, its PE and the line
/// granularity of its accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLayout {
    /// Number of slots laid out.
    slot_count: usize,
    /// Consecutive slots per DIMM (the last DIMM may hold fewer).
    slots_per_dimm: usize,
    /// Number of DIMMs.
    dimm_count: usize,
    /// Line size used for rounding.
    line_bytes: usize,
}

impl NodeLayout {
    /// Lays out the `initial_sizes.len()` slots across the DIMMs of `config`,
    /// assigning an equal number of consecutive slots to each DIMM. Only the
    /// slot count is read: the placement does not depend on the sizes.
    pub fn new(initial_sizes: &[usize], config: &DramConfig) -> NodeLayout {
        let dimm_count = config.channels.max(1);
        let slot_count = initial_sizes.len();
        NodeLayout {
            slot_count,
            slots_per_dimm: slot_count.div_ceil(dimm_count).max(1),
            dimm_count,
            line_bytes: config.line_bytes.max(1),
        }
    }

    /// Number of slots laid out.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// DIMM (= channel) holding a slot.
    #[inline]
    pub fn dimm_of(&self, slot: usize) -> usize {
        (slot / self.slots_per_dimm).min(self.dimm_count - 1)
    }

    /// Number of DIMMs used by the layout.
    pub fn dimm_count(&self) -> usize {
        self.dimm_count
    }

    /// PE responsible for a slot when each DIMM hosts `pes_per_dimm` PEs and nodes are
    /// distributed round-robin inside their DIMM.
    #[inline]
    pub fn pe_of(&self, slot: usize, pes_per_dimm: usize) -> usize {
        slot % pes_per_dimm.max(1)
    }

    /// Bytes one access of `bytes` moves: whole lines, at least one.
    #[inline]
    pub fn access_bytes(&self, bytes: usize) -> u64 {
        (bytes.max(1).div_ceil(self.line_bytes) * self.line_bytes) as u64
    }
}

/// Resolves the DIMM and PE of slots visited in ascending order — the order
/// of an iteration's checks — without a division per slot.
///
/// The cursor keeps the slot range of the DIMM it is in and the PE of the
/// last slot it resolved. A slot at or after that one, inside the range and
/// fewer than `pes_per_dimm` slots on, costs two comparisons: its PE is the
/// last one stepped forward. Any other slot (the next DIMM, a longer gap, a
/// step back) moves the cursor with the divisions of [`NodeLayout::dimm_of`]
/// and [`NodeLayout::pe_of`]. So [`SlotCursor::locate`] returns what they
/// return for every slot sequence; only its cost depends on the order.
#[derive(Debug, Clone)]
pub struct SlotCursor<'a> {
    layout: &'a NodeLayout,
    pes: usize,
    slot: usize,
    pe: usize,
    dimm: usize,
    /// First and last slot (inclusive) of `dimm`; the last DIMM runs to
    /// `usize::MAX`, as `dimm_of` clamps every later slot onto it.
    dimm_first: usize,
    dimm_last: usize,
}

impl<'a> SlotCursor<'a> {
    /// A cursor at slot 0 of `layout`, with `pes_per_dimm` PEs per DIMM.
    pub fn new(layout: &'a NodeLayout, pes_per_dimm: usize) -> SlotCursor<'a> {
        SlotCursor::at(layout, pes_per_dimm.max(1), 0)
    }

    /// `(layout.dimm_of(slot), layout.pe_of(slot, pes_per_dimm))`.
    #[inline]
    pub fn locate(&mut self, slot: usize) -> (usize, usize) {
        let step = slot.wrapping_sub(self.slot);
        if step < self.pes && slot <= self.dimm_last {
            self.pe += step;
            if self.pe >= self.pes {
                self.pe -= self.pes;
            }
            self.slot = slot;
        } else {
            *self = SlotCursor::at(self.layout, self.pes, slot);
        }
        (self.dimm, self.pe)
    }

    /// Whether `slot` lies in the DIMM of the last slot located, i.e.
    /// `layout.dimm_of(slot)` equals that DIMM.
    #[inline]
    pub fn in_dimm(&self, slot: usize) -> bool {
        (self.dimm_first..=self.dimm_last).contains(&slot)
    }

    /// A cursor at `slot`, placed with the divisions.
    #[inline]
    fn at(layout: &'a NodeLayout, pes: usize, slot: usize) -> SlotCursor<'a> {
        let dimm = layout.dimm_of(slot);
        let dimm_first = dimm * layout.slots_per_dimm;
        SlotCursor {
            layout,
            pes,
            slot,
            pe: layout.pe_of(slot, pes),
            dimm,
            dimm_first,
            dimm_last: if dimm + 1 == layout.dimm_count {
                usize::MAX
            } else {
                dimm_first + layout.slots_per_dimm - 1
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_of(sizes: &[usize]) -> NodeLayout {
        NodeLayout::new(sizes, &DramConfig::default())
    }

    #[test]
    fn slots_are_spread_evenly_across_dimms() {
        let sizes = vec![200; 80];
        let layout = layout_of(&sizes);
        assert_eq!(layout.slot_count(), 80);
        assert_eq!(layout.dimm_count(), 8);
        for slot in 0..80 {
            assert_eq!(layout.dimm_of(slot), slot / 10);
        }
    }

    #[test]
    fn requests_round_up_to_lines() {
        let layout = layout_of(&[100, 100]);
        assert_eq!(layout.access_bytes(100), 128);
        assert_eq!(layout.access_bytes(128), 128);
        assert_eq!(layout.access_bytes(1), 64);
        assert_eq!(
            layout.access_bytes(0),
            64,
            "an empty access still moves a line"
        );
        let wide = NodeLayout::new(
            &[100],
            &DramConfig {
                line_bytes: 128,
                ..DramConfig::default()
            },
        );
        assert_eq!(wide.access_bytes(64), 128);
    }

    #[test]
    fn pe_assignment_round_robins_within_a_dimm() {
        let layout = layout_of(&[64; 32]);
        assert_eq!(layout.pe_of(0, 16), 0);
        assert_eq!(layout.pe_of(5, 16), 5);
        assert_eq!(layout.pe_of(21, 16), 5);
        assert_eq!(layout.pe_of(3, 0), 0);
    }

    /// Every slot of `slots` located by one cursor, against the divisions.
    fn assert_cursor_matches(layout: &NodeLayout, pes: usize, slots: &[usize]) {
        let mut cursor = SlotCursor::new(layout, pes);
        for &slot in slots {
            let expected = (layout.dimm_of(slot), layout.pe_of(slot, pes));
            assert_eq!(cursor.locate(slot), expected, "slot {slot}, {pes} PEs");
            for other in [0, slot.saturating_sub(1), slot + 1, slot + 97, usize::MAX] {
                let same = layout.dimm_of(other) == expected.0;
                assert_eq!(cursor.in_dimm(other), same, "slot {slot} vs {other}");
            }
        }
    }

    #[test]
    fn slot_cursor_equals_the_divisions_in_any_order() {
        // 1 003 slots on 8 DIMMs: 126 per DIMM, the last holding 121.
        let layout = layout_of(&[100; 1_003]);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as usize
        };
        for pes in [1, 3, 16, 32, 33] {
            let dense: Vec<usize> = (0..1_003).collect();
            assert_cursor_matches(&layout, pes, &dense);
            // Ascending with gaps shorter and longer than a PE wrap,
            // repeats (a source with several transfers) and a tail past
            // the last slot, which `dimm_of` clamps onto the last DIMM.
            let mut gapped = Vec::new();
            let mut slot = 0;
            while slot < 1_200 {
                gapped.push(slot);
                slot += [0, 1, 2, 31, 32, 33, 130][next(7)];
            }
            assert_cursor_matches(&layout, pes, &gapped);
            let random: Vec<usize> = (0..500).map(|_| next(1_003)).collect();
            assert_cursor_matches(&layout, pes, &random);
            let descending: Vec<usize> = (0..1_003).rev().collect();
            assert_cursor_matches(&layout, pes, &descending);
        }
        assert_cursor_matches(&layout_of(&[]), 16, &[0, 1, 5, 2]);
        assert_cursor_matches(&layout_of(&[64]), 16, &[0, 0, 3]);
    }

    #[test]
    fn empty_layout_is_valid() {
        let layout = layout_of(&[]);
        assert_eq!(layout.slot_count(), 0);
        assert_eq!(layout.dimm_count(), 8);
        assert_eq!(layout.dimm_of(0), 0);
    }
}
