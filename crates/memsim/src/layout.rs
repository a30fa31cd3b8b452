//! MacroNode address layout.
//!
//! MacroNodes are stored in ascending (k-1)-mer order and partitioned across DIMMs:
//! DIMM 0 holds the lowest (k-1)-mers (§4.2). Slot indices from the compaction trace
//! are therefore mapped to contiguous byte ranges inside per-DIMM regions. The same
//! rule is the hardware model's static slot → DIMM mapping table (Fig. 11: one
//! boundary per DIMM, an equal number of consecutive slots each) and decides its
//! intra-/inter-DIMM communication statistics (§6.3).

use crate::config::DramConfig;

/// The physical layout of every MacroNode slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLayout {
    /// Byte address of each slot.
    addresses: Vec<u64>,
    /// Allocated byte size of each slot (initial size rounded up to lines).
    sizes: Vec<usize>,
    /// Consecutive slots per DIMM (the last DIMM may hold fewer).
    slots_per_dimm: usize,
    /// Bytes reserved per DIMM region.
    dimm_capacity: u64,
    /// Number of DIMMs.
    dimm_count: usize,
    /// Line size used for rounding.
    line_bytes: usize,
}

impl NodeLayout {
    /// Lays out `initial_sizes[slot]` bytes per slot across the DIMMs of `config`,
    /// assigning an equal number of consecutive slots to each DIMM.
    pub fn new(initial_sizes: &[usize], config: &DramConfig) -> NodeLayout {
        let dimm_count = config.channels.max(1);
        let line = config.line_bytes.max(1);
        let n = initial_sizes.len();
        let slots_per_dimm = n.div_ceil(dimm_count).max(1);
        let dimm_of = |slot: usize| (slot / slots_per_dimm).min(dimm_count - 1);

        // First pass: allocation size per slot and per-DIMM usage.
        let mut sizes = Vec::with_capacity(n);
        let mut dimm_usage = vec![0u64; dimm_count];
        for (slot, &size) in initial_sizes.iter().enumerate() {
            // Reserve head-room for growth during compaction (extensions lengthen).
            let alloc = (size.max(1) * 2).div_ceil(line) * line;
            sizes.push(alloc);
            dimm_usage[dimm_of(slot)] += alloc as u64;
        }
        let dimm_capacity = dimm_usage
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(config.row_buffer_bytes as u64)
            .next_multiple_of(config.row_buffer_bytes as u64);

        // Second pass: addresses within each DIMM region.
        let mut cursor = vec![0u64; dimm_count];
        let mut addresses = Vec::with_capacity(n);
        for (slot, &size) in sizes.iter().enumerate() {
            let dimm = dimm_of(slot);
            addresses.push(dimm as u64 * dimm_capacity + cursor[dimm]);
            cursor[dimm] += size as u64;
        }

        NodeLayout {
            addresses,
            sizes,
            slots_per_dimm,
            dimm_capacity,
            dimm_count,
            line_bytes: line,
        }
    }

    /// Number of slots laid out.
    pub fn slot_count(&self) -> usize {
        self.addresses.len()
    }

    /// Byte address of a slot.
    pub fn address_of(&self, slot: usize) -> u64 {
        self.addresses[slot]
    }

    /// Allocated bytes of a slot.
    pub fn allocated_size(&self, slot: usize) -> usize {
        self.sizes[slot]
    }

    /// DIMM (= channel) holding a slot.
    pub fn dimm_of(&self, slot: usize) -> usize {
        (slot / self.slots_per_dimm).min(self.dimm_count - 1)
    }

    /// Number of DIMMs used by the layout.
    pub fn dimm_count(&self) -> usize {
        self.dimm_count
    }

    /// Bytes reserved per DIMM region (used to configure the address mapping).
    pub fn dimm_capacity(&self) -> u64 {
        self.dimm_capacity
    }

    /// PE responsible for a slot when each DIMM hosts `pes_per_dimm` PEs and nodes are
    /// distributed round-robin inside their DIMM.
    pub fn pe_of(&self, slot: usize, pes_per_dimm: usize) -> usize {
        slot % pes_per_dimm.max(1)
    }

    /// Bytes one access of `bytes` moves: whole lines, at least one.
    pub(crate) fn access_bytes(&self, bytes: usize) -> u64 {
        (bytes.max(1).div_ceil(self.line_bytes) * self.line_bytes) as u64
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
    fn addresses_within_a_dimm_do_not_overlap() {
        let sizes = vec![100, 500, 64, 9000, 128, 250, 300, 80, 80, 80];
        let layout = layout_of(&sizes);
        for a in 0..sizes.len() {
            for b in 0..sizes.len() {
                if a == b || layout.dimm_of(a) != layout.dimm_of(b) {
                    continue;
                }
                let (start_a, end_a) = (
                    layout.address_of(a),
                    layout.address_of(a) + layout.allocated_size(a) as u64,
                );
                let start_b = layout.address_of(b);
                assert!(
                    start_b >= end_a || start_b < start_a,
                    "slots {a} and {b} overlap"
                );
            }
        }
    }

    #[test]
    fn addresses_fall_inside_their_dimm_region() {
        let sizes = vec![300; 64];
        let layout = layout_of(&sizes);
        for slot in 0..64 {
            let dimm = layout.dimm_of(slot) as u64;
            let addr = layout.address_of(slot);
            assert!(addr >= dimm * layout.dimm_capacity());
            assert!(
                addr + layout.allocated_size(slot) as u64 <= (dimm + 1) * layout.dimm_capacity()
            );
        }
    }

    #[test]
    fn allocation_is_line_aligned_and_leaves_growth_room() {
        let layout = layout_of(&[100]);
        assert_eq!(layout.allocated_size(0) % 64, 0);
        assert!(layout.allocated_size(0) >= 200);
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

    #[test]
    fn empty_layout_is_valid() {
        let layout = layout_of(&[]);
        assert_eq!(layout.slot_count(), 0);
        assert!(layout.dimm_capacity() >= 8192);
    }
}
