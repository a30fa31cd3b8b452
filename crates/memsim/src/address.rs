//! Physical-address decomposition.
//!
//! MacroNodes are laid out contiguously in ascending (k-1)-mer order and partitioned
//! across DIMMs (one DIMM per channel in this model), so the channel is the
//! high-order component of the address; rows, banks and columns interleave the bytes
//! inside a DIMM.

use crate::config::DramConfig;

/// The DRAM coordinates of one physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel (and DIMM) index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank within the rank.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column (line offset) within the row.
    pub column: u64,
}

/// Maps byte addresses to DRAM coordinates.
///
/// The per-DIMM capacity is logical: addresses are laid out DIMM-major (`channel =
/// addr / dimm_capacity`), then striped across banks at row-buffer granularity so
/// consecutive rows of a node land in different banks (bank-level parallelism for
/// streaming a large node), matching the layout assumptions in §4.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressMapping {
    config: DramConfig,
    /// Bytes assigned to each DIMM before wrapping to the next channel.
    dimm_capacity: u64,
}

impl AddressMapping {
    /// Creates a mapping where each DIMM holds `dimm_capacity` bytes of the node space.
    pub fn new(config: DramConfig, dimm_capacity: u64) -> Self {
        AddressMapping {
            config,
            dimm_capacity: dimm_capacity.max(config.row_buffer_bytes as u64),
        }
    }

    /// The DRAM configuration this mapping is based on.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Bytes per DIMM.
    pub fn dimm_capacity(&self) -> u64 {
        self.dimm_capacity
    }

    /// Decomposes a byte address.
    pub fn locate(&self, addr: u64) -> DramLocation {
        let channel = ((addr / self.dimm_capacity) as usize) % self.config.channels;
        let within_dimm = addr % self.dimm_capacity;
        let row_bytes = self.config.row_buffer_bytes as u64;
        let page_index = within_dimm / row_bytes;
        let banks = self.config.banks_per_rank as u64;
        let ranks = self.config.ranks_per_channel as u64;
        let bank = (page_index % banks) as usize;
        let rank = ((page_index / banks) % ranks) as usize;
        let row = page_index / (banks * ranks);
        let column = (within_dimm % row_bytes) / self.config.line_bytes as u64;
        DramLocation {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }

    /// Flat bank identifier in `0..config.total_banks()`.
    pub fn flat_bank(&self, loc: DramLocation) -> usize {
        (loc.channel * self.config.ranks_per_channel + loc.rank) * self.config.banks_per_rank
            + loc.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapping() -> AddressMapping {
        AddressMapping::new(DramConfig::default(), 1 << 30)
    }

    #[test]
    fn channel_is_dimm_major() {
        let m = mapping();
        assert_eq!(m.locate(0).channel, 0);
        assert_eq!(m.locate((1 << 30) - 1).channel, 0);
        assert_eq!(m.locate(1 << 30).channel, 1);
        assert_eq!(m.locate(7 << 30).channel, 7);
        // Wraps beyond the last DIMM.
        assert_eq!(m.locate(8u64 << 30).channel, 0);
    }

    #[test]
    fn consecutive_rows_hit_different_banks() {
        let m = mapping();
        let a = m.locate(0);
        let b = m.locate(8192);
        assert_eq!(a.channel, b.channel);
        assert_ne!((a.rank, a.bank), (b.rank, b.bank));
    }

    #[test]
    fn addresses_in_the_same_page_share_a_row() {
        let m = mapping();
        let a = m.locate(4096);
        let b = m.locate(4096 + 64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn flat_bank_is_unique_per_coordinate() {
        let m = mapping();
        let cfg = DramConfig::default();
        let mut seen = std::collections::HashSet::new();
        // Probe one address per (page) for a few thousand pages across channels.
        for dimm in 0..cfg.channels as u64 {
            for page in 0..64u64 {
                let addr = dimm * (1 << 30) + page * 8192;
                let loc = m.locate(addr);
                let flat = m.flat_bank(loc);
                assert!(flat < cfg.total_banks());
                seen.insert((loc.channel, loc.rank, loc.bank, flat));
            }
        }
        // Every flat id maps back to exactly one (channel, rank, bank).
        let flats: std::collections::HashSet<usize> = seen.iter().map(|&(_, _, _, f)| f).collect();
        let coords: std::collections::HashSet<(usize, usize, usize)> =
            seen.iter().map(|&(c, r, b, _)| (c, r, b)).collect();
        assert_eq!(flats.len(), coords.len());
    }

    #[test]
    fn tiny_dimm_capacity_is_clamped() {
        let m = AddressMapping::new(DramConfig::default(), 16);
        assert!(m.dimm_capacity() >= DramConfig::default().row_buffer_bytes as u64);
    }
}
