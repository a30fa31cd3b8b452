//! The static MacroNode-range → DIMM mapping table (§4.2, Fig. 11).
//!
//! MacroNodes are stored in ascending (k-1)-mer order across DIMMs, so the DIMM of a
//! destination MacroNode can be found by comparing its slot against one boundary per
//! DIMM — a tiny lookup table held in every PE's stage P3, eliminating any search.

/// Mapping table from MacroNode slot ranges to DIMMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimmMappingTable {
    /// `boundaries[d]` is the first slot index *not* stored in DIMM `d`
    /// (exclusive upper bound); boundaries are non-decreasing.
    boundaries: Vec<usize>,
}

impl DimmMappingTable {
    /// Builds the table for `slot_count` MacroNodes spread over `dimms` DIMMs with an
    /// equal number of consecutive slots per DIMM (the layout of
    /// [`nmp_pak_memsim::NodeLayout`]).
    pub fn new(slot_count: usize, dimms: usize) -> Self {
        let dimms = dimms.max(1);
        let per_dimm = slot_count.div_ceil(dimms).max(1);
        let boundaries = (0..dimms)
            .map(|d| ((d + 1) * per_dimm).min(slot_count))
            .collect();
        DimmMappingTable { boundaries }
    }

    /// Number of DIMMs in the table.
    pub fn dimm_count(&self) -> usize {
        self.boundaries.len()
    }

    /// The DIMM holding `slot`.
    pub fn dimm_of(&self, slot: usize) -> usize {
        match self.boundaries.iter().position(|&b| slot < b) {
            Some(d) => d,
            None => self.boundaries.len() - 1,
        }
    }

    /// The exclusive upper slot bound of each DIMM (the table contents of Fig. 11).
    pub fn boundaries(&self) -> &[usize] {
        &self.boundaries
    }
}

/// The static shard → channel mapping of sharded subgraph execution.
///
/// The software pipeline partitions the PaK-graph into owner-computes shards;
/// the hardware maps each shard onto one NMP channel's local memory. When there
/// are more shards than channels, shards fold round-robin onto channels (the
/// same discipline as rank-over-node placement in distributed PaKman); fewer
/// shards than channels leave the surplus channels idle, which the load model
/// reports rather than hides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChannelMap {
    shards: usize,
    channels: usize,
}

impl ShardChannelMap {
    /// A mapping of `shards` shards onto `channels` channels (both clamped to ≥ 1).
    pub fn new(shards: usize, channels: usize) -> Self {
        ShardChannelMap {
            shards: shards.max(1),
            channels: channels.max(1),
        }
    }

    /// Number of shards mapped.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of channels mapped onto.
    pub fn channel_count(&self) -> usize {
        self.channels
    }

    /// The channel hosting `shard`.
    pub fn channel_of(&self, shard: usize) -> usize {
        debug_assert!(shard < self.shards);
        shard % self.channels
    }

    /// Channels that host at least one shard.
    pub fn occupied_channels(&self) -> usize {
        self.shards.min(self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_channel_map_folds_round_robin() {
        let map = ShardChannelMap::new(12, 8);
        assert_eq!(map.channel_of(0), 0);
        assert_eq!(map.channel_of(7), 7);
        assert_eq!(map.channel_of(8), 0);
        assert_eq!(map.channel_of(11), 3);
        assert_eq!(map.occupied_channels(), 8);

        let sparse = ShardChannelMap::new(3, 8);
        assert_eq!(sparse.occupied_channels(), 3);
        assert_eq!(ShardChannelMap::new(0, 0).channel_count(), 1);
    }

    #[test]
    fn slots_partition_evenly() {
        let table = DimmMappingTable::new(80, 8);
        assert_eq!(table.dimm_count(), 8);
        for slot in 0..80 {
            assert_eq!(table.dimm_of(slot), slot / 10);
        }
    }

    #[test]
    fn agrees_with_the_memsim_layout() {
        use nmp_pak_memsim::{DramConfig, NodeLayout};
        let sizes = vec![300usize; 123];
        let layout = NodeLayout::new(&sizes, &DramConfig::default());
        let table = DimmMappingTable::new(sizes.len(), layout.dimm_count());
        for slot in 0..sizes.len() {
            assert_eq!(table.dimm_of(slot), layout.dimm_of(slot), "slot {slot}");
        }
    }

    #[test]
    fn out_of_range_slots_land_in_the_last_dimm() {
        let table = DimmMappingTable::new(16, 4);
        assert_eq!(table.dimm_of(999), 3);
    }

    #[test]
    fn single_dimm_table() {
        let table = DimmMappingTable::new(10, 1);
        assert_eq!(table.dimm_count(), 1);
        assert_eq!(table.dimm_of(5), 0);
    }

    #[test]
    fn empty_table_is_safe() {
        let table = DimmMappingTable::new(0, 8);
        assert_eq!(table.dimm_count(), 8);
        assert_eq!(table.dimm_of(0), 7);
    }
}
