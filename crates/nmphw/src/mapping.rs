//! The static shard → channel mapping of sharded subgraph execution.
//!
//! The MacroNode-slot → DIMM table of Fig. 11 is [`nmp_pak_memsim::NodeLayout::dimm_of`]:
//! one boundary per DIMM over slots in ascending (k-1)-mer order.

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

    /// The channel hosting `shard`.
    pub fn channel_of(&self, shard: usize) -> usize {
        debug_assert!(shard < self.shards);
        shard % self.channels
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

        // Zero shards and channels clamp to one of each.
        assert_eq!(ShardChannelMap::new(0, 0).channel_of(0), 0);
        assert_eq!(ShardChannelMap::new(3, 8).channel_of(2), 2);
    }
}
