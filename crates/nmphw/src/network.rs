//! Inter-node network cost model: projecting multi-node PakMan from one-host
//! measurements (§6.3).
//!
//! The sharded engine records its exchange as a per-flush mailbox ledger: one
//! record per (iteration, source shard, destination shard) lane that carried
//! a transfer, under either schedule. Mapping shards onto
//! simulated cluster nodes ([`ShardChannelMap`], the same round-robin fold as
//! rank-over-node placement in distributed PaKman) splits that traffic into
//! intra-node bytes (already paid for by the bridge) and cross-node bytes that
//! must ride an inter-node link. [`NetworkModel`] charges each cross-node flush
//! one link latency plus byte serialization (a full mesh: every node pair has
//! a direct link), and [`NetworkModel::project_multinode`] combines the
//! per-node compute share with the per-node network time into a projected
//! multi-node runtime — answering the paper's scalability question (§6.3
//! reports ~87.5 % of transfers crossing an 8-way partition, which is why
//! multi-node scaling is communication-bound) without running more than one
//! host.

use crate::mapping::ShardChannelMap;
use nmp_pak_pakman::ShardingTelemetry;

/// Cost model for the direct link between two nodes of a full mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Wire + switch latency of one link in nanoseconds.
    pub latency_ns: f64,
    /// Link bandwidth in GB/s (1 GB/s streams 1 byte per nanosecond).
    pub bandwidth_gbps: f64,
}

impl Default for NetworkModel {
    /// A 100 Gb-Ethernet-class full mesh: 12.5 GB/s per link and ~1.5 µs
    /// end-to-end latency — deliberately slower than the intra-node
    /// inter-DIMM bridge (25 GB/s, [`crate::NmpConfig::default`]).
    fn default() -> Self {
        NetworkModel {
            latency_ns: 1_500.0,
            bandwidth_gbps: 12.5,
        }
    }
}

impl NetworkModel {
    /// Validates the model, returning a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.latency_ns < 0.0 {
            return Err("network latency must be non-negative".to_string());
        }
        if self.bandwidth_gbps <= 0.0 {
            return Err("network bandwidth must be positive".to_string());
        }
        Ok(())
    }

    /// Time for one cross-node flush of `bytes`: link latency plus byte
    /// serialization.
    pub fn flush_ns(&self, bytes: u64) -> f64 {
        self.latency_ns + bytes as f64 / self.bandwidth_gbps
    }

    /// Projects a measured one-host run onto a `nodes`-node cluster.
    ///
    /// Shards fold onto nodes round-robin. Each node's compute share is its
    /// measured fraction of P1 work (`checked_per_shard`) times the one-host
    /// runtime. That is the model's assumption, not a schedule that runs: the
    /// engine is barriered (lock-step), but the projection paces each node by
    /// its own work alone, as a cluster without a per-iteration barrier would
    /// be, not by the global stragglers. Each node also pays to send
    /// its cross-node flushes, read from the per-flush mailbox ledger: a run
    /// that moved anything has one record per lane that carried a transfer in
    /// an iteration (a run that moved nothing sends nothing). The projected
    /// runtime is the slowest node's compute + send time.
    pub fn project_multinode(
        &self,
        telemetry: &ShardingTelemetry,
        nodes: usize,
        base_runtime_ns: f64,
    ) -> MultinodeProjection {
        let nodes = nodes.max(1);
        let map = ShardChannelMap::new(telemetry.shard_count, nodes);
        let node_of = |shard: usize| map.channel_of(shard) % nodes;

        let mut compute_ns = vec![0.0f64; nodes];
        let total_work: u64 = telemetry.checked_per_shard.iter().sum();
        for (shard, &checked) in telemetry.checked_per_shard.iter().enumerate() {
            if total_work > 0 {
                compute_ns[node_of(shard)] += base_runtime_ns * checked as f64 / total_work as f64;
            }
        }

        let mut network_ns = vec![0.0f64; nodes];
        let mut cross_node_bytes = 0u64;
        let mut intra_node_bytes = 0u64;
        let mut cross_node_flushes = 0u64;
        for flush in &telemetry.flushes {
            let (src_node, dst_node, bytes) = (node_of(flush.src), node_of(flush.dst), flush.bytes);
            if src_node == dst_node {
                intra_node_bytes += bytes;
            } else {
                cross_node_bytes += bytes;
                cross_node_flushes += 1;
                network_ns[src_node] += self.flush_ns(bytes);
            }
        }

        let projected_runtime_ns = compute_ns
            .iter()
            .zip(&network_ns)
            .map(|(c, n)| c + n)
            .fold(0.0f64, f64::max);
        MultinodeProjection {
            nodes,
            base_runtime_ns,
            projected_runtime_ns,
            cross_node_bytes,
            intra_node_bytes,
            cross_node_flushes,
            max_node_network_ns: network_ns.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// The projected cost of running a measured one-host workload on a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultinodeProjection {
    /// Cluster size the projection targets.
    pub nodes: usize,
    /// Measured one-host runtime the projection scales from.
    pub base_runtime_ns: f64,
    /// Projected runtime: slowest node's compute share + flush send time.
    pub projected_runtime_ns: f64,
    /// Mailbox bytes that crossed nodes (ride the modeled network).
    pub cross_node_bytes: u64,
    /// Mailbox bytes that stayed on one node (already paid by the bridge).
    pub intra_node_bytes: u64,
    /// Number of cross-node flushes (each pays the link latency).
    pub cross_node_flushes: u64,
    /// Largest per-node network send time.
    pub max_node_network_ns: f64,
}

impl MultinodeProjection {
    /// Projected speedup over the measured one-host run (< 1 means the
    /// network eats the parallelism — the §6.3 communication wall).
    pub fn speedup(&self) -> f64 {
        if self.projected_runtime_ns <= 0.0 {
            return 1.0;
        }
        self.base_runtime_ns / self.projected_runtime_ns
    }

    /// Fraction of mailbox bytes that crossed nodes.
    pub fn cross_node_fraction(&self) -> f64 {
        let total = self.cross_node_bytes + self.intra_node_bytes;
        if total == 0 {
            return 0.0;
        }
        self.cross_node_bytes as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_pakman::MailboxFlushStats;

    fn telemetry(shards: usize, per_lane_bytes: u64) -> ShardingTelemetry {
        let mut flushes = Vec::new();
        for src in 0..shards {
            for dst in 0..shards {
                if src != dst {
                    flushes.push(MailboxFlushStats {
                        src,
                        dst,
                        src_iteration: 0,
                        transfers: 1,
                        bytes: per_lane_bytes,
                    });
                }
            }
        }
        ShardingTelemetry {
            shard_count: shards,
            initial_alive_per_shard: vec![100; shards],
            final_alive_per_shard: vec![50; shards],
            checked_per_shard: vec![1_000; shards],
            flushes,
        }
    }

    #[test]
    fn projection_conserves_bytes_and_splits_by_node() {
        let t = telemetry(8, 1_000);
        let model = NetworkModel::default();
        let p = model.project_multinode(&t, 4, 1_000_000.0);
        assert_eq!(
            p.cross_node_bytes + p.intra_node_bytes,
            t.total_mailbox_bytes()
        );
        // 8 shards on 4 nodes: 2 shards per node → of each shard's 7 lanes, 1
        // stays on-node (8 intra lanes of 56 total).
        assert_eq!(p.intra_node_bytes, 8_000);
        assert_eq!(p.cross_node_flushes, 48);
        assert!((p.cross_node_fraction() - 48.0 / 56.0).abs() < 1e-12);
    }

    #[test]
    fn cheap_network_scales_and_expensive_network_does_not() {
        let t = telemetry(8, 1_000);
        let base = 10_000_000.0;
        let cheap = NetworkModel {
            latency_ns: 100.0,
            bandwidth_gbps: 100.0,
        };
        let p = cheap.project_multinode(&t, 8, base);
        assert!(p.speedup() > 4.0, "speedup = {}", p.speedup());

        let expensive = NetworkModel {
            latency_ns: 1_000_000.0,
            bandwidth_gbps: 0.001,
        };
        let p = expensive.project_multinode(&t, 8, base);
        assert!(p.speedup() < 1.0, "speedup = {}", p.speedup());
    }

    #[test]
    fn single_node_projection_is_the_measured_run() {
        let t = telemetry(8, 1_000);
        let p = NetworkModel::default().project_multinode(&t, 1, 5_000.0);
        assert_eq!(p.cross_node_bytes, 0);
        assert_eq!(p.max_node_network_ns, 0.0);
        assert!((p.projected_runtime_ns - 5_000.0).abs() < 1e-6);
        assert!((p.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_models_are_rejected() {
        assert!(NetworkModel::default().validate().is_ok());
        assert!(NetworkModel {
            latency_ns: -1.0,
            ..NetworkModel::default()
        }
        .validate()
        .is_err());
        assert!(NetworkModel {
            bandwidth_gbps: 0.0,
            ..NetworkModel::default()
        }
        .validate()
        .is_err());
    }
}
