//! Sharded subgraph execution: assemble the same workload on the single graph
//! and on owner-computes shards mapped onto NMP channels, verify the outputs
//! are bit-identical, and print the *measured* per-shard load and inter-shard
//! mailbox traffic the hardware model consumes.
//!
//! This is the CI smoke test for the sharded execution model: it exits
//! non-zero if any shard count changes a single output bit, if the mailbox
//! moves no cross-shard traffic, or if the channel model sees no bridge bytes.
//!
//! ```text
//! cargo run --release --example sharded_assembly
//! ```

use nmp_pak::core::backend::SystemConfig;
use nmp_pak::genome::{ReadSimulator, ReferenceGenome, SequencerConfig};
use nmp_pak::nmphw::{NetworkModel, NmpSystem};
use nmp_pak::pakman::{PakmanAssembler, PakmanConfig, ShardConfig, ShardSchedule};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic 40 kbp workload at 25x.
    let genome = ReferenceGenome::builder().length(40_000).seed(23).build()?;
    let reads = ReadSimulator::new(SequencerConfig {
        coverage: 25.0,
        substitution_error_rate: 0.001,
        seed: 29,
        ..SequencerConfig::default()
    })
    .simulate(&genome)?;
    let config = |shards: ShardConfig| PakmanConfig {
        k: 21,
        min_kmer_count: 2,
        compaction_node_threshold: 100,
        threads: 2,
        record_trace: false,
        shards,
        ..PakmanConfig::default()
    };

    // 2. The single-graph reference.
    let single = PakmanAssembler::new(config(ShardConfig::single())).assemble(&reads)?;
    println!(
        "single graph: {} contigs, N50 {}, {} -> {} MacroNodes over {} iterations",
        single.contigs.len(),
        single.stats.n50,
        single.compaction.initial_nodes,
        single.compaction.final_nodes,
        single.compaction.iteration_count(),
    );

    // 3. Sharded runs: 2 shards and one shard per channel of the paper's
    //    8-channel system. Output must not change by a single bit.
    let system_config = SystemConfig::default();
    let nmp_system = NmpSystem::new(system_config.nmp, system_config.dram, system_config.cpu);
    for shards in [ShardConfig::per_channel(2), ShardConfig::default_channels()] {
        let sharded = PakmanAssembler::new(config(shards)).assemble(&reads)?;
        assert_eq!(sharded.contigs, single.contigs, "contigs diverged");
        assert_eq!(sharded.stats, single.stats, "assembly stats diverged");
        assert_eq!(
            sharded.compaction, single.compaction,
            "compaction stats diverged"
        );
        let telemetry = sharded
            .sharding
            .expect("sharded runs record shard telemetry");
        assert!(
            telemetry.total_cross_shard_bytes() > 0,
            "sharded execution must route cross-shard mailbox traffic"
        );
        // Over-partitioning shows here, not on stderr: a shard that owns no
        // k-mers starts at zero and its channel idles.
        let idle = telemetry.initial_alive_per_shard.iter();
        println!(
            "\n{} shards ({} idle): bit-identical ✓   per-shard alive (final): {:?}",
            telemetry.shard_count,
            idle.filter(|&&alive| alive == 0).count(),
            telemetry.final_alive_per_shard,
        );
        println!(
            "  P1 load imbalance {:.3}, mailbox {} B/iter avg, {:.1}% cross-shard",
            telemetry.load_imbalance(),
            telemetry.total_mailbox_bytes() / telemetry.mailbox.len().max(1) as u64,
            telemetry.cross_shard_fraction() * 100.0,
        );

        // 4. Fold the measured telemetry onto the NMP channel model: this is
        //    what replaces the uniform-load assumption in the cost models.
        let channel_load = nmp_system.channel_load_from_sharding(&telemetry);
        println!(
            "  channels: imbalance {:.3}, bridge traffic {} B ({:.1}% of mailbox bytes)",
            channel_load.imbalance(),
            channel_load.cross_channel_bytes,
            channel_load.cross_channel_fraction() * 100.0,
        );
        if telemetry.shard_count > 1 {
            assert!(
                channel_load.cross_channel_bytes > 0,
                "multi-channel mapping must see bridge traffic"
            );
        }
    }

    // 5. The async schedule: no all-shards barrier, eager bounded mailbox
    //    flushes — verified-equivalent, so the contigs still must not change
    //    by a single bit, and the flush ledger must match lock-step's.
    let async_config = PakmanConfig {
        shard_schedule: ShardSchedule::Async,
        ..config(ShardConfig::default_channels())
    };
    let lockstep = PakmanAssembler::new(config(ShardConfig::default_channels()))
        .assemble(&reads)?
        .sharding
        .expect("sharded runs record shard telemetry");
    let asynchronous = PakmanAssembler::new(async_config).assemble(&reads)?;
    assert_eq!(
        asynchronous.contigs, single.contigs,
        "async contigs diverged"
    );
    assert_eq!(
        asynchronous.stats, single.stats,
        "async assembly stats diverged"
    );
    let telemetry = asynchronous
        .sharding
        .expect("sharded runs record shard telemetry");
    assert_eq!(
        telemetry.flushes, lockstep.flushes,
        "async flush ledger diverged from lock-step"
    );
    println!(
        "\nasync schedule at {} shards: bit-identical ✓   {} mailbox flushes (ledger = lock-step)",
        telemetry.shard_count,
        telemetry.flushes.len(),
    );
    println!(
        "  critical path from measured rounds: barriered {:.3} ms, barrier-free {:.3} ms ({:.2}x)",
        telemetry.lockstep_critical_path_nanos() as f64 / 1e6,
        telemetry.async_critical_path_nanos() as f64 / 1e6,
        telemetry.lockstep_critical_path_nanos() as f64
            / telemetry.async_critical_path_nanos().max(1) as f64,
    );

    // 6. Project the measured run onto small clusters: the network model
    //    charges the per-flush ledger over the modeled interconnect.
    let network = NetworkModel::default();
    let base_ns = telemetry.async_critical_path_nanos() as f64;
    for nodes in [2usize, 4, 8] {
        let projection = network.project_multinode(&telemetry, nodes, base_ns);
        println!(
            "  {} nodes: projected speedup {:.2}x, {:.1}% of mailbox bytes cross nodes",
            nodes,
            projection.speedup(),
            projection.cross_node_fraction() * 100.0,
        );
        assert!(
            projection.cross_node_bytes > 0,
            "multi-node folding must see cross-node traffic"
        );
    }

    println!("\nsharded execution verified: all shard counts and schedules bit-identical");
    Ok(())
}
