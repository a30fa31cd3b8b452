//! Assembler configuration.

use crate::error::PakmanError;
use nmp_pak_genome::kmer::MAX_K;

/// A retired choice of shard schedule: both variants run the one lock-step
/// schedule, in which every shard runs iteration *i* before any shard starts
/// iteration *i + 1*, bit-identical to the single-graph engine (§4.2: the PEs
/// exchange TransferNodes once per iteration).
///
/// The repository benchmark's shard probe still names both variants, so the
/// type goes when that probe is rewritten (ROADMAP.md, item 4). It selects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardSchedule {
    /// The lock-step schedule.
    #[default]
    Lockstep,
    /// The lock-step schedule too: the name of a deleted engine.
    Async,
}

/// Sharded subgraph execution knob: how many owner-computes shards the
/// PaK-graph is partitioned into.
///
/// Every (k-1)-mer has one *owner* shard (a stable hash of its packed code,
/// [`nmp_pak_genome::shard_of_packed`]). The graph is built once and never
/// split: compaction runs on it as on a single graph, and an owner ledger
/// books each shard's P1 work and every TransferNode on its (source owner,
/// destination owner) lane, flushed once per iteration
/// ([`crate::shard::ShardingTelemetry`]). Output is **bit-identical** to
/// single-graph execution at every shard count — sharding measures where work
/// would happen, never changes what it computes. A shard maps onto one NMP
/// channel in the hardware model, so the natural production value is the
/// channel count ([`ShardConfig::per_channel`]; the paper's system has 8
/// channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardConfig {
    /// Number of owner-computes shards. `1` keeps the plain single-graph
    /// compaction; values above 1 run stage D through
    /// [`crate::shard::compact_sharded`] and record its telemetry.
    pub shard_count: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::single()
    }
}

impl ShardConfig {
    /// The default number of NMP channels (Table 2's 8-channel system), the
    /// natural shard count for channel-mapped execution.
    pub const DEFAULT_CHANNELS: usize = 8;

    /// Single-graph execution (no sharding).
    pub fn single() -> Self {
        ShardConfig { shard_count: 1 }
    }

    /// One shard per NMP channel for `channels` channels (clamped to ≥ 1).
    pub fn per_channel(channels: usize) -> Self {
        ShardConfig {
            shard_count: channels.max(1),
        }
    }

    /// `true` when the sharded execution engine is engaged.
    pub fn is_sharded(&self) -> bool {
        self.shard_count > 1
    }

    /// Validates the shard configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] for a zero shard count. A shard
    /// count exceeding the number of alive MacroNodes is *not* an error —
    /// some shards simply own zero nodes and their channels sit idle, which
    /// shows as zeros in `ShardingTelemetry::initial_alive_per_shard`.
    pub fn validate(&self) -> Result<(), PakmanError> {
        if self.shard_count == 0 {
            return Err(PakmanError::InvalidConfig {
                message: "shard count must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// The k-mer counter's memory bound: the byte budget its resident
/// value-partitioned buckets may occupy before the largest are evicted to disk
/// as sorted packed-`u64` runs.
///
/// There is one counter ([`crate::kmer_count`]): it consumes reads in waves,
/// folds each wave into one sorted run per bucket, evicts when its ledger is
/// overdrawn and fuses the count into the last merge. `None` is that counter
/// with a single wave and nothing to evict; `Some(bytes)` sizes the waves to
/// half the bound and turns eviction on. A bounded run that never overdraws
/// creates no file; one that does appends every evicted run to one temporary
/// run file. Counting with any budget is **bit-identical** to counting with none:
/// every finish feeds the same run-length count + prune, so the bound changes
/// where the bytes live, never what is counted. The budget is accounted
/// through the same [`crate::memory::MemoryBudget`] machinery as the batch
/// scheduler's `max_inflight_bytes` window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpillConfig {
    /// Byte budget for the counter's resident buckets. `None` counts with no
    /// bound (the default); `Some(bytes)` evicts the largest buckets once the
    /// resident extracted k-mers exceed the budget.
    pub max_resident_bytes: Option<u64>,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig::in_memory()
    }
}

impl SpillConfig {
    /// Counting with no bound (nothing is ever evicted).
    pub fn in_memory() -> Self {
        SpillConfig {
            max_resident_bytes: None,
        }
    }

    /// Counting under a resident-byte budget (external memory when it
    /// overflows).
    pub fn bounded(max_resident_bytes: u64) -> Self {
        SpillConfig {
            max_resident_bytes: Some(max_resident_bytes),
        }
    }

    /// `true` when counting runs under a byte budget.
    pub fn is_bounded(&self) -> bool {
        self.max_resident_bytes.is_some()
    }

    /// Validates the spill configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] for a zero-byte budget. A budget
    /// far smaller than the workload is *not* an error — the counter simply
    /// evicts after every extraction wave.
    pub fn validate(&self) -> Result<(), PakmanError> {
        if self.max_resident_bytes == Some(0) {
            return Err(PakmanError::InvalidConfig {
                message: "spill budget must be positive (use None for in-memory counting)"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// Configuration for the PaKman assembly pipeline.
///
/// The defaults follow the paper's setup (Table 2): k = 32 with 100 bp reads, a
/// compaction termination threshold of 100 000 MacroNodes (scaled down here because the
/// synthetic workloads are smaller), and k-mers observed fewer than twice pruned as
/// sequencing errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PakmanConfig {
    /// k-mer length (2..=32). The paper uses 32.
    pub k: usize,
    /// k-mers seen fewer than this many times are discarded as sequencing errors.
    pub min_kmer_count: u32,
    /// Iterative Compaction stops once the number of alive MacroNodes drops below this
    /// threshold (the paper uses 100 000 for the human genome; scale to the workload).
    pub compaction_node_threshold: usize,
    /// Hard cap on compaction iterations (safety net; the paper's run converges in 219).
    pub max_compaction_iterations: usize,
    /// Upper bound on the threads a data-parallel phase of stages B–D uses: the
    /// calling thread plus at most `threads - 1` spawned helpers. A helper is
    /// spawned only for a grain of work, so small phases run on the caller
    /// alone whatever this says, and `1` spawns nothing. Output never depends
    /// on it.
    pub threads: usize,
    /// Owner-computes sharding of the PaK-graph (see [`ShardConfig`]). The
    /// default is single-graph execution; any shard count produces bit-identical
    /// output.
    pub shards: ShardConfig,
    /// Read by nothing: every sharded run is lock-step (see [`ShardSchedule`]).
    pub shard_schedule: ShardSchedule,
    /// The k-mer counter's memory bound (see [`SpillConfig`]). The default is
    /// none; any budget produces bit-identical output.
    pub spill: SpillConfig,
    /// Record a [`crate::trace::CompactionTrace`] during Iterative Compaction so the
    /// memory-system simulators can replay it.
    pub record_trace: bool,
    /// Minimum contig length to report.
    pub min_contig_length: usize,
}

impl Default for PakmanConfig {
    fn default() -> Self {
        PakmanConfig {
            k: 32,
            min_kmer_count: 2,
            compaction_node_threshold: 100,
            max_compaction_iterations: 10_000,
            threads: 4,
            shards: ShardConfig::default(),
            shard_schedule: ShardSchedule::default(),
            spill: SpillConfig::default(),
            record_trace: false,
            min_contig_length: 0,
        }
    }
}

impl PakmanConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PakmanError::InvalidConfig`] if k is outside `2..=32`, the thread
    /// count is zero, or the iteration cap is zero.
    pub fn validate(&self) -> Result<(), PakmanError> {
        if self.k < 2 || self.k > MAX_K {
            return Err(PakmanError::InvalidConfig {
                message: format!("k = {} must lie in 2..={MAX_K}", self.k),
            });
        }
        if self.threads == 0 {
            return Err(PakmanError::InvalidConfig {
                message: "thread count must be at least 1".to_string(),
            });
        }
        if self.max_compaction_iterations == 0 {
            return Err(PakmanError::InvalidConfig {
                message: "max compaction iterations must be at least 1".to_string(),
            });
        }
        if self.min_kmer_count == 0 {
            return Err(PakmanError::InvalidConfig {
                message: "minimum k-mer count must be at least 1".to_string(),
            });
        }
        self.shards.validate()?;
        self.spill.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_follows_paper_parameters() {
        let cfg = PakmanConfig::default();
        assert_eq!(cfg.k, 32);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(PakmanConfig {
            k: 1,
            ..PakmanConfig::default()
        }
        .validate()
        .is_err());
        assert!(PakmanConfig {
            k: 33,
            ..PakmanConfig::default()
        }
        .validate()
        .is_err());
        assert!(PakmanConfig {
            threads: 0,
            ..PakmanConfig::default()
        }
        .validate()
        .is_err());
        assert!(PakmanConfig {
            max_compaction_iterations: 0,
            ..PakmanConfig::default()
        }
        .validate()
        .is_err());
        assert!(PakmanConfig {
            min_kmer_count: 0,
            ..PakmanConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn shard_config_rejects_zero_and_clamps_channels() {
        assert!(ShardConfig { shard_count: 0 }.validate().is_err());
        assert!(PakmanConfig {
            shards: ShardConfig { shard_count: 0 },
            ..PakmanConfig::default()
        }
        .validate()
        .is_err());
        assert!(ShardConfig::single().validate().is_ok());
        assert!(!ShardConfig::single().is_sharded());
        assert_eq!(ShardConfig::per_channel(0).shard_count, 1);
        assert_eq!(
            ShardConfig::per_channel(ShardConfig::DEFAULT_CHANNELS).shard_count,
            ShardConfig::DEFAULT_CHANNELS
        );
        assert!(ShardConfig::per_channel(ShardConfig::DEFAULT_CHANNELS).is_sharded());
        // The default configuration keeps the single-graph path.
        assert_eq!(PakmanConfig::default().shards, ShardConfig::single());
    }

    #[test]
    fn shard_schedule_defaults_to_lockstep() {
        assert_eq!(ShardSchedule::default(), ShardSchedule::Lockstep);
        assert_eq!(
            PakmanConfig::default().shard_schedule,
            ShardSchedule::Lockstep
        );
        // The retired name still validates: the benchmark's shard probe sets it.
        let renamed = PakmanConfig {
            shard_schedule: ShardSchedule::Async,
            shards: ShardConfig::per_channel(ShardConfig::DEFAULT_CHANNELS),
            ..PakmanConfig::default()
        };
        assert!(renamed.validate().is_ok());
    }

    #[test]
    fn spill_config_validates_budget() {
        assert!(SpillConfig::in_memory().validate().is_ok());
        assert!(!SpillConfig::in_memory().is_bounded());
        assert!(SpillConfig::bounded(64 * 1024).validate().is_ok());
        assert!(SpillConfig::bounded(64 * 1024).is_bounded());
        assert!(SpillConfig::bounded(0).validate().is_err());
        assert!(PakmanConfig {
            spill: SpillConfig::bounded(0),
            ..PakmanConfig::default()
        }
        .validate()
        .is_err());
        // The default configuration counts with no bound.
        assert_eq!(PakmanConfig::default().spill, SpillConfig::in_memory());
    }
}
