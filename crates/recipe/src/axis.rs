//! Named axes: the typed value lists grids are composed from.
//!
//! An [`Axis`] binds one scenario knob ([`AxisKey`]) to a list of candidate
//! values; composition ([`crate::Grid`]) decides how axes combine into cells.

use crate::spec::{ScenarioSpec, ScheduleSpec};
use nmp_pak_core::backend::BackendId;
use nmp_pak_pakman::ShardSchedule;

/// Identity of one scenario knob. Grid composition rejects a cell that binds
/// the same key twice, so every key appears at most once per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AxisKey {
    /// Reference genome length.
    GenomeLength,
    /// Sequencing coverage.
    Coverage,
    /// Substitution error rate.
    ErrorRate,
    /// Genome seed.
    Seed,
    /// K-mer length.
    K,
    /// Worker threads.
    Threads,
    /// Shard count.
    Shards,
    /// Shard compaction schedule (lock-step or async).
    ShardSchedule,
    /// Batch schedule.
    BatchSchedule,
    /// Simulated hardware backend.
    Backend,
    /// Spill budget (resident-byte cap).
    SpillBudget,
}

impl AxisKey {
    /// The knob's name as it appears in labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            AxisKey::GenomeLength => "genome_length",
            AxisKey::Coverage => "coverage",
            AxisKey::ErrorRate => "error_rate",
            AxisKey::Seed => "seed",
            AxisKey::K => "k",
            AxisKey::Threads => "threads",
            AxisKey::Shards => "shards",
            AxisKey::ShardSchedule => "shard_schedule",
            AxisKey::BatchSchedule => "batch_schedule",
            AxisKey::Backend => "backend",
            AxisKey::SpillBudget => "spill_budget",
        }
    }
}

impl std::fmt::Display for AxisKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One binding of a knob to a concrete value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setting {
    /// Genome length in bases.
    GenomeLength(usize),
    /// Coverage (×).
    Coverage(f64),
    /// Substitution error rate.
    ErrorRate(f64),
    /// Genome seed.
    Seed(u64),
    /// K-mer length.
    K(usize),
    /// Worker threads.
    Threads(usize),
    /// Shard count.
    Shards(usize),
    /// Shard compaction schedule.
    ShardSchedule(ShardSchedule),
    /// Batch schedule.
    BatchSchedule(ScheduleSpec),
    /// Hardware backend.
    Backend(BackendId),
    /// Spill budget; `None` keeps counting in memory.
    SpillBudget(Option<u64>),
}

impl Setting {
    /// The knob this value binds.
    pub fn key(&self) -> AxisKey {
        match self {
            Setting::GenomeLength(_) => AxisKey::GenomeLength,
            Setting::Coverage(_) => AxisKey::Coverage,
            Setting::ErrorRate(_) => AxisKey::ErrorRate,
            Setting::Seed(_) => AxisKey::Seed,
            Setting::K(_) => AxisKey::K,
            Setting::Threads(_) => AxisKey::Threads,
            Setting::Shards(_) => AxisKey::Shards,
            Setting::ShardSchedule(_) => AxisKey::ShardSchedule,
            Setting::BatchSchedule(_) => AxisKey::BatchSchedule,
            Setting::Backend(_) => AxisKey::Backend,
            Setting::SpillBudget(_) => AxisKey::SpillBudget,
        }
    }

    /// Applies this binding to a scenario, returning the updated scenario.
    pub fn apply(&self, mut spec: ScenarioSpec) -> ScenarioSpec {
        match *self {
            Setting::GenomeLength(v) => spec.genome_length = v,
            Setting::Coverage(v) => spec.coverage = v,
            Setting::ErrorRate(v) => spec.error_rate = v,
            Setting::Seed(v) => spec.seed = v,
            Setting::K(v) => spec.k = v,
            Setting::Threads(v) => spec.threads = v,
            Setting::Shards(v) => spec.shards = v,
            Setting::ShardSchedule(v) => spec.shard_schedule = v,
            Setting::BatchSchedule(v) => spec.schedule = v,
            Setting::Backend(v) => spec.backend = Some(v),
            Setting::SpillBudget(v) => spec.spill_budget = v,
        }
        spec
    }
}

/// A named list of candidate values for one knob. An empty axis enumerates
/// zero cells (and anything crossed with it is empty too).
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    key: AxisKey,
    values: Vec<Setting>,
}

impl Axis {
    fn new(key: AxisKey, values: Vec<Setting>) -> Axis {
        debug_assert!(values.iter().all(|v| v.key() == key));
        Axis { key, values }
    }

    /// Genome lengths in bases.
    pub fn genome_length(values: &[usize]) -> Axis {
        Axis::new(
            AxisKey::GenomeLength,
            values.iter().map(|&v| Setting::GenomeLength(v)).collect(),
        )
    }

    /// Coverage values (×).
    pub fn coverage(values: &[f64]) -> Axis {
        Axis::new(
            AxisKey::Coverage,
            values.iter().map(|&v| Setting::Coverage(v)).collect(),
        )
    }

    /// Substitution error rates.
    pub fn error_rate(values: &[f64]) -> Axis {
        Axis::new(
            AxisKey::ErrorRate,
            values.iter().map(|&v| Setting::ErrorRate(v)).collect(),
        )
    }

    /// Genome seeds.
    pub fn seed(values: &[u64]) -> Axis {
        Axis::new(
            AxisKey::Seed,
            values.iter().map(|&v| Setting::Seed(v)).collect(),
        )
    }

    /// K-mer lengths.
    pub fn k(values: &[usize]) -> Axis {
        Axis::new(AxisKey::K, values.iter().map(|&v| Setting::K(v)).collect())
    }

    /// Worker thread counts.
    pub fn threads(values: &[usize]) -> Axis {
        Axis::new(
            AxisKey::Threads,
            values.iter().map(|&v| Setting::Threads(v)).collect(),
        )
    }

    /// Shard counts.
    pub fn shards(values: &[usize]) -> Axis {
        Axis::new(
            AxisKey::Shards,
            values.iter().map(|&v| Setting::Shards(v)).collect(),
        )
    }

    /// Shard compaction schedules.
    pub fn shard_schedule(values: &[ShardSchedule]) -> Axis {
        Axis::new(
            AxisKey::ShardSchedule,
            values.iter().map(|&v| Setting::ShardSchedule(v)).collect(),
        )
    }

    /// Batch schedules.
    pub fn batch_schedule(values: &[ScheduleSpec]) -> Axis {
        Axis::new(
            AxisKey::BatchSchedule,
            values.iter().map(|&v| Setting::BatchSchedule(v)).collect(),
        )
    }

    /// Hardware backends.
    pub fn backend(values: &[BackendId]) -> Axis {
        Axis::new(
            AxisKey::Backend,
            values.iter().map(|&v| Setting::Backend(v)).collect(),
        )
    }

    /// Spill budgets (`None` = in-memory counting).
    pub fn spill_budget(values: &[Option<u64>]) -> Axis {
        Axis::new(
            AxisKey::SpillBudget,
            values.iter().map(|&v| Setting::SpillBudget(v)).collect(),
        )
    }

    /// The knob this axis varies.
    pub fn key(&self) -> AxisKey {
        self.key
    }

    /// Number of candidate values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has no values (enumerates zero cells).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub(crate) fn settings(&self) -> &[Setting] {
        &self.values
    }
}
