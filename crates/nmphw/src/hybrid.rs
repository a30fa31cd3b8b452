//! Hybrid CPU-NMP processing (§4.3).
//!
//! MacroNode sizes are highly skewed: 92.6 % of nodes fit in 256 B–1 KB and only a
//! tiny tail grows to tens of KB (Figs. 7–8). Sizing every PE buffer for the tail
//! would waste area, so the runtime offloads nodes larger than the threshold (1 KB)
//! to the host CPU, overlapping their processing with the NMP PEs and synchronizing
//! both sides at every iteration boundary.

use crate::config::NmpConfig;
use nmp_pak_pakman::trace::IterationTrace;

/// The split of one iteration's MacroNodes between the NMP PEs and the host CPU.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HybridSchedule {
    /// Slots processed by the NMP PEs (size ≤ threshold).
    pub nmp_slots: Vec<usize>,
    /// Slots offloaded to the CPU (size > threshold).
    pub cpu_slots: Vec<usize>,
    /// Bytes of MacroNode data handled by the NMP side.
    pub nmp_bytes: u64,
    /// Bytes of MacroNode data handled by the CPU side.
    pub cpu_bytes: u64,
}

impl HybridSchedule {
    /// Fraction of MacroNodes offloaded to the CPU.
    pub fn cpu_node_fraction(&self) -> f64 {
        let total = self.nmp_slots.len() + self.cpu_slots.len();
        if total == 0 {
            return 0.0;
        }
        self.cpu_slots.len() as f64 / total as f64
    }
}

/// Splits each iteration's node set by the offload threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridScheduler {
    /// Nodes strictly larger than this many bytes go to the CPU.
    pub threshold_bytes: usize,
}

impl HybridScheduler {
    /// Creates a scheduler from the NMP configuration.
    pub fn from_config(config: &NmpConfig) -> Self {
        HybridScheduler {
            threshold_bytes: config.cpu_offload_threshold_bytes,
        }
    }

    /// Splits one iteration's checks into NMP and CPU work.
    pub fn split(&self, iteration: &IterationTrace) -> HybridSchedule {
        let mut schedule = HybridSchedule::default();
        for check in &iteration.checks {
            if check.size_bytes > self.threshold_bytes {
                schedule.cpu_slots.push(check.slot);
                schedule.cpu_bytes += check.size_bytes as u64;
            } else {
                schedule.nmp_slots.push(check.slot);
                schedule.nmp_bytes += check.size_bytes as u64;
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_pak_pakman::trace::NodeCheck;

    fn iteration_with_sizes(sizes: &[usize]) -> IterationTrace {
        IterationTrace {
            checks: sizes
                .iter()
                .enumerate()
                .map(|(slot, &size_bytes)| NodeCheck {
                    slot,
                    size_bytes,
                    invalidated: false,
                })
                .collect(),
            transfers: vec![],
            updates: vec![],
        }
    }

    #[test]
    fn split_respects_the_threshold() {
        let scheduler = HybridScheduler {
            threshold_bytes: 1024,
        };
        let schedule = scheduler.split(&iteration_with_sizes(&[256, 800, 1024, 1500, 40_000]));
        assert_eq!(schedule.nmp_slots, vec![0, 1, 2]);
        assert_eq!(schedule.cpu_slots, vec![3, 4]);
        assert_eq!(schedule.nmp_bytes, 256 + 800 + 1024);
        assert_eq!(schedule.cpu_bytes, 1500 + 40_000);
        assert!((schedule.cpu_node_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn skewed_distributions_offload_few_nodes() {
        // 99% small nodes, 1% oversized: the CPU handles a tiny node fraction, as in
        // the paper's analysis (only nodes > 1 KB, ≤ 7.4 % of the population).
        let mut sizes = vec![400usize; 990];
        sizes.extend(vec![4_000usize; 10]);
        let scheduler = HybridScheduler {
            threshold_bytes: 1024,
        };
        let schedule = scheduler.split(&iteration_with_sizes(&sizes));
        assert!(schedule.cpu_node_fraction() < 0.02);
        assert_eq!(schedule.cpu_slots.len(), 10);
    }

    #[test]
    fn from_config_uses_the_configured_threshold() {
        let scheduler = HybridScheduler::from_config(&NmpConfig::default());
        assert_eq!(scheduler.threshold_bytes, 1024);
    }

    #[test]
    fn empty_iteration_is_safe() {
        let scheduler = HybridScheduler {
            threshold_bytes: 1024,
        };
        let schedule = scheduler.split(&iteration_with_sizes(&[]));
        assert_eq!(schedule.cpu_node_fraction(), 0.0);
        assert!(schedule.nmp_slots.is_empty());
    }
}
