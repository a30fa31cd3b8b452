//! Host-speed calibration for the timed repetitions.
//!
//! The hosts this benchmark runs on share their last-level cache and memory
//! with other tenants, and the assembler is bound by random memory access: with
//! nothing else running in the VM its wall clock drifts by ±20 % over minutes
//! while a pure arithmetic loop stays within 2 %. A fixed random-access kernel
//! over a 32 MiB table, run straight before and after a repetition, drifts
//! with the assembler (an 8-minute recording, 20 s windows: assembly alone
//! spreads by 11.7 %, assembly / kernel by 2.6 %). `wall_s` is therefore each
//! repetition's wall clock scaled by `NOMINAL_S` / the kernel's time around it:
//! seconds on a host where the kernel takes `NOMINAL_S`. See the README.
//!
//! The kernel runs on as many threads as the workload, each with a table of
//! its own, and takes as long as the slowest: a vCPU that is slow or stolen
//! holds up a two-thread assembly and does not show in a one-thread kernel
//! (5 minutes of `threads = 2` assemblies, 20 s windows: alone 19 %, over a
//! one-thread kernel 7.1 %, over a two-thread kernel 4.8 %).

use std::hint::black_box;
use std::time::Instant;

/// 32 MiB: eight times this host's L2, an eighth of its shared L3.
const TABLE_WORDS: usize = 1 << 22;
const STEPS: u32 = 3_000_000;
/// What one kernel run takes on this host in a quiet stretch.
pub const NOMINAL_S: f64 = 0.028;

pub struct Calibration {
    /// One table per thread.
    tables: Vec<Vec<u64>>,
}

impl Calibration {
    /// Allocates `threads` tables and touches every page of them.
    pub fn new(threads: usize) -> Calibration {
        Calibration {
            tables: vec![vec![1; TABLE_WORDS]; threads.max(1)],
        }
    }

    /// Bytes the tables keep resident; they are in every `VmHWM` reading.
    pub fn resident_bytes(&self) -> u64 {
        (self.tables.len() * TABLE_WORDS * std::mem::size_of::<u64>()) as u64
    }

    /// Seconds the kernel takes on every table at once, one thread each. An
    /// untimed pass over the tables comes first: how much of them the assembly
    /// that just ran evicted is not the host's speed.
    pub fn run(&mut self) -> f64 {
        for table in &self.tables {
            black_box(table.iter().fold(0u64, |sum, &word| sum.wrapping_add(word)));
        }
        let started = Instant::now();
        let (first, rest) = self.tables.split_first_mut().expect("at least one table");
        std::thread::scope(|scope| {
            for table in rest {
                scope.spawn(|| kernel(table));
            }
            kernel(first);
        });
        started.elapsed().as_secs_f64()
    }
}

/// `STEPS` read-modify-writes at xorshift-random places of `table`.
fn kernel(table: &mut [u64]) {
    let mask = table.len() as u64 - 1;
    let mut x = 88_172_645_463_325_252u64;
    let mut sum = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x & mask) as usize];
        sum = sum.wrapping_add(*slot);
        *slot = sum;
    }
    black_box(sum);
}

/// A repetition's wall clock at the nominal host speed, given the kernel's
/// time straight before and straight after it.
pub fn at_nominal_speed(wall_s: f64, kernel_before_s: f64, kernel_after_s: f64) -> f64 {
    wall_s * NOMINAL_S / ((kernel_before_s + kernel_after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_cancels_a_uniform_slowdown() {
        let quiet = at_nominal_speed(2.0, NOMINAL_S, NOMINAL_S);
        let slow = at_nominal_speed(2.0 * 1.3, NOMINAL_S * 1.3, NOMINAL_S * 1.3);
        assert_eq!(quiet, 2.0);
        assert!((slow - quiet).abs() < 1e-12);
        // A host that slowed down during the repetition: the mean of the two.
        assert!((at_nominal_speed(2.4, NOMINAL_S, NOMINAL_S * 1.4) - 2.0).abs() < 1e-12);
        let mut calibration = Calibration::new(2);
        assert!(calibration.run() > 0.0);
        assert_eq!(calibration.resident_bytes(), 2 * (32 << 20));
    }
}
