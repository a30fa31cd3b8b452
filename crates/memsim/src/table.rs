//! Per-size lookup tables for the simulated backends' pure per-size costs.
//!
//! Every backend charges each trace event a cost that depends only on the
//! event's byte size and the backend's fixed configuration: a CPU visit's
//! stall components, a PE's cycle count, the line-rounded bytes an access
//! moves. A [`SizeTable`] evaluates such a function once per size up to
//! [`SIZE_TABLE_CAP`] when a simulation starts, and a lookup is then one
//! indexed load instead of a `ceil`, a division and a few multiplications per
//! event. Sizes above the cap call the function itself, so a lookup returns
//! exactly what the function returns for every size: the table changes the
//! host time of a simulation, never a simulated number.

/// The largest size tabulated. Every node a traced assembly produces is far
/// below it (the `Workload::small` trace's largest is 740 bytes), and it sits
/// above the default 1 KiB CPU-offload threshold so offloaded sizes up to it
/// are tabulated too. A table of 40-byte entries stays under 100 KB.
pub const SIZE_TABLE_CAP: usize = 2_048;

/// A pure function of a byte size, tabulated for sizes `0..=SIZE_TABLE_CAP`.
#[derive(Debug, Clone)]
pub struct SizeTable<T, F> {
    values: Vec<T>,
    f: F,
}

impl<T: Copy, F: Fn(usize) -> T> SizeTable<T, F> {
    /// Evaluates `f` once for every size up to [`SIZE_TABLE_CAP`].
    pub fn new(f: F) -> SizeTable<T, F> {
        SizeTable {
            values: (0..=SIZE_TABLE_CAP).map(&f).collect(),
            f,
        }
    }

    /// `f(size)`: the tabulated value, or a call above the cap.
    #[inline]
    pub fn get(&self, size: usize) -> T {
        match self.values.get(size) {
            Some(&value) => value,
            None => (self.f)(size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn lookups_equal_the_function_at_below_and_above_the_cap() {
        let f = |size: usize| (size as f64 / 64.0).ceil() * 95.0 + size as f64 * 0.02;
        let table = SizeTable::new(f);
        for size in [0, 1, 63, 64, 65, 1_024, SIZE_TABLE_CAP - 1, SIZE_TABLE_CAP]
            .into_iter()
            .chain([
                SIZE_TABLE_CAP + 1,
                3 * SIZE_TABLE_CAP + 7,
                40_000,
                usize::MAX,
            ])
        {
            assert_eq!(table.get(size).to_bits(), f(size).to_bits(), "size {size}");
        }
    }

    #[test]
    fn the_function_runs_once_per_tabulated_size_and_again_only_above_the_cap() {
        let calls = Cell::new(0usize);
        let table = SizeTable::new(|size: usize| {
            calls.set(calls.get() + 1);
            size as u64 * 3
        });
        assert_eq!(calls.get(), SIZE_TABLE_CAP + 1);
        assert_eq!(table.get(SIZE_TABLE_CAP), 3 * SIZE_TABLE_CAP as u64);
        assert_eq!(calls.get(), SIZE_TABLE_CAP + 1);
        assert_eq!(
            table.get(SIZE_TABLE_CAP + 1),
            3 * (SIZE_TABLE_CAP as u64 + 1)
        );
        assert_eq!(calls.get(), SIZE_TABLE_CAP + 2);
    }
}
