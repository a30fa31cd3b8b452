//! Property tests for grid enumeration, hand-rolled over a seeded generator
//! (the `proptest` crate is unavailable in the offline build environment):
//! determinism (same grid ⇒ same cell order), no duplicate cells, filter
//! soundness, composition counting laws, and empty-grid edge cases.

use nmp_pak_recipe::{Axis, Filter, Grid, RecipeError, ScenarioSpec};

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Distinct random values for one knob (distinct so the axis itself never
/// enumerates duplicate cells).
fn distinct_values(rng: &mut Rng, count: usize, max: usize) -> Vec<usize> {
    let mut values = Vec::with_capacity(count);
    while values.len() < count {
        let v = rng.below(max) + 1;
        if !values.contains(&v) {
            values.push(v);
        }
    }
    values
}

/// A random 1–3 level grid over disjoint knobs, returning the expected cell
/// count (before filtering).
fn random_grid(rng: &mut Rng) -> (Grid, usize) {
    let t_count = rng.below(3) + 1;
    let threads = distinct_values(rng, t_count, 16);
    let k_count = rng.below(3) + 1;
    let ks = distinct_values(rng, k_count, 30);
    let s_count = rng.below(3) + 1;
    let shards = distinct_values(rng, s_count, 12);
    let (t_len, k_len, s_len) = (threads.len(), ks.len(), shards.len());
    let t = Grid::axis(Axis::threads(&threads));
    let k = Grid::axis(Axis::k(&ks.iter().map(|&v| v + 2).collect::<Vec<_>>()));
    let s = Grid::axis(Axis::shards(&shards));
    let all = Filter::new("all", |_| true);
    match rng.below(4) {
        0 => (t.cross(k), t_len * k_len),
        1 => (t.cross(k).cross(s), t_len * k_len * s_len),
        2 => (s.cross(t.cross(k)), s_len * t_len * k_len),
        _ => (t.filter(all).cross(s), t_len * s_len),
    }
}

#[test]
fn enumeration_is_deterministic_across_calls() {
    let base = ScenarioSpec::default();
    for seed in 1..=60u64 {
        let mut rng_a = Rng::new(seed);
        let mut rng_b = Rng::new(seed);
        let (grid_a, _) = random_grid(&mut rng_a);
        let (grid_b, _) = random_grid(&mut rng_b);
        let first = grid_a.scenarios(&base).unwrap();
        let second = grid_a.scenarios(&base).unwrap();
        let rebuilt = grid_b.scenarios(&base).unwrap();
        assert_eq!(first, second, "seed {seed}: same grid, different cells");
        assert_eq!(first, rebuilt, "seed {seed}: same recipe, different cells");
    }
}

#[test]
fn enumeration_never_yields_duplicate_cells() {
    let base = ScenarioSpec::default();
    for seed in 1..=60u64 {
        let mut rng = Rng::new(seed);
        let (grid, expected) = random_grid(&mut rng);
        let specs = grid.scenarios(&base).unwrap();
        assert_eq!(specs.len(), expected, "seed {seed}: wrong cell count");
        let mut labels: Vec<String> = specs.iter().map(ScenarioSpec::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), specs.len(), "seed {seed}: duplicate cells");
    }
}

#[test]
fn filter_is_sound_and_order_preserving() {
    let base = ScenarioSpec::default();
    for seed in 1..=60u64 {
        let mut rng = Rng::new(seed);
        let (grid, _) = random_grid(&mut rng);
        let cutoff = rng.below(16) + 1;
        let unfiltered = grid.clone().scenarios(&base).unwrap();
        let filtered = grid
            .filter(Filter::new(format!("threads <= {cutoff}"), move |s| {
                s.threads <= cutoff
            }))
            .scenarios(&base)
            .unwrap();

        // Soundness: every surviving cell satisfies the predicate.
        assert!(filtered.iter().all(|s| s.threads <= cutoff));
        // Completeness + order: the filtered list is exactly the satisfying
        // subsequence of the unfiltered enumeration.
        let expected: Vec<&ScenarioSpec> =
            unfiltered.iter().filter(|s| s.threads <= cutoff).collect();
        assert_eq!(filtered.iter().collect::<Vec<_>>(), expected);
    }
}

#[test]
fn cross_rejects_a_knob_bound_on_both_sides() {
    let base = ScenarioSpec::default();
    let threads = || Grid::axis(Axis::threads(&[1, 2, 4]));
    let ok = threads().cross(Grid::axis(Axis::k(&[17, 21, 25])));
    assert_eq!(ok.scenarios(&base).unwrap().len(), 9);
    // However deep the right side nests the second binding.
    let nested = Grid::axis(Axis::k(&[17])).cross(Grid::axis(Axis::threads(&[8])));
    assert!(matches!(
        threads().cross(nested).scenarios(&base),
        Err(RecipeError::DuplicateAxis { .. })
    ));
}

#[test]
fn empty_grids_enumerate_zero_cells_everywhere() {
    let base = ScenarioSpec::default();
    let empty = Grid::axis(Axis::threads(&[]));
    assert!(empty.clone().scenarios(&base).unwrap().is_empty());
    // Crossing with empty annihilates, from either side.
    assert!(Grid::axis(Axis::k(&[17, 21]))
        .cross(empty.clone())
        .scenarios(&base)
        .unwrap()
        .is_empty());
    assert!(empty
        .clone()
        .cross(Grid::axis(Axis::k(&[17, 21])))
        .scenarios(&base)
        .unwrap()
        .is_empty());
    // Filtering empty stays empty.
    assert!(empty
        .filter(Filter::new("anything", |_| true))
        .scenarios(&base)
        .unwrap()
        .is_empty());
}

#[test]
fn filter_that_drops_everything_is_an_empty_grid_not_an_error() {
    let base = ScenarioSpec::default();
    let specs = Grid::axis(Axis::threads(&[1, 2, 4]))
        .filter(Filter::new("none", |_| false))
        .scenarios(&base)
        .unwrap();
    assert!(specs.is_empty());
}
