//! Property tests for the MacroNode layout, hand-rolled over a seeded
//! xorshift generator (the harness of `genome/tests/word_props.rs`;
//! `proptest` is unavailable offline).

use nmp_pak_memsim::{DramConfig, NodeLayout};

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

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// The organizations the properties run under: the paper's, one channel, and
/// an odd channel count with a wider line.
fn configs() -> [DramConfig; 3] {
    let paper = DramConfig::default();
    [
        paper,
        DramConfig {
            channels: 1,
            ..paper
        },
        DramConfig {
            channels: 3,
            line_bytes: 128,
            ..paper
        },
    ]
}

/// The MacroNode layout never overlaps allocations within a DIMM, keeps every
/// allocation inside its DIMM's region and at least as large as the node, and
/// assigns consecutive slots to DIMMs in ascending order, an equal number each
/// (Fig. 11's one boundary per DIMM).
#[test]
fn node_layout_is_disjoint() {
    let mut rng = Rng::new(0x001A_7007);
    for config in configs() {
        for _ in 0..256 {
            let len = rng.range(1, 120) as usize;
            let sizes: Vec<usize> = (0..len).map(|_| rng.range(1, 4_096) as usize).collect();
            let layout = NodeLayout::new(&sizes, &config);
            assert_eq!(layout.slot_count(), len);
            let per_dimm = len.div_ceil(config.channels);

            let mut per_dimm_ranges = vec![Vec::new(); config.channels];
            for (slot, &size) in sizes.iter().enumerate() {
                let dimm = layout.dimm_of(slot);
                assert_eq!(dimm, slot / per_dimm, "slot {slot} of {len}");
                assert!(layout.allocated_size(slot) >= size);
                assert_eq!(layout.allocated_size(slot) % config.line_bytes, 0);
                let start = layout.address_of(slot);
                let end = start + layout.allocated_size(slot) as u64;
                let region = dimm as u64 * layout.dimm_capacity();
                assert!(start >= region && end <= region + layout.dimm_capacity());
                per_dimm_ranges[dimm].push((start, end));
            }
            for ranges in &mut per_dimm_ranges {
                ranges.sort_unstable();
                for pair in ranges.windows(2) {
                    assert!(pair[0].1 <= pair[1].0, "overlapping allocations");
                }
            }
        }
    }
}
