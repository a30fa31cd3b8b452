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

/// The MacroNode layout assigns consecutive slots to DIMMs in ascending
/// order, an equal number each but the last (Fig. 11's one boundary per
/// DIMM), round-robins them over a DIMM's PEs, and rounds every access up to
/// whole lines.
#[test]
fn node_layout_partitions_slots_across_dimms_and_pes() {
    let mut rng = Rng::new(0x001A_7007);
    for config in configs() {
        for _ in 0..256 {
            let len = rng.range(1, 120) as usize;
            let sizes: Vec<usize> = (0..len).map(|_| rng.range(1, 4_096) as usize).collect();
            let layout = NodeLayout::new(&sizes, &config);
            assert_eq!(layout.slot_count(), len);
            assert_eq!(layout.dimm_count(), config.channels);
            let per_dimm = len.div_ceil(config.channels);
            let pes = rng.range(1, 40) as usize;

            let mut per_dimm_slots = vec![0usize; config.channels];
            for (slot, &size) in sizes.iter().enumerate() {
                let dimm = layout.dimm_of(slot);
                assert_eq!(dimm, slot / per_dimm, "slot {slot} of {len}");
                per_dimm_slots[dimm] += 1;
                assert_eq!(layout.pe_of(slot, pes), slot % pes);
                let bytes = layout.access_bytes(size);
                assert!(bytes >= size as u64 && bytes < (size + config.line_bytes) as u64);
                assert_eq!(bytes % config.line_bytes as u64, 0);
            }
            // Full DIMMs, then at most one partial one, then empty ones.
            let partial = per_dimm_slots.iter().filter(|&&n| 0 < n && n < per_dimm);
            assert!(partial.count() <= 1, "{per_dimm_slots:?}");
            assert!(per_dimm_slots.windows(2).all(|w| w[0] >= w[1]));
        }
    }
}
