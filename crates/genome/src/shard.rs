//! Deterministic k-mer → shard ownership (the owner-computes decomposition).
//!
//! Distributed PaKman partitions the MacroNode graph across MPI ranks by hashing
//! each (k-1)-mer; NMP-PaK maps the same decomposition onto NMP channels: every
//! MacroNode has exactly one *owner* shard, determined by a stable hash of its
//! packed 2-bit code, and all work on a node (invalidation checks, TransferNode
//! application) happens on the owner. The function here is that hash: a pure
//! function of the packed code and the shard count — independent of thread
//! count, batch boundaries, or platform — so shard assignment can never perturb
//! the determinism contract.
//!
//! The hash is the SplitMix64 finalizer: cheap (three multiplies/xors), well
//! mixed even though packed (k-1)-mers occupy only the low `2·(k-1)` bits, and
//! frozen forever (changing it would silently re-partition every recorded
//! workload).

use crate::kmer::Kmer;

/// Mixes a packed 2-bit code into a uniformly distributed 64-bit value
/// (SplitMix64 finalizer). Exposed so layout tooling can reproduce the shard
/// assignment without a [`Kmer`] in hand.
#[inline]
pub fn mix_packed(packed: u64) -> u64 {
    let mut x = packed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard that owns the (k-1)-mer with this packed code, out of
/// `shard_count` shards.
///
/// One shard (or the configuration error of zero, kept panic-free) owns
/// everything: no mix and no 64-bit division on the one-shard hot path.
#[inline]
pub fn shard_of_packed(packed: u64, shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0;
    }
    (mix_packed(packed) % shard_count as u64) as usize
}

/// The shard that owns `k1mer` (its MacroNode's home), out of `shard_count`
/// shards. See [`shard_of_packed`].
#[inline]
pub fn shard_of_k1mer(k1mer: &Kmer, shard_count: usize) -> usize {
    shard_of_packed(k1mer.packed(), shard_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 32] {
            for packed in 0..4096u64 {
                let a = shard_of_packed(packed, shards);
                let b = shard_of_packed(packed, shards);
                assert_eq!(a, b, "ownership must be a pure function");
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn one_shard_owns_everything() {
        for packed in 0..1024u64 {
            assert_eq!(shard_of_packed(packed, 1), 0);
        }
        // Clamped: a zero shard count degrades to one shard rather than panicking.
        assert_eq!(shard_of_packed(42, 0), 0);
    }

    #[test]
    fn hash_spreads_dense_low_bit_keys() {
        // Packed (k-1)-mers are dense small integers; the mix must still spread
        // them across shards instead of landing consecutive keys on one shard.
        let shards = 8usize;
        let mut counts = vec![0usize; shards];
        let n = 8192u64;
        for packed in 0..n {
            counts[shard_of_packed(packed, shards)] += 1;
        }
        let expect = n as usize / shards;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > expect / 2 && c < expect * 2,
                "shard {s} holds {c} of {n} keys (expected ≈{expect})"
            );
        }
    }

    #[test]
    fn kmer_and_packed_agree() {
        let kmer = Kmer::from_ascii("ACGTACGTAC").unwrap();
        assert_eq!(shard_of_k1mer(&kmer, 7), shard_of_packed(kmer.packed(), 7));
    }
}
