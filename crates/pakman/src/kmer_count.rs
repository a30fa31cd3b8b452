//! Parallel k-mer counting (assembly step B, Fig. 2).
//!
//! Implements the paper's §4.5 "Improved Parallelism" optimizations:
//!
//! * **(a) parallel sliding window** — reads are cut into contiguous chunks and each
//!   chunk slides its own window over its reads;
//! * **(b) pre-allocated per-chunk vectors** — every chunk extracts packed k-mers into
//!   its own vector sized up front, avoiding repeated reallocation of one shared vector;
//! * **(c) parallel sorting** — per-chunk vectors are sorted independently and merged,
//!   replacing the serial global sort of the original PaKman implementation.
//!
//! Chunks are planned and run by [`crate::par`]: the calling thread works chunk 0,
//! a helper is spawned for each further chunk, and there are only as many chunks
//! as the read set holds grains ([`COUNT_GRAIN`] k-mer windows) — a small read
//! set, and every read set at `threads = 1`, is counted without a spawn.
//!
//! The whole phase is *bucket-major*: the top bits of the packed k-mer statically
//! partition the value space (the same ascending-order discipline the paper uses to
//! lay MacroNodes out across DIMMs, §4.2), every chunk scatters into its own copy
//! of those buckets while extracting, and each bucket is then finished
//! independently — per-chunk runs sorted while cache-resident, merged pairwise,
//! and the *final* merge fused with the duplicate run-length count and the
//! error-threshold prune, emitting [`CountedKmer`]s directly from the packed `u64`
//! stream via [`Kmer::from_packed`]. Concatenating the buckets in order *is* the
//! globally sorted output: no phase of step B unpacks a base, materializes a
//! monolithic merged vector, or re-scans the full stream.

use crate::config::{PakmanConfig, SpillConfig};
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::memory::MemoryBudget;
use crate::par::{fork_join, merge_two, plan, COUNT_GRAIN};
use crate::spill::{kway_merge, SpillIoStats, SpillStore, SpillTelemetry};
use nmp_pak_genome::{Kmer, SequencingRead};

/// Configuration subset used by the k-mer counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerCounterConfig {
    /// k-mer length.
    pub k: usize,
    /// k-mers observed fewer than this many times are pruned.
    pub min_count: u32,
    /// Upper bound on the threads counting uses, the caller's included (see
    /// [`PakmanConfig::threads`]).
    pub threads: usize,
}

impl From<&PakmanConfig> for KmerCounterConfig {
    fn from(cfg: &PakmanConfig) -> Self {
        KmerCounterConfig {
            k: cfg.k,
            min_count: cfg.min_kmer_count,
            threads: cfg.threads,
        }
    }
}

/// A distinct k-mer with its multiplicity in the read set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedKmer {
    /// The k-mer value.
    pub kmer: Kmer,
    /// Number of occurrences across all reads.
    pub count: u32,
}

/// Summary statistics from a k-mer counting run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KmerCountStats {
    /// Total (non-distinct) k-mers extracted from the reads.
    pub total_kmers: u64,
    /// Distinct k-mers observed.
    pub distinct_kmers: usize,
    /// Distinct k-mers discarded because their count fell below the threshold.
    pub pruned_kmers: usize,
    /// Reads skipped because they were shorter than k.
    pub skipped_reads: usize,
}

/// Counts the k-mers of `reads`, returning them sorted in ascending lexicographic
/// order (the order MacroNodes are later laid out across DIMMs).
///
/// # Errors
///
/// * [`PakmanError::InvalidConfig`] for an unsupported `k` or a zero thread count.
/// * [`PakmanError::EmptyInput`] if no read is at least `k` bases long.
pub fn count_kmers(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
) -> Result<(Vec<CountedKmer>, KmerCountStats), PakmanError> {
    validate_counter_config(&config)?;
    // One plan for both phases: the chunk count comes from the k-mer windows
    // the reads hold, so a read set too small to repay a spawn is counted on
    // the calling thread, whatever `threads` allows.
    let windows = kmer_windows(reads, config.k);
    let chunks = plan(windows, config.threads, COUNT_GRAIN);
    count_kmers_chunked(reads, config, windows, chunks)
}

/// [`count_kmers`] on a given chunk count (the plan's; unit tests force it).
fn count_kmers_chunked(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
    windows: usize,
    chunks: usize,
) -> Result<(Vec<CountedKmer>, KmerCountStats), PakmanError> {
    let bucket_bits = bucket_bits_for(windows, config.k, chunks);

    // Phase 1 — §4.5 (a)+(b)+(c): per-chunk extraction over the packed read
    // bytes, scattering into per-chunk buckets, each bucket sorted independently.
    let (mut bucket_runs, total_kmers, skipped_total) =
        extract_bucket_runs(reads, chunks, config.k, bucket_bits);
    if total_kmers == 0 {
        return Err(PakmanError::EmptyInput {
            message: format!("no read is at least k = {} bases long", config.k),
        });
    }

    // Phase 2: per bucket, merge the per-chunk runs pairwise and fuse the
    // run-length count + prune into the final merge. Buckets are distributed over
    // the chunks in contiguous ranges, so concatenating the chunk outputs in
    // order yields the ascending counted stream whatever the chunk count.
    let per_chunk = bucket_runs.len().div_ceil(chunks);
    let worker_outputs = fork_join(bucket_runs.chunks_mut(per_chunk), |group| {
        let mut counted = Vec::new();
        let (mut distinct, mut pruned) = (0usize, 0usize);
        for runs in group.iter_mut() {
            let runs = std::mem::take(runs);
            let (c, d, p) = merge_count_bucket(runs, config.k, config.min_count);
            counted.extend(c);
            distinct += d;
            pruned += p;
        }
        (counted, distinct, pruned)
    });

    let surviving: usize = worker_outputs.iter().map(|(c, _, _)| c.len()).sum();
    let mut counted = Vec::with_capacity(surviving);
    let (mut distinct, mut pruned) = (0usize, 0usize);
    for (c, d, p) in worker_outputs {
        counted.extend(c);
        distinct += d;
        pruned += p;
    }
    debug_assert!(counted.windows(2).all(|w| w[0].kmer < w[1].kmer));

    let stats = KmerCountStats {
        total_kmers,
        distinct_kmers: distinct,
        pruned_kmers: pruned,
        skipped_reads: skipped_total,
    };
    Ok((counted, stats))
}

fn validate_counter_config(config: &KmerCounterConfig) -> Result<(), PakmanError> {
    if config.k < 2 || config.k > nmp_pak_genome::kmer::MAX_K {
        return Err(PakmanError::InvalidConfig {
            message: format!("k = {} must lie in 2..=32", config.k),
        });
    }
    if config.threads == 0 {
        return Err(PakmanError::InvalidConfig {
            message: "thread count must be at least 1".to_string(),
        });
    }
    Ok(())
}

/// The k-mer windows `reads` hold (reads shorter than `k` hold none): stage B's
/// length for [`plan`] and the bucket sizing.
fn kmer_windows(reads: &[SequencingRead], k: usize) -> usize {
    reads.iter().map(|r| r.len().saturating_sub(k - 1)).sum()
}

/// Bucket count: aim for per-(chunk, bucket) runs of a few hundred elements so
/// every sort in phase 1 stays cache-resident. Shared by all chunks — bucket
/// boundaries are a pure function of the k-mer value, never of the chunking.
fn bucket_bits_for(windows: usize, k: usize, chunks: usize) -> u32 {
    (usize::BITS - (windows / (512 * chunks)).leading_zeros())
        .min(2 * k as u32 - 1)
        .min(12)
}

/// Phase 1 over `reads` cut into `chunks` contiguous chunks (chunk 0 on the
/// calling thread): every chunk extracts and sorts its own copy of the buckets,
/// and the sorted runs are regrouped bucket-major (vector handles move, data
/// does not). Returns the runs, the k-mers extracted and the reads skipped.
fn extract_bucket_runs(
    reads: &[SequencingRead],
    chunks: usize,
    k: usize,
    bucket_bits: u32,
) -> (Vec<Vec<Vec<u64>>>, u64, usize) {
    let chunk_size = reads.len().div_ceil(chunks).max(1);
    let per_chunk = fork_join(reads.chunks(chunk_size), |chunk| {
        extract_sorted_buckets(chunk, k, bucket_bits)
    });
    let mut bucket_runs: Vec<Vec<Vec<u64>>> = (0..1usize << bucket_bits)
        .map(|_| Vec::with_capacity(chunks))
        .collect();
    let (mut total_kmers, mut skipped_total) = (0u64, 0usize);
    for (chunk_buckets, skipped) in per_chunk {
        skipped_total += skipped;
        for (b, run) in chunk_buckets.into_iter().enumerate() {
            if !run.is_empty() {
                total_kmers += run.len() as u64;
                bucket_runs[b].push(run);
            }
        }
    }
    (bucket_runs, total_kmers, skipped_total)
}

/// Counts the k-mers of `reads` under a resident-byte budget, spilling the
/// largest buckets to disk as sorted runs whenever the extracted k-mer bytes
/// overflow it (external-memory counting; see `pakman/spill.rs`).
///
/// Reads are consumed in *waves* sized to half the budget. Each wave is
/// extracted and sorted exactly like [`count_kmers`] phase 1, merged into the
/// single resident sorted run each bucket keeps, and then — if the
/// [`MemoryBudget`] ledger reports an overdraft — the largest buckets are
/// flushed through a [`SpillStore`] (largest-first eviction, written in
/// ascending bucket order so every run is sorted) until residency falls to half
/// the budget. The final k-way merge over all runs fuses the run-length count
/// and the `min_count` prune exactly like the in-memory path, so the counted
/// stream is **bit-identical** to [`count_kmers`] at any budget, thread count
/// or partition count; only the [`SpillTelemetry`] varies.
///
/// `partitions` is the owner-hash disk-partition count, normally the shard
/// count, so spill files align with shard ownership.
///
/// # Errors
///
/// * [`PakmanError::InvalidConfig`] for an unsupported `k`, a zero thread
///   count, an invalid `spill` config or an unbounded budget.
/// * [`PakmanError::EmptyInput`] if no read is at least `k` bases long.
/// * [`PakmanError::Spill`] for spill-file I/O or framing failures.
pub fn count_kmers_spilled(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
    spill: &SpillConfig,
    partitions: usize,
) -> Result<(Vec<CountedKmer>, KmerCountStats, SpillTelemetry), PakmanError> {
    count_kmers_spilled_controlled(reads, config, spill, partitions, &RunControl::default())
}

/// [`count_kmers_spilled`] under a [`RunControl`]: the spill budget is chained
/// into the control's global ledger (so host-wide pressure from other tenants
/// triggers eviction exactly like local pressure — the counted stream stays
/// bit-identical either way, only `SpillTelemetry` varies) and the cancellation
/// token is polled once per ingest wave.
///
/// # Errors
///
/// Everything [`count_kmers_spilled`] returns, plus [`PakmanError::Cancelled`]
/// when the token fires between waves.
pub fn count_kmers_spilled_controlled(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
    spill: &SpillConfig,
    partitions: usize,
    control: &RunControl<'_>,
) -> Result<(Vec<CountedKmer>, KmerCountStats, SpillTelemetry), PakmanError> {
    validate_counter_config(&config)?;
    spill.validate()?;
    let Some(budget_bytes) = spill.max_resident_bytes else {
        return Err(PakmanError::InvalidConfig {
            message: "spilled counting requires a bounded resident-byte budget".to_string(),
        });
    };
    let partitions = partitions.max(1);
    let budget = control.adopt(MemoryBudget::bounded(budget_bytes));
    let result = count_spilled_inner(
        reads,
        config,
        spill,
        partitions,
        budget_bytes,
        &budget,
        control,
    );
    // Whatever is still charged (in-memory finish keeps buckets resident; error
    // and cancellation paths abandon them) must not linger in a chained global
    // ledger after the local buffers are dropped.
    budget.release(budget.used());
    result
}

#[allow(clippy::too_many_lines)]
fn count_spilled_inner(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
    spill: &SpillConfig,
    partitions: usize,
    budget_bytes: u64,
    budget: &MemoryBudget,
    control: &RunControl<'_>,
) -> Result<(Vec<CountedKmer>, KmerCountStats, SpillTelemetry), PakmanError> {
    let windows = kmer_windows(reads, config.k);
    let bucket_bits = bucket_bits_for(
        windows,
        config.k,
        plan(windows, config.threads, COUNT_GRAIN),
    );
    let buckets = 1usize << bucket_bits;

    let mut resident: Vec<Vec<u64>> = vec![Vec::new(); buckets];
    let mut store = SpillStore::create(partitions)?;
    let mut total_kmers = 0u64;
    let mut skipped_total = 0usize;

    // Wave boundaries are a pure function of the reads and the budget — never of
    // the thread count — so the ingest schedule itself is deterministic.
    let wave_target = (budget_bytes / 2).max(8);
    let mut start = 0usize;
    while start < reads.len() {
        control.check("stage B (spilled k-mer counting)")?;
        let mut end = start;
        let mut wave_bytes = 0u64;
        while end < reads.len() {
            let bytes = reads[end].len().saturating_sub(config.k - 1) as u64 * 8;
            if end > start && wave_bytes + bytes > wave_target {
                break;
            }
            wave_bytes += bytes;
            end += 1;
        }
        let wave = &reads[start..end];
        start = end;

        // §4.5 (a)+(b)+(c) on the wave, identical to count_kmers phase 1, on a
        // plan of the wave's own size; the new bytes go on the shared ledger.
        let chunks = plan((wave_bytes / 8) as usize, config.threads, COUNT_GRAIN);
        let (mut wave_runs, wave_kmers, skipped) =
            extract_bucket_runs(wave, chunks, config.k, bucket_bits);
        total_kmers += wave_kmers;
        skipped_total += skipped;
        budget.charge(wave_kmers * 8);

        // Fold the wave into the one sorted resident run per bucket (parallel
        // over contiguous bucket ranges, same discipline as count_kmers phase 2).
        let per_chunk = buckets.div_ceil(chunks);
        fork_join(
            resident
                .chunks_mut(per_chunk)
                .zip(wave_runs.chunks_mut(per_chunk)),
            |(res_group, wave_group)| {
                for (res, runs) in res_group.iter_mut().zip(wave_group.iter_mut()) {
                    let mut runs = std::mem::take(runs);
                    if runs.is_empty() {
                        continue;
                    }
                    if !res.is_empty() {
                        runs.push(std::mem::take(res));
                    }
                    *res = merge_runs_to_one(runs);
                }
            },
        );

        // Evict largest-first until residency falls to half the budget, so the
        // next wave has headroom and small hot buckets stay in memory.
        if budget.is_over() {
            let mut order: Vec<usize> = (0..buckets).filter(|&b| !resident[b].is_empty()).collect();
            order.sort_by_key(|&b| (std::cmp::Reverse(resident[b].len()), b));
            let target = budget_bytes / 2;
            let mut projected = budget.used();
            let mut selected = Vec::new();
            for b in order {
                if projected <= target {
                    break;
                }
                projected = projected.saturating_sub(resident[b].len() as u64 * 8);
                selected.push(b);
            }
            // Ascending bucket order keeps the flushed stream globally sorted.
            selected.sort_unstable();
            let slices: Vec<&Vec<u64>> = selected.iter().map(|&b| &resident[b]).collect();
            store.flush_buckets(&slices)?;
            for &b in &selected {
                budget.release(resident[b].len() as u64 * 8);
                resident[b] = Vec::new();
            }
        }
    }

    if total_kmers == 0 {
        return Err(PakmanError::EmptyInput {
            message: format!("no read is at least k = {} bases long", config.k),
        });
    }

    let (counted, distinct, pruned, io) = if store.has_runs() {
        // Flush the still-resident buckets (ascending bucket order) so the final
        // merge has a single source of truth: the run files.
        let remaining: Vec<&Vec<u64>> = resident.iter().filter(|r| !r.is_empty()).collect();
        if !remaining.is_empty() {
            store.flush_buckets(&remaining)?;
        }
        for run in &mut resident {
            budget.release(run.len() as u64 * 8);
            *run = Vec::new();
        }

        let (mut cursors, io, _store) = store.into_cursors(spill.merge_fan_in)?;
        let mut counted = Vec::new();
        let (mut distinct, mut pruned) = (0usize, 0usize);
        let (k, min_count) = (config.k, config.min_count);
        let mut current: Option<(u64, u32)> = None;
        kway_merge(&mut cursors, |value| match current {
            Some((v, c)) if v == value => current = Some((v, c + 1)),
            other => {
                if let Some((v, c)) = other {
                    distinct += 1;
                    if c >= min_count {
                        counted.push(CountedKmer {
                            kmer: Kmer::from_packed(v, k),
                            count: c,
                        });
                    } else {
                        pruned += 1;
                    }
                }
                current = Some((value, 1));
            }
        })?;
        if let Some((v, c)) = current {
            distinct += 1;
            if c >= min_count {
                counted.push(CountedKmer {
                    kmer: Kmer::from_packed(v, k),
                    count: c,
                });
            } else {
                pruned += 1;
            }
        }
        (counted, distinct, pruned, io)
    } else {
        // The workload never overflowed the budget: finish entirely in memory,
        // bucket by bucket in ascending order, exactly like count_kmers.
        let mut counted = Vec::new();
        let (mut distinct, mut pruned) = (0usize, 0usize);
        for run in &resident {
            if run.is_empty() {
                continue;
            }
            let (c, d, p) = run_length_count(run, config.k, config.min_count);
            counted.extend(c);
            distinct += d;
            pruned += p;
        }
        (counted, distinct, pruned, SpillIoStats::default())
    };
    debug_assert!(counted.windows(2).all(|w| w[0].kmer < w[1].kmer));

    let stats = KmerCountStats {
        total_kmers,
        distinct_kmers: distinct,
        pruned_kmers: pruned,
        skipped_reads: skipped_total,
    };
    let telemetry = SpillTelemetry {
        budget_bytes,
        bytes_spilled: io.bytes_spilled,
        runs_written: io.runs_written,
        merge_passes: io.merge_passes,
        peak_resident_bytes: budget.peak_bytes(),
        partitions,
    };
    Ok((counted, stats, telemetry))
}

/// Pairwise-merges pre-sorted runs into one. No counting or pruning happens
/// here — duplicates must survive until the final fused merge.
fn merge_runs_to_one(mut runs: Vec<Vec<u64>>) -> Vec<u64> {
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut iter = runs.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => next.push(merge_two(a, b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// Partitions the sorted counted stream by owner shard for owner-computes
/// sharded construction: record `i` of the result's shard `s` is the `i`-th
/// counted k-mer (in global ascending order) whose *prefix* (k-1)-mer —
/// `packed >> 2`, the MacroNode that receives the k-mer's suffix extension — is
/// owned by shard `s` under [`nmp_pak_genome::shard_of_packed`].
///
/// The partition is stable, so each per-shard stream is itself ascending and
/// concatenating the streams in shard-merge order reproduces the global stream.
/// Prefix-extension records (owned by the *suffix* (k-1)-mer's shard) are
/// exchanged separately during construction — the construction-time equivalent
/// of the compaction mailbox.
pub fn partition_counted_by_owner(
    counted: &[CountedKmer],
    shard_count: usize,
) -> Vec<Vec<CountedKmer>> {
    let shards = shard_count.max(1);
    let mut out: Vec<Vec<CountedKmer>> = Vec::with_capacity(shards);
    // Size each stream in one counting pass so the scatter never reallocates.
    let mut sizes = vec![0usize; shards];
    for ck in counted {
        sizes[nmp_pak_genome::shard_of_packed(ck.kmer.packed() >> 2, shards)] += 1;
    }
    for &size in &sizes {
        out.push(Vec::with_capacity(size));
    }
    for ck in counted {
        out[nmp_pak_genome::shard_of_packed(ck.kmer.packed() >> 2, shards)].push(*ck);
    }
    out
}

/// Finishes one bucket: merges its pre-sorted runs pairwise until two remain and
/// fuses the run-length count into the final merge.
fn merge_count_bucket(
    mut runs: Vec<Vec<u64>>,
    k: usize,
    min_count: u32,
) -> (Vec<CountedKmer>, usize, usize) {
    match runs.len() {
        0 => (Vec::new(), 0, 0),
        1 => run_length_count(&runs[0], k, min_count),
        _ => {
            while runs.len() > 2 {
                let mut next = Vec::with_capacity(runs.len().div_ceil(2));
                let mut iter = runs.into_iter();
                while let Some(a) = iter.next() {
                    match iter.next() {
                        Some(b) => next.push(merge_two(a, b)),
                        None => next.push(a),
                    }
                }
                runs = next;
            }
            let b = runs.pop().expect("two runs remain");
            let a = runs.pop().expect("two runs remain");
            merge_count_segment(&a, &b, k, min_count)
        }
    }
}

/// Extracts the packed k-mers of one read chunk into `2^bucket_bits` sorted
/// buckets (bucket = top bits of the packed k-mer, so buckets partition the value
/// space in ascending order).
///
/// The sliding window works on the raw 2-bit codes of the packed read bytes
/// ([`nmp_pak_genome::DnaString::codes`]) — no per-base enum round-trips — and
/// scatters while extracting; each bucket is then sorted independently, small
/// enough to stay cache-resident, unlike one monolithic sort of the whole chunk.
/// Returns the buckets and the number of reads shorter than `k`.
fn extract_sorted_buckets(
    chunk: &[SequencingRead],
    k: usize,
    bucket_bits: u32,
) -> (Vec<Vec<u64>>, usize) {
    let capacity: usize = chunk.iter().map(|r| r.len().saturating_sub(k - 1)).sum();
    let mut skipped = 0usize;
    let kmer_bits = 2 * k as u32;
    let mask = if kmer_bits == 64 {
        u64::MAX
    } else {
        (1u64 << kmer_bits) - 1
    };

    if bucket_bits == 0 {
        let mut local = Vec::with_capacity(capacity);
        extract_into(chunk, k, mask, &mut skipped, |packed| local.push(packed));
        local.sort_unstable();
        return (vec![local], skipped);
    }

    let shift = kmer_bits - bucket_bits;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); 1 << bucket_bits];
    let reserve = capacity / buckets.len() + 8;
    for bucket in &mut buckets {
        bucket.reserve(reserve);
    }
    extract_into(chunk, k, mask, &mut skipped, |packed| {
        buckets[(packed >> shift) as usize].push(packed)
    });

    for bucket in &mut buckets {
        bucket.sort_unstable();
    }
    (buckets, skipped)
}

/// Slides the k-window over every usable read of `chunk`, feeding each packed
/// k-mer to `sink`.
fn extract_into(
    chunk: &[SequencingRead],
    k: usize,
    mask: u64,
    skipped: &mut usize,
    mut sink: impl FnMut(u64),
) {
    for read in chunk {
        if read.len() < k {
            *skipped += 1;
            continue;
        }
        let mut packed = 0u64;
        let mut filled = 0usize;
        for code in read.sequence().codes() {
            packed = ((packed << 2) | code as u64) & mask;
            filled += 1;
            if filled >= k {
                sink(packed);
            }
        }
    }
}

/// Merges one value-aligned segment of the two runs while run-length counting it,
/// emitting surviving k-mers straight from the packed representation.
fn merge_count_segment(
    a: &[u64],
    b: &[u64],
    k: usize,
    min_count: u32,
) -> (Vec<CountedKmer>, usize, usize) {
    if a.is_empty() || b.is_empty() {
        // Degenerate merge (single surviving run — always the case on one chunk):
        // a plain run-length scan, no two-pointer bookkeeping.
        return run_length_count(if a.is_empty() { b } else { a }, k, min_count);
    }

    let total = a.len() + b.len();
    let mut counted = Vec::with_capacity(total / min_count.max(1) as usize + 1);
    let (mut distinct, mut pruned) = (0usize, 0usize);
    let mut current: Option<(u64, u32)> = None;

    let mut flush = |run: Option<(u64, u32)>, distinct: &mut usize, pruned: &mut usize| {
        if let Some((value, count)) = run {
            *distinct += 1;
            if count >= min_count {
                counted.push(CountedKmer {
                    kmer: Kmer::from_packed(value, k),
                    count,
                });
            } else {
                *pruned += 1;
            }
        }
    };

    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let value = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x <= y => {
                i += 1;
                x
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!("loop condition guarantees one side remains"),
        };
        match current {
            Some((v, c)) if v == value => current = Some((v, c + 1)),
            other => {
                flush(other, &mut distinct, &mut pruned);
                current = Some((value, 1));
            }
        }
    }
    flush(current, &mut distinct, &mut pruned);
    (counted, distinct, pruned)
}

/// Run-length counts one sorted run, pruning below `min_count`.
fn run_length_count(run: &[u64], k: usize, min_count: u32) -> (Vec<CountedKmer>, usize, usize) {
    let mut counted = Vec::with_capacity(run.len() / min_count.max(1) as usize + 1);
    let (mut distinct, mut pruned) = (0usize, 0usize);
    let mut i = 0usize;
    while i < run.len() {
        let value = run[i];
        let mut j = i + 1;
        while j < run.len() && run[j] == value {
            j += 1;
        }
        distinct += 1;
        let count = (j - i) as u32;
        if count >= min_count {
            counted.push(CountedKmer {
                kmer: Kmer::from_packed(value, k),
                count,
            });
        } else {
            pruned += 1;
        }
        i = j;
    }
    (counted, distinct, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::reads_from;

    #[test]
    fn counts_simple_overlapping_kmers() {
        // "ACGTAC" with k=4 → ACGT, CGTA, GTAC
        let reads = reads_from(&["ACGTAC", "ACGTAC"]);
        let (counted, stats) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 4,
                min_count: 1,
                threads: 2,
            },
        )
        .unwrap();
        assert_eq!(stats.total_kmers, 6);
        assert_eq!(stats.distinct_kmers, 3);
        assert_eq!(counted.len(), 3);
        assert!(counted.iter().all(|c| c.count == 2));
    }

    #[test]
    fn output_is_sorted_ascending() {
        let reads = reads_from(&["TTTTGGGGCCCCAAAA", "GATTACAGATTACA"]);
        let (counted, _) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 5,
                min_count: 1,
                threads: 3,
            },
        )
        .unwrap();
        for pair in counted.windows(2) {
            assert!(
                pair[0].kmer < pair[1].kmer,
                "{:?} !< {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn pruning_removes_low_count_kmers() {
        let reads = reads_from(&["ACGTACGT", "ACGTACGT", "TTTTTTTT"]);
        let (counted, stats) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 6,
                min_count: 2,
                threads: 2,
            },
        )
        .unwrap();
        // The TTTTTT k-mer appears 3 times (windows of the single poly-T read), the
        // ACGTAC-family k-mers appear twice.
        assert!(counted.iter().all(|c| c.count >= 2));
        assert!(stats.pruned_kmers == 0 || stats.pruned_kmers < stats.distinct_kmers);
    }

    #[test]
    fn prune_threshold_filters_singletons() {
        let reads = reads_from(&["ACGTACGTAC", "GGGGGGGGGG"]);
        let (with_singletons, _) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 8,
                min_count: 1,
                threads: 1,
            },
        )
        .unwrap();
        let (without_singletons, stats) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 8,
                min_count: 2,
                threads: 1,
            },
        )
        .unwrap();
        assert!(without_singletons.len() < with_singletons.len());
        assert!(stats.pruned_kmers > 0);
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let reads = reads_from(&[
            "ACGTACGTACGTTTTACG",
            "GGGCCCAAATTTACGTAG",
            "ACGTACGTACGTTTTACG",
            "TTGACCAGTTGACCAGTT",
        ]);
        let config = KmerCounterConfig {
            k: 7,
            min_count: 1,
            threads: 8,
        };
        // The plan counts these four reads in one chunk at any thread count;
        // forcing the chunk count runs the per-chunk buckets and their merges.
        let windows = kmer_windows(&reads, 7);
        assert_eq!(plan(windows, 8, COUNT_GRAIN), 1);
        let single = count_kmers_chunked(&reads, config, windows, 1).unwrap();
        assert_eq!(count_kmers(&reads, config).unwrap(), single);
        for chunks in [2, 3, 8] {
            let multi = count_kmers_chunked(&reads, config, windows, chunks).unwrap();
            assert_eq!(single, multi, "chunks = {chunks}");
        }
    }

    #[test]
    fn short_reads_are_skipped() {
        let reads = reads_from(&["ACG", "ACGTACGT"]);
        let (_, stats) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 5,
                min_count: 1,
                threads: 2,
            },
        )
        .unwrap();
        assert_eq!(stats.skipped_reads, 1);
    }

    #[test]
    fn all_short_reads_is_an_error() {
        let reads = reads_from(&["ACG", "TT"]);
        assert!(matches!(
            count_kmers(
                &reads,
                KmerCounterConfig {
                    k: 5,
                    min_count: 1,
                    threads: 2
                }
            ),
            Err(PakmanError::EmptyInput { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let reads = reads_from(&["ACGTACGT"]);
        assert!(count_kmers(
            &reads,
            KmerCounterConfig {
                k: 1,
                min_count: 1,
                threads: 1
            }
        )
        .is_err());
        assert!(count_kmers(
            &reads,
            KmerCounterConfig {
                k: 40,
                min_count: 1,
                threads: 1
            }
        )
        .is_err());
        assert!(count_kmers(
            &reads,
            KmerCounterConfig {
                k: 5,
                min_count: 1,
                threads: 0
            }
        )
        .is_err());
    }

    #[test]
    fn owner_partition_is_a_stable_cover() {
        let reads = reads_from(&["ACGTACGTACGTTTTACG", "GGGCCCAAATTTACGTAG"]);
        let (counted, _) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 7,
                min_count: 1,
                threads: 2,
            },
        )
        .unwrap();
        for shards in [1usize, 3, 8, 64] {
            let parts = partition_counted_by_owner(&counted, shards);
            assert_eq!(parts.len(), shards);
            // Every stream is ascending and owned by its shard.
            for (s, part) in parts.iter().enumerate() {
                for pair in part.windows(2) {
                    assert!(pair[0].kmer < pair[1].kmer);
                }
                for ck in part {
                    assert_eq!(
                        nmp_pak_genome::shard_of_packed(ck.kmer.packed() >> 2, shards),
                        s
                    );
                }
            }
            // The streams cover the input exactly once.
            let total: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(total, counted.len());
        }
        // One shard reproduces the input verbatim.
        assert_eq!(partition_counted_by_owner(&counted, 1)[0], counted);
    }

    /// Deterministic pseudo-random reads big enough to overflow tiny budgets.
    fn synthetic_reads(count: usize, len: usize, seed: u64) -> Vec<SequencingRead> {
        let bases = ['A', 'C', 'G', 'T'];
        let mut state = seed | 1;
        let mut strings = Vec::with_capacity(count);
        for _ in 0..count {
            let mut s = String::with_capacity(len);
            for _ in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s.push(bases[(state >> 33) as usize % 4]);
            }
            strings.push(s);
        }
        reads_from(&strings.iter().map(String::as_str).collect::<Vec<_>>())
    }

    #[test]
    fn spilled_counting_is_bit_identical_to_in_memory() {
        let reads = synthetic_reads(200, 80, 0xBEC4);
        let config = KmerCounterConfig {
            k: 11,
            min_count: 2,
            threads: 4,
        };
        let (expected, expected_stats) = count_kmers(&reads, config).unwrap();
        let spill = SpillConfig::bounded(4 * 1024);
        let (counted, stats, telemetry) = count_kmers_spilled(&reads, config, &spill, 8).unwrap();
        assert!(telemetry.bytes_spilled > 0, "{telemetry:?}");
        assert!(telemetry.merge_passes >= 1, "{telemetry:?}");
        assert!(telemetry.peak_resident_bytes > 0);
        assert_eq!(telemetry.partitions, 8);
        assert_eq!(counted, expected);
        assert_eq!(stats, expected_stats);
    }

    #[test]
    fn spilled_waves_of_several_chunks_are_bit_identical_to_in_memory() {
        // A 4 MiB budget ingests waves of 2 MiB — 256 Ki windows less at most
        // one read's 90 — so every full wave is extracted and folded on three
        // chunks at `threads = 4`.
        let reads = synthetic_reads(8_000, 100, 0x5A11);
        let config = KmerCounterConfig {
            k: 11,
            min_count: 2,
            threads: 4,
        };
        assert_eq!(plan((1 << 18) - 90, config.threads, COUNT_GRAIN), 3);
        let (expected, expected_stats) = count_kmers(&reads, config).unwrap();
        let spill = SpillConfig::bounded(4 << 20);
        let (counted, stats, telemetry) = count_kmers_spilled(&reads, config, &spill, 2).unwrap();
        assert!(telemetry.bytes_spilled > 0, "{telemetry:?}");
        assert_eq!(counted, expected);
        assert_eq!(stats, expected_stats);
    }

    #[test]
    fn spilled_counting_without_overflow_stays_in_memory() {
        let reads = reads_from(&["ACGTACGTACGTTTTACG", "GGGCCCAAATTTACGTAG"]);
        let config = KmerCounterConfig {
            k: 7,
            min_count: 1,
            threads: 2,
        };
        let (expected, expected_stats) = count_kmers(&reads, config).unwrap();
        let (counted, stats, telemetry) =
            count_kmers_spilled(&reads, config, &SpillConfig::bounded(1 << 20), 4).unwrap();
        assert_eq!(telemetry.bytes_spilled, 0);
        assert_eq!(telemetry.merge_passes, 0);
        assert_eq!(counted, expected);
        assert_eq!(stats, expected_stats);
    }

    #[test]
    fn spilled_counting_requires_a_bounded_budget() {
        let reads = reads_from(&["ACGTACGT"]);
        let config = KmerCounterConfig {
            k: 5,
            min_count: 1,
            threads: 1,
        };
        let err = count_kmers_spilled(&reads, config, &SpillConfig::in_memory(), 1).unwrap_err();
        assert!(matches!(err, PakmanError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn total_count_is_conserved() {
        let reads = reads_from(&["ACGTACGTACGTACGT", "TGCATGCATGCA"]);
        let expected_total: u64 = reads.iter().map(|r| (r.len() - 6 + 1) as u64).sum();
        let (counted, stats) = count_kmers(
            &reads,
            KmerCounterConfig {
                k: 6,
                min_count: 1,
                threads: 2,
            },
        )
        .unwrap();
        assert_eq!(stats.total_kmers, expected_total);
        let sum: u64 = counted.iter().map(|c| c.count as u64).sum();
        assert_eq!(sum, expected_total);
    }
}
