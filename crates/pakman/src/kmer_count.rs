//! Parallel k-mer counting (assembly step B, Fig. 2).
//!
//! One counter, run with or without a memory bound. It implements the paper's
//! §4.5 "Improved Parallelism" optimizations —
//!
//! * **(a) parallel sliding window** — reads are cut into contiguous chunks and each
//!   chunk slides its own window over its reads;
//! * **(b) pre-allocated per-chunk vectors** — every chunk extracts packed k-mers into
//!   its own vector sized up front, avoiding repeated reallocation of one shared vector;
//! * **(c) parallel sorting** — per-chunk vectors are sorted independently and merged,
//!   replacing the serial global sort of the original PaKman implementation (here
//!   only a bounded run's folds sort; the finish sorts distinct values only) —
//!
//! and §4.4's small-footprint processing as the same loop under a
//! [`SpillConfig`] bound (external-memory counting; the run file is
//! [`crate::spill`]'s). In-memory counting is the instance that never evicts.
//!
//! **Wave → fold → evict → finish.** Reads are consumed in *waves*: half the
//! bound each, or one wave holding everything when there is no bound. Every
//! wave is extracted the same way (below) and charged to a [`MemoryBudget`]
//! ledger. A wave that is not the last — or that overdraws the ledger — is
//! *folded*: each bucket's runs are sorted and merged into the one exact-sized
//! sorted run the bucket keeps; an overdrawn ledger then *evicts* the largest
//! buckets to disk as sorted runs until residency is back at half the bound.
//! The *finish* counts: straight from memory, bucket-parallel, when nothing was
//! evicted — every run of a bucket, sorted or not, goes into one
//! open-addressing `CountTable`, and only the bucket's distinct values are
//! sorted — and through a k-way merge and run-length count of the spilled runs
//! otherwise. Every finisher feeds one `Emitter`, the only place a multiplicity
//! meets `min_count`, so the counted stream is **bit-identical** at any bound
//! or thread count.
//!
//! Chunks are planned and run by `crate::par`: the calling thread works chunk 0,
//! a helper is spawned for each further chunk, and there are only as many chunks
//! as a wave holds grains (`COUNT_GRAIN` k-mer windows) — a small read
//! set, and every read set at `threads = 1`, is counted without a spawn.
//!
//! The whole phase is *bucket-major*: the top bits of the packed k-mer statically
//! partition the value space (the same ascending-order discipline the paper uses to
//! lay MacroNodes out across DIMMs, §4.2), every chunk scatters into its own copy
//! of those buckets while extracting, and each bucket is then finished
//! independently in a table small enough to stay cache-resident, with
//! [`CountedKmer`]s emitted directly from the packed `u64` values via
//! [`Kmer::from_packed`]. Concatenating the buckets in order *is* the globally
//! sorted output: no phase of step B unpacks a base, materializes a monolithic
//! merged vector, or re-scans the full stream.

use crate::config::{PakmanConfig, SpillConfig};
use crate::control::RunControl;
use crate::error::PakmanError;
use crate::memory::MemoryBudget;
use crate::par::{fork_join, merge_two, plan, COUNT_GRAIN};
use crate::spill::{kway_merge, SpillIoStats, SpillStore, SpillTelemetry, MERGE_FAN_IN};
use nmp_pak_genome::{Kmer, SequencingRead};
use std::hash::BuildHasher;

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
/// order (the order MacroNodes are later laid out across DIMMs): the counter
/// with no bound — one wave, nothing evicted, no file touched.
///
/// # Errors
///
/// * [`PakmanError::InvalidConfig`] for an unsupported `k` or a zero thread count.
/// * [`PakmanError::EmptyInput`] if no read is at least `k` bases long.
pub fn count_kmers(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
) -> Result<(Vec<CountedKmer>, KmerCountStats), PakmanError> {
    let unbounded = SpillConfig::in_memory();
    let (counted, stats, _) =
        count_kmers_controlled(reads, config, &unbounded, &RunControl::default())?;
    Ok((counted, stats))
}

/// Counts the k-mers of `reads` under a resident-byte budget, spilling the
/// largest buckets to disk as sorted runs whenever the extracted k-mer bytes
/// overflow it (external-memory counting; see `pakman/spill.rs`).
///
/// The same counter as [`count_kmers`] (module docs: wave → fold → evict →
/// finish), so the counted stream is **bit-identical** to it at any budget or
/// thread count; only the [`SpillTelemetry`] varies. Every evicted run goes to
/// one temporary run file. A budget the workload never overflows creates no
/// spill directory and finishes from memory like the unbounded run.
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
) -> Result<(Vec<CountedKmer>, KmerCountStats, SpillTelemetry), PakmanError> {
    if !spill.is_bounded() {
        return Err(PakmanError::InvalidConfig {
            message: "spilled counting requires a bounded resident-byte budget".to_string(),
        });
    }
    let (counted, stats, telemetry) =
        count_kmers_controlled(reads, config, spill, &RunControl::default())?;
    let telemetry = telemetry.expect("a bounded run reports its telemetry");
    Ok((counted, stats, telemetry))
}

/// The counter behind every entry point and [`crate::stage::CountStage`]:
/// validates, opens the run's ledger, runs the wave loop, and reports
/// [`SpillTelemetry`] when `spill` is bounded. A bounded ledger is chained into
/// the control's, so pressure on the caller's ledger triggers eviction
/// exactly like local pressure (the counted stream stays bit-identical, only
/// the telemetry varies); an unbounded run holds nothing anyone could evict,
/// so its ledger stays its own. The cancellation token is polled once per
/// ingest wave.
pub(crate) fn count_kmers_controlled(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
    spill: &SpillConfig,
    control: &RunControl<'_>,
) -> Result<(Vec<CountedKmer>, KmerCountStats, Option<SpillTelemetry>), PakmanError> {
    validate_counter_config(&config)?;
    spill.validate()?;
    let budget = match spill.max_resident_bytes {
        Some(bytes) => control.adopt(MemoryBudget::bounded(bytes)),
        None => MemoryBudget::unbounded(),
    };
    let result = run_waves(reads, config, &budget, control, COUNT_GRAIN);
    // Whatever is still charged (a finish from memory keeps its buckets
    // resident; error and cancellation paths abandon them) must not linger in a
    // chained global ledger after the local buffers are dropped.
    budget.release(budget.used());
    let (counted, stats, io) = result?;
    let telemetry = spill.max_resident_bytes.map(|budget_bytes| SpillTelemetry {
        budget_bytes,
        bytes_spilled: io.bytes_spilled,
        runs_written: io.runs_written,
        merge_passes: io.merge_passes,
        peak_resident_bytes: budget.peak_bytes(),
    });
    Ok((counted, stats, telemetry))
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

/// The wave loop (module docs) on a ledger the caller opened, whose capacity
/// is the bound. `grain` is [`COUNT_GRAIN`]; unit tests lower it to force
/// several chunks on a few reads.
fn run_waves(
    reads: &[SequencingRead],
    config: KmerCounterConfig,
    budget: &MemoryBudget,
    control: &RunControl<'_>,
    grain: usize,
) -> Result<(Vec<CountedKmer>, KmerCountStats, SpillIoStats), PakmanError> {
    let KmerCounterConfig { k, threads, .. } = config;
    let bucket_bits = bucket_bits_for(kmer_windows(reads, k), k);
    // Half the bound is a wave's size and the residency an eviction restores,
    // so the next wave always has headroom; no bound, no limit on either.
    let half = budget.capacity().map_or(u64::MAX, |bound| bound / 2);
    let wave_target = half.max(8);

    // Every bucket's runs, in ascending bucket (= value-range) order. A fold
    // leaves a bucket one exact-sized sorted run; a wave's new runs are unsorted.
    let mut resident: Vec<Vec<Vec<u64>>> = vec![Vec::new(); 1 << bucket_bits];
    let mut store: Option<SpillStore> = None;
    let mut stats = KmerCountStats::default();
    let mut chunks = 1;

    // Wave boundaries are a pure function of the reads and the bound — never of
    // the thread count — so the ingest schedule itself is deterministic.
    let mut start = 0usize;
    while start < reads.len() {
        control.check("stage B (k-mer counting wave)")?;
        let mut end = start;
        let mut wave_windows = 0usize;
        while end < reads.len() {
            let read_windows = reads[end].len().saturating_sub(k - 1);
            if end > start && (wave_windows + read_windows) as u64 * 8 > wave_target {
                break;
            }
            wave_windows += read_windows;
            end += 1;
        }
        let wave = &reads[start..end];
        start = end;

        // §4.5 (a)+(b) on the wave, on a plan of the wave's own size; the new
        // bytes go on the ledger.
        chunks = plan(wave_windows, threads, grain);
        let (wave_kmers, skipped) =
            extract_bucket_runs(wave, chunks, k, bucket_bits, &mut resident);
        stats.total_kmers += wave_kmers;
        stats.skipped_reads += skipped;
        budget.charge(wave_kmers * 8);

        // Nothing evicted and the ledger not overdrawn: the finish counts what is
        // resident straight from memory.
        if start == reads.len() && store.is_none() && !budget.is_over() {
            break;
        }
        // Fold: every bucket back to one sorted run, buckets distributed over
        // the chunks in contiguous ranges.
        let per_group = resident.len().div_ceil(chunks);
        fork_join(resident.chunks_mut(per_group), |group| {
            group.iter_mut().for_each(fold);
        });
        if budget.is_over() {
            evict_largest(&mut resident, budget, half, &mut store)?;
        }
    }
    if stats.total_kmers == 0 {
        return Err(PakmanError::EmptyInput {
            message: format!("no read is at least k = {k} bases long"),
        });
    }

    let (emitter, io) = match store {
        None => (
            finish_resident(resident, chunks, config),
            SpillIoStats::default(),
        ),
        Some(store) => finish_spilled(resident, store, budget, config)?,
    };
    let ascending = emitter.counted.windows(2).all(|w| w[0].kmer < w[1].kmer);
    assert!(ascending, "stage B emitted k-mers out of order");
    stats.distinct_kmers = emitter.distinct;
    stats.pruned_kmers = emitter.pruned;
    Ok((emitter.counted, stats, io))
}

/// The k-mer windows `reads` hold (reads shorter than `k` hold none): stage B's
/// length for [`plan`] and the bucket sizing.
fn kmer_windows(reads: &[SequencingRead], k: usize) -> usize {
    reads.iter().map(|r| r.len().saturating_sub(k - 1)).sum()
}

/// The occurrences a bucket aims for (between half and all of this): its count
/// table then starts at a quarter as many slots of 12 B, at most 96 KB, so the
/// finish's probes stay in L2.
const BUCKET_OCCURRENCES: usize = 32 << 10;

/// Bucket count for `windows` k-mer occurrences: [`BUCKET_OCCURRENCES`] each,
/// and at least two. Shared by all chunks and all waves — bucket boundaries are
/// a pure function of the k-mer value, never of the chunking.
fn bucket_bits_for(windows: usize, k: usize) -> u32 {
    let bits = usize::BITS - (windows / BUCKET_OCCURRENCES).leading_zeros();
    bits.clamp(1, (2 * k as u32 - 1).min(12))
}

/// Extraction of one wave, cut into `chunks` contiguous chunks (chunk 0 on the
/// calling thread): every chunk extracts into its own copy of the buckets, and
/// each non-empty run joins its bucket's list in `bucket_runs` (vector handles
/// move, data does not). Returns the k-mers extracted and the reads skipped.
fn extract_bucket_runs(
    reads: &[SequencingRead],
    chunks: usize,
    k: usize,
    bucket_bits: u32,
    bucket_runs: &mut [Vec<Vec<u64>>],
) -> (u64, usize) {
    let chunk_size = reads.len().div_ceil(chunks).max(1);
    let per_chunk = fork_join(reads.chunks(chunk_size), |chunk| {
        extract_buckets(chunk, k, bucket_bits)
    });
    let (mut total_kmers, mut skipped_total) = (0u64, 0usize);
    for (chunk_buckets, skipped) in per_chunk {
        skipped_total += skipped;
        for (runs, run) in bucket_runs.iter_mut().zip(chunk_buckets) {
            if !run.is_empty() {
                total_kmers += run.len() as u64;
                runs.push(run);
            }
        }
    }
    (total_kmers, skipped_total)
}

/// Extracts the packed k-mers of one read chunk into `2^bucket_bits` unsorted
/// buckets (bucket = top bits of the packed k-mer, so buckets partition the value
/// space in ascending order).
///
/// The sliding window works on the raw 2-bit codes of the packed read bytes
/// ([`nmp_pak_genome::DnaString::codes`]) — no per-base enum round-trips — and
/// scatters while extracting. Returns the buckets and the number of reads
/// shorter than `k`.
fn extract_buckets(chunk: &[SequencingRead], k: usize, bucket_bits: u32) -> (Vec<Vec<u64>>, usize) {
    let capacity: usize = chunk.iter().map(|r| r.len().saturating_sub(k - 1)).sum();
    let mut skipped = 0usize;
    let kmer_bits = 2 * k as u32;
    let mask = if kmer_bits == 64 {
        u64::MAX
    } else {
        (1u64 << kmer_bits) - 1
    };
    let shift = kmer_bits - bucket_bits;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); 1 << bucket_bits];
    let reserve = capacity / buckets.len() + 8;
    for bucket in &mut buckets {
        bucket.reserve(reserve);
    }
    extract_into(chunk, k, mask, &mut skipped, |packed| {
        buckets[(packed >> shift) as usize].push(packed)
    });
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

/// Folds a bucket's runs into one sorted run: sorts each run — the run an
/// earlier fold left is sorted already, which the sort finds in one pass — then
/// merges them pairwise, round by round and in place. No counting or pruning
/// happens here — duplicates survive until a finisher counts them.
fn fold(runs: &mut Vec<Vec<u64>>) {
    for run in runs.iter_mut() {
        run.sort_unstable();
    }
    while runs.len() > 1 {
        let len = runs.len();
        for pair in 0..len / 2 {
            let (a, b) = (
                std::mem::take(&mut runs[2 * pair]),
                std::mem::take(&mut runs[2 * pair + 1]),
            );
            runs[pair] = merge_two(a, b);
        }
        if len % 2 == 1 {
            // The odd run is carried over unmerged.
            runs.swap(len / 2, len - 1);
        }
        runs.truncate(len.div_ceil(2));
    }
}

/// Evicts the largest buckets (ties: lowest bucket first) through the spill
/// store — created here, on the first eviction — until the ledger is back at
/// `target` bytes, so small hot buckets stay in memory. Runs after a fold:
/// every bucket is one run.
fn evict_largest(
    resident: &mut [Vec<Vec<u64>>],
    budget: &MemoryBudget,
    target: u64,
    store: &mut Option<SpillStore>,
) -> Result<(), PakmanError> {
    let len = |b: usize| resident[b].first().map_or(0, Vec::len);
    let mut order: Vec<usize> = (0..resident.len()).filter(|&b| len(b) > 0).collect();
    order.sort_by_key(|&b| (std::cmp::Reverse(len(b)), b));
    let mut projected = budget.used();
    let mut selected = Vec::new();
    for b in order {
        if projected <= target {
            break;
        }
        projected = projected.saturating_sub(len(b) as u64 * 8);
        selected.push(b);
    }
    if selected.is_empty() {
        return Ok(());
    }
    // Ascending bucket order keeps the flushed stream globally sorted.
    selected.sort_unstable();
    let store = match store {
        Some(store) => store,
        None => store.insert(SpillStore::create()?),
    };
    let runs: Vec<&Vec<u64>> = selected.iter().map(|&b| &resident[b][0]).collect();
    store.flush_buckets(&runs)?;
    budget.release(runs.iter().map(|run| run.len() as u64 * 8).sum());
    for b in selected {
        resident[b].clear();
    }
    Ok(())
}

/// Where every finisher sends a distinct k-mer and its multiplicity: the only
/// place a count meets `min_count` and a packed value becomes a
/// [`CountedKmer`].
struct Emitter {
    k: usize,
    min_count: u32,
    counted: Vec<CountedKmer>,
    distinct: usize,
    pruned: usize,
}

impl Emitter {
    fn new(config: KmerCounterConfig) -> Emitter {
        Emitter {
            k: config.k,
            min_count: config.min_count,
            counted: Vec::new(),
            distinct: 0,
            pruned: 0,
        }
    }

    fn emit(&mut self, value: u64, count: u32) {
        self.distinct += 1;
        if count >= self.min_count {
            self.counted.push(CountedKmer {
                kmer: Kmer::from_packed(value, self.k),
                count,
            });
        } else {
            self.pruned += 1;
        }
    }

    /// Appends the emitter of the next bucket range up.
    fn absorb(mut self, next: Emitter) -> Emitter {
        self.counted.extend(next.counted);
        self.distinct += next.distinct;
        self.pruned += next.pruned;
        self
    }
}

/// Finish when nothing was evicted: every bucket is counted by
/// [`count_bucket`] in its chunk's one reused [`CountTable`]. Buckets are
/// distributed over the chunks in contiguous ranges, so joining the chunks'
/// emitters in order yields the ascending counted stream whatever the chunk
/// count; each bucket's runs are freed as soon as it is counted.
fn finish_resident(
    mut resident: Vec<Vec<Vec<u64>>>,
    chunks: usize,
    config: KmerCounterConfig,
) -> Emitter {
    let per_group = resident.len().div_ceil(chunks);
    let emitters = fork_join(resident.chunks_mut(per_group), |group| {
        let mut emitter = Emitter::new(config);
        let mut table = CountTable::default();
        for runs in group {
            count_bucket(&std::mem::take(runs), &mut table, &mut emitter);
        }
        emitter
    });
    let joined = emitters.into_iter().reduce(Emitter::absorb);
    joined.expect("there is at least one bucket")
}

/// Counts one bucket: every occurrence of its runs, sorted or not, goes into
/// `table`, and the bucket's distinct values are then sorted and emitted
/// once each, ascending, with their multiplicities.
fn count_bucket(runs: &[Vec<u64>], table: &mut CountTable, out: &mut Emitter) {
    table.reset(runs.iter().map(Vec::len).sum());
    runs.iter().flatten().for_each(|&value| table.add(value));
    let mut distinct: Vec<(u64, u32)> = table.entries().collect();
    distinct.sort_unstable_by_key(|&(value, _)| value);
    for (value, count) in distinct {
        out.emit(value, count);
    }
}

/// An open-addressing count table of packed k-mer values: multiplicative hash,
/// linear probing, doubled at half load. A slot is empty when its count is 0,
/// never by its key: at k = 32 every `u64` is a k-mer, `u64::MAX` included.
#[derive(Default)]
struct CountTable {
    keys: Vec<u64>,
    counts: Vec<u32>,
    len: usize,
    /// Odd and random per bucket: multiply-shift is then universal, whatever the reads hold.
    multiplier: u64,
}

impl CountTable {
    /// Empties the table and sizes it for `occurrences` insertions: a quarter
    /// as many slots (at least 64), a power of two.
    fn reset(&mut self, occurrences: usize) {
        let slots = (occurrences / 4).max(64).next_power_of_two();
        self.keys.resize(slots, 0);
        self.counts.clear();
        self.counts.resize(slots, 0);
        self.len = 0;
        self.multiplier = std::collections::hash_map::RandomState::new().hash_one(0u64) | 1;
    }

    /// The slot holding `value`, or the empty slot its probe ends at; the probe
    /// starts at the top bits of the value's multiplicative hash.
    fn slot_of(&self, value: u64) -> usize {
        let mask = self.keys.len() - 1;
        let hash = value.wrapping_mul(self.multiplier);
        let mut slot = (hash >> (64 - self.keys.len().trailing_zeros())) as usize;
        while self.counts[slot] != 0 && self.keys[slot] != value {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Counts one occurrence of `value`.
    fn add(&mut self, value: u64) {
        let slot = self.slot_of(value);
        if self.counts[slot] == 0 {
            self.keys[slot] = value;
            self.len += 1;
        }
        self.counts[slot] += 1;
        if 2 * self.len > self.keys.len() {
            self.grow();
        }
    }

    /// Doubles the slots and re-inserts every entry. Cold, so that it stays out
    /// of the insert loop `add` is inlined into (78 → 58 ms of inserts on `asm_1t`).
    #[cold]
    fn grow(&mut self) {
        let slots = 2 * self.keys.len();
        let keys = std::mem::replace(&mut self.keys, vec![0; slots]);
        let counts = std::mem::replace(&mut self.counts, vec![0; slots]);
        for (value, count) in keys.into_iter().zip(counts).filter(|&(_, c)| c > 0) {
            let slot = self.slot_of(value);
            (self.keys[slot], self.counts[slot]) = (value, count);
        }
    }

    /// Every `(value, count)` held, in slot order.
    fn entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let slots = self.keys.iter().copied().zip(self.counts.iter().copied());
        slots.filter(|&(_, count)| count > 0)
    }
}

/// Finish once anything was evicted: what is still resident — one run per
/// bucket, ascending — is flushed too, so the last merge has a single source of
/// truth, and the k-way merge of the spilled runs streams every value, in
/// ascending order, into the run-length count.
fn finish_spilled(
    resident: Vec<Vec<Vec<u64>>>,
    mut store: SpillStore,
    budget: &MemoryBudget,
    config: KmerCounterConfig,
) -> Result<(Emitter, SpillIoStats), PakmanError> {
    let remaining: Vec<&Vec<u64>> = resident.iter().flatten().collect();
    if !remaining.is_empty() {
        store.flush_buckets(&remaining)?;
    }
    drop(resident);
    budget.release(budget.used());

    let (mut cursors, io, _store) = store.into_cursors(MERGE_FAN_IN)?;
    let mut emitter = Emitter::new(config);
    let mut current: Option<(u64, u32)> = None;
    kway_merge(&mut cursors, |value| {
        match &mut current {
            Some((v, count)) if *v == value => *count += 1,
            _ => {
                if let Some((v, count)) = current.replace((value, 1)) {
                    emitter.emit(v, count);
                }
            }
        }
        Ok(())
    })?;
    if let Some((v, count)) = current {
        emitter.emit(v, count);
    }
    Ok((emitter, io))
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
        let mut reads = reads_from(&[
            "ACGTACGTACGTTTTACG",
            "GGGCCCAAATTTACGTAG",
            "ACGTACGTACGTTTTACG",
            "TTGACCAGTTGACCAGTT",
        ]);
        reads.extend(synthetic_reads(20, 40, 0x7C0));
        let config = |threads| KmerCounterConfig {
            k: 7,
            min_count: 1,
            threads,
        };
        // The plan counts these reads in one chunk at any thread count; a grain
        // of one window makes it `threads` chunks per wave, which runs the
        // per-chunk buckets, the fold and the table finish on each.
        assert_eq!(plan(kmer_windows(&reads, 7), 8, COUNT_GRAIN), 1);
        let on_chunks = |threads, bound: Option<u64>| {
            let budget = bound.map_or_else(MemoryBudget::unbounded, MemoryBudget::bounded);
            let control = RunControl::default();
            let (counted, stats, io) =
                run_waves(&reads, config(threads), &budget, &control, 1).unwrap();
            assert_eq!(io.runs_written > 0, bound.is_some(), "{bound:?}");
            (counted, stats)
        };
        let single = on_chunks(1, None);
        assert_eq!(count_kmers(&reads, config(8)).unwrap(), single);
        // 64 B: one read a wave. 2 KiB: waves of three or four reads.
        for bound in [None, Some(64), Some(2048)] {
            for chunks in [1, 2, 3, 8] {
                assert_eq!(
                    on_chunks(chunks, bound),
                    single,
                    "{chunks} chunks, {bound:?}"
                );
            }
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
        let (counted, stats, telemetry) = count_kmers_spilled(&reads, config, &spill).unwrap();
        assert!(telemetry.bytes_spilled > 0, "{telemetry:?}");
        assert!(telemetry.merge_passes >= 1, "{telemetry:?}");
        assert!(telemetry.peak_resident_bytes > 0);
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
        let (counted, stats, telemetry) = count_kmers_spilled(&reads, config, &spill).unwrap();
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
            count_kmers_spilled(&reads, config, &SpillConfig::bounded(1 << 20)).unwrap();
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
        let err = count_kmers_spilled(&reads, config, &SpillConfig::in_memory()).unwrap_err();
        assert!(matches!(err, PakmanError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn a_run_that_never_overdraws_creates_no_spill_directory() {
        use crate::spill::STORES_CREATED;
        let reads = synthetic_reads(200, 80, 0xD1A);
        let config = KmerCounterConfig {
            k: 11,
            min_count: 2,
            threads: 4,
        };
        let control = RunControl::default();
        let created_before = STORES_CREATED.get();
        let unbounded = SpillConfig::in_memory();
        let (expected, expected_stats, telemetry) =
            count_kmers_controlled(&reads, config, &unbounded, &control).unwrap();
        assert_eq!(telemetry, None);
        // 200 × 70 windows × 8 B = 112 000 B arrive in two waves of at most
        // 64 KiB and never overdraw 128 KiB.
        let roomy = SpillConfig::bounded(128 << 10);
        let (counted, stats, telemetry) = count_kmers_spilled(&reads, config, &roomy).unwrap();
        assert_eq!(STORES_CREATED.get(), created_before);
        assert_eq!((counted, stats), (expected, expected_stats));
        assert_eq!(
            telemetry,
            SpillTelemetry {
                budget_bytes: 128 << 10,
                bytes_spilled: 0,
                runs_written: 0,
                merge_passes: 0,
                peak_resident_bytes: 112_000,
            }
        );
        // A budget the same reads overflow creates exactly one.
        let tight = SpillConfig::bounded(4 << 10);
        let (_, _, telemetry) = count_kmers_spilled(&reads, config, &tight).unwrap();
        assert!(telemetry.runs_written > 0, "{telemetry:?}");
        assert_eq!(STORES_CREATED.get(), created_before + 1);
    }

    /// What [`count_bucket`] emits for a bucket of `runs`, as `(value,
    /// multiplicity)` pairs, and its `(distinct, pruned)` tallies.
    fn emitted(min_count: u32, runs: &[&[u64]]) -> (Vec<(u64, u32)>, usize, usize) {
        let mut emitter = Emitter::new(KmerCounterConfig {
            k: 4,
            min_count,
            threads: 1,
        });
        let runs: Vec<Vec<u64>> = runs.iter().map(|run| run.to_vec()).collect();
        count_bucket(&runs, &mut CountTable::default(), &mut emitter);
        let stream = emitter.counted.iter().map(|c| (c.kmer.packed(), c.count));
        (stream.collect(), emitter.distinct, emitter.pruned)
    }

    #[test]
    fn the_emitter_at_its_edges() {
        // One value, in either run.
        assert_eq!(emitted(1, &[&[5], &[]]), (vec![(5, 1)], 1, 0));
        assert_eq!(emitted(1, &[&[], &[5]]), (vec![(5, 1)], 1, 0));
        assert_eq!(emitted(2, &[&[5]]), (vec![], 1, 1));
        assert_eq!(emitted(1, &[&[], &[]]), (vec![], 0, 0));
        assert_eq!(emitted(1, &[]), (vec![], 0, 0));
        // All-equal input is one k-mer, split between the runs or not.
        assert_eq!(emitted(1, &[&[7; 4], &[7; 3]]), (vec![(7, 7)], 1, 0));
        assert_eq!(emitted(1, &[&[7; 7]]), (vec![(7, 7)], 1, 0));
        // A multiplicity of exactly `min_count` survives, one less is pruned —
        // wherever the occurrences sit, the largest value included, and in
        // whatever order the runs hold them.
        assert_eq!(
            emitted(3, &[&[9, 1, 2, 1, 2], &[3, 1, 9, 3, 3]]),
            (vec![(1, 3), (3, 3)], 4, 2)
        );
    }

    #[test]
    fn the_count_table_grows_past_its_first_size_and_keeps_every_count() {
        // 64 slots for 256 occurrences; 201 distinct values force three
        // doublings, and 0 and `u64::MAX` are values like any other.
        let values: Vec<u64> = (0..200u64)
            .map(|v| v.wrapping_mul(0x0123_4567_89AB_CDEF))
            .chain([0, u64::MAX, u64::MAX])
            .collect();
        let mut run = values.clone();
        run.extend_from_slice(&values[..53]);
        let mut table = CountTable::default();
        table.reset(run.len());
        assert_eq!(table.keys.len(), 64);
        run.iter().for_each(|&value| table.add(value));
        assert_eq!(table.keys.len(), 512);
        let mut got: Vec<(u64, u32)> = table.entries().collect();
        got.sort_unstable();
        let mut want = std::collections::BTreeMap::new();
        for &value in &run {
            *want.entry(value).or_insert(0u32) += 1;
        }
        assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        // A reset empties it and sizes it down for the next bucket.
        table.reset(8);
        assert_eq!((table.keys.len(), table.entries().count()), (64, 0));
    }

    #[test]
    fn a_run_ending_at_a_bucket_boundary_is_not_carried_into_the_next_bucket() {
        // CGTA repeated holds the 2-mers AC = 1, CG = 7, TA = 8 and GT = 14
        // only. At two buckets over the sixteen 2-mer values, bucket 0 ends on
        // the run of 7s and bucket 1 opens with the run of 8s: neighbouring
        // values the finish must keep apart, and close, at the boundary.
        let reads = reads_from(&["CGTA".repeat(1000).as_str(); 9]);
        let windows = kmer_windows(&reads, 2);
        assert_eq!(windows, 9 * 3999);
        assert_eq!(bucket_bits_for(windows, 2), 1);
        let config = KmerCounterConfig {
            k: 2,
            min_count: 1,
            threads: 1,
        };
        let (counted, stats) = count_kmers(&reads, config).unwrap();
        let stream: Vec<(u64, u32)> = counted.iter().map(|c| (c.kmer.packed(), c.count)).collect();
        assert_eq!(stream, vec![(1, 8991), (7, 9000), (8, 9000), (14, 9000)]);
        assert_eq!(counted[1].kmer, Kmer::from_ascii("CG").unwrap());
        assert_eq!((stats.distinct_kmers, stats.pruned_kmers), (4, 0));
        // The spilled runs give the same stream: there the last run is closed by
        // the end of the merge, not by a bucket.
        let tight = SpillConfig::bounded(256);
        let (spilled, spilled_stats, telemetry) =
            count_kmers_spilled(&reads, config, &tight).unwrap();
        assert!(telemetry.runs_written > 0);
        assert_eq!((spilled, spilled_stats), (counted, stats));
    }

    #[test]
    fn a_chained_ledger_reads_zero_after_every_kind_of_run() {
        use std::sync::Arc;
        let global = Arc::new(MemoryBudget::unbounded());
        let control = RunControl::default().with_ledger(&global);
        let reads = synthetic_reads(200, 80, 0x1ED6);
        let config = KmerCounterConfig {
            k: 11,
            min_count: 2,
            threads: 4,
        };
        // A run that spills: evictions and the last flush release as they go.
        let tight = SpillConfig::bounded(4 << 10);
        let (_, _, telemetry) = count_kmers_controlled(&reads, config, &tight, &control).unwrap();
        let telemetry = telemetry.unwrap();
        assert!(telemetry.bytes_spilled > 0);
        assert_eq!(global.used(), 0);
        assert_eq!(global.peak_bytes(), telemetry.peak_resident_bytes);
        // A run that never overflows finishes with every bucket still charged.
        let roomy = SpillConfig::bounded(1 << 20);
        let (_, _, telemetry) = count_kmers_controlled(&reads, config, &roomy, &control).unwrap();
        assert_eq!(telemetry.unwrap().bytes_spilled, 0);
        assert_eq!(global.peak_bytes(), 200 * 70 * 8);
        assert_eq!(global.used(), 0);
        // A failure: no read is long enough to hold a k-mer.
        let short = reads_from(&["ACG", "TT"]);
        let err = count_kmers_controlled(&short, config, &roomy, &control).unwrap_err();
        assert!(matches!(err, PakmanError::EmptyInput { .. }), "{err}");
        assert_eq!(global.used(), 0);
        // A token cancelled before the first wave.
        let cancelled = RunControl::default().with_ledger(&global);
        cancelled.cancel.cancel();
        let err = count_kmers_controlled(&reads, config, &tight, &cancelled).unwrap_err();
        assert!(matches!(err, PakmanError::Cancelled { .. }), "{err}");
        assert_eq!(global.used(), 0);
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
