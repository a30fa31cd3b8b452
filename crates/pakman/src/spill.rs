//! The run files of the bucket-major k-mer counter (its external memory).
//!
//! When [`crate::kmer_count`]'s wave loop overdraws a
//! [`crate::config::SpillConfig`] byte budget, it evicts its largest resident
//! buckets to disk as **sorted packed-`u64` runs** and streams them back at
//! the end through a k-way merge into the same emitter every finish feeds, so
//! the counted output is bit-identical at any budget (see DESIGN.md,
//! "External-memory counting"). This module owns the files — format, framing
//! checks, fan-in reduction, k-way read-back — and no counting: the store is
//! created on the counter's first eviction, so a run that never overdraws
//! touches no file.
//!
//! # On-disk format
//!
//! A `SpillStore` owns one temporary directory holding one file per **disk
//! partition**. A k-mer belongs to the partition of its *owner* (k-1)-mer under
//! the frozen [`nmp_pak_genome::shard_of_packed`] hash — the same hash that
//! assigns MacroNodes to shards — so spill partitions align with shard
//! ownership for free (partition `p` holds exactly the k-mers shard `p` will
//! consume during construction). Each partition file is a sequence of
//! self-framing runs:
//!
//! ```text
//! run := count: u64 LE | count × (packed k-mer: u64 LE, ascending)
//! ```
//!
//! Framing is validated on read-back: a header that overruns the file, a short
//! read, or an out-of-order value yields [`PakmanError::Spill`] instead of a
//! silently wrong assembly.

use crate::error::PakmanError;
use std::collections::BinaryHeap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Telemetry of one counting run under a byte budget (recorded whenever
/// [`crate::config::SpillConfig`] is bounded, even if the workload never
/// overflowed the budget — then everything but the peak reads zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillTelemetry {
    /// The configured resident-byte budget.
    pub budget_bytes: u64,
    /// Total bytes written to spill files, including intermediate merge-pass
    /// output (0 when the workload fit the budget).
    pub bytes_spilled: u64,
    /// Number of sorted runs written across all partitions.
    pub runs_written: u64,
    /// k-way merge passes over spilled runs: intermediate fan-in reductions
    /// plus the final fused count+prune pass (0 when nothing spilled).
    pub merge_passes: u32,
    /// High-water mark of resident extracted k-mer bytes, as accounted by the
    /// counter's [`crate::memory::MemoryBudget`].
    pub peak_resident_bytes: u64,
    /// Number of owner-hash disk partitions (the shard count).
    pub partitions: usize,
}

/// One sorted run inside a partition file.
#[derive(Debug, Clone)]
pub(crate) struct Run {
    partition: usize,
    path: PathBuf,
    /// Byte offset of the run header within the file.
    offset: u64,
    /// Number of packed k-mers in the run.
    len: u64,
}

/// Aggregate I/O counters a [`SpillStore`] hands back when consumed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpillIoStats {
    pub(crate) bytes_spilled: u64,
    pub(crate) runs_written: u64,
    pub(crate) merge_passes: u32,
}

/// Sorted runs fused per k-way merge pass during read-back; a partition holding
/// more is reduced by intermediate passes first. Wide enough that a toy
/// workload merges in one pass, narrow enough that cursor buffers stay
/// cache-friendly.
pub(crate) const MERGE_FAN_IN: usize = 16;

/// Unique suffix for spill directories, so concurrent counters in one process
/// (e.g. pipelined batch fronts) never collide.
static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Stores this thread has created: lets a test pin "a run that never
    /// overdraws its budget creates no spill directory".
    pub(crate) static STORES_CREATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn io_err(context: &str, path: &Path, err: std::io::Error) -> PakmanError {
    PakmanError::Spill {
        message: format!("{context} {}: {err}", path.display()),
    }
}

/// The owner-hash disk partition of a packed k-mer: the shard of its prefix
/// (k-1)-mer, exactly as [`crate::kmer_count::partition_counted_by_owner`]
/// assigns counted k-mers to shards.
#[inline]
fn partition_of(packed: u64, partitions: usize) -> usize {
    nmp_pak_genome::shard_of_packed(packed >> 2, partitions)
}

/// A temporary on-disk store of sorted spill runs, one file per owner-hash
/// partition. The backing directory is removed when the store is dropped.
#[derive(Debug)]
pub(crate) struct SpillStore {
    dir: PathBuf,
    partitions: usize,
    runs: Vec<Run>,
    io: SpillIoStats,
}

impl SpillStore {
    /// Creates the store's temporary directory under [`std::env::temp_dir`].
    pub(crate) fn create(partitions: usize) -> Result<SpillStore, PakmanError> {
        let partitions = partitions.max(1);
        let dir = std::env::temp_dir().join(format!(
            "nmp-pak-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| io_err("creating spill directory", &dir, e))?;
        #[cfg(test)]
        STORES_CREATED.with(|created| created.set(created.get() + 1));
        Ok(SpillStore {
            dir,
            partitions,
            runs: Vec::new(),
            io: SpillIoStats::default(),
        })
    }

    fn partition_path(&self, partition: usize) -> PathBuf {
        self.dir.join(format!("part-{partition}.runs"))
    }

    /// Flushes one spill event: the selected resident buckets, which the caller
    /// passes **in ascending bucket order** so their concatenation is one
    /// globally sorted stream. The stream is split by owner hash and appended
    /// to each partition file as one new sorted run.
    pub(crate) fn flush_buckets(&mut self, buckets: &[&Vec<u64>]) -> Result<(), PakmanError> {
        debug_assert!(
            buckets
                .windows(2)
                .all(|w| w[0].last().zip(w[1].first()).is_none_or(|(a, b)| a <= b)),
            "flushed buckets must arrive in ascending value order"
        );
        let mut sizes = vec![0u64; self.partitions];
        for bucket in buckets {
            for &value in bucket.iter() {
                sizes[partition_of(value, self.partitions)] += 1;
            }
        }
        for (partition, &size) in sizes.iter().enumerate() {
            if size == 0 {
                continue;
            }
            let path = self.partition_path(partition);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err("opening spill partition", &path, e))?;
            let offset = file
                .metadata()
                .map_err(|e| io_err("inspecting spill partition", &path, e))?
                .len();
            let mut writer = BufWriter::new(file);
            writer
                .write_all(&size.to_le_bytes())
                .map_err(|e| io_err("writing run header to", &path, e))?;
            for bucket in buckets {
                for &value in bucket.iter() {
                    if partition_of(value, self.partitions) == partition {
                        writer
                            .write_all(&value.to_le_bytes())
                            .map_err(|e| io_err("writing run to", &path, e))?;
                    }
                }
            }
            writer
                .flush()
                .map_err(|e| io_err("flushing run to", &path, e))?;
            self.runs.push(Run {
                partition,
                path,
                offset,
                len: size,
            });
            self.io.runs_written += 1;
            self.io.bytes_spilled += 8 + size * 8;
        }
        Ok(())
    }

    /// Reduces every partition to at most `fan_in` runs by k-way merging its
    /// oldest runs into new (still sorted, still partition-local) runs appended
    /// to the same file. Intermediate merges never count or prune — only the
    /// final fused pass does — so duplicates survive until then and the counted
    /// output cannot depend on how many passes ran.
    fn reduce_runs(&mut self, fan_in: usize) -> Result<(), PakmanError> {
        let fan_in = fan_in.max(2);
        for partition in 0..self.partitions {
            loop {
                let indices: Vec<usize> = self
                    .runs
                    .iter()
                    .enumerate()
                    .filter(|(_, run)| run.partition == partition)
                    .map(|(i, _)| i)
                    .take(fan_in)
                    .collect();
                if indices.len() < fan_in
                    || self
                        .runs
                        .iter()
                        .filter(|r| r.partition == partition)
                        .count()
                        <= fan_in
                {
                    break;
                }
                let merged_len: u64 = indices.iter().map(|&i| self.runs[i].len).sum();
                let mut cursors = indices
                    .iter()
                    .map(|&i| RunCursor::open(&self.runs[i]))
                    .collect::<Result<Vec<_>, _>>()?;

                let path = self.partition_path(partition);
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err("opening spill partition", &path, e))?;
                let offset = file
                    .metadata()
                    .map_err(|e| io_err("inspecting spill partition", &path, e))?
                    .len();
                let mut writer = BufWriter::new(file);
                writer
                    .write_all(&merged_len.to_le_bytes())
                    .map_err(|e| io_err("writing run header to", &path, e))?;
                let mut write_failure = None;
                kway_merge(&mut cursors, |value| {
                    if write_failure.is_none() {
                        if let Err(e) = writer.write_all(&value.to_le_bytes()) {
                            write_failure = Some(io_err("writing merged run to", &path, e));
                        }
                    }
                })?;
                if let Some(err) = write_failure {
                    return Err(err);
                }
                writer
                    .flush()
                    .map_err(|e| io_err("flushing merged run to", &path, e))?;

                // Retire the inputs (descending index so removals stay valid)
                // and register the merged run at the back of the queue.
                for &i in indices.iter().rev() {
                    self.runs.remove(i);
                }
                self.runs.push(Run {
                    partition,
                    path,
                    offset,
                    len: merged_len,
                });
                self.io.runs_written += 1;
                self.io.bytes_spilled += 8 + merged_len * 8;
                self.io.merge_passes += 1;
            }
        }
        Ok(())
    }

    /// Opens cursors over every remaining run, reducing each partition to at
    /// most `fan_in` runs first. The caller drives the final fused merge; the
    /// final pass is counted here so the telemetry always reports ≥ 1 pass when
    /// anything spilled.
    pub(crate) fn into_cursors(
        mut self,
        fan_in: usize,
    ) -> Result<(Vec<RunCursor>, SpillIoStats, SpillStore), PakmanError> {
        self.reduce_runs(fan_in)?;
        self.io.merge_passes += 1;
        let cursors = self
            .runs
            .iter()
            .map(RunCursor::open)
            .collect::<Result<Vec<_>, _>>()?;
        let io = self.io;
        // Hand the store back so its directory outlives the cursors.
        Ok((cursors, io, self))
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best-effort cleanup; a leaked temp dir is not worth failing a run.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Buffered reader over one sorted run, validating framing and ordering.
#[derive(Debug)]
pub(crate) struct RunCursor {
    reader: BufReader<File>,
    path: PathBuf,
    remaining: u64,
    last: Option<u64>,
}

impl RunCursor {
    /// Opens the run, validating its header against the descriptor and the
    /// file's actual size.
    pub(crate) fn open(run: &Run) -> Result<RunCursor, PakmanError> {
        let file = File::open(&run.path).map_err(|e| io_err("opening spill run", &run.path, e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("inspecting spill run", &run.path, e))?
            .len();
        let mut reader = BufReader::with_capacity(16 * 1024, file);
        reader
            .seek(SeekFrom::Start(run.offset))
            .map_err(|e| io_err("seeking spill run in", &run.path, e))?;
        let mut header = [0u8; 8];
        reader
            .read_exact(&mut header)
            .map_err(|e| io_err("reading run header from", &run.path, e))?;
        let count = u64::from_le_bytes(header);
        if count != run.len {
            return Err(PakmanError::Spill {
                message: format!(
                    "corrupt run header in {}: expected {} k-mers, found {count}",
                    run.path.display(),
                    run.len
                ),
            });
        }
        let end = run.offset + 8 + count.saturating_mul(8);
        if end > file_len {
            return Err(PakmanError::Spill {
                message: format!(
                    "truncated spill run in {}: needs {end} bytes, file has {file_len}",
                    run.path.display()
                ),
            });
        }
        Ok(RunCursor {
            reader,
            path: run.path.clone(),
            remaining: count,
            last: None,
        })
    }

    /// The next packed k-mer, or `None` at the end of the run.
    pub(crate) fn next(&mut self) -> Result<Option<u64>, PakmanError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut buf = [0u8; 8];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| io_err("reading spill run from", &self.path, e))?;
        let value = u64::from_le_bytes(buf);
        if self.last.is_some_and(|last| value < last) {
            return Err(PakmanError::Spill {
                message: format!(
                    "corrupt spill run in {}: values out of order ({} after {})",
                    self.path.display(),
                    value,
                    self.last.expect("checked above")
                ),
            });
        }
        self.last = Some(value);
        self.remaining -= 1;
        Ok(Some(value))
    }
}

/// K-way merges the sorted cursors, feeding the globally ascending value
/// stream to `emit`. Ties are broken by cursor index, which only affects the
/// order duplicates are emitted in — invisible after run-length counting.
pub(crate) fn kway_merge(
    cursors: &mut [RunCursor],
    mut emit: impl FnMut(u64),
) -> Result<(), PakmanError> {
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter_mut().enumerate() {
        if let Some(value) = cursor.next()? {
            heap.push(std::cmp::Reverse((value, i)));
        }
    }
    while let Some(std::cmp::Reverse((value, i))) = heap.pop() {
        emit(value);
        if let Some(next) = cursors[i].next()? {
            heap.push(std::cmp::Reverse((next, i)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_bucket(values: &[u64]) -> Vec<u64> {
        let mut v = values.to_vec();
        v.sort_unstable();
        v
    }

    fn drain(cursors: &mut [RunCursor]) -> Result<Vec<u64>, PakmanError> {
        let mut out = Vec::new();
        kway_merge(cursors, |v| out.push(v))?;
        Ok(out)
    }

    #[test]
    fn round_trips_one_flush_through_the_merge() {
        let mut store = SpillStore::create(4).unwrap();
        let bucket = sorted_bucket(&[9, 1, 5, 5, 3, 7, 1]);
        store.flush_buckets(&[&bucket]).unwrap();
        assert!(!store.runs.is_empty());
        let (mut cursors, io, _store) = store.into_cursors(16).unwrap();
        assert_eq!(io.merge_passes, 1);
        assert!(io.bytes_spilled > 0);
        assert_eq!(
            drain(&mut cursors).unwrap(),
            sorted_bucket(&[9, 1, 5, 5, 3, 7, 1])
        );
    }

    #[test]
    fn multiple_flushes_merge_back_sorted_across_partitions() {
        let mut store = SpillStore::create(3).unwrap();
        for chunk in [[4u64, 40, 400], [2, 20, 200], [6, 60, 600]] {
            let bucket = sorted_bucket(&chunk);
            store.flush_buckets(&[&bucket]).unwrap();
        }
        let (mut cursors, _, _store) = store.into_cursors(16).unwrap();
        let merged = drain(&mut cursors).unwrap();
        assert_eq!(merged, sorted_bucket(&[4, 40, 400, 2, 20, 200, 6, 60, 600]));
    }

    #[test]
    fn narrow_fan_in_forces_intermediate_passes_without_changing_the_stream() {
        let mut store = SpillStore::create(2).unwrap();
        let mut expected = Vec::new();
        for i in 0..10u64 {
            let bucket = sorted_bucket(&[i, i + 100, i + 100, i + 200]);
            expected.extend_from_slice(&bucket);
            store.flush_buckets(&[&bucket]).unwrap();
        }
        expected.sort_unstable();
        let (mut cursors, io, _store) = store.into_cursors(2).unwrap();
        assert!(
            io.merge_passes > 1,
            "10 runs over fan-in 2 must take intermediate passes, got {}",
            io.merge_passes
        );
        assert_eq!(drain(&mut cursors).unwrap(), expected);
    }

    #[test]
    fn partitions_follow_the_owner_hash() {
        let mut store = SpillStore::create(8).unwrap();
        let bucket = sorted_bucket(&(0..500u64).map(|i| i * 97).collect::<Vec<_>>());
        store.flush_buckets(&[&bucket]).unwrap();
        for run in &store.runs {
            let mut cursor = RunCursor::open(run).unwrap();
            while let Some(value) = cursor.next().unwrap() {
                assert_eq!(partition_of(value, 8), run.partition);
            }
        }
    }

    #[test]
    fn truncated_run_file_is_detected() {
        let mut store = SpillStore::create(1).unwrap();
        let bucket = sorted_bucket(&(0..64u64).collect::<Vec<_>>());
        store.flush_buckets(&[&bucket]).unwrap();
        let run = store.runs[0].clone();
        // Chop the tail off the payload.
        let file = OpenOptions::new().write(true).open(&run.path).unwrap();
        file.set_len(8 + 16).unwrap();
        let err = RunCursor::open(&run).unwrap_err();
        assert!(matches!(err, PakmanError::Spill { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn corrupt_header_is_detected() {
        let mut store = SpillStore::create(1).unwrap();
        let bucket = sorted_bucket(&[1, 2, 3]);
        store.flush_buckets(&[&bucket]).unwrap();
        let run = store.runs[0].clone();
        let mut file = OpenOptions::new().write(true).open(&run.path).unwrap();
        file.seek(SeekFrom::Start(run.offset)).unwrap();
        file.write_all(&u64::MAX.to_le_bytes()).unwrap();
        let err = RunCursor::open(&run).unwrap_err();
        assert!(err.to_string().contains("corrupt run header"), "{err}");
    }

    #[test]
    fn out_of_order_payload_is_detected() {
        let mut store = SpillStore::create(1).unwrap();
        let bucket = sorted_bucket(&[10, 20, 30]);
        store.flush_buckets(&[&bucket]).unwrap();
        let run = store.runs[0].clone();
        // Overwrite the middle value with something smaller than its predecessor.
        let mut file = OpenOptions::new().write(true).open(&run.path).unwrap();
        file.seek(SeekFrom::Start(run.offset + 8 + 8)).unwrap();
        file.write_all(&1u64.to_le_bytes()).unwrap();
        let mut cursor = RunCursor::open(&run).unwrap();
        assert_eq!(cursor.next().unwrap(), Some(10));
        let err = cursor.next().unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    #[test]
    fn store_drop_removes_the_spill_directory() {
        let store = SpillStore::create(2).unwrap();
        let dir = store.dir.clone();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }
}
