//! Streaming read ingestion: the [`ReadSource`] trait and its implementations.
//!
//! NMP-PaK's batched process flow (§4.4 of the paper) exists because real read
//! sets are far larger than memory. A [`ReadSource`] is the ingestion side of
//! that contract: a chunked, bounded-memory pull API that hands the assembler
//! one [`ReadChunk`] at a time, so downstream stages never require the full
//! read set to be materialized.
//!
//! Three implementations cover the common cases:
//!
//! * [`InMemorySource`] — wraps an existing `&[SequencingRead]` slice and hands
//!   out zero-copy borrowed chunks (the compatibility path for the old
//!   slice-based APIs);
//! * [`FastaFastqSource`] — streams records off a [`BufRead`] (a FASTA or
//!   FASTQ file) via the incremental parsers in [`crate::fasta`], holding at
//!   most one chunk of reads in memory;
//! * [`SyntheticSource`] — generates simulated reads chunk by chunk from a
//!   seeded RNG, producing exactly the same read stream as
//!   [`crate::ReadSimulator`] with the same configuration.
//!
//! The trait is parameterized by the lifetime `'src` of the data a chunk may
//! borrow: sources that own or generate their reads implement
//! `ReadSource<'static>` and return owned chunks, while [`InMemorySource`]
//! borrows from the wrapped slice. Chunks outlive the `&mut self` borrow of
//! [`ReadSource::next_chunk`], which is what lets a pipelined scheduler keep
//! several chunks in flight on worker threads while pulling the next one.
//!
//! [`PrefetchSource`] wraps any owning source with a dedicated parse/generate
//! worker thread behind a bounded two-slot channel, double-buffering ingestion
//! so disk latency overlaps the consumer's compute even in a sequential
//! schedule.

use crate::error::GenomeError;
use crate::fasta::{FastaReader, FastqReader};
use crate::reads::SequencingRead;
use crate::reference::ReferenceGenome;
use crate::sequencer::{sample_read, SequencerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::ops::Range;
use std::path::Path;

/// Default number of reads per chunk for owning sources (~100 bp short reads →
/// a few hundred KB of in-flight data per chunk).
pub const DEFAULT_CHUNK_READS: usize = 4_096;

/// One chunk of reads pulled from a [`ReadSource`] — either borrowed from the
/// source's backing slice (zero-copy) or owned by the chunk.
#[derive(Debug, Clone)]
pub enum ReadChunk<'a> {
    /// Reads borrowed from data that outlives the source (e.g. the slice an
    /// [`InMemorySource`] wraps).
    Borrowed(&'a [SequencingRead]),
    /// Reads owned by the chunk (streamed off disk or generated).
    Owned(Vec<SequencingRead>),
}

impl<'a> ReadChunk<'a> {
    /// The reads in this chunk.
    pub fn reads(&self) -> &[SequencingRead] {
        match self {
            ReadChunk::Borrowed(reads) => reads,
            ReadChunk::Owned(reads) => reads,
        }
    }

    /// Number of reads in the chunk.
    pub fn len(&self) -> usize {
        self.reads().len()
    }

    /// `true` if the chunk holds no reads.
    pub fn is_empty(&self) -> bool {
        self.reads().is_empty()
    }

    /// Consumes the chunk, returning its reads — a move for owned chunks, a
    /// copy only for borrowed ones (materializing consumers use this so the
    /// owned streaming path never re-allocates read data).
    pub fn into_reads(self) -> Vec<SequencingRead> {
        match self {
            ReadChunk::Borrowed(reads) => reads.to_vec(),
            ReadChunk::Owned(reads) => reads,
        }
    }

    /// Total bases across the chunk's reads.
    pub fn total_bases(&self) -> u64 {
        self.reads().iter().map(|r| r.len() as u64).sum()
    }

    /// Approximate in-memory footprint of the chunk's reads in bytes (2-bit
    /// packed sequence + qualities + id + per-read bookkeeping). This is the
    /// quantity the pipelined batch scheduler budgets with
    /// `max_inflight_bytes`; it is an estimate, not an allocator measurement.
    pub fn approx_read_bytes(&self) -> u64 {
        self.reads()
            .iter()
            .map(|r| {
                (r.len().div_ceil(4) + r.qualities().len() + r.id().len()) as u64
                    + APPROX_READ_OVERHEAD_BYTES
            })
            .sum()
    }
}

/// Fixed per-read bookkeeping charged by [`ReadChunk::approx_read_bytes`]
/// (struct fields plus allocator overhead).
const APPROX_READ_OVERHEAD_BYTES: u64 = 64;

impl std::ops::Deref for ReadChunk<'_> {
    type Target = [SequencingRead];

    fn deref(&self) -> &[SequencingRead] {
        self.reads()
    }
}

impl From<Vec<SequencingRead>> for ReadChunk<'static> {
    fn from(reads: Vec<SequencingRead>) -> Self {
        ReadChunk::Owned(reads)
    }
}

impl<'a> From<&'a [SequencingRead]> for ReadChunk<'a> {
    fn from(reads: &'a [SequencingRead]) -> Self {
        ReadChunk::Borrowed(reads)
    }
}

/// A chunked, bounded-memory producer of sequencing reads.
///
/// `'src` is the lifetime of the data chunks may borrow; owning sources use
/// `'static`. Implementations must be deterministic: pulling the chunks of the
/// same source configuration twice yields the same read stream, which is what
/// makes batch schedules over a source bit-reproducible.
pub trait ReadSource<'src> {
    /// Pulls the next chunk of reads, or `Ok(None)` once the source is
    /// exhausted. Chunks are non-overlapping and arrive in read order;
    /// implementations should not return empty chunks, and consumers skip any
    /// that do appear.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError`] for I/O or parse failures in the underlying
    /// medium.
    fn next_chunk(&mut self) -> Result<Option<ReadChunk<'src>>, GenomeError>;

    /// Bounds on the number of reads remaining: `(lower, Some(upper))` when
    /// known exactly, `(lower, None)` when the total is unknown (e.g. an
    /// unparsed file).
    fn reads_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Upper bound on the total bases remaining, when known.
    fn bases_hint(&self) -> Option<u64> {
        None
    }
}

/// Zero-copy [`ReadSource`] over an in-memory slice.
///
/// The chunk boundaries are explicit index ranges, so a batch planner can map
/// its plan directly onto the source (one range per batch).
#[derive(Debug, Clone)]
pub struct InMemorySource<'r> {
    reads: &'r [SequencingRead],
    ranges: Vec<Range<usize>>,
    next: usize,
}

impl<'r> InMemorySource<'r> {
    /// A source yielding the whole slice as a single chunk.
    pub fn new(reads: &'r [SequencingRead]) -> InMemorySource<'r> {
        InMemorySource {
            ranges: if reads.is_empty() {
                Vec::new()
            } else {
                std::iter::once(0..reads.len()).collect()
            },
            reads,
            next: 0,
        }
    }

    /// A source yielding chunks of at most `chunk_reads` reads.
    pub fn chunked(reads: &'r [SequencingRead], chunk_reads: usize) -> InMemorySource<'r> {
        let chunk_reads = chunk_reads.max(1);
        let ranges = (0..reads.len())
            .step_by(chunk_reads)
            .map(|start| start..(start + chunk_reads).min(reads.len()))
            .collect();
        InMemorySource {
            reads,
            ranges,
            next: 0,
        }
    }

    /// A source yielding exactly the given index ranges, one chunk per range
    /// (the hook a batch planner uses to control batch boundaries).
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidConfig`] if any range is inverted or
    /// exceeds the slice.
    pub fn with_ranges(
        reads: &'r [SequencingRead],
        ranges: Vec<Range<usize>>,
    ) -> Result<InMemorySource<'r>, GenomeError> {
        if let Some(range) = ranges.iter().find(|r| r.start > r.end) {
            return Err(GenomeError::InvalidConfig {
                message: format!("chunk range {range:?} is inverted (start > end)"),
            });
        }
        if let Some(range) = ranges.iter().find(|r| r.end > reads.len()) {
            return Err(GenomeError::InvalidConfig {
                message: format!(
                    "chunk range {range:?} exceeds the read slice of length {}",
                    reads.len()
                ),
            });
        }
        Ok(InMemorySource {
            reads,
            ranges,
            next: 0,
        })
    }
}

impl<'r> ReadSource<'r> for InMemorySource<'r> {
    fn next_chunk(&mut self) -> Result<Option<ReadChunk<'r>>, GenomeError> {
        let Some(range) = self.ranges.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        Ok(Some(ReadChunk::Borrowed(&self.reads[range.clone()])))
    }

    fn reads_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.ranges[self.next..].iter().map(Range::len).sum();
        (remaining, Some(remaining))
    }

    fn bases_hint(&self) -> Option<u64> {
        Some(
            self.ranges[self.next..]
                .iter()
                .flat_map(|range| &self.reads[range.clone()])
                .map(|r| r.len() as u64)
                .sum(),
        )
    }
}

/// The on-disk format a [`FastaFastqSource`] is parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequenceFileFormat {
    /// `>`-headed records, sequences wrapped over multiple lines.
    Fasta,
    /// Four-line `@`-headed records with Phred+33 qualities.
    Fastq,
}

#[derive(Debug)]
enum RecordStream<R: BufRead> {
    Fasta(FastaReader<R>),
    Fastq(FastqReader<R>),
}

/// Buffered streaming [`ReadSource`] over FASTA or FASTQ text.
///
/// Records are parsed incrementally — the file is never materialized — and
/// grouped into owned chunks of [`FastaFastqSource::chunk_reads`] reads, so the
/// peak ingestion memory is one chunk regardless of file size. FASTA records
/// become reads named after their header; FASTQ qualities are kept.
#[derive(Debug)]
pub struct FastaFastqSource<R: BufRead> {
    stream: RecordStream<R>,
    chunk_reads: usize,
    /// Size of the backing file in bytes, when known (set by
    /// [`FastaFastqSource::open`] from file metadata, or explicitly via
    /// [`FastaFastqSource::with_size_hint`]). Feeds [`ReadSource::bases_hint`]
    /// so byte-budget admission works for streamed files.
    byte_size: Option<u64>,
}

impl<R: BufRead> FastaFastqSource<R> {
    /// A source parsing `reader` as FASTA.
    pub fn fasta(reader: R) -> FastaFastqSource<R> {
        FastaFastqSource {
            stream: RecordStream::Fasta(FastaReader::new(reader)),
            chunk_reads: DEFAULT_CHUNK_READS,
            byte_size: None,
        }
    }

    /// A source parsing `reader` as FASTQ.
    pub fn fastq(reader: R) -> FastaFastqSource<R> {
        FastaFastqSource {
            stream: RecordStream::Fastq(FastqReader::new(reader)),
            chunk_reads: DEFAULT_CHUNK_READS,
            byte_size: None,
        }
    }

    /// A source that sniffs the format from the first significant byte of
    /// `reader` (`>` → FASTA, anything else → FASTQ).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the probe.
    pub fn sniff(mut reader: R) -> Result<FastaFastqSource<R>, GenomeError> {
        let buffered = reader.fill_buf()?;
        let format = match buffered.iter().find(|b| !b.is_ascii_whitespace()) {
            Some(b'>') => SequenceFileFormat::Fasta,
            _ => SequenceFileFormat::Fastq,
        };
        Ok(match format {
            SequenceFileFormat::Fasta => FastaFastqSource::fasta(reader),
            SequenceFileFormat::Fastq => FastaFastqSource::fastq(reader),
        })
    }

    /// Sets the number of reads per chunk (the ingestion memory granule).
    pub fn with_chunk_reads(mut self, chunk_reads: usize) -> FastaFastqSource<R> {
        self.chunk_reads = chunk_reads.max(1);
        self
    }

    /// Declares the byte size of the backing data, enabling
    /// [`ReadSource::bases_hint`] for readers that are not files (network
    /// streams, compressed wrappers). [`FastaFastqSource::open`] sets this
    /// automatically from file metadata.
    pub fn with_size_hint(mut self, byte_size: u64) -> FastaFastqSource<R> {
        self.byte_size = Some(byte_size);
        self
    }

    /// The format this source is parsing.
    pub fn format(&self) -> SequenceFileFormat {
        match self.stream {
            RecordStream::Fasta(_) => SequenceFileFormat::Fasta,
            RecordStream::Fastq(_) => SequenceFileFormat::Fastq,
        }
    }

    fn next_read(&mut self) -> Result<Option<SequencingRead>, GenomeError> {
        match &mut self.stream {
            RecordStream::Fasta(reader) => Ok(reader
                .next_record()?
                .map(|record| SequencingRead::new(record.name, record.sequence))),
            RecordStream::Fastq(reader) => reader.next_record(),
        }
    }
}

impl FastaFastqSource<BufReader<File>> {
    /// Opens a FASTA/FASTQ file, sniffing the format from its content. The
    /// file's metadata size becomes the source's size hint, so byte-budget
    /// admission ([`ReadSource::bases_hint`]) works for streamed files.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening or probing the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, GenomeError> {
        let file = File::open(path)?;
        let byte_size = file.metadata().map(|m| m.len()).ok();
        let mut source = FastaFastqSource::sniff(BufReader::new(file))?;
        source.byte_size = byte_size;
        Ok(source)
    }
}

impl<R: BufRead> ReadSource<'static> for FastaFastqSource<R> {
    fn next_chunk(&mut self) -> Result<Option<ReadChunk<'static>>, GenomeError> {
        let mut reads = Vec::with_capacity(self.chunk_reads);
        while reads.len() < self.chunk_reads {
            match self.next_read()? {
                Some(read) => reads.push(read),
                None => break,
            }
        }
        Ok(if reads.is_empty() {
            None
        } else {
            Some(ReadChunk::Owned(reads))
        })
    }

    fn bases_hint(&self) -> Option<u64> {
        // An upper bound from the file size: FASTA bases are at most the byte
        // count (headers and newlines only subtract), and every FASTQ base
        // carries at least one quality byte, halving the bound.
        self.byte_size.map(|bytes| match self.format() {
            SequenceFileFormat::Fasta => bytes,
            SequenceFileFormat::Fastq => bytes / 2,
        })
    }
}

/// Double-buffered prefetching adapter over any owning [`ReadSource`].
///
/// Parsing/generation moves onto a dedicated worker thread that pushes chunks
/// through a bounded channel ([`PrefetchSource::DEFAULT_DEPTH`] slots, the
/// classic double buffer): while the consumer computes on chunk *i*, the worker
/// is already parsing chunk *i + 1*, so disk latency hides under stage B even
/// in a `Sequential` batch schedule. The chunk stream — order, boundaries,
/// contents — is exactly the inner source's, so wrapping a source cannot
/// change any assembly bit.
///
/// Dropping the source mid-stream shuts the worker down cleanly: the stop flag
/// is raised, the queued chunks are drained (unblocking a worker parked on a
/// full channel), and the worker is joined — the ingestion thread can never
/// outlive the source, even when a consumer (e.g. a cancelled assembly job)
/// abandons it mid-chunk. A worker-side I/O error that the consumer never
/// pulled is not lost on shutdown: [`PrefetchSource::close`] surfaces it.
#[derive(Debug)]
pub struct PrefetchSource {
    /// `None` once the stream ended or the source shut down.
    rx: Option<std::sync::mpsc::Receiver<Result<ReadChunk<'static>, GenomeError>>>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// Raised to tell the worker to stop between chunks; shutdown then drains
    /// the channel so a worker parked on a full buffer can finish its send and
    /// observe the flag.
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    /// An error the worker could not deliver through the channel (the consumer
    /// was already gone). Recovered by [`PrefetchSource::close`].
    pending_error: std::sync::Arc<std::sync::Mutex<Option<GenomeError>>>,
    /// Hints captured from the inner source at construction and counted down
    /// as chunks are consumed (the worker owns the source afterwards).
    reads_lower: usize,
    reads_upper: Option<usize>,
    bases_upper: Option<u64>,
}

impl PrefetchSource {
    /// Default channel depth: two slots — one chunk being consumed, one being
    /// parsed ahead.
    pub const DEFAULT_DEPTH: usize = 2;

    /// Wraps `source` with a prefetching worker at the default depth.
    pub fn new<S>(source: S) -> PrefetchSource
    where
        S: ReadSource<'static> + Send + 'static,
    {
        PrefetchSource::with_depth(source, Self::DEFAULT_DEPTH)
    }

    /// Wraps `source` with a prefetching worker and a `depth`-slot channel
    /// (clamped to at least 1).
    pub fn with_depth<S>(mut source: S, depth: usize) -> PrefetchSource
    where
        S: ReadSource<'static> + Send + 'static,
    {
        let (reads_lower, reads_upper) = source.reads_hint();
        let bases_upper = source.bases_hint();
        let (tx, rx) = std::sync::mpsc::sync_channel(depth.max(1));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let pending_error: std::sync::Arc<std::sync::Mutex<Option<GenomeError>>> =
            std::sync::Arc::new(std::sync::Mutex::new(None));
        let worker_stop = std::sync::Arc::clone(&stop);
        let worker_pending = std::sync::Arc::clone(&pending_error);
        let worker = std::thread::spawn(move || {
            while !worker_stop.load(std::sync::atomic::Ordering::Acquire) {
                match source.next_chunk() {
                    Ok(Some(chunk)) => {
                        if tx.send(Ok(chunk)).is_err() {
                            // Receiver dropped: the consumer is done with us.
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(err) => {
                        // The consumer may already be gone; park the error
                        // where `close` can still recover it.
                        if let Err(std::sync::mpsc::SendError(Err(err))) = tx.send(Err(err)) {
                            *worker_pending.lock().expect("pending-error lock poisoned") =
                                Some(err);
                        }
                        break;
                    }
                }
            }
        });
        PrefetchSource {
            rx: Some(rx),
            worker: Some(worker),
            stop,
            pending_error,
            reads_lower,
            reads_upper,
            bases_upper,
        }
    }

    /// Shuts the source down and surfaces any I/O or parse error the worker
    /// hit that [`ReadSource::next_chunk`] was never called to observe — e.g.
    /// when a job is cancelled mid-ingestion and stops pulling chunks. Joins
    /// the worker thread in all cases.
    ///
    /// # Errors
    ///
    /// Returns the worker's pending [`GenomeError`], if one was outstanding.
    pub fn close(mut self) -> Result<(), GenomeError> {
        match self.shutdown() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Stops and joins the worker, returning any undelivered error: the stop
    /// flag is raised first, then the queued chunks are drained (a worker
    /// parked on the full channel completes its send, re-checks the flag, and
    /// exits), then the worker is joined and the pending-error slot checked.
    fn shutdown(&mut self) -> Option<GenomeError> {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        let mut queued_error = None;
        if let Some(rx) = self.rx.take() {
            // Iteration ends when the worker drops its sender.
            for message in rx.iter() {
                if let Err(err) = message {
                    queued_error.get_or_insert(err);
                }
            }
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        queued_error.or_else(|| {
            self.pending_error
                .lock()
                .expect("pending-error lock poisoned")
                .take()
        })
    }
}

impl ReadSource<'static> for PrefetchSource {
    fn next_chunk(&mut self) -> Result<Option<ReadChunk<'static>>, GenomeError> {
        let Some(rx) = &self.rx else {
            return Ok(None);
        };
        match rx.recv() {
            Ok(Ok(chunk)) => {
                self.reads_lower = self.reads_lower.saturating_sub(chunk.len());
                if let Some(upper) = &mut self.reads_upper {
                    *upper = upper.saturating_sub(chunk.len());
                }
                if let Some(bases) = &mut self.bases_upper {
                    *bases = bases.saturating_sub(chunk.total_bases());
                }
                Ok(Some(chunk))
            }
            Ok(Err(err)) => {
                let _ = self.shutdown();
                Err(err)
            }
            // Sender dropped: the inner source is exhausted (or the worker
            // stashed an undeliverable error, which shutdown recovers).
            Err(std::sync::mpsc::RecvError) => match self.shutdown() {
                Some(err) => Err(err),
                None => Ok(None),
            },
        }
    }

    fn reads_hint(&self) -> (usize, Option<usize>) {
        (self.reads_lower, self.reads_upper)
    }

    fn bases_hint(&self) -> Option<u64> {
        self.bases_upper
    }
}

impl Drop for PrefetchSource {
    fn drop(&mut self) {
        // Joins the worker even when dropped mid-chunk; an undelivered error is
        // recovered but has nowhere to go from a destructor — consumers that
        // must observe it call [`PrefetchSource::close`] instead of dropping.
        let _ = self.shutdown();
    }
}

/// Seeded streaming generator of simulated reads (for benchmarks and scale
/// tests that want multi-GB workloads without materializing them).
///
/// Produces exactly the read stream of [`crate::ReadSimulator::simulate`] with
/// the same genome and configuration, chunk by chunk: concatenating every chunk
/// equals the simulator's output bit for bit.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    genome: ReferenceGenome,
    config: SequencerConfig,
    rng: StdRng,
    total_reads: usize,
    next_index: usize,
    chunk_reads: usize,
}

impl SyntheticSource {
    /// Creates a source generating the configured coverage over `genome`.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::InvalidConfig`] for an invalid sequencer
    /// configuration and [`GenomeError::SequenceTooShort`] if the genome is
    /// shorter than one read.
    pub fn new(genome: ReferenceGenome, config: SequencerConfig) -> Result<Self, GenomeError> {
        config.validate()?;
        if genome.len() < config.read_length {
            return Err(GenomeError::SequenceTooShort {
                actual: genome.len(),
                required: config.read_length,
            });
        }
        // The simulator's formula, so the two agree by construction.
        let total_reads = crate::sequencer::ReadSimulator::new(config).read_count_for(genome.len());
        Ok(SyntheticSource {
            rng: StdRng::seed_from_u64(config.seed),
            genome,
            config,
            total_reads,
            next_index: 0,
            chunk_reads: DEFAULT_CHUNK_READS,
        })
    }

    /// Sets the number of reads generated per chunk.
    pub fn with_chunk_reads(mut self, chunk_reads: usize) -> SyntheticSource {
        self.chunk_reads = chunk_reads.max(1);
        self
    }

    /// Total number of reads this source will generate.
    pub fn total_reads(&self) -> usize {
        self.total_reads
    }
}

impl ReadSource<'static> for SyntheticSource {
    fn next_chunk(&mut self) -> Result<Option<ReadChunk<'static>>, GenomeError> {
        if self.next_index >= self.total_reads {
            return Ok(None);
        }
        let count = self.chunk_reads.min(self.total_reads - self.next_index);
        let mut reads = Vec::with_capacity(count);
        for _ in 0..count {
            reads.push(sample_read(
                &self.config,
                &self.genome,
                &mut self.rng,
                self.next_index,
            ));
            self.next_index += 1;
        }
        Ok(Some(ReadChunk::Owned(reads)))
    }

    fn reads_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total_reads - self.next_index;
        (remaining, Some(remaining))
    }

    fn bases_hint(&self) -> Option<u64> {
        Some(((self.total_reads - self.next_index) * self.config.read_length) as u64)
    }
}

/// Drains a source into a single vector (the materializing convenience path;
/// bounded-memory consumers should pull chunks instead).
///
/// # Errors
///
/// Propagates the source's errors.
pub fn collect_reads<'s>(
    mut source: impl ReadSource<'s>,
) -> Result<Vec<SequencingRead>, GenomeError> {
    let mut reads = Vec::with_capacity(source.reads_hint().0);
    while let Some(chunk) = source.next_chunk()? {
        // Move owned chunks; only borrowed ones are copied.
        reads.append(&mut chunk.into_reads());
    }
    Ok(reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fasta::write_fastq;
    use crate::sequencer::ReadSimulator;
    use std::io::Cursor;

    fn sample_reads(n: usize) -> Vec<SequencingRead> {
        (0..n)
            .map(|i| SequencingRead::new(format!("r{i}"), "ACGTACGTACGT".parse().unwrap()))
            .collect()
    }

    #[test]
    fn in_memory_source_yields_the_whole_slice_once() {
        let reads = sample_reads(5);
        let mut source = InMemorySource::new(&reads);
        assert_eq!(source.reads_hint(), (5, Some(5)));
        assert_eq!(source.bases_hint(), Some(60));
        let chunk = source.next_chunk().unwrap().unwrap();
        assert_eq!(chunk.len(), 5);
        assert!(matches!(chunk, ReadChunk::Borrowed(_)));
        assert!(source.next_chunk().unwrap().is_none());
        assert_eq!(source.reads_hint(), (0, Some(0)));
    }

    #[test]
    fn in_memory_source_chunks_evenly() {
        let reads = sample_reads(10);
        let mut source = InMemorySource::chunked(&reads, 4);
        let lens: Vec<usize> = std::iter::from_fn(|| source.next_chunk().unwrap())
            .map(|c| c.len())
            .collect();
        assert_eq!(lens, vec![4, 4, 2]);
    }

    #[test]
    fn in_memory_source_respects_explicit_ranges() {
        let reads = sample_reads(6);
        let mut source = InMemorySource::with_ranges(&reads, vec![0..2, 2..6]).unwrap();
        assert_eq!(source.next_chunk().unwrap().unwrap().len(), 2);
        assert_eq!(source.next_chunk().unwrap().unwrap().len(), 4);
        assert!(source.next_chunk().unwrap().is_none());
        let out_of_bounds: Vec<std::ops::Range<usize>> = std::iter::once(0..7).collect();
        assert!(InMemorySource::with_ranges(&reads, out_of_bounds).is_err());
    }

    #[test]
    fn collect_reads_round_trips_a_source() {
        let reads = sample_reads(9);
        let collected = collect_reads(InMemorySource::chunked(&reads, 2)).unwrap();
        assert_eq!(collected, reads);
    }

    #[test]
    fn chunk_size_accounting_is_positive_and_monotonic() {
        let reads = sample_reads(3);
        let one = ReadChunk::Borrowed(&reads[..1]);
        let all = ReadChunk::Borrowed(&reads[..]);
        assert!(one.approx_read_bytes() > 0);
        assert!(all.approx_read_bytes() > one.approx_read_bytes());
        assert_eq!(all.total_bases(), 36);
    }

    #[test]
    fn fastq_source_streams_in_chunks() {
        let reads = sample_reads(7);
        let mut text = Vec::new();
        write_fastq(&mut text, &reads).unwrap();
        let mut source = FastaFastqSource::fastq(Cursor::new(text)).with_chunk_reads(3);
        assert_eq!(source.format(), SequenceFileFormat::Fastq);
        let mut total = 0;
        let mut chunks = 0;
        while let Some(chunk) = source.next_chunk().unwrap() {
            assert!(chunk.len() <= 3);
            total += chunk.len();
            chunks += 1;
        }
        assert_eq!(total, 7);
        assert_eq!(chunks, 3);
    }

    #[test]
    fn fasta_source_names_reads_after_headers() {
        let text = ">r0\nACGT\n>r1\nTTGG\nCCAA\n";
        let mut source = FastaFastqSource::fasta(Cursor::new(text));
        let chunk = source.next_chunk().unwrap().unwrap();
        assert_eq!(chunk[0].id(), "r0");
        assert_eq!(chunk[1].sequence().to_string(), "TTGGCCAA");
    }

    #[test]
    fn sniffing_detects_both_formats() {
        let fasta = FastaFastqSource::sniff(Cursor::new(">x\nACGT\n".as_bytes())).unwrap();
        assert_eq!(fasta.format(), SequenceFileFormat::Fasta);
        let fastq = FastaFastqSource::sniff(Cursor::new("@x\nACGT\n+\nIIII\n".as_bytes())).unwrap();
        assert_eq!(fastq.format(), SequenceFileFormat::Fastq);
        // Leading blank lines do not confuse the probe.
        let padded = FastaFastqSource::sniff(Cursor::new("\n\n>y\nAC\n".as_bytes())).unwrap();
        assert_eq!(padded.format(), SequenceFileFormat::Fasta);
    }

    #[test]
    fn fastq_source_round_trips_simulated_reads() {
        let genome = ReferenceGenome::builder()
            .length(2_000)
            .no_repeats()
            .seed(5)
            .build()
            .unwrap();
        let reads = ReadSimulator::new(SequencerConfig {
            coverage: 5.0,
            substitution_error_rate: 0.0,
            ..SequencerConfig::default()
        })
        .simulate(&genome)
        .unwrap();
        let mut text = Vec::new();
        write_fastq(&mut text, &reads).unwrap();
        let parsed =
            collect_reads(FastaFastqSource::fastq(Cursor::new(text)).with_chunk_reads(16)).unwrap();
        assert_eq!(parsed.len(), reads.len());
        for (parsed, original) in parsed.iter().zip(&reads) {
            assert_eq!(parsed.id(), original.id());
            assert_eq!(parsed.sequence(), original.sequence());
        }
    }

    #[test]
    fn file_sources_hint_bases_from_the_byte_size() {
        let fasta = FastaFastqSource::fasta(Cursor::new(">x\nACGT\n")).with_size_hint(1_000);
        assert_eq!(fasta.bases_hint(), Some(1_000));
        let fastq =
            FastaFastqSource::fastq(Cursor::new("@x\nACGT\n+\nIIII\n")).with_size_hint(1_000);
        assert_eq!(fastq.bases_hint(), Some(500));
        // Without a hint, the bound is unknown.
        assert_eq!(
            FastaFastqSource::fasta(Cursor::new(">x\nACGT\n")).bases_hint(),
            None
        );
    }

    #[test]
    fn open_sets_the_size_hint_from_file_metadata() {
        let dir = std::env::temp_dir().join(format!("nmp-pak-src-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fasta");
        let text = ">r0\nACGTACGT\n>r1\nTTGGCCAA\n";
        std::fs::write(&path, text).unwrap();
        let source = FastaFastqSource::open(&path).unwrap();
        assert_eq!(source.format(), SequenceFileFormat::Fasta);
        assert_eq!(source.bases_hint(), Some(text.len() as u64));
        let reads = collect_reads(source).unwrap();
        assert_eq!(reads.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prefetch_source_streams_the_same_chunks() {
        let reads = sample_reads(20);
        let mut text = Vec::new();
        write_fastq(&mut text, &reads).unwrap();
        let direct =
            collect_reads(FastaFastqSource::fastq(Cursor::new(text.clone())).with_chunk_reads(3))
                .unwrap();
        let prefetched = collect_reads(PrefetchSource::new(
            FastaFastqSource::fastq(Cursor::new(text)).with_chunk_reads(3),
        ))
        .unwrap();
        assert_eq!(prefetched, direct);
        // The FASTQ round trip fills in constant qualities; ids and sequences
        // must still match the originals exactly.
        assert_eq!(prefetched.len(), reads.len());
        for (got, want) in prefetched.iter().zip(&reads) {
            assert_eq!(got.id(), want.id());
            assert_eq!(got.sequence(), want.sequence());
        }
    }

    #[test]
    fn prefetch_source_counts_hints_down() {
        let genome = ReferenceGenome::builder()
            .length(1_000)
            .no_repeats()
            .seed(3)
            .build()
            .unwrap();
        let inner = SyntheticSource::new(
            genome,
            SequencerConfig {
                coverage: 2.0,
                ..SequencerConfig::default()
            },
        )
        .unwrap()
        .with_chunk_reads(8);
        let (total, _) = inner.reads_hint();
        let bases = inner.bases_hint().unwrap();
        let mut source = PrefetchSource::new(inner);
        assert_eq!(source.reads_hint(), (total, Some(total)));
        assert_eq!(source.bases_hint(), Some(bases));
        let chunk = source.next_chunk().unwrap().unwrap();
        assert_eq!(source.reads_hint().0, total - chunk.len());
        assert_eq!(
            source.bases_hint(),
            Some(bases - chunk.total_bases()),
            "bases hint counts down by consumed bases"
        );
    }

    #[test]
    fn prefetch_source_propagates_parse_errors() {
        // Truncated FASTQ record: the worker forwards the error.
        let text = "@x\nACGT\n+\n";
        let mut source = PrefetchSource::new(FastaFastqSource::fastq(Cursor::new(text)));
        assert!(source.next_chunk().is_err());
        // After the error the stream is closed.
        assert!(source.next_chunk().unwrap().is_none());
    }

    #[test]
    fn dropping_a_prefetch_source_mid_stream_does_not_hang() {
        let genome = ReferenceGenome::builder()
            .length(5_000)
            .no_repeats()
            .seed(7)
            .build()
            .unwrap();
        let inner = SyntheticSource::new(
            genome,
            SequencerConfig {
                coverage: 10.0,
                ..SequencerConfig::default()
            },
        )
        .unwrap()
        .with_chunk_reads(4);
        let mut source = PrefetchSource::with_depth(inner, 1);
        // Consume one chunk, then drop with the worker parked on a full channel.
        source.next_chunk().unwrap().unwrap();
        drop(source);
    }

    #[test]
    fn synthetic_source_matches_the_simulator_exactly() {
        let genome = ReferenceGenome::builder()
            .length(3_000)
            .seed(11)
            .build()
            .unwrap();
        let config = SequencerConfig {
            coverage: 4.0,
            seed: 99,
            ..SequencerConfig::default()
        };
        let simulated = ReadSimulator::new(config).simulate(&genome).unwrap();
        let source = SyntheticSource::new(genome, config)
            .unwrap()
            .with_chunk_reads(17);
        assert_eq!(source.total_reads(), simulated.len());
        let streamed = collect_reads(source).unwrap();
        assert_eq!(streamed, simulated);
    }

    #[test]
    fn synthetic_source_hints_count_down() {
        let genome = ReferenceGenome::builder()
            .length(1_000)
            .no_repeats()
            .seed(3)
            .build()
            .unwrap();
        let mut source = SyntheticSource::new(
            genome,
            SequencerConfig {
                coverage: 2.0,
                ..SequencerConfig::default()
            },
        )
        .unwrap()
        .with_chunk_reads(8);
        let (total, upper) = source.reads_hint();
        assert_eq!(upper, Some(total));
        source.next_chunk().unwrap().unwrap();
        assert_eq!(source.reads_hint().0, total - 8);
        assert_eq!(source.bases_hint(), Some(((total - 8) * 100) as u64));
    }

    #[test]
    fn synthetic_source_rejects_bad_configs() {
        let genome = ReferenceGenome::builder()
            .length(1_000)
            .no_repeats()
            .seed(3)
            .build()
            .unwrap();
        assert!(SyntheticSource::new(
            genome.clone(),
            SequencerConfig {
                coverage: -1.0,
                ..SequencerConfig::default()
            }
        )
        .is_err());
        let tiny = ReferenceGenome::builder()
            .length(50)
            .no_repeats()
            .seed(1)
            .build()
            .unwrap();
        assert!(SyntheticSource::new(tiny, SequencerConfig::default()).is_err());
    }
}
