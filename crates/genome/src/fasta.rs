//! FASTA / FASTQ serialization — batch helpers and incremental record readers.
//!
//! The real pipeline reads tens-of-GB FASTQ files, so parsing is structured
//! around two incremental readers — [`FastaReader`] and [`FastqReader`] — that
//! pull one record at a time off a [`BufRead`] without materializing the file.
//! [`crate::source::FastaFastqSource`] wraps them into a bounded-memory
//! [`crate::source::ReadSource`]; the batch helpers [`read_fasta`] /
//! [`read_fastq`] collect the same record streams for the examples and tests.
//!
//! Both readers accept CRLF line endings, blank lines between records, and
//! (for FASTA) sequences wrapped across any number of lines. Text moves
//! through the packed codec of [`crate::dna`] (32 bytes to a word on the way
//! in, four bases per packed byte on the way out): the readers read each line
//! into one reused byte buffer, and the writers build their records in one.

use crate::dna::DnaString;
use crate::error::GenomeError;
use crate::reads::SequencingRead;
use std::io::{BufRead, Write};

/// A named sequence record, as stored in a FASTA file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Record name (text after `>`).
    pub name: String,
    /// The sequence.
    pub sequence: DnaString,
}

/// Writes one FASTA record to `writer`, wrapping sequence lines at `width`
/// characters. This is the streaming primitive behind [`write_fasta`]: callers
/// producing records one at a time (e.g. a graph walk) emit each as it is
/// generated instead of materializing the whole record set.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_fasta_record<W: Write>(
    writer: &mut W,
    name: &str,
    sequence: &DnaString,
    width: usize,
) -> Result<(), GenomeError> {
    let mut record = Vec::new();
    append_fasta_record(&mut record, name, sequence, width);
    writer.write_all(&record)?;
    Ok(())
}

/// Appends one FASTA record to `out`: the header, then the sequence decoded
/// in one pass and spread into `width`-character lines in place, last line
/// first.
fn append_fasta_record(out: &mut Vec<u8>, name: &str, sequence: &DnaString, width: usize) {
    let width = width.max(1);
    out.push(b'>');
    out.extend_from_slice(name.as_bytes());
    out.push(b'\n');
    let text = out.len();
    sequence.write_ascii(out);
    let lines = sequence.len().div_ceil(width);
    out.resize(out.len() + lines, b'\n');
    for line in (0..lines).rev() {
        let from = text + line * width;
        let to = from + line;
        let n = width.min(sequence.len() - line * width);
        out.copy_within(from..from + n, to);
        out[to + n] = b'\n';
    }
}

/// Writes FASTA records to `writer`, wrapping sequence lines at `width` characters.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_fasta<W: Write>(
    mut writer: W,
    records: &[FastaRecord],
    width: usize,
) -> Result<(), GenomeError> {
    let mut record = Vec::new();
    for r in records {
        record.clear();
        append_fasta_record(&mut record, &r.name, &r.sequence, width);
        writer.write_all(&record)?;
    }
    Ok(())
}

/// Parses FASTA records from `reader` (collects the [`FastaReader`] stream).
///
/// # Errors
///
/// Returns [`GenomeError::ParseError`] for malformed input (sequence data before the
/// first header or invalid bases) and propagates I/O errors.
pub fn read_fasta<R: BufRead>(reader: R) -> Result<Vec<FastaRecord>, GenomeError> {
    let mut records = Vec::new();
    let mut fasta = FastaReader::new(reader);
    while let Some(record) = fasta.next_record()? {
        records.push(record);
    }
    Ok(records)
}

/// Highest Phred score FASTQ spells (`'~'` in Phred+33).
const MAX_PHRED: u8 = 93;

/// Bytes [`write_fastq`] gathers before handing them to the writer.
const FASTQ_WRITE_BYTES: usize = 1 << 16;

/// Writes reads in FASTQ format (4 lines per read; Phred+33 qualities).
///
/// Reads without quality scores are written with a constant quality of 'I' (Q40).
/// Records are built in one reused buffer, handed to `writer` 64 KiB at a
/// time.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_fastq<W: Write>(mut writer: W, reads: &[SequencingRead]) -> Result<(), GenomeError> {
    let mut out = Vec::with_capacity(FASTQ_WRITE_BYTES);
    for read in reads {
        out.push(b'@');
        out.extend_from_slice(read.id().as_bytes());
        out.push(b'\n');
        read.sequence().write_ascii(&mut out);
        out.extend_from_slice(b"\n+\n");
        if read.qualities().is_empty() {
            out.resize(out.len() + read.len(), b'I');
        } else {
            out.extend(read.qualities().iter().map(|&q| q.min(MAX_PHRED) + 33));
        }
        out.push(b'\n');
        if out.len() >= FASTQ_WRITE_BYTES {
            writer.write_all(&out)?;
            out.clear();
        }
    }
    writer.write_all(&out)?;
    Ok(())
}

/// Parses reads from FASTQ text (collects the [`FastqReader`] stream).
///
/// # Errors
///
/// Returns [`GenomeError::ParseError`] for truncated records or invalid bases.
pub fn read_fastq<R: BufRead>(reader: R) -> Result<Vec<SequencingRead>, GenomeError> {
    let mut reads = Vec::new();
    let mut fastq = FastqReader::new(reader);
    while let Some(read) = fastq.next_record()? {
        reads.push(read);
    }
    Ok(reads)
}

/// Lines of a [`BufRead`], each read into one reused byte buffer.
#[derive(Debug)]
struct LineReader<R: BufRead> {
    reader: R,
    /// 1-based number of the line in `buf`.
    lineno: usize,
    /// The last line read, with its line ending.
    buf: Vec<u8>,
    /// Bytes of `buf` before the line ending.
    len: usize,
}

impl<R: BufRead> LineReader<R> {
    fn new(reader: R) -> Self {
        LineReader {
            reader,
            lineno: 0,
            buf: Vec::new(),
            len: 0,
        }
    }

    /// Reads the next line and returns its number and text without the
    /// trailing `\n` / `\r\n`, or `None` at EOF.
    ///
    /// # Errors
    ///
    /// A line that is not UTF-8 fails as [`BufRead::read_line`] fails on it,
    /// with [`GenomeError::Io`] and its message.
    fn next(&mut self) -> Result<Option<(usize, &str)>, GenomeError> {
        self.buf.clear();
        if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(None);
        }
        let text = std::str::from_utf8(&self.buf).map_err(|_| GenomeError::Io {
            message: "stream did not contain valid UTF-8".to_string(),
        })?;
        self.lineno += 1;
        let line = text.trim_end_matches(['\n', '\r']);
        self.len = line.len();
        Ok(Some((self.lineno, line)))
    }

    /// The line [`LineReader::next`] returned last, again.
    fn current(&self) -> (usize, &str) {
        let line = std::str::from_utf8(&self.buf[..self.len]).expect("checked when read");
        (self.lineno, line)
    }
}

/// Incremental FASTA parser: yields one [`FastaRecord`] per call without reading
/// the rest of the file.
///
/// Sequences may be wrapped across any number of lines; blank lines and CRLF
/// endings are accepted anywhere.
#[derive(Debug)]
pub struct FastaReader<R: BufRead> {
    lines: LineReader<R>,
    /// The current line is the next record's header, read by the call that
    /// ended at it: a record ends at the next `>` header, which must not be
    /// consumed.
    at_header: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Wraps a buffered reader positioned at the start of FASTA text.
    pub fn new(reader: R) -> Self {
        FastaReader {
            lines: LineReader::new(reader),
            at_header: false,
        }
    }

    /// Parses the next record, or `Ok(None)` at end of input.
    ///
    /// A header with no following sequence lines yields a record with an empty
    /// sequence.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::ParseError`] for sequence data before the first
    /// header or invalid bases, and propagates I/O errors.
    pub fn next_record(&mut self) -> Result<Option<FastaRecord>, GenomeError> {
        let name = loop {
            let (lineno, line) = if std::mem::take(&mut self.at_header) {
                self.lines.current()
            } else {
                match self.lines.next()? {
                    Some(line) => line,
                    None => return Ok(None),
                }
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match line.strip_prefix('>') {
                Some(name) => break name.trim().to_string(),
                None => {
                    return Err(GenomeError::ParseError {
                        line: lineno,
                        message: "sequence data before the first '>' header".to_string(),
                    })
                }
            }
        };

        let mut sequence = DnaString::new();
        while let Some((lineno, line)) = self.lines.next()? {
            let line = line.trim();
            if line.starts_with('>') {
                self.at_header = true;
                break;
            }
            sequence
                .extend_from_ascii(line)
                .map_err(|e| GenomeError::ParseError {
                    line: lineno,
                    message: e.to_string(),
                })?;
        }
        Ok(Some(FastaRecord { name, sequence }))
    }
}

/// Incremental FASTQ parser: yields one read per call without reading the rest
/// of the file.
///
/// Records are the standard four lines (`@id`, sequence, `+`, qualities); blank
/// lines between records and CRLF endings are accepted. Quality scores are
/// decoded from Phred+33 (`'!'..='~'`, Q0–Q93) and kept on the read.
#[derive(Debug)]
pub struct FastqReader<R: BufRead> {
    lines: LineReader<R>,
}

impl<R: BufRead> FastqReader<R> {
    /// Wraps a buffered reader positioned at the start of FASTQ text.
    pub fn new(reader: R) -> Self {
        FastqReader {
            lines: LineReader::new(reader),
        }
    }

    fn line_or_truncated(&mut self) -> Result<(usize, &str), GenomeError> {
        let line = self.lines.lineno + 1;
        self.lines.next()?.ok_or_else(|| GenomeError::ParseError {
            line,
            message: "truncated fastq record".to_string(),
        })
    }

    /// Parses the next read, or `Ok(None)` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`GenomeError::ParseError`] for truncated records, missing
    /// `@`/`+` markers, invalid bases, quality characters outside
    /// `'!'..='~'`, or quality strings whose length does not match the
    /// sequence, and propagates I/O errors.
    pub fn next_record(&mut self) -> Result<Option<SequencingRead>, GenomeError> {
        let id = loop {
            let Some((lineno, line)) = self.lines.next()? else {
                return Ok(None);
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match line.strip_prefix('@') {
                Some(id) => break id.trim().to_string(),
                None => {
                    return Err(GenomeError::ParseError {
                        line: lineno,
                        message: "expected '@' header".to_string(),
                    })
                }
            }
        };

        let (lineno, seq_line) = self.line_or_truncated()?;
        let sequence =
            DnaString::from_ascii(seq_line.trim()).map_err(|e| GenomeError::ParseError {
                line: lineno,
                message: e.to_string(),
            })?;

        let (lineno, plus) = self.line_or_truncated()?;
        if !plus.trim_start().starts_with('+') {
            return Err(GenomeError::ParseError {
                line: lineno,
                message: "expected '+' separator".to_string(),
            });
        }

        let (lineno, qual_line) = self.line_or_truncated()?;
        let qual_line = qual_line.trim();
        let mut qualities = qual_line.as_bytes().to_vec();
        qualities.iter_mut().for_each(|q| *q = q.wrapping_sub(33));
        // A byte below '!' wraps past Q93 too, so one maximum checks both ends.
        if qualities.iter().fold(0, |max, &q| max.max(q)) > MAX_PHRED {
            let position = qualities.iter().position(|&q| q > MAX_PHRED);
            let position = position.expect("the maximum is in the line");
            let character = qual_line[position..]
                .chars()
                .next()
                .expect("a byte was read");
            return Err(GenomeError::ParseError {
                line: lineno,
                message: format!(
                    "invalid quality character {character:?} at position {position} \
                     (Phred+33 spans '!'..='~')"
                ),
            });
        }
        if qualities.len() != sequence.len() {
            return Err(GenomeError::ParseError {
                line: lineno,
                message: format!(
                    "quality string length {} does not match sequence length {}",
                    qualities.len(),
                    sequence.len()
                ),
            });
        }
        Ok(Some(SequencingRead::with_qualities(
            id, sequence, qualities,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fasta_round_trip() {
        let records = vec![
            FastaRecord {
                name: "contig_1".to_string(),
                sequence: "ACGTACGTACGTACGT".parse().unwrap(),
            },
            FastaRecord {
                name: "contig_2".to_string(),
                sequence: "TTTTGGGGCCCCAAAA".parse().unwrap(),
            },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 8).unwrap();
        let parsed = read_fasta(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn fasta_wraps_lines() {
        let records = vec![FastaRecord {
            name: "x".to_string(),
            sequence: "ACGTACGTACGT".parse().unwrap(),
        }];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, 4).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, ">x\nACGT\nACGT\nACGT\n");
    }

    #[test]
    fn single_record_writer_matches_the_batch_writer() {
        let record = FastaRecord {
            name: "contig_0 length=12".to_string(),
            sequence: "ACGTACGTACGT".parse().unwrap(),
        };
        let mut streamed = Vec::new();
        write_fasta_record(&mut streamed, &record.name, &record.sequence, 5).unwrap();
        let mut batch = Vec::new();
        write_fasta(&mut batch, std::slice::from_ref(&record), 5).unwrap();
        assert_eq!(streamed, batch);
        let parsed = read_fasta(Cursor::new(streamed)).unwrap();
        assert_eq!(parsed, vec![record]);
    }

    #[test]
    fn fasta_rejects_sequence_before_header() {
        let err = read_fasta(Cursor::new("ACGT\n>x\n")).unwrap_err();
        assert!(matches!(err, GenomeError::ParseError { line: 1, .. }));
    }

    #[test]
    fn fasta_rejects_invalid_bases() {
        let err = read_fasta(Cursor::new(">x\nACGN\n")).unwrap_err();
        assert!(matches!(err, GenomeError::ParseError { line: 2, .. }));
    }

    #[test]
    fn fasta_accepts_crlf_and_blank_lines() {
        let text = ">first\r\nACGT\r\nTTGG\r\n\r\n>second\r\n\r\nCCCC\r\n";
        let parsed = read_fasta(Cursor::new(text)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "first");
        assert_eq!(parsed[0].sequence.to_string(), "ACGTTTGG");
        assert_eq!(parsed[1].sequence.to_string(), "CCCC");
    }

    #[test]
    fn fasta_multi_line_sequences_concatenate() {
        let text = ">wrapped\nAC\nGT\nAC\nGT\n";
        let parsed = read_fasta(Cursor::new(text)).unwrap();
        assert_eq!(parsed[0].sequence.to_string(), "ACGTACGT");
    }

    #[test]
    fn fasta_header_without_sequence_is_an_empty_record() {
        let parsed = read_fasta(Cursor::new(">empty\n>full\nACGT\n")).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(parsed[0].sequence.is_empty());
        assert_eq!(parsed[1].sequence.to_string(), "ACGT");
    }

    #[test]
    fn fasta_empty_input_has_no_records() {
        assert!(read_fasta(Cursor::new("")).unwrap().is_empty());
        assert!(read_fasta(Cursor::new("\n\n  \n")).unwrap().is_empty());
    }

    #[test]
    fn fasta_reader_is_incremental() {
        let mut reader = FastaReader::new(Cursor::new(">a\nAC\n>b\nGT\n"));
        assert_eq!(reader.next_record().unwrap().unwrap().name, "a");
        assert_eq!(reader.next_record().unwrap().unwrap().name, "b");
        assert!(reader.next_record().unwrap().is_none());
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn fastq_round_trip_preserves_sequences_and_qualities() {
        let reads = vec![
            SequencingRead::with_qualities("r1", "ACGTACGT".parse().unwrap(), vec![30; 8]),
            SequencingRead::new("r2", "GGGGTTTT".parse().unwrap()),
        ];
        let mut buf = Vec::new();
        write_fastq(&mut buf, &reads).unwrap();
        let parsed = read_fastq(Cursor::new(buf)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id(), "r1");
        assert_eq!(parsed[0].sequence(), reads[0].sequence());
        assert_eq!(parsed[0].qualities(), &[30; 8]);
        assert_eq!(parsed[1].sequence(), reads[1].sequence());
        // Reads without qualities are written at constant Q40.
        assert_eq!(parsed[1].qualities(), &[40; 8]);
    }

    #[test]
    fn fastq_rejects_truncated_records() {
        assert!(read_fastq(Cursor::new("@r1\nACGT\n+")).is_err());
        assert!(read_fastq(Cursor::new("@r1\nACGT\nX\nIIII\n")).is_err());
        assert!(read_fastq(Cursor::new("@r1\nACGT\n+\nII\n")).is_err());
        assert!(read_fastq(Cursor::new("@r1\nACGT\n")).is_err());
        assert!(read_fastq(Cursor::new("@r1\n")).is_err());
    }

    #[test]
    fn fastq_rejects_missing_at_header() {
        let err = read_fastq(Cursor::new("r1\nACGT\n+\nIIII\n")).unwrap_err();
        assert!(matches!(err, GenomeError::ParseError { line: 1, .. }));
    }

    #[test]
    fn fastq_accepts_crlf_and_blank_lines_between_records() {
        let text = "@r1\r\nACGT\r\n+\r\nIIII\r\n\r\n@r2\r\nTTGG\r\n+r2\r\nJJJJ\r\n";
        let parsed = read_fastq(Cursor::new(text)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].sequence().to_string(), "ACGT");
        assert_eq!(parsed[1].id(), "r2");
        assert_eq!(parsed[1].sequence().to_string(), "TTGG");
        assert_eq!(parsed[1].qualities(), &[41; 4]);
    }

    #[test]
    fn fastq_rejects_quality_characters_outside_phred33() {
        for (quals, bad, position) in [
            ("II I", ' ', 2),
            ("I\u{7f}II", '\u{7f}', 1),
            ("III\u{1}", '\u{1}', 3),
            ("IIé", 'é', 2),
        ] {
            let text = format!("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n{quals}\n");
            let err = read_fastq(Cursor::new(text)).unwrap_err();
            let GenomeError::ParseError { line, message } = err else {
                panic!("{quals:?}: {err:?}");
            };
            assert_eq!(line, 8, "{quals:?}");
            assert!(
                message.contains(&format!("{bad:?} at position {position}")),
                "{quals:?}: {message}"
            );
        }
    }

    #[test]
    fn fastq_accepts_the_whole_phred33_range() {
        let parsed = read_fastq(Cursor::new("@r1\nACGT\n+\n!~5I\n")).unwrap();
        assert_eq!(parsed[0].qualities(), &[0, 93, 20, 40]);
        let mut written = Vec::new();
        write_fastq(&mut written, &parsed).unwrap();
        assert_eq!(written, b"@r1\nACGT\n+\n!~5I\n");
    }

    #[test]
    fn invalid_utf8_fails_as_an_io_error_in_every_line() {
        let not_utf8 = || GenomeError::Io {
            message: "stream did not contain valid UTF-8".to_string(),
        };
        for text in [
            &b"@r\xff1\nACGT\n+\nIIII\n"[..],
            b"@r1\nAC\xffGT\n+\nIIII\n",
            b"@r1\nACGT\n+\xff\nIIII\n",
            b"@r1\nACGT\n+\nII\xffI\n",
        ] {
            assert_eq!(read_fastq(Cursor::new(text)), Err(not_utf8()), "{text:?}");
        }
        for text in [&b">x\xff\nACGT\n"[..], b">x\nAC\xffGT\n"] {
            assert_eq!(read_fasta(Cursor::new(text)), Err(not_utf8()), "{text:?}");
        }
    }

    #[test]
    fn fastq_empty_input_has_no_reads() {
        assert!(read_fastq(Cursor::new("")).unwrap().is_empty());
        assert!(read_fastq(Cursor::new("\r\n\n")).unwrap().is_empty());
    }
}
