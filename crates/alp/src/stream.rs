//! Streaming compression over `std::io` — write a column row-group by
//! row-group without ever materializing it, and read it back incrementally.
//!
//! The stream format is a sequence of self-contained frames followed by a
//! commit footer and a frame table:
//!
//! ```text
//! "ALPT" | bits:u8 | { frame_len:u32 | xxh64:u64 | row-group bytes }* | frame_len = 0
//! "ALPF" | values:u64 | rowgroups:u32 | xxh64:u64            (commit footer)
//! "ALPX" | ... | table_len:u32 | xxh64:u64                   (frame table)
//! ```
//!
//! Each frame holds one serialized row-group (see [`crate::format`]) plus the
//! [XXH64](crate::hash) checksum of its bytes, so the strict reader needs
//! only one row-group of memory at a time, can stop early, and detects
//! payload corruption before handing data out. The frames, footer, and table
//! are those of the shared [frame layer](crate::frame), which also serves
//! [`ColumnReader::next_rowgroup_salvaged`]: it delimits the frames by the
//! table, losing exactly the row-groups whose frames were hit.
//!
//! The footer and table are written only by [`ColumnWriter::finish`], so
//! their presence distinguishes a cleanly finished stream from one whose
//! writer died mid-row-group: a torn write can never fabricate the footer's
//! magic, counts, and checksum (see [`ColumnReader::is_committed`]). Both
//! ends absorb *transient* I/O faults (`Interrupted`, `WouldBlock`, short
//! reads/writes) under a bounded [`RetryPolicy`](crate::io::RetryPolicy) and
//! surface hard faults as [`StreamError::Io`]; see [`crate::io`] for the
//! taxonomy.
//!
//! Legacy `"ALPS"` streams (the pre-checksum layout, identical but with no
//! `xxh64` field, no footer, and no table) are still read transparently.
//!
//! Writers configured with a [`ParityConfig`](crate::parity::ParityConfig)
//! additionally emit one `"ALPP"` parity frame after every `group_size`
//! row-group frames (see [`crate::parity`]), which upgrades
//! [`ColumnReader::next_rowgroup_salvaged`] from *skip and report* to
//! *reconstruct, verify, and report repaired*: any single damaged frame per
//! group comes back byte-identical. The strict reader verifies and skips
//! parity frames, so the layout stays backward-compatible.
//!
//! # Example
//! ```
//! use alp::stream::{ColumnReader, ColumnWriter};
//!
//! let mut file = Vec::new();
//! let mut writer = ColumnWriter::<f64, _>::new(&mut file);
//! for chunk in (0..500_000).map(|i| (i % 1000) as f64 / 10.0).collect::<Vec<_>>().chunks(37_000) {
//!     writer.push(chunk).unwrap();
//! }
//! let summary = writer.finish().unwrap();
//! assert_eq!(summary.values, 500_000);
//!
//! let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
//! let mut restored = Vec::new();
//! while let Some(values) = reader.next_rowgroup().unwrap() {
//!     restored.extend(values);
//! }
//! assert_eq!(restored.len(), 500_000);
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use fastlanes::VECTOR_SIZE;

/// The pipelined ingest path (`alp::stream::pipeline`): same stream bytes,
/// with compression overlapped onto a worker pool. See [`crate::pipeline`].
pub use crate::pipeline;

pub use crate::frame::{StreamFooter, COMMIT_FOOTER_LEN, COMMIT_MAGIC};

use crate::format::{read_body, write_rowgroup, FormatError};
use crate::frame::{self, FrameLog, Layout};
use crate::hash::{xxh64, CHECKSUM_SEED};
use crate::io::{flush_retry, read_full_retry, read_growing, write_all_retry, RetryPolicy};
use crate::parity::{self, ParityConfig};
use crate::rowgroup::{Compressed, Compressor, RowGroup};
use crate::sampler::{ConfigError, SamplerParams};
use crate::traits::AlpFloat;
use crate::wire::PutExt;

/// Magic bytes of a streamed column (current, checksummed format).
pub const STREAM_MAGIC: &[u8; 4] = b"ALPT";

/// Magic bytes of the legacy, pre-checksum stream format.
pub const STREAM_MAGIC_V1: &[u8; 4] = b"ALPS";

/// On-disk stream flavor, decided by the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamVersion {
    /// `"ALPS"`: bare length-prefixed frames.
    V1,
    /// `"ALPT"`: every frame carries an XXH64 checksum of its body.
    V2,
}

/// Statistics returned by [`ColumnWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Total values written.
    pub values: usize,
    /// Row-groups emitted.
    pub rowgroups: usize,
    /// Frame bytes written: every length prefix, per-frame checksum, and
    /// compressed body. Excludes the 5-byte stream header, the 4-byte
    /// terminator, and the `"ALPT"` commit footer and frame table.
    pub payload_bytes: usize,
    /// Every byte written to the sink — header, frames, terminator, and
    /// (for `"ALPT"` streams) the commit footer and frame table. After a
    /// successful [`ColumnWriter::finish`] this equals the sink's length
    /// exactly.
    pub total_bytes: usize,
}

/// Appends one complete frame — `len:u32 | xxh64:u64 (V2 only) | body` — for
/// `rg` to `out`. The single frame-encoding routine shared by the serial
/// [`ColumnWriter`] and the pipelined ingest workers, so both produce
/// byte-identical streams by construction.
pub(crate) fn encode_frame<F: AlpFloat>(rg: &RowGroup, version: StreamVersion, out: &mut Vec<u8>) {
    match version {
        StreamVersion::V2 => frame::encode(out, |body| write_rowgroup::<F>(body, rg)),
        StreamVersion::V1 => {
            let start = out.len();
            out.put_u32_le(0);
            write_rowgroup::<F>(out, rg);
            let len = (out.len() - start - 4) as u32;
            out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        }
    }
}

/// Decompresses one row-group into its values.
fn decompress_one<F: AlpFloat>(rg: RowGroup) -> Vec<F> {
    let len = rg.len();
    Compressed::<F>::from_rowgroups(vec![rg], len).decompress()
}

/// Incremental column writer: buffers up to one row-group, compresses and
/// frames it, and forwards the bytes to the sink.
pub struct ColumnWriter<F: AlpFloat, W: Write> {
    sink: W,
    compressor: Compressor,
    buffer: Vec<F>,
    /// Values buffered before a flush: `flush_rowgroups` full row-groups.
    flush_values: usize,
    header_written: bool,
    summary: StreamSummary,
    scratch: Vec<u8>,
    version: StreamVersion,
    retry: RetryPolicy,
    /// Frame table and parity groups of an `"ALPT"` stream (`None` for the
    /// legacy layout, which has neither).
    log: Option<FrameLog>,
}

impl<F: AlpFloat, W: Write> ColumnWriter<F, W> {
    /// Writer with the paper's default sampling parameters.
    pub fn new(sink: W) -> Self {
        Self::build(sink, Compressor::new(), StreamVersion::V2, 1)
    }

    /// Writer with custom sampling parameters.
    ///
    /// Returns [`ConfigError`] when any count in `params` is zero — notably a
    /// zero `vectors_per_rowgroup`, which would make [`ColumnWriter::push`]
    /// flush empty row-groups forever (it used to be silently clamped to 1).
    pub fn with_params(sink: W, params: SamplerParams) -> Result<Self, ConfigError> {
        Ok(Self::build(sink, Compressor::with_params(params)?, StreamVersion::V2, 1))
    }

    /// Writer that buffers `flush_rowgroups` full row-groups before each
    /// compress-and-flush, amortizing sink syscalls for small row-group
    /// configurations. The emitted stream is byte-identical to a writer
    /// flushing one row-group at a time.
    ///
    /// Returns [`ConfigError`] when `flush_rowgroups` is zero (the writer
    /// could never flush) or when any count in `params` is zero.
    pub fn with_flush_rowgroups(
        sink: W,
        params: SamplerParams,
        flush_rowgroups: usize,
    ) -> Result<Self, ConfigError> {
        if flush_rowgroups == 0 {
            return Err(ConfigError { param: "flush_rowgroups" });
        }
        Ok(Self::build(sink, Compressor::with_params(params)?, StreamVersion::V2, flush_rowgroups))
    }

    /// Writer emitting the legacy pre-checksum `"ALPS"` layout, for
    /// interoperability with readers that predate frame checksums.
    pub fn legacy(sink: W) -> Self {
        Self::build(sink, Compressor::new(), StreamVersion::V1, 1)
    }

    /// Writer with erasure protection: every `parity.group_size` row-group
    /// frames are followed by an XOR parity frame, so any *single* damaged
    /// frame per group is reconstructible on read (see [`crate::parity`]).
    ///
    /// Returns [`ConfigError`] when the group size is out of range.
    pub fn with_parity(sink: W, parity: ParityConfig) -> Result<Self, ConfigError> {
        Self::with_params_and_parity(sink, SamplerParams::default(), parity)
    }

    /// Writer with both custom sampling parameters and erasure protection.
    ///
    /// Returns [`ConfigError`] when any count in `params` is zero or the
    /// parity group size is out of range.
    pub fn with_params_and_parity(
        sink: W,
        params: SamplerParams,
        parity: ParityConfig,
    ) -> Result<Self, ConfigError> {
        parity.validate()?;
        let mut writer = Self::build(sink, Compressor::with_params(params)?, StreamVersion::V2, 1);
        writer.log = Some(FrameLog::new(Some(parity.group_size)));
        Ok(writer)
    }

    fn build(
        sink: W,
        compressor: Compressor,
        version: StreamVersion,
        flush_rowgroups: usize,
    ) -> Self {
        // Nonzero: every `Compressor` constructor validates its params, and
        // every caller of `build` validates `flush_rowgroups`.
        let flush_values = flush_rowgroups * compressor.params().vectors_per_rowgroup * VECTOR_SIZE;
        Self {
            sink,
            compressor,
            buffer: Vec::with_capacity(flush_values),
            flush_values,
            header_written: false,
            summary: StreamSummary { values: 0, rowgroups: 0, payload_bytes: 0, total_bytes: 0 },
            scratch: Vec::new(),
            version,
            retry: RetryPolicy::default(),
            log: (version == StreamVersion::V2).then(|| FrameLog::new(None)),
        }
    }

    /// Replaces the transient-fault retry policy (default:
    /// [`RetryPolicy::default`]). Transient sink faults (`Interrupted`,
    /// `WouldBlock`, short writes) are absorbed up to the policy budget;
    /// hard faults always surface immediately.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Appends values; full row-groups are compressed and flushed eagerly.
    pub fn push(&mut self, values: &[F]) -> io::Result<()> {
        let mut rest = values;
        while !rest.is_empty() {
            let room = self.flush_values - self.buffer.len();
            let take = room.min(rest.len());
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() == self.flush_values {
                self.flush_rowgroup()?;
            }
        }
        Ok(())
    }

    /// Flushes any buffered tail, writes the end-of-stream marker, and — for
    /// the current `"ALPT"` layout — commits the stream with a footer and
    /// the frame table.
    ///
    /// The footer (`"ALPF" | values:u64 | rowgroups:u32 | xxh64:u64`) and the
    /// checksummed table after it are the stream's commit record: a reader
    /// that finds them intact knows the writer finished cleanly, while a torn
    /// write — the process dying mid-frame — can never fabricate them.
    /// Legacy `"ALPS"` streams stay footer-free.
    pub fn finish(mut self) -> io::Result<StreamSummary> {
        if !self.buffer.is_empty() {
            self.flush_rowgroup()?;
        }
        self.ensure_header()?;
        // A partial final group still gets its parity frame, so the stream's
        // tail is as protected as its body.
        if let Some(pframe) = self.log.as_mut().and_then(FrameLog::close) {
            self.write_parity(&pframe)?;
        }
        let mut tail = Vec::new();
        match &self.log {
            Some(log) => {
                log.write_tail(&mut tail, self.summary.values as u64, self.summary.rowgroups as u32)
            }
            None => tail.put_u32_le(0),
        }
        write_all_retry(&mut self.sink, &tail, &self.retry)?;
        self.summary.total_bytes += tail.len();
        flush_retry(&mut self.sink, &self.retry)?;
        Ok(self.summary)
    }

    fn ensure_header(&mut self) -> io::Result<()> {
        if !self.header_written {
            let magic = match self.version {
                StreamVersion::V1 => STREAM_MAGIC_V1,
                StreamVersion::V2 => STREAM_MAGIC,
            };
            write_all_retry(&mut self.sink, magic, &self.retry)?;
            write_all_retry(&mut self.sink, &[F::BITS as u8], &self.retry)?;
            self.header_written = true;
            self.summary.total_bytes += magic.len() + 1;
        }
        Ok(())
    }

    /// Compresses the buffered values and writes one frame per resulting
    /// row-group. A flush spanning several row-groups (see
    /// [`ColumnWriter::with_flush_rowgroups`]) emits them all, in order.
    fn flush_rowgroup(&mut self) -> io::Result<()> {
        let compressed = self.compressor.compress(&self.buffer);
        let values = self.buffer.len();
        self.buffer.clear();
        self.scratch.clear();
        for rg in &compressed.rowgroups {
            encode_frame::<F>(rg, self.version, &mut self.scratch);
        }
        let frames = core::mem::take(&mut self.scratch);
        let result = self.commit_encoded_frames(&frames, values, compressed.rowgroups.len());
        self.scratch = frames;
        result
    }

    /// Writes frame bytes to the sink and counts them as payload.
    fn write_payload(&mut self, bytes: &[u8]) -> io::Result<()> {
        write_all_retry(&mut self.sink, bytes, &self.retry)?;
        self.summary.payload_bytes += bytes.len();
        self.summary.total_bytes += bytes.len();
        Ok(())
    }

    /// Writes a parity frame and logs it where it landed.
    fn write_parity(&mut self, pframe: &[u8]) -> io::Result<()> {
        if let Some(log) = self.log.as_mut() {
            log.parity(pframe);
        }
        self.write_payload(pframe)
    }

    /// Writes pre-encoded frames (see [`encode_frame`]) to the sink and folds
    /// them into the summary. The commit seam shared with the pipelined
    /// ingest path: frames land on the sink whole and in order, under the
    /// writer's retry policy.
    pub(crate) fn commit_encoded_frames(
        &mut self,
        frames: &[u8],
        values: usize,
        rowgroups: usize,
    ) -> io::Result<()> {
        self.ensure_header()?;
        if self.log.is_none() {
            self.write_payload(frames)?;
        } else {
            // Log frame by frame so each parity frame lands immediately after
            // the group it closes — the layout is then independent of flush
            // batching and of the pipelined path, both of which funnel
            // through this seam.
            let mut rest = frames;
            while !rest.is_empty() {
                let Some((frame, tail)) = frame::split_frame(rest) else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "malformed encoded frame batch",
                    ));
                };
                rest = tail;
                let pframe = self.log.as_mut().and_then(|log| log.data(frame));
                self.write_payload(frame)?;
                if let Some(pframe) = pframe {
                    self.write_parity(&pframe)?;
                }
            }
        }
        self.summary.values += values;
        self.summary.rowgroups += rowgroups;
        Ok(())
    }

    /// Values a full flush buffer holds (`flush_rowgroups` row-groups' worth).
    pub(crate) fn flush_values(&self) -> usize {
        self.flush_values
    }

    /// The writer's compression parameters (for workers that encode frames
    /// on its behalf).
    pub(crate) fn compressor(&self) -> &Compressor {
        &self.compressor
    }

    /// The stream flavor this writer emits.
    pub(crate) fn version(&self) -> StreamVersion {
        self.version
    }
}

/// Incremental column reader: yields one decompressed row-group at a time.
pub struct ColumnReader<F: AlpFloat, R: Read> {
    source: R,
    frame: Vec<u8>,
    done: bool,
    version: StreamVersion,
    /// No frame byte has been consumed yet: the salvage walk starts at
    /// frame 0, where the frame table and frame positions apply.
    fresh: bool,
    /// Index of the next *data* row-group (parity frames are not counted).
    next_index: usize,
    /// Row-group indices skipped by the salvage path.
    lost: Vec<usize>,
    /// Row-group indices the salvage path repaired.
    repaired: Vec<usize>,
    /// Whether the stream's commit record was found intact (see
    /// [`ColumnReader::is_committed`]).
    committed: bool,
    /// The parsed commit footer, when one was found and verified.
    footer: Option<StreamFooter>,
    retry: RetryPolicy,
    /// Row-groups the salvage walk recovered, not yet handed out.
    pending: VecDeque<RowGroup>,
    _values: core::marker::PhantomData<F>,
}

/// Errors produced while reading a stream.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid frame.
    Format(FormatError),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream I/O error: {e}"),
            StreamError::Format(e) => write!(f, "stream format error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<FormatError> for StreamError {
    fn from(e: FormatError) -> Self {
        StreamError::Format(e)
    }
}

impl<F: AlpFloat, R: Read> ColumnReader<F, R> {
    /// Opens a stream, validating the header. Accepts both the current
    /// checksummed `"ALPT"` format and the legacy `"ALPS"` one.
    pub fn new(source: R) -> Result<Self, StreamError> {
        Self::with_retry_policy(source, RetryPolicy::default())
    }

    /// Like [`ColumnReader::new`], but with an explicit transient-fault
    /// retry policy covering every read, the 5-byte header included.
    pub fn with_retry_policy(mut source: R, retry: RetryPolicy) -> Result<Self, StreamError> {
        let mut header = [0u8; 5];
        read_full_retry(&mut source, &mut header, &retry)?;
        let version = Self::parse_header(&header)?;
        Ok(Self {
            source,
            frame: Vec::new(),
            done: false,
            version,
            fresh: true,
            next_index: 0,
            lost: Vec::new(),
            repaired: Vec::new(),
            committed: false,
            footer: None,
            retry,
            pending: VecDeque::new(),
            _values: core::marker::PhantomData,
        })
    }

    /// Validates the 5-byte stream header: the magic (either flavor) picks
    /// the [`StreamVersion`], and the element width must match `F`.
    fn parse_header(header: &[u8; 5]) -> Result<StreamVersion, StreamError> {
        let version = if &header[..4] == STREAM_MAGIC {
            StreamVersion::V2
        } else if &header[..4] == STREAM_MAGIC_V1 {
            StreamVersion::V1
        } else {
            return Err(StreamError::Format(FormatError::BadMagic));
        };
        if header[4] as u32 != F::BITS {
            return Err(StreamError::Format(FormatError::WidthMismatch {
                found: header[4],
                expected: F::BITS as u8,
            }));
        }
        Ok(version)
    }

    /// Replaces the transient-fault retry policy (default:
    /// [`RetryPolicy::default`]). Transient source faults (`Interrupted`,
    /// `WouldBlock`, short reads) are absorbed up to the policy budget; hard
    /// faults always surface as [`StreamError::Io`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Reads and decompresses the next row-group; `None` at end of stream.
    pub fn next_rowgroup(&mut self) -> Result<Option<Vec<F>>, StreamError> {
        Ok(self.next_rowgroup_compressed()?.map(decompress_one::<F>))
    }

    /// Reads the next row-group without decompressing it (for servers that
    /// relay or selectively decode).
    ///
    /// Errors after the frame was consumed in full (checksum mismatch, body
    /// parse failure) leave the source positioned at the next frame. The
    /// frame buffer grows only as bytes arrive, so a corrupted length prefix
    /// costs no allocation beyond the bytes actually present.
    pub fn next_rowgroup_compressed(&mut self) -> Result<Option<RowGroup>, StreamError> {
        loop {
            if self.done {
                return Ok(None);
            }
            self.fresh = false;
            let mut len_bytes = [0u8; 4];
            read_full_retry(&mut self.source, &mut len_bytes, &self.retry)?;
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len == 0 {
                self.done = true;
                self.read_commit_footer();
                return Ok(None);
            }
            let mut stored_checksum = 0u64;
            if self.version == StreamVersion::V2 {
                let mut checksum_bytes = [0u8; 8];
                read_full_retry(&mut self.source, &mut checksum_bytes, &self.retry)?;
                stored_checksum = u64::from_le_bytes(checksum_bytes);
            }
            self.frame.clear();
            if read_growing(&mut self.source, &mut self.frame, len, &self.retry)? < len {
                return Err(StreamError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("source ended inside a {len}-byte frame"),
                )));
            }
            // The frame is fully consumed from here on: every error below is
            // recoverable by reading the next frame.
            if self.version == StreamVersion::V2 {
                let computed = xxh64(&self.frame, CHECKSUM_SEED);
                if computed != stored_checksum {
                    let index = self.next_index;
                    self.next_index += 1;
                    return Err(StreamError::Format(FormatError::ChecksumMismatch {
                        rowgroup: index,
                        stored: stored_checksum,
                        computed,
                    }));
                }
                if parity::is_parity_body(&self.frame) {
                    // Erasure-protection frame, not a row-group: skip it
                    // without consuming a data index.
                    continue;
                }
            }
            self.next_index += 1;
            return Ok(Some(read_body::<F>(&self.frame)?));
        }
    }

    /// Like [`ColumnReader::next_rowgroup`], but skips damaged frames instead
    /// of failing — and, when the stream carries parity frames (see
    /// [`ColumnWriter::with_parity`]), *reconstructs* any single damaged
    /// frame per group, verifies the repaired frame's checksum, and records
    /// its index in [`ColumnReader::repaired_rowgroups`]. Frames that remain
    /// unrecoverable (two or more damaged in one group, or no parity at all)
    /// are recorded in [`ColumnReader::lost_rowgroups`].
    ///
    /// The first call reads the rest of the source once — the buffer grows
    /// only as bytes arrive — and walks it through the [frame
    /// layer](crate::frame): the frame table delimits the frames even past a
    /// corrupted length prefix (the restored row-group is reported
    /// repaired); without a table (a torn tail, a damaged table) a plain
    /// length walk stops at the first implausible length and reports the cut
    /// frame lost, so the caller keeps exactly the committed prefix. I/O
    /// errors (hard faults, exhausted retry budgets) surface as `Err`.
    ///
    /// Repair assumes the stream is drained through this method from its
    /// first frame; after strict reads the walk cannot line frames up with
    /// the table or with parity groups, so repairs degrade to losses (never
    /// the other way around).
    pub fn next_rowgroup_salvaged(&mut self) -> Result<Option<Vec<F>>, StreamError> {
        if self.version == StreamVersion::V1 {
            return self.next_rowgroup_salvaged_v1();
        }
        if !self.done {
            self.salvage_rest()?;
        }
        Ok(self.pending.pop_front().map(decompress_one::<F>))
    }

    /// Reads the rest of the source and walks it through the frame layer:
    /// queues every row-group that verifies or repairs, records the rest as
    /// lost, and settles the commit verdict.
    fn salvage_rest(&mut self) -> Result<(), StreamError> {
        let from_start = core::mem::replace(&mut self.fresh, false);
        let mut buf = Vec::new();
        read_growing(&mut self.source, &mut buf, usize::MAX, &self.retry)?;
        self.done = true;
        let walk = frame::walk(&buf, 0, Layout::Stream { from_start });
        let (slots, repaired) = frame::recover(&walk, 1, |body| read_body::<F>(body).ok());
        let footer = walk.terminator.and_then(|t| frame::read_footer(buf.get(t + 4..)?));
        let base = self.next_index;
        self.repaired.extend(repaired.iter().map(|i| base + i));
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(rg) => self.pending.push_back(rg),
                None => self.lost.push(base + i),
            }
            self.next_index += 1;
        }
        self.footer = footer;
        self.committed =
            walk.tabled && footer.is_some_and(|f| f.rowgroups as usize == self.next_index);
        Ok(())
    }

    /// The salvage walk for legacy `"ALPS"` streams, whose frames carry no
    /// checksums, so there is nothing to repair against.
    fn next_rowgroup_salvaged_v1(&mut self) -> Result<Option<Vec<F>>, StreamError> {
        loop {
            let before = self.next_index;
            match self.next_rowgroup() {
                Ok(result) => return Ok(result),
                Err(StreamError::Io(e))
                    if e.kind() == io::ErrorKind::UnexpectedEof && !self.done =>
                {
                    // Torn write: the writer died mid-frame (or the tail was
                    // truncated). `is_committed` stays false — the terminator
                    // was never reached.
                    self.lost.push(before);
                    self.done = true;
                    return Ok(None);
                }
                Err(StreamError::Io(e)) => return Err(StreamError::Io(e)),
                Err(StreamError::Format(_)) if self.next_index > before => {
                    // The frame was consumed but its contents were bad: note
                    // the loss and resync at the next length prefix.
                    self.lost.push(before);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Row-group indices skipped so far by
    /// [`ColumnReader::next_rowgroup_salvaged`].
    pub fn lost_rowgroups(&self) -> &[usize] {
        &self.lost
    }

    /// Row-group indices repaired so far by
    /// [`ColumnReader::next_rowgroup_salvaged`]: rebuilt from parity, or
    /// delimited by the frame table past a corrupted length prefix.
    /// Repaired row-groups are byte-identical to what the writer emitted
    /// (every repair is verified against the frame's own checksum).
    pub fn repaired_rowgroups(&self) -> &[usize] {
        &self.repaired
    }

    /// Whether the stream's commit record was found intact. Meaningful once
    /// the stream has been drained (a `None` from one of the `next_*`
    /// methods): `true` means the writer's [`ColumnWriter::finish`] ran to
    /// completion and its row-group count matches what this reader walked.
    /// In-place frame damage does *not* clear the flag — a committed stream
    /// with losses was written whole and corrupted later. The strict readers
    /// check the footer; the salvage reader also requires the frame table
    /// after it, since a tear can end a file exactly at the footer.
    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// The verified commit footer, when the stream had one. Like
    /// [`ColumnReader::is_committed`], populated once the terminator is
    /// reached; legacy `"ALPS"` streams never carry one.
    pub fn footer(&self) -> Option<StreamFooter> {
        self.footer
    }

    /// Best-effort read of the commit record after the terminator frame.
    /// Any defect — missing bytes, wrong magic, checksum mismatch — leaves
    /// the stream uncommitted rather than erroring: an absent footer is the
    /// *signal* a torn write leaves behind, not a failure of this reader.
    fn read_commit_footer(&mut self) {
        if self.version == StreamVersion::V1 {
            // The legacy layout has no footer: its terminator is the only
            // commit record there is.
            self.committed = true;
            return;
        }
        let mut raw = [0u8; COMMIT_FOOTER_LEN];
        if read_full_retry(&mut self.source, &mut raw, &self.retry).is_err() {
            return;
        }
        self.footer = frame::read_footer(&raw);
        self.committed = self.footer.is_some_and(|f| f.rowgroups as usize == self.next_index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_roundtrip(data: &[f64], chunk: usize) {
        assert!(chunk > 0, "test chunking granularity must be nonzero");
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        for c in data.chunks(chunk) {
            writer.push(c).unwrap();
        }
        let summary = writer.finish().unwrap();
        assert_eq!(summary.values, data.len());
        assert_eq!(summary.total_bytes, file.len());
        let tail = frame::tail_len(summary.rowgroups);
        assert_eq!(summary.total_bytes, 5 + summary.payload_bytes + tail);

        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn roundtrip_various_chunkings() {
        let data: Vec<f64> = (0..250_000).map(|i| ((i % 999) as f64) / 4.0).collect();
        for chunk in [1usize << 20, 102_400, 1024, 999, 37] {
            stream_roundtrip(&data, chunk);
        }
    }

    #[test]
    fn zero_rowgroup_config_is_rejected_with_typed_error() {
        let params = SamplerParams { vectors_per_rowgroup: 0, ..SamplerParams::default() };
        let sink: Vec<u8> = Vec::new();
        let err = match ColumnWriter::<f64, _>::with_params(sink, params) {
            Err(e) => e,
            Ok(_) => panic!("zero vectors_per_rowgroup must be rejected"),
        };
        assert_eq!(err.param, "vectors_per_rowgroup");
    }

    #[test]
    fn custom_params_still_roundtrip() {
        let params = SamplerParams { vectors_per_rowgroup: 3, ..SamplerParams::default() };
        let data: Vec<f64> = (0..10_000).map(|i| (i % 777) as f64 / 4.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::with_params(&mut file, params).unwrap();
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.rowgroups, 10_000usize.div_ceil(3 * VECTOR_SIZE));
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn empty_stream() {
        let mut file = Vec::new();
        let writer = ColumnWriter::<f64, _>::new(&mut file);
        let summary = writer.finish().unwrap();
        assert_eq!(summary.values, 0);
        assert_eq!(summary.rowgroups, 0);
        assert_eq!(summary.payload_bytes, 0);
        assert_eq!(summary.total_bytes, file.len());
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(reader.next_rowgroup().unwrap().is_none());
    }

    /// `finish()` on a never-pushed writer emits a *committed* zero-value
    /// stream — that is intended behavior, pinned here for the current
    /// `"ALPT"` layout: the footer attests to zero values and zero
    /// row-groups, and draining yields `None` without error.
    #[test]
    fn never_pushed_v2_commits_an_empty_stream() {
        let mut file = Vec::new();
        let writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.finish().unwrap();
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(reader.next_rowgroup().unwrap().is_none());
        assert!(reader.is_committed());
        assert_eq!(reader.footer(), Some(StreamFooter { values: 0, rowgroups: 0 }));
        // Draining again stays `None` without error.
        assert!(reader.next_rowgroup().unwrap().is_none());
    }

    /// Same pin for the legacy `"ALPS"` layout: the terminator alone commits
    /// it, and it never carries a footer.
    #[test]
    fn never_pushed_v1_commits_an_empty_stream() {
        let mut file = Vec::new();
        let writer = ColumnWriter::<f64, _>::legacy(&mut file);
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, file.len());
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(reader.next_rowgroup().unwrap().is_none());
        assert!(reader.is_committed());
        assert_eq!(reader.footer(), None);
        assert!(reader.next_rowgroup().unwrap().is_none());
    }

    /// Regression for the byte-accounting bug: `total_bytes` must equal the
    /// sink length exactly — header, frames, terminator, and footer all
    /// included — for both stream versions, and `payload_bytes` must cover
    /// exactly the frame bytes between header and terminator.
    #[test]
    fn summary_accounting_matches_sink_length() {
        let data: Vec<f64> = (0..150_000).map(|i| ((i % 777) as f64) / 8.0).collect();

        let mut v2 = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut v2);
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, v2.len());
        assert_eq!(summary.payload_bytes, v2.len() - 5 - frame::tail_len(summary.rowgroups));

        let mut v1 = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::legacy(&mut v1);
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, v1.len());
        assert_eq!(summary.payload_bytes, v1.len() - 5 - 4);
    }

    #[test]
    fn zero_flush_rowgroups_is_rejected_with_typed_error() {
        let sink: Vec<u8> = Vec::new();
        let err =
            match ColumnWriter::<f64, _>::with_flush_rowgroups(sink, SamplerParams::default(), 0) {
                Err(e) => e,
                Ok(_) => panic!("zero flush_rowgroups must be rejected"),
            };
        assert_eq!(err.param, "flush_rowgroups");
    }

    /// A flush spanning several row-groups must emit one frame per row-group
    /// and stay byte-identical to the one-row-group-per-flush writer — the
    /// invariant `flush_rowgroup` used to only `debug_assert!`.
    #[test]
    fn multi_rowgroup_flushes_match_serial_writer_bytes() {
        let params = SamplerParams { vectors_per_rowgroup: 3, ..SamplerParams::default() };
        // 4.5 row-groups of data: full flushes of 3 row-groups plus a ragged
        // tail flush that itself spans more than one row-group.
        let data: Vec<f64> =
            (0..3 * VECTOR_SIZE * 4 + 1536).map(|i| (i % 555) as f64 / 4.0).collect();

        let mut serial = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::with_params(&mut serial, params).unwrap();
        writer.push(&data).unwrap();
        let serial_summary = writer.finish().unwrap();

        let mut batched = Vec::new();
        let mut writer =
            ColumnWriter::<f64, _>::with_flush_rowgroups(&mut batched, params, 3).unwrap();
        writer.push(&data).unwrap();
        let batched_summary = writer.finish().unwrap();

        assert_eq!(batched, serial);
        assert_eq!(batched_summary, serial_summary);
        assert_eq!(batched_summary.total_bytes, batched.len());
        assert_eq!(batched_summary.rowgroups, 5);
    }

    #[test]
    fn mixed_schemes_stream() {
        let mut data: Vec<f64> = (0..102_400).map(|i| (i % 100) as f64 / 10.0).collect();
        data.extend((0..102_400).map(|i| ((i as f64) * 0.317).sin() * 1e-6));
        stream_roundtrip(&data, 50_000);
    }

    #[test]
    fn f32_stream() {
        let data: Vec<f32> = (0..150_000).map(|i| (i % 512) as f32 / 8.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f32, _>::new(&mut file);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        let mut reader = ColumnReader::<f32, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut file = Vec::new();
        let writer = ColumnWriter::<f32, _>::new(&mut file);
        writer.finish().unwrap();
        assert!(matches!(
            ColumnReader::<f64, _>::new(&file[..]),
            Err(StreamError::Format(FormatError::WidthMismatch { .. }))
        ));
    }

    #[test]
    fn current_streams_use_checksummed_magic() {
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.push(&[1.0, 2.0, 3.0]).unwrap();
        writer.finish().unwrap();
        assert_eq!(&file[..4], STREAM_MAGIC);
        assert_eq!(&file[..4], b"ALPT");
    }

    /// Byte offset of the first frame's body (after the 5-byte stream header
    /// and the frame's 4-byte length + 8-byte checksum).
    const FIRST_BODY: usize = 5 + 4 + 8;

    fn two_rowgroup_stream() -> (Vec<f64>, Vec<u8>) {
        let data: Vec<f64> = (0..150_000).map(|i| ((i % 777) as f64) / 8.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.rowgroups, 2);
        (data, file)
    }

    /// Offset just past the commit footer of a two-frame stream.
    fn footer_end(file: &[u8]) -> usize {
        file.len() - frame::tail_len(2) + 4 + COMMIT_FOOTER_LEN
    }

    #[test]
    fn flipped_payload_bit_is_caught_by_frame_checksum() {
        let (_, mut file) = two_rowgroup_stream();
        file[FIRST_BODY + 100] ^= 0x10;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        match reader.next_rowgroup() {
            Err(StreamError::Format(FormatError::ChecksumMismatch { rowgroup, .. })) => {
                assert_eq!(rowgroup, 0);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn salvage_reader_skips_damaged_frame_and_reports_it() {
        let (data, mut file) = two_rowgroup_stream();
        let rowgroup_len = 102_400; // default vectors_per_rowgroup * VECTOR_SIZE
        file[FIRST_BODY + 100] ^= 0x10;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert_eq!(reader.lost_rowgroups(), &[0]);
        // Everything except the damaged first row-group comes back bit-exact.
        assert_eq!(restored.len(), data.len() - rowgroup_len);
        for (a, b) in data[rowgroup_len..].iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn salvage_after_strict_reads_returns_the_rest() {
        let (data, mut file) = two_rowgroup_stream();
        let rowgroup_len = 102_400;
        let second_body = FIRST_BODY + u32::from_le_bytes(file[5..9].try_into().unwrap()) as usize;
        file[second_body + 12 + 100] ^= 0x10;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let first = reader.next_rowgroup().unwrap().unwrap();
        assert_eq!(first, data[..rowgroup_len]);
        // Past frame 0 the table no longer lines up: the walk still delimits
        // the rest by length and numbers its losses after the strict reads.
        assert!(reader.next_rowgroup_salvaged().unwrap().is_none());
        assert_eq!(reader.lost_rowgroups(), &[1]);
        assert!(!reader.is_committed());
    }

    #[test]
    fn salvage_on_clean_stream_loses_nothing() {
        let (data, file) = two_rowgroup_stream();
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(reader.lost_rowgroups().is_empty());
        assert_eq!(restored.len(), data.len());
    }

    #[test]
    fn legacy_v1_streams_still_read() {
        let data: Vec<f64> = (0..150_000).map(|i| (i % 333) as f64 / 2.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::legacy(&mut file);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        assert_eq!(&file[..4], b"ALPS");

        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn clean_stream_is_committed_with_footer() {
        let (data, file) = two_rowgroup_stream();
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        assert!(!reader.is_committed(), "commit is only known once drained");
        while reader.next_rowgroup().unwrap().is_some() {}
        assert!(reader.is_committed());
        let footer = reader.footer().expect("V2 stream must carry a footer");
        assert_eq!(footer.values, data.len() as u64);
        assert_eq!(footer.rowgroups, 2);
    }

    #[test]
    fn torn_stream_salvages_committed_prefix() {
        let (data, file) = two_rowgroup_stream();
        let rowgroup_len = 102_400;
        // Cut inside the second frame's payload: the writer "died" mid-frame.
        let cut = file.len() - COMMIT_FOOTER_LEN - 4 - 1000;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(!reader.is_committed());
        assert!(reader.footer().is_none());
        assert_eq!(reader.lost_rowgroups(), &[1]);
        assert_eq!(restored.len(), rowgroup_len);
        for (a, b) in data[..rowgroup_len].iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn torn_footer_recovers_all_data_but_stays_uncommitted() {
        let (data, file) = two_rowgroup_stream();
        // Cut mid-footer: every frame is intact but the commit record is torn.
        let cut = footer_end(&file) - 1;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(reader.lost_rowgroups().is_empty());
        assert_eq!(restored.len(), data.len());
        assert!(!reader.is_committed());
        assert!(reader.footer().is_none());
    }

    #[test]
    fn corrupted_footer_checksum_stays_uncommitted() {
        let (_, mut file) = two_rowgroup_stream();
        let last = footer_end(&file) - 1;
        file[last] ^= 0x01;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        while reader.next_rowgroup().unwrap().is_some() {}
        assert!(!reader.is_committed());
        assert!(reader.footer().is_none());
    }

    #[test]
    fn damaged_midframe_stream_is_still_committed() {
        let (_, mut file) = two_rowgroup_stream();
        file[FIRST_BODY + 100] ^= 0x10;
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        while reader.next_rowgroup_salvaged().unwrap().is_some() {}
        assert_eq!(reader.lost_rowgroups(), &[0]);
        // The writer finished cleanly; the damage happened in place.
        assert!(reader.is_committed());
        assert_eq!(reader.footer().unwrap().rowgroups, 2);
    }

    #[test]
    fn legacy_v1_commits_at_terminator() {
        let data: Vec<f64> = (0..10_000).map(|i| i as f64 / 2.0).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::legacy(&mut file);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        while reader.next_rowgroup().unwrap().is_some() {}
        assert!(reader.is_committed());
        assert!(reader.footer().is_none(), "V1 streams carry no footer");
    }

    #[test]
    fn transient_read_faults_are_absorbed() {
        use crate::io::{FaultPlan, FaultyRead};
        let (data, file) = two_rowgroup_stream();
        let plan = FaultPlan::clean(7).with_transients(4).with_short_ops(3);
        let faulty = FaultyRead::new(&file[..], plan);
        let mut reader = ColumnReader::<f64, _>::new(faulty).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert!(reader.lost_rowgroups().is_empty());
        assert!(reader.is_committed());
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn transient_write_faults_are_absorbed() {
        use crate::io::{FaultPlan, FaultyWrite};
        let data: Vec<f64> = (0..150_000).map(|i| ((i % 777) as f64) / 8.0).collect();
        let mut clean = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut clean);
        writer.push(&data).unwrap();
        writer.finish().unwrap();

        // Retries make the faulty sink byte-identical to the clean one.
        let plan = FaultPlan::clean(11).with_transients(4).with_short_ops(3);
        let mut sink = FaultyWrite::new(Vec::new(), plan);
        let mut writer = ColumnWriter::<f64, _>::new(&mut sink);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        assert_eq!(sink.into_inner(), clean);
    }

    /// Writes `data` as a parity-protected stream with `vectors_per_rowgroup
    /// = 2` (small row-groups, many frames) and the given group size.
    fn parity_stream(data: &[f64], group_size: usize) -> Vec<u8> {
        let params = SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() };
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::with_params_and_parity(
            &mut file,
            params,
            ParityConfig { group_size },
        )
        .unwrap();
        writer.push(data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, file.len());
        file
    }

    /// Byte ranges `(start, len)` of every frame in a V2 stream, in order.
    fn frame_spans(file: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut at = 5;
        loop {
            let len = u32::from_le_bytes(file[at..at + 4].try_into().unwrap()) as usize;
            if len == 0 {
                break;
            }
            spans.push((at, 12 + len));
            at += 12 + len;
        }
        spans
    }

    /// Whether the frame at `span` is a parity frame.
    fn is_parity_span(file: &[u8], span: (usize, usize)) -> bool {
        file[span.0 + 12..span.0 + span.1].starts_with(parity::PARITY_MAGIC.as_slice())
    }

    fn drain_salvaged(file: &[u8]) -> (Vec<f64>, Vec<usize>, Vec<usize>, bool) {
        let mut reader = ColumnReader::<f64, _>::new(file).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        (
            restored,
            reader.lost_rowgroups().to_vec(),
            reader.repaired_rowgroups().to_vec(),
            reader.is_committed(),
        )
    }

    #[test]
    fn parity_stream_reads_clean_through_strict_and_salvage_paths() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 333) as f64 / 4.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        let parity_frames = spans.iter().filter(|&&s| is_parity_span(&file, s)).count();
        let data_frames = spans.len() - parity_frames;
        // 20_000 values / 2048 per row-group = 10 frames → 2 full groups + 1
        // partial (tail) group → 3 parity frames.
        assert_eq!(data_frames, 10);
        assert_eq!(parity_frames, 3);

        let mut reader = ColumnReader::<f64, _>::new(&file[..]).unwrap();
        let mut strict = Vec::new();
        while let Some(values) = reader.next_rowgroup().unwrap() {
            strict.extend(values);
        }
        assert_eq!(strict, data);
        assert!(reader.is_committed());
        assert_eq!(reader.footer().unwrap().rowgroups, 10);

        let (salvaged, lost, repaired, committed) = drain_salvaged(&file);
        assert_eq!(salvaged, data);
        assert!(lost.is_empty());
        assert!(repaired.is_empty());
        assert!(committed);
    }

    #[test]
    fn single_damaged_frame_per_group_is_repaired_byte_identically() {
        let data: Vec<f64> = (0..20_000).map(|i| ((i % 777) as f64) / 8.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        let data_spans: Vec<(usize, usize)> =
            spans.iter().copied().filter(|&s| !is_parity_span(&file, s)).collect();
        // One damaged data frame in each of the three groups, including the
        // partial tail group — every one must come back repaired.
        for &victim in &[1usize, 6, 9] {
            let mut hurt = file.clone();
            let (start, len) = data_spans[victim];
            hurt[start + len / 2] ^= 0x40;
            let (restored, lost, repaired, committed) = drain_salvaged(&hurt);
            assert_eq!(restored, data, "victim {victim} must restore bit-exactly");
            assert!(lost.is_empty(), "victim {victim} must not be lost");
            assert_eq!(repaired, vec![victim]);
            assert!(committed);
        }
    }

    #[test]
    fn pre_table_streams_still_repair_body_damage() {
        let data: Vec<f64> = (0..20_000).map(|i| ((i % 777) as f64) / 8.0).collect();
        let file = parity_stream(&data, 4);
        // A stream written before the frame table ends at its footer (10 data
        // + 3 parity frames were logged).
        let mut old = file[..file.len() - frame::tail_len(13) + 4 + COMMIT_FOOTER_LEN].to_vec();
        let spans = frame_spans(&old);
        let data_spans: Vec<(usize, usize)> =
            spans.iter().copied().filter(|&s| !is_parity_span(&old, s)).collect();
        let (start, len) = data_spans[6];
        old[start + len / 2] ^= 0x40;
        let (restored, lost, repaired, committed) = drain_salvaged(&old);
        assert_eq!(restored, data);
        assert!(lost.is_empty());
        assert_eq!(repaired, vec![6]);
        // Salvage cannot tell this file from one torn at the footer.
        assert!(!committed);
    }

    #[test]
    fn two_damaged_frames_in_one_group_degrade_to_loss_report() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 555) as f64 / 2.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        let data_spans: Vec<(usize, usize)> =
            spans.iter().copied().filter(|&s| !is_parity_span(&file, s)).collect();
        let mut hurt = file.clone();
        for &victim in &[4usize, 6] {
            let (start, len) = data_spans[victim];
            hurt[start + len / 2] ^= 0x08;
        }
        let (restored, lost, repaired, committed) = drain_salvaged(&hurt);
        assert_eq!(lost, vec![4, 6]);
        assert!(repaired.is_empty());
        assert!(committed, "in-place damage does not un-commit a stream");
        // Everything outside the two lost row-groups is intact and ordered.
        let rg = 2 * VECTOR_SIZE;
        let mut expect = Vec::new();
        for (i, chunk) in data.chunks(rg).enumerate() {
            if i != 4 && i != 6 {
                expect.extend_from_slice(chunk);
            }
        }
        assert_eq!(restored, expect);
    }

    #[test]
    fn damaged_parity_frame_costs_no_data() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 999) as f64 / 16.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        let parity_spans: Vec<(usize, usize)> =
            spans.iter().copied().filter(|&s| is_parity_span(&file, s)).collect();
        for &(start, len) in &parity_spans {
            let mut hurt = file.clone();
            hurt[start + len / 2] ^= 0x01;
            let (restored, lost, repaired, committed) = drain_salvaged(&hurt);
            assert_eq!(restored, data);
            assert!(lost.is_empty());
            assert!(repaired.is_empty());
            assert!(committed);
        }
    }

    #[test]
    fn truncation_into_tail_parity_keeps_all_data() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 444) as f64 / 4.0).collect();
        let file = parity_stream(&data, 4);
        let spans = frame_spans(&file);
        let &(pstart, plen) = spans.iter().rfind(|&&s| is_parity_span(&file, s)).unwrap();
        // Cut mid-way through the final (tail) parity frame: every data
        // frame is intact, so nothing is lost — but the commit record is
        // gone, so the stream reads as uncommitted.
        let cut = pstart + plen / 2;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let mut restored = Vec::new();
        while let Some(values) = reader.next_rowgroup_salvaged().unwrap() {
            restored.extend(values);
        }
        assert_eq!(restored, data);
        assert!(reader.lost_rowgroups().is_empty());
        assert!(!reader.is_committed());
    }

    #[test]
    fn parity_accounting_matches_sink_length() {
        let data: Vec<f64> = (0..20_000).map(|i| (i % 321) as f64 / 2.0).collect();
        let params = SamplerParams { vectors_per_rowgroup: 2, ..SamplerParams::default() };
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::with_params_and_parity(
            &mut file,
            params,
            ParityConfig { group_size: 4 },
        )
        .unwrap();
        writer.push(&data).unwrap();
        let summary = writer.finish().unwrap();
        assert_eq!(summary.total_bytes, file.len());
        // 10 data frames and 3 parity frames in the table.
        assert_eq!(summary.total_bytes, 5 + summary.payload_bytes + frame::tail_len(13));
        // Parity frames count as payload bytes but never as row-groups.
        assert_eq!(summary.rowgroups, 10);
        assert_eq!(summary.values, data.len());
    }

    #[test]
    fn zero_parity_group_size_is_rejected_with_typed_error() {
        let sink: Vec<u8> = Vec::new();
        let err = match ColumnWriter::<f64, _>::with_parity(sink, ParityConfig { group_size: 0 }) {
            Err(e) => e,
            Ok(_) => panic!("zero parity group size must be rejected"),
        };
        assert_eq!(err.param, "parity group_size");
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let data: Vec<f64> = (0..120_000).map(|i| i as f64).collect();
        let mut file = Vec::new();
        let mut writer = ColumnWriter::<f64, _>::new(&mut file);
        writer.push(&data).unwrap();
        writer.finish().unwrap();
        let cut = file.len() / 2;
        let mut reader = ColumnReader::<f64, _>::new(&file[..cut]).unwrap();
        let result = loop {
            match reader.next_rowgroup() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err());
    }
}
