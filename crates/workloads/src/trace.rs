//! Persistent workload traces: the **OTCT binary format**, the one
//! encoding of a request sequence with provenance, so any workload — and
//! every live service's request log — can be recorded once and replayed
//! bit-identically across processes and machines.
//!
//! A trace (`.otct`) is a versioned header ([`TraceHeader`]: universe
//! size, shard map, seed provenance) followed by LEB128-packed requests.
//! [`TraceWriter`] streams requests out; [`TraceReader`] streams them back
//! in (it is an `Iterator`), which is what `ShardedEngine::replay_trace`
//! consumes for file-backed replay without materialising the whole
//! sequence.
//!
//! The binary layout is specified normatively in `DESIGN.md` ("The trace
//! format"). All multi-byte integers are **little-endian**; requests are
//! LEB128 varints of `(node_id << 1) | is_negative`, so hot small node ids
//! cost one byte. The record codec itself (varint + request payload)
//! lives in [`crate::wire`] and is shared with the `otc-serve` wire
//! protocol — a live service's log is byte-compatible with these readers
//! by construction.
//!
//! A stream whose header sets [`TRACE_FLAG_REBALANCE`] may interleave
//! **rebalance records** ([`crate::rebalance::RebalanceRecord`]) with its
//! requests, escaped by the [`REBALANCE_TAG`] varint — a value no request
//! can encode (its node part overflows `u32`), so unflagged readers
//! reject it as corruption instead of misparsing it. The `Iterator` face
//! of [`TraceReader`] transparently skips rebalance records (a
//! requests-only projection, so [`Trace::load`] and every pre-existing
//! consumer keep working); rebalance-aware consumers call
//! [`TraceReader::next_event`] instead. The header's record count keeps
//! counting **requests only**.

// Codec modules hold the panic-freedom line hardest: a narrowing cast
// or an out-of-bounds index here turns a corrupt trace into a wrong
// answer or a crash. CI runs clippy with -D warnings, so these are
// hard gates for this file.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::indexing_slicing)]

use std::io::{self, Read, Seek, SeekFrom, Write};

use otc_core::request::Request;

use crate::rebalance::RebalanceRecord;

/// Magic bytes opening every binary trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"OTCT";

/// Current binary format version. Readers reject anything newer; older
/// versions (there are none yet) would be upgraded here.
pub const TRACE_VERSION: u16 = 1;

/// Header flag (bit 0): the stream may interleave rebalance records with
/// its requests. Readers accept flag words of `0` or exactly this bit;
/// any other bit is still a reserved-flags rejection.
pub const TRACE_FLAG_REBALANCE: u16 = 1;

/// Every header flag bit this build understands.
const KNOWN_FLAGS: u16 = TRACE_FLAG_REBALANCE;

/// The varint escaping a rebalance record inside the request body. A
/// request varint is `(node << 1) | sign ≤ 2³³ − 1` (node ids are
/// `u32`), so `2³³` is the smallest value no request can occupy: in an
/// unflagged stream it is already rejected as corruption, which is what
/// makes claiming it backward-safe.
pub const REBALANCE_TAG: u64 = 1 << 33;

/// Record-count sentinel meaning "unknown / stream to EOF" — what a
/// header holds while a [`TraceWriter`] is still open (a crash leaves a
/// readable, EOF-terminated trace).
pub const COUNT_UNKNOWN: u64 = u64::MAX;

/// Hard cap on the shard-map length accepted by the reader: real forests
/// have at most thousands of shards, so anything larger is corruption.
const MAX_SHARDS: u32 = 1 << 20;

/// Hard cap on the generator-name length accepted by the reader.
const MAX_GENERATOR_LEN: u16 = 4096;

/// Provenance header of a binary trace: enough to re-derive the workload
/// (seed + generator name) and to validate a replay target (universe size,
/// shard map) before any request is submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Size of the global node-id space the requests address. Every record
    /// must satisfy `node < universe`; readers reject violations as
    /// corruption. `0` disables the bound (free-form traces).
    pub universe: u32,
    /// Per-shard tree sizes of the forest the trace was generated for
    /// (informational: partitioned forests replicate the root, so the sum
    /// may exceed `universe`). Empty for single-tree traces.
    pub shard_map: Vec<u32>,
    /// The RNG seed the generating process used (0 when not seed-driven,
    /// e.g. adaptively generated adversarial traces).
    pub seed: u64,
    /// Free-form generator name (`"multi-tenant"`, `"paging-adversary"`,
    /// …) for humans and tooling; at most 4096 bytes of UTF-8.
    pub generator: String,
}

impl TraceHeader {
    /// A header for a single-tree universe of `n` nodes. A universe
    /// beyond `u32::MAX` nodes saturates (node ids are `u32`, so no
    /// such tree can exist to be described).
    #[must_use]
    pub fn single_tree(n: usize, seed: u64, generator: &str) -> Self {
        let n = u32::try_from(n).unwrap_or(u32::MAX);
        Self { universe: n, shard_map: vec![n], seed, generator: generator.to_string() }
    }

    /// Exact byte length of this header's binary encoding, including the
    /// trailing record-count field. The first record of the trace body
    /// starts at this offset from the trace origin — the anchor for
    /// byte-addressed recovery ([`TraceReader::byte_pos`],
    /// [`TraceWriter::resume_with_flags`]).
    #[must_use]
    pub fn encoded_len(&self) -> u64 {
        // magic + version + flags + universe + seed + shard count
        // + shard sizes + generator length + generator bytes + count.
        (4 + 2 + 2 + 4 + 8 + 4 + 4 * self.shard_map.len() + 2 + self.generator.len() + 8) as u64
    }
}

/// An owned trace: header plus the full request sequence. The convenience
/// carrier for tests, recording helpers and small workloads; streaming
/// producers/consumers use [`TraceWriter`] / [`TraceReader`] directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Provenance and universe metadata.
    pub header: TraceHeader,
    /// The request sequence.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Serializes the trace into the binary format.
    ///
    /// # Errors
    /// Propagates I/O errors from `sink`.
    pub fn save<W: Write + Seek>(&self, sink: W) -> io::Result<W> {
        let mut w = TraceWriter::new(sink, self.header.clone())?;
        for &r in &self.requests {
            w.push(r)?;
        }
        w.finish()
    }

    /// Deserializes a binary trace, materialising every request.
    ///
    /// # Errors
    /// Rejects corrupt headers, truncated bodies, and out-of-universe
    /// records (`io::ErrorKind::InvalidData`).
    pub fn load<R: Read>(src: R) -> io::Result<Self> {
        let mut reader = TraceReader::new(src)?;
        let mut requests = Vec::new();
        for r in &mut reader {
            requests.push(r?);
        }
        Ok(Self { header: reader.into_header(), requests })
    }

    /// The binary encoding as an in-memory byte vector.
    ///
    /// # Panics
    /// Never panics: writing to a `Vec` cannot fail.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        // otc-lint: allow(R3 reason="io::Write/Seek on a Cursor<Vec> is infallible; no input bytes are parsed here")
        self.save(io::Cursor::new(Vec::new())).expect("in-memory write cannot fail").into_inner()
    }

    /// Decodes a trace from its in-memory binary encoding.
    ///
    /// # Errors
    /// Same as [`Trace::load`].
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        Self::load(io::Cursor::new(bytes))
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Checks a header's variable-length fields against the format caps and
/// returns them in their exact on-wire widths, so encoding can never
/// truncate: a length that does not fit the wire field is an error here,
/// not a silent `as` cast at the write site.
fn wire_lens(header: &TraceHeader) -> io::Result<(u32, u16)> {
    let num_shards = u32::try_from(header.shard_map.len())
        .ok()
        .filter(|&n| n <= MAX_SHARDS)
        .ok_or_else(|| bad_data("shard map too long"))?;
    let gen_len = u16::try_from(header.generator.len())
        .ok()
        .filter(|&n| n <= MAX_GENERATOR_LEN)
        .ok_or_else(|| bad_data("generator name too long"))?;
    Ok((num_shards, gen_len))
}

/// Streaming binary-trace writer.
///
/// Writes the header immediately (with [`COUNT_UNKNOWN`] as the record
/// count), appends LEB128-packed requests through an internal buffer, and
/// on [`TraceWriter::finish`] seeks back to patch the true record count —
/// so a reader can detect truncation, while a crash mid-write still leaves
/// an EOF-terminated trace that readers accept.
///
/// ```
/// use std::io::Cursor;
/// use otc_core::{Request, tree::NodeId};
/// use otc_workloads::trace::{TraceHeader, TraceReader, TraceWriter};
///
/// let header = TraceHeader::single_tree(8, 42, "doc-example");
/// let mut w = TraceWriter::new(Cursor::new(Vec::new()), header.clone()).unwrap();
/// w.push(Request::pos(NodeId(3))).unwrap();
/// w.push(Request::neg(NodeId(7))).unwrap();
/// let bytes = w.finish().unwrap().into_inner();
///
/// let mut r = TraceReader::new(Cursor::new(bytes)).unwrap();
/// assert_eq!(r.header(), &header);
/// assert_eq!(r.remaining(), Some(2));
/// let back: Vec<Request> = r.map(Result::unwrap).collect();
/// assert_eq!(back, vec![Request::pos(NodeId(3)), Request::neg(NodeId(7))]);
/// ```
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    header: TraceHeader,
    /// Header flag word; [`TraceWriter::push_rebalance`] requires
    /// [`TRACE_FLAG_REBALANCE`] here.
    flags: u16,
    /// Small write-combining buffer so per-request pushes don't hit the
    /// sink syscall-by-syscall.
    buf: Vec<u8>,
    count: u64,
    /// Byte offset of the record-count field, patched by `finish`.
    count_pos: u64,
    /// Encoded body bytes so far, buffered or written. The next record
    /// lands at `count_pos + 8 + body_bytes` in the sink.
    body_bytes: u64,
}

/// Flush threshold for the writer's internal buffer.
const WRITER_BUF: usize = 16 * 1024;

impl<W: Write + Seek> TraceWriter<W> {
    /// Opens a writer over `sink`, writing the header immediately (flag
    /// word zero: a plain request-only trace).
    ///
    /// # Errors
    /// Propagates I/O errors; rejects generator names longer than 4096
    /// bytes and shard maps longer than 2²⁰ entries.
    pub fn new(sink: W, header: TraceHeader) -> io::Result<Self> {
        Self::with_flags(sink, header, 0)
    }

    /// Opens a writer whose header carries `flags` — pass
    /// [`TRACE_FLAG_REBALANCE`] to make the stream rebalance-capable
    /// (required before [`TraceWriter::push_rebalance`]).
    ///
    /// # Errors
    /// Everything [`TraceWriter::new`] rejects, plus flag bits this build
    /// does not define.
    pub fn with_flags(mut sink: W, header: TraceHeader, flags: u16) -> io::Result<Self> {
        if flags & !KNOWN_FLAGS != 0 {
            return Err(bad_data(format!("unknown trace flags: {flags:#06x}")));
        }
        let (num_shards, gen_len) = wire_lens(&header)?;
        // The sink need not start at position 0 (appending after a
        // preamble or an earlier trace is legal): all patch offsets are
        // relative to where this trace begins.
        let origin = sink.stream_position()?;
        let mut buf = Vec::with_capacity(WRITER_BUF + 10);
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        buf.extend_from_slice(&flags.to_le_bytes());
        buf.extend_from_slice(&header.universe.to_le_bytes());
        buf.extend_from_slice(&header.seed.to_le_bytes());
        buf.extend_from_slice(&num_shards.to_le_bytes());
        for &s in &header.shard_map {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.extend_from_slice(&gen_len.to_le_bytes());
        buf.extend_from_slice(header.generator.as_bytes());
        let count_pos = origin + buf.len() as u64;
        buf.extend_from_slice(&COUNT_UNKNOWN.to_le_bytes());
        sink.write_all(&buf)?;
        buf.clear();
        Ok(Self { sink, header, flags, buf, count: 0, count_pos, body_bytes: 0 })
    }

    /// Reopens a writer over the good prefix of an existing trace after a
    /// crash, so recovered services append where replay stopped.
    ///
    /// `origin` is the byte offset of the trace's start within the sink
    /// (`0` for a plain log file) and `count` the number of records the
    /// prefix holds; the caller must have truncated the sink to the end of
    /// the good prefix (e.g. [`TraceReader::byte_pos`] after replay).
    /// `flags` is the header flag word (as reported by
    /// [`TraceReader::flags`] during the recovery scan). The on-disk flag
    /// word is not rewritten — it was stamped when the log was created;
    /// the writer only needs to know it to keep accepting
    /// [`TraceWriter::push_rebalance`] after resume. The record count in
    /// the header is immediately re-stamped to [`COUNT_UNKNOWN`]: a
    /// gracefully finished log carries a patched count that would
    /// otherwise hide post-resume appends from readers if the process
    /// crashes again before [`TraceWriter::finish`].
    ///
    /// # Errors
    /// Propagates I/O errors; rejects headers [`TraceWriter::new`] would
    /// reject, unknown flag bits, and sinks shorter than `origin` plus the
    /// header.
    pub fn resume_with_flags(
        mut sink: W,
        header: TraceHeader,
        origin: u64,
        count: u64,
        flags: u16,
    ) -> io::Result<Self> {
        if flags & !KNOWN_FLAGS != 0 {
            return Err(bad_data(format!("unknown trace flags: {flags:#06x}")));
        }
        wire_lens(&header)?;
        let count_pos = origin + header.encoded_len() - 8;
        let end = sink.seek(SeekFrom::End(0))?;
        let Some(body_bytes) = end.checked_sub(count_pos + 8) else {
            return Err(bad_data(format!(
                "trace sink ends at {end}, before the header ending at {}",
                count_pos + 8
            )));
        };
        sink.seek(SeekFrom::Start(count_pos))?;
        sink.write_all(&COUNT_UNKNOWN.to_le_bytes())?;
        sink.seek(SeekFrom::End(0))?;
        sink.flush()?;
        let buf = Vec::with_capacity(WRITER_BUF + 10);
        Ok(Self { sink, header, flags, buf, count, count_pos, body_bytes })
    }

    /// The header this writer opened with.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Requests written so far (rebalance records are never counted).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The header flag word this writer opened with.
    #[must_use]
    pub fn flags(&self) -> u16 {
        self.flags
    }

    /// Appends one request.
    ///
    /// # Errors
    /// Rejects nodes outside the header's universe (when `universe > 0`);
    /// propagates I/O errors when the internal buffer flushes.
    pub fn push(&mut self, req: Request) -> io::Result<()> {
        if self.header.universe > 0 && req.node.0 >= self.header.universe {
            return Err(bad_data(format!(
                "request targets node {} outside the declared universe of {}",
                req.node, self.header.universe
            )));
        }
        let before = self.buf.len();
        crate::wire::encode_request(&mut self.buf, req);
        self.body_bytes += (self.buf.len() - before) as u64;
        self.count += 1;
        if self.buf.len() >= WRITER_BUF {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Appends one rebalance record ([`REBALANCE_TAG`] + framed payload)
    /// at the current stream position. Does **not** advance the request
    /// count — the header count keeps meaning "requests", so request-only
    /// consumers and snapshot cut arithmetic are unaffected.
    ///
    /// # Errors
    /// Rejected unless the writer opened with [`TRACE_FLAG_REBALANCE`]
    /// (an unflagged reader would refuse the record as corruption);
    /// propagates I/O errors when the internal buffer flushes.
    pub fn push_rebalance(&mut self, record: &RebalanceRecord) -> io::Result<()> {
        if self.flags & TRACE_FLAG_REBALANCE == 0 {
            return Err(bad_data(
                "rebalance records require a TRACE_FLAG_REBALANCE header \
                 (open the writer with TraceWriter::with_flags)",
            ));
        }
        let before = self.buf.len();
        crate::wire::encode_varint(&mut self.buf, REBALANCE_TAG);
        record.write_framed(&mut self.buf);
        self.body_bytes += (self.buf.len() - before) as u64;
        if self.buf.len() >= WRITER_BUF {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Absolute sink offset where the next record will land —
    /// equivalently, the end of the encoding of everything pushed so far.
    /// For a trace starting at sink position 0 this matches
    /// [`TraceReader::byte_pos`] after reading the same records; snapshot
    /// cuts pair it with [`TraceWriter::count`] to address the log
    /// position a snapshot corresponds to.
    #[must_use]
    pub fn stream_offset(&self) -> u64 {
        self.count_pos + 8 + self.body_bytes
    }

    /// Writes every buffered record through to the sink and flushes it,
    /// without finishing the trace: after `sync` the sink's bytes are an
    /// EOF-terminated trace containing exactly the records pushed so far.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.sink.write_all(&self.buf)?;
        self.buf.clear();
        self.sink.flush()
    }

    /// Flushes the body, patches the record count into the header, and
    /// returns the sink (positioned at the end of the trace).
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.write_all(&self.buf)?;
        self.sink.seek(SeekFrom::Start(self.count_pos))?;
        self.sink.write_all(&self.count.to_le_bytes())?;
        self.sink.seek(SeekFrom::End(0))?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Counts the bytes the parser actually consumes. Wrapped *around* the
/// `BufReader` (not inside it), so read-ahead buffering never inflates
/// the count: [`TraceReader::byte_pos`] is exactly the encoded length of
/// everything parsed so far. The varint decoder accepts non-minimal
/// encodings, so re-encoding parsed values cannot measure this — only
/// counting the source bytes can.
struct CountingReader<R: Read> {
    inner: R,
    consumed: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed += n as u64;
        Ok(n)
    }
}

/// One record of a binary trace body, as yielded by
/// [`TraceReader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request record.
    Request(Request),
    /// A rebalance decision record (only in streams flagged with
    /// [`TRACE_FLAG_REBALANCE`]).
    Rebalance(RebalanceRecord),
}

/// Streaming binary-trace reader: validates the header on construction,
/// then yields requests as an `Iterator` (so replay never materialises the
/// whole sequence). See [`TraceWriter`] for a round-trip example.
///
/// The `Iterator` face is a **requests-only projection**: rebalance
/// records in a flagged stream are decoded, validated and skipped.
/// Rebalance-aware consumers use [`TraceReader::next_event`].
pub struct TraceReader<R: Read> {
    src: CountingReader<io::BufReader<R>>,
    header: TraceHeader,
    /// Header flag word (`0` or [`TRACE_FLAG_REBALANCE`]).
    flags: u16,
    /// Records the header promises (`None` when the writer never
    /// finished — stream to EOF).
    declared: Option<u64>,
    yielded: u64,
    failed: bool,
    /// Bytes consumed up to the end of the last successfully yielded
    /// record (or the header) — unlike `src.consumed`, never advanced by
    /// the partial bytes of a torn or rejected record.
    good_pos: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a reader, parsing and validating the header.
    ///
    /// # Errors
    /// `io::ErrorKind::InvalidData` on bad magic, unknown version,
    /// non-zero reserved flags, oversized shard map or generator name, or
    /// non-UTF-8 generator bytes; `UnexpectedEof` on truncated headers.
    pub fn new(src: R) -> io::Result<Self> {
        let mut src = CountingReader { inner: io::BufReader::new(src), consumed: 0 };
        let mut magic = [0u8; 4];
        src.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(bad_data(format!("bad magic {magic:?}, expected {TRACE_MAGIC:?}")));
        }
        let version = read_u16(&mut src)?;
        if version != TRACE_VERSION {
            return Err(bad_data(format!(
                "unsupported trace version {version} (this build reads {TRACE_VERSION})"
            )));
        }
        let flags = read_u16(&mut src)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(bad_data(format!("reserved flags set: {flags:#06x}")));
        }
        let universe = read_u32(&mut src)?;
        let seed = read_u64(&mut src)?;
        let num_shards = read_u32(&mut src)?;
        if num_shards > MAX_SHARDS {
            return Err(bad_data(format!("implausible shard count {num_shards}")));
        }
        let mut shard_map = Vec::with_capacity(num_shards as usize);
        for _ in 0..num_shards {
            shard_map.push(read_u32(&mut src)?);
        }
        let gen_len = read_u16(&mut src)?;
        if gen_len > MAX_GENERATOR_LEN {
            return Err(bad_data(format!("implausible generator-name length {gen_len}")));
        }
        let mut gen_bytes = vec![0u8; gen_len as usize];
        src.read_exact(&mut gen_bytes)?;
        let generator =
            String::from_utf8(gen_bytes).map_err(|_| bad_data("generator name is not UTF-8"))?;
        let count = read_u64(&mut src)?;
        let declared = (count != COUNT_UNKNOWN).then_some(count);
        let good_pos = src.consumed;
        Ok(Self {
            src,
            header: TraceHeader { universe, shard_map, seed, generator },
            flags,
            declared,
            yielded: 0,
            failed: false,
            good_pos,
        })
    }

    /// The validated header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The header flag word.
    #[must_use]
    pub fn flags(&self) -> u16 {
        self.flags
    }

    /// Whether the stream may carry rebalance records
    /// ([`TRACE_FLAG_REBALANCE`] set).
    #[must_use]
    pub fn rebalance_capable(&self) -> bool {
        self.flags & TRACE_FLAG_REBALANCE != 0
    }

    /// Consumes the reader, keeping only the header.
    #[must_use]
    pub fn into_header(self) -> TraceHeader {
        self.header
    }

    /// Requests still to come, when the header declared a count (`None`
    /// for unfinished, EOF-terminated traces).
    #[must_use]
    pub fn remaining(&self) -> Option<u64> {
        self.declared.map(|d| d.saturating_sub(self.yielded))
    }

    /// Requests yielded so far.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.yielded
    }

    /// Byte offset (from the reader's origin) of the end of the last
    /// record yielded: exactly the bytes consumed parsing the header and
    /// every successful record. A torn or rejected record never advances
    /// it, so after a trailing `UnexpectedEof` this is the end of the good
    /// prefix a torn log recovers to ([`TraceWriter::resume_with_flags`]
    /// appends there after the caller truncates).
    #[must_use]
    pub fn byte_pos(&self) -> u64 {
        self.good_pos
    }

    /// Yields the next body record — request or rebalance — or `None`
    /// at the end of the stream. This is the full view of the body; the
    /// `Iterator` face filters it down to requests.
    ///
    /// A rebalance record may legally trail the final request (a
    /// decision boundary at the exact end of a run), so a declared-count
    /// stream keeps yielding rebalance records — but no more requests —
    /// after the count is exhausted.
    ///
    /// # Errors
    /// `UnexpectedEof` on truncation inside a record (the torn record
    /// never advances [`TraceReader::byte_pos`]); `InvalidData` on
    /// out-of-universe requests, a [`REBALANCE_TAG`] in an unflagged
    /// stream, request records beyond the declared count, and every
    /// corruption [`crate::wire`] rejects.
    pub fn next_event(&mut self) -> io::Result<Option<TraceEvent>> {
        let requests_done = self.declared.is_some_and(|d| self.yielded >= d);
        // The shared record codec ([`crate::wire`]): a clean EOF before
        // the first byte ends the stream; truncation inside a record and
        // overflowing varints are rejected there.
        let Some(value) = crate::wire::decode_varint(&mut self.src)? else {
            if self.declared.is_none() || requests_done {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("trace truncated after {} records", self.yielded),
            ));
        };
        if value == REBALANCE_TAG {
            if self.flags & TRACE_FLAG_REBALANCE == 0 {
                return Err(bad_data(
                    "rebalance record in a stream whose header does not set \
                     TRACE_FLAG_REBALANCE",
                ));
            }
            let record = RebalanceRecord::read_framed(&mut self.src)?;
            self.good_pos = self.src.consumed;
            return Ok(Some(TraceEvent::Rebalance(record)));
        }
        if requests_done {
            return Err(bad_data(format!(
                "request record beyond the declared count of {}",
                self.yielded
            )));
        }
        let req = crate::wire::request_from_varint(value)?;
        if self.header.universe > 0 && req.node.0 >= self.header.universe {
            return Err(bad_data(format!(
                "record {} targets node {} outside the declared universe of {}",
                self.yielded, req.node, self.header.universe
            )));
        }
        self.yielded += 1;
        self.good_pos = self.src.consumed;
        Ok(Some(TraceEvent::Request(req)))
    }

    fn next_request(&mut self) -> io::Result<Option<Request>> {
        loop {
            match self.next_event()? {
                Some(TraceEvent::Request(req)) => return Ok(Some(req)),
                Some(TraceEvent::Rebalance(_)) => {}
                None => return Ok(None),
            }
        }
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Repositions the reader at `byte_pos` (an offset previously reported
    /// by [`TraceReader::byte_pos`], or recorded by a snapshot via
    /// [`TraceWriter::stream_offset`]), declaring that `records_before`
    /// records precede it. Recovery uses this to skip the log prefix a
    /// snapshot already covers and replay only the tail.
    ///
    /// # Errors
    /// Propagates I/O errors from the underlying seek.
    pub fn seek_to(&mut self, byte_pos: u64, records_before: u64) -> io::Result<()> {
        let delta = byte_pos as i64 - self.src.consumed as i64;
        self.src.inner.seek_relative(delta)?;
        self.src.consumed = byte_pos;
        self.good_pos = byte_pos;
        self.yielded = records_before;
        self.failed = false;
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<Request>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_request() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

fn read_u16<R: Read>(src: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    src.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(src: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    src.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(src: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    src.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::cast_possible_truncation,
    reason = "tests index and truncate fixture buffers they just built; a panic here is a failing test, not a service crash"
)]
mod tests {
    use super::*;
    use otc_core::tree::NodeId;

    fn sample() -> Vec<Request> {
        vec![Request::pos(NodeId(0)), Request::neg(NodeId(42)), Request::pos(NodeId(7))]
    }

    #[test]
    fn binary_round_trip() {
        let trace =
            Trace { header: TraceHeader::single_tree(64, 0xFEED, "unit"), requests: sample() };
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn binary_header_survives_empty_body() {
        let header = TraceHeader {
            universe: 0,
            shard_map: vec![3, 4, 5],
            seed: 9,
            generator: String::new(),
        };
        let trace = Trace { header: header.clone(), requests: Vec::new() };
        let back = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(back.header, header);
        assert!(back.requests.is_empty());
    }

    #[test]
    fn small_ids_encode_to_one_byte() {
        let reqs = vec![Request::pos(NodeId(63)); 1000];
        let trace = Trace { header: TraceHeader::single_tree(64, 0, "dense"), requests: reqs };
        let bytes = trace.to_bytes();
        // Header is well under 100 bytes; each record is exactly 1 byte.
        assert!(bytes.len() < 1000 + 100, "encoding is not compact: {} bytes", bytes.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes =
            Trace { header: TraceHeader::single_tree(4, 0, "x"), requests: sample_in(4) }
                .to_bytes();
        bytes[0] = b'X';
        let err = Trace::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "got: {err}");
    }

    fn sample_in(universe: u32) -> Vec<Request> {
        vec![Request::pos(NodeId(0)), Request::neg(NodeId(universe - 1))]
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes =
            Trace { header: TraceHeader::single_tree(4, 0, "x"), requests: sample_in(4) }
                .to_bytes();
        bytes[4] = 0xFF; // version low byte
        let err = Trace::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
    }

    #[test]
    fn truncated_body_rejected() {
        let bytes = Trace { header: TraceHeader::single_tree(4, 0, "x"), requests: sample_in(4) }
            .to_bytes();
        let err = Trace::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn out_of_universe_record_rejected_on_read_and_write() {
        let header = TraceHeader::single_tree(4, 0, "x");
        let mut w = TraceWriter::new(io::Cursor::new(Vec::new()), header.clone()).unwrap();
        assert!(w.push(Request::pos(NodeId(4))).is_err(), "writer must enforce the universe");
        // Forge a trace claiming universe 2 around an id-3 record.
        let forged = Trace {
            header: TraceHeader::single_tree(4, 0, "x"),
            requests: vec![Request::pos(NodeId(3))],
        }
        .to_bytes();
        let mut bytes = forged;
        // universe field sits at offset 8 (magic 4 + version 2 + flags 2).
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = Trace::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("universe"), "got: {err}");
    }

    #[test]
    fn varint_overflow_bits_are_rejected_not_dropped() {
        // A forged 10-byte varint whose final group carries bits beyond
        // u64: [0x81, 0x80×8, 0x02] would decode to 1 if the overflow
        // bits were silently shifted out. It must be rejected.
        let empty = Trace {
            header: TraceHeader {
                universe: 0,
                shard_map: vec![],
                seed: 0,
                generator: String::new(),
            },
            requests: vec![],
        };
        let mut bytes = empty.to_bytes();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&1u64.to_le_bytes()); // claim 1 record
        bytes.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        let err = Trace::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("overflows"), "got: {err}");
        // An 11-byte varint (too many continuation groups) is rejected too.
        let mut bytes2 = empty.to_bytes();
        let n = bytes2.len();
        bytes2[n - 8..].copy_from_slice(&1u64.to_le_bytes());
        bytes2.extend_from_slice(&[0x80; 10]);
        bytes2.push(0x01);
        let err = Trace::from_bytes(&bytes2).unwrap_err();
        assert!(err.to_string().contains("overflows"), "got: {err}");
    }

    #[test]
    fn unfinished_writer_streams_to_eof() {
        // Simulate a crash: serialize, then restore the count field to the
        // sentinel — the reader must fall back to EOF-terminated streaming.
        let trace = Trace { header: TraceHeader::single_tree(64, 1, "crashy"), requests: sample() };
        let mut bytes = trace.to_bytes();
        let count_pos = bytes.len() - 3 /* records: +0, -42, +7 — one byte each */ - 8;
        bytes[count_pos..count_pos + 8].copy_from_slice(&COUNT_UNKNOWN.to_le_bytes());
        let mut r = TraceReader::new(io::Cursor::new(bytes)).unwrap();
        assert_eq!(r.remaining(), None);
        let back: Vec<Request> = (&mut r).map(Result::unwrap).collect();
        assert_eq!(back, trace.requests);
    }

    #[test]
    fn writer_respects_a_non_zero_sink_origin() {
        // Appending a trace after a preamble (or a previous trace) must
        // patch the count inside *this* trace's header, not at an
        // absolute offset near the file start.
        let preamble = b"PREAMBLE-BYTES--";
        let mut sink = io::Cursor::new(Vec::new());
        sink.write_all(preamble).unwrap();
        let mut w = TraceWriter::new(sink, TraceHeader::single_tree(64, 5, "appended")).unwrap();
        for r in sample() {
            w.push(r).unwrap();
        }
        let bytes = w.finish().unwrap().into_inner();
        assert_eq!(&bytes[..preamble.len()], preamble, "the preamble must be untouched");
        let back = Trace::load(io::Cursor::new(&bytes[preamble.len()..])).unwrap();
        assert_eq!(back.requests, sample());
        // The count was really patched: a declared-count reader reports it.
        let mut r = TraceReader::new(io::Cursor::new(&bytes[preamble.len()..])).unwrap();
        assert_eq!(r.remaining(), Some(3));
        assert!(r.all(|x| x.is_ok()));
    }

    #[test]
    fn byte_pos_counts_header_and_records_exactly() {
        let header = TraceHeader::single_tree(1 << 20, 3, "offsets");
        let reqs = vec![
            Request::pos(NodeId(1)),       // 1 byte
            Request::neg(NodeId(100)),     // 2 bytes
            Request::pos(NodeId(100_000)), // 3 bytes
        ];
        let trace = Trace { header: header.clone(), requests: reqs.clone() };
        let bytes = trace.to_bytes();
        let mut r = TraceReader::new(io::Cursor::new(&bytes)).unwrap();
        assert_eq!(r.byte_pos(), header.encoded_len(), "header length is exact");
        let mut expect = header.encoded_len();
        for (req, len) in reqs.iter().zip([1u64, 2, 3]) {
            assert_eq!(r.next().unwrap().unwrap(), *req);
            expect += len;
            assert_eq!(r.byte_pos(), expect);
        }
        assert_eq!(expect, bytes.len() as u64, "whole body accounted for");
        assert_eq!(r.records_read(), 3);
    }

    #[test]
    fn seek_to_replays_only_the_tail() {
        let header = TraceHeader::single_tree(1 << 10, 0, "seek");
        let reqs: Vec<Request> = (0..50u32).map(|i| Request::pos(NodeId(i * 7 % 1000))).collect();
        let bytes = Trace { header, requests: reqs.clone() }.to_bytes();
        // Read a prefix, remember the position.
        let mut r = TraceReader::new(io::Cursor::new(&bytes)).unwrap();
        for _ in 0..20 {
            r.next().unwrap().unwrap();
        }
        let (pos, n) = (r.byte_pos(), r.records_read());
        // A fresh reader seeks straight there and yields exactly the tail.
        let mut r2 = TraceReader::new(io::Cursor::new(&bytes)).unwrap();
        r2.seek_to(pos, n).unwrap();
        let tail: Vec<Request> = (&mut r2).map(Result::unwrap).collect();
        assert_eq!(tail, reqs[20..]);
        assert_eq!(r2.records_read(), 50);
        // Seeking backwards works too.
        r2.seek_to(pos, n).unwrap();
        assert_eq!(r2.next().unwrap().unwrap(), reqs[20]);
    }

    #[test]
    fn sync_exposes_an_eof_terminated_prefix() {
        let header = TraceHeader::single_tree(256, 0, "sync");
        let mut w = TraceWriter::new(io::Cursor::new(Vec::new()), header.clone()).unwrap();
        w.push(Request::pos(NodeId(3))).unwrap();
        w.push(Request::neg(NodeId(200))).unwrap();
        w.sync().unwrap();
        assert_eq!(w.stream_offset(), header.encoded_len() + 1 + 2);
        // A kill -9 here leaves exactly the synced bytes on disk.
        let disk = w.sink.get_ref().clone();
        assert_eq!(disk.len() as u64, w.stream_offset());
        let mut r = TraceReader::new(io::Cursor::new(disk)).unwrap();
        assert_eq!(r.remaining(), None, "count still unknown: stream to EOF");
        let back: Vec<Request> = (&mut r).map(Result::unwrap).collect();
        assert_eq!(back, vec![Request::pos(NodeId(3)), Request::neg(NodeId(200))]);
    }

    #[test]
    fn torn_record_yields_the_good_prefix_and_resume_continues_it() {
        // Crash between a record append and the count patch, mid-record:
        // the log ends with a torn multi-byte varint and the sentinel
        // count. The reader must yield every complete record, report
        // `UnexpectedEof` for the tear, and point `byte_pos` at the end of
        // the good prefix; `resume` then continues the log from there.
        let header = TraceHeader::single_tree(1 << 20, 0, "torn");
        let mut w = TraceWriter::new(io::Cursor::new(Vec::new()), header.clone()).unwrap();
        let good = vec![Request::pos(NodeId(5)), Request::neg(NodeId(70_000))];
        for &r in &good {
            w.push(r).unwrap();
        }
        w.push(Request::pos(NodeId(90_000))).unwrap(); // 3-byte record
        w.sync().unwrap();
        let mut disk = w.sink.into_inner();
        disk.truncate(disk.len() - 2); // tear the last record
        let mut r = TraceReader::new(io::Cursor::new(&disk)).unwrap();
        assert_eq!(r.next().unwrap().unwrap(), good[0]);
        assert_eq!(r.next().unwrap().unwrap(), good[1]);
        let err = r.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.next().is_none(), "a failed reader stays stopped");
        let end = r.byte_pos();
        assert_eq!(end, header.encoded_len() + 1 + 3, "torn bytes not counted");
        let records = r.records_read();
        assert_eq!(records, 2);
        // Truncate to the good prefix and resume appending.
        disk.truncate(end as usize);
        let mut sink = io::Cursor::new(disk);
        sink.seek(SeekFrom::End(0)).unwrap();
        let mut w = TraceWriter::resume_with_flags(sink, header, 0, records, 0).unwrap();
        assert_eq!(w.stream_offset(), end);
        assert_eq!(w.count(), 2);
        w.push(Request::pos(NodeId(8))).unwrap();
        let full = w.finish().unwrap().into_inner();
        let mut r = TraceReader::new(io::Cursor::new(full)).unwrap();
        assert_eq!(r.remaining(), Some(3), "finish patched the resumed count");
        let back: Vec<Request> = (&mut r).map(Result::unwrap).collect();
        assert_eq!(back, vec![good[0], good[1], Request::pos(NodeId(8))]);
    }

    #[test]
    fn resume_restamps_a_finished_count_to_unknown() {
        // A gracefully finished log has a patched count; a resumed writer
        // must immediately re-stamp the sentinel, or a crash after more
        // appends would leave a reader trusting the stale count and
        // silently dropping the new records.
        let header = TraceHeader::single_tree(64, 0, "restamp");
        let trace = Trace { header: header.clone(), requests: vec![Request::pos(NodeId(1))] };
        let bytes = trace.to_bytes();
        let mut sink = io::Cursor::new(bytes);
        sink.seek(SeekFrom::End(0)).unwrap();
        let mut w = TraceWriter::resume_with_flags(sink, header, 0, 1, 0).unwrap();
        w.push(Request::neg(NodeId(2))).unwrap();
        w.sync().unwrap();
        // Crash here (no finish): the reader must stream to EOF and see
        // both records.
        let disk = w.sink.into_inner();
        let mut r = TraceReader::new(io::Cursor::new(disk)).unwrap();
        assert_eq!(r.remaining(), None, "count re-stamped to the sentinel");
        let back: Vec<Request> = (&mut r).map(Result::unwrap).collect();
        assert_eq!(back, vec![Request::pos(NodeId(1)), Request::neg(NodeId(2))]);
    }

    #[test]
    fn resume_rejects_a_sink_shorter_than_the_header() {
        let header = TraceHeader::single_tree(64, 0, "short");
        let sink = io::Cursor::new(vec![0u8; 4]);
        let Err(err) = TraceWriter::resume_with_flags(sink, header, 0, 0, 0) else {
            panic!("resume over a headerless sink must fail")
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    fn sample_record(boundary: u64) -> RebalanceRecord {
        RebalanceRecord {
            boundary,
            epoch: boundary,
            loads: vec![
                crate::rebalance::CellLoad {
                    rounds: 10 * boundary,
                    paid_rounds: boundary,
                    occupancy: 2,
                },
                crate::rebalance::CellLoad { rounds: boundary, paid_rounds: 0, occupancy: 1 },
            ],
            moves: if boundary.is_multiple_of(2) { vec![(0, 1)] } else { Vec::new() },
        }
    }

    #[test]
    fn rebalance_records_interleave_and_round_trip() {
        let header = TraceHeader::single_tree(64, 7, "rebalance");
        let mut w = TraceWriter::with_flags(
            io::Cursor::new(Vec::new()),
            header.clone(),
            TRACE_FLAG_REBALANCE,
        )
        .unwrap();
        w.push(Request::pos(NodeId(1))).unwrap();
        w.push(Request::neg(NodeId(2))).unwrap();
        w.push_rebalance(&sample_record(1)).unwrap();
        w.push(Request::pos(NodeId(3))).unwrap();
        w.push_rebalance(&sample_record(2)).unwrap(); // trails the final request
        assert_eq!(w.count(), 3, "rebalance records never advance the request count");
        let bytes = w.finish().unwrap().into_inner();

        // Event view: the full interleaving, in order, including the
        // record trailing the declared count.
        let mut r = TraceReader::new(io::Cursor::new(&bytes)).unwrap();
        assert!(r.rebalance_capable());
        assert_eq!(r.remaining(), Some(3));
        let mut events = Vec::new();
        while let Some(e) = r.next_event().unwrap() {
            events.push(e);
        }
        assert_eq!(
            events,
            vec![
                TraceEvent::Request(Request::pos(NodeId(1))),
                TraceEvent::Request(Request::neg(NodeId(2))),
                TraceEvent::Rebalance(sample_record(1)),
                TraceEvent::Request(Request::pos(NodeId(3))),
                TraceEvent::Rebalance(sample_record(2)),
            ]
        );
        assert_eq!(r.records_read(), 3);
        assert_eq!(r.byte_pos(), bytes.len() as u64, "every body byte accounted for");

        // Iterator view: the requests-only projection, so Trace::load and
        // every pre-existing consumer see exactly the request stream.
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(
            back.requests,
            vec![Request::pos(NodeId(1)), Request::neg(NodeId(2)), Request::pos(NodeId(3))]
        );
    }

    #[test]
    fn push_rebalance_requires_the_header_flag() {
        let header = TraceHeader::single_tree(8, 0, "unflagged");
        let mut w = TraceWriter::new(io::Cursor::new(Vec::new()), header).unwrap();
        let err = w.push_rebalance(&sample_record(1)).unwrap_err();
        assert!(err.to_string().contains("TRACE_FLAG_REBALANCE"), "got: {err}");
    }

    #[test]
    fn rebalance_tag_in_an_unflagged_stream_is_corruption() {
        let header = TraceHeader::single_tree(8, 0, "forged");
        let mut w = TraceWriter::new(io::Cursor::new(Vec::new()), header).unwrap();
        w.push(Request::pos(NodeId(1))).unwrap();
        w.sync().unwrap();
        let mut bytes = w.sink.into_inner();
        crate::wire::encode_varint(&mut bytes, REBALANCE_TAG);
        sample_record(1).write_framed(&mut bytes);
        let mut r = TraceReader::new(io::Cursor::new(&bytes)).unwrap();
        assert!(!r.rebalance_capable());
        assert_eq!(r.next().unwrap().unwrap(), Request::pos(NodeId(1)));
        let err = r.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("TRACE_FLAG_REBALANCE"), "got: {err}");
    }

    #[test]
    fn unknown_flag_bits_still_rejected_both_ways() {
        let header = TraceHeader::single_tree(8, 0, "flags");
        let Err(err) = TraceWriter::with_flags(io::Cursor::new(Vec::new()), header.clone(), 0x4)
        else {
            panic!("unknown writer flags must be rejected")
        };
        assert!(err.to_string().contains("unknown trace flags"), "got: {err}");
        let mut bytes = Trace { header, requests: Vec::new() }.to_bytes();
        bytes[6..8].copy_from_slice(&0x8002u16.to_le_bytes());
        let err = Trace::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("reserved flags"), "got: {err}");
    }

    #[test]
    fn torn_rebalance_record_is_excluded_from_the_good_prefix() {
        let header = TraceHeader::single_tree(64, 0, "torn-rebalance");
        let mut w = TraceWriter::with_flags(
            io::Cursor::new(Vec::new()),
            header.clone(),
            TRACE_FLAG_REBALANCE,
        )
        .unwrap();
        w.push(Request::pos(NodeId(5))).unwrap();
        w.sync().unwrap();
        let good_end = w.stream_offset();
        w.push_rebalance(&sample_record(1)).unwrap();
        w.sync().unwrap();
        let mut disk = w.sink.into_inner();
        disk.truncate(disk.len() - 3); // tear inside the record payload
        let mut r = TraceReader::new(io::Cursor::new(&disk)).unwrap();
        assert_eq!(r.next_event().unwrap(), Some(TraceEvent::Request(Request::pos(NodeId(5)))));
        let err = r.next_event().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(r.byte_pos(), good_end, "torn record bytes never enter the good prefix");
        // And a complete record DOES advance the good prefix, so resume
        // after a crash lands past it, not inside it.
        let mut w =
            TraceWriter::with_flags(io::Cursor::new(Vec::new()), header, TRACE_FLAG_REBALANCE)
                .unwrap();
        w.push(Request::pos(NodeId(5))).unwrap();
        w.push_rebalance(&sample_record(1)).unwrap();
        w.sync().unwrap();
        let end = w.stream_offset();
        let disk = w.sink.into_inner();
        assert_eq!(disk.len() as u64, end, "stream_offset covers rebalance bytes");
        let mut r = TraceReader::new(io::Cursor::new(&disk)).unwrap();
        while let Some(e) = r.next_event().unwrap() {
            drop(e);
        }
        assert_eq!(r.byte_pos(), end);
    }

    #[test]
    fn resume_with_flags_keeps_accepting_rebalance_records() {
        let header = TraceHeader::single_tree(64, 0, "resume-rebalance");
        let mut w = TraceWriter::with_flags(
            io::Cursor::new(Vec::new()),
            header.clone(),
            TRACE_FLAG_REBALANCE,
        )
        .unwrap();
        w.push(Request::pos(NodeId(1))).unwrap();
        w.push_rebalance(&sample_record(1)).unwrap();
        w.sync().unwrap();
        let mut sink = w.sink;
        sink.seek(SeekFrom::End(0)).unwrap();
        let mut w =
            TraceWriter::resume_with_flags(sink, header, 0, 1, TRACE_FLAG_REBALANCE).unwrap();
        w.push(Request::neg(NodeId(2))).unwrap();
        w.push_rebalance(&sample_record(2)).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        let mut r = TraceReader::new(io::Cursor::new(&bytes)).unwrap();
        let mut events = Vec::new();
        while let Some(e) = r.next_event().unwrap() {
            events.push(e);
        }
        assert_eq!(
            events,
            vec![
                TraceEvent::Request(Request::pos(NodeId(1))),
                TraceEvent::Rebalance(sample_record(1)),
                TraceEvent::Request(Request::neg(NodeId(2))),
                TraceEvent::Rebalance(sample_record(2)),
            ]
        );
    }
}
