//! `OTCS` — versioned binary engine snapshots, and crash recovery.
//!
//! A snapshot captures **everything** a [`crate::engine::ShardedEngine`]
//! (or a set of detached [`crate::worker::ShardWorker`]s) needs to resume
//! bit-identically: per shard, the policy's opaque state blob
//! ([`otc_core::policy::CachePolicy::save_state`]), the verified driver
//! (mirror cache, open field/period/phase instrumentation), the
//! accumulating [`Report`], and the telemetry windows — plus the byte
//! offset and record count of the OTCT trace log the snapshot corresponds
//! to. Recovery is event sourcing: restore the snapshot, seek the trace
//! to [`LogPosition`], and replay the tail; determinism invariant #6
//! (DESIGN.md) makes the result equal the uninterrupted run.
//!
//! # Format (`OTCS` v2)
//!
//! All integers little-endian. The file is strictly sized — parsing
//! rejects any byte added, removed, or changed:
//!
//! ```text
//! magic "OTCS" (4) | version u16 = 2 | flags u16 = 0
//! meta section   : u32 length prefix, then
//!     alpha u64 | instrument u8 | telemetry u8
//!     audit_chunk u64 (u64::MAX = none) | global_len u64
//!     num_shards u32 | log_offset u64 | log_records u64
//! per-shard section × num_shards : u32 length prefix, then
//!     shard u32 | tree_len u64 | tree_digest u64 (FNV-1a, see below)
//!     policy_name (u16 len + bytes) | round u64
//!     report   : name (u16 len + bytes), 11 u64 counters,
//!                fields/periods as 0/1-tagged optionals, phases vec
//!     driver   : cache bitmap (tree_len bits), pending (tree_len u64),
//!                fields, periods, open phase, phase_pout u64,
//!                phase_pin u64, buf_high_water u64
//!     policy blob : u32 len + bytes (opaque, policy-defined)
//!     telemetry : window base (8 u64), closed windows vec
//! total_len u64   (whole file length, trailer included)
//! checksum u64    (FNV-1a 64 over all preceding bytes)
//! ```
//!
//! [`EngineSnapshot::parse`] checks, in order: magic and version, that
//! the byte count equals the stored `total_len` (every truncation or
//! extension is rejected deterministically), the FNV-1a checksum (any
//! single-byte substitution provably changes it: the xor-then-multiply
//! step is injective for a fixed suffix), and finally the strict
//! structure — every length must be exact, every flag 0 or 1, every
//! vector count bounded by the bytes that remain *before* any allocation.
//! A rejected snapshot returns a typed [`SnapshotError`]; nothing is
//! partially restored.
//!
//! Version 1 carried one more meta byte, `validate`, after α; this build
//! refuses a version 1 image with [`SnapshotError::BadVersion`].

// Codec modules hold the panic-freedom line hardest: a narrowing cast
// or an out-of-bounds index here turns a corrupt snapshot into a wrong
// answer or a crash. CI runs clippy with -D warnings, so these are
// hard gates for this file.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::indexing_slicing)]

use otc_core::cache::CacheSet;
use otc_core::tree::Tree;

use crate::engine::{EngineConfig, ShardState, WindowBase};
use crate::report::{FieldStats, PeriodStats, PhaseStats, Report};
use crate::telemetry::WindowRecord;

/// The four magic bytes every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"OTCS";
/// The format version this build writes and accepts.
pub const SNAPSHOT_VERSION: u16 = 2;
/// Upper bound on `num_shards` accepted from a snapshot (same cap as the
/// OTCT trace header).
pub const MAX_SNAPSHOT_SHARDS: u32 = 1 << 20;
/// Shortest byte string that could possibly be a snapshot (header plus
/// trailer); anything shorter is rejected as truncated.
const MIN_SNAPSHOT_LEN: usize = 4 + 2 + 2 + 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes` — the snapshot trailer checksum. Exposed so
/// tests (and external tooling) can recompute it.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Copies up to `N` bytes of `b` into a zero-padded array — the
/// panic-free spelling of `b.try_into().expect("N bytes")`. Every caller
/// has already bounds-checked the slice (via `Cur::take` or an explicit
/// length guard), so the zero-padding never actually engages; it exists
/// so a decode path cannot panic even if a guard is wrong.
fn le_bytes<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    a
}

/// Overwrites the 4-byte length placeholder at `at` with `value`. The
/// slot always exists (the caller wrote the placeholder moments ago);
/// if it somehow did not, the placeholder survives and parse rejects
/// the length mismatch — still no panic on the write path.
fn patch_u32(out: &mut [u8], at: usize, value: u32) {
    if let Some(slot) = out.get_mut(at..at + 4) {
        slot.copy_from_slice(&value.to_le_bytes());
    }
}

/// FNV-1a 64 digest of a tree's parent array (`u32::MAX` for the root),
/// stored per shard section so a snapshot can never be restored onto a
/// different tree that happens to have the same size.
#[must_use]
pub fn tree_digest(tree: &Tree) -> u64 {
    let mut h = FNV_OFFSET;
    for v in tree.nodes() {
        let p = tree.parent(v).map_or(u32::MAX, |v| v.0);
        for b in p.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Why a snapshot was rejected. Every parse failure is one of these —
/// never a panic, never a partial restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the `OTCS` magic.
    BadMagic,
    /// The format version is not one this build understands.
    BadVersion(u16),
    /// Shorter than the smallest possible snapshot.
    Truncated {
        /// The byte count that was offered.
        len: usize,
    },
    /// The stored total length disagrees with the byte count — the file
    /// was truncated or extended.
    LengthMismatch {
        /// Length recorded in the trailer.
        stored: u64,
        /// Length of the bytes offered.
        actual: u64,
    },
    /// The trailer checksum does not match the body — corruption.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// Structurally invalid (with what and where).
    Malformed(String),
    /// Parsed fine, but describes a different engine (configuration,
    /// forest, or policy) than the one it is being restored into.
    Incompatible(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not an OTCS snapshot (bad magic)"),
            Self::BadVersion(v) => write!(f, "unsupported OTCS version {v}"),
            Self::Truncated { len } => {
                write!(f, "snapshot truncated: {len} bytes is shorter than any valid snapshot")
            }
            Self::LengthMismatch { stored, actual } => write!(
                f,
                "snapshot length mismatch: trailer declares {stored} bytes but {actual} were read"
            ),
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: trailer holds {stored:#018x}, body hashes to {computed:#018x}"
            ),
            Self::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            Self::Incompatible(m) => write!(f, "incompatible snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Where in the OTCT trace log a snapshot was taken: replaying the log
/// from `offset` (skipping `records` records) on top of the restored
/// state reproduces the pre-crash state exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogPosition {
    /// Absolute byte offset into the trace file (end of the last record
    /// the snapshot covers).
    pub offset: u64,
    /// Records the snapshot covers (the replay resumes after this many).
    pub records: u64,
}

/// The snapshot's engine-level metadata: the configuration knobs that
/// affect results, the forest shape, and the log position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The per-node reorganisation cost α.
    pub alpha: u64,
    /// Whether fields/periods/phases instrumentation was on.
    pub instrument: bool,
    /// Whether windowed telemetry was on.
    pub telemetry: bool,
    /// The chunk/audit cadence (`None` = unchunked).
    pub audit_chunk: Option<u64>,
    /// Size of the global node-id space.
    pub global_len: u64,
    /// Number of shards (and per-shard sections).
    pub num_shards: u32,
    /// The trace-log position this snapshot corresponds to.
    pub log: LogPosition,
}

impl SnapshotMeta {
    /// The metadata describing `cfg` over a forest of `num_shards` shards
    /// and `global_len` global nodes, at log position `log`. (`threads`
    /// is deliberately absent: thread count never affects results.)
    #[must_use]
    pub fn of(cfg: &EngineConfig, global_len: usize, num_shards: u32, log: LogPosition) -> Self {
        Self {
            alpha: cfg.alpha,
            instrument: cfg.instrument,
            telemetry: cfg.telemetry,
            audit_chunk: cfg.audit_chunk.map(|c| c as u64),
            global_len: global_len as u64,
            num_shards,
            log,
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian writers.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), String> {
    let len = u16::try_from(s.len()).map_err(|_| format!("string too long to snapshot: {s:?}"))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_field_stats(out: &mut Vec<u8>, f: &FieldStats) {
    put_u64(out, f.positive_fields);
    put_u64(out, f.negative_fields);
    put_u64(out, f.total_size);
    put_u64(out, f.total_requests);
    put_u64(out, f.saturation_violations);
    put_u64(out, f.field_sizes.len() as u64);
    for &s in &f.field_sizes {
        put_u64(out, s);
    }
    put_u64(out, f.open_field_requests);
}

fn put_period_stats(out: &mut Vec<u8>, p: &PeriodStats) {
    put_u64(out, p.pout);
    put_u64(out, p.pin);
    put_u64(out, p.full_out);
    put_u64(out, p.full_in);
    put_u64(out, p.per_phase_balance.len() as u64);
    for &(pout, pin, k) in &p.per_phase_balance {
        put_u64(out, pout);
        put_u64(out, pin);
        put_u64(out, k as u64);
    }
}

fn put_phase(out: &mut Vec<u8>, p: &PhaseStats) {
    put_u64(out, p.rounds);
    put_u64(out, p.k_p as u64);
    put_u64(out, p.fields_size);
    put_u64(out, p.open_requests);
    put_u64(out, p.cost.service);
    put_u64(out, p.cost.reorg);
    out.push(u8::from(p.finished));
}

fn put_report(out: &mut Vec<u8>, r: &Report) -> Result<(), String> {
    put_str(out, &r.name)?;
    put_u64(out, r.cost.service);
    put_u64(out, r.cost.reorg);
    put_u64(out, r.rounds);
    put_u64(out, r.paid_rounds);
    put_u64(out, r.fetch_events);
    put_u64(out, r.evict_events);
    put_u64(out, r.flush_events);
    put_u64(out, r.nodes_fetched);
    put_u64(out, r.nodes_evicted);
    put_u64(out, r.nodes_flushed);
    put_u64(out, r.peak_cache as u64);
    match &r.fields {
        None => out.push(0),
        Some(f) => {
            out.push(1);
            put_field_stats(out, f);
        }
    }
    match &r.periods {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_period_stats(out, p);
        }
    }
    put_u64(out, r.phases.len() as u64);
    for p in &r.phases {
        put_phase(out, p);
    }
    Ok(())
}

fn put_window(out: &mut Vec<u8>, w: &WindowRecord) {
    put_u32(out, w.shard);
    put_u64(out, w.window);
    put_u64(out, w.start_round);
    put_u64(out, w.rounds);
    put_u64(out, w.paid_rounds);
    put_u64(out, w.fetch_events);
    put_u64(out, w.evict_events);
    put_u64(out, w.flush_events);
    put_u64(out, w.nodes_fetched);
    put_u64(out, w.nodes_evicted);
    put_u64(out, w.nodes_flushed);
    put_u64(out, w.occupancy as u64);
    put_u64(out, w.buf_high_water as u64);
    out.push(u8::from(w.partial));
}

/// Writes the snapshot preamble (magic, version, flags) and the
/// length-prefixed meta section. Follow with one
/// [`crate::worker::ShardWorker::snapshot_section`] per shard in shard
/// order, then [`finish_snapshot`].
pub fn write_header(meta: &SnapshotMeta, out: &mut Vec<u8>) {
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u16(out, SNAPSHOT_VERSION);
    put_u16(out, 0); // flags
    let at = out.len();
    put_u32(out, 0); // patched below
    put_u64(out, meta.alpha);
    out.push(u8::from(meta.instrument));
    out.push(u8::from(meta.telemetry));
    put_u64(out, meta.audit_chunk.unwrap_or(u64::MAX));
    put_u64(out, meta.global_len);
    put_u32(out, meta.num_shards);
    put_u64(out, meta.log.offset);
    put_u64(out, meta.log.records);
    // Saturation is unreachable (the meta section is ~50 fixed bytes) but
    // if it ever engaged, parse would reject the length mismatch — a
    // typed error instead of a silent truncation.
    let len = u32::try_from(out.len() - at - 4).unwrap_or(u32::MAX);
    patch_u32(out, at, len);
}

/// Appends the `total_len` + FNV-1a checksum trailer, completing a
/// snapshot started with [`write_header`].
pub fn finish_snapshot(out: &mut Vec<u8>) {
    let total = out.len() as u64 + 16;
    put_u64(out, total);
    let checksum = fnv1a(out);
    put_u64(out, checksum);
}

/// Serializes one shard's length-prefixed section onto `out`.
pub(crate) fn write_section(
    shard: u32,
    state: &ShardState<'_>,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let at = out.len();
    put_u32(out, 0); // patched below
    let tree = state.tree.get();
    put_u32(out, shard);
    put_u64(out, tree.len() as u64);
    put_u64(out, tree_digest(tree));
    put_str(out, state.policy.name())?;
    put_u64(out, state.round as u64);
    put_report(out, &state.report)?;
    // Driver.
    state.driver.mirror.write_bitmap(out);
    for &p in &state.driver.pending {
        put_u64(out, p);
    }
    put_field_stats(out, &state.driver.fields);
    put_period_stats(out, &state.driver.periods);
    put_phase(out, &state.driver.phase);
    put_u64(out, state.driver.phase_pout);
    put_u64(out, state.driver.phase_pin);
    put_u64(out, state.driver.buf_high_water as u64);
    // Policy blob.
    let blob_at = out.len();
    put_u32(out, 0); // patched below
    state.policy.save_state(out)?;
    let blob_len = u32::try_from(out.len() - blob_at - 4)
        .map_err(|_| "policy state blob exceeds 4 GiB".to_string())?;
    patch_u32(out, blob_at, blob_len);
    // Telemetry.
    let b = state.win_base;
    put_u64(out, b.rounds);
    put_u64(out, b.paid_rounds);
    put_u64(out, b.fetch_events);
    put_u64(out, b.evict_events);
    put_u64(out, b.flush_events);
    put_u64(out, b.nodes_fetched);
    put_u64(out, b.nodes_evicted);
    put_u64(out, b.nodes_flushed);
    put_u64(out, state.windows.len() as u64);
    for w in &state.windows {
        put_window(out, w);
    }
    let len = u32::try_from(out.len() - at - 4)
        .map_err(|_| format!("shard {shard} section exceeds 4 GiB"))?;
    patch_u32(out, at, len);
    Ok(())
}

// ---------------------------------------------------------------------------
// Strict parsing.

struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let slice = self.pos.checked_add(n).and_then(|end| self.bytes.get(self.pos..end));
        let Some(s) = slice else {
            return Err(SnapshotError::Malformed(format!(
                "{what}: need {n} bytes but only {} remain",
                self.remaining()
            )));
        };
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?.first().copied().unwrap_or(0))
    }

    fn flag(&mut self, what: &str) -> Result<bool, SnapshotError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => {
                Err(SnapshotError::Malformed(format!("{what}: flag byte must be 0 or 1, got {v}")))
            }
        }
    }

    fn u16(&mut self, what: &str) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(le_bytes(self.take(2, what)?)))
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(le_bytes(self.take(4, what)?)))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(le_bytes(self.take(8, what)?)))
    }

    fn str16(&mut self, what: &str) -> Result<String, SnapshotError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed(format!("{what}: not valid UTF-8")))
    }

    /// Asserts the cursor consumed its slice exactly.
    fn done(&self, what: &str) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Reads a `u64` element count and bounds it by the bytes that
    /// remain (at `min_size` bytes per element) **before** any
    /// allocation, so corrupt counts can never trigger huge reserves.
    fn count(&mut self, min_size: usize, what: &str) -> Result<usize, SnapshotError> {
        let count = self.u64(what)?;
        let bound = self.remaining() / min_size;
        let bounded = usize::try_from(count).ok().filter(|&c| c <= bound);
        let Some(count) = bounded else {
            return Err(SnapshotError::Malformed(format!(
                "{what}: count {count} exceeds the bytes that remain"
            )));
        };
        Ok(count)
    }
}

fn parse_field_stats(cur: &mut Cur<'_>) -> Result<FieldStats, SnapshotError> {
    let positive_fields = cur.u64("field stats")?;
    let negative_fields = cur.u64("field stats")?;
    let total_size = cur.u64("field stats")?;
    let total_requests = cur.u64("field stats")?;
    let saturation_violations = cur.u64("field stats")?;
    let n = cur.count(8, "field sizes")?;
    let mut field_sizes = Vec::with_capacity(n);
    for _ in 0..n {
        field_sizes.push(cur.u64("field sizes")?);
    }
    let open_field_requests = cur.u64("field stats")?;
    Ok(FieldStats {
        positive_fields,
        negative_fields,
        total_size,
        total_requests,
        saturation_violations,
        field_sizes,
        open_field_requests,
    })
}

fn parse_period_stats(cur: &mut Cur<'_>) -> Result<PeriodStats, SnapshotError> {
    let pout = cur.u64("period stats")?;
    let pin = cur.u64("period stats")?;
    let full_out = cur.u64("period stats")?;
    let full_in = cur.u64("period stats")?;
    let n = cur.count(24, "per-phase balance")?;
    let mut per_phase_balance = Vec::with_capacity(n);
    for _ in 0..n {
        let a = cur.u64("per-phase balance")?;
        let b = cur.u64("per-phase balance")?;
        let k = usize::try_from(cur.u64("per-phase balance")?)
            .map_err(|_| SnapshotError::Malformed("per-phase balance: k_p overflow".into()))?;
        per_phase_balance.push((a, b, k));
    }
    Ok(PeriodStats { pout, pin, full_out, full_in, per_phase_balance })
}

fn parse_phase(cur: &mut Cur<'_>) -> Result<PhaseStats, SnapshotError> {
    let rounds = cur.u64("phase")?;
    let k_p = usize::try_from(cur.u64("phase")?)
        .map_err(|_| SnapshotError::Malformed("phase: k_p overflow".into()))?;
    let fields_size = cur.u64("phase")?;
    let open_requests = cur.u64("phase")?;
    let mut cost = otc_core::request::Cost::zero();
    cost.service = cur.u64("phase")?;
    cost.reorg = cur.u64("phase")?;
    let finished = cur.flag("phase finished")?;
    Ok(PhaseStats { rounds, k_p, fields_size, open_requests, cost, finished })
}

fn parse_report(cur: &mut Cur<'_>) -> Result<Report, SnapshotError> {
    let name = cur.str16("report name")?;
    let mut r = Report { name, ..Report::default() };
    r.cost.service = cur.u64("report")?;
    r.cost.reorg = cur.u64("report")?;
    r.rounds = cur.u64("report")?;
    r.paid_rounds = cur.u64("report")?;
    r.fetch_events = cur.u64("report")?;
    r.evict_events = cur.u64("report")?;
    r.flush_events = cur.u64("report")?;
    r.nodes_fetched = cur.u64("report")?;
    r.nodes_evicted = cur.u64("report")?;
    r.nodes_flushed = cur.u64("report")?;
    r.peak_cache = usize::try_from(cur.u64("report")?)
        .map_err(|_| SnapshotError::Malformed("report: peak_cache overflow".into()))?;
    r.fields = if cur.flag("report fields tag")? { Some(parse_field_stats(cur)?) } else { None };
    r.periods = if cur.flag("report periods tag")? { Some(parse_period_stats(cur)?) } else { None };
    let n = cur.count(49, "report phases")?;
    r.phases = Vec::with_capacity(n);
    for _ in 0..n {
        r.phases.push(parse_phase(cur)?);
    }
    Ok(r)
}

fn parse_window(cur: &mut Cur<'_>) -> Result<WindowRecord, SnapshotError> {
    let shard = cur.u32("window")?;
    let window = cur.u64("window")?;
    let start_round = cur.u64("window")?;
    let rounds = cur.u64("window")?;
    let paid_rounds = cur.u64("window")?;
    let fetch_events = cur.u64("window")?;
    let evict_events = cur.u64("window")?;
    let flush_events = cur.u64("window")?;
    let nodes_fetched = cur.u64("window")?;
    let nodes_evicted = cur.u64("window")?;
    let nodes_flushed = cur.u64("window")?;
    let occupancy = usize::try_from(cur.u64("window")?)
        .map_err(|_| SnapshotError::Malformed("window: occupancy overflow".into()))?;
    let buf_high_water = usize::try_from(cur.u64("window")?)
        .map_err(|_| SnapshotError::Malformed("window: buf_high_water overflow".into()))?;
    let partial = cur.flag("window partial")?;
    Ok(WindowRecord {
        shard,
        window,
        start_round,
        rounds,
        paid_rounds,
        fetch_events,
        evict_events,
        flush_events,
        nodes_fetched,
        nodes_evicted,
        nodes_flushed,
        occupancy,
        buf_high_water,
        partial,
    })
}

fn parse_meta(bytes: &[u8]) -> Result<SnapshotMeta, SnapshotError> {
    let mut cur = Cur::new(bytes);
    let alpha = cur.u64("meta alpha")?;
    let instrument = cur.flag("meta instrument")?;
    let telemetry = cur.flag("meta telemetry")?;
    let audit_chunk = match cur.u64("meta audit chunk")? {
        u64::MAX => None,
        c => Some(c),
    };
    let global_len = cur.u64("meta global length")?;
    let num_shards = cur.u32("meta shard count")?;
    if num_shards == 0 || num_shards > MAX_SNAPSHOT_SHARDS {
        return Err(SnapshotError::Malformed(format!(
            "meta shard count {num_shards} out of range [1, {MAX_SNAPSHOT_SHARDS}]"
        )));
    }
    let offset = cur.u64("meta log offset")?;
    let records = cur.u64("meta log records")?;
    cur.done("meta section")?;
    Ok(SnapshotMeta {
        alpha,
        instrument,
        telemetry,
        audit_chunk,
        global_len,
        num_shards,
        log: LogPosition { offset, records },
    })
}

/// One shard's slice of a parsed [`EngineSnapshot`].
#[derive(Debug, Clone)]
pub struct ShardSection {
    /// Shard id recorded in the section (equals its index).
    pub shard: u32,
    /// Node count of the shard tree the section was taken over.
    pub tree_len: u64,
    /// [`tree_digest`] of that shard tree.
    pub tree_digest: u64,
    /// Name of the policy whose state the section holds.
    pub policy_name: String,
    /// Rounds the shard had processed at snapshot time.
    pub round: u64,
    /// The shard's accumulating report at snapshot time.
    pub report: Report,
    /// The policy's opaque state blob
    /// ([`otc_core::policy::CachePolicy::save_state`]).
    pub policy_blob: Vec<u8>,
    /// Closed telemetry windows at snapshot time.
    pub windows: Vec<WindowRecord>,
    pub(crate) mirror: CacheSet,
    pub(crate) pending: Vec<u64>,
    pub(crate) fields: FieldStats,
    pub(crate) periods: PeriodStats,
    pub(crate) phase: PhaseStats,
    pub(crate) phase_pout: u64,
    pub(crate) phase_pin: u64,
    pub(crate) buf_high_water: usize,
    pub(crate) win_base: WindowBase,
}

fn parse_section(bytes: &[u8]) -> Result<ShardSection, SnapshotError> {
    let mut cur = Cur::new(bytes);
    let shard = cur.u32("section shard id")?;
    let tree_len = cur.u64("section tree length")?;
    let in_range = usize::try_from(tree_len).ok().filter(|_| tree_len <= u64::from(u32::MAX));
    let Some(n) = in_range else {
        return Err(SnapshotError::Malformed(format!(
            "section tree length {tree_len} exceeds the node-id space"
        )));
    };
    let tree_digest = cur.u64("section tree digest")?;
    let policy_name = cur.str16("section policy name")?;
    let round = cur.u64("section round")?;
    let report = parse_report(&mut cur)?;
    let bits = cur.take(CacheSet::bitmap_len(n), "cache bitmap")?;
    let mirror = CacheSet::from_bitmap(n, bits).map_err(SnapshotError::Malformed)?;
    if cur.remaining() / 8 < n {
        return Err(SnapshotError::Malformed(format!(
            "pending counters: need {n} u64s but only {} bytes remain",
            cur.remaining()
        )));
    }
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(cur.u64("pending counters")?);
    }
    let fields = parse_field_stats(&mut cur)?;
    let periods = parse_period_stats(&mut cur)?;
    let phase = parse_phase(&mut cur)?;
    let phase_pout = cur.u64("phase pout")?;
    let phase_pin = cur.u64("phase pin")?;
    let buf_high_water = usize::try_from(cur.u64("buf high water")?)
        .map_err(|_| SnapshotError::Malformed("buf high water overflow".into()))?;
    let blob_len = cur.u32("policy blob length")? as usize;
    let policy_blob = cur.take(blob_len, "policy blob")?.to_vec();
    let win_base = WindowBase {
        rounds: cur.u64("window base")?,
        paid_rounds: cur.u64("window base")?,
        fetch_events: cur.u64("window base")?,
        evict_events: cur.u64("window base")?,
        flush_events: cur.u64("window base")?,
        nodes_fetched: cur.u64("window base")?,
        nodes_evicted: cur.u64("window base")?,
        nodes_flushed: cur.u64("window base")?,
    };
    let wn = cur.count(101, "telemetry windows")?;
    let mut windows = Vec::with_capacity(wn);
    for _ in 0..wn {
        windows.push(parse_window(&mut cur)?);
    }
    cur.done("shard section")?;
    Ok(ShardSection {
        shard,
        tree_len,
        tree_digest,
        policy_name,
        round,
        report,
        policy_blob,
        windows,
        mirror,
        pending,
        fields,
        periods,
        phase,
        phase_pout,
        phase_pin,
        buf_high_water,
        win_base,
    })
}

/// A fully parsed, structurally validated snapshot, ready to be restored
/// into an engine (or into detached workers, section by section).
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Engine-level metadata (configuration, forest shape, log position).
    pub meta: SnapshotMeta,
    /// Per-shard sections, in shard order (one per `meta.num_shards`).
    pub sections: Vec<ShardSection>,
}

impl EngineSnapshot {
    /// Parses and validates a snapshot. See the module docs for the
    /// validation order; any deviation — truncation, extension, a single
    /// flipped byte, a structural inconsistency — yields a typed
    /// [`SnapshotError`].
    ///
    /// # Errors
    /// A [`SnapshotError`] describing the first rejection.
    pub fn parse(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.get(..4) != Some(SNAPSHOT_MAGIC.as_slice()) {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < MIN_SNAPSHOT_LEN {
            return Err(SnapshotError::Truncated { len: bytes.len() });
        }
        // All ranges below are in bounds once len >= MIN_SNAPSHOT_LEN; the
        // `.get(..).unwrap_or_default()` form keeps the parser panic-free
        // by construction (a missed range reads as zeros and is rejected
        // by the length/checksum validation, never a crash).
        let field = |range: std::ops::Range<usize>| bytes.get(range).unwrap_or_default();
        let version = u16::from_le_bytes(le_bytes(field(4..6)));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let flags = u16::from_le_bytes(le_bytes(field(6..8)));
        if flags != 0 {
            return Err(SnapshotError::Malformed(format!("unsupported flags {flags:#06x}")));
        }
        let body_end = bytes.len() - 16;
        let stored_len = u64::from_le_bytes(le_bytes(field(body_end..body_end + 8)));
        if stored_len != bytes.len() as u64 {
            return Err(SnapshotError::LengthMismatch {
                stored: stored_len,
                actual: bytes.len() as u64,
            });
        }
        let stored_ck = u64::from_le_bytes(le_bytes(field(body_end + 8..bytes.len())));
        let computed = fnv1a(field(0..body_end + 8));
        if stored_ck != computed {
            return Err(SnapshotError::ChecksumMismatch { stored: stored_ck, computed });
        }
        let mut cur = Cur::new(field(8..body_end));
        let meta_len = cur.u32("meta length")? as usize;
        let meta = parse_meta(cur.take(meta_len, "meta section")?)?;
        let mut sections = Vec::with_capacity(meta.num_shards as usize);
        for s in 0..meta.num_shards {
            let sec_len = cur.u32("section length")? as usize;
            let section = parse_section(cur.take(sec_len, "shard section")?)?;
            if section.shard != s {
                return Err(SnapshotError::Malformed(format!(
                    "section {s} records shard id {}",
                    section.shard
                )));
            }
            sections.push(section);
        }
        cur.done("snapshot body")?;
        Ok(Self { meta, sections })
    }

    /// Checks that this snapshot describes an engine shaped like
    /// `(cfg, global_len, num_shards)` — same result-affecting
    /// configuration, same forest shape — without touching any state.
    ///
    /// # Errors
    /// [`SnapshotError::Incompatible`] naming the first mismatch.
    pub fn check_compatible(
        &self,
        cfg: &EngineConfig,
        global_len: usize,
        num_shards: usize,
    ) -> Result<(), SnapshotError> {
        let m = &self.meta;
        // A shard count beyond u32 cannot describe any real engine; the
        // saturated value then fails the num_shards comparison below with
        // a typed Incompatible error rather than truncating silently.
        let want =
            SnapshotMeta::of(cfg, global_len, u32::try_from(num_shards).unwrap_or(u32::MAX), m.log);
        if m.alpha != want.alpha {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot has alpha {} but the engine runs alpha {}",
                m.alpha, want.alpha
            )));
        }
        if (m.instrument, m.telemetry, m.audit_chunk)
            != (want.instrument, want.telemetry, want.audit_chunk)
        {
            return Err(SnapshotError::Incompatible(
                "snapshot was taken under different instrument/telemetry/audit settings".into(),
            ));
        }
        if m.global_len != want.global_len {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot covers {} global nodes but the forest has {}",
                m.global_len, want.global_len
            )));
        }
        if m.num_shards != want.num_shards {
            return Err(SnapshotError::Incompatible(format!(
                "snapshot has {} shards but the engine has {}",
                m.num_shards, want.num_shards
            )));
        }
        Ok(())
    }
}

/// The identity checks of a section against a shard — tree size, tree
/// digest, policy name. Pure, so a refusal leaves the shard exactly as
/// it was.
pub(crate) fn precheck_section(sec: &ShardSection, state: &ShardState<'_>) -> Result<(), String> {
    let tree = state.tree.get();
    if sec.tree_len != tree.len() as u64 {
        return Err(format!(
            "snapshot section covers a tree of {} nodes but shard {} has {}",
            sec.tree_len,
            sec.shard,
            tree.len()
        ));
    }
    if sec.tree_digest != tree_digest(tree) {
        return Err(format!(
            "snapshot section for shard {} was taken over a different tree (digest mismatch)",
            sec.shard
        ));
    }
    if sec.policy_name != state.policy.name() {
        return Err(format!(
            "snapshot section holds '{}' state but shard {} runs '{}'",
            sec.policy_name,
            sec.shard,
            state.policy.name()
        ));
    }
    Ok(())
}

/// Restores one parsed section into a shard's live state.
///
/// Validation order keeps this safe: [`precheck_section`] must have
/// accepted `sec` for `state` first
/// ([`crate::engine::ShardedEngine::restore_snapshot`] prechecks every
/// shard before restoring any), and the (internally atomic)
/// [`otc_core::policy::CachePolicy::restore_state`] runs **before** any
/// shard state is touched, so those failures leave the shard exactly as
/// it was. The two checks that can only run after the policy restore —
/// restored mirror ≡ restored policy cache, and the driver adopting that
/// cache (subforest and capacity, the base case of its per-changeset
/// induction) — poison the shard on failure rather than leave a split
/// state.
pub(crate) fn restore_section_into(
    sec: &ShardSection,
    state: &mut ShardState<'_>,
) -> Result<(), String> {
    state.policy.restore_state(&sec.policy_blob)?;
    if sec.mirror != *state.policy.cache() {
        return Err(state.poison(format!(
            "shard {}: snapshot cache bitmap diverges from the restored policy's cache",
            sec.shard
        )));
    }
    let capacity = state.policy.capacity();
    if let Err(e) = state.driver.adopt_cache(state.tree.get(), &sec.mirror, capacity) {
        return Err(state.poison(format!("shard {}: {e}", sec.shard)));
    }
    let d = &mut state.driver;
    d.pending.clear();
    d.pending.extend_from_slice(&sec.pending);
    d.fields = sec.fields.clone();
    d.periods = sec.periods.clone();
    d.phase = sec.phase.clone();
    d.phase_pout = sec.phase_pout;
    d.phase_pin = sec.phase_pin;
    d.buf_high_water = sec.buf_high_water;
    state.report = sec.report.clone();
    state.round = usize::try_from(sec.round)
        .map_err(|_| format!("snapshot round {} exceeds this platform's usize", sec.round))?;
    state.windows.clear();
    state.windows.extend_from_slice(&sec.windows);
    state.win_base = sec.win_base;
    state.failed = None;
    state.queue.clear();
    Ok(())
}

/// What a tail replay did during [`crate::engine::ShardedEngine::recover`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverStats {
    /// Records replayed from the log tail.
    pub replayed: u64,
    /// `true` if the tail ended in a torn (partially written) record:
    /// the recovered state is the longest consistent prefix of the log,
    /// which is exactly the set of requests whose writes completed.
    pub torn_tail: bool,
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
    use std::io::Cursor;
    use std::sync::Arc;

    use otc_core::forest::{Forest, ShardId};
    use otc_core::policy::CachePolicy;
    use otc_core::request::Request;
    use otc_core::tc::{TcConfig, TcFast};
    use otc_workloads::trace::{TraceHeader, TraceReader, TraceWriter};

    use crate::engine::ShardedEngine;
    use crate::runner::tests::{mixed, Scripted};

    fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
        Box::new(TcFast::new(tree, TcConfig::new(2, 4)))
    }

    fn cfg() -> EngineConfig {
        EngineConfig::new(2).audit_every(64).telemetry(true)
    }

    #[test]
    fn snapshot_round_trips_and_resumes_bit_identically() {
        let tree = Tree::star(16);
        let reqs = mixed(tree.len(), 3000, 5);
        let mut a = ShardedEngine::new(Forest::partition(&tree, 4), &factory, cfg());
        a.submit_batch(&reqs[..1500]).expect("valid");
        let mut buf = Vec::new();
        a.write_snapshot(LogPosition { offset: 77, records: 1500 }, &mut buf).expect("snapshots");
        let snap = EngineSnapshot::parse(&buf).expect("parses");
        assert_eq!(snap.meta.log, LogPosition { offset: 77, records: 1500 });
        assert_eq!(snap.meta.num_shards, 4);

        let mut b = ShardedEngine::new(Forest::partition(&tree, 4), &factory, cfg());
        b.restore_snapshot(&snap).expect("restores");
        a.submit_batch(&reqs[1500..]).expect("valid");
        b.submit_batch(&reqs[1500..]).expect("valid");
        assert_eq!(a.timeline(), b.timeline(), "telemetry resumes bit-identically");
        assert_eq!(
            a.into_reports().expect("valid"),
            b.into_reports().expect("valid"),
            "reports resume bit-identically"
        );
    }

    #[test]
    fn recover_from_log_tail_matches_uninterrupted_run() {
        let tree = Tree::star(12);
        let reqs = mixed(tree.len(), 2500, 11);
        let header = TraceHeader::single_tree(tree.len(), 0, "test");
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), header).expect("writes");
        for &r in &reqs {
            w.push(r).expect("writes");
        }
        let bytes = w.finish().expect("finishes").into_inner();

        // The "pre-crash" engine processed 1000 records, then snapshotted.
        let cut = 1000usize;
        let mut pre = TraceReader::new(Cursor::new(bytes.clone())).expect("opens");
        for _ in 0..cut {
            pre.next().expect("has record").expect("valid");
        }
        let log = LogPosition { offset: pre.byte_pos(), records: pre.records_read() };
        let mut a = ShardedEngine::new(Forest::partition(&tree, 3), &factory, cfg());
        a.submit_batch(&reqs[..cut]).expect("valid");
        let mut buf = Vec::new();
        a.write_snapshot(log, &mut buf).expect("snapshots");
        let snap = EngineSnapshot::parse(&buf).expect("parses");

        // Recovery: fresh engine, restore + tail replay.
        let mut rec = ShardedEngine::new(Forest::partition(&tree, 3), &factory, cfg());
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("opens");
        let mut chunk = Vec::new();
        let stats = rec.recover(&snap, &mut reader, &mut chunk).expect("recovers");
        assert_eq!(stats.replayed, (reqs.len() - cut) as u64);
        assert!(!stats.torn_tail);

        let mut full = ShardedEngine::new(Forest::partition(&tree, 3), &factory, cfg());
        full.submit_batch(&reqs).expect("valid");
        assert_eq!(rec.timeline(), full.timeline(), "recovered telemetry ≡ uninterrupted");
        assert_eq!(
            rec.into_reports().expect("valid"),
            full.into_reports().expect("valid"),
            "recovered reports ≡ uninterrupted"
        );
    }

    #[test]
    fn incompatible_snapshots_are_refused_before_any_mutation() {
        let stars = || Forest::from_trees(vec![Arc::new(Tree::star(4)), Arc::new(Tree::star(4))]);
        let reqs = mixed(stars().global_len(), 400, 3);
        let mut a = ShardedEngine::new(stars(), &factory, cfg());
        a.submit_batch(&reqs).expect("valid");
        let mut buf = Vec::new();
        a.write_snapshot(LogPosition::default(), &mut buf).expect("snapshots");
        let snap = EngineSnapshot::parse(&buf).expect("parses");

        // Wrong alpha: refused by the meta check, engine stays usable.
        let f3 = |tree: Arc<Tree>, _s: ShardId| {
            Box::new(TcFast::new(tree, TcConfig::new(3, 4))) as Box<dyn CachePolicy>
        };
        let mut wrong_alpha =
            ShardedEngine::new(stars(), &f3, EngineConfig::new(3).audit_every(64).telemetry(true));
        let err = wrong_alpha.restore_snapshot(&snap).unwrap_err();
        assert!(err.message.contains("alpha"), "got: {err}");
        wrong_alpha.submit(Request::pos(NodeId(1))).expect("refusal leaves the engine usable");

        // Wrong shard count (same global size).
        let three = Forest::from_trees(vec![
            Arc::new(Tree::path(4)),
            Arc::new(Tree::path(3)),
            Arc::new(Tree::path(3)),
        ]);
        let mut wrong_shards = ShardedEngine::new(three, &factory, cfg());
        let err = wrong_shards.restore_snapshot(&snap).unwrap_err();
        assert!(err.message.contains("shard"), "got: {err}");

        // Same shape, different trees: the per-shard digest catches it.
        let paths = Forest::from_trees(vec![Arc::new(Tree::path(5)), Arc::new(Tree::path(5))]);
        let mut wrong_tree = ShardedEngine::new(paths, &factory, cfg());
        let err = wrong_tree.restore_snapshot(&snap).unwrap_err();
        assert!(err.message.contains("tree"), "got: {err}");
        wrong_tree.submit(Request::pos(NodeId(1))).expect("refusal leaves the engine usable");
    }

    #[test]
    fn version_1_images_are_refused() {
        let tree = Tree::star(4);
        let mut engine = ShardedEngine::new(Forest::partition(&tree, 2), &factory, cfg());
        engine.submit_batch(&mixed(tree.len(), 200, 7)).expect("valid");
        let mut v2 = Vec::new();
        engine.write_snapshot(LogPosition::default(), &mut v2).expect("snapshots");
        assert!(EngineSnapshot::parse(&v2).is_ok());
        // The same state in the version 1 layout: a `validate` byte right
        // after α in the meta section, and a fresh trailer.
        let mut v1 = v2[..v2.len() - 16].to_vec();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let meta_len = u32::from_le_bytes(le_bytes(&v1[8..12])) + 1;
        v1[8..12].copy_from_slice(&meta_len.to_le_bytes());
        v1.insert(12 + 8, 1);
        finish_snapshot(&mut v1);
        assert_eq!(EngineSnapshot::parse(&v1).unwrap_err(), SnapshotError::BadVersion(1));
    }

    #[test]
    fn restoring_a_cache_the_driver_refuses_poisons_the_shard() {
        let tree = Arc::new(Tree::star(3));
        let raw = |tree: Arc<Tree>, _s: ShardId| {
            let p = Scripted { capacity: 2, ..Scripted::new(tree.len(), &[], &[]) };
            Box::new(p) as Box<dyn CachePolicy>
        };
        let mut source = ShardedEngine::new(Forest::single(Arc::clone(&tree)), &raw, cfg());
        let mut buf = Vec::new();
        source.write_snapshot(LogPosition::default(), &mut buf).expect("snapshots");
        let snap = EngineSnapshot::parse(&buf).expect("parses");
        // The star's root without its leaves, then all four nodes against
        // a capacity of 2: mirror and policy blob agree, so only the
        // driver's adoption check can refuse them.
        for (nodes, why) in [(&[0u32][..], "subforest"), (&[0, 1, 2, 3][..], "capacity")] {
            let mut bad = snap.clone();
            let mut cache = CacheSet::empty(tree.len());
            for &v in nodes {
                cache.insert(NodeId(v));
            }
            bad.sections[0].policy_blob.clear();
            cache.write_bitmap(&mut bad.sections[0].policy_blob);
            bad.sections[0].mirror = cache;
            let mut engine = ShardedEngine::new(Forest::single(Arc::clone(&tree)), &raw, cfg());
            let err = engine.restore_snapshot(&bad).unwrap_err();
            assert!(err.message.contains("refusing to adopt the cache"), "{why}: {err}");
            assert!(err.message.contains(why), "{why}: {err}");
            assert_eq!(engine.submit(Request::pos(NodeId(1))).unwrap_err(), err, "poisoned");
        }
    }

    #[test]
    fn detached_worker_sections_assemble_into_a_parsable_snapshot() {
        let tree = Tree::star(16);
        let reqs = mixed(tree.len(), 2000, 29);
        let engine = ShardedEngine::new(Forest::partition(&tree, 4), &factory, cfg());
        let (router, mut workers) = engine.into_workers().expect("detaches");
        for &r in &reqs {
            let (sid, local) = router.route(r).expect("in range");
            workers[sid.index()].step(local).expect("valid");
        }
        let meta = SnapshotMeta::of(
            &cfg(),
            router.global_len(),
            router.num_shards() as u32,
            LogPosition { offset: 9, records: 2000 },
        );
        let mut buf = Vec::new();
        write_header(&meta, &mut buf);
        for w in &workers {
            w.snapshot_section(&mut buf).expect("snapshots");
        }
        finish_snapshot(&mut buf);
        let snap = EngineSnapshot::parse(&buf).expect("parses");

        // Restoring the assembled snapshot into a fresh engine and
        // detaching it resumes bit-identically to the originals.
        let mut fresh = ShardedEngine::new(Forest::partition(&tree, 4), &factory, cfg());
        fresh.restore_snapshot(&snap).expect("restores");
        let (_, mut restored) = fresh.into_workers().expect("detaches");
        let more = mixed(tree.len(), 500, 31);
        for &r in &more {
            let (sid, local) = router.route(r).expect("in range");
            workers[sid.index()].step(local).expect("valid");
            restored[sid.index()].step(local).expect("valid");
        }
        for (a, b) in workers.into_iter().zip(restored) {
            assert_eq!(a.windows(), b.windows());
            assert_eq!(a.into_report().expect("valid"), b.into_report().expect("valid"));
        }
    }
}
