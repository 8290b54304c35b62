//! Spans recorded by the traced run around each call into a layer: name,
//! start, end, the span that caused it, and the items it covered. Spans
//! stay in memory and are written out once, when the run ends. Every
//! layer is timed in isolation on the recorded stream, so a layer's value
//! is its own spans' time: no span nests another layer's work.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span; `0` means "no parent".
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id (1-based).
    pub id: SpanId,
    /// The span that caused this one (`0` for a root).
    pub parent: SpanId,
    /// Layer or call name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Requests (or events) the span covered.
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder with one epoch.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns: ns(start), end_ns: ns(end), items });
        id
    }

    /// Opens a span now; finish it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now, 0)
    }

    /// Closes an open span now, covering `items` items.
    pub fn close(&mut self, id: SpanId, items: u64) {
        let end = Instant::now().saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end;
        span.items = items;
    }

    /// Times `f` as one span of `items` items and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, parent, start, end, items))
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span by id.
    #[must_use]
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id as usize - 1]
    }

    /// Writes every span as tab-separated `id parent name start_ns end_ns
    /// items` lines.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\titems")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}
