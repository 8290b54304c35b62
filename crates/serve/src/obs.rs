//! Wall-clock instrumentation of the serving request lifecycle.
//!
//! [`ServeMetrics`] names every stage a request crosses on its way
//! through the server (see the thread diagram in [`crate::server`]):
//!
//! | series | stage |
//! |--------|-------|
//! | `otc_serve_accept_nanos` | TCP accept → handshake flushed |
//! | `otc_serve_lock_hold_nanos` | ingress lock held (log + route + enqueue, per batch) |
//! | `otc_serve_ring_wait_nanos{group}` | staged in a group run → dequeued, including the ack write before the deferred wake (sampled once per ingest) |
//! | `otc_serve_drain_nanos{cell}` | one buffered run through a cell worker |
//! | `otc_serve_flush_nanos` | one reply flushed to the socket |
//!
//! plus operational counters (`otc_serve_connections_total`,
//! `otc_serve_batches_total`, `otc_serve_requests_total`,
//! `otc_serve_scrapes_total`) and the static gauges `otc_serve_cells` /
//! `otc_serve_groups`.
//!
//! **Invariant #8 — observation never changes results.** Everything here
//! is a pure side-band: recording touches only `otc-obs` atomics, the
//! per-group/per-cell histograms in a scrape are observe-only
//! annotations of the rebalance placement (never decision inputs — the
//! determinism crates cannot even depend on `otc-obs`, otc-lint R7),
//! and the drain timer rides the one-way
//! [`otc_sim::worker::BatchHooks`] seam. The differential suite in
//! `crates/serve/tests/observer.rs` proves runs with metrics on, off,
//! and scraped concurrently are bit-identical.

use std::sync::Arc;

use otc_obs::clock::{self, Stamp};
use otc_obs::{Counter, Histogram, MetricsSnapshot, Registry};
use otc_sim::worker::BatchHooks;

/// Deterministic label value for a cell/group index: zero-padded so the
/// snapshot's lexicographic label order is also numeric order.
fn index_label(i: usize) -> String {
    format!("{i:04}")
}

/// The server's stage-latency histograms and operational counters. One
/// per running [`crate::Server`] when [`crate::ServeConfig::metrics`] is
/// on; every recording site is lock-free and allocation-free.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Registry,
    /// TCP accept → handshake reply flushed.
    pub(crate) accept: Arc<Histogram>,
    /// Ingress critical section (log append + route + enqueue).
    pub(crate) lock_hold: Arc<Histogram>,
    /// One reply flush to a client socket.
    pub(crate) flush: Arc<Histogram>,
    /// Ring enqueue → dequeue, one histogram per serving group.
    ring_wait: Vec<Arc<Histogram>>,
    /// One buffered run through a worker, one histogram per cell.
    drain: Vec<Arc<Histogram>>,
    /// Connections that completed the handshake.
    pub(crate) connections: Arc<Counter>,
    /// Batches drained by cell workers.
    pub(crate) batches: Arc<Counter>,
    /// Requests accepted at ingress.
    pub(crate) requests: Arc<Counter>,
    /// Metrics scrapes served.
    pub(crate) scrapes: Arc<Counter>,
}

impl ServeMetrics {
    /// A fresh metrics surface for a service with `cells` cells served
    /// by `groups` worker threads.
    #[must_use]
    pub fn new(cells: usize, groups: usize) -> Self {
        let registry = Registry::new();
        let ring_wait = (0..groups)
            .map(|g| registry.histogram("otc_serve_ring_wait_nanos", &[("group", &index_label(g))]))
            .collect();
        let drain = (0..cells)
            .map(|c| registry.histogram("otc_serve_drain_nanos", &[("cell", &index_label(c))]))
            .collect();
        let metrics = Self {
            accept: registry.histogram("otc_serve_accept_nanos", &[]),
            lock_hold: registry.histogram("otc_serve_lock_hold_nanos", &[]),
            flush: registry.histogram("otc_serve_flush_nanos", &[]),
            ring_wait,
            drain,
            connections: registry.counter("otc_serve_connections_total", &[]),
            batches: registry.counter("otc_serve_batches_total", &[]),
            requests: registry.counter("otc_serve_requests_total", &[]),
            scrapes: registry.counter("otc_serve_scrapes_total", &[]),
            registry,
        };
        let cells_gauge = metrics.registry.gauge("otc_serve_cells", &[]);
        cells_gauge.set(cells as u64);
        let groups_gauge = metrics.registry.gauge("otc_serve_groups", &[]);
        groups_gauge.set(groups as u64);
        metrics
    }

    /// Record one sampled ring enqueue→dequeue wait for a group.
    #[inline]
    pub(crate) fn record_ring_wait(&self, group: usize, nanos: u64) {
        if let Some(h) = self.ring_wait.get(group) {
            h.record(nanos);
        }
    }

    /// Record one drained batch on a cell.
    #[inline]
    pub(crate) fn record_drain(&self, cell: usize, nanos: u64) {
        if let Some(h) = self.drain.get(cell) {
            h.record(nanos);
        }
    }

    /// A deterministic-ordered snapshot of every series.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// The drain timer, riding the one-way [`BatchHooks`] seam: `otc-sim`
/// calls in with the cell id and batch length, and nothing flows back.
pub(crate) struct DrainHooks<'a> {
    metrics: &'a ServeMetrics,
    start: Option<Stamp>,
}

impl<'a> DrainHooks<'a> {
    pub(crate) fn new(metrics: &'a ServeMetrics) -> Self {
        Self { metrics, start: None }
    }
}

impl BatchHooks for DrainHooks<'_> {
    #[inline]
    fn before_batch(&mut self, _cell: u32, _len: usize) {
        self.start = Some(clock::stamp());
    }

    #[inline]
    fn after_batch(&mut self, cell: u32, _len: usize) {
        if let Some(start) = self.start.take() {
            self.metrics.record_drain(cell as usize, start.elapsed_nanos());
            self.metrics.batches.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_every_stage() {
        let m = ServeMetrics::new(3, 2);
        m.accept.record(100);
        m.record_ring_wait(1, 50);
        m.record_drain(2, 75);
        m.record_drain(99, 1); // out of range: silently dropped
        let snap = m.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|r| r.name.as_str()).collect();
        for want in [
            "otc_serve_accept_nanos",
            "otc_serve_lock_hold_nanos",
            "otc_serve_ring_wait_nanos",
            "otc_serve_drain_nanos",
            "otc_serve_flush_nanos",
            "otc_serve_connections_total",
            "otc_serve_batches_total",
            "otc_serve_requests_total",
            "otc_serve_scrapes_total",
            "otc_serve_cells",
            "otc_serve_groups",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        // 3 drain + 2 ring_wait + 3 plain histograms + 4 counters + 2 gauges.
        assert_eq!(snap.metrics.len(), 14);
        // The scrape round-trips through the exposition codec.
        let json = snap.to_json();
        assert_eq!(MetricsSnapshot::from_json(&json).expect("canonical"), snap);
    }

    #[test]
    fn drain_hooks_time_one_batch() {
        let m = ServeMetrics::new(1, 1);
        let mut hooks = DrainHooks::new(&m);
        hooks.before_batch(0, 8);
        hooks.after_batch(0, 8);
        let snap = m.snapshot();
        let drain = snap
            .metrics
            .iter()
            .find(|r| r.name == "otc_serve_drain_nanos")
            .expect("drain series exists");
        match &drain.value {
            otc_obs::MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("drain is a histogram, got {other:?}"),
        }
    }
}
