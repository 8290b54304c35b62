//! Wall-clock instrumentation of the serving request lifecycle.
//!
//! [`ServeMetrics`] names every stage a request crosses on its way
//! through the server (see the thread diagram in [`crate::server`]):
//!
//! | series | stage |
//! |--------|-------|
//! | `otc_serve_accept_nanos` | TCP accept → handshake flushed |
//! | `otc_serve_lock_hold_nanos` | ingress lock held (log + route + enqueue, per batch) |
//! | `otc_serve_ring_wait_nanos{group}` | staged in a lane run → dequeued, including the ingest of the rest of the read burst and its one flush before the deferred wake (sampled once per ingest, labelled with the request's group) |
//! | `otc_serve_drain_nanos{cell}` | one buffered run through a cell worker |
//! | `otc_serve_flush_nanos` | one read burst's replies flushed to the socket (one sample per burst: one frame for a client that waits for each reply, several for a pipelining one) |
//!
//! plus operational counters (`otc_serve_connections_total`,
//! `otc_serve_batches_total`, `otc_serve_requests_total`,
//! `otc_serve_scrapes_total`), the static gauges `otc_serve_cells`,
//! `otc_serve_groups` and `otc_serve_lanes` (worker threads), and the
//! paper's cost totals over every cell (`otc_serve_rounds_total`,
//! `otc_serve_paid_rounds_total`, `otc_serve_service_cost_total`,
//! `otc_serve_reorg_cost_total`, the last already multiplied by α). A
//! lane worker adds each run's cost
//! deltas before it publishes progress, so a scrape that follows a
//! `Drain` on the same connection is exact; a resumed service seeds them
//! with the recovered totals.
//!
//! **Invariant #8 — observation never changes results.** Everything here
//! is a pure side-band: recording touches only `otc-obs` atomics, the
//! per-group/per-cell histograms in a scrape are observe-only
//! annotations of the rebalance placement (never decision inputs — the
//! determinism crates cannot even depend on `otc-obs`, otc-lint R7),
//! and the lane worker times a drain and reads the cell's counters
//! around `ShardWorker::run_batch`, feeding nothing back into it. The
//! differential suite in `crates/serve/tests/observer.rs` proves runs
//! with metrics on, off, and scraped concurrently are bit-identical.

use std::sync::Arc;

use otc_core::request::Cost;
use otc_obs::{Counter, Histogram, MetricsSnapshot, Registry};

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
    /// One flush to a client socket: the replies to one read burst.
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
    /// Rounds executed, over every cell.
    rounds: Arc<Counter>,
    /// Rounds that paid the service cost.
    paid_rounds: Arc<Counter>,
    /// Service cost.
    service_cost: Arc<Counter>,
    /// Reorganisation cost (already multiplied by α).
    reorg_cost: Arc<Counter>,
}

impl ServeMetrics {
    /// A fresh metrics surface for a service with `cells` cells placed
    /// in `groups` serving groups, which run on `lanes` worker threads.
    #[must_use]
    pub fn new(cells: usize, groups: usize, lanes: usize) -> Self {
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
            rounds: registry.counter("otc_serve_rounds_total", &[]),
            paid_rounds: registry.counter("otc_serve_paid_rounds_total", &[]),
            service_cost: registry.counter("otc_serve_service_cost_total", &[]),
            reorg_cost: registry.counter("otc_serve_reorg_cost_total", &[]),
            registry,
        };
        let cells_gauge = metrics.registry.gauge("otc_serve_cells", &[]);
        cells_gauge.set(cells as u64);
        let groups_gauge = metrics.registry.gauge("otc_serve_groups", &[]);
        groups_gauge.set(groups as u64);
        let lanes_gauge = metrics.registry.gauge("otc_serve_lanes", &[]);
        lanes_gauge.set(lanes as u64);
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
        self.batches.inc();
    }

    /// Add to the cost counters: one run's deltas, or the totals a
    /// resumed service recovered.
    #[inline]
    pub(crate) fn add_cost(&self, rounds: u64, paid_rounds: u64, cost: Cost) {
        self.rounds.add(rounds);
        self.paid_rounds.add(paid_rounds);
        self.service_cost.add(cost.service);
        self.reorg_cost.add(cost.reorg);
    }

    /// A deterministic-ordered snapshot of every series.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_every_stage() {
        let m = ServeMetrics::new(3, 2, 1);
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
            "otc_serve_rounds_total",
            "otc_serve_paid_rounds_total",
            "otc_serve_service_cost_total",
            "otc_serve_reorg_cost_total",
            "otc_serve_cells",
            "otc_serve_groups",
            "otc_serve_lanes",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        // 3 drain + 2 ring_wait + 3 plain histograms + 8 counters + 3 gauges.
        assert_eq!(snap.metrics.len(), 19);
        // The scrape round-trips through the exposition codec.
        let json = snap.to_json();
        assert_eq!(MetricsSnapshot::from_json(&json).expect("canonical"), snap);
    }
}
