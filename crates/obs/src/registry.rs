//! Lock-light named-metric registry.
//!
//! Registration (naming a counter/gauge/histogram) takes a mutex once
//! and hands back an `Arc` handle; the hot path — bumping the handle —
//! is pure relaxed atomics with the registry out of the picture
//! entirely. [`Registry::snapshot`] produces a [`MetricsSnapshot`]
//! sorted by `(name, labels)`, so exposition output is deterministic for
//! a given set of recorded values regardless of registration order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::expo::{MetricRecord, MetricValue, MetricsSnapshot};
use crate::hist::Histogram;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (wrapping).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A named-metric registry. See the module docs.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

fn normalize(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        labels.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect();
    out.sort();
    out
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register (or look up) a counter under `(name, labels)`.
    ///
    /// Re-registering the same `(name, labels)` returns the existing
    /// handle, so independent subsystems can share a series. If the
    /// series exists under a *different* metric kind, a fresh detached
    /// handle is returned instead of panicking — observation must never
    /// take the process down.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let labels = normalize(labels);
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Handle::Counter(c) = &e.handle {
                    return Arc::clone(c);
                }
                return Arc::new(Counter::default());
            }
        }
        let c = Arc::new(Counter::default());
        entries.push(Entry {
            name: name.to_owned(),
            labels,
            handle: Handle::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Register (or look up) a gauge under `(name, labels)`. Same
    /// collision rules as [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let labels = normalize(labels);
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Handle::Gauge(g) = &e.handle {
                    return Arc::clone(g);
                }
                return Arc::new(Gauge::default());
            }
        }
        let g = Arc::new(Gauge::default());
        entries.push(Entry {
            name: name.to_owned(),
            labels,
            handle: Handle::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Register (or look up) a histogram under `(name, labels)`. Same
    /// collision rules as [`Registry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let labels = normalize(labels);
        let mut entries = self.lock();
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                if let Handle::Histogram(h) = &e.handle {
                    return Arc::clone(h);
                }
                return Arc::new(Histogram::new());
            }
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name: name.to_owned(),
            labels,
            handle: Handle::Histogram(Arc::clone(&h)),
        });
        h
    }

    /// A plain-data snapshot of every registered series, sorted by
    /// `(name, labels)`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.lock();
        let mut metrics: Vec<MetricRecord> = entries
            .iter()
            .map(|e| MetricRecord {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        drop(entries);
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reregistration_shares_the_series() {
        let r = Registry::new();
        let a = r.counter("hits", &[("shard", "0")]);
        let b = r.counter("hits", &[("shard", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().metrics.len(), 1);
    }

    #[test]
    fn label_order_is_normalized() {
        let r = Registry::new();
        let a = r.counter("x", &[("b", "2"), ("a", "1")]);
        let b = r.counter("x", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn kind_collision_detaches_instead_of_panicking() {
        let r = Registry::new();
        let c = r.counter("clash", &[]);
        let g = r.gauge("clash", &[]);
        c.inc();
        g.set(100);
        // The registry still reports the original counter series.
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(snap.metrics[0].value, MetricValue::Counter(1));
    }

    #[test]
    fn snapshot_order_is_independent_of_registration_order() {
        let r1 = Registry::new();
        r1.counter("b", &[]).inc();
        r1.gauge("a", &[]).set(5);
        let r2 = Registry::new();
        r2.gauge("a", &[]).set(5);
        r2.counter("b", &[]).inc();
        assert_eq!(r1.snapshot(), r2.snapshot());
    }
}
