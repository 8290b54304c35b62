//! Shared utilities for the online-tree-caching workspace.
//!
//! This crate is deliberately small and dependency-light; it provides the
//! plumbing that every other crate needs:
//!
//! * [`rng`] — a tiny, fully deterministic `SplitMix64` generator plus seed
//!   derivation helpers, so every experiment is reproducible from a single
//!   `u64` seed.
//! * [`zipf`] — a Zipf(θ) sampler over ranked items (the traffic model the
//!   paper's application section motivates, cf. Sarrar et al. \[29\]).
//! * [`stats`] — Welford online moments, percentile summaries and ratio
//!   helpers used by the experiment harness.
//! * [`par`] — a scoped-thread parallel map built on `std::thread::scope`
//!   that hands items out one ticket at a time (self-balancing, no work
//!   stealing needed for parameter sweeps and per-shard drains).
//! * [`ring`] — bounded FIFO queues: a fixed-capacity [`ring::Ring`] core
//!   plus a blocking MPSC [`ring::channel`] with backpressure, the
//!   ingress→worker hand-off of the `otc-serve` serving runtime.
//! * [`table`] — minimal markdown table rendering for experiment output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod par;
pub mod ring;
pub mod rng;
pub mod stats;
pub mod table;
pub mod zipf;

pub use par::{parallel_map, parallel_map_mut};
pub use rng::SplitMix64;
pub use stats::{OnlineStats, Summary};
pub use table::Table;
pub use zipf::Zipf;
