//! # otc-serve — the live serving runtime
//!
//! Everything before this crate is batch: an owner thread stages
//! requests into a [`otc_sim::ShardedEngine`] and drains it. This crate
//! models the paper's *actual* setting — an online stream of requests
//! arriving from many concurrent clients **while** the tree cache is
//! being updated — as a long-lived service:
//!
//! * [`Server`] pins one persistent worker thread per shard (a detached
//!   [`otc_sim::worker::ShardWorker`]), fed through bounded
//!   [`otc_util::ring`] channels with backpressure;
//! * the [`wire`] protocol frames requests on loopback TCP, reusing the
//!   OTCT LEB128 record codec ([`otc_workloads::wire`]) byte for byte;
//! * [`Client`] speaks it, synchronously or pipelined;
//! * shutdown drains gracefully and returns per-shard verified
//!   [`otc_sim::Report`]s, the aggregate, windowed telemetry, and the
//!   OTCT trace the service logged;
//! * with a file-backed log and a [`SnapshotPolicy`], the service is
//!   **crash-safe**: cadence-driven `OTCS` snapshots are taken as
//!   consistent cuts (no shard pauses another), and [`Server::resume`]
//!   restores a killed service from the newest usable snapshot plus a
//!   replay of the log tail — bit-identical to never having crashed;
//! * with [`ServeConfig::metrics`], the service carries a
//!   [`obs::ServeMetrics`] surface — per-stage latency histograms,
//!   operational counters and the paper's cost totals, scrapable live
//!   over the wire (`Metrics` opcode, see [`Client::scrape`]) — that
//!   provably never changes results (invariant #8, `tests/observer.rs`).
//!
//! **The core invariant** (pinned by `tests/loopback.rs`): the live
//! service's per-shard reports are bit-identical to
//! `ShardedEngine::replay_trace` of the trace it logged — at every shard
//! count, client count, pipelining depth and thread schedule. Serving is
//! just the engine with the batches arriving over a socket; nothing
//! about cost accounting, verification or telemetry is renegotiated.
//!
//! ```no_run
//! use std::sync::Arc;
//! use otc_core::forest::{Forest, ShardId};
//! use otc_core::policy::CachePolicy;
//! use otc_core::tc::{TcConfig, TcFast};
//! use otc_core::tree::{NodeId, Tree};
//! use otc_core::Request;
//! use otc_serve::{Client, ServeConfig, Server};
//! use otc_sim::engine::{EngineConfig, ShardedEngine};
//!
//! let forest = Forest::partition(&Tree::star(64), 4);
//! let factory = |tree: Arc<Tree>, _s: ShardId| {
//!     Box::new(TcFast::new(tree, TcConfig::new(2, 8))) as Box<dyn CachePolicy>
//! };
//! let engine = ShardedEngine::new(forest, &factory, EngineConfig::new(2));
//! let server = Server::start(engine, ServeConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.submit(&[Request::pos(NodeId(1)), Request::pos(NodeId(1))]).unwrap();
//! client.drain().unwrap();
//! client.bye().unwrap();
//!
//! let outcome = server.shutdown().unwrap();
//! assert_eq!(outcome.requests_served, 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod obs;
pub mod rebalance;
pub mod server;
pub mod wire;

pub use client::Client;
pub use obs::ServeMetrics;
pub use rebalance::{initial_table, RebalancePolicy};
pub use server::{
    RebalanceSummary, ResumeOutcome, ServeConfig, ServeOutcome, Server, SnapshotPolicy, TraceLog,
};
pub use wire::{Message, MAX_FRAME, WIRE_MAGIC, WIRE_VERSION};
