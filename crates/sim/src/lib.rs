//! # otc-sim — the verified discrete-round simulator
//!
//! Drives any [`otc_core::policy::CachePolicy`] through a request sequence
//! while *independently* checking every move: the simulator mirrors the
//! cache, validates changesets against the problem definition, enforces
//! the capacity, and does all cost accounting itself. There is one
//! verification mode. Each changeset is checked in O(|set|), so the
//! mirror stays a subforest by induction from a checked start (Section 3,
//! Lemma 5.1); the whole tree is walked only when a cache is adopted and
//! when a run finishes.
//!
//! It also materialises the analysis-side objects of the paper's Section 5
//! as runtime instrumentation:
//!
//! * **fields** (Section 5.1): per applied changeset, the requests that
//!   triggered it — with Observation 5.2 (`req(F) = size(F)·α`) checked
//!   per field;
//! * **in/out periods** (Section 5.2.5, Figure 3): closed per node by
//!   fetches/evictions, with the `pout = pin + kP` balance per phase;
//! * **phases** (Section 4): anatomy of each flush-delimited phase (E9).
//!
//! Execution is unified behind the [`engine::ShardedEngine`]: one API over
//! forests of trees (per-shard policies, batch submission with O(1)
//! routing, parallel per-shard execution). The classic entry points
//! [`run_policy`] and [`run_stream`] are thin single-shard adapters over
//! it.
//!
//! Beyond the one aggregate [`Report`] per run, the engine can collect a
//! time-resolved [`telemetry::Timeline`]: per-window, per-shard counters
//! (cost breakdown by fetch/evict/flush, occupancy, action-buffer
//! high-water marks) snapshotted at `audit_every` boundaries and
//! exportable as JSON — see [`telemetry`].
//!
//! For long-lived serving (the `otc-serve` runtime), the engine comes
//! apart: [`engine::ShardedEngine::into_workers`] detaches one `Send`
//! [`worker::ShardWorker`] per shard (with non-consuming, incremental
//! report/timeline snapshots) plus a cloneable [`worker::ShardRouter`]
//! for the ingress side — see [`worker`].
//!
//! For durability, [`snapshot`] serializes the whole engine — policy
//! state, verified drivers, reports, telemetry — into a checksummed
//! `OTCS` image tied to an OTCT log position; restoring it and replaying
//! the log tail ([`engine::ShardedEngine::recover`]) reproduces the
//! pre-crash state bit-identically.
//!
//! Under live skew, [`rebalance`] re-homes whole cells (root-child
//! subtrie shards) between serving groups: a deterministic planner over
//! per-cell load windows, an epoch-versioned
//! [`otc_core::forest::RoutingTable`], and a replay path that recomputes
//! — and verifies — a live run's entire migration schedule from its own
//! request log (determinism invariant #7).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod rebalance;
pub mod report;
pub mod runner;
pub mod snapshot;
pub mod telemetry;
pub mod worker;

pub use engine::{
    aggregate_reports, EngineConfig, EngineError, ShardHandle, ShardedEngine, SubmitOutcome,
};
pub use rebalance::{plan, replay_trace_rebalancing, RebalanceConfig, RebalanceReplay, Rebalancer};
pub use report::{FieldStats, PeriodStats, PhaseStats, Report};
pub use runner::{run_policy, run_stream};

/// The engine configuration under its old simulator name. It exists only
/// because the `benchmark/` package still names it; use [`EngineConfig`].
pub type SimConfig = EngineConfig;
pub use snapshot::{
    EngineSnapshot, LogPosition, RecoverStats, ShardSection, SnapshotError, SnapshotMeta,
};
pub use telemetry::{Timeline, WindowRecord};
pub use worker::{timeline_from_windows, ShardRouter, ShardWorker};
