//! Detachable per-shard workers: the engine, taken apart for serving.
//!
//! A [`crate::engine::ShardedEngine`] is built for batch work — one owner
//! thread stages requests and drains all shards inside short-lived scoped
//! threads. A serving runtime (`otc-serve`) needs the opposite shape:
//! **persistent** worker threads, each owning its shard for the lifetime
//! of the service, fed continuously through queues while the service is
//! live.
//!
//! [`ShardedEngine::into_workers`](crate::engine::ShardedEngine::into_workers)
//! converts between the two: it splits the engine into
//!
//! * one [`ShardRouter`] — the cheap, cloneable, thread-safe routing view
//!   (global id space → `(shard, local request)`), shared by every
//!   ingress thread; and
//! * one [`ShardWorker`] per shard — the shard's tree, policy, verified
//!   driver, report and telemetry state, now `Send` and self-contained,
//!   ready to be moved onto a dedicated OS thread.
//!
//! A worker reads out without stopping: [`ShardWorker::cell_load`], the
//! cost counters and [`ShardWorker::windows`] are non-consuming, and
//! [`ShardWorker::snapshot_section`] serializes the shard at any cut
//! point. The report is terminal ([`ShardWorker::into_report`]).
//!
//! The determinism contract carries over unchanged: a worker processes
//! its queue in FIFO order with the same verified `Driver` the engine
//! uses, so feeding workers some interleaving of per-shard streams yields
//! bit-identical per-shard [`Report`]s to an engine run (or a
//! `replay_trace`) that presents each shard the same per-shard order —
//! `crates/serve` pins this end to end over TCP.

use std::sync::Arc;

use otc_core::forest::{Forest, ShardId};
use otc_core::request::Request;
use otc_core::tree::Tree;

use crate::engine::{EngineConfig, ShardHandle, ShardState, SubmitOutcome};
use crate::report::Report;
use crate::telemetry::{Timeline, WindowRecord};

/// The routing view of a detached engine: maps globally-addressed
/// requests to `(shard, local request)` without touching any shard
/// state. `Clone` + `Send` + `Sync`, so every ingress thread can hold
/// one.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    /// `None` for the identity-routing single-shard case.
    forest: Option<Arc<Forest>>,
    global_len: usize,
    shard_map: Vec<u32>,
}

impl ShardRouter {
    pub(crate) fn new(forest: Option<Forest>, shard_sizes: Vec<u32>, global_len: usize) -> Self {
        Self { forest: forest.map(Arc::new), global_len, shard_map: shard_sizes }
    }

    /// Number of shards routed over.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shard_map.len()
    }

    /// Size of the global node-id space (every request must satisfy
    /// `node < global_len`).
    #[must_use]
    pub fn global_len(&self) -> usize {
        self.global_len
    }

    /// Per-shard tree sizes, in shard order — the trace-header
    /// `shard_map` of a service logging over this router.
    #[must_use]
    pub fn shard_map(&self) -> &[u32] {
        &self.shard_map
    }

    /// Routes a globally-addressed request to `(shard, local request)`.
    /// O(1); mirrors `ShardedEngine`'s routing exactly.
    ///
    /// # Errors
    /// Describes requests outside the global id space.
    pub fn route(&self, r: Request) -> Result<(ShardId, Request), String> {
        if r.node.index() >= self.global_len {
            return Err(format!(
                "request targets node {} but the forest has {} nodes",
                r.node, self.global_len
            ));
        }
        match &self.forest {
            Some(f) => Ok(f.route_request(r)),
            None => Ok((ShardId(0), r)),
        }
    }
}

/// One shard of a detached [`crate::engine::ShardedEngine`]: tree,
/// policy, verified driver, report and telemetry state, owned and
/// `Send` — the unit a serving runtime pins to a persistent worker
/// thread.
pub struct ShardWorker {
    state: ShardState<'static>,
    shard: ShardId,
    cfg: EngineConfig,
}

impl ShardWorker {
    pub(crate) fn new(state: ShardState<'static>, shard: ShardId, cfg: EngineConfig) -> Self {
        Self { state, shard, cfg }
    }

    /// This worker's cumulative load counters — the per-cell decision
    /// input of `otc_sim::rebalance` (see
    /// [`crate::engine::ShardedEngine::cell_loads`] for the engine-wide
    /// equivalent and the determinism contract).
    #[must_use]
    pub fn cell_load(&self) -> otc_workloads::rebalance::CellLoad {
        otc_workloads::rebalance::CellLoad {
            rounds: self.state.report.rounds,
            paid_rounds: self.state.report.paid_rounds,
            occupancy: self.state.driver.cache_len() as u64,
        }
    }

    /// This worker's shard id.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The engine configuration the worker runs under.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// The shard's tree.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        self.state.tree.get()
    }

    /// Rounds processed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.state.report.rounds
    }

    /// Rounds that paid the service cost so far.
    #[must_use]
    pub fn paid_rounds(&self) -> u64 {
        self.state.report.paid_rounds
    }

    /// Cost accumulated so far (folded at the chunk cadence, so a batch
    /// in flight is visible only after its fold).
    #[must_use]
    pub fn cost(&self) -> otc_core::request::Cost {
        self.state.report.cost
    }

    /// The sticky first protocol violation, if one has occurred.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.state.failed.as_deref()
    }

    /// Drives one **shard-local** request through the verified driver
    /// (same semantics as `ShardedEngine::submit` after routing, the
    /// divergence check included).
    ///
    /// # Errors
    /// The simulator's classic protocol violations; the first one
    /// poisons the worker (subsequent calls return it again).
    pub fn step(&mut self, req: Request) -> Result<SubmitOutcome, String> {
        let mut handle = ShardHandle { state: &mut self.state, shard: self.shard, cfg: self.cfg };
        handle.step(req).and_then(|out| handle.end_batch().map(|()| out))
    }

    /// Drives a slice of shard-local requests in order, with the
    /// engine's chunked accounting/audit cadence.
    ///
    /// # Errors
    /// Protocol violations (sticky, as with [`ShardWorker::step`]).
    pub fn run_batch(&mut self, reqs: &[Request]) -> Result<(), String> {
        self.state.drain(reqs, &self.cfg)
    }

    /// The telemetry windows closed so far, plus the open partial window
    /// (when telemetry is on and rounds have run since the last
    /// boundary), with the shard id filled in. Non-consuming.
    #[must_use]
    pub fn windows(&self) -> Vec<WindowRecord> {
        let mut windows = Vec::new();
        self.state.collect_windows(self.shard.0, self.cfg.telemetry, &mut windows);
        windows
    }

    /// Serializes this shard's length-prefixed `OTCS` section onto `out`
    /// (appending, so sections from all workers concatenate in shard
    /// order between [`crate::snapshot::write_header`] and
    /// [`crate::snapshot::finish_snapshot`]). Non-consuming — the worker
    /// keeps serving — and independent of every other shard: each worker
    /// snapshots at its own cut point without pausing the rest.
    ///
    /// # Errors
    /// A policy that does not support snapshots
    /// ([`otc_core::policy::CachePolicy::save_state`]).
    pub fn snapshot_section(&self, out: &mut Vec<u8>) -> Result<(), String> {
        crate::snapshot::write_section(self.shard.0, &self.state, out)
    }

    /// Finishes the worker and returns its final per-shard report.
    ///
    /// # Errors
    /// Returns the sticky protocol violation if one occurred, or a mirror
    /// that fails the final subforest walk.
    pub fn into_report(self) -> Result<Report, String> {
        if let Some(message) = self.state.failed {
            return Err(message);
        }
        let mut report = self.state.report;
        self.state.driver.finish(self.state.tree.get(), &self.cfg, &mut report)?;
        Ok(report)
    }
}

/// Assembles per-worker window snapshots into one [`Timeline`] (the
/// serving-side equivalent of `ShardedEngine::timeline`): `windows`
/// must be the concatenation of [`ShardWorker::windows`] results in
/// shard order.
#[must_use]
pub fn timeline_from_windows(
    cfg: &EngineConfig,
    shards: u32,
    windows: Vec<WindowRecord>,
) -> Timeline {
    let window_rounds = if cfg.telemetry { cfg.audit_chunk.unwrap_or(0) as u64 } else { 0 };
    Timeline { alpha: cfg.alpha, window_rounds, shards, windows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ShardedEngine;
    use crate::runner::tests::mixed;
    use otc_core::policy::CachePolicy;
    use otc_core::tc::{TcConfig, TcFast};
    use otc_core::tree::NodeId;

    fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
        Box::new(TcFast::new(tree, TcConfig::new(2, 4)))
    }

    #[test]
    fn detached_workers_match_the_engine_bit_for_bit() {
        let tree = Tree::star(16);
        let reqs = mixed(tree.len(), 4000, 3);

        let mut engine =
            ShardedEngine::new(Forest::partition(&tree, 4), &factory, EngineConfig::new(2));
        engine.submit_batch(&reqs).expect("valid");
        let base = engine.into_reports().expect("valid");

        let engine =
            ShardedEngine::new(Forest::partition(&tree, 4), &factory, EngineConfig::new(2));
        let (router, mut workers) = engine.into_workers().expect("fresh engine detaches");
        assert_eq!(router.num_shards(), 4);
        for &r in &reqs {
            let (sid, local) = router.route(r).expect("in range");
            workers[sid.index()].step(local).expect("valid");
        }
        for (w, want) in workers.into_iter().zip(base) {
            assert_eq!(w.into_report().expect("valid"), want);
        }
    }

    #[test]
    fn worker_windows_match_engine_timeline() {
        let tree = Tree::star(12);
        let reqs = mixed(tree.len(), 3000, 21);
        let cfg = EngineConfig::new(2).audit_every(256).telemetry(true);

        let mut engine = ShardedEngine::new(Forest::partition(&tree, 3), &factory, cfg);
        engine.submit_batch(&reqs).expect("valid");
        let base = engine.timeline();

        let engine = ShardedEngine::new(Forest::partition(&tree, 3), &factory, cfg);
        let (router, mut workers) = engine.into_workers().expect("detaches");
        for &r in &reqs {
            let (sid, local) = router.route(r).expect("in range");
            workers[sid.index()].step(local).expect("valid");
        }
        let windows: Vec<WindowRecord> = workers.iter().flat_map(ShardWorker::windows).collect();
        let live = timeline_from_windows(&cfg, workers.len() as u32, windows);
        assert_eq!(live, base, "detached telemetry is bit-identical to the engine's");
    }

    #[test]
    fn router_rejects_out_of_universe_ids_and_poison_sticks() {
        let tree = Tree::star(4);
        let engine =
            ShardedEngine::new(Forest::partition(&tree, 2), &factory, EngineConfig::new(2));
        let (router, mut workers) = engine.into_workers().expect("detaches");
        assert!(router.route(Request::pos(NodeId(99))).is_err());

        // Drive a worker into a violation with an out-of-range local id.
        let err = workers[0].step(Request::pos(NodeId(77))).unwrap_err();
        assert!(err.contains("77"), "got: {err}");
        assert_eq!(workers[0].error(), Some(err.as_str()));
        // Sticky: further batches refuse, and the terminal report errors.
        assert!(workers[0].run_batch(&[Request::pos(NodeId(1))]).is_err());
        let w = workers.remove(0);
        assert!(w.into_report().is_err());
    }
}
