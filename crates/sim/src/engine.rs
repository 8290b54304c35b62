//! The sharded execution engine: one API over forests of trees.
//!
//! [`ShardedEngine`] owns a [`Forest`] (one or more trees partitioned into
//! shards), one boxed [`CachePolicy`] per shard (built by a
//! [`PolicyFactory`]), and one verified `Driver` per shard — the same
//! mirror/validation/instrumentation state the classic drivers use, so the
//! zero-allocation round contract holds **per shard**: one `ActionBuffer`
//! plus validation scratch per shard, reused across all rounds.
//!
//! Every engine verifies the same way, whatever its [`EngineConfig`]:
//! each action is checked as it is applied, and the engine compares each
//! shard policy's cache with its mirror once per batch — at the end of
//! each drain chunk, after each [`ShardedEngine::map_shards`] closure, and
//! after each [`ShardedEngine::submit`]. A shard that violates the protocol
//! (or whose starting cache the driver refuses) is poisoned, and so is the
//! engine once the violation surfaces.
//!
//! Requests are *globally* addressed; a flat routing table (O(1), no
//! hashing) maps each to its `(shard, local node)` home:
//!
//! * [`ShardedEngine::submit`] — one request, processed inline;
//! * [`ShardedEngine::submit_batch`] — routes a batch into per-shard
//!   queues, then drains all shards **in parallel** on scoped worker
//!   threads ([`otc_util::parallel_map_mut`]); per-shard order is the
//!   batch's arrival order, so results are deterministic regardless of
//!   thread count;
//! * [`ShardedEngine::replay_trace`] — streams an OTCT trace
//!   (`otc_workloads::trace::TraceReader`) through the engine in reused
//!   chunks, so persisted workloads replay bit-identically without being
//!   materialised;
//! * [`ShardedEngine::map_shards`] — runs a caller-supplied per-shard loop
//!   (with step-level access through [`ShardHandle`]) across all shards in
//!   parallel; this is how application pipelines with their own event
//!   semantics (e.g. `otc-sdn`'s FIB pipeline) ride the engine.
//!
//! The classic entry points are now thin single-shard adapters over this
//! engine: [`crate::run_policy`] (per-round), [`crate::run_stream`]
//! (chunked + audited), and `otc_sdn::run_fib` (FIB events). A 1-shard
//! engine produces bit-identical [`Report`]s to those drivers —
//! `crates/sim/tests/proptest_engine.rs` pins that differentially.

use std::io::Read;
use std::sync::Arc;

use otc_core::cache::CacheSet;
use otc_core::forest::{Forest, ShardId};
use otc_core::policy::{CachePolicy, PolicyFactory};
use otc_core::request::Request;
use otc_core::tree::Tree;
use otc_workloads::trace::{TraceEvent, TraceReader};

use crate::rebalance::{RebalanceReplay, Rebalancer};
use crate::report::Report;
use crate::runner::Driver;
use crate::telemetry::{Timeline, WindowRecord};

/// Replay chunk capacity given to a fresh (zero-capacity) buffer: 64Ki
/// requests, large enough to amortise each batch's parallel drain.
const DEFAULT_REPLAY_CHUNK: usize = 64 * 1024;

/// Engine options: α, instrumentation, and the engine-level knobs
/// (audit/fold cadence for batches, worker threads for parallel shard
/// execution). No option touches verification: every configuration runs
/// the same checks (see the driver's docs in `crate::runner`).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The per-node reorganisation cost α.
    pub alpha: u64,
    /// Track fields, periods and phases (small constant overhead).
    pub instrument: bool,
    /// Batch chunking cadence: cost accounting folds into the report once
    /// per this many requests, and in debug builds the policy's
    /// [`CachePolicy::audit`] self-check runs at every chunk boundary.
    /// `None` (the default) processes each batch as one chunk with no
    /// audits — the classic `run_policy` behaviour.
    pub audit_chunk: Option<usize>,
    /// Worker threads for [`ShardedEngine::submit_batch`] /
    /// [`ShardedEngine::map_shards`]. `1` (the default) drains shards
    /// sequentially on the calling thread. Thread count never affects
    /// results — shards are independent and internally sequential.
    pub threads: usize,
    /// Collect windowed per-shard telemetry ([`crate::telemetry::Timeline`]):
    /// a [`crate::telemetry::WindowRecord`] snapshots every `audit_every`
    /// rounds per shard (cost breakdown, occupancy, action-buffer
    /// high-water). Off by default; hot-path cost is one counter diff per
    /// window, no per-round allocation. Without a chunk cadence the whole
    /// run becomes a single partial window.
    pub telemetry: bool,
}

impl EngineConfig {
    /// Standard configuration: instrumented, single-threaded, no
    /// chunking.
    #[must_use]
    pub fn new(alpha: u64) -> Self {
        Self { alpha, instrument: true, audit_chunk: None, threads: 1, telemetry: false }
    }

    /// Throughput configuration: [`EngineConfig::new`] without
    /// instrumentation. It verifies exactly as much.
    #[must_use]
    pub fn bare(alpha: u64) -> Self {
        Self { instrument: false, ..Self::new(alpha) }
    }

    /// Enables chunked batch accounting with (debug-build) audits every
    /// `chunk` requests per shard — the `run_stream` cadence.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    #[must_use]
    pub fn audit_every(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk_size must be positive");
        self.audit_chunk = Some(chunk);
        self
    }

    /// Sets the worker thread count for batch ingestion.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables windowed per-shard telemetry (see
    /// [`crate::telemetry::Timeline`]); pair with
    /// [`EngineConfig::audit_every`] to set the window length.
    #[must_use]
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }
}

/// A protocol violation (or configuration error) surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// The shard whose policy violated the protocol, if attributable.
    pub shard: Option<ShardId>,
    /// The violation, in the simulator's classic message format.
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.shard {
            Some(s) => write!(f, "shard {s}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for EngineError {}

/// What one submitted request did (single-request entry point only; batch
/// submission accounts in bulk through the per-shard [`Report`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The shard the request was routed to.
    pub shard: ShardId,
    /// Whether the request paid the service cost.
    pub paid: bool,
    /// Nodes fetched/evicted this round (each costs α).
    pub nodes_touched: u64,
}

/// The shard tree: owned by the forest, or borrowed from the caller (the
/// classic single-shard adapters drive a `&Tree` without cloning it).
pub(crate) enum TreeRef<'p> {
    Owned(Arc<Tree>),
    Borrowed(&'p Tree),
}

impl TreeRef<'_> {
    #[inline]
    pub(crate) fn get(&self) -> &Tree {
        match self {
            TreeRef::Owned(t) => t,
            TreeRef::Borrowed(t) => t,
        }
    }
}

/// Snapshot of the per-round [`Report`] counters at the last telemetry
/// window boundary; a [`WindowRecord`] is the diff against this.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowBase {
    pub(crate) rounds: u64,
    pub(crate) paid_rounds: u64,
    pub(crate) fetch_events: u64,
    pub(crate) evict_events: u64,
    pub(crate) flush_events: u64,
    pub(crate) nodes_fetched: u64,
    pub(crate) nodes_evicted: u64,
    pub(crate) nodes_flushed: u64,
}

impl WindowBase {
    pub(crate) fn of(r: &Report) -> Self {
        Self {
            rounds: r.rounds,
            paid_rounds: r.paid_rounds,
            fetch_events: r.fetch_events,
            evict_events: r.evict_events,
            flush_events: r.flush_events,
            nodes_fetched: r.nodes_fetched,
            nodes_evicted: r.nodes_evicted,
            nodes_flushed: r.nodes_flushed,
        }
    }
}

/// All per-shard state: the policy, its verified driver (mirror, scratch,
/// action buffer — all reused across rounds), the accumulating report, and
/// the batch routing queue (capacity reused across batches). Detachable
/// from the engine into a [`crate::worker::ShardWorker`] for long-lived
/// serving threads.
pub(crate) struct ShardState<'p> {
    pub(crate) tree: TreeRef<'p>,
    pub(crate) policy: Box<dyn CachePolicy + 'p>,
    pub(crate) driver: Driver,
    pub(crate) report: Report,
    pub(crate) queue: Vec<Request>,
    pub(crate) round: usize,
    /// First protocol violation observed on this shard (sticky): set by
    /// every path that drives or (re)loads the shard, so violations inside
    /// [`ShardedEngine::map_shards`] closures poison the engine even if the
    /// closure discards the error.
    pub(crate) failed: Option<String>,
    /// Closed telemetry windows (`shard` field filled at collection).
    pub(crate) windows: Vec<WindowRecord>,
    /// Report-counter snapshot at the open window's first round.
    pub(crate) win_base: WindowBase,
}

impl ShardState<'_> {
    /// Computes the open window's record against `win_base` (`None` when
    /// no round has run since the last boundary).
    pub(crate) fn open_window(&self, partial: bool) -> Option<WindowRecord> {
        let r = &self.report;
        let b = self.win_base;
        let rounds = r.rounds - b.rounds;
        if rounds == 0 {
            return None;
        }
        Some(WindowRecord {
            shard: 0, // filled at collection
            window: self.windows.len() as u64,
            start_round: b.rounds,
            rounds,
            paid_rounds: r.paid_rounds - b.paid_rounds,
            fetch_events: r.fetch_events - b.fetch_events,
            evict_events: r.evict_events - b.evict_events,
            flush_events: r.flush_events - b.flush_events,
            nodes_fetched: r.nodes_fetched - b.nodes_fetched,
            nodes_evicted: (r.nodes_evicted - b.nodes_evicted)
                - (r.nodes_flushed - b.nodes_flushed),
            nodes_flushed: r.nodes_flushed - b.nodes_flushed,
            occupancy: self.driver.cache_len(),
            buf_high_water: self.driver.buf_high_water(),
            partial,
        })
    }

    /// Appends this shard's closed windows — plus, when telemetry is on,
    /// the open partial one — to `out` with the shard id stamped in. The
    /// one definition behind both `ShardedEngine::timeline` and
    /// `ShardWorker::windows`, so the two views can never drift.
    pub(crate) fn collect_windows(
        &self,
        shard: u32,
        telemetry_on: bool,
        out: &mut Vec<WindowRecord>,
    ) {
        for &w in &self.windows {
            out.push(WindowRecord { shard, ..w });
        }
        if telemetry_on {
            if let Some(rec) = self.open_window(true) {
                out.push(WindowRecord { shard, ..rec });
            }
        }
    }

    /// Telemetry boundary check, run once per round: closes the open
    /// window when it has spanned `audit_chunk` rounds. One `Vec` push per
    /// window; rounds in between only pay this counter comparison.
    #[inline]
    pub(crate) fn window_tick(&mut self, cfg: &EngineConfig) {
        if !cfg.telemetry {
            return;
        }
        let Some(chunk) = cfg.audit_chunk else { return };
        if (self.report.rounds - self.win_base.rounds) as usize >= chunk {
            if let Some(rec) = self.open_window(false) {
                self.windows.push(rec);
            }
            self.driver.take_buf_high_water();
            self.win_base = WindowBase::of(&self.report);
        }
    }

    /// Records `message` as this shard's sticky violation and returns it.
    pub(crate) fn poison(&mut self, message: String) -> String {
        self.failed = Some(message.clone());
        message
    }

    /// The per-batch divergence check: the policy's own cache must equal
    /// the mirror, which catches a policy that changes its cache without
    /// reporting it. O(n/64).
    fn check_mirror(&self) -> Result<(), String> {
        if self.driver.mirror == *self.policy.cache() {
            return Ok(());
        }
        Err(format!("after {} rounds: policy cache diverged from mirror", self.round))
    }

    /// Drives `reqs` through this shard in order, folding cost accounting
    /// into the report once per chunk (`audit_chunk`, or the whole slice)
    /// and checking the mirror at each chunk's end. A violation — or an
    /// earlier one — poisons the shard and is returned.
    pub(crate) fn drain(&mut self, reqs: &[Request], cfg: &EngineConfig) -> Result<(), String> {
        if let Some(message) = &self.failed {
            return Err(message.clone());
        }
        self.drain_chunks(reqs, cfg).map_err(|message| self.poison(message))
    }

    fn drain_chunks(&mut self, reqs: &[Request], cfg: &EngineConfig) -> Result<(), String> {
        let n = self.tree.get().len();
        let chunk_size = cfg.audit_chunk.unwrap_or(usize::MAX);
        for chunk in reqs.chunks(chunk_size) {
            let mut service = 0u64;
            let mut touched = 0u64;
            for &req in chunk {
                if req.node.index() >= n {
                    return Err(format!(
                        "round {}: request targets node {} but the shard tree has {n} nodes",
                        self.round, req.node
                    ));
                }
                let (paid, t) = self.driver.round(
                    self.tree.get(),
                    &mut *self.policy,
                    req,
                    self.round,
                    cfg,
                    &mut self.report,
                )?;
                service += u64::from(paid);
                touched += t;
                self.round += 1;
                self.window_tick(cfg);
            }
            self.report.cost.service += service;
            self.report.cost.reorg += cfg.alpha * touched;
            self.check_mirror()?;
            if cfg.audit_chunk.is_some() {
                #[cfg(debug_assertions)]
                self.policy.audit().map_err(|e| {
                    format!("round {}: policy audit failed at chunk boundary: {e}", self.round)
                })?;
            }
        }
        Ok(())
    }

    /// Drains the routed queue, keeping its storage for the next batch.
    pub(crate) fn drain_queue(&mut self, cfg: &EngineConfig) -> Result<(), String> {
        let queue = std::mem::take(&mut self.queue);
        let result = self.drain(&queue, cfg);
        self.queue = queue;
        self.queue.clear();
        result
    }
}

/// Step-level access to one shard, handed to [`ShardedEngine::map_shards`]
/// closures. All node ids seen through a handle are **shard-local**.
pub struct ShardHandle<'a, 'p> {
    pub(crate) state: &'a mut ShardState<'p>,
    pub(crate) shard: ShardId,
    pub(crate) cfg: EngineConfig,
}

impl ShardHandle<'_, '_> {
    /// Drives one shard-local request through the shard's verified driver
    /// and folds its cost into the shard report. The per-batch divergence
    /// check runs when the batch of steps ends (after the
    /// [`ShardedEngine::map_shards`] closure returns), not per step.
    ///
    /// # Errors
    /// The simulator's classic protocol violations.
    pub fn step(&mut self, req: Request) -> Result<SubmitOutcome, String> {
        let st = &mut *self.state;
        if let Some(message) = &st.failed {
            return Err(message.clone());
        }
        if req.node.index() >= st.tree.get().len() {
            let message = format!(
                "round {}: request targets node {} but the shard tree has {} nodes",
                st.round,
                req.node,
                st.tree.get().len()
            );
            return Err(st.poison(message));
        }
        let round = st.driver.round(
            st.tree.get(),
            &mut *st.policy,
            req,
            st.round,
            &self.cfg,
            &mut st.report,
        );
        let (paid, touched) = round.map_err(|message| st.poison(message))?;
        st.round += 1;
        st.report.cost.service += u64::from(paid);
        st.report.cost.reorg += self.cfg.alpha * touched;
        st.window_tick(&self.cfg);
        Ok(SubmitOutcome { shard: self.shard, paid, nodes_touched: touched })
    }

    /// Ends a batch of [`ShardHandle::step`]s with the divergence check
    /// (policy cache ≡ mirror); a mismatch poisons the shard. Returns the
    /// shard's sticky violation if it already has one.
    pub(crate) fn end_batch(&mut self) -> Result<(), String> {
        let st = &mut *self.state;
        if let Some(message) = &st.failed {
            return Err(message.clone());
        }
        st.check_mirror().map_err(|message| st.poison(message))
    }

    /// This shard's id.
    #[must_use]
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// The shard's tree.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        self.state.tree.get()
    }

    /// Read-only view of the shard policy's cache (shard-local ids).
    #[must_use]
    pub fn cache(&self) -> &CacheSet {
        self.state.policy.cache()
    }

    /// The shard policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.state.policy.name()
    }
}

/// One `Engine` API over forests of trees: per-shard verified policies,
/// batch submission with O(1) routing, parallel per-shard execution.
///
/// ```
/// use std::sync::Arc;
/// use otc_core::forest::{Forest, ShardId};
/// use otc_core::policy::CachePolicy;
/// use otc_core::tc::{TcConfig, TcFast};
/// use otc_core::tree::Tree;
/// use otc_core::Request;
/// use otc_sim::engine::{EngineConfig, ShardedEngine};
///
/// // A star of 8 leaves split into 4 shards, each with its own TC.
/// let tree = Tree::star(8);
/// let forest = Forest::partition(&tree, 4);
/// let factory = |shard_tree: Arc<Tree>, _shard: ShardId| {
///     Box::new(TcFast::new(shard_tree, TcConfig::new(2, 2))) as Box<dyn CachePolicy>
/// };
/// let mut engine = ShardedEngine::new(forest, &factory, EngineConfig::new(2).threads(4));
///
/// // Globally-addressed batch: the engine routes each request home.
/// let reqs: Vec<Request> = (1..=8).flat_map(|v| {
///     std::iter::repeat(Request::pos(otc_core::tree::NodeId(v))).take(2)
/// }).collect();
/// engine.submit_batch(&reqs).unwrap();
/// let report = engine.into_report().unwrap();
/// assert_eq!(report.cost.service, 16); // every leaf paid α = 2 before its fetch
/// assert_eq!(report.nodes_fetched, 8);
/// ```
pub struct ShardedEngine<'p> {
    /// `None` for the borrowed single-shard adapter (identity routing).
    forest: Option<Forest>,
    shards: Vec<ShardState<'p>>,
    cfg: EngineConfig,
    failed: Option<EngineError>,
    /// Cached [`Forest::is_identity_routing`] (always true without a
    /// forest): lets single-shard batches drain straight from the
    /// caller's slice.
    identity_routing: bool,
}

impl<'p> ShardedEngine<'p> {
    /// Builds an engine over `forest`, asking `factory` for one policy per
    /// shard.
    #[must_use]
    pub fn new(forest: Forest, factory: &dyn PolicyFactory, cfg: EngineConfig) -> Self {
        let shards = (0..forest.num_shards())
            .map(|s| {
                let sid = ShardId(s as u32);
                let tree = Arc::clone(forest.tree(sid));
                let policy: Box<dyn CachePolicy + 'p> = factory.build(Arc::clone(&tree), sid);
                Self::shard_state(TreeRef::Owned(tree), policy, &cfg)
            })
            .collect();
        Self::assemble(Some(forest), shards, cfg)
    }

    /// A single-shard engine over an owned tree and policy.
    #[must_use]
    pub fn single(tree: Arc<Tree>, policy: Box<dyn CachePolicy + 'p>, cfg: EngineConfig) -> Self {
        let state = Self::shard_state(TreeRef::Owned(Arc::clone(&tree)), policy, &cfg);
        Self::assemble(Some(Forest::single(tree)), vec![state], cfg)
    }

    /// A single-shard engine borrowing the caller's tree and policy — the
    /// zero-copy adapter path behind [`crate::run_policy`] /
    /// [`crate::run_stream`].
    #[must_use]
    pub fn single_borrowed(
        tree: &'p Tree,
        policy: &'p mut dyn CachePolicy,
        cfg: EngineConfig,
    ) -> Self {
        let state = Self::shard_state(TreeRef::Borrowed(tree), Box::new(policy), &cfg);
        Self::assemble(None, vec![state], cfg)
    }

    /// The engine over `shards`, routed by `forest` (`None`: identity).
    fn assemble(forest: Option<Forest>, shards: Vec<ShardState<'p>>, cfg: EngineConfig) -> Self {
        let identity_routing = forest.as_ref().is_none_or(Forest::is_identity_routing);
        Self { forest, shards, cfg, failed: None, identity_routing }
    }

    pub(crate) fn shard_state(
        tree: TreeRef<'p>,
        policy: Box<dyn CachePolicy + 'p>,
        cfg: &EngineConfig,
    ) -> ShardState<'p> {
        let n = tree.get().len();
        let report = Report { name: policy.name().to_string(), ..Report::default() };
        let mut driver = Driver::new(n, cfg.alpha);
        // Resumable drives: a borrowed policy may already hold cache
        // content from an earlier run; the mirror starts from its real
        // state (empty for freshly built policies). A cache the driver
        // refuses poisons the shard: its first drive returns the refusal.
        let failed = driver.adopt_cache(tree.get(), policy.cache(), policy.capacity()).err();
        ShardState {
            tree,
            policy,
            driver,
            report,
            queue: Vec::new(),
            round: 0,
            failed,
            windows: Vec::new(),
            win_base: WindowBase::default(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// The forest this engine routes over (`None` for the borrowed
    /// single-shard adapter, which routes identically).
    #[must_use]
    pub fn forest(&self) -> Option<&Forest> {
        self.forest.as_ref()
    }

    fn check_live(&self) -> Result<(), EngineError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn fail(&mut self, shard: ShardId, message: String) -> EngineError {
        let e = EngineError { shard: Some(shard), message };
        self.failed = Some(e.clone());
        e
    }

    /// Promotes the first shard violation (by shard index) to the
    /// engine-level failure unless the engine already has one, then
    /// returns the engine's failure, if any. Shards record violations
    /// that no engine call returned: inside discarded
    /// [`ShardedEngine::map_shards`] results, or at construction.
    fn sweep_failures(&mut self) -> Result<(), EngineError> {
        if self.failed.is_none() {
            let first =
                self.shards.iter().enumerate().find_map(|(s, st)| Some((s, st.failed.clone()?)));
            if let Some((s, message)) = first {
                self.fail(ShardId(s as u32), message);
            }
        }
        self.check_live()
    }

    /// Routes a globally-addressed request. O(1); errors on ids outside
    /// the global space.
    fn route(&self, r: Request) -> Result<(usize, Request), EngineError> {
        match &self.forest {
            Some(f) => {
                if r.node.index() >= f.global_len() {
                    return Err(EngineError {
                        shard: None,
                        message: format!(
                            "request targets node {} but the forest has {} nodes",
                            r.node,
                            f.global_len()
                        ),
                    });
                }
                let (s, local) = f.route_request(r);
                Ok((s.index(), local))
            }
            // Borrowed single shard: identity routing; the drain loop
            // bounds-checks against the tree.
            None => Ok((0, r)),
        }
    }

    /// Submits one globally-addressed request, processed inline, and
    /// reports what it did.
    ///
    /// # Errors
    /// Routing errors and the simulator's classic protocol violations; any
    /// violation poisons the engine (subsequent calls return it again).
    pub fn submit(&mut self, req: Request) -> Result<SubmitOutcome, EngineError> {
        self.check_live()?;
        let (s, local) = self.route(req)?;
        let sid = ShardId(s as u32);
        let mut handle = ShardHandle { state: &mut self.shards[s], shard: sid, cfg: self.cfg };
        match handle.step(local).and_then(|out| handle.end_batch().map(|()| out)) {
            Ok(out) => Ok(out),
            Err(message) => Err(self.fail(sid, message)),
        }
    }

    /// Submits a batch of globally-addressed requests: routes each into
    /// its shard's queue, then drains all shards in parallel on
    /// `cfg.threads` scoped worker threads. Within a shard, requests are
    /// processed in batch order; thread count never changes any result.
    ///
    /// Queue storage is retained across batches, so once queues reach the
    /// workload's high-water mark a steady-state batch allocates nothing
    /// beyond the O(threads) cost of the worker scope itself (zero with
    /// `threads = 1`).
    ///
    /// # Errors
    /// Routing errors (which reject the whole batch atomically — nothing
    /// from it is applied) and protocol violations (first failing shard
    /// wins); any violation poisons the engine.
    pub fn submit_batch(&mut self, reqs: &[Request]) -> Result<(), EngineError> {
        self.check_live()?;
        let cfg = self.cfg;
        // Fast path: identity routing (the borrowed adapter, or an owned
        // single shard whose local ids equal the global ids) drains
        // straight from the caller's slice. A 1-shard *partitioned* forest
        // can renumber nodes, so it must route like any other.
        if self.shards.len() == 1 && self.identity_routing {
            return match self.shards[0].drain(reqs, &cfg) {
                Ok(()) => Ok(()),
                Err(message) => Err(self.fail(ShardId(0), message)),
            };
        }
        for &r in reqs {
            match self.route(r) {
                Ok((s, local)) => self.shards[s].queue.push(local),
                Err(e) => {
                    // Queues are empty between calls, so clearing them
                    // unroutes exactly this batch.
                    for st in &mut self.shards {
                        st.queue.clear();
                    }
                    return Err(e);
                }
            }
        }
        self.drain_queues()
    }

    /// Drains every shard's queue, in parallel on `cfg.threads` workers;
    /// the second half of [`ShardedEngine::submit_batch`].
    fn drain_queues(&mut self) -> Result<(), EngineError> {
        let cfg = self.cfg;
        if self.shards.iter().all(|st| st.queue.is_empty()) {
            return Ok(());
        }
        if cfg.threads <= 1 {
            for s in 0..self.shards.len() {
                if let Err(message) = self.shards[s].drain_queue(&cfg) {
                    return Err(self.fail(ShardId(s as u32), message));
                }
            }
            return Ok(());
        }
        let results =
            otc_util::parallel_map_mut(&mut self.shards, cfg.threads, |_, st| st.drain_queue(&cfg));
        for (s, result) in results.into_iter().enumerate() {
            if let Err(message) = result {
                return Err(self.fail(ShardId(s as u32), message));
            }
        }
        Ok(())
    }

    /// Streams an OTCT trace through the engine: validates the trace's
    /// declared universe against the forest, then repeatedly fills `chunk`
    /// (up to its capacity; a fresh buffer is given a 64Ki-request
    /// default) and batch-submits it — so arbitrarily long file-backed
    /// traces replay without ever being materialised, and steady-state
    /// replay rounds stay allocation-free once `chunk` and the shard
    /// queues are warm. Rebalance records are skipped.
    ///
    /// Replaying a recorded trace is bit-identical to submitting the
    /// generating sequence in memory (pinned by
    /// `crates/sim/tests/trace_replay.rs`).
    ///
    /// # Errors
    /// Universe mismatches, trace I/O/corruption errors (a torn tail
    /// included, with the record index), routing errors, and protocol
    /// violations.
    pub fn replay_trace<R: Read>(
        &mut self,
        reader: &mut TraceReader<R>,
        chunk: &mut Vec<Request>,
    ) -> Result<(), EngineError> {
        self.replay_events(reader, chunk, None, false).map(drop)
    }

    /// The one replay loop behind [`ShardedEngine::replay_trace`],
    /// [`ShardedEngine::replay_tail`] and
    /// [`replay_trace_rebalancing`](crate::rebalance::replay_trace_rebalancing):
    /// checks the trace's declared universe against the forest, then reads
    /// events into `chunk` (reused; a fresh buffer gets
    /// [`DEFAULT_REPLAY_CHUNK`] requests of capacity) and submits each
    /// full chunk.
    ///
    /// With a `rebalancer`, a boundary fires when the reader's absolute
    /// record count reaches [`Rebalancer::next_boundary_at`] — the chunk
    /// is submitted first, so the boundary samples exactly its prefix —
    /// and every rebalance record is verified against the recomputed
    /// decision. Without one, rebalance records are skipped. A torn tail
    /// (`UnexpectedEof`) ends the replay when `torn_tail_ends` is set and
    /// is an error otherwise; any other trace error is always an error.
    pub(crate) fn replay_events<R: Read>(
        &mut self,
        reader: &mut TraceReader<R>,
        chunk: &mut Vec<Request>,
        mut rebalancer: Option<&mut Rebalancer>,
        torn_tail_ends: bool,
    ) -> Result<RebalanceReplay, EngineError> {
        self.check_live()?;
        let plain = |message: String| EngineError { shard: None, message };
        if let Some(f) = &self.forest {
            let universe = reader.header().universe;
            if universe > 0 && universe as usize != f.global_len() {
                return Err(plain(format!(
                    "trace declares a universe of {universe} nodes but the forest has {}",
                    f.global_len()
                )));
            }
        }
        if chunk.capacity() == 0 {
            chunk.reserve_exact(DEFAULT_REPLAY_CHUNK);
        }
        let limit = chunk.capacity();
        chunk.clear();
        let mut out = RebalanceReplay::default();
        let mut last_verified = rebalancer.as_ref().map_or(0, |r| r.boundaries());
        loop {
            let event = match reader.next_event() {
                Ok(Some(event)) => event,
                Ok(None) => break,
                Err(e) if torn_tail_ends && e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    out.torn_tail = true;
                    break;
                }
                Err(e) => return Err(plain(format!("trace replay failed: {e}"))),
            };
            match (event, rebalancer.as_deref_mut()) {
                (TraceEvent::Request(r), reb) => {
                    chunk.push(r);
                    let boundary =
                        reb.filter(|reb| reader.records_read() == reb.next_boundary_at());
                    if boundary.is_some() || chunk.len() >= limit {
                        out.replayed += chunk.len() as u64;
                        self.submit_batch(chunk)?;
                        chunk.clear();
                    }
                    if let Some(reb) = boundary {
                        let loads = self.cell_loads()?;
                        out.schedule.push(reb.on_boundary(&loads).map_err(plain)?);
                    }
                }
                (TraceEvent::Rebalance(record), Some(_)) => {
                    let Some(expect) = out.schedule.last() else {
                        return Err(plain(format!(
                            "rebalance record for boundary {} appears before any boundary \
                             was crossed",
                            record.boundary
                        )));
                    };
                    if record.boundary <= last_verified {
                        return Err(plain(format!(
                            "duplicate rebalance record for boundary {}",
                            record.boundary
                        )));
                    }
                    if record != *expect {
                        return Err(plain(format!(
                            "rebalance record for boundary {} does not match the decision \
                             recomputed from the request stream (recomputed boundary {}, \
                             epoch {}, {} moves)",
                            record.boundary,
                            expect.boundary,
                            expect.epoch,
                            expect.moves.len()
                        )));
                    }
                    last_verified = record.boundary;
                    out.verified += 1;
                }
                (TraceEvent::Rebalance(_), None) => {}
            }
        }
        if !chunk.is_empty() {
            out.replayed += chunk.len() as u64;
            self.submit_batch(chunk)?;
            chunk.clear();
        }
        Ok(out)
    }

    /// Samples every shard's cumulative load counters — rounds, paid
    /// rounds, cache occupancy — as one
    /// [`CellLoad`](otc_workloads::rebalance::CellLoad) per shard, in
    /// shard order. This is the decision input of
    /// [`crate::rebalance::Rebalancer::on_boundary`]: a pure function of
    /// the requests executed so far, so live serving and trace replay
    /// sample identical values at identical stream positions.
    ///
    /// # Errors
    /// A poisoned engine.
    pub fn cell_loads(&mut self) -> Result<Vec<otc_workloads::rebalance::CellLoad>, EngineError> {
        self.check_live()?;
        Ok(self
            .shards
            .iter()
            .map(|st| otc_workloads::rebalance::CellLoad {
                rounds: st.report.rounds,
                paid_rounds: st.report.paid_rounds,
                occupancy: st.driver.cache_len() as u64,
            })
            .collect())
    }

    /// The windowed telemetry collected so far: every closed window of
    /// every shard in `(shard, window)` order, plus — per shard with
    /// rounds past its last boundary — one trailing window flagged
    /// `partial`. Empty unless the engine ran with
    /// [`EngineConfig::telemetry`]; window length is the
    /// [`EngineConfig::audit_every`] cadence. Non-destructive: call it any
    /// time, including right before [`ShardedEngine::into_report`].
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        let mut windows = Vec::new();
        for (s, st) in self.shards.iter().enumerate() {
            st.collect_windows(s as u32, self.cfg.telemetry, &mut windows);
        }
        crate::worker::timeline_from_windows(&self.cfg, self.shards.len() as u32, windows)
    }

    /// Runs `f` once per shard — in parallel on `cfg.threads` workers —
    /// with step-level access through a [`ShardHandle`], then checks each
    /// shard's policy cache against its mirror. Returns the per-shard
    /// results in shard order.
    ///
    /// This is the extension point for application pipelines whose event
    /// semantics need more than a flat request stream (cache probes,
    /// per-event counters): `otc_sdn::run_fib_sharded` is the canonical
    /// user.
    pub fn map_shards<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut ShardHandle<'_, 'p>) -> R + Sync,
    {
        let cfg = self.cfg;
        let results = otc_util::parallel_map_mut(&mut self.shards, cfg.threads, |i, st| {
            let mut handle = ShardHandle { state: st, shard: ShardId(i as u32), cfg };
            let out = f(&mut handle);
            // Recorded on the shard; surfaced by the sweep below.
            let _ = handle.end_batch();
            out
        });
        // A violation inside a shard loop poisons the engine even if the
        // closure discarded the error.
        let _ = self.sweep_failures();
        results
    }

    /// Finishes every shard (closing open phases into instrumentation) and
    /// returns the per-shard reports in shard order.
    ///
    /// # Errors
    /// Returns the stored error if any prior submission failed, or a
    /// mirror that fails the final subforest walk.
    pub fn into_reports(mut self) -> Result<Vec<Report>, EngineError> {
        self.sweep_failures()?;
        let cfg = self.cfg;
        self.shards
            .into_iter()
            .enumerate()
            .map(|(s, st)| {
                let mut report = st.report;
                st.driver
                    .finish(st.tree.get(), &cfg, &mut report)
                    .map_err(|message| EngineError { shard: Some(ShardId(s as u32)), message })?;
                Ok(report)
            })
            .collect()
    }

    /// Finishes every shard and aggregates the per-shard reports into one
    /// [`Report`] (see [`aggregate_reports`]). For a 1-shard engine this
    /// is bit-identical to the classic drivers' report.
    ///
    /// # Errors
    /// Returns the stored error if any prior submission failed.
    pub fn into_report(self) -> Result<Report, EngineError> {
        Ok(aggregate_reports(self.into_reports()?))
    }

    /// Size of the global node-id space this engine routes over.
    fn global_len(&self) -> usize {
        match &self.forest {
            Some(f) => f.global_len(),
            None => self.shards[0].tree.get().len(),
        }
    }

    /// Serializes the engine's complete state into `out` (cleared first)
    /// as an `OTCS` snapshot stamped with `log` — the trace position the
    /// state corresponds to. Non-consuming: the engine keeps
    /// running, and restoring the snapshot into a fresh engine then
    /// replaying the log tail reproduces this engine bit-for-bit (see
    /// [`ShardedEngine::recover`]).
    ///
    /// # Errors
    /// A poisoned engine, or a shard policy that does not support snapshots
    /// ([`CachePolicy::save_state`]).
    pub fn write_snapshot(
        &mut self,
        log: crate::snapshot::LogPosition,
        out: &mut Vec<u8>,
    ) -> Result<(), EngineError> {
        self.check_live()?;
        out.clear();
        let meta = crate::snapshot::SnapshotMeta::of(
            &self.cfg,
            self.global_len(),
            self.shards.len() as u32,
            log,
        );
        crate::snapshot::write_header(&meta, out);
        for (s, st) in self.shards.iter().enumerate() {
            crate::snapshot::write_section(s as u32, st, out)
                .map_err(|message| EngineError { shard: Some(ShardId(s as u32)), message })?;
        }
        crate::snapshot::finish_snapshot(out);
        Ok(())
    }

    /// Restores a parsed snapshot into this engine, replacing every
    /// shard's policy state, driver, report and telemetry with the
    /// snapshot's. The snapshot must be compatible (same result-affecting
    /// configuration, same forest shape, same trees, same policies) —
    /// those checks all run before anything is mutated. A failure *after*
    /// mutation begins (a policy blob that fails its own audit, or a
    /// cross-section inconsistency) poisons the engine instead of leaving
    /// a silently split state.
    ///
    /// # Errors
    /// [`SnapshotError`](crate::snapshot::SnapshotError) text for
    /// compatibility mismatches; restore failures carry the shard id.
    pub fn restore_snapshot(
        &mut self,
        snap: &crate::snapshot::EngineSnapshot,
    ) -> Result<(), EngineError> {
        self.check_live()?;
        snap.check_compatible(&self.cfg, self.global_len(), self.shards.len())
            .map_err(|e| EngineError { shard: None, message: e.to_string() })?;
        // Pure identity prechecks on every shard before mutating any, so
        // a refusal leaves the whole engine untouched and usable.
        for (s, st) in self.shards.iter().enumerate() {
            crate::snapshot::precheck_section(&snap.sections[s], st)
                .map_err(|message| EngineError { shard: Some(ShardId(s as u32)), message })?;
        }
        for (s, st) in self.shards.iter_mut().enumerate() {
            if let Err(message) = crate::snapshot::restore_section_into(&snap.sections[s], st) {
                // Earlier shards are already on the snapshot: the engine
                // is split across time, so the failure must poison it.
                return Err(self.fail(ShardId(s as u32), message));
            }
        }
        Ok(())
    }

    /// Replays the rest of `reader` with crash-tolerant tail handling:
    /// a clean end of input and a **torn tail** (a record cut mid-write
    /// by a crash, surfacing as `UnexpectedEof`) both end the replay
    /// normally — the engine then holds the state of the log's longest
    /// consistent prefix, reported via [`RecoverStats`](crate::snapshot::RecoverStats).
    /// In-universe corruption (`InvalidData`) is still a hard error:
    /// a decodable-but-wrong record cannot be distinguished from real
    /// input, so anything detectably wrong must stop recovery.
    ///
    /// # Errors
    /// Universe mismatches, non-EOF trace errors, routing errors, and
    /// protocol violations.
    pub fn replay_tail<R: Read>(
        &mut self,
        reader: &mut TraceReader<R>,
        chunk: &mut Vec<Request>,
    ) -> Result<crate::snapshot::RecoverStats, EngineError> {
        let out = self.replay_events(reader, chunk, None, true)?;
        Ok(crate::snapshot::RecoverStats { replayed: out.replayed, torn_tail: out.torn_tail })
    }

    /// Crash recovery: restores `snap`, seeks `reader` to the snapshot's
    /// [`LogPosition`](crate::snapshot::LogPosition), and replays the log
    /// tail with [`ShardedEngine::replay_tail`]'s torn-tail tolerance.
    /// The result is bit-identical to an engine that processed the whole
    /// log uninterrupted (determinism invariant #6). The caller must
    /// ensure the log actually extends to the snapshot's offset (a log
    /// shorter than its snapshot means the snapshot is from a different
    /// or newer log — `otc-serve` checks this before picking one).
    ///
    /// # Errors
    /// Restore failures, seek I/O errors, and everything
    /// [`ShardedEngine::replay_tail`] can return.
    pub fn recover<R: Read + std::io::Seek>(
        &mut self,
        snap: &crate::snapshot::EngineSnapshot,
        reader: &mut TraceReader<R>,
        chunk: &mut Vec<Request>,
    ) -> Result<crate::snapshot::RecoverStats, EngineError> {
        self.restore_snapshot(snap)?;
        reader.seek_to(snap.meta.log.offset, snap.meta.log.records).map_err(|e| EngineError {
            shard: None,
            message: format!("cannot seek the trace to the snapshot's log position: {e}"),
        })?;
        self.replay_tail(reader, chunk)
    }
}

impl ShardedEngine<'static> {
    /// Takes the engine apart for serving: one cheap cloneable
    /// [`crate::worker::ShardRouter`] (the routing view, shared by
    /// ingress threads) plus one self-contained, `Send`
    /// [`crate::worker::ShardWorker`] per shard (tree, policy, verified
    /// driver, report and telemetry state — ready to be pinned to a
    /// persistent worker thread). Only owned engines detach
    /// (the borrowed single-shard adapters are tied to their caller's
    /// stack); see `crates/sim/src/worker.rs` for the contract the
    /// workers keep.
    ///
    /// # Errors
    /// Returns the stored error if the engine is poisoned.
    pub fn into_workers(
        mut self,
    ) -> Result<(crate::worker::ShardRouter, Vec<crate::worker::ShardWorker>), EngineError> {
        self.sweep_failures()?;
        let shard_sizes: Vec<u32> =
            self.shards.iter().map(|st| st.tree.get().len() as u32).collect();
        let global_len = self.global_len();
        let router = crate::worker::ShardRouter::new(self.forest, shard_sizes, global_len);
        let cfg = self.cfg;
        let workers = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(s, st)| crate::worker::ShardWorker::new(st, ShardId(s as u32), cfg))
            .collect();
        Ok((router, workers))
    }
}

/// Merges per-shard reports into one: costs, rounds and event counters
/// sum; `peak_cache` sums (the forest's aggregate cache footprint); field
/// and period statistics sum component-wise (present only when every shard
/// was instrumented); phase records concatenate in shard order. The name
/// is the first shard's policy name. Merging a single report is the
/// identity.
///
/// # Panics
/// Panics if `reports` is empty.
#[must_use]
pub fn aggregate_reports(reports: Vec<Report>) -> Report {
    assert!(!reports.is_empty(), "nothing to aggregate");
    let mut iter = reports.into_iter();
    let mut total = iter.next().expect("non-empty");
    for r in iter {
        total.cost.add(r.cost);
        total.rounds += r.rounds;
        total.paid_rounds += r.paid_rounds;
        total.fetch_events += r.fetch_events;
        total.evict_events += r.evict_events;
        total.flush_events += r.flush_events;
        total.nodes_fetched += r.nodes_fetched;
        total.nodes_evicted += r.nodes_evicted;
        total.nodes_flushed += r.nodes_flushed;
        total.peak_cache += r.peak_cache;
        total.fields = match (total.fields.take(), r.fields) {
            (Some(mut a), Some(b)) => {
                a.positive_fields += b.positive_fields;
                a.negative_fields += b.negative_fields;
                a.total_size += b.total_size;
                a.total_requests += b.total_requests;
                a.saturation_violations += b.saturation_violations;
                a.field_sizes.extend(b.field_sizes);
                a.open_field_requests += b.open_field_requests;
                Some(a)
            }
            _ => None,
        };
        total.periods = match (total.periods.take(), r.periods) {
            (Some(mut a), Some(b)) => {
                a.pout += b.pout;
                a.pin += b.pin;
                a.full_out += b.full_out;
                a.full_in += b.full_in;
                a.per_phase_balance.extend(b.per_phase_balance);
                Some(a)
            }
            _ => None,
        };
        total.phases.extend(r.phases);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::tests::{mixed, Scripted};
    use otc_core::policy::ActionKind;
    use otc_core::tc::{TcConfig, TcFast};
    use otc_core::tree::NodeId;
    use otc_core::Request;

    fn tc_factory(
        alpha: u64,
        capacity: usize,
    ) -> impl Fn(Arc<Tree>, ShardId) -> Box<dyn CachePolicy> {
        move |tree, _| Box::new(TcFast::new(tree, TcConfig::new(alpha, capacity)))
    }

    #[test]
    fn single_shard_engine_matches_run_policy() {
        let tree = Arc::new(Tree::kary(2, 4));
        let reqs = mixed(tree.len(), 4000, 7);
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(3, 6));
        let base = crate::run_policy(&tree, &mut tc, &reqs, EngineConfig::new(3)).expect("valid");

        let factory = tc_factory(3, 6);
        let mut engine =
            ShardedEngine::new(Forest::single(Arc::clone(&tree)), &factory, EngineConfig::new(3));
        engine.submit_batch(&reqs).expect("valid");
        let report = engine.into_report().expect("valid");
        assert_eq!(report, base, "1-shard engine must be bit-identical to run_policy");
    }

    #[test]
    fn batch_order_is_preserved_per_shard_regardless_of_threads() {
        let tree = Tree::star(16);
        let reqs = mixed(tree.len(), 6000, 11);
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let factory = tc_factory(2, 3);
            let mut engine = ShardedEngine::new(
                Forest::partition(&tree, 4),
                &factory,
                EngineConfig::new(2).threads(threads),
            );
            for chunk in reqs.chunks(512) {
                engine.submit_batch(chunk).expect("valid");
            }
            reports.push(engine.into_report().expect("valid"));
        }
        assert_eq!(reports[0], reports[1], "thread count must never change results");
    }

    #[test]
    fn multi_shard_matches_sum_of_independent_runs() {
        let trees: Vec<Arc<Tree>> =
            vec![Arc::new(Tree::kary(2, 3)), Arc::new(Tree::path(5)), Arc::new(Tree::star(6))];
        let forest = Forest::from_trees(trees.clone());
        let reqs = mixed(forest.global_len(), 5000, 13);

        let factory = tc_factory(2, 4);
        let mut engine = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(2));
        engine.submit_batch(&reqs).expect("valid");
        let per_shard = engine.into_reports().expect("valid");

        for (s, tree) in trees.iter().enumerate() {
            let local: Vec<Request> = reqs
                .iter()
                .filter_map(|&r| {
                    let (sid, lr) = forest.route_request(r);
                    (sid.index() == s).then_some(lr)
                })
                .collect();
            let mut tc = TcFast::new(Arc::clone(tree), TcConfig::new(2, 4));
            let solo =
                crate::run_policy(tree, &mut tc, &local, EngineConfig::new(2)).expect("valid");
            assert_eq!(per_shard[s], solo, "shard {s} must equal its independent run");
        }
    }

    #[test]
    fn submit_single_matches_batch() {
        let tree = Tree::star(8);
        let reqs = mixed(tree.len(), 1000, 17);
        let factory = tc_factory(2, 2);
        let mut a = ShardedEngine::new(Forest::partition(&tree, 3), &factory, EngineConfig::new(2));
        for &r in &reqs {
            a.submit(r).expect("valid");
        }
        let mut b = ShardedEngine::new(Forest::partition(&tree, 3), &factory, EngineConfig::new(2));
        b.submit_batch(&reqs).expect("valid");
        assert_eq!(a.into_report().expect("valid"), b.into_report().expect("valid"));
    }

    #[test]
    fn out_of_range_requests_are_rejected() {
        let tree = Tree::star(3);
        let factory = tc_factory(2, 2);
        let mut engine =
            ShardedEngine::new(Forest::partition(&tree, 2), &factory, EngineConfig::new(2));
        let err = engine.submit(Request::pos(NodeId(99))).unwrap_err();
        assert!(err.message.contains("99"), "unexpected error: {err}");
    }

    #[test]
    fn violation_poisons_the_engine() {
        let tree = Tree::star(2);
        let factory = |tree: Arc<Tree>, _| {
            Box::new(Scripted { lies: true, ..Scripted::new(tree.len(), &[], &[]) })
                as Box<dyn CachePolicy>
        };
        let mut engine =
            ShardedEngine::new(Forest::single(Arc::new(tree)), &factory, EngineConfig::new(2));
        let err = engine.submit(Request::pos(NodeId(1))).unwrap_err();
        assert!(err.message.contains("paid"), "unexpected error: {err}");
        assert_eq!(err.shard, Some(ShardId(0)));
        // Poisoned: everything keeps returning the stored violation.
        assert_eq!(engine.submit(Request::pos(NodeId(1))).unwrap_err(), err);
        assert_eq!(engine.into_report().unwrap_err(), err);
    }

    #[test]
    fn divergence_is_caught_at_every_batch_end() {
        let factory = |tree: Arc<Tree>, _| {
            // Claims to fetch leaf 1 without caching it.
            let script: &[(ActionKind, &[u32])] = &[(ActionKind::Fetch, &[1])];
            Box::new(Scripted { silent: true, ..Scripted::new(tree.len(), &[], script) })
                as Box<dyn CachePolicy>
        };
        let engine = || {
            ShardedEngine::new(
                Forest::single(Arc::new(Tree::star(2))),
                &factory,
                EngineConfig::new(2),
            )
        };
        let req = Request::pos(NodeId(1));
        let err = engine().submit(req).unwrap_err();
        assert!(err.message.contains("diverged"), "submit: {err}");
        let mut mapped = engine();
        mapped.map_shards(|handle| handle.step(req).is_ok());
        let err = mapped.into_report().unwrap_err();
        assert!(err.message.contains("diverged"), "map_shards: {err}");
        let (_, mut workers) = engine().into_workers().expect("detaches");
        let err = workers[0].step(req).unwrap_err();
        assert!(err.contains("diverged"), "worker step: {err}");
    }

    #[test]
    fn one_shard_partition_with_renumbered_nodes_routes_batches() {
        // Tree whose preorder differs from its id order: parents
        // [None, 0, 0, 1] has preorder 0,1,3,2, so Forest::partition
        // renumbers global 2 -> local 3 and global 3 -> local 2 even with
        // a single shard. Batch submission must route exactly like
        // per-request submission (regression: the 1-shard fast path used
        // to skip routing).
        let tree = Tree::from_parents(&[None, Some(0), Some(0), Some(1)]);
        let forest = Forest::partition(&tree, 1);
        assert!(!forest.is_identity_routing());
        let reqs = mixed(tree.len(), 600, 23);
        let factory = tc_factory(2, 2);
        let mut batched = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(2));
        batched.submit_batch(&reqs).expect("valid");
        let mut stepped = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(2));
        for &r in &reqs {
            stepped.submit(r).expect("valid");
        }
        let batched = batched.into_report().expect("valid");
        assert_eq!(batched, stepped.into_report().expect("valid"));
        // And both equal an independent run on the shard tree with
        // pre-routed requests.
        let local: Vec<Request> = reqs.iter().map(|&r| forest.route_request(r).1).collect();
        let mut tc = TcFast::new(Arc::clone(forest.tree(ShardId(0))), TcConfig::new(2, 2));
        let solo =
            crate::run_policy(forest.tree(ShardId(0)), &mut tc, &local, EngineConfig::new(2))
                .expect("valid");
        assert_eq!(batched, solo);
    }

    #[test]
    fn routing_error_rejects_the_batch_atomically() {
        // A bad request mid-batch must leave nothing staged: the corrected
        // retry equals a fresh engine's run (regression: the routed prefix
        // used to survive in the shard queues and replay later).
        let trees = vec![Arc::new(Tree::star(3)), Arc::new(Tree::star(3))];
        let forest = Forest::from_trees(trees);
        let factory = tc_factory(2, 2);
        let good = [Request::pos(NodeId(1)), Request::pos(NodeId(5)), Request::pos(NodeId(1))];

        let mut engine = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(2));
        let err =
            engine.submit_batch(&[Request::pos(NodeId(1)), Request::pos(NodeId(99))]).unwrap_err();
        assert!(err.message.contains("99"), "unexpected error: {err}");
        // Rejected batches poison nothing and leave nothing behind.
        engine.submit_batch(&good).expect("valid");

        let mut fresh = ShardedEngine::new(forest, &factory, EngineConfig::new(2));
        fresh.submit_batch(&good).expect("valid");
        assert_eq!(engine.into_report().expect("valid"), fresh.into_report().expect("valid"));
    }

    #[test]
    fn map_shards_violation_poisons_even_if_discarded() {
        let factory = |tree: Arc<Tree>, _| {
            Box::new(Scripted { lies: true, ..Scripted::new(tree.len(), &[], &[]) })
                as Box<dyn CachePolicy>
        };
        let mut engine = ShardedEngine::new(
            Forest::single(Arc::new(Tree::star(2))),
            &factory,
            EngineConfig::new(2),
        );
        // The closure drives the shard into a violation and throws the
        // error away — the engine must still refuse to report.
        let _ = engine.map_shards(|handle| handle.step(Request::pos(NodeId(1))).is_ok());
        let err = engine.into_report().unwrap_err();
        assert!(err.message.contains("paid"), "unexpected error: {err}");
        assert_eq!(err.shard, Some(ShardId(0)));
    }

    #[test]
    fn aggregate_of_one_is_identity() {
        let mut r = Report { name: "x".to_string(), ..Report::default() };
        r.cost.service = 5;
        r.peak_cache = 3;
        assert_eq!(aggregate_reports(vec![r.clone()]), r);
    }
}
