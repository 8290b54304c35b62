//! The loopback TCP serving front-end over detached engine shards.
//!
//! Thread architecture (one arrow = one `otc_util::ring` channel or TCP
//! stream; see `DESIGN.md` "The serving runtime" for the full diagram):
//!
//! ```text
//! client A ──TCP──▶ conn thread A ─┐            ┌─▶ lane 0   {groups 0, L, 2L…}
//! client B ──TCP──▶ conn thread B ─┤─ ingress ──┤─▶ lane 1   {groups 1, L+1…}
//! client C ──TCP──▶ conn thread C ─┘   lock     └─▶ lane L-1 {groups L-1, 2L-1…}
//!                                      │
//!                                      └─▶ OTCT trace log
//! ```
//!
//! * One **acceptor** thread hands connections to per-connection threads.
//! * Each **connection** thread speaks the wire protocol and pushes
//!   accepted batches through the single **ingress** critical section.
//!   Ingress stages each frame's requests into one run per lane and
//!   pushes every run with a single [`ring::Sender::send_batch`]: one
//!   ring lock per lane per frame, not per request. The worker
//!   wake-ups leave the critical path entirely: each push returns a
//!   [`ring::Wake`] guard, and the connection thread drops the guards
//!   only after the `Ack`s are flushed — outside the ingress lock and
//!   after the client has its answer.
//! * A connection thread **flushes once per read burst**: after
//!   answering a frame it flushes (and drops its guards) only when its
//!   read buffer does not already hold the next complete frame. A
//!   client that pipelines k frames in one write gets k `Ack`s in one
//!   write, and the lanes the burst fed are woken once it is answered,
//!   not after each frame. The price is that the first `Ack` of a burst
//!   also waits for the ingest of the frames buffered behind it — at
//!   most one read buffer's worth (8 KiB). A client that sends one
//!   frame and waits never has a next frame buffered, so its replies go
//!   out at once. Nothing waits on a deferred wake: a sender that finds
//!   a ring full wakes its worker first, markers go out with the eager
//!   [`ring::Sender::send`], and a `Drain` wakes every lane before it
//!   waits.
//! * A serving **group** is the unit the rebalancer places, logs and
//!   replays. Without a [`RebalancePolicy`] there is exactly one group
//!   per shard; with one, cells migrate between groups at decision
//!   boundaries (see below).
//! * A **lane** is a persistent worker thread: the service runs
//!   `L = min(groups, available_parallelism())` of them, and group `g`
//!   runs on lane `g % L`. A lane owns the
//!   [`otc_sim::worker::ShardWorker`] cells of every group it hosts,
//!   fed by one bounded [`otc_util::ring::channel`] — a full queue
//!   blocks ingress (backpressure) instead of buffering unboundedly. In
//!   the paper's model a cell's cost depends only on the order of its
//!   own requests, so the thread count is free as long as each cell
//!   keeps its FIFO order, and the lane ring keeps it.
//!
//! **The rebalance boundary protocol.** With
//! [`ServeConfig::rebalance`] set, every `interval` accepted requests
//! the ingress (still under its one lock) floats a `Probe` marker down
//! every lane ring and blocks until each lane has reported its cells'
//! cumulative loads — FIFO means each lane answers after executing
//! exactly the boundary prefix, and lane threads never take the ingress
//! lock, so the wait always makes progress. The sampled loads drive
//! [`otc_sim::Rebalancer::on_boundary`] (a pure function of the logged
//! stream), the decision is appended to the OTCT log as a
//! `RebalanceRecord`, and the moves are executed once per cell whose
//! owner changed (the greedy planner may move a cell twice in one
//! decision; live, it migrates once, from its owner before the boundary
//! to its owner after it). A move between two groups on the same lane
//! sends nothing: the cell already sits in that lane, and the routing
//! table alone moves it. A move across lanes is a `MigrateOut` /
//! `Install` marker pair. **All** `MigrateOut`s are enqueued before
//! **any** `Install`, so per-ring FIFO guarantees every lane offers
//! its outgoing cells before it can block on an incoming handoff — no
//! rendezvous cycle. Ingress does not wait for installs: a post-boundary
//! request for a migrated cell sits FIFO-behind the `Install` marker in
//! the destination ring, so it can never reach a half-migrated cell.
//! Migration failure poisons the service — the logged schedule promised
//! a migration that did not happen, so the replay identity would be
//! broken, exactly like a dropped logged request.
//!
//! **The determinism seam.** The ingress lock makes "append to the OTCT
//! log" and "enqueue to the shard rings" one atomic step, so the
//! per-shard projection of the logged global order is exactly the FIFO
//! order each worker consumes. Staging does not loosen this: a request
//! is logged when it is appended to its lane's run, every run is
//! flushed before the lock is released, and the runs are also flushed
//! before any marker is enqueued (a rebalance `Probe`, a snapshot
//! `Cut`), so each marker still follows exactly the prefix it
//! addresses. Per-shard cost is a function of per-shard request order
//! only (shards are independent), therefore the live
//! service's per-shard [`Report`]s — and their aggregate — are
//! **bit-identical** to `ShardedEngine::replay_trace` of the logged
//! trace, at any shard count, client count and interleaving. Workers run
//! concurrently with ingress (and each other) the whole time; only the
//! route-and-enqueue step is serialised. `crates/serve/tests/loopback.rs`
//! pins the identity end to end.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Cursor, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use otc_core::forest::ShardId;
use otc_core::request::{Cost, Request};
use otc_obs::clock::{self, Stamp};
use otc_obs::MetricsSnapshot;
use otc_sim::engine::{EngineConfig, EngineError, ShardedEngine};
use otc_sim::snapshot::{self, EngineSnapshot, LogPosition, SnapshotMeta};
use otc_sim::worker::{timeline_from_windows, ShardRouter, ShardWorker};
use otc_sim::{aggregate_reports, Rebalancer, Report, Timeline};
use otc_util::ring;
use otc_workloads::rebalance::RebalanceRecord;
use otc_workloads::trace::{
    TraceEvent, TraceHeader, TraceReader, TraceWriter, TRACE_FLAG_REBALANCE,
};

use crate::obs::ServeMetrics;
use crate::rebalance::{net_moves, Handoff, Probe, RebalancePolicy};
use crate::wire::{self, Message, WIRE_VERSION};

/// Where the server logs the accepted request stream as an OTCT binary
/// trace. Every service logs: the log is what recovery, rebalance
/// verification and the replay identity all read.
#[derive(Debug, Clone, Default)]
pub enum TraceLog {
    /// Log into memory; [`ServeOutcome::trace_bytes`] returns the bytes.
    #[default]
    Memory,
    /// Log to a file at this path.
    File(PathBuf),
}

/// Cadence-driven crash snapshots: every `every` accepted requests the
/// ingress takes a *consistent cut* — it syncs the trace log and floats a
/// cut marker down every shard ring, so each worker serializes its OTCS
/// section after executing exactly the log prefix the cut addresses. No
/// shard pauses any other; the only global step is the marker enqueue,
/// under the same ingress lock every request already takes.
///
/// Snapshots land in `dir` as `snap-<records>.otcs` via a temp file and
/// an atomic rename: a crash mid-write can leave a stale `.tmp`, never a
/// half-written snapshot under the real name. Emission is best-effort —
/// a shard that is already poisoned, or an I/O error, aborts that cut
/// and the service keeps serving (recovery falls back to an older
/// snapshot or pure log replay).
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    /// Directory the OTCS images are written into (created if missing).
    pub dir: PathBuf,
    /// Take a cut every this many accepted requests (≥ 1).
    pub every: u64,
}

/// Serving options, separate from the engine semantics ([`EngineConfig`]
/// travels inside the engine handed to [`Server::start`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1 to bind (0 = ephemeral, read it back with
    /// [`Server::addr`]).
    pub port: u16,
    /// Capacity of each lane's ring (one ring per worker thread); a full
    /// ring blocks ingress (backpressure).
    pub queue_capacity: usize,
    /// Most ring items a lane worker drains per wakeup, over all the
    /// cells it hosts (bounds per-wakeup latency under burst).
    pub worker_batch: usize,
    /// Where the request stream is logged.
    pub log: TraceLog,
    /// Periodic engine snapshots, each addressing a position in the
    /// trace log. `None` = never snapshot; recovery is then pure log
    /// replay.
    pub snapshots: Option<SnapshotPolicy>,
    /// Dynamic resharding under live skew. `None` (the default) pins one
    /// serving group per shard forever; `Some` spreads the engine's
    /// cells over [`RebalancePolicy::groups`] serving groups and
    /// migrates cells between them at decision boundaries (see the
    /// module docs for the protocol and `DESIGN.md` for invariant #7).
    /// Either way the groups run on `min(groups,
    /// available_parallelism())` worker threads.
    pub rebalance: Option<RebalancePolicy>,
    /// Wall-clock stage-latency metrics ([`crate::obs::ServeMetrics`]).
    /// Off by default. Observation is a pure side-band — results, trace
    /// bytes, telemetry and rebalance schedules are bit-identical with
    /// metrics on, off, or scraped mid-run (invariant #8, proven by
    /// `crates/serve/tests/observer.rs`). The surface includes the
    /// paper's cost totals as counters (`otc_serve_rounds_total`,
    /// `otc_serve_paid_rounds_total`, `otc_serve_service_cost_total`,
    /// `otc_serve_reorg_cost_total`). On [`Server::resume`] the stage
    /// histograms and operational counters start fresh (wall-clock state
    /// is not recovered), while the cost counters resume at the
    /// recovered totals.
    pub metrics: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 0,
            queue_capacity: 4096,
            worker_batch: 512,
            log: TraceLog::Memory,
            snapshots: None,
            rebalance: None,
            metrics: false,
        }
    }
}

/// Everything a finished service hands back.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-shard verified reports, in shard order.
    pub per_shard: Vec<Report>,
    /// The aggregate report (see [`otc_sim::aggregate_reports`]).
    pub report: Report,
    /// Windowed telemetry (non-empty when the engine ran with
    /// `telemetry(true)`).
    pub timeline: Timeline,
    /// Requests accepted over the service's lifetime.
    pub requests_served: u64,
    /// The OTCT trace logged with [`TraceLog::Memory`].
    pub trace_bytes: Option<Vec<u8>>,
    /// The OTCT trace file written with [`TraceLog::File`].
    pub trace_path: Option<PathBuf>,
    /// Snapshot files completed over the service's lifetime.
    pub snapshots_written: u64,
    /// Rebalance summary (`None` when the service ran without a
    /// [`RebalancePolicy`]).
    pub rebalance: Option<RebalanceSummary>,
    /// Final wall-clock metrics scrape (`None` when the service ran
    /// without [`ServeConfig::metrics`]). Observe-only: nothing in the
    /// other fields depends on it.
    pub metrics: Option<MetricsSnapshot>,
}

/// What a rebalancing service did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceSummary {
    /// Decision boundaries crossed.
    pub boundaries: u64,
    /// Routing-table epoch at shutdown (one bump per boundary).
    pub epoch: u64,
    /// Final placement: `owners[cell]` is the group that hosted the cell
    /// at shutdown.
    pub owners: Vec<u32>,
    /// Cell moves decided: the total moves in the logged rebalance
    /// records across all boundaries, so it matches a replay of the log
    /// and stays exact across a [`Server::resume`] (the moves in the
    /// recovered prefix are counted, not re-executed). A cell the
    /// planner moved twice in one decision migrates once live but counts
    /// twice here.
    pub migrations: u64,
}

/// What [`Server::resume`] reconstructed before serving again.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// Record count of the snapshot recovery started from (`None` =
    /// pure log replay from the start of the trace).
    pub snapshot_records: Option<u64>,
    /// Records replayed from the log tail past the snapshot.
    pub replayed: u64,
    /// Requests the recovered service resumes from — the log's longest
    /// consistent prefix.
    pub requests_recovered: u64,
    /// Bytes of torn log tail cut off before resuming appends.
    pub truncated_bytes: u64,
    /// Snapshot files that were skipped as unusable (corrupt, ahead of
    /// the surviving log, or incompatible with the engine).
    pub snapshots_skipped: u64,
}

/// Initial capacity of a [`TraceLog::Memory`] log buffer, which then
/// grows to hold the whole log. `realloc` keeps a block in the malloc
/// arena it came from. Starting empty, the buffer's first block is the
/// few bytes of the OTCT header, and glibc serves blocks that small from
/// the starting thread's cache of freed blocks, which may belong to any
/// thread's arena. A process that starts many servers then leaves a
/// grown log's worth of free memory resident in arena after arena. A
/// first block this large bypasses that cache, so the buffer always
/// lives in the starting thread's own arena.
const MEMORY_LOG_INITIAL: usize = 64 * 1024;

/// The trace sink behind the ingress lock.
enum TraceSink {
    Memory(TraceWriter<Cursor<Vec<u8>>>),
    File(TraceWriter<File>, PathBuf),
}

impl TraceSink {
    fn push(&mut self, req: Request) -> io::Result<()> {
        match self {
            TraceSink::Memory(w) => w.push(req),
            TraceSink::File(w, _) => w.push(req),
        }
    }

    /// Appends one rebalance decision record in stream position (the
    /// writer must have been opened with `TRACE_FLAG_REBALANCE`).
    fn push_rebalance(&mut self, record: &RebalanceRecord) -> io::Result<()> {
        match self {
            TraceSink::Memory(w) => w.push_rebalance(record),
            TraceSink::File(w, _) => w.push_rebalance(record),
        }
    }

    fn finish(self) -> io::Result<(Option<Vec<u8>>, Option<PathBuf>)> {
        match self {
            TraceSink::Memory(w) => Ok((Some(w.finish()?.into_inner()), None)),
            TraceSink::File(w, path) => {
                w.finish()?;
                Ok((None, Some(path)))
            }
        }
    }

    /// Flushes everything logged so far through to the sink without
    /// finishing the trace (the on-disk count stays `COUNT_UNKNOWN`).
    fn sync(&mut self) -> io::Result<()> {
        match self {
            TraceSink::Memory(w) => w.sync(),
            TraceSink::File(w, _) => w.sync(),
        }
    }

    /// The log position of everything pushed so far.
    fn position(&self) -> LogPosition {
        match self {
            TraceSink::Memory(w) => LogPosition { offset: w.stream_offset(), records: w.count() },
            TraceSink::File(w, _) => LogPosition { offset: w.stream_offset(), records: w.count() },
        }
    }
}

/// What flows through a lane ring: shard-local requests tagged with
/// their cell, interleaved with markers. Every marker rides the same
/// FIFO as the requests around it, so a lane acts on it after
/// executing exactly the log prefix the marker addresses — consistent
/// cuts, consistent load probes and consistent migration points, all
/// with no pause and no cross-lane coordination beyond the enqueue.
enum Cmd {
    /// One shard-local request for the given cell.
    Req(u32, Request),
    /// Snapshot cut: serialize every hosted cell into the cut.
    Cut(Arc<Cut>),
    /// Rebalance boundary: report every hosted cell's cumulative load.
    Probe(Arc<Probe>),
    /// This lane loses the cell: remove its worker and offer it.
    MigrateOut(u32, Arc<Handoff>),
    /// This lane gains the cell: block on the handoff and host the worker.
    Install(u32, Arc<Handoff>),
    /// Ring-wait sample for the given group (only ever enqueued with
    /// metrics on): the worker records, under the request's group, how
    /// long ago ingress staged the stamp (the rest of the
    /// frame's staging, the ack up to the post-ack wake, and the time in
    /// the ring) and does nothing else —
    /// unlike every other marker it does **not** flush the buffered run,
    /// so it is invisible to batching and to state.
    Stamp(usize, Stamp),
}

/// One in-flight snapshot cut, shared by every worker. The worker that
/// delivers the last missing section assembles and writes the file.
struct Cut {
    /// Prebuilt OTCS bytes up to the end of the meta section.
    header: Vec<u8>,
    /// Accepted-record count at the cut (names the snapshot file).
    records: u64,
    /// Per-shard serialized sections, in shard order.
    sections: Mutex<Vec<Option<Vec<u8>>>>,
}

/// Ingress state: the single serialization point of the service (see the
/// module docs for why log + enqueue must be one atomic step).
struct Ingress {
    /// The lane rings' senders and the trace sink, present from start
    /// until shutdown or kill takes both in one lock hold.
    open: Option<(Vec<ring::Sender<Cmd>>, TraceSink)>,
    /// Per-lane runs staged by the current [`Shared::ingest`] call and
    /// delivered with one `send_batch` per lane; empty between calls.
    /// They start empty and keep their capacity, so each grows to the
    /// largest frame's share once.
    runs: Vec<Vec<Cmd>>,
    /// Requests delivered per lane over the service lifetime.
    enqueued: Vec<u64>,
    /// Requests accepted in total.
    accepted: u64,
    /// The decision driver when rebalancing — owns the epoch-versioned
    /// routing table; living under the ingress lock is what makes
    /// "route at the current epoch" atomic with the enqueue.
    rebalancer: Option<Rebalancer>,
    /// Cell moves decided so far (see [`RebalanceSummary::migrations`]).
    migrations: u64,
}

/// State shared by every thread of one server.
struct Shared {
    router: ShardRouter,
    engine_cfg: EngineConfig,
    ingress: Mutex<Ingress>,
    /// Requests *executed* per lane; workers bump it per batch and
    /// notify, drain barriers wait on it.
    progress: Mutex<Vec<u64>>,
    progress_cv: Condvar,
    /// First protocol violation anywhere in the service (sticky poison).
    poisoned: Mutex<Option<EngineError>>,
    /// Snapshot cadence, when configured.
    snapshots: Option<SnapshotPolicy>,
    /// Worker threads; group `g` runs on lane [`lane_of`]`(g, lanes)`.
    lanes: usize,
    /// Wall-clock stage metrics, when configured. A pure side-band:
    /// nothing read from it ever flows into routing, logging, draining
    /// or rebalancing (invariant #8).
    metrics: Option<Arc<ServeMetrics>>,
    /// Snapshot files completed so far.
    snapshots_written: AtomicU64,
    shutting_down: AtomicBool,
    /// Connection threads, joined at shutdown.
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// Locks a mutex, recovering from lock poisoning instead of panicking:
/// this file is a recovery path, and a panic here during shutdown or
/// replay would violate the "never a panic" contract. Recovery is sound
/// for every mutex in this module — each guards data whose writes are
/// individually complete before unlock (counters, Options, Vec slots),
/// and a thread that panicked mid-batch also poisons the service
/// logically via the worker-join path, so no torn state is trusted.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn poison(&self) -> Option<EngineError> {
        locked(&self.poisoned).clone()
    }

    /// Records the first failure; later ones are dropped (sticky poison).
    fn set_poison(&self, shard: Option<ShardId>, message: String) {
        let mut poison = locked(&self.poisoned);
        if poison.is_none() {
            *poison = Some(EngineError { shard, message });
        }
    }

    /// Routes, logs and enqueues one batch atomically. The whole batch is
    /// validated first, so a rejected batch stages nothing at all.
    /// `routed` and `wakes` are the caller's scratch buffers, reused
    /// across calls.
    ///
    /// Under the one ingress lock hold, each request is logged, routed to
    /// its group and appended to the staged run of that group's lane; the
    /// runs go out with one [`ring::Sender::send_batch`] per lane — one
    /// ring lock per lane per frame instead of per request. The pushes do
    /// not wake the
    /// workers: their [`ring::Wake`] guards are appended to `wakes`, for
    /// the caller to drop once the frame's ack is flushed (on every exit
    /// path, errors included, since dropping is what wakes). The runs are
    /// flushed, still under the lock, at three points: before a
    /// rebalance boundary (the `Probe` must follow the boundary prefix,
    /// or `wait_all` would wait on requests nobody sent), before a
    /// snapshot cut, and at the end of the call. Logging order per cell
    /// therefore still equals ring order (invariant #5), and every
    /// marker still follows exactly the prefix it addresses.
    fn ingest(
        &self,
        requests: &[Request],
        routed: &mut Vec<(ShardId, Request)>,
        wakes: &mut Vec<ring::Wake<Cmd>>,
    ) -> Result<u64, String> {
        if let Some(e) = self.poison() {
            return Err(format!("service poisoned: {e}"));
        }
        // Validate + route outside the lock (routing is pure).
        routed.clear();
        for &r in requests {
            routed.push(self.router.route(r)?);
        }
        let mut guard = locked(&self.ingress);
        let lock_stamp = self.metrics.as_ref().map(|_| clock::stamp());
        // Split borrows: the senders are read while the runs, the sink
        // and the counters are written, so destructure once instead of
        // proving presence again at each use.
        let Ingress { open, runs, enqueued, accepted, rebalancer, migrations } = &mut *guard;
        let Some((senders, sink)) = open.as_mut() else {
            return Err("service is shutting down".to_string());
        };
        // Ring-wait sampling: one stamp marker rides just ahead of the
        // call's first request, in that request's lane run; the lane
        // records how long it waited, under the request's group. At most
        // one per ingest, so the sampling cost is amortised across the
        // batch.
        let mut stamp_pending = self.metrics.is_some();
        // Every failure below poisons: the log may already hold records
        // that never reached a ring, so the determinism invariant is
        // gone and shutdown() must not report a clean run.
        let staged: Result<(), (Option<ShardId>, String)> = 'stage: {
            // With rebalancing, boundary decisions fire *between* the
            // interval-th request and the next, so every rebalance record
            // sits at an exact request position in the log — the replay
            // recomputes the boundary at the same position by
            // construction.
            for (&raw, &(sid, local)) in requests.iter().zip(routed.iter()) {
                if let Err(e) = sink.push(raw) {
                    break 'stage Err((None, format!("trace log write failed: {e}")));
                }
                let group = match rebalancer.as_ref() {
                    // Route at the current epoch. Under the ingress lock
                    // the epoch cannot move between the read and the
                    // flush, so a request can never reach a ring its
                    // cell is about to leave: migrations are decided and
                    // enqueued under this same lock, after a flush.
                    Some(reb) => {
                        let epoch = reb.table().epoch();
                        match reb.table().route_at(sid, epoch) {
                            Ok(group) => group as usize,
                            Err(e) => {
                                let message = format!("routing cell {} failed: {e}", sid.index());
                                break 'stage Err((Some(sid), message));
                            }
                        }
                    }
                    None => sid.index(),
                };
                let run = &mut runs[lane_of(group, self.lanes)];
                if stamp_pending {
                    stamp_pending = false;
                    run.push(Cmd::Stamp(group, clock::stamp()));
                }
                run.push(Cmd::Req(sid.0, local));
                *accepted += 1;
                if let Some(reb) = rebalancer.as_mut() {
                    if *accepted == reb.next_boundary_at() {
                        if let Err(e) = flush_runs(senders, runs, enqueued, wakes) {
                            break 'stage Err(e);
                        }
                        if let Err(message) = self.process_boundary(sink, senders, reb, migrations)
                        {
                            break 'stage Err((None, message));
                        }
                    }
                }
                if let Some(policy) = &self.snapshots {
                    if accepted.is_multiple_of(policy.every.max(1)) {
                        if let Err(e) = flush_runs(senders, runs, enqueued, wakes) {
                            break 'stage Err(e);
                        }
                        if let Err(e) = self.register_cut(sink, senders) {
                            let message = format!("trace log sync for snapshot cut failed: {e}");
                            break 'stage Err((None, message));
                        }
                    }
                }
            }
            flush_runs(senders, runs, enqueued, wakes)
        };
        if let Err((shard, message)) = staged {
            // Nothing staged by a failed call may ride out with a later one.
            runs.iter_mut().for_each(Vec::clear);
            self.set_poison(shard, message.clone());
            return Err(message);
        }
        if let Some(m) = &self.metrics {
            m.requests.add(requests.len() as u64);
            if let Some(stamp) = lock_stamp {
                m.lock_hold.record(stamp.elapsed_nanos());
            }
        }
        Ok(requests.len() as u64)
    }

    /// One rebalance boundary, under the ingress lock: sample every
    /// cell's cumulative load via a `Probe` marker, decide (and log)
    /// the migration plan, then enqueue the `MigrateOut`/`Install`
    /// marker pairs that execute it. See the module docs for the FIFO
    /// ordering argument that makes each step deadlock-free.
    fn process_boundary(
        &self,
        sink: &mut TraceSink,
        senders: &[ring::Sender<Cmd>],
        reb: &mut Rebalancer,
        migrations: &mut u64,
    ) -> Result<(), String> {
        let probe = Arc::new(Probe::new(reb.table().num_cells()));
        for sender in senders {
            if sender.send(Cmd::Probe(Arc::clone(&probe))).is_err() {
                return Err("a lane worker exited mid-service; the boundary prefix \
                            cannot be sampled"
                    .to_string());
            }
        }
        // Blocking while holding the ingress lock is safe here: lane
        // threads never take the ingress lock, so they always drain
        // their rings down to the probe.
        let loads = probe.wait_all();
        let owners_before: Vec<u32> = reb.table().owners().to_vec();
        let record = reb.on_boundary(&loads)?;
        sink.push_rebalance(&record)
            .map_err(|e| format!("trace log write of a rebalance record failed: {e}"))?;
        // The planner may move a cell more than once per decision; live,
        // each cell migrates once, from its owner before the boundary to
        // its owner after it. A move within one lane needs no handoff:
        // the cell already sits in that lane, and the routing table alone
        // moves it. All MigrateOuts before all Installs (see module docs).
        let net = net_moves(&owners_before, &record.moves)?;
        let mut pending = Vec::with_capacity(net.len());
        for (cell, src, dst) in net {
            let src = lane_of(src as usize, self.lanes);
            let dst = lane_of(dst as usize, self.lanes);
            if src == dst {
                continue;
            }
            let handoff = Arc::new(Handoff::new());
            if senders[src].send(Cmd::MigrateOut(cell, Arc::clone(&handoff))).is_err() {
                return Err(format!("lane {src} exited with cell {cell} still to migrate"));
            }
            pending.push((cell, dst, handoff));
        }
        for (cell, dst, handoff) in pending {
            if senders[dst].send(Cmd::Install(cell, handoff)).is_err() {
                return Err(format!("lane {dst} exited with cell {cell} still to install"));
            }
        }
        *migrations += record.moves.len() as u64;
        Ok(())
    }

    /// Takes a consistent cut under the ingress lock: syncs the log so
    /// the bytes a snapshot will address are durable, prebuilds the OTCS
    /// header for the current log position, and floats one cut marker
    /// down every lane ring.
    fn register_cut(&self, sink: &mut TraceSink, senders: &[ring::Sender<Cmd>]) -> io::Result<()> {
        sink.sync()?;
        let log = sink.position();
        let shards = self.router.num_shards();
        let meta = SnapshotMeta::of(&self.engine_cfg, self.router.global_len(), shards as u32, log);
        let mut header = Vec::new();
        snapshot::write_header(&meta, &mut header);
        let cut = Arc::new(Cut {
            header,
            records: log.records,
            sections: Mutex::new(vec![None; shards]),
        });
        for sender in senders {
            if sender.send(Cmd::Cut(Arc::clone(&cut))).is_err() {
                // A worker is gone; this cut can never complete. The next
                // request push will observe the same and poison — the cut
                // itself is just abandoned.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Blocks until every request accepted so far has been executed.
    ///
    /// Wakes every lane first: a connection thread blocked writing an
    /// ack to a client that never reads still holds that frame's
    /// [`ring::Wake`] guards, and this barrier must not wait on them.
    fn wait_drained(&self) {
        let target: Vec<u64> = {
            let ingress = locked(&self.ingress);
            if let Some((senders, _)) = &ingress.open {
                senders.iter().for_each(ring::Sender::wake);
            }
            ingress.enqueued.clone()
        };
        let mut progress = locked(&self.progress);
        while progress.iter().zip(&target).any(|(done, want)| done < want) {
            progress = self.progress_cv.wait(progress).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A running serving instance. Start it with [`Server::start`], connect
/// [`crate::Client`]s to [`Server::addr`], and finish with
/// [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    /// Serving groups (see [`Server::num_groups`]).
    groups: usize,
    /// One thread per lane, each returning the cells it hosts at exit.
    workers: Vec<JoinHandle<Vec<ShardWorker>>>,
}

impl Server {
    /// Takes an owned engine apart into persistent per-shard workers and
    /// starts serving it on 127.0.0.1.
    ///
    /// # Errors
    /// Binding errors, trace-log creation errors, and a poisoned or
    /// staged-but-invalid engine (via
    /// [`ShardedEngine::into_workers`]).
    pub fn start(engine: ShardedEngine<'static>, cfg: ServeConfig) -> io::Result<Server> {
        Self::start_with_lanes(engine, cfg, lane_cap())
    }

    /// [`Server::start`] on at most `max_lanes` worker threads.
    fn start_with_lanes(
        engine: ShardedEngine<'static>,
        cfg: ServeConfig,
        max_lanes: usize,
    ) -> io::Result<Server> {
        let engine_cfg = engine.config();
        let (router, shard_workers) =
            engine.into_workers().map_err(|e| io::Error::other(e.to_string()))?;

        let header = || TraceHeader {
            universe: router.global_len() as u32,
            shard_map: router.shard_map().to_vec(),
            seed: 0,
            generator: "otc-serve".to_string(),
        };
        // A rebalancing service stamps the trace rebalance-capable, so
        // its decision records may legally interleave with the requests.
        let flags = if cfg.rebalance.is_some() { TRACE_FLAG_REBALANCE } else { 0 };
        let sink = match &cfg.log {
            TraceLog::Memory => TraceSink::Memory(TraceWriter::with_flags(
                Cursor::new(Vec::with_capacity(MEMORY_LOG_INITIAL)),
                header(),
                flags,
            )?),
            TraceLog::File(path) => TraceSink::File(
                TraceWriter::with_flags(File::create(path)?, header(), flags)?,
                path.clone(),
            ),
        };

        let shards = shard_workers.len();
        let rebalancer = rebalancer_for(&cfg.rebalance, shards)?;
        Self::start_inner(
            router,
            shard_workers,
            engine_cfg,
            sink,
            vec![0; shards],
            0,
            rebalancer,
            0,
            &cfg,
            max_lanes,
        )
    }

    /// The common tail of [`Server::start`] and [`Server::resume`]:
    /// spin the rings, workers, listener and acceptor around an already
    /// positioned sink. `executed[cell]` counts the requests each cell
    /// has already run (replayed on resume), which seed the per-lane
    /// counters. The service runs `min(groups, max_lanes)` lanes.
    #[allow(
        clippy::too_many_arguments,
        reason = "private seam between start and resume; the arguments are the resume state, \
                  and a one-use struct would just rename them"
    )]
    fn start_inner(
        router: ShardRouter,
        shard_workers: Vec<ShardWorker>,
        engine_cfg: EngineConfig,
        sink: TraceSink,
        executed: Vec<u64>,
        accepted: u64,
        rebalancer: Option<Rebalancer>,
        migrations: u64,
        cfg: &ServeConfig,
        max_lanes: usize,
    ) -> io::Result<Server> {
        if let Some(policy) = &cfg.snapshots {
            fs::create_dir_all(&policy.dir)?;
        }

        // Distribute the cells to the lanes of their groups: the
        // rebalancer's table when rebalancing (resume hands in a table
        // already advanced to the recovery point), identity otherwise.
        let groups =
            rebalancer.as_ref().map_or(shard_workers.len(), |r| r.table().num_groups() as usize);
        let lanes = groups.min(max_lanes).max(1);
        if executed.len() != shard_workers.len() {
            return Err(io::Error::other("one executed counter per cell (internal)"));
        }
        // The cost counters start from the cells' totals, so a resumed
        // service keeps counting its lifetime, not its latest run.
        let metrics = cfg.metrics.then(|| {
            let metrics = ServeMetrics::new(router.num_shards(), groups, lanes);
            for w in &shard_workers {
                metrics.add_cost(w.rounds(), w.paid_rounds(), w.cost());
            }
            Arc::new(metrics)
        });
        let mut hosted: Vec<BTreeMap<u32, ShardWorker>> =
            (0..lanes).map(|_| BTreeMap::new()).collect();
        let mut enqueued = vec![0u64; lanes];
        for worker in shard_workers {
            let cell = worker.shard();
            let group = match &rebalancer {
                // `owner_of` is total over the table's cells, and the cell
                // count was validated against the engine; `None` cannot
                // happen, and routing to group 0 would surface instantly
                // as a misrouted-cell poison rather than silent loss.
                Some(r) => r.table().owner_of(cell).map_or(0, |g| g as usize),
                None => cell.index(),
            };
            if group >= groups {
                return Err(io::Error::other(format!(
                    "cell {} routed to group {group} of {groups} (internal)",
                    cell.index()
                )));
            }
            let lane = lane_of(group, lanes);
            enqueued[lane] += executed.get(cell.index()).copied().unwrap_or(0);
            hosted[lane].insert(cell.0, worker);
        }

        let mut senders = Vec::with_capacity(lanes);
        let mut receivers = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            let (tx, rx) = ring::channel(cfg.queue_capacity.max(1));
            senders.push(tx);
            receivers.push(rx);
        }

        let shared = Arc::new(Shared {
            router,
            engine_cfg,
            ingress: Mutex::new(Ingress {
                open: Some((senders, sink)),
                runs: (0..lanes).map(|_| Vec::new()).collect(),
                enqueued: enqueued.clone(),
                accepted,
                rebalancer,
                migrations,
            }),
            // Everything already replayed counts as executed.
            progress: Mutex::new(enqueued),
            progress_cv: Condvar::new(),
            poisoned: Mutex::new(None),
            snapshots: cfg.snapshots.clone(),
            lanes,
            metrics,
            snapshots_written: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });

        let batch = cfg.worker_batch.max(1);
        let workers: Vec<JoinHandle<Vec<ShardWorker>>> = hosted
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(lane, (cells, rx))| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(lane, cells, &rx, &shared, batch))
            })
            .collect();

        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Server { addr, shared, acceptor: Some(acceptor), groups, workers })
    }

    /// The bound loopback address clients connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of shards (cells) behind the service.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shared.router.num_shards()
    }

    /// Number of serving groups: the units the rebalancer places, logs
    /// and replays. Equal to [`Server::num_shards`] unless the service
    /// rebalances. The groups run on `min(groups,
    /// available_parallelism())` worker threads, so this is not a
    /// thread count.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// A live scrape of the wall-clock metrics surface (`None` when the
    /// service runs without [`ServeConfig::metrics`]). Observe-only —
    /// scraping at any moment never perturbs results (invariant #8);
    /// what a client's `Metrics` request returns as canonical JSON.
    #[must_use]
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.shared.metrics.as_deref().map(ServeMetrics::snapshot)
    }

    /// The common prologue of [`Server::shutdown`] and [`Server::kill`]:
    /// flag the shutdown, unblock the acceptor with a throwaway
    /// connection, and join it and every connection thread.
    fn stop_accepting(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *locked(&self.shared.conns));
        for h in conns {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stop accepting, wait for connected clients to
    /// hang up, drain every queue, join the workers, finish the trace
    /// log, and return the per-shard reports, the aggregate, the
    /// telemetry timeline, and the logged trace.
    ///
    /// Call this after your clients disconnected — connections still open
    /// are waited on, not severed.
    ///
    /// # Errors
    /// The first protocol violation any shard observed (the service
    /// poison), or trace-log I/O failures.
    pub fn shutdown(mut self) -> Result<ServeOutcome, EngineError> {
        self.stop_accepting();
        // Closing ingress drops the senders; each lane drains its ring
        // and exits on disconnect.
        let (sink, accepted, rebalance) = {
            let mut ingress = locked(&self.shared.ingress);
            let rebalance = ingress.rebalancer.as_ref().map(|r| RebalanceSummary {
                boundaries: r.boundaries(),
                epoch: r.table().epoch(),
                owners: r.table().owners().to_vec(),
                migrations: ingress.migrations,
            });
            (ingress.open.take().map(|(_senders, sink)| sink), ingress.accepted, rebalance)
        };
        let mut shard_workers = Vec::with_capacity(self.shared.router.num_shards());
        let mut worker_panicked = false;
        for h in self.workers.drain(..) {
            match h.join() {
                Ok(cells) => shard_workers.extend(cells),
                Err(_) => worker_panicked = true,
            }
        }
        if let Some(e) = self.shared.poison() {
            return Err(e);
        }
        if worker_panicked {
            // A panicking worker is a bug, but shutdown() must still
            // report it as a typed outcome, not propagate the panic.
            return Err(EngineError {
                shard: None,
                message: "a shard worker thread panicked".to_string(),
            });
        }
        // Cell order, whatever lane each cell ended up on: the outputs
        // below are placement-invariant by construction.
        shard_workers.sort_by_key(|w| w.shard().0);
        let windows = shard_workers.iter().flat_map(ShardWorker::windows).collect();
        let timeline =
            timeline_from_windows(&self.shared.engine_cfg, shard_workers.len() as u32, windows);
        let per_shard: Vec<Report> = shard_workers
            .into_iter()
            .map(|w| w.into_report().map_err(|message| EngineError { shard: None, message }))
            .collect::<Result<_, _>>()?;
        let report = aggregate_reports(per_shard.clone());
        let (trace_bytes, trace_path) = match sink {
            Some(sink) => sink.finish().map_err(|e| EngineError {
                shard: None,
                message: format!("trace log finish failed: {e}"),
            })?,
            None => (None, None),
        };
        Ok(ServeOutcome {
            per_shard,
            report,
            timeline,
            requests_served: accepted,
            trace_bytes,
            trace_path,
            snapshots_written: self.shared.snapshots_written.load(Ordering::SeqCst),
            rebalance,
            metrics: self.shared.metrics.as_deref().map(ServeMetrics::snapshot),
        })
    }

    /// Crash the service deliberately: stop accepting, sever ingress,
    /// abandon all engine state, and leave the trace log **unfinished**
    /// — its on-disk record count stays `COUNT_UNKNOWN`, exactly as a
    /// process kill would leave it. Returns the log path when the
    /// service logged to a file, so the caller can hand it to
    /// [`Server::resume`].
    ///
    /// Like [`Server::shutdown`], connections still open are waited on,
    /// not severed — disconnect your clients first.
    ///
    /// # Errors
    /// I/O errors syncing the log's buffered tail to the sink.
    pub fn kill(mut self) -> io::Result<Option<PathBuf>> {
        self.stop_accepting();
        let sink = locked(&self.shared.ingress).open.take().map(|(_senders, sink)| sink);
        // Join the workers (they exit on ring disconnect) so no thread
        // outlives the "dead" service; their state is dropped unread.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        match sink {
            Some(TraceSink::File(mut w, path)) => {
                w.sync()?;
                // A kill is the last chance to read the metrics surface:
                // dump the final scrape next to the synced log (the
                // side-band analogue of the sync — observe-only, so a
                // resume neither needs nor reads it).
                if let Some(m) = &self.shared.metrics {
                    let mut dump = path.clone().into_os_string();
                    dump.push(".metrics.json");
                    fs::write(&dump, m.snapshot().to_json())?;
                }
                Ok(Some(path))
            }
            Some(TraceSink::Memory(mut w)) => {
                w.sync()?;
                Ok(None)
            }
            None => Ok(None),
        }
    }

    /// Restarts a killed service from its trace log and snapshot
    /// directory: scan the log's longest consistent prefix, restore the
    /// newest usable snapshot at or behind it (falling back to older
    /// snapshots, then to pure log replay), replay the tail into
    /// `engine`, truncate any torn bytes, and serve again — appending to
    /// the same log, bit-identical to a service that never crashed.
    ///
    /// `engine` must be freshly built over the same forest, policies and
    /// [`EngineConfig`] as the crashed service; `cfg.log` must be the
    /// [`TraceLog::File`] the crashed service logged to.
    ///
    /// # Errors
    /// A missing or header-corrupt log, a log whose shard map does not
    /// match `engine`'s routing, engine errors during replay, and I/O
    /// errors. Unusable *snapshots* are skipped, not errors.
    pub fn resume(
        engine: ShardedEngine<'static>,
        cfg: ServeConfig,
    ) -> io::Result<(Server, ResumeOutcome)> {
        Self::resume_with_lanes(engine, cfg, lane_cap())
    }

    /// [`Server::resume`] on at most `max_lanes` worker threads. Neither
    /// the log nor a snapshot records the lane count, so a service may
    /// resume on any number of lanes.
    fn resume_with_lanes(
        mut engine: ShardedEngine<'static>,
        cfg: ServeConfig,
        max_lanes: usize,
    ) -> io::Result<(Server, ResumeOutcome)> {
        let TraceLog::File(path) = cfg.log.clone() else {
            return Err(io::Error::other(
                "resume needs cfg.log = TraceLog::File(<the crashed service's log>)",
            ));
        };

        // 1. The log's longest consistent prefix: every record that
        //    decodes, stays in the universe and routes. A torn tail (or
        //    a count-patched log from a graceful shutdown that was then
        //    appended to) ends the prefix without failing resume.
        let mut scan = TraceReader::new(File::open(&path)?)?;
        let header = scan.header().clone();
        let flags = scan.flags();
        if scan.rebalance_capable() != cfg.rebalance.is_some() {
            return Err(io::Error::other(if cfg.rebalance.is_some() {
                "cfg.rebalance is set but the log was not written by a rebalancing service"
            } else {
                "the log carries rebalance records; resume with the same \
                 ServeConfig::rebalance the crashed service used"
            }));
        }
        let num_shards = engine.num_shards();
        let forest = engine.forest().cloned();
        // Requests are counted per *cell* (cells route statically through
        // the forest); `start_inner` folds them into the lanes of the
        // recovered routing table. Complete rebalance records are
        // collected with their end offsets, so the ones a snapshot's log
        // prefix covers can seed the rebalancer without recomputation.
        let mut cell_counts = vec![0u64; num_shards];
        let mut rebalance_records: Vec<(RebalanceRecord, u64)> = Vec::new();
        loop {
            match scan.next_event() {
                Ok(Some(TraceEvent::Request(req))) => match &forest {
                    Some(f) if req.node.index() < f.global_len() => {
                        cell_counts[f.route(req.node).0.index()] += 1;
                    }
                    Some(_) => break,
                    None => cell_counts[0] += 1,
                },
                Ok(Some(TraceEvent::Rebalance(record))) => {
                    rebalance_records.push((record, scan.byte_pos()));
                }
                Ok(None) | Err(_) => break,
            }
        }
        let (good_pos, good_records) = (scan.byte_pos(), scan.records_read());
        let log_len = fs::metadata(&path)?.len();
        let truncated_bytes = log_len.saturating_sub(good_pos);
        drop(scan);

        // 2. Cut the torn tail off *before* replay, so the replay reader
        //    sees a clean EOF at the end of the good prefix.
        if truncated_bytes > 0 {
            OpenOptions::new().write(true).open(&path)?.set_len(good_pos)?;
        }

        // 3. Newest usable snapshot at or behind the surviving log.
        let mut candidates: Vec<(u64, PathBuf)> = Vec::new();
        if let Some(policy) = &cfg.snapshots {
            if let Ok(entries) = fs::read_dir(&policy.dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    if let Some(records) = name
                        .strip_prefix("snap-")
                        .and_then(|r| r.strip_suffix(".otcs"))
                        .and_then(|r| r.parse::<u64>().ok())
                    {
                        candidates.push((records, entry.path()));
                    }
                }
            }
        }
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));

        let mut snapshots_skipped = 0;
        let mut chosen: Option<EngineSnapshot> = None;
        for (_, snap_path) in &candidates {
            let usable = fs::read(snap_path)
                .ok()
                .and_then(|bytes| EngineSnapshot::parse(&bytes).ok())
                .filter(|snap| {
                    snap.meta.log.offset <= good_pos && snap.meta.log.records <= good_records
                });
            match usable {
                Some(snap) => {
                    chosen = Some(snap);
                    break;
                }
                None => snapshots_skipped += 1,
            }
        }

        // 4. Pick the start point, then replay from it once. The start
        //    point is the chosen snapshot when the engine accepts it — the
        //    rebalancer seeded by folding the records the snapshot's log
        //    prefix proves (ingest appends a boundary's record *before*
        //    any cut at the same position, so `end <= offset` is exact)
        //    and the reader seeked past that prefix — or else record 0.
        //    A checksummed snapshot the engine still refuses means a
        //    genuinely incompatible engine (wrong forest, config or
        //    policy) — a caller bug, not crash damage; the refusal left
        //    `engine` untouched, so pure replay from the start is sound.
        //    Every boundary in the replayed part is recomputed — and
        //    checked against its surviving record — by
        //    `replay_trace_rebalancing`.
        let mut rebalancer = rebalancer_for(&cfg.rebalance, num_shards)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let mut reader = TraceReader::new(File::open(&path)?)?;
        let mut migrations = 0u64;
        let mut snapshot_records = None;
        if let Some(snap) = &chosen {
            if engine.restore_snapshot(snap).is_ok() {
                if let Some(reb) = rebalancer.as_mut() {
                    for (record, end) in &rebalance_records {
                        if *end <= snap.meta.log.offset {
                            reb.fold_record(record).map_err(|e| {
                                io::Error::other(format!(
                                    "rebalance record in the durable log prefix is \
                                     inconsistent: {e}"
                                ))
                            })?;
                            migrations += record.moves.len() as u64;
                        }
                    }
                }
                reader.seek_to(snap.meta.log.offset, snap.meta.log.records)?;
                snapshot_records = Some(snap.meta.log.records);
            } else {
                snapshots_skipped += 1;
            }
        }
        let replay_failed = |e: EngineError| io::Error::other(e.to_string());
        let mut chunk = Vec::new();
        let replayed = match rebalancer.as_mut() {
            Some(reb) => {
                let out =
                    otc_sim::replay_trace_rebalancing(&mut engine, &mut reader, reb, &mut chunk)
                        .map_err(replay_failed)?;
                migrations += out.schedule.iter().map(|r| r.moves.len() as u64).sum::<u64>();
                out.replayed
            }
            None => engine.replay_tail(&mut reader, &mut chunk).map_err(replay_failed)?.replayed,
        };
        drop(reader);

        // 5. Reopen the log for appending where replay stopped.
        let engine_cfg = engine.config();
        let (router, shard_workers) =
            engine.into_workers().map_err(|e| io::Error::other(e.to_string()))?;
        if router.global_len() as u32 != header.universe
            || router.shard_map() != header.shard_map.as_slice()
        {
            return Err(io::Error::other(
                "the engine's routing does not match the trace log's shard map; \
                 resume with the same forest the crashed service used",
            ));
        }
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let writer = TraceWriter::resume_with_flags(file, header, 0, good_records, flags)?;
        let sink = TraceSink::File(writer, path);

        let server = Self::start_inner(
            router,
            shard_workers,
            engine_cfg,
            sink,
            cell_counts,
            good_records,
            rebalancer,
            migrations,
            &cfg,
            max_lanes,
        )?;
        Ok((
            server,
            ResumeOutcome {
                snapshot_records,
                replayed,
                requests_recovered: good_records,
                truncated_bytes,
                snapshots_skipped,
            },
        ))
    }
}

/// Delivers every lane's staged run with one [`ring::Sender::send_batch`]
/// and credits `enqueued` with the requests of each run that arrived —
/// only then, so [`Shared::wait_drained`] never waits for a run that
/// failed to send. Each push's deferred wake is appended to `wakes`;
/// empty runs are skipped, so they add none.
///
/// # Errors
/// The first lane whose worker is gone, naming the cell of its first
/// undelivered request.
fn flush_runs(
    senders: &[ring::Sender<Cmd>],
    runs: &mut [Vec<Cmd>],
    enqueued: &mut [u64],
    wakes: &mut Vec<ring::Wake<Cmd>>,
) -> Result<(), (Option<ShardId>, String)> {
    for (lane, ((sender, run), done)) in senders.iter().zip(runs).zip(enqueued).enumerate() {
        if run.is_empty() {
            continue;
        }
        let requests = run.iter().filter(|cmd| matches!(cmd, Cmd::Req(..))).count() as u64;
        if let Ok(wake) = sender.send_batch(run) {
            wakes.push(wake);
        } else {
            let cell = run.iter().find_map(|cmd| match cmd {
                Cmd::Req(cell, _) => Some(ShardId(*cell)),
                _ => None,
            });
            return Err((
                cell,
                format!("lane {lane} worker is gone; logged requests were dropped"),
            ));
        }
        *done += requests;
    }
    Ok(())
}

/// The most worker threads a service starts: the host's parallelism,
/// read once per process (`available_parallelism` reads cgroup files,
/// too slow to repeat at every start).
fn lane_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The lane (worker thread) that runs serving group `group` out of
/// `lanes`.
fn lane_of(group: usize, lanes: usize) -> usize {
    group % lanes
}

/// Builds the rebalancer a fresh service starts from: round-robin
/// initial table over the engine's cells, epoch 0, no boundaries.
fn rebalancer_for(
    policy: &Option<RebalancePolicy>,
    cells: usize,
) -> io::Result<Option<Rebalancer>> {
    match policy {
        Some(policy) => {
            let table = policy
                .initial_table(cells)
                .map_err(|e| io::Error::other(format!("invalid rebalance policy: {e}")))?;
            Ok(Some(Rebalancer::new(policy.config, table)))
        }
        None => Ok(None),
    }
}

/// Lane worker thread: drain the ring in FIFO batches, drive the
/// hosted [`ShardWorker`] cells through the request runs between
/// markers, publish progress; exit (returning the cells it
/// ended up hosting) when ingress closes the channel.
///
/// The cells of several groups share the ring, so their requests
/// interleave. Between two markers each cell's requests are bucketed in
/// FIFO order and each bucket runs once; a marker runs every bucket
/// first, so it acts after exactly the prefix FIFO put before it.
fn worker_loop(
    lane: usize,
    mut cells: BTreeMap<u32, ShardWorker>,
    rx: &ring::Receiver<Cmd>,
    shared: &Shared,
    batch: usize,
) -> Vec<ShardWorker> {
    let mut buf: Vec<Cmd> = Vec::with_capacity(batch);
    // `buckets[cell]` holds the cell's pending requests; `pending` lists
    // the cells with a non-empty bucket, in first-arrival order.
    let mut buckets: Vec<Vec<Request>> =
        (0..shared.router.num_shards()).map(|_| Vec::new()).collect();
    let mut pending: Vec<u32> = Vec::new();
    loop {
        buf.clear();
        if rx.recv_batch(&mut buf, batch).is_err() {
            return cells.into_values().collect(); // disconnected and drained
        }
        let mut executed = 0u64;
        for cmd in buf.drain(..) {
            match cmd {
                Cmd::Req(cell, r) => {
                    // The router only emits cells below `num_shards`.
                    let bucket = &mut buckets[cell as usize];
                    if bucket.is_empty() {
                        pending.push(cell);
                    }
                    bucket.push(r);
                }
                // A stamp is *not* a marker: it records and vanishes
                // without running the buckets, so batching — and
                // therefore execution — is identical with metrics off.
                Cmd::Stamp(group, stamp) => {
                    if let Some(m) = &shared.metrics {
                        m.record_ring_wait(group, stamp.elapsed_nanos());
                    }
                }
                marker => {
                    executed += run_pending(&mut cells, &mut buckets, &mut pending, shared);
                    match marker {
                        Cmd::Req(..) | Cmd::Stamp(..) => {} // unreachable: handled above
                        Cmd::Cut(cut) => emit_sections(&cells, &cut, shared),
                        Cmd::Probe(probe) => {
                            probe.fill(cells.iter().map(|(&c, w)| (c as usize, w.cell_load())));
                        }
                        Cmd::MigrateOut(cell, handoff) => {
                            let moved = cells
                                .remove(&cell)
                                .ok_or_else(|| "the lane does not host the cell".to_string());
                            if let Err(e) = &moved {
                                shared.set_poison(
                                    Some(ShardId(cell)),
                                    format!("cell {cell} migration failed at the source: {e}"),
                                );
                            }
                            // Always offer — even the failure — so the
                            // destination never blocks forever.
                            handoff.offer(moved);
                        }
                        Cmd::Install(cell, handoff) => {
                            // An Err take means the source already
                            // poisoned with the root cause; nothing to
                            // install here.
                            if let Ok(worker) = handoff.take() {
                                cells.insert(cell, worker);
                            }
                        }
                    }
                }
            }
        }
        executed += run_pending(&mut cells, &mut buckets, &mut pending, shared);
        // Progress counts *consumed* requests even past a violation, so
        // drain barriers and backpressure keep moving while the error
        // propagates.
        {
            let mut progress = locked(&shared.progress);
            if let Some(slot) = progress.get_mut(lane) {
                *slot += executed;
            }
            shared.progress_cv.notify_all();
        }
    }
}

/// Runs every pending bucket once, in first-arrival order, and empties
/// them. Returns how many requests were consumed.
fn run_pending(
    cells: &mut BTreeMap<u32, ShardWorker>,
    buckets: &mut [Vec<Request>],
    pending: &mut Vec<u32>,
    shared: &Shared,
) -> u64 {
    pending
        .drain(..)
        .map(|cell| run_buffered(cells, cell, &mut buckets[cell as usize], shared))
        .sum()
}

/// Runs (and clears) one bucket of requests on the cell that
/// buffered them, poisoning the service on the first violation. With
/// metrics on, it times the run and adds the cell's cost deltas to the
/// cost counters — before the caller publishes progress, so a scrape
/// after a drain barrier is exact. Returns how many requests were
/// consumed (consumed ≠ executed only past a violation or a protocol
/// bug, and both poison).
fn run_buffered(
    cells: &mut BTreeMap<u32, ShardWorker>,
    cell: u32,
    scratch: &mut Vec<Request>,
    shared: &Shared,
) -> u64 {
    let n = scratch.len() as u64;
    if n == 0 {
        return 0;
    }
    let Some(worker) = cells.get_mut(&cell) else {
        // The routing table said this lane hosts the cell but it does
        // not: a migration protocol bug. Poison loudly; still count the
        // requests as consumed so drain barriers keep moving.
        shared.set_poison(
            Some(ShardId(cell)),
            format!("request routed to a lane that does not host cell {cell}"),
        );
        scratch.clear();
        return n;
    };
    if worker.error().is_none() {
        // Metrics only read the worker's counters and the clock around
        // the drain; nothing flows back into it (invariant #8).
        let before = shared
            .metrics
            .as_ref()
            .map(|_| (worker.rounds(), worker.paid_rounds(), worker.cost(), clock::stamp()));
        let run = worker.run_batch(scratch);
        if let (Some(m), Some((rounds, paid_rounds, cost, start))) = (&shared.metrics, before) {
            m.record_drain(cell as usize, start.elapsed_nanos());
            let after = worker.cost();
            m.add_cost(
                worker.rounds() - rounds,
                worker.paid_rounds() - paid_rounds,
                Cost { service: after.service - cost.service, reorg: after.reorg - cost.reorg },
            );
        }
        if let Err(message) = run {
            shared.set_poison(Some(worker.shard()), message);
        }
    }
    scratch.clear();
    n
}

/// Serializes every cell this lane hosts into `cut`; the lane that
/// delivers the last missing section assembles the snapshot and writes
/// it. A poisoned cell or a serialization failure silently aborts the
/// cut — snapshots are best-effort, the log is the source of truth.
/// Migrations keep cuts exactly-once per cell: a cut marker enqueued
/// after a boundary's `MigrateOut`/`Install` markers reaches the source
/// after the cell left and the destination after it arrived.
fn emit_sections(cells: &BTreeMap<u32, ShardWorker>, cut: &Cut, shared: &Shared) {
    let mut mine = Vec::with_capacity(cells.len());
    for (&cell, worker) in cells {
        if worker.error().is_some() {
            return;
        }
        let mut bytes = Vec::new();
        if worker.snapshot_section(&mut bytes).is_err() {
            return;
        }
        mine.push((cell as usize, bytes));
    }
    let mut sections = locked(&cut.sections);
    for (cell, bytes) in mine {
        if let Some(slot) = sections.get_mut(cell) {
            *slot = Some(bytes);
        }
    }
    if sections.iter().any(Option::is_none) {
        return;
    }
    let mut out = cut.header.clone();
    for section in sections.iter().flatten() {
        out.extend_from_slice(section);
    }
    drop(sections);
    snapshot::finish_snapshot(&mut out);
    // Cuts are only registered when a snapshot policy exists; if that
    // ever changes, dropping the image keeps snapshots best-effort.
    let Some(policy) = shared.snapshots.as_ref() else { return };
    if write_snapshot_file(&policy.dir, cut.records, &out).is_ok() {
        shared.snapshots_written.fetch_add(1, Ordering::SeqCst);
    }
}

/// Atomically publishes one snapshot image: write to a temp name, then
/// rename into place. Readers either see the complete file or nothing.
fn write_snapshot_file(dir: &Path, records: u64, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("snap-{records:020}.otcs.tmp"));
    let dest = dir.join(format!("snap-{records:020}.otcs"));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, &dest)
}

/// Acceptor thread: one spawned connection thread per client until
/// shutdown.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else { break };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a very late client)
        }
        let accept_stamp = shared.metrics.as_ref().map(|_| clock::stamp());
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            let _ = connection_loop(stream, &shared_conn, accept_stamp);
        });
        let mut conns = locked(&shared.conns);
        // Reap finished connections as new ones arrive, so a long-lived
        // server handling many short-lived clients doesn't accumulate
        // join handles without bound.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                let _ = conns.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        conns.push(handle);
    }
}

/// One client connection: handshake, then request frames until Bye/EOF.
/// Any protocol error is answered with one `Error` frame before closing.
/// `accept_stamp` is the acceptor's wall-clock mark (metrics only):
/// accept latency is measured through to the flushed handshake reply.
fn connection_loop(
    stream: TcpStream,
    shared: &Shared,
    accept_stamp: Option<Stamp>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut rbuf = Vec::new();
    let mut wbuf = Vec::new();
    let mut routed = Vec::new();
    // The wake guards of the burst being answered, dropped once its
    // replies are flushed (or with this frame on any early return).
    let mut wakes = Vec::new();

    let fail = |writer: &mut BufWriter<TcpStream>, wbuf: &mut Vec<u8>, message: String| {
        let _ = wire::write_message(writer, &Message::Error { message }, wbuf);
        let _ = writer.flush();
    };

    // Handshake: the first frame must be a version-matching Hello.
    match wire::read_message(&mut reader, &mut rbuf) {
        Ok(Some(Message::Hello { version })) if version == WIRE_VERSION => {}
        Ok(Some(Message::Hello { version })) => {
            fail(
                &mut writer,
                &mut wbuf,
                format!("unsupported wire version {version} (server speaks {WIRE_VERSION})"),
            );
            return Ok(());
        }
        Ok(Some(other)) => {
            fail(
                &mut writer,
                &mut wbuf,
                format!("expected Hello, got opcode {:#04x}", other.opcode()),
            );
            return Ok(());
        }
        Ok(None) => return Ok(()),
        Err(e) => {
            fail(&mut writer, &mut wbuf, format!("bad handshake frame: {e}"));
            return Ok(());
        }
    }
    wire::write_message(
        &mut writer,
        &Message::HelloAck {
            version: WIRE_VERSION,
            universe: shared.router.global_len() as u32,
            shards: shared.router.num_shards() as u32,
        },
        &mut wbuf,
    )?;
    writer.flush()?;
    if let Some(m) = &shared.metrics {
        if let Some(stamp) = accept_stamp {
            m.accept.record(stamp.elapsed_nanos());
        }
        m.connections.inc();
    }

    loop {
        let msg = match wire::read_message(&mut reader, &mut rbuf) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(()), // client hung up between frames
            Err(e) => {
                fail(&mut writer, &mut wbuf, format!("bad frame: {e}"));
                return Ok(());
            }
        };
        match msg {
            Message::Submit { requests } => match shared.ingest(&requests, &mut routed, &mut wakes)
            {
                Ok(accepted) => {
                    wire::write_message(&mut writer, &Message::Ack { accepted }, &mut wbuf)?;
                }
                Err(message) => {
                    fail(&mut writer, &mut wbuf, message);
                    return Ok(());
                }
            },
            Message::Drain => {
                shared.wait_drained();
                wire::write_message(&mut writer, &Message::Ack { accepted: 0 }, &mut wbuf)?;
            }
            Message::Metrics => {
                // A metrics-off server answers with the valid empty
                // exposition rather than an error: scraping is always
                // safe to attempt (invariant #8 makes it free).
                let json = match &shared.metrics {
                    Some(m) => {
                        m.scrapes.inc();
                        m.snapshot().to_json()
                    }
                    None => MetricsSnapshot::default().to_json(),
                };
                wire::write_message(&mut writer, &Message::MetricsReply { json }, &mut wbuf)?;
            }
            Message::Bye => {
                wire::write_message(&mut writer, &Message::Ack { accepted: 0 }, &mut wbuf)?;
                writer.flush()?;
                return Ok(());
            }
            other => {
                fail(
                    &mut writer,
                    &mut wbuf,
                    format!("unexpected opcode {:#04x} from a client", other.opcode()),
                );
                return Ok(());
            }
        }
        // Flush once per read burst: when the read buffer already holds
        // the whole next frame, answer it first, so k pipelined frames get
        // their k replies in one write and their lanes one round of
        // wake-ups. That next `read_message` is served from the buffer and
        // cannot block. Anything less than a whole frame (nothing, part of
        // a length prefix, part of a body, a length `read_message` will
        // refuse) flushes first: the client may be waiting for these
        // replies before it sends the rest, and gating on a merely
        // non-empty buffer would deadlock it.
        if wire::holds_complete_frame(reader.buffer()) {
            continue;
        }
        match &shared.metrics {
            Some(m) => {
                let stamp = clock::stamp();
                writer.flush()?;
                m.flush.record(stamp.elapsed_nanos());
            }
            None => writer.flush()?,
        }
        // The client has its acks: only now wake the lanes the burst fed.
        wakes.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    use otc_core::forest::Forest;
    use otc_core::policy::{CachePolicy, PolicyFactory};
    use otc_core::tc::{TcConfig, TcFast, TcReference};
    use otc_core::tree::{NodeId, Tree};
    use otc_sim::{replay_trace_rebalancing, RebalanceConfig, RebalanceReplay};
    use otc_util::SplitMix64;

    use super::*;
    use crate::rebalance::initial_table;
    use crate::Client;

    fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
        Box::new(TcFast::new(tree, TcConfig::new(2, 6)))
    }

    /// The lane tests' service: the cells of a 12-leaf star in 4 groups,
    /// a placement decision every 150 requests.
    const GROUPS: u32 = 4;

    fn lane_tree() -> Tree {
        Tree::star(12)
    }

    fn lane_engine(forest: &Forest) -> ShardedEngine<'static> {
        lane_engine_over(forest, &factory)
    }

    fn lane_engine_over(forest: &Forest, factory: &dyn PolicyFactory) -> ShardedEngine<'static> {
        let cfg = EngineConfig::new(2).audit_every(64).telemetry(true);
        ShardedEngine::new(forest.clone(), factory, cfg)
    }

    fn lane_rebalance() -> RebalancePolicy {
        let rcfg = RebalanceConfig::new(150).threshold_x1000(1000);
        RebalancePolicy::new(
            GROUPS,
            rcfg,
            Arc::new(factory) as Arc<dyn PolicyFactory + Send + Sync>,
        )
    }

    /// A hot node that jumps every 200 requests, so loads shift and the
    /// planner keeps moving cells.
    fn shifting_hot(universe: usize, len: usize, seed: u64) -> Vec<Request> {
        let mut rng = SplitMix64::new(seed);
        let mut hot = 0;
        (0..len)
            .map(|i| {
                if i % 200 == 0 {
                    hot = rng.index(universe) as u32;
                }
                let v =
                    if rng.chance(0.6) { NodeId(hot) } else { NodeId(rng.index(universe) as u32) };
                if rng.chance(0.3) {
                    Request::neg(v)
                } else {
                    Request::pos(v)
                }
            })
            .collect()
    }

    /// One client, fixed chunking: the accepted order, and with it the
    /// rebalance schedule, is the request vector itself.
    fn drive(server: &Server, reqs: &[Request]) {
        let mut client = Client::connect(server.addr()).expect("connect");
        for chunk in reqs.chunks(37) {
            client.submit(chunk).expect("submit");
        }
        client.drain().expect("drain");
        client.bye().expect("bye");
    }

    /// A fresh scratch directory per call.
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let id = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("otc_lanes_{tag}_{}_{id}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// Every `snap-*.otcs` file in `dir`, by name.
    fn snapshot_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
            .expect("snapshot dir")
            .flatten()
            .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
            .filter(|(name, _)| name.starts_with("snap-") && name.ends_with(".otcs"))
            .map(|(name, path)| (name, fs::read(path).expect("snapshot file")))
            .collect();
        files.sort();
        files
    }

    /// Replays a logged trace on a fresh engine and rebalancer.
    fn replay(forest: &Forest, bytes: &[u8]) -> (RebalanceReplay, Vec<Report>, Timeline) {
        replay_on(lane_engine(forest), bytes)
    }

    /// Replays a logged trace on `engine` (fresh) and a fresh rebalancer.
    fn replay_on(
        mut engine: ShardedEngine<'static>,
        bytes: &[u8],
    ) -> (RebalanceReplay, Vec<Report>, Timeline) {
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("logged header");
        let mut reb = Rebalancer::new(
            lane_rebalance().config,
            initial_table(engine.num_shards(), GROUPS).expect("shape"),
        );
        let out = replay_trace_rebalancing(&mut engine, &mut reader, &mut reb, &mut Vec::new())
            .expect("replay verifies the live schedule");
        let timeline = engine.timeline();
        (out, engine.into_reports().expect("verified replay"), timeline)
    }

    /// The lane count is free: a rebalancing, snapshotting service with
    /// 4 groups on 1, 2 and 4 lanes produces byte-identical reports, log,
    /// snapshots and rebalance summary, each equal to the replay of its
    /// own log. At 2 lanes the schedule holds both a same-lane move (no
    /// handoff) and a cross-lane one (`MigrateOut`/`Install`).
    #[test]
    fn lane_count_never_changes_results() {
        let tree = lane_tree();
        let forest = Forest::cells(&tree);
        let stream = shifting_hot(tree.len(), 2400, 11);
        let mut runs = Vec::new();
        for lanes in [1, 2, 4] {
            let dir = scratch_dir("differential");
            let cfg = ServeConfig {
                snapshots: Some(SnapshotPolicy { dir: dir.clone(), every: 173 }),
                rebalance: Some(lane_rebalance()),
                ..ServeConfig::default()
            };
            let server =
                Server::start_with_lanes(lane_engine(&forest), cfg, lanes).expect("bind loopback");
            assert_eq!(server.workers.len(), lanes);
            assert_eq!(server.num_groups(), GROUPS as usize);
            drive(&server, &stream);
            let outcome = server.shutdown().expect("clean shutdown");
            let snapshots = snapshot_files(&dir);
            fs::remove_dir_all(&dir).ok();
            assert!(!snapshots.is_empty(), "the cadence took snapshots");
            assert_eq!(outcome.snapshots_written, snapshots.len() as u64);

            let bytes = outcome.trace_bytes.clone().expect("memory log");
            let (out, per_shard, timeline) = replay(&forest, &bytes);
            let summary = outcome.rebalance.clone().expect("rebalancing");
            assert_eq!(per_shard, outcome.per_shard, "{lanes} lanes: live ≡ replay");
            assert_eq!(timeline, outcome.timeline);
            assert_eq!(out.verified, summary.boundaries);
            assert_eq!(
                out.schedule.iter().map(|r| r.moves.len() as u64).sum::<u64>(),
                summary.migrations
            );

            if lanes == 2 {
                let (mut same, mut cross) = (0, 0);
                let mut owners =
                    initial_table(forest.num_shards(), GROUPS).expect("shape").owners().to_vec();
                for record in &out.schedule {
                    for (_, src, dst) in net_moves(&owners, &record.moves).expect("known cells") {
                        if lane_of(src as usize, 2) == lane_of(dst as usize, 2) {
                            same += 1;
                        } else {
                            cross += 1;
                        }
                    }
                    for &(cell, dst) in &record.moves {
                        owners[cell as usize] = dst;
                    }
                }
                assert!(same > 0, "no same-lane move: the in-lane path went unexercised");
                assert!(cross > 0, "no cross-lane move: the handoff path went unexercised");
            }
            runs.push((outcome.per_shard, bytes, snapshots, summary, outcome.timeline));
        }
        for run in &runs[1..] {
            assert!(run.0 == runs[0].0, "per-shard reports differ across lane counts");
            assert!(run.1 == runs[0].1, "OTCT logs differ across lane counts");
            assert!(run.2 == runs[0].2, "snapshots differ across lane counts");
            assert_eq!(run.3, runs[0].3, "rebalance summaries differ across lane counts");
            assert!(run.4 == runs[0].4, "telemetry differs across lane counts");
        }
    }

    /// A migration moves the cell's live worker, so it asks nothing of
    /// the policy: `TcReference` cells cannot be snapshotted, yet a
    /// 2-lane service over them migrates across lanes, shuts down clean,
    /// and matches both the replay of its own log and the same service
    /// on 1 lane.
    #[test]
    fn cells_without_snapshots_migrate_across_lanes() {
        fn reference(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
            Box::new(TcReference::new(tree, TcConfig::new(2, 6)))
        }
        let tree = lane_tree();
        let forest = Forest::cells(&tree);
        let stream = shifting_hot(tree.len(), 2400, 11);
        let err = lane_engine_over(&forest, &reference)
            .write_snapshot(LogPosition { offset: 0, records: 0 }, &mut Vec::new())
            .expect_err("the premise: TcReference refuses snapshots");
        assert!(err.message.contains("does not support snapshots"), "{err}");

        let mut runs = Vec::new();
        for lanes in [1, 2] {
            let cfg = ServeConfig { rebalance: Some(lane_rebalance()), ..ServeConfig::default() };
            let server =
                Server::start_with_lanes(lane_engine_over(&forest, &reference), cfg, lanes)
                    .expect("bind loopback");
            drive(&server, &stream);
            let outcome = server.shutdown().expect("clean shutdown");
            let bytes = outcome.trace_bytes.clone().expect("memory log");
            let (out, per_shard, timeline) =
                replay_on(lane_engine_over(&forest, &reference), &bytes);
            let summary = outcome.rebalance.clone().expect("rebalancing");
            assert_eq!(per_shard, outcome.per_shard, "{lanes} lanes: live ≡ replay");
            assert_eq!(timeline, outcome.timeline, "{lanes} lanes: telemetry ≡ replay");
            assert_eq!(out.verified, summary.boundaries);

            if lanes == 2 {
                let mut owners =
                    initial_table(forest.num_shards(), GROUPS).expect("shape").owners().to_vec();
                let mut cross = 0;
                for record in &out.schedule {
                    let moves = net_moves(&owners, &record.moves).expect("known cells");
                    cross += moves
                        .iter()
                        .filter(|m| lane_of(m.1 as usize, 2) != lane_of(m.2 as usize, 2))
                        .count();
                    for &(cell, dst) in &record.moves {
                        owners[cell as usize] = dst;
                    }
                }
                assert!(cross > 0, "no cross-lane move: the handoff path went unexercised");
            }
            runs.push((outcome.per_shard, outcome.timeline, summary));
        }
        assert!(runs[1].0 == runs[0].0, "per-shard reports differ across lane counts");
        assert!(runs[1].1 == runs[0].1, "telemetry differs across lane counts");
        assert_eq!(runs[1].2, runs[0].2, "rebalance summaries differ across lane counts");
    }

    /// Neither OTCT nor OTCS records the lane count: a service killed on
    /// 2 lanes resumes on 1, and one killed on 1 resumes on 2, each
    /// bit-identical to an uninterrupted run (invariant #6).
    #[test]
    fn resume_across_lane_counts_matches_the_uninterrupted_run() {
        let tree = lane_tree();
        let forest = Forest::cells(&tree);
        let stream = shifting_hot(tree.len(), 1500, 29);
        let (pre, post) = stream.split_at(1000);
        let serve_cfg = |dir: &Path| ServeConfig {
            log: TraceLog::File(dir.join("serve.otct")),
            snapshots: Some(SnapshotPolicy { dir: dir.join("snaps"), every: 211 }),
            rebalance: Some(lane_rebalance()),
            ..ServeConfig::default()
        };

        let twin_dir = scratch_dir("twin");
        let server = Server::start_with_lanes(lane_engine(&forest), serve_cfg(&twin_dir), 4)
            .expect("bind loopback");
        drive(&server, pre);
        drive(&server, post);
        let twin = server.shutdown().expect("clean shutdown");
        let twin_log = fs::read(twin_dir.join("serve.otct")).expect("twin log");
        fs::remove_dir_all(&twin_dir).ok();

        for (kill_lanes, resume_lanes) in [(2, 1), (1, 2)] {
            let dir = scratch_dir("resume");
            let server =
                Server::start_with_lanes(lane_engine(&forest), serve_cfg(&dir), kill_lanes)
                    .expect("bind loopback");
            drive(&server, pre);
            server.kill().expect("kill syncs the log");
            let (server, resumed) =
                Server::resume_with_lanes(lane_engine(&forest), serve_cfg(&dir), resume_lanes)
                    .expect("resume");
            assert_eq!(server.workers.len(), resume_lanes);
            assert_eq!(resumed.requests_recovered, pre.len() as u64);
            assert!(resumed.snapshot_records.is_some(), "a snapshot should have been usable");
            drive(&server, post);
            let recovered = server.shutdown().expect("clean shutdown");
            let log = fs::read(dir.join("serve.otct")).expect("recovered log");
            fs::remove_dir_all(&dir).ok();

            let at = format!("killed on {kill_lanes} lanes, resumed on {resume_lanes}");
            assert_eq!(recovered.requests_served, twin.requests_served, "{at}");
            assert!(recovered.per_shard == twin.per_shard, "{at}: per-shard reports differ");
            assert!(recovered.report == twin.report, "{at}: aggregate differs");
            assert!(recovered.timeline == twin.timeline, "{at}: telemetry differs");
            assert_eq!(recovered.rebalance, twin.rebalance, "{at}");
            assert!(log == twin_log, "{at}: the logs differ");
        }
    }

    /// A connection thread stuck writing an ack to a client that never
    /// reads keeps that frame's wake guards alive. A `Drain` from another
    /// client must still return: `wait_drained` wakes every lane first.
    #[test]
    fn held_wake_guards_cannot_stall_a_drain() {
        let forest = Forest::partition(&Tree::star(64), 4);
        let engine = ShardedEngine::new(forest, &factory, EngineConfig::new(2));
        let server = Server::start(engine, ServeConfig::default()).expect("bind loopback");
        // Let every lane worker park on its empty ring first.
        std::thread::sleep(Duration::from_millis(50));
        let requests: Vec<Request> = (0..64).map(|v| Request::pos(NodeId(v))).collect();
        let (mut routed, mut wakes) = (Vec::new(), Vec::new());
        server.shared.ingest(&requests, &mut routed, &mut wakes).expect("ingest");
        assert!(!wakes.is_empty(), "the frame's wakes are deferred to the caller");

        let shared = Arc::clone(&server.shared);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            shared.wait_drained();
            let _ = done_tx.send(());
        });
        let drained = done_rx.recv_timeout(Duration::from_secs(10));
        drop(wakes);
        assert!(drained.is_ok(), "the drain waited on requests whose wake is still held");
        drain.join().expect("drain thread panicked");
        let outcome = server.shutdown().expect("clean shutdown");
        assert_eq!(outcome.requests_served, 64);
    }
}
