//! The loopback TCP serving front-end over detached engine shards.
//!
//! Thread architecture (one arrow = one `otc_util::ring` channel or TCP
//! stream; see `DESIGN.md` "The serving runtime" for the full diagram):
//!
//! ```text
//! client A ──TCP──▶ conn thread A ─┐            ┌─▶ group 0 {ShardWorker…}
//! client B ──TCP──▶ conn thread B ─┤─ ingress ──┤─▶ group 1 {ShardWorker…}
//! client C ──TCP──▶ conn thread C ─┘   lock     └─▶ group G {ShardWorker…}
//!                                      │
//!                                      └─▶ OTCT trace log
//! ```
//!
//! * One **acceptor** thread hands connections to per-connection threads.
//! * Each **connection** thread speaks the wire protocol and pushes
//!   accepted batches through the single **ingress** critical section.
//!   Ingress stages each frame's requests into one run per group and
//!   pushes every run with a single [`ring::Sender::send_batch`]: one
//!   ring lock per group per frame, not per request. The worker
//!   wake-ups leave the critical path entirely: each push returns a
//!   [`ring::Wake`] guard, and the connection thread drops the frame's
//!   guards only after its `Ack` is flushed — one wake-up per group per
//!   frame, outside the ingress lock and after the client has its
//!   answer. Nothing waits on a deferred wake: a sender that finds a
//!   ring full wakes its worker first, markers go out with the eager
//!   [`ring::Sender::send`], and a `Drain` wakes every group before it
//!   waits.
//! * One persistent **group** thread per serving group owns a set of
//!   [`otc_sim::worker::ShardWorker`] cells, fed by a bounded
//!   [`otc_util::ring::channel`] — a full queue blocks ingress
//!   (backpressure) instead of buffering unboundedly. Without a
//!   [`RebalancePolicy`] there is exactly one group per shard (the
//!   classic one-thread-per-shard service); with one, cells migrate
//!   between groups at decision boundaries (see below).
//!
//! **The rebalance boundary protocol.** With
//! [`ServeConfig::rebalance`] set, every `interval` accepted requests
//! the ingress (still under its one lock) floats a `Probe` marker down
//! every group ring and blocks until each group has reported its cells'
//! cumulative loads — FIFO means each group answers after executing
//! exactly the boundary prefix, and group threads never take the ingress
//! lock, so the wait always makes progress. The sampled loads drive
//! [`otc_sim::Rebalancer::on_boundary`] (a pure function of the logged
//! stream), the decision is appended to the OTCT log as a
//! `RebalanceRecord`, and the moves are executed as `MigrateOut` /
//! `Install` marker pairs, one pair per cell whose owner changed (the
//! greedy planner may move a cell twice in one decision; live, it
//! migrates once, from its owner before the boundary to its owner
//! after it). **All** `MigrateOut`s are enqueued before
//! **any** `Install`, so per-ring FIFO guarantees every group serializes
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
//! is logged when it is appended to its group's run, every run is
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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
use crate::rebalance::{detach_cell, install_cell, net_moves, Handoff, Probe, RebalancePolicy};
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
    /// Capacity of each per-shard ring; a full ring blocks ingress
    /// (backpressure).
    pub queue_capacity: usize,
    /// Most requests a worker drains per wakeup (bounds per-wakeup
    /// latency under burst).
    pub worker_batch: usize,
    /// Where the request stream is logged.
    pub log: TraceLog,
    /// Periodic engine snapshots, each addressing a position in the
    /// trace log. `None` = never snapshot; recovery is then pure log
    /// replay.
    pub snapshots: Option<SnapshotPolicy>,
    /// Dynamic resharding under live skew. `None` (the default) pins one
    /// worker thread per shard forever; `Some` spreads the engine's
    /// cells over [`RebalancePolicy::groups`] worker threads and
    /// migrates cells between them at decision boundaries (see the
    /// module docs for the protocol and `DESIGN.md` for invariant #7).
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

/// What flows through a group ring: shard-local requests tagged with
/// their cell, interleaved with markers. Every marker rides the same
/// FIFO as the requests around it, so a group acts on it after
/// executing exactly the log prefix the marker addresses — consistent
/// cuts, consistent load probes and consistent migration points, all
/// with no pause and no cross-group coordination beyond the enqueue.
enum Cmd {
    /// One shard-local request for the given cell.
    Req(u32, Request),
    /// Snapshot cut: serialize every hosted cell into the cut.
    Cut(Arc<Cut>),
    /// Rebalance boundary: report every hosted cell's cumulative load.
    Probe(Arc<Probe>),
    /// This group loses the cell: serialize it and offer the handoff.
    MigrateOut(u32, Arc<Handoff>),
    /// This group gains the cell: block on the handoff and install it.
    Install(u32, Arc<Handoff>),
    /// Ring-wait sample (only ever enqueued with metrics on): the worker
    /// records how long ago ingress staged the stamp (the rest of the
    /// frame's staging, the ack up to the post-ack wake, and the time in
    /// the ring) and does nothing else —
    /// unlike every other marker it does **not** flush the buffered run,
    /// so it is invisible to batching and to state.
    Stamp(Stamp),
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
    /// The group rings' senders and the trace sink, present from start
    /// until shutdown or kill takes both in one lock hold.
    open: Option<(Vec<ring::Sender<Cmd>>, TraceSink)>,
    /// Per-group runs staged by the current [`Shared::ingest`] call and
    /// delivered with one `send_batch` per group; empty between calls.
    /// They start empty and keep their capacity, so each grows to the
    /// largest frame's share once.
    runs: Vec<Vec<Cmd>>,
    /// Requests delivered per group over the service lifetime.
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
    /// Requests *executed* per shard; workers bump it per batch and
    /// notify, drain barriers wait on it.
    progress: Mutex<Vec<u64>>,
    progress_cv: Condvar,
    /// First protocol violation anywhere in the service (sticky poison).
    poisoned: Mutex<Option<EngineError>>,
    /// Snapshot cadence, when configured.
    snapshots: Option<SnapshotPolicy>,
    /// Rebalance policy, when configured (group threads need the factory
    /// and engine config to install migrated cells).
    rebalance: Option<RebalancePolicy>,
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
    /// Under the one ingress lock hold, each request is logged and then
    /// appended to its group's staged run; the runs go out with one
    /// [`ring::Sender::send_batch`] per group — one ring lock per group
    /// per frame instead of per request. The pushes do not wake the
    /// workers: their [`ring::Wake`] guards are appended to `wakes`, for
    /// the caller to drop once the frame's ack is flushed (on every exit
    /// path, errors included, since dropping is what wakes). The runs are
    /// flushed, still under the lock, at three points: before a
    /// rebalance boundary (the `Probe` must follow the boundary prefix,
    /// or `wait_all` would wait on requests nobody sent), before a
    /// snapshot cut, and at the end of the call. Logging order per group
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
        // call's first request, in that request's group run; the group
        // records how long it waited. At most one per ingest, so the
        // sampling cost is amortised across the batch.
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
                let run = &mut runs[group];
                if stamp_pending {
                    stamp_pending = false;
                    run.push(Cmd::Stamp(clock::stamp()));
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
                return Err("a group worker exited mid-service; the boundary prefix \
                            cannot be sampled"
                    .to_string());
            }
        }
        // Blocking while holding the ingress lock is safe here: group
        // threads never take the ingress lock, so they always drain
        // their rings down to the probe.
        let loads = probe.wait_all();
        let owners_before: Vec<u32> = reb.table().owners().to_vec();
        let record = reb.on_boundary(&loads)?;
        sink.push_rebalance(&record)
            .map_err(|e| format!("trace log write of a rebalance record failed: {e}"))?;
        // The planner may move a cell more than once per decision; live,
        // each cell migrates once, from its owner before the boundary to
        // its owner after it. All MigrateOuts before all Installs (see
        // module docs).
        let net = net_moves(&owners_before, &record.moves)?;
        let mut pending = Vec::with_capacity(net.len());
        for (cell, src, dst) in net {
            let handoff = Arc::new(Handoff::new());
            if senders[src as usize].send(Cmd::MigrateOut(cell, Arc::clone(&handoff))).is_err() {
                return Err(format!("group {src} exited with cell {cell} still to migrate"));
            }
            pending.push((cell, dst, handoff));
        }
        for (cell, dst, handoff) in pending {
            if senders[dst as usize].send(Cmd::Install(cell, handoff)).is_err() {
                return Err(format!("group {dst} exited with cell {cell} still to install"));
            }
        }
        *migrations += record.moves.len() as u64;
        Ok(())
    }

    /// Takes a consistent cut under the ingress lock: syncs the log so
    /// the bytes a snapshot will address are durable, prebuilds the OTCS
    /// header for the current log position, and floats one cut marker
    /// down every shard ring.
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
    /// Wakes every group first: a connection thread blocked writing an
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
    /// One thread per group, each returning the cells it hosts at exit.
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
        let groups = rebalancer.as_ref().map_or(shards, |r| r.table().num_groups() as usize);
        Self::start_inner(
            router,
            shard_workers,
            engine_cfg,
            sink,
            vec![0; groups],
            0,
            rebalancer,
            0,
            &cfg,
        )
    }

    /// The common tail of [`Server::start`] and [`Server::resume`]:
    /// spin the rings, workers, listener and acceptor around already
    /// initialised ingress counters and an already positioned sink.
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
        enqueued: Vec<u64>,
        accepted: u64,
        rebalancer: Option<Rebalancer>,
        migrations: u64,
        cfg: &ServeConfig,
    ) -> io::Result<Server> {
        if let Some(policy) = &cfg.snapshots {
            fs::create_dir_all(&policy.dir)?;
        }

        // Distribute the cells to their groups: the rebalancer's table
        // when rebalancing (resume hands in a table already advanced to
        // the recovery point), identity otherwise.
        let groups =
            rebalancer.as_ref().map_or(shard_workers.len(), |r| r.table().num_groups() as usize);
        if enqueued.len() != groups {
            return Err(io::Error::other("one enqueued counter per group (internal)"));
        }
        // The cost counters start from the cells' totals, so a resumed
        // service keeps counting its lifetime, not its latest run.
        let metrics = cfg.metrics.then(|| {
            let metrics = ServeMetrics::new(router.num_shards(), groups);
            for w in &shard_workers {
                metrics.add_cost(w.rounds(), w.paid_rounds(), w.cost());
            }
            Arc::new(metrics)
        });
        let mut grouped: Vec<BTreeMap<u32, ShardWorker>> =
            (0..groups).map(|_| BTreeMap::new()).collect();
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
            let Some(slot) = grouped.get_mut(group) else {
                return Err(io::Error::other(format!(
                    "cell {} routed to group {group} of {groups} (internal)",
                    cell.index()
                )));
            };
            slot.insert(cell.0, worker);
        }

        let mut senders = Vec::with_capacity(groups);
        let mut receivers = Vec::with_capacity(groups);
        for _ in 0..groups {
            let (tx, rx) = ring::channel(cfg.queue_capacity.max(1));
            senders.push(tx);
            receivers.push(rx);
        }

        let shared = Arc::new(Shared {
            router,
            engine_cfg,
            ingress: Mutex::new(Ingress {
                open: Some((senders, sink)),
                runs: (0..groups).map(|_| Vec::new()).collect(),
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
            rebalance: cfg.rebalance.clone(),
            metrics,
            snapshots_written: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });

        let batch = cfg.worker_batch.max(1);
        let workers: Vec<JoinHandle<Vec<ShardWorker>>> = grouped
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(group, (cells, rx))| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(group, cells, &rx, &shared, batch))
            })
            .collect();

        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Server { addr, shared, acceptor: Some(acceptor), workers })
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

    /// Number of serving groups (= persistent worker threads). Equal to
    /// [`Server::num_shards`] unless the service rebalances.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.workers.len()
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
        // Closing ingress drops the senders; each group drains its ring
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
        // Cell order, whatever group each cell ended up on: the outputs
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
        mut engine: ShardedEngine<'static>,
        cfg: ServeConfig,
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
        // the forest); the per-group counters are derived at the end from
        // the recovered routing table. Complete rebalance records are
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

        // The per-group counters the recovered service starts from: each
        // cell's replayed requests count toward the group that owns the
        // cell *now* (the recovered table), matching the distribution
        // start_inner is about to perform.
        let enqueued = match &rebalancer {
            Some(reb) => {
                let groups = reb.table().num_groups() as usize;
                let mut per_group = vec![0u64; groups];
                for (cell, &count) in cell_counts.iter().enumerate() {
                    let group =
                        reb.table().owner_of(ShardId(cell as u32)).map_or(0, |g| g as usize);
                    if let Some(slot) = per_group.get_mut(group) {
                        *slot += count;
                    }
                }
                per_group
            }
            None => cell_counts,
        };

        let server = Self::start_inner(
            router,
            shard_workers,
            engine_cfg,
            sink,
            enqueued,
            good_records,
            rebalancer,
            migrations,
            &cfg,
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

/// Delivers every group's staged run with one [`ring::Sender::send_batch`]
/// and credits `enqueued` with the requests of each run that arrived —
/// only then, so [`Shared::wait_drained`] never waits for a run that
/// failed to send. Each push's deferred wake is appended to `wakes`;
/// empty runs are skipped, so they add none.
///
/// # Errors
/// The first group whose worker is gone, naming the cell of its first
/// undelivered request.
fn flush_runs(
    senders: &[ring::Sender<Cmd>],
    runs: &mut [Vec<Cmd>],
    enqueued: &mut [u64],
    wakes: &mut Vec<ring::Wake<Cmd>>,
) -> Result<(), (Option<ShardId>, String)> {
    for (group, ((sender, run), done)) in senders.iter().zip(runs).zip(enqueued).enumerate() {
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
                format!("group {group} worker is gone; logged requests were dropped"),
            ));
        }
        *done += requests;
    }
    Ok(())
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

/// Per-group worker thread: drain the ring in FIFO batches, drive the
/// hosted [`ShardWorker`] cells through the request runs between
/// markers, publish progress; exit (returning the cells it
/// ended up hosting) when ingress closes the channel.
fn worker_loop(
    group: usize,
    mut cells: BTreeMap<u32, ShardWorker>,
    rx: &ring::Receiver<Cmd>,
    shared: &Shared,
    batch: usize,
) -> Vec<ShardWorker> {
    let mut buf: Vec<Cmd> = Vec::with_capacity(batch);
    let mut scratch: Vec<Request> = Vec::with_capacity(batch);
    loop {
        buf.clear();
        if rx.recv_batch(&mut buf, batch).is_err() {
            return cells.into_values().collect(); // disconnected and drained
        }
        let mut executed = 0u64;
        // Consecutive requests for the same cell run as one batch; any
        // marker (and any cell switch) flushes the buffered run first, so
        // every marker acts after exactly the prefix FIFO put before it.
        let mut run_cell: Option<u32> = None;
        scratch.clear();
        for cmd in buf.drain(..) {
            match cmd {
                Cmd::Req(cell, r) => {
                    if run_cell != Some(cell) {
                        executed += run_buffered(&mut cells, run_cell, &mut scratch, shared);
                        run_cell = Some(cell);
                    }
                    scratch.push(r);
                }
                // A stamp is *not* a marker: it records and vanishes
                // without flushing the buffered run, so batching — and
                // therefore execution — is identical with metrics off.
                Cmd::Stamp(stamp) => {
                    if let Some(m) = &shared.metrics {
                        m.record_ring_wait(group, stamp.elapsed_nanos());
                    }
                }
                marker => {
                    executed += run_buffered(&mut cells, run_cell, &mut scratch, shared);
                    run_cell = None;
                    match marker {
                        Cmd::Req(..) | Cmd::Stamp(..) => {} // unreachable: handled above
                        Cmd::Cut(cut) => emit_sections(&cells, &cut, shared),
                        Cmd::Probe(probe) => {
                            probe.fill(cells.iter().map(|(&c, w)| (c as usize, w.cell_load())));
                        }
                        Cmd::MigrateOut(cell, handoff) => {
                            let payload = match cells.remove(&cell) {
                                Some(worker) => detach_cell(&worker),
                                None => Err("the group does not host the cell".to_string()),
                            };
                            if let Err(e) = &payload {
                                shared.set_poison(
                                    Some(ShardId(cell)),
                                    format!("cell {cell} migration failed at the source: {e}"),
                                );
                            }
                            // Always offer — even the failure — so the
                            // destination never blocks forever.
                            handoff.offer(payload);
                        }
                        Cmd::Install(cell, handoff) => {
                            // An Err take means the source already
                            // poisoned with the root cause; nothing to
                            // install here.
                            if let Ok(payload) = handoff.take() {
                                let built = match shared.rebalance.as_ref() {
                                    Some(policy) => install_cell(
                                        &payload,
                                        ShardId(cell),
                                        policy.factory.as_ref(),
                                        shared.engine_cfg,
                                    ),
                                    None => Err("migration without a rebalance policy".to_string()),
                                };
                                match built {
                                    Ok(worker) => {
                                        cells.insert(cell, worker);
                                    }
                                    Err(e) => shared.set_poison(
                                        Some(ShardId(cell)),
                                        format!("cell {cell} install failed: {e}"),
                                    ),
                                }
                            }
                        }
                    }
                }
            }
        }
        executed += run_buffered(&mut cells, run_cell, &mut scratch, shared);
        // Progress counts *consumed* requests even past a violation, so
        // drain barriers and backpressure keep moving while the error
        // propagates.
        {
            let mut progress = locked(&shared.progress);
            if let Some(slot) = progress.get_mut(group) {
                *slot += executed;
            }
            shared.progress_cv.notify_all();
        }
    }
}

/// Runs (and clears) one buffered run of requests on the cell that
/// buffered them, poisoning the service on the first violation. With
/// metrics on, it times the run and adds the cell's cost deltas to the
/// cost counters — before the caller publishes progress, so a scrape
/// after a drain barrier is exact. Returns how many requests were
/// consumed (consumed ≠ executed only past a violation or a protocol
/// bug, and both poison).
fn run_buffered(
    cells: &mut BTreeMap<u32, ShardWorker>,
    cell: Option<u32>,
    scratch: &mut Vec<Request>,
    shared: &Shared,
) -> u64 {
    let n = scratch.len() as u64;
    if n == 0 {
        return 0;
    }
    let Some(cell) = cell else {
        scratch.clear();
        return n; // unreachable: requests always tag their cell
    };
    let Some(worker) = cells.get_mut(&cell) else {
        // The routing table said this group owns the cell but it does
        // not: a migration protocol bug. Poison loudly; still count the
        // requests as consumed so drain barriers keep moving.
        shared.set_poison(
            Some(ShardId(cell)),
            format!("request routed to a group that does not host cell {cell}"),
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

/// Serializes every cell this group hosts into `cut`; the group that
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
    // The wake guards of the frame being answered, dropped once its reply
    // is flushed (or with this frame on any early return).
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
        // Flush every reply before blocking on the next read. Gating this
        // on an empty read buffer looks like a batching win but is a
        // liveness hazard: a partial next frame in the buffer would leave
        // the reply unflushed while `read_message` blocks on the socket —
        // deadlocking any client that waits for the ack before sending
        // the rest. One small write per reply (with TCP_NODELAY) is the
        // correct trade.
        match &shared.metrics {
            Some(m) => {
                let stamp = clock::stamp();
                writer.flush()?;
                m.flush.record(stamp.elapsed_nanos());
            }
            None => writer.flush()?,
        }
        // The client has its ack: only now wake the groups this frame fed.
        wakes.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use otc_core::forest::Forest;
    use otc_core::policy::CachePolicy;
    use otc_core::tc::{TcConfig, TcFast};
    use otc_core::tree::{NodeId, Tree};

    use super::*;

    fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
        Box::new(TcFast::new(tree, TcConfig::new(2, 6)))
    }

    /// A connection thread stuck writing an ack to a client that never
    /// reads keeps that frame's wake guards alive. A `Drain` from another
    /// client must still return: `wait_drained` wakes every group first.
    #[test]
    fn held_wake_guards_cannot_stall_a_drain() {
        let forest = Forest::partition(&Tree::star(64), 4);
        let engine = ShardedEngine::new(forest, &factory, EngineConfig::new(2));
        let server = Server::start(engine, ServeConfig::default()).expect("bind loopback");
        // Let every group worker park on its empty ring first.
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
