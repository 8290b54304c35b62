//! The two serving workloads: closed-loop clients against a loopback
//! `otc_serve::Server`, timed from the client side.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::{CachePolicy, PolicyFactory};
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_obs::MetricsSnapshot;
use otc_serve::{
    Client, RebalancePolicy, ResumeOutcome, ServeConfig, Server, SnapshotPolicy, TraceLog,
};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::RebalanceConfig;

use crate::checks::{DurableEvidence, PipelinedEvidence};
use crate::inputs::{self, ServeInputs};
use crate::output::{Metric, RunOutput};
use crate::stats::{median, peak_rss_mib, percentile, reset_peak_rss};
use crate::{Scale, Workload, ALPHA};

/// Client connections of both serving workloads.
pub const CLIENTS: usize = 2;
/// Requests per `serve-pipelined` frame.
pub const PIPELINED_FRAME: usize = 256;
/// Frames a `serve-pipelined` client keeps in flight.
pub const PIPELINED_DEPTH: usize = 8;
/// Requests per `serve-durable` frame.
pub const DURABLE_FRAME: usize = 16;
/// Serving groups (worker threads) of the rebalancing service.
pub const DURABLE_GROUPS: u32 = 4;
/// Accepted requests between snapshot cuts. Not a divisor of the round
/// length, so every kill leaves a log tail past the last snapshot.
pub const SNAPSHOT_EVERY: u64 = 50_000;
/// Accepted requests between rebalance decision boundaries.
pub const REBALANCE_INTERVAL: u64 = 16_384;

/// The policy every workload serves with: `TcFast` at `capacity` slots
/// per shard.
pub fn factory(
    capacity: usize,
) -> impl Fn(Arc<Tree>, ShardId) -> Box<dyn CachePolicy> + Clone + Send + Sync + 'static {
    move |tree, _shard| Box::new(TcFast::new(tree, TcConfig::new(ALPHA, capacity)))
}

/// The engine configuration every workload serves with.
#[must_use]
pub fn engine_cfg() -> EngineConfig {
    EngineConfig::bare(ALPHA)
}

/// The decision cadence of the rebalancing service. One move per
/// boundary: with several, about one round in fifty poisons the service
/// with a `MigrateOut` sent to a group that does not host the cell (see
/// README.md, "Known issue").
#[must_use]
pub fn rebalance_cfg() -> RebalanceConfig {
    RebalanceConfig::new(REBALANCE_INTERVAL).threshold_x1000(1150).max_moves(1)
}

/// Splits `stream` into `frame`-sized frames dealt round-robin to
/// `clients` clients; each client's frames are concatenated.
#[must_use]
pub fn deal_frames(stream: &[Request], frame: usize, clients: usize) -> Vec<Vec<Request>> {
    let mut out = vec![Vec::new(); clients];
    for (i, chunk) in stream.chunks(frame).enumerate() {
        out[i % clients].extend_from_slice(chunk);
    }
    out
}

/// How a client offers load.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Requests per frame.
    pub frame: usize,
    /// Frames in flight; `1` means synchronous `Client::submit`.
    pub depth: usize,
    /// Frames each client sends, cycling through its requests; `None`
    /// sends each of its requests once.
    pub frames: Option<usize>,
    /// Record a span per `send` / `wait_acks` call.
    pub traced: bool,
}

/// What one client did.
#[derive(Debug, Default)]
pub struct ClientTally {
    /// Requests sent.
    pub sent: u64,
    /// Requests acknowledged as accepted.
    pub acked: u64,
    /// Requests lost to a rejection or a socket error.
    pub failed: u64,
    /// Per-frame time from `send`/`submit` to the return of the call that
    /// collected its acknowledgement.
    pub latencies_ns: Vec<u64>,
    /// `(start, end)` of each `Client::send` call (traced runs only).
    pub sends: Vec<(Instant, Instant)>,
    /// `(start, end)` of each `Client::wait_acks` call (traced runs only).
    pub waits: Vec<(Instant, Instant)>,
    /// First send.
    pub started: Option<Instant>,
    /// Return of the client's drain barrier.
    pub drained: Option<Instant>,
    /// The error that stopped the client.
    pub error: Option<String>,
    /// The scrape taken after every client drained (client 0 only).
    pub scrape: Option<MetricsSnapshot>,
}

/// Most call spans a client records in a traced run.
const MAX_CALL_SPANS: usize = 1 << 16;

fn offer(
    client: &mut Client,
    reqs: &[Request],
    load: Load,
    tally: &mut ClientTally,
) -> std::io::Result<()> {
    let started = Instant::now();
    tally.started = Some(started);
    let mut inflight: Vec<Instant> = Vec::with_capacity(load.depth);
    let mut pending = 0u64;
    let trace_calls = |v: &Vec<(Instant, Instant)>| load.traced && v.len() < MAX_CALL_SPANS;
    let frames = load.frames.unwrap_or_else(|| reqs.len().div_ceil(load.frame));
    for frame in reqs.chunks(load.frame).cycle().take(frames) {
        let t = Instant::now();
        client.send(frame)?;
        if trace_calls(&tally.sends) {
            tally.sends.push((t, Instant::now()));
        }
        inflight.push(t);
        pending += frame.len() as u64;
        tally.sent += frame.len() as u64;
        if inflight.len() >= load.depth {
            collect(client, &mut inflight, &mut pending, load, tally)?;
        }
    }
    collect(client, &mut inflight, &mut pending, load, tally)?;
    client.drain()?;
    tally.drained = Some(Instant::now());
    Ok(())
}

fn collect(
    client: &mut Client,
    inflight: &mut Vec<Instant>,
    pending: &mut u64,
    load: Load,
    tally: &mut ClientTally,
) -> std::io::Result<()> {
    if inflight.is_empty() {
        return Ok(());
    }
    let t0 = Instant::now();
    let accepted = client.wait_acks()?;
    let t1 = Instant::now();
    if load.traced && tally.waits.len() < MAX_CALL_SPANS {
        tally.waits.push((t0, t1));
    }
    for sent_at in inflight.drain(..) {
        tally.latencies_ns.push(t1.duration_since(sent_at).as_nanos() as u64);
    }
    // A short acknowledgement means the server accepted fewer requests
    // than were sent: the difference failed.
    tally.failed += pending.saturating_sub(accepted);
    tally.acked += accepted;
    *pending = 0;
    Ok(())
}

/// Drives already connected clients, one thread each, until `load.stop`;
/// every client drains, then client 0 scrapes (when asked) and all say
/// goodbye.
#[must_use]
pub fn drive(
    clients: Vec<Client>,
    per_client: &[Vec<Request>],
    load: Load,
    scrape: bool,
) -> Vec<ClientTally> {
    let go = Barrier::new(clients.len());
    let drained = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(per_client)
            .enumerate()
            .map(|(i, (mut client, reqs))| {
                let (go, drained) = (&go, &drained);
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    go.wait();
                    let result = offer(&mut client, reqs, load, &mut tally);
                    // Every client reaches the barrier, failed or not.
                    drained.wait();
                    let result = result.and_then(|()| {
                        if scrape && i == 0 {
                            tally.scrape = Some(client.scrape()?);
                        }
                        client.bye()
                    });
                    if let Err(e) = result {
                        tally.failed = tally.sent - tally.acked;
                        tally.error = Some(e.to_string());
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientTally {
                    error: Some("client thread panicked".to_string()),
                    ..ClientTally::default()
                })
            })
            .collect()
    })
}

/// A started server with its clients, and how long starting took.
struct Started {
    forest: Forest,
    server: Server,
    clients: Vec<Client>,
    setup_s: f64,
}

/// The timed set-up: forest, engine, server and client connections.
fn start(inputs: &ServeInputs, cfg: ServeConfig) -> std::io::Result<Started> {
    let factory = factory(inputs.capacity);
    let t0 = Instant::now();
    let forest = inputs.forest.build();
    let engine = ShardedEngine::new(forest.clone(), &factory, engine_cfg());
    let server = Server::start(engine, cfg)?;
    let clients = (0..CLIENTS).map(|_| Client::connect(server.addr())).collect::<Result<_, _>>()?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Started { forest, server, clients, setup_s })
}

/// Starts a server, times its set-up, and shuts it down unused.
fn setup_trial(inputs: &ServeInputs, cfg: ServeConfig) -> Result<f64, String> {
    let started = start(inputs, cfg).map_err(|e| format!("set-up: {e}"))?;
    for client in started.clients {
        client.bye().map_err(|e| format!("bye: {e}"))?;
    }
    started.server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(started.setup_s)
}

/// One measured serving round.
#[derive(Debug, Default)]
pub struct ServeRound {
    /// Set-up time of the round's server.
    pub setup_s: f64,
    /// The process's peak resident memory from set-up to shutdown.
    pub peak_rss_mib: f64,
    /// First send to the last client's drain barrier.
    pub elapsed_s: f64,
    /// The load phase's clients.
    pub clients: Vec<ClientTally>,
    /// Wall time of `Server::resume` (durable only).
    pub recover_s: Option<f64>,
    /// What `Server::resume` reconstructed (durable only).
    pub resumed: Option<ResumeOutcome>,
    /// Snapshot files the round left on disk, before and after the
    /// resume (durable only).
    pub snapshots_written: u64,
    /// Rebalance boundaries crossed and migrations executed over the
    /// service's lifetime (durable only).
    pub rebalance: Option<(u64, u64)>,
    /// Errors outside the clients (set-up, shutdown, kill, resume).
    pub errors: Vec<String>,
    /// Requests that failed outside the clients' own tallies.
    pub extra_failed: u64,
    /// Requests sent after the resume (durable only).
    pub tail_sent: u64,
}

impl ServeRound {
    /// Requests sent in the round.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.clients.iter().map(|c| c.sent).sum::<u64>() + self.tail_sent
    }

    /// Requests acknowledged in the load phase.
    #[must_use]
    pub fn acked(&self) -> u64 {
        self.clients.iter().map(|c| c.acked).sum()
    }

    /// Requests that failed in the round.
    #[must_use]
    pub fn failed(&self) -> u64 {
        (self.clients.iter().map(|c| c.failed).sum::<u64>() + self.extra_failed).min(self.sent())
    }

    /// Acknowledged requests per second of the load phase.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.acked() as f64 / self.elapsed_s
    }

    /// Fills in the load phase's elapsed time and collects client errors.
    fn finish_load(&mut self, clients: Vec<ClientTally>) {
        let start = clients.iter().filter_map(|c| c.started).min();
        let end = clients.iter().filter_map(|c| c.drained).max();
        if let (Some(s), Some(e)) = (start, end) {
            self.elapsed_s = e.duration_since(s).as_secs_f64();
        }
        for c in &clients {
            if let Some(e) = &c.error {
                self.errors.push(format!("client: {e}"));
            }
        }
        self.clients = clients;
    }
}

/// One `serve-pipelined` round: start, every client sends its requests
/// once, pipelined, then graceful shutdown. Returns the round and the
/// evidence its check needs.
#[must_use]
pub fn pipelined_round(
    inputs: &ServeInputs,
    per_client: &[Vec<Request>],
    metrics: bool,
) -> (ServeRound, Option<PipelinedEvidence>) {
    let mut round = ServeRound::default();
    let cfg = ServeConfig { log: TraceLog::Memory, metrics, ..ServeConfig::default() };
    reset_peak_rss();
    let started = match start(inputs, cfg) {
        Ok(s) => s,
        Err(e) => {
            round.errors.push(format!("set-up: {e}"));
            return (round, None);
        }
    };
    round.setup_s = started.setup_s;
    let load =
        Load { frame: PIPELINED_FRAME, depth: PIPELINED_DEPTH, frames: None, traced: metrics };
    round.finish_load(drive(started.clients, per_client, load, metrics));
    let shutdown = started.server.shutdown();
    round.peak_rss_mib = peak_rss_mib();
    match shutdown {
        Ok(outcome) => {
            let evidence = PipelinedEvidence {
                forest: started.forest,
                capacity: inputs.capacity,
                per_shard: outcome.per_shard,
                requests_served: outcome.requests_served,
                acked: round.acked(),
                trace_bytes: outcome.trace_bytes.unwrap_or_default(),
            };
            (round, Some(evidence))
        }
        Err(e) => {
            round.errors.push(format!("poisoned shutdown: {e}"));
            round.extra_failed = round.sent();
            (round, None)
        }
    }
}

/// The durable service's configuration, logging into `dir`.
#[must_use]
pub fn durable_cfg(dir: &Path, capacity: usize, metrics: bool) -> ServeConfig {
    let factory: Arc<dyn PolicyFactory + Send + Sync> = Arc::new(factory(capacity));
    ServeConfig {
        log: TraceLog::File(dir.join("serve.otct")),
        snapshots: Some(SnapshotPolicy { dir: dir.join("snaps"), every: SNAPSHOT_EVERY }),
        rebalance: Some(RebalancePolicy::new(DURABLE_GROUPS, rebalance_cfg(), factory)),
        metrics,
        ..ServeConfig::default()
    }
}

/// One `serve-durable` round in `dir`: start, every client submits its
/// requests once, synchronously, then kill, timed resume, a short tail
/// of traffic, graceful shutdown.
#[must_use]
pub fn durable_round(
    inputs: &ServeInputs,
    per_client: &[Vec<Request>],
    tail_frames: usize,
    metrics: bool,
    dir: &Path,
) -> (ServeRound, Option<DurableEvidence>) {
    let mut round = ServeRound::default();
    let _ = fs::remove_dir_all(dir);
    if let Err(e) = fs::create_dir_all(dir) {
        round.errors.push(format!("scratch dir {}: {e}", dir.display()));
        return (round, None);
    }
    let cfg = durable_cfg(dir, inputs.capacity, metrics);
    reset_peak_rss();
    let started = match start(inputs, cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            round.errors.push(format!("set-up: {e}"));
            return (round, None);
        }
    };
    round.setup_s = started.setup_s;
    let load = Load { frame: DURABLE_FRAME, depth: 1, frames: None, traced: metrics };
    round.finish_load(drive(started.clients, per_client, load, metrics));
    let acked_before_kill = round.acked();
    let forest = started.forest;
    if let Err(e) = started.server.kill() {
        round.errors.push(format!("kill: {e}"));
        round.extra_failed = round.sent();
        return (round, None);
    }

    let factory = factory(inputs.capacity);
    let engine = ShardedEngine::new(forest.clone(), &factory, engine_cfg());
    let t0 = Instant::now();
    let resumed = Server::resume(engine, cfg);
    round.recover_s = Some(t0.elapsed().as_secs_f64());
    let (server, resumed) = match resumed {
        Ok(r) => r,
        Err(e) => {
            round.errors.push(format!("resume: {e}"));
            round.extra_failed = round.sent();
            return (round, None);
        }
    };
    round.resumed = Some(resumed.clone());

    let tail_clients: Result<Vec<Client>, _> =
        (0..CLIENTS).map(|_| Client::connect(server.addr())).collect();
    let mut tail_acked = 0;
    match tail_clients {
        Ok(clients) => {
            let tail =
                Load { frame: DURABLE_FRAME, depth: 1, frames: Some(tail_frames), traced: false };
            for c in drive(clients, per_client, tail, false) {
                round.tail_sent += c.sent;
                tail_acked += c.acked;
                round.extra_failed += c.failed;
                if let Some(e) = c.error {
                    round.errors.push(format!("tail client: {e}"));
                }
            }
        }
        Err(e) => round.errors.push(format!("tail connect: {e}")),
    }
    let shutdown = server.shutdown();
    round.peak_rss_mib = peak_rss_mib();
    match shutdown {
        Ok(outcome) => {
            // `outcome` counts only the resumed service's snapshots; the
            // directory holds every snapshot of the round.
            round.snapshots_written = fs::read_dir(dir.join("snaps")).map_or(0, |d| {
                d.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "otcs"))
                    .count() as u64
            });
            round.rebalance = outcome.rebalance.as_ref().map(|r| (r.boundaries, r.migrations));
            let evidence = DurableEvidence {
                forest,
                capacity: inputs.capacity,
                log: fs::read(dir.join("serve.otct")).unwrap_or_default(),
                acked_before_kill,
                requests_recovered: resumed.requests_recovered,
                acked: acked_before_kill + tail_acked,
                requests_served: outcome.requests_served,
                per_shard: outcome.per_shard,
                report: outcome.report,
                rebalance: outcome.rebalance,
            };
            (round, Some(evidence))
        }
        Err(e) => {
            round.errors.push(format!("poisoned shutdown: {e}"));
            round.extra_failed = round.sent();
            (round, None)
        }
    }
}

/// Runs fixed-work rounds until their load phases add up to `seconds`
/// (at least one round), each checked outside its timed region.
fn measure(
    seconds: f64,
    mut round: impl FnMut(usize) -> (ServeRound, Result<(), String>),
) -> Vec<(ServeRound, Result<(), String>)> {
    let mut rounds = Vec::new();
    let mut measured = 0.0;
    while measured < seconds || rounds.is_empty() {
        let (r, check) = round(rounds.len());
        // A round that failed to start measures nothing; stop rather
        // than spin.
        let stalled = r.elapsed_s <= 0.0;
        measured += r.elapsed_s;
        rounds.push((r, check));
        if stalled {
            break;
        }
    }
    rounds
}

/// Folds measured rounds into the end-to-end result of a serving
/// workload: throughput, the acknowledgement-latency percentiles and the
/// peak resident memory are each taken per round and reported as their
/// median over rounds (so a burst of host contention, or of allocator
/// growth, in a few rounds moves them little), and `setup_s` is the
/// median over the rounds' set-ups topped up with set-up-only trials.
fn e2e(
    workload: Workload,
    rounds: Vec<(ServeRound, Result<(), String>)>,
    extra_setup: impl Fn() -> Result<f64, String>,
    scale: &Scale,
) -> RunOutput {
    let mut out = RunOutput::new(workload);
    let mut rps = Vec::new();
    let (mut p50, mut p90, mut p99, mut frames) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut setup: Vec<f64> = rounds.iter().map(|(r, _)| r.setup_s).collect();
    let rss: Vec<f64> = rounds.iter().map(|(r, _)| r.peak_rss_mib).collect();
    for (i, (round, check)) in rounds.into_iter().enumerate() {
        out.attempted += round.sent();
        out.failed += round.failed();
        for e in &round.errors {
            out.notes.push(format!("round {i}: {e}"));
        }
        if !round.errors.is_empty() {
            out.correct = false;
        }
        if let Err(why) = check {
            out.fail(round.sent() - round.failed(), format!("round {i} check: {why}"));
        }
        if round.elapsed_s > 0.0 {
            rps.push(round.throughput());
        }
        let mut latencies: Vec<u64> =
            round.clients.into_iter().flat_map(|c| c.latencies_ns).collect();
        if !latencies.is_empty() {
            frames += latencies.len();
            p50.push(percentile(&mut latencies, 50.0) / 1e3);
            p90.push(percentile(&mut latencies, 90.0) / 1e3);
            p99.push(percentile(&mut latencies, 99.0) / 1e3);
        }
    }
    while setup.len() < scale.setup_trials {
        match extra_setup() {
            Ok(s) => setup.push(s),
            Err(e) => {
                out.fail(0, format!("set-up trial: {e}"));
                break;
            }
        }
    }
    let mut sorted = rps.clone();
    sorted.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "per-round throughput (req/s): {}",
        sorted.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" ")
    ));
    out.notes.push(format!(
        "{frames} frame acknowledgements over {} rounds; p99 {:.1} us (median over rounds)",
        p50.len(),
        median(&p99)
    ));
    out.metrics = vec![
        Metric::sampled("throughput_rps", "1/s", median(&rps), rps.len()),
        Metric::sampled("ack_p50_us", "us", median(&p50), p50.len()),
        Metric::sampled("ack_p90_us", "us", median(&p90), p90.len()),
        Metric::sampled("setup_s", "s", median(&setup), setup.len()),
        Metric::sampled("peak_rss_mib", "MiB", median(&rss), rss.len()),
    ];
    if out.attempted == 0 {
        out.fail(0, "no request was attempted".to_string());
    }
    out
}

/// The untraced `serve-pipelined` run.
#[must_use]
pub fn pipelined_e2e(seed: u64, seconds: f64, scale: &Scale) -> RunOutput {
    let inputs = inputs::pipelined(seed, scale);
    let per_client = deal_frames(&inputs.stream, PIPELINED_FRAME, CLIENTS);
    let rounds = measure(seconds, |_| {
        let (round, evidence) = pipelined_round(&inputs, &per_client, false);
        let check = evidence.map_or(Ok(()), |ev| crate::checks::pipelined(&ev));
        (round, check)
    });
    let cfg = ServeConfig { log: TraceLog::Memory, ..ServeConfig::default() };
    e2e(Workload::ServePipelined, rounds, || setup_trial(&inputs, cfg.clone()), scale)
}

/// The untraced `serve-durable` run, with scratch files under `scratch`.
#[must_use]
pub fn durable_e2e(seed: u64, seconds: f64, scale: &Scale, scratch: &Path) -> RunOutput {
    let inputs = inputs::durable(seed, scale);
    let per_client = deal_frames(&inputs.stream, DURABLE_FRAME, CLIENTS);
    let rounds = measure(seconds, |i| {
        let dir = scratch.join(format!("round-{i}"));
        let (round, evidence) = durable_round(&inputs, &per_client, scale.tail_frames, false, &dir);
        let check = evidence.map_or(Ok(()), |ev| crate::checks::durable(&ev));
        let _ = fs::remove_dir_all(&dir);
        (round, check)
    });
    let recover: Vec<f64> = rounds.iter().filter_map(|(r, _)| r.recover_s).collect();
    let migrations: Vec<f64> =
        rounds.iter().filter_map(|(r, _)| r.rebalance.map(|(_, m)| m as f64)).collect();
    let trial_dir: PathBuf = scratch.join("setup-trial");
    let capacity = inputs.capacity;
    let mut out = e2e(
        Workload::ServeDurable,
        rounds,
        || {
            let _ = fs::remove_dir_all(&trial_dir);
            fs::create_dir_all(&trial_dir).map_err(|e| format!("{}: {e}", trial_dir.display()))?;
            let s = setup_trial(&inputs, durable_cfg(&trial_dir, capacity, false));
            let _ = fs::remove_dir_all(&trial_dir);
            s
        },
        scale,
    );
    out.notes.push(format!(
        "Server::resume took {:.4} s and a round migrated {} cells (medians of {} rounds)",
        median(&recover),
        median(&migrations),
        recover.len()
    ));
    out
}
