//! Kill-and-recover differentials for the serving runtime.
//!
//! The durability contract under test: a service killed mid-stream and
//! resumed from its snapshot directory + trace log is **bit-identical**
//! to a service that never crashed — same per-shard reports, same
//! aggregate cost, same telemetry windows — which in turn equal
//! `replay_trace` of the final log. Exercised at replay threads
//! {1, nproc} and snapshot cadences {every request, frequent, never
//! (pure log replay)}, with concurrent clients dropped at a
//! proptest-chosen round, plus corrupted-snapshot fallback and torn-log
//! prefix recovery.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::{NodeId, Tree};
use otc_serve::{Client, ServeConfig, Server, SnapshotPolicy, TraceLog};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{Report, Timeline};
use otc_util::SplitMix64;
use otc_workloads::trace::TraceReader;
use proptest::prelude::*;

const ALPHA: u64 = 2;
const CAPACITY: usize = 6;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, CAPACITY)))
}

fn base_cfg() -> EngineConfig {
    EngineConfig::new(ALPHA).audit_every(128).telemetry(true)
}

fn mixed(universe: usize, len: usize, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let v = NodeId(rng.index(universe) as u32);
            if rng.chance(0.4) {
                Request::neg(v)
            } else {
                Request::pos(v)
            }
        })
        .collect()
}

/// A unique scratch area per test invocation (log file + snapshot dir).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let id = SEQ.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("otc_recovery_{tag}_{}_{id}", std::process::id()));
    std::fs::create_dir_all(&root).expect("scratch dir");
    (root.join("serve.otct"), root.join("snaps"))
}

fn cleanup(log: &Path) {
    if let Some(root) = log.parent() {
        std::fs::remove_dir_all(root).ok();
    }
}

/// Replays the on-disk log through a fresh engine: the ground truth a
/// recovered service must match bit for bit.
fn replay_file(forest: &Forest, log: &Path, cfg: EngineConfig) -> (Vec<Report>, Timeline) {
    let bytes = std::fs::read(log).expect("log file exists");
    let mut engine = ShardedEngine::new(forest.clone(), &factory, cfg);
    let mut reader =
        TraceReader::new(std::io::Cursor::new(&bytes)).expect("logged trace has a valid header");
    let mut chunk = Vec::with_capacity(8 * 1024);
    engine.replay_trace(&mut reader, &mut chunk).expect("logged trace replays");
    let timeline = engine.timeline();
    (engine.into_reports().expect("valid replay"), timeline)
}

/// Starts a service over `forest`, pushes `reqs` through `clients`
/// concurrent connections, then kills it mid-stream (no drain). Returns
/// the log path.
fn run_and_kill(
    forest: &Forest,
    serve_cfg: ServeConfig,
    reqs: &[Request],
    clients: usize,
) -> PathBuf {
    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
    let server = Server::start(engine, serve_cfg).expect("bind loopback");
    let addr = server.addr();
    let per = reqs.len() / clients.max(1);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let slice =
                if c + 1 == clients { &reqs[c * per..] } else { &reqs[c * per..(c + 1) * per] };
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for chunk in slice.chunks(41 + c) {
                    client.submit(chunk).expect("submit");
                }
                client.bye().expect("bye");
            });
        }
    });
    server.kill().expect("kill syncs the log").expect("file log path")
}

/// Resumes from `log` (+ optional snapshot dir), submits `post`, shuts
/// down, and returns the outcome pieces a differential compares.
fn resume_and_finish(
    forest: &Forest,
    serve_cfg: ServeConfig,
    threads: usize,
    post: &[Request],
) -> (otc_serve::ResumeOutcome, Vec<Report>, Report, Timeline, u64) {
    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg().threads(threads));
    let (server, resumed) = Server::resume(engine, serve_cfg).expect("resume");
    if !post.is_empty() {
        let mut client = Client::connect(server.addr()).expect("connect");
        for chunk in post.chunks(73) {
            client.submit(chunk).expect("submit");
        }
        client.drain().expect("drain");
        client.bye().expect("bye");
    }
    let outcome = server.shutdown().expect("clean shutdown");
    (resumed, outcome.per_shard, outcome.report, outcome.timeline, outcome.requests_served)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance differential: concurrent clients dropped at a
    /// proptest-chosen round, service killed, resumed (snapshot + tail
    /// or pure log replay, at replay threads 1 and nproc), refilled with
    /// fresh traffic — the final outcome is bit-identical to replaying
    /// the final log, and the resume recovered exactly the killed
    /// service's accepted prefix.
    #[test]
    fn kill_and_resume_is_bit_identical_to_the_uninterrupted_run(
        shards in 1usize..5,
        pre in 100usize..900,
        post in 50usize..400,
        cadence_sel in 0usize..3,
        use_nproc in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let tree = Tree::star(64);
        let forest = Forest::partition(&tree, shards);
        let (log, snap_dir) = scratch("prop");
        let snapshots = match cadence_sel {
            0 => None, // never: pure log replay
            1 => Some(SnapshotPolicy { dir: snap_dir.clone(), every: 211 }),
            _ => Some(SnapshotPolicy { dir: snap_dir.clone(), every: 17 }),
        };
        let serve_cfg = ServeConfig {
            log: TraceLog::File(log.clone()),
            snapshots,
            ..ServeConfig::default()
        };

        let reqs = mixed(65, pre + post, seed);
        let logged = run_and_kill(&forest, serve_cfg.clone(), &reqs[..pre], 2);
        prop_assert_eq!(&logged, &log);

        let threads = if use_nproc {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            1
        };
        let (resumed, per_shard, report, timeline, served) =
            resume_and_finish(&forest, serve_cfg, threads, &reqs[pre..]);
        prop_assert_eq!(resumed.requests_recovered as usize, pre, "kill lost nothing");
        prop_assert_eq!(resumed.truncated_bytes, 0);
        prop_assert_eq!(served as usize, pre + post);
        if cadence_sel == 0 {
            prop_assert!(resumed.snapshot_records.is_none(), "no cadence, pure replay");
        } else if cadence_sel == 2 && pre >= 17 {
            let records = resumed.snapshot_records.expect("a snapshot existed");
            prop_assert!(records <= pre as u64 && records >= 17);
            prop_assert!(resumed.replayed <= pre as u64 - records);
        }

        // Ground truth: replay the final log, at both thread extremes.
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        for replay_threads in [1, nproc] {
            let (truth_shards, truth_timeline) =
                replay_file(&forest, &log, base_cfg().threads(replay_threads));
            prop_assert_eq!(&truth_shards, &per_shard, "per-shard reports diverged");
            prop_assert_eq!(
                otc_sim::aggregate_reports(truth_shards),
                report.clone(),
                "aggregate diverged"
            );
            prop_assert_eq!(&truth_timeline, &timeline, "telemetry windows diverged");
        }
        cleanup(&log);
    }
}

/// Cadence "every request": a snapshot lands after every accepted
/// request and the newest one carries (almost) the whole run, so the
/// resume replays at most the final record.
#[test]
fn snapshot_every_request_leaves_at_most_one_record_to_replay() {
    let tree = Tree::star(32);
    let forest = Forest::partition(&tree, 3);
    let (log, snap_dir) = scratch("every1");
    let serve_cfg = ServeConfig {
        log: TraceLog::File(log.clone()),
        snapshots: Some(SnapshotPolicy { dir: snap_dir.clone(), every: 1 }),
        ..ServeConfig::default()
    };
    let reqs = mixed(33, 60, 0xEA7);
    run_and_kill(&forest, serve_cfg.clone(), &reqs, 1);

    let (resumed, per_shard, report, _timeline, _served) =
        resume_and_finish(&forest, serve_cfg, 1, &[]);
    let records = resumed.snapshot_records.expect("snapshots at every request");
    assert_eq!(resumed.requests_recovered, 60);
    assert!(
        resumed.replayed <= 1,
        "cadence 1 must leave at most the in-flight record to replay, got {}",
        resumed.replayed
    );
    assert_eq!(records + resumed.replayed, 60);

    let (truth_shards, _) = replay_file(&forest, &log, base_cfg());
    assert_eq!(truth_shards, per_shard);
    assert_eq!(otc_sim::aggregate_reports(truth_shards), report);
    cleanup(&log);
}

/// A corrupted newest snapshot is skipped (checksum refuses it) and the
/// resume falls back to an older snapshot or pure replay — never a
/// panic, never a divergent restore.
#[test]
fn corrupt_newest_snapshot_falls_back() {
    let tree = Tree::star(48);
    let forest = Forest::partition(&tree, 2);
    let (log, snap_dir) = scratch("corrupt");
    let serve_cfg = ServeConfig {
        log: TraceLog::File(log.clone()),
        snapshots: Some(SnapshotPolicy { dir: snap_dir.clone(), every: 50 }),
        ..ServeConfig::default()
    };
    let reqs = mixed(49, 500, 0xBADCAB);
    run_and_kill(&forest, serve_cfg.clone(), &reqs, 1);

    // Corrupt the newest snapshot: flip one byte in the middle.
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&snap_dir)
        .expect("snapshot dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "otcs"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "cadence 50 over 500 requests yields many snapshots");
    let newest = snaps.last().expect("nonempty");
    let mut bytes = std::fs::read(newest).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(newest, &bytes).expect("write corrupted snapshot");

    let (resumed, per_shard, report, _timeline, _served) =
        resume_and_finish(&forest, serve_cfg, 1, &reqs[..0]);
    assert!(resumed.snapshots_skipped >= 1, "the corrupt snapshot was skipped");
    let records = resumed.snapshot_records.expect("an older snapshot still works");
    assert!(records < 500, "fell back behind the corrupted newest cut");
    assert_eq!(resumed.requests_recovered, 500);

    let (truth_shards, _) = replay_file(&forest, &log, base_cfg());
    assert_eq!(truth_shards, per_shard);
    assert_eq!(otc_sim::aggregate_reports(truth_shards), report);
    cleanup(&log);
}

/// A torn log tail (crash mid-record-write) recovers to the longest
/// consistent prefix: the mangled bytes are cut off, and the resumed
/// service equals a replay of that prefix.
#[test]
fn torn_log_tail_recovers_the_longest_consistent_prefix() {
    let tree = Tree::star(200);
    let forest = Forest::partition(&tree, 2);
    let (log, snap_dir) = scratch("torn");
    let serve_cfg = ServeConfig {
        log: TraceLog::File(log.clone()),
        snapshots: Some(SnapshotPolicy { dir: snap_dir.clone(), every: 100 }),
        ..ServeConfig::default()
    };
    // Nodes ≥ 64 make every record a multi-byte varint, so chopping one
    // byte tears the final record rather than deleting it cleanly.
    let reqs: Vec<Request> = mixed(200, 400, 0x7012)
        .into_iter()
        .map(|r| Request { node: NodeId(64 + r.node.0 % 137), ..r })
        .collect();
    run_and_kill(&forest, serve_cfg.clone(), &reqs, 1);

    let full_len = std::fs::metadata(&log).expect("log").len();
    let file = std::fs::OpenOptions::new().write(true).open(&log).expect("open log");
    file.set_len(full_len - 1).expect("tear the final record");
    drop(file);

    let (resumed, per_shard, report, _timeline, served) =
        resume_and_finish(&forest, serve_cfg, 1, &[]);
    assert_eq!(resumed.truncated_bytes, 1, "exactly the torn byte was cut");
    assert_eq!(resumed.requests_recovered, 399, "the torn record is gone, its prefix is not");
    assert_eq!(served, 399);

    // The shutdown re-finished the (truncated) log; its replay is the
    // ground truth for the recovered prefix.
    let (truth_shards, _) = replay_file(&forest, &log, base_cfg());
    assert_eq!(truth_shards, per_shard);
    assert_eq!(otc_sim::aggregate_reports(truth_shards), report);
    cleanup(&log);
}

/// Snapshot + tail replay and pure log replay land on exactly the same
/// state: resuming the same crash twice — once with the snapshot dir,
/// once without — produces identical outcomes.
#[test]
fn snapshot_recovery_equals_pure_log_replay() {
    let tree = Tree::star(40);
    let forest = Forest::partition(&tree, 3);
    let (log, snap_dir) = scratch("equiv");
    let serve_cfg = ServeConfig {
        log: TraceLog::File(log.clone()),
        snapshots: Some(SnapshotPolicy { dir: snap_dir.clone(), every: 64 }),
        ..ServeConfig::default()
    };
    let reqs = mixed(41, 700, 0x51AB);
    run_and_kill(&forest, serve_cfg.clone(), &reqs, 2);

    // Pure replay first (it rewrites nothing the snapshot path needs).
    let pure_cfg = ServeConfig { snapshots: None, ..serve_cfg.clone() };
    let (pure_resumed, pure_shards, pure_report, pure_timeline, _) =
        resume_and_finish(&forest, pure_cfg, 1, &[]);
    assert!(pure_resumed.snapshot_records.is_none());

    let (snap_resumed, snap_shards, snap_report, snap_timeline, _) =
        resume_and_finish(&forest, serve_cfg, 1, &[]);
    assert!(snap_resumed.snapshot_records.is_some(), "cadence 64 over 700 requests snapshots");

    assert_eq!(pure_shards, snap_shards, "per-shard reports agree");
    assert_eq!(pure_report, snap_report, "aggregates agree");
    assert_eq!(pure_timeline, snap_timeline, "telemetry agrees");
    cleanup(&log);
}

/// Configuration errors are refused up front: a resume without a file
/// log.
#[test]
fn snapshot_and_resume_misconfigurations_are_refused() {
    let tree = Tree::star(8);
    let engine =
        ShardedEngine::new(Forest::partition(&tree, 2), &factory, EngineConfig::new(ALPHA));
    let Err(err) = Server::resume(engine, ServeConfig::default()) else {
        panic!("resume without a file log must be refused");
    };
    assert!(err.to_string().contains("TraceLog::File"), "got: {err}");
}
