//! Differentials for deterministic dynamic resharding (invariant #7).
//!
//! The contract under test: a rebalancing service's outputs — per-cell
//! reports, aggregate cost, telemetry windows, *and the rebalance
//! schedule itself* — are a pure function of the logged request stream.
//! A live run (killed-and-recovered or not) must be bit-identical to
//! `replay_trace_rebalancing` of its own log on a fresh cells engine, at
//! replay threads {1, nproc}; the replay recomputes every migration
//! decision from the requests alone and verifies the logged records
//! against it. Plus: migrations landing on tiny queues mid-drain, resume
//! refusing capability mismatches both ways, and a proptest pinning
//! per-cell costs to a solo-cell `TcReference` oracle no matter what the
//! migration schedule did.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::{CachePolicy, PolicyFactory};
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast, TcReference};
use otc_core::tree::{NodeId, Tree};
use otc_serve::{
    initial_table, Client, RebalancePolicy, ServeConfig, Server, SnapshotPolicy, TraceLog,
};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{
    aggregate_reports, replay_trace_rebalancing, RebalanceConfig, RebalanceReplay, Rebalancer,
    Report, Timeline,
};
use otc_util::SplitMix64;
use otc_workloads::trace::TraceReader;
use proptest::prelude::*;

const ALPHA: u64 = 2;
const CAPACITY: usize = 5;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, CAPACITY)))
}

fn reference(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcReference::new(tree, TcConfig::new(ALPHA, CAPACITY)))
}

fn base_cfg() -> EngineConfig {
    EngineConfig::new(ALPHA).audit_every(64).telemetry(true)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// 70% of the traffic hammers one hot subtrie; the rest is uniform. The
/// skew is what makes the planner actually migrate.
fn skewed(universe: usize, len: usize, seed: u64, hot: u32) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let v = if rng.chance(0.7) { NodeId(hot) } else { NodeId(rng.index(universe) as u32) };
            if rng.chance(0.3) {
                Request::neg(v)
            } else {
                Request::pos(v)
            }
        })
        .collect()
}

/// A load mix that changes every `block` requests: each block draws a
/// fresh random weight per node and samples the block from it. Loads
/// that stay close across several cells are what make the greedy
/// planner move one cell twice in one decision.
fn shifting(universe: usize, len: usize, seed: u64, block: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let mut weights: Vec<usize> = Vec::new();
    (0..len)
        .map(|i| {
            if i % block == 0 {
                weights = (0..universe).map(|_| 1 + rng.index(100)).collect();
            }
            let mut x = rng.index(weights.iter().sum());
            let v = weights
                .iter()
                .position(|&w| {
                    let hit = x < w;
                    x = x.saturating_sub(w);
                    hit
                })
                .unwrap_or(0);
            let v = NodeId(v as u32);
            if rng.chance(0.3) {
                Request::neg(v)
            } else {
                Request::pos(v)
            }
        })
        .collect()
}

fn rebalance_policy<F>(groups: u32, rcfg: RebalanceConfig, f: F) -> RebalancePolicy
where
    F: Fn(Arc<Tree>, ShardId) -> Box<dyn CachePolicy> + Send + Sync + 'static,
{
    RebalancePolicy::new(groups, rcfg, Arc::new(f) as Arc<dyn PolicyFactory + Send + Sync>)
}

/// A unique scratch area per test invocation (log file + snapshot dir).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let id = SEQ.fetch_add(1, Ordering::Relaxed);
    let root =
        std::env::temp_dir().join(format!("otc_rebalance_{tag}_{}_{id}", std::process::id()));
    std::fs::create_dir_all(&root).expect("scratch dir");
    (root.join("serve.otct"), root.join("snaps"))
}

fn cleanup(log: &Path) {
    if let Some(root) = log.parent() {
        std::fs::remove_dir_all(root).ok();
    }
}

/// Replays a rebalance-flagged log through a fresh cells engine and a
/// fresh rebalancer built from the shard count alone — the ground truth
/// every live rebalancing run must match bit for bit.
fn replay_rebalancing(
    forest: &Forest,
    bytes: &[u8],
    groups: u32,
    rcfg: RebalanceConfig,
    threads: usize,
) -> (RebalanceReplay, Rebalancer, Vec<Report>, Report, Timeline) {
    let mut engine = ShardedEngine::new(forest.clone(), &factory, base_cfg().threads(threads));
    let mut reader =
        TraceReader::new(std::io::Cursor::new(bytes)).expect("logged trace has a valid header");
    let mut reb = Rebalancer::new(rcfg, initial_table(forest.num_shards(), groups).expect("shape"));
    let mut chunk = Vec::with_capacity(4096);
    let out = replay_trace_rebalancing(&mut engine, &mut reader, &mut reb, &mut chunk)
        .expect("replay verifies the live schedule");
    let timeline = engine.timeline();
    let per_shard = engine.into_reports().expect("verified replay");
    let report = aggregate_reports(per_shard.clone());
    (out, reb, per_shard, report, timeline)
}

/// The headline differential: a live rebalancing service under skewed
/// concurrent traffic migrates cells between groups, and replaying its
/// own log — at 1 thread and at nproc — reproduces every output *and
/// every migration decision* bit for bit.
#[test]
fn live_rebalanced_service_equals_replay_of_its_own_log() {
    let tree = Tree::star(12);
    let forest = Forest::cells(&tree);
    let groups = 3u32;
    let rcfg = RebalanceConfig::new(250).threshold_x1000(1000);
    let reqs = skewed(tree.len(), 3000, 11, 3);

    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
    let serve_cfg = ServeConfig {
        log: TraceLog::Memory,
        rebalance: Some(rebalance_policy(groups, rcfg, factory)),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, serve_cfg).expect("bind loopback");
    assert_eq!(server.num_groups(), groups as usize);
    assert_eq!(server.num_shards(), forest.num_shards());
    let addr = server.addr();
    let per = reqs.len() / 2;
    std::thread::scope(|scope| {
        for (c, slice) in [&reqs[..per], &reqs[per..]].into_iter().enumerate() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for chunk in slice.chunks(37 + c) {
                    client.submit(chunk).expect("submit");
                }
                client.drain().expect("drain");
                client.bye().expect("bye");
            });
        }
    });
    let outcome = server.shutdown().expect("clean shutdown");
    assert_eq!(outcome.requests_served, reqs.len() as u64);
    let summary = outcome.rebalance.clone().expect("a rebalancing service reports a summary");
    assert_eq!(summary.boundaries, reqs.len() as u64 / rcfg.interval);
    assert_eq!(summary.epoch, summary.boundaries, "one epoch bump per boundary");
    assert!(summary.migrations > 0, "this much skew must migrate cells");
    let bytes = outcome.trace_bytes.as_deref().expect("memory log");

    for threads in [1, nproc()] {
        let (out, reb, per_shard, report, timeline) =
            replay_rebalancing(&forest, bytes, groups, rcfg, threads);
        assert_eq!(out.replayed, outcome.requests_served);
        assert_eq!(out.verified, summary.boundaries, "every live record verified");
        assert!(!out.torn_tail);
        assert_eq!(
            out.schedule.iter().map(|r| r.moves.len() as u64).sum::<u64>(),
            summary.migrations
        );
        assert_eq!(reb.table().epoch(), summary.epoch);
        assert_eq!(reb.table().owners(), summary.owners.as_slice(), "identical final placement");
        assert_eq!(per_shard, outcome.per_shard, "per-cell reports at {threads} threads");
        assert_eq!(report, outcome.report, "aggregate at {threads} threads");
        assert_eq!(timeline, outcome.timeline, "telemetry at {threads} threads");
    }
}

/// Migrations landing while rings are saturated: capacity-2 queues and
/// batch-1 workers force every marker to interleave with in-flight
/// requests, so handoffs rendezvous mid-drain. The replay identity must
/// survive it.
#[test]
fn mid_drain_migrations_on_tiny_queues_stay_deterministic() {
    let tree = Tree::star(8);
    let forest = Forest::cells(&tree);
    let groups = 2u32;
    let rcfg = RebalanceConfig::new(100).threshold_x1000(1000).max_moves(2);
    let reqs = skewed(tree.len(), 1200, 29, 1);

    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
    let serve_cfg = ServeConfig {
        log: TraceLog::Memory,
        queue_capacity: 2,
        worker_batch: 1,
        rebalance: Some(rebalance_policy(groups, rcfg, factory)),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, serve_cfg).expect("bind loopback");
    let addr = server.addr();
    std::thread::scope(|scope| {
        for (c, slice) in reqs.chunks(reqs.len() / 3 + 1).enumerate() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for chunk in slice.chunks(7 + c) {
                    client.submit(chunk).expect("submit");
                }
                client.drain().expect("drain");
                client.bye().expect("bye");
            });
        }
    });
    let outcome = server.shutdown().expect("clean shutdown");
    let summary = outcome.rebalance.clone().expect("summary");
    assert!(summary.migrations > 0, "skew must migrate even on tiny queues");
    let bytes = outcome.trace_bytes.as_deref().expect("memory log");
    let (out, reb, per_shard, report, timeline) =
        replay_rebalancing(&forest, bytes, groups, rcfg, 1);
    assert_eq!(out.verified, summary.boundaries);
    assert_eq!(reb.table().owners(), summary.owners.as_slice());
    assert_eq!(per_shard, outcome.per_shard);
    assert_eq!(report, outcome.report);
    assert_eq!(timeline, outcome.timeline);
}

/// A greedy plan may move one cell twice in one decision (A→B, then
/// B→C). This stream's second boundary does exactly that at
/// `max_moves(4)`: cell 5 moves to group 0 and then on to group 2.
/// Executed move by move, the second `MigrateOut` reached a group that
/// no longer hosted the cell and poisoned the service; live, the cell
/// must migrate once, and the run must still equal its replay.
#[test]
fn a_cell_moved_twice_in_one_decision_migrates_once_live() {
    let tree = Tree::star(8);
    let forest = Forest::cells(&tree);
    let groups = 4u32;
    let rcfg = RebalanceConfig::new(100).threshold_x1000(1000).max_moves(4);
    let reqs = shifting(tree.len(), 1000, 46, 100);

    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
    let serve_cfg = ServeConfig {
        log: TraceLog::Memory,
        rebalance: Some(rebalance_policy(groups, rcfg, factory)),
        ..ServeConfig::default()
    };
    let server = Server::start(engine, serve_cfg).expect("bind loopback");
    // One client, fixed chunking: the logged order is `reqs` itself, so
    // the schedule below is this stream's.
    let mut client = Client::connect(server.addr()).expect("connect");
    for chunk in reqs.chunks(37) {
        client.submit(chunk).expect("submit");
    }
    client.drain().expect("drain");
    client.bye().expect("bye");
    let outcome = server.shutdown().expect("a repeated cell must not poison the service");
    let summary = outcome.rebalance.clone().expect("summary");
    let bytes = outcome.trace_bytes.as_deref().expect("memory log");

    let (out, reb, per_shard, report, timeline) =
        replay_rebalancing(&forest, bytes, groups, rcfg, 1);
    let repeats = |moves: &[(u32, u32)]| {
        moves.iter().enumerate().any(|(i, m)| moves[..i].iter().any(|n| n.0 == m.0))
    };
    assert!(
        out.schedule.iter().any(|r| repeats(&r.moves)),
        "the stream must make the planner move a cell twice in one decision"
    );
    assert_eq!(out.verified, summary.boundaries);
    assert_eq!(
        out.schedule.iter().map(|r| r.moves.len() as u64).sum::<u64>(),
        summary.migrations,
        "migrations count the moves decided, repeats included"
    );
    assert_eq!(reb.table().owners(), summary.owners.as_slice());
    assert_eq!(per_shard, outcome.per_shard);
    assert_eq!(report, outcome.report);
    assert_eq!(timeline, outcome.timeline);
}

/// Kill-and-recover under rebalancing: a service killed mid-stream and
/// resumed (snapshot + verified tail replay, or pure log replay) then
/// refilled is bit-identical to the uninterrupted twin *and* to the
/// replay of the final log — including the migration count, which
/// resume re-derives from the recovered prefix instead of resetting.
#[test]
fn killed_and_recovered_rebalancing_run_matches_the_uninterrupted_twin() {
    let tree = Tree::star(10);
    let forest = Forest::cells(&tree);
    let groups = 3u32;
    let rcfg = RebalanceConfig::new(150).threshold_x1000(1000);
    let stream = skewed(tree.len(), 1300, 43, 2);
    let (pre, post) = stream.split_at(900);

    // One submission order for all three runs: a single client, fixed
    // chunking, so the global accepted order — and with it the decision
    // schedule — is the request vector itself.
    let drive = |server: &Server, reqs: &[Request]| {
        let mut client = Client::connect(server.addr()).expect("connect");
        for chunk in reqs.chunks(53) {
            client.submit(chunk).expect("submit");
        }
        client.drain().expect("drain");
        client.bye().expect("bye");
    };

    // `every: 211` exercises snapshot + seeded-rebalancer + verified
    // tail; `None` exercises pure log replay from the start.
    for snapshots in [Some(211), None] {
        let (log, snap_dir) = scratch("killresume");
        let serve_cfg = |log: PathBuf| ServeConfig {
            log: TraceLog::File(log),
            snapshots: snapshots.map(|every| SnapshotPolicy { dir: snap_dir.clone(), every }),
            rebalance: Some(rebalance_policy(groups, rcfg, factory)),
            ..ServeConfig::default()
        };

        // Run A: serve `pre`, kill without draining, resume, serve `post`.
        let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
        let server = Server::start(engine, serve_cfg(log.clone())).expect("bind loopback");
        drive(&server, pre);
        let killed_log = server.kill().expect("kill syncs the log").expect("file log path");
        assert_eq!(killed_log, log);
        let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
        let (server, resumed) = Server::resume(engine, serve_cfg(log.clone())).expect("resume");
        assert_eq!(resumed.requests_recovered, pre.len() as u64);
        if snapshots.is_some() {
            assert!(resumed.snapshot_records.is_some(), "a snapshot should have been usable");
        }
        drive(&server, post);
        let recovered = server.shutdown().expect("clean shutdown");

        // Run B: the uninterrupted twin.
        let (twin_log, _) = scratch("twin");
        let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
        let server = Server::start(engine, serve_cfg(twin_log.clone())).expect("bind loopback");
        drive(&server, pre);
        drive(&server, post);
        let twin = server.shutdown().expect("clean shutdown");

        assert_eq!(recovered.requests_served, twin.requests_served);
        assert_eq!(recovered.per_shard, twin.per_shard, "per-cell reports survive the crash");
        assert_eq!(recovered.report, twin.report);
        assert_eq!(recovered.timeline, twin.timeline, "telemetry survives the crash");
        assert_eq!(recovered.rebalance, twin.rebalance, "identical schedule and migrations");
        let summary = recovered.rebalance.clone().expect("summary");
        assert!(summary.migrations > 0, "the differential must cover actual migrations");

        // Both logs replay to the same truth as the outcomes.
        let bytes = std::fs::read(&log).expect("final log");
        let (out, reb, per_shard, report, timeline) =
            replay_rebalancing(&forest, &bytes, groups, rcfg, 1);
        assert_eq!(out.replayed, recovered.requests_served);
        assert_eq!(out.verified, summary.boundaries, "resume re-logged no duplicate records");
        assert_eq!(reb.table().owners(), summary.owners.as_slice());
        assert_eq!(per_shard, recovered.per_shard);
        assert_eq!(report, recovered.report);
        assert_eq!(timeline, recovered.timeline);

        cleanup(&log);
        cleanup(&twin_log);
    }
}

/// Resume refuses a rebalance-capability mismatch in both directions:
/// the flag in the log header is the contract, not a hint.
#[test]
fn resume_refuses_rebalance_capability_mismatch() {
    let tree = Tree::star(6);
    let forest = Forest::cells(&tree);
    let rcfg = RebalanceConfig::new(50);
    let reqs = skewed(tree.len(), 120, 7, 1);

    let drive_and_kill = |serve_cfg: ServeConfig| {
        let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
        let server = Server::start(engine, serve_cfg).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        client.submit(&reqs).expect("submit");
        client.bye().expect("bye");
        server.kill().expect("kill").expect("file log path")
    };

    // A rebalancing log resumed without a rebalance policy.
    let (log, _) = scratch("capable");
    drive_and_kill(ServeConfig {
        log: TraceLog::File(log.clone()),
        rebalance: Some(rebalance_policy(2, rcfg, factory)),
        ..ServeConfig::default()
    });
    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
    let err = Server::resume(
        engine,
        ServeConfig { log: TraceLog::File(log.clone()), ..ServeConfig::default() },
    )
    .err()
    .expect("must refuse");
    assert!(err.to_string().contains("carries rebalance records"), "got: {err}");
    cleanup(&log);

    // A plain log resumed with a rebalance policy.
    let (log, _) = scratch("plain");
    drive_and_kill(ServeConfig { log: TraceLog::File(log.clone()), ..ServeConfig::default() });
    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
    let err = Server::resume(
        engine,
        ServeConfig {
            log: TraceLog::File(log.clone()),
            rebalance: Some(rebalance_policy(2, rcfg, factory)),
            ..ServeConfig::default()
        },
    )
    .err()
    .expect("must refuse");
    assert!(err.to_string().contains("not written by a rebalancing service"), "got: {err}");
    cleanup(&log);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Placement invariance, pinned against the honest oracle: whatever
    /// migration schedule the planner produces over `TcReference` cells,
    /// each cell's report equals a solo run of that cell's local request
    /// subsequence on an unsharded single-cell engine — and the schedule
    /// itself is a pure function of the stream. (This engine-only run
    /// never moves a worker between threads; the live handoff is covered
    /// by the `TcFast` service tests above and, for `TcReference` cells,
    /// by `cells_without_snapshots_migrate_across_lanes` in `server.rs`.
    /// Here the reference policy pins the costs.)
    #[test]
    fn rebalanced_cells_match_the_solo_cell_oracle(
        universe in 8usize..14,
        len in 250usize..600,
        groups in 2u32..5,
        interval in 40u64..120,
        seed in any::<u64>(),
    ) {
        let tree = Tree::star(universe);
        let forest = Forest::cells(&tree);
        let rcfg = RebalanceConfig::new(interval).threshold_x1000(1000);
        let reqs = skewed(tree.len(), len, seed, 1);

        // A cells engine driven through the same boundary cadence a
        // rebalancing service uses: the schedule re-homes cells between
        // groups, and the engine's costs must not notice.
        let run = || {
            let mut engine = ShardedEngine::new(forest.clone(), &reference, base_cfg());
            let mut reb = Rebalancer::new(
                rcfg,
                initial_table(forest.num_shards(), groups).expect("shape"),
            );
            let mut schedule = Vec::new();
            for (i, &r) in reqs.iter().enumerate() {
                engine.submit(r).expect("valid");
                if (i as u64 + 1).is_multiple_of(interval) {
                    let loads = engine.cell_loads().expect("valid");
                    schedule.push(reb.on_boundary(&loads).expect("boundary"));
                }
            }
            (engine.into_reports().expect("valid"), schedule)
        };
        let (per_shard, schedule) = run();
        prop_assert!(schedule.len() >= 2, "stream must cross boundaries");

        for (cell, report) in per_shard.iter().enumerate() {
            let local: Vec<Request> = reqs
                .iter()
                .map(|&r| forest.route_request(r))
                .filter(|(sid, _)| sid.index() == cell)
                .map(|(_, local)| local)
                .collect();
            let solo_forest = Forest::single(Arc::clone(forest.tree(ShardId(cell as u32))));
            let mut solo = ShardedEngine::new(solo_forest, &reference, base_cfg());
            solo.submit_batch(&local).expect("valid");
            let solo_reports = solo.into_reports().expect("valid");
            prop_assert_eq!(
                report,
                &solo_reports[0],
                "cell {} must cost the same solo as rebalanced",
                cell
            );
        }

        // The schedule is deterministic: an independent second pass over
        // the same stream recomputes it bit for bit.
        let (twin_reports, twin_schedule) = run();
        prop_assert_eq!(schedule, twin_schedule);
        prop_assert_eq!(per_shard, twin_reports);
    }
}
