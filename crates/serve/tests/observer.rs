//! The zero-observer-effect differentials (invariant #8).
//!
//! Observation must never change results: a service run with metrics
//! off, with metrics on, and with metrics on while a concurrent client
//! hammers live scrapes must produce **bit-identical** trace bytes,
//! per-shard reports, aggregates and telemetry — and the logged trace
//! must still replay to the same reports at any thread count. The same
//! holds across rebalancing (identical migration schedules) and across
//! a kill/resume cycle (identical recovered outcomes, plus the kill
//! dump parses). The static half of the invariant is otc-lint R7
//! (determinism crates cannot name `otc_obs`); this file is the
//! dynamic half.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::{CachePolicy, PolicyFactory};
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::{NodeId, Tree};
use otc_obs::{MetricValue, MetricsSnapshot};
use otc_serve::{Client, RebalancePolicy, ServeConfig, ServeOutcome, Server, TraceLog};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{RebalanceConfig, Report};
use otc_util::SplitMix64;
use otc_workloads::trace::TraceReader;

const ALPHA: u64 = 2;
const CAPACITY: usize = 6;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, CAPACITY)))
}

fn base_cfg() -> EngineConfig {
    EngineConfig::new(ALPHA).audit_every(128).telemetry(true)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
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

/// A unique scratch area per test invocation.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let id = SEQ.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("otc_observer_{tag}_{}_{id}", std::process::id()));
    std::fs::create_dir_all(&root).expect("scratch dir");
    root
}

/// Runs one service over `forest` with the given metrics setting,
/// submitting `reqs` from a single sequential client (so the accepted
/// global order — and therefore the logged bytes — is identical across
/// runs). With `scrapers > 0`, that many concurrent connections hammer
/// live `Metrics` scrapes for the whole run.
fn run_once(forest: &Forest, reqs: &[Request], metrics: bool, scrapers: usize) -> ServeOutcome {
    let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
    let server = Server::start(engine, ServeConfig { metrics, ..ServeConfig::default() })
        .expect("bind loopback");
    let addr = server.addr();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..scrapers {
            scope.spawn(|| {
                let mut scraper = Client::connect(addr).expect("scraper connects");
                let mut scrapes = 0u64;
                while !done.load(Ordering::Relaxed) || scrapes == 0 {
                    let snap = scraper.scrape().expect("live scrape");
                    assert_eq!(
                        MetricsSnapshot::from_json(&snap.to_json()).expect("canonical json"),
                        snap,
                        "every live scrape round-trips through the codec"
                    );
                    scrapes += 1;
                }
                scraper.bye().expect("scraper bye");
            });
        }
        let mut client = Client::connect(addr).expect("connect");
        for chunk in reqs.chunks(53) {
            client.submit(chunk).expect("submit");
        }
        client.drain().expect("drain");
        client.bye().expect("bye");
        done.store(true, Ordering::Relaxed);
    });
    server.shutdown().expect("clean shutdown")
}

/// The single counter series called `name` in `snap`.
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    let values: Vec<&MetricValue> =
        snap.metrics.iter().filter(|r| r.name == name).map(|r| &r.value).collect();
    match values.as_slice() {
        [MetricValue::Counter(n)] => *n,
        other => panic!("{name}: expected one counter, got {other:?}"),
    }
}

/// The scrape's cost counters equal `report`'s totals.
fn assert_costs_match(snap: &MetricsSnapshot, report: &Report, context: &str) {
    for (name, want) in [
        ("otc_serve_rounds_total", report.rounds),
        ("otc_serve_paid_rounds_total", report.paid_rounds),
        ("otc_serve_service_cost_total", report.cost.service),
        ("otc_serve_reorg_cost_total", report.cost.reorg),
    ] {
        assert_eq!(counter(snap, name), want, "{context}: {name}");
    }
}

/// Replays `trace_bytes` and returns the per-shard reports.
fn replay(forest: &Forest, trace_bytes: &[u8], cfg: EngineConfig) -> Vec<Report> {
    let mut engine = ShardedEngine::new(forest.clone(), &factory, cfg);
    let mut reader =
        TraceReader::new(std::io::Cursor::new(trace_bytes)).expect("valid trace header");
    let mut chunk = Vec::with_capacity(4 * 1024);
    engine.replay_trace(&mut reader, &mut chunk).expect("trace replays");
    engine.into_reports().expect("valid replay")
}

/// The headline differential: metrics off ≡ metrics on ≡ metrics on
/// under concurrent live scrapes — bit-identical traces, reports and
/// telemetry — and the shared trace replays to the same reports at
/// threads {1, nproc}.
#[test]
fn observation_never_changes_results() {
    let tree = Tree::star(48);
    let forest = Forest::partition(&tree, 4);
    let reqs = mixed(49, 6000, 0x0B5E);

    let off = run_once(&forest, &reqs, false, 0);
    let on = run_once(&forest, &reqs, true, 0);
    let scraped = run_once(&forest, &reqs, true, 2);

    assert!(off.metrics.is_none(), "metrics-off outcome carries no snapshot");
    assert!(on.metrics.is_some() && scraped.metrics.is_some());

    let trace = off.trace_bytes.as_deref().expect("memory log");
    for (name, other) in [("metrics on", &on), ("metrics on + live scrapes", &scraped)] {
        assert_eq!(trace, other.trace_bytes.as_deref().expect("memory log"), "{name}: trace");
        assert_eq!(off.per_shard, other.per_shard, "{name}: per-shard reports");
        assert_eq!(off.report, other.report, "{name}: aggregate report");
        assert_eq!(off.timeline.windows, other.timeline.windows, "{name}: telemetry");
        assert_eq!(off.requests_served, other.requests_served, "{name}: accepted count");
    }

    for threads in [1, nproc()] {
        let per_shard = replay(&forest, trace, base_cfg().threads(threads));
        assert_eq!(per_shard, off.per_shard, "replay at {threads} threads ≡ every live variant");
    }
}

/// Observation is also invisible to the rebalancer: a skewed run that
/// actually migrates cells produces the identical trace (including the
/// interleaved rebalance records) and the identical migration summary
/// with metrics on and off.
#[test]
fn rebalance_schedule_is_identical_with_metrics_on() {
    let tree = Tree::star(32);
    let forest = Forest::partition(&tree, 8);
    let mut rng = SplitMix64::new(0x5CEB);
    let reqs: Vec<Request> = (0..4000)
        .map(|_| {
            let v = if rng.chance(0.7) { NodeId(3) } else { NodeId(rng.index(33) as u32) };
            if rng.chance(0.3) {
                Request::neg(v)
            } else {
                Request::pos(v)
            }
        })
        .collect();
    let rcfg = RebalanceConfig::new(200).threshold_x1000(1000);
    let policy = || {
        RebalancePolicy::new(
            3,
            rcfg,
            Arc::new(factory as fn(Arc<Tree>, ShardId) -> Box<dyn CachePolicy>)
                as Arc<dyn PolicyFactory + Send + Sync>,
        )
    };

    let run = |metrics: bool| {
        let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
        let cfg = ServeConfig { metrics, rebalance: Some(policy()), ..ServeConfig::default() };
        let server = Server::start(engine, cfg).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        for chunk in reqs.chunks(61) {
            client.submit(chunk).expect("submit");
        }
        client.drain().expect("drain");
        client.bye().expect("bye");
        server.shutdown().expect("clean shutdown")
    };

    let off = run(false);
    let on = run(true);
    let summary = off.rebalance.clone().expect("rebalancing ran");
    assert!(summary.boundaries > 0, "the skew must cross decision boundaries");
    assert_eq!(off.trace_bytes, on.trace_bytes, "trace incl. rebalance records");
    assert_eq!(Some(summary), on.rebalance, "migration schedule and final placement");
    assert_eq!(off.per_shard, on.per_shard);
    assert_eq!(off.report, on.report);
}

/// Kill/resume differential: a metrics-on service killed mid-stream
/// writes a parseable final dump next to the synced log, and the
/// resumed run's outcome is bit-identical to the metrics-off twin —
/// at replay threads {1, nproc}. The resumed service's cost counters
/// start at the recovered totals, so its final scrape equals the
/// lifetime report, not just the post-resume tail.
#[test]
fn kill_dump_parses_and_resume_matches_metrics_off_twin() {
    let tree = Tree::star(40);
    let forest = Forest::partition(&tree, 4);
    let reqs = mixed(41, 3000, 0xD1A6);
    let cut = 1700;

    let run = |metrics: bool, threads: usize, root: &Path| -> (ServeOutcome, Option<PathBuf>) {
        let log = root.join("serve.otct");
        let serve_cfg =
            ServeConfig { log: TraceLog::File(log.clone()), metrics, ..ServeConfig::default() };
        let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg());
        let server = Server::start(engine, serve_cfg.clone()).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        for chunk in reqs[..cut].chunks(47) {
            client.submit(chunk).expect("submit");
        }
        client.drain().expect("drain before kill");
        client.bye().expect("bye");
        let logged = server.kill().expect("kill syncs").expect("file log path");
        let dump = metrics.then(|| {
            let mut p = logged.clone().into_os_string();
            p.push(".metrics.json");
            PathBuf::from(p)
        });

        let engine = ShardedEngine::new(forest.clone(), &factory, base_cfg().threads(threads));
        let (server, resumed) = Server::resume(engine, serve_cfg).expect("resume");
        assert_eq!(resumed.requests_recovered as usize, cut, "kill lost nothing");
        let mut client = Client::connect(server.addr()).expect("reconnect");
        for chunk in reqs[cut..].chunks(59) {
            client.submit(chunk).expect("submit tail");
        }
        client.drain().expect("drain");
        client.bye().expect("bye");
        (server.shutdown().expect("clean shutdown"), dump)
    };

    let off_root = scratch("off");
    let (off, _) = run(false, 1, &off_root);
    assert_eq!(off.requests_served as usize, reqs.len());

    for threads in [1, nproc()] {
        let on_root = scratch("on");
        let (on, dump) = run(true, threads, &on_root);
        let dump = dump.expect("metrics-on kill names a dump");
        let json = std::fs::read_to_string(&dump).expect("kill wrote the final dump");
        let snap = MetricsSnapshot::from_json(&json).expect("dump is canonical");
        assert!(!snap.metrics.is_empty(), "the dump holds the pre-kill surface");
        assert_eq!(off.per_shard, on.per_shard, "resume at {threads} threads: per-shard");
        assert_eq!(off.report, on.report, "resume at {threads} threads: aggregate");
        assert_eq!(off.timeline.windows, on.timeline.windows, "telemetry");
        let final_snap = on.metrics.as_ref().expect("the resumed service serves metrics");
        assert_costs_match(final_snap, &on.report, &format!("resume at {threads} threads"));
        std::fs::remove_dir_all(&on_root).ok();
    }
    std::fs::remove_dir_all(&off_root).ok();
}

/// A metrics-off server still answers `Metrics`: with the valid empty
/// exposition, not an error — scraping is always safe to attempt.
#[test]
fn scrape_of_a_metrics_off_server_is_the_empty_exposition() {
    let tree = Tree::star(8);
    let forest = Forest::partition(&tree, 2);
    let engine = ShardedEngine::new(forest, &factory, EngineConfig::new(ALPHA));
    let server = Server::start(engine, ServeConfig::default()).expect("bind");
    assert!(server.metrics().is_none());

    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.scrape_json().expect("scrape"), MetricsSnapshot::default().to_json());
    assert!(client.scrape().expect("typed scrape").metrics.is_empty());
    client.bye().expect("bye");
    server.shutdown().expect("clean shutdown");
}

/// The scrape carries the advertised stage surface with real samples:
/// every stage histogram series exists, the drained batches and
/// accepted requests counted, the cost counters equal an offline run
/// of the same requests, and the wire scrape equals the server-side one
/// after a drain barrier.
#[test]
fn scrape_contains_every_stage_with_samples() {
    let tree = Tree::star(24);
    let forest = Forest::partition(&tree, 3);
    let engine = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(ALPHA));
    let server = Server::start(engine, ServeConfig { metrics: true, ..ServeConfig::default() })
        .expect("bind");

    let reqs = mixed(25, 2000, 99);
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(&reqs).expect("submit");
    client.drain().expect("drain");
    let snap = client.scrape().expect("scrape");

    let find = |name: &str| -> Vec<&MetricValue> {
        snap.metrics.iter().filter(|r| r.name == name).map(|r| &r.value).collect()
    };
    for stage in ["otc_serve_accept_nanos", "otc_serve_lock_hold_nanos", "otc_serve_flush_nanos"] {
        match find(stage).as_slice() {
            [MetricValue::Histogram(h)] => {
                assert!(h.count > 0, "{stage}: must have samples");
                assert!(h.p50() <= h.p99() && h.p99() <= h.p999(), "{stage}: quantile order");
            }
            other => panic!("{stage}: expected one histogram, got {other:?}"),
        }
    }
    assert_eq!(find("otc_serve_ring_wait_nanos").len(), 3, "one ring-wait series per group");
    assert_eq!(
        find("otc_serve_lanes").as_slice(),
        [&MetricValue::Gauge(3.min(nproc()) as u64)],
        "the 3 groups run on min(groups, available_parallelism()) lanes"
    );
    let drained: u64 = find("otc_serve_drain_nanos")
        .iter()
        .map(|v| match v {
            MetricValue::Histogram(h) => h.count,
            other => panic!("drain series must be histograms, got {other:?}"),
        })
        .sum();
    assert!(drained > 0, "cell workers drained batches");
    assert_eq!(counter(&snap, "otc_serve_batches_total"), drained, "one batch per drain sample");
    assert_eq!(counter(&snap, "otc_serve_requests_total"), 2000);
    assert_eq!(counter(&snap, "otc_serve_connections_total"), 1);
    assert_eq!(counter(&snap, "otc_serve_scrapes_total"), 1, "this scrape is the first");

    // The cost counters are exact after the drain barrier.
    let mut offline = ShardedEngine::new(forest, &factory, EngineConfig::new(ALPHA));
    offline.submit_batch(&reqs).expect("valid");
    let report = offline.into_report().expect("valid");
    assert_eq!(report.rounds, 2000);
    assert_costs_match(&snap, &report, "after a drain");

    // The prometheus rendering exposes the same series names.
    let prom = snap.to_prometheus();
    assert!(prom.contains("otc_serve_drain_nanos_bucket"), "{prom}");
    assert!(prom.contains("otc_serve_requests_total 2000"), "{prom}");

    // After the drain barrier nothing moves: the server-side snapshot
    // taken now differs from the wire one only by that scrape's bump.
    let local = server.metrics().expect("server-side scrape");
    assert_eq!(local.metrics.len(), snap.metrics.len());

    client.bye().expect("bye");
    let outcome = server.shutdown().expect("clean shutdown");
    assert_eq!(outcome.report, report, "the service still matches the offline batch");
    let final_snap = outcome.metrics.expect("metrics-on outcome");
    assert!(!final_snap.metrics.is_empty());
}

/// Pipelined frames that reach the server in one write are answered in
/// one flush: 64 one-request frames sent through `Client::send` and
/// written together by `wait_acks` get their 64 acks from fewer than 64
/// flushes (a flush per frame would record exactly 64 samples).
#[test]
fn a_pipelined_burst_is_answered_with_fewer_flushes_than_frames() {
    const FRAMES: usize = 64;
    let tree = Tree::star(16);
    let forest = Forest::partition(&tree, 2);
    let engine = ShardedEngine::new(forest, &factory, EngineConfig::new(ALPHA));
    let server = Server::start(engine, ServeConfig { metrics: true, ..ServeConfig::default() })
        .expect("bind");

    let reqs = mixed(17, FRAMES, 0xF1A5);
    let mut client = Client::connect(server.addr()).expect("connect");
    for r in &reqs {
        client.send(std::slice::from_ref(r)).expect("queue one frame");
    }
    assert_eq!(client.inflight(), FRAMES);
    assert_eq!(client.wait_acks().expect("all acks"), FRAMES as u64, "every frame acked");
    assert_eq!(client.inflight(), 0);

    let snap = client.scrape().expect("scrape");
    assert_eq!(counter(&snap, "otc_serve_requests_total"), FRAMES as u64);
    let flushes: Vec<u64> = snap
        .metrics
        .iter()
        .filter(|r| r.name == "otc_serve_flush_nanos")
        .map(|r| match &r.value {
            MetricValue::Histogram(h) => h.count,
            other => panic!("flush series must be a histogram, got {other:?}"),
        })
        .collect();
    match flushes.as_slice() {
        [n] => assert!(*n < FRAMES as u64, "{n} flushes answered {FRAMES} pipelined frames"),
        other => panic!("expected one flush series, got {other:?}"),
    }
    client.bye().expect("bye");
    server.shutdown().expect("clean shutdown");
}
