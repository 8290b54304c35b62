//! Observe a live server: stage-latency histograms scraped over the
//! wire while the service is under load, then a kill-dump read back
//! from disk — with the serving results provably unchanged by any of
//! it (invariant #8).
//!
//! ```text
//! cargo run --release --example observe_loopback
//! ```
//!
//! 1. start a metrics-on `otc-serve` [`Server`] over a 4-shard forest,
//!    trace-logging to a file so a kill leaves a resumable log behind;
//! 2. hammer it with concurrent submitting clients while a separate
//!    *scraper* connection polls the live metrics surface — counters
//!    and per-stage latency histograms move under its feet;
//! 3. take a final scrape, print the stage table, and write the strict
//!    canonical JSON exposition to `observe_metrics.json` (CI archives
//!    this file as a workflow artifact);
//! 4. prove invariant #8 on a deterministic workload: one sequential
//!    submitting client (so the accepted order is pinned) served twice —
//!    once observed (metrics on, scraper polling), once dark — must
//!    produce identical per-shard reports, and the observed run's
//!    scraped cost counters must equal its report;
//! 5. `kill()` the observed server's successor mid-stream: the final
//!    scrape is dumped next to the synced log as `<log>.metrics.json`,
//!    readable after the process is gone.
//!
//! CI runs this binary as the observability smoke test.

use std::sync::Arc;

use online_tree_caching::obs::{MetricValue, MetricsSnapshot};
use online_tree_caching::prelude::*;
use online_tree_caching::serve::{Client, ServeConfig, Server, TraceLog};
use online_tree_caching::sim::engine::{EngineConfig, ShardedEngine};
use online_tree_caching::util::SplitMix64;
use online_tree_caching::workloads::{multi_tenant_stream, TenantProfile};

const ALPHA: u64 = 4;
const SHARDS: usize = 4;
const CLIENTS: usize = 4;
const PER_CLIENT: usize = 15_000;
const SEED: u64 = 0x0B5E_57A6;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, 64))) as Box<dyn CachePolicy>
}

/// Serve `slices` over concurrent clients against `server`, with one
/// extra scraper connection polling the metrics surface `polls` times
/// while the load runs. Returns (requests accepted, live scrapes).
fn hammer(server: &Server, slices: &[Vec<Request>], polls: usize) -> (u64, Vec<MetricsSnapshot>) {
    let addr = server.addr();
    std::thread::scope(|scope| {
        #[allow(
            clippy::needless_collect,
            reason = "collecting spawns every submitter before the first join; a lazy \
                      iterator would run the clients one at a time"
        )]
        let submitters: Vec<_> = slices
            .iter()
            .map(|reqs| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut accepted = 0u64;
                    for chunk in reqs.chunks(256) {
                        accepted += client.submit(chunk).expect("submit");
                    }
                    client.drain().expect("drain");
                    client.bye().expect("bye");
                    accepted
                })
            })
            .collect();
        let scraper = scope.spawn(move || {
            let mut client = Client::connect(addr).expect("scraper connect");
            let mut scrapes = Vec::with_capacity(polls);
            for _ in 0..polls {
                scrapes.push(client.scrape().expect("scrape"));
                std::thread::yield_now();
            }
            client.bye().expect("bye");
            scrapes
        });
        let accepted = submitters.into_iter().map(|h| h.join().expect("client")).sum();
        (accepted, scraper.join().expect("scraper"))
    })
}

/// Sums every counter named `name` in the scrape.
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|r| r.name == name)
        .map(|r| match &r.value {
            MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum()
}

fn main() {
    let root = std::env::temp_dir().join(format!("otc_observe_loopback_{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("scratch dir");

    // --- 1. A metrics-on server logging to a file.
    let mut rng = SplitMix64::new(SEED);
    let forest = Forest::partition(&Tree::kary(4, 5), SHARDS); // 341 nodes
    let engine_cfg = EngineConfig::bare(ALPHA).audit_every(4096).telemetry(true);
    let cfg = ServeConfig {
        log: TraceLog::File(root.join("observed.otct")),
        metrics: true,
        ..ServeConfig::default()
    };
    let server =
        Server::start(ShardedEngine::new(forest.clone(), &factory, engine_cfg), cfg.clone())
            .expect("bind 127.0.0.1");
    println!(
        "observing {} global nodes over {} shards at {}",
        forest.global_len(),
        server.num_shards(),
        server.addr()
    );

    // --- 2. Concurrent load + a live scraper on its own connection.
    let profiles = vec![TenantProfile::skewed(1.1); SHARDS];
    let slices: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|_| multi_tenant_stream(&forest, &profiles, PER_CLIENT, ALPHA, &mut rng))
        .collect();
    let (accepted, live) = hammer(&server, &slices, 50);
    assert_eq!(accepted, (CLIENTS * PER_CLIENT) as u64);
    let moving = live.windows(2).any(|w| {
        counter(&w[0], "otc_serve_requests_total") < counter(&w[1], "otc_serve_requests_total")
    });
    println!(
        "{} live scrapes while {CLIENTS} clients submitted {accepted} requests \
         (counters seen moving: {moving})",
        live.len()
    );

    // --- 3. Final scrape: stage table + the JSON artifact CI archives.
    let mut probe = Client::connect(server.addr()).expect("probe connect");
    let json = probe.scrape_json().expect("final scrape");
    let last = probe.scrape().expect("final scrape parses");
    probe.bye().expect("bye");
    for record in &last.metrics {
        if let MetricValue::Histogram(h) = &record.value {
            if let (Some(p50), Some(p99)) = (h.p50(), h.p99()) {
                println!("  {:<28} n={:<8} p50={p50:>8}ns p99={p99:>9}ns", record.name, h.count);
            }
        }
    }
    assert_eq!(counter(&last, "otc_serve_requests_total"), accepted);
    std::fs::write("observe_metrics.json", &json).expect("write observe_metrics.json");
    println!("wrote observe_metrics.json ({} bytes)", json.len());
    server.shutdown().expect("clean shutdown");

    // --- 4. Invariant #8 needs a pinned accepted order, so it uses ONE
    //     sequential submitting client (concurrent submitters interleave
    //     nondeterministically at ingress, observed or not): served
    //     observed vs dark, the results must match exactly.
    let ordered: Vec<Vec<Request>> = vec![slices.concat()];
    let observed = Server::start(
        ShardedEngine::new(forest.clone(), &factory, engine_cfg),
        ServeConfig { metrics: true, ..ServeConfig::default() },
    )
    .expect("bind observed");
    let (observed_accepted, _) = hammer(&observed, &ordered, 20);
    let observed_outcome = observed.shutdown().expect("clean shutdown");
    let dark = Server::start(
        ShardedEngine::new(forest.clone(), &factory, engine_cfg),
        ServeConfig::default(),
    )
    .expect("bind dark twin");
    let (dark_accepted, _) = hammer(&dark, &ordered, 0);
    let dark_outcome = dark.shutdown().expect("clean shutdown");
    assert_eq!(dark_accepted, observed_accepted);
    assert_eq!(
        dark_outcome.per_shard, observed_outcome.per_shard,
        "observation must not change results, per shard"
    );
    assert_eq!(dark_outcome.report, observed_outcome.report, "and in aggregate");
    // The scrape carries the paper's cost totals: they equal the report.
    let observed_metrics = observed_outcome.metrics.as_ref().expect("metrics-on outcome");
    let report = &observed_outcome.report;
    for (name, want) in [
        ("otc_serve_rounds_total", report.rounds),
        ("otc_serve_paid_rounds_total", report.paid_rounds),
        ("otc_serve_service_cost_total", report.cost.service),
        ("otc_serve_reorg_cost_total", report.cost.reorg),
    ] {
        assert_eq!(counter(observed_metrics, name), want, "{name} equals the report");
    }
    println!("ok: observed run == dark twin, per shard and in aggregate (invariant #8)");
    println!("ok: scraped cost counters == report ({} rounds)", report.rounds);

    // --- 5. Kill-dump: crash an observed server and read the final
    //     scrape it left next to the synced log.
    let killed = Server::start(ShardedEngine::new(forest, &factory, engine_cfg), cfg)
        .expect("bind kill run");
    let (killed_accepted, _) = hammer(&killed, &slices[..1], 3);
    let log = killed.kill().expect("kill syncs the log").expect("file log has a path");
    let mut dump = log.clone().into_os_string();
    dump.push(".metrics.json");
    let dumped = MetricsSnapshot::from_json(&std::fs::read_to_string(&dump).expect("dump exists"))
        .expect("dump parses");
    assert_eq!(counter(&dumped, "otc_serve_requests_total"), killed_accepted);
    println!(
        "kill-dump at {} holds the final scrape ({} series, {} requests)",
        dump.to_string_lossy(),
        dumped.metrics.len(),
        killed_accepted
    );

    std::fs::remove_dir_all(&root).ok();
}
