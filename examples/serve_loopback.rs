//! Live serving end to end: a loopback TCP service over a sharded
//! forest, hammered by concurrent clients, then proven bit-identical to
//! an offline replay of the trace it logged.
//!
//! ```text
//! cargo run --release --example serve_loopback
//! ```
//!
//! 1. start an `otc-serve` [`Server`] over a 4-shard forest (one
//!    serving group per shard, run on `min(4, available_parallelism())`
//!    persistent worker threads, OTCT trace logging on);
//! 2. connect 4 concurrent clients, each submitting its slice of a
//!    multi-tenant workload — half synchronous, half pipelined;
//! 3. drain, say goodbye, shut down: collect per-shard verified
//!    reports, the aggregate, the telemetry timeline, and the logged
//!    OTCT trace;
//! 4. replay the log through a fresh `ShardedEngine` and assert the
//!    live run and the replay are **bit-identical** — the repo's core
//!    determinism invariant, now holding across threads and sockets.
//!
//! CI runs this binary as the serving smoke test.

use std::sync::Arc;

use online_tree_caching::prelude::*;
use online_tree_caching::serve::{Client, ServeConfig, Server};
use online_tree_caching::sim::engine::{EngineConfig, ShardedEngine};
use online_tree_caching::util::SplitMix64;
use online_tree_caching::workloads::trace::TraceReader;
use online_tree_caching::workloads::{multi_tenant_stream, TenantProfile};

const ALPHA: u64 = 4;
const SHARDS: usize = 4;
const CLIENTS: usize = 4;
const PER_CLIENT: usize = 20_000;
const SEED: u64 = 0x5EED_5EAE;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, 64))) as Box<dyn CachePolicy>
}

fn main() {
    // --- 1. A 4-shard forest served by 4 pinned workers.
    let mut rng = SplitMix64::new(SEED);
    let forest = Forest::partition(&Tree::kary(4, 5), SHARDS); // 341 nodes
    let engine_cfg = EngineConfig::bare(ALPHA).audit_every(4096).telemetry(true);
    let engine = ShardedEngine::new(forest.clone(), &factory, engine_cfg);
    let server = Server::start(engine, ServeConfig::default()).expect("bind 127.0.0.1");
    println!(
        "serving {} global nodes over {} shards at {}",
        forest.global_len(),
        server.num_shards(),
        server.addr()
    );

    // --- 2. Four concurrent clients, each with its own workload slice.
    let profiles = vec![TenantProfile::skewed(1.1); SHARDS];
    let addr = server.addr();
    let slices: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|_| multi_tenant_stream(&forest, &profiles, PER_CLIENT, ALPHA, &mut rng))
        .collect();
    #[allow(
        clippy::needless_collect,
        reason = "collecting spawns every client thread before the first join; a lazy \
                  iterator would run the clients one at a time"
    )]
    let handles: Vec<_> = slices
        .into_iter()
        .enumerate()
        .map(|(c, reqs)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut accepted = 0u64;
                if c % 2 == 0 {
                    for chunk in reqs.chunks(256) {
                        accepted += client.submit(chunk).expect("submit");
                    }
                } else {
                    for chunk in reqs.chunks(256) {
                        client.send(chunk).expect("send");
                        if client.inflight() >= 16 {
                            accepted += client.wait_acks().expect("acks");
                        }
                    }
                    accepted += client.wait_acks().expect("acks");
                }
                client.drain().expect("drain");
                client.bye().expect("bye");
                accepted
            })
        })
        .collect();
    let total: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
    println!("{CLIENTS} clients submitted {total} requests");

    // --- 3. Graceful shutdown: reports + timeline + the OTCT log.
    let outcome = server.shutdown().expect("clean shutdown");
    assert_eq!(outcome.requests_served, total);
    println!(
        "live service: {} rounds, total cost {} (service {}, reorg {})",
        outcome.report.rounds,
        outcome.report.cost.total(),
        outcome.report.cost.service,
        outcome.report.cost.reorg
    );
    for (s, r) in outcome.per_shard.iter().enumerate() {
        println!(
            "  shard {s}: {} rounds, cost {}, peak cache {}",
            r.rounds,
            r.cost.total(),
            r.peak_cache
        );
    }
    let trace = outcome.trace_bytes.expect("memory trace log");
    println!(
        "logged OTCT trace: {} bytes ({:.2} B/request), {} telemetry windows",
        trace.len(),
        trace.len() as f64 / total as f64,
        outcome.timeline.windows.len()
    );

    // --- 4. The invariant: live ≡ offline replay of the log.
    let mut replayer = ShardedEngine::new(forest, &factory, engine_cfg);
    let mut reader = TraceReader::new(std::io::Cursor::new(&trace)).expect("valid header");
    assert_eq!(reader.header().generator, "otc-serve");
    let mut chunk = Vec::with_capacity(16 * 1024);
    replayer.replay_trace(&mut reader, &mut chunk).expect("replay");
    let replayed = replayer.into_reports().expect("valid");
    assert_eq!(replayed, outcome.per_shard, "live serving must equal offline replay, per shard");
    assert_eq!(
        online_tree_caching::sim::aggregate_reports(replayed),
        outcome.report,
        "and in aggregate"
    );
    println!("ok: live service == offline replay of its own log, bit for bit");
}
