//! End-to-end pins for the serving runtime, centred on the repo's core
//! invariant: **the live service's cost is bit-identical to
//! `replay_trace` of the trace it logged** — under concurrent clients,
//! pipelining, multiple shards, and any replay thread count.

use std::sync::Arc;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::{NodeId, Tree};
use otc_serve::{Client, ServeConfig, Server, TraceLog};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::Report;
use otc_util::SplitMix64;
use otc_workloads::trace::TraceReader;

const ALPHA: u64 = 2;
const CAPACITY: usize = 6;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, CAPACITY)))
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

/// Replays `trace_bytes` through a fresh engine and returns the
/// per-shard reports.
fn replay(forest: &Forest, trace_bytes: &[u8], cfg: EngineConfig) -> Vec<Report> {
    let mut engine = ShardedEngine::new(forest.clone(), &factory, cfg);
    let mut reader = TraceReader::new(std::io::Cursor::new(trace_bytes))
        .expect("logged trace has a valid header");
    let mut chunk = Vec::with_capacity(8 * 1024);
    engine.replay_trace(&mut reader, &mut chunk).expect("logged trace replays");
    engine.into_reports().expect("valid replay")
}

/// The acceptance-criteria differential: ≥4 concurrent clients over a
/// ≥4-shard forest; the logged OTCT trace replays to the live service's
/// per-shard and aggregated reports exactly, at replay threads ∈
/// {1, nproc}. Rings of capacity 1 and 2 hold the backpressure path to
/// the same identity: there nearly every run fills its ring while the
/// frame's wake is still deferred, so senders must wake the workers
/// before they wait.
#[test]
fn live_service_equals_offline_replay_of_its_log() {
    for queue_capacity in [ServeConfig::default().queue_capacity, 1, 2] {
        live_equals_replay_at(queue_capacity);
    }
}

fn live_equals_replay_at(queue_capacity: usize) {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 3000;

    let tree = Tree::star(64);
    let forest = Forest::partition(&tree, 4);
    let engine_cfg = EngineConfig::new(ALPHA).audit_every(512).telemetry(true);
    let engine = ShardedEngine::new(forest.clone(), &factory, engine_cfg);
    let cfg = ServeConfig { queue_capacity, ..ServeConfig::default() };
    let server = Server::start(engine, cfg).expect("bind loopback");
    assert_eq!(server.num_shards(), 4);
    let addr = server.addr();

    // Concurrent clients, mixed batch sizes and pipelining depths, all
    // interleaving arbitrarily at the ingress.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let reqs = mixed(65, PER_CLIENT, 0xC11E57 + c as u64);
                let mut client = Client::connect(addr).expect("connect");
                assert_eq!(client.universe(), 65);
                assert_eq!(client.shards(), 4);
                let mut accepted = 0;
                if c % 2 == 0 {
                    // Synchronous, odd batch sizes.
                    for chunk in reqs.chunks(37 + c) {
                        accepted += client.submit(chunk).expect("submit");
                    }
                } else {
                    // Pipelined: several frames in flight at once.
                    for chunk in reqs.chunks(64) {
                        client.send(chunk).expect("send");
                        if client.inflight() >= 8 {
                            accepted += client.wait_acks().expect("acks");
                        }
                    }
                    accepted += client.wait_acks().expect("acks");
                }
                assert_eq!(accepted as usize, PER_CLIENT);
                client.drain().expect("drain barrier");
                client.bye().expect("goodbye");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let outcome = server.shutdown().expect("clean shutdown");
    assert_eq!(outcome.requests_served as usize, CLIENTS * PER_CLIENT);
    assert_eq!(outcome.report.rounds as usize, CLIENTS * PER_CLIENT);
    let trace = outcome.trace_bytes.expect("memory trace log");

    // The log itself is a well-formed OTCT trace with full provenance.
    let reader = TraceReader::new(std::io::Cursor::new(&trace)).expect("valid header");
    assert_eq!(reader.header().generator, "otc-serve");
    assert_eq!(reader.header().universe, 65);
    assert_eq!(reader.remaining(), Some((CLIENTS * PER_CLIENT) as u64));

    // Replay ≡ live, per shard and aggregated, at threads ∈ {1, nproc}.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    for threads in [1, nproc] {
        let per_shard = replay(&forest, &trace, engine_cfg.threads(threads));
        assert_eq!(
            per_shard, outcome.per_shard,
            "per-shard replay at {threads} threads must be bit-identical to the live run"
        );
        let aggregated = otc_sim::aggregate_reports(per_shard);
        assert_eq!(aggregated, outcome.report, "aggregate replay at {threads} threads");
    }

    // Telemetry survived the detach: windows partition the whole run.
    assert!(!outcome.timeline.windows.is_empty());
    assert_eq!(
        outcome.timeline.sum(|w| w.rounds) as usize,
        CLIENTS * PER_CLIENT,
        "windows partition every round exactly"
    );
    assert_eq!(
        outcome.timeline.sum(|w| w.paid_rounds)
            + ALPHA * outcome.timeline.sum(|w| w.nodes_fetched + w.nodes_evicted + w.nodes_flushed),
        outcome.report.cost.total(),
        "windows reassemble the aggregate cost"
    );
}

/// Out-of-universe requests are rejected atomically — the offending
/// batch leaves no trace in the log, the queues, or the reports — and
/// the connection is closed, while other connections keep working.
#[test]
fn out_of_universe_batches_are_rejected_atomically() {
    let tree = Tree::star(8);
    let forest = Forest::partition(&tree, 2);
    let engine = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(ALPHA));
    let server = Server::start(engine, ServeConfig::default()).expect("bind");

    let mut bad = Client::connect(server.addr()).expect("connect");
    let err = bad
        .submit(&[Request::pos(NodeId(1)), Request::pos(NodeId(999))])
        .expect_err("out-of-universe batch must be rejected");
    assert!(err.to_string().contains("999"), "got: {err}");

    // A fresh connection still serves (the service is not poisoned).
    let good_reqs = mixed(9, 500, 5);
    let mut good = Client::connect(server.addr()).expect("connect");
    good.submit(&good_reqs).expect("good batch");
    good.drain().expect("drain");
    good.bye().expect("bye");

    let outcome = server.shutdown().expect("rejection must not poison the service");
    assert_eq!(outcome.requests_served, 500, "the rejected batch was never accepted");
    // The log contains exactly the good requests; replay matches.
    let trace = outcome.trace_bytes.expect("memory log");
    let per_shard = replay(&forest, &trace, EngineConfig::new(ALPHA));
    assert_eq!(per_shard, outcome.per_shard);
}

/// A protocol-corrupt frame gets an Error reply and a closed connection;
/// a version-mismatched Hello is refused, and so is a retired opcode
/// after a valid handshake.
#[test]
fn corrupt_frames_and_bad_handshakes_are_refused() {
    use std::io::{Read, Write};

    let tree = Tree::star(4);
    let engine =
        ShardedEngine::new(Forest::partition(&tree, 2), &factory, EngineConfig::new(ALPHA));
    let server = Server::start(engine, ServeConfig::default()).expect("bind");

    // Each abuse is answered, after `skip` reply bytes, with exactly one
    // Error frame (4-byte len, opcode 0xEE, message), then a close; a
    // server that keeps the connection open fails the read timeout.
    let refused = |sent: &[u8], skip: usize| -> String {
        let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
        raw.write_all(sent).expect("write");
        let mut reply = Vec::new();
        raw.read_to_end(&mut reply).expect("server closes after Error");
        let frame = &reply[skip..];
        assert_eq!(frame[4], 0xEE, "server answers with an Error frame");
        let len = u32::from_le_bytes(frame[..4].try_into().expect("len"));
        assert_eq!(frame.len(), 4 + len as usize, "one Error frame, then close");
        String::from_utf8(frame[5..].to_vec()).expect("UTF-8 error text")
    };
    let hello = |payload: &[u8]| [&7u32.to_le_bytes()[..], &[0x01], payload].concat();

    // Hand-rolled bad handshakes: wrong magic, then version 255.
    let message = refused(&hello(b"XXXX\x01\x00"), 0);
    assert!(message.contains("magic"), "got: {message}");
    let message = refused(&hello(b"OTCW\xFF\x00"), 0);
    assert!(message.contains("version"), "got: {message}");

    // A valid Hello, then the bare retired opcode 0x03: the Error frame
    // follows the HelloAck (len + opcode + magic + version + universe +
    // shards).
    let retired = [hello(b"OTCW\x01\x00"), vec![1, 0, 0, 0, 0x03]].concat();
    let message = refused(&retired, 4 + 1 + 4 + 2 + 4 + 4);
    assert!(message.contains("unknown opcode"), "got: {message}");

    // The service survives all three abuses.
    let mut client = Client::connect(server.addr()).expect("connect");
    client.submit(&[Request::pos(NodeId(1))]).expect("still serving");
    client.bye().expect("bye");
    server.shutdown().expect("clean shutdown");
}

/// An idle service shuts down cleanly and reports zeros.
#[test]
fn idle_shutdown_is_clean() {
    let tree = Tree::star(4);
    let engine =
        ShardedEngine::new(Forest::partition(&tree, 2), &factory, EngineConfig::new(ALPHA));
    let server = Server::start(engine, ServeConfig::default()).expect("bind");
    let outcome = server.shutdown().expect("clean shutdown");
    assert_eq!(outcome.requests_served, 0);
    assert_eq!(outcome.report.rounds, 0);
    assert_eq!(outcome.report.cost.total(), 0);
    assert_eq!(outcome.per_shard.len(), 2);
    // An empty log is still a valid OTCT trace declaring zero records.
    let trace = outcome.trace_bytes.expect("memory log");
    let mut reader = TraceReader::new(std::io::Cursor::new(&trace)).expect("valid header");
    assert_eq!(reader.remaining(), Some(0));
    assert!(reader.next().is_none());
}

/// File-backed logging writes a replayable OTCT trace to disk.
#[test]
fn file_backed_log_replays() {
    let tree = Tree::star(16);
    let forest = Forest::partition(&tree, 4);
    let path = std::env::temp_dir().join(format!("otc_serve_log_test_{}.otct", std::process::id()));
    let engine = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(ALPHA));
    let server = Server::start(
        engine,
        ServeConfig { log: TraceLog::File(path.clone()), ..ServeConfig::default() },
    )
    .expect("bind");

    let reqs = mixed(17, 1200, 99);
    let mut client = Client::connect(server.addr()).expect("connect");
    for chunk in reqs.chunks(100) {
        client.submit(chunk).expect("submit");
    }
    client.bye().expect("bye");
    let outcome = server.shutdown().expect("clean shutdown");
    assert_eq!(outcome.trace_path.as_deref(), Some(path.as_path()));

    let bytes = std::fs::read(&path).expect("trace file exists");
    let per_shard = replay(&forest, &bytes, EngineConfig::new(ALPHA));
    assert_eq!(per_shard, outcome.per_shard, "file log replays bit-identically");
    std::fs::remove_file(&path).ok();
}
