//! End-to-end pins for the serving runtime, centred on the repo's core
//! invariant: **the live service's cost is bit-identical to
//! `replay_trace` of the trace it logged** — under concurrent clients,
//! pipelining, multiple shards, and any replay thread count — plus the
//! ack liveness that flushing once per read burst must keep: however a
//! pipelined burst is cut into writes, every complete frame is answered
//! without waiting for the bytes after it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::{NodeId, Tree};
use otc_serve::wire::{encode_submit, read_message};
use otc_serve::{Client, Message, ServeConfig, Server, TraceLog, WIRE_VERSION};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::Report;
use otc_util::SplitMix64;
use otc_workloads::trace::TraceReader;
use proptest::prelude::*;

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

/// A hand-driven wire connection: it writes whatever bytes it is given,
/// split wherever the test says, and reads replies under a 10 s timeout,
/// so a reply the server never flushes fails the test instead of
/// hanging it.
struct RawConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl RawConn {
    /// Connects and completes the handshake.
    fn open(server: &Server) -> Self {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let mut conn = Self { stream, rbuf: Vec::new() };
        let mut hello = Vec::new();
        Message::Hello { version: WIRE_VERSION }.encode_into(&mut hello);
        conn.write(&hello);
        assert!(matches!(conn.reply(), Message::HelloAck { .. }), "handshake");
        conn
    }

    fn write(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    /// The next reply frame; a timeout fails with a message naming it.
    fn reply(&mut self) -> Message {
        match read_message(&mut self.stream, &mut self.rbuf) {
            Ok(Some(msg)) => msg,
            Ok(None) => panic!("server closed the connection"),
            Err(e) => panic!("no reply within the read timeout (an unflushed ack?): {e}"),
        }
    }

    /// Reads one `Ack` per entry of `accepted`, in order.
    fn expect_acks(&mut self, accepted: &[usize]) {
        for (i, &want) in accepted.iter().enumerate() {
            match self.reply() {
                Message::Ack { accepted } => {
                    assert_eq!(accepted as usize, want, "ack {i} carries its frame's count");
                }
                other => panic!("expected Ack {i}, got {other:?}"),
            }
        }
    }

    /// `Drain`, then `Bye`: each answered by one `Ack { accepted: 0 }`,
    /// and then end of stream, so a surplus ack anywhere before shows.
    fn drain_and_close(mut self) {
        let mut tail = Vec::new();
        Message::Drain.encode_into(&mut tail);
        Message::Bye.encode_into(&mut tail);
        self.write(&tail);
        self.expect_acks(&[0, 0]);
        let end = read_message(&mut self.stream, &mut self.rbuf).expect("clean close");
        assert_eq!(end, None, "nothing follows the Bye ack");
    }
}

/// A star-tree service over `shards` shards with an in-memory log.
fn small_service(leaves: usize, shards: usize) -> (Forest, Server) {
    let tree = Tree::star(leaves);
    let forest = Forest::partition(&tree, shards);
    let engine = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(ALPHA));
    let server = Server::start(engine, ServeConfig::default()).expect("bind loopback");
    (forest, server)
}

/// Shuts `server` down and checks the live reports against a replay of
/// its log.
fn assert_live_equals_replay(forest: &Forest, server: Server, served: usize) {
    let outcome = server.shutdown().expect("clean shutdown");
    assert_eq!(outcome.requests_served as usize, served);
    let trace = outcome.trace_bytes.expect("memory log");
    assert_eq!(replay(forest, &trace, EngineConfig::new(ALPHA)), outcome.per_shard);
}

/// Flushing once per read burst must never strand an ack behind a
/// partial frame: a client that pipelines k whole `Submit` frames plus
/// the first bytes of frame k+1, then waits for the k acks before it
/// sends the rest, gets them — with the split inside frame k+1's length
/// prefix and inside its payload. (Deferring the flush while the read
/// buffer is merely non-empty deadlocks this client.)
#[test]
fn acks_are_flushed_ahead_of_a_partial_frame() {
    const K: usize = 5;
    let (forest, server) = small_service(32, 2);
    let reqs = mixed(33, (K + 1) * 40, 0xB0257);
    let frames: Vec<Vec<u8>> = reqs
        .chunks(40)
        .map(|chunk| {
            let mut frame = Vec::new();
            encode_submit(&mut frame, chunk);
            frame
        })
        .collect();
    let (whole, last) = frames.split_at(K);
    let [last] = last else { unreachable!("K + 1 frames") };
    let mut served = 0;
    for split in [2, 4 + 3] {
        let mut conn = RawConn::open(&server);
        conn.write(&[whole.concat(), last[..split].to_vec()].concat());
        conn.expect_acks(&[40; K]);
        conn.write(&last[split..]);
        conn.expect_acks(&[40]);
        conn.drain_and_close();
        served += reqs.len();
    }
    assert_live_equals_replay(&forest, server, served);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// However a pipelined burst is cut into `write`s — between frames,
    /// inside a length prefix, inside a payload — and whether or not the
    /// client waits for the acks of its complete frames at each cut,
    /// every frame gets exactly one ack carrying its request count, in
    /// order, and the live run replays from its log.
    #[test]
    fn segmented_pipelines_get_one_ack_per_frame(
        frames in prop::collection::vec(
            (0usize..160, 0u8..6, any::<u16>(), any::<bool>()),
            1..12,
        ),
        seed in any::<u64>(),
    ) {
        let (forest, server) = small_service(16, 2);
        let mut conn = RawConn::open(&server);
        let reqs = mixed(17, frames.iter().map(|f| f.0).sum(), seed);
        let (mut bytes, mut sizes, mut cuts) = (Vec::new(), Vec::new(), Vec::new());
        let mut rest = &reqs[..];
        for &(n, kind, frac, wait) in &frames {
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            let start = bytes.len();
            encode_submit(&mut bytes, chunk);
            let len = bytes.len() - start;
            let frac = usize::from(frac);
            // Where this frame is cut, if at all: inside the length
            // prefix, inside the body (opcode included), or at its end.
            let cut = match kind {
                0 | 1 => None,
                2 => Some(start + 1 + frac % 3),
                3 => Some(start + 4 + frac % (len - 4)),
                _ => Some(start + len),
            };
            sizes.push((start + len, n));
            if let Some(at) = cut {
                cuts.push((at, wait));
            }
        }
        let mut written = 0;
        let mut acked = 0;
        for (at, wait) in cuts.into_iter().chain([(bytes.len(), true)]) {
            conn.write(&bytes[written..at]);
            written = at;
            if wait {
                // Every frame the bytes so far complete must be answered
                // now, before the client sends anything more.
                let done = sizes.iter().take_while(|&&(end, _)| end <= written).count();
                let want: Vec<usize> = sizes[acked..done].iter().map(|&(_, n)| n).collect();
                conn.expect_acks(&want);
                acked = done;
            }
        }
        prop_assert_eq!(acked, frames.len());
        conn.drain_and_close();
        assert_live_equals_replay(&forest, server, reqs.len());
    }
}
