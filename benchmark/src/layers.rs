//! The traced run: per-layer metrics as a waterfall of ns/request.
//!
//! A traced run first serves the workload again, alternating untraced
//! passes with traced ones (server stage metrics on, a span around every
//! client call), which yields the tracing overhead, the server's stage
//! histograms (`Client::scrape`) and the workload's recorded stream.
//! Then every layer's public functions are timed on that recorded
//! stream, each call inside a span. Layers a workload never calls are
//! still timed on its stream (snapshots, rebalancing), except the FIB
//! layers of the serving workloads, which are timed on the FIB table the
//! same seed generates. Spans are written to `bench-out/` at the end.

use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::{ActionBuffer, CachePolicy};
use otc_core::request::Request;
use otc_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use otc_sdn::{route_events, run_fib_sharded, FibEvent};
use otc_serve::initial_table;
use otc_serve::wire::{encode_submit, read_message};
use otc_sim::engine::ShardedEngine;
use otc_sim::snapshot::{EngineSnapshot, LogPosition};
use otc_sim::{run_stream, Rebalancer, SimConfig};
use otc_trie::RuleTree;
use otc_util::ring;
use otc_workloads::trace::{TraceEvent, TraceHeader, TraceReader, TraceWriter};

use crate::inputs::{self, FibInputs, ServeInputs, FIB_SHARDS, FIB_THREADS};
use crate::output::{Metric, RunOutput};
use crate::serve::{self, engine_cfg, factory, rebalance_cfg, ServeRound};
use crate::spans::Spans;
use crate::stats::median;
use crate::{out_dir, Scale, Workload, ALPHA};

/// One per-layer metric: its name, unit, direction, and the end-to-end
/// metric and workload it is expected to move.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves }
}

const FIB_RPS: &str = "throughput_rps on fib-sharded; small on both serve workloads";
const PIPE_RPS: &str = "throughput_rps on serve-pipelined";
const DURABLE_ACK: &str = "ack_p50_us on serve-durable";
const DURABLE_RECOVER: &str = "recover.resume_s and ack_p90_us (through the cuts) on serve-durable";

/// Every per-layer metric a traced run emits, in report order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    lm("core.step_ns", "ns", "lower", FIB_RPS),
    lm("core.paid_frac", "ratio", "lower", FIB_RPS),
    lm("core.touched_per_kreq", "count", "lower", FIB_RPS),
    lm("sim.driver_ns", "ns", "lower", "throughput_rps on fib-sharded"),
    lm("sim.validate_ns", "ns", "lower", "throughput_rps on fib-sharded"),
    lm("trie.lmp_ns", "ns", "lower", "throughput_rps on fib-sharded"),
    lm("sdn.route_ns", "ns", "lower", "throughput_rps on fib-sharded (serial routing)"),
    lm("sdn.route_frac", "ratio", "lower", "throughput_rps on fib-sharded (serial routing)"),
    lm("engine.submit_ns_s1", "ns", "lower", "throughput_rps on fib-sharded"),
    lm("engine.submit_ns_s4_t1", "ns", "lower", "throughput_rps on fib-sharded"),
    lm("engine.submit_ns_s4_t2", "ns", "lower", "throughput_rps on fib-sharded"),
    lm("engine.par_speedup", "ratio", "higher", "throughput_rps on fib-sharded"),
    lm("engine.skew_x1000", "count", "lower", "throughput_rps on fib-sharded (shard skew)"),
    lm(
        "trace.encode_ns",
        "ns",
        "lower",
        "ack_p50_us on both serve workloads (under the ingress lock)",
    ),
    lm("trace.decode_ns", "ns", "lower", "recover.resume_s on serve-durable"),
    lm("trace.bytes_per_req", "B", "lower", "recover.resume_s on serve-durable"),
    lm("wire.encode_ns", "ns", "lower", PIPE_RPS),
    lm("wire.decode_ns", "ns", "lower", PIPE_RPS),
    lm("wire.bytes_per_req", "B", "lower", PIPE_RPS),
    lm(
        "serve.lock_hold_ns_per_req",
        "ns",
        "lower",
        "throughput_rps and ack_p90_us on serve-pipelined",
    ),
    lm("serve.lock_hold_p99_us", "us", "lower", "throughput_rps and ack_p90_us on serve-pipelined"),
    lm("ingress.route_ns", "ns", "lower", "throughput_rps and ack_p90_us on serve-pipelined"),
    lm("ring.send_ns", "ns", "lower", PIPE_RPS),
    lm("ring.items_per_wakeup", "count", "higher", PIPE_RPS),
    lm("worker.run_batch_ns", "ns", "lower", PIPE_RPS),
    lm("serve.ring_wait_p50_us", "us", "lower", PIPE_RPS),
    lm("serve.ring_wait_p99_us", "us", "lower", PIPE_RPS),
    lm("serve.drain_p50_ns", "ns", "lower", PIPE_RPS),
    lm("client.send_us", "us", "lower", DURABLE_ACK),
    lm("client.wait_us", "us", "lower", DURABLE_ACK),
    lm("serve.flush_p50_us", "us", "lower", DURABLE_ACK),
    lm("serve.flush_p99_us", "us", "lower", DURABLE_ACK),
    lm("snapshot.write_ms", "ms", "lower", DURABLE_RECOVER),
    lm("snapshot.bytes", "B", "lower", DURABLE_RECOVER),
    lm("snapshot.parse_ms", "ms", "lower", DURABLE_RECOVER),
    lm("snapshot.restore_ms", "ms", "lower", DURABLE_RECOVER),
    lm("recover.tail_ns", "ns", "lower", DURABLE_RECOVER),
    lm("recover.tail_records", "count", "lower", DURABLE_RECOVER),
    lm("recover.snapshots_written", "count", "higher", DURABLE_RECOVER),
    lm("recover.resume_s", "s", "lower", "the recovery time users wait for on serve-durable"),
    lm("rebalance.boundaries", "count", "lower", "ack_p90_us on serve-durable"),
    lm("rebalance.migrations", "count", "lower", "ack_p90_us on serve-durable"),
    lm("rebalance.on_boundary_us", "us", "lower", "ack_p90_us on serve-durable"),
    lm(
        "waterfall.explained_frac",
        "ratio",
        "higher",
        "none: the share of 1e9/throughput_rps the layers explain",
    ),
    lm("waterfall.remainder_ns", "ns", "lower", "none: the per-request time no layer probe covers"),
    lm("tracing.overhead_frac", "ratio", "lower", "none: traced against untraced throughput_rps"),
];

/// The layer metric called `name`.
#[must_use]
pub fn layer_metric(name: &str) -> Option<&'static LayerMetric> {
    LAYER_METRICS.iter().find(|m| m.name == name)
}

/// Times repeated passes of one layer, each pass a span under one layer
/// span.
struct Prober<'a> {
    spans: &'a mut Spans,
    passes: usize,
}

impl Prober<'_> {
    /// Runs `pass` at least `self.passes` times; each pass does its own
    /// untimed preparation and returns the `(start, end)` of its timed
    /// part. Returns the median nanoseconds per item.
    fn probe(
        &mut self,
        name: &'static str,
        items: usize,
        mut pass: impl FnMut() -> (Instant, Instant),
    ) -> f64 {
        let layer = self.spans.open(name, 0);
        let mut per_item = Vec::with_capacity(self.passes);
        for _ in 0..self.passes {
            let (t0, t1) = pass();
            let id = self.spans.record(name, layer, t0, t1, items as u64);
            per_item.push(self.spans.get(id).nanos() as f64 / items.max(1) as f64);
        }
        self.spans.close(layer, (items * self.passes) as u64);
        median(&per_item)
    }
}

/// A workload's recorded request stream and the forest it addresses.
struct Recorded {
    forest: Forest,
    capacity: usize,
    reqs: Vec<Request>,
    local: Vec<Vec<Request>>,
    frame: usize,
}

impl Recorded {
    fn new(forest: Forest, capacity: usize, reqs: Vec<Request>, frame: usize) -> Self {
        let mut local = vec![Vec::new(); forest.num_shards()];
        for &r in &reqs {
            let (s, l) = forest.route_request(r);
            local[s.index()].push(l);
        }
        Self { forest, capacity, reqs, local, frame }
    }

    fn header(&self) -> TraceHeader {
        TraceHeader {
            universe: self.forest.global_len() as u32,
            shard_map: self.forest.trees().iter().map(|t| t.len() as u32).collect(),
            seed: 0,
            generator: "benchmark".to_string(),
        }
    }

    fn policies(&self) -> Vec<Box<dyn CachePolicy>> {
        let factory = factory(self.capacity);
        (0..self.forest.num_shards())
            .map(|s| factory(Arc::clone(self.forest.tree(ShardId(s as u32))), ShardId(s as u32)))
            .collect()
    }
}

/// The requests of an OTCT log (rebalance records skipped), at most `limit`.
fn decode_requests(bytes: &[u8], limit: usize) -> Vec<Request> {
    let mut out = Vec::new();
    let Ok(mut reader) = TraceReader::new(Cursor::new(bytes)) else {
        return out;
    };
    while out.len() < limit {
        match reader.next_event() {
            Ok(Some(TraceEvent::Request(r))) => out.push(r),
            Ok(Some(TraceEvent::Rebalance(_))) => {}
            Ok(None) | Err(_) => break,
        }
    }
    out
}

/// Every histogram series called `name` in the scrape, merged.
fn merged(snap: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let mut out = HistogramSnapshot::default();
    for record in snap.metrics.iter().filter(|r| r.name == name) {
        if let MetricValue::Histogram(h) = &record.value {
            out.merge(h);
        }
    }
    out
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.metrics
        .iter()
        .filter(|r| r.name == name)
        .map(|r| if let MetricValue::Counter(c) = r.value { c } else { 0 })
        .sum()
}

/// Per-layer results, keyed by metric name.
#[derive(Default)]
struct Ledger {
    values: Vec<(&'static str, f64)>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(layer_metric(name).is_some(), "{name} is not a listed layer metric");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
    }
}

fn probe_core(p: &mut Prober<'_>, rec: &Recorded, ledger: &mut Ledger) {
    let n = rec.reqs.len();
    let (mut paid, mut touched) = (0u64, 0u64);
    let step_ns = p.probe("core.step", n, || {
        let mut policies = rec.policies();
        let mut buf = ActionBuffer::new();
        let (mut pd, mut tc) = (0u64, 0u64);
        let t0 = Instant::now();
        for (policy, local) in policies.iter_mut().zip(&rec.local) {
            for &r in local {
                policy.step(r, &mut buf);
                pd += u64::from(buf.paid_service());
                tc += buf.nodes_touched() as u64;
            }
        }
        let t1 = Instant::now();
        (paid, touched) = (pd, tc);
        (t0, t1)
    });
    ledger.set("core.step_ns", step_ns);
    ledger.set("core.paid_frac", paid as f64 / n.max(1) as f64);
    ledger.set("core.touched_per_kreq", touched as f64 * 1000.0 / n.max(1) as f64);

    // Validation costs ~100x the bare driver, so it replays a prefix of
    // each shard's stream.
    for (name, metric, cfg, share) in [
        ("sim.driver", "sim.driver_ns", SimConfig::bare(ALPHA), 1),
        ("sim.validate", "sim.validate_ns", SimConfig::new(ALPHA), 32),
    ] {
        let prefixes: Vec<&[Request]> =
            rec.local.iter().map(|l| &l[..l.len().div_ceil(share)]).collect();
        let items = prefixes.iter().map(|l| l.len()).sum();
        let ns = p.probe(name, items, || {
            let mut policies = rec.policies();
            let t0 = Instant::now();
            for (s, (policy, local)) in policies.iter_mut().zip(&prefixes).enumerate() {
                let tree = rec.forest.tree(ShardId(s as u32));
                black_box(
                    run_stream(tree, policy.as_mut(), local, cfg, 4096).expect("valid stream"),
                );
            }
            (t0, Instant::now())
        });
        ledger.set(metric, ns);
    }
}

fn probe_engine(p: &mut Prober<'_>, rec: &Recorded, ledger: &mut Ledger) {
    let n = rec.reqs.len();
    let factory = factory(rec.capacity);
    const CHUNK: usize = 64 * 1024;
    let s1 = p.probe("engine.submit_s1", n, || {
        let mut engines: Vec<ShardedEngine<'static>> = rec
            .policies()
            .into_iter()
            .enumerate()
            .map(|(s, policy)| {
                ShardedEngine::single(
                    Arc::clone(rec.forest.tree(ShardId(s as u32))),
                    policy,
                    engine_cfg(),
                )
            })
            .collect();
        let t0 = Instant::now();
        for (engine, local) in engines.iter_mut().zip(&rec.local) {
            for chunk in local.chunks(CHUNK) {
                engine.submit_batch(chunk).expect("valid stream");
            }
        }
        (t0, Instant::now())
    });
    ledger.set("engine.submit_ns_s1", s1);
    let mut rounds: Vec<u64> = Vec::new();
    for (name, metric, threads) in [
        ("engine.submit_t1", "engine.submit_ns_s4_t1", 1),
        ("engine.submit_t2", "engine.submit_ns_s4_t2", 2),
    ] {
        let ns = p.probe(name, n, || {
            let mut engine =
                ShardedEngine::new(rec.forest.clone(), &factory, engine_cfg().threads(threads));
            let t0 = Instant::now();
            for chunk in rec.reqs.chunks(CHUNK) {
                engine.submit_batch(chunk).expect("valid stream");
            }
            let t1 = Instant::now();
            rounds =
                engine.into_reports().expect("valid stream").iter().map(|r| r.rounds).collect();
            (t0, t1)
        });
        ledger.set(metric, ns);
    }
    ledger.set(
        "engine.par_speedup",
        ledger.get("engine.submit_ns_s4_t1") / ledger.get("engine.submit_ns_s4_t2"),
    );
    let max = rounds.iter().copied().max().unwrap_or(0) as f64;
    let mean = rounds.iter().sum::<u64>() as f64 / rounds.len().max(1) as f64;
    ledger.set("engine.skew_x1000", 1000.0 * max / mean);
}

/// Times the FIB layers on `fib`; returns the median `run_fib_sharded`
/// call time in nanoseconds.
fn probe_fib(p: &mut Prober<'_>, fib: &FibInputs, rules: &RuleTree, ledger: &mut Ledger) -> f64 {
    let packets: Vec<u32> = fib
        .events
        .iter()
        .filter_map(|e| match e {
            FibEvent::Packet(addr) => Some(*addr),
            FibEvent::Update(_) => None,
        })
        .collect();
    let lmp = p.probe("trie.lmp", packets.len(), || {
        let t0 = Instant::now();
        for &addr in &packets {
            black_box(rules.lmp(addr));
        }
        (t0, Instant::now())
    });
    ledger.set("trie.lmp_ns", lmp);
    let forest = Forest::partition(rules.tree(), FIB_SHARDS);
    let route = p.probe("sdn.route_events", fib.events.len(), || {
        let t0 = Instant::now();
        black_box(route_events(rules, &forest, &fib.events));
        (t0, Instant::now())
    });
    ledger.set("sdn.route_ns", route);
    let factory = factory(FibInputs::capacity());
    let call = p.probe("sdn.run_fib_sharded", 1, || {
        let t0 = Instant::now();
        black_box(run_fib_sharded(rules, &factory, &fib.events, ALPHA, FIB_SHARDS, FIB_THREADS));
        (t0, Instant::now())
    });
    ledger.set("sdn.route_frac", route * fib.events.len() as f64 / call);
    call
}

/// Times the OTCT and OTCW codecs; returns the encoded OTCT log.
fn probe_codecs(p: &mut Prober<'_>, rec: &Recorded, ledger: &mut Ledger) -> Vec<u8> {
    let n = rec.reqs.len();
    let mut log = Vec::new();
    let enc = p.probe("trace.push", n, || {
        let mut w = TraceWriter::new(Cursor::new(Vec::with_capacity(n * 4)), rec.header())
            .expect("in-memory trace header");
        let t0 = Instant::now();
        for &r in &rec.reqs {
            w.push(r).expect("in-memory trace write");
        }
        let t1 = Instant::now();
        log = w.finish().expect("in-memory trace finish").into_inner();
        (t0, t1)
    });
    ledger.set("trace.encode_ns", enc);
    ledger.set("trace.bytes_per_req", log.len() as f64 / n.max(1) as f64);
    let dec = p.probe("trace.next_event", n, || {
        let mut r = TraceReader::new(Cursor::new(log.as_slice())).expect("valid header");
        let t0 = Instant::now();
        while let Some(ev) = r.next_event().expect("valid trace") {
            black_box(ev);
        }
        (t0, Instant::now())
    });
    ledger.set("trace.decode_ns", dec);

    let mut frames = Vec::with_capacity(n * 4);
    let wenc = p.probe("wire.encode_submit", n, || {
        frames.clear();
        let t0 = Instant::now();
        for frame in rec.reqs.chunks(rec.frame) {
            encode_submit(&mut frames, frame);
        }
        (t0, Instant::now())
    });
    ledger.set("wire.encode_ns", wenc);
    ledger.set("wire.bytes_per_req", frames.len() as f64 / n.max(1) as f64);
    let wdec = p.probe("wire.read_message", n, || {
        let mut src = Cursor::new(frames.as_slice());
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        while let Some(msg) = read_message(&mut src, &mut scratch).expect("valid frames") {
            black_box(msg);
        }
        (t0, Instant::now())
    });
    ledger.set("wire.decode_ns", wdec);
    log
}

fn probe_ingress(p: &mut Prober<'_>, rec: &Recorded, ledger: &mut Ledger) {
    let n = rec.reqs.len();
    let factory = factory(rec.capacity);
    let detach = || {
        ShardedEngine::new(rec.forest.clone(), &factory, engine_cfg())
            .into_workers()
            .expect("a fresh engine detaches")
    };
    let (router, _) = detach();
    let route = p.probe("ingress.route", n, || {
        let t0 = Instant::now();
        for &r in &rec.reqs {
            let _ = black_box(router.route(r));
        }
        (t0, Instant::now())
    });
    ledger.set("ingress.route_ns", route);

    // The serving ring carries (cell, request) pairs into a `recv_batch`
    // consumer that drains up to the default worker batch per wakeup.
    let (mut items, mut wakeups) = (0u64, 0u64);
    let queue = otc_serve::ServeConfig::default().queue_capacity;
    let batch = otc_serve::ServeConfig::default().worker_batch;
    let send = p.probe("ring.send", n, || {
        let (tx, rx) = ring::channel::<(u32, Request)>(queue);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let (mut got, mut wakes) = (0u64, 0u64);
                let mut out = Vec::with_capacity(batch);
                while let Ok(k) = rx.recv_batch(&mut out, batch) {
                    got += k as u64;
                    wakes += 1;
                    out.clear();
                }
                (got, wakes)
            });
            let t0 = Instant::now();
            for (i, &r) in rec.reqs.iter().enumerate() {
                tx.send((i as u32 & 3, r)).expect("consumer alive");
            }
            let t1 = Instant::now();
            drop(tx);
            (items, wakeups) = consumer.join().expect("consumer thread");
            (t0, t1)
        })
    });
    ledger.set("ring.send_ns", send);
    ledger.set("ring.items_per_wakeup", items as f64 / wakeups.max(1) as f64);

    let run = p.probe("worker.run_batch", n, || {
        let (_, mut workers) = detach();
        let t0 = Instant::now();
        for (worker, local) in workers.iter_mut().zip(&rec.local) {
            for chunk in local.chunks(batch) {
                worker.run_batch(chunk).expect("valid stream");
            }
        }
        (t0, Instant::now())
    });
    ledger.set("worker.run_batch_ns", run);
}

/// Times snapshot cuts at the serving cadence over the recorded stream,
/// then parse, restore and tail replay of the last cut.
fn probe_snapshots(p: &mut Prober<'_>, rec: &Recorded, log: &[u8], ledger: &mut Ledger) {
    let factory = factory(rec.capacity);
    let n = rec.reqs.len() as u64;
    let every = serve::SNAPSHOT_EVERY.min((n / 4).max(1));
    let mut writes = Vec::new();
    let mut snap = Vec::new();
    let mut last: Option<LogPosition> = None;
    {
        let mut engine = ShardedEngine::new(rec.forest.clone(), &factory, engine_cfg());
        let mut reader = TraceReader::new(Cursor::new(log)).expect("valid header");
        let mut chunk = Vec::with_capacity(every as usize);
        loop {
            chunk.clear();
            while (chunk.len() as u64) < every {
                match reader.next() {
                    Some(Ok(r)) => chunk.push(r),
                    _ => break,
                }
            }
            engine.submit_batch(&chunk).expect("valid stream");
            // Cut only while a whole cadence interval remains, so the
            // last cut leaves a tail of at least `every` records.
            if reader.records_read() + every > n {
                break;
            }
            let pos = LogPosition { offset: reader.byte_pos(), records: reader.records_read() };
            let (res, id) =
                p.spans.time("snapshot.write", 0, 1, || engine.write_snapshot(pos, &mut snap));
            res.expect("TcFast snapshots");
            writes.push(p.spans.get(id).nanos() as f64);
            last = Some(pos);
        }
    }
    let Some(pos) = last else {
        return;
    };
    ledger.set("snapshot.write_ms", median(&writes) / 1e6);
    ledger.set("snapshot.bytes", snap.len() as f64);
    ledger.set("recover.snapshots_written", writes.len() as f64);
    let parse = p.probe("snapshot.parse", 1, || {
        let t0 = Instant::now();
        black_box(EngineSnapshot::parse(&snap).expect("valid snapshot"));
        (t0, Instant::now())
    });
    ledger.set("snapshot.parse_ms", parse / 1e6);
    let parsed = EngineSnapshot::parse(&snap).expect("valid snapshot");
    let restore = p.probe("snapshot.restore", 1, || {
        let mut engine = ShardedEngine::new(rec.forest.clone(), &factory, engine_cfg());
        let t0 = Instant::now();
        engine.restore_snapshot(&parsed).expect("compatible snapshot");
        (t0, Instant::now())
    });
    ledger.set("snapshot.restore_ms", restore / 1e6);
    let tail = (n - pos.records) as usize;
    let tail_ns = p.probe("recover.replay_tail", tail, || {
        let mut engine = ShardedEngine::new(rec.forest.clone(), &factory, engine_cfg());
        engine.restore_snapshot(&parsed).expect("compatible snapshot");
        let mut reader = TraceReader::new(Cursor::new(log)).expect("valid header");
        reader.seek_to(pos.offset, pos.records).expect("in-memory seek");
        let mut chunk = Vec::with_capacity(64 * 1024);
        let t0 = Instant::now();
        black_box(engine.replay_tail(&mut reader, &mut chunk).expect("valid tail"));
        (t0, Instant::now())
    });
    ledger.set("recover.tail_ns", tail_ns);
    ledger.set("recover.tail_records", tail as f64);
    ledger.set("recover.resume_s", (parse + restore + tail_ns * tail as f64) / 1e9);
}

/// Drives the recorded stream through the engine with a rebalancer at
/// the serving cadence, timing each decision.
fn probe_rebalance(p: &mut Prober<'_>, rec: &Recorded, ledger: &mut Ledger) {
    let cells = rec.forest.num_shards();
    let groups = serve::DURABLE_GROUPS.min(cells as u32 / 2).max(1);
    let factory = factory(rec.capacity);
    let mut engine = ShardedEngine::new(rec.forest.clone(), &factory, engine_cfg());
    let interval = serve::REBALANCE_INTERVAL.min((rec.reqs.len() as u64 / 8).max(1));
    let mut reb = Rebalancer::new(
        rebalance_cfg(),
        initial_table(cells, groups).expect("groups never exceed cells"),
    );
    let mut times = Vec::new();
    let mut migrations = 0u64;
    for chunk in rec.reqs.chunks(interval as usize) {
        engine.submit_batch(chunk).expect("valid stream");
        if chunk.len() as u64 == interval {
            let loads = engine.cell_loads().expect("valid stream");
            let (record, id) =
                p.spans.time("rebalance.on_boundary", 0, 1, || reb.on_boundary(&loads));
            migrations += record.expect("boundary").moves.len() as u64;
            times.push(p.spans.get(id).nanos() as f64);
        }
    }
    ledger.set("rebalance.boundaries", times.len() as f64);
    ledger.set("rebalance.migrations", migrations as f64);
    ledger.set("rebalance.on_boundary_us", median(&times) / 1e3);
}

/// Reads the server's stage histograms and the client call spans of the
/// traced serving passes.
fn serve_stages(
    scrapes: &[MetricsSnapshot],
    rounds: &[ServeRound],
    spans: &mut Spans,
    ledger: &mut Ledger,
) {
    let mut snap = MetricsSnapshot::default();
    for s in scrapes {
        snap.metrics.extend(s.metrics.iter().cloned());
    }
    let hist = |name| merged(&snap, name);
    let lock = hist("otc_serve_lock_hold_nanos");
    let requests = counter(&snap, "otc_serve_requests_total");
    ledger.set("serve.lock_hold_ns_per_req", lock.sum as f64 / requests.max(1) as f64);
    let us = |v: Option<u64>| v.map_or(f64::NAN, |ns| ns as f64 / 1e3);
    ledger.set("serve.lock_hold_p99_us", us(lock.p99()));
    let ring_wait = hist("otc_serve_ring_wait_nanos");
    ledger.set("serve.ring_wait_p50_us", us(ring_wait.p50()));
    ledger.set("serve.ring_wait_p99_us", us(ring_wait.p99()));
    ledger.set(
        "serve.drain_p50_ns",
        hist("otc_serve_drain_nanos").p50().map_or(f64::NAN, |v| v as f64),
    );
    let flush = hist("otc_serve_flush_nanos");
    ledger.set("serve.flush_p50_us", us(flush.p50()));
    ledger.set("serve.flush_p99_us", us(flush.p99()));

    let root = spans.open("client", 0);
    let (mut sends, mut waits) = (Vec::new(), Vec::new());
    for round in rounds {
        for c in &round.clients {
            for &(t0, t1) in &c.sends {
                let id = spans.record("client.send", root, t0, t1, 1);
                sends.push(spans.get(id).nanos() as f64);
            }
            for &(t0, t1) in &c.waits {
                let id = spans.record("client.wait_acks", root, t0, t1, 1);
                waits.push(spans.get(id).nanos() as f64);
            }
        }
    }
    spans.close(root, (sends.len() + waits.len()) as u64);
    ledger.set("client.send_us", median(&sends) / 1e3);
    ledger.set("client.wait_us", median(&waits) / 1e3);
}

/// Outcome of the alternating untraced/traced serving passes.
struct Passes {
    untraced_rps: Vec<f64>,
    traced_rps: Vec<f64>,
    traced: Vec<ServeRound>,
    scrapes: Vec<MetricsSnapshot>,
    recorded: Option<Vec<u8>>,
}

/// Serves `inputs` in 5 × 2 alternating untraced/traced passes, checking
/// every pass, and tallies them into `out`.
fn serve_passes(
    workload: Workload,
    inputs: &ServeInputs,
    scale: &Scale,
    scratch: &Path,
    out: &mut RunOutput,
) -> Passes {
    let durable = workload == Workload::ServeDurable;
    let frame = if durable { serve::DURABLE_FRAME } else { serve::PIPELINED_FRAME };
    let per_client = serve::deal_frames(&inputs.stream, frame, serve::CLIENTS);
    let mut passes = Passes {
        untraced_rps: Vec::new(),
        traced_rps: Vec::new(),
        traced: Vec::new(),
        scrapes: Vec::new(),
        recorded: None,
    };
    for (i, metrics) in [false, true].repeat(5).into_iter().enumerate() {
        let (mut round, check, recorded) = if durable {
            let dir = scratch.join(format!("pass-{i}"));
            let (round, ev) =
                serve::durable_round(inputs, &per_client, scale.tail_frames, metrics, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            let check = ev.as_ref().map_or(Ok(()), crate::checks::durable);
            (round, check, ev.map(|e| e.log))
        } else {
            let (round, ev) = serve::pipelined_round(inputs, &per_client, metrics);
            let check = ev.as_ref().map_or(Ok(()), crate::checks::pipelined);
            (round, check, ev.map(|e| e.trace_bytes))
        };
        out.attempted += round.sent();
        out.failed += round.failed();
        for e in &round.errors {
            out.fail(0, format!("pass {i}: {e}"));
        }
        if let Err(why) = check {
            out.fail(round.sent() - round.failed(), format!("pass {i} check: {why}"));
        }
        if round.elapsed_s > 0.0 {
            if metrics { &mut passes.traced_rps } else { &mut passes.untraced_rps }
                .push(round.throughput());
        }
        if metrics {
            passes.scrapes.extend(round.clients.iter_mut().filter_map(|c| c.scrape.take()));
            passes.recorded = recorded;
            passes.traced.push(round);
        }
    }
    passes
}

/// The traced run of `workload`.
#[must_use]
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    scratch: &Path,
) -> RunOutput {
    let mut out = RunOutput::new(workload);
    let mut spans = Spans::new();
    let mut ledger = Ledger::default();
    let fib = inputs::fib(seed, scale);
    let (serve_inputs, frame) = match workload {
        Workload::ServePipelined => (inputs::pipelined(seed, scale), serve::PIPELINED_FRAME),
        Workload::ServeDurable => (inputs::durable(seed, scale), serve::DURABLE_FRAME),
        Workload::FibSharded => (fib.serve_inputs(), serve::PIPELINED_FRAME),
    };

    // End-to-end passes, untraced and traced, alternating.
    let (untraced_rps, traced_rps);
    let (rules, _) = crate::fib::timed_builds(&fib, 1);
    let passes = if workload == Workload::FibSharded {
        let expected =
            crate::checks::fib_expected(&rules, &fib.events, FIB_SHARDS, FibInputs::capacity());
        let (mut u, mut t) = (Vec::new(), Vec::new());
        for traced_pass in [false, true, false, true] {
            let crate::fib::Calls { spans: calls, totals, .. } =
                crate::fib::calls(&rules, &fib, Duration::from_secs_f64(seconds / 8.0));
            let events = (fib.events.len() * calls.len()) as u64;
            out.attempted += events;
            if let Err(why) = crate::checks::fib(&totals, &expected) {
                out.fail(events, why);
            }
            let rps: Vec<f64> = crate::fib::nanos(&calls)
                .iter()
                .map(|&ns| fib.events.len() as f64 * 1e9 / ns as f64)
                .collect();
            if traced_pass {
                let (first, last) = (calls[0].0, calls[calls.len() - 1].1);
                let root = spans.record("fib.pass", 0, first, last, events);
                for &(t0, t1) in &calls {
                    spans.record("run_fib_sharded", root, t0, t1, fib.events.len() as u64);
                }
                t.push(median(&rps));
            } else {
                u.push(median(&rps));
            }
        }
        (untraced_rps, traced_rps) = (median(&u), median(&t));
        // The FIB request stream served once more, for the serving layers.
        serve_passes(Workload::ServePipelined, &serve_inputs, scale, scratch, &mut out)
    } else {
        let p = serve_passes(workload, &serve_inputs, scale, scratch, &mut out);
        (untraced_rps, traced_rps) = (median(&p.untraced_rps), median(&p.traced_rps));
        p
    };
    serve_stages(&passes.scrapes, &passes.traced, &mut spans, &mut ledger);

    // The recorded stream every layer probe replays.
    let forest = serve_inputs.forest.build();
    let reqs = match &passes.recorded {
        Some(bytes) if workload != Workload::FibSharded => decode_requests(bytes, scale.probe_len),
        _ => serve_inputs.stream.iter().copied().take(scale.probe_len).collect(),
    };
    let rec = Recorded::new(forest, serve_inputs.capacity, reqs, frame);
    let mut prober = Prober { spans: &mut spans, passes: scale.probe_passes };
    probe_core(&mut prober, &rec, &mut ledger);
    probe_engine(&mut prober, &rec, &mut ledger);
    let call_ns = probe_fib(&mut prober, &fib, &rules, &mut ledger);
    let log = probe_codecs(&mut prober, &rec, &mut ledger);
    probe_ingress(&mut prober, &rec, &mut ledger);
    probe_snapshots(&mut prober, &rec, &log, &mut ledger);
    probe_rebalance(&mut prober, &rec, &mut ledger);

    // The durable service's own recovery, snapshot and rebalance counts.
    if workload == Workload::ServeDurable {
        let last = passes.traced.last();
        if let Some(r) = last.and_then(|r| r.resumed.as_ref()) {
            ledger.set("recover.tail_records", r.replayed as f64);
        }
        let resumes: Vec<f64> = passes.traced.iter().filter_map(|r| r.recover_s).collect();
        if !resumes.is_empty() {
            ledger.set("recover.resume_s", median(&resumes));
        }
        if let Some(r) = last {
            ledger.set("recover.snapshots_written", r.snapshots_written as f64);
            if let Some((boundaries, migrations)) = r.rebalance {
                ledger.set("rebalance.boundaries", boundaries as f64);
                ledger.set("rebalance.migrations", migrations as f64);
            }
        }
    }

    // The waterfall: critical-path layer ns per request against the
    // untraced per-request time.
    let per_req_ns = 1e9 / untraced_rps;
    let mut parts: Vec<(&str, f64)> = match workload {
        Workload::FibSharded => {
            let reqs_per_event = serve_inputs.stream.len() as f64 / fib.events.len() as f64;
            vec![
                ("sdn.route_ns (LMP + event routing, serial)", ledger.get("sdn.route_ns")),
                (
                    "engine.submit_ns_s4_t2 x requests/event",
                    ledger.get("engine.submit_ns_s4_t2") * reqs_per_event,
                ),
            ]
        }
        _ => vec![
            ("wire.encode_ns (client)", ledger.get("wire.encode_ns")),
            ("wire.decode_ns (connection thread)", ledger.get("wire.decode_ns")),
            ("ingress.route_ns", ledger.get("ingress.route_ns")),
            ("trace.encode_ns (log, under the lock)", ledger.get("trace.encode_ns")),
            ("ring.send_ns (enqueue, under the lock)", ledger.get("ring.send_ns")),
            ("worker.run_batch_ns (drain)", ledger.get("worker.run_batch_ns")),
        ],
    };
    if workload == Workload::ServeDurable {
        let served = passes.traced.last().map_or(0, ServeRound::sent).max(1) as f64;
        let cuts = ledger.get("recover.snapshots_written");
        let boundaries = ledger.get("rebalance.boundaries");
        parts.push((
            "snapshot.write_ms amortised",
            ledger.get("snapshot.write_ms") * 1e6 * cuts / served,
        ));
        parts.push((
            "rebalance.on_boundary_us amortised",
            ledger.get("rebalance.on_boundary_us") * 1e3 * boundaries / served,
        ));
    }
    let explained: f64 = parts.iter().map(|(_, ns)| ns).sum();
    ledger.set("waterfall.explained_frac", explained / per_req_ns);
    ledger.set("waterfall.remainder_ns", per_req_ns - explained);
    ledger.set("tracing.overhead_frac", 1.0 - traced_rps / untraced_rps);
    out.notes.push(format!(
        "waterfall of {:.1} ns/request (1e9 / {untraced_rps:.0} req/s untraced):",
        per_req_ns
    ));
    for (name, ns) in &parts {
        out.notes.push(format!("  {ns:>10.1} ns  {name}"));
    }
    let remainder = if workload == Workload::FibSharded {
        "partitioning, engine set-up, and the serial tail of the parallel drain"
    } else {
        "socket I/O and syscalls, thread wake-ups, ingress lock waiting and client-side waiting"
    };
    out.notes.push(format!("  {:>10.1} ns  remainder: {remainder}", per_req_ns - explained));
    if workload == Workload::FibSharded {
        out.notes.push(format!(
            "sdn.route_ns is {:.1}% of a {:.2} ms run_fib_sharded call (engine.skew_x1000 = {:.0}, \
             engine.par_speedup = {:.3})",
            100.0 * ledger.get("sdn.route_frac"),
            call_ns / 1e6,
            ledger.get("engine.skew_x1000"),
            ledger.get("engine.par_speedup"),
        ));
    } else {
        out.notes.push(
            "trie.lmp_ns and sdn.* are timed on the FIB table of the same seed: this workload \
             never calls those layers"
                .to_string(),
        );
    }

    for m in LAYER_METRICS {
        out.metrics.push(Metric::new(m.name, m.unit, ledger.get(m.name)));
    }
    let path = out_dir().join(format!("spans-{}-seed{seed}.tsv", workload.name()));
    match spans.write_tsv(&path) {
        Ok(()) => {
            out.notes.push(format!("{} spans written to {}", spans.all().len(), path.display()));
        }
        Err(e) => out.notes.push(format!("spans not written to {}: {e}", path.display())),
    }
    out
}
