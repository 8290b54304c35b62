//! Trace replay and windowed telemetry, pinned end to end:
//!
//! * a trace recorded from any generator and replayed through
//!   [`ShardedEngine::replay_trace`] produces a **bit-identical** report
//!   to the in-memory run that generated it (the acceptance criterion of
//!   the trace subsystem);
//! * a [`Timeline`]'s windows are exact: they partition the rounds,
//!   their counters sum to the aggregate [`Report`], and every window
//!   except a trailing partial spans exactly `audit_every` rounds.

use std::io::Cursor;
use std::sync::Arc;

use otc_core::forest::{Forest, RoutingTable, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_core::Request;
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{replay_trace_rebalancing, RebalanceConfig, Rebalancer, Report};
use otc_util::SplitMix64;
use otc_workloads::trace::{Trace, TraceHeader, TraceReader};
use otc_workloads::{
    markov_bursty, multi_tenant_stream, random_attachment, MarkovBurstyConfig, TenantProfile,
};

fn tc_factory(alpha: u64, capacity: usize) -> impl Fn(Arc<Tree>, ShardId) -> Box<dyn CachePolicy> {
    move |tree, _| Box::new(TcFast::new(tree, TcConfig::new(alpha, capacity)))
}

fn run_in_memory(forest: &Forest, reqs: &[Request], cfg: EngineConfig) -> Report {
    let factory = tc_factory(cfg.alpha, 24);
    let mut engine = ShardedEngine::new(forest.clone(), &factory, cfg);
    engine.submit_batch(reqs).expect("valid");
    engine.into_report().expect("valid")
}

fn replay(forest: &Forest, trace_bytes: &[u8], cfg: EngineConfig, chunk_cap: usize) -> Report {
    let factory = tc_factory(cfg.alpha, 24);
    let mut engine = ShardedEngine::new(forest.clone(), &factory, cfg);
    let mut reader = TraceReader::new(Cursor::new(trace_bytes)).expect("valid header");
    let mut chunk = Vec::with_capacity(chunk_cap);
    engine.replay_trace(&mut reader, &mut chunk).expect("valid replay");
    engine.into_report().expect("valid")
}

#[test]
fn recorded_markov_trace_replays_bit_identically() {
    let mut rng = SplitMix64::new(0x7EAC);
    let tree = Arc::new(random_attachment(400, &mut rng));
    let cfg = MarkovBurstyConfig { len: 30_000, alpha: 3, ..MarkovBurstyConfig::default() };
    let reqs = markov_bursty(&tree, cfg, &mut rng);
    let trace = Trace {
        header: TraceHeader::single_tree(tree.len(), 0x7EAC, "markov-bursty"),
        requests: reqs.clone(),
    };
    let bytes = trace.to_bytes();

    let forest = Forest::single(Arc::clone(&tree));
    let engine_cfg = EngineConfig::new(3);
    let base = run_in_memory(&forest, &reqs, engine_cfg);
    // Chunk sizes that divide, straddle, and exceed the stream.
    for chunk_cap in [64usize, 1000, 30_000, 1 << 20] {
        let replayed = replay(&forest, &bytes, engine_cfg, chunk_cap);
        assert_eq!(replayed, base, "replay must be bit-identical (chunk {chunk_cap})");
    }
}

#[test]
fn recorded_multi_tenant_trace_replays_across_shards_and_threads() {
    let mut rng = SplitMix64::new(0x3EAD);
    let tree = random_attachment(600, &mut rng);
    let forest = Forest::partition(&tree, 4);
    let profiles = [
        TenantProfile { weight: 5.0, theta: 1.2, update_p: 0.02 },
        TenantProfile { weight: 2.0, theta: 0.7, update_p: 0.0 },
        TenantProfile { weight: 1.0, theta: 0.0, update_p: 0.1 },
        TenantProfile { weight: 1.0, theta: 1.0, update_p: 0.0 },
    ];
    let reqs = multi_tenant_stream(&forest, &profiles, 40_000, 3, &mut rng);
    let trace = Trace {
        header: TraceHeader {
            universe: forest.global_len() as u32,
            shard_map: (0..forest.num_shards())
                .map(|s| forest.tree(ShardId(s as u32)).len() as u32)
                .collect(),
            seed: 0x3EAD,
            generator: "multi-tenant".to_string(),
        },
        requests: reqs.clone(),
    };
    let bytes = trace.to_bytes();

    for threads in [1usize, 4] {
        let cfg = EngineConfig::new(3).threads(threads).audit_every(512);
        let base = run_in_memory(&forest, &reqs, cfg);
        let replayed = replay(&forest, &bytes, cfg, 4096);
        assert_eq!(replayed, base, "sharded replay must be bit-identical ({threads} threads)");
    }
}

#[test]
fn replay_rejects_universe_mismatch() {
    // A trace declaring 99 nodes whose one record falls inside the 9-node
    // star: every replay entry point must refuse it up front, and leave
    // the engine live.
    let tree = Arc::new(Tree::star(8));
    let trace = Trace {
        header: TraceHeader::single_tree(99, 0, "wrong-universe"),
        requests: vec![Request::pos(otc_core::tree::NodeId(1))],
    };
    let bytes = trace.to_bytes();
    let factory = tc_factory(2, 4);
    let mut engine =
        ShardedEngine::new(Forest::single(Arc::clone(&tree)), &factory, EngineConfig::new(2));
    let reader = || TraceReader::new(Cursor::new(bytes.as_slice())).expect("valid header");
    let errors = [
        engine.replay_trace(&mut reader(), &mut Vec::new()).unwrap_err(),
        engine.replay_tail(&mut reader(), &mut Vec::new()).unwrap_err(),
        // One cell, one group.
        replay_trace_rebalancing(
            &mut engine,
            &mut reader(),
            &mut Rebalancer::new(RebalanceConfig::new(100), RoutingTable::new(vec![0], 1).unwrap()),
            &mut Vec::new(),
        )
        .unwrap_err(),
    ];
    for err in errors {
        assert!(err.message.contains("universe"), "unexpected error: {err}");
    }
    // The engine is not poisoned by a rejected replay.
    engine.submit(Request::pos(otc_core::tree::NodeId(1))).expect("still live");
}

#[test]
fn replay_reports_corruption_with_record_position() {
    let tree = Arc::new(Tree::star(8));
    let trace = Trace {
        header: TraceHeader::single_tree(tree.len(), 0, "truncated"),
        requests: vec![Request::pos(otc_core::tree::NodeId(1)); 100],
    };
    let bytes = trace.to_bytes();
    let factory = tc_factory(2, 4);
    let mut engine =
        ShardedEngine::new(Forest::single(Arc::clone(&tree)), &factory, EngineConfig::new(2));
    let mut reader =
        TraceReader::new(Cursor::new(&bytes[..bytes.len() - 10])).expect("header is intact");
    let err = engine.replay_trace(&mut reader, &mut Vec::new()).unwrap_err();
    assert!(err.message.contains("truncated"), "unexpected error: {err}");
}

#[test]
fn timeline_windows_partition_the_run_exactly() {
    let mut rng = SplitMix64::new(0x71ED);
    let tree = random_attachment(300, &mut rng);
    let forest = Forest::partition(&tree, 3);
    let profiles = [
        TenantProfile::skewed(1.1),
        TenantProfile::skewed(0.5),
        TenantProfile { weight: 1.0, theta: 0.9, update_p: 0.05 },
    ];
    let reqs = multi_tenant_stream(&forest, &profiles, 25_000, 2, &mut rng);

    let window = 1024usize;
    let factory = tc_factory(2, 16);
    let mut engine = ShardedEngine::new(
        forest.clone(),
        &factory,
        EngineConfig::new(2).audit_every(window).telemetry(true),
    );
    // Split across several batches: window cadence must not care.
    for batch in reqs.chunks(3000) {
        engine.submit_batch(batch).expect("valid");
    }
    let timeline = engine.timeline();
    let reports = engine.into_reports().expect("valid");

    assert_eq!(timeline.alpha, 2);
    assert_eq!(timeline.window_rounds, window as u64);
    assert_eq!(timeline.shards, 3);
    assert!(!timeline.windows.is_empty());

    for (s, report) in reports.iter().enumerate() {
        let shard = s as u32;
        let windows: Vec<_> = timeline.shard_windows(shard).collect();
        // Windows are consecutive, start at round 0, and partition the
        // shard's rounds: every complete window spans exactly
        // `audit_every` rounds, and only the last may be partial.
        let mut expected_start = 0u64;
        for (i, w) in windows.iter().enumerate() {
            assert_eq!(w.window, i as u64, "shard {s} window indices are consecutive");
            assert_eq!(w.start_round, expected_start, "shard {s} windows are gapless");
            if i + 1 < windows.len() {
                assert!(!w.partial, "only the last window may be partial");
                assert_eq!(w.rounds, window as u64, "complete windows span audit_every rounds");
            }
            assert!(w.rounds > 0, "no empty windows");
            expected_start += w.rounds;
        }
        assert_eq!(expected_start, report.rounds, "shard {s} windows cover every round");
        // Counters sum to the aggregate report exactly.
        let sum = |f: &dyn Fn(&otc_sim::WindowRecord) -> u64| -> u64 {
            windows.iter().map(|w| f(w)).sum()
        };
        assert_eq!(sum(&|w| w.paid_rounds), report.paid_rounds);
        assert_eq!(sum(&|w| w.fetch_events), report.fetch_events);
        assert_eq!(sum(&|w| w.evict_events), report.evict_events);
        assert_eq!(sum(&|w| w.flush_events), report.flush_events);
        assert_eq!(sum(&|w| w.nodes_fetched), report.nodes_fetched);
        assert_eq!(sum(&|w| w.nodes_flushed), report.nodes_flushed);
        assert_eq!(
            sum(&|w| w.nodes_evicted + w.nodes_flushed),
            report.nodes_evicted,
            "window eviction breakdown must reassemble the aggregate"
        );
        assert_eq!(
            windows.iter().map(|w| w.reorg_cost(2)).sum::<u64>(),
            report.cost.reorg,
            "window cost breakdown must reassemble the reorganisation cost"
        );
        assert_eq!(sum(&|w| w.paid_rounds), report.cost.service, "service cost = paid rounds");
        // Occupancy and buffer high-water are physically plausible.
        for w in &windows {
            assert!(w.occupancy <= 16, "occupancy beyond capacity");
            assert!(w.buf_high_water as u64 <= w.nodes_fetched + w.nodes_evicted + w.nodes_flushed);
        }
    }
}

#[test]
fn timeline_is_identical_for_batch_and_per_request_submission() {
    let mut rng = SplitMix64::new(0x71EE);
    let tree = Arc::new(random_attachment(120, &mut rng));
    let reqs: Vec<Request> = (0..8000)
        .map(|_| {
            let v = otc_core::tree::NodeId(rng.index(tree.len()) as u32);
            if rng.chance(0.4) {
                Request::neg(v)
            } else {
                Request::pos(v)
            }
        })
        .collect();
    let cfg = EngineConfig::new(2).audit_every(300).telemetry(true);
    let factory = tc_factory(2, 12);

    let mut batched = ShardedEngine::new(Forest::single(Arc::clone(&tree)), &factory, cfg);
    batched.submit_batch(&reqs).expect("valid");
    let tl_batched = batched.timeline();

    // submit() drives the ShardHandle::step path — same boundaries.
    let mut stepped = ShardedEngine::new(Forest::single(Arc::clone(&tree)), &factory, cfg);
    for &r in &reqs {
        stepped.submit(r).expect("valid");
    }
    let tl_stepped = stepped.timeline();
    assert_eq!(tl_batched, tl_stepped, "window cadence must not depend on the submission path");
    assert_eq!(batched.into_report().expect("valid"), stepped.into_report().expect("valid"),);
}

#[test]
fn telemetry_off_yields_an_empty_timeline_and_identical_reports() {
    let mut rng = SplitMix64::new(0x71EF);
    let tree = Arc::new(random_attachment(200, &mut rng));
    let reqs: Vec<Request> = (0..10_000)
        .map(|_| Request::pos(otc_core::tree::NodeId(rng.index(tree.len()) as u32)))
        .collect();
    let factory = tc_factory(2, 10);

    let plain_cfg = EngineConfig::new(2).audit_every(512);
    let mut plain = ShardedEngine::new(Forest::single(Arc::clone(&tree)), &factory, plain_cfg);
    plain.submit_batch(&reqs).expect("valid");
    assert!(plain.timeline().windows.is_empty(), "no telemetry without the knob");

    let mut observed =
        ShardedEngine::new(Forest::single(Arc::clone(&tree)), &factory, plain_cfg.telemetry(true));
    observed.submit_batch(&reqs).expect("valid");
    assert!(!observed.timeline().windows.is_empty());
    assert_eq!(
        plain.into_report().expect("valid"),
        observed.into_report().expect("valid"),
        "observing a run must never change it"
    );
}

#[test]
fn fib_churn_trace_replays_through_the_engine() {
    use otc_trie::{hierarchical_table, HierarchicalConfig, RuleTree};
    let mut rng = SplitMix64::new(5);
    let rules = RuleTree::build(&hierarchical_table(
        HierarchicalConfig { n: 300, subdivide_p: 0.7, max_len: 28 },
        &mut rng,
    ));
    let cfg =
        otc_workloads::FibChurnConfig { len: 20_000, ..otc_workloads::FibChurnConfig::default() };
    let trace = otc_workloads::fib_update_trace(&rules, cfg, 0xF1B);
    let bytes = trace.to_bytes();
    let tree = Arc::new(rules.tree().clone());
    let forest = Forest::single(tree);
    let engine_cfg = EngineConfig::new(4);
    let base = run_in_memory(&forest, &trace.requests, engine_cfg);
    let replayed = replay(&forest, &bytes, engine_cfg, 2048);
    assert_eq!(replayed, base, "fib-churn traces replay bit-identically");
}
