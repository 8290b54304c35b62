//! Counting-allocator harness: proves the buffered step pipeline performs
//! **zero heap allocations per non-flush round** in steady state, and that
//! the verified drivers (`run_policy` / `run_stream`) allocate O(1) per
//! run — not per round — without instrumentation.
//!
//! The global allocator is wrapped in a counter; each assertion warms a
//! policy/driver up to its high-water mark, snapshots the counter, replays
//! a long request stream, and checks the counter did not move (or moved by
//! a small run-constant only).
//!
//! The target is harness-free (`harness = false`): `main` runs the checks
//! one after another on its own thread. Under libtest the counter also saw
//! the harness's allocations for spawning and reporting other tests, even
//! with every test serialized behind one mutex, so on a multi-core host
//! the exact-zero checks failed at random. Cargo's extra arguments (test
//! filters, `--test-threads`) are ignored.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use otc_baselines::{DependentSetPolicy, InvalidateOnUpdate};
use otc_core::forest::{Forest, ShardId};
use otc_core::policy::{ActionBuffer, CachePolicy};
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_core::Request;
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{run_policy, run_stream};
use otc_util::SplitMix64;
use otc_workloads::{random_attachment, uniform_mixed};

/// A [`System`] wrapper that counts allocation calls (reallocs included —
/// a growing `Vec` shows up here).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates everything to `System`; the counter is a relaxed
// atomic side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A workload whose rounds include fetches and evictions but no flushes
/// (capacity = |T|, so no overflow is possible).
fn flushless_workload(seed: u64, n: usize, len: usize) -> (Arc<Tree>, Vec<Request>) {
    let mut rng = SplitMix64::new(seed);
    let tree = Arc::new(random_attachment(n, &mut rng));
    let reqs = uniform_mixed(&tree, len, 0.4, &mut rng);
    (tree, reqs)
}

fn tc_fast_steady_state_steps_do_not_allocate() {
    let (tree, reqs) = flushless_workload(0xA110C, 2048, 60_000);
    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(4, tree.len()));
    let mut buf = ActionBuffer::new();
    // Warm-up: replay the whole stream once so every buffer reaches the
    // workload's exact high-water mark, then reset the policy (scratch
    // capacity survives reset) and replay the identical stream.
    for &r in &reqs {
        tc.step(r, &mut buf);
    }
    tc.reset();
    let before = allocs();
    for &r in &reqs {
        tc.step(r, &mut buf);
    }
    assert_eq!(
        allocs() - before,
        0,
        "TcFast::step allocated in steady state over 60k non-flush rounds"
    );
}

fn tc_fast_flush_rounds_do_not_allocate_after_warmup() {
    // Tiny capacity forces frequent flushes; the flush path writes into
    // the same arena, so even flush rounds are allocation-free once the
    // buffer has grown.
    let (tree, reqs) = flushless_workload(0xF1005, 512, 40_000);
    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(2, 16));
    let mut buf = ActionBuffer::new();
    for &r in &reqs {
        tc.step(r, &mut buf);
    }
    assert!(tc.stats().phases_restarted > 0, "workload must actually flush");
    tc.reset();
    let before = allocs();
    for &r in &reqs {
        tc.step(r, &mut buf);
    }
    assert_eq!(allocs() - before, 0, "flush rounds allocated after warm-up");
}

fn baseline_policies_steady_state_steps_do_not_allocate() {
    let (tree, reqs) = flushless_workload(0xBA5E, 1024, 40_000);
    let mut lru = DependentSetPolicy::lru(Arc::clone(&tree), 64);
    let mut inval = InvalidateOnUpdate::new(Arc::clone(&tree), 64);
    for policy in [&mut lru as &mut dyn CachePolicy, &mut inval] {
        let mut buf = ActionBuffer::new();
        for &r in &reqs {
            policy.step(r, &mut buf);
        }
        policy.reset();
        let before = allocs();
        for &r in &reqs {
            policy.step(r, &mut buf);
        }
        assert_eq!(allocs() - before, 0, "{} allocated in steady state", policy.name());
    }
}

fn bare_drivers_allocate_per_run_not_per_round() {
    // The whole verified pipeline in bare mode: one Report (name string),
    // the driver's mirrors/scratch, and buffer growth — a small constant
    // regardless of stream length. 50k rounds, budget far below one
    // allocation per hundred rounds.
    let (tree, reqs) = flushless_workload(0xD01, 1024, 50_000);
    let budget = 50u64;

    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(4, 128));
    let before = allocs();
    run_policy(&tree, &mut tc, &reqs, EngineConfig::bare(4)).expect("valid");
    let used = allocs() - before;
    assert!(used <= budget, "run_policy (bare) allocated {used} times for 50k rounds");

    // run_stream: debug builds add one O(|T|) audit per chunk — still a
    // per-chunk constant, never per-round. Measure in chunks of 8192.
    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(4, 128));
    let before = allocs();
    run_stream(&tree, &mut tc, &reqs, EngineConfig::bare(4), 8192).expect("valid");
    let used = allocs() - before;
    let chunks = reqs.len().div_ceil(8192) as u64;
    let audit_budget = if cfg!(debug_assertions) { chunks * 16 } else { 0 };
    assert!(
        used <= budget + audit_budget,
        "run_stream (bare) allocated {used} times for 50k rounds ({chunks} chunks)"
    );
}

/// A 4-shard forest of flushless universes plus a globally-addressed
/// mixed stream for it.
fn sharded_workload(seed: u64, per_shard_n: usize, len: usize) -> (Forest, Vec<Request>) {
    let mut rng = SplitMix64::new(seed);
    let trees = (0..4)
        .map(|_| std::sync::Arc::new(random_attachment(per_shard_n, &mut rng)))
        .collect::<Vec<_>>();
    let forest = Forest::from_trees(trees);
    let reqs: Vec<Request> = (0..len)
        .map(|_| {
            let v = otc_core::tree::NodeId(rng.index(forest.global_len()) as u32);
            if rng.chance(0.4) {
                Request::neg(v)
            } else {
                Request::pos(v)
            }
        })
        .collect();
    (forest, reqs)
}

/// Per-shard TC sized to its whole tree (no flushes possible).
fn flushless_factory(alpha: u64) -> impl Fn(std::sync::Arc<Tree>, ShardId) -> Box<dyn CachePolicy> {
    move |tree, _| {
        let capacity = tree.len();
        Box::new(TcFast::new(tree, TcConfig::new(alpha, capacity)))
    }
}

fn sharded_engine_steady_state_rounds_do_not_allocate_per_shard() {
    // The PR-2 contract, per shard: once every shard's buffers (action
    // buffer, validation scratch, staging queue) reach their high-water
    // mark, a steady-state batch performs zero heap allocations — across
    // routing, queueing, and every round of every shard.
    let (forest, reqs) = sharded_workload(0x5AA5, 512, 40_000);
    let factory = flushless_factory(4);
    let mut engine = ShardedEngine::new(forest, &factory, EngineConfig::bare(4).threads(1));
    // Two warm-up batches: the first grows the engine's own buffers to the
    // workload's high-water mark; the second lets the policies' internal
    // spans (whose sizes depend on the evolving cache state, not the
    // stream) reach theirs.
    engine.submit_batch(&reqs).expect("valid");
    engine.submit_batch(&reqs).expect("valid");
    let before = allocs();
    engine.submit_batch(&reqs).expect("valid");
    assert_eq!(
        allocs() - before,
        0,
        "4-shard engine allocated in steady state over 40k rounds (10k/shard)"
    );
}

fn sharded_engine_allocates_o_shards_per_run() {
    // A full engine lifecycle — construction, one parallel batch, report
    // aggregation — allocates O(shards), never O(rounds). The budget is a
    // per-shard constant (policy + driver + queue growth) plus a flat
    // allowance for the scoped worker threads of the parallel drain.
    let (forest, reqs) = sharded_workload(0x5AB7, 512, 40_000);
    let shards = forest.num_shards() as u64;
    let factory = flushless_factory(4);
    let before = allocs();
    let mut engine = ShardedEngine::new(forest, &factory, EngineConfig::bare(4).threads(4));
    engine.submit_batch(&reqs).expect("valid");
    let report = engine.into_report().expect("valid");
    let used = allocs() - before;
    assert!(report.rounds == 40_000);
    let budget = 200 * shards + 100;
    assert!(used <= budget, "sharded run allocated {used} times for 40k rounds (budget {budget})");
}

fn trace_replay_steady_state_rounds_do_not_allocate() {
    // The replay path of the trace subsystem: once the replay chunk
    // buffer, the shard queues and the policies' internal spans are warm,
    // streaming a binary trace through the engine allocates only the
    // per-replay constants (the reader's BufReader + header strings),
    // never per round — the same contract as the in-memory pipeline.
    use otc_workloads::trace::{Trace, TraceHeader, TraceReader};
    use std::io::Cursor;

    let (forest, reqs) = sharded_workload(0x7E9A, 512, 40_000);
    let trace = Trace {
        header: TraceHeader {
            universe: forest.global_len() as u32,
            shard_map: (0..4).map(|s| forest.tree(ShardId(s)).len() as u32).collect(),
            seed: 0x7E9A,
            generator: "uniform-mixed".to_string(),
        },
        requests: reqs,
    };
    let bytes = trace.to_bytes();
    let factory = flushless_factory(4);
    let mut engine = ShardedEngine::new(forest, &factory, EngineConfig::bare(4).threads(1));
    let mut chunk: Vec<Request> = Vec::with_capacity(8 * 1024);
    // Two warm-up replays (chunk buffer, queues, then policy spans).
    for _ in 0..2 {
        let mut reader = TraceReader::new(Cursor::new(bytes.as_slice())).expect("valid");
        engine.replay_trace(&mut reader, &mut chunk).expect("valid");
    }
    let before = allocs();
    let mut reader = TraceReader::new(Cursor::new(bytes.as_slice())).expect("valid");
    engine.replay_trace(&mut reader, &mut chunk).expect("valid");
    let used = allocs() - before;
    // Reader construction allocates a run-constant (BufReader buffer,
    // shard map, generator string) — budget well below one allocation per
    // thousand rounds, and nothing grows with trace length.
    assert!(used <= 12, "steady-state replay allocated {used} times for 40k rounds");
}

fn snapshot_emission_keeps_the_request_path_allocation_free() {
    // The PR-6 durability contract: emitting OTCS snapshots between
    // batches must not disturb the zero-allocation steady state of the
    // request path. Rounds stay at exactly zero allocations; each
    // snapshot itself may allocate only a small per-shard constant
    // (policy blobs, section scratch) — never anything per round.
    use otc_sim::snapshot::LogPosition;

    let (forest, reqs) = sharded_workload(0x5AC5, 512, 40_000);
    let shards = forest.num_shards() as u64;
    let factory = flushless_factory(4);
    let mut engine = ShardedEngine::new(forest, &factory, EngineConfig::bare(4).threads(1));
    let mut snap: Vec<u8> = Vec::new();
    let pos = |records: u64| LogPosition { offset: 64 + 2 * records, records };

    // Warm-up passes at the measured cadence: the first grows the
    // engine's buffers and the snapshot arena, the rest let the
    // policies' internal spans (which track the evolving cache state)
    // reach their high-water mark.
    for _ in 0..3 {
        let mut records = 0u64;
        for chunk in reqs.chunks(4096) {
            engine.submit_batch(chunk).expect("valid");
            records += chunk.len() as u64;
            engine.write_snapshot(pos(records), &mut snap).expect("snapshot");
        }
    }

    let mut round_allocs = 0u64;
    let mut snap_allocs = 0u64;
    let mut snapshots = 0u64;
    let mut records = 0u64;
    for chunk in reqs.chunks(4096) {
        let before = allocs();
        engine.submit_batch(chunk).expect("valid");
        round_allocs += allocs() - before;
        records += chunk.len() as u64;
        let before = allocs();
        engine.write_snapshot(pos(records), &mut snap).expect("snapshot");
        snap_allocs += allocs() - before;
        snapshots += 1;
    }
    assert_eq!(
        round_allocs, 0,
        "interleaved snapshots broke the zero-allocation request path over 40k rounds"
    );
    // Per-snapshot budget: a warmed output buffer never regrows, so all
    // that remains is the per-shard section scratch — O(shards) per
    // snapshot, independent of how many rounds each snapshot covers.
    let budget = snapshots * (16 * shards + 16);
    assert!(
        snap_allocs <= budget,
        "{snapshots} snapshots allocated {snap_allocs} times (budget {budget})"
    );
}

fn arena_snapshot_sections_allocate_o1_per_section() {
    // The arena snapshot contract: `save_state` writes every SoA counter
    // section (`cnt`/`slack`/`psize`/hot-values) as one length-prefixed
    // flat slice straight into the output buffer — zero allocations once
    // the buffer holds `state_len` bytes. `restore_state` builds one slab
    // per section: a small per-section constant, never O(rounds) and
    // never growing with how much history the policy has seen.
    let (tree, reqs) = flushless_workload(0x5EC7, 2048, 30_000);
    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(4, tree.len()));
    let mut buf = ActionBuffer::new();
    for &r in &reqs {
        tc.step(r, &mut buf);
    }

    let mut blob = Vec::new();
    tc.save_state(&mut blob).expect("snapshots");
    assert_eq!(blob.len(), TcFast::state_len(tree.len()));
    let before = allocs();
    for _ in 0..32 {
        blob.clear();
        tc.save_state(&mut blob).expect("snapshots");
    }
    assert_eq!(allocs() - before, 0, "warmed save_state allocated (sections must stream)");

    // Restores: each of the 32 round-trips may allocate only the
    // per-section constant (one slab per u64 section, the cache bitmap,
    // the stats tail) — budget 32 allocations per restore, no growth term.
    let mut fresh = TcFast::new(Arc::clone(&tree), TcConfig::new(4, tree.len()));
    fresh.restore_state(&blob).expect("valid blob");
    let before = allocs();
    for _ in 0..32 {
        fresh.restore_state(&blob).expect("valid blob");
    }
    let used = allocs() - before;
    assert!(used <= 32 * 32, "32 restores allocated {used} times (O(1) per section violated)");
}

fn recover_of_arena_engine_does_not_grow_allocations() {
    // Crash-recovery on the arena core: once a recovered engine's buffers
    // are warm, another full `recover` (snapshot restore + tail replay of
    // 10k rounds) allocates only the run constants — reader, per-section
    // slabs per shard — independent of replay length. A per-round or
    // per-recover growth term fails the budget immediately.
    use otc_sim::snapshot::{EngineSnapshot, LogPosition};
    use otc_workloads::trace::{Trace, TraceHeader, TraceReader};
    use std::io::Cursor;

    let mut rng = SplitMix64::new(0x2EC0);
    let trees =
        (0..4).map(|_| std::sync::Arc::new(random_attachment(512, &mut rng))).collect::<Vec<_>>();
    let mk_forest = || Forest::from_trees(trees.clone());
    let forest = mk_forest();
    let reqs: Vec<Request> = (0..20_000)
        .map(|_| {
            let v = otc_core::tree::NodeId(rng.index(forest.global_len()) as u32);
            if rng.chance(0.4) {
                Request::neg(v)
            } else {
                Request::pos(v)
            }
        })
        .collect();
    let trace = Trace {
        header: TraceHeader {
            universe: forest.global_len() as u32,
            shard_map: (0..4).map(|s| forest.tree(ShardId(s)).len() as u32).collect(),
            seed: 0x2EC0,
            generator: "uniform-mixed".to_string(),
        },
        requests: reqs.clone(),
    };
    let bytes = trace.to_bytes();

    // Live run to the half-way cut, snapshotted there.
    let cut = reqs.len() / 2;
    let mut pre = TraceReader::new(Cursor::new(bytes.as_slice())).expect("valid");
    for _ in 0..cut {
        pre.next().expect("has record").expect("valid");
    }
    let log = LogPosition { offset: pre.byte_pos(), records: pre.records_read() };
    let factory = flushless_factory(4);
    let cfg = EngineConfig::bare(4).threads(1);
    let mut live = ShardedEngine::new(forest, &factory, cfg);
    live.submit_batch(&reqs[..cut]).expect("valid");
    let mut snap_bytes = Vec::new();
    live.write_snapshot(log, &mut snap_bytes).expect("snapshot");
    let snap = EngineSnapshot::parse(&snap_bytes).expect("valid");

    // Recover repeatedly into the same engine: warm-ups grow every buffer
    // to its high-water mark, then one more full recover is measured.
    let shards = 4u64;
    let mut rec = ShardedEngine::new(mk_forest(), &factory, cfg);
    let mut chunk: Vec<Request> = Vec::with_capacity(8 * 1024);
    for _ in 0..2 {
        let mut reader = TraceReader::new(Cursor::new(bytes.as_slice())).expect("valid");
        let stats = rec.recover(&snap, &mut reader, &mut chunk).expect("recovers");
        assert_eq!(stats.replayed as usize, reqs.len() - cut);
        assert!(!stats.torn_tail);
    }
    let before = allocs();
    let mut reader = TraceReader::new(Cursor::new(bytes.as_slice())).expect("valid");
    rec.recover(&snap, &mut reader, &mut chunk).expect("recovers");
    let used = allocs() - before;
    // Budget: reader constants + O(sections) per shard for the policy
    // restore. 10k replayed rounds contribute nothing.
    let budget = 48 * shards + 32;
    assert!(used <= budget, "warm recover allocated {used} times (budget {budget}, no growth)");
}

fn obs_histogram_and_counter_records_do_not_allocate() {
    // The invariant-#8 performance half: once a series is registered,
    // the serving hot path's recording sites (`Histogram::record`,
    // `Counter::inc/add`, `Gauge::set`) are pure atomic RMWs — zero heap
    // allocations per sample, at any value magnitude, forever. Snapshots
    // and JSON allocate; steady-state recording must not.
    let registry = otc_obs::Registry::new();
    let hist = registry.histogram("otc_bench_record_nanos", &[("cell", "0007")]);
    let counter = registry.counter("otc_bench_records_total", &[]);
    let gauge = registry.gauge("otc_bench_depth", &[]);
    let mut rng = SplitMix64::new(0x0B5);
    let before = allocs();
    for i in 0..100_000u64 {
        hist.record(rng.next_u64() >> (i % 64));
        counter.inc();
        gauge.set(i);
    }
    counter.add(7);
    assert_eq!(allocs() - before, 0, "metric recording allocated in steady state");
    let snap = hist.snapshot();
    assert_eq!(snap.count, 100_000);
}

fn validated_driver_allocates_per_run_not_per_round() {
    // Every check the driver runs (in-place flush comparison,
    // epoch-marked changeset scratch, per-batch mirror compare) is
    // allocation-free per round, flush rounds included; instrumentation is
    // off to keep the field-size log out of the picture.
    let (tree, reqs) = flushless_workload(0x7A11, 512, 30_000);
    let cfg = EngineConfig::bare(2);
    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(2, 24));
    let before = allocs();
    let report = run_policy(&tree, &mut tc, &reqs, cfg).expect("valid");
    let used = allocs() - before;
    assert!(report.flush_events > 0, "workload must exercise the flush-validation path");
    assert!(used <= 50, "validated run_policy allocated {used} times for 30k rounds");
}

fn main() {
    macro_rules! named {
        ($($check:ident),* $(,)?) => { [$((stringify!($check), $check as fn())),*] };
    }
    let checks = named![
        tc_fast_steady_state_steps_do_not_allocate,
        tc_fast_flush_rounds_do_not_allocate_after_warmup,
        baseline_policies_steady_state_steps_do_not_allocate,
        bare_drivers_allocate_per_run_not_per_round,
        sharded_engine_steady_state_rounds_do_not_allocate_per_shard,
        sharded_engine_allocates_o_shards_per_run,
        trace_replay_steady_state_rounds_do_not_allocate,
        snapshot_emission_keeps_the_request_path_allocation_free,
        arena_snapshot_sections_allocate_o1_per_section,
        recover_of_arena_engine_does_not_grow_allocations,
        obs_histogram_and_counter_records_do_not_allocate,
        validated_driver_allocates_per_run_not_per_round,
    ];
    // libtest's line format, so the checks read like any other suite's.
    println!("\nrunning {} tests", checks.len());
    for (name, check) in checks {
        check();
        println!("test {name} ... ok");
    }
    println!("\ntest result: ok. {} passed; 0 failed\n", checks.len());
}
