//! Property test: the sharded FIB pipeline gives the same per-shard
//! reports, total and telemetry timeline at every engine thread count.
//!
//! `run_fib_sharded_cfg` cuts the event stream into one routing chunk per
//! thread and hands shards to threads as tickets; neither the cut nor the
//! drain order may reach the results. Telemetry runs with a small window,
//! so window boundaries inside a shard (and inside a routing chunk's
//! stretch of a shard's stream) are covered too. The edges are swept on
//! purpose: no events, one event, fewer events than threads, and shards
//! that receive no events.

use std::sync::Arc;

use otc_baselines::DependentSetPolicy;
use otc_core::forest::{Forest, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_sdn::{
    generate_events, route_events, run_fib_routed, run_fib_sharded_cfg, FibEvent, FibReport,
    FibWorkloadConfig,
};
use otc_sim::engine::EngineConfig;
use otc_trie::{hierarchical_table, HierarchicalConfig, RuleTree};
use otc_util::SplitMix64;
use proptest::prelude::*;

const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];
const THREADS: [usize; 5] = [1, 2, 3, 8, 16];

fn world(seed: u64, n_rules: usize, events: usize, update_p: f64) -> (RuleTree, Vec<FibEvent>) {
    let mut rng = SplitMix64::new(seed);
    let rules = RuleTree::build(&hierarchical_table(
        HierarchicalConfig { n: n_rules, subdivide_p: 0.7, max_len: 28 },
        &mut rng,
    ));
    let events = generate_events(
        &rules,
        FibWorkloadConfig { events, theta: 1.0, update_p, addr_attempts: 16 },
        &mut rng,
    );
    (rules, events)
}

fn policy(tree: Arc<Tree>, alpha: u64, capacity: usize, lru: bool) -> Box<dyn CachePolicy> {
    if lru {
        Box::new(DependentSetPolicy::lru(tree, capacity))
    } else {
        Box::new(TcFast::new(tree, TcConfig::new(alpha, capacity)))
    }
}

/// Runs every shard count at every thread count and checks each run
/// against the same shard count at one thread.
fn check_thread_independence(
    rules: &RuleTree,
    events: &[FibEvent],
    alpha: u64,
    capacity: usize,
    lru: bool,
    window: usize,
) -> Result<(), TestCaseError> {
    let factory = |tree: Arc<Tree>, _shard: ShardId| policy(tree, alpha, capacity, lru);
    let cfg = EngineConfig::bare(alpha).audit_every(window).telemetry(true);
    for shards in SHARDS {
        let serial = run_fib_sharded_cfg(rules, &factory, events, cfg.threads(1), shards);
        prop_assert_eq!(serial.total.packets + serial.total.updates, events.len() as u64);
        for threads in &THREADS[1..] {
            let run = run_fib_sharded_cfg(rules, &factory, events, cfg.threads(*threads), shards);
            let at = format!("{shards} shards, {threads} threads, {} events", events.len());
            prop_assert_eq!(&run.per_shard, &serial.per_shard, "per_shard at {}", at);
            prop_assert_eq!(&run.total, &serial.total, "total at {}", at);
            prop_assert_eq!(&run.timeline, &serial.timeline, "timeline at {}", at);
        }
    }
    Ok(())
}

/// Event counts biased toward the edges: half the cases draw 0 or 1
/// event, or fewer than the largest thread count; the rest draw up to
/// 1500.
fn event_count(kind: u8, raw: usize) -> usize {
    match kind {
        0 => raw % 2,
        1 => raw % THREADS[THREADS.len() - 1],
        _ => raw % 1500,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn results_do_not_depend_on_thread_count(
        seed in any::<u64>(),
        n_rules in 1usize..160,
        (kind, raw) in (0u8..4, any::<usize>()),
        update_pct in 0u32..30,
        alpha in 1u64..5,
        capacity in 1usize..12,
        lru in any::<bool>(),
        window in 1usize..40,
    ) {
        let update_p = f64::from(update_pct) / 100.0;
        let (rules, events) = world(seed, n_rules, event_count(kind, raw), update_p);
        check_thread_independence(&rules, &events, alpha, capacity, lru, window)?;
    }
}

#[test]
fn edge_streams_do_not_depend_on_thread_count() {
    let (rules, events) = world(17, 96, 40, 0.1);
    // One hot address: every packet lands on one rule, so at 8 shards at
    // least one shard receives no events at all.
    let hot = events
        .iter()
        .find_map(|&e| match e {
            FibEvent::Packet(addr) => Some(addr),
            FibEvent::Update(_) => None,
        })
        .expect("the stream has a packet");
    let one_rule = vec![FibEvent::Packet(hot); 40];
    let forest = Forest::partition(rules.tree(), 8);
    let routed = route_events(&rules, &forest, &one_rule);
    assert!(routed.iter().any(Vec::is_empty), "some shard must receive no events");
    for n in [0, 1, 2, 3, 7, 15, 40] {
        check_thread_independence(&rules, &events[..n], 3, 4, false, 2).unwrap();
        check_thread_independence(&rules, &one_rule[..n], 3, 4, false, 2).unwrap();
    }
}

#[test]
fn multi_threaded_run_matches_sum_of_per_subtrie_runs() {
    // The acceptance differential of `tests/fib_pipeline.rs`, at a thread
    // count that cuts the stream into three routing chunks and hands four
    // shards out to three workers.
    let (rules, events) = world(23, 512, 6000, 0.05);
    let (alpha, capacity, shards) = (4u64, 24usize, 4usize);
    let factory = |tree: Arc<Tree>, _shard: ShardId| policy(tree, alpha, capacity, false);
    let cfg = EngineConfig::bare(alpha).threads(3);
    let sharded = run_fib_sharded_cfg(&rules, &factory, &events, cfg, shards);

    let forest = Forest::partition(rules.tree(), shards);
    let mut sum = FibReport { name: sharded.total.name.clone(), ..FibReport::default() };
    for (s, shard_events) in route_events(&rules, &forest, &events).iter().enumerate() {
        let sid = ShardId(s as u32);
        let mut solo_policy = factory(Arc::clone(forest.tree(sid)), sid);
        let solo = run_fib_routed(forest.tree(sid), solo_policy.as_mut(), shard_events, alpha);
        assert_eq!(sharded.per_shard[s], solo, "shard {s}");
        sum.add(&solo);
    }
    assert_eq!(sharded.total, sum);
    assert_eq!(sharded.total.packets + sharded.total.updates, events.len() as u64);
}
