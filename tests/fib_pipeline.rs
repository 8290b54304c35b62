//! Integration test: the full FIB pipeline across crates — synthetic
//! table (otc-trie) → dependency tree (otc-core) → workload (otc-sdn) →
//! policies (otc-core + otc-baselines) → verified simulation (otc-sim).

use std::sync::Arc;

use online_tree_caching::baselines::{BypassAll, DependentSetPolicy, InvalidateOnUpdate};
use online_tree_caching::core::policy::CachePolicy;
use online_tree_caching::core::tc::{TcConfig, TcFast};
use online_tree_caching::sdn::{
    forwarding_violations, generate_events, run_fib, to_request_stream, FibEvent, FibWorkloadConfig,
};
use online_tree_caching::sim::{run_policy, EngineConfig};
use online_tree_caching::trie::{hierarchical_table, HierarchicalConfig, RuleTree};
use online_tree_caching::util::SplitMix64;

fn build_world(seed: u64, n_rules: usize, update_p: f64) -> (RuleTree, Vec<FibEvent>) {
    let mut rng = SplitMix64::new(seed);
    let rules = RuleTree::build(&hierarchical_table(
        HierarchicalConfig { n: n_rules, subdivide_p: 0.7, max_len: 28 },
        &mut rng,
    ));
    let events = generate_events(
        &rules,
        FibWorkloadConfig { events: 20_000, theta: 1.0, update_p, addr_attempts: 16 },
        &mut rng,
    );
    (rules, events)
}

#[test]
fn event_conservation() {
    let (rules, events) = build_world(1, 512, 0.05);
    let tree = Arc::new(rules.tree().clone());
    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(4, 64));
    let report = run_fib(&rules, &mut tc, &events, 4);
    let packets = events.iter().filter(|e| matches!(e, FibEvent::Packet(_))).count() as u64;
    let updates = events.iter().filter(|e| matches!(e, FibEvent::Update(_))).count() as u64;
    assert_eq!(report.packets, packets);
    assert_eq!(report.updates, updates);
    assert_eq!(report.hits + report.misses, packets, "every packet is a hit or a miss");
    assert!(report.miss_rate() > 0.0 && report.miss_rate() <= 1.0);
}

#[test]
fn request_stream_equals_live_run_for_tc() {
    // Feeding the translated request stream through the verified simulator
    // must reproduce exactly the costs of the live FIB run.
    let (rules, events) = build_world(2, 512, 0.05);
    let tree = Arc::new(rules.tree().clone());
    let alpha = 4u64;

    let mut tc_live = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 64));
    let live = run_fib(&rules, &mut tc_live, &events, alpha);

    let (reqs, chunks) = to_request_stream(&rules, &events, alpha);
    let mut tc_sim = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 64));
    let sim = run_policy(&tree, &mut tc_sim, &reqs, EngineConfig::new(alpha)).expect("valid");

    assert_eq!(live.total_cost(), sim.total());
    assert_eq!(live.service_cost, sim.cost.service);
    assert!(!chunks.is_empty(), "churny workload produced update chunks");
}

#[test]
fn forwarding_is_always_correct_for_every_policy() {
    let (rules, events) = build_world(3, 256, 0.1);
    let tree = Arc::new(rules.tree().clone());
    let mut rng = SplitMix64::new(99);
    let probes: Vec<u32> = (0..256).map(|_| rng.next_u64() as u32).collect();
    let mut policies: Vec<Box<dyn CachePolicy>> = vec![
        Box::new(TcFast::new(Arc::clone(&tree), TcConfig::new(4, 48))),
        Box::new(DependentSetPolicy::lru(Arc::clone(&tree), 48)),
        Box::new(DependentSetPolicy::fifo(Arc::clone(&tree), 48)),
        Box::new(InvalidateOnUpdate::new(Arc::clone(&tree), 48)),
        Box::new(BypassAll::new(&tree, 48)),
    ];
    for policy in &mut policies {
        for chunk in events.chunks(500) {
            run_fib(&rules, policy.as_mut(), chunk, 4);
            assert_eq!(
                forwarding_violations(&rules, policy.cache(), &probes),
                0,
                "policy {} broke forwarding correctness",
                policy.name()
            );
        }
    }
}

#[test]
fn tc_wins_under_heavy_churn() {
    let (rules, events) = build_world(4, 1024, 0.15);
    let tree = Arc::new(rules.tree().clone());
    let alpha = 8u64;
    let k = 96;
    let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, k));
    let mut lru = DependentSetPolicy::lru(Arc::clone(&tree), k);
    let tc_cost = run_fib(&rules, &mut tc, &events, alpha).total_cost();
    let lru_cost = run_fib(&rules, &mut lru, &events, alpha).total_cost();
    assert!(
        tc_cost < lru_cost,
        "under 15% churn TC ({tc_cost}) must beat dependent-set LRU ({lru_cost})"
    );
}

#[test]
fn sharded_pipeline_matches_sum_of_per_subtrie_runs() {
    // The multi-shard FIB pipeline must equal the component-wise sum of
    // independently-run per-subtrie single-shard runs — the acceptance
    // differential for the sharded engine, at realistic scale.
    use online_tree_caching::core::forest::{Forest, ShardId};
    use online_tree_caching::core::Tree;
    use online_tree_caching::sdn::{route_events, run_fib_routed, run_fib_sharded, FibReport};

    let (rules, events) = build_world(6, 1024, 0.05);
    let alpha = 4u64;
    let total_capacity = 128usize;
    for shards in [2usize, 4, 8] {
        let capacity = (total_capacity / shards).max(1);
        let factory = move |shard_tree: Arc<Tree>, _shard: ShardId| {
            Box::new(TcFast::new(shard_tree, TcConfig::new(alpha, capacity)))
                as Box<dyn CachePolicy>
        };
        let sharded = run_fib_sharded(&rules, &factory, &events, alpha, shards, shards);

        let forest = Forest::partition(rules.tree(), shards);
        assert_eq!(sharded.per_shard.len(), forest.num_shards());
        let per_shard_events = route_events(&rules, &forest, &events);
        let mut sum = FibReport { name: sharded.total.name.clone(), ..FibReport::default() };
        for (s, shard_events) in per_shard_events.iter().enumerate() {
            let sid = ShardId(s as u32);
            let mut policy = factory(Arc::clone(forest.tree(sid)), sid);
            let solo = run_fib_routed(forest.tree(sid), policy.as_mut(), shard_events, alpha);
            assert_eq!(sharded.per_shard[s], solo, "shard {s} of {shards}");
            sum.add(&solo);
        }
        assert_eq!(sharded.total, sum, "{shards}-shard total");
        // And the sharded run processed every event exactly once.
        let packets = events.iter().filter(|e| matches!(e, FibEvent::Packet(_))).count() as u64;
        assert_eq!(sharded.total.packets, packets);
        assert_eq!(sharded.total.hits + sharded.total.misses, packets);
    }
}

#[test]
fn all_policies_respect_capacity_through_simulator() {
    let (rules, events) = build_world(5, 256, 0.08);
    let tree = Arc::new(rules.tree().clone());
    let alpha = 2u64;
    let (reqs, _) = to_request_stream(&rules, &events, alpha);
    let mk: Vec<Box<dyn CachePolicy>> = vec![
        Box::new(TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 32))),
        Box::new(DependentSetPolicy::lru(Arc::clone(&tree), 32)),
        Box::new(DependentSetPolicy::fifo(Arc::clone(&tree), 32)),
        Box::new(DependentSetPolicy::random(Arc::clone(&tree), 32, 7)),
        Box::new(InvalidateOnUpdate::new(Arc::clone(&tree), 32)),
    ];
    for mut policy in mk {
        let report = run_policy(&tree, policy.as_mut(), &reqs, EngineConfig::new(alpha))
            .unwrap_or_else(|e| panic!("{} violated the protocol: {e}", policy.name()));
        assert!(report.peak_cache <= 32, "{} exceeded capacity", policy.name());
    }
}
