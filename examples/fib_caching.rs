//! FIB caching end to end (the paper's Section 2 application): a router
//! with a small TCAM, an SDN controller with the full table, Zipf packet
//! traffic and BGP-style update churn.
//!
//! ```text
//! cargo run --release --example fib_caching
//! ```

use std::sync::Arc;

use online_tree_caching::baselines::{DependentSetPolicy, InvalidateOnUpdate};
use online_tree_caching::core::policy::CachePolicy;
use online_tree_caching::core::tc::{TcConfig, TcFast};
use online_tree_caching::sdn::{generate_events, run_fib, FibWorkloadConfig};
use online_tree_caching::trie::{hierarchical_table, HierarchicalConfig, RuleTree};
use online_tree_caching::util::SplitMix64;

fn main() {
    let mut rng = SplitMix64::new(2026);

    // A synthetic routing table with real dependency chains (rules nested
    // inside rules), standing in for a BGP snapshot.
    let rules = RuleTree::build(&hierarchical_table(
        HierarchicalConfig { n: 2048, subdivide_p: 0.7, max_len: 28 },
        &mut rng,
    ));
    let tree = Arc::new(rules.tree().clone());
    println!(
        "routing table: {} rules, dependency height {}, max fan-out {}",
        rules.len(),
        tree.height(),
        tree.max_degree()
    );

    // Traffic: 100k events, Zipf-popular destinations, 2% update churn.
    let events = generate_events(
        &rules,
        FibWorkloadConfig { events: 100_000, theta: 1.0, update_p: 0.02, addr_attempts: 24 },
        &mut rng,
    );

    // A TCAM that holds 1/16 of the table; α = 4 (update ≈ 4 misses).
    let capacity = rules.len() / 16;
    let alpha = 4;
    println!("router TCAM capacity: {capacity} rules, α = {alpha}\n");

    let mut policies: Vec<Box<dyn CachePolicy>> = vec![
        Box::new(TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, capacity))),
        Box::new(DependentSetPolicy::lru(Arc::clone(&tree), capacity)),
        Box::new(InvalidateOnUpdate::new(Arc::clone(&tree), capacity)),
    ];
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>12}",
        "policy", "miss rate", "service", "reorg", "total"
    );
    for policy in &mut policies {
        let report = run_fib(&rules, policy.as_mut(), &events, alpha);
        println!(
            "{:<24} {:>9.2}% {:>12} {:>12} {:>12}",
            report.name,
            100.0 * report.miss_rate(),
            report.service_cost,
            report.reorg_cost,
            report.total_cost()
        );
    }
    println!(
        "\nTC's rent-or-buy counters avoid both failure modes: eager fetching of\n\
         rarely-reused dependent sets (LRU's reorg bill) and paying α for every\n\
         update to a cached rule (LRU's service bill under churn).\n"
    );

    // Scaling out: the sharded pipeline splits the trie at the default
    // route into independent subtrie shards — one TC and one slice of the
    // TCAM each — and drives them in parallel (one thread per shard).
    use online_tree_caching::core::forest::ShardId;
    use online_tree_caching::core::Tree;
    use online_tree_caching::sdn::run_fib_sharded;
    println!("sharded pipeline (total TCAM capacity {capacity} split across shards):");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>12}",
        "shards", "miss rate", "service", "reorg", "total"
    );
    for shards in [1usize, 2, 4, 8] {
        let per_shard_capacity = (capacity / shards).max(1);
        let factory = move |shard_tree: Arc<Tree>, _shard: ShardId| {
            Box::new(TcFast::new(shard_tree, TcConfig::new(alpha, per_shard_capacity)))
                as Box<dyn CachePolicy>
        };
        let sharded = run_fib_sharded(&rules, &factory, &events, alpha, shards, shards);
        println!(
            "{:<8} {:>9.2}% {:>12} {:>12} {:>12}",
            sharded.per_shard.len(),
            100.0 * sharded.total.miss_rate(),
            sharded.total.service_cost,
            sharded.total.reorg_cost,
            sharded.total.total_cost()
        );
    }
    println!(
        "\nEach shard is verified independently and deterministically (thread count\n\
         never changes a number); throughput is measured by the fib-sharded\n\
         workload of the repository benchmark (benchmark/README.md)."
    );
}
