//! Pins the deterministic total costs of the fixed FIB workload
//! ([`otc_bench::fib_baseline`]): the classic single-threaded `run_fib`
//! pipeline and the sharded pipeline at 1, 2, 4 and 8 shards, plus the
//! bytes/node figures `DESIGN.md` quotes for its tree. The stream is a pure
//! function of its seed, so any drift here is a change to the cost
//! accounting, never noise.

use std::sync::Arc;

use otc_bench::fib_baseline::{self, ALPHA, SHARD_COUNTS, TOTAL_CAPACITY};
use otc_core::forest::ShardId;
use otc_core::policy::CachePolicy;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_sdn::{run_fib, run_fib_sharded};

#[test]
fn fib_baseline_total_costs_are_pinned() {
    let (rules, events) = fib_baseline::build();

    let mut tc = TcFast::new(Arc::new(rules.tree().clone()), TcConfig::new(ALPHA, TOTAL_CAPACITY));
    assert_eq!(run_fib(&rules, &mut tc, &events, ALPHA).total_cost(), 167_524, "run_fib");

    let expected = [167_524, 167_415, 167_192, 160_715];
    for (shards, want) in SHARD_COUNTS.into_iter().zip(expected) {
        let capacity = (TOTAL_CAPACITY / shards).max(1);
        let factory = move |tree: Arc<Tree>, _s: ShardId| {
            Box::new(TcFast::new(tree, TcConfig::new(ALPHA, capacity))) as Box<dyn CachePolicy>
        };
        let sharded = run_fib_sharded(&rules, &factory, &events, ALPHA, shards, shards);
        assert_eq!(sharded.total.total_cost(), want, "run_fib_sharded at {shards} shards");
    }
}

#[test]
fn fib_baseline_bytes_per_node_match_the_design_table() {
    let (rules, _) = fib_baseline::build();
    let tree = Arc::new(rules.tree().clone());
    let tc = TcFast::new(Arc::clone(&tree), TcConfig::new(ALPHA, TOTAL_CAPACITY));
    let per_node = |bytes: usize| format!("{:.1}", bytes as f64 / tree.len() as f64);
    assert_eq!(tree.len(), 4097);
    assert_eq!(per_node(tree.heap_bytes()), "28.0", "Tree::heap_bytes per node");
    assert_eq!(per_node(tc.state_heap_bytes()), "40.1", "TcFast::state_heap_bytes per node");
}
