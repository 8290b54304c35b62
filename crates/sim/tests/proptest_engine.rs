//! Differential property tests for the sharded engine.
//!
//! * A 1-shard [`ShardedEngine`] is **bit-identical** to the classic
//!   `run_policy` / `run_stream` drivers on arbitrary instances — costs,
//!   flush counts, instrumentation, everything in the [`Report`].
//! * A multi-shard engine over a forest of independent trees equals the
//!   per-shard independent runs exactly, shard by shard, for any thread
//!   count.

use std::sync::Arc;

use otc_core::forest::{Forest, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::{NodeId, Tree};
use otc_core::{Request, Sign};
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{run_policy, run_stream};
use proptest::prelude::*;

fn tree_from_seeds(seeds: &[u64]) -> Tree {
    let mut parents: Vec<Option<usize>> = vec![None];
    for (i, &s) in seeds.iter().enumerate() {
        parents.push(Some((s % (i as u64 + 1)) as usize));
    }
    Tree::from_parents(&parents)
}

fn requests_for(len_hint: &[(u64, bool)], n: usize) -> Vec<Request> {
    len_hint
        .iter()
        .map(|&(s, pos)| Request {
            node: NodeId((s % n as u64) as u32),
            sign: if pos { Sign::Positive } else { Sign::Negative },
        })
        .collect()
}

fn tc_factory(alpha: u64, capacity: usize) -> impl Fn(Arc<Tree>, ShardId) -> Box<dyn CachePolicy> {
    move |tree, _| Box::new(TcFast::new(tree, TcConfig::new(alpha, capacity)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn one_shard_engine_is_bit_identical_to_legacy_drivers(
        tree_seeds in prop::collection::vec(any::<u64>(), 0..24),
        req_seeds in prop::collection::vec((any::<u64>(), any::<bool>()), 1..600),
        alpha in 1u64..5,
        capacity in 1usize..8,
        chunk in 1usize..300,
    ) {
        let tree = Arc::new(tree_from_seeds(&tree_seeds));
        let reqs = requests_for(&req_seeds, tree.len());

        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, capacity));
        let legacy = run_policy(&tree, &mut tc, &reqs, EngineConfig::new(alpha))
            .map_err(TestCaseError::fail)?;

        let factory = tc_factory(alpha, capacity);
        let mut engine = ShardedEngine::new(
            Forest::single(Arc::clone(&tree)),
            &factory,
            EngineConfig::new(alpha),
        );
        engine.submit_batch(&reqs).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let report = engine.into_report().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&report, &legacy, "engine vs run_policy");

        // The chunked/audited cadence against run_stream.
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, capacity));
        let streamed = run_stream(&tree, &mut tc, &reqs, EngineConfig::new(alpha), chunk)
            .map_err(TestCaseError::fail)?;
        let mut engine = ShardedEngine::new(
            Forest::single(Arc::clone(&tree)),
            &factory,
            EngineConfig::new(alpha).audit_every(chunk),
        );
        engine.submit_batch(&reqs).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let report = engine.into_report().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&report, &streamed, "engine vs run_stream");
    }

    #[test]
    fn multi_shard_engine_equals_independent_per_shard_runs(
        shard_seeds in prop::collection::vec(
            prop::collection::vec(any::<u64>(), 0..12), 2..5),
        req_seeds in prop::collection::vec((any::<u64>(), any::<bool>()), 1..600),
        alpha in 1u64..4,
        capacity in 1usize..6,
        threads in 1usize..5,
    ) {
        let trees: Vec<Arc<Tree>> =
            shard_seeds.iter().map(|s| Arc::new(tree_from_seeds(s))).collect();
        let forest = Forest::from_trees(trees.clone());
        let reqs = requests_for(&req_seeds, forest.global_len());

        let factory = tc_factory(alpha, capacity);
        let mut engine = ShardedEngine::new(
            forest.clone(),
            &factory,
            EngineConfig::new(alpha).threads(threads),
        );
        engine.submit_batch(&reqs).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let per_shard = engine.into_reports().map_err(|e| TestCaseError::fail(e.to_string()))?;

        for (s, tree) in trees.iter().enumerate() {
            let local: Vec<Request> = reqs
                .iter()
                .filter_map(|&r| {
                    let (sid, lr) = forest.route_request(r);
                    (sid.index() == s).then_some(lr)
                })
                .collect();
            let mut tc = TcFast::new(Arc::clone(tree), TcConfig::new(alpha, capacity));
            let solo = run_policy(tree, &mut tc, &local, EngineConfig::new(alpha))
                .map_err(TestCaseError::fail)?;
            prop_assert_eq!(&per_shard[s], &solo, "shard {} differs", s);
        }
    }
}
