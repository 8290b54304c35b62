//! Measured competitive ratios against exact OPT, swept in parallel over
//! seeds and tree shapes — a small-scale replica of experiment E1.
//!
//! ```text
//! cargo run --release --example competitive_sweep
//! ```

use std::sync::Arc;

use online_tree_caching::baselines::opt_cost;
use online_tree_caching::core::tc::{TcConfig, TcFast};
use online_tree_caching::core::Tree;
use online_tree_caching::sim::engine::EngineConfig;
use online_tree_caching::sim::run_policy;
use online_tree_caching::util::{parallel_map, SplitMix64};
use online_tree_caching::workloads::uniform_mixed;

fn main() {
    let shapes: Vec<(&str, Arc<Tree>)> = vec![
        ("star(8)", Arc::new(Tree::star(8))),
        ("kary(2,3)", Arc::new(Tree::kary(2, 3))),
        ("path(9)", Arc::new(Tree::path(9))),
    ];
    let alpha = 2u64;
    let k = 4usize;
    println!("α = {alpha}, kONL = kOPT = {k}, exact OPT via subforest DP\n");
    println!(
        "{:<12} {:>4} {:>4} {:>12} {:>12} {:>12}",
        "tree", "n", "h", "mean TC/OPT", "max TC/OPT", "bound h·R"
    );

    for (name, tree) in shapes {
        // 32 independent workloads, evaluated on all cores.
        let seeds: Vec<u64> = (0..32).collect();
        let ratios = parallel_map(seeds, |&seed| {
            let mut rng = SplitMix64::new(0xC0FFEE + seed);
            let reqs = uniform_mixed(&tree, 500, 0.35, &mut rng);
            // TC's cost measured through the engine (single borrowed
            // shard, full verification — a sweep cell is cheap enough).
            let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, k));
            let tc_cost = run_policy(&tree, &mut tc, &reqs, EngineConfig::new(alpha))
                .expect("TC never violates the protocol")
                .total();
            tc_cost as f64 / opt_cost(&tree, &reqs, alpha, k) as f64
        });
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().copied().fold(0.0f64, f64::max);
        let bound = f64::from(tree.height()); // R = 1 here (kONL = kOPT) times h
        println!(
            "{name:<12} {:>4} {:>4} {mean:>12.3} {max:>12.3} {bound:>12.1}",
            tree.len(),
            tree.height()
        );
    }
    println!(
        "\nTheorem 5.15 bounds TC/OPT by O(h·R) — a constant times the last column\n\
         (the rent-or-buy constant is ≥ 2: even on a single node TC pays ~2α per\n\
         fetch-evict cycle where OPT pays ~α). Measured ratios track the envelope:\n\
         flat-ish in h on easy inputs, never above a small multiple of h·R."
    );
}
