//! The Ω(R) lower-bound adversary (paper, Appendix C) live: paging on the
//! leaves of a star, always requesting what TC lacks.
//!
//! ```text
//! cargo run --release --example lower_bound_adversary
//! ```

use std::io::Cursor;
use std::sync::Arc;

use online_tree_caching::baselines::offline_star_upper_bound;
use online_tree_caching::core::forest::{Forest, ShardId};
use online_tree_caching::core::policy::CachePolicy;
use online_tree_caching::core::tc::{TcConfig, TcFast};
use online_tree_caching::core::Tree;
use online_tree_caching::sim::engine::{EngineConfig, ShardedEngine};
use online_tree_caching::workloads::drive_paging_adversary;
use online_tree_caching::workloads::trace::TraceReader;

fn main() {
    let alpha = 4u64;
    println!("star leaves = kONL + 1; each page round = α = {alpha} requests\n");
    println!(
        "{:>6} {:>8} {:>10} {:>14} {:>12} {:>10}",
        "kONL", "rounds", "TC cost", "OPT (≤, LFD)", "ratio ≥", "ratio/k"
    );
    for k in [2usize, 4, 8, 16, 32, 64] {
        // The adversary needs one more page than TC can hold.
        let tree = Arc::new(Tree::star(k + 1));
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, k));
        let rounds = 50 * k;
        let run = drive_paging_adversary(&mut tc, &tree, alpha, rounds);
        // Certify the adversary's claimed online cost: encode the trace it
        // recorded as OTCT bytes and replay them through the verified
        // engine (the trace seam doubles as an archive format for
        // adversarial regressions).
        let bytes = run.to_trace(&tree).to_bytes();
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("a fresh encoding decodes");
        let factory = |shard_tree: Arc<Tree>, _shard: ShardId| {
            Box::new(TcFast::new(shard_tree, TcConfig::new(alpha, k))) as Box<dyn CachePolicy>
        };
        let mut engine = ShardedEngine::new(
            Forest::single(Arc::clone(&tree)),
            &factory,
            EngineConfig::new(alpha),
        );
        engine.replay_trace(&mut reader, &mut Vec::new()).expect("TC never violates the protocol");
        let tc_cost = engine.into_report().expect("valid run").total();
        assert_eq!(
            tc_cost,
            run.online_service + alpha * run.online_touched,
            "verified replay must reproduce the adversary's live accounting"
        );
        // Any feasible offline solution upper-bounds OPT, so the printed
        // ratio is a certified lower bound on TC/OPT.
        let opt_ub = offline_star_upper_bound(&run.trace, alpha, k);
        let ratio = tc_cost as f64 / opt_ub as f64;
        println!(
            "{k:>6} {rounds:>8} {tc_cost:>10} {opt_ub:>14} {ratio:>12.2} {:>10.2}",
            ratio / k as f64
        );
    }
    println!(
        "\nThe certified ratio grows linearly with k = kONL — the Ω(R) lower bound\n\
         of Theorem C.1 (R = kONL when kOPT = kONL). No deterministic algorithm can\n\
         do better; TC's O(h·R) upper bound is tight in R (the star has h = 2)."
    );
}
