//! Integration test: the analysis lemmas checked against exact per-phase
//! OPT on small instances.
//!
//! * **Lemma 5.3** (as an identity): `TC(P) = 2α·size(F) + req(F∞) + kP·α`
//!   for finished phases (the flush term drops for the unfinished one).
//! * **Lemma 5.12**: `req(F∞) ≤ 2·kONL·α + 2·OPT(P)` where OPT may start
//!   the phase in an arbitrary cache state (Lemma 5.11's convention) —
//!   computed exactly by the free-start subforest DP with `kOPT = kONL`.

use std::sync::Arc;

use online_tree_caching::baselines::opt_cost_free_start;
use online_tree_caching::core::tc::{TcConfig, TcFast};
use online_tree_caching::core::{Request, Sign, Tree};
use online_tree_caching::sim::{run_policy, EngineConfig};
use online_tree_caching::util::SplitMix64;

fn random_tree(n: usize, rng: &mut SplitMix64) -> Tree {
    let mut parents: Vec<Option<usize>> = vec![None];
    for i in 1..n {
        parents.push(Some(rng.index(i)));
    }
    Tree::from_parents(&parents)
}

fn random_requests(tree: &Tree, len: usize, rng: &mut SplitMix64) -> Vec<Request> {
    (0..len)
        .map(|_| {
            let node = online_tree_caching::core::NodeId(rng.index(tree.len()) as u32);
            let sign = if rng.chance(0.4) { Sign::Negative } else { Sign::Positive };
            Request { node, sign }
        })
        .collect()
}

#[test]
fn lemma_5_3_identity_per_phase() {
    let mut rng = SplitMix64::new(0x53);
    for trial in 0..25 {
        let n = 4 + rng.index(8);
        let tree = Arc::new(random_tree(n, &mut rng));
        let alpha = 1 + rng.next_below(4);
        let k = 1 + rng.index(5);
        let reqs = random_requests(&tree, 1500, &mut rng);
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, k));
        let report = run_policy(&tree, &mut tc, &reqs, EngineConfig::new(alpha)).expect("valid");
        for (i, phase) in report.phases.iter().enumerate() {
            let flush_term = if phase.finished { phase.k_p as u64 * alpha } else { 0 };
            let predicted = 2 * alpha * phase.fields_size + phase.open_requests + flush_term;
            assert_eq!(
                phase.cost.total(),
                predicted,
                "trial {trial} phase {i}: Lemma 5.3 identity broken"
            );
        }
    }
}

#[test]
fn lemma_5_12_open_field_bound_per_phase() {
    let mut rng = SplitMix64::new(0x512);
    for trial in 0..20 {
        let n = 4 + rng.index(7);
        let tree = Arc::new(random_tree(n, &mut rng));
        let alpha = 1 + rng.next_below(3);
        let k_onl = 1 + rng.index(5);
        let reqs = random_requests(&tree, 1200, &mut rng);
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, k_onl));
        let report = run_policy(&tree, &mut tc, &reqs, EngineConfig::new(alpha)).expect("valid");

        // Phases partition the request sequence in order.
        let mut start = 0usize;
        for (i, phase) in report.phases.iter().enumerate() {
            let end = start + phase.rounds as usize;
            let slice = &reqs[start..end];
            // Lemma 5.12 with kOPT = kONL and OPT free to pick its starting
            // cache (the strongest admissible form of the bound).
            let opt_p = opt_cost_free_start(&tree, slice, alpha, k_onl);
            let bound = 2 * k_onl as u64 * alpha + 2 * opt_p;
            assert!(
                phase.open_requests <= bound,
                "trial {trial} phase {i}: req(F∞) = {} exceeds 2·kONL·α + 2·OPT(P) = {bound} \
                 (n={n}, α={alpha}, k={k_onl}, OPT(P)={opt_p})",
                phase.open_requests
            );
            start = end;
        }
        assert_eq!(start, reqs.len(), "phases must partition the input");
    }
}
