//! Appendix B: canonical solutions and the factor-2 transformation.
//!
//! A rule update maps to a chunk of α negative requests. A solution is
//! *canonical* when it never modifies the cache strictly inside a chunk —
//! canonical solutions correspond 1:1 (and cost-for-cost) to solutions of
//! the "forwarding-table minimisation" problem where an update of a cached
//! rule costs α outright. Appendix B shows any solution can be made
//! canonical by postponing in-chunk modifications to the chunk's end,
//! losing at most a factor 2. This module implements:
//!
//! * a recorded-solution representation (actions per round);
//! * an independent solution evaluator (validity + exact cost);
//! * the canonicalization transform;
//! * and the machinery E8 uses to verify `canonical ≤ 2 × original`.

use std::ops::Range;

use otc_core::cache::CacheSet;
use otc_core::changeset::{is_valid_negative, is_valid_positive};
use otc_core::policy::{request_pays, Action, CachePolicy};
use otc_core::request::{Cost, Request};
use otc_core::tree::Tree;

/// A fully recorded solution: the actions taken after each round.
#[derive(Debug, Clone, Default)]
pub struct Solution {
    /// `actions[t]` are applied after serving round `t`.
    pub actions: Vec<Vec<Action>>,
}

/// Runs a policy over the requests, recording its actions per round.
#[must_use]
pub fn record_run(policy: &mut dyn CachePolicy, requests: &[Request]) -> Solution {
    let actions = requests.iter().map(|&r| policy.step_owned(r).actions).collect();
    Solution { actions }
}

/// Replays a solution from an empty cache, verifying validity and
/// computing its exact cost. Flushes are treated as evict-everything.
///
/// # Errors
/// Returns a description of the first invalid action.
pub fn evaluate_solution(
    tree: &Tree,
    requests: &[Request],
    solution: &Solution,
    alpha: u64,
    capacity: usize,
) -> Result<Cost, String> {
    if solution.actions.len() != requests.len() {
        return Err(format!(
            "solution covers {} rounds, input has {}",
            solution.actions.len(),
            requests.len()
        ));
    }
    let mut cache = CacheSet::empty(tree.len());
    let mut cost = Cost::zero();
    for (t, (&req, round_actions)) in requests.iter().zip(&solution.actions).enumerate() {
        if request_pays(&cache, req) {
            cost.service += 1;
        }
        for action in round_actions {
            match action {
                Action::Fetch(set) => {
                    if !is_valid_positive(tree, &cache, set) {
                        return Err(format!("round {t}: invalid fetch {set:?}"));
                    }
                    cache.fetch(set);
                    cost.reorg += alpha * set.len() as u64;
                }
                Action::Evict(set) => {
                    if !is_valid_negative(tree, &cache, set) {
                        return Err(format!("round {t}: invalid eviction {set:?}"));
                    }
                    cache.evict(set);
                    cost.reorg += alpha * set.len() as u64;
                }
                Action::Flush(_) => {
                    cost.reorg += alpha * cache.len() as u64;
                    cache.clear();
                }
            }
        }
        if cache.len() > capacity {
            return Err(format!("round {t}: capacity exceeded ({} > {capacity})", cache.len()));
        }
    }
    Ok(cost)
}

/// Postpones every action that fires strictly inside an update chunk to
/// the chunk's final round, preserving order (Appendix B's transform).
/// Rounds outside chunks are untouched.
#[must_use]
pub fn canonicalize(solution: &Solution, chunks: &[Range<usize>]) -> Solution {
    let mut actions = solution.actions.clone();
    for chunk in chunks {
        if chunk.len() <= 1 {
            continue;
        }
        let last = chunk.end - 1;
        let mut postponed: Vec<Action> = Vec::new();
        for slot in &mut actions[chunk.start..last] {
            postponed.append(slot);
        }
        if !postponed.is_empty() {
            postponed.append(&mut actions[last]);
            actions[last] = postponed;
        }
    }
    Solution { actions }
}

/// Whether a solution is canonical w.r.t. the given chunks (no action
/// strictly inside a chunk).
#[must_use]
pub fn is_canonical(solution: &Solution, chunks: &[Range<usize>]) -> bool {
    chunks.iter().all(|chunk| (chunk.start..chunk.end - 1).all(|t| solution.actions[t].is_empty()))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use otc_core::tc::{TcConfig, TcFast};
    use otc_core::tree::{NodeId, Tree};
    use otc_core::Sign;
    use otc_util::SplitMix64;

    /// Builds a chunked mixed request stream directly.
    fn chunked_stream(
        tree: &Tree,
        events: usize,
        alpha: u64,
        update_p: f64,
        seed: u64,
    ) -> (Vec<Request>, Vec<Range<usize>>) {
        let mut rng = SplitMix64::new(seed);
        let mut reqs = Vec::new();
        let mut chunks = Vec::new();
        for _ in 0..events {
            let node = NodeId(rng.index(tree.len()) as u32);
            if rng.chance(update_p) {
                let start = reqs.len();
                for _ in 0..alpha {
                    reqs.push(Request::neg(node));
                }
                chunks.push(start..reqs.len());
            } else {
                reqs.push(Request::pos(node));
            }
        }
        (reqs, chunks)
    }

    #[test]
    fn record_and_evaluate_match_live_run() {
        let tree = Arc::new(Tree::kary(2, 4));
        let alpha = 3;
        let (reqs, _) = chunked_stream(&tree, 3000, alpha, 0.15, 1);
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 6));
        let solution = record_run(&mut tc, &reqs);
        let cost = evaluate_solution(&tree, &reqs, &solution, alpha, 6).expect("valid");
        // Cross-check against the live simulator.
        let mut tc2 = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 6));
        let report = otc_sim::run_policy(&tree, &mut tc2, &reqs, otc_sim::EngineConfig::new(alpha))
            .expect("valid");
        assert_eq!(cost.total(), report.cost.total());
        assert_eq!(cost.service, report.cost.service);
    }

    #[test]
    fn canonicalization_clears_chunk_interiors() {
        let tree = Arc::new(Tree::kary(2, 3));
        let alpha = 4;
        let (reqs, chunks) = chunked_stream(&tree, 2000, alpha, 0.3, 2);
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 4));
        let original = record_run(&mut tc, &reqs);
        let canonical = canonicalize(&original, &chunks);
        assert!(is_canonical(&canonical, &chunks));
        // Action multiset preserved.
        let count = |s: &Solution| s.actions.iter().map(Vec::len).sum::<usize>();
        assert_eq!(count(&original), count(&canonical));
    }

    #[test]
    fn canonical_cost_within_factor_two() {
        // Appendix B: the canonical solution costs at most 2× the original.
        let tree = Arc::new(Tree::kary(2, 4));
        for (alpha, update_p, seed) in [(2u64, 0.3, 3u64), (4, 0.5, 4), (6, 0.2, 5)] {
            let (reqs, chunks) = chunked_stream(&tree, 4000, alpha, update_p, seed);
            let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 6));
            let original = record_run(&mut tc, &reqs);
            let canonical = canonicalize(&original, &chunks);
            let c0 = evaluate_solution(&tree, &reqs, &original, alpha, 6).expect("orig valid");
            let c1 =
                evaluate_solution(&tree, &reqs, &canonical, alpha, 6).expect("canonical valid");
            assert!(
                c1.total() <= 2 * c0.total(),
                "α={alpha}, p={update_p}: canonical {} vs original {}",
                c1.total(),
                c0.total()
            );
        }
    }

    #[test]
    fn postponement_preserves_validity_even_when_it_costs() {
        // Hand-built: evicting a node mid-chunk avoids paying the rest of
        // the chunk; postponing makes those rounds paid but stays valid.
        let tree = Arc::new(Tree::star(1));
        let leaf = NodeId(1);
        let alpha = 4u64;
        // Fetch the leaf via an oracle solution, then a 4-negative chunk.
        let reqs: Vec<Request> = vec![
            Request::pos(leaf),
            Request { node: leaf, sign: Sign::Negative },
            Request { node: leaf, sign: Sign::Negative },
            Request { node: leaf, sign: Sign::Negative },
            Request { node: leaf, sign: Sign::Negative },
        ];
        let chunks: Vec<std::ops::Range<usize>> = std::iter::once(1..5).collect();
        // Original solution: fetch after round 0, evict after round 1
        // (inside the chunk!).
        let original = Solution {
            actions: vec![
                vec![Action::Fetch(vec![leaf])],
                vec![Action::Evict(vec![leaf])],
                vec![],
                vec![],
                vec![],
            ],
        };
        let c0 = evaluate_solution(&tree, &reqs, &original, alpha, 2).expect("valid");
        // service: round 0 pays (miss), round 1 pays (cached), rounds 2–4
        // free. reorg: fetch + evict = 2α.
        assert_eq!(c0.service, 2);
        assert_eq!(c0.reorg, 8);
        let canonical = canonicalize(&original, &chunks);
        assert!(is_canonical(&canonical, &chunks));
        let c1 = evaluate_solution(&tree, &reqs, &canonical, alpha, 2).expect("still valid");
        // Now all four negatives pay, eviction moved to the chunk end.
        assert_eq!(c1.service, 5);
        assert_eq!(c1.reorg, 8);
        assert!(c1.total() <= 2 * c0.total());
    }

    #[test]
    fn evaluator_rejects_garbage() {
        let tree = Arc::new(Tree::star(2));
        let reqs = vec![Request::pos(NodeId(0))];
        let bad = Solution { actions: vec![vec![Action::Fetch(vec![NodeId(0)])]] };
        // Fetching the root without its leaves is invalid.
        assert!(evaluate_solution(&tree, &reqs, &bad, 2, 4).is_err());
        // Arity mismatch.
        let short = Solution { actions: vec![] };
        assert!(evaluate_solution(&tree, &reqs, &short, 2, 4).is_err());
        // Capacity violation.
        let all: Vec<NodeId> = tree.nodes().collect();
        let big = Solution { actions: vec![vec![Action::Fetch(all)]] };
        assert!(evaluate_solution(&tree, &reqs, &big, 2, 2).is_err());
    }
}
