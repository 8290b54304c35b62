//! Property tests: the analysis identities hold on arbitrary instances.
//!
//! * Observation 5.2: every closed field carries exactly `size·α` paying
//!   requests (zero violations).
//! * Period balance: `pout = pin + kP` per phase.
//! * Lemma 5.3 as an identity: `TC(P) = 2α·size(F) + req(F∞) [+ kP·α]`.
//! * Conservation: phases partition the rounds; fields absorb exactly the
//!   paying requests that are not in any open field.

use std::sync::Arc;

use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::{NodeId, Tree};
use otc_core::{Request, Sign};
use otc_sim::{run_policy, EngineConfig};
use proptest::prelude::*;

fn tree_from_seeds(seeds: &[u64]) -> Tree {
    let mut parents: Vec<Option<usize>> = vec![None];
    for (i, &s) in seeds.iter().enumerate() {
        parents.push(Some((s % (i as u64 + 1)) as usize));
    }
    Tree::from_parents(&parents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn analysis_identities_hold(
        tree_seeds in prop::collection::vec(any::<u64>(), 0..24),
        req_seeds in prop::collection::vec((any::<u64>(), any::<bool>()), 1..800),
        alpha in 1u64..5,
        capacity in 1usize..8,
    ) {
        let tree = Arc::new(tree_from_seeds(&tree_seeds));
        let reqs: Vec<Request> = req_seeds
            .iter()
            .map(|&(s, pos)| {
                let node = NodeId((s % tree.len() as u64) as u32);
                Request { node, sign: if pos { Sign::Positive } else { Sign::Negative } }
            })
            .collect();
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, capacity));
        let report = run_policy(&tree, &mut tc, &reqs, EngineConfig::new(alpha))
            .map_err(|e| TestCaseError::fail(format!("simulator rejected TC: {e}")))?;

        // Observation 5.2.
        let fields = report.fields.as_ref().expect("instrumented");
        prop_assert_eq!(fields.saturation_violations, 0);
        prop_assert_eq!(fields.total_requests, fields.total_size * alpha);

        // Period balance per phase.
        let periods = report.periods.as_ref().expect("instrumented");
        for &(pout, pin, kp) in &periods.per_phase_balance {
            prop_assert_eq!(pout, pin + kp as u64);
        }

        // Lemma 5.3 identity + phase partition.
        let mut rounds_total = 0u64;
        let mut cost_total = 0u64;
        for phase in &report.phases {
            let flush_term = if phase.finished { phase.k_p as u64 * alpha } else { 0 };
            prop_assert_eq!(
                phase.cost.total(),
                2 * alpha * phase.fields_size + phase.open_requests + flush_term
            );
            rounds_total += phase.rounds;
            cost_total += phase.cost.total();
        }
        prop_assert_eq!(rounds_total, report.rounds);
        prop_assert_eq!(cost_total, report.cost.total());

        // Request conservation: every paying request is either inside a
        // closed field or pending in the final open field. (Earlier phases'
        // open fields were zeroed at flush; count them via phase records.)
        let open_total: u64 = report.phases.iter().map(|p| p.open_requests).sum();
        prop_assert_eq!(report.paid_rounds, fields.total_requests + open_total);
    }
}
