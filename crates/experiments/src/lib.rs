//! # otc-experiments — shared harness code for the `exp_*` binaries
//!
//! Each binary in `src/bin/` regenerates one paper artifact (see the
//! experiment index in `DESIGN.md` and the recorded outcomes in
//! `EXPERIMENTS.md`). This library holds the plumbing they share:
//! cost evaluation through the *verified* simulator, ratio sweeps over
//! seeds, and uniform table output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use otc_core::policy::CachePolicy;
use otc_core::request::Request;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_sim::engine::EngineConfig;
use otc_sim::{run_policy, Report};

pub use otc_util::table::{fmt_f64, Table};

/// Prints the standard experiment banner.
pub fn banner(id: &str, artifact: &str, claim: &str) {
    println!("## {id} — {artifact}");
    println!();
    println!("Paper claim: {claim}");
    println!();
}

/// Runs TC (the fast implementation) through the verified simulator and
/// returns the report.
///
/// # Panics
/// Panics if the simulator detects a protocol violation — that would be a
/// bug in TC itself and must abort the experiment loudly.
#[must_use]
pub fn run_tc(tree: &Arc<Tree>, requests: &[Request], alpha: u64, capacity: usize) -> Report {
    let mut tc = TcFast::new(Arc::clone(tree), TcConfig::new(alpha, capacity));
    run_policy(tree, &mut tc, requests, EngineConfig::new(alpha))
        .expect("TC must never violate the protocol")
}

/// Total cost of TC on a sequence (convenience).
#[must_use]
pub fn tc_total(tree: &Arc<Tree>, requests: &[Request], alpha: u64, capacity: usize) -> u64 {
    run_tc(tree, requests, alpha, capacity).total()
}

/// Total cost of a policy through the engine's bare (uninstrumented)
/// single-shard configuration — the fast path for ablation sweeps and
/// searches, replacing the old ad-hoc `run_raw` loops. It verifies every
/// move like any other configuration, so a policy cannot misreport its
/// own cost.
///
/// # Panics
/// Panics if the policy violates the protocol.
#[must_use]
pub fn bare_cost(
    tree: &Tree,
    policy: &mut dyn CachePolicy,
    requests: &[Request],
    alpha: u64,
) -> u64 {
    run_policy(tree, policy, requests, EngineConfig::bare(alpha))
        .expect("policy must not violate the protocol")
        .total()
}

/// `a / b` with the zero conventions of experiments (0/0 = 1).
#[must_use]
pub fn ratio(a: u64, b: u64) -> f64 {
    otc_util::stats::cost_ratio(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_core::tree::Tree;

    #[test]
    fn run_tc_smoke() {
        let tree = Arc::new(Tree::star(4));
        let leaf = tree.leaves()[0];
        let reqs = vec![Request::pos(leaf), Request::pos(leaf)];
        let report = run_tc(&tree, &reqs, 2, 3);
        assert_eq!(report.cost.service, 2);
        assert_eq!(report.cost.reorg, 2);
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(ratio(0, 0), 1.0);
        assert!((ratio(3, 2) - 1.5).abs() < 1e-12);
    }
}
