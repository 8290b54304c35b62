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
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{run_policy, run_stream, Report};

/// Chunk size used by the batched-driver helpers: large enough to
/// amortise per-chunk accounting and (in debug builds) the audit hook,
/// small enough to keep the request chunk in cache.
pub const STREAM_CHUNK: usize = 4096;

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

/// Runs an arbitrary policy through the verified simulator.
///
/// # Panics
/// Panics on protocol violations (all our policies are supposed to be
/// correct; experiments should fail fast otherwise).
#[must_use]
pub fn run_checked(
    tree: &Arc<Tree>,
    policy: &mut dyn CachePolicy,
    requests: &[Request],
    alpha: u64,
) -> Report {
    run_policy(tree, policy, requests, EngineConfig::new(alpha))
        .expect("policy must not violate the protocol")
}

/// Runs an arbitrary policy through the *batched* verified driver
/// (`run_stream`) — the entry point for long request streams. Identical
/// semantics to [`run_checked`]; cost accounting is amortised per chunk
/// and debug builds re-audit the policy's internal aggregates at every
/// chunk boundary.
///
/// # Panics
/// Panics on protocol violations or (debug builds) audit failures.
#[must_use]
pub fn run_checked_stream(
    tree: &Arc<Tree>,
    policy: &mut dyn CachePolicy,
    requests: &[Request],
    alpha: u64,
) -> Report {
    run_stream(tree, policy, requests, EngineConfig::new(alpha), STREAM_CHUNK)
        .expect("policy must not violate the protocol")
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
    let mut engine = ShardedEngine::single_borrowed(tree, policy, EngineConfig::bare(alpha));
    engine.submit_batch(requests).expect("policy must not violate the protocol");
    engine.into_report().expect("policy must not violate the protocol").total()
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
    fn stream_helper_agrees_with_per_round_driver() {
        let tree = Arc::new(Tree::kary(2, 4));
        let mut rng = otc_util::SplitMix64::new(3);
        let reqs: Vec<Request> = (0..6000)
            .map(|_| {
                let v = otc_core::tree::NodeId(rng.index(tree.len()) as u32);
                if rng.chance(0.4) {
                    Request::neg(v)
                } else {
                    Request::pos(v)
                }
            })
            .collect();
        let base = run_tc(&tree, &reqs, 3, 6);
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(3, 6));
        let stream = run_checked_stream(&tree, &mut tc, &reqs, 3);
        assert_eq!(base.cost.total(), stream.cost.total());
        assert_eq!(base.flush_events, stream.flush_events);
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(ratio(0, 0), 1.0);
        assert!((ratio(3, 2) - 1.5).abs() < 1e-12);
    }
}
