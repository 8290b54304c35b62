//! # otc-sdn — the FIB-caching application (paper, Section 2)
//!
//! End-to-end model of the router/controller architecture the paper
//! motivates: a capacity-bounded router TCAM, a controller holding the
//! full rule table and running a caching policy, packet streams with
//! Zipf-popular destinations, and BGP-style rule-update churn encoded as
//! α-chunks of negative requests.
//!
//! * [`fib`] — the system model, workload generator, and forwarding-
//!   correctness checker, including the **sharded pipeline**
//!   ([`run_fib_sharded`]): the rule trie partitioned at the default
//!   route into independent subtrie shards, each with its own policy,
//!   the event stream routed in parallel chunks and the shards driven in
//!   parallel through `otc-sim`'s [`otc_sim::ShardedEngine`];
//! * [`canonical`] — Appendix B: recorded solutions, the independent
//!   solution evaluator, and the factor-2 canonicalization transform.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod canonical;
pub mod fib;

pub use canonical::{canonicalize, evaluate_solution, is_canonical, record_run, Solution};
pub use fib::{
    forwarding_violations, generate_events, route_events, run_fib, run_fib_routed, run_fib_sharded,
    run_fib_sharded_cfg, to_request_stream, FibEvent, FibReport, FibWorkloadConfig, RoutedFibEvent,
    ShardedFibReport,
};
