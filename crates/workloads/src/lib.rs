//! # otc-workloads — trees, request streams, adversaries and paper gadgets
//!
//! Everything the experiments feed to the algorithms:
//!
//! * [`trees`] — random tree generators with height/degree control;
//! * [`requests`] — Zipf traffic, update churn (α-chunked negatives, the
//!   paper's Appendix-B encoding), working-set drift, Markov-modulated
//!   bursty arrivals, and multi-tenant streams over forests — uniform or
//!   diurnal (per-shard Zipf skew, globally addressed for the sharded
//!   engine);
//! * [`trace`] — persistent workload traces: the versioned binary format
//!   with streaming [`trace::TraceWriter`] / [`trace::TraceReader`];
//! * [`rebalance`] — the rebalance-record codec: per-boundary cell loads
//!   and migration decisions, interleavable with requests in a
//!   [`trace::TRACE_FLAG_REBALANCE`]-flagged trace so a live run's
//!   resharding schedule replays (and verifies) from its own log;
//! * [`wire`] — the shared request-record codec (LEB128 varints, the
//!   `(node << 1) | sign` record payload) behind both the trace format
//!   and the `otc-serve` wire protocol;
//! * [`fib_churn`] — FIB lookup/flap traces synthesized from an
//!   `otc_trie::RuleTree`'s real prefix-containment structure;
//! * [`adversary`] — the adaptive paging adversary of the Ω(R) lower bound
//!   (Appendix C), with its sequences archivable as traces;
//! * [`gadget`] — the Figure 4 / Appendix D positive-field impossibility
//!   construction, scripted end to end.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod fib_churn;
pub mod gadget;
pub mod rebalance;
pub mod requests;
pub mod search;
pub mod trace;
pub mod trees;
pub mod wire;

pub use adversary::{drive_paging_adversary, AdversaryRun};
pub use fib_churn::{fib_update_trace, FibChurnConfig};
pub use gadget::Fig4Gadget;
pub use rebalance::{CellLoad, RebalanceRecord};
pub use requests::{
    amplify, diurnal_tenant_stream, markov_bursty, multi_tenant_stream, shifting_zipf,
    uniform_mixed, zipf_positive, zipf_with_bursty_updates, zipf_with_updates, DiurnalConfig,
    MarkovBurstyConfig, MixedConfig, TenantProfile,
};
pub use search::{adversarial_search, SearchOutcome};
pub use trace::{Trace, TraceEvent, TraceHeader, TraceReader, TraceWriter, TRACE_FLAG_REBALANCE};
pub use trees::{broom, random_attachment, random_bounded_degree, random_window};
