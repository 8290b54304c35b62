//! Correctness checks, run outside every timed region. Each takes the
//! evidence a run produced and recomputes the expected result offline:
//!
//! * `serve-pipelined`: the live per-shard reports equal
//!   `ShardedEngine::replay_trace` of the trace the service logged
//!   (invariant #5);
//! * `serve-durable`: the killed, resumed and finished service equals
//!   `replay_trace_rebalancing` of its log file, schedule included
//!   (invariants #6 and #7);
//! * `fib-sharded`: the sharded totals equal the sum of `run_fib_routed`
//!   over each shard's routed event stream.

use std::io::Cursor;

use otc_core::forest::Forest;
use otc_sdn::{route_events, run_fib_routed, FibEvent, FibReport};
use otc_serve::{initial_table, RebalanceSummary};
use otc_sim::engine::ShardedEngine;
use otc_sim::{aggregate_reports, replay_trace_rebalancing, Rebalancer, Report};
use otc_trie::RuleTree;
use otc_workloads::trace::TraceReader;

use crate::serve::{engine_cfg, factory, rebalance_cfg, DURABLE_GROUPS};
use crate::ALPHA;

/// What a `serve-pipelined` round leaves to check.
#[derive(Debug, Clone)]
pub struct PipelinedEvidence {
    /// The served forest.
    pub forest: Forest,
    /// Cache slots per shard.
    pub capacity: usize,
    /// The live per-shard reports.
    pub per_shard: Vec<Report>,
    /// Requests the service says it accepted.
    pub requests_served: u64,
    /// Requests the clients saw acknowledged.
    pub acked: u64,
    /// The OTCT trace the service logged.
    pub trace_bytes: Vec<u8>,
}

/// What a `serve-durable` round leaves to check.
#[derive(Debug, Clone)]
pub struct DurableEvidence {
    /// The served forest (cells).
    pub forest: Forest,
    /// Cache slots per cell.
    pub capacity: usize,
    /// The final log file.
    pub log: Vec<u8>,
    /// Requests acknowledged before the kill.
    pub acked_before_kill: u64,
    /// Requests `Server::resume` recovered.
    pub requests_recovered: u64,
    /// Requests acknowledged over the whole round.
    pub acked: u64,
    /// Requests the finished service says it accepted.
    pub requests_served: u64,
    /// The finished service's per-cell reports.
    pub per_shard: Vec<Report>,
    /// The finished service's aggregate report.
    pub report: Report,
    /// The finished service's rebalance summary.
    pub rebalance: Option<RebalanceSummary>,
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    live: &T,
    expected: &T,
) -> Result<(), String> {
    if live == expected {
        Ok(())
    } else {
        let show = |v: &T| format!("{v:?}").chars().take(160).collect::<String>();
        Err(format!("{what}: live {} != expected {}", show(live), show(expected)))
    }
}

/// Checks a `serve-pipelined` round against the replay of its own log.
///
/// # Errors
/// The first mismatch.
pub fn pipelined(ev: &PipelinedEvidence) -> Result<(), String> {
    expect_eq("requests accepted", &ev.requests_served, &ev.acked)?;
    let factory = factory(ev.capacity);
    let mut engine = ShardedEngine::new(ev.forest.clone(), &factory, engine_cfg());
    let mut reader =
        TraceReader::new(Cursor::new(&ev.trace_bytes)).map_err(|e| format!("trace header: {e}"))?;
    let mut chunk = Vec::with_capacity(64 * 1024);
    engine.replay_trace(&mut reader, &mut chunk).map_err(|e| format!("replay: {e}"))?;
    let replayed = engine.into_reports().map_err(|e| format!("replay: {e}"))?;
    expect_eq("per-shard reports vs replay_trace", &ev.per_shard, &replayed)
}

/// Checks a `serve-durable` round against the rebalancing replay of its
/// log file.
///
/// # Errors
/// The first mismatch.
pub fn durable(ev: &DurableEvidence) -> Result<(), String> {
    expect_eq("requests recovered by resume", &ev.requests_recovered, &ev.acked_before_kill)?;
    expect_eq("requests accepted", &ev.requests_served, &ev.acked)?;
    let summary = ev.rebalance.as_ref().ok_or("the rebalancing service reported no summary")?;
    let factory = factory(ev.capacity);
    let mut engine = ShardedEngine::new(ev.forest.clone(), &factory, engine_cfg());
    let mut reader =
        TraceReader::new(Cursor::new(&ev.log)).map_err(|e| format!("log header: {e}"))?;
    let table = initial_table(ev.forest.num_shards(), DURABLE_GROUPS).map_err(|e| e.to_string())?;
    let mut reb = Rebalancer::new(rebalance_cfg(), table);
    let mut chunk = Vec::with_capacity(16 * 1024);
    let out = replay_trace_rebalancing(&mut engine, &mut reader, &mut reb, &mut chunk)
        .map_err(|e| format!("rebalancing replay: {e}"))?;
    let per_shard = engine.into_reports().map_err(|e| format!("replay: {e}"))?;
    expect_eq("requests replayed", &ev.requests_served, &out.replayed)?;
    expect_eq("boundaries verified", &summary.boundaries, &out.verified)?;
    let moves: u64 = out.schedule.iter().map(|r| r.moves.len() as u64).sum();
    expect_eq("migrations", &summary.migrations, &moves)?;
    expect_eq("final placement", &summary.owners.as_slice(), &reb.table().owners())?;
    expect_eq("per-cell reports vs replay", &ev.per_shard, &per_shard)?;
    expect_eq("aggregate report vs replay", &ev.report, &aggregate_reports(per_shard))
}

/// The expected `fib-sharded` totals: `run_fib_routed` over each shard's
/// routed stream, summed.
#[must_use]
pub fn fib_expected(
    rules: &RuleTree,
    events: &[FibEvent],
    shards: usize,
    capacity: usize,
) -> FibReport {
    let forest = Forest::partition(rules.tree(), shards);
    let routed = route_events(rules, &forest, events);
    let factory = factory(capacity);
    let mut total: Option<FibReport> = None;
    for (s, stream) in routed.iter().enumerate() {
        let tree = forest.tree(otc_core::forest::ShardId(s as u32));
        let mut policy = factory(std::sync::Arc::clone(tree), otc_core::forest::ShardId(s as u32));
        let report = run_fib_routed(tree, policy.as_mut(), stream, ALPHA);
        match &mut total {
            Some(t) => t.add(&report),
            None => total = Some(report),
        }
    }
    total.unwrap_or_default()
}

/// Checks every `run_fib_sharded` total of a run against the expected one.
///
/// # Errors
/// The first mismatch.
pub fn fib(totals: &[FibReport], expected: &FibReport) -> Result<(), String> {
    if totals.is_empty() {
        return Err("no run_fib_sharded call completed".to_string());
    }
    for (i, t) in totals.iter().enumerate() {
        expect_eq(&format!("call {i} totals vs per-shard run_fib_routed"), t, expected)?;
    }
    Ok(())
}
