//! Pins the deterministic placement comparison under diurnal skew: when
//! per-cell load *moves* (phase-shifted tenant day/night cycles, working
//! sets re-drawn every tenant-day), re-homing cells at every decision
//! boundary beats the best static placement computed with perfect
//! hindsight.
//!
//! The metric is a placement-weighted makespan proxy, not wall clock: per
//! decision window, a serving group's load is the sum of its cells'
//! `rounds + paid_rounds` deltas (the planner's own currency, a pure
//! function of the request stream), and the window costs its *heaviest*
//! group — the straggler that bounds a parallel tier's makespan. Summing
//! over windows gives the proxy. Static LPT gets an oracle advantage: its
//! weights are the true per-cell totals of the whole run; the dynamic
//! schedule starts from round-robin and sees only the past. The stream is
//! a pure function of its seed, so any drift here is a change to the
//! planner or the cost accounting, never noise.

use std::sync::Arc;

use otc_core::forest::{Forest, RoutingTable, ShardId};
use otc_core::policy::CachePolicy;
use otc_core::tc::{TcConfig, TcFast};
use otc_core::tree::Tree;
use otc_serve::initial_table;
use otc_sim::engine::{EngineConfig, ShardedEngine};
use otc_sim::{RebalanceConfig, Rebalancer};
use otc_util::SplitMix64;
use otc_workloads::{diurnal_tenant_stream, DiurnalConfig, TenantProfile};

const ALPHA: u64 = 4;
const GROUPS: u32 = 4;
const CAPACITY: usize = 48;
const SEED: u64 = 0xD1A2;
const LEN: usize = 120_000;

fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
    Box::new(TcFast::new(tree, TcConfig::new(ALPHA, CAPACITY)))
}

/// Sum over windows of the heaviest group's load: `windows[w][c]` is cell
/// `c`'s `rounds + paid_rounds` delta in window `w`, and `tables[w]` the
/// placement in force while window `w` executed.
fn makespan_sum(windows: &[Vec<u64>], tables: &[RoutingTable]) -> u64 {
    windows
        .iter()
        .zip(tables)
        .map(|(weights, table)| {
            let mut load = vec![0u64; table.num_groups() as usize];
            for (cell, &w) in weights.iter().enumerate() {
                load[table.owners()[cell] as usize] += w;
            }
            load.into_iter().max().unwrap_or(0)
        })
        .sum()
}

#[test]
fn dynamic_placement_beats_hindsight_lpt_under_diurnal_skew() {
    // The planner needs several boundaries per diurnal cycle to react.
    let interval = (LEN / 30) as u64;
    // 6 cells over 4 groups (6 over 3 would pair every cell with its
    // anti-phase twin and balance by symmetry).
    let mut rng = SplitMix64::new(SEED);
    let tree = Tree::kary(6, 4);
    let forest = Forest::cells(&tree);
    let cells = forest.num_shards();
    let profiles = vec![TenantProfile::skewed(1.1); cells];
    let diurnal = DiurnalConfig { len: LEN, alpha: ALPHA, period: LEN / 4, amplitude: 0.9 };
    let stream = diurnal_tenant_stream(&forest, &profiles, diurnal, &mut rng);

    // One execution pass: per-window per-cell load deltas and the dynamic
    // schedule, both pure functions of the stream (placement-invariant).
    let mut engine = ShardedEngine::new(forest, &factory, EngineConfig::bare(ALPHA));
    let mut rebalancer = Rebalancer::new(
        RebalanceConfig::new(interval).threshold_x1000(1150),
        initial_table(cells, GROUPS).expect("valid shape"),
    );
    let mut windows: Vec<Vec<u64>> = Vec::new();
    let mut dynamic_tables = vec![rebalancer.table().clone()];
    let mut prev = vec![0u64; cells];
    let mut migrations = 0u64;
    for chunk in stream.chunks(interval as usize) {
        engine.submit_batch(chunk).expect("valid stream");
        let loads = engine.cell_loads().expect("valid stream");
        let now: Vec<u64> = loads.iter().map(|l| l.rounds + l.paid_rounds).collect();
        windows.push(now.iter().zip(&prev).map(|(n, p)| n - p).collect());
        prev = now;
        if chunk.len() == interval as usize {
            migrations += rebalancer.on_boundary(&loads).expect("boundary").moves.len() as u64;
        }
        // The table decided at this boundary governs the *next* window.
        dynamic_tables.push(rebalancer.table().clone());
    }
    let totals: Vec<u64> = (0..cells).map(|c| windows.iter().map(|w| w[c]).sum()).collect();

    let round_robin = vec![initial_table(cells, GROUPS).expect("valid shape"); windows.len()];
    let lpt = vec![RoutingTable::lpt(&totals, GROUPS); windows.len()];
    assert_eq!(makespan_sum(&windows, &round_robin), 47_880, "static round-robin");
    assert_eq!(makespan_sum(&windows, &lpt), 54_870, "static LPT over hindsight totals");
    assert_eq!(makespan_sum(&windows, &dynamic_tables[..windows.len()]), 43_503, "dynamic");
    assert_eq!(migrations, 29, "dynamic migrations");
    // A perfectly balanced placement puts total/groups on every group in
    // every window: the unreachable floor.
    assert_eq!(totals.iter().sum::<u64>().div_ceil(u64::from(GROUPS)), 30_259, "floor");
}
