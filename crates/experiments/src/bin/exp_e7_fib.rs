//! E7 — Section 2: the FIB-caching application end to end.
//!
//! Synthetic routing table (hierarchical generator → real dependency
//! depth), Zipf-popular packets, BGP-style update churn. Sweeps the router
//! cache size and compares TC against dependent-set LRU/FIFO, the
//! bypass-everything floor, and the offline static-optimal cache. Two
//! regimes: churn-free (prior work's home turf) and churny (where
//! dependency-respecting reactive caching bleeds α per update).

use std::sync::Arc;

use otc_baselines::{best_static_cache, BypassAll, DependentSetPolicy, InvalidateOnUpdate};
use otc_core::policy::CachePolicy;
use otc_core::request::Sign;
use otc_core::tc::{TcConfig, TcFast};
use otc_experiments::{banner, fmt_f64, Table};
use otc_sdn::{generate_events, run_fib, FibWorkloadConfig};
use otc_trie::{hierarchical_table, HierarchicalConfig, RuleTree};
use otc_util::{parallel_map, SplitMix64};

struct Cell {
    policy: &'static str,
    capacity: usize,
    update_p: f64,
}

fn main() {
    banner(
        "E7",
        "Section 2 (FIB caching on a router with an SDN controller)",
        "dependency-aware caching cuts controller load; TC additionally survives churn",
    );

    // Smoke mode (CI): same pipeline, tiny workload — exercises every
    // policy and the sharded engine section without the full sweep.
    let smoke = std::env::var_os("OTC_SMOKE").is_some();

    let mut rng = SplitMix64::new(0xE7);
    let n_rules = if smoke { 512 } else { 4096usize };
    let rules = Arc::new(RuleTree::build(&hierarchical_table(
        HierarchicalConfig { n: n_rules, subdivide_p: 0.7, max_len: 28 },
        &mut rng,
    )));
    let tree = Arc::new(rules.tree().clone());
    println!(
        "Table: {} rules, dependency-tree height {}, max degree {}\n",
        rules.len(),
        tree.height(),
        tree.max_degree()
    );
    let alpha = 4u64;
    let events_n = if smoke { 6_000 } else { 120_000usize };
    let capacities: &[usize] = if smoke { &[64, 256] } else { &[64, 128, 256, 512, 1024] };

    let mut cells: Vec<Cell> = Vec::new();
    for &update_p in &[0.0f64, 0.03] {
        for &capacity in capacities {
            for policy in
                ["tc", "subtree-lru", "subtree-fifo", "invalidate", "bypass-all", "static-opt"]
            {
                cells.push(Cell { policy, capacity, update_p });
            }
        }
    }

    let results = parallel_map(cells, |cell| {
        // Same workload seed per (capacity, regime) cell so policies are
        // compared on identical event streams.
        let mut rng = SplitMix64::new(0x5D5EED ^ ((cell.update_p * 1000.0) as u64).rotate_left(13));
        let cfg = FibWorkloadConfig {
            events: events_n,
            theta: 1.0,
            update_p: cell.update_p,
            addr_attempts: 24,
        };
        let events = generate_events(&rules, cfg, &mut rng);
        match cell.policy {
            "static-opt" => {
                // Oracle: weight nodes by the realised request stream.
                let (reqs, _) = otc_sdn::to_request_stream(&rules, &events, alpha);
                let mut wpos = vec![0u64; tree.len()];
                let mut wneg = vec![0u64; tree.len()];
                for r in &reqs {
                    match r.sign {
                        Sign::Positive => wpos[r.node.index()] += 1,
                        Sign::Negative => wneg[r.node.index()] += 1,
                    }
                }
                let plan = best_static_cache(&tree, &wpos, &wneg, alpha, cell.capacity);
                let packets =
                    events.iter().filter(|e| matches!(e, otc_sdn::FibEvent::Packet(_))).count()
                        as u64;
                let mut in_set = vec![false; tree.len()];
                for &v in &plan.set {
                    in_set[v.index()] = true;
                }
                let misses: u64 =
                    reqs.iter().filter(|r| r.is_positive() && !in_set[r.node.index()]).count()
                        as u64;
                (
                    cell.policy,
                    cell.capacity,
                    cell.update_p,
                    misses as f64 / packets as f64,
                    plan.cost,
                )
            }
            name => {
                let mut policy: Box<dyn CachePolicy> = match name {
                    "tc" => Box::new(TcFast::new(
                        Arc::clone(&tree),
                        TcConfig::new(alpha, cell.capacity),
                    )),
                    "subtree-lru" => {
                        Box::new(DependentSetPolicy::lru(Arc::clone(&tree), cell.capacity))
                    }
                    "subtree-fifo" => {
                        Box::new(DependentSetPolicy::fifo(Arc::clone(&tree), cell.capacity))
                    }
                    "invalidate" => {
                        Box::new(InvalidateOnUpdate::new(Arc::clone(&tree), cell.capacity))
                    }
                    "bypass-all" => Box::new(BypassAll::new(&tree, cell.capacity)),
                    other => unreachable!("unknown policy {other}"),
                };
                let report = run_fib(&rules, policy.as_mut(), &events, alpha);
                (cell.policy, cell.capacity, cell.update_p, report.miss_rate(), report.total_cost())
            }
        }
    });

    for &update_p in &[0.0f64, 0.03] {
        println!(
            "### {} regime (update probability per event = {update_p})\n",
            if update_p == 0.0 { "Churn-free" } else { "Churny" }
        );
        let mut table =
            Table::new(["cache size", "policy", "miss rate", "total cost", "vs bypass-all"]);
        for &capacity in capacities {
            let bypass_cost = results
                .iter()
                .find(|r| r.0 == "bypass-all" && r.1 == capacity && r.2 == update_p)
                .map_or(0, |r| r.4);
            for policy in
                ["tc", "subtree-lru", "subtree-fifo", "invalidate", "static-opt", "bypass-all"]
            {
                if let Some(r) =
                    results.iter().find(|r| r.0 == policy && r.1 == capacity && r.2 == update_p)
                {
                    table.row([
                        capacity.to_string(),
                        policy.to_string(),
                        fmt_f64(r.3),
                        r.4.to_string(),
                        fmt_f64(r.4 as f64 / bypass_cost.max(1) as f64),
                    ]);
                }
            }
        }
        println!("{}", table.to_markdown());
    }
    println!(
        "Reading: miss rates fall with cache size for every caching policy (the Zipf\n\
         head fits), but *total cost* separates them sharply. Eager dependent-set\n\
         caching (LRU/FIFO/invalidate) loses to bypass-all by an order of magnitude:\n\
         every miss on a rule with descendants buys the whole dependent set at α per\n\
         node, mostly for rules never reused enough to amortise it. TC's rent-or-buy\n\
         counters only buy what has already paid for itself, landing between the\n\
         static oracle and bypass-all — and its edge widens in the churny regime,\n\
         where cached-rule updates cost the reactive policies α each while TC's\n\
         negative counters evict the churners. This cost asymmetry is exactly the\n\
         trade-off the paper's competitive analysis formalises."
    );

    // --- The sharded pipeline: the same system scaled out. The rule trie
    // splits at the default route into independent subtrie shards, each
    // with its own TC and a slice of the TCAM; shards execute in parallel.
    println!("\n### Sharded pipeline (`run_fib_sharded`, one TC per subtrie shard)\n");
    let total_capacity = 256usize;
    let mut events_rng = SplitMix64::new(0x5D5EED ^ 30u64.rotate_left(13));
    let events = generate_events(
        &rules,
        FibWorkloadConfig { events: events_n, theta: 1.0, update_p: 0.03, addr_attempts: 24 },
        &mut events_rng,
    );
    let mut table = Table::new(["shards", "miss rate", "service", "reorg", "total cost"]);
    // The 4-shard run is additionally *observed*: windowed per-shard
    // telemetry, recorded to TIMELINE_e7.json for plotting tools.
    let window = if smoke { 1024usize } else { 8192 };
    let mut recorded_timeline = None;
    for shards in [1usize, 2, 4, 8] {
        let capacity = (total_capacity / shards).max(1);
        let factory = move |shard_tree: Arc<otc_core::tree::Tree>,
                            _s: otc_core::forest::ShardId| {
            Box::new(TcFast::new(shard_tree, TcConfig::new(alpha, capacity)))
                as Box<dyn CachePolicy>
        };
        let cfg = otc_sim::EngineConfig::bare(alpha)
            .threads(shards)
            .audit_every(window)
            .telemetry(shards == 4);
        let sharded = otc_sdn::run_fib_sharded_cfg(&rules, &factory, &events, cfg, shards);
        if shards == 4 {
            recorded_timeline = Some(sharded.timeline.clone());
        }
        table.row([
            sharded.per_shard.len().to_string(),
            fmt_f64(sharded.total.miss_rate()),
            sharded.total.service_cost.to_string(),
            sharded.total.reorg_cost.to_string(),
            sharded.total.total_cost().to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
    let timeline = recorded_timeline.expect("the 4-shard run records a timeline");
    std::fs::write("TIMELINE_e7.json", timeline.to_json()).expect("write TIMELINE_e7.json");
    println!(
        "\nRecorded TIMELINE_e7.json: {} windows of {} rounds across {} shards\n\
         (per-window cost breakdown, occupancy, action-buffer high-water).",
        timeline.windows.len(),
        timeline.window_rounds,
        timeline.shards
    );
    println!(
        "Reading: each row is a different caching *system* (independent per-shard\n\
         TCs over a partitioned TCAM), so costs shift slightly with the partition —\n\
         but every row is deterministic and thread-count-independent, and the\n\
         per-shard reports equal independent single-shard runs exactly (pinned by\n\
         the differential tests). Sharded throughput is measured by the\n\
         repository benchmark's fib-sharded workload (benchmark/README.md)."
    );
}
