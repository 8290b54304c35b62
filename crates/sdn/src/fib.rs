//! The router/controller FIB-caching system (paper, Section 2, Figure 1).
//!
//! A router holds a capacity-bounded cache of forwarding rules (its TCAM);
//! an SDN controller holds the full table and runs the caching algorithm.
//! Packets whose longest-matching-prefix rule is cached are forwarded at
//! cost 0; others fall through the artificial default rule to the
//! controller at cost 1 — a positive request. A rule update is free at the
//! controller but costs α when the rule sits in the router; the paper
//! encodes that as a chunk of α negative requests (Section 2 / Appendix B).
//!
//! The subforest invariant **is** forwarding correctness here: if the true
//! LMP rule of a packet is absent from the router, no ancestor rule can be
//! present either (downward closure), so the packet can only hit the
//! default rule — never a wrong less-specific rule.

use otc_core::forest::Forest;
use otc_core::policy::{CachePolicy, PolicyFactory};
use otc_core::request::Request;
use otc_core::tree::{NodeId, Tree};
use otc_sim::engine::{EngineConfig, ShardHandle, ShardedEngine};
use otc_sim::telemetry::Timeline;
use otc_trie::RuleTree;
use otc_util::{SplitMix64, Zipf};

/// One event at the router/controller boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibEvent {
    /// A data packet to this destination address.
    Packet(u32),
    /// A routing update (e.g. BGP) rewriting this rule's action.
    Update(NodeId),
}

/// Application-level outcome of a FIB-caching run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FibReport {
    /// Policy under test.
    pub name: String,
    /// Packets processed.
    pub packets: u64,
    /// Packets forwarded by the router (rule cached).
    pub hits: u64,
    /// Packets bounced to the controller.
    pub misses: u64,
    /// Rule updates processed.
    pub updates: u64,
    /// Updates that found their rule inside the router.
    pub updates_while_cached: u64,
    /// Total service cost (misses + paid negative rounds).
    pub service_cost: u64,
    /// Total reorganisation cost (α × nodes fetched/evicted).
    pub reorg_cost: u64,
}

impl FibReport {
    /// Fraction of packets bounced to the controller.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.misses as f64 / self.packets as f64
        }
    }

    /// Total monetary cost in the tree-caching model.
    #[must_use]
    pub fn total_cost(&self) -> u64 {
        self.service_cost + self.reorg_cost
    }

    /// Component-wise accumulation (aggregating per-shard reports).
    pub fn add(&mut self, other: &FibReport) {
        self.packets += other.packets;
        self.hits += other.hits;
        self.misses += other.misses;
        self.updates += other.updates;
        self.updates_while_cached += other.updates_while_cached;
        self.service_cost += other.service_cost;
        self.reorg_cost += other.reorg_cost;
    }
}

/// A FIB event whose rule has already been resolved to a tree node
/// (shard-local when routed through a [`Forest`]): packets carry their
/// longest-matching-prefix rule instead of a raw address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedFibEvent {
    /// A data packet whose LMP rule is this node.
    Packet(NodeId),
    /// A routing update rewriting this rule.
    Update(NodeId),
}

/// Resolves and routes an event stream across a forest's shards on the
/// calling thread: each packet's LMP rule and each update's rule is looked
/// up once, mapped to its `(shard, local node)` home, and appended to that
/// shard's stream (preserving relative order within a shard).
///
/// This is the serial kernel: [`run_fib_sharded`] runs it on contiguous
/// chunks of the stream in parallel, one chunk per engine thread.
#[must_use]
pub fn route_events(
    rules: &RuleTree,
    forest: &Forest,
    events: &[FibEvent],
) -> Vec<Vec<RoutedFibEvent>> {
    let mut per_shard: Vec<Vec<RoutedFibEvent>> = vec![Vec::new(); forest.num_shards()];
    for &event in events {
        let (rule, is_packet) = match event {
            FibEvent::Packet(addr) => (rules.lmp(addr), true),
            FibEvent::Update(rule) => (rule, false),
        };
        let (shard, local) = forest.route(rule);
        per_shard[shard.index()].push(if is_packet {
            RoutedFibEvent::Packet(local)
        } else {
            RoutedFibEvent::Update(local)
        });
    }
    per_shard
}

/// The one FIB drive loop, shared by every entry point: drives a resolved
/// event stream through one engine shard, adding its outcome into
/// `report` (so a stream that arrives in pieces accumulates into one
/// report). Each packet becomes one positive request to its rule; each
/// update probes the cache (for the `updates_while_cached` counter) and
/// becomes a chunk of `alpha` negative requests (the paper's encoding of
/// the α router-update cost).
fn drive_fib(
    handle: &mut ShardHandle<'_, '_>,
    events: &[RoutedFibEvent],
    alpha: u64,
    report: &mut FibReport,
) -> Result<(), String> {
    for &event in events {
        match event {
            RoutedFibEvent::Packet(rule) => {
                report.packets += 1;
                let out = handle.step(Request::pos(rule))?;
                if out.paid {
                    report.misses += 1;
                    report.service_cost += 1;
                } else {
                    report.hits += 1;
                }
                report.reorg_cost += alpha * out.nodes_touched;
            }
            RoutedFibEvent::Update(rule) => {
                report.updates += 1;
                if handle.cache().contains(rule) {
                    report.updates_while_cached += 1;
                }
                for _ in 0..alpha {
                    let out = handle.step(Request::neg(rule))?;
                    report.service_cost += u64::from(out.paid);
                    report.reorg_cost += alpha * out.nodes_touched;
                }
            }
        }
    }
    Ok(())
}

/// An empty report named after the handle's policy.
fn empty_report(handle: &ShardHandle<'_, '_>) -> FibReport {
    FibReport { name: handle.policy_name().to_string(), ..FibReport::default() }
}

/// Runs a caching policy over a resolved event stream on one tree — the
/// single-shard reference pipeline (and the per-subtrie baseline the
/// sharded pipeline is differentially tested against).
///
/// # Panics
/// Panics if the policy violates the caching protocol (misreported
/// service payment or an inconsistent flush payload).
pub fn run_fib_routed(
    tree: &Tree,
    policy: &mut dyn CachePolicy,
    events: &[RoutedFibEvent],
    alpha: u64,
) -> FibReport {
    let mut engine = ShardedEngine::single_borrowed(tree, policy, EngineConfig::bare(alpha));
    let mut reports = engine.map_shards(|handle| {
        let mut report = empty_report(handle);
        drive_fib(handle, events, alpha, &mut report).map(|()| report)
    });
    reports.pop().expect("one shard").expect("policy violated the caching protocol")
}

/// Runs a caching policy over an event stream (single shard, whole trie).
///
/// Each packet becomes one positive request to its LMP rule; each update
/// becomes a chunk of `alpha` negative requests to the rule (the paper's
/// encoding of the α router-update cost). A thin adapter over the engine:
/// resolves LMP per packet, then drives the single-shard pipeline.
///
/// # Panics
/// Panics if the policy violates the caching protocol.
pub fn run_fib(
    rules: &RuleTree,
    policy: &mut dyn CachePolicy,
    events: &[FibEvent],
    alpha: u64,
) -> FibReport {
    let routed: Vec<RoutedFibEvent> = events
        .iter()
        .map(|&event| match event {
            FibEvent::Packet(addr) => RoutedFibEvent::Packet(rules.lmp(addr)),
            FibEvent::Update(rule) => RoutedFibEvent::Update(rule),
        })
        .collect();
    run_fib_routed(rules.tree(), policy, &routed, alpha)
}

/// Outcome of a sharded FIB run: the aggregate plus per-shard breakdowns,
/// and — when the engine configuration enabled telemetry — the windowed
/// per-shard [`Timeline`].
#[derive(Debug, Clone, Default)]
pub struct ShardedFibReport {
    /// Component-wise sum over all shards.
    pub total: FibReport,
    /// Per-shard reports, in shard order.
    pub per_shard: Vec<FibReport>,
    /// Windowed telemetry (empty unless `EngineConfig::telemetry` was on).
    pub timeline: Timeline,
}

/// The sharded FIB pipeline: partitions the rule trie at the default route
/// into `shards` size-balanced subtrie groups ([`Forest::partition`]),
/// builds one policy per shard via `factory` (which decides the per-shard
/// capacity split), and runs both halves of the work on `threads` workers:
///
/// 1. **Routing.** The event stream is cut into one contiguous chunk per
///    thread (at most one per event), and each chunk is routed with
///    [`route_events`] into its own per-shard vectors, all chunks at once.
/// 2. **Driving.** Each shard drives its vector from chunk 0, then chunk
///    1, and so on — no concatenation copy — with shards handed to
///    threads one at a time as threads free up.
///
/// Every shard therefore sees exactly the event sequence a serial
/// [`route_events`] would give it, so per-shard results are deterministic
/// and independent of `threads`; the aggregate equals the component-wise
/// sum of running each shard's event stream through [`run_fib_routed`] on
/// its own (pinned by the differential test in `tests/fib_pipeline.rs`).
///
/// # Panics
/// Panics if any shard's policy violates the caching protocol.
#[must_use]
pub fn run_fib_sharded(
    rules: &RuleTree,
    factory: &dyn PolicyFactory,
    events: &[FibEvent],
    alpha: u64,
    shards: usize,
    threads: usize,
) -> ShardedFibReport {
    run_fib_sharded_cfg(rules, factory, events, EngineConfig::bare(alpha).threads(threads), shards)
}

/// [`run_fib_sharded`] with an explicit engine configuration — the entry
/// point for observed runs: pass
/// `EngineConfig::bare(alpha).audit_every(w).telemetry(true)` and the
/// returned report carries a per-window, per-shard [`Timeline`] of the
/// whole pipeline (this is how `exp_e7_fib` records `TIMELINE_e7.json`).
///
/// `cfg.alpha` is the α used for both the engine and the update-chunk
/// encoding.
///
/// # Panics
/// Panics if any shard's policy violates the caching protocol.
#[must_use]
pub fn run_fib_sharded_cfg(
    rules: &RuleTree,
    factory: &dyn PolicyFactory,
    events: &[FibEvent],
    cfg: EngineConfig,
    shards: usize,
) -> ShardedFibReport {
    let alpha = cfg.alpha;
    let forest = Forest::partition(rules.tree(), shards);
    // Contiguous chunks, one per thread and none empty: chunk `c` holds
    // events `c * len ..`, so chunk order is stream order.
    let len = events.len().div_ceil(cfg.threads.max(1)).max(1);
    let mut chunks: Vec<&[FibEvent]> = events.chunks(len).collect();
    let routed: Vec<Vec<Vec<RoutedFibEvent>>> =
        otc_util::parallel_map_mut(&mut chunks, cfg.threads, |_, chunk| {
            route_events(rules, &forest, chunk)
        });
    let mut engine = ShardedEngine::new(forest, factory, cfg);
    let per_shard: Vec<FibReport> = engine
        .map_shards(|handle| {
            let shard = handle.shard().index();
            let mut report = empty_report(handle);
            for chunk in &routed {
                drive_fib(handle, &chunk[shard], alpha, &mut report)?;
            }
            Ok(report)
        })
        .into_iter()
        .collect::<Result<_, String>>()
        .expect("policy violated the caching protocol");
    let timeline = engine.timeline();
    let mut total = FibReport { name: per_shard[0].name.clone(), ..FibReport::default() };
    for report in &per_shard {
        total.add(report);
    }
    ShardedFibReport { total, per_shard, timeline }
}

/// Translates events into the flat request stream of the abstract problem,
/// also reporting the index range of every update chunk (used by the
/// Appendix-B canonicalization experiment).
#[must_use]
pub fn to_request_stream(
    rules: &RuleTree,
    events: &[FibEvent],
    alpha: u64,
) -> (Vec<Request>, Vec<std::ops::Range<usize>>) {
    let mut reqs = Vec::new();
    let mut chunks = Vec::new();
    for &event in events {
        match event {
            FibEvent::Packet(addr) => reqs.push(Request::pos(rules.lmp(addr))),
            FibEvent::Update(rule) => {
                let start = reqs.len();
                for _ in 0..alpha {
                    reqs.push(Request::neg(rule));
                }
                chunks.push(start..reqs.len());
            }
        }
    }
    (reqs, chunks)
}

/// Workload generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct FibWorkloadConfig {
    /// Number of events to generate.
    pub events: usize,
    /// Zipf exponent of rule popularity (packets).
    pub theta: f64,
    /// Probability that an event is a rule update.
    pub update_p: f64,
    /// Rejection-sampling attempts per packet address.
    pub addr_attempts: u32,
}

impl Default for FibWorkloadConfig {
    fn default() -> Self {
        Self { events: 100_000, theta: 1.0, update_p: 0.01, addr_attempts: 32 }
    }
}

/// Generates a packet/update stream over the rule table: packet
/// destinations follow Zipf-over-rules popularity (the Sarrar et al.
/// traffic model the paper cites); updates hit uniformly random
/// non-default rules (BGP churn is not popularity-correlated).
#[must_use]
pub fn generate_events(
    rules: &RuleTree,
    cfg: FibWorkloadConfig,
    rng: &mut SplitMix64,
) -> Vec<FibEvent> {
    let n = rules.len();
    // Popularity ranking: random permutation of rules (rank 0 hottest).
    let mut ranking: Vec<NodeId> = rules.tree().nodes().collect();
    rng.shuffle(&mut ranking);
    let zipf = Zipf::new(n, cfg.theta);
    let mut out = Vec::with_capacity(cfg.events);
    while out.len() < cfg.events {
        if n > 1 && rng.chance(cfg.update_p) {
            // Uniform over non-default rules (node 0 is the default route).
            let rule = NodeId(1 + rng.index(n - 1) as u32);
            out.push(FibEvent::Update(rule));
        } else {
            // Sample a rule by popularity, then an address whose LMP is
            // that rule; fall back to another rule when its address space
            // is fully covered by more-specific rules.
            let mut placed = false;
            for _ in 0..4 {
                let rule = ranking[zipf.sample(rng)];
                if let Some(addr) = rules.sample_addr_for(rule, rng, cfg.addr_attempts) {
                    out.push(FibEvent::Packet(addr));
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Extremely covered table: fall back to a uniform address.
                out.push(FibEvent::Packet(rng.next_u64() as u32));
            }
        }
    }
    out
}

/// Checks forwarding correctness for a cache state: for every probe
/// address, the router's own LMP over (cached rules + default) must agree
/// with the controller's ground truth — either the true rule (hit) or the
/// default route (miss). Violations would mean mis-forwarded packets.
#[must_use]
pub fn forwarding_violations(
    rules: &RuleTree,
    cache: &otc_core::cache::CacheSet,
    probes: &[u32],
) -> usize {
    let mut violations = 0;
    for &addr in probes {
        let truth = rules.lmp(addr);
        // Router-side LMP: the most specific *cached* rule matching addr.
        let mut router_match = NodeId(0); // default rule always present
        let mut best_len = 0;
        for v in cache.iter() {
            let p = rules.prefix(v);
            if p.contains_addr(addr) && p.len() >= best_len {
                router_match = v;
                best_len = p.len();
            }
        }
        let ok =
            if cache.contains(truth) { router_match == truth } else { router_match == NodeId(0) };
        if !ok {
            violations += 1;
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use otc_baselines::DependentSetPolicy;
    use otc_core::tc::{TcConfig, TcFast};
    use otc_trie::parse_prefix;

    fn small_rules() -> RuleTree {
        RuleTree::build(&[
            parse_prefix("10.0.0.0/8").unwrap(),
            parse_prefix("10.1.0.0/16").unwrap(),
            parse_prefix("10.1.2.0/24").unwrap(),
            parse_prefix("192.168.0.0/16").unwrap(),
        ])
    }

    #[test]
    fn packets_and_updates_accounted() {
        let rules = small_rules();
        let tree = Arc::new(rules.tree().clone());
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(2, 3));
        let hot = rules.node_of(parse_prefix("192.168.0.0/16").unwrap()).unwrap();
        let addr = 0xC0A8_0001; // 192.168.0.1 → the /16 rule
        let events = vec![
            FibEvent::Packet(addr),
            FibEvent::Packet(addr), // second miss saturates → fetch
            FibEvent::Packet(addr), // hit
            FibEvent::Update(hot),  // α = 2 negatives, rule cached
        ];
        let report = run_fib(&rules, &mut tc, &events, 2);
        assert_eq!(report.packets, 3);
        assert_eq!(report.misses, 2);
        assert_eq!(report.hits, 1);
        assert_eq!(report.updates, 1);
        assert_eq!(report.updates_while_cached, 1);
        // Costs: 2 misses + fetch(α=2) + 2 paid negatives + eviction(α=2).
        assert_eq!(report.service_cost, 4);
        assert_eq!(report.reorg_cost, 4);
    }

    #[test]
    fn forwarding_always_correct_under_tc() {
        let rules = small_rules();
        let tree = Arc::new(rules.tree().clone());
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(2, 4));
        let mut rng = SplitMix64::new(1);
        let cfg = FibWorkloadConfig { events: 2000, theta: 1.0, update_p: 0.05, addr_attempts: 16 };
        let events = generate_events(&rules, cfg, &mut rng);
        let probes: Vec<u32> = (0..64).map(|_| rng.next_u64() as u32).collect();
        for chunk in events.chunks(100) {
            run_fib(&rules, &mut tc, chunk, 2);
            assert_eq!(
                forwarding_violations(&rules, tc.cache(), &probes),
                0,
                "subforest invariant must imply forwarding correctness"
            );
        }
    }

    #[test]
    fn request_stream_translation() {
        let rules = small_rules();
        let hot = rules.node_of(parse_prefix("10.1.2.0/24").unwrap()).unwrap();
        let events =
            vec![FibEvent::Packet(0x0A01_0203), FibEvent::Update(hot), FibEvent::Packet(0)];
        let (reqs, chunks) = to_request_stream(&rules, &events, 3);
        assert_eq!(reqs.len(), 1 + 3 + 1);
        assert_eq!(chunks, vec![1..4]);
        assert!(reqs[0].is_positive());
        assert_eq!(reqs[0].node, hot, "10.1.2.3 matches the /24");
        assert!(!reqs[1].is_positive());
        assert_eq!(reqs[4].node, NodeId(0), "address 0.0.0.0 → default route");
    }

    #[test]
    fn generator_respects_update_fraction() {
        let rules = small_rules();
        let mut rng = SplitMix64::new(2);
        let cfg =
            FibWorkloadConfig { events: 20_000, theta: 0.8, update_p: 0.2, addr_attempts: 16 };
        let events = generate_events(&rules, cfg, &mut rng);
        let updates = events.iter().filter(|e| matches!(e, FibEvent::Update(_))).count();
        let frac = updates as f64 / events.len() as f64;
        assert!((0.17..0.23).contains(&frac), "update fraction {frac}");
    }

    #[test]
    fn lru_bleeds_on_churn_tc_adapts() {
        // A hot rule that also churns: TC eventually stops caching it,
        // LRU keeps paying α per update forever.
        let rules = small_rules();
        let tree = Arc::new(rules.tree().clone());
        let hot = rules.node_of(parse_prefix("192.168.0.0/16").unwrap()).unwrap();
        let addr = 0xC0A8_0001;
        let alpha = 4u64;
        // Pattern: a burst of packets, then a heavier burst of updates.
        // TC stops paying after α negative rounds (it evicts); LRU pays
        // every single negative round of every update chunk.
        let mut events = Vec::new();
        for _ in 0..50 {
            for _ in 0..4 {
                events.push(FibEvent::Packet(addr));
            }
            for _ in 0..8 {
                events.push(FibEvent::Update(hot));
            }
        }
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(alpha, 4));
        let tc_report = run_fib(&rules, &mut tc, &events, alpha);
        let mut lru = DependentSetPolicy::lru(Arc::clone(&tree), 4);
        let lru_report = run_fib(&rules, &mut lru, &events, alpha);
        assert!(
            tc_report.total_cost() < lru_report.total_cost(),
            "TC {} must beat LRU {} under churn",
            tc_report.total_cost(),
            lru_report.total_cost()
        );
    }

    #[test]
    fn empty_events() {
        let rules = small_rules();
        let tree = Arc::new(rules.tree().clone());
        let mut tc = TcFast::new(Arc::clone(&tree), TcConfig::new(2, 2));
        let report = run_fib(&rules, &mut tc, &[], 2);
        assert_eq!(report.total_cost(), 0);
        assert_eq!(report.miss_rate(), 0.0);
    }

    #[test]
    fn resumed_run_fib_accumulates() {
        // Chunked drives with one persistent policy must agree with one
        // continuous drive (the engine adopts the policy's cache state).
        let rules = small_rules();
        let tree = Arc::new(rules.tree().clone());
        let mut rng = SplitMix64::new(9);
        let cfg = FibWorkloadConfig { events: 1500, theta: 1.0, update_p: 0.05, addr_attempts: 16 };
        let events = generate_events(&rules, cfg, &mut rng);
        let mut tc_once = TcFast::new(Arc::clone(&tree), TcConfig::new(2, 3));
        let full = run_fib(&rules, &mut tc_once, &events, 2);
        let mut tc_chunked = TcFast::new(Arc::clone(&tree), TcConfig::new(2, 3));
        let mut sum = FibReport { name: full.name.clone(), ..FibReport::default() };
        for chunk in events.chunks(97) {
            sum.add(&run_fib(&rules, &mut tc_chunked, chunk, 2));
        }
        assert_eq!(sum, full);
    }

    #[test]
    fn sharded_fib_telemetry_windows_account_the_pipeline() {
        use otc_core::forest::ShardId;
        use otc_core::tree::Tree;

        let rules = small_rules();
        let mut rng = SplitMix64::new(11);
        let cfg = FibWorkloadConfig { events: 5000, theta: 1.0, update_p: 0.08, addr_attempts: 16 };
        let events = generate_events(&rules, cfg, &mut rng);
        let alpha = 2u64;
        let factory = |tree: Arc<Tree>, _shard: ShardId| {
            Box::new(TcFast::new(tree, TcConfig::new(alpha, 2)))
                as Box<dyn otc_core::policy::CachePolicy>
        };
        let window = 512usize;
        let engine_cfg = EngineConfig::bare(alpha).audit_every(window).telemetry(true);
        let observed = run_fib_sharded_cfg(&rules, &factory, &events, engine_cfg, 2);
        // Telemetry never changes the run…
        let plain = run_fib_sharded(&rules, &factory, &events, alpha, 2, 2);
        assert_eq!(observed.total, plain.total);
        assert_eq!(observed.per_shard, plain.per_shard);
        assert!(plain.timeline.windows.is_empty(), "no telemetry without the knob");
        // …and its windows account the pipeline's reorganisation cost and
        // paid negatives + misses exactly.
        let tl = &observed.timeline;
        assert!(!tl.windows.is_empty());
        assert_eq!(tl.alpha, alpha);
        assert_eq!(
            tl.sum(|w| w.reorg_cost(alpha)),
            observed.total.reorg_cost,
            "window reorg breakdown must reassemble the FIB report's reorg cost"
        );
        assert_eq!(
            tl.sum(|w| w.paid_rounds),
            observed.total.service_cost,
            "window paid rounds must reassemble the FIB report's service cost"
        );
        for w in &tl.windows {
            assert!(!w.partial || w.rounds <= window as u64);
            assert!(w.occupancy <= 2, "per-shard TCAM slice is 2 slots");
        }
    }

    #[test]
    fn sharded_fib_matches_sum_of_per_shard_runs() {
        use otc_core::forest::{Forest, ShardId};
        use otc_core::policy::CachePolicy;
        use otc_core::tree::Tree;

        let rules = small_rules();
        let mut rng = SplitMix64::new(3);
        let cfg = FibWorkloadConfig { events: 4000, theta: 1.0, update_p: 0.05, addr_attempts: 16 };
        let events = generate_events(&rules, cfg, &mut rng);
        let alpha = 2u64;
        let factory = |tree: Arc<Tree>, _shard: ShardId| {
            Box::new(TcFast::new(tree, TcConfig::new(alpha, 2))) as Box<dyn CachePolicy>
        };
        for shards in [1usize, 2] {
            let sharded = run_fib_sharded(&rules, &factory, &events, alpha, shards, shards);
            let forest = Forest::partition(rules.tree(), shards);
            assert_eq!(sharded.per_shard.len(), forest.num_shards());
            let per_shard_events = route_events(&rules, &forest, &events);
            let mut sum = FibReport { name: "tc".to_string(), ..FibReport::default() };
            for (s, shard_events) in per_shard_events.iter().enumerate() {
                let sid = ShardId(s as u32);
                let mut policy = factory(Arc::clone(forest.tree(sid)), sid);
                let solo = run_fib_routed(forest.tree(sid), policy.as_mut(), shard_events, alpha);
                assert_eq!(sharded.per_shard[s], solo, "shard {s}");
                sum.add(&solo);
            }
            assert_eq!(sharded.total, sum, "{shards} shards");
        }
    }
}
