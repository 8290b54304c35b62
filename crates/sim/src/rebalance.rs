//! Deterministic dynamic resharding: detect skew, plan cell migrations,
//! and replay the schedule from a trace.
//!
//! The unit of migration is a **cell**: one shard of the finest
//! root-partition forest ([`otc_core::forest::Forest::cells`]). Cells are
//! the engine's shards, so every cell carries its own policy, verified
//! driver and report — and *where* a cell executes (which serving group
//! owns it) can never change any cost. That is what makes rebalancing
//! deterministic by construction: per-cell reports, telemetry and costs
//! are placement-invariant, and only the placement itself has to be
//! reproduced (determinism invariant #7, `DESIGN.md`).
//!
//! The decision pipeline:
//!
//! 1. every `interval` accepted requests is a **boundary**; the per-cell
//!    cumulative loads at the boundary prefix (rounds, paid rounds,
//!    occupancy — all pure functions of the request stream) are sampled;
//! 2. [`plan`] — a pure function of those loads and the current
//!    [`RoutingTable`] — decides which cells move to which group;
//! 3. the table applies the moves and bumps its epoch (one bump per
//!    boundary, moves or not), and the decision is logged as a
//!    [`RebalanceRecord`] in the OTCT stream.
//!
//! Records are **verification anchors, not the source of truth**:
//! [`replay_trace_rebalancing`] recomputes every decision from the
//! requests alone and checks each record it finds bit-for-bit. A record
//! torn off by a crash is truncated away with the log tail and simply
//! never verified — the recomputed schedule is unaffected. Crash
//! recovery seeds a [`Rebalancer`] from the records in the durable log
//! prefix ([`Rebalancer::fold_record`]) and recomputes every boundary in
//! the replayed tail.

use otc_core::forest::{RoutingTable, ShardId};
use otc_core::request::Request;
use otc_workloads::rebalance::{CellLoad, RebalanceRecord};
use otc_workloads::trace::TraceReader;

use crate::engine::{EngineError, ShardedEngine};

/// Rebalancing knobs. All decision inputs are integers (the loads) and
/// all thresholds are integer ratios, so decisions are exactly
/// reproducible on any host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceConfig {
    /// Decision cadence: a boundary sits after every `interval` accepted
    /// requests.
    pub interval: u64,
    /// Imbalance trigger, scaled by 1000: plan moves only when
    /// `max_group_load · 1000 > threshold_x1000 · mean_group_load`
    /// (1250 = trigger above 1.25× the mean).
    pub threshold_x1000: u64,
    /// Most cell migrations per boundary (each migration serializes and
    /// reinstalls one cell's full state, so this caps boundary latency).
    pub max_moves: usize,
}

impl RebalanceConfig {
    /// A sane default: trigger above 1.25× the mean, at most 4 moves per
    /// boundary.
    ///
    /// # Panics
    /// Panics if `interval == 0` (there would be a boundary between
    /// every pair of requests *and* before the first).
    #[must_use]
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "rebalance interval must be positive");
        Self { interval, threshold_x1000: 1250, max_moves: 4 }
    }

    /// Sets the imbalance trigger (`1000` = any imbalance at all).
    #[must_use]
    pub fn threshold_x1000(mut self, t: u64) -> Self {
        self.threshold_x1000 = t.max(1000);
        self
    }

    /// Sets the per-boundary migration cap.
    #[must_use]
    pub fn max_moves(mut self, m: usize) -> Self {
        self.max_moves = m;
        self
    }
}

/// Plans the migrations for one boundary: a **pure function** of the
/// per-cell window weights (`weights[c]` = the cell's rounds + paid
/// rounds since the previous boundary), the per-cell occupancies
/// (tiebreak: lighter caches serialize into smaller handoff sections),
/// and the current placement. Deterministic by construction — every
/// tie breaks toward the lower group/cell id.
///
/// Greedy: while the heaviest group exceeds the trigger, move its
/// heaviest strictly-improving cell to the lightest group, up to
/// `cfg.max_moves`. Returns `(cell, destination group)` pairs in
/// decision order; empty when balanced (or fewer than two groups).
///
/// # Panics
/// Panics if `weights` / `occupancy` do not match the table's cell
/// count (caller bug, not data corruption).
#[must_use]
pub fn plan(
    weights: &[u64],
    occupancy: &[u64],
    table: &RoutingTable,
    cfg: &RebalanceConfig,
) -> Vec<(ShardId, u32)> {
    assert_eq!(weights.len(), table.num_cells(), "one weight per cell");
    assert_eq!(occupancy.len(), table.num_cells(), "one occupancy per cell");
    let groups = table.num_groups() as usize;
    if groups < 2 {
        return Vec::new();
    }
    // Working copies: the plan is computed against a simulated placement
    // so each greedy step sees the previous steps applied.
    let mut owner: Vec<u32> = table.owners().to_vec();
    let mut load = vec![0u64; groups];
    for (cell, &w) in weights.iter().enumerate() {
        load[owner[cell] as usize] += w;
    }
    let total: u64 = load.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut moves = Vec::new();
    while moves.len() < cfg.max_moves {
        let Some((src, &src_load)) =
            load.iter().enumerate().max_by_key(|&(g, &l)| (l, std::cmp::Reverse(g)))
        else {
            break; // unreachable: groups >= 2 was checked above
        };
        let Some((dst, &dst_load)) = load.iter().enumerate().min_by_key(|&(g, &l)| (l, g)) else {
            break;
        };
        // Trigger on the *current* max/mean ratio: max·1000 > t·mean
        // ⇔ max·1000·groups > t·total (all integer, overflow-safe in
        // u128).
        let imbalanced = u128::from(src_load) * 1000 * groups as u128
            > u128::from(cfg.threshold_x1000) * u128::from(total);
        if src == dst || !imbalanced {
            break;
        }
        // The heaviest cell of the overloaded group that still improves:
        // strict improvement (src stays heavier than dst becomes) keeps
        // the greedy monotone, so it terminates and never oscillates.
        let candidate = (0..owner.len())
            .filter(|&c| owner[c] as usize == src && weights[c] > 0)
            .filter(|&c| dst_load + weights[c] < src_load)
            .min_by_key(|&c| (std::cmp::Reverse(weights[c]), occupancy[c], c));
        let Some(cell) = candidate else { break };
        owner[cell] = dst as u32;
        load[src] -= weights[cell];
        load[dst] += weights[cell];
        moves.push((ShardId(cell as u32), dst as u32));
    }
    moves
}

/// The stateful decision driver shared by live serving and replay: holds
/// the routing table, the loads at the previous boundary, and the
/// boundary counter. Feeding the same boundary load samples in the same
/// order always produces the same records — which is exactly what
/// [`replay_trace_rebalancing`] exploits to verify a live run's log.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    cfg: RebalanceConfig,
    table: RoutingTable,
    /// Cumulative per-cell loads at the previous boundary (zeros before
    /// the first): a boundary's decision weights are the deltas.
    prev: Vec<CellLoad>,
    /// Boundaries decided so far; boundary `k` sits after `k·interval`
    /// accepted requests, so the next one fires at
    /// `(boundary + 1)·interval`.
    boundary: u64,
}

impl Rebalancer {
    /// A rebalancer over `table`'s cells, with no boundaries decided yet.
    #[must_use]
    pub fn new(cfg: RebalanceConfig, table: RoutingTable) -> Self {
        let prev = vec![CellLoad::default(); table.num_cells()];
        Self { cfg, table, prev, boundary: 0 }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RebalanceConfig {
        &self.cfg
    }

    /// The current routing table (epoch = boundaries decided).
    #[must_use]
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Boundaries decided so far.
    #[must_use]
    pub fn boundaries(&self) -> u64 {
        self.boundary
    }

    /// Absolute accepted-request count at which the next boundary fires.
    /// Absolute (not "requests since the last boundary") so a rebalancer
    /// seeded mid-log by recovery agrees with one that lived through the
    /// whole stream.
    #[must_use]
    pub fn next_boundary_at(&self) -> u64 {
        (self.boundary + 1).saturating_mul(self.cfg.interval)
    }

    /// Decides one boundary from the per-cell **cumulative** loads at
    /// the boundary prefix: plans against the deltas since the previous
    /// boundary, applies the moves (bumping the table epoch — once per
    /// boundary, moves or not), and returns the record to log.
    ///
    /// # Errors
    /// A loads vector of the wrong length, or cumulative counters that
    /// went backwards — both caller/state corruption, never a legal
    /// stream.
    pub fn on_boundary(&mut self, loads: &[CellLoad]) -> Result<RebalanceRecord, String> {
        if loads.len() != self.table.num_cells() {
            return Err(format!(
                "boundary sampled {} cells but the routing table covers {}",
                loads.len(),
                self.table.num_cells()
            ));
        }
        let mut weights = Vec::with_capacity(loads.len());
        let mut occupancy = Vec::with_capacity(loads.len());
        for (cell, (now, before)) in loads.iter().zip(&self.prev).enumerate() {
            let (Some(dr), Some(dp)) = (
                now.rounds.checked_sub(before.rounds),
                now.paid_rounds.checked_sub(before.paid_rounds),
            ) else {
                return Err(format!("cell {cell}: cumulative load went backwards"));
            };
            weights.push(dr + dp);
            occupancy.push(now.occupancy);
        }
        let moves = plan(&weights, &occupancy, &self.table, &self.cfg);
        let epoch = self.table.apply(&moves).map_err(|e| e.to_string())?;
        self.boundary += 1;
        self.prev.clear();
        self.prev.extend_from_slice(loads);
        Ok(RebalanceRecord {
            boundary: self.boundary,
            epoch,
            loads: loads.to_vec(),
            moves: moves.into_iter().map(|(c, g)| (c.0, g)).collect(),
        })
    }

    /// Advances this rebalancer over a record read from a durable log
    /// **without recomputing the decision** — the crash-recovery seed:
    /// the records in the log prefix a snapshot already covers are
    /// complete and consistent (torn ones were truncated with the tail),
    /// so folding them reconstructs the table, the previous-boundary
    /// loads and the boundary counter at the snapshot point. Every
    /// boundary *after* the seed is recomputed, so a forged prefix
    /// record still cannot steer decisions it does not itself contain.
    ///
    /// # Errors
    /// Out-of-order boundaries, wrong cell counts, invalid moves, or an
    /// epoch that does not match the applied table.
    pub fn fold_record(&mut self, record: &RebalanceRecord) -> Result<(), String> {
        if record.boundary != self.boundary + 1 {
            return Err(format!(
                "rebalance record for boundary {} cannot follow boundary {}",
                record.boundary, self.boundary
            ));
        }
        if record.loads.len() != self.table.num_cells() {
            return Err(format!(
                "rebalance record covers {} cells but the routing table has {}",
                record.loads.len(),
                self.table.num_cells()
            ));
        }
        let moves: Vec<(ShardId, u32)> =
            record.moves.iter().map(|&(c, g)| (ShardId(c), g)).collect();
        let epoch = self.table.apply(&moves).map_err(|e| e.to_string())?;
        if epoch != record.epoch {
            return Err(format!(
                "rebalance record claims epoch {} but applying its moves yields {epoch}",
                record.epoch
            ));
        }
        self.boundary = record.boundary;
        self.prev.clear();
        self.prev.extend_from_slice(&record.loads);
        Ok(())
    }
}

/// What [`replay_trace_rebalancing`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReplay {
    /// Every boundary decision recomputed during the replay, in order —
    /// the full rebalance schedule of the replayed segment.
    pub schedule: Vec<RebalanceRecord>,
    /// Requests replayed.
    pub replayed: u64,
    /// Records found in the trace and verified bit-identical to the
    /// recomputed decision. `schedule.len() - verified` boundaries had
    /// no surviving record (legal only for a crash-torn final record).
    pub verified: u64,
    /// The stream ended inside a record (crash tear): the replay covers
    /// the longest consistent prefix.
    pub torn_tail: bool,
}

/// Replays a (possibly rebalance-flagged) trace through `engine`,
/// recomputing the rebalance schedule from the request stream and
/// verifying every surviving record against it.
///
/// `engine` must be the **cells engine** — one shard per
/// [`Rebalancer`] cell — positioned at the stream point `reader` and
/// `rebalancer` agree on (fresh engine + fresh reader + fresh
/// rebalancer, or snapshot-restored engine + seeked reader + seeded
/// rebalancer). Boundaries fire on the reader's absolute record count,
/// so both cases recompute the identical schedule.
///
/// A torn tail (`UnexpectedEof`) ends the replay normally, like
/// [`ShardedEngine::replay_tail`]; in-universe corruption is a hard
/// error. It runs the same replay loop as [`ShardedEngine::replay_trace`],
/// so it refuses a trace whose declared universe differs from the
/// forest's, too.
///
/// # Errors
/// Trace corruption, a record that contradicts the recomputed decision
/// (the log lies about its own history), universe/shape mismatches,
/// routing errors, and protocol violations.
pub fn replay_trace_rebalancing<R: std::io::Read>(
    engine: &mut ShardedEngine<'_>,
    reader: &mut TraceReader<R>,
    rebalancer: &mut Rebalancer,
    chunk: &mut Vec<Request>,
) -> Result<RebalanceReplay, EngineError> {
    if engine.num_shards() != rebalancer.table().num_cells() {
        return Err(EngineError {
            shard: None,
            message: format!(
                "engine has {} shards but the rebalancer routes {} cells",
                engine.num_shards(),
                rebalancer.table().num_cells()
            ),
        });
    }
    engine.replay_events(reader, chunk, Some(rebalancer), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_core::forest::Forest;
    use otc_core::policy::CachePolicy;
    use otc_core::tc::{TcConfig, TcFast};
    use otc_core::tree::{NodeId, Tree};
    use otc_util::SplitMix64;
    use std::sync::Arc;

    use crate::engine::EngineConfig;
    use otc_workloads::trace::{TraceHeader, TraceWriter, TRACE_FLAG_REBALANCE};

    fn factory(tree: Arc<Tree>, _s: ShardId) -> Box<dyn CachePolicy> {
        Box::new(TcFast::new(tree, TcConfig::new(2, 3)))
    }

    fn skewed(n: usize, len: usize, seed: u64, hot: u32) -> Vec<Request> {
        // 70% of traffic hammers one hot node; the rest is uniform.
        let mut rng = SplitMix64::new(seed);
        (0..len)
            .map(|_| {
                let v = if rng.chance(0.7) { NodeId(hot) } else { NodeId(rng.index(n) as u32) };
                if rng.chance(0.3) {
                    Request::neg(v)
                } else {
                    Request::pos(v)
                }
            })
            .collect()
    }

    #[test]
    fn plan_is_deterministic_and_respects_the_trigger() {
        let cfg = RebalanceConfig::new(100).threshold_x1000(1250).max_moves(4);
        let table = RoutingTable::new(vec![0, 0, 1, 1], 2).unwrap();
        // Balanced loads: no moves regardless of the cell spread.
        assert!(plan(&[10, 10, 10, 10], &[5, 5, 5, 5], &table, &cfg).is_empty());
        // All the heat on group 0: the heavy cell moves to group 1.
        let moves = plan(&[100, 5, 1, 1], &[9, 2, 1, 1], &table, &cfg);
        assert_eq!(moves.first(), Some(&(ShardId(0), 1)));
        // Deterministic: same inputs, same plan.
        assert_eq!(moves, plan(&[100, 5, 1, 1], &[9, 2, 1, 1], &table, &cfg));
        // A single group can never move anything.
        let solo = RoutingTable::new(vec![0, 0, 0, 0], 1).unwrap();
        assert!(plan(&[100, 5, 1, 1], &[9, 2, 1, 1], &solo, &cfg).is_empty());
        // Occupancy breaks weight ties: the lighter cache moves.
        let moves = plan(&[50, 50, 0, 0], &[8, 2, 0, 0], &table, &cfg);
        assert_eq!(moves.first(), Some(&(ShardId(1), 1)));
    }

    #[test]
    fn plan_moves_improve_strictly_and_terminate() {
        let cfg = RebalanceConfig::new(10).threshold_x1000(1000).max_moves(100);
        let table = RoutingTable::new(vec![0; 6], 3).unwrap();
        let weights = [30u64, 20, 10, 5, 3, 1];
        let occ = [1u64; 6];
        let moves = plan(&weights, &occ, &table, &cfg);
        assert!(!moves.is_empty());
        // Replaying the plan yields strictly better max load than the
        // start, and no cell moves twice.
        let mut owner = table.owners().to_vec();
        let mut seen = std::collections::BTreeSet::new();
        for &(c, g) in &moves {
            assert!(seen.insert(c), "cell {c:?} moved twice in one plan");
            owner[c.index()] = g;
        }
        let mut load = [0u64; 3];
        for (c, &w) in weights.iter().enumerate() {
            load[owner[c] as usize] += w;
        }
        assert!(*load.iter().max().unwrap() < weights.iter().sum::<u64>());
    }

    #[test]
    fn on_boundary_uses_window_deltas_not_cumulative_loads() {
        let cfg = RebalanceConfig::new(100).threshold_x1000(1000);
        let table = RoutingTable::new(vec![0, 1], 2).unwrap();
        let mut reb = Rebalancer::new(cfg, table);
        // Boundary 1: cell 0 did all the work.
        let rec = reb
            .on_boundary(&[
                CellLoad { rounds: 100, paid_rounds: 50, occupancy: 3 },
                CellLoad { rounds: 0, paid_rounds: 0, occupancy: 0 },
            ])
            .unwrap();
        assert_eq!((rec.boundary, rec.epoch), (1, 1));
        // Two cells, two groups, each group one cell: moving the hot
        // cell would just swap the imbalance, so no strict improvement.
        assert!(rec.moves.is_empty());
        // Boundary 2: cumulative totals still favour cell 0, but the
        // *window* was all cell 1 — deltas, not totals, must drive it.
        let rec = reb
            .on_boundary(&[
                CellLoad { rounds: 100, paid_rounds: 50, occupancy: 3 },
                CellLoad { rounds: 90, paid_rounds: 40, occupancy: 2 },
            ])
            .unwrap();
        assert_eq!((rec.boundary, rec.epoch), (2, 2));
        assert!(rec.moves.is_empty(), "1 cell per group: nothing to move");
        // Going backwards is corruption.
        assert!(reb.on_boundary(&[CellLoad::default(); 2]).is_err());
    }

    #[test]
    fn fold_record_reconstructs_the_decision_state() {
        let cfg = RebalanceConfig::new(50).threshold_x1000(1000);
        let tree = Tree::star(8);
        let forest = Forest::cells(&tree);
        let cells = forest.num_shards();
        let table = RoutingTable::lpt(&vec![1; cells], 2);
        let mut live = Rebalancer::new(cfg, table.clone());
        let mut loads = vec![CellLoad::default(); cells];
        let mut records = Vec::new();
        let mut rng = SplitMix64::new(9);
        for _ in 0..5 {
            for (c, l) in loads.iter_mut().enumerate() {
                l.rounds += rng.index(40 + 100 * c) as u64;
                l.paid_rounds = l.rounds / 2;
                l.occupancy = (c % 3) as u64;
            }
            records.push(live.on_boundary(&loads).unwrap());
        }
        // A fresh rebalancer folding the records lands in the identical
        // state: same table, same epoch, same next decision.
        let mut seeded = Rebalancer::new(cfg, table);
        for r in &records {
            seeded.fold_record(r).unwrap();
        }
        assert_eq!(seeded.table().owners(), live.table().owners());
        assert_eq!(seeded.table().epoch(), live.table().epoch());
        assert_eq!(seeded.boundaries(), live.boundaries());
        for (c, l) in loads.iter_mut().enumerate() {
            l.rounds += 10 + c as u64;
        }
        assert_eq!(seeded.on_boundary(&loads).unwrap(), live.on_boundary(&loads).unwrap());
        // Out-of-order and epoch-forged records are refused.
        let mut bad = Rebalancer::new(cfg, RoutingTable::lpt(&vec![1; cells], 2));
        assert!(bad.fold_record(&records[1]).is_err(), "skipping a boundary");
        let mut forged = records[0].clone();
        forged.epoch += 7;
        assert!(bad.fold_record(&forged).is_err(), "epoch must match the applied table");
    }

    #[test]
    fn replay_recomputes_and_verifies_a_recorded_schedule() {
        // A "live" cells run: execute requests, record boundaries into a
        // rebalance-flagged trace. Then replay the trace and demand the
        // identical schedule plus per-cell reports.
        let tree = Tree::star(12);
        let forest = Forest::cells(&tree);
        let cells = forest.num_shards();
        let reqs = skewed(tree.len(), 3000, 5, 3);
        let interval = 500u64;
        let cfg = RebalanceConfig::new(interval).threshold_x1000(1000);
        let table = || RoutingTable::lpt(&vec![1u64; cells], 3);

        let header = TraceHeader::single_tree(tree.len(), 5, "rebalance-live");
        let mut w =
            TraceWriter::with_flags(std::io::Cursor::new(Vec::new()), header, TRACE_FLAG_REBALANCE)
                .unwrap();
        let mut live = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(2));
        let mut live_reb = Rebalancer::new(cfg, table());
        let mut live_schedule = Vec::new();
        for (i, &r) in reqs.iter().enumerate() {
            live.submit(r).expect("valid");
            w.push(r).unwrap();
            if (i as u64 + 1).is_multiple_of(interval) {
                let loads = live.cell_loads().expect("valid");
                let rec = live_reb.on_boundary(&loads).unwrap();
                w.push_rebalance(&rec).unwrap();
                live_schedule.push(rec);
            }
        }
        let bytes = w.finish().unwrap().into_inner();
        assert!(live_schedule.iter().any(|r| !r.moves.is_empty()), "skew must trigger moves");

        let mut replay = ShardedEngine::new(forest, &factory, EngineConfig::new(2));
        let mut reader = TraceReader::new(std::io::Cursor::new(&bytes)).unwrap();
        let mut reb = Rebalancer::new(cfg, table());
        let mut chunk = Vec::new();
        let out = replay_trace_rebalancing(&mut replay, &mut reader, &mut reb, &mut chunk)
            .expect("replay verifies");
        assert_eq!(out.schedule, live_schedule, "identical rebalance schedule");
        assert_eq!(out.verified, live_schedule.len() as u64, "every record verified");
        assert_eq!(out.replayed, reqs.len() as u64);
        assert!(!out.torn_tail);
        assert_eq!(reb.table().owners(), live_reb.table().owners());
        assert_eq!(
            replay.into_reports().expect("valid"),
            live.into_reports().expect("valid"),
            "per-cell reports are placement- and replay-invariant"
        );
    }

    #[test]
    fn replay_rejects_a_record_that_contradicts_the_stream() {
        let tree = Tree::star(6);
        let forest = Forest::cells(&tree);
        let cells = forest.num_shards();
        let reqs = skewed(tree.len(), 200, 3, 1);
        let cfg = RebalanceConfig::new(100).threshold_x1000(1000);
        let header = TraceHeader::single_tree(tree.len(), 3, "forged");
        let mut w =
            TraceWriter::with_flags(std::io::Cursor::new(Vec::new()), header, TRACE_FLAG_REBALANCE)
                .unwrap();
        let mut live = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(2));
        let mut reb = Rebalancer::new(cfg, RoutingTable::lpt(&vec![1; cells], 2));
        for (i, &r) in reqs.iter().enumerate() {
            live.submit(r).expect("valid");
            w.push(r).unwrap();
            if (i as u64 + 1).is_multiple_of(100) {
                let mut rec = reb.on_boundary(&live.cell_loads().expect("valid")).unwrap();
                if i as u64 + 1 == 200 {
                    // Forge the second record's loads.
                    rec.loads[0].rounds += 1;
                }
                w.push_rebalance(&rec).unwrap();
            }
        }
        let bytes = w.finish().unwrap().into_inner();
        let mut replay = ShardedEngine::new(forest, &factory, EngineConfig::new(2));
        let mut reader = TraceReader::new(std::io::Cursor::new(&bytes)).unwrap();
        let mut reb = Rebalancer::new(cfg, RoutingTable::lpt(&vec![1; cells], 2));
        let err = replay_trace_rebalancing(&mut replay, &mut reader, &mut reb, &mut Vec::new())
            .unwrap_err();
        assert!(err.message.contains("does not match"), "got: {err}");
    }

    #[test]
    fn replay_tolerates_a_torn_final_record() {
        // Crash mid-record-write: the record is truncated away; replay
        // covers every complete request and recomputes the decision the
        // torn record would have anchored.
        let tree = Tree::star(6);
        let forest = Forest::cells(&tree);
        let cells = forest.num_shards();
        let reqs = skewed(tree.len(), 100, 7, 1);
        let cfg = RebalanceConfig::new(100).threshold_x1000(1000);
        let header = TraceHeader::single_tree(tree.len(), 7, "torn");
        let mut w =
            TraceWriter::with_flags(std::io::Cursor::new(Vec::new()), header, TRACE_FLAG_REBALANCE)
                .unwrap();
        let mut live = ShardedEngine::new(forest.clone(), &factory, EngineConfig::new(2));
        let mut reb = Rebalancer::new(cfg, RoutingTable::lpt(&vec![1; cells], 2));
        for &r in &reqs {
            live.submit(r).expect("valid");
            w.push(r).unwrap();
        }
        let rec = reb.on_boundary(&live.cell_loads().expect("valid")).unwrap();
        w.push_rebalance(&rec).unwrap();
        let mut disk = w.finish().unwrap().into_inner();
        disk.truncate(disk.len() - 2); // tear inside the trailing record

        let mut replay = ShardedEngine::new(forest, &factory, EngineConfig::new(2));
        let mut reader = TraceReader::new(std::io::Cursor::new(&disk)).unwrap();
        let mut reb2 = Rebalancer::new(cfg, RoutingTable::lpt(&vec![1; cells], 2));
        let out = replay_trace_rebalancing(&mut replay, &mut reader, &mut reb2, &mut Vec::new())
            .expect("torn tail tolerated");
        assert!(out.torn_tail);
        assert_eq!(out.replayed, 100);
        assert_eq!(out.verified, 0, "the only record was torn away");
        assert_eq!(out.schedule, vec![rec], "the decision is recomputed anyway");
        assert_eq!(replay.into_reports().expect("valid"), live.into_reports().expect("valid"));
    }
}
