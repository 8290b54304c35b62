//! Live cell migration: the serving-side half of [`otc_sim::rebalance`].
//!
//! The sim crate owns the *decisions* (boundary detection, the pure
//! [`otc_sim::rebalance::plan`], record verification on replay); this
//! module owns the *mechanics* of acting on a decision inside a running
//! [`crate::Server`] without stopping it:
//!
//! * [`RebalancePolicy`] — what the user configures on
//!   [`crate::ServeConfig`]: group count and decision cadence;
//! * `Probe` (crate-private) — the boundary's load sample: a marker
//!   floated down every lane ring (like a snapshot cut), so each lane
//!   reports its cells' cumulative loads after executing *exactly* the
//!   boundary prefix;
//! * `Handoff` (crate-private) — the migration rendezvous between two
//!   lanes (worker threads): the source lane removes the cell's
//!   [`ShardWorker`] from its map and offers it; the destination lane
//!   blocks on `Handoff::take` and inserts the same worker before
//!   touching any request enqueued after the boundary. The cell's state
//!   moves, it is never copied, so a migrated cell is bit-identical by
//!   construction. A move between two groups on the same lane needs no
//!   handoff: the routing table alone moves the cell.
//!
//! Deadlock-freedom of the rendezvous is purely an ordering argument:
//! ingress pushes **all** `MigrateOut` markers before **any** `Install`
//! marker, so per-ring FIFO guarantees every lane offers its outgoing
//! cells before it can block waiting for an incoming one.
//! That argument needs each cell to migrate at most once per boundary,
//! so a decision is first collapsed into one net move per cell
//! (`net_moves`). `server.rs` documents the full protocol.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

use otc_core::forest::{RouteError, RoutingTable};
use otc_core::policy::PolicyFactory;
use otc_sim::worker::ShardWorker;
use otc_sim::RebalanceConfig;
use otc_workloads::rebalance::CellLoad;

use crate::server::locked;

/// Turns a [`crate::Server`] into a dynamically resharded service: the
/// engine's cells (root-child subtrie shards) are spread over `groups`
/// serving groups, and every [`RebalanceConfig::interval`]
/// accepted requests the service re-plans the placement and migrates
/// cells between groups — deterministically, as a pure function of the
/// logged request stream (determinism invariant #7, `DESIGN.md`).
#[derive(Clone)]
pub struct RebalancePolicy {
    /// Serving groups the cells are spread over: the unit the rebalancer
    /// places, logs and replays. Must satisfy `1 <= groups <= cells`. The
    /// groups run on `min(groups, available_parallelism())` worker
    /// threads, so this is not a thread count.
    pub groups: u32,
    /// Decision cadence and thresholds (see [`otc_sim::rebalance`]).
    pub config: RebalanceConfig,
    /// Unread: a migration moves the cell's live worker, so the service
    /// never builds a policy. It exists only because the `benchmark/`
    /// package still constructs a `RebalancePolicy` through
    /// [`RebalancePolicy::new`].
    pub factory: Arc<dyn PolicyFactory + Send + Sync>,
}

impl fmt::Debug for RebalancePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RebalancePolicy")
            .field("groups", &self.groups)
            .field("config", &self.config)
            .field("factory", &"<dyn PolicyFactory>")
            .finish()
    }
}

impl RebalancePolicy {
    /// Bundles the groups and the decision cadence of a rebalancing
    /// service; `factory` is stored but unread (see
    /// [`RebalancePolicy::factory`]).
    pub fn new(
        groups: u32,
        config: RebalanceConfig,
        factory: Arc<dyn PolicyFactory + Send + Sync>,
    ) -> Self {
        Self { groups, config, factory }
    }

    /// The initial placement for `cells` cells over this policy's
    /// groups: see [`initial_table`].
    ///
    /// # Errors
    /// `groups == 0`, or more groups than cells.
    pub fn initial_table(&self, cells: usize) -> Result<RoutingTable, RouteError> {
        initial_table(cells, self.groups)
    }
}

/// The canonical initial placement of a rebalancing service: cell `i`
/// starts on group `i % groups` (epoch 0). Fixed round-robin — **not**
/// load-aware — so a replaying verifier can construct the identical
/// starting table from the shard count alone, without any load oracle.
///
/// # Errors
/// `groups == 0`, or more groups than cells (round-robin would leave a
/// group empty, and an empty group's load is indistinguishable from a
/// missing one — reject the shape instead).
pub fn initial_table(cells: usize, groups: u32) -> Result<RoutingTable, RouteError> {
    if groups == 0 || groups as usize > cells {
        return Err(RouteError::UnknownGroup {
            group: groups,
            groups: u32::try_from(cells).unwrap_or(u32::MAX),
        });
    }
    let owners = (0..cells).map(|i| u32::try_from(i).unwrap_or(u32::MAX) % groups).collect();
    RoutingTable::new(owners, groups)
}

/// Collapses one boundary's decided `(cell, destination)` moves into
/// the migrations the live service executes: one `(cell, source,
/// destination)` per cell, the source being the cell's owner in
/// `owners_before` and the destination its owner after the last of its
/// moves. Cells that end where they started are dropped; the rest keep
/// the order of their first move.
///
/// [`otc_sim::rebalance::plan`] is greedy over a simulated placement, so
/// one decision can move a cell twice (A→B, then B→C). Executing those
/// moves one by one cannot work live: the second `MigrateOut` would
/// reach a group that no longer hosts the cell (or, with the current
/// owner as source, arrive before that group's `Install`). The net
/// moves reach the same placement as applying the logged record, which
/// stays the source of truth for replay.
///
/// # Errors
/// A move of a cell outside `owners_before`.
pub(crate) fn net_moves(
    owners_before: &[u32],
    moves: &[(u32, u32)],
) -> Result<Vec<(u32, u32, u32)>, String> {
    let mut net: Vec<(u32, u32, u32)> = Vec::with_capacity(moves.len());
    for &(cell, dst) in moves {
        // A plan is at most `max_moves` long: a linear scan beats a map.
        if let Some(m) = net.iter_mut().find(|m| m.0 == cell) {
            m.2 = dst;
            continue;
        }
        let Some(&src) = owners_before.get(cell as usize) else {
            return Err(format!("planned move of unknown cell {cell}"));
        };
        net.push((cell, src, dst));
    }
    net.retain(|&(_, src, dst)| src != dst);
    Ok(net)
}

/// One boundary's load sample, shared by every lane ring. Each lane
/// fills the slots of the cells it hosts after executing exactly the
/// boundary prefix (FIFO); ingress blocks on [`Probe::wait_all`] until
/// every cell reported.
pub(crate) struct Probe {
    slots: Mutex<Vec<Option<CellLoad>>>,
    cv: Condvar,
}

impl Probe {
    pub(crate) fn new(cells: usize) -> Self {
        Self { slots: Mutex::new(vec![None; cells]), cv: Condvar::new() }
    }

    /// Reports the loads of the cells this lane hosts.
    pub(crate) fn fill<I: IntoIterator<Item = (usize, CellLoad)>>(&self, loads: I) {
        let mut slots = locked(&self.slots);
        for (cell, load) in loads {
            if let Some(slot) = slots.get_mut(cell) {
                *slot = Some(load);
            }
        }
        self.cv.notify_all();
    }

    /// Blocks until every cell's load arrived, then returns them in cell
    /// order. Safe to call while holding the ingress lock: lane threads
    /// never take the ingress lock, so they always make progress toward
    /// filling the probe.
    pub(crate) fn wait_all(&self) -> Vec<CellLoad> {
        let mut slots = locked(&self.slots);
        while slots.iter().any(Option::is_none) {
            slots = self.cv.wait(slots).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        slots.iter().map(|s| s.unwrap_or_default()).collect()
    }
}

/// The one-shot rendezvous of one cell migration: the source lane
/// offers the cell's worker (or the reason it could not), the
/// destination lane blocks until it arrives.
pub(crate) struct Handoff {
    slot: Mutex<Option<Result<ShardWorker, String>>>,
    cv: Condvar,
}

impl Handoff {
    pub(crate) fn new() -> Self {
        Self { slot: Mutex::new(None), cv: Condvar::new() }
    }

    /// Source side: publish the cell (or the failure).
    pub(crate) fn offer(&self, cell: Result<ShardWorker, String>) {
        *locked(&self.slot) = Some(cell);
        self.cv.notify_all();
    }

    /// Destination side: block until the source published.
    pub(crate) fn take(&self) -> Result<ShardWorker, String> {
        let mut slot = locked(&self.slot);
        loop {
            match slot.take() {
                Some(cell) => return cell,
                None => {
                    slot = self.cv.wait(slot).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_core::forest::ShardId;
    use otc_util::SplitMix64;
    use proptest::prelude::*;

    #[test]
    fn initial_table_is_round_robin_and_validated() {
        let t = initial_table(5, 2).unwrap();
        assert_eq!(t.owners(), &[0, 1, 0, 1, 0]);
        assert_eq!(t.epoch(), 0);
        assert!(initial_table(2, 3).is_err(), "more groups than cells");
        assert!(initial_table(3, 0).is_err(), "zero groups");
    }

    #[test]
    fn handoff_rendezvous_delivers_across_threads() {
        let handoff = Arc::new(Handoff::new());
        let taker = {
            let handoff = Arc::clone(&handoff);
            std::thread::spawn(move || handoff.take())
        };
        handoff.offer(Err("nothing to move".to_string()));
        let got = taker.join().expect("no panic");
        assert_eq!(got.err().as_deref(), Some("nothing to move"));
    }

    /// The plan that poisoned a live `max_moves(4)` service: cell 3
    /// moves 2→3 and later 3→1, cell 1 moves 0→3. Live execution must
    /// migrate cell 3 once, straight from group 2 to group 1.
    #[test]
    fn net_moves_collapse_a_cell_moved_twice() {
        let owners = vec![0, 0, 2, 2, 1, 2];
        let table = RoutingTable::new(owners.clone(), 4).expect("valid");
        let weights = [577, 635, 503, 523, 573, 405];
        let cfg = RebalanceConfig::new(100).max_moves(4);
        let moves: Vec<(u32, u32)> = otc_sim::plan(&weights, &[0; 6], &table, &cfg)
            .into_iter()
            .map(|(c, g)| (c.0, g))
            .collect();
        assert_eq!(moves, vec![(3, 3), (1, 3), (3, 1)], "the greedy plan moves cell 3 twice");
        assert_eq!(net_moves(&owners, &moves), Ok(vec![(3, 2, 1), (1, 0, 3)]));
        // A cell that comes home is no migration at all.
        assert_eq!(net_moves(&owners, &[(4, 0), (4, 1)]), Ok(vec![]));
        assert!(net_moves(&owners, &[(6, 0)]).is_err(), "unknown cell");
    }

    /// Checks one decision's net moves against applying the decision
    /// move by move: the same final placement, each migration starting
    /// at the cell's pre-boundary owner, no cell touched twice, no
    /// self-move. A decision with no repeated cell and no self-move
    /// must execute exactly as decided.
    fn check_net_moves(
        owners: &[u32],
        groups: u32,
        moves: &[(u32, u32)],
    ) -> Result<(), TestCaseError> {
        let mut recorded = RoutingTable::new(owners.to_vec(), groups).expect("valid");
        let decided: Vec<(ShardId, u32)> = moves.iter().map(|&(c, g)| (ShardId(c), g)).collect();
        recorded.apply(&decided).expect("moves of known cells to known groups");
        let net = net_moves(owners, moves).expect("moves of known cells");
        let mut live = owners.to_vec();
        let mut touched = std::collections::BTreeSet::new();
        for &(cell, src, dst) in &net {
            prop_assert!(touched.insert(cell), "cell {} migrates twice", cell);
            prop_assert!(src != dst, "self-move of cell {}", cell);
            prop_assert_eq!(src, owners[cell as usize], "source is the prior owner");
            live[cell as usize] = dst;
        }
        prop_assert_eq!(&live[..], recorded.owners());
        let distinct: std::collections::BTreeSet<u32> = moves.iter().map(|m| m.0).collect();
        if distinct.len() == moves.len() && moves.iter().all(|&(c, g)| owners[c as usize] != g) {
            let as_decided: Vec<(u32, u32)> = net.iter().map(|&(c, _, g)| (c, g)).collect();
            prop_assert_eq!(as_decided, moves.to_vec());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Net moves hold their contract on random planner decisions and
        /// on arbitrary move lists. The planner repeats a cell in well
        /// under 1% of decisions, so the arbitrary lists are what
        /// exercise repeats, returns home and self-moves.
        #[test]
        fn net_moves_reach_the_recorded_placement(
            groups in 2u32..6,
            extra_cells in 0usize..5,
            seed in any::<u64>(),
            max_moves in 1usize..9,
            threshold in 1000u64..1600,
        ) {
            let cells = groups as usize + extra_cells;
            let mut rng = SplitMix64::new(seed);
            let owners: Vec<u32> = (0..cells).map(|_| rng.index(groups as usize) as u32).collect();
            let weights: Vec<u64> = (0..cells).map(|_| rng.index(1000) as u64).collect();
            let occupancy: Vec<u64> = (0..cells).map(|_| rng.index(8) as u64).collect();
            let table = RoutingTable::new(owners.clone(), groups).expect("valid");
            let cfg = RebalanceConfig::new(100).threshold_x1000(threshold).max_moves(max_moves);
            let plan: Vec<(u32, u32)> = otc_sim::plan(&weights, &occupancy, &table, &cfg)
                .into_iter()
                .map(|(c, g)| (c.0, g))
                .collect();
            check_net_moves(&owners, groups, &plan)?;
            let arbitrary: Vec<(u32, u32)> = (0..max_moves)
                .map(|_| (rng.index(cells) as u32, rng.index(groups as usize) as u32))
                .collect();
            check_net_moves(&owners, groups, &arbitrary)?;
        }
    }
}
