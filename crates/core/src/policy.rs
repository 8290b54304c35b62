//! The online-algorithm interface shared by TC and all baselines.
//!
//! The simulator (`otc-sim`) drives any [`CachePolicy`] through a request
//! sequence: each round it presents one request, the policy reports whether
//! it paid the service cost and which cache actions it took at the end of
//! the round. The simulator mirrors the cache, verifies validity of every
//! action against the problem's rules, and does all cost accounting — so a
//! buggy policy cannot misreport its own cost.
//!
//! # The zero-allocation step pipeline
//!
//! [`CachePolicy::step`] writes into a caller-provided [`ActionBuffer`] — a
//! reusable arena of [`NodeId`] spans plus an action-kind tag list — instead
//! of returning an owned value. In steady state (buffer capacity reached) a
//! round performs **no heap allocation** anywhere on the request path, which
//! is what makes 10⁶–10⁸-request streams affordable. The owned
//! [`StepOutcome`]/[`Action`] types remain as a convenience snapshot
//! ([`CachePolicy::step_owned`], [`ActionBuffer::to_outcome`]) for tests and
//! diagnostics, where clarity beats throughput.

use crate::cache::CacheSet;
use crate::request::Request;
use crate::tree::{NodeId, Tree};

/// One cache modification taken at the end of a round (owned snapshot form;
/// the hot path uses [`ActionBuffer`] spans instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Fetch these nodes (must form a valid positive changeset).
    Fetch(Vec<NodeId>),
    /// Evict these nodes (must form a valid negative changeset).
    Evict(Vec<NodeId>),
    /// Evict the entire cache (TC's phase restart). The payload is the set
    /// evicted, possibly empty.
    Flush(Vec<NodeId>),
}

impl Action {
    /// Number of nodes touched (each costs α).
    #[must_use]
    pub fn nodes_touched(&self) -> usize {
        match self {
            Action::Fetch(v) | Action::Evict(v) | Action::Flush(v) => v.len(),
        }
    }
}

/// Tag of one action recorded in an [`ActionBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// The span is fetched (must form a valid positive changeset).
    Fetch,
    /// The span is evicted (must form a valid negative changeset).
    Evict,
    /// The entire cache is evicted (TC's phase restart); the span is the
    /// set evicted, possibly empty.
    Flush,
}

/// A reusable record of what a policy did in one round.
///
/// Node lists of all actions live contiguously in one arena; each action is
/// a `(kind, start)` tag whose span ends where the next action starts. Once
/// the vectors have grown to the workload's high-water mark, recording a
/// round allocates nothing.
///
/// ```
/// use otc_core::policy::{ActionBuffer, ActionKind};
/// use otc_core::tree::NodeId;
///
/// let mut buf = ActionBuffer::new();
/// buf.clear();
/// buf.set_paid(true);
/// buf.begin(ActionKind::Fetch).extend([NodeId(1), NodeId(2)]);
/// assert_eq!(buf.nodes_touched(), 2);
/// let (kind, nodes) = buf.actions().next().unwrap();
/// assert_eq!(kind, ActionKind::Fetch);
/// assert_eq!(nodes, &[NodeId(1), NodeId(2)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActionBuffer {
    paid_service: bool,
    /// `(kind, offset of the action's first node in `nodes`)`.
    kinds: Vec<(ActionKind, usize)>,
    /// Arena holding every action's nodes back to back.
    nodes: Vec<NodeId>,
}

impl ActionBuffer {
    /// An empty buffer. Reuse one per driver loop, not one per round.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets all recorded actions and the paid flag, keeping capacity.
    /// Every [`CachePolicy::step`] implementation calls this first.
    pub fn clear(&mut self) {
        self.paid_service = false;
        self.kinds.clear();
        self.nodes.clear();
    }

    /// Records whether the round paid the service cost.
    pub fn set_paid(&mut self, paid: bool) {
        self.paid_service = paid;
    }

    /// Whether the round paid the service cost.
    #[must_use]
    pub fn paid_service(&self) -> bool {
        self.paid_service
    }

    /// Starts a new action of `kind` and returns the arena to push its
    /// nodes into. The action's span is everything appended before the next
    /// `begin` (do not truncate below the returned start).
    pub fn begin(&mut self, kind: ActionKind) -> &mut Vec<NodeId> {
        self.kinds.push((kind, self.nodes.len()));
        &mut self.nodes
    }

    /// Appends one node to the most recently begun action.
    ///
    /// # Panics
    /// Panics in debug builds if no action was begun.
    pub fn push_node(&mut self, v: NodeId) {
        debug_assert!(!self.kinds.is_empty(), "push_node before begin");
        self.nodes.push(v);
    }

    /// Number of recorded actions.
    #[must_use]
    pub fn num_actions(&self) -> usize {
        self.kinds.len()
    }

    /// True if no action was recorded.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.kinds.is_empty() && !self.paid_service
    }

    /// Total nodes touched across all actions (each costs α).
    #[must_use]
    pub fn nodes_touched(&self) -> usize {
        self.nodes.len()
    }

    /// The `i`-th action as `(kind, nodes)`.
    ///
    /// # Panics
    /// Panics if `i >= num_actions()`.
    #[must_use]
    pub fn action(&self, i: usize) -> (ActionKind, &[NodeId]) {
        let (kind, start) = self.kinds[i];
        let end = self.kinds.get(i + 1).map_or(self.nodes.len(), |&(_, s)| s);
        (kind, &self.nodes[start..end])
    }

    /// Iterator over recorded actions in application order.
    pub fn actions(&self) -> impl Iterator<Item = (ActionKind, &[NodeId])> + '_ {
        (0..self.kinds.len()).map(move |i| self.action(i))
    }

    /// Nodes of the most recently begun action (empty slice if none).
    #[must_use]
    pub fn last_nodes(&self) -> &[NodeId] {
        match self.kinds.last() {
            Some(&(_, start)) => &self.nodes[start..],
            None => &[],
        }
    }

    /// Owned snapshot for tests and diagnostics (allocates).
    #[must_use]
    pub fn to_outcome(&self) -> StepOutcome {
        StepOutcome {
            paid_service: self.paid_service,
            actions: self
                .actions()
                .map(|(kind, nodes)| match kind {
                    ActionKind::Fetch => Action::Fetch(nodes.to_vec()),
                    ActionKind::Evict => Action::Evict(nodes.to_vec()),
                    ActionKind::Flush => Action::Flush(nodes.to_vec()),
                })
                .collect(),
        }
    }
}

/// What a policy did in one round (owned snapshot; see [`ActionBuffer`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether the request cost 1 to serve (positive+non-cached or
    /// negative+cached at the time the request arrived).
    pub paid_service: bool,
    /// Cache modifications applied after serving, in order. Most policies
    /// emit zero or one action; eviction-then-fetch emits two.
    pub actions: Vec<Action>,
}

impl StepOutcome {
    /// A round with no payment and no cache change.
    #[must_use]
    pub fn idle() -> Self {
        Self::default()
    }

    /// Total nodes touched across all actions.
    #[must_use]
    pub fn nodes_touched(&self) -> usize {
        self.actions.iter().map(Action::nodes_touched).sum()
    }
}

/// An online tree-caching algorithm.
///
/// Implementations own their cache state; `cache()` exposes it read-only so
/// the simulator can cross-check its mirror.
///
/// `Send` is a supertrait so the sharded engine (`otc-sim::engine`) can
/// drive per-shard policies from scoped worker threads; every policy is
/// plain owned data, so this costs implementors nothing.
pub trait CachePolicy: Send {
    /// Short stable identifier used in experiment tables.
    fn name(&self) -> &'static str;

    /// The cache capacity `k` this policy was configured with.
    fn capacity(&self) -> usize;

    /// Serves one request, recording the outcome in `out`.
    ///
    /// The implementation clears `out` first; after the call `out` holds
    /// exactly this round's outcome. In steady state (buffer capacity
    /// reached) the call must not allocate.
    fn step(&mut self, req: Request, out: &mut ActionBuffer);

    /// Read-only view of the current cache contents.
    fn cache(&self) -> &CacheSet;

    /// Resets to the initial (empty-cache) state, keeping configuration.
    fn reset(&mut self);

    /// Expensive internal-consistency check (O(|T|) or worse). Policies
    /// with redundant incremental state override this; the simulator's
    /// batched driver calls it between chunks in debug builds so unchecked
    /// benchmark configurations cannot silently drift.
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }

    /// Convenience wrapper allocating a fresh buffer and an owned
    /// [`StepOutcome`]. For tests and diagnostics — not the hot path.
    fn step_owned(&mut self, req: Request) -> StepOutcome {
        let mut buf = ActionBuffer::new();
        self.step(req, &mut buf);
        buf.to_outcome()
    }

    /// Appends the policy's complete mutable state to `out` so a later
    /// [`CachePolicy::restore_state`] on a freshly built instance (same
    /// tree, same configuration) continues bit-identically.
    ///
    /// Must not allocate once `out` has capacity — the snapshot cadence of
    /// `otc-sim` runs this on the steady-state request path. The default
    /// refuses, so policies without durability support fail loudly instead
    /// of silently recovering into a wrong state.
    ///
    /// # Errors
    /// A human-readable reason when the policy does not support snapshots.
    fn save_state(&self, _out: &mut Vec<u8>) -> Result<(), String> {
        Err(format!("policy '{}' does not support snapshots", self.name()))
    }

    /// Replaces the policy's mutable state with one written by
    /// [`CachePolicy::save_state`] on an identically configured instance.
    ///
    /// Must be atomic: on any error the policy is left exactly as it was
    /// (no partial restore). Implementations validate the decoded state
    /// (e.g. via [`CachePolicy::audit`]) before committing it.
    ///
    /// # Errors
    /// A human-readable reason when `bytes` does not decode to a
    /// consistent state for this configuration.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let _ = bytes;
        Err(format!("policy '{}' does not support snapshots", self.name()))
    }
}

/// Mutable references forward the whole policy interface, so a borrowed
/// policy can be handed to engines that normally own their policies (the
/// single-shard adapter path of `otc-sim::engine`).
impl<P: CachePolicy + ?Sized> CachePolicy for &mut P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn capacity(&self) -> usize {
        (**self).capacity()
    }
    fn step(&mut self, req: Request, out: &mut ActionBuffer) {
        (**self).step(req, out);
    }
    fn cache(&self) -> &CacheSet {
        (**self).cache()
    }
    fn reset(&mut self) {
        (**self).reset();
    }
    fn audit(&self) -> Result<(), String> {
        (**self).audit()
    }
    fn step_owned(&mut self, req: Request) -> StepOutcome {
        (**self).step_owned(req)
    }
    fn save_state(&self, out: &mut Vec<u8>) -> Result<(), String> {
        (**self).save_state(out)
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_state(bytes)
    }
}

/// Builds one [`CachePolicy`] instance per shard of a forest.
///
/// The sharded engine asks the factory once per shard at construction
/// time, passing the shard's tree and id; the factory decides the
/// algorithm and its per-shard parameters (e.g. splitting a total cache
/// capacity across shards). Implemented for free by any matching closure:
///
/// ```
/// use std::sync::Arc;
/// use otc_core::forest::ShardId;
/// use otc_core::policy::{CachePolicy, PolicyFactory};
/// use otc_core::tc::{TcConfig, TcFast};
/// use otc_core::tree::Tree;
///
/// let factory = |tree: Arc<Tree>, _shard: ShardId| {
///     Box::new(TcFast::new(tree, TcConfig::new(2, 8))) as Box<dyn CachePolicy>
/// };
/// let built = factory.build(Arc::new(Tree::star(3)), ShardId(0));
/// assert_eq!(built.name(), "tc");
/// ```
pub trait PolicyFactory {
    /// Builds the policy for `shard`, which owns `tree`.
    fn build(
        &self,
        tree: std::sync::Arc<Tree>,
        shard: crate::forest::ShardId,
    ) -> Box<dyn CachePolicy>;
}

impl<F> PolicyFactory for F
where
    F: Fn(std::sync::Arc<Tree>, crate::forest::ShardId) -> Box<dyn CachePolicy>,
{
    fn build(
        &self,
        tree: std::sync::Arc<Tree>,
        shard: crate::forest::ShardId,
    ) -> Box<dyn CachePolicy> {
        self(tree, shard)
    }
}

/// Convenience: run a policy over a sequence without simulation services
/// (no validity checking, no instrumentation). Returns
/// `(service_cost, reorg_nodes)` where the monetary reorganisation cost is
/// `alpha * reorg_nodes`. Reuses one [`ActionBuffer`] across all rounds.
pub fn run_raw(policy: &mut dyn CachePolicy, requests: &[Request]) -> (u64, u64) {
    let mut buf = ActionBuffer::new();
    let mut service = 0u64;
    let mut touched = 0u64;
    for &r in requests {
        policy.step(r, &mut buf);
        service += u64::from(buf.paid_service());
        touched += buf.nodes_touched() as u64;
    }
    (service, touched)
}

/// Helper shared by policies: whether a request pays, given a cache.
#[must_use]
pub fn request_pays(cache: &CacheSet, req: Request) -> bool {
    match req.sign {
        crate::request::Sign::Positive => !cache.contains(req.node),
        crate::request::Sign::Negative => cache.contains(req.node),
    }
}

/// Helper shared by policies: appends the minimal fetch making `v` cached —
/// the non-cached part of `T(v)`, in preorder (parents before children) —
/// to `out`. Appends nothing when `v` is already cached.
pub fn dependent_fetch_set_into(tree: &Tree, cache: &CacheSet, v: NodeId, out: &mut Vec<NodeId>) {
    if cache.contains(v) {
        return;
    }
    // Walk the preorder slice of T(v); skip cached subtrees wholesale.
    let slice = tree.subtree(v);
    let mut i = 0;
    while i < slice.len() {
        let u = slice[i];
        if cache.contains(u) {
            i += tree.subtree_size(u) as usize;
        } else {
            out.push(u);
            i += 1;
        }
    }
}

/// Helper shared by policies: the minimal fetch making `v` cached — the
/// non-cached part of `T(v)`, in preorder (parents before children).
///
/// Returns an empty vector when `v` is already cached. Allocating
/// convenience over [`dependent_fetch_set_into`].
#[must_use]
pub fn dependent_fetch_set(tree: &Tree, cache: &CacheSet, v: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    dependent_fetch_set_into(tree, cache, v, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Sign;

    fn tree() -> Tree {
        Tree::from_parents(&[None, Some(0), Some(1), Some(1), Some(0)])
    }

    #[test]
    fn pays_logic() {
        let t = tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(2)]);
        assert!(request_pays(&c, Request { node: NodeId(3), sign: Sign::Positive }));
        assert!(!request_pays(&c, Request { node: NodeId(2), sign: Sign::Positive }));
        assert!(request_pays(&c, Request { node: NodeId(2), sign: Sign::Negative }));
        assert!(!request_pays(&c, Request { node: NodeId(3), sign: Sign::Negative }));
    }

    #[test]
    fn dependent_set_from_empty_cache() {
        let t = tree();
        let c = CacheSet::empty(t.len());
        assert_eq!(dependent_fetch_set(&t, &c, NodeId(1)), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(dependent_fetch_set(&t, &c, NodeId(4)), vec![NodeId(4)]);
    }

    #[test]
    fn dependent_set_skips_cached() {
        let t = tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(2)]);
        assert_eq!(dependent_fetch_set(&t, &c, NodeId(1)), vec![NodeId(1), NodeId(3)]);
        c.fetch(&[NodeId(1), NodeId(3)]);
        assert!(dependent_fetch_set(&t, &c, NodeId(1)).is_empty());
    }

    #[test]
    fn dependent_set_is_valid_positive() {
        let t = tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(3)]);
        let set = dependent_fetch_set(&t, &c, NodeId(0));
        assert!(crate::changeset::is_valid_positive(&t, &c, &set));
        assert_eq!(set.len(), 4); // 0, 1, 2, 4 (3 already cached)
    }

    #[test]
    fn outcome_accounting() {
        let out = StepOutcome {
            paid_service: true,
            actions: vec![
                Action::Evict(vec![NodeId(1)]),
                Action::Fetch(vec![NodeId(2), NodeId(3)]),
            ],
        };
        assert_eq!(out.nodes_touched(), 3);
        assert_eq!(StepOutcome::idle().nodes_touched(), 0);
    }

    #[test]
    fn buffer_spans_and_snapshot() {
        let mut buf = ActionBuffer::new();
        buf.clear();
        buf.set_paid(true);
        buf.begin(ActionKind::Evict).push(NodeId(1));
        buf.begin(ActionKind::Fetch).extend([NodeId(2), NodeId(3)]);
        assert_eq!(buf.num_actions(), 2);
        assert_eq!(buf.nodes_touched(), 3);
        assert_eq!(buf.action(0), (ActionKind::Evict, &[NodeId(1)][..]));
        assert_eq!(buf.action(1), (ActionKind::Fetch, &[NodeId(2), NodeId(3)][..]));
        assert_eq!(buf.last_nodes(), &[NodeId(2), NodeId(3)]);
        let out = buf.to_outcome();
        assert_eq!(
            out.actions,
            vec![Action::Evict(vec![NodeId(1)]), Action::Fetch(vec![NodeId(2), NodeId(3)])]
        );
        // Clearing keeps capacity but forgets content.
        buf.clear();
        assert!(buf.is_idle());
        assert_eq!(buf.nodes_touched(), 0);
        assert_eq!(buf.last_nodes(), &[] as &[NodeId]);
    }

    #[test]
    fn empty_flush_is_recorded() {
        let mut buf = ActionBuffer::new();
        buf.clear();
        buf.set_paid(true);
        buf.begin(ActionKind::Flush);
        assert_eq!(buf.num_actions(), 1);
        assert_eq!(buf.nodes_touched(), 0);
        assert_eq!(buf.action(0), (ActionKind::Flush, &[] as &[NodeId]));
        assert_eq!(buf.to_outcome().actions, vec![Action::Flush(vec![])]);
    }
}
