//! Cache state: a subforest of the tree.
//!
//! The defining constraint of the problem (paper, Section 1): if a node `v`
//! is cached then the whole subtree `T(v)` is cached. Equivalently the
//! cached set is *downward-closed* (closed under taking children), i.e. a
//! union of disjoint full subtrees of `T`.

#![warn(clippy::indexing_slicing)]

use crate::arena::NodeBitSet;
use crate::tree::{NodeId, Tree};

/// The set of cached nodes, maintained as a packed per-node bitset plus
/// size (see [`crate::arena::NodeBitSet`] — one bit per node, `u64` words).
///
/// ```
/// use otc_core::cache::CacheSet;
/// use otc_core::tree::{NodeId, Tree};
///
/// let tree = Tree::path(3); // 0 → 1 → 2
/// let mut cache = CacheSet::empty(tree.len());
/// cache.fetch(&[NodeId(2)]);
/// assert!(cache.validate(&tree).is_ok());
/// // Caching the middle node without its child breaks the invariant.
/// cache.insert(NodeId(0));
/// assert!(cache.validate(&tree).is_err());
/// ```
///
/// `CacheSet` itself does not enforce the subforest property on every
/// mutation (algorithms apply whole changesets whose validity is checked by
/// [`crate::changeset`] / the simulator); [`CacheSet::validate`] performs the
/// full invariant check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSet {
    bits: NodeBitSet,
    len: usize,
}

impl CacheSet {
    /// An empty cache for a tree with `n` nodes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Self { bits: NodeBitSet::empty(n), len: 0 }
    }

    /// Number of cached nodes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is cached.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `v` is cached.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        self.bits.contains(v)
    }

    /// Marks a single node cached. Prefer [`CacheSet::fetch`] for sets.
    #[inline]
    pub fn insert(&mut self, v: NodeId) {
        if self.bits.insert(v) {
            self.len += 1;
        }
    }

    /// Marks a single node non-cached.
    #[inline]
    pub fn remove(&mut self, v: NodeId) {
        if self.bits.remove(v) {
            self.len -= 1;
        }
    }

    /// Fetches every node in `set` (must currently be non-cached).
    ///
    /// # Panics
    /// Panics in debug builds if a node was already cached.
    pub fn fetch(&mut self, set: &[NodeId]) {
        for &v in set {
            let _newly = self.bits.insert(v);
            debug_assert!(_newly, "fetching already-cached node {v:?}");
        }
        self.len += set.len();
    }

    /// Evicts every node in `set` (must currently be cached).
    ///
    /// # Panics
    /// Panics in debug builds if a node was not cached.
    pub fn evict(&mut self, set: &[NodeId]) {
        for &v in set {
            let _was = self.bits.remove(v);
            debug_assert!(_was, "evicting non-cached node {v:?}");
        }
        self.len -= set.len();
    }

    /// Evicts everything without reporting the evicted set. O(n/64),
    /// allocation-free — the simulator's mirror uses this on flushes.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }

    /// Evicts everything, appending the evicted nodes (in index order) to
    /// `out`. Allocation-free once `out` has capacity; empty words are
    /// skipped a `u64` at a time.
    pub fn flush_into(&mut self, out: &mut Vec<NodeId>) {
        self.bits.drain_into(out);
        self.len = 0;
    }

    /// Evicts everything and returns the evicted nodes (in index order).
    pub fn flush(&mut self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len);
        self.flush_into(&mut out);
        out
    }

    /// Iterator over cached nodes in index order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.bits.iter()
    }

    /// Full subforest invariant check: every cached node's children are
    /// cached, and the stored size matches.
    ///
    /// Returns `Err` with a human-readable reason on violation. O(n): the
    /// simulator runs it only when it adopts a cache and when a run
    /// finishes (per-action changeset checks keep the invariant in
    /// between), and property tests run it freely.
    pub fn validate(&self, tree: &Tree) -> Result<(), String> {
        if self.bits.universe() != tree.len() {
            return Err(format!(
                "cache tracks {} nodes but the tree has {}",
                self.bits.universe(),
                tree.len()
            ));
        }
        let real_len = self.bits.count();
        if real_len != self.len {
            return Err(format!("stored len {} != actual {}", self.len, real_len));
        }
        for v in tree.nodes() {
            if self.contains(v) {
                for &c in tree.children(v) {
                    if !self.contains(c) {
                        return Err(format!(
                            "subforest violation: {v:?} cached but child {c:?} is not"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Appends the cache contents as a packed bitmap (`ceil(n/8)` bytes,
    /// node `i` at bit `i % 8` of byte `i / 8`, unused trailing bits zero).
    /// Allocation-free once `out` has capacity; the snapshot writers
    /// (`otc-sim::snapshot`) call this on the steady-state path.
    pub fn write_bitmap(&self, out: &mut Vec<u8>) {
        self.bits.write_bytes(out);
    }

    /// Number of bytes [`CacheSet::write_bitmap`] appends for an `n`-node
    /// cache.
    #[must_use]
    pub fn bitmap_len(n: usize) -> usize {
        NodeBitSet::byte_len(n)
    }

    /// Rebuilds a cache from a packed bitmap written by
    /// [`CacheSet::write_bitmap`].
    ///
    /// Strict: the byte length must be exactly `ceil(n/8)` and every unused
    /// trailing bit must be zero, so a truncated or bit-flipped snapshot
    /// section cannot silently produce a plausible cache. The stored size is
    /// recomputed from the bits.
    ///
    /// # Errors
    /// A human-readable reason when the bitmap does not decode.
    pub fn from_bitmap(n: usize, bits: &[u8]) -> Result<Self, String> {
        let bits = NodeBitSet::from_bytes(n, bits).map_err(|e| format!("cache {e}"))?;
        let len = bits.count();
        Ok(Self { bits, len })
    }

    /// The root of the cached tree containing `v`: the topmost cached
    /// ancestor of `v`. Returns `None` if `v` itself is not cached.
    ///
    /// O(depth of `v`).
    #[must_use]
    pub fn cached_tree_root(&self, tree: &Tree, v: NodeId) -> Option<NodeId> {
        if !self.contains(v) {
            return None;
        }
        let mut top = v;
        while let Some(p) = tree.parent(top) {
            if self.contains(p) {
                top = p;
            } else {
                break;
            }
        }
        Some(top)
    }

    /// Iterator over roots of all cached trees (cached nodes whose parent
    /// is absent or non-cached), in index order. Allocation-free.
    pub fn cached_roots_iter<'a>(&'a self, tree: &'a Tree) -> impl Iterator<Item = NodeId> + 'a {
        self.iter().filter(move |&v| tree.parent(v).is_none_or(|p| !self.contains(p)))
    }

    /// Roots of all cached trees (cached nodes whose parent is absent or
    /// non-cached), in index order.
    #[must_use]
    pub fn cached_roots(&self, tree: &Tree) -> Vec<NodeId> {
        self.cached_roots_iter(tree).collect()
    }

    /// Heap bytes of the packed representation (one bit per node).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, reason = "tests index fixtures freely")]
mod tests {
    use super::*;

    fn wide_tree() -> Tree {
        //      0
        //    / | \
        //   1  4  5
        //  / \     \
        // 2   3     6
        Tree::from_parents(&[None, Some(0), Some(1), Some(1), Some(0), Some(0), Some(5)])
    }

    #[test]
    fn empty_cache_is_valid() {
        let t = wide_tree();
        let c = CacheSet::empty(t.len());
        assert!(c.validate(&t).is_ok());
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn full_cache_is_valid() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        let all: Vec<NodeId> = t.nodes().collect();
        c.fetch(&all);
        assert!(c.validate(&t).is_ok());
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn leaf_only_cache_is_valid() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(2), NodeId(6)]);
        assert!(c.validate(&t).is_ok());
    }

    #[test]
    fn internal_without_child_is_invalid() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.insert(NodeId(1)); // children 2, 3 missing
        let err = c.validate(&t).expect_err("must be invalid");
        assert!(err.contains("subforest violation"));
    }

    #[test]
    fn subtree_cache_is_valid() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(1), NodeId(2), NodeId(3)]);
        assert!(c.validate(&t).is_ok());
        assert_eq!(c.cached_roots(&t), vec![NodeId(1)]);
    }

    #[test]
    fn cached_tree_root_walks_up() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(1), NodeId(2), NodeId(3), NodeId(5), NodeId(6)]);
        assert_eq!(c.cached_tree_root(&t, NodeId(3)), Some(NodeId(1)));
        assert_eq!(c.cached_tree_root(&t, NodeId(6)), Some(NodeId(5)));
        assert_eq!(c.cached_tree_root(&t, NodeId(4)), None);
        assert_eq!(c.cached_roots(&t), vec![NodeId(1), NodeId(5)]);
    }

    #[test]
    fn whole_tree_single_root() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        let all: Vec<NodeId> = t.nodes().collect();
        c.fetch(&all);
        assert_eq!(c.cached_roots(&t), vec![NodeId(0)]);
        assert_eq!(c.cached_tree_root(&t, NodeId(6)), Some(NodeId(0)));
    }

    #[test]
    fn flush_empties_and_reports() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(2), NodeId(3)]);
        let evicted = c.flush();
        assert_eq!(evicted, vec![NodeId(2), NodeId(3)]);
        assert!(c.is_empty());
        assert!(c.validate(&t).is_ok());
    }

    #[test]
    fn insert_remove_idempotent() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.insert(NodeId(2));
        c.insert(NodeId(2));
        assert_eq!(c.len(), 1);
        c.remove(NodeId(2));
        c.remove(NodeId(2));
        assert_eq!(c.len(), 0);
        assert!(c.validate(&t).is_ok());
    }

    #[test]
    fn size_mismatch_detected() {
        let t = wide_tree();
        let c = CacheSet::empty(t.len() - 1);
        assert!(c.validate(&t).is_err());
    }

    #[test]
    fn bitmap_round_trips() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(2), NodeId(3), NodeId(6)]);
        let mut bits = Vec::new();
        c.write_bitmap(&mut bits);
        assert_eq!(bits.len(), CacheSet::bitmap_len(t.len()));
        let back = CacheSet::from_bitmap(t.len(), &bits).expect("round trip");
        assert_eq!(back, c);
        // Empty and full caches round-trip too.
        for cache in [CacheSet::empty(t.len()), {
            let mut full = CacheSet::empty(t.len());
            full.fetch(&t.nodes().collect::<Vec<_>>());
            full
        }] {
            let mut bits = Vec::new();
            cache.write_bitmap(&mut bits);
            assert_eq!(CacheSet::from_bitmap(t.len(), &bits).unwrap(), cache);
        }
    }

    #[test]
    fn bitmap_bytes_keep_the_historical_layout() {
        // Node i at bit i%8 of byte i/8 — the pre-arena wire format.
        let mut c = CacheSet::empty(12);
        c.insert(NodeId(0));
        c.insert(NodeId(3));
        c.insert(NodeId(9));
        let mut bits = Vec::new();
        c.write_bitmap(&mut bits);
        assert_eq!(bits, vec![0b0000_1001, 0b0000_0010]);
    }

    #[test]
    fn bitmap_reader_is_strict() {
        let t = wide_tree();
        let mut c = CacheSet::empty(t.len());
        c.fetch(&[NodeId(2)]);
        let mut bits = Vec::new();
        c.write_bitmap(&mut bits);
        // Wrong length in either direction.
        assert!(CacheSet::from_bitmap(t.len(), &bits[..0]).is_err());
        let mut long = bits.clone();
        long.push(0);
        assert!(CacheSet::from_bitmap(t.len(), &long).is_err());
        // Non-zero bits past the last node (7 nodes → bit 7 unused).
        let mut junk = bits.clone();
        junk[0] |= 0x80;
        assert!(CacheSet::from_bitmap(t.len(), &junk).is_err());
        // Zero-node cache decodes from zero bytes only.
        assert!(CacheSet::from_bitmap(0, &[]).is_ok());
        assert!(CacheSet::from_bitmap(0, &[0]).is_err());
    }
}
