//! The rule-dependency tree and longest-matching-prefix lookup.
//!
//! Given a set of forwarding rules (prefixes), the dependency tree has an
//! edge from rule `q` to rule `p` when `q` is the *longest proper prefix*
//! of `p` among the rules. This is exactly the implicit tree of the paper's
//! Section 2 ("we do not have to assume that they are actually stored in a
//! real tree; this tree is implicit in the LMP scheme"). The default route
//! `0.0.0.0/0` is added as the root if absent, mirroring the artificial
//! root rule the paper installs to bounce unmatched packets to the
//! controller.
//!
//! Node `i` of the produced [`otc_core::Tree`] corresponds to
//! `RuleTree::prefixes()[i]`; the root is node 0 (the default route).
//!
//! LMP is a binary search over a flat interval table. The rules cut the
//! 32-bit address space into maximal intervals with one fixed LMP answer
//! each; `starts` holds the sorted interval starts and `owner` the answer
//! per interval. One sweep over the rules in address order builds both the
//! table and the parent links, keeping a stack of the open, nested rules.

use otc_core::tree::{NodeId, Tree};

use crate::prefix::Prefix;

/// A routing table materialised as a dependency tree with LMP lookup.
///
/// ```
/// use otc_trie::{parse_prefix, RuleTree};
///
/// let rules = RuleTree::build(&[
///     parse_prefix("10.0.0.0/8").unwrap(),
///     parse_prefix("10.1.0.0/16").unwrap(),
/// ]);
/// // 10.1.2.3 matches the /16; 10.9.9.9 falls back to the /8.
/// let hit16 = rules.lmp(0x0A01_0203);
/// let hit8 = rules.lmp(0x0A09_0909);
/// assert_eq!(rules.prefix(hit16).to_string(), "10.1.0.0/16");
/// assert_eq!(rules.prefix(hit8).to_string(), "10.0.0.0/8");
/// // The dependency tree nests the /16 under the /8.
/// assert_eq!(rules.tree().parent(hit16), Some(hit8));
/// ```
#[derive(Debug, Clone)]
pub struct RuleTree {
    tree: Tree,
    /// Rules by node id, sorted by `(len, addr)`: [`Self::node_of`] is a
    /// binary search.
    prefixes: Vec<Prefix>,
    /// Sorted starts of the LMP intervals; `starts[0] == 0`. Interval `k`
    /// runs up to `starts[k + 1]` (the last one to the end of the space).
    starts: Vec<u32>,
    /// The LMP rule (node id) of each interval.
    owner: Vec<u32>,
}

impl RuleTree {
    /// Builds the dependency tree from a rule set. Duplicates are removed;
    /// the default route is added if missing.
    #[must_use]
    pub fn build(rules: &[Prefix]) -> Self {
        let mut prefixes: Vec<Prefix> = rules.to_vec();
        prefixes.push(Prefix::ROOT);
        prefixes.sort();
        prefixes.dedup();
        // Sorted by (len, addr): parents (strictly shorter) precede children,
        // and the default route is node 0.
        debug_assert_eq!(prefixes[0], Prefix::ROOT);

        // Address order, outer rules before the inner ones sharing their
        // start: every rule comes after all rules containing it.
        let mut order: Vec<usize> = (0..prefixes.len()).collect();
        order.sort_unstable_by_key(|&i| (prefixes[i].range_start(), prefixes[i].len()));

        // One sweep with a stack of open rules, each containing the next.
        // A rule's parent is the stack top when it is pushed; a push starts
        // an interval owned by the pushed rule, and a pop starts one owned
        // by the rule beneath, at the popped rule's end.
        let mut parents: Vec<Option<usize>> = vec![None; prefixes.len()];
        let (mut starts, mut owner) = (Vec::new(), Vec::new());
        let mut stack: Vec<usize> = Vec::new();
        for next in order.iter().map(Some).chain([None]) {
            // Close the open rules that do not contain `next` (all at the end).
            while let Some(&top) = stack.last() {
                let closed = prefixes[top];
                if next.is_some_and(|&i| closed.contains(prefixes[i])) {
                    break;
                }
                stack.pop();
                if let Some(&beneath) = stack.last() {
                    let end = u64::from(closed.range_start()) + closed.address_count();
                    open_interval(&mut starts, &mut owner, end, beneath);
                }
            }
            let Some(&i) = next else { break };
            parents[i] = stack.last().copied();
            stack.push(i);
            open_interval(&mut starts, &mut owner, u64::from(prefixes[i].range_start()), i);
        }

        let tree = Tree::from_parents(&parents);
        Self { tree, prefixes, starts, owner }
    }

    /// The dependency tree (node 0 = default route).
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Rules by node id.
    #[must_use]
    pub fn prefixes(&self) -> &[Prefix] {
        &self.prefixes
    }

    /// The prefix of a node.
    #[must_use]
    pub fn prefix(&self, v: NodeId) -> Prefix {
        self.prefixes[v.index()]
    }

    /// Node id of an exact prefix, if present.
    #[must_use]
    pub fn node_of(&self, p: Prefix) -> Option<NodeId> {
        self.prefixes.binary_search(&p).ok().map(|i| NodeId(i as u32))
    }

    /// Number of rules (including the default route).
    #[must_use]
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Never true — the default route is always present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Longest-matching-prefix lookup: the most specific rule containing
    /// `addr`. A binary search for the interval holding `addr`.
    #[must_use]
    pub fn lmp(&self, addr: u32) -> NodeId {
        // `starts[0] == 0`, so the interval index is never negative.
        NodeId(self.owner[self.starts.partition_point(|&s| s <= addr) - 1])
    }

    /// Reference LMP by linear scan — O(n), used to validate [`Self::lmp`].
    #[must_use]
    pub fn lmp_linear(&self, addr: u32) -> NodeId {
        let mut best = NodeId(0);
        let mut best_len = 0u8;
        for (i, p) in self.prefixes.iter().enumerate() {
            if p.contains_addr(addr) && (p.len() >= best_len) {
                best = NodeId(i as u32);
                best_len = p.len();
            }
        }
        best
    }

    /// Draws an address whose LMP is exactly `rule`, by rejection sampling
    /// inside the rule's range. Returns `None` when the children cover the
    /// rule's whole range (or nearly so) and `attempts` draws all failed.
    #[must_use]
    pub fn sample_addr_for(
        &self,
        rule: NodeId,
        rng: &mut otc_util::SplitMix64,
        attempts: u32,
    ) -> Option<u32> {
        let p = self.prefix(rule);
        for _ in 0..attempts {
            let offset = rng.next_below(p.address_count());
            let addr = p.range_start().wrapping_add(offset as u32);
            if self.lmp(addr) == rule {
                return Some(addr);
            }
        }
        None
    }

    /// Depth histogram of the dependency tree (index = depth, value =
    /// number of rules at that depth). Useful to report how "tree-like" a
    /// synthetic table is.
    #[must_use]
    pub fn depth_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.tree.height() as usize];
        for v in self.tree.nodes() {
            hist[self.tree.depth(v) as usize] += 1;
        }
        hist
    }
}

/// Starts an LMP interval owned by `rule` at address `start`. A later
/// interval at the same start replaces the earlier one; one with the same
/// owner as the interval before it merges into it; a start at `2^32` (the
/// end of the address space) opens nothing.
fn open_interval(starts: &mut Vec<u32>, owner: &mut Vec<u32>, start: u64, rule: usize) {
    let Ok(start) = u32::try_from(start) else { return };
    let rule = rule as u32;
    if starts.last() == Some(&start) {
        starts.pop();
        owner.pop();
    }
    if owner.last() != Some(&rule) {
        starts.push(start);
        owner.push(rule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::parse_prefix;

    #[test]
    fn build_is_deterministic_across_seeds_and_input_order() {
        // Two seeds; for each, build from the generated table and from the
        // same table reversed: node numbering, parents and LMP answers must
        // be byte-identical (build sorts, so input order must not matter,
        // and no hash iteration may leak into the structure).
        for seed in [21u64, 22] {
            let mut rng = otc_util::SplitMix64::new(seed);
            let table = crate::synth::flat_table(400, &mut rng);
            let mut reversed = table.clone();
            reversed.reverse();
            let a = RuleTree::build(&table);
            let b = RuleTree::build(&reversed);
            assert_eq!(a.prefixes(), b.prefixes(), "seed {seed}: numbering must match");
            let mut addr_rng = otc_util::SplitMix64::new(seed ^ 0xABCD);
            for _ in 0..200 {
                let addr = addr_rng.next_u64() as u32;
                assert_eq!(a.lmp(addr), b.lmp(addr), "seed {seed}: LMP must match");
            }
        }
    }

    fn p(s: &str) -> Prefix {
        parse_prefix(s).unwrap()
    }

    fn sample_table() -> Vec<Prefix> {
        vec![
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("10.1.2.0/24"),
            p("10.2.0.0/16"),
            p("192.168.0.0/16"),
            p("192.168.1.0/24"),
        ]
    }

    #[test]
    fn build_adds_root_and_links_longest_prefix() {
        let rt = RuleTree::build(&sample_table());
        assert_eq!(rt.len(), 7);
        assert_eq!(rt.prefix(NodeId(0)), Prefix::ROOT);
        let t = rt.tree();
        // 10.1.2.0/24 hangs under 10.1.0.0/16 which hangs under 10.0.0.0/8.
        let n24 = rt.node_of(p("10.1.2.0/24")).unwrap();
        let n16 = rt.node_of(p("10.1.0.0/16")).unwrap();
        let n8 = rt.node_of(p("10.0.0.0/8")).unwrap();
        assert_eq!(t.parent(n24), Some(n16));
        assert_eq!(t.parent(n16), Some(n8));
        assert_eq!(t.parent(n8), Some(NodeId(0)));
        // 192.168.0.0/16 attaches directly to the default route.
        let m16 = rt.node_of(p("192.168.0.0/16")).unwrap();
        assert_eq!(t.parent(m16), Some(NodeId(0)));
        // A rule's address at a length no rule has is absent.
        assert_eq!(rt.node_of(p("10.1.0.0/24")), None);
    }

    #[test]
    fn gaps_are_skipped() {
        // 10.1.2.0/24 with only /8 present: parent skips the absent /16.
        let rt = RuleTree::build(&[p("10.0.0.0/8"), p("10.1.2.0/24")]);
        let n24 = rt.node_of(p("10.1.2.0/24")).unwrap();
        let n8 = rt.node_of(p("10.0.0.0/8")).unwrap();
        assert_eq!(rt.tree().parent(n24), Some(n8));
    }

    #[test]
    fn duplicates_removed() {
        let rt = RuleTree::build(&[p("10.0.0.0/8"), p("10.0.0.0/8"), Prefix::ROOT]);
        assert_eq!(rt.len(), 2);
    }

    #[test]
    fn lmp_matches_linear_scan() {
        let rt = RuleTree::build(&sample_table());
        let addrs = [
            0x0A01_0203u32, // 10.1.2.3   -> 10.1.2.0/24
            0x0A01_0503,    // 10.1.5.3   -> 10.1.0.0/16
            0x0A05_0000,    // 10.5.0.0   -> 10.0.0.0/8
            0xC0A8_0105,    // 192.168.1.5 -> 192.168.1.0/24
            0xC0A8_0505,    // 192.168.5.5 -> 192.168.0.0/16
            0x0800_0000,    // 8.0.0.0    -> default
        ];
        for a in addrs {
            assert_eq!(rt.lmp(a), rt.lmp_linear(a), "addr {a:#x}");
        }
        assert_eq!(rt.prefix(rt.lmp(0x0A01_0203)), p("10.1.2.0/24"));
        assert_eq!(rt.lmp(0x0800_0000), NodeId(0));
    }

    #[test]
    fn lmp_exhaustive_small_universe() {
        // Dense rules inside 10.0.0.0/28: check every address in the block.
        let rules = vec![
            p("10.0.0.0/28"),
            p("10.0.0.0/30"),
            p("10.0.0.4/30"),
            p("10.0.0.0/31"),
            p("10.0.0.8/29"),
        ];
        let rt = RuleTree::build(&rules);
        for a in 0x0A00_0000u32..0x0A00_0010 {
            assert_eq!(rt.lmp(a), rt.lmp_linear(a), "addr {a:#x}");
        }
    }

    #[test]
    fn sample_addr_targets_rule() {
        let rt = RuleTree::build(&sample_table());
        let mut rng = otc_util::SplitMix64::new(7);
        for v in rt.tree().nodes() {
            if let Some(addr) = rt.sample_addr_for(v, &mut rng, 64) {
                assert_eq!(rt.lmp(addr), v, "sampled address must LMP to the rule");
            }
        }
    }

    #[test]
    fn sample_addr_none_when_children_cover() {
        // Parent /30 fully covered by two /31 children → no address maps to
        // the parent.
        let rt = RuleTree::build(&[p("10.0.0.0/30"), p("10.0.0.0/31"), p("10.0.0.2/31")]);
        let parent = rt.node_of(p("10.0.0.0/30")).unwrap();
        let mut rng = otc_util::SplitMix64::new(3);
        assert_eq!(rt.sample_addr_for(parent, &mut rng, 256), None);
        for a in 0x09FF_FFFFu32..=0x0A00_0004 {
            assert_eq!(rt.lmp(a), rt.lmp_linear(a), "addr {a:#x}");
        }
    }

    #[test]
    fn depth_histogram_sums_to_len() {
        let rt = RuleTree::build(&sample_table());
        let hist = rt.depth_histogram();
        assert_eq!(hist.iter().sum::<usize>(), rt.len());
        assert_eq!(hist[0], 1, "only the default route at depth 0");
    }

    #[test]
    fn empty_input_gives_root_only() {
        let rt = RuleTree::build(&[]);
        assert_eq!(rt.len(), 1);
        assert_eq!([rt.lmp(0), rt.lmp(12345), rt.lmp(u32::MAX)], [NodeId(0); 3]);
    }

    #[test]
    fn host_route_at_the_top_of_the_space() {
        // The /32's interval ends at 2^32, so no interval follows it.
        let rt = RuleTree::build(&[p("255.0.0.0/8"), p("255.255.255.255/32")]);
        for a in [0, 0xFEFF_FFFF, 0xFF00_0000, 0xFFFF_FFFE, u32::MAX] {
            assert_eq!(rt.lmp(a), rt.lmp_linear(a), "addr {a:#x}");
        }
        assert_eq!(rt.prefix(rt.lmp(u32::MAX)), p("255.255.255.255/32"));
    }
}
