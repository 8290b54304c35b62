//! Property tests for the prefix/trie substrate.

use otc_trie::{Prefix, RuleTree};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(addr, len))
}

/// Dense nested and adjacent rules: up to 48 prefixes of length 24–32
/// inside one /24 (sometimes the first or last /24 of the address space),
/// plus up to 4 covers of length 0–8, most of them containing that /24.
fn arb_dense_rules() -> impl Strategy<Value = Vec<Prefix>> {
    let block = (0u8..4, any::<u32>()).prop_map(|(edge, addr)| match edge {
        0 => 0,
        1 => 0xFFFF_FF00,
        _ => addr & 0xFFFF_FF00,
    });
    let inner = prop::collection::vec((any::<u8>(), 24u8..=32), 1..48);
    let covers = prop::collection::vec((0u8..=8, 0u8..4, any::<u32>()), 0..4);
    (block, inner, covers).prop_map(|(block, inner, covers)| {
        let inner = inner.into_iter().map(|(low, len)| Prefix::new(block | u32::from(low), len));
        let covers = covers
            .into_iter()
            .map(|(len, stray, addr)| Prefix::new(if stray == 0 { addr } else { block }, len));
        inner.chain(covers).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interval-table LMP equals the linear-scan oracle at random addresses.
    #[test]
    fn lmp_equals_linear(
        rules in prop::collection::vec(arb_prefix(), 0..60),
        addrs in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let rt = RuleTree::build(&rules);
        for a in addrs {
            prop_assert_eq!(rt.lmp(a), rt.lmp_linear(a), "addr {:#x}", a);
        }
    }

    /// LMP equals the oracle on every interval edge of a dense table: each
    /// rule's first and last address, one below and one above each
    /// (wrapping), and both ends of the address space.
    #[test]
    fn lmp_equals_linear_at_interval_edges(rules in arb_dense_rules()) {
        let rt = RuleTree::build(&rules);
        let mut addrs = vec![0, u32::MAX];
        for p in rt.prefixes() {
            let first = p.range_start();
            let last = first.wrapping_add((p.address_count() - 1) as u32);
            for edge in [first, last] {
                addrs.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
            }
        }
        for a in addrs {
            prop_assert_eq!(rt.lmp(a), rt.lmp_linear(a), "addr {:#x}", a);
        }
    }

    /// `node_of` finds every rule under its own id and rejects prefixes
    /// absent from the table, including a rule's address at another length.
    #[test]
    fn node_of_finds_exactly_the_rules(
        rules in prop::collection::vec(arb_prefix(), 0..60),
        probes in prop::collection::vec(arb_prefix(), 1..40),
    ) {
        let rt = RuleTree::build(&rules);
        for v in rt.tree().nodes() {
            prop_assert_eq!(rt.node_of(rt.prefix(v)), Some(v));
        }
        let other_lengths = rt.prefixes().iter().map(|p| Prefix::new(p.addr(), (p.len() + 1) % 33));
        for p in probes.into_iter().chain(other_lengths) {
            let present = rt.prefixes().contains(&p);
            prop_assert_eq!(rt.node_of(p).is_some(), present, "prefix {}", p);
        }
    }

    /// Dependency-tree parents are the longest proper prefix in the table.
    #[test]
    fn parent_is_longest_proper_prefix(rules in prop::collection::vec(arb_prefix(), 1..60)) {
        let rt = RuleTree::build(&rules);
        let tree = rt.tree();
        for v in tree.nodes() {
            let p = rt.prefix(v);
            match tree.parent(v) {
                None => prop_assert_eq!(p, Prefix::ROOT),
                Some(parent) => {
                    let q = rt.prefix(parent);
                    prop_assert!(q.properly_contains(p));
                    // No rule strictly between q and p.
                    for w in tree.nodes() {
                        let r = rt.prefix(w);
                        if r.properly_contains(p) && q.properly_contains(r) {
                            return Err(TestCaseError::fail(format!(
                                "{r} lies strictly between parent {q} and child {p}"
                            )));
                        }
                    }
                }
            }
        }
    }

    /// Tree ancestry coincides with prefix containment.
    #[test]
    fn ancestry_is_containment(rules in prop::collection::vec(arb_prefix(), 1..40)) {
        let rt = RuleTree::build(&rules);
        let tree = rt.tree();
        for a in tree.nodes() {
            for b in tree.nodes() {
                let by_tree = tree.is_ancestor_or_self(a, b);
                let by_prefix = rt.prefix(a).contains(rt.prefix(b));
                prop_assert_eq!(by_tree, by_prefix, "nodes {:?} {:?}", a, b);
            }
        }
    }

    /// Containment algebra: transitivity and antisymmetry.
    #[test]
    fn containment_partial_order(a in arb_prefix(), b in arb_prefix(), c in arb_prefix()) {
        if a.contains(b) && b.contains(c) {
            prop_assert!(a.contains(c));
        }
        if a.contains(b) && b.contains(a) {
            prop_assert_eq!(a, b);
        }
    }

    /// An address is contained in a prefix iff truncating the address to
    /// the prefix length yields the prefix.
    #[test]
    fn contains_addr_consistent(p in arb_prefix(), addr in any::<u32>()) {
        let truncated = Prefix::new(addr, p.len());
        prop_assert_eq!(p.contains_addr(addr), truncated == p);
    }

    /// Split children partition the parent's address space.
    #[test]
    fn split_partitions(p in (any::<u32>(), 0u8..=31).prop_map(|(a, l)| Prefix::new(a, l))) {
        let (lo, hi) = p.split().expect("len < 32 splits");
        prop_assert_eq!(lo.address_count() + hi.address_count(), p.address_count());
        prop_assert!(p.contains(lo) && p.contains(hi));
        prop_assert!(!lo.contains(hi) && !hi.contains(lo));
    }
}
