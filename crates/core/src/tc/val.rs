//! Exact arithmetic for the paper's `val` potential (Section 6.2).
//!
//! For a set of cached nodes `A` at time `t`,
//!
//! ```text
//! val_t(A) = cnt_t(A) − |A|·α + |A| / (|T| + 1)
//! ```
//!
//! The first two terms are integers and the third lies strictly in `(0, 1)`
//! for non-empty `A`, so `val` is never zero and comparisons reduce to
//! lexicographic comparison on the exact pair
//! `(cnt(A) − |A|·α, |A|)`. We store exactly that pair — no floating point,
//! so the tie-breaking the paper relies on is exact at any scale.

/// The exact value `val(A)` as (integer part, set size).
///
/// Semantics: the represented rational is `int + size/(|T|+1)` with
/// `0 ≤ size ≤ |T|`. For non-empty sets `size ≥ 1`, hence:
///
/// * `val(A) > 0  ⟺  int ≥ 0`
/// * `val(A) < 0  ⟺  int ≤ −1`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValPair {
    /// `cnt(A) − |A|·α`.
    pub int: i64,
    /// `|A|`.
    pub size: i64,
}

impl ValPair {
    /// The value of an empty set (exactly zero).
    #[must_use]
    pub fn zero() -> Self {
        Self { int: 0, size: 0 }
    }

    /// The base value of a single cached node with counter `cnt`:
    /// `cnt − α + 1/(|T|+1)`.
    #[must_use]
    pub fn single(cnt: u64, alpha: u64) -> Self {
        Self { int: cnt as i64 - alpha as i64, size: 1 }
    }

    /// `val > 0` (only meaningful for sets; exact per the module docs).
    #[inline]
    #[must_use]
    pub fn is_positive(self) -> bool {
        debug_assert!(self.size >= 0);
        // int ≥ 0 and non-empty, or (int > 0 would imply non-empty anyway —
        // an empty set always has int == 0 by construction).
        self.int > 0 || (self.int == 0 && self.size > 0)
    }

    /// Additivity: `val(A ⊔ B) = val(A) + val(B)` for disjoint sets.
    #[inline]
    #[must_use]
    pub fn plus(self, other: ValPair) -> ValPair {
        ValPair { int: self.int + other.int, size: self.size + other.size }
    }

    /// Difference (for delta propagation up the tree).
    #[inline]
    #[must_use]
    pub fn minus(self, other: ValPair) -> ValPair {
        ValPair { int: self.int - other.int, size: self.size - other.size }
    }

    /// The contribution of this set under the `H'` rule (Section 6.2):
    /// itself if `val > 0`, else the empty set.
    #[inline]
    #[must_use]
    pub fn contribution(self) -> ValPair {
        if self.is_positive() {
            self
        } else {
            ValPair::zero()
        }
    }
}

impl std::cmp::PartialOrd for ValPair {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::cmp::Ord for ValPair {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // int dominates; size/(|T|+1) < 1 breaks ties.
        (self.int, self.size).cmp(&(other.int, other.size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_zero_for_nonempty() {
        // A freshly cached node with cnt = 0 and α = 2 has val = −2 + ε < 0.
        let v = ValPair::single(0, 2);
        assert!(!v.is_positive());
        // A node with cnt = α has val = 0 + ε > 0 — saturated.
        let v = ValPair::single(2, 2);
        assert!(v.is_positive());
    }

    #[test]
    fn additivity() {
        let a = ValPair::single(3, 2);
        let b = ValPair::single(0, 2);
        let sum = a.plus(b);
        // (3 − α) + (0 − α) with α = 2.
        assert_eq!(sum.int, -1);
        assert_eq!(sum.size, 2);
        assert_eq!(sum.minus(b), a);
    }

    #[test]
    fn contribution_rule() {
        let neg = ValPair::single(0, 4);
        assert_eq!(neg.contribution(), ValPair::zero());
        let pos = ValPair::single(9, 4);
        assert_eq!(pos.contribution(), pos);
    }

    #[test]
    fn ordering_breaks_ties_by_size() {
        let small = ValPair { int: 0, size: 1 };
        let big = ValPair { int: 0, size: 3 };
        assert!(big > small);
        let negative = ValPair { int: -1, size: 10 };
        assert!(negative < small);
    }

    #[test]
    fn empty_is_not_positive() {
        assert!(!ValPair::zero().is_positive());
    }
}
