//! Half-open 1-D intervals with regular (midpoint) decomposition.
//!
//! The bintree splits a block in half along one axis at a time; an
//! [`Interval`] models one axis of that decomposition. Containment is
//! half-open `[lo, hi)` so the two halves of a split partition the parent
//! exactly.

use std::fmt;

/// Which half of a split interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Half {
    /// The lower half `[lo, mid)`.
    Lower,
    /// The upper half `[mid, hi)`.
    Upper,
}

impl Half {
    /// Both halves, in index order.
    pub const ALL: [Half; 2] = [Half::Lower, Half::Upper];

    /// Index of the half (`Lower = 0`, `Upper = 1`).
    pub fn index(self) -> usize {
        match self {
            Half::Lower => 0,
            Half::Upper => 1,
        }
    }
}

/// A half-open interval `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates `[lo, hi)`. Panics if `lo >= hi` or a bound is non-finite —
    /// degenerate intervals are a construction bug in the caller.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid interval [{lo}, {hi})"
        );
        Interval { lo, hi }
    }

    /// The unit interval `[0, 1)`.
    pub fn unit() -> Self {
        Interval::new(0.0, 1.0)
    }

    /// Creates `[lo, hi)` **without validation** — the bounds may be
    /// inverted, non-finite, anything. Fault-injection machinery only:
    /// the query tier's chaos suite flips single bits inside frozen
    /// block slabs to prove `Snapshot::verify` catches the damage, and a
    /// flipped exponent bit is allowed to produce a degenerate interval
    /// (the corrupted snapshot is quarantined, never queried). Every
    /// other caller must use [`Interval::new`].
    #[doc(hidden)]
    pub fn from_raw_unchecked(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// Lower bound (inclusive).
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound (exclusive).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Length `hi − lo`.
    pub fn length(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint.
    pub fn mid(&self) -> f64 {
        self.lo + (self.hi - self.lo) / 2.0
    }

    /// Half-open containment test.
    pub fn contains(&self, v: f64) -> bool {
        v >= self.lo && v < self.hi
    }

    /// The half of this interval that contains `v`.
    ///
    /// Callers must ensure `self.contains(v)`; the midpoint itself belongs
    /// to the upper half, matching the half-open convention.
    pub fn half_of(&self, v: f64) -> Half {
        debug_assert!(self.contains(v));
        if v < self.mid() {
            Half::Lower
        } else {
            Half::Upper
        }
    }

    /// Splits into `[lo, mid)` and `[mid, hi)`.
    pub fn split(&self) -> [Interval; 2] {
        let m = self.mid();
        [Interval::new(self.lo, m), Interval::new(m, self.hi)]
    }

    /// Fused [`Interval::half_of`] + [`Interval::child`]: which half
    /// contains `v` and that half as an interval, computing the midpoint
    /// once and constructing only the chosen child. Bit-identical to the
    /// unfused pair (same midpoint, same bounds); callers must ensure
    /// `self.contains(v)`.
    pub fn descend(&self, v: f64) -> (Half, Interval) {
        debug_assert!(self.contains(v));
        let m = self.mid();
        if v < m {
            (Half::Lower, Interval::new(self.lo, m))
        } else {
            (Half::Upper, Interval::new(m, self.hi))
        }
    }

    /// The child half as an interval: the bounds [`Interval::split`]
    /// gives that half, without building the other one.
    pub fn child(&self, half: Half) -> Interval {
        let m = self.mid();
        let (lo, hi) = match half {
            Half::Lower => (self.lo, m),
            Half::Upper => (m, self.hi),
        };
        Interval::new(lo, hi)
    }

    /// `true` when the intervals overlap (half-open semantics).
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let i = Interval::new(1.0, 3.0);
        assert_eq!(i.lo(), 1.0);
        assert_eq!(i.hi(), 3.0);
        assert_eq!(i.length(), 2.0);
        assert_eq!(i.mid(), 2.0);
        assert_eq!(format!("{i}"), "[1, 3)");
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_empty() {
        Interval::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn rejects_nan() {
        Interval::new(f64::NAN, 1.0);
    }

    #[test]
    fn half_open_containment() {
        let i = Interval::unit();
        assert!(i.contains(0.0));
        assert!(i.contains(0.999));
        assert!(!i.contains(1.0));
        assert!(!i.contains(-0.1));
    }

    #[test]
    fn split_partitions_exactly() {
        let i = Interval::new(0.0, 1.0);
        let [lo, hi] = i.split();
        assert_eq!(lo.hi(), hi.lo());
        assert_eq!(lo.length() + hi.length(), i.length());
        // Midpoint belongs to exactly one half.
        assert!(!lo.contains(0.5));
        assert!(hi.contains(0.5));
    }

    #[test]
    fn descend_is_bit_identical_to_half_of_plus_child() {
        let mut i = Interval::new(0.137, 1.731);
        let v = 0.694_201_337;
        for _ in 0..40 {
            let (h, child) = i.descend(v);
            assert_eq!(h, i.half_of(v));
            assert_eq!(child, i.child(h));
            i = child;
        }
    }

    #[test]
    fn half_of_is_consistent_with_children() {
        let i = Interval::new(2.0, 6.0);
        for v in [2.0, 3.9, 4.0, 5.9] {
            let h = i.half_of(v);
            assert!(i.child(h).contains(v), "value {v}");
            // And the other half does not contain it.
            let other = match h {
                Half::Lower => Half::Upper,
                Half::Upper => Half::Lower,
            };
            assert!(!i.child(other).contains(v), "value {v}");
        }
    }

    #[test]
    fn overlap_semantics() {
        let a = Interval::new(0.0, 1.0);
        assert!(a.overlaps(&Interval::new(0.5, 2.0)));
        assert!(!a.overlaps(&Interval::new(1.0, 2.0))); // touching, half-open
        assert!(a.overlaps(&Interval::new(-1.0, 0.1)));
        assert!(!a.overlaps(&Interval::new(-1.0, 0.0)));
    }

    #[test]
    fn half_indices() {
        assert_eq!(Half::Lower.index(), 0);
        assert_eq!(Half::Upper.index(), 1);
        assert_eq!(Half::ALL.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #[test]
        fn every_contained_value_is_in_exactly_one_child(
            lo in -100.0f64..100.0,
            len in 0.001f64..100.0,
            frac in 0.0f64..1.0,
        ) {
            let i = Interval::new(lo, lo + len);
            let v = lo + frac * len * 0.999_999;
            prop_assume!(i.contains(v));
            let containing: Vec<_> = Half::ALL
                .iter()
                .filter(|&&h| i.child(h).contains(v))
                .collect();
            prop_assert_eq!(containing.len(), 1);
        }

        #[test]
        fn split_lengths_sum(lo in -1e6f64..1e6, len in 1e-6f64..1e6) {
            let i = Interval::new(lo, lo + len);
            let [a, b] = i.split();
            prop_assert!((a.length() + b.length() - i.length()).abs() < 1e-9 * len.max(1.0));
        }
    }
}
