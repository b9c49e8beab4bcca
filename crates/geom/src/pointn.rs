//! Const-generic d-dimensional points and boxes.
//!
//! The paper: "the basic principle generalizes to 3 and higher
//! dimensions". [`PointN`] and [`BoxN`] carry the regular decomposition
//! to arbitrary dimension `D`, where a split produces `2^D` orthants —
//! the `b = 2^D` instances of the generalized population model. They
//! are the only points and blocks past the plane: the octree's are
//! `PointN<3>` and `BoxN<3>`.

use std::fmt;

/// A point in `D`-dimensional space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointN<const D: usize> {
    /// Coordinates.
    pub coords: [f64; D],
}

impl<const D: usize> PointN<D> {
    /// Creates a point.
    pub const fn new(coords: [f64; D]) -> Self {
        PointN { coords }
    }

    /// `true` when every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }

    /// Squared Euclidean distance.
    pub fn distance_squared(&self, other: &PointN<D>) -> f64 {
        self.coords
            .iter()
            .zip(&other.coords)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

impl<const D: usize> Default for PointN<D> {
    /// The origin — lets fixed-size point buffers initialize without
    /// tracking validity per element.
    fn default() -> Self {
        PointN { coords: [0.0; D] }
    }
}

impl<const D: usize> fmt::Display for PointN<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// An axis-aligned box in `D` dimensions, half-open on every axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxN<const D: usize> {
    lo: [f64; D],
    hi: [f64; D],
}

impl<const D: usize> BoxN<D> {
    /// Number of orthants a split produces (`2^D`).
    pub const ORTHANTS: usize = 1 << D;

    /// Creates a box. Panics on degenerate or non-finite bounds.
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        for i in 0..D {
            assert!(
                lo[i].is_finite() && hi[i].is_finite() && lo[i] < hi[i],
                "invalid box bound on axis {i}: [{}, {})",
                lo[i],
                hi[i]
            );
        }
        BoxN { lo, hi }
    }

    /// The unit box `[0, 1)^D`.
    pub fn unit() -> Self {
        BoxN::new([0.0; D], [1.0; D])
    }

    /// Lower bounds.
    pub fn lo(&self) -> &[f64; D] {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &[f64; D] {
        &self.hi
    }

    /// Volume (product of extents).
    pub fn volume(&self) -> f64 {
        (0..D).map(|i| self.hi[i] - self.lo[i]).product()
    }

    /// Half-open containment.
    pub fn contains(&self, p: &PointN<D>) -> bool {
        (0..D).all(|i| p.coords[i] >= self.lo[i] && p.coords[i] < self.hi[i])
    }

    /// Axis midpoints.
    fn mids(&self) -> [f64; D] {
        std::array::from_fn(|i| self.lo[i] + (self.hi[i] - self.lo[i]) / 2.0)
    }

    /// The orthant index of `p`: bit `i` set iff coordinate `i` is in the
    /// upper half (midpoints go up, matching the half-open convention).
    pub fn orthant_of(&self, p: &PointN<D>) -> usize {
        debug_assert!(self.contains(p), "orthant_of: point outside box");
        let mids = self.mids();
        (0..D).fold(0, |acc, i| acc | (usize::from(p.coords[i] >= mids[i]) << i))
    }

    /// The child box for an orthant index in `0..2^D`.
    pub fn orthant(&self, index: usize) -> BoxN<D> {
        assert!(index < Self::ORTHANTS, "orthant index out of range");
        let mids = self.mids();
        let lo = std::array::from_fn(|i| {
            if index & (1 << i) == 0 {
                self.lo[i]
            } else {
                mids[i]
            }
        });
        let hi = std::array::from_fn(|i| {
            if index & (1 << i) == 0 {
                mids[i]
            } else {
                self.hi[i]
            }
        });
        BoxN::new(lo, hi)
    }

    /// Axis midpoints, as a point (the split thresholds of this box).
    pub fn split_mids(&self) -> PointN<D> {
        PointN::new(self.mids())
    }

    /// Fused [`BoxN::orthant_of`] + [`BoxN::orthant`]: the orthant
    /// containing `p` and its box, computing the midpoints once and
    /// constructing only the chosen child. Bit-identical to the unfused
    /// pair; callers must ensure `self.contains(p)` (debug-asserted).
    pub fn orthant_descend(&self, p: &PointN<D>) -> (usize, BoxN<D>) {
        debug_assert!(self.contains(p), "orthant_descend: point outside box");
        let mids = self.mids();
        let index = (0..D).fold(0, |acc, i| acc | (usize::from(p.coords[i] >= mids[i]) << i));
        let lo = std::array::from_fn(|i| {
            if index & (1 << i) == 0 {
                self.lo[i]
            } else {
                mids[i]
            }
        });
        let hi = std::array::from_fn(|i| {
            if index & (1 << i) == 0 {
                mids[i]
            } else {
                self.hi[i]
            }
        });
        (index, BoxN::new(lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_basics() {
        let p = PointN::new([1.0, 2.0, 3.0, 4.0]);
        assert!(p.is_finite());
        assert!(!PointN::new([f64::NAN, 0.0]).is_finite());
        let q = PointN::new([1.0, 2.0, 3.0, 6.0]);
        assert_eq!(p.distance_squared(&q), 4.0);
        assert_eq!(format!("{}", PointN::new([1.0, 2.5])), "(1, 2.5)");
    }

    #[test]
    fn unit_box_measures() {
        let b = BoxN::<4>::unit();
        assert_eq!(b.volume(), 1.0);
        assert_eq!(BoxN::<4>::ORTHANTS, 16);
        assert!(b.contains(&PointN::new([0.0; 4])));
        assert!(!b.contains(&PointN::new([0.5, 0.5, 1.0, 0.5])));
    }

    #[test]
    #[should_panic(expected = "invalid box bound")]
    fn rejects_degenerate_box() {
        BoxN::new([0.0, 0.0], [1.0, 0.0]);
    }

    #[test]
    fn orthants_tile_the_box() {
        let b = BoxN::<3>::unit();
        let total: f64 = (0..8).map(|i| b.orthant(i).volume()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthant_descend_is_bit_identical_to_unfused_pair() {
        let mut b = BoxN::<3>::unit();
        let p = PointN::new([0.694_201_337, 0.333_333_3, 0.871]);
        for _ in 0..40 {
            let (o, child) = b.orthant_descend(&p);
            assert_eq!(o, b.orthant_of(&p));
            assert_eq!(child, b.orthant(o));
            assert_eq!(b.split_mids().coords, {
                let q = b.orthant(0);
                q.hi
            });
            b = child;
        }
    }

    #[test]
    fn orthant_of_matches_orthant_box() {
        let b = BoxN::<4>::unit();
        let samples = [
            PointN::new([0.1, 0.1, 0.1, 0.1]),
            PointN::new([0.9, 0.1, 0.9, 0.1]),
            PointN::new([0.5, 0.5, 0.5, 0.5]), // mid goes to the top orthant
            PointN::new([0.3, 0.8, 0.2, 0.6]),
        ];
        for p in samples {
            let o = b.orthant_of(&p);
            assert!(b.orthant(o).contains(&p), "{p} orthant {o}");
            let hits = (0..16).filter(|&i| b.orthant(i).contains(&p)).count();
            assert_eq!(hits, 1, "{p}");
        }
        assert_eq!(b.orthant_of(&PointN::new([0.5; 4])), 15);
    }

    #[test]
    fn dimension_one_reduces_to_interval_halving() {
        let b = BoxN::<1>::new([2.0], [6.0]);
        assert_eq!(b.orthant_of(&PointN::new([3.0])), 0);
        assert_eq!(b.orthant_of(&PointN::new([4.0])), 1);
        assert_eq!(b.orthant(0).hi()[0], 4.0);
        assert_eq!(b.orthant(1).lo()[0], 4.0);
    }

    #[test]
    fn consistency_with_2d_rect_quadrants() {
        use crate::{Point2, Rect};
        // BoxN<2> orthant indexing matches Rect's quadrant indexing
        // (bit 0 = x half, bit 1 = y half).
        let bn = BoxN::<2>::unit();
        let r = Rect::unit();
        for &(x, y) in &[(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9), (0.5, 0.5)] {
            let o = bn.orthant_of(&PointN::new([x, y]));
            let q = r.quadrant_of(&Point2::new(x, y)).index();
            assert_eq!(o, q, "({x}, {y})");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #[test]
        fn contained_point_in_exactly_one_orthant(
            coords in popan_proptest::array::uniform4(0.0f64..1.0)
        ) {
            let b = BoxN::<4>::unit();
            let p = PointN::new(coords);
            prop_assume!(b.contains(&p));
            let hits = (0..16).filter(|&i| b.orthant(i).contains(&p)).count();
            prop_assert_eq!(hits, 1);
            prop_assert!(b.orthant(b.orthant_of(&p)).contains(&p));
        }
    }
}
