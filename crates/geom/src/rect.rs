//! Axis-aligned rectangles with regular quadrant decomposition.
//!
//! [`Rect`] is the block of a quadtree. Containment is half-open in both
//! axes (`[x_lo, x_hi) × [y_lo, y_hi)`) so the four quadrants of a split
//! tile the parent exactly and every contained point belongs to exactly
//! one quadrant — the invariant the PR quadtree depends on.

use crate::interval::Interval;
use crate::point::Point2;
use std::fmt;

/// One of the four quadrants of a split rectangle.
///
/// Naming follows compass convention: `Sw` is low-x/low-y.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// Low x, low y.
    Sw,
    /// High x, low y.
    Se,
    /// Low x, high y.
    Nw,
    /// High x, high y.
    Ne,
}

impl Quadrant {
    /// All four quadrants in index order.
    pub const ALL: [Quadrant; 4] = [Quadrant::Sw, Quadrant::Se, Quadrant::Nw, Quadrant::Ne];

    /// Index (`Sw=0, Se=1, Nw=2, Ne=3`): bit 0 is the x half, bit 1 the y
    /// half.
    pub fn index(self) -> usize {
        match self {
            Quadrant::Sw => 0,
            Quadrant::Se => 1,
            Quadrant::Nw => 2,
            Quadrant::Ne => 3,
        }
    }

    /// Quadrant from an index in `0..4`.
    pub fn from_index(i: usize) -> Quadrant {
        Quadrant::ALL[i]
    }
}

impl fmt::Display for Quadrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Quadrant::Sw => "SW",
            Quadrant::Se => "SE",
            Quadrant::Nw => "NW",
            Quadrant::Ne => "NE",
        };
        write!(f, "{s}")
    }
}

/// An axis-aligned rectangle, half-open on both axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    x: Interval,
    y: Interval,
}

impl Rect {
    /// Creates a rectangle from two half-open intervals.
    pub fn new(x: Interval, y: Interval) -> Self {
        Rect { x, y }
    }

    /// Creates a rectangle from corner coordinates. Panics on degenerate
    /// bounds (see [`Interval::new`]).
    pub fn from_bounds(x_lo: f64, y_lo: f64, x_hi: f64, y_hi: f64) -> Self {
        Rect::new(Interval::new(x_lo, x_hi), Interval::new(y_lo, y_hi))
    }

    /// The unit square `[0, 1) × [0, 1)`, the region all the paper's
    /// experiments run in.
    pub fn unit() -> Self {
        Rect::new(Interval::unit(), Interval::unit())
    }

    /// Horizontal interval.
    pub fn x(&self) -> Interval {
        self.x
    }

    /// Vertical interval.
    pub fn y(&self) -> Interval {
        self.y
    }

    /// Width.
    pub fn width(&self) -> f64 {
        self.x.length()
    }

    /// Height.
    pub fn height(&self) -> f64 {
        self.y.length()
    }

    /// Area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> Point2 {
        Point2::new(self.x.mid(), self.y.mid())
    }

    /// Half-open containment.
    pub fn contains(&self, p: &Point2) -> bool {
        self.x.contains(p.x) && self.y.contains(p.y)
    }

    /// The quadrant of this rectangle containing `p`.
    ///
    /// Callers must ensure `self.contains(p)` (debug-asserted).
    pub fn quadrant_of(&self, p: &Point2) -> Quadrant {
        debug_assert!(self.contains(p), "quadrant_of: point outside rect");
        let xi = usize::from(p.x >= self.x.mid());
        let yi = usize::from(p.y >= self.y.mid());
        Quadrant::from_index(yi * 2 + xi)
    }

    /// The four quadrants, in [`Quadrant::ALL`] order.
    pub fn quadrants(&self) -> [Rect; 4] {
        let [xl, xh] = self.x.split();
        let [yl, yh] = self.y.split();
        [
            Rect::new(xl, yl), // SW
            Rect::new(xh, yl), // SE
            Rect::new(xl, yh), // NW
            Rect::new(xh, yh), // NE
        ]
    }

    /// A single quadrant, bit-identical to its entry in
    /// [`Rect::quadrants`]; only the asked-for child is built. Bit 0 of
    /// the quadrant index picks the x half, bit 1 the y half.
    pub fn quadrant(&self, q: Quadrant) -> Rect {
        let i = q.index();
        let (mx, my) = (self.x.mid(), self.y.mid());
        let (x_lo, x_hi) = if i & 1 == 0 {
            (self.x.lo(), mx)
        } else {
            (mx, self.x.hi())
        };
        let (y_lo, y_hi) = if i & 2 == 0 {
            (self.y.lo(), my)
        } else {
            (my, self.y.hi())
        };
        Rect::new(Interval::new(x_lo, x_hi), Interval::new(y_lo, y_hi))
    }

    /// Fused [`Rect::quadrant_of`] + [`Rect::quadrant`]: the quadrant
    /// containing `p` and its rect, computing each axis midpoint once and
    /// constructing only the chosen child. Bit-identical to the unfused
    /// pair; callers must ensure `self.contains(p)` (debug-asserted).
    pub fn quadrant_descend(&self, p: &Point2) -> (Quadrant, Rect) {
        debug_assert!(self.contains(p), "quadrant_descend: point outside rect");
        let (xh, x) = self.x.descend(p.x);
        let (yh, y) = self.y.descend(p.y);
        (
            Quadrant::from_index(yh.index() * 2 + xh.index()),
            Rect::new(x, y),
        )
    }

    /// `true` when the rectangles overlap (half-open semantics: touching
    /// edges do not overlap).
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x.overlaps(&other.x) && self.y.overlaps(&other.y)
    }

    /// `true` when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x.lo() >= self.x.lo()
            && other.x.hi() <= self.x.hi()
            && other.y.lo() >= self.y.lo()
            && other.y.hi() <= self.y.hi()
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_measures() {
        let r = Rect::from_bounds(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
        assert_eq!(r.area(), 8.0);
        assert_eq!(r.center(), Point2::new(2.0, 1.0));
    }

    #[test]
    fn containment_is_half_open() {
        let r = Rect::unit();
        assert!(r.contains(&Point2::new(0.0, 0.0)));
        assert!(r.contains(&Point2::new(0.999, 0.999)));
        assert!(!r.contains(&Point2::new(1.0, 0.5)));
        assert!(!r.contains(&Point2::new(0.5, 1.0)));
        assert!(!r.contains(&Point2::new(-0.001, 0.5)));
    }

    #[test]
    fn quadrants_tile_parent() {
        let r = Rect::from_bounds(0.0, 0.0, 2.0, 2.0);
        let qs = r.quadrants();
        let total: f64 = qs.iter().map(Rect::area).sum();
        assert_eq!(total, r.area());
        // No pair overlaps.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(!qs[i].overlaps(&qs[j]), "{i} overlaps {j}");
            }
        }
        // All inside the parent.
        for q in &qs {
            assert!(r.contains_rect(q));
        }
    }

    #[test]
    fn quadrant_is_bit_identical_to_its_entry_in_quadrants() {
        // Odd bounds, so the midpoints round; descend through every
        // quadrant index in turn.
        let bits = |r: &Rect| [r.x().lo(), r.x().hi(), r.y().lo(), r.y().hi()].map(f64::to_bits);
        let mut r = Rect::new(Interval::new(0.137, 1.731), Interval::new(-2.5, 0.875));
        for step in 0..40 {
            let all = r.quadrants();
            for (q, expected) in Quadrant::ALL.into_iter().zip(all) {
                assert_eq!(bits(&r.quadrant(q)), bits(&expected), "step {step} {q}");
            }
            r = r.quadrant(Quadrant::from_index(step % 4));
        }
    }

    #[test]
    fn quadrant_descend_is_bit_identical_to_unfused_pair() {
        // The arena trees descend with the fused call; it must reproduce
        // quadrant_of + quadrant exactly, bounds bit for bit.
        let mut r = Rect::new(Interval::new(0.137, 1.731), Interval::new(-2.5, 0.875));
        let p = Point2::new(0.694_201_337, 0.333_333_3);
        for _ in 0..40 {
            let (q, child) = r.quadrant_descend(&p);
            assert_eq!(q, r.quadrant_of(&p));
            assert_eq!(child, r.quadrant(q));
            r = child;
        }
    }

    #[test]
    fn quadrant_of_matches_quadrant_rect() {
        let r = Rect::unit();
        let samples = [
            (Point2::new(0.1, 0.1), Quadrant::Sw),
            (Point2::new(0.9, 0.1), Quadrant::Se),
            (Point2::new(0.1, 0.9), Quadrant::Nw),
            (Point2::new(0.9, 0.9), Quadrant::Ne),
            // Midpoints go to the upper half on each axis.
            (Point2::new(0.5, 0.5), Quadrant::Ne),
            (Point2::new(0.5, 0.0), Quadrant::Se),
            (Point2::new(0.0, 0.5), Quadrant::Nw),
        ];
        for (p, expect) in samples {
            assert_eq!(r.quadrant_of(&p), expect, "{p}");
            assert!(r.quadrant(expect).contains(&p), "{p}");
        }
    }

    #[test]
    fn overlap_and_containment_of_rects() {
        let r = Rect::unit();
        assert!(r.overlaps(&Rect::from_bounds(0.5, 0.5, 2.0, 2.0)));
        assert!(!r.overlaps(&Rect::from_bounds(1.0, 0.0, 2.0, 1.0))); // shared edge
        assert!(r.contains_rect(&Rect::from_bounds(0.25, 0.25, 0.75, 0.75)));
        assert!(!r.contains_rect(&Rect::from_bounds(0.5, 0.5, 1.5, 0.9)));
        assert!(r.contains_rect(&r));
    }

    #[test]
    fn quadrant_indexing_round_trips() {
        for q in Quadrant::ALL {
            assert_eq!(Quadrant::from_index(q.index()), q);
        }
        assert_eq!(format!("{}", Quadrant::Nw), "NW");
    }

    #[test]
    fn display_format() {
        let r = Rect::unit();
        assert_eq!(format!("{r}"), "[0, 1)×[0, 1)");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #[test]
        fn contained_point_is_in_exactly_one_quadrant(
            px in 0.0f64..1.0,
            py in 0.0f64..1.0,
        ) {
            let r = Rect::unit();
            let p = Point2::new(px, py);
            prop_assume!(r.contains(&p));
            let hits = r
                .quadrants()
                .iter()
                .filter(|q| q.contains(&p))
                .count();
            prop_assert_eq!(hits, 1);
            // And quadrant_of names that quadrant.
            let q = r.quadrant_of(&p);
            prop_assert!(r.quadrant(q).contains(&p));
        }

        #[test]
        fn recursive_decomposition_preserves_area(
            x_lo in -10.0f64..10.0,
            y_lo in -10.0f64..10.0,
            w in 0.1f64..10.0,
            h in 0.1f64..10.0,
        ) {
            let r = Rect::from_bounds(x_lo, y_lo, x_lo + w, y_lo + h);
            // Two levels of decomposition: 16 grandchildren tile the root.
            let mut total = 0.0;
            for q in r.quadrants() {
                for g in q.quadrants() {
                    total += g.area();
                }
            }
            prop_assert!((total - r.area()).abs() < 1e-9 * r.area().max(1.0));
        }
    }
}
