//! Line segments and segment–rectangle intersection.
//!
//! The PMR quadtree stores line segments; inserting a segment requires
//! knowing which quadrants of a block it passes through. The intersection
//! test is Liang–Barsky parametric clipping against the (closed) block
//! boundary: a segment "is in" a block when the clipped parameter range is
//! non-degenerate, i.e. the segment actually passes through the block's
//! interior for a positive length, or it lies on the boundary.

use crate::interval::Interval;
use crate::point::Point2;
use crate::rect::Rect;
use std::fmt;

/// A directed line segment between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment2 {
    /// Start point.
    pub a: Point2,
    /// End point.
    pub b: Point2,
}

impl Segment2 {
    /// Creates a segment. Panics if the endpoints coincide or are
    /// non-finite — zero-length "segments" break quadrant classification
    /// and indicate a generator bug.
    pub fn new(a: Point2, b: Point2) -> Self {
        assert!(
            a.is_finite() && b.is_finite(),
            "non-finite segment endpoint"
        );
        assert!(a != b, "degenerate segment: endpoints coincide at {a}");
        Segment2 { a, b }
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    pub fn eval(&self, t: f64) -> Point2 {
        Point2::new(
            self.a.x + t * (self.b.x - self.a.x),
            self.a.y + t * (self.b.y - self.a.y),
        )
    }

    /// Liang–Barsky clip of the segment's parameter interval to the closed
    /// rectangle `[x_lo, x_hi] × [y_lo, y_hi]`.
    ///
    /// Returns `Some((t0, t1))` with `0 ≤ t0 ≤ t1 ≤ 1` when a portion of
    /// the segment lies inside (or on the boundary of) the rectangle,
    /// `None` otherwise.
    pub fn clip_to_rect(&self, rect: &Rect) -> Option<(f64, f64)> {
        let (x, y) = self.clip_axes(rect);
        let (t0, t1) = meet(x.whole, y.whole);
        (t0 <= t1).then_some((t0, t1))
    }

    /// `true` when the segment passes through the rectangle's interior for
    /// a positive length (a grazing touch at a single point does not
    /// count — a segment touching only a block corner is not stored in
    /// that block).
    pub fn crosses_rect(&self, rect: &Rect) -> bool {
        match self.clip_to_rect(rect) {
            Some((t0, t1)) => (t1 - t0) * self.length() > 1e-12,
            None => false,
        }
    }

    /// Which quadrants of `block` the segment passes through for a
    /// positive length, in [`crate::rect::Quadrant::ALL`] order. Entry
    /// `i` equals `self.crosses_rect(&block.quadrants()[i])`, bit for bit.
    ///
    /// A quadrant's clip is an x-half clip and a y-half clip combined, so
    /// this runs one clip per axis half and the two quadrants on a half
    /// share it; the two halves of an axis share their midline ratio.
    /// That is 6 divisions and 1 `sqrt` where four
    /// [`Self::crosses_rect`] calls make 16 and 4. Each ratio and
    /// comparison is one `clip_to_rect` makes on that quadrant.
    pub fn crosses_quadrants(&self, block: &Rect) -> [bool; 4] {
        let (x, y) = self.clip_axes(block);
        quadrant_mask(&x, &y, self.length())
    }

    /// `Some(self.crosses_quadrants(block))` when
    /// `self.crosses_rect(block)`, else `None`, bit for bit.
    ///
    /// The whole block's ratios are the halves' outer ones, so one clip
    /// per axis answers both: 6 divisions and 1 `sqrt`, where
    /// `crosses_rect` followed by `crosses_quadrants` makes 10 and 2.
    #[inline]
    pub fn crosses_block(&self, block: &Rect) -> Option<[bool; 4]> {
        let (x, y) = self.clip_axes(block);
        let length = self.length();
        crosses(x.whole, y.whole, length).then(|| quadrant_mask(&x, &y, length))
    }

    /// [`Self::clip_axis`] on both axes of `block`.
    #[inline]
    fn clip_axes(&self, block: &Rect) -> (AxisClip, AxisClip) {
        (
            Self::clip_axis(self.a.x, self.b.x - self.a.x, block.x()),
            Self::clip_axis(self.a.y, self.b.y - self.a.y, block.y()),
        )
    }

    /// Liang–Barsky on one axis, for the whole of `axis` and both of its
    /// halves at once: the parameter range in `[0, 1]` where `a + t·d`
    /// lies in each closed interval. A range may come out empty
    /// (`t0 > t1`), which the caller's `t0 ≤ t1` test rejects.
    ///
    /// A segment parallel to the axis's edges (`d = ±0`) needs no case of
    /// its own: each ratio is then an infinity whose sign says which side
    /// of the edge `a` lies on, or NaN for `a` on the edge. An edge `a`
    /// lies outside empties the range (t0 = +∞ or t1 = −∞), and the
    /// others leave it `(0, 1)`, as a walk that rejects a parallel edge
    /// with `q < 0` and skips the rest does.
    #[inline]
    fn clip_axis(a: f64, d: f64, axis: Interval) -> AxisClip {
        let (lo, mid, hi) = (axis.lo(), axis.mid(), axis.hi());
        // The `x ≥ lo`, `x ≤ mid` and `x ≤ hi` ratios; the upper half's
        // `x ≥ mid` ratio `(a − mid)/(−d)` is the same number (up to the
        // sign of a zero, which no comparison sees).
        let (r_lo, r_mid, r_hi) = ((a - lo) / -d, (mid - a) / d, (hi - a) / d);
        // The sign of `d` (of a zero too) says which edge of a pair the
        // segment enters by. Entering ratios raise t0 from 0, leaving
        // ones lower t1 from 1, and a NaN moves neither.
        let up = d.is_sign_positive();
        let range = |r_up: (f64, f64), r_down: (f64, f64)| {
            let (enter, leave) = if up { r_up } else { r_down };
            (
                if enter > 0.0 { enter } else { 0.0 },
                if leave < 1.0 { leave } else { 1.0 },
            )
        };
        AxisClip {
            whole: range((r_lo, r_hi), (r_hi, r_lo)),
            lower: range((r_lo, r_mid), (r_mid, r_lo)),
            upper: range((r_mid, r_hi), (r_hi, r_mid)),
        }
    }
}

/// One axis's clip ranges: the whole axis and its two closed halves.
struct AxisClip {
    whole: (f64, f64),
    lower: (f64, f64),
    upper: (f64, f64),
}

/// The range where both axes' clips hold, `(max t0, min t1)` with the
/// x axis first; empty when `t0 > t1`.
#[inline]
fn meet((x0, x1): (f64, f64), (y0, y1): (f64, f64)) -> (f64, f64) {
    let t0 = if y0 > x0 { y0 } else { x0 };
    let t1 = if y1 < x1 { y1 } else { x1 };
    (t0, t1)
}

/// `crosses_rect`'s test on the meet of two axis clips: a positive
/// length inside.
#[inline]
fn crosses(x: (f64, f64), y: (f64, f64), length: f64) -> bool {
    let (t0, t1) = meet(x, y);
    // `&`, not `&&`: a short-circuit may compile to a branch, and which
    // way it goes is a coin flip for a random segment.
    (t0 <= t1) & ((t1 - t0) * length > 1e-12)
}

/// The quadrants, in [`crate::rect::Quadrant::ALL`] order, whose halves'
/// clips [`crosses`] accepts.
#[inline]
fn quadrant_mask(x: &AxisClip, y: &AxisClip, length: f64) -> [bool; 4] {
    [
        crosses(x.lower, y.lower, length),
        crosses(x.upper, y.lower, length),
        crosses(x.lower, y.upper, length),
        crosses(x.upper, y.upper, length),
    ]
}

impl fmt::Display for Segment2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::adversarial::{adversarial_segment, clip_bits, dyadic_block, reference_clip};
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment2 {
        Segment2::new(Point2::new(ax, ay), Point2::new(bx, by))
    }

    #[test]
    fn basic_measures() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.eval(0.0), Point2::new(0.0, 0.0));
        assert_eq!(s.eval(1.0), Point2::new(3.0, 4.0));
        assert_eq!(s.eval(0.5), Point2::new(1.5, 2.0));
    }

    #[test]
    #[should_panic(expected = "degenerate segment")]
    fn rejects_zero_length() {
        seg(1.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn clip_fully_inside() {
        let r = Rect::unit();
        let s = seg(0.25, 0.25, 0.75, 0.75);
        assert_eq!(s.clip_to_rect(&r), Some((0.0, 1.0)));
        assert!(s.crosses_rect(&r));
    }

    #[test]
    fn clip_crossing_through() {
        let r = Rect::unit();
        let s = seg(-1.0, 0.5, 2.0, 0.5);
        let (t0, t1) = s.clip_to_rect(&r).unwrap();
        assert!((t0 - 1.0 / 3.0).abs() < 1e-12);
        assert!((t1 - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.crosses_rect(&r));
    }

    #[test]
    fn clip_misses() {
        let r = Rect::unit();
        assert_eq!(seg(2.0, 0.0, 3.0, 1.0).clip_to_rect(&r), None);
        assert!(!seg(2.0, 0.0, 3.0, 1.0).crosses_rect(&r));
        // Parallel to an edge, outside.
        assert_eq!(seg(-0.5, 2.0, 1.5, 2.0).clip_to_rect(&r), None);
    }

    #[test]
    fn corner_graze_does_not_count_as_crossing() {
        let r = Rect::from_bounds(0.0, 0.0, 1.0, 1.0);
        // Passes exactly through the corner (1, 1) at a point.
        let s = seg(0.5, 1.5, 1.5, 0.5);
        // Clip returns a degenerate interval at the corner...
        if let Some((t0, t1)) = s.clip_to_rect(&r) {
            assert!((t1 - t0).abs() < 1e-12);
        }
        // ...which crosses_rect rejects.
        assert!(!s.crosses_rect(&r));
    }

    #[test]
    fn diagonal_crosses_expected_quadrants() {
        let r = Rect::unit();
        // Main diagonal passes through SW and NE (touches center point
        // shared with the others only at a point).
        let s = seg(0.01, 0.01, 0.99, 0.99);
        assert_eq!(s.crosses_quadrants(&r), [true, false, false, true]); // SW, NE
    }

    #[test]
    fn horizontal_segment_crosses_two_lower_quadrants() {
        let r = Rect::unit();
        let s = seg(0.1, 0.25, 0.9, 0.25);
        assert_eq!(s.crosses_quadrants(&r), [true, true, false, false]); // SW, SE
    }

    #[test]
    fn segment_confined_to_one_quadrant() {
        let r = Rect::unit();
        let s = seg(0.1, 0.6, 0.4, 0.9);
        assert_eq!(s.crosses_quadrants(&r), [false, false, true, false]); // NW
    }

    #[test]
    fn long_segment_crosses_three_quadrants() {
        let r = Rect::unit();
        // From SW up through NW into NE.
        let s = seg(0.1, 0.1, 0.9, 0.9001);
        assert_eq!(s.crosses_quadrants(&r), [true, false, true, true]);
    }

    #[test]
    fn segment_on_a_midline_lies_in_the_quadrants_on_both_sides() {
        // Closed quadrants share the midlines, so a segment along one
        // lies in both quadrants on either side of it.
        let r = Rect::unit();
        assert_eq!(seg(0.5, 0.0, 0.5, 1.0).crosses_quadrants(&r), [true; 4]);
        assert_eq!(
            seg(0.0, 0.5, 0.4, 0.5).crosses_quadrants(&r),
            [true, false, true, false]
        );
        assert_eq!(seg(1.5, 0.0, 1.5, 1.0).crosses_quadrants(&r), [false; 4]);
    }

    #[test]
    fn parallel_segments_clip_alike_with_either_zero_sign() {
        // `b.x − a.x` is +0 for equal coordinates but −0 for `a.x = +0`,
        // `b.x = −0`; each block puts an edge or a midline at 0.
        let blocks = [
            Rect::unit(),
            Rect::from_bounds(-1.0, -1.0, 0.0, 0.0),
            Rect::from_bounds(-0.5, -0.5, 0.5, 0.5),
        ];
        let check = |s: Segment2, block: Rect| {
            for rect in std::iter::once(block).chain(block.quadrants()) {
                let want = clip_bits(reference_clip(&s, &rect));
                assert_eq!(clip_bits(s.clip_to_rect(&rect)), want, "{s:?} in {rect}");
            }
            let quadrants = block.quadrants().map(|q| s.crosses_rect(&q));
            assert_eq!(s.crosses_quadrants(&block), quadrants);
            let fused = s.crosses_block(&block);
            assert_eq!(fused, s.crosses_rect(&block).then_some(quadrants));
        };
        let zeros = [(0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)];
        for (ax, bx) in zeros.into_iter().chain([(2.0, 2.0)]) {
            for (ay, by) in [(0.25, 0.75), (0.75, 0.25), (-0.5, -0.25), (1.5, 2.0)] {
                for block in blocks {
                    check(seg(ax, ay, bx, by), block);
                    check(seg(ay, ax, by, bx), block);
                }
            }
        }
    }

    #[test]
    fn adversarial_segments_reach_every_hit_count() {
        let mut hits = [0usize; 5];
        let mut bits = 0u64;
        for _ in 0..4000 {
            bits = bits.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mixed = (bits ^ (bits >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let block = dyadic_block(mixed);
            if let Some(s) = adversarial_segment(&block, mixed.rotate_left(17)) {
                let got = s.crosses_quadrants(&block);
                assert_eq!(got, block.quadrants().map(|q| s.crosses_rect(&q)));
                assert_eq!(
                    s.crosses_block(&block),
                    s.crosses_rect(&block).then_some(got)
                );
                for rect in std::iter::once(block).chain(block.quadrants()) {
                    let want = clip_bits(reference_clip(&s, &rect));
                    assert_eq!(clip_bits(s.clip_to_rect(&rect)), want);
                }
                hits[got.iter().filter(|&&c| c).count()] += 1;
            }
        }
        assert!(hits.iter().all(|&n| n > 0), "hit counts 0..=4: {hits:?}");
    }
}

/// Dyadic blocks and adversarial segments for the quadrant classifier's
/// differential tests, and the edge-by-edge clip they compare with.
#[cfg(test)]
mod adversarial {
    use super::*;

    /// Liang–Barsky as a walk over the four edges in order, returning
    /// `None` as soon as the range empties: the reference whose
    /// `(t0, t1)` bits [`Segment2::clip_to_rect`] must reproduce.
    pub fn reference_clip(s: &Segment2, rect: &Rect) -> Option<(f64, f64)> {
        let dx = s.b.x - s.a.x;
        let dy = s.b.y - s.a.y;
        let mut t0 = 0.0_f64;
        let mut t1 = 1.0_f64;
        // Each boundary contributes p·t ≤ q.
        let checks = [
            (-dx, s.a.x - rect.x().lo()), // x ≥ x_lo
            (dx, rect.x().hi() - s.a.x),  // x ≤ x_hi
            (-dy, s.a.y - rect.y().lo()), // y ≥ y_lo
            (dy, rect.y().hi() - s.a.y),  // y ≤ y_hi
        ];
        for (p, q) in checks {
            if p == 0.0 {
                if q < 0.0 {
                    return None; // parallel and outside
                }
                continue;
            }
            let r = q / p;
            if p < 0.0 {
                if r > t1 {
                    return None;
                }
                if r > t0 {
                    t0 = r;
                }
            } else {
                if r < t0 {
                    return None;
                }
                if r < t1 {
                    t1 = r;
                }
            }
        }
        (t0 <= t1).then_some((t0, t1))
    }

    /// A clip by its bits, so that `±0` and equal values compare apart.
    pub fn clip_bits(clip: Option<(f64, f64)>) -> Option<(u64, u64)> {
        clip.map(|(t0, t1)| (t0.to_bits(), t1.to_bits()))
    }

    /// The dyadic block picked by `bits`: depth 0–13 in the unit square.
    pub fn dyadic_block(bits: u64) -> Rect {
        let depth = (bits % 14) as i32;
        let cells = 1u64 << depth;
        let side = 0.5f64.powi(depth);
        let (ix, iy) = ((bits >> 8) % cells, (bits >> 24) % cells);
        let (x, y) = (ix as f64 * side, iy as f64 * side);
        Rect::from_bounds(x, y, x + side, y + side)
    }

    /// A coordinate adversarial for `axis`, picked by `bits`: an edge,
    /// the midline, one of those nudged by ±1e-13, a point of the 1/8
    /// grid, or a point outside.
    fn coordinate(axis: Interval, bits: u64) -> f64 {
        let (lo, mid, hi) = (axis.lo(), axis.mid(), axis.hi());
        let nudge = if bits & 8 == 0 { 1e-13 } else { -1e-13 };
        let eighth = ((bits >> 4) % 9) as f64 * axis.length() / 8.0;
        match bits & 7 {
            0 => lo,
            1 => hi,
            2 => mid,
            3 => mid + nudge,
            4 => lo + nudge,
            5 => hi + nudge,
            6 => lo + eighth,
            _ if bits & 8 == 0 => lo - eighth - axis.length() / 16.0,
            _ => hi + eighth + axis.length() / 16.0,
        }
    }

    /// The segment picked by `bits` for `block`: general, axis-parallel,
    /// or hugging a midline within ±1e-13. `None` when both endpoints
    /// coincide.
    pub fn adversarial_segment(block: &Rect, bits: u64) -> Option<Segment2> {
        let (x, y) = (block.x(), block.y());
        let field = |i: u32| bits >> (8 * i + 2);
        let mut a = Point2::new(coordinate(x, field(0)), coordinate(y, field(1)));
        let mut b = Point2::new(coordinate(x, field(2)), coordinate(y, field(3)));
        let hug = |i: u32| [-1e-13, 0.0, 1e-13][(field(i) % 3) as usize];
        match bits & 3 {
            0 => {}
            1 => b.x = a.x,
            2 => b.y = a.y,
            _ if bits & 4 == 0 => (a.y, b.y) = (y.mid() + hug(4), y.mid() + hug(5)),
            _ => (a.x, b.x) = (x.mid() + hug(4), x.mid() + hug(5)),
        }
        (a != b).then(|| Segment2::new(a, b))
    }
}

#[cfg(test)]
mod proptests {
    use super::adversarial::{adversarial_segment, clip_bits, dyadic_block, reference_clip};
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #[test]
        fn clip_interval_is_ordered_and_bounded(
            ax in -2.0f64..3.0, ay in -2.0f64..3.0,
            bx in -2.0f64..3.0, by in -2.0f64..3.0,
        ) {
            prop_assume!((ax, ay) != (bx, by));
            let s = Segment2::new(Point2::new(ax, ay), Point2::new(bx, by));
            if let Some((t0, t1)) = s.clip_to_rect(&Rect::unit()) {
                prop_assert!((0.0..=1.0).contains(&t0));
                prop_assert!((0.0..=1.0).contains(&t1));
                prop_assert!(t0 <= t1);
                // Clipped endpoints lie in the closed unit square.
                for t in [t0, t1] {
                    let p = s.eval(t);
                    prop_assert!(p.x >= -1e-9 && p.x <= 1.0 + 1e-9);
                    prop_assert!(p.y >= -1e-9 && p.y <= 1.0 + 1e-9);
                }
            }
        }

        #[test]
        fn segment_inside_square_crosses_at_least_one_quadrant(
            ax in 0.0f64..1.0, ay in 0.0f64..1.0,
            bx in 0.0f64..1.0, by in 0.0f64..1.0,
        ) {
            prop_assume!((ax, ay) != (bx, by));
            let s = Segment2::new(Point2::new(ax, ay), Point2::new(bx, by));
            prop_assume!(s.length() > 1e-6);
            let hits = s.crosses_quadrants(&Rect::unit()).iter().filter(|&&c| c).count();
            prop_assert!(hits >= 1);
            prop_assert!(hits <= 3, "a straight segment crosses at most 3 quadrants");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crosses_quadrants_matches_four_rect_clips(
            block_bits in any::<u64>(),
            segment_bits in popan_proptest::collection::vec(any::<u64>(), 128),
        ) {
            let block = dyadic_block(block_bits);
            for bits in segment_bits {
                if let Some(s) = adversarial_segment(&block, bits) {
                    let quadrants = s.crosses_quadrants(&block);
                    prop_assert_eq!(
                        quadrants,
                        block.quadrants().map(|q| s.crosses_rect(&q)),
                        "segment {:?} in block {}",
                        s,
                        block
                    );
                    prop_assert_eq!(
                        s.crosses_block(&block),
                        s.crosses_rect(&block).then_some(quadrants),
                        "segment {:?} in block {}",
                        s,
                        block
                    );
                    let want = clip_bits(reference_clip(&s, &block));
                    prop_assert_eq!(clip_bits(s.clip_to_rect(&block)), want);
                }
            }
        }
    }
}
