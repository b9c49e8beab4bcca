//! Z-order (Morton) codes.
//!
//! A Morton code interleaves the bits of quantized coordinates, linearizing
//! the quadtree's regular decomposition: two points share a length-`2k`
//! Morton prefix exactly when they fall in the same depth-`k` quadtree
//! block. The spatial tests use this duality to cross-check block
//! addressing, and the workload tooling uses it for deterministic
//! space-filling orderings.

use crate::point::Point2;
use crate::rect::Rect;

/// Number of bits per coordinate in a [`morton2`] code.
pub const MORTON_BITS: u32 = 31;

/// Spreads the low 31 bits of `v` so bit `i` moves to bit `2i`.
#[inline]
fn spread_bits(v: u32) -> u64 {
    let mut x = (v as u64) & 0x7fff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Collapses bits at even positions back into a compact integer.
#[inline]
fn compact_bits(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0x0000_0000_ffff_ffff;
    x as u32
}

/// Interleaves two 31-bit integers into a Morton code (x in even bits).
#[inline]
pub fn morton2(x: u32, y: u32) -> u64 {
    spread_bits(x) | (spread_bits(y) << 1)
}

/// Inverse of [`morton2`].
#[inline]
pub fn demorton2(code: u64) -> (u32, u32) {
    (compact_bits(code), compact_bits(code >> 1))
}

/// Quantizes a point in `rect` to a Morton code with [`MORTON_BITS`] bits
/// per axis. Callers must ensure `rect.contains(p)` (debug-asserted).
#[inline]
pub fn morton_of_point(p: &Point2, rect: &Rect) -> u64 {
    debug_assert!(rect.contains(p), "morton_of_point: point outside rect");
    morton_of_point_saturating(p, rect)
}

/// [`morton_of_point`] for any point: a coordinate below the region
/// (or NaN) quantizes to cell 0 of its axis, one at or above it to the
/// last cell, so the code of an outside point is that of the nearest
/// boundary cell on each axis. Inside `rect` the two agree bit for bit.
#[inline]
pub fn morton_of_point_saturating(p: &Point2, rect: &Rect) -> u64 {
    let scale = (1u64 << MORTON_BITS) as f64;
    let fx = (p.x - rect.x().lo()) / rect.width();
    let fy = (p.y - rect.y().lo()) / rect.height();
    let qx = ((fx * scale) as u32).min((1 << MORTON_BITS) - 1);
    let qy = ((fy * scale) as u32).min((1 << MORTON_BITS) - 1);
    morton2(qx, qy)
}

/// Whether quantization over `rect` is *grid-exact*: the Morton digits
/// of [`morton_of_point`] agree bit-for-bit with the geometric midpoint
/// descent (`v >= Interval::mid()`) at every depth the code resolves.
///
/// The certificate is per axis: lower bound exactly `0.0` and length a
/// power of two within a comfortable exponent range. Then every
/// operation in the quantization is exact — `(p.x - lo)` is `p.x`
/// itself, division by a power of two and the `2^31` scaling only
/// adjust exponents, and the `as u32` floor is the true floor — while
/// every geometric sub-interval bound is the dyadic rational
/// `i · w / 2^d` with an exactly representable midpoint, so
/// `p.x >= mid` at depth `d` is exactly "bit `31 - d` of the quantized
/// coordinate". Regions that fail the certificate (a non-zero origin
/// rounds `p.x - lo`; a non-power-of-two width rounds the division) can
/// disagree within one quantum of a split line, so bulk paths keyed on
/// Morton digits must fall back to geometric classification there.
pub fn morton_grid_exact(rect: &Rect) -> bool {
    axis_grid_exact(rect.x().lo(), rect.x().hi()) && axis_grid_exact(rect.y().lo(), rect.y().hi())
}

/// One axis of [`morton_grid_exact`]: `[0, 2^k)` with `k` in a range
/// where 62 further halvings stay normal (no subnormal rounding in the
/// midpoint chain) and products with `2^31` stay finite.
fn axis_grid_exact(lo: f64, hi: f64) -> bool {
    // NaN bounds land in the `!is_finite` arm.
    if lo != 0.0 || hi <= 0.0 || !hi.is_finite() {
        return false;
    }
    let bits = hi.to_bits();
    let mantissa = bits & ((1u64 << 52) - 1);
    let exponent = ((bits >> 52) & 0x7ff) as i64 - 1023;
    mantissa == 0 && (-512..=512).contains(&exponent)
}

/// The depth-`k` quadtree block id of a Morton code: its top `2k` bits.
///
/// Two points are in the same depth-`k` block of the regular decomposition
/// of `rect` iff their codes agree on this prefix.
pub fn block_id_at_depth(code: u64, depth: u32) -> u64 {
    assert!(depth <= MORTON_BITS, "depth {depth} exceeds {MORTON_BITS}");
    if depth == 0 {
        0
    } else {
        code >> (2 * (MORTON_BITS - depth))
    }
}

/// Number of full-resolution codes a depth-`d` block spans.
///
/// `depth` must not exceed [`MORTON_BITS`] — deeper blocks would alias
/// onto the same single code (the failure mode
/// `LinearQuadtree`'s freeze path reports as a typed error).
pub fn cells_at_depth(depth: u32) -> u64 {
    assert!(depth <= MORTON_BITS, "depth {depth} exceeds {MORTON_BITS}");
    1u64 << (2 * (MORTON_BITS - depth))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_round_trips() {
        for &(x, y) in &[
            (0u32, 0u32),
            (1, 0),
            (0, 1),
            (12345, 67890),
            (0x7fff_ffff, 0x7fff_ffff),
        ] {
            assert_eq!(demorton2(morton2(x, y)), (x, y));
        }
    }

    #[test]
    fn bit_interleaving_is_correct_for_small_values() {
        // x = 0b11, y = 0b01 → code = y1 x1 y0 x0 = 0 1 1 1 = 0b0111.
        assert_eq!(morton2(0b11, 0b01), 0b0111);
        assert_eq!(morton2(0b01, 0b11), 0b1011);
    }

    #[test]
    fn morton_order_is_monotone_in_each_axis_at_fixed_other() {
        assert!(morton2(1, 0) < morton2(2, 0));
        assert!(morton2(0, 1) < morton2(0, 2));
    }

    #[test]
    fn point_quantization_respects_quadrants() {
        let r = Rect::unit();
        // Depth-1 block ids follow quadrant structure: points in the same
        // quadrant share a depth-1 id, points in different quadrants don't.
        let sw = morton_of_point(&Point2::new(0.1, 0.1), &r);
        let sw2 = morton_of_point(&Point2::new(0.4, 0.4), &r);
        let ne = morton_of_point(&Point2::new(0.9, 0.9), &r);
        assert_eq!(block_id_at_depth(sw, 1), block_id_at_depth(sw2, 1));
        assert_ne!(block_id_at_depth(sw, 1), block_id_at_depth(ne, 1));
    }

    #[test]
    fn depth_zero_is_one_block() {
        let r = Rect::unit();
        let a = morton_of_point(&Point2::new(0.1, 0.9), &r);
        let b = morton_of_point(&Point2::new(0.9, 0.1), &r);
        assert_eq!(block_id_at_depth(a, 0), block_id_at_depth(b, 0));
    }

    #[test]
    fn saturating_quantization_clamps_outside_points_to_boundary_cells() {
        let r = Rect::unit();
        let top = (1u32 << MORTON_BITS) - 1;
        let p = Point2::new(0.3, 0.7);
        assert_eq!(morton_of_point_saturating(&p, &r), morton_of_point(&p, &r));
        for (p, cell) in [
            (Point2::new(-0.5, 0.0), (0, 0)),
            (Point2::new(1.0, 1.0), (top, top)),
            (Point2::new(f64::NEG_INFINITY, 2.0), (0, top)),
            (Point2::new(f64::NAN, f64::INFINITY), (0, top)),
        ] {
            assert_eq!(
                morton_of_point_saturating(&p, &r),
                morton2(cell.0, cell.1),
                "{p:?}"
            );
        }
        // An outside point takes the code of its nearest boundary cell.
        let inside = Point2::new(0.25, 1.0 - f64::EPSILON);
        assert_eq!(
            morton_of_point_saturating(&Point2::new(0.25, 3.0), &r),
            morton_of_point(&inside, &r)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn depth_bound_enforced() {
        block_id_at_depth(0, MORTON_BITS + 1);
    }

    #[test]
    fn cells_at_depth_halves_per_level() {
        assert_eq!(cells_at_depth(0), 1u64 << (2 * MORTON_BITS));
        for d in 1..=MORTON_BITS {
            assert_eq!(cells_at_depth(d - 1), 4 * cells_at_depth(d));
        }
        assert_eq!(cells_at_depth(MORTON_BITS), 1);
    }

    #[test]
    fn grid_exactness_certificate_accepts_dyadic_origin_rects() {
        assert!(morton_grid_exact(&Rect::unit()));
        assert!(morton_grid_exact(&Rect::from_bounds(0.0, 0.0, 2.0, 2.0)));
        assert!(morton_grid_exact(&Rect::from_bounds(0.0, 0.0, 0.5, 8.0)));
        // Non-zero origin: p − lo rounds.
        assert!(!morton_grid_exact(&Rect::from_bounds(
            -10.0, 5.0, 30.0, 25.0
        )));
        assert!(!morton_grid_exact(&Rect::from_bounds(0.5, 0.0, 1.5, 1.0)));
        // Non-power-of-two width: the division rounds.
        assert!(!morton_grid_exact(&Rect::from_bounds(0.0, 0.0, 3.0, 3.0)));
        assert!(!morton_grid_exact(&Rect::from_bounds(0.0, 0.0, 1.0, 0.7)));
        // Extreme exponents fall outside the certified range.
        assert!(!morton_grid_exact(&Rect::from_bounds(
            0.0, 0.0, 1e-200, 1e-200
        )));
    }

    #[test]
    fn deeper_blocks_refine_shallower() {
        let r = Rect::unit();
        let c = morton_of_point(&Point2::new(0.3, 0.7), &r);
        for depth in 1..10 {
            let parent = block_id_at_depth(c, depth - 1);
            let child = block_id_at_depth(c, depth);
            assert_eq!(child >> 2, parent, "depth {depth}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #[test]
        fn round_trip(x in 0u32..0x8000_0000, y in 0u32..0x8000_0000) {
            prop_assert_eq!(demorton2(morton2(x, y)), (x, y));
        }

        #[test]
        fn grid_exact_regions_agree_with_geometry_everywhere(
            px in 0.0f64..1.0, py in 0.0f64..1.0,
            depth in 1u32..16,
            scale_pow in 0i32..3,
        ) {
            // On a certified region the agreement is exact for EVERY
            // point — no near-boundary exclusion, unlike the general
            // proptest below. Snap some inputs onto dyadic boundaries
            // to stress the `>= mid` tie itself.
            let w = f64::powi(2.0, scale_pow);
            let r = Rect::from_bounds(0.0, 0.0, w, w);
            prop_assert!(morton_grid_exact(&r));
            let snap = |v: f64| (v * 64.0).floor() / 64.0 * w;
            for p in [
                Point2::new(px * w, py * w),
                Point2::new(snap(px), py * w),
                Point2::new(snap(px), snap(py)),
            ] {
                let mut block = r;
                for _ in 0..depth {
                    block = block.quadrant(block.quadrant_of(&p));
                }
                let corner = Point2::new(block.x().lo(), block.y().lo());
                let code = morton_of_point(&p, &r);
                prop_assert_eq!(
                    block_id_at_depth(code, depth),
                    block_id_at_depth(morton_of_point(&corner, &r), depth),
                    "point {} depth {}", p, depth
                );
            }
        }

        #[test]
        fn same_block_iff_same_prefix(
            px in 0.0f64..1.0, py in 0.0f64..1.0,
            qx in 0.0f64..1.0, qy in 0.0f64..1.0,
            depth in 1u32..8,
        ) {
            let r = Rect::unit();
            let p = Point2::new(px, py);
            let q = Point2::new(qx, qy);
            // Compute the depth-k block by walking the decomposition.
            let mut bp = r;
            let mut bq = r;
            for _ in 0..depth {
                bp = bp.quadrant(bp.quadrant_of(&p));
                bq = bq.quadrant(bq.quadrant_of(&q));
            }
            let same_block_geom = bp == bq;
            let same_block_morton = block_id_at_depth(morton_of_point(&p, &r), depth)
                == block_id_at_depth(morton_of_point(&q, &r), depth);
            // Quantization at 31 bits vs f64 midpoints can only disagree
            // on points within one quantum of a split line; exclude those.
            let quantum = 1.0 / (1u64 << MORTON_BITS) as f64 * 4.0;
            let near_boundary = |v: f64| {
                let scaled = v * (1u64 << depth) as f64;
                (scaled - scaled.round()).abs() * (1.0 / (1u64 << depth) as f64) < quantum
            };
            prop_assume!(![px, py, qx, qy].iter().any(|&v| near_boundary(v)));
            prop_assert_eq!(same_block_geom, same_block_morton);
        }
    }
}
