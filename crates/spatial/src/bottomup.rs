//! Morton-radix direct freeze (DESIGN.md §15).
//!
//! [`LinearQuadtree::from_points_direct`] freezes a point multiset
//! straight into the linear form, skipping the pointer tree. On
//! *grid-exact* regions ([`popan_geom::morton::morton_grid_exact`]) it
//! quantizes each point to its Morton key once, LSD-radix-sorts the keys
//! (no comparison sort), and then emits the leaves in one walk over the
//! sorted order: every node's child boundaries are found by digit search
//! on the sorted keys, so no point is ever touched to descend, classify,
//! or scatter again. Children are visited in digit order, which *is*
//! ascending Morton order, so the leaf slab comes out pre-sorted and
//! goes straight into [`LinearQuadtree::assemble`], the freeze tail
//! `from_tree` shares.
//!
//! The sort moves one packed `u64` per point, never point coordinates:
//! the key is truncated to the levels three 11-bit LSD passes can
//! resolve and packed above the point's insertion index
//! (`(key >> drop) << key_shift | i`), so sorting the key bits is
//! automatically stable — ties order by the index bits, which start (and
//! therefore stay) ascending. All three pass histograms are accumulated
//! in the quantization loop itself (bucket counts are order-independent),
//! which also validates each point, so every scatter pass is a pure
//! read-and-bucket sweep and single-bucket passes are skipped outright.
//! One gather afterwards materializes the points in sorted order, so each
//! leaf's points are one slice copy (`LinearBuilder::push_points`).
//!
//! # Bit-identity
//!
//! The result is slab-for-slab identical to `PrQuadtree::build` +
//! [`LinearQuadtree::from_tree`]:
//!
//! * On a grid-exact region the Morton digit at level `d` *is* the
//!   geometric `>= mid` comparison, bit for bit, so digit partitioning
//!   and geometric classification agree on every point (proptested in
//!   `popan-geom` with no boundary exclusion). Quantization here
//!   multiplies by the region's exact reciprocal width instead of
//!   dividing: the certificate makes the width a power of two in a safe
//!   exponent range, so the reciprocal is exact and both operations
//!   round the same exact value — identical bits in every case.
//! * The split decision at every node — `n > capacity`, `depth <
//!   max_depth`, not all points coincident — is a pure function of the
//!   run, evaluated identically here and in `ArenaTree::bulk_fill`.
//! * The LSD passes are stable, so equal keys keep insertion order;
//!   leaves whose runs mix distinct keys are re-ordered by original
//!   index at emission. Either way every leaf holds its points in
//!   insertion order, like the pointer tree.
//! * Runs whose truncated keys are entirely equal — points closer than
//!   one quantum of the resolved levels, or piles the truncation simply
//!   cannot separate — take the pointer-tree route for that subtree: a
//!   fresh arena tree over the run's block, filled by `bulk_fill` and
//!   emitted through `from_tree`'s leaf helper. That is the reference
//!   semantics, so bit-identity never depends on the truncation depth —
//!   only speed does.
//! * Non-exact regions take the pointer-tree route wholesale, which
//!   validates the points and then meets `from_tree`'s
//!   [`FreezeError::RegionNotGridExact`] refusal: the two routes report
//!   the same error, in the same order (capacity, points, region).
//!
//! Leaf rects are derived from the Morton prefix in closed form (exact
//! on a grid-exact region, see [`Freeze::block`]) instead of threading
//! halved rects through the recursion.

use crate::arena::{ArenaTree, QuadDecomp};
use crate::linear_quadtree::{FreezeError, LinearBuilder, LinearQuadtree};
use crate::pr_quadtree::TreeError;
use popan_geom::morton;
use popan_geom::{Point2, Rect};

/// Division-free quantization over a grid-exact region, bit-identical
/// to [`morton::morton_of_point`]: the certificate guarantees each axis
/// length is a power of two with |exponent| ≤ 512, so its reciprocal is
/// exactly representable and `v * (1/w)` rounds the same exact value
/// `v / w` rounds — identical results in every case, subnormals
/// included, while replacing two division latencies per point with
/// multiplies.
pub(crate) struct Quantizer {
    lo_x: f64,
    lo_y: f64,
    inv_w: f64,
    inv_h: f64,
}

impl Quantizer {
    fn new(region: &Rect) -> Quantizer {
        debug_assert!(morton::morton_grid_exact(region));
        Quantizer {
            lo_x: region.x().lo(),
            lo_y: region.y().lo(),
            inv_w: 1.0 / region.width(),
            inv_h: 1.0 / region.height(),
        }
    }

    /// The quantized cell of `p`, mirroring [`morton::morton_of_point`]
    /// operation for operation (subtract, scale, floor, clamp).
    #[inline]
    fn cell(&self, p: &Point2) -> (u32, u32) {
        let scale = (1u64 << morton::MORTON_BITS) as f64;
        let fx = (p.x - self.lo_x) * self.inv_w;
        let fy = (p.y - self.lo_y) * self.inv_h;
        let qx = ((fx * scale) as u32).min((1 << morton::MORTON_BITS) - 1);
        let qy = ((fy * scale) as u32).min((1 << morton::MORTON_BITS) - 1);
        (qx, qy)
    }
}

/// Index of the first element of `keys` (sorted; all bits above
/// `shift + 2` uniform across the run) whose digit at `shift` exceeds
/// `c` — the child boundary search. Works on packed elements too: the
/// index bits sit below every digit shift. Tiny runs scan linearly;
/// larger ones binary-search.
#[inline]
fn digit_end(keys: &[u64], shift: u32, mask: u64, c: u64) -> usize {
    if keys.len() <= 16 {
        let mut i = 0;
        while i < keys.len() && (keys[i] >> shift) & mask <= c {
            i += 1;
        }
        i
    } else {
        keys.partition_point(|&k| (k >> shift) & mask <= c)
    }
}

/// Bits consumed per LSD pass. The narrow radix keeps the count
/// tables in L1 and the scatter spread over ~2048 destination streams,
/// which the cache absorbs; wide (16-bit) passes thrash on the
/// 65536-way random scatter. Three passes cover the
/// truncated key; the index bits below it are never sorted — the
/// array starts in index order and stable key passes preserve it.
const PASS_BITS: usize = 11;
const PASS_RADIX: usize = 1 << PASS_BITS;

/// The sorted key order plus the points, both sorted and original.
///
/// The LSD sort moves a single `u64` per point — the key's top
/// `trunc_levels` digits packed above the insertion index — and a
/// gather afterwards materializes `spts` (points in sorted order) so
/// every leaf's points are a contiguous slice. `points` keeps the
/// caller's insertion order for the rare mixed-key leaf that must be
/// restored through the index bits.
struct Sorted {
    /// Number of levels the sorted (truncated) keys resolve — runs
    /// still unseparated at this depth go to the pointer-tree
    /// fallback, exactly like sub-quantum runs. Sixteen quadtree
    /// levels at the bench scale: a run needing a deeper split keeps
    /// more than `capacity` points inside a 2^-16-sided cell —
    /// implausible outside adversarial clusters.
    trunc_levels: u32,
    /// Bit position of the lowest key bit in each packed element; the
    /// bits below it hold the insertion index.
    key_shift: u32,
    /// Mask selecting the index bits of a packed element.
    idx_mask: u64,
    /// The packed `(truncated key << key_shift) | index` elements,
    /// ascending — the walk reads digits and boundaries straight off
    /// this array. Equal keys keep ascending index (insertion order).
    a: Vec<u64>,
    /// The points in sorted order (`spts[i] == points[a[i] & idx_mask]`).
    spts: Vec<Point2>,
    /// The points, exactly as submitted.
    points: Vec<Point2>,
    /// Reusable buffers for per-leaf insertion-order restoration.
    perm: Vec<u32>,
    tmp: Vec<Point2>,
}

impl Sorted {
    /// Quantizes and LSD-radix-sorts the points by quadtree Morton key.
    ///
    /// Each element is one packed `u64`: the top `key_bits` hold the
    /// key's leading digits, the low bits the insertion index. Sorting
    /// the packed value by its key bits is then automatically stable —
    /// ties keep ascending index — and the scatter passes move half
    /// the bytes a `(u64, u32)` pair would. The index bits are never
    /// sorted: the array starts in index order, and stable key passes
    /// preserve it within equal keys.
    ///
    /// Every pass's histogram is accumulated during the quantization
    /// loop (bucket counts are order-independent), so no separate
    /// counting sweep touches the data and each scatter pass is pure:
    /// one sequential read, one bucketed write. A pass whose digit is
    /// uniform across every element — common when points cluster low
    /// in the region — is the identity permutation (stability) and is
    /// skipped.
    /// Validation (finite, in-region) is fused into the same loop — the
    /// direct freeze never takes a separate validation pass over the
    /// input. Errors surface before any output structure exists, in the
    /// same first-offender order as `validate_points`.
    fn build(region: &Rect, points: Vec<Point2>) -> Result<Sorted, TreeError> {
        let n = points.len();
        let q = Quantizer::new(region);
        let idx_bits = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1);
        // Resolve at most three passes' worth of key digits. Deeper
        // resolution buys nothing at realistic densities — a run still
        // unsplit 16 quadtree levels down needs more than `capacity`
        // points inside a 2^-16-sided cell — and every extra pass is a
        // full rewrite of the array. The rare too-deep run takes the
        // pointer-tree fallback, same as sub-quantum runs.
        let trunc_levels = ((64 - idx_bits) / 2)
            .min(morton::MORTON_BITS)
            .min(3 * PASS_BITS as u32 / 2);
        let key_bits = trunc_levels * 2;
        let key_shift = 64 - key_bits;
        let drop = 2 * morton::MORTON_BITS - key_bits;
        debug_assert_eq!(key_bits.div_ceil(PASS_BITS as u32), 3);
        let mut a: Vec<u64> = Vec::with_capacity(n);
        // All three pass histograms ride along with the quantization
        // loop (bucket counts are order-independent), so each scatter
        // pass below touches nothing but the array it permutes.
        let mut hist = vec![0u32; 3 * PASS_RADIX];
        {
            let (h0, rest) = hist.split_at_mut(PASS_RADIX);
            let (h1, h2) = rest.split_at_mut(PASS_RADIX);
            for (i, p) in points.iter().enumerate() {
                if !p.is_finite() {
                    return Err(TreeError::NonFinitePoint);
                }
                if !region.contains(p) {
                    return Err(TreeError::OutOfRegion { point: *p });
                }
                // Standard interleave: level d's digit is (y-bit,
                // x-bit), which is exactly `classify`'s `y*2 + x` child
                // index.
                let (qx, qy) = q.cell(p);
                let v = ((morton::morton2(qx, qy) >> drop) << key_shift) | i as u64;
                let x = (v >> key_shift) as usize;
                h0[x & (PASS_RADIX - 1)] += 1;
                h1[(x >> PASS_BITS) & (PASS_RADIX - 1)] += 1;
                h2[(x >> (2 * PASS_BITS)) & (PASS_RADIX - 1)] += 1;
                a.push(v);
            }
        }
        let mut b: Vec<u64> = vec![0; n];
        for p in 0..3usize {
            let shift = key_shift + (PASS_BITS * p) as u32;
            let h = &mut hist[p * PASS_RADIX..(p + 1) * PASS_RADIX];
            // Exclusive prefix sum, doubling as bucket offsets below.
            let mut sum = 0u32;
            let mut largest = 0u32;
            for c in h.iter_mut() {
                let count = *c;
                *c = sum;
                sum += count;
                largest = largest.max(count);
            }
            // A single-bucket pass is the identity permutation
            // (stability) — skip the rewrite.
            if largest as usize == n {
                continue;
            }
            for &v in &a {
                let d = (v >> shift) as usize & (PASS_RADIX - 1);
                let dst = h[d] as usize;
                h[d] += 1;
                b[dst] = v;
            }
            std::mem::swap(&mut a, &mut b);
        }
        let idx_mask = (1u64 << key_shift) - 1;
        let mut spts = Vec::with_capacity(n);
        for &v in &a {
            spts.push(points[(v & idx_mask) as usize]);
        }
        Ok(Sorted {
            trunc_levels,
            key_shift,
            idx_mask,
            a,
            spts,
            points,
            perm: Vec::new(),
            tmp: Vec::new(),
        })
    }

    /// Whether every point of the run equals the first — the trees'
    /// coincident-pile exception. Early-exits on the first mismatch;
    /// callers gate on key uniformity first (equal points have equal
    /// keys), so this O(n) scan only runs on sub-quantum runs.
    fn coincident(&self, lo: usize, hi: usize) -> bool {
        let p0 = self.spts[lo];
        self.spts[lo + 1..hi].iter().all(|q| *q == p0)
    }

    /// The run's points in insertion order, as one contiguous slice.
    /// Equal-key runs are already in insertion order (the LSD passes
    /// are stable) and borrow straight from `spts`; a run mixing
    /// distinct keys was reordered by the sort and is re-gathered
    /// through its original indices.
    #[inline]
    fn run_slice(&mut self, lo: usize, hi: usize) -> &[Point2] {
        if hi - lo >= 2 && (self.a[lo] ^ self.a[hi - 1]) >> self.key_shift != 0 {
            self.perm.clear();
            self.perm
                .extend(self.a[lo..hi].iter().map(|&v| (v & self.idx_mask) as u32));
            self.perm.sort_unstable();
            self.tmp.clear();
            self.tmp
                .extend(self.perm.iter().map(|&j| self.points[j as usize]));
            &self.tmp
        } else {
            &self.spts[lo..hi]
        }
    }
}

/// Errors from [`LinearQuadtree::from_points_direct`].
#[derive(Debug, Clone, PartialEq)]
pub enum DirectFreezeError {
    /// Input validation failed (bad capacity, out-of-region or
    /// non-finite point) — the same errors `PrQuadtree::build` reports.
    Tree(TreeError),
    /// The region is not grid-exact, or the point set forces leaves
    /// below the Morton resolution (the depth reported is the deepest
    /// leaf the equivalent pointer tree would hold) — the same error
    /// `LinearQuadtree::from_tree` reports.
    Freeze(FreezeError),
}

impl std::fmt::Display for DirectFreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectFreezeError::Tree(e) => write!(f, "validating points: {e}"),
            DirectFreezeError::Freeze(e) => write!(f, "freezing: {e}"),
        }
    }
}

impl std::error::Error for DirectFreezeError {}

/// Direct-freeze context: the sorted order plus the linear accumulator
/// (which also records too-deep leaves, so the reported depth matches
/// `from_tree`'s max over every offending leaf).
struct Freeze {
    s: Sorted,
    builder: LinearBuilder,
    capacity: usize,
    max_depth: u32,
    /// Per-depth cell sizes (`w / 2^d`, `h / 2^d`), precomputed by
    /// successive exact halving so [`Freeze::block`] needs no division.
    step: [(f64, f64); (morton::MORTON_BITS + 1) as usize],
}

impl Freeze {
    fn new(s: Sorted, region: Rect, capacity: usize, max_depth: u32) -> Freeze {
        // The per-depth cell-size table: exact successive halvings of
        // the (power-of-two) side lengths.
        let mut step = [(0.0, 0.0); (morton::MORTON_BITS + 1) as usize];
        let (mut sx, mut sy) = (region.width(), region.height());
        for s in step.iter_mut() {
            *s = (sx, sy);
            sx *= 0.5;
            sy *= 0.5;
        }
        Freeze {
            s,
            builder: LinearBuilder::default(),
            capacity,
            max_depth,
            step,
        }
    }

    /// The block of the node with locational `prefix` at `depth`, in
    /// closed form: decode the prefix to cell coordinates and scale by
    /// the exact per-axis cell size. On a grid-exact region (origin
    /// `0.0`, power-of-two sides) every value here is exact — the cell
    /// size `w / 2^depth` is an exponent shift and the cell coordinates
    /// have at most 31 significant bits, so each product is exact — and
    /// every bound of the recursive halving `child_block` performs is
    /// the same exact dyadic value, so the two constructions agree bit
    /// for bit (asserted by
    /// `freeze_block_matches_child_block_recursion_bit_for_bit`).
    fn block(&self, prefix: u64, depth: u32) -> Rect {
        let (cx, cy) = morton::demorton2(prefix);
        let (cx, cy) = (f64::from(cx), f64::from(cy));
        let (sx, sy) = self.step[depth as usize];
        Rect::from_bounds(cx * sx, cy * sy, (cx + 1.0) * sx, (cy + 1.0) * sy)
    }
}

impl LinearQuadtree {
    /// Freezes a point multiset straight into linear form — the arena
    /// is skipped entirely. Bit-identical to
    /// `PrQuadtree::build` + [`LinearQuadtree::from_tree`]
    /// (the differential suites pin the slabs and digests), but built
    /// bottom-up: one Morton quantization pass, one stable LSD radix
    /// sort, and leaves emitted already in ascending code order.
    /// Non-grid-exact regions take the pointer-tree route internally,
    /// so they fail like `from_tree` does, after point validation, with
    /// [`FreezeError::RegionNotGridExact`].
    pub fn from_points_direct(
        region: Rect,
        capacity: usize,
        max_depth: u32,
        points: Vec<Point2>,
    ) -> Result<LinearQuadtree, DirectFreezeError> {
        if capacity == 0 {
            return Err(DirectFreezeError::Tree(TreeError::InvalidParameter(
                "node capacity must be at least 1".into(),
            )));
        }
        // Validation is fused into `Sorted::build`'s quantization pass
        // on the direct path; the pointer-tree fallback validates
        // inside `build_with_max_depth`. Same checks, same order.
        if points.len() >= u32::MAX as usize || !morton::morton_grid_exact(&region) {
            let tree = crate::pr_quadtree::PrQuadtree::build_with_max_depth(
                region, capacity, max_depth, points,
            )
            .map_err(DirectFreezeError::Tree)?;
            return LinearQuadtree::from_tree(&tree).map_err(DirectFreezeError::Freeze);
        }
        let n = points.len();
        let s = Sorted::build(&region, points).map_err(DirectFreezeError::Tree)?;
        let mut fz = Freeze::new(s, region, capacity, max_depth);
        fz.builder
            .reserve((n / capacity).saturating_mul(3).max(64), n);
        fz.emit(0, 0, 0, n);
        LinearQuadtree::assemble(fz.builder, region).map_err(DirectFreezeError::Freeze)
    }
}

impl Freeze {
    /// Emits the subtree of run `[lo, hi)` at `depth` with Morton
    /// `prefix` (the node's `2·depth`-bit locational prefix). Children
    /// are visited in digit order — ascending Morton order — so the
    /// leaf slab is born sorted.
    fn emit(&mut self, depth: u32, prefix: u64, lo: usize, hi: usize) {
        let n = hi - lo;
        let leaf = n <= self.capacity
            || depth >= self.max_depth
            || (n > 0
                && (self.s.a[lo] ^ self.s.a[hi - 1]) >> self.s.key_shift == 0
                && self.s.coincident(lo, hi));
        if leaf {
            self.emit_leaf(depth, prefix, lo, hi);
            return;
        }
        if depth == self.s.trunc_levels {
            // The run still splits past the sorted key resolution —
            // its truncated keys are all equal (it shares every
            // resolved digit), so it is in insertion order. The
            // pointer-tree route takes the subtree: a fresh arena tree
            // over the run's block, emitted through `from_tree`'s leaf
            // helper, so the split rule and the too-deep check each
            // live in one place.
            let mut sub: ArenaTree<QuadDecomp> = ArenaTree::new(
                self.block(prefix, depth),
                self.capacity,
                self.max_depth - depth,
            );
            sub.bulk_fill(self.s.spts[lo..hi].to_vec());
            // The subtree's digit paths continue the run's prefix. A
            // shift of 64 bits or more only comes below the Morton
            // resolution, where the leaf is recorded as too deep and
            // its code is never used.
            let builder = &mut self.builder;
            sub.for_each_leaf(&mut |block, d, path, pts| {
                let path = prefix.checked_shl(2 * d).unwrap_or(0) | path;
                builder.push_tree_leaf(path, *block, depth + d, pts)
            });
            return;
        }
        let shift = 64 - 2 * (depth + 1);
        let mut counts = [0usize; 4];
        let small = hi - lo <= 64;
        if small {
            for &v in &self.s.a[lo..hi] {
                counts[((v >> shift) & 0b11) as usize] += 1;
            }
        }
        let mut child_lo = lo;
        for c in 0..4u64 {
            let child_hi = if c == 3 {
                hi
            } else if small {
                child_lo + counts[c as usize]
            } else {
                child_lo + digit_end(&self.s.a[child_lo..hi], shift, 0b11, c)
            };
            self.emit(depth + 1, (prefix << 2) | c, child_lo, child_hi);
            child_lo = child_hi;
        }
    }

    /// Emits one leaf, in insertion order (see [`Sorted::run_slice`]).
    fn emit_leaf(&mut self, depth: u32, prefix: u64, lo: usize, hi: usize) {
        let code_lo = prefix << (2 * (morton::MORTON_BITS - depth));
        self.builder
            .begin_leaf(code_lo, depth, self.block(prefix, depth));
        let Freeze { s, builder, .. } = self;
        builder.push_points(s.run_slice(lo, hi));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Decomposition;
    use crate::pr_quadtree::PrQuadtree;

    fn pt(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn mixed_points() -> Vec<Point2> {
        let mut pts: Vec<Point2> = (0..300)
            .map(|i| {
                pt(
                    (i as f64 * 0.618_033_9) % 1.0,
                    (i as f64 * 0.414_213_6) % 1.0,
                )
            })
            .collect();
        pts.extend([pt(0.123, 0.456); 7]); // coincident pile
        pts.push(pt(0.0, 0.0));
        pts.push(pt(0.9999, 0.9999));
        // Sub-quantum cluster: same Morton cell, distinct points.
        pts.push(pt(0.5, 0.5));
        pts.push(pt(0.5 + 1e-12, 0.5));
        pts
    }

    #[test]
    fn quantizer_matches_morton_of_point_bit_for_bit() {
        for region in [
            Rect::unit(),
            Rect::from_bounds(0.0, 0.0, 2.0, 2.0),
            Rect::from_bounds(0.0, 0.0, 0.5, 8.0),
        ] {
            assert!(morton::morton_grid_exact(&region));
            let q = Quantizer::new(&region);
            for i in 0..2000 {
                let p = pt(
                    region.width() * ((i as f64 * 0.618_033_9) % 1.0),
                    region.height() * ((i as f64 * 0.414_213_6) % 1.0),
                );
                let (qx, qy) = q.cell(&p);
                assert_eq!(
                    morton::morton2(qx, qy),
                    morton::morton_of_point(&p, &region),
                    "point {p} region {region:?}"
                );
            }
        }
    }

    #[test]
    fn freeze_block_matches_child_block_recursion_bit_for_bit() {
        for region in [
            Rect::unit(),
            Rect::from_bounds(0.0, 0.0, 4.0, 4.0),
            Rect::from_bounds(0.0, 0.0, 0.25, 16.0),
        ] {
            let fz = Freeze::new(Sorted::build(&region, Vec::new()).unwrap(), region, 1, 32);
            let mut state = 0xdead_beefu64;
            for _ in 0..500 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let depth = (state >> 58) as u32 % (morton::MORTON_BITS + 1);
                let prefix = if depth == 0 {
                    0
                } else {
                    (state >> 2) & ((1u64 << (2 * depth)) - 1)
                };
                let direct = fz.block(prefix, depth);
                let mut walked = region;
                for d in 0..depth {
                    let c = ((prefix >> (2 * (depth - 1 - d))) & 0b11) as usize;
                    walked = QuadDecomp::child_block(&walked, d, c);
                }
                let eq = |a: f64, b: f64| a.to_bits() == b.to_bits();
                assert!(
                    eq(direct.x().lo(), walked.x().lo())
                        && eq(direct.x().hi(), walked.x().hi())
                        && eq(direct.y().lo(), walked.y().lo())
                        && eq(direct.y().hi(), walked.y().hi()),
                    "depth {depth} prefix {prefix:#x}: {direct:?} vs {walked:?}"
                );
            }
        }
    }

    #[test]
    fn freeze_direct_matches_from_tree_bit_for_bit() {
        // The sub-quantum pair is excluded: at capacity 1 it exceeds
        // the Morton depth on both routes (covered by the error-parity
        // test below).
        let mut pts = mixed_points();
        pts.truncate(pts.len() - 2);
        for capacity in [1, 4, 16] {
            let tree = PrQuadtree::build(Rect::unit(), capacity, pts.clone()).unwrap();
            let via_tree = LinearQuadtree::from_tree(&tree).unwrap();
            let direct =
                LinearQuadtree::from_points_direct(Rect::unit(), capacity, 32, pts.clone())
                    .unwrap();
            direct.check_invariants();
            assert_eq!(
                direct.section_digests(),
                via_tree.section_digests(),
                "m={capacity}"
            );
        }
    }

    #[test]
    fn freeze_refuses_non_exact_region_on_both_routes() {
        let region = Rect::from_bounds(-10.0, 5.0, 30.0, 25.0);
        let pts: Vec<Point2> = (0..60)
            .map(|i| {
                pt(
                    -10.0 + (i as f64 * 0.61) % 40.0,
                    5.0 + (i as f64 * 0.41) % 20.0,
                )
            })
            .collect();
        let tree = PrQuadtree::build(region, 3, pts.clone()).unwrap();
        let via_tree = LinearQuadtree::from_tree(&tree).unwrap_err();
        assert_eq!(via_tree, FreezeError::RegionNotGridExact);
        assert!(via_tree.to_string().contains("grid-exact"), "{via_tree}");
        let direct = LinearQuadtree::from_points_direct(region, 3, 32, pts).unwrap_err();
        assert_eq!(direct, DirectFreezeError::Freeze(via_tree));
        // Precedence: capacity, then the points, then the region.
        let err = LinearQuadtree::from_points_direct(region, 0, 32, vec![]).unwrap_err();
        assert!(matches!(
            err,
            DirectFreezeError::Tree(TreeError::InvalidParameter(_))
        ));
        let err =
            LinearQuadtree::from_points_direct(region, 1, 32, vec![pt(f64::NAN, 6.0)]).unwrap_err();
        assert!(matches!(
            err,
            DirectFreezeError::Tree(TreeError::NonFinitePoint)
        ));
    }

    #[test]
    fn freeze_direct_reports_validation_errors() {
        let err = LinearQuadtree::from_points_direct(Rect::unit(), 0, 32, vec![]).unwrap_err();
        assert!(matches!(
            err,
            DirectFreezeError::Tree(TreeError::InvalidParameter(_))
        ));
        let err = LinearQuadtree::from_points_direct(Rect::unit(), 1, 32, vec![pt(2.0, 2.0)])
            .unwrap_err();
        assert!(matches!(
            err,
            DirectFreezeError::Tree(TreeError::OutOfRegion { .. })
        ));
        let err = LinearQuadtree::from_points_direct(Rect::unit(), 1, 32, vec![pt(f64::NAN, 0.5)])
            .unwrap_err();
        assert!(matches!(
            err,
            DirectFreezeError::Tree(TreeError::NonFinitePoint)
        ));
    }

    #[test]
    fn freeze_direct_depth_error_matches_from_tree() {
        // Two points in the same full-resolution Morton cell force the
        // split chain past the code resolution when max_depth allows:
        // both routes must report the same offending depth.
        let pts = vec![pt(0.5, 0.5), pt(0.5 + 1e-12, 0.5)];
        let tree = PrQuadtree::build(Rect::unit(), 1, pts.clone()).unwrap();
        let via_tree = LinearQuadtree::from_tree(&tree).unwrap_err();
        let direct =
            LinearQuadtree::from_points_direct(Rect::unit(), 1, 32, pts.clone()).unwrap_err();
        assert_eq!(direct, DirectFreezeError::Freeze(via_tree));
        // With max_depth at the Morton floor the pile legally spills
        // instead, on both routes.
        let direct = LinearQuadtree::from_points_direct(Rect::unit(), 1, 31, pts).unwrap();
        direct.check_invariants();
        assert_eq!(direct.len(), 2);
    }
}
