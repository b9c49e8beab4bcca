//! The generalized PR tree in `D` dimensions (branching factor `2^D`).
//!
//! The paper: "The same principles apply in the case of octrees and
//! higher dimensional data structures." This const-generic tree
//! instantiates the PR bucketing discipline for any `D`, so the
//! generalized `b = 2^D` population model can be validated well beyond
//! the quadtree — `PrTreeNd<1>` is a 1-D bintree, `PrTreeNd<2>` matches
//! [`crate::PrQuadtree`], `PrTreeNd<3>` is the PR octree the `split` and
//! `dims` experiments build, and `PrTreeNd<4>` gives the `b = 16` data
//! point.
//!
//! Backed by the contiguous arena core with an incrementally maintained
//! census, like every regular-decomposition tree in this crate. The
//! arena's subtree builder partitions a block's points over at most 64
//! children, so `D ≤ 6`: a wider tree fails to compile.

use crate::arena::{ArenaTree, NdDecomp};
use crate::node_stats::{
    DepthOccupancyTable, LeafRecord, OccupancyCensus, OccupancyInstrumented, OccupancyProfile,
};
use crate::pr_quadtree::{check_capacity, TreeError};
use popan_geom::{BoxN, PointN};

/// Default depth limit.
pub const DEFAULT_MAX_DEPTH: u32 = 32;

/// A PR tree over `[f64; D]` points with node capacity `m`, for
/// `1 ≤ D ≤ 6`.
#[derive(Debug, Clone)]
pub struct PrTreeNd<const D: usize> {
    tree: ArenaTree<NdDecomp<D>>,
}

impl<const D: usize> PrTreeNd<D> {
    /// Creates an empty tree over `region` with node capacity `capacity`.
    pub fn new(region: BoxN<D>, capacity: usize) -> Result<Self, TreeError> {
        Self::check_params(capacity)?;
        Ok(PrTreeNd {
            tree: ArenaTree::new(region, capacity, DEFAULT_MAX_DEPTH),
        })
    }

    /// Builds a tree by inserting `points` in order.
    pub fn build(
        region: BoxN<D>,
        capacity: usize,
        points: impl IntoIterator<Item = PointN<D>>,
    ) -> Result<Self, TreeError> {
        let mut t = Self::new(region, capacity)?;
        let mut pts = Vec::new();
        for p in points {
            pts.push(Self::check_point(&region, p)?);
        }
        t.tree.bulk_fill(pts);
        Ok(t)
    }

    /// The occupancy census of [`build`](Self::build) over the same
    /// arguments, without the tree (see
    /// [`PrQuadtree::census_of`](crate::PrQuadtree::census_of)).
    pub fn census_of(
        region: BoxN<D>,
        capacity: usize,
        points: Vec<PointN<D>>,
    ) -> Result<OccupancyCensus, TreeError> {
        Self::check_params(capacity)?;
        for &p in &points {
            Self::check_point(&region, p)?;
        }
        Ok(ArenaTree::<NdDecomp<D>>::census_of(
            region,
            capacity,
            DEFAULT_MAX_DEPTH,
            points,
        ))
    }

    /// Fails unless `D ≥ 1` and `capacity ≥ 1`, in that order.
    fn check_params(capacity: usize) -> Result<(), TreeError> {
        if D == 0 {
            return Err(TreeError::InvalidParameter(
                "dimension must be at least 1".into(),
            ));
        }
        check_capacity(capacity)
    }

    /// `p`, when it is finite and inside `region`: the checks, in the
    /// order, that `insert` and the bulk entries make.
    fn check_point(region: &BoxN<D>, p: PointN<D>) -> Result<PointN<D>, TreeError> {
        if !p.is_finite() {
            return Err(TreeError::NonFinitePoint);
        }
        let bounds = region.lo().iter().zip(region.hi());
        for (axis, (&coord, (&lo, &hi))) in p.coords.iter().zip(bounds).enumerate() {
            if !(lo <= coord && coord < hi) {
                return Err(TreeError::OutOfRegion { axis, coord });
            }
        }
        Ok(p)
    }

    /// Branching factor `2^D`.
    pub const fn branching() -> usize {
        1 << D
    }

    /// The region covered.
    pub fn region(&self) -> BoxN<D> {
        self.tree.region()
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Inserts a point, splitting per the PR rule.
    pub fn insert(&mut self, p: PointN<D>) -> Result<(), TreeError> {
        self.tree.insert(Self::check_point(&self.region(), p)?);
        Ok(())
    }

    /// `true` when an exactly equal point is stored.
    pub fn contains(&self, p: &PointN<D>) -> bool {
        if !self.region().contains(p) {
            return false;
        }
        self.tree.contains(p)
    }

    /// Total node count (internal + leaf) — O(1) pool accounting.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Visits every leaf: the block, its depth, and its stored points.
    pub fn for_each_leaf(&self, mut f: impl FnMut(&BoxN<D>, u32, &[PointN<D>])) {
        self.tree
            .for_each_leaf(&mut |block, depth, _, points| f(block, depth, points));
    }

    /// All stored points, in leaf-traversal order.
    pub fn points(&self) -> Vec<PointN<D>> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_leaf(|_, _, pts| out.extend_from_slice(pts));
        out
    }

    /// All stored points inside the axis-aligned box `[lo, hi)` on every
    /// axis, in leaf-traversal order.
    ///
    /// A leaf sweep pruned by a conservative (closed-interval) block
    /// overlap test — fine for the oracle and verification paths this
    /// backend serves; the query tier freezes hot structures into a
    /// `Snapshot` for serving.
    pub fn range_query(&self, lo: &[f64; D], hi: &[f64; D]) -> Vec<PointN<D>> {
        let mut out = Vec::new();
        self.for_each_leaf(|block, _, pts| {
            let disjoint = (0..D).any(|i| block.hi()[i] < lo[i] || hi[i] < block.lo()[i]);
            if !disjoint {
                out.extend(
                    pts.iter()
                        .filter(|p| (0..D).all(|i| lo[i] <= p.coords[i] && p.coords[i] < hi[i]))
                        .copied(),
                );
            }
        });
        out
    }

    /// Leaf node count, served from the maintained census: O(1).
    pub fn leaf_count(&self) -> usize {
        self.tree.census().leaf_count()
    }

    /// The occupancy profile, maintained incrementally — a
    /// zero-allocation, zero-traversal read.
    pub fn occupancy_profile(&self) -> &OccupancyProfile {
        self.tree.census().profile()
    }

    /// The per-depth occupancy table, maintained incrementally — a
    /// zero-allocation, zero-traversal read.
    pub fn depth_table(&self) -> &DepthOccupancyTable {
        self.tree.census().depth_table()
    }

    /// Verifies structural invariants (including census/traversal
    /// agreement); panics on violation.
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
    }
}

impl<const D: usize> OccupancyInstrumented for PrTreeNd<D> {
    fn capacity(&self) -> usize {
        self.tree.capacity()
    }

    fn leaf_records(&self) -> Vec<LeafRecord> {
        self.tree.leaf_records()
    }

    fn occupancy_profile(&self) -> OccupancyProfile {
        self.tree.census().profile().clone()
    }

    fn depth_table(&self) -> DepthOccupancyTable {
        self.tree.census().depth_table().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_rng::rngs::StdRng;
    use popan_rng::{Rng, SeedableRng};

    fn sample_points<const D: usize>(n: usize, seed: u64) -> Vec<PointN<D>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| PointN::new(std::array::from_fn(|_| rng.random_range(0.0..1.0))))
            .collect()
    }

    /// Builds `n` points at capacity `m`: the invariants hold, every
    /// point is found, and no leaf holds more than `m`.
    fn build_and_look_up<const D: usize>(n: usize, m: usize, seed: u64) {
        let points = sample_points::<D>(n, seed);
        let t = PrTreeNd::build(BoxN::unit(), m, points.iter().copied()).unwrap();
        t.check_invariants();
        assert_eq!(t.len(), n);
        for p in &points {
            assert!(t.contains(p));
        }
        assert!(!t.contains(&PointN::new([0.999999; D])));
        assert_eq!(t.occupancy_profile().total_items(), n as u64);
        assert!(t.occupancy_profile().max_occupancy() <= m);
    }

    #[test]
    fn basic_operations_in_3d_and_4d() {
        build_and_look_up::<4>(500, 3, 1);
        assert_eq!(PrTreeNd::<4>::branching(), 16);
        build_and_look_up::<3>(600, 4, 5);
        assert_eq!(PrTreeNd::<3>::branching(), 8);
    }

    /// `insert`, `build` and `census_of` reject a point outside the unit
    /// box with one `OutOfRegion`: its first axis outside, and its
    /// coordinate there.
    fn out_of_region_is_one_error<const D: usize>() {
        let mut last_out = [0.5; D];
        last_out[D - 1] = 1.0;
        let mut first_below = [1.5; D];
        first_below[0] = -0.25;
        for (coords, axis) in [(last_out, D - 1), (first_below, 0), ([1.5; D], 0)] {
            let p = PointN::new(coords);
            let want = Err(TreeError::OutOfRegion {
                axis,
                coord: coords[axis],
            });
            let mut t = PrTreeNd::<D>::new(BoxN::unit(), 2).unwrap();
            assert_eq!(t.insert(p), want);
            assert!(t.is_empty());
            let pts = vec![PointN::new([0.25; D]), p, PointN::new([f64::NAN; D])];
            let built = PrTreeNd::<D>::build(BoxN::unit(), 2, pts.iter().copied());
            assert_eq!(built.map(|_| ()), want);
            assert_eq!(
                PrTreeNd::<D>::census_of(BoxN::unit(), 2, pts).map(|_| ()),
                want
            );
        }
    }

    #[test]
    fn rejects_invalid() {
        assert!(PrTreeNd::<2>::new(BoxN::unit(), 0).is_err());
        let mut t = PrTreeNd::<2>::new(BoxN::unit(), 1).unwrap();
        assert!(t.insert(PointN::new([2.0, 0.0])).is_err());
        assert!(t.insert(PointN::new([f64::NAN, 0.0])).is_err());
        out_of_region_is_one_error::<1>();
        out_of_region_is_one_error::<3>();
        out_of_region_is_one_error::<4>();
    }

    /// Two points in opposite corners at capacity 1: one split into
    /// `2^D` leaves, two holding a point and the rest empty.
    fn one_split<const D: usize>() {
        let mut t = PrTreeNd::<D>::new(BoxN::unit(), 1).unwrap();
        t.insert(PointN::new([0.1; D])).unwrap();
        t.insert(PointN::new([0.9; D])).unwrap();
        let b = PrTreeNd::<D>::branching();
        assert_eq!(t.node_count(), b + 1);
        assert_eq!(t.leaf_count(), b);
        assert_eq!(t.occupancy_profile().count(0), b as u64 - 2);
        assert_eq!(t.occupancy_profile().count(1), 2);
        t.check_invariants();
    }

    #[test]
    fn split_produces_two_to_the_d_children() {
        // The octree: 9 nodes, 8 leaves, 6 of them empty.
        one_split::<3>();
        one_split::<1>();
        one_split::<4>();
    }

    #[test]
    fn node_count_identity_for_octree_and_16_ary() {
        // Every split adds 2^D nodes: leaves = (2^D − 1)·internal + 1.
        let t = PrTreeNd::build(BoxN::unit(), 1, sample_points::<3>(300, 6)).unwrap();
        let internal = t.node_count() - t.leaf_count();
        assert_eq!(t.leaf_count(), internal * 7 + 1);
        let points = sample_points::<4>(800, 2);
        let t = PrTreeNd::build(BoxN::unit(), 1, points).unwrap();
        let internal = t.node_count() - t.leaf_count();
        assert_eq!(t.leaf_count(), internal * 15 + 1);
    }

    #[test]
    fn coincident_points_do_not_split() {
        let mut t = PrTreeNd::<3>::new(BoxN::unit(), 1).unwrap();
        for _ in 0..4 {
            t.insert(PointN::new([0.3; 3])).unwrap();
        }
        assert_eq!(t.node_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn matches_quadtree_structure_in_2d() {
        use crate::pr_quadtree::PrQuadtree;
        use popan_geom::{Point2, Rect};
        let nd_points = sample_points::<2>(400, 3);
        let q_points: Vec<Point2> = nd_points
            .iter()
            .map(|p| Point2::new(p.coords[0], p.coords[1]))
            .collect();
        let nd = PrTreeNd::build(BoxN::unit(), 2, nd_points).unwrap();
        let qt = PrQuadtree::build(Rect::unit(), 2, q_points).unwrap();
        assert_eq!(nd.node_count(), qt.node_count());
        assert_eq!(nd.leaf_count(), qt.leaf_count());
        let mut a = nd.leaf_records();
        let mut b = qt.leaf_records();
        let key = |r: &LeafRecord| (r.depth, r.occupancy);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b, "PrTreeNd<2> must mirror PrQuadtree exactly");
    }

    #[test]
    fn one_dimensional_tree_works() {
        let points = sample_points::<1>(300, 4);
        let t = PrTreeNd::build(BoxN::unit(), 2, points.iter().copied()).unwrap();
        t.check_invariants();
        let internal = t.node_count() - t.leaf_count();
        assert_eq!(t.leaf_count(), internal + 1);
    }

    #[test]
    fn range_query_matches_scan_in_3d() {
        let points = sample_points::<3>(500, 6);
        let t = PrTreeNd::build(BoxN::unit(), 2, points.iter().copied()).unwrap();
        assert_eq!(t.points().len(), 500);
        let (lo, hi) = ([0.2, 0.1, 0.3], [0.7, 0.9, 0.6]);
        let expect = points
            .iter()
            .filter(|p| (0..3).all(|i| lo[i] <= p.coords[i] && p.coords[i] < hi[i]))
            .count();
        assert_eq!(t.range_query(&lo, &hi).len(), expect);
        assert!(t.range_query(&[2.0; 3], &[3.0; 3]).is_empty());
    }

    #[test]
    fn occupancy_decreases_with_dimension() {
        // Higher branching scatters points more thinly (same trend the
        // model predicts for growing b).
        let occ1 = {
            let t = PrTreeNd::<1>::build(BoxN::unit(), 4, sample_points(2000, 5)).unwrap();
            t.occupancy_profile().average_occupancy()
        };
        let occ4 = {
            let t = PrTreeNd::<4>::build(BoxN::unit(), 4, sample_points(2000, 5)).unwrap();
            t.occupancy_profile().average_occupancy()
        };
        assert!(occ1 > occ4, "d=1 {occ1:.2} vs d=4 {occ4:.2}");
    }
}
