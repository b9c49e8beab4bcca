//! The generalized PR tree in `D` dimensions (branching factor `2^D`).
//!
//! The paper: "The same principles apply in the case of octrees and
//! higher dimensional data structures." [`PrTree`] over orthant
//! decomposition instantiates the PR bucketing discipline for any `D`,
//! so the generalized `b = 2^D` population model can be validated well
//! beyond the quadtree — `PrTreeNd<1>` is a 1-D bintree, `PrTreeNd<2>`
//! matches [`crate::PrQuadtree`] leaf for leaf, `PrTreeNd<3>` is the PR
//! octree the `split` and `dims` experiments build, and `PrTreeNd<4>`
//! gives the `b = 16` data point.
//!
//! The arena's subtree builder partitions a block's points over at most
//! 64 children, so `D ≤ 6`: a wider tree fails to compile. A `D = 0`
//! tree is refused at run time, before its capacity is checked.

use crate::arena::NdDecomp;
use crate::pr_tree::PrTree;

/// A PR tree over `[f64; D]` points with node capacity `m`, for
/// `1 ≤ D ≤ 6`.
pub type PrTreeNd<const D: usize> = PrTree<NdDecomp<D>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pr_quadtree::TreeError;
    use popan_geom::{BoxN, PointN};
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
        // Uniform points, then points on the split lines of the root and
        // of smaller blocks, and a coincident pile.
        let mut coords: Vec<[f64; 2]> = sample_points::<2>(400, 3)
            .iter()
            .map(|p| p.coords)
            .collect();
        coords.extend([
            [0.5, 0.5],
            [0.5, 0.0],
            [0.0, 0.5],
            [0.25, 0.75],
            [0.125, 0.5],
        ]);
        coords.extend([[0.3, 0.7]; 9]);
        let bits = |c: [f64; 2]| c.map(f64::to_bits);
        let windows = [
            ([0.0, 0.0], [1.0, 1.0]),
            ([0.0, 0.0], [0.5, 0.5]),
            ([0.25, 0.0], [0.75, 1.0]),
            ([0.1, 0.3], [0.6, 0.9]),
            ([0.45, 0.45], [0.55, 0.55]),
            ([0.3, 0.7], [0.3001, 0.7001]),
        ];
        for m in [1, 4, 8] {
            let nd_points = coords.iter().map(|&c| PointN::new(c));
            let nd = PrTreeNd::build(BoxN::unit(), m, nd_points).unwrap();
            let q_points = coords.iter().map(|&[x, y]| Point2::new(x, y));
            let qt = PrQuadtree::build(Rect::unit(), m, q_points).unwrap();
            // Every leaf in traversal order: block bounds bit for bit,
            // depth, and points in order.
            let mut a = Vec::new();
            nd.for_each_leaf(|block, depth, pts| {
                let pts: Vec<_> = pts.iter().map(|p| bits(p.coords)).collect();
                a.push((bits(*block.lo()), bits(*block.hi()), depth, pts));
            });
            let mut b = Vec::new();
            qt.for_each_leaf(|rect, depth, pts| {
                let (x, y) = (rect.x(), rect.y());
                let pts: Vec<_> = pts.iter().map(|p| bits([p.x, p.y])).collect();
                b.push((bits([x.lo(), y.lo()]), bits([x.hi(), y.hi()]), depth, pts));
            });
            assert_eq!(
                a, b,
                "m={m}: PrTreeNd<2> must mirror PrQuadtree leaf for leaf"
            );
            assert_eq!(nd.node_count(), qt.node_count(), "m={m}");
            // One walk serves both trees' range and count answers.
            for (lo, hi) in windows {
                let (boxn, rect) = (
                    BoxN::new(lo, hi),
                    Rect::from_bounds(lo[0], lo[1], hi[0], hi[1]),
                );
                let got: Vec<_> = nd
                    .range_query(&boxn)
                    .iter()
                    .map(|p| bits(p.coords))
                    .collect();
                let want: Vec<_> = qt
                    .range_query(&rect)
                    .iter()
                    .map(|p| bits([p.x, p.y]))
                    .collect();
                assert_eq!(got, want, "m={m} window {rect}");
                let scan = coords
                    .iter()
                    .filter(|&&[x, y]| rect.contains(&Point2::new(x, y)));
                assert_eq!(want.len(), scan.count(), "m={m} window {rect}");
                assert_eq!(nd.count_in_range(&boxn), want.len(), "m={m} window {rect}");
                assert_eq!(qt.count_in_range(&rect), want.len(), "m={m} window {rect}");
            }
        }
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
        assert_eq!(t.range_query(&BoxN::new(lo, hi)).len(), expect);
        assert_eq!(t.count_in_range(&BoxN::new(lo, hi)), expect);
        assert!(t.range_query(&BoxN::new([2.0; 3], [3.0; 3])).is_empty());
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
