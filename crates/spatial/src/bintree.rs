//! The bintree: regular decomposition with alternating axis halving.
//!
//! A bintree (Samet & Tamminen; Knowlton's original) splits a block in two
//! along one axis, alternating axes level by level — branching factor 2:
//! depth-even splits are on x, depth-odd on y. It is the `d = 1` end of
//! the paper's "the same principles apply …" generalization; the `dims`
//! experiment validates the `b = 2` population model against it. It is
//! [`PrTree`] over that decomposition, with a default depth limit of 64,
//! since it halves area every *two* levels.

use crate::arena::BinDecomp;
use crate::pr_tree::PrTree;

/// A generalized bintree with node capacity `m`.
pub type Bintree = PrTree<BinDecomp>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_stats::OccupancyInstrumented;
    use popan_geom::{Point2, Rect};
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;
    use popan_workload::points::{PointSource, UniformRect};

    fn pt(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn empty_and_errors() {
        assert!(Bintree::new(Rect::unit(), 0).is_err());
        let mut t = Bintree::new(Rect::unit(), 1).unwrap();
        assert!(t.is_empty());
        assert!(t.insert(pt(2.0, 0.0)).is_err());
        assert!(t.insert(pt(0.0, f64::INFINITY)).is_err());
    }

    #[test]
    fn first_split_is_on_x() {
        let mut t = Bintree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.1, 0.5)).unwrap();
        t.insert(pt(0.9, 0.5)).unwrap();
        // Same y, different x halves: one split suffices.
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.leaf_count(), 2);
        t.check_invariants();
    }

    #[test]
    fn same_x_half_requires_y_split() {
        let mut t = Bintree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.1, 0.1)).unwrap();
        t.insert(pt(0.2, 0.9)).unwrap();
        // Both in the left x half; second split (on y) separates them:
        // root + 2 children + 2 grandchildren = 5 nodes.
        assert_eq!(t.node_count(), 5);
        t.check_invariants();
    }

    #[test]
    fn random_build_invariants() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(77);
        let points = src.sample_n(&mut rng, 800);
        let t = Bintree::build(Rect::unit(), 3, points.iter().copied()).unwrap();
        t.check_invariants();
        for p in &points {
            assert!(t.contains(p));
        }
        let profile = t.occupancy_profile();
        assert_eq!(profile.total_items(), 800);
        assert!(profile.max_occupancy() <= 3);
    }

    #[test]
    fn node_count_identity_binary() {
        // leaves = internal + 1 in a proper binary tree.
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(78);
        let t = Bintree::build(Rect::unit(), 1, src.sample_n(&mut rng, 400)).unwrap();
        let n = t.node_count();
        let leaves = t.leaf_count();
        assert_eq!(leaves, (n - leaves) + 1);
    }

    #[test]
    fn coincident_points_do_not_split() {
        let mut t = Bintree::new(Rect::unit(), 2).unwrap();
        for _ in 0..6 {
            t.insert(pt(0.4, 0.4)).unwrap();
        }
        assert_eq!(t.node_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn range_and_count_agree_with_scan() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(80);
        let points = src.sample_n(&mut rng, 600);
        let t = Bintree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
        assert_eq!(t.points().len(), 600);
        for query in [
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.1, 0.3, 0.6, 0.7),
            Rect::from_bounds(0.9, 0.9, 0.95, 0.95),
        ] {
            let expect = points.iter().filter(|p| query.contains(p)).count();
            assert_eq!(t.range_query(&query).len(), expect, "{query}");
            assert_eq!(t.count_in_range(&query), expect, "{query}");
        }
    }

    #[test]
    fn bintree_needs_about_twice_quadtree_depth() {
        use crate::pr_quadtree::PrQuadtree;
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(79);
        let points = src.sample_n(&mut rng, 500);
        let bt = Bintree::build(Rect::unit(), 1, points.iter().copied()).unwrap();
        let qt = PrQuadtree::build(Rect::unit(), 1, points.iter().copied()).unwrap();
        let bt_depth = bt.leaf_records().iter().map(|r| r.depth).max().unwrap();
        let qt_depth = qt.leaf_records().iter().map(|r| r.depth).max().unwrap();
        assert!(
            bt_depth >= qt_depth && bt_depth <= 2 * qt_depth + 1,
            "bintree depth {bt_depth} vs quadtree depth {qt_depth}"
        );
    }
}
