//! The bintree: regular decomposition with alternating axis halving.
//!
//! A bintree (Samet & Tamminen; Knowlton's original) splits a block in two
//! along one axis, alternating axes level by level — branching factor 2.
//! It is the `d = 1` end of the paper's "the same principles apply …"
//! generalization; the `dims` experiment validates the `b = 2` population
//! model against it.
//!
//! Backed by the contiguous arena core with an incrementally maintained
//! census, like every regular-decomposition tree in this crate.

use crate::arena::{ArenaTree, BinDecomp};
use crate::node_stats::{
    DepthOccupancyTable, LeafRecord, OccupancyCensus, OccupancyInstrumented, OccupancyProfile,
};
use crate::pr_quadtree::{check_capacity, check_point, validate_points, TreeError};
use popan_geom::{Point2, Rect};

/// Default depth limit. A bintree halves area every *two* levels, so it
/// runs twice as deep as a quadtree for the same resolution.
pub const DEFAULT_MAX_DEPTH: u32 = 64;

/// A generalized bintree with node capacity `m`.
#[derive(Debug, Clone)]
pub struct Bintree {
    tree: ArenaTree<BinDecomp>,
}

impl Bintree {
    /// Creates an empty bintree over `region` with node capacity
    /// `capacity`.
    pub fn new(region: Rect, capacity: usize) -> Result<Self, TreeError> {
        check_capacity(capacity)?;
        Ok(Bintree {
            tree: ArenaTree::new(region, capacity, DEFAULT_MAX_DEPTH),
        })
    }

    /// Builds a bintree by inserting `points` in order.
    pub fn build(
        region: Rect,
        capacity: usize,
        points: impl IntoIterator<Item = Point2>,
    ) -> Result<Self, TreeError> {
        let mut t = Self::new(region, capacity)?;
        t.tree.bulk_fill(validate_points(&region, points)?);
        Ok(t)
    }

    /// The occupancy census of [`build`](Self::build) over the same
    /// arguments, without the tree (see
    /// [`PrQuadtree::census_of`](crate::PrQuadtree::census_of)).
    pub fn census_of(
        region: Rect,
        capacity: usize,
        points: Vec<Point2>,
    ) -> Result<OccupancyCensus, TreeError> {
        check_capacity(capacity)?;
        for &p in &points {
            check_point(&region, p)?;
        }
        Ok(ArenaTree::<BinDecomp>::census_of(
            region,
            capacity,
            DEFAULT_MAX_DEPTH,
            points,
        ))
    }

    /// The region covered.
    pub fn region(&self) -> Rect {
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

    /// Inserts a point, splitting per the PR rule with alternating axes
    /// (depth-even splits are on x, depth-odd on y).
    pub fn insert(&mut self, p: Point2) -> Result<(), TreeError> {
        self.tree.insert(check_point(&self.region(), p)?);
        Ok(())
    }

    /// `true` when an exactly equal point is stored.
    pub fn contains(&self, p: &Point2) -> bool {
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
    pub fn for_each_leaf(&self, mut f: impl FnMut(Rect, u32, &[Point2])) {
        self.tree
            .for_each_leaf(&mut |block, depth, _, points| f(*block, depth, points));
    }

    /// All stored points, in leaf-traversal order.
    pub fn points(&self) -> Vec<Point2> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_leaf(|_, _, pts| out.extend_from_slice(pts));
        out
    }

    /// All stored points inside `query`, in leaf-traversal order.
    ///
    /// A leaf sweep pruned by block overlap — fine for the oracle and
    /// verification paths this backend serves; the query tier freezes
    /// hot structures into a `Snapshot` for serving.
    pub fn range_query(&self, query: &Rect) -> Vec<Point2> {
        let mut out = Vec::new();
        self.for_each_leaf(|block, _, pts| {
            if block.overlaps(query) {
                out.extend(pts.iter().filter(|p| query.contains(p)).copied());
            }
        });
        out
    }

    /// Counts stored points inside `query` without materializing them.
    pub fn count_in_range(&self, query: &Rect) -> usize {
        let mut count = 0;
        self.for_each_leaf(|block, _, pts| {
            if query.contains_rect(&block) {
                count += pts.len();
            } else if block.overlaps(query) {
                count += pts.iter().filter(|p| query.contains(p)).count();
            }
        });
        count
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

impl OccupancyInstrumented for Bintree {
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
