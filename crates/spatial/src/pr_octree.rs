//! The PR octree: the PR bucketing discipline in 3-D.
//!
//! The paper remarks that "the same principles apply in the case of
//! octrees and higher dimensional data structures" — branching factor 8
//! instead of 4. The `dims` extension experiment validates the generalized
//! population model against this tree.
//!
//! Like [`crate::PrQuadtree`], the octree is backed by the contiguous
//! arena core with an incrementally maintained census, so occupancy reads
//! are zero-allocation and traversal-free.

use crate::arena::{ArenaTree, OctDecomp};
use crate::node_stats::{
    DepthOccupancyTable, LeafRecord, OccupancyCensus, OccupancyInstrumented, OccupancyProfile,
};
use crate::pr_quadtree::{check_capacity, TreeError};
use popan_geom::{Aabb3, Point3};

/// Default depth limit (see [`crate::pr_quadtree::DEFAULT_MAX_DEPTH`]).
pub const DEFAULT_MAX_DEPTH: u32 = 32;

/// `p`, when it is finite and inside `region`, in the order `build`
/// checks.
fn check_point(region: &Aabb3, p: Point3) -> Result<Point3, TreeError> {
    if !p.is_finite() {
        return Err(TreeError::NonFinitePoint);
    }
    if !region.contains(&p) {
        return Err(TreeError::InvalidParameter(format!(
            "point {p} lies outside the octree region"
        )));
    }
    Ok(p)
}

/// A generalized PR octree with node capacity `m`.
#[derive(Debug, Clone)]
pub struct PrOctree {
    tree: ArenaTree<OctDecomp>,
}

impl PrOctree {
    /// Creates an empty octree over `region` with node capacity `capacity`.
    pub fn new(region: Aabb3, capacity: usize) -> Result<Self, TreeError> {
        check_capacity(capacity)?;
        Ok(PrOctree {
            tree: ArenaTree::new(region, capacity, DEFAULT_MAX_DEPTH),
        })
    }

    /// Builds an octree by inserting `points` in order.
    pub fn build(
        region: Aabb3,
        capacity: usize,
        points: impl IntoIterator<Item = Point3>,
    ) -> Result<Self, TreeError> {
        let mut t = Self::new(region, capacity)?;
        let mut pts = Vec::new();
        for p in points {
            pts.push(check_point(&region, p)?);
        }
        t.tree.bulk_fill(pts);
        Ok(t)
    }

    /// The occupancy census of [`build`](Self::build) over the same
    /// arguments, without the tree (see
    /// [`PrQuadtree::census_of`](crate::PrQuadtree::census_of)).
    pub fn census_of(
        region: Aabb3,
        capacity: usize,
        points: Vec<Point3>,
    ) -> Result<OccupancyCensus, TreeError> {
        check_capacity(capacity)?;
        for &p in &points {
            check_point(&region, p)?;
        }
        Ok(ArenaTree::<OctDecomp>::census_of(
            region,
            capacity,
            DEFAULT_MAX_DEPTH,
            points,
        ))
    }

    /// The region covered.
    pub fn region(&self) -> Aabb3 {
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
    pub fn insert(&mut self, p: Point3) -> Result<(), TreeError> {
        if !p.is_finite() {
            return Err(TreeError::NonFinitePoint);
        }
        if !self.region().contains(&p) {
            return Err(TreeError::InvalidParameter(format!(
                "point {p} lies outside the octree region"
            )));
        }
        self.tree.insert(p);
        Ok(())
    }

    /// `true` when an exactly equal point is stored.
    pub fn contains(&self, p: &Point3) -> bool {
        if !self.region().contains(p) {
            return false;
        }
        self.tree.contains(p)
    }

    /// Total node count (internal + leaf) — O(1) pool accounting.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
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

    /// Verifies structural invariants (see
    /// [`crate::pr_quadtree::PrQuadtree::check_invariants`]), including
    /// census/traversal agreement.
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
    }
}

impl OccupancyInstrumented for PrOctree {
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
    use popan_workload::points::UniformCube;

    #[test]
    fn empty_and_single() {
        let mut t = PrOctree::new(Aabb3::unit(), 1).unwrap();
        assert!(t.is_empty());
        t.insert(Point3::new(0.5, 0.5, 0.5)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.node_count(), 1);
        assert!(t.contains(&Point3::new(0.5, 0.5, 0.5)));
        t.check_invariants();
    }

    #[test]
    fn rejects_invalid() {
        assert!(PrOctree::new(Aabb3::unit(), 0).is_err());
        let mut t = PrOctree::new(Aabb3::unit(), 1).unwrap();
        assert!(t.insert(Point3::new(2.0, 0.0, 0.0)).is_err());
        assert!(t.insert(Point3::new(f64::NAN, 0.0, 0.0)).is_err());
    }

    #[test]
    fn split_produces_eight_children() {
        let mut t = PrOctree::new(Aabb3::unit(), 1).unwrap();
        t.insert(Point3::new(0.1, 0.1, 0.1)).unwrap();
        t.insert(Point3::new(0.9, 0.9, 0.9)).unwrap();
        assert_eq!(t.node_count(), 9); // root + 8 children
        assert_eq!(t.leaf_count(), 8);
        let profile = t.occupancy_profile();
        assert_eq!(profile.count(0), 6);
        assert_eq!(profile.count(1), 2);
        t.check_invariants();
    }

    #[test]
    fn random_build_invariants_and_lookup() {
        let src = UniformCube::unit();
        let mut rng = StdRng::seed_from_u64(5);
        let points = src.sample_n(&mut rng, 600);
        let t = PrOctree::build(Aabb3::unit(), 4, points.iter().copied()).unwrap();
        t.check_invariants();
        assert_eq!(t.len(), 600);
        for p in &points {
            assert!(t.contains(p));
        }
        let profile = t.occupancy_profile();
        assert_eq!(profile.total_items(), 600);
        assert!(profile.max_occupancy() <= 4);
    }

    #[test]
    fn coincident_points_do_not_split() {
        let mut t = PrOctree::new(Aabb3::unit(), 1).unwrap();
        for _ in 0..4 {
            t.insert(Point3::new(0.3, 0.3, 0.3)).unwrap();
        }
        assert_eq!(t.node_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn node_count_identity_for_octree() {
        // Every split adds 8 nodes: leaves = 7·internal + 1.
        let src = UniformCube::unit();
        let mut rng = StdRng::seed_from_u64(6);
        let t = PrOctree::build(Aabb3::unit(), 1, src.sample_n(&mut rng, 300)).unwrap();
        let n = t.node_count();
        let leaves = t.leaf_count();
        let internal = n - leaves;
        assert_eq!(leaves, internal * 7 + 1);
    }
}
