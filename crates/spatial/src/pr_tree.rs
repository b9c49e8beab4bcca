//! The generalized PR tree for point data, over any regular
//! decomposition.
//!
//! Regular decomposition of a fixed region with the paper's splitting
//! rule: *"split until no block contains more than m points"* (§II).
//! The PR quadtree, the bintree and the `2^D`-ary orthant trees differ
//! only in how a block splits ("the same principles apply in the case
//! of octrees and higher dimensional data structures"), so they are one
//! type, [`PrTree`], over a decomposition scheme, and
//! [`PrQuadtree`](crate::PrQuadtree), [`Bintree`](crate::Bintree) and
//! [`PrTreeNd`](crate::PrTreeNd) are its aliases. The scheme supplies the
//! split, the point check, the default depth limit and the block tests
//! the range walk prunes with; everything else is written once here.
//!
//! # Semantics
//!
//! * The tree covers a fixed region; inserting a point outside it is an
//!   error (regular decomposition has "pre-defined boundaries").
//! * Points are a multiset: exact duplicates are stored. Since coincident
//!   points can never be separated by splitting, a leaf whose points are
//!   all coincident is not split further (and a depth limit caps
//!   pathological near-duplicates, reproducing the paper's
//!   depth-truncation artifact when set low).
//! * Leaves at the depth limit may exceed the capacity.
//!
//! # Representation
//!
//! Nodes live in a contiguous arena (`u32` slot ids, free-list reuse on
//! remove-collapse) and the occupancy census is maintained
//! incrementally, so [`PrTree::occupancy_profile`],
//! [`PrTree::depth_table`] and [`PrTree::leaf_count`] are
//! zero-allocation O(m) reads instead of full traversals. Leaf traversal
//! order (pre-order by child index) and every floating-point result of
//! the quadtree are bit-identical to the original boxed implementation,
//! which survives as [`crate::reference::BoxedPrQuadtree`] — the
//! equivalence-test oracle.

use crate::arena::{ArenaTree, Decomposition, QuadDecomp, SlotView, ROOT};
use crate::linear_quadtree::{knn_scan_leaf, min_dist_squared};
use crate::node_stats::{
    DepthOccupancyTable, LeafRecord, OccupancyCensus, OccupancyInstrumented, OccupancyProfile,
};
use crate::pr_quadtree::TreeError;
use popan_geom::{Point2, Rect};

/// A generalized PR tree with node capacity `m` over the decomposition
/// scheme `S`: [`PrQuadtree`](crate::PrQuadtree),
/// [`Bintree`](crate::Bintree) or [`PrTreeNd`](crate::PrTreeNd).
#[derive(Debug, Clone)]
pub struct PrTree<S: Decomposition> {
    tree: ArenaTree<S>,
}

impl<S: Decomposition> PrTree<S> {
    /// Creates an empty tree over `region` with node capacity `capacity`
    /// and the scheme's default depth limit.
    pub fn new(region: S::Block, capacity: usize) -> Result<Self, TreeError> {
        Self::with_depth_limit(region, capacity, S::DEFAULT_MAX_DEPTH)
    }

    fn with_depth_limit(
        region: S::Block,
        capacity: usize,
        max_depth: u32,
    ) -> Result<Self, TreeError> {
        Self::check_params(capacity)?;
        Ok(PrTree {
            tree: ArenaTree::new(region, capacity, max_depth),
        })
    }

    /// Builds a tree by inserting `points` in order.
    pub fn build(
        region: S::Block,
        capacity: usize,
        points: impl IntoIterator<Item = S::Point>,
    ) -> Result<Self, TreeError> {
        let mut t = Self::new(region, capacity)?;
        let mut pts = Vec::new();
        for p in points {
            pts.push(S::check_point(&region, p)?);
        }
        // Bulk construction: bit-identical to sequential inserts (see
        // `ArenaTree::bulk_fill`), but streams points level by level
        // instead of descending per point.
        t.tree.bulk_fill(pts);
        Ok(t)
    }

    /// The occupancy census of [`build`](Self::build) over the same
    /// arguments, without the tree: the arena's builder runs with the
    /// census for its sink, so no node, leaf buffer or point copy is
    /// made. For the drivers that read only a census. Fails as `build`
    /// does, with the same error for the same input, and checks
    /// `points` where they lie instead of collecting them again.
    pub fn census_of(
        region: S::Block,
        capacity: usize,
        points: Vec<S::Point>,
    ) -> Result<OccupancyCensus, TreeError> {
        Self::check_params(capacity)?;
        for &p in &points {
            S::check_point(&region, p)?;
        }
        Ok(ArenaTree::<S>::census_of(
            region,
            capacity,
            S::DEFAULT_MAX_DEPTH,
            points,
        ))
    }

    /// Fails unless a block splits in two or more (a zero-dimensional
    /// orthant tree's does not) and `capacity ≥ 1`, in that order.
    fn check_params(capacity: usize) -> Result<(), TreeError> {
        if S::BRANCHING < 2 {
            return Err(TreeError::InvalidParameter(
                "dimension must be at least 1".into(),
            ));
        }
        if capacity == 0 {
            return Err(TreeError::InvalidParameter(
                "node capacity must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// The branching factor: children per internal node.
    pub const fn branching() -> usize {
        S::BRANCHING
    }

    /// The region covered.
    pub fn region(&self) -> S::Block {
        self.tree.region()
    }

    /// The depth limit.
    pub fn max_depth(&self) -> u32 {
        self.tree.max_depth()
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Inserts a point, splitting per the PR rule.
    pub fn insert(&mut self, p: S::Point) -> Result<(), TreeError> {
        self.tree.insert(S::check_point(&self.region(), p)?);
        Ok(())
    }

    /// Removes one stored instance of `p`. Returns `true` when a point
    /// was removed.
    ///
    /// A point `insert` rejects (non-finite or outside the region) can
    /// never be stored, so it is a no-op with no descent.
    ///
    /// After a removal, internal nodes whose children are all leaves and
    /// whose combined occupancy fits within the capacity are collapsed
    /// back into a single leaf, restoring the PR tree's minimality: the
    /// structure after deletions is exactly what building from the
    /// surviving point set produces (order-independence extends to
    /// deletion).
    pub fn remove(&mut self, p: &S::Point) -> bool {
        S::check_point(&self.region(), *p).is_ok_and(|p| self.tree.remove(&p))
    }

    /// `true` when an exactly equal point is stored.
    pub fn contains(&self, p: &S::Point) -> bool {
        S::contains(&self.region(), p) && self.tree.contains(p)
    }

    /// All stored points inside `query` (half-open on every axis), in
    /// leaf-traversal order.
    pub fn range_query(&self, query: &S::Block) -> Vec<S::Point> {
        let mut out = Vec::new();
        self.tree.range_walk(query, &mut |points, covered| {
            if covered {
                out.extend_from_slice(points);
            } else {
                out.extend(points.iter().filter(|p| S::contains(query, p)));
            }
        });
        out
    }

    /// Counts stored points inside `query` without materializing them.
    pub fn count_in_range(&self, query: &S::Block) -> usize {
        let mut count = 0;
        self.tree.range_walk(query, &mut |points, covered| {
            count += if covered {
                points.len()
            } else {
                points.iter().filter(|p| S::contains(query, p)).count()
            };
        });
        count
    }

    /// Total node count (internal + leaf) — O(1) pool accounting.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Leaf node count — the paper's `nodes` column (its node counts are
    /// leaf counts: Table 4 reports 16.9 "nodes" for 64 points at m = 8).
    /// Served from the maintained census: O(1), no traversal.
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

    /// The full incremental census (profile + depth table + leaf count).
    pub fn census(&self) -> &OccupancyCensus {
        self.tree.census()
    }

    /// The arena core, for the freeze's path-threaded walk.
    pub(crate) fn arena(&self) -> &ArenaTree<S> {
        &self.tree
    }

    /// Visits every leaf with its block, depth and points, in traversal
    /// order.
    pub fn for_each_leaf(&self, mut f: impl FnMut(S::Block, u32, &[S::Point])) {
        self.tree
            .for_each_leaf(&mut |block, depth, _, points| f(*block, depth, points));
    }

    /// All stored points, in leaf-traversal order.
    pub fn points(&self) -> Vec<S::Point> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_leaf(|_, _, pts| out.extend_from_slice(pts));
        out
    }

    /// Verifies structural invariants; panics with a description on
    /// violation. Test/diagnostic hook.
    ///
    /// Checks: point count consistency; every point inside its leaf block;
    /// no leaf above capacity unless at the depth limit or
    /// all-coincident; arena pool accounting; and that the incremental
    /// census equals a census rebuilt from a full traversal.
    pub fn check_invariants(&self) {
        self.tree.check_invariants();
    }
}

impl PrTree<QuadDecomp> {
    /// Creates an empty quadtree with an explicit depth limit.
    ///
    /// The paper's implementation "truncates the tree at that depth
    /// (9)"; passing `max_depth = 9` reproduces its Table 3 artifact.
    pub fn with_max_depth(
        region: Rect,
        capacity: usize,
        max_depth: u32,
    ) -> Result<Self, TreeError> {
        Self::with_depth_limit(region, capacity, max_depth)
    }
}

/// k-NN for the planar schemes (the quadtree and the bintree).
impl<S: Decomposition<Point = Point2, Block = Rect>> PrTree<S> {
    /// The `k` stored points nearest to `target`, nearest first (fewer
    /// when the tree holds fewer than `k` points).
    ///
    /// Ordering and tie-breaking follow the query tier's canonical k-NN
    /// order ([`crate::linear_quadtree::knn_cmp`]: squared distance,
    /// then [`Point2::canonical_cmp`]), so the result is bit-identical
    /// to every other `Queryable` backend even on coincident piles and
    /// equidistant rings.
    pub fn k_nearest(&self, target: &Point2, k: usize) -> Vec<Point2> {
        const { assert!(S::BRANCHING <= 4) };
        if k == 0 {
            return Vec::new();
        }
        // Best list kept sorted ascending by the canonical order;
        // worst-first pruning.
        let mut best: Vec<(f64, Point2)> = Vec::with_capacity(k + 1);
        self.k_nearest_rec(ROOT, self.region(), 0, target, k, &mut best);
        best.into_iter().map(|(_, p)| p).collect()
    }

    fn k_nearest_rec(
        &self,
        slot: u32,
        block: Rect,
        depth: u32,
        target: &Point2,
        k: usize,
        best: &mut Vec<(f64, Point2)>,
    ) {
        let pruned = |&(worst, _): &(f64, Point2)| min_dist_squared(&block, target) > worst;
        if best.len() == k && best.last().is_some_and(pruned) {
            return;
        }
        match self.tree.view(slot) {
            SlotView::Leaf(points) => knn_scan_leaf(points, target, k, best),
            SlotView::Internal(base) => {
                // Nearest child first, ties in child order.
                let mut children = [(0.0, 0, block); 4];
                for (i, child) in (0..S::BRANCHING as u32).zip(&mut children) {
                    let rect = S::child_block(&block, depth, i as usize);
                    *child = (min_dist_squared(&rect, target), i, rect);
                }
                let Some(children) = children.get_mut(..S::BRANCHING) else {
                    return;
                };
                children.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for &mut (_, i, rect) in children {
                    self.k_nearest_rec(base + i, rect, depth + 1, target, k, best);
                }
            }
        }
    }

    /// The stored point nearest to `target`, by [`PrTree::k_nearest`]
    /// with `k` = 1: ties resolve canonically
    /// ([`crate::linear_quadtree::knn_cmp`]). `None` when the tree is
    /// empty; `target` need not be in the region.
    pub fn nearest(&self, target: &Point2) -> Option<Point2> {
        self.k_nearest(target, 1).pop()
    }
}

impl<S: Decomposition> OccupancyInstrumented for PrTree<S> {
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
