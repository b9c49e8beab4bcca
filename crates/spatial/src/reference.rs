//! Reference boxed PR quadtree — the bit-identity oracle.
//!
//! This is the original pointer-based implementation
//! (`Node::Internal(Box<[Node; 4]>)` + one heap `Vec` per leaf) that
//! [`crate::PrQuadtree`] replaced with the arena core. It is kept, frozen,
//! for two purposes:
//!
//! * the arena equivalence proptests build the same point sequences here
//!   and assert bit-identical `leaf_records()` and traversal output after
//!   arbitrary insert/remove interleavings;
//! * the `BENCH_spatial` micro group measures the arena speedup against
//!   this implementation as its "before" baseline.
//!
//! Every branch mirrors the semantics documented on [`crate::pr_tree`]:
//! push-then-check splitting, the coincident-pile exception, max-depth
//! truncation, and merge-on-underflow collapse.

use crate::node_stats::{LeafRecord, OccupancyInstrumented};
use crate::pr_quadtree::{check_point, TreeError, DEFAULT_MAX_DEPTH};
use popan_geom::{Point2, Quadrant, Rect};

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<Point2>),
    Internal(Box<[Node; 4]>),
}

impl Node {
    fn empty_leaf() -> Node {
        Node::Leaf(Vec::new())
    }
}

/// The original boxed PR quadtree, kept as an oracle and bench baseline.
#[derive(Debug, Clone)]
pub struct BoxedPrQuadtree {
    root: Node,
    region: Rect,
    capacity: usize,
    max_depth: u32,
    len: usize,
}

impl BoxedPrQuadtree {
    /// Creates an empty tree over `region` with node capacity `capacity`.
    pub fn new(region: Rect, capacity: usize) -> Result<Self, TreeError> {
        Self::with_max_depth(region, capacity, DEFAULT_MAX_DEPTH)
    }

    /// Creates an empty tree with an explicit depth limit.
    pub fn with_max_depth(
        region: Rect,
        capacity: usize,
        max_depth: u32,
    ) -> Result<Self, TreeError> {
        if capacity == 0 {
            return Err(TreeError::InvalidParameter(
                "node capacity must be at least 1".into(),
            ));
        }
        Ok(BoxedPrQuadtree {
            root: Node::empty_leaf(),
            region,
            capacity,
            max_depth,
            len: 0,
        })
    }

    /// Builds a tree by inserting `points` in order.
    pub fn build(
        region: Rect,
        capacity: usize,
        points: impl IntoIterator<Item = Point2>,
    ) -> Result<Self, TreeError> {
        let mut t = Self::new(region, capacity)?;
        for p in points {
            t.insert(p)?;
        }
        Ok(t)
    }

    /// The region covered.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a point, splitting per the PR rule.
    pub fn insert(&mut self, p: Point2) -> Result<(), TreeError> {
        let p = check_point(&self.region, p)?;
        Self::insert_rec(
            &mut self.root,
            self.region,
            0,
            self.max_depth,
            self.capacity,
            p,
        );
        self.len += 1;
        Ok(())
    }

    fn insert_rec(
        node: &mut Node,
        block: Rect,
        depth: u32,
        max_depth: u32,
        capacity: usize,
        p: Point2,
    ) {
        match node {
            Node::Internal(children) => {
                let q = block.quadrant_of(&p);
                Self::insert_rec(
                    &mut children[q.index()],
                    block.quadrant(q),
                    depth + 1,
                    max_depth,
                    capacity,
                    p,
                );
            }
            Node::Leaf(points) => {
                points.push(p);
                if points.len() > capacity && depth < max_depth {
                    let first = points[0];
                    if points.iter().all(|q| *q == first) {
                        return;
                    }
                    Self::split_leaf(node, block, depth, max_depth, capacity);
                }
            }
        }
    }

    fn split_leaf(node: &mut Node, block: Rect, depth: u32, max_depth: u32, capacity: usize) {
        let points = match std::mem::replace(node, Node::empty_leaf()) {
            Node::Leaf(points) => points,
            Node::Internal(_) => unreachable!("split_leaf called on internal node"),
        };
        let mut children = Box::new([
            Node::empty_leaf(),
            Node::empty_leaf(),
            Node::empty_leaf(),
            Node::empty_leaf(),
        ]);
        for p in points {
            let q = block.quadrant_of(&p);
            match &mut children[q.index()] {
                Node::Leaf(v) => v.push(p),
                Node::Internal(_) => unreachable!(),
            }
        }
        for (i, child) in children.iter_mut().enumerate() {
            let needs_split = match child {
                Node::Leaf(v) => {
                    v.len() > capacity && depth + 1 < max_depth && {
                        let first = v[0];
                        !v.iter().all(|q| *q == first)
                    }
                }
                Node::Internal(_) => false,
            };
            if needs_split {
                let q = Quadrant::from_index(i);
                Self::split_leaf(child, block.quadrant(q), depth + 1, max_depth, capacity);
            }
        }
        *node = Node::Internal(children);
    }

    /// Removes one stored instance of `p`; collapses mergeable internals.
    pub fn remove(&mut self, p: &Point2) -> bool {
        if !p.is_finite() || !self.region.contains(p) {
            return false;
        }
        let removed = Self::remove_rec(&mut self.root, self.region, self.capacity, p);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(node: &mut Node, block: Rect, capacity: usize, p: &Point2) -> bool {
        match node {
            Node::Leaf(points) => match points.iter().position(|q| q == p) {
                Some(idx) => {
                    points.swap_remove(idx);
                    true
                }
                None => false,
            },
            Node::Internal(children) => {
                let q = block.quadrant_of(p);
                let removed =
                    Self::remove_rec(&mut children[q.index()], block.quadrant(q), capacity, p);
                if removed {
                    Self::try_collapse(node, capacity);
                }
                removed
            }
        }
    }

    fn try_collapse(node: &mut Node, capacity: usize) {
        let Node::Internal(children) = node else {
            return;
        };
        let mut total = 0;
        for child in children.iter() {
            match child {
                Node::Leaf(points) => total += points.len(),
                Node::Internal(_) => return,
            }
        }
        if total > capacity {
            let mut first: Option<Point2> = None;
            let all_coincident = children.iter().all(|child| match child {
                Node::Leaf(points) => points.iter().all(|q| match first {
                    Some(f) => *q == f,
                    None => {
                        first = Some(*q);
                        true
                    }
                }),
                Node::Internal(_) => false,
            });
            if !all_coincident {
                return;
            }
        }
        let mut merged = Vec::with_capacity(total);
        for child in children.iter_mut() {
            if let Node::Leaf(points) = child {
                merged.append(points);
            }
        }
        *node = Node::Leaf(merged);
    }

    /// Total node count (internal + leaf).
    pub fn node_count(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Internal(children) => 1 + children.iter().map(walk).sum::<usize>(),
            }
        }
        walk(&self.root)
    }

    /// Leaf node count (full traversal — this is the implementation whose
    /// cost the arena census eliminates).
    pub fn leaf_count(&self) -> usize {
        self.leaf_records().len()
    }

    /// Visits every leaf with its block, depth and points, NW→SE
    /// pre-order.
    pub fn for_each_leaf(&self, mut f: impl FnMut(Rect, u32, &[Point2])) {
        fn walk(node: &Node, block: Rect, depth: u32, f: &mut impl FnMut(Rect, u32, &[Point2])) {
            match node {
                Node::Leaf(points) => f(block, depth, points),
                Node::Internal(children) => {
                    for (i, child) in children.iter().enumerate() {
                        walk(child, block.quadrant(Quadrant::from_index(i)), depth + 1, f);
                    }
                }
            }
        }
        walk(&self.root, self.region, 0, &mut f);
    }

    /// All stored points, in leaf order.
    pub fn points(&self) -> Vec<Point2> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each_leaf(|_, _, pts| out.extend_from_slice(pts));
        out
    }
}

impl OccupancyInstrumented for BoxedPrQuadtree {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn leaf_records(&self) -> Vec<LeafRecord> {
        let mut out = Vec::new();
        self.for_each_leaf(|_, depth, points| {
            out.push(LeafRecord {
                depth,
                occupancy: points.len(),
            })
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_basics() {
        let mut t = BoxedPrQuadtree::new(Rect::unit(), 1).unwrap();
        assert!(t.is_empty());
        for p in [
            Point2::new(0.1, 0.1),
            Point2::new(0.9, 0.1),
            Point2::new(0.1, 0.9),
            Point2::new(0.9, 0.9),
        ] {
            t.insert(p).unwrap();
        }
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.leaf_count(), 4);
        assert!(t.remove(&Point2::new(0.9, 0.9)));
        assert!(t.remove(&Point2::new(0.1, 0.9)));
        assert!(t.remove(&Point2::new(0.9, 0.1)));
        assert_eq!(t.node_count(), 1, "collapse restores the single leaf");
        assert_eq!(t.len(), 1);
    }
}
