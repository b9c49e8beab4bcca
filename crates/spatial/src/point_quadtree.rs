//! The classical (Finkel–Bentley) point quadtree.
//!
//! Included for the paper's §II taxonomy: the second decomposition family,
//! where "the partition is determined explicitly by the data as it is
//! entered into the structure" — each stored point becomes the partition
//! origin of its subtree, so "the shape of the final structure depends
//! critically on the order in which the information was inserted".
//!
//! Because every node holds exactly one point, the point quadtree has no
//! occupancy populations; the interesting statistics are depth-related,
//! which is what this implementation exposes.

use crate::pr_quadtree::TreeError;
use popan_geom::{Point2, Rect};

#[derive(Debug, Clone)]
struct Node {
    point: Point2,
    /// Children by quadrant relative to `point`: index = (y ≥ py)·2 + (x ≥ px),
    /// matching [`popan_geom::Quadrant`] numbering.
    children: [Option<Box<Node>>; 4],
}

impl Node {
    fn new(point: Point2) -> Node {
        Node {
            point,
            children: [None, None, None, None],
        }
    }

    fn quadrant_index(&self, p: &Point2) -> usize {
        usize::from(p.y >= self.point.y) * 2 + usize::from(p.x >= self.point.x)
    }
}

/// A point quadtree: one point per node, data-dependent partitions.
#[derive(Debug, Clone, Default)]
pub struct PointQuadtree {
    root: Option<Box<Node>>,
    len: usize,
}

impl PointQuadtree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        PointQuadtree::default()
    }

    /// Builds a tree by inserting `points` in order.
    pub fn build(points: impl IntoIterator<Item = Point2>) -> Result<Self, TreeError> {
        let mut t = Self::new();
        for p in points {
            t.insert(p)?;
        }
        Ok(t)
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a point. Duplicate points are rejected (the point quadtree
    /// stores *distinct* keys; a duplicate would land forever in the same
    /// `≥/≥` quadrant of itself).
    pub fn insert(&mut self, p: Point2) -> Result<(), TreeError> {
        if !p.is_finite() {
            return Err(TreeError::NonFinitePoint);
        }
        match &mut self.root {
            None => {
                self.root = Some(Box::new(Node::new(p)));
            }
            Some(root) => {
                let mut node = root.as_mut();
                loop {
                    if node.point == p {
                        return Err(TreeError::DuplicatePoint(p));
                    }
                    let q = node.quadrant_index(&p);
                    if node.children[q].is_none() {
                        node.children[q] = Some(Box::new(Node::new(p)));
                        break;
                    }
                    node = node.children[q].as_mut().unwrap();
                }
            }
        }
        self.len += 1;
        Ok(())
    }

    /// `true` when an exactly equal point is stored.
    pub fn contains(&self, p: &Point2) -> bool {
        let mut node = match &self.root {
            None => return false,
            Some(n) => n.as_ref(),
        };
        loop {
            if node.point == *p {
                return true;
            }
            match &node.children[node.quadrant_index(p)] {
                None => return false,
                Some(child) => node = child.as_ref(),
            }
        }
    }

    /// Depth of the deepest node (root = 0); `None` when empty.
    pub fn max_depth(&self) -> Option<u32> {
        fn walk(node: &Node) -> u32 {
            node.children
                .iter()
                .flatten()
                .map(|c| 1 + walk(c))
                .max()
                .unwrap_or(0)
        }
        self.root.as_ref().map(|r| walk(r))
    }

    /// Mean node depth; `None` when empty. Order-sensitivity shows up
    /// here: sorted insertions degenerate toward a list.
    pub fn mean_depth(&self) -> Option<f64> {
        fn walk(node: &Node, depth: u64, sum: &mut u64, count: &mut u64) {
            *sum += depth;
            *count += 1;
            for c in node.children.iter().flatten() {
                walk(c, depth + 1, sum, count);
            }
        }
        let root = self.root.as_ref()?;
        let mut sum = 0;
        let mut count = 0;
        walk(root, 0, &mut sum, &mut count);
        Some(sum as f64 / count as f64)
    }

    /// Total node count (equals [`Self::len`] — one point per node).
    pub fn node_count(&self) -> usize {
        self.len
    }

    /// All stored points, in preorder (root, then children by quadrant
    /// index).
    pub fn points(&self) -> Vec<Point2> {
        fn walk(node: &Node, out: &mut Vec<Point2>) {
            out.push(node.point);
            for c in node.children.iter().flatten() {
                walk(c, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            walk(root, &mut out);
        }
        out
    }

    /// All stored points inside `query` (half-open on both axes, like
    /// the PR trees), in preorder.
    ///
    /// Prunes subtrees by the partition each node's point induces: a
    /// child quadrant is descended only when the query rectangle can
    /// reach its `≥/<` half-planes.
    pub fn range_query(&self, query: &Rect) -> Vec<Point2> {
        fn walk(node: &Node, query: &Rect, out: &mut Vec<Point2>) {
            if query.contains(&node.point) {
                out.push(node.point);
            }
            let (px, py) = (node.point.x, node.point.y);
            // Child q = (y ≥ py)·2 + (x ≥ px); the query touches the
            // x < px half-plane iff its low edge is left of px, the
            // x ≥ px half-plane iff its (exclusive) high edge passes px.
            let x_reach = [query.x().lo() < px, query.x().hi() > px];
            let y_reach = [query.y().lo() < py, query.y().hi() > py];
            for (q, child) in node.children.iter().enumerate() {
                if let Some(child) = child {
                    if x_reach[q & 1] && y_reach[q >> 1] {
                        walk(child, query, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            walk(root, query, &mut out);
        }
        out
    }

    /// Counts stored points inside `query` without materializing them.
    pub fn count_in_range(&self, query: &Rect) -> usize {
        fn walk(node: &Node, query: &Rect, count: &mut usize) {
            if query.contains(&node.point) {
                *count += 1;
            }
            let (px, py) = (node.point.x, node.point.y);
            let x_reach = [query.x().lo() < px, query.x().hi() > px];
            let y_reach = [query.y().lo() < py, query.y().hi() > py];
            for (q, child) in node.children.iter().enumerate() {
                if let Some(child) = child {
                    if x_reach[q & 1] && y_reach[q >> 1] {
                        walk(child, query, count);
                    }
                }
            }
        }
        let mut count = 0;
        if let Some(root) = &self.root {
            walk(root, query, &mut count);
        }
        count
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
    fn empty_tree() {
        let t = PointQuadtree::new();
        assert!(t.is_empty());
        assert_eq!(t.max_depth(), None);
        assert_eq!(t.mean_depth(), None);
        assert!(!t.contains(&pt(0.0, 0.0)));
    }

    #[test]
    fn insert_and_find() {
        let mut t = PointQuadtree::new();
        t.insert(pt(0.5, 0.5)).unwrap();
        t.insert(pt(0.25, 0.75)).unwrap();
        t.insert(pt(0.75, 0.25)).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.contains(&pt(0.25, 0.75)));
        assert!(!t.contains(&pt(0.25, 0.25)));
        assert_eq!(t.max_depth(), Some(1));
    }

    #[test]
    fn duplicates_rejected() {
        let mut t = PointQuadtree::new();
        t.insert(pt(0.5, 0.5)).unwrap();
        let err = t.insert(pt(0.5, 0.5)).unwrap_err();
        assert_eq!(err, TreeError::DuplicatePoint(pt(0.5, 0.5)));
        assert_eq!(
            err.to_string(),
            "invalid parameter: duplicate point (0.5, 0.5)"
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn non_finite_rejected() {
        let mut t = PointQuadtree::new();
        assert!(t.insert(pt(f64::NAN, 0.0)).is_err());
    }

    #[test]
    fn shape_depends_on_insertion_order() {
        // Paper §II: the point quadtree is order-sensitive (the PR
        // quadtree is not — see the PR quadtree tests).
        let balanced = PointQuadtree::build([
            pt(0.5, 0.5),
            pt(0.25, 0.25),
            pt(0.75, 0.75),
            pt(0.25, 0.75),
            pt(0.75, 0.25),
        ])
        .unwrap();
        // Sorted along the diagonal: degenerates to a path.
        let degenerate = PointQuadtree::build([
            pt(0.1, 0.1),
            pt(0.2, 0.2),
            pt(0.3, 0.3),
            pt(0.4, 0.4),
            pt(0.5, 0.5),
        ])
        .unwrap();
        assert_eq!(balanced.max_depth(), Some(1));
        assert_eq!(degenerate.max_depth(), Some(4));
    }

    #[test]
    fn range_query_matches_scan() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(9);
        let points = src.sample_n(&mut rng, 400);
        let t = PointQuadtree::build(points.iter().copied()).unwrap();
        assert_eq!(t.points().len(), 400);
        for query in [
            popan_geom::Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            popan_geom::Rect::from_bounds(0.2, 0.3, 0.6, 0.9),
            popan_geom::Rect::from_bounds(0.5, 0.5, 0.50001, 0.50001),
        ] {
            let expect = points.iter().filter(|p| query.contains(p)).count();
            assert_eq!(t.range_query(&query).len(), expect, "{query}");
            assert_eq!(t.count_in_range(&query), expect, "{query}");
        }
    }

    #[test]
    fn range_query_prunes_on_partition_boundaries() {
        // A query whose edges coincide with stored partition points —
        // the ≥/< half-plane reach tests must not lose boundary nodes.
        let t = PointQuadtree::build([
            pt(0.5, 0.5),
            pt(0.25, 0.25),
            pt(0.75, 0.75),
            pt(0.25, 0.75),
            pt(0.75, 0.25),
        ])
        .unwrap();
        let q = popan_geom::Rect::from_bounds(0.25, 0.25, 0.75, 0.75);
        // Half-open: (0.75, ·) and (·, 0.75) excluded, (0.25, 0.25) and
        // (0.5, 0.5) included.
        let got = t.range_query(&q);
        assert_eq!(got.len(), 2);
        assert_eq!(t.count_in_range(&q), 2);
    }

    #[test]
    fn random_build_contains_everything() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(3);
        let points = src.sample_n(&mut rng, 500);
        let t = PointQuadtree::build(points.iter().copied()).unwrap();
        assert_eq!(t.len(), 500);
        assert_eq!(t.node_count(), 500);
        for p in &points {
            assert!(t.contains(p));
        }
        // Random order gives roughly logarithmic depth.
        let d = t.max_depth().unwrap();
        assert!(d < 25, "random point quadtree depth {d} suspiciously large");
        assert!(t.mean_depth().unwrap() < d as f64);
    }
}
