//! The PMR quadtree for line segments.
//!
//! The paper's companion analysis \[Nels86a/b\] applies population analysis
//! to this structure. The PMR quadtree differs from the PR quadtree in two
//! ways:
//!
//! * a segment is stored in **every** leaf whose block it passes through;
//! * the splitting rule is **split once**: when inserting a segment into a
//!   leaf pushes that leaf's count above the threshold `m`, the leaf is
//!   split a single time and its segments redistributed — children are
//!   *not* split further during the same insertion, so leaf occupancy can
//!   exceed `m` (with geometrically decaying probability).
//!
//! This "probabilistic" rule guarantees termination even when many
//! segments meet at a point, which the PR rule cannot.

use crate::node_stats::{LeafRecord, OccupancyInstrumented};
use crate::pr_quadtree::TreeError;
use popan_geom::{Rect, Segment2};

/// Default depth limit.
pub const DEFAULT_MAX_DEPTH: u32 = 32;

/// A segment with its insertion id (for deduplicating query results —
/// one segment lives in many leaves).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    id: u32,
    segment: Segment2,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Vec<Entry>),
    Internal(Box<[Node; 4]>),
}

impl Node {
    fn empty_leaf() -> Node {
        Node::Leaf(Vec::new())
    }
}

/// A PMR quadtree with splitting threshold `m`.
#[derive(Debug, Clone)]
pub struct PmrQuadtree {
    root: Node,
    region: Rect,
    threshold: usize,
    max_depth: u32,
    len: usize,
    /// Incrementally maintained leaf-node count: starts at 1 (the root
    /// leaf) and each split-once turns one leaf into four (+3).
    leaf_nodes: usize,
}

impl PmrQuadtree {
    /// Creates an empty PMR quadtree over `region` with splitting
    /// threshold `threshold`.
    pub fn new(region: Rect, threshold: usize) -> Result<Self, TreeError> {
        Self::with_max_depth(region, threshold, DEFAULT_MAX_DEPTH)
    }

    /// Creates an empty tree with an explicit depth limit.
    pub fn with_max_depth(
        region: Rect,
        threshold: usize,
        max_depth: u32,
    ) -> Result<Self, TreeError> {
        if threshold == 0 {
            return Err(TreeError::InvalidParameter(
                "splitting threshold must be at least 1".into(),
            ));
        }
        Ok(PmrQuadtree {
            root: Node::empty_leaf(),
            region,
            threshold,
            max_depth,
            len: 0,
            leaf_nodes: 1,
        })
    }

    /// Builds a tree by inserting `segments` in order.
    pub fn build(
        region: Rect,
        threshold: usize,
        segments: impl IntoIterator<Item = Segment2>,
    ) -> Result<Self, TreeError> {
        let mut t = Self::new(region, threshold)?;
        for s in segments {
            t.insert(s)?;
        }
        Ok(t)
    }

    /// The region covered.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of distinct segments inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a segment. Errors if it does not pass through the region.
    pub fn insert(&mut self, segment: Segment2) -> Result<(), TreeError> {
        if !segment.crosses_rect(&self.region) {
            return Err(TreeError::SegmentOutsideRegion(segment));
        }
        let entry = Entry {
            id: self.len as u32,
            segment,
        };
        let mut splits = 0usize;
        Self::insert_rec(
            &mut self.root,
            self.region,
            0,
            self.max_depth,
            self.threshold,
            entry,
            &mut splits,
        );
        self.len += 1;
        // Each split replaces one leaf with an internal and 4 leaves.
        self.leaf_nodes += 3 * splits;
        Ok(())
    }

    /// Stores `entry` in every leaf under `node` its segment crosses,
    /// classifying it against a node's four quadrants with one
    /// [`Segment2::crosses_quadrants`] and splitting `block` once.
    #[allow(clippy::too_many_arguments)]
    fn insert_rec(
        node: &mut Node,
        block: Rect,
        depth: u32,
        max_depth: u32,
        threshold: usize,
        entry: Entry,
        splits: &mut usize,
    ) {
        match node {
            Node::Internal(children) => {
                let crossed = entry.segment.crosses_quadrants(&block);
                let quadrants = children.iter_mut().zip(block.quadrants()).zip(crossed);
                for ((child, child_block), crosses) in quadrants {
                    if crosses {
                        Self::insert_rec(
                            child,
                            child_block,
                            depth + 1,
                            max_depth,
                            threshold,
                            entry,
                            splits,
                        );
                    }
                }
            }
            Node::Leaf(entries) => {
                entries.push(entry);
                // Split-once rule: the threshold must be *exceeded* by the
                // insertion, and the split is not applied recursively.
                if entries.len() > threshold && depth < max_depth {
                    *node = Self::split_leaf_once(std::mem::take(entries), block);
                    *splits += 1;
                }
            }
        }
    }

    /// Splits a leaf exactly once: the internal node whose four leaves
    /// hold `entries`, each in the quadrants its segment crosses (one
    /// [`Segment2::crosses_quadrants`] per entry), in the leaf's order.
    /// No recursion: over-full children are allowed and will split on a
    /// later insertion.
    fn split_leaf_once(entries: Vec<Entry>, block: Rect) -> Node {
        let mut children: [Vec<Entry>; 4] = Default::default();
        for entry in entries {
            for (child, crosses) in children
                .iter_mut()
                .zip(entry.segment.crosses_quadrants(&block))
            {
                if crosses {
                    child.push(entry);
                }
            }
        }
        Node::Internal(Box::new(children.map(Node::Leaf)))
    }

    /// All distinct segments passing through `query`, in insertion order.
    pub fn segments_crossing(&self, query: &Rect) -> Vec<Segment2> {
        let mut hits: Vec<(u32, Segment2)> = Vec::new();
        Self::query_rec(&self.root, self.region, query, &mut hits);
        hits.sort_by_key(|(id, _)| *id);
        hits.dedup_by_key(|(id, _)| *id);
        hits.into_iter()
            .filter(|(_, s)| s.crosses_rect(query))
            .map(|(_, s)| s)
            .collect()
    }

    fn query_rec(node: &Node, block: Rect, query: &Rect, out: &mut Vec<(u32, Segment2)>) {
        if !block.overlaps(query) {
            return;
        }
        match node {
            Node::Leaf(entries) => {
                out.extend(entries.iter().map(|e| (e.id, e.segment)));
            }
            Node::Internal(children) => {
                for (child, child_block) in children.iter().zip(block.quadrants()) {
                    Self::query_rec(child, child_block, query, out);
                }
            }
        }
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

    /// Leaf node count — served from the incrementally maintained
    /// counter, no traversal.
    pub fn leaf_count(&self) -> usize {
        self.leaf_nodes
    }

    /// Verifies structural invariants; panics on violation.
    ///
    /// Every stored entry's segment crosses its leaf's block, and every
    /// inserted segment is present in every leaf it crosses.
    pub fn check_invariants(&self) {
        // Gather every leaf with its block and entries.
        fn walk<'a>(node: &'a Node, block: Rect, out: &mut Vec<(Rect, &'a [Entry])>) {
            match node {
                Node::Leaf(entries) => out.push((block, entries)),
                Node::Internal(children) => {
                    for (child, child_block) in children.iter().zip(block.quadrants()) {
                        walk(child, child_block, out);
                    }
                }
            }
        }
        let mut leaves: Vec<(Rect, &[Entry])> = Vec::new();
        walk(&self.root, self.region, &mut leaves);
        assert_eq!(
            leaves.len(),
            self.leaf_nodes,
            "incremental leaf count diverged from traversal"
        );

        // Each stored entry crosses its leaf's block.
        let mut by_id: std::collections::BTreeMap<u32, Segment2> =
            std::collections::BTreeMap::new();
        for (block, entries) in &leaves {
            for e in *entries {
                assert!(
                    e.segment.crosses_rect(block),
                    "segment {} stored in leaf {} it does not cross",
                    e.segment,
                    block
                );
                by_id.insert(e.id, e.segment);
            }
        }
        assert_eq!(by_id.len(), self.len, "distinct stored ids != len");

        // Coverage: every segment is present in *every* leaf it crosses.
        for (&id, segment) in &by_id {
            for (block, entries) in &leaves {
                let crosses = segment.crosses_rect(block);
                let present = entries.iter().any(|e| e.id == id);
                assert_eq!(
                    crosses, present,
                    "segment {segment} (id {id}) crosses={crosses} present={present} in leaf {block}"
                );
            }
        }
    }
}

impl OccupancyInstrumented for PmrQuadtree {
    fn capacity(&self) -> usize {
        self.threshold
    }

    fn leaf_records(&self) -> Vec<LeafRecord> {
        fn walk(node: &Node, depth: u32, out: &mut Vec<LeafRecord>) {
            match node {
                Node::Leaf(entries) => out.push(LeafRecord {
                    depth,
                    occupancy: entries.len(),
                }),
                Node::Internal(children) => {
                    for child in children.iter() {
                        walk(child, depth + 1, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_geom::Point2;
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;
    use popan_workload::lines::{SegmentSource, UniformEndpoints};

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment2 {
        Segment2::new(Point2::new(ax, ay), Point2::new(bx, by))
    }

    #[test]
    fn empty_tree() {
        let t = PmrQuadtree::new(Rect::unit(), 2).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1);
        assert!(PmrQuadtree::new(Rect::unit(), 0).is_err());
    }

    #[test]
    fn rejects_segment_outside_region() {
        let mut t = PmrQuadtree::new(Rect::unit(), 2).unwrap();
        let outside = seg(2.0, 2.0, 3.0, 3.0);
        let err = t.insert(outside).unwrap_err();
        assert_eq!(err, TreeError::SegmentOutsideRegion(outside));
        assert_eq!(
            err.to_string(),
            "invalid parameter: segment (2, 2)→(3, 3) does not pass through the tree region"
        );
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn below_threshold_no_split() {
        let mut t = PmrQuadtree::new(Rect::unit(), 2).unwrap();
        t.insert(seg(0.1, 0.1, 0.9, 0.1)).unwrap();
        t.insert(seg(0.1, 0.2, 0.9, 0.2)).unwrap();
        assert_eq!(t.node_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn exceeding_threshold_splits_once() {
        let mut t = PmrQuadtree::new(Rect::unit(), 2).unwrap();
        // Three long horizontal segments through the lower half.
        t.insert(seg(0.1, 0.1, 0.9, 0.1)).unwrap();
        t.insert(seg(0.1, 0.2, 0.9, 0.2)).unwrap();
        t.insert(seg(0.1, 0.3, 0.9, 0.3)).unwrap();
        // Root split exactly once: 5 nodes, children may exceed threshold.
        assert_eq!(t.node_count(), 5);
        // Each lower child holds all three segments (> threshold, allowed).
        let profile = t.occupancy_profile();
        assert_eq!(profile.count(3), 2, "SW and SE each hold 3 segments");
        assert_eq!(profile.count(0), 2, "NW and NE empty");
        t.check_invariants();
    }

    #[test]
    fn later_insertion_splits_overfull_child() {
        let mut t = PmrQuadtree::new(Rect::unit(), 2).unwrap();
        for y in [0.1, 0.2, 0.3] {
            t.insert(seg(0.1, y, 0.9, y)).unwrap();
        }
        let before = t.node_count();
        // A fourth segment through the SW child triggers its split.
        t.insert(seg(0.05, 0.15, 0.45, 0.15)).unwrap();
        assert!(t.node_count() > before);
        t.check_invariants();
    }

    #[test]
    fn segments_stored_in_all_crossed_leaves() {
        let mut t = PmrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(seg(0.1, 0.6, 0.4, 0.9)).unwrap(); // NW only
        t.insert(seg(0.05, 0.05, 0.95, 0.06)).unwrap(); // crosses SW+SE, splits root
        t.check_invariants();
        let hits = t.segments_crossing(&Rect::from_bounds(0.5, 0.0, 1.0, 0.5));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0], seg(0.05, 0.05, 0.95, 0.06));
    }

    #[test]
    fn query_deduplicates_multi_leaf_segments() {
        let mut t = PmrQuadtree::new(Rect::unit(), 1).unwrap();
        let long = seg(0.05, 0.5001, 0.95, 0.5001);
        t.insert(long).unwrap();
        t.insert(seg(0.1, 0.1, 0.2, 0.2)).unwrap();
        // The long segment lives in NW and NE (after split); a query
        // covering the whole region must return it once.
        let hits = t.segments_crossing(&Rect::unit());
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn many_segments_through_one_point_terminate() {
        // The PR rule would recurse forever here; the PMR split-once rule
        // must terminate with bounded depth growth.
        let mut t = PmrQuadtree::new(Rect::unit(), 2).unwrap();
        let center = Point2::new(0.5001, 0.5001);
        for i in 0..12 {
            let angle = i as f64 * std::f64::consts::PI / 12.0;
            let (s, c) = angle.sin_cos();
            let tip = Point2::new(center.x + 0.4 * c, center.y + 0.4 * s);
            t.insert(Segment2::new(center, tip)).unwrap();
        }
        assert_eq!(t.len(), 12);
        t.check_invariants();
        let max_depth = t.leaf_records().iter().map(|r| r.depth).max().unwrap();
        assert!(max_depth <= 12, "depth {max_depth} should stay bounded");
    }

    #[test]
    fn random_build_invariants_and_occupancy_decay() {
        let src = UniformEndpoints::unit();
        let mut rng = StdRng::seed_from_u64(99);
        let segs = src.sample_n(&mut rng, 150);
        let t = PmrQuadtree::build(Rect::unit(), 4, segs).unwrap();
        t.check_invariants();
        let profile = t.occupancy_profile();
        // Occupancy above threshold is possible but must be rare:
        // P(occupancy = threshold + k) decays with k.
        let above: u64 = (6..=profile.max_occupancy())
            .map(|i| profile.count(i))
            .sum();
        let total = profile.total_leaves();
        assert!(
            (above as f64) < 0.25 * total as f64,
            "{above} of {total} leaves far above threshold"
        );
        // Queries agree with a linear scan.
        let query = Rect::from_bounds(0.3, 0.3, 0.7, 0.7);
        let hits = t.segments_crossing(&query);
        for h in &hits {
            assert!(h.crosses_rect(&query));
        }
    }

    #[test]
    fn query_matches_linear_scan() {
        let src = UniformEndpoints::unit();
        let mut rng = StdRng::seed_from_u64(101);
        let segs = src.sample_n(&mut rng, 120);
        let t = PmrQuadtree::build(Rect::unit(), 3, segs.iter().copied()).unwrap();
        let query = Rect::from_bounds(0.25, 0.1, 0.6, 0.55);
        let got = t.segments_crossing(&query).len();
        let expect = segs.iter().filter(|s| s.crosses_rect(&query)).count();
        assert_eq!(got, expect);
    }
}
