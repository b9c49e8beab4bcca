//! The PR quadtree: [`PrTree`] over quadrant decomposition, and the
//! error type every tree in this crate reports.
//!
//! Regular decomposition of a square region into quadrants with the
//! paper's splitting rule: *"split until no block contains more than m
//! points"* (§II). `m = 1` gives the simple PR quadtree of Figure 1;
//! larger `m` gives the generalized (bucket) PR quadtree whose occupancy
//! populations the paper analyzes. The tree's semantics and
//! representation are documented on [`crate::pr_tree`]; it alone also
//! takes an explicit depth limit ([`PrQuadtree::with_max_depth`]).

use crate::arena::QuadDecomp;
use crate::pr_tree::PrTree;
use popan_geom::{Point2, Rect, Segment2};

/// Default depth limit: effectively unbounded for the workloads here, but
/// protects against coincident-point pathologies.
pub const DEFAULT_MAX_DEPTH: u32 = 32;

/// A generalized PR quadtree with node capacity `m`.
pub type PrQuadtree = PrTree<QuadDecomp>;

/// Error type for tree operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// The point lies outside the tree's region: the first axis it
    /// leaves the region on (x = 0, y = 1, …) and its coordinate there.
    OutOfRegion {
        /// The first axis on which the point lies outside the region.
        axis: usize,
        /// The point's coordinate on that axis.
        coord: f64,
    },
    /// The point has a non-finite coordinate.
    NonFinitePoint,
    /// A PMR quadtree's segment does not pass through the tree's region.
    SegmentOutsideRegion(Segment2),
    /// A point quadtree already holds the point (it stores distinct
    /// points).
    DuplicatePoint(Point2),
    /// Invalid construction parameter.
    InvalidParameter(String),
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::OutOfRegion { axis, coord } => {
                write!(
                    f,
                    "coordinate {coord} on axis {axis} lies outside the tree region"
                )
            }
            TreeError::NonFinitePoint => write!(f, "point has a non-finite coordinate"),
            TreeError::SegmentOutsideRegion(segment) => write!(
                f,
                "invalid parameter: segment {segment} does not pass through the tree region"
            ),
            TreeError::DuplicatePoint(p) => write!(f, "invalid parameter: duplicate point {p}"),
            TreeError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// `p`, when it is finite and inside `region`: the checks, in the
/// order, that a planar tree's `insert` and bulk entries make.
#[inline]
pub(crate) fn check_point(region: &Rect, p: Point2) -> Result<Point2, TreeError> {
    if !p.is_finite() {
        return Err(TreeError::NonFinitePoint);
    }
    if !region.contains(&p) {
        let (axis, coord) = if region.x().contains(p.x) {
            (1, p.y)
        } else {
            (0, p.x)
        };
        return Err(TreeError::OutOfRegion { axis, coord });
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_stats::{
        DepthOccupancyTable, LeafRecord, OccupancyInstrumented, OccupancyProfile,
    };
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;
    use popan_workload::points::{PointSource, UniformRect};

    fn pt(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn empty_tree() {
        let t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.nearest(&pt(0.5, 0.5)), None);
        t.check_invariants();
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(matches!(
            PrQuadtree::new(Rect::unit(), 0),
            Err(TreeError::InvalidParameter(_))
        ));
    }

    #[test]
    fn rejects_out_of_region_and_non_finite() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        // The error names the first axis outside and its coordinate.
        let out = |axis, coord| Err(TreeError::OutOfRegion { axis, coord });
        assert_eq!(t.insert(pt(1.5, 0.5)), out(0, 1.5));
        assert_eq!(t.insert(pt(-0.5, 1.0)), out(0, -0.5));
        assert_eq!(t.insert(pt(0.5, 1.0)), out(1, 1.0));
        assert!(matches!(
            t.insert(pt(f64::NAN, 0.5)),
            Err(TreeError::NonFinitePoint)
        ));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn remove_rejects_non_finite_points() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.5, 0.5)).unwrap();
        assert!(!t.remove(&pt(f64::NAN, 0.5)));
        assert!(!t.remove(&pt(0.5, f64::NAN)));
        assert!(!t.remove(&pt(f64::INFINITY, 0.5)));
        assert!(!t.remove(&pt(0.5, f64::NEG_INFINITY)));
        assert_eq!(t.len(), 1, "non-finite removals must be no-ops");
        t.check_invariants();
    }

    #[test]
    fn single_insert_no_split() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.3, 0.3)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.node_count(), 1);
        assert!(t.contains(&pt(0.3, 0.3)));
        assert!(!t.contains(&pt(0.3, 0.31)));
        t.check_invariants();
    }

    #[test]
    fn figure1_four_points() {
        // Four points in separate quadrants at m = 1: one split, 5 nodes.
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        for p in [pt(0.1, 0.1), pt(0.9, 0.1), pt(0.1, 0.9), pt(0.9, 0.9)] {
            t.insert(p).unwrap();
        }
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.leaf_count(), 4);
        let profile = t.occupancy_profile();
        assert_eq!(profile.count(1), 4);
        assert_eq!(profile.count(0), 0);
        t.check_invariants();
    }

    #[test]
    fn close_points_force_recursive_splitting() {
        // Two points in the same deep quadrant chain: repeated splits.
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.01, 0.01)).unwrap();
        t.insert(pt(0.02, 0.02)).unwrap();
        // Both in SW repeatedly; they separate at depth 6
        // (block size 1/64: 0.01 -> cell 0, 0.02 -> cell 1 at scale 64).
        let records = t.leaf_records();
        let max_depth = records.iter().map(|r| r.depth).max().unwrap();
        assert!(max_depth >= 5, "expected deep split, got {max_depth}");
        assert!(t.contains(&pt(0.01, 0.01)));
        assert!(t.contains(&pt(0.02, 0.02)));
        t.check_invariants();
    }

    #[test]
    fn capacity_m_defers_split() {
        let mut t = PrQuadtree::new(Rect::unit(), 4).unwrap();
        for i in 0..4 {
            t.insert(pt(0.1 + 0.2 * i as f64, 0.5)).unwrap();
        }
        assert_eq!(t.node_count(), 1, "4 points fit in an m=4 root");
        t.insert(pt(0.9, 0.9)).unwrap();
        assert!(t.node_count() > 1, "5th point splits the m=4 root");
        t.check_invariants();
    }

    #[test]
    fn duplicates_are_stored_without_infinite_split() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        for _ in 0..5 {
            t.insert(pt(0.25, 0.25)).unwrap();
        }
        assert_eq!(t.len(), 5);
        // All coincident: no split should have happened.
        assert_eq!(t.node_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn near_duplicates_respect_max_depth() {
        let mut t = PrQuadtree::with_max_depth(Rect::unit(), 1, 4).unwrap();
        t.insert(pt(0.100000, 0.1)).unwrap();
        t.insert(pt(0.100001, 0.1)).unwrap(); // separate only at depth ~20
        let records = t.leaf_records();
        assert!(records.iter().all(|r| r.depth <= 4));
        // The max-depth leaf holds both.
        assert!(records.iter().any(|r| r.occupancy == 2));
        t.check_invariants();
    }

    #[test]
    fn mixed_duplicate_and_distinct_points_split_correctly() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.25, 0.25)).unwrap();
        t.insert(pt(0.25, 0.25)).unwrap(); // coincident pair, no split
        t.insert(pt(0.75, 0.75)).unwrap(); // distinct: now splits
        assert_eq!(t.len(), 3);
        t.check_invariants();
        // The coincident pair stays together in one leaf.
        let profile = t.occupancy_profile();
        assert_eq!(profile.count(2), 1);
        assert_eq!(profile.count(1), 1);
    }

    #[test]
    fn contains_finds_all_inserted_points() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(11);
        let points = src.sample_n(&mut rng, 500);
        let t = PrQuadtree::build(Rect::unit(), 3, points.iter().copied()).unwrap();
        assert_eq!(t.len(), 500);
        for p in &points {
            assert!(t.contains(p));
        }
        assert!(!t.contains(&pt(2.0, 2.0)));
        t.check_invariants();
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(13);
        let points = src.sample_n(&mut rng, 400);
        let t = PrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
        let query = Rect::from_bounds(0.2, 0.3, 0.6, 0.9);
        let mut got = t.range_query(&query);
        let mut expect: Vec<Point2> = points
            .iter()
            .filter(|p| query.contains(p))
            .copied()
            .collect();
        let key = |p: &Point2| (p.x, p.y);
        got.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
        expect.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
        assert_eq!(got, expect);
    }

    #[test]
    fn range_query_whole_region_returns_everything() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(17);
        let points = src.sample_n(&mut rng, 100);
        let t = PrQuadtree::build(Rect::unit(), 1, points.iter().copied()).unwrap();
        assert_eq!(t.range_query(&Rect::unit()).len(), 100);
        assert_eq!(t.points().len(), 100);
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(19);
        let points = src.sample_n(&mut rng, 300);
        let t = PrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
        for target in src.sample_n(&mut rng, 50) {
            let got = t.nearest(&target).unwrap();
            let best = points
                .iter()
                .min_by(|a, b| {
                    a.distance_squared(&target)
                        .partial_cmp(&b.distance_squared(&target))
                        .unwrap()
                })
                .unwrap();
            assert_eq!(
                got.distance_squared(&target),
                best.distance_squared(&target),
                "target {target}"
            );
        }
    }

    #[test]
    fn nearest_works_for_targets_outside_region() {
        let t = PrQuadtree::build(Rect::unit(), 1, [pt(0.1, 0.1), pt(0.9, 0.9)]).unwrap();
        assert_eq!(t.nearest(&pt(2.0, 2.0)).unwrap(), pt(0.9, 0.9));
        assert_eq!(t.nearest(&pt(-1.0, -1.0)).unwrap(), pt(0.1, 0.1));
    }

    #[test]
    fn node_count_identity() {
        // Every split adds exactly 4 nodes: node_count = 1 + 4·splits.
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(23);
        let t = PrQuadtree::build(Rect::unit(), 1, src.sample_n(&mut rng, 200)).unwrap();
        let n = t.node_count();
        assert_eq!((n - 1) % 4, 0, "node count {n} not of form 1 + 4k");
        let leaves = t.leaf_count();
        // For a 4-ary tree: leaves = internal·3 + 1.
        let internal = n - leaves;
        assert_eq!(leaves, internal * 3 + 1);
    }

    #[test]
    fn occupancy_profile_consistency() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(29);
        let t = PrQuadtree::build(Rect::unit(), 4, src.sample_n(&mut rng, 1000)).unwrap();
        let profile = t.occupancy_profile();
        assert_eq!(profile.total_items(), 1000);
        assert_eq!(profile.total_leaves() as usize, t.leaf_count());
        assert!(profile.max_occupancy() <= 4);
        let props = profile.proportions(4);
        assert!((props.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incremental_profile_equals_traversal_profile() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(30);
        let t = PrQuadtree::build(Rect::unit(), 3, src.sample_n(&mut rng, 700)).unwrap();
        let incremental = t.occupancy_profile();
        let traversal = OccupancyProfile::from_leaves(&t.leaf_records());
        assert_eq!(incremental, &traversal);
        let table = DepthOccupancyTable::from_leaves(&t.leaf_records());
        assert_eq!(t.depth_table(), &table);
    }

    #[test]
    fn m1_distribution_is_roughly_half_empty_half_full() {
        // The paper's headline experimental result: ~53% empty, ~47% full.
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(31);
        let t = PrQuadtree::build(Rect::unit(), 1, src.sample_n(&mut rng, 1000)).unwrap();
        let props = t.occupancy_profile().proportions(1);
        assert!(
            (props[0] - 0.53).abs() < 0.06,
            "empty fraction {} far from paper's 0.53",
            props[0]
        );
        assert!(
            (props[1] - 0.47).abs() < 0.06,
            "full fraction {} far from paper's 0.47",
            props[1]
        );
    }

    #[test]
    fn insertion_order_invariance_of_point_set() {
        // The PR quadtree's shape is determined by the point set, not the
        // insertion order (unlike the point quadtree) — paper §II.
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(37);
        let points = src.sample_n(&mut rng, 200);
        let forward = PrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
        let mut reversed = points.clone();
        reversed.reverse();
        let backward = PrQuadtree::build(Rect::unit(), 2, reversed).unwrap();
        assert_eq!(forward.node_count(), backward.node_count());
        let mut fr = forward.leaf_records();
        let mut br = backward.leaf_records();
        let key = |r: &LeafRecord| (r.depth, r.occupancy);
        fr.sort_by_key(key);
        br.sort_by_key(key);
        assert_eq!(fr, br);
    }

    #[test]
    fn remove_missing_and_out_of_region() {
        let mut t = PrQuadtree::build(Rect::unit(), 1, [pt(0.2, 0.2)]).unwrap();
        assert!(!t.remove(&pt(0.3, 0.3)));
        assert!(!t.remove(&pt(5.0, 5.0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_collapses_back_to_single_leaf() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.1, 0.1)).unwrap();
        t.insert(pt(0.9, 0.9)).unwrap();
        assert_eq!(t.node_count(), 5);
        assert!(t.remove(&pt(0.9, 0.9)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.node_count(), 1, "merge must collapse the split");
        assert!(t.contains(&pt(0.1, 0.1)));
        t.check_invariants();
    }

    #[test]
    fn remove_cascades_collapse_through_deep_splits() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.01, 0.01)).unwrap();
        t.insert(pt(0.02, 0.02)).unwrap(); // deep recursive split
        assert!(t.node_count() > 5);
        assert!(t.remove(&pt(0.02, 0.02)));
        assert_eq!(t.node_count(), 1, "cascaded collapse to the root");
        t.check_invariants();
    }

    #[test]
    fn remove_one_of_coincident_duplicates() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.4, 0.4)).unwrap();
        t.insert(pt(0.4, 0.4)).unwrap();
        assert!(t.remove(&pt(0.4, 0.4)));
        assert_eq!(t.len(), 1);
        assert!(t.contains(&pt(0.4, 0.4)));
        assert!(t.remove(&pt(0.4, 0.4)));
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn deletion_restores_fresh_build_shape() {
        // Build 300, delete 150, compare against building the survivors
        // from scratch: identical structure (deletion order-independence).
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(59);
        let points = src.sample_n(&mut rng, 300);
        let mut tree = PrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
        for p in &points[..150] {
            assert!(tree.remove(p), "{p}");
        }
        tree.check_invariants();
        let fresh = PrQuadtree::build(Rect::unit(), 2, points[150..].iter().copied()).unwrap();
        assert_eq!(tree.node_count(), fresh.node_count());
        let mut a = tree.leaf_records();
        let mut b = fresh.leaf_records();
        let key = |r: &LeafRecord| (r.depth, r.occupancy);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn coincident_pile_collapses_after_sibling_empties() {
        let mut t = PrQuadtree::new(Rect::unit(), 1).unwrap();
        t.insert(pt(0.2, 0.2)).unwrap();
        t.insert(pt(0.2, 0.2)).unwrap(); // coincident pair, single leaf
        t.insert(pt(0.9, 0.9)).unwrap(); // forces split
        assert!(t.node_count() > 1);
        assert!(t.remove(&pt(0.9, 0.9)));
        // The surviving pile exceeds capacity but is coincident: a fresh
        // build would keep it at the root, so the collapse must too.
        assert_eq!(t.node_count(), 1);
        t.check_invariants();
    }

    #[test]
    fn count_in_range_matches_range_query() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(61);
        let t = PrQuadtree::build(Rect::unit(), 3, src.sample_n(&mut rng, 800)).unwrap();
        for rect in [
            Rect::from_bounds(0.1, 0.1, 0.4, 0.9),
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.45, 0.45, 0.55, 0.55),
        ] {
            assert_eq!(t.count_in_range(&rect), t.range_query(&rect).len());
        }
    }

    #[test]
    fn k_nearest_matches_sorted_scan() {
        let src = UniformRect::unit();
        let mut rng = StdRng::seed_from_u64(67);
        let points = src.sample_n(&mut rng, 400);
        let t = PrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
        let target = pt(0.3, 0.7);
        for k in [0usize, 1, 5, 50, 400, 500] {
            let got = t.k_nearest(&target, k);
            let mut expect = points.clone();
            expect.sort_by(|a, b| {
                a.distance_squared(&target)
                    .partial_cmp(&b.distance_squared(&target))
                    .unwrap()
            });
            expect.truncate(k);
            assert_eq!(got.len(), expect.len(), "k={k}");
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(
                    g.distance_squared(&target),
                    e.distance_squared(&target),
                    "k={k}"
                );
            }
            // Results are sorted nearest-first.
            for w in got.windows(2) {
                assert!(w[0].distance_squared(&target) <= w[1].distance_squared(&target));
            }
        }
    }

    #[test]
    fn build_over_non_unit_region() {
        let region = Rect::from_bounds(-10.0, 5.0, 30.0, 25.0);
        let src = UniformRect::new(region);
        let mut rng = StdRng::seed_from_u64(41);
        let points = src.sample_n(&mut rng, 300);
        let t = PrQuadtree::build(region, 3, points.iter().copied()).unwrap();
        t.check_invariants();
        for p in &points {
            assert!(t.contains(p));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    fn arb_points() -> impl Strategy<Value = Vec<Point2>> {
        popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..150)
            .prop_map(|v| v.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn invariants_hold_for_random_builds(
            points in arb_points(),
            capacity in 1usize..6,
        ) {
            let t = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
            t.check_invariants();
            prop_assert_eq!(t.len(), points.len());
            for p in &points {
                prop_assert!(t.contains(p));
            }
        }

        #[test]
        fn range_query_agrees_with_scan(
            points in arb_points(),
            qx in 0.0f64..0.8,
            qy in 0.0f64..0.8,
            qw in 0.05f64..0.2,
        ) {
            let t = PrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
            let query = Rect::from_bounds(qx, qy, qx + qw, qy + qw);
            let got = t.range_query(&query).len();
            let expect = points.iter().filter(|p| query.contains(p)).count();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn mixed_insert_remove_matches_multiset_model(
            seed_points in arb_points(),
            ops in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, popan_proptest::bool::ANY), 0..80),
            capacity in 1usize..4,
        ) {
            let mut tree = PrQuadtree::build(Rect::unit(), capacity, seed_points.iter().copied()).unwrap();
            let mut model: Vec<Point2> = seed_points.clone();
            for (x, y, is_insert) in ops {
                if is_insert {
                    let p = Point2::new(x, y);
                    tree.insert(p).unwrap();
                    model.push(p);
                } else if let Some(p) = model.first().copied() {
                    // Remove an existing point (deterministic choice).
                    prop_assert!(tree.remove(&p));
                    model.remove(0);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
            tree.check_invariants();
            for p in &model {
                prop_assert!(tree.contains(p));
            }
            // After deletions, the structure equals a fresh build of the
            // survivors.
            let fresh = PrQuadtree::build(Rect::unit(), capacity, model.iter().copied()).unwrap();
            prop_assert_eq!(tree.node_count(), fresh.node_count());
        }

        #[test]
        fn leaf_occupancies_account_for_all_points(
            points in arb_points(),
            capacity in 1usize..5,
        ) {
            let t = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
            let profile = t.occupancy_profile();
            prop_assert_eq!(profile.total_items() as usize, points.len());
        }
    }
}
