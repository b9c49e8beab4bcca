//! Arena-vs-boxed equivalence suite.
//!
//! The arena-backed [`PrQuadtree`] must be *observationally identical* to
//! the frozen boxed implementation ([`reference::BoxedPrQuadtree`]) under
//! arbitrary insert/remove interleavings: same leaf records in the same
//! traversal order, same node counts, same stored points — bit for bit.
//! On top of that, the incrementally maintained census must equal a
//! census rebuilt from a full traversal after *every* operation, and
//! free-list reuse (remove-then-reinsert) must leave the traversal order
//! unchanged. The bintree's bulk build is held to its own reference
//! semantics (sequential insertion), and the bintree's and the octree's
//! remove-with-merge to a fresh build of the surviving points.

use popan_geom::{BoxN, Point2, PointN, Rect};
use popan_proptest::prelude::*;
use popan_spatial::reference::BoxedPrQuadtree;
use popan_spatial::{
    Bintree, DepthOccupancyTable, OccupancyCensus, OccupancyInstrumented, OccupancyProfile,
    PrQuadtree, PrTreeNd,
};

/// Asserts every observable of the arena tree against the boxed oracle.
fn assert_matches_oracle(arena: &PrQuadtree, boxed: &BoxedPrQuadtree) {
    assert_eq!(arena.len(), boxed.len());
    assert_eq!(arena.node_count(), boxed.node_count());
    assert_eq!(arena.leaf_count(), boxed.leaf_count());

    // Leaf records in traversal (pre-order, NW..SE) order, including the
    // exact f64 block bounds — this is the bit-identity check that keeps
    // every downstream statistic byte-stable.
    let arena_leaves = arena.leaf_records();
    let boxed_leaves = boxed.leaf_records();
    assert_eq!(arena_leaves, boxed_leaves, "leaf traversal diverged");

    // Stored points in traversal + within-leaf order.
    let mut arena_points = Vec::new();
    arena.for_each_leaf(|_, _, pts| arena_points.extend_from_slice(pts));
    let mut boxed_points = Vec::new();
    boxed.for_each_leaf(|_, _, pts| boxed_points.extend_from_slice(pts));
    assert_eq!(arena_points, boxed_points, "point order diverged");
}

/// Asserts the incremental census equals one rebuilt from traversal.
fn assert_census_fresh(arena: &PrQuadtree) {
    let records = arena.leaf_records();
    let rebuilt = OccupancyCensus::from_leaves(&records);
    assert_eq!(
        arena.census(),
        &rebuilt,
        "incremental census diverged from traversal census"
    );
    assert_eq!(
        arena.occupancy_profile(),
        &OccupancyProfile::from_leaves(&records)
    );
    assert_eq!(
        arena.depth_table(),
        &DepthOccupancyTable::from_leaves(&records)
    );
}

fn arb_coords() -> impl Strategy<Value = Vec<(f64, f64)>> {
    popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..120)
}

/// Point multisets slanted toward the bulk builds' hard cases: exact
/// dyadic-grid collisions (coincident piles on split boundaries) and
/// sub-quantum clusters (distinct points sharing one full-resolution
/// Morton cell, which force max-depth spill leaves at capacity 1).
/// Lengths 0 and 1 cover the empty/singleton edges.
fn arb_messy_points() -> impl Strategy<Value = Vec<Point2>> {
    popan_proptest::collection::vec((0u8..10, 0.0f64..1.0, 0.0f64..1.0, 0u8..8, 0u8..8), 0..140)
        .prop_map(|elems| {
            elems
                .into_iter()
                .map(|(kind, x, y, i, j)| match kind {
                    0..=4 => Point2::new(x, y),
                    5..=7 => Point2::new(f64::from(i) / 8.0, f64::from(j) / 8.0),
                    _ => Point2::new(0.5 + f64::from(i) * 1e-13, 0.25 + f64::from(j) * 1e-13),
                })
                .collect()
        })
}

/// An insert/remove script over points in the unit cube: each step
/// inserts its point or removes a live one. Kinds 0–3 snap the point to
/// a 4-cell grid per axis and kind 4 puts it on one fixed spot, so
/// coincident piles, on split lines and off them, are common.
fn arb_script() -> impl Strategy<Value = Vec<(bool, [f64; 3])>> {
    let step = (
        popan_proptest::bool::ANY,
        0u8..8,
        popan_proptest::array::uniform3(0.0f64..1.0),
    );
    popan_proptest::collection::vec(step, 0..160).prop_map(|steps| {
        steps
            .into_iter()
            .map(|(insert, kind, c)| match kind {
                0..=3 => (insert, c.map(|v| (v * 4.0).floor() / 4.0)),
                4 => (insert, [0.3; 3]),
                _ => (insert, c),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn removal_on_every_scheme_matches_a_fresh_build(
        script in arb_script(),
        capacity in 1usize..5,
    ) {
        // The bintree stores each point's first two coordinates, the
        // octree all three; a remove takes a live point by index.
        let p2 = |c: &[f64; 3]| Point2::new(c[0], c[1]);
        let mut bin = Bintree::new(Rect::unit(), capacity).unwrap();
        let mut oct = PrTreeNd::<3>::new(BoxN::unit(), capacity).unwrap();
        let mut live: Vec<[f64; 3]> = Vec::new();
        for (i, &(insert, c)) in script.iter().enumerate() {
            if insert || live.is_empty() {
                bin.insert(p2(&c)).unwrap();
                oct.insert(PointN::new(c)).unwrap();
                live.push(c);
            } else {
                let c = live.swap_remove((i * 7919) % live.len());
                prop_assert!(bin.remove(&p2(&c)));
                prop_assert!(oct.remove(&PointN::new(c)));
            }
        }
        bin.check_invariants();
        oct.check_invariants();
        let fresh = Bintree::build(Rect::unit(), capacity, live.iter().map(p2)).unwrap();
        prop_assert_eq!(bin.leaf_records(), fresh.leaf_records());
        let live_3d = live.iter().map(|&c| PointN::new(c));
        let fresh = PrTreeNd::<3>::build(BoxN::unit(), capacity, live_3d).unwrap();
        prop_assert_eq!(oct.leaf_records(), fresh.leaf_records());
    }

    #[test]
    fn builds_are_bit_identical(
        coords in arb_coords(),
        messy in arb_messy_points(),
        capacity in 1usize..6,
    ) {
        let uniform: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        for points in [uniform, messy] {
            let arena = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
            let boxed =
                BoxedPrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
            assert_matches_oracle(&arena, &boxed);
            assert_census_fresh(&arena);
            arena.check_invariants();
        }
    }

    #[test]
    fn bintree_build_matches_sequential_insertion(
        points in arb_messy_points(),
        capacity in 1usize..6,
    ) {
        // Insert-only construction is order independent, so the bulk
        // build must land on exactly the tree sequential inserts grow:
        // same leaf blocks and depths, same within-leaf point order,
        // same census.
        let bulk = Bintree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
        let mut seq = Bintree::new(Rect::unit(), capacity).unwrap();
        for &p in &points {
            seq.insert(p).unwrap();
        }
        prop_assert_eq!(bulk.len(), seq.len());
        prop_assert_eq!(bulk.node_count(), seq.node_count());
        prop_assert_eq!(bulk.leaf_count(), seq.leaf_count());
        let mut a = Vec::new();
        bulk.for_each_leaf(|r, d, pts| a.push((r, d, pts.to_vec())));
        let mut b = Vec::new();
        seq.for_each_leaf(|r, d, pts| b.push((r, d, pts.to_vec())));
        prop_assert_eq!(a, b, "bintree leaf traversal diverged");
        prop_assert_eq!(bulk.occupancy_profile(), seq.occupancy_profile());
        prop_assert_eq!(bulk.depth_table(), seq.depth_table());
        bulk.check_invariants();
    }

    #[test]
    fn interleaved_ops_stay_bit_identical(
        seed in arb_coords(),
        ops in popan_proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, popan_proptest::bool::ANY),
            0..90,
        ),
        capacity in 1usize..5,
    ) {
        let mut arena = PrQuadtree::new(Rect::unit(), capacity).unwrap();
        let mut boxed = BoxedPrQuadtree::new(Rect::unit(), capacity).unwrap();
        let mut live: Vec<Point2> = Vec::new();

        for &(x, y) in &seed {
            let p = Point2::new(x, y);
            arena.insert(p).unwrap();
            boxed.insert(p).unwrap();
            live.push(p);
        }
        assert_matches_oracle(&arena, &boxed);

        for (i, &(x, y, is_insert)) in ops.iter().enumerate() {
            if is_insert || live.is_empty() {
                let p = Point2::new(x, y);
                arena.insert(p).unwrap();
                boxed.insert(p).unwrap();
                live.push(p);
            } else {
                // Deterministic victim choice scattered across the live set.
                let idx = (i * 7919) % live.len();
                let p = live.remove(idx);
                prop_assert!(arena.remove(&p));
                prop_assert!(boxed.remove(&p));
            }
            // The census must be exact after *every* operation, not just
            // at quiescence.
            assert_census_fresh(&arena);
        }
        assert_matches_oracle(&arena, &boxed);
        arena.check_invariants();
    }

    #[test]
    fn free_list_reuse_is_invisible_to_traversal(
        coords in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..60),
        capacity in 1usize..4,
    ) {
        let points: Vec<Point2> = coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let mut arena = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();

        // Tear down (collapses populate the free lists), then rebuild the
        // same tree: recycled blocks and leaf buffers must be
        // unobservable — the traversal matches a never-churned build.
        for p in &points {
            prop_assert!(arena.remove(p));
        }
        prop_assert!(arena.is_empty());
        assert_census_fresh(&arena);
        for p in &points {
            arena.insert(*p).unwrap();
        }

        let fresh = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
        assert_eq!(arena.leaf_records(), fresh.leaf_records());
        assert_eq!(arena.node_count(), fresh.node_count());
        let boxed = BoxedPrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
        assert_matches_oracle(&arena, &boxed);
        assert_census_fresh(&arena);
        arena.check_invariants();
    }
}
