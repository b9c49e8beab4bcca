//! Differential suite: every `Queryable` backend is bit-identical to
//! the frozen boxed oracle.
//!
//! The oracle ([`BoxedPrQuadtree`] behind full-scan reference answers)
//! is deliberately naive — no Morton decomposition, no pruning, no
//! shared code with the clever paths — so agreement means the clever
//! paths are right, not that two copies of the same bug cancel out.
//! "Agreement" is literal: every returned coordinate must match the
//! oracle's **bit for bit** (compared through `f64::to_bits`), for
//! arbitrary point multisets (duplicates included) and query mixes,
//! k-NN tie piles on coincident points among them.

use popan_exthash::excell::ExcellGrid;
use popan_exthash::gridfile::GridFile;
use popan_geom::{Point2, Rect};
use popan_proptest::prelude::*;
use popan_query::{Queryable, Snapshot};
use popan_spatial::reference::BoxedPrQuadtree;
use popan_spatial::{Bintree, LinearQuadtree, PointQuadtree, PrQuadtree, PrTreeNd};

/// Builds every backend over the same point multiset.
///
/// The point quadtree is absent: it stores *distinct* keys by design,
/// so it gets its own deduplicated differential test below.
fn backends(points: &[Point2], capacity: usize) -> Vec<(&'static str, Box<dyn Queryable>)> {
    let tree = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
    let linear = LinearQuadtree::from_tree(&tree).unwrap();
    let snapshot = Snapshot::freeze(0, &tree).unwrap();
    let bintree = Bintree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
    let nd = PrTreeNd::<2>::build(
        popan_geom::BoxN::unit(),
        capacity,
        points.iter().map(|p| popan_geom::PointN::new([p.x, p.y])),
    )
    .unwrap();
    let mut excell = ExcellGrid::new(Rect::unit(), capacity.max(2)).unwrap();
    let mut gridfile = GridFile::new(Rect::unit(), capacity.max(2)).unwrap();
    for p in points {
        excell.insert(*p).unwrap();
        gridfile.insert(*p).unwrap();
    }
    vec![
        ("pr_quadtree", Box::new(tree)),
        ("linear_quadtree", Box::new(linear)),
        ("snapshot", Box::new(snapshot)),
        ("bintree", Box::new(bintree)),
        ("pr_tree_nd2", Box::new(nd)),
        ("excell", Box::new(excell)),
        ("gridfile", Box::new(gridfile)),
    ]
}

fn assert_bits_eq(name: &str, what: &str, got: &[Point2], want: &[Point2]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{name}: {what} returned {} points, oracle {}",
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.x.to_bits() == w.x.to_bits() && g.y.to_bits() == w.y.to_bits(),
            "{name}: {what} result {i} is {g}, oracle has {w}"
        );
    }
}

/// Runs the full query mix over every backend and diffs it against the
/// oracle bit for bit.
fn differential(points: &[Point2], capacity: usize, queries: &[Rect], knn: &[(Point2, usize)]) {
    let oracle = BoxedPrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
    for (name, backend) in backends(points, capacity) {
        assert_eq!(backend.len(), oracle.len(), "{name}: len");
        assert_eq!(backend.is_empty(), oracle.is_empty(), "{name}: is_empty");
        for q in queries {
            let want = Queryable::range(&oracle, q);
            assert_bits_eq(name, &format!("range({q})"), &backend.range(q), &want);
            assert_eq!(backend.count(q), want.len(), "{name}: count({q})");
        }
        for &(target, k) in knn {
            let want = Queryable::knn(&oracle, &target, k);
            assert_bits_eq(
                name,
                &format!("knn({target}, {k})"),
                &backend.knn(&target, k),
                &want,
            );
        }
    }
}

fn standard_queries() -> Vec<Rect> {
    vec![
        Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
        Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
        Rect::from_bounds(0.25, 0.25, 0.75, 0.75),
        Rect::from_bounds(0.5, 0.5, 0.5625, 0.5625),
        Rect::from_bounds(0.9, 0.0, 1.0, 0.1),
    ]
}

#[test]
fn empty_structures_agree() {
    differential(
        &[],
        2,
        &standard_queries(),
        &[(Point2::new(0.5, 0.5), 1), (Point2::new(0.0, 0.0), 3)],
    );
}

#[test]
fn coincident_piles_and_tie_rings_agree() {
    // The adversarial tie workload: three coincident piles (one right
    // on a quadrant corner), an equidistant ring around each, and a few
    // loose points. Every k straddling a tie boundary must resolve
    // identically everywhere.
    let mut points = Vec::new();
    for &(cx, cy) in &[(0.5, 0.5), (0.25, 0.75), (0.75, 0.25)] {
        for _ in 0..3 {
            points.push(Point2::new(cx, cy));
        }
        for &(dx, dy) in &[(0.125, 0.0), (-0.125, 0.0), (0.0, 0.125), (0.0, -0.125)] {
            points.push(Point2::new(cx + dx, cy + dy));
        }
    }
    points.push(Point2::new(0.0, 0.0));
    points.push(Point2::new(0.9375, 0.9375));
    let knn: Vec<(Point2, usize)> = (1..=8)
        .map(|k| (Point2::new(0.5, 0.5), k))
        .chain((1..=8).map(|k| (Point2::new(0.25, 0.75), k)))
        .chain([(Point2::new(0.5, 0.5), 100)])
        .collect();
    for capacity in [1, 2, 4] {
        differential(&points, capacity, &standard_queries(), &knn);
    }
}

#[test]
fn point_quadtree_agrees_on_distinct_keys() {
    // The point quadtree rejects duplicates, so its differential runs
    // on a deduplicated workload against an oracle over the same keys.
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;
    use popan_workload::points::{PointSource, UniformRect};
    let mut rng = StdRng::seed_from_u64(0xbeef);
    let points = UniformRect::unit().sample_n(&mut rng, 400);
    let oracle = BoxedPrQuadtree::build(Rect::unit(), 2, points.iter().copied()).unwrap();
    let pq = PointQuadtree::build(points.iter().copied()).unwrap();
    assert_eq!(Queryable::len(&pq), oracle.len());
    for q in &standard_queries() {
        let want = Queryable::range(&oracle, q);
        assert_bits_eq(
            "point_quadtree",
            &format!("range({q})"),
            &pq.range(q),
            &want,
        );
        assert_eq!(pq.count(q), want.len(), "count({q})");
    }
    for &(target, k) in &[
        (Point2::new(0.5, 0.5), 1),
        (Point2::new(0.0, 0.0), 7),
        (Point2::new(0.99, 0.01), 25),
    ] {
        let want = Queryable::knn(&oracle, &target, k);
        assert_bits_eq(
            "point_quadtree",
            &format!("knn({target}, {k})"),
            &pq.knn(&target, k),
            &want,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_workloads_agree(
        raw in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..150),
        dups in popan_proptest::collection::vec(0usize..30, 0..8),
        capacity in 1usize..6,
        qx in 0.0f64..0.9,
        qy in 0.0f64..0.9,
        qw in 0.001f64..0.5,
        tx in 0.0f64..1.0,
        ty in 0.0f64..1.0,
        k in 0usize..20,
    ) {
        // Duplicate some generated points to force multiset + tie paths.
        let mut points: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        for &d in &dups {
            if !points.is_empty() {
                let p = points[d % points.len()];
                points.push(p);
            }
        }
        let queries = [
            Rect::from_bounds(qx, qy, (qx + qw).min(1.0), (qy + qw).min(1.0)),
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
        ];
        let knn = [(Point2::new(tx, ty), k), (Point2::new(tx, ty), 3)];
        differential(&points, capacity, &queries, &knn);
    }
}
