//! Serving contracts at small sizes, in the root test suite.
//!
//! The full oracle differential, batch and chaos suites live in
//! `popan-query` and run only when the whole workspace is tested. This
//! file keeps a cheap copy of each contract in the root `cargo test`,
//! so a serving regression fails the default run on its own:
//!
//! * snapshot range, count and k-NN answers are bit-identical to the
//!   full-scan references `range_by_scan` / `knn_by_scan`, on a uniform
//!   snapshot made by `Snapshot::from_points` and a clustered one
//!   frozen from a PR quadtree, windows whose edges sit on block edges
//!   included;
//! * the batch forms answer every query exactly as the serial forms do,
//!   at its original index;
//! * the bounded range and count forms charge, answer, truncate and
//!   count exactly as pinned, and every partial answer is a prefix of
//!   the full one;
//! * a corrupt candidate is quarantined while readers keep serving the
//!   last good epoch;
//! * on a third snapshot, whose points send the range answers' bucket
//!   sort down each of its paths (an equal-`x` column, an outlier beside
//!   a tight cluster, a dyadic grid with coincident points), the serial,
//!   batch and unbounded bounded range forms match the full scan bit for
//!   bit.

use popan::geom::{Point2, Rect};
use popan::query::{
    knn_by_scan, range_by_scan, BatchAnswers, BatchScratch, PublishError, Queryable, Snapshot,
    SnapshotPublisher,
};
use popan::spatial::{BoundedOutcome, CostBudget, PrQuadtree, QueryScratch, SnapshotSection};
use popan::workload::points::{Clustered, PointSource, UniformRect};
use popan::workload::TrialRunner;
use popan_rng::hash::Fnv64;

const N: usize = 2000;
const CAPACITY: usize = 4;

/// Windows with edges on dyadic split lines: exactly the depth-1 block
/// SE, exactly a depth-4 block, and one whose `hi` edges are the `lo`
/// edges of the blocks beyond it. Inside the first two the descent
/// takes whole blocks; along their edges it filters.
const DYADIC_WINDOWS: [[f64; 4]; 3] = [
    [0.5, 0.0, 1.0, 0.5],
    [0.5, 0.25, 0.5625, 0.3125],
    [0.25, 0.375, 0.5, 0.5],
];

/// Points exactly on those lines and corners: a window holds its `lo`
/// edges and not its `hi` edges.
const LINE_POINTS: [(f64, f64); 6] = [
    (0.5, 0.25),
    (0.5, 0.5),
    (0.25, 0.375),
    (0.5625, 0.3125),
    (0.5, 0.4),
    (0.375, 0.5),
];

fn line_points() -> impl Iterator<Item = Point2> {
    LINE_POINTS.iter().map(|&(x, y)| Point2::new(x, y))
}

/// One query of the mixed load.
#[derive(Debug, Clone, Copy)]
enum Query {
    Range(Rect),
    Count(Rect),
    Knn(Point2, usize),
}

fn uniform_points() -> Vec<Point2> {
    let mut rng = TrialRunner::new(0x5e7e, 1).rng_for_trial(0);
    let mut points = UniformRect::unit().sample_n(&mut rng, N - LINE_POINTS.len());
    points.extend(line_points());
    points
}

fn clustered_points() -> Vec<Point2> {
    let mut rng = TrialRunner::new(0xc105, 1).rng_for_trial(0);
    let source = Clustered::new(Rect::unit(), 8, 0.02, &mut rng);
    let mut points = source.sample_n(&mut rng, N - 8 - LINE_POINTS.len());
    // A coincident pile: ties the canonical orders must break.
    points.extend([Point2::new(0.5, 0.5); 8]);
    points.extend(line_points());
    points
}

/// The two snapshots under test, each with the points it holds: the
/// uniform one from `Snapshot::from_points`, the clustered one frozen
/// from a PR quadtree built here.
fn snapshots() -> Vec<(&'static str, Vec<Point2>, Snapshot)> {
    let uniform = uniform_points();
    let from_points =
        Snapshot::from_points(0, Rect::unit(), CAPACITY, uniform.iter().copied()).unwrap();
    let clustered = clustered_points();
    let tree = PrQuadtree::build(Rect::unit(), CAPACITY, clustered.iter().copied()).unwrap();
    let frozen = Snapshot::freeze(0, &tree).unwrap();
    vec![
        ("uniform/from_points", uniform, from_points),
        ("clustered/freeze", clustered, frozen),
    ]
}

/// 102 queries: 64 windows, alternately range and count, from slivers
/// to half the region and possibly sticking out of it; each dyadic
/// window as a range and a count; and 32 k-NN targets in
/// [-0.25, 1.25)², so some are outside the region, with k from 0 past
/// the snapshot size.
fn queries() -> Vec<Query> {
    let mut rng = TrialRunner::new(0x9e7, 1).rng_for_trial(0);
    let corners = UniformRect::new(Rect::from_bounds(-0.1, -0.1, 1.0, 1.0)).sample_n(&mut rng, 64);
    let targets =
        UniformRect::new(Rect::from_bounds(-0.25, -0.25, 1.25, 1.25)).sample_n(&mut rng, 32);
    let window = |i: usize, c: &Point2| {
        let w = 0.002 + 0.5 * ((i * 37) % 64) as f64 / 64.0;
        let h = 0.002 + 0.3 * ((i * 11) % 64) as f64 / 64.0;
        Rect::from_bounds(c.x, c.y, c.x + w, c.y + h)
    };
    let mut out = Vec::with_capacity(102);
    for (i, c) in corners.iter().enumerate() {
        out.push(if i % 2 == 0 {
            Query::Range(window(i, c))
        } else {
            Query::Count(window(i, c))
        });
    }
    for [x_lo, y_lo, x_hi, y_hi] in DYADIC_WINDOWS {
        let rect = Rect::from_bounds(x_lo, y_lo, x_hi, y_hi);
        out.extend([Query::Range(rect), Query::Count(rect)]);
    }
    for (i, t) in targets.iter().enumerate() {
        let k = match i {
            0 => 0,
            1 => N + 2,
            _ => 1 + (i * 7) % 24,
        };
        out.push(Query::Knn(*t, k));
    }
    out
}

fn bits(points: &[Point2]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

#[test]
fn snapshot_answers_match_full_scans_bit_for_bit() {
    let queries = queries();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    for (name, points, snap) in snapshots() {
        assert_eq!(snap.len(), points.len(), "{name}");
        for (i, q) in queries.iter().enumerate() {
            match *q {
                Query::Range(rect) => {
                    snap.range_into(&rect, &mut scratch, &mut out);
                    let expect = range_by_scan(points.iter().copied(), &rect);
                    assert_eq!(bits(&out), bits(&expect), "{name} query {i}: range {rect}");
                }
                Query::Count(rect) => {
                    let expect = range_by_scan(points.iter().copied(), &rect).len();
                    let got = snap.count_with(&rect, &mut scratch);
                    assert_eq!(got, expect, "{name} query {i}: count {rect}");
                }
                Query::Knn(target, k) => {
                    snap.knn_into(&target, k, &mut scratch, &mut out);
                    let expect = knn_by_scan(points.iter().copied(), &target, k);
                    assert_eq!(
                        bits(&out),
                        bits(&expect),
                        "{name} query {i}: knn {target} k={k}"
                    );
                }
            }
        }
    }
}

#[test]
fn batch_answers_match_serial_answers_at_every_index() {
    let queries = queries();
    let rects: Vec<Rect> = queries
        .iter()
        .filter_map(|q| match *q {
            Query::Range(r) | Query::Count(r) => Some(r),
            Query::Knn(..) => None,
        })
        .collect();
    let targets: Vec<Point2> = queries
        .iter()
        .filter_map(|q| match *q {
            Query::Knn(t, _) => Some(t),
            _ => None,
        })
        .collect();
    let mut scratch = QueryScratch::new();
    let mut serial = Vec::new();
    let mut batch_scratch = BatchScratch::new();
    let mut answers = BatchAnswers::new();
    for (name, _, snap) in snapshots() {
        snap.range_batch_into(&rects, &mut batch_scratch, &mut answers);
        assert_eq!(answers.len(), rects.len(), "{name}");
        for (i, rect) in rects.iter().enumerate() {
            snap.range_into(rect, &mut scratch, &mut serial);
            assert_eq!(bits(answers.answer(i)), bits(&serial), "{name} range {i}");
        }
        for k in [1, 10] {
            snap.knn_batch_into(&targets, k, &mut batch_scratch, &mut answers);
            assert_eq!(answers.len(), targets.len(), "{name}");
            for (i, target) in targets.iter().enumerate() {
                snap.knn_into(target, k, &mut scratch, &mut serial);
                assert_eq!(
                    bits(answers.answer(i)),
                    bits(&serial),
                    "{name} knn {i} k={k}"
                );
            }
        }
    }
}

/// Folds one bounded outcome into `h`: its charges, whether it is
/// complete, and how many leaves it truncated against.
fn fold_outcome(h: &mut Fnv64, outcome: &BoundedOutcome) {
    let visited = outcome.visited();
    h.write_u64(visited.leaf_visits);
    h.write_u64(visited.point_visits);
    match *outcome {
        BoundedOutcome::Complete { .. } => h.write_u8(0),
        BoundedOutcome::Partial {
            truncated_leaves, ..
        } => {
            h.write_u8(1);
            h.write_u64(truncated_leaves as u64);
        }
    }
}

/// The bounded range and count forms over every window of the query
/// set, under budgets from unbounded down to a single leaf. Their
/// charges feed perfbench's pinned `query.*` counters, and their
/// partial answers are what a degraded reader serves, so each
/// snapshot's outcomes, answers and counts are folded into one digest
/// pinned here.
#[test]
fn bounded_outcomes_match_their_pins() {
    const PINS: [(&str, u64); 2] = [
        ("uniform/from_points", 0x0794_acfd_4192_5464),
        ("clustered/freeze", 0x1d8c_6f1d_4c10_7af9),
    ];
    let budgets = [
        CostBudget::unbounded(),
        CostBudget::new(1, u64::MAX),
        CostBudget::new(4, u64::MAX),
        CostBudget::new(16, u64::MAX),
        CostBudget::new(u64::MAX, 16),
        CostBudget::new(u64::MAX, 128),
        CostBudget::new(3, 40),
    ];
    let windows: Vec<Rect> = queries()
        .iter()
        .filter_map(|q| match *q {
            Query::Range(r) | Query::Count(r) => Some(r),
            Query::Knn(..) => None,
        })
        .collect();
    let mut scratch = QueryScratch::new();
    let mut full = Vec::new();
    let mut partial = Vec::new();
    let snapshots = snapshots();
    // `zip` stops at the shorter side: a snapshot without a pin would
    // go unchecked.
    assert_eq!(
        snapshots.len(),
        PINS.len(),
        "every snapshot needs a pin, and every pin a snapshot"
    );
    for ((name, _, snap), (pin_name, pin)) in snapshots.into_iter().zip(PINS) {
        assert_eq!(name, pin_name);
        let mut h = Fnv64::new();
        for (i, rect) in windows.iter().enumerate() {
            snap.range_into(rect, &mut scratch, &mut full);
            for budget in &budgets {
                let outcome = snap.range_bounded_into(rect, budget, &mut scratch, &mut partial);
                let (count, count_outcome) = snap.count_bounded_with(rect, budget, &mut scratch);
                let at = format!("{name} window {i} {rect} budget {budget:?}");
                assert!(
                    partial.len() <= full.len() && bits(&partial) == bits(&full[..partial.len()]),
                    "{at}: the bounded answer is not a prefix of the full one"
                );
                if outcome.is_complete() {
                    assert_eq!(partial.len(), full.len(), "{at}");
                }
                assert_eq!(count, partial.len(), "{at}");
                assert_eq!(count_outcome, outcome, "{at}");
                fold_outcome(&mut h, &outcome);
                h.write_u64(partial.len() as u64);
                for p in &partial {
                    h.write_f64(p.x);
                    h.write_f64(p.y);
                }
                fold_outcome(&mut h, &count_outcome);
                h.write_u64(count as u64);
            }
        }
        assert_eq!(h.finish(), pin, "{name}: digest {:#018x}", h.finish());
    }
}

/// Points for the range sort's other paths, over 1000 uniform ones: a
/// 64-point column at `x = 0.3`; 200 points in a cluster 10⁻⁶ wide in
/// `x` at 0.7, with an outlier at `x = 0.95`; and a 12 × 12 grid on the
/// 1/64 lattice whose first 16 points are doubled. A window holding
/// most of the column or the cluster puts a large share of its answer
/// in one `x` bucket, and one across the grid puts ten or more points
/// in each column's bucket. The column and the grid go in with `y`
/// descending: a leaf keeps its points in insertion order, so points of
/// equal `x` reach the sort out of `y` order.
fn adversarial_points() -> Vec<Point2> {
    let mut rng = TrialRunner::new(0xad5e, 1).rng_for_trial(0);
    let mut points = UniformRect::unit().sample_n(&mut rng, 1000);
    points.extend(
        (0..64)
            .rev()
            .map(|i| Point2::new(0.3, 0.2 + f64::from(i) / 128.0)),
    );
    let cluster = Rect::from_bounds(0.7, 0.1, 0.7 + 1e-6, 0.9);
    points.extend(UniformRect::new(cluster).sample_n(&mut rng, 200));
    points.push(Point2::new(0.95, 0.5));
    let grid: Vec<Point2> = (0..12)
        .flat_map(|i| (0..12).rev().map(move |j| (i, j)))
        .map(|(i, j)| Point2::new(f64::from(i + 4) / 64.0, f64::from(j + 40) / 64.0))
        .collect();
    points.extend(&grid);
    points.extend(&grid[..16]);
    points
}

/// Windows over [`adversarial_points`]: one around each feature, the
/// whole region, and 96 random ones from slivers to most of the region.
fn adversarial_windows() -> Vec<Rect> {
    let mut windows = vec![
        Rect::from_bounds(0.29, 0.15, 0.31, 0.75),
        Rect::from_bounds(0.6, 0.0, 1.0, 1.0),
        Rect::from_bounds(0.69, 0.4, 0.96, 0.6),
        Rect::from_bounds(0.0, 0.6, 0.3, 0.85),
        Rect::from_bounds(0.0625, 0.625, 0.25, 0.8125),
        Rect::unit(),
    ];
    let mut rng = TrialRunner::new(0xad5f, 1).rng_for_trial(0);
    let corners =
        UniformRect::new(Rect::from_bounds(-0.05, -0.05, 0.95, 0.95)).sample_n(&mut rng, 96);
    windows.extend(corners.iter().enumerate().map(|(i, c)| {
        let w = 0.01 + 0.8 * ((i * 37) % 96) as f64 / 96.0;
        let h = 0.01 + 0.8 * ((i * 53) % 96) as f64 / 96.0;
        Rect::from_bounds(c.x, c.y, c.x + w, c.y + h)
    }));
    windows
}

#[test]
fn range_sort_paths_match_full_scans_through_every_range_form() {
    let points = adversarial_points();
    let snap = Snapshot::from_points(0, Rect::unit(), CAPACITY, points.iter().copied()).unwrap();
    let windows = adversarial_windows();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut batch_scratch = BatchScratch::new();
    let mut answers = BatchAnswers::new();
    snap.range_batch_into(&windows, &mut batch_scratch, &mut answers);
    assert_eq!(answers.len(), windows.len());
    for (i, rect) in windows.iter().enumerate() {
        let expect = bits(&range_by_scan(points.iter().copied(), rect));
        snap.range_into(rect, &mut scratch, &mut out);
        assert_eq!(bits(&out), expect, "window {i} {rect}: serial");
        assert_eq!(bits(answers.answer(i)), expect, "window {i} {rect}: batch");
        let outcome =
            snap.range_bounded_into(rect, &CostBudget::unbounded(), &mut scratch, &mut out);
        assert!(outcome.is_complete(), "window {i} {rect}");
        assert_eq!(bits(&out), expect, "window {i} {rect}: bounded");
    }
}

#[test]
fn corrupt_candidate_is_quarantined_and_readers_keep_the_last_good_epoch() {
    let mut snaps = snapshots().into_iter();
    let (_, _, first) = snaps.next().unwrap();
    let (_, _, second) = snaps.next().unwrap();
    let probe = Point2::new(0.3, 0.6);
    let expect = first.knn(&probe, 5);

    let mut publisher = SnapshotPublisher::new(first);
    let mut reader = publisher.subscribe();
    for (round, section) in [
        SnapshotSection::Leaves,
        SnapshotSection::Blocks,
        SnapshotSection::Points,
    ]
    .into_iter()
    .enumerate()
    {
        let mut damaged = second.clone();
        assert!(damaged.corrupt_section(section, 977 * round as u64 + 13));
        let err = publisher.publish(damaged).unwrap_err();
        assert!(matches!(err, PublishError::Corrupt(_)), "{section}: {err}");
        assert_eq!(publisher.quarantine_log().len(), round + 1, "{section}");
        assert_eq!(reader.current().epoch(), 0, "{section}");
        assert_eq!(reader.current().knn(&probe, 5), expect, "{section}");
    }

    let clean = second.knn(&probe, 5);
    assert_eq!(publisher.publish(second).unwrap(), 1);
    assert_eq!(reader.current().epoch(), 1);
    assert_eq!(reader.current().knn(&probe, 5), clean);
}
