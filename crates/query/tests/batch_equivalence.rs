//! Batch differential suite: Morton-batched execution is invisible.
//!
//! Three layers of agreement, each bit-for-bit:
//!
//! 1. **Batch vs serial** — `range_batch_into` / `count_batch_with` /
//!    `knn_batch_into` must return, at every original query index, the
//!    exact answer the serial serving form produces (canonical order
//!    included). The batch path may reorder *execution* however it
//!    likes; the permutation contract says the caller can never tell.
//! 2. **Batch vs oracle** — the same answers must match the naive
//!    full-scan reference (`range_by_scan` / `knn_by_scan`), so the
//!    batch path can't inherit a bug from the serial path it wraps.
//! 3. **Across readers** — a pool of concurrent `SnapshotReader`s
//!    (sized by `POPAN_THREADS`, the same knob `scripts/verify.sh`
//!    exercises at 1 and 4) each runs the same batch against the same
//!    published epoch with its own scratch; every reader's answers
//!    must be byte-identical to every other's.

use std::sync::Arc;

use popan_geom::{Point2, Rect};
use popan_proptest::prelude::*;
use popan_query::{
    knn_by_scan, range_by_scan, BatchAnswers, BatchScratch, Snapshot, SnapshotPublisher,
};
use popan_spatial::QueryScratch;

fn bits(points: &[Point2]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

fn arb_points() -> impl Strategy<Value = Vec<Point2>> {
    popan_proptest::collection::vec((0u8..8, 0.0f64..1.0, 0.0f64..1.0, 0u8..6, 0u8..6), 0..160)
        .prop_map(|elems| {
            elems
                .into_iter()
                .map(|(kind, x, y, i, j)| {
                    if kind < 6 {
                        Point2::new(x, y)
                    } else {
                        // Exact collisions: coincident piles and k-NN ties.
                        Point2::new(f64::from(i) / 6.0, f64::from(j) / 6.0)
                    }
                })
                .collect()
        })
}

fn arb_queries() -> impl Strategy<Value = Vec<Rect>> {
    popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.5, 0.0f64..0.5), 0..40)
        .prop_map(|elems| {
            elems
                .into_iter()
                .map(|(x, y, w, h)| Rect::from_bounds(x, y, (x + w).min(1.0), (y + h).min(1.0)))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn range_batch_matches_serial_and_oracle(
        points in arb_points(),
        queries in arb_queries(),
        capacity in 1usize..5,
    ) {
        let snap = Snapshot::from_points(1, Rect::unit(), capacity, points.clone()).unwrap();
        let mut scratch = BatchScratch::new();
        let mut batch = BatchAnswers::new();
        snap.range_batch_into(&queries, &mut scratch, &mut batch);
        prop_assert_eq!(batch.len(), queries.len());

        let mut serial_scratch = QueryScratch::default();
        let mut serial = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            snap.range_into(q, &mut serial_scratch, &mut serial);
            prop_assert_eq!(bits(batch.answer(i)), bits(&serial), "serial mismatch at {}", i);
            let oracle = range_by_scan(points.iter().copied(), q);
            prop_assert_eq!(bits(batch.answer(i)), bits(&oracle), "oracle mismatch at {}", i);
        }
    }

    #[test]
    fn count_batch_matches_serial_and_oracle(
        points in arb_points(),
        queries in arb_queries(),
        capacity in 1usize..5,
    ) {
        let snap = Snapshot::from_points(1, Rect::unit(), capacity, points.clone()).unwrap();
        let mut scratch = BatchScratch::new();
        let mut counts = Vec::new();
        snap.count_batch_with(&queries, &mut scratch, &mut counts);
        prop_assert_eq!(counts.len(), queries.len());

        let mut serial_scratch = QueryScratch::default();
        for (i, q) in queries.iter().enumerate() {
            prop_assert_eq!(counts[i], snap.count_with(q, &mut serial_scratch));
            prop_assert_eq!(counts[i], range_by_scan(points.iter().copied(), q).len());
        }
    }

    #[test]
    fn knn_batch_matches_serial_and_oracle(
        points in arb_points(),
        targets in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..32),
        k in 0usize..8,
        capacity in 1usize..5,
    ) {
        let targets: Vec<Point2> = targets.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let snap = Snapshot::from_points(1, Rect::unit(), capacity, points.clone()).unwrap();
        let mut scratch = BatchScratch::new();
        let mut batch = BatchAnswers::new();
        snap.knn_batch_into(&targets, k, &mut scratch, &mut batch);
        prop_assert_eq!(batch.len(), targets.len());

        let mut serial_scratch = QueryScratch::default();
        let mut serial = Vec::new();
        for (i, t) in targets.iter().enumerate() {
            snap.knn_into(t, k, &mut serial_scratch, &mut serial);
            prop_assert_eq!(bits(batch.answer(i)), bits(&serial), "serial mismatch at {}", i);
            let oracle = knn_by_scan(points.iter().copied(), t, k);
            prop_assert_eq!(bits(batch.answer(i)), bits(&oracle), "oracle mismatch at {}", i);
        }
    }
}

/// Reader-pool width: `POPAN_THREADS` when set to a positive count, the
/// same 4-way default `scripts/verify.sh` pins otherwise.
fn pool_width() -> usize {
    std::env::var("POPAN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

#[test]
fn concurrent_readers_agree_bit_for_bit() {
    let points: Vec<Point2> = (0..4000)
        .map(|i| {
            Point2::new(
                (i as f64 * 0.618_033_988_7) % 1.0,
                (i as f64 * 0.414_213_562_3) % 1.0,
            )
        })
        .collect();
    let queries: Vec<Rect> = (0..256)
        .map(|i| {
            let x = (i as f64 * 0.37) % 0.8;
            let y = (i as f64 * 0.59) % 0.8;
            Rect::from_bounds(x, y, x + 0.11, y + 0.07)
        })
        .collect();
    let targets: Vec<Point2> = (0..128)
        .map(|i| Point2::new((i as f64 * 0.71) % 1.0, (i as f64 * 0.53) % 1.0))
        .collect();

    let snap = Snapshot::from_points(0, Rect::unit(), 8, points).unwrap();
    let publisher = SnapshotPublisher::new(snap);
    let queries = Arc::new(queries);
    let targets = Arc::new(targets);

    let handles: Vec<_> = (0..pool_width())
        .map(|_| {
            let reader = publisher.subscribe();
            let queries = Arc::clone(&queries);
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || {
                let mut scratch = BatchScratch::new();
                let mut ranges = BatchAnswers::new();
                let snap = reader.cached();
                snap.range_batch_into(&queries, &mut scratch, &mut ranges);
                let mut counts = Vec::new();
                snap.count_batch_with(&queries, &mut scratch, &mut counts);
                let mut knn = BatchAnswers::new();
                snap.knn_batch_into(&targets, 6, &mut scratch, &mut knn);
                let range_bits: Vec<Vec<(u64, u64)>> = ranges.iter().map(bits).collect();
                let knn_bits: Vec<Vec<(u64, u64)>> = knn.iter().map(bits).collect();
                (range_bits, counts, knn_bits)
            })
        })
        .collect();

    let results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("reader thread panicked"))
        .collect();
    let first = &results[0];
    assert_eq!(first.0.len(), queries.len());
    assert_eq!(first.2.len(), targets.len());
    for (i, other) in results.iter().enumerate().skip(1) {
        assert_eq!(&first.0, &other.0, "reader {i} range answers diverged");
        assert_eq!(&first.1, &other.1, "reader {i} counts diverged");
        assert_eq!(&first.2, &other.2, "reader {i} knn answers diverged");
    }
}
