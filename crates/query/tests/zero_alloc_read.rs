//! The snapshot read path must not allocate.
//!
//! The serving contract (DESIGN.md §10): once a reader's buffers have
//! warmed to the workload's high-water marks, a query batch — including
//! epoch refreshes — performs **zero heap allocations**. This test
//! installs a counting global allocator (the same pattern as
//! `crates/spatial/tests/zero_alloc.rs`) and pins that contract so a
//! future refactor cannot quietly reintroduce per-query allocation.
//!
//! The `unsafe impl GlobalAlloc` below is required by the trait;
//! popan-lint carries an R2 `allow_paths` entry for this file, and the
//! library crates remain under `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

// A single test function: integration tests in one binary run on
// multiple threads, and a second test's allocations would leak into
// this one's counter window.
#[test]
fn snapshot_read_path_does_not_allocate() {
    use popan_geom::{Point2, Rect};
    use popan_query::{Snapshot, SnapshotPublisher};
    use popan_rng::rngs::StdRng;
    use popan_rng::{Rng, SeedableRng};
    use popan_spatial::{CostBudget, QueryScratch};

    let snapshot_of = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        Snapshot::from_points(
            0,
            Rect::unit(),
            4,
            (0..20_000)
                .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))),
        )
        .unwrap()
    };

    let mut publisher = SnapshotPublisher::new(snapshot_of(1));
    let mut reader = publisher.subscribe();

    // The measured batch: a mix of range, count and k-NN queries plus a
    // refresh per iteration, written through reusable buffers, each
    // also asked under a budget of 8 points so the bounded forms take
    // their partial paths (trim to the canonical prefix).
    let tight = CostBudget::new(u64::MAX, 8);
    let mut rng = StdRng::seed_from_u64(2);
    let queries: Vec<(Rect, Point2, usize)> = (0..64)
        .map(|i| {
            let x = rng.random_range(0.0..0.7);
            let y = rng.random_range(0.0..0.7);
            let w = rng.random_range(0.01..0.3);
            (
                Rect::from_bounds(x, y, x + w, y + w),
                Point2::new(x, y),
                1 + i % 16,
            )
        })
        .collect();

    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut sink = 0usize;
    let batch = |reader: &mut popan_query::SnapshotReader,
                 scratch: &mut QueryScratch,
                 out: &mut Vec<Point2>,
                 sink: &mut usize| {
        for (rect, target, k) in &queries {
            reader.refresh();
            let snap = reader.cached();
            snap.range_into(rect, scratch, out);
            *sink = sink.wrapping_add(out.len());
            *sink = sink.wrapping_add(snap.count_with(rect, scratch));
            snap.knn_into(target, *k, scratch, out);
            *sink = sink.wrapping_add(out.len());
            snap.range_bounded_into(rect, &tight, scratch, out);
            *sink = sink.wrapping_add(out.len());
            *sink = sink.wrapping_add(snap.count_bounded_with(rect, &tight, scratch).0);
            snap.knn_bounded_into(target, *k, &tight, scratch, out);
            *sink = sink.wrapping_add(out.len());
        }
    };

    // Warm pass: buffers grow to the workload's high-water marks, and
    // the full-region query bounds the result buffer for any rect.
    batch(&mut reader, &mut scratch, &mut out, &mut sink);
    reader
        .cached()
        .range_into(&Rect::unit(), &mut scratch, &mut out);
    sink = sink.wrapping_add(out.len());

    // Publish a fresh epoch of the same population, outside the window:
    // the measured pass must absorb the epoch swap allocation-free.
    publisher.publish(snapshot_of(3)).unwrap();

    let allocs = allocations_during(|| {
        batch(&mut reader, &mut scratch, &mut out, &mut sink);
    });
    assert!(sink != 0, "reads must not be optimized away");
    assert_eq!(reader.epoch(), 1, "batch must have absorbed the new epoch");
    assert_eq!(
        allocs, 0,
        "snapshot read path allocated {allocs} times; refresh + range/count/knn and their \
         bounded forms must be allocation-free once warm"
    );

    // The tight budget does reach the partial paths.
    let snap = reader.cached();
    assert!(queries.iter().any(|(rect, _, _)| {
        !snap
            .range_bounded_into(rect, &tight, &mut scratch, &mut out)
            .is_complete()
    }));
    assert!(queries.iter().any(|(_, target, k)| {
        !snap
            .knn_bounded_into(target, *k, &tight, &mut scratch, &mut out)
            .is_complete()
    }));

    // Sanity: the counter does observe this binary's allocations — the
    // allocating convenience forms show up immediately.
    use popan_query::Queryable;
    let observed = allocations_during(|| {
        sink = sink.wrapping_add(reader.cached().range(&Rect::unit()).len());
    });
    assert!(
        observed > 0,
        "counting allocator failed to observe the allocating path"
    );
}
