//! Bench for the snapshot-serving query tier (`popan-query`).
//!
//! Two families:
//!
//! * `freeze` / `serve_*`: single-thread costs — freezing a 10⁵-point
//!   PR quadtree into a Morton-packed snapshot, and one range / count /
//!   k-NN query through the zero-allocation serving forms.
//!   `serve_{range,count,knn}_mix_1e5` answer one fixed 96-query slice
//!   of the `readers_x*` load per iteration, one query kind per row.
//! * `sort_{comparator,bucket}_*`: a range answer's canonical sort alone,
//!   `sort_unstable_by(Point2::canonical_cmp)` against
//!   `QueryScratch::sort_canonical` on the same inputs, at 10³ and 10⁴
//!   points: uniform `x` (what a window's hits look like) and the three
//!   shapes that send the bucket sort back to the comparator.
//! * `readers_x{1,2,4}`: a fixed 4096-query load answered by 1, 2 and 4
//!   reader threads over the same published snapshot. Before timing,
//!   every configuration's merged result log is digested and asserted
//!   **bit-identical** — reader count is a pure throughput knob, never
//!   an answer knob. The per-configuration wall times land in
//!   `BENCH_query.json`; on a multi-core host the wall time per fixed
//!   load drops toward 1/R (≥ linear read scaling, there is no write
//!   lock to contend on), while on a single-core host the honest
//!   expectation is flat wall time with the scaling visible only in
//!   per-thread CPU share — compare `readers_x4` against `readers_x1`
//!   with the host's core count in mind.

use std::sync::{Arc, Barrier};

use popan_bench::{criterion_group, criterion_main, Criterion};
use popan_geom::{Point2, Rect};
use popan_query::{BatchAnswers, BatchScratch, Snapshot, SnapshotPublisher};
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::{PrQuadtree, QueryScratch};
use popan_workload::points::{PointSource, UniformRect};
use std::hint::black_box;

const N: usize = 100_000;
/// The batch-vs-serial pair serves from its own larger snapshot so the
/// leaf slab exceeds a per-core L2 and the Morton schedule's locality
/// is observable (at `N` the whole snapshot is cache-resident and both
/// schedules read the same warm lines).
const BATCH_N: usize = 1_000_000;
const CAPACITY: usize = 8;
const LOAD: usize = 4096;
/// Queries of one kind per iteration of a `serve_*_mix_1e5` row.
const MIX: usize = 96;

#[derive(Clone, Copy)]
enum Query {
    Range(Rect),
    Count(Rect),
    Knn(Point2, usize),
}

fn load_queries() -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(0xbe_9c);
    (0..LOAD)
        .map(|qi| {
            let x = rng.random_range(0.0..0.85);
            let y = rng.random_range(0.0..0.85);
            let w = rng.random_range(0.005..0.15);
            match qi % 3 {
                0 => Query::Range(Rect::from_bounds(x, y, x + w, y + w)),
                1 => Query::Count(Rect::from_bounds(x, y, x + w, y + w)),
                _ => Query::Knn(Point2::new(x, y), 1 + qi % 16),
            }
        })
        .collect()
}

/// FNV-1a over one query's full result (epoch + every coordinate bit).
fn answer_hash(
    snap: &Snapshot,
    q: &Query,
    scratch: &mut QueryScratch,
    out: &mut Vec<Point2>,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let push = |h: &mut u64, v: u64| {
        for b in v.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    push(&mut h, snap.epoch());
    match q {
        Query::Range(rect) => {
            snap.range_into(rect, scratch, out);
            push(&mut h, out.len() as u64);
            for p in out.iter() {
                push(&mut h, p.x.to_bits());
                push(&mut h, p.y.to_bits());
            }
        }
        Query::Count(rect) => push(&mut h, snap.count_with(rect, scratch) as u64),
        Query::Knn(target, k) => {
            snap.knn_into(target, *k, scratch, out);
            push(&mut h, out.len() as u64);
            for p in out.iter() {
                push(&mut h, p.x.to_bits());
                push(&mut h, p.y.to_bits());
            }
        }
    }
    h
}

/// Answers the fixed load with `n_readers` threads; returns the merged
/// (query, hash) log, sorted by query index.
fn run_readers(
    publisher: &SnapshotPublisher,
    queries: &Arc<Vec<Query>>,
    n_readers: usize,
) -> Vec<(usize, u64)> {
    let barrier = Arc::new(Barrier::new(n_readers));
    let handles: Vec<_> = (0..n_readers)
        .map(|rid| {
            let mut reader = publisher.subscribe();
            let queries = Arc::clone(queries);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut scratch = QueryScratch::new();
                let mut out = Vec::new();
                let mut log = Vec::new();
                barrier.wait();
                reader.refresh();
                let snap = reader.cached();
                for (qi, q) in queries.iter().enumerate() {
                    if qi % n_readers == rid {
                        log.push((qi, answer_hash(snap, q, &mut scratch, &mut out)));
                    }
                }
                log
            })
        })
        .collect();
    let mut merged = Vec::with_capacity(queries.len());
    for h in handles {
        merged.extend(h.join().expect("reader thread panicked"));
    }
    merged.sort_unstable();
    merged
}

/// The sort-only inputs: `uniform` is `x` uniform over a window 0.15
/// wide that straddles 0.5 (an exponent step), `column` one `x` for
/// every point, `outlier` a cluster 10⁻⁶ wide in `x` with one point far
/// away, `grid10` ten columns of equal `x`. `y` is uniform in all four,
/// and the points are in random order.
const SORT_SHAPES: [&str; 4] = ["uniform", "column", "outlier", "grid10"];

fn sort_input(shape: &str, n: usize) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(0x50_27);
    (0..n)
        .map(|i| {
            let y = rng.random_range(0.0..1.0);
            let x = match shape {
                "uniform" => rng.random_range(0.4..0.55),
                "column" => 0.3,
                "outlier" if i == n / 2 => 0.9,
                "outlier" => 0.5 + rng.random_range(0.0..1e-6),
                _ => 0.05 + (i % 10) as f64 / 10.0,
            };
            Point2::new(x, y)
        })
        .collect()
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");

    let mut rng = StdRng::seed_from_u64(0x5e_21e);
    let points = UniformRect::unit().sample_n(&mut rng, N);
    let tree = PrQuadtree::build(Rect::unit(), CAPACITY, points.iter().copied()).unwrap();

    group.bench_function("freeze_1e5", |b| {
        b.iter(|| Snapshot::freeze(0, black_box(&tree)).unwrap().leaf_count())
    });

    let snapshot = Snapshot::freeze(0, &tree).unwrap();
    let rect = Rect::from_bounds(0.4, 0.4, 0.45, 0.45);
    let target = Point2::new(0.371, 0.629);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    group.bench_function("serve_range_1e5", |b| {
        b.iter(|| {
            snapshot.range_into(black_box(&rect), &mut scratch, &mut out);
            out.len()
        })
    });
    // ≈2250 hits, where the 0.05-side window above holds ≈250: the
    // sort grows with the hits, the descent's block and filter work
    // with the window's perimeter.
    let wide = Rect::from_bounds(0.4, 0.4, 0.55, 0.55);
    group.bench_function("serve_range_wide_1e5", |b| {
        b.iter(|| {
            snapshot.range_into(black_box(&wide), &mut scratch, &mut out);
            out.len()
        })
    });
    group.bench_function("serve_count_1e5", |b| {
        b.iter(|| snapshot.count_with(black_box(&rect), &mut scratch))
    });
    group.bench_function("serve_knn10_1e5", |b| {
        b.iter(|| {
            snapshot.knn_into(black_box(&target), 10, &mut scratch, &mut out);
            out.len()
        })
    });
    // The load's square sides run 0.005–0.15 and its k 1..16, drawn
    // like perfbench's mix: the single 0.05-side window above cuts few
    // blocks and under-represents the walk a mixed load pays for.
    let queries = Arc::new(load_queries());
    let (mut ranges, mut counts, mut knns) = (Vec::new(), Vec::new(), Vec::new());
    for q in queries.iter() {
        match *q {
            Query::Range(r) if ranges.len() < MIX => ranges.push(r),
            Query::Count(r) if counts.len() < MIX => counts.push(r),
            Query::Knn(t, k) if knns.len() < MIX => knns.push((t, k)),
            _ => {}
        }
    }
    group.bench_function("serve_range_mix_1e5", |b| {
        b.iter(|| {
            let mut hits = 0;
            for r in &ranges {
                snapshot.range_into(black_box(r), &mut scratch, &mut out);
                hits += out.len();
            }
            hits
        })
    });
    group.bench_function("serve_count_mix_1e5", |b| {
        b.iter(|| {
            counts
                .iter()
                .map(|r| snapshot.count_with(black_box(r), &mut scratch))
                .sum::<usize>()
        })
    });
    group.bench_function("serve_knn_mix_1e5", |b| {
        b.iter(|| {
            let mut found = 0;
            for (t, k) in &knns {
                snapshot.knn_into(black_box(t), *k, &mut scratch, &mut out);
                found += out.len();
            }
            found
        })
    });

    // The sort alone. Each iteration copies the unsorted input into the
    // buffer it sorts, so both rows of a pair pay the same copy.
    for (shape, n) in SORT_SHAPES.iter().flat_map(|s| [(s, 1_000), (s, 10_000)]) {
        let input = sort_input(shape, n);
        let mut buf = input.clone();
        let label = format!("{shape}_1e{}", n.ilog10());
        group.bench_function(format!("sort_comparator_{label}"), |b| {
            b.iter(|| {
                buf.copy_from_slice(black_box(&input));
                buf.sort_unstable_by(Point2::canonical_cmp);
                buf.len()
            })
        });
        group.bench_function(format!("sort_bucket_{label}"), |b| {
            b.iter(|| {
                buf.copy_from_slice(black_box(&input));
                scratch.sort_canonical(&mut buf);
                buf.len()
            })
        });
    }

    // Batch execution: a 4096-rect load served one query at a time in
    // caller (random) order (`query_batch_serial`) vs through the
    // Morton-scheduled batch form (`query_batch_sorted`). Answers are
    // asserted bit-identical, original order included, before any
    // timing — the schedule is a throughput knob, never an answer knob.
    // The schedule's point is leaf-slab locality, so this pair runs
    // against its own larger snapshot (BATCH_N points ≈ 16 MB of point
    // slab, well past a per-core L2), built and frozen by
    // `Snapshot::from_points`; small windows keep each query's own
    // footprint tiny so the *order* of queries is what moves the
    // working set.
    let batch_snapshot = {
        let mut rng = StdRng::seed_from_u64(0x5e_21f);
        let pts = UniformRect::unit().sample_n(&mut rng, BATCH_N);
        Snapshot::from_points(0, Rect::unit(), CAPACITY, pts).unwrap()
    };
    let rects: Vec<Rect> = {
        let mut rng = StdRng::seed_from_u64(0xba_7c4);
        (0..LOAD)
            .map(|_| {
                let x = rng.random_range(0.0..0.96);
                let y = rng.random_range(0.0..0.96);
                let w = rng.random_range(0.002..0.03);
                Rect::from_bounds(x, y, x + w, y + w)
            })
            .collect()
    };
    let mut batch_scratch = BatchScratch::new();
    let mut answers = BatchAnswers::new();
    batch_snapshot.range_batch_into(&rects, &mut batch_scratch, &mut answers);
    for (i, r) in rects.iter().enumerate() {
        batch_snapshot.range_into(r, &mut scratch, &mut out);
        assert!(
            answers.answer(i).len() == out.len()
                && answers
                    .answer(i)
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()),
            "batch answer {i} not bit-identical to serial"
        );
    }
    group.bench_function("query_batch_serial", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for r in &rects {
                batch_snapshot.range_into(black_box(r), &mut scratch, &mut out);
                total += out.len();
            }
            total
        })
    });
    group.bench_function("query_batch_sorted", |b| {
        b.iter(|| {
            batch_snapshot.range_batch_into(black_box(&rects), &mut batch_scratch, &mut answers);
            answers.total_points()
        })
    });
    drop(batch_snapshot);

    // Multi-reader load: the same 4096 queries at 1, 2 and 4 readers.
    // Bit-identity across reader counts is asserted before any timing.
    let publisher = SnapshotPublisher::new(snapshot);
    let reference = run_readers(&publisher, &queries, 1);
    for readers in [2usize, 4] {
        assert_eq!(
            run_readers(&publisher, &queries, readers),
            reference,
            "merged result log must be bit-identical at {readers} readers"
        );
    }
    for readers in [1usize, 2, 4] {
        group.bench_function(format!("readers_x{readers}"), |b| {
            b.iter(|| run_readers(&publisher, &queries, black_box(readers)).len())
        });
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_query
}
criterion_main!(benches);
