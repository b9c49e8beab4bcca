//! Micro-benchmarks and ablations for the core building blocks:
//! solver methods, tree insertion throughput across structures,
//! extendible-hashing throughput, PMR insertion, and the Monte-Carlo
//! transform estimation.

use popan_bench::{criterion_group, criterion_main, Criterion};
use popan_core::pmr_model::{PmrModel, RandomChords};
use popan_core::{PrModel, SolveMethod, SteadyStateSolver};
use popan_exthash::ExtendibleHashTable;
use popan_geom::{BoxN, Rect};
use popan_rng::rngs::StdRng;
use popan_rng::SeedableRng;
use popan_spatial::{Bintree, PmrQuadtree, PrQuadtree, PrTreeNd};
use popan_workload::keys::UniformKeys;
use popan_workload::lines::{SegmentSource, UniformEndpoints};
use popan_workload::points::{uniform_in_box, PointSource, UniformRect};
use std::hint::black_box;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    for m in [4usize, 8, 16] {
        let model = PrModel::quadtree(m).unwrap();
        group.bench_function(format!("fixed_point_m{m}"), |b| {
            b.iter(|| {
                SteadyStateSolver::new()
                    .method(SolveMethod::FixedPoint)
                    .solve(black_box(&model))
                    .unwrap()
            })
        });
        group.bench_function(format!("newton_m{m}"), |b| {
            b.iter(|| {
                SteadyStateSolver::new()
                    .method(SolveMethod::Newton)
                    .solve(black_box(&model))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_tree_builds(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build_2000pts_m4");
    let mut rng = StdRng::seed_from_u64(1);
    let pts2 = UniformRect::unit().sample_n(&mut rng, 2000);
    let pts3 = uniform_in_box::<3>(&BoxN::unit(), &mut rng, 2000);
    group.bench_function("pr_quadtree", |b| {
        b.iter(|| PrQuadtree::build(Rect::unit(), 4, black_box(pts2.iter().copied())).unwrap())
    });
    group.bench_function("bintree", |b| {
        b.iter(|| Bintree::build(Rect::unit(), 4, black_box(pts2.iter().copied())).unwrap())
    });
    group.bench_function("pr_octree", |b| {
        b.iter(|| PrTreeNd::build(BoxN::unit(), 4, black_box(pts3.iter().copied())).unwrap())
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries");
    let mut rng = StdRng::seed_from_u64(2);
    let pts = UniformRect::unit().sample_n(&mut rng, 10_000);
    let tree = PrQuadtree::build(Rect::unit(), 4, pts).unwrap();
    let window = Rect::from_bounds(0.4, 0.4, 0.6, 0.6);
    group.bench_function("range_query_4pct_window", |b| {
        b.iter(|| tree.range_query(black_box(&window)))
    });
    group.bench_function("nearest_neighbor", |b| {
        let target = popan_geom::Point2::new(0.37, 0.61);
        b.iter(|| tree.nearest(black_box(&target)))
    });
    group.finish();
}

fn bench_exthash(c: &mut Criterion) {
    let mut group = c.benchmark_group("exthash");
    let mut rng = StdRng::seed_from_u64(3);
    let keys = UniformKeys.sample_n(&mut rng, 10_000);
    group.bench_function("insert_10k_b8", |b| {
        b.iter(|| {
            let mut t = ExtendibleHashTable::new(8).unwrap();
            for &k in black_box(&keys) {
                t.insert(k);
            }
            t.bucket_count()
        })
    });
    let mut table = ExtendibleHashTable::new(8).unwrap();
    for &k in &keys {
        table.insert(k);
    }
    group.bench_function("lookup_hit", |b| {
        b.iter(|| table.contains(black_box(keys[1234])))
    });
    group.finish();
}

fn bench_pmr(c: &mut Criterion) {
    let mut group = c.benchmark_group("pmr");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(4);
    let segs = UniformEndpoints::unit().sample_n(&mut rng, 300);
    group.bench_function("build_300_segments_t4", |b| {
        b.iter(|| PmrQuadtree::build(Rect::unit(), 4, black_box(segs.iter().copied())).unwrap())
    });
    group.bench_function("mc_transform_estimation_2k", |b| {
        b.iter(|| PmrModel::estimate(4, 4, &RandomChords, 2_000, black_box(7)).unwrap())
    });
    // The `pmr` driver's own estimate: t = 4, 6 classes above it, 20,000
    // draws per split row.
    group.bench_function("mc_transform_estimation_20k_t4", |b| {
        b.iter(|| PmrModel::estimate(4, 6, &RandomChords, 20_000, black_box(7)).unwrap())
    });
    group.finish();
}

fn bench_dynamics(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamics");
    group.bench_function("mean_field_1000_insertions_m8", |b| {
        b.iter(|| {
            let mut t = popan_core::dynamics::MeanFieldTree::new(4, 8).unwrap();
            t.run(black_box(1000));
            t.average_occupancy()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_solvers, bench_tree_builds, bench_queries, bench_exthash, bench_pmr, bench_dynamics
}
criterion_main!(benches);
