//! Bench for the arena-backed spatial core: every benchmark comes as a
//! before/after pair — `*_boxed` runs the frozen boxed oracle
//! (`popan_spatial::reference::BoxedPrQuadtree`, the pre-arena
//! implementation kept as a test oracle), `*_arena` the production
//! arena tree — so `BENCH_spatial.json` records the rewrite's effect
//! directly:
//!
//! * `build_*`: a paper-scale tree build (10⁵ uniform points) at
//!   m ∈ {1, 8, 16}, and the bintree and octree (`PrTreeNd<3>`) bulk
//!   builds at m = 4 (arena only);
//! * `census_of_arena_*`: the census alone of each arena `build_*` row,
//!   on the same input, run next to it (`census_of`, the census-only
//!   drivers' entry), so the two rows' ratio is the saving;
//! * `freeze_from_tree_churned`: `LinearQuadtree::from_tree` on a
//!   2×10⁵-point clustered m=8 tree after 8 churn epochs, each
//!   replacing 2.5% of the points (the freeze `churn_clustered` runs
//!   every epoch);
//! * `insert_remove_*`: one incremental insert+remove round trip on a
//!   prebuilt 10⁵-point tree (the census hooks ride on this path);
//! * `census_*`: one occupancy-profile + depth-table + leaf-count
//!   snapshot — a full traversal on the boxed tree vs an O(m) read of
//!   the incrementally maintained census on the arena;
//! * `churn_*`: a churn-style workload (insert/delete cycles with a
//!   census snapshot every 64 operations), the access pattern of the
//!   churn/phasing/aging experiments.

use popan_bench::{criterion_group, criterion_main, Criterion};
use popan_geom::{BoxN, Point2, Rect};
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::reference::BoxedPrQuadtree;
use popan_spatial::{
    Bintree, LinearQuadtree, OccupancyInstrumented, OccupancyProfile, PrQuadtree, PrTreeNd,
};
use popan_workload::points::{uniform_in_box, Clustered, PointSource, UniformRect};
use std::hint::black_box;

const BUILD_N: usize = 100_000;
const CHURN_N: usize = 10_000;

fn sample(n: usize, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    UniformRect::unit().sample_n(&mut rng, n)
}

/// A 2×10⁵-point clustered m=8 tree (64 parents, σ = 0.02) after 8
/// epochs that each remove 5000 uniformly chosen live points and insert
/// 5000 fresh clustered ones.
fn churned_clustered_tree() -> PrQuadtree {
    let mut rng = StdRng::seed_from_u64(3);
    let source = Clustered::new(Rect::unit(), 64, 0.02, &mut rng);
    let mut live = source.sample_n(&mut rng, 200_000);
    let mut tree = PrQuadtree::build(Rect::unit(), 8, live.iter().copied()).unwrap();
    for _ in 0..8 {
        for _ in 0..5_000 {
            let p = live.swap_remove(rng.random_range(0..live.len()));
            assert!(tree.remove(&p));
        }
        for _ in 0..5_000 {
            let p = source.sample(&mut rng);
            tree.insert(p).unwrap();
            live.push(p);
        }
    }
    tree
}

fn bench_spatial(c: &mut Criterion) {
    let mut group = c.benchmark_group("spatial");
    let points = sample(BUILD_N, 1);

    for m in [1usize, 8, 16] {
        group.bench_function(format!("build_boxed_m{m}"), |b| {
            b.iter(|| {
                BoxedPrQuadtree::build(Rect::unit(), m, black_box(points.iter().copied()))
                    .unwrap()
                    .len()
            })
        });
        group.bench_function(format!("build_arena_m{m}"), |b| {
            b.iter(|| {
                PrQuadtree::build(Rect::unit(), m, black_box(points.iter().copied()))
                    .unwrap()
                    .len()
            })
        });
        group.bench_function(format!("census_of_arena_m{m}"), |b| {
            b.iter(|| {
                PrQuadtree::census_of(Rect::unit(), m, black_box(points.clone()))
                    .unwrap()
                    .leaf_count()
            })
        });
    }

    group.bench_function("build_arena_bintree_m4", |b| {
        b.iter(|| {
            Bintree::build(Rect::unit(), 4, black_box(points.iter().copied()))
                .unwrap()
                .len()
        })
    });
    group.bench_function("census_of_arena_bintree_m4", |b| {
        b.iter(|| {
            Bintree::census_of(Rect::unit(), 4, black_box(points.clone()))
                .unwrap()
                .leaf_count()
        })
    });
    let points3 = uniform_in_box::<3>(&BoxN::unit(), &mut StdRng::seed_from_u64(1), BUILD_N);
    group.bench_function("build_arena_octree_m4", |b| {
        b.iter(|| {
            PrTreeNd::build(BoxN::unit(), 4, black_box(points3.iter().copied()))
                .unwrap()
                .len()
        })
    });
    group.bench_function("census_of_arena_octree_m4", |b| {
        b.iter(|| {
            PrTreeNd::census_of(BoxN::unit(), 4, black_box(points3.clone()))
                .unwrap()
                .leaf_count()
        })
    });

    let churned = churned_clustered_tree();
    group.bench_function("freeze_from_tree_churned", |b| {
        b.iter(|| {
            LinearQuadtree::from_tree(black_box(&churned))
                .unwrap()
                .leaf_count()
        })
    });

    // Incremental operation cost: insert + remove restores the tree, so
    // the prebuilt structure is reused across iterations.
    let extra = Point2::new(0.123_456, 0.654_321);
    group.bench_function("insert_remove_boxed_m8", |b| {
        let mut tree = BoxedPrQuadtree::build(Rect::unit(), 8, points.iter().copied()).unwrap();
        b.iter(|| {
            tree.insert(black_box(extra)).unwrap();
            assert!(tree.remove(&extra));
        })
    });
    group.bench_function("insert_remove_arena_m8", |b| {
        let mut tree = PrQuadtree::build(Rect::unit(), 8, points.iter().copied()).unwrap();
        b.iter(|| {
            tree.insert(black_box(extra)).unwrap();
            assert!(tree.remove(&extra));
        })
    });

    // Census snapshot: the read the experiments take per data point.
    group.bench_function("census_boxed_m8", |b| {
        let tree = BoxedPrQuadtree::build(Rect::unit(), 8, points.iter().copied()).unwrap();
        b.iter(|| {
            // The pre-arena path: a full traversal per snapshot.
            let profile = OccupancyInstrumented::occupancy_profile(&tree);
            let table = OccupancyInstrumented::depth_table(&tree);
            (
                profile.average_occupancy(),
                table.depths().len(),
                tree.leaf_count(),
            )
        })
    });
    group.bench_function("census_arena_m8", |b| {
        let tree = PrQuadtree::build(Rect::unit(), 8, points.iter().copied()).unwrap();
        b.iter(|| {
            let profile = tree.occupancy_profile();
            let table = tree.depth_table();
            (
                profile.average_occupancy(),
                table.leaves_at(0),
                tree.leaf_count(),
            )
        })
    });
    // The dominant cost inside a snapshot is profile construction; this
    // pair isolates exactly that (build-from-leaf-walk vs mix over the
    // maintained counts).
    group.bench_function("census_profile_boxed_m8", |b| {
        let tree = BoxedPrQuadtree::build(Rect::unit(), 8, points.iter().copied()).unwrap();
        b.iter(|| OccupancyProfile::from_leaves(&tree.leaf_records()).average_occupancy())
    });
    group.bench_function("census_profile_arena_m8", |b| {
        let tree = PrQuadtree::build(Rect::unit(), 8, points.iter().copied()).unwrap();
        b.iter(|| tree.occupancy_profile().average_occupancy())
    });

    // Churn workload with periodic census snapshots — the experiments'
    // access pattern (churn, aging, phasing all measure while mutating).
    let churn_points = sample(2 * CHURN_N, 2);
    group.bench_function("churn_boxed_m4", |b| {
        b.iter(|| {
            let mut tree =
                BoxedPrQuadtree::build(Rect::unit(), 4, churn_points[..CHURN_N].iter().copied())
                    .unwrap();
            let mut acc = 0.0f64;
            for (i, (del, ins)) in churn_points[..CHURN_N]
                .iter()
                .zip(&churn_points[CHURN_N..])
                .enumerate()
            {
                assert!(tree.remove(del));
                tree.insert(*ins).unwrap();
                if i % 64 == 0 {
                    acc += OccupancyInstrumented::occupancy_profile(&tree).average_occupancy();
                }
            }
            acc
        })
    });
    group.bench_function("churn_arena_m4", |b| {
        b.iter(|| {
            let mut tree =
                PrQuadtree::build(Rect::unit(), 4, churn_points[..CHURN_N].iter().copied())
                    .unwrap();
            let mut acc = 0.0f64;
            for (i, (del, ins)) in churn_points[..CHURN_N]
                .iter()
                .zip(&churn_points[CHURN_N..])
                .enumerate()
            {
                assert!(tree.remove(del));
                tree.insert(*ins).unwrap();
                if i % 64 == 0 {
                    acc += tree.occupancy_profile().average_occupancy();
                }
            }
            acc
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_spatial
}
criterion_main!(benches);
