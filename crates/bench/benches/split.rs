//! Bench for the split-tree platform: the m-ary search tree (the one
//! split-tree member whose build is comparison-based rather than
//! coordinate-based) plus the SplitSpec model derivation itself.
//!
//! * `build_mary_b{3,8}`: a paper-scale bulk build (10⁵ uniform keys) by
//!   stable partition;
//! * `census_of_mary_b{3,8}`: the census alone of the same build
//!   (`census_of`, what the `split` driver runs), next to it;
//! * `insert_loop_mary_b{3,8}`: the same tree from `new` plus one
//!   `insert` per key — the incremental path (pivot promotion, census
//!   updates), and the reference `build_mary_b{3,8}` is read against,
//!   since only ratios within one run repeat on a shared host;
//! * `census_mary_b8`: one census snapshot (occupancy profile +
//!   depth-table reads + path-length totals), which must stay an O(m)
//!   read of maintained state, never a traversal;
//! * `probe_depth_mary_b8`: the gap-weighted expected insertion depth —
//!   the `split` experiment's per-trial observable;
//! * `derive_uniform_b16_m32` / `derive_mary_b8`: deriving a transform
//!   matrix from a `SplitSpec` (the work the refactor moved out of every
//!   model constructor's hand-built loop).

use popan_bench::{criterion_group, criterion_main, Criterion};
use popan_core::SplitSpec;
use popan_rng::rngs::StdRng;
use popan_rng::SeedableRng;
use popan_spatial::MarySearchTree;
use popan_workload::keys::UniformKeys;
use std::hint::black_box;

const BUILD_N: usize = 100_000;

fn sample_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    UniformKeys.sample_n(&mut rng, n)
}

fn bench_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("split");
    let keys = sample_keys(BUILD_N, 1);

    for b in [3usize, 8] {
        group.bench_function(format!("build_mary_b{b}"), |bch| {
            bch.iter(|| {
                MarySearchTree::build(b, black_box(keys.iter().copied()))
                    .unwrap()
                    .len()
            })
        });
        group.bench_function(format!("census_of_mary_b{b}"), |bch| {
            bch.iter(|| {
                MarySearchTree::census_of(b, black_box(keys.clone()))
                    .unwrap()
                    .total_path_length()
            })
        });
        group.bench_function(format!("insert_loop_mary_b{b}"), |bch| {
            bch.iter(|| {
                let mut tree = MarySearchTree::new(b).unwrap();
                for &key in black_box(&keys) {
                    tree.insert(key);
                }
                tree.len()
            })
        });
    }

    // Census snapshot: the experiment's read per ladder point.
    group.bench_function("census_mary_b8", |bch| {
        let tree = MarySearchTree::build(8, keys.iter().copied()).unwrap();
        bch.iter(|| {
            let profile = tree.occupancy_profile();
            let table = tree.depth_table();
            (
                profile.average_occupancy(),
                table.total_item_path_length(),
                tree.total_path_length(),
                tree.leaf_count(),
            )
        })
    });

    group.bench_function("probe_depth_mary_b8", |bch| {
        let tree = MarySearchTree::build(8, keys.iter().copied()).unwrap();
        bch.iter(|| tree.expected_insertion_depth())
    });

    // Model derivation: spec → full transform matrix.
    group.bench_function("derive_uniform_b16_m32", |bch| {
        let spec = SplitSpec::uniform(16, 32).unwrap();
        bch.iter(|| {
            let t = black_box(&spec).transform().unwrap();
            t.row_sums()[spec.capacity()]
        })
    });
    group.bench_function("derive_mary_b8", |bch| {
        let spec = SplitSpec::mary_search_tree(8).unwrap();
        bch.iter(|| {
            let t = black_box(&spec).transform().unwrap();
            t.row_sums()[spec.capacity()]
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_split
}
criterion_main!(benches);
