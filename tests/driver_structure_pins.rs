//! Raw-bit pins for the structures the heaviest registry drivers build.
//!
//! `artifact_goldens` compares rendered tables, and those round their
//! numbers, so a change that moves a low bit of a structure's output can
//! still pass there. Each test below folds one structure's raw outputs —
//! counts as integers, `f64`s by their IEEE bits — into one FNV-1a
//! digest and pins it:
//!
//! * the extendible hash table (`exthash` driver): bucket count, global
//!   depth, utilization and the occupancy census after every insert;
//! * the m-ary search tree (`split` driver), `b ∈ {2, 3, 8}`: in-order
//!   keys, leaf records, path length, expected insertion depth and node
//!   count along a doubling ladder;
//! * the bulk-built m-ary search tree (`split` driver's
//!   `MarySearchTree::build`), `b ∈ {3, 8}` over the driver's ladder
//!   `n = 1000·2^k`, `k = 0…6`: only outputs that do not depend on node
//!   ids — every depth-table class count, pivot count, path length,
//!   expected insertion depth, node count and in-order keys;
//! * the bulk-built PR trees of the drivers that read only a census:
//!   `split`'s bintree, quadtree and octree at `m = 4` over its ladder
//!   `n = 1000·2^k`, `k = 0…6`, `dims`' octree and 4-d tree at `m = 4`
//!   over their ×8 and ×16 cycles, and `phasing_sweep`'s quadtree at
//!   `m ∈ {1, 2, 4, 8, 16}` over its ×√2 ladder, each with the driver's
//!   trial seeds at the paper protocol: every depth-table class count
//!   and the leaf count;
//! * the mean-field tree (`dims`, `aging` and `phasing_sweep`): average
//!   occupancy, occupancy distribution and level table along a doubling
//!   ladder, for the `(b, m)` pairs those drivers step;
//! * the PMR quadtree (`pmr` driver), thresholds `{1, 2, 4}`: leaf
//!   records in traversal order, node count, and the answers for a
//!   centre window and a 1/1024-wide strip on the x midline;
//! * the Monte-Carlo PMR model, thresholds `{2, 4, 6}`: every transform
//!   entry of the chord and short-segment models, and the chord model's
//!   steady-state proportions.
//!
//! A failure prints the new digest.

use popan::core::dynamics::MeanFieldTree;
use popan::core::pmr_model::{PmrModel, RandomChords, ShortSegments};
use popan::core::{PopulationModel, SteadyStateSolver};
use popan::experiments::ExperimentConfig;
use popan::exthash::ExtendibleHashTable;
use popan::geom::{BoxN, Point2, Rect, Segment2};
use popan::spatial::{
    Bintree, DepthOccupancyTable, MarySearchTree, OccupancyInstrumented, PmrQuadtree, PrQuadtree,
    PrTreeNd,
};
use popan::workload::keys::UniformKeys;
use popan::workload::lines::{SegmentSource, UniformEndpoints};
use popan::workload::points::{uniform_in_box, PointSource, UniformRect};
use popan::workload::TrialRunner;
use popan_rng::hash::Fnv64;

fn assert_pin(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: digest moved to {got:#018x} (pinned {pinned:#018x})"
    );
}

#[test]
fn extendible_hash_tables_match_their_pin() {
    let mut h = Fnv64::new();
    for (capacity, keys) in [(8usize, 32_768usize), (2, 4096), (1, 1000)] {
        let mut rng = TrialRunner::new(0xe8a5 + capacity as u64, 1).rng_for_trial(0);
        let mut table = ExtendibleHashTable::new(capacity).unwrap();
        for key in UniformKeys.sample_n(&mut rng, keys) {
            table.insert(key);
            h.write_u64(table.bucket_count() as u64);
            h.write_u32(table.global_depth());
            h.write_f64(table.utilization());
            for count in table.occupancy_counts() {
                h.write_u64(count);
            }
        }
    }
    assert_pin("exthash", h.finish(), 0x08f9_4902_8fa1_0748);
}

fn fold_mary(h: &mut Fnv64, tree: &MarySearchTree) {
    for key in tree.keys() {
        h.write_u64(key);
    }
    for record in tree.leaf_records() {
        h.write_u32(record.depth);
        h.write_u64(record.occupancy as u64);
    }
    h.write_u64(tree.total_path_length());
    h.write_f64(tree.expected_insertion_depth());
    h.write_u64(tree.node_count() as u64);
}

#[test]
fn mary_search_trees_match_their_pin() {
    let mut h = Fnv64::new();
    for branch in [2usize, 3, 8] {
        let mut rng = TrialRunner::new(0x5117 + branch as u64, 1).rng_for_trial(0);
        // Uniform keys, then a narrow range where equal keys route right.
        let uniform = UniformKeys.sample_n(&mut rng, 4096);
        let narrow: Vec<u64> = UniformKeys
            .sample_n(&mut rng, 512)
            .into_iter()
            .map(|k| k % 40)
            .collect();
        for keys in [uniform, narrow] {
            let mut tree = MarySearchTree::new(branch).unwrap();
            for (i, &key) in keys.iter().enumerate() {
                tree.insert(key);
                if (i + 1).is_power_of_two() || i + 1 == keys.len() {
                    fold_mary(&mut h, &tree);
                }
            }
        }
    }
    assert_pin("m-ary", h.finish(), 0xfedb_c6e4_834f_9575);
}

#[test]
fn mary_search_tree_builds_match_their_pin() {
    let mut h = Fnv64::new();
    for branch in [3usize, 8] {
        let runner = TrialRunner::new(0x5917 + branch as u64, 7);
        for k in 0..=6 {
            let n = 1000usize << k;
            let keys = UniformKeys.sample_n(&mut runner.rng_for_trial(k), n);
            let tree = MarySearchTree::build(branch, keys).unwrap();
            let table = tree.depth_table();
            for depth in 0..=table.max_depth().unwrap_or(0) {
                for occupancy in 0..branch {
                    h.write_u64(table.count(depth, occupancy));
                }
            }
            h.write_u64(tree.pivot_count() as u64);
            h.write_u64(tree.total_path_length());
            h.write_f64(tree.expected_insertion_depth());
            h.write_u64(tree.node_count() as u64);
            for key in tree.keys() {
                h.write_u64(key);
            }
        }
    }
    assert_pin("m-ary build", h.finish(), 0xeb57_76ae_2ad3_6567);
}

/// Folds every class count of `table`, occupancies up to
/// `max_occupancy`, and the leaf count.
fn fold_census(h: &mut Fnv64, table: &DepthOccupancyTable, max_occupancy: usize, leaves: usize) {
    for depth in 0..=table.max_depth().unwrap_or(0) {
        for occupancy in 0..=max_occupancy {
            h.write_u64(table.count(depth, occupancy));
        }
    }
    h.write_u64(leaves as u64);
}

#[test]
fn census_driver_trees_match_their_pin() {
    let paper = ExperimentConfig::paper();
    let mut h = Fnv64::new();
    // `split`: the ×2 ladder, salt `0x5917 ^ (b << 44) ^ (n << 20)`.
    for k in 0..=6 {
        let n = 1000usize << k;
        let runner = |b: u64| paper.runner(0x5917 ^ (b << 44) ^ (n as u64) << 20);
        for t in 0..paper.trials {
            let pts = UniformRect::unit().sample_n(&mut runner(2).rng_for_trial(t), n);
            let tree = Bintree::build(Rect::unit(), 4, pts).unwrap();
            let max = tree.occupancy_profile().max_occupancy();
            fold_census(&mut h, tree.depth_table(), max, tree.leaf_count());
            let pts = UniformRect::unit().sample_n(&mut runner(4).rng_for_trial(t), n);
            let tree = PrQuadtree::build(Rect::unit(), 4, pts).unwrap();
            let max = tree.occupancy_profile().max_occupancy();
            fold_census(&mut h, tree.depth_table(), max, tree.leaf_count());
            let pts = uniform_in_box::<3>(&BoxN::unit(), &mut runner(8).rng_for_trial(t), n);
            let tree = PrTreeNd::build(BoxN::unit(), 4, pts).unwrap();
            let max = tree.occupancy_profile().max_occupancy();
            fold_census(&mut h, tree.depth_table(), max, tree.leaf_count());
        }
    }
    // `dims`' octree: four sizes over one ×8 cycle, salt
    // `0xd1b8 ^ (n << 20)`.
    for k in 0..4 {
        let n = (paper.points as f64 * 8f64.powf(k as f64 / 4.0)) as usize;
        let runner = paper.runner(0xd1b8 ^ (n as u64) << 20);
        for t in 0..paper.trials {
            let pts = uniform_in_box::<3>(&BoxN::unit(), &mut runner.rng_for_trial(t), n);
            let tree = PrTreeNd::build(BoxN::unit(), 4, pts).unwrap();
            let max = tree.occupancy_profile().max_occupancy();
            fold_census(&mut h, tree.depth_table(), max, tree.leaf_count());
        }
    }
    // `dims`' 4-d tree: four sizes over one ×16 cycle, salt
    // `0xd1b16 ^ (n << 20)`.
    for k in 0..4 {
        let n = (paper.points as f64 * 16f64.powf(k as f64 / 4.0)) as usize;
        let runner = paper.runner(0xd1b16 ^ (n as u64) << 20);
        for t in 0..paper.trials {
            let pts = uniform_in_box::<4>(&BoxN::unit(), &mut runner.rng_for_trial(t), n);
            let tree = PrTreeNd::build(BoxN::unit(), 4, pts).unwrap();
            let max = tree.occupancy_profile().max_occupancy();
            fold_census(&mut h, tree.depth_table(), max, tree.leaf_count());
        }
    }
    // `phasing_sweep`: the ×√2 ladder from 64, salt
    // `0x9a5e ^ (m << 40) ^ n`.
    for m in [1usize, 2, 4, 8, 16] {
        for k in 0..13 {
            let n = (64.0 * 2f64.powf(k as f64 / 2.0)).round() as usize;
            let runner = paper.runner(0x9a5e ^ ((m as u64) << 40) ^ (n as u64));
            for t in 0..paper.trials {
                let pts = UniformRect::unit().sample_n(&mut runner.rng_for_trial(t), n);
                let tree = PrQuadtree::build(Rect::unit(), m, pts).unwrap();
                let max = tree.occupancy_profile().max_occupancy();
                fold_census(&mut h, tree.depth_table(), max, tree.leaf_count());
            }
        }
    }
    assert_pin("census drivers", h.finish(), 0x6e98_b820_53e8_289e);
}

#[test]
fn mean_field_trees_match_their_pin() {
    let mut h = Fnv64::new();
    for (branching, capacity) in [
        (4usize, 1usize),
        (4, 2),
        (4, 4),
        (4, 8),
        (4, 16),
        (2, 4),
        (8, 4),
        (16, 4),
    ] {
        let mut t = MeanFieldTree::new(branching, capacity).unwrap();
        let mut steps = 0;
        for target in [1usize, 2, 64, 100, 1000, 1500, 4096] {
            t.run(target - steps);
            steps = target;
            h.write_f64(t.average_occupancy());
            for &p in t.distribution().unwrap().proportions() {
                h.write_f64(p);
            }
            for (level, leaves, occupancy) in t.level_table(0.0) {
                h.write_u32(level);
                h.write_f64(leaves);
                h.write_f64(occupancy);
            }
            h.write_f64(t.leaf_count());
            h.write_f64(t.total_area());
        }
    }
    assert_pin("mean field", h.finish(), 0x3f0b_b1a8_123a_196d);
}

fn fold_segments(h: &mut Fnv64, segments: &[Segment2]) {
    h.write_u64(segments.len() as u64);
    for s in segments {
        for v in [s.a.x, s.a.y, s.b.x, s.b.y] {
            h.write_f64(v);
        }
    }
}

#[test]
fn pmr_quadtrees_match_their_pin() {
    let centre = Rect::from_bounds(0.25, 0.25, 0.75, 0.75);
    let strip = Rect::from_bounds(0.5 - 1.0 / 2048.0, 0.0, 0.5 + 1.0 / 2048.0, 1.0);
    // Axis-parallel segments on dyadic lines, one per line: they lie on
    // block edges all the way down.
    let on_lines = [
        (0.5, 0.1, 0.5, 0.9),
        (0.05, 0.25, 0.8, 0.25),
        (0.375, 0.6, 0.375, 0.95),
        (0.2, 0.5, 0.7, 0.5),
    ];
    let mut h = Fnv64::new();
    for threshold in [1usize, 2, 4] {
        let mut rng = TrialRunner::new(0x9a72 + threshold as u64, 1).rng_for_trial(0);
        let mut segments = UniformEndpoints::unit().sample_n(&mut rng, 600);
        for (i, &(ax, ay, bx, by)) in on_lines.iter().enumerate() {
            segments.insert(
                100 * (i + 1),
                Segment2::new(Point2::new(ax, ay), Point2::new(bx, by)),
            );
        }
        let mut tree = PmrQuadtree::new(Rect::unit(), threshold).unwrap();
        for (i, &s) in segments.iter().enumerate() {
            tree.insert(s).unwrap();
            if [50, 200, segments.len()].contains(&(i + 1)) {
                for record in tree.leaf_records() {
                    h.write_u32(record.depth);
                    h.write_u64(record.occupancy as u64);
                }
                h.write_u64(tree.node_count() as u64);
                fold_segments(&mut h, &tree.segments_crossing(&centre));
                fold_segments(&mut h, &tree.segments_crossing(&strip));
            }
        }
    }
    assert_pin("pmr", h.finish(), 0x610e_6ea1_f624_25fa);
}

#[test]
fn pmr_models_match_their_pin() {
    let shorts = ShortSegments {
        relative_length: 0.15,
    };
    let mut h = Fnv64::new();
    for threshold in [2usize, 4, 6] {
        let seed = 0x9a7 + threshold as u64;
        let chords = PmrModel::estimate(threshold, 6, &RandomChords, 3000, seed).unwrap();
        let short = PmrModel::estimate(threshold, 6, &shorts, 3000, seed).unwrap();
        for model in [&chords, &short] {
            for &v in model.transform_matrix().matrix().as_slice() {
                h.write_f64(v);
            }
        }
        let steady = SteadyStateSolver::new()
            .tolerance(1e-12)
            .solve(&chords)
            .unwrap();
        for &p in steady.distribution().proportions() {
            h.write_f64(p);
        }
    }
    assert_pin("pmr model", h.finish(), 0x796e_40e8_a558_7eb8);
}
