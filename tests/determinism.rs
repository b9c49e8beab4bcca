//! Reproducibility: everything in the suite is a pure function of its
//! seed. These tests pin that property across crate boundaries — if any
//! component starts consuming ambient randomness or iteration order, the
//! published EXPERIMENTS.md numbers would silently drift.

use popan::experiments::table45::{run_ladder, Workload};
use popan::experiments::{table1, ExperimentConfig};
use popan::exthash::gridfile::GridFile;
use popan::geom::{BoxN, Rect};
use popan::spatial::{OccupancyInstrumented, PrQuadtree, PrTreeNd};
use popan::workload::points::{uniform_in_box, PointSource, UniformRect};
use popan::workload::TrialRunner;

/// Bit-level equality for f64 sequences: `assert_eq!` on floats tolerates
/// `-0.0 == 0.0`; reproducibility demands identical bit patterns.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x:.17e} vs {y:.17e}"
        );
    }
}

fn cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        master_seed: seed,
        trials: 3,
        points: 300,
    }
}

#[test]
fn table1_is_seed_deterministic() {
    let a = table1::run_capacity(&cfg(7), 2);
    let b = table1::run_capacity(&cfg(7), 2);
    assert_eq!(a.experiment, b.experiment);
    assert_eq!(a.theory, b.theory);
    let c = table1::run_capacity(&cfg(8), 2);
    assert_ne!(a.experiment, c.experiment, "different seeds must differ");
}

#[test]
fn sweeps_are_seed_deterministic() {
    let ladder = [64usize, 128, 256];
    let a = run_ladder(&cfg(3), Workload::Gaussian, &ladder);
    let b = run_ladder(&cfg(3), Workload::Gaussian, &ladder);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.nodes, y.nodes);
        assert_eq!(x.occupancy, y.occupancy);
    }
}

#[test]
fn full_table1_pipeline_is_bit_identical_at_paper_scale() {
    // The paper's Table 1 protocol — 10 trees × 1000 uniform points per
    // capacity — run twice from master seed 42 must agree to the last
    // bit, theory and experiment columns alike.
    let cfg = ExperimentConfig {
        master_seed: 42,
        trials: 10,
        points: 1000,
    };
    let a = table1::run(&cfg, 8);
    let b = table1::run(&cfg, 8);
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.capacity, rb.capacity);
        assert_bits_eq(&ra.theory, &rb.theory, "theory");
        assert_bits_eq(&ra.experiment, &rb.experiment, "experiment");
        assert_eq!(
            ra.trial_spread.to_bits(),
            rb.trial_spread.to_bits(),
            "trial_spread"
        );
    }
}

#[test]
fn octrees_from_identical_streams_are_identical() {
    let build = || {
        let mut rng = TrialRunner::new(42, 1).rng_for_trial(0);
        let pts = uniform_in_box::<3>(&BoxN::unit(), &mut rng, 500);
        PrTreeNd::build(BoxN::unit(), 2, pts).unwrap()
    };
    let a = build();
    let b = build();
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.leaf_count(), b.leaf_count());
    assert_bits_eq(
        &a.occupancy_profile().proportions(2),
        &b.occupancy_profile().proportions(2),
        "octree occupancy",
    );
}

#[test]
fn grid_files_from_identical_streams_are_identical() {
    let build = || {
        let mut rng = TrialRunner::new(42, 1).rng_for_trial(0);
        let mut grid = GridFile::new(Rect::unit(), 4).unwrap();
        for p in UniformRect::unit().sample_n(&mut rng, 1000) {
            grid.insert(p).unwrap();
        }
        grid
    };
    let a = build();
    let b = build();
    assert_eq!(a.len(), b.len());
    assert_eq!((a.nx(), a.ny()), (b.nx(), b.ny()));
    assert_eq!(a.bucket_count(), b.bucket_count());
    assert_eq!(a.cell_count(), b.cell_count());
    assert_eq!(a.utilization().to_bits(), b.utilization().to_bits());
}

#[test]
fn trees_from_identical_streams_are_identical() {
    let build = || {
        let mut rng = TrialRunner::new(42, 1).rng_for_trial(0);
        let pts = UniformRect::unit().sample_n(&mut rng, 500);
        PrQuadtree::build(Rect::unit(), 2, pts).unwrap()
    };
    let a = build();
    let b = build();
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.leaf_records(), b.leaf_records());
    assert_eq!(a.points(), b.points());
}

#[test]
fn pmr_model_estimation_is_seed_deterministic() {
    use popan::core::pmr_model::{PmrModel, RandomChords};
    use popan::core::PopulationModel;
    let a = PmrModel::estimate(2, 4, &RandomChords, 1000, 5).unwrap();
    let b = PmrModel::estimate(2, 4, &RandomChords, 1000, 5).unwrap();
    assert_eq!(a.transform_matrix().matrix(), b.transform_matrix().matrix());
}

#[test]
fn solver_is_fully_deterministic() {
    use popan::core::{PrModel, SteadyStateSolver};
    let model = PrModel::quadtree(6).unwrap();
    let a = SteadyStateSolver::new().solve(&model).unwrap();
    let b = SteadyStateSolver::new().solve(&model).unwrap();
    assert_eq!(
        a.distribution().proportions(),
        b.distribution().proportions()
    );
    assert_eq!(a.diagnostics().iterations, b.diagnostics().iterations);
}
