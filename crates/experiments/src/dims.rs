//! Extension: does the model generalize across branching factors?
//!
//! The paper claims "the same principles apply in the case of octrees and
//! higher dimensional data structures". This experiment solves the
//! generalized model for `b ∈ {2, 4, 8, 16}` and validates each against
//! the matching simulated structure (bintree, PR quadtree, and the PR
//! octree and 4-d tree as `PrTreeNd<3>` and `PrTreeNd<4>`). The headline
//! finding beyond the paper: the count-proportional model's aging bias
//! *grows with branching factor*, while the area-weighted mean field
//! stays within a few percent of measurement everywhere.

use crate::config::ExperimentConfig;
use crate::report::TableData;
use popan_core::{PrModel, SteadyStateSolver};
use popan_geom::{BoxN, Rect};
use popan_spatial::{Bintree, PrQuadtree, PrTreeNd};
use popan_workload::points::{uniform_in_box, PointSource, UniformRect};

/// Result for one structure.
#[derive(Debug, Clone)]
pub struct DimsRow {
    /// Structure name.
    pub structure: &'static str,
    /// Branching factor.
    pub branching: usize,
    /// Node capacity used.
    pub capacity: usize,
    /// Count-proportional model prediction (the paper's theory column).
    pub theory: f64,
    /// Area-weighted mean-field prediction (aging-corrected), cycle-
    /// averaged.
    pub mean_field: f64,
    /// Measured average occupancy, cycle-averaged.
    pub experiment: f64,
    /// `100·(theory − experiment)/experiment`.
    pub percent_difference: f64,
}

/// Runs the validation for all four structures at the given capacity.
///
/// Because phasing makes the occupancy at any single tree size a biased
/// sample (the oscillation does not damp), each measurement averages over
/// four sizes spanning one full ×b phasing cycle.
pub fn run(config: &ExperimentConfig, capacity: usize) -> Vec<DimsRow> {
    let theory = |branching: usize| -> f64 {
        let model = PrModel::with_branching(branching, capacity).expect("valid model");
        SteadyStateSolver::new()
            .solve(&model)
            .expect("model solves")
            .distribution()
            .average_occupancy()
    };
    // Four sizes per structure covering one ×b cycle.
    let cycle_sizes = |b: usize| -> Vec<usize> {
        (0..4)
            .map(|k| (config.points as f64 * (b as f64).powf(k as f64 / 4.0)) as usize)
            .collect()
    };
    let engine = config.engine();
    let cycle_mean = |salt: u64,
                      b: usize,
                      build: &(dyn Fn(&mut popan_rng::rngs::StdRng, usize) -> f64 + Sync)|
     -> f64 {
        let sizes = cycle_sizes(b);
        let total: f64 = sizes
            .iter()
            .map(|&n| {
                engine.mean_trials(config.runner(salt ^ (n as u64) << 20), |_, rng| {
                    build(rng, n)
                })
            })
            .sum();
        total / sizes.len() as f64
    };

    // Area-weighted mean-field prediction, cycle-averaged over one ×b
    // span starting where the measured trees live.
    let mean_field = |b: usize| -> f64 {
        let mut t = popan_core::dynamics::MeanFieldTree::new(b, capacity).expect("valid");
        let start = config.points;
        t.run(start);
        let mut n = start;
        let mut samples = Vec::new();
        for k in 1..=8 {
            let target = (start as f64 * (b as f64).powf(k as f64 / 8.0)) as usize;
            t.run(target - n);
            n = target;
            samples.push(t.average_occupancy());
        }
        samples.iter().sum::<f64>() / samples.len() as f64
    };

    let mut rows = Vec::new();
    let make_row =
        |structure: &'static str, branching: usize, thy: f64, mf: f64, occ: f64| DimsRow {
            structure,
            branching,
            capacity,
            theory: thy,
            mean_field: mf,
            experiment: occ,
            percent_difference: 100.0 * (thy - occ) / occ,
        };

    let occ = cycle_mean(0xd1b2, 2, &|rng, n| {
        Bintree::census_of(Rect::unit(), capacity, UniformRect::unit().sample_n(rng, n))
            .expect("in-region points")
            .profile()
            .average_occupancy()
    });
    rows.push(make_row("bintree", 2, theory(2), mean_field(2), occ));

    let occ = cycle_mean(0xd1b4, 4, &|rng, n| {
        PrQuadtree::census_of(Rect::unit(), capacity, UniformRect::unit().sample_n(rng, n))
            .expect("in-region points")
            .profile()
            .average_occupancy()
    });
    rows.push(make_row("PR quadtree", 4, theory(4), mean_field(4), occ));

    let occ = cycle_mean(0xd1b8, 8, &|rng, n| {
        let points = uniform_in_box(&BoxN::unit(), rng, n);
        PrTreeNd::<3>::census_of(BoxN::unit(), capacity, points)
            .expect("in-region points")
            .profile()
            .average_occupancy()
    });
    rows.push(make_row("PR octree", 8, theory(8), mean_field(8), occ));

    // 4-D hypercube tree (b = 16).
    let occ = cycle_mean(0xd1b16, 16, &|rng, n| {
        let points = uniform_in_box(&BoxN::unit(), rng, n);
        PrTreeNd::<4>::census_of(BoxN::unit(), capacity, points)
            .expect("in-region points")
            .profile()
            .average_occupancy()
    });
    rows.push(make_row("PR 4-d tree", 16, theory(16), mean_field(16), occ));

    rows
}

/// Renders the validation table (capacity 4).
pub fn table(config: &ExperimentConfig) -> TableData {
    let rows = run(config, 4);
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.to_string(),
                r.branching.to_string(),
                r.capacity.to_string(),
                format!("{:.3}", r.theory),
                format!("{:.3}", r.mean_field),
                format!("{:.3}", r.experiment),
                format!("{:+.1}", r.percent_difference),
            ]
        })
        .collect();
    TableData::new(
        "dims",
        "Generalized model vs simulation across branching factors (extension)",
        vec![
            "structure".into(),
            "b".into(),
            "m".into(),
            "count model".into(),
            "area mean-field".into(),
            "measured".into(),
            "% diff (count)".into(),
        ],
        body,
    )
    .with_note(
        "the count-proportional model over-predicts for every b, and the bias grows \
         with b (aging strengthens with branching factor: ≈4% at b=2 to ≈50% at \
         b=16); the area-weighted mean field tracks measurement closely for all four",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_all_structures() {
        let cfg = ExperimentConfig {
            trials: 4,
            points: 1500,
            ..ExperimentConfig::paper()
        };
        let rows = run(&cfg, 4);
        for row in &rows {
            // Aging: the count model over-predicts for every structure;
            // the bias grows with b (≈4% at b=2 up to ≈50% at b=16).
            assert!(
                row.percent_difference > 0.0 && row.percent_difference < 60.0,
                "{}: theory {} vs measured {} ({}%)",
                row.structure,
                row.theory,
                row.experiment,
                row.percent_difference
            );
            // The area-weighted mean field closes the gap: within 6% of
            // measurement for every branching factor.
            let mf_rel = (row.mean_field - row.experiment).abs() / row.experiment;
            assert!(
                mf_rel < 0.06,
                "{}: mean-field {} vs measured {} (rel {mf_rel:.3})",
                row.structure,
                row.mean_field,
                row.experiment
            );
        }
        // The aging bias grows with branching factor.
        for w in rows.windows(2) {
            assert!(
                w[0].percent_difference < w[1].percent_difference,
                "bias should grow with b: {:?}",
                rows.iter()
                    .map(|r| r.percent_difference)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn occupancy_ordering_matches_theory_across_b() {
        // Theory predicts bintree > quadtree > octree; measurements agree.
        let cfg = ExperimentConfig {
            trials: 3,
            points: 1000,
            ..ExperimentConfig::paper()
        };
        let rows = run(&cfg, 4);
        for w in rows.windows(2) {
            assert!(w[0].experiment > w[1].experiment, "measured ordering");
            assert!(w[0].theory > w[1].theory, "theory ordering");
        }
    }

    #[test]
    fn table_renders() {
        let t = table(&ExperimentConfig::quick());
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("bintree"));
    }
}
