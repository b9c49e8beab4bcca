//! Table 1 — expected distribution in PR quadtrees, theory vs experiment.
//!
//! For each node capacity `m = 1..=8`:
//! * **theory**: solve the `b = 4` PR population model for its steady
//!   state;
//! * **experiment**: build `trials` PR quadtrees of `points` uniform
//!   points each and average the leaf-occupancy proportion vectors.

use crate::config::ExperimentConfig;
use crate::report::{format_distribution, TableData};
use popan_core::{PrModel, SteadyStateSolver};
use popan_engine::{fingerprint_of, Experiment};
use popan_geom::Rect;
use popan_rng::rngs::StdRng;
use popan_spatial::PrQuadtree;
use popan_workload::points::{PointSource, UniformRect};
use popan_workload::{ClassAccumulator, TrialRunner, Welford};

/// Result for one node capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Node capacity `m`.
    pub capacity: usize,
    /// Theoretical expected distribution (solved model).
    pub theory: Vec<f64>,
    /// Experimental mean distribution over trials.
    pub experiment: Vec<f64>,
    /// Worst relative spread of per-trial average occupancy (the paper:
    /// "typically within about 10% of each other").
    pub trial_spread: f64,
}

/// The Table 1 experiment for one node capacity: theory = solved PR
/// model, trial = one tree's occupancy proportions + average occupancy.
#[derive(Debug, Clone)]
pub struct Table1Experiment {
    config: ExperimentConfig,
    capacity: usize,
}

impl Table1Experiment {
    /// An experiment instance for one capacity.
    pub fn new(config: ExperimentConfig, capacity: usize) -> Self {
        Table1Experiment { config, capacity }
    }
}

impl Experiment for Table1Experiment {
    type Config = ExperimentConfig;
    type Theory = Vec<f64>;
    type Trial = (Vec<f64>, f64);
    type Summary = Table1Row;

    fn name(&self) -> String {
        format!("table1/m{}", self.capacity)
    }

    fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of(&[0x7ab1e1, self.capacity as u64, self.config.points as u64])
    }

    fn runner(&self) -> TrialRunner {
        self.config.runner(0x7ab1e1 ^ (self.capacity as u64) << 32)
    }

    fn theory(&self) -> Vec<f64> {
        let model = PrModel::quadtree(self.capacity).expect("capacity ≥ 1");
        SteadyStateSolver::new()
            .solve(&model)
            .expect("paper models solve")
            .distribution()
            .proportions()
            .to_vec()
    }

    fn run_trial(&self, _t: usize, rng: &mut StdRng) -> (Vec<f64>, f64) {
        let census = PrQuadtree::census_of(
            Rect::unit(),
            self.capacity,
            UniformRect::unit().sample_n(rng, self.config.points),
        )
        .expect("points lie in the unit square");
        let profile = census.profile();
        (
            profile.proportions(self.capacity),
            profile.average_occupancy(),
        )
    }

    fn aggregate(&self, theory: Vec<f64>, trials: &[(Vec<f64>, f64)]) -> Table1Row {
        let mut classes = ClassAccumulator::new();
        let mut occupancy = Welford::new();
        for (vector, avg) in trials {
            classes.push(vector);
            occupancy.push(*avg);
        }
        Table1Row {
            capacity: self.capacity,
            theory,
            experiment: classes.means(),
            trial_spread: occupancy.relative_spread(),
        }
    }
}

/// Runs the experiment for capacities `1..=max_capacity`.
pub fn run(config: &ExperimentConfig, max_capacity: usize) -> Vec<Table1Row> {
    (1..=max_capacity)
        .map(|m| run_capacity(config, m))
        .collect()
}

/// Runs one capacity.
pub fn run_capacity(config: &ExperimentConfig, capacity: usize) -> Table1Row {
    config
        .engine()
        .run(&Table1Experiment::new(*config, capacity))
}

/// Renders the paper's Table 1 with the published values alongside.
pub fn table(config: &ExperimentConfig) -> TableData {
    let rows = run(config, 8);
    let mut out = Vec::new();
    for row in &rows {
        out.push(vec![
            row.capacity.to_string(),
            "thy (ours)".to_string(),
            format_distribution(&row.theory),
        ]);
        out.push(vec![
            String::new(),
            "thy (paper)".to_string(),
            format_distribution(crate::paper_data::TABLE1_THEORY[row.capacity - 1]),
        ]);
        out.push(vec![
            String::new(),
            "exp (ours)".to_string(),
            format_distribution(&row.experiment),
        ]);
        out.push(vec![
            String::new(),
            "exp (paper)".to_string(),
            format_distribution(crate::paper_data::TABLE1_EXPERIMENT[row.capacity - 1]),
        ]);
    }
    TableData::new(
        "table1",
        "Expected distribution in PR quadtrees: theoretical (thy) and experimental (exp)",
        vec![
            "bucket size".into(),
            "row".into(),
            "expected distribution vector".into(),
        ],
        out,
    )
    .with_note(format!(
        "experiment: {} trees × {} uniform points per capacity, master seed {:#x}",
        config.trials, config.points, config.master_seed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentConfig {
        ExperimentConfig {
            trials: 4,
            points: 600,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn theory_matches_paper_print() {
        let row = run_capacity(&quick(), 2);
        for (i, &want) in crate::paper_data::TABLE1_THEORY[1].iter().enumerate() {
            assert!(
                (row.theory[i] - want).abs() < 2e-3,
                "i={i}: {} vs {want}",
                row.theory[i]
            );
        }
    }

    #[test]
    fn experiment_tracks_paper_experiment_shape() {
        // Experimental columns are stochastic: assert the paper's
        // qualitative claims — experiment has more empty nodes than
        // theory (aging) and the vectors are close overall.
        let row = run_capacity(&quick(), 2);
        assert!(
            row.experiment[0] > row.theory[0],
            "aging: measured empty fraction {} should exceed theory {}",
            row.experiment[0],
            row.theory[0]
        );
        let l1: f64 = row
            .experiment
            .iter()
            .zip(crate::paper_data::TABLE1_EXPERIMENT[1])
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 < 0.15, "L1 distance to paper experiment row: {l1}");
    }

    #[test]
    fn trial_spread_is_moderate() {
        // "Corresponding data points from different trees were typically
        // within about 10% of each other" — allow a loose band.
        let row = run_capacity(&quick(), 1);
        assert!(row.trial_spread < 0.25, "spread {}", row.trial_spread);
    }

    #[test]
    fn distributions_are_probability_vectors() {
        for row in run(&ExperimentConfig::quick(), 3) {
            let st: f64 = row.theory.iter().sum();
            let se: f64 = row.experiment.iter().sum();
            assert!((st - 1.0).abs() < 1e-9);
            assert!((se - 1.0).abs() < 1e-9);
            assert_eq!(row.theory.len(), row.capacity + 1);
            assert_eq!(row.experiment.len(), row.capacity + 1);
        }
    }

    #[test]
    fn table_renders_all_capacities() {
        let t = table(&ExperimentConfig::quick());
        assert_eq!(t.rows.len(), 8 * 4);
        let s = t.render();
        assert!(s.contains("thy (ours)"));
        assert!(s.contains("exp (paper)"));
    }
}
