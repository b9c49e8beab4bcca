//! Extension: the skewed-bucket model against self-similar skewed data.
//!
//! The paper's derivation plugs a *uniform* local distribution into the
//! binomial split step. The generalized model
//! (`PrModel::with_bucket_probs`) accepts any self-similar quadrant
//! probabilities `q`. The matching workload is a multiplicative cascade
//! with the same `q` — so this experiment can test the generalization
//! end-to-end: build PR quadtrees from cascade data and compare their
//! occupancy mix against (a) the skewed model and (b) the uniform model
//! that ignores the skew.

use crate::config::ExperimentConfig;
use crate::report::{format_distribution, TableData};
use popan_core::{PrModel, SteadyStateSolver};
use popan_engine::{fingerprint_of, Experiment};
use popan_geom::Rect;
use popan_rng::rngs::StdRng;
use popan_spatial::PrQuadtree;
use popan_workload::cascade::Cascade;
use popan_workload::points::PointSource;
use popan_workload::{ClassAccumulator, TrialRunner};

/// Result of the skew validation.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewResult {
    /// Quadrant probabilities of both the model and the workload.
    pub quadrant_probs: [f64; 4],
    /// Node capacity.
    pub capacity: usize,
    /// Skew-aware model's steady state.
    pub skewed_theory: Vec<f64>,
    /// Uniform model's steady state (the naive prediction).
    pub uniform_theory: Vec<f64>,
    /// Measured mean distribution over trials.
    pub experiment: Vec<f64>,
    /// Total-variation distance: skewed model vs measurement.
    pub tv_skewed: f64,
    /// Total-variation distance: uniform model vs measurement.
    pub tv_uniform: f64,
}

/// The skew validation experiment: theory = skew-aware and uniform
/// steady states, trial = one cascade-built tree's occupancy mix.
#[derive(Debug, Clone)]
pub struct SkewExperiment {
    config: ExperimentConfig,
    quadrant_probs: [f64; 4],
    capacity: usize,
}

impl SkewExperiment {
    /// An instance for one `(quadrant probabilities, capacity)` pair.
    pub fn new(config: ExperimentConfig, quadrant_probs: [f64; 4], capacity: usize) -> Self {
        SkewExperiment {
            config,
            quadrant_probs,
            capacity,
        }
    }
}

impl Experiment for SkewExperiment {
    type Config = ExperimentConfig;
    /// `(skewed steady state, uniform steady state)`.
    type Theory = (Vec<f64>, Vec<f64>);
    type Trial = Vec<f64>;
    type Summary = SkewResult;

    fn name(&self) -> String {
        format!("skew/m{}", self.capacity)
    }

    fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    fn fingerprint(&self) -> u64 {
        let mut parts = vec![0x5e3, self.capacity as u64, self.config.points as u64];
        parts.extend(self.quadrant_probs.iter().map(|p| p.to_bits()));
        fingerprint_of(&parts)
    }

    fn runner(&self) -> TrialRunner {
        self.config.runner(0x5e3)
    }

    fn theory(&self) -> (Vec<f64>, Vec<f64>) {
        let skewed_model = PrModel::with_bucket_probs(self.quadrant_probs.to_vec(), self.capacity)
            .expect("valid skew");
        let uniform_model = PrModel::quadtree(self.capacity).expect("valid capacity");
        let solver = SteadyStateSolver::new();
        let solve = |model| {
            solver
                .solve(model)
                .expect("solves")
                .distribution()
                .proportions()
                .to_vec()
        };
        (solve(&skewed_model), solve(&uniform_model))
    }

    fn run_trial(&self, _t: usize, rng: &mut StdRng) -> Vec<f64> {
        let source = Cascade::new(Rect::unit(), self.quadrant_probs, 16);
        PrQuadtree::census_of(
            Rect::unit(),
            self.capacity,
            source.sample_n(rng, self.config.points),
        )
        .expect("in-region points")
        .profile()
        .proportions(self.capacity)
    }

    fn aggregate(&self, theory: (Vec<f64>, Vec<f64>), trials: &[Vec<f64>]) -> SkewResult {
        let (skewed_theory, uniform_theory) = theory;
        let mut classes = ClassAccumulator::new();
        for vector in trials {
            classes.push(vector);
        }
        let experiment = classes.means();
        let tv_skewed = popan_numeric::goodness::total_variation(&skewed_theory, &experiment)
            .expect("same len");
        let tv_uniform = popan_numeric::goodness::total_variation(&uniform_theory, &experiment)
            .expect("same len");
        SkewResult {
            quadrant_probs: self.quadrant_probs,
            capacity: self.capacity,
            skewed_theory,
            uniform_theory,
            experiment,
            tv_skewed,
            tv_uniform,
        }
    }
}

/// Runs the validation.
pub fn run(config: &ExperimentConfig, quadrant_probs: [f64; 4], capacity: usize) -> SkewResult {
    config
        .engine()
        .run(&SkewExperiment::new(*config, quadrant_probs, capacity))
}

/// Renders the skew-validation table.
pub fn table(config: &ExperimentConfig) -> TableData {
    let r = run(config, [0.55, 0.15, 0.15, 0.15], 4);
    let body = vec![
        vec![
            "skew-aware model".into(),
            format_distribution(&r.skewed_theory),
            format!("{:.3}", r.tv_skewed),
        ],
        vec![
            "uniform model (naive)".into(),
            format_distribution(&r.uniform_theory),
            format!("{:.3}", r.tv_uniform),
        ],
        vec![
            "measured (cascade workload)".into(),
            format_distribution(&r.experiment),
            "—".into(),
        ],
    ];
    TableData::new(
        "skew",
        format!(
            "Skewed-bucket model vs multiplicative-cascade data, q = {:?}, m = {} (extension)",
            r.quadrant_probs, r.capacity
        ),
        vec![
            "row".into(),
            "occupancy distribution".into(),
            "TV distance to measurement".into(),
        ],
        body,
    )
    .with_note("the skew-aware model predicts the cascade workload's occupancy mix far better than the uniform model")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            trials: 5,
            points: 1500,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn skew_aware_model_beats_uniform_model() {
        let r = run(&cfg(), [0.55, 0.15, 0.15, 0.15], 4);
        assert!(
            r.tv_skewed < r.tv_uniform,
            "skewed TV {} should beat uniform TV {}",
            r.tv_skewed,
            r.tv_uniform
        );
        assert!(r.tv_skewed < 0.16, "skewed TV {}", r.tv_skewed);
    }

    #[test]
    fn skew_raises_empty_fraction() {
        // Skewed splitting yields more empty children; the measurement
        // and the skew-aware model agree on that direction.
        let r = run(&cfg(), [0.6, 0.2, 0.1, 0.1], 3);
        assert!(r.skewed_theory[0] > r.uniform_theory[0]);
        assert!(r.experiment[0] > r.uniform_theory[0]);
    }

    #[test]
    fn uniform_cascade_recovers_uniform_model() {
        // q = (¼,¼,¼,¼): both models coincide and track measurement.
        let r = run(&cfg(), [0.25; 4], 3);
        assert!((r.tv_skewed - r.tv_uniform).abs() < 1e-9);
        assert!(r.tv_skewed < 0.1, "TV {}", r.tv_skewed);
    }

    #[test]
    fn table_renders() {
        let t = table(&ExperimentConfig::quick());
        assert_eq!(t.rows.len(), 3);
        assert!(t.render().contains("skew-aware"));
    }
}
