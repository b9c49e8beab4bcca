//! Extension: quantifying the aging correction.
//!
//! §IV argues qualitatively that weighting insertion probability by node
//! *area* (instead of node count) corrects the model's uniform
//! over-prediction. The area-weighted mean-field dynamics
//! ([`popan_core::dynamics::MeanFieldTree`]) implements that correction;
//! this experiment compares three numbers per capacity:
//!
//! 1. the count-proportional model's occupancy (the paper's theory
//!    column),
//! 2. the area-weighted mean-field occupancy (averaged over one phasing
//!    cycle),
//! 3. measured PR quadtrees (the paper's experiment column).
//!
//! The mean-field number should land between theory and measurement —
//! closing most of the aging gap.

use crate::config::ExperimentConfig;
use crate::report::TableData;
use popan_core::dynamics::MeanFieldTree;
use popan_core::{PrModel, SteadyStateSolver};
use popan_geom::Rect;
use popan_spatial::PrQuadtree;
use popan_workload::points::{PointSource, UniformRect};

/// Result for one capacity.
#[derive(Debug, Clone)]
pub struct AgingRow {
    /// Node capacity `m`.
    pub capacity: usize,
    /// Count-proportional model prediction (paper's theory).
    pub count_model: f64,
    /// Area-weighted mean-field prediction, cycle-averaged.
    pub mean_field: f64,
    /// Measured PR quadtree occupancy, cycle-averaged over tree sizes.
    pub measured: f64,
}

/// Cycle-averages the mean-field occupancy over one ×4 span starting at
/// `from_items`.
fn mean_field_cycle_average(capacity: usize, from_items: usize) -> f64 {
    let mut t = MeanFieldTree::new(4, capacity).expect("valid");
    t.run(from_items);
    let mut n = from_items;
    let mut samples = Vec::new();
    // 8 samples across one ×4 cycle.
    for k in 1..=8 {
        let target = (from_items as f64 * 4f64.powf(k as f64 / 8.0)) as usize;
        t.run(target - n);
        n = target;
        samples.push(t.average_occupancy());
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Cycle-averages measured tree occupancy over one ×4 span of sizes.
fn measured_cycle_average(config: &ExperimentConfig, capacity: usize, from_points: usize) -> f64 {
    let sizes: Vec<usize> = (0..8)
        .map(|k| (from_points as f64 * 4f64.powf(k as f64 / 8.0)) as usize)
        .collect();
    let engine = config.engine();
    let mut samples = Vec::new();
    for n in sizes {
        let runner = config.runner(0xa9e ^ ((capacity as u64) << 40) ^ (n as u64));
        samples.push(engine.mean_trials(runner, |_, rng| {
            PrQuadtree::census_of(Rect::unit(), capacity, UniformRect::unit().sample_n(rng, n))
                .expect("in-region points")
                .profile()
                .average_occupancy()
        }));
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Runs the comparison for several capacities.
pub fn run(config: &ExperimentConfig, capacities: &[usize]) -> Vec<AgingRow> {
    capacities
        .iter()
        .map(|&m| {
            let model = PrModel::quadtree(m).expect("valid");
            let count_model = SteadyStateSolver::new()
                .solve(&model)
                .expect("solves")
                .distribution()
                .average_occupancy();
            AgingRow {
                capacity: m,
                count_model,
                mean_field: mean_field_cycle_average(m, 1000),
                measured: measured_cycle_average(config, m, 500),
            }
        })
        .collect()
}

/// Renders the aging-correction table.
pub fn table(config: &ExperimentConfig) -> TableData {
    let rows = run(config, &[1, 2, 4, 8]);
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.capacity.to_string(),
                format!("{:.3}", r.count_model),
                format!("{:.3}", r.mean_field),
                format!("{:.3}", r.measured),
                format!("{:+.1}%", 100.0 * (r.count_model - r.measured) / r.measured),
                format!("{:+.1}%", 100.0 * (r.mean_field - r.measured) / r.measured),
            ]
        })
        .collect();
    TableData::new(
        "aging",
        "Aging correction: count-proportional model vs area-weighted mean field (extension)",
        vec![
            "m".into(),
            "count model".into(),
            "area mean-field".into(),
            "measured".into(),
            "count err".into(),
            "mean-field err".into(),
        ],
        body,
    )
    .with_note(
        "the area weighting implements §IV's qualitative correction; its prediction \
         sits below the count model, closing most of the gap to measurement",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_field_sits_between_theory_and_measurement() {
        let cfg = ExperimentConfig {
            trials: 3,
            ..ExperimentConfig::paper()
        };
        for row in run(&cfg, &[2, 4]) {
            assert!(
                row.mean_field < row.count_model,
                "m={}: mean field {} should undercut count model {}",
                row.capacity,
                row.mean_field,
                row.count_model
            );
            let count_err = (row.count_model - row.measured).abs();
            let mf_err = (row.mean_field - row.measured).abs();
            assert!(
                mf_err < count_err + 0.02,
                "m={}: mean-field error {mf_err:.3} should not exceed count-model error {count_err:.3}",
                row.capacity
            );
        }
    }

    #[test]
    fn count_model_overpredicts_measurement() {
        let cfg = ExperimentConfig {
            trials: 3,
            ..ExperimentConfig::paper()
        };
        for row in run(&cfg, &[4]) {
            assert!(
                row.count_model > row.measured,
                "aging bias must be positive"
            );
        }
    }

    #[test]
    fn table_renders() {
        let t = table(&ExperimentConfig::quick());
        assert_eq!(t.rows.len(), 4);
        assert!(t.render().contains("mean-field err"));
    }
}
