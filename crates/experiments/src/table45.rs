//! Tables 4 & 5 — variation of occupancy with tree size (phasing).
//!
//! `m = 8`, point counts along the ×√2 ladder 64…4096, 10 trees per
//! count. Table 4 uses uniform points: the average occupancy oscillates
//! with period ×4 in N and does not damp. Table 5 uses the centered
//! Gaussian: the oscillation damps as differently-dense regions drift out
//! of phase.

use crate::config::ExperimentConfig;
use crate::paper_data::SIZE_LADDER;
use crate::report::TableData;
use popan_core::phasing::{analyze_phasing, PhasingReport};
use popan_engine::{fingerprint_of, Experiment};
use popan_geom::Rect;
use popan_rng::rngs::StdRng;
use popan_spatial::PrQuadtree;
use popan_workload::points::{GaussianCentered, PointSource, UniformRect};
use popan_workload::{TrialRunner, Welford};

/// Node capacity used by the paper for these tables.
pub const CAPACITY: usize = 8;

/// Which workload drives the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform over the unit square (Table 4 / Figure 2).
    Uniform,
    /// Gaussian, two standard deviations wide, centered (Table 5 /
    /// Figure 3).
    Gaussian,
}

/// One ladder point.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeSweepRow {
    /// Number of points inserted.
    pub points: usize,
    /// Mean leaf count over trials.
    pub nodes: f64,
    /// Mean average occupancy over trials.
    pub occupancy: f64,
}

/// One ladder point of the Tables 4/5 size sweep: `config.trials` trees
/// of `points` points from `workload`, reduced to mean leaf count and
/// mean occupancy.
#[derive(Debug, Clone)]
pub struct SizePointExperiment {
    config: ExperimentConfig,
    workload: Workload,
    points: usize,
}

impl SizePointExperiment {
    /// An instance for one `(workload, tree size)` pair.
    pub fn new(config: ExperimentConfig, workload: Workload, points: usize) -> Self {
        SizePointExperiment {
            config,
            workload,
            points,
        }
    }
}

impl Experiment for SizePointExperiment {
    type Config = ExperimentConfig;
    type Theory = ();
    type Trial = (f64, f64);
    type Summary = SizeSweepRow;

    fn name(&self) -> String {
        let table = match self.workload {
            Workload::Uniform => "table4",
            Workload::Gaussian => "table5",
        };
        format!("{table}/n{}", self.points)
    }

    fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    fn fingerprint(&self) -> u64 {
        let workload = match self.workload {
            Workload::Uniform => 0x7ab1e4,
            Workload::Gaussian => 0x7ab1e5,
        };
        fingerprint_of(&[workload, self.points as u64])
    }

    fn runner(&self) -> TrialRunner {
        let salt = match self.workload {
            Workload::Uniform => 0x7ab1e4,
            Workload::Gaussian => 0x7ab1e5,
        };
        self.config.runner(salt ^ (self.points as u64) << 24)
    }

    fn theory(&self) {}

    fn run_trial(&self, _t: usize, rng: &mut StdRng) -> (f64, f64) {
        let pts = match self.workload {
            Workload::Uniform => UniformRect::unit().sample_n(rng, self.points),
            Workload::Gaussian => {
                GaussianCentered::two_sigma_wide(Rect::unit()).sample_n(rng, self.points)
            }
        };
        let census = PrQuadtree::census_of(Rect::unit(), CAPACITY, pts).expect("in-region points");
        let profile = census.profile();
        (profile.total_leaves() as f64, profile.average_occupancy())
    }

    fn aggregate(&self, _theory: (), trials: &[(f64, f64)]) -> SizeSweepRow {
        let mut nodes = Welford::new();
        let mut occupancy = Welford::new();
        for &(n, o) in trials {
            nodes.push(n);
            occupancy.push(o);
        }
        SizeSweepRow {
            points: self.points,
            nodes: nodes.mean(),
            occupancy: occupancy.mean(),
        }
    }
}

/// Runs the sweep for a workload over the paper's ladder.
pub fn run(config: &ExperimentConfig, workload: Workload) -> Vec<SizeSweepRow> {
    run_ladder(config, workload, &SIZE_LADDER)
}

/// Runs the sweep over an explicit ladder (test hook).
pub fn run_ladder(
    config: &ExperimentConfig,
    workload: Workload,
    ladder: &[usize],
) -> Vec<SizeSweepRow> {
    let engine = config.engine();
    ladder
        .iter()
        .map(|&n| engine.run(&SizePointExperiment::new(*config, workload, n)))
        .collect()
}

/// Phasing analysis of a sweep's occupancy series (period hypothesis:
/// ×4 in N = 4 samples on the ×√2 ladder).
pub fn phasing_report(rows: &[SizeSweepRow]) -> PhasingReport {
    let series: Vec<f64> = rows.iter().map(|r| r.occupancy).collect();
    analyze_phasing(&series, 4, 2f64.sqrt()).expect("series long enough")
}

/// Renders Table 4 (uniform) or Table 5 (Gaussian) with the paper's
/// printed values alongside.
pub fn table(config: &ExperimentConfig, workload: Workload) -> TableData {
    let rows = run(config, workload);
    let (id, title, paper): (&str, &str, &[(usize, f64, f64)]) = match workload {
        Workload::Uniform => (
            "table4",
            "Variation of occupancy with tree size (m = 8, uniform)",
            &crate::paper_data::TABLE4,
        ),
        Workload::Gaussian => (
            "table5",
            "Variation of occupancy with tree size (m = 8, Gaussian)",
            &crate::paper_data::TABLE5,
        ),
    };
    let body = rows
        .iter()
        .map(|r| {
            let p = paper.iter().find(|&&(n, _, _)| n == r.points);
            let (pn, po) = p.map(|&(_, n, o)| (n, o)).unwrap_or((f64::NAN, f64::NAN));
            vec![
                r.points.to_string(),
                format!("{:.1}", r.nodes),
                format!("{:.2}", r.occupancy),
                format!("{pn:.1}"),
                format!("{po:.2}"),
            ]
        })
        .collect();
    let report = phasing_report(&rows);
    TableData::new(
        id,
        title,
        vec![
            "points".into(),
            "nodes (ours)".into(),
            "occupancy (ours)".into(),
            "nodes (paper)".into(),
            "occupancy (paper)".into(),
        ],
        body,
    )
    .with_note(format!(
        "phasing: amplitude {:.2}, autocorrelation at period 4 = {:.2}, damping {:.2}",
        report.metrics.amplitude,
        report.metrics.autocorr_at_period.unwrap_or(f64::NAN),
        report.damping,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            trials: 5,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn occupancy_equals_points_over_nodes() {
        let rows = run_ladder(&ExperimentConfig::quick(), Workload::Uniform, &[64, 128]);
        for r in rows {
            let implied = r.points as f64 / r.nodes;
            assert!(
                (implied - r.occupancy).abs() < 0.05,
                "n={}: {} vs {}",
                r.points,
                implied,
                r.occupancy
            );
        }
    }

    #[test]
    fn uniform_sweep_oscillates_without_damping() {
        let rows = run(&cfg(), Workload::Uniform);
        let report = phasing_report(&rows);
        assert!(
            report.oscillates(0.2),
            "uniform sweep should phase: {:?}",
            report.metrics
        );
        assert!(
            report.metrics.amplitude > 0.3,
            "amplitude {}",
            report.metrics.amplitude
        );
        assert!(
            !report.is_damped(0.45),
            "uniform phasing must not damp (damping {})",
            report.damping
        );
    }

    #[test]
    fn gaussian_sweep_damps_relative_to_uniform() {
        let uniform = phasing_report(&run(&cfg(), Workload::Uniform));
        let gauss = phasing_report(&run(&cfg(), Workload::Gaussian));
        // Late-series swing: Gaussian's is smaller than uniform's.
        let late = |r: &popan_core::phasing::PhasingReport| r.metrics.amplitude - r.damping;
        assert!(
            late(&gauss) < late(&uniform),
            "gaussian late swing {} vs uniform {}",
            late(&gauss),
            late(&uniform)
        );
    }

    #[test]
    fn occupancies_stay_in_paper_band() {
        // The paper's Table 4 occupancies live in [3.30, 4.15]; ours
        // (different RNG) should inhabit a similar band.
        let rows = run(&cfg(), Workload::Uniform);
        for r in &rows {
            assert!(
                (2.9..=4.6).contains(&r.occupancy),
                "n={}: occupancy {}",
                r.points,
                r.occupancy
            );
        }
        // Node counts grow with N.
        for w in rows.windows(2) {
            assert!(w[1].nodes > w[0].nodes * 0.9);
        }
    }

    #[test]
    fn tables_render_with_paper_columns() {
        let t4 = table(&ExperimentConfig::quick(), Workload::Uniform);
        assert_eq!(t4.id, "table4");
        assert_eq!(t4.rows.len(), 13);
        let t5 = table(&ExperimentConfig::quick(), Workload::Gaussian);
        assert_eq!(t5.id, "table5");
        assert!(t5.render().contains("Gaussian"));
    }
}
