//! Extension: phasing amplitude as a function of node capacity.
//!
//! §IV: "This effect becomes more pronounced as the node capacity
//! increases since the probability of having a local density fluctuation
//! which would require splitting at more than one level decreases with
//! increasing m." This sweep measures the oscillation amplitude of the
//! occupancy-vs-size series for several capacities, on real trees and on
//! the deterministic mean-field dynamics (which isolates the phasing
//! mechanism from sampling noise).

use crate::config::ExperimentConfig;
use crate::report::TableData;
use popan_core::dynamics::MeanFieldTree;
use popan_core::phasing::analyze_phasing;
use popan_geom::Rect;
use popan_spatial::PrQuadtree;
use popan_workload::points::{PointSource, UniformRect};

/// Result for one capacity.
#[derive(Debug, Clone)]
pub struct PhasingSweepRow {
    /// Node capacity `m`.
    pub capacity: usize,
    /// Oscillation amplitude measured on real trees (×√2 ladder,
    /// trial-averaged), relative to the mean occupancy.
    pub measured_relative_amplitude: f64,
    /// Amplitude of the deterministic mean-field series, relative to its
    /// mean.
    pub mean_field_relative_amplitude: f64,
    /// Autocorrelation at the ×4 period (measured series).
    pub autocorr: f64,
}

fn ladder() -> Vec<usize> {
    (0..13)
        .map(|k| (64.0 * 2f64.powf(k as f64 / 2.0)).round() as usize)
        .collect()
}

/// Runs the sweep over `capacities`.
pub fn run(config: &ExperimentConfig, capacities: &[usize]) -> Vec<PhasingSweepRow> {
    let engine = config.engine();
    capacities
        .iter()
        .map(|&m| {
            // Measured series.
            let series: Vec<f64> = ladder()
                .into_iter()
                .map(|n| {
                    let runner = config.runner(0x9a5e ^ ((m as u64) << 40) ^ (n as u64));
                    engine.mean_trials(runner, |_, rng| {
                        PrQuadtree::census_of(Rect::unit(), m, UniformRect::unit().sample_n(rng, n))
                            .expect("in-region points")
                            .profile()
                            .average_occupancy()
                    })
                })
                .collect();
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            let report = analyze_phasing(&series, 4, 2f64.sqrt()).expect("long series");

            // Mean-field series over the same ladder.
            let mut t = MeanFieldTree::new(4, m).expect("valid");
            let mut inserted = 0usize;
            let mf_series: Vec<f64> = ladder()
                .into_iter()
                .map(|n| {
                    t.run(n - inserted);
                    inserted = n;
                    t.average_occupancy()
                })
                .collect();
            let mf_mean = mf_series.iter().sum::<f64>() / mf_series.len() as f64;
            let mf_report = analyze_phasing(&mf_series, 4, 2f64.sqrt()).expect("long series");

            PhasingSweepRow {
                capacity: m,
                measured_relative_amplitude: report.metrics.amplitude / mean,
                mean_field_relative_amplitude: mf_report.metrics.amplitude / mf_mean,
                autocorr: report.metrics.autocorr_at_period.unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// Renders the sweep table.
pub fn table(config: &ExperimentConfig) -> TableData {
    let rows = run(config, &[1, 2, 4, 8, 16]);
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.capacity.to_string(),
                format!("{:.3}", r.measured_relative_amplitude),
                format!("{:.3}", r.mean_field_relative_amplitude),
                format!("{:+.2}", r.autocorr),
            ]
        })
        .collect();
    TableData::new(
        "phasing_sweep",
        "Phasing amplitude vs node capacity (uniform workload, extension)",
        vec![
            "m".into(),
            "relative amplitude (trees)".into(),
            "relative amplitude (mean field)".into(),
            "autocorr @ ×4".into(),
        ],
        body,
    )
    .with_note(
        "§IV: 'this effect becomes more pronounced as the node capacity increases' — \
         both the measured and the noise-free mean-field amplitudes grow with m",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplitude_grows_with_capacity() {
        let cfg = ExperimentConfig {
            trials: 4,
            ..ExperimentConfig::paper()
        };
        let rows = run(&cfg, &[1, 4, 16]);
        // The paper's claim, on the noise-free mean-field series: strictly
        // increasing relative amplitude.
        assert!(
            rows[0].mean_field_relative_amplitude < rows[1].mean_field_relative_amplitude
                && rows[1].mean_field_relative_amplitude < rows[2].mean_field_relative_amplitude,
            "mean-field amplitudes {:?}",
            rows.iter()
                .map(|r| r.mean_field_relative_amplitude)
                .collect::<Vec<_>>()
        );
        // And the measured series shows m=16 well above m=1 (noise makes
        // strict monotonicity too brittle to assert).
        assert!(
            rows[2].measured_relative_amplitude > rows[0].measured_relative_amplitude,
            "measured amplitudes {:?}",
            rows.iter()
                .map(|r| r.measured_relative_amplitude)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn high_capacity_series_is_period_aligned() {
        let cfg = ExperimentConfig {
            trials: 4,
            ..ExperimentConfig::paper()
        };
        let rows = run(&cfg, &[8]);
        assert!(rows[0].autocorr > 0.2, "autocorr {}", rows[0].autocorr);
    }

    #[test]
    fn table_renders() {
        let t = table(&ExperimentConfig::quick());
        assert_eq!(t.rows.len(), 5);
        assert!(t.render().contains("pronounced"));
    }
}
