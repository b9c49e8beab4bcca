//! Extension: renewal-theory depth laws across the split-tree family.
//!
//! The `SplitSpec` refactor turned every model in `popan-core` into an
//! instance of Devroye's split-tree parameterization, and that
//! parameterization carries its own asymptotic theory: Holmgren's law
//! puts the depth of the `n`-th item at `~ c·ln n` and Broutin–Holmgren
//! put the total path length at `~ c·n·ln n`, with `c = 1/μ` the inverse
//! split entropy ([`SplitSpec::depth_coefficient`]). This experiment
//! closes the loop experimentally: build real structures along a ×2
//! size ladder, measure expected probe depth and path length per item,
//! regress both against `ln n`, and compare the fitted slopes to the
//! spec-derived constant.
//!
//! Five structures cover both halves of the family:
//!
//! * regular decomposition (fixed uniform `V`, `μ = ln b`): bintree
//!   (`b = 2`), PR quadtree (`b = 4`), PR octree (`b = 8`, the
//!   `PrTreeNd<3>`);
//! * comparison-based (Dirichlet `V`, `μ = H_b − 1`): random `m`-ary
//!   search trees with `b = 3` and `b = 8`.
//!
//! Probe depth is an exact functional of the occupancy census, not a
//! sampled quantity: for the spatial trees a uniform probe lands in a
//! leaf with probability equal to its volume `b^{−depth}`, so
//! `E[D] = Σ_d d·leaves(d)·b^{−d}`; for the search tree an insertion
//! reaches depth `d` with probability proportional to the key gaps
//! there, giving the gap-weighted mean
//! ([`popan_spatial::MaryCensus::expected_insertion_depth`]). So each
//! trial takes the census alone (`census_of`), never building the tree.

use crate::config::ExperimentConfig;
use crate::report::TableData;
use popan_core::SplitSpec;
use popan_engine::{fingerprint_of, Experiment};
use popan_geom::{BoxN, Rect};
use popan_numeric::series::{linear_fit, LinearFit};
use popan_rng::rngs::StdRng;
use popan_spatial::{Bintree, DepthOccupancyTable, MarySearchTree, PrQuadtree, PrTreeNd};
use popan_workload::keys::UniformKeys;
use popan_workload::points::{uniform_in_box, PointSource, UniformRect};
use popan_workload::{TrialRunner, Welford};

/// Node capacity used for the spatial structures (matches `dims`).
pub const CAPACITY: usize = 4;

/// Which member of the split-tree family to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStructure {
    /// Regular halving, `b = 2`.
    Bintree,
    /// PR quadtree, `b = 4`.
    Quadtree,
    /// PR octree, `b = 8`.
    Octree,
    /// Random `m`-ary search tree with the given branch factor.
    Mary(usize),
}

impl SplitStructure {
    /// The structures the sweep covers, in branch order within each
    /// half of the family.
    pub fn all() -> [SplitStructure; 5] {
        [
            SplitStructure::Bintree,
            SplitStructure::Quadtree,
            SplitStructure::Octree,
            SplitStructure::Mary(3),
            SplitStructure::Mary(8),
        ]
    }

    /// Display name.
    pub fn name(self) -> String {
        match self {
            SplitStructure::Bintree => "bintree".into(),
            SplitStructure::Quadtree => "PR quadtree".into(),
            SplitStructure::Octree => "PR octree".into(),
            SplitStructure::Mary(b) => format!("m-ary search (b={b})"),
        }
    }

    /// Short name for fingerprints and engine labels.
    fn tag(self) -> String {
        match self {
            SplitStructure::Bintree => "bintree".into(),
            SplitStructure::Quadtree => "quad".into(),
            SplitStructure::Octree => "oct".into(),
            SplitStructure::Mary(b) => format!("mary{b}"),
        }
    }

    /// Branch factor `b`.
    pub fn branch(self) -> usize {
        match self {
            SplitStructure::Bintree => 2,
            SplitStructure::Quadtree => 4,
            SplitStructure::Octree => 8,
            SplitStructure::Mary(b) => b,
        }
    }

    /// The structure's split-tree parameterization.
    pub fn spec(self) -> SplitSpec {
        match self {
            SplitStructure::Mary(b) => SplitSpec::mary_search_tree(b).expect("branch ≥ 2 is valid"),
            other => SplitSpec::uniform(other.branch(), CAPACITY).expect("uniform spec is valid"),
        }
    }

    /// Numeric salt component (distinct per structure).
    fn salt(self) -> u64 {
        match self {
            SplitStructure::Bintree => 2,
            SplitStructure::Quadtree => 4,
            SplitStructure::Octree => 8,
            SplitStructure::Mary(b) => 100 + b as u64,
        }
    }
}

/// Expected uniform-probe depth from the census: a probe lands in a
/// depth-`d` leaf with probability `b^{−d}` (its volume share), so the
/// leaf volumes form a probability distribution over depths.
pub fn volumetric_probe_depth(table: &DepthOccupancyTable, branch: usize) -> f64 {
    let Some(max) = table.max_depth() else {
        return 0.0;
    };
    (0..=max)
        .map(|d| f64::from(d) * table.leaves_at(d) as f64 * (branch as f64).powi(-(d as i32)))
        .sum()
}

/// Mean measurements at one ladder point.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPoint {
    /// Items inserted.
    pub n: usize,
    /// Mean expected probe depth over trials.
    pub probe_depth: f64,
    /// Mean total path length per stored item over trials.
    pub path_per_item: f64,
}

/// One `(structure, n)` cell of the sweep: `config.trials` structures of
/// `n` uniform items each, reduced to mean probe depth and mean path
/// length per item; theory = the spec's depth coefficient `1/μ`.
#[derive(Debug, Clone)]
pub struct SplitPointExperiment {
    config: ExperimentConfig,
    structure: SplitStructure,
    n: usize,
}

impl SplitPointExperiment {
    /// An instance for one structure and size.
    pub fn new(config: ExperimentConfig, structure: SplitStructure, n: usize) -> Self {
        SplitPointExperiment {
            config,
            structure,
            n,
        }
    }
}

impl Experiment for SplitPointExperiment {
    type Config = ExperimentConfig;
    type Theory = f64;
    type Trial = (f64, f64);
    type Summary = SplitPoint;

    fn name(&self) -> String {
        format!("split/{}/n{}", self.structure.tag(), self.n)
    }

    fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of(&[0x5917, self.structure.salt(), self.n as u64])
    }

    fn runner(&self) -> TrialRunner {
        self.config
            .runner(0x5917 ^ (self.structure.salt() << 44) ^ (self.n as u64) << 20)
    }

    fn theory(&self) -> f64 {
        self.structure.spec().depth_coefficient()
    }

    fn run_trial(&self, _t: usize, rng: &mut StdRng) -> (f64, f64) {
        let n = self.n;
        match self.structure {
            SplitStructure::Bintree => {
                let census = Bintree::census_of(
                    Rect::unit(),
                    CAPACITY,
                    UniformRect::unit().sample_n(rng, n),
                )
                .expect("in-region points");
                measure_spatial(census.depth_table(), 2, n)
            }
            SplitStructure::Quadtree => {
                let census = PrQuadtree::census_of(
                    Rect::unit(),
                    CAPACITY,
                    UniformRect::unit().sample_n(rng, n),
                )
                .expect("in-region points");
                measure_spatial(census.depth_table(), 4, n)
            }
            SplitStructure::Octree => {
                let census = PrTreeNd::<3>::census_of(
                    BoxN::unit(),
                    CAPACITY,
                    uniform_in_box(&BoxN::unit(), rng, n),
                )
                .expect("in-region points");
                measure_spatial(census.depth_table(), 8, n)
            }
            SplitStructure::Mary(b) => {
                let census =
                    MarySearchTree::census_of(b, UniformKeys.sample_n(rng, n)).expect("branch ≥ 2");
                (
                    census.expected_insertion_depth(),
                    census.total_path_length() as f64 / n as f64,
                )
            }
        }
    }

    fn aggregate(&self, _theory: f64, trials: &[(f64, f64)]) -> SplitPoint {
        let mut probe = Welford::new();
        let mut path = Welford::new();
        for &(d, p) in trials {
            probe.push(d);
            path.push(p);
        }
        SplitPoint {
            n: self.n,
            probe_depth: probe.mean(),
            path_per_item: path.mean(),
        }
    }
}

fn measure_spatial(table: &DepthOccupancyTable, branch: usize, n: usize) -> (f64, f64) {
    (
        volumetric_probe_depth(table, branch),
        table.total_item_path_length() as f64 / n as f64,
    )
}

/// The ×2 size ladder: `config.points · 2^k, k = 0..=6`. The span covers
/// whole phasing periods for every structure (×64 = two ×8 periods,
/// three ×4, six ×2), so the log-periodic oscillation averages out of
/// the fitted slope instead of biasing it.
pub fn ladder(config: &ExperimentConfig) -> Vec<usize> {
    (0..=6).map(|k| config.points << k).collect()
}

/// Regression outcome for one structure.
#[derive(Debug, Clone)]
pub struct SplitRow {
    /// Structure name.
    pub structure: String,
    /// Branch factor.
    pub branch: usize,
    /// Spec-derived depth coefficient `c = 1/μ`.
    pub theory: f64,
    /// Fitted slope of probe depth vs `ln n` (Holmgren).
    pub depth_fit: LinearFit,
    /// Fitted slope of path length per item vs `ln n`
    /// (Broutin–Holmgren).
    pub path_fit: LinearFit,
}

impl SplitRow {
    /// `100·(depth slope − c)/c`.
    pub fn depth_drift_percent(&self) -> f64 {
        100.0 * (self.depth_fit.slope - self.theory) / self.theory
    }

    /// `100·(path slope − c)/c`.
    pub fn path_drift_percent(&self) -> f64 {
        100.0 * (self.path_fit.slope - self.theory) / self.theory
    }
}

/// Runs the sweep: every structure over the full ladder, then one
/// regression per structure and observable.
pub fn run(config: &ExperimentConfig) -> Vec<SplitRow> {
    let engine = config.engine();
    SplitStructure::all()
        .into_iter()
        .map(|structure| {
            let points: Vec<SplitPoint> = ladder(config)
                .into_iter()
                .map(|n| engine.run(&SplitPointExperiment::new(*config, structure, n)))
                .collect();
            let ln_n: Vec<f64> = points.iter().map(|p| (p.n as f64).ln()).collect();
            let depths: Vec<f64> = points.iter().map(|p| p.probe_depth).collect();
            let paths: Vec<f64> = points.iter().map(|p| p.path_per_item).collect();
            SplitRow {
                structure: structure.name(),
                branch: structure.branch(),
                theory: structure.spec().depth_coefficient(),
                depth_fit: linear_fit(&ln_n, &depths).expect("ladder has ≥ 2 points"),
                path_fit: linear_fit(&ln_n, &paths).expect("ladder has ≥ 2 points"),
            }
        })
        .collect()
}

/// Renders the renewal-theory regression table.
pub fn table(config: &ExperimentConfig) -> TableData {
    let rows = run(config);
    let max_drift = rows
        .iter()
        .flat_map(|r| [r.depth_drift_percent().abs(), r.path_drift_percent().abs()])
        .fold(0.0f64, f64::max);
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.structure.clone(),
                r.branch.to_string(),
                format!("{:.4}", r.theory),
                format!("{:.4}", r.depth_fit.slope),
                format!("{:+.1}", r.depth_drift_percent()),
                format!("{:.4}", r.depth_fit.r_squared),
                format!("{:.4}", r.path_fit.slope),
                format!("{:+.1}", r.path_drift_percent()),
                format!("{:.4}", r.path_fit.r_squared),
            ]
        })
        .collect();
    TableData::new(
        "split",
        "Split-tree renewal theory: depth and path-length slopes vs 1/μ (extension)",
        vec![
            "structure".into(),
            "b".into(),
            "c = 1/μ".into(),
            "depth slope".into(),
            "drift %".into(),
            "R²".into(),
            "path slope".into(),
            "drift %".into(),
            "R²".into(),
        ],
        body,
    )
    .with_note(format!(
        "slopes of probe depth (Holmgren, D ~ c·ln n) and path length per item \
         (Broutin–Holmgren, Υ/n ~ c·ln n) fitted over n = {}·2^k, k ≤ 6; \
         max |drift| {:.1}% of the spec-derived coefficient",
        config.points, max_drift,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            trials: 3,
            points: 500,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn theory_constants_per_structure() {
        let c: Vec<f64> = SplitStructure::all()
            .into_iter()
            .map(|s| s.spec().depth_coefficient())
            .collect();
        assert!((c[0] - 1.0 / 2f64.ln()).abs() < 1e-12, "bintree 1/ln 2");
        assert!((c[1] - 1.0 / 4f64.ln()).abs() < 1e-12, "quadtree 1/ln 4");
        assert!((c[2] - 1.0 / 8f64.ln()).abs() < 1e-12, "octree 1/ln 8");
        // H₃ − 1 = 5/6; H₈ − 1 = Σ_{j=2..8} 1/j.
        assert!((c[3] - 1.2).abs() < 1e-12, "mary b=3: 1/(H₃−1)");
        let h8m1: f64 = (2..=8).map(|j| 1.0 / j as f64).sum();
        assert!((c[4] - 1.0 / h8m1).abs() < 1e-12, "mary b=8: 1/(H₈−1)");
    }

    #[test]
    fn volumetric_probe_depth_is_a_mean_over_a_distribution() {
        // A perfect 2-level quadtree: 16 leaves of volume 1/16 at depth 2.
        let mut table = DepthOccupancyTable::default();
        for _ in 0..16 {
            table.record(2, 1);
        }
        assert!((volumetric_probe_depth(&table, 4) - 2.0).abs() < 1e-12);
        assert_eq!(
            volumetric_probe_depth(&DepthOccupancyTable::default(), 4),
            0.0
        );
    }

    #[test]
    fn slopes_match_renewal_theory() {
        for row in run(&cfg()) {
            let dd = row.depth_drift_percent().abs();
            let pd = row.path_drift_percent().abs();
            assert!(
                dd < 15.0,
                "{}: depth slope {} vs c {} ({dd:.1}%)",
                row.structure,
                row.depth_fit.slope,
                row.theory
            );
            assert!(
                pd < 15.0,
                "{}: path slope {} vs c {} ({pd:.1}%)",
                row.structure,
                row.path_fit.slope,
                row.theory
            );
            assert!(
                row.depth_fit.r_squared > 0.97 && row.path_fit.r_squared > 0.97,
                "{}: fits should be near-linear (R² {} / {})",
                row.structure,
                row.depth_fit.r_squared,
                row.path_fit.r_squared
            );
        }
    }

    #[test]
    fn slope_ordering_follows_split_entropy() {
        // 1/ln 2 > 1/(H₃−1) > 1/ln 4 > 1/(H₈−1) > 1/ln 8: measured
        // slopes should sort the same way the entropies do.
        let rows = run(&cfg());
        let slope = |name: &str| {
            rows.iter()
                .find(|r| r.structure.contains(name))
                .map(|r| r.depth_fit.slope)
                .expect("structure present")
        };
        assert!(slope("bintree") > slope("b=3"));
        assert!(slope("b=3") > slope("quadtree"));
        assert!(slope("quadtree") > slope("b=8"));
        assert!(slope("b=8") > slope("octree"));
    }

    #[test]
    fn table_renders() {
        let t = table(&ExperimentConfig::quick());
        assert_eq!(t.rows.len(), 5);
        let rendered = t.render();
        assert!(rendered.contains("bintree"));
        assert!(rendered.contains("m-ary search"));
        assert!(t.notes.join(" ").contains("Holmgren"));
    }
}
