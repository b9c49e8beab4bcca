//! Mean-field population dynamics.
//!
//! The paper treats the steady state as a fixed point of insertion. This
//! module *evolves* the populations under insertion instead, in two
//! refinements:
//!
//! * [`CountDynamics`] — the paper's own model made dynamic: expected node
//!   counts per occupancy class, each insertion hitting a class with
//!   probability proportional to its *count* (the paper's §III
//!   assumption). From any positive start the occupancy mix converges to
//!   the solver's fixed point — an independent validation of the solver.
//!
//! * [`MeanFieldTree`] — the two-dimensional refinement the paper's §IV
//!   sketches qualitatively: classes are (level, occupancy) pairs, and an
//!   insertion hits a class with probability proportional to its *area*
//!   (`count · b^{−level}`), which is the true hit probability for a
//!   uniform workload. This single change reproduces both §IV phenomena
//!   deterministically, with no trees and no randomness:
//!   - **aging** — at any instant, larger (shallower) leaves have higher
//!     average occupancy, and the overall average sits *below* the
//!     count-proportional model's prediction;
//!   - **phasing** — the average occupancy oscillates as the item count
//!     grows, with period `×b` in items.

use crate::distribution::ExpectedDistribution;
use crate::transform::PopulationModel;
use crate::{ModelError, Result};
use popan_numeric::combinatorics::expected_bucket_count_vector;
use popan_numeric::DVector;

/// Occupancy-only mean-field dynamics with configurable hit weights.
///
/// With unit weights this is the paper's count-proportional assumption;
/// non-unit weights express other hit models — e.g. `w_i = i + 1`
/// (gap-proportional) for B-tree key insertion, the one-dimensional
/// analogue of the quadtree's area weighting.
#[derive(Debug, Clone)]
pub struct CountDynamics {
    /// Expected node counts per occupancy class.
    counts: DVector,
    /// Per-class hit weights (unit for count-proportional selection).
    weights: DVector,
    transform: crate::transform::TransformMatrix,
    items: f64,
}

impl CountDynamics {
    /// Starts from a single empty node under `model`'s transform matrix.
    pub fn new<M: PopulationModel + ?Sized>(model: &M) -> Result<Self> {
        Self::with_start(model, &DVector::basis(model.classes(), 0)?)
    }

    /// Starts from explicit nonnegative counts (not all zero).
    pub fn with_start<M: PopulationModel + ?Sized>(model: &M, counts: &DVector) -> Result<Self> {
        Self::with_start_and_weights(model, counts, &DVector::filled(model.classes(), 1.0))
    }

    /// Starts from explicit counts with per-class hit weights: an
    /// insertion selects class `i` with probability `∝ c_i · w_i`.
    pub fn with_start_and_weights<M: PopulationModel + ?Sized>(
        model: &M,
        counts: &DVector,
        weights: &DVector,
    ) -> Result<Self> {
        if counts.len() != model.classes() {
            return Err(ModelError::invalid(format!(
                "start has {} classes, model has {}",
                counts.len(),
                model.classes()
            )));
        }
        if weights.len() != model.classes() {
            return Err(ModelError::invalid("weights must have one entry per class"));
        }
        if !counts.is_nonnegative(0.0) || counts.sum() <= 0.0 {
            return Err(ModelError::invalid(
                "start counts must be nonnegative with positive total",
            ));
        }
        if !weights.is_nonnegative(0.0) || weights.sum() <= 0.0 {
            return Err(ModelError::invalid(
                "weights must be nonnegative with positive total",
            ));
        }
        Ok(CountDynamics {
            counts: counts.clone(),
            weights: weights.clone(),
            transform: model.transform_matrix().clone(),
            items: counts.occupancy_weighted_sum(),
        })
    }

    /// Inserts one item in expectation: class `i` receives with
    /// probability `c_i·w_i / Σ c·w`, becoming `t_i`.
    pub fn step(&mut self) -> Result<()> {
        let weighted: DVector = self
            .counts
            .iter()
            .zip(self.weights.iter())
            .map(|(&c, &w)| c * w)
            .collect();
        let total = weighted.sum();
        if total <= 0.0 {
            return Err(ModelError::invalid(
                "no class has positive hit weight; dynamics are stuck",
            ));
        }
        let probs = weighted.scale(1.0 / total);
        // c ← c − p + p·T  (computed from the snapshot).
        let produced = self.transform.apply(&probs)?;
        self.counts = self
            .counts
            .sub(&probs)
            .and_then(|c| c.add(&produced))
            .map_err(ModelError::Numeric)?;
        self.items += 1.0;
        Ok(())
    }

    /// Runs `n` insertion steps.
    pub fn run(&mut self, n: usize) -> Result<()> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Items inserted so far (including any encoded in the start).
    pub fn items(&self) -> f64 {
        self.items
    }

    /// Expected total node count.
    pub fn node_count(&self) -> f64 {
        self.counts.sum()
    }

    /// Current occupancy mix as a distribution.
    pub fn distribution(&self) -> Result<ExpectedDistribution> {
        ExpectedDistribution::new(self.counts.normalized_l1().map_err(ModelError::Numeric)?)
    }

    /// Average occupancy of the current mix.
    pub fn average_occupancy(&self) -> f64 {
        self.counts.occupancy_weighted_sum() / self.counts.sum()
    }
}

/// Two-dimensional (level × occupancy) area-weighted mean-field dynamics.
#[derive(Debug, Clone)]
pub struct MeanFieldTree {
    branching: usize,
    capacity: usize,
    /// `levels[ℓ]`: expected leaf counts per occupancy `0..=m` at level
    /// `ℓ`. Levels are contiguous from the root's 0: a cascade only ever
    /// opens the level below the deepest one.
    levels: Vec<Vec<f64>>,
    /// `areas[ℓ]`: the area `b^{−ℓ}` of one block at level `ℓ`.
    areas: Vec<f64>,
    /// Resolved split distribution `P_0..P_{m+1}` for one split.
    split_p: Vec<f64>,
    items: f64,
    /// One step's `(level, occupancy, mass)` hits, reused across steps.
    hits: Vec<(usize, usize, f64)>,
}

/// Mass below which a cascading split carry is dropped.
const CARRY_EPS: f64 = 1e-15;

impl MeanFieldTree {
    /// Starts from a single empty root block.
    pub fn new(branching: usize, capacity: usize) -> Result<Self> {
        if branching < 2 {
            return Err(ModelError::invalid("branching factor must be at least 2"));
        }
        if capacity == 0 {
            return Err(ModelError::invalid("capacity must be at least 1"));
        }
        let split_p = expected_bucket_count_vector(capacity as u64 + 1, branching as u64)
            .map_err(ModelError::Numeric)?;
        let mut root = vec![0.0; capacity + 1];
        root[0] = 1.0;
        Ok(MeanFieldTree {
            branching,
            capacity,
            levels: vec![root],
            areas: vec![Self::area(branching, 0)],
            split_p,
            items: 0.0,
            hits: Vec::new(),
        })
    }

    /// Area of one block at `level`: `b^{−level}` of the root.
    fn area(branching: usize, level: usize) -> f64 {
        (branching as f64).powi(-(level as i32))
    }

    /// Inserts one item in expectation: each class `(ℓ, i)` receives mass
    /// equal to its total area share (which is its exact hit probability
    /// under a uniform workload, since leaves tile the region).
    pub fn step(&mut self) {
        // Snapshot the hit masses first (simultaneous update).
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        for (level, (row, &area)) in self.levels.iter().zip(&self.areas).enumerate() {
            for (i, &c) in row.iter().enumerate() {
                let p = c * area;
                if p > 0.0 {
                    hits.push((level, i, p));
                }
            }
        }
        for &(level, i, p) in &hits {
            // The level was snapshotted from this same vector above and
            // levels are never removed, but a miss degrades to a skipped
            // hit rather than a panic.
            let Some(row) = self.levels.get_mut(level) else {
                continue;
            };
            row[i] -= p;
            if i < self.capacity {
                row[i + 1] += p;
            } else {
                self.cascade_split(level, p);
            }
        }
        self.hits = hits;
        self.items += 1.0;
    }

    /// Splits mass `p` of full nodes at `level`: children appear one
    /// level down with the binomial occupancy mix; the all-in-one-bucket
    /// fraction keeps splitting.
    fn cascade_split(&mut self, mut level: usize, mut carry: f64) {
        while carry > CARRY_EPS {
            level += 1;
            if level == self.levels.len() {
                self.levels.push(vec![0.0; self.capacity + 1]);
                self.areas.push(Self::area(self.branching, level));
            }
            let Some(row) = self.levels.get_mut(level) else {
                return;
            };
            for (j, slot) in row.iter_mut().enumerate() {
                *slot += carry * self.split_p[j];
            }
            carry *= self.split_p[self.capacity + 1];
        }
    }

    /// Runs `n` insertion steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Items inserted so far.
    pub fn items(&self) -> f64 {
        self.items
    }

    /// Expected total leaf count.
    pub fn leaf_count(&self) -> f64 {
        self.levels.iter().flatten().sum()
    }

    /// Total area of all leaves — identically 1 (leaves tile the region).
    /// Exposed for invariant checks.
    pub fn total_area(&self) -> f64 {
        self.levels
            .iter()
            .zip(&self.areas)
            .map(|(row, &area)| area * row.iter().sum::<f64>())
            .sum()
    }

    /// The occupancy mix across all levels.
    pub fn distribution(&self) -> Result<ExpectedDistribution> {
        let mut counts = vec![0.0; self.capacity + 1];
        for row in &self.levels {
            for (i, &c) in row.iter().enumerate() {
                counts[i] += c;
            }
        }
        ExpectedDistribution::from_counts(&counts)
    }

    /// Average occupancy across all leaves.
    pub fn average_occupancy(&self) -> f64 {
        let mut items = 0.0;
        let mut leaves = 0.0;
        for row in &self.levels {
            for (i, &c) in row.iter().enumerate() {
                items += i as f64 * c;
                leaves += c;
            }
        }
        items / leaves
    }

    /// Per-level `(level, expected leaves, average occupancy)` rows with
    /// at least `min_count` expected leaves — the mean-field analogue of
    /// the paper's Table 3.
    pub fn level_table(&self, min_count: f64) -> Vec<(u32, f64, f64)> {
        self.levels
            .iter()
            .enumerate()
            .filter_map(|(l, row)| {
                let leaves: f64 = row.iter().sum();
                if leaves < min_count {
                    return None;
                }
                let items: f64 = row.iter().enumerate().map(|(i, &c)| i as f64 * c).sum();
                Some((l as u32, leaves, items / leaves))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pr_model::PrModel;
    use crate::solver::SteadyStateSolver;

    #[test]
    fn count_dynamics_converges_to_solver_fixed_point() {
        let model = PrModel::quadtree(3).unwrap();
        let steady = SteadyStateSolver::new().solve(&model).unwrap();
        let mut dyn_ = CountDynamics::new(&model).unwrap();
        dyn_.run(60_000).unwrap();
        let d = dyn_.distribution().unwrap();
        assert!(
            d.max_abs_diff(steady.distribution()).unwrap() < 5e-3,
            "dynamics {d} vs steady {}",
            steady.distribution()
        );
    }

    #[test]
    fn count_dynamics_item_bookkeeping() {
        let model = PrModel::quadtree(2).unwrap();
        let mut dyn_ = CountDynamics::new(&model).unwrap();
        assert_eq!(dyn_.items(), 0.0);
        assert_eq!(dyn_.node_count(), 1.0);
        dyn_.run(100).unwrap();
        assert_eq!(dyn_.items(), 100.0);
        assert!(dyn_.node_count() > 1.0);
        // Stored items in the mix equal insertions (conservation).
        let implied_items = dyn_.average_occupancy() * dyn_.node_count();
        assert!((implied_items - 100.0).abs() < 1e-6, "{implied_items}");
    }

    #[test]
    fn count_dynamics_rejects_bad_starts() {
        let model = PrModel::quadtree(2).unwrap();
        assert!(CountDynamics::with_start(&model, &DVector::zeros(3)).is_err());
        assert!(CountDynamics::with_start(&model, &DVector::zeros(2)).is_err());
        assert!(CountDynamics::with_start(&model, &DVector::from(&[-1.0, 1.0, 1.0][..])).is_err());
    }

    #[test]
    fn count_dynamics_converges_from_skewed_start() {
        let model = PrModel::quadtree(2).unwrap();
        let steady = SteadyStateSolver::new().solve(&model).unwrap();
        let start = DVector::from(&[0.0, 0.0, 50.0][..]);
        let mut dyn_ = CountDynamics::with_start(&model, &start).unwrap();
        dyn_.run(80_000).unwrap();
        let d = dyn_.distribution().unwrap();
        assert!(d.max_abs_diff(steady.distribution()).unwrap() < 5e-3);
    }

    #[test]
    fn mean_field_tree_conserves_area_and_items() {
        let mut t = MeanFieldTree::new(4, 2).unwrap();
        t.run(500);
        assert!(
            (t.total_area() - 1.0).abs() < 1e-9,
            "area {}",
            t.total_area()
        );
        let implied = t.average_occupancy() * t.leaf_count();
        assert!((implied - 500.0).abs() < 1e-6, "items {implied}");
        assert_eq!(t.items(), 500.0);
    }

    #[test]
    fn mean_field_tree_rejects_bad_parameters() {
        assert!(MeanFieldTree::new(1, 2).is_err());
        assert!(MeanFieldTree::new(4, 0).is_err());
    }

    #[test]
    fn mean_field_shows_aging_gradient() {
        // Table 3's phenomenon: average occupancy decreases with depth
        // (larger blocks are older and better filled).
        let mut t = MeanFieldTree::new(4, 1).unwrap();
        t.run(1000);
        let table = t.level_table(1.0);
        assert!(table.len() >= 2, "need multiple levels, got {table:?}");
        // Compare the two most-populated adjacent levels.
        let mut best = None;
        for w in table.windows(2) {
            let weight = w[0].1.min(w[1].1);
            if best.is_none_or(|(bw, _, _)| weight > bw) {
                best = Some((weight, w[0].2, w[1].2));
            }
        }
        let (_, shallow_occ, deep_occ) = best.unwrap();
        assert!(
            shallow_occ > deep_occ,
            "aging: shallow {shallow_occ} should exceed deep {deep_occ}"
        );
    }

    #[test]
    fn area_weighting_lowers_average_occupancy_below_count_model() {
        // §IV's correction: "the effect of the correction on the modeled
        // average occupancy would be to decrease it".
        let model = PrModel::quadtree(4).unwrap();
        let steady = SteadyStateSolver::new().solve(&model).unwrap();
        let theory = steady.distribution().average_occupancy();
        let mut t = MeanFieldTree::new(4, 4).unwrap();
        t.run(3000);
        // Average over one phasing cycle (×4 in N) to remove oscillation.
        let mut samples = Vec::new();
        let mut n = 3000usize;
        while n < 12_000 {
            let step = (n as f64 * 0.1) as usize;
            t.run(step);
            n += step;
            samples.push(t.average_occupancy());
        }
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            mean < theory,
            "area-weighted mean {mean:.4} should sit below count-model theory {theory:.4}"
        );
        // But not absurdly below (within the paper's ~13% band).
        assert!(mean > theory * 0.80, "{mean} vs {theory}");
    }

    #[test]
    fn mean_field_shows_phasing_oscillation() {
        // Sample average occupancy along a ×√2 ladder; the detrended
        // series must oscillate with period ≈ 4 samples (×4 in N).
        let mut t = MeanFieldTree::new(4, 8).unwrap();
        let mut n = 0usize;
        let mut series = Vec::new();
        for k in 0..16 {
            let target = (64.0 * 2f64.powf(k as f64 / 2.0)) as usize;
            t.run(target - n);
            n = target;
            series.push(t.average_occupancy());
        }
        let metrics = popan_numeric::series::oscillation_metrics(&series, Some(4)).unwrap();
        assert!(
            metrics.amplitude > 0.1,
            "phasing amplitude {} too small",
            metrics.amplitude
        );
        assert!(
            metrics.autocorr_at_period.unwrap() > 0.3,
            "no period-4 structure: {:?}",
            metrics.autocorr_at_period
        );
    }

    #[test]
    fn octree_mean_field_also_conserves() {
        let mut t = MeanFieldTree::new(8, 2).unwrap();
        t.run(400);
        assert!((t.total_area() - 1.0).abs() < 1e-9);
        let implied = t.average_occupancy() * t.leaf_count();
        assert!((implied - 400.0).abs() < 1e-6);
    }
}
