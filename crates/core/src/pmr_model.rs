//! Population model for the PMR quadtree, by local Monte-Carlo
//! simulation.
//!
//! The paper's closing claim: "We have applied a similar population
//! analysis to a quadtree line representation called the PMR quadtree …
//! Only the probabilities of the local interaction of the data primitive
//! with the quadrants of a node need be evaluated." The closed-form line
//! analysis lives in the unavailable TR-1740, so this module estimates
//! those local probabilities the honest way: by simulating the *local*
//! event — a block holding `i` random lines receives one more and splits
//! once into quadrants — and averaging the resulting child occupancies.
//! (DESIGN.md §4 records this substitution.)
//!
//! Model structure (PMR split-once rule):
//!
//! * classes `0..=K` where `K ≥ m` caps the state space — PMR leaves can
//!   exceed the threshold `m`, with geometrically decaying probability,
//!   so a cap a few classes above `m` loses negligible mass (the lost
//!   tail is clamped into class `K`);
//! * `t_i = e_{i+1}` for `i < m` (no split);
//! * `t_i` for `i ≥ m`: Monte-Carlo average over draws of `i + 1` lines
//!   of the per-quadrant crossing counts (rows sum to exactly 4).
//!
//! As in the paper's point analysis, the insertion probability for a
//! class is taken proportional to its node count — the same
//! count-proportional approximation whose error the paper names *aging*.

use crate::transform::{PopulationModel, TransformMatrix};
use crate::{ModelError, Result};
use popan_geom::{Point2, Rect, Segment2};
use popan_numeric::DVector;
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};

/// A model of "a random line interacting with a block", normalized to the
/// unit square.
pub trait LocalLineModel {
    /// Draws one segment that passes through the unit square's interior.
    fn sample(&self, rng: &mut StdRng) -> Segment2;
}

/// Random chords: both endpoints uniform on the boundary of the unit
/// square (distinct edges' points joined by a segment through the
/// interior). This is the local regime of a leaf deep inside a PMR tree
/// built from long segments — a line visible in a small block almost
/// always enters and leaves through its boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomChords;

impl RandomChords {
    fn boundary_point(t: f64) -> Point2 {
        // Perimeter parameterization of the unit square, t ∈ [0, 4).
        match t {
            t if t < 1.0 => Point2::new(t, 0.0),
            t if t < 2.0 => Point2::new(1.0, t - 1.0),
            t if t < 3.0 => Point2::new(3.0 - t, 1.0),
            t => Point2::new(0.0, 4.0 - t),
        }
    }
}

impl LocalLineModel for RandomChords {
    fn sample(&self, rng: &mut StdRng) -> Segment2 {
        loop {
            let a = Self::boundary_point(rng.random_range(0.0..4.0));
            let b = Self::boundary_point(rng.random_range(0.0..4.0));
            if a == b {
                continue;
            }
            let s = Segment2::new(a, b);
            if s.crosses_rect(&Rect::unit()) {
                return s;
            }
        }
    }
}

/// Short segments: uniform midpoint in the block, uniform direction,
/// fixed length relative to the block side. The local regime near the
/// *top* of a PMR tree over short-edge map data.
#[derive(Debug, Clone, Copy)]
pub struct ShortSegments {
    /// Segment length as a fraction of the block side, in `(0, 1)`.
    pub relative_length: f64,
}

impl LocalLineModel for ShortSegments {
    fn sample(&self, rng: &mut StdRng) -> Segment2 {
        assert!(
            self.relative_length > 0.0 && self.relative_length < 1.0,
            "relative_length must be in (0, 1)"
        );
        loop {
            let mid = Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
            let theta: f64 = rng.random_range(0.0..std::f64::consts::TAU);
            let (dy, dx) = theta.sin_cos();
            let h = self.relative_length / 2.0;
            let a = Point2::new(mid.x - dx * h, mid.y - dy * h);
            let b = Point2::new(mid.x + dx * h, mid.y + dy * h);
            let s = Segment2::new(a, b);
            // Keep segments whose visible part crosses the block interior
            // (endpoints may poke outside — that's fine and realistic).
            if s.crosses_rect(&Rect::unit()) {
                return s;
            }
        }
    }
}

/// A Monte-Carlo-estimated PMR population model.
#[derive(Debug, Clone)]
pub struct PmrModel {
    threshold: usize,
    classes: usize,
    samples: usize,
    transform: TransformMatrix,
}

impl PmrModel {
    /// Estimates the model for splitting threshold `m` with `extra`
    /// classes above the threshold (state space `0..=m+extra`), using
    /// `samples` Monte-Carlo draws per split row and a seeded RNG.
    pub fn estimate(
        threshold: usize,
        extra_classes: usize,
        local: &dyn LocalLineModel,
        samples: usize,
        seed: u64,
    ) -> Result<Self> {
        if threshold == 0 {
            return Err(ModelError::invalid("threshold must be at least 1"));
        }
        if extra_classes == 0 {
            return Err(ModelError::invalid(
                "need at least one class above the threshold (PMR leaves can exceed it)",
            ));
        }
        if samples < 100 {
            return Err(ModelError::invalid(
                "need at least 100 Monte-Carlo samples per row",
            ));
        }
        let top = threshold + extra_classes; // class cap K
        let n = top + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<DVector> = Vec::with_capacity(n);
        for i in 0..threshold {
            rows.push(DVector::basis(n, i + 1).map_err(ModelError::Numeric)?);
        }
        for i in threshold..=top {
            rows.push(Self::estimate_split_row(i, n, local, samples, &mut rng));
        }
        let transform = TransformMatrix::from_rows(&rows)?;
        Ok(PmrModel {
            threshold,
            classes: n,
            samples,
            transform,
        })
    }

    /// One split row: a block holding `i` lines receives one more
    /// (`i + 1` total) and splits once; average the number of children at
    /// each occupancy over `samples` draws. Each drawn line is classified
    /// against the four quadrants by one
    /// [`Segment2::crosses_quadrants`].
    fn estimate_split_row(
        i: usize,
        n: usize,
        local: &dyn LocalLineModel,
        samples: usize,
        rng: &mut StdRng,
    ) -> DVector {
        let unit = Rect::unit();
        let mut acc = vec![0.0; n];
        for _ in 0..samples {
            let mut counts = [0usize; 4];
            for _ in 0..=i {
                let crossed = local.sample(rng).crosses_quadrants(&unit);
                for (count, crosses) in counts.iter_mut().zip(crossed) {
                    *count += usize::from(crosses);
                }
            }
            for &c in &counts {
                acc[c.min(n - 1)] += 1.0;
            }
        }
        let inv = 1.0 / samples as f64;
        acc.iter().map(|&v| v * inv).collect()
    }

    /// Splitting threshold `m`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Monte-Carlo samples used per split row.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

impl PopulationModel for PmrModel {
    fn classes(&self) -> usize {
        self.classes
    }

    fn transform_matrix(&self) -> &TransformMatrix {
        &self.transform
    }

    fn describe(&self) -> String {
        format!(
            "PMR model: threshold {}, {} classes, {} MC samples/row",
            self.threshold, self.classes, self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SteadyStateSolver;

    fn quick_model(threshold: usize) -> PmrModel {
        PmrModel::estimate(threshold, 6, &RandomChords, 2_000, 42).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PmrModel::estimate(0, 4, &RandomChords, 1000, 1).is_err());
        assert!(PmrModel::estimate(2, 0, &RandomChords, 1000, 1).is_err());
        assert!(PmrModel::estimate(2, 4, &RandomChords, 10, 1).is_err());
    }

    #[test]
    fn chords_cross_the_unit_block() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let s = RandomChords.sample(&mut rng);
            assert!(s.crosses_rect(&Rect::unit()));
        }
    }

    #[test]
    fn short_segments_cross_the_unit_block() {
        let model = ShortSegments {
            relative_length: 0.2,
        };
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let s = model.sample(&mut rng);
            assert!(s.crosses_rect(&Rect::unit()));
            assert!((s.length() - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn split_rows_sum_to_four() {
        // A split always produces exactly 4 children.
        let model = quick_model(2);
        let t = model.transform_matrix();
        for i in 2..model.classes() {
            let sum = t.row(i).sum();
            assert!((sum - 4.0).abs() < 1e-9, "row {i} sums to {sum}");
        }
        // Non-split rows are unit shifts.
        for i in 0..2 {
            assert_eq!(t.row(i).sum(), 1.0);
            assert_eq!(t.row(i)[i + 1], 1.0);
        }
    }

    #[test]
    fn chord_split_scatters_lines_into_about_two_quadrants_each() {
        // A random chord of a block crosses ~2 of its 4 quadrants on
        // average, so splitting i+1 chords yields ≈ 2(i+1) child line
        // references: the split row's occupancy-weighted sum reflects
        // reference duplication (unlike the point model's exact m+1).
        let model = quick_model(2);
        let row = model.transform_matrix().row(2); // 3 lines split
        let refs = row.occupancy_weighted_sum();
        assert!(
            refs > 3.0 * 1.5 && refs < 3.0 * 2.7,
            "3 chords produced {refs} child references"
        );
    }

    #[test]
    fn estimation_is_deterministic_per_seed() {
        let a = PmrModel::estimate(2, 4, &RandomChords, 500, 9).unwrap();
        let b = PmrModel::estimate(2, 4, &RandomChords, 500, 9).unwrap();
        let c = PmrModel::estimate(2, 4, &RandomChords, 500, 10).unwrap();
        assert_eq!(a.transform_matrix().matrix(), b.transform_matrix().matrix());
        assert_ne!(a.transform_matrix().matrix(), c.transform_matrix().matrix());
    }

    #[test]
    fn steady_state_solves_and_decays_above_threshold() {
        let model = quick_model(4);
        let steady = SteadyStateSolver::new()
            .tolerance(1e-12)
            .solve(&model)
            .unwrap();
        let e = steady.distribution();
        // Leaves above the threshold exist but are increasingly rare.
        let at = e.proportion(4);
        let above2 = e.proportion(6);
        assert!(at > 0.0);
        assert!(
            above2 < at,
            "occupancy tail must decay: p(6)={above2} vs p(4)={at}"
        );
        // Tail mass at the cap is negligible (cap choice is adequate).
        assert!(
            e.proportion(e.capacity()) < 0.02,
            "cap class holds {}",
            e.proportion(e.capacity())
        );
    }

    #[test]
    fn short_segment_model_yields_higher_empty_fraction_than_chords() {
        // Short segments concentrate in few quadrants; chords spread
        // across 2+. Splitting short segments therefore leaves more empty
        // children.
        let chords = quick_model(2);
        let shorts = PmrModel::estimate(
            2,
            6,
            &ShortSegments {
                relative_length: 0.15,
            },
            2_000,
            42,
        )
        .unwrap();
        let chord_row = chords.transform_matrix().row(2);
        let short_row = shorts.transform_matrix().row(2);
        assert!(
            short_row[0] > chord_row[0],
            "short-segment splits should produce more empty children: {} vs {}",
            short_row[0],
            chord_row[0]
        );
    }

    #[test]
    fn describe_mentions_parameters() {
        let model = quick_model(3);
        let d = model.describe();
        assert!(d.contains("threshold 3"));
        assert!(d.contains("MC samples"));
    }
}
