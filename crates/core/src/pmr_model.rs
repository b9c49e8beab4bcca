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
    /// Draws one candidate segment, or `None` when the draw gives no
    /// segment; it need not pass through the unit square.
    fn candidate(&self, rng: &mut StdRng) -> Option<Segment2>;

    /// Draws candidates until one passes through the unit square's
    /// interior, and returns it with the quadrants it crosses
    /// ([`Segment2::crosses_block`]).
    fn sample_with_quadrants(&self, rng: &mut StdRng) -> (Segment2, [bool; 4]) {
        let unit = Rect::unit();
        loop {
            if let Some(s) = self.candidate(rng) {
                if let Some(quadrants) = s.crosses_block(&unit) {
                    return (s, quadrants);
                }
            }
        }
    }

    /// Draws one segment that passes through the unit square's interior.
    fn sample(&self, rng: &mut StdRng) -> Segment2 {
        self.sample_with_quadrants(rng).0
    }
}

/// Random chords: both endpoints uniform on the boundary of the unit
/// square (distinct edges' points joined by a segment through the
/// interior). This is the local regime of a leaf deep inside a PMR tree
/// built from long segments — a line visible in a small block almost
/// always enters and leaves through its boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomChords;

impl RandomChords {
    /// Perimeter parameterization of the unit square, `t ∈ [0, 4)`:
    /// `(t, 0)`, `(1, t − 1)`, `(3 − t, 1)` or `(0, 4 − t)` on the edge
    /// the three comparisons put `t` on. The edge indexes the four
    /// candidates rather than choosing a branch, so a uniform `t` costs
    /// no mispredicted jump.
    fn boundary_point(t: f64) -> Point2 {
        let edge = 3 - usize::from(t < 1.0) - usize::from(t < 2.0) - usize::from(t < 3.0);
        let xs = [t, 1.0, 3.0 - t, 0.0];
        let ys = [0.0, t - 1.0, 1.0, 4.0 - t];
        Point2::new(xs[edge], ys[edge])
    }
}

impl LocalLineModel for RandomChords {
    /// Two perimeter points; `None` when they coincide.
    #[inline]
    fn candidate(&self, rng: &mut StdRng) -> Option<Segment2> {
        let a = Self::boundary_point(rng.random_range(0.0..4.0));
        let b = Self::boundary_point(rng.random_range(0.0..4.0));
        // Perimeter points are finite, so distinct ones are a segment.
        (a != b).then_some(Segment2 { a, b })
    }
}

/// Short segments: uniform midpoint in the block, uniform direction,
/// fixed length relative to the block side. The local regime near the
/// *top* of a PMR tree over short-edge map data. A segment's endpoints
/// may poke outside the block — that's fine and realistic.
#[derive(Debug, Clone, Copy)]
pub struct ShortSegments {
    /// Segment length as a fraction of the block side, in `(0, 1)`.
    pub relative_length: f64,
}

impl LocalLineModel for ShortSegments {
    /// A midpoint and an angle.
    fn candidate(&self, rng: &mut StdRng) -> Option<Segment2> {
        assert!(
            self.relative_length > 0.0 && self.relative_length < 1.0,
            "relative_length must be in (0, 1)"
        );
        let mid = Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
        let theta: f64 = rng.random_range(0.0..std::f64::consts::TAU);
        let (dy, dx) = theta.sin_cos();
        let h = self.relative_length / 2.0;
        let a = Point2::new(mid.x - dx * h, mid.y - dy * h);
        let b = Point2::new(mid.x + dx * h, mid.y + dy * h);
        Some(Segment2::new(a, b))
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
    /// each occupancy over `samples` draws. Each drawn line comes with
    /// the quadrants it crosses from the test that accepted it
    /// ([`LocalLineModel::sample_with_quadrants`]).
    fn estimate_split_row(
        i: usize,
        n: usize,
        local: &dyn LocalLineModel,
        samples: usize,
        rng: &mut StdRng,
    ) -> DVector {
        let mut acc = vec![0.0; n];
        for _ in 0..samples {
            let mut counts = [0usize; 4];
            for _ in 0..=i {
                let (_, crossed) = local.sample_with_quadrants(rng);
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
            let (s, quadrants) = RandomChords.sample_with_quadrants(&mut rng);
            assert!(s.crosses_rect(&Rect::unit()));
            assert_eq!(quadrants, s.crosses_quadrants(&Rect::unit()));
        }
    }

    /// The perimeter parameterization as a `match` on the edge.
    fn boundary_point_by_match(t: f64) -> Point2 {
        match t {
            t if t < 1.0 => Point2::new(t, 0.0),
            t if t < 2.0 => Point2::new(1.0, t - 1.0),
            t if t < 3.0 => Point2::new(3.0 - t, 1.0),
            t => Point2::new(0.0, 4.0 - t),
        }
    }

    #[test]
    fn boundary_point_equals_the_match_form() {
        let corners = [0.0f64, 1.0, 2.0, 3.0, 4.0]
            .into_iter()
            .flat_map(|t| [t.next_down(), t, t.next_up()]);
        let grid = (0..=4096).map(|i| f64::from(i) / 1024.0);
        for t in corners.chain(grid) {
            let (got, want) = (RandomChords::boundary_point(t), boundary_point_by_match(t));
            assert_eq!(
                (got.x.to_bits(), got.y.to_bits()),
                (want.x.to_bits(), want.y.to_bits()),
                "t = {t}"
            );
        }
    }

    #[test]
    fn fused_test_on_perimeter_chords_is_rect_then_quadrants() {
        let unit = Rect::unit();
        let chord = |ta: f64, tb: f64| {
            let (a, b) = (
                RandomChords::boundary_point(ta.rem_euclid(4.0)),
                RandomChords::boundary_point(tb.rem_euclid(4.0)),
            );
            (a != b).then(|| Segment2::new(a, b))
        };
        let mut rng = StdRng::seed_from_u64(11);
        let drawn: Vec<Segment2> = (0..20_000)
            .filter_map(|_| RandomChords.candidate(&mut rng))
            .collect();
        // Chords along one edge, and chords shorter than 1e-12 across a
        // corner or along an edge from it.
        let mut built = Vec::new();
        for corner in [0.0, 1.0, 2.0, 3.0] {
            built.extend(chord(corner + 0.25, corner + 0.75));
            built.extend(chord(corner, (corner + 1.0f64).next_down()));
            built.extend(chord(corner - 3e-13, corner + 4e-13));
            built.extend(chord(corner, corner + 5e-13));
            built.extend(chord(corner.next_down(), corner.next_up()));
        }
        let (mut accepted, mut rejected) = (0, 0);
        for s in drawn.iter().chain(&built) {
            let fused = s.crosses_block(&unit);
            assert_eq!(
                fused,
                s.crosses_rect(&unit).then(|| s.crosses_quadrants(&unit)),
                "{s:?}"
            );
            if fused.is_some() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted > 20_000 && rejected >= 12,
            "{accepted} / {rejected}"
        );
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
