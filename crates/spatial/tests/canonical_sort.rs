//! `QueryScratch::sort_canonical` against the comparator sort.
//!
//! The serving range forms sort their answers with a bucket pass on the
//! order-preserving key of `x` instead of
//! `sort_unstable_by(Point2::canonical_cmp)`, and their answers must not
//! change by a single bit. Each case sorts three inputs through one
//! scratch, so buffers left by a longer or differently shaped input are
//! reused. The inputs are uniform windows and the shapes that reach the
//! sort's other paths or stress the key: coincident dyadic grids, an
//! equal-`x` column, identical points, an outlier beside a tight
//! cluster, Gaussian `x`, signed zeros, subnormals, `x` on either side
//! of an exponent step, and negative coordinates.

use popan_geom::Point2;
use popan_proptest::prelude::*;
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::QueryScratch;

/// The point shapes; `MIXED` draws each point's shape on its own.
const SHAPES: u8 = 11;
const MIXED: u8 = SHAPES;

/// Lengths around the bucket sort's cutoff, drawn as often as all the
/// longer ones together.
const EDGE_LENGTHS: [usize; 5] = [0, 1, 31, 32, 33];
const MAX_LEN: usize = 5000;

/// One point of shape `shape`. `a` and `w` fix a window (or a cluster
/// centre) shared by the whole input, so its points collide and tie.
fn point(shape: u8, rng: &mut StdRng, a: f64, w: f64) -> Point2 {
    let y = rng.random_range(0.0..1.0);
    match shape {
        // A uniform window.
        0 => Point2::new(a + w * rng.random_range(0.0..1.0), y),
        // Dyadic grids: many coincident points, ties on x and on y.
        1 => Point2::new(
            f64::from(rng.random_range(0u32..8)) / 8.0,
            f64::from(rng.random_range(0u32..8)) / 8.0,
        ),
        2 => Point2::new(
            f64::from(rng.random_range(0u32..64)) / 64.0,
            f64::from(rng.random_range(0u32..64)) / 64.0,
        ),
        // One column of equal x.
        3 => Point2::new(a, y),
        // All points identical.
        4 => Point2::new(a, w),
        // A cluster 1e-6 wide, with a far outlier now and then.
        5 => {
            if rng.random_range(0u32..64) == 0 {
                Point2::new(a + 0.5, y)
            } else {
                Point2::new(a + 1e-6 * rng.random_range(0.0..1.0), y)
            }
        }
        // Gaussian x (Box–Muller).
        6 => {
            let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
            let v: f64 = rng.random_range(0.0..1.0);
            let g = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            Point2::new(a + w * g, y)
        }
        // Signed zeros and their nearest neighbours, on a coarse y grid.
        7 => {
            let x = [-0.0, 0.0, -f64::MIN_POSITIVE, f64::MIN_POSITIVE][rng.random_range(0..4)];
            Point2::new(x, f64::from(rng.random_range(0u32..4)) / 4.0)
        }
        // Subnormal x of either sign.
        8 => {
            let x = f64::from_bits(rng.random_range(1u64..1 << 52));
            Point2::new(
                if rng.random_range(0u32..2) == 0 {
                    x
                } else {
                    -x
                },
                y,
            )
        }
        // x on either side of 0.25 and of 0.5, where the exponent steps:
        // the steps themselves, their float neighbours, and points
        // within 1e-3 of them.
        9 => {
            let step: f64 = if rng.random_range(0u32..2) == 0 {
                0.25
            } else {
                0.5
            };
            let x = match rng.random_range(0u32..4) {
                0 => step,
                1 => f64::from_bits(step.to_bits() - 1),
                2 => f64::from_bits(step.to_bits() + 1),
                _ => step + rng.random_range(-1e-3..1e-3),
            };
            Point2::new(x, y)
        }
        // Negative coordinates.
        _ => Point2::new(rng.random_range(-1.0..1.0), -y),
    }
}

/// The input an `(shape, length, seed)` triple names.
fn input(shape: u8, len: usize, seed: u64) -> Vec<Point2> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = rng.random_range(0.0..0.85);
    let w = rng.random_range(0.005..0.15);
    (0..len)
        .map(|_| {
            let shape = if shape == MIXED {
                rng.random_range(0..SHAPES)
            } else {
                shape
            };
            point(shape, &mut rng, a, w)
        })
        .collect()
}

/// `(shape, length, seed)`: the length is an edge length half the time.
fn arb_input() -> impl Strategy<Value = (u8, usize, u64)> {
    (
        0..=MIXED,
        0..2 * EDGE_LENGTHS.len(),
        0..=MAX_LEN,
        any::<u64>(),
    )
        .prop_map(|(shape, pick, len, seed)| {
            (shape, EDGE_LENGTHS.get(pick).copied().unwrap_or(len), seed)
        })
}

fn bits(points: &[Point2]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bucket_sort_equals_the_comparator_sort_bit_for_bit(
        first in arb_input(),
        second in arb_input(),
        third in arb_input(),
    ) {
        let mut scratch = QueryScratch::new();
        for (shape, len, seed) in [first, second, third] {
            let points = input(shape, len, seed);
            let mut expect = points.clone();
            expect.sort_unstable_by(Point2::canonical_cmp);
            let mut got = points;
            scratch.sort_canonical(&mut got);
            let (got, expect) = (bits(&got), bits(&expect));
            let first_difference = got.iter().zip(&expect).position(|(g, e)| g != e);
            prop_assert!(
                got == expect,
                "shape {} len {} seed {}: first difference at {:?}",
                shape,
                len,
                seed,
                first_difference
            );
        }
    }
}
