//! Point distributions over a rectangle (and a `D`-dimensional box).
//!
//! Every source implements [`PointSource`]: a stateless description of a
//! distribution that samples through a caller-supplied RNG. The paper's
//! workloads:
//!
//! * [`UniformRect`] — uniform over the region (Tables 1–4): the paper's
//!   "random points ... drawn from a uniform distribution".
//! * [`GaussianCentered`] — Table 5's "Gaussian distribution of points two
//!   standard deviations wide centered in the square region": σ = side/4
//!   on each axis, samples outside the square rejected and redrawn (see
//!   DESIGN.md §4 for the interpretation).
//!
//! Extensions:
//!
//! * [`Clustered`] — a Neyman–Scott cluster process (parents uniform,
//!   offspring Gaussian around parents), a standard "real data is clumpy"
//!   stand-in.
//! * [`GridJitter`] — a jittered regular grid, the opposite extreme of
//!   clustering (hyper-uniform).
//! * [`uniform_in_box`] — uniform points in a `D`-dimensional box, for
//!   the octree and the other PR trees past the plane.

use popan_geom::{BoxN, Point2, PointN, Rect};
use popan_rng::Rng;

/// A distribution of points over a planar region.
pub trait PointSource {
    /// The region all samples fall in.
    fn region(&self) -> Rect;

    /// Draws one point, always inside [`Self::region`].
    fn sample(&self, rng: &mut dyn popan_rng::RngCore) -> Point2;

    /// Draws `n` points.
    fn sample_n(&self, rng: &mut dyn popan_rng::RngCore, n: usize) -> Vec<Point2> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Uniform distribution over a rectangle.
#[derive(Debug, Clone, Copy)]
pub struct UniformRect {
    region: Rect,
}

impl UniformRect {
    /// Uniform over `region`.
    pub fn new(region: Rect) -> Self {
        UniformRect { region }
    }

    /// Uniform over the unit square (the paper's setting).
    pub fn unit() -> Self {
        UniformRect::new(Rect::unit())
    }
}

impl PointSource for UniformRect {
    fn region(&self) -> Rect {
        self.region
    }

    fn sample(&self, rng: &mut dyn popan_rng::RngCore) -> Point2 {
        let x = self.region.x().lo() + rng.random_range(0.0..1.0) * self.region.width();
        let y = self.region.y().lo() + rng.random_range(0.0..1.0) * self.region.height();
        Point2::new(x, y)
    }
}

/// Draws a standard-normal variate by the Box–Muller transform.
///
/// One branch of the transform is enough here; callers needing pairs can
/// call twice (throughput is irrelevant next to tree construction).
pub fn standard_normal(rng: &mut dyn popan_rng::RngCore) -> f64 {
    // Guard the log: random_range(0.0..1.0) can return exactly 0.
    let mut u1: f64 = rng.random_range(0.0..1.0);
    if u1 <= f64::MIN_POSITIVE {
        u1 = f64::MIN_POSITIVE;
    }
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Truncated Gaussian centered in a rectangle.
///
/// "Two standard deviations wide" per the paper: the region spans ±2σ
/// around the center on each axis, i.e. σ = extent/4. Samples falling
/// outside the region are rejected and redrawn (≈ 4.6% of draws per axis
/// at 2σ truncation), keeping the source total-mass-correct for tree
/// insertion counts.
#[derive(Debug, Clone, Copy)]
pub struct GaussianCentered {
    region: Rect,
    sigma_x: f64,
    sigma_y: f64,
}

impl GaussianCentered {
    /// The paper's configuration: σ = extent/4 per axis over `region`.
    pub fn two_sigma_wide(region: Rect) -> Self {
        GaussianCentered {
            region,
            sigma_x: region.width() / 4.0,
            sigma_y: region.height() / 4.0,
        }
    }

    /// Explicit per-axis standard deviations. Panics if not positive.
    pub fn with_sigmas(region: Rect, sigma_x: f64, sigma_y: f64) -> Self {
        assert!(
            sigma_x > 0.0 && sigma_y > 0.0,
            "standard deviations must be positive"
        );
        GaussianCentered {
            region,
            sigma_x,
            sigma_y,
        }
    }
}

impl PointSource for GaussianCentered {
    fn region(&self) -> Rect {
        self.region
    }

    fn sample(&self, rng: &mut dyn popan_rng::RngCore) -> Point2 {
        let c = self.region.center();
        loop {
            let p = Point2::new(
                c.x + self.sigma_x * standard_normal(rng),
                c.y + self.sigma_y * standard_normal(rng),
            );
            if self.region.contains(&p) {
                return p;
            }
        }
    }
}

/// Neyman–Scott cluster process: `clusters` parent centers uniform in the
/// region, offspring Gaussian (σ = `spread`) around a uniformly chosen
/// parent, rejected to the region.
///
/// Cluster centers are drawn once per source from a dedicated seed so that
/// sampling is stateless and repeatable.
#[derive(Debug, Clone)]
pub struct Clustered {
    region: Rect,
    centers: Vec<Point2>,
    spread: f64,
}

impl Clustered {
    /// Creates a cluster process with centers drawn through `rng`.
    ///
    /// Panics if `clusters == 0` or `spread <= 0`.
    pub fn new(
        region: Rect,
        clusters: usize,
        spread: f64,
        rng: &mut dyn popan_rng::RngCore,
    ) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        assert!(spread > 0.0, "spread must be positive");
        let uniform = UniformRect::new(region);
        let centers = uniform.sample_n(rng, clusters);
        Clustered {
            region,
            centers,
            spread,
        }
    }

    /// The parent centers.
    pub fn centers(&self) -> &[Point2] {
        &self.centers
    }
}

impl PointSource for Clustered {
    fn region(&self) -> Rect {
        self.region
    }

    fn sample(&self, rng: &mut dyn popan_rng::RngCore) -> Point2 {
        let c = self.centers[rng.random_range(0..self.centers.len())];
        loop {
            let p = Point2::new(
                c.x + self.spread * standard_normal(rng),
                c.y + self.spread * standard_normal(rng),
            );
            if self.region.contains(&p) {
                return p;
            }
        }
    }
}

/// A jittered `k × k` grid: sample a uniformly random cell, then a uniform
/// point within it. With `jitter = 1.0` this is plain uniform; smaller
/// jitter concentrates points near cell centers, producing a hyper-uniform
/// (anti-clustered) pattern.
#[derive(Debug, Clone, Copy)]
pub struct GridJitter {
    region: Rect,
    k: usize,
    jitter: f64,
}

impl GridJitter {
    /// Creates a jittered grid source. Panics unless `k > 0` and
    /// `0 < jitter <= 1`.
    pub fn new(region: Rect, k: usize, jitter: f64) -> Self {
        assert!(k > 0, "grid must have at least one cell");
        assert!(jitter > 0.0 && jitter <= 1.0, "jitter must be in (0, 1]");
        GridJitter { region, k, jitter }
    }
}

impl PointSource for GridJitter {
    fn region(&self) -> Rect {
        self.region
    }

    fn sample(&self, rng: &mut dyn popan_rng::RngCore) -> Point2 {
        let cw = self.region.width() / self.k as f64;
        let ch = self.region.height() / self.k as f64;
        let ci = rng.random_range(0..self.k) as f64;
        let cj = rng.random_range(0..self.k) as f64;
        // Jittered offset around the cell center.
        let off = |rng: &mut dyn popan_rng::RngCore, jitter: f64| {
            0.5 + jitter * (rng.random_range(0.0..1.0) - 0.5)
        };
        let x = self.region.x().lo() + (ci + off(rng, self.jitter)) * cw;
        let y = self.region.y().lo() + (cj + off(rng, self.jitter)) * ch;
        // Clamp pathological rounding at the far edge back inside.
        let x = x.min(self.region.x().hi() - f64::EPSILON * self.region.width());
        let y = y.min(self.region.y().hi() - f64::EPSILON * self.region.height());
        Point2::new(x, y)
    }
}

/// `n` points uniform over the `D`-dimensional box `region`, for the
/// PR trees past the plane (the octree at `D = 3`). Each point draws its
/// coordinates in axis order, coordinate `i` as `lo + u·(hi − lo)` on
/// that axis with `u` uniform on `[0, 1)`; on the unit box that is
/// exactly `u`.
pub fn uniform_in_box<const D: usize>(
    region: &BoxN<D>,
    rng: &mut (impl popan_rng::RngCore + ?Sized),
    n: usize,
) -> Vec<PointN<D>> {
    let (lo, hi) = (region.lo(), region.hi());
    (0..n)
        .map(|_| {
            PointN::new(std::array::from_fn(|i| {
                lo[i] + rng.random_range(0.0..1.0) * (hi[i] - lo[i])
            }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5eed)
    }

    #[test]
    fn uniform_stays_in_region_and_covers_quadrants() {
        let src = UniformRect::unit();
        let mut r = rng();
        let pts = src.sample_n(&mut r, 4000);
        assert_eq!(pts.len(), 4000);
        let region = src.region();
        let mut counts = [0usize; 4];
        for p in &pts {
            assert!(region.contains(p));
            counts[region.quadrant_of(p).index()] += 1;
        }
        // Each quadrant should hold roughly a quarter (±5σ ≈ ±137).
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - 1000).abs() < 150,
                "quadrant {i} count {c} far from uniform"
            );
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let src = UniformRect::unit();
        let a = src.sample_n(&mut StdRng::seed_from_u64(7), 10);
        let b = src.sample_n(&mut StdRng::seed_from_u64(7), 10);
        let c = src.sample_n(&mut StdRng::seed_from_u64(8), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn gaussian_concentrates_in_center() {
        let src = GaussianCentered::two_sigma_wide(Rect::unit());
        let mut r = rng();
        let pts = src.sample_n(&mut r, 4000);
        let center_box = Rect::from_bounds(0.25, 0.25, 0.75, 0.75);
        let inside = pts.iter().filter(|p| center_box.contains(p)).count();
        // Central ±1σ box holds ~47% (0.6827² / 0.9545² of truncated mass),
        // far above the uniform 25%.
        assert!(
            inside > 4000 * 38 / 100,
            "only {inside} of 4000 in central box"
        );
        for p in &pts {
            assert!(src.region().contains(p));
        }
    }

    #[test]
    fn gaussian_with_explicit_sigmas() {
        let src = GaussianCentered::with_sigmas(Rect::unit(), 0.05, 0.05);
        let mut r = rng();
        let pts = src.sample_n(&mut r, 1000);
        // Very tight sigma: nearly everything within 0.2 of center.
        let near = pts
            .iter()
            .filter(|p| p.distance(&Point2::new(0.5, 0.5)) < 0.2)
            .count();
        assert!(near > 990, "{near}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn gaussian_rejects_nonpositive_sigma() {
        GaussianCentered::with_sigmas(Rect::unit(), 0.0, 1.0);
    }

    #[test]
    fn clustered_points_hug_centers() {
        let mut r = rng();
        let src = Clustered::new(Rect::unit(), 5, 0.02, &mut r);
        assert_eq!(src.centers().len(), 5);
        let pts = src.sample_n(&mut r, 1000);
        let close = pts
            .iter()
            .filter(|p| src.centers().iter().any(|c| c.distance(p) < 0.1))
            .count();
        assert!(close > 950, "{close} of 1000 near a center");
        for p in &pts {
            assert!(src.region().contains(p));
        }
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn clustered_rejects_zero_clusters() {
        Clustered::new(Rect::unit(), 0, 0.1, &mut rng());
    }

    #[test]
    fn grid_jitter_stays_in_region_and_spreads() {
        let src = GridJitter::new(Rect::unit(), 8, 0.5);
        let mut r = rng();
        let pts = src.sample_n(&mut r, 2000);
        for p in &pts {
            assert!(src.region().contains(p));
        }
        // All 4 quadrants occupied.
        let mut seen = [false; 4];
        for p in &pts {
            seen[src.region().quadrant_of(p).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "jitter must be in")]
    fn grid_jitter_rejects_bad_jitter() {
        GridJitter::new(Rect::unit(), 4, 0.0);
    }

    #[test]
    fn uniform_in_box_stays_in_region_and_matches_the_plain_draw() {
        let region = BoxN::new([-1.0, 2.0, 0.5], [1.0, 2.5, 4.0]);
        for p in uniform_in_box(&region, &mut rng(), 500) {
            assert!(region.contains(&p));
        }
        // On the unit box each coordinate is the bare uniform draw, in
        // axis order.
        let mut r = rng();
        let plain: Vec<[f64; 4]> = (0..50)
            .map(|_| std::array::from_fn(|_| r.random_range(0.0..1.0)))
            .collect();
        let drawn = uniform_in_box::<4>(&BoxN::unit(), &mut rng(), 50);
        assert!(drawn.iter().zip(&plain).all(|(p, c)| p.coords == *c));
    }

    #[test]
    fn trait_object_usability() {
        // The sources are usable behind a dyn pointer (the trial runner
        // depends on this).
        let sources: Vec<Box<dyn PointSource>> = vec![
            Box::new(UniformRect::unit()),
            Box::new(GaussianCentered::two_sigma_wide(Rect::unit())),
        ];
        let mut r = rng();
        for s in &sources {
            let p = s.sample(&mut r);
            assert!(s.region().contains(&p));
        }
    }
}
