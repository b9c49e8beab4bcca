//! Points in the plane.

use std::fmt;

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Point2) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance (no sqrt; use for comparisons).
    pub fn distance_squared(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Componentwise midpoint.
    pub fn midpoint(&self, other: &Point2) -> Point2 {
        Point2::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// `true` when both coordinates are finite.
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Lexicographic comparison key `(x, y)`; useful for deterministic
    /// ordering in tests. Panics on NaN coordinates.
    pub fn lex_key(&self) -> (f64, f64) {
        assert!(self.is_finite(), "lex_key on non-finite point");
        (self.x, self.y)
    }

    /// Canonical total order on points: `x` then `y`, each by
    /// [`f64::total_cmp`]. This is *the* tie-breaking order of the query
    /// tier — every `Queryable` backend sorts range results and resolves
    /// k-NN ties with it, which is what makes results bit-identical
    /// across backends and reader counts. Total (never panics), and on
    /// the finite points the structures store it agrees with the usual
    /// `(x, y)` lexicographic order.
    pub fn canonical_cmp(&self, other: &Point2) -> std::cmp::Ordering {
        self.x.total_cmp(&other.x).then(self.y.total_cmp(&other.y))
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_cmp_is_lexicographic_and_total() {
        use std::cmp::Ordering;
        let a = Point2::new(0.1, 0.9);
        let b = Point2::new(0.2, 0.0);
        assert_eq!(a.canonical_cmp(&b), Ordering::Less);
        assert_eq!(b.canonical_cmp(&a), Ordering::Greater);
        assert_eq!(a.canonical_cmp(&a), Ordering::Equal);
        assert_eq!(
            Point2::new(0.1, 0.2).canonical_cmp(&Point2::new(0.1, 0.3)),
            Ordering::Less
        );
        // Total even on NaN (never panics).
        let nan = Point2::new(f64::NAN, 0.0);
        let _ = nan.canonical_cmp(&a);
    }

    #[test]
    fn distances_2d() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn midpoint_2d() {
        let m = Point2::new(0.0, 2.0).midpoint(&Point2::new(4.0, 0.0));
        assert_eq!(m, Point2::new(2.0, 1.0));
    }

    #[test]
    fn finiteness() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
    }

    #[test]
    fn conversions_and_display() {
        let p: Point2 = (1.5, 2.5).into();
        assert_eq!(format!("{p}"), "(1.5, 2.5)");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn lex_key_panics_on_nan() {
        Point2::new(f64::NAN, 0.0).lex_key();
    }
}
