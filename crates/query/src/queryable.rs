//! The unified query trait and its implementations.
//!
//! One trait, one contract: for the same stored multiset of points,
//! every implementation returns **bit-identical** answers. Range results
//! are sorted by [`Point2::canonical_cmp`]; k-NN results follow
//! [`knn_cmp`] (squared distance, then canonical order), so coincident
//! piles and equidistant rings resolve the same way everywhere. The
//! differential suite (`tests/oracle_equivalence.rs`) checks each
//! backend against the frozen boxed oracle byte for byte.

use popan_exthash::excell::ExcellGrid;
use popan_exthash::gridfile::GridFile;
use popan_geom::{Point2, Rect};
use popan_spatial::reference::BoxedPrQuadtree;
use popan_spatial::{knn_cmp, Bintree, LinearQuadtree, PointQuadtree, PrQuadtree, PrTreeNd};

/// Uniform read interface over every point structure in the workspace.
///
/// The contract is determinism, not speed: implementations may answer
/// from a pointer tree, a flat snapshot, or a hash directory, but the
/// returned bytes must be identical. Hot serving always goes through
/// [`crate::Snapshot`] (which also offers allocation-free `_into`
/// forms); the other backends exist so the same differential tests and
/// experiment drivers cover every structure.
pub trait Queryable {
    /// Number of stored points.
    fn len(&self) -> usize;

    /// `true` when no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored points inside `query` (half-open on both axes),
    /// sorted by [`Point2::canonical_cmp`]. Duplicates are returned
    /// with their multiplicity.
    fn range(&self, query: &Rect) -> Vec<Point2>;

    /// Number of stored points inside `query`.
    fn count(&self, query: &Rect) -> usize {
        self.range(query).len()
    }

    /// The `k` stored points nearest to `target`, ordered by
    /// [`knn_cmp`]; fewer when fewer than `k` points are stored.
    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2>;
}

/// Sorts points into the canonical range-result order with the
/// comparator. The snapshot's serving range forms sort with
/// [`popan_spatial::QueryScratch::sort_canonical`] instead; this stays
/// the reference they are checked against.
pub fn canonical_sort(points: &mut [Point2]) {
    points.sort_unstable_by(Point2::canonical_cmp);
}

/// Reference range implementation: filter a full scan, sort
/// canonically. Every backend's `range` must agree with this.
pub fn range_by_scan(points: impl IntoIterator<Item = Point2>, query: &Rect) -> Vec<Point2> {
    let mut out: Vec<Point2> = points.into_iter().filter(|p| query.contains(p)).collect();
    canonical_sort(&mut out);
    out
}

/// Reference k-NN implementation: rank a full scan by [`knn_cmp`] and
/// keep the first `k`. Every backend's `knn` must agree with this.
pub fn knn_by_scan(
    points: impl IntoIterator<Item = Point2>,
    target: &Point2,
    k: usize,
) -> Vec<Point2> {
    let mut ranked: Vec<(f64, Point2)> = points
        .into_iter()
        .map(|p| (p.distance_squared(target), p))
        .collect();
    ranked.sort_unstable_by(knn_cmp);
    ranked.truncate(k);
    ranked.into_iter().map(|(_, p)| p).collect()
}

impl Queryable for PrQuadtree {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let mut out = self.range_query(query);
        canonical_sort(&mut out);
        out
    }

    fn count(&self, query: &Rect) -> usize {
        self.count_in_range(query)
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        // Native traversal already uses the canonical k-NN order.
        self.k_nearest(target, k)
    }
}

impl Queryable for BoxedPrQuadtree {
    // The oracle answers from first principles — full scans against the
    // reference implementations — so a shared bug in a clever traversal
    // cannot cancel out in the differential tests.
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        range_by_scan(self.points(), query)
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        knn_by_scan(self.points(), target, k)
    }
}

impl Queryable for LinearQuadtree {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let mut out = self.range_query(query);
        canonical_sort(&mut out);
        out
    }

    fn count(&self, query: &Rect) -> usize {
        self.count_in_range(query)
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        self.k_nearest(target, k)
    }
}

impl Queryable for Bintree {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let mut out = self.range_query(query);
        canonical_sort(&mut out);
        out
    }

    fn count(&self, query: &Rect) -> usize {
        self.count_in_range(query)
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        knn_by_scan(self.points(), target, k)
    }
}

impl Queryable for PointQuadtree {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let mut out = self.range_query(query);
        canonical_sort(&mut out);
        out
    }

    fn count(&self, query: &Rect) -> usize {
        self.count_in_range(query)
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        knn_by_scan(self.points(), target, k)
    }
}

impl Queryable for PrTreeNd<2> {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let lo = [query.x().lo(), query.y().lo()];
        let hi = [query.x().hi(), query.y().hi()];
        let mut out: Vec<Point2> = self
            .range_query(&lo, &hi)
            .into_iter()
            .map(|p| Point2::new(p.coords[0], p.coords[1]))
            .collect();
        canonical_sort(&mut out);
        out
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        knn_by_scan(
            self.points()
                .into_iter()
                .map(|p| Point2::new(p.coords[0], p.coords[1])),
            target,
            k,
        )
    }
}

impl Queryable for ExcellGrid {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let mut out = self.range_query(query);
        canonical_sort(&mut out);
        out
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        // The directory has no ordered sweep; rank its full contents.
        knn_by_scan(self.range_query(&self.region()), target, k)
    }
}

impl Queryable for GridFile {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let mut out = self.range_query(query);
        canonical_sort(&mut out);
        out
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        knn_by_scan(self.range_query(&self.region()), target, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_helpers_define_the_contract() {
        let pts = [
            Point2::new(0.6, 0.1),
            Point2::new(0.2, 0.8),
            Point2::new(0.2, 0.3),
            Point2::new(0.2, 0.3), // duplicate, kept with multiplicity
        ];
        let q = Rect::from_bounds(0.0, 0.0, 0.5, 1.0);
        let r = range_by_scan(pts, &q);
        assert_eq!(
            r,
            vec![
                Point2::new(0.2, 0.3),
                Point2::new(0.2, 0.3),
                Point2::new(0.2, 0.8),
            ]
        );
        let nn = knn_by_scan(pts, &Point2::new(0.0, 0.0), 2);
        assert_eq!(nn, vec![Point2::new(0.2, 0.3), Point2::new(0.2, 0.3)]);
    }

    #[test]
    fn trait_objects_work() {
        let tree = PrQuadtree::build(
            Rect::unit(),
            2,
            [Point2::new(0.1, 0.1), Point2::new(0.9, 0.9)],
        )
        .unwrap();
        let q: &dyn Queryable = &tree;
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.count(&Rect::from_bounds(0.0, 0.0, 0.5, 0.5)), 1);
        assert_eq!(
            q.knn(&Point2::new(0.8, 0.8), 1),
            vec![Point2::new(0.9, 0.9)]
        );
    }
}
