//! The immutable, epoch-stamped read replica.
//!
//! A [`Snapshot`] is a [`LinearQuadtree`] — three flat, Morton-sorted
//! slabs (leaf records, leaf blocks, points) — plus the epoch it was
//! published at. Freezing happens once, on the write side; afterwards
//! the snapshot is strictly read-only and safely shared across threads
//! behind an [`std::sync::Arc`] (it is `Send + Sync` by construction:
//! no interior mutability anywhere).
//!
//! The serving forms are the `_into` methods: they write into
//! caller-owned buffers and a per-reader [`QueryScratch`], performing no
//! heap allocation once those have warmed to the workload's high-water
//! marks (`tests/zero_alloc_read.rs` pins this with a counting global
//! allocator).

use popan_geom::{Point2, Rect};
use popan_spatial::{
    BoundedOutcome, CostBudget, FreezeError, LinearQuadtree, PrQuadtree, QueryScratch,
    SectionDigests, SlabFootprint, SnapshotSection,
};

use crate::queryable::Queryable;

/// An immutable Morton-packed replica of a point set at one epoch.
///
/// The section digests are computed once, at freeze time, over the
/// frozen slabs (the epoch is deliberately excluded — the publisher
/// re-stamps it at publish time without invalidating the checksum).
/// [`Snapshot::verify`] recomputes them and reports any drift as a
/// typed [`SnapshotCorruption`] naming the damaged section(s).
#[derive(Debug, Clone)]
pub struct Snapshot {
    epoch: u64,
    index: LinearQuadtree,
    digests: SectionDigests,
}

impl Snapshot {
    /// Freezes `tree` into a snapshot stamped `epoch`.
    ///
    /// Fails with [`FreezeError::RegionNotGridExact`] when the tree's
    /// region is not Morton-grid-exact and with
    /// [`FreezeError::DepthExceedsMortonBits`] when the tree has leaves
    /// deeper than the Morton resolution (see
    /// [`LinearQuadtree::from_tree`]).
    pub fn freeze(epoch: u64, tree: &PrQuadtree) -> Result<Snapshot, FreezeError> {
        let index = LinearQuadtree::from_tree(tree)?;
        let digests = index.section_digests();
        Ok(Snapshot {
            epoch,
            index,
            digests,
        })
    }

    /// Builds a snapshot directly from points: the route for structures
    /// that are not PR quadtrees (EXCELL, grid file, …): enumerate,
    /// rebuild, freeze. It is [`PrQuadtree::build`] followed by
    /// [`Snapshot::freeze`], so it refuses what they refuse, in their
    /// order: the capacity, then the points, then the region.
    pub fn from_points(
        epoch: u64,
        region: Rect,
        capacity: usize,
        points: impl IntoIterator<Item = Point2>,
    ) -> Result<Snapshot, SnapshotBuildError> {
        let tree = PrQuadtree::build(region, capacity, points)
            .map_err(|e| SnapshotBuildError::Tree(e.to_string()))?;
        Snapshot::freeze(epoch, &tree).map_err(SnapshotBuildError::Freeze)
    }

    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-stamps the epoch. Crate-internal: publisher-assigned epochs
    /// are the truth; user code never renumbers a published snapshot.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The region covered.
    pub fn region(&self) -> Rect {
        self.index.region()
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of leaf records in the packed index.
    pub fn leaf_count(&self) -> usize {
        self.index.leaf_count()
    }

    /// Heap footprint in bytes, accounting every slab (leaf records,
    /// block rects, points) at allocated capacity.
    pub fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
    }

    /// The per-slab heap footprint.
    pub fn footprint(&self) -> SlabFootprint {
        self.index.footprint()
    }

    /// The freeze-time section digests this snapshot carries.
    pub fn digests(&self) -> SectionDigests {
        self.digests
    }

    /// One-stop health view of the frozen replica, the shape
    /// `SnapshotPublisher::health` and the ops tooling consume.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            epoch: self.epoch,
            len: self.len(),
            leaf_count: self.leaf_count(),
            footprint: self.footprint(),
            digests: self.digests,
        }
    }

    /// Recomputes the section digests and checks them against the
    /// freeze-time values. `Ok(())` means every slab is bit-identical
    /// to what was frozen; otherwise the error names each damaged
    /// section. Cost is one linear pass over the slabs — cheap enough
    /// to run on every publish.
    pub fn verify(&self) -> Result<(), SnapshotCorruption> {
        let actual = self.index.section_digests();
        if actual == self.digests {
            return Ok(());
        }
        let mut damaged = Vec::new();
        if actual.leaves != self.digests.leaves {
            damaged.push(SnapshotSection::Leaves);
        }
        if actual.blocks != self.digests.blocks {
            damaged.push(SnapshotSection::Blocks);
        }
        if actual.points != self.digests.points {
            damaged.push(SnapshotSection::Points);
        }
        Err(SnapshotCorruption {
            epoch: self.epoch,
            expected: self.digests,
            actual,
            damaged,
        })
    }

    /// Chaos hook: flips one bit in the chosen frozen section *without*
    /// refreshing the stored digests, so [`Snapshot::verify`] must
    /// catch it. Returns `false` when the section is empty (nothing to
    /// damage). Deterministic: the same `bit` always damages the same
    /// slab byte. Test/fault-injection only — a corrupted snapshot is
    /// quarantined by the publisher, never served.
    pub fn corrupt_section(&mut self, section: SnapshotSection, bit: u64) -> bool {
        self.index.corrupt_slab_bit(section, bit)
    }

    /// The underlying Morton-packed index.
    pub fn index(&self) -> &LinearQuadtree {
        &self.index
    }

    /// Serving-form range query: writes all stored points inside
    /// `query` into `out` (cleared first), sorted by
    /// [`Point2::canonical_cmp`]. The descent's slab-order answer is
    /// sorted by [`QueryScratch::sort_canonical`], whose result is the
    /// comparator sort's bit for bit. Allocation-free once `scratch`
    /// and `out` are warm.
    pub fn range_into(&self, query: &Rect, scratch: &mut QueryScratch, out: &mut Vec<Point2>) {
        self.index.range_query_into(query, scratch, out);
        scratch.sort_canonical(out);
    }

    /// Serving-form count: counts stored points inside `query` without
    /// materializing them. Allocation-free once `scratch` is warm.
    pub fn count_with(&self, query: &Rect, scratch: &mut QueryScratch) -> usize {
        self.index.count_in_range_with(query, scratch)
    }

    /// Serving-form k-NN: writes the `k` nearest points to `target`
    /// into `out` (cleared first), in the canonical k-NN order.
    /// Allocation-free once `scratch` and `out` are warm.
    pub fn knn_into(
        &self,
        target: &Point2,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) {
        self.index.k_nearest_into(target, k, scratch, out);
    }

    /// Budgeted range query (degraded serving): like
    /// [`Snapshot::range_into`] but stops once `budget` work units are
    /// spent. On [`BoundedOutcome::Partial`] the answer is the
    /// guaranteed canonical *prefix* of the full answer — correct and
    /// gap-free as far as it goes.
    pub fn range_bounded_into(
        &self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        self.index
            .range_query_bounded_into(query, budget, scratch, out)
    }

    /// Budgeted count: the count equals the length of the range prefix
    /// [`Snapshot::range_bounded_into`] would return under the same
    /// budget.
    pub fn count_bounded_with(
        &self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
    ) -> (usize, BoundedOutcome) {
        self.index
            .count_in_range_bounded_with(query, budget, scratch)
    }

    /// Budgeted k-NN: on [`BoundedOutcome::Partial`] every returned
    /// neighbor is a true `i`-th nearest neighbor (a prefix of the full
    /// answer under [`popan_spatial::knn_cmp`]).
    pub fn knn_bounded_into(
        &self,
        target: &Point2,
        k: usize,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        self.index
            .k_nearest_bounded_into(target, k, budget, scratch, out)
    }
}

/// A point-in-time health view of one frozen snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// The epoch the snapshot carries.
    pub epoch: u64,
    /// Number of stored points.
    pub len: usize,
    /// Number of leaf records.
    pub leaf_count: usize,
    /// Per-slab heap footprint.
    pub footprint: SlabFootprint,
    /// Freeze-time section digests.
    pub digests: SectionDigests,
}

impl SnapshotStats {
    /// Total heap bytes across every slab.
    pub fn heap_bytes(&self) -> usize {
        self.footprint.total()
    }
}

/// A failed [`Snapshot::verify`]: the recomputed digests drifted from
/// the freeze-time values. Names every damaged section so operators
/// (and the chaos suite) can localize the fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotCorruption {
    /// Epoch stamped on the damaged snapshot.
    pub epoch: u64,
    /// Digests recorded at freeze time.
    pub expected: SectionDigests,
    /// Digests recomputed over the (damaged) slabs.
    pub actual: SectionDigests,
    /// Sections whose digest drifted, in slab order. Empty only in the
    /// pathological case where just the combined digest drifted (region
    /// or length tampering).
    pub damaged: Vec<SnapshotSection>,
}

impl std::fmt::Display for SnapshotCorruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot at epoch {} is corrupt: ", self.epoch)?;
        if self.damaged.is_empty() {
            write!(
                f,
                "structural drift (region or slab lengths), combined {:#018x} != {:#018x}",
                self.actual.combined, self.expected.combined
            )
        } else {
            write!(f, "damaged section(s):")?;
            for s in &self.damaged {
                write!(f, " {s}")?;
            }
            Ok(())
        }
    }
}

impl std::error::Error for SnapshotCorruption {}

impl Queryable for Snapshot {
    fn len(&self) -> usize {
        self.len()
    }

    fn range(&self, query: &Rect) -> Vec<Point2> {
        let mut out = Vec::new();
        self.range_into(query, &mut QueryScratch::new(), &mut out);
        out
    }

    fn count(&self, query: &Rect) -> usize {
        self.count_with(query, &mut QueryScratch::new())
    }

    fn knn(&self, target: &Point2, k: usize) -> Vec<Point2> {
        let mut out = Vec::new();
        self.knn_into(target, k, &mut QueryScratch::new(), &mut out);
        out
    }
}

/// Errors from [`Snapshot::from_points`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotBuildError {
    /// Building the intermediate PR quadtree failed (bad parameters,
    /// out-of-region or non-finite points).
    Tree(String),
    /// Freezing failed (a region that is not grid-exact, or leaves
    /// below the Morton resolution).
    Freeze(FreezeError),
}

impl std::fmt::Display for SnapshotBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotBuildError::Tree(msg) => write!(f, "building load tree: {msg}"),
            SnapshotBuildError::Freeze(e) => write!(f, "freezing: {e}"),
        }
    }
}

impl std::error::Error for SnapshotBuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freeze_stamps_epoch_and_serves() {
        let tree = PrQuadtree::build(
            Rect::unit(),
            2,
            [
                Point2::new(0.2, 0.2),
                Point2::new(0.8, 0.2),
                Point2::new(0.2, 0.8),
            ],
        )
        .unwrap();
        let snap = Snapshot::freeze(7, &tree).unwrap();
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.region(), Rect::unit());
        assert!(snap.leaf_count() >= 1);
        assert!(snap.heap_bytes() > 0);
        let q = Rect::from_bounds(0.0, 0.0, 1.0, 0.5);
        assert_eq!(
            snap.range(&q),
            vec![Point2::new(0.2, 0.2), Point2::new(0.8, 0.2)]
        );
        assert_eq!(snap.count(&q), 2);
        assert_eq!(
            snap.knn(&Point2::new(0.9, 0.1), 1),
            vec![Point2::new(0.8, 0.2)]
        );
    }

    #[test]
    fn from_points_round_trips() {
        let snap = Snapshot::from_points(
            1,
            Rect::unit(),
            4,
            (0..50).map(|i| Point2::new((i as f64 + 0.5) / 50.0, 0.5)),
        )
        .unwrap();
        assert_eq!(snap.len(), 50);
        assert_eq!(snap.count(&Rect::unit()), 50);
        assert!(!snap.is_empty());
    }

    #[test]
    fn from_points_reports_build_errors() {
        let err = Snapshot::from_points(0, Rect::unit(), 0, []).unwrap_err();
        assert!(matches!(err, SnapshotBuildError::Tree(_)), "{err}");
        let err = Snapshot::from_points(0, Rect::unit(), 1, [Point2::new(2.0, 2.0)]).unwrap_err();
        assert!(err.to_string().contains("load tree"), "{err}");
        // A region that is not grid-exact is refused, but only after the
        // capacity and the points pass.
        let region = Rect::from_bounds(-10.0, 5.0, 30.0, 25.0);
        let pts = (0..60).map(|i| {
            let i = f64::from(i);
            Point2::new(-10.0 + (i * 0.61) % 40.0, 5.0 + (i * 0.41) % 20.0)
        });
        let err = Snapshot::from_points(0, region, 3, pts).unwrap_err();
        assert_eq!(
            err,
            SnapshotBuildError::Freeze(FreezeError::RegionNotGridExact)
        );
        assert!(err.to_string().contains("grid-exact"), "{err}");
        let err = Snapshot::from_points(0, region, 0, []).unwrap_err();
        assert!(matches!(err, SnapshotBuildError::Tree(_)), "{err}");
        let err = Snapshot::from_points(0, region, 1, [Point2::new(f64::NAN, 6.0)]).unwrap_err();
        assert!(matches!(err, SnapshotBuildError::Tree(_)), "{err}");
        // Two points in one full-resolution Morton cell split past it.
        let pair = [Point2::new(0.5, 0.5), Point2::new(0.5 + 1e-12, 0.5)];
        let err = Snapshot::from_points(0, Rect::unit(), 1, pair).unwrap_err();
        assert_eq!(
            err,
            SnapshotBuildError::Freeze(FreezeError::DepthExceedsMortonBits { depth: 32, max: 31 })
        );
    }

    #[test]
    fn verify_accepts_pristine_and_names_damaged_sections() {
        let snap = Snapshot::from_points(
            3,
            Rect::unit(),
            2,
            (0..40).map(|i| Point2::new((i as f64 + 0.5) / 40.0, (i as f64 * 0.37) % 1.0)),
        )
        .unwrap();
        snap.verify().expect("pristine snapshot verifies");
        for (bit, section) in [
            (5, popan_spatial::SnapshotSection::Points),
            (97, popan_spatial::SnapshotSection::Blocks),
            (11, popan_spatial::SnapshotSection::Leaves),
        ] {
            let mut damaged = snap.clone();
            assert!(damaged.corrupt_section(section, bit));
            let report = damaged.verify().unwrap_err();
            assert_eq!(report.epoch, 3);
            assert_eq!(report.damaged, vec![section], "{report}");
            assert_ne!(report.actual.combined, report.expected.combined);
            assert!(report.to_string().contains(&section.to_string()));
        }
        // The original is untouched: corruption operated on clones.
        snap.verify().unwrap();
    }

    #[test]
    fn epoch_restamp_preserves_the_checksum() {
        let snap = Snapshot::from_points(0, Rect::unit(), 4, [Point2::new(0.5, 0.5)]).unwrap();
        let digests = snap.digests();
        // Publisher-style re-stamp: digests must survive unchanged.
        let mut restamped = snap.clone();
        restamped.set_epoch(9);
        assert_eq!(restamped.digests(), digests);
        restamped.verify().unwrap();
    }

    #[test]
    fn stats_account_every_slab() {
        let snap = Snapshot::from_points(
            2,
            Rect::unit(),
            2,
            (0..64).map(|i| Point2::new(((i * 7) % 64) as f64 / 64.0 + 0.001, 0.5)),
        )
        .unwrap();
        let stats = snap.stats();
        assert_eq!(stats.epoch, 2);
        assert_eq!(stats.len, 64);
        assert_eq!(stats.leaf_count, snap.leaf_count());
        assert_eq!(stats.digests, snap.digests());
        // heap_bytes is the sum of the per-slab footprints — no slab
        // missing, none double-counted.
        let fp = snap.footprint();
        assert_eq!(stats.heap_bytes(), fp.leaves + fp.blocks + fp.points);
        assert_eq!(snap.heap_bytes(), stats.heap_bytes());
        assert!(fp.leaves > 0 && fp.blocks > 0 && fp.points > 0);
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Snapshot>();
    }
}
