//! The snapshot-serving query tier (ROADMAP item 1).
//!
//! The paper's population analysis characterizes what hierarchical
//! structures look like under insertion; this crate is the read side
//! that exploits it: freeze a live tree into an immutable, Morton-sorted
//! [`Snapshot`], publish it at an epoch, and serve `range` / `count` /
//! `knn` to any number of reader threads with **zero locks and zero heap
//! allocations on the hot path**.
//!
//! Three layers:
//!
//! * [`Queryable`] — one query trait over every point structure in the
//!   workspace (PR quadtree, bintree, point quadtree, `PrTreeNd<2>`,
//!   the linear quadtree, EXCELL, the grid file) plus the frozen boxed
//!   [`popan_spatial::reference::BoxedPrQuadtree`] oracle. The contract
//!   is *bit-identity*: every implementation returns byte-for-byte the
//!   same answer for the same data, because results follow the canonical
//!   orders ([`popan_geom::Point2::canonical_cmp`] for ranges,
//!   [`popan_spatial::knn_cmp`] for k-NN). The differential suite in
//!   `tests/oracle_equivalence.rs` enforces this against the oracle.
//! * [`Snapshot`] — an epoch-stamped, immutable
//!   [`popan_spatial::LinearQuadtree`]: three flat slabs (leaf records,
//!   blocks, points) sorted by locational code, built by
//!   [`Snapshot::freeze`] from a PR quadtree or
//!   [`Snapshot::from_points`] from anything else.
//! * [`SnapshotPublisher`] / [`SnapshotReader`] — the
//!   epoch protocol (DESIGN.md §10): a single writer publishes into a
//!   double-buffered pair of slots and then advances an atomic epoch;
//!   readers serve from a cached [`std::sync::Arc`] guard and re-sync
//!   opportunistically (`try_lock`, falling back to the cached complete
//!   snapshot), so a reader never blocks and never observes a torn
//!   snapshot. `tests/epoch_publish.rs` drives N readers under a seeded
//!   schedule and asserts the merged result log is bit-identical for 1
//!   and 4 readers.
//!
//! The tier self-heals (DESIGN.md §12):
//!
//! * **Integrity** — every [`Snapshot`] carries per-section FNV-1a 64
//!   digests computed at freeze; [`Snapshot::verify`] recomputes them
//!   and names any damaged section in a typed
//!   [`snapshot::SnapshotCorruption`] report.
//! * **Quarantine and rollback** — [`SnapshotPublisher::publish`]
//!   validates every candidate *before* the epoch swap; a corrupt one
//!   lands in the bounded [`publisher::QuarantineLog`] and the
//!   last-good epoch keeps serving. [`SnapshotPublisher::health`] reports
//!   the last-good epoch, rejection count, and degraded-answer count.
//! * **Budgeted degraded queries** — `range_bounded` / `count_bounded`
//!   / `knn_bounded` take a [`popan_spatial::CostBudget`] in
//!   deterministic work units (leaves scanned, points read — never
//!   wall clock); on exhaustion the answer is a *guaranteed canonical
//!   prefix* of the full answer. [`budget::budget_for`] derives the
//!   default budget from the split-spec occupancy model (expected
//!   visits ≈ `c·ln n` + selectivity-scaled leaf mass).
//! * **Chaos-tested** — `tests/chaos.rs` drives publish rounds under a
//!   seeded fault plan (`corrupt:<section>`, `publish-stall`,
//!   `reject-epoch`) and asserts the publisher never serves a damaged
//!   snapshot, answers stay bit-identical to the last-good oracle, and
//!   recovery is byte-identical to a never-faulted run.
//!
//! ```
//! use popan_geom::{Point2, Rect};
//! use popan_query::{Queryable, Snapshot, SnapshotPublisher};
//! use popan_spatial::PrQuadtree;
//!
//! let tree = PrQuadtree::build(
//!     Rect::unit(),
//!     4,
//!     [Point2::new(0.2, 0.3), Point2::new(0.7, 0.6)],
//! )
//! .unwrap();
//! let publisher = SnapshotPublisher::new(Snapshot::freeze(0, &tree).unwrap());
//! let mut reader = publisher.subscribe();
//! let hits = reader.current().range(&Rect::from_bounds(0.0, 0.0, 0.5, 0.5));
//! assert_eq!(hits, vec![Point2::new(0.2, 0.3)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod budget;
pub mod publisher;
pub mod queryable;
pub mod snapshot;

pub use batch::{BatchAnswers, BatchScratch};
pub use budget::{budget_for, default_budget, DEFAULT_SLACK};
pub use publisher::{
    PublishError, QuarantineCause, QuarantineEntry, QuarantineLog, ReaderError, ServiceHealth,
    SnapshotPublisher, SnapshotReader, QUARANTINE_LOG_CAP,
};
pub use queryable::{canonical_sort, knn_by_scan, range_by_scan, Queryable};
pub use snapshot::{Snapshot, SnapshotBuildError, SnapshotCorruption, SnapshotStats};
