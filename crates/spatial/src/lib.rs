//! Hierarchical spatial data structures with occupancy instrumentation.
//!
//! The experimental half of the SIGMOD '87 population-analysis paper:
//! actual bucketing trees that can be built from synthetic workloads and
//! interrogated for the node-occupancy statistics the model predicts.
//!
//! * [`PrQuadtree`] — the generalized PR quadtree (regular decomposition,
//!   node capacity `m`, "split until no block contains more than m
//!   points"). The paper's primary experimental subject.
//! * [`Bintree`] — regular decomposition with alternating axis halving
//!   (branching factor 2).
//! * [`PrTreeNd`] — the same discipline in `D` dimensions (branching
//!   factor `2^D`): `PrTreeNd<3>` is the PR octree, `PrTreeNd<4>` the
//!   `b = 16` tree.
//! * [`PointQuadtree`] — the classical Finkel–Bentley point quadtree,
//!   where partitions are data-dependent (included for the paper's §II
//!   taxonomy; it has no bucket populations, so only depth statistics).
//! * [`MarySearchTree`] — the random m-ary search tree over keys, the
//!   comparison-based member of Devroye's split-tree family
//!   (`SplitSpec::mary_search_tree` in `popan-core`), with the same
//!   census integration as the spatial trees plus total-path-length
//!   accounting over pivots ([`MaryCensus`]).
//! * [`PmrQuadtree`] — the PMR quadtree for line segments (split-once
//!   rule), subject of the paper's companion analysis \[Nels86a/b\].
//! * [`node_stats`] — occupancy profiles, per-depth tables, and the
//!   [`OccupancyInstrumented`] trait the experiments consume.
//! * [`visualize`] — ASCII rendering of a quadtree's block decomposition
//!   (Figure 1).
//!
//! The regular-decomposition trees (`PrQuadtree`, `Bintree`, `PrTreeNd`)
//! share one arena-backed core ([`arena`], crate-private): nodes live in
//! a contiguous slot pool addressed by `u32` ids, points in per-leaf
//! small buffers that spill to a shared point arena, and an
//! [`node_stats::OccupancyCensus`] is maintained incrementally so
//! `occupancy_profile()` / `depth_table()` / `leaf_count()` are
//! zero-allocation reads. [`reference`] keeps the original boxed
//! implementation as the bit-identity oracle for the equivalence tests.
//!
//! All trees are deterministic given their insertion sequence, use
//! half-open regular decomposition from [`popan_geom`], and enforce their
//! splitting rule as an internal invariant (checked by `debug_assert` and
//! by each tree's `check_invariants` test hook).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;

pub mod bintree;
pub mod linear_quadtree;
pub mod mary_tree;
pub mod node_stats;
pub mod pmr_quadtree;
pub mod point_quadtree;
pub mod pr_quadtree;
pub mod pr_tree_nd;
pub mod reference;
pub mod visualize;

pub use bintree::Bintree;
pub use linear_quadtree::{
    knn_cmp, BoundedOutcome, CostBudget, FreezeError, LinearQuadtree, QueryCost, QueryScratch,
    SectionDigests, SlabFootprint, SnapshotSection,
};
pub use mary_tree::{MaryCensus, MarySearchTree};
pub use node_stats::{
    DepthOccupancyTable, LeafRecord, OccupancyCensus, OccupancyInstrumented, OccupancyProfile,
};
pub use pmr_quadtree::PmrQuadtree;
pub use point_quadtree::PointQuadtree;
pub use pr_quadtree::PrQuadtree;
pub use pr_tree_nd::PrTreeNd;
