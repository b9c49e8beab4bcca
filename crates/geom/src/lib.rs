//! Geometric primitives for hierarchical spatial data structures.
//!
//! Everything the quadtree/octree/bintree substrates need:
//!
//! * [`Point2`] — points in the plane.
//! * [`Rect`] — axis-aligned rectangles with exact *regular decomposition*
//!   into quadrants (the PR quadtree's split operation).
//! * [`PointN`] / [`BoxN`] — points and boxes in `D` dimensions, a box
//!   splitting into `2^D` orthants (the octree's split at `D = 3`).
//! * [`Interval`] — 1-D intervals with halving (bintree splits).
//! * [`Segment2`] — line segments with rectangle-intersection tests
//!   (Liang–Barsky clipping), the primitive stored by PMR quadtrees.
//! * [`morton`] — Z-order (Morton) codes, useful for ordering points and
//!   for sanity-checking block addressing.
//! * [`epsilon`] — explicit approximate comparison helpers.
//!
//! Regular decomposition is done with midpoint arithmetic on `f64`
//! coordinates. Child blocks tile the parent exactly (the midpoint value
//! is shared, with half-open `[lo, hi)` containment), so a point belongs
//! to exactly one child — an invariant the trees rely on and the tests
//! enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epsilon;
pub mod interval;
pub mod morton;
pub mod point;
pub mod pointn;
pub mod rect;
pub mod segment;

pub use interval::{Half, Interval};
pub use point::Point2;
pub use pointn::{BoxN, PointN};
pub use rect::{Quadrant, Rect};
pub use segment::Segment2;
