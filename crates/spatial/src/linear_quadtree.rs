//! The linear (pointerless) quadtree — the query tier's snapshot form.
//!
//! A classic companion representation from the quadtree literature the
//! paper builds on (Gargantini's linear quadtrees; Samet's survey
//! \[Same84a\]): instead of pointer nodes, store one record per *leaf*,
//! keyed by its locational code — the Morton prefix of its block — in
//! sorted order. Point lookup is then a binary search, the whole index is
//! three flat allocations, and the structure is trivially serializable.
//!
//! [`LinearQuadtree`] is built by freezing a [`crate::PrQuadtree`]; the
//! two answer queries identically (tested), with the linear form trading
//! mutability for compactness and cache-friendly search. PR 6 grew it
//! into the read-replica substrate of `popan-query`:
//!
//! * **Typed freeze.** [`LinearQuadtree::from_tree`] rejects trees with
//!   leaves deeper than [`morton::MORTON_BITS`] with
//!   [`FreezeError::DepthExceedsMortonBits`] instead of silently
//!   aliasing distinct blocks onto one locational code, and regions
//!   that fail [`morton::morton_grid_exact`] with
//!   [`FreezeError::RegionNotGridExact`]: only there do the leaf code
//!   ranges tile the Morton range exactly.
//! * **One range walk.** Range and count, bounded or not, walk the
//!   k-NN's implicit Morton hierarchy: a block inside the window is
//!   copied (or counted off the flat offsets) as one slab range, a block
//!   outside it is skipped, and only the blocks the window's edges cut
//!   pay the per-point rectangle test, filtered in one pass once they
//!   hold at most [`SCAN_RUN`] points. The bounded forms stop refining
//!   at [`RANGE_DECOMPOSE_DEPTH`] and charge leaf by leaf in slab order.
//! * **Deterministic, nearest-first k-NN.** [`LinearQuadtree::k_nearest_into`]
//!   returns the `k` nearest points under the canonical
//!   `(distance², Point2::canonical_cmp)` order, so coincident-point and
//!   equidistant ties resolve identically on every backend. It descends
//!   the implicit Morton hierarchy of the leaf slab nearest child first
//!   and prunes whole subtrees, so a query examines O(log n + k/m̄)
//!   blocks instead of every leaf.
//! * **Zero-allocation serving.** The `_into` variants write into
//!   caller-owned buffers and a reusable [`QueryScratch`]; after warmup
//!   a query batch performs no heap allocation (pinned by
//!   `crates/query/tests/zero_alloc_read.rs`).

use crate::pr_quadtree::PrQuadtree;
use popan_geom::morton;
use popan_geom::{Interval, Point2, Rect};
use popan_rng::hash::{Fnv64, Mix64x4};
use std::cmp::Ordering;

/// Errors from freezing a pointer tree into linear form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// A leaf sits deeper than the Morton code resolution: two distinct
    /// blocks at such depths would receive the *same* locational code,
    /// so the frozen index could return wrong blocks. The tree must be
    /// rebuilt with `max_depth ≤` [`morton::MORTON_BITS`].
    DepthExceedsMortonBits {
        /// The offending leaf depth.
        depth: u32,
        /// The deepest representable level, [`morton::MORTON_BITS`].
        max: u32,
    },
    /// The region fails [`morton::morton_grid_exact`]: quantization
    /// there can round a block corner into a neighbouring cell, so the
    /// leaf code ranges would overlap instead of tiling the Morton
    /// range, and range, count, k-NN and point lookup would all read
    /// the wrong leaves. Each axis must be `[0, 2^k)` with |k| ≤ 512.
    RegionNotGridExact,
}

impl std::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreezeError::DepthExceedsMortonBits { depth, max } => write!(
                f,
                "leaf at depth {depth} exceeds the Morton resolution of {max} bits per axis; \
                 locational codes would alias"
            ),
            FreezeError::RegionNotGridExact => f.write_str(
                "region is not Morton-grid-exact (each axis must be [0, 2^k)); \
                 leaf code ranges would overlap",
            ),
        }
    }
}

impl std::error::Error for FreezeError {}

/// Charge granularity of the bounded range walk: it stops refining a
/// block the window's edges cut at this depth and charges every leaf
/// under it. The unbounded forms stop at any cut block of at most
/// [`SCAN_RUN`] points instead.
pub const RANGE_DECOMPOSE_DEPTH: u32 = 8;

/// The unbounded range walk filters a block the window's edges cut in
/// one pass, without splitting it, once it holds at most this many
/// points. A block visit costs about as much as forty point tests, so
/// a split, four visits, pays for itself only when the children it
/// skips or takes whole hold a few hundred points. Fixed by a sweep
/// over {16, 32, 64, 128, 256, 512} (DESIGN.md §10).
pub const SCAN_RUN: usize = 256;

/// Reusable buffers for the allocation-free query paths. One scratch per
/// reader thread; contents are meaningless between calls. The range and
/// count descents need none of them; the canonical sort of a range
/// answer ([`QueryScratch::sort_canonical`]) and the k-NN forms do.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    /// k-NN candidate list: `(distance², point)` sorted by the canonical
    /// k-NN order.
    best: Vec<(f64, Point2)>,
    /// Indices of the leaves the current *bounded* k-NN scanned; it
    /// replays them to find the unscanned leaves that cap its answer.
    visited: Vec<u32>,
    /// Staging buffer for the bounded count (it must materialize
    /// candidates to trim them against the truncation bound).
    staged: Vec<Point2>,
    /// The canonical sort's copy of the answer, which it scatters from.
    sort_from: Vec<Point2>,
    /// The canonical sort's bucket counts, then bucket offsets.
    sort_counts: Vec<u32>,
}

/// Answers shorter than this are sorted by the comparator alone: on so
/// few points the bucket passes cost more than they save.
const BUCKET_SORT_MIN: usize = 32;

/// A bucket holding more points than this is sorted on its own before
/// the final insertion pass, which then stays linear.
const SMALL_BUCKET: usize = 8;

/// A bucket holding more than `1/SKEW_SHARE` of the answer sends the
/// whole answer to the comparator before any point is scattered: with
/// that much of the answer in a few buckets, sorting those buckets
/// costs about as much as sorting the answer.
const SKEW_SHARE: usize = 16;

/// The `u64` image of `x` under [`f64::total_cmp`]'s order: a
/// non-negative value gets its sign bit flipped, a negative one every
/// bit. `x.total_cmp(&y) == order_key(x).cmp(&order_key(y))` for every
/// pair of `f64`s, so `-0.0` keys below `0.0` and NaNs key where
/// `total_cmp` puts them.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

impl QueryScratch {
    /// Creates an empty scratch (buffers grow on first use and are
    /// reused afterwards).
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Sorts a range answer by [`Point2::canonical_cmp`] with one
    /// bucket pass on the [`f64::total_cmp`] key of `x` (DESIGN.md §10).
    ///
    /// The keys' span is cut into about `points.len()` buckets of equal
    /// key width, the points are scattered into bucket order, any bucket
    /// holding more than a few points is sorted on its own, and one
    /// insertion pass finishes the rest. A window's hits spread over its
    /// `x` range, so most buckets hold one point and the passes are
    /// linear. Short answers, and answers whose histogram puts a large
    /// share of the points in one bucket (a column of equal `x`, an
    /// outlier beside a tight cluster), are sorted by the comparator
    /// instead.
    ///
    /// The result equals `points.sort_unstable_by(Point2::canonical_cmp)`
    /// bit for bit: both are sorted under a total order in which only
    /// bit-identical points compare equal. Allocation-free once the
    /// scratch has sorted an answer at least as long: the buffers'
    /// capacity depends only on the answer's length.
    pub fn sort_canonical(&mut self, points: &mut [Point2]) {
        let n = points.len();
        if n < BUCKET_SORT_MIN || u32::try_from(n).is_err() {
            points.sort_unstable_by(Point2::canonical_cmp);
            return;
        }
        // At most 2^bucket_bits ≥ n buckets, and more than n/2 of them
        // whenever the key span has at least bucket_bits bits.
        let bucket_bits = usize::BITS - (n - 1).leading_zeros();
        self.sort_counts.clear();
        self.sort_counts.reserve(1 << bucket_bits);
        self.sort_from.clear();
        self.sort_from.reserve(n);

        let (lo, hi) = points.iter().fold((u64::MAX, u64::MIN), |(lo, hi), p| {
            let key = order_key(p.x);
            (lo.min(key), hi.max(key))
        });
        let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(bucket_bits);
        let bucket = |p: &Point2| ((order_key(p.x) - lo) >> shift) as usize;

        self.sort_counts
            .resize(((hi - lo) >> shift) as usize + 1, 0);
        let counts = self.sort_counts.as_mut_slice();
        let limit = (n / SKEW_SHARE).max(SMALL_BUCKET) as u32;
        let skewed = points.iter().any(|p| {
            counts.get_mut(bucket(p)).is_some_and(|count| {
                *count += 1;
                *count > limit
            })
        });
        if skewed {
            points.sort_unstable_by(Point2::canonical_cmp);
            return;
        }

        // Counts to first offsets, then scatter: each offset ends as its
        // bucket's end.
        let mut start = 0;
        for count in counts.iter_mut() {
            let len = *count;
            *count = start;
            start += len;
        }
        self.sort_from.extend_from_slice(points);
        for p in &self.sort_from {
            if let Some(offset) = counts.get_mut(bucket(p)) {
                if let Some(slot) = points.get_mut(*offset as usize) {
                    *slot = *p;
                }
                *offset += 1;
            }
        }

        let mut start = 0;
        for &end in counts.iter() {
            let end = end as usize;
            if end > start + SMALL_BUCKET {
                if let Some(run) = points.get_mut(start..end) {
                    run.sort_unstable_by(Point2::canonical_cmp);
                }
            }
            start = end;
        }
        insertion_pass(points);
    }
}

/// Insertion sort: linear when every point is at most a few places from
/// its sorted position, as the bucket scatter leaves them.
fn insertion_pass(points: &mut [Point2]) {
    for i in 1..points.len() {
        let mut j = i;
        while let Some(prev) = j.checked_sub(1) {
            let Some([a, b]) = points.get_mut(prev..=j) else {
                break;
            };
            if a.canonical_cmp(b) != Ordering::Greater {
                break;
            }
            std::mem::swap(a, b);
            j = prev;
        }
    }
}

/// One frozen slab of a [`LinearQuadtree`], as named by integrity
/// reports and the fault-injection vocabulary (`corrupt:leaf|blocks|points`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SnapshotSection {
    /// The Morton-sorted leaf records (codes, depths, point offsets).
    Leaves,
    /// The parallel geometric block rects.
    Blocks,
    /// The flat point slab.
    Points,
}

impl std::fmt::Display for SnapshotSection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SnapshotSection::Leaves => "leaves",
            SnapshotSection::Blocks => "blocks",
            SnapshotSection::Points => "points",
        })
    }
}

/// The per-section FNV-1a 64 digests of a frozen index, plus a combined
/// digest folding in the region and the slab lengths. Computed once at
/// freeze, re-computed by `Snapshot::verify` in `popan-query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionDigests {
    /// Digest of the leaf-record slab (codes, depths, offsets, lengths).
    pub leaves: u64,
    /// Digest of the block-rect slab (all four bounds, bit-exact).
    pub blocks: u64,
    /// Digest of the point slab (both coordinates, bit-exact).
    pub points: u64,
    /// Digest over the region bounds, slab lengths, and the three
    /// section digests — one number that pins the whole frozen index.
    pub combined: u64,
}

/// Heap bytes held per slab (allocated capacity, not live length — the
/// freeze shrinks each slab so the two coincide for a fresh snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlabFootprint {
    /// Bytes held by the leaf-record slab.
    pub leaves: usize,
    /// Bytes held by the block-rect slab.
    pub blocks: usize,
    /// Bytes held by the point slab.
    pub points: usize,
}

impl SlabFootprint {
    /// Total heap bytes across every slab.
    pub fn total(&self) -> usize {
        self.leaves + self.blocks + self.points
    }
}

/// A work-unit budget for the degraded (bounded) query paths.
///
/// Work is measured in deterministic units — leaves scanned and points
/// read off the slabs — never wall-clock time, so a budgeted answer is a
/// pure function of (snapshot, query, budget) and the determinism lint's
/// D2 rule holds. Metadata work (the blocks the range walk examines,
/// the k-NN's pruning scan over leaf records) is not charged: the
/// budget bounds slab traffic, which is what a pathological or
/// corrupted query would otherwise blow up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBudget {
    /// Leaves whose point slices may be scanned.
    pub leaf_visits: u64,
    /// Points that may be read off the point slab.
    pub point_visits: u64,
}

impl CostBudget {
    /// No limit: the bounded paths behave exactly like the unbounded
    /// ones and always report [`BoundedOutcome::Complete`].
    pub fn unbounded() -> CostBudget {
        CostBudget {
            leaf_visits: u64::MAX,
            point_visits: u64::MAX,
        }
    }

    /// A budget of `leaf_visits` leaves and `point_visits` points.
    pub fn new(leaf_visits: u64, point_visits: u64) -> CostBudget {
        CostBudget {
            leaf_visits,
            point_visits,
        }
    }
}

/// Work actually performed by a bounded query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// Leaves whose point slices were scanned.
    pub leaf_visits: u64,
    /// Points read off the point slab.
    pub point_visits: u64,
}

/// How a bounded query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedOutcome {
    /// The full answer was produced within budget.
    Complete {
        /// Work performed.
        visited: QueryCost,
    },
    /// The budget ran out. The answer is the *guaranteed canonical
    /// prefix* of the full answer: every returned element is correct and
    /// no element canonically before it is missing (range results under
    /// [`popan_geom::Point2::canonical_cmp`], k-NN under [`knn_cmp`]).
    Partial {
        /// Work performed before exhaustion.
        visited: QueryCost,
        /// Candidate leaves that were *not* examined; their contents are
        /// what the prefix guarantee had to truncate against.
        truncated_leaves: usize,
    },
}

impl BoundedOutcome {
    /// `true` for [`BoundedOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, BoundedOutcome::Complete { .. })
    }

    /// The work performed.
    pub fn visited(&self) -> QueryCost {
        match *self {
            BoundedOutcome::Complete { visited } => visited,
            BoundedOutcome::Partial { visited, .. } => visited,
        }
    }
}

/// One leaf record: the block's locational code and its points.
#[derive(Debug, Clone, PartialEq)]
struct LeafEntry {
    /// Morton code of the block's low corner at full resolution — the
    /// first code contained in the block.
    code_lo: u64,
    /// One past the last full-resolution code contained in the block.
    code_hi: u64,
    /// Leaf depth (block side = region side / 2^depth).
    depth: u32,
    /// Offset of the leaf's points in the flat `points` array.
    points_start: u32,
    /// Number of points in the leaf.
    points_len: u32,
}

/// A block of the implicit Morton hierarchy over the leaf slab, as the
/// descents walk it: its rect, depth, first code and leaf run.
#[derive(Debug, Clone, Copy)]
struct SlabBlock<'a> {
    rect: Rect,
    depth: u32,
    code: u64,
    run: &'a [LeafEntry],
}

impl<'a> SlabBlock<'a> {
    /// Calls `f` on the four children in quadrant (= Morton = slab)
    /// order: rects by [`Rect::quadrants`], runs cut off the front of
    /// this run. The leaves tile the Morton range, so a child whose
    /// first leaf sits at the child's depth is that one leaf; any other
    /// child but the last ends where [`leading_run`] finds the first
    /// leaf past its codes, and the last child takes the rest. On an
    /// undamaged slab these are exactly the `partition_point` runs on
    /// `code_lo`. Only for blocks shallower than
    /// [`morton::MORTON_BITS`]. A callback, not a returned array: the
    /// array cost the k-NN ≈15% (10⁵ points, 2-vCPU x86-64 host).
    fn for_each_child(self, mut f: impl FnMut(SlabBlock<'a>)) {
        let depth = self.depth + 1;
        let quarter = morton::cells_at_depth(depth);
        let mut rest = self.run;
        let mut code = self.code;
        for (i, rect) in self.rect.quadrants().into_iter().enumerate() {
            let len = match rest.first() {
                _ if i == 3 => rest.len(),
                Some(first) if first.depth == depth => 1,
                _ => leading_run(rest, code + quarter),
            };
            let (run, tail) = rest.split_at_checked(len).unwrap_or((rest, &[]));
            f(SlabBlock {
                rect,
                depth,
                code,
                run,
            });
            rest = tail;
            code += quarter;
        }
    }
}

/// The number of leaves at the front of `run` whose `code_lo` is below
/// `end`, by a galloping search from the front: probe leaves 1, 2, 4, …
/// until one starts at or past `end`, then binary-search the last gap.
/// It costs O(log answer) probes, so a child run of a few leaves is
/// found without a search over its parent's whole run.
fn leading_run(run: &[LeafEntry], end: u64) -> usize {
    let mut probe = 1;
    while probe < run.len() && run.get(probe).is_some_and(|l| l.code_lo < end) {
        probe *= 2;
    }
    let from = probe / 2;
    let gap = run.get(from..probe.min(run.len())).unwrap_or_default();
    from + gap.partition_point(|l| l.code_lo < end)
}

/// A frozen, pointerless PR quadtree.
#[derive(Debug, Clone)]
pub struct LinearQuadtree {
    region: Rect,
    /// Leaf entries sorted by `code_lo`; their `[code_lo, code_hi)`
    /// ranges partition the full Morton range.
    leaves: Vec<LeafEntry>,
    /// `blocks[i]` is the geometric rect of `leaves[i]`, precomputed at
    /// freeze. Only the bounded forms read it: the k-NN's leaf sweep and
    /// the range walk's truncation bound. The descents derive their
    /// block rects from the region.
    blocks: Vec<Rect>,
    /// All points, grouped by leaf.
    points: Vec<Point2>,
}

/// The canonical k-NN candidate order: squared distance first
/// ([`f64::total_cmp`]), then [`Point2::canonical_cmp`]. Total, so ties
/// on coincident or equidistant points resolve bit-identically on every
/// backend.
pub fn knn_cmp(a: &(f64, Point2), b: &(f64, Point2)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then_with(|| a.1.canonical_cmp(&b.1))
}

impl LinearQuadtree {
    /// Freezes a PR quadtree into linear form.
    ///
    /// The arena walk is pre-order by child index, and on a grid-exact
    /// region child index order *is* ascending Morton order (DESIGN.md
    /// §15), so the leaves arrive sorted and go straight into the slabs.
    /// The walk threads each leaf's quadrant digits down with it, and
    /// those digits are the leaf's Morton prefix, so no block corner is
    /// quantized.
    ///
    /// Fails with [`FreezeError::RegionNotGridExact`] when the tree's
    /// region fails [`morton::morton_grid_exact`], and with
    /// [`FreezeError::DepthExceedsMortonBits`] when any leaf sits below
    /// the Morton resolution — such leaves cannot be given unique
    /// locational codes, and silently clamping them would alias
    /// distinct blocks onto one code.
    pub fn from_tree(tree: &PrQuadtree) -> Result<Self, FreezeError> {
        let region = tree.region();
        if !morton::morton_grid_exact(&region) {
            return Err(FreezeError::RegionNotGridExact);
        }
        let mut leaves: Vec<LeafEntry> = Vec::with_capacity(tree.leaf_count());
        let mut blocks = Vec::with_capacity(tree.leaf_count());
        let mut points = Vec::with_capacity(tree.len());
        // The deepest leaf below the Morton resolution, if any: it cannot
        // be given a unique code, so it gets no record and fails the
        // freeze.
        let mut too_deep: Option<u32> = None;
        tree.arena().for_each_leaf(&mut |block, depth, path, pts| {
            if depth > morton::MORTON_BITS {
                too_deep = Some(too_deep.map_or(depth, |d| d.max(depth)));
                return;
            }
            // A depth-d leaf's path is its block's 2d-bit Morton prefix,
            // so its first code, that of its low corner, is the path
            // followed by zeros, and it spans 4^(MORTON_BITS − d) codes.
            let code_lo = path << (2 * (morton::MORTON_BITS - depth));
            debug_assert!(
                leaves.last().is_none_or(|l| l.code_lo <= code_lo),
                "leaves must arrive in ascending Morton order"
            );
            leaves.push(LeafEntry {
                code_lo,
                code_hi: code_lo + morton::cells_at_depth(depth),
                depth,
                points_start: points.len() as u32,
                points_len: pts.len() as u32,
            });
            blocks.push(*block);
            points.extend_from_slice(pts);
        });
        if let Some(depth) = too_deep {
            return Err(FreezeError::DepthExceedsMortonBits {
                depth,
                max: morton::MORTON_BITS,
            });
        }
        // Freeze contract: every slab at exact capacity, so the
        // footprint is a linear function of the lengths.
        leaves.shrink_to_fit();
        blocks.shrink_to_fit();
        points.shrink_to_fit();
        Ok(LinearQuadtree {
            region,
            leaves,
            blocks,
            points,
        })
    }

    /// The region covered.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of leaf records.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The geometric block of leaf `i` (freeze order, ascending Morton).
    pub fn leaf_block(&self, i: usize) -> Rect {
        self.blocks[i]
    }

    /// All stored points, grouped by leaf in ascending Morton order.
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// The points of a leaf run, one contiguous slab range. Only a
    /// damaged slab can put it out of range; it then reads as empty.
    fn run_points(&self, run: &[LeafEntry]) -> &[Point2] {
        let start = run.first().map_or(0, |l| l.points_start as usize);
        let end = run
            .last()
            .map_or(0, |l| l.points_start as usize + l.points_len as usize);
        self.points.get(start..end).unwrap_or_default()
    }

    fn leaf_points(&self, l: &LeafEntry) -> &[Point2] {
        self.run_points(std::slice::from_ref(l))
    }

    /// The block rects of a leaf run, parallel to it. Empty for a run
    /// that is not part of the leaf slab.
    fn run_blocks(&self, run: &[LeafEntry]) -> &[Rect] {
        let start = run.first().and_then(|l| self.leaves.element_offset(l));
        start
            .and_then(|start| self.blocks.get(start..start + run.len()))
            .unwrap_or_default()
    }

    fn leaf_index_of(&self, p: &Point2) -> Option<usize> {
        if !self.region.contains(p) {
            return None;
        }
        let code = morton::morton_of_point(p, &self.region);
        // The last leaf with code_lo <= code; leaf ranges tile the space.
        let idx = self.leaves.partition_point(|l| l.code_lo <= code);
        let leaf = idx.checked_sub(1)?;
        debug_assert!(self.leaves.get(leaf).is_some_and(|l| code < l.code_hi));
        Some(leaf)
    }

    /// The points stored in the leaf block containing `p` (empty slice
    /// when `p` is outside the region).
    pub fn block_points(&self, p: &Point2) -> &[Point2] {
        self.leaf_index_of(p)
            .and_then(|i| self.leaves.get(i))
            .map_or(&[], |l| self.leaf_points(l))
    }

    /// `true` when an exactly equal point is stored.
    pub fn contains(&self, p: &Point2) -> bool {
        self.block_points(p).contains(p)
    }

    /// The depth of the leaf block containing `p`.
    pub fn block_depth(&self, p: &Point2) -> Option<u32> {
        self.leaf_index_of(p).map(|i| self.leaves[i].depth)
    }

    /// The root of the implicit Morton hierarchy over the leaf slab.
    fn root_block(&self) -> SlabBlock<'_> {
        SlabBlock {
            rect: self.region,
            depth: 0,
            code: 0,
            run: &self.leaves,
        }
    }

    /// All stored points inside `query` (allocating convenience form of
    /// [`LinearQuadtree::range_query_into`]). Leaf-order output, same as
    /// the pointer tree's `range_query`.
    pub fn range_query(&self, query: &Rect) -> Vec<Point2> {
        let mut out = Vec::new();
        self.range_query_into(query, &mut QueryScratch::new(), &mut out);
        out
    }

    /// Appends all stored points inside `query` to `out` (cleared
    /// first), in slab order: the order of [`LinearQuadtree::points`].
    ///
    /// The walk is [`LinearQuadtree::range_descend`]: a block inside
    /// `query` copies its leaf run's points as one slice, and a block
    /// the window's edges cut that is a single leaf or holds at most
    /// [`SCAN_RUN`] points has its run filtered through the half-open
    /// [`Rect::contains`] in one pass, so only the blocks along the
    /// window's edges pay a per-point test. Every run is a contiguous
    /// slab range and the runs come in slab order, so the answer is
    /// `points()` filtered by `query`. The descent needs no buffers, so
    /// `scratch` is unused. Allocation-free once `out` is warm.
    pub fn range_query_into(
        &self,
        query: &Rect,
        _scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) {
        out.clear();
        self.range_descend(
            self.root_block(),
            query,
            &|block| self.run_points(block.run).len() <= SCAN_RUN,
            &mut |run, whole| {
                let points = self.run_points(run);
                if whole {
                    out.extend_from_slice(points);
                } else {
                    out.extend(points.iter().filter(|p| query.contains(p)).copied());
                }
            },
        );
    }

    /// Counts stored points inside `query` without materializing them
    /// (allocating convenience form of
    /// [`LinearQuadtree::count_in_range_with`]).
    pub fn count_in_range(&self, query: &Rect) -> usize {
        self.count_in_range_with(query, &mut QueryScratch::new())
    }

    /// Counts stored points inside `query` by the same descent as
    /// [`LinearQuadtree::range_query_into`]: a block inside `query` is
    /// counted off its run's slab offsets without touching its points,
    /// so a count costs the blocks along the window's edges plus the
    /// points of the cut blocks it filters.
    pub fn count_in_range_with(&self, query: &Rect, _scratch: &mut QueryScratch) -> usize {
        let mut count = 0usize;
        self.range_descend(
            self.root_block(),
            query,
            &|block| self.run_points(block.run).len() <= SCAN_RUN,
            &mut |run, whole| {
                let points = self.run_points(run);
                count += if whole {
                    points.len()
                } else {
                    points.iter().filter(|p| query.contains(p)).count()
                };
            },
        );
        count
    }

    /// The one range walk, over the implicit Morton hierarchy the k-NN
    /// descends, children in quadrant (= Morton = slab) order. A block
    /// disjoint from `query` is skipped; one inside it hands its leaf
    /// run to `visit` as `whole`; a single leaf, a block for which
    /// `stop` holds, or a run that cannot split (at
    /// [`morton::MORTON_BITS`]; only a damaged slab has one) hands its
    /// run over to be filtered.
    fn range_descend(
        &self,
        block: SlabBlock<'_>,
        query: &Rect,
        stop: &impl Fn(&SlabBlock<'_>) -> bool,
        visit: &mut impl FnMut(&[LeafEntry], bool),
    ) {
        if !block.rect.overlaps(query) {
            return;
        }
        if query.contains_rect(&block.rect) {
            visit(block.run, true);
        } else if block.run.len() <= 1 || block.depth >= morton::MORTON_BITS || stop(&block) {
            visit(block.run, false);
        } else {
            block.for_each_child(|child| self.range_descend(child, query, stop, visit));
        }
    }

    /// The `k` stored points nearest to `target` under the canonical
    /// order (allocating convenience form of
    /// [`LinearQuadtree::k_nearest_into`]).
    pub fn k_nearest(&self, target: &Point2, k: usize) -> Vec<Point2> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        self.k_nearest_into(target, k, &mut scratch, &mut out);
        out
    }

    /// Writes the `k` stored points nearest to `target` into `out`
    /// (cleared first), nearest first; fewer when the snapshot holds
    /// fewer than `k` points.
    ///
    /// Ordering and tie-breaking follow [`knn_cmp`]: squared distance,
    /// then canonical point order — fully deterministic even for
    /// coincident piles and equidistant rings.
    ///
    /// The search is a depth-first branch-and-bound over the implicit
    /// Morton hierarchy of the leaf slab (the pointer tree's
    /// `k_nearest` on slab ranges): a block's four children are the
    /// `code_lo` runs [`SlabBlock::for_each_child`] cuts off the front
    /// of its run, their rects come from [`Rect::quadrants`], and they
    /// are visited nearest first, in `(min-distance², code)` order,
    /// skipping empty ones. The first
    /// child whose block cannot *strictly* beat the current k-th
    /// candidate ends the visit (strict, so equal-distance ties are
    /// still examined and resolved canonically). The answer is the top
    /// `k` under a total order, so it does not depend on the visit
    /// order. Allocation-free once `scratch` and `out` are warm.
    pub fn k_nearest_into(
        &self,
        target: &Point2,
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) {
        out.clear();
        scratch.best.clear();
        if k == 0 || self.points.is_empty() {
            return;
        }
        scratch.best.reserve(k.min(self.points.len()) + 1);
        self.knn_descend(self.root_block(), target, k, &mut scratch.best);
        out.extend(scratch.best.iter().map(|&(_, p)| p));
    }

    /// One step of [`LinearQuadtree::k_nearest_into`]'s descent. A
    /// single leaf is scanned; so is a run that cannot split further
    /// (only a damaged slab has one), which bounds the recursion at
    /// [`morton::MORTON_BITS`] levels.
    fn knn_descend(
        &self,
        block: SlabBlock<'_>,
        target: &Point2,
        k: usize,
        best: &mut Vec<(f64, Point2)>,
    ) {
        if block.run.len() <= 1 || block.depth >= morton::MORTON_BITS {
            knn_scan_leaf(self.run_points(block.run), target, k, best);
            return;
        }
        // The children that hold points, each with its min-distance².
        let mut children = [(0.0, block); 4];
        let mut live = 0;
        block.for_each_child(|child| {
            let empty = self.run_points(child.run).is_empty();
            if let (false, Some(slot)) = (empty, children.get_mut(live)) {
                *slot = (min_dist_squared(&child.rect, target), child);
                live += 1;
            }
        });
        let children = children.get_mut(..live).unwrap_or_default();
        children.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.code.cmp(&b.1.code)));
        for &(dist, child) in children.iter() {
            if best.len() == k && best.last().is_some_and(|worst| dist > worst.0) {
                break;
            }
            self.knn_descend(child, target, k, best);
        }
    }

    /// Budgeted range query: like
    /// [`LinearQuadtree::range_query_into`], but stops when `budget` is
    /// exhausted and degrades to the **guaranteed canonical prefix** of
    /// the full answer instead of running unbounded work.
    ///
    /// `out` is always sorted by [`Point2::canonical_cmp`]. The walk,
    /// cut at [`RANGE_DECOMPOSE_DEPTH`], charges the leaves it reaches
    /// in slab order until the first one the budget cannot pay. Every
    /// later leaf whose block overlaps `query` could hold answers no
    /// smaller than the canonical-min corner of `block ∩ query`, so the
    /// answers collected are trimmed strictly below the smallest such
    /// corner: on [`BoundedOutcome::Partial`] the result is exactly the
    /// full answer's canonical prefix below it. The answer is sorted by
    /// [`QueryScratch::sort_canonical`], in `scratch`'s buffers.
    pub fn range_query_bounded_into(
        &self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        out.clear();
        let outcome = self.range_bounded(query, budget, out);
        scratch.sort_canonical(out);
        outcome
    }

    /// Budgeted count: returns `(count, outcome)`, the length and the
    /// outcome of the answer `range_query_bounded_into` gives under the
    /// same budget — on [`BoundedOutcome::Partial`], the size of the
    /// guaranteed canonical prefix. It stages the charged leaves'
    /// matches in `scratch` to trim them against the truncation bound.
    pub fn count_in_range_bounded_with(
        &self,
        query: &Rect,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
    ) -> (usize, BoundedOutcome) {
        scratch.staged.clear();
        let outcome = self.range_bounded(query, budget, &mut scratch.staged);
        (scratch.staged.len(), outcome)
    }

    /// The walk behind both bounded range forms (see
    /// [`LinearQuadtree::range_query_bounded_into`]): appends the
    /// guaranteed prefix of the answer to `out`, unsorted.
    fn range_bounded(
        &self,
        query: &Rect,
        budget: &CostBudget,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        let mut visited = QueryCost::default();
        let mut exhausted = false;
        let mut bound: Option<Point2> = None;
        let mut truncated_leaves = 0usize;
        self.range_descend(
            self.root_block(),
            query,
            &|block| block.depth >= RANGE_DECOMPOSE_DEPTH,
            &mut |run, whole| {
                for (leaf, block) in run.iter().zip(self.run_blocks(run)) {
                    let points = u64::from(leaf.points_len);
                    exhausted = exhausted
                        || visited.leaf_visits + 1 > budget.leaf_visits
                        || visited.point_visits + points > budget.point_visits;
                    if !exhausted {
                        visited.leaf_visits += 1;
                        visited.point_visits += points;
                        let points = self.leaf_points(leaf);
                        if whole {
                            out.extend_from_slice(points);
                        } else {
                            out.extend(points.iter().filter(|p| query.contains(p)).copied());
                        }
                    } else if block.overlaps(query) {
                        truncated_leaves += 1;
                        let corner = Point2::new(
                            block.x().lo().max(query.x().lo()),
                            block.y().lo().max(query.y().lo()),
                        );
                        if bound.is_none_or(|b| corner.canonical_cmp(&b) == Ordering::Less) {
                            bound = Some(corner);
                        }
                    }
                }
            },
        );
        match bound {
            // Every leaf left unexamined was outside the query: the
            // answer is complete after all.
            None => BoundedOutcome::Complete { visited },
            Some(bound) => {
                out.retain(|p| p.canonical_cmp(&bound) == Ordering::Less);
                BoundedOutcome::Partial {
                    visited,
                    truncated_leaves,
                }
            }
        }
    }

    /// Budgeted k-NN: the answer of [`LinearQuadtree::k_nearest_into`]
    /// from a leaf sweep — the leaf containing `target` first, then the
    /// slab in Morton order, skipping (uncharged) every leaf whose block
    /// cannot strictly beat the current k-th candidate — that stops
    /// scanning leaves when `budget` is exhausted and trims the
    /// candidate list to the **guaranteed prefix** of the true answer
    /// under [`knn_cmp`]: only candidates strictly closer than any
    /// unexamined leaf's nearest possible point survive, so every
    /// returned neighbor is a true `i`-th nearest neighbor.
    pub fn k_nearest_bounded_into(
        &self,
        target: &Point2,
        k: usize,
        budget: &CostBudget,
        scratch: &mut QueryScratch,
        out: &mut Vec<Point2>,
    ) -> BoundedOutcome {
        out.clear();
        scratch.best.clear();
        scratch.visited.clear();
        let mut cost = QueryCost::default();
        if k == 0 || self.points.is_empty() {
            return BoundedOutcome::Complete { visited: cost };
        }
        scratch.best.reserve(k.min(self.points.len()) + 1);
        let seed = self.leaf_index_of(target);
        let mut exhausted = false;
        let order = seed
            .into_iter()
            .chain((0..self.leaves.len()).filter(|i| Some(*i) != seed));
        for i in order {
            if Some(i) != seed && scratch.best.len() == k {
                let worst = scratch.best[k - 1].0;
                if min_dist_squared(&self.blocks[i], target) > worst {
                    continue; // pruned: no slab traffic, not charged
                }
            }
            let pts = u64::from(self.leaves[i].points_len);
            if cost.leaf_visits + 1 > budget.leaf_visits
                || cost.point_visits + pts > budget.point_visits
            {
                exhausted = true;
                break;
            }
            cost.leaf_visits += 1;
            cost.point_visits += pts;
            scratch.visited.push(i as u32);
            knn_scan_leaf(
                self.leaf_points(&self.leaves[i]),
                target,
                k,
                &mut scratch.best,
            );
        }
        if !exhausted {
            out.extend(scratch.best.iter().map(|&(_, p)| p));
            return BoundedOutcome::Complete { visited: cost };
        }
        // Every leaf not *scanned* — including ones pruned earlier, whose
        // lower bounds exceeded a then-current k-th distance — caps the
        // provable prefix: a candidate survives only if it is strictly
        // closer than the nearest possible point of every such leaf.
        // Sorted in place, the visit log is a merge cursor over the
        // leaf indices (each leaf is scanned at most once).
        scratch.visited.sort_unstable();
        let mut scanned = scratch.visited.iter().map(|&i| i as usize).peekable();
        let mut bound = f64::INFINITY;
        let mut truncated = 0usize;
        for i in 0..self.leaves.len() {
            if scanned.next_if_eq(&i).is_some() {
                continue;
            }
            truncated += 1;
            let d = min_dist_squared(&self.blocks[i], target);
            if d < bound {
                bound = d;
            }
        }
        out.extend(
            scratch
                .best
                .iter()
                .take_while(|&&(d, _)| d < bound)
                .map(|&(_, p)| p),
        );
        BoundedOutcome::Partial {
            visited: cost,
            truncated_leaves: truncated,
        }
    }

    /// Heap footprint in bytes across every slab. Counts *allocated
    /// capacity*, not live length — before PR 8 this under-reported the
    /// point slab's growth slack; the freeze now shrinks the slabs so
    /// the two coincide, and [`LinearQuadtree::footprint`] breaks the
    /// total down per slab.
    pub fn heap_bytes(&self) -> usize {
        self.footprint().total()
    }

    /// Per-slab heap bytes (allocated capacity).
    pub fn footprint(&self) -> SlabFootprint {
        SlabFootprint {
            leaves: self.leaves.capacity() * std::mem::size_of::<LeafEntry>(),
            blocks: self.blocks.capacity() * std::mem::size_of::<Rect>(),
            points: self.points.capacity() * std::mem::size_of::<Point2>(),
        }
    }

    /// Digests of the frozen slabs (DESIGN.md §12): one per section
    /// over that slab's canonical word stream (four-lane word-at-a-time
    /// [`Mix64x4`] — the slabs are megabytes at serving scale, and the
    /// byte-serial FNV chain would double the freeze cost), plus a
    /// combined FNV-1a digest folding in the region bounds and slab
    /// lengths. The epoch is deliberately *not* part of any digest —
    /// the publisher re-stamps epochs at publish time and that must not
    /// invalidate the checksum.
    pub fn section_digests(&self) -> SectionDigests {
        // Each record maps onto one bulk absorb (a leaf record and a
        // block rect are four words; a pair of points is four), keeping
        // the multiply lanes saturated instead of paying round-robin
        // bookkeeping per word.
        let mut h = Mix64x4::new();
        h.write_word(self.leaves.len() as u64);
        for l in &self.leaves {
            // Two u32 fields share a word; points_len gets its own so
            // every field lands at a fixed word-lane position.
            h.write_words4([
                l.code_lo,
                l.code_hi,
                u64::from(l.depth) << 32 | u64::from(l.points_start),
                u64::from(l.points_len),
            ]);
        }
        let leaves = h.finish();

        let mut h = Mix64x4::new();
        h.write_word(self.blocks.len() as u64);
        for b in &self.blocks {
            h.write_words4([
                b.x().lo().to_bits(),
                b.x().hi().to_bits(),
                b.y().lo().to_bits(),
                b.y().hi().to_bits(),
            ]);
        }
        let blocks = h.finish();

        let mut h = Mix64x4::new();
        h.write_word(self.points.len() as u64);
        let mut pairs = self.points.chunks_exact(2);
        for pair in &mut pairs {
            h.write_words4([
                pair[0].x.to_bits(),
                pair[0].y.to_bits(),
                pair[1].x.to_bits(),
                pair[1].y.to_bits(),
            ]);
        }
        for p in pairs.remainder() {
            h.write_f64(p.x);
            h.write_f64(p.y);
        }
        let points = h.finish();

        let mut h = Fnv64::new();
        h.write_f64(self.region.x().lo());
        h.write_f64(self.region.x().hi());
        h.write_f64(self.region.y().lo());
        h.write_f64(self.region.y().hi());
        h.write_u64(self.leaves.len() as u64);
        h.write_u64(self.points.len() as u64);
        h.write_u64(leaves);
        h.write_u64(blocks);
        h.write_u64(points);
        SectionDigests {
            leaves,
            blocks,
            points,
            combined: h.finish(),
        }
    }

    /// **Fault-injection machinery** — flips one bit inside the chosen
    /// frozen slab, deterministically addressed by `bit` (taken modulo
    /// the section's total bit width, so any `u64` names a valid bit).
    /// Returns `false` when the section is empty and nothing could be
    /// damaged.
    ///
    /// This exists so the serving-path chaos suite (`popan-query`
    /// `tests/chaos.rs`, driven by `popan-engine`'s
    /// `Fault::Corrupt(..)`) can prove that `Snapshot::verify` catches
    /// arbitrary single-bit slab damage before a corrupt snapshot is
    /// published. The damaged index may violate every structural
    /// invariant — it must be quarantined, never queried.
    pub fn corrupt_slab_bit(&mut self, section: SnapshotSection, bit: u64) -> bool {
        match section {
            SnapshotSection::Leaves => {
                // 224 bits per record: code_lo | code_hi | depth |
                // points_start | points_len.
                if self.leaves.is_empty() {
                    return false;
                }
                let b = bit % (self.leaves.len() as u64 * 224);
                let l = &mut self.leaves[(b / 224) as usize];
                match b % 224 {
                    o @ 0..=63 => l.code_lo ^= 1 << o,
                    o @ 64..=127 => l.code_hi ^= 1 << (o - 64),
                    o @ 128..=159 => l.depth ^= 1 << (o - 128),
                    o @ 160..=191 => l.points_start ^= 1 << (o - 160),
                    o => l.points_len ^= 1 << (o - 192),
                }
            }
            SnapshotSection::Blocks => {
                // 256 bits per rect: x.lo | x.hi | y.lo | y.hi. The
                // damaged bounds may be inverted or non-finite; the
                // unchecked constructor is exactly for this.
                if self.blocks.is_empty() {
                    return false;
                }
                let b = bit % (self.blocks.len() as u64 * 256);
                let r = &mut self.blocks[(b / 256) as usize];
                let mut bounds = [
                    r.x().lo().to_bits(),
                    r.x().hi().to_bits(),
                    r.y().lo().to_bits(),
                    r.y().hi().to_bits(),
                ];
                let o = b % 256;
                bounds[(o / 64) as usize] ^= 1 << (o % 64);
                *r = Rect::new(
                    Interval::from_raw_unchecked(
                        f64::from_bits(bounds[0]),
                        f64::from_bits(bounds[1]),
                    ),
                    Interval::from_raw_unchecked(
                        f64::from_bits(bounds[2]),
                        f64::from_bits(bounds[3]),
                    ),
                );
            }
            SnapshotSection::Points => {
                // 128 bits per point: x | y.
                if self.points.is_empty() {
                    return false;
                }
                let b = bit % (self.points.len() as u64 * 128);
                let p = &mut self.points[(b / 128) as usize];
                let o = b % 128;
                if o < 64 {
                    p.x = f64::from_bits(p.x.to_bits() ^ (1 << o));
                } else {
                    p.y = f64::from_bits(p.y.to_bits() ^ (1 << (o - 64)));
                }
            }
        }
        true
    }

    /// Verifies that leaf ranges are sorted, disjoint, and tile the full
    /// Morton range, and that blocks stay parallel to leaves; panics on
    /// violation.
    pub fn check_invariants(&self) {
        assert!(!self.leaves.is_empty(), "at least the root leaf exists");
        assert_eq!(self.leaves.len(), self.blocks.len(), "blocks track leaves");
        let full_span = morton::cells_at_depth(0);
        assert_eq!(self.leaves[0].code_lo, 0, "first leaf starts at 0");
        for w in self.leaves.windows(2) {
            assert_eq!(w[0].code_hi, w[1].code_lo, "leaf ranges must be contiguous");
        }
        assert_eq!(
            self.leaves.last().expect("non-empty").code_hi,
            full_span,
            "last leaf ends the space"
        );
        let total: u32 = self.leaves.iter().map(|l| l.points_len).sum();
        assert_eq!(total as usize, self.points.len());
        for (l, b) in self.leaves.iter().zip(&self.blocks) {
            let corner = Point2::new(b.x().lo(), b.y().lo());
            assert_eq!(
                morton::morton_of_point(&corner, &self.region),
                l.code_lo,
                "block corner must reproduce the locational code"
            );
        }
    }
}

/// Folds one leaf's points into `best`, the `k` nearest candidates so
/// far sorted by [`knn_cmp`].
pub(crate) fn knn_scan_leaf(
    points: &[Point2],
    target: &Point2,
    k: usize,
    best: &mut Vec<(f64, Point2)>,
) {
    for p in points {
        let cand = (p.distance_squared(target), *p);
        if best.len() == k
            && best
                .last()
                .is_some_and(|worst| knn_cmp(&cand, worst) == Ordering::Greater)
        {
            continue;
        }
        let pos = best.partition_point(|e| knn_cmp(e, &cand) != Ordering::Greater);
        best.insert(pos, cand);
        if best.len() > k {
            best.pop();
        }
    }
}

/// Smallest squared distance from `p` to any point of `block`.
pub(crate) fn min_dist_squared(block: &Rect, p: &Point2) -> f64 {
    let dx = (block.x().lo() - p.x).max(p.x - block.x().hi()).max(0.0);
    let dy = (block.y().lo() - p.y).max(p.y - block.y().hi()).max(0.0);
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;
    use popan_workload::points::{Clustered, PointSource, UniformRect};

    fn build_pair(n: usize, capacity: usize, seed: u64) -> (PrQuadtree, LinearQuadtree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points = UniformRect::unit().sample_n(&mut rng, n);
        let tree = PrQuadtree::build(Rect::unit(), capacity, points).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        (tree, linear)
    }

    #[test]
    fn empty_tree_freezes_to_single_leaf() {
        let tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        assert!(linear.is_empty());
        assert_eq!(linear.leaf_count(), 1);
        linear.check_invariants();
    }

    #[test]
    fn ranges_tile_the_space() {
        let (_, linear) = build_pair(500, 2, 1);
        linear.check_invariants();
    }

    #[test]
    fn child_runs_are_the_partition_point_runs() {
        // Every block a descent can split, on four snapshots: its four
        // child runs (the depth shortcut, the gallop, the rest) must be
        // the runs `partition_point` on `code_lo` cuts from its run.
        fn walk(block: SlabBlock<'_>, split: &mut usize, deepest: &mut u32) {
            *deepest = (*deepest).max(block.depth);
            if block.run.len() <= 1 || block.depth >= morton::MORTON_BITS {
                return;
            }
            *split += 1;
            let quarter = morton::cells_at_depth(block.depth + 1);
            let mut children = Vec::new();
            block.for_each_child(|child| children.push(child));
            assert_eq!(children.len(), 4);
            let mut rest = block.run;
            for (end, child) in (1..=4).map(|i| block.code + i * quarter).zip(&children) {
                let (run, tail) = rest.split_at(rest.partition_point(|l| l.code_lo < end));
                assert_eq!(
                    (child.run.as_ptr(), child.run.len()),
                    (run.as_ptr(), run.len()),
                    "depth {} code {:#x}",
                    block.depth,
                    block.code
                );
                rest = tail;
            }
            assert!(rest.is_empty());
            for child in children {
                walk(child, split, deepest);
            }
        }
        let fine = 0.5f64.powi(29);
        let grid = (0..32u32).flat_map(|i| {
            (0..32u32).map(move |j| {
                Point2::new(
                    0.5 + (f64::from(i) - 16.0) * fine,
                    0.25 + (f64::from(j) - 16.0) * fine,
                )
            })
        });
        let mut rng = StdRng::seed_from_u64(23);
        let clustered = Clustered::new(Rect::unit(), 8, 0.02, &mut rng).sample_n(&mut rng, 4000);
        let snapshots = [
            ("uniform m=1", build_pair(3000, 1, 21).1, 0),
            ("uniform m=8", build_pair(20_000, 8, 22).1, 0),
            ("clustered m=8", frozen(8, clustered), 0),
            ("2^-29 grid m=1", frozen(1, grid.collect()), 29),
        ];
        for (label, linear, depth) in snapshots {
            let (mut split, mut deepest) = (0, 0);
            walk(linear.root_block(), &mut split, &mut deepest);
            assert!(split > 100, "{label}: {split} blocks split");
            assert!(deepest >= depth, "{label}: deepest block at {deepest}");
        }
    }

    fn frozen(capacity: usize, points: Vec<Point2>) -> LinearQuadtree {
        let tree = PrQuadtree::build(Rect::unit(), capacity, points).unwrap();
        LinearQuadtree::from_tree(&tree).unwrap()
    }

    #[test]
    fn freeze_rejects_leaves_below_morton_resolution() {
        // Two points that separate only at depth 32 — representable in
        // the pointer tree (DEFAULT_MAX_DEPTH = 32) but one level below
        // the 31-bit Morton grid. The pre-PR 6 freeze silently clamped
        // the span, aliasing the two sibling blocks onto one code; now
        // the freeze refuses with a typed error.
        let step = (0.5f64).powi(32);
        let mut tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        tree.insert(Point2::new(0.0, 0.0)).unwrap();
        tree.insert(Point2::new(step, 0.0)).unwrap();
        let err = LinearQuadtree::from_tree(&tree).unwrap_err();
        assert_eq!(
            err,
            FreezeError::DepthExceedsMortonBits {
                depth: 32,
                max: morton::MORTON_BITS,
            }
        );
        assert!(err.to_string().contains("alias"), "{err}");
    }

    #[test]
    fn freeze_accepts_max_representable_depth() {
        // Separation exactly at depth 31 = MORTON_BITS: the deepest
        // representable leaf level must still freeze.
        let step = (0.5f64).powi(31);
        let mut tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        tree.insert(Point2::new(0.0, 0.0)).unwrap();
        tree.insert(Point2::new(step, 0.0)).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        linear.check_invariants();
        assert_eq!(linear.len(), 2);
        assert!(linear.contains(&Point2::new(step, 0.0)));
        // Two points in one full-resolution cell never separate; with
        // the depth limit at the Morton floor they spill into one leaf
        // there, which still freezes.
        let mut tree = PrQuadtree::with_max_depth(Rect::unit(), 1, morton::MORTON_BITS).unwrap();
        tree.insert(Point2::new(0.5, 0.5)).unwrap();
        tree.insert(Point2::new(0.5 + 1e-12, 0.5)).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        linear.check_invariants();
        assert_eq!(linear.len(), 2);
        assert_eq!(
            linear.block_depth(&Point2::new(0.5, 0.5)),
            Some(morton::MORTON_BITS)
        );
    }

    #[test]
    fn contains_matches_pointer_tree() {
        let (tree, linear) = build_pair(400, 3, 2);
        assert_eq!(linear.len(), tree.len());
        assert_eq!(linear.leaf_count(), tree.leaf_count());
        for p in tree.points() {
            assert!(linear.contains(&p), "{p}");
        }
        let mut rng = StdRng::seed_from_u64(3);
        for p in UniformRect::unit().sample_n(&mut rng, 200) {
            assert_eq!(linear.contains(&p), tree.contains(&p), "{p}");
        }
        assert!(!linear.contains(&Point2::new(2.0, 2.0)));
    }

    #[test]
    fn block_depth_matches_leaf_records() {
        use crate::node_stats::OccupancyInstrumented;
        let (tree, linear) = build_pair(300, 1, 4);
        // Every stored point's block depth appears in the tree's records.
        let depths: std::collections::BTreeSet<u32> =
            tree.leaf_records().iter().map(|r| r.depth).collect();
        for p in tree.points() {
            let d = linear.block_depth(&p).unwrap();
            assert!(depths.contains(&d), "depth {d}");
        }
        assert_eq!(linear.block_depth(&Point2::new(-1.0, 0.0)), None);
    }

    #[test]
    fn block_points_returns_the_leaf_contents() {
        let tree = PrQuadtree::build(
            Rect::unit(),
            2,
            [
                Point2::new(0.1, 0.1),
                Point2::new(0.15, 0.12),
                Point2::new(0.9, 0.9),
            ],
        )
        .unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        let blk = linear.block_points(&Point2::new(0.12, 0.11));
        assert_eq!(blk.len(), 2);
        assert!(linear.block_points(&Point2::new(5.0, 5.0)).is_empty());
    }

    #[test]
    fn range_query_matches_pointer_tree() {
        let (tree, linear) = build_pair(600, 2, 5);
        for rect in [
            Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.48, 0.48, 0.52, 0.52),
            Rect::from_bounds(0.9, 0.9, 0.95, 0.95),
        ] {
            let mut a = linear.range_query(&rect);
            let mut b = tree.range_query(&rect);
            a.sort_by(Point2::canonical_cmp);
            b.sort_by(Point2::canonical_cmp);
            assert_eq!(a, b, "{rect}");
        }
    }

    #[test]
    fn count_in_range_matches_range_query() {
        let (tree, linear) = build_pair(900, 3, 9);
        let mut scratch = QueryScratch::new();
        for rect in [
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
            Rect::from_bounds(0.25, 0.25, 0.75, 0.75),
            Rect::from_bounds(0.001, 0.001, 0.002, 0.002),
            Rect::from_bounds(0.5, 0.5, 0.500001, 0.500001),
        ] {
            assert_eq!(
                linear.count_in_range_with(&rect, &mut scratch),
                linear.range_query(&rect).len(),
                "{rect}"
            );
            assert_eq!(
                linear.count_in_range(&rect),
                tree.count_in_range(&rect),
                "{rect}"
            );
        }
    }

    #[test]
    fn range_query_outside_region_is_empty() {
        let (_, linear) = build_pair(100, 2, 6);
        assert!(linear
            .range_query(&Rect::from_bounds(2.0, 2.0, 3.0, 3.0))
            .is_empty());
        assert_eq!(
            linear.count_in_range(&Rect::from_bounds(2.0, 2.0, 3.0, 3.0)),
            0
        );
    }

    #[test]
    fn k_nearest_matches_sorted_scan() {
        let (tree, linear) = build_pair(400, 2, 7);
        let all = tree.points();
        for target in [
            Point2::new(0.3, 0.7),
            Point2::new(0.0, 0.0),
            Point2::new(2.0, -1.0), // outside the region
        ] {
            for k in [0usize, 1, 5, 50, 400, 500] {
                let got = linear.k_nearest(&target, k);
                let mut expect: Vec<(f64, Point2)> = all
                    .iter()
                    .map(|p| (p.distance_squared(&target), *p))
                    .collect();
                expect.sort_by(knn_cmp);
                expect.truncate(k);
                let expect: Vec<Point2> = expect.into_iter().map(|(_, p)| p).collect();
                assert_eq!(got.len(), expect.len(), "k={k}");
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.x.to_bits(), e.x.to_bits(), "target {target} k={k}");
                    assert_eq!(g.y.to_bits(), e.y.to_bits(), "target {target} k={k}");
                }
            }
        }
    }

    #[test]
    fn k_nearest_breaks_coincident_ties_canonically() {
        // A pile of coincident points plus an equidistant ring: the
        // canonical order must pick the same winners every time.
        let pts = [
            Point2::new(0.5, 0.5),
            Point2::new(0.5, 0.5),
            Point2::new(0.5, 0.5),
            Point2::new(0.4, 0.5), // distance 0.1 (west)
            Point2::new(0.6, 0.5), // distance 0.1 (east)
            Point2::new(0.5, 0.4), // distance 0.1 (south)
            Point2::new(0.5, 0.6), // distance 0.1 (north)
        ];
        let tree = PrQuadtree::build(Rect::unit(), 1, pts).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        let got = linear.k_nearest(&Point2::new(0.5, 0.5), 5);
        // Three coincident points first, then the two canonically
        // smallest ring points: (0.4,0.5) before (0.5,0.4).
        assert_eq!(got.len(), 5);
        assert_eq!(got[0], Point2::new(0.5, 0.5));
        assert_eq!(got[1], Point2::new(0.5, 0.5));
        assert_eq!(got[2], Point2::new(0.5, 0.5));
        assert_eq!(got[3], Point2::new(0.4, 0.5));
        assert_eq!(got[4], Point2::new(0.5, 0.4));

        // A tie at the pruning bound: `far` sits on the near edge of its
        // block, exactly as far from the target as `near` (a 3-4-5
        // triangle on the 1/64 grid, so both distances are exact). The
        // target's own block yields `near` first; `far` is canonically
        // smaller, so the block at exactly the k-th distance must still
        // be examined.
        let target = Point2::new(8.0 / 64.0, 11.0 / 64.0);
        let near = Point2::new(11.0 / 64.0, 7.0 / 64.0);
        let far = Point2::new(8.0 / 64.0, 16.0 / 64.0);
        assert_eq!(
            near.distance_squared(&target),
            far.distance_squared(&target)
        );
        let tree = PrQuadtree::build(Rect::unit(), 1, [near, far]).unwrap();
        let linear = LinearQuadtree::from_tree(&tree).unwrap();
        assert_eq!(linear.k_nearest(&target, 1), vec![far]);
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let (_, linear) = build_pair(500, 4, 8);
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let q = Rect::from_bounds(0.2, 0.2, 0.8, 0.8);
        linear.range_query_into(&q, &mut scratch, &mut out);
        let first = out.clone();
        linear.range_query_into(&q, &mut scratch, &mut out);
        assert_eq!(first, out, "repeat query must be identical");
        linear.k_nearest_into(&Point2::new(0.5, 0.5), 10, &mut scratch, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn footprint_is_reported() {
        let (_, linear) = build_pair(1000, 4, 7);
        let bytes = linear.heap_bytes();
        assert!(bytes > 0);
        // Flat arrays: points (16 bytes each), leaves ~32 bytes, blocks 32.
        assert!(bytes < 1000 * 16 + linear.leaf_count() * 96 + 1024);
    }

    #[test]
    fn leaf_blocks_are_exposed_in_morton_order() {
        let (_, linear) = build_pair(200, 2, 11);
        for i in 0..linear.leaf_count() {
            let b = linear.leaf_block(i);
            assert!(Rect::unit().contains_rect(&b));
        }
    }

    #[test]
    fn footprint_accounts_every_slab_exactly() {
        let (_, linear) = build_pair(777, 3, 12);
        let fp = linear.footprint();
        // The freeze shrinks the slabs, so capacity == live length and
        // the accounting is exact per slab.
        assert_eq!(
            fp.points,
            linear.len() * std::mem::size_of::<Point2>(),
            "point slab"
        );
        assert_eq!(
            fp.blocks,
            linear.leaf_count() * std::mem::size_of::<Rect>(),
            "block slab"
        );
        assert_eq!(
            fp.leaves,
            linear.leaf_count() * std::mem::size_of::<LeafEntry>(),
            "leaf slab"
        );
        assert_eq!(linear.heap_bytes(), fp.total());
    }

    #[test]
    fn section_digests_localize_damage() {
        let (_, linear) = build_pair(300, 2, 13);
        let clean = linear.section_digests();
        assert_eq!(clean, linear.section_digests(), "digests are pure");

        for (section, bit) in [
            (SnapshotSection::Leaves, 7u64),
            (SnapshotSection::Blocks, 1_000_003),
            (SnapshotSection::Points, 42),
        ] {
            let mut damaged = linear.clone();
            assert!(damaged.corrupt_slab_bit(section, bit));
            let d = damaged.section_digests();
            let changed = |s: SnapshotSection| match s {
                SnapshotSection::Leaves => d.leaves != clean.leaves,
                SnapshotSection::Blocks => d.blocks != clean.blocks,
                SnapshotSection::Points => d.points != clean.points,
            };
            for probe in [
                SnapshotSection::Leaves,
                SnapshotSection::Blocks,
                SnapshotSection::Points,
            ] {
                assert_eq!(
                    changed(probe),
                    probe == section,
                    "corrupting {section} must change exactly that digest ({probe})"
                );
            }
            assert_ne!(d.combined, clean.combined, "{section}");
        }
    }

    #[test]
    fn corrupting_an_empty_section_is_a_no_op() {
        let tree = PrQuadtree::new(Rect::unit(), 1).unwrap();
        let mut linear = LinearQuadtree::from_tree(&tree).unwrap();
        assert!(!linear.corrupt_slab_bit(SnapshotSection::Points, 5));
        // Leaves/blocks always hold at least the root record.
        assert!(linear.corrupt_slab_bit(SnapshotSection::Leaves, 5));
    }

    #[test]
    fn unbounded_budget_reproduces_the_full_answers() {
        let (_, linear) = build_pair(800, 3, 14);
        let budget = CostBudget::unbounded();
        let mut scratch = QueryScratch::new();
        let mut bounded = Vec::new();
        for rect in [
            Rect::from_bounds(0.1, 0.2, 0.5, 0.9),
            Rect::from_bounds(0.0, 0.0, 1.0, 1.0),
            Rect::from_bounds(0.48, 0.48, 0.52, 0.52),
        ] {
            let outcome =
                linear.range_query_bounded_into(&rect, &budget, &mut scratch, &mut bounded);
            assert!(outcome.is_complete(), "{rect}");
            assert!(outcome.visited().leaf_visits > 0);
            let mut full = linear.range_query(&rect);
            full.sort_by(Point2::canonical_cmp);
            assert_eq!(bounded, full, "{rect}");
            let (count, c_outcome) =
                linear.count_in_range_bounded_with(&rect, &budget, &mut scratch);
            assert!(c_outcome.is_complete());
            assert_eq!(count, full.len(), "{rect}");
        }
        let target = Point2::new(0.3, 0.7);
        let outcome =
            linear.k_nearest_bounded_into(&target, 25, &budget, &mut scratch, &mut bounded);
        assert!(outcome.is_complete());
        assert_eq!(bounded, linear.k_nearest(&target, 25));
    }

    #[test]
    fn partial_range_is_a_canonical_prefix() {
        let (_, linear) = build_pair(600, 2, 15);
        let rect = Rect::from_bounds(0.05, 0.05, 0.95, 0.95);
        let mut full = linear.range_query(&rect);
        full.sort_by(Point2::canonical_cmp);
        let mut scratch = QueryScratch::new();
        let mut partial = Vec::new();
        // Tight and loose budgets, all in leaf visits.
        for leaf_budget in [1u64, 3, 10, 50] {
            let budget = CostBudget::new(leaf_budget, u64::MAX);
            let outcome =
                linear.range_query_bounded_into(&rect, &budget, &mut scratch, &mut partial);
            assert_eq!(&full[..partial.len()], &partial[..], "budget {leaf_budget}");
            if let BoundedOutcome::Partial { visited, .. } = outcome {
                assert!(visited.leaf_visits <= leaf_budget);
            }
            let (count, _) = linear.count_in_range_bounded_with(&rect, &budget, &mut scratch);
            assert_eq!(count, partial.len(), "count tracks the trimmed prefix");
        }
    }

    #[test]
    fn partial_knn_is_a_prefix_of_the_true_answer() {
        let (_, linear) = build_pair(500, 2, 16);
        let target = Point2::new(0.41, 0.57);
        let full = linear.k_nearest(&target, 40);
        let mut scratch = QueryScratch::new();
        let mut partial = Vec::new();
        for point_budget in [4u64, 16, 64, 256] {
            let budget = CostBudget::new(u64::MAX, point_budget);
            let outcome =
                linear.k_nearest_bounded_into(&target, 40, &budget, &mut scratch, &mut partial);
            assert_eq!(
                &full[..partial.len()],
                &partial[..],
                "budget {point_budget}"
            );
            if let BoundedOutcome::Partial {
                visited,
                truncated_leaves,
            } = outcome
            {
                assert!(visited.point_visits <= point_budget);
                assert!(truncated_leaves > 0);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;
    use popan_rng::rngs::StdRng;
    use popan_rng::{Rng, SeedableRng};
    use popan_workload::points::{PointSource, UniformRect};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn linear_and_pointer_trees_agree(
            raw in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..120),
            capacity in 1usize..5,
            probe in popan_proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10),
        ) {
            let points: Vec<Point2> = raw.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let tree = PrQuadtree::build(Rect::unit(), capacity, points).unwrap();
            let linear = LinearQuadtree::from_tree(&tree).unwrap();
            linear.check_invariants();
            for &(x, y) in &probe {
                let p = Point2::new(x, y);
                prop_assert_eq!(linear.contains(&p), tree.contains(&p));
            }
        }

        #[test]
        fn range_and_count_agree_with_scan(
            raw in popan_proptest::collection::vec(
                (0u8..10, 0.0f64..1.0, 0.0f64..1.0, 0u8..8, 0u8..8),
                0..150,
            ),
            capacity in 1usize..6,
            deep in (0u8..5, 1usize..=2 * SCAN_RUN, any::<u64>()),
            window in (0u8..10, -0.25f64..1.0, -0.25f64..1.0, 0.001f64..0.6, 0.001f64..0.6),
            snap in (0u8..18, 0u8..18, 1u8..18, 1u8..18),
        ) {
            // The k-NN proptest's messy points: uniform, duplicates on
            // the dyadic lines i/8, and a 2^-29 cluster whose leaves sit
            // at depth 29.
            let fine = 0.5f64.powi(29);
            let mut points: Vec<Point2> = raw
                .iter()
                .map(|&(kind, x, y, i, j)| match kind {
                    0..=4 => Point2::new(x, y),
                    5..=7 => Point2::new(f64::from(i) / 8.0, f64::from(j) / 8.0),
                    _ => Point2::new(
                        0.5 + (f64::from(i) - 4.0) * fine,
                        0.25 + (f64::from(j) - 4.0) * fine,
                    ),
                })
                .collect();
            // Most cases also put more than SCAN_RUN points under one
            // block, so the walk must split the blocks a window cuts
            // before it may filter them: a 2^-29 cluster inside one
            // depth-25 block (split down to depth 29), dyadic duplicates
            // inside one quadrant, leaves bigger than the cutoff
            // (capacity above it), or one coincident pile.
            let (shape, extra, seed) = deep;
            let pile = SCAN_RUN + extra;
            let rng = &mut StdRng::seed_from_u64(seed);
            let on_grid = |rng: &mut StdRng, cells: u8, step: f64, x: f64, y: f64| {
                let mut at = |o: f64| o + f64::from(rng.random_range(0..cells)) * step;
                Point2::new(at(x), at(y))
            };
            let capacity = if shape == 3 { pile } else { capacity };
            match shape {
                1 => points.extend((0..pile).map(|_| on_grid(rng, 16, fine, 0.5, 0.25))),
                2 => points.extend((0..pile).map(|_| on_grid(rng, 4, 0.125, 0.5, 0.5))),
                3 => points.extend(UniformRect::unit().sample_n(rng, 3 * pile)),
                4 => points.extend(std::iter::repeat_n(on_grid(rng, 8, 0.125, 0.0, 0.0), pile)),
                _ => {}
            }
            // Free windows, and windows whose edges sit on dyadic lines
            // (at 1/16, and at the cluster's 2^-29 spacing), so block
            // edges meet query edges exactly; all may stick out of the
            // region.
            let (kind, x, y, w, h) = window;
            let (a, b, c, d) = snap;
            let (a, b, c, d) = (f64::from(a), f64::from(b), f64::from(c), f64::from(d));
            let query = match kind {
                0..=3 => Rect::from_bounds(x, y, x + w, y + h),
                4..=6 => {
                    let (x, y) = ((a - 1.0) / 16.0, (b - 1.0) / 16.0);
                    Rect::from_bounds(x, y, x + c / 16.0, y + d / 16.0)
                }
                _ => {
                    let (x, y) = (0.5 + (a - 9.0) * fine, 0.25 + (b - 9.0) * fine);
                    Rect::from_bounds(x, y, x + c * fine, y + d * fine)
                }
            };
            let tree = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
            let linear = LinearQuadtree::from_tree(&tree).unwrap();
            let bits = |ps: &[Point2]| -> Vec<(u64, u64)> {
                ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
            };
            // The descent returns the slab's matches in slab order.
            let mut scratch = QueryScratch::new();
            let mut got = Vec::new();
            linear.range_query_into(&query, &mut scratch, &mut got);
            let expect: Vec<Point2> =
                linear.points().iter().filter(|p| query.contains(p)).copied().collect();
            prop_assert_eq!(bits(&got), bits(&expect));
            prop_assert_eq!(got.len(), points.iter().filter(|p| query.contains(p)).count());
            // Under an unbounded budget the bounded forms, which walk
            // the same descent cut at depth 8, give the same answer.
            let budget = CostBudget::unbounded();
            let mut swept = Vec::new();
            let outcome = linear.range_query_bounded_into(&query, &budget, &mut scratch, &mut swept);
            prop_assert!(outcome.is_complete());
            got.sort_unstable_by(Point2::canonical_cmp);
            prop_assert_eq!(bits(&swept), bits(&got));
            prop_assert_eq!(linear.count_in_range_with(&query, &mut scratch), got.len());
            let (count, outcome) = linear.count_in_range_bounded_with(&query, &budget, &mut scratch);
            prop_assert!(outcome.is_complete());
            prop_assert_eq!(count, got.len());
        }

        #[test]
        fn knn_matches_exhaustive_selection(
            raw in popan_proptest::collection::vec(
                (0u8..10, 0.0f64..1.0, 0.0f64..1.0, 0u8..8, 0u8..8),
                0..140,
            ),
            capacity in 1usize..6,
            target_raw in (0u8..10, -0.5f64..1.5, -0.5f64..1.5, 0u8..9, 0u8..9),
            k_raw in 0usize..1000,
        ) {
            // Messy inputs: uniform points, points and targets on the
            // dyadic split lines i/8 (duplicates and equidistant ties),
            // and a cluster at 2^-29 spacing straddling a split point,
            // whose leaves sit at depth 29 — deep, yet inside the Morton
            // resolution.
            let fine = 0.5f64.powi(29);
            let cluster = |i: u8, j: u8| {
                Point2::new(
                    0.5 + (f64::from(i) - 4.0) * fine,
                    0.25 + (f64::from(j) - 4.0) * fine,
                )
            };
            let points: Vec<Point2> = raw
                .iter()
                .map(|&(kind, x, y, i, j)| match kind {
                    0..=4 => Point2::new(x, y),
                    5..=7 => Point2::new(f64::from(i) / 8.0, f64::from(j) / 8.0),
                    _ => cluster(i, j),
                })
                .collect();
            // Targets cover [-0.5, 1.5)², so some lie outside the region.
            let (target_kind, tx, ty, ti, tj) = target_raw;
            let target = match target_kind {
                0..=5 => Point2::new(tx, ty),
                6..=7 => Point2::new(f64::from(ti) / 8.0, f64::from(tj) / 8.0),
                _ => cluster(ti, tj),
            };
            let k = k_raw % (points.len() + 3);
            let tree = PrQuadtree::build(Rect::unit(), capacity, points.iter().copied()).unwrap();
            let linear = LinearQuadtree::from_tree(&tree).unwrap();
            let got = linear.k_nearest(&target, k);
            let mut expect: Vec<(f64, Point2)> = points
                .iter()
                .map(|p| (p.distance_squared(&target), *p))
                .collect();
            expect.sort_by(knn_cmp);
            expect.truncate(k);
            prop_assert_eq!(got.len(), expect.len());
            for (g, (_, e)) in got.iter().zip(&expect) {
                prop_assert_eq!(g.x.to_bits(), e.x.to_bits());
                prop_assert_eq!(g.y.to_bits(), e.y.to_bits());
            }
            // The bounded form's leaf sweep is an independent route to
            // the same answer.
            let mut swept = Vec::new();
            let outcome = linear.k_nearest_bounded_into(
                &target,
                k,
                &CostBudget::unbounded(),
                &mut QueryScratch::new(),
                &mut swept,
            );
            prop_assert!(outcome.is_complete());
            prop_assert_eq!(swept.len(), got.len());
            for (s, g) in swept.iter().zip(&got) {
                prop_assert_eq!(s.x.to_bits(), g.x.to_bits());
                prop_assert_eq!(s.y.to_bits(), g.y.to_bits());
            }
        }
    }
}
