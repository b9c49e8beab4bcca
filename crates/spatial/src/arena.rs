//! Arena-backed core shared by the regular-decomposition PR trees.
//!
//! The boxed trees (`Node::Internal(Box<[Node; B]>)` plus one heap `Vec`
//! per leaf) spend most of their time in the allocator and in pointer
//! chasing. This module keeps every node in one contiguous slot pool
//! addressed by `u32` ids, stores leaf points in small inline buffers that
//! spill to a shared point arena, and maintains an
//! [`OccupancyCensus`](crate::node_stats::OccupancyCensus) incrementally —
//! O(1) amortized census work per leaf event, O(depth) per tree mutation —
//! so the occupancy reads the experiments hammer are zero-allocation,
//! zero-traversal lookups.
//!
//! # Layout
//!
//! * `slots[0]` is the root. An internal slot stores the base id of its
//!   `B` children, which always occupy `B` *contiguous* slots
//!   (`base .. base + B`); a child block freed by a remove-collapse goes on
//!   `free_blocks` and is reused wholesale by the next split.
//! * A leaf slot stores the id of a [`LeafBuf`]: a fixed `capacity + 1`
//!   stride of the pool's shared point slab, spilling *all* points to a
//!   shared `Vec` arena on overflow — which only coincident piles and
//!   max-depth leaves can reach (a spilled leaf stays spilled until the
//!   buffer is freed, so no points move back and forth on the boundary).
//!   Freed buffers are reused before the slab grows.
//!
//! # One subtree builder, two sinks
//!
//! A PR tree is a function of its point multiset, so every change of
//! shape is a rebuild of one block from its points: [`ArenaTree::rebuild`]
//! decides the block leaf or split by the PR rule, and for a split
//! [`ArenaTree::bulk_rec`] partitions the points stably among the
//! children and decides each of them in turn. Its three callers in the
//! tree hand it the block's points in insertion order: the bulk build
//! (the root and every point), an insert that overflows a leaf (the
//! leaf's points with the new one last) and a remove that leaves a node
//! mergeable (the children's points in child order, which come back as
//! one leaf).
//!
//! The builder sends each block it decides to a [`BlockSink`]. The tree
//! is one sink: slots, leaf buffers and census. An [`OccupancyCensus`]
//! alone is the other, for [`ArenaTree::census_of`]: the census a bulk
//! build reaches, with no slot, leaf buffer or point copy made.
//!
//! # Bit-identity with the boxed implementation
//!
//! Traversal ([`ArenaTree::for_each_leaf`]) is pre-order by child *index*,
//! never by physical slot id, so free-list reuse cannot affect observable
//! order. Within a leaf, `push` appends and `swap_remove` replicates
//! `Vec::swap_remove`, and the rebuilds hand the builder points in the
//! order the boxed code redistributes and merges them in —
//! `reference::BoxedPrQuadtree` is kept as the oracle and the equivalence
//! proptests assert bit-identical `leaf_records()` after arbitrary
//! insert/remove interleavings.

use crate::node_stats::{LeafRecord, OccupancyCensus};
use popan_geom::{BoxN, Half, Point2, PointN, Quadrant, Rect};

/// Sentinel for "no spill vector attached".
const NO_SPILL: u32 = u32::MAX;

/// Largest branching factor the partition's stack arrays accommodate
/// (`2^6`, a 6-dimensional PR tree); [`ArenaTree::new`] rejects a wider
/// scheme at compile time.
const MAX_BULK_BRANCHING: usize = 64;

/// 8-bit count lanes per packed `u64` word of the partition's count.
const LANES: usize = 8;

/// Points the partition counts in its packed lanes between flushes into
/// the offsets: the most one 8-bit lane holds, so no lane carries into
/// the next.
const LANE_FLUSH: usize = 255;

/// A regular decomposition scheme: how a block splits into `BRANCHING`
/// children and which child a point belongs to. Implemented by zero-sized
/// markers; all methods are static so the arena stays monomorphized and
/// branch-free on the scheme.
pub(crate) trait Decomposition {
    /// Point type stored in the tree.
    type Point: Copy + PartialEq + Default + std::fmt::Debug + std::fmt::Display;
    /// Block (region) type being decomposed.
    type Block: Copy + std::fmt::Debug;
    /// Precomputed split thresholds of one block, for classifying many
    /// points without re-deriving the midpoints per point.
    type Splitter: Copy;
    /// Number of children per internal node.
    const BRANCHING: usize;
    /// The block of child `i` of `block` split at `depth`.
    fn child_block(block: &Self::Block, depth: u32, i: usize) -> Self::Block;
    /// Fused descent step: the index and block of the child of `block`
    /// containing `p`, computing the split once. The returned block must
    /// equal `child_block(block, depth, i)` bit for bit — the descent
    /// hot path uses this, and the oracle-equivalence proptests check
    /// the agreement end to end.
    fn descend(block: &Self::Block, depth: u32, p: &Self::Point) -> (usize, Self::Block);
    /// The split thresholds of `block` at `depth`.
    fn splitter(block: &Self::Block, depth: u32) -> Self::Splitter;
    /// The index of the child containing `p`, against precomputed
    /// thresholds — pure comparisons, no per-point midpoint math. Must
    /// agree with `descend`'s index.
    fn classify(s: &Self::Splitter, depth: u32, p: &Self::Point) -> usize;
    /// Whether `block` contains `p` (half-open semantics).
    fn contains(block: &Self::Block, p: &Self::Point) -> bool;
}

/// Quadrant decomposition of a [`Rect`] — the PR quadtree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuadDecomp;

impl Decomposition for QuadDecomp {
    type Point = Point2;
    type Block = Rect;
    type Splitter = (f64, f64);
    const BRANCHING: usize = 4;

    fn child_block(block: &Rect, _depth: u32, i: usize) -> Rect {
        block.quadrant(Quadrant::from_index(i))
    }

    fn descend(block: &Rect, _depth: u32, p: &Point2) -> (usize, Rect) {
        let (q, child) = block.quadrant_descend(p);
        (q.index(), child)
    }

    fn splitter(block: &Rect, _depth: u32) -> (f64, f64) {
        (block.x().mid(), block.y().mid())
    }

    fn classify(&(mx, my): &(f64, f64), _depth: u32, p: &Point2) -> usize {
        usize::from(p.y >= my) * 2 + usize::from(p.x >= mx)
    }

    fn contains(block: &Rect, p: &Point2) -> bool {
        block.contains(p)
    }
}

/// Alternating-axis halving of a [`Rect`] — the bintree. Depth-even
/// levels split on x, depth-odd on y.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinDecomp;

impl Decomposition for BinDecomp {
    type Point = Point2;
    type Block = Rect;
    type Splitter = f64;
    const BRANCHING: usize = 2;

    fn child_block(block: &Rect, depth: u32, i: usize) -> Rect {
        let half = if i == 0 { Half::Lower } else { Half::Upper };
        if depth.is_multiple_of(2) {
            Rect::new(block.x().child(half), block.y())
        } else {
            Rect::new(block.x(), block.y().child(half))
        }
    }

    fn descend(block: &Rect, depth: u32, p: &Point2) -> (usize, Rect) {
        if depth.is_multiple_of(2) {
            let (h, half) = block.x().descend(p.x);
            (h.index(), Rect::new(half, block.y()))
        } else {
            let (h, half) = block.y().descend(p.y);
            (h.index(), Rect::new(block.x(), half))
        }
    }

    fn splitter(block: &Rect, depth: u32) -> f64 {
        if depth.is_multiple_of(2) {
            block.x().mid()
        } else {
            block.y().mid()
        }
    }

    fn classify(&mid: &f64, depth: u32, p: &Point2) -> usize {
        if depth.is_multiple_of(2) {
            usize::from(p.x >= mid)
        } else {
            usize::from(p.y >= mid)
        }
    }

    fn contains(block: &Rect, p: &Point2) -> bool {
        block.contains(p)
    }
}

/// Orthant decomposition of a [`BoxN`] — the `2^D`-ary PR tree (the
/// octree at `D = 3`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NdDecomp<const D: usize>;

impl<const D: usize> Decomposition for NdDecomp<D> {
    type Point = PointN<D>;
    type Block = BoxN<D>;
    type Splitter = PointN<D>;
    const BRANCHING: usize = 1 << D;

    // Out of line: the builder calls this once per child it splits, and
    // with `BoxN::orthant` inlined into `bulk_rec` the `dims` driver's
    // octree and 4-d census legs ran ≈1.35× slower.
    #[inline(never)]
    fn child_block(block: &BoxN<D>, _depth: u32, i: usize) -> BoxN<D> {
        block.orthant(i)
    }

    fn descend(block: &BoxN<D>, _depth: u32, p: &PointN<D>) -> (usize, BoxN<D>) {
        block.orthant_descend(p)
    }

    fn splitter(block: &BoxN<D>, _depth: u32) -> PointN<D> {
        block.split_mids()
    }

    fn classify(mids: &PointN<D>, _depth: u32, p: &PointN<D>) -> usize {
        (0..D).fold(0, |acc, i| {
            acc | (usize::from(p.coords[i] >= mids.coords[i]) << i)
        })
    }

    fn contains(block: &BoxN<D>, p: &PointN<D>) -> bool {
        block.contains(p)
    }
}

/// One node slot: a leaf (holding a [`LeafBuf`] id) or an internal node
/// (holding the base id of its contiguous child slots).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Leaf node; payload is the id into the [`LeafPool`].
    Leaf(u32),
    /// Internal node; children are slots `base .. base + BRANCHING`.
    Internal(u32),
}

/// A read-only view of a slot, for tree-specific query code.
pub(crate) enum SlotView<'a, P> {
    /// Leaf with its points.
    Leaf(&'a [P]),
    /// Internal node with its child base id.
    Internal(u32),
}

/// Per-leaf bookkeeping: point count plus the id of the spill vector
/// (if any). The points themselves live in the pool's strided slab.
#[derive(Debug, Clone, Copy)]
struct LeafBuf {
    len: u32,
    spill: u32,
}

/// Pool of leaf buffers over one shared, strided point slab.
///
/// Buffer `i` owns the slab segment `i * stride .. i * stride + len`,
/// where `stride = capacity + 1` — enough for a full leaf plus the one
/// transient over-capacity point a split redistributes away. Only leaves
/// that legitimately exceed that (coincident piles and max-depth leaves)
/// move to a spill vector, and a spilled leaf stays spilled until the
/// buffer is freed, so no points ping-pong across the boundary.
#[derive(Debug, Clone, Default)]
struct LeafPool<P> {
    stride: usize,
    bufs: Vec<LeafBuf>,
    free: Vec<u32>,
    slab: Vec<P>,
    spills: Vec<Vec<P>>,
    spill_free: Vec<u32>,
}

impl<P: Copy + Default + PartialEq> LeafPool<P> {
    fn new(stride: usize) -> Self {
        LeafPool {
            stride,
            bufs: Vec::new(),
            free: Vec::new(),
            slab: Vec::new(),
            spills: Vec::new(),
            spill_free: Vec::new(),
        }
    }

    /// Allocates an empty leaf buffer, reusing a freed one when possible.
    fn alloc(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            id
        } else {
            self.bufs.push(LeafBuf {
                len: 0,
                spill: NO_SPILL,
            });
            self.slab
                .resize(self.slab.len() + self.stride, P::default());
            (self.bufs.len() - 1) as u32
        }
    }

    /// Allocates a buffer ([`LeafPool::alloc`]) holding `pts` in order,
    /// the state pushing them one by one into an empty buffer reaches. A
    /// run that fits the stride is one slice copy into the buffer's slab
    /// segment; a longer one (a coincident pile or a max-depth leaf)
    /// spills through [`LeafPool::push`].
    fn alloc_filled(&mut self, pts: &[P]) -> u32 {
        let id = self.alloc();
        let start = id as usize * self.stride;
        let segment = if pts.len() <= self.stride {
            self.slab.get_mut(start..start + pts.len())
        } else {
            None
        };
        if let (Some(dst), Some(buf)) = (segment, self.bufs.get_mut(id as usize)) {
            dst.copy_from_slice(pts);
            buf.len = pts.len() as u32;
        } else {
            for &p in pts {
                // popan-lint: allow(Q2, "serving reaches this only by the bare-name edge knn_scan_leaf -> ArenaTree::insert, which is Vec::insert on its best list")
                self.push(id, p);
            }
        }
        id
    }

    /// Frees a buffer (and detaches + recycles its spill vector).
    fn free(&mut self, id: u32) {
        let buf = &mut self.bufs[id as usize];
        buf.len = 0;
        if buf.spill != NO_SPILL {
            self.spills[buf.spill as usize].clear();
            self.spill_free.push(buf.spill);
            buf.spill = NO_SPILL;
        }
        self.free.push(id);
    }

    fn len(&self, id: u32) -> usize {
        self.bufs[id as usize].len as usize
    }

    fn points(&self, id: u32) -> &[P] {
        let buf = &self.bufs[id as usize];
        if buf.spill == NO_SPILL {
            let base = id as usize * self.stride;
            &self.slab[base..base + buf.len as usize]
        } else {
            &self.spills[buf.spill as usize]
        }
    }

    /// Appends a point, spilling the whole buffer to the arena when its
    /// slab stride overflows.
    fn push(&mut self, id: u32, p: P) {
        let buf = &mut self.bufs[id as usize];
        if buf.spill == NO_SPILL && (buf.len as usize) < self.stride {
            self.slab[id as usize * self.stride + buf.len as usize] = p;
            buf.len += 1;
            return;
        }
        if buf.spill != NO_SPILL {
            self.spills[buf.spill as usize].push(p);
        } else {
            let s = if let Some(s) = self.spill_free.pop() {
                s
            } else {
                self.spills.push(Vec::new());
                (self.spills.len() - 1) as u32
            };
            let base = id as usize * self.stride;
            let spill = &mut self.spills[s as usize];
            spill.reserve(buf.len as usize + 1);
            spill.extend_from_slice(&self.slab[base..base + buf.len as usize]);
            spill.push(p);
            buf.spill = s;
        }
        self.bufs[id as usize].len += 1;
    }

    /// Replicates `Vec::swap_remove(idx)` exactly (the removed point is
    /// replaced by the last one), preserving the boxed trees' within-leaf
    /// order bit for bit.
    fn swap_remove(&mut self, id: u32, idx: usize) {
        let buf = &mut self.bufs[id as usize];
        let len = buf.len as usize;
        debug_assert!(idx < len);
        if buf.spill == NO_SPILL {
            let base = id as usize * self.stride;
            self.slab[base + idx] = self.slab[base + len - 1];
        } else {
            self.spills[buf.spill as usize].swap_remove(idx);
        }
        self.bufs[id as usize].len -= 1;
    }

    /// Moves all points out of a buffer into `scratch` (cleared first)
    /// and frees the buffer, so the pool can be mutated while the points
    /// are redistributed.
    fn take_into(&mut self, id: u32, scratch: &mut Vec<P>) {
        scratch.clear();
        let buf = &mut self.bufs[id as usize];
        if buf.spill == NO_SPILL {
            let base = id as usize * self.stride;
            scratch.extend_from_slice(&self.slab[base..base + buf.len as usize]);
        } else {
            let s = buf.spill;
            buf.spill = NO_SPILL;
            scratch.extend_from_slice(&self.spills[s as usize]);
            self.spills[s as usize].clear();
            self.spill_free.push(s);
        }
        buf.len = 0;
        self.free.push(id);
    }

    /// Number of live (allocated, not freed) buffers.
    fn live_bufs(&self) -> usize {
        self.bufs.len() - self.free.len()
    }
}

/// The arena-backed PR tree core: slot pool, leaf pool, free lists and
/// the incrementally maintained occupancy census.
#[derive(Debug, Clone)]
pub(crate) struct ArenaTree<D: Decomposition> {
    slots: Vec<Slot>,
    free_blocks: Vec<u32>,
    leaves: LeafPool<D::Point>,
    census: OccupancyCensus,
    /// The run an insert or a remove rebuilds a block from.
    scratch: Vec<D::Point>,
    /// The work area [`ArenaTree::rebuild`] partitions a run into.
    work: Vec<D::Point>,
    region: D::Block,
    rule: PrRule,
    len: usize,
}

/// The PR rule's parameters: a block at `depth` is a leaf when its
/// points fit in `capacity`, when `max_depth` allows no split, or when
/// they all coincide (no split separates them).
#[derive(Debug, Clone, Copy)]
struct PrRule {
    capacity: usize,
    max_depth: u32,
}

impl PrRule {
    fn is_leaf<P: PartialEq>(self, depth: u32, pts: &[P]) -> bool {
        pts.len() <= self.capacity
            || depth >= self.max_depth
            || pts
                .split_first()
                .is_none_or(|(first, rest)| rest.iter().all(|q| q == first))
    }
}

/// Where [`ArenaTree::rebuild`] sends each block it decides.
trait BlockSink<P> {
    /// Makes `slot` an internal node; returns the slot of its first
    /// child (the children's slots are contiguous).
    fn place_internal(&mut self, slot: u32) -> u32;
    /// Makes `slot` a leaf at `depth` holding `pts`.
    fn place_leaf(&mut self, slot: u32, depth: u32, pts: &[P]);
}

/// The census alone: one record per leaf. It has no slots, so every
/// child slot it hands out is 0.
impl<P> BlockSink<P> for OccupancyCensus {
    fn place_internal(&mut self, _slot: u32) -> u32 {
        0
    }

    fn place_leaf(&mut self, _slot: u32, depth: u32, pts: &[P]) {
        self.leaf_added(depth, pts.len());
    }
}

/// The tree: slots, leaf buffers and census.
impl<D: Decomposition> BlockSink<D::Point> for ArenaTree<D> {
    fn place_internal(&mut self, slot: u32) -> u32 {
        let base = self.alloc_block_bare();
        if let Some(s) = self.slots.get_mut(slot as usize) {
            *s = Slot::Internal(base);
        }
        base
    }

    /// One buffer, filled by one slice copy, and one census record.
    fn place_leaf(&mut self, slot: u32, depth: u32, pts: &[D::Point]) {
        self.census.leaf_added(depth, pts.len());
        let buf = self.leaves.alloc_filled(pts);
        if let Some(s) = self.slots.get_mut(slot as usize) {
            *s = Slot::Leaf(buf);
        }
    }
}

/// The root slot id.
pub(crate) const ROOT: u32 = 0;

impl<D: Decomposition> ArenaTree<D> {
    /// An empty tree: one empty root leaf (counted by the census).
    pub(crate) fn new(region: D::Block, capacity: usize, max_depth: u32) -> Self {
        const { assert!(D::BRANCHING <= MAX_BULK_BRANCHING) };
        debug_assert!(capacity >= 1, "wrappers validate capacity");
        // Stride `capacity + 1`: room for a full leaf plus the one
        // over-capacity point an insert pushes before the leaf splits.
        let mut leaves = LeafPool::new(capacity + 1);
        let root_buf = leaves.alloc();
        let mut census = OccupancyCensus::new();
        census.leaf_added(0, 0);
        ArenaTree {
            slots: vec![Slot::Leaf(root_buf)],
            free_blocks: Vec::new(),
            leaves,
            census,
            scratch: Vec::new(),
            work: Vec::new(),
            region,
            rule: PrRule {
                capacity,
                max_depth,
            },
            len: 0,
        }
    }

    pub(crate) fn region(&self) -> D::Block {
        self.region
    }

    pub(crate) fn capacity(&self) -> usize {
        self.rule.capacity
    }

    pub(crate) fn max_depth(&self) -> u32 {
        self.rule.max_depth
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The maintained census — zero-allocation, zero-traversal.
    pub(crate) fn census(&self) -> &OccupancyCensus {
        &self.census
    }

    /// Total node count (internal + leaf), from pool accounting: every
    /// allocated block contributes `BRANCHING` slots, freed blocks are
    /// parked on the free list.
    pub(crate) fn node_count(&self) -> usize {
        self.slots.len() - self.free_blocks.len() * D::BRANCHING
    }

    /// Read-only view of one slot.
    pub(crate) fn view(&self, slot: u32) -> SlotView<'_, D::Point> {
        match self.slots[slot as usize] {
            Slot::Leaf(buf) => SlotView::Leaf(self.leaves.points(buf)),
            Slot::Internal(base) => SlotView::Internal(base),
        }
    }

    /// Inserts a point the caller has already validated (finite, inside
    /// the region), splitting per the PR rule.
    pub(crate) fn insert(&mut self, p: D::Point) {
        let mut slot = ROOT;
        let mut block = self.region;
        let mut depth = 0u32;
        loop {
            match self.slots[slot as usize] {
                Slot::Internal(base) => {
                    let (i, child) = D::descend(&block, depth, &p);
                    block = child;
                    slot = base + i as u32;
                    depth += 1;
                }
                Slot::Leaf(buf) => {
                    let old = self.leaves.len(buf);
                    self.leaves.push(buf, p);
                    if self.rule.is_leaf(depth, self.leaves.points(buf)) {
                        self.census.occupancy_changed(depth, old, old + 1);
                    } else {
                        // Push, then split, as the boxed tree does: the
                        // leaf's points with `p` last become the block's
                        // subtree.
                        let mut run = std::mem::take(&mut self.scratch);
                        self.leaves.take_into(buf, &mut run);
                        self.census.leaf_removed(depth, old);
                        self.rebuild_slot(slot, block, depth, &mut run);
                        self.scratch = run;
                    }
                    break;
                }
            }
        }
        self.len += 1;
    }

    /// Fills an empty tree from an insertion-order point vector in one
    /// top-down pass, producing a tree bit-identical to inserting the
    /// points sequentially: the root's block rebuilt from every point.
    ///
    /// Identity holds because insert-only construction is order
    /// independent: subtree populations only grow, so a block ends up
    /// internal iff its point count exceeds `capacity`, the points are
    /// not all coincident, and `max_depth` allows a split — a pure
    /// function of the point multiset. Within a leaf, sequential inserts
    /// keep points in insertion order (redistribution scans in order and
    /// appends), which the *stable* partition of
    /// [`ArenaTree::bulk_rec`] reproduces. The payoff is the access
    /// pattern: instead of an O(depth) pointer walk per point, every
    /// level streams a contiguous range of points once, classifying
    /// against one precomputed splitter per node.
    ///
    /// The empty root leaf's buffer is the first one the build takes
    /// back, so a fresh tree's leaf buffers come out in pre-order.
    ///
    /// # Panics
    ///
    /// Panics when the tree is not empty — in every build, not just
    /// debug. Bulk-filling a non-empty tree would double-count the
    /// census and silently corrupt every occupancy read downstream, so
    /// the precondition is enforced unconditionally (the public wrappers
    /// only call this on freshly constructed trees).
    pub(crate) fn bulk_fill(&mut self, mut points: Vec<D::Point>) {
        assert!(self.is_empty(), "bulk_fill requires an empty tree");
        // An empty tree is one empty root leaf (removes collapse every
        // mergeable node), which the rebuild replaces.
        if let Some(&Slot::Leaf(root)) = self.slots.get(ROOT as usize) {
            self.leaves.free(root);
        }
        self.census.leaf_removed(0, 0);
        self.len = points.len();
        let (rule, region) = (self.rule, self.region);
        // The work area grows to the whole input, so it is not kept.
        Self::rebuild(rule, self, ROOT, region, 0, &mut points, &mut Vec::new());
    }

    /// The census [`ArenaTree::bulk_fill`] of `points` leaves in a tree
    /// over `region` with `capacity` and `max_depth`, from the same
    /// builder with the census for its sink: no slot, leaf buffer or
    /// point copy is made. The caller validates the points as for a
    /// bulk fill.
    pub(crate) fn census_of(
        region: D::Block,
        capacity: usize,
        max_depth: u32,
        mut points: Vec<D::Point>,
    ) -> OccupancyCensus {
        const { assert!(D::BRANCHING <= MAX_BULK_BRANCHING) };
        let rule = PrRule {
            capacity,
            max_depth,
        };
        let mut census = OccupancyCensus::new();
        Self::rebuild(
            rule,
            &mut census,
            ROOT,
            region,
            0,
            &mut points,
            &mut Vec::new(),
        );
        census
    }

    /// Allocates `BRANCHING` contiguous child slots *without* leaf
    /// buffers (reusing a freed block when possible). Only the tree's
    /// [`BlockSink::place_internal`] calls it, and the builder writes
    /// every slot of the block before the tree is used — the
    /// placeholder is never a live node.
    #[inline]
    fn alloc_block_bare(&mut self) -> u32 {
        if let Some(b) = self.free_blocks.pop() {
            b
        } else {
            let b = self.slots.len() as u32;
            for _ in 0..D::BRANCHING {
                self.slots.push(Slot::Leaf(NO_SPILL));
            }
            b
        }
    }

    /// [`ArenaTree::rebuild`] into this tree, with its reused work area.
    fn rebuild_slot(&mut self, slot: u32, block: D::Block, depth: u32, run: &mut [D::Point]) {
        let mut work = std::mem::take(&mut self.work);
        Self::rebuild(self.rule, self, slot, block, depth, run, &mut work);
        self.work = work;
    }

    /// Builds the subtree of `block`, at `slot` and `depth`, from `run`
    /// into `sink`: `run` is the block's points in insertion order, and
    /// a tree sink has already taken the block's old node out of its
    /// leaf pool and census. A run that makes a leaf goes straight to
    /// the sink; only a split sizes `work`.
    fn rebuild<S: BlockSink<D::Point>>(
        rule: PrRule,
        sink: &mut S,
        slot: u32,
        block: D::Block,
        depth: u32,
        run: &mut [D::Point],
        work: &mut Vec<D::Point>,
    ) {
        if rule.is_leaf(depth, run) {
            sink.place_leaf(slot, depth, run);
            return;
        }
        work.resize(run.len(), D::Point::default());
        Self::bulk_rec(rule, sink, slot, block, depth, run, work);
    }

    /// The arena's one subtree builder, behind [`ArenaTree::rebuild`]:
    /// splits `block`, at `slot` and `depth`, over `pts`, its points in
    /// insertion order, with `work` an equally sized work area. The
    /// split gets a bare child block from the sink and partitions `pts`
    /// into `work`; each child run there is placed as a leaf or split
    /// in turn, with the matching stretch of `pts` as its work area, so
    /// the two buffers alternate level by level and nothing is copied
    /// back. The sink gets nothing for a block before it is decided
    /// leaf or split (DESIGN.md §9).
    fn bulk_rec<S: BlockSink<D::Point>>(
        rule: PrRule,
        sink: &mut S,
        slot: u32,
        block: D::Block,
        depth: u32,
        pts: &mut [D::Point],
        work: &mut [D::Point],
    ) {
        let base = sink.place_internal(slot);
        let offs = Self::partition_children(&D::splitter(&block, depth), depth, pts, work);

        let mut lo = 0;
        for (i, &hi) in offs.iter().take(D::BRANCHING).enumerate() {
            let (Some(run), Some(child_work)) = (work.get_mut(lo..hi), pts.get_mut(lo..hi)) else {
                continue;
            };
            lo = hi;
            let child = base + i as u32;
            if rule.is_leaf(depth + 1, run) {
                sink.place_leaf(child, depth + 1, run);
            } else {
                let child_block = D::child_block(&block, depth, i);
                Self::bulk_rec(rule, sink, child, child_block, depth + 1, run, child_work);
            }
        }
    }

    /// The stable partition behind [`ArenaTree::bulk_rec`]: scatters
    /// `pts` into `work` by child, each child's points in their order in
    /// `pts`, and returns where each child's run ends there (`[i]` for
    /// child `i`; its run starts where child `i − 1`'s ends). Two
    /// streaming classify passes, count and scatter, with no per-point
    /// midpoint math, and no per-point load and store of a counter
    /// where it pays (DESIGN.md §9):
    ///
    /// * the count keeps one 8-bit lane per child, packed in `u64`
    ///   words, and adds the lanes into the offsets every
    ///   [`LANE_FLUSH`] points;
    /// * a binary split scatters with both cursors in registers,
    ///   choosing one by mask; a wider split moves each child's cursor
    ///   in memory from its run's start to its end.
    fn partition_children(
        splitter: &D::Splitter,
        depth: u32,
        pts: &[D::Point],
        work: &mut [D::Point],
    ) -> [usize; MAX_BULK_BRANCHING + 1] {
        // `offs[i + 1]` counts child i's points.
        let mut offs = [0usize; MAX_BULK_BRANCHING + 1];
        for chunk in pts.chunks(LANE_FLUSH) {
            let mut lanes = [0u64; MAX_BULK_BRANCHING / LANES];
            for p in chunk {
                let i = D::classify(splitter, depth, p);
                if let Some(word) = lanes.get_mut(i / LANES) {
                    *word += 1 << (i % LANES * 8);
                }
            }
            for (i, count) in offs.iter_mut().skip(1).take(D::BRANCHING).enumerate() {
                let word = lanes.get(i / LANES).map_or(0, |w| w >> (i % LANES * 8));
                *count += (word & 0xff) as usize;
            }
        }
        // Prefix sum: `offs[i]` becomes child i's run start.
        let mut sum = 0;
        for off in offs.iter_mut().take(D::BRANCHING) {
            sum += *off;
            *off = sum;
        }
        if D::BRANCHING == 2 {
            let [lower, upper, ..] = &mut offs;
            let (mut lo, mut hi) = (*lower, *upper);
            for &p in pts {
                let up = D::classify(splitter, depth, &p) & 1;
                let mask = up.wrapping_neg();
                if let Some(dst) = work.get_mut(lo & !mask | hi & mask) {
                    *dst = p;
                }
                lo += up ^ 1;
                hi += up;
            }
            (*lower, *upper) = (lo, hi);
        } else {
            for &p in pts {
                let Some(cursor) = offs.get_mut(D::classify(splitter, depth, &p)) else {
                    continue;
                };
                if let Some(dst) = work.get_mut(*cursor) {
                    *dst = p;
                }
                *cursor += 1;
            }
        }
        offs
    }

    /// Removes one stored instance of `p` (already validated by the
    /// caller). Internal nodes left mergeable collapse on the unwind, so
    /// the structure equals a fresh build of the survivors.
    pub(crate) fn remove(&mut self, p: &D::Point) -> bool {
        let region = self.region;
        let removed = self.remove_rec(ROOT, region, 0, p);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove_rec(&mut self, slot: u32, block: D::Block, depth: u32, p: &D::Point) -> bool {
        match self.slots[slot as usize] {
            Slot::Leaf(buf) => match self.leaves.points(buf).iter().position(|q| q == p) {
                Some(idx) => {
                    let old = self.leaves.len(buf);
                    self.leaves.swap_remove(buf, idx);
                    self.census.occupancy_changed(depth, old, old - 1);
                    true
                }
                None => false,
            },
            Slot::Internal(base) => {
                let (i, child_block) = D::descend(&block, depth, p);
                let removed = self.remove_rec(base + i as u32, child_block, depth + 1, p);
                if removed {
                    self.try_collapse(slot, block, depth);
                }
                removed
            }
        }
    }

    /// Collapses an internal node whose children are all leaves holding
    /// at most `capacity` points combined — or an over-capacity pile of
    /// coincident points, mirroring insertion's exception — by
    /// rebuilding its block from the children's points in child order
    /// (within-child order kept), the order the boxed collapse `append`s
    /// them in. Either condition makes the rebuild one leaf.
    fn try_collapse(&mut self, slot: u32, block: D::Block, depth: u32) {
        let Some(&Slot::Internal(base)) = self.slots.get(slot as usize) else {
            return;
        };
        let Some(kids) = self.slots.get(base as usize..base as usize + D::BRANCHING) else {
            return;
        };
        let mut total = 0usize;
        for kid in kids {
            match *kid {
                Slot::Leaf(buf) => total += self.leaves.len(buf),
                Slot::Internal(_) => return,
            }
        }
        if total > self.rule.capacity {
            let mut first = None;
            for kid in kids {
                let Slot::Leaf(buf) = *kid else { return };
                for q in self.leaves.points(buf) {
                    if *first.get_or_insert(q) != q {
                        return;
                    }
                }
            }
        }
        let mut run = std::mem::take(&mut self.scratch);
        run.clear();
        for kid in kids {
            if let Slot::Leaf(buf) = *kid {
                run.extend_from_slice(self.leaves.points(buf));
                self.census.leaf_removed(depth + 1, self.leaves.len(buf));
                self.leaves.free(buf);
            }
        }
        self.free_blocks.push(base);
        self.rebuild_slot(slot, block, depth, &mut run);
        self.scratch = run;
    }

    /// `true` when an exactly equal point is stored (caller handles the
    /// out-of-region fast path).
    pub(crate) fn contains(&self, p: &D::Point) -> bool {
        let mut slot = ROOT;
        let mut block = self.region;
        let mut depth = 0u32;
        loop {
            match self.slots[slot as usize] {
                Slot::Leaf(buf) => return self.leaves.points(buf).contains(p),
                Slot::Internal(base) => {
                    let (i, child) = D::descend(&block, depth, p);
                    block = child;
                    slot = base + i as u32;
                    depth += 1;
                }
            }
        }
    }

    /// Pre-order traversal by child index — physical slot ids and
    /// free-list state never affect visit order. Besides each leaf's
    /// block, depth and points, `f` gets its digit path: the child
    /// indices from the root down, base `BRANCHING`, most significant
    /// first (digits older than 64 bits' worth shift out). For the
    /// quadtree the quadrant index is the Morton digit, so a leaf's path
    /// is its block's Morton prefix (DESIGN.md §15); callers that do not
    /// need it ignore it.
    pub(crate) fn for_each_leaf(&self, f: &mut impl FnMut(&D::Block, u32, u64, &[D::Point])) {
        self.walk(ROOT, &self.region, 0, 0, f);
    }

    fn walk(
        &self,
        slot: u32,
        block: &D::Block,
        depth: u32,
        path: u64,
        f: &mut impl FnMut(&D::Block, u32, u64, &[D::Point]),
    ) {
        match self.slots.get(slot as usize) {
            Some(&Slot::Leaf(buf)) => f(block, depth, path, self.leaves.points(buf)),
            Some(&Slot::Internal(base)) => {
                for i in 0..D::BRANCHING {
                    let child_block = D::child_block(block, depth, i);
                    let child_path = path.wrapping_mul(D::BRANCHING as u64) | i as u64;
                    self.walk(base + i as u32, &child_block, depth + 1, child_path, f);
                }
            }
            None => {}
        }
    }

    /// One record per leaf, in traversal order.
    pub(crate) fn leaf_records(&self) -> Vec<LeafRecord> {
        let mut out = Vec::new();
        self.for_each_leaf(&mut |_, depth, _, points| {
            out.push(LeafRecord {
                depth,
                occupancy: points.len(),
            })
        });
        out
    }

    /// Verifies structural invariants, pool accounting and — crucially —
    /// that the incremental census equals a census rebuilt from a full
    /// traversal. Panics with a description on violation.
    pub(crate) fn check_invariants(&self) {
        let mut total = 0usize;
        let mut records: Vec<LeafRecord> = Vec::new();
        self.for_each_leaf(&mut |block, depth, _, points| {
            total += points.len();
            records.push(LeafRecord {
                depth,
                occupancy: points.len(),
            });
            for p in points {
                assert!(
                    D::contains(block, p),
                    "point {p} stored in leaf {block:?} that does not contain it"
                );
            }
            if points.len() > self.rule.capacity {
                let first = points[0];
                let coincident = points.iter().all(|q| *q == first);
                assert!(
                    depth >= self.rule.max_depth || coincident,
                    "leaf at depth {depth} holds {} > capacity {} without cause",
                    points.len(),
                    self.rule.capacity
                );
            }
            assert!(depth <= self.rule.max_depth, "leaf deeper than max_depth");
        });
        assert_eq!(total, self.len, "stored point count mismatch");
        assert_eq!(
            self.census,
            OccupancyCensus::from_leaves(&records),
            "incremental census diverged from traversal census"
        );
        assert_eq!(
            self.leaves.live_bufs(),
            records.len(),
            "leaf buffer pool leak"
        );
        let internal = (records.len() - 1) / (D::BRANCHING - 1).max(1);
        assert_eq!(
            self.node_count(),
            records.len() + internal,
            "slot pool accounting diverged from tree shape"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    /// The leaf pool's size: buffer records and slab points.
    fn pool_size<D: Decomposition>(t: &ArenaTree<D>) -> (usize, usize) {
        (t.leaves.bufs.len(), t.leaves.slab.len())
    }

    #[test]
    fn free_list_reuses_blocks_and_bufs() {
        let mut t: ArenaTree<QuadDecomp> = ArenaTree::new(Rect::unit(), 1, 32);
        t.insert(pt(0.1, 0.1));
        t.insert(pt(0.9, 0.9));
        let slots_after_split = t.slots.len();
        let pool_after_split = pool_size(&t);
        for cycle in 0..4 {
            assert!(t.remove(&pt(0.9, 0.9)));
            assert_eq!(t.free_blocks.len(), 1, "collapse frees the child block");
            t.insert(pt(0.9, 0.9));
            assert_eq!(
                t.slots.len(),
                slots_after_split,
                "cycle {cycle}: re-split must reuse the freed block, not grow the pool"
            );
            assert!(t.free_blocks.is_empty());
            assert_eq!(
                pool_size(&t),
                pool_after_split,
                "cycle {cycle}: collapse and re-split must reuse the freed leaf buffers"
            );
            t.check_invariants();
        }
    }

    #[test]
    fn churn_cycles_reuse_freed_leaf_buffers() {
        // Removing a third of the points and inserting them again gives
        // back the same tree, through the same sequence of leaf counts,
        // so after the first cycle every buffer a collapse or a split
        // needs is on the free list: the pool must not grow.
        let pts: Vec<Point2> = spread::<2>(600).iter().map(|&[x, y]| pt(x, y)).collect();
        let mut t: ArenaTree<QuadDecomp> = ArenaTree::new(Rect::unit(), 2, 32);
        for &p in &pts {
            t.insert(p);
        }
        let mut first_cycle = None;
        for cycle in 0..5 {
            for p in pts.iter().step_by(3) {
                assert!(t.remove(p));
            }
            assert!(
                !t.leaves.free.is_empty(),
                "cycle {cycle}: the removes collapsed nothing"
            );
            for &p in pts.iter().step_by(3) {
                t.insert(p);
            }
            let pool = pool_size(&t);
            assert_eq!(*first_cycle.get_or_insert(pool), pool, "cycle {cycle}");
        }
        t.check_invariants();
    }

    #[test]
    fn max_depth_leaf_spills_past_its_slab_stride() {
        // max_depth 0: the root can never split, so distinct points pile
        // up past the stride (capacity + 1 = 3) and force a spill.
        let mut t: ArenaTree<QuadDecomp> = ArenaTree::new(Rect::unit(), 2, 0);
        let n = 7;
        for i in 0..n {
            t.insert(pt(0.001 * i as f64, 0.5));
        }
        assert_eq!(t.len(), n);
        assert_eq!(t.node_count(), 1);
        let SlotView::Leaf(points) = t.view(ROOT) else {
            panic!("root must still be a leaf")
        };
        assert_eq!(points.len(), n);
        // Order preserved across the spill boundary.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(*p, pt(0.001 * i as f64, 0.5));
        }
        t.check_invariants();
    }

    #[test]
    fn coincident_pile_spills_and_its_vector_is_recycled_on_collapse() {
        let mut t: ArenaTree<QuadDecomp> = ArenaTree::new(Rect::unit(), 1, 32);
        // A pile of identical points exceeds the stride (2) without
        // splitting: the coincident exception spills the leaf.
        let pile = pt(0.9, 0.9);
        for _ in 0..6 {
            t.insert(pile);
        }
        t.insert(pt(0.1, 0.1)); // splits the root; the pile stays intact
        assert!(t.node_count() > 1);
        assert!(!t.leaves.spills.is_empty(), "pile must have spilled");
        for _ in 0..6 {
            assert!(t.remove(&pile));
        }
        // Survivor fits: cascaded collapse back to a single root leaf,
        // with the spill vector detached and parked for reuse.
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaves.live_bufs(), 1);
        assert_eq!(t.leaves.spill_free.len(), t.leaves.spills.len());
        t.check_invariants();
    }

    #[test]
    fn census_reads_match_traversal_under_churn() {
        let mut t: ArenaTree<QuadDecomp> = ArenaTree::new(Rect::unit(), 2, 32);
        let pts: Vec<Point2> = (0..60)
            .map(|i| {
                pt(
                    (i as f64 * 0.618_033_9) % 1.0,
                    (i as f64 * 0.414_213_6) % 1.0,
                )
            })
            .collect();
        for &p in &pts {
            t.insert(p);
            t.check_invariants();
        }
        for &p in pts.iter().take(30) {
            assert!(t.remove(&p));
            t.check_invariants();
        }
        assert_eq!(t.census().leaf_count(), t.leaf_records().len());
    }

    #[test]
    fn descend_and_classify_agree_with_child_block() {
        // The fused descent and the precomputed-splitter classifier must
        // reproduce child_block and each other exactly, for every scheme
        // that branches on depth parity or not.
        let mut block = Rect::new(
            popan_geom::Interval::new(0.137, 1.731),
            popan_geom::Interval::new(-2.5, 0.875),
        );
        let p = pt(0.694_201_337, 0.333_333_3);
        for depth in 0..24 {
            let (i, child) = BinDecomp::descend(&block, depth, &p);
            assert_eq!(child, BinDecomp::child_block(&block, depth, i));
            let s = BinDecomp::splitter(&block, depth);
            assert_eq!(BinDecomp::classify(&s, depth, &p), i);
            assert!(BinDecomp::contains(&child, &p));
            block = child;
        }

        let mut block = Rect::unit();
        let p = pt(0.618_033_9, 0.414_213_6);
        for depth in 0..24 {
            let (i, child) = QuadDecomp::descend(&block, depth, &p);
            assert_eq!(child, QuadDecomp::child_block(&block, depth, i));
            let s = QuadDecomp::splitter(&block, depth);
            assert_eq!(QuadDecomp::classify(&s, depth, &p), i);
            block = child;
        }
    }

    /// Every leaf in traversal order: depth, digit path and points.
    fn leaves_of<D: Decomposition>(t: &ArenaTree<D>) -> Vec<(u32, u64, Vec<D::Point>)> {
        let mut out = Vec::new();
        t.for_each_leaf(&mut |_, depth, path, pts| out.push((depth, path, pts.to_vec())));
        out
    }

    /// The leaf buffer ids in pre-order.
    fn leaf_bufs<D: Decomposition>(t: &ArenaTree<D>, slot: u32, out: &mut Vec<u32>) {
        match t.slots[slot as usize] {
            Slot::Leaf(buf) => out.push(buf),
            Slot::Internal(base) => {
                for i in 0..D::BRANCHING {
                    leaf_bufs(t, base + i as u32, out);
                }
            }
        }
    }

    /// Asserts that `a` and `b` are observably the same tree: leaves in
    /// traversal order, census, node count and length.
    fn assert_same_tree<D: Decomposition>(a: &ArenaTree<D>, b: &ArenaTree<D>, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        assert_eq!(a.node_count(), b.node_count(), "{what}");
        assert_eq!(a.census(), b.census(), "{what}");
        assert_eq!(leaves_of(a), leaves_of(b), "{what}");
    }

    /// Bulk-fills and sequentially inserts `pts`, asserts the two trees
    /// are the same, that the bulk build made one leaf buffer per leaf,
    /// in pre-order, and freed none, and that `census_of` gives the
    /// bulk build's census. Returns `(bulk, sequential)`.
    fn bulk_and_sequential<D: Decomposition>(
        region: D::Block,
        capacity: usize,
        max_depth: u32,
        pts: &[D::Point],
    ) -> (ArenaTree<D>, ArenaTree<D>) {
        let mut seq: ArenaTree<D> = ArenaTree::new(region, capacity, max_depth);
        for &p in pts {
            seq.insert(p);
        }
        let mut bulk: ArenaTree<D> = ArenaTree::new(region, capacity, max_depth);
        bulk.bulk_fill(pts.to_vec());
        bulk.check_invariants();
        let what = format!("m={capacity} max_depth={max_depth} n={}", pts.len());
        assert_same_tree(&bulk, &seq, &what);
        let census = ArenaTree::<D>::census_of(region, capacity, max_depth, pts.to_vec());
        assert_eq!(&census, bulk.census(), "{what}: census_of");
        if !pts.is_empty() {
            let mut bufs = Vec::new();
            leaf_bufs(&bulk, ROOT, &mut bufs);
            let expected: Vec<u32> = (0..bufs.len() as u32).collect();
            assert_eq!(bufs, expected, "{what}: leaf buffers not in pre-order");
            assert!(
                bulk.leaves.free.is_empty(),
                "{what}: bulk build freed a buffer"
            );
        }
        (bulk, seq)
    }

    /// `n` points of a low-discrepancy sequence, coordinate `k` stepping
    /// by the `k`-th irrational below.
    fn spread<const K: usize>(n: usize) -> Vec<[f64; K]> {
        const STEPS: [f64; 6] = [
            0.618_033_9,
            0.414_213_6,
            0.732_050_8,
            0.236_068_0,
            0.645_751_3,
            0.316_624_8,
        ];
        (0..n)
            .map(|i| std::array::from_fn(|k| (i as f64 * STEPS[k]) % 1.0))
            .collect()
    }

    /// Spread points, then a coincident pile longer than any stride the
    /// capacities below use (so it spills), a near-duplicate pair only
    /// `max_depth` separates, a point by the far corner, and a diagonal
    /// run on a 2⁻²⁹ grid that only blocks 29 levels down separate.
    fn messy<const K: usize>() -> Vec<[f64; K]> {
        let mut pts = spread::<K>(80);
        pts.extend([[0.123; K]; 12]);
        pts.push([0.777; K]);
        pts.push([0.777 + 1e-12; K]);
        pts.push([0.9999; K]);
        pts.extend((0..6).map(|i| [0.375 + f64::from(i) * 2f64.powi(-29); K]));
        pts
    }

    #[test]
    fn bulk_fill_matches_sequential_insertion() {
        // Same multiset, same order: bulk construction must land on the
        // identical structure, leaf contents and census in every scheme,
        // including spilled piles and max-depth truncation.
        for (capacity, max_depth) in [(1, 32), (4, 32), (2, 3), (8, 0), (3, 1)] {
            let quad: Vec<Point2> = messy::<2>().iter().map(|&[x, y]| pt(x, y)).collect();
            let (bulk, _) =
                bulk_and_sequential::<QuadDecomp>(Rect::unit(), capacity, max_depth, &quad);
            // The pile must really spill, or alloc_filled's long-run
            // path went untested.
            assert!(!bulk.leaves.spills.is_empty(), "m={capacity}: no spill");
            bulk_and_sequential::<BinDecomp>(Rect::unit(), capacity, max_depth, &quad);
            let oct: Vec<PointN<3>> = messy::<3>().into_iter().map(PointN::new).collect();
            bulk_and_sequential::<NdDecomp<3>>(BoxN::unit(), capacity, max_depth, &oct);
            let nd: Vec<PointN<4>> = messy::<4>().into_iter().map(PointN::new).collect();
            bulk_and_sequential::<NdDecomp<4>>(BoxN::unit(), capacity, max_depth, &nd);
            // B = 64 = MAX_BULK_BRANCHING, the widest scheme `new`
            // admits: the partition's offsets array must hold it.
            let nd: Vec<PointN<6>> = messy::<6>().into_iter().map(PointN::new).collect();
            bulk_and_sequential::<NdDecomp<6>>(BoxN::unit(), capacity, max_depth, &nd);
        }
    }

    /// `n` spread points in the cube `[lo, lo + side)^K`, the first on its
    /// low corner, then a few strays: on every axis's split line of the
    /// root (0.5) and of smaller blocks (0.25 to 0.9375), on the root's
    /// split line of one axis alone, and off every line (0.1, 0.9).
    fn crowd<const K: usize>(n: usize, lo: f64, side: f64) -> Vec<[f64; K]> {
        let mut pts: Vec<[f64; K]> = spread::<K>(n)
            .into_iter()
            .map(|c| c.map(|v| lo + v * side))
            .collect();
        pts.extend([0.5, 0.25, 0.75, 0.875, 0.0625, 0.9375, 0.1, 0.9].map(|v| [v; K]));
        pts.push(std::array::from_fn(|k| if k == 0 { 0.5 } else { 0.3 }));
        pts
    }

    /// Builds and takes the census of [`crowd`]s that put 254 to 1,000
    /// points in one child, the first or the last, of the root and of a
    /// depth-3 block, with the strays after the crowd and before it, and
    /// holds each to the insert loop.
    fn crowded_children<D: Decomposition, const K: usize>(
        region: D::Block,
        point: impl Fn([f64; K]) -> D::Point,
    ) {
        // (low corner, side) of the root's first and last child, and of
        // the first and last child of the depth-3 block at each corner.
        let cells = [(0.0, 0.5), (0.5, 0.5), (0.0, 0.0625), (0.9375, 0.0625)];
        for (lo, side) in cells {
            for n in [254, 255, 256, 511, 512, 1000] {
                let mut pts: Vec<D::Point> =
                    crowd::<K>(n, lo, side).into_iter().map(&point).collect();
                bulk_and_sequential::<D>(region, 4, 32, &pts);
                pts.reverse();
                bulk_and_sequential::<D>(region, 4, 32, &pts);
            }
        }
    }

    #[test]
    fn partition_counts_and_scatters_crowded_children_exactly() {
        // A child's run of 255 points fills its 8-bit count lane, and
        // 256 would carry into the next lane; runs of 1,000 take several
        // flushes. The binary arm (bintree, `NdDecomp<1>`) and the
        // memory cursors (B = 4 to 64) both place the points on split
        // lines in the upper child.
        crowded_children::<BinDecomp, 2>(Rect::unit(), |[x, y]| pt(x, y));
        crowded_children::<NdDecomp<1>, 1>(BoxN::unit(), PointN::new);
        crowded_children::<QuadDecomp, 2>(Rect::unit(), |[x, y]| pt(x, y));
        crowded_children::<NdDecomp<3>, 3>(BoxN::unit(), PointN::new);
        crowded_children::<NdDecomp<4>, 4>(BoxN::unit(), PointN::new);
        crowded_children::<NdDecomp<6>, 6>(BoxN::unit(), PointN::new);
    }

    /// Builds `seed` both ways, then applies one insert/remove sequence
    /// to both trees; removes pick a live point by index, so both sides
    /// remove the same point.
    fn churn_after_build<D: Decomposition>(
        region: D::Block,
        capacity: usize,
        max_depth: u32,
        seed: Vec<D::Point>,
        ops: &[(bool, D::Point)],
    ) {
        let (mut bulk, mut seq) = bulk_and_sequential::<D>(region, capacity, max_depth, &seed);
        let mut live = seed;
        for (i, &(insert, p)) in ops.iter().enumerate() {
            if insert || live.is_empty() {
                bulk.insert(p);
                seq.insert(p);
                live.push(p);
            } else {
                let victim = live.swap_remove((i * 7919) % live.len());
                assert!(bulk.remove(&victim));
                assert!(seq.remove(&victim));
            }
        }
        bulk.check_invariants();
        seq.check_invariants();
        assert_same_tree(&bulk, &seq, "after churn");
    }

    /// A generated point: a kind and six coordinates.
    type Sample = (u8, [f64; 6]);

    /// The sample's coordinates, snapped to a 4-cell grid per axis for
    /// kinds 0–2, so coincident piles and split-line points are common.
    fn coords(&(kind, c): &Sample) -> [f64; 6] {
        c.map(|v| if kind < 3 { (v * 4.0).floor() / 4.0 } else { v })
    }

    use popan_proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn churn_after_bulk_build_matches_churn_after_insertion(
            seed in popan_proptest::collection::vec(
                (0u8..8, popan_proptest::array::uniform6(0.0f64..1.0)),
                0..120,
            ),
            ops in popan_proptest::collection::vec(
                (popan_proptest::bool::ANY, (0u8..8, popan_proptest::array::uniform6(0.0f64..1.0))),
                0..80,
            ),
            capacity in 1usize..6,
            deep in popan_proptest::bool::ANY,
        ) {
            let max_depth = if deep { 32 } else { 3 };
            let seed: Vec<[f64; 6]> = seed.iter().map(coords).collect();
            let ops: Vec<(bool, [f64; 6])> = ops.iter().map(|(ins, s)| (*ins, coords(s))).collect();

            let p2 = |c: &[f64; 6]| pt(c[0], c[1]);
            let quad: Vec<Point2> = seed.iter().map(p2).collect();
            let quad_ops: Vec<(bool, Point2)> = ops.iter().map(|(i, c)| (*i, p2(c))).collect();
            churn_after_build::<QuadDecomp>(Rect::unit(), capacity, max_depth, quad.clone(), &quad_ops);
            churn_after_build::<BinDecomp>(Rect::unit(), capacity, max_depth, quad, &quad_ops);

            let p3 = |c: &[f64; 6]| PointN::new([c[0], c[1], c[2]]);
            let oct: Vec<PointN<3>> = seed.iter().map(p3).collect();
            let oct_ops: Vec<(bool, PointN<3>)> = ops.iter().map(|(i, c)| (*i, p3(c))).collect();
            churn_after_build::<NdDecomp<3>>(BoxN::unit(), capacity, max_depth, oct, &oct_ops);

            let p4 = |c: &[f64; 6]| PointN::new([c[0], c[1], c[2], c[3]]);
            let nd: Vec<PointN<4>> = seed.iter().map(p4).collect();
            let nd_ops: Vec<(bool, PointN<4>)> = ops.iter().map(|(i, c)| (*i, p4(c))).collect();
            churn_after_build::<NdDecomp<4>>(BoxN::unit(), capacity, max_depth, nd, &nd_ops);

            let nd: Vec<PointN<6>> = seed.into_iter().map(PointN::new).collect();
            let nd_ops: Vec<(bool, PointN<6>)> =
                ops.into_iter().map(|(i, c)| (i, PointN::new(c))).collect();
            churn_after_build::<NdDecomp<6>>(BoxN::unit(), capacity, max_depth, nd, &nd_ops);
        }
    }

    #[test]
    fn bulk_fill_of_empty_and_tiny_inputs() {
        let mut t: ArenaTree<QuadDecomp> = ArenaTree::new(Rect::unit(), 2, 32);
        t.bulk_fill(Vec::new());
        assert!(t.is_empty());
        t.check_invariants();
        t.insert(pt(0.5, 0.5));
        assert_eq!(t.len(), 1);

        let mut t: ArenaTree<BinDecomp> = ArenaTree::new(Rect::unit(), 1, 64);
        t.bulk_fill(vec![pt(0.1, 0.1), pt(0.2, 0.9)]);
        assert_eq!(t.node_count(), 5, "bintree alternating-axis bulk split");
        t.check_invariants();
    }

    #[test]
    fn bintree_decomp_alternates_axes() {
        let mut t: ArenaTree<BinDecomp> = ArenaTree::new(Rect::unit(), 1, 64);
        t.insert(pt(0.1, 0.1));
        t.insert(pt(0.2, 0.9)); // same x half: needs a second (y) split
        assert_eq!(t.node_count(), 5);
        t.check_invariants();
    }
}
