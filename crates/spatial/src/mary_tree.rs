//! The random m-ary search tree over keys.
//!
//! The classic comparison-based member of Devroye's split-tree family
//! (`popan_core::split::SplitSpec::mary_search_tree`): a node buffers up
//! to `b − 1` keys; the `b`-th arrival freezes the buffered keys as
//! *pivots*, creates `b` children (one per pivot gap), and sends the new
//! key down. `b = 2` is the classic binary search tree built leaf-ward.
//!
//! In split-tree terms: branch factor `b`, capacity `s = b − 1`,
//! `s₀ = s = b − 1` (every buffered key is retained as a pivot),
//! `s₁ = 0`, and exactly one key scatters — under uniformly random keys
//! the pivot gaps are `Dirichlet(1,…,1)` spacings, so the expected split
//! row is `(b−1)·e₀ + e₁` and the renewal-theory depth constant is
//! `1/(H_b − 1)` (Holmgren; `b = 2` gives the BST's `2·ln n`).
//!
//! Structurally the tree follows the arena idiom of the regular-
//! decomposition trees: nodes in a contiguous `Vec` addressed by `u32`
//! ids, children allocated as one contiguous block per split, and an
//! [`OccupancyCensus`] maintained incrementally so `depth_table()` /
//! `occupancy_profile()` / `leaf_count()` are zero-allocation reads.
//! The keys live in one flat slab beside the nodes, `b − 1` slots per
//! node, so a node is a small `Copy` header and a split grows two
//! vectors by one block, with no allocation per node.
//! Unlike the spatial trees, items also live at internal nodes (the
//! pivots); the tree tracks their count and path length in a
//! [`MaryCensus`] beside the occupancy census, so
//! [`MarySearchTree::total_path_length`] reports the full
//! Broutin–Holmgren `Υ_n` over *all* stored keys.
//! [`MarySearchTree::census_of`] computes the census a build reaches
//! without the tree.

use crate::node_stats::{
    DepthOccupancyTable, LeafRecord, OccupancyCensus, OccupancyInstrumented, OccupancyProfile,
};
use crate::pr_quadtree::TreeError;

/// One node's header: a leaf buffering up to `b − 1` keys, or an
/// internal node whose `b − 1` keys act as pivots over a contiguous
/// block of `b` children. The keys themselves sit in the tree's slab.
#[derive(Debug, Clone, Copy)]
struct Node {
    depth: u32,
    /// Keys held in the node's slab slots: the leaf buffer's fill, or
    /// `b − 1` once the node is internal.
    len: u32,
    /// Base id of the contiguous `b`-child block, or 0 for a leaf (the
    /// root, id 0, is never a child).
    children: u32,
}

/// A random m-ary search tree over `u64` keys with branch factor `b ≥ 2`.
///
/// Duplicate keys are accepted (equal keys route to the right), so a
/// pathological all-equal stream degrades to a rightmost chain — the
/// usual BST caveat, bounded per insert by one descent and one split.
#[derive(Debug, Clone)]
pub struct MarySearchTree {
    branch: usize,
    nodes: Vec<Node>,
    /// The key slab: node `id` owns slots `id·(b−1) .. (id+1)·(b−1)`,
    /// and its first `len` slots hold its keys in sorted order.
    keys: Vec<u64>,
    stats: MaryCensus,
}

/// An m-ary search tree's census: the leaves' occupancy census, the key
/// count and the keys frozen as pivots at internal nodes — all that the
/// tree's depth observables read. A [`MarySearchTree`] keeps one up to
/// date; [`MarySearchTree::census_of`] gives the one a build reaches,
/// without the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct MaryCensus {
    census: OccupancyCensus,
    len: usize,
    /// Keys frozen as pivots at internal nodes.
    pivot_count: usize,
    /// Σ depth over pivot keys — the internal-node share of `Υ_n`.
    pivot_path: u64,
}

impl MaryCensus {
    /// The census of `len` keys before any node is recorded.
    fn with_len(len: usize) -> Self {
        MaryCensus {
            census: OccupancyCensus::new(),
            len,
            pivot_count: 0,
            pivot_path: 0,
        }
    }

    /// Number of keys frozen as pivots at internal nodes.
    pub fn pivot_count(&self) -> usize {
        self.pivot_count
    }

    /// Records `count` keys frozen as pivots at `depth`.
    fn freeze_pivots(&mut self, depth: u32, count: usize) {
        self.pivot_count += count;
        self.pivot_path += u64::from(depth) * count as u64;
    }

    /// The occupancy profile over leaf buffers.
    pub fn occupancy_profile(&self) -> &OccupancyProfile {
        self.census.profile()
    }

    /// The per-depth occupancy table of the leaves.
    pub fn depth_table(&self) -> &DepthOccupancyTable {
        self.census.depth_table()
    }

    /// Total path length `Υ_n = Σ depth(key)` over *all* keys: the
    /// pivots' share plus the buffered keys' share from the occupancy
    /// census — the Broutin–Holmgren quantity.
    pub fn total_path_length(&self) -> u64 {
        self.pivot_path + self.census.depth_table().total_item_path_length()
    }

    /// Average depth of a key (0 when there are none).
    pub fn average_key_depth(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.total_path_length() as f64 / self.len as f64
        }
    }

    /// Expected depth at which the *next* uniformly random key would be
    /// buffered — Holmgren's `D_n`, computed exactly from the census.
    ///
    /// The `n` keys cut the key space into `n + 1` gaps; a leaf
    /// buffering `j` keys spans `j + 1` of them, so the next key lands
    /// in it with probability `(j + 1)/(n + 1)`:
    /// `E[D] = Σ_d d·(items_at(d) + leaves_at(d)) / (n + 1)`.
    pub fn expected_insertion_depth(&self) -> f64 {
        let t = self.census.depth_table();
        let weighted: u64 = (0..=t.max_depth().unwrap_or(0))
            .map(|d| u64::from(d) * (t.items_at(d) + t.leaves_at(d)))
            .sum();
        weighted as f64 / (self.len as f64 + 1.0)
    }
}

/// Where the partition build sends each node it decides: the tree
/// (nodes, key slab and census) or a [`MaryCensus`] alone.
trait KeySink {
    /// Node `id` at `depth` is a leaf holding `keys`, in arrival order.
    fn key_leaf(&mut self, id: usize, depth: u32, keys: &[u64]);
    /// Node `id` at `depth` is internal over the sorted `pivots`;
    /// returns the id of its first child (the children's are
    /// contiguous).
    fn key_split(&mut self, id: usize, depth: u32, pivots: &[u64]) -> usize;
}

/// The census alone. It has no nodes, so every child id it hands out
/// is 0.
impl KeySink for MaryCensus {
    fn key_leaf(&mut self, _id: usize, depth: u32, keys: &[u64]) {
        self.census.leaf_added(depth, keys.len());
    }

    fn key_split(&mut self, _id: usize, depth: u32, pivots: &[u64]) -> usize {
        self.freeze_pivots(depth, pivots.len());
        0
    }
}

/// The tree: the node's keys go to its slab slots, a split appends its
/// children, and the census records both.
impl KeySink for MarySearchTree {
    fn key_leaf(&mut self, id: usize, depth: u32, keys: &[u64]) {
        let cap = self.branch - 1;
        let held = &mut self.keys[id * cap..][..keys.len()];
        held.copy_from_slice(keys);
        held.sort_unstable();
        self.nodes[id].len = keys.len() as u32;
        self.stats.key_leaf(id, depth, keys);
    }

    fn key_split(&mut self, id: usize, depth: u32, pivots: &[u64]) -> usize {
        let cap = self.branch - 1;
        let base = self.add_nodes(self.branch, depth + 1);
        self.keys[id * cap..][..cap].copy_from_slice(pivots);
        self.nodes[id].len = cap as u32;
        self.nodes[id].children = base as u32;
        self.stats.key_split(id, depth, pivots);
        base
    }
}

impl MarySearchTree {
    /// Creates an empty tree with branch factor `branch ≥ 2` (leaf
    /// capacity `branch − 1`).
    pub fn new(branch: usize) -> Result<Self, TreeError> {
        let mut tree = Self::without_nodes(branch)?;
        tree.add_leaves(1, 0);
        Ok(tree)
    }

    /// A tree with no nodes and an empty census; `new` and `build` add
    /// the root.
    fn without_nodes(branch: usize) -> Result<Self, TreeError> {
        Self::check_branch(branch)?;
        Ok(MarySearchTree {
            branch,
            nodes: Vec::new(),
            keys: Vec::new(),
            stats: MaryCensus::with_len(0),
        })
    }

    /// Fails unless `branch ≥ 2`.
    fn check_branch(branch: usize) -> Result<(), TreeError> {
        if branch < 2 {
            return Err(TreeError::InvalidParameter(
                "branch factor must be at least 2".into(),
            ));
        }
        Ok(())
    }

    /// Builds the tree that [`new`](Self::new) followed by
    /// [`insert`](Self::insert) of each of `keys` in order gives, by
    /// stable partition instead of one descent per key.
    ///
    /// Under inserts alone, the keys a node ever receives are the keys
    /// routed to it, in arrival order, and that run decides the node: a
    /// run of at most `b − 1` keys is a leaf holding them sorted; a
    /// longer run's first `b − 1` keys, sorted, are its pivots, and the
    /// rest go to its `b` children. So the build hands each node its
    /// run. It counts the run's keys per child, prefix-sums the counts,
    /// and scatters the run stably into the other of two work buffers;
    /// the children read their runs there, with the buffers' roles
    /// swapped, so no level copies back. A child whose run fits is
    /// placed as a leaf when the scatter ends; longer runs are taken
    /// from an explicit stack, because sorted or all-equal keys make a
    /// chain `n/(b − 1)` deep.
    ///
    /// The keys, census, pivot count, path length and node count equal
    /// the insert loop's. Only node ids differ: child blocks are
    /// appended in pre-order of their parents rather than in split
    /// order, so [`leaf_records`](Self::leaf_records) lists the leaves
    /// in pre-order.
    pub fn build(branch: usize, keys: impl IntoIterator<Item = u64>) -> Result<Self, TreeError> {
        let mut tree = Self::without_nodes(branch)?;
        let run: Vec<u64> = keys.into_iter().collect();
        tree.stats.len = run.len();
        tree.add_nodes(1, 0);
        Self::partition(branch, &mut tree, run);
        Ok(tree)
    }

    /// The census of [`build`](Self::build) over the same arguments,
    /// without the tree: the same partition runs with the census for
    /// its sink, so no node or key slab is made and each node's pivots
    /// are sorted in one reused buffer. For the drivers that read only
    /// a census. Fails as `build` does.
    pub fn census_of(branch: usize, keys: Vec<u64>) -> Result<MaryCensus, TreeError> {
        Self::check_branch(branch)?;
        let mut census = MaryCensus::with_len(keys.len());
        Self::partition(branch, &mut census, keys);
        Ok(census)
    }

    /// The partition behind [`build`](Self::build) and
    /// [`census_of`](Self::census_of): decides the root over `run`, its
    /// children over their runs, and so on, sending each node to
    /// `sink`.
    fn partition(branch: usize, sink: &mut impl KeySink, mut run: Vec<u64>) {
        let cap = branch - 1;
        // The leaf rule: a run of at most `b − 1` keys.
        let fits = |keys: &[u64]| keys.len() <= cap;
        let mut other = vec![0u64; run.len()];
        let mut offsets = vec![0usize; branch + 1];
        let mut pivots = vec![0u64; cap];
        // (node id, depth, its run's bounds, whether the run sits in
        // `other`)
        let mut stack = vec![(0usize, 0u32, 0usize, run.len(), false)];
        while let Some((id, depth, lo, hi, in_other)) = stack.pop() {
            let (src, dst) = if in_other {
                (&other[lo..hi], &mut run[lo..hi])
            } else {
                (&run[lo..hi], &mut other[lo..hi])
            };
            // Only the root can fit here: a child that fits is placed
            // when its parent's scatter ends.
            if fits(src) {
                sink.key_leaf(id, depth, src);
                continue;
            }
            let (first, rest) = src.split_at(cap);
            pivots.copy_from_slice(first);
            // An insertion pass: there are at most `b − 1` pivots, and
            // it measured faster than a `sort_unstable` call.
            for i in 1..cap {
                let key = pivots[i];
                let mut at = i;
                while at > 0 && pivots[at - 1] > key {
                    pivots[at] = pivots[at - 1];
                    at -= 1;
                }
                pivots[at] = key;
            }
            offsets.fill(0);
            for &key in rest {
                offsets[Self::route(&pivots, key) + 1] += 1;
            }
            for c in 1..branch {
                offsets[c] += offsets[c - 1];
            }
            let dst = &mut dst[cap..];
            for &key in rest {
                let at = &mut offsets[Self::route(&pivots, key)];
                dst[*at] = key;
                *at += 1;
            }
            // `offsets[c]` is now where child c's run ends. A run that
            // fits is a leaf at once; a longer one waits its turn.
            let base = sink.key_split(id, depth, &pivots);
            for c in (0..branch).rev() {
                let start = if c == 0 { 0 } else { offsets[c - 1] };
                let child_run = &dst[start..offsets[c]];
                if fits(child_run) {
                    sink.key_leaf(base + c, depth + 1, child_run);
                } else {
                    stack.push((
                        base + c,
                        depth + 1,
                        lo + cap + start,
                        lo + cap + offsets[c],
                        !in_other,
                    ));
                }
            }
        }
    }

    /// Branch factor `b`.
    pub fn branch(&self) -> usize {
        self.branch
    }

    /// Number of stored keys (pivots + leaf buffers).
    pub fn len(&self) -> usize {
        self.stats.len
    }

    /// `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.stats.len == 0
    }

    /// Number of keys frozen as pivots at internal nodes.
    pub fn pivot_count(&self) -> usize {
        self.stats.pivot_count()
    }

    /// Total node count (internal + leaf).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf count, served from the maintained census: O(1).
    pub fn leaf_count(&self) -> usize {
        self.stats.census.leaf_count()
    }

    /// Deepest leaf depth (0 for the fresh root-only tree).
    pub fn height(&self) -> u32 {
        self.stats.depth_table().max_depth().unwrap_or(0)
    }

    /// Child index for `key` among sorted `pivots`: equal keys go right.
    /// A count rather than a binary search: there are at most `b − 1`
    /// pivots, and the count compiles to compares without branches.
    /// Always inlined, since the partition calls it twice per key per
    /// level.
    #[inline(always)]
    fn route(pivots: &[u64], key: u64) -> usize {
        pivots.iter().filter(|&&p| p <= key).count()
    }

    /// Appends `count` empty nodes at `depth`, each with its `b − 1`
    /// slab slots, and returns the first one's id. The census is the
    /// caller's to update.
    fn add_nodes(&mut self, count: usize, depth: u32) -> usize {
        let base = self.nodes.len();
        let leaf = Node {
            depth,
            len: 0,
            children: 0,
        };
        self.nodes.resize(base + count, leaf);
        self.keys.resize(self.nodes.len() * (self.branch - 1), 0);
        base
    }

    /// Appends `count` empty leaves at `depth` and records them in the
    /// census; returns the first one's id.
    fn add_leaves(&mut self, count: usize, depth: u32) -> usize {
        let base = self.add_nodes(count, depth);
        for _ in 0..count {
            self.stats.census.leaf_added(depth, 0);
        }
        base
    }

    /// Inserts a key. One descent plus at most one split: when the
    /// `b`-th key reaches a full leaf, the buffered `b − 1` keys become
    /// pivots over `b` fresh empty children (one slab block) and the
    /// arriving key routes one level down.
    pub fn insert(&mut self, key: u64) {
        let cap = self.branch - 1;
        let mut id = 0usize;
        let Node { depth, len, .. } = loop {
            let node = self.nodes[id];
            if node.children == 0 {
                break node;
            }
            id = node.children as usize + Self::route(&self.keys[id * cap..][..cap], key);
        };
        let occ = len as usize;
        let slots = &mut self.keys[id * cap..][..cap];
        if occ < cap {
            let at = slots.split_at(occ).0.partition_point(|&k| k <= key);
            slots.copy_within(at..occ, at + 1);
            slots[at] = key;
            self.nodes[id].len += 1;
            self.stats.census.occupancy_changed(depth, occ, occ + 1);
        } else {
            // Split: the buffer freezes into pivots, b children appear.
            let child = Self::route(slots, key);
            self.stats.census.leaf_removed(depth, occ);
            self.stats.freeze_pivots(depth, occ);
            let base = self.add_leaves(self.branch, depth + 1);
            self.nodes[id].children = base as u32;
            self.nodes[base + child].len = 1;
            self.keys[(base + child) * cap] = key;
            self.stats.census.occupancy_changed(depth + 1, 0, 1);
        }
        self.stats.len += 1;
    }

    /// `true` when an exactly equal key is stored (as pivot or buffered).
    pub fn contains(&self, key: u64) -> bool {
        let cap = self.branch - 1;
        let mut id = 0usize;
        loop {
            let (node, slots) = (self.nodes[id], &self.keys[id * cap..][..cap]);
            let held = slots.split_at(node.len as usize).0;
            if held.binary_search(&key).is_ok() {
                return true;
            }
            if node.children == 0 {
                return false;
            }
            id = node.children as usize + Self::route(held, key);
        }
    }

    /// Node `id`'s keys, in sorted order.
    fn held(&self, id: usize) -> &[u64] {
        let cap = self.branch - 1;
        &self.keys[id * cap..][..self.nodes[id].len as usize]
    }

    /// All stored keys in sorted (in-order) order.
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        // Explicit stack of (node id, next in-order slot). Slots at an
        // internal node alternate child 0, pivot 0, child 1, …, child b−1.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some((id, slot)) = stack.pop() {
            match self.nodes[id].children {
                0 => out.extend_from_slice(self.held(id)),
                base => {
                    if slot >= 2 * self.branch - 1 {
                        continue;
                    }
                    stack.push((id, slot + 1));
                    if slot % 2 == 1 {
                        out.push(self.held(id)[slot / 2]);
                    } else {
                        stack.push((base as usize + slot / 2, 0));
                    }
                }
            }
        }
        out
    }

    /// One record per leaf node, in id order (traversal; the census
    /// serves the same data incrementally).
    pub fn leaf_records(&self) -> Vec<LeafRecord> {
        self.nodes
            .iter()
            .filter(|n| n.children == 0)
            .map(|n| LeafRecord {
                depth: n.depth,
                occupancy: n.len as usize,
            })
            .collect()
    }

    /// The occupancy profile over leaf buffers, maintained
    /// incrementally — a zero-allocation, zero-traversal read.
    pub fn occupancy_profile(&self) -> &OccupancyProfile {
        self.stats.occupancy_profile()
    }

    /// The per-depth occupancy table, maintained incrementally — a
    /// zero-allocation, zero-traversal read.
    pub fn depth_table(&self) -> &DepthOccupancyTable {
        self.stats.depth_table()
    }

    /// Total path length `Υ_n` over all stored keys
    /// ([`MaryCensus::total_path_length`]).
    pub fn total_path_length(&self) -> u64 {
        self.stats.total_path_length()
    }

    /// Average depth of a stored key, 0 for an empty tree
    /// ([`MaryCensus::average_key_depth`]).
    pub fn average_key_depth(&self) -> f64 {
        self.stats.average_key_depth()
    }

    /// Expected depth at which the *next* uniformly random key would be
    /// buffered — Holmgren's `D_n`
    /// ([`MaryCensus::expected_insertion_depth`]).
    pub fn expected_insertion_depth(&self) -> f64 {
        self.stats.expected_insertion_depth()
    }

    /// Verifies structural invariants; panics on violation.
    ///
    /// Checks: the slab holds `b − 1` slots per node, node shape
    /// (internal nodes carry exactly `b − 1` sorted pivots, leaves at
    /// most that many sorted keys, children one level down), the child
    /// blocks tile every id but the root's, the incremental census
    /// against a full-traversal rebuild, the pivot accounting against a
    /// recount, and global in-order sortedness.
    pub fn check_invariants(&self) {
        assert_eq!(
            self.keys.len(),
            self.nodes.len() * (self.branch - 1),
            "slab must hold b-1 slots per node"
        );
        let mut pivots = 0usize;
        let mut pivot_path = 0u64;
        let mut leaf_keys = 0usize;
        let mut blocks = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let held = self.held(id);
            assert!(
                held.windows(2).all(|w| w[0] <= w[1]),
                "node {id}: keys not sorted"
            );
            match node.children {
                0 => {
                    assert!(
                        held.len() < self.branch,
                        "leaf {id} over capacity: {} keys",
                        held.len()
                    );
                    leaf_keys += held.len();
                }
                base => {
                    assert_eq!(
                        held.len(),
                        self.branch - 1,
                        "internal node {id} must hold exactly b-1 pivots"
                    );
                    pivots += held.len();
                    pivot_path += u64::from(node.depth) * held.len() as u64;
                    for c in 0..self.branch {
                        let child = &self.nodes[base as usize + c];
                        assert_eq!(child.depth, node.depth + 1, "child depth under node {id}");
                    }
                    blocks.push(base as usize);
                }
            }
        }
        blocks.sort_unstable();
        assert!(
            blocks
                .iter()
                .enumerate()
                .all(|(i, &base)| base == 1 + i * self.branch),
            "child blocks must tile ids 1.. in b-sized blocks"
        );
        assert_eq!(
            1 + blocks.len() * self.branch,
            self.nodes.len(),
            "a node outside every child block"
        );
        assert_eq!(pivots, self.stats.pivot_count, "pivot count drifted");
        assert_eq!(
            pivot_path, self.stats.pivot_path,
            "pivot path length drifted"
        );
        assert_eq!(pivots + leaf_keys, self.len(), "key count drifted");
        let records = self.leaf_records();
        assert_eq!(
            self.stats.census,
            OccupancyCensus::from_leaves(&records),
            "incremental census drifted from traversal rebuild"
        );
        let keys = self.keys();
        assert_eq!(keys.len(), self.len(), "in-order enumeration lost keys");
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "in-order enumeration not sorted"
        );
    }
}

impl OccupancyInstrumented for MarySearchTree {
    fn capacity(&self) -> usize {
        self.branch - 1
    }

    fn leaf_records(&self) -> Vec<LeafRecord> {
        MarySearchTree::leaf_records(self)
    }

    fn occupancy_profile(&self) -> OccupancyProfile {
        self.stats.occupancy_profile().clone()
    }

    fn depth_table(&self) -> DepthOccupancyTable {
        self.stats.depth_table().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;
    use popan_workload::keys::UniformKeys;

    #[test]
    fn rejects_branch_below_two() {
        assert!(MarySearchTree::new(0).is_err());
        assert!(MarySearchTree::new(1).is_err());
        assert!(MarySearchTree::new(2).is_ok());
    }

    #[test]
    fn empty_tree_is_one_empty_root_leaf() {
        let t = MarySearchTree::new(4).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.height(), 0);
        assert_eq!(t.total_path_length(), 0);
        assert_eq!(t.average_key_depth(), 0.0);
        assert_eq!(t.expected_insertion_depth(), 0.0);
        t.check_invariants();
    }

    #[test]
    fn first_split_freezes_buffer_into_pivots() {
        // b = 4: three keys buffer at the root; the fourth splits.
        let mut t = MarySearchTree::new(4).unwrap();
        for k in [30u64, 10, 20] {
            t.insert(k);
        }
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.pivot_count(), 0);
        t.insert(15);
        assert_eq!(t.node_count(), 5, "root + 4 children");
        assert_eq!(t.pivot_count(), 3);
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.len(), 4);
        // 15 routed between pivots 10 and 20 → child 1, depth 1.
        assert_eq!(t.total_path_length(), 1);
        assert_eq!(t.keys(), vec![10, 15, 20, 30]);
        assert!(t.contains(15) && t.contains(10) && !t.contains(99));
        t.check_invariants();
    }

    #[test]
    fn bst_case_matches_hand_trace() {
        // b = 2 is a leaf-buffered BST: capacity-1 leaves, every second
        // key per subtree becomes a pivot.
        let mut t = MarySearchTree::new(2).unwrap();
        t.insert(50);
        assert_eq!(t.node_count(), 1);
        t.insert(30); // splits root: pivot 50, children; 30 goes left
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.pivot_count(), 1);
        t.insert(70); // right child buffers 70
        assert_eq!(t.node_count(), 3);
        t.insert(60); // splits right child: pivot 70, 60 goes left of it
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.keys(), vec![30, 50, 60, 70]);
        // Depths: 30@1, 50@0 (pivot), 60@2, 70@1 (pivot) → Υ = 4.
        assert_eq!(t.total_path_length(), 4);
        t.check_invariants();
    }

    #[test]
    fn duplicates_route_right_and_are_retained() {
        let mut t = MarySearchTree::new(3).unwrap();
        for _ in 0..7 {
            t.insert(42);
        }
        assert_eq!(t.len(), 7);
        assert_eq!(t.keys(), vec![42; 7]);
        assert!(t.contains(42));
        t.check_invariants();
    }

    #[test]
    fn random_build_invariants_across_branches() {
        for branch in [2usize, 3, 4, 8] {
            let mut rng = StdRng::seed_from_u64(0x5117 + branch as u64);
            let keys = UniformKeys.sample_n(&mut rng, 500);
            let t = MarySearchTree::build(branch, keys.iter().copied()).unwrap();
            assert_eq!(t.len(), 500);
            t.check_invariants();
            for &k in &keys {
                assert!(t.contains(k));
            }
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(t.keys(), sorted);
            // Node-count identity: internal·(b−1) + 1 = leaves.
            let internal = t.node_count() - t.leaf_count();
            assert_eq!(internal * (branch - 1) + 1, t.leaf_count());
            // Pivot accounting: internal·(b−1) pivots.
            assert_eq!(t.pivot_count(), internal * (branch - 1));
        }
    }

    #[test]
    fn census_reads_match_traversal() {
        let mut rng = StdRng::seed_from_u64(0xa11ce);
        let keys = UniformKeys.sample_n(&mut rng, 300);
        let t = MarySearchTree::build(4, keys).unwrap();
        let records = t.leaf_records();
        assert_eq!(
            t.occupancy_profile(),
            &OccupancyProfile::from_leaves(&records)
        );
        assert_eq!(t.depth_table(), &DepthOccupancyTable::from_leaves(&records));
        assert_eq!(t.leaf_count(), records.len());
        assert!(OccupancyInstrumented::capacity(&t) == 3);
    }

    #[test]
    fn depth_grows_like_holmgren_constant() {
        // Coarse asymptotics smoke test (the split experiment does the
        // real regression): BST average depth ≈ 2·ln n within a wide
        // band at n = 4096.
        let mut rng = StdRng::seed_from_u64(0xdeeb);
        let keys = UniformKeys.sample_n(&mut rng, 4096);
        let t = MarySearchTree::build(2, keys).unwrap();
        let expect = 2.0 * 4096f64.ln();
        let measured = t.average_key_depth();
        assert!(
            measured > 0.6 * expect && measured < 1.2 * expect,
            "BST average depth {measured} vs 2 ln n = {expect}"
        );
        // Larger branch ⇒ shallower: H_8 − 1 > H_2 − 1.
        let mut rng = StdRng::seed_from_u64(0xdeeb);
        let keys = UniformKeys.sample_n(&mut rng, 4096);
        let t8 = MarySearchTree::build(8, keys).unwrap();
        assert!(t8.average_key_depth() < measured);
    }

    #[test]
    fn expected_insertion_depth_weights_gaps() {
        // Root split just happened (b = 2, one pivot, two leaves: left
        // holds 1 key, right empty): gaps are 2 at depth 1 (left leaf)
        // and 1 at depth 1 (right leaf) over n + 1 = 3 ⇒ E[D] = 1.
        let mut t = MarySearchTree::new(2).unwrap();
        t.insert(50);
        t.insert(30);
        assert!((t.expected_insertion_depth() - 1.0).abs() < 1e-12);
        // And it matches a direct traversal computation on a random tree.
        let mut rng = StdRng::seed_from_u64(0xfeed);
        let keys = UniformKeys.sample_n(&mut rng, 400);
        let t = MarySearchTree::build(3, keys).unwrap();
        let direct: f64 = t
            .leaf_records()
            .iter()
            .map(|r| f64::from(r.depth) * (r.occupancy as f64 + 1.0))
            .sum::<f64>()
            / (t.len() as f64 + 1.0);
        assert!((t.expected_insertion_depth() - direct).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;
    use popan_proptest::TestCaseError;

    /// The reference `build` is held to: `new` plus one `insert` per key.
    fn insert_loop(branch: usize, keys: &[u64]) -> MarySearchTree {
        let mut t = MarySearchTree::new(branch).unwrap();
        for &k in keys {
            t.insert(k);
        }
        t
    }

    /// `built` and `inserted` agree on everything but node ids: census,
    /// counts, path length, `expected_insertion_depth` bits, in-order
    /// keys, membership of every key (and of its successor), and the
    /// leaf records as a multiset.
    fn same_tree(
        built: &MarySearchTree,
        inserted: &MarySearchTree,
        keys: &[u64],
    ) -> Result<(), TestCaseError> {
        built.check_invariants();
        prop_assert_eq!(&built.stats.census, &inserted.stats.census);
        prop_assert_eq!(built.occupancy_profile(), inserted.occupancy_profile());
        prop_assert_eq!(built.depth_table(), inserted.depth_table());
        prop_assert_eq!(built.len(), inserted.len());
        prop_assert_eq!(built.node_count(), inserted.node_count());
        prop_assert_eq!(built.height(), inserted.height());
        prop_assert_eq!(built.pivot_count(), inserted.pivot_count());
        prop_assert_eq!(built.total_path_length(), inserted.total_path_length());
        prop_assert_eq!(
            built.expected_insertion_depth().to_bits(),
            inserted.expected_insertion_depth().to_bits()
        );
        prop_assert_eq!(built.keys(), inserted.keys());
        for &k in keys {
            prop_assert!(built.contains(k));
            let next = k.wrapping_add(1);
            prop_assert_eq!(built.contains(next), inserted.contains(next));
        }
        let records = |t: &MarySearchTree| {
            let mut r: Vec<(u32, usize)> = t
                .leaf_records()
                .iter()
                .map(|r| (r.depth, r.occupancy))
                .collect();
            r.sort_unstable();
            r
        };
        prop_assert_eq!(records(built), records(inserted));
        Ok(())
    }

    /// [`MarySearchTree::census_of`] over `keys` equals `built`'s census
    /// (occupancy census, key and pivot counts, pivot path) and gives
    /// the same `expected_insertion_depth` bits.
    fn same_census(census: &MaryCensus, built: &MarySearchTree) -> Result<(), TestCaseError> {
        prop_assert_eq!(census, &built.stats);
        prop_assert_eq!(
            census.expected_insertion_depth().to_bits(),
            built.expected_insertion_depth().to_bits()
        );
        Ok(())
    }

    #[test]
    fn ascending_chain_builds_on_a_small_stack() {
        // b = 2 over ascending keys is a chain 4,999 levels deep: a build
        // or a census that recursed once per level would overflow
        // 256 KiB.
        let keys: Vec<u64> = (0..5000).collect();
        let (built, census) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn({
                let keys = keys.clone();
                move || {
                    (
                        MarySearchTree::build(2, keys.iter().copied()).unwrap(),
                        MarySearchTree::census_of(2, keys).unwrap(),
                    )
                }
            })
            .unwrap()
            .join()
            .expect("the build and the census run in constant stack");
        assert_eq!(built.height(), 4999);
        // Membership is probed at both ends and the middle: each probe
        // walks the chain.
        same_tree(&built, &insert_loop(2, &keys), &[0, 2500, 4999]).unwrap();
        same_census(&census, &built).unwrap();
    }

    #[test]
    fn census_of_rejects_what_build_rejects() {
        for branch in [0, 1] {
            assert_eq!(
                MarySearchTree::census_of(branch, vec![1, 2, 3]).unwrap_err(),
                MarySearchTree::build(branch, [1, 2, 3]).unwrap_err()
            );
        }
    }

    proptest! {
        #[test]
        fn build_equals_the_insert_loop(
            narrow in popan_proptest::collection::vec(0u64..16, 0..300),
            wide in popan_proptest::collection::vec(any::<u64>(), 0..300),
            edge in popan_proptest::collection::vec(0u64..32, 18),
            branch in 2usize..=9,
        ) {
            let mut ascending = wide.clone();
            ascending.sort_unstable();
            for keys in [narrow, wide, ascending] {
                let built = MarySearchTree::build(branch, keys.iter().copied()).unwrap();
                same_tree(&built, &insert_loop(branch, &keys), &keys)?;
                same_census(&MarySearchTree::census_of(branch, keys.clone()).unwrap(), &built)?;
            }
            // A root that just fits, just splits, or splits into runs
            // that may just fit: b − 1, b, b + 1 and 2b keys.
            for b in [2, 3, 9] {
                for n in [b - 1, b, b + 1, 2 * b] {
                    let keys = &edge[..n];
                    let built = MarySearchTree::build(b, keys.iter().copied()).unwrap();
                    same_tree(&built, &insert_loop(b, keys), keys)?;
                    same_census(&MarySearchTree::census_of(b, keys.to_vec()).unwrap(), &built)?;
                }
            }
        }

        #[test]
        fn inserts_after_a_build_equal_the_insert_loop(
            keys in popan_proptest::collection::vec(0u64..500, 0..300),
            cut in 0usize..=300,
            branch in 2usize..=9,
        ) {
            let cut = cut.min(keys.len());
            let mut t = MarySearchTree::build(branch, keys[..cut].iter().copied()).unwrap();
            for &k in &keys[cut..] {
                t.insert(k);
            }
            same_tree(&t, &insert_loop(branch, &keys), &keys)?;
        }

        #[test]
        fn invariants_hold_under_arbitrary_insertions(
            keys in popan_proptest::collection::vec(0u64..1000, 1..200),
            branch in 2usize..9,
        ) {
            let t = MarySearchTree::build(branch, keys.iter().copied()).unwrap();
            t.check_invariants();
            prop_assert_eq!(t.len(), keys.len());
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            prop_assert_eq!(t.keys(), sorted);
            for &k in &keys {
                prop_assert!(t.contains(k));
            }
        }
    }
}
