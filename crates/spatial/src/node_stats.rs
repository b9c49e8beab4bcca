//! Occupancy statistics over a tree's leaf nodes.
//!
//! The paper's state vector `d = (p_0, p_1, …, p_m)` is "the proportion of
//! the nodes having occupancy i" over the *leaf* nodes of a quadtree.
//! [`OccupancyProfile`] computes that vector (and the derived average
//! occupancy) from a tree; [`DepthOccupancyTable`] breaks the counts down
//! by node depth for the aging analysis (Table 3).
//!
//! Both containers support *incremental* maintenance
//! ([`OccupancyProfile::record_leaf`] / [`OccupancyProfile::unrecord_leaf`]
//! and the depth-table analogues), bundled by [`OccupancyCensus`]: a tree
//! that reports every leaf birth, death and occupancy change keeps a census
//! that is structurally identical to one rebuilt from a full traversal —
//! the paper's own framing, where the population state *is* the count
//! vector and each insertion only moves a node from class `i` to `i + 1`.

/// One leaf node observation: its depth and how many items it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafRecord {
    /// Depth of the leaf (root = 0).
    pub depth: u32,
    /// Number of stored items.
    pub occupancy: usize,
}

/// Counts of leaf nodes by occupancy.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyProfile {
    /// `counts[i]` = number of leaves holding exactly `i` items.
    counts: Vec<u64>,
}

impl OccupancyProfile {
    /// Builds a profile from leaf records.
    pub fn from_leaves<'a>(leaves: impl IntoIterator<Item = &'a LeafRecord>) -> Self {
        let mut counts: Vec<u64> = Vec::new();
        for leaf in leaves {
            if leaf.occupancy >= counts.len() {
                counts.resize(leaf.occupancy + 1, 0);
            }
            counts[leaf.occupancy] += 1;
        }
        OccupancyProfile { counts }
    }

    /// Builds a profile directly from occupancy counts (`counts[i]` leaves
    /// of occupancy `i`).
    pub fn from_counts(counts: Vec<u64>) -> Self {
        OccupancyProfile { counts }
    }

    /// Number of leaves with occupancy `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Total number of leaves.
    pub fn total_leaves(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total number of stored items.
    pub fn total_items(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| i as u64 * c)
            .sum()
    }

    /// Highest observed occupancy.
    pub fn max_occupancy(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Average items per leaf — the paper's *average node occupancy*.
    /// Returns 0 for an empty profile.
    pub fn average_occupancy(&self) -> f64 {
        let leaves = self.total_leaves();
        if leaves == 0 {
            0.0
        } else {
            self.total_items() as f64 / leaves as f64
        }
    }

    /// The proportion vector `(p_0, …, p_m)` of length `capacity + 1`.
    ///
    /// Occupancies above `capacity` (possible only for max-depth-truncated
    /// leaves) are folded into the last component, mirroring how the
    /// paper's implementation reported its deepest level. Returns all
    /// zeros for an empty profile.
    pub fn proportions(&self, capacity: usize) -> Vec<f64> {
        let total = self.total_leaves();
        let mut out = vec![0.0; capacity + 1];
        if total == 0 {
            return out;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            out[i.min(capacity)] += c as f64 / total as f64;
        }
        out
    }

    /// Storage utilization: average occupancy divided by capacity.
    pub fn utilization(&self, capacity: usize) -> f64 {
        assert!(capacity > 0, "capacity must be positive");
        self.average_occupancy() / capacity as f64
    }

    /// Incrementally records one leaf of the given occupancy — O(1)
    /// amortized.
    pub fn record_leaf(&mut self, occupancy: usize) {
        self.record_leaves(occupancy, 1);
    }

    /// Records `count` leaves of one occupancy class at once. Lands on
    /// exactly the state `count` repeated
    /// [`OccupancyProfile::record_leaf`] calls reach.
    pub fn record_leaves(&mut self, occupancy: usize, count: u64) {
        if occupancy >= self.counts.len() {
            self.counts.resize(occupancy + 1, 0);
        }
        self.counts[occupancy] += count;
    }

    /// Incrementally removes one previously recorded leaf. Trailing zero
    /// classes are trimmed so the profile stays structurally identical to
    /// one built by [`OccupancyProfile::from_leaves`] over the surviving
    /// leaves (`==`, `max_occupancy` and friends agree exactly).
    pub fn unrecord_leaf(&mut self, occupancy: usize) {
        assert!(
            self.counts.get(occupancy).copied().unwrap_or(0) > 0,
            "unrecord of an absent occupancy class {occupancy}"
        );
        self.counts[occupancy] -= 1;
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }

    /// Moves one leaf from occupancy class `old` to `new` in a single
    /// pass — the fused unrecord+record used on the tree mutation hot
    /// path. Structurally identical to `unrecord_leaf(old)` followed by
    /// `record_leaf(new)`: the trimmed representation is a pure function
    /// of the recorded multiset, so the fused update lands on the same
    /// state.
    pub fn shift_leaf(&mut self, old: usize, new: usize) {
        assert!(
            self.counts.get(old).copied().unwrap_or(0) > 0,
            "shift out of an absent occupancy class {old}"
        );
        if new >= self.counts.len() {
            self.counts.resize(new + 1, 0);
        }
        self.counts[old] -= 1;
        self.counts[new] += 1;
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }
}

/// Leaf counts broken down by depth — the raw data of the paper's
/// Table 3 ("Occupancy by node size").
///
/// Tree depths are small dense integers (root = 0, bounded by the
/// tree's `max_depth`), so the rows live in a `Vec` indexed by depth —
/// every maintenance call is an array index, not a map lookup. The
/// canonical form keeps each row trailing-zero-trimmed and drops
/// trailing empty rows (interior depths with no leaves stay as empty
/// rows), so a maintained table is `==` to a
/// [`DepthOccupancyTable::from_leaves`] rebuild.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DepthOccupancyTable {
    /// `rows[depth]` = occupancy counts at that depth.
    rows: Vec<Vec<u64>>,
}

impl DepthOccupancyTable {
    /// Builds the table from leaf records.
    pub fn from_leaves<'a>(leaves: impl IntoIterator<Item = &'a LeafRecord>) -> Self {
        let mut table = DepthOccupancyTable::default();
        for leaf in leaves {
            table.record(leaf.depth, leaf.occupancy);
        }
        table
    }

    /// Depths present (holding at least one leaf), ascending.
    pub fn depths(&self) -> Vec<u32> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_empty())
            .map(|(depth, _)| depth as u32)
            .collect()
    }

    /// Count of depth-`d` leaves with occupancy `i`.
    pub fn count(&self, depth: u32, occupancy: usize) -> u64 {
        self.rows
            .get(depth as usize)
            .and_then(|r| r.get(occupancy))
            .copied()
            .unwrap_or(0)
    }

    /// Total leaves at a depth.
    pub fn leaves_at(&self, depth: u32) -> u64 {
        self.rows.get(depth as usize).map_or(0, |r| r.iter().sum())
    }

    /// Total stored items at a depth (`Σ i · count(depth, i)`).
    pub fn items_at(&self, depth: u32) -> u64 {
        self.rows.get(depth as usize).map_or(0, |r| {
            r.iter().enumerate().map(|(i, &c)| i as u64 * c).sum()
        })
    }

    /// Deepest depth holding at least one leaf (`None` when empty).
    pub fn max_depth(&self) -> Option<u32> {
        self.rows
            .iter()
            .enumerate()
            .rev()
            .find(|(_, row)| !row.is_empty())
            .map(|(depth, _)| depth as u32)
    }

    /// Total path length of the *stored items*: `Σ_d d · items_at(d)` —
    /// the split-tree quantity `Υ_n` of Broutin–Holmgren (for
    /// structures that also store items at internal nodes, e.g. the
    /// m-ary search tree's pivots, the structure adds its internal
    /// contribution on top of this leaf term).
    pub fn total_item_path_length(&self) -> u64 {
        self.rows
            .iter()
            .enumerate()
            .map(|(d, _)| d as u64 * self.items_at(d as u32))
            .sum()
    }

    /// Average depth of a stored item (`None` when no items) — the
    /// per-item normalization `Υ_n / n` of the path length, the
    /// quantity Holmgren's `c·ln n` law bounds.
    pub fn average_item_depth(&self) -> Option<f64> {
        let items: u64 = (0..self.rows.len()).map(|d| self.items_at(d as u32)).sum();
        if items == 0 {
            return None;
        }
        Some(self.total_item_path_length() as f64 / items as f64)
    }

    /// Average occupancy of the leaves at a depth (`None` if no leaves).
    ///
    /// The paper's Table 3 shows this decreasing with depth (i.e. with
    /// decreasing block size): the *aging* effect.
    pub fn average_occupancy_at(&self, depth: u32) -> Option<f64> {
        let row = self.rows.get(depth as usize)?;
        let leaves: u64 = row.iter().sum();
        if leaves == 0 {
            return None;
        }
        let items: u64 = row.iter().enumerate().map(|(i, &c)| i as u64 * c).sum();
        Some(items as f64 / leaves as f64)
    }

    /// Incrementally records one leaf at `depth` with the given occupancy.
    pub fn record(&mut self, depth: u32, occupancy: usize) {
        self.record_many(depth, occupancy, 1);
    }

    /// Records `count` leaves of one `(depth, occupancy)` class at
    /// once. Lands on exactly the state `count` repeated
    /// [`DepthOccupancyTable::record`] calls reach.
    pub fn record_many(&mut self, depth: u32, occupancy: usize, count: u64) {
        let d = depth as usize;
        if d >= self.rows.len() {
            self.rows.resize_with(d + 1, Vec::new);
        }
        let row = &mut self.rows[d];
        if occupancy >= row.len() {
            row.resize(occupancy + 1, 0);
        }
        row[occupancy] += count;
    }

    /// Incrementally removes one previously recorded leaf. Rows are trimmed
    /// (trailing zeros dropped, trailing empty depths removed) so the table
    /// stays structurally identical to one built by
    /// [`DepthOccupancyTable::from_leaves`] over the surviving leaves.
    pub fn unrecord(&mut self, depth: u32, occupancy: usize) {
        let row = self
            .rows
            .get_mut(depth as usize)
            .unwrap_or_else(|| panic!("unrecord at absent depth {depth}"));
        assert!(
            row.get(occupancy).copied().unwrap_or(0) > 0,
            "unrecord of an absent occupancy class {occupancy} at depth {depth}"
        );
        row[occupancy] -= 1;
        while row.last() == Some(&0) {
            row.pop();
        }
        while self.rows.last().is_some_and(Vec::is_empty) {
            self.rows.pop();
        }
    }

    /// Moves one depth-`depth` leaf from occupancy class `old` to `new`
    /// in a single row access — the fused unrecord+record used on the
    /// tree mutation hot path. Lands on the same canonical state as
    /// `unrecord(depth, old)` followed by `record(depth, new)`; the
    /// depth row cannot empty out because the leaf stays at its depth.
    pub fn shift(&mut self, depth: u32, old: usize, new: usize) {
        let row = self
            .rows
            .get_mut(depth as usize)
            .unwrap_or_else(|| panic!("shift at absent depth {depth}"));
        assert!(
            row.get(old).copied().unwrap_or(0) > 0,
            "shift out of an absent occupancy class {old} at depth {depth}"
        );
        if new >= row.len() {
            row.resize(new + 1, 0);
        }
        row[old] -= 1;
        row[new] += 1;
        while row.last() == Some(&0) {
            row.pop();
        }
    }

    /// Collapses the table into an [`OccupancyProfile`].
    pub fn profile(&self) -> OccupancyProfile {
        let max = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut counts = vec![0u64; max];
        for row in &self.rows {
            for (i, &c) in row.iter().enumerate() {
                counts[i] += c;
            }
        }
        OccupancyProfile::from_counts(counts)
    }
}

/// Incrementally maintained occupancy census: the profile, the per-depth
/// table and the leaf count, kept in lockstep with a tree's mutations.
///
/// A tree calls [`OccupancyCensus::leaf_added`] when a leaf comes into
/// existence, [`OccupancyCensus::leaf_removed`] when one disappears (split
/// or collapse), and [`OccupancyCensus::occupancy_changed`] when a leaf's
/// item count changes in place. Each call is O(1) amortized, so a whole
/// insert or remove costs O(depth) census work — and the reads
/// (`profile()`, `depth_table()`, `leaf_count()`) are free: they just hand
/// back references to the maintained state.
///
/// Invariant (checked by every tree's `check_invariants` and the arena
/// equivalence proptests): the maintained state is `==` to
/// [`OccupancyCensus::from_leaves`] over the tree's current
/// `leaf_records()`.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyCensus {
    profile: OccupancyProfile,
    table: DepthOccupancyTable,
    leaves: usize,
}

impl Default for OccupancyCensus {
    fn default() -> Self {
        Self::new()
    }
}

impl OccupancyCensus {
    /// An empty census (no leaves at all).
    pub fn new() -> Self {
        OccupancyCensus {
            profile: OccupancyProfile::from_counts(Vec::new()),
            table: DepthOccupancyTable::default(),
            leaves: 0,
        }
    }

    /// Builds a census from a full traversal — the oracle the incremental
    /// state is checked against.
    pub fn from_leaves<'a>(leaves: impl IntoIterator<Item = &'a LeafRecord>) -> Self {
        let records: Vec<&LeafRecord> = leaves.into_iter().collect();
        OccupancyCensus {
            profile: OccupancyProfile::from_leaves(records.iter().copied()),
            table: DepthOccupancyTable::from_leaves(records.iter().copied()),
            leaves: records.len(),
        }
    }

    /// A leaf with the given depth and occupancy came into existence.
    pub fn leaf_added(&mut self, depth: u32, occupancy: usize) {
        self.profile.record_leaf(occupancy);
        self.table.record(depth, occupancy);
        self.leaves += 1;
    }

    /// A leaf with the given depth and occupancy ceased to exist.
    pub fn leaf_removed(&mut self, depth: u32, occupancy: usize) {
        self.profile.unrecord_leaf(occupancy);
        self.table.unrecord(depth, occupancy);
        self.leaves -= 1;
    }

    /// An existing leaf's occupancy changed from `old` to `new` in place.
    pub fn occupancy_changed(&mut self, depth: u32, old: usize, new: usize) {
        self.profile.shift_leaf(old, new);
        self.table.shift(depth, old, new);
    }

    /// The maintained occupancy profile — a free read.
    pub fn profile(&self) -> &OccupancyProfile {
        &self.profile
    }

    /// The maintained per-depth table — a free read.
    pub fn depth_table(&self) -> &DepthOccupancyTable {
        &self.table
    }

    /// The maintained leaf count — a free read.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }
}

/// A tree whose leaves can be enumerated for occupancy analysis.
///
/// Implemented by every bucketing structure in this crate; the experiment
/// harness is generic over it.
pub trait OccupancyInstrumented {
    /// Node capacity `m` of the splitting rule.
    fn capacity(&self) -> usize;

    /// One record per leaf node.
    fn leaf_records(&self) -> Vec<LeafRecord>;

    /// Occupancy profile over all leaves.
    fn occupancy_profile(&self) -> OccupancyProfile {
        OccupancyProfile::from_leaves(&self.leaf_records())
    }

    /// Per-depth occupancy table.
    fn depth_table(&self) -> DepthOccupancyTable {
        DepthOccupancyTable::from_leaves(&self.leaf_records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(records: &[(u32, usize)]) -> Vec<LeafRecord> {
        records
            .iter()
            .map(|&(depth, occupancy)| LeafRecord { depth, occupancy })
            .collect()
    }

    #[test]
    fn profile_counts_and_totals() {
        let ls = leaves(&[(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]);
        let p = OccupancyProfile::from_leaves(&ls);
        assert_eq!(p.count(0), 1);
        assert_eq!(p.count(1), 2);
        assert_eq!(p.count(2), 2);
        assert_eq!(p.count(3), 0);
        assert_eq!(p.total_leaves(), 5);
        assert_eq!(p.total_items(), 6);
        assert_eq!(p.max_occupancy(), 2);
        assert!((p.average_occupancy() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let p = OccupancyProfile::from_leaves(&[]);
        assert_eq!(p.total_leaves(), 0);
        assert_eq!(p.average_occupancy(), 0.0);
        assert_eq!(p.proportions(3), vec![0.0; 4]);
    }

    #[test]
    fn proportions_sum_to_one_and_fold_overflow() {
        let ls = leaves(&[(9, 0), (9, 1), (9, 3)]); // occupancy 3 > capacity 1
        let p = OccupancyProfile::from_leaves(&ls);
        let props = p.proportions(1);
        assert_eq!(props.len(), 2);
        assert!((props.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((props[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((props[1] - 2.0 / 3.0).abs() < 1e-12); // 1 and the folded 3
    }

    #[test]
    fn utilization_is_relative_to_capacity() {
        let p = OccupancyProfile::from_counts(vec![0, 0, 4]); // all leaves at occupancy 2
        assert!((p.utilization(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn utilization_rejects_zero_capacity() {
        OccupancyProfile::from_counts(vec![1]).utilization(0);
    }

    #[test]
    fn depth_table_reproduces_table3_shape() {
        // Two depths: the shallow one better filled (aging).
        let ls = leaves(&[(4, 1), (4, 1), (4, 0), (5, 0), (5, 0), (5, 1)]);
        let t = DepthOccupancyTable::from_leaves(&ls);
        assert_eq!(t.depths(), vec![4, 5]);
        assert_eq!(t.count(4, 1), 2);
        assert_eq!(t.count(4, 0), 1);
        assert_eq!(t.leaves_at(5), 3);
        assert!(t.average_occupancy_at(4).unwrap() > t.average_occupancy_at(5).unwrap());
        assert_eq!(t.average_occupancy_at(9), None);
        assert_eq!(t.count(9, 0), 0);
    }

    #[test]
    fn path_length_accessors_sum_depth_weighted_items() {
        let ls = leaves(&[(1, 2), (2, 0), (2, 3), (3, 1)]);
        let t = DepthOccupancyTable::from_leaves(&ls);
        assert_eq!(t.items_at(1), 2);
        assert_eq!(t.items_at(2), 3);
        assert_eq!(t.items_at(3), 1);
        assert_eq!(t.items_at(9), 0);
        assert_eq!(t.max_depth(), Some(3));
        // Υ = 1·2 + 2·3 + 3·1 = 11 over 6 items.
        assert_eq!(t.total_item_path_length(), 11);
        assert!((t.average_item_depth().unwrap() - 11.0 / 6.0).abs() < 1e-12);
        let empty = DepthOccupancyTable::default();
        assert_eq!(empty.max_depth(), None);
        assert_eq!(empty.total_item_path_length(), 0);
        assert_eq!(empty.average_item_depth(), None);
        // Leaves with zero items contribute no path length.
        let zeros = DepthOccupancyTable::from_leaves(&leaves(&[(4, 0), (5, 0)]));
        assert_eq!(zeros.total_item_path_length(), 0);
        assert_eq!(zeros.average_item_depth(), None);
        assert_eq!(zeros.max_depth(), Some(5));
    }

    #[test]
    fn depth_table_collapses_to_profile() {
        let ls = leaves(&[(4, 1), (5, 1), (5, 2)]);
        let t = DepthOccupancyTable::from_leaves(&ls);
        let p = t.profile();
        assert_eq!(p.count(1), 2);
        assert_eq!(p.count(2), 1);
        assert_eq!(p.total_leaves(), 3);
        assert_eq!(p, OccupancyProfile::from_leaves(&ls));
    }

    #[test]
    fn incremental_profile_matches_from_leaves_after_unrecord() {
        let mut p = OccupancyProfile::from_counts(Vec::new());
        for occ in [0, 3, 3, 1, 5] {
            p.record_leaf(occ);
        }
        p.unrecord_leaf(5);
        p.unrecord_leaf(3);
        // Survivors: occupancies 0, 3, 1 — trailing class 4/5 must be gone.
        let survivors = leaves(&[(0, 0), (0, 3), (0, 1)]);
        assert_eq!(p, OccupancyProfile::from_leaves(&survivors));
        assert_eq!(p.max_occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "absent occupancy class")]
    fn unrecord_of_absent_class_panics() {
        let mut p = OccupancyProfile::from_counts(vec![1]);
        p.unrecord_leaf(2);
    }

    #[test]
    fn fused_shift_lands_on_the_unrecord_record_state() {
        // Profile: shrinking shift out of the top class must trim.
        let mut fused = OccupancyProfile::from_counts(Vec::new());
        let mut stepwise = fused.clone();
        for occ in [0, 2, 5] {
            fused.record_leaf(occ);
            stepwise.record_leaf(occ);
        }
        fused.shift_leaf(5, 4);
        stepwise.unrecord_leaf(5);
        stepwise.record_leaf(4);
        assert_eq!(fused, stepwise);
        assert_eq!(fused.max_occupancy(), 4);
        // Growing shift past the current top class must extend.
        fused.shift_leaf(4, 9);
        stepwise.unrecord_leaf(4);
        stepwise.record_leaf(9);
        assert_eq!(fused, stepwise);

        // Table: same contract per depth row.
        let mut fused = DepthOccupancyTable::default();
        let mut stepwise = DepthOccupancyTable::default();
        for &(d, o) in &[(3, 1), (3, 4), (5, 0)] {
            fused.record(d, o);
            stepwise.record(d, o);
        }
        fused.shift(3, 4, 3);
        stepwise.unrecord(3, 4);
        stepwise.record(3, 3);
        assert_eq!(fused, stepwise);
        fused.shift(5, 0, 1);
        stepwise.unrecord(5, 0);
        stepwise.record(5, 1);
        assert_eq!(fused, stepwise);
    }

    #[test]
    #[should_panic(expected = "shift out of an absent occupancy class")]
    fn shift_out_of_absent_class_panics() {
        let mut t = DepthOccupancyTable::default();
        t.record(2, 1);
        t.shift(2, 3, 4);
    }

    #[test]
    fn incremental_table_trims_rows_and_depths() {
        let mut t = DepthOccupancyTable::default();
        t.record(2, 4);
        t.record(2, 1);
        t.record(7, 0);
        t.unrecord(2, 4);
        t.unrecord(7, 0);
        let survivors = leaves(&[(2, 1)]);
        assert_eq!(t, DepthOccupancyTable::from_leaves(&survivors));
        assert_eq!(t.depths(), vec![2]);
    }

    #[test]
    fn census_tracks_adds_removes_and_changes() {
        let mut census = OccupancyCensus::new();
        assert_eq!(census, OccupancyCensus::from_leaves(&[]));
        census.leaf_added(0, 0); // empty tree: one empty root leaf
        census.occupancy_changed(0, 0, 1);
        census.occupancy_changed(0, 1, 2);
        // Split: the root leaf dies, two children appear.
        census.leaf_removed(0, 2);
        census.leaf_added(1, 1);
        census.leaf_added(1, 1);
        let expected = leaves(&[(1, 1), (1, 1)]);
        assert_eq!(census, OccupancyCensus::from_leaves(&expected));
        assert_eq!(census.leaf_count(), 2);
        assert_eq!(census.profile().total_items(), 2);
        assert_eq!(census.depth_table().leaves_at(1), 2);
    }

    #[test]
    fn trait_default_methods_agree_with_manual_construction() {
        struct Fake;
        impl OccupancyInstrumented for Fake {
            fn capacity(&self) -> usize {
                2
            }
            fn leaf_records(&self) -> Vec<LeafRecord> {
                leaves(&[(1, 0), (1, 2), (2, 1)])
            }
        }
        let f = Fake;
        assert_eq!(f.occupancy_profile().total_leaves(), 3);
        assert_eq!(f.depth_table().leaves_at(1), 2);
        assert_eq!(f.capacity(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #[test]
        fn proportions_always_sum_to_one_when_nonempty(
            occupancies in popan_proptest::collection::vec((0u32..12, 0usize..10), 1..60),
            capacity in 1usize..9,
        ) {
            let ls: Vec<LeafRecord> = occupancies
                .iter()
                .map(|&(d, o)| LeafRecord { depth: d, occupancy: o })
                .collect();
            let p = OccupancyProfile::from_leaves(&ls);
            let props = p.proportions(capacity);
            prop_assert!((props.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(props.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }

        #[test]
        fn incremental_census_is_structurally_equal_to_rebuild(
            ops in popan_proptest::collection::vec((0u32..6, 0usize..8), 1..80),
        ) {
            // Treat each (depth, occupancy) as a leaf birth; then kill them
            // off in an interleaved order and check the census against a
            // from_leaves rebuild of the survivors at every step.
            let mut census = OccupancyCensus::new();
            let mut live: Vec<LeafRecord> = Vec::new();
            for (i, &(d, o)) in ops.iter().enumerate() {
                census.leaf_added(d, o);
                live.push(LeafRecord { depth: d, occupancy: o });
                if i % 3 == 2 {
                    let victim = live.remove((i * 7919) % live.len());
                    census.leaf_removed(victim.depth, victim.occupancy);
                }
                prop_assert_eq!(&census, &OccupancyCensus::from_leaves(&live));
                prop_assert_eq!(census.leaf_count(), live.len());
            }
        }

        #[test]
        fn depth_table_conserves_counts(
            occupancies in popan_proptest::collection::vec((0u32..8, 0usize..6), 0..60),
        ) {
            let ls: Vec<LeafRecord> = occupancies
                .iter()
                .map(|&(d, o)| LeafRecord { depth: d, occupancy: o })
                .collect();
            let t = DepthOccupancyTable::from_leaves(&ls);
            let total: u64 = t.depths().iter().map(|&d| t.leaves_at(d)).sum();
            prop_assert_eq!(total, ls.len() as u64);
            prop_assert_eq!(t.profile().total_leaves(), ls.len() as u64);
        }
    }
}
