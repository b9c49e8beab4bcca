//! Extendible hashing (Fagin, Nievergelt, Pippenger & Strong, TODS 1979).
//!
//! The population-analysis paper positions itself against the *statistical*
//! analysis tradition, "most notably Fagin et al. in their analysis of
//! extendible hashing which turns out also to apply to certain types of
//! quadtrees". This crate implements that baseline structure so the
//! reproduction can demonstrate, on the real thing:
//!
//! * storage utilization oscillating around `ln 2 ≈ 0.693`, and
//! * *phasing* — the oscillation is periodic in `log₂ N` and does not damp
//!   for uniform hashes, the same phenomenon the paper's §IV shows for PR
//!   quadtrees with period `log₄ N`.
//!
//! Two spatial members of the same directory-based family round out the
//! crate: [`excell::ExcellGrid`] (Tamminen's EXCELL) and
//! [`gridfile::GridFile`] (Nievergelt et al.'s grid file).
//!
//! The implementation is the textbook one: a directory of `2^g` slots
//! (indexed by the low `g` bits of the hash) pointing into an arena of
//! buckets, each with a local depth `l ≤ g`; an overflowing bucket with
//! `l < g` splits in place, one with `l = g` first doubles the directory.
//! Deletion comes in both flavors Fagin et al. discuss: plain removal
//! ([`ExtendibleHashTable::remove`]) and buddy-coalescing removal with
//! directory shrinking ([`ExtendibleHashTable::remove_and_merge`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod excell;
pub mod fagin;
pub mod gridfile;

use std::fmt;

/// Hard cap on the directory's global depth. With a 64-bit mixed hash,
/// distinct keys virtually never collide on 44 bits; the cap turns a
/// would-be infinite split loop (all keys hashing alike) into a bucket
/// that simply exceeds its capacity.
pub const MAX_GLOBAL_DEPTH: u32 = 44;

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HashError {
    /// Invalid construction parameter.
    InvalidParameter(&'static str),
}

impl fmt::Display for HashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HashError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for HashError {}

#[derive(Debug, Clone)]
struct Bucket {
    local_depth: u32,
    /// Hashed keys (the table stores hashes; callers keep the key→value
    /// association — the occupancy experiments only need membership).
    keys: Vec<u64>,
}

/// An extendible hash table over `u64` keys with fixed-capacity buckets.
///
/// Keys are hashed internally with a SplitMix64 finalizer, so adversarially
/// structured keys (sequential ids) still spread uniformly — the setting
/// Fagin et al.'s analysis assumes.
#[derive(Debug, Clone)]
pub struct ExtendibleHashTable {
    /// `directory[i]` = index into `buckets` for hash suffix `i`.
    directory: Vec<usize>,
    buckets: Vec<Bucket>,
    bucket_capacity: usize,
    global_depth: u32,
    len: usize,
    hash_keys: bool,
    /// Incrementally maintained bucket census: `occ_counts[i]` buckets
    /// hold `i` keys (over-capacity buckets clamp into the top class).
    /// Updated at every insert/split/remove/merge, so
    /// [`Self::occupancy_counts`] is a read, not a scan.
    occ_counts: Vec<u64>,
}

impl ExtendibleHashTable {
    /// Creates an empty table with the given bucket capacity.
    pub fn new(bucket_capacity: usize) -> Result<Self, HashError> {
        Self::with_hashing(bucket_capacity, true)
    }

    /// Creates a table that optionally skips internal hashing (test hook:
    /// lets tests place keys in chosen buckets deterministically).
    pub fn with_hashing(bucket_capacity: usize, hash_keys: bool) -> Result<Self, HashError> {
        if bucket_capacity == 0 {
            return Err(HashError::InvalidParameter(
                "bucket capacity must be at least 1",
            ));
        }
        let mut occ_counts = vec![0u64; bucket_capacity + 1];
        occ_counts[0] = 1; // the one empty bucket
        Ok(ExtendibleHashTable {
            directory: vec![0],
            buckets: vec![Bucket {
                local_depth: 0,
                keys: Vec::new(),
            }],
            bucket_capacity,
            global_depth: 0,
            len: 0,
            hash_keys,
            occ_counts,
        })
    }

    /// Occupancy class of a bucket holding `n` keys (clamped at capacity).
    fn occ_class(&self, n: usize) -> usize {
        n.min(self.bucket_capacity)
    }

    /// Census update: a bucket moved from `old` to `new` keys.
    fn occ_move(&mut self, old: usize, new: usize) {
        let (from, to) = (self.occ_class(old), self.occ_class(new));
        if from != to {
            debug_assert!(self.occ_counts[from] > 0, "census class {from} underflow");
            self.occ_counts[from] -= 1;
            self.occ_counts[to] += 1;
        }
    }

    fn hash(&self, key: u64) -> u64 {
        if self.hash_keys {
            // SplitMix64 finalizer, identical to popan-workload's mix64 —
            // duplicated rather than imported to keep this crate
            // dependency-free (value equality is pinned by a test there).
            let mut x = key;
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        } else {
            key
        }
    }

    fn dir_index(&self, h: u64) -> usize {
        (h & ((1u64 << self.global_depth) - 1)) as usize
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bucket capacity `b`.
    pub fn bucket_capacity(&self) -> usize {
        self.bucket_capacity
    }

    /// Current global depth `g` (directory size is `2^g`).
    pub fn global_depth(&self) -> u32 {
        self.global_depth
    }

    /// Directory size (`2^g`).
    pub fn directory_size(&self) -> usize {
        self.directory.len()
    }

    /// Number of distinct buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// `true` when the key is present.
    pub fn contains(&self, key: u64) -> bool {
        let h = self.hash(key);
        let b = &self.buckets[self.directory[self.dir_index(h)]];
        b.keys.contains(&h)
    }

    /// Inserts a key. Returns `false` (without change) when already
    /// present — set semantics, as in Fagin et al.
    pub fn insert(&mut self, key: u64) -> bool {
        let h = self.hash(key);
        if self.buckets[self.directory[self.dir_index(h)]]
            .keys
            .contains(&h)
        {
            return false;
        }
        loop {
            let bi = self.directory[self.dir_index(h)];
            let occ = self.buckets[bi].keys.len();
            if occ < self.bucket_capacity {
                self.buckets[bi].keys.push(h);
                self.len += 1;
                self.occ_move(occ, occ + 1);
                return true;
            }
            // Overflow: split (doubling the directory first if needed).
            if self.buckets[bi].local_depth == self.global_depth {
                if self.global_depth >= MAX_GLOBAL_DEPTH {
                    // Pathological collision pile-up: store over capacity.
                    self.buckets[bi].keys.push(h);
                    self.len += 1;
                    self.occ_move(occ, occ + 1);
                    return true;
                }
                self.double_directory();
            }
            self.split_bucket(self.dir_index(h));
        }
    }

    /// Removes a key. Returns `true` when it was present. Buckets are not
    /// merged and the directory never shrinks — the simple deletion of
    /// Fagin et al.; see [`Self::remove_and_merge`] for the coalescing
    /// variant.
    pub fn remove(&mut self, key: u64) -> bool {
        let h = self.hash(key);
        let bi = self.directory[self.dir_index(h)];
        let bucket = &mut self.buckets[bi];
        match bucket.keys.iter().position(|&k| k == h) {
            Some(pos) => {
                let occ = bucket.keys.len();
                bucket.keys.swap_remove(pos);
                self.len -= 1;
                self.occ_move(occ, occ - 1);
                true
            }
            None => false,
        }
    }

    /// Removes a key and coalesces: if the affected bucket and its
    /// *buddy* (the bucket whose hash-suffix class differs only in the
    /// top local-depth bit) together fit in one bucket, they merge; the
    /// directory halves whenever no bucket uses its full depth. Returns
    /// `true` when the key was present.
    ///
    /// Merging keeps the table's shape identical to one built by pure
    /// insertion of the surviving keys *in the best case*, and never
    /// worse than one extra split's worth of buckets — the invariant
    /// checks remain exact either way.
    pub fn remove_and_merge(&mut self, key: u64) -> bool {
        if !self.remove(key) {
            return false;
        }
        let h = self.hash(key);
        self.merge_chain(h);
        self.shrink_directory();
        true
    }

    /// Cascades buddy merges upward from the bucket serving hash `h`.
    fn merge_chain(&mut self, h: u64) {
        loop {
            let slot = self.dir_index(h);
            let bi = self.directory[slot];
            let l = self.buckets[bi].local_depth;
            if l == 0 {
                return; // single bucket, nothing to merge with
            }
            let buddy_slot = slot ^ (1usize << (l - 1));
            let buddy = self.directory[buddy_slot];
            if buddy == bi
                || self.buckets[buddy].local_depth != l
                || self.buckets[bi].keys.len() + self.buckets[buddy].keys.len()
                    > self.bucket_capacity
            {
                return;
            }
            // Merge the buddy into `bi` and drop it from the arena. Two
            // census classes collapse into one (the emptied buddy bucket
            // is dropped, not recounted).
            let (a, b) = (self.buckets[bi].keys.len(), self.buckets[buddy].keys.len());
            let (ca, cb, cm) = (self.occ_class(a), self.occ_class(b), self.occ_class(a + b));
            self.occ_counts[ca] -= 1;
            self.occ_counts[cb] -= 1;
            self.occ_counts[cm] += 1;
            let moved = std::mem::take(&mut self.buckets[buddy].keys);
            self.buckets[bi].keys.extend(moved);
            self.buckets[bi].local_depth = l - 1;
            for target in &mut self.directory {
                if *target == buddy {
                    *target = bi;
                }
            }
            self.drop_bucket(buddy);
            // Loop: the merged bucket may now be mergeable one level up.
        }
    }

    /// Removes bucket `dead` from the arena (swap-remove + directory
    /// index fix-up). The bucket must already be unreferenced.
    fn drop_bucket(&mut self, dead: usize) {
        let last = self.buckets.len() - 1;
        self.buckets.swap_remove(dead);
        if dead != last {
            for target in &mut self.directory {
                if *target == last {
                    *target = dead;
                }
            }
        }
    }

    /// Halves the directory while no bucket needs its full depth.
    fn shrink_directory(&mut self) {
        while self.global_depth > 0
            && self
                .buckets
                .iter()
                .all(|b| b.local_depth < self.global_depth)
        {
            let half = self.directory.len() / 2;
            debug_assert!(
                (0..half).all(|i| self.directory[i] == self.directory[i + half]),
                "directory halves must mirror before shrinking"
            );
            self.directory.truncate(half);
            self.global_depth -= 1;
        }
    }

    /// Doubles the directory: slot `i + 2^g` copies slot `i`, so every
    /// bucket keeps its residue class (one more bit of it is free).
    fn double_directory(&mut self) {
        self.directory.extend_from_within(..);
        self.global_depth += 1;
    }

    /// Splits the bucket serving directory slot `slot` (it must be full
    /// and have `local < global`): allocates a sibling with local depth
    /// +1 and redistributes keys on bit `local_depth`.
    ///
    /// A bucket of local depth `d` owns exactly the slots `≡ r (mod 2^d)`,
    /// where `r` is the low `d` bits of any of them. The slots that move to
    /// the sibling are those with bit `d` also set: the `2^(g−d−1)` slots
    /// `r | 2^d`, stepping by `2^(d+1)`. Only those are visited.
    fn split_bucket(&mut self, slot: usize) {
        let bi = self.directory[slot];
        let old_local = self.buckets[bi].local_depth;
        debug_assert!(old_local < self.global_depth, "split without headroom");
        let new_local = old_local + 1;
        let split_bit = 1usize << old_local;

        let keys = std::mem::take(&mut self.buckets[bi].keys);
        let n = keys.len();
        let (stay, go): (Vec<u64>, Vec<u64>) =
            keys.into_iter().partition(|&k| k & split_bit as u64 == 0);
        // One bucket of `n` keys becomes two with `stay`/`go`.
        let (cn, cs, cg) = (
            self.occ_class(n),
            self.occ_class(stay.len()),
            self.occ_class(go.len()),
        );
        self.occ_counts[cn] -= 1;
        self.occ_counts[cs] += 1;
        self.occ_counts[cg] += 1;
        self.buckets[bi].local_depth = new_local;
        self.buckets[bi].keys = stay;
        let new_bi = self.buckets.len();
        self.buckets.push(Bucket {
            local_depth: new_local,
            keys: go,
        });

        // Redirect the directory: the slots of the residue class with the
        // split bit set move to the sibling.
        let first = (slot & (split_bit - 1)) | split_bit;
        for target in self
            .directory
            .iter_mut()
            .skip(first)
            .step_by(split_bit << 1)
        {
            debug_assert_eq!(*target, bi, "slot outside the split bucket's residue class");
            *target = new_bi;
        }
    }

    /// Storage utilization `n / (buckets · b)` — the quantity Fagin et
    /// al. show oscillates around `ln 2`.
    pub fn utilization(&self) -> f64 {
        self.len as f64 / (self.buckets.len() * self.bucket_capacity) as f64
    }

    /// Average keys per bucket.
    pub fn average_occupancy(&self) -> f64 {
        self.len as f64 / self.buckets.len() as f64
    }

    /// Bucket counts by occupancy: `counts[i]` buckets hold `i` keys.
    /// This is the extendible-hashing analogue of the paper's population
    /// state vector. Served from the incrementally maintained census —
    /// O(b) in the capacity, not in the bucket count.
    pub fn occupancy_counts(&self) -> Vec<u64> {
        self.occ_counts.clone()
    }

    /// Verifies structural invariants; panics on violation.
    ///
    /// The directory invariant [`Self::split_bucket`] relies on: a bucket
    /// of local depth `l` is referenced by exactly the `2^(g−l)` slots of
    /// one residue class mod `2^l`, and holds only keys of that class.
    /// One pass over the directory and one over the buckets.
    pub fn check_invariants(&self) {
        assert_eq!(self.directory.len(), 1usize << self.global_depth);
        // Per bucket: how many slots reference it, and its residue.
        let mut refs = vec![0usize; self.buckets.len()];
        let mut residue = vec![0usize; self.buckets.len()];
        for (slot, &bi) in self.directory.iter().enumerate() {
            assert!(bi < self.buckets.len(), "dangling directory entry");
            let b = &self.buckets[bi];
            assert!(b.local_depth <= self.global_depth);
            let class = slot & ((1usize << b.local_depth) - 1);
            if refs[bi] == 0 {
                residue[bi] = class;
            }
            assert_eq!(
                class, residue[bi],
                "bucket's slots span two residue classes"
            );
            refs[bi] += 1;
        }
        let mut total = 0;
        for (bi, b) in self.buckets.iter().enumerate() {
            assert!(refs[bi] > 0, "orphaned bucket");
            // Each bucket is referenced by exactly 2^(g - l) slots.
            assert_eq!(
                refs[bi],
                1usize << (self.global_depth - b.local_depth),
                "directory reference count wrong"
            );
            // Its keys agree with its hash-suffix class.
            let mask = (1u64 << b.local_depth) - 1;
            for &k in &b.keys {
                assert_eq!(
                    k & mask,
                    residue[bi] as u64,
                    "key in wrong bucket for its suffix"
                );
            }
            total += b.keys.len();
            assert!(
                b.keys.len() <= self.bucket_capacity || self.global_depth >= MAX_GLOBAL_DEPTH,
                "over-full bucket below the depth cap"
            );
        }
        assert_eq!(total, self.len, "stored key count mismatch");
        // The incremental census must equal a fresh scan.
        let mut scanned = vec![0u64; self.bucket_capacity + 1];
        for b in &self.buckets {
            scanned[b.keys.len().min(self.bucket_capacity)] += 1;
        }
        assert_eq!(
            self.occ_counts, scanned,
            "incremental occupancy census diverged from bucket scan"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table() {
        let t = ExtendibleHashTable::new(4).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.global_depth(), 0);
        assert_eq!(t.directory_size(), 1);
        assert_eq!(t.bucket_count(), 1);
        assert!(!t.contains(42));
        t.check_invariants();
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(ExtendibleHashTable::new(0).is_err());
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut t = ExtendibleHashTable::new(2).unwrap();
        for k in 0..100u64 {
            assert!(t.insert(k), "fresh insert of {k}");
            assert!(t.contains(k));
        }
        assert_eq!(t.len(), 100);
        t.check_invariants();
        for k in 0..100u64 {
            assert!(!t.insert(k), "duplicate insert of {k}");
        }
        assert_eq!(t.len(), 100);
        for k in (0..100u64).step_by(2) {
            assert!(t.remove(k));
            assert!(!t.contains(k));
        }
        assert_eq!(t.len(), 50);
        assert!(!t.remove(0), "double remove");
        t.check_invariants();
        for k in (1..100u64).step_by(2) {
            assert!(t.contains(k), "{k} must survive unrelated removals");
        }
    }

    #[test]
    fn directory_doubles_under_growth() {
        let mut t = ExtendibleHashTable::new(1).unwrap();
        for k in 0..64u64 {
            t.insert(k);
        }
        assert!(t.global_depth() >= 6, "64 keys at b=1 need ≥64 buckets");
        assert_eq!(t.directory_size(), 1 << t.global_depth());
        t.check_invariants();
    }

    #[test]
    fn unhashed_mode_places_keys_deterministically() {
        let mut t = ExtendibleHashTable::with_hashing(1, false).unwrap();
        // Keys 0b00 and 0b10 differ in bit 1: with b=1 they force depth 2.
        t.insert(0b00);
        t.insert(0b10);
        // First split on bit 0 leaves both in the even bucket; second
        // split (bit 1) separates them.
        assert_eq!(t.global_depth(), 2);
        assert!(t.contains(0b00));
        assert!(t.contains(0b10));
        t.check_invariants();
    }

    #[test]
    fn split_below_global_depth_rewires_every_slot_of_the_moving_half() {
        let mut t = ExtendibleHashTable::with_hashing(1, false).unwrap();
        // 0b000 and 0b100 share two low bits: the directory reaches
        // depth 3 while the odd bucket keeps local depth 1 (slots 1, 3,
        // 5, 7).
        t.insert(0b000);
        t.insert(0b100);
        assert_eq!(t.global_depth(), 3);
        t.insert(0b001);
        let odd = t.directory[1];
        assert!([3, 5, 7].iter().all(|&s| t.directory[s] == odd));
        // 0b011 splits that bucket on bit 1: slots 3 and 7 move, 1 and 5
        // stay.
        t.insert(0b011);
        let moved = t.directory[3];
        assert_ne!(moved, odd);
        assert_eq!(t.directory[7], moved);
        assert_eq!((t.directory[1], t.directory[5]), (odd, odd));
        assert_eq!(t.buckets[moved].keys, vec![0b011]);
        assert_eq!(t.buckets[odd].keys, vec![0b001]);
        assert_eq!(t.global_depth(), 3);
        t.check_invariants();
    }

    #[test]
    fn pathological_identical_suffixes_hit_depth_cap_gracefully() {
        let t = ExtendibleHashTable::with_hashing(1, false).unwrap();
        // Two keys equal in their low MAX_GLOBAL_DEPTH bits force the cap.
        let a = 0u64;
        let b = 1u64 << (MAX_GLOBAL_DEPTH + 5);
        // Splitting distinguishes them only above the cap... but the cap
        // is 44 and splitting by low bits reaches bit 44 after 44 doubles,
        // which is a 2^44 directory — far too big for a test. Use a tiny
        // cap surrogate: keys identical in low bits up to depth where the
        // loop would explode are exactly the case the cap guards, so here
        // we only verify the *logic* on hashed keys with a sane cap:
        // distinct keys mix to distinct hashes, never reaching the cap.
        let mut h = ExtendibleHashTable::new(1).unwrap();
        for k in [a, b, 7, 9] {
            h.insert(k);
        }
        assert!(h.global_depth() < 16);
        h.check_invariants();
        let _ = t;
    }

    #[test]
    fn occupancy_counts_sum_to_bucket_count() {
        let mut t = ExtendibleHashTable::new(4).unwrap();
        for k in 0..500u64 {
            t.insert(k);
        }
        let counts = t.occupancy_counts();
        assert_eq!(counts.iter().sum::<u64>() as usize, t.bucket_count());
        let items: u64 = counts.iter().enumerate().map(|(i, &c)| i as u64 * c).sum();
        assert_eq!(items as usize, t.len());
    }

    #[test]
    fn utilization_near_ln2_for_large_tables() {
        // Fagin et al.: expected utilization oscillates around ln 2.
        let mut t = ExtendibleHashTable::new(8).unwrap();
        for k in 0..20_000u64 {
            t.insert(k);
        }
        let u = t.utilization();
        assert!(
            (0.55..=0.80).contains(&u),
            "utilization {u} outside the ln2 oscillation band"
        );
        t.check_invariants();
    }

    #[test]
    fn average_occupancy_tracks_utilization() {
        let mut t = ExtendibleHashTable::new(4).unwrap();
        for k in 0..1000u64 {
            t.insert(k);
        }
        assert!((t.average_occupancy() - 4.0 * t.utilization()).abs() < 1e-12);
    }

    #[test]
    fn remove_and_merge_coalesces_buckets() {
        let mut t = ExtendibleHashTable::new(2).unwrap();
        for k in 0..64u64 {
            t.insert(k);
        }
        let buckets_full = t.bucket_count();
        let depth_full = t.global_depth();
        for k in 0..60u64 {
            assert!(t.remove_and_merge(k));
            t.check_invariants();
        }
        assert_eq!(t.len(), 4);
        assert!(
            t.bucket_count() < buckets_full / 2,
            "buckets {} should shrink from {buckets_full}",
            t.bucket_count()
        );
        assert!(
            t.global_depth() < depth_full,
            "directory should shrink from depth {depth_full}"
        );
        for k in 60..64u64 {
            assert!(t.contains(k), "{k} must survive the merges");
        }
    }

    #[test]
    fn remove_and_merge_to_empty_restores_initial_shape() {
        let mut t = ExtendibleHashTable::new(1).unwrap();
        for k in 0..32u64 {
            t.insert(k);
        }
        for k in 0..32u64 {
            assert!(t.remove_and_merge(k));
        }
        assert!(t.is_empty());
        assert_eq!(t.bucket_count(), 1);
        assert_eq!(t.global_depth(), 0);
        t.check_invariants();
    }

    #[test]
    fn merge_keeps_utilization_healthy_under_churn() {
        let mut t = ExtendibleHashTable::new(8).unwrap();
        for k in 0..4096u64 {
            t.insert(k);
        }
        // Delete three quarters with merging: utilization stays in the
        // ln2 neighborhood instead of collapsing.
        for k in 0..3072u64 {
            t.remove_and_merge(k);
        }
        t.check_invariants();
        assert!(
            t.utilization() > 0.45,
            "merged utilization {} should stay healthy",
            t.utilization()
        );
        // Plain remove (no merging) would have left it much lower.
        let mut plain = ExtendibleHashTable::new(8).unwrap();
        for k in 0..4096u64 {
            plain.insert(k);
        }
        for k in 0..3072u64 {
            plain.remove(k);
        }
        assert!(plain.utilization() < t.utilization());
    }

    #[test]
    fn removal_then_reinsert() {
        let mut t = ExtendibleHashTable::new(2).unwrap();
        for k in 0..50u64 {
            t.insert(k);
        }
        for k in 0..50u64 {
            t.remove(k);
        }
        assert!(t.is_empty());
        t.check_invariants();
        for k in 0..50u64 {
            assert!(t.insert(k));
        }
        assert_eq!(t.len(), 50);
        t.check_invariants();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use popan_proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn model_equivalence_with_btreeset(
            ops in popan_proptest::collection::vec((any::<u64>(), any::<bool>()), 0..300),
            capacity in 1usize..6,
        ) {
            let mut t = ExtendibleHashTable::new(capacity).unwrap();
            let mut model = std::collections::BTreeSet::new();
            for (key, is_insert) in ops {
                if is_insert {
                    prop_assert_eq!(t.insert(key), model.insert(key));
                } else if key % 2 == 0 {
                    prop_assert_eq!(t.remove_and_merge(key), model.remove(&key));
                } else {
                    prop_assert_eq!(t.remove(key), model.remove(&key));
                }
            }
            prop_assert_eq!(t.len(), model.len());
            for k in model.iter().take(50) {
                prop_assert!(t.contains(*k));
            }
            t.check_invariants();
        }
    }

    proptest! {
        // Each case checks the whole directory after every insert; at
        // b = 1 hashed keys grow it to ~2^17 slots by the 300th key.
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn invariants_hold_after_every_insert(
            keys in popan_proptest::collection::vec(any::<u64>(), 0..300),
            capacity in 1usize..5,
            hashed in any::<bool>(),
        ) {
            let mut t = ExtendibleHashTable::with_hashing(capacity, hashed).unwrap();
            let mut model = std::collections::BTreeSet::new();
            for key in keys {
                // Unhashed keys stay below 2^12, so distinct keys differ
                // within the low 12 bits and the directory stays small.
                let key = if hashed { key } else { key % 4096 };
                prop_assert_eq!(t.insert(key), model.insert(key));
                t.check_invariants();
            }
            prop_assert_eq!(t.len(), model.len());
            for &k in &model {
                prop_assert!(t.contains(k));
            }
        }
    }
}
