//! Key streams for the extendible-hashing baseline.
//!
//! Fagin et al.'s analysis (and the paper's discussion of it) assumes keys
//! whose hash values are uniform bits. [`UniformKeys`] provides exactly
//! that; [`SequentialKeys`] provides adversarially *non*-uniform raw keys
//! that become uniform only after hashing, which exercises the hash
//! function itself.

use popan_rng::Rng;

/// Uniformly random 64-bit keys (duplicates possible but vanishingly rare).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformKeys;

impl UniformKeys {
    /// Draws one key.
    pub fn sample(&self, rng: &mut (impl popan_rng::RngCore + ?Sized)) -> u64 {
        rng.random()
    }

    /// Draws `n` keys.
    pub fn sample_n(&self, rng: &mut (impl popan_rng::RngCore + ?Sized), n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Sequential keys `start, start+1, …` — maximally structured input.
#[derive(Debug, Clone, Copy)]
pub struct SequentialKeys {
    next: u64,
}

impl SequentialKeys {
    /// Starts the sequence at `start`.
    pub fn new(start: u64) -> Self {
        SequentialKeys { next: start }
    }

    /// Takes the next `n` keys.
    pub fn take_n(&mut self, n: usize) -> Vec<u64> {
        let out: Vec<u64> = (0..n as u64).map(|i| self.next.wrapping_add(i)).collect();
        self.next = self.next.wrapping_add(n as u64);
        out
    }
}

/// A 64-bit mixing function (the finalizer of SplitMix64). Used as the
/// hash for extendible hashing: even sequential keys produce uniform
/// pseudo-random bucket addresses.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_rng::rngs::StdRng;
    use popan_rng::SeedableRng;

    #[test]
    fn uniform_keys_are_deterministic_and_distinct() {
        let ks = UniformKeys;
        let a = ks.sample_n(&mut StdRng::seed_from_u64(1), 100);
        let b = ks.sample_n(&mut StdRng::seed_from_u64(1), 100);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "collisions in 100 draws are ~impossible");
    }

    #[test]
    fn sequential_keys_count_up_and_wrap() {
        let mut s = SequentialKeys::new(10);
        assert_eq!(s.take_n(3), vec![10, 11, 12]);
        assert_eq!(s.take_n(2), vec![13, 14]);
        let mut w = SequentialKeys::new(u64::MAX);
        assert_eq!(w.take_n(2), vec![u64::MAX, 0]);
    }

    #[test]
    fn mix64_spreads_sequential_keys() {
        // The top bits of mixed sequential keys should look uniform: count
        // how many land in each of 8 buckets by the top 3 bits.
        let mut counts = [0usize; 8];
        let n = 8000;
        for i in 0..n {
            counts[(mix64(i) >> 61) as usize] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - 1000).abs() < 150,
                "bucket {b} got {c}, expected ~1000"
            );
        }
    }

    #[test]
    fn mix64_is_injective_on_a_sample() {
        let mut out: Vec<u64> = (0..10_000u64).map(mix64).collect();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), 10_000);
    }

    #[test]
    fn mix64_known_values_stable() {
        // Pin a couple of values so the hash can never silently change —
        // experiment reproducibility depends on it.
        assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(mix64(1), 0x910a2dec89025cc1);
    }
}
