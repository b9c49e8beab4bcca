//! Collection strategies (`proptest::collection` equivalents).

use crate::strategy::Strategy;
use popan_rng::{Rng, StdRng};

/// A length specification for [`vec()`]: an exact size, `lo..hi`, or
/// `lo..=hi`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Inclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range {r:?}");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range {r:?}");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let len = if self.size.lo == self.size.hi {
            self.size.lo
        } else {
            rng.random_range(self.size.lo..=self.size.hi)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_rng::SeedableRng;

    #[test]
    fn length_specs_are_honored() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            assert_eq!(vec(0u8..10, 5).generate(&mut rng).len(), 5);
            let l = vec(0u8..10, 2..7).generate(&mut rng).len();
            assert!((2..7).contains(&l));
            let li = vec(0u8..10, 2..=7).generate(&mut rng).len();
            assert!((2..=7).contains(&li));
        }
    }
}
