//! Identity-style hashing for `u64`-keyed hot-path maps.
//!
//! The simulator's in-flight bookkeeping (sub-request ids, user ids,
//! scrub/rebuild tags) is keyed by densely-allocated `u64` counters. The
//! std `RandomState` SipHash is overkill for those keys — and, being
//! randomly seeded per process, it is also the one stdlib component whose
//! behavior *could* leak into results if any code path ever iterated a
//! map. [`IdHasher`] replaces it with a single Fibonacci multiply: fast,
//! well-mixed for sequential ids, and — critically — **deterministic
//! across processes**, so map iteration order can never reintroduce the
//! nondeterminism the cross-process determinism suite guards against.
//!
//! Not DoS-resistant by design: keys come from the simulator's own
//! monotonic counters, never from untrusted input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for trusted integer keys.
///
/// `write_u64` (the only call the map issues for `u64` keys) multiplies by
/// 2⁶⁴/φ, spreading sequential ids across the high bits that `HashMap`
/// uses for bucket selection. Arbitrary byte streams fall back to FNV-1a
/// so composite keys still hash correctly if one ever lands in an
/// [`IoMap`].
#[derive(Debug, Default, Clone)]
pub struct IdHasher(u64);

/// 2⁶⁴ / φ — the Fibonacci hashing constant.
const PHI64: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(PHI64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-integer keys (tuples, strings).
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }
}

/// `HashMap` keyed by simulator-allocated `u64` ids, using [`IdHasher`].
pub type IoMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ids_do_not_collide_in_buckets() {
        // Insert a dense id range and read everything back.
        let mut m: IoMap<u64> = IoMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        for i in 0..10_000u64 {
            assert_eq!(m.remove(&i), Some(i * 3));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn hash_is_deterministic_across_instances() {
        use std::hash::BuildHasher;
        let b: BuildHasherDefault<IdHasher> = BuildHasherDefault::default();
        let h1 = b.hash_one(42u64);
        let b2: BuildHasherDefault<IdHasher> = BuildHasherDefault::default();
        let h2 = b2.hash_one(42u64);
        assert_eq!(h1, h2);
        assert_eq!(h1, 42u64.wrapping_mul(PHI64));
    }

    #[test]
    fn byte_fallback_distinguishes_inputs() {
        use std::hash::BuildHasher;
        let b: BuildHasherDefault<IdHasher> = BuildHasherDefault::default();
        assert_ne!(b.hash_one("alpha"), b.hash_one("beta"));
    }
}
