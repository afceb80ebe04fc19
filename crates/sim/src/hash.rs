//! One cheap deterministic hasher for the hot per-packet maps.
//!
//! `std`'s default SipHash is keyed per process and built to resist
//! keys crafted to collide. Neither matters for the simulator's own
//! small integer keys — `(group, tag, node)` deliveries, data-packet
//! dedup keys — which never come from outside the program, while its
//! cost shows on every hop. [`FxHasher`] is the multiply-rotate hash
//! rustc uses internally: one rotate, xor and multiply per word, the
//! same output on every run and machine.

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (a 64-bit odd constant derived from π).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style multiply-rotate [`Hasher`]. Fast and deterministic;
/// not collision-resistant, so keep it off keys read from input.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for `HashMap`/`HashSet` keyed with [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::{BuildHasher, Hash};

    fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_runs_repeat() {
        let k = (3u32, 7u32, 42u64, true);
        assert_eq!(fx_hash(&k), fx_hash(&k));
        // Pinned: the hash is a pure function of the key, not of the
        // process (SipHash's `RandomState` would differ per run).
        assert_eq!(fx_hash(&1u64), SEED);
        assert_ne!(fx_hash(&k), fx_hash(&(3u32, 7u32, 42u64, false)));
    }

    #[test]
    fn byte_writes_cover_the_tail() {
        // Nine bytes: one full word and a one-byte remainder that must
        // still move the hash.
        let a = fx_hash(&[0u8, 0, 0, 0, 0, 0, 0, 0, 1][..]);
        let b = fx_hash(&[0u8, 0, 0, 0, 0, 0, 0, 0, 2][..]);
        assert_ne!(a, b);
    }

    #[test]
    fn works_as_a_map_hasher() {
        let mut m: HashMap<(u32, u64), u32, FxBuildHasher> = HashMap::default();
        for i in 0..1_000u32 {
            m.insert((i, u64::from(i) * 3), i);
        }
        assert!((0..1_000u32).all(|i| m[&(i, u64::from(i) * 3)] == i));
    }
}
