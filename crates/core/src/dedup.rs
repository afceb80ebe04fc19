//! Receiver-side duplicate suppression for data packets.
//!
//! [`RecentSet`] is a bounded FIFO set of recently-forwarded data
//! packet keys. Data packets carry no per-sender sequence (any member
//! may source), so routers suppress duplicates by the key
//! `(group, origin, tag, encapsulated)` instead (see the router's
//! `recent_data` field), which also guarantees the "no member receives
//! a data packet twice" chaos invariant under channel duplication.

use scmp_sim::FxBuildHasher;
use std::hash::{BuildHasher, Hash};

/// Most keys one [`RecentSet`] can remember: its fingerprints live
/// inline, one byte per slot.
const MAX_CAP: usize = 64;

/// Byte-lane constants of the zero-byte word trick.
const LANES_LO: u64 = 0x0101_0101_0101_0101;
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// A bounded FIFO set: remembers the last `cap` keys inserted and
/// answers "seen recently?". Old keys age out in insertion order, so
/// memory stays constant however long the run.
///
/// The keys sit in a ring: a `Vec` that grows by push until it holds
/// `cap` keys, after which each new key overwrites the oldest slot
/// (`head`) and `head` advances. Nothing is rehashed, on growth or on
/// eviction. Beside each slot sits one fingerprint byte — the top byte
/// of the key's [`FxBuildHasher`] hash — in an inline array. An insert
/// hashes its key once, then scans the fingerprints eight at a time: a
/// word xor-ed with the fingerprint repeated in every byte has a zero
/// byte exactly where a slot matches, and `(x - 0x01…) & !x & 0x80…`
/// flags every zero byte (plus, rarely, a `0x01` byte above one). Only
/// a flagged slot has its full key compared, so false flags cost a
/// compare and never a wrong answer.
///
/// FIFO order is exact, not approximate: a slot is written only when
/// its key is inserted fresh, and the ring overwrites slots in the
/// order they were written, so the victim is always the oldest key
/// still remembered. A duplicate insert touches nothing — this is not
/// an LRU, and age is insertion order, not recency of use.
#[derive(Debug)]
pub struct RecentSet<K> {
    /// Remembered keys; `keys[head]` is the oldest once the ring is full.
    keys: Vec<K>,
    /// `fingerprints[i]` belongs to `keys[i]`; slots past `keys.len()`
    /// are unused.
    fingerprints: [u8; MAX_CAP],
    /// Next slot to overwrite once `keys.len() == cap`.
    head: usize,
    cap: usize,
}

impl<K: Hash + Eq> RecentSet<K> {
    /// A set remembering the `cap` most recent keys. Allocates nothing
    /// until the first insert: every router owns one, most never
    /// forward a data packet.
    ///
    /// # Panics
    /// If `cap` is 0 or above 64 (the inline fingerprint array).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a zero-capacity set would dedup nothing");
        assert!(cap <= MAX_CAP, "at most {MAX_CAP} fingerprint slots");
        RecentSet {
            keys: Vec::new(),
            fingerprints: [0; MAX_CAP],
            head: 0,
            cap,
        }
    }

    /// Insert `key`; `true` iff it was not already remembered.
    pub fn insert(&mut self, key: K) -> bool {
        let fp = (FxBuildHasher::default().hash_one(&key) >> 56) as u8;
        if self.contains(fp, &key) {
            return false;
        }
        let len = self.keys.len();
        if len < self.cap {
            self.fingerprints[len] = fp;
            self.keys.push(key);
        } else {
            self.fingerprints[self.head] = fp;
            self.keys[self.head] = key;
            self.head = if self.head + 1 == self.cap {
                0
            } else {
                self.head + 1
            };
        }
        true
    }

    /// Is `key` (whose fingerprint is `fp`) remembered?
    fn contains(&self, fp: u8, key: &K) -> bool {
        let len = self.keys.len();
        let pattern = LANES_LO * u64::from(fp);
        for (w, lanes) in self.fingerprints[..len.div_ceil(8) * 8]
            .chunks_exact(8)
            .enumerate()
        {
            let x = u64::from_le_bytes(lanes.try_into().expect("8-byte chunk")) ^ pattern;
            let mut flagged = x.wrapping_sub(LANES_LO) & !x & LANES_HI;
            while flagged != 0 {
                let slot = w * 8 + flagged.trailing_zeros() as usize / 8;
                if self.keys.get(slot) == Some(key) {
                    return true;
                }
                flagged &= flagged - 1;
            }
        }
        false
    }

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing has been remembered yet.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashSet, VecDeque};

    #[test]
    fn recent_set_capacity_one_still_dedups_the_latest() {
        let mut s: RecentSet<u32> = RecentSet::new(1);
        assert!(s.insert(1));
        assert!(!s.insert(1), "latest key remembered");
        assert!(s.insert(2), "evicts 1");
        assert!(!s.insert(2));
        assert!(s.insert(1), "evicted key re-admitted");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn duplicate_insert_does_not_disturb_eviction_order() {
        let mut s: RecentSet<u32> = RecentSet::new(2);
        assert!(s.insert(1));
        assert!(s.insert(2));
        // Re-inserting 1 is a no-op: FIFO age is insertion order, not
        // recency of use — 1 must still be the eviction victim.
        assert!(!s.insert(1));
        assert!(s.insert(3), "evicts 1, not 2");
        assert!(!s.insert(2), "2 survived the eviction");
        assert!(s.insert(1), "1 was the victim");
    }

    #[test]
    fn a_fresh_set_holds_no_capacity_until_its_first_insert() {
        let mut s: RecentSet<u64> = RecentSet::new(64);
        assert_eq!(s.keys.capacity(), 0);
        assert!(s.insert(7));
        assert!(s.keys.capacity() >= 1);
        // Once full the ring overwrites in place: no further growth.
        for k in 0..64 {
            s.insert(100 + k);
        }
        let full = s.keys.capacity();
        assert!(full >= 64);
        for k in 0..1_000 {
            s.insert(1_000 + k);
        }
        assert_eq!((s.keys.capacity(), s.len()), (full, 64));
    }

    /// The set's previous design, kept as the reference: a `VecDeque` in
    /// insertion order plus a `HashSet` for membership. The ring must
    /// answer exactly as it does.
    struct OracleRecentSet<K: Hash + Eq + Clone> {
        order: VecDeque<K>,
        seen: HashSet<K>,
        cap: usize,
    }

    impl<K: Hash + Eq + Clone> OracleRecentSet<K> {
        fn new(cap: usize) -> Self {
            OracleRecentSet {
                order: VecDeque::new(),
                seen: HashSet::new(),
                cap,
            }
        }

        fn insert(&mut self, key: K) -> bool {
            if self.seen.contains(&key) {
                return false;
            }
            if self.order.len() == self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.seen.remove(&old);
                }
            }
            self.order.push_back(key.clone());
            self.seen.insert(key);
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random key streams over a small alphabet (repeats and
        /// evictions are frequent): every insert result and every
        /// length agrees with the oracle, at every capacity.
        #[test]
        fn ring_matches_the_vecdeque_hashset_oracle(
            cap in 1usize..=MAX_CAP,
            alphabet in 1u32..160,
            stream in prop::collection::vec(any::<u32>(), 0..600),
        ) {
            let mut ring = RecentSet::new(cap);
            let mut oracle = OracleRecentSet::new(cap);
            for raw in stream {
                let key = (raw % alphabet, u64::from(raw % 3), raw % 2 == 0);
                prop_assert_eq!(ring.insert(key), oracle.insert(key), "key {:?}", key);
                prop_assert_eq!(ring.len(), oracle.order.len());
            }
        }
    }

    /// A key whose hash ignores its value: every fingerprint collides,
    /// so every membership answer comes from the full-key compare.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Collide(u32);

    impl Hash for Collide {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            state.write_u32(7);
        }
    }

    #[test]
    fn colliding_fingerprints_fall_back_to_the_key_compare() {
        let mut s = RecentSet::new(5);
        let mut oracle = OracleRecentSet::new(5);
        for k in [1, 2, 3, 1, 4, 5, 6, 2, 1, 7, 7, 3, 8, 9, 10, 4] {
            assert_eq!(s.insert(Collide(k)), oracle.insert(Collide(k)), "key {k}");
        }
        assert_eq!(s.len(), 5);
        assert!(!s.insert(Collide(10)), "newest key remembered");
        assert!(
            s.insert(Collide(1)),
            "old key aged out despite equal hashes"
        );
    }

    #[test]
    #[should_panic(expected = "fingerprint slots")]
    fn capacity_above_the_fingerprint_array_is_refused() {
        let _ = RecentSet::<u32>::new(MAX_CAP + 1);
    }

    #[test]
    fn recent_set_dedups_and_ages_out() {
        let mut s: RecentSet<u32> = RecentSet::new(3);
        assert!(s.is_empty());
        assert!(s.insert(1));
        assert!(s.insert(2));
        assert!(s.insert(3));
        assert!(!s.insert(2), "remembered");
        assert_eq!(s.len(), 3);
        assert!(s.insert(4), "evicts 1");
        assert!(s.insert(1), "1 aged out, re-accepted");
        assert_eq!(s.len(), 3, "capacity holds");
    }
}
