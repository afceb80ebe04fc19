//! Receiver-side duplicate suppression.
//!
//! Two independent mechanisms, for the two ways a lossy channel can
//! replay traffic:
//!
//! * [`SeqWindow`] — per-sender sliding-window dedup over the wire
//!   header's control sequence number (the IPsec anti-replay scheme):
//!   a retransmitted or channel-duplicated control message is
//!   recognised and discarded even when its payload is not idempotent.
//! * [`RecentSet`] — a bounded FIFO set of recently-forwarded data
//!   packet keys. Data packets carry no per-sender sequence (any member
//!   may source), so routers suppress duplicates by `(group, tag)`
//!   instead, which also guarantees the "no member receives a data
//!   packet twice" chaos invariant under channel duplication.

use scmp_net::NodeId;
use std::collections::{HashMap, HashSet, VecDeque};

/// Sliding anti-replay window width (seqs older than this many behind
/// the newest are treated as replays).
const WINDOW: u32 = 64;

/// Per-sender sliding-window sequence dedup.
///
/// For each sender the window tracks the highest sequence seen and a
/// bitmap of the `WINDOW` numbers below it. [`SeqWindow::observe`]
/// returns `true` for a fresh sequence and `false` for a duplicate or
/// anything that fell off the window (too old to judge — dropping is
/// the safe side, and a live sender's retransmissions carry fresh
/// sequence numbers anyway).
#[derive(Debug, Default)]
pub struct SeqWindow {
    peers: HashMap<NodeId, PeerWindow>,
}

#[derive(Debug)]
struct PeerWindow {
    max_seq: u32,
    /// Bit `i` set ⇔ `max_seq - i` was seen (bit 0 = `max_seq` itself).
    bitmap: u64,
}

impl SeqWindow {
    /// A window with no history.
    pub fn new() -> Self {
        SeqWindow::default()
    }

    /// Record `seq` from `sender`; `true` iff it was never seen before
    /// (within the window).
    pub fn observe(&mut self, sender: NodeId, seq: u32) -> bool {
        match self.peers.get_mut(&sender) {
            None => {
                self.peers.insert(
                    sender,
                    PeerWindow {
                        max_seq: seq,
                        bitmap: 1,
                    },
                );
                true
            }
            Some(w) => {
                if seq > w.max_seq {
                    let advance = seq - w.max_seq;
                    w.bitmap = if advance >= 64 {
                        1
                    } else {
                        (w.bitmap << advance) | 1
                    };
                    w.max_seq = seq;
                    true
                } else {
                    let behind = w.max_seq - seq;
                    if behind >= WINDOW {
                        return false; // too old to judge: drop
                    }
                    let bit = 1u64 << behind;
                    if w.bitmap & bit != 0 {
                        false
                    } else {
                        w.bitmap |= bit;
                        true
                    }
                }
            }
        }
    }
}

/// A bounded FIFO set: remembers the last `cap` keys inserted and
/// answers "seen recently?". Old keys age out in insertion order, so
/// memory stays constant however long the run.
#[derive(Debug)]
pub struct RecentSet<K: std::hash::Hash + Eq + Clone> {
    order: VecDeque<K>,
    seen: HashSet<K>,
    cap: usize,
}

impl<K: std::hash::Hash + Eq + Clone> RecentSet<K> {
    /// A set remembering the `cap` most recent keys. Allocates nothing
    /// until the first insert: every router owns one, most never
    /// forward a data packet.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a zero-capacity set would dedup nothing");
        RecentSet {
            order: VecDeque::new(),
            seen: HashSet::new(),
            cap,
        }
    }

    /// Insert `key`; `true` iff it was not already remembered.
    pub fn insert(&mut self, key: K) -> bool {
        if self.seen.contains(&key) {
            return false;
        }
        if self.order.capacity() == 0 {
            // First insert: size both for the full `cap` at once rather
            // than growing (and rehashing) on the way there.
            self.order.reserve_exact(self.cap);
            self.seen.reserve(self.cap);
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

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing has been remembered yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);

    #[test]
    fn fresh_sequences_pass_duplicates_fail() {
        let mut w = SeqWindow::new();
        assert!(w.observe(A, 1));
        assert!(w.observe(A, 2));
        assert!(!w.observe(A, 2), "exact duplicate");
        assert!(!w.observe(A, 1), "older duplicate inside the window");
        assert!(w.observe(A, 5), "gap forward is fresh");
        assert!(w.observe(A, 3), "late arrival inside the gap is fresh");
        assert!(!w.observe(A, 3), "…but only once");
    }

    #[test]
    fn senders_are_independent() {
        let mut w = SeqWindow::new();
        assert!(w.observe(A, 7));
        assert!(w.observe(B, 7), "same seq from another sender is fresh");
        assert!(!w.observe(A, 7));
    }

    #[test]
    fn ancient_sequences_are_dropped() {
        let mut w = SeqWindow::new();
        assert!(w.observe(A, 1000));
        assert!(!w.observe(A, 1000 - WINDOW), "fell off the window");
        assert!(w.observe(A, 1000 - WINDOW + 1), "just inside");
    }

    #[test]
    fn big_jumps_reset_the_bitmap() {
        let mut w = SeqWindow::new();
        assert!(w.observe(A, 1));
        assert!(w.observe(A, 1 + 200));
        assert!(!w.observe(A, 1 + 200));
        // 1 is now far outside the window.
        assert!(!w.observe(A, 1));
    }

    #[test]
    fn window_boundary_is_exact() {
        // behind == WINDOW - 1 is the oldest judgeable sequence;
        // behind == WINDOW is one past the edge and must be dropped.
        let mut w = SeqWindow::new();
        assert!(w.observe(A, WINDOW));
        assert!(w.observe(A, 1), "behind = WINDOW - 1: just inside");
        assert!(!w.observe(A, 0), "behind = WINDOW: just outside");
        assert!(!w.observe(A, 1), "inside duplicate still caught");
    }

    #[test]
    fn sequences_near_u32_max_do_not_wrap() {
        let mut w = SeqWindow::new();
        assert!(w.observe(A, u32::MAX - 1));
        assert!(w.observe(A, u32::MAX), "advance to the numeric ceiling");
        assert!(!w.observe(A, u32::MAX), "duplicate at the ceiling");
        assert!(
            !w.observe(A, u32::MAX - 1),
            "window bitmap survived the shift"
        );
        assert!(
            w.observe(A, u32::MAX - u64::from(WINDOW) as u32 + 1),
            "oldest in-window sequence below the ceiling is fresh"
        );
        // A sender restarting at 0 after u32::MAX looks maximally old:
        // the window drops it (safe side — a live sender's next real
        // sequences are fresh, and 2^32 control packets outlive any
        // session this simulator runs).
        assert!(
            !w.observe(A, 0),
            "wrapped-around restart is dropped, not UB"
        );
    }

    #[test]
    fn exactly_64_step_advance_clears_history_correctly() {
        let mut w = SeqWindow::new();
        assert!(w.observe(A, 10));
        // advance == 64 must not shift the bitmap by its full width
        // (UB on u64); the window resets to just the new maximum.
        assert!(w.observe(A, 10 + 64));
        assert!(!w.observe(A, 10 + 64));
        assert!(w.observe(A, 10 + 64 - 1), "one behind the new max is fresh");
        assert!(!w.observe(A, 10), "behind = 64 fell off");
    }

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
        assert_eq!((s.order.capacity(), s.seen.capacity()), (0, 0));
        assert!(s.insert(7));
        assert!(s.order.capacity() >= 64 && s.seen.capacity() >= 64);
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
