//! Router timers: one typed key per soft-state timer, and the one retry
//! rule every acknowledged control series shares.
//!
//! The engine keys a timer by an opaque `u64`: [`Timer::token`] packs a
//! [`Timer`] into one and [`Timer::decode`] unpacks it. Every trace
//! prints the token, so the layout is frozen (the golden traces pin
//! it): a family base plus the group, or the group shifted above a
//! 24-bit node id. Each family owns the band up to the next base, and
//! every token outside the image decodes to `None`. A watchdog
//! generation stays below 2^58 − 1 000 (one heartbeat per generation).

use scmp_net::NodeId;
use scmp_sim::GroupId;

const WATCHDOG: u64 = 1_000;
const ANNOUNCE: u64 = 1 << 58;
const NACK: u64 = 1 << 59;
const TREE_RETRY: u64 = 1 << 60;
const LEAVE_RETRY: u64 = 1 << 61;
const JOIN_RETRY: u64 = 1 << 62;
const EXPIRY: u64 = 1 << 63;
/// Node-id bits in a (group, node) token.
const NODE_BITS: u32 = 24;
/// Tokens one (group, node) family spans: 32 group bits above the node.
const PAIRS: u64 = 1 << (32 + NODE_BITS);
/// Tokens one per-group family spans.
const GROUPS: u64 = 1 << 32;

/// One router timer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Timer {
    /// The m-router beacons to its standby peer (§V item 4).
    Heartbeat,
    /// Periodic m-router repair scan: check every mirrored tree against
    /// the live path view and re-run DCDM over a damaged one. A
    /// takeover arms the promoted standby's first.
    Repair,
    /// The standby's deadman timer, stamped with the heartbeat
    /// generation that armed it: only the timer armed after the *last*
    /// heartbeat can trigger a takeover.
    Watchdog(u64),
    /// A memberless session's address expires (§II-C).
    Expiry(GroupId),
    /// The group's JOIN is still unanswered (§III-B).
    JoinRetry(GroupId),
    /// The group's LEAVE is still unacked (§III-C).
    LeaveRetry(GroupId),
    /// The TREE/BRANCH packet sent to this child is still unacked.
    TreeRetry(GroupId, NodeId),
    /// NACK suppression timer of the (group, origin) stream.
    Nack(GroupId, NodeId),
    /// SEQ-ANNOUNCE round of the (group, origin) stream.
    Announce(GroupId, NodeId),
}

impl Timer {
    /// The engine token of this timer.
    pub(super) fn token(self) -> u64 {
        let pair = |base: u64, group: GroupId, node: NodeId| {
            base + (u64::from(group.0) << NODE_BITS) + u64::from(node.0)
        };
        match self {
            Timer::Heartbeat => 1,
            Timer::Repair => 4,
            Timer::Watchdog(gen) => WATCHDOG + gen,
            Timer::Expiry(group) => EXPIRY + u64::from(group.0),
            Timer::JoinRetry(group) => JOIN_RETRY + u64::from(group.0),
            Timer::LeaveRetry(group) => LEAVE_RETRY + u64::from(group.0),
            Timer::TreeRetry(group, child) => pair(TREE_RETRY, group, child),
            Timer::Nack(group, origin) => pair(NACK, group, origin),
            Timer::Announce(group, origin) => pair(ANNOUNCE, group, origin),
        }
    }

    /// The timer behind `token`: the exact inverse of [`Timer::token`],
    /// `None` for a token no timer produces.
    pub(super) fn decode(token: u64) -> Option<Timer> {
        let offset = |base: u64, span: u64| Some(token - base).filter(|&off| off < span);
        let group = |base| offset(base, GROUPS).map(|off| GroupId(off as u32));
        let pair = |base| {
            offset(base, PAIRS).map(|off| {
                let node = off & ((1 << NODE_BITS) - 1);
                (GroupId((off >> NODE_BITS) as u32), NodeId(node as u32))
            })
        };
        match token {
            1 => Some(Timer::Heartbeat),
            4 => Some(Timer::Repair),
            WATCHDOG..ANNOUNCE => Some(Timer::Watchdog(token - WATCHDOG)),
            ANNOUNCE..NACK => pair(ANNOUNCE).map(|(g, n)| Timer::Announce(g, n)),
            NACK..TREE_RETRY => pair(NACK).map(|(g, n)| Timer::Nack(g, n)),
            TREE_RETRY..LEAVE_RETRY => pair(TREE_RETRY).map(|(g, n)| Timer::TreeRetry(g, n)),
            LEAVE_RETRY..JOIN_RETRY => group(LEAVE_RETRY).map(Timer::LeaveRetry),
            JOIN_RETRY..EXPIRY => group(JOIN_RETRY).map(Timer::JoinRetry),
            EXPIRY.. => group(EXPIRY).map(Timer::Expiry),
            _ => None,
        }
    }
}

/// Give up a JOIN, LEAVE or TREE-ARQ series after this many retries
/// (the peer is gone for good; a takeover, the repair scan or the
/// member's own JOIN retry takes over).
pub(super) const MAX_RETRIES: u32 = 8;
/// Exponential-backoff shift cap: delay = base << min(attempt, cap).
const BACKOFF_CAP: u32 = 6;

/// Retry delay after `attempt` tries: `base << min(attempt, BACKOFF_CAP)`,
/// saturating at `u64::MAX` rather than dropping the high bits.
pub(super) fn backoff(base: u64, attempt: u32) -> u64 {
    base.saturating_mul(1 << attempt.min(BACKOFF_CAP))
}

/// The retry count of one JOIN, LEAVE or TREE-ARQ series; all three
/// back off and give up through [`Attempts::next`].
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Attempts(u32);

impl Attempts {
    /// Count one more retry and return its delay, `base` backed off by
    /// the count; `None` once the series is past [`MAX_RETRIES`].
    pub(super) fn next(&mut self, base: u64) -> Option<u64> {
        self.0 += 1;
        (self.0 <= MAX_RETRIES).then(|| backoff(base, self.0))
    }

    /// Retries counted so far.
    pub(super) fn count(self) -> u32 {
        self.0
    }
}

/// One group's JOIN or LEAVE series: its retry count and the causal
/// trace key its retransmissions reuse, so the whole series correlates
/// as one transaction. A takeover clears the key; the next
/// retransmission mints a fresh one.
#[derive(Debug, Default)]
pub(super) struct Series {
    pub(super) attempts: Attempts,
    pub(super) txn: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const G: GroupId = GroupId(7);
    const N: NodeId = NodeId(42);

    /// One literal per family, computed from the formulas the traces
    /// were recorded with.
    #[test]
    fn every_family_keeps_its_token() {
        let cases = [
            (Timer::Heartbeat, 1),
            (Timer::Repair, 4),
            (Timer::Watchdog(0), 1_000),
            (Timer::Watchdog(17), 1_017),
            (Timer::Expiry(GroupId(1)), 9_223_372_036_854_775_809),
            (Timer::JoinRetry(GroupId(1)), 4_611_686_018_427_387_905),
            (Timer::LeaveRetry(GroupId(1)), 2_305_843_009_213_693_953),
            // 2^60 + (7 << 24) + 42
            (Timer::TreeRetry(G, N), 1_152_921_504_724_287_530),
            // 2^59 + (7 << 24) + 42
            (Timer::Nack(G, N), 576_460_752_420_864_042),
            // 2^58 + (7 << 24) + 42
            (Timer::Announce(G, N), 288_230_376_269_152_298),
        ];
        for (timer, token) in cases {
            assert_eq!(timer.token(), token, "{timer:?}");
            assert_eq!(Timer::decode(token), Some(timer), "{token}");
        }
    }

    #[test]
    fn tokens_outside_the_image_decode_to_none() {
        let strays = [
            0,
            2,
            3,
            5,
            999,
            ANNOUNCE + PAIRS,
            NACK + PAIRS,
            TREE_RETRY + PAIRS,
            LEAVE_RETRY + GROUPS,
            JOIN_RETRY + GROUPS,
            EXPIRY + GROUPS,
            u64::MAX,
        ];
        for token in strays {
            assert_eq!(Timer::decode(token), None, "{token}");
        }
    }

    #[test]
    fn a_series_gives_up_after_max_retries() {
        let mut attempts = Attempts::default();
        let delays: Vec<u64> = std::iter::from_fn(|| attempts.next(10)).collect();
        assert_eq!(delays, [20, 40, 80, 160, 320, 640, 640, 640]);
        assert_eq!(attempts.count(), MAX_RETRIES + 1);
        assert_eq!(Attempts::default().next(u64::MAX), Some(u64::MAX));
    }

    /// The timer of family `kind` over the given coordinates.
    fn timer(kind: u8, group: u32, node: u32, gen: u64) -> Timer {
        let (g, n) = (GroupId(group), NodeId(node));
        match kind {
            0 => Timer::Heartbeat,
            1 => Timer::Repair,
            2 => Timer::Watchdog(gen),
            3 => Timer::Expiry(g),
            4 => Timer::JoinRetry(g),
            5 => Timer::LeaveRetry(g),
            6 => Timer::TreeRetry(g, n),
            7 => Timer::Nack(g, n),
            _ => Timer::Announce(g, n),
        }
    }

    /// Family bases, for drawing tokens near every band edge.
    const BASES: [u64; 8] = [
        0,
        WATCHDOG,
        ANNOUNCE,
        NACK,
        TREE_RETRY,
        LEAVE_RETRY,
        JOIN_RETRY,
        EXPIRY,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_inverts_token(
            kind in 0u8..9,
            group in any::<u32>(),
            node in 0u32..1 << NODE_BITS,
            gen in 0u64..ANNOUNCE - WATCHDOG,
        ) {
            let t = timer(kind, group, node, gen);
            prop_assert_eq!(Timer::decode(t.token()), Some(t));
        }

        #[test]
        fn decode_is_total_and_exact(
            raw in any::<u64>(),
            base in 0usize..BASES.len(),
            near in 0u64..1 << 40,
            below in any::<bool>(),
            shift in 0u32..64,
        ) {
            let edge = BASES[base];
            let drawn = [
                raw,
                raw >> shift,
                if below { edge.wrapping_sub(near) } else { edge.wrapping_add(near) },
                edge.wrapping_add(GROUPS).wrapping_add(near),
                edge.wrapping_add(PAIRS).wrapping_sub(near),
            ];
            for x in drawn {
                if let Some(t) = Timer::decode(x) {
                    prop_assert_eq!(t.token(), x, "{:?}", t);
                }
            }
        }
    }
}
