//! The finite-capacity link model and the channel impairments.
//!
//! [`Transport`] owns what a packet meets on a live link: when a
//! [`CapacityModel`] is installed, how long each directed link stays
//! busy serialising earlier packets; when a [`ChannelModel`] is, what
//! the wire does to it. Which links and routers are alive at all is the
//! live path view's business ([`scmp_net::LivePaths`]). It holds no
//! reference to the engine, the event queue or the statistics, so its
//! arithmetic is unit-testable in isolation (see the tests at the
//! bottom).

use super::SimTime;
use crate::channel::{ChannelModel, ChannelOutcome};
use scmp_net::NodeId;
use std::collections::HashMap;

/// Finite link-capacity model (off by default).
///
/// With capacities enabled, each link direction is a FIFO server: a
/// packet sent at `t` starts transmitting when the link is free,
/// occupies it for the sender's transmission time, and then propagates
/// for the link delay. A bounded queue drops packets that would wait for
/// more than `queue_limit` earlier transmissions — the §I "traffic
/// concentration around the core ... packet loss and longer
/// communication delay" failure mode. Per-node overrides model the
/// m-router's "specially designed powerful" line cards (§V).
#[derive(Clone, Debug)]
pub struct CapacityModel {
    /// Ticks to serialise one packet onto a link.
    pub link_tx: u64,
    /// Maximum packets waiting per link direction before tail drop.
    pub queue_limit: u64,
    /// Per-node transmission-time override (e.g. the m-router's ports);
    /// `None` uses `link_tx`.
    pub node_tx: HashMap<NodeId, u64>,
}

impl CapacityModel {
    /// Uniform capacity: every node serialises a packet in `link_tx`
    /// ticks, with `queue_limit` queue slots per link direction.
    pub fn uniform(link_tx: u64, queue_limit: u64) -> Self {
        assert!(link_tx > 0, "transmission time must be positive");
        CapacityModel {
            link_tx,
            queue_limit,
            node_tx: HashMap::new(),
        }
    }

    /// Give `node` faster ports (smaller transmission time).
    pub fn with_node_tx(mut self, node: NodeId, tx: u64) -> Self {
        assert!(tx > 0);
        self.node_tx.insert(node, tx);
        self
    }

    fn tx_of(&self, sender: NodeId) -> u64 {
        self.node_tx.get(&sender).copied().unwrap_or(self.link_tx)
    }
}

/// A granted transmission slot on a directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSlot {
    /// When serialisation completes (propagation starts here).
    pub depart: SimTime,
    /// Ticks spent queued behind earlier transmissions.
    pub waited: SimTime,
}

/// The per-link busy horizon of the capacity model plus the channel
/// impairment streams.
#[derive(Default)]
pub struct Transport {
    capacity: Option<CapacityModel>,
    channel: Option<ChannelModel>,
    link_busy: HashMap<(NodeId, NodeId), SimTime>,
}

impl Transport {
    /// Infinite bandwidth, perfect channels.
    pub fn new() -> Self {
        Transport::default()
    }

    /// Enable the finite link-capacity model (default: infinite
    /// bandwidth, zero queueing).
    pub fn set_capacity(&mut self, model: CapacityModel) {
        self.capacity = Some(model);
    }

    /// Install a channel impairment model (default: perfect channels).
    pub fn set_channel(&mut self, model: ChannelModel) {
        self.channel = Some(model);
    }

    /// Roll the channel for one packet on the directed link `a -> b`.
    /// Without a model (or for a link whose spec is a no-op) this is the
    /// perfect-channel outcome and costs no RNG draws.
    pub fn channel_roll(&mut self, a: NodeId, b: NodeId) -> ChannelOutcome {
        match &mut self.channel {
            Some(ch) => ch.roll(a, b),
            None => ChannelOutcome::default(),
        }
    }

    /// Reserve transmission time on the directed link `a -> b` starting
    /// no earlier than `ready`. Returns the slot (serialisation-complete
    /// time plus the queueing wait), or `None` when the bounded queue is
    /// full. Free (no-capacity) mode departs immediately.
    pub fn reserve_link(&mut self, a: NodeId, b: NodeId, ready: SimTime) -> Option<LinkSlot> {
        let Some(cap) = &self.capacity else {
            return Some(LinkSlot {
                depart: ready,
                waited: 0,
            });
        };
        let tx = cap.tx_of(a);
        let busy = self.link_busy.entry((a, b)).or_insert(0);
        let start = (*busy).max(ready);
        // Packets already waiting = backlog / tx.
        if (start - ready) / tx > cap.queue_limit {
            return None;
        }
        let done = start + tx;
        *busy = done;
        Some(LinkSlot {
            depart: done,
            waited: start - ready,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    #[test]
    fn free_mode_departs_immediately() {
        let mut t = Transport::new();
        for ready in [0, 5, 3] {
            // No capacity model: no serialisation, no queue, no state.
            assert_eq!(
                t.reserve_link(A, B, ready),
                Some(LinkSlot {
                    depart: ready,
                    waited: 0
                })
            );
        }
    }

    #[test]
    fn backlog_at_start_equals_ready_is_zero() {
        let mut t = Transport::new();
        t.set_capacity(CapacityModel::uniform(10, 0));
        // queue_limit 0: only a packet that starts the instant it is
        // ready (start == ready, backlog 0/tx = 0) is accepted.
        let first = t.reserve_link(A, B, 0).expect("idle link accepts");
        assert_eq!(
            first,
            LinkSlot {
                depart: 10,
                waited: 0
            }
        );
        // Ready exactly when the link frees: start == ready again.
        let second = t
            .reserve_link(A, B, 10)
            .expect("start == ready is not queued");
        assert_eq!(
            second,
            LinkSlot {
                depart: 20,
                waited: 0
            }
        );
        // Ready one tick earlier: backlog 9/10 = 0 still within limit 0
        // (a partially-serialised predecessor is not a queued packet).
        let third = t
            .reserve_link(A, B, 19)
            .expect("sub-tx backlog rounds to zero");
        assert_eq!(
            third,
            LinkSlot {
                depart: 30,
                waited: 1
            }
        );
        // A full transmission time of backlog exceeds limit 0.
        assert_eq!(t.reserve_link(A, B, 20), None);
    }

    #[test]
    fn queue_limit_boundary_is_inclusive() {
        let mut t = Transport::new();
        t.set_capacity(CapacityModel::uniform(10, 2));
        // All ready at 0: backlogs are 0, 10, 20, 30 ticks = 0, 1, 2, 3
        // waiting packets. Exactly queue_limit (2) is accepted; one more
        // is tail-dropped.
        assert_eq!(t.reserve_link(A, B, 0).unwrap().waited, 0);
        assert_eq!(t.reserve_link(A, B, 0).unwrap().waited, 10);
        assert_eq!(t.reserve_link(A, B, 0).unwrap().waited, 20);
        assert_eq!(t.reserve_link(A, B, 0), None, "limit+1 must drop");
        // The drop reserved nothing: the link frees at 30, so a packet
        // ready then still flows.
        assert_eq!(
            t.reserve_link(A, B, 30),
            Some(LinkSlot {
                depart: 40,
                waited: 0
            })
        );
    }

    #[test]
    fn per_node_tx_override_applies_to_sender_only() {
        let mut t = Transport::new();
        t.set_capacity(CapacityModel::uniform(10, 100).with_node_tx(A, 2));
        // A's fast ports serialise in 2 ticks...
        assert_eq!(t.reserve_link(A, B, 0).unwrap().depart, 2);
        assert_eq!(t.reserve_link(A, B, 0).unwrap().depart, 4);
        // ...while B still takes the uniform 10, on its own direction.
        assert_eq!(t.reserve_link(B, A, 0).unwrap().depart, 10);
        // The override also scales the queue: with tx 2 a 100-limit
        // queue holds 100 packets of 2 ticks each.
        let mut last = 0;
        for _ in 0..50 {
            last = t.reserve_link(A, B, 0).unwrap().depart;
        }
        assert_eq!(last, 104);
    }

    #[test]
    fn directions_queue_independently() {
        let mut t = Transport::new();
        t.set_capacity(CapacityModel::uniform(10, 1));
        assert_eq!(t.reserve_link(A, B, 0).unwrap().depart, 10);
        // The reverse direction is a separate FIFO server.
        assert_eq!(t.reserve_link(B, A, 0).unwrap().depart, 10);
    }
}
