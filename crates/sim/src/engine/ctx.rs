//! The per-dispatch context handed to [`Router`](super::Router)
//! callbacks: the only way protocols interact with the network.

use super::queue::{EventKind, EventQueue};
use super::telemetry::Telemetry;
use super::transport::Transport;
use super::SimTime;
use crate::packet::{GroupId, Packet, PacketClass, ORIGIN_UNSET};
use crate::stats::SimStats;
use scmp_net::{LivePaths, NodeId, Topology};
use scmp_telemetry::{DropReason, EventKind as TeleKind};
use std::fmt;

/// The per-dispatch context handed to [`Router`](super::Router)
/// callbacks.
pub struct Ctx<'a, M> {
    pub(super) now: SimTime,
    pub(super) node: NodeId,
    pub(super) paths: &'a LivePaths,
    pub(super) queue: &'a mut EventQueue<M>,
    pub(super) stats: &'a mut SimStats,
    pub(super) transport: &'a mut Transport,
    pub(super) tele: &'a mut Telemetry,
}

impl<'a, M: Clone + fmt::Debug> Ctx<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The router being executed.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// The topology (read-only).
    pub fn topo(&self) -> &'a Topology {
        self.paths.topo()
    }

    /// The domain's live path view — the link-state IGP every router can
    /// consult: unicast next hops, shortest-path trees over whatever is
    /// alive, the liveness mask and its epoch. The borrow outlives the
    /// `&self`, so a protocol can plan over it and send in one breath.
    pub fn routes(&self) -> &'a LivePaths {
        self.paths
    }

    fn push(&mut self, time: SimTime, node: NodeId, kind: EventKind<M>) {
        self.queue.push(time, node, kind);
    }

    /// Is the link `a`–`b` (and both endpoints) currently in service?
    /// Models the domain's link-state IGP view, which every router —
    /// and in particular the m-router's repair scan — can consult.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.paths.link_alive(a, b)
    }

    /// Is router `v` currently in service (per the IGP view)?
    pub fn node_up(&self, v: NodeId) -> bool {
        self.paths.node_up(v)
    }

    /// Something observable happened at this router. This is the one
    /// entry point: `kind` is counted into the run's statistics
    /// ([`SimStats::count`] — the counter lives beside the event's
    /// meaning, not beside the call site) and, when a sink is
    /// listening, recorded with the current time and node.
    #[inline]
    pub fn observe(&mut self, kind: TeleKind) {
        self.tele.observe(self.stats, self.now, self.node, kind);
    }

    /// Whether the installed telemetry sink is live — expensive
    /// observability probes (tree-health sampling, whose samples the
    /// engine also keeps for [`Engine::health_events`](super::Engine::health_events))
    /// are gated on this so sink-off runs pay nothing.
    pub fn telemetry_on(&self) -> bool {
        self.tele.on()
    }

    /// Record a completed tree repair: the elapsed time since the most
    /// recent fault becomes a repair-latency sample.
    pub fn record_repair(&mut self) {
        match self.stats.last_fault_at {
            Some(t0) => self.observe(TeleKind::Repair {
                latency: self.now.saturating_sub(t0),
            }),
            // Liveness flipped by hand, no fault ever injected: there is
            // nothing to time, so the repair is counted without an event.
            None => self.stats.repairs += 1,
        }
    }

    // Counters with no event of their own stay plain `SimStats` fields.

    /// Count one periodic repair-scan pass: `full` when it assessed the
    /// trees, otherwise one the liveness epoch let it skip.
    pub fn record_repair_scan(&mut self, full: bool) {
        if full {
            self.stats.repair_scans_full += 1;
        } else {
            self.stats.repair_scans_skipped += 1;
        }
    }

    /// Record a NACK forwarded upstream after a repair-cache miss
    /// (the miss event already carries the key).
    pub fn record_nack_forwarded(&mut self) {
        self.stats.nacks_forwarded += 1;
    }

    /// Record repair-cache entries evicted by the byte cap.
    pub fn record_cache_evictions(&mut self, n: u64) {
        self.stats.repair_cache_evictions += n;
    }

    /// Record one repair-scan pass served while part of the domain was
    /// unreachable (the partition-degraded accounting of `SimStats`).
    pub fn record_partition_degraded_tick(&mut self) {
        self.stats.partition_degraded_ticks += 1;
    }

    /// Observe a drop with its reason and — when the drop point still
    /// had the packet in hand — its (group, tag) correlation key, so
    /// journeys can show where a packet died.
    fn observe_drop(&mut self, reason: DropReason, to: Option<NodeId>, key: Option<(u32, u64)>) {
        self.observe(TeleKind::Drop {
            reason,
            to: to.map(|n| n.0),
            group: key.map(|(g, _)| g),
            tag: key.map(|(_, t)| t),
        });
    }

    /// Send `pkt` to the directly-connected neighbour `to`. Charges the
    /// link cost against the packet's overhead class and delivers after
    /// the link delay. Dead links/nodes drop the packet.
    ///
    /// Sending to a router that is not a neighbour is a protocol bug in
    /// a static topology, but a repair scan can legitimately race a
    /// topology change — so release builds count and trace the drop
    /// instead of tearing the simulation down (debug builds still
    /// assert).
    pub fn send(&mut self, to: NodeId, mut pkt: Packet<M>) {
        if pkt.origin == ORIGIN_UNSET {
            pkt.origin = self.node;
        }
        let key = (pkt.group.0, pkt.tag);
        let Some(w) = self.paths.topo().link(self.node, to) else {
            debug_assert!(false, "{:?} is not a neighbour of {:?}", to, self.node);
            self.observe_drop(DropReason::NonNeighbour, Some(to), Some(key));
            return;
        };
        if !self.paths.link_alive(self.node, to) {
            self.observe_drop(DropReason::DeadLink, None, Some(key));
            return;
        }
        let Some(depart) = self.reserve_link(self.node, to, self.now) else {
            // Queue overflow: the congestion loss of §I.
            self.observe_drop(DropReason::QueueFull, None, Some(key));
            return;
        };
        self.charge(pkt.class, w.cost);
        // The channel rolls after the sender has paid for the
        // transmission: bandwidth is spent whether or not the wire
        // delivers.
        let roll = self.transport.channel_roll(self.node, to);
        if roll.drop {
            self.observe_drop(DropReason::ChannelLoss, Some(to), Some(key));
            return;
        }
        let t = depart + w.delay + self.note_jitter(roll.jitter, to, key);
        let dup = roll.duplicate.then(|| pkt.clone());
        self.push(
            t,
            to,
            EventKind::Deliver {
                from: self.node,
                corrupted: roll.corrupt,
                pkt,
            },
        );
        if let Some(pkt) = dup {
            self.note_duplicate(to, key);
            self.push(
                t,
                to,
                EventKind::Deliver {
                    from: self.node,
                    corrupted: roll.corrupt,
                    pkt,
                },
            );
        }
    }

    /// Account a nonzero reorder jitter; returns it for the arrival-time
    /// sum.
    fn note_jitter(&mut self, jitter: SimTime, to: NodeId, key: (u32, u64)) -> SimTime {
        if jitter > 0 {
            self.observe(TeleKind::ChannelReorder {
                to: to.0,
                jitter,
                group: key.0,
                tag: key.1,
            });
        }
        jitter
    }

    /// Account a channel duplication (the copy is pushed by the caller).
    fn note_duplicate(&mut self, to: NodeId, key: (u32, u64)) {
        self.observe(TeleKind::ChannelDuplicate {
            to: to.0,
            group: key.0,
            tag: key.1,
        });
    }

    /// Reserve the directed link `a -> b` through the transport and
    /// charge any queueing wait to the statistics. Returns the
    /// serialisation-complete time, or `None` when the queue is full.
    fn reserve_link(&mut self, a: NodeId, b: NodeId, ready: SimTime) -> Option<SimTime> {
        let slot = self.transport.reserve_link(a, b, ready)?;
        self.stats.record_queue_wait(slot.waited);
        Some(slot.depart)
    }

    /// Send `pkt` to an arbitrary router via the domain's unicast routing
    /// (hop-by-hop along shortest-delay paths, every hop charged). This
    /// models IP tunnelling: intermediate routers forward without the
    /// multicast protocol seeing the packet. The receiver observes
    /// `from` = the last hop on the path.
    ///
    /// The packet is dropped (and partially charged, like a real packet
    /// making it partway) if the path crosses a dead link or node.
    pub fn unicast(&mut self, dst: NodeId, mut pkt: Packet<M>) {
        if pkt.origin == ORIGIN_UNSET {
            pkt.origin = self.node;
        }
        let key = (pkt.group.0, pkt.tag);
        if dst == self.node {
            let t = self.now;
            self.push(
                t,
                dst,
                EventKind::Deliver {
                    from: self.node,
                    corrupted: false,
                    pkt,
                },
            );
            return;
        }
        let Some(route) = self.paths.route(self.node, dst) else {
            self.observe_drop(DropReason::NoRoute, None, Some(key));
            return;
        };
        let mut at = self.now;
        // Channel impairments accumulate across the tunnel's hops: a
        // drop anywhere loses the packet (partially charged); corruption
        // and duplication stick to the final delivery (a mid-path copy
        // would fork the tunnel, which hop-by-hop forwarding without
        // protocol visibility cannot model — the copy's later hops go
        // uncharged, a documented approximation); jitter adds up.
        let mut corrupted = false;
        let mut duplicate = false;
        for hop in route.windows(2) {
            let (a, b) = (hop[0], hop[1]);
            if !self.paths.link_alive(a, b) {
                self.observe_drop(DropReason::DeadLink, None, Some(key));
                return;
            }
            let Some(depart) = self.reserve_link(a, b, at) else {
                self.observe_drop(DropReason::QueueFull, None, Some(key));
                return;
            };
            let w = self.paths.topo().link(a, b).expect("route follows links");
            self.charge(pkt.class, w.cost);
            let roll = self.transport.channel_roll(a, b);
            if roll.drop {
                self.observe_drop(DropReason::ChannelLoss, Some(b), Some(key));
                return;
            }
            corrupted |= roll.corrupt;
            duplicate |= roll.duplicate;
            at = depart + w.delay + self.note_jitter(roll.jitter, b, key);
        }
        let from = route[route.len() - 2];
        let dup = duplicate.then(|| pkt.clone());
        self.push(
            at,
            dst,
            EventKind::Deliver {
                from,
                corrupted,
                pkt,
            },
        );
        if let Some(pkt) = dup {
            self.note_duplicate(dst, key);
            self.push(
                at,
                dst,
                EventKind::Deliver {
                    from,
                    corrupted,
                    pkt,
                },
            );
        }
    }

    /// Arm a timer that fires `delay` ticks from now with `token`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        let t = self.now + delay;
        let node = self.node;
        self.push(t, node, EventKind::Timer { token });
    }

    /// Record delivery of a data payload to the member hosts attached to
    /// this router (the end of the multicast path).
    pub fn deliver_local(&mut self, pkt: &Packet<M>) {
        debug_assert_eq!(
            pkt.class,
            PacketClass::Data,
            "only data is delivered to hosts"
        );
        self.observe(TeleKind::DeliverLocal {
            group: pkt.group.0,
            tag: pkt.tag,
            delay: self.now.saturating_sub(pkt.created_at),
        });
    }

    /// Record a protocol-decision drop (e.g. a packet arriving from a
    /// router outside the forwarding set, §III-F) with no correlation
    /// key. Prefer [`Ctx::drop_packet_keyed`] when the packet is still
    /// in hand.
    pub fn drop_packet(&mut self) {
        self.observe_drop(DropReason::Protocol, None, None);
    }

    /// Record a protocol-decision drop of an identified packet, keeping
    /// its (group, tag) correlation key visible in journeys.
    pub fn drop_packet_keyed(&mut self, group: GroupId, tag: u64) {
        self.observe_drop(DropReason::Protocol, None, Some((group.0, tag)));
    }

    fn charge(&mut self, class: PacketClass, cost: u64) {
        match class {
            PacketClass::Data => {
                self.stats.data_overhead += cost;
                self.stats.data_hops += 1;
                if self.paths.degraded() {
                    self.stats.data_overhead_during_failure += cost;
                }
            }
            PacketClass::Control => {
                self.stats.protocol_overhead += cost;
                self.stats.control_hops += 1;
                if self.paths.degraded() {
                    self.stats.control_overhead_during_failure += cost;
                }
            }
        }
    }
}
