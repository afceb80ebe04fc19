//! The designated-router side of the state machine: host membership
//! (§III-B, §III-C), the data plane (§III-F) and TREE/BRANCH/PRUNE
//! processing (§III-E). Everything here runs on every router; the
//! m-router-only logic lives in the sibling `mrouter` module.

use super::timer::{Attempts, Series, Timer};
use super::{PendingTree, ScmpRouter, SoftState};
use crate::igmp::{HostId, MembershipEdge};
use crate::message::ScmpMsg;
use crate::tree_packet::{BranchPacket, TreePacket};
use scmp_net::NodeId;
use scmp_sim::{Ctx, GroupId, Packet, PacketClass};
use scmp_telemetry::EventKind;

impl ScmpRouter {
    // ------------------------------------------------------------------
    // Member joining / leaving (§III-B, §III-C)
    // ------------------------------------------------------------------

    pub(super) fn handle_host_join(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        let host = HostId(self.next_host);
        self.next_host += 1;
        let edge = self.subnet.host_join(host, group);
        if edge != MembershipEdge::FirstJoined(group) {
            return;
        }
        let txn = self.fresh_txn();
        // Already on the tree: just open the interface; the JOIN is
        // still sent "for possible accounting and billing purposes".
        let entry = self.entry_mut(group);
        let on_tree = entry.map(|e| e.local_interface = true).is_some();
        let retry = self.domain.config.join_retry;
        let soft = self.soft_mut(group);
        // Joining again ends a LEAVE still awaiting its ack: resending
        // it would make the m-router drop a member that is back.
        soft.leave = None;
        let series = soft.join.get_or_insert_default();
        series.txn = Some(txn);
        if !on_tree && retry > 0 {
            series.attempts = Attempts::default();
            ctx.set_timer(retry, Timer::JoinRetry(group).token());
        }
        let m = self.m_router_for(group);
        let me = self.me;
        ctx.unicast(
            m,
            Packet::control_keyed(group, txn, ScmpMsg::Join { requester: me }),
        );
    }

    /// JOIN retry: if the subnet still wants the group but no tree state
    /// arrived (the JOIN or its TREE/BRANCH answer was lost), resend.
    pub(super) fn retry_join_if_unanswered(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        let wants = self.subnet.has_members(group);
        let answered = self.entry(group).is_some_and(|e| e.local_interface);
        if !wants || answered || self.is_m_router() {
            self.clear_soft(group, |s| s.join = None);
        } else {
            self.resend_series(group, false, ctx);
        }
    }

    /// LEAVE retry: the m-router never acked, so either the LEAVE or the
    /// LEAVE-ACK was lost; resend until acked or exhausted.
    pub(super) fn retry_leave_if_unacked(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        if self.soft(group).is_some_and(|s| s.leave.is_some()) {
            self.resend_series(group, true, ctx);
        }
    }

    /// Retransmit the group's JOIN (or, with `leave`, its LEAVE) to the
    /// m-router and re-arm the retry timer with backoff; past
    /// [`MAX_RETRIES`](super::timer::MAX_RETRIES) the series is dropped
    /// instead. A series whose trace key a takeover cleared mints a
    /// fresh one here.
    fn resend_series(&mut self, group: GroupId, leave: bool, ctx: &mut Ctx<'_, ScmpMsg>) {
        let (me, cfg) = (self.me, &self.domain.config);
        let (base, body, timer) = if leave {
            let body = ScmpMsg::Leave { requester: me };
            (cfg.leave_retry, body, Timer::LeaveRetry(group))
        } else {
            let body = ScmpMsg::Join { requester: me };
            (cfg.join_retry, body, Timer::JoinRetry(group))
        };
        let mut series = None;
        self.clear_soft(group, |s| series = Self::series(s, leave).take());
        let mut series = series.unwrap_or_default();
        let Some(delay) = series.attempts.next(base) else {
            return;
        };
        let txn = *series.txn.get_or_insert_with(|| self.fresh_txn());
        *Self::series(self.soft_mut(group), leave) = Some(series);
        let m = self.m_router_for(group);
        ctx.unicast(m, Packet::control_keyed(group, txn, body));
        ctx.set_timer(delay, timer.token());
    }

    /// The LEAVE series with `leave`, else the JOIN series.
    fn series(soft: &mut SoftState, leave: bool) -> &mut Option<Series> {
        if leave {
            &mut soft.leave
        } else {
            &mut soft.join
        }
    }

    /// The subnet's newest member host leaves (ids only grow).
    pub(super) fn handle_host_leave(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        let Some(host) = self.subnet.newest_member(group) else {
            return; // no joined host to leave
        };
        let edge = self.subnet.host_leave(host, group);
        if edge != MembershipEdge::LastLeft(group) {
            return;
        }
        // The subnet no longer wants the group: a JOIN retry would only
        // drop the series.
        self.clear_soft(group, |s| s.join = None);
        // One transaction covers the whole departure: the hop-by-hop
        // PRUNE and the LEAVE/LEAVE-ACK exchange share the key.
        let txn = self.fresh_txn();
        // A leaf PRUNEs upstream and forgets its entry; the LEAVE goes
        // out in every case (for accounting only while still forwarding).
        if let Some(entry) = self.entry_mut(group) {
            entry.local_interface = false;
            if entry.is_prunable() {
                if let Some(up) = entry.upstream {
                    ctx.send(up, Packet::control_keyed(group, txn, ScmpMsg::Prune));
                }
                self.reclaim(group, |s| s.entry = None);
            }
        }
        let (m, me) = (self.m_router_for(group), self.me);
        ctx.unicast(
            m,
            Packet::control_keyed(group, txn, ScmpMsg::Leave { requester: me }),
        );
        let retry = self.domain.config.leave_retry;
        if retry > 0 {
            self.soft_mut(group).leave = Some(Series {
                txn: Some(txn),
                ..Series::default()
            });
            ctx.set_timer(retry, Timer::LeaveRetry(group).token());
        }
    }

    // ------------------------------------------------------------------
    // Data plane (§III-F)
    // ------------------------------------------------------------------

    pub(super) fn handle_host_send(
        &mut self,
        group: GroupId,
        tag: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        // Reliability tier: stamp the payload with the next sequence of
        // this node's (group, origin=me) stream and cache it for
        // repairs (0 = tier off, plain §III-F semantics).
        let seq = self.rel_stamp_send(group, tag, ctx);
        if self.entry(group).is_some() {
            let pkt = Packet::data(group, tag, ctx.now(), ScmpMsg::Data { seq });
            self.fan_out(&pkt, None, false, ctx);
        } else {
            // Off-tree source: encapsulate toward the m-router (§III-F).
            let m = self.m_router_for(group);
            let pkt = Packet::data(group, tag, ctx.now(), ScmpMsg::EncapData { seq });
            ctx.unicast(m, pkt);
        }
    }

    pub(super) fn forward_on_tree(
        &mut self,
        from: NodeId,
        pkt: Packet<ScmpMsg>,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let Some(entry) = self.entry(pkt.group) else {
            ctx.drop_packet();
            return;
        };
        if !entry.forwards_with(from) {
            // §III-F: packets from routers outside F are dropped.
            ctx.drop_packet();
            return;
        }
        let seq = match pkt.body {
            ScmpMsg::Data { seq } => seq,
            _ => 0,
        };
        if seq > 0 {
            // Reliability tier: per-stream sequence state is the
            // authoritative dedup (and gap detector) for sequenced
            // payloads.
            if !self.rel_observe_data(
                pkt.group,
                pkt.origin,
                seq,
                pkt.tag,
                pkt.created_at,
                Some(from),
                false,
                ctx,
            ) {
                ctx.drop_packet_keyed(pkt.group, pkt.tag);
                return;
            }
        } else if !self
            .recent_data
            .insert((pkt.group.0, pkt.origin.0, pkt.tag, false))
        {
            // A channel-duplicated copy already forwarded: suppress it,
            // or every member below would receive the payload twice.
            ctx.drop_packet();
            return;
        }
        self.fan_out(&pkt, Some(from), false, ctx);
    }

    /// The §III-F fan-out of `pkt` over its group's entry (none: an
    /// empty group at the root): the local subnet for data when the
    /// interface is on, then every router in F but `from` (with `down`
    /// only the downstream ones: the root re-sending a decapsulation).
    pub(super) fn fan_out(
        &self,
        pkt: &Packet<ScmpMsg>,
        from: Option<NodeId>,
        down: bool,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let Some(entry) = self.entry(pkt.group) else {
            return;
        };
        if entry.local_interface && pkt.class == PacketClass::Data {
            ctx.deliver_local(pkt);
        }
        // F ends with the upstream: `take` drops it when `down`.
        let n = entry.downstream_routers.len() + usize::from(!down);
        for to in entry.forwarding_set().take(n) {
            if Some(to) != from {
                ctx.send(to, pkt.clone());
            }
        }
    }

    pub(super) fn handle_encap_data(&mut self, pkt: Packet<ScmpMsg>, ctx: &mut Ctx<'_, ScmpMsg>) {
        if !self.is_m_router() {
            // Stale sender configuration (e.g. right after a takeover):
            // relay toward the address we believe in, unless that's us.
            let m = self.m_router_for(pkt.group);
            if m != self.me {
                ctx.unicast(m, pkt);
            } else {
                ctx.drop_packet();
            }
            return;
        }
        let seq = match pkt.body {
            ScmpMsg::EncapData { seq } => seq,
            _ => 0,
        };
        if seq > 0 {
            // Reliability tier: track the encapsulation leg as a
            // per-origin stream — the m-router NACKs the origin over
            // unicast for anything the leg lost.
            if !self.rel_observe_data(
                pkt.group,
                pkt.origin,
                seq,
                pkt.tag,
                pkt.created_at,
                None,
                true,
                ctx,
            ) {
                ctx.drop_packet_keyed(pkt.group, pkt.tag);
                return;
            }
        } else if !self
            .recent_data
            .insert((pkt.group.0, pkt.origin.0, pkt.tag, true))
        {
            // Channel-duplicated encapsulation: decapsulating it again
            // would push a second copy down the whole tree.
            ctx.drop_packet();
            return;
        }
        // Decapsulate and push down the tree (§III-F).
        let data = Packet {
            body: ScmpMsg::Data { seq },
            ..pkt
        };
        self.fan_out(&data, None, true, ctx);
        if seq > 0 {
            // Restart the downstream announce series so members learn
            // the stream extent even when the flood's tail is lost.
            self.rel_kick_announce(data.group, data.origin, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Tree distribution (§III-E)
    // ------------------------------------------------------------------

    /// A TREE/BRANCH packet is stale when an equal-or-newer generation
    /// has already been installed or flushed.
    pub(super) fn is_stale(&self, group: GroupId, gen: u64) -> bool {
        if self.flushed.get(&group).is_some_and(|&fg| gen <= fg) {
            return true;
        }
        self.entry(group).is_some_and(|e| gen <= e.gen)
    }

    pub(super) fn install_tree_packet(
        &mut self,
        from: NodeId,
        group: GroupId,
        gen: u64,
        tp: TreePacket,
        txn: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        self.ack_tree_packet(from, group, gen, txn, ctx);
        if self.is_stale(group, gen) {
            ctx.drop_packet_keyed(group, txn);
            return;
        }
        let entry = self.install_under(from, group, gen, txn, ctx);
        entry.downstream_routers = tp.downstream_routers().into_iter().collect();
        for (child, sub) in tp.split() {
            let pkt = Packet::control_keyed(group, txn, ScmpMsg::Tree { gen, packet: sub });
            self.send_tree_tracked(group, child, gen, pkt, ctx);
        }
        self.prune_if_orphaned(group, txn, ctx);
    }

    pub(super) fn install_branch_packet(
        &mut self,
        from: NodeId,
        group: GroupId,
        gen: u64,
        bp: BranchPacket,
        txn: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        self.ack_tree_packet(from, group, gen, txn, ctx);
        if self.is_stale(group, gen) {
            // A newer TREE refresh already encodes this (or a newer)
            // tree; the stale branch must not resurrect old edges.
            ctx.drop_packet_keyed(group, txn);
            return;
        }
        let (next, rest) = bp.advance(self.me);
        let entry = self.install_under(from, group, gen, txn, ctx);
        if let Some(next) = next {
            entry.downstream_routers.insert(next);
            let pkt = Packet::control_keyed(group, txn, ScmpMsg::Branch { gen, packet: rest });
            self.send_tree_tracked(group, next, gen, pkt, ctx);
        } else {
            self.prune_if_orphaned(group, txn, ctx);
        }
    }

    /// The install common to TREE and BRANCH: the group's entry, now
    /// under parent `from` at `gen`, answers the JOIN series.
    fn install_under(
        &mut self,
        from: NodeId,
        group: GroupId,
        gen: u64,
        txn: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) -> &mut super::RoutingEntry {
        self.clear_soft(group, |s| s.join = None);
        // The DR's subnet is the ground truth for the local interface:
        // a concurrent restructure may have flushed an entry (losing the
        // flag) while this router's own JOIN was still in flight.
        let local = self.subnet.has_members(group);
        let entry = self.entry_or_default(group);
        let old_upstream = entry.upstream.replace(from);
        entry.gen = gen;
        entry.local_interface = local;
        // Moving under a new parent: tell the old one to stop forwarding
        // to us, or it would keep a stale child pointer forever.
        if let Some(old) = old_upstream.filter(|&old| old != from) {
            ctx.send(old, Packet::control_keyed(group, txn, ScmpMsg::Prune));
        }
        entry
    }

    // ------------------------------------------------------------------
    // Hop-by-hop TREE/BRANCH ARQ (robustness extension)
    // ------------------------------------------------------------------
    // Tree distribution is relayed parent → child along tree edges, so
    // a single unprotected hop would cap the end-to-end install
    // probability at the worst link's delivery rate. Instead *every*
    // sender — the m-router and each relaying DR — tracks its own
    // transmissions to direct children and retransmits until TREE-ACKed
    // (bounded by `MAX_RETRIES`). A JOIN retried by the member remains
    // the end-to-end backstop once the hop budget is exhausted.

    /// Send a TREE/BRANCH packet to a direct child, registering it for
    /// retransmission until TREE-ACKed when `tree_retry > 0`.
    pub(super) fn send_tree_tracked(
        &mut self,
        group: GroupId,
        child: NodeId,
        gen: u64,
        pkt: Packet<ScmpMsg>,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let retry = self.domain.config.tree_retry;
        if retry == 0 {
            ctx.send(child, pkt);
            return;
        }
        ctx.send(child, pkt.clone());
        let deadline = ctx.now().saturating_add(retry);
        self.soft_mut(group).pending_trees.insert(
            child,
            PendingTree {
                gen,
                attempts: Attempts::default(),
                pkt,
                deadline,
            },
        );
        ctx.set_timer(retry, Timer::TreeRetry(group, child).token());
    }

    /// TREE-retry timer fired: resend the pending packet with backoff,
    /// giving up after [`MAX_RETRIES`](super::timer::MAX_RETRIES).
    pub(super) fn retry_tree_if_unacked(
        &mut self,
        group: GroupId,
        child: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let retry = self.domain.config.tree_retry;
        let now = ctx.now();
        let Some(p) = self
            .soft_get_mut(group)
            .and_then(|s| s.pending_trees.get_mut(&child))
        else {
            return; // acked in the meantime
        };
        if now < p.deadline {
            return; // stale timer from a superseded arming
        }
        let Some(delay) = p.attempts.next(retry) else {
            self.clear_soft(group, |s| _ = s.pending_trees.remove(&child));
            return;
        };
        let attempt = p.attempts.count();
        let pkt = p.pkt.clone();
        let tag = pkt.tag;
        p.deadline = now.saturating_add(delay);
        ctx.send(child, pkt);
        ctx.observe(EventKind::Retransmit {
            group: group.0,
            to: child.0,
            attempt,
            tag,
        });
        ctx.set_timer(delay, Timer::TreeRetry(group, child).token());
    }

    /// TREE-ACK from a direct child: clear the pending transmission,
    /// unless the ack is for an older generation than the one in flight.
    pub(super) fn handle_tree_ack(&mut self, group: GroupId, from: NodeId, gen: u64) {
        if self
            .soft(group)
            .and_then(|s| s.pending_trees.get(&from))
            .is_some_and(|p| gen >= p.gen)
        {
            self.clear_soft(group, |s| _ = s.pending_trees.remove(&from));
        }
    }

    /// Acknowledge a TREE/BRANCH packet to the parent that relayed it,
    /// when the domain runs the tree ARQ (`tree_retry > 0`). Stale
    /// packets are acked too: the parent's retransmission must stop once
    /// *any* copy got through, even if a newer generation overtook it in
    /// flight.
    fn ack_tree_packet(
        &mut self,
        from: NodeId,
        group: GroupId,
        gen: u64,
        txn: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        if self.domain.config.tree_retry > 0 {
            ctx.send(
                from,
                Packet::control_keyed(group, txn, ScmpMsg::TreeAck { gen }),
            );
        }
    }

    /// A just-installed leaf entry with no local members (the join was
    /// cancelled by a leave racing past it) prunes itself immediately,
    /// inheriting the transaction key of whatever triggered the check.
    fn prune_if_orphaned(&mut self, group: GroupId, txn: u64, ctx: &mut Ctx<'_, ScmpMsg>) {
        if self.is_m_router() {
            return;
        }
        if let Some(entry) = self.entry(group) {
            if entry.is_prunable() {
                if let Some(up) = entry.upstream {
                    ctx.send(up, Packet::control_keyed(group, txn, ScmpMsg::Prune));
                }
                self.reclaim(group, |s| s.entry = None);
            }
        }
    }

    pub(super) fn handle_prune(
        &mut self,
        from: NodeId,
        group: GroupId,
        txn: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let Some(entry) = self.entry_mut(group) else {
            return;
        };
        entry.downstream_routers.remove(&from);
        if !self.is_m_router() {
            self.prune_if_orphaned(group, txn, ctx);
        }
    }
}
