//! The designated-router side of the state machine: host membership
//! (§III-B, §III-C), the data plane (§III-F) and TREE/BRANCH/PRUNE
//! processing (§III-E). Everything here runs on every router; the
//! m-router-only logic lives in the sibling `mrouter` module.

use super::{
    PendingTree, ScmpRouter, BACKOFF_CAP, MAX_RETRIES, TIMER_JOIN_RETRY_BASE,
    TIMER_LEAVE_RETRY_BASE,
};
use crate::igmp::{HostId, MembershipEdge};
use crate::message::ScmpMsg;
use crate::tree_packet::{BranchPacket, TreePacket};
use scmp_net::NodeId;
use scmp_sim::{Ctx, GroupId, Packet};
use scmp_telemetry::EventKind;

impl ScmpRouter {
    // ------------------------------------------------------------------
    // Member joining / leaving (§III-B, §III-C)
    // ------------------------------------------------------------------

    pub(super) fn handle_host_join(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        let host = HostId(self.next_host);
        self.next_host += 1;
        let edge = self.subnet.host_join(host, group);
        self.joined_hosts.entry(group).or_default().push(host);
        if edge != MembershipEdge::FirstJoined(group) {
            return;
        }
        if let Some(entry) = self.entries.get_mut(&group) {
            // Already on the tree: just open the interface; the JOIN is
            // still sent "for possible accounting and billing purposes".
            entry.local_interface = true;
        } else {
            self.pending_interfaces.insert(group);
            let retry = self.domain.config.join_retry;
            if retry > 0 {
                self.join_attempts.insert(group, 0);
                ctx.set_timer(retry, TIMER_JOIN_RETRY_BASE + group.0 as u64);
            }
        }
        let txn = self.fresh_txn();
        self.join_txns.insert(group, txn);
        let m = self.m_router_for(group);
        let me = self.me;
        ctx.unicast(
            m,
            Packet::control_keyed(group, txn, ScmpMsg::Join { requester: me }),
        );
    }

    /// The trace key of the group's in-flight JOIN series, minting one
    /// when the series started before keys existed (e.g. restarted
    /// toward a new m-router after a takeover).
    fn join_txn(&mut self, group: GroupId) -> u64 {
        match self.join_txns.get(&group) {
            Some(&t) => t,
            None => {
                let t = self.fresh_txn();
                self.join_txns.insert(group, t);
                t
            }
        }
    }

    /// JOIN retry: if the subnet still wants the group but no tree state
    /// arrived (the JOIN or its TREE/BRANCH answer was lost), resend with
    /// exponential backoff, giving up after [`MAX_RETRIES`].
    pub(super) fn retry_join_if_unanswered(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        let wants = self.subnet.has_members(group);
        let answered = self
            .entries
            .get(&group)
            .is_some_and(|e| e.local_interface || !wants);
        if !wants || answered || self.is_m_router() {
            self.join_attempts.remove(&group);
            self.join_txns.remove(&group);
            return;
        }
        let attempt = self.join_attempts.entry(group).or_insert(0);
        *attempt += 1;
        if *attempt > MAX_RETRIES {
            self.join_attempts.remove(&group);
            self.join_txns.remove(&group);
            return;
        }
        let backoff = self.domain.config.join_retry << (*attempt).min(BACKOFF_CAP);
        self.pending_interfaces.insert(group);
        let txn = self.join_txn(group);
        let m = self.m_router_for(group);
        let me = self.me;
        ctx.unicast(
            m,
            Packet::control_keyed(group, txn, ScmpMsg::Join { requester: me }),
        );
        if self.domain.config.join_retry > 0 {
            ctx.set_timer(backoff, TIMER_JOIN_RETRY_BASE + group.0 as u64);
        }
    }

    /// LEAVE retry: the m-router never acked, so either the LEAVE or the
    /// LEAVE-ACK was lost; resend with backoff until acked or exhausted.
    pub(super) fn retry_leave_if_unacked(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        let Some(attempt) = self.pending_leaves.get_mut(&group) else {
            return; // acked in the meantime
        };
        *attempt += 1;
        let attempt = *attempt;
        if attempt > MAX_RETRIES {
            self.pending_leaves.remove(&group);
            self.leave_txns.remove(&group);
            return;
        }
        let backoff = self.domain.config.leave_retry << attempt.min(BACKOFF_CAP);
        let txn = match self.leave_txns.get(&group) {
            Some(&t) => t,
            None => {
                let t = self.fresh_txn();
                self.leave_txns.insert(group, t);
                t
            }
        };
        let m = self.m_router_for(group);
        let me = self.me;
        ctx.unicast(
            m,
            Packet::control_keyed(group, txn, ScmpMsg::Leave { requester: me }),
        );
        ctx.set_timer(backoff, TIMER_LEAVE_RETRY_BASE + group.0 as u64);
    }

    pub(super) fn handle_host_leave(&mut self, group: GroupId, ctx: &mut Ctx<'_, ScmpMsg>) {
        let Some(host) = self.joined_hosts.get_mut(&group).and_then(|v| v.pop()) else {
            return; // no joined host to leave
        };
        let edge = self.subnet.host_leave(host, group);
        if edge != MembershipEdge::LastLeft(group) {
            return;
        }
        self.pending_interfaces.remove(&group);
        // One transaction covers the whole departure: the hop-by-hop
        // PRUNE and the LEAVE/LEAVE-ACK exchange share the key.
        let txn = self.fresh_txn();
        let mut send_leave = false;
        if let Some(entry) = self.entries.get_mut(&group) {
            entry.local_interface = false;
            if entry.is_prunable() {
                // Became a leaf: PRUNE upstream and forget the entry.
                if let Some(up) = entry.upstream {
                    ctx.send(up, Packet::control_keyed(group, txn, ScmpMsg::Prune));
                }
                self.entries.remove(&group);
                send_leave = true;
            } else if !entry.downstream_routers.is_empty() {
                // Still forwarding for children: LEAVE for accounting only.
                send_leave = true;
            }
        } else {
            // Leave raced ahead of the BRANCH/TREE install.
            send_leave = true;
        }
        if send_leave {
            self.leave_txns.insert(group, txn);
            let m = self.m_router_for(group);
            let me = self.me;
            ctx.unicast(
                m,
                Packet::control_keyed(group, txn, ScmpMsg::Leave { requester: me }),
            );
            let retry = self.domain.config.leave_retry;
            if retry > 0 {
                self.pending_leaves.insert(group, 0);
                ctx.set_timer(retry, TIMER_LEAVE_RETRY_BASE + group.0 as u64);
            }
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
        if let Some(entry) = self.entries.get(&group) {
            let pkt = Packet::data(group, tag, ctx.now(), ScmpMsg::Data { seq });
            if entry.local_interface {
                ctx.deliver_local(&pkt);
            }
            for to in entry.forwarding_set() {
                ctx.send(to, pkt.clone());
            }
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
        let Some(entry) = self.entries.get(&pkt.group) else {
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
        let entry = self.entries.get(&pkt.group).expect("entry checked above");
        if entry.local_interface {
            ctx.deliver_local(&pkt);
        }
        for to in entry.forwarding_set() {
            if to != from {
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
        if let Some(entry) = self.entries.get(&data.group) {
            if entry.local_interface {
                ctx.deliver_local(&data);
            }
            for &to in &entry.downstream_routers {
                ctx.send(to, data.clone());
            }
        }
        // No entry: empty group, payload evaporates at the root.
        if seq > 0 {
            // Restart the downstream announce series so members learn
            // the stream extent even when the flood's tail is lost.
            if let Some(cfg) = self.domain.config.reliability.clone() {
                self.rel_kick_announce(data.group, data.origin, &cfg, ctx);
            }
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
        self.entries.get(&group).is_some_and(|e| gen <= e.gen)
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
        // The DR's subnet is the ground truth for the local interface:
        // a concurrent restructure may have flushed an entry (losing the
        // flag) while this router's own JOIN was still in flight.
        self.pending_interfaces.remove(&group);
        self.join_attempts.remove(&group);
        self.join_txns.remove(&group);
        let local = self.subnet.has_members(group);
        let entry = self.entries.entry(group).or_default();
        let old_upstream = entry.upstream;
        entry.upstream = Some(from);
        entry.downstream_routers = tp.downstream_routers().into_iter().collect();
        entry.gen = gen;
        entry.local_interface = local;
        // Moving under a new parent: tell the old one to stop forwarding
        // to us, or it would keep a stale child pointer forever.
        if let Some(old) = old_upstream {
            if old != from {
                ctx.send(old, Packet::control_keyed(group, txn, ScmpMsg::Prune));
            }
        }
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
        self.pending_interfaces.remove(&group);
        self.join_attempts.remove(&group);
        self.join_txns.remove(&group);
        let local = self.subnet.has_members(group);
        let entry = self.entries.entry(group).or_default();
        let old_upstream = entry.upstream;
        entry.upstream = Some(from);
        entry.gen = gen;
        entry.local_interface = local;
        if let Some(old) = old_upstream {
            if old != from {
                ctx.send(old, Packet::control_keyed(group, txn, ScmpMsg::Prune));
            }
        }
        if let Some(next) = next {
            entry.downstream_routers.insert(next);
            let pkt = Packet::control_keyed(group, txn, ScmpMsg::Branch { gen, packet: rest });
            self.send_tree_tracked(group, next, gen, pkt, ctx);
        } else {
            self.prune_if_orphaned(group, txn, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Hop-by-hop TREE/BRANCH ARQ (robustness extension)
    // ------------------------------------------------------------------
    // Tree distribution is relayed parent → child along tree edges, so
    // a single unprotected hop would cap the end-to-end install
    // probability at the worst link's delivery rate. Instead *every*
    // sender — the m-router and each relaying DR — tracks its own
    // transmissions to direct children and retransmits until TREE-ACKed
    // (bounded by [`MAX_RETRIES`]). A JOIN retried by the member remains
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
        let deadline = ctx.now() + retry;
        self.pending_trees.insert(
            (group, child),
            PendingTree {
                gen,
                attempts: 0,
                pkt,
                deadline,
            },
        );
        ctx.set_timer(retry, super::tree_retry_token(group, child));
    }

    /// TREE-retry timer fired: resend the pending packet with backoff,
    /// giving up after [`MAX_RETRIES`].
    pub(super) fn retry_tree_if_unacked(
        &mut self,
        group: GroupId,
        child: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let retry = self.domain.config.tree_retry;
        let now = ctx.now();
        let Some(p) = self.pending_trees.get_mut(&(group, child)) else {
            return; // acked in the meantime
        };
        if now < p.deadline {
            return; // stale timer from a superseded arming
        }
        p.attempts += 1;
        if p.attempts > MAX_RETRIES {
            self.pending_trees.remove(&(group, child));
            return;
        }
        let attempt = p.attempts;
        let pkt = p.pkt.clone();
        let tag = pkt.tag;
        let delay = retry << attempt.min(BACKOFF_CAP);
        p.deadline = now + delay;
        ctx.send(child, pkt);
        ctx.observe(EventKind::Retransmit {
            group: group.0,
            to: child.0,
            attempt,
            tag,
        });
        ctx.set_timer(delay, super::tree_retry_token(group, child));
    }

    /// TREE-ACK from a direct child: clear the pending transmission,
    /// unless the ack is for an older generation than the one in flight.
    pub(super) fn handle_tree_ack(&mut self, group: GroupId, from: NodeId, gen: u64) {
        if self
            .pending_trees
            .get(&(group, from))
            .is_some_and(|p| gen >= p.gen)
        {
            self.pending_trees.remove(&(group, from));
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
        if let Some(entry) = self.entries.get(&group) {
            if entry.is_prunable() {
                if let Some(up) = entry.upstream {
                    ctx.send(up, Packet::control_keyed(group, txn, ScmpMsg::Prune));
                }
                self.entries.remove(&group);
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
        let Some(entry) = self.entries.get_mut(&group) else {
            return;
        };
        entry.downstream_routers.remove(&from);
        if !self.is_m_router() {
            self.prune_if_orphaned(group, txn, ctx);
        }
    }
}
