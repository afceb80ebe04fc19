//! Core-Based Trees (paper ref \[5\]).
//!
//! A single bidirectional shared tree per group, rooted at an elected
//! *core* router. Joining DRs send JOIN-REQUEST hop-by-hop toward the
//! core along unicast routes; the first on-tree router (or the core)
//! answers with a JOIN-ACK that travels back down the same path,
//! instantiating forwarding state — this ack-from-the-graft-node is
//! exactly the protocol-overhead difference §IV-B measures against
//! SCMP's root-to-member BRANCH packet.
//!
//! As in the paper's simulations: the core is given (no election), and
//! ECHO keepalives are off.

use crate::common::LocalMembers;
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Ctx, GroupId, Packet, Router};
use std::collections::{BTreeMap, BTreeSet};

/// CBT wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CbtMsg {
    /// Hop-by-hop join toward the core.
    JoinRequest,
    /// Instantiating acknowledgement from the graft point back down.
    JoinAck,
    /// Leaf quit notification to the parent.
    Quit,
    /// Payload on the shared tree.
    Data,
    /// Payload from an off-tree source, tunnelled to the core.
    EncapData,
}

/// Domain configuration for CBT.
#[derive(Clone, Copy, Debug)]
pub struct CbtConfig {
    /// The core router (§IV-A assumes it coincides with the source).
    pub core: NodeId,
}

/// Per-group forwarding state.
#[derive(Clone, Debug, Default)]
struct Entry {
    upstream: Option<NodeId>,
    children: BTreeSet<NodeId>,
    local: bool,
}

impl Entry {
    /// Children by ascending id, then the parent — borrowed in place.
    fn forwarding_set(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().copied().chain(self.upstream)
    }

    fn forwards_with(&self, v: NodeId) -> bool {
        self.upstream == Some(v) || self.children.contains(&v)
    }
}

/// The CBT router state machine.
pub struct CbtRouter {
    me: NodeId,
    config: CbtConfig,
    members: LocalMembers,
    entries: BTreeMap<GroupId, Entry>,
    /// Transient join state: children awaiting a JOIN-ACK, plus whether
    /// our own subnet is waiting.
    pending: BTreeMap<GroupId, (BTreeSet<NodeId>, bool)>,
}

impl CbtRouter {
    /// State machine for node `me`.
    pub fn new(me: NodeId, config: CbtConfig) -> Self {
        CbtRouter {
            me,
            config,
            members: LocalMembers::new(),
            entries: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }

    /// Forwarding entry for `group` (None = off-tree).
    pub fn on_tree(&self, group: GroupId) -> bool {
        self.is_core() || self.entries.contains_key(&group)
    }

    fn is_core(&self) -> bool {
        self.me == self.config.core
    }

    /// Entry accessor for tests.
    pub fn children(&self, group: GroupId) -> Vec<NodeId> {
        self.entries
            .get(&group)
            .map(|e| e.children.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Upstream accessor for tests.
    pub fn upstream(&self, group: GroupId) -> Option<NodeId> {
        self.entries.get(&group).and_then(|e| e.upstream)
    }

    fn start_join(&mut self, group: GroupId, ctx: &mut Ctx<'_, CbtMsg>) {
        if self.is_core() {
            self.entries.entry(group).or_default().local = true;
            return;
        }
        if let Some(e) = self.entries.get_mut(&group) {
            e.local = true;
            return;
        }
        let pending = self.pending.entry(group).or_default();
        pending.1 = true;
        // Forward a JOIN-REQUEST one hop toward the core (unless one is
        // already outstanding from this router).
        if pending.0.is_empty() && pending.1 {
            let next = ctx
                .routes()
                .next_hop(self.me, self.config.core)
                .expect("core reachable");
            ctx.send(next, Packet::control(group, CbtMsg::JoinRequest));
        }
    }

    fn handle_join_request(&mut self, from: NodeId, group: GroupId, ctx: &mut Ctx<'_, CbtMsg>) {
        if self.is_core() || self.entries.contains_key(&group) {
            // We are the graft point: ack instantiates the branch.
            if self.is_core() {
                self.entries.entry(group).or_default().children.insert(from);
            } else if let Some(e) = self.entries.get_mut(&group) {
                e.children.insert(from);
            }
            ctx.send(from, Packet::control(group, CbtMsg::JoinAck));
            return;
        }
        let pending = self.pending.entry(group).or_default();
        let had_state = !pending.0.is_empty() || pending.1;
        pending.0.insert(from);
        if !had_state {
            let next = ctx
                .routes()
                .next_hop(self.me, self.config.core)
                .expect("core reachable");
            ctx.send(next, Packet::control(group, CbtMsg::JoinRequest));
        }
    }

    fn handle_join_ack(&mut self, from: NodeId, group: GroupId, ctx: &mut Ctx<'_, CbtMsg>) {
        let Some((children, local)) = self.pending.remove(&group) else {
            return; // stale ack
        };
        let e = self.entries.entry(group).or_default();
        e.upstream = Some(from);
        e.local = e.local || local;
        for c in children {
            e.children.insert(c);
            ctx.send(c, Packet::control(group, CbtMsg::JoinAck));
        }
        // A join cancelled by a racing leave prunes itself right away.
        self.quit_if_orphan(group, ctx);
    }

    fn quit_if_orphan(&mut self, group: GroupId, ctx: &mut Ctx<'_, CbtMsg>) {
        if self.is_core() {
            return;
        }
        if let Some(e) = self.entries.get(&group) {
            if e.children.is_empty() && !e.local {
                if let Some(up) = e.upstream {
                    ctx.send(up, Packet::control(group, CbtMsg::Quit));
                }
                self.entries.remove(&group);
            }
        }
    }

    fn handle_quit(&mut self, from: NodeId, group: GroupId, ctx: &mut Ctx<'_, CbtMsg>) {
        if let Some(e) = self.entries.get_mut(&group) {
            e.children.remove(&from);
        }
        self.quit_if_orphan(group, ctx);
    }

    fn handle_leave(&mut self, group: GroupId, ctx: &mut Ctx<'_, CbtMsg>) {
        if !self.members.leave(group) {
            return;
        }
        if let Some(p) = self.pending.get_mut(&group) {
            p.1 = false;
        }
        if let Some(e) = self.entries.get_mut(&group) {
            e.local = false;
        }
        self.quit_if_orphan(group, ctx);
    }

    fn handle_send(&mut self, group: GroupId, tag: u64, ctx: &mut Ctx<'_, CbtMsg>) {
        if let Some(e) = self.entries.get(&group) {
            let pkt = Packet::data(group, tag, ctx.now(), CbtMsg::Data);
            if e.local {
                ctx.deliver_local(&pkt);
            }
            for to in e.forwarding_set() {
                ctx.send(to, pkt.clone());
            }
        } else if self.is_core() {
            // Core with no tree state: empty group.
        } else {
            let core = self.config.core;
            ctx.unicast(core, Packet::data(group, tag, ctx.now(), CbtMsg::EncapData));
        }
    }

    fn forward_data(&mut self, from: NodeId, pkt: Packet<CbtMsg>, ctx: &mut Ctx<'_, CbtMsg>) {
        let Some(e) = self.entries.get(&pkt.group) else {
            ctx.drop_packet();
            return;
        };
        if !e.forwards_with(from) {
            ctx.drop_packet();
            return;
        }
        if e.local {
            ctx.deliver_local(&pkt);
        }
        for to in e.forwarding_set() {
            if to != from {
                ctx.send(to, pkt.clone());
            }
        }
    }

    fn handle_encap(&mut self, pkt: Packet<CbtMsg>, ctx: &mut Ctx<'_, CbtMsg>) {
        if !self.is_core() {
            // Mid-path router saw a tunnelled packet (only possible if it
            // is the core's neighbour delivering); treat as misrouted.
            ctx.drop_packet();
            return;
        }
        let data = Packet {
            body: CbtMsg::Data,
            ..pkt
        };
        if let Some(e) = self.entries.get(&data.group) {
            if e.local {
                ctx.deliver_local(&data);
            }
            for &to in &e.children {
                ctx.send(to, data.clone());
            }
        }
    }
}

impl Router for CbtRouter {
    type Msg = CbtMsg;

    fn on_packet(&mut self, from: NodeId, pkt: Packet<CbtMsg>, ctx: &mut Ctx<'_, CbtMsg>) {
        match pkt.body {
            CbtMsg::JoinRequest => self.handle_join_request(from, pkt.group, ctx),
            CbtMsg::JoinAck => self.handle_join_ack(from, pkt.group, ctx),
            CbtMsg::Quit => self.handle_quit(from, pkt.group, ctx),
            CbtMsg::Data => self.forward_data(from, pkt, ctx),
            CbtMsg::EncapData => self.handle_encap(pkt, ctx),
        }
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, CbtMsg>) {
        match ev {
            AppEvent::Join(g) => {
                if self.members.join(g) {
                    self.start_join(g, ctx);
                }
            }
            AppEvent::Leave(g) => self.handle_leave(g, ctx),
            AppEvent::Send { group, tag } => self.handle_send(group, tag, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::topology::examples::fig5;
    use scmp_sim::Engine;

    const G: GroupId = GroupId(1);

    fn engine(core: NodeId) -> Engine<CbtRouter> {
        Engine::new(fig5(), move |me, _, _| {
            CbtRouter::new(me, CbtConfig { core })
        })
    }

    #[test]
    fn join_builds_branch_to_core() {
        let mut e = engine(NodeId(0));
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.run_to_quiescence();
        // Shortest-delay path 4-1-0: node 1 becomes a forwarder.
        assert!(e.router(NodeId(1)).on_tree(G));
        assert_eq!(e.router(NodeId(1)).upstream(G), Some(NodeId(0)));
        assert_eq!(e.router(NodeId(1)).children(G), vec![NodeId(4)]);
        assert_eq!(e.router(NodeId(0)).children(G), vec![NodeId(1)]);
    }

    #[test]
    fn second_join_grafts_at_first_on_tree_router() {
        let mut e = engine(NodeId(0));
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        // Node 5 joins later; its path to core is 5-2-0.
        e.schedule_app(1_000, NodeId(5), AppEvent::Join(G));
        e.run_to_quiescence();
        assert!(e.router(NodeId(2)).on_tree(G));
        assert_eq!(e.router(NodeId(2)).children(G), vec![NodeId(5)]);
        // Protocol overhead exists (join requests + acks).
        assert!(e.stats().protocol_overhead > 0);
    }

    #[test]
    fn data_reaches_all_members_once() {
        let mut e = engine(NodeId(0));
        for (t, n) in [(0, 4u32), (1_000, 3), (2_000, 5)] {
            e.schedule_app(t, NodeId(n), AppEvent::Join(G));
        }
        e.schedule_app(10_000, NodeId(4), AppEvent::Send { group: G, tag: 1 });
        e.run_to_quiescence();
        for m in [3u32, 4, 5] {
            assert_eq!(e.stats().delivery_count(G, 1, NodeId(m)), 1, "member {m}");
        }
        assert!(!e.stats().has_duplicate_deliveries());
    }

    #[test]
    fn off_tree_source_tunnels_to_core() {
        let mut e = engine(NodeId(0));
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.schedule_app(5_000, NodeId(5), AppEvent::Send { group: G, tag: 2 });
        e.run_to_quiescence();
        assert_eq!(e.stats().delivery_count(G, 2, NodeId(4)), 1);
    }

    #[test]
    fn quit_prunes_branch() {
        let mut e = engine(NodeId(0));
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.schedule_app(1_000, NodeId(5), AppEvent::Join(G));
        e.schedule_app(5_000, NodeId(4), AppEvent::Leave(G));
        e.run_to_quiescence();
        assert!(!e.router(NodeId(4)).on_tree(G));
        assert!(!e.router(NodeId(1)).on_tree(G), "forwarder pruned");
        assert!(e.router(NodeId(2)).on_tree(G), "other branch intact");
        assert_eq!(e.router(NodeId(0)).children(G), vec![NodeId(2)]);
    }

    #[test]
    fn concurrent_joins_share_transient_state() {
        // Nodes 3 and 5 both route through 2; only one JOIN-REQUEST
        // should leave node 2 toward the core.
        let mut e = engine(NodeId(0));
        e.schedule_app(0, NodeId(3), AppEvent::Join(G));
        e.schedule_app(0, NodeId(5), AppEvent::Join(G));
        e.run_to_quiescence();
        let kids = e.router(NodeId(2)).children(G);
        // 3 joins via direct link 3-0? Its shortest-delay path is 3-0
        // (delay 2). 5 joins via 5-2-0. So 2's children = {5} only.
        assert!(kids.contains(&NodeId(5)));
        assert!(e.router(NodeId(3)).on_tree(G));
        assert!(!e.stats().has_duplicate_deliveries());
    }

    #[test]
    fn core_local_membership() {
        let mut e = engine(NodeId(0));
        e.schedule_app(0, NodeId(0), AppEvent::Join(G));
        e.schedule_app(1_000, NodeId(4), AppEvent::Join(G));
        e.schedule_app(5_000, NodeId(4), AppEvent::Send { group: G, tag: 3 });
        e.run_to_quiescence();
        assert_eq!(e.stats().delivery_count(G, 3, NodeId(0)), 1);
    }

    #[test]
    fn churn_leaves_clean_state() {
        let mut e = engine(NodeId(0));
        let mut t = 0;
        for _ in 0..3 {
            for n in [3u32, 4, 5] {
                e.schedule_app(t, NodeId(n), AppEvent::Join(G));
                t += 200;
            }
            for n in [3u32, 4, 5] {
                e.schedule_app(t, NodeId(n), AppEvent::Leave(G));
                t += 200;
            }
        }
        e.run_to_quiescence();
        for v in 1..6u32 {
            assert!(!e.router(NodeId(v)).on_tree(G), "node {v} stale");
        }
        assert!(e.router(NodeId(0)).children(G).is_empty());
    }
}
