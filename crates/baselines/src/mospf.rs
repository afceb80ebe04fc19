//! MOSPF — Multicast Extensions to OSPF (paper ref \[3\]).
//!
//! Every router holds the full link-state database (here: the shared
//! topology) plus a group-membership database fed by
//! *group-membership-LSAs* that DRs flood domain-wide on every first
//! join / last leave — the flooding the paper identifies as MOSPF's
//! steep protocol overhead ("whenever a group member wants to join or
//! leave the group, the DR will flood a group-membership-LSA throughout
//! the domain").
//!
//! Data travels on per-(source) shortest-delay trees: each router
//! independently computes the SPT rooted at the source from the shared
//! database and forwards to exactly those SPT children whose subtrees
//! contain members. Because every router computes over identical data
//! with identical tie-breaking, the distributed decisions agree and each
//! member receives exactly one copy at unicast delay.
//!
//! Every router reads its SPTs from the healthy store of the engine's
//! one path store (`ctx.routes().healthy()`) — the simulation-level
//! analogue of "every router computes over the same link-state
//! database": one Dijkstra per source serves the whole domain instead
//! of one per (router, packet). The SPTs ignore faults.

use crate::common::LocalMembers;
use scmp_net::{Metric, NodeId};
use scmp_sim::{AppEvent, Ctx, GroupId, Packet, Router};
use std::collections::{BTreeMap, BTreeSet};

/// MOSPF wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MospfMsg {
    /// Group-membership LSA: `origin`'s subnet has (`member` = true) or
    /// no longer has (`member` = false) members of the packet's group.
    Lsa {
        origin: NodeId,
        member: bool,
        seq: u64,
    },
    /// Payload forwarded on the source-rooted SPT.
    Data { source: NodeId },
}

/// The MOSPF router state machine.
pub struct MospfRouter {
    me: NodeId,
    members: LocalMembers,
    /// Domain-wide membership database: group -> DRs with members.
    group_db: BTreeMap<GroupId, BTreeSet<NodeId>>,
    /// Flood dedup: highest LSA seq seen per origin.
    lsa_seen: BTreeMap<NodeId, u64>,
    /// Own LSA sequence counter.
    my_seq: u64,
    /// Forwarding cache: (group, source, membership-version) -> the SPT
    /// children of `me` that lead to members.
    cache: BTreeMap<(GroupId, NodeId), (u64, Vec<NodeId>, bool)>,
    /// Monotone membership version for cache invalidation.
    version: u64,
}

impl MospfRouter {
    /// State machine for node `me`.
    pub fn new(me: NodeId) -> Self {
        MospfRouter {
            me,
            members: LocalMembers::new(),
            group_db: BTreeMap::new(),
            lsa_seen: BTreeMap::new(),
            my_seq: 0,
            cache: BTreeMap::new(),
            version: 0,
        }
    }

    /// Test accessor: DRs the database lists for `group`.
    pub fn known_members(&self, group: GroupId) -> Vec<NodeId> {
        self.group_db
            .get(&group)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    fn apply_lsa(&mut self, group: GroupId, origin: NodeId, member: bool) {
        let set = self.group_db.entry(group).or_default();
        let changed = if member {
            set.insert(origin)
        } else {
            set.remove(&origin)
        };
        if changed {
            self.version += 1;
        }
    }

    fn flood_lsa(
        &mut self,
        group: GroupId,
        origin: NodeId,
        member: bool,
        seq: u64,
        exclude: Option<NodeId>,
        ctx: &mut Ctx<'_, MospfMsg>,
    ) {
        let neighbors: Vec<NodeId> = ctx.topo().neighbors(self.me).iter().map(|e| e.to).collect();
        for n in neighbors {
            if Some(n) != exclude {
                ctx.send(
                    n,
                    Packet::control(
                        group,
                        MospfMsg::Lsa {
                            origin,
                            member,
                            seq,
                        },
                    ),
                );
            }
        }
    }

    fn originate_lsa(&mut self, group: GroupId, member: bool, ctx: &mut Ctx<'_, MospfMsg>) {
        self.my_seq += 1;
        let seq = self.my_seq;
        let me = self.me;
        self.lsa_seen.insert(me, seq);
        self.apply_lsa(group, me, member);
        self.flood_lsa(group, me, member, seq, None, ctx);
    }

    /// The SPT children of `me` (for a tree rooted at `source`) whose
    /// subtrees contain group members, plus whether `me` itself is on a
    /// member path. Cached per (group, source) and membership version.
    fn forward_targets(
        &mut self,
        group: GroupId,
        source: NodeId,
        ctx: &Ctx<'_, MospfMsg>,
    ) -> (Vec<NodeId>, bool) {
        if let Some((v, targets, on_path)) = self.cache.get(&(group, source)) {
            if *v == self.version {
                return (targets.clone(), *on_path);
            }
        }
        let spt = ctx.routes().healthy().tree(source, Metric::Delay);
        // Mark every node on a source->member path.
        let mut needed = vec![false; ctx.topo().node_count()];
        if let Some(members) = self.group_db.get(&group) {
            for &m in members {
                let mut cur = m;
                loop {
                    if needed[cur.index()] {
                        break;
                    }
                    needed[cur.index()] = true;
                    match spt.predecessor(cur) {
                        Some(p) => cur = p,
                        None => break,
                    }
                }
            }
        }
        let on_path = needed[self.me.index()];
        // Children of me in the SPT: neighbours whose predecessor is me.
        let targets: Vec<NodeId> = ctx
            .topo()
            .neighbors(self.me)
            .iter()
            .map(|e| e.to)
            .filter(|&n| spt.predecessor(n) == Some(self.me) && needed[n.index()])
            .collect();
        self.cache
            .insert((group, source), (self.version, targets.clone(), on_path));
        (targets, on_path)
    }

    fn handle_data(
        &mut self,
        from: Option<NodeId>,
        pkt: Packet<MospfMsg>,
        ctx: &mut Ctx<'_, MospfMsg>,
    ) {
        let MospfMsg::Data { source } = pkt.body else {
            unreachable!()
        };
        if let Some(from) = from {
            // Accept only from the SPT parent (consistent databases make
            // this the only sender in practice; the check guards against
            // transients while LSAs are in flight).
            let spt = ctx.routes().healthy().tree(source, Metric::Delay);
            let spt_parent_ok = spt.predecessor(self.me) == Some(from);
            if !spt_parent_ok {
                ctx.drop_packet();
                return;
            }
        }
        if self.members.has(pkt.group) {
            ctx.deliver_local(&pkt);
        }
        let (targets, _) = self.forward_targets(pkt.group, source, ctx);
        for t in targets {
            ctx.send(t, pkt.clone());
        }
    }
}

impl Router for MospfRouter {
    type Msg = MospfMsg;

    fn on_packet(&mut self, from: NodeId, pkt: Packet<MospfMsg>, ctx: &mut Ctx<'_, MospfMsg>) {
        match pkt.body {
            MospfMsg::Lsa {
                origin,
                member,
                seq,
            } => {
                let last = self.lsa_seen.get(&origin).copied().unwrap_or(0);
                if seq <= last {
                    ctx.drop_packet();
                    return;
                }
                self.lsa_seen.insert(origin, seq);
                self.apply_lsa(pkt.group, origin, member);
                self.flood_lsa(pkt.group, origin, member, seq, Some(from), ctx);
            }
            MospfMsg::Data { .. } => self.handle_data(Some(from), pkt, ctx),
        }
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, MospfMsg>) {
        match ev {
            AppEvent::Join(g) => {
                if self.members.join(g) {
                    self.originate_lsa(g, true, ctx);
                }
            }
            AppEvent::Leave(g) => {
                if self.members.leave(g) {
                    self.originate_lsa(g, false, ctx);
                }
            }
            AppEvent::Send { group, tag } => {
                let source = self.me;
                let pkt = Packet::data(group, tag, ctx.now(), MospfMsg::Data { source });
                self.handle_data(None, pkt, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::topology::examples::fig5;
    use scmp_net::AllPairsPaths;
    use scmp_sim::Engine;

    const G: GroupId = GroupId(1);

    fn engine() -> Engine<MospfRouter> {
        Engine::new(fig5(), |me, _, _| MospfRouter::new(me))
    }

    #[test]
    fn lsa_flood_reaches_every_router() {
        let mut e = engine();
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.run_to_quiescence();
        for v in 0..6u32 {
            assert_eq!(
                e.router(NodeId(v)).known_members(G),
                vec![NodeId(4)],
                "router {v} database"
            );
        }
        // Flooding used control bandwidth on essentially every link.
        assert!(e.stats().control_hops >= 7);
    }

    #[test]
    fn members_deliver_at_unicast_delay() {
        let topo = fig5();
        let ap = AllPairsPaths::compute(&topo);
        let mut e = engine();
        for m in [3u32, 4, 5] {
            e.schedule_app(0, NodeId(m), AppEvent::Join(G));
        }
        e.schedule_app(100_000, NodeId(0), AppEvent::Send { group: G, tag: 1 });
        e.run_to_quiescence();
        for m in [3u32, 4, 5] {
            assert_eq!(e.stats().delivery_count(G, 1, NodeId(m)), 1, "member {m}");
            assert_eq!(
                e.stats().delivery_delay(G, 1, NodeId(m)),
                ap.unicast_delay(NodeId(0), NodeId(m)),
                "member {m} must get SPT delay"
            );
        }
        assert!(!e.stats().has_duplicate_deliveries());
    }

    #[test]
    fn data_from_any_source_uses_its_own_spt() {
        let mut e = engine();
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.schedule_app(0, NodeId(0), AppEvent::Join(G));
        e.schedule_app(100_000, NodeId(5), AppEvent::Send { group: G, tag: 2 });
        e.run_to_quiescence();
        assert_eq!(e.stats().delivery_count(G, 2, NodeId(4)), 1);
        assert_eq!(e.stats().delivery_count(G, 2, NodeId(0)), 1);
        // Non-members got nothing.
        assert_eq!(e.stats().delivery_count(G, 2, NodeId(3)), 0);
    }

    #[test]
    fn leave_lsa_retracts_membership() {
        let mut e = engine();
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.schedule_app(10_000, NodeId(4), AppEvent::Leave(G));
        e.run_to_quiescence();
        for v in 0..6u32 {
            assert!(
                e.router(NodeId(v)).known_members(G).is_empty(),
                "router {v}"
            );
        }
        // Data now goes nowhere.
        e.schedule_app(200_000, NodeId(0), AppEvent::Send { group: G, tag: 3 });
        e.run_to_quiescence();
        assert_eq!(e.stats().distinct_deliveries(), 0);
    }

    #[test]
    fn every_membership_change_floods() {
        let mut e = engine();
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.run_to_quiescence();
        let after_one = e.stats().control_hops;
        e.schedule_app(10_000, NodeId(3), AppEvent::Join(G));
        e.run_to_quiescence();
        let after_two = e.stats().control_hops;
        // Second join floods again: costs roughly the same as the first.
        assert!(after_two - after_one >= after_one / 2);
    }

    #[test]
    fn no_duplicate_lsa_processing() {
        let mut e = engine();
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.run_to_quiescence();
        // Each router applied the LSA once; duplicates were dropped, so
        // the flood terminated (quiescence itself proves termination;
        // drops prove dedup fired on the cyclic topology).
        assert!(e.stats().drops > 0);
    }

    #[test]
    fn source_subnet_member_hears_its_own_data() {
        let mut e = engine();
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.schedule_app(10_000, NodeId(4), AppEvent::Send { group: G, tag: 9 });
        e.run_to_quiescence();
        assert_eq!(e.stats().delivery_count(G, 9, NodeId(4)), 1);
    }
}
