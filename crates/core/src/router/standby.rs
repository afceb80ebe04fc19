//! Hot-standby failover (§V item 4): the standby mirrors membership via
//! StandbySync, watches the primary's heartbeats, and on watchdog expiry
//! promotes itself — announcing the new m-router address and rebuilding
//! every tree around the dead primary.

use super::{MRouterState, Role, ScmpRouter, TIMER_REBUILD, TIMER_WATCHDOG_BASE};
use crate::message::ScmpMsg;
use crate::session::SessionDb;
use crate::tree_packet::TreePacket;
use scmp_net::NodeId;
use scmp_sim::{Ctx, GroupId, Packet, SimTime};
use scmp_telemetry::EventKind;
use scmp_tree::Dcdm;
use std::sync::Arc;

/// Standby-only state: the mirrored membership plus the deadman
/// generation counter.
#[derive(Debug)]
pub struct StandbyState {
    pub(super) membership: SessionDb,
    /// Bumped on every heartbeat; stale watchdog timers are ignored.
    pub(super) watchdog_gen: u64,
    /// Earliest time a watchdog expiry may promote this standby. Every
    /// heartbeat pushes it `heartbeat_loss_tolerance` intervals into the
    /// future; a watchdog timer that fires before it (a stale timer
    /// whose generation happens to match, e.g. after a demotion reset
    /// the counter) is ignored instead of causing a spurious takeover.
    pub(super) deadline: SimTime,
}

impl StandbyState {
    /// Fresh standby state with nothing mirrored and no deadline.
    pub(super) fn new() -> Self {
        StandbyState {
            membership: SessionDb::new(),
            watchdog_gen: 0,
            deadline: 0,
        }
    }
}

impl ScmpRouter {
    pub(super) fn standby_takeover(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        let domain = Arc::clone(&self.domain);
        let me = self.me;
        let Role::Standby(standby) = std::mem::replace(&mut self.role, Role::IRouter) else {
            return;
        };
        let mut state = Box::new(MRouterState::new());
        state.sessions = standby.membership;
        // Outrank every generation the domain has seen: the old primary
        // may still be alive (spurious promotion) and pushing trees of
        // its own, and ours must win the staleness race everywhere.
        state.gen_epoch =
            ((self.gen_high_water >> super::GEN_EPOCH_SHIFT) + 1) << super::GEN_EPOCH_SHIFT;
        self.role = Role::MRouter(state);
        // Announce the new address to every router first; the rebuilt
        // TREE packets follow after `takeover_rebuild_delay`. One
        // transaction key covers the whole announcement wave.
        let txn = self.fresh_txn();
        for v in domain.topo.nodes() {
            if v != me {
                ctx.unicast(
                    v,
                    Packet::control_keyed(GroupId(0), txn, ScmpMsg::NewMRouter { address: me }),
                );
            }
        }
        self.m_router = me;
        ctx.observe(EventKind::Takeover);
        ctx.set_timer(domain.config.takeover_rebuild_delay, TIMER_REBUILD);
    }

    /// NewMRouter announcement processing, shared by every role.
    ///
    /// Besides the common re-pointing (believed address, forwarding
    /// state, JOIN retry restart), a still-alive primary that hears
    /// another node announce itself as m-router steps down: heartbeat
    /// loss can promote the standby while the primary is healthy, and a
    /// domain with two active m-routers would partition membership. The
    /// deposed primary keeps its membership database as the new mirror,
    /// arms its own watchdog, and rejoins as an ordinary DR.
    pub(super) fn handle_new_mrouter(&mut self, address: NodeId, ctx: &mut Ctx<'_, ScmpMsg>) {
        if address == self.me {
            return; // our own (unicast-echoed) announcement
        }
        if self.is_m_router() {
            let cfg = self.domain.config.clone();
            let Role::MRouter(state) = std::mem::replace(&mut self.role, Role::IRouter) else {
                unreachable!()
            };
            let mut standby = StandbyState::new();
            standby.membership = state.sessions;
            if cfg.heartbeat_interval > 0 {
                let horizon =
                    cfg.heartbeat_interval * 2 * u64::from(cfg.heartbeat_loss_tolerance.max(1));
                standby.deadline = ctx.now() + horizon;
                ctx.set_timer(horizon, TIMER_WATCHDOG_BASE);
            }
            self.role = Role::Standby(standby);
        }
        // The old trees are rooted at the previous primary: drop all
        // forwarding state. The new m-router pushes rebuilt TREE packets
        // after `takeover_rebuild_delay`; until they arrive, sources
        // fall back to unicast encapsulation. Subnets that still have
        // members re-mark their interface as pending so the rebuilt
        // tree re-opens it on arrival.
        self.m_router = address;
        self.entries.clear();
        self.flushed.clear();
        // The old transaction series died with the old primary; JOINs
        // toward the new address open fresh ones.
        self.join_txns.clear();
        self.leave_txns.clear();
        self.pending_interfaces = self.subnet.active_groups().into_iter().collect();
        // Restart the JOIN retry series toward the new address: the
        // rebuilt TREE push may miss a DR whose original JOIN died with
        // the primary.
        let retry = self.domain.config.join_retry;
        if retry > 0 {
            for &g in &self.pending_interfaces {
                self.join_attempts.insert(g, 0);
                ctx.set_timer(retry, super::TIMER_JOIN_RETRY_BASE + g.0 as u64);
            }
        }
    }

    pub(super) fn rebuild_after_takeover(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        let domain = Arc::clone(&self.domain);
        let me = self.me;
        // Plan around the failed primary: its links are unusable.
        let (topo, paths) = match &domain.failover {
            Some((t, p)) => (t, p),
            None => (&domain.topo, &domain.paths),
        };
        let Role::MRouter(state) = &mut self.role else {
            return;
        };
        let groups: Vec<GroupId> = state.sessions.active_groups();
        let mut rebuilt = Vec::new();
        for group in groups {
            // Members partitioned away by the primary's failure cannot be
            // served until the operator restores connectivity; skip them.
            let members: Vec<NodeId> = state
                .sessions
                .members_from_log(group)
                .iter()
                .copied()
                .filter(|&m| paths.unicast_delay(m, me).is_some())
                .collect();
            if members.is_empty() {
                continue;
            }
            state.assign_fabric_port(group);
            let mut dcdm = Dcdm::new(topo, &**paths, me, domain.config.bound);
            for m in &members {
                dcdm.join(*m);
            }
            rebuilt.push((group, dcdm.into_tree()));
        }
        for (group, tree) in rebuilt {
            let txn = self.fresh_txn();
            let Role::MRouter(state) = &mut self.role else {
                unreachable!()
            };
            let gen = state.next_gen(group);
            let entry = self.entries.entry(group).or_default();
            entry.upstream = None;
            entry.downstream_routers = tree.children(me).iter().copied().collect();
            entry.local_interface = tree.is_member(me);
            entry.gen = gen;
            for &child in tree.children(me) {
                let tp = TreePacket::from_tree(&tree, child);
                let pkt = Packet::control_keyed(group, txn, ScmpMsg::Tree { gen, packet: tp });
                self.send_tree_tracked(group, child, gen, pkt, ctx);
            }
            super::mrouter::record_tree_health(
                group,
                scmp_telemetry::HealthTrigger::Takeover,
                topo,
                &**paths,
                &tree,
                ctx,
            );
            let Role::MRouter(state) = &mut self.role else {
                unreachable!()
            };
            state.trees.insert(group, tree);
            // Planned around the primary, not over the live view: a
            // member only reachable through it is off this tree and a
            // dead link may be on it, for the repair scan to find.
            state.scan_clean = false;
        }
    }
}
