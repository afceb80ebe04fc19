//! Hot-standby failover (§V item 4): the standby mirrors membership via
//! StandbySync, watches the primary's heartbeats, and on watchdog expiry
//! promotes itself — announcing the new m-router address and rebuilding
//! every tree around the dead primary.

use super::{Attempts, MRouterState, Role, ScmpRouter, Timer};
use crate::message::ScmpMsg;
use crate::session::SessionDb;
use crate::tree_packet::TreePacket;
use scmp_net::{provider_for, NodeId};
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
    /// The other node of the primary/standby pair: the configured
    /// primary for the standby, the standby for the primary. `None`
    /// without a standby.
    fn pair_peer(&self) -> Option<NodeId> {
        let cfg = &self.domain.config;
        if Some(self.me) == cfg.standby {
            Some(cfg.m_router)
        } else {
            cfg.standby
        }
    }

    /// Heartbeat timer: an active m-router beacons to its peer and
    /// re-arms. A promoted standby beacons back to the deposed primary
    /// (its new standby); the primary beacons to the configured standby.
    pub(super) fn heartbeat_tick(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        let domain = Arc::clone(&self.domain);
        let cfg = &domain.config;
        let Role::MRouter(state) = &mut self.role else {
            return;
        };
        state.heartbeat_seq += 1;
        let seq = state.heartbeat_seq;
        if let Some(peer) = self.pair_peer() {
            ctx.unicast(
                peer,
                Packet::control(GroupId(0), ScmpMsg::Heartbeat { seq }),
            );
        }
        ctx.set_timer(cfg.heartbeat_interval, Timer::Heartbeat.token());
    }

    /// Watchdog timer of heartbeat generation `gen`. Both guards must
    /// agree before a takeover: the generation stamp kills timers
    /// superseded by a later heartbeat, and the deadline kills stale
    /// timers whose generation matches a reset counter (e.g. right after
    /// a demotion).
    pub(super) fn watchdog_expired(&mut self, gen: u64, ctx: &mut Ctx<'_, ScmpMsg>) {
        if let Role::Standby(s) = &self.role {
            if gen == s.watchdog_gen && ctx.now() >= s.deadline {
                self.standby_takeover(ctx);
            }
        }
    }

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
        ctx.set_timer(domain.config.takeover_rebuild_delay, Timer::Rebuild.token());
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
                let horizon = cfg
                    .heartbeat_interval
                    .saturating_mul(2 * u64::from(cfg.heartbeat_loss_tolerance.max(1)));
                standby.deadline = ctx.now().saturating_add(horizon);
                ctx.set_timer(horizon, Timer::Watchdog(0).token());
            }
            self.role = Role::Standby(standby);
        }
        // The old trees are rooted at the previous primary: drop all
        // forwarding state. The new m-router pushes rebuilt TREE packets
        // after `takeover_rebuild_delay`; until they arrive, sources
        // fall back to unicast encapsulation. The rebuilt tree re-opens
        // the local interface of every group the subnet still wants.
        self.m_router = address;
        self.entries.clear();
        self.flushed.clear();
        // The old transaction keys died with the old primary; the next
        // retransmission of each series mints a fresh one. A pending
        // LEAVE keeps its retry count.
        for series in self.joins.values_mut().chain(self.leaves.values_mut()) {
            series.txn = None;
        }
        // Restart the JOIN retry series of every group the subnet still
        // wants, toward the new address: the rebuilt TREE push may miss
        // a DR whose original JOIN died with the primary.
        let retry = self.domain.config.join_retry;
        if retry > 0 {
            for g in self.subnet.active_groups() {
                self.joins.entry(g).or_default().attempts = Attempts::default();
                ctx.set_timer(retry, Timer::JoinRetry(g).token());
            }
        }
    }

    pub(super) fn rebuild_after_takeover(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        let domain = Arc::clone(&self.domain);
        let me = self.me;
        if !self.is_m_router() {
            return;
        }
        // Plan around the m-router this node replaced: its links are
        // unusable. That is the configured primary for a promoted
        // standby, and the standby for a primary promoted back.
        let topo = match self.pair_peer() {
            Some(peer) => domain.topo.without_node(peer),
            None => domain.topo.clone(),
        };
        let paths = provider_for(&topo);
        let Role::MRouter(state) = &mut self.role else {
            unreachable!()
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
            let mut dcdm = Dcdm::new(&topo, &paths, me, domain.config.bound);
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
                &topo,
                &paths,
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
