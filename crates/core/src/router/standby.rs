//! Hot-standby failover (§V item 4): the standby mirrors membership via
//! StandbySync, watches the primary's heartbeats, and on watchdog expiry
//! promotes itself — announcing the new m-router address, opening a
//! session with an empty mirror per group that has members and arming
//! the repair scan, which readopts every reachable logged member over
//! the live path view.

use super::{Attempts, MRouterState, Role, ScmpRouter, Timer};
use crate::message::ScmpMsg;
use crate::session::AccountingLog;
use scmp_net::NodeId;
use scmp_sim::{Ctx, GroupId, Packet, SimTime};
use scmp_telemetry::EventKind;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Standby-only state: the mirrored membership plus the deadman
/// generation counter.
#[derive(Debug)]
pub struct StandbyState {
    /// The members-only view of the m-router's session records: a group
    /// is here exactly while it has a logged member.
    pub(super) members: BTreeMap<GroupId, Vec<NodeId>>,
    /// The mirrored accounting log.
    pub(super) log: AccountingLog,
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
            members: BTreeMap::new(),
            log: AccountingLog::default(),
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
        state.log = standby.log;
        // Outrank every generation the domain has seen: the old primary
        // may still be alive (spurious promotion) and pushing trees of
        // its own, and ours must win the staleness race everywhere.
        state.gen_epoch =
            ((self.gen_high_water >> super::GEN_EPOCH_SHIFT) + 1) << super::GEN_EPOCH_SHIFT;
        // Every logged member is off these empty mirrors, so the first
        // repair scan readopts each one it can reach, planning over the
        // live view like every other tree this m-router builds.
        let n = domain.topo.node_count();
        for (group, members) in standby.members {
            let mut session = state.checkout(group, n, me);
            session.members = members;
            state.groups.insert(group, session);
        }
        let delay = domain.config.takeover_rebuild_delay;
        state.next_scan = ctx.now().saturating_add(delay);
        self.role = Role::MRouter(state);
        // Announce the new address to every router first; the scan's
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
        ctx.set_timer(delay, Timer::Repair.token());
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
            standby.log = state.log;
            standby.members = state
                .groups
                .into_iter()
                .filter(|(_, s)| !s.members.is_empty())
                .map(|(g, s)| (g, s.members))
                .collect();
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
        // forwarding state. The new m-router's first repair scan pushes
        // rebuilt TREE packets `takeover_rebuild_delay` after its
        // takeover; until they arrive, sources fall back to unicast
        // encapsulation. The rebuilt tree re-opens the local interface
        // of every group the subnet still wants.
        self.m_router = address;
        self.flushed.clear();
        // The old transaction keys died with the old primary; the next
        // retransmission of each series mints a fresh one. A pending
        // LEAVE keeps its retry count.
        let groups: Vec<GroupId> = self.groups.keys().copied().collect();
        for g in groups {
            self.reclaim(g, |s| {
                s.entry = None;
                for x in s.soft.iter_mut() {
                    x.join
                        .iter_mut()
                        .chain(&mut x.leave)
                        .for_each(|series| series.txn = None);
                }
            });
        }
        // Restart the JOIN retry series of every group the subnet still
        // wants, toward the new address: the rebuilt TREE push may miss
        // a DR whose original JOIN died with the primary.
        let retry = self.domain.config.join_retry;
        if retry > 0 {
            for g in self.subnet.active_groups() {
                self.soft_mut(g).join.get_or_insert_default().attempts = Attempts::default();
                ctx.set_timer(retry, Timer::JoinRetry(g).token());
            }
        }
    }
}
