//! The SCMP router state machine (§II–III).
//!
//! Every node in the domain runs one [`ScmpRouter`]. Most are i-routers:
//! they keep one multicast routing entry per group — the paper's triple
//! *(group id, upstream, downstream)* — and perform only forwarding,
//! TREE/BRANCH processing and PRUNE propagation. One node is the
//! m-router: it owns the membership database, runs the DCDM algorithm on
//! every JOIN/LEAVE, emits TREE/BRANCH packets, keeps the accounting log
//! and (optionally) mirrors state to a hot-standby peer (§V item 4).
//!
//! Packet walk (Fig. 4): IGMP report → DR sends JOIN (unicast to
//! m-router) → m-router updates the tree (DCDM) → BRANCH packet (simple
//! graft) or TREE packets (restructure) install routing entries → data
//! flows on the bidirectional shared tree, with off-tree sources
//! encapsulating to the m-router.
//!
//! The state machine is split by role: this module holds the
//! [`ScmpRouter`] shell (fields, role dispatch, the [`Router`] impl);
//! `config`/`domain`/`entry` hold the shared plain data types;
//! the designated-router side (membership, data plane, TREE/BRANCH
//! install) lives in `dr`; the m-router side (DCDM, sessions, fabric,
//! repair scans) in `mrouter`; and the hot-standby failover machinery
//! in `standby`.

mod config;
mod domain;
mod dr;
mod entry;
mod mrouter;
mod reliability;
mod standby;
#[cfg(test)]
mod tests;
mod timer;

pub use config::{ReliabilityConfig, ScmpConfig};
pub use domain::ScmpDomain;
pub use entry::RoutingEntry;
pub use mrouter::MRouterState;
pub use reliability::nack_jitter;
pub use standby::StandbyState;

use crate::dedup::RecentSet;
use crate::igmp::Subnet;
use crate::message::ScmpMsg;
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Ctx, GroupId, Packet, Router};
use std::collections::BTreeMap;
use std::sync::Arc;
use timer::{Attempts, Series, Timer};

/// Tree generations carry a takeover epoch in their upper bits: a
/// promoted standby starts numbering at the next epoch above every
/// generation it has observed, so its TREE/BRANCH packets always beat
/// the deposed primary's — even when that primary is alive (spurious
/// promotion) and kept bumping its own generations right up to the
/// handover.
const GEN_EPOCH_SHIFT: u32 = 32;

/// One unacknowledged TREE/BRANCH transmission awaiting TREE-ACK from a
/// direct child (hop-by-hop tree ARQ, `tree_retry > 0`).
#[derive(Debug)]
struct PendingTree {
    gen: u64,
    attempts: Attempts,
    pkt: Packet<ScmpMsg>,
    /// Earliest time a retry timer may act. Retry timers are keyed by
    /// `(group, child)` only, so when a newer TREE replaces a pending
    /// entry, the older arming's timer is still in flight — it must not
    /// retransmit the new packet early.
    deadline: scmp_sim::SimTime,
}

/// One group's state at one router: the routing entry inline (most
/// on-tree routers hold nothing else), the rest boxed.
#[derive(Debug, Default)]
struct GroupState {
    /// The paper's *(gid, upstream, downstream)* triple; `None` off-tree.
    entry: Option<RoutingEntry>,
    /// `None` while every part of it is empty.
    soft: Option<Box<SoftState>>,
}

/// The boxed part of a [`GroupState`].
#[derive(Debug, Default)]
struct SoftState {
    /// The JOIN series, until a TREE/BRANCH answers it, it gives up or
    /// the last host leaves.
    join: Option<Series>,
    /// The unacked LEAVE (`leave_retry > 0`), until it is acked, it
    /// gives up or a host joins again.
    leave: Option<Series>,
    /// TREE/BRANCH packets sent to a direct child and not yet
    /// TREE-ACKed: every relay hop runs the ARQ when `tree_retry > 0`.
    pending_trees: BTreeMap<NodeId, PendingTree>,
    rel: reliability::GroupRel,
}

/// Role of a node in the SCMP domain.
#[derive(Debug)]
pub enum Role {
    /// Ordinary intermediate multicast router.
    IRouter,
    /// The active master multicast router (boxed: the state is two
    /// orders of magnitude larger than the other variants).
    MRouter(Box<MRouterState>),
    /// Hot standby mirroring the primary.
    Standby(StandbyState),
}

/// The per-node SCMP state machine. Implements [`scmp_sim::Router`].
pub struct ScmpRouter {
    me: NodeId,
    domain: Arc<ScmpDomain>,
    /// Current believed m-router address (changes after a takeover).
    m_router: NodeId,
    role: Role,
    /// One record per group: created by the first write (the
    /// `*_or_default`/`soft_mut` accessors, never a read), dropped by
    /// [`ScmpRouter::reclaim`] once it holds nothing.
    groups: BTreeMap<GroupId, GroupState>,
    /// Flush tombstones: highest generation at which this router was
    /// told to discard a group's state; older TREE/BRANCH are ignored.
    /// One `u64` per group ever flushed here until a NewMRouter; kept
    /// outside the record, which it must outlive.
    flushed: BTreeMap<GroupId, u64>,
    /// IGMP subnet model: the one record of which hosts are members.
    pub subnet: Subnet,
    /// Sequential host ids for app-injected join/leave events.
    next_host: u32,
    /// Highest tree generation observed in any TREE/BRANCH/FLUSH packet.
    /// Seeds the generation epoch on a standby takeover (see
    /// [`GEN_EPOCH_SHIFT`]).
    gen_high_water: u64,
    /// Recently forwarded data-packet keys `(group, origin, tag,
    /// encapsulated)`, for suppressing channel-duplicated payloads. The
    /// key is the full causal trace key — origin included, so two
    /// sources reusing the same application tag in one group cannot
    /// shadow each other — plus an encapsulated flag that keeps an
    /// EncapData and its decapsulated Data twin (same group, origin and
    /// tag) from shadowing each other at the m-router.
    recent_data: RecentSet<(u32, u32, u64, bool)>,
    /// Router-wide reliable-tier state (repair cache, pending NACK
    /// interests; streams live in the group records).
    rel: reliability::ReliabilityState,
    /// Sequence counter behind [`ScmpRouter::fresh_txn`]: every control
    /// transaction this node originates gets a distinct causal trace key.
    next_txn: u32,
}

/// How many data-packet keys each router remembers for duplicate
/// suppression. Channel duplicates arrive within a reorder window of
/// the original, so a small recent-set is ample.
const RECENT_DATA_CAP: usize = 64;

impl ScmpRouter {
    /// Create the state machine for node `me`.
    pub fn new(me: NodeId, domain: Arc<ScmpDomain>) -> Self {
        let cfg = &domain.config;
        assert!(
            cfg.extra_m_routers.is_empty() || cfg.standby.is_none(),
            "hot standby is only supported with a single m-router"
        );
        let role = if me == cfg.m_router || cfg.extra_m_routers.contains(&me) {
            Role::MRouter(Box::new(MRouterState::new()))
        } else if Some(me) == cfg.standby {
            Role::Standby(StandbyState::new())
        } else {
            Role::IRouter
        };
        ScmpRouter {
            me,
            m_router: cfg.m_router,
            domain,
            role,
            groups: BTreeMap::new(),
            flushed: BTreeMap::new(),
            subnet: Subnet::new(),
            next_host: 0,
            gen_high_water: 0,
            recent_data: RecentSet::new(RECENT_DATA_CAP),
            rel: reliability::ReliabilityState::default(),
            next_txn: 0,
        }
    }

    /// Allocate a fresh causal transaction tag: a packed
    /// [`scmp_telemetry::TraceKey`] `(origin=me, seq)` whose high bit
    /// keeps it disjoint from every data tag. Stamped on the control
    /// packet that opens a transaction and inherited by the whole
    /// cascade it triggers, so `scmp-inspect --journey` can reconstruct
    /// JOIN → BRANCH → ACK chains end to end.
    pub(super) fn fresh_txn(&mut self) -> u64 {
        self.next_txn += 1;
        scmp_telemetry::pack_ctl_tag(self.me.0, self.next_txn)
    }

    /// The node's routing entry for `group` (None when off-tree).
    pub fn entry(&self, group: GroupId) -> Option<&RoutingEntry> {
        self.groups.get(&group)?.entry.as_ref()
    }

    fn entry_mut(&mut self, group: GroupId) -> Option<&mut RoutingEntry> {
        self.groups.get_mut(&group)?.entry.as_mut()
    }

    fn entry_or_default(&mut self, group: GroupId) -> &mut RoutingEntry {
        let state = self.groups.entry(group).or_default();
        state.entry.get_or_insert_with(RoutingEntry::default)
    }

    fn soft(&self, group: GroupId) -> Option<&SoftState> {
        self.groups.get(&group)?.soft.as_deref()
    }

    fn soft_get_mut(&mut self, group: GroupId) -> Option<&mut SoftState> {
        self.groups.get_mut(&group)?.soft.as_deref_mut()
    }

    fn soft_mut(&mut self, group: GroupId) -> &mut SoftState {
        let state = self.groups.entry(group).or_default();
        state.soft.get_or_insert_default()
    }

    /// Clear part of the group's boxed state with `f`.
    fn clear_soft(&mut self, group: GroupId, f: impl FnOnce(&mut SoftState)) {
        self.reclaim(group, |s| s.soft.as_deref_mut().map_or((), f));
    }

    /// Clear part of the group's record with `f`, then drop the box, and
    /// the record, once it holds nothing. Every path that clears group
    /// state ends here; the data path clears nothing and never calls it.
    fn reclaim(&mut self, group: GroupId, f: impl FnOnce(&mut GroupState)) {
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        f(state);
        if state.soft.as_ref().is_some_and(|x| {
            x.join.is_none() && x.leave.is_none() && x.pending_trees.is_empty() && x.rel.is_empty()
        }) {
            state.soft = None;
        }
        if state.entry.is_none() && state.soft.is_none() {
            self.groups.remove(&group);
        }
    }

    /// Current believed m-router address (of the primary; per-group
    /// addresses come from [`Self::m_router_for`]).
    pub fn m_router_address(&self) -> NodeId {
        self.m_router
    }

    /// The m-router serving `group`: round-robin over the configured
    /// m-router set, or the (possibly failed-over) single m-router.
    pub fn m_router_for(&self, group: GroupId) -> NodeId {
        let extra = &self.domain.config.extra_m_routers;
        if extra.is_empty() {
            return self.m_router;
        }
        let idx = group.0 as usize % (1 + extra.len());
        if idx == 0 {
            self.domain.config.m_router
        } else {
            extra[idx - 1]
        }
    }

    /// True while this node acts as the m-router.
    pub fn is_m_router(&self) -> bool {
        matches!(self.role, Role::MRouter(_))
    }

    /// m-router state, if this node is (currently) the m-router.
    pub fn m_state(&self) -> Option<&MRouterState> {
        match &self.role {
            Role::MRouter(s) => Some(s),
            _ => None,
        }
    }
}

impl Router for ScmpRouter {
    type Msg = ScmpMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        let cfg = &self.domain.config;
        if cfg.repair_interval > 0 && self.is_m_router() {
            ctx.set_timer(cfg.repair_interval, Timer::Repair.token());
        }
        if cfg.heartbeat_interval == 0 {
            return;
        }
        let horizon = cfg
            .heartbeat_interval
            .saturating_mul(2 * u64::from(cfg.heartbeat_loss_tolerance.max(1)));
        match &mut self.role {
            Role::MRouter(_) if cfg.standby.is_some() => {
                ctx.set_timer(cfg.heartbeat_interval, Timer::Heartbeat.token());
            }
            Role::Standby(s) => {
                // Generous first deadline (twice the steady-state
                // tolerance): the primary may be several propagation
                // delays away.
                s.deadline = ctx.now().saturating_add(horizon);
                ctx.set_timer(horizon, Timer::Watchdog(0).token());
            }
            _ => {}
        }
    }

    fn classify(msg: &ScmpMsg) -> Option<scmp_telemetry::CtlKind> {
        use scmp_telemetry::CtlKind;
        Some(match msg {
            ScmpMsg::Join { .. } => CtlKind::Join,
            ScmpMsg::Leave { .. } => CtlKind::Leave,
            ScmpMsg::Prune => CtlKind::Prune,
            ScmpMsg::Tree { .. } => CtlKind::Tree,
            ScmpMsg::Branch { .. } => CtlKind::Branch,
            ScmpMsg::Flush { .. } => CtlKind::Flush,
            ScmpMsg::Data { .. } => CtlKind::Data,
            ScmpMsg::EncapData { .. } => CtlKind::EncapData,
            ScmpMsg::Heartbeat { .. } => CtlKind::Heartbeat,
            ScmpMsg::StandbySync { .. } => CtlKind::StandbySync,
            ScmpMsg::NewMRouter { .. } => CtlKind::NewMRouter,
            ScmpMsg::LeaveAck => CtlKind::LeaveAck,
            ScmpMsg::TreeAck { .. } => CtlKind::TreeAck,
            ScmpMsg::Nack { .. } => CtlKind::Nack,
            ScmpMsg::Repair { .. } => CtlKind::Repair,
            ScmpMsg::SeqAnnounce { .. } => CtlKind::SeqAnnounce,
        })
    }

    fn on_packet(&mut self, from: NodeId, pkt: Packet<ScmpMsg>, ctx: &mut Ctx<'_, ScmpMsg>) {
        let group = pkt.group;
        let tag = pkt.tag;
        // Only the TREE/BRANCH arms take the body (their packets are
        // consumed by the install); every other arm binds `Copy` fields
        // or hands the whole packet on, so nothing is cloned per hop.
        match pkt.body {
            ScmpMsg::Join { requester } => self.m_handle_join(group, requester, tag, ctx),
            ScmpMsg::Leave { requester } => self.m_handle_leave(group, requester, tag, ctx),
            ScmpMsg::Prune => self.handle_prune(from, group, tag, ctx),
            ScmpMsg::Tree { gen, packet } => {
                self.gen_high_water = self.gen_high_water.max(gen);
                self.install_tree_packet(from, group, gen, packet, tag, ctx)
            }
            ScmpMsg::Branch { gen, packet } => {
                self.gen_high_water = self.gen_high_water.max(gen);
                self.install_branch_packet(from, group, gen, packet, tag, ctx)
            }
            ScmpMsg::Flush { gen } => {
                self.gen_high_water = self.gen_high_water.max(gen);
                let tomb = self.flushed.entry(group).or_insert(0);
                *tomb = (*tomb).max(gen);
                // Only state at or below the flushed generation dies; a
                // newer BRANCH/TREE may have legitimately re-added us
                // while the flush was in flight.
                if self.entry(group).is_some_and(|e| e.gen <= gen) {
                    self.reclaim(group, |s| s.entry = None);
                }
            }
            ScmpMsg::Data { .. } => self.forward_on_tree(from, pkt, ctx),
            ScmpMsg::EncapData { .. } => self.handle_encap_data(pkt, ctx),
            ScmpMsg::Nack { origin, seq } => self.rel_handle_nack(from, &pkt, origin, seq, ctx),
            ScmpMsg::Repair { origin, seq } => self.rel_handle_repair(&pkt, origin, seq, ctx),
            ScmpMsg::SeqAnnounce { origin, seq, round } => {
                self.rel_handle_announce(from, &pkt, origin, seq, round, ctx)
            }
            ScmpMsg::Heartbeat { .. } => {
                let cfg = &self.domain.config;
                let interval = cfg.heartbeat_interval;
                let grace = interval.saturating_mul(u64::from(cfg.heartbeat_loss_tolerance.max(1)));
                let promoted = Some(self.me) == cfg.standby;
                let me = self.me;
                match &mut self.role {
                    Role::Standby(s) => {
                        // Re-arm the deadman timer: takeover only when no
                        // heartbeat lands for `heartbeat_loss_tolerance`
                        // intervals. The deadline backs up the generation
                        // stamp — a stale timer whose token happens to
                        // match a reset generation still cannot promote
                        // before the last heartbeat's grace runs out.
                        s.watchdog_gen += 1;
                        s.deadline = ctx.now().saturating_add(grace);
                        let gen = s.watchdog_gen;
                        ctx.set_timer(grace, Timer::Watchdog(gen).token());
                    }
                    Role::MRouter(state) if promoted => {
                        // A heartbeat reaching a *promoted* standby means
                        // the old primary survived (the promotion was
                        // spurious, caused by heartbeat loss). Repeat the
                        // announcement until it steps down, and start
                        // mirroring/heartbeating back so the pair is
                        // symmetric again.
                        ctx.unicast(
                            from,
                            Packet::control(GroupId(0), ScmpMsg::NewMRouter { address: me }),
                        );
                        if !state.peer_alive {
                            state.peer_alive = true;
                            if interval > 0 {
                                ctx.set_timer(interval, Timer::Heartbeat.token());
                            }
                        }
                    }
                    _ => {}
                }
            }
            ScmpMsg::StandbySync { member, joined } => {
                // The members-only view: a group leaves it with its
                // last member.
                if let Role::Standby(s) = &mut self.role {
                    let members = s.members.entry(group).or_default();
                    s.log.record(ctx.now(), group, member, joined, members);
                    if members.is_empty() {
                        s.members.remove(&group);
                    }
                }
            }
            ScmpMsg::LeaveAck => self.clear_soft(group, |s| s.leave = None),
            ScmpMsg::NewMRouter { address } => self.handle_new_mrouter(address, ctx),
            ScmpMsg::TreeAck { gen } => self.handle_tree_ack(group, from, gen),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, ScmpMsg>) {
        match Timer::decode(token) {
            Some(Timer::Heartbeat) => self.heartbeat_tick(ctx),
            Some(Timer::Repair) => self.m_repair_scan(ctx),
            Some(Timer::Watchdog(gen)) => self.watchdog_expired(gen, ctx),
            Some(Timer::Expiry(group)) => self.expire_session_if_empty(group, ctx.now()),
            Some(Timer::JoinRetry(group)) => self.retry_join_if_unanswered(group, ctx),
            Some(Timer::LeaveRetry(group)) => self.retry_leave_if_unacked(group, ctx),
            Some(Timer::TreeRetry(group, child)) => self.retry_tree_if_unacked(group, child, ctx),
            Some(Timer::Nack(group, origin)) => self.rel_nack_timer(group, origin, ctx),
            Some(Timer::Announce(group, origin)) => self.rel_announce_timer(group, origin, ctx),
            None => {}
        }
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, ScmpMsg>) {
        match ev {
            AppEvent::Join(g) => self.handle_host_join(g, ctx),
            AppEvent::Leave(g) => self.handle_host_leave(g, ctx),
            AppEvent::Send { group, tag } => self.handle_host_send(group, tag, ctx),
        }
    }
}
