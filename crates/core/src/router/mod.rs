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
//! [`config`]/[`domain`]/[`entry`] hold the shared plain data types;
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

pub use config::{ReliabilityConfig, ScmpConfig, CACHE_ENTRY_BYTES};
pub use domain::ScmpDomain;
pub use entry::RoutingEntry;
pub use mrouter::MRouterState;
pub use reliability::{nack_jitter, payload_bytes};
pub use standby::StandbyState;

use crate::dedup::RecentSet;
use crate::igmp::{HostId, Subnet};
use crate::message::ScmpMsg;
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Ctx, GroupId, Packet, Router};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Timer tokens.
const TIMER_HEARTBEAT: u64 = 1;
const TIMER_REBUILD: u64 = 3;
/// Periodic m-router repair scan (robustness extension): check every
/// mirrored tree against the IGP liveness view and re-run DCDM over the
/// surviving topology when a tree is damaged.
const TIMER_REPAIR: u64 = 4;
/// Watchdog tokens are generation-stamped: `TIMER_WATCHDOG_BASE + gen`.
/// Every heartbeat bumps the generation, so only the deadman timer armed
/// after the *last* heartbeat can trigger a takeover.
const TIMER_WATCHDOG_BASE: u64 = 1_000;
/// Session-expiry tokens: `TIMER_EXPIRY_BASE + gid`. Must stay above
/// every watchdog token; group ids are small in practice, and the bases
/// are far enough apart that overlap would need 2^63 heartbeats.
const TIMER_EXPIRY_BASE: u64 = 1 << 63;
/// JOIN-retry tokens: `TIMER_JOIN_RETRY_BASE + gid`.
const TIMER_JOIN_RETRY_BASE: u64 = 1 << 62;
/// LEAVE-retry tokens: `TIMER_LEAVE_RETRY_BASE + gid`.
const TIMER_LEAVE_RETRY_BASE: u64 = 1 << 61;
/// TREE-retry tokens: `TIMER_TREE_RETRY_BASE + (gid << 24) + child`.
/// Node ids fit 24 bits in any simulated domain and group ids stay far
/// below 2^36, so the token never reaches [`TIMER_LEAVE_RETRY_BASE`].
const TIMER_TREE_RETRY_BASE: u64 = 1 << 60;
/// NACK suppression-timer tokens (reliability tier):
/// `TIMER_NACK_BASE + (gid << 24) + stream_origin`.
const TIMER_NACK_BASE: u64 = 1 << 59;
/// SEQ-ANNOUNCE series tokens (reliability tier):
/// `TIMER_ANNOUNCE_BASE + (gid << 24) + stream_origin`.
const TIMER_ANNOUNCE_BASE: u64 = 1 << 58;

/// Encode one parent → child tree-ARQ slot as a timer token.
pub(super) fn tree_retry_token(group: GroupId, child: NodeId) -> u64 {
    TIMER_TREE_RETRY_BASE + ((group.0 as u64) << 24) + child.0 as u64
}
/// Give up a JOIN/LEAVE retransmission series after this many attempts
/// (the m-router is gone for good; a takeover or operator intervenes).
const MAX_RETRIES: u32 = 8;
/// Exponential-backoff shift cap: delay = base << min(attempt, cap).
const BACKOFF_CAP: u32 = 6;
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
    attempts: u32,
    pkt: Packet<ScmpMsg>,
    /// Earliest time a retry timer may act. Retry timers are keyed by
    /// `(group, child)` only, so when a newer TREE replaces a pending
    /// entry, the older arming's timer is still in flight — it must not
    /// retransmit the new packet early.
    deadline: scmp_sim::SimTime,
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
    /// Multicast routing table: one entry per group.
    entries: BTreeMap<GroupId, RoutingEntry>,
    /// Groups whose local interface is marked pending a TREE/BRANCH
    /// packet (§III-B: "the interface ... is marked so that it will be
    /// added to the downstream ... when the DR receives the TREE packet
    /// later").
    pending_interfaces: BTreeSet<GroupId>,
    /// Flush tombstones: highest generation at which this router was
    /// told to discard a group's state; older TREE/BRANCH are ignored.
    flushed: BTreeMap<GroupId, u64>,
    /// IGMP subnet model.
    pub subnet: Subnet,
    /// Sequential host ids for app-injected join/leave events.
    next_host: u32,
    /// Host stack per group so Leave events pop a real joined host.
    joined_hosts: BTreeMap<GroupId, Vec<HostId>>,
    /// JOIN retransmissions already made per group (backoff exponent).
    join_attempts: BTreeMap<GroupId, u32>,
    /// LEAVEs awaiting a LEAVE-ACK, with retransmission count.
    pending_leaves: BTreeMap<GroupId, u32>,
    /// TREE/BRANCH packets this node sent to a direct child and not yet
    /// TREE-ACKed, keyed by `(group, child)`. Lives on every router, not
    /// just the m-router: tree distribution is relayed hop by hop, and
    /// each relay hop runs its own ARQ when `tree_retry > 0`.
    pending_trees: BTreeMap<(GroupId, NodeId), PendingTree>,
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
    /// Reliable-multicast tier state (streams, repair cache, pending
    /// NACK interests); empty and untouched when
    /// `config.reliability` is `None`.
    rel: reliability::ReliabilityState,
    /// Sequence counter behind [`ScmpRouter::fresh_txn`]: every control
    /// transaction this node originates gets a distinct causal trace key.
    next_txn: u32,
    /// The trace key of the in-flight JOIN series per group: retries
    /// reuse it so the whole series correlates as one transaction.
    join_txns: BTreeMap<GroupId, u64>,
    /// The trace key of the in-flight LEAVE series per group.
    leave_txns: BTreeMap<GroupId, u64>,
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
            entries: BTreeMap::new(),
            pending_interfaces: BTreeSet::new(),
            flushed: BTreeMap::new(),
            subnet: Subnet::new(),
            next_host: 0,
            joined_hosts: BTreeMap::new(),
            join_attempts: BTreeMap::new(),
            pending_leaves: BTreeMap::new(),
            pending_trees: BTreeMap::new(),
            gen_high_water: 0,
            recent_data: RecentSet::new(RECENT_DATA_CAP),
            rel: reliability::ReliabilityState::default(),
            next_txn: 0,
            join_txns: BTreeMap::new(),
            leave_txns: BTreeMap::new(),
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
        self.entries.get(&group)
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
            ctx.set_timer(cfg.repair_interval, TIMER_REPAIR);
        }
        if cfg.heartbeat_interval == 0 {
            return;
        }
        let horizon = cfg.heartbeat_interval * 2 * u64::from(cfg.heartbeat_loss_tolerance.max(1));
        match &mut self.role {
            Role::MRouter(_) if cfg.standby.is_some() => {
                ctx.set_timer(cfg.heartbeat_interval, TIMER_HEARTBEAT);
            }
            Role::Standby(s) => {
                // Generous first deadline (twice the steady-state
                // tolerance): the primary may be several propagation
                // delays away.
                s.deadline = ctx.now() + horizon;
                ctx.set_timer(horizon, TIMER_WATCHDOG_BASE);
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
                if gen > *tomb {
                    *tomb = gen;
                }
                // Only state at or below the flushed generation dies; a
                // newer BRANCH/TREE may have legitimately re-added us
                // while the flush was in flight.
                if self.entries.get(&group).is_some_and(|e| e.gen <= gen) {
                    self.entries.remove(&group);
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
                let grace = interval * u64::from(cfg.heartbeat_loss_tolerance.max(1));
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
                        s.deadline = ctx.now() + grace;
                        let gen = s.watchdog_gen;
                        ctx.set_timer(grace, TIMER_WATCHDOG_BASE + gen);
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
                                ctx.set_timer(interval, TIMER_HEARTBEAT);
                            }
                        }
                    }
                    _ => {}
                }
            }
            ScmpMsg::StandbySync { member, joined } => {
                if let Role::Standby(s) = &mut self.role {
                    s.membership.register_group(group);
                    s.membership.record(ctx.now(), group, member, joined);
                }
            }
            ScmpMsg::LeaveAck => {
                self.pending_leaves.remove(&group);
                self.leave_txns.remove(&group);
            }
            ScmpMsg::NewMRouter { address } => self.handle_new_mrouter(address, ctx),
            ScmpMsg::TreeAck { gen } => self.handle_tree_ack(group, from, gen),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, ScmpMsg>) {
        match token {
            TIMER_HEARTBEAT => {
                let cfg = self.domain.config.clone();
                let me = self.me;
                if let Role::MRouter(state) = &mut self.role {
                    state.heartbeat_seq += 1;
                    let seq = state.heartbeat_seq;
                    // A promoted standby beacons back to the deposed
                    // primary (its new standby); the primary beacons to
                    // the configured standby as always.
                    let peer = if Some(me) == cfg.standby {
                        Some(cfg.m_router)
                    } else {
                        cfg.standby
                    };
                    if let Some(peer) = peer {
                        ctx.unicast(
                            peer,
                            Packet::control(GroupId(0), ScmpMsg::Heartbeat { seq }),
                        );
                    }
                    ctx.set_timer(cfg.heartbeat_interval, TIMER_HEARTBEAT);
                }
            }
            TIMER_REBUILD => self.rebuild_after_takeover(ctx),
            TIMER_REPAIR => self.m_repair_scan(ctx),
            token if token >= TIMER_EXPIRY_BASE => {
                self.expire_session_if_empty(GroupId((token - TIMER_EXPIRY_BASE) as u32));
            }
            token if token >= TIMER_JOIN_RETRY_BASE => {
                self.retry_join_if_unanswered(GroupId((token - TIMER_JOIN_RETRY_BASE) as u32), ctx);
            }
            token if token >= TIMER_LEAVE_RETRY_BASE => {
                self.retry_leave_if_unacked(GroupId((token - TIMER_LEAVE_RETRY_BASE) as u32), ctx);
            }
            token if token >= TIMER_TREE_RETRY_BASE => {
                let slot = token - TIMER_TREE_RETRY_BASE;
                let group = GroupId((slot >> 24) as u32);
                let child = NodeId((slot & 0x00FF_FFFF) as u32);
                self.retry_tree_if_unacked(group, child, ctx);
            }
            token if token >= TIMER_NACK_BASE => {
                let slot = token - TIMER_NACK_BASE;
                let group = GroupId((slot >> 24) as u32);
                let origin = NodeId((slot & 0x00FF_FFFF) as u32);
                self.rel_nack_timer(group, origin, ctx);
            }
            token if token >= TIMER_ANNOUNCE_BASE => {
                let slot = token - TIMER_ANNOUNCE_BASE;
                let group = GroupId((slot >> 24) as u32);
                let origin = NodeId((slot & 0x00FF_FFFF) as u32);
                self.rel_announce_timer(group, origin, ctx);
            }
            token if token >= TIMER_WATCHDOG_BASE => {
                let take_over = match &self.role {
                    // Both guards must agree: the generation stamp kills
                    // timers superseded by a later heartbeat, and the
                    // deadline kills stale timers whose token matches a
                    // reset generation (e.g. right after a demotion).
                    Role::Standby(s) => {
                        token - TIMER_WATCHDOG_BASE == s.watchdog_gen && ctx.now() >= s.deadline
                    }
                    _ => false,
                };
                if take_over {
                    self.standby_takeover(ctx);
                }
            }
            _ => {}
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
