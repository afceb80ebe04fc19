//! The m-router side of the state machine: centralized DCDM tree
//! construction on JOIN/LEAVE (§III-D), one session record per group
//! with the accounting log (§II-C), the switching-fabric port
//! assignment (§II-B) and the periodic tree repair scan (robustness
//! extension).

use super::{Role, ScmpRouter, Timer};
use crate::message::ScmpMsg;
use crate::session::AccountingLog;
use crate::tree_packet::{BranchPacket, TreePacket};
use scmp_net::{Metric, NodeId, PathProvider, Topology};
use scmp_sim::{Ctx, GroupId, Packet, SimTime};
use scmp_telemetry::{EventKind, HealthTrigger};
use scmp_tree::{Dcdm, MulticastTree};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Sample the tree-health metrics (cost, depth, members, stretch, delay
/// variation) and record them on the telemetry stream. The metric
/// computation walks the whole tree, so it is gated on telemetry being
/// enabled: sink-off runs pay nothing and behave identically.
pub(super) fn record_tree_health(
    group: GroupId,
    trigger: HealthTrigger,
    topo: &Topology,
    paths: &dyn PathProvider,
    tree: &MulticastTree,
    ctx: &mut Ctx<'_, ScmpMsg>,
) {
    if !ctx.telemetry_on() {
        return;
    }
    let h = scmp_tree::health(topo, paths, tree);
    ctx.observe(EventKind::TreeHealth {
        group: group.0,
        trigger,
        members: h.members,
        depth: h.depth,
        cost: h.cost,
        stretch_milli: h.stretch_milli,
        delay_var: h.delay_var,
    });
}

/// One open session at the m-router: everything it keeps per group.
/// The session is open exactly while the record exists.
#[derive(Debug)]
pub(super) struct Session {
    /// The mirrored multicast tree (§III-D: "the multicast tree is
    /// constructed in the m-router before it is physically formed in
    /// the domain").
    pub(super) tree: MulticastTree,
    /// The logged members in first-join order: what the accounting log
    /// says, whether or not the tree reaches them right now (the repair
    /// scan drops members it cannot reach and readopts them later).
    pub(super) members: Vec<NodeId>,
    /// Output port of the group in the switching fabric.
    port: usize,
}

/// m-router-only state.
#[derive(Debug)]
pub struct MRouterState {
    /// One record per open session.
    pub(super) groups: BTreeMap<GroupId, Session>,
    /// The accounting log: every JOIN and LEAVE that reached us.
    pub log: AccountingLog,
    /// Fabric port count (power of two ≥ 2 × expected groups): the size
    /// a `SandwichFabric` realising the sessions' ports is configured at.
    pub(super) fabric_size: usize,
    /// The last tree generation issued, over all groups: numbered per
    /// m-router rather than per group, a generation is never issued
    /// twice, even to a session that expired and reopened (routers keep
    /// flush tombstones across sessions).
    last_gen: u64,
    /// Added to every generation this m-router issues. Zero on the
    /// configured primary; a promoted standby starts at the epoch above
    /// everything it has seen, so its generations outrank the deposed
    /// primary's (see [`super::GEN_EPOCH_SHIFT`]).
    pub(super) gen_epoch: u64,
    pub(super) heartbeat_seq: u64,
    /// Set on a promoted standby once the deposed primary has proven
    /// itself alive (its heartbeat reached us after our takeover): from
    /// then on the promoted node heartbeats and mirrors membership back,
    /// making the survivor pair symmetric again.
    pub(super) peer_alive: bool,
    /// Nodes unreachable from this m-router as of `scanned_epoch`
    /// (empty in a healthy domain). A scan at a new liveness epoch diffs
    /// its fresh reachability view against this set to detect a
    /// partition forming (degraded mode) and healing (reconciliation).
    pub(super) unreachable: BTreeSet<NodeId>,
    /// The liveness epoch `unreachable` was computed at (`None` before
    /// the first scan): reachability cannot change while it stands.
    scanned_epoch: Option<u64>,
    /// The last scan found no tree to mend. Until the epoch moves no
    /// tree can become damaged and no logged member can become both
    /// reachable and off its tree — JOIN/LEAVE plan over the live view
    /// and keep the mirror whole — so scans at `scanned_epoch` are
    /// skipped. False on fresh state, so the first scan of a primary
    /// or of a promoted standby (whose mirrors start empty) looks.
    scan_clean: bool,
    /// When this m-router's one repair-scan series fires next. A scan
    /// timer due before it was armed by an earlier mastership of this
    /// node (stepped down, then promoted again) and dies without
    /// re-arming, so a node never runs two series.
    pub(super) next_scan: SimTime,
}

impl MRouterState {
    pub(super) fn new() -> Self {
        MRouterState {
            groups: BTreeMap::new(),
            log: AccountingLog::default(),
            fabric_size: 64,
            last_gen: 0,
            gen_epoch: 0,
            heartbeat_seq: 0,
            peer_alive: false,
            unreachable: BTreeSet::new(),
            scanned_epoch: None,
            scan_clean: false,
            next_scan: 0,
        }
    }

    /// Issue the next tree generation (offset into this m-router's
    /// takeover epoch).
    pub(super) fn next_gen(&mut self) -> u64 {
        self.last_gen += 1;
        self.gen_epoch + self.last_gen
    }

    /// Take `group`'s record out for an update; the caller puts it back.
    /// A group without one gets its session opened here, the one place
    /// records are made: an empty tree rooted at `root` over `n` nodes
    /// and the highest free fabric port.
    pub(super) fn checkout(&mut self, group: GroupId, n: usize, root: NodeId) -> Session {
        if let Some(session) = self.groups.remove(&group) {
            return session;
        }
        // Grow the fabric when the group count approaches the port count
        // (half the ports serve as source lines, half as group outputs —
        // a bigger switching fabric is exactly the §II-B scaling story).
        while self.groups.len() + 1 > self.fabric_size / 2 {
            self.fabric_size *= 2;
        }
        // Deterministic first-free assignment from the top of the port
        // range (low ports serve as source lines).
        let used: BTreeSet<usize> = self.groups.values().map(|s| s.port).collect();
        let port = (0..self.fabric_size)
            .rev()
            .find(|p| !used.contains(p))
            .expect("fabric has free ports");
        Session {
            tree: MulticastTree::new(n, root),
            members: Vec::new(),
            port,
        }
    }

    /// The mirrored tree for `group`, if its session is open.
    pub fn tree(&self, group: GroupId) -> Option<&MulticastTree> {
        Some(&self.groups.get(&group)?.tree)
    }

    /// The members of `group` according to the accounting log, in
    /// first-join order (empty when its session is not open).
    pub fn members(&self, group: GroupId) -> &[NodeId] {
        self.groups.get(&group).map_or(&[], |s| &s.members)
    }

    /// The fabric output port assigned to `group`.
    pub fn fabric_port(&self, group: GroupId) -> Option<usize> {
        Some(self.groups.get(&group)?.port)
    }
}

impl ScmpRouter {
    /// Where membership mirror updates go: the configured standby for
    /// the primary, or — on a promoted standby — back to the deposed
    /// primary once it has proven itself alive.
    pub(super) fn sync_peer(&self) -> Option<NodeId> {
        let cfg = &self.domain.config;
        let standby = cfg.standby?;
        if self.me != standby {
            return Some(standby);
        }
        match &self.role {
            Role::MRouter(state) if state.peer_alive => Some(cfg.m_router),
            _ => None,
        }
    }

    /// Mirror one membership change to the sync peer, if there is one.
    fn mirror_membership(
        &self,
        group: GroupId,
        txn: u64,
        member: NodeId,
        joined: bool,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        if let Some(peer) = self.sync_peer() {
            ctx.unicast(
                peer,
                Packet::control_keyed(group, txn, ScmpMsg::StandbySync { member, joined }),
            );
        }
    }

    // ------------------------------------------------------------------
    // m-router: centralized tree construction (§III-D)
    // ------------------------------------------------------------------

    pub(super) fn m_handle_join(
        &mut self,
        group: GroupId,
        requester: NodeId,
        txn: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let domain = Arc::clone(&self.domain);
        let me = self.me;
        let Role::MRouter(state) = &mut self.role else {
            return; // JOIN addressed to a node that is not the m-router
        };
        let mut session = state.checkout(group, domain.topo.node_count(), me);
        state
            .log
            .record(ctx.now(), group, requester, true, &mut session.members);
        // Plan over what is alive: a join during a fault grafts around
        // the dead links instead of across them.
        let paths = ctx.routes();
        // Reachability from our own (hot) delay tree: links and liveness
        // masks are symmetric, so it answers as the joiner's would, and
        // the joiner's tree is fetched only if DCDM needs it — never
        // for a joiner already on the tree.
        if paths.distance(me, requester, Metric::Delay).is_none() {
            // Cut off from us right now (its JOIN was already in
            // flight): it is on the books, and the repair scan readopts
            // it once the liveness epoch that reconnects it arrives.
            state.groups.insert(group, session);
            self.mirror_membership(group, txn, requester, true, ctx);
            return;
        }
        let gen = state.next_gen();
        let mut dcdm = Dcdm::with_tree(&domain.topo, paths, session.tree, domain.config.bound);
        let outcome = dcdm.join(requester);
        session.tree = dcdm.into_tree();
        let tree = &session.tree;

        // Refresh the m-router's own routing entry from the mirror.
        let entry = self.entry_or_default(group);
        entry.upstream = None;
        entry.downstream_routers = tree.children(me).iter().copied().collect();
        if requester == me {
            entry.local_interface = true;
        }

        // Physically form the change in the domain.
        if requester != me {
            if outcome.path.len() == 1 {
                // Requester was already on the tree — but its entry may
                // be gone (crash-recovered DR, TREE/BRANCH lost to
                // congestion), so re-send a BRANCH refresh along its root
                // path instead of distributing nothing. This makes a
                // repeated JOIN an idempotent state-repair primitive.
                if let Some(path) = tree.path_from_root(requester) {
                    if path.len() > 1 {
                        let bp = BranchPacket::from_root_path(&path);
                        let first = bp.path[0];
                        let pkt =
                            Packet::control_keyed(group, txn, ScmpMsg::Branch { gen, packet: bp });
                        self.send_tree_tracked(group, first, gen, pkt, ctx);
                    }
                }
            } else if outcome.is_simple_graft() && !domain.config.tree_packets_only {
                let path = tree.path_from_root(requester).expect("member on tree");
                let bp = BranchPacket::from_root_path(&path);
                let first = bp.path[0];
                let pkt = Packet::control_keyed(group, txn, ScmpMsg::Branch { gen, packet: bp });
                self.send_tree_tracked(group, first, gen, pkt, ctx);
            } else {
                // Restructured (or ablation): full TREE refresh, plus
                // explicit flushes for routers pruned off the tree.
                for &child in tree.children(me) {
                    let tp = TreePacket::from_tree(tree, child);
                    let pkt = Packet::control_keyed(group, txn, ScmpMsg::Tree { gen, packet: tp });
                    self.send_tree_tracked(group, child, gen, pkt, ctx);
                }
                for &gone in &outcome.pruned {
                    ctx.unicast(
                        gone,
                        Packet::control_keyed(group, txn, ScmpMsg::Flush { gen }),
                    );
                }
            }
        }

        record_tree_health(
            group,
            HealthTrigger::Join,
            &domain.topo,
            ctx.routes().healthy(),
            tree,
            ctx,
        );
        let Role::MRouter(state) = &mut self.role else {
            unreachable!()
        };
        state.groups.insert(group, session);
        self.mirror_membership(group, txn, requester, true, ctx);
    }

    pub(super) fn m_handle_leave(
        &mut self,
        group: GroupId,
        requester: NodeId,
        txn: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let domain = Arc::clone(&self.domain);
        let me = self.me;
        let Role::MRouter(state) = &mut self.role else {
            return;
        };
        // Ack first: the DR retransmits until acked, and processing below
        // is made idempotent so a duplicate LEAVE (lost ack) is harmless.
        // Membership ground truth is the accounting log, not the mirrored
        // tree — a repair rebuild may have dropped an unreachable member
        // from the tree while its join is still on the books.
        ctx.unicast(
            requester,
            Packet::control_keyed(group, txn, ScmpMsg::LeaveAck),
        );
        if !state.members(group).contains(&requester) {
            return; // duplicate of an already-processed LEAVE
        }
        let mut session = state
            .groups
            .remove(&group)
            .expect("a member's session is open");
        state
            .log
            .record(ctx.now(), group, requester, false, &mut session.members);
        state.next_gen();
        let mut dcdm = Dcdm::with_tree(
            &domain.topo,
            ctx.routes(),
            session.tree,
            domain.config.bound,
        );
        dcdm.leave(requester);
        session.tree = dcdm.into_tree();
        // The physical prune travels hop-by-hop from the leaving DR
        // (§III-D: "the real prune operation is accomplished by the
        // leaving member sending the PRUNE message upstream hop by
        // hop") — the m-router only refreshes its mirror and entry.
        let entry = self.entry_or_default(group);
        entry.downstream_routers = session.tree.children(me).iter().copied().collect();
        if requester == me {
            entry.local_interface = false;
        }
        // Emptiness is read from the log, not the tree: a member the
        // repair scan took off the tree while it was cut off is still
        // on the books, and the session must outlive its partition.
        let emptied = session.members.is_empty();
        record_tree_health(
            group,
            HealthTrigger::Leave,
            &domain.topo,
            ctx.routes().healthy(),
            &session.tree,
            ctx,
        );
        let Role::MRouter(state) = &mut self.role else {
            unreachable!()
        };
        state.groups.insert(group, session);
        if emptied && domain.config.session_expiry > 0 {
            ctx.set_timer(domain.config.session_expiry, Timer::Expiry(group).token());
        }
        self.mirror_membership(group, txn, requester, false, ctx);
    }

    /// Expiry timer fired for a group: if the log has held no member of
    /// it for `session_expiry` ticks, close the session — revoke the
    /// address and drop its record, fabric port and mirrored tree
    /// included. The one place a record is dropped.
    pub(super) fn expire_session_if_empty(&mut self, group: GroupId, now: SimTime) {
        let expiry = self.domain.config.session_expiry;
        let Role::MRouter(state) = &mut self.role else {
            return;
        };
        // A timer armed by an earlier LEAVE fires too soon when the group
        // was joined and left again since. The group's last record is
        // the LEAVE that emptied it, and the timer that LEAVE armed
        // closes the session.
        let idle = state.members(group).is_empty()
            && state
                .log
                .records()
                .iter()
                .rev()
                .find(|r| r.group == group)
                .is_none_or(|r| now >= r.time.saturating_add(expiry));
        if !idle {
            return;
        }
        state.groups.remove(&group);
        self.reclaim(group, |s| s.entry = None);
    }

    // ------------------------------------------------------------------
    // m-router: periodic tree repair (robustness extension)
    // ------------------------------------------------------------------

    /// Periodic repair scan. The m-router already owns the domain's
    /// link-state database (§II-D), so it learns about dead links and
    /// routers from the IGP; here that view is the engine's live path
    /// view. Every mirrored tree is assessed against it, and a damaged
    /// tree — or a tree missing a reachable logged member, e.g. after a
    /// partition heals — is rebuilt by re-running DCDM over whatever is
    /// alive. Pruned-off routers get explicit flushes so stale entries
    /// cannot black-hole later traffic. The same scan builds a promoted
    /// standby's trees: its mirrors start empty, so its first scan
    /// readopts every logged member it can reach.
    ///
    /// Everything the scan looks at is a function of the liveness epoch
    /// and of the mirror, and JOIN/LEAVE keep the mirror whole, so a
    /// scan at the epoch of a scan that found nothing to mend has
    /// nothing to find either and returns at once.
    pub(super) fn m_repair_scan(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        let _span = scmp_telemetry::TimedScope::new(scmp_telemetry::Span::RepairScan);
        let domain = Arc::clone(&self.domain);
        let me = self.me;
        let Role::MRouter(state) = &mut self.role else {
            return; // role changed since the timer was armed
        };
        if ctx.now() < state.next_scan {
            return; // armed before this node last stepped down
        }
        let interval = domain.config.repair_interval;
        if interval > 0 {
            // Re-arm first so a scan can never silence itself.
            state.next_scan = ctx.now().saturating_add(interval);
            ctx.set_timer(interval, Timer::Repair.token());
        }
        let epoch = ctx.routes().epoch();
        let same_epoch = state.scanned_epoch == Some(epoch);
        if same_epoch && state.scan_clean {
            if !state.unreachable.is_empty() {
                ctx.record_partition_degraded_tick();
            }
            ctx.record_repair_scan(false);
            return;
        }
        ctx.record_repair_scan(true);
        let paths = ctx.routes();
        // Reachable = has a distance in the tree rooted here.
        let reach = paths.tree(me, Metric::Delay);
        let reachable = |v: NodeId| reach.distance(v).is_some();
        // Partition bookkeeping: at a new liveness epoch, diff the fresh
        // reachability view against the previous one. Everything here is
        // a no-op in a healthy domain — fault-free runs stay
        // byte-identical.
        if !same_epoch {
            state.scanned_epoch = Some(epoch);
            let unreachable_now: BTreeSet<NodeId> =
                domain.topo.nodes().filter(|&v| !reachable(v)).collect();
            if unreachable_now != state.unreachable {
                let newly_stranded = unreachable_now.difference(&state.unreachable).count();
                let healed: Vec<NodeId> = state
                    .unreachable
                    .difference(&unreachable_now)
                    .copied()
                    .collect();
                if newly_stranded > 0 {
                    // How many logged members sit on the far side — the
                    // ones degraded mode cannot serve until the heal.
                    let stranded_members = state
                        .groups
                        .values()
                        .flat_map(|s| &s.members)
                        .filter(|m| unreachable_now.contains(m))
                        .collect::<BTreeSet<_>>()
                        .len();
                    ctx.observe(EventKind::Partition {
                        stranded: unreachable_now.len() as u32,
                        members: stranded_members as u32,
                    });
                }
                if !healed.is_empty() {
                    ctx.observe(EventKind::Heal {
                        restored: healed.len() as u32,
                    });
                    // Reconciliation, step 1 (dual-root rule): a
                    // promoted standby re-announces its mastership to
                    // every healed node. The far side may still believe
                    // in the deposed primary — or *be* that primary,
                    // back from isolation with stale mastership; its
                    // `handle_new_mrouter` steps it down because the
                    // takeover epoch outranks every generation it ever
                    // issued. The announcement is idempotent, so
                    // repeating it on every heal is safe.
                    if Some(me) == domain.config.standby {
                        for &v in &healed {
                            ctx.unicast(
                                v,
                                Packet::control(GroupId(0), ScmpMsg::NewMRouter { address: me }),
                            );
                        }
                    }
                }
                state.unreachable = unreachable_now;
            }
        }
        if !state.unreachable.is_empty() {
            ctx.record_partition_degraded_tick();
        }
        // Phase 1 (read-only): which groups need surgery?
        let damaged: Vec<GroupId> = state
            .groups
            .iter()
            .filter(|(_, s)| {
                let tree = &s.tree;
                let damage =
                    scmp_tree::repair::assess(tree, |v| ctx.node_up(v), |a, b| ctx.link_up(a, b));
                let readopt = s
                    .members
                    .iter()
                    .any(|&m| !tree.is_member(m) && reachable(m));
                !damage.is_intact() || readopt
            })
            .map(|(&group, _)| group)
            .collect();
        state.scan_clean = damaged.is_empty();
        if damaged.is_empty() {
            return;
        }
        for group in damaged {
            // The scan originates its own causal transaction per group,
            // so repair cascades correlate like join/leave cascades do.
            let txn = self.fresh_txn();
            let Role::MRouter(state) = &mut self.role else {
                unreachable!()
            };
            // Members partitioned away stay off the tree until a later
            // scan sees them reachable again (the readopt check above).
            let gen = state.next_gen();
            let old = &state.groups[&group];
            let members: Vec<NodeId> = old
                .members
                .iter()
                .copied()
                .filter(|&m| reachable(m))
                .collect();
            let old_nodes = old.tree.on_tree_nodes();
            // Members coming back onto the tree in this rebuild (on the
            // books, reachable, but off the old mirror): the post-heal
            // readoption the reconcile telemetry accounts.
            let readopted = members.iter().filter(|&&m| !old.tree.is_member(m)).count();
            // Only the trees rooted at the reachable members and the
            // m-router are computed, not all 2n — repair touches a
            // handful of sources even in big domains.
            let mut dcdm = Dcdm::new(&domain.topo, paths, me, domain.config.bound);
            for &m in &members {
                dcdm.join(m);
            }
            let tree = dcdm.into_tree();
            let local = self.subnet.has_members(group);
            let entry = self.entry_or_default(group);
            entry.upstream = None;
            entry.downstream_routers = tree.children(me).iter().copied().collect();
            entry.local_interface = local;
            entry.gen = gen;
            for &child in tree.children(me) {
                let tp = TreePacket::from_tree(&tree, child);
                let pkt = Packet::control_keyed(group, txn, ScmpMsg::Tree { gen, packet: tp });
                self.send_tree_tracked(group, child, gen, pkt, ctx);
            }
            // Flush reachable routers that fell off the tree; partitioned
            // ones keep stale state, which generation stamps and the
            // §III-F forwarding-set check neutralise.
            for v in old_nodes {
                if v != me && !tree.contains(v) && reachable(v) {
                    ctx.unicast(v, Packet::control_keyed(group, txn, ScmpMsg::Flush { gen }));
                }
            }
            record_tree_health(
                group,
                HealthTrigger::Repair,
                &domain.topo,
                paths,
                &tree,
                ctx,
            );
            if readopted > 0 {
                ctx.observe(EventKind::Reconcile {
                    group: group.0,
                    readopted: readopted as u32,
                    epoch: gen,
                });
            }
            let Role::MRouter(state) = &mut self.role else {
                unreachable!()
            };
            state.groups.get_mut(&group).expect("scanned above").tree = tree;
        }
        ctx.record_repair();
    }
}
