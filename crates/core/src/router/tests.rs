use super::*;
use scmp_net::topology::examples::fig5;
use scmp_net::Topology;
use scmp_sim::Engine;

const G: GroupId = GroupId(1);

fn build(topo: Topology, config: ScmpConfig) -> Engine<ScmpRouter> {
    let domain = ScmpDomain::new(topo, config);
    Engine::new(domain.topo.clone(), move |me, _, _| {
        ScmpRouter::new(me, Arc::clone(&domain))
    })
}

fn fig5_engine() -> Engine<ScmpRouter> {
    build(fig5(), ScmpConfig::new(NodeId(0)))
}

#[test]
fn single_join_installs_branch() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.run_to_quiescence();
    // BRANCH path 0-1-4: node 1 forwards, node 4 is the member.
    let r1 = e.router(NodeId(1));
    let entry = r1.entry(G).expect("node 1 on tree");
    assert_eq!(entry.upstream, Some(NodeId(0)));
    assert!(entry.downstream_routers.contains(&NodeId(4)));
    assert!(!entry.local_interface);
    let r4 = e.router(NodeId(4));
    let entry = r4.entry(G).expect("node 4 on tree");
    assert_eq!(entry.upstream, Some(NodeId(1)));
    assert!(entry.local_interface);
    // m-router mirror matches.
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(m.tree(G).unwrap().is_member(NodeId(4)));
}

#[test]
fn fig5_walkthrough_forms_paper_tree() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G)); // g1
    e.schedule_app(1_000, NodeId(3), AppEvent::Join(G)); // g2
    e.schedule_app(2_000, NodeId(5), AppEvent::Join(G)); // g3
    e.run_to_quiescence();
    // Final tree (Fig. 5d): 0-1-4, 0-2, 2-3, 2-5.
    let expect = [
        (NodeId(0), None, vec![NodeId(1), NodeId(2)]),
        (NodeId(1), Some(NodeId(0)), vec![NodeId(4)]),
        (NodeId(2), Some(NodeId(0)), vec![NodeId(3), NodeId(5)]),
        (NodeId(3), Some(NodeId(2)), vec![]),
        (NodeId(4), Some(NodeId(1)), vec![]),
        (NodeId(5), Some(NodeId(2)), vec![]),
    ];
    for (node, up, down) in expect {
        let entry = e
            .router(node)
            .entry(G)
            .unwrap_or_else(|| panic!("{node:?} off tree"));
        assert_eq!(entry.upstream, up, "{node:?} upstream");
        let d: Vec<NodeId> = entry.downstream_routers.iter().copied().collect();
        assert_eq!(d, down, "{node:?} downstream");
    }
}

#[test]
fn on_tree_source_reaches_all_members() {
    let mut e = fig5_engine();
    for (t, n) in [(0, 4u32), (1_000, 3), (2_000, 5)] {
        e.schedule_app(t, NodeId(n), AppEvent::Join(G));
    }
    e.schedule_app(10_000, NodeId(4), AppEvent::Send { group: G, tag: 1 });
    e.run_to_quiescence();
    for m in [4u32, 3, 5] {
        assert_eq!(e.stats().delivery_count(G, 1, NodeId(m)), 1, "member {m}");
    }
    assert!(!e.stats().has_duplicate_deliveries());
}

#[test]
fn off_tree_source_encapsulates_via_m_router() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    // Node 5 is NOT on the tree; it sends.
    e.schedule_app(5_000, NodeId(5), AppEvent::Send { group: G, tag: 7 });
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(G, 7, NodeId(4)), 1);
    // Sender itself has no members: no local delivery.
    assert_eq!(e.stats().delivery_count(G, 7, NodeId(5)), 0);
}

#[test]
fn leave_prunes_physically() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(3), AppEvent::Join(G));
    e.schedule_app(5_000, NodeId(4), AppEvent::Leave(G));
    e.run_to_quiescence();
    assert!(e.router(NodeId(4)).entry(G).is_none(), "4 pruned");
    // Node 1 still forwards toward 2-3 (Fig. 5b tree), so it stays.
    let e1 = e.router(NodeId(1)).entry(G).expect("1 keeps forwarding");
    assert_eq!(
        e1.downstream_routers.iter().copied().collect::<Vec<_>>(),
        vec![NodeId(2)]
    );
    // Tree mirror agrees.
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(!m.tree(G).unwrap().contains(NodeId(4)));
    assert!(m.tree(G).unwrap().is_member(NodeId(3)));
    // Data still reaches the remaining member.
    let mut e2 = e;
    let later = e2.now() + 20_000;
    e2.schedule_app(later, NodeId(0), AppEvent::Send { group: G, tag: 2 });
    e2.run_to_quiescence();
    assert_eq!(e2.stats().delivery_count(G, 2, NodeId(3)), 1);
    assert_eq!(e2.stats().delivery_count(G, 2, NodeId(4)), 0);
}

#[test]
fn second_host_join_and_partial_leave_keep_tree() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(4), AppEvent::Join(G)); // second host, same subnet
    e.schedule_app(2_000, NodeId(4), AppEvent::Leave(G)); // one host leaves
    e.run_to_quiescence();
    // Subnet still has a member: entry and interface stay.
    let entry = e.router(NodeId(4)).entry(G).expect("still on tree");
    assert!(entry.local_interface);
}

#[test]
fn m_router_subnet_membership() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(0), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(4), AppEvent::Join(G));
    e.schedule_app(5_000, NodeId(4), AppEvent::Send { group: G, tag: 3 });
    e.run_to_quiescence();
    // The m-router's own subnet hears the data.
    assert_eq!(e.stats().delivery_count(G, 3, NodeId(0)), 1);
    assert_eq!(e.stats().delivery_count(G, 3, NodeId(4)), 1);
}

#[test]
fn restructure_sends_tree_packets_and_flushes() {
    // The Fig. 5 walkthrough restructures on g3's join; verify node
    // entries stay consistent and no stale path remains from node 1
    // to node 2.
    let mut e = fig5_engine();
    for (t, n) in [(0, 4u32), (1_000, 3), (2_000, 5)] {
        e.schedule_app(t, NodeId(n), AppEvent::Join(G));
    }
    e.schedule_app(10_000, NodeId(0), AppEvent::Send { group: G, tag: 9 });
    e.run_to_quiescence();
    for m in [3u32, 4, 5] {
        assert_eq!(e.stats().delivery_count(G, 9, NodeId(m)), 1, "member {m}");
    }
    assert!(!e.stats().has_duplicate_deliveries());
    // Node 1's downstream no longer contains node 2.
    assert!(!e
        .router(NodeId(1))
        .entry(G)
        .unwrap()
        .downstream_routers
        .contains(&NodeId(2)));
}

#[test]
fn tree_packets_only_ablation_works() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.tree_packets_only = true;
    let mut e = build(fig5(), cfg);
    for (t, n) in [(0, 4u32), (1_000, 3), (2_000, 5)] {
        e.schedule_app(t, NodeId(n), AppEvent::Join(G));
    }
    e.schedule_app(10_000, NodeId(4), AppEvent::Send { group: G, tag: 1 });
    e.run_to_quiescence();
    for m in [3u32, 4, 5] {
        assert_eq!(e.stats().delivery_count(G, 1, NodeId(m)), 1);
    }
}

#[test]
fn fabric_port_assigned_per_group() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(0, NodeId(3), AppEvent::Join(GroupId(2)));
    e.run_to_quiescence();
    let m = e.router(NodeId(0)).m_state().unwrap();
    let p1 = m.fabric_port(G).unwrap();
    let p2 = m.fabric_port(GroupId(2)).unwrap();
    assert_ne!(p1, p2);
}

#[test]
fn accounting_log_records_all_membership_traffic() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(3), AppEvent::Join(G));
    e.schedule_app(2_000, NodeId(4), AppEvent::Leave(G));
    e.run_to_quiescence();
    let m = e.router(NodeId(0)).m_state().unwrap();
    let log = m.log.records();
    assert_eq!(log.len(), 3);
    assert!(log[0].joined && log[0].node == NodeId(4));
    assert!(!log[2].joined && log[2].node == NodeId(4));
    assert_eq!(m.members(G), vec![NodeId(3)]);
}

#[test]
fn failover_restores_service() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(2));
    cfg.heartbeat_interval = 500;
    cfg.takeover_rebuild_delay = 500;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(3), AppEvent::Join(G));
    e.run_until(3_000);
    // Primary dies.
    e.set_node_down(NodeId(0), true);
    e.run_until(20_000);
    // Standby must have taken over.
    assert!(e.router(NodeId(2)).is_m_router(), "standby promoted");
    assert_eq!(e.router(NodeId(4)).m_router_address(), NodeId(2));
    // Data from an off-tree source flows through the new m-router.
    e.schedule_app(21_000, NodeId(1), AppEvent::Send { group: G, tag: 5 });
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(G, 5, NodeId(4)), 1);
    assert_eq!(e.stats().delivery_count(G, 5, NodeId(3)), 1);
}

#[test]
fn re_promoted_primary_plans_around_the_standby() {
    use scmp_sim::FaultEvent;
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(2));
    cfg.heartbeat_interval = 500;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(3), AppEvent::Join(G));
    // Cut the primary off long enough for the standby to promote, then
    // heal: the primary hears the promoted standby and steps down.
    let a = NodeId(0);
    let neighbours: Vec<NodeId> = e.topo().neighbors(a).iter().map(|l| l.to).collect();
    for &b in &neighbours {
        e.schedule_fault(3_000, FaultEvent::LinkDown { a, b });
        e.schedule_fault(20_000, FaultEvent::LinkUp { a, b });
    }
    e.run_until(40_000);
    assert!(e.router(NodeId(2)).is_m_router(), "standby promoted");
    assert!(!e.router(NodeId(0)).is_m_router(), "primary stepped down");
    // The promoted standby dies and the primary takes over again. Its
    // first scan plans over the live view, where node 2 is down.
    e.set_node_down(NodeId(2), true);
    e.schedule_app(81_000, NodeId(1), AppEvent::Send { group: G, tag: 7 });
    e.run_until(200_000);
    assert!(e.router(NodeId(0)).is_m_router(), "primary promoted back");
    for m in [4u32, 3] {
        assert_eq!(e.stats().delivery_count(G, 7, NodeId(m)), 1, "member {m}");
    }
}

/// Scan ticks counted so far, full and skipped alike.
fn scans(e: &Engine<ScmpRouter>) -> u64 {
    e.stats().repair_scans_full + e.stats().repair_scans_skipped
}

#[test]
fn a_promoted_standby_keeps_scanning() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(2));
    cfg.heartbeat_interval = 500;
    cfg.repair_interval = 1_000;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(3), AppEvent::Join(G));
    e.run_until(3_000);
    e.set_node_down(NodeId(0), true);
    e.run_until(10_000);
    assert!(e.router(NodeId(2)).is_m_router(), "standby promoted");
    // The takeover armed a series that keeps its period for good: one
    // tick per interval, never a second series alongside.
    let mut seen = scans(&e);
    for (from, to) in [(10_000, 20_000), (20_000, 40_000), (40_000, 60_000)] {
        e.run_until(to);
        assert_eq!(
            scans(&e) - seen,
            (to - from) / 1_000,
            "scans in ({from}, {to}]"
        );
        seen = scans(&e);
    }
    let m = e.router(NodeId(2)).m_state().unwrap();
    let tree = m.tree(G).unwrap();
    assert!(tree.is_member(NodeId(4)) && tree.is_member(NodeId(3)));
}

#[test]
fn a_re_promoted_primary_runs_one_scan_series() {
    use scmp_sim::FaultEvent;
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(2));
    cfg.heartbeat_interval = 500;
    cfg.repair_interval = 50_000;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    // Node 0 is cut off while its first scan is still pending, steps
    // down on the heal, and is promoted again once node 2 dies: that
    // old timer then fires on a node whose takeover armed a series.
    let a = NodeId(0);
    let neighbours: Vec<NodeId> = e.topo().neighbors(a).iter().map(|l| l.to).collect();
    for &b in &neighbours {
        e.schedule_fault(3_000, FaultEvent::LinkDown { a, b });
        e.schedule_fault(20_000, FaultEvent::LinkUp { a, b });
    }
    e.run_until(25_000);
    e.set_node_down(NodeId(2), true);
    e.run_until(100_000);
    assert!(e.router(NodeId(0)).is_m_router(), "primary promoted back");
    let before = scans(&e);
    e.run_until(300_000);
    assert_eq!(scans(&e) - before, 4, "one tick per 50 000");
}

#[test]
fn a_takeover_plans_over_what_is_alive() {
    use scmp_net::{LinkWeight, Metric, TopologyBuilder};
    use scmp_sim::FaultEvent;
    use scmp_tree::{repair, Dcdm};
    // Primary 0 is one hop from member 4; without it, the standby's
    // short way to 4 is 1-2-4 and its long one 1-3-4.
    let detour = |with_primary: bool| {
        let primary = [(0, 1, 1), (0, 4, 1)];
        let rest = [(1, 2, 1), (2, 4, 1), (1, 3, 5), (3, 4, 5)];
        let mut b = TopologyBuilder::new(5);
        for (x, y, d) in rest
            .into_iter()
            .chain(primary.into_iter().filter(|_| with_primary))
        {
            b.add_link(NodeId(x), NodeId(y), LinkWeight::new(d, d));
        }
        b.build()
    };
    let dead = (NodeId(2), NodeId(4));
    // The static plan around the primary crosses the link that dies.
    let around = detour(false);
    let paths = scmp_net::AllPairsPaths::compute(&around);
    assert_eq!(
        paths.path(NodeId(1), NodeId(4), Metric::Delay),
        Some(vec![NodeId(1), dead.0, dead.1])
    );
    let mut plan = Dcdm::new(&around, &paths, NodeId(1), scmp_tree::DelayBound::Dynamic);
    plan.join(NodeId(4));
    assert!(plan.into_tree().edges().contains(&dead));

    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(1));
    cfg.heartbeat_interval = 500;
    let mut e = build(detour(true), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_fault(
        1_000,
        FaultEvent::LinkDown {
            a: dead.0,
            b: dead.1,
        },
    );
    e.schedule_fault(3_000, FaultEvent::RouterCrash { node: NodeId(0) });
    e.schedule_app(15_000, NodeId(3), AppEvent::Send { group: G, tag: 1 });
    e.run_until(20_000);
    assert!(e.router(NodeId(1)).is_m_router(), "standby promoted");
    let tree = e.router(NodeId(1)).m_state().unwrap().tree(G).unwrap();
    assert!(tree.is_member(NodeId(4)), "member readopted");
    let damage = repair::assess(
        tree,
        |v| e.node_is_up(v),
        |a, b| (a.min(b), a.max(b)) != dead,
    );
    assert!(
        damage.is_intact(),
        "the mirror crosses a dead link: {damage:?}"
    );
    assert_eq!(e.stats().delivery_count(G, 1, NodeId(4)), 1);
}

#[test]
fn no_takeover_while_primary_alive() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(2));
    cfg.heartbeat_interval = 500;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.run_until(50_000);
    assert!(e.router(NodeId(0)).is_m_router());
    assert!(!e.router(NodeId(2)).is_m_router());
    assert_eq!(e.router(NodeId(4)).m_router_address(), NodeId(0));
}

#[test]
fn data_to_empty_group_evaporates() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(5), AppEvent::Send { group: G, tag: 1 });
    e.run_to_quiescence();
    assert_eq!(e.stats().distinct_deliveries(), 0);
    // The encapsulated packet still cost data overhead on its way.
    assert!(e.stats().data_overhead > 0);
}

#[test]
fn staleness_rules() {
    // A protocol run stamps real generations...
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.run_to_quiescence();
    assert!(e.router(NodeId(1)).entry(G).unwrap().gen >= 1);
    // ...and the staleness predicate orders packets against both the
    // installed entry and the flush tombstone.
    let domain = ScmpDomain::new(fig5(), ScmpConfig::new(NodeId(0)));
    let mut r = ScmpRouter::new(NodeId(1), domain);
    *r.entry_or_default(G) = RoutingEntry {
        upstream: Some(NodeId(0)),
        downstream_routers: [NodeId(4)].into(),
        local_interface: false,
        gen: 5,
    };
    assert!(r.is_stale(G, 5), "equal generation is stale");
    assert!(r.is_stale(G, 3), "older generation is stale");
    assert!(!r.is_stale(G, 6), "newer generation applies");
    r.flushed.insert(G, 9);
    assert!(r.is_stale(G, 7), "tombstone outranks the entry");
    assert!(!r.is_stale(G, 10));
}

#[test]
fn join_retries_through_transient_failure() {
    // The link carrying the JOIN is down when the host joins; the
    // retry timer must re-register the member once it recovers.
    let mut e = fig5_engine();
    e.set_link_down(NodeId(0), NodeId(3), true);
    e.set_link_down(NodeId(2), NodeId(3), true);
    // Node 3 is now unreachable except via... fig5: 3 connects to 0
    // and 2 only, so it is fully cut off.
    e.schedule_app(0, NodeId(3), AppEvent::Join(G));
    e.run_until(400_000);
    assert!(
        e.router(NodeId(3)).entry(G).is_none(),
        "join lost while cut off"
    );
    e.set_link_down(NodeId(0), NodeId(3), false);
    e.set_link_down(NodeId(2), NodeId(3), false);
    e.run_to_quiescence();
    let entry = e.router(NodeId(3)).entry(G).expect("retry re-registered");
    assert!(entry.local_interface);
    // Data now reaches it.
    let later = e.now() + 10_000;
    e.schedule_app(later, NodeId(5), AppEvent::Send { group: G, tag: 1 });
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(G, 1, NodeId(3)), 1);
}

#[test]
fn session_expires_after_memberless_period() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.session_expiry = 100_000;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(50_000, NodeId(4), AppEvent::Leave(G));
    e.run_to_quiescence();
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(m.tree(G).is_none(), "tree state torn down");
    assert!(m.fabric_port(G).is_none(), "fabric port revoked");
    assert!(m.groups.is_empty(), "session closed");
}

#[test]
fn rejoin_before_expiry_cancels_teardown() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.session_expiry = 500_000;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(50_000, NodeId(4), AppEvent::Leave(G));
    // Rejoin while the expiry timer is pending.
    e.schedule_app(200_000, NodeId(3), AppEvent::Join(G));
    e.run_to_quiescence();
    let m = e.router(NodeId(0)).m_state().unwrap();
    let tree = m.tree(G).expect("session survived");
    assert!(tree.is_member(NodeId(3)));
    // Data still flows.
    let mut e2 = e;
    e2.schedule_app(2_000_000, NodeId(5), AppEvent::Send { group: G, tag: 1 });
    e2.run_to_quiescence();
    assert_eq!(e2.stats().delivery_count(G, 1, NodeId(3)), 1);
}

#[test]
fn generations_increase_per_membership_change() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.run_to_quiescence();
    let g1 = e.router(NodeId(4)).entry(G).unwrap().gen;
    let later = e.now() + 10_000;
    e.schedule_app(later, NodeId(3), AppEvent::Join(G));
    e.run_to_quiescence();
    let g2 = e.router(NodeId(3)).entry(G).unwrap().gen;
    assert!(g2 > g1, "second join distributes a newer generation");
}

#[test]
fn rapid_join_leave_churn_stays_consistent() {
    let mut e = fig5_engine();
    let mut t = 0;
    for round in 0..5 {
        for n in [3u32, 4, 5] {
            e.schedule_app(t, NodeId(n), AppEvent::Join(G));
            t += 100;
        }
        for n in [3u32, 4, 5] {
            e.schedule_app(t, NodeId(n), AppEvent::Leave(G));
            t += 100;
        }
        let _ = round;
    }
    e.run_to_quiescence();
    // Everyone left: no entries anywhere except possibly the root's.
    for v in 1..6u32 {
        assert!(
            e.router(NodeId(v)).entry(G).is_none(),
            "node {v} kept a stale entry"
        );
    }
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert_eq!(m.tree(G).unwrap().member_count(), 0);
    assert_eq!(m.tree(G).unwrap().on_tree_count(), 1);
}

#[test]
fn repair_scan_reroutes_around_cut_tree_link() {
    use scmp_sim::FaultEvent;
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = 2_000;
    let mut e = build(fig5(), cfg);
    for (t, n) in [(0, 4u32), (1_000, 3), (2_000, 5)] {
        e.schedule_app(t, NodeId(n), AppEvent::Join(G));
    }
    // Fig. 5d tree: 0-1-4, 0-2, 2-3, 2-5. Cutting 0-2 orphans the
    // whole right side; 2 stays reachable via 1-2 and 3-2.
    e.schedule_fault(
        20_000,
        FaultEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(2),
        },
    );
    e.schedule_app(15_000, NodeId(0), AppEvent::Send { group: G, tag: 1 });
    e.schedule_app(30_000, NodeId(0), AppEvent::Send { group: G, tag: 2 });
    e.run_until(60_000);
    for m in [4u32, 3, 5] {
        assert_eq!(
            e.stats().delivery_count(G, 1, NodeId(m)),
            1,
            "pre-cut to {m}"
        );
        assert_eq!(
            e.stats().delivery_count(G, 2, NodeId(m)),
            1,
            "post-repair to {m}"
        );
    }
    assert!(!e.stats().has_duplicate_deliveries());
    assert!(e.stats().repairs >= 1, "repair scan must have fired");
    // The scan runs within one interval of the fault; allow slack for
    // the timer phase.
    assert!(
        e.stats().max_repair_latency <= 2 * 2_000,
        "repair latency {} too high",
        e.stats().max_repair_latency
    );
    // The repaired mirror avoids the dead link.
    let m = e.router(NodeId(0)).m_state().unwrap();
    let tree = m.tree(G).unwrap();
    assert_eq!(tree.validate(None), Ok(()));
    for (p, c) in tree.edges() {
        assert!(
            !(p.0.min(c.0) == 0 && p.0.max(c.0) == 2),
            "repaired tree still uses the dead link"
        );
    }
}

#[test]
fn repair_scan_idle_when_network_healthy() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = 1_000;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    let before = {
        e.run_until(5_000);
        e.stats().protocol_overhead
    };
    e.run_until(100_000);
    // Scans keep running but distribute nothing: no repairs, no
    // control traffic beyond the initial join.
    assert_eq!(e.stats().repairs, 0);
    assert_eq!(e.stats().protocol_overhead, before);
}

#[test]
fn healthy_scans_are_skipped_after_the_first() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = 1_000;
    let mut e = build(fig5(), cfg);
    for (t, n) in [(0, 4u32), (3_500, 3), (7_500, 5)] {
        e.schedule_app(t, NodeId(n), AppEvent::Join(G));
    }
    e.run_until(100_500);
    // The liveness epoch never moves and JOINs keep the mirror whole:
    // only the very first tick has anything to look at.
    let stats = e.stats();
    assert_eq!(stats.liveness_epochs, 0);
    assert_eq!(stats.repair_scans_full, 1);
    assert_eq!(stats.repair_scans_skipped, 99);
    assert_eq!(stats.spf_runs, 0, "healthy routes come from the tables");
}

#[test]
fn join_in_flight_when_its_requester_is_cut_off_is_readopted() {
    use scmp_sim::FaultEvent;
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = 2_000;
    let mut e = build(fig5(), cfg);
    // Node 4 hangs off 1-4 alone. Its JOIN leaves at 0 and reaches the
    // m-router at 12 (4-1-0); the link dies at 5, so the JOIN is
    // processed for a requester nothing can reach.
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    let (a, b) = (NodeId(1), NodeId(4));
    e.schedule_fault(5, FaultEvent::LinkDown { a, b });
    e.run_until(1_000);
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert_eq!(m.members(G), [NodeId(4)], "on the books");
    assert!(m.tree(G).is_none_or(|t| !t.contains(NodeId(4))));
    // The heal moves the epoch; the next scan grafts it back.
    e.schedule_fault(3_000, FaultEvent::LinkUp { a, b });
    e.schedule_app(6_000, NodeId(0), AppEvent::Send { group: G, tag: 1 });
    e.run_until(10_000);
    assert_eq!(e.stats().delivery_count(G, 1, NodeId(4)), 1);
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(m.tree(G).unwrap().is_member(NodeId(4)));
}

#[test]
fn repair_readopts_member_after_partition_heals() {
    use scmp_sim::FaultEvent;
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = 2_000;
    let mut e = build(fig5(), cfg);
    for (t, n) in [(0, 4u32), (1_000, 3), (2_000, 5)] {
        e.schedule_app(t, NodeId(n), AppEvent::Join(G));
    }
    // Cut node 5 off entirely (its only link is 2-5): the repair
    // drops it from the tree; when the link heals, a later scan must
    // graft it back without any new JOIN from the host.
    e.schedule_fault(
        10_000,
        FaultEvent::LinkDown {
            a: NodeId(2),
            b: NodeId(5),
        },
    );
    e.run_until(20_000);
    {
        let m = e.router(NodeId(0)).m_state().unwrap();
        assert!(
            !m.tree(G).unwrap().is_member(NodeId(5)),
            "5 dropped while cut"
        );
    }
    e.schedule_fault(
        30_000,
        FaultEvent::LinkUp {
            a: NodeId(2),
            b: NodeId(5),
        },
    );
    e.schedule_app(50_000, NodeId(0), AppEvent::Send { group: G, tag: 9 });
    e.run_until(80_000);
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(m.tree(G).unwrap().is_member(NodeId(5)), "5 re-adopted");
    assert_eq!(e.stats().delivery_count(G, 9, NodeId(5)), 1);
    assert!(e.stats().repairs >= 2, "cut + heal each trigger a repair");
}

#[test]
fn rejoin_after_dr_crash_reinstalls_entry() {
    use scmp_sim::FaultEvent;
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_fault(10_000, FaultEvent::RouterCrash { node: NodeId(4) });
    e.schedule_fault(20_000, FaultEvent::RouterRecover { node: NodeId(4) });
    // The recovered DR lost its entry and subnet, but the m-router
    // still counts node 4 as a member. A fresh host join must
    // re-install the entry via the BRANCH refresh (a JOIN for an
    // existing member used to distribute nothing).
    e.schedule_app(30_000, NodeId(4), AppEvent::Join(G));
    e.run_to_quiescence();
    let entry = e.router(NodeId(4)).entry(G).expect("entry reinstalled");
    assert!(entry.local_interface);
    assert_eq!(entry.upstream, Some(NodeId(1)));
    let later = e.now() + 1_000;
    e.schedule_app(later, NodeId(0), AppEvent::Send { group: G, tag: 3 });
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(G, 3, NodeId(4)), 1);
}

#[test]
fn leave_is_acked_and_recorded_once() {
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(10_000, NodeId(4), AppEvent::Leave(G));
    e.run_to_quiescence();
    let m = e.router(NodeId(0)).m_state().unwrap();
    // Ack landed before the first retry: exactly one leave record.
    assert_eq!(m.log.records().len(), 2);
    assert!(m.members(G).is_empty());
}

#[test]
fn leave_retries_through_transient_failure() {
    // The member is cut off when its last host leaves; the LEAVE is
    // lost, and the retransmission after the links heal must still
    // deregister it (otherwise billing runs forever).
    let mut e = fig5_engine();
    e.schedule_app(0, NodeId(3), AppEvent::Join(G));
    e.run_until(5_000);
    e.set_link_down(NodeId(0), NodeId(3), true);
    e.set_link_down(NodeId(2), NodeId(3), true);
    e.schedule_app(6_000, NodeId(3), AppEvent::Leave(G));
    e.run_until(400_000);
    {
        let m = e.router(NodeId(0)).m_state().unwrap();
        assert_eq!(m.members(G), vec![NodeId(3)], "LEAVE lost while cut off");
    }
    e.set_link_down(NodeId(0), NodeId(3), false);
    e.set_link_down(NodeId(2), NodeId(3), false);
    e.run_to_quiescence();
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(
        m.members(G).is_empty(),
        "retried LEAVE deregistered the member"
    );
}

#[test]
fn a_rejoin_ends_the_pending_leave() {
    // Node 4's LEAVE is acked only after its host is back: the retry
    // armed at 5 000 fires at 5 010, before the ack of the first LEAVE
    // lands. Resending it then would make the m-router log node 4 as
    // gone and drop it from the tree, while node 4 keeps its entry with
    // the local interface on and never hears another payload.
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.leave_retry = 10;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(0, NodeId(3), AppEvent::Join(G));
    e.schedule_app(5_000, NodeId(4), AppEvent::Leave(G));
    e.schedule_app(5_005, NodeId(4), AppEvent::Join(G));
    e.schedule_app(20_000, NodeId(3), AppEvent::Send { group: G, tag: 1 });
    e.run_to_quiescence();
    let entry = e.router(NodeId(4)).entry(G).expect("node 4 on the tree");
    assert!(entry.local_interface);
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(
        m.members(G).contains(&NodeId(4)),
        "the m-router still counts node 4"
    );
    assert_eq!(e.stats().delivery_count(G, 1, NodeId(4)), 1);
}

#[test]
fn expiry_keeps_a_member_still_on_the_books() {
    use scmp_sim::FaultEvent;
    // The repair scan takes the cut-off node 5 off the tree, so node 4's
    // LEAVE empties the tree while the log still lists node 5. The
    // session must stay open for the heal to readopt it.
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.session_expiry = 10_000;
    cfg.repair_interval = 1_000;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(5), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(4), AppEvent::Join(G));
    let (a, b) = (NodeId(2), NodeId(5));
    e.schedule_fault(3_000, FaultEvent::LinkDown { a, b });
    e.schedule_app(5_000, NodeId(4), AppEvent::Leave(G));
    e.schedule_fault(30_000, FaultEvent::LinkUp { a, b });
    e.schedule_app(50_000, NodeId(3), AppEvent::Send { group: G, tag: 9 });
    e.run_until(200_000);
    assert_eq!(e.stats().delivery_count(G, 9, NodeId(5)), 1);
}

#[test]
fn expiry_counts_from_the_last_leave() {
    // The first LEAVE's timer fires at about 11 000, when the group has
    // been empty only since the second LEAVE at 8 000.
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.session_expiry = 10_000;
    let mut e = build(fig5(), cfg);
    for (t, join) in [(0, true), (1_000, false), (5_000, true), (8_000, false)] {
        let ev = if join {
            AppEvent::Join(G)
        } else {
            AppEvent::Leave(G)
        };
        e.schedule_app(t, NodeId(4), ev);
    }
    e.run_until(15_000);
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(
        m.tree(G).is_some(),
        "closed 7 000 ticks after its last leave"
    );
    e.run_until(20_000);
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert!(
        m.tree(G).is_none(),
        "open 12 000 ticks after its last leave"
    );
}

#[test]
fn a_reopened_session_outranks_old_flushes() {
    use rand::Rng;
    // Routers keep flush tombstones across sessions, so a session that
    // expired and reopened must not number its trees from 1 again: its
    // TREE/BRANCH packets would be dropped as stale.
    let mut rng = scmp_net::rng::rng_for("probe", 16);
    let topo = scmp_net::topology::arpanet(&mut rng);
    let n = topo.node_count() as u32;
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.session_expiry = 100_000;
    cfg.join_retry = 0;
    let mut e = build(topo, cfg);
    let mut members = Vec::new();
    while members.len() < 10 {
        let m = NodeId(rng.gen_range(1..n));
        if !members.contains(&m) {
            members.push(m);
        }
    }
    for (i, &m) in members.iter().enumerate() {
        e.schedule_app(2_000 * i as u64, m, AppEvent::Join(G));
    }
    for &m in &members {
        e.schedule_app(50_000, m, AppEvent::Leave(G));
    }
    e.run_to_quiescence();
    assert!(
        e.router(NodeId(0)).m_state().unwrap().tree(G).is_none(),
        "expired"
    );
    let back: Vec<NodeId> = members.iter().rev().take(8).copied().collect();
    let start = e.now() + 10_000;
    for (i, &m) in back.iter().enumerate() {
        e.schedule_app(start + 2_000 * i as u64, m, AppEvent::Join(G));
    }
    let send = start + 2_000 * back.len() as u64 + 10_000;
    e.schedule_app(send, back[0], AppEvent::Send { group: G, tag: 1 });
    e.run_to_quiescence();
    for &m in &back {
        assert_eq!(e.stats().delivery_count(G, 1, m), 1, "member {m:?}");
    }
}

#[test]
fn a_promoted_standby_does_not_reopen_an_expired_session() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(2));
    cfg.heartbeat_interval = 500;
    cfg.session_expiry = 10_000;
    let mut e = build(fig5(), cfg);
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    e.schedule_app(2_000, NodeId(4), AppEvent::Leave(G));
    e.run_until(20_000);
    assert!(e.router(NodeId(0)).m_state().unwrap().tree(G).is_none());
    e.set_node_down(NodeId(0), true);
    e.run_until(60_000);
    let m = e.router(NodeId(2)).m_state().expect("standby promoted");
    assert!(m.tree(G).is_none(), "no mirror for a closed session");
    assert!(m.fabric_port(G).is_none(), "no port for a closed session");
}

mod group_records {
    use super::*;
    use proptest::prelude::*;

    /// The LEAVE and TREE retry bases a case runs with (0: no retries).
    const RETRIES: [u64; 3] = [0, 50, 500];

    /// One host event: `(time, node, op, group)` with op 0 join,
    /// 1 leave, 2 send.
    fn schedules() -> impl Strategy<Value = Vec<(u64, u32, u8, u32)>> {
        prop::collection::vec((0u64..40_000, 0u32..6, 0u8..3, 1u32..3), 1..40)
    }

    /// Run `events` on fig5, then make every host leave and let every
    /// timer (the session expiry included) run out.
    fn run(events: &[(u64, u32, u8, u32)], reliable: bool, retries: u64) -> Engine<ScmpRouter> {
        let mut cfg = ScmpConfig::new(NodeId(0));
        cfg.session_expiry = 10_000;
        cfg.repair_interval = 0;
        cfg.leave_retry = retries;
        cfg.tree_retry = retries;
        if reliable {
            cfg.reliability = Some(ReliabilityConfig::default());
        }
        let mut e = build(fig5(), cfg);
        let mut joins = BTreeMap::<(u32, u32), usize>::new();
        for (tag, &(t, node, op, g)) in events.iter().enumerate() {
            let group = GroupId(g);
            let ev = match op {
                0 => {
                    *joins.entry((node, g)).or_default() += 1;
                    AppEvent::Join(group)
                }
                1 => AppEvent::Leave(group),
                _ => AppEvent::Send {
                    group,
                    tag: tag as u64 + 1,
                },
            };
            e.schedule_app(t, NodeId(node), ev);
        }
        for (&(node, g), &n) in &joins {
            for _ in 0..n {
                e.schedule_app(50_000, NodeId(node), AppEvent::Leave(GroupId(g)));
            }
        }
        e.run_to_quiescence();
        e
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Once every member has left and the sessions have expired, no
        /// router keeps a record of any group: entries, JOIN and LEAVE
        /// series and pending TREE retransmissions are all reclaimed, and
        /// the m-router holds no session.
        #[test]
        fn no_group_state_outlives_its_members(
            events in schedules(),
            retries in 0usize..3,
        ) {
            let e = run(&events, false, RETRIES[retries]);
            let m = e.router(NodeId(0)).m_state().unwrap();
            prop_assert!(m.groups.is_empty(), "the m-router keeps {:?}", m.groups);
            for v in 0..6 {
                let r = e.router(NodeId(v));
                prop_assert!(
                    r.groups.is_empty(),
                    "node {} keeps {:?}", v, r.groups
                );
            }
        }

        /// With the reliable tier on, the only state that survives is
        /// stream history, which is kept on purpose (see `GroupRel`);
        /// the m-router holds no session.
        #[test]
        fn only_stream_history_outlives_its_members(
            events in schedules(),
            retries in 0usize..3,
        ) {
            let e = run(&events, true, RETRIES[retries]);
            let m = e.router(NodeId(0)).m_state().unwrap();
            prop_assert!(m.groups.is_empty(), "the m-router keeps {:?}", m.groups);
            for v in 0..6 {
                for (g, s) in &e.router(NodeId(v)).groups {
                    let soft = s.soft.as_deref();
                    let history_only = s.entry.is_none()
                        && soft.is_some_and(|x| {
                            x.join.is_none()
                                && x.leave.is_none()
                                && x.pending_trees.is_empty()
                                && x.rel.announces.is_empty()
                        });
                    prop_assert!(history_only, "node {} group {:?} keeps {:?}", v, g, s);
                }
            }
        }
    }
}

mod fabric_assignment {
    use super::super::MRouterState;
    use proptest::prelude::*;
    use scmp_fabric::{GroupRequest, SandwichFabric};
    use scmp_net::NodeId;
    use scmp_sim::GroupId;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The m-router keeps a port assignment, not a configured fabric.
        /// After every step of any open/close sequence of sessions, a
        /// `SandwichFabric` of the state's size must accept it: one
        /// source line per open session (in group order) merging onto
        /// the group's assigned output port.
        #[test]
        fn every_assignment_configures_a_sandwich_fabric(
            ops in prop::collection::vec((prop::bool::ANY, 0u32..96), 0..160),
        ) {
            let mut state = MRouterState::new();
            let mut active = BTreeSet::new();
            for (expire, g) in ops {
                let group = GroupId(g);
                if expire {
                    state.groups.remove(&group);
                    active.remove(&g);
                } else {
                    let session = state.checkout(group, 1, NodeId(0));
                    state.groups.insert(group, session);
                    active.insert(g);
                }
                let mut requests = Vec::with_capacity(active.len());
                for (line, &g) in active.iter().enumerate() {
                    let port = state.fabric_port(GroupId(g));
                    prop_assert!(port.is_some(), "active group {} has no port", g);
                    requests.push(GroupRequest {
                        sources: vec![line],
                        output: port.unwrap(),
                    });
                }
                let fabric = SandwichFabric::configure(state.fabric_size, &requests);
                prop_assert!(fabric.is_ok(), "{:?} over {:?}", fabric.err(), requests);
            }
        }
    }
}
