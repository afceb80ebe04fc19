//! End-to-end SCMP scenarios across random topologies and the ARPANET.

use scmp_core::router::ScmpConfig;
use scmp_integration::{drive_joins_then_sends, mirror_matches_entries, scenario, scmp_engine, G};
use scmp_net::rng::rng_for;
use scmp_net::topology::arpanet;
use scmp_net::NodeId;
use scmp_protocols::build_scmp_engine;
use scmp_sim::{AppEvent, GroupId};

#[test]
fn random_topologies_deliver_every_packet_exactly_once() {
    for seed in 0..8 {
        let sc = scenario(seed, 30, 8);
        let mut e = scmp_engine(sc.topo.clone());
        drive_joins_then_sends(&mut e, &sc.members, sc.source, 5);
        for &m in &sc.members {
            for tag in 1..=5 {
                assert_eq!(
                    e.stats().delivery_count(G, tag, m),
                    1,
                    "seed {seed}: member {m:?} tag {tag}"
                );
            }
        }
        assert!(!e.stats().has_duplicate_deliveries(), "seed {seed}");
    }
}

#[test]
fn arpanet_full_group() {
    // Every node except the m-router joins.
    let topo = arpanet(&mut rng_for("e2e-arpa", 0));
    let members: Vec<NodeId> = topo.nodes().filter(|v| v.0 != 0).collect();
    let mut e = scmp_engine(topo);
    drive_joins_then_sends(&mut e, &members, NodeId(0), 3);
    for &m in &members {
        for tag in 1..=3 {
            assert_eq!(e.stats().delivery_count(G, tag, m), 1, "{m:?}/{tag}");
        }
    }
}

/// Regression: duplicate suppression must key on the full causal trace
/// key — origin included. Application tags are per-source sequence
/// numbers, so two sources legitimately reuse the same tag in one
/// group; a `(group, tag)`-keyed dedup (the old bug) made whichever
/// packet arrived second vanish at the first shared relay.
#[test]
fn two_sources_reusing_a_tag_both_deliver() {
    use scmp_net::topology::examples::fig5;
    let topo = fig5();
    let mut e = scmp_engine(topo);
    let members = [NodeId(3), NodeId(4), NodeId(5)];
    let mut t = 0;
    for &m in &members {
        e.schedule_app(t, m, AppEvent::Join(G));
        t += 1_000;
    }
    // Nodes 1 and 2 never join; both send payload tag 7. Their packets
    // share (group, tag) but not origin, and the second one crosses
    // relays that have already seen the first.
    e.schedule_app(20_000, NodeId(1), AppEvent::Send { group: G, tag: 7 });
    e.schedule_app(22_000, NodeId(2), AppEvent::Send { group: G, tag: 7 });
    e.run_until(100_000);
    for &m in &members {
        assert_eq!(
            e.stats().delivery_count(G, 7, m),
            2,
            "member {m:?} must hear tag 7 once per source"
        );
    }
}

#[test]
fn m_router_mirror_matches_physical_entries() {
    // The m-router's centrally computed tree must agree, router by
    // router, with the routing entries the TREE/BRANCH packets actually
    // installed in the domain.
    for seed in 0..8 {
        let sc = scenario(seed + 100, 25, 7);
        let mut e = scmp_engine(sc.topo.clone());
        let mut t = 0;
        for &m in &sc.members {
            e.schedule_app(t, m, scmp_sim::AppEvent::Join(G));
            t += 1_000;
        }
        e.run_to_quiescence();
        assert_eq!(mirror_matches_entries(&e, NodeId(0)), Ok(()), "seed {seed}");
    }
}

#[test]
fn multiple_groups_are_independent() {
    let sc = scenario(42, 20, 0);
    let g2 = GroupId(2);
    let mut e = scmp_engine(sc.topo.clone());
    // Disjoint members per group.
    e.schedule_app(0, NodeId(1), AppEvent::Join(G));
    e.schedule_app(0, NodeId(2), AppEvent::Join(g2));
    e.schedule_app(1_000, NodeId(3), AppEvent::Join(G));
    e.schedule_app(1_000, NodeId(4), AppEvent::Join(g2));
    e.schedule_app(500_000, NodeId(5), AppEvent::Send { group: G, tag: 1 });
    e.schedule_app(500_000, NodeId(5), AppEvent::Send { group: g2, tag: 2 });
    e.run_to_quiescence();
    // Group 1 members got tag 1 only; group 2 members tag 2 only.
    assert_eq!(e.stats().delivery_count(G, 1, NodeId(1)), 1);
    assert_eq!(e.stats().delivery_count(G, 1, NodeId(3)), 1);
    assert_eq!(e.stats().delivery_count(g2, 2, NodeId(2)), 1);
    assert_eq!(e.stats().delivery_count(g2, 2, NodeId(4)), 1);
    assert_eq!(e.stats().delivery_count(G, 1, NodeId(2)), 0);
    assert_eq!(e.stats().delivery_count(g2, 2, NodeId(1)), 0);
    // Distinct fabric ports at the m-router.
    let m = e.router(NodeId(0)).m_state().unwrap();
    assert_ne!(m.fabric_port(G), m.fabric_port(g2));
}

#[test]
fn member_sources_use_bidirectional_tree_without_detour() {
    // When the source is a member, its packets must not travel via
    // unicast encapsulation: the data overhead for a member source must
    // be strictly less than for an equivalent off-tree source far away.
    let sc = scenario(7, 25, 6);
    let member_src = sc.members[0];

    let mut on_tree = scmp_engine(sc.topo.clone());
    drive_joins_then_sends(&mut on_tree, &sc.members, member_src, 1);
    let mut off_tree = scmp_engine(sc.topo.clone());
    drive_joins_then_sends(&mut off_tree, &sc.members, sc.source, 1);

    for &m in &sc.members {
        assert_eq!(on_tree.stats().delivery_count(G, 1, m), 1);
        assert_eq!(off_tree.stats().delivery_count(G, 1, m), 1);
    }
}

#[test]
fn leave_storms_then_rejoin_recovers() {
    let sc = scenario(9, 25, 8);
    let mut e = scmp_engine(sc.topo.clone());
    let mut t = 0;
    for &m in &sc.members {
        e.schedule_app(t, m, AppEvent::Join(G));
        t += 1_000;
    }
    // Everyone leaves at the same instant.
    t += 300_000;
    for &m in &sc.members {
        e.schedule_app(t, m, AppEvent::Leave(G));
    }
    // Then half rejoin.
    t += 300_000;
    let rejoined: Vec<NodeId> = sc.members.iter().copied().step_by(2).collect();
    for &m in &rejoined {
        e.schedule_app(t, m, AppEvent::Join(G));
    }
    e.schedule_app(t + 500_000, sc.source, AppEvent::Send { group: G, tag: 1 });
    e.run_to_quiescence();
    for &m in &sc.members {
        let expected = u64::from(rejoined.contains(&m));
        assert_eq!(e.stats().delivery_count(G, 1, m), expected, "{m:?}");
    }
}

#[test]
fn failover_mid_session_on_random_topology() {
    // Pick the first seed whose topology stays connected when the
    // primary (node 0) dies, so the post-failover assertions always run.
    let sc = (11..40)
        .map(|seed| scenario(seed, 20, 5))
        .find(|sc| sc.topo.without_node(NodeId(0)).components().len() == 2)
        .expect("some seed survives the primary's failure");
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(1));
    cfg.heartbeat_interval = 10_000;
    cfg.takeover_rebuild_delay = 20_000;
    let mut e = build_scmp_engine(sc.topo.clone(), cfg);
    let members: Vec<NodeId> = sc
        .members
        .iter()
        .copied()
        .filter(|&m| m != NodeId(1))
        .collect();
    let mut t = 0;
    for &m in &members {
        e.schedule_app(t, m, AppEvent::Join(G));
        t += 1_000;
    }
    e.run_until(t + 200_000);
    e.set_node_down(NodeId(0), true);
    e.run_until(t + 2_000_000);
    assert!(e.router(NodeId(1)).is_m_router(), "standby must take over");
    // Post-failover data delivery from a fresh (off-tree) source: every
    // member still connected without the dead primary must be served.
    let surviving = sc.topo.without_node(NodeId(0));
    let reachable = scmp_net::AllPairsPaths::compute(&surviving);
    let src = sc.source;
    if src != NodeId(0) && reachable.unicast_delay(src, NodeId(1)).is_some() {
        e.schedule_app(t + 2_100_000, src, AppEvent::Send { group: G, tag: 9 });
        e.run_to_quiescence();
        for &m in &members {
            let expect = u64::from(reachable.unicast_delay(m, NodeId(1)).is_some());
            assert_eq!(
                e.stats().delivery_count(G, 9, m),
                expect,
                "{m:?} post-failover"
            );
        }
    }
}

#[test]
fn protocol_overhead_scales_sub_linearly_with_topology_cost() {
    // Larger groups cost more protocol overhead, but per-member cost
    // shrinks (shared branches) — a coarse efficiency regression guard.
    let small = {
        let sc = scenario(13, 40, 4);
        let mut e = scmp_engine(sc.topo.clone());
        drive_joins_then_sends(&mut e, &sc.members, sc.source, 0);
        e.stats().protocol_overhead as f64 / 4.0
    };
    let large = {
        let sc = scenario(13, 40, 24);
        let mut e = scmp_engine(sc.topo.clone());
        drive_joins_then_sends(&mut e, &sc.members, sc.source, 0);
        e.stats().protocol_overhead as f64 / 24.0
    };
    assert!(
        large < small * 1.5,
        "per-member overhead grew: small {small}, large {large}"
    );
}
