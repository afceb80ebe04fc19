//! Aggregate-domain behaviour: one m-router serving many concurrent
//! groups (the paper's m-router "integrates multiple routers, each of
//! which can serve more than one multicast groups", §II-A).

use scmp_core::router::ScmpConfig;
use scmp_integration::scenario;
use scmp_net::NodeId;
use scmp_protocols::build_scmp_engine;
use scmp_sim::{AppEvent, GroupId};

#[test]
fn m_router_serves_one_hundred_groups() {
    let sc = scenario(31, 30, 0);
    let mut e = build_scmp_engine(sc.topo.clone(), ScmpConfig::new(NodeId(0)));
    let nodes: Vec<NodeId> = sc.topo.nodes().filter(|v| v.0 != 0).collect();
    // 100 groups, each with two members chosen round-robin.
    let mut t = 0;
    for g in 1..=100u32 {
        let a = nodes[(g as usize * 2) % nodes.len()];
        let b = nodes[(g as usize * 2 + 1) % nodes.len()];
        e.schedule_app(t, a, AppEvent::Join(GroupId(g)));
        e.schedule_app(t + 500, b, AppEvent::Join(GroupId(g)));
        t += 1_000;
    }
    // One payload per group from a rotating source.
    let start = t + 1_000_000;
    for g in 1..=100u32 {
        let src = nodes[(g as usize * 7) % nodes.len()];
        e.schedule_app(
            start + g as u64 * 10_000,
            src,
            AppEvent::Send {
                group: GroupId(g),
                tag: g as u64,
            },
        );
    }
    e.run_to_quiescence();

    let m = e.router(NodeId(0)).m_state().unwrap();
    for g in 1..=100u32 {
        let group = GroupId(g);
        assert!(m.tree(group).is_some(), "group {g} has a tree");
        assert!(
            m.fabric_port(group).is_some(),
            "group {g} has a fabric port"
        );
        let a = nodes[(g as usize * 2) % nodes.len()];
        let b = nodes[(g as usize * 2 + 1) % nodes.len()];
        let src = nodes[(g as usize * 7) % nodes.len()];
        for member in [a, b] {
            // The rotating source may coincide with a member's subnet;
            // either way each member subnet hears the payload once
            // (sources that are also members count as receivers).
            let expect = 1;
            let got = e.stats().delivery_count(group, g as u64, member);
            assert_eq!(got, expect, "group {g} member {member:?} src {src:?}");
        }
    }
    // Fabric ports are all distinct.
    let mut ports: Vec<usize> = (1..=100u32)
        .map(|g| m.fabric_port(GroupId(g)).unwrap())
        .collect();
    ports.sort_unstable();
    ports.dedup();
    assert_eq!(ports.len(), 100, "no port collisions");
    // Accounting saw every join.
    assert_eq!(m.log.records().len(), 200);
    let logged: std::collections::BTreeSet<GroupId> =
        m.log.records().iter().map(|r| r.group).collect();
    assert_eq!(logged.len(), 100);
}
