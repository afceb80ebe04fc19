//! The §II-A multi-m-router extension: "An ISP may own more than one
//! m-routers in the Internet for serving its customers in different
//! geographic regions ... our approach can be easily extended to
//! multiple m-routers per domain."
//!
//! Groups are assigned round-robin over the configured m-router set;
//! each m-router owns its groups' trees, membership and accounting.

use scmp_core::router::{ScmpConfig, ScmpRouter};
use scmp_integration::scenario;
use scmp_net::NodeId;
use scmp_protocols::build_scmp_engine;
use scmp_sim::{AppEvent, Engine, GroupId};

fn engine_with_two_mrouters(seed: u64) -> (Engine<ScmpRouter>, Vec<NodeId>) {
    let sc = scenario(seed, 25, 0);
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.extra_m_routers = vec![NodeId(1)];
    let e = build_scmp_engine(sc.topo.clone(), cfg);
    let pool: Vec<NodeId> = sc.topo.nodes().filter(|v| v.0 >= 2).collect();
    (e, pool)
}

#[test]
fn groups_are_partitioned_across_m_routers() {
    let (mut e, pool) = engine_with_two_mrouters(1);
    // Even gid -> m-router 0, odd gid -> m-router 1.
    let g_even = GroupId(2);
    let g_odd = GroupId(3);
    e.schedule_app(0, pool[0], AppEvent::Join(g_even));
    e.schedule_app(0, pool[1], AppEvent::Join(g_odd));
    e.run_to_quiescence();

    let m0 = e
        .router(NodeId(0))
        .m_state()
        .expect("node 0 is an m-router");
    let m1 = e
        .router(NodeId(1))
        .m_state()
        .expect("node 1 is an m-router");
    assert!(m0.tree(g_even).is_some(), "even group served by m-router 0");
    assert!(m0.tree(g_odd).is_none(), "odd group not at m-router 0");
    assert!(m1.tree(g_odd).is_some(), "odd group served by m-router 1");
    assert!(m1.tree(g_even).is_none());
    // Accounting is likewise partitioned.
    assert_eq!(m0.log.records().len(), 1);
    assert_eq!(m1.log.records().len(), 1);
}

#[test]
fn both_m_routers_deliver_their_groups() {
    let (mut e, pool) = engine_with_two_mrouters(2);
    let g_even = GroupId(4);
    let g_odd = GroupId(5);
    let members_even = [pool[0], pool[2], pool[4]];
    let members_odd = [pool[1], pool[3], pool[5]];
    let mut t = 0;
    for &m in &members_even {
        e.schedule_app(t, m, AppEvent::Join(g_even));
        t += 1_000;
    }
    for &m in &members_odd {
        e.schedule_app(t, m, AppEvent::Join(g_odd));
        t += 1_000;
    }
    let src = pool[10];
    e.schedule_app(
        t + 500_000,
        src,
        AppEvent::Send {
            group: g_even,
            tag: 1,
        },
    );
    e.schedule_app(
        t + 500_000,
        src,
        AppEvent::Send {
            group: g_odd,
            tag: 2,
        },
    );
    e.run_to_quiescence();

    for &m in &members_even {
        assert_eq!(e.stats().delivery_count(g_even, 1, m), 1, "{m:?}");
        assert_eq!(e.stats().delivery_count(g_odd, 2, m), 0, "{m:?} isolation");
    }
    for &m in &members_odd {
        assert_eq!(e.stats().delivery_count(g_odd, 2, m), 1, "{m:?}");
        assert_eq!(e.stats().delivery_count(g_even, 1, m), 0, "{m:?} isolation");
    }
    assert!(!e.stats().has_duplicate_deliveries());
}

#[test]
fn trees_are_rooted_at_their_own_m_router() {
    let (mut e, pool) = engine_with_two_mrouters(3);
    let g_odd = GroupId(7);
    e.schedule_app(0, pool[0], AppEvent::Join(g_odd));
    e.run_to_quiescence();
    let m1 = e.router(NodeId(1)).m_state().unwrap();
    let tree = m1.tree(g_odd).unwrap();
    assert_eq!(tree.root(), NodeId(1));
    // The member's physical entry chains back to m-router 1, not 0.
    let mut cur = pool[0];
    let mut hops = 0;
    while let Some(entry) = e.router(cur).entry(g_odd) {
        match entry.upstream {
            Some(up) => {
                cur = up;
                hops += 1;
                assert!(hops < 30, "loop");
            }
            None => break,
        }
    }
    assert_eq!(cur, NodeId(1));
}

#[test]
#[should_panic(expected = "hot standby is only supported")]
fn standby_plus_multi_mrouter_rejected() {
    let sc = scenario(4, 10, 0);
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.extra_m_routers = vec![NodeId(1)];
    cfg.standby = Some(NodeId(2));
    let _e = build_scmp_engine(sc.topo.clone(), cfg);
}
