//! Multiple m-routers per domain (§II-A): "An ISP may own more than one
//! m-routers in the Internet for serving its customers in different
//! geographic regions ... our approach can be easily extended to
//! multiple m-routers per domain."
//!
//! Two m-routers split the group space round-robin; each builds and
//! distributes its own trees, keeps its own membership database and
//! accounting log, and serves its groups' traffic independently.
//!
//! Run with: `cargo run --example multi_domain`

use scmp_core::router::{ScmpConfig, ScmpDomain, ScmpRouter};
use scmp_net::rng::rng_for;
use scmp_net::topology::{gt_itm_flat, GtItmConfig};
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Engine, GroupId};
use std::sync::Arc;

fn main() {
    let topo = gt_itm_flat(
        &GtItmConfig {
            n: 30,
            average_degree: 4.0,
            grid: 10_000,
        },
        &mut rng_for("multi-domain", 0),
    );
    println!(
        "domain: {} routers, {} links; m-routers at nodes 0 and 1",
        topo.node_count(),
        topo.edge_count()
    );

    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.extra_m_routers = vec![NodeId(1)];
    let domain = ScmpDomain::new(topo.clone(), cfg);
    let mut engine = Engine::new(topo.clone(), move |me, _, _| {
        ScmpRouter::new(me, Arc::clone(&domain))
    });

    // Even group -> m-router 0, odd group -> m-router 1.
    let video = GroupId(2);
    let audio = GroupId(3);
    let video_members = [NodeId(5), NodeId(12), NodeId(20)];
    let audio_members = [NodeId(7), NodeId(14), NodeId(26)];
    let mut t = 0;
    for &m in &video_members {
        engine.schedule_app(t, m, AppEvent::Join(video));
        t += 3_000;
    }
    for &m in &audio_members {
        engine.schedule_app(t, m, AppEvent::Join(audio));
        t += 3_000;
    }
    engine.schedule_app(
        600_000,
        NodeId(9),
        AppEvent::Send {
            group: video,
            tag: 1,
        },
    );
    engine.schedule_app(
        600_000,
        NodeId(9),
        AppEvent::Send {
            group: audio,
            tag: 2,
        },
    );
    engine.run_to_quiescence();

    for (label, m_router, group, members, tag) in [
        ("video", NodeId(0), video, &video_members, 1u64),
        ("audio", NodeId(1), audio, &audio_members, 2),
    ] {
        let state = engine.router(m_router).m_state().expect("is an m-router");
        let tree = state.tree(group).expect("group served here");
        println!(
            "\n{label} group {group:?} @ m-router {m_router}: tree of {} routers, \
             {} members, accounting log {} records",
            tree.on_tree_count(),
            tree.member_count(),
            state.log.records().len()
        );
        assert_eq!(tree.root(), m_router);
        for &m in members {
            let got = engine.stats().delivery_count(group, tag, m);
            println!("  member {m}: received payload {tag} x{got}");
            assert_eq!(got, 1);
        }
    }

    // Isolation: the video m-router never saw the audio group.
    assert!(engine
        .router(NodeId(0))
        .m_state()
        .unwrap()
        .tree(audio)
        .is_none());
    assert!(engine
        .router(NodeId(1))
        .m_state()
        .unwrap()
        .tree(video)
        .is_none());
    println!("\ngroups are fully partitioned between the two m-routers.");
}
