//! Hot-standby m-router failover (§V item 4): "there is a secondary
//! m-router concurrently running with the primary m-router. When the
//! primary m-router fails, the secondary m-router will take over the job
//! automatically."
//!
//! Timeline: a group forms under the primary; the primary dies; the
//! standby's deadman watchdog fires, it announces itself as the new
//! m-router, rebuilds the tree around the dead node from its mirrored
//! membership database, and service resumes.
//!
//! Run with: `cargo run --example failover`

use scmp_core::router::{ScmpConfig, ScmpDomain, ScmpRouter};
use scmp_net::rng::rng_for;
use scmp_net::topology::{waxman, WaxmanConfig};
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Engine, GroupId};
use std::sync::Arc;

const G: GroupId = GroupId(1);

fn main() {
    // A topology that stays connected when the primary dies.
    let topo = (0..)
        .map(|seed| {
            waxman(
                &WaxmanConfig {
                    n: 30,
                    min_delay_one: true,
                    ..WaxmanConfig::default()
                },
                &mut rng_for("failover-example", seed),
            )
        })
        .find(|t| t.without_node(NodeId(0)).components().len() == 2)
        .unwrap();

    let primary = NodeId(0);
    let standby = NodeId(1);
    let mut cfg = ScmpConfig::new(primary);
    cfg.standby = Some(standby);
    cfg.heartbeat_interval = 50_000;
    cfg.takeover_rebuild_delay = 100_000;
    let domain = ScmpDomain::new(topo.clone(), cfg);
    let mut engine = Engine::new(topo.clone(), move |me, _, _| {
        ScmpRouter::new(me, Arc::clone(&domain))
    });

    let members = [NodeId(5), NodeId(12), NodeId(20), NodeId(27)];
    println!("t=0        : members {members:?} join via primary m-router {primary}");
    for (i, &m) in members.iter().enumerate() {
        engine.schedule_app(i as u64 * 10_000, m, AppEvent::Join(G));
    }
    engine.schedule_app(500_000, NodeId(9), AppEvent::Send { group: G, tag: 1 });
    engine.run_until(600_000);
    let ok = members
        .iter()
        .all(|&m| engine.stats().delivery_count(G, 1, m) == 1);
    println!("t=500_000  : packet 1 from node 9 delivered to all members: {ok}");
    assert!(ok);

    println!("t=700_000  : PRIMARY M-ROUTER {primary} FAILS");
    engine.run_until(700_000);
    engine.set_node_down(primary, true);

    // Packet sent during the outage window is lost (encapsulation has
    // nowhere to go).
    engine.schedule_app(720_000, NodeId(9), AppEvent::Send { group: G, tag: 2 });
    engine.run_until(5_000_000);
    let lost = members
        .iter()
        .filter(|&&m| engine.stats().delivery_count(G, 2, m) == 0)
        .count();
    println!(
        "t=720_000  : packet 2 sent during outage; lost at {lost}/{} members",
        members.len()
    );
    assert!(
        engine.router(standby).is_m_router(),
        "standby must have taken over"
    );
    println!("t≈900_000  : standby {standby} detected missing heartbeats and took over");

    engine.schedule_app(5_100_000, NodeId(9), AppEvent::Send { group: G, tag: 3 });
    engine.run_to_quiescence();
    let ok = members
        .iter()
        .all(|&m| engine.stats().delivery_count(G, 3, m) == 1);
    println!("t=5_100_000: packet 3 delivered to all members via new m-router: {ok}");
    assert!(ok);

    let log = engine
        .router(standby)
        .m_state()
        .unwrap()
        .log
        .records()
        .len();
    println!("\nnew m-router's mirrored accounting log: {log} membership records");
    println!("service restored without any member re-joining.");
}
