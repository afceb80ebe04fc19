//! Shared helpers for the cross-crate integration tests.

use rand::seq::SliceRandom;
use scmp_core::router::{ScmpConfig, ScmpRouter};
use scmp_net::rng::rng_for;
use scmp_net::topology::{waxman, WaxmanConfig};
use scmp_net::{NodeId, Topology};
use scmp_protocols::build_scmp_engine;
use scmp_sim::{AppEvent, Engine, GroupId};

/// The group id used throughout the integration tests.
pub const G: GroupId = GroupId(1);

/// A deterministic random scenario over a connected Waxman topology:
/// node 0 hosts the m-router/core, `group` members are drawn from the
/// rest, and the returned source is a non-member when one exists.
pub struct TestScenario {
    pub topo: Topology,
    pub members: Vec<NodeId>,
    pub source: NodeId,
}

/// Build a scenario for `(seed, n, group)`.
pub fn scenario(seed: u64, n: usize, group: usize) -> TestScenario {
    let mut rng = rng_for("integration", seed);
    let topo = waxman(
        &WaxmanConfig {
            n,
            min_delay_one: true,
            ..WaxmanConfig::default()
        },
        &mut rng,
    );
    let mut pool: Vec<NodeId> = topo.nodes().filter(|v| v.0 != 0).collect();
    pool.shuffle(&mut rng);
    let members: Vec<NodeId> = pool.iter().copied().take(group.min(n - 1)).collect();
    let source = pool
        .iter()
        .copied()
        .find(|v| !members.contains(v))
        .unwrap_or(NodeId(0));
    TestScenario {
        topo,
        members,
        source,
    }
}

/// Build an SCMP engine with the m-router at node 0.
pub fn scmp_engine(topo: Topology) -> Engine<ScmpRouter> {
    build_scmp_engine(topo, ScmpConfig::new(NodeId(0)))
}

/// Schedule staggered joins followed by `packets` sends from `source`.
pub fn drive_joins_then_sends(
    e: &mut Engine<ScmpRouter>,
    members: &[NodeId],
    source: NodeId,
    packets: u64,
) {
    let mut t = 0;
    for &m in members {
        e.schedule_app(t, m, AppEvent::Join(G));
        t += 1_000;
    }
    let start = t + 500_000;
    for k in 0..packets {
        e.schedule_app(
            start + k * 50_000,
            source,
            AppEvent::Send {
                group: G,
                tag: k + 1,
            },
        );
    }
    e.run_to_quiescence();
}

/// The m-router's centrally computed tree for [`G`] must agree, router
/// by router, with the routing entries the TREE/BRANCH packets actually
/// installed: a router holds an entry iff it is on the mirrored tree,
/// with the mirror's upstream, children and local interface, and the
/// root's entry lists the mirror's root children. `Err` names the first
/// router that disagrees.
pub fn mirror_matches_entries(e: &Engine<ScmpRouter>, m_router: NodeId) -> Result<(), String> {
    let tree = e
        .router(m_router)
        .m_state()
        .ok_or(format!("{m_router:?} is not an m-router"))?
        .tree(G)
        .ok_or("the m-router holds no tree for the group")?;
    for v in e.topo().nodes() {
        let entry = e.router(v).entry(G);
        if v == m_router {
            let entry = entry.ok_or("no entry at the root")?;
            if !entry.downstream_routers.iter().eq(tree.children(v)) {
                return Err(format!("root {v:?} children differ"));
            }
            continue;
        }
        match (tree.contains(v), entry) {
            (true, Some(entry)) => {
                if entry.upstream != tree.parent(v) {
                    return Err(format!("{v:?} upstream differs"));
                }
                if !entry.downstream_routers.iter().eq(tree.children(v)) {
                    return Err(format!("{v:?} children differ"));
                }
                if entry.local_interface != tree.is_member(v) {
                    return Err(format!("{v:?} local interface differs"));
                }
            }
            (false, None) => {}
            (on, entry) => {
                return Err(format!(
                    "{v:?} on the mirror: {on}, holds an entry: {}",
                    entry.is_some()
                ))
            }
        }
    }
    Ok(())
}
