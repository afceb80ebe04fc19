//! STRESS-style fault scenarios against the Fig. 5 domain — the parts
//! the pinned regression corpus cannot express.
//!
//! The delivery-ratio / repair-count / takeover verdicts these tests
//! used to assert inline now live as pinned corpus entries replayed by
//! `corpus_replay.rs`:
//!
//! * `tests/scenarios/corpus/fig5-tree-cut-repair.json`
//! * `tests/scenarios/corpus/fig5-offtree-cut.json`
//! * `tests/scenarios/corpus/fig5-crash-standby.json`
//! * `tests/scenarios/corpus/fig5-flapping-link.json`
//!
//! What stays here is the engine-internal structure the corpus checks
//! cannot see: the shape of the repaired tree, the paper's delay
//! constraint on the converged tree, failure-window accounting, and a
//! join planned while a link is down.
//!
//! The Fig. 5d tree for members {3, 4, 5} rooted at the m-router 0 is
//! 0-1-4, 0-2, 2-3, 2-5 — so cutting 0-2 severs the limb feeding 3 and
//! 5, while 1-2 carries no tree traffic at all.

use scmp_core::router::{ScmpConfig, ScmpRouter};
use scmp_integration::G;
use scmp_net::topology::examples::fig5;
use scmp_net::{AllPairsPaths, NodeId};
use scmp_protocols::build_scmp_engine;
use scmp_sim::{AppEvent, Engine, FaultKind, FaultPlan};
use scmp_tree::constraint::{delay_bound, ConstraintLevel};

const MEMBERS: [u32; 3] = [4, 3, 5];
const REPAIR_INTERVAL: u64 = 2_000;

/// Fig. 5 engine with the robustness knobs enabled and the standard
/// member set joined at t = 0, 1000, 2000.
fn engine_with(config: ScmpConfig) -> Engine<ScmpRouter> {
    let mut e = build_scmp_engine(fig5(), config);
    for (k, m) in MEMBERS.iter().enumerate() {
        e.schedule_app(k as u64 * 1_000, NodeId(*m), AppEvent::Join(G));
    }
    e
}

fn robust_config() -> ScmpConfig {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = REPAIR_INTERVAL;
    cfg.join_retry = 5_000;
    cfg.leave_retry = 5_000;
    cfg
}

/// Schedule `tags` sends from node 1 at the given times.
fn sends(e: &mut Engine<ScmpRouter>, times: &[u64]) {
    for (k, &t) in times.iter().enumerate() {
        let tag = k as u64 + 1;
        e.schedule_app(t, NodeId(1), AppEvent::Send { group: G, tag });
    }
}

/// After the repair scan reroutes around a cut on-tree link, the
/// rebuilt tree must be well-formed and must not reference the dead
/// link. (Delivery and latency pins: `fig5-tree-cut-repair.json`.)
#[test]
fn repaired_tree_avoids_the_dead_link() {
    let mut e = engine_with(robust_config());
    let plan = FaultPlan::new().at(20_000, FaultKind::LinkDown { a: 0, b: 2 });
    plan.validate(e.topo()).unwrap();
    e.schedule_fault_plan(&plan);
    sends(&mut e, &[10_000, 30_000, 80_000]);
    e.run_until(120_000);

    assert!(e.stats().repairs >= 1, "repair scan never fired");
    let tree = e.router(NodeId(0)).m_state().unwrap().tree(G).unwrap();
    assert_eq!(tree.validate(None), Ok(()));
    for (p, c) in tree.edges() {
        assert!(
            !(p.0.min(c.0) == 0 && p.0.max(c.0) == 2),
            "repaired tree still uses dead link 0-2"
        );
    }
}

/// Takeover machinery internals the corpus's end-state probe cannot
/// see: the new root's address propagates to plain members, and the
/// control traffic spent while node 0 is down is attributed to the
/// failure window. (Delivery and takeover-count pins:
/// `fig5-crash-standby.json`.)
#[test]
fn takeover_propagates_address_and_attributes_failure_overhead() {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.standby = Some(NodeId(2));
    cfg.heartbeat_interval = 500;
    cfg.takeover_rebuild_delay = 500;
    let mut e = engine_with(cfg);
    let plan = FaultPlan::new().at(20_000, FaultKind::RouterCrash { node: 0 });
    plan.validate(e.topo()).unwrap();
    e.schedule_fault_plan(&plan);
    sends(&mut e, &[10_000, 60_000, 90_000]);
    e.run_until(150_000);

    assert!(
        e.router(NodeId(2)).is_m_router(),
        "standby must have promoted itself"
    );
    assert_eq!(e.router(NodeId(4)).m_router_address(), NodeId(2));
    assert!(e.stats().control_overhead_during_failure > 0);
}

/// After a flapping link heals for good, the converged tree satisfies
/// the paper's delay constraint on the healed topology. (Delivery
/// pins: `fig5-flapping-link.json`.)
#[test]
fn flapping_link_converges_to_constraint_satisfying_tree() {
    let mut e = engine_with(robust_config());
    // Flap 0-2 three times; the last transition heals it.
    let mut plan = FaultPlan::new();
    for k in 0..3u64 {
        plan = plan
            .at(20_000 + k * 10_000, FaultKind::LinkDown { a: 0, b: 2 })
            .at(25_000 + k * 10_000, FaultKind::LinkUp { a: 0, b: 2 });
    }
    plan.validate(e.topo()).unwrap();
    e.schedule_fault_plan(&plan);
    sends(&mut e, &[10_000, 27_000, 37_000, 80_000]);
    e.run_until(150_000);

    let topo = fig5();
    let tree = e.router(NodeId(0)).m_state().unwrap().tree(G).unwrap();
    assert_eq!(tree.validate(Some(&topo)), Ok(()));
    let paths = AllPairsPaths::compute(&topo);
    let members: Vec<NodeId> = MEMBERS.iter().map(|&m| NodeId(m)).collect();
    let bound = delay_bound(ConstraintLevel::Moderate, &paths, NodeId(0), &members);
    assert!(
        tree.tree_delay(&topo) <= bound,
        "converged tree delay {} exceeds moderate bound {}",
        tree.tree_delay(&topo),
        bound
    );
}

/// A JOIN processed while an on-path link is down is planned over the
/// live view: the new branch goes around the dead link at once and
/// carries data before the next scan tick — no repair is ever needed.
/// (Planned over the static tables, the BRANCH would leave over dead
/// link 0-2 and member 5 would hear nothing until a scan noticed.)
#[test]
fn join_during_a_fault_grafts_around_the_dead_link() {
    let mut e = build_scmp_engine(fig5(), robust_config());
    e.schedule_app(0, NodeId(4), AppEvent::Join(G));
    // Healthy, node 5 reaches the m-router over 5-2-0.
    let plan = FaultPlan::new().at(2_100, FaultKind::LinkDown { a: 0, b: 2 });
    plan.validate(e.topo()).unwrap();
    e.schedule_fault_plan(&plan);
    // Scan ticks fall on multiples of REPAIR_INTERVAL: join and send
    // between the ticks at 4 000 and 6 000.
    e.schedule_app(4_100, NodeId(5), AppEvent::Join(G));
    e.schedule_app(4_500, NodeId(1), AppEvent::Send { group: G, tag: 1 });
    e.run_until(3 * REPAIR_INTERVAL - 1);

    let stats = e.stats();
    assert_eq!(
        stats.delivery_count(G, 1, NodeId(5)),
        1,
        "joiner not served"
    );
    assert_eq!(stats.delivery_count(G, 1, NodeId(4)), 1);
    assert_eq!(stats.repairs, 0, "nothing was ever broken");
    assert_eq!(
        stats.retransmissions, 0,
        "the BRANCH got through first time"
    );
    let tree = e.router(NodeId(0)).m_state().unwrap().tree(G).unwrap();
    assert_eq!(tree.validate(Some(e.topo())), Ok(()));
    assert!(tree.is_member(NodeId(5)));
    for (p, c) in tree.edges() {
        assert!(
            (p.0.min(c.0), p.0.max(c.0)) != (0, 2),
            "graft crosses dead link 0-2"
        );
    }
}
