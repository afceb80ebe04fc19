//! Property-based tests for the baseline protocols: exactly-once
//! delivery and clean state over random topologies and schedules.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use scmp_baselines::{CbtConfig, CbtRouter, DvmrpConfig, DvmrpRouter, MospfRouter};
use scmp_net::rng::rng_for;
use scmp_net::topology::{waxman, WaxmanConfig};
use scmp_net::{NodeId, Topology};
use scmp_sim::{AppEvent, Engine, GroupId, Router};

const G: GroupId = GroupId(1);

fn scenario(seed: u64, n: usize, group: usize) -> (Topology, Vec<NodeId>, NodeId) {
    let mut rng = rng_for("baseline-prop", seed);
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
    (topo, members, source)
}

fn drive<R: Router>(e: &mut Engine<R>, members: &[NodeId], source: NodeId, packets: u64) {
    let mut t = 0;
    for &m in members {
        e.schedule_app(t, m, AppEvent::Join(G));
        t += 1_000;
    }
    for k in 0..packets {
        e.schedule_app(
            t + 400_000 + k * 50_000,
            source,
            AppEvent::Send {
                group: G,
                tag: k + 1,
            },
        );
    }
    e.run_to_quiescence();
}

fn assert_exactly_once<R: Router>(
    e: &Engine<R>,
    topo: &Topology,
    members: &[NodeId],
    packets: u64,
    label: &str,
) -> Result<(), TestCaseError> {
    for &m in members {
        for tag in 1..=packets {
            prop_assert_eq!(
                e.stats().delivery_count(G, tag, m),
                1,
                "{}: member {:?} tag {}",
                label,
                m,
                tag
            );
        }
    }
    for v in topo.nodes() {
        if !members.contains(&v) {
            for tag in 1..=packets {
                prop_assert_eq!(
                    e.stats().delivery_count(G, tag, v),
                    0,
                    "{}: non-member {:?} heard tag {}",
                    label,
                    v,
                    tag
                );
            }
        }
    }
    prop_assert!(!e.stats().has_duplicate_deliveries(), "{label}: duplicates");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CBT delivers exactly once to members, never to outsiders.
    #[test]
    fn cbt_exactly_once(seed in 0u64..400, n in 8usize..30, g in 1usize..8) {
        let (topo, members, source) = scenario(seed, n, g);
        let mut e = Engine::new(topo.clone(), |me, _, _| {
            CbtRouter::new(me, CbtConfig { core: NodeId(0) })
        });
        drive(&mut e, &members, source, 3);
        assert_exactly_once(&e, &topo, &members, 3, "cbt")?;
    }

    /// DVMRP delivers exactly once despite flooding, for both short and
    /// long prune lifetimes.
    #[test]
    fn dvmrp_exactly_once(seed in 0u64..400, n in 8usize..30, g in 1usize..8, short in any::<bool>()) {
        let (topo, members, source) = scenario(seed, n, g);
        let timeout = if short { 60_000 } else { 10_000_000 };
        let mut e = Engine::new(topo.clone(), move |me, _, _| {
            DvmrpRouter::new(me, DvmrpConfig { prune_timeout: timeout })
        });
        drive(&mut e, &members, source, 3);
        assert_exactly_once(&e, &topo, &members, 3, "dvmrp")?;
    }

    /// MOSPF delivers exactly once at unicast delay.
    #[test]
    fn mospf_exactly_once(seed in 0u64..400, n in 8usize..30, g in 1usize..8) {
        let (topo, members, source) = scenario(seed, n, g);
        let mut e = Engine::new(topo.clone(), |me, _, _| MospfRouter::new(me));
        drive(&mut e, &members, source, 3);
        assert_exactly_once(&e, &topo, &members, 3, "mospf")?;
        let paths = scmp_net::AllPairsPaths::compute(&topo);
        for &m in &members {
            prop_assert_eq!(
                e.stats().delivery_delay(G, 1, m),
                paths.unicast_delay(source, m),
                "mospf member {:?} delay", m
            );
        }
    }

    /// CBT churn: after all members leave and the network quiesces, no
    /// router except the core keeps tree state.
    #[test]
    fn cbt_churn_clean(seed in 0u64..300, n in 8usize..25, g in 2usize..8) {
        let (topo, members, _) = scenario(seed, n, g);
        let mut e = Engine::new(topo.clone(), |me, _, _| {
            CbtRouter::new(me, CbtConfig { core: NodeId(0) })
        });
        let mut t = 0;
        for &m in &members {
            e.schedule_app(t, m, AppEvent::Join(G));
            t += 3_000;
        }
        t += 300_000;
        for &m in &members {
            e.schedule_app(t, m, AppEvent::Leave(G));
            t += 3_000;
        }
        e.run_to_quiescence();
        for v in topo.nodes() {
            if v != NodeId(0) {
                prop_assert!(!e.router(v).on_tree(G), "stale CBT state at {:?}", v);
            }
        }
        prop_assert!(e.router(NodeId(0)).children(G).is_empty());
    }

    /// A member that joins DVMRP *after* heavy pruning still receives
    /// (graft correctness) — for any position of the late joiner.
    #[test]
    fn dvmrp_late_join_grafts(seed in 0u64..200, n in 8usize..25) {
        let (topo, _, source) = scenario(seed, n, 0);
        let candidates: Vec<NodeId> = topo
            .nodes()
            .filter(|&v| v != source && v != NodeId(0))
            .collect();
        let late = candidates[seed as usize % candidates.len()];
        let mut e = Engine::new(topo.clone(), |me, _, _| {
            DvmrpRouter::new(me, DvmrpConfig { prune_timeout: 50_000_000 })
        });
        // Prime prune state everywhere with a members-free flood.
        e.schedule_app(0, source, AppEvent::Send { group: G, tag: 1 });
        e.run_to_quiescence();
        // Late join, then another packet.
        let now = e.now() + 100_000;
        e.schedule_app(now, late, AppEvent::Join(G));
        e.schedule_app(now + 500_000, source, AppEvent::Send { group: G, tag: 2 });
        e.run_to_quiescence();
        prop_assert_eq!(e.stats().delivery_count(G, 2, late), 1, "late joiner {:?}", late);
    }
}
