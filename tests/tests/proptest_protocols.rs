//! Property-based integration tests: protocol invariants over random
//! topologies, groups and churn schedules.

use proptest::prelude::*;
use scmp_integration::{mirror_matches_entries, scenario, scmp_engine, G};
use scmp_net::metrics::reachable_set;
use scmp_net::{AllPairsPaths, NodeId};
use scmp_sim::AppEvent;
use scmp_tree::repair;
use scmp_tree::{Dcdm, DelayBound};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SCMP delivers every payload to every member exactly once, with no
    /// duplicates anywhere, for arbitrary scenario shapes.
    #[test]
    fn scmp_exactly_once_delivery(seed in 0u64..500, n in 10usize..35, g in 1usize..10) {
        let sc = scenario(seed, n, g);
        let mut e = scmp_engine(sc.topo.clone());
        let mut t = 0;
        for &m in &sc.members {
            e.schedule_app(t, m, AppEvent::Join(G));
            t += 1_000;
        }
        e.schedule_app(t + 500_000, sc.source, AppEvent::Send { group: G, tag: 1 });
        e.run_to_quiescence();
        for &m in &sc.members {
            prop_assert_eq!(e.stats().delivery_count(G, 1, m), 1);
        }
        prop_assert!(!e.stats().has_duplicate_deliveries());
        // Non-members receive nothing.
        for v in sc.topo.nodes() {
            if !sc.members.contains(&v) {
                prop_assert_eq!(e.stats().delivery_count(G, 1, v), 0);
            }
        }
    }

    /// Arbitrary interleavings of joins and leaves never leave stale
    /// entries: after everyone leaves and the network quiesces, only the
    /// m-router may hold state.
    #[test]
    fn scmp_churn_leaves_no_stale_state(
        seed in 0u64..500,
        n in 10usize..30,
        ops in prop::collection::vec((0usize..8, prop::bool::ANY), 1..24),
    ) {
        let sc = scenario(seed, n, 8);
        let mut e = scmp_engine(sc.topo.clone());
        let mut t = 0;
        // Replay the op schedule: (member index, join/leave).
        for (idx, join) in &ops {
            let m = sc.members[*idx % sc.members.len()];
            let ev = if *join { AppEvent::Join(G) } else { AppEvent::Leave(G) };
            e.schedule_app(t, m, ev);
            t += 5_000;
        }
        // Drain every remaining membership.
        t += 100_000;
        for &m in &sc.members {
            for _ in 0..ops.len() {
                e.schedule_app(t, m, AppEvent::Leave(G));
                t += 1_000;
            }
        }
        e.run_to_quiescence();
        for v in sc.topo.nodes() {
            if v == NodeId(0) {
                continue;
            }
            prop_assert!(
                e.router(v).entry(G).is_none(),
                "stale entry at {:?}", v
            );
        }
        let m = e.router(NodeId(0)).m_state().unwrap();
        if let Some(tree) = m.tree(G) {
            prop_assert_eq!(tree.member_count(), 0);
            prop_assert_eq!(tree.on_tree_count(), 1);
        }
    }

    /// The m-router mirror and physical entries agree after quiescence
    /// for any join schedule.
    #[test]
    fn scmp_mirror_agreement(seed in 0u64..300, n in 10usize..30, g in 1usize..10) {
        let sc = scenario(seed, n, g);
        let mut e = scmp_engine(sc.topo.clone());
        let mut t = 0;
        for &m in &sc.members {
            e.schedule_app(t, m, AppEvent::Join(G));
            t += 1_000;
        }
        e.run_to_quiescence();
        let tree = e
            .router(NodeId(0))
            .m_state()
            .unwrap()
            .tree(G)
            .unwrap()
            .clone();
        prop_assert_eq!(tree.validate(Some(&sc.topo)), Ok(()));
        prop_assert_eq!(mirror_matches_entries(&e, NodeId(0)), Ok(()));
    }

    /// Tree repair never partitions connected receivers: for any random
    /// topology, member set and single-link failure, re-running DCDM on
    /// the surviving topology yields a valid tree covering exactly the
    /// members still reachable from the root.
    #[test]
    fn tree_repair_never_partitions_connected_receivers(
        seed in 0u64..500,
        n in 8usize..30,
        g in 2usize..8,
        kill in any::<u32>(),
    ) {
        let sc = scenario(seed, n, g);
        let root = NodeId(0);
        let paths = AllPairsPaths::compute(&sc.topo);
        let mut dcdm = Dcdm::new(&sc.topo, &paths, root, DelayBound::Dynamic);
        for &m in &sc.members {
            dcdm.join(m);
        }
        let tree = dcdm.into_tree();
        prop_assert_eq!(tree.validate(Some(&sc.topo)), Ok(()));

        // Kill one link, chosen by the `kill` draw.
        let edges = sc.topo.edges();
        let (ka, kb, _) = edges[kill as usize % edges.len()];
        let surviving = sc.topo.subtopology(
            |_| true,
            |a, b| !((a == ka && b == kb) || (a == kb && b == ka)),
        );
        let reachable = reachable_set(&surviving, root);

        // The damage report must flag the cut iff it carried tree load.
        let damage = repair::assess(&tree, |_| true, |a, b| surviving.has_link(a, b));
        let on_tree = tree
            .edges()
            .iter()
            .any(|&(p, c)| (p == ka && c == kb) || (p == kb && c == ka));
        prop_assert_eq!(!damage.broken_edges.is_empty(), on_tree);

        // Repair exactly as the m-router's scan does: rebuild with DCDM
        // over the surviving topology for the reachable members.
        let spaths = AllPairsPaths::compute(&surviving);
        let mut rebuilt = Dcdm::new(&surviving, &spaths, root, DelayBound::Dynamic);
        for &m in &sc.members {
            if reachable[m.index()] {
                rebuilt.join(m);
            }
        }
        let repaired = rebuilt.into_tree();
        prop_assert_eq!(repaired.validate(Some(&surviving)), Ok(()));
        for &m in &sc.members {
            prop_assert_eq!(
                repaired.is_member(m),
                reachable[m.index()],
                "member {:?} (reachable = {})", m, reachable[m.index()]
            );
        }
    }
}
