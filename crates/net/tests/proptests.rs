//! Property-based tests for the network substrate.

use proptest::prelude::*;
use scmp_net::rng::rng_for;
use scmp_net::topology::{gt_itm_flat, transit_stub, waxman, GtItmConfig, WaxmanConfig};
use scmp_net::{
    dijkstra, AllPairsPaths, LivePaths, Metric, NodeId, OnDemandPaths, PathProvider, RoutingTables,
    Topology,
};

fn small_waxman(seed: u64, n: usize) -> scmp_net::Topology {
    let cfg = WaxmanConfig {
        n,
        ..WaxmanConfig::default()
    };
    waxman(&cfg, &mut rng_for("prop-waxman", seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generators always produce connected graphs.
    #[test]
    fn generated_graphs_connected(seed in 0u64..1000, n in 2usize..40) {
        let t = small_waxman(seed, n);
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.node_count(), n);
    }

    /// Dijkstra distances satisfy the triangle inequality over links.
    #[test]
    fn dijkstra_triangle_inequality(seed in 0u64..500, n in 3usize..25) {
        let t = small_waxman(seed, n);
        for metric in [Metric::Delay, Metric::Cost] {
            let spt = dijkstra(&t, NodeId(0), metric);
            for &(a, b, w) in t.edges() {
                let da = spt.distance(a).unwrap();
                let db = spt.distance(b).unwrap();
                let w = metric.of(w);
                prop_assert!(da <= db + w);
                prop_assert!(db <= da + w);
            }
        }
    }

    /// Reconstructed shortest paths actually have the reported distance.
    #[test]
    fn path_weight_matches_distance(seed in 0u64..500, n in 2usize..25) {
        let t = small_waxman(seed, n);
        let ap = AllPairsPaths::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                for metric in [Metric::Delay, Metric::Cost] {
                    let p = ap.path(src, dst, metric).unwrap();
                    let w = t.path_weight(&p).unwrap();
                    prop_assert_eq!(metric.of(w), ap.distance(src, dst, metric).unwrap());
                }
            }
        }
    }

    /// Distances are symmetric because links are.
    #[test]
    fn distances_symmetric(seed in 0u64..500, n in 2usize..25) {
        let t = small_waxman(seed, n);
        let ap = AllPairsPaths::compute(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                for m in [Metric::Delay, Metric::Cost] {
                    prop_assert_eq!(ap.distance(a, b, m), ap.distance(b, a, m));
                }
            }
        }
    }

    /// Hop-by-hop unicast routes terminate and realise the shortest delay.
    #[test]
    fn routing_tables_sound(seed in 0u64..500, n in 2usize..20) {
        let t = small_waxman(seed, n);
        let rt = RoutingTables::compute_dense(&t);
        let ap = AllPairsPaths::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                let route = rt.route(src, dst).unwrap();
                prop_assert_eq!(route.first().copied(), Some(src));
                prop_assert_eq!(route.last().copied(), Some(dst));
                let w = t.path_weight(&route).unwrap();
                prop_assert_eq!(Some(w.delay), ap.unicast_delay(src, dst));
            }
        }
    }

    /// GT-ITM generator hits its size and stays connected for odd params.
    #[test]
    fn gt_itm_connected(seed in 0u64..200, n in 2usize..30, deg in 1u32..6) {
        let cfg = GtItmConfig { n, average_degree: deg as f64, grid: 1000 };
        let t = gt_itm_flat(&cfg, &mut rng_for("prop-gtitm", seed));
        prop_assert!(t.is_connected());
        prop_assert_eq!(t.node_count(), n);
    }
}

/// A small transit–stub instance (node count is quantised by the
/// generator's `t·(1 + s·k)` shape).
fn small_transit_stub(seed: u64, stub_size: usize) -> scmp_net::Topology {
    transit_stub(3, 2, stub_size, 1000, &mut rng_for("prop-ts", seed))
}

/// The on-demand provider must be observationally identical to the
/// eager tables: same trees (so the same next hops under the
/// destination-rooted rule), distances and paths — with a tiny cache so
/// eviction-and-recompute is exercised, and again in a second round
/// that recomputes every evicted tree.
fn assert_provider_matches(topo: &scmp_net::Topology) -> Result<(), TestCaseError> {
    let ap = AllPairsPaths::compute(topo);
    let od = OnDemandPaths::with_capacity(std::sync::Arc::new(topo.clone()), 2);
    for _round in 0..2 {
        for src in topo.nodes() {
            for m in [Metric::Delay, Metric::Cost] {
                let et = PathProvider::tree(&ap, src, m);
                let lt = od.tree(src, m);
                for v in topo.nodes() {
                    prop_assert_eq!(et.distance(v), lt.distance(v));
                    prop_assert_eq!(et.predecessor(v), lt.predecessor(v));
                }
            }
            for dst in topo.nodes() {
                for m in [Metric::Delay, Metric::Cost] {
                    prop_assert_eq!(ap.distance(src, dst, m), od.distance(src, dst, m));
                    prop_assert_eq!(ap.path(src, dst, m), od.path(src, dst, m));
                }
            }
        }
    }
    let stats = od.stats();
    prop_assert!(stats.evictions > 0 || topo.node_count() <= 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On-demand ≡ all-pairs on Waxman graphs, across evictions and a
    /// requery of every evicted tree.
    #[test]
    fn on_demand_matches_all_pairs_waxman(seed in 0u64..500, n in 2usize..20) {
        let t = small_waxman(seed, n);
        assert_provider_matches(&t)?;
    }

    /// Same equivalence on hierarchical transit–stub graphs.
    #[test]
    fn on_demand_matches_all_pairs_transit_stub(seed in 0u64..500, stub in 1usize..4) {
        let t = small_transit_stub(seed, stub);
        assert_provider_matches(&t)?;
    }
}

/// The live view against the implementation it replaced, as oracle:
/// whatever the mask, `route` must equal the dense tables rebuilt over
/// the surviving topology and `tree` a plain Dijkstra over it, field
/// for field.
fn assert_view_matches_rebuild(
    view: &LivePaths,
    down_nodes: &[bool],
    cut: &[bool],
) -> Result<(), TestCaseError> {
    let topo = view.topo();
    let edges = topo.edges();
    let surviving = topo.subtopology(
        |v| !down_nodes[v.index()],
        |a, b| {
            !cut[edges
                .binary_search_by_key(&(a, b), |&(a, b, _)| (a, b))
                .unwrap()]
        },
    );
    let dense = RoutingTables::compute_dense(&surviving);
    for src in topo.nodes() {
        for dst in topo.nodes() {
            prop_assert_eq!(view.route(src, dst), dense.route(src, dst));
            prop_assert_eq!(view.next_hop(src, dst), dense.next_hop(src, dst));
        }
        for metric in [Metric::Delay, Metric::Cost] {
            let got = view.tree(src, metric);
            let want = dijkstra(&surviving, src, metric);
            prop_assert_eq!(got.source(), want.source());
            prop_assert_eq!(got.metric(), want.metric());
            for v in topo.nodes() {
                prop_assert_eq!(got.distance(v), want.distance(v));
                prop_assert_eq!(got.predecessor(v), want.predecessor(v));
            }
        }
    }
    Ok(())
}

/// Drive `topo`'s view through a seeded sequence of link/node down/up
/// events, then a full partition (every edge between the low and the
/// high half of the node ids) and its heal, then restore whatever is
/// still down — checking against the rebuild oracle after every step.
fn assert_live_view_differential(topo: Topology, seed: u64) -> Result<(), TestCaseError> {
    use rand::Rng;
    let mut rng = rng_for("prop-live", seed);
    let n = topo.node_count();
    let edges = topo.edges().to_vec();
    let mut view = LivePaths::new(topo);
    let mut down_nodes = vec![false; n];
    let mut cut = vec![false; edges.len()];
    assert_view_matches_rebuild(&view, &down_nodes, &cut)?;
    for _ in 0..10 {
        // Toggling keeps roughly half the events failures, half repairs.
        if rng.gen_range(0..4) == 0 {
            let v = rng.gen_range(0..n);
            down_nodes[v] = !down_nodes[v];
            view.set_node_down(NodeId(v as u32), down_nodes[v]);
        } else {
            let e = rng.gen_range(0..edges.len());
            cut[e] = !cut[e];
            // Endpoint order must not matter.
            view.set_link_down(edges[e].1, edges[e].0, cut[e]);
        }
        assert_view_matches_rebuild(&view, &down_nodes, &cut)?;
    }
    let crossing: Vec<usize> = (0..edges.len())
        .filter(|&e| (edges[e].0.index() < n / 2) != (edges[e].1.index() < n / 2))
        .collect();
    let before = cut.clone();
    for &e in &crossing {
        cut[e] = true;
        view.set_link_down(edges[e].0, edges[e].1, true);
    }
    prop_assert_eq!(view.route(NodeId(0), NodeId(n as u32 - 1)), None);
    assert_view_matches_rebuild(&view, &down_nodes, &cut)?;
    for &e in &crossing {
        cut[e] = before[e];
        view.set_link_down(edges[e].0, edges[e].1, before[e]);
    }
    assert_view_matches_rebuild(&view, &down_nodes, &cut)?;
    // The last heal: from here on the healthy store answers again.
    for v in 0..n {
        view.set_node_down(NodeId(v as u32), false);
    }
    for &(a, b, _) in &edges {
        view.set_link_down(a, b, false);
    }
    assert_healthy_view_matches(&view)
}

/// A fault-free view against its oracles: routes and next hops equal the
/// dense tables, trees a plain Dijkstra, and no answer is an SPF run —
/// they all come from the healthy store.
fn assert_healthy_view_matches(view: &LivePaths) -> Result<(), TestCaseError> {
    prop_assert!(!view.degraded());
    let spf_before = view.spf_runs();
    let topo = view.topo();
    let healthy = RoutingTables::compute_dense(topo);
    for src in topo.nodes() {
        for dst in topo.nodes() {
            prop_assert_eq!(view.route(src, dst), healthy.route(src, dst));
            prop_assert_eq!(view.next_hop(src, dst), healthy.next_hop(src, dst));
        }
        for metric in [Metric::Delay, Metric::Cost] {
            let got = view.tree(src, metric);
            let want = dijkstra(topo, src, metric);
            for v in topo.nodes() {
                prop_assert_eq!(got.distance(v), want.distance(v));
                prop_assert_eq!(got.predecessor(v), want.predecessor(v));
            }
        }
    }
    prop_assert_eq!(view.spf_runs(), spf_before);
    Ok(())
}

/// The healthy view past `ALL_PAIRS_MAX_NODES`, where its store is a
/// bounded on-demand cache that routing evicts from as it goes: a
/// 303-node transit–stub, every pair, against the same oracles.
#[test]
fn healthy_view_matches_rebuild_past_the_all_pairs_threshold() {
    let topo = transit_stub(3, 4, 25, 1000, &mut rng_for("prop-ts", 7));
    assert!(topo.node_count() > scmp_net::provider::ALL_PAIRS_MAX_NODES);
    assert_healthy_view_matches(&LivePaths::new(topo)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Live view ≡ rebuild-everything on Waxman graphs.
    #[test]
    fn live_view_matches_rebuild_waxman(seed in 0u64..500, n in 4usize..16) {
        assert_live_view_differential(small_waxman(seed, n), seed)?;
    }

    /// Same equivalence on hierarchical transit–stub graphs (many
    /// equal-cost ties inside the stubs).
    #[test]
    fn live_view_matches_rebuild_transit_stub(seed in 0u64..500, stub in 1usize..3) {
        assert_live_view_differential(small_transit_stub(seed, stub), seed)?;
    }
}
