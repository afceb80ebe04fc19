//! DCDM joins settle only the part of the graph that can win.
//!
//! A join asks the path store for the joiner's two trees with a stop
//! rule, and a lazy store (`OnDemandPaths`) then settles only the nodes
//! that rule needs. This gate replays a seeded Zipf join/leave sequence
//! on a 2k-node transit–stub twice, step for step: once over an
//! `OnDemandPaths`, once over a store that only ever hands out full
//! trees. It holds that every join makes the same graft with both, and
//! that the stopped searches settle on average at most 5 % of the graph
//! per join that scans candidates. Both are exact counts that repeat on
//! every run and host, so the gate is a counter, not a clock.

use rand::Rng;
use scmp_bench::scale::{transit_stub_params, Zipf};
use scmp_net::rng::rng_for;
use scmp_net::topology::transit_stub;
use scmp_net::{Metric, NodeId, OnDemandPaths, PathProvider, ShortestPathTree, Topology};
use scmp_tree::{Dcdm, DelayBound, JoinOutcome, MulticastTree};
use std::sync::Arc;

/// Node-count target of the transit–stub.
const NODES: usize = 2_000;
/// Groups, drawn Zipf(1.0) per op.
const GROUPS: usize = 16;
/// Membership ops; every fifth is a leave.
const OPS: usize = 800;
const ROOT: NodeId = NodeId(0);

/// An on-demand store that answers every request with the full tree:
/// the default `tree_until`.
#[derive(Debug)]
struct FullTrees(OnDemandPaths);

impl PathProvider for FullTrees {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn tree(&self, src: NodeId, metric: Metric) -> Arc<ShortestPathTree> {
        self.0.tree(src, metric)
    }

    fn resident_path_bytes(&self) -> usize {
        self.0.resident_path_bytes()
    }
}

/// Join `v` into `tree` over `paths` under the dynamic bound.
fn join(
    topo: &Topology,
    paths: &dyn PathProvider,
    tree: &mut MulticastTree,
    v: NodeId,
) -> JoinOutcome {
    let taken = std::mem::replace(tree, MulticastTree::new(topo.node_count(), ROOT));
    let mut d = Dcdm::with_tree(topo, paths, taken, DelayBound::Dynamic);
    let outcome = d.join(v);
    *tree = d.into_tree();
    outcome
}

#[test]
fn stopped_joins_graft_as_full_ones_and_settle_a_sliver() {
    let (t, s, k) = transit_stub_params(NODES);
    let topo = transit_stub(t, s, k, 32_767, &mut rng_for("join-settled/topo", 1));
    let n = topo.node_count();
    let stopped = OnDemandPaths::from_topology(&topo);
    let full = FullTrees(OnDemandPaths::from_topology(&topo));
    let ul = stopped.tree(ROOT, Metric::Delay);
    let zipf = Zipf::new(GROUPS, 1.0);
    let mut rng = rng_for("join-settled/ops", 1);
    let fresh = || MulticastTree::new(n, ROOT);
    let mut trees: Vec<(MulticastTree, MulticastTree)> =
        (0..GROUPS).map(|_| (fresh(), fresh())).collect();
    let (mut scans, mut forced, mut settled) = (0u64, 0u64, 0u64);
    for op in 0..OPS {
        let (a, b) = &mut trees[zipf.sample(&mut rng)];
        let members: Vec<NodeId> = a.members().collect();
        if op % 5 == 4 && !members.is_empty() {
            let v = members[rng.gen_range(0..members.len())];
            for tree in [&mut *a, &mut *b] {
                let mut d = Dcdm::with_tree(
                    &topo,
                    &full,
                    std::mem::replace(tree, fresh()),
                    DelayBound::Dynamic,
                );
                d.leave(v);
                *tree = d.into_tree();
            }
            continue;
        }
        let v = NodeId(rng.gen_range(1..n as u32));
        let scanned = !a.contains(v);
        let forces = ul.distance(v).expect("connected") > a.tree_delay(&topo);
        let before = stopped.stats().settled;
        let got = join(&topo, &stopped, a, v);
        let want = join(&topo, &full, b, v);
        assert_eq!(got, want, "join {op} of {v:?}");
        if scanned && forces {
            forced += 1;
        } else if scanned {
            scans += 1;
            settled += stopped.stats().settled - before;
        }
    }
    for (a, b) in &trees {
        assert_eq!(a.edges(), b.edges());
    }
    // Measured: n = 2 080; 492 scanning joins (and 79 forced ones)
    // settle 52.9 nodes each on average, 2.5 % of the graph. Full trees
    // would settle all 2 080 twice per join.
    assert_eq!((scans, forced), (492, 79), "the replayed workload moved");
    let mean = settled as f64 / scans as f64;
    assert!(
        mean <= 0.05 * n as f64,
        "{mean:.1} nodes settled per join of {n}"
    );
}
