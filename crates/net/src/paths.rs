//! Precomputed all-pairs `P_sl` / `P_lc` path tables.
//!
//! §III-D of the paper: *"For each router on the tree, there are two
//! paths, `P_lc` and `P_sl`, connecting `s` to the router which were
//! computed in advance."* The m-router computes these once per topology
//! (it has the full link-state database), so a DCDM join reads the
//! joiner's two trees from the tables as they are: the stop rule it
//! passes to [`PathProvider::tree_until`] only spares work in the lazy
//! stores, and the eager tables answer with their full trees.

use crate::dijkstra::{dijkstra_with, DijkstraScratch, Metric, ShortestPathTree};
use crate::graph::{NodeId, Topology};
use crate::provider::PathProvider;
use std::sync::Arc;

/// All-pairs shortest-delay and least-cost path tables.
///
/// Stores one [`ShortestPathTree`] per (source, metric); memory is
/// `O(n²)` which is trivial at the paper's scales (n ≤ a few hundred).
/// For larger graphs use [`crate::OnDemandPaths`] — both implement
/// [`PathProvider`] and return identical answers.
#[derive(Clone, Debug)]
pub struct AllPairsPaths {
    by_delay: Vec<Arc<ShortestPathTree>>,
    by_cost: Vec<Arc<ShortestPathTree>>,
}

impl AllPairsPaths {
    /// Precompute both tables for `topo` (2n Dijkstra runs sharing one
    /// scratch).
    pub fn compute(topo: &Topology) -> Self {
        let mut scratch = DijkstraScratch::new();
        let by_delay = topo
            .nodes()
            .map(|s| Arc::new(dijkstra_with(topo, s, Metric::Delay, &mut scratch)))
            .collect();
        let by_cost = topo
            .nodes()
            .map(|s| Arc::new(dijkstra_with(topo, s, Metric::Cost, &mut scratch)))
            .collect();
        AllPairsPaths { by_delay, by_cost }
    }

    /// Number of nodes the tables were computed for.
    pub fn node_count(&self) -> usize {
        self.by_delay.len()
    }

    /// The Dijkstra tree rooted at `src` for `metric`.
    pub fn tree(&self, src: NodeId, metric: Metric) -> &ShortestPathTree {
        match metric {
            Metric::Delay => &self.by_delay[src.index()],
            Metric::Cost => &self.by_cost[src.index()],
        }
    }

    /// Shortest distance from `src` to `dst` under `metric` (`None` if
    /// disconnected).
    pub fn distance(&self, src: NodeId, dst: NodeId, metric: Metric) -> Option<u64> {
        self.tree(src, metric).distance(dst)
    }

    /// The paper's unicast delay `ul`: delay of the shortest-delay path.
    pub fn unicast_delay(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.distance(src, dst, Metric::Delay)
    }

    /// The path `src -> … -> dst` optimal under `metric`.
    pub fn path(&self, src: NodeId, dst: NodeId, metric: Metric) -> Option<Vec<NodeId>> {
        self.tree(src, metric).path_to(dst)
    }
}

impl PathProvider for AllPairsPaths {
    fn node_count(&self) -> usize {
        AllPairsPaths::node_count(self)
    }

    fn tree(&self, src: NodeId, metric: Metric) -> Arc<ShortestPathTree> {
        let arc = match metric {
            Metric::Delay => &self.by_delay[src.index()],
            Metric::Cost => &self.by_cost[src.index()],
        };
        Arc::clone(arc)
    }

    fn resident_path_bytes(&self) -> usize {
        self.by_delay
            .iter()
            .chain(self.by_cost.iter())
            .map(|t| t.resident_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::graph::{LinkWeight, TopologyBuilder};
    use crate::topology::examples::fig5;

    #[test]
    fn tables_agree_with_direct_dijkstra() {
        let t = fig5();
        let ap = AllPairsPaths::compute(&t);
        for s in t.nodes() {
            for metric in [Metric::Delay, Metric::Cost] {
                let direct = dijkstra(&t, s, metric);
                for v in t.nodes() {
                    assert_eq!(ap.distance(s, v, metric), direct.distance(v));
                }
            }
        }
    }

    #[test]
    fn unicast_delay_is_symmetric() {
        // Links are symmetric, so shortest-delay *distances* must be too
        // (the chosen paths may differ under ties, the values cannot).
        let t = fig5();
        let ap = AllPairsPaths::compute(&t);
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(ap.unicast_delay(a, b), ap.unicast_delay(b, a));
            }
        }
    }

    #[test]
    fn path_endpoints_and_weights() {
        let t = fig5();
        let ap = AllPairsPaths::compute(&t);
        let p = ap.path(NodeId(5), NodeId(0), Metric::Cost).unwrap();
        assert_eq!(p.first(), Some(&NodeId(5)));
        assert_eq!(p.last(), Some(&NodeId(0)));
        assert_eq!(t.path_weight(&p).unwrap().cost, 7); // 5-2-0
    }

    /// The next hop toward `dst` under the destination-rooted rule every
    /// router forwards by: `src`'s predecessor in `dst`'s delay tree.
    fn next_hop(ap: &AllPairsPaths, src: NodeId, dst: NodeId) -> Option<NodeId> {
        ap.tree(dst, Metric::Delay).predecessor(src)
    }

    #[test]
    fn next_hop_walks_shortest_delay_path() {
        let t = fig5();
        let ap = AllPairsPaths::compute(&t);
        // From g1 (node 4) toward the m-router (node 0): 4-1-0.
        assert_eq!(next_hop(&ap, NodeId(4), NodeId(0)), Some(NodeId(1)));
        assert_eq!(next_hop(&ap, NodeId(1), NodeId(0)), Some(NodeId(0)));
        assert_eq!(next_hop(&ap, NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn next_hop_chain_terminates_at_destination() {
        let t = fig5();
        let ap = AllPairsPaths::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                let mut cur = src;
                let mut hops = 0;
                while cur != dst {
                    cur = next_hop(&ap, cur, dst).expect("connected");
                    hops += 1;
                    assert!(hops <= t.node_count(), "routing loop {src:?}->{dst:?}");
                }
            }
        }
    }

    #[test]
    fn disconnected_pairs_return_none() {
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        b.add_link(NodeId(2), NodeId(3), LinkWeight::new(1, 1));
        let ap = AllPairsPaths::compute(&b.build());
        assert_eq!(ap.distance(NodeId(0), NodeId(2), Metric::Delay), None);
        assert_eq!(ap.path(NodeId(0), NodeId(3), Metric::Cost), None);
        assert_eq!(next_hop(&ap, NodeId(1), NodeId(2)), None);
    }
}
