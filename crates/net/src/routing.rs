//! Dense unicast next-hop tables: the oracle the live path view is
//! tested against.
//!
//! The paper assumes every domain "also runs a unicast routing protocol"
//! (link-state, §II-D); SCMP and the baselines use it to carry JOIN
//! messages to the m-router/core and to tunnel data packets from off-tree
//! sources. In the simulator that protocol is [`crate::LivePaths`], which
//! answers `src → dst` from the shortest-delay tree rooted at `dst`. This
//! module materialises the same rule as the historical `n × n` table —
//! `n` Dijkstra runs up front over one fixed topology — so the view's
//! answers can be checked against it, healthy or over a surviving
//! topology.
//!
//! The next hop from `src` toward `dst` is derived from the shortest-delay
//! tree rooted at **`dst`** (links are symmetric, so the reversed tree
//! path is a shortest `src → dst` path). Hop-by-hop forwarding then walks
//! a single predecessor chain of one tree, which is loop-free *by
//! construction* even in the presence of zero-delay links and equal-cost
//! ties — unlike stitching together per-source trees.

use crate::dijkstra::{dijkstra_with, DijkstraScratch, Metric};
use crate::graph::{NodeId, Topology};

const NONE: u32 = u32::MAX;

/// Per-node unicast next-hop tables (`next_hop[src][dst]` semantics).
#[derive(Clone, Debug)]
pub struct RoutingTables {
    n: usize,
    /// Flattened `src * n + dst`; `u32::MAX` encodes "none".
    next: Vec<u32>,
}

impl RoutingTables {
    /// Build the dense `n × n` tables for `topo`: `n` Dijkstra runs by
    /// delay, matching a link-state IGP with delay as the metric.
    pub fn compute_dense(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut next = vec![NONE; n * n];
        let mut scratch = DijkstraScratch::new();
        for dst in topo.nodes() {
            let tree = dijkstra_with(topo, dst, Metric::Delay, &mut scratch);
            for src in topo.nodes() {
                if src == dst {
                    continue;
                }
                // First hop of src->dst = predecessor of src in the tree
                // rooted at dst (path reversal under symmetric links).
                if let Some(p) = tree.predecessor(src) {
                    next[src.index() * n + dst.index()] = p.0;
                }
            }
            scratch.recycle(tree);
        }
        RoutingTables { n, next }
    }

    /// Next hop on the unicast route from `src` to `dst`.
    ///
    /// `None` when `src == dst` or `dst` is unreachable.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let v = self.next[src.index() * self.n + dst.index()];
        (v != NONE).then_some(NodeId(v))
    }

    /// Materialise the full hop-by-hop route `src -> … -> dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let mut out = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            out.push(cur);
            if out.len() > self.n {
                unreachable!("routing loop from {src:?} to {dst:?}");
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkWeight, TopologyBuilder};
    use crate::paths::AllPairsPaths;
    use crate::topology::examples::fig5;

    #[test]
    fn routes_are_shortest_delay_paths() {
        let t = fig5();
        let rt = RoutingTables::compute_dense(&t);
        let ap = AllPairsPaths::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                let route = rt.route(src, dst).expect("connected");
                let w = t.path_weight(&route).expect("valid path");
                assert_eq!(
                    Some(w.delay),
                    ap.unicast_delay(src, dst),
                    "{src:?}->{dst:?}"
                );
            }
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let t = fig5();
        let rt = RoutingTables::compute_dense(&t);
        assert_eq!(rt.next_hop(NodeId(2), NodeId(2)), None);
        assert_eq!(rt.route(NodeId(2), NodeId(2)), Some(vec![NodeId(2)]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        let rt = RoutingTables::compute_dense(&b.build());
        assert_eq!(rt.next_hop(NodeId(0), NodeId(2)), None);
        assert_eq!(rt.route(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn zero_delay_links_cannot_loop() {
        // A cycle of zero-delay links: hop-by-hop forwarding must still
        // terminate because all hops follow the destination-rooted tree.
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(0, 1));
        b.add_link(NodeId(1), NodeId(2), LinkWeight::new(0, 1));
        b.add_link(NodeId(2), NodeId(3), LinkWeight::new(0, 1));
        b.add_link(NodeId(3), NodeId(0), LinkWeight::new(0, 1));
        let rt = RoutingTables::compute_dense(&b.build());
        for src in 0..4u32 {
            for dst in 0..4u32 {
                assert!(rt.route(NodeId(src), NodeId(dst)).is_some());
            }
        }
    }

    #[test]
    fn next_hop_is_a_neighbor() {
        let t = fig5();
        let rt = RoutingTables::compute_dense(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                if let Some(nh) = rt.next_hop(src, dst) {
                    assert!(t.has_link(src, nh), "{src:?}->{dst:?} via {nh:?}");
                }
            }
        }
    }
}
