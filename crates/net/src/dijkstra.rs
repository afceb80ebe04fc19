//! Single-source shortest paths under either link metric.
//!
//! The paper distinguishes the *shortest-delay* path `P_sl` from the
//! *least-cost* path `P_lc` between every node pair (§III-A). Both are
//! produced by the same Dijkstra run parameterised by [`Metric`].
//!
//! Determinism: ties are broken toward the smaller predecessor node id, so
//! repeated runs over the same [`Topology`] yield identical trees — a
//! requirement for the reproducible experiment harness.

use crate::graph::{NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which link parameter to minimise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Minimise summed link delay (the paper's `P_sl`).
    Delay,
    /// Minimise summed link cost (the paper's `P_lc`).
    Cost,
}

impl Metric {
    /// Extract this metric's component from a link weight.
    #[inline]
    pub fn of(self, w: crate::graph::LinkWeight) -> u64 {
        match self {
            Metric::Delay => w.delay,
            Metric::Cost => w.cost,
        }
    }
}

/// Result of a Dijkstra run: distances and predecessor pointers from one
/// source to every reachable node.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    source: NodeId,
    metric: Metric,
    dist: Vec<u64>,
    pred: Vec<Option<NodeId>>,
}

impl ShortestPathTree {
    /// The source this tree is rooted at.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The metric that was minimised.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Distance from the source to `node` under the tree's metric, or
    /// `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u64> {
        let d = self.dist[node.index()];
        (d != u64::MAX).then_some(d)
    }

    /// Predecessor of `node` on its shortest path (None for the source or
    /// unreachable nodes).
    pub fn predecessor(&self, node: NodeId) -> Option<NodeId> {
        self.pred[node.index()]
    }

    /// Full path `source -> … -> node`, or `None` if unreachable.
    pub fn path_to(&self, node: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[node.index()] == u64::MAX {
            return None;
        }
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.pred[cur.index()] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        path.reverse();
        Some(path)
    }

    /// Heap footprint of the tree's distance and predecessor arrays —
    /// what one cached source tree costs a [`crate::OnDemandPaths`].
    pub fn resident_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<u64>()
            + self.pred.len() * std::mem::size_of::<Option<NodeId>>()
    }
}

/// Reusable working memory for [`dijkstra_with`].
///
/// A Dijkstra run needs four growable buffers: the heap, the visited
/// set, and the output `dist`/`pred` arrays. The first two are pure
/// scratch and are reused across runs directly; the output arrays must
/// be owned by the returned [`ShortestPathTree`], so the scratch keeps a
/// recycle pool fed by [`DijkstraScratch::recycle`] (the on-demand path
/// provider returns evicted trees here). With a warm scratch a run
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    heap: BinaryHeap<Reverse<(u64, NodeId)>>,
    done: Vec<bool>,
    dist_pool: Vec<Vec<u64>>,
    pred_pool: Vec<Vec<Option<NodeId>>>,
}

impl DijkstraScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DijkstraScratch::default()
    }

    /// Return a no-longer-needed tree's buffers to the recycle pool so
    /// the next [`dijkstra_with`] run can reuse them.
    pub fn recycle(&mut self, tree: ShortestPathTree) {
        self.dist_pool.push(tree.dist);
        self.pred_pool.push(tree.pred);
    }

    /// Take (or allocate) an output buffer pair sized and reset for `n`
    /// nodes.
    fn take_bufs(&mut self, n: usize) -> (Vec<u64>, Vec<Option<NodeId>>) {
        let mut dist = self.dist_pool.pop().unwrap_or_default();
        dist.clear();
        dist.resize(n, u64::MAX);
        let mut pred = self.pred_pool.pop().unwrap_or_default();
        pred.clear();
        pred.resize(n, None);
        (dist, pred)
    }
}

/// Dijkstra from `source` over `topo`, minimising `metric`.
///
/// Runs in `O(m log n)`; zero-weight links are allowed (the Waxman model
/// can draw delay 0). Allocates fresh working memory per call — hot
/// paths (the path providers, [`crate::RoutingTables`]) use
/// [`dijkstra_with`] and a shared [`DijkstraScratch`] instead.
pub fn dijkstra(topo: &Topology, source: NodeId, metric: Metric) -> ShortestPathTree {
    dijkstra_with(topo, source, metric, &mut DijkstraScratch::new())
}

/// [`dijkstra`] with caller-provided working memory. Byte-identical
/// results to the allocating version — the scratch only changes where
/// the intermediate state lives.
pub fn dijkstra_with(
    topo: &Topology,
    source: NodeId,
    metric: Metric,
    scratch: &mut DijkstraScratch,
) -> ShortestPathTree {
    dijkstra_masked(topo, source, metric, scratch, |_, _| true)
}

/// [`dijkstra_with`] over the sub-graph whose half-edges satisfy
/// `usable(half_edge_index, neighbour)` (see
/// [`Topology::half_edge_base`]). Skipping an edge is the same as the
/// edge not existing: neighbour order and the tie-break are untouched,
/// so the result equals a run over a topology rebuilt without the
/// masked links — what lets [`crate::LivePaths`] answer for a degraded
/// domain without copying it.
pub(crate) fn dijkstra_masked(
    topo: &Topology,
    source: NodeId,
    metric: Metric,
    scratch: &mut DijkstraScratch,
    usable: impl Fn(usize, NodeId) -> bool,
) -> ShortestPathTree {
    let n = topo.node_count();
    let (mut dist, mut pred) = scratch.take_bufs(n);
    let done = &mut scratch.done;
    done.clear();
    done.resize(n, false);
    let heap = &mut scratch.heap;
    heap.clear();
    dist[source.index()] = 0;
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if done[v.index()] {
            continue;
        }
        done[v.index()] = true;
        let base = topo.half_edge_base(v);
        for (i, e) in topo.neighbors(v).iter().enumerate() {
            if !usable(base + i, e.to) {
                continue;
            }
            let nd = d + metric.of(e.weight);
            let slot = &mut dist[e.to.index()];
            // Strict improvement, or equal distance via a smaller-id
            // predecessor: keeps tie-breaking deterministic and canonical.
            if nd < *slot
                || (nd == *slot && !done[e.to.index()] && pred[e.to.index()].is_some_and(|p| v < p))
            {
                *slot = nd;
                pred[e.to.index()] = Some(v);
                heap.push(Reverse((nd, e.to)));
            }
        }
    }
    ShortestPathTree {
        source,
        metric,
        dist,
        pred,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkWeight, TopologyBuilder};

    use crate::topology::examples::fig5;

    #[test]
    fn delay_distances_on_fig5() {
        let t = fig5();
        let spt = dijkstra(&t, NodeId(0), Metric::Delay);
        assert_eq!(spt.distance(NodeId(0)), Some(0));
        assert_eq!(spt.distance(NodeId(1)), Some(3));
        assert_eq!(spt.distance(NodeId(2)), Some(4));
        assert_eq!(spt.distance(NodeId(3)), Some(2)); // direct, the paper's ul(g2)
        assert_eq!(spt.distance(NodeId(4)), Some(12)); // 0-1-4, ul(g1)
        assert_eq!(spt.distance(NodeId(5)), Some(11)); // 0-2-5, ul(g3)
    }

    #[test]
    fn cost_distances_differ_from_delay() {
        let t = fig5();
        let by_cost = dijkstra(&t, NodeId(0), Metric::Cost);
        // Least-cost to node 4: 0-1-4 = 6+3 = 9.
        assert_eq!(by_cost.distance(NodeId(4)), Some(9));
        // Least-cost to node 5: 0-2-5 = 5+2 = 7.
        assert_eq!(by_cost.distance(NodeId(5)), Some(7));
        // Node 3: direct (6) ties with 0-2-3 (5+1).
        assert_eq!(by_cost.distance(NodeId(3)), Some(6));
    }

    #[test]
    fn path_reconstruction_follows_links() {
        let t = fig5();
        for metric in [Metric::Delay, Metric::Cost] {
            let spt = dijkstra(&t, NodeId(0), metric);
            for v in t.nodes() {
                let p = spt.path_to(v).expect("connected");
                assert_eq!(p.first().copied(), Some(NodeId(0)));
                assert_eq!(p.last().copied(), Some(v));
                let w = t.path_weight(&p).expect("path follows links");
                assert_eq!(metric.of(w), spt.distance(v).unwrap());
            }
        }
    }

    #[test]
    fn unreachable_nodes_are_none() {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        let t = b.build();
        let spt = dijkstra(&t, NodeId(0), Metric::Delay);
        assert_eq!(spt.distance(NodeId(2)), None);
        assert_eq!(spt.path_to(NodeId(2)), None);
        assert_eq!(spt.predecessor(NodeId(2)), None);
    }

    #[test]
    fn source_path_is_singleton() {
        let t = fig5();
        let spt = dijkstra(&t, NodeId(3), Metric::Cost);
        assert_eq!(spt.path_to(NodeId(3)), Some(vec![NodeId(3)]));
        assert_eq!(spt.source(), NodeId(3));
        assert_eq!(spt.metric(), Metric::Cost);
    }

    #[test]
    fn zero_weight_links_supported() {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(0, 0));
        b.add_link(NodeId(1), NodeId(2), LinkWeight::new(0, 5));
        let t = b.build();
        let spt = dijkstra(&t, NodeId(0), Metric::Delay);
        assert_eq!(spt.distance(NodeId(2)), Some(0));
    }

    #[test]
    fn deterministic_tie_break_prefers_small_predecessor() {
        // Two equal-delay paths to node 3: via 1 and via 2.
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        b.add_link(NodeId(0), NodeId(2), LinkWeight::new(1, 1));
        b.add_link(NodeId(1), NodeId(3), LinkWeight::new(1, 1));
        b.add_link(NodeId(2), NodeId(3), LinkWeight::new(1, 1));
        let t = b.build();
        let spt = dijkstra(&t, NodeId(0), Metric::Delay);
        assert_eq!(spt.predecessor(NodeId(3)), Some(NodeId(1)));
    }
}
