//! The live path view: one answer to "what does the domain's IGP know
//! right now?" for every layer that asks.
//!
//! The paper gives every domain a link-state IGP (§II-D) and an m-router
//! that holds the link-state database (§III-D). [`LivePaths`] is that
//! database in the simulator: the static [`Topology`], a liveness mask
//! over its nodes and links, and a **liveness epoch** that counts the
//! mask's changes. Unicast forwarding, the baselines' RPF lookups, the
//! m-router's repair scan and its join planning while degraded all query
//! this one value.
//!
//! * **A fault is O(1).** [`LivePaths::set_link_down`] /
//!   [`LivePaths::set_node_down`] flip the mask, bump the epoch and drop
//!   the per-epoch trees. Nothing is recomputed until somebody asks.
//! * **Shortest-path trees are lazy, per root and metric, per epoch.**
//!   A query runs one Dijkstra over the masked CSR graph (no topology
//!   copy) and memoizes the tree in a bounded LRU until the next epoch.
//! * **Routes are destination-rooted.** `src → dst` follows the
//!   shortest-delay tree rooted at **`dst`** — the rule of
//!   [`RoutingTables`], loop-free hop by hop under equal-cost ties — so a
//!   degraded route equals what dense tables rebuilt over the surviving
//!   topology would hold, bit for bit.
//! * **A healthy domain answers from construction-time state.** While
//!   the mask is empty, [`LivePaths::next_hop`] and [`LivePaths::route`]
//!   read the [`RoutingTables`] built in [`LivePaths::new`] — no lock, no
//!   hash — and do so again the moment the last fault heals. The tables
//!   are built eagerly on purpose: making them lazy would move their cost
//!   into the first join of every freshly built small-domain engine.

use crate::dijkstra::{dijkstra_masked, Metric, ShortestPathTree};
use crate::graph::{NodeId, Topology};
use crate::provider::{PathProvider, TreeCache, DEFAULT_TREE_CAPACITY};
use crate::routing::RoutingTables;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The static topology, its liveness mask and epoch, and the paths over
/// whatever is currently alive. See the [module docs](self).
pub struct LivePaths {
    topo: Topology,
    /// Next hops of the fault-free domain, built at construction.
    healthy: RoutingTables,
    node_down: Vec<bool>,
    down_nodes: usize,
    /// Per CSR half-edge: is the link administratively cut? Both
    /// directions of a link are always set together.
    cut: Vec<bool>,
    cut_links: usize,
    epoch: u64,
    /// Trees over the current mask, forgotten on every epoch bump.
    trees: Mutex<TreeCache>,
}

impl fmt::Debug for LivePaths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LivePaths")
            .field("nodes", &self.topo.node_count())
            .field("epoch", &self.epoch)
            .field("down_nodes", &self.down_nodes)
            .field("cut_links", &self.cut_links)
            .finish()
    }
}

impl LivePaths {
    /// A fully-up view of `topo`. Builds the healthy next-hop tables
    /// (eagerly up to [`crate::routing::DENSE_MAX_NODES`] nodes).
    pub fn new(topo: Topology) -> Self {
        LivePaths {
            healthy: RoutingTables::compute(&topo),
            node_down: vec![false; topo.node_count()],
            down_nodes: 0,
            cut: vec![false; 2 * topo.edge_count()],
            cut_links: 0,
            epoch: 0,
            trees: Mutex::new(TreeCache::new(DEFAULT_TREE_CAPACITY)),
            topo,
        }
    }

    /// The static topology (faults never change it).
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Number of liveness changes so far. Anything derived from the view
    /// is valid exactly as long as the epoch it was derived at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Shortest-path trees computed on demand so far (construction-time
    /// tables not counted).
    pub fn spf_runs(&self) -> u64 {
        self.trees.lock().expect("live view lock").stats().misses
    }

    /// True while any node or link is out of service.
    pub fn degraded(&self) -> bool {
        self.down_nodes > 0 || self.cut_links > 0
    }

    /// Is router `v` currently in service?
    pub fn node_up(&self, v: NodeId) -> bool {
        !self.node_down[v.index()]
    }

    /// Is the link itself cut (ignoring endpoint liveness)? `false`
    /// for a pair the topology does not link.
    pub fn link_cut(&self, a: NodeId, b: NodeId) -> bool {
        self.cut_links > 0 && self.topo.half_edge(a, b).is_some_and(|e| self.cut[e])
    }

    /// Is the link `a`–`b` (and both endpoints) currently usable?
    pub fn link_alive(&self, a: NodeId, b: NodeId) -> bool {
        !self.degraded() || (self.node_up(a) && self.node_up(b) && !self.link_cut(a, b))
    }

    /// Number of links currently cut.
    pub fn down_link_count(&self) -> usize {
        self.cut_links
    }

    /// Number of routers currently down.
    pub fn down_node_count(&self) -> usize {
        self.down_nodes
    }

    fn half_edge(&self, a: NodeId, b: NodeId) -> usize {
        self.topo
            .half_edge(a, b)
            .unwrap_or_else(|| panic!("no such link {a:?}-{b:?}"))
    }

    /// A liveness change happened: everything derived from the old mask
    /// is stale.
    fn bump(&mut self) {
        self.epoch += 1;
        self.trees.get_mut().expect("live view lock").clear();
    }

    /// Mark a node up/down. A no-op (and no epoch) when it already is.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        let cur = &mut self.node_down[node.index()];
        if *cur == down {
            return;
        }
        *cur = down;
        if down {
            self.down_nodes += 1;
        } else {
            self.down_nodes -= 1;
        }
        self.bump();
    }

    /// Cut or restore a link (both directions; endpoint order
    /// irrelevant). A no-op (and no epoch) when it already is.
    ///
    /// # Panics
    /// If the topology has no link `a`–`b`.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId, down: bool) {
        let (ab, ba) = (self.half_edge(a, b), self.half_edge(b, a));
        if self.cut[ab] == down {
            return;
        }
        self.cut[ab] = down;
        self.cut[ba] = down;
        if down {
            self.cut_links += 1;
        } else {
            self.cut_links -= 1;
        }
        self.bump();
    }

    /// Next hop on the unicast route from `src` to `dst` over what is
    /// alive. `None` when `src == dst` or `dst` is unreachable.
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if !self.degraded() {
            return self.healthy.next_hop(src, dst);
        }
        if src == dst {
            return None;
        }
        self.tree(dst, Metric::Delay).predecessor(src)
    }

    /// The full hop-by-hop route `src -> … -> dst` over what is alive.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if !self.degraded() {
            return self.healthy.route(src, dst);
        }
        // The tree path dst -> … -> src, walked backwards (links are
        // symmetric).
        let mut route = self.tree(dst, Metric::Delay).path_to(src)?;
        route.reverse();
        Some(route)
    }
}

impl PathProvider for LivePaths {
    fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// The tree over the live sub-graph: links that are not cut between
    /// routers that are up. A down root reaches only itself.
    fn tree(&self, root: NodeId, metric: Metric) -> Arc<ShortestPathTree> {
        let root_up = self.node_up(root);
        self.trees
            .lock()
            .expect("live view lock")
            .get_or_run(root, metric, |scratch| {
                dijkstra_masked(&self.topo, root, metric, scratch, |edge, to| {
                    root_up && !self.cut[edge] && !self.node_down[to.index()]
                })
            })
    }

    fn invalidate(&self) {
        self.trees.lock().expect("live view lock").clear();
    }

    fn resident_path_bytes(&self) -> usize {
        self.healthy.resident_bytes() + self.trees.lock().expect("live view lock").resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::graph::{LinkWeight, TopologyBuilder};
    use crate::topology::examples::fig5;

    const A: NodeId = NodeId(0);
    const B: NodeId = NodeId(1);

    #[test]
    fn liveness_bookkeeping() {
        let mut v = LivePaths::new(fig5());
        assert!(v.link_alive(A, B));
        assert!(!v.degraded());
        v.set_link_down(B, A, true); // endpoint order must not matter
        assert!(v.link_cut(A, B));
        assert!(!v.link_alive(A, B));
        assert!(v.degraded());
        assert_eq!(v.down_link_count(), 1);
        v.set_link_down(A, B, false);
        assert!(!v.degraded());
        v.set_node_down(NodeId(2), true);
        v.set_node_down(NodeId(2), true); // idempotent: counted once
        assert!(v.degraded());
        assert_eq!(v.down_node_count(), 1);
        assert!(!v.node_up(NodeId(2)));
        assert!(!v.link_alive(NodeId(0), NodeId(2)), "dead endpoint");
        assert!(!v.link_cut(NodeId(0), NodeId(2)), "the link itself is fine");
        v.set_node_down(NodeId(2), false);
        assert!(!v.degraded());
    }

    #[test]
    fn epoch_counts_changes_not_calls() {
        let mut v = LivePaths::new(fig5());
        assert_eq!(v.epoch(), 0);
        v.set_link_down(A, B, true);
        v.set_link_down(A, B, true);
        assert_eq!(v.epoch(), 1);
        v.set_link_down(A, B, false);
        v.set_node_down(NodeId(3), false);
        assert_eq!(v.epoch(), 2);
    }

    #[test]
    fn trees_are_lazy_cached_per_epoch_and_masked() {
        let topo = fig5();
        let mut v = LivePaths::new(topo.clone());
        assert_eq!(v.spf_runs(), 0, "a fault computes nothing");
        v.set_link_down(A, B, true);
        assert_eq!(v.spf_runs(), 0);
        let surviving = topo.subtopology(|_| true, |a, b| (a, b) != (A, B));
        let t = v.tree(A, Metric::Delay);
        let want = dijkstra(&surviving, A, Metric::Delay);
        for x in topo.nodes() {
            assert_eq!(t.distance(x), want.distance(x));
            assert_eq!(t.predecessor(x), want.predecessor(x));
        }
        v.tree(A, Metric::Delay);
        v.route(NodeId(4), A);
        assert_eq!(v.spf_runs(), 1, "same root, same epoch: one run");
        v.set_link_down(A, B, false);
        assert_eq!(v.route(NodeId(4), A), Some(vec![NodeId(4), B, A]));
        assert_eq!(v.spf_runs(), 1, "healed: the construction-time tables");
    }

    #[test]
    fn down_root_reaches_only_itself() {
        let mut v = LivePaths::new(fig5());
        v.set_node_down(B, true);
        let t = v.tree(B, Metric::Cost);
        assert_eq!(t.distance(B), Some(0));
        assert_eq!(t.distance(A), None);
        assert_eq!(v.route(A, B), None);
        assert_eq!(v.route(B, B), Some(vec![B]));
        assert_eq!(v.next_hop(B, B), None);
    }

    #[test]
    #[should_panic(expected = "no such link")]
    fn cutting_a_missing_link_panics() {
        let mut b = TopologyBuilder::new(3);
        b.add_link(A, B, LinkWeight::new(1, 1));
        LivePaths::new(b.build()).set_link_down(A, NodeId(2), true);
    }
}
