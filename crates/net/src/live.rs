//! The live path view: one answer to "what does the domain's IGP know
//! right now?" for every layer that asks.
//!
//! The paper gives every domain a link-state IGP (§II-D) and an m-router
//! that holds the link-state database and plans over `P_sl`/`P_lc`
//! tables computed from it (§III-D). [`LivePaths`] is that database in
//! the simulator — the one path store of an engine: the static
//! [`Topology`], a liveness mask over its nodes and links, and a
//! **liveness epoch** that counts the mask's changes. Unicast
//! forwarding, the baselines' RPF lookups and SPTs, and the m-router's
//! join planning and repair scan all query this one value.
//!
//! * **A healthy domain reads one healthy store.** While the mask is
//!   empty, [`PathProvider::tree`] answers from a store built in
//!   [`LivePaths::new`] and chosen by [`crate::provider::ALL_PAIRS_MAX_NODES`]: eager
//!   [`crate::AllPairsPaths`] at paper scale (no lock, no hash — an
//!   index), a bounded [`crate::OnDemandPaths`] sharing the view's
//!   topology above.
//!   [`LivePaths::healthy`] hands that store out for readers that must
//!   ignore faults.
//! * **A fault is O(1).** [`LivePaths::set_link_down`] /
//!   [`LivePaths::set_node_down`] flip the mask, bump the epoch and drop
//!   the per-epoch trees. Nothing is recomputed until somebody asks.
//! * **Degraded trees are lazy, per root and metric, per epoch.**
//!   A query runs one Dijkstra over the masked CSR graph (no topology
//!   copy) and memoizes the tree in a bounded LRU until the next epoch;
//!   the moment the last fault heals, the healthy store answers again.
//!   A stopped search ([`PathProvider::tree_until`]) runs over the same
//!   masked graph and is never memoized.
//! * **Routes are destination-rooted.** `src → dst` follows the
//!   shortest-delay tree rooted at **`dst`** — loop-free hop by hop
//!   under equal-cost ties — in both states, so a route equals what
//!   [`crate::RoutingTables::compute_dense`] over the surviving topology
//!   would hold, bit for bit.

use crate::dijkstra::{dijkstra_masked, DijkstraScratch, Metric, Settled, ShortestPathTree};
use crate::graph::{NodeId, Topology};
use crate::provider::{provider_over, PathProvider, TreeCache, DEFAULT_TREE_CAPACITY};
use std::fmt;
use std::sync::{Arc, Mutex};

/// The static topology, its liveness mask and epoch, and the paths over
/// whatever is currently alive. See the [module docs](self).
pub struct LivePaths {
    topo: Arc<Topology>,
    /// Trees of the fault-free domain (see [`LivePaths::healthy`]).
    healthy: Box<dyn PathProvider>,
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
    /// A fully-up view of `topo`. Builds the healthy store as
    /// [`crate::provider_for`] would, over the view's own topology:
    /// all-pairs tables (2n Dijkstra runs) at paper scale, an empty
    /// on-demand cache above.
    pub fn new(topo: Topology) -> Self {
        let topo = Arc::new(topo);
        LivePaths {
            healthy: provider_over(Arc::clone(&topo)),
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

    /// The fault-free domain's paths, whatever the mask: what the IGP
    /// computed before anything failed. [`PathProvider::tree`] answers
    /// from it while nothing is down.
    pub fn healthy(&self) -> &dyn PathProvider {
        &*self.healthy
    }

    /// Shortest-path trees computed over a non-empty mask so far, full
    /// or stopped (the healthy store's trees are not counted).
    pub fn spf_runs(&self) -> u64 {
        self.trees.lock().expect("live view lock").stats().misses
    }

    /// Nodes those runs settled. The healthy store counts its own: an
    /// [`crate::OnDemandPaths`] in [`crate::CacheStats::settled`], and
    /// the eager tables settle everything once, when built.
    pub fn settled(&self) -> u64 {
        self.trees.lock().expect("live view lock").stats().settled
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
        if src == dst {
            return None;
        }
        self.tree(dst, Metric::Delay).predecessor(src)
    }

    /// The full hop-by-hop route `src -> … -> dst` over what is alive.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        // The tree path dst -> … -> src, walked backwards (links are
        // symmetric).
        let mut route = self.tree(dst, Metric::Delay).path_to(src)?;
        route.reverse();
        Some(route)
    }

    /// One run over the live sub-graph (see [`PathProvider::tree`]).
    fn masked(
        &self,
        root: NodeId,
        metric: Metric,
        scratch: &mut DijkstraScratch,
        stop: impl FnMut(NodeId, &Settled<'_>) -> bool,
    ) -> ShortestPathTree {
        let root_up = self.node_up(root);
        let usable =
            |edge: usize, to: NodeId| root_up && !self.cut[edge] && !self.node_down[to.index()];
        dijkstra_masked(&self.topo, root, metric, scratch, usable, stop)
    }
}

impl PathProvider for LivePaths {
    fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// The tree over the live sub-graph: links that are not cut between
    /// routers that are up. A down root reaches only itself.
    fn tree(&self, root: NodeId, metric: Metric) -> Arc<ShortestPathTree> {
        if !self.degraded() {
            return self.healthy.tree(root, metric);
        }
        self.trees
            .lock()
            .expect("live view lock")
            .get_or_run(root, metric, |scratch| {
                self.masked(root, metric, scratch, |_, _| false)
            })
    }

    /// [`PathProvider::tree`]'s sub-graph, searched only until `stop`.
    fn tree_until(
        &self,
        root: NodeId,
        metric: Metric,
        stop: &mut dyn FnMut(NodeId, &Settled<'_>) -> bool,
    ) -> Arc<ShortestPathTree> {
        if !self.degraded() {
            return self.healthy.tree_until(root, metric, stop);
        }
        self.trees
            .lock()
            .expect("live view lock")
            .get_or_search(root, metric, |scratch| {
                self.masked(root, metric, scratch, stop)
            })
    }

    fn resident_path_bytes(&self) -> usize {
        self.healthy.resident_path_bytes()
            + self.trees.lock().expect("live view lock").resident_bytes()
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
        assert_eq!(v.spf_runs(), 1, "healed: the healthy store answers");
    }

    #[test]
    fn healthy_routes_are_destination_rooted() {
        let v = LivePaths::new(fig5());
        // From g1 (node 4) toward the m-router (node 0): 4-1-0.
        assert_eq!(v.next_hop(NodeId(4), A), Some(B));
        assert_eq!(v.route(NodeId(4), A), Some(vec![NodeId(4), B, A]));
        assert_eq!(v.next_hop(A, A), None);
        assert_eq!(v.route(A, A), Some(vec![A]));
        let healthy = v.healthy().tree(A, Metric::Delay);
        assert!(Arc::ptr_eq(&v.tree(A, Metric::Delay), &healthy));
        assert_eq!(v.spf_runs(), 0, "the healthy store is not an SPF run");
    }

    #[test]
    fn healthy_state_above_the_all_pairs_threshold_is_bounded() {
        // Past ALL_PAIRS_MAX_NODES the healthy store is an on-demand
        // cache: routing to every destination keeps at most
        // DEFAULT_TREE_CAPACITY trees resident, not one row per node.
        let n = 1_100;
        let v = LivePaths::new(crate::topology::ring(n, LinkWeight::new(1, 1)));
        for dst in v.topo().nodes() {
            let route = v.route(A, dst).expect("a ring is connected");
            assert_eq!(route.len(), dst.index().min(n - dst.index()) + 1);
            assert_eq!(v.next_hop(A, dst), route.get(1).copied());
        }
        let per_tree = v.healthy().tree(A, Metric::Delay).resident_bytes();
        assert!(v.resident_path_bytes() <= DEFAULT_TREE_CAPACITY * per_tree);
        assert_eq!(v.spf_runs(), 0);
    }

    /// Stopped searches honour the mask in a degraded view and reach the
    /// healthy on-demand store in a healthy one; neither is cached, and
    /// the view counts only the masked one.
    #[test]
    fn stopped_searches_are_masked_and_never_cached() {
        let n = 1_100;
        let mut v = LivePaths::new(crate::topology::ring(n, LinkWeight::new(1, 1)));
        let far = NodeId(5);
        let mut upto_far = |x: NodeId, _: &Settled<'_>| x == far;
        let near = v.tree_until(A, Metric::Delay, &mut upto_far);
        assert_eq!(near.distance(far), Some(5));
        assert_eq!(near.distance(NodeId(500)), None, "stopped, not settled");
        assert_eq!(
            (v.spf_runs(), v.settled(), v.resident_path_bytes()),
            (0, 0, 0)
        );

        v.set_link_down(NodeId(2), NodeId(3), true);
        let near = v.tree_until(A, Metric::Delay, &mut upto_far);
        // The ring's short side is cut: 0 reaches 5 the long way round.
        assert_eq!(near.distance(far), Some(n as u64 - 5));
        assert_eq!(near.predecessor(far), Some(NodeId(6)));
        assert_eq!(near.distance(NodeId(3)), None, "past the stop");
        assert_eq!(v.spf_runs(), 1);
        assert_eq!(v.settled(), n as u64 - 2, "every node but 3 and 4");
        assert_eq!(v.resident_path_bytes(), 0);
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
