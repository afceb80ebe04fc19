//! Undirected weighted topology model.
//!
//! Routers are identified by dense [`NodeId`]s; links are undirected and
//! symmetric, carrying the paper's two parameters per link: *delay* and
//! *cost* (§III-A). Delay feeds end-to-end latency accounting; cost feeds
//! the data/protocol overhead metrics of §IV-B ("a packet going through
//! one link contributes `lc` units to the overhead").

use crate::dijkstra::Metric;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Identifier of a router (node) in the topology. Dense, `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// The `(delay, cost)` pair attached to every link.
///
/// Both are unsigned integers: in the paper's Waxman experiments the cost
/// is a Manhattan distance on a 32767×32767 grid and the delay a uniform
/// integer in `[0, cost]`, so `u64` path sums never overflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkWeight {
    /// Perceived queueing + transmission + propagation delay of the link.
    pub delay: u64,
    /// Utilization-derived cost of using the link.
    pub cost: u64,
}

impl LinkWeight {
    /// Convenience constructor.
    #[inline]
    pub const fn new(delay: u64, cost: u64) -> Self {
        LinkWeight { delay, cost }
    }
}

/// A half-edge as stored in the adjacency list: the neighbour plus the
/// link weight (identical in both directions — links are symmetric).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeRef {
    /// Neighbour on the other end of the link.
    pub to: NodeId,
    /// Link weight (same for both directions).
    pub weight: LinkWeight,
}

/// An undirected network topology with symmetric `(delay, cost)` links.
///
/// The structure is immutable once built (via [`TopologyBuilder`]); all
/// algorithms in the workspace treat it as read-only shared state, which
/// lets the benchmark harness fan seeds out across threads without locks.
///
/// Adjacency is stored in CSR (compressed sparse row) form — one flat
/// offset array plus one flat half-edge array — instead of a `Vec` per
/// node. At the paper's 50-node scale the difference is noise; at the
/// 10k-node scenarios of the `scale` bench it removes `n` separate heap
/// allocations and their per-`Vec` capacity overhead, and keeps each
/// node's neighbour slice contiguous for the Dijkstra scans that
/// dominate the path layer.
#[derive(Clone, Debug)]
pub struct Topology {
    /// CSR offsets: node `v`'s half-edges live at
    /// `adj_edges[adj_off[v] .. adj_off[v + 1]]`. Length `n + 1`.
    adj_off: Vec<u32>,
    /// CSR half-edge array, sorted by neighbour id within each node.
    adj_edges: Vec<EdgeRef>,
    /// Canonical edge list with `a < b`, in insertion order.
    edges: Vec<(NodeId, NodeId, LinkWeight)>,
    /// Optional planar coordinates (set by the Waxman / GT-ITM generators,
    /// used by the placement heuristics and for reporting).
    coords: Option<Vec<(i64, i64)>>,
    /// Upper bound on the delay and on the cost of any simple path —
    /// what lets Dijkstra pack its heap keys into a `u64`. Derived from
    /// `edges`, so it is not part of the serialized form.
    path_bound: LinkWeight,
}

/// `min(Σ w, (n − 1) · max w)` over the links' `metric` weights,
/// saturating: a simple path uses each link at most once and at most
/// `n − 1` of them, so no simple path weighs more.
fn simple_path_bound(n: usize, edges: &[(NodeId, NodeId, LinkWeight)], metric: Metric) -> u64 {
    let (sum, max) = edges.iter().fold((0u64, 0u64), |(sum, max), &(_, _, w)| {
        let w = metric.of(w);
        (sum.saturating_add(w), max.max(w))
    });
    sum.min(max.saturating_mul(n.saturating_sub(1) as u64))
}

impl Topology {
    fn from_parts(
        adj_off: Vec<u32>,
        adj_edges: Vec<EdgeRef>,
        edges: Vec<(NodeId, NodeId, LinkWeight)>,
        coords: Option<Vec<(i64, i64)>>,
    ) -> Topology {
        let n = adj_off.len().saturating_sub(1);
        let path_bound = LinkWeight::new(
            simple_path_bound(n, &edges, Metric::Delay),
            simple_path_bound(n, &edges, Metric::Cost),
        );
        Topology {
            adj_off,
            adj_edges,
            edges,
            coords,
            path_bound,
        }
    }

    /// No simple path's delay exceeds `.delay` and no simple path's cost
    /// exceeds `.cost`, so neither does any shortest path — over this
    /// topology or over any sub-graph of it.
    #[inline]
    pub(crate) fn path_bound(&self) -> LinkWeight {
        self.path_bound
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj_off.len() - 1
    }

    /// Number of undirected links.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids, `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Neighbours (with weights) of `node`, sorted by neighbour id.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[EdgeRef] {
        let lo = self.adj_off[node.index()] as usize;
        let hi = self.adj_off[node.index() + 1] as usize;
        &self.adj_edges[lo..hi]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        (self.adj_off[node.index() + 1] - self.adj_off[node.index()]) as usize
    }

    /// Average node degree `2m / n`.
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            return 0.0;
        }
        2.0 * self.edges.len() as f64 / self.node_count() as f64
    }

    /// Approximate heap footprint of the topology itself (CSR arrays,
    /// edge list, coordinates) — the denominator of the `scale` bench's
    /// path-state accounting.
    pub fn resident_bytes(&self) -> usize {
        self.adj_off.len() * std::mem::size_of::<u32>()
            + self.adj_edges.len() * std::mem::size_of::<EdgeRef>()
            + self.edges.len() * std::mem::size_of::<(NodeId, NodeId, LinkWeight)>()
            + self
                .coords
                .as_ref()
                .map_or(0, |c| c.len() * std::mem::size_of::<(i64, i64)>())
    }

    /// Canonical undirected edge list (`a < b`).
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId, LinkWeight)] {
        &self.edges
    }

    /// Weight of the link `a—b`, if the link exists. Binary search over
    /// the sorted neighbour slice — `O(log deg)`.
    pub fn link(&self, a: NodeId, b: NodeId) -> Option<LinkWeight> {
        self.half_edge(a, b).map(|i| self.adj_edges[i].weight)
    }

    /// Position of `node`'s first half-edge in the CSR array:
    /// `neighbors(node)[i]` is half-edge `half_edge_base(node) + i`.
    /// Per-link state (the live view's cut mask) is indexed by it.
    #[inline]
    pub fn half_edge_base(&self, node: NodeId) -> usize {
        self.adj_off[node.index()] as usize
    }

    /// CSR index of the half-edge `a → b`, if the link exists
    /// (`O(log deg)`). The reverse direction is a different index.
    pub fn half_edge(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.neighbors(a)
            .binary_search_by_key(&b, |e| e.to)
            .ok()
            .map(|i| self.half_edge_base(a) + i)
    }

    /// True iff nodes `a` and `b` are directly linked.
    #[inline]
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.link(a, b).is_some()
    }

    /// Planar coordinates of `node` if the generator recorded them.
    pub fn coords(&self, node: NodeId) -> Option<(i64, i64)> {
        self.coords.as_ref().map(|c| c[node.index()])
    }

    /// True iff every node can reach every other node.
    ///
    /// All generators in [`crate::topology`] guarantee connectivity (they
    /// augment disconnected samples), and the protocols assume it; this is
    /// the invariant checked by the property tests.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for e in self.neighbors(v) {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    count += 1;
                    stack.push(e.to);
                }
            }
        }
        count == n
    }

    /// Total delay and cost of a node path, or `None` if the path does not
    /// follow existing links.
    pub fn path_weight(&self, path: &[NodeId]) -> Option<LinkWeight> {
        let mut total = LinkWeight::new(0, 0);
        for pair in path.windows(2) {
            let w = self.link(pair[0], pair[1])?;
            total.delay += w.delay;
            total.cost += w.cost;
        }
        Some(total)
    }

    /// A copy of this topology with every link of `node` removed (the
    /// node id itself stays, isolated). Used by the hot-standby
    /// m-router to plan trees around the failed primary.
    pub fn without_node(&self, node: NodeId) -> Topology {
        let mut b = TopologyBuilder::new(self.node_count());
        if let Some(coords) = &self.coords {
            b = b.with_coords(coords.clone());
        }
        for &(a, bb, w) in &self.edges {
            if a != node && bb != node {
                b.add_link(a, bb, w);
            }
        }
        b.build()
    }

    /// A copy of this topology keeping only links whose endpoints both
    /// satisfy `keep_node` and which themselves satisfy `keep_link`.
    /// Node ids are preserved (excluded nodes stay, isolated), so
    /// routing state indexed by [`NodeId`] keeps working. This is the
    /// "surviving topology" of a failure-injection experiment spelled
    /// out as a graph — the simulator itself never copies one
    /// ([`crate::LivePaths`] masks the static graph); the tests rebuild
    /// it to check the masked answers against.
    pub fn subtopology(
        &self,
        mut keep_node: impl FnMut(NodeId) -> bool,
        mut keep_link: impl FnMut(NodeId, NodeId) -> bool,
    ) -> Topology {
        let mut b = TopologyBuilder::new(self.node_count());
        if let Some(coords) = &self.coords {
            b = b.with_coords(coords.clone());
        }
        for &(a, bb, w) in &self.edges {
            if keep_node(a) && keep_node(bb) && keep_link(a, bb) {
                b.add_link(a, bb, w);
            }
        }
        b.build()
    }

    /// Connected components, each a sorted list of nodes. Used by the
    /// generators to augment disconnected samples.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![NodeId(start as u32)];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                comp.push(v);
                for e in self.neighbors(v) {
                    if !seen[e.to.index()] {
                        seen[e.to.index()] = true;
                        stack.push(e.to);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }
}

/// Builder for [`Topology`]. Rejects self-loops and duplicate links.
#[derive(Clone, Debug, Default)]
pub struct TopologyBuilder {
    adj: Vec<Vec<EdgeRef>>,
    edges: Vec<(NodeId, NodeId, LinkWeight)>,
    coords: Option<Vec<(i64, i64)>>,
}

impl TopologyBuilder {
    /// Start a builder with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        TopologyBuilder {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            coords: None,
        }
    }

    /// Attach planar coordinates (one per node) for placement heuristics.
    ///
    /// # Panics
    /// If `coords.len()` differs from the node count.
    pub fn with_coords(mut self, coords: Vec<(i64, i64)>) -> Self {
        assert_eq!(coords.len(), self.adj.len(), "one coordinate per node");
        self.coords = Some(coords);
        self
    }

    /// Number of nodes the builder was created with.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// True iff the link `a—b` has already been added.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adj[a.index()].iter().any(|e| e.to == b)
    }

    /// Add the undirected link `a—b` with weight `w`.
    ///
    /// # Panics
    /// On self-loops, out-of-range endpoints, or duplicate links.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, w: LinkWeight) -> &mut Self {
        assert_ne!(a, b, "self-loop {a:?}");
        assert!(a.index() < self.adj.len(), "node {a:?} out of range");
        assert!(b.index() < self.adj.len(), "node {b:?} out of range");
        assert!(!self.has_link(a, b), "duplicate link {a:?}-{b:?}");
        self.adj[a.index()].push(EdgeRef { to: b, weight: w });
        self.adj[b.index()].push(EdgeRef { to: a, weight: w });
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.edges.push((lo, hi, w));
        self
    }

    /// Finish building. Adjacency lists are sorted by neighbour id so that
    /// every algorithm downstream is deterministic regardless of insertion
    /// order, then flattened into the CSR arrays.
    pub fn build(mut self) -> Topology {
        let mut adj_off = Vec::with_capacity(self.adj.len() + 1);
        let mut adj_edges = Vec::with_capacity(2 * self.edges.len());
        adj_off.push(0u32);
        for l in &mut self.adj {
            l.sort_unstable_by_key(|e| e.to);
            adj_edges.extend_from_slice(l);
            adj_off.push(adj_edges.len() as u32);
        }
        self.edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        Topology::from_parts(adj_off, adj_edges, self.edges, self.coords)
    }
}

// The serialized form is the four stored arrays, exactly as a derive
// over them would write it; `path_bound` is recomputed on load.
impl Serialize for Topology {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("adj_off".to_string(), self.adj_off.to_json_value()),
            ("adj_edges".to_string(), self.adj_edges.to_json_value()),
            ("edges".to_string(), self.edges.to_json_value()),
            ("coords".to_string(), self.coords.to_json_value()),
        ])
    }
}

impl Deserialize for Topology {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| format!("Topology: expected object, got {}", v.kind_name()))?;
        fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, String> {
            match obj.iter().find(|(k, _)| k == name) {
                Some((_, fv)) => {
                    T::from_json_value(fv).map_err(|e| format!("Topology.{name}: {e}"))
                }
                None => {
                    T::from_json_missing().map_err(|_| format!("Topology: missing field `{name}`"))
                }
            }
        }
        Ok(Topology::from_parts(
            field(obj, "adj_off")?,
            field(obj, "adj_edges")?,
            field(obj, "edges")?,
            field(obj, "coords")?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 10));
        b.add_link(NodeId(1), NodeId(2), LinkWeight::new(2, 20));
        b.add_link(NodeId(2), NodeId(0), LinkWeight::new(3, 30));
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let t = triangle();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.degree(NodeId(0)), 2);
        assert!((t.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn links_are_symmetric() {
        let t = triangle();
        assert_eq!(t.link(NodeId(0), NodeId(1)), t.link(NodeId(1), NodeId(0)));
        assert_eq!(t.link(NodeId(0), NodeId(1)), Some(LinkWeight::new(1, 10)));
        assert_eq!(t.link(NodeId(0), NodeId(2)), Some(LinkWeight::new(3, 30)));
    }

    #[test]
    fn missing_link_is_none() {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        let t = b.build();
        assert_eq!(t.link(NodeId(0), NodeId(2)), None);
        assert!(!t.has_link(NodeId(1), NodeId(2)));
    }

    #[test]
    fn path_weight_sums_links() {
        let t = triangle();
        let w = t.path_weight(&[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        assert_eq!(w, LinkWeight::new(3, 30));
        // Non-adjacent hop in path => None.
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        let t2 = b.build();
        assert_eq!(t2.path_weight(&[NodeId(0), NodeId(1), NodeId(3)]), None);
    }

    #[test]
    fn empty_path_has_zero_weight() {
        let t = triangle();
        assert_eq!(t.path_weight(&[NodeId(1)]), Some(LinkWeight::new(0, 0)));
        assert_eq!(t.path_weight(&[]), Some(LinkWeight::new(0, 0)));
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        let b = TopologyBuilder::new(2);
        assert!(!b.build().is_connected());
        assert!(TopologyBuilder::new(0).build().is_connected());
        assert!(TopologyBuilder::new(1).build().is_connected());
    }

    #[test]
    fn components_split() {
        let mut b = TopologyBuilder::new(5);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        b.add_link(NodeId(2), NodeId(3), LinkWeight::new(1, 1));
        let t = b.build();
        let comps = t.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3)]);
        assert_eq!(comps[2], vec![NodeId(4)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new(2);
        b.add_link(NodeId(0), NodeId(0), LinkWeight::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn rejects_duplicate_links() {
        let mut b = TopologyBuilder::new(2);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        b.add_link(NodeId(1), NodeId(0), LinkWeight::new(2, 2));
    }

    #[test]
    fn adjacency_sorted_after_build() {
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(3), LinkWeight::new(1, 1));
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        b.add_link(NodeId(0), NodeId(2), LinkWeight::new(1, 1));
        let t = b.build();
        let ns: Vec<_> = t.neighbors(NodeId(0)).iter().map(|e| e.to).collect();
        assert_eq!(ns, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn without_node_drops_its_links() {
        let t = triangle().without_node(NodeId(1));
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 1);
        assert!(t.has_link(NodeId(0), NodeId(2)));
        assert_eq!(t.degree(NodeId(1)), 0);
    }

    #[test]
    fn serialized_form_is_the_stored_arrays_only() {
        let t = triangle();
        let json = t.to_json_value();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["adj_off", "adj_edges", "edges", "coords"]);
        let back = Topology::from_json_value(&json).unwrap();
        assert_eq!(back.edges(), t.edges());
        assert_eq!(
            back.path_bound(),
            LinkWeight::new(6, 60),
            "recomputed on load"
        );
        let err = Topology::from_json_value(&Value::Object(vec![])).unwrap_err();
        assert_eq!(err, "Topology: missing field `adj_off`");
    }

    #[test]
    fn coords_roundtrip() {
        let mut b = TopologyBuilder::new(2).with_coords(vec![(0, 0), (3, 4)]);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 7));
        let t = b.build();
        assert_eq!(t.coords(NodeId(1)), Some((3, 4)));
        assert_eq!(triangle().coords(NodeId(0)), None);
    }
}
