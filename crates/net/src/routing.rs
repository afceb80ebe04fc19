//! Unicast next-hop routing tables.
//!
//! The paper assumes every domain "also runs a unicast routing protocol"
//! (link-state, §II-D); SCMP and the baselines use it to carry JOIN
//! messages to the m-router/core and to tunnel data packets from off-tree
//! sources. This module materialises those tables.
//!
//! Implementation note: the next hop from `src` toward `dst` is derived
//! from the shortest-delay tree rooted at **`dst`** (links are symmetric,
//! so the reversed tree path is a shortest `src → dst` path). Hop-by-hop
//! forwarding then walks a single predecessor chain of one tree, which is
//! loop-free *by construction* even in the presence of zero-delay links
//! and equal-cost ties — unlike stitching together per-source trees.
//!
//! Tables describe one fixed topology. The simulator's notion of "the
//! IGP right now" is [`crate::LivePaths`], which holds one of these for
//! the fault-free domain and answers from per-epoch trees (same
//! destination-rooted rule) while anything is down; nothing rebuilds a
//! table when a link fails. [`RoutingTables::compute_dense`] over a
//! surviving topology is the oracle the view's degraded answers are
//! tested against.
//!
//! Two representations sit behind one API:
//!
//! * **Dense** — the historical `n × n` flat table, `n` Dijkstra runs up
//!   front, `O(1)` lock-free lookups. Used up to [`DENSE_MAX_NODES`]
//!   nodes so small-simulation hot paths (and golden traces) are
//!   untouched.
//! * **Lazy** — per-destination rows computed on first query and cached.
//!   A 10k-node domain where traffic touches 40 destinations holds 40
//!   rows (1.6 MB), not a 400 MB matrix.
//!
//! Because each row is a pure function of (topology, dst), lazy tables
//! return byte-identical routes regardless of query order.

use crate::dijkstra::{dijkstra_with, DijkstraScratch, Metric};
use crate::graph::{NodeId, Topology};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const NONE: u32 = u32::MAX;

/// Node count at or below which [`RoutingTables::compute`] builds the
/// dense matrix (16 MB of `u32` at 2048 nodes is the knee; the paper's
/// topologies are far below it).
pub const DENSE_MAX_NODES: usize = 1024;

/// Per-node unicast next-hop tables (`next_hop[src][dst]` semantics).
#[derive(Debug)]
pub struct RoutingTables {
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    Dense {
        n: usize,
        /// Flattened `src * n + dst`; `u32::MAX` encodes "none".
        next: Vec<u32>,
    },
    Lazy {
        topo: Arc<Topology>,
        state: Mutex<LazyState>,
    },
}

#[derive(Debug)]
struct LazyState {
    /// dst -> row where `row[src]` is the next hop from src toward dst.
    rows: HashMap<u32, Arc<Vec<u32>>>,
    scratch: DijkstraScratch,
}

impl Clone for RoutingTables {
    fn clone(&self) -> Self {
        let repr = match &self.repr {
            Repr::Dense { n, next } => Repr::Dense {
                n: *n,
                next: next.clone(),
            },
            Repr::Lazy { topo, state } => {
                let st = state.lock().expect("routing lock");
                Repr::Lazy {
                    topo: Arc::clone(topo),
                    state: Mutex::new(LazyState {
                        rows: st.rows.clone(),
                        scratch: DijkstraScratch::new(),
                    }),
                }
            }
        };
        RoutingTables { repr }
    }
}

impl RoutingTables {
    /// Build next-hop tables for the whole topology. Dense (n Dijkstra
    /// runs by delay, matching a link-state IGP with delay as the metric)
    /// up to [`DENSE_MAX_NODES`]; lazy per-destination rows above.
    pub fn compute(topo: &Topology) -> Self {
        if topo.node_count() <= DENSE_MAX_NODES {
            RoutingTables::compute_dense(topo)
        } else {
            RoutingTables::lazy(Arc::new(topo.clone()))
        }
    }

    /// Force the dense `n × n` representation regardless of size (the
    /// test oracle for [`crate::LivePaths`]).
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
        RoutingTables {
            repr: Repr::Dense { n, next },
        }
    }

    /// Lazy tables over `topo`: rows materialise on first query toward a
    /// destination.
    pub fn lazy(topo: Arc<Topology>) -> Self {
        RoutingTables {
            repr: Repr::Lazy {
                topo,
                state: Mutex::new(LazyState {
                    rows: HashMap::new(),
                    scratch: DijkstraScratch::new(),
                }),
            },
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match &self.repr {
            Repr::Dense { n, .. } => *n,
            Repr::Lazy { topo, .. } => topo.node_count(),
        }
    }

    /// Heap bytes of resident routing state (the full matrix when dense,
    /// only the touched rows when lazy).
    pub fn resident_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense { next, .. } => next.len() * std::mem::size_of::<u32>(),
            Repr::Lazy { state, .. } => {
                let st = state.lock().expect("routing lock");
                st.rows
                    .values()
                    .map(|r| r.len() * std::mem::size_of::<u32>())
                    .sum()
            }
        }
    }

    fn lazy_row(topo: &Topology, state: &Mutex<LazyState>, dst: NodeId) -> Arc<Vec<u32>> {
        let st = &mut *state.lock().expect("routing lock");
        if let Some(row) = st.rows.get(&dst.0) {
            return Arc::clone(row);
        }
        let tree = dijkstra_with(topo, dst, Metric::Delay, &mut st.scratch);
        let row: Vec<u32> = topo
            .nodes()
            .map(|src| {
                if src == dst {
                    NONE
                } else {
                    tree.predecessor(src).map_or(NONE, |p| p.0)
                }
            })
            .collect();
        st.scratch.recycle(tree);
        let row = Arc::new(row);
        st.rows.insert(dst.0, Arc::clone(&row));
        row
    }

    /// Next hop on the unicast route from `src` to `dst`.
    ///
    /// `None` when `src == dst` or `dst` is unreachable.
    #[inline]
    pub fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        let v = match &self.repr {
            Repr::Dense { n, next } => next[src.index() * n + dst.index()],
            Repr::Lazy { topo, state } => RoutingTables::lazy_row(topo, state, dst)[src.index()],
        };
        (v != NONE).then_some(NodeId(v))
    }

    /// Materialise the full hop-by-hop route `src -> … -> dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let n = self.node_count();
        let mut out = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            out.push(cur);
            if out.len() > n {
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
        let rt = RoutingTables::compute(&t);
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
    fn lazy_matches_dense() {
        let t = fig5();
        let dense = RoutingTables::compute_dense(&t);
        let lazy = RoutingTables::lazy(Arc::new(t.clone()));
        for src in t.nodes() {
            for dst in t.nodes() {
                assert_eq!(lazy.next_hop(src, dst), dense.next_hop(src, dst));
                assert_eq!(lazy.route(src, dst), dense.route(src, dst));
            }
        }
        // Only the queried destinations are resident.
        assert_eq!(
            lazy.resident_bytes(),
            t.node_count() * t.node_count() * std::mem::size_of::<u32>()
        );
    }

    #[test]
    fn lazy_rows_materialise_on_demand() {
        let t = fig5();
        let lazy = RoutingTables::lazy(Arc::new(t.clone()));
        assert_eq!(lazy.resident_bytes(), 0);
        lazy.next_hop(NodeId(0), NodeId(4));
        assert_eq!(
            lazy.resident_bytes(),
            t.node_count() * std::mem::size_of::<u32>()
        );
        // A clone carries the cached rows.
        let cloned = lazy.clone();
        assert_eq!(cloned.resident_bytes(), lazy.resident_bytes());
    }

    #[test]
    fn self_route_is_trivial() {
        let t = fig5();
        let rt = RoutingTables::compute(&t);
        assert_eq!(rt.next_hop(NodeId(2), NodeId(2)), None);
        assert_eq!(rt.route(NodeId(2), NodeId(2)), Some(vec![NodeId(2)]));
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        let rt = RoutingTables::compute(&b.build());
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
        let rt = RoutingTables::compute(&b.build());
        for src in 0..4u32 {
            for dst in 0..4u32 {
                assert!(rt.route(NodeId(src), NodeId(dst)).is_some());
            }
        }
    }

    #[test]
    fn next_hop_is_a_neighbor() {
        let t = fig5();
        let rt = RoutingTables::compute(&t);
        for src in t.nodes() {
            for dst in t.nodes() {
                if let Some(nh) = rt.next_hop(src, dst) {
                    assert!(t.has_link(src, nh), "{src:?}->{dst:?} via {nh:?}");
                }
            }
        }
    }
}
