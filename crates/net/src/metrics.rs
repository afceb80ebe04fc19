//! Topology statistics — used by the experiment reports to characterise
//! generated graphs (the paper reports its topologies by size and
//! average node degree; these helpers add the rest of the standard
//! profile).

use crate::dijkstra::{dijkstra, Metric};
use crate::graph::Topology;

/// Summary statistics of a topology under a metric.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyProfile {
    /// Node count.
    pub nodes: usize,
    /// Undirected link count.
    pub links: usize,
    /// Average node degree `2m/n`.
    pub average_degree: f64,
    /// Minimum / maximum degree.
    pub degree_range: (usize, usize),
    /// Largest pairwise shortest distance (the diameter).
    pub diameter: u64,
    /// Mean pairwise shortest distance.
    pub average_distance: f64,
    /// Mean hop count of shortest paths.
    pub average_hops: f64,
}

/// Profile `topo` under `metric`.
///
/// # Panics
/// If the topology is empty or disconnected (all generators guarantee
/// connectivity).
pub fn profile(topo: &Topology, metric: Metric) -> TopologyProfile {
    let n = topo.node_count();
    assert!(n > 0, "empty topology");
    let mut diameter = 0u64;
    let mut dist_sum = 0u128;
    let mut hop_sum = 0u128;
    let mut pairs = 0u64;
    for src in topo.nodes() {
        let spt = dijkstra(topo, src, metric);
        for dst in topo.nodes() {
            if dst <= src {
                continue;
            }
            let d = spt.distance(dst).expect("connected topology");
            diameter = diameter.max(d);
            dist_sum += d as u128;
            hop_sum += (spt.path_to(dst).expect("connected").len() - 1) as u128;
            pairs += 1;
        }
    }
    let (dmin, dmax) = topo
        .nodes()
        .map(|v| topo.degree(v))
        .fold((usize::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
    TopologyProfile {
        nodes: n,
        links: topo.edge_count(),
        average_degree: topo.average_degree(),
        degree_range: if n == 0 { (0, 0) } else { (dmin, dmax) },
        diameter,
        average_distance: if pairs == 0 {
            0.0
        } else {
            dist_sum as f64 / pairs as f64
        },
        average_hops: if pairs == 0 {
            0.0
        } else {
            hop_sum as f64 / pairs as f64
        },
    }
}

/// Nodes reachable from `src` over the topology's links, as a dense
/// membership vector (`out[v] == true` iff `v` is connected to `src`).
/// On a surviving (post-failure) topology this is the set of routers a
/// repair can still serve; everything else is partitioned away. (The
/// repair scan itself reads reachability off a [`crate::LivePaths`]
/// tree; the partition proptests use this as the independent check.)
pub fn reachable_set(topo: &Topology, src: crate::graph::NodeId) -> Vec<bool> {
    let n = topo.node_count();
    let mut seen = vec![false; n];
    if src.index() >= n {
        return seen;
    }
    let mut stack = vec![src];
    seen[src.index()] = true;
    while let Some(v) = stack.pop() {
        for e in topo.neighbors(v) {
            if !seen[e.to.index()] {
                seen[e.to.index()] = true;
                stack.push(e.to);
            }
        }
    }
    seen
}

/// How many nodes `src` can reach (including itself).
pub fn reachable_count(topo: &Topology, src: crate::graph::NodeId) -> usize {
    reachable_set(topo, src).iter().filter(|&&r| r).count()
}

/// Degree histogram: `hist[d]` = number of nodes with degree `d`.
pub fn degree_histogram(topo: &Topology) -> Vec<usize> {
    let max = topo.nodes().map(|v| topo.degree(v)).max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for v in topo.nodes() {
        hist[topo.degree(v)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkWeight;
    use crate::topology::regular::{line, ring, star};

    #[test]
    fn line_profile() {
        let t = line(5, LinkWeight::new(2, 3));
        let p = profile(&t, Metric::Delay);
        assert_eq!(p.nodes, 5);
        assert_eq!(p.links, 4);
        assert_eq!(p.diameter, 8);
        assert_eq!(p.degree_range, (1, 2));
        // Pairwise hop counts on a 5-line: Σ = 20 over 10 pairs → 2.0.
        assert!((p.average_hops - 2.0).abs() < 1e-9);
        assert!((p.average_distance - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ring_diameter() {
        let t = ring(6, LinkWeight::new(1, 1));
        let p = profile(&t, Metric::Cost);
        assert_eq!(p.diameter, 3);
        assert_eq!(p.degree_range, (2, 2));
    }

    #[test]
    fn star_histogram() {
        let t = star(6, LinkWeight::new(1, 1));
        let h = degree_histogram(&t);
        assert_eq!(h[1], 5); // five leaves
        assert_eq!(h[5], 1); // one hub
        assert_eq!(h.iter().sum::<usize>(), 6);
    }

    #[test]
    fn reachability_splits_on_cut() {
        use crate::graph::NodeId;
        let t = line(5, LinkWeight::new(1, 1));
        assert_eq!(reachable_count(&t, NodeId(0)), 5);
        // Remove the middle link: two components of 3 and 2.
        let cut = t.subtopology(|_| true, |a, b| !(a == NodeId(2) && b == NodeId(3)));
        let from0 = reachable_set(&cut, NodeId(0));
        assert_eq!(from0, vec![true, true, true, false, false]);
        assert_eq!(reachable_count(&cut, NodeId(4)), 2);
        // Killing a node isolates it and splits the line.
        let dead2 = t.subtopology(|v| v != NodeId(2), |_, _| true);
        assert_eq!(reachable_count(&dead2, NodeId(2)), 1);
        assert_eq!(reachable_count(&dead2, NodeId(0)), 2);
    }

    #[test]
    fn single_node() {
        let t = line(1, LinkWeight::new(1, 1));
        let p = profile(&t, Metric::Delay);
        assert_eq!(p.diameter, 0);
        assert_eq!(p.average_distance, 0.0);
        assert_eq!(degree_histogram(&t), vec![1]);
    }
}
