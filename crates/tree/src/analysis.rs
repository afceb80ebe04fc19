//! Tree quality analysis — the per-member breakdown behind Fig. 7's
//! aggregate numbers.
//!
//! The paper reports only tree cost and tree delay; when comparing
//! algorithms it is often more informative to look at the *distribution*
//! of member delays (how badly KMB hurts the worst member, how much
//! slack DCDM leaves under its bound) and the *delay stretch* of each
//! member relative to its unicast optimum. This module computes both.

use crate::tree::{MulticastTree, RootDistance};
use scmp_net::{Metric, NodeId, PathProvider, Topology};
use serde::Serialize;

/// Per-member delay record.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct MemberDelay {
    /// The member.
    pub member: NodeId,
    /// Its multicast delay `ml` on the tree.
    pub multicast_delay: u64,
    /// Its unicast delay `ul` to the root (the optimum).
    pub unicast_delay: u64,
    /// `ml / ul` (1.0 when the tree path is the shortest-delay path).
    pub stretch: f64,
}

/// Full quality report for one tree.
#[derive(Clone, Debug, Serialize)]
pub struct TreeReport {
    /// Tree cost (Σ link costs).
    pub cost: u64,
    /// Tree delay (max member `ml`).
    pub delay: u64,
    /// Number of members / on-tree routers.
    pub members: usize,
    pub routers: usize,
    /// Per-member delays, sorted by member id.
    pub member_delays: Vec<MemberDelay>,
    /// Mean and maximum delay stretch over members.
    pub mean_stretch: f64,
    pub max_stretch: f64,
}

/// Analyse `tree` against `topo`/`paths`.
pub fn analyze(topo: &Topology, paths: &dyn PathProvider, tree: &MulticastTree) -> TreeReport {
    report(topo, paths, tree, &tree.root_distances(topo))
}

/// [`analyze`] over an existing [`MulticastTree::root_distances`] walk.
fn report(
    topo: &Topology,
    paths: &dyn PathProvider,
    tree: &MulticastTree,
    walk: &[RootDistance],
) -> TreeReport {
    // The root's delay tree, fetched once, and not at all for an empty
    // group: a caching provider's LRU order stays what it was when each
    // member asked for `ul` itself.
    let mut from_root = None;
    let mut member_delays = Vec::new();
    let mut stretch_sum = 0.0;
    let mut max_stretch: f64 = 0.0;
    for d in walk.iter().filter(|d| tree.is_member(d.node)) {
        let ml = d.delay;
        let ul = from_root
            .get_or_insert_with(|| paths.tree(tree.root(), Metric::Delay))
            .distance(d.node)
            .expect("connected");
        let stretch = if ul == 0 { 1.0 } else { ml as f64 / ul as f64 };
        stretch_sum += stretch;
        max_stretch = max_stretch.max(stretch);
        member_delays.push(MemberDelay {
            member: d.node,
            multicast_delay: ml,
            unicast_delay: ul,
            stretch,
        });
    }
    let count = member_delays.len();
    TreeReport {
        cost: tree.tree_cost(topo),
        delay: tree.max_member_delay(walk),
        members: count,
        routers: walk.len(),
        member_delays,
        mean_stretch: if count == 0 {
            0.0
        } else {
            stretch_sum / count as f64
        },
        max_stretch,
    }
}

/// Compact per-tree health sample — the integer projection of
/// [`TreeReport`] that rides a telemetry event (see
/// `scmp_telemetry::EventKind::TreeHealth`). Floats are scaled to
/// milli-units so the sample stays exactly comparable across runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct TreeHealthSample {
    /// Member count.
    pub members: u32,
    /// Deepest member, in tree hops from the root.
    pub depth: u32,
    /// Tree cost (Σ link costs).
    pub cost: u64,
    /// Mean member delay stretch vs unicast, in milli-units
    /// (1000 = every member rides its shortest-delay path).
    pub stretch_milli: u64,
    /// Member delay variation: max − min multicast delay (0 with fewer
    /// than two members).
    pub delay_var: u64,
}

/// Condense a tree into a [`TreeHealthSample`] against `topo`/`paths`.
pub fn health(topo: &Topology, paths: &dyn PathProvider, tree: &MulticastTree) -> TreeHealthSample {
    let walk = tree.root_distances(topo);
    let r = report(topo, paths, tree, &walk);
    let depth = walk
        .iter()
        .filter(|d| tree.is_member(d.node))
        .map(|d| d.hops)
        .max()
        .unwrap_or(0);
    let delay_var = match (
        r.member_delays.iter().map(|d| d.multicast_delay).max(),
        r.member_delays.iter().map(|d| d.multicast_delay).min(),
    ) {
        (Some(hi), Some(lo)) => hi - lo,
        _ => 0,
    };
    TreeHealthSample {
        members: r.members as u32,
        depth,
        cost: r.cost,
        stretch_milli: (r.mean_stretch * 1000.0).round() as u64,
        delay_var,
    }
}

/// Per-link usage ("stress") of a set of trees over the same topology:
/// how many trees traverse each link — the hot-link profile of a domain
/// running many groups.
pub fn link_stress(trees: &[&MulticastTree]) -> std::collections::BTreeMap<(NodeId, NodeId), u32> {
    let mut stress = std::collections::BTreeMap::new();
    for t in trees {
        for (p, c) in t.edges() {
            let key = if p < c { (p, c) } else { (c, p) };
            *stress.entry(key).or_insert(0) += 1;
        }
    }
    stress
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcdm::{Dcdm, DelayBound};
    use crate::spt::spt_tree;
    use scmp_net::topology::examples::fig5;
    use scmp_net::AllPairsPaths;

    #[test]
    fn spt_has_unit_stretch() {
        let topo = fig5();
        let paths = AllPairsPaths::compute(&topo);
        let members = [NodeId(3), NodeId(4), NodeId(5)];
        let t = spt_tree(&topo, &paths, NodeId(0), &members);
        let r = analyze(&topo, &paths, &t);
        assert_eq!(r.members, 3);
        assert!((r.mean_stretch - 1.0).abs() < 1e-12);
        assert!((r.max_stretch - 1.0).abs() < 1e-12);
        assert_eq!(r.delay, 12);
    }

    #[test]
    fn dcdm_stretch_bounded_by_dynamic_bound() {
        let topo = fig5();
        let paths = AllPairsPaths::compute(&topo);
        let mut d = Dcdm::new(&topo, &paths, NodeId(0), DelayBound::Dynamic);
        for m in [NodeId(4), NodeId(3), NodeId(5)] {
            d.join(m);
        }
        let r = analyze(&topo, &paths, d.tree());
        // g2 = node 3: ml 8 (after the Fig. 5(d) restructure), ul 2.
        let g2 = r
            .member_delays
            .iter()
            .find(|m| m.member == NodeId(3))
            .unwrap();
        assert_eq!(g2.multicast_delay, 8);
        assert_eq!(g2.unicast_delay, 2);
        assert!((g2.stretch - 4.0).abs() < 1e-12);
        assert!(r.max_stretch >= r.mean_stretch);
        assert_eq!(r.cost, 17);
    }

    #[test]
    fn empty_tree_report() {
        let topo = fig5();
        let paths = AllPairsPaths::compute(&topo);
        let t = MulticastTree::new(6, NodeId(0));
        let r = analyze(&topo, &paths, &t);
        assert_eq!(r.members, 0);
        assert_eq!(r.mean_stretch, 0.0);
        assert_eq!(r.routers, 1);
    }

    #[test]
    fn health_condenses_the_report() {
        let topo = fig5();
        let paths = AllPairsPaths::compute(&topo);
        let members = [NodeId(3), NodeId(4), NodeId(5)];
        let t = spt_tree(&topo, &paths, NodeId(0), &members);
        let h = health(&topo, &paths, &t);
        let r = analyze(&topo, &paths, &t);
        assert_eq!(h.members, 3);
        assert_eq!(h.cost, r.cost);
        assert_eq!(h.stretch_milli, 1000); // SPT: unit stretch
        assert!(h.depth >= 1);
        let delays: Vec<u64> = r.member_delays.iter().map(|d| d.multicast_delay).collect();
        let var = delays.iter().max().unwrap() - delays.iter().min().unwrap();
        assert_eq!(h.delay_var, var);
        // Empty tree: all-zero sample, no panic.
        let empty = MulticastTree::new(6, NodeId(0));
        let hz = health(&topo, &paths, &empty);
        assert_eq!(
            (hz.members, hz.depth, hz.delay_var, hz.stretch_milli),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn link_stress_counts_shared_links() {
        let topo = fig5();
        let paths = AllPairsPaths::compute(&topo);
        let t1 = spt_tree(&topo, &paths, NodeId(0), &[NodeId(4)]); // 0-1-4
        let t2 = spt_tree(&topo, &paths, NodeId(0), &[NodeId(1)]); // 0-1
        let stress = link_stress(&[&t1, &t2]);
        assert_eq!(stress[&(NodeId(0), NodeId(1))], 2);
        assert_eq!(stress[&(NodeId(1), NodeId(4))], 1);
        assert_eq!(stress.len(), 2);
    }
}
