//! DCDM — Delay-Constrained Dynamic Multicast tree construction.
//!
//! This is the algorithm of the paper's reference \[20\] (Yang & Yang,
//! ICCCN 2005) as summarised in §III-D and walked through in Fig. 5:
//!
//! * When a member `s` joins, consider the `2m` precomputed paths
//!   (`P_lc` and `P_sl` from `s` to each of the `m` on-tree routers);
//!   among those whose resulting *multicast delay* `ml(s)` stays within
//!   the delay bound, graft the one with the least cost.
//! * Under the **dynamic** bound (the paper's formulation), the bound is
//!   the current tree delay; a joiner whose unicast delay exceeds it is
//!   connected by its shortest-delay path to the m-router and raises the
//!   bound to its own `ul`.
//! * When an added path crosses a router that is already on the tree, the
//!   old upstream branch of that router is pruned (Fig. 5(c)→(d)) so the
//!   structure stays a tree.
//! * When a member leaves, its branch is pruned upward until a member or
//!   a branching router is reached.

use crate::tree::MulticastTree;
use scmp_net::{Metric, NodeId, PathProvider, Topology};
use std::collections::BTreeSet;

/// The delay bound regime for DCDM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelayBound {
    /// The paper's dynamic bound: the longest unicast delay seen so far
    /// (equivalently, the current tree delay).
    Dynamic,
    /// A fixed end-to-end delay constraint (used for the Fig. 7
    /// tightest/moderate/loosest sweeps).
    Fixed(u64),
}

/// What a join did to the tree — the SCMP m-router uses this to decide
/// between a BRANCH packet (simple graft) and a full TREE packet rebuild
/// (loop elimination restructured the tree).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinOutcome {
    /// The on-tree router the new path was grafted at.
    pub graft: NodeId,
    /// The added path, from the graft node to the new member.
    pub path: Vec<NodeId>,
    /// On-tree routers whose upstream changed (loop eliminations).
    pub reparented: Vec<NodeId>,
    /// Routers pruned off the tree while breaking loops.
    pub pruned: Vec<NodeId>,
    /// True when no candidate satisfied a fixed bound and the algorithm
    /// fell back to the shortest-delay path from the root.
    pub violated_bound: bool,
}

impl JoinOutcome {
    /// True iff the join only appended new routers (no restructuring) —
    /// the case a BRANCH packet can describe.
    pub fn is_simple_graft(&self) -> bool {
        self.reparented.is_empty() && self.pruned.is_empty()
    }
}

/// Incremental DCDM tree builder, owned by the m-router.
#[derive(Clone, Debug)]
pub struct Dcdm<'a> {
    topo: &'a Topology,
    paths: &'a dyn PathProvider,
    tree: MulticastTree,
    bound: DelayBound,
    /// Which precomputed path families feed the candidate search.
    /// The paper uses both (`P_lc` and `P_sl`, "2m paths"); the
    /// `ablation_paths` bench restricts this to quantify the design
    /// choice.
    candidate_metrics: Vec<Metric>,
}

impl<'a> Dcdm<'a> {
    /// Start with an empty tree rooted at the m-router.
    pub fn new(
        topo: &'a Topology,
        paths: &'a dyn PathProvider,
        root: NodeId,
        bound: DelayBound,
    ) -> Self {
        Dcdm {
            topo,
            paths,
            tree: MulticastTree::new(topo.node_count(), root),
            bound,
            candidate_metrics: vec![Metric::Cost, Metric::Delay],
        }
    }

    /// Restrict the candidate path families (ablation hook). Passing
    /// both metrics restores the paper's behaviour.
    ///
    /// # Panics
    /// If `metrics` is empty.
    pub fn set_candidate_metrics(&mut self, metrics: &[Metric]) {
        assert!(!metrics.is_empty(), "need at least one path family");
        self.candidate_metrics = metrics.to_vec();
    }

    /// Resume DCDM from an existing tree (the SCMP m-router stores one
    /// [`MulticastTree`] per group and reconstitutes the builder per
    /// membership change).
    ///
    /// # Panics
    /// If the tree's node capacity does not match the topology.
    pub fn with_tree(
        topo: &'a Topology,
        paths: &'a dyn PathProvider,
        tree: MulticastTree,
        bound: DelayBound,
    ) -> Self {
        assert_eq!(
            tree.node_capacity(),
            topo.node_count(),
            "tree/topology mismatch"
        );
        Dcdm {
            topo,
            paths,
            tree,
            bound,
            candidate_metrics: vec![Metric::Cost, Metric::Delay],
        }
    }

    /// The current tree.
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// The configured bound regime.
    pub fn bound(&self) -> DelayBound {
        self.bound
    }

    /// Consume the builder, returning the tree.
    pub fn into_tree(self) -> MulticastTree {
        self.tree
    }

    /// Join member `s`, returning what changed.
    pub fn join(&mut self, s: NodeId) -> JoinOutcome {
        let _span = scmp_telemetry::TimedScope::new(scmp_telemetry::Span::DcdmBuild);
        if self.tree.contains(s) {
            // Already a forwarder (or the root itself): just mark it.
            self.tree.add_member(s);
            return JoinOutcome {
                graft: s,
                path: vec![s],
                reparented: Vec::new(),
                pruned: Vec::new(),
                violated_bound: false,
            };
        }
        let root = self.tree.root();
        let ul = self
            .paths
            .unicast_delay(s, root)
            .expect("topology is connected");
        let (limit, force_shortest) = match self.bound {
            DelayBound::Dynamic => {
                let l = self.tree.tree_delay(self.topo);
                if ul > l {
                    (ul, true)
                } else {
                    (l, false)
                }
            }
            DelayBound::Fixed(b) => (b, false),
        };

        let (path_to_graft, violated) = if force_shortest {
            (
                self.paths.path(s, root, Metric::Delay).expect("connected"),
                false,
            )
        } else {
            match self.best_candidate(s, limit) {
                Some(p) => (p, false),
                None => (
                    // No feasible graft under a fixed bound tighter than
                    // ul(s): fall back to the best achievable delay.
                    self.paths.path(s, root, Metric::Delay).expect("connected"),
                    true,
                ),
            }
        };

        // path_to_graft runs s -> … -> graft; attach walking graft -> s.
        let mut path = path_to_graft;
        path.reverse();
        let mut outcome = self.attach_path(&path);
        outcome.violated_bound = violated;
        self.tree.add_member(s);
        debug_assert_eq!(self.tree.validate(Some(self.topo)), Ok(()));
        outcome
    }

    /// Member `s` leaves: unmark and prune its branch. Returns the pruned
    /// routers (empty when `s` stays as a forwarder).
    pub fn leave(&mut self, s: NodeId) -> Vec<NodeId> {
        let _span = scmp_telemetry::TimedScope::new(scmp_telemetry::Span::DcdmBuild);
        if !self.tree.remove_member(s) {
            return Vec::new();
        }
        let pruned = self.tree.prune_upward(s, &BTreeSet::new());
        debug_assert_eq!(self.tree.validate(Some(self.topo)), Ok(()));
        pruned
    }

    /// Evaluate the `2m` candidate paths and return the cheapest feasible
    /// one (as a path `s -> … -> graft`), or `None` if none satisfies
    /// `ml(s) ≤ limit`.
    ///
    /// Ties are broken by (cost, resulting delay, graft id) so the result
    /// is deterministic.
    fn best_candidate(&self, s: NodeId, limit: u64) -> Option<Vec<NodeId>> {
        let mut best: Option<(u64, u64, NodeId, Vec<NodeId>)> = None;
        for r in self.tree.on_tree_nodes() {
            let ml_r = self
                .tree
                .multicast_delay(self.topo, r)
                .expect("on-tree node");
            for &metric in &self.candidate_metrics {
                // An on-tree router `s` cannot reach is no graft point
                // (a mirror tree not yet mended after a partition).
                let Some(p) = self.paths.path(s, r, metric) else {
                    continue;
                };
                let w = self.topo.path_weight(&p).expect("valid path");
                let ml_s = ml_r + w.delay;
                if ml_s > limit {
                    continue;
                }
                let key = (w.cost, ml_s, r);
                let better = match &best {
                    None => true,
                    Some((bc, bd, br, _)) => key < (*bc, *bd, *br),
                };
                if better {
                    best = Some((w.cost, ml_s, r, p));
                }
            }
        }
        best.map(|(_, _, _, p)| p)
    }

    /// Attach `path` (`graft -> … -> new member`) to the tree, performing
    /// the paper's loop elimination whenever the path crosses an on-tree
    /// router.
    fn attach_path(&mut self, path: &[NodeId]) -> JoinOutcome {
        debug_assert!(self.tree.contains(path[0]), "graft node must be on tree");
        let keep: BTreeSet<NodeId> = path.iter().copied().collect();
        let mut reparented = Vec::new();
        let mut pruned = Vec::new();
        let mut prev = path[0];
        for &v in &path[1..] {
            if !self.tree.contains(v) {
                self.tree.attach(prev, v);
                prev = v;
                continue;
            }
            // `v` is already on the tree: break the loop by pruning its
            // old upstream branch and adopting it under `prev`
            // (Fig. 5(c) -> (d)).
            if self.tree.in_subtree(prev, v) {
                // Degenerate case: `prev` already hangs below `v`
                // (the path climbed back over its own attachment point).
                // Reparenting would detach the subtree from the root, so
                // instead restart the graft at `v` and garbage-collect
                // the dead-end stub we just built.
                let stub = self.tree.prune_upward(prev, &BTreeSet::new());
                pruned.extend(stub);
                prev = v;
                continue;
            }
            let old_parent = self.tree.parent(v);
            self.tree.reparent(v, prev);
            reparented.push(v);
            if let Some(op) = old_parent {
                pruned.extend(self.tree.prune_upward(op, &keep));
            }
            prev = v;
        }
        JoinOutcome {
            graft: path[0],
            path: path.to_vec(),
            reparented,
            pruned,
            violated_bound: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::topology::examples::fig5;
    use scmp_net::AllPairsPaths;

    fn setup(topo: &Topology) -> AllPairsPaths {
        AllPairsPaths::compute(topo)
    }

    /// The complete Fig. 5 walkthrough: joins of g1, g2, g3 reproduce the
    /// paper's trees (b), (d) including the loop elimination.
    #[test]
    fn fig5_walkthrough() {
        let topo = fig5();
        let ap = setup(&topo);
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Dynamic);

        // g1 = node 4: first member, shortest-delay path 0-1-4 (delay 12).
        let o1 = d.join(NodeId(4));
        assert_eq!(o1.path, vec![NodeId(0), NodeId(1), NodeId(4)]);
        assert!(o1.is_simple_graft());
        assert_eq!(d.tree().tree_delay(&topo), 12);

        // g2 = node 3: grafts at node 1 via 1-2-3 (cost +3, ml = 10).
        let o2 = d.join(NodeId(3));
        assert_eq!(o2.graft, NodeId(1));
        assert_eq!(o2.path, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(o2.is_simple_graft());
        assert_eq!(d.tree().tree_delay(&topo), 12);
        assert_eq!(d.tree().tree_cost(&topo), 12);

        // g3 = node 5: only node 0 is a feasible graft; the added path
        // 0-2-5 crosses on-tree node 2, triggering loop elimination that
        // reparents 2 under 0 (paper: "prunes the tree upstream from
        // node 2 until it reaches node 1").
        let o3 = d.join(NodeId(5));
        assert_eq!(o3.graft, NodeId(0));
        assert_eq!(o3.path, vec![NodeId(0), NodeId(2), NodeId(5)]);
        assert_eq!(o3.reparented, vec![NodeId(2)]);
        assert!(o3.pruned.is_empty()); // node 1 keeps child 4
        let mut edges = d.tree().edges();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(4)),
                (NodeId(2), NodeId(3)),
                (NodeId(2), NodeId(5)),
            ]
        );
        assert_eq!(d.tree().tree_delay(&topo), 12);
        assert_eq!(d.tree().tree_cost(&topo), 17);
    }

    #[test]
    fn leave_prunes_branch() {
        let topo = fig5();
        let ap = setup(&topo);
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Dynamic);
        d.join(NodeId(4));
        d.join(NodeId(3));
        // g1 leaves: branch 4, then 1? No — 1 still forwards to 2-3.
        let pruned = d.leave(NodeId(4));
        assert_eq!(pruned, vec![NodeId(4)]);
        assert!(d.tree().contains(NodeId(1)));
        // g2 leaves: everything but the root goes.
        let pruned = d.leave(NodeId(3));
        assert_eq!(pruned, vec![NodeId(3), NodeId(2), NodeId(1)]);
        assert_eq!(d.tree().on_tree_count(), 1);
    }

    #[test]
    fn leave_of_forwarding_member_keeps_node() {
        let topo = fig5();
        let ap = setup(&topo);
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Dynamic);
        d.join(NodeId(4)); // tree 0-1-4
        d.join(NodeId(1)); // node 1 already a forwarder: becomes member
        assert!(d.tree().is_member(NodeId(1)));
        let pruned = d.leave(NodeId(1));
        assert!(pruned.is_empty(), "still forwards toward 4");
        assert!(d.tree().contains(NodeId(1)));
    }

    #[test]
    fn rejoin_after_leave_is_clean() {
        let topo = fig5();
        let ap = setup(&topo);
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Dynamic);
        d.join(NodeId(5));
        d.leave(NodeId(5));
        assert_eq!(d.tree().on_tree_count(), 1);
        let o = d.join(NodeId(5));
        assert!(o.is_simple_graft());
        assert_eq!(d.tree().tree_delay(&topo), 11);
    }

    #[test]
    fn fixed_bound_steers_graft_choice() {
        let topo = fig5();
        let ap = setup(&topo);
        // Bound 10: g2 can still graft via node 1 (ml = 10).
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Fixed(10));
        d.join(NodeId(4)); // ul = 12 > 10: fallback is NOT taken — the
                           // candidate search runs and finds none ≤ 10.
        let t = d.tree();
        assert!(t.contains(NodeId(4)));
        assert_eq!(t.tree_delay(&topo), 12); // best achievable

        // Bound 5: g2 must take the direct (2,6) link, not the cheap path.
        let mut d2 = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Fixed(5));
        let o = d2.join(NodeId(3));
        assert_eq!(o.path, vec![NodeId(0), NodeId(3)]);
        assert!(!o.violated_bound);
        assert_eq!(d2.tree().tree_delay(&topo), 2);
    }

    #[test]
    fn fixed_bound_fallback_flags_violation() {
        let topo = fig5();
        let ap = setup(&topo);
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Fixed(1));
        let o = d.join(NodeId(4)); // ul(4) = 12 > 1: impossible bound
        assert!(o.violated_bound);
        assert_eq!(d.tree().tree_delay(&topo), 12);
    }

    #[test]
    fn loose_bound_tracks_kmb_like_cost() {
        // With an infinite bound the algorithm always takes the cheapest
        // graft; verify it beats the pure shortest-path tree on cost.
        let topo = fig5();
        let ap = setup(&topo);
        let mut loose = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Fixed(u64::MAX));
        for m in [NodeId(4), NodeId(3), NodeId(5)] {
            loose.join(m);
        }
        let spt = crate::spt::spt_tree(&topo, &ap, NodeId(0), &[NodeId(4), NodeId(3), NodeId(5)]);
        assert!(loose.tree().tree_cost(&topo) <= spt.tree_cost(&topo));
    }

    #[test]
    fn joining_the_root_is_trivial() {
        let topo = fig5();
        let ap = setup(&topo);
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Dynamic);
        let o = d.join(NodeId(0));
        assert_eq!(o.path, vec![NodeId(0)]);
        assert!(d.tree().is_member(NodeId(0)));
        assert_eq!(d.tree().tree_delay(&topo), 0);
    }

    #[test]
    fn dynamic_bound_never_increases_delay_beyond_max_ul() {
        let topo = fig5();
        let ap = setup(&topo);
        let mut d = Dcdm::new(&topo, &ap, NodeId(0), DelayBound::Dynamic);
        let members = [NodeId(3), NodeId(5), NodeId(4), NodeId(1)];
        for m in members {
            d.join(m);
        }
        let max_ul = members
            .iter()
            .map(|&m| ap.unicast_delay(m, NodeId(0)).unwrap())
            .max()
            .unwrap();
        assert!(d.tree().tree_delay(&topo) >= max_ul); // tree delay is at least the diameter member
                                                       // Every join kept the invariant: delay grows only when a
                                                       // larger-ul member arrives, so the final delay is bounded by the
                                                       // max unicast delay plus nothing.
        assert_eq!(d.tree().tree_delay(&topo), max_ul);
    }
}
