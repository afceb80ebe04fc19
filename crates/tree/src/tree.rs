//! The rooted, shared, bidirectional multicast tree.
//!
//! §III-A of the paper: every on-tree router has one *upstream* (parent)
//! and a *downstream* set (children); the root is the m-router. Group
//! members are a subset of on-tree routers (forwarders in the middle of a
//! path are on-tree but not members). The metrics mirror the paper:
//!
//! * **tree cost** — sum of link costs over all tree edges;
//! * **multicast delay** `ml(v)` — delay of the unique tree path from the
//!   root to `v`;
//! * **tree delay** — `max ml(v)` over group members.

use scmp_net::{NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One on-tree node as the root-down walk sees it
/// ([`MulticastTree::root_distances`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RootDistance {
    /// The on-tree node.
    pub node: NodeId,
    /// Its multicast delay `ml(node)`.
    pub delay: u64,
    /// Tree hops from the root.
    pub hops: u32,
}

/// A rooted multicast tree over a fixed topology size.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MulticastTree {
    root: NodeId,
    n: usize,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    on_tree: Vec<bool>,
    members: BTreeSet<NodeId>,
}

impl MulticastTree {
    /// A tree containing only the root (the m-router).
    pub fn new(n: usize, root: NodeId) -> Self {
        assert!(root.index() < n, "root out of range");
        let mut t = MulticastTree {
            root,
            n,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            on_tree: vec![false; n],
            members: BTreeSet::new(),
        };
        t.on_tree[root.index()] = true;
        t
    }

    /// The root (m-router / core).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Topology size this tree indexes into.
    #[inline]
    pub fn node_capacity(&self) -> usize {
        self.n
    }

    /// True iff `v` is on the tree (member or forwarder).
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.on_tree[v.index()]
    }

    /// Parent of `v` (`None` for the root and off-tree nodes).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Children of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.index()]
    }

    /// The registered group members (never includes pure forwarders).
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Number of group members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// True iff `v` is a group member.
    #[inline]
    pub fn is_member(&self, v: NodeId) -> bool {
        self.members.contains(&v)
    }

    /// All on-tree nodes, ascending.
    pub fn on_tree_nodes(&self) -> Vec<NodeId> {
        (0..self.n as u32)
            .map(NodeId)
            .filter(|v| self.on_tree[v.index()])
            .collect()
    }

    /// Number of on-tree nodes.
    pub fn on_tree_count(&self) -> usize {
        self.on_tree.iter().filter(|&&b| b).count()
    }

    /// Tree edges as `(parent, child)` pairs, ordered by child id.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.n as u32)
            .map(NodeId)
            .filter_map(|c| self.parent[c.index()].map(|p| (p, c)))
            .collect()
    }

    /// Mark `v` as a group member. `v` must already be on the tree.
    pub fn add_member(&mut self, v: NodeId) {
        assert!(self.contains(v), "member {v:?} must be on the tree");
        self.members.insert(v);
    }

    /// Unmark `v` as a member (keeps it on the tree; callers decide
    /// whether to prune). Returns whether it was a member.
    pub fn remove_member(&mut self, v: NodeId) -> bool {
        self.members.remove(&v)
    }

    /// Attach `child` under `parent`. `parent` must be on the tree and
    /// `child` off it.
    pub fn attach(&mut self, parent: NodeId, child: NodeId) {
        assert!(self.contains(parent), "parent {parent:?} off tree");
        assert!(!self.contains(child), "child {child:?} already on tree");
        self.on_tree[child.index()] = true;
        self.parent[child.index()] = Some(parent);
        self.children[parent.index()].push(child);
        self.children[parent.index()].sort_unstable();
    }

    /// Re-parent the on-tree node `v` (and, implicitly, its whole subtree)
    /// under `new_parent`. Used by DCDM loop elimination, where a path
    /// segment adopts a node that is already on the tree.
    ///
    /// # Panics
    /// If either node is off-tree, or if `new_parent` lies in `v`'s
    /// subtree (which would detach the subtree from the root).
    pub fn reparent(&mut self, v: NodeId, new_parent: NodeId) {
        assert!(self.contains(v) && self.contains(new_parent));
        assert!(v != self.root, "cannot reparent the root");
        assert!(
            !self.in_subtree(new_parent, v),
            "reparenting {v:?} under its own descendant {new_parent:?}"
        );
        if let Some(old) = self.parent[v.index()] {
            self.children[old.index()].retain(|&c| c != v);
        }
        self.parent[v.index()] = Some(new_parent);
        self.children[new_parent.index()].push(v);
        self.children[new_parent.index()].sort_unstable();
    }

    /// True iff `x` lies in the subtree rooted at `r` (inclusive).
    pub fn in_subtree(&self, x: NodeId, r: NodeId) -> bool {
        let mut cur = Some(x);
        while let Some(v) = cur {
            if v == r {
                return true;
            }
            cur = self.parent[v.index()];
        }
        false
    }

    /// Detach the leaf `v` from the tree. `v` must be a childless
    /// non-root, non-member node — exactly the state in which the paper's
    /// PRUNE message removes a router.
    pub fn remove_leaf(&mut self, v: NodeId) {
        assert!(self.contains(v), "{v:?} off tree");
        assert!(v != self.root, "cannot remove the root");
        assert!(self.children[v.index()].is_empty(), "{v:?} has children");
        assert!(!self.is_member(v), "{v:?} is still a member");
        let p = self.parent[v.index()].expect("non-root has a parent");
        self.children[p.index()].retain(|&c| c != v);
        self.parent[v.index()] = None;
        self.on_tree[v.index()] = false;
    }

    /// Prune upward from `start`: repeatedly remove childless non-member
    /// non-root nodes, following parents, never touching nodes in `keep`.
    /// Returns the removed nodes in removal order. This is the paper's
    /// cascading PRUNE ("this PRUNE message will continue until it reaches
    /// a non-leaf router", §III-C; the m-router-side mirror in §III-D
    /// stops at "a group member or a node that has more than one
    /// downstream routers").
    pub fn prune_upward(&mut self, start: NodeId, keep: &BTreeSet<NodeId>) -> Vec<NodeId> {
        let mut removed = Vec::new();
        let mut cur = start;
        while self.contains(cur)
            && cur != self.root
            && !self.is_member(cur)
            && self.children[cur.index()].is_empty()
            && !keep.contains(&cur)
        {
            let p = self.parent[cur.index()].expect("non-root has a parent");
            self.remove_leaf(cur);
            removed.push(cur);
            cur = p;
        }
        removed
    }

    /// The unique tree path from the root to `v` (inclusive), or `None`
    /// if `v` is off-tree.
    pub fn path_from_root(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.contains(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.root);
        path.reverse();
        Some(path)
    }

    /// The paper's multicast delay `ml(v)`: delay of the root→`v` tree
    /// path under `topo`.
    pub fn multicast_delay(&self, topo: &Topology, v: NodeId) -> Option<u64> {
        let p = self.path_from_root(v)?;
        Some(topo.path_weight(&p)?.delay)
    }

    /// `ml(v)` and hop depth of every on-tree node, sorted by node id, from
    /// one root-down walk: `O(on-tree · log on-tree)` whatever the
    /// topology size, where [`Self::multicast_delay`] re-walks to the root
    /// per node.
    pub(crate) fn root_distances(&self, topo: &Topology) -> Vec<RootDistance> {
        let mut out = Vec::new();
        let mut stack = vec![RootDistance {
            node: self.root,
            delay: 0,
            hops: 0,
        }];
        while let Some(d) = stack.pop() {
            for &c in self.children(d.node) {
                let w = topo.link(d.node, c).expect("tree edge is a topology link");
                stack.push(RootDistance {
                    node: c,
                    delay: d.delay + w.delay,
                    hops: d.hops + 1,
                });
            }
            out.push(d);
        }
        out.sort_unstable_by_key(|d| d.node);
        out
    }

    /// Tree delay over a [`Self::root_distances`] walk of this tree.
    pub(crate) fn max_member_delay(&self, walk: &[RootDistance]) -> u64 {
        walk.iter()
            .filter(|d| self.is_member(d.node))
            .map(|d| d.delay)
            .max()
            .unwrap_or(0)
    }

    /// Tree cost: sum of link costs over all tree edges.
    pub fn tree_cost(&self, topo: &Topology) -> u64 {
        self.edges()
            .iter()
            .map(|&(p, c)| topo.link(p, c).expect("tree edge is a topology link").cost)
            .sum()
    }

    /// Tree delay: `max ml(v)` over group members (0 for an empty group).
    pub fn tree_delay(&self, topo: &Topology) -> u64 {
        self.max_member_delay(&self.root_distances(topo))
    }

    /// Render the tree as a directed DOT graph (root at the top), for
    /// debugging and documentation. Members are filled, forwarders
    /// hollow.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph multicast_tree {\n  rankdir=TB;\n");
        for v in self.on_tree_nodes() {
            let style = if self.is_member(v) {
                " [style=filled, fillcolor=lightgreen]"
            } else if v == self.root {
                " [shape=doublecircle]"
            } else {
                ""
            };
            let _ = writeln!(out, "  n{v}{style};");
        }
        for (p, c) in self.edges() {
            let _ = writeln!(out, "  n{p} -> n{c};");
        }
        out.push_str("}\n");
        out
    }

    /// Validate every structural invariant; used by tests and after every
    /// mutating protocol step in debug builds.
    ///
    /// Checks: parent/child agreement, acyclicity, every on-tree node
    /// reaches the root, members ⊆ on-tree, and (when a topology is
    /// given) every tree edge is a real link.
    pub fn validate(&self, topo: Option<&Topology>) -> Result<(), String> {
        if !self.on_tree[self.root.index()] {
            return Err("root off tree".into());
        }
        if self.parent[self.root.index()].is_some() {
            return Err("root has a parent".into());
        }
        for v in 0..self.n as u32 {
            let v = NodeId(v);
            match (self.on_tree[v.index()], self.parent[v.index()]) {
                (false, Some(_)) => return Err(format!("{v:?} off tree but has parent")),
                (false, None) if !self.children[v.index()].is_empty() => {
                    return Err(format!("{v:?} off tree but has children"))
                }
                (true, None) if v != self.root => {
                    return Err(format!("{v:?} on tree, no parent, not root"))
                }
                _ => {}
            }
            if let Some(p) = self.parent[v.index()] {
                if !self.children[p.index()].contains(&v) {
                    return Err(format!("{p:?} does not list child {v:?}"));
                }
                if let Some(t) = topo {
                    if !t.has_link(p, v) {
                        return Err(format!("tree edge {p:?}-{v:?} is not a link"));
                    }
                }
            }
            for &c in &self.children[v.index()] {
                if self.parent[c.index()] != Some(v) {
                    return Err(format!("child {c:?} does not point back to {v:?}"));
                }
            }
        }
        // Root-reachability (also implies acyclicity together with the
        // unique-parent property).
        for v in 0..self.n as u32 {
            let v = NodeId(v);
            if !self.on_tree[v.index()] {
                continue;
            }
            let mut cur = v;
            let mut steps = 0;
            while cur != self.root {
                cur = self.parent[cur.index()].ok_or_else(|| format!("{v:?} detached"))?;
                steps += 1;
                if steps > self.n {
                    return Err(format!("cycle through {v:?}"));
                }
            }
        }
        for &m in &self.members {
            if !self.on_tree[m.index()] {
                return Err(format!("member {m:?} off tree"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::topology::examples::fig5;

    fn sample() -> MulticastTree {
        // Tree over fig5: 0-1, 1-4, 1-2, 2-3 (the paper's tree after g2).
        let mut t = MulticastTree::new(6, NodeId(0));
        t.attach(NodeId(0), NodeId(1));
        t.attach(NodeId(1), NodeId(4));
        t.attach(NodeId(1), NodeId(2));
        t.attach(NodeId(2), NodeId(3));
        t.add_member(NodeId(4));
        t.add_member(NodeId(3));
        t
    }

    #[test]
    fn attach_contains_parents() {
        let t = sample();
        assert!(t.contains(NodeId(2)));
        assert!(!t.contains(NodeId(5)));
        assert_eq!(t.parent(NodeId(4)), Some(NodeId(1)));
        assert_eq!(t.children(NodeId(1)), &[NodeId(2), NodeId(4)]);
        assert_eq!(t.on_tree_count(), 5);
        t.validate(Some(&fig5())).unwrap();
    }

    #[test]
    fn metrics_match_paper_walkthrough() {
        let topo = fig5();
        let t = sample();
        // ml(g1=4) = 3+9 = 12, ml(g2=3) = 3+3+4 = 10 (paper numbers).
        assert_eq!(t.multicast_delay(&topo, NodeId(4)), Some(12));
        assert_eq!(t.multicast_delay(&topo, NodeId(3)), Some(10));
        assert_eq!(t.tree_delay(&topo), 12);
        // cost = 6 (0-1) + 3 (1-4) + 2 (1-2) + 1 (2-3) = 12.
        assert_eq!(t.tree_cost(&topo), 12);
    }

    #[test]
    fn root_distances_agree_with_per_node_walks() {
        let topo = fig5();
        let mut t = sample();
        t.reparent(NodeId(2), NodeId(0)); // Fig. 5(d): 3 now hangs 0-2-3
        let walk = t.root_distances(&topo);
        let nodes: Vec<NodeId> = walk.iter().map(|d| d.node).collect();
        assert_eq!(nodes, t.on_tree_nodes());
        for d in &walk {
            assert_eq!(Some(d.delay), t.multicast_delay(&topo, d.node));
            let hops = t.path_from_root(d.node).unwrap().len() - 1;
            assert_eq!(d.hops as usize, hops);
        }
        assert_eq!(t.tree_delay(&topo), 12); // member 4 via 0-1-4
    }

    #[test]
    fn path_from_root_walks_parents() {
        let t = sample();
        assert_eq!(
            t.path_from_root(NodeId(3)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(t.path_from_root(NodeId(5)), None);
        assert_eq!(t.path_from_root(NodeId(0)).unwrap(), vec![NodeId(0)]);
    }

    #[test]
    fn reparent_moves_subtree() {
        let topo = fig5();
        let mut t = sample();
        // Fig. 5(d): node 2 is re-parented from 1 to 0, keeping child 3.
        t.reparent(NodeId(2), NodeId(0));
        t.validate(Some(&topo)).unwrap();
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(0)));
        assert_eq!(t.children(NodeId(1)), &[NodeId(4)]);
        assert_eq!(t.multicast_delay(&topo, NodeId(3)), Some(8)); // 0-2 (4) + 2-3 (4)
    }

    #[test]
    #[should_panic(expected = "descendant")]
    fn reparent_rejects_cycles() {
        let mut t = sample();
        t.reparent(NodeId(1), NodeId(3)); // 3 is in 1's subtree
    }

    #[test]
    fn prune_upward_cascades() {
        let mut t = sample();
        // Remove member 3: 3 then 2 get pruned, 1 kept (child 4 remains).
        t.remove_member(NodeId(3));
        let removed = t.prune_upward(NodeId(3), &BTreeSet::new());
        assert_eq!(removed, vec![NodeId(3), NodeId(2)]);
        assert!(!t.contains(NodeId(2)));
        assert!(t.contains(NodeId(1)));
        t.validate(None).unwrap();
    }

    #[test]
    fn prune_upward_respects_members_and_keep() {
        let mut t = sample();
        // 4 is a member: prune refuses to remove it.
        assert!(t.prune_upward(NodeId(4), &BTreeSet::new()).is_empty());
        // With member flag removed but node kept, also refuses.
        t.remove_member(NodeId(4));
        let keep: BTreeSet<_> = [NodeId(4)].into();
        assert!(t.prune_upward(NodeId(4), &keep).is_empty());
        // Now actually prune: removes 4 but stops at 1 (has child 2).
        assert_eq!(t.prune_upward(NodeId(4), &BTreeSet::new()), vec![NodeId(4)]);
        t.validate(None).unwrap();
    }

    #[test]
    fn remove_leaf_guards() {
        let mut t = sample();
        t.remove_member(NodeId(3));
        t.remove_leaf(NodeId(3));
        assert!(!t.contains(NodeId(3)));
        assert_eq!(t.children(NodeId(2)), &[] as &[NodeId]);
    }

    #[test]
    #[should_panic(expected = "has children")]
    fn remove_leaf_rejects_internal() {
        let mut t = sample();
        t.remove_leaf(NodeId(1));
    }

    #[test]
    fn validate_catches_corruption() {
        let t = MulticastTree::new(3, NodeId(0));
        t.validate(None).unwrap();
        // Tree edge that is not a topology link:
        let mut t2 = MulticastTree::new(6, NodeId(0));
        t2.attach(NodeId(0), NodeId(4)); // fig5 has no 0-4 link
        assert!(t2.validate(Some(&fig5())).is_err());
        assert!(t2.validate(None).is_ok());
    }

    #[test]
    fn empty_tree_metrics() {
        let topo = fig5();
        let t = MulticastTree::new(6, NodeId(0));
        assert_eq!(t.tree_cost(&topo), 0);
        assert_eq!(t.tree_delay(&topo), 0);
        assert_eq!(t.member_count(), 0);
        assert_eq!(t.edges(), vec![]);
    }

    #[test]
    fn dot_export_shape() {
        let t = sample();
        let dot = t.to_dot();
        assert!(dot.contains("n0 [shape=doublecircle]"));
        assert!(dot.contains("n4 [style=filled"));
        assert_eq!(dot.matches(" -> ").count(), t.edges().len());
    }

    #[test]
    fn member_bookkeeping() {
        let mut t = sample();
        assert!(t.is_member(NodeId(3)));
        assert!(t.remove_member(NodeId(3)));
        assert!(!t.remove_member(NodeId(3)));
        assert_eq!(t.member_count(), 1);
        assert_eq!(t.members().collect::<Vec<_>>(), vec![NodeId(4)]);
    }
}
