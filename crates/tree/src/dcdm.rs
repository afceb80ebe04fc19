//! DCDM — Delay-Constrained Dynamic Multicast tree construction.
//!
//! This is the algorithm of the paper's reference \[20\] (Yang & Yang,
//! ICCCN 2005) as summarised in §III-D and walked through in Fig. 5:
//!
//! * When a member `s` joins, consider the `2m` precomputed paths
//!   (`P_lc` and `P_sl` from `s` to each of the `m` on-tree routers);
//!   among those whose resulting *multicast delay* `ml(s)` stays within
//!   the delay bound, graft the one with the least cost. The paths are
//!   scored by lookup in `s`'s two shortest-path trees, and only the
//!   winning path is materialised. Those trees are asked for with
//!   [`PathProvider::tree_until`] and a stop rule that ends each search
//!   once the winner and every tie are fixed, so a lazy path store
//!   settles only the part of the graph that can still win; the eager
//!   tables hand out full trees, and the scan reads the same answer from
//!   them.
//! * Under the **dynamic** bound (the paper's formulation), the bound is
//!   the current tree delay; a joiner whose unicast delay exceeds it is
//!   connected by its shortest-delay path to the m-router and raises the
//!   bound to its own `ul`.
//! * When an added path crosses a router that is already on the tree, the
//!   old upstream branch of that router is pruned (Fig. 5(c)→(d)) so the
//!   structure stays a tree.
//! * When a member leaves, its branch is pruned upward until a member or
//!   a branching router is reached.

use crate::tree::{MulticastTree, RootDistance};
use scmp_net::{Metric, NodeId, PathProvider, ShortestPathTree, Topology};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Marks an SPT node whose other-metric weight this join has not summed
/// yet.
const UNPRICED: u64 = u64::MAX;

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
        // `ul(s)` from the root's own delay tree, which every join reads:
        // links and liveness masks are symmetric, so it answers as `s`'s
        // would.
        let ul = self
            .paths
            .tree(root, Metric::Delay)
            .distance(s)
            .expect("topology is connected");
        let on_tree = self.tree.root_distances(self.topo);
        let (limit, force_shortest) = match self.bound {
            DelayBound::Dynamic => {
                let l = self.tree.max_member_delay(&on_tree);
                if ul > l {
                    (ul, true)
                } else {
                    (l, false)
                }
            }
            DelayBound::Fixed(b) => (b, false),
        };

        let (path_to_graft, violated) = if force_shortest {
            (self.shortest_to_root(s, None), false)
        } else {
            self.best_candidate(s, ul, limit, &on_tree)
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

    /// `s`'s shortest-delay path `s -> … -> root`: read from `by_delay`
    /// when that tree holds the root, else from a delay search that stops
    /// once the root is settled.
    fn shortest_to_root(&self, s: NodeId, by_delay: Option<&ShortestPathTree>) -> Vec<NodeId> {
        let root = self.tree.root();
        if let Some(path) = by_delay.and_then(|t| t.path_to(root)) {
            return path;
        }
        self.paths
            .tree_until(s, Metric::Delay, &mut |v, _| v == root)
            .path_to(root)
            .expect("connected")
    }

    /// Evaluate the `2m` candidate paths and return the cheapest feasible
    /// one as a path `s -> … -> graft`, or — when none satisfies
    /// `ml(s) ≤ limit`, which a fixed bound below `ul` forces — the
    /// shortest-delay path to the root, flagged `true`. `on_tree` is the
    /// tree's [`MulticastTree::root_distances`] walk.
    ///
    /// Each family's tree from `s` is asked for once, with a stop rule
    /// that ends its search once nothing left unsettled can win or tie:
    ///
    /// * **Cost family first.** Nodes settle in cost order, and each
    ///   on-tree one is tested for feasibility; the first feasible one
    ///   fixes the least feasible cost C*, and the search goes on until
    ///   the settled cost exceeds C*, so every tie is seen. Once every
    ///   on-tree router has settled there is nothing more to find.
    /// * **Delay family.** A graft at `v` costs at least `c(s, v)`, so
    ///   only the on-tree routers the cost search settled at a cost
    ///   ≤ C* (all it settled, without a C*; every on-tree router,
    ///   without a cost family) can still win or tie. The search stops
    ///   once all of those have settled, or once the settled delay
    ///   exceeds `limit`. When `ul > limit` it runs to the root instead,
    ///   whose path is then the fallback.
    ///
    /// A store may answer with the full tree instead (see
    /// [`PathProvider::tree_until`]). The scoring loop reads either the
    /// same way: a router a stopped search never settled reads as
    /// unreachable, and could not have won.
    ///
    /// A candidate's own metric is its SPT distance (exact: topologies
    /// have no parallel links); its other weight is summed up the SPT's
    /// predecessor chain, memoised in a dense `n`-slot array (allocated
    /// once per join, reset per family) so every node is priced once per
    /// family. Only the winner is materialised.
    ///
    /// Ties are broken by (cost, resulting delay, graft id), then by
    /// family order, so the result is deterministic.
    fn best_candidate(
        &self,
        s: NodeId,
        ul: u64,
        limit: u64,
        on_tree: &[RootDistance],
    ) -> (Vec<NodeId>, bool) {
        let root = self.tree.root();
        let families = &self.candidate_metrics;
        let ml = |v: NodeId| {
            let at = on_tree.binary_search_by_key(&v, |d| d.node);
            at.ok().map(|i| on_tree[i].delay)
        };
        let mut by_cost: Option<Arc<ShortestPathTree>> = None;
        let mut by_delay: Option<Arc<ShortestPathTree>> = None;
        let mut best: Option<(u64, u64, NodeId, usize)> = None;
        let mut chain = Vec::new();
        let mut priced = vec![UNPRICED; self.topo.node_count()];
        // The cost family is searched first, since its C* bounds the
        // delay family's search; each keeps its own index for the
        // tie-break.
        for metric in [Metric::Cost, Metric::Delay] {
            let Some(family) = families.iter().position(|&m| m == metric) else {
                continue;
            };
            priced.fill(UNPRICED);
            priced[s.index()] = 0;
            let spt = match metric {
                Metric::Cost => {
                    let mut unsettled = on_tree.len();
                    let mut c_star = None;
                    self.paths.tree_until(s, Metric::Cost, &mut |v, run| {
                        let cost = run.distance(v);
                        if c_star.is_some_and(|c| cost > c) {
                            return true;
                        }
                        let Some(ml_v) = ml(v) else {
                            return false;
                        };
                        unsettled -= 1;
                        if c_star.is_none() {
                            let pred = |u| run.predecessor(u);
                            let delay =
                                self.other_weight(Metric::Cost, pred, v, &mut priced, &mut chain);
                            if ml_v + delay <= limit {
                                c_star = Some(cost);
                            }
                        }
                        unsettled == 0
                    })
                }
                Metric::Delay => {
                    let c_star = best.map(|b| b.0);
                    let can_win = |v: NodeId| {
                        by_cost.as_ref().is_none_or(|t| {
                            t.distance(v)
                                .is_some_and(|c| c_star.is_none_or(|cs| c <= cs))
                        })
                    };
                    let mut unsettled = None;
                    self.paths.tree_until(s, Metric::Delay, &mut |v, run| {
                        if ul > limit {
                            return v == root;
                        }
                        if run.distance(v) > limit {
                            return true;
                        }
                        let left = unsettled.get_or_insert_with(|| {
                            on_tree.iter().filter(|d| can_win(d.node)).count()
                        });
                        if ml(v).is_some() && can_win(v) {
                            *left -= 1;
                        }
                        *left == 0
                    })
                }
            };
            for d in on_tree {
                // An on-tree router `s` cannot reach (a mirror tree not
                // yet mended after a partition), or one a stopped search
                // never settled, is no graft point.
                let Some(own) = spt.distance(d.node) else {
                    continue;
                };
                let pred = |u| spt.predecessor(u);
                let other = self.other_weight(metric, pred, d.node, &mut priced, &mut chain);
                let (cost, delay) = match metric {
                    Metric::Cost => (own, other),
                    Metric::Delay => (other, own),
                };
                let ml_s = d.delay + delay;
                if ml_s > limit {
                    continue;
                }
                let key = (cost, ml_s, d.node, family);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            match metric {
                Metric::Cost => by_cost = Some(spt),
                Metric::Delay => by_delay = Some(spt),
            }
        }
        match best {
            Some((_, _, graft, family)) => {
                let spt = match families[family] {
                    Metric::Cost => by_cost,
                    Metric::Delay => by_delay,
                };
                let path = spt
                    .expect("the winner's family was searched")
                    .path_to(graft);
                (path.expect("reachable graft"), false)
            }
            // No feasible graft under a fixed bound tighter than ul(s):
            // fall back to the best achievable delay.
            None => (self.shortest_to_root(s, by_delay.as_deref()), true),
        }
    }

    /// The weight of an SPT's path to `v` under the metric the SPT (built
    /// for `metric`, its predecessors read by `pred`) does not minimise:
    /// summed down from the nearest ancestor already in `priced`, pricing
    /// every node on the way (`chain` is scratch).
    fn other_weight(
        &self,
        metric: Metric,
        pred: impl Fn(NodeId) -> Option<NodeId>,
        v: NodeId,
        priced: &mut [u64],
        chain: &mut Vec<NodeId>,
    ) -> u64 {
        let other = match metric {
            Metric::Cost => Metric::Delay,
            Metric::Delay => Metric::Cost,
        };
        let mut top = v;
        while priced[top.index()] == UNPRICED {
            chain.push(top);
            top = pred(top).expect("a reachable node's chain ends at the source");
        }
        let mut acc = priced[top.index()];
        while let Some(u) = chain.pop() {
            let w = self.topo.link(top, u).expect("SPT edge is a topology link");
            acc += other.of(w);
            priced[u.index()] = acc;
            top = u;
        }
        acc
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
    use proptest::prelude::*;
    use rand::Rng;
    use scmp_net::rng::rng_for;
    use scmp_net::topology::examples::fig5;
    use scmp_net::topology::{transit_stub, waxman, WaxmanConfig};
    use scmp_net::{AllPairsPaths, LivePaths, OnDemandPaths};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup(topo: &Topology) -> AllPairsPaths {
        AllPairsPaths::compute(topo)
    }

    /// A provider that counts the trees asked of it.
    #[derive(Debug)]
    struct CountingPaths<'a> {
        inner: &'a dyn PathProvider,
        trees: AtomicUsize,
    }

    impl PathProvider for CountingPaths<'_> {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }

        fn tree(&self, src: NodeId, metric: Metric) -> Arc<ShortestPathTree> {
            self.trees.fetch_add(1, Ordering::Relaxed);
            self.inner.tree(src, metric)
        }

        fn resident_path_bytes(&self) -> usize {
            self.inner.resident_path_bytes()
        }
    }

    /// A join fetches the root's delay tree once for `ul` and the
    /// joiner's tree once per candidate family (a violated bound's
    /// fallback reads the delay family's), however many on-tree routers
    /// it scores — under the dynamic bound, a loose fixed one, and one
    /// every join violates.
    #[test]
    fn a_join_fetches_each_source_tree_once() {
        let cfg = WaxmanConfig {
            n: 120,
            ..WaxmanConfig::default()
        };
        let topo = waxman(&cfg, &mut rng_for("dcdm-lookups", 0));
        let ap = setup(&topo);
        let paths = CountingPaths {
            inner: &ap,
            trees: AtomicUsize::new(0),
        };
        for bound in [
            DelayBound::Dynamic,
            DelayBound::Fixed(u64::MAX),
            DelayBound::Fixed(0),
        ] {
            let mut d = Dcdm::new(&topo, &paths, NodeId(0), bound);
            for s in topo.nodes() {
                let before = paths.trees.load(Ordering::Relaxed);
                let on_tree = d.tree().on_tree_count();
                d.join(s);
                let fetched = paths.trees.load(Ordering::Relaxed) - before;
                assert!(
                    fetched <= 3,
                    "{bound:?}: join of {s:?} into {on_tree} on-tree routers fetched {fetched} trees"
                );
            }
            assert_eq!(d.tree().on_tree_count(), topo.node_count());
        }
    }

    /// A join/leave churn replayed twice, each time over a fresh on-demand
    /// provider, repeats its cache counters, resident bytes and tree.
    #[test]
    fn churn_replay_repeats_its_cache_counters() {
        let topo = transit_stub(3, 2, 4, 1000, &mut rng_for("dcdm-churn", 0));
        let replay = || {
            let paths = OnDemandPaths::with_capacity(Arc::new(topo.clone()), 8);
            let mut d = Dcdm::new(&topo, &paths, NodeId(0), DelayBound::Dynamic);
            let mut rng = rng_for("dcdm-churn-ops", 0);
            for _ in 0..200 {
                let members: Vec<NodeId> = d.tree().members().collect();
                if !members.is_empty() && rng.gen_bool(0.25) {
                    d.leave(members[rng.gen_range(0..members.len())]);
                } else {
                    d.join(NodeId(rng.gen_range(0..topo.node_count() as u32)));
                }
            }
            let st = paths.stats();
            (
                st.hits,
                st.misses,
                paths.resident_path_bytes(),
                d.into_tree().edges(),
            )
        };
        let first = replay();
        assert!(first.1 > 0 && first.2 > 0, "{first:?}");
        assert_eq!(replay(), first);
    }

    /// The tree delay the root-down walk replaced, kept as its oracle:
    /// one walk to the root per member.
    fn exhaustive_tree_delay(tree: &MulticastTree, topo: &Topology) -> u64 {
        tree.members()
            .map(|m| tree.multicast_delay(topo, m).expect("member on tree"))
            .max()
            .unwrap_or(0)
    }

    /// The candidate scan the lookup scan replaced, kept as its oracle:
    /// per on-tree router it re-walks `ml(r)` to the root, per family it
    /// materialises `paths.path(s, r, metric)` and re-walks it in
    /// `path_weight`.
    fn exhaustive_best_candidate(
        d: &Dcdm<'_>,
        paths: &dyn PathProvider,
        s: NodeId,
        limit: u64,
    ) -> Option<Vec<NodeId>> {
        let mut best: Option<(u64, u64, NodeId, Vec<NodeId>)> = None;
        for r in d.tree.on_tree_nodes() {
            let ml_r = d.tree.multicast_delay(d.topo, r).expect("on-tree node");
            for &metric in &d.candidate_metrics {
                let Some(p) = paths.path(s, r, metric) else {
                    continue;
                };
                let w = d.topo.path_weight(&p).expect("valid path");
                let ml_s = ml_r + w.delay;
                if ml_s > limit {
                    continue;
                }
                let key = (w.cost, ml_s, r);
                if best.as_ref().is_none_or(|(c, l, g, _)| key < (*c, *l, *g)) {
                    best = Some((w.cost, ml_s, r, p));
                }
            }
        }
        best.map(|(_, _, _, p)| p)
    }

    /// What the exhaustive join grafted for an off-tree `s`: the path
    /// `graft -> … -> s` and whether the bound was violated, asking
    /// `paths` in its order (`ul`, every candidate, the shortest-delay
    /// path when forced or falling back).
    fn exhaustive_graft(d: &Dcdm<'_>, paths: &dyn PathProvider, s: NodeId) -> (Vec<NodeId>, bool) {
        let root = d.tree.root();
        let ul = paths.unicast_delay(s, root).expect("connected");
        let (limit, force_shortest) = match d.bound {
            DelayBound::Dynamic => {
                let l = exhaustive_tree_delay(&d.tree, d.topo);
                (l.max(ul), ul > l)
            }
            DelayBound::Fixed(b) => (b, false),
        };
        let shortest = || paths.path(s, root, Metric::Delay).expect("connected");
        let (mut path, violated) = if force_shortest {
            (shortest(), false)
        } else {
            match exhaustive_best_candidate(d, paths, s, limit) {
                Some(p) => (p, false),
                None => (shortest(), true),
            }
        };
        path.reverse();
        (path, violated)
    }

    /// Candidate families the differential run restricts DCDM to: the
    /// paper's pair, each ablation, and the pair in the other order.
    const FAMILIES: [&[Metric]; 4] = [
        &[Metric::Cost, Metric::Delay],
        &[Metric::Cost],
        &[Metric::Delay],
        &[Metric::Delay, Metric::Cost],
    ];

    /// How the differential run reads a production provider's search
    /// count, and what it must show.
    enum Searches<'a> {
        /// Every search from a joiner runs (none hits a cached tree) and
        /// `count` reads them: the on-demand cache, or a degraded live
        /// view's per-epoch trees.
        Counted(&'a dyn Fn() -> u64),
        /// Nothing the joins do may move `count`: a healthy live view's
        /// trees come from its healthy store, which runs no SPF.
        Unmoved(&'a dyn Fn() -> u64),
        /// Eager tables: nothing is searched.
        None,
    }

    /// Drive `ops` random join/leave steps through a builder over `paths`,
    /// checking each join's graft path and bound flag against the
    /// exhaustive join asked of `oracle` (a second provider of the same
    /// kind), the tree delay after every step, and the exact count of
    /// searches the builder ran. Past the root's delay tree (fetched
    /// first, as every join reads it) an off-tree join runs one stopped
    /// search per candidate family, one delay search when the dynamic
    /// bound forces the shortest path, and one more when a cost-only
    /// ablation falls back to it — no full tree from a joiner, and no
    /// other fetch. Joiners the view cannot route to the root are
    /// skipped, as the m-router skips them.
    #[allow(clippy::too_many_arguments)]
    fn lockstep(
        topo: &Topology,
        paths: &dyn PathProvider,
        oracle: &dyn PathProvider,
        searches: Searches<'_>,
        tree: MulticastTree,
        bound: DelayBound,
        families: &[Metric],
        ops: usize,
        rng: &mut impl Rng,
    ) -> Result<MulticastTree, TestCaseError> {
        let mut d = Dcdm::with_tree(topo, paths, tree, bound);
        d.set_candidate_metrics(families);
        let root = d.tree.root();
        let root_tree = paths.tree(root, Metric::Delay);
        let count = match searches {
            Searches::Counted(count) | Searches::Unmoved(count) => count,
            Searches::None => &|| 0,
        };
        let mut expected = count();
        for _ in 0..ops {
            let members: Vec<NodeId> = d.tree.members().collect();
            if !members.is_empty() && rng.gen_bool(0.3) {
                d.leave(members[rng.gen_range(0..members.len())]);
            } else {
                let s = NodeId(rng.gen_range(0..topo.node_count() as u32));
                let ul = root_tree.distance(s);
                prop_assert_eq!(ul, oracle.unicast_delay(s, root));
                let Some(ul) = ul else {
                    continue;
                };
                // An on-tree joiner is only marked, by shared code.
                let exhaustive = (!d.tree.contains(s)).then(|| exhaustive_graft(&d, oracle, s));
                let forced =
                    d.bound == DelayBound::Dynamic && ul > exhaustive_tree_delay(&d.tree, topo);
                let o = d.join(s);
                if let Some(exhaustive) = exhaustive {
                    prop_assert_eq!((o.path, o.violated_bound), exhaustive, "join {:?}", s);
                    if let Searches::Counted(_) = searches {
                        let fallback = o.violated_bound && !families.contains(&Metric::Delay);
                        expected += if forced {
                            1
                        } else {
                            families.len() as u64 + u64::from(fallback)
                        };
                    }
                }
            }
            prop_assert_eq!(
                d.tree.tree_delay(topo),
                exhaustive_tree_delay(&d.tree, topo)
            );
            prop_assert_eq!(count(), expected, "searches");
        }
        Ok(d.into_tree())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The bound-pruned scan grafts what the exhaustive one grafted —
        /// the same path and bound flag on every join of a random
        /// join/leave sequence (attaching it is shared code, so the
        /// outcome and tree follow) and the same tree delay after every
        /// step, with the exact search count of [`lockstep`] — on Waxman
        /// and transit–stub graphs (ties everywhere on the 6-grid), under
        /// the dynamic bound and fixed bounds down to 0 (every join falls
        /// back), for every candidate family, over the eager tables
        /// (full trees), a two-tree LRU (stopped searches), and a live
        /// view healthy first, then degraded mid-run so that on-tree
        /// routers are unreachable from the joiner (stopped masked
        /// searches). The live view's healthy store is the eager tables
        /// on the small graphs and, on a 273-node transit–stub above
        /// `ALL_PAIRS_MAX_NODES`, an on-demand cache (stopped searches).
        #[test]
        fn lookup_scan_matches_exhaustive_oracle(
            seed in 0u64..1_000_000,
            transit in any::<bool>(),
            regime in 0u64..6,
            family in 0usize..FAMILIES.len(),
            view in 0usize..4,
        ) {
            let mut rng = rng_for("dcdm-oracle", seed);
            // On a small grid, equal-cost, equal-delay candidates at
            // different grafts are common, so the graft-id tie-break
            // decides joins; on the 2-grid, runs of equal-cost nodes are
            // long enough that a search stopped at the first tie would
            // miss a winner.
            let grid = [2, 6, 1000][rng.gen_range(0..3usize)];
            let topo = if view == 3 {
                let big = transit_stub(3, 9, 10, grid, &mut rng);
                prop_assert!(big.node_count() > scmp_net::provider::ALL_PAIRS_MAX_NODES);
                big
            } else if transit {
                transit_stub(3, 2, rng.gen_range(2..5), grid, &mut rng)
            } else {
                let cfg = WaxmanConfig {
                    n: rng.gen_range(12..40),
                    grid,
                    ..WaxmanConfig::default()
                };
                waxman(&cfg, &mut rng)
            };
            let root = NodeId(0);
            let ap = AllPairsPaths::compute(&topo);
            let bound = match regime {
                0 => DelayBound::Dynamic,
                k => {
                    let diameter = topo.nodes().filter_map(|v| ap.unicast_delay(root, v)).max();
                    DelayBound::Fixed(diameter.unwrap_or(0) * (k - 1) / 2)
                }
            };
            let families = FAMILIES[family];
            let fresh = MulticastTree::new(topo.node_count(), root);
            match view {
                0 => {
                    lockstep(&topo, &ap, &ap, Searches::None, fresh, bound, families, 80, &mut rng)?;
                }
                1 => {
                    let lru = || OnDemandPaths::with_capacity(Arc::new(topo.clone()), 2);
                    let (a, b) = (lru(), lru());
                    let misses = || a.stats().misses;
                    let searches = Searches::Counted(&misses);
                    lockstep(&topo, &a, &b, searches, fresh, bound, families, 80, &mut rng)?;
                    // Stopped trees are never interned: the root's delay
                    // tree is the only one the cache ever held.
                    prop_assert_eq!((a.stats().evictions, a.stats().resident), (0, 1));
                }
                _ => {
                    let mut a = LivePaths::new(topo.clone());
                    let mut b = LivePaths::new(topo.clone());
                    let spf = || a.spf_runs();
                    let searches = Searches::Unmoved(&spf);
                    let tree = lockstep(&topo, &a, &b, searches, fresh, bound, families, 40, &mut rng)?;
                    // Take on-tree routers and a link down in both views:
                    // every later scan meets routers the joiner cannot
                    // reach.
                    let on_tree: Vec<NodeId> =
                        tree.on_tree_nodes().into_iter().filter(|&v| v != root).collect();
                    for _ in 0..2.min(on_tree.len()) {
                        let v = on_tree[rng.gen_range(0..on_tree.len())];
                        a.set_node_down(v, true);
                        b.set_node_down(v, true);
                    }
                    let (x, y, _) = topo.edges()[rng.gen_range(0..topo.edge_count())];
                    a.set_link_down(x, y, true);
                    b.set_link_down(x, y, true);
                    let spf = || a.spf_runs();
                    let searches = Searches::Counted(&spf);
                    lockstep(&topo, &a, &b, searches, tree, bound, families, 40, &mut rng)?;
                }
            }
        }
    }

    /// The delay search stops only once every on-tree router that can
    /// still win has settled, however many that cannot win settle
    /// first. Joiner 3, bound 12: the cost family's best feasible graft
    /// is the root (cost 10 over the direct link), so C* = 10 and only
    /// routers 0 and 2 can win. In delay order router 1 (cost 60, too
    /// dear) settles first, then the root, then router 2, whose
    /// shortest-delay path 3-5-2 (cost 6, `ml` 11) wins.
    #[test]
    fn the_delay_search_waits_for_every_router_that_can_win() {
        let mut b = scmp_net::TopologyBuilder::new(6);
        for (x, y, delay, cost) in [
            (3, 0, 5, 10),
            (3, 1, 1, 100),
            (0, 1, 1, 50),
            (0, 2, 5, 40),
            (3, 4, 20, 1),
            (4, 2, 20, 1),
            (3, 5, 3, 3),
            (5, 2, 3, 3),
        ] {
            b.add_link(NodeId(x), NodeId(y), scmp_net::LinkWeight::new(delay, cost));
        }
        let topo = b.build();
        let mut tree = MulticastTree::new(6, NodeId(0));
        for v in [NodeId(1), NodeId(2)] {
            tree.attach(NodeId(0), v);
            tree.add_member(v);
        }
        let paths = OnDemandPaths::with_capacity(Arc::new(topo.clone()), 4);
        let mut d = Dcdm::with_tree(&topo, &paths, tree, DelayBound::Fixed(12));
        let o = d.join(NodeId(3));
        assert_eq!(o.path, vec![NodeId(2), NodeId(5), NodeId(3)]);
        assert!(!o.violated_bound);
        // The root's delay tree (all 6, for `ul`); the cost search 3, 4,
        // 2, 5, 0 and 1, whose cost 60 > C* stops it; the delay search
        // 3, 1, 0, 5 and 2, the last router that can win.
        assert_eq!(paths.stats().settled, 6 + 6 + 5);
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
