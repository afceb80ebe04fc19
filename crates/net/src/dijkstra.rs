//! Single-source shortest paths under either link metric.
//!
//! The paper distinguishes the *shortest-delay* path `P_sl` from the
//! *least-cost* path `P_lc` between every node pair (§III-A). Both are
//! produced by the same Dijkstra run parameterised by [`Metric`].
//!
//! Determinism: ties are broken toward the smaller predecessor node id, so
//! repeated runs over the same [`Topology`] yield identical trees — a
//! requirement for the reproducible experiment harness.
//!
//! # The kernel
//!
//! Every tree in the workspace — [`crate::OnDemandPaths`] misses,
//! [`crate::AllPairsPaths`], the [`crate::RoutingTables`] oracle and
//! [`crate::LivePaths`]' per-epoch trees — comes out of one loop. Its
//! heap is a hand-rolled binary min-heap holding one integer per entry,
//! `(dist << 32) | node`. Integer order on that key *is* the
//! lexicographic `(dist, NodeId)` order, so one integer compare replaces
//! a tuple compare and the pop sequence is exactly that of a
//! `BinaryHeap<Reverse<(u64, NodeId)>>`: same trees, same tie-break,
//! zero-weight links included. The heap is lazy — a node improved twice
//! is pushed twice and the stale entry is skipped when popped.
//!
//! The key is a `u64` when every distance fits in 32 bits, and that is
//! proven once per topology rather than per run: every key the loop
//! pushes is the weight of a simple path, and [`Topology`] computes, when
//! it is built, the bound `min(Σ w, (n − 1) · max w)` no simple path can
//! exceed. A masked run only removes links, so the bound holds for every
//! sub-graph too. When it does not fit (weights near 2³²) the same loop
//! runs on `u128` keys: one generic body, instantiated per key width and
//! per metric.
//!
//! # Stopped runs
//!
//! The loop takes a stop predicate, called on each node as it is
//! settled. A node's distance and predecessor are final once it is
//! settled, and so is its whole predecessor chain, so the predicate can
//! price the path to it ([`Settled`]). When the predicate answers `true`
//! the run ends there and every node it did not settle reads as
//! unreachable: a stopped tree agrees with the full one on every node it
//! holds and claims nothing about the rest. The path providers use this
//! for [`crate::PathProvider::tree_until`]; a full run passes a predicate
//! that never stops, which compiles away.

use crate::graph::{LinkWeight, NodeId, Topology};

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

/// `pred` entry of the source and of unreachable nodes.
const NO_PRED: u32 = u32::MAX;

/// What a stop predicate sees of a run in progress (see the
/// [module docs](self)): the settled nodes' final distances and
/// predecessors. Read it only for the node just settled and its
/// predecessor chain; every other entry may still move.
#[derive(Clone, Copy, Debug)]
pub struct Settled<'a> {
    dist: &'a [u64],
    pred: &'a [u32],
}

impl Settled<'_> {
    /// Final distance of the settled node `v`.
    pub fn distance(&self, v: NodeId) -> u64 {
        self.dist[v.index()]
    }

    /// Predecessor of the settled node `v` on its shortest path (`None`
    /// for the source).
    pub fn predecessor(&self, v: NodeId) -> Option<NodeId> {
        let p = self.pred[v.index()];
        (p != NO_PRED).then_some(NodeId(p))
    }
}

/// Result of a Dijkstra run: distances and predecessor pointers from one
/// source to every reachable node.
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    source: NodeId,
    metric: Metric,
    dist: Vec<u64>,
    /// Predecessor ids, [`NO_PRED`] for none.
    pred: Vec<u32>,
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
        let p = self.pred[node.index()];
        (p != NO_PRED).then_some(NodeId(p))
    }

    /// Full path `source -> … -> node`, or `None` if unreachable.
    pub fn path_to(&self, node: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[node.index()] == u64::MAX {
            return None;
        }
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.predecessor(cur) {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        path.reverse();
        Some(path)
    }

    /// Heap footprint of the tree's distance and predecessor arrays —
    /// what one cached source tree costs a [`crate::OnDemandPaths`]:
    /// 12 bytes per node, a `u64` distance and a `u32` predecessor.
    pub fn resident_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<u64>() + self.pred.len() * std::mem::size_of::<u32>()
    }
}

/// Reusable working memory for [`dijkstra_with`].
///
/// A run needs a heap, a visited set, and the output `dist`/`pred`
/// arrays. The heap storage (one per key width — see the
/// [module docs](self)) and the visited set are pure scratch and are
/// reused across runs directly; the output arrays must be owned by the
/// returned [`ShortestPathTree`], so the scratch keeps a recycle pool fed
/// by [`DijkstraScratch::recycle`] (the on-demand path provider returns
/// evicted trees here). With a warm scratch a run allocates nothing.
///
/// The scratch also counts the nodes settled by every run over it,
/// stopped or full — the work a path store did, whatever it cached.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    narrow: MinHeap<u64>,
    wide: MinHeap<u128>,
    done: Vec<bool>,
    dist_pool: Vec<Vec<u64>>,
    pred_pool: Vec<Vec<u32>>,
    settled: u64,
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

    /// Nodes settled by every run over this scratch so far.
    pub(crate) fn settled(&self) -> u64 {
        self.settled
    }

    /// Take (or allocate) an output buffer pair sized and reset for `n`
    /// nodes.
    fn take_bufs(&mut self, n: usize) -> (Vec<u64>, Vec<u32>) {
        let mut dist = self.dist_pool.pop().unwrap_or_default();
        dist.clear();
        dist.resize(n, u64::MAX);
        let mut pred = self.pred_pool.pop().unwrap_or_default();
        pred.clear();
        pred.resize(n, NO_PRED);
        (dist, pred)
    }
}

/// A heap entry: distance and node id packed so that integer order is
/// `(dist, NodeId)` order.
trait Key: Copy + Ord {
    fn pack(dist: u64, node: NodeId) -> Self;
    fn dist(self) -> u64;
    fn node(self) -> usize;
}

/// Only sound while `dist < 2³²` — see the module docs.
impl Key for u64 {
    #[inline]
    fn pack(dist: u64, node: NodeId) -> u64 {
        (dist << 32) | u64::from(node.0)
    }
    #[inline]
    fn dist(self) -> u64 {
        self >> 32
    }
    #[inline]
    fn node(self) -> usize {
        self as u32 as usize
    }
}

impl Key for u128 {
    #[inline]
    fn pack(dist: u64, node: NodeId) -> u128 {
        (u128::from(dist) << 32) | u128::from(node.0)
    }
    #[inline]
    fn dist(self) -> u64 {
        (self >> 32) as u64
    }
    #[inline]
    fn node(self) -> usize {
        self as u32 as usize
    }
}

/// Binary min-heap over packed keys.
#[derive(Clone, Debug, Default)]
struct MinHeap<K>(Vec<K>);

impl<K: Key> MinHeap<K> {
    #[inline]
    fn push(&mut self, key: K) {
        let heap = &mut self.0;
        let mut i = heap.len();
        heap.push(key);
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent] <= key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = key;
    }

    #[inline]
    fn pop(&mut self) -> Option<K> {
        let heap = &mut self.0;
        let last = heap.pop()?;
        let Some(&top) = heap.first() else {
            return Some(last);
        };
        let heap = &mut heap[..];
        let n = heap.len();
        let mut hole = 0;
        let mut child = 1;
        while child < n {
            if child + 1 < n {
                child += usize::from(heap[child + 1] < heap[child]);
            }
            if last <= heap[child] {
                break;
            }
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        heap[hole] = last;
        Some(top)
    }
}

/// Dijkstra from `source` over `topo`, minimising `metric`.
///
/// Runs in `O(m log n)`; zero-weight links are allowed (the Waxman model
/// can draw delay 0). Allocates fresh working memory per call — hot
/// paths (the path providers, the live view) use
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
    dijkstra_masked(topo, source, metric, scratch, |_, _| true, |_, _| false)
}

/// [`dijkstra_with`] over the sub-graph whose half-edges satisfy
/// `usable(half_edge_index, neighbour)` (see
/// [`Topology::half_edge_base`]). Skipping an edge is the same as the
/// edge not existing: neighbour order and the tie-break are untouched,
/// so the result equals a run over a topology rebuilt without the
/// masked links — what lets [`crate::LivePaths`] answer for a degraded
/// domain without copying it.
///
/// `stop` is called on each node as it is settled; a `true` ends the run
/// there (see [Stopped runs](self#stopped-runs)).
pub(crate) fn dijkstra_masked(
    topo: &Topology,
    source: NodeId,
    metric: Metric,
    scratch: &mut DijkstraScratch,
    usable: impl Fn(usize, NodeId) -> bool,
    stop: impl FnMut(NodeId, &Settled<'_>) -> bool,
) -> ShortestPathTree {
    let n = topo.node_count();
    let (mut dist, mut pred) = scratch.take_bufs(n);
    scratch.done.clear();
    scratch.done.resize(n, false);
    let out = Out {
        done: &mut scratch.done,
        dist: &mut dist,
        pred: &mut pred,
        settled: &mut scratch.settled,
    };
    let rules = Rules { usable, stop };
    if narrow_keys(topo, metric) {
        run(topo, source, metric, &mut scratch.narrow, out, rules);
    } else {
        run(topo, source, metric, &mut scratch.wide, out, rules);
    }
    ShortestPathTree {
        source,
        metric,
        dist,
        pred,
    }
}

/// Do `u64` keys hold every distance `topo` can produce under `metric`?
fn narrow_keys(topo: &Topology, metric: Metric) -> bool {
    metric.of(topo.path_bound()) <= u64::from(u32::MAX)
}

/// The per-node arrays one run writes, and the settled-node tally it
/// adds to.
struct Out<'a> {
    done: &'a mut [bool],
    dist: &'a mut [u64],
    pred: &'a mut [u32],
    settled: &'a mut u64,
}

/// Which half-edges a run may use, and where it stops.
struct Rules<U, S> {
    usable: U,
    stop: S,
}

fn run<K: Key>(
    topo: &Topology,
    source: NodeId,
    metric: Metric,
    heap: &mut MinHeap<K>,
    out: Out<'_>,
    rules: Rules<impl Fn(usize, NodeId) -> bool, impl FnMut(NodeId, &Settled<'_>) -> bool>,
) {
    match metric {
        Metric::Delay => relax(topo, source, heap, out, |w| w.delay, rules),
        Metric::Cost => relax(topo, source, heap, out, |w| w.cost, rules),
    }
}

/// The loop itself, one instance per key width and per metric.
fn relax<K: Key>(
    topo: &Topology,
    source: NodeId,
    heap: &mut MinHeap<K>,
    out: Out<'_>,
    weight: impl Fn(&LinkWeight) -> u64,
    rules: Rules<impl Fn(usize, NodeId) -> bool, impl FnMut(NodeId, &Settled<'_>) -> bool>,
) {
    let Out {
        done,
        dist,
        pred,
        settled,
    } = out;
    let Rules { usable, mut stop } = rules;
    heap.0.clear();
    dist[source.index()] = 0;
    heap.push(K::pack(0, source));
    while let Some(key) = heap.pop() {
        let v = key.node();
        if done[v] {
            continue;
        }
        done[v] = true;
        *settled += 1;
        let d = key.dist();
        let node = NodeId(v as u32);
        if stop(node, &Settled { dist, pred }) {
            // Every node reached but not settled is still in the heap:
            // forget its tentative label.
            for key in &heap.0 {
                let u = key.node();
                if !done[u] {
                    dist[u] = u64::MAX;
                    pred[u] = NO_PRED;
                }
            }
            return;
        }
        let base = topo.half_edge_base(node);
        for (i, e) in topo.neighbors(node).iter().enumerate() {
            if !usable(base + i, e.to) {
                continue;
            }
            let to = e.to.index();
            let nd = d + weight(&e.weight);
            // Strict improvement, or equal distance via a smaller-id
            // predecessor: keeps tie-breaking deterministic and canonical.
            if nd < dist[to]
                || (nd == dist[to] && !done[to] && pred[to] != NO_PRED && node.0 < pred[to])
            {
                dist[to] = nd;
                pred[to] = node.0;
                heap.push(K::pack(nd, e.to));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyBuilder;
    use crate::rng::rng_for;
    use crate::topology::{gt_itm_flat, transit_stub, waxman, GtItmConfig, WaxmanConfig};
    use crate::{LivePaths, PathProvider};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::Arc;

    use crate::topology::examples::fig5;

    /// The kernel as it was before the packed heap: a std `BinaryHeap`
    /// of `(dist, NodeId)` tuples. The differential oracle.
    fn oracle(topo: &Topology, source: NodeId, metric: Metric) -> (Vec<u64>, Vec<Option<NodeId>>) {
        let n = topo.node_count();
        let mut dist = vec![u64::MAX; n];
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        let mut done = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source.index()] = 0;
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if done[v.index()] {
                continue;
            }
            done[v.index()] = true;
            for e in topo.neighbors(v) {
                let nd = d + metric.of(e.weight);
                let slot = &mut dist[e.to.index()];
                if nd < *slot
                    || (nd == *slot
                        && !done[e.to.index()]
                        && pred[e.to.index()].is_some_and(|p| v < p))
                {
                    *slot = nd;
                    pred[e.to.index()] = Some(v);
                    heap.push(Reverse((nd, e.to)));
                }
            }
        }
        (dist, pred)
    }

    /// `tree` equals the oracle's run over `topo`, entry for entry.
    fn assert_matches_oracle(
        tree: &ShortestPathTree,
        topo: &Topology,
    ) -> Result<(), TestCaseError> {
        let (dist, pred) = oracle(topo, tree.source(), tree.metric());
        for v in topo.nodes() {
            let want = (dist[v.index()] != u64::MAX).then_some(dist[v.index()]);
            prop_assert_eq!(tree.distance(v), want, "distance of {:?}", v);
            prop_assert_eq!(
                tree.predecessor(v),
                pred[v.index()],
                "predecessor of {:?}",
                v
            );
        }
        Ok(())
    }

    /// A search stopped on its `k`-th settled node against the oracle's
    /// full run over `topo`: the stop rule sees each settled node with
    /// the oracle's distance and predecessor, in distance order; the
    /// stopped tree holds exactly those nodes, with the same labels, and
    /// reads every other node as unreachable. `search` runs the stopped
    /// search from `src` with the rule it is given — or, as a provider
    /// may, answers with the full tree without calling the rule.
    fn assert_stopped_run_matches_oracle(
        topo: &Topology,
        src: NodeId,
        metric: Metric,
        k: usize,
        search: impl FnOnce(&mut dyn FnMut(NodeId, &Settled<'_>) -> bool) -> Arc<ShortestPathTree>,
    ) -> Result<(), TestCaseError> {
        let (dist, pred) = oracle(topo, src, metric);
        let mut seen = Vec::new();
        let tree = search(&mut |v, run| {
            seen.push((v, run.distance(v), run.predecessor(v)));
            seen.len() == k
        });
        if seen.is_empty() {
            return assert_matches_oracle(&tree, topo);
        }
        let reachable = dist.iter().filter(|&&d| d != u64::MAX).count();
        prop_assert_eq!(seen.len(), k.min(reachable));
        prop_assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
        let mut settled = vec![false; topo.node_count()];
        for &(v, d, p) in &seen {
            prop_assert_eq!((d, p), (dist[v.index()], pred[v.index()]), "seen {:?}", v);
            settled[v.index()] = true;
        }
        for v in topo.nodes() {
            let want = if settled[v.index()] {
                (Some(dist[v.index()]), pred[v.index()])
            } else {
                (None, None)
            };
            prop_assert_eq!(
                (tree.distance(v), tree.predecessor(v)),
                want,
                "node {:?}",
                v
            );
        }
        Ok(())
    }

    /// Every source, both metrics, one shared scratch (so recycled
    /// buffers and a warm heap are exercised too).
    fn assert_kernel_matches_oracle(topo: &Topology) -> Result<(), TestCaseError> {
        let mut scratch = DijkstraScratch::new();
        for src in topo.nodes() {
            for metric in [Metric::Delay, Metric::Cost] {
                let tree = dijkstra_with(topo, src, metric, &mut scratch);
                assert_matches_oracle(&tree, topo)?;
                scratch.recycle(tree);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Waxman graphs may draw delay-0 links: ties everywhere.
        #[test]
        fn kernel_matches_oracle_on_waxman(seed in 0u64..10_000, n in 2usize..40, grid in 1i64..200) {
            let cfg = WaxmanConfig { n, grid, min_delay_one: false, ..WaxmanConfig::default() };
            assert_kernel_matches_oracle(&waxman(&cfg, &mut rng_for("kernel-waxman", seed)))?;
        }

        #[test]
        fn kernel_matches_oracle_on_transit_stub(seed in 0u64..10_000, stub in 1usize..4, grid in 1i64..2_000) {
            let topo = transit_stub(3, 2, stub, grid, &mut rng_for("kernel-ts", seed));
            assert_kernel_matches_oracle(&topo)?;
        }

        #[test]
        fn kernel_matches_oracle_on_gt_itm(seed in 0u64..10_000, n in 2usize..40, deg in 1u32..6) {
            let cfg = GtItmConfig { n, average_degree: f64::from(deg), grid: 1000 };
            assert_kernel_matches_oracle(&gt_itm_flat(&cfg, &mut rng_for("kernel-gtitm", seed)))?;
        }

        /// Stopped runs over the plain kernel, on `u64` keys or — with
        /// every weight scaled by 2³² — on `u128` keys, one shared
        /// scratch for every source.
        #[test]
        fn stopped_kernel_matches_oracle(
            seed in 0u64..10_000,
            n in 2usize..30,
            k in 1usize..32,
            wide in any::<bool>(),
        ) {
            let cfg = WaxmanConfig { n, grid: 50, min_delay_one: false, ..WaxmanConfig::default() };
            let mut topo = waxman(&cfg, &mut rng_for("kernel-stop", seed));
            if wide {
                let mut b = TopologyBuilder::new(n);
                for &(a, z, w) in topo.edges() {
                    b.add_link(a, z, LinkWeight::new(w.delay << 32, w.cost << 32));
                }
                topo = b.build();
                prop_assert!(!narrow_keys(&topo, Metric::Cost));
            }
            let mut scratch = DijkstraScratch::new();
            for src in topo.nodes() {
                for metric in [Metric::Delay, Metric::Cost] {
                    let mut last = None;
                    assert_stopped_run_matches_oracle(&topo, src, metric, k, |stop| {
                        let tree = Arc::new(dijkstra_masked(&topo, src, metric, &mut scratch, |_, _| true, stop));
                        last = Some(Arc::clone(&tree));
                        tree
                    })?;
                    if let Ok(tree) = Arc::try_unwrap(last.expect("searched")) {
                        scratch.recycle(tree);
                    }
                }
            }
        }

        /// The masked kernel behind `LivePaths::tree` against the oracle
        /// over the topology rebuilt without the masked links and nodes.
        #[test]
        fn masked_kernel_matches_oracle_on_rebuild(
            seed in 0u64..10_000,
            n in 2usize..30,
            cut_pct in 0u32..60,
            down_pct in 0u32..30,
        ) {
            use rand::Rng;
            let cfg = WaxmanConfig { n, grid: 100, ..WaxmanConfig::default() };
            let topo = waxman(&cfg, &mut rng_for("kernel-live", seed));
            let mut rng = rng_for("kernel-live-mask", seed);
            let mut view = LivePaths::new(topo.clone());
            let cut: Vec<bool> = topo.edges().iter().map(|_| rng.gen_range(0..100u32) < cut_pct).collect();
            let down: Vec<bool> = topo.nodes().map(|_| rng.gen_range(0..100u32) < down_pct).collect();
            for (&(a, b, _), &c) in topo.edges().iter().zip(&cut) {
                view.set_link_down(a, b, c);
            }
            for v in topo.nodes() {
                view.set_node_down(v, down[v.index()]);
            }
            let edges = topo.edges();
            let surviving = topo.subtopology(
                |v| !down[v.index()],
                |a, b| !cut[edges.binary_search_by_key(&(a, b), |&(a, b, _)| (a, b)).unwrap()],
            );
            for src in topo.nodes() {
                for metric in [Metric::Delay, Metric::Cost] {
                    // Stopped first: once `tree` has cached the full tree,
                    // `tree_until` answers with it.
                    let k = 1 + (seed as usize + src.index()) % n;
                    assert_stopped_run_matches_oracle(&surviving, src, metric, k, |stop| {
                        view.tree_until(src, metric, stop)
                    })?;
                    assert_matches_oracle(&view.tree(src, metric), &surviving)?;
                }
            }
        }
    }

    /// Weights near 2³² push the path bound past 32 bits: the run must
    /// take the `u128` keys and still match the oracle, where `u64` keys
    /// would not.
    #[test]
    fn large_weights_take_the_wide_keys() {
        let big = u64::from(u32::MAX) - 7;
        let mut b = TopologyBuilder::new(6);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(big, 1));
        b.add_link(NodeId(1), NodeId(2), LinkWeight::new(big, 1));
        b.add_link(NodeId(0), NodeId(3), LinkWeight::new(big - 1, 2));
        b.add_link(NodeId(3), NodeId(2), LinkWeight::new(1, 2));
        b.add_link(NodeId(2), NodeId(4), LinkWeight::new(big, 3));
        b.add_link(NodeId(4), NodeId(5), LinkWeight::new(1, 1));
        let topo = b.build();
        assert!(
            !narrow_keys(&topo, Metric::Delay),
            "delay bound exceeds 32 bits"
        );
        assert!(narrow_keys(&topo, Metric::Cost), "cost bound does not");
        assert_kernel_matches_oracle(&topo).unwrap();
        let far = dijkstra(&topo, NodeId(0), Metric::Delay);
        assert_eq!(far.distance(NodeId(5)), Some(2 * big + 1));
        assert!(far.distance(NodeId(4)).unwrap() > u64::from(u32::MAX));

        // The same loop on u64 keys truncates those distances.
        let mut scratch = DijkstraScratch::new();
        let (mut dist, mut pred) = scratch.take_bufs(6);
        let mut done = vec![false; 6];
        let out = Out {
            done: &mut done,
            dist: &mut dist,
            pred: &mut pred,
            settled: &mut 0,
        };
        let rules = Rules {
            usable: |_, _| true,
            stop: |_, _: &Settled<'_>| false,
        };
        run(
            &topo,
            NodeId(0),
            Metric::Delay,
            &mut scratch.narrow,
            out,
            rules,
        );
        let (want, _) = oracle(&topo, NodeId(0), Metric::Delay);
        assert_ne!(dist, want, "narrow keys must not be used here");
    }

    /// `u64::MAX` is the "unreachable" distance, so a node exactly that
    /// far stays unreached: the tie clause never adopts a predecessor
    /// for a node that has none.
    #[test]
    fn a_distance_of_u64_max_reads_as_unreachable() {
        let half = u64::MAX / 2;
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(half, 1));
        b.add_link(NodeId(1), NodeId(2), LinkWeight::new(u64::MAX - half, 1));
        let topo = b.build();
        let tree = dijkstra(&topo, NodeId(0), Metric::Delay);
        assert_matches_oracle(&tree, &topo).unwrap();
        assert_eq!(
            (tree.distance(NodeId(2)), tree.predecessor(NodeId(2))),
            (None, None)
        );
    }

    #[test]
    fn path_bound_is_the_smaller_of_sum_and_longest_path() {
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(10, 1));
        b.add_link(NodeId(1), NodeId(2), LinkWeight::new(1, 1));
        b.add_link(NodeId(2), NodeId(3), LinkWeight::new(1, 1));
        b.add_link(NodeId(3), NodeId(0), LinkWeight::new(1, 1));
        let topo = b.build();
        // Delay: Σ = 13 < 3·10; cost: 3·1 < Σ = 4.
        assert_eq!(topo.path_bound(), LinkWeight::new(13, 3));
        assert_eq!(
            TopologyBuilder::new(1).build().path_bound(),
            LinkWeight::new(0, 0)
        );
        assert!(narrow_keys(&topo, Metric::Delay));
    }

    #[test]
    fn resident_bytes_are_twelve_per_node() {
        let t = fig5();
        assert_eq!(
            dijkstra(&t, NodeId(0), Metric::Delay).resident_bytes(),
            12 * 6
        );
    }

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
