//! On-demand path provision — the abstraction over `P_sl`/`P_lc`.
//!
//! The paper precomputes all-pairs path tables at the m-router
//! (§III-D), which is `O(n²)` memory and `2n` Dijkstra runs up front —
//! fine at 50 nodes, fatal at 10k. [`PathProvider`] is the seam that
//! hides the choice: [`crate::AllPairsPaths`] stays the eager
//! implementation for paper-scale graphs, while [`OnDemandPaths`]
//! computes source trees lazily and memoizes them in a bounded LRU.
//! Both produce bit-identical trees (same Dijkstra, same tie-breaking),
//! so swapping implementations never perturbs a golden trace.
//!
//! Every algorithm takes `&dyn PathProvider`; the workloads those
//! algorithms generate ask for the full trees of only a handful of
//! sources (the m-router and the unicast destinations), which is exactly
//! what makes the lazy provider `O(n·cached)` instead of `O(n²)`. A
//! joining member's trees are searched only as far as DCDM's stop rule
//! needs ([`PathProvider::tree_until`]) and never cached. Inside an engine the one
//! provider is [`crate::LivePaths`], whose healthy store is picked by
//! [`ALL_PAIRS_MAX_NODES`] like [`provider_for`]; the free-standing
//! providers serve analyses and experiments outside an engine.

use crate::dijkstra::{
    dijkstra_masked, dijkstra_with, DijkstraScratch, Metric, Settled, ShortestPathTree,
};
use crate::graph::{NodeId, Topology};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A source of shortest-path trees under either link metric.
///
/// The trait is object-safe; algorithms take `&dyn PathProvider` so one
/// compiled body serves every implementation. Trees are returned as
/// `Arc`s — the provider may share them with its cache (or with every
/// router of an engine, which all read one [`crate::LivePaths`]), and a
/// caller doing many queries against one source should hold the `Arc`
/// rather than re-asking per query.
///
/// A caller that needs only the near part of a tree asks
/// [`PathProvider::tree_until`]: the lazy stores then settle only what
/// the caller's stop rule asks for and cache nothing, while the eager
/// tables (and every cached tree) answer with the full tree.
pub trait PathProvider: fmt::Debug + Send + Sync {
    /// Number of nodes paths are provided for.
    fn node_count(&self) -> usize;

    /// The Dijkstra tree rooted at `src` for `metric`.
    fn tree(&self, src: NodeId, metric: Metric) -> Arc<ShortestPathTree>;

    /// The tree rooted at `src` for `metric`, settled at least up to the
    /// first node on which `stop` answers `true`.
    ///
    /// A provider may run a search that calls `stop` on each node as it
    /// is settled, with the run's [`Settled`] view (that node's final
    /// distance and predecessor chain), and ends at the first `true`:
    /// every node it did not settle then reads as unreachable. Or it may
    /// answer with the full [`PathProvider::tree`] without calling `stop`
    /// at all — the default does, and so does a store that has the tree
    /// cached. Either way the nodes the answer holds carry their full
    /// tree's distance and predecessor, so a caller whose rule is sound
    /// reads the same answer from both. `stop` must not query the
    /// provider.
    fn tree_until(
        &self,
        src: NodeId,
        metric: Metric,
        stop: &mut dyn FnMut(NodeId, &Settled<'_>) -> bool,
    ) -> Arc<ShortestPathTree> {
        let _ = stop;
        self.tree(src, metric)
    }

    /// Bytes of resident path state (cached or precomputed trees) —
    /// the quantity the `scale` bench tracks to prove the
    /// `O(n²) → O(n·cached)` claim.
    fn resident_path_bytes(&self) -> usize;

    /// Shortest distance from `src` to `dst` under `metric` (`None` if
    /// disconnected).
    fn distance(&self, src: NodeId, dst: NodeId, metric: Metric) -> Option<u64> {
        self.tree(src, metric).distance(dst)
    }

    /// The paper's unicast delay `ul`: delay of the shortest-delay path.
    fn unicast_delay(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.distance(src, dst, Metric::Delay)
    }

    /// The path `src -> … -> dst` optimal under `metric`.
    fn path(&self, src: NodeId, dst: NodeId, metric: Metric) -> Option<Vec<NodeId>> {
        self.tree(src, metric).path_to(dst)
    }
}

// `Box<dyn PathProvider>` (what `provider_for` hands out) is itself a
// provider, so `&boxed` coerces to `&dyn PathProvider` at call sites.
impl<P: PathProvider + ?Sized> PathProvider for Box<P> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn tree(&self, src: NodeId, metric: Metric) -> Arc<ShortestPathTree> {
        (**self).tree(src, metric)
    }

    fn tree_until(
        &self,
        src: NodeId,
        metric: Metric,
        stop: &mut dyn FnMut(NodeId, &Settled<'_>) -> bool,
    ) -> Arc<ShortestPathTree> {
        (**self).tree_until(src, metric, stop)
    }

    fn resident_path_bytes(&self) -> usize {
        (**self).resident_path_bytes()
    }
}

/// Cache observability counters for [`OnDemandPaths`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tree queries answered from the LRU.
    pub hits: u64,
    /// Tree queries that ran Dijkstra, full or stopped.
    pub misses: u64,
    /// Nodes settled by those runs.
    pub settled: u64,
    /// Trees evicted to respect the capacity bound.
    pub evictions: u64,
    /// Trees currently resident.
    pub resident: usize,
}

struct Slot {
    tree: Arc<ShortestPathTree>,
    last_used: u64,
}

/// A bounded deterministic-LRU of interned shortest-path trees plus the
/// Dijkstra scratch that fills it — the memo behind [`OnDemandPaths`]
/// and behind [`crate::LivePaths`]' per-epoch trees.
///
/// At most `capacity` trees are resident; the least-recently-used entry
/// is evicted (ties broken toward the smaller key so eviction order is
/// deterministic). Evicted or cleared trees that nothing else still
/// references donate their buffers back to the scratch pool, and so do
/// the stopped trees it lent out, once their callers drop them.
pub(crate) struct TreeCache {
    capacity: usize,
    slots: HashMap<(u32, Metric), Slot>,
    scratch: DijkstraScratch,
    /// Stopped trees handed out and never interned.
    lent: Vec<Arc<ShortestPathTree>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl TreeCache {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache must hold at least one tree");
        TreeCache {
            capacity,
            slots: HashMap::new(),
            scratch: DijkstraScratch::new(),
            lent: Vec::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The interned tree for `(root, metric)`, if any, counted as a hit
    /// and marked most recently used.
    fn hit(&mut self, root: NodeId, metric: Metric) -> Option<Arc<ShortestPathTree>> {
        self.tick += 1;
        let slot = self.slots.get_mut(&(root.0, metric))?;
        slot.last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&slot.tree))
    }

    /// The tree for `(root, metric)`: a hash lookup on a hit; on a miss
    /// `run` computes it with the cache's scratch and it is interned.
    pub(crate) fn get_or_run(
        &mut self,
        root: NodeId,
        metric: Metric,
        run: impl FnOnce(&mut DijkstraScratch) -> ShortestPathTree,
    ) -> Arc<ShortestPathTree> {
        if let Some(tree) = self.hit(root, metric) {
            return tree;
        }
        self.misses += 1;
        if self.slots.len() >= self.capacity {
            // Evict the LRU entry; tie-break toward the smaller key so
            // eviction (and thus the scratch pool state) is
            // deterministic for identical query sequences.
            let victim = self
                .slots
                .iter()
                .min_by_key(|(&(id, m), slot)| (slot.last_used, id, m as u8))
                .map(|(&k, _)| k)
                .expect("cache non-empty");
            let slot = self.slots.remove(&victim).expect("victim present");
            self.evictions += 1;
            if let Ok(tree) = Arc::try_unwrap(slot.tree) {
                self.scratch.recycle(tree);
            }
        }
        let tree = Arc::new(run(&mut self.scratch));
        self.slots.insert(
            (root.0, metric),
            Slot {
                tree: Arc::clone(&tree),
                last_used: self.tick,
            },
        );
        tree
    }

    /// The interned tree for `(root, metric)` on a hit; on a miss `run`
    /// searches with the cache's scratch and the (possibly stopped) tree
    /// is lent out, not interned. What it lent earlier and got back
    /// donates its buffers first.
    pub(crate) fn get_or_search(
        &mut self,
        root: NodeId,
        metric: Metric,
        run: impl FnOnce(&mut DijkstraScratch) -> ShortestPathTree,
    ) -> Arc<ShortestPathTree> {
        if let Some(tree) = self.hit(root, metric) {
            return tree;
        }
        self.misses += 1;
        for tree in std::mem::take(&mut self.lent) {
            match Arc::try_unwrap(tree) {
                Ok(tree) => self.scratch.recycle(tree),
                Err(tree) => self.lent.push(tree),
            }
        }
        let tree = Arc::new(run(&mut self.scratch));
        self.lent.push(Arc::clone(&tree));
        tree
    }

    /// Forget every tree (the counters and the scratch pool survive).
    pub(crate) fn clear(&mut self) {
        for (_, slot) in self.slots.drain() {
            if let Ok(tree) = Arc::try_unwrap(slot.tree) {
                self.scratch.recycle(tree);
            }
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            settled: self.scratch.settled(),
            evictions: self.evictions,
            resident: self.slots.len(),
        }
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.slots.values().map(|s| s.tree.resident_bytes()).sum()
    }
}

/// Lazy, memoized source-tree provider with a bounded LRU of interned
/// trees.
///
/// * A `tree(src, metric)` miss runs one Dijkstra (reusing scratch
///   buffers across runs) and caches the result; a hit is a hash lookup.
/// * A [`PathProvider::tree_until`] miss runs a search that stops where
///   the caller's rule says and caches nothing; a hit answers with the
///   cached full tree.
/// * The cache holds at most `capacity` trees; the least-recently-used
///   entry is evicted (ties broken toward the smaller key so eviction
///   order is deterministic). Evicted trees that nothing else still
///   references donate their buffers back to the scratch pool.
///
/// Interior state sits behind a `Mutex`, so a provider can be shared —
/// as the healthy store of a large [`crate::LivePaths`], it serves every
/// router of an engine; with single-threaded access the lock is
/// uncontended.
pub struct OnDemandPaths {
    topo: Arc<Topology>,
    state: Mutex<TreeCache>,
}

impl fmt::Debug for OnDemandPaths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock().expect("provider lock");
        f.debug_struct("OnDemandPaths")
            .field("nodes", &self.topo.node_count())
            .field("capacity", &st.capacity)
            .field("stats", &st.stats())
            .finish()
    }
}

/// Default LRU capacity: enough for every workload in the workspace
/// (m-router + members of the active groups) while bounding resident
/// path state to `O(n · DEFAULT_TREE_CAPACITY)`.
pub const DEFAULT_TREE_CAPACITY: usize = 128;

impl OnDemandPaths {
    /// Provider over `topo` with the default cache capacity.
    pub fn new(topo: Arc<Topology>) -> Self {
        OnDemandPaths::with_capacity(topo, DEFAULT_TREE_CAPACITY)
    }

    /// Provider over a borrowed topology (clones it; the CSR arrays are
    /// a few MB even at 10k nodes).
    pub fn from_topology(topo: &Topology) -> Self {
        OnDemandPaths::new(Arc::new(topo.clone()))
    }

    /// Provider with an explicit LRU capacity (≥ 1).
    pub fn with_capacity(topo: Arc<Topology>, capacity: usize) -> Self {
        OnDemandPaths {
            topo,
            state: Mutex::new(TreeCache::new(capacity)),
        }
    }

    /// Cache counters (hits/misses/evictions/resident).
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("provider lock").stats()
    }
}

impl PathProvider for OnDemandPaths {
    fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    fn tree(&self, src: NodeId, metric: Metric) -> Arc<ShortestPathTree> {
        self.state
            .lock()
            .expect("provider lock")
            .get_or_run(src, metric, |scratch| {
                dijkstra_with(&self.topo, src, metric, scratch)
            })
    }

    fn tree_until(
        &self,
        src: NodeId,
        metric: Metric,
        stop: &mut dyn FnMut(NodeId, &Settled<'_>) -> bool,
    ) -> Arc<ShortestPathTree> {
        self.state
            .lock()
            .expect("provider lock")
            .get_or_search(src, metric, |scratch| {
                dijkstra_masked(&self.topo, src, metric, scratch, |_, _| true, stop)
            })
    }

    fn resident_path_bytes(&self) -> usize {
        self.state.lock().expect("provider lock").resident_bytes()
    }
}

/// Node count at or below which the eager all-pairs tables stay the
/// better trade (tiny graphs, every source queried repeatedly). Above
/// it, [`provider_for`] returns an [`OnDemandPaths`].
pub const ALL_PAIRS_MAX_NODES: usize = 256;

/// Pick a provider implementation for `topo` by size: eager
/// [`crate::AllPairsPaths`] at paper scale, [`OnDemandPaths`] beyond
/// [`ALL_PAIRS_MAX_NODES`]. Both yield identical answers; only memory
/// and compute scheduling differ.
pub fn provider_for(topo: &Topology) -> Box<dyn PathProvider> {
    provider_over(Arc::new(topo.clone()))
}

/// [`provider_for`] over a topology the caller keeps sharing (the live
/// view's healthy store).
pub(crate) fn provider_over(topo: Arc<Topology>) -> Box<dyn PathProvider> {
    if topo.node_count() <= ALL_PAIRS_MAX_NODES {
        Box::new(crate::AllPairsPaths::compute(&topo))
    } else {
        Box::new(OnDemandPaths::new(topo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkWeight, TopologyBuilder};
    use crate::paths::AllPairsPaths;
    use crate::topology::examples::fig5;

    fn on_demand(topo: &Topology, cap: usize) -> OnDemandPaths {
        OnDemandPaths::with_capacity(Arc::new(topo.clone()), cap)
    }

    #[test]
    fn matches_all_pairs_on_fig5() {
        let topo = fig5();
        let ap = AllPairsPaths::compute(&topo);
        let od = on_demand(&topo, 3); // force evictions
        for s in topo.nodes() {
            for d in topo.nodes() {
                for m in [Metric::Delay, Metric::Cost] {
                    assert_eq!(od.distance(s, d, m), ap.distance(s, d, m));
                    assert_eq!(od.path(s, d, m), ap.path(s, d, m));
                }
            }
        }
        let st = od.stats();
        assert!(st.evictions > 0, "capacity 3 must evict");
        assert_eq!(st.resident, 3);
    }

    #[test]
    fn cache_hits_are_counted_and_shared() {
        let topo = fig5();
        let od = on_demand(&topo, 8);
        let a = od.tree(NodeId(0), Metric::Delay);
        let b = od.tree(NodeId(0), Metric::Delay);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the interned tree");
        let st = od.stats();
        assert_eq!((st.hits, st.misses), (1, 1));
    }

    /// A stopped search is a miss that settles only what its rule asks
    /// for and caches nothing; once the full tree is cached it answers
    /// without calling the rule.
    #[test]
    fn stopped_searches_are_counted_and_never_cached() {
        let topo = fig5();
        let od = on_demand(&topo, 8);
        let mut calls = 0;
        let mut stop_at_3 = |v: NodeId, _: &Settled<'_>| {
            calls += 1;
            v == NodeId(3)
        };
        let near = od.tree_until(NodeId(0), Metric::Delay, &mut stop_at_3);
        // Delay order from node 0 on Fig. 5: 0 (0), 3 (2).
        assert_eq!(calls, 2);
        assert_eq!(near.distance(NodeId(3)), Some(2));
        assert_eq!(near.distance(NodeId(1)), None);
        let st = od.stats();
        assert_eq!((st.hits, st.misses, st.settled, st.resident), (0, 1, 2, 0));
        assert_eq!(od.resident_path_bytes(), 0);

        drop(near);
        let full = od.tree(NodeId(0), Metric::Delay);
        let mut never = |_: NodeId, _: &Settled<'_>| -> bool { panic!("a hit runs no search") };
        assert!(Arc::ptr_eq(
            &od.tree_until(NodeId(0), Metric::Delay, &mut never),
            &full
        ));
        let st = od.stats();
        assert_eq!((st.hits, st.misses, st.settled, st.resident), (1, 2, 8, 1));
    }

    #[test]
    fn evicted_tree_requery_is_consistent() {
        let topo = fig5();
        let od = on_demand(&topo, 1);
        let before = od.tree(NodeId(2), Metric::Cost);
        od.tree(NodeId(3), Metric::Cost);
        assert_eq!(od.stats().resident, 1);
        let after = od.tree(NodeId(2), Metric::Cost);
        assert!(!Arc::ptr_eq(&before, &after), "evicted: recomputed");
        for v in topo.nodes() {
            assert_eq!(before.distance(v), after.distance(v));
            assert_eq!(before.predecessor(v), after.predecessor(v));
        }
        assert_eq!(od.stats().misses, 3, "requery recomputes");
    }

    #[test]
    fn resident_bytes_bounded_by_capacity() {
        let topo = fig5();
        let od = on_demand(&topo, 2);
        for s in topo.nodes() {
            od.tree(s, Metric::Delay);
        }
        let per_tree = od.tree(NodeId(0), Metric::Delay).resident_bytes();
        assert!(od.resident_path_bytes() <= 2 * per_tree);
    }

    #[test]
    fn provider_for_picks_by_size() {
        let small = fig5();
        assert_eq!(provider_for(&small).node_count(), 6);
        let mut b = TopologyBuilder::new(ALL_PAIRS_MAX_NODES + 2);
        for i in 0..(ALL_PAIRS_MAX_NODES as u32 + 1) {
            b.add_link(NodeId(i), NodeId(i + 1), LinkWeight::new(1, 1));
        }
        let big = b.build();
        let p = provider_for(&big);
        assert_eq!(p.node_count(), ALL_PAIRS_MAX_NODES + 2);
        // A line graph: distance across the chain is its length.
        assert_eq!(
            p.distance(
                NodeId(0),
                NodeId(ALL_PAIRS_MAX_NODES as u32 + 1),
                Metric::Delay
            ),
            Some(ALL_PAIRS_MAX_NODES as u64 + 1)
        );
        // Resident path state stays O(cached), not O(n²).
        assert!(p.resident_path_bytes() <= DEFAULT_TREE_CAPACITY * big.node_count() * 17);
    }

    #[test]
    fn unreachable_and_self_queries() {
        let mut b = TopologyBuilder::new(4);
        b.add_link(NodeId(0), NodeId(1), LinkWeight::new(1, 1));
        let topo = b.build();
        let od = on_demand(&topo, 4);
        assert_eq!(od.distance(NodeId(0), NodeId(3), Metric::Delay), None);
        assert_eq!(od.path(NodeId(0), NodeId(3), Metric::Cost), None);
        assert_eq!(
            od.path(NodeId(1), NodeId(1), Metric::Delay),
            Some(vec![NodeId(1)])
        );
        assert_eq!(od.distance(NodeId(1), NodeId(1), Metric::Delay), Some(0));
    }
}
