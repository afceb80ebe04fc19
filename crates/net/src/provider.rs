//! On-demand path provision — the abstraction over `P_sl`/`P_lc`.
//!
//! The paper precomputes all-pairs path tables at the m-router
//! (§III-D), which is `O(n²)` memory and `2n` Dijkstra runs up front —
//! fine at 50 nodes, fatal at 10k. [`PathProvider`] is the seam that
//! hides the choice: [`crate::AllPairsPaths`] stays the eager
//! implementation for paper-scale graphs, while [`OnDemandPaths`]
//! computes source trees lazily, memoizes them in a bounded LRU, and
//! exposes explicit invalidation for fault/repair-driven topology
//! changes. Both produce bit-identical trees (same Dijkstra, same
//! tie-breaking), so swapping implementations never perturbs a golden
//! trace.
//!
//! Every algorithm that used to take `&AllPairsPaths` now takes
//! `&dyn PathProvider`; the workloads those algorithms generate touch
//! only a handful of sources (the m-router plus the joining members),
//! which is exactly what makes the lazy provider `O(n·cached)` instead
//! of `O(n²)`.

use crate::dijkstra::{dijkstra_with, DijkstraScratch, Metric, ShortestPathTree};
use crate::graph::{NodeId, Topology};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A source of shortest-path trees under either link metric.
///
/// The trait is object-safe; algorithms take `&dyn PathProvider` so one
/// compiled body serves both implementations. Trees are returned as
/// `Arc`s — the provider may share them with its cache (or with other
/// routers: MOSPF's per-source SPTs are one shared provider), and a
/// caller doing many queries against one source should hold the `Arc`
/// rather than re-asking per query.
pub trait PathProvider: fmt::Debug + Send + Sync {
    /// Number of nodes paths are provided for.
    fn node_count(&self) -> usize;

    /// The Dijkstra tree rooted at `src` for `metric`.
    fn tree(&self, src: NodeId, metric: Metric) -> Arc<ShortestPathTree>;

    /// Drop memoized state. After a call, queries recompute from the
    /// provider's topology. Invalidation contract: implementations whose
    /// answers derive from an immutable snapshot ([`crate::AllPairsPaths`])
    /// may no-op; caching implementations must forget every tree.
    fn invalidate(&self) {}

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

    /// Next hop from `src` toward `dst` along the shortest-delay path —
    /// what a unicast routing table would return. `None` when
    /// `src == dst` or unreachable.
    fn next_hop_by_delay(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        if src == dst {
            return None;
        }
        let tree = self.tree(src, Metric::Delay);
        let mut cur = dst;
        loop {
            let pred = tree.predecessor(cur)?;
            if pred == src {
                return Some(cur);
            }
            cur = pred;
        }
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

    fn invalidate(&self) {
        (**self).invalidate()
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
    /// Tree queries that ran Dijkstra.
    pub misses: u64,
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
/// references donate their buffers back to the scratch pool.
pub(crate) struct TreeCache {
    capacity: usize,
    slots: HashMap<(u32, Metric), Slot>,
    scratch: DijkstraScratch,
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
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The tree for `(root, metric)`: a hash lookup on a hit; on a miss
    /// `run` computes it with the cache's scratch and it is interned.
    pub(crate) fn get_or_run(
        &mut self,
        root: NodeId,
        metric: Metric,
        run: impl FnOnce(&mut DijkstraScratch) -> ShortestPathTree,
    ) -> Arc<ShortestPathTree> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.slots.get_mut(&(root.0, metric)) {
            slot.last_used = tick;
            self.hits += 1;
            return Arc::clone(&slot.tree);
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
                last_used: tick,
            },
        );
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
/// * The cache holds at most `capacity` trees; the least-recently-used
///   entry is evicted (ties broken toward the smaller key so eviction
///   order is deterministic). Evicted trees that nothing else still
///   references donate their buffers back to the scratch pool.
/// * [`OnDemandPaths::set_topology`] swaps in a new topology view and
///   invalidates. Plain [`PathProvider::invalidate`] keeps the topology
///   and drops the memoized trees.
///
/// Interior state sits behind a `Mutex`, so a provider can be shared
/// (`Arc<OnDemandPaths>`) by every router of a simulated domain; with
/// single-threaded access the lock is uncontended.
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

    /// The topology paths are provided over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Swap in a new topology and drop every memoized tree. The
    /// Dijkstra scratch pool survives, so re-population reuses the old
    /// allocations.
    pub fn set_topology(&mut self, topo: Arc<Topology>) {
        self.topo = topo;
        self.invalidate();
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

    fn invalidate(&self) {
        self.state.lock().expect("provider lock").clear();
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
    if topo.node_count() <= ALL_PAIRS_MAX_NODES {
        Box::new(crate::AllPairsPaths::compute(topo))
    } else {
        Box::new(OnDemandPaths::from_topology(topo))
    }
}

/// [`provider_for`], shareable: routers of one simulated domain hold
/// clones of the same `Arc` so source trees are computed once per domain
/// rather than once per router (MOSPF's per-source SPTs, notably).
pub fn shared_provider_for(topo: &Topology) -> Arc<dyn PathProvider> {
    if topo.node_count() <= ALL_PAIRS_MAX_NODES {
        Arc::new(crate::AllPairsPaths::compute(topo))
    } else {
        Arc::new(OnDemandPaths::from_topology(topo))
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
                assert_eq!(od.next_hop_by_delay(s, d), ap.next_hop_by_delay(s, d));
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

    #[test]
    fn invalidate_then_requery_is_consistent() {
        let topo = fig5();
        let od = on_demand(&topo, 8);
        let before = od.tree(NodeId(2), Metric::Cost).distance(NodeId(4));
        od.invalidate();
        assert_eq!(od.stats().resident, 0);
        assert_eq!(od.resident_path_bytes(), 0);
        let after = od.tree(NodeId(2), Metric::Cost).distance(NodeId(4));
        assert_eq!(before, after);
        assert_eq!(od.stats().misses, 2, "requery recomputes");
    }

    #[test]
    fn set_topology_switches_the_answers() {
        let topo = fig5();
        let mut od = on_demand(&topo, 8);
        let full = od.unicast_delay(NodeId(0), NodeId(4));
        assert!(full.is_some());
        // Cut node 1 out: 0-1-4 dies, the detour via 2 takes over.
        let cut = topo.without_node(NodeId(1));
        let expect = AllPairsPaths::compute(&cut).unicast_delay(NodeId(0), NodeId(4));
        od.set_topology(Arc::new(cut));
        assert_eq!(od.unicast_delay(NodeId(0), NodeId(4)), expect);
        assert_ne!(od.unicast_delay(NodeId(0), NodeId(4)), full);
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
        assert_eq!(od.next_hop_by_delay(NodeId(1), NodeId(1)), None);
        assert_eq!(od.next_hop_by_delay(NodeId(0), NodeId(3)), None);
    }
}
