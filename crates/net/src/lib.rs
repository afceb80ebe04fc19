//! # scmp-net — network substrate for the SCMP reproduction
//!
//! This crate models the intra-domain network that the Service-Centric
//! Multicast Protocol (SCMP, Yang/Wang/Yang, ICPP 2006) runs over:
//!
//! * [`Topology`] — an undirected graph of routers connected by symmetric
//!   links, each link carrying a *(delay, cost)* pair exactly as in the
//!   paper (§III-A: "each link has two parameters: link delay and link
//!   cost ... links are symmetric").
//! * [`mod@dijkstra`] — single-source shortest paths under either metric.
//! * [`PathProvider`] — the path-table abstraction the tree algorithms
//!   consume. [`AllPairsPaths`] is the paper's eager `P_sl`/`P_lc`
//!   precomputation ("for each router on the tree, there are two paths,
//!   P_lc and P_sl, ... which were computed in advance");
//!   [`OnDemandPaths`] computes source trees lazily behind a bounded LRU
//!   so 10k-node domains don't pay `O(n²)` memory. [`provider_for`]
//!   picks by size.
//! * [`LivePaths`] — the live path view: the static topology, a liveness
//!   mask with an epoch, and the paths over whatever is alive. The
//!   link-state unicast routing protocol the paper assumes is running in
//!   the domain; every layer of the simulator queries this one value.
//! * [`RoutingTables`] — per-node unicast next-hop tables of a fixed
//!   topology, derived from the shortest-delay paths: the view's healthy
//!   state (dense matrix at paper scale, lazy per-destination rows
//!   beyond [`routing::DENSE_MAX_NODES`]) and the oracle its degraded
//!   answers are tested against.
//! * [`topology`] — generators: the paper's Waxman model (§IV-A), a
//!   GT-ITM-like flat random model with target average degree (§IV-B),
//!   a transit–stub model, the classic ARPANET map, and regular test
//!   topologies (line, ring, star, grid).

pub mod dijkstra;
pub mod export;
pub mod graph;
pub mod live;
pub mod metrics;
pub mod paths;
pub mod provider;
pub mod rng;
pub mod routing;
pub mod topology;

pub use dijkstra::{dijkstra, dijkstra_with, DijkstraScratch, Metric, ShortestPathTree};
pub use graph::{EdgeRef, LinkWeight, NodeId, Topology, TopologyBuilder};
pub use live::LivePaths;
pub use paths::AllPairsPaths;
pub use provider::{provider_for, shared_provider_for, CacheStats, OnDemandPaths, PathProvider};
pub use routing::RoutingTables;
