//! The immutable per-domain context shared by every router.

use super::ScmpConfig;
use scmp_net::Topology;
use std::sync::Arc;

/// Immutable domain context shared by all routers. The m-router's
/// link-state database is not here: every router reads the engine's one
/// path store, [`scmp_net::LivePaths`], through `Ctx::routes`.
#[derive(Debug)]
pub struct ScmpDomain {
    /// The domain topology.
    pub topo: Topology,
    /// Protocol configuration.
    pub config: ScmpConfig,
}

impl ScmpDomain {
    /// Build the shared context.
    pub fn new(topo: Topology, config: ScmpConfig) -> Arc<Self> {
        Arc::new(ScmpDomain { topo, config })
    }
}
