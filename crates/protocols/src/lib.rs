//! # scmp-protocols — the protocol registry
//!
//! One place that knows how to construct a simulation engine for every
//! multicast protocol in the workspace: SCMP itself plus the §IV-B
//! baselines (CBT, DVMRP, MOSPF) and the §I-discussed PIM-SM.
//!
//! Experiment harnesses and integration tests used to repeat the same
//! `match protocol { ... Engine::new(...) ... }` block; they now go
//! through [`build_engine`], which erases the per-protocol router type
//! behind [`EngineRunner`]. Code that needs to inspect SCMP state after
//! the run (routing entries, the m-router mirror) uses the typed
//! [`build_scmp_engine`] instead — construction still happens here.

use scmp_baselines::{
    CbtConfig, CbtRouter, DvmrpConfig, DvmrpRouter, MospfRouter, PimConfig, PimSmRouter,
};
use scmp_core::router::{ScmpConfig, ScmpDomain, ScmpRouter};
use scmp_net::{NodeId, Topology};
use scmp_sim::{Engine, EngineRunner};
use serde::Serialize;
use std::sync::Arc;

/// Every protocol the workspace can simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ProtocolKind {
    /// The paper's service-centric multicast protocol.
    Scmp,
    /// Core-based trees (shared bidirectional tree, join + ack).
    Cbt,
    /// DVMRP flood-and-prune (source-rooted broadcast trees).
    Dvmrp,
    /// Multicast OSPF (per-source shortest-path trees from the LSDB).
    Mospf,
    /// PIM sparse mode (unidirectional shared tree rooted at the RP).
    PimSm,
}

impl ProtocolKind {
    /// Every registered protocol.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Scmp,
        ProtocolKind::Cbt,
        ProtocolKind::Dvmrp,
        ProtocolKind::Mospf,
        ProtocolKind::PimSm,
    ];

    /// The four protocols of the paper's Fig. 8/9 comparison, in its
    /// order of discussion.
    pub const FIG_8_9: [ProtocolKind; 4] = [
        ProtocolKind::Scmp,
        ProtocolKind::Cbt,
        ProtocolKind::Dvmrp,
        ProtocolKind::Mospf,
    ];

    /// The shared-tree trio of the PIM-SM side experiment.
    pub const SHARED_TREE: [ProtocolKind; 3] =
        [ProtocolKind::Scmp, ProtocolKind::Cbt, ProtocolKind::PimSm];

    /// Output label (also the accepted [`parse`](Self::parse) spelling).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Scmp => "scmp",
            ProtocolKind::Cbt => "cbt",
            ProtocolKind::Dvmrp => "dvmrp",
            ProtocolKind::Mospf => "mospf",
            ProtocolKind::PimSm => "pim-sm",
        }
    }

    /// Inverse of [`label`](Self::label).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Everything a protocol needs beyond the topology. The `center` doubles
/// as SCMP's m-router, CBT's core and PIM-SM's rendezvous point, so the
/// comparisons place all shared-tree roots on the same node.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolParams {
    /// Shared-tree root: m-router / core / RP. Ignored by the
    /// source-rooted protocols (DVMRP, MOSPF).
    pub center: NodeId,
    /// DVMRP prune lifetime; the flood-prune cycle repeats at this
    /// period. Ignored by everything else.
    pub dvmrp_prune_timeout: u64,
}

impl ProtocolParams {
    /// Params with the paper's 10-second DVMRP prune lifetime
    /// (10 × 50 000 ticks).
    pub fn new(center: NodeId) -> Self {
        ProtocolParams {
            center,
            dvmrp_prune_timeout: 500_000,
        }
    }
}

/// Build an SCMP engine with full control over the [`ScmpConfig`]
/// (standby, repair scan, retries, ablations). The typed return keeps
/// `engine.router(n)` inspection available to tests.
pub fn build_scmp_engine(topo: Topology, config: ScmpConfig) -> Engine<ScmpRouter> {
    let domain = ScmpDomain::new(topo, config);
    Engine::new(domain.topo.clone(), move |me, _, _| {
        ScmpRouter::new(me, Arc::clone(&domain))
    })
}

/// The registry: construct an engine for any protocol, erased behind
/// [`EngineRunner`]. This is the only place in the workspace that
/// matches on a protocol to build one. The box is `Send` so sweep
/// harnesses can fan independent cells out to worker threads.
pub fn build_engine(
    kind: ProtocolKind,
    topo: &Topology,
    params: &ProtocolParams,
) -> Box<dyn EngineRunner + Send> {
    match kind {
        ProtocolKind::Scmp => Box::new(build_scmp_engine(
            topo.clone(),
            ScmpConfig::new(params.center),
        )),
        ProtocolKind::Cbt => {
            let core = params.center;
            Box::new(Engine::new(topo.clone(), move |me, _, _| {
                CbtRouter::new(me, CbtConfig { core })
            }))
        }
        ProtocolKind::Dvmrp => {
            let cfg = DvmrpConfig {
                prune_timeout: params.dvmrp_prune_timeout,
            };
            Box::new(Engine::new(topo.clone(), move |me, _, _| {
                DvmrpRouter::new(me, cfg)
            }))
        }
        ProtocolKind::Mospf => Box::new(Engine::new(topo.clone(), |me, _, _| MospfRouter::new(me))),
        ProtocolKind::PimSm => {
            let rp = params.center;
            Box::new(Engine::new(topo.clone(), move |me, _, _| {
                PimSmRouter::new(me, PimConfig { rp })
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::topology::examples::fig5;
    use scmp_sim::{AppEvent, GroupId};

    const G: GroupId = GroupId(1);

    #[test]
    fn engines_and_stats_are_send() {
        // Compile-time guarantee the sweep executor relies on: a built
        // engine (and its stats) can move to a worker thread.
        fn assert_send<T: Send>() {}
        assert_send::<Box<dyn EngineRunner + Send>>();
        assert_send::<Engine<ScmpRouter>>();
        assert_send::<scmp_sim::SimStats>();
    }

    #[test]
    fn labels_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("ospf"), None);
    }

    #[test]
    fn every_protocol_delivers_on_fig5() {
        for kind in ProtocolKind::ALL {
            let topo = fig5();
            let mut e = build_engine(kind, &topo, &ProtocolParams::new(NodeId(0)));
            e.schedule_app(0, NodeId(4), AppEvent::Join(G));
            e.schedule_app(1_000, NodeId(3), AppEvent::Join(G));
            e.schedule_app(500_000, NodeId(5), AppEvent::Send { group: G, tag: 1 });
            e.run_to_quiescence();
            for m in [3u32, 4] {
                assert_eq!(
                    e.stats().delivery_count(G, 1, NodeId(m)),
                    1,
                    "{} failed to deliver to node {m}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn typed_scmp_engine_exposes_router_state() {
        let topo = fig5();
        let mut e = build_scmp_engine(topo, ScmpConfig::new(NodeId(0)));
        e.schedule_app(0, NodeId(4), AppEvent::Join(G));
        e.run_to_quiescence();
        assert!(e.router(NodeId(0)).is_m_router());
        assert!(e.router(NodeId(4)).entry(G).is_some());
    }

    #[test]
    fn registry_engine_matches_hand_built_engine() {
        let topo = fig5();
        let mut erased = build_engine(ProtocolKind::Scmp, &topo, &ProtocolParams::new(NodeId(0)));
        let mut typed = build_scmp_engine(topo, ScmpConfig::new(NodeId(0)));
        for e in [&mut *erased, &mut typed as &mut dyn EngineRunner] {
            e.schedule_app(0, NodeId(4), AppEvent::Join(G));
            e.schedule_app(10_000, NodeId(5), AppEvent::Send { group: G, tag: 2 });
            e.run_to_quiescence();
        }
        assert_eq!(
            erased.stats().protocol_overhead,
            typed.stats().protocol_overhead
        );
        assert_eq!(erased.stats().data_overhead, typed.stats().data_overhead);
    }
}
