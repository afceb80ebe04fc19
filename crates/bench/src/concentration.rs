//! Traffic concentration at the shared-tree root (§I / §V).
//!
//! The paper's motivation for powerful m-routers: "the ST-based approach
//! may cause traffic jam around the core, since packets from multiple
//! sources may reach the core simultaneously. The traffic concentration
//! will further cause the problems of packet loss and longer
//! communication delay" — and its answer: "the m-routers in the new
//! architecture are specially designed powerful routers to efficiently
//! handle heavy network traffic, which can greatly alleviate the
//! problem" (§V item 3).
//!
//! This experiment turns on the simulator's finite link-capacity model
//! and slams the shared tree with simultaneous bursts from many
//! sources, comparing an *ordinary* root (core-grade line rate) against
//! an *m-router* root (fast fabric ports). Measured: congestion drops,
//! queueing delay and end-to-end delay.

use crate::report::mean_by;
use crate::scenario_file::{
    run_batch, CapacitySpec, EventSpec, MRouterSpec, Run, ScenarioFile, TopologySpec,
};
use scmp_net::graph::LinkWeight;
use scmp_net::topology::regular::star;
use serde::Serialize;
use std::iter::repeat_n;

const G: u32 = 1;
/// Per-packet serialisation time on an ordinary line card.
const ORDINARY_TX: u64 = 2_000;
/// Per-packet serialisation time on the m-router's fabric ports.
const MROUTER_TX: u64 = 100;
/// Queue slots per link direction.
const QUEUE_LIMIT: u64 = 8;

/// One averaged data point.
#[derive(Clone, Debug, Serialize)]
pub struct ConcentrationPoint {
    /// "ordinary-core" or "m-router".
    pub root_kind: String,
    /// Number of simultaneous burst sources.
    pub sources: usize,
    /// Congestion (queue-overflow) drops.
    pub queue_drops: f64,
    /// Largest queueing wait (ticks).
    pub max_queueing_delay: f64,
    /// Max end-to-end delay (ticks).
    pub max_e2e_delay: f64,
    /// Fraction of (packet, member) deliveries that arrived.
    pub delivery_rate: f64,
}

/// Number of group members (leaf DRs of the star).
const MEMBERS: usize = 12;
/// Packets per burst source.
const PER_SOURCE: u64 = 5;
/// Burst-source counts swept.
const SOURCES: [usize; 4] = [2, 4, 8, 12];

/// The distilled §I hotspot: a star domain whose hub is the tree root.
/// Every source's flow converges on the hub and fans out to every
/// member leaf, so the hub's egress ports are the only congestible
/// inner hops — exactly the "traffic jam around the core" scenario.
/// (`seed` shifts the burst phase.)
fn scenario(sources: usize, fast_root: bool, seed: u64) -> ScenarioFile {
    let n = 1 + MEMBERS + sources.max(1);
    let topo = star(n, LinkWeight::new(50, 10));
    let members = (1..=MEMBERS as u32).zip((0..).step_by(2_000));
    let mut events: Vec<EventSpec> = members.map(|(m, t)| EventSpec::join(t, m, G)).collect();
    // Simultaneous bursts from the off-tree sources: everything funnels
    // through the hub via encapsulation.
    let burst_at = MEMBERS as u64 * 2_000 + 1_000_000 + seed;
    let senders = (MEMBERS as u32 + 1..n as u32).flat_map(|s| repeat_n(s, PER_SOURCE as usize));
    let sends = senders
        .zip(1..)
        .map(|(s, tag)| EventSpec::send(burst_at, s, G, tag));
    events.extend(sends);
    let mut spec = ScenarioFile::new(TopologySpec::custom(&topo), MRouterSpec::Node(0), events);
    spec.capacity = Some(CapacitySpec {
        link_tx: ORDINARY_TX,
        queue_limit: QUEUE_LIMIT,
        m_router_tx: fast_root.then_some(MROUTER_TX),
    });
    spec
}

/// The `(sources, fast root)` points of the sweep, in fold order.
fn points() -> Vec<(usize, bool)> {
    let roots = |sources| [false, true].map(|fast_root| (sources, fast_root));
    SOURCES.into_iter().flat_map(roots).collect()
}

/// Every cell of the sweep in fold order: sources → root kind → seed.
pub fn cells(seeds: u64) -> Vec<ScenarioFile> {
    let seeded = |(sources, fast)| (0..seeds).map(move |seed| scenario(sources, fast, seed));
    points().into_iter().flat_map(seeded).collect()
}

/// Run the sweep over burst-source counts for both root kinds, on
/// `jobs` workers.
pub fn run(seeds: u64, jobs: usize) -> Result<Vec<ConcentrationPoint>, String> {
    let keys = points();
    let runs: Vec<Run> = run_batch(&cells(seeds), jobs, false)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let out = keys.iter().zip(runs.chunks(seeds.max(1) as usize));
    let out = out.map(|(&(sources, fast_root), runs)| {
        let expected = (sources as u64 * PER_SOURCE * MEMBERS as u64) as f64;
        ConcentrationPoint {
            root_kind: if fast_root {
                "m-router"
            } else {
                "ordinary-core"
            }
            .to_string(),
            sources,
            queue_drops: mean_by(runs, |r| r.result.queue_drops as f64),
            max_queueing_delay: mean_by(runs, |r| r.stats.max_queueing_delay as f64),
            max_e2e_delay: mean_by(runs, |r| r.result.max_end_to_end_delay as f64),
            delivery_rate: mean_by(runs, |r| r.stats.distinct_deliveries() as f64 / expected),
        }
    });
    Ok(out.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_router_alleviates_concentration() {
        let pts = run(3, 2).unwrap();
        for sources in [8usize, 12] {
            let ordinary = pts
                .iter()
                .find(|p| p.sources == sources && p.root_kind == "ordinary-core")
                .unwrap();
            let mrouter = pts
                .iter()
                .find(|p| p.sources == sources && p.root_kind == "m-router")
                .unwrap();
            assert!(
                mrouter.delivery_rate >= ordinary.delivery_rate,
                "{sources} sources: m-router {mrouter:?} vs {ordinary:?}"
            );
            assert!(
                mrouter.queue_drops <= ordinary.queue_drops,
                "{sources} sources: m-router drops {} > ordinary {}",
                mrouter.queue_drops,
                ordinary.queue_drops
            );
        }
        // At high load the ordinary core actually suffers (drops or
        // serious queueing) while the m-router keeps the loss lower.
        let worst_ord = pts
            .iter()
            .filter(|p| p.root_kind == "ordinary-core")
            .map(|p| p.queue_drops)
            .fold(0.0f64, f64::max);
        let worst_m = pts
            .iter()
            .filter(|p| p.root_kind == "m-router")
            .map(|p| p.queue_drops)
            .fold(0.0f64, f64::max);
        assert!(
            worst_m <= worst_ord,
            "m-router {worst_m} > ordinary {worst_ord}"
        );
    }
}
