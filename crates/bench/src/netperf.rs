//! Fig. 8 / Fig. 9 — network-wide protocol comparison on the simulator.
//!
//! §IV-B setup: three topologies (ARPANET; GT-ITM random, n = 50,
//! average degree 3; same with degree 5); one source sending one
//! multicast packet per "second" for 30 seconds; group size swept,
//! members picked randomly; metrics: data overhead, protocol overhead,
//! maximum end-to-end delay. SCMP's m-router and CBT's core sit on the
//! same (rule-1-placed) node; the source is an off-group node, matching
//! the paper's observation that shared-tree protocols pay a detour for
//! off-tree sources.

use crate::sweep::SweepRunner;
use rand::seq::SliceRandom;
use rand::Rng;
use scmp_core::placement;
use scmp_net::rng::rng_for;
use scmp_net::topology::{arpanet, gt_itm_flat, GtItmConfig};
use scmp_net::{provider_for, NodeId, Topology};
use scmp_protocols::{build_engine, ProtocolParams};
use scmp_sim::{AppEvent, EngineRunner, GroupId, SimStats};
use scmp_telemetry::{Histogram, JsonlSink, SharedBuf};
use serde::Serialize;

/// The protocol registry's kind enum, re-exported under the name this
/// harness has always used. The Fig. 8/9 sweeps iterate
/// [`Protocol::FIG_8_9`]; [`Protocol::ALL`] additionally covers PIM-SM.
pub use scmp_protocols::ProtocolKind as Protocol;

/// One simulated "second" in engine ticks.
pub const SECOND: u64 = 50_000;
/// Number of data packets the source emits (paper: 30 s at 1 pkt/s).
pub const PACKETS: u64 = 30;

/// The three §IV-B topologies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum TopologyKind {
    /// Classic 20-node ARPANET (random link weights per seed).
    Arpanet,
    /// GT-ITM-like flat random, n = 50, average degree ≈ 3.
    Random50Deg3,
    /// GT-ITM-like flat random, n = 50, average degree ≈ 5.
    Random50Deg5,
}

impl TopologyKind {
    /// All three, in figure order.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::Arpanet,
        TopologyKind::Random50Deg3,
        TopologyKind::Random50Deg5,
    ];

    /// Label used in output tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Arpanet => "arpanet",
            TopologyKind::Random50Deg3 => "random50-deg3",
            TopologyKind::Random50Deg5 => "random50-deg5",
        }
    }

    /// Build an instance for `seed`.
    pub fn build(self, seed: u64) -> Topology {
        let mut rng = rng_for(self.label(), seed);
        match self {
            TopologyKind::Arpanet => arpanet(&mut rng),
            TopologyKind::Random50Deg3 => gt_itm_flat(&GtItmConfig::paper(3.0), &mut rng),
            TopologyKind::Random50Deg5 => gt_itm_flat(&GtItmConfig::paper(5.0), &mut rng),
        }
    }

    /// Group sizes swept for this topology (ARPANET is only 20 nodes).
    pub fn group_sizes(self) -> Vec<usize> {
        match self {
            TopologyKind::Arpanet => vec![2, 4, 6, 8, 10, 12, 14, 16, 18],
            _ => vec![5, 10, 15, 20, 25, 30, 35, 40],
        }
    }
}

/// Raw metrics of one simulation run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RunMetrics {
    /// Σ link-cost of data packet hops.
    pub data_overhead: u64,
    /// Σ link-cost of control packet hops.
    pub protocol_overhead: u64,
    /// Median end-to-end delay over first deliveries (ticks).
    pub p50_e2e_delay: u64,
    /// 99th-percentile end-to-end delay (ticks).
    pub p99_e2e_delay: u64,
    /// Max end-to-end delay over all deliveries (ticks).
    pub max_e2e_delay: u64,
    /// Every member received every packet exactly once.
    pub all_delivered: bool,
}

/// One averaged data point across seeds.
#[derive(Clone, Debug, Serialize)]
pub struct NetPoint {
    pub topology: String,
    pub protocol: String,
    pub group_size: usize,
    pub data_overhead: f64,
    pub protocol_overhead: f64,
    pub p50_e2e_delay: f64,
    pub p99_e2e_delay: f64,
    pub max_e2e_delay: f64,
    /// Fraction of seeds with perfect delivery (should be 1.0).
    pub delivery_ok: f64,
}

/// The concrete scenario of one run, drawn deterministically from
/// (topology kind, group size, seed).
pub struct Scenario {
    pub topo: Topology,
    pub center: NodeId,
    pub source: NodeId,
    pub members: Vec<NodeId>,
}

/// Build the scenario: center = placement rule 1 (min average delay),
/// members sampled from the remaining nodes, source a non-member.
///
/// The paper does not pin the source's location; we place it on a
/// non-member *neighbour* of the center. That keeps it off-tree (so the
/// shared-tree protocols pay the §IV-B.2 encapsulation detour and the
/// Fig. 9 delay gap appears) while keeping the detour itself short, as
/// implied by the paper's observation that "the data overhead is
/// strongly correlated to the multicast tree cost".
pub fn scenario(kind: TopologyKind, group_size: usize, seed: u64) -> Scenario {
    let topo = kind.build(seed);
    let paths = provider_for(&topo);
    let center = placement::min_average_delay(&topo, &paths);
    let mut rng = rng_for("netperf-members", seed ^ (group_size as u64) << 32);
    let mut pool: Vec<NodeId> = topo.nodes().filter(|&v| v != center).collect();
    pool.shuffle(&mut rng);
    let n = pool.len();
    let members: Vec<NodeId> = pool
        .iter()
        .copied()
        .take(group_size.min(n.saturating_sub(1)))
        .collect();
    // Source: a non-member neighbour of the center when one exists, else
    // any non-member, else a member (group saturates the topology).
    let source = topo
        .neighbors(center)
        .iter()
        .map(|e| e.to)
        .find(|v| !members.contains(v))
        .or_else(|| pool.iter().copied().find(|v| !members.contains(v)))
        .unwrap_or_else(|| {
            let i = rng.gen_range(0..members.len());
            members[i]
        });
    Scenario {
        topo,
        center,
        source,
        members,
    }
}

const GROUP: GroupId = GroupId(1);

/// Drive a scenario on any protocol's engine: staggered joins, a settle
/// gap, then the 30-packet data phase.
fn drive(e: &mut dyn EngineRunner, sc: &Scenario) {
    let mut t = 0;
    for &m in &sc.members {
        e.schedule_app(t, m, AppEvent::Join(GROUP));
        t += 2_000;
    }
    let start = t + 4 * SECOND;
    for k in 0..PACKETS {
        e.schedule_app(
            start + k * SECOND,
            sc.source,
            AppEvent::Send {
                group: GROUP,
                tag: k + 1,
            },
        );
    }
    e.run_to_quiescence();
}

fn check_delivery(stats: &SimStats, sc: &Scenario) -> bool {
    sc.members
        .iter()
        .all(|&m| (1..=PACKETS).all(|tag| stats.delivery_count(GROUP, tag, m) == 1))
}

/// One fully independent sweep cell of the Fig. 8/9 matrix. Everything
/// a cell touches — topology, member draw, engine — derives from these
/// four fields via `rng_for(label, seed)` streams, which is what lets
/// the [`SweepRunner`] execute cells in any interleaving and still
/// merge byte-identical output.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub kind: TopologyKind,
    pub proto: Protocol,
    pub group_size: usize,
    pub seed: u64,
}

/// The full Fig. 8/9 matrix in its fixed fold order:
/// topology → group size → protocol → seed.
pub fn suite_cells(seeds: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in TopologyKind::ALL {
        for group_size in kind.group_sizes() {
            for proto in Protocol::FIG_8_9 {
                for seed in 0..seeds {
                    cells.push(Cell {
                        kind,
                        proto,
                        group_size,
                        seed,
                    });
                }
            }
        }
    }
    cells
}

/// Everything one cell produces: the scalar metrics, the cell's own
/// end-to-end delay histogram (merged across seeds by the fold instead
/// of re-bucketed), and — when tracing — the cell's JSONL fragment.
pub struct CellOutcome {
    pub metrics: RunMetrics,
    pub e2e_hist: Histogram,
    pub jsonl: String,
}

/// Run one cell in isolation. Construction is delegated to the
/// protocol registry; this harness only drives. With `trace` set, the
/// engine streams its structured events into an in-memory JSONL buffer
/// returned alongside the metrics (one buffer per cell — workers never
/// share a writer).
pub fn run_cell(cell: Cell, trace: bool) -> CellOutcome {
    let sc = scenario(cell.kind, cell.group_size, cell.seed);
    let params = ProtocolParams {
        center: sc.center,
        dvmrp_prune_timeout: 10 * SECOND,
    };
    let mut e = build_engine(cell.proto, &sc.topo, &params);
    let buf = trace.then(SharedBuf::new);
    if let Some(buf) = &buf {
        e.set_sink(Box::new(JsonlSink::new(buf.clone())));
    }
    drive(e.as_mut(), &sc);
    e.flush_telemetry();
    let stats = e.stats();
    let metrics = RunMetrics {
        data_overhead: stats.data_overhead,
        protocol_overhead: stats.protocol_overhead,
        p50_e2e_delay: stats.e2e_delay_hist.p50(),
        p99_e2e_delay: stats.e2e_delay_hist.p99(),
        max_e2e_delay: stats.max_end_to_end_delay,
        all_delivered: check_delivery(stats, &sc),
    };
    CellOutcome {
        metrics,
        e2e_hist: stats.e2e_delay_hist.clone(),
        jsonl: buf.map(|b| b.take_string()).unwrap_or_default(),
    }
}

/// Run one (topology, protocol, group size, seed) cell and return its
/// scalar metrics.
pub fn run_one(kind: TopologyKind, proto: Protocol, group_size: usize, seed: u64) -> RunMetrics {
    run_cell(
        Cell {
            kind,
            proto,
            group_size,
            seed,
        },
        false,
    )
    .metrics
}

/// A full suite's output: the averaged figure points plus, when traced,
/// every cell's JSONL fragment concatenated in cell order.
pub struct SuiteOutput {
    pub points: Vec<NetPoint>,
    pub jsonl: String,
}

/// Full sweep on an explicit worker count: every topology × group size
/// × protocol × seed cell fans out to the pool, and the fold walks the
/// results in the fixed cell order — so any `jobs` value produces
/// byte-identical points (and, with `trace`, a byte-identical
/// concatenated JSONL document) to `jobs = 1`.
///
/// Per-point aggregation: overheads and the per-run delay maximum are
/// seed means (the paper's Fig. 8/9 statistics); p50/p99 come from the
/// seed histograms folded with [`Histogram::merge`] — pooling the
/// actual delivery samples instead of averaging per-seed quantile
/// estimates.
pub fn run_suite_jobs(seeds: u64, jobs: usize, trace: bool) -> SuiteOutput {
    let cells = suite_cells(seeds);
    let runner = SweepRunner::new(jobs);
    let outcomes = runner.run(&cells, |_, &cell| run_cell(cell, trace));

    let mut points = Vec::new();
    let mut jsonl = String::new();
    for group in outcomes.chunks(seeds.max(1) as usize) {
        let cell = {
            // chunks() follows suite_cells' fixed order: one chunk per
            // (kind, group size, protocol), `seeds` cells each.
            let first = points.len() * seeds.max(1) as usize;
            cells[first]
        };
        let metrics: Vec<&RunMetrics> = group.iter().map(|o| &o.metrics).collect();
        let mut pooled = Histogram::new();
        for o in group {
            pooled.merge(&o.e2e_hist);
        }
        for o in group {
            jsonl.push_str(&o.jsonl);
        }
        let mean_of = |f: &dyn Fn(&RunMetrics) -> f64| {
            crate::report::mean(&metrics.iter().map(|m| f(m)).collect::<Vec<_>>())
        };
        points.push(NetPoint {
            topology: cell.kind.label().to_string(),
            protocol: cell.proto.label().to_string(),
            group_size: cell.group_size,
            data_overhead: mean_of(&|m| m.data_overhead as f64),
            protocol_overhead: mean_of(&|m| m.protocol_overhead as f64),
            p50_e2e_delay: pooled.p50() as f64,
            p99_e2e_delay: pooled.p99() as f64,
            max_e2e_delay: mean_of(&|m| m.max_e2e_delay as f64),
            delivery_ok: mean_of(&|m| if m.all_delivered { 1.0 } else { 0.0 }),
        });
    }
    SuiteOutput { points, jsonl }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_protocols_deliver_on_arpanet() {
        for proto in Protocol::ALL {
            let m = run_one(TopologyKind::Arpanet, proto, 6, 0);
            assert!(m.all_delivered, "{proto:?} lost packets: {m:?}");
            assert!(m.data_overhead > 0);
        }
    }

    #[test]
    fn dvmrp_has_highest_data_overhead() {
        let dvmrp = run_one(TopologyKind::Arpanet, Protocol::Dvmrp, 4, 1);
        let scmp = run_one(TopologyKind::Arpanet, Protocol::Scmp, 4, 1);
        let cbt = run_one(TopologyKind::Arpanet, Protocol::Cbt, 4, 1);
        assert!(
            dvmrp.data_overhead > scmp.data_overhead,
            "{dvmrp:?} vs {scmp:?}"
        );
        assert!(dvmrp.data_overhead > cbt.data_overhead);
    }

    #[test]
    fn mospf_has_high_protocol_overhead() {
        let mospf = run_one(TopologyKind::Arpanet, Protocol::Mospf, 8, 2);
        let scmp = run_one(TopologyKind::Arpanet, Protocol::Scmp, 8, 2);
        let cbt = run_one(TopologyKind::Arpanet, Protocol::Cbt, 8, 2);
        assert!(mospf.protocol_overhead > scmp.protocol_overhead);
        assert!(mospf.protocol_overhead > cbt.protocol_overhead);
    }

    #[test]
    fn spt_protocols_have_lower_delay() {
        // SCMP/CBT detour via the center; MOSPF delivers source-rooted.
        let mospf = run_one(TopologyKind::Random50Deg3, Protocol::Mospf, 10, 3);
        let scmp = run_one(TopologyKind::Random50Deg3, Protocol::Scmp, 10, 3);
        assert!(
            mospf.max_e2e_delay <= scmp.max_e2e_delay,
            "{mospf:?} vs {scmp:?}"
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let m = run_one(TopologyKind::Arpanet, Protocol::Scmp, 6, 0);
        assert!(m.p50_e2e_delay > 0, "deliveries must yield a median");
        assert!(m.p50_e2e_delay <= m.p99_e2e_delay);
        assert!(m.p99_e2e_delay <= m.max_e2e_delay);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = scenario(TopologyKind::Random50Deg3, 10, 4);
        let b = scenario(TopologyKind::Random50Deg3, 10, 4);
        assert_eq!(a.members, b.members);
        assert_eq!(a.center, b.center);
        assert_eq!(a.source, b.source);
        assert_eq!(a.topo.edges(), b.topo.edges());
    }
}
