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

use crate::report::mean_by;
use crate::scenario_file::{
    expected_deliveries, run_batch, EventSpec, MRouterSpec, Run, ScenarioFile, TopologySpec,
};
use rand::seq::SliceRandom;
use rand::Rng;
use scmp_core::placement;
use scmp_net::rng::rng_for;
use scmp_net::topology::{arpanet, gt_itm_flat, GtItmConfig};
use scmp_net::{provider_for, NodeId, Topology};
use scmp_sim::SimStats;
use scmp_telemetry::Histogram;
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

    /// `(self, group size)` for every swept group size.
    pub fn points(self) -> Vec<(TopologyKind, usize)> {
        self.group_sizes()
            .into_iter()
            .map(|gs| (self, gs))
            .collect()
    }
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

/// The multicast group of every §IV-B scenario.
const GROUP: u32 = 1;

/// The §IV-B scenario of (topology kind, group size, seed) on SCMP:
/// center = placement rule 1 (min average delay), members sampled from
/// the remaining nodes and joining 2 000 ticks apart, then, after a
/// four-"second" settle gap, [`PACKETS`] sends one "second" apart from
/// a non-member source. The topology is written out link by link, so
/// the cell replays without this generator.
///
/// The paper does not pin the source's location; we place it on a
/// non-member *neighbour* of the center. That keeps it off-tree (so the
/// shared-tree protocols pay the §IV-B.2 encapsulation detour and the
/// Fig. 9 delay gap appears) while keeping the detour itself short, as
/// implied by the paper's observation that "the data overhead is
/// strongly correlated to the multicast tree cost".
pub fn scenario(kind: TopologyKind, group_size: usize, seed: u64) -> ScenarioFile {
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
    let joins = members.iter().zip((0..).step_by(2_000));
    let mut events: Vec<EventSpec> = joins.map(|(m, t)| EventSpec::join(t, m.0, GROUP)).collect();
    let start = members.len() as u64 * 2_000 + 4 * SECOND;
    let sends = (0..PACKETS).map(|k| EventSpec::send(start + k * SECOND, source.0, GROUP, k + 1));
    events.extend(sends);
    ScenarioFile::new(
        TopologySpec::custom(&topo),
        MRouterSpec::Node(center.0),
        events,
    )
}

/// The cells of a §IV-B sweep in fold order: per `(topology, group
/// size)` of `points`, per protocol of `protocols`, `seeds` seeds. Each
/// `(topology, group size, seed)` draw is made once and shared by every
/// protocol, so all protocols meet the same members and source.
pub fn sweep_cells(
    points: &[(TopologyKind, usize)],
    protocols: &[Protocol],
    seeds: u64,
) -> Vec<ScenarioFile> {
    let mut cells = Vec::with_capacity(points.len() * protocols.len() * seeds as usize);
    for &(kind, group_size) in points {
        let draws: Vec<ScenarioFile> = (0..seeds)
            .map(|seed| scenario(kind, group_size, seed))
            .collect();
        for proto in protocols {
            cells.extend(draws.iter().map(|draw| ScenarioFile {
                protocol: Some(proto.label().into()),
                ..draw.clone()
            }));
        }
    }
    cells
}

/// Every member of `spec` received every one of its packets exactly once.
fn delivered_exactly_once(spec: &ScenarioFile, stats: &SimStats) -> bool {
    expected_deliveries(spec).is_ok_and(|(_, expected)| {
        expected
            .iter()
            .all(|&(group, tag, member)| stats.delivery_count(group, tag, member) == 1)
    })
}

/// The `(topology, group size)` points of the Fig. 8/9 matrix, in
/// figure order.
fn fig_points() -> Vec<(TopologyKind, usize)> {
    TopologyKind::ALL
        .into_iter()
        .flat_map(TopologyKind::points)
        .collect()
}

/// Every cell of the Fig. 8/9 matrix in fold order: topology → group
/// size → protocol → seed.
pub fn suite_cells(seeds: u64) -> Vec<ScenarioFile> {
    sweep_cells(&fig_points(), &Protocol::FIG_8_9, seeds)
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
pub fn run_suite_jobs(seeds: u64, jobs: usize, trace: bool) -> Result<SuiteOutput, String> {
    let cells = suite_cells(seeds);
    let runs: Vec<Run> = run_batch(&cells, jobs, trace)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let keys = fig_points()
        .into_iter()
        .flat_map(|point| Protocol::FIG_8_9.map(|proto| (point, proto)));
    let per_key = seeds.max(1) as usize;
    let chunks = cells.chunks(per_key).zip(runs.chunks(per_key));

    let mut out = SuiteOutput {
        points: Vec::new(),
        jsonl: String::new(),
    };
    for (((kind, group_size), proto), (specs, runs)) in keys.zip(chunks) {
        let mut pooled = Histogram::new();
        for run in runs {
            pooled.merge(&run.stats.e2e_delay_hist);
            out.jsonl.push_str(&run.trace);
        }
        let delivered: Vec<(&ScenarioFile, &Run)> = specs.iter().zip(runs).collect();
        out.points.push(NetPoint {
            topology: kind.label().to_string(),
            protocol: proto.label().to_string(),
            group_size,
            data_overhead: mean_by(runs, |r| r.result.data_overhead as f64),
            protocol_overhead: mean_by(runs, |r| r.result.protocol_overhead as f64),
            p50_e2e_delay: pooled.p50() as f64,
            p99_e2e_delay: pooled.p99() as f64,
            max_e2e_delay: mean_by(runs, |r| r.result.max_end_to_end_delay as f64),
            delivery_ok: mean_by(&delivered, |&(spec, run)| {
                f64::from(u8::from(delivered_exactly_once(spec, &run.stats)))
            }),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_file::run_batch;

    /// One cell run untraced, and whether it delivered exactly once.
    fn run_one(kind: TopologyKind, proto: Protocol, group_size: usize, seed: u64) -> (Run, bool) {
        let spec = &sweep_cells(&[(kind, group_size)], &[proto], 1 + seed)[seed as usize];
        let run = run_batch(std::slice::from_ref(spec), 1, false)
            .remove(0)
            .unwrap();
        let ok = delivered_exactly_once(spec, &run.stats);
        (run, ok)
    }

    #[test]
    fn all_protocols_deliver_on_arpanet() {
        for proto in Protocol::ALL {
            let (run, ok) = run_one(TopologyKind::Arpanet, proto, 6, 0);
            assert!(ok, "{proto:?} lost packets: {:?}", run.result);
            assert!(run.result.data_overhead > 0);
        }
    }

    #[test]
    fn dvmrp_has_highest_data_overhead() {
        let data = |proto| {
            run_one(TopologyKind::Arpanet, proto, 4, 1)
                .0
                .result
                .data_overhead
        };
        let (dvmrp, scmp, cbt) = (
            data(Protocol::Dvmrp),
            data(Protocol::Scmp),
            data(Protocol::Cbt),
        );
        assert!(dvmrp > scmp, "{dvmrp} vs {scmp}");
        assert!(dvmrp > cbt);
    }

    #[test]
    fn mospf_has_high_protocol_overhead() {
        let ctrl = |proto| {
            run_one(TopologyKind::Arpanet, proto, 8, 2)
                .0
                .result
                .protocol_overhead
        };
        let (mospf, scmp, cbt) = (
            ctrl(Protocol::Mospf),
            ctrl(Protocol::Scmp),
            ctrl(Protocol::Cbt),
        );
        assert!(mospf > scmp);
        assert!(mospf > cbt);
    }

    #[test]
    fn spt_protocols_have_lower_delay() {
        // SCMP/CBT detour via the center; MOSPF delivers source-rooted.
        let delay = |proto| {
            let r = run_one(TopologyKind::Random50Deg3, proto, 10, 3).0.result;
            r.max_end_to_end_delay
        };
        let (mospf, scmp) = (delay(Protocol::Mospf), delay(Protocol::Scmp));
        assert!(mospf <= scmp, "{mospf} vs {scmp}");
    }

    #[test]
    fn percentiles_are_ordered() {
        let r = run_one(TopologyKind::Arpanet, Protocol::Scmp, 6, 0)
            .0
            .result;
        assert!(r.p50_end_to_end_delay > 0, "deliveries must yield a median");
        assert!(r.p50_end_to_end_delay <= r.p99_end_to_end_delay);
        assert!(r.p99_end_to_end_delay <= r.max_end_to_end_delay);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = scenario(TopologyKind::Random50Deg3, 10, 4);
        let b = scenario(TopologyKind::Random50Deg3, 10, 4);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
