//! `paper_fig` — the paper's §IV-B cell, SCMP only: ARPANET and two
//! 50-node random topologies (average degree 3 and 5), the Fig. 8/9
//! group sizes, eight topology seeds each, the m-router placed by
//! rule 1, an off-tree source next to it, 30 payloads, a fresh engine
//! per cell.

use super::{delay_horizon, quiet_config, Cell, Plan, Rules, Schedule, GRID};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use scmp_core::placement;
use scmp_net::rng::rng_for;
use scmp_net::topology::{arpanet, gt_itm_flat, GtItmConfig};
use scmp_net::{provider_for, NodeId, Topology};
use scmp_sim::{FaultPlan, GroupId};
use std::sync::Arc;
use std::time::Instant;

const GROUP: GroupId = GroupId(1);
/// One simulated "second" in ticks (paper: one packet per second).
const SECOND: u64 = 50_000;

#[derive(Clone, Copy)]
enum Kind {
    Arpanet,
    Random50 { degree: u32 },
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Arpanet => "arpanet",
            Kind::Random50 { degree: 3 } => "random50-deg3",
            Kind::Random50 { .. } => "random50-deg5",
        }
    }

    fn build(self, seed: u64, sub: u64) -> Topology {
        let mut rng = rng_for(&format!("bench/paper_fig/{}/{sub}", self.label()), seed);
        match self {
            Kind::Arpanet => arpanet(&mut rng),
            Kind::Random50 { degree } => gt_itm_flat(
                &GtItmConfig {
                    n: 50,
                    average_degree: degree as f64,
                    grid: GRID,
                },
                &mut rng,
            ),
        }
    }

    /// The Fig. 8/9 sweep (ARPANET has only 20 nodes).
    fn group_sizes(self) -> &'static [usize] {
        match self {
            Kind::Arpanet => &[2, 4, 6, 8, 10, 12, 14, 16, 18],
            Kind::Random50 { .. } => &[5, 10, 15, 20, 25, 30, 35, 40],
        }
    }
}

pub fn build(seed: u64, quick: bool) -> Plan {
    let (subs, payloads) = if quick { (1, 5) } else { (8, 30) };
    let mut cells = Vec::new();
    let mut topo_build_s = 0.0;
    for kind in [
        Kind::Arpanet,
        Kind::Random50 { degree: 3 },
        Kind::Random50 { degree: 5 },
    ] {
        for sub in 0..subs {
            let t0 = Instant::now();
            let topo = Arc::new(kind.build(seed, sub));
            topo_build_s += t0.elapsed().as_secs_f64();
            let center = placement::min_average_delay(&topo, &provider_for(&topo));
            let horizon = delay_horizon(&topo, center);
            let sizes = kind.group_sizes();
            let sizes = if quick {
                &sizes[sizes.len() - 2..]
            } else {
                sizes
            };
            for &size in sizes {
                let label = format!("bench/paper_fig/{}/{sub}/members/{size}", kind.label());
                let mut rng = rng_for(&label, seed);
                cells.push(cell(&topo, center, horizon, size, payloads, &mut rng));
            }
        }
    }
    Plan {
        cells,
        rules: Rules {
            quiet_control_plane: true,
            min_delivery: 1.0,
            takeover_allowed: false,
        },
        topo_build_s,
    }
}

fn cell(
    topo: &Arc<Topology>,
    center: NodeId,
    horizon: u64,
    size: usize,
    payloads: u64,
    rng: &mut SmallRng,
) -> Cell {
    let mut pool: Vec<NodeId> = topo.nodes().filter(|&v| v != center).collect();
    pool.shuffle(rng);
    let members: Vec<NodeId> = pool[..size].to_vec();
    // Source: a non-member neighbour of the m-router (a short detour;
    // encapsulated unless it relays for the tree), else any non-member.
    let source = topo
        .neighbors(center)
        .iter()
        .map(|e| e.to)
        .find(|v| !members.contains(v))
        .unwrap_or(pool[size]);

    let window = 4 * horizon;
    let mut sched = Schedule::new();
    for &m in &members {
        sched.join(m, GROUP, window);
    }
    for _ in 0..payloads {
        sched.send(source, GROUP, Some(0), SECOND);
    }
    Cell {
        topo: Arc::clone(topo),
        config: quiet_config(center, horizon),
        loss: None,
        faults: FaultPlan::new(),
        ops: sched.ops,
        member_sets: vec![members.clone()],
        final_members: vec![(GROUP, members)],
        join_window: window,
        end: None,
    }
}
