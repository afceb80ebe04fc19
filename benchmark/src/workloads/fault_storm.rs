//! `fault_storm_370` — one 370-node transit–stub engine with the hot
//! standby, heartbeats and the repair scan on; 8 groups × 16 members
//! join, then a flap storm (6 links × 4 cycles) and a seeded partition
//! and heal fire under steady traffic. Sends after the heal must reach
//! every member exactly once; sends before it must merely never be
//! delivered twice.
//!
//! Every timescale is a multiple of the delay horizon `H`: the 370-node
//! grid has link delays up to ~65 000 ticks, so ARPANET's constants
//! would retransmit on every round trip.

use super::{delay_horizon, draw_distinct, transit_stub_shape, Cell, Plan, Rules, Schedule, GRID};
use rand::seq::SliceRandom;
use scmp_core::ScmpConfig;
use scmp_net::rng::rng_for;
use scmp_net::topology::transit_stub;
use scmp_net::NodeId;
use scmp_sim::{FaultKind, FaultPlan, GroupId};
use std::sync::Arc;
use std::time::Instant;

const M_ROUTER: NodeId = NodeId(0);
/// The transit ring links node 0 to node 1: a one-hop heartbeat path.
const STANDBY: NodeId = NodeId(1);

pub fn build(seed: u64, quick: bool) -> Plan {
    let (nodes, groups, group_size, flap_links, verified) = if quick {
        (100, 2, 6, 2, 8)
    } else {
        (370, 8, 16, 6, 64)
    };
    let t0 = Instant::now();
    let (t, s, k) = transit_stub_shape(nodes);
    let topo = transit_stub(t, s, k, GRID, &mut rng_for("bench/fault_storm/topo", seed));
    let topo_build_s = t0.elapsed().as_secs_f64();
    let n = topo.node_count();
    let h = delay_horizon(&topo, M_ROUTER);
    let window = 4 * h;

    let mut config = ScmpConfig::new(M_ROUTER);
    config.standby = Some(STANDBY);
    config.heartbeat_interval = h / 2;
    config.heartbeat_loss_tolerance = 4;
    config.repair_interval = h / 2;
    config.takeover_rebuild_delay = h;
    config.join_retry = 3 * h;
    config.leave_retry = 3 * h;
    config.tree_retry = 3 * h;

    let mut rng = rng_for("bench/fault_storm/ops", seed);
    let member_sets: Vec<Vec<NodeId>> = (0..groups)
        .map(|_| {
            let mut set = draw_distinct(&mut rng, n, group_size + 1, M_ROUTER);
            set.retain(|&v| v != STANDBY);
            set.truncate(group_size);
            set
        })
        .collect();
    let group = |g: usize| GroupId(g as u32 + 1);
    let mut sched = Schedule::new();
    for (g, set) in member_sets.iter().enumerate() {
        for &m in set {
            sched.join(m, group(g), window);
        }
    }

    // Faults start once the last join's window has closed.
    let storm_at = sched.t + 2 * h;
    let cut_at = storm_at + 20 * h;
    let heal_at = cut_at + 12 * h;
    let settled_at = heal_at + 12 * h;
    let faults = FaultPlan::new()
        .at(
            storm_at,
            FaultKind::FlapStorm {
                seed,
                links: flap_links,
                cycles: 4,
                period: 4 * h,
            },
        )
        .at(cut_at, FaultKind::Partition { seed, heal_at });

    // Steady traffic through storm, partition and reconciliation…
    let mut i = 0;
    while sched.t < settled_at {
        let g = i % groups;
        let source = *member_sets[g].choose(&mut rng).expect("non-empty group");
        sched.send(source, group(g), None, h / 2);
        i += 1;
    }
    // …then the payloads that must arrive everywhere exactly once.
    for i in 0..verified {
        let g = i % groups;
        let source = *member_sets[g].choose(&mut rng).expect("non-empty group");
        sched.send(source, group(g), Some(g as u32), h / 4);
    }
    let end = sched.t + 4 * h;

    let final_members = member_sets
        .iter()
        .enumerate()
        .map(|(g, set)| (group(g), set.clone()))
        .collect();
    Plan {
        cells: vec![Cell {
            topo: Arc::new(topo),
            config,
            loss: None,
            faults,
            ops: sched.ops,
            member_sets,
            final_members,
            join_window: window,
            end: Some(end),
        }],
        rules: Rules {
            quiet_control_plane: false,
            min_delivery: 1.0,
            takeover_allowed: true,
        },
        topo_build_s,
    }
}
