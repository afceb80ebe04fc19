//! `stream_1k` — one 1 000-node transit–stub engine, 8 groups × 32
//! members joined first, then 6 000 sends 500 ticks apart: phase A from
//! member DRs (natively on the tree), phase B from routers in stub
//! domains the group does not reach (EncapData to the m-router, then
//! down the tree). Same data-plane layer, entered two ways.

use super::{
    delay_horizon, draw_distinct, quiet_config, transit_stub_shape, Cell, Plan, Rules, Schedule,
    GRID,
};
use rand::seq::SliceRandom;
use scmp_net::rng::rng_for;
use scmp_net::topology::transit_stub;
use scmp_net::NodeId;
use scmp_sim::{FaultPlan, GroupId};
use std::sync::Arc;
use std::time::Instant;

const M_ROUTER: NodeId = NodeId(0);
/// Ticks between sends: far below the horizon, so hundreds of payloads
/// are in flight at once and the event queue stays a few thousand deep.
const SEND_SPACING: u64 = 500;

pub fn build(seed: u64, quick: bool) -> Plan {
    let (nodes, groups, group_size, sends) = if quick {
        (370, 4, 8, 400)
    } else {
        (1_000, 8, 32, 6_000)
    };
    let t0 = Instant::now();
    let (t, s, k) = transit_stub_shape(nodes);
    let topo = transit_stub(t, s, k, GRID, &mut rng_for("bench/stream/topo", seed));
    let topo_build_s = t0.elapsed().as_secs_f64();
    let n = topo.node_count();
    let horizon = delay_horizon(&topo, M_ROUTER);
    let window = 4 * horizon;

    let mut rng = rng_for("bench/stream/ops", seed);
    let member_sets: Vec<Vec<NodeId>> = (0..groups)
        .map(|_| draw_distinct(&mut rng, n, group_size, M_ROUTER))
        .collect();
    let group = |g: usize| GroupId(g as u32 + 1);
    let mut sched = Schedule::new();
    for (g, set) in member_sets.iter().enumerate() {
        for &m in set {
            sched.join(m, group(g), window);
        }
    }
    // Phase A: member DRs send on the tree.
    for i in 0..sends / 2 {
        let g = i % groups;
        let source = *member_sets[g].choose(&mut rng).expect("non-empty group");
        sched.send(source, group(g), Some(g as u32), SEND_SPACING);
    }
    // Let phase A drain, so the two phases' slices hold only their own
    // packets.
    sched.t += window;
    // Phase B: a stub domain hangs off its transit node by one uplink,
    // so a stub holding no member of the group is never on its tree.
    let stub_of = |v: NodeId| (v.index() >= t).then(|| (v.index() - t) / k);
    let off_tree: Vec<Vec<NodeId>> = member_sets
        .iter()
        .map(|set| {
            topo.nodes()
                .filter(|&v| {
                    stub_of(v).is_some_and(|stub| set.iter().all(|&m| stub_of(m) != Some(stub)))
                })
                .collect()
        })
        .collect();
    for i in 0..sends / 2 {
        let g = i % groups;
        let source = *off_tree[g].choose(&mut rng).expect("some stub is empty");
        sched.send(source, group(g), Some(g as u32), SEND_SPACING);
    }
    let final_members = member_sets
        .iter()
        .enumerate()
        .map(|(g, set)| (group(g), set.clone()))
        .collect();
    Plan {
        cells: vec![Cell {
            topo: Arc::new(topo),
            config: quiet_config(M_ROUTER, horizon),
            loss: None,
            faults: FaultPlan::new(),
            ops: sched.ops,
            member_sets,
            final_members,
            join_window: window,
            end: None,
        }],
        rules: Rules {
            quiet_control_plane: true,
            min_delivery: 1.0,
            takeover_allowed: false,
        },
        topo_build_s,
    }
}
