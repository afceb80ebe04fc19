//! `zipf_churn_10k` — one 10 000-node transit–stub engine, 32 groups,
//! 1 250 membership ops (four joins to one leave, Zipf(1.0) over
//! groups, uniform members), then one send per populated group to
//! verify the final membership. Ops sit four delay-horizons apart, so every JOIN
//! conversation has a `run_until` slice to itself.

use super::{
    delay_horizon, quiet_config, transit_stub_shape, Cell, Plan, Rules, Schedule, Zipf, GRID,
};
use rand::seq::SliceRandom;
use rand::Rng;
use scmp_net::rng::rng_for;
use scmp_net::topology::transit_stub;
use scmp_net::NodeId;
use scmp_sim::{FaultPlan, GroupId};
use std::sync::Arc;
use std::time::Instant;

const M_ROUTER: NodeId = NodeId(0);

pub fn build(seed: u64, quick: bool) -> Plan {
    let (nodes, groups, ops) = if quick {
        (370, 8, 100)
    } else {
        (10_000, 32, 1_250)
    };
    let t0 = Instant::now();
    let (t, s, k) = transit_stub_shape(nodes);
    let topo = transit_stub(t, s, k, GRID, &mut rng_for("bench/zipf_churn/topo", seed));
    let topo_build_s = t0.elapsed().as_secs_f64();
    let n = topo.node_count() as u32;
    let horizon = delay_horizon(&topo, M_ROUTER);
    let window = 4 * horizon;

    let zipf = Zipf::new(groups, 1.0);
    let mut rng = rng_for("bench/zipf_churn/ops", seed);
    // Which group each join goes to: exactly Zipf-proportional counts in
    // a seeded order. Drawn one by one, the most popular group would get
    // 246 ± 14 of the joins, and since a join costs in proportion to its
    // tree, that alone moves the tail latency by a tenth between seeds.
    let mut join_groups: Vec<usize> = zipf
        .apportion(ops - ops / 5)
        .into_iter()
        .enumerate()
        .flat_map(|(g, count)| std::iter::repeat_n(g, count))
        .collect();
    join_groups.shuffle(&mut rng);
    let mut join_groups = join_groups.into_iter();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); groups];
    let mut sched = Schedule::new();
    for i in 0..ops {
        // Every fifth op is a leave, from a group drawn by popularity
        // (redrawn until someone is in it), so the 4:1 mix is exact.
        if i % 5 == 4 {
            let g = loop {
                let g = zipf.sample(&mut rng);
                if !members[g].is_empty() {
                    break g;
                }
            };
            let at = rng.gen_range(0..members[g].len());
            let who = members[g].swap_remove(at);
            sched.leave(who, GroupId(g as u32 + 1), window);
        } else {
            let g = join_groups.next().expect("one group per join");
            let who = loop {
                let v = NodeId(rng.gen_range(0..n));
                if v != M_ROUTER && !members[g].contains(&v) {
                    break v;
                }
            };
            members[g].push(who);
            sched.join(who, GroupId(g as u32 + 1), window);
        }
    }
    // One payload per populated group, from its first member's DR.
    let mut member_sets = Vec::new();
    let mut final_members = Vec::new();
    for (g, set) in members.into_iter().enumerate() {
        let Some(&source) = set.first() else { continue };
        let group = GroupId(g as u32 + 1);
        sched.send(source, group, Some(member_sets.len() as u32), window);
        member_sets.push(set.clone());
        final_members.push((group, set));
    }
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
