//! `lossy_reliable` — the `chaos` ARPANET cell (m-router 10, standby
//! 11, eight members within three hops, off-tree source 13, the full
//! retry suite, the reliable-multicast tier on) at 10 % uniform loss:
//! under each of 120 (link weighting, channel seed) draws per iteration,
//! 100 verified sends and a 40-send trailer, 2 000 ticks apart as in
//! `chaos`. The members join on a perfect channel; loss starts one tick
//! before the first payload.

use super::{delay_horizon, Cell, Loss, Plan, Rules, Schedule};
use scmp_core::router::ReliabilityConfig;
use scmp_core::ScmpConfig;
use scmp_net::rng::{derive_seed, rng_for};
use scmp_net::topology::arpanet;
use scmp_net::{dijkstra, Metric, NodeId, Topology};
use scmp_sim::{FaultPlan, GroupId};
use std::sync::Arc;
use std::time::Instant;

const GROUP: GroupId = GroupId(1);
const M_ROUTER: NodeId = NodeId(10);
const STANDBY: NodeId = NodeId(11);
const SOURCE: NodeId = NodeId(13);
/// ARPANET nodes that stay within three hops of the m-router for every
/// weight seed, so a bounded retry budget guarantees convergence.
const MEMBERS: [u32; 8] = [3, 6, 7, 8, 9, 14, 15, 17];
const LOSS: f64 = 0.10;
/// Longest unicast route, in links, a member or the source may have to
/// the m-router (see [`routes_stay_short`]).
const MAX_HOPS: usize = 4;
/// First payload: after the JOIN/TREE retry budget (eight retries from
/// a 500-tick base, factor capped at 64) has run out.
const FIRST_SEND: u64 = 150_000;
const SEND_SPACING: u64 = 2_000;
/// A join's slice: four heartbeats and two repair scans long whatever
/// the weights, and several round trips on any ARPANET weighting.
const JOIN_WINDOW: u64 = 4_000;
/// Ticks after the last payload for NACK recovery and the announce
/// rounds to finish.
const TAIL: u64 = 100_000;

/// Unicast follows shortest *delay*, and a random weighting can send it
/// the long way round: a heartbeat that crosses seven 10 %-lossy links
/// instead of the direct one is lost more often than not, and a
/// standby that misses twelve in a row promotes itself — correctly.
/// The cell is about the data tier, so weightings are redrawn until the
/// primary→standby route is the direct link and every member and the
/// source reach the m-router within [`MAX_HOPS`] links.
fn routes_stay_short(topo: &Topology) -> bool {
    let spt = dijkstra(topo, M_ROUTER, Metric::Delay);
    let hops = |v: NodeId| spt.path_to(v).map_or(usize::MAX, |p| p.len() - 1);
    hops(STANDBY) == 1
        && MEMBERS
            .iter()
            .map(|&m| NodeId(m))
            .chain([SOURCE])
            .all(|v| hops(v) <= MAX_HOPS)
}

pub fn build(seed: u64, quick: bool) -> Plan {
    let (channels, sends, trailer) = if quick { (4, 40, 20) } else { (120, 100, 40) };

    // ARPANET one-way delays stay under ~100 ticks: a 500-tick retry
    // base clears the worst JOIN→TREE round trip, and twelve lost
    // heartbeats in a row on the one-hop primary→standby path is a
    // 1e-12 event, so any takeover observed is a bug.
    let mut config = ScmpConfig::new(M_ROUTER);
    config.standby = Some(STANDBY);
    config.repair_interval = 2_000;
    config.join_retry = 500;
    config.leave_retry = 500;
    config.tree_retry = 500;
    config.heartbeat_interval = 1_000;
    config.heartbeat_loss_tolerance = 12;
    config.reliability = Some(ReliabilityConfig::default());

    let members: Vec<NodeId> = MEMBERS.iter().map(|&m| NodeId(m)).collect();
    let mut sched = Schedule::new();
    for &m in &members {
        sched.join(m, GROUP, JOIN_WINDOW);
    }
    assert!(sched.t < FIRST_SEND, "joins overran the convergence gap");
    sched.t = FIRST_SEND;
    for _ in 0..sends {
        sched.send(SOURCE, GROUP, Some(0), SEND_SPACING);
    }
    // The stream keeps flowing past the verified window: a receiver
    // only learns of a gap from a later sequence number, and the tier's
    // per-stream NACK budget is nearly spent by the end of a lossy run,
    // so a stream that simply stops strands its last few payloads.
    for _ in 0..trailer {
        sched.send(SOURCE, GROUP, None, SEND_SPACING);
    }
    let end = sched.t + TAIL;

    // Every cell draws its own link weights as well as its own channel:
    // hop counts to the m-router swing the event count by half between
    // weightings, and 120 of them average that out of the run (and give
    // the join quantiles 960 samples).
    let mut topo_build_s = 0.0;
    let cells = (0..channels)
        .map(|k| {
            let t0 = Instant::now();
            let mut rng = rng_for(&format!("bench/lossy_reliable/topo/{k}"), seed);
            let topo = loop {
                let topo = arpanet(&mut rng);
                if routes_stay_short(&topo) {
                    break topo;
                }
            };
            topo_build_s += t0.elapsed().as_secs_f64();
            assert!(
                4 * delay_horizon(&topo, M_ROUTER) <= JOIN_WINDOW,
                "a JOIN conversation may outlast its slice"
            );
            Cell {
                topo: Arc::new(topo),
                config: config.clone(),
                loss: Some(Loss {
                    drop: LOSS,
                    seed: derive_seed(&format!("bench/lossy_reliable/channel/{k}"), seed),
                    from: FIRST_SEND - 1,
                }),
                faults: FaultPlan::new(),
                ops: sched.ops.clone(),
                member_sets: vec![members.clone()],
                final_members: vec![(GROUP, members.clone())],
                join_window: JOIN_WINDOW,
                end: Some(end),
            }
        })
        .collect();
    Plan {
        cells,
        rules: Rules {
            quiet_control_plane: false,
            min_delivery: 0.999,
            takeover_allowed: false,
        },
        topo_build_s,
    }
}
