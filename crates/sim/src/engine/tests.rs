//! Engine-level behaviour tests: flooding, unicast, faults, capacity,
//! the event stream and determinism, driven through the public API.

use super::*;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::packet::{GroupId, Packet};
use scmp_net::graph::LinkWeight;
use scmp_net::topology::regular::line;
use scmp_net::NodeId;
use scmp_telemetry::{DropReason, EventKind as TeleKind, RingSink, TrafficClass};

/// Record every event of the run in memory.
fn record_events<R: Router>(e: &mut Engine<R>) {
    e.set_sink(Box::new(RingSink::new(1 << 16)));
}

/// A toy protocol: floods data to all neighbours except the one it
/// came from; delivers locally everywhere; answers a Join app event
/// by unicasting a control packet to node 0.
struct Flood {
    me: NodeId,
    seen: std::collections::HashSet<u64>,
}

#[derive(Clone, Debug)]
enum Msg {
    Payload,
    Hello,
}

impl Router for Flood {
    type Msg = Msg;

    fn on_packet(&mut self, from: NodeId, pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
        match pkt.body {
            Msg::Payload => {
                if !self.seen.insert(pkt.tag) {
                    ctx.drop_packet();
                    return;
                }
                ctx.deliver_local(&pkt);
                let neighbors: Vec<NodeId> =
                    ctx.topo().neighbors(self.me).iter().map(|e| e.to).collect();
                for n in neighbors {
                    if n != from {
                        ctx.send(n, pkt.clone());
                    }
                }
            }
            Msg::Hello => {}
        }
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, Msg>) {
        match ev {
            AppEvent::Send { group, tag } => {
                self.seen.insert(tag);
                let pkt = Packet::data(group, tag, ctx.now(), Msg::Payload);
                ctx.deliver_local(&pkt);
                let neighbors: Vec<NodeId> =
                    ctx.topo().neighbors(self.me).iter().map(|e| e.to).collect();
                for n in neighbors {
                    ctx.send(n, pkt.clone());
                }
            }
            AppEvent::Join(g) => {
                ctx.unicast(NodeId(0), Packet::control(g, Msg::Hello));
            }
            AppEvent::Leave(_) => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Msg>) {
        // Re-flood with a tag derived from the token.
        self.on_app(
            AppEvent::Send {
                group: GroupId(0),
                tag: token,
            },
            ctx,
        );
    }
}

fn engine(n: usize) -> Engine<Flood> {
    let topo = line(n, LinkWeight::new(2, 3));
    Engine::new(topo, |me, _, _| Flood {
        me,
        seen: Default::default(),
    })
}

#[test]
fn flood_reaches_everyone_once() {
    let mut e = engine(5);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 42,
        },
    );
    e.run_to_quiescence();
    for v in 0..5u32 {
        assert_eq!(e.stats().delivery_count(GroupId(1), 42, NodeId(v)), 1);
    }
    assert!(!e.stats().has_duplicate_deliveries());
    // Line of 4 links, delay 2 each: farthest delivery at delay 8.
    assert_eq!(e.stats().max_end_to_end_delay, 8);
    // 4 data hops each costing 3.
    assert_eq!(e.stats().data_overhead, 12);
    assert_eq!(e.stats().protocol_overhead, 0);
}

#[test]
fn unicast_charges_full_path() {
    let mut e = engine(4);
    e.schedule_app(5, NodeId(3), AppEvent::Join(GroupId(1)));
    e.run_to_quiescence();
    // 3 hops at cost 3 = 9 units of protocol overhead.
    assert_eq!(e.stats().protocol_overhead, 9);
    assert_eq!(e.stats().control_hops, 3);
    assert_eq!(e.stats().data_overhead, 0);
}

#[test]
fn dead_link_drops_flood() {
    let mut e = engine(5);
    e.set_link_down(NodeId(2), NodeId(3), true);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(3)), 0);
    assert!(e.stats().drops > 0);
}

#[test]
fn dead_node_swallows_deliveries() {
    let mut e = engine(5);
    e.set_node_down(NodeId(2), true);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(1)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(4)), 0);
}

#[test]
fn node_recovery_allows_later_traffic() {
    let mut e = engine(3);
    e.set_node_down(NodeId(1), true);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_until(100);
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 0);
    e.set_node_down(NodeId(1), false);
    e.schedule_app(
        200,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(2)), 1);
}

#[test]
fn timers_fire_in_order() {
    let mut e = engine(2);
    // Two app events at the same time keep injection order (seq).
    e.schedule_app(
        10,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 1,
        },
    );
    e.schedule_app(
        10,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 2,
        },
    );
    let processed = e.run_until(9);
    assert_eq!(processed, 0);
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(0), 1, NodeId(1)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(0), 2, NodeId(1)), 1);
}

#[test]
fn run_until_respects_deadline() {
    let mut e = engine(5);
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 9,
        },
    );
    e.run_until(99);
    assert_eq!(e.stats().distinct_deliveries(), 0);
    e.run_until(101);
    // Send processed at 100; first-hop deliveries at 102 still queued.
    assert_eq!(e.stats().delivery_count(GroupId(0), 9, NodeId(0)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(0), 9, NodeId(1)), 0);
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(0), 9, NodeId(4)), 1);
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "not a neighbour"))]
fn send_to_non_neighbor_asserts_in_debug() {
    struct Bad;
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Bad {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            ctx.send(NodeId(3), Packet::control(GroupId(0), M));
        }
    }
    let topo = line(4, LinkWeight::new(1, 1));
    let mut e: Engine<Bad> = Engine::new(topo, |_, _, _| Bad);
    record_events(&mut e);
    e.schedule_app(0, NodeId(0), AppEvent::Leave(GroupId(0)));
    e.run_to_quiescence();
    // Release builds reach here: the bad send is a counted, traced drop.
    assert_eq!(e.stats().drops, 1);
    assert!(e.events().iter().any(|ev| matches!(
        ev.kind,
        TeleKind::Drop {
            reason: DropReason::NonNeighbour,
            to: Some(3),
            ..
        }
    )));
}

#[test]
fn capacity_serialises_back_to_back_sends() {
    // Two packets on the same link: the second waits for the first's
    // transmission (tx = 10), so its delivery is 10 ticks later.
    let mut e = engine(2);
    e.set_capacity(CapacityModel::uniform(10, 100));
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 1,
        },
    );
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 2,
        },
    );
    e.run_to_quiescence();
    // Link delay 2, tx 10: first arrives at 12, second at 22.
    assert_eq!(e.stats().delivery_delay(GroupId(0), 1, NodeId(1)), Some(12));
    assert_eq!(e.stats().delivery_delay(GroupId(0), 2, NodeId(1)), Some(22));
    assert_eq!(e.stats().max_queueing_delay, 10);
    assert_eq!(e.stats().queue_drops, 0);
}

#[test]
fn capacity_queue_overflow_drops() {
    let mut e = engine(2);
    e.set_capacity(CapacityModel::uniform(10, 2)); // 2 queue slots
    for tag in 0..10 {
        e.schedule_app(
            0,
            NodeId(0),
            AppEvent::Send {
                group: GroupId(0),
                tag,
            },
        );
    }
    e.run_to_quiescence();
    assert!(e.stats().queue_drops > 0, "overloaded link must drop");
    let delivered = (0..10)
        .filter(|&t| e.stats().delivery_count(GroupId(0), t, NodeId(1)) == 1)
        .count();
    assert!(delivered < 10);
    assert!(delivered >= 3, "head of queue still flows: {delivered}");
}

#[test]
fn node_tx_override_speeds_up_sender() {
    let mut slow = engine(2);
    slow.set_capacity(CapacityModel::uniform(50, 100));
    let mut fast = engine(2);
    fast.set_capacity(CapacityModel::uniform(50, 100).with_node_tx(NodeId(0), 1));
    for e in [&mut slow, &mut fast] {
        for tag in 0..5 {
            e.schedule_app(
                0,
                NodeId(0),
                AppEvent::Send {
                    group: GroupId(0),
                    tag,
                },
            );
        }
        e.run_to_quiescence();
    }
    assert!(
        fast.stats().max_end_to_end_delay < slow.stats().max_end_to_end_delay,
        "fast {} vs slow {}",
        fast.stats().max_end_to_end_delay,
        slow.stats().max_end_to_end_delay
    );
}

#[test]
fn no_capacity_means_no_queueing() {
    let mut e = engine(2);
    for tag in 0..50 {
        e.schedule_app(
            0,
            NodeId(0),
            AppEvent::Send {
                group: GroupId(0),
                tag,
            },
        );
    }
    e.run_to_quiescence();
    assert_eq!(e.stats().queueing_delay_total, 0);
    assert_eq!(e.stats().queue_drops, 0);
    assert_eq!(e.stats().max_end_to_end_delay, 2);
}

#[test]
fn trace_records_dispatches() {
    let mut e = engine(3);
    record_events(&mut e);
    e.schedule_app(
        5,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(2),
            tag: 7,
        },
    );
    e.run_to_quiescence();
    let trace = e.events();
    assert!(!trace.is_empty());
    assert_eq!((trace[0].time, trace[0].node), (5, 0));
    assert_eq!(trace[0].kind, TeleKind::Send { group: 2, tag: 7 });
    // Flood deliveries appear with class/group/tag metadata.
    assert!(trace.iter().any(|ev| matches!(
        ev.kind,
        TeleKind::Deliver {
            class: TrafficClass::Data,
            group: 2,
            tag: 7,
            ..
        }
    )));
}

#[test]
fn trace_disabled_by_default() {
    let mut e = engine(2);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(0),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    assert!(e.events().is_empty());
}

#[test]
#[should_panic(expected = "event limit")]
fn event_limit_catches_livelock() {
    // A protocol that reschedules itself forever.
    struct Loopy;
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Loopy {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, M>) {
            ctx.set_timer(1, token);
        }
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            ctx.set_timer(1, 0);
        }
    }
    let topo = line(2, LinkWeight::new(1, 1));
    let mut e: Engine<Loopy> = Engine::new(topo, |_, _, _| Loopy);
    e.set_event_limit(1000);
    e.schedule_app(0, NodeId(0), AppEvent::Leave(GroupId(0)));
    e.run_to_quiescence();
}

#[test]
fn scheduled_link_faults_cut_and_restore() {
    let mut e = engine(5);
    e.schedule_fault(
        50,
        FaultEvent::LinkDown {
            a: NodeId(2),
            b: NodeId(3),
        },
    );
    e.schedule_fault(
        300,
        FaultEvent::LinkUp {
            a: NodeId(3),
            b: NodeId(2), // endpoint order must not matter
        },
    );
    // Before the cut: full line reachable.
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    // During the cut: flood stops at node 2.
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    // After restoration: full line reachable again.
    e.schedule_app(
        400,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 3,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(4)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(2)), 1);
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(3)), 0);
    assert_eq!(e.stats().delivery_count(GroupId(1), 3, NodeId(4)), 1);
    // Only the LinkDown counts as a failure.
    assert_eq!(e.stats().faults_injected, 1);
    assert_eq!(e.stats().last_fault_at, Some(50));
    assert!(!e.degraded());
}

#[test]
fn router_crash_wipes_protocol_state() {
    // Flood dedups on `seen`; a crash must cold-restart that state,
    // so a post-recovery replay of the same tag is accepted again.
    let mut e = engine(3);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 7,
        },
    );
    e.schedule_fault(100, FaultEvent::RouterCrash { node: NodeId(1) });
    e.schedule_fault(200, FaultEvent::RouterRecover { node: NodeId(1) });
    e.schedule_app(
        300,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 7, // same tag — a survivor would dedup it
        },
    );
    e.run_to_quiescence();
    // Node 1 delivered tag 7 twice (fresh `seen` after the crash);
    // node 2 kept its state and deduped the replay.
    assert_eq!(e.stats().delivery_count(GroupId(1), 7, NodeId(1)), 2);
    assert_eq!(e.stats().delivery_count(GroupId(1), 7, NodeId(2)), 1);
    assert_eq!(e.stats().faults_injected, 1);
}

#[test]
fn crash_window_swallows_traffic() {
    let mut e = engine(3);
    e.schedule_fault(10, FaultEvent::RouterCrash { node: NodeId(1) });
    e.schedule_app(
        20,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.schedule_fault(100, FaultEvent::RouterRecover { node: NodeId(1) });
    e.schedule_app(
        200,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    e.run_to_quiescence();
    // During the crash nothing passes node 1; afterwards it flows.
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 0);
    assert_eq!(e.stats().delivery_count(GroupId(1), 2, NodeId(2)), 1);
}

#[test]
fn degraded_window_charges_failure_overhead() {
    let mut e = engine(5);
    e.schedule_app(
        0,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    // Cut an edge-of-line link so most of the flood still flows.
    e.schedule_fault(
        50,
        FaultEvent::LinkDown {
            a: NodeId(3),
            b: NodeId(4),
        },
    );
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 2,
        },
    );
    e.schedule_fault(
        300,
        FaultEvent::LinkUp {
            a: NodeId(3),
            b: NodeId(4),
        },
    );
    e.schedule_app(
        400,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 3,
        },
    );
    e.run_to_quiescence();
    // Healthy sends cross 4 links at cost 3 each; the degraded send
    // crosses the surviving 3. Only the latter lands in the
    // during-failure bucket.
    assert_eq!(e.stats().data_overhead, 12 + 9 + 12);
    assert_eq!(e.stats().data_overhead_during_failure, 9);
    assert_eq!(e.stats().control_overhead_during_failure, 0);
}

#[test]
fn fault_plan_schedules_and_traces() {
    let plan = FaultPlan::new()
        .at(50, FaultKind::LinkDown { a: 1, b: 2 })
        .at(150, FaultKind::LinkUp { a: 1, b: 2 });
    let mut e = engine(3);
    record_events(&mut e);
    e.schedule_fault_plan(&plan);
    e.schedule_app(
        100,
        NodeId(0),
        AppEvent::Send {
            group: GroupId(1),
            tag: 1,
        },
    );
    e.run_to_quiescence();
    assert_eq!(e.stats().delivery_count(GroupId(1), 1, NodeId(2)), 0);
    let faults: Vec<_> = e
        .events()
        .iter()
        .filter(|ev| matches!(ev.kind, TeleKind::LinkDown { .. } | TeleKind::LinkUp { .. }))
        .map(|ev| (ev.time, ev.kind))
        .collect();
    assert_eq!(
        faults,
        [
            (50, TeleKind::LinkDown { a: 1, b: 2 }),
            (150, TeleKind::LinkUp { a: 1, b: 2 })
        ]
    );
    assert_eq!(e.stats().faults_injected, 1, "only the cut is a failure");
}

#[test]
fn fault_runs_are_deterministic() {
    let run = || {
        let mut e = engine(5);
        record_events(&mut e);
        let plan = FaultPlan::new()
            .at(40, FaultKind::RouterCrash { node: 2 })
            .at(90, FaultKind::RouterRecover { node: 2 })
            .at(120, FaultKind::LinkDown { a: 0, b: 1 })
            .at(180, FaultKind::LinkUp { a: 0, b: 1 });
        e.schedule_fault_plan(&plan);
        for tag in 0..6 {
            e.schedule_app(
                tag * 35,
                NodeId(0),
                AppEvent::Send {
                    group: GroupId(1),
                    tag,
                },
            );
        }
        e.run_to_quiescence();
        (e.events(), e.stats().clone())
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert_eq!(t1, t2, "same plan + same seed must replay bit-for-bit");
    assert_eq!(s1.data_overhead, s2.data_overhead);
    assert_eq!(s1.drops, s2.drops);
    assert_eq!(s1.faults_injected, s2.faults_injected);
    assert!(!t1.is_empty());
}

#[test]
#[should_panic(expected = "no such link")]
fn fault_on_missing_link_panics() {
    let mut e = engine(3);
    e.schedule_fault(
        10,
        FaultEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(2), // line(3) has no 0-2 link
        },
    );
}

#[test]
fn live_view_reflects_faults() {
    struct Probe;
    #[derive(Clone, Debug)]
    struct M;
    impl Router for Probe {
        type Msg = M;
        fn on_packet(&mut self, _: NodeId, _: Packet<M>, _: &mut Ctx<'_, M>) {}
        fn on_app(&mut self, _: AppEvent, ctx: &mut Ctx<'_, M>) {
            use scmp_net::PathProvider;
            // Node 2 crashed, link 0-1 cut: what a handler sees through
            // its context is the ring minus both.
            assert!(!ctx.node_up(NodeId(2)));
            assert!(!ctx.link_up(NodeId(0), NodeId(1)));
            assert!(!ctx.link_up(NodeId(2), NodeId(3)), "dead endpoint");
            let live = ctx.routes();
            assert!(live.degraded());
            assert_eq!(live.epoch(), 2);
            assert_eq!(live.route(NodeId(0), NodeId(3)), Some(path(&[0, 4, 3])));
            assert_eq!(live.next_hop(NodeId(0), NodeId(3)), Some(NodeId(4)));
            assert_eq!(live.route(NodeId(0), NodeId(1)), None, "1 is cut off");
            assert_eq!(live.unicast_delay(NodeId(0), NodeId(3)), Some(2));
            assert_eq!(live.unicast_delay(NodeId(0), NodeId(2)), None);
        }
    }
    fn path(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }
    let topo = scmp_net::topology::regular::ring(5, LinkWeight::new(1, 1));
    let mut e: Engine<Probe> = Engine::new(topo, |_, _, _| Probe);
    e.schedule_fault(5, FaultEvent::RouterCrash { node: NodeId(2) });
    e.schedule_fault(
        5,
        FaultEvent::LinkDown {
            a: NodeId(0),
            b: NodeId(1),
        },
    );
    e.schedule_app(10, NodeId(0), AppEvent::Leave(GroupId(0)));
    e.run_to_quiescence();
    assert!(e.degraded());
    assert_eq!(e.stats().liveness_epochs, 2);
    assert_eq!(e.stats().spf_runs, 3, "trees rooted at 3, 1 and 0");
}

#[test]
fn flap_storm_costs_one_tree_per_epoch_and_queried_root() {
    // 6 links × 4 cycles on a 5×5 grid; every router unicasts to node 0
    // every 10 ticks throughout. Rebuilding the tables per link event
    // cost n Dijkstra runs each (25 × 48 here); the live view runs one
    // per liveness epoch and root actually asked for — and node 0 is the
    // only root anybody asks for.
    let topo = scmp_net::topology::regular::grid(5, 5, LinkWeight::new(2, 3));
    let mut e: Engine<Flood> = Engine::new(topo, |me, _, _| Flood {
        me,
        seen: Default::default(),
    });
    let storm = FaultKind::FlapStorm {
        seed: 7,
        links: 6,
        cycles: 4,
        period: 200,
    };
    e.schedule_fault_plan(&FaultPlan::new().at(100, storm));
    for t in (0..1_200).step_by(10) {
        for v in 1..25 {
            e.schedule_app(t, NodeId(v), AppEvent::Join(GroupId(1)));
        }
    }
    e.run_to_quiescence();
    let stats = e.stats();
    assert!(!e.degraded(), "the storm ends with every link back up");
    assert_eq!(stats.liveness_epochs, 6 * 4 * 2);
    assert!(stats.spf_runs > 0, "degraded routes are computed");
    let distinct_roots = 1;
    assert!(
        stats.spf_runs <= stats.liveness_epochs * distinct_roots,
        "{} trees for {} epochs",
        stats.spf_runs,
        stats.liveness_epochs
    );
}

#[test]
fn erased_runner_drives_like_the_concrete_engine() {
    let mut concrete = engine(5);
    let mut erased: Box<dyn EngineRunner> = Box::new(engine(5));
    for e in [&mut concrete as &mut dyn EngineRunner, erased.as_mut()] {
        e.schedule_app(
            0,
            NodeId(0),
            AppEvent::Send {
                group: GroupId(1),
                tag: 1,
            },
        );
        e.run_to_quiescence();
    }
    assert_eq!(concrete.stats().data_overhead, erased.stats().data_overhead);
    assert_eq!(concrete.stats().distinct_deliveries(), 5);
    assert_eq!(erased.stats().distinct_deliveries(), 5);
}
