//! The simulation engine proper: the event loop and fault application.

use super::queue::{EventKind, EventQueue};
use super::telemetry::Telemetry;
use super::transport::{CapacityModel, Transport};
use super::{AppEvent, Ctx, Router, SimTime};
use crate::channel::ChannelModel;
use crate::fault::{FaultEvent, FaultPlan};
use crate::packet::{Packet, PacketClass};
use crate::stats::SimStats;
use scmp_net::{LivePaths, NodeId, Topology};
use scmp_telemetry::{
    DropReason, Event, EventKind as TeleKind, GaugeSample, Sink, Span, TimedScope, TrafficClass,
};

/// The router factory signature: constructs one node's protocol state.
/// `Send` so a whole engine can be handed to a sweep worker thread.
type RouterFactory<R> = Box<dyn FnMut(NodeId, &Topology, &LivePaths) -> R + Send>;

/// The simulation engine: owns the live path view (topology, liveness,
/// routes), per-node protocol state, the transport condition and the
/// event queue.
pub struct Engine<R: Router> {
    /// The domain's IGP: the one place liveness changes and the one
    /// place anything asks for a path.
    paths: LivePaths,
    routers: Vec<R>,
    /// The router factory, kept so a crashed router can be cold-restarted
    /// with factory-fresh state (see [`FaultEvent::RouterCrash`]).
    make: RouterFactory<R>,
    queue: EventQueue<R::Msg>,
    now: SimTime,
    stats: SimStats,
    transport: Transport,
    started: bool,
    event_limit: u64,
    events_processed: u64,
    peak_queue: usize,
    tele: Telemetry,
}

/// The structured form of a scheduled fault.
fn fault_event_kind(fault: &FaultEvent) -> TeleKind {
    match *fault {
        FaultEvent::LinkDown { a, b } => TeleKind::LinkDown { a: a.0, b: b.0 },
        FaultEvent::LinkUp { a, b } => TeleKind::LinkUp { a: a.0, b: b.0 },
        FaultEvent::RouterCrash { .. } => TeleKind::RouterCrash,
        FaultEvent::RouterRecover { .. } => TeleKind::RouterRecover,
    }
}

/// A drop, at the receiving end, of a packet still in hand.
fn drop_of<M>(reason: DropReason, pkt: &Packet<M>) -> TeleKind {
    TeleKind::Drop {
        reason,
        to: None,
        group: Some(pkt.group.0),
        tag: Some(pkt.tag),
    }
}

impl<R: Router> Engine<R> {
    /// Build an engine; `make` constructs the protocol state for each
    /// router (it receives the topology and the live path view so
    /// protocols can precompute). The factory is retained: a
    /// [`FaultEvent::RouterCrash`] wipes the node's state and a later
    /// recovery rebuilds it through the same factory.
    pub fn new(
        topo: Topology,
        mut make: impl FnMut(NodeId, &Topology, &LivePaths) -> R + Send + 'static,
    ) -> Self {
        // The healthy unicast tables are built here, eagerly: deferring
        // them would charge the first join of every fresh engine.
        let paths = LivePaths::new(topo);
        let routers = paths
            .topo()
            .nodes()
            .map(|v| make(v, paths.topo(), &paths))
            .collect();
        Engine {
            paths,
            routers,
            make: Box::new(make),
            queue: EventQueue::new(),
            now: 0,
            stats: SimStats::default(),
            transport: Transport::new(),
            started: false,
            event_limit: 50_000_000,
            events_processed: 0,
            peak_queue: 0,
            tele: Telemetry::new(),
        }
    }

    /// Enable the finite link-capacity model (default: infinite
    /// bandwidth, zero queueing).
    pub fn set_capacity(&mut self, model: CapacityModel) {
        self.transport.set_capacity(model);
    }

    /// Install a channel impairment model (default: perfect channels).
    pub fn set_channel(&mut self, model: ChannelModel) {
        self.transport.set_channel(model);
    }

    /// Install a telemetry sink. The sink's enable flag is cached, so a
    /// [`scmp_telemetry::NullSink`] keeps the hot path at one branch per
    /// would-be event.
    pub fn set_sink(&mut self, sink: Box<dyn Sink + Send>) {
        self.tele.set_sink(sink);
    }

    /// Sample the engine gauges (queue depth, down links/nodes,
    /// cumulative deliveries) every `interval` ticks; `0` disables.
    pub fn set_gauge_interval(&mut self, interval: SimTime) {
        self.tele.set_gauge_interval(interval);
    }

    /// The gauge time series sampled so far.
    pub fn gauges(&self) -> &[GaugeSample] {
        self.tele.gauges()
    }

    /// The tree-health samples recorded so far (empty unless a sink is
    /// enabled — health probes are gated on telemetry being on).
    pub fn health_events(&self) -> &[Event] {
        self.tele.health()
    }

    /// The sink's in-memory event snapshot (empty for the default
    /// [`scmp_telemetry::NullSink`] and for streaming sinks, whose
    /// events already left the process).
    pub fn events(&self) -> Vec<Event> {
        self.tele.snapshot_events()
    }

    /// Flush the telemetry sink (streaming sinks buffer).
    pub fn flush_telemetry(&mut self) {
        self.tele.flush();
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology being simulated.
    pub fn topo(&self) -> &Topology {
        self.paths.topo()
    }

    /// Collected statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Read a router's protocol state (for assertions and reporting).
    pub fn router(&self, node: NodeId) -> &R {
        &self.routers[node.index()]
    }

    /// True while `node` is in service (not crashed / marked down).
    /// [`Engine::router`] still answers for a down node — a crash wipes
    /// its state to factory-fresh, which for a configured m-router
    /// *claims the role* — so post-run probes (the stress oracle's
    /// split-brain check among them) must filter on liveness.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.paths.node_up(node)
    }

    /// Override the runaway-protection event limit (default 50M).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Deepest the event queue has been, sampled once per dispatched
    /// event (the hot-path benchmark's memory-pressure proxy).
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue
    }

    /// Inject an application event at absolute time `time`.
    pub fn schedule_app(&mut self, time: SimTime, node: NodeId, ev: AppEvent) {
        assert!(time >= self.now, "cannot schedule in the past");
        self.queue.push(time, node, EventKind::App(ev));
    }

    /// Mark a node up/down. Packets, timers and app events addressed to a
    /// down node are discarded when they fire. The domain's link-state
    /// IGP reacts at once: the live view's epoch moves, and every route
    /// asked for from now on avoids the node.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.paths.set_node_down(node, down);
        self.sync_path_counters();
    }

    /// True while any node or link is out of service — the failure
    /// window for the during-failure overhead counters.
    pub fn degraded(&self) -> bool {
        self.paths.degraded()
    }

    /// Schedule a fault at absolute time `time`. Faults share the event
    /// queue with packets and timers, so a seeded scenario replays
    /// identically. Link faults must name an existing link.
    pub fn schedule_fault(&mut self, time: SimTime, fault: FaultEvent) {
        assert!(time >= self.now, "cannot schedule in the past");
        match fault {
            FaultEvent::LinkDown { a, b } | FaultEvent::LinkUp { a, b } => {
                assert!(self.topo().has_link(a, b), "no such link {a:?}-{b:?}");
            }
            FaultEvent::RouterCrash { node } | FaultEvent::RouterRecover { node } => {
                assert!(
                    node.index() < self.topo().node_count(),
                    "no such node {node:?}"
                );
            }
        }
        self.queue
            .push(time, fault.primary_node(), EventKind::Fault(fault));
    }

    /// Schedule every fault of a [`FaultPlan`], expanding correlated
    /// fault families (partition, regional outage, flap storm) into
    /// their primitive link events first.
    ///
    /// # Panics
    /// If the plan does not validate against the engine's topology; call
    /// [`FaultPlan::validate`] first for a `Result`.
    pub fn schedule_fault_plan(&mut self, plan: &FaultPlan) {
        let specs = plan
            .expand(self.topo())
            .expect("fault plan invalid for this topology");
        for spec in &specs {
            self.schedule_fault(spec.time, spec.to_event());
        }
    }

    /// Apply a fault that fired: flip liveness (O(1) — see
    /// [`LivePaths`]) and cold-restart crashed routers. Recovery re-runs
    /// `on_start` on the rebuilt state machine.
    fn apply_fault(&mut self, fault: FaultEvent) {
        match fault {
            FaultEvent::LinkDown { a, b } => self.set_link_down(a, b, true),
            FaultEvent::LinkUp { a, b } => self.set_link_down(a, b, false),
            FaultEvent::RouterCrash { node } => {
                // Wipe the protocol state now; the node stays down (all
                // events addressed to it are discarded) until recovery.
                self.routers[node.index()] = (self.make)(node, self.paths.topo(), &self.paths);
                self.set_node_down(node, true);
            }
            FaultEvent::RouterRecover { node } => {
                self.set_node_down(node, false);
                let mut ctx = Ctx {
                    now: self.now,
                    node,
                    paths: &self.paths,
                    queue: &mut self.queue,
                    stats: &mut self.stats,
                    transport: &mut self.transport,
                    tele: &mut self.tele,
                };
                self.routers[node.index()].on_start(&mut ctx);
            }
        }
    }

    /// Mark a link up/down (both directions); routes asked for from now
    /// on avoid it.
    ///
    /// # Panics
    /// If the topology has no such link.
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId, down: bool) {
        self.paths.set_link_down(a, b, down);
        self.sync_path_counters();
    }

    /// Copy the live view's work counters into the statistics (they are
    /// read between runs, so once per run and per manual liveness change
    /// is enough).
    fn sync_path_counters(&mut self) {
        self.stats.spf_runs = self.paths.spf_runs();
        self.stats.liveness_epochs = self.paths.epoch();
    }

    /// The engine's own observations (faults, dispatches, drops at a
    /// dead node or a failed checksum) enter where the routers' do.
    fn observe(&mut self, node: NodeId, kind: TeleKind) {
        self.tele.observe(&mut self.stats, self.now, node, kind);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.routers.len() {
            let node = NodeId(i as u32);
            let mut ctx = Ctx {
                now: self.now,
                node,
                paths: &self.paths,
                queue: &mut self.queue,
                stats: &mut self.stats,
                transport: &mut self.transport,
                tele: &mut self.tele,
            };
            self.routers[i].on_start(&mut ctx);
        }
    }

    /// Run until the queue drains or the next event is later than
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let _batch = TimedScope::new(Span::DispatchBatch);
        let mut processed = 0;
        while let Some(top) = self.queue.peek_time() {
            if top > deadline {
                break;
            }
            self.peak_queue = self.peak_queue.max(self.queue.len());
            let (time, node, kind) = self.queue.pop().expect("peeked");
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.events_processed += 1;
            processed += 1;
            assert!(
                self.events_processed <= self.event_limit,
                "event limit exceeded: protocol livelock?"
            );
            self.tele.maybe_sample(
                self.now,
                self.queue.len(),
                &self.paths,
                self.stats.distinct_deliveries() as u64,
            );
            // Faults are infrastructure events: they fire regardless of
            // the target's liveness (a crashed node can still recover).
            if let EventKind::Fault(fault) = kind {
                self.observe(node, fault_event_kind(&fault));
                self.apply_fault(fault);
                continue;
            }
            if !self.paths.node_up(node) {
                if let EventKind::Deliver { pkt, .. } = &kind {
                    self.observe(node, drop_of(DropReason::DeadNode, pkt));
                }
                continue;
            }
            // A corrupted arrival fails the receiver's checksum: counted
            // and traced as a drop, never dispatched to the protocol.
            if let EventKind::Deliver {
                corrupted: true,
                ref pkt,
                ..
            } = kind
            {
                self.observe(node, drop_of(DropReason::Corrupt, pkt));
                continue;
            }
            if self.tele.on() {
                let tk = match &kind {
                    EventKind::Deliver { from, pkt, .. } => TeleKind::Deliver {
                        from: from.0,
                        class: match pkt.class {
                            PacketClass::Data => TrafficClass::Data,
                            PacketClass::Control => TrafficClass::Control,
                        },
                        group: pkt.group.0,
                        tag: pkt.tag,
                        ctl: R::classify(&pkt.body),
                    },
                    EventKind::Timer { token } => TeleKind::Timer { token: *token },
                    EventKind::App(AppEvent::Join(g)) => TeleKind::Join { group: g.0 },
                    EventKind::App(AppEvent::Leave(g)) => TeleKind::Leave { group: g.0 },
                    EventKind::App(AppEvent::Send { group, tag }) => TeleKind::Send {
                        group: group.0,
                        tag: *tag,
                    },
                    EventKind::Fault(_) => unreachable!("handled above"),
                };
                self.observe(node, tk);
            }
            let mut ctx = Ctx {
                now: self.now,
                node,
                paths: &self.paths,
                queue: &mut self.queue,
                stats: &mut self.stats,
                transport: &mut self.transport,
                tele: &mut self.tele,
            };
            match kind {
                EventKind::Deliver { from, pkt, .. } => {
                    self.routers[node.index()].on_packet(from, pkt, &mut ctx)
                }
                EventKind::Timer { token } => self.routers[node.index()].on_timer(token, &mut ctx),
                EventKind::App(app) => self.routers[node.index()].on_app(app, &mut ctx),
                EventKind::Fault(_) => unreachable!("handled above"),
            }
        }
        self.sync_path_counters();
        processed
    }

    /// Run until the event queue is completely drained.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }
}
