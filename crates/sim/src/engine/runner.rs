//! Object-safe erasure of [`Engine`]: drive any protocol's engine
//! through one vtable.
//!
//! `Engine<R>` is generic over the protocol, so heterogeneous scenario
//! drivers (the bench harness, the protocol registry) cannot hold a
//! collection of them directly. [`EngineRunner`] erases the protocol
//! type behind the driving surface every experiment uses: scheduling,
//! capacity, telemetry sinks, running and statistics. Protocol-specific state
//! inspection stays on the concrete `Engine<R>`.

use super::core::Engine;
use super::transport::CapacityModel;
use super::{AppEvent, Router, SimTime};
use crate::channel::ChannelModel;
use crate::fault::{FaultEvent, FaultPlan};
use crate::stats::SimStats;
use scmp_net::{NodeId, Topology};
use scmp_telemetry::{Event, GaugeSample, Sink};

/// The protocol-agnostic driving surface of an [`Engine`].
pub trait EngineRunner {
    /// Inject an application event at absolute time `time`.
    fn schedule_app(&mut self, time: SimTime, node: NodeId, ev: AppEvent);
    /// Schedule a single fault.
    fn schedule_fault(&mut self, time: SimTime, fault: FaultEvent);
    /// Schedule every fault of a plan.
    fn schedule_fault_plan(&mut self, plan: &FaultPlan);
    /// Enable the finite link-capacity model.
    fn set_capacity(&mut self, model: CapacityModel);
    /// Install a channel impairment model.
    fn set_channel(&mut self, model: ChannelModel);
    /// Override the runaway-protection event limit.
    fn set_event_limit(&mut self, limit: u64);
    /// Install a telemetry sink.
    fn set_sink(&mut self, sink: Box<dyn Sink + Send>);
    /// Sample engine gauges every `interval` ticks (`0` disables).
    fn set_gauge_interval(&mut self, interval: SimTime);
    /// The gauge time series sampled so far.
    fn gauges(&self) -> &[GaugeSample];
    /// The sink's in-memory event snapshot.
    fn events(&self) -> Vec<Event>;
    /// Flush the telemetry sink.
    fn flush_telemetry(&mut self);
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// The topology being simulated.
    fn topo(&self) -> &Topology;
    /// Collected statistics.
    fn stats(&self) -> &SimStats;
    /// Deepest the event queue has been.
    fn peak_queue_depth(&self) -> usize;
    /// Run until the queue drains or the next event is past `deadline`.
    fn run_until(&mut self, deadline: SimTime) -> u64;
    /// Run until the event queue is completely drained.
    fn run_to_quiescence(&mut self) -> u64;
}

impl<R: Router> EngineRunner for Engine<R> {
    fn schedule_app(&mut self, time: SimTime, node: NodeId, ev: AppEvent) {
        Engine::schedule_app(self, time, node, ev);
    }
    fn schedule_fault(&mut self, time: SimTime, fault: FaultEvent) {
        Engine::schedule_fault(self, time, fault);
    }
    fn schedule_fault_plan(&mut self, plan: &FaultPlan) {
        Engine::schedule_fault_plan(self, plan);
    }
    fn set_capacity(&mut self, model: CapacityModel) {
        Engine::set_capacity(self, model);
    }
    fn set_channel(&mut self, model: ChannelModel) {
        Engine::set_channel(self, model);
    }
    fn set_event_limit(&mut self, limit: u64) {
        Engine::set_event_limit(self, limit);
    }
    fn set_sink(&mut self, sink: Box<dyn Sink + Send>) {
        Engine::set_sink(self, sink);
    }
    fn set_gauge_interval(&mut self, interval: SimTime) {
        Engine::set_gauge_interval(self, interval);
    }
    fn gauges(&self) -> &[GaugeSample] {
        Engine::gauges(self)
    }
    fn events(&self) -> Vec<Event> {
        Engine::events(self)
    }
    fn flush_telemetry(&mut self) {
        Engine::flush_telemetry(self);
    }
    fn now(&self) -> SimTime {
        Engine::now(self)
    }
    fn topo(&self) -> &Topology {
        Engine::topo(self)
    }
    fn stats(&self) -> &SimStats {
        Engine::stats(self)
    }
    fn peak_queue_depth(&self) -> usize {
        Engine::peak_queue_depth(self)
    }
    fn run_until(&mut self, deadline: SimTime) -> u64 {
        Engine::run_until(self, deadline)
    }
    fn run_to_quiescence(&mut self) -> u64 {
        Engine::run_to_quiescence(self)
    }
}
