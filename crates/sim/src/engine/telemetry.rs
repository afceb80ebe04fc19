//! The engine's telemetry seam: one owned [`Sink`] plus the periodic
//! gauge sampler.
//!
//! The engine (and every [`Ctx`](super::Ctx)) reports "something
//! observable happened" through [`Telemetry::observe`] and nothing
//! else: the event is counted into [`SimStats`] and then, if a sink is
//! listening, recorded. `enabled` caches [`Sink::enabled`] at install
//! time, so with the default [`NullSink`] an observation costs its
//! counter bump and one predictable branch.

use super::SimTime;
use crate::stats::SimStats;
use scmp_net::{LivePaths, NodeId};
use scmp_telemetry::{Event, EventKind, GaugeSample, NullSink, Sink};

/// The engine's telemetry state: sink, cached enable flag, gauge
/// sampling schedule and the collected gauge series.
pub(super) struct Telemetry {
    sink: Box<dyn Sink + Send>,
    enabled: bool,
    gauge_interval: Option<SimTime>,
    next_sample: SimTime,
    gauges: Vec<GaugeSample>,
    health: Vec<Event>,
}

impl Telemetry {
    /// Disabled telemetry (the default): a [`NullSink`].
    pub(super) fn new() -> Self {
        Telemetry {
            sink: Box::new(NullSink),
            enabled: false,
            gauge_interval: None,
            next_sample: 0,
            gauges: Vec::new(),
            health: Vec::new(),
        }
    }

    /// Install a sink, caching its enable flag.
    pub(super) fn set_sink(&mut self, sink: Box<dyn Sink + Send>) {
        self.enabled = sink.enabled();
        self.sink = sink;
    }

    /// Whether event emission is worth the construction cost.
    #[inline]
    pub(super) fn on(&self) -> bool {
        self.enabled
    }

    /// Something observable happened at `node`: count it, then record
    /// it if a sink is listening (tree-health samples are also kept in
    /// the in-memory registry). Inlined so a call site that builds
    /// `kind` in place keeps only that kind's arms.
    #[inline]
    pub(super) fn observe(
        &mut self,
        stats: &mut SimStats,
        time: SimTime,
        node: NodeId,
        kind: EventKind,
    ) {
        let ev = Event {
            time,
            node: node.0,
            kind,
        };
        stats.count(&ev);
        if self.enabled {
            self.sink.record(&ev);
        }
        if matches!(kind, EventKind::TreeHealth { .. }) {
            self.health.push(ev);
        }
    }

    /// Enable periodic gauge sampling every `interval` ticks (`0`
    /// disables).
    pub(super) fn set_gauge_interval(&mut self, interval: SimTime) {
        if interval == 0 {
            self.gauge_interval = None;
        } else {
            self.gauge_interval = Some(interval);
            self.next_sample = interval;
        }
    }

    /// Take a gauge sample if the schedule says one is due at `now`.
    /// Samples are kept in-memory and, when the sink is enabled, also
    /// emitted as [`EventKind::Gauge`] events.
    pub(super) fn maybe_sample(
        &mut self,
        now: SimTime,
        queue_depth: usize,
        paths: &LivePaths,
        deliveries: u64,
    ) {
        let Some(interval) = self.gauge_interval else {
            return;
        };
        if now < self.next_sample {
            return;
        }
        let sample = GaugeSample {
            time: now,
            queue_depth: queue_depth as u64,
            down_links: paths.down_link_count() as u64,
            down_nodes: paths.down_node_count() as u64,
            deliveries,
        };
        self.gauges.push(sample);
        if self.enabled {
            self.sink.record(&sample.to_event());
        }
        self.next_sample = now + interval;
    }

    /// The gauge series sampled so far.
    pub(super) fn gauges(&self) -> &[GaugeSample] {
        &self.gauges
    }

    /// The tree-health samples recorded so far.
    pub(super) fn health(&self) -> &[Event] {
        &self.health
    }

    /// Flush the sink (streaming sinks buffer).
    pub(super) fn flush(&mut self) {
        self.sink.flush();
    }

    /// The sink's in-memory snapshot (empty for streaming sinks).
    pub(super) fn snapshot_events(&self) -> Vec<Event> {
        self.sink.snapshot()
    }
}
