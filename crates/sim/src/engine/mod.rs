//! The discrete-event engine, layered into focused modules:
//!
//! * [`queue`] — the arena-backed event queue: the binary heap orders
//!   small `(time, seq, slot)` keys while packet payloads wait in a
//!   free-list arena.
//! * [`transport`] — the finite-capacity FIFO-server model
//!   ([`CapacityModel`]) and the channel impairments, unit-testable
//!   without an engine. (Liveness and routes are not here: the engine
//!   owns one [`scmp_net::LivePaths`] and everything asks it.)
//! * [`ctx`] — [`Ctx`], the per-dispatch handle protocols use to send,
//!   unicast, arm timers and record deliveries.
//! * [`core`] — [`Engine`] itself: event loop and fault application.
//! * [`runner`] — [`EngineRunner`], the object-safe erasure of
//!   `Engine<R>` used by the protocol registry and scenario drivers.
//! * `telemetry` — the engine's seam to `scmp-telemetry`: the one
//!   `observe` entry point (count into [`SimStats`](crate::SimStats),
//!   then record into the owned [`scmp_telemetry::Sink`]) plus the
//!   periodic gauge sampler.
//!
//! This module keeps the shared vocabulary: simulation time, the
//! [`Router`] trait and application events. What a run *observed* is
//! [`scmp_telemetry::Event`]s, read back with [`Engine::events`].

pub mod core;
pub mod ctx;
pub mod queue;
pub mod runner;
pub(crate) mod telemetry;
pub mod transport;

#[cfg(test)]
mod tests;

pub use core::Engine;
pub use ctx::Ctx;
pub use runner::EngineRunner;
pub use transport::{CapacityModel, LinkSlot, Transport};

use scmp_net::NodeId;
use std::fmt;

/// Simulation time in abstract ticks (the same unit as link delays).
pub type SimTime = u64;

/// Scenario-injected application events: what the attached hosts/subnets
/// ask their designated router to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// A host on this router's subnet joined `group` (the IGMP report
    /// already aggregated — see `scmp-core::igmp` for the host-level
    /// model).
    Join(crate::packet::GroupId),
    /// The last host on this router's subnet left `group`.
    Leave(crate::packet::GroupId),
    /// A local host sends one data payload (`tag`) to `group`.
    Send {
        group: crate::packet::GroupId,
        tag: u64,
    },
}

/// A protocol state machine running on one router.
///
/// One value of the implementing type exists per node; the engine owns
/// them all and dispatches events. `Msg` is the protocol's wire-message
/// enum.
pub trait Router {
    /// Protocol message body carried by [`crate::packet::Packet`].
    type Msg: Clone + fmt::Debug;

    /// Classify a message body for telemetry: which control verb (or
    /// data variant) it carries. The engine stamps the result on
    /// [`scmp_telemetry::EventKind::Deliver`] events so the inspector
    /// can reconstruct control causality chains. The default (`None`)
    /// keeps protocols that don't care fully working.
    fn classify(_msg: &Self::Msg) -> Option<scmp_telemetry::CtlKind> {
        None
    }

    /// Called once before the first event fires.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// A packet arrived from neighbour (or tunnel tail) `from`.
    fn on_packet(
        &mut self,
        from: NodeId,
        pkt: crate::packet::Packet<Self::Msg>,
        ctx: &mut Ctx<'_, Self::Msg>,
    );

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = (token, ctx);
    }

    /// An application event occurred on this router's subnet.
    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, Self::Msg>);
}
