//! # scmp-core — the Service-Centric Multicast Protocol
//!
//! This crate is the paper's primary contribution: the SCMP protocol of
//! §II–III, implemented as state machines over the [`scmp_sim`]
//! discrete-event engine.
//!
//! * [`message`] — the SCMP wire messages (JOIN/LEAVE/PRUNE, TREE and
//!   BRANCH self-routing packets, encapsulated data, heartbeats).
//! * [`tree_packet`] — the recursive self-routing TREE packet of §III-E,
//!   including the word-level wire codec that reproduces the paper's
//!   Fig. 6 example byte-for-byte, plus the BRANCH packet.
//! * [`igmp`] — the subnet model of §II-C: per-group member hosts and
//!   the first-join/last-leave edges the DR acts on.
//! * [`router`] — the [`ScmpRouter`] state machine, a module tree split
//!   by role: DR duties (§III-B/C/F) in `dr`, the m-router (§III-D:
//!   centralized DCDM tree construction, membership database,
//!   accounting log) in `mrouter`, hot-standby mirroring and takeover
//!   in `standby`, with the shared domain view and configuration in
//!   `domain`/`config`.
//! * [`placement`] — the three §IV-A heuristics for locating the
//!   m-router.
//! * [`session`] — the accounting/billing event log of §II-C and the
//!   rule by which a group's members follow it.
//! * [`dedup`] — receiver-side duplicate suppression: the bounded
//!   recent-set routers use to keep channel-duplicated data packets
//!   away from member hosts.
//!
//! The m-router's switching fabric lives in [`scmp_fabric`]; the
//! [`router::MRouterState`] assigns an output port per open session, an
//! assignment a [`scmp_fabric::SandwichFabric`] of the state's size can
//! always be configured for.

pub mod dedup;
pub mod igmp;
pub mod message;
pub mod placement;
pub mod router;
pub mod session;
pub mod tree_packet;

pub use message::ScmpMsg;
pub use router::{ScmpConfig, ScmpRouter};
pub use tree_packet::{BranchPacket, TreePacket};
