//! Domain-wide protocol configuration (§III-A: "provisioned in every
//! router's configuration file").

use scmp_net::NodeId;
use scmp_tree::DelayBound;
use serde::{Deserialize, Serialize};

/// Domain-wide SCMP configuration, shared by every router.
///
/// Part of it is frozen benchmark API: the benchmark package
/// (`benchmark/src/workloads/`) builds its configurations with
/// [`ScmpConfig::new`] and then sets `standby`, `heartbeat_interval`,
/// `heartbeat_loss_tolerance`, `repair_interval`,
/// `takeover_rebuild_delay`, `join_retry`, `leave_retry`, `tree_retry`
/// and `reliability` (`fault_storm.rs`, `lossy_reliable.rs`, and
/// `quiet_config` in `mod.rs`). Renaming or deleting any of these
/// breaks the benchmark's build, so such a change lands together with
/// the matching benchmark edit.
#[derive(Clone, Debug)]
pub struct ScmpConfig {
    /// The (primary) m-router's address, provisioned in every router's
    /// configuration file (§III-A).
    pub m_router: NodeId,
    /// Additional m-routers for the §II-A extension ("an ISP may own
    /// more than one m-routers ... our approach can be easily extended
    /// to multiple m-routers per domain"). Groups are assigned
    /// round-robin by group id across `[m_router] ∪ extra_m_routers`.
    /// Mutually exclusive with `standby` (hot-standby failover is
    /// implemented for the single-m-router configuration).
    pub extra_m_routers: Vec<NodeId>,
    /// Optional hot-standby m-router.
    pub standby: Option<NodeId>,
    /// Delay-bound regime handed to DCDM.
    pub bound: DelayBound,
    /// Primary→standby heartbeat period (0 disables failover machinery).
    pub heartbeat_interval: u64,
    /// Delay before a promoted m-router's first repair scan, which
    /// rebuilds its trees (lets the NewMRouter announcements land
    /// first). The scan runs even when `repair_interval` is 0; it then
    /// does not repeat.
    pub takeover_rebuild_delay: u64,
    /// Ablation switch: always distribute full TREE packets, never
    /// BRANCH packets (§III-E motivates BRANCH as the cheap path; the
    /// `ablation_branch` bench quantifies it).
    pub tree_packets_only: bool,
    /// Tear down a session after its group has been memberless this long
    /// (§II-C: "tear down an expired multicast session" and "revoke a
    /// multicast address from an abandoned multicast group").
    /// 0 disables expiry.
    pub session_expiry: u64,
    /// Retransmit a JOIN if the tree has not reached this DR after this
    /// long — protects membership against congestion-dropped JOIN or
    /// TREE/BRANCH packets when the link-capacity model is active.
    /// Retries back off exponentially (`join_retry << attempt`, capped)
    /// and give up after `timer::MAX_RETRIES` (8).
    /// 0 disables retries.
    pub join_retry: u64,
    /// Retransmit an unacknowledged LEAVE after this long, with the same
    /// backoff/give-up policy as `join_retry`. LEAVE is the one §III
    /// message whose loss silently strands membership (and billing)
    /// state at the m-router, so the m-router acks it with LEAVE-ACK
    /// and the DR retries until acked. 0 disables retries.
    pub leave_retry: u64,
    /// Retransmit an unacknowledged TREE or BRANCH packet to a direct
    /// child after this long, with the same backoff/give-up policy as
    /// `join_retry`. The ARQ runs hop by hop: the m-router *and* every
    /// DR relaying tree state to its children track their own
    /// transmissions, and receivers acknowledge each packet to the
    /// parent it came from with TREE-ACK (even stale ones, so a raced
    /// retransmission cannot retry forever). 0 disables the ARQ and
    /// suppresses the acks — the default, because on a loss-free
    /// channel the acks are pure overhead.
    pub tree_retry: u64,
    /// How many consecutive lost heartbeats the standby tolerates before
    /// taking over. The watchdog deadline is `tolerance ×
    /// heartbeat_interval` past the last heartbeat (and twice that at
    /// start-up, when the primary may be several propagation delays
    /// away). Values below 1 are treated as 1.
    pub heartbeat_loss_tolerance: u32,
    /// m-router repair-scan period: every interval, check each mirrored
    /// tree against the domain's liveness view (the IGP's link-state
    /// database) and re-run DCDM over the surviving topology when the
    /// tree is damaged or a logged member is reachable but off-tree.
    /// 0 disables the periodic scan (a takeover still runs one). Note:
    /// a non-zero interval re-arms forever, so drive such simulations
    /// with `run_until`, not quiescence.
    pub repair_interval: u64,
    /// Optional reliable-multicast data tier (NACK recovery + i-router
    /// repair caches). `None` — the default — keeps the data plane
    /// byte-identical to plain SCMP.
    pub reliability: Option<ReliabilityConfig>,
}

/// The reliable-multicast data tier (SRM-style NACK recovery with
/// in-network repair caches). It has one configuration: its timers,
/// retry budget, cache size and jitter seed are constants of the
/// router's reliability module, so presence in
/// [`ScmpConfig::reliability`] is the whole switch. It is also the
/// scenario files' `"reliability"` section, so it rejects every key.
#[derive(Clone, Debug, Default, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct ReliabilityConfig {}

impl ScmpConfig {
    /// Plain configuration: given m-router, dynamic bound, no standby.
    pub fn new(m_router: NodeId) -> Self {
        ScmpConfig {
            m_router,
            extra_m_routers: Vec::new(),
            standby: None,
            bound: DelayBound::Dynamic,
            heartbeat_interval: 0,
            takeover_rebuild_delay: 1_000,
            tree_packets_only: false,
            session_expiry: 0,
            join_retry: 500_000,
            leave_retry: 500_000,
            tree_retry: 0,
            heartbeat_loss_tolerance: 4,
            repair_interval: 0,
            reliability: None,
        }
    }
}
