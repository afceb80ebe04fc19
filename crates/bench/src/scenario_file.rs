//! JSON scenario files: declarative multicast simulations for the
//! `scenario` binary and every engine-driven paper artefact.
//!
//! A scenario file picks a topology, an m-router placement, an optional
//! link-capacity model, and a timeline of join/leave/send events; the
//! runner executes it on the full SCMP protocol (or, with `"protocol"`,
//! on one of the baselines) and reports the §IV-B metrics plus
//! per-member delivery. Example:
//!
//! ```json
//! {
//!   "topology": { "kind": "waxman", "n": 50, "seed": 7 },
//!   "m_router": "rule1",
//!   "events": [
//!     { "time": 0,      "node": 4, "op": "join", "group": 1 },
//!     { "time": 1000,   "node": 9, "op": "join", "group": 1 },
//!     { "time": 500000, "node": 2, "op": "send", "group": 1, "tag": 1 }
//!   ]
//! }
//! ```
//!
//! `"protocol"` takes a [`ProtocolKind`] label (`"scmp"` by default,
//! `"cbt"`, `"dvmrp"`, `"mospf"`, `"pim-sm"`); the resolved `m_router`
//! is every protocol's shared-tree root (CBT's core, PIM-SM's RP). The
//! `robustness` and `reliability` sections configure SCMP only, and
//! `robustness.tree_packets_only` is the BRANCH ablation's switch.
//! `"reliability": {}` turns the NACK-recovery tier on; the tier has one
//! configuration, so the section takes no keys. `membership_schedule`
//! entries are flash crowds (staggered joins, an optional common leave).
//!
//! The serde structs below are the schema: every section denies
//! unknown keys, so a typo is named with its JSON path and the keys
//! that position accepts. Parse once with `serde_json::from_str` and
//! hand the [`ScenarioFile`] to [`run_scenario`] or [`run_batch`]. The
//! paper-artefact harnesses build the same values in code, so any of
//! their cells can be dumped with `serde_json::to_string` and replayed.

use scmp_core::placement;
use scmp_core::router::{ReliabilityConfig, ScmpConfig};
use scmp_net::rng::rng_for;
use scmp_net::topology::{arpanet, gt_itm_flat, waxman, GtItmConfig, WaxmanConfig};
use scmp_net::{provider_for, NodeId, Topology};
use scmp_protocols::{build_engine, build_scmp_engine, ProtocolKind, ProtocolParams};
use scmp_sim::{
    AppEvent, CapacityModel, ChannelModel, ChannelPlan, EngineRunner, FaultPlan, FaultSpec,
    GroupId, JsonlSink, SimStats,
};
use scmp_telemetry::SharedBuf;
use serde::{Deserialize, Serialize};

/// Topology selection.
#[derive(Clone, Debug, Deserialize, Serialize)]
#[serde(tag = "kind", rename_all = "lowercase", deny_unknown_fields)]
pub enum TopologySpec {
    /// The paper's Waxman model.
    Waxman {
        /// Node count.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// GT-ITM-like flat random.
    Gtitm {
        /// Node count.
        n: usize,
        /// Target average degree.
        degree: f64,
        /// Generator seed.
        seed: u64,
    },
    /// The classic ARPANET map with seeded weights.
    Arpanet {
        /// Weight seed.
        seed: u64,
    },
    /// An explicit topology: `links[k] = [a, b, delay, cost]`.
    Custom {
        /// Node count.
        nodes: usize,
        /// Undirected links with weights.
        links: Vec<[u64; 4]>,
    },
}

impl TopologySpec {
    /// An explicit copy of `topo`, whose [`build`](Self::build) returns
    /// the same graph. Harnesses whose generators have no spec of their
    /// own (the §IV-B topologies, the star) describe their graphs this way.
    pub fn custom(topo: &Topology) -> TopologySpec {
        let links = topo.edges().iter();
        TopologySpec::Custom {
            nodes: topo.node_count(),
            links: links
                .map(|&(a, b, w)| [a.0.into(), b.0.into(), w.delay, w.cost])
                .collect(),
        }
    }

    /// Materialise the topology. Parameters the generators cannot honour
    /// are errors naming the offending entry, never panics.
    pub fn build(&self) -> Result<Topology, String> {
        Ok(match *self {
            TopologySpec::Waxman { n, seed } => {
                if n == 0 {
                    return Err("topology: waxman needs n >= 1".into());
                }
                waxman(
                    &WaxmanConfig {
                        n,
                        min_delay_one: true,
                        ..WaxmanConfig::default()
                    },
                    &mut rng_for("scenario-waxman", seed),
                )
            }
            TopologySpec::Gtitm { n, degree, seed } => {
                if n < 2 {
                    return Err(format!("topology: gtitm needs n >= 2, got {n}"));
                }
                if degree <= 0.0 {
                    return Err(format!("topology: gtitm degree must be > 0, got {degree}"));
                }
                gt_itm_flat(
                    &GtItmConfig {
                        n,
                        average_degree: degree,
                        grid: 32_767,
                    },
                    &mut rng_for("scenario-gtitm", seed),
                )
            }
            TopologySpec::Arpanet { seed } => arpanet(&mut rng_for("scenario-arpanet", seed)),
            TopologySpec::Custom { nodes, ref links } => {
                if nodes == 0 {
                    return Err("topology: custom needs nodes >= 1".into());
                }
                let mut b = scmp_net::TopologyBuilder::new(nodes);
                for (i, &[a, bb, delay, cost]) in links.iter().enumerate() {
                    let (na, nb) = (NodeId(a as u32), NodeId(bb as u32));
                    let why = if a == bb {
                        format!("self-loop at node {a}")
                    } else if a.max(bb) >= nodes as u64 {
                        format!("endpoint {} out of range ({nodes} nodes)", a.max(bb))
                    } else if b.has_link(na, nb) {
                        format!("duplicate link {a}-{bb}")
                    } else {
                        b.add_link(na, nb, scmp_net::LinkWeight { delay, cost });
                        continue;
                    };
                    return Err(format!("topology.links[{i}]: {why}"));
                }
                b.build()
            }
        })
    }
}

/// m-router placement: a fixed node id or one of the §IV-A rules.
#[derive(Clone, Debug, Deserialize, Serialize)]
#[serde(untagged)]
pub enum MRouterSpec {
    /// Explicit node id.
    Node(u32),
    /// Placement rule: `"rule1"`, `"rule2"`, `"rule3"`.
    Rule(String),
}

impl MRouterSpec {
    /// Resolve to a node. Only the delay-based rules compute paths.
    pub fn resolve(&self, topo: &Topology) -> Result<NodeId, String> {
        match self {
            MRouterSpec::Node(v) => {
                let id = NodeId(*v);
                if id.index() < topo.node_count() {
                    Ok(id)
                } else {
                    Err(format!("m_router {v} out of range"))
                }
            }
            MRouterSpec::Rule(r) => match r.as_str() {
                "rule1" => Ok(placement::min_average_delay(topo, &provider_for(topo))),
                "rule2" => Ok(placement::max_degree(topo)),
                "rule3" => Ok(placement::diameter_midpoint(topo, &provider_for(topo))),
                other => Err(format!("unknown placement rule {other:?}")),
            },
        }
    }
}

/// One timeline event.
#[derive(Clone, Debug, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct EventSpec {
    /// Absolute simulation time (ticks).
    pub time: u64,
    /// Router (DR) the event occurs at.
    pub node: u32,
    /// `"join"`, `"leave"` or `"send"`.
    pub op: String,
    /// Group id.
    pub group: u32,
    /// Payload tag (send only; defaults to an auto-increment).
    #[serde(default)]
    pub tag: Option<u64>,
}

impl EventSpec {
    /// `node` joins `group` at `time`.
    pub fn join(time: u64, node: u32, group: u32) -> Self {
        EventSpec {
            time,
            node,
            op: "join".into(),
            group,
            tag: None,
        }
    }

    /// `node` leaves `group` at `time`.
    pub fn leave(time: u64, node: u32, group: u32) -> Self {
        EventSpec {
            op: "leave".into(),
            ..EventSpec::join(time, node, group)
        }
    }

    /// `node` sends payload `tag` to `group` at `time`.
    pub fn send(time: u64, node: u32, group: u32, tag: u64) -> Self {
        EventSpec {
            op: "send".into(),
            tag: Some(tag),
            ..EventSpec::join(time, node, group)
        }
    }
}

/// Optional capacity model.
#[derive(Clone, Debug, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct CapacitySpec {
    /// Per-packet serialisation time.
    pub link_tx: u64,
    /// Queue slots per link direction.
    pub queue_limit: u64,
    /// Give the m-router faster ports.
    #[serde(default)]
    pub m_router_tx: Option<u64>,
}

/// Robustness knobs mapped onto [`ScmpConfig`]; absent fields keep the
/// config defaults.
#[derive(Clone, Debug, Default, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct RobustnessSpec {
    /// m-router repair-scan period (0 = off).
    #[serde(default)]
    pub repair_interval: Option<u64>,
    /// JOIN retransmission base delay (0 = off).
    #[serde(default)]
    pub join_retry: Option<u64>,
    /// LEAVE retransmission base delay (0 = off).
    #[serde(default)]
    pub leave_retry: Option<u64>,
    /// Primary→standby heartbeat period (0 = off).
    #[serde(default)]
    pub heartbeat_interval: Option<u64>,
    /// Hot-standby m-router node.
    #[serde(default)]
    pub standby: Option<u32>,
    /// Delay between takeover and the rebuilt TREE push.
    #[serde(default)]
    pub takeover_rebuild_delay: Option<u64>,
    /// TREE/BRANCH retransmission base delay (0 = off). Enables
    /// TREE-ACKs from receivers.
    #[serde(default)]
    pub tree_retry: Option<u64>,
    /// Consecutive lost heartbeats the standby tolerates before taking
    /// over (default 4).
    #[serde(default)]
    pub heartbeat_loss_tolerance: Option<u32>,
    /// Answer every join with a full TREE packet, never a BRANCH (the
    /// BRANCH ablation; default false).
    #[serde(default)]
    pub tree_packets_only: Option<bool>,
}

/// A generated membership wave: a compact description of many
/// join/leave events the runner (and the delivery oracle) expand into
/// the ordinary timeline.
#[derive(Clone, Debug, Deserialize, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum MembershipSchedule {
    /// Flash crowd: the listed DRs join `group` in quick succession
    /// (`stagger` ticks apart, starting at `at`) and — optionally —
    /// all leave together at `leave_at`.
    FlashCrowd {
        group: u32,
        members: Vec<u32>,
        at: u64,
        stagger: u64,
        #[serde(default)]
        leave_at: Option<u64>,
    },
}

impl MembershipSchedule {
    /// Shape-check entry `i` against the topology; errors name the
    /// entry the same way fault validation does.
    pub fn validate(&self, i: usize, topo: &Topology) -> Result<(), String> {
        let MembershipSchedule::FlashCrowd {
            members,
            at,
            stagger,
            leave_at,
            ..
        } = self;
        let last_join = (members.len().max(1) as u64 - 1)
            .checked_mul(*stagger)
            .and_then(|t| t.checked_add(*at))
            .ok_or_else(|| overflow(i))?;
        if let Some(leave) = leave_at {
            if *leave <= last_join {
                return Err(format!(
                    "membership_schedule[{i}]: leave_at {leave} not after the last join at {last_join}"
                ));
            }
        }
        if members.is_empty() {
            return Err(format!(
                "membership_schedule[{i}]: flash_crowd has no members"
            ));
        }
        for &m in members {
            if m as usize >= topo.node_count() {
                return Err(format!("membership_schedule[{i}]: member {m} out of range"));
            }
        }
        Ok(())
    }

    /// Expand entry `i` into plain timeline events (pure — no topology
    /// needed). A time past `u64::MAX` is an error naming the entry.
    pub fn expand(&self, i: usize) -> Result<Vec<EventSpec>, String> {
        let MembershipSchedule::FlashCrowd {
            group,
            members,
            at,
            stagger,
            leave_at,
        } = self;
        let mut out = Vec::new();
        for (k, &m) in (0u64..).zip(members) {
            let time = k.checked_mul(*stagger).and_then(|t| t.checked_add(*at));
            out.push(EventSpec::join(time.ok_or_else(|| overflow(i))?, m, *group));
        }
        if let Some(leave) = leave_at {
            out.extend(members.iter().map(|&m| EventSpec::leave(*leave, m, *group)));
        }
        Ok(out)
    }
}

/// The error of a schedule entry whose times pass `u64::MAX`.
fn overflow(i: usize) -> String {
    format!("membership_schedule[{i}]: event time overflows u64")
}

/// Telemetry knobs: gauge sampling and structured-event export.
#[derive(Clone, Debug, Default, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct TelemetrySpec {
    /// Per-tick gauge sampling interval (0 / absent = off).
    #[serde(default)]
    pub gauge_interval: Option<u64>,
    /// Stream the structured event trace to this JSONL file. Feed the
    /// result to `scmp-inspect` for convergence/audit/histogram queries.
    #[serde(default)]
    pub jsonl: Option<String>,
}

/// A complete scenario file.
#[derive(Clone, Debug, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioFile {
    /// Topology to simulate.
    pub topology: TopologySpec,
    /// m-router placement: the shared-tree root of every protocol.
    pub m_router: MRouterSpec,
    /// Protocol to run, a [`ProtocolKind`] label; absent means `"scmp"`.
    #[serde(default)]
    pub protocol: Option<String>,
    /// Timeline.
    pub events: Vec<EventSpec>,
    /// Generated membership waves (flash crowds),
    /// expanded into ordinary join/leave events by the runner and the
    /// delivery oracle alike.
    #[serde(default)]
    pub membership_schedule: Vec<MembershipSchedule>,
    /// Optional finite link capacities.
    #[serde(default)]
    pub capacity: Option<CapacitySpec>,
    /// Scheduled fault injections (links cut/restored, routers
    /// crashed/recovered), validated against the topology.
    #[serde(default)]
    pub faults: Vec<FaultSpec>,
    /// Robustness configuration (repair scan, retries, hot standby).
    #[serde(default)]
    pub robustness: Option<RobustnessSpec>,
    /// Reliable-multicast data tier (NACK recovery with repair caches),
    /// handed to [`ScmpConfig::reliability`] as is. Present ⇒ on; it
    /// takes no keys because the tier has one configuration. Absent ⇒
    /// byte-identical to a tier-free build.
    #[serde(default)]
    pub reliability: Option<ReliabilityConfig>,
    /// Seeded per-link channel impairments (drop / duplicate / corrupt
    /// probabilities, reorder jitter), validated against the topology.
    /// Absent — or present with all-zero probabilities — the run is
    /// byte-identical to a channel-free one.
    #[serde(default)]
    pub channel: Option<ChannelPlan>,
    /// Telemetry: gauge sampling interval and JSONL trace export.
    #[serde(default)]
    pub telemetry: Option<TelemetrySpec>,
    /// Explicit simulation horizon. Required semantics: periodic timers
    /// (repair scan, heartbeat) re-arm forever, so such runs stop here
    /// instead of at quiescence. Defaults to the last event/fault time
    /// plus a settling margin when those timers are active.
    #[serde(default)]
    pub run_until: Option<u64>,
}

impl ScenarioFile {
    /// A scenario of `events` on SCMP with every optional section absent.
    pub fn new(topology: TopologySpec, m_router: MRouterSpec, events: Vec<EventSpec>) -> Self {
        ScenarioFile {
            topology,
            m_router,
            protocol: None,
            events,
            membership_schedule: Vec::new(),
            capacity: None,
            faults: Vec::new(),
            robustness: None,
            reliability: None,
            channel: None,
            telemetry: None,
            run_until: None,
        }
    }

    /// The protocol the scenario runs on.
    fn protocol_kind(&self) -> Result<ProtocolKind, String> {
        let label = self.protocol.as_deref().unwrap_or("scmp");
        ProtocolKind::parse(label).ok_or_else(|| {
            let known = ProtocolKind::ALL.map(ProtocolKind::label).join(", ");
            format!("protocol: unknown label {label:?} (expected one of: {known})")
        })
    }
}

/// The tagged sends of a timeline, in time order.
pub type SentList = Vec<(GroupId, u64)>;
/// Every `(group, tag, receiver)` triple a correct protocol must
/// satisfy for a timeline.
pub type ExpectedList = Vec<(GroupId, u64, NodeId)>;

/// The delivery expectations a scenario's timeline implies: the sends
/// in time order and, for each, every `(group, tag, receiver)` triple a
/// correct protocol must satisfy — a send is expected at every DR whose
/// subnet had joined the group (net of leaves) strictly before it. The
/// runner scores `delivery_ratio` against exactly this set; the stress
/// oracle reuses it to name the members a failing run stranded.
pub fn expected_deliveries(spec: &ScenarioFile) -> Result<(SentList, ExpectedList), String> {
    let mut membership: std::collections::BTreeMap<(u32, u32), i64> =
        std::collections::BTreeMap::new();
    let mut expected: Vec<(GroupId, u64, NodeId)> = Vec::new();
    let mut sent: Vec<(GroupId, u64)> = Vec::new();
    let mut auto_tag = 0u64;
    for ev in &expanded_events(spec)? {
        match ev.op.as_str() {
            "join" => *membership.entry((ev.group, ev.node)).or_insert(0) += 1,
            "leave" => *membership.entry((ev.group, ev.node)).or_insert(0) -= 1,
            "send" => {
                let tag = ev.tag.unwrap_or_else(|| {
                    auto_tag += 1;
                    auto_tag | 1 << 32 // auto tags never collide with explicit small tags
                });
                sent.push((GroupId(ev.group), tag));
                for (&(g, node), &count) in &membership {
                    if g == ev.group && count > 0 {
                        expected.push((GroupId(ev.group), tag, NodeId(node)));
                    }
                }
            }
            _ => {}
        }
    }
    Ok((sent, expected))
}

/// The scenario's full timeline, sorted stably by time: the explicit
/// `events` plus everything the membership schedules expand into. The
/// delivery oracle and the runner both iterate exactly this list, so
/// the expectation set and the schedule can never disagree.
pub fn expanded_events(spec: &ScenarioFile) -> Result<Vec<EventSpec>, String> {
    let mut all = spec.events.clone();
    for (i, sched) in spec.membership_schedule.iter().enumerate() {
        all.extend(sched.expand(i)?);
    }
    all.sort_by_key(|ev| ev.time);
    Ok(all)
}

/// Result summary the runner prints as JSON.
#[derive(Clone, Debug, Serialize)]
pub struct ScenarioResult {
    /// Resolved m-router node.
    pub m_router: u32,
    /// §IV-B metrics.
    pub data_overhead: u64,
    pub protocol_overhead: u64,
    pub max_end_to_end_delay: u64,
    /// End-to-end delay percentiles (log-bucket upper-bound estimates).
    pub p50_end_to_end_delay: u64,
    pub p99_end_to_end_delay: u64,
    pub drops: u64,
    pub queue_drops: u64,
    /// Robustness metrics (all zero / 1.0 on fault-free runs).
    pub faults_injected: u64,
    /// Fraction of membership-expected `(group, tag, receiver)` triples
    /// actually delivered.
    pub delivery_ratio: f64,
    /// Size of that expected set (0 ⇒ the ratio is vacuously 1.0).
    pub expected_deliveries: u64,
    /// Tree repairs completed by the m-router scan.
    pub repairs: u64,
    /// Worst failure→repair latency observed.
    pub max_repair_latency: u64,
    /// Overhead accrued while any node/link was down.
    pub data_overhead_during_failure: u64,
    pub control_overhead_during_failure: u64,
    /// Channel-impairment counters (all zero without a `channel` section).
    pub channel_dropped: u64,
    pub channel_duplicated: u64,
    pub channel_reordered: u64,
    pub channel_corrupted: u64,
    /// Control-plane hardening counters.
    pub retransmissions: u64,
    pub takeovers: u64,
    /// Repair-scan ticks spent with part of the domain unreachable from
    /// the acting m-router (0 on partition-free runs).
    pub partition_degraded_ticks: u64,
    /// Post-heal tree reconciliations (groups whose rebuilt tree
    /// readopted previously stranded members).
    pub reconciliations: u64,
    /// Reliability-tier counters (all zero without a `reliability`
    /// section).
    pub nacks_sent: u64,
    pub nacks_suppressed: u64,
    pub nacks_forwarded: u64,
    pub repair_cache_hits: u64,
    pub repair_cache_misses: u64,
    pub repair_cache_evictions: u64,
    pub recoveries: u64,
    pub p50_recovery_latency: u64,
    pub p99_recovery_latency: u64,
    /// Gauge samples captured (0 unless `telemetry.gauge_interval` set).
    pub gauge_samples: u64,
    /// Every *live* router claiming the m-router role when the run
    /// ended, in node order. More than one entry is a split brain; an
    /// empty list means the (sole) m-router died and nothing took over,
    /// or that the protocol is a baseline, which has no m-router role.
    pub m_routers_at_end: Vec<u32>,
    /// Per (group, tag): how many routers' subnets received it.
    pub deliveries: Vec<DeliveryLine>,
}

/// Delivery record for one payload.
#[derive(Clone, Debug, Serialize)]
pub struct DeliveryLine {
    pub group: u32,
    pub tag: u64,
    pub receivers: usize,
}

/// One finished run of [`run_one`].
#[derive(Debug)]
pub struct Run {
    /// The summary the `scenario` bin prints.
    pub result: ScenarioResult,
    /// Every engine counter and histogram, for harnesses that fold more
    /// than the summary prints (pooled delay histograms, exactly-once
    /// delivery, queueing delay).
    pub stats: SimStats,
    /// The JSONL event trace; empty unless the run was traced.
    pub trace: String,
}

/// Where a run's JSONL event trace goes.
enum TraceTo<'a> {
    /// To the scenario's own `telemetry.jsonl` path, if it names one.
    File,
    /// Into the buffer, if one is given; the scenario's path is ignored.
    Buffer(Option<&'a SharedBuf>),
}

/// Run a scenario, returning the summary. A `telemetry.jsonl` path in
/// the scenario streams the trace to disk.
pub fn run_scenario(spec: &ScenarioFile) -> Result<ScenarioResult, String> {
    run_scenario_inner(spec, TraceTo::File).map(|(result, _)| result)
}

/// Run a scenario, returning its summary, its stats and, when `trace`
/// is set, its JSONL event trace captured in memory. The scenario's own
/// `telemetry.jsonl` path, if any, is ignored.
pub fn run_one(spec: &ScenarioFile, trace: bool) -> Result<Run, String> {
    let buf = SharedBuf::new();
    let (result, stats) = run_scenario_inner(spec, TraceTo::Buffer(trace.then_some(&buf)))?;
    let trace = buf.take_string();
    Ok(Run {
        result,
        stats,
        trace,
    })
}

/// [`run_one`] over many scenarios on `jobs` workers, so workers never
/// contend on files. Output order matches input order and every entry
/// (summary, stats and trace) is byte-identical to a `jobs = 1` run:
/// each scenario is an isolated cell with its own engine, RNG streams,
/// and trace buffer.
pub fn run_batch(specs: &[ScenarioFile], jobs: usize, trace: bool) -> Vec<Result<Run, String>> {
    crate::sweep::SweepRunner::new(jobs).run(specs, |_, spec| run_one(spec, trace))
}

impl RobustnessSpec {
    /// Apply the knobs present to `c`.
    fn apply(&self, c: &mut ScmpConfig, topo: &Topology) -> Result<(), String> {
        c.repair_interval = self.repair_interval.unwrap_or(c.repair_interval);
        c.join_retry = self.join_retry.unwrap_or(c.join_retry);
        c.leave_retry = self.leave_retry.unwrap_or(c.leave_retry);
        c.heartbeat_interval = self.heartbeat_interval.unwrap_or(c.heartbeat_interval);
        if let Some(v) = self.standby {
            if v as usize >= topo.node_count() {
                return Err(format!("standby {v} out of range"));
            }
            c.standby = Some(NodeId(v));
        }
        c.takeover_rebuild_delay = self
            .takeover_rebuild_delay
            .unwrap_or(c.takeover_rebuild_delay);
        c.tree_retry = self.tree_retry.unwrap_or(c.tree_retry);
        c.heartbeat_loss_tolerance = self
            .heartbeat_loss_tolerance
            .unwrap_or(c.heartbeat_loss_tolerance);
        c.tree_packets_only = self.tree_packets_only.unwrap_or(c.tree_packets_only);
        Ok(())
    }
}

fn run_scenario_inner(
    spec: &ScenarioFile,
    trace: TraceTo,
) -> Result<(ScenarioResult, SimStats), String> {
    let protocol = spec.protocol_kind()?;
    let topo = spec.topology.build()?;
    let m_router = spec.m_router.resolve(&topo)?;
    for ev in &spec.events {
        if ev.node as usize >= topo.node_count() {
            return Err(format!("event node {} out of range", ev.node));
        }
        if !matches!(ev.op.as_str(), "join" | "leave" | "send") {
            return Err(format!("unknown op {:?}", ev.op));
        }
    }
    for (i, sched) in spec.membership_schedule.iter().enumerate() {
        sched.validate(i, &topo)?;
    }

    let fault_plan = FaultPlan::from(spec.faults.clone());
    fault_plan.validate(&topo)?;
    if let Some(chan) = &spec.channel {
        chan.validate(&topo)?;
    }
    if let Some(cap) = &spec.capacity {
        for (key, tx) in [
            ("link_tx", Some(cap.link_tx)),
            ("m_router_tx", cap.m_router_tx),
        ] {
            if tx == Some(0) {
                return Err(format!(
                    "capacity.{key}: transmission time must be positive"
                ));
            }
        }
    }
    // Delivery expectations from the membership timeline (time-ordered,
    // stable on ties), then the schedule itself — sends consume their
    // tags from `sent` so the two passes can never disagree.
    let (sent, expected) = expected_deliveries(spec)?;
    let all_events = expanded_events(spec)?;

    // SCMP keeps its router type, so the run can name the routers that
    // hold the m-router role when it ends.
    let (mut scmp, mut baseline) = (None, None);
    let mut perpetual_timers = false;
    let engine: &mut dyn EngineRunner = if protocol == ProtocolKind::Scmp {
        let mut config = ScmpConfig::new(m_router);
        if let Some(rob) = &spec.robustness {
            rob.apply(&mut config, &topo)?;
            perpetual_timers = config.repair_interval > 0 || config.heartbeat_interval > 0;
        }
        config.reliability = spec.reliability.clone();
        scmp.insert(build_scmp_engine(topo.clone(), config))
    } else {
        let scmp_only = [
            ("robustness", spec.robustness.is_some()),
            ("reliability", spec.reliability.is_some()),
        ];
        if let Some((section, _)) = scmp_only.iter().find(|(_, present)| *present) {
            return Err(format!(
                "{section}: configures SCMP only, not protocol {:?}",
                protocol.label()
            ));
        }
        let params = ProtocolParams::new(m_router);
        baseline
            .insert(build_engine(protocol, &topo, &params))
            .as_mut()
    };
    if let Some(cap) = &spec.capacity {
        let mut model = CapacityModel::uniform(cap.link_tx, cap.queue_limit);
        if let Some(tx) = cap.m_router_tx {
            model = model.with_node_tx(m_router, tx);
        }
        engine.set_capacity(model);
    }
    engine.schedule_fault_plan(&fault_plan);
    if let Some(model) = spec.channel.as_ref().and_then(ChannelModel::from_plan) {
        engine.set_channel(model);
    }
    match trace {
        TraceTo::Buffer(Some(buf)) => engine.set_sink(Box::new(JsonlSink::new(buf.clone()))),
        TraceTo::Buffer(None) => {}
        TraceTo::File => {
            if let Some(path) = spec.telemetry.as_ref().and_then(|t| t.jsonl.as_ref()) {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("telemetry jsonl {path:?}: {e}"))?;
                engine.set_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(file))));
            }
        }
    }
    if let Some(iv) = spec.telemetry.as_ref().and_then(|t| t.gauge_interval) {
        engine.set_gauge_interval(iv);
    }

    let mut next_send = sent.iter();
    for ev in &all_events {
        let group = GroupId(ev.group);
        let app = match ev.op.as_str() {
            "join" => AppEvent::Join(group),
            "leave" => AppEvent::Leave(group),
            "send" => {
                let &(g, tag) = next_send.next().expect("one sent entry per send event");
                debug_assert_eq!(g, group);
                AppEvent::Send { group, tag }
            }
            _ => unreachable!("validated above"),
        };
        engine.schedule_app(ev.time, NodeId(ev.node), app);
    }

    let last_scheduled = all_events
        .iter()
        .map(|e| e.time)
        .chain(fault_plan.faults.iter().map(|f| f.time))
        .max()
        .unwrap_or(0);
    match spec.run_until {
        Some(t) => {
            engine.run_until(t);
        }
        None if perpetual_timers => {
            // Quiescence never happens with periodic timers armed; give
            // the protocol a generous settling window after the last
            // scheduled event.
            engine.run_until(last_scheduled.saturating_add(2_000_000));
        }
        None => {
            engine.run_to_quiescence();
        }
    }

    engine.flush_telemetry();
    let gauge_samples = engine.gauges().len() as u64;
    let stats = engine.stats().clone();
    let m_routers_at_end: Vec<u32> = scmp.map_or_else(Vec::new, |engine| {
        let live_roots = topo.nodes().filter(|&v| engine.node_is_up(v));
        let live_roots = live_roots.filter(|&v| engine.router(v).is_m_router());
        live_roots.map(|v| v.0).collect()
    });
    let delivery_ratio = stats.delivery_ratio(expected.iter().copied());
    let deliveries = sent
        .iter()
        .map(|&(g, tag)| DeliveryLine {
            group: g.0,
            tag,
            receivers: topo
                .nodes()
                .filter(|&v| stats.delivery_count(g, tag, v) > 0)
                .count(),
        })
        .collect();
    let result = ScenarioResult {
        m_router: m_router.0,
        data_overhead: stats.data_overhead,
        protocol_overhead: stats.protocol_overhead,
        max_end_to_end_delay: stats.max_end_to_end_delay,
        p50_end_to_end_delay: stats.e2e_delay_hist.p50(),
        p99_end_to_end_delay: stats.e2e_delay_hist.p99(),
        drops: stats.drops,
        queue_drops: stats.queue_drops,
        faults_injected: stats.faults_injected,
        delivery_ratio,
        expected_deliveries: expected.len() as u64,
        repairs: stats.repairs,
        max_repair_latency: stats.max_repair_latency,
        data_overhead_during_failure: stats.data_overhead_during_failure,
        control_overhead_during_failure: stats.control_overhead_during_failure,
        channel_dropped: stats.channel_dropped,
        channel_duplicated: stats.channel_duplicated,
        channel_reordered: stats.channel_reordered,
        channel_corrupted: stats.channel_corrupted,
        retransmissions: stats.retransmissions,
        takeovers: stats.takeovers,
        partition_degraded_ticks: stats.partition_degraded_ticks,
        reconciliations: stats.reconciliations,
        nacks_sent: stats.nacks_sent,
        nacks_suppressed: stats.nacks_suppressed,
        nacks_forwarded: stats.nacks_forwarded,
        repair_cache_hits: stats.repair_cache_hits,
        repair_cache_misses: stats.repair_cache_misses,
        repair_cache_evictions: stats.repair_cache_evictions,
        recoveries: stats.recoveries,
        p50_recovery_latency: stats.recovery_hist.p50(),
        p99_recovery_latency: stats.recovery_hist.p99(),
        gauge_samples,
        m_routers_at_end,
        deliveries,
    };
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<ScenarioFile, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    fn run(json: &str) -> Result<ScenarioResult, String> {
        run_scenario(&parse(json)?)
    }

    fn run_captured(json: &str) -> Result<(ScenarioResult, String), String> {
        run_one(&parse(json)?, true).map(|run| (run.result, run.trace))
    }

    const BASIC: &str = r#"{
        "topology": { "kind": "arpanet", "seed": 1 },
        "m_router": "rule1",
        "events": [
            { "time": 0,      "node": 4,  "op": "join", "group": 1 },
            { "time": 1000,   "node": 9,  "op": "join", "group": 1 },
            { "time": 500000, "node": 15, "op": "send", "group": 1, "tag": 1 }
        ]
    }"#;

    #[test]
    fn basic_scenario_runs() {
        let r = run(BASIC).unwrap();
        assert_eq!(r.deliveries.len(), 1);
        assert_eq!(r.deliveries[0].receivers, 2, "both members heard tag 1");
        assert!(r.data_overhead > 0);
        assert!(r.protocol_overhead > 0);
    }

    #[test]
    fn fixed_m_router_and_leave() {
        let json = r#"{
            "topology": { "kind": "waxman", "n": 20, "seed": 3 },
            "m_router": 0,
            "events": [
                { "time": 0,      "node": 5, "op": "join",  "group": 2 },
                { "time": 100000, "node": 5, "op": "leave", "group": 2 },
                { "time": 600000, "node": 7, "op": "send",  "group": 2 }
            ]
        }"#;
        let r = run(json).unwrap();
        assert_eq!(r.m_router, 0);
        assert_eq!(r.deliveries[0].receivers, 0, "member left before the send");
    }

    #[test]
    fn capacity_section_applies() {
        let json = r#"{
            "topology": { "kind": "arpanet", "seed": 1 },
            "m_router": "rule2",
            "capacity": { "link_tx": 10, "queue_limit": 4, "m_router_tx": 1 },
            "events": [
                { "time": 0,     "node": 4,  "op": "join", "group": 1 },
                { "time": 50000, "node": 15, "op": "send", "group": 1 }
            ]
        }"#;
        let r = run(json).unwrap();
        assert_eq!(r.deliveries[0].receivers, 1);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("{").is_err());
        let bad_node = BASIC.replace("\"node\": 4", "\"node\": 99");
        assert!(run(&bad_node).unwrap_err().contains("out of range"));
        let bad_op = BASIC.replace("\"op\": \"send\"", "\"op\": \"explode\"");
        assert!(run(&bad_op).unwrap_err().contains("unknown op"));
        let bad_rule = BASIC.replace("\"rule1\"", "\"rule9\"");
        assert!(run(&bad_rule).unwrap_err().contains("placement rule"));
    }

    #[test]
    fn custom_topology() {
        // The paper's Fig. 5 expressed inline.
        let json = r#"{
            "topology": { "kind": "custom", "nodes": 6, "links": [
                [0,1,3,6],[0,2,4,5],[0,3,2,6],[1,2,3,2],[1,4,9,3],[2,3,4,1],[2,5,7,2]
            ]},
            "m_router": 0,
            "events": [
                { "time": 0,     "node": 4, "op": "join", "group": 1 },
                { "time": 100,   "node": 3, "op": "join", "group": 1 },
                { "time": 200,   "node": 5, "op": "join", "group": 1 },
                { "time": 10000, "node": 4, "op": "send", "group": 1, "tag": 1 }
            ]
        }"#;
        let r = run(json).unwrap();
        assert_eq!(r.deliveries[0].receivers, 3);
        // The Fig. 5(d) tree costs 17; one on-tree send = 17 data units
        // plus the per-hop copies... data overhead equals the tree cost
        // because the source is a member and every tree edge carries the
        // packet exactly once.
        assert_eq!(r.data_overhead, 17);
    }

    /// Fig. 5 with a `robustness` section, its first member joining at
    /// t = 10 so a timer armed then overflows once its delay nears
    /// `u64::MAX`.
    fn fig5_robust(robustness: &str) -> String {
        format!(
            r#"{{
            "topology": {{ "kind": "custom", "nodes": 6, "links": [
                [0,1,3,6],[0,2,4,5],[0,3,2,6],[1,2,3,2],[1,4,9,3],[2,3,4,1],[2,5,7,2]
            ]}},
            "m_router": 0,
            "robustness": {robustness},
            "events": [
                {{ "time": 10,    "node": 4, "op": "join", "group": 1 }},
                {{ "time": 100,   "node": 3, "op": "join", "group": 1 }},
                {{ "time": 10000, "node": 4, "op": "send", "group": 1, "tag": 1 }}
            ]
        }}"#
        )
    }

    #[test]
    fn watchdog_past_u64_max_never_fires() {
        let json = fig5_robust(r#"{ "heartbeat_interval": 9223372036854775807, "standby": 1 }"#);
        let r = run(&json).unwrap();
        assert_eq!(r.takeovers, 0, "the standby never gives up on the primary");
        assert_eq!(r.m_routers_at_end, vec![0]);
        assert!(
            (r.delivery_ratio - 1.0).abs() < 1e-9,
            "{}",
            r.delivery_ratio
        );
    }

    #[test]
    fn join_retry_past_u64_max_never_fires() {
        let r = run(&fig5_robust(r#"{ "join_retry": 18446744073709551615 }"#)).unwrap();
        assert_eq!(r.retransmissions, 0);
        assert!(
            (r.delivery_ratio - 1.0).abs() < 1e-9,
            "{}",
            r.delivery_ratio
        );
    }

    #[test]
    fn expectations_and_role_probe_surface_in_result() {
        let r = run(BASIC).unwrap();
        assert_eq!(
            r.expected_deliveries, 2,
            "two members joined before the send"
        );
        assert_eq!(
            r.m_routers_at_end,
            vec![r.m_router],
            "exactly the resolved m-router holds the role on a healthy run"
        );
        let spec: ScenarioFile = serde_json::from_str(BASIC).unwrap();
        let (sent, expected) = expected_deliveries(&spec).unwrap();
        assert_eq!(sent, vec![(GroupId(1), 1)]);
        assert_eq!(
            expected,
            vec![(GroupId(1), 1, NodeId(4)), (GroupId(1), 1, NodeId(9))]
        );
    }

    #[test]
    fn deterministic() {
        let a = run(BASIC).unwrap();
        let b = run(BASIC).unwrap();
        assert_eq!(a.data_overhead, b.data_overhead);
        assert_eq!(a.max_end_to_end_delay, b.max_end_to_end_delay);
    }

    /// Fig. 5 with the 0-2 tree link cut mid-session and the repair scan
    /// enabled.
    const FAULTY: &str = r#"{
        "topology": { "kind": "custom", "nodes": 6, "links": [
            [0,1,3,6],[0,2,4,5],[0,3,2,6],[1,2,3,2],[1,4,9,3],[2,3,4,1],[2,5,7,2]
        ]},
        "m_router": 0,
        "robustness": { "repair_interval": 2000 },
        "faults": [
            { "time": 20000, "fault": { "kind": "link_down", "a": 0, "b": 2 } }
        ],
        "events": [
            { "time": 0,     "node": 4, "op": "join", "group": 1 },
            { "time": 100,   "node": 3, "op": "join", "group": 1 },
            { "time": 200,   "node": 5, "op": "join", "group": 1 },
            { "time": 10000, "node": 4, "op": "send", "group": 1, "tag": 1 },
            { "time": 40000, "node": 4, "op": "send", "group": 1, "tag": 2 }
        ],
        "run_until": 100000
    }"#;

    #[test]
    fn faults_section_injects_and_repairs() {
        let r = run(FAULTY).unwrap();
        assert_eq!(r.faults_injected, 1);
        assert!(r.repairs >= 1, "repair scan must fire after the cut");
        // Both sends reach all three members thanks to the repair.
        assert!(
            (r.delivery_ratio - 1.0).abs() < 1e-9,
            "ratio {}",
            r.delivery_ratio
        );
        assert!(r.max_repair_latency <= 4_000);
        assert!(
            r.data_overhead_during_failure > 0,
            "post-cut send is charged"
        );
    }

    #[test]
    fn delivery_ratio_degrades_without_repair() {
        // Same scenario but no robustness: the cut strands members 3/5
        // until... forever (nothing repairs the tree).
        let json = FAULTY.replace("\"robustness\": { \"repair_interval\": 2000 },", "");
        let r = run(&json).unwrap();
        assert_eq!(r.repairs, 0);
        // tag 1 reaches everyone, tag 2 only node 4 of the three
        // members: 4 of 6 expected triples.
        assert!(
            (r.delivery_ratio - 4.0 / 6.0).abs() < 1e-9,
            "ratio {}",
            r.delivery_ratio
        );
    }

    #[test]
    fn fault_validation_errors() {
        let bad_link = FAULTY.replace("\"a\": 0, \"b\": 2", "\"a\": 0, \"b\": 5");
        let err = run(&bad_link).unwrap_err();
        assert!(
            err.contains("fault[0]") && err.contains("not in topology"),
            "{err}"
        );
        let bad_node = FAULTY.replace(
            "{ \"kind\": \"link_down\", \"a\": 0, \"b\": 2 }",
            "{ \"kind\": \"router_crash\", \"node\": 77 }",
        );
        assert!(run(&bad_node).unwrap_err().contains("out of range"));
    }

    #[test]
    fn telemetry_section_samples_gauges_and_exports_jsonl() {
        let path = std::env::temp_dir().join("scmp_scenario_tele_test.jsonl");
        let json = BASIC.replace(
            "\"m_router\": \"rule1\",",
            &format!(
                "\"m_router\": \"rule1\",\n  \"telemetry\": {{ \"gauge_interval\": 1000, \"jsonl\": {:?} }},",
                path.to_str().unwrap()
            ),
        );
        let r = run(&json).unwrap();
        assert!(r.gauge_samples > 0, "gauges were sampled");
        assert!(r.p50_end_to_end_delay > 0);
        assert!(r.p50_end_to_end_delay <= r.p99_end_to_end_delay);
        assert!(r.p99_end_to_end_delay <= r.max_end_to_end_delay.next_power_of_two());
        let trace = scmp_telemetry::Trace::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let audit = trace.audit();
        assert!(audit.passed(), "scenario trace audits clean");
        assert_eq!(audit.deliveries, 2, "both members heard tag 1");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_keys_are_rejected_by_name() {
        // The motivating bug: a typo'd telemetry knob used to silently
        // deserialise to the default and disable gauge sampling.
        let typo = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \"telemetry\": { \"gauge_intervall\": 1000 },",
        );
        let err = parse(&typo).unwrap_err();
        assert!(
            err.contains("gauge_intervall") && err.contains("telemetry"),
            "error must name the bad key and its section: {err}"
        );

        let top = BASIC.replace("\"m_router\"", "\"m_routter\"");
        let err = parse(&top).unwrap_err();
        assert!(err.contains("m_routter"), "top-level typo named: {err}");

        let event = BASIC.replace("\"tag\": 1", "\"tagg\": 1");
        let err = parse(&event).unwrap_err();
        assert!(
            err.contains("tagg") && err.contains("events[2]"),
            "event typo located: {err}"
        );

        let fault = FAULTY.replace("\"time\": 20000, \"fault\"", "\"when\": 20000, \"fault\"");
        let err = parse(&fault).unwrap_err();
        assert!(
            err.contains("\"when\"") && err.contains("faults[0]"),
            "fault typo located: {err}"
        );

        let kind = FAULTY.replace("\"a\": 0, \"b\": 2", "\"a\": 0, \"dst\": 2");
        let err = parse(&kind).unwrap_err();
        assert!(
            err.contains("dst") && err.contains("faults[0].fault"),
            "fault-kind typo located: {err}"
        );

        let topo = BASIC.replace("\"seed\": 1", "\"sed\": 1");
        let err = parse(&topo).unwrap_err();
        assert!(err.contains("\"sed\""), "topology typo named: {err}");

        // A key that belongs to another variant of the same section is
        // as unknown as a typo: each variant accepts only its own keys.
        let arpanet_n = BASIC.replace("\"seed\": 1", "\"seed\": 1, \"n\": 50");
        let err = parse(&arpanet_n).unwrap_err();
        assert!(
            err.contains("topology: unknown key \"n\"")
                && err.contains("expected one of: kind, seed)"),
            "arpanet has no node count: {err}"
        );

        let crash_heal = FAULTY.replace(
            "{ \"kind\": \"link_down\", \"a\": 0, \"b\": 2 }",
            "{ \"kind\": \"router_crash\", \"node\": 0, \"heal_at\": 500 }",
        );
        let err = parse(&crash_heal).unwrap_err();
        assert!(
            err.contains("faults[0].fault: unknown key \"heal_at\"")
                && err.contains("expected one of: kind, node)"),
            "a crash does not heal: {err}"
        );

        let link_node = FAULTY.replace("\"a\": 0, \"b\": 2", "\"a\": 0, \"b\": 2, \"node\": 1");
        let err = parse(&link_node).unwrap_err();
        assert!(
            err.contains("faults[0].fault: unknown key \"node\"")
                && err.contains("expected one of: kind, a, b)"),
            "a link fault names no node: {err}"
        );

        let crowd_cycles = SCHEDULED.replace("\"stagger\": 100", "\"stagger\": 100, \"cycles\": 2");
        let err = parse(&crowd_cycles).unwrap_err();
        assert!(
            err.contains("membership_schedule[1]: unknown key \"cycles\"")
                && err.contains("expected one of: kind, group, members, at, stagger, leave_at)"),
            "a flash crowd has no cycles: {err}"
        );
    }

    #[test]
    fn zero_link_tx_is_an_error() {
        let json = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \"capacity\": { \"link_tx\": 0, \"queue_limit\": 4 },",
        );
        let err = run(&json).unwrap_err();
        assert_eq!(err, "capacity.link_tx: transmission time must be positive");
    }

    #[test]
    fn zero_m_router_tx_is_an_error() {
        let json = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \
             \"capacity\": { \"link_tx\": 10, \"queue_limit\": 4, \"m_router_tx\": 0 },",
        );
        let err = run(&json).unwrap_err();
        assert_eq!(
            err,
            "capacity.m_router_tx: transmission time must be positive"
        );
    }

    #[test]
    fn schedule_times_past_u64_max_are_errors() {
        let crowd = SCHEDULED.replace(
            "\"at\": 0, \"stagger\": 500",
            "\"at\": 0, \"stagger\": 18446744073709551615, \"leave_at\": 5",
        );
        let err = run(&crowd).unwrap_err();
        assert_eq!(err, "membership_schedule[0]: event time overflows u64");
        // Without `leave_at` the expansion itself meets the overflow.
        let spec = parse(&crowd.replace(", \"leave_at\": 5", "")).unwrap();
        let err = expected_deliveries(&spec).unwrap_err();
        assert_eq!(err, "membership_schedule[0]: event time overflows u64");
        let late = SCHEDULED
            .replace("\"members\": [7]", "\"members\": [7, 8]")
            .replace("\"at\": 600000", "\"at\": 18446744073709551615");
        let err = run(&late).unwrap_err();
        assert_eq!(err, "membership_schedule[1]: event time overflows u64");
    }

    /// The error running `topology` as the whole scenario's topology.
    fn topology_error(topology: &str) -> String {
        let json = BASIC.replace("{ \"kind\": \"arpanet\", \"seed\": 1 }", topology);
        run(&json).unwrap_err()
    }

    #[test]
    fn waxman_without_nodes_is_an_error() {
        let err = topology_error(r#"{ "kind": "waxman", "n": 0, "seed": 1 }"#);
        assert!(err.contains("topology: waxman needs n >= 1"), "{err}");
    }

    #[test]
    fn custom_without_nodes_is_an_error() {
        for rule in ["rule1", "rule2", "rule3"] {
            let json = format!(
                r#"{{ "topology": {{ "kind": "custom", "nodes": 0, "links": [] }},
                     "m_router": "{rule}", "events": [] }}"#
            );
            let err = run(&json).unwrap_err();
            assert!(
                err.contains("topology: custom needs nodes >= 1"),
                "{rule}: {err}"
            );
        }
    }

    #[test]
    fn gtitm_with_one_node_is_an_error() {
        let err = topology_error(r#"{ "kind": "gtitm", "n": 1, "degree": 3.0, "seed": 1 }"#);
        assert!(err.contains("topology: gtitm needs n >= 2"), "{err}");
    }

    #[test]
    fn gtitm_without_degree_is_an_error() {
        let err = topology_error(r#"{ "kind": "gtitm", "n": 20, "degree": 0, "seed": 1 }"#);
        assert!(err.contains("topology: gtitm degree must be > 0"), "{err}");
    }

    #[test]
    fn custom_self_loop_is_an_error() {
        let err =
            topology_error(r#"{ "kind": "custom", "nodes": 3, "links": [[0,1,1,1],[2,2,1,1]] }"#);
        assert!(
            err.contains("topology.links[1]: self-loop at node 2"),
            "{err}"
        );
    }

    #[test]
    fn custom_endpoint_out_of_range_is_an_error() {
        let err = topology_error(r#"{ "kind": "custom", "nodes": 3, "links": [[0,3,1,1]] }"#);
        assert!(
            err.contains("topology.links[0]: endpoint 3 out of range (3 nodes)"),
            "{err}"
        );
    }

    #[test]
    fn custom_duplicate_link_is_an_error() {
        let err = topology_error(
            r#"{ "kind": "custom", "nodes": 3, "links": [[0,1,1,1],[1,2,1,1],[1,0,2,2]] }"#,
        );
        assert!(
            err.contains("topology.links[2]: duplicate link 1-0"),
            "{err}"
        );
    }

    #[test]
    fn captured_run_matches_plain_run_and_traces() {
        let (r, trace) = run_captured(FAULTY).unwrap();
        let plain = run(FAULTY).unwrap();
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "capture must not perturb the simulation"
        );
        assert!(!trace.is_empty(), "capture mode always records the trace");
        let parsed = scmp_telemetry::Trace::parse(&trace).unwrap();
        assert!(parsed.audit().passed(), "captured trace audits clean");
    }

    #[test]
    fn batch_is_order_stable_and_jobs_invariant() {
        let specs: Vec<ScenarioFile> = [
            BASIC.to_string(),
            FAULTY.to_string(),
            BASIC.replace("\"node\": 4", "\"node\": 99"),
            BASIC.to_string(),
        ]
        .iter()
        .map(|json| parse(json).unwrap())
        .collect();
        let serial = run_batch(&specs, 1, true);
        let parallel = run_batch(&specs, 4, true);
        assert_eq!(serial.len(), 4);
        assert!(
            serial[2].is_err(),
            "bad file fails without sinking the batch"
        );
        for (s, p) in serial.iter().zip(&parallel) {
            match (s, p) {
                (Ok(s), Ok(p)) => {
                    assert_eq!(
                        serde_json::to_string(&s.result).unwrap(),
                        serde_json::to_string(&p.result).unwrap()
                    );
                    assert_eq!(s.stats.data_overhead, p.stats.data_overhead);
                    assert_eq!(s.trace, p.trace, "traces byte-identical across jobs");
                }
                (Err(se), Err(pe)) => assert_eq!(se, pe),
                other => panic!("jobs changed an outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn faulty_scenario_is_deterministic() {
        let a = run(FAULTY).unwrap();
        let b = run(FAULTY).unwrap();
        assert_eq!(a.data_overhead, b.data_overhead);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.max_repair_latency, b.max_repair_latency);
        assert_eq!(a.delivery_ratio, b.delivery_ratio);
    }

    #[test]
    fn channel_section_impairs_and_replays() {
        let json = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \
             \"robustness\": { \"join_retry\": 3000, \"tree_retry\": 3000 },\n  \
             \"channel\": { \"seed\": 5, \"default\": { \"drop\": 0.2, \"duplicate\": 0.05 } },",
        );
        let (a, trace_a) = run_captured(&json).unwrap();
        assert!(a.channel_dropped > 0, "a 20% channel must drop something");
        assert!(
            a.retransmissions > 0,
            "dropped control traffic must trigger retries"
        );
        let (b, trace_b) = run_captured(&json).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "lossy runs replay bit-for-bit"
        );
        assert_eq!(trace_a, trace_b, "lossy traces byte-identical");
    }

    #[test]
    fn all_zero_channel_is_byte_identical_to_no_channel() {
        let with = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \
             \"channel\": { \"seed\": 9, \"default\": { \"drop\": 0.0 }, \
             \"links\": [ { \"a\": 0, \"b\": 1 } ] },",
        );
        let (r0, t0) = run_captured(BASIC).unwrap();
        let (r1, t1) = run_captured(&with).unwrap();
        assert_eq!(
            serde_json::to_string(&r0).unwrap(),
            serde_json::to_string(&r1).unwrap(),
            "all-zero channel must not perturb the summary"
        );
        assert_eq!(
            t0, t1,
            "all-zero channel must leave the trace byte-identical"
        );
    }

    #[test]
    fn reliability_recovers_channel_loss() {
        // A 20% lossy channel with the reliability tier on: receivers
        // must detect gaps, NACK, and recover to a perfect delivery
        // ratio that the same channel without the tier cannot reach.
        let base = r#"{
            "topology": { "kind": "arpanet", "seed": 1 },
            "m_router": "rule1",
            "robustness": { "join_retry": 3000, "tree_retry": 3000 },
            "channel": { "seed": 5, "default": { "drop": 0.2 } },
            "events": [
                { "time": 0,      "node": 4,  "op": "join", "group": 1 },
                { "time": 1000,   "node": 9,  "op": "join", "group": 1 },
                { "time": 500000, "node": 15, "op": "send", "group": 1, "tag": 1 },
                { "time": 520000, "node": 15, "op": "send", "group": 1, "tag": 2 },
                { "time": 540000, "node": 15, "op": "send", "group": 1, "tag": 3 },
                { "time": 560000, "node": 15, "op": "send", "group": 1, "tag": 4 },
                { "time": 580000, "node": 15, "op": "send", "group": 1, "tag": 5 }
            ],
            "run_until": 1500000
        }"#;
        let with = base.replace("\"robustness\"", "\"reliability\": {},\n  \"robustness\"");
        let off = run(base).unwrap();
        let (on, trace) = run_captured(&with).unwrap();
        assert_eq!(off.nacks_sent, 0, "tier absent means tier silent");
        assert_eq!(off.recoveries, 0);
        assert!(on.nacks_sent > 0, "losses must trigger NACKs");
        assert!(on.recoveries > 0, "NACKs must close gaps");
        assert!(
            on.delivery_ratio >= off.delivery_ratio,
            "reliability must not lose ground: {} < {}",
            on.delivery_ratio,
            off.delivery_ratio
        );
        assert!(
            (on.delivery_ratio - 1.0).abs() < 1e-9,
            "recovered ratio {}",
            on.delivery_ratio
        );
        assert!(on.p50_recovery_latency > 0);
        assert!(on.p50_recovery_latency <= on.p99_recovery_latency);
        let parsed = scmp_telemetry::Trace::parse(&trace).unwrap();
        assert!(
            parsed.audit().passed(),
            "repairs must not duplicate deliveries: {}",
            parsed.audit().report()
        );

        // Deterministic replay, like every other scenario feature.
        let again = run(&with).unwrap();
        assert_eq!(
            serde_json::to_string(&on).unwrap(),
            serde_json::to_string(&again).unwrap()
        );

        // The tier has one configuration: a retired knob is named, not
        // silently ignored.
        let knob = with.replace(
            "\"reliability\": {}",
            "\"reliability\": { \"nack_delay\": 300 }",
        );
        let err = parse(&knob).unwrap_err();
        assert!(
            err.contains("reliability: unknown key \"nack_delay\"")
                && err.contains("takes no keys"),
            "{err}"
        );
    }

    #[test]
    fn reliability_on_lossless_run_changes_nothing_observable() {
        // On a clean wire the tier is pure bookkeeping: no NACKs, no
        // repairs, the same deliveries, and a clean audit.
        let with = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \"reliability\": {},",
        );
        let plain = run(BASIC).unwrap();
        let (r, trace) = run_captured(&with).unwrap();
        assert_eq!(r.nacks_sent, 0);
        assert_eq!(r.recoveries, 0);
        assert_eq!(r.repair_cache_hits + r.repair_cache_misses, 0);
        assert_eq!(r.delivery_ratio, plain.delivery_ratio);
        assert_eq!(r.deliveries[0].receivers, plain.deliveries[0].receivers);
        assert!(scmp_telemetry::Trace::parse(&trace)
            .unwrap()
            .audit()
            .passed());
    }

    #[test]
    fn channel_validation_errors_surface() {
        let bad = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \
             \"channel\": { \"links\": [ { \"a\": 0, \"b\": 99, \"drop\": 0.1 } ] },",
        );
        let err = run(&bad).unwrap_err();
        assert!(
            err.contains("channel.links[0]") && err.contains("out of range"),
            "{err}"
        );

        let typo = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \"channel\": { \"default\": { \"dropp\": 0.1 } },",
        );
        let err = parse(&typo).unwrap_err();
        assert!(
            err.contains("dropp") && err.contains("channel.default"),
            "{err}"
        );

        let prob = BASIC.replace(
            "\"m_router\": \"rule1\",",
            "\"m_router\": \"rule1\",\n  \"channel\": { \"default\": { \"drop\": 1.5 } },",
        );
        let err = run(&prob).unwrap_err();
        assert!(err.contains("not in [0, 1]"), "{err}");
    }

    /// A flash crowd joining before the first send, and a second one
    /// that joins and leaves between the later sends.
    const SCHEDULED: &str = r#"{
        "topology": { "kind": "arpanet", "seed": 1 },
        "m_router": "rule1",
        "membership_schedule": [
            { "kind": "flash_crowd", "group": 1, "members": [4, 9, 15],
              "at": 0, "stagger": 500 },
            { "kind": "flash_crowd", "group": 1, "members": [7],
              "at": 600000, "stagger": 100, "leave_at": 650000 }
        ],
        "events": [
            { "time": 500000, "node": 3, "op": "send", "group": 1, "tag": 1 },
            { "time": 620000, "node": 3, "op": "send", "group": 1, "tag": 2 },
            { "time": 680000, "node": 3, "op": "send", "group": 1, "tag": 3 }
        ],
        "run_until": 900000
    }"#;

    #[test]
    fn membership_schedule_drives_oracle_and_run_alike() {
        let spec: ScenarioFile = serde_json::from_str(SCHEDULED).unwrap();
        let (sent, expected) = expected_deliveries(&spec).unwrap();
        assert_eq!(sent.len(), 3);
        // tag 1: the first crowd (3 DRs); tag 2: both crowds (7 joined
        // at 600000); tag 3: the first crowd again (7 left at 650000).
        let expects_of = |tag: u64| expected.iter().filter(|e| e.1 == tag).count();
        assert_eq!(expects_of(1), 3);
        assert_eq!(expects_of(2), 4);
        assert_eq!(expects_of(3), 3);

        let r = run(SCHEDULED).unwrap();
        assert_eq!(r.expected_deliveries, 10);
        assert!(
            (r.delivery_ratio - 1.0).abs() < 1e-9,
            "schedule-driven membership delivers in full: {}",
            r.delivery_ratio
        );
        assert_eq!(r.deliveries[1].receivers, 4, "the late joiner heard tag 2");
        assert_eq!(r.deliveries[2].receivers, 3, "7 is gone again");
    }

    #[test]
    fn membership_schedule_validation_errors_are_named() {
        for (breakage, needle) in [
            ("\"leave_at\": 650000", "\"leave_at\": 600000"),
            ("\"members\": [7]", "\"members\": []"),
            ("\"members\": [7]", "\"members\": [99]"),
        ] {
            let bad = SCHEDULED.replace(breakage, needle);
            let err = run(&bad).unwrap_err();
            assert!(
                err.contains("membership_schedule[1]"),
                "{needle}: error must name the entry: {err}"
            );
        }
        let bad = SCHEDULED.replace(
            "\"at\": 0, \"stagger\": 500",
            "\"at\": 0, \"stagger\": 500, \"leave_at\": 800",
        );
        let err = run(&bad).unwrap_err();
        assert!(
            err.contains("membership_schedule[0]") && err.contains("leave_at"),
            "{err}"
        );
    }

    #[test]
    fn membership_schedule_typos_are_rejected_by_name() {
        let typo = SCHEDULED.replace("\"stagger\": 500", "\"staggger\": 500");
        let err = parse(&typo).unwrap_err();
        assert!(
            err.contains("staggger") && err.contains("membership_schedule[0]"),
            "{err}"
        );
        let kind = SCHEDULED.replacen("\"flash_crowd\"", "\"diurnal_churn\"", 1);
        let err = parse(&kind).unwrap_err();
        assert!(
            err.contains("membership_schedule[0]") && err.contains("unknown tag \"diurnal_churn\""),
            "{err}"
        );
    }

    /// A partition family fault driven entirely from a scenario file:
    /// the seeded cut strands part of the ARPANET mid-session, the heal
    /// restores it, and the repair scan reconciles the trees.
    const PARTITIONED: &str = r#"{
        "topology": { "kind": "arpanet", "seed": 1 },
        "m_router": 10,
        "robustness": { "repair_interval": 2000 },
        "faults": [
            { "time": 60000, "fault": { "kind": "partition", "seed": 7, "heal_at": 160000 } }
        ],
        "events": [
            { "time": 0,      "node": 3,  "op": "join", "group": 1 },
            { "time": 100,    "node": 6,  "op": "join", "group": 1 },
            { "time": 200,    "node": 15, "op": "join", "group": 1 },
            { "time": 300,    "node": 17, "op": "join", "group": 1 },
            { "time": 250000, "node": 13, "op": "send", "group": 1, "tag": 1 }
        ],
        "run_until": 300000
    }"#;

    #[test]
    fn partition_family_runs_degrades_and_reconciles() {
        let r = run(PARTITIONED).unwrap();
        assert!(r.faults_injected >= 2, "cut + heal both inject");
        assert!(
            r.partition_degraded_ticks > 0,
            "the scan must notice the unreachable side"
        );
        assert!(
            (r.delivery_ratio - 1.0).abs() < 1e-9,
            "post-heal send reaches every member: {}",
            r.delivery_ratio
        );
        assert_eq!(r.m_routers_at_end, vec![10], "no split brain");
        let b = run(PARTITIONED).unwrap();
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "partition runs replay bit-for-bit"
        );
    }

    #[test]
    fn family_fault_keys_pass_the_schema_and_validate() {
        // A typo'd family key is rejected by name…
        let typo = PARTITIONED.replace("\"heal_at\": 160000", "\"heal_et\": 160000");
        let err = parse(&typo).unwrap_err();
        assert!(
            err.contains("heal_et") && err.contains("faults[0].fault"),
            "{err}"
        );
        // …and the other two families parse through the same schema.
        let outage = PARTITIONED.replace(
            "{ \"kind\": \"partition\", \"seed\": 7, \"heal_at\": 160000 }",
            "{ \"kind\": \"regional_outage\", \"seed\": 7, \"links\": 3, \"restore_at\": 160000 }",
        );
        let r = run(&outage).unwrap();
        assert!(r.faults_injected >= 2);
        let storm = PARTITIONED.replace(
            "{ \"kind\": \"partition\", \"seed\": 7, \"heal_at\": 160000 }",
            "{ \"kind\": \"flap_storm\", \"seed\": 7, \"links\": 2, \"cycles\": 3, \"period\": 10000 }",
        );
        let r = run(&storm).unwrap();
        assert!(r.faults_injected >= 6, "each flap cycle injects twice");
    }
}
