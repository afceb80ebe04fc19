//! STRESS scenario explorer: boundary-point search over the scenario
//! space, failure minimization, and the pinned regression corpus.
//!
//! The paper validates SCMP on a handful of hand-picked scenarios; so
//! did our first five scenario files. Following the STRESS method
//! (Helmy et al., *Systematic Performance Evaluation of Multipoint
//! Protocols*), this module replaces hand-picking with a search:
//!
//! 1. **Generator** — [`StressPoint`] indexes a scenario space of
//!    channel impairments × fault schedules × membership churn ×
//!    timer/ARQ settings × topology; [`synthesize`] maps a point to a
//!    concrete [`ScenarioFile`] deterministically (no RNG — the point
//!    *is* the scenario).
//! 2. **Oracle** — [`judge`] checks a traced run, for the search, the
//!    corpus, the chaos series and the committed scenarios alike: *hard*
//!    violations (duplicate delivery, unaccounted loss, split-brain
//!    m-router roles, an imperfect run with nothing to blame) are
//!    protocol bugs anywhere in the space; *boundary* predicates
//!    (incomplete delivery, a stranded member, a false or missed
//!    takeover, repair latency past its bound) mark the edge of the
//!    operating envelope.
//! 3. **Search** — [`search`] sweeps random points (warm-up), then runs
//!    coordinate descent on each distinct failure signature: per axis,
//!    binary-search the smallest hostility index that still fails, i.e.
//!    the *boundary point* where the invariant first breaks. All
//!    batches run on the PR 4 [`SweepRunner`], so the whole search is
//!    byte-identical across `--jobs` counts.
//! 4. **Minimizer** — [`minimize`] delta-debugs a failing scenario's
//!    event + fault schedule down to a minimal reproducer with the
//!    same failure signature.
//!
//! Minimized boundary scenarios are pinned as [`CorpusEntry`] JSON
//! files under `tests/scenarios/corpus/`, which `cargo test` replays
//! forever after (see `tests/tests/corpus_replay.rs`).

use crate::scenario_file::{
    expected_deliveries, run_one, EventSpec, MRouterSpec, RobustnessSpec, Run, ScenarioFile,
    ScenarioResult, TopologySpec,
};
use crate::sweep::SweepRunner;
use rand::Rng;
use scmp_net::rng::rng_for;
use scmp_sim::{partition_cut, ChannelPlan, ChannelSpec, FaultKind, FaultSpec};
use scmp_telemetry::{EventKind, Trace};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

// ---------------------------------------------------------------------------
// Scenario space
// ---------------------------------------------------------------------------

/// Fig. 5 topology index (6 nodes, tick-scale delays).
pub const FIG5: u8 = 0;
/// ARPANET topology index (20 nodes, seeded weights).
pub const ARPANET: u8 = 1;

/// Retry-base axis, least → most hostile: fast retries recover best;
/// `0` disables the ARQ entirely. (A "too short" base is *also* hostile
/// — spurious retransmissions — but that would break the axis's
/// monotonicity, so the searched range starts at a sound base.)
pub const RETRY_BASES: &[u64] = &[500, 1_000, 2_000, 4_000, 0];

/// Repair-scan-period axis, least → most hostile (`0` = scan off).
pub const REPAIR_INTERVALS: &[u64] = &[1_000, 2_000, 4_000, 8_000, 0];

/// Heartbeat-loss-tolerance axis, least → most hostile: a hair-trigger
/// watchdog false-fires under loss long before a patient one.
pub const TOLERANCES: &[u32] = &[12, 8, 6, 4, 3, 2];

/// Payloads sent after the convergence window in every synthesized
/// scenario.
pub const SENDS: u64 = 12;

/// One point in the scenario space. Every field is a small index;
/// [`synthesize`] maps indices to concrete knob values. On every
/// searched axis, index 0 is the *least* hostile setting and hostility
/// grows monotonically with the index — the invariant coordinate
/// descent relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct StressPoint {
    /// Topology: [`FIG5`] or [`ARPANET`]. Not searched.
    pub topo: u8,
    /// Channel + (ARPANET) weight seed. Not searched.
    pub seed: u64,
    /// Uniform drop probability = `loss × 0.02` (0..=15 → 0%..30%).
    pub loss: u8,
    /// Duplication probability = `dup × 0.02` (0..=5 → 0%..10%).
    pub dup: u8,
    /// Reorder jitter window = `reorder × 2` ticks (0..=4).
    pub reorder: u8,
    /// Down/up cycles on the profile's flap link (0..=4).
    pub flaps: u8,
    /// Crash the primary m-router mid-run. Not searched (categorical).
    pub crash: bool,
    /// Leave/rejoin churn cycles over the member set (0..=4).
    pub churn: u8,
    /// Index into [`RETRY_BASES`].
    pub retry: u8,
    /// Index into [`REPAIR_INTERVALS`].
    pub repair: u8,
    /// Index into [`TOLERANCES`].
    pub tolerance: u8,
    /// Correlated partition family: 0 = none, else a seeded graph cut
    /// at t=25k healing `15k × partition` later (0..=3).
    pub partition: u8,
    /// Correlated regional-outage family: 0 = none, else `outage`
    /// links around a seeded epicentre down for `10k × outage` (0..=3).
    pub outage: u8,
}

/// One searchable axis of [`StressPoint`]: an accessor pair plus the
/// largest legal index.
pub struct Axis {
    /// Field name (used in reports and descent labels).
    pub name: &'static str,
    /// Largest legal index on the axis.
    pub max: u8,
    get: fn(&StressPoint) -> u8,
    set: fn(&mut StressPoint, u8),
}

impl Axis {
    /// Read this axis of `p`.
    pub fn get(&self, p: &StressPoint) -> u8 {
        (self.get)(p)
    }

    /// `p` with this axis set to `v`.
    pub fn with(&self, p: &StressPoint, v: u8) -> StressPoint {
        let mut q = *p;
        (self.set)(&mut q, v);
        q
    }
}

/// The searched axes, in descent order. `topo`, `seed` and `crash` are
/// categorical, not hostility scales, so the descent never moves them.
pub const AXES: &[Axis] = &[
    Axis {
        name: "loss",
        max: 15,
        get: |p| p.loss,
        set: |p, v| p.loss = v,
    },
    Axis {
        name: "dup",
        max: 5,
        get: |p| p.dup,
        set: |p, v| p.dup = v,
    },
    Axis {
        name: "reorder",
        max: 4,
        get: |p| p.reorder,
        set: |p, v| p.reorder = v,
    },
    Axis {
        name: "flaps",
        max: 4,
        get: |p| p.flaps,
        set: |p, v| p.flaps = v,
    },
    Axis {
        name: "churn",
        max: 4,
        get: |p| p.churn,
        set: |p, v| p.churn = v,
    },
    Axis {
        name: "retry",
        max: 4,
        get: |p| p.retry,
        set: |p, v| p.retry = v,
    },
    Axis {
        name: "repair",
        max: 4,
        get: |p| p.repair,
        set: |p, v| p.repair = v,
    },
    Axis {
        name: "tolerance",
        max: 5,
        get: |p| p.tolerance,
        set: |p, v| p.tolerance = v,
    },
    Axis {
        name: "partition",
        max: 3,
        get: |p| p.partition,
        set: |p, v| p.partition = v,
    },
    Axis {
        name: "outage",
        max: 3,
        get: |p| p.outage,
        set: |p, v| p.outage = v,
    },
];

/// Human name of a topology index.
pub fn topo_name(topo: u8) -> &'static str {
    if topo == FIG5 {
        "fig5"
    } else {
        "arpanet"
    }
}

/// Draw one random point (the warm-up sweep's sampler).
pub fn sample(rng: &mut impl Rng, topologies: &[u8]) -> StressPoint {
    let topo = topologies[rng.gen_range(0..topologies.len() as u64) as usize];
    StressPoint {
        topo,
        seed: rng.gen_range(0..16u64),
        loss: rng.gen_range(0..16u64) as u8,
        dup: rng.gen_range(0..6u64) as u8,
        reorder: rng.gen_range(0..5u64) as u8,
        flaps: rng.gen_range(0..5u64) as u8,
        crash: rng.gen_range(0..4u64) == 0,
        churn: rng.gen_range(0..5u64) as u8,
        retry: rng.gen_range(0..5u64) as u8,
        repair: rng.gen_range(0..5u64) as u8,
        tolerance: rng.gen_range(0..6u64) as u8,
        partition: rng.gen_range(0..4u64) as u8,
        outage: rng.gen_range(0..4u64) as u8,
    }
}

// ---------------------------------------------------------------------------
// Generator: point → scenario
// ---------------------------------------------------------------------------

/// Per-topology constants the generator builds scenarios around.
struct Profile {
    topology: TopologySpec,
    m_router: u32,
    standby: u32,
    members: &'static [u32],
    source: u32,
    /// Link whose flapping disturbs the tree without partitioning the
    /// graph (fig5: the 0–2 tree link; ARPANET: 9–10 next to the root).
    flap: (u32, u32),
    heartbeat: u64,
    first_send: u64,
    run_until: u64,
}

fn profile(p: &StressPoint) -> Profile {
    if p.topo == FIG5 {
        Profile {
            topology: TopologySpec::Custom {
                nodes: 6,
                links: vec![
                    [0, 1, 3, 6],
                    [0, 2, 4, 5],
                    [0, 3, 2, 6],
                    [1, 2, 3, 2],
                    [1, 4, 9, 3],
                    [2, 3, 4, 1],
                    [2, 5, 7, 2],
                ],
            },
            m_router: 0,
            standby: 2,
            members: &[4, 3, 5],
            source: 1,
            flap: (0, 2),
            heartbeat: 500,
            first_send: 90_000,
            run_until: 180_000,
        }
    } else {
        Profile {
            topology: TopologySpec::Arpanet { seed: p.seed },
            m_router: 10,
            standby: 11,
            members: &[3, 6, 7, 9, 15, 17],
            source: 13,
            flap: (9, 10),
            heartbeat: 1_000,
            first_send: 150_000,
            run_until: 280_000,
        }
    }
}

/// Map a point to its concrete scenario. Pure — the same point always
/// yields the same file, which is what makes every search replayable
/// and every pinned reproducer stable.
///
/// The timeline shape is fixed; the point only scales its hostile
/// parts: members join early, churn cycles leave/rejoin mid-run, the
/// flap link cycles down/up while the tree is in service, an optional
/// crash kills the primary at t=60k (the standby era covers all later
/// sends), and [`SENDS`] tagged payloads go out after the control plane
/// had time to converge.
pub fn synthesize(p: &StressPoint) -> ScenarioFile {
    let prof = profile(p);
    let mut events = Vec::new();
    for (k, &m) in (0u64..).zip(prof.members) {
        events.push(EventSpec::join(k * 1_000, m, 1));
    }
    for k in 0..u64::from(p.churn) {
        let m = prof.members[k as usize % prof.members.len()];
        let leave = 30_000 + k * 7_000;
        events.push(EventSpec::leave(leave, m, 1));
        events.push(EventSpec::join(leave + 3_500, m, 1));
    }
    for k in 0..SENDS {
        let time = prof.first_send + k * 4_000;
        events.push(EventSpec::send(time, prof.source, 1, k + 1));
    }

    let mut faults = Vec::new();
    for k in 0..u64::from(p.flaps) {
        let down = 20_000 + k * 8_000;
        let (a, b) = prof.flap;
        faults.push(FaultSpec {
            time: down,
            fault: FaultKind::LinkDown { a, b },
        });
        faults.push(FaultSpec {
            time: down + 4_000,
            fault: FaultKind::LinkUp { a, b },
        });
    }
    // Correlated fault families: a seeded graph cut healing mid-run
    // and a regional outage around a seeded epicentre, both well before
    // the sends so the repair scan's reconciliation (when armed) has a
    // chance — with the scan off, these are what strand members.
    if p.partition > 0 {
        faults.push(FaultSpec {
            time: 25_000,
            fault: FaultKind::Partition {
                seed: p.seed,
                heal_at: 25_000 + 15_000 * u64::from(p.partition),
            },
        });
    }
    if p.outage > 0 {
        faults.push(FaultSpec {
            time: 45_000,
            fault: FaultKind::RegionalOutage {
                seed: p.seed,
                links: u32::from(p.outage),
                restore_at: 45_000 + 10_000 * u64::from(p.outage),
            },
        });
    }
    if p.crash {
        faults.push(FaultSpec {
            time: 60_000,
            fault: FaultKind::RouterCrash {
                node: prof.m_router,
            },
        });
    }

    let retry = RETRY_BASES[p.retry as usize];
    let chan = ChannelSpec {
        drop: f64::from(p.loss) * 0.02,
        duplicate: f64::from(p.dup) * 0.02,
        corrupt: 0.0,
        reorder_window: u64::from(p.reorder) * 2,
    };
    let mut spec = ScenarioFile::new(prof.topology, MRouterSpec::Node(prof.m_router), events);
    spec.faults = faults;
    spec.robustness = Some(RobustnessSpec {
        repair_interval: Some(REPAIR_INTERVALS[p.repair as usize]),
        join_retry: Some(retry),
        leave_retry: Some(retry),
        heartbeat_interval: Some(prof.heartbeat),
        standby: Some(prof.standby),
        takeover_rebuild_delay: Some(500),
        tree_retry: Some(retry),
        heartbeat_loss_tolerance: Some(TOLERANCES[p.tolerance as usize]),
        tree_packets_only: None,
    });
    spec.channel = (!chan.is_noop()).then_some(ChannelPlan {
        seed: p.seed,
        default: Some(chan),
        links: Vec::new(),
    });
    spec.run_until = Some(prof.run_until);
    spec
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// The oracle's verdict on one scenario run.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Hard invariant violations (sorted): protocol bugs no matter the
    /// scenario. `duplicate_delivery`, `unaccounted_loss`,
    /// `split_brain` (clean runs only), `clean_run_imperfect`. A run is
    /// clean when it has no active channel, no fault and no queue drop.
    pub hard: Vec<String>,
    /// Boundary predicates (sorted): acceptable only past the operating
    /// envelope. `delivery_incomplete`, `dual_mrouter_at_end`,
    /// `member_unreached`, `unexpected_takeover`, `missed_takeover`,
    /// `repair_latency_exceeded`.
    pub boundary: Vec<String>,
    /// The runner's metric summary.
    pub result: ScenarioResult,
    /// Members owed at least one delivery by the timeline.
    pub members_expected: usize,
    /// Of those, members that heard at least one payload.
    pub members_reached: usize,
    /// Distinct `(group, tag, node)` delivered more than once.
    pub duplicate_deliveries: usize,
    /// Missing deliveries with no recorded drop/fault to explain them.
    pub unaccounted: usize,
}

impl Evaluation {
    /// True when any predicate fired.
    pub fn failed(&self) -> bool {
        !self.hard.is_empty() || !self.boundary.is_empty()
    }

    /// The failure signature: hard names then boundary names. Two runs
    /// fail "the same way" iff their signatures are equal.
    pub fn signature(&self) -> Vec<String> {
        self.hard.iter().chain(&self.boundary).cloned().collect()
    }
}

/// Run one scenario with its trace captured and [`judge`] the run.
pub fn evaluate(spec: &ScenarioFile) -> Result<Evaluation, String> {
    judge(spec, &run_one(spec, true)?)
}

/// The one function that turns a finished, traced run of `spec` into
/// verdicts: it audits the trace and combines the audit, the summary
/// and the timeline's own delivery expectations.
pub fn judge(spec: &ScenarioFile, run: &Run) -> Result<Evaluation, String> {
    let result = run.result.clone();
    let trace = Trace::parse(&run.trace).map_err(|e| format!("trace: {e}"))?;
    let audit = trace.audit();

    // Per-member expectations: which tags was each member owed?
    let (_sent, expected) = expected_deliveries(spec)?;
    let mut expected_tags: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
    for &(_, tag, node) in &expected {
        expected_tags.entry(node.0).or_default().insert(tag);
    }
    let reached: BTreeSet<u32> = trace
        .events()
        .iter()
        .filter(|ev| matches!(ev.kind, EventKind::DeliverLocal { .. }))
        .map(|ev| ev.node)
        .filter(|n| expected_tags.contains_key(n))
        .collect();

    let channel_active = spec.channel.as_ref().is_some_and(|c| !c.is_noop());
    let crashed_primary = spec
        .faults
        .iter()
        .any(|f| matches!(f.fault, FaultKind::RouterCrash { node } if node == result.m_router));
    let rob = spec.robustness.clone().unwrap_or_default();
    let standby_armed = rob.standby.is_some() && rob.heartbeat_interval.is_some_and(|h| h > 0);
    let repair_interval = rob.repair_interval.unwrap_or(0);
    // A partition whose cut separates the primary from its standby
    // starves the watchdog legitimately: a takeover there is the
    // protocol working, not a false promotion.
    let partition_splits_root_pair = rob.standby.is_some_and(|standby| {
        spec.topology.build().is_ok_and(|topo| {
            spec.faults.iter().any(|f| {
                if let FaultKind::Partition { seed, .. } = f.fault {
                    if let Ok(cut) = partition_cut(&topo, seed) {
                        let a_has = |n: u32| cut.side_a.iter().any(|v| v.0 == n);
                        return a_has(result.m_router) != a_has(standby);
                    }
                }
                false
            })
        })
    });
    // Correlated families hold their damage for a declared interval; a
    // repair cannot complete while the partition (or outage) persists,
    // so the latency bound starts counting from the heal, not the cut.
    let max_outage: u64 = spec
        .faults
        .iter()
        .map(|f| match f.fault {
            FaultKind::Partition { heal_at, .. } => heal_at.saturating_sub(f.time),
            FaultKind::RegionalOutage { restore_at, .. } => restore_at.saturating_sub(f.time),
            FaultKind::FlapStorm { cycles, period, .. } => period.saturating_mul(u64::from(cycles)),
            _ => 0,
        })
        .max()
        .unwrap_or(0);

    // Clean: nothing in the scenario may drop a packet — no channel, no
    // fault, and no overflowing queue under a capacity model.
    let clean_run = !channel_active && spec.faults.is_empty() && result.queue_drops == 0;
    let mut hard = Vec::new();
    if !audit.duplicates.is_empty() {
        hard.push("duplicate_delivery".to_string());
    }
    if !audit.unaccounted.is_empty() {
        hard.push("unaccounted_loss".to_string());
    }
    // Two live claimants on a *clean* run is a real split brain: with
    // nothing dropping packets, the step-down announcement cannot have
    // been lost, so the dual mastership is permanent. Under an active
    // channel the same end state is usually a run sampled mid-heal —
    // the survivor pair ping-pongs the role while loss eats heartbeats
    // and NewMRouter announcements, and every primary heartbeat retries
    // the heal — so there it is a boundary observation instead
    // (`dual_mrouter_at_end` below).
    if result.m_routers_at_end.len() > 1 && clean_run {
        hard.push("split_brain".to_string());
    }
    if clean_run && result.expected_deliveries > 0 && result.delivery_ratio < 1.0 {
        hard.push("clean_run_imperfect".to_string());
    }

    let mut boundary = Vec::new();
    if result.expected_deliveries > 0 && result.delivery_ratio < 1.0 {
        boundary.push("delivery_incomplete".to_string());
    }
    if result.m_routers_at_end.len() > 1 {
        boundary.push("dual_mrouter_at_end".to_string());
    }
    // A member owed ≥ 2 payloads that heard *none* of them: the tree
    // never converged for it. (One expected payload is no proxy — a
    // single datagram can die on a lossy link without any tree bug.)
    if expected_tags
        .iter()
        .any(|(n, tags)| tags.len() >= 2 && !reached.contains(n))
    {
        boundary.push("member_unreached".to_string());
    }
    if result.takeovers > 0 && !crashed_primary && !partition_splits_root_pair {
        boundary.push("unexpected_takeover".to_string());
    }
    if crashed_primary && standby_armed && result.takeovers == 0 {
        boundary.push("missed_takeover".to_string());
    }
    if result.repairs > 0
        && repair_interval > 0
        && result.max_repair_latency > max_outage + 4 * repair_interval
    {
        boundary.push("repair_latency_exceeded".to_string());
    }
    hard.sort();
    boundary.sort();

    Ok(Evaluation {
        hard,
        boundary,
        members_expected: expected_tags.len(),
        members_reached: reached.len(),
        duplicate_deliveries: audit.duplicates.len(),
        unaccounted: audit.unaccounted.len(),
        result,
    })
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

/// Search parameters.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Master seed: drives the warm-up sampler (and nothing else — the
    /// descents are deterministic given the warm-up outcomes).
    pub seed: u64,
    /// Random points in the warm-up sweep.
    pub warmup: usize,
    /// Full coordinate-descent sweeps over the axes (2 is usually a
    /// fixpoint; descents stop early when a sweep improves nothing).
    pub passes: usize,
    /// Most failure signatures to refine into boundary points.
    pub max_boundaries: usize,
    /// Topologies sampled ([`FIG5`] / [`ARPANET`]).
    pub topologies: Vec<u8>,
}

impl SearchConfig {
    /// The full search the `stress` bin runs by default.
    pub fn full(seed: u64) -> Self {
        SearchConfig {
            seed,
            warmup: 48,
            passes: 2,
            max_boundaries: 4,
            topologies: vec![FIG5, ARPANET],
        }
    }

    /// The time-boxed smoke search (`just stress-smoke`, CI).
    pub fn smoke(seed: u64) -> Self {
        SearchConfig {
            seed,
            warmup: 16,
            passes: 1,
            max_boundaries: 2,
            topologies: vec![FIG5],
        }
    }
}

/// One evaluated point, as persisted in the report.
#[derive(Clone, Debug, Serialize)]
pub struct CellRecord {
    /// The point evaluated.
    pub point: StressPoint,
    /// Hard violations observed (sorted).
    pub hard: Vec<String>,
    /// Boundary predicates observed (sorted).
    pub boundary: Vec<String>,
    /// Key metrics of the run.
    pub delivery_ratio: f64,
    pub expected_deliveries: u64,
    pub members_reached: usize,
    pub members_expected: usize,
    pub takeovers: u64,
    pub repairs: u64,
    pub max_repair_latency: u64,
    pub retransmissions: u64,
    pub channel_dropped: u64,
}

fn cell_record(point: StressPoint, ev: &Evaluation) -> CellRecord {
    CellRecord {
        point,
        hard: ev.hard.clone(),
        boundary: ev.boundary.clone(),
        delivery_ratio: ev.result.delivery_ratio,
        expected_deliveries: ev.result.expected_deliveries,
        members_reached: ev.members_reached,
        members_expected: ev.members_expected,
        takeovers: ev.result.takeovers,
        repairs: ev.result.repairs,
        max_repair_latency: ev.result.max_repair_latency,
        retransmissions: ev.result.retransmissions,
        channel_dropped: ev.result.channel_dropped,
    }
}

/// One refined, minimized boundary.
#[derive(Clone, Debug, Serialize)]
pub struct BoundaryRecord {
    /// The warm-up failure signature that seeded the descent.
    pub origin_signature: Vec<String>,
    /// The warm-up point the descent started from.
    pub origin: StressPoint,
    /// The boundary point the descent converged to, with its own
    /// (possibly sharper) signature and metrics.
    pub boundary: CellRecord,
    /// Events surviving delta-debugging (of the boundary scenario's).
    pub minimized_events: usize,
    /// Faults surviving delta-debugging.
    pub minimized_faults: usize,
    /// Corpus file stem this boundary pins to.
    pub corpus_name: String,
    /// The minimized reproducer itself.
    pub minimized: ScenarioFile,
}

/// The full search result, persisted to `bench_results/stress.json`.
/// Contains no timing, host or worker-count information: the report for
/// a given config is byte-identical at every `--jobs` value.
#[derive(Clone, Debug, Serialize)]
pub struct StressReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Warm-up points sampled.
    pub warmup: usize,
    /// Descent passes configured.
    pub passes: u64,
    /// Total scenario evaluations spent (warm-up + descents + ddmin).
    pub evaluations: u64,
    /// Cells with hard invariant violations — must be empty; the bin
    /// exits nonzero otherwise.
    pub hard_failures: Vec<CellRecord>,
    /// Every warm-up cell.
    pub warmup_cells: Vec<CellRecord>,
    /// The refined boundary map.
    pub boundaries: Vec<BoundaryRecord>,
}

/// Batches every oracle call of a search through one [`SweepRunner`]
/// and counts them.
struct Driver<'a> {
    runner: &'a SweepRunner,
    evaluations: u64,
}

impl Driver<'_> {
    /// Evaluate generated points; a generator that emits an unrunnable
    /// scenario is a bug worth a loud panic.
    fn eval_points(&mut self, points: &[StressPoint]) -> Vec<Evaluation> {
        let specs: Vec<ScenarioFile> = points.iter().map(synthesize).collect();
        self.evaluations += specs.len() as u64;
        self.runner
            .run(&specs, |_, spec| evaluate(spec))
            .into_iter()
            .zip(points)
            .map(|(r, p)| r.unwrap_or_else(|e| panic!("generated scenario {p:?} failed: {e}")))
            .collect()
    }
}

/// One in-flight coordinate descent: lock-step binary search for the
/// minimal failing index on each axis in turn.
struct Descent {
    /// Signature the descent chases: a probe "fails" when its own
    /// signature shares at least one name with this one.
    sig: Vec<String>,
    point: StressPoint,
    axis: usize,
    axis_start: u8,
    lo: u8,
    hi: u8,
    pass: usize,
    improved: bool,
    done: bool,
}

impl Descent {
    fn new(sig: Vec<String>, point: StressPoint) -> Descent {
        let mut d = Descent {
            sig,
            point,
            axis: 0,
            axis_start: AXES[0].get(&point),
            lo: 0,
            hi: AXES[0].get(&point),
            pass: 0,
            improved: false,
            done: false,
        };
        d.advance(usize::MAX); // settle zero axes; passes can't end here
        d
    }

    /// The probe this descent wants next (None when finished).
    fn probe(&self) -> Option<StressPoint> {
        if self.done {
            return None;
        }
        Some(AXES[self.axis].with(&self.point, (self.lo + self.hi) / 2))
    }

    /// Record the probe's outcome and move on.
    fn observe(&mut self, probe_failed: bool, passes: usize) {
        let mid = (self.lo + self.hi) / 2;
        if probe_failed {
            self.hi = mid;
        } else {
            self.lo = mid + 1;
        }
        self.advance(passes);
    }

    /// Settle finished axes and find the next one needing a probe.
    fn advance(&mut self, passes: usize) {
        while !self.done && self.lo >= self.hi {
            // Axis settled: `hi` is the smallest index still failing.
            if self.hi < self.axis_start {
                self.point = AXES[self.axis].with(&self.point, self.hi);
                self.improved = true;
            }
            self.axis += 1;
            while self.axis < AXES.len() && AXES[self.axis].get(&self.point) == 0 {
                self.axis += 1;
            }
            if self.axis == AXES.len() {
                self.pass += 1;
                if self.pass >= passes || !self.improved {
                    self.done = true;
                    return;
                }
                self.improved = false;
                self.axis = 0;
                while self.axis < AXES.len() && AXES[self.axis].get(&self.point) == 0 {
                    self.axis += 1;
                }
                if self.axis == AXES.len() {
                    self.done = true;
                    return;
                }
            }
            self.axis_start = AXES[self.axis].get(&self.point);
            self.lo = 0;
            self.hi = self.axis_start;
        }
    }
}

fn intersects(a: &[String], b: &[String]) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// Run the full STRESS search. Deterministic: the same config yields a
/// byte-identical [`StressReport`] at every `jobs` value, because every
/// evaluation batch goes through [`SweepRunner`] (order-stable) and all
/// selection logic is first-in-order.
pub fn search(cfg: &SearchConfig, jobs: usize) -> StressReport {
    assert!(!cfg.topologies.is_empty(), "no topologies to search");
    let runner = SweepRunner::new(jobs);
    let mut drv = Driver {
        runner: &runner,
        evaluations: 0,
    };

    // Warm-up: a seeded random sweep across the whole space.
    let mut rng = rng_for("stress/warmup", cfg.seed);
    let points: Vec<StressPoint> = (0..cfg.warmup)
        .map(|_| sample(&mut rng, &cfg.topologies))
        .collect();
    let evals = drv.eval_points(&points);
    let warmup_cells: Vec<CellRecord> = points
        .iter()
        .zip(&evals)
        .map(|(p, e)| cell_record(*p, e))
        .collect();
    let hard_failures: Vec<CellRecord> = warmup_cells
        .iter()
        .filter(|c| !c.hard.is_empty())
        .cloned()
        .collect();

    // Pick descent seeds: the first warm-up failure of each distinct
    // signature, hard failures first (a real protocol bug outranks an
    // envelope edge for the limited descent budget).
    let mut order: Vec<usize> = (0..evals.len()).collect();
    order.sort_by_key(|&i| (evals[i].hard.is_empty(), i));
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut descents: Vec<Descent> = Vec::new();
    for i in order {
        if descents.len() >= cfg.max_boundaries {
            break;
        }
        if evals[i].failed() && seen.insert(evals[i].signature()) {
            descents.push(Descent::new(evals[i].signature(), points[i]));
        }
    }
    let origins: Vec<(Vec<String>, StressPoint)> =
        descents.iter().map(|d| (d.sig.clone(), d.point)).collect();

    // Lock-step descent rounds: every active descent contributes one
    // probe per round; the batch runs on the shared runner.
    loop {
        let wanting: Vec<usize> = (0..descents.len()).filter(|&i| !descents[i].done).collect();
        if wanting.is_empty() {
            break;
        }
        let probes: Vec<StressPoint> = wanting
            .iter()
            .map(|&i| descents[i].probe().expect("active descent has a probe"))
            .collect();
        let outcomes = drv.eval_points(&probes);
        for (&i, ev) in wanting.iter().zip(&outcomes) {
            let failed = intersects(&ev.signature(), &descents[i].sig);
            descents[i].observe(failed, cfg.passes);
        }
    }

    // Evaluate each boundary point for its final signature + metrics,
    // then minimize. Descents that converged to the same corpus name
    // (same topology, same final signature) are collapsed to the first.
    let finals: Vec<StressPoint> = descents.iter().map(|d| d.point).collect();
    let final_evals = drv.eval_points(&finals);
    let mut named: BTreeSet<String> = BTreeSet::new();
    let mut boundaries = Vec::new();
    for (((sig, origin), point), ev) in origins.into_iter().zip(finals).zip(&final_evals) {
        let corpus_name = format!(
            "stress-{}-{}",
            topo_name(point.topo),
            ev.signature().join("+")
        );
        if !named.insert(corpus_name.clone()) {
            continue;
        }
        let spec = synthesize(&point);
        let (minimized, spent) = minimize(&spec, &ev.hard, &ev.boundary, &runner);
        drv.evaluations += spent;
        boundaries.push(BoundaryRecord {
            origin_signature: sig,
            origin,
            boundary: cell_record(point, ev),
            minimized_events: minimized.events.len(),
            minimized_faults: minimized.faults.len(),
            corpus_name,
            minimized,
        });
    }

    StressReport {
        seed: cfg.seed,
        warmup: cfg.warmup,
        passes: cfg.passes as u64,
        evaluations: drv.evaluations,
        hard_failures,
        warmup_cells,
        boundaries,
    }
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

/// Delta-debug (`ddmin`) the scenario's event + fault schedule: find a
/// small item subset whose run still fails with *exactly* the given
/// `(hard, boundary)` signature. Returns the reduced scenario and the
/// number of oracle evaluations spent. Deterministic: candidate order
/// is fixed and the first (lowest-index) surviving complement wins each
/// round; candidates within a round evaluate as one parallel batch.
pub fn minimize(
    spec: &ScenarioFile,
    hard: &[String],
    boundary: &[String],
    runner: &SweepRunner,
) -> (ScenarioFile, u64) {
    let n_events = spec.events.len();
    let total = n_events + spec.faults.len();
    let build = |keep: &[usize]| -> ScenarioFile {
        let mut s = spec.clone();
        s.events = keep
            .iter()
            .filter(|&&i| i < n_events)
            .map(|&i| spec.events[i].clone())
            .collect();
        s.faults = keep
            .iter()
            .filter(|&&i| i >= n_events)
            .map(|&i| spec.faults[i - n_events].clone())
            .collect();
        s
    };
    let matches = |ev: &Evaluation| -> bool { ev.hard == hard && ev.boundary == boundary };

    let mut evals = 0u64;
    let mut keep: Vec<usize> = (0..total).collect();
    let mut granularity = 2usize;
    while keep.len() >= 2 {
        granularity = granularity.min(keep.len());
        // Complements: drop one of `granularity` near-equal chunks.
        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(granularity);
        let base = keep.len() / granularity;
        let extra = keep.len() % granularity;
        let mut start = 0usize;
        for k in 0..granularity {
            let size = base + usize::from(k < extra);
            let mut c = Vec::with_capacity(keep.len() - size);
            c.extend_from_slice(&keep[..start]);
            c.extend_from_slice(&keep[start + size..]);
            candidates.push(c);
            start += size;
        }
        let specs: Vec<ScenarioFile> = candidates.iter().map(|c| build(c)).collect();
        evals += specs.len() as u64;
        let outcomes = runner.run(&specs, |_, spec| evaluate(spec));
        let hit = outcomes.iter().position(|r| r.as_ref().is_ok_and(&matches));
        match hit {
            Some(i) => {
                keep = std::mem::take(&mut candidates[i]);
                granularity = granularity.saturating_sub(1).max(2);
            }
            None if granularity < keep.len() => {
                granularity = (granularity * 2).min(keep.len());
            }
            None => break,
        }
    }
    (build(&keep), evals)
}

// ---------------------------------------------------------------------------
// Regression corpus
// ---------------------------------------------------------------------------

/// Optional metric assertions a corpus entry may pin alongside its
/// signature. Absent fields check nothing; present ones are exact or
/// one-sided bounds on the replayed run. Runs are deterministic, so
/// even exact pins are stable.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Checks {
    #[serde(default)]
    pub delivery_ratio_at_least: Option<f64>,
    #[serde(default)]
    pub delivery_ratio_at_most: Option<f64>,
    #[serde(default)]
    pub repairs_at_least: Option<u64>,
    #[serde(default)]
    pub repairs_at_most: Option<u64>,
    #[serde(default)]
    pub max_repair_latency_at_most: Option<u64>,
    #[serde(default)]
    pub takeovers: Option<u64>,
    #[serde(default)]
    pub m_router_at_end: Option<u32>,
    #[serde(default)]
    pub retransmissions_at_least: Option<u64>,
    #[serde(default)]
    pub channel_dropped_at_least: Option<u64>,
    #[serde(default)]
    pub members_reached_at_least: Option<usize>,
    #[serde(default)]
    pub nacks_sent_at_least: Option<u64>,
    #[serde(default)]
    pub recoveries_at_least: Option<u64>,
    #[serde(default)]
    pub partition_degraded_ticks_at_least: Option<u64>,
    #[serde(default)]
    pub reconciliations_at_least: Option<u64>,
}

/// What a corpus entry pins about its scenario's replay.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Expectation {
    /// Exact hard-violation signature (normally empty — a pinned hard
    /// failure documents a known-open bug).
    #[serde(default)]
    pub hard: Vec<String>,
    /// Exact boundary signature.
    #[serde(default)]
    pub boundary: Vec<String>,
    /// Optional metric bounds.
    #[serde(default)]
    pub checks: Option<Checks>,
}

/// One pinned regression scenario: a scenario file plus the verdict its
/// replay must reproduce exactly, forever.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CorpusEntry {
    /// File stem under `tests/scenarios/corpus/`.
    pub name: String,
    /// Where the entry came from (hand-ported test, search run, …).
    pub origin: String,
    /// The pinned verdict.
    pub expect: Expectation,
    /// The scenario itself (full `scenario_file` schema).
    pub scenario: ScenarioFile,
}

impl CorpusEntry {
    /// Parse an entry. Every section — wrapper, expectation, checks and
    /// the embedded scenario — rejects unknown keys by name.
    pub fn parse(json: &str) -> Result<CorpusEntry, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Replay the scenario and hold it to the pinned verdict. `Err`
    /// lists every mismatch at once.
    pub fn replay(&self) -> Result<Evaluation, String> {
        let ev = evaluate(&self.scenario).map_err(|e| format!("corpus {:?}: {e}", self.name))?;
        let mut bad = Vec::new();
        if ev.hard != self.expect.hard {
            bad.push(format!(
                "hard violations {:?} (pinned {:?})",
                ev.hard, self.expect.hard
            ));
        }
        if ev.boundary != self.expect.boundary {
            bad.push(format!(
                "boundary predicates {:?} (pinned {:?})",
                ev.boundary, self.expect.boundary
            ));
        }
        if let Some(c) = &self.expect.checks {
            let r = &ev.result;
            let mut check = |name: &str, ok: bool, got: String| {
                if !ok {
                    bad.push(format!("{name}: got {got}"));
                }
            };
            if let Some(v) = c.delivery_ratio_at_least {
                check(
                    "delivery_ratio_at_least",
                    r.delivery_ratio >= v,
                    r.delivery_ratio.to_string(),
                );
            }
            if let Some(v) = c.delivery_ratio_at_most {
                check(
                    "delivery_ratio_at_most",
                    r.delivery_ratio <= v,
                    r.delivery_ratio.to_string(),
                );
            }
            if let Some(v) = c.repairs_at_least {
                check("repairs_at_least", r.repairs >= v, r.repairs.to_string());
            }
            if let Some(v) = c.repairs_at_most {
                check("repairs_at_most", r.repairs <= v, r.repairs.to_string());
            }
            if let Some(v) = c.max_repair_latency_at_most {
                check(
                    "max_repair_latency_at_most",
                    r.max_repair_latency <= v,
                    r.max_repair_latency.to_string(),
                );
            }
            if let Some(v) = c.takeovers {
                check("takeovers", r.takeovers == v, r.takeovers.to_string());
            }
            if let Some(v) = c.m_router_at_end {
                check(
                    "m_router_at_end",
                    r.m_routers_at_end == vec![v],
                    format!("{:?}", r.m_routers_at_end),
                );
            }
            if let Some(v) = c.retransmissions_at_least {
                check(
                    "retransmissions_at_least",
                    r.retransmissions >= v,
                    r.retransmissions.to_string(),
                );
            }
            if let Some(v) = c.channel_dropped_at_least {
                check(
                    "channel_dropped_at_least",
                    r.channel_dropped >= v,
                    r.channel_dropped.to_string(),
                );
            }
            if let Some(v) = c.members_reached_at_least {
                check(
                    "members_reached_at_least",
                    ev.members_reached >= v,
                    ev.members_reached.to_string(),
                );
            }
            if let Some(v) = c.nacks_sent_at_least {
                check(
                    "nacks_sent_at_least",
                    r.nacks_sent >= v,
                    r.nacks_sent.to_string(),
                );
            }
            if let Some(v) = c.recoveries_at_least {
                check(
                    "recoveries_at_least",
                    r.recoveries >= v,
                    r.recoveries.to_string(),
                );
            }
            if let Some(v) = c.partition_degraded_ticks_at_least {
                check(
                    "partition_degraded_ticks_at_least",
                    r.partition_degraded_ticks >= v,
                    r.partition_degraded_ticks.to_string(),
                );
            }
            if let Some(v) = c.reconciliations_at_least {
                check(
                    "reconciliations_at_least",
                    r.reconciliations >= v,
                    r.reconciliations.to_string(),
                );
            }
        }
        if bad.is_empty() {
            Ok(ev)
        } else {
            Err(format!("corpus {:?}: {}", self.name, bad.join("; ")))
        }
    }
}

/// Build the corpus entry a boundary record pins.
pub fn corpus_entry(rec: &BoundaryRecord, search_seed: u64) -> CorpusEntry {
    CorpusEntry {
        name: rec.corpus_name.clone(),
        origin: format!(
            "stress search seed={search_seed}: {} boundary on {}, minimized from {} events + {} faults",
            rec.boundary.hard.iter().chain(&rec.boundary.boundary).cloned().collect::<Vec<_>>().join("+"),
            topo_name(rec.boundary.point.topo),
            synthesize(&rec.boundary.point).events.len(),
            synthesize(&rec.boundary.point).faults.len(),
        ),
        expect: Expectation {
            hard: rec.boundary.hard.clone(),
            boundary: rec.boundary.boundary.clone(),
            checks: None,
        },
        scenario: rec.minimized.clone(),
    }
}

/// Write `entries` under `dir` as `<name>.json`. Existing files are
/// left alone unless byte-identical is impossible and `force` is set —
/// a pinned reproducer must never drift silently. Returns one
/// `(file name, outcome)` line per entry.
pub fn pin_corpus(
    dir: &Path,
    entries: &[CorpusEntry],
    force: bool,
) -> Result<Vec<(String, &'static str)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        let file = format!("{}.json", e.name);
        let path = dir.join(&file);
        let mut body = serde_json::to_string_pretty(e).map_err(|x| x.to_string())?;
        body.push('\n');
        let outcome = match std::fs::read_to_string(&path) {
            Ok(cur) if cur == body => "unchanged",
            Ok(_) if !force => "exists with different content (kept; --force-pin overwrites)",
            _ => {
                std::fs::write(&path, body).map_err(|x| format!("write {path:?}: {x}"))?;
                "pinned"
            }
        };
        out.push((file, outcome));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The most hostile corner the smoke search can reach: maximal
    /// loss, ARQ off, repair scan off, hair-trigger watchdog.
    fn hostile() -> StressPoint {
        StressPoint {
            topo: FIG5,
            seed: 1,
            loss: 15,
            dup: 0,
            reorder: 0,
            flaps: 2,
            crash: false,
            churn: 1,
            retry: 4,
            repair: 4,
            tolerance: 5,
            partition: 3,
            outage: 0,
        }
    }

    fn benign() -> StressPoint {
        StressPoint {
            topo: FIG5,
            seed: 0,
            loss: 0,
            dup: 0,
            reorder: 0,
            flaps: 0,
            crash: false,
            churn: 0,
            retry: 0,
            repair: 1,
            tolerance: 0,
            partition: 0,
            outage: 0,
        }
    }

    #[test]
    fn generated_scenarios_validate_and_round_trip() {
        for p in [hostile(), benign()] {
            let json = serde_json::to_string(&synthesize(&p)).unwrap();
            let spec: ScenarioFile =
                serde_json::from_str(&json).expect("generator matches the schema");
            assert_eq!(
                serde_json::to_string(&spec).unwrap(),
                json,
                "round-trip must be identical"
            );
        }
    }

    #[test]
    fn benign_point_passes_the_oracle() {
        let ev = evaluate(&synthesize(&benign())).unwrap();
        assert!(ev.hard.is_empty(), "hard: {:?}", ev.hard);
        assert!(ev.boundary.is_empty(), "boundary: {:?}", ev.boundary);
        assert_eq!(ev.result.delivery_ratio, 1.0);
        assert_eq!(ev.members_reached, ev.members_expected);
    }

    #[test]
    fn hostile_point_fails_and_minimizes_with_the_same_signature() {
        let ev = evaluate(&synthesize(&hostile())).unwrap();
        assert!(
            ev.failed(),
            "30% loss with every recovery mechanism off must break something"
        );
        assert!(
            ev.hard.is_empty(),
            "hostility is not a protocol bug: {:?}",
            ev.hard
        );

        let spec = synthesize(&hostile());
        let runner = SweepRunner::new(2);
        let (min, spent) = minimize(&spec, &ev.hard, &ev.boundary, &runner);
        assert!(spent > 0);
        assert!(
            min.events.len() + min.faults.len() <= spec.events.len() + spec.faults.len(),
            "minimizer must never grow the schedule"
        );
        let replay = evaluate(&min).unwrap();
        assert_eq!(replay.hard, ev.hard, "minimization preserved the signature");
        assert_eq!(replay.boundary, ev.boundary);
    }

    #[test]
    fn smoke_search_is_jobs_invariant_and_finds_a_boundary() {
        let cfg = SearchConfig {
            seed: 1,
            warmup: 8,
            passes: 1,
            max_boundaries: 1,
            topologies: vec![FIG5],
        };
        let serial = search(&cfg, 1);
        let parallel = search(&cfg, 3);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "stress search must be byte-identical across worker counts"
        );
        assert!(
            serial.hard_failures.is_empty(),
            "hard invariant violations: {:?}",
            serial.hard_failures
        );
        assert!(
            !serial.boundaries.is_empty(),
            "an 8-point warm-up over this space always hits the envelope"
        );
        for b in &serial.boundaries {
            // The boundary point is on the envelope: it still fails…
            assert!(
                !b.boundary.hard.is_empty() || !b.boundary.boundary.is_empty(),
                "boundary point must fail"
            );
            // …and the minimized reproducer replays with that signature.
            let entry = corpus_entry(b, cfg.seed);
            entry.replay().expect("minimized reproducer replays");
        }
    }

    #[test]
    fn corpus_entry_round_trips_and_rejects_unknown_keys() {
        let entry = CorpusEntry {
            name: "unit".into(),
            origin: "unit test".into(),
            expect: Expectation {
                hard: vec![],
                boundary: vec![],
                checks: Some(Checks {
                    delivery_ratio_at_least: Some(1.0),
                    ..Checks::default()
                }),
            },
            scenario: synthesize(&benign()),
        };
        let json = serde_json::to_string_pretty(&entry).unwrap();
        let parsed = CorpusEntry::parse(&json).unwrap();
        assert_eq!(parsed.name, "unit");
        parsed.replay().expect("benign scenario meets its pins");

        let typo = json.replace("\"boundary\"", "\"boundry\"");
        let err = CorpusEntry::parse(&typo).unwrap_err();
        assert!(err.contains("boundry") && err.contains("expect"), "{err}");

        let deep = json.replace("\"run_until\"", "\"run_untill\"");
        let err = CorpusEntry::parse(&deep).unwrap_err();
        assert!(err.contains("run_untill"), "{err}");
    }

    #[test]
    fn failed_checks_name_every_mismatch() {
        let entry = CorpusEntry {
            name: "unit-bad".into(),
            origin: "unit test".into(),
            expect: Expectation {
                hard: vec![],
                boundary: vec!["delivery_incomplete".into()],
                checks: Some(Checks {
                    takeovers: Some(7),
                    ..Checks::default()
                }),
            },
            scenario: synthesize(&benign()),
        };
        let err = entry.replay().unwrap_err();
        assert!(err.contains("boundary predicates"), "{err}");
        assert!(err.contains("takeovers"), "{err}");
    }

    fn committed_scenario(json: &str) -> ScenarioFile {
        serde_json::from_str(json).expect("committed scenario parses")
    }

    /// A capacity model's overflowing queue is a recorded loss, not a
    /// bug: the run is not clean, so its imperfect delivery is only the
    /// envelope's edge.
    #[test]
    fn queue_drops_make_a_run_unclean() {
        let spec = committed_scenario(include_str!(
            "../../../examples/scenarios/congested_core.json"
        ));
        let ev = evaluate(&spec).unwrap();
        assert!(ev.result.queue_drops > 0 && ev.result.delivery_ratio < 1.0);
        assert!(ev.hard.is_empty(), "hard: {:?}", ev.hard);
        assert_eq!(ev.boundary, vec!["delivery_incomplete"]);
    }

    /// Every hard class fires on its own: a clean, perfect run of the
    /// Fig. 5 walkthrough, doctored one way per class, is judged guilty
    /// of exactly that class.
    #[test]
    fn each_doctored_run_fires_exactly_its_hard_class() {
        let spec = committed_scenario(include_str!(
            "../../../examples/scenarios/fig5_walkthrough.json"
        ));
        let traced = || run_one(&spec, true).unwrap();
        let clean = judge(&spec, &traced()).unwrap();
        assert!(clean.hard.is_empty() && clean.boundary.is_empty());

        // Rewrite the trace's first `deliver_local` line with `edit`.
        let doctor_trace = |edit: fn(&str) -> String| {
            let mut run = traced();
            let line = run
                .trace
                .lines()
                .find(|l| l.contains("\"deliver_local\""))
                .expect("the walkthrough delivers")
                .to_string();
            run.trace = run.trace.replacen(&format!("{line}\n"), &edit(&line), 1);
            run
        };
        let cases = [
            (
                doctor_trace(|l| format!("{l}\n{l}\n")),
                "duplicate_delivery",
                vec![],
            ),
            (doctor_trace(|_| String::new()), "unaccounted_loss", vec![]),
            (
                {
                    let mut run = traced();
                    run.result.m_routers_at_end = vec![0, 1];
                    run
                },
                "split_brain",
                vec!["dual_mrouter_at_end"],
            ),
            (
                {
                    let mut run = traced();
                    run.result.delivery_ratio = 0.5;
                    run
                },
                "clean_run_imperfect",
                vec!["delivery_incomplete"],
            ),
        ];
        for (run, class, boundary) in cases {
            let ev = judge(&spec, &run).unwrap();
            assert_eq!(ev.hard, vec![class]);
            assert_eq!(ev.boundary, boundary, "{class}");
        }
    }
}
