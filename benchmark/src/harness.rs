//! One iteration: for every cell of a plan, build the engine, install
//! the inputs, run it to completion in `run_until` slices, and check
//! what came out. The engine is driven only through its stable surface
//! (`build_scmp_engine`/`ScmpDomain::new` + `Engine::new`, `set_channel`,
//! `set_sink`, `schedule_fault_plan`, `schedule_app`, `run_until`,
//! `stats`, `router`, `node_is_up`, `peak_queue_depth`).

use crate::spans::{self, Name};
use crate::timed::Timed;
use crate::workloads::{Cell, Cut, Fnv, OpKind, Plan};
use scmp_core::router::ScmpDomain;
use scmp_core::ScmpRouter;
use scmp_protocols::build_scmp_engine;
use scmp_sim::{AppEvent, ChannelModel, Engine, JsonlSink, RingSink, Router};
use std::collections::BTreeSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// How an iteration's engines are instrumented.
#[derive(Clone)]
pub enum Mode {
    /// Bare `ScmpRouter`, `NullSink`, the sparse slicing (every join,
    /// some 64 slices per cell): what every end-to-end figure is
    /// measured on.
    Plain,
    /// `Timed<ScmpRouter>` and a slice per op and fault tick, recording
    /// spans.
    Traced,
    /// Bare router with a 64 Ki-event `RingSink`.
    Ring,
    /// Bare router with a `JsonlSink` into a writer that counts lines
    /// (into the shared counter) and discards them.
    Jsonl(Arc<AtomicU64>),
}

/// A plan plus its slicing, computed once and replayed every iteration.
pub struct Prepared {
    pub plan: Plan,
    sparse: Vec<Vec<Cut>>,
    full: Vec<Vec<Cut>>,
    /// Scheduled inputs per iteration (see [`Plan::ops`]).
    pub ops: u64,
    /// What each entry of a plain iteration's `segment_ns` timed.
    pub segments: Vec<Name>,
}

impl Prepared {
    pub fn new(plan: Plan) -> Self {
        let full: Vec<Vec<Cut>> = plan.cells.iter().map(Cell::cuts).collect();
        let sparse: Vec<Vec<Cut>> = plan
            .cells
            .iter()
            .zip(&full)
            .map(|(cell, all)| cell.sparse_cuts(all))
            .collect();
        let segments = sparse
            .iter()
            .flat_map(|cuts| {
                [Name::EngineBuild]
                    .into_iter()
                    .chain(cuts.iter().map(|c| c.label))
                    .chain([Name::EngineDrop])
            })
            .collect();
        Prepared {
            sparse,
            full,
            ops: plan.ops(),
            segments,
            plan,
        }
    }
}

/// What one iteration produced.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Hash of the model-visible outcome; identical across iterations,
    /// modes and hosts for one (code, seed).
    pub digest: u64,
    pub events: u64,
    /// Ops that failed: a verified payload missing at (or duplicated
    /// to) a member, a final member without a routing entry, a domain
    /// that does not end with exactly one m-router.
    pub failed: u64,
    /// Broken workload promises (see `Rules`); any makes the run
    /// incorrect.
    pub violations: Vec<String>,
    /// Host nanoseconds of every timed segment, in plan order: per
    /// cell, the engine build, each `run_until` slice, the engine drop.
    /// The benchmark's own checks are outside them.
    pub segment_ns: Vec<u64>,
    pub expected: u64,
    pub delivered: u64,
    pub channel_drops: u64,
    pub retransmissions: u64,
    pub nacks_sent: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub takeovers: u64,
    pub peak_queue: u64,
}

/// What repeated iterations of one kind took: every raw iteration time
/// and the per-segment floors.
///
/// Iterations replay identical work, so whatever separates two timings
/// of one segment is the host, and the host only ever adds time: a
/// segment's fastest time is its cost on an undisturbed machine, and
/// the sum of those floors is the iteration's. The finer the segments,
/// the likelier each meets a quiet moment in some iteration.
#[derive(Default)]
pub struct Timings {
    /// Host seconds of each iteration folded in, in order.
    pub iterations: Vec<f64>,
    /// Fastest time of each segment so far, in nanoseconds.
    pub floors: Vec<u64>,
}

impl Timings {
    pub fn fold(&mut self, it: &Iteration) {
        self.iterations.push(it.seconds());
        if self.floors.is_empty() {
            self.floors = it.segment_ns.clone();
        }
        assert_eq!(
            self.floors.len(),
            it.segment_ns.len(),
            "iterations segment alike"
        );
        for (floor, &ns) in self.floors.iter_mut().zip(&it.segment_ns) {
            *floor = (*floor).min(ns);
        }
    }

    /// Seconds one iteration takes when nothing disturbs it.
    pub fn floor_s(&self) -> f64 {
        self.floors.iter().sum::<u64>() as f64 / 1e9
    }
}

impl Iteration {
    /// Host seconds of engine build + run + drop over all cells.
    pub fn seconds(&self) -> f64 {
        self.segment_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Lets the checks read SCMP state through either router type.
pub trait AsScmp {
    fn scmp(&self) -> &ScmpRouter;
}

impl AsScmp for ScmpRouter {
    fn scmp(&self) -> &ScmpRouter {
        self
    }
}

impl AsScmp for Timed<ScmpRouter> {
    fn scmp(&self) -> &ScmpRouter {
        &self.0
    }
}

/// Discards what it is given, counting the lines.
struct LineCounter(Arc<AtomicU64>);

impl io::Write for LineCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.0.fetch_add(lines as u64, Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Run every cell of the plan once.
pub fn run_iteration(prep: &Prepared, mode: &Mode) -> Iteration {
    let mut it = Iteration::default();
    let mut digest = Fnv::new();
    let _span = spans::scope(match mode {
        Mode::Plain => Name::IterPlain,
        Mode::Traced => Name::IterTraced,
        Mode::Ring => Name::IterRing,
        Mode::Jsonl(_) => Name::IterJsonl,
    });
    for (i, cell) in prep.plan.cells.iter().enumerate() {
        match mode {
            Mode::Traced => {
                // The two calls `build_scmp_engine` makes, with the
                // router wrapped.
                let build = || {
                    let domain = ScmpDomain::new((*cell.topo).clone(), cell.config.clone());
                    Engine::new(domain.topo.clone(), move |me, _, _| {
                        Timed(ScmpRouter::new(me, Arc::clone(&domain)))
                    })
                };
                run_cell(build, cell, &prep.full[i], true, &mut it, &mut digest);
            }
            _ => {
                let build = || {
                    let mut e = build_scmp_engine((*cell.topo).clone(), cell.config.clone());
                    match mode {
                        Mode::Ring => e.set_sink(Box::new(RingSink::new(1 << 16))),
                        Mode::Jsonl(lines) => {
                            e.set_sink(Box::new(JsonlSink::new(LineCounter(Arc::clone(lines)))))
                        }
                        _ => {}
                    }
                    e
                };
                run_cell(build, cell, &prep.sparse[i], false, &mut it, &mut digest);
            }
        }
    }
    check_rules(&prep.plan, &mut it);
    it.digest = digest.finish();
    it
}

fn run_cell<R: Router + AsScmp>(
    build: impl FnOnce() -> Engine<R>,
    cell: &Cell,
    cuts: &[Cut],
    traced: bool,
    it: &mut Iteration,
    digest: &mut Fnv,
) {
    let mut clock = Instant::now();
    // Close the segment that began at the last lap (or restart).
    let lap = |clock: &mut Instant, it: &mut Iteration| {
        let now = Instant::now();
        it.segment_ns.push((now - *clock).as_nanos() as u64);
        *clock = now;
    };
    let mut e = {
        let _span = spans::scope(Name::EngineBuild);
        let mut e = build();
        e.schedule_fault_plan(&cell.faults);
        for op in &cell.ops {
            let ev = match op.kind {
                OpKind::Join => AppEvent::Join(op.group),
                OpKind::Leave => AppEvent::Leave(op.group),
                OpKind::Send { tag, .. } => AppEvent::Send {
                    group: op.group,
                    tag,
                },
            };
            e.schedule_app(op.time, op.node, ev);
        }
        e
    };
    lap(&mut clock, it);

    let mut events = 0;
    for (i, cut) in cuts.iter().enumerate() {
        let until = cuts
            .get(i + 1)
            .map_or(cell.end.unwrap_or(u64::MAX), |next| next.tick - 1);
        if let Some(loss) = cell.loss.filter(|loss| loss.from == cut.tick) {
            e.set_channel(ChannelModel::uniform_loss(loss.drop, loss.seed));
        }
        let mut label = cut.label;
        if traced && label == Name::SliceSendOnTree {
            let op = &cell.ops[cut.op.expect("send slices carry their op") as usize];
            if e.router(op.node).scmp().entry(op.group).is_none() {
                label = Name::SliceSendEncap;
            }
        }
        let span = spans::scope(label);
        events += e.run_until(until);
        drop(span);
        lap(&mut clock, it);
    }

    {
        let _span = spans::scope(Name::Check);
        check_cell(&e, cell, events, it, digest);
    }
    clock = Instant::now();
    {
        let _span = spans::scope(Name::EngineDrop);
        drop(e);
    }
    lap(&mut clock, it);
}

fn check_cell<R: Router + AsScmp>(
    e: &Engine<R>,
    cell: &Cell,
    events: u64,
    it: &mut Iteration,
    digest: &mut Fnv,
) {
    let stats = e.stats();
    digest.put(&[
        events,
        stats.data_overhead,
        stats.protocol_overhead,
        stats.data_hops,
        stats.control_hops,
        stats.drops,
        stats.distinct_deliveries() as u64,
        stats.max_end_to_end_delay,
        stats.retransmissions,
        stats.repairs,
        stats.nacks_sent,
        stats.recoveries,
    ]);
    it.events += events;
    it.channel_drops += stats.channel_dropped;
    it.retransmissions += stats.retransmissions;
    it.nacks_sent += stats.nacks_sent;
    it.cache_hits += stats.repair_cache_hits;
    it.cache_misses += stats.repair_cache_misses;
    it.takeovers += stats.takeovers;
    it.peak_queue = it.peak_queue.max(e.peak_queue_depth() as u64);

    // Payloads: every verified one at every member exactly once, and no
    // payload at all — verified or not — anywhere twice.
    let mut bad_payloads = BTreeSet::new();
    for op in &cell.ops {
        let OpKind::Send {
            tag,
            expect: Some(set),
        } = op.kind
        else {
            continue;
        };
        for &m in &cell.member_sets[set as usize] {
            it.expected += 1;
            match stats.delivery_count(op.group, tag, m) {
                1 => it.delivered += 1,
                0 => {
                    bad_payloads.insert((op.group, tag));
                }
                _ => {
                    it.delivered += 1;
                    bad_payloads.insert((op.group, tag));
                }
            }
        }
    }
    for (group, tag, _) in stats.duplicate_deliveries() {
        bad_payloads.insert((group, tag));
    }
    it.failed += bad_payloads.len() as u64;

    // Joins: every DR that is a member at the end holds tree state.
    for (group, members) in &cell.final_members {
        it.failed += members
            .iter()
            .filter(|&&m| e.router(m).scmp().entry(*group).is_none())
            .count() as u64;
    }

    let roots = cell
        .topo
        .nodes()
        .filter(|&v| e.node_is_up(v) && e.router(v).scmp().is_m_router())
        .count();
    if roots != 1 {
        it.failed += 1;
        it.violations
            .push(format!("{roots} m-routers at the end, expected 1"));
    }
}

fn check_rules(plan: &Plan, it: &mut Iteration) {
    let rules = plan.rules;
    if rules.quiet_control_plane && (it.retransmissions > 0 || it.channel_drops > 0) {
        it.violations.push(format!(
            "quiet control plane retransmitted {} and lost {} packets",
            it.retransmissions, it.channel_drops
        ));
    }
    let ratio = if it.expected == 0 {
        1.0
    } else {
        it.delivered as f64 / it.expected as f64
    };
    if ratio < rules.min_delivery {
        it.violations.push(format!(
            "delivery {ratio:.5} below the workload's floor {}",
            rules.min_delivery
        ));
    }
    if !rules.takeover_allowed && it.takeovers > 0 {
        it.violations
            .push(format!("{} spurious standby takeovers", it.takeovers));
    }
}
