//! The five workloads and the plan vocabulary they share.
//!
//! A workload turns `(seed, quick)` into a [`Plan`]: one or more
//! [`Cell`]s, each a topology, an [`ScmpConfig`], a channel, a fault
//! plan and a time-ordered list of scheduled inputs ([`Op`]s). The
//! program under test only ever receives these generated inputs; the
//! harness replays one plan identically on every iteration.

mod fault_storm;
mod lossy_reliable;
mod paper_fig;
mod stream;
mod zipf_churn;

use crate::spans::Name;
use rand::Rng;
use scmp_core::ScmpConfig;
use scmp_net::{dijkstra, Metric, NodeId, Topology};
use scmp_sim::{FaultPlan, GroupId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registered workload.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why the workload exists: the mechanism it isolates.
    pub why: &'static str,
    /// Generate the plan. Pure in `seed`; `quick` shrinks sizes for CI.
    pub build: fn(seed: u64, quick: bool) -> Plan,
}

/// Every workload, in report order.
pub const ALL: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "paper_fig",
        why: "the paper's Fig. 8/9 cells at n<=50: eager all-pairs and Engine::new dominate, so it is the bypass workload for every large-n optimisation",
        build: paper_fig::build,
    },
    WorkloadDef {
        name: "zipf_churn_10k",
        why: "10k-node transit-stub, 32 Zipf groups, 4:1 join/leave churn: DCDM tree build and the on-demand path provider do most of the work",
        build: zipf_churn::build,
    },
    WorkloadDef {
        name: "stream_1k",
        why: "1k-node transit-stub, 8x32 members, 6000 sends on-tree then encapsulated: per-packet cost (queue, send, dedup, delivery accounting) dominates",
        build: stream::build,
    },
    WorkloadDef {
        name: "fault_storm_370",
        why: "370-node transit-stub under a flap storm then a partition and heal: route reconvergence per link event dominates, tree and data plane do not",
        build: fault_storm::build,
    },
    WorkloadDef {
        name: "lossy_reliable",
        why: "the chaos ARPANET cell at 10% loss with the reliable tier on: channel rolls, NACK and announce timers, repair caches and the repair scan carry the run",
        build: lossy_reliable::build,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    ALL.iter().find(|w| w.name == name)
}

/// What a scheduled input asks its designated router to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Join,
    Leave,
    Send {
        tag: u64,
        /// Index into [`Cell::member_sets`] of the members that must
        /// each receive the payload exactly once; `None` when the send
        /// is only held to "never twice" (mid-fault traffic).
        expect: Option<u32>,
    },
}

/// One scheduled input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub time: u64,
    pub node: NodeId,
    pub group: GroupId,
    pub kind: OpKind,
}

/// One engine's worth of inputs.
pub struct Cell {
    pub topo: Arc<Topology>,
    pub config: ScmpConfig,
    /// A lossy channel installed mid-run.
    pub loss: Option<Loss>,
    /// Scheduled faults, families unexpanded (the engine expands them).
    pub faults: FaultPlan,
    /// Scheduled inputs, ascending in time.
    pub ops: Vec<Op>,
    /// Receiver sets referenced by [`OpKind::Send::expect`].
    pub member_sets: Vec<Vec<NodeId>>,
    /// Membership once every op has run: each listed DR must hold a
    /// routing entry for its group at the end.
    pub final_members: Vec<(GroupId, Vec<NodeId>)>,
    /// Length of a join's `run_until` slice: long enough for the whole
    /// JOIN → DCDM → TREE/BRANCH → ack conversation.
    pub join_window: u64,
    /// `run_until` deadline; `None` runs to quiescence (no perpetual
    /// timers armed).
    pub end: Option<u64>,
}

/// Builds a cell's op list front to back: each op lands at the cursor,
/// which then advances by the op's spacing.
pub struct Schedule {
    pub ops: Vec<Op>,
    /// Tick the next op lands on.
    pub t: u64,
    next_tag: u64,
}

impl Schedule {
    /// An empty schedule whose first op lands on tick 1 (tick 0 is the
    /// slice that holds `on_start`).
    pub fn new() -> Self {
        Schedule {
            ops: Vec::new(),
            t: 1,
            next_tag: 1,
        }
    }

    pub fn join(&mut self, node: NodeId, group: GroupId, spacing: u64) {
        self.push(node, group, OpKind::Join, spacing);
    }

    pub fn leave(&mut self, node: NodeId, group: GroupId, spacing: u64) {
        self.push(node, group, OpKind::Leave, spacing);
    }

    /// Send the next payload tag (tags count up from 1 per cell).
    pub fn send(&mut self, node: NodeId, group: GroupId, expect: Option<u32>, spacing: u64) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.push(node, group, OpKind::Send { tag, expect }, spacing);
    }

    fn push(&mut self, node: NodeId, group: GroupId, kind: OpKind, spacing: u64) {
        self.ops.push(Op {
            time: self.t,
            node,
            group,
            kind,
        });
        self.t += spacing;
    }
}

/// Uniform per-link loss from tick `from` on. Membership converges on a
/// perfect channel first: a JOIN series that exhausts its retry budget
/// would strand a member for the whole run, and the workloads promise
/// that no operation fails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Loss {
    pub drop: f64,
    pub seed: u64,
    pub from: u64,
}

/// What the workload promises about a correct run.
#[derive(Clone, Copy, Debug)]
pub struct Rules {
    /// Perfect channel and no faults: nothing may be retransmitted or
    /// dropped by the channel.
    pub quiet_control_plane: bool,
    /// Lowest acceptable share of expected deliveries that arrived.
    pub min_delivery: f64,
    /// A standby may legitimately promote itself (partitions).
    pub takeover_allowed: bool,
}

/// A workload's generated inputs.
pub struct Plan {
    pub cells: Vec<Cell>,
    pub rules: Rules,
    /// Host seconds spent inside the topology generators.
    pub topo_build_s: f64,
}

impl Plan {
    /// Scheduled inputs per iteration: joins, leaves, sends and
    /// primitive link/router fault events. The numerator of
    /// `ops_per_s`; fixed by the workload, so a change that removes
    /// engine events is not punished.
    pub fn ops(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| (c.ops.len() + c.fault_ticks().len()) as u64)
            .sum()
    }

    /// A hash of every generated input (topologies, configs, channels,
    /// faults, ops): equal seeds must give equal hashes.
    pub fn schedule_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.cells {
            for &(a, b, w) in c.topo.edges() {
                h.put(&[a.0 as u64, b.0 as u64, w.delay, w.cost]);
            }
            h.put(&[
                c.config.m_router.0 as u64,
                c.config.standby.map_or(u64::MAX, |s| s.0 as u64),
                c.config.join_retry,
                c.config.repair_interval,
                c.config.heartbeat_interval,
                c.config.reliability.is_some() as u64,
                c.join_window,
                c.end.unwrap_or(u64::MAX),
            ]);
            if let Some(loss) = c.loss {
                h.put(&[loss.drop.to_bits(), loss.seed, loss.from]);
            }
            for t in c.fault_ticks() {
                h.put(&[t]);
            }
            for op in &c.ops {
                let kind = match op.kind {
                    OpKind::Join => 1,
                    OpKind::Leave => 2,
                    OpKind::Send { tag, expect } => {
                        h.put(&[tag, expect.map_or(u64::MAX, u64::from)]);
                        3
                    }
                };
                h.put(&[op.time, op.node.0 as u64, op.group.0 as u64, kind]);
            }
        }
        h.finish()
    }
}

/// A boundary between two `run_until` slices: everything from `tick`
/// up to the next cut runs under `label`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    pub tick: u64,
    /// Sends are listed as [`Name::SliceSendOnTree`]; the traced pass
    /// relabels one [`Name::SliceSendEncap`] when, at `tick`, the source
    /// holds no routing entry for the group.
    pub label: Name,
    /// The op that gave the slice its label (index into [`Cell::ops`]).
    pub op: Option<u32>,
}

/// Besides the joins, the end-to-end pass cuts a cell's run into about
/// this many slices, each timed on its own: the finer the pieces, the
/// likelier each meets a quiet moment of the host in some iteration.
const SPARSE_SEGMENTS: usize = 64;

fn rank(label: Name) -> u8 {
    match label {
        Name::SliceFault => 4,
        Name::SliceJoin => 3,
        Name::SliceLeave => 2,
        Name::SliceSendOnTree => 1,
        _ => 0,
    }
}

impl Cell {
    /// Tick of every primitive fault event, ascending (one entry per
    /// event, so a partition of 40 links lists its cut tick 40 times).
    pub fn fault_ticks(&self) -> Vec<u64> {
        let mut ticks: Vec<u64> = self
            .faults
            .expand(&self.topo)
            .expect("generated fault plans are valid")
            .iter()
            .map(|f| f.time)
            .collect();
        ticks.sort_unstable();
        ticks
    }

    /// Where the traced pass cuts the run into slices: at every op and
    /// around every fault tick. Slices tile the run from tick 0, and
    /// slicing never changes what the engine computes — `run_until` is
    /// resumable by construction.
    pub fn cuts(&self) -> Vec<Cut> {
        let mut marks: BTreeMap<u64, (Name, Option<u32>)> = BTreeMap::new();
        let mut mark = |tick: u64, label: Name, op: Option<u32>| {
            let slot = marks.entry(tick).or_insert((label, op));
            if rank(label) > rank(slot.0) {
                *slot = (label, op);
            }
        };
        mark(0, Name::SliceIdle, None);
        for (i, op) in self.ops.iter().enumerate() {
            let label = match op.kind {
                OpKind::Join => Name::SliceJoin,
                OpKind::Leave => Name::SliceLeave,
                OpKind::Send { .. } => Name::SliceSendOnTree,
            };
            mark(op.time, label, Some(i as u32));
            if op.kind == OpKind::Join {
                mark(op.time + self.join_window, Name::SliceIdle, None);
            }
        }
        for t in self.fault_ticks() {
            mark(t, Name::SliceFault, None);
            mark(t + 1, Name::SliceIdle, None);
        }
        if let Some(loss) = self.loss {
            mark(loss.from, Name::SliceIdle, None);
        }
        marks
            .into_iter()
            .map(|(tick, (label, op))| Cut { tick, label, op })
            .collect()
    }

    /// Where the end-to-end pass cuts: of `all` (this cell's
    /// [`cuts`](Self::cuts)), what bounds a join's slice, where the loss
    /// starts, and every n-th cut besides.
    pub fn sparse_cuts(&self, all: &[Cut]) -> Vec<Cut> {
        let stride = all.len().div_ceil(SPARSE_SEGMENTS);
        all.iter()
            .enumerate()
            .filter(|&(i, c)| {
                i % stride == 0
                    || c.label == Name::SliceJoin
                    || all[i - 1].label == Name::SliceJoin
                    || self.loss.is_some_and(|loss| loss.from == c.tick)
            })
            .map(|(_, &c)| c)
            .collect()
    }
}

/// FNV-1a over `u64` words: the digest and schedule-hash primitive.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn put(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Farthest shortest-delay distance from `center`: the propagation
/// horizon every timescale of a generated schedule is a multiple of.
pub fn delay_horizon(topo: &Topology, center: NodeId) -> u64 {
    let spt = dijkstra(topo, center, Metric::Delay);
    topo.nodes()
        .filter_map(|v| spt.distance(v))
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Transit–stub shape `(transit, stubs per transit, stub size)` with
/// exactly `10·(1 + 9k)` nodes: 100, 370, 1 000 and 10 000 are on the
/// grid.
pub fn transit_stub_shape(nodes: usize) -> (usize, usize, usize) {
    let k = (nodes / 10).saturating_sub(1).div_ceil(9).max(1);
    (10, 9, k)
}

/// Grid side for generated topologies (the paper's §IV value).
pub const GRID: i64 = 32_767;

/// Zipf sampler over ranks `0..n`, popularity ∝ `1/(rank+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1);
        let mut cdf: Vec<f64> = (1..=n)
            .scan(0.0, |acc, k| {
                *acc += 1.0 / (k as f64).powf(s);
                Some(*acc)
            })
            .collect();
        let total = cdf[n - 1];
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Split `total` draws over the ranks in exact proportion to their
    /// popularity (largest remainders first, ties to the lower rank):
    /// what `total` samples tend to, without the multinomial noise.
    pub fn apportion(&self, total: usize) -> Vec<usize> {
        let share = |k: usize| self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] };
        let quotas: Vec<f64> = (0..self.cdf.len())
            .map(|k| share(k) * total as f64)
            .collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let (ra, rb) = (quotas[a].fract(), quotas[b].fract());
            rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
        });
        let left = total - counts.iter().sum::<usize>();
        for &k in &by_remainder[..left] {
            counts[k] += 1;
        }
        counts
    }
}

/// Draw `count` distinct nodes of `0..n`, none equal to `exclude`, in
/// draw order.
pub fn draw_distinct(rng: &mut impl Rng, n: usize, count: usize, exclude: NodeId) -> Vec<NodeId> {
    assert!(count < n, "cannot draw {count} distinct nodes from {n}");
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let v = NodeId(rng.gen_range(0..n as u32));
        if v != exclude && !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

/// `ScmpConfig` for a loss-free, fault-free domain whose JOIN/LEAVE
/// retry timers sit beyond any round trip (`3 × horizon`), so a correct
/// run never retransmits.
pub fn quiet_config(m_router: NodeId, horizon: u64) -> ScmpConfig {
    let mut config = ScmpConfig::new(m_router);
    config.join_retry = 3 * horizon;
    config.leave_retry = 3 * horizon;
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::rng::rng_for;

    #[test]
    fn schedules_are_pure_in_the_seed() {
        for w in &ALL {
            let a = (w.build)(1, true);
            let b = (w.build)(1, true);
            let c = (w.build)(2, true);
            assert_eq!(a.schedule_hash(), b.schedule_hash(), "{}", w.name);
            assert_ne!(a.schedule_hash(), c.schedule_hash(), "{}", w.name);
            assert_eq!(a.ops(), b.ops(), "{}", w.name);
            assert!(a.ops() > 0);
        }
    }

    #[test]
    fn ops_are_time_ordered_and_joins_have_their_window() {
        for w in &ALL {
            let plan = (w.build)(3, true);
            for cell in &plan.cells {
                assert!(
                    cell.ops.windows(2).all(|p| p[0].time <= p[1].time),
                    "{}",
                    w.name
                );
                assert!(cell.ops.first().is_some_and(|op| op.time >= 1));
                let cuts = cell.cuts();
                assert_eq!(cuts[0].tick, 0);
                assert!(cuts.windows(2).all(|p| p[0].tick < p[1].tick));
                // A join's slice runs its full window: the next cut is
                // exactly one window later.
                for (i, cut) in cuts.iter().enumerate() {
                    if cut.label == Name::SliceJoin {
                        assert_eq!(
                            cuts[i + 1].tick,
                            cut.tick + cell.join_window,
                            "{}: join at {} shares its window",
                            w.name,
                            cut.tick
                        );
                    }
                }
                let sparse = cell.sparse_cuts(&cuts);
                let joins = |cs: &[Cut]| cs.iter().filter(|c| c.label == Name::SliceJoin).count();
                assert_eq!(joins(&sparse), joins(&cuts));
                assert!(sparse.len() <= cuts.len());
            }
        }
    }

    #[test]
    fn zipf_is_rank_ordered() {
        let z = Zipf::new(8, 1.0);
        let mut rng = rng_for("bench-zipf-test", 7);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[3] && counts[3] > counts[7]);
        // Rank 0 of Zipf(1.0) over 8 ranks carries 1/H_8 = 36.8 %.
        assert!(
            (counts[0] as f64 / 4000.0 - 0.368).abs() < 0.03,
            "{counts:?}"
        );

        // The exact split: sums to the total, never rises with rank,
        // and rank 0 of 32 gets 1000/H_32 = 246.4 -> 246.
        let split = Zipf::new(32, 1.0).apportion(1_000);
        assert_eq!(split.iter().sum::<usize>(), 1_000);
        assert!(split.windows(2).all(|p| p[0] >= p[1]), "{split:?}");
        assert_eq!((split[0], split[1], split[31]), (246, 123, 8));
    }

    #[test]
    fn transit_stub_shapes_hit_their_sizes() {
        for nodes in [100, 370, 1_000, 10_000] {
            let (t, s, k) = transit_stub_shape(nodes);
            assert_eq!(t * (1 + s * k), nodes);
        }
    }

    #[test]
    fn distinct_draws_exclude_and_do_not_repeat() {
        let mut rng = rng_for("bench-draw-test", 1);
        let picked = draw_distinct(&mut rng, 12, 11, NodeId(5));
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 11);
        assert!(!picked.contains(&NodeId(5)));
    }
}
