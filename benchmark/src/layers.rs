//! Per-layer figures: what a traced iteration's spans say about `sim`
//! and `core`, and the probes that measure `tree` and `net` directly —
//! the membership sequence replayed straight into DCDM on a provider
//! the benchmark owns, no engine involved.

use crate::spans::{self, Name, Span};
use crate::stats;
use crate::workloads::{OpKind, Plan};
use scmp_net::{dijkstra, provider_for, Metric, NodeId, OnDemandPaths, PathProvider};
use scmp_sim::GroupId;
use scmp_tree::{Dcdm, MulticastTree};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const NAMES: usize = Name::ALL.len();

/// Span totals of one iteration, by name.
pub struct TraceSummary {
    total_ns: [u64; NAMES],
    self_ns: [u64; NAMES],
    count: [u64; NAMES],
    leave_ns: Vec<f64>,
}

impl TraceSummary {
    /// Summarise the spans stamped `iter` (self times need the whole
    /// recording: a span's children may be anywhere after it).
    pub fn new(spans: &[Span], iter: u32) -> Self {
        let own = spans::self_times(spans);
        let mut s = TraceSummary {
            total_ns: [0; NAMES],
            self_ns: [0; NAMES],
            count: [0; NAMES],
            leave_ns: Vec::new(),
        };
        for (span, own) in spans.iter().zip(own).filter(|(s, _)| s.iter == iter) {
            let i = span.name as usize;
            s.total_ns[i] += span.dur_ns();
            s.self_ns[i] += own;
            s.count[i] += 1;
            if span.name == Name::PktLeave {
                s.leave_ns.push(span.dur_ns() as f64);
            }
        }
        s
    }

    fn total_s(&self, names: impl IntoIterator<Item = Name>) -> f64 {
        names
            .into_iter()
            .map(|n| self.total_ns[n as usize])
            .sum::<u64>() as f64
            / 1e9
    }

    fn all(pred: impl Fn(Name) -> bool) -> impl Iterator<Item = Name> {
        Name::ALL.iter().copied().filter(move |&n| pred(n))
    }

    pub fn count(&self, name: Name) -> u64 {
        self.count[name as usize]
    }

    /// Handler spans recorded.
    pub fn handler_calls(&self) -> u64 {
        Self::all(Name::is_handler).map(|n| self.count(n)).sum()
    }

    /// Self time of the slices that hold no fault tick: the engine's own
    /// loop — queue, transport, dispatch — with the handlers taken out.
    pub fn engine_self_s(&self) -> f64 {
        Self::all(|n| n.is_slice() && n != Name::SliceFault)
            .map(|n| self.self_ns[n as usize])
            .sum::<u64>() as f64
            / 1e9
    }

    /// Self time of the slices around fault ticks: fault application.
    pub fn fault_apply_s(&self) -> f64 {
        self.self_ns[Name::SliceFault as usize] as f64 / 1e9
    }

    /// Wall seconds of the iteration.
    pub fn iteration_s(&self) -> f64 {
        self.total_s(Self::all(Name::is_iteration))
    }

    /// Seconds under program-layer spans: engine build plus every
    /// `run_until` slice (handlers, DCDM and the repair scan nest inside
    /// the slices). Check and engine drop are the benchmark's.
    pub fn covered_s(&self) -> f64 {
        self.total_s(Self::all(Name::is_slice).chain([Name::EngineBuild]))
    }

    /// The time-valued per-layer figures this iteration supports, by
    /// metric name. `events` is the iteration's engine event count.
    pub fn timed_metrics(&self, events: u64) -> BTreeMap<&'static str, f64> {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let data_calls = self.count(Name::PktData) + self.count(Name::PktEncapData);
        let data_s = self.total_s([Name::PktData, Name::PktEncapData]);
        let rate = |slice: Name| {
            let s = self.total_s([slice]);
            if s == 0.0 {
                0.0
            } else {
                self.count(slice) as f64 / s
            }
        };
        let iteration_s = self.iteration_s();
        BTreeMap::from([
            ("sim.engine_build_s", self.total_s([Name::EngineBuild])),
            ("sim.engine_self_s", self.engine_self_s()),
            (
                "sim.engine_self_ns_per_event",
                per(self.engine_self_s() * 1e9, events),
            ),
            ("sim.fault_apply_s", self.fault_apply_s()),
            ("core.on_packet_s", self.total_s(Self::all(Name::is_packet))),
            ("core.on_timer_s", self.total_s([Name::OnTimer])),
            (
                "core.on_app_s",
                self.total_s([Name::OnAppJoin, Name::OnAppLeave, Name::OnAppSend]),
            ),
            ("core.join_handler_s", self.total_s([Name::PktJoin])),
            (
                "core.tree_branch_handler_s",
                self.total_s([
                    Name::PktTree,
                    Name::PktBranch,
                    Name::PktFlush,
                    Name::PktTreeAck,
                    Name::PktPrune,
                ]),
            ),
            ("core.data_handler_s", data_s),
            (
                "core.reliability_handler_s",
                self.total_s([Name::PktNack, Name::PktRepair, Name::PktSeqAnnounce]),
            ),
            ("core.data_ns_per_hop", per(data_s * 1e9, data_calls)),
            ("core.on_tree_sends_per_s", rate(Name::SliceSendOnTree)),
            ("core.encap_sends_per_s", rate(Name::SliceSendEncap)),
            (
                "core.leave_p50_us",
                if self.leave_ns.is_empty() {
                    0.0
                } else {
                    stats::median(&self.leave_ns) / 1e3
                },
            ),
            (
                "trace.coverage_pct",
                if iteration_s == 0.0 {
                    0.0
                } else {
                    100.0 * self.covered_s() / iteration_s
                },
            ),
        ])
    }

    /// Seconds by span name, largest first: the "where the time goes"
    /// table. Slices and the iteration are listed by self time, leaves
    /// by total.
    pub fn breakdown(&self) -> Vec<(&'static str, f64, u64)> {
        let mut rows: Vec<(&'static str, f64, u64)> = Name::ALL
            .iter()
            .copied()
            .filter(|&n| self.count(n) > 0)
            .map(|n| {
                (
                    n.label(),
                    self.self_ns[n as usize] as f64 / 1e9,
                    self.count(n),
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        rows
    }
}

/// What replaying a plan's membership ops into DCDM measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub join_us: Vec<f64>,
    pub leave_us: Vec<f64>,
    /// Mean on-tree router count over every (cell, group) final tree.
    pub tree_nodes_mean: f64,
    pub provider_hits: u64,
    pub provider_misses: u64,
    /// Resident path-state bytes of the replay's providers at the end.
    pub path_bytes: u64,
}

/// Replay every cell's join/leave sequence the way the m-router runs
/// it — `Dcdm::with_tree(..).join(requester)` on the group's mirrored
/// tree — over an `OnDemandPaths` the benchmark owns, so the provider's
/// hit/miss counters can be read.
pub fn replay(plan: &Plan) -> Replay {
    let mut out = Replay::default();
    let mut tree_nodes = 0usize;
    let mut trees_seen = 0usize;
    for cell in &plan.cells {
        let topo = &*cell.topo;
        let provider = OnDemandPaths::from_topology(topo);
        let root = cell.config.m_router;
        let mut trees: BTreeMap<GroupId, MulticastTree> = BTreeMap::new();
        for op in &cell.ops {
            if matches!(op.kind, OpKind::Send { .. }) {
                continue;
            }
            let tree = trees
                .remove(&op.group)
                .unwrap_or_else(|| MulticastTree::new(topo.node_count(), root));
            let mut dcdm = Dcdm::with_tree(topo, &provider, tree, cell.config.bound);
            let t = Instant::now();
            if op.kind == OpKind::Join {
                black_box(dcdm.join(op.node));
                out.join_us.push(t.elapsed().as_secs_f64() * 1e6);
            } else {
                black_box(dcdm.leave(op.node));
                out.leave_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            trees.insert(op.group, dcdm.into_tree());
        }
        tree_nodes += trees
            .values()
            .map(MulticastTree::on_tree_count)
            .sum::<usize>();
        trees_seen += trees.len();
        let cache = provider.stats();
        out.provider_hits += cache.hits;
        out.provider_misses += cache.misses;
        out.path_bytes += provider.resident_path_bytes() as u64;
    }
    out.tree_nodes_mean = tree_nodes as f64 / trees_seen.max(1) as f64;
    out
}

/// Seconds `provider_for` costs over the plan: what every engine build
/// pays the path layer up front (eager all-pairs at n ≤ 256, nothing
/// above).
pub fn provider_build_s(plan: &Plan) -> f64 {
    let t = Instant::now();
    for cell in &plan.cells {
        black_box(provider_for(&cell.topo));
    }
    t.elapsed().as_secs_f64()
}

/// Mean microseconds of one shortest-delay Dijkstra on the plan's first
/// topology, over up to 16 evenly spaced sources.
pub fn dijkstra_us(plan: &Plan) -> f64 {
    let topo = &*plan.cells[0].topo;
    let n = topo.node_count();
    let runs = n.min(16);
    let t = Instant::now();
    for i in 0..runs {
        black_box(dijkstra(topo, NodeId((i * n / runs) as u32), Metric::Delay));
    }
    t.elapsed().as_secs_f64() * 1e6 / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::NO_PARENT;
    use crate::workloads;

    #[test]
    fn summary_splits_engine_self_from_fault_apply_and_handlers() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            iter: 4,
            parent,
            start_ns,
            end_ns,
        };
        let spans = [
            span(Name::IterTraced, NO_PARENT, 0, 10_000),
            span(Name::EngineBuild, 0, 0, 1_000),
            span(Name::SliceSendEncap, 0, 1_000, 4_000),
            span(Name::PktEncapData, 2, 1_500, 2_500),
            span(Name::PktData, 2, 2_500, 3_000),
            span(Name::SliceFault, 0, 4_000, 9_000),
            span(Name::OnTimer, 5, 4_000, 4_500),
            span(Name::Check, 0, 9_000, 10_000),
        ];
        assert_eq!(TraceSummary::new(&spans, 5).handler_calls(), 0);
        let s = TraceSummary::new(&spans, 4);
        assert_eq!(s.handler_calls(), 3);
        assert_eq!(s.engine_self_s(), 1_500e-9);
        assert_eq!(s.fault_apply_s(), 4_500e-9);
        assert_eq!(s.covered_s(), 9_000e-9);
        let m = s.timed_metrics(2);
        assert_eq!(m["core.data_handler_s"], 1_500e-9);
        assert_eq!(m["core.data_ns_per_hop"], 750.0);
        assert_eq!(m["core.on_timer_s"], 500e-9);
        assert_eq!(m["sim.engine_self_ns_per_event"], 750.0);
        assert_eq!(m["core.encap_sends_per_s"], 1.0 / 3_000e-9);
        assert_eq!(m["core.on_tree_sends_per_s"], 0.0);
        assert!((m["trace.coverage_pct"] - 90.0).abs() < 1e-9);
        assert_eq!(s.breakdown()[0], ("slice.fault", 4_500e-9, 1));
    }

    #[test]
    fn replay_counts_every_membership_op() {
        let plan = (workloads::find("zipf_churn_10k").unwrap().build)(1, true);
        let r = replay(&plan);
        let ops = &plan.cells[0].ops;
        let joins = ops.iter().filter(|op| op.kind == OpKind::Join).count();
        let leaves = ops.iter().filter(|op| op.kind == OpKind::Leave).count();
        assert_eq!((r.join_us.len(), r.leave_us.len()), (joins, leaves));
        assert!(r.tree_nodes_mean >= 1.0);
        assert!(r.provider_misses > 0 && r.provider_hits > r.provider_misses);
        assert!(r.path_bytes > 0);
        // Deterministic: the counts repeat exactly.
        let again = replay(&plan);
        assert_eq!(
            (again.provider_hits, again.provider_misses, again.path_bytes),
            (r.provider_hits, r.provider_misses, r.path_bytes)
        );
        assert_eq!(again.tree_nodes_mean, r.tree_nodes_mean);
    }
}
