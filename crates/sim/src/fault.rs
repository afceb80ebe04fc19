//! Deterministic fault injection: scheduled link and router failures.
//!
//! The paper motivates SCMP's centralized tree management partly by how
//! cheaply the m-router can react to failures (§V: the hot-standby
//! m-router, JOIN retransmission, session teardown). This module gives
//! the simulator a first-class failure vocabulary so robustness
//! experiments are declarative and replayable:
//!
//! * [`FaultEvent`] — the engine-level event: link down/up, router
//!   crash/recover. Faults ride the same `(time, seq)`-ordered event
//!   queue as packets and timers, so a seeded scenario with faults
//!   replays bit-for-bit.
//! * [`FaultSpec`] / [`FaultPlan`] — the serialisable scenario form
//!   consumed by JSON scenario files and the test harness.
//!
//! Semantics (see `Engine::schedule_fault`):
//!
//! * `LinkDown` removes a link from service in both directions; packets
//!   in flight on it were already committed and still arrive, packets
//!   sent afterwards drop. The domain's unicast IGP reconverges
//!   immediately (the live path view's epoch moves; routes are
//!   recomputed when next asked for).
//! * `RouterCrash` takes a node out of service *and wipes its protocol
//!   state* — on recovery the router is rebuilt from the engine's
//!   factory exactly as at simulation start (a cold restart), and its
//!   `on_start` hook runs again. Volatile state such as multicast
//!   routing entries does not survive a crash; recovering it is the
//!   protocol's job.
//!
//! Beyond the four primitives, the vocabulary has *correlated fault
//! families* — `Partition`, `RegionalOutage`, `FlapStorm` — that expand
//! deterministically (a pure seeded hash, no RNG stream) into primitive
//! link events via [`FaultPlan::expand`]. A `Partition` computes a
//! seeded graph cut whose two sides are disconnected by construction
//! (see [`partition_cut`]); a `RegionalOutage` takes down a
//! locality-correlated link neighbourhood; a `FlapStorm` cycles such a
//! neighbourhood down/up repeatedly. Families are scenario-level sugar:
//! the engine only ever schedules the expanded primitives, so replay is
//! bit-for-bit identical to writing the link events out by hand.

use scmp_net::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// An engine-level fault, addressed by [`NodeId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Take the undirected link `a`–`b` out of service.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restore the link `a`–`b`.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Crash a router: the node goes down and loses all protocol state.
    RouterCrash {
        /// The crashing node.
        node: NodeId,
    },
    /// Bring a crashed router back with freshly-initialised state.
    RouterRecover {
        /// The recovering node.
        node: NodeId,
    },
}

impl FaultEvent {
    /// The node the fault is attributed to in traces (for links, the
    /// lower endpoint).
    pub fn primary_node(&self) -> NodeId {
        match *self {
            FaultEvent::LinkDown { a, b } | FaultEvent::LinkUp { a, b } => a.min(b),
            FaultEvent::RouterCrash { node } | FaultEvent::RouterRecover { node } => node,
        }
    }

    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultEvent::LinkDown { .. } => "LINK-DOWN",
            FaultEvent::LinkUp { .. } => "LINK-UP",
            FaultEvent::RouterCrash { .. } => "CRASH",
            FaultEvent::RouterRecover { .. } => "RECOVER",
        }
    }
}

/// The serialisable form of a [`FaultEvent`], node ids as plain `u32`.
#[derive(Clone, Debug, PartialEq, Eq, Deserialize, Serialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum FaultKind {
    /// Cut link `a`–`b`.
    LinkDown {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// Restore link `a`–`b`.
    LinkUp {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// Crash router `node`.
    RouterCrash {
        /// The crashing node.
        node: u32,
    },
    /// Recover router `node`.
    RouterRecover {
        /// The recovering node.
        node: u32,
    },
    /// Correlated family: cut a seeded graph partition (every link
    /// crossing the cut goes down at the spec's time) and heal it — all
    /// cut links restored — at `heal_at`. The two sides are disconnected
    /// by construction; see [`partition_cut`].
    Partition {
        /// Seed of the deterministic cut.
        seed: u64,
        /// Absolute time every cut link is restored.
        heal_at: u64,
    },
    /// Correlated family: a regional outage — the `links` topologically
    /// closest links around a seeded epicentre go down together at the
    /// spec's time and are restored together at `restore_at`.
    RegionalOutage {
        /// Seed picking the epicentre.
        seed: u64,
        /// How many correlated links fail.
        links: u32,
        /// Absolute time the region is restored.
        restore_at: u64,
    },
    /// Correlated family: a flap storm — the `links` closest links
    /// around a seeded epicentre cycle down (for half a `period`) and
    /// back up, `cycles` times, starting at the spec's time.
    FlapStorm {
        /// Seed picking the epicentre.
        seed: u64,
        /// How many correlated links flap.
        links: u32,
        /// Down/up cycles per link.
        cycles: u32,
        /// Cycle length; links are down for the first half.
        period: u64,
    },
}

impl FaultKind {
    /// True for the correlated families that must be expanded into
    /// primitive link events before the engine can schedule them.
    pub fn is_family(&self) -> bool {
        matches!(
            self,
            FaultKind::Partition { .. }
                | FaultKind::RegionalOutage { .. }
                | FaultKind::FlapStorm { .. }
        )
    }
}

/// One scheduled fault in a scenario file.
#[derive(Clone, Debug, PartialEq, Eq, Deserialize, Serialize)]
#[serde(deny_unknown_fields)]
pub struct FaultSpec {
    /// Absolute simulation time the fault fires at.
    pub time: u64,
    /// What fails (or recovers).
    pub fault: FaultKind,
}

impl FaultSpec {
    /// Convert to the engine-level event. Family kinds have no single
    /// engine event — expand the plan first ([`FaultPlan::expand`]).
    pub fn to_event(&self) -> FaultEvent {
        match self.fault {
            FaultKind::LinkDown { a, b } => FaultEvent::LinkDown {
                a: NodeId(a),
                b: NodeId(b),
            },
            FaultKind::LinkUp { a, b } => FaultEvent::LinkUp {
                a: NodeId(a),
                b: NodeId(b),
            },
            FaultKind::RouterCrash { node } => FaultEvent::RouterCrash { node: NodeId(node) },
            FaultKind::RouterRecover { node } => FaultEvent::RouterRecover { node: NodeId(node) },
            FaultKind::Partition { .. }
            | FaultKind::RegionalOutage { .. }
            | FaultKind::FlapStorm { .. } => {
                panic!("family fault must be expanded before scheduling")
            }
        }
    }
}

/// splitmix64 finalizer — the same pure-hash idiom the reliability
/// tier's jitter uses, so family expansion is a function of its inputs
/// and never consumes an RNG stream.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded graph cut: `side_a` is grown by breadth-first search from a
/// seeded start node until it holds half the nodes, `side_b` is the
/// rest, and `cut` is every topology link with one endpoint on each
/// side (endpoints normalised `a < b`, sorted). Removing exactly the
/// `cut` links leaves no path between the sides — disconnection holds
/// by construction, and the proptests pin it on random topologies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionCut {
    /// The grown region containing the seeded start node.
    pub side_a: Vec<NodeId>,
    /// Everything else.
    pub side_b: Vec<NodeId>,
    /// Every link crossing the cut.
    pub cut: Vec<(NodeId, NodeId)>,
}

/// Compute the deterministic partition cut for (`topo`, `seed`).
/// Errors when the topology is too small to split (fewer than 2 nodes).
pub fn partition_cut(topo: &Topology, seed: u64) -> Result<PartitionCut, String> {
    let n = topo.node_count();
    if n < 2 {
        return Err(format!(
            "partition needs at least 2 nodes, topology has {n}"
        ));
    }
    let start = NodeId((mix(seed ^ 0x9e37_79b9_7f4a_7c15) % n as u64) as u32);
    let target = (n / 2).max(1);
    let mut in_a = vec![false; n];
    let mut side_a = Vec::with_capacity(target);
    let mut frontier = std::collections::VecDeque::new();
    in_a[start.index()] = true;
    side_a.push(start);
    frontier.push_back(start);
    // Deterministic BFS: neighbours visit in ascending node order (the
    // CSR adjacency is sorted by construction).
    while side_a.len() < target {
        let Some(v) = frontier.pop_front() else {
            break; // start's component exhausted: the cut is the
                   // component boundary (already disconnected beyond it)
        };
        for e in topo.neighbors(v) {
            if side_a.len() >= target {
                break;
            }
            if !in_a[e.to.index()] {
                in_a[e.to.index()] = true;
                side_a.push(e.to);
                frontier.push_back(e.to);
            }
        }
    }
    let side_b: Vec<NodeId> = topo.nodes().filter(|v| !in_a[v.index()]).collect();
    let mut cut = Vec::new();
    for &v in &side_a {
        for e in topo.neighbors(v) {
            if !in_a[e.to.index()] {
                cut.push((v.min(e.to), v.max(e.to)));
            }
        }
    }
    cut.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
    cut.dedup();
    Ok(PartitionCut {
        side_a,
        side_b,
        cut,
    })
}

/// The `links` topologically closest links around a seeded epicentre:
/// breadth-first edge-discovery order from the epicentre, truncated.
/// Used by `RegionalOutage` and `FlapStorm`; `label` salts the hash so
/// the two families pick independent epicentres for the same seed.
fn regional_links(topo: &Topology, seed: u64, label: u64, links: u32) -> Vec<(NodeId, NodeId)> {
    let n = topo.node_count();
    let start = NodeId((mix(seed ^ label) % n.max(1) as u64) as u32);
    let mut seen_node = vec![false; n];
    let mut seen_link = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut frontier = std::collections::VecDeque::new();
    seen_node[start.index()] = true;
    frontier.push_back(start);
    'bfs: while let Some(v) = frontier.pop_front() {
        for e in topo.neighbors(v) {
            let key = (v.min(e.to), v.max(e.to));
            if seen_link.insert(key) {
                out.push(key);
                if out.len() >= links as usize {
                    break 'bfs;
                }
            }
            if !seen_node[e.to.index()] {
                seen_node[e.to.index()] = true;
                frontier.push_back(e.to);
            }
        }
    }
    out
}

/// A complete failure schedule for one scenario.
#[derive(Clone, Debug, Default, PartialEq, Eq, Deserialize, Serialize)]
pub struct FaultPlan {
    /// Faults in scenario order (the engine orders by time anyway).
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Append a fault.
    pub fn at(mut self, time: u64, fault: FaultKind) -> Self {
        self.faults.push(FaultSpec { time, fault });
        self
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Check every fault against `topo`: link faults must name existing
    /// links, router faults existing nodes. Errors name the offending
    /// entry by index (`fault[2]: link 7-9 not in topology`) so a typo
    /// in a long scenario schedule is found without bisecting the file.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        let n = topo.node_count();
        for (i, spec) in self.faults.iter().enumerate() {
            match spec.fault {
                FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b } => {
                    if a as usize >= n || b as usize >= n {
                        return Err(format!(
                            "fault[{i}]: link {a}-{b} names a node out of range (topology has {n} nodes)"
                        ));
                    }
                    if !topo.has_link(NodeId(a), NodeId(b)) {
                        return Err(format!("fault[{i}]: link {a}-{b} not in topology"));
                    }
                }
                FaultKind::RouterCrash { node } | FaultKind::RouterRecover { node } => {
                    if node as usize >= n {
                        return Err(format!(
                            "fault[{i}]: node {node} out of range (topology has {n} nodes)"
                        ));
                    }
                }
                FaultKind::Partition { seed, heal_at } => {
                    if heal_at <= spec.time {
                        return Err(format!(
                            "fault[{i}]: partition heal_at {heal_at} must be after the cut at {}",
                            spec.time
                        ));
                    }
                    partition_cut(topo, seed).map_err(|e| format!("fault[{i}]: {e}"))?;
                }
                FaultKind::RegionalOutage {
                    links, restore_at, ..
                } => {
                    if links == 0 {
                        return Err(format!("fault[{i}]: regional outage needs links >= 1"));
                    }
                    if restore_at <= spec.time {
                        return Err(format!(
                            "fault[{i}]: regional outage restore_at {restore_at} must be after the outage at {}",
                            spec.time
                        ));
                    }
                }
                FaultKind::FlapStorm {
                    links,
                    cycles,
                    period,
                    ..
                } => {
                    if links == 0 || cycles == 0 {
                        return Err(format!(
                            "fault[{i}]: flap storm needs links >= 1 and cycles >= 1"
                        ));
                    }
                    if period < 2 {
                        return Err(format!(
                            "fault[{i}]: flap storm period {period} too short (down half would be empty)"
                        ));
                    }
                    // The last up-time bounds every time `expand` computes.
                    let last_up = u64::from(cycles - 1)
                        .checked_mul(period)
                        .and_then(|t| t.checked_add(spec.time))
                        .and_then(|t| t.checked_add(period / 2));
                    if last_up.is_none() {
                        return Err(format!("fault[{i}]: flap storm event time overflows u64"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Expand every correlated family into its primitive link events,
    /// passing primitives through unchanged. The expansion is a pure
    /// function of (plan, topology): scheduling the result is
    /// bit-for-bit identical to writing the primitives out by hand.
    /// Validates the plan first, so errors carry the `fault[i]` index.
    pub fn expand(&self, topo: &Topology) -> Result<Vec<FaultSpec>, String> {
        self.validate(topo)?;
        let mut out = Vec::new();
        for spec in &self.faults {
            match spec.fault {
                FaultKind::LinkDown { .. }
                | FaultKind::LinkUp { .. }
                | FaultKind::RouterCrash { .. }
                | FaultKind::RouterRecover { .. } => out.push(spec.clone()),
                FaultKind::Partition { seed, heal_at } => {
                    let cut = partition_cut(topo, seed).expect("validated above");
                    for &(a, b) in &cut.cut {
                        out.push(FaultSpec {
                            time: spec.time,
                            fault: FaultKind::LinkDown { a: a.0, b: b.0 },
                        });
                    }
                    for &(a, b) in &cut.cut {
                        out.push(FaultSpec {
                            time: heal_at,
                            fault: FaultKind::LinkUp { a: a.0, b: b.0 },
                        });
                    }
                }
                FaultKind::RegionalOutage {
                    seed,
                    links,
                    restore_at,
                } => {
                    let region = regional_links(topo, seed, 0x5e71_04a6_u64, links);
                    for &(a, b) in &region {
                        out.push(FaultSpec {
                            time: spec.time,
                            fault: FaultKind::LinkDown { a: a.0, b: b.0 },
                        });
                    }
                    for &(a, b) in &region {
                        out.push(FaultSpec {
                            time: restore_at,
                            fault: FaultKind::LinkUp { a: a.0, b: b.0 },
                        });
                    }
                }
                FaultKind::FlapStorm {
                    seed,
                    links,
                    cycles,
                    period,
                } => {
                    let region = regional_links(topo, seed, 0xf1a9_5707_u64, links);
                    for c in 0..cycles as u64 {
                        let down_at = spec.time + c * period;
                        let up_at = down_at + period / 2;
                        for &(a, b) in &region {
                            out.push(FaultSpec {
                                time: down_at,
                                fault: FaultKind::LinkDown { a: a.0, b: b.0 },
                            });
                        }
                        for &(a, b) in &region {
                            out.push(FaultSpec {
                                time: up_at,
                                fault: FaultKind::LinkUp { a: a.0, b: b.0 },
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

impl From<Vec<FaultSpec>> for FaultPlan {
    fn from(faults: Vec<FaultSpec>) -> Self {
        FaultPlan { faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::graph::LinkWeight;
    use scmp_net::topology::regular::line;

    #[test]
    fn spec_converts_to_event() {
        let s = FaultSpec {
            time: 5,
            fault: FaultKind::LinkDown { a: 1, b: 2 },
        };
        assert_eq!(
            s.to_event(),
            FaultEvent::LinkDown {
                a: NodeId(1),
                b: NodeId(2)
            }
        );
        assert_eq!(s.to_event().primary_node(), NodeId(1));
        let r = FaultSpec {
            time: 9,
            fault: FaultKind::RouterRecover { node: 3 },
        };
        assert_eq!(r.to_event().label(), "RECOVER");
    }

    #[test]
    fn plan_builder_and_validation() {
        let topo = line(4, LinkWeight::new(1, 1));
        let good = FaultPlan::new()
            .at(10, FaultKind::LinkDown { a: 1, b: 2 })
            .at(20, FaultKind::RouterCrash { node: 3 })
            .at(30, FaultKind::LinkUp { a: 2, b: 1 });
        assert_eq!(good.faults.len(), 3);
        assert!(good.validate(&topo).is_ok());

        let no_such_link = FaultPlan::new()
            .at(0, FaultKind::RouterCrash { node: 3 })
            .at(0, FaultKind::LinkDown { a: 0, b: 3 });
        assert_eq!(
            no_such_link.validate(&topo).unwrap_err(),
            "fault[1]: link 0-3 not in topology",
            "the error names the offending entry by index"
        );
        let bad_node = FaultPlan::new().at(0, FaultKind::RouterCrash { node: 9 });
        assert_eq!(
            bad_node.validate(&topo).unwrap_err(),
            "fault[0]: node 9 out of range (topology has 4 nodes)"
        );
        let bad_endpoint = FaultPlan::new().at(0, FaultKind::LinkUp { a: 0, b: 99 });
        assert_eq!(
            bad_endpoint.validate(&topo).unwrap_err(),
            "fault[0]: link 0-99 names a node out of range (topology has 4 nodes)"
        );
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan::new()
            .at(1_000, FaultKind::LinkDown { a: 0, b: 3 })
            .at(2_000, FaultKind::RouterCrash { node: 2 })
            .at(3_000, FaultKind::RouterRecover { node: 2 })
            .at(4_000, FaultKind::LinkUp { a: 0, b: 3 });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn json_format_is_tagged_snake_case() {
        let json = r#"{ "faults": [
            { "time": 7, "fault": { "kind": "link_down", "a": 1, "b": 4 } },
            { "time": 8, "fault": { "kind": "router_crash", "node": 2 } }
        ]}"#;
        let plan: FaultPlan = serde_json::from_str(json).unwrap();
        assert_eq!(plan.faults[0].fault, FaultKind::LinkDown { a: 1, b: 4 });
        assert_eq!(plan.faults[1].fault, FaultKind::RouterCrash { node: 2 });
    }

    #[test]
    fn empty_plan_is_valid_everywhere() {
        let topo = line(2, LinkWeight::new(1, 1));
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::new().validate(&topo).is_ok());
    }

    #[test]
    fn partition_cut_disconnects_a_line() {
        let topo = line(6, LinkWeight::new(1, 1));
        for seed in 0..8 {
            let cut = partition_cut(&topo, seed).unwrap();
            assert_eq!(cut.side_a.len(), 3, "half the nodes on side A");
            assert_eq!(cut.side_b.len(), 3);
            assert!(!cut.cut.is_empty(), "a connected line always cuts");
            // No surviving link crosses the cut.
            let in_a: std::collections::BTreeSet<_> = cut.side_a.iter().collect();
            let removed: std::collections::BTreeSet<_> = cut.cut.iter().collect();
            for v in topo.nodes() {
                for e in topo.neighbors(v) {
                    let key = (v.min(e.to), v.max(e.to));
                    if removed.contains(&key) {
                        continue;
                    }
                    assert_eq!(
                        in_a.contains(&v),
                        in_a.contains(&e.to),
                        "surviving link {key:?} crosses the cut"
                    );
                }
            }
            // Deterministic: same seed, same cut.
            assert_eq!(partition_cut(&topo, seed).unwrap(), cut);
        }
        assert!(partition_cut(&line(1, LinkWeight::new(1, 1)), 0).is_err());
    }

    #[test]
    fn partition_family_expands_to_cut_and_heal() {
        let topo = line(4, LinkWeight::new(1, 1));
        let plan = FaultPlan::new().at(
            1_000,
            FaultKind::Partition {
                seed: 3,
                heal_at: 5_000,
            },
        );
        let expanded = plan.expand(&topo).unwrap();
        let cut = partition_cut(&topo, 3).unwrap();
        assert_eq!(expanded.len(), 2 * cut.cut.len());
        let downs: Vec<_> = expanded
            .iter()
            .filter(|s| matches!(s.fault, FaultKind::LinkDown { .. }))
            .collect();
        let ups: Vec<_> = expanded
            .iter()
            .filter(|s| matches!(s.fault, FaultKind::LinkUp { .. }))
            .collect();
        assert!(downs.iter().all(|s| s.time == 1_000));
        assert!(ups.iter().all(|s| s.time == 5_000));
        assert_eq!(downs.len(), ups.len());
        // Expansion is pure: same inputs, same schedule.
        assert_eq!(plan.expand(&topo).unwrap(), expanded);
    }

    #[test]
    fn family_validation_errors_name_the_entry() {
        let topo = line(4, LinkWeight::new(1, 1));
        let bad_heal = FaultPlan::new().at(
            2_000,
            FaultKind::Partition {
                seed: 1,
                heal_at: 2_000,
            },
        );
        assert!(bad_heal
            .validate(&topo)
            .unwrap_err()
            .starts_with("fault[0]: partition heal_at"));
        let no_links = FaultPlan::new().at(
            0,
            FaultKind::RegionalOutage {
                seed: 1,
                links: 0,
                restore_at: 10,
            },
        );
        assert!(no_links.validate(&topo).unwrap_err().contains("links >= 1"));
        let short_period = FaultPlan::new().at(
            0,
            FaultKind::FlapStorm {
                seed: 1,
                links: 1,
                cycles: 2,
                period: 1,
            },
        );
        assert!(short_period
            .validate(&topo)
            .unwrap_err()
            .contains("period 1 too short"));
    }

    #[test]
    fn a_flap_storm_ending_past_u64_max_is_refused() {
        let topo = line(4, LinkWeight::new(1, 1));
        let storm = |time, cycles, period| {
            FaultPlan::new().at(
                time,
                FaultKind::FlapStorm {
                    seed: 1,
                    links: 1,
                    cycles,
                    period,
                },
            )
        };
        let err = "fault[0]: flap storm event time overflows u64";
        // 1 000 + 2 × 2^63 passes u64::MAX on the last down-time ...
        assert_eq!(storm(1_000, 3, 1 << 63).expand(&topo).unwrap_err(), err);
        // ... and here only the last up-time, half a period later, does.
        let period = 1 << 62;
        let start = u64::MAX - period / 2 + 1 - 2 * period;
        assert_eq!(storm(start, 3, period).validate(&topo).unwrap_err(), err);
        // The latest storm that fits ends exactly at u64::MAX.
        let events = storm(start - 1, 3, period).expand(&topo).unwrap();
        assert_eq!(events.iter().map(|s| s.time).max(), Some(u64::MAX));
    }

    #[test]
    fn outage_and_flapstorm_expand_deterministically() {
        let topo = line(8, LinkWeight::new(1, 1));
        let plan = FaultPlan::new()
            .at(
                100,
                FaultKind::RegionalOutage {
                    seed: 7,
                    links: 3,
                    restore_at: 900,
                },
            )
            .at(
                1_000,
                FaultKind::FlapStorm {
                    seed: 7,
                    links: 2,
                    cycles: 3,
                    period: 200,
                },
            );
        let a = plan.expand(&topo).unwrap();
        assert_eq!(a, plan.expand(&topo).unwrap());
        // Outage: 3 downs at 100, 3 ups at 900.
        assert_eq!(
            a.iter()
                .filter(|s| s.time == 100 && matches!(s.fault, FaultKind::LinkDown { .. }))
                .count(),
            3
        );
        assert_eq!(
            a.iter()
                .filter(|s| s.time == 900 && matches!(s.fault, FaultKind::LinkUp { .. }))
                .count(),
            3
        );
        // Storm: 3 cycles × 2 links, downs at 1000/1200/1400, ups +100.
        for c in 0..3u64 {
            assert_eq!(
                a.iter()
                    .filter(|s| s.time == 1_000 + c * 200
                        && matches!(s.fault, FaultKind::LinkDown { .. }))
                    .count(),
                2
            );
            assert_eq!(
                a.iter()
                    .filter(|s| s.time == 1_100 + c * 200
                        && matches!(s.fault, FaultKind::LinkUp { .. }))
                    .count(),
                2
            );
        }
        // Every expanded primitive is schedulable.
        assert!(a.iter().all(|s| !s.fault.is_family()));
        let reval = FaultPlan::from(a);
        assert!(reval.validate(&topo).is_ok());
    }

    #[test]
    fn family_json_roundtrip() {
        let plan = FaultPlan::new()
            .at(
                1_000,
                FaultKind::Partition {
                    seed: 9,
                    heal_at: 8_000,
                },
            )
            .at(
                2_000,
                FaultKind::RegionalOutage {
                    seed: 2,
                    links: 4,
                    restore_at: 6_000,
                },
            )
            .at(
                3_000,
                FaultKind::FlapStorm {
                    seed: 3,
                    links: 2,
                    cycles: 5,
                    period: 400,
                },
            );
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"kind\":\"partition\""));
        assert!(json.contains("\"kind\":\"regional_outage\""));
        assert!(json.contains("\"kind\":\"flap_storm\""));
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert!(back.faults.iter().all(|s| s.fault.is_family()));
    }
}
