//! Trace inspection: load a JSONL trace and answer questions about it.
//!
//! [`Trace`] wraps a decoded event stream and derives the views the
//! `scmp-inspect` CLI exposes: per-group convergence timelines, per-node
//! event filters, recomputed latency histograms, causal packet
//! journeys keyed by the (group, origin, seq) trace keys, per-group
//! tree-health summaries, and a delivery audit that flags duplicate,
//! phantom, or unexplained-missing deliveries.

use crate::event::{decode_events, encode_events, CtlKind, Event, EventKind};
use crate::hist::Histogram;
use crate::series::GaugeSample;
use crate::trace_key::{is_ctl_tag, TraceKey};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A decoded trace, events in recorded (time) order.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<Event>,
}

/// Histograms recomputed purely from trace events.
#[derive(Clone, Debug, Default)]
pub struct TraceHistograms {
    /// End-to-end delay of each distinct local delivery.
    pub e2e_delay: Histogram,
    /// Latency of each completed tree repair.
    pub repair: Histogram,
}

/// The fate of one multicast send within a group's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergencePoint {
    /// Payload tag of the send.
    pub tag: u64,
    /// When and where it was injected.
    pub sent_at: u64,
    /// The injecting node.
    pub source: u32,
    /// Group members at send time (sorted).
    pub members_at_send: Vec<u32>,
    /// Distinct `(node, time)` local deliveries for this tag (sorted by
    /// node).
    pub delivered: Vec<(u32, u64)>,
    /// Time the last expected member delivered, when all of them did.
    pub converged_at: Option<u64>,
}

/// A group's convergence timeline: one point per send, in send order.
#[derive(Clone, Debug, Default)]
pub struct Convergence {
    /// The group inspected.
    pub group: u32,
    /// One entry per send to the group.
    pub points: Vec<ConvergencePoint>,
}

/// The delivery audit over a whole trace.
#[derive(Clone, Debug, Default)]
pub struct Audit {
    /// Sends observed.
    pub sends: u64,
    /// Distinct local deliveries observed.
    pub deliveries: u64,
    /// `(group, tag, node)` delivered more than once — always a failure.
    pub duplicates: Vec<(u32, u64, u32)>,
    /// Drop counts by reason label.
    pub drops: BTreeMap<&'static str, u64>,
    /// Fault events (link down/up, crash, recover) observed.
    pub faults: u64,
    /// `(group, tag, node)` expected at send time but never delivered.
    pub missing: Vec<(u32, u64, u32)>,
    /// Missing deliveries with no drop and no fault anywhere in the
    /// trace to explain them — always a failure.
    pub unaccounted: Vec<(u32, u64, u32)>,
    /// `(group, tag, node)` delivered locally without any preceding send
    /// of that payload — always a failure (a trace that conjures data).
    pub phantom: Vec<(u32, u64, u32)>,
    /// Events whose timestamp ran backwards relative to the previous
    /// event — always a failure (the engine emits in dispatch order).
    pub disordered: u64,
}

impl Audit {
    /// True when the trace shows none of the hard violation classes:
    /// duplicate delivery, unexplained-missing delivery, phantom
    /// delivery, or out-of-order timestamps. Every one of these sets the
    /// `scmp-inspect --audit` exit code.
    pub fn passed(&self) -> bool {
        self.duplicates.is_empty()
            && self.unaccounted.is_empty()
            && self.phantom.is_empty()
            && self.disordered == 0
    }

    /// Human-readable audit report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit: sends={} deliveries={} faults={} verdict={}",
            self.sends,
            self.deliveries,
            self.faults,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        for (reason, n) in &self.drops {
            let _ = writeln!(out, "  drop[{reason}] = {n}");
        }
        for &(g, t, n) in &self.duplicates {
            let _ = writeln!(out, "  DUPLICATE delivery: group {g} tag {t} node {n}");
        }
        for &(g, t, n) in &self.phantom {
            let _ = writeln!(out, "  PHANTOM delivery: group {g} tag {t} node {n}");
        }
        if self.disordered > 0 {
            let _ = writeln!(out, "  DISORDERED timestamps: {} events", self.disordered);
        }
        for &(g, t, n) in &self.missing {
            let explained = !self.unaccounted.contains(&(g, t, n));
            let _ = writeln!(
                out,
                "  missing delivery: group {g} tag {t} node {n}{}",
                if explained {
                    " (explained by drops/faults)"
                } else {
                    " UNACCOUNTED"
                }
            );
        }
        out
    }
}

/// One packet's — or one control transaction's — reconstructed journey:
/// every event in the trace stamped with the same (group, tag)
/// correlation key, in dispatch order.
#[derive(Clone, Debug)]
pub struct Journey {
    /// The group inspected.
    pub group: u32,
    /// The correlation tag: a data payload tag, or a packed control tag.
    pub tag: u64,
    /// The decoded (group, origin, seq) key for control transactions,
    /// `None` for data journeys.
    pub key: Option<TraceKey>,
    /// Every stamped event, in trace order: sends, per-hop delivers
    /// (with their control kind), local deliveries, keyed drops,
    /// retransmissions, channel duplicates/reorders.
    pub steps: Vec<Event>,
    /// For control transactions: the origin node's first data delivery
    /// at or after the transaction started — the JOIN → … → first
    /// delivery closure.
    pub first_delivery: Option<Event>,
}

impl Journey {
    /// True when the trace holds no event with this key.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The rendered step label for one event (dispatch metadata only).
    fn step_label(kind: &EventKind) -> String {
        match *kind {
            EventKind::Deliver {
                from, class, ctl, ..
            } => {
                let what = match ctl {
                    Some(c) => c.label(),
                    None => class.label(),
                };
                format!("deliver from n{from} [{what}]")
            }
            EventKind::DeliverLocal { delay, .. } => format!("deliver_local (+{delay})"),
            EventKind::Drop { reason, to, .. } => match to {
                Some(to) => format!("DROP [{}] -> n{to}", reason.label()),
                None => format!("DROP [{}]", reason.label()),
            },
            EventKind::Retransmit { to, attempt, .. } => {
                format!("retransmit -> n{to} (attempt {attempt})")
            }
            EventKind::ChannelDuplicate { to, .. } => format!("channel duplicate -> n{to}"),
            EventKind::ChannelReorder { to, jitter, .. } => {
                format!("channel reorder -> n{to} (+{jitter})")
            }
            EventKind::Nack { origin, seq, .. } => format!("NACK origin n{origin} seq {seq}"),
            EventKind::NackSuppress { origin, seq, .. } => {
                format!("nack suppressed (origin n{origin} seq {seq})")
            }
            EventKind::RepairHit { origin, seq, .. } => {
                format!("repair cache HIT (origin n{origin} seq {seq})")
            }
            EventKind::RepairMiss { origin, seq, .. } => {
                format!("repair cache miss (origin n{origin} seq {seq})")
            }
            EventKind::Recovery { seq, latency, .. } => {
                format!("gap recovered seq {seq} (+{latency})")
            }
            ref other => other.name().to_string(),
        }
    }

    /// The compressed causality chain: each step's one-word stage, with
    /// consecutive repeats collapsed (`join -> branch -> tree_ack ->
    /// delivered`).
    pub fn chain(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for ev in &self.steps {
            // A stage is the kind's wire name, except where the chain
            // says what travelled or how it ended.
            let stage = match ev.kind {
                EventKind::Deliver { class, ctl, .. } => match ctl {
                    Some(c) => c.label(),
                    None => class.label(),
                },
                EventKind::DeliverLocal { .. } => "delivered",
                EventKind::ChannelDuplicate { .. } => "dup",
                EventKind::ChannelReorder { .. } => "reorder",
                EventKind::Recovery { .. } => "recovered",
                ref other => other.name(),
            };
            if out.last() != Some(&stage) {
                out.push(stage);
            }
        }
        if self.first_delivery.is_some() {
            out.push("first_delivery");
        }
        out
    }

    /// Deterministic human-readable timeline, byte-stable for goldens.
    pub fn report(&self) -> String {
        let mut out = String::new();
        match self.key {
            Some(k) => {
                let _ = writeln!(out, "journey {k} (control txn, origin n{}):", k.origin);
            }
            None => {
                let _ = writeln!(out, "journey g{} tag {} (data):", self.group, self.tag);
            }
        }
        if self.steps.is_empty() {
            let _ = writeln!(out, "  (no events with this key)");
            return out;
        }
        for ev in &self.steps {
            let _ = writeln!(
                out,
                "  t={:<8} n{:<4} {}",
                ev.time,
                ev.node,
                Journey::step_label(&ev.kind)
            );
        }
        let _ = writeln!(out, "  chain: {}", self.chain().join(" -> "));
        let (mut drops, mut retx, mut locals, mut hops) = (0u64, 0u64, 0u64, 0u64);
        for ev in &self.steps {
            match ev.kind {
                EventKind::Deliver { .. } => hops += 1,
                EventKind::DeliverLocal { .. } => locals += 1,
                EventKind::Drop { .. } => drops += 1,
                EventKind::Retransmit { .. } => retx += 1,
                _ => {}
            }
        }
        let _ = writeln!(
            out,
            "  summary: {hops} hops, {locals} local deliveries, {drops} drops, {retx} retransmits"
        );
        if let Some(fd) = self.first_delivery {
            if let EventKind::DeliverLocal { tag, delay, .. } = fd.kind {
                let _ = writeln!(
                    out,
                    "  first data at origin: t={} tag {tag} (+{delay})",
                    fd.time
                );
            }
        }
        out
    }
}

impl Trace {
    /// Wrap an already-decoded event stream.
    pub fn from_events(events: Vec<Event>) -> Trace {
        Trace { events }
    }

    /// Decode a JSONL document.
    pub fn parse(jsonl: &str) -> Result<Trace, String> {
        Ok(Trace {
            events: decode_events(jsonl)?,
        })
    }

    /// The raw events, in recorded order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Re-encode as JSONL.
    pub fn to_jsonl(&self) -> String {
        encode_events(&self.events)
    }

    /// Distinct groups mentioned anywhere, sorted.
    pub fn groups(&self) -> Vec<u32> {
        let mut set = BTreeSet::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::Join { group }
                | EventKind::Leave { group }
                | EventKind::Send { group, .. }
                | EventKind::Deliver { group, .. }
                | EventKind::DeliverLocal { group, .. } => {
                    set.insert(group);
                }
                _ => {}
            }
        }
        set.into_iter().collect()
    }

    /// Events that fired at `node` (gauge samples excluded — their node
    /// id is not meaningful).
    pub fn node_events(&self, node: u32) -> Vec<Event> {
        self.events
            .iter()
            .filter(|ev| ev.node == node && !matches!(ev.kind, EventKind::Gauge { .. }))
            .copied()
            .collect()
    }

    /// The gauge time series embedded in the trace.
    pub fn gauges(&self) -> Vec<GaugeSample> {
        self.events
            .iter()
            .filter_map(GaugeSample::from_event)
            .collect()
    }

    /// Every distinct correlation tag stamped on `group`'s events,
    /// sorted — data tags first (small integers), then packed control
    /// tags (high bit set).
    pub fn journey_tags(&self, group: u32) -> Vec<u64> {
        let mut set = BTreeSet::new();
        for ev in &self.events {
            if let Some((g, t)) = ev.kind.journey_key() {
                if g == group {
                    set.insert(t);
                }
            }
        }
        set.into_iter().collect()
    }

    /// Reconstruct the journey of one (group, tag) key: every stamped
    /// event in trace order, plus — for control transactions — the
    /// origin's first data delivery after the transaction began.
    pub fn journey(&self, group: u32, tag: u64) -> Journey {
        let steps: Vec<Event> = self
            .events
            .iter()
            .filter(|ev| ev.kind.journey_key() == Some((group, tag)))
            .copied()
            .collect();
        let key = TraceKey::from_tag(group, tag);
        let first_delivery = key.and_then(|k| {
            let start = steps.first()?.time;
            self.events
                .iter()
                .find(|ev| {
                    ev.node == k.origin
                        && ev.time >= start
                        && matches!(ev.kind, EventKind::DeliverLocal { group: g, .. } if g == group)
                })
                .copied()
        });
        Journey {
            group,
            tag,
            key,
            steps,
            first_delivery,
        }
    }

    /// The control transactions in `group` that start with a JOIN —
    /// one journey each, in tag (origin, seq) order.
    pub fn join_journeys(&self, group: u32) -> Vec<Journey> {
        self.journey_tags(group)
            .into_iter()
            .filter(|&t| is_ctl_tag(t))
            .map(|t| self.journey(group, t))
            .filter(|j| {
                j.steps.iter().any(|ev| {
                    matches!(
                        ev.kind,
                        EventKind::Deliver {
                            ctl: Some(CtlKind::Join),
                            ..
                        }
                    )
                })
            })
            .collect()
    }

    /// Render every JOIN transaction in `group` (the causality chain
    /// JOIN → TREE/BRANCH → ack → first delivery), byte-stable.
    pub fn joins_report(&self, group: u32) -> String {
        let journeys = self.join_journeys(group);
        let mut out = String::new();
        let _ = writeln!(out, "group {group}: {} join transaction(s)", journeys.len());
        for j in &journeys {
            out.push_str(&j.report());
        }
        out
    }

    /// The tree-health samples embedded in the trace, in trace order,
    /// optionally restricted to one group.
    pub fn tree_health(&self, group: Option<u32>) -> Vec<Event> {
        self.events
            .iter()
            .filter(|ev| match ev.kind {
                EventKind::TreeHealth { group: g, .. } => group.is_none() || group == Some(g),
                _ => false,
            })
            .copied()
            .collect()
    }

    /// Summarize per-group tree health: every sample plus a per-group
    /// trailer with the latest state and the spread over time.
    pub fn health_report(&self) -> String {
        let mut by_group: BTreeMap<u32, Vec<Event>> = BTreeMap::new();
        for ev in self.tree_health(None) {
            if let EventKind::TreeHealth { group, .. } = ev.kind {
                by_group.entry(group).or_default().push(ev);
            }
        }
        let mut out = String::new();
        if by_group.is_empty() {
            let _ = writeln!(out, "tree health: no samples in trace");
            return out;
        }
        for (g, samples) in &by_group {
            let _ = writeln!(out, "group {g} tree health ({} samples):", samples.len());
            let mut costs = Histogram::new();
            for ev in samples {
                if let EventKind::TreeHealth {
                    trigger,
                    members,
                    depth,
                    cost,
                    stretch_milli,
                    delay_var,
                    ..
                } = ev.kind
                {
                    let _ = writeln!(
                        out,
                        "  t={:<8} [{}] members={members} depth={depth} cost={cost} stretch={}.{:03} delay_var={delay_var}",
                        ev.time,
                        trigger.label(),
                        stretch_milli / 1000,
                        stretch_milli % 1000,
                    );
                    costs.record(cost);
                }
            }
            let _ = writeln!(
                out,
                "  cost over time: mean={:.1} max={} stddev={:.1}",
                costs.mean(),
                costs.max(),
                costs.stddev()
            );
        }
        out
    }

    /// Recompute latency histograms from the events. End-to-end delay
    /// counts each `(group, tag, node)` once (first delivery), matching
    /// the engine's own statistics.
    pub fn histograms(&self) -> TraceHistograms {
        let mut out = TraceHistograms::default();
        let mut seen = BTreeSet::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::DeliverLocal { group, tag, delay }
                    if seen.insert((group, tag, ev.node)) =>
                {
                    out.e2e_delay.record(delay);
                }
                EventKind::Repair { latency } => out.repair.record(latency),
                _ => {}
            }
        }
        out
    }

    /// The convergence timeline of `group`: membership is replayed from
    /// join/leave events (a router crash wipes its membership until an
    /// explicit re-join), and each send is tracked until every member
    /// known at send time has delivered its payload.
    pub fn convergence(&self, group: u32) -> Convergence {
        let mut members: BTreeSet<u32> = BTreeSet::new();
        let mut points: Vec<ConvergencePoint> = Vec::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::Join { group: g } if g == group => {
                    members.insert(ev.node);
                }
                EventKind::Leave { group: g } if g == group => {
                    members.remove(&ev.node);
                }
                EventKind::RouterCrash => {
                    members.remove(&ev.node);
                }
                EventKind::Send { group: g, tag } if g == group => {
                    points.push(ConvergencePoint {
                        tag,
                        sent_at: ev.time,
                        source: ev.node,
                        members_at_send: members.iter().copied().collect(),
                        delivered: Vec::new(),
                        converged_at: None,
                    });
                }
                EventKind::DeliverLocal { group: g, tag, .. } if g == group => {
                    if let Some(p) = points.iter_mut().rev().find(|p| p.tag == tag) {
                        if !p.delivered.iter().any(|&(n, _)| n == ev.node) {
                            p.delivered.push((ev.node, ev.time));
                        }
                    }
                }
                _ => {}
            }
        }
        for p in &mut points {
            p.delivered.sort_unstable();
            let all = p
                .members_at_send
                .iter()
                .all(|m| p.delivered.iter().any(|&(n, _)| n == *m));
            if all && !p.members_at_send.is_empty() {
                p.converged_at = p.delivered.iter().map(|&(_, t)| t).max();
            }
        }
        Convergence { group, points }
    }

    /// Audit the trace for delivery correctness. Hard violations —
    /// duplicate local delivery, a delivery whose payload was never
    /// sent (phantom), timestamps running backwards, or a missing
    /// delivery with no drop and no fault anywhere to explain it — all
    /// fail the audit (and set the `scmp-inspect --audit` exit code).
    pub fn audit(&self) -> Audit {
        let mut audit = Audit::default();
        let mut delivered: BTreeSet<(u32, u64, u32)> = BTreeSet::new();
        let mut sent: BTreeSet<(u32, u64)> = BTreeSet::new();
        let mut last_time = 0u64;
        for ev in &self.events {
            if ev.time < last_time {
                audit.disordered += 1;
            }
            last_time = last_time.max(ev.time);
            match ev.kind {
                EventKind::Send { group, tag } => {
                    audit.sends += 1;
                    sent.insert((group, tag));
                }
                EventKind::DeliverLocal { group, tag, .. } => {
                    if !sent.contains(&(group, tag)) {
                        audit.phantom.push((group, tag, ev.node));
                    }
                    if delivered.insert((group, tag, ev.node)) {
                        audit.deliveries += 1;
                    } else {
                        audit.duplicates.push((group, tag, ev.node));
                    }
                }
                EventKind::Drop { reason, .. } => {
                    *audit.drops.entry(reason.label()).or_insert(0) += 1;
                }
                EventKind::LinkDown { .. }
                | EventKind::LinkUp { .. }
                | EventKind::RouterCrash
                | EventKind::RouterRecover => audit.faults += 1,
                _ => {}
            }
        }
        for group in self.groups() {
            for p in self.convergence(group).points {
                for m in &p.members_at_send {
                    if !delivered.contains(&(group, p.tag, *m)) {
                        audit.missing.push((group, p.tag, *m));
                    }
                }
            }
        }
        let loss_explained = audit.faults > 0 || audit.drops.values().any(|&n| n > 0);
        if !loss_explained {
            audit.unaccounted = audit.missing.clone();
        }
        audit
    }

    /// A one-screen summary: time span, event counts by kind, groups.
    pub fn summary(&self) -> String {
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in &self.events {
            *by_kind.entry(ev.kind.name()).or_insert(0) += 1;
        }
        let span = match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => format!("t={}..{}", a.time, b.time),
            _ => "empty".to_string(),
        };
        let mut out = String::new();
        let _ = writeln!(out, "trace: {} events, {span}", self.events.len());
        for (k, n) in &by_kind {
            let _ = writeln!(out, "  {k:<14} {n}");
        }
        let groups = self.groups();
        if !groups.is_empty() {
            let _ = writeln!(out, "  groups: {groups:?}");
        }
        out
    }
}

impl Convergence {
    /// Human-readable timeline.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "group {} convergence:", self.group);
        for p in &self.points {
            let _ = writeln!(
                out,
                "  tag {} sent t={} by n{} -> {}/{} members{}",
                p.tag,
                p.sent_at,
                p.source,
                p.delivered.len(),
                p.members_at_send.len(),
                match p.converged_at {
                    Some(t) => format!(", converged t={t}"),
                    None => ", NOT converged".to_string(),
                }
            );
            for &(n, t) in &p.delivered {
                let _ = writeln!(out, "    n{n} delivered t={t} (+{})", t - p.sent_at);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    fn ev(time: u64, node: u32, kind: EventKind) -> Event {
        Event { time, node, kind }
    }

    fn happy_trace() -> Trace {
        Trace::from_events(vec![
            ev(0, 3, EventKind::Join { group: 1 }),
            ev(0, 4, EventKind::Join { group: 1 }),
            ev(100, 1, EventKind::Send { group: 1, tag: 7 }),
            ev(
                103,
                3,
                EventKind::DeliverLocal {
                    group: 1,
                    tag: 7,
                    delay: 3,
                },
            ),
            ev(
                105,
                4,
                EventKind::DeliverLocal {
                    group: 1,
                    tag: 7,
                    delay: 5,
                },
            ),
        ])
    }

    #[test]
    fn convergence_tracks_members_at_send_time() {
        let c = happy_trace().convergence(1);
        assert_eq!(c.points.len(), 1);
        let p = &c.points[0];
        assert_eq!(p.members_at_send, vec![3, 4]);
        assert_eq!(p.delivered, vec![(3, 103), (4, 105)]);
        assert_eq!(p.converged_at, Some(105));
        assert!(c.report().contains("converged t=105"));
    }

    #[test]
    fn crash_wipes_membership() {
        let t = Trace::from_events(vec![
            ev(0, 3, EventKind::Join { group: 1 }),
            ev(0, 4, EventKind::Join { group: 1 }),
            ev(50, 4, EventKind::RouterCrash),
            ev(100, 1, EventKind::Send { group: 1, tag: 7 }),
            ev(
                103,
                3,
                EventKind::DeliverLocal {
                    group: 1,
                    tag: 7,
                    delay: 3,
                },
            ),
        ]);
        let p = &t.convergence(1).points[0];
        assert_eq!(p.members_at_send, vec![3]);
        assert_eq!(p.converged_at, Some(103));
        assert!(t.audit().passed());
    }

    #[test]
    fn audit_flags_duplicates_and_silent_loss() {
        // Duplicate delivery is always a failure.
        let mut events = happy_trace().events().to_vec();
        events.push(ev(
            110,
            4,
            EventKind::DeliverLocal {
                group: 1,
                tag: 7,
                delay: 10,
            },
        ));
        let a = Trace::from_events(events).audit();
        assert!(!a.passed());
        assert_eq!(a.duplicates, vec![(1, 7, 4)]);

        // A missing delivery with no drop/fault anywhere is unaccounted.
        let t = Trace::from_events(vec![
            ev(0, 3, EventKind::Join { group: 1 }),
            ev(100, 1, EventKind::Send { group: 1, tag: 7 }),
        ]);
        let a = t.audit();
        assert!(!a.passed());
        assert_eq!(a.unaccounted, vec![(1, 7, 3)]);
        assert!(a.report().contains("UNACCOUNTED"));

        // The same loss with a recorded drop is explained.
        let t = Trace::from_events(vec![
            ev(0, 3, EventKind::Join { group: 1 }),
            ev(100, 1, EventKind::Send { group: 1, tag: 7 }),
            ev(
                101,
                2,
                EventKind::Drop {
                    reason: DropReason::QueueFull,
                    to: None,
                    group: Some(1),
                    tag: Some(7),
                },
            ),
        ]);
        let a = t.audit();
        assert!(a.passed());
        assert_eq!(a.missing, vec![(1, 7, 3)]);
        assert!(a.unaccounted.is_empty());
    }

    #[test]
    fn audit_flags_phantom_deliveries() {
        // A delivery whose payload was never sent is a hard violation.
        let t = Trace::from_events(vec![
            ev(0, 3, EventKind::Join { group: 1 }),
            ev(
                50,
                3,
                EventKind::DeliverLocal {
                    group: 1,
                    tag: 99,
                    delay: 5,
                },
            ),
        ]);
        let a = t.audit();
        assert!(!a.passed());
        assert_eq!(a.phantom, vec![(1, 99, 3)]);
        assert!(a.report().contains("PHANTOM"));
    }

    #[test]
    fn audit_flags_disordered_timestamps() {
        let t = Trace::from_events(vec![
            ev(100, 1, EventKind::Send { group: 1, tag: 7 }),
            ev(90, 1, EventKind::Timer { token: 1 }),
        ]);
        let a = t.audit();
        assert!(!a.passed());
        assert_eq!(a.disordered, 1);
        assert!(a.report().contains("DISORDERED"));
    }

    #[test]
    fn histograms_dedup_first_delivery() {
        let mut events = happy_trace().events().to_vec();
        events.push(ev(
            110,
            4,
            EventKind::DeliverLocal {
                group: 1,
                tag: 7,
                delay: 10,
            },
        ));
        events.push(ev(120, 0, EventKind::Repair { latency: 1200 }));
        let h = Trace::from_events(events).histograms();
        assert_eq!(h.e2e_delay.count(), 2, "duplicate delivery not recounted");
        assert_eq!(h.e2e_delay.max(), 5);
        assert_eq!(h.repair.count(), 1);
        assert_eq!(h.repair.max(), 1200);
    }

    #[test]
    fn data_journey_reconstructs_hops_and_drops() {
        let t = Trace::from_events(vec![
            ev(100, 1, EventKind::Send { group: 1, tag: 7 }),
            ev(
                103,
                0,
                EventKind::Deliver {
                    from: 1,
                    class: crate::event::TrafficClass::Data,
                    group: 1,
                    tag: 7,
                    ctl: Some(CtlKind::Data),
                },
            ),
            ev(
                104,
                0,
                EventKind::Drop {
                    reason: DropReason::ChannelLoss,
                    to: Some(4),
                    group: Some(1),
                    tag: Some(7),
                },
            ),
            ev(
                106,
                3,
                EventKind::DeliverLocal {
                    group: 1,
                    tag: 7,
                    delay: 6,
                },
            ),
            // A different tag must stay out of the journey.
            ev(200, 1, EventKind::Send { group: 1, tag: 8 }),
        ]);
        let j = t.journey(1, 7);
        assert_eq!(j.key, None, "tag 7 is a data tag");
        assert_eq!(j.steps.len(), 4);
        assert_eq!(j.chain(), vec!["send", "data", "drop", "delivered"]);
        let r = j.report();
        assert!(r.contains("journey g1 tag 7 (data):"), "{r}");
        assert!(r.contains("DROP [channel_loss] -> n4"), "{r}");
        assert_eq!(r, t.journey(1, 7).report(), "byte-stable");
        assert_eq!(t.journey_tags(1), vec![7, 8]);
    }

    #[test]
    fn join_journey_chains_to_first_delivery() {
        let tag = TraceKey::new(1, 4, 1).tag();
        let t = Trace::from_events(vec![
            ev(0, 4, EventKind::Join { group: 1 }),
            ev(
                3,
                0,
                EventKind::Deliver {
                    from: 4,
                    class: crate::event::TrafficClass::Control,
                    group: 1,
                    tag,
                    ctl: Some(CtlKind::Join),
                },
            ),
            ev(
                6,
                4,
                EventKind::Deliver {
                    from: 0,
                    class: crate::event::TrafficClass::Control,
                    group: 1,
                    tag,
                    ctl: Some(CtlKind::Branch),
                },
            ),
            ev(
                9,
                0,
                EventKind::Deliver {
                    from: 4,
                    class: crate::event::TrafficClass::Control,
                    group: 1,
                    tag,
                    ctl: Some(CtlKind::TreeAck),
                },
            ),
            ev(100, 1, EventKind::Send { group: 1, tag: 5 }),
            ev(
                104,
                4,
                EventKind::DeliverLocal {
                    group: 1,
                    tag: 5,
                    delay: 4,
                },
            ),
        ]);
        let joins = t.join_journeys(1);
        assert_eq!(joins.len(), 1);
        let j = &joins[0];
        assert_eq!(j.key, Some(TraceKey::new(1, 4, 1)));
        assert_eq!(
            j.chain(),
            vec!["join", "branch", "tree_ack", "first_delivery"]
        );
        let fd = j.first_delivery.expect("origin delivered after join");
        assert_eq!((fd.time, fd.node), (104, 4));
        let report = t.joins_report(1);
        assert!(report.contains("1 join transaction(s)"), "{report}");
        assert!(
            report.contains("first data at origin: t=104 tag 5"),
            "{report}"
        );
    }

    #[test]
    fn health_report_summarizes_samples() {
        let t = Trace::from_events(vec![ev(
            2_000,
            0,
            EventKind::TreeHealth {
                group: 1,
                trigger: crate::event::HealthTrigger::Join,
                members: 3,
                depth: 2,
                cost: 14,
                stretch_milli: 1250,
                delay_var: 6,
            },
        )]);
        assert_eq!(t.tree_health(Some(1)).len(), 1);
        assert!(t.tree_health(Some(2)).is_empty());
        let r = t.health_report();
        assert!(r.contains("group 1 tree health (1 samples):"), "{r}");
        assert!(r.contains("stretch=1.250"), "{r}");
        assert!(r.contains("delay_var=6"), "{r}");
        let none = Trace::from_events(vec![]).health_report();
        assert!(none.contains("no samples"));
    }

    #[test]
    fn summary_and_filters() {
        let t = happy_trace();
        let s = t.summary();
        assert!(s.contains("5 events"));
        assert!(s.contains("deliver_local  2"));
        assert_eq!(t.groups(), vec![1]);
        assert_eq!(t.node_events(3).len(), 2);
        assert_eq!(t.node_events(9).len(), 0);
        let back = Trace::parse(&t.to_jsonl()).unwrap();
        assert_eq!(back.events(), t.events());
    }
}
