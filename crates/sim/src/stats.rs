//! Simulation metrics — the three §IV-B measurements plus correctness
//! counters used by the integration tests.

use crate::hash::FxBuildHasher;
use crate::packet::GroupId;
use scmp_net::NodeId;
use scmp_telemetry::{DropReason, Event, EventKind, Histogram};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Aggregated statistics of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Σ link-cost of every data-class packet hop ("data overhead").
    pub data_overhead: u64,
    /// Σ link-cost of every control-class packet hop ("protocol
    /// overhead").
    pub protocol_overhead: u64,
    /// Number of data-class packet hops.
    pub data_hops: u64,
    /// Number of control-class packet hops.
    pub control_hops: u64,
    /// Packets dropped (dead link/node, queue overflow, or protocol
    /// decision).
    pub drops: u64,
    /// Subset of `drops` caused by link-queue overflow (congestion).
    pub queue_drops: u64,
    /// Subset of `drops` lost by the channel model on the wire.
    pub channel_dropped: u64,
    /// Packets the channel model delivered twice.
    pub channel_duplicated: u64,
    /// Packets the channel model delayed by a reorder jitter.
    pub channel_reordered: u64,
    /// Subset of `drops` that arrived corrupted and failed the
    /// receiver's checksum.
    pub channel_corrupted: u64,
    /// Control-plane retransmissions (JOIN/LEAVE/TREE/BRANCH retries).
    pub retransmissions: u64,
    /// Standby promotions to m-router (spurious ones included).
    pub takeovers: u64,
    /// Total ticks packets spent waiting in link queues.
    pub queueing_delay_total: u64,
    /// Largest single queueing wait observed.
    pub max_queueing_delay: u64,
    /// Per (group, tag, receiver): delivery count (detects duplicates)
    /// and first-delivery end-to-end delay. One insert per local
    /// delivery, so it hashes with [`FxBuildHasher`]; nothing reads it
    /// in hash order (the report and duplicate list sort).
    deliveries: HashMap<(GroupId, u64, NodeId), (u64, u64), FxBuildHasher>,
    /// Maximum end-to-end delay seen over all deliveries.
    pub max_end_to_end_delay: u64,
    /// Failure events injected (LinkDown / RouterCrash).
    pub faults_injected: u64,
    /// Time of the most recent injected failure, if any.
    pub last_fault_at: Option<u64>,
    /// Portion of `data_overhead` accrued while the network was degraded
    /// (any node or link down).
    pub data_overhead_during_failure: u64,
    /// Portion of `protocol_overhead` accrued while degraded — the
    /// "control overhead during failure" robustness metric.
    pub control_overhead_during_failure: u64,
    /// Tree repairs completed by the m-router's repair scan.
    pub repairs: u64,
    /// Σ over repairs of (repair time − most recent failure time).
    pub repair_latency_total: u64,
    /// Largest single repair latency observed.
    pub max_repair_latency: u64,
    /// Distribution of first-delivery end-to-end delays.
    pub e2e_delay_hist: Histogram,
    /// Distribution of per-reservation link-queue waits.
    pub queueing_hist: Histogram,
    /// Distribution of repair latencies.
    pub repair_hist: Histogram,
    /// NACKs originated by receivers on the reliability tier.
    pub nacks_sent: u64,
    /// NACKs absorbed by a pending-request entry at some router
    /// (duplicate-NACK suppression).
    pub nacks_suppressed: u64,
    /// NACKs forwarded upstream after a repair-cache miss.
    pub nacks_forwarded: u64,
    /// NACKs answered from a router's local repair cache.
    pub repair_cache_hits: u64,
    /// NACKs that missed the local repair cache.
    pub repair_cache_misses: u64,
    /// Cache entries evicted by the byte cap.
    pub repair_cache_evictions: u64,
    /// Data gaps closed at receivers via the reliability tier.
    pub recoveries: u64,
    /// Valid frames carrying a message kind this build does not
    /// implement, counted and skipped at decode.
    pub unknown_kind_drops: u64,
    /// Distribution of gap-recovery latencies (gap detected → closed).
    pub recovery_hist: Histogram,
    /// Repair-scan passes the m-router served in partition-degraded
    /// mode (part of the domain unreachable, reachable side still
    /// served).
    pub partition_degraded_ticks: u64,
    /// Post-heal reconciliations completed (stranded members readopted
    /// under an epoch-guarded tree merge).
    pub reconciliations: u64,
    /// Shortest-path trees the live path view computed on demand (one
    /// per root, metric and liveness epoch actually queried; the
    /// construction-time tables are not counted). Exact work counter:
    /// identical at any `--jobs`, never part of [`SimStats::report`].
    pub spf_runs: u64,
    /// Liveness changes applied (links cut/restored, routers
    /// crashed/recovered; re-asserting a state is not a change).
    pub liveness_epochs: u64,
    /// Periodic repair-scan passes that assessed the mirrored trees.
    pub repair_scans_full: u64,
    /// Periodic repair-scan passes skipped because the liveness epoch
    /// had not moved since a scan that found nothing to mend.
    pub repair_scans_skipped: u64,
}

impl SimStats {
    /// Count one observed event. Every counter that has an event kind is
    /// bumped here and nowhere else — the engine calls this for each
    /// event whether or not a sink is listening — so folding `count`
    /// over a decoded trace reproduces the live run's counters. Kinds
    /// that count nothing (dispatches, gauges, tree health, ...) fall
    /// through. Counters *without* an event (`nacks_forwarded`,
    /// `repair_scans_*`, the overhead sums, ...) stay plain fields.
    #[inline]
    pub fn count(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::Drop { reason, .. } => {
                self.drops += 1;
                match reason {
                    DropReason::QueueFull => self.queue_drops += 1,
                    DropReason::ChannelLoss => self.channel_dropped += 1,
                    DropReason::Corrupt => self.channel_corrupted += 1,
                    DropReason::UnknownKind => self.unknown_kind_drops += 1,
                    DropReason::DeadLink
                    | DropReason::DeadNode
                    | DropReason::NoRoute
                    | DropReason::NonNeighbour
                    | DropReason::Protocol => {}
                }
            }
            EventKind::DeliverLocal { group, tag, delay } => {
                self.record_delivery(GroupId(group), tag, NodeId(ev.node), delay);
            }
            EventKind::LinkDown { .. } | EventKind::RouterCrash => self.note_fault(ev.time),
            EventKind::Repair { latency } => {
                self.repairs += 1;
                self.repair_latency_total += latency;
                self.max_repair_latency = self.max_repair_latency.max(latency);
                self.repair_hist.record(latency);
            }
            EventKind::ChannelDuplicate { .. } => self.channel_duplicated += 1,
            EventKind::ChannelReorder { .. } => self.channel_reordered += 1,
            EventKind::Retransmit { .. } => self.retransmissions += 1,
            EventKind::Takeover => self.takeovers += 1,
            EventKind::Nack { .. } => self.nacks_sent += 1,
            EventKind::NackSuppress { .. } => self.nacks_suppressed += 1,
            EventKind::RepairHit { .. } => self.repair_cache_hits += 1,
            EventKind::RepairMiss { .. } => self.repair_cache_misses += 1,
            EventKind::Recovery { latency, .. } => {
                self.recoveries += 1;
                self.recovery_hist.record(latency);
            }
            EventKind::Reconcile { .. } => self.reconciliations += 1,
            _ => {}
        }
    }

    /// Record a data payload reaching a member host.
    fn record_delivery(&mut self, group: GroupId, tag: u64, node: NodeId, delay: u64) {
        let entry = self
            .deliveries
            .entry((group, tag, node))
            .or_insert((0, delay));
        entry.0 += 1;
        if entry.0 == 1 {
            entry.1 = delay;
            self.max_end_to_end_delay = self.max_end_to_end_delay.max(delay);
            self.e2e_delay_hist.record(delay);
        }
    }

    /// Record one link-queue wait (engine-internal).
    pub fn record_queue_wait(&mut self, waited: u64) {
        self.queueing_delay_total += waited;
        self.max_queueing_delay = self.max_queueing_delay.max(waited);
        self.queueing_hist.record(waited);
    }

    /// How many times `(group, tag)` was delivered to `node`.
    pub fn delivery_count(&self, group: GroupId, tag: u64, node: NodeId) -> u64 {
        self.deliveries.get(&(group, tag, node)).map_or(0, |e| e.0)
    }

    /// First-delivery delay of `(group, tag)` at `node`, if delivered.
    pub fn delivery_delay(&self, group: GroupId, tag: u64, node: NodeId) -> Option<u64> {
        self.deliveries.get(&(group, tag, node)).map(|e| e.1)
    }

    /// Total number of distinct `(group, tag, node)` deliveries.
    pub fn distinct_deliveries(&self) -> usize {
        self.deliveries.len()
    }

    /// True iff any `(group, tag)` reached some node more than once —
    /// a forwarding-loop symptom the integration tests assert against.
    pub fn has_duplicate_deliveries(&self) -> bool {
        self.deliveries.values().any(|e| e.0 > 1)
    }

    /// Every `(group, tag, node)` delivered more than once, sorted so
    /// two identical runs report duplicates in the same order. The
    /// stress oracle pins these in failure signatures.
    pub fn duplicate_deliveries(&self) -> Vec<(GroupId, u64, NodeId)> {
        let mut dups: Vec<(GroupId, u64, NodeId)> = self
            .deliveries
            .iter()
            .filter(|(_, e)| e.0 > 1)
            .map(|(&k, _)| k)
            .collect();
        dups.sort_unstable_by_key(|&(g, t, v)| (g.0, t, v.0));
        dups
    }

    /// Every `expected` `(group, tag, receiver)` triple that never
    /// arrived, in the expectation's own order — the oracle-facing
    /// complement of [`SimStats::delivery_ratio`].
    pub fn undelivered<I>(&self, expected: I) -> Vec<(GroupId, u64, NodeId)>
    where
        I: IntoIterator<Item = (GroupId, u64, NodeId)>,
    {
        expected
            .into_iter()
            .filter(|key| self.deliveries.get(key).is_none_or(|e| e.0 == 0))
            .collect()
    }

    /// Total overhead (data + protocol).
    pub fn total_overhead(&self) -> u64 {
        self.data_overhead + self.protocol_overhead
    }

    /// Record an injected failure at `now`.
    fn note_fault(&mut self, now: u64) {
        self.faults_injected += 1;
        self.last_fault_at = Some(now);
    }

    /// Repair-cache hit rate over all NACK lookups, or 0.0 when the
    /// reliability tier never answered one.
    pub fn repair_cache_hit_rate(&self) -> f64 {
        let total = self.repair_cache_hits + self.repair_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.repair_cache_hits as f64 / total as f64
        }
    }

    /// Mean repair latency over all repairs, or 0.0 when none happened.
    pub fn mean_repair_latency(&self) -> f64 {
        if self.repairs == 0 {
            0.0
        } else {
            self.repair_latency_total as f64 / self.repairs as f64
        }
    }

    /// Fraction of `expected` `(group, tag, receiver)` triples that were
    /// delivered at least once. An empty expectation yields 1.0 — a run
    /// that offered nothing lost nothing.
    pub fn delivery_ratio<I>(&self, expected: I) -> f64
    where
        I: IntoIterator<Item = (GroupId, u64, NodeId)>,
    {
        let mut total = 0u64;
        let mut delivered = 0u64;
        for key in expected {
            total += 1;
            if self.deliveries.get(&key).is_some_and(|e| e.0 > 0) {
                delivered += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            delivered as f64 / total as f64
        }
    }

    /// A deterministic text report of the run: counters, latency
    /// quantiles, and the delivery map sorted by `(group, tag, node)` so
    /// two identical runs produce byte-identical reports regardless of
    /// `HashMap` iteration order.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "overhead: data={} ({} hops) protocol={} ({} hops) total={}",
            self.data_overhead,
            self.data_hops,
            self.protocol_overhead,
            self.control_hops,
            self.total_overhead()
        );
        let _ = writeln!(
            out,
            "drops: total={} queue={} | faults={} repairs={} max_repair_latency={}",
            self.drops,
            self.queue_drops,
            self.faults_injected,
            self.repairs,
            self.max_repair_latency
        );
        let _ = writeln!(
            out,
            "channel: dropped={} duplicated={} reordered={} corrupted={} | retransmissions={} takeovers={}",
            self.channel_dropped,
            self.channel_duplicated,
            self.channel_reordered,
            self.channel_corrupted,
            self.retransmissions,
            self.takeovers
        );
        let _ = writeln!(
            out,
            "e2e delay: p50={} p90={} p99={} max={}",
            self.e2e_delay_hist.p50(),
            self.e2e_delay_hist.p90(),
            self.e2e_delay_hist.p99(),
            self.max_end_to_end_delay
        );
        let _ = writeln!(
            out,
            "queueing: total={} p99={} max={}",
            self.queueing_delay_total,
            self.queueing_hist.p99(),
            self.max_queueing_delay
        );
        // Reliability-tier lines appear only when the tier did anything,
        // so reliability-off runs keep their golden reports byte-stable.
        if self.nacks_sent + self.nacks_suppressed + self.nacks_forwarded > 0 {
            let _ = writeln!(
                out,
                "nacks: sent={} suppressed={} forwarded={}",
                self.nacks_sent, self.nacks_suppressed, self.nacks_forwarded
            );
        }
        if self.repair_cache_hits + self.repair_cache_misses + self.repair_cache_evictions > 0 {
            let _ = writeln!(
                out,
                "repair cache: hits={} misses={} evictions={}",
                self.repair_cache_hits, self.repair_cache_misses, self.repair_cache_evictions
            );
        }
        if self.recoveries > 0 {
            let _ = writeln!(
                out,
                "recoveries: {} p50={} p99={} max={}",
                self.recoveries,
                self.recovery_hist.p50(),
                self.recovery_hist.p99(),
                self.recovery_hist.max()
            );
        }
        if self.unknown_kind_drops > 0 {
            let _ = writeln!(out, "unknown-kind frames: {}", self.unknown_kind_drops);
        }
        // Partition lines appear only when a partition was ever seen, so
        // partition-free runs keep their golden reports byte-stable.
        if self.partition_degraded_ticks + self.reconciliations > 0 {
            let _ = writeln!(
                out,
                "partition: degraded_ticks={} reconciliations={}",
                self.partition_degraded_ticks, self.reconciliations
            );
        }
        let mut keys: Vec<_> = self.deliveries.iter().collect();
        keys.sort_by_key(|&(&(g, tag, n), _)| (g.0, tag, n.0));
        let _ = writeln!(out, "deliveries: {} distinct", keys.len());
        for (&(g, tag, n), &(count, delay)) in keys {
            let _ = writeln!(
                out,
                "  g{} tag {} -> n{}: x{count} delay={delay}",
                g.0, tag, n.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, node: u32, kind: EventKind) -> Event {
        Event { time, node, kind }
    }

    #[test]
    fn delivery_tracking() {
        let mut s = SimStats::default();
        s.record_delivery(GroupId(1), 5, NodeId(2), 30);
        s.record_delivery(GroupId(1), 5, NodeId(3), 70);
        assert_eq!(s.delivery_count(GroupId(1), 5, NodeId(2)), 1);
        assert_eq!(s.delivery_delay(GroupId(1), 5, NodeId(3)), Some(70));
        assert_eq!(s.max_end_to_end_delay, 70);
        assert_eq!(s.distinct_deliveries(), 2);
        assert!(!s.has_duplicate_deliveries());
    }

    #[test]
    fn duplicates_detected_and_delay_kept_first() {
        let mut s = SimStats::default();
        s.record_delivery(GroupId(1), 5, NodeId(2), 30);
        s.record_delivery(GroupId(1), 5, NodeId(2), 90);
        assert!(s.has_duplicate_deliveries());
        assert_eq!(s.delivery_count(GroupId(1), 5, NodeId(2)), 2);
        assert_eq!(s.delivery_delay(GroupId(1), 5, NodeId(2)), Some(30));
        // Duplicate delivery does not inflate the max-delay metric.
        assert_eq!(s.max_end_to_end_delay, 30);
    }

    #[test]
    fn fault_and_repair_accounting() {
        let mut s = SimStats::default();
        assert_eq!(s.mean_repair_latency(), 0.0);
        s.note_fault(1_000);
        s.note_fault(2_000);
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.last_fault_at, Some(2_000));
        s.count(&ev(2_700, 0, EventKind::Repair { latency: 700 }));
        assert_eq!(s.repairs, 1);
        assert_eq!(s.repair_latency_total, 700);
        assert_eq!(s.max_repair_latency, 700);
        s.count(&ev(2_900, 0, EventKind::Repair { latency: 900 }));
        assert_eq!(s.repair_latency_total, 700 + 900);
        assert_eq!(s.max_repair_latency, 900);
        assert!((s.mean_repair_latency() - 800.0).abs() < 1e-9);
    }

    #[test]
    fn delivery_ratio_over_expected_triples() {
        let mut s = SimStats::default();
        s.record_delivery(GroupId(1), 0, NodeId(2), 10);
        s.record_delivery(GroupId(1), 1, NodeId(2), 10);
        // Expected: both delivered plus one the run never saw.
        let expected = vec![
            (GroupId(1), 0, NodeId(2)),
            (GroupId(1), 1, NodeId(2)),
            (GroupId(1), 1, NodeId(3)),
        ];
        let r = s.delivery_ratio(expected);
        assert!((r - 2.0 / 3.0).abs() < 1e-9);
        // Nothing expected → perfect ratio by convention.
        assert_eq!(s.delivery_ratio(std::iter::empty()), 1.0);
    }

    #[test]
    fn repair_returns_latency_and_feeds_histogram() {
        let mut s = SimStats::default();
        // Only failures open a repair window: restores do not.
        s.count(&ev(900, 0, EventKind::LinkUp { a: 0, b: 1 }));
        s.count(&ev(950, 4, EventKind::RouterRecover));
        assert_eq!(s.last_fault_at, None, "no fault injected yet");
        s.count(&ev(1_000, 0, EventKind::LinkDown { a: 0, b: 1 }));
        s.count(&ev(1_200, 4, EventKind::RouterCrash));
        assert_eq!((s.faults_injected, s.last_fault_at), (2, Some(1_200)));
        s.count(&ev(2_000, 0, EventKind::Repair { latency: 800 }));
        assert_eq!(s.repairs, 1);
        assert_eq!(s.repair_hist.count(), 1);
        assert_eq!(s.repair_hist.max(), 800);
    }

    #[test]
    fn drops_are_counted_once_and_by_reason() {
        let mut s = SimStats::default();
        for &reason in DropReason::ALL {
            let kind = EventKind::Drop {
                reason,
                to: None,
                group: None,
                tag: None,
            };
            s.count(&ev(0, 1, kind));
        }
        assert_eq!(s.drops, DropReason::ALL.len() as u64);
        assert_eq!(
            (
                s.queue_drops,
                s.channel_dropped,
                s.channel_corrupted,
                s.unknown_kind_drops
            ),
            (1, 1, 1, 1)
        );
        // A delivery is keyed by the node the event fired at.
        let local = EventKind::DeliverLocal {
            group: 1,
            tag: 5,
            delay: 30,
        };
        s.count(&ev(40, 2, local));
        assert_eq!(s.delivery_delay(GroupId(1), 5, NodeId(2)), Some(30));
    }

    #[test]
    fn histograms_follow_the_counters() {
        let mut s = SimStats::default();
        s.record_delivery(GroupId(1), 1, NodeId(2), 30);
        s.record_delivery(GroupId(1), 1, NodeId(2), 90); // duplicate: not re-recorded
        s.record_queue_wait(0);
        s.record_queue_wait(12);
        assert_eq!(s.e2e_delay_hist.count(), 1);
        assert_eq!(s.e2e_delay_hist.max(), 30);
        assert_eq!(s.queueing_hist.count(), 2);
        assert_eq!(s.queueing_delay_total, 12);
        assert_eq!(s.max_queueing_delay, 12);
    }

    #[test]
    fn report_is_sorted_and_deterministic() {
        let mut s = SimStats::default();
        // Inserted out of order on purpose: the report must sort.
        s.record_delivery(GroupId(2), 1, NodeId(5), 10);
        s.record_delivery(GroupId(1), 9, NodeId(3), 20);
        s.record_delivery(GroupId(1), 2, NodeId(4), 30);
        let r = s.report();
        assert_eq!(r, s.report());
        let a = r.find("g1 tag 2 -> n4").expect("first key");
        let b = r.find("g1 tag 9 -> n3").expect("second key");
        let c = r.find("g2 tag 1 -> n5").expect("third key");
        assert!(a < b && b < c, "delivery map sorted by (group, tag, node)");
        assert!(r.contains("e2e delay: p50="));
    }

    #[test]
    fn reliability_lines_appear_only_when_the_tier_ran() {
        let quiet = SimStats::default();
        let r = quiet.report();
        assert!(!r.contains("nacks:"), "{r}");
        assert!(!r.contains("repair cache:"), "{r}");
        assert!(!r.contains("recoveries:"), "{r}");
        assert!(!r.contains("unknown-kind"), "{r}");

        let mut s = SimStats {
            nacks_sent: 3,
            nacks_suppressed: 1,
            repair_cache_hits: 2,
            repair_cache_misses: 1,
            unknown_kind_drops: 1,
            ..Default::default()
        };
        for latency in [700, 300] {
            let kind = EventKind::Recovery {
                group: 1,
                origin: 13,
                seq: 4,
                tag: 5,
                latency,
            };
            s.count(&ev(0, 3, kind));
        }
        assert_eq!(s.recoveries, 2);
        assert_eq!(s.recovery_hist.max(), 700);
        assert!((s.repair_cache_hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        let r = s.report();
        assert!(r.contains("nacks: sent=3 suppressed=1 forwarded=0"), "{r}");
        assert!(
            r.contains("repair cache: hits=2 misses=1 evictions=0"),
            "{r}"
        );
        assert!(r.contains("recoveries: 2"), "{r}");
        assert!(r.contains("unknown-kind frames: 1"), "{r}");
    }

    #[test]
    fn totals() {
        let s = SimStats {
            data_overhead: 10,
            protocol_overhead: 5,
            ..Default::default()
        };
        assert_eq!(s.total_overhead(), 15);
        assert_eq!(s.delivery_count(GroupId(9), 9, NodeId(9)), 0);
        assert_eq!(s.delivery_delay(GroupId(9), 9, NodeId(9)), None);
    }
}
