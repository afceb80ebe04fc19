//! Telemetry integration: golden JSONL snapshot, sink-parity, and the
//! inspector replaying engine statistics from a trace file alone.
//!
//! The golden file pins the structured event stream of the fault-storm
//! scenario — with gauge sampling on, so the schema of every event kind
//! is exercised. Refresh after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p scmp-integration --test telemetry
//! ```

use scmp_core::router::{ReliabilityConfig, ScmpConfig, ScmpRouter};
use scmp_integration::G;
use scmp_net::topology::examples::fig5;
use scmp_net::NodeId;
use scmp_protocols::build_scmp_engine;
use scmp_sim::{
    AppEvent, ChannelModel, ChannelPlan, ChannelSpec, Engine, FaultKind, FaultPlan, NullSink,
    RingSink, SimStats,
};
use scmp_telemetry::{decode_events, encode_events, DropReason, EventKind, Trace};

const GOLDEN: &str = include_str!("../golden/failstorm_events.jsonl");

enum Sink {
    Default,
    Null,
    Ring,
}

/// The pinned fault-storm scenario — Fig. 5, repair scan on, a link cut
/// that severs the tree, a router crash/recover cycle, and data landing
/// before, during and after the failures — with the chosen sink
/// installed and the gauge sampler on.
fn run_pinned_scenario(sink: Sink) -> Engine<ScmpRouter> {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = 2_000;
    cfg.join_retry = 5_000;
    cfg.leave_retry = 5_000;
    let mut e = build_scmp_engine(fig5(), cfg);
    match sink {
        Sink::Default => {}
        Sink::Null => e.set_sink(Box::new(NullSink)),
        Sink::Ring => e.set_sink(Box::new(RingSink::new(1 << 16))),
    }
    e.set_gauge_interval(10_000);

    for (t, n) in [(0u64, 4u32), (1_000, 3), (2_000, 5)] {
        e.schedule_app(t, NodeId(n), AppEvent::Join(G));
    }
    let plan = FaultPlan::new()
        .at(20_000, FaultKind::LinkDown { a: 0, b: 2 })
        .at(40_000, FaultKind::RouterCrash { node: 4 })
        .at(50_000, FaultKind::RouterRecover { node: 4 })
        .at(60_000, FaultKind::LinkUp { a: 0, b: 2 });
    e.schedule_fault_plan(&plan);
    e.schedule_app(51_000, NodeId(4), AppEvent::Join(G));
    for (tag, t) in [(1u64, 10_000u64), (2, 30_000), (3, 55_000), (4, 70_000)] {
        e.schedule_app(t, NodeId(1), AppEvent::Send { group: G, tag });
    }
    e.run_until(80_000);
    e
}

#[test]
fn pinned_scenario_matches_golden_jsonl() {
    let mut e = run_pinned_scenario(Sink::Ring);
    e.flush_telemetry();
    let got = encode_events(&e.events());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/failstorm_events.jsonl");
        std::fs::write(path, &got).expect("write golden file");
        return;
    }
    for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "JSONL trace diverges at line {} (UPDATE_GOLDEN=1 to refresh)",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "trace length changed"
    );
}

/// Telemetry observes, never steers: the default (telemetry off), an
/// explicit `NullSink`, and a recording `RingSink` all leave the
/// simulation itself bit-identical. Journey stamping (trace keys in
/// every packet header, tree-health probes, drop keying) must not
/// shift a single dispatch whether or not a sink is watching — the
/// dispatch count and the queue's high-water mark are compared exactly
/// alongside the full stats report.
#[test]
fn sinks_do_not_perturb_the_simulation() {
    let base = run_pinned_scenario(Sink::Default);
    let null = run_pinned_scenario(Sink::Null);
    let ring = run_pinned_scenario(Sink::Ring);
    for other in [&null, &ring] {
        let (a, b) = (base.stats(), other.stats());
        assert_eq!(a.data_overhead, b.data_overhead);
        assert_eq!(a.protocol_overhead, b.protocol_overhead);
        assert_eq!(a.max_end_to_end_delay, b.max_end_to_end_delay);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.max_repair_latency, b.max_repair_latency);
        assert_eq!(event_counters(a), event_counters(b));
        assert_eq!(a.report(), b.report());
        assert_eq!(
            base.peak_queue_depth(),
            other.peak_queue_depth(),
            "a sink changed the event queue's shape"
        );
    }
    // The disabled paths record nothing; the ring records everything.
    assert!(base.events().is_empty());
    assert!(null.events().is_empty());
    assert!(!ring.events().is_empty());
}

/// The inspector recomputes the engine's own histograms and delivery
/// picture purely from the exported event stream.
#[test]
fn inspector_replays_engine_statistics_from_the_trace() {
    let e = run_pinned_scenario(Sink::Ring);
    let trace = Trace::from_events(e.events());
    let stats = e.stats();

    let hists = trace.histograms();
    assert_eq!(hists.e2e_delay.count(), stats.e2e_delay_hist.count());
    assert_eq!(hists.e2e_delay.max(), stats.e2e_delay_hist.max());
    assert_eq!(hists.e2e_delay.p50(), stats.e2e_delay_hist.p50());
    assert_eq!(hists.e2e_delay.p99(), stats.e2e_delay_hist.p99());
    assert_eq!(hists.repair.count(), stats.repair_hist.count());
    assert_eq!(hists.repair.max(), stats.repair_hist.max());
    assert_eq!(hists.repair.max(), stats.max_repair_latency);

    // Convergence: every send reached the members alive at send time.
    let conv = trace.convergence(G.0);
    assert_eq!(conv.points.len(), 4);
    for p in &conv.points {
        assert!(
            p.converged_at.is_some(),
            "tag {} never converged: {:?}",
            p.tag,
            p
        );
    }
}

/// Every counter that has an event kind, by name.
fn event_counters(s: &SimStats) -> [(&'static str, u64); 14] {
    [
        ("drops", s.drops),
        ("queue_drops", s.queue_drops),
        ("channel_dropped", s.channel_dropped),
        ("channel_corrupted", s.channel_corrupted),
        ("channel_duplicated", s.channel_duplicated),
        ("channel_reordered", s.channel_reordered),
        ("retransmissions", s.retransmissions),
        ("takeovers", s.takeovers),
        ("nacks_sent", s.nacks_sent),
        ("nacks_suppressed", s.nacks_suppressed),
        ("repair_cache_hits", s.repair_cache_hits),
        ("repair_cache_misses", s.repair_cache_misses),
        ("recoveries", s.recoveries),
        ("reconciliations", s.reconciliations),
    ]
}

/// A reliable-tier run over a channel that loses 10 % of packets (and
/// duplicates, corrupts and reorders a few), recorded in full.
fn run_lossy_reliable_scenario() -> Engine<ScmpRouter> {
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.join_retry = 500;
    cfg.leave_retry = 500;
    cfg.tree_retry = 500;
    cfg.reliability = Some(ReliabilityConfig::default());
    let mut e = build_scmp_engine(fig5(), cfg);
    e.set_sink(Box::new(RingSink::new(1 << 20)));
    let plan = ChannelPlan {
        seed: 7,
        default: Some(ChannelSpec {
            drop: 0.10,
            duplicate: 0.03,
            corrupt: 0.03,
            reorder_window: 3,
        }),
        links: Vec::new(),
    };
    e.set_channel(ChannelModel::from_plan(&plan).unwrap());
    for (k, m) in [3u32, 4, 5].into_iter().enumerate() {
        e.schedule_app(k as u64 * 1_000, NodeId(m), AppEvent::Join(G));
    }
    for tag in 1..=200u64 {
        e.schedule_app(
            40_000 + tag * 500,
            NodeId(1),
            AppEvent::Send { group: G, tag },
        );
    }
    // Membership churn under the stream, so TREE/BRANCH installs cross
    // the lossy links too and some need retransmitting.
    for round in 0..10u64 {
        let t = 45_000 + round * 9_000;
        e.schedule_app(t, NodeId(4), AppEvent::Leave(G));
        e.schedule_app(t + 3_000, NodeId(4), AppEvent::Join(G));
    }
    e.run_until(400_000);
    e
}

/// The statistics are a fold over the event stream: replaying
/// `SimStats::count` over a run's *decoded* JSONL reproduces every
/// event-backed counter of the live engine, and the trace's drop events,
/// grouped by the reason they name, are the drop counters.
#[test]
fn stats_replay_from_the_trace() {
    let failstorm = run_pinned_scenario(Sink::Ring);
    let lossy = run_lossy_reliable_scenario();
    for (name, e) in [("failstorm", &failstorm), ("lossy", &lossy)] {
        let live = e.stats();
        let events = decode_events(&encode_events(&e.events())).expect("trace decodes");
        let mut replayed = SimStats::default();
        for ev in &events {
            replayed.count(ev);
        }
        assert_eq!(event_counters(&replayed), event_counters(live), "{name}");
        // The delivery picture and the fault count replay too.
        assert_eq!(replayed.distinct_deliveries(), live.distinct_deliveries());
        assert_eq!(replayed.max_end_to_end_delay, live.max_end_to_end_delay);
        assert_eq!(replayed.faults_injected, live.faults_injected);

        let drops_for = |want: &[DropReason]| {
            events
                .iter()
                .filter(|ev| matches!(ev.kind, EventKind::Drop { reason, .. } if want.contains(&reason)))
                .count() as u64
        };
        assert_eq!(drops_for(DropReason::ALL), live.drops, "{name}");
        assert_eq!(drops_for(&[DropReason::QueueFull]), live.queue_drops);
        assert_eq!(drops_for(&[DropReason::ChannelLoss]), live.channel_dropped);
        assert_eq!(drops_for(&[DropReason::Corrupt]), live.channel_corrupted);
    }
    // The failstorm exercises the fault side of the vocabulary ...
    assert!(failstorm.stats().reconciliations > 0 && failstorm.stats().drops > 0);
    // ... and the lossy run every channel and reliability counter.
    let s = lossy.stats();
    for (counter, n) in event_counters(s) {
        let quiet = ["queue_drops", "takeovers", "reconciliations"];
        assert_eq!(n == 0, quiet.contains(&counter), "lossy {counter} = {n}");
    }
}

/// The committed golden trace itself audits clean: no duplicate
/// delivery, and all loss is explained by recorded drops/faults.
#[test]
fn golden_trace_audits_clean() {
    let trace = Trace::parse(GOLDEN).expect("golden JSONL parses");
    let audit = trace.audit();
    assert!(audit.passed(), "golden audit failed:\n{}", audit.report());
    assert_eq!(audit.sends, 4);
    assert!(audit.faults >= 4, "all four injected faults recorded");
    // Gauge samples survived the round trip.
    assert!(!trace.gauges().is_empty());
}
