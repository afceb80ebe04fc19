//! Determinism regression for the event queue: two runs of the same
//! seeded failstorm must produce byte-identical traces.
//!
//! The golden JSONL test (`telemetry.rs`) pins one scenario's exact
//! output; this one guards the ordering contract itself — `(time, seq)` — under the
//! conditions where an arena-backed heap could drift: bursts of events
//! scheduled on the *same tick* (tie-broken only by insertion sequence),
//! faults rewiring the topology mid-run, and a finite-capacity model
//! backlogging links so transmission completions collide too.

use scmp_core::router::ScmpConfig;
use scmp_integration::{scenario, G};
use scmp_net::NodeId;
use scmp_protocols::build_scmp_engine;
use scmp_sim::{AppEvent, CapacityModel, FaultKind, FaultPlan, RingSink};

/// Run the failstorm once and render the complete trace.
fn run_failstorm() -> Vec<String> {
    let sc = scenario(42, 25, 0);
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.repair_interval = 2_000;
    cfg.join_retry = 5_000;
    cfg.leave_retry = 5_000;
    let mut e = build_scmp_engine(sc.topo.clone(), cfg);
    e.set_sink(Box::new(RingSink::new(1 << 20)));
    e.set_capacity(CapacityModel::uniform(50, 6));

    // Same-tick join burst: every ordering decision inside one tick
    // falls back to the sequence counter.
    let members: Vec<NodeId> = sc.topo.nodes().filter(|v| (1..=8).contains(&v.0)).collect();
    for &m in &members {
        e.schedule_app(0, m, AppEvent::Join(G));
    }
    // Cut a real tree-adjacent link, crash a member DR, restore both.
    let neighbour = sc.topo.neighbors(NodeId(0))[0].to;
    let plan = FaultPlan::new()
        .at(
            30_000,
            FaultKind::LinkDown {
                a: 0,
                b: neighbour.0,
            },
        )
        .at(45_000, FaultKind::RouterCrash { node: members[0].0 })
        .at(60_000, FaultKind::RouterRecover { node: members[0].0 })
        .at(
            70_000,
            FaultKind::LinkUp {
                a: 0,
                b: neighbour.0,
            },
        );
    e.schedule_fault_plan(&plan);
    // Same-tick send bursts from several sources, landing before,
    // during and after the failures.
    for (burst, t) in [(1u64, 20_000u64), (2, 50_000), (3, 80_000)] {
        for (i, &src) in members.iter().take(4).enumerate() {
            e.schedule_app(
                t,
                src,
                AppEvent::Send {
                    group: G,
                    tag: burst * 10 + i as u64,
                },
            );
        }
    }
    e.run_until(150_000);

    e.events().iter().map(|ev| ev.to_jsonl()).collect()
}

/// The sweep executor's contract: the merged report and the
/// concatenated per-cell JSONL trace of the Fig. 8/9 matrix must be
/// byte-identical whatever the worker count.
#[test]
fn parallel_netperf_sweep_is_byte_identical_to_serial() {
    let serial = scmp_bench::netperf::run_suite_jobs(1, 1, true).unwrap();
    let parallel = scmp_bench::netperf::run_suite_jobs(1, 4, true).unwrap();
    assert_eq!(
        serde_json::to_string(&serial.points).unwrap(),
        serde_json::to_string(&parallel.points).unwrap(),
        "report JSON must not depend on --jobs"
    );
    assert!(!serial.jsonl.is_empty(), "traced suite captures events");
    assert_eq!(
        serial.jsonl, parallel.jsonl,
        "concatenated JSONL must not depend on --jobs"
    );
}

/// Same contract for scenario batches: several copies of the repo's
/// failstorm scenario, fanned over 4 workers, must reproduce the serial
/// summaries and traces byte for byte.
#[test]
fn parallel_failstorm_batch_is_byte_identical_to_serial() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../examples/scenarios/failstorm.json"
    ))
    .expect("failstorm scenario present");
    let spec: scmp_bench::scenario_file::ScenarioFile =
        serde_json::from_str(&json).expect("failstorm scenario parses");
    let specs = vec![spec.clone(), spec.clone(), spec];
    let serial = scmp_bench::scenario_file::run_batch(&specs, 1, true);
    let parallel = scmp_bench::scenario_file::run_batch(&specs, 4, true);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        let s = s.as_ref().expect("failstorm runs clean");
        let p = p.as_ref().expect("failstorm runs clean");
        assert_eq!(
            serde_json::to_string(&s.result).unwrap(),
            serde_json::to_string(&p.result).unwrap(),
            "scenario summary must not depend on jobs"
        );
        assert!(!s.trace.is_empty(), "captured trace is non-empty");
        assert_eq!(s.trace, p.trace, "captured JSONL must not depend on jobs");
    }
}

#[test]
fn failstorm_trace_is_byte_identical_across_runs() {
    let first = run_failstorm();
    let second = run_failstorm();
    assert!(!first.is_empty(), "scenario produced no trace");
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "trace diverges at line {}", i + 1);
    }
    assert_eq!(
        first.len(),
        second.len(),
        "trace length differs between runs"
    );
}
