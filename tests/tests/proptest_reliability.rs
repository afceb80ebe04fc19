//! Property tests for the reliable-multicast tier's determinism
//! contract.
//!
//! The NACK suppression timer is the one place the tier injects
//! "randomness" (receivers de-synchronise their NACKs so a shared loss
//! does not implode the upstream router). That randomness must be a
//! pure seeded hash — never a thread-local RNG or iteration-order
//! artifact — or parallel sweep workers would produce different NACK
//! schedules than serial runs and every golden trace would rot. Two
//! layers of defence here:
//!
//! 1. the jitter hash itself is a pure function of its five inputs;
//! 2. whole reliability-on lossy runs are byte-identical between
//!    `--jobs 1` and `--jobs 2`, summaries and JSONL traces both.

use proptest::prelude::*;
use scmp_bench::scenario_file::{run_batch, ScenarioFile};
use scmp_core::router::nack_jitter;
use scmp_net::NodeId;
use scmp_sim::GroupId;

/// A fig-5-shaped lossy scenario with the reliability tier on.
fn reliable_scenario(seed: u64, loss_pct: u8) -> String {
    let loss = f64::from(loss_pct) / 100.0;
    format!(
        r#"{{
  "topology": {{ "kind": "custom", "nodes": 6, "links": [
    [0, 1, 3, 6], [0, 2, 4, 5], [0, 3, 2, 6],
    [1, 2, 3, 2], [1, 4, 9, 3], [2, 3, 4, 1], [2, 5, 7, 2]
  ]}},
  "m_router": 0,
  "robustness": {{ "join_retry": 500, "leave_retry": 500, "tree_retry": 500 }},
  "reliability": {{}},
  "channel": {{ "seed": {seed}, "default": {{ "drop": {loss} }} }},
  "events": [
    {{ "time": 0, "node": 4, "op": "join", "group": 1 }},
    {{ "time": 1000, "node": 3, "op": "join", "group": 1 }},
    {{ "time": 2000, "node": 5, "op": "join", "group": 1 }},
    {{ "time": 50000, "node": 1, "op": "send", "group": 1, "tag": 1 }},
    {{ "time": 55000, "node": 1, "op": "send", "group": 1, "tag": 2 }},
    {{ "time": 60000, "node": 1, "op": "send", "group": 1, "tag": 3 }},
    {{ "time": 65000, "node": 1, "op": "send", "group": 1, "tag": 4 }}
  ],
  "run_until": 120000
}}"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The suppression-jitter hash is a pure function: same five inputs,
    /// same output, regardless of evaluation order or repetition — and
    /// it actually spreads over the attempt axis (a constant hash would
    /// re-synchronise every receiver's retry, defeating suppression).
    #[test]
    fn nack_jitter_is_pure_and_attempt_sensitive(
        seed in any::<u64>(),
        me in 0u32..1024,
        group in 0u32..64,
        origin in 0u32..1024,
        attempt in 0u32..8,
    ) {
        let a = nack_jitter(seed, NodeId(me), GroupId(group), NodeId(origin), attempt);
        let b = nack_jitter(seed, NodeId(me), GroupId(group), NodeId(origin), attempt);
        prop_assert_eq!(a, b, "hash must be pure");
        let spread: std::collections::BTreeSet<u64> = (0..8)
            .map(|k| nack_jitter(seed, NodeId(me), GroupId(group), NodeId(origin), k))
            .collect();
        prop_assert!(spread.len() > 1, "attempts must de-synchronise");
    }
}

proptest! {
    // Each case runs the six-node scenario four times (two cells at
    // jobs 1 and at jobs 2), a few milliseconds in all; the exhaustive
    // byte-identity guard is the corpus replay in `regress`.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Reliability-on lossy runs are byte-identical across worker
    /// counts and across repeated runs: summary JSON and captured JSONL
    /// trace both. This is the replay-stability contract for the NACK
    /// suppression timers — any hidden nondeterminism in gap detection,
    /// jitter, PIT state, or cache eviction shows up here as a diff.
    #[test]
    fn reliable_runs_are_jobs_invariant(
        seed in 0u64..64,
        loss_pct in 1u8..=20,
    ) {
        let json = reliable_scenario(seed, loss_pct);
        let spec: ScenarioFile = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(format!("parse: {e}")))?;
        let specs = [spec.clone(), spec];
        let serial = run_batch(&specs, 1, true);
        let parallel = run_batch(&specs, 2, true);
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().map_err(|e| TestCaseError::fail(e.clone()))?;
            let p = p.as_ref().map_err(|e| TestCaseError::fail(e.clone()))?;
            prop_assert_eq!(
                serde_json::to_string(&s.result).unwrap(),
                serde_json::to_string(&p.result).unwrap(),
                "summary must not depend on --jobs"
            );
            prop_assert_eq!(&s.trace, &p.trace, "JSONL trace must not depend on --jobs");
        }
        // The two identical cells must also agree with each other —
        // replay stability within one batch.
        let a = &serial[0].as_ref().unwrap().result;
        let b = &serial[1].as_ref().unwrap().result;
        prop_assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }
}
