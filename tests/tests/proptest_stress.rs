//! Property tests for the STRESS generator / scenario-schema contract:
//! whatever point the search can visit, the generated scenario must
//! survive strict schema validation and the JSON round trip must be
//! lossless — a generator/schema drift here would make pinned corpus
//! reproducers diverge from what the search actually ran.

use proptest::prelude::*;
use scmp_bench::scenario_file::{expected_deliveries, ScenarioFile};
use scmp_bench::stress::{synthesize, StressPoint, ARPANET, FIG5, SENDS};

fn point(
    topo: u8,
    seed: u64,
    knobs: (u8, u8, u8, u8),
    crash: bool,
    sched: (u8, u8, u8, u8),
    families: (u8, u8),
) -> StressPoint {
    StressPoint {
        topo,
        seed,
        loss: knobs.0,
        dup: knobs.1,
        reorder: knobs.2,
        flaps: knobs.3,
        crash,
        churn: sched.0,
        retry: sched.1,
        repair: sched.2,
        tolerance: sched.3,
        partition: families.0,
        outage: families.1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// generator → JSON → `scenario_file` parse → JSON is the identity,
    /// and every generated scenario passes strict unknown-key
    /// validation.
    #[test]
    fn generated_scenarios_round_trip_and_validate(
        topo in FIG5..=ARPANET,
        seed in 0u64..64,
        knobs in (0u8..16, 0u8..6, 0u8..5, 0u8..5),
        crash in any::<bool>(),
        sched in (0u8..5, 0u8..5, 0u8..5, 0u8..6),
        families in (0u8..4, 0u8..4),
    ) {
        let p = point(topo, seed, knobs, crash, sched, families);
        let json = serde_json::to_string(&synthesize(&p))
            .map_err(|e| TestCaseError::fail(format!("serialize: {e}")))?;
        let parsed = serde_json::from_str::<ScenarioFile>(&json);
        prop_assert!(
            parsed.is_ok(),
            "generated scenario failed schema validation: {:?}",
            parsed
        );
        let parsed = parsed.unwrap();
        let reserialized = serde_json::to_string(&parsed)
            .map_err(|e| TestCaseError::fail(format!("serialize: {e}")))?;
        prop_assert_eq!(&reserialized, &json, "round trip must be lossless");
    }

    /// The synthesized timeline always owes every payload to somebody:
    /// churn cycles leave *and* rejoin, so at each of the [`SENDS`]
    /// sends at least one member is subscribed — a scenario whose
    /// delivery expectations are vacuous would make the oracle blind.
    #[test]
    fn generated_timelines_keep_expectations_non_vacuous(
        topo in FIG5..=ARPANET,
        seed in 0u64..64,
        knobs in (0u8..16, 0u8..6, 0u8..5, 0u8..5),
        crash in any::<bool>(),
        sched in (0u8..5, 0u8..5, 0u8..5, 0u8..6),
        families in (0u8..4, 0u8..4),
    ) {
        let p = point(topo, seed, knobs, crash, sched, families);
        let spec = synthesize(&p);
        let (sent, expected) = expected_deliveries(&spec).unwrap();
        prop_assert_eq!(sent.len() as u64, SENDS);
        let per_send = expected.len() as u64 / SENDS;
        prop_assert!(
            per_send >= 2,
            "every send must be owed to >= 2 members, got {} expectations over {} sends",
            expected.len(),
            SENDS
        );
    }
}
