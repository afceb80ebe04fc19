//! Every engine-driven paper artefact builds its cells as
//! `ScenarioFile` values, so any cell can be dumped to JSON, read back
//! through the schema (which denies unknown keys) and replayed by the
//! scenario runner with the same summary and the same event trace.

use scmp_bench::netperf::{sweep_cells, Protocol, TopologyKind};
use scmp_bench::scenario_file::{run_one, run_scenario, ScenarioFile};
use scmp_bench::{ablation, chaos, concentration, extra_pimsm};

/// Dump `spec`, parse the dump, and check both run identically.
fn assert_replays(name: &str, spec: &ScenarioFile) {
    let dump = serde_json::to_string(spec).unwrap();
    let back: ScenarioFile = serde_json::from_str(&dump)
        .unwrap_or_else(|e| panic!("{name}: the dump does not parse: {e}"));
    let run = run_one(spec, true).unwrap();
    let replayed = run_one(&back, true).unwrap();
    assert_eq!(
        serde_json::to_string(&run.result).unwrap(),
        serde_json::to_string(&replayed.result).unwrap(),
        "{name}: the replayed summary differs"
    );
    assert!(!run.trace.is_empty(), "{name}: no trace captured");
    assert!(
        run.trace == replayed.trace,
        "{name}: the replayed trace differs"
    );
}

/// The first cell of `cells` that runs `protocol`.
fn on(cells: Vec<ScenarioFile>, protocol: &str) -> ScenarioFile {
    let mut mine = cells.into_iter();
    mine.find(|c| c.protocol.as_deref() == Some(protocol))
        .unwrap()
}

#[test]
fn every_harness_cell_replays_from_its_dump() {
    for proto in Protocol::FIG_8_9 {
        let cell = on(
            sweep_cells(&[(TopologyKind::Arpanet, 6)], &[proto], 1),
            proto.label(),
        );
        assert_replays(&format!("fig8 {}", proto.label()), &cell);
    }
    assert_replays("extra_pimsm", &on(extra_pimsm::cells(1), "pim-sm"));
    assert_replays("concentration", &concentration::cells(1)[7]);
    let branch = ablation::branch_cells(1);
    let tree_only = &branch[1];
    assert_eq!(
        tree_only.robustness.as_ref().unwrap().tree_packets_only,
        Some(true)
    );
    assert_replays("ablation_branch", tree_only);
    assert_replays("chaos loss", &chaos::loss_scenario(0.1, 0, true));
    assert_replays("chaos partition", &chaos::partition_scenario(0));
}

#[test]
fn baselines_reject_scmp_only_sections() {
    let mut cell = on(
        sweep_cells(&[(TopologyKind::Arpanet, 4)], &[Protocol::Cbt], 1),
        "cbt",
    );
    assert!(run_scenario(&cell).is_ok());
    cell.robustness = Some(Default::default());
    let err = run_scenario(&cell).unwrap_err();
    assert!(
        err.contains("robustness") && err.contains("\"cbt\""),
        "{err}"
    );
    cell.robustness = None;
    cell.reliability = Some(Default::default());
    let err = run_scenario(&cell).unwrap_err();
    assert!(
        err.contains("reliability") && err.contains("\"cbt\""),
        "{err}"
    );
}

#[test]
fn an_unknown_protocol_lists_the_labels() {
    let json = r#"{
        "topology": { "kind": "arpanet", "seed": 1 },
        "m_router": 10,
        "protocol": "ospf",
        "events": [ { "time": 0, "node": 4, "op": "join", "group": 1 } ]
    }"#;
    let cell: ScenarioFile = serde_json::from_str(json).unwrap();
    let err = run_scenario(&cell).unwrap_err();
    assert_eq!(
        err,
        "protocol: unknown label \"ospf\" (expected one of: scmp, cbt, dvmrp, mospf, pim-sm)"
    );
}
