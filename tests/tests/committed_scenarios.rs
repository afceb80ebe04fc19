//! Every committed scenario file — `examples/scenarios/*.json` and
//! `tests/scenarios/*.json` — parses against the current schema and
//! runs, so a schema edit cannot strand one. The pinned STRESS corpus
//! (`tests/scenarios/corpus/`) replays in `corpus_replay.rs`.

use scmp_bench::scenario_file::{run_one, ScenarioFile};
use std::path::{Path, PathBuf};

/// The `*.json` files directly inside `dir` (relative to the repo
/// root), in name order.
fn scenario_files(dir: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(dir);
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut files: Vec<PathBuf> = entries
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_committed_scenario_file_runs() {
    let examples = scenario_files("examples/scenarios");
    let tests = scenario_files("tests/scenarios");
    assert!(
        examples.len() >= 4 && !tests.is_empty(),
        "scenario files found"
    );
    for path in examples.iter().chain(&tests) {
        let name = path.display();
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let spec: ScenarioFile =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = run_one(&spec, false).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            run.result.expected_deliveries > 0,
            "{name}: the timeline expects deliveries"
        );
        assert_eq!(
            run.result.m_routers_at_end.len(),
            1,
            "{name}: one m-router at the end"
        );
    }
}
