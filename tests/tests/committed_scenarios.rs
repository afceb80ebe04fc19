//! Every committed scenario file — `examples/scenarios/*.json` and
//! `tests/scenarios/*.json` — parses against the current schema, runs,
//! and draws no hard verdict from the STRESS oracle, so a schema edit
//! cannot strand one and a protocol bug cannot hide in one. The pinned
//! STRESS corpus (`tests/scenarios/corpus/`) replays in
//! `corpus_replay.rs`.

use scmp_bench::scenario_file::{run_one, Run, ScenarioFile};
use scmp_bench::stress::{judge, Evaluation};
use scmp_sim::{ChannelPlan, ChannelSpec};
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

/// Parse the scenario file at `path`.
fn load(path: &Path) -> ScenarioFile {
    let name = path.display();
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Run `spec` with its trace captured and judge the run, panicking
/// with `name` on error.
fn run(name: &str, spec: &ScenarioFile) -> (Run, Evaluation) {
    let run = run_one(spec, true).unwrap_or_else(|e| panic!("{name}: {e}"));
    let ev = judge(spec, &run).unwrap_or_else(|e| panic!("{name}: {e}"));
    (run, ev)
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
        let name = path.display().to_string();
        let (_, ev) = run(&name, &load(path));
        assert!(ev.hard.is_empty(), "{name}: hard verdict {:?}", ev.hard);
        let result = ev.result;
        assert!(
            result.expected_deliveries > 0,
            "{name}: the timeline expects deliveries"
        );
        assert_eq!(
            result.m_routers_at_end.len(),
            1,
            "{name}: one m-router at the end"
        );
    }
}

/// A channel that delivers every packet twice changes nothing a member
/// sees: the same payloads reach the same receivers, no sooner or later,
/// over the same data transmissions, and no member hears one twice. Only
/// the control-plane transmission count may grow.
#[test]
fn duplicated_packets_change_no_delivery() {
    for path in scenario_files("examples/scenarios") {
        let name = path.display().to_string();
        let clean_spec = load(&path);
        assert!(
            clean_spec.channel.is_none(),
            "{name}: already has a channel"
        );
        let mut dup_spec = clean_spec.clone();
        dup_spec.channel = Some(ChannelPlan {
            default: Some(ChannelSpec {
                duplicate: 1.0,
                ..ChannelSpec::default()
            }),
            ..ChannelPlan::default()
        });
        let ((clean, _), (dup, verdict)) = (run(&name, &clean_spec), run(&name, &dup_spec));
        let (c, d) = (&clean.result, &dup.result);
        assert!(d.channel_duplicated > 0, "{name}: the channel duplicated");
        assert_eq!(d.delivery_ratio, c.delivery_ratio, "{name}");
        let per_payload = |r: &Run| -> Vec<_> {
            let lines = r.result.deliveries.iter();
            lines.map(|l| (l.group, l.tag, l.receivers)).collect()
        };
        assert_eq!(per_payload(&dup), per_payload(&clean), "{name}");
        assert_eq!(d.data_overhead, c.data_overhead, "{name}");
        assert_eq!(d.max_end_to_end_delay, c.max_end_to_end_delay, "{name}");
        assert_eq!(verdict.duplicate_deliveries, 0, "{name}");
    }
}
