//! Run JSON scenario files on the full SCMP protocol:
//! `cargo run -p scmp-bench --bin scenario -- a.json [b.json ...] [--jobs N]`
//!
//! One file behaves as before (the file's `telemetry.jsonl` path streams
//! straight to disk). Several files fan out over the sweep worker pool;
//! results print in argument order and are byte-identical to `--jobs 1`,
//! and each scenario's `telemetry.jsonl` file — if requested — is
//! written from its captured in-memory trace after the run, so workers
//! never share file handles. Every file is parsed before anything runs;
//! one the schema rejects exits 1 with `<file>: scenario error: ...`.

use scmp_bench::scenario_file::{run_batch, run_scenario, ScenarioFile};
use scmp_bench::sweep;

fn main() {
    let (paths, jobs) = sweep::take_jobs_arg(std::env::args().skip(1).collect());
    if paths.is_empty() {
        eprintln!("usage: scenario <file.json> [more.json ...] [--jobs N]");
        std::process::exit(2);
    }
    let specs: Vec<ScenarioFile> = paths
        .iter()
        .map(|path| {
            let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            serde_json::from_str(&json).unwrap_or_else(|e| {
                eprintln!("{path}: scenario error: {e}");
                std::process::exit(1);
            })
        })
        .collect();

    if specs.len() == 1 {
        match run_scenario(&specs[0]) {
            Ok(result) => println!(
                "{}",
                serde_json::to_string_pretty(&result).expect("serialisable")
            ),
            Err(e) => {
                eprintln!("scenario error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let outcomes = run_batch(&specs, sweep::resolve_jobs(jobs), true);
    let mut failed = false;
    for ((path, spec), outcome) in paths.iter().zip(&specs).zip(outcomes) {
        match outcome {
            Ok(run) => {
                if let Some(dest) = spec.telemetry.as_ref().and_then(|t| t.jsonl.as_ref()) {
                    if let Err(e) = std::fs::write(dest, &run.trace) {
                        eprintln!("{path}: telemetry jsonl {dest:?}: {e}");
                        failed = true;
                    }
                }
                println!(
                    "{}",
                    serde_json::to_string_pretty(&run.result).expect("serialisable")
                );
            }
            Err(e) => {
                eprintln!("{path}: scenario error: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
