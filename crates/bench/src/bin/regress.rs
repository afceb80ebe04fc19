//! `regress` — the deterministic regression gate (see
//! `scmp_bench::regress`).
//!
//! ```text
//! regress [--smoke] [--jobs N]
//!
//!   --smoke      CI mode: 1 chaos seed, no regress.json write
//!   --jobs N     worker count for the parallel replays
//!                (default SCMP_JOBS / core count)
//! ```
//!
//! Replays the pinned scenario corpus serially and on a worker pool and
//! requires byte-identical results and traces, regenerates every
//! committed paper artefact and the full STRESS search and requires
//! each to match `bench_results/` byte for byte, then re-runs the chaos
//! sweep against the reliability and partition bands of
//! `bench_results/chaos.json`. Full mode writes
//! the verdict to `bench_results/regress.json`. Exits 1 on any failed
//! check or guard mismatch, 2 on any other argument.

use scmp_bench::scenario_file::{self, ScenarioFile};
use scmp_bench::stress::{self, CorpusEntry, SearchConfig};
use scmp_bench::sweep::{reject_leftovers, resolve_jobs, take_flag, take_jobs_arg};
use scmp_bench::{regress, report, reproduce};
use std::path::Path;
use std::process::ExitCode;

/// Replay the pinned scenario corpus serially and on `jobs` workers;
/// any difference in results or traces means the simulation drifted
/// from determinism and no band below is meaningful.
fn corpus_byte_identity(jobs: usize) -> Result<usize, String> {
    let dir = Path::new("tests/scenarios/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let specs: Vec<ScenarioFile> = paths
        .iter()
        .map(|p| {
            let json = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            CorpusEntry::parse(&json)
                .map(|entry| entry.scenario)
                .map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect::<Result<_, _>>()?;
    if specs.is_empty() {
        return Err(format!("{}: no corpus scenarios", dir.display()));
    }
    let serial = scenario_file::run_batch(&specs, 1, true);
    let parallel = scenario_file::run_batch(&specs, jobs.max(2), true);
    for ((s, p), path) in serial.iter().zip(&parallel).zip(&paths) {
        let identical = match (s, p) {
            (Ok(s), Ok(p)) => {
                serde_json::to_string(&s.result) == serde_json::to_string(&p.result)
                    && s.trace == p.trace
            }
            (Err(e), _) | (_, Err(e)) => return Err(format!("{}: {e}", path.display())),
        };
        if !identical {
            return Err(format!(
                "{}: serial and parallel replay diverged",
                path.display()
            ));
        }
    }
    Ok(specs.len())
}

/// Re-run the full STRESS search (the `stress` bin's default) and
/// compare it with the committed `bench_results/stress.json`: a change
/// that moves a boundary, or the search's evaluation count, fails here
/// naming the first line that differs.
fn stress_record(jobs: usize) -> Result<u64, String> {
    let rep = stress::search(&SearchConfig::full(0), jobs);
    let json = report::to_json(&rep)?;
    reproduce::compare(Path::new("bench_results"), &[("stress.json".into(), json)])?;
    Ok(rep.evaluations)
}

fn main() -> ExitCode {
    let (mut args, jobs_flag) = take_jobs_arg(std::env::args().skip(1).collect());
    let smoke = take_flag(&mut args, "--smoke");
    reject_leftovers(&args);

    let jobs = resolve_jobs(jobs_flag);
    match corpus_byte_identity(jobs) {
        Ok(n) => println!("corpus guard: {n} scenarios byte-identical at jobs=1 and jobs={jobs}"),
        Err(e) => {
            eprintln!("regress: corpus guard: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Every paper artefact on >= 2 workers: matching the committed bytes
    // (which a serial run writes too) doubles as a parallel-identity guard.
    let ajobs = jobs.max(2);
    match reproduce::check(Path::new("bench_results"), &reproduce::ARTEFACTS, ajobs) {
        Ok(n) => println!("artefact check: {n} files byte-identical at jobs={ajobs}"),
        Err(e) => {
            eprintln!("regress: artefact check: {e}");
            return ExitCode::FAILURE;
        }
    }
    match stress_record(ajobs) {
        Ok(n) => println!("stress record: {n} evaluations byte-identical at jobs={ajobs}"),
        Err(e) => {
            eprintln!("regress: stress record: {e}");
            eprintln!("(an intended move: rerun `stress --no-pin` and commit the record)");
            return ExitCode::FAILURE;
        }
    }

    // Re-run the chaos sweep (1 seed in smoke, the baseline's full seed
    // set otherwise) and hold the NACK-recovery tier and the partition
    // series to their committed bands.
    let chaos_baseline = match regress::load_chaos_baseline(Path::new("bench_results/chaos.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("regress: {e}");
            return ExitCode::FAILURE;
        }
    };
    let chaos_seeds = if smoke { 1 } else { chaos_baseline.seeds };
    println!(
        "chaos bands: re-running the chaos sweep ({chaos_seeds} seed{})",
        if chaos_seeds == 1 { "" } else { "s" }
    );
    let verdict = regress::RegressReport::new(regress::chaos_recovery_checks(
        &chaos_baseline,
        chaos_seeds,
        jobs,
    ));

    report::print_table(
        "Regression gate (reliability and partition bands)",
        &["metric", "baseline", "measured", "band", "verdict"],
        &verdict.rows(),
    );
    println!("verdict: {}", if verdict.passed { "PASS" } else { "FAIL" });
    if !smoke {
        if let Err(e) = report::write_json("regress", &verdict) {
            eprintln!("regress: {e}");
            return ExitCode::FAILURE;
        }
    }
    if verdict.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
