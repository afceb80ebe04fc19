//! STRESS scenario explorer: boundary-point search, failure
//! minimization, corpus pinning (see `scmp_bench::stress`).
//!
//! Usage:
//!
//! ```text
//! stress [--jobs N] [--seed S] [--warmup W] [--passes P]
//!        [--max-boundaries B] [--smoke] [--no-pin] [--force-pin]
//!        [--corpus-dir DIR]
//! ```
//!
//! Writes `bench_results/stress.json` (byte-identical for any `--jobs`
//! value; re-checked against a serial run whenever it runs parallel)
//! and pins each minimized boundary reproducer under the corpus
//! directory (default `tests/scenarios/corpus/`) unless `--no-pin`.
//! Exits nonzero when the search finds a hard invariant violation —
//! that is a protocol bug, not an envelope edge.

use scmp_bench::report;
use scmp_bench::stress::{self, SearchConfig};
use scmp_bench::sweep::{
    parse, reject_leftovers, resolve_jobs, take_flag, take_jobs_arg, take_value,
};
use std::path::PathBuf;

fn main() {
    let (mut args, jobs_flag) = take_jobs_arg(std::env::args().skip(1).collect());
    let jobs = resolve_jobs(jobs_flag);
    let smoke = take_flag(&mut args, "--smoke");
    let no_pin = take_flag(&mut args, "--no-pin");
    let force_pin = take_flag(&mut args, "--force-pin");
    let seed = take_value(&mut args, "--seed").map_or(0, |v| parse("--seed", v));
    let mut cfg = if smoke {
        SearchConfig::smoke(seed)
    } else {
        SearchConfig::full(seed)
    };
    if let Some(v) = take_value(&mut args, "--warmup") {
        cfg.warmup = parse("--warmup", v);
    }
    if let Some(v) = take_value(&mut args, "--passes") {
        cfg.passes = parse("--passes", v);
    }
    if let Some(v) = take_value(&mut args, "--max-boundaries") {
        cfg.max_boundaries = parse("--max-boundaries", v);
    }
    let corpus_dir: PathBuf = take_value(&mut args, "--corpus-dir")
        .map_or_else(|| PathBuf::from("tests/scenarios/corpus"), PathBuf::from);
    reject_leftovers(&args);

    let rep = stress::search(&cfg, jobs);
    if jobs > 1 {
        let serial = stress::search(&cfg, 1);
        assert_eq!(
            serde_json::to_string(&rep).unwrap(),
            serde_json::to_string(&serial).unwrap(),
            "stress search diverged between --jobs {jobs} and serial"
        );
        println!("(determinism guard: --jobs {jobs} output byte-identical to serial)");
    }

    let failed = rep
        .warmup_cells
        .iter()
        .filter(|c| !c.hard.is_empty() || !c.boundary.is_empty())
        .count();
    println!(
        "warm-up: {} points, {} failing, {} distinct boundaries refined, {} evaluations total",
        rep.warmup,
        failed,
        rep.boundaries.len(),
        rep.evaluations
    );

    let rows: Vec<Vec<String>> = rep
        .boundaries
        .iter()
        .map(|b| {
            let p = b.boundary.point;
            vec![
                b.boundary
                    .hard
                    .iter()
                    .chain(&b.boundary.boundary)
                    .cloned()
                    .collect::<Vec<_>>()
                    .join("+"),
                stress::topo_name(p.topo).to_string(),
                format!(
                    "loss={} dup={} reorder={} flaps={} crash={} churn={} retry={} repair={} tol={}",
                    p.loss, p.dup, p.reorder, p.flaps, p.crash, p.churn, p.retry, p.repair,
                    p.tolerance
                ),
                format!("{:.3}", b.boundary.delivery_ratio),
                format!("{}ev+{}f", b.minimized_events, b.minimized_faults),
            ]
        })
        .collect();
    report::print_table(
        "Boundary points (coordinate descent from warm-up failures)",
        &[
            "signature",
            "topo",
            "boundary point",
            "delivery",
            "minimized",
        ],
        &rows,
    );

    if !no_pin {
        match stress::pin_corpus(
            &corpus_dir,
            &rep.boundaries
                .iter()
                .map(|b| stress::corpus_entry(b, cfg.seed))
                .collect::<Vec<_>>(),
            force_pin,
        ) {
            Ok(outcomes) => {
                for (file, outcome) in outcomes {
                    println!("corpus: {} — {outcome}", corpus_dir.join(file).display());
                }
            }
            Err(e) => {
                eprintln!("corpus pinning failed: {e}");
                std::process::exit(1);
            }
        }
    }

    // The committed record is the *full* search; a smoke run must not
    // clobber it from CI.
    if smoke {
        println!("(smoke run: bench_results/stress.json left untouched)");
    } else if let Err(e) = report::write_json("stress", &rep) {
        eprintln!("stress: {e}");
        std::process::exit(1);
    }

    if !rep.hard_failures.is_empty() {
        eprintln!(
            "HARD INVARIANT VIOLATIONS at {} points — this is a protocol bug:",
            rep.hard_failures.len()
        );
        for c in &rep.hard_failures {
            eprintln!("  {:?} at {:?}", c.hard, c.point);
        }
        std::process::exit(1);
    }
}
