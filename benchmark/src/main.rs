//! The SCMP benchmark: five workloads, end-to-end and per-layer
//! metrics, and a traced pass that says where the time goes. See
//! `README.md` beside this crate.

mod alloc;
mod compare;
mod harness;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod timed;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
       run.sh compare DIR_A DIR_B

Without --workload every workload runs, without --trace both passes run
(0 = end to end, tracing off; 1 = per layer, traced); each combination
runs in a child process of its own, one thread, one engine at a time.
--seed defaults to 1, --seconds (the measuring budget per run) to 12,
--out to benchmark/out. --quick shrinks every workload to a CI smoke
test whose numbers are not comparable with anything.";

struct Args {
    workload: Option<&'static workloads::WorkloadDef>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?} is not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                });
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (parsed.workload, parsed.trace) {
        (Some(workload), Some(trace)) => run_one(workload, trace, &parsed),
        _ => fan_out(&args, &parsed),
    }
}

/// One workload, one pass, in this process.
fn run_one(workload: &'static workloads::WorkloadDef, trace: bool, args: &Args) -> ExitCode {
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 0.2 } else { 12.0 }),
        quick: args.quick,
        out: args.out.clone(),
    };
    let outcome = if trace {
        run::traced(&opts)
    } else {
        run::end_to_end(&opts)
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every missing (workload, pass) combination, each in a child process
/// so that no run inherits another's heap, caches or peak RSS.
fn fan_out(args: &[String], parsed: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in workloads::ALL
        .iter()
        .filter(|w| parsed.workload.is_none_or(|p| p.name == w.name))
    {
        for trace in [false, true] {
            if parsed.trace.is_some_and(|t| t != trace) {
                continue;
            }
            let mut child = Command::new(&exe);
            child.args(args);
            if parsed.workload.is_none() {
                child.args(["--workload", w.name]);
            }
            if parsed.trace.is_none() {
                child.args(["--trace", if trace { "1" } else { "0" }]);
            }
            // `status` waits for the child to end.
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!(
                        "error: {} --trace {} ended with {status}",
                        w.name, trace as u8
                    );
                    all_ok = false;
                }
                Err(e) => {
                    eprintln!("error: cannot start a child process: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!();
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
