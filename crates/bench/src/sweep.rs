//! Deterministic parallel sweep execution.
//!
//! Every benchmark sweep in this harness iterates a matrix of fully
//! independent cells — `(topology kind, group size, seed)` and friends —
//! where each cell derives its own RNG stream via
//! `rng_for(label, seed)` and owns its engine. [`SweepRunner`] fans
//! those cells out to a worker pool and merges the results **in the
//! input cell order**, so parallel output is byte-identical to serial
//! output; `--jobs 1` (or `SCMP_JOBS=1`) recovers the plain serial
//! loop.
//!
//! The pool is built on `std::thread::scope` rather than rayon — the
//! offline build vendors no rayon, and a shared atomic cursor over a
//! cell list gives the same fan-out/ordered-merge architecture with no
//! dependency. Determinism does not rest on the scheduler: workers may
//! claim cells in any interleaving, but each result lands in the slot
//! of its cell index and the fold runs over slots in order.
//!
//! ```
//! use scmp_bench::sweep::SweepRunner;
//! let cells: Vec<u64> = (0..100).collect();
//! let serial = SweepRunner::new(1).run(&cells, |_, &c| c * c);
//! let parallel = SweepRunner::new(4).run(&cells, |_, &c| c * c);
//! assert_eq!(serial, parallel);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "SCMP_JOBS";

/// Resolve the worker count: an explicit request (CLI `--jobs`) wins,
/// then [`JOBS_ENV`], then the machine's available parallelism.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var(JOBS_ENV)
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Strip a `--jobs N` / `--jobs=N` flag out of an argument list,
/// returning the remaining positional arguments and the parsed value.
/// Exits with a usage error on a malformed flag (bench binaries call
/// this before interpreting positionals).
pub fn take_jobs_arg(args: Vec<String>) -> (Vec<String>, Option<usize>) {
    let mut rest = Vec::with_capacity(args.len());
    let mut jobs = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let value = if a == "--jobs" {
            it.next()
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            Some(v.to_string())
        } else {
            rest.push(a);
            continue;
        };
        match value.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) if n >= 1 => jobs = Some(n),
            _ => {
                eprintln!("--jobs expects a positive integer");
                std::process::exit(2);
            }
        }
    }
    (rest, jobs)
}

/// Remove a boolean `flag` from `args`; true when it was present.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let i = args.iter().position(|a| a == flag);
    if let Some(i) = i {
        args.remove(i);
    }
    i.is_some()
}

/// Remove `flag VALUE` from `args` and return the value. Exits with a
/// usage error when the flag is the last argument.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    args.remove(i);
    Some(args.remove(i))
}

/// Parse a flag's value, exiting with a usage error when it is malformed.
pub fn parse<T: std::str::FromStr>(flag: &str, v: String) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: bad value {v:?}");
        std::process::exit(2);
    })
}

/// Exit with a usage error naming whatever the `take_*` calls left
/// behind: a typo'd flag must never fall through to a default run that
/// overwrites a committed `bench_results/` record.
pub fn reject_leftovers(args: &[String]) {
    if !args.is_empty() {
        eprintln!("unknown arguments: {args:?}");
        std::process::exit(2);
    }
}

/// A deterministic parallel map over independent sweep cells.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with exactly `jobs` workers (at least 1; 1 = serial).
    pub fn new(jobs: usize) -> Self {
        SweepRunner { jobs: jobs.max(1) }
    }

    /// A runner honouring `--jobs`/`SCMP_JOBS`/core count, in that
    /// order (see [`resolve_jobs`]).
    pub fn from_env(explicit: Option<usize>) -> Self {
        SweepRunner::new(resolve_jobs(explicit))
    }

    /// The worker count this runner fans out to.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` over every cell and return the results **in cell
    /// order**, regardless of which worker ran which cell when. `f`
    /// receives the cell's index alongside the cell so labelled outputs
    /// (per-cell trace files, progress lines) stay deterministic too.
    ///
    /// With one worker (or one cell) this is a plain in-order map on
    /// the calling thread — the serial reference the parallel path is
    /// byte-compared against.
    pub fn run<T, R, F>(&self, cells: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.jobs.min(cells.len());
        if workers <= 1 {
            return cells.iter().enumerate().map(|(i, c)| f(i, c)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(cells.len());
        slots.resize_with(cells.len(), || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let f = &f;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(cell) = cells.get(i) else { break };
                            got.push((i, f(i, cell)));
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("sweep worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every cell ran exactly once"))
            .collect()
    }

    /// [`run`](Self::run) for cells that each produce a JSONL fragment
    /// alongside their result: returns the results in cell order plus
    /// the fragments concatenated in cell order — the parallel
    /// equivalent of one serial writer appending cell after cell.
    pub fn run_traced<T, R, F>(&self, cells: &[T], f: F) -> (Vec<R>, String)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> (R, String) + Sync,
    {
        let outcomes = self.run(cells, f);
        let mut results = Vec::with_capacity(outcomes.len());
        let mut jsonl = String::new();
        for (r, frag) in outcomes {
            results.push(r);
            jsonl.push_str(&frag);
        }
        (results, jsonl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_cell_order() {
        let cells: Vec<usize> = (0..257).collect();
        // Make later cells cheaper than earlier ones so workers finish
        // out of order, then check the merge re-establishes cell order.
        let out = SweepRunner::new(8).run(&cells, |i, &c| {
            if c < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(i, c);
            c * 3
        });
        assert_eq!(out, cells.iter().map(|c| c * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let cells: Vec<u64> = (0..100).collect();
        let f = |_: usize, &c: &u64| c.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        let serial = SweepRunner::new(1).run(&cells, f);
        for jobs in [2, 3, 4, 16] {
            assert_eq!(SweepRunner::new(jobs).run(&cells, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        let n = 500;
        let cells: Vec<usize> = (0..n).collect();
        let counter = AtomicU64::new(0);
        let out = SweepRunner::new(7).run(&cells, |_, &c| {
            counter.fetch_add(1, Ordering::Relaxed);
            c
        });
        assert_eq!(out.len(), n);
        assert_eq!(counter.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn traced_fragments_concatenate_in_cell_order() {
        let cells: Vec<usize> = (0..40).collect();
        let f = |_: usize, &c: &usize| (c, format!("line-{c}\n"));
        let (serial, serial_jsonl) = SweepRunner::new(1).run_traced(&cells, f);
        let (par, par_jsonl) = SweepRunner::new(5).run_traced(&cells, f);
        assert_eq!(serial, par);
        assert_eq!(serial_jsonl, par_jsonl, "concatenation is order-stable");
        assert!(serial_jsonl.starts_with("line-0\nline-1\n"));
    }

    #[test]
    fn empty_and_single_cell_edge_cases() {
        let none: Vec<u32> = Vec::new();
        assert!(SweepRunner::new(4).run(&none, |_, &c| c).is_empty());
        assert_eq!(SweepRunner::new(4).run(&[9u32], |_, &c| c + 1), vec![10]);
    }

    #[test]
    fn jobs_arg_parsing() {
        let (rest, jobs) = take_jobs_arg(vec!["5".into(), "--jobs".into(), "3".into()]);
        assert_eq!(rest, vec!["5".to_string()]);
        assert_eq!(jobs, Some(3));
        let (rest, jobs) = take_jobs_arg(vec!["--jobs=8".into()]);
        assert!(rest.is_empty());
        assert_eq!(jobs, Some(8));
        let (rest, jobs) = take_jobs_arg(vec!["7".into()]);
        assert_eq!(rest, vec!["7".to_string()]);
        assert_eq!(jobs, None);
        assert_eq!(resolve_jobs(Some(5)), 5);
    }

    /// Known flags are consumed wherever they sit; a typo survives as
    /// the leftover that `reject_leftovers` turns into exit 2.
    #[test]
    fn take_helpers_leave_only_unknown_arguments() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let (mut args, jobs) = take_jobs_arg(argv("1 --partition-onyl --jobs 2"));
        assert_eq!(jobs, Some(2));
        assert!(!take_flag(&mut args, "--partition-only"));
        assert_eq!(args, argv("1 --partition-onyl"));

        let mut args = argv("--smoke --seed 7 --no-pin");
        assert!(take_flag(&mut args, "--smoke"));
        assert!(take_flag(&mut args, "--no-pin"));
        assert_eq!(take_value(&mut args, "--seed").as_deref(), Some("7"));
        assert_eq!(take_value(&mut args, "--passes"), None);
        assert!(args.is_empty());

        let mut args = argv("--smok");
        assert!(!take_flag(&mut args, "--smoke"));
        assert_eq!(args, argv("--smok"));
        assert_eq!(parse::<u64>("--seed", "42".into()), 42);
    }
}
