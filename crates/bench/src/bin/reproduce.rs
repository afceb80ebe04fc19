//! `reproduce [--only NAME]... [--check] [--jobs N]` — regenerate every
//! committed paper artefact (see `scmp_bench::reproduce`).
//!
//! Plain mode prints each artefact's tables and writes its files under
//! `bench_results/`. `--check` writes nothing and exits 1 on the first
//! file that differs from its committed copy. An unknown argument or
//! artefact name exits 2 before anything runs.

use scmp_bench::{report, reproduce, sweep};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = reproduce::parse_args(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    });
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reproduce: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: reproduce::Args) -> Result<(), String> {
    let jobs = sweep::resolve_jobs(args.jobs);
    if args.check {
        let n = reproduce::check(Path::new("bench_results"), args.only, jobs)?;
        println!("{n} files byte-identical to bench_results/ at jobs={jobs}");
        return Ok(());
    }
    for artefact in args.only {
        println!("\n# {} ({} seeds)", artefact.name, artefact.seeds);
        let out = artefact.run(jobs)?;
        out.tables.iter().for_each(reproduce::Table::print);
        for (file, text) in &out.files {
            report::write_file(file, text)?;
        }
    }
    Ok(())
}
