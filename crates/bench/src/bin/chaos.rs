//! Chaos sweep: delivery degradation and protocol invariants under
//! seeded uniform packet loss (see `scmp_bench::chaos`).
//!
//! Usage: `chaos [seeds] [--jobs N] [--partition-only]` — defaults to
//! 3 seeds per loss rate. Writes `bench_results/chaos.json`. When
//! running parallel, the sweep is re-run serially and byte-compared as
//! a determinism guard. `--partition-only` runs just the
//! partition-and-heal series (per-cell invariants still asserted) and
//! leaves the committed baseline untouched. A cell under its delivery
//! floor is printed on stderr and exits 1 without writing anything. Any
//! other argument exits 2.

use scmp_bench::sweep::{parse, reject_leftovers, resolve_jobs, take_flag, take_jobs_arg};
use scmp_bench::{chaos, report};

fn main() {
    let (mut args, jobs_flag) = take_jobs_arg(std::env::args().skip(1).collect());
    let partition_only = take_flag(&mut args, "--partition-only");
    let seeds: u64 = match args.first() {
        Some(a) if !a.starts_with('-') => parse("seeds", args.remove(0)),
        _ => 3,
    };
    reject_leftovers(&args);
    let jobs = resolve_jobs(jobs_flag);

    if partition_only {
        let (summary, cells) = chaos::partition_series(seeds, jobs);
        if jobs > 1 {
            let serial = chaos::partition_series(seeds, 1);
            assert_eq!(
                serde_json::to_string(&(&summary, &cells)).unwrap(),
                serde_json::to_string(&(&serial.0, &serial.1)).unwrap(),
                "partition series diverged between --jobs {jobs} and serial"
            );
            println!("(determinism guard: --jobs {jobs} output byte-identical to serial)");
        }
        print_partition(&cells, &Some(summary));
        exit_on_breaches(&chaos::partition_floor_breaches(&cells));
        println!("\nall partition invariants held: zero split-brain, zero duplicate delivery, bounded reconvergence");
        return;
    }

    let rep = chaos::run(seeds, jobs);
    if jobs > 1 {
        let serial = chaos::run(seeds, 1);
        assert_eq!(
            serde_json::to_string(&rep).unwrap(),
            serde_json::to_string(&serial).unwrap(),
            "chaos sweep diverged between --jobs {jobs} and serial"
        );
        println!("(determinism guard: --jobs {jobs} output byte-identical to serial)");
    }

    let rows: Vec<Vec<String>> = rep
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.loss * 100.0),
                format!("{:.3}", p.mean_delivery_ratio),
                format!("{:.3}", p.min_delivery_ratio),
                format!("{:.1}", p.mean_retransmissions),
                p.takeovers.to_string(),
            ]
        })
        .collect();
    report::print_table(
        &format!("Delivery degradation under uniform loss ({seeds} seeds per rate)"),
        &[
            "loss",
            "mean_delivery",
            "min_delivery",
            "mean_retx",
            "takeovers",
        ],
        &rows,
    );

    let rel_rows: Vec<Vec<String>> = rep
        .reliable_points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.loss * 100.0),
                format!("{:.3}", p.mean_delivery_ratio),
                format!("{:.3}", p.min_delivery_ratio),
                format!("{:.1}", p.mean_nacks),
                format!("{:.2}", p.nack_suppression_ratio),
                format!("{:.2}", p.cache_hit_rate),
                format!("{:.0}", p.mean_recovery_p50),
                p.max_recovery_p99.to_string(),
            ]
        })
        .collect();
    report::print_table(
        "Same sweep with NACK recovery on (reliable tier)",
        &[
            "loss",
            "mean_delivery",
            "min_delivery",
            "mean_nacks",
            "suppression",
            "cache_hit",
            "p50_rec",
            "max_p99_rec",
        ],
        &rel_rows,
    );
    print_partition(&rep.partition_cells, &rep.partition);
    exit_on_breaches(&rep.floor_breaches());
    println!(
        "\nall invariants held: no duplicate delivery, every member grafted, no spurious takeover, single root after heal"
    );
    if let Err(e) = report::write_json("chaos", &rep) {
        eprintln!("chaos: {e}");
        std::process::exit(1);
    }
}

/// Name every cell under its delivery floor and exit 1, if any is.
fn exit_on_breaches(breaches: &[String]) {
    if breaches.is_empty() {
        return;
    }
    for b in breaches {
        eprintln!("chaos: {b}");
    }
    std::process::exit(1);
}

fn print_partition(
    cells: &[chaos::ChaosPartitionCell],
    summary: &Option<chaos::ChaosPartitionSummary>,
) {
    let part_rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.seed.to_string(),
                c.members_stranded.to_string(),
                c.degraded_ticks.to_string(),
                c.takeovers.to_string(),
                c.reconciliations.to_string(),
                c.reconverge_ticks.to_string(),
                format!("{:.3}", c.post_heal_delivery),
            ]
        })
        .collect();
    report::print_table(
        &format!(
            "Partition-and-heal series (cut at {}, heal at {}, window {})",
            chaos::PARTITION_AT,
            chaos::HEAL_AT,
            chaos::RECONVERGE_WINDOW
        ),
        &[
            "seed",
            "stranded",
            "degraded",
            "takeovers",
            "reconciles",
            "reconverge",
            "post_heal",
        ],
        &part_rows,
    );
    if let Some(p) = summary {
        println!(
            "\npartition: {}/{} cells stranded members, {} took over; worst reconvergence {} ticks (window {}), min post-heal delivery {:.3}",
            p.stranded_cells, p.cells, p.takeover_cells, p.max_reconverge_ticks, p.window, p.min_post_heal_delivery
        );
    }
}
