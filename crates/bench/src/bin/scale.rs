//! Path-layer scaling study: on-demand provider + CSR topology at
//! 1k–10k nodes (see `scmp_bench::scale`).
//!
//! Usage: `scale [--smoke] [--jobs N]`. `--smoke` caps the curve at 1k
//! nodes and skips the 5k fig-shaped cells (CI-sized). Writes
//! `bench_results/scale.json`. When running parallel, the deterministic
//! portion of the report is re-run serially and byte-compared as a
//! determinism guard; timing rows are exempt. Any other argument exits 2.

use scmp_bench::sweep::{reject_leftovers, resolve_jobs, take_flag, take_jobs_arg};
use scmp_bench::{report, scale};

fn main() {
    let (mut args, jobs_flag) = take_jobs_arg(std::env::args().skip(1).collect());
    let smoke = take_flag(&mut args, "--smoke");
    reject_leftovers(&args);
    let jobs = resolve_jobs(jobs_flag);

    let rep = scale::run(smoke, jobs);
    if jobs > 1 {
        let serial = scale::run(smoke, 1);
        assert_eq!(
            rep.deterministic_json(),
            serial.deterministic_json(),
            "scale study diverged between --jobs {jobs} and serial"
        );
        println!(
            "(determinism guard: --jobs {jobs} deterministic output byte-identical to serial)"
        );
    }

    let curve_rows: Vec<Vec<String>> = rep
        .curve
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                r.n.to_string(),
                r.edges.to_string(),
                format!("{:.1}", r.topo_bytes as f64 / 1024.0),
                format!("{:.1}", r.path_bytes as f64 / 1024.0),
                format!("{:.1}", r.all_pairs_bytes as f64 / 1024.0),
                r.cache_hits.to_string(),
                r.cache_misses.to_string(),
                r.cache_evictions.to_string(),
                if r.all_delivered { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    report::print_table(
        "Path-layer scaling curve (resident KiB: lazy provider vs all-pairs counterfactual)",
        &[
            "family",
            "n",
            "edges",
            "topo_KiB",
            "path_KiB",
            "allpairs_KiB",
            "hits",
            "misses",
            "evict",
            "delivered",
        ],
        &curve_rows,
    );

    if !rep.fig_5k.is_empty() {
        let fig_rows: Vec<Vec<String>> = rep
            .fig_5k
            .iter()
            .map(|r| {
                vec![
                    r.protocol.clone(),
                    r.group_size.to_string(),
                    r.data_overhead.to_string(),
                    r.protocol_overhead.to_string(),
                    r.p50_e2e_delay.to_string(),
                    r.max_e2e_delay.to_string(),
                    if r.all_delivered { "yes" } else { "NO" }.to_string(),
                ]
            })
            .collect();
        report::print_table(
            &format!(
                "Fig. 8/9-shaped run at n = {} (transit-stub)",
                rep.fig_5k[0].n
            ),
            &[
                "protocol",
                "group",
                "data_ovh",
                "proto_ovh",
                "p50_delay",
                "max_delay",
                "delivered",
            ],
            &fig_rows,
        );
    }

    let timing_rows: Vec<Vec<String>> = rep
        .timing
        .iter()
        .map(|t| {
            vec![
                t.label.clone(),
                t.n.to_string(),
                format!("{:.1}", t.topo_build_ms),
                format!("{:.1}", t.workload_ms),
                format!("{:.1}", t.join_mean_us),
                format!("{:.0}", t.events_per_sec),
                t.peak_rss_bytes
                    .map(|b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    report::print_table(
        "Timing (wall-clock; excluded from the determinism guard)",
        &[
            "cell",
            "n",
            "topo_ms",
            "workload_ms",
            "join_us",
            "events/s",
            "peakRSS_MiB",
        ],
        &timing_rows,
    );

    // Smoke runs are a CI guard, not the study — never clobber the
    // committed full-scale record (same policy as `stress --smoke`).
    if smoke {
        println!("\n(smoke run: bench_results/scale.json left untouched)");
    } else if let Err(e) = report::write_json("scale", &rep) {
        eprintln!("scale: {e}");
        std::process::exit(1);
    }
}
