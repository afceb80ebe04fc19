//! The registry of committed paper artefacts, and the byte check that
//! holds `bench_results/` to the code.
//!
//! Every figure and study this harness reproduces is one [`Artefact`]:
//! a name, the seed count of its committed record, and a function that
//! runs the experiment on a worker pool and renders its JSON record
//! (plus, for Figs. 7–9, its SVG charts) in memory next to its console
//! tables. The `reproduce` bin writes those files; `reproduce --check`
//! and the `regress` gate instead compare them byte for byte with the
//! committed copies ([`check`]). Every run is seeded and merges its
//! cells in order, so the bytes do not depend on the worker count.

use crate::fig7::{Fig7Config, Fig7Point};
use crate::netperf::{NetPoint, Protocol, TopologyKind};
use crate::plot::{render, ChartConfig, Series};
use crate::{ablation, concentration, extra_pimsm, fig7, netperf, placement_exp, report, sweep};
use serde::Serialize;
use std::fmt::Display;
use std::path::Path;

/// One committed artefact.
pub struct Artefact {
    /// Stem of its record, `bench_results/<name>.json`.
    pub name: &'static str,
    /// Seeds per point of the committed record.
    pub seeds: u64,
    /// Run at `seeds` on `jobs` workers and render the files (studies
    /// without a cell sweep run serially and ignore `jobs`).
    produce: fn(u64, usize) -> Result<Output, String>,
}

impl Artefact {
    /// Run the experiment at its committed seed count on `jobs` workers.
    pub fn run(&self, jobs: usize) -> Result<Output, String> {
        (self.produce)(self.seeds, jobs)
    }
}

const fn entry(
    name: &'static str,
    seeds: u64,
    produce: fn(u64, usize) -> Result<Output, String>,
) -> Artefact {
    Artefact {
        name,
        seeds,
        produce,
    }
}

/// Every committed artefact, in the order `reproduce` runs them.
pub static ARTEFACTS: [Artefact; 7] = [
    entry("fig7", 10, produce_fig7),
    entry("fig8_fig9", 10, produce_fig8_fig9),
    entry("placement", 10, produce_placement),
    entry("ablation_branch", 10, produce_ablation_branch),
    entry("ablation_paths", 10, produce_ablation_paths),
    entry("concentration", 10, produce_concentration),
    entry("extra_pimsm", 10, produce_extra_pimsm),
];

/// Everything one artefact run renders.
pub struct Output {
    /// `(file name under bench_results/, contents)`, the JSON record first.
    pub files: Vec<(String, String)>,
    /// The console tables of the run.
    pub tables: Vec<Table>,
}

impl Output {
    /// An output whose only file is `<name>.json`, serialised exactly as
    /// [`report::write_json`] writes it.
    fn json<T: Serialize>(name: &str, points: &T, tables: Vec<Table>) -> Result<Self, String> {
        let files = vec![(format!("{name}.json"), report::to_json(points)?)];
        Ok(Output { files, tables })
    }
}

/// One console table. The header and every row are lines of
/// whitespace-separated cells (no cell holds a space).
pub struct Table {
    title: String,
    headers: &'static str,
    rows: Vec<String>,
}

impl Table {
    pub fn print(&self) {
        let headers: Vec<&str> = self.headers.split_whitespace().collect();
        let cells = |row: &String| row.split_whitespace().map(String::from).collect();
        let rows: Vec<Vec<String>> = self.rows.iter().map(cells).collect();
        report::print_table(&self.title, &headers, &rows);
    }
}

/// The `reproduce` command line.
pub struct Args {
    /// The artefacts to run, in registry order (all without `--only`).
    pub only: Vec<&'static Artefact>,
    /// Compare with `bench_results/` instead of writing.
    pub check: bool,
    /// An explicit `--jobs`.
    pub jobs: Option<usize>,
}

/// Parse `[--only NAME]... [--check] [--jobs N]`. An unknown argument or
/// artefact name is an error, so a typo never overwrites a record.
pub fn parse_args(args: Vec<String>) -> Result<Args, String> {
    let (mut args, jobs) = sweep::take_jobs_arg(args);
    let check = sweep::take_flag(&mut args, "--check");
    let mut names = Vec::new();
    while let Some(name) = sweep::take_value(&mut args, "--only") {
        names.push(name);
    }
    if !args.is_empty() {
        return Err(format!("unknown arguments: {args:?}"));
    }
    let known: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        return Err(format!("no artefact {bad:?}; known: {}", known.join(", ")));
    }
    let only = ARTEFACTS
        .iter()
        .filter(|a| names.is_empty() || names.iter().any(|n| n == a.name))
        .collect();
    Ok(Args { only, check, jobs })
}

/// Regenerate `artefacts` on `jobs` workers and compare every file with
/// its committed copy under `dir`. Returns the number of files checked;
/// stops at the first mismatch (see [`compare`]).
pub fn check<'a>(
    dir: &Path,
    artefacts: impl IntoIterator<Item = &'a Artefact>,
    jobs: usize,
) -> Result<usize, String> {
    let mut files = 0;
    for artefact in artefacts {
        let out = artefact.run(jobs)?;
        compare(dir, &out.files)?;
        files += out.files.len();
    }
    Ok(files)
}

/// Compare regenerated `files` with their copies under `dir`. The error
/// names the first file that differs, its first differing line, and
/// both versions of that line.
pub fn compare(dir: &Path, files: &[(String, String)]) -> Result<(), String> {
    for (name, fresh) in files {
        let path = dir.join(name);
        let committed = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if committed == fresh.as_bytes() {
            continue;
        }
        let committed = String::from_utf8_lossy(&committed);
        let (mut old, mut new) = (committed.split('\n'), fresh.split('\n'));
        for line in 1.. {
            let (a, b) = (old.next(), new.next());
            if a != b {
                let [a, b] = [a, b].map(|l| l.unwrap_or("<end of file>"));
                let at = path.display();
                return Err(format!(
                    "{at}: line {line} differs\n  committed:   {a}\n  regenerated: {b}"
                ));
            }
        }
    }
    Ok(())
}

/// A table row: `first`, then each value rounded to an integer.
fn row(first: impl Display, values: &[f64]) -> String {
    values
        .iter()
        .fold(first.to_string(), |row, v| format!("{row} {v:.0}"))
}

/// An output holding the JSON record of `points` and one table with a
/// row per point.
fn one_table<T: Serialize>(
    name: &str,
    title: &str,
    headers: &'static str,
    points: &[T],
    to_row: impl Fn(&T) -> String,
) -> Result<Output, String> {
    let rows = points.iter().map(to_row).collect();
    let table = Table {
        title: title.into(),
        headers,
        rows,
    };
    Output::json(name, &points, vec![table])
}

/// Fig. 7 values of a point, `[delays, costs]`, each as
/// `[spt, kmb, dcdm, greedy]`.
fn fig7_values(p: &Fig7Point) -> [[f64; 4]; 2] {
    [
        [p.spt_delay, p.kmb_delay, p.dcdm_delay, p.greedy_delay],
        [p.spt_cost, p.kmb_cost, p.dcdm_cost, p.greedy_cost],
    ]
}

fn produce_fig7(seeds: u64, jobs: usize) -> Result<Output, String> {
    const LEVELS: [&str; 3] = ["tightest", "moderate", "loosest"];
    let cfg = Fig7Config {
        seeds,
        ..Default::default()
    };
    let points = fig7::run_jobs(&cfg, jobs);
    let at = |level: &'static str| points.iter().filter(move |p| p.level == level);
    let tables = LEVELS
        .map(|level| Table {
            title: format!("Fig 7 — delay constraint: {level}"),
            headers: "group spt_delay kmb_delay dcdm_delay greedy_delay \
                      spt_cost kmb_cost dcdm_cost greedy_cost",
            rows: at(level)
                .map(|p| row(p.group_size, fig7_values(p).as_flattened()))
                .collect(),
        })
        .into();
    let mut out = Output::json("fig7", &points, tables)?;
    for (m, metric) in ["delay", "cost"].into_iter().enumerate() {
        for level in LEVELS {
            let series: Vec<Series> = ["SPT", "KMB", "DCDM", "GREEDY"]
                .iter()
                .enumerate()
                .map(|(i, algo)| Series {
                    label: algo.to_string(),
                    points: at(level)
                        .map(|p| (p.group_size as f64, fig7_values(p)[m][i]))
                        .collect(),
                })
                .collect();
            let cfg = ChartConfig {
                title: format!("Fig 7 tree {metric} — {level} constraint"),
                x_label: "group size".into(),
                y_label: format!("tree {metric}"),
                log_y: false,
            };
            out.files
                .push((format!("fig7_{metric}_{level}.svg"), render(&cfg, &series)));
        }
    }
    Ok(out)
}

/// The charted Fig. 8/9 values of a point, in `produce_fig8_fig9`'s
/// chart order.
fn net_values(p: &NetPoint) -> [f64; 3] {
    [p.data_overhead, p.protocol_overhead, p.max_e2e_delay]
}

/// Figs. 8 and 9 from one suite run: the record they share, and per
/// topology each chart plus a table of its cells (Fig. 9's table adds
/// the p50/p99 delays).
fn produce_fig8_fig9(seeds: u64, jobs: usize) -> Result<Output, String> {
    let points = netperf::run_suite_jobs(seeds, jobs, false)?.points;
    let mut out = Output::json("fig8_fig9", &points, Vec::new())?;
    let charts = [
        ("fig8", "data_overhead", "data overhead", false),
        ("fig8", "protocol_overhead", "protocol overhead", true),
        ("fig9", "max_e2e_delay", "max end-to-end delay", false),
    ];
    for (m, (fig, metric, label, log_y)) in charts.into_iter().enumerate() {
        for kind in TopologyKind::ALL {
            let (topo, sizes) = (kind.label(), kind.group_sizes());
            let point = |proto: Protocol, gs: usize| {
                let proto = proto.label();
                let at =
                    |p: &&NetPoint| p.topology == topo && p.protocol == proto && p.group_size == gs;
                points.iter().find(at).expect("full sweep")
            };
            let title = match fig {
                "fig9" => format!("Fig 9 — end-to-end delay p50/p99/max (ticks) on {topo}"),
                _ => format!("Fig 8 — {label} on {topo}"),
            };
            let cell = |p: &NetPoint| match fig {
                "fig9" => format!(
                    "{:.0}/{:.0}/{:.0}",
                    p.p50_e2e_delay, p.p99_e2e_delay, p.max_e2e_delay
                ),
                _ => format!("{:.0}", net_values(p)[m]),
            };
            let rows = sizes.iter().map(|&gs| {
                let cells: Vec<String> = Protocol::FIG_8_9
                    .iter()
                    .map(|&proto| cell(point(proto, gs)))
                    .collect();
                format!("{gs} {}", cells.join(" "))
            });
            let headers = "group scmp cbt dvmrp mospf";
            out.tables.push(Table {
                title,
                headers,
                rows: rows.collect(),
            });
            let series: Vec<Series> = Protocol::FIG_8_9
                .iter()
                .map(|&proto| Series {
                    label: proto.label().to_uppercase(),
                    points: sizes
                        .iter()
                        .map(|&gs| (gs as f64, net_values(point(proto, gs))[m].max(1.0)))
                        .collect(),
                })
                .collect();
            let cfg = ChartConfig {
                title: format!("{label} — {topo}"),
                x_label: "group size".into(),
                y_label: label.into(),
                log_y,
            };
            out.files
                .push((format!("{fig}_{metric}_{topo}.svg"), render(&cfg, &series)));
        }
    }
    Ok(out)
}

fn produce_placement(seeds: u64, jobs: usize) -> Result<Output, String> {
    let title = "m-router placement (DCDM trees, Waxman n=100)";
    let headers = "strategy group tree_cost tree_delay";
    let points = placement_exp::run_jobs(seeds, jobs);
    one_table("placement", title, headers, &points, |p| {
        row(
            format!("{} {}", p.strategy, p.group_size),
            &[p.tree_cost, p.tree_delay],
        )
    })
}

fn produce_ablation_branch(seeds: u64, jobs: usize) -> Result<Output, String> {
    let title = "Join-phase protocol overhead: BRANCH vs TREE-only";
    let headers = "group with_branch tree_only ratio";
    let points = ablation::run_branch(seeds, jobs)?;
    one_table("ablation_branch", title, headers, &points, |p| {
        let ratio = p.tree_only / p.with_branch.max(1.0);
        format!(
            "{} {ratio:.2}x",
            row(p.group_size, &[p.with_branch, p.tree_only])
        )
    })
}

fn produce_ablation_paths(seeds: u64, _jobs: usize) -> Result<Output, String> {
    let title = "DCDM candidate set ablation (Waxman n=100, dynamic bound)";
    let headers = "group cost_both cost_lc cost_sl delay_both delay_lc delay_sl";
    let points = ablation::run_paths(seeds);
    one_table("ablation_paths", title, headers, &points, |p| {
        let costs = [p.both_cost, p.lc_only_cost, p.sl_only_cost];
        let delays = [p.both_delay, p.lc_only_delay, p.sl_only_delay];
        row(p.group_size, &[costs, delays].concat())
    })
}

fn produce_concentration(seeds: u64, jobs: usize) -> Result<Output, String> {
    let title = "Traffic concentration at the tree root (burst load)";
    let headers = "root sources queue_drops max_queue_wait max_e2e delivery_rate";
    let points = concentration::run(seeds, jobs)?;
    one_table("concentration", title, headers, &points, |p| {
        let (kind, drops, rate) = (&p.root_kind, p.queue_drops, p.delivery_rate);
        let delays = row(
            format!("{kind} {} {drops:.1}", p.sources),
            &[p.max_queueing_delay, p.max_e2e_delay],
        );
        format!("{delays} {rate:.3}")
    })
}

fn produce_extra_pimsm(seeds: u64, jobs: usize) -> Result<Output, String> {
    let title = "Shared-tree trio on random50-deg3 (30 pkts, off-tree source)";
    let headers = "protocol group data_overhead protocol_overhead max_e2e";
    let points = extra_pimsm::run(seeds, jobs)?;
    one_table("extra_pimsm", title, headers, &points, |p| {
        let values = [p.data_overhead, p.protocol_overhead, p.max_e2e_delay];
        row(format!("{} {}", p.protocol, p.group_size), &values)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
    }

    #[test]
    fn names_are_unique_and_each_has_a_committed_record() {
        let mut names: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ARTEFACTS.len(), "duplicate artefact name");
        for name in names {
            let record = committed_dir().join(format!("{name}.json"));
            assert!(record.is_file(), "{name} has no committed record");
        }
    }

    /// The regenerated placement record matches a copy of the committed
    /// one; flipping one byte of the copy names the file and the line.
    #[test]
    fn compare_passes_on_a_copy_and_names_a_flipped_byte() {
        let dir = std::env::temp_dir().join(format!("scmp-reproduce-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(committed_dir()).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        }
        let out = ARTEFACTS[2].run(2).unwrap();
        assert_eq!(out.files[0].0, "placement.json");
        assert_eq!(compare(&dir, &out.files), Ok(()));

        // Flip a byte four characters into line 3.
        let copy = dir.join("placement.json");
        let mut bytes = std::fs::read(&copy).unwrap();
        let newlines = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n');
        let line_3 = newlines.map(|(i, _)| i + 1).nth(1).unwrap();
        bytes[line_3 + 4] ^= 1;
        std::fs::write(&copy, &bytes).unwrap();
        let err = compare(&dir, &out.files).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        let expected = "placement.json: line 3 differs\n  committed:";
        assert!(err.contains(expected), "{err}");
    }

    #[test]
    fn parsing_rejects_unknown_names_and_leftover_arguments() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let err = parse_args(argv("--only nosuch")).err().unwrap();
        assert!(err.contains("\"nosuch\""), "{err}");
        let err = parse_args(argv("--check --bogus")).err().unwrap();
        assert!(err.contains("--bogus"), "{err}");

        let args = parse_args(argv("--only placement --jobs 2 --check --only fig7")).unwrap();
        let names: Vec<&str> = args.only.iter().map(|a| a.name).collect();
        assert_eq!(names, ["fig7", "placement"]);
        assert_eq!((args.check, args.jobs), (true, Some(2)));
        assert_eq!(parse_args(Vec::new()).unwrap().only.len(), ARTEFACTS.len());
    }
}
