//! `compare A B`: hold two sets of runs against the benchmark's own
//! bounds. A set is a directory; every output document found under it
//! (at any depth) is one run, so `--out A/1`, `--out A/2`, … builds a
//! set of several. One row per (workload, metric), both medians and
//! the ratio B/A with A as the base.
//!
//! Verdicts: `ok` — within the bound; `REGRESSED` — B's median is worse
//! than A's by more than the bound; `unresolved` — a set's own spread
//! exceeds the bound, so the sets cannot tell "unchanged" from "moved"
//! (unless every run of B beats every run of A: `better`); `same` /
//! `DIFFERENT` — an exact count or a model digest, compared bit for
//! bit; `info` — a timed per-layer figure, which explains and does not
//! gate.

use crate::metrics::{self, Better, MetricDef};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

/// Metric values by (workload, metric), one entry per run.
#[derive(Default)]
struct Set {
    values: BTreeMap<(String, String), Vec<f64>>,
    digests: BTreeMap<String, Vec<String>>,
    runs: usize,
}

fn load(dir: &Path, set: &mut Set) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            load(&path, set)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc: Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let (Some(workload), Some(fields)) =
                (doc["workload"].as_str(), doc["metrics"].as_object())
            else {
                continue; // some other JSON file
            };
            if doc["quick"] == Value::Bool(true) {
                return Err(format!(
                    "{} is a --quick run; quick numbers are never compared",
                    path.display()
                ));
            }
            for (name, metric) in fields {
                if let Some(v) = metric["value"].as_f64() {
                    set.values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
            if let Some(digest) = doc["manifest"]["model_digest"].as_str() {
                set.digests
                    .entry(workload.to_string())
                    .or_default()
                    .push(digest.to_string());
            }
            set.runs += 1;
        }
    }
    Ok(())
}

/// True when `b` is worse than `a` in the metric's direction.
fn worse(def: &MetricDef, a: f64, b: f64) -> bool {
    match def.better {
        Better::Higher => b < a,
        Better::Lower => b > a,
    }
}

/// Run-to-run spread of one set: interquartile range over the median
/// with four runs or more, full range over the median below that, none
/// from a single run.
fn spread(xs: &[f64]) -> Option<f64> {
    match xs.len() {
        0 | 1 => None,
        2 | 3 => {
            let s = stats::sorted(xs);
            let med = stats::quantile(&s, 0.5);
            Some(if med == 0.0 {
                0.0
            } else {
                (s[s.len() - 1] - s[0]) / med
            })
        }
        _ => Some(stats::spread(xs)),
    }
}

fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> &'static str {
    if def.exact {
        let same = a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits());
        return if same { "same" } else { "DIFFERENT" };
    }
    let Some(bound) = def.bound else {
        return "info";
    };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let noisy = [a, b]
        .into_iter()
        .any(|xs| spread(xs).is_some_and(|s| s > bound));
    if noisy {
        let b_wins_every_pair = a.iter().all(|&x| b.iter().all(|&y| worse(def, y, x)));
        return if b_wins_every_pair {
            "better"
        } else {
            "unresolved"
        };
    }
    if worse(def, ma, mb) && (mb - ma).abs() > bound * ma.abs() {
        "REGRESSED"
    } else {
        "ok"
    }
}

fn pct(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |s| format!("{:.1}%", 100.0 * s))
}

pub fn run(a_dir: &Path, b_dir: &Path) -> ExitCode {
    let (mut a, mut b) = (Set::default(), Set::default());
    for (dir, set) in [(a_dir, &mut a), (b_dir, &mut b)] {
        if let Err(e) = load(dir, set) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        if set.runs == 0 {
            eprintln!("error: no benchmark output under {}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "A = {} ({} documents)   B = {} ({} documents)   ratio = B/A, base A",
        a_dir.display(),
        a.runs,
        b_dir.display(),
        b.runs
    );
    println!(
        "{:<16} {:<30} {:>14} {:>14} {:>7} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "ratio", "bound", "spreadA", "spreadB"
    );
    let mut failed = false;
    for ((workload, name), av) in &a.values {
        let Some(bv) = b.values.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<16} {name:<30} only in A");
            continue;
        };
        let Some(def) = metrics::find(name) else {
            println!("{workload:<16} {name:<30} not a metric of this benchmark");
            continue;
        };
        let (ma, mb) = (stats::median(av), stats::median(bv));
        let v = verdict(def, av, bv);
        failed |= v == "REGRESSED" || v == "DIFFERENT";
        println!(
            "{workload:<16} {name:<30} {ma:>14.4} {mb:>14.4} {:>7} {:>6} {:>8} {:>8}  {v}",
            if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", mb / ma)
            },
            pct(def.bound),
            pct(spread(av)),
            pct(spread(bv)),
        );
    }
    for (workload, da) in &a.digests {
        let Some(db) = b.digests.get(workload) else {
            continue;
        };
        let same = da.iter().chain(db).all(|d| d == &da[0]);
        failed |= !same;
        println!(
            "{workload:<16} {:<30} {:>14} {:>14} {:>7} {:>6} {:>8} {:>8}  {}",
            "model_digest",
            da[0],
            db[0],
            "-",
            "-",
            "-",
            "-",
            if same { "same" } else { "DIFFERENT" }
        );
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn bounded_metrics_regress_only_beyond_their_bound() {
        let ops = def("ops_per_s"); // higher is better, bound 25 %
        assert_eq!(verdict(ops, &[100.0, 101.0], &[80.0, 81.0]), "ok");
        assert_eq!(verdict(ops, &[100.0, 101.0], &[70.0, 71.0]), "REGRESSED");
        assert_eq!(verdict(ops, &[100.0, 101.0], &[150.0, 151.0]), "ok");
        let p50 = def("join_p50_us"); // lower is better
        assert_eq!(verdict(p50, &[100.0], &[130.0]), "REGRESSED");
        assert_eq!(verdict(p50, &[100.0], &[80.0]), "ok");
    }

    #[test]
    fn a_noisy_set_is_unresolved_unless_b_wins_every_pair() {
        let ops = def("ops_per_s");
        // A's own runs span 35 % of their median: a drop cannot be
        // resolved…
        assert_eq!(verdict(ops, &[100.0, 140.0], &[95.0, 100.0]), "unresolved");
        // …but B above every run of A is simply better.
        assert_eq!(verdict(ops, &[100.0, 140.0], &[150.0, 160.0]), "better");
        assert_eq!(spread(&[100.0]), None);
        assert_eq!(spread(&[90.0, 110.0]), Some(0.2));
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit_and_timed_layers_only_inform() {
        let events = def("sim.events");
        assert_eq!(verdict(events, &[5.0, 5.0], &[5.0]), "same");
        assert_eq!(verdict(events, &[5.0, 5.0], &[5.0, 6.0]), "DIFFERENT");
        assert_eq!(verdict(def("core.on_packet_s"), &[1.0], &[9.0]), "info");
    }
}
