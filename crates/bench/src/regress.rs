//! Regression gate: the deterministic checks no other harness runs.
//!
//! The `regress` bin first replays the pinned scenario corpus serially
//! and on a worker pool and requires byte-identical results and traces.
//! It then regenerates every committed paper artefact (the
//! [`crate::reproduce`] registry, on at least two workers) and requires
//! each JSON record and SVG chart to match `bench_results/` byte for
//! byte, and does the same for the full STRESS search
//! (`bench_results/stress.json`). Last it re-runs the chaos sweep and
//! holds it to two bands against the committed
//! `bench_results/chaos.json`:
//!
//! * **reliability** ([`chaos_band`]) — absolute worst-seed delivery
//!   floors and a 2x ceiling on worst-case gap-recovery latency;
//! * **partition** ([`partition_band`]) — a reconvergence-lag ceiling
//!   and the post-heal delivery floor.
//!
//! Every input is seeded, so the verdict is a pure function of the tree.
//! Timing is not gated here: `benchmark/run.sh compare` bands the
//! end-to-end and per-layer wall-clock metrics on real SCMP workloads.

use crate::chaos::{self, ChaosReport};
use serde::Serialize;
use std::path::Path;

/// One metric comparison: baseline, measured, the band applied, verdict.
#[derive(Clone, Debug, Serialize)]
pub struct Check {
    pub metric: String,
    pub baseline: f64,
    pub measured: f64,
    /// Human-readable band, e.g. `>= 0.95 absolute`.
    pub band: String,
    pub pass: bool,
}

/// Whole numbers (ticks, latencies) print as integers, ratios to three
/// decimals — so a 0.94 delivery never reads as its rounded `1`.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// The gate's verdict: every check and their conjunction.
#[derive(Clone, Debug, Serialize)]
pub struct RegressReport {
    pub checks: Vec<Check>,
    pub passed: bool,
}

impl RegressReport {
    pub fn new(checks: Vec<Check>) -> Self {
        let passed = checks.iter().all(|c| c.pass);
        RegressReport { checks, passed }
    }

    /// Table rows for [`crate::report::print_table`].
    pub fn rows(&self) -> Vec<Vec<String>> {
        self.checks
            .iter()
            .map(|c| {
                vec![
                    c.metric.clone(),
                    fmt_value(c.baseline),
                    fmt_value(c.measured),
                    c.band.clone(),
                    if c.pass { "ok" } else { "FAIL" }.to_string(),
                ]
            })
            .collect()
    }
}

/// Load a committed `chaos.json` baseline (the reliability band source).
pub fn load_chaos_baseline(path: &Path) -> Result<ChaosReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Re-run the chaos sweep and hold the reliability tier to its band:
/// absolute worst-seed delivery floors ([`chaos::reliable_floor`], the
/// tier's acceptance numbers) and a 2x ceiling on worst-case
/// gap-recovery latency relative to the committed curve.
///
/// `seeds` may be smaller than the baseline's (smoke re-runs one seed):
/// the checks stay sound because the engine is deterministic, so fresh
/// seeds are a subset of the committed realisations — a fresh max can
/// only blow the latency ceiling if the code's recovery behaviour
/// actually drifted.
///
/// A fresh cell under its delivery floor fails the matching
/// `reliable_min_delivery` or `partition_post_heal_delivery` row: the
/// sweep reports floors rather than asserting them
/// ([`ChaosReport::floor_breaches`]).
///
/// # Panics
/// When the sweep itself violates a protocol invariant (see
/// [`chaos::run`]) — that is a correctness bug, not a perf regression.
pub fn chaos_recovery_checks(baseline: &ChaosReport, seeds: u64, jobs: usize) -> Vec<Check> {
    let fresh = chaos::run(seeds.clamp(1, baseline.seeds.max(1)), jobs);
    let mut checks = chaos_band(baseline, &fresh);
    checks.extend(partition_band(baseline, &fresh));
    checks
}

/// Pure band step of [`chaos_recovery_checks`]: fresh reliable curve
/// against the committed one. Split out so the band logic is testable
/// without running the sweep.
pub fn chaos_band(baseline: &ChaosReport, fresh: &ChaosReport) -> Vec<Check> {
    let mut checks = Vec::new();
    for (b, f) in baseline.reliable_points.iter().zip(&fresh.reliable_points) {
        if b.loss == 0.0 {
            continue;
        }
        let pct = format!("{:.0}%", b.loss * 100.0);
        let floor = chaos::reliable_floor(b.loss);
        checks.push(Check {
            metric: format!("reliable_min_delivery[{pct}]"),
            baseline: floor,
            measured: f.min_delivery_ratio,
            band: format!(">= {floor:.2} absolute"),
            pass: f.min_delivery_ratio >= floor,
        });
        checks.push(Check {
            metric: format!("recovery_latency_p99[{pct}]"),
            baseline: b.max_recovery_p99 as f64,
            measured: f.max_recovery_p99 as f64,
            band: "<= 2.00x baseline".to_string(),
            pass: f.max_recovery_p99 as f64 <= 2.0 * b.max_recovery_p99 as f64,
        });
    }
    checks
}

/// Partition-and-heal band: the fresh series must reconverge within
/// 2x the committed worst lag (never past the absolute
/// [`chaos::RECONVERGE_WINDOW`] bound the sweep itself enforces) and
/// hold its post-heal delivery to [`chaos::POST_HEAL_FLOOR`]. A
/// baseline from before the partition series existed produces no
/// checks — the band arms itself on the first committed run.
pub fn partition_band(baseline: &ChaosReport, fresh: &ChaosReport) -> Vec<Check> {
    let (Some(b), Some(f)) = (&baseline.partition, &fresh.partition) else {
        return Vec::new();
    };
    let lag_ceiling = (2 * b.max_reconverge_ticks).clamp(b.window / 2, b.window);
    vec![
        Check {
            metric: "partition_reconverge_ticks".to_string(),
            baseline: b.max_reconverge_ticks as f64,
            measured: f.max_reconverge_ticks as f64,
            band: format!("<= {lag_ceiling} (2x baseline, capped at the window)"),
            pass: f.max_reconverge_ticks <= lag_ceiling,
        },
        Check {
            metric: "partition_post_heal_delivery".to_string(),
            baseline: chaos::POST_HEAL_FLOOR,
            measured: f.min_post_heal_delivery,
            band: format!(">= {:.2} absolute", chaos::POST_HEAL_FLOOR),
            pass: f.min_post_heal_delivery >= chaos::POST_HEAL_FLOOR,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_chaos(specs: &[(f64, f64, u64)]) -> ChaosReport {
        let points: Vec<chaos::ChaosPoint> = specs
            .iter()
            .map(|&(loss, min_del, p99)| chaos::ChaosPoint {
                loss,
                mean_delivery_ratio: min_del,
                min_delivery_ratio: min_del,
                mean_retransmissions: 0.0,
                takeovers: 0,
                mean_nacks: if loss > 0.0 { 4.0 } else { 0.0 },
                nack_suppression_ratio: 0.5,
                cache_hit_rate: 0.8,
                mean_recovery_p50: p99 as f64 / 2.0,
                max_recovery_p99: p99,
            })
            .collect();
        ChaosReport {
            seeds: 3,
            points: points.clone(),
            reliable_points: points,
            cells: Vec::new(),
            partition: Some(chaos::ChaosPartitionSummary {
                heal_at: chaos::HEAL_AT,
                window: chaos::RECONVERGE_WINDOW,
                cells: 3,
                stranded_cells: 2,
                takeover_cells: 1,
                max_reconverge_ticks: 4_000,
                min_post_heal_delivery: 1.0,
            }),
            partition_cells: Vec::new(),
        }
    }

    /// The reliability band: absolute delivery floors at the tier's
    /// acceptance numbers, 2x ceiling on worst-case recovery latency.
    #[test]
    fn chaos_band_floors_and_latency_ceiling() {
        let baseline = fake_chaos(&[
            (0.0, 1.0, 0),
            (0.05, 1.0, 900),
            (0.10, 0.99, 1200),
            (0.15, 0.97, 1500),
            (0.20, 0.95, 2000),
        ]);
        let clean = chaos_band(&baseline, &baseline);
        // Lossless point produces no checks; each lossy point two.
        assert_eq!(clean.len(), 8);
        assert!(clean.iter().all(|c| c.pass), "{clean:?}");

        // Worst-seed delivery at 10% loss dipping to 0.90 trips the
        // 0.95 floor; the same value at 20% loss clears the 0.85 one.
        let mut dipped = baseline.clone();
        dipped.reliable_points[2].min_delivery_ratio = 0.90;
        dipped.reliable_points[4].min_delivery_ratio = 0.90;
        let tripped: Vec<String> = chaos_band(&baseline, &dipped)
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.clone())
            .collect();
        assert_eq!(tripped, vec!["reliable_min_delivery[10%]"]);

        // Recovery latency blowing past 2x the committed worst trips
        // the ceiling.
        let mut slow = baseline.clone();
        slow.reliable_points[4].max_recovery_p99 = 4100;
        let tripped: Vec<String> = chaos_band(&baseline, &slow)
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.clone())
            .collect();
        assert_eq!(tripped, vec!["recovery_latency_p99[20%]"]);
    }

    /// The partition band: reconvergence lag ceiling at 2x baseline
    /// (clamped into `[window/2, window]`) and the 0.99 post-heal
    /// delivery floor; pre-partition baselines arm no checks.
    #[test]
    fn partition_band_lag_ceiling_and_delivery_floor() {
        let baseline = fake_chaos(&[(0.0, 1.0, 0)]);
        let clean = partition_band(&baseline, &baseline);
        assert_eq!(clean.len(), 2);
        assert!(clean.iter().all(|c| c.pass), "{clean:?}");

        // 2x the committed 4000-tick lag is 8000; 9000 trips it.
        let mut slow = baseline.clone();
        slow.partition.as_mut().unwrap().max_reconverge_ticks = 9_000;
        let tripped: Vec<String> = partition_band(&baseline, &slow)
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.clone())
            .collect();
        assert_eq!(tripped, vec!["partition_reconverge_ticks"]);

        let mut lossy = baseline.clone();
        lossy.partition.as_mut().unwrap().min_post_heal_delivery = 0.97;
        let tripped: Vec<String> = partition_band(&baseline, &lossy)
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.metric.clone())
            .collect();
        assert_eq!(tripped, vec!["partition_post_heal_delivery"]);

        // A committed lag of 0 still allows half the window (a fresh
        // run reconverging at scan granularity must not trip a
        // degenerate 0-tick ceiling).
        let mut zero = baseline.clone();
        zero.partition.as_mut().unwrap().max_reconverge_ticks = 0;
        let mut fresh = baseline.clone();
        fresh.partition.as_mut().unwrap().max_reconverge_ticks = chaos::RECONVERGE_WINDOW / 2;
        assert!(partition_band(&zero, &fresh).iter().all(|c| c.pass));

        let mut old = baseline.clone();
        old.partition = None;
        assert!(partition_band(&old, &baseline).is_empty());
    }

    /// A failing 0.94 against the 0.95 floor must read as such in the
    /// table, not as `1  1 … FAIL`; whole-number rows stay integers.
    #[test]
    fn rows_print_ratios_to_three_decimals_and_counts_as_integers() {
        let baseline = fake_chaos(&[(0.10, 0.99, 1200)]);
        let mut dipped = baseline.clone();
        dipped.reliable_points[0].min_delivery_ratio = 0.94;
        let report = RegressReport::new(chaos_band(&baseline, &dipped));
        assert!(!report.passed);
        assert_eq!(
            report.rows(),
            vec![
                vec![
                    "reliable_min_delivery[10%]",
                    "0.950",
                    "0.940",
                    ">= 0.95 absolute",
                    "FAIL"
                ],
                vec![
                    "recovery_latency_p99[10%]",
                    "1200",
                    "1200",
                    "<= 2.00x baseline",
                    "ok"
                ],
            ]
        );
    }

    /// The floor rows can fail: a fresh report doctored from the
    /// committed one — worst reliable delivery at 5% loss and worst
    /// post-heal delivery just under their floors — fails exactly those
    /// two rows, which the gate prints as `FAIL`.
    #[test]
    fn floor_rows_fail_under_a_doctored_fresh_report() {
        let baseline = load_chaos_baseline(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench_results/chaos.json"
        )))
        .unwrap();
        let mut fresh = baseline.clone();
        fresh.reliable_points[1].min_delivery_ratio = chaos::LIGHT_LOSS_FLOOR - 0.01;
        fresh.partition.as_mut().unwrap().min_post_heal_delivery = chaos::POST_HEAL_FLOOR - 0.01;
        let mut checks = chaos_band(&baseline, &fresh);
        checks.extend(partition_band(&baseline, &fresh));
        let report = RegressReport::new(checks);
        assert!(!report.passed);
        let failed: Vec<String> = report
            .rows()
            .into_iter()
            .filter(|row| row[4] == "FAIL")
            .map(|row| row[0].clone())
            .collect();
        assert_eq!(
            failed,
            vec!["reliable_min_delivery[5%]", "partition_post_heal_delivery"]
        );
    }

    /// The gate's verdict is a pure function of the tree: the same
    /// sweep at different worker counts serializes to identical JSON,
    /// so a full run leaves the committed `regress.json` git-clean.
    #[test]
    fn gate_verdict_is_deterministic_across_jobs() {
        let baseline = load_chaos_baseline(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../bench_results/chaos.json"
        )))
        .unwrap();
        let serial = RegressReport::new(chaos_recovery_checks(&baseline, 1, 1));
        let parallel = RegressReport::new(chaos_recovery_checks(&baseline, 1, 2));
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
        assert!(serial.passed, "{:?}", serial.checks);
    }
}
