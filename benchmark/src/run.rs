//! The two passes over one workload: end-to-end (tracing off) and
//! traced (per-layer), each ending in the one-line result the
//! acceptance pipeline reads.

use crate::harness::{run_iteration, Iteration, Mode, Prepared, Timings};
use crate::layers::{self, TraceSummary};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::{self, Name};
use crate::workloads::WorkloadDef;
use crate::{alloc, stats};
use scmp_telemetry::profile;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest measured iterations (end-to-end) or rounds (traced), however
/// short the budget.
const MIN_ITERATIONS: usize = 3;
const MIN_ROUNDS: usize = 2;

/// One run's parameters.
pub struct Options {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    /// Measuring budget in seconds (set-up comes on top).
    pub seconds: f64,
    pub quick: bool,
    /// Directory the output documents go to.
    pub out: PathBuf,
}

/// What a pass hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, value)` in registry order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let doc = obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", metrics_value(&self.metrics)),
        ]);
        serde_json::to_string(&doc).expect("plain values serialise")
    }
}

fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn floats(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::F64(x)).collect())
}

fn metrics_value(metrics: &[(&'static MetricDef, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(def, value)| {
                (
                    def.name.to_string(),
                    obj([
                        ("value", Value::F64(*value)),
                        ("unit", Value::Str(def.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Generate the inputs and run the cold first iteration.
fn set_up(opts: &Options) -> (Prepared, Iteration, f64) {
    let t = Instant::now();
    let prep = Prepared::new((opts.workload.build)(opts.seed, opts.quick));
    let cold = run_iteration(&prep, &Mode::Plain);
    let seconds = t.elapsed().as_secs_f64();
    (prep, cold, seconds)
}

/// Everything a pass learns about correctness, folded over iterations.
struct Verdict {
    digest: u64,
    violations: Vec<String>,
    failed: u64,
}

impl Verdict {
    fn new(cold: &Iteration) -> Self {
        Verdict {
            digest: cold.digest,
            violations: cold.violations.clone(),
            failed: cold.failed,
        }
    }

    /// Every iteration replays the same inputs, so it must reproduce
    /// the cold run's digest whatever its instrumentation.
    fn fold(&mut self, what: &str, it: &Iteration) {
        if it.digest != self.digest {
            self.violations.push(format!(
                "{what} iteration digest {:016x} differs from the cold run's {:016x}",
                it.digest, self.digest
            ));
        }
        self.failed = self.failed.max(it.failed);
    }
}

/// The end-to-end pass: tracing off, bare routers, `NullSink`.
pub fn end_to_end(opts: &Options) -> io::Result<Outcome> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (prep, cold, seconds) = set_up(opts);
        setups.push(seconds);
        last = Some((prep, cold));
    }
    let (prep, cold) = last.expect("SETUP_REPS > 0");
    let mut verdict = Verdict::new(&cold);

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    // Both timed figures are built from per-segment floors (see
    // `Timings`): throughput from their sum, the join quantiles from
    // the join slices' own.
    let mut timings = Timings::default();
    while timings.iterations.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let it = run_iteration(&prep, &Mode::Plain);
        verdict.fold("measured", &it);
        timings.fold(&it);
    }
    let times = &timings.iterations;
    let floor_s = timings.floor_s();
    let mut per_join: Vec<f64> = timings
        .floors
        .iter()
        .zip(&prep.segments)
        .filter(|(_, &label)| label == Name::SliceJoin)
        .map(|(&ns, _)| ns as f64 / 1e3)
        .collect();
    let joins = per_join.len();
    per_join.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let (join_tail, tail_rank) = stats::tail_percentile(&per_join, 0.99);

    let values = [
        stats::median(&setups),
        prep.ops as f64 / floor_s,
        stats::quantile(&per_join, 0.5),
        join_tail,
        peak_rss_mb()?,
    ];
    let metrics: Vec<(&'static MetricDef, f64)> = END_TO_END.iter().zip(values).collect();
    let outcome = Outcome {
        correct: verdict.violations.is_empty(),
        attempted: prep.ops,
        failed: verdict.failed,
        metrics,
    };

    let sorted_times = stats::sorted(times);
    let doc = obj([
        ("workload", Value::Str(opts.workload.name.to_string())),
        ("pass", Value::Str("end_to_end".to_string())),
        ("quick", Value::Bool(opts.quick)),
        (
            "manifest",
            manifest(
                opts,
                &verdict,
                &prep,
                cold.events,
                [
                    ("iterations", Value::U64(times.len() as u64)),
                    ("iteration_s", floats(times)),
                    ("iteration_floor_s", Value::F64(floor_s)),
                    ("iteration_min_s", Value::F64(sorted_times[0])),
                    ("iteration_p25_s", Value::F64(stats::lower_quartile(times))),
                    ("iteration_median_s", Value::F64(stats::median(times))),
                    ("segments", Value::U64(timings.floors.len() as u64)),
                    ("setup_s", floats(&setups)),
                    ("joins", Value::U64(joins as u64)),
                    ("join_tail_rank", Value::F64(tail_rank)),
                ],
            ),
        ),
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        (
            "violations",
            Value::Array(verdict.violations.iter().cloned().map(Value::Str).collect()),
        ),
        ("metrics", metrics_value(&outcome.metrics)),
    ]);
    write_doc(&opts.out, &format!("{}.json", opts.workload.name), &doc)?;

    print_header(opts, "end to end, tracing off");
    print_metrics(&outcome.metrics);
    println!(
        "  {} iterations of {} ops in {} segments: floor {:.4} s, min {:.4} s, median {:.4} s; {} joins, tail at p{:.1}",
        times.len(),
        prep.ops,
        timings.floors.len(),
        floor_s,
        sorted_times[0],
        stats::median(times),
        joins,
        100.0 * tail_rank,
    );
    print_verdict(&verdict, &outcome);
    Ok(outcome)
}

/// The traced pass: rounds of (plain, traced, ring-sink, JSONL-sink)
/// iterations interleaved so that host drift hits all four alike, then
/// the allocation iteration and the engine-free probes.
pub fn traced(opts: &Options) -> io::Result<Outcome> {
    spans::start();
    let root = spans::scope(Name::Workload);
    let (prep, cold, _) = {
        let _span = spans::scope(Name::SetUp);
        set_up(opts)
    };
    let mut verdict = Verdict::new(&cold);
    let lines = Arc::new(AtomicU64::new(0));

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let [mut plain, mut with_trace, mut with_ring, mut with_jsonl]: [Timings; 4] =
        Default::default();
    let mut timed: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_trace = None;
    let mut rounds = 0;
    let mut iter = 0;
    let mut next_iteration = || {
        iter += 1;
        spans::set_iteration(iter);
        iter
    };
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        rounds += 1;
        spans::drop_detail();
        next_iteration();
        let it = run_iteration(&prep, &Mode::Plain);
        verdict.fold("plain", &it);
        plain.fold(&it);

        let traced_iter = next_iteration();
        profile::reset();
        let it = run_iteration(&prep, &Mode::Traced);
        let program_spans = profile::snapshot();
        verdict.fold("traced", &it);
        with_trace.fold(&it);
        let summary = spans::inspect(|all| TraceSummary::new(all, traced_iter));
        let mut figures = summary.timed_metrics(it.events);
        let dcdm = program_spans.get(profile::Span::DcdmBuild);
        let scan = program_spans.get(profile::Span::RepairScan);
        figures.insert("tree.dcdm_build_s", dcdm.total_ns as f64 / 1e9);
        figures.insert("core.repair_scan_s", scan.total_ns as f64 / 1e9);
        for (name, value) in figures {
            timed.entry(name).or_default().push(value);
        }
        last_trace = Some((summary, program_spans));

        next_iteration();
        let it = run_iteration(&prep, &Mode::Ring);
        verdict.fold("ring-sink", &it);
        with_ring.fold(&it);

        next_iteration();
        lines.store(0, Relaxed);
        let it = run_iteration(&prep, &Mode::Jsonl(Arc::clone(&lines)));
        verdict.fold("jsonl-sink", &it);
        with_jsonl.fold(&it);
    }
    let (summary, program_spans) = last_trace.expect("MIN_ROUNDS > 0");
    let events_emitted = lines.load(Relaxed);

    let (replay, provider_build_s, dijkstra_us) = {
        let _span = spans::scope(Name::Probes);
        (
            layers::replay(&prep.plan),
            layers::provider_build_s(&prep.plan),
            layers::dijkstra_us(&prep.plan),
        )
    };
    let replay_joins = stats::sorted(&replay.join_us);
    let app_ops: usize = prep.plan.cells.iter().map(|c| c.ops.len()).sum();
    let fault_events = prep.ops - app_ops as u64;
    drop(root);
    let recorded = spans::finish();

    // Allocation iteration: untraced, unrecorded, allocator armed, so
    // nothing but the program allocates inside the window.
    alloc::arm();
    let it = run_iteration(&prep, &Mode::Plain);
    let allocs = alloc::disarm();
    verdict.fold("allocation", &it);

    // Overheads compare floors, like every other timed ratio here.
    let plain_s = plain.floor_s();
    let overhead = |with: &Timings| 100.0 * (with.floor_s() / plain_s - 1.0);
    let med = |name: &str| stats::median(&timed[name]);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut values: BTreeMap<&'static str, f64> = timed
        .iter()
        .map(|(name, xs)| (*name, stats::median(xs)))
        .collect();
    values.extend([
        ("sim.events", cold.events as f64),
        ("sim.events_per_s", cold.events as f64 / plain_s),
        (
            "sim.fault_apply_ms_per_event",
            if fault_events == 0 {
                0.0
            } else {
                1e3 * med("sim.fault_apply_s") / fault_events as f64
            },
        ),
        ("sim.peak_queue_depth", cold.peak_queue as f64),
        ("sim.channel_drops", cold.channel_drops as f64),
        ("core.handler_calls", summary.handler_calls() as f64),
        (
            "core.repair_scans",
            program_spans.get(profile::Span::RepairScan).count as f64,
        ),
        ("core.retransmissions", cold.retransmissions as f64),
        ("core.nacks_sent", cold.nacks_sent as f64),
        (
            "core.repair_cache_hit_ratio",
            ratio(cold.cache_hits, cold.cache_hits + cold.cache_misses),
        ),
        (
            "tree.dcdm_builds",
            program_spans.get(profile::Span::DcdmBuild).count as f64,
        ),
        (
            "tree.replay_join_p50_us",
            stats::quantile(&replay_joins, 0.5),
        ),
        (
            "tree.replay_join_p99_us",
            stats::tail_percentile(&replay_joins, 0.99).0,
        ),
        (
            "tree.replay_leave_p50_us",
            if replay.leave_us.is_empty() {
                0.0
            } else {
                stats::median(&replay.leave_us)
            },
        ),
        ("tree.tree_nodes_mean", replay.tree_nodes_mean),
        ("net.topo_build_s", prep.plan.topo_build_s),
        ("net.provider_build_s", provider_build_s),
        ("net.dijkstra_us", dijkstra_us),
        ("net.provider_hits", replay.provider_hits as f64),
        ("net.provider_misses", replay.provider_misses as f64),
        (
            "net.provider_hit_ratio",
            ratio(
                replay.provider_hits,
                replay.provider_hits + replay.provider_misses,
            ),
        ),
        ("net.path_bytes", replay.path_bytes as f64),
        ("telemetry.ring_overhead_pct", overhead(&with_ring)),
        ("telemetry.jsonl_overhead_pct", overhead(&with_jsonl)),
        ("telemetry.events_emitted", events_emitted as f64),
        ("alloc.count_per_event", ratio(allocs.count, it.events)),
        ("alloc.bytes_per_event", ratio(allocs.bytes, it.events)),
        (
            "alloc.peak_live_mb",
            allocs.peak_live as f64 / (1 << 20) as f64,
        ),
        ("trace.overhead_pct", overhead(&with_trace)),
    ]);

    // The wrapper must be transparent, and on a loss-free channel every
    // slice the trace labelled "encap" must have produced exactly one
    // EncapData arrival at the m-router.
    if cold.channel_drops == 0
        && summary.count(Name::SliceSendEncap) != summary.count(Name::PktEncapData)
    {
        verdict.violations.push(format!(
            "{} send slices labelled encap but {} EncapData arrivals",
            summary.count(Name::SliceSendEncap),
            summary.count(Name::PktEncapData)
        ));
    }

    let metrics: Vec<(&'static MetricDef, f64)> = PER_LAYER
        .iter()
        .map(|def| {
            let value = values
                .get(def.name)
                .unwrap_or_else(|| panic!("no value computed for {}", def.name));
            (def, *value)
        })
        .collect();
    let outcome = Outcome {
        correct: verdict.violations.is_empty(),
        attempted: prep.ops,
        failed: verdict.failed,
        metrics,
    };

    let traced_wall = summary.iteration_s();
    let mut breakdown = summary.breakdown();
    // The program's own aggregate spans nest inside handlers; list them
    // beside the benchmark's so the table names DCDM and the scan.
    for (label, span) in [
        ("program.dcdm_build", profile::Span::DcdmBuild),
        ("program.repair_scan", profile::Span::RepairScan),
    ] {
        let s = program_spans.get(span);
        if s.count > 0 {
            breakdown.push((label, s.total_ns as f64 / 1e9, s.count));
        }
    }
    let share = |s: f64| {
        if traced_wall == 0.0 {
            0.0
        } else {
            100.0 * s / traced_wall
        }
    };
    let doc = obj([
        ("workload", Value::Str(opts.workload.name.to_string())),
        ("pass", Value::Str("per_layer".to_string())),
        ("quick", Value::Bool(opts.quick)),
        (
            "manifest",
            manifest(
                opts,
                &verdict,
                &prep,
                cold.events,
                [
                    ("rounds", Value::U64(rounds as u64)),
                    ("plain_iteration_s", floats(&plain.iterations)),
                    ("traced_iteration_s", floats(&with_trace.iterations)),
                    ("ring_iteration_s", floats(&with_ring.iterations)),
                    ("jsonl_iteration_s", floats(&with_jsonl.iterations)),
                    ("spans", Value::U64(recorded.len() as u64)),
                ],
            ),
        ),
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::U64(outcome.attempted)),
        ("failed", Value::U64(outcome.failed)),
        (
            "violations",
            Value::Array(verdict.violations.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "breakdown",
            Value::Array(
                breakdown
                    .iter()
                    .map(|&(span, seconds, count)| {
                        obj([
                            ("span", Value::Str(span.to_string())),
                            ("seconds", Value::F64(seconds)),
                            ("share_pct", Value::F64(share(seconds))),
                            ("count", Value::U64(count)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics_value(&outcome.metrics)),
    ]);
    write_doc(
        &opts.out,
        &format!("{}.layers.json", opts.workload.name),
        &doc,
    )?;
    let trace_path = opts.out.join(format!("{}.trace.jsonl", opts.workload.name));
    let mut w = BufWriter::new(fs::File::create(&trace_path)?);
    spans::write_jsonl(&recorded, &mut w)?;
    w.flush()?;

    print_header(opts, "per layer, traced");
    print_metrics(&outcome.metrics);
    println!(
        "  {rounds} rounds; last traced iteration {traced_wall:.4} s; {} spans -> {}",
        recorded.len(),
        trace_path.display()
    );
    println!("  where the time goes (self time; program.* nest inside handlers):");
    for &(span, seconds, count) in breakdown.iter().filter(|r| share(r.1) >= 0.5) {
        println!(
            "    {span:<24} {seconds:>10.4} s {:>6.1} %  x{count}",
            share(seconds)
        );
    }
    print_verdict(&verdict, &outcome);
    Ok(outcome)
}

/// The run manifest every output document carries.
fn manifest<const N: usize>(
    opts: &Options,
    verdict: &Verdict,
    prep: &Prepared,
    events: u64,
    extra: [(&str, Value); N],
) -> Value {
    let mut fields = vec![
        ("git_rev".to_string(), Value::Str(git_rev())),
        ("seed".to_string(), Value::U64(opts.seed)),
        (
            "nproc".to_string(),
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "rustc".to_string(),
            Value::Str(std::env::var("SCMP_BENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string())),
        ),
        (
            "profile".to_string(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("budget_s".to_string(), Value::F64(opts.seconds)),
        (
            "model_digest".to_string(),
            Value::Str(format!("{:016x}", verdict.digest)),
        ),
        (
            "schedule_hash".to_string(),
            Value::Str(format!("{:016x}", prep.plan.schedule_hash())),
        ),
        ("ops_per_iteration".to_string(), Value::U64(prep.ops)),
        ("events_per_iteration".to_string(), Value::U64(events)),
    ];
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Object(fields)
}

/// The commit the checkout is at, read from `.git` (never by running
/// git: the benchmark touches nothing outside its checkout). Exported
/// trees have no `.git`; they report "unknown".
fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
                        .unwrap_or_default()
                })
            })
            .unwrap_or_default(),
    };
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

fn write_doc(dir: &Path, file: &str, doc: &Value) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let text = serde_json::to_string_pretty(doc).expect("plain values serialise");
    fs::write(dir.join(file), text + "\n")
}

fn print_header(opts: &Options, pass: &str) {
    println!(
        "{}  seed {}  {pass}{}",
        opts.workload.name,
        opts.seed,
        if opts.quick {
            "  [QUICK: tiny sizes, numbers not comparable]"
        } else {
            ""
        }
    );
    println!("  why: {}", opts.workload.why);
}

fn print_metrics(metrics: &[(&'static MetricDef, f64)]) {
    for (def, value) in metrics {
        println!(
            "  {:<34} {:>16.4} {:<6} {} is better{}",
            def.name,
            value,
            def.unit,
            def.better.label(),
            if def.exact { ", exact" } else { "" }
        );
    }
}

fn print_verdict(verdict: &Verdict, outcome: &Outcome) {
    println!(
        "  model_digest {:016x}  attempted {}  failed {}  correct {}",
        verdict.digest, outcome.attempted, outcome.failed, outcome.correct
    );
    for v in &verdict.violations {
        println!("  VIOLATION: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, workloads};

    fn quick(workload: &str) -> Options {
        Options {
            workload: workloads::find(workload).unwrap(),
            seed: 1,
            seconds: 0.01,
            quick: true,
            out: std::env::temp_dir().join(format!("scmp-benchmark-test-{}", std::process::id())),
        }
    }

    fn emitted(outcome: &Outcome) -> Vec<String> {
        let line: Value = serde_json::from_str(&outcome.result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        line["metrics"]
            .as_object()
            .unwrap()
            .iter()
            .map(|(name, m)| {
                assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{name}");
                assert_eq!(m["unit"].as_str(), Some(metrics::find(name).unwrap().unit));
                name.clone()
            })
            .collect()
    }

    /// Every workload, both passes, at CI size: outputs check out, the
    /// traced digest equals the untraced one (`Verdict::fold`), and the
    /// names emitted are exactly the registry's — which another test
    /// holds equal to `BENCHMARK.json`.
    #[test]
    fn every_workload_passes_its_checks_and_emits_the_registry() {
        let _guard = alloc::TEST_WINDOW.lock().unwrap_or_else(|e| e.into_inner());
        for w in &workloads::ALL {
            let opts = quick(w.name);
            let e2e = end_to_end(&opts).unwrap();
            assert!(
                e2e.correct && e2e.failed == 0 && e2e.attempted >= 1,
                "{}",
                w.name
            );
            let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(emitted(&e2e), names, "{}", w.name);
            assert!(
                e2e.metrics.iter().all(|(_, v)| *v > 0.0),
                "{}: a zero end-to-end metric",
                w.name
            );

            let layers = traced(&opts).unwrap();
            assert!(layers.correct && layers.failed == 0, "{}", w.name);
            let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(emitted(&layers), names, "{}", w.name);
            let value = |name: &str| {
                layers
                    .metrics
                    .iter()
                    .find(|(d, _)| d.name == name)
                    .unwrap()
                    .1
            };
            assert!(value("trace.coverage_pct") >= 90.0, "{}", w.name);
            assert!(value("sim.events") > 0.0 && value("core.handler_calls") > 0.0);

            // The documents carry the run manifest.
            for file in [
                format!("{}.json", w.name),
                format!("{}.layers.json", w.name),
            ] {
                let text = fs::read_to_string(opts.out.join(file)).unwrap();
                let doc: Value = serde_json::from_str(&text).unwrap();
                assert_eq!(doc["quick"], Value::Bool(true));
                for key in [
                    "git_rev",
                    "seed",
                    "nproc",
                    "rustc",
                    "profile",
                    "budget_s",
                    "model_digest",
                ] {
                    assert!(
                        doc["manifest"].get(key).is_some(),
                        "{}: manifest.{key}",
                        w.name
                    );
                }
            }
            let trace =
                fs::read_to_string(opts.out.join(format!("{}.trace.jsonl", w.name))).unwrap();
            assert!(trace.starts_with("{\"id\":0,\"name\":\"workload\""));
            assert!(
                trace.contains("\"name\":\"iteration.traced\"") && trace.contains("\"name\":\"on_")
            );
        }
        fs::remove_dir_all(quick("paper_fig").out).unwrap();
    }

    #[test]
    fn another_seed_moves_the_digest() {
        let digest = |seed| {
            let opts = Options {
                seed,
                ..quick("stream_1k")
            };
            set_up(&opts).1.digest
        };
        assert_eq!(digest(1), digest(1));
        assert_ne!(digest(1), digest(2));
    }
}
