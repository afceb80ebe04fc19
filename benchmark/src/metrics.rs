//! The metric and workload registry: every name, unit, direction and
//! bound the benchmark emits. `BENCHMARK.json` at the repo root restates
//! it for the acceptance pipeline; a unit test keeps the two equal.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One emitted metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A count that must repeat bit-for-bit between two runs of the
    /// same code and seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees. Measured with tracing off.
///
/// Every timed figure carries the widest bound the acceptance pipeline
/// allows: on the reference host (a shared 2-vCPU microVM) the same
/// binary on the same seed moves by 5 % in a quiet ten minutes and by
/// 20 % in a busy one, whatever the estimator (see README, "Noise
/// floor"). Tighter gates belong on the `exact` per-layer counts.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("join_p50_us", "us", Lower, 0.25),
    e2e("join_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
];

/// Single-layer figures from the traced pass. No bounds: they explain
/// an end-to-end movement, they do not gate one.
pub const PER_LAYER: [MetricDef; 47] = [
    // sim — event queue, transport, fault application.
    exact("sim.events", "count", Lower),
    timed("sim.events_per_s", "1/s", Higher),
    timed("sim.engine_build_s", "s", Lower),
    timed("sim.engine_self_s", "s", Lower),
    timed("sim.engine_self_ns_per_event", "ns", Lower),
    timed("sim.fault_apply_s", "s", Lower),
    timed("sim.fault_apply_ms_per_event", "ms", Lower),
    exact("sim.peak_queue_depth", "count", Lower),
    exact("sim.channel_drops", "count", Lower),
    // core — the SCMP router handlers.
    timed("core.on_packet_s", "s", Lower),
    timed("core.on_timer_s", "s", Lower),
    timed("core.on_app_s", "s", Lower),
    exact("core.handler_calls", "count", Lower),
    timed("core.join_handler_s", "s", Lower),
    timed("core.tree_branch_handler_s", "s", Lower),
    timed("core.data_handler_s", "s", Lower),
    timed("core.reliability_handler_s", "s", Lower),
    timed("core.data_ns_per_hop", "ns", Lower),
    timed("core.on_tree_sends_per_s", "1/s", Higher),
    timed("core.encap_sends_per_s", "1/s", Higher),
    timed("core.leave_p50_us", "us", Lower),
    timed("core.repair_scan_s", "s", Lower),
    exact("core.repair_scans", "count", Lower),
    exact("core.retransmissions", "count", Lower),
    exact("core.nacks_sent", "count", Lower),
    exact("core.repair_cache_hit_ratio", "ratio", Higher),
    // tree — DCDM.
    timed("tree.dcdm_build_s", "s", Lower),
    exact("tree.dcdm_builds", "count", Lower),
    timed("tree.replay_join_p50_us", "us", Lower),
    timed("tree.replay_join_p99_us", "us", Lower),
    timed("tree.replay_leave_p50_us", "us", Lower),
    exact("tree.tree_nodes_mean", "count", Lower),
    // net — topology and path provider.
    timed("net.topo_build_s", "s", Lower),
    timed("net.provider_build_s", "s", Lower),
    timed("net.dijkstra_us", "us", Lower),
    exact("net.provider_hits", "count", Higher),
    exact("net.provider_misses", "count", Lower),
    exact("net.provider_hit_ratio", "ratio", Higher),
    exact("net.path_bytes", "B", Lower),
    // telemetry — sinks (off in every end-to-end figure).
    timed("telemetry.ring_overhead_pct", "%", Lower),
    timed("telemetry.jsonl_overhead_pct", "%", Lower),
    exact("telemetry.events_emitted", "count", Lower),
    // cross-layer. The allocation counts repeat to ~0.1 %, not bit for
    // bit: std's randomly keyed hash tables resize at hash-dependent
    // moments once entries are removed from them.
    timed("alloc.count_per_event", "count", Lower),
    timed("alloc.bytes_per_event", "B", Lower),
    timed("alloc.peak_live_mb", "MB", Lower),
    timed("trace.overhead_pct", "%", Lower),
    timed("trace.coverage_pct", "%", Higher),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v[key]
            .as_str()
            .unwrap_or_else(|| panic!("{key} is a string"))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(workloads::ALL.iter().map(|w| w.name));
        for name in names {
            assert!(well_formed(name), "{name:?}");
            assert!(seen.insert(name), "{name:?} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
    }

    #[test]
    fn benchmark_json_restates_the_registry() {
        let doc = manifest();
        let listed: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(listed, ours);
        for (w, ours) in doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .zip(&workloads::ALL)
        {
            assert_eq!(str_of(w, "why"), ours.why, "{}", ours.name);
            assert!(ours.why.len() <= 200 && !ours.why.contains('\n'));
        }

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc[key].as_array().unwrap_or_else(|| panic!("{key}"));
            assert_eq!(listed.len(), table.len(), "{key}");
            for (got, want) in listed.iter().zip(table) {
                assert_eq!(str_of(got, "name"), want.name);
                assert_eq!(str_of(got, "unit"), want.unit, "{}", want.name);
                assert_eq!(str_of(got, "better"), want.better.label(), "{}", want.name);
                assert_eq!(got["bound"].as_f64(), want.bound, "{}", want.name);
            }
        }
        assert_eq!(doc["paths"].as_array().unwrap().len(), 1);
        assert_eq!(
            doc["paths"].as_array().unwrap()[0].as_str(),
            Some("benchmark")
        );
    }

    #[test]
    fn setup_metric_meets_the_contract() {
        let setup = find("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
