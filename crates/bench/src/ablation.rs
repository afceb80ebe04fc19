//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * **BRANCH vs TREE**: §III-E argues "if the change is small, using a
//!   TREE packet containing the whole tree structure is too expensive" —
//!   measured by running SCMP with `tree_packets_only` and comparing
//!   protocol overhead.
//! * **Candidate path set**: DCDM searches both `P_lc` and `P_sl` per
//!   on-tree router ("2m paths"); restricting to one family shows what
//!   each contributes to tree cost/delay.

use crate::netperf::{sweep_cells, Protocol, TopologyKind};
use crate::report::mean_by;
use crate::scenario_file::{run_batch, RobustnessSpec, Run, ScenarioFile};
use rand::seq::SliceRandom;
use scmp_net::rng::rng_for;
use scmp_net::topology::{waxman, WaxmanConfig};
use scmp_net::{provider_for, Metric, NodeId};
use scmp_tree::{Dcdm, DelayBound};
use serde::Serialize;

/// BRANCH-ablation data point.
#[derive(Clone, Debug, Serialize)]
pub struct BranchPoint {
    pub group_size: usize,
    /// Mean protocol overhead with BRANCH packets enabled (paper).
    pub with_branch: f64,
    /// Mean protocol overhead with full TREE refresh on every join.
    pub tree_only: f64,
}

/// The BRANCH-ablation cells: the join phase of each SCMP Fig. 8 cell
/// on the degree-3 random topology, in fold order: group size → BRANCH
/// packets, then `tree_packets_only` → seed.
pub fn branch_cells(seeds: u64) -> Vec<ScenarioFile> {
    let points = TopologyKind::Random50Deg3.points();
    let mut draws = sweep_cells(&points, &[Protocol::Scmp], seeds);
    for draw in &mut draws {
        draw.events.retain(|ev| ev.op == "join");
    }
    let mut cells = Vec::with_capacity(2 * draws.len());
    for draws in draws.chunks(seeds.max(1) as usize) {
        for flag in [false, true] {
            let robustness = RobustnessSpec {
                tree_packets_only: Some(flag),
                ..RobustnessSpec::default()
            };
            cells.extend(draws.iter().map(|draw| ScenarioFile {
                robustness: Some(robustness.clone()),
                ..draw.clone()
            }));
        }
    }
    cells
}

/// Run the BRANCH vs TREE ablation on `jobs` workers.
pub fn run_branch(seeds: u64, jobs: usize) -> Result<Vec<BranchPoint>, String> {
    let runs: Vec<Run> = run_batch(&branch_cells(seeds), jobs, false)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let sizes = TopologyKind::Random50Deg3.group_sizes().into_iter();
    let out = sizes.zip(runs.chunks(2 * seeds.max(1) as usize));
    let out = out.map(|(group_size, runs)| {
        let (with_branch, tree_only) = runs.split_at(runs.len() / 2);
        let overhead = |runs: &[Run]| mean_by(runs, |r| r.result.protocol_overhead as f64);
        BranchPoint {
            group_size,
            with_branch: overhead(with_branch),
            tree_only: overhead(tree_only),
        }
    });
    Ok(out.collect())
}

/// Path-set ablation data point.
#[derive(Clone, Debug, Serialize)]
pub struct PathSetPoint {
    pub group_size: usize,
    pub both_cost: f64,
    pub both_delay: f64,
    pub lc_only_cost: f64,
    pub lc_only_delay: f64,
    pub sl_only_cost: f64,
    pub sl_only_delay: f64,
}

/// Run the DCDM candidate-set ablation on Waxman n = 100.
pub fn run_paths(seeds: u64) -> Vec<PathSetPoint> {
    let sets: [(&str, &[Metric]); 3] = [
        ("both", &[Metric::Cost, Metric::Delay]),
        ("lc", &[Metric::Cost]),
        ("sl", &[Metric::Delay]),
    ];
    let mut out = Vec::new();
    for gs in (10..=90).step_by(20) {
        let mut acc: Vec<(f64, f64)> = Vec::new();
        let mut sums = vec![(Vec::new(), Vec::new()); 3];
        for seed in 0..seeds {
            let mut rng = rng_for("ablation-paths", seed);
            let topo = waxman(&WaxmanConfig::default(), &mut rng);
            let paths = provider_for(&topo);
            let root = NodeId(0);
            let mut pool: Vec<NodeId> = topo.nodes().filter(|&v| v != root).collect();
            pool.shuffle(&mut rng);
            let members: Vec<NodeId> = pool.into_iter().take(gs).collect();
            for (i, (_, metrics)) in sets.iter().enumerate() {
                let mut dcdm = Dcdm::new(&topo, &paths, root, DelayBound::Dynamic);
                dcdm.set_candidate_metrics(metrics);
                for &m in &members {
                    dcdm.join(m);
                }
                let tree = dcdm.into_tree();
                sums[i].0.push(tree.tree_cost(&topo) as f64);
                sums[i].1.push(tree.tree_delay(&topo) as f64);
            }
        }
        acc.clear();
        for (costs, delays) in &sums {
            acc.push((crate::report::mean(costs), crate::report::mean(delays)));
        }
        out.push(PathSetPoint {
            group_size: gs,
            both_cost: acc[0].0,
            both_delay: acc[0].1,
            lc_only_cost: acc[1].0,
            lc_only_delay: acc[1].1,
            sl_only_cost: acc[2].0,
            sl_only_delay: acc[2].1,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_saves_protocol_overhead() {
        let pts = run_branch(2, 2).unwrap();
        // Summed over the sweep, BRANCH must be cheaper than full TREE
        // refreshes (that is its entire purpose).
        let wb: f64 = pts.iter().map(|p| p.with_branch).sum();
        let to: f64 = pts.iter().map(|p| p.tree_only).sum();
        assert!(wb < to, "branch {wb} >= tree-only {to}");
    }

    #[test]
    fn dual_path_set_no_worse_on_cost() {
        let pts = run_paths(2);
        for p in &pts {
            // Having more candidates can only improve the chosen cost
            // per join; aggregated over a sweep the ordering holds
            // against the sl-only variant.
            assert!(
                p.both_cost <= p.sl_only_cost * 1.02,
                "both {} vs sl-only {}",
                p.both_cost,
                p.sl_only_cost
            );
        }
    }
}
