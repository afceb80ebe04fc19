//! Fig. 7 — multicast tree quality: DCDM vs KMB vs SPT.
//!
//! §IV-A setup: Waxman topology, 100 nodes, α = 0.25, β = 0.2; group
//! size 10..90 step 10; each point averaged over 10 seeds; delay
//! constraint at three levels (tightest / moderate / loosest). SPT and
//! KMB ignore the constraint (they appear identically in every panel of
//! the paper's figure); DCDM takes it as a fixed bound.

use rand::seq::SliceRandom;
use scmp_net::rng::rng_for;
use scmp_net::topology::{waxman, WaxmanConfig};
use scmp_net::{provider_for, NodeId};
use scmp_tree::{
    delay_bound, kmb_tree, spt_tree, ConstraintLevel, Dcdm, DelayBound, GreedySteiner,
};
use serde::Serialize;

/// One averaged data point of the figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Point {
    /// Delay-constraint level label.
    pub level: String,
    /// Number of group members.
    pub group_size: usize,
    /// Mean tree delay per algorithm (greedy = the online heuristic of
    /// the paper's reference \[1\], added beyond the paper's three).
    pub spt_delay: f64,
    pub kmb_delay: f64,
    pub dcdm_delay: f64,
    pub greedy_delay: f64,
    /// Mean tree cost per algorithm.
    pub spt_cost: f64,
    pub kmb_cost: f64,
    pub dcdm_cost: f64,
    pub greedy_cost: f64,
}

/// Experiment parameters (paper defaults via [`Default`]).
#[derive(Clone, Copy, Debug)]
pub struct Fig7Config {
    /// Topology size (paper: 100).
    pub nodes: usize,
    /// Seeds per point (paper: 10).
    pub seeds: u64,
    /// Group sizes swept (paper: 10..=90 step 10).
    pub min_group: usize,
    pub max_group: usize,
    pub group_step: usize,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            nodes: 100,
            seeds: 10,
            min_group: 10,
            max_group: 90,
            group_step: 10,
        }
    }
}

/// Run the full Fig. 7 sweep on `jobs` workers. Each
/// `(level, group size, seed)` cell is independent — it derives its
/// topology and member draw from `rng_for("fig7", seed)` — so the
/// fan-out merges in fixed cell order and any `jobs` value yields the
/// same points as the serial loop.
pub fn run_jobs(cfg: &Fig7Config, jobs: usize) -> Vec<Fig7Point> {
    let sizes: Vec<usize> = (cfg.min_group..=cfg.max_group)
        .step_by(cfg.group_step)
        .collect();
    let mut cells: Vec<(ConstraintLevel, usize, u64)> = Vec::new();
    for level in ConstraintLevel::ALL {
        for &gs in &sizes {
            for seed in 0..cfg.seeds {
                cells.push((level, gs, seed));
            }
        }
    }
    let samples = crate::sweep::SweepRunner::new(jobs).run(&cells, |_, &(level, gs, seed)| {
        run_one(cfg, level, gs, seed)
    });

    let mut out = Vec::new();
    let per_point = cfg.seeds.max(1) as usize;
    for (chunk_idx, group) in samples.chunks(per_point).enumerate() {
        let (level, gs, _) = cells[chunk_idx * per_point];
        let mut acc: [Vec<f64>; 8] = Default::default();
        for sample in group {
            for (slot, v) in acc.iter_mut().zip(sample) {
                slot.push(*v);
            }
        }
        out.push(Fig7Point {
            level: level.label().to_string(),
            group_size: gs,
            spt_delay: crate::report::mean(&acc[0]),
            kmb_delay: crate::report::mean(&acc[1]),
            dcdm_delay: crate::report::mean(&acc[2]),
            greedy_delay: crate::report::mean(&acc[3]),
            spt_cost: crate::report::mean(&acc[4]),
            kmb_cost: crate::report::mean(&acc[5]),
            dcdm_cost: crate::report::mean(&acc[6]),
            greedy_cost: crate::report::mean(&acc[7]),
        });
    }
    out
}

/// One (level, group size, seed) sample:
/// `[spt_delay, kmb_delay, dcdm_delay, greedy_delay,
///   spt_cost, kmb_cost, dcdm_cost, greedy_cost]`.
fn run_one(cfg: &Fig7Config, level: ConstraintLevel, group_size: usize, seed: u64) -> [f64; 8] {
    let mut rng = rng_for("fig7", seed);
    let topo = waxman(
        &WaxmanConfig {
            n: cfg.nodes,
            ..WaxmanConfig::default()
        },
        &mut rng,
    );
    let paths = provider_for(&topo);
    let root = NodeId(0);
    let mut candidates: Vec<NodeId> = topo.nodes().filter(|&v| v != root).collect();
    candidates.shuffle(&mut rng);
    let members: Vec<NodeId> = candidates
        .into_iter()
        .take(group_size.min(cfg.nodes - 1))
        .collect();

    let spt = spt_tree(&topo, &paths, root, &members);
    let kmb = kmb_tree(&topo, &paths, root, &members);
    let bound = delay_bound(level, &paths, root, &members);
    let mut dcdm = Dcdm::new(&topo, &paths, root, DelayBound::Fixed(bound));
    for &m in &members {
        dcdm.join(m);
    }
    let dcdm = dcdm.into_tree();
    let mut greedy = GreedySteiner::new(&topo, &paths, root);
    for &m in &members {
        greedy.join(m);
    }
    let greedy = greedy.into_tree();

    [
        spt.tree_delay(&topo) as f64,
        kmb.tree_delay(&topo) as f64,
        dcdm.tree_delay(&topo) as f64,
        greedy.tree_delay(&topo) as f64,
        spt.tree_cost(&topo) as f64,
        kmb.tree_cost(&topo) as f64,
        dcdm.tree_cost(&topo) as f64,
        greedy.tree_cost(&topo) as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig7Config {
        Fig7Config {
            nodes: 40,
            seeds: 3,
            min_group: 5,
            max_group: 25,
            group_step: 10,
        }
    }

    #[test]
    fn shape_matches_paper_claims() {
        let points = run_jobs(&small(), 2);
        for p in &points {
            // SPT is delay-optimal; nothing beats it.
            assert!(p.kmb_delay >= p.spt_delay - 1e-9, "{p:?}");
            assert!(p.dcdm_delay >= p.spt_delay - 1e-9, "{p:?}");
            // KMB is the cheapest; SPT the most expensive (on average the
            // ordering can wobble per seed, but with 3 seeds at these
            // sizes it holds robustly for the mean).
            assert!(p.kmb_cost <= p.spt_cost + 1e-9, "{p:?}");
        }
        // DCDM cost sits between KMB and SPT at the loosest level.
        let loosest: Vec<_> = points.iter().filter(|p| p.level == "loosest").collect();
        for p in &loosest {
            assert!(
                p.dcdm_cost <= p.spt_cost * 1.15,
                "loose DCDM should not exceed SPT cost materially: {p:?}"
            );
        }
    }

    #[test]
    fn parallel_jobs_match_serial() {
        let cfg = small();
        let serial = serde_json::to_string(&run_jobs(&cfg, 1)).unwrap();
        let parallel = serde_json::to_string(&run_jobs(&cfg, 4)).unwrap();
        assert_eq!(serial, parallel, "fig7 points must not depend on jobs");
    }

    #[test]
    fn deterministic() {
        let cfg = Fig7Config {
            seeds: 2,
            min_group: 10,
            max_group: 10,
            nodes: 30,
            group_step: 10,
        };
        let a = run_jobs(&cfg, 2);
        let b = run_jobs(&cfg, 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.dcdm_cost, y.dcdm_cost);
            assert_eq!(x.kmb_delay, y.kmb_delay);
        }
    }
}
