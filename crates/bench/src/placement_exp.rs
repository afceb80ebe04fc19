//! §IV-A m-router placement study.
//!
//! "In our simulations, we also change the location of the m-router to
//! see how it affects the tree cost" — this experiment compares the
//! paper's three placement heuristics against random placement, by
//! building DCDM trees for random groups and measuring cost and delay.

use rand::seq::SliceRandom;
use rand::Rng;
use scmp_core::placement::{self, PlacementRule};
use scmp_net::rng::rng_for;
use scmp_net::topology::{waxman, WaxmanConfig};
use scmp_net::{provider_for, NodeId};
use scmp_tree::{Dcdm, DelayBound};
use serde::Serialize;

/// One averaged data point.
#[derive(Clone, Debug, Serialize)]
pub struct PlacementPoint {
    /// "rule1-avg-delay" | "rule2-degree" | "rule3-diameter" | "random".
    pub strategy: String,
    pub group_size: usize,
    pub tree_cost: f64,
    pub tree_delay: f64,
}

/// One `(strategy, group size, seed)` cell: build the seed's topology,
/// place the root, draw the group, grow the DCDM tree. Fully
/// self-contained — the cell re-derives its RNG stream, so sweep
/// workers can run cells in any order.
fn run_one(rule: Option<PlacementRule>, gs: usize, seed: u64) -> (f64, f64) {
    let mut rng = rng_for("placement", seed);
    let topo = waxman(&WaxmanConfig::default(), &mut rng);
    let paths = provider_for(&topo);
    let root = match rule {
        Some(r) => placement::place(r, &topo, &paths),
        None => NodeId(rng.gen_range(0..topo.node_count() as u32)),
    };
    let mut pool: Vec<NodeId> = topo.nodes().filter(|&v| v != root).collect();
    pool.shuffle(&mut rng);
    let members: Vec<NodeId> = pool.into_iter().take(gs).collect();
    let mut dcdm = Dcdm::new(&topo, &paths, root, DelayBound::Dynamic);
    for &m in &members {
        dcdm.join(m);
    }
    let tree = dcdm.into_tree();
    (tree.tree_cost(&topo) as f64, tree.tree_delay(&topo) as f64)
}

/// Run the study: Waxman n=100, group sizes 10..=90 step 20, `seeds`
/// seeds, on `jobs` workers; results are independent of `jobs`.
pub fn run_jobs(seeds: u64, jobs: usize) -> Vec<PlacementPoint> {
    let strategies: Vec<(String, Option<PlacementRule>)> = PlacementRule::ALL
        .iter()
        .map(|&r| (r.label().to_string(), Some(r)))
        .chain(std::iter::once(("random".to_string(), None)))
        .collect();
    let mut cells: Vec<(usize, usize, u64)> = Vec::new();
    for gs in (10..=90).step_by(20) {
        for (si, _) in strategies.iter().enumerate() {
            for seed in 0..seeds {
                cells.push((gs, si, seed));
            }
        }
    }
    let samples = crate::sweep::SweepRunner::new(jobs).run(&cells, |_, &(gs, si, seed)| {
        run_one(strategies[si].1, gs, seed)
    });

    let mut out = Vec::new();
    let per_point = seeds.max(1) as usize;
    for (chunk_idx, group) in samples.chunks(per_point).enumerate() {
        let (gs, si, _) = cells[chunk_idx * per_point];
        let costs: Vec<f64> = group.iter().map(|&(c, _)| c).collect();
        let delays: Vec<f64> = group.iter().map(|&(_, d)| d).collect();
        out.push(PlacementPoint {
            strategy: strategies[si].0.clone(),
            group_size: gs,
            tree_cost: crate::report::mean(&costs),
            tree_delay: crate::report::mean(&delays),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule1_beats_random_on_delay() {
        let pts = run_jobs(4, 2);
        let avg = |strategy: &str, f: fn(&PlacementPoint) -> f64| {
            let v: Vec<f64> = pts
                .iter()
                .filter(|p| p.strategy == strategy)
                .map(f)
                .collect();
            crate::report::mean(&v)
        };
        let r1 = avg("rule1-avg-delay", |p| p.tree_delay);
        let rnd = avg("random", |p| p.tree_delay);
        assert!(
            r1 <= rnd * 1.05,
            "rule 1 delay {r1} should not exceed random {rnd}"
        );
    }
}
