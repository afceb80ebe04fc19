//! Extra experiment: PIM-SM vs CBT vs SCMP on the §IV-B scenarios.
//!
//! The paper's figures compare four protocols; its *text* also argues
//! against PIM-SM as an ST-based design (§I). This experiment puts the
//! three shared-tree protocols side by side: PIM-SM's single-pass join
//! is the cheapest control plane, but its unidirectional tree pays the
//! RP detour on every packet — SCMP's bidirectional DCDM tree wins data
//! overhead, CBT sits between.

use crate::netperf::{sweep_cells, TopologyKind};
use crate::report::mean_by;
use crate::scenario_file::{run_batch, Run, ScenarioFile};
use scmp_protocols::ProtocolKind;
use serde::Serialize;

/// One averaged data point.
#[derive(Clone, Debug, Serialize)]
pub struct PimPoint {
    pub protocol: String,
    pub group_size: usize,
    pub data_overhead: f64,
    pub protocol_overhead: f64,
    pub max_e2e_delay: f64,
}

/// The Fig. 8 cells of the shared-tree trio on the degree-3 topology, in
/// fold order: group size → protocol → seed.
pub fn cells(seeds: u64) -> Vec<ScenarioFile> {
    let points = TopologyKind::Random50Deg3.points();
    sweep_cells(&points, &ProtocolKind::SHARED_TREE, seeds)
}

/// Sweep the shared-tree trio over group sizes on the degree-3 topology,
/// on `jobs` workers.
pub fn run(seeds: u64, jobs: usize) -> Result<Vec<PimPoint>, String> {
    let runs: Vec<Run> = run_batch(&cells(seeds), jobs, false)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let keys = TopologyKind::Random50Deg3
        .group_sizes()
        .into_iter()
        .flat_map(|gs| ProtocolKind::SHARED_TREE.map(|proto| (gs, proto)));
    let chunks = runs.chunks(seeds.max(1) as usize);
    let out = keys
        .zip(chunks)
        .map(|((group_size, proto), runs)| PimPoint {
            protocol: proto.label().to_string(),
            group_size,
            data_overhead: mean_by(runs, |r| r.result.data_overhead as f64),
            protocol_overhead: mean_by(runs, |r| r.result.protocol_overhead as f64),
            max_e2e_delay: mean_by(runs, |r| r.result.max_end_to_end_delay as f64),
        });
    Ok(out.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pim_join_cheapest_control_scmp_cheapest_data() {
        // One mid-size cell, few seeds — full sweep runs in the binary.
        let cells = sweep_cells(
            &[(TopologyKind::Random50Deg3, 20)],
            &ProtocolKind::SHARED_TREE,
            3,
        );
        let runs: Vec<Run> = run_batch(&cells, 1, false)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let sum = |proto: ProtocolKind| {
            let mine = cells.iter().zip(&runs);
            let mine = mine.filter(|(c, _)| c.protocol.as_deref() == Some(proto.label()));
            let (data, ctrl) = mine.fold((0, 0), |(d, c), (_, r)| {
                (d + r.result.data_overhead, c + r.result.protocol_overhead)
            });
            (data, ctrl)
        };
        let (scmp_d, _) = sum(ProtocolKind::Scmp);
        let (cbt_d, cbt_c) = sum(ProtocolKind::Cbt);
        let (pim_d, pim_c) = sum(ProtocolKind::PimSm);
        assert!(
            pim_c < cbt_c,
            "single-pass join beats join+ack: {pim_c} vs {cbt_c}"
        );
        assert!(scmp_d <= cbt_d, "DCDM tree beats CBT SPT tree on data");
        // With an off-tree source next to the center, all three pay the
        // same detour, so PIM's penalty only shows for member sources;
        // here it ties CBT within noise.
        assert!(pim_d >= scmp_d, "{pim_d} vs {scmp_d}");
    }
}
