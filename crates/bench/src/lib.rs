//! # scmp-bench — experiment harness
//!
//! One module per paper experiment. The [`reproduce`] registry and bin
//! regenerate every committed artefact under `bench_results/` (JSON and
//! SVG), or with `--check` (also run by `regress`) byte-compare them.
//!
//! | Artefact | Module | Paper artefact |
//! |---|---|---|
//! | `fig7` | [`fig7`] | Fig. 7(a–f): tree delay & cost vs group size, three delay-constraint levels |
//! | `fig8_fig9` | [`netperf`] | Fig. 8(a–f): data & protocol overhead vs group size, three topologies; Fig. 9(a–c): maximum end-to-end delay |
//! | `placement` | [`placement_exp`] | §IV-A m-router placement heuristics study |
//! | `ablation_branch` | [`ablation`] | BRANCH packets vs full TREE refresh on every join |
//! | `ablation_paths` | [`ablation`] | DCDM candidate set: P_lc ∪ P_sl vs P_lc-only vs P_sl-only |
//! | `concentration` | [`concentration`] | §I/§V traffic-concentration study: ordinary core vs powerful m-router under burst load |
//! | `extra_pimsm` | [`extra_pimsm`] | Beyond the paper: PIM-SM vs CBT vs SCMP (shared-tree trio) |
//! | (`scale` bin) | [`scale`] | Beyond the paper: path-layer memory/latency curves at 1k–10k nodes, fig8/fig9-shaped run at 5k |

pub mod ablation;
pub mod chaos;
pub mod concentration;
pub mod extra_pimsm;
pub mod fig7;
pub mod netperf;
pub mod placement_exp;
pub mod plot;
pub mod regress;
pub mod report;
pub mod reproduce;
pub mod scale;
pub mod scenario_file;
pub mod stress;
pub mod sweep;
