//! Chaos sweep: protocol invariants and delivery degradation under
//! seeded uniform packet loss.
//!
//! The fault experiments cut links cleanly; this sweep stresses the
//! control plane the other way — every link stays up but drops each
//! packet with probability `loss`. The hardened protocol (JOIN/LEAVE
//! retransmission, TREE/BRANCH ACKs, heartbeat loss tolerance,
//! receiver-side dedup) must keep its safety invariants at every loss
//! rate while delivery degrades gracefully.
//!
//! **One verdict.** Each cell's traced run goes through [`judge`], the
//! STRESS oracle the search, the corpus and the committed-scenario
//! tests use too. Its *hard* list must be empty: no duplicate delivery,
//! no unaccounted loss, no split brain, and no imperfect clean run (a
//! clean run has no active channel, no fault and no queue drop, so the
//! lossless cells must deliver everything). Its *boundary* list may
//! hold only what the loss rate explains: nothing at 0, at most
//! `delivery_incomplete` up to 15%, and `member_unreached` too at 20%.
//! So no cell takes over (nobody crashes, and the standby tolerates 12
//! lost heartbeats on a one-hop path), and below 20% loss every member
//! hears a payload. The sweep also checks what has no verdict class:
//! drops and retries on the lossless channel stay 0 and the tier-off
//! series never NACKs.
//!
//! **Floors are reported, not asserted.** The reliable series' delivery
//! floors ([`reliable_floor`]) and the partition series' post-heal floor
//! ([`POST_HEAL_FLOOR`]) are acceptance numbers, not invariants: a cell
//! under one is listed by [`ChaosReport::floor_breaches`], the `chaos`
//! binary exits non-zero on any, and the `regress` gate shows each as a
//! failing row of its bands.
//!
//! Cells run on [`run_batch`], so the whole sweep is byte-identical
//! across `--jobs 1` and `--jobs N` (the `chaos` binary re-checks this
//! whenever it runs parallel).
//!
//! A second, partition series drives the correlated
//! [`Partition`](scmp_sim::FaultKind::Partition) fault family instead
//! of uniform loss: a seeded graph cut strands part of the domain
//! mid-session and heals later. Each cell is judged the same way, with
//! `delivery_incomplete` its only allowance, must **reconverge within**
//! [`RECONVERGE_WINDOW`] ticks of the heal and end with **exactly one**
//! live m-router (generation epochs resolve dual roots
//! deterministically); it should deliver [`POST_HEAL_FLOOR`] of the
//! post-heal payloads.

use crate::report::mean_by;
use crate::scenario_file::{
    run_batch, EventSpec, MRouterSpec, RobustnessSpec, Run, ScenarioFile, TopologySpec,
};
use crate::stress::{judge, Evaluation};
use scmp_sim::{ChannelPlan, ChannelSpec, FaultKind, FaultSpec};
use scmp_telemetry::{EventKind, Trace};
use serde::{Deserialize, Serialize};

/// Uniform per-link drop probabilities swept.
pub const LOSS_RATES: &[f64] = &[0.0, 0.05, 0.10, 0.15, 0.20];

/// Member DRs joining group 1 — ARPANET nodes that stay within three
/// hops of the m-router (node 10) for every weight seed, so a bounded
/// retry budget genuinely guarantees convergence (a 15% per-link loss
/// compounds to ~86% per packet on the 12-hop paths a random Waxman
/// throws up — no bounded ARQ survives that).
const MEMBERS: &[u32] = &[3, 6, 7, 8, 9, 14, 15, 17];

/// Off-tree source DR (exercises the encapsulation path).
const SOURCE: u32 = 13;

/// Payloads sent after the convergence window. Data has no ARQ, so the
/// convergence proxy (every member hears ≥ 1 payload) needs enough
/// independent tries to be sound at the swept loss rates.
const SENDS: u64 = 20;

/// When the partition series cuts the domain, and when it heals.
pub const PARTITION_AT: u64 = 60_000;
/// Absolute heal time of the partition series' cut.
pub const HEAL_AT: u64 = 160_000;
/// Reconvergence bound: every post-heal reconciliation must land
/// within this many ticks of the heal (five repair-scan periods).
pub const RECONVERGE_WINDOW: u64 = 10_000;
/// The reliable tier's worst-seed delivery floor up to 10% loss.
pub const LIGHT_LOSS_FLOOR: f64 = 0.95;
/// The reliable tier's worst-seed delivery floor above 10% loss.
pub const HEAVY_LOSS_FLOOR: f64 = 0.85;
/// Post-heal delivery floor of every partition cell.
pub const POST_HEAL_FLOOR: f64 = 0.99;
/// Payloads sent before the cut / during the partition / after the
/// heal-plus-window in the partition series.
const PRE_SENDS: u64 = 4;
const MID_SENDS: u64 = 4;
const POST_SENDS: u64 = 12;

/// One sweep cell: a `(loss, seed)` realisation on the fig-scale
/// ARPANET topology, with or without the reliable-multicast tier.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Uniform drop probability on every link.
    pub loss: f64,
    /// Channel + topology seed for this realisation.
    pub seed: u64,
    /// Whether the reliability tier (NACK recovery) was on.
    pub reliable: bool,
    /// Fraction of expected `(tag, member)` deliveries that arrived.
    pub delivery_ratio: f64,
    /// Members owed a payload that heard at least one (tree-convergence
    /// proxy; the verdict's `members_reached`).
    pub members_reached: usize,
    /// Packets the channel ate.
    pub channel_dropped: u64,
    /// Control packets retransmitted to get through.
    pub retransmissions: u64,
    /// Tree repairs performed by the m-router scan.
    pub repairs: u64,
    /// Standby promotions (must stay 0 — nobody crashes).
    pub takeovers: u64,
    /// Duplicate `(group, tag, member)` deliveries (must stay 0).
    pub duplicate_deliveries: usize,
    /// NACKs originated by receivers (0 with the tier off).
    pub nacks_sent: u64,
    /// NACKs absorbed by pending-request suppression.
    pub nacks_suppressed: u64,
    /// NACKs forwarded upstream after a cache miss.
    pub nacks_forwarded: u64,
    /// NACKs answered from a repair cache.
    pub repair_cache_hits: u64,
    /// NACKs that missed a repair cache.
    pub repair_cache_misses: u64,
    /// Data gaps closed by the tier.
    pub recoveries: u64,
    /// Gap-recovery latency percentiles (0 when nothing recovered).
    pub p50_recovery_latency: u64,
    pub p99_recovery_latency: u64,
}

/// Per-loss-rate aggregate over seeds — the degradation curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Uniform drop probability.
    pub loss: f64,
    /// Mean delivery ratio across seeds.
    pub mean_delivery_ratio: f64,
    /// Worst-seed delivery ratio.
    pub min_delivery_ratio: f64,
    /// Mean retransmissions across seeds.
    pub mean_retransmissions: f64,
    /// Total takeovers across seeds (invariant: 0).
    pub takeovers: u64,
    /// Mean NACKs per seed (reliable curve; 0 on the plain curve).
    pub mean_nacks: f64,
    /// NACKs suppressed / NACKs seen at routers — the duplicate-NACK
    /// suppression effectiveness (0 when no NACK ever reached a router).
    pub nack_suppression_ratio: f64,
    /// Repair-cache hits / lookups across seeds (NACK-implosion
    /// containment: every hit stops a NACK from travelling further).
    pub cache_hit_rate: f64,
    /// Mean per-seed p50 gap-recovery latency.
    pub mean_recovery_p50: f64,
    /// Worst per-seed p99 gap-recovery latency.
    pub max_recovery_p99: u64,
}

/// One partition-series cell: a seeded graph cut at [`PARTITION_AT`]
/// healed at [`HEAL_AT`] on a lossless channel, so every number below
/// is attributable to the partition alone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosPartitionCell {
    /// Cut seed (also the ARPANET weight seed).
    pub seed: u64,
    /// Group members the m-router saw stranded on the far side (0 when
    /// the seeded cut left every member on the m-router's side).
    pub members_stranded: u32,
    /// Repair-scan ticks spent in partition-degraded mode.
    pub degraded_ticks: u64,
    /// Post-heal tree reconciliations (stranded members readopted).
    pub reconciliations: u64,
    /// Last reconciliation's lag behind the heal (0 when nothing needed
    /// reconciling). Bounded by [`RECONVERGE_WINDOW`].
    pub reconverge_ticks: u64,
    /// Fraction of post-heal `(tag, member)` deliveries that arrived.
    pub post_heal_delivery: f64,
    /// Standby promotions (1 when the cut separated standby from
    /// primary for longer than the watchdog tolerance).
    pub takeovers: u64,
    /// Live m-router claimants at the end — exactly one, always.
    pub m_routers_at_end: Vec<u32>,
    /// Duplicate `(group, tag, member)` deliveries (must stay 0).
    pub duplicate_deliveries: usize,
}

/// Partition-series aggregate — the numbers the regression gate bands.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosPartitionSummary {
    /// Absolute heal time shared by every cell.
    pub heal_at: u64,
    /// The reconvergence bound every cell was held to.
    pub window: u64,
    /// Cells run.
    pub cells: u64,
    /// Cells whose cut actually stranded members.
    pub stranded_cells: u64,
    /// Cells whose cut forced a standby takeover (dual-root geometry).
    pub takeover_cells: u64,
    /// Worst reconciliation lag behind the heal across cells.
    pub max_reconverge_ticks: u64,
    /// Worst post-heal delivery across cells.
    pub min_post_heal_delivery: f64,
}

/// The full sweep result persisted to `bench_results/chaos.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Seeds per loss rate.
    pub seeds: u64,
    /// Degradation curve with the reliability tier off.
    pub points: Vec<ChaosPoint>,
    /// The same curve with NACK recovery on.
    pub reliable_points: Vec<ChaosPoint>,
    /// Every raw cell, the tier-off series first.
    pub cells: Vec<ChaosCell>,
    /// Partition-and-heal series aggregate (absent in pre-partition
    /// baselines).
    #[serde(default)]
    pub partition: Option<ChaosPartitionSummary>,
    /// Every partition-series cell.
    #[serde(default)]
    pub partition_cells: Vec<ChaosPartitionCell>,
}

/// The robustness suite of every chaos cell. Timescales follow the
/// topology: ARPANET one-way delays stay under ~100 ticks, so a
/// 500-tick retry base comfortably exceeds the worst JOIN→TREE round
/// trip (a lossless run must never retransmit) while the exponential
/// backoff budget — eight retries, factor capped at 64 — exhausts
/// within ~100k ticks, well before the first payload. The standby
/// (node 11) sits one hop from the m-router (node 10), so twelve
/// consecutive heartbeat losses at 20% per link is a ~4e-9 event: any
/// takeover the sweep observes is a bug.
fn robustness() -> RobustnessSpec {
    RobustnessSpec {
        repair_interval: Some(2_000),
        join_retry: Some(500),
        leave_retry: Some(500),
        tree_retry: Some(500),
        heartbeat_interval: Some(1_000),
        standby: Some(11),
        heartbeat_loss_tolerance: Some(12),
        ..RobustnessSpec::default()
    }
}

/// [`MEMBERS`] joining group 1 from time 0, 500 ticks apart, then one
/// send from [`SOURCE`] at each of `send_times` (tags 1, 2, …), on the
/// ARPANET map with weight seed `seed` and m-router node 10, run until
/// tick 250 000.
fn arpanet_session(seed: u64, send_times: impl Iterator<Item = u64>) -> ScenarioFile {
    let joins = MEMBERS.iter().zip(0..);
    let mut events: Vec<EventSpec> = joins
        .map(|(&m, i)| EventSpec::join(i * 500, m, 1))
        .collect();
    events.extend(
        send_times
            .zip(1..)
            .map(|(t, tag)| EventSpec::send(t, SOURCE, 1, tag)),
    );
    let mut spec = ScenarioFile::new(
        TopologySpec::Arpanet { seed },
        MRouterSpec::Node(10),
        events,
    );
    spec.run_until = Some(250_000);
    spec
}

/// The sweep scenario: the paper's ARPANET map (seeded weights), eight
/// members joining early, twenty payloads sent long after the control
/// plane converged, full robustness suite on (repair scan,
/// JOIN/LEAVE/TREE retry, hot standby with a loss-tolerant watchdog),
/// uniform loss on every link. With `reliable`, the reliable-multicast
/// tier is on at its defaults (300-tick NACK delay, 200-tick jitter
/// window, 64 KiB repair caches, sequence-extent announcements for tail
/// loss).
pub fn loss_scenario(loss: f64, seed: u64, reliable: bool) -> ScenarioFile {
    let mut spec = arpanet_session(seed, (0..SENDS).map(|k| 150_000 + k * 2_000));
    spec.robustness = Some(robustness());
    spec.reliability = reliable.then(Default::default);
    let drop = ChannelSpec {
        drop: loss,
        ..ChannelSpec::default()
    };
    spec.channel = Some(ChannelPlan {
        seed,
        default: Some(drop),
        links: Vec::new(),
    });
    spec
}

/// The partition-series scenario: same ARPANET membership as the loss
/// sweep on a lossless channel, with a seeded [`Partition`] family cut
/// at [`PARTITION_AT`] healing at [`HEAL_AT`]. Sends bracket the cut:
/// `PRE_SENDS` after convergence, `MID_SENDS` mid-partition (the
/// stranded side is *expected* to miss these), and `POST_SENDS`
/// starting [`RECONVERGE_WINDOW`] after the heal, which reconciliation
/// must deliver in full.
///
/// [`Partition`]: scmp_sim::FaultKind::Partition
pub fn partition_scenario(seed: u64) -> ScenarioFile {
    let sends = (0..PRE_SENDS)
        .map(|k| 40_000 + k * 2_000)
        .chain((0..MID_SENDS).map(|k| 100_000 + k * 2_000))
        .chain((0..POST_SENDS).map(|k| HEAL_AT + RECONVERGE_WINDOW + k * 2_000));
    let mut spec = arpanet_session(seed, sends);
    spec.robustness = Some(RobustnessSpec {
        takeover_rebuild_delay: Some(500),
        ..robustness()
    });
    spec.faults = vec![FaultSpec {
        time: PARTITION_AT,
        fault: FaultKind::Partition {
            seed,
            heal_at: HEAL_AT,
        },
    }];
    spec
}

/// The reliable tier's delivery floor at uniform loss `loss`.
pub fn reliable_floor(loss: f64) -> f64 {
    if loss <= 0.10 {
        LIGHT_LOSS_FLOOR
    } else {
        HEAVY_LOSS_FLOOR
    }
}

impl ChaosReport {
    /// Every cell under its delivery floor, one line each: reliable
    /// cells under [`reliable_floor`], partition cells under
    /// [`POST_HEAL_FLOOR`]. Empty when the sweep met its acceptance
    /// numbers.
    pub fn floor_breaches(&self) -> Vec<String> {
        let reliable = self.cells.iter().filter(|c| c.reliable).filter_map(|c| {
            let floor = reliable_floor(c.loss);
            (c.delivery_ratio < floor).then(|| {
                format!(
                    "(loss={}, seed={}, reliable=true): reliable delivery {} under the {floor} floor",
                    c.loss, c.seed, c.delivery_ratio
                )
            })
        });
        reliable
            .chain(partition_floor_breaches(&self.partition_cells))
            .collect()
    }
}

/// The partition cells under [`POST_HEAL_FLOOR`], one line each.
pub fn partition_floor_breaches(cells: &[ChaosPartitionCell]) -> Vec<String> {
    cells
        .iter()
        .filter(|c| c.post_heal_delivery < POST_HEAL_FLOOR)
        .map(|c| {
            format!(
                "(partition seed={}): post-heal delivery {} under the {POST_HEAL_FLOOR} floor",
                c.seed, c.post_heal_delivery
            )
        })
        .collect()
}

/// Judge one cell's run: no hard verdict, no boundary class outside
/// `allowed`.
fn judged<'a>(
    tag: &str,
    spec: &ScenarioFile,
    outcome: &'a Result<Run, String>,
    allowed: &[&str],
) -> (&'a Run, Evaluation) {
    let run = outcome.as_ref().unwrap_or_else(|e| panic!("{tag}: {e}"));
    let ev = judge(spec, run).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert!(ev.hard.is_empty(), "{tag}: hard verdict {:?}", ev.hard);
    let allowance = |b: &String| allowed.contains(&b.as_str());
    assert!(
        ev.boundary.iter().all(allowance),
        "{tag}: boundary {:?} outside {allowed:?}",
        ev.boundary
    );
    (run, ev)
}

/// Run the sweep: `LOSS_RATES` × `seeds` cells, each in both modes
/// (reliability off, then on), on `jobs` workers.
///
/// # Panics
/// When a cell's verdict or any check listed in the module docs fails.
/// Delivery floors do not panic: see [`ChaosReport::floor_breaches`].
pub fn run(seeds: u64, jobs: usize) -> ChaosReport {
    let grid: Vec<(f64, u64, bool)> = [false, true]
        .iter()
        .flat_map(|&reliable| {
            LOSS_RATES
                .iter()
                .flat_map(move |&loss| (0..seeds).map(move |s| (loss, s, reliable)))
        })
        .collect();
    let specs: Vec<ScenarioFile> = grid
        .iter()
        .map(|&(loss, seed, reliable)| loss_scenario(loss, seed, reliable))
        .collect();
    let outcomes = run_batch(&specs, jobs, true);

    let mut cells = Vec::with_capacity(grid.len());
    for ((&(loss, seed, reliable), spec), outcome) in grid.iter().zip(&specs).zip(&outcomes) {
        let tag = format!("(loss={loss}, seed={seed}, reliable={reliable})");
        let allowed: &[&str] = match loss {
            0.0 => &[],
            ..=0.15 => &["delivery_incomplete"],
            _ => &["delivery_incomplete", "member_unreached"],
        };
        let (_, ev) = judged(&tag, spec, outcome, allowed);
        let r = &ev.result;
        let cell = ChaosCell {
            loss,
            seed,
            reliable,
            delivery_ratio: r.delivery_ratio,
            members_reached: ev.members_reached,
            channel_dropped: r.channel_dropped,
            retransmissions: r.retransmissions,
            repairs: r.repairs,
            takeovers: r.takeovers,
            duplicate_deliveries: ev.duplicate_deliveries,
            nacks_sent: r.nacks_sent,
            nacks_suppressed: r.nacks_suppressed,
            nacks_forwarded: r.nacks_forwarded,
            repair_cache_hits: r.repair_cache_hits,
            repair_cache_misses: r.repair_cache_misses,
            recoveries: r.recoveries,
            p50_recovery_latency: r.p50_recovery_latency,
            p99_recovery_latency: r.p99_recovery_latency,
        };
        if loss == 0.0 {
            assert_eq!(cell.channel_dropped, 0, "{tag}: inert channel dropped");
            assert_eq!(cell.retransmissions, 0, "{tag}: lossless run retried");
            assert_eq!(cell.nacks_sent, 0, "{tag}: lossless run NACKed");
        } else {
            assert!(cell.channel_dropped > 0, "{tag}: channel never dropped");
        }
        if reliable {
            if loss > 0.0 {
                assert!(
                    cell.recoveries > 0,
                    "{tag}: lossy run never recovered a gap"
                );
            }
        } else {
            assert_eq!(cell.nacks_sent, 0, "{tag}: tier-off run NACKed");
            assert_eq!(cell.recoveries, 0, "{tag}: tier-off run recovered");
        }
        cells.push(cell);
    }

    let aggregate = |reliable: bool| -> Vec<ChaosPoint> {
        LOSS_RATES
            .iter()
            .map(|&loss| {
                let mine: Vec<&ChaosCell> = cells
                    .iter()
                    .filter(|c| c.loss == loss && c.reliable == reliable)
                    .collect();
                let nacks_seen: u64 = mine
                    .iter()
                    .map(|c| c.nacks_suppressed + c.nacks_forwarded + c.repair_cache_hits)
                    .sum();
                let suppressed: u64 = mine.iter().map(|c| c.nacks_suppressed).sum();
                let lookups: u64 = mine
                    .iter()
                    .map(|c| c.repair_cache_hits + c.repair_cache_misses)
                    .sum();
                let hits: u64 = mine.iter().map(|c| c.repair_cache_hits).sum();
                ChaosPoint {
                    loss,
                    mean_delivery_ratio: mean_by(&mine, |c| c.delivery_ratio),
                    min_delivery_ratio: mine
                        .iter()
                        .map(|c| c.delivery_ratio)
                        .fold(f64::INFINITY, f64::min),
                    mean_retransmissions: mean_by(&mine, |c| c.retransmissions as f64),
                    takeovers: mine.iter().map(|c| c.takeovers).sum(),
                    mean_nacks: mean_by(&mine, |c| c.nacks_sent as f64),
                    nack_suppression_ratio: if nacks_seen == 0 {
                        0.0
                    } else {
                        suppressed as f64 / nacks_seen as f64
                    },
                    cache_hit_rate: if lookups == 0 {
                        0.0
                    } else {
                        hits as f64 / lookups as f64
                    },
                    mean_recovery_p50: mean_by(&mine, |c| c.p50_recovery_latency as f64),
                    max_recovery_p99: mine
                        .iter()
                        .map(|c| c.p99_recovery_latency)
                        .max()
                        .unwrap_or(0),
                }
            })
            .collect()
    };

    // Partition-and-heal series: one cell per seed, lossless, the cut
    // geometry varying with the seed (including dual-root geometries
    // where the standby is cut off from the primary and takes over).
    let (partition, partition_cells) = partition_series(seeds, jobs);

    ChaosReport {
        seeds,
        points: aggregate(false),
        reliable_points: aggregate(true),
        cells,
        partition: Some(partition),
        partition_cells,
    }
}

/// The partition-and-heal series alone: one cell per seed, every
/// per-cell check (the verdict, single root, bounded reconvergence)
/// asserted; the post-heal floor is left to
/// [`partition_floor_breaches`]. `run` embeds this in the full report;
/// the `chaos --partition-only` mode and `just partition-chaos` call it
/// directly.
pub fn partition_series(
    seeds: u64,
    jobs: usize,
) -> (ChaosPartitionSummary, Vec<ChaosPartitionCell>) {
    let pspecs: Vec<ScenarioFile> = (0..seeds).map(partition_scenario).collect();
    let poutcomes = run_batch(&pspecs, jobs, true);
    let mut partition_cells = Vec::with_capacity(pspecs.len());
    for ((seed, spec), outcome) in (0..seeds).zip(&pspecs).zip(&poutcomes) {
        let tag = format!("(partition seed={seed})");
        let (run, ev) = judged(&tag, spec, outcome, &["delivery_incomplete"]);
        let r = &ev.result;
        let t = Trace::parse(&run.trace).expect("judge parsed this trace");
        let members_stranded = t
            .events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Partition { members, .. } => Some(members),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let reconverge_ticks = t
            .events()
            .iter()
            .filter(|ev| ev.time >= HEAL_AT && matches!(ev.kind, EventKind::Reconcile { .. }))
            .map(|ev| ev.time - HEAL_AT)
            .max()
            .unwrap_or(0);
        let post_tags = (PRE_SENDS + MID_SENDS + 1)..=(PRE_SENDS + MID_SENDS + POST_SENDS);
        let post_received: usize = r
            .deliveries
            .iter()
            .filter(|d| post_tags.contains(&d.tag))
            .map(|d| d.receivers)
            .sum();
        let cell = ChaosPartitionCell {
            seed,
            members_stranded,
            degraded_ticks: r.partition_degraded_ticks,
            reconciliations: r.reconciliations,
            reconverge_ticks,
            post_heal_delivery: post_received as f64 / (POST_SENDS as usize * MEMBERS.len()) as f64,
            takeovers: r.takeovers,
            m_routers_at_end: r.m_routers_at_end.clone(),
            duplicate_deliveries: ev.duplicate_deliveries,
        };
        assert_eq!(
            cell.m_routers_at_end.len(),
            1,
            "{tag}: split brain or dead root survived the heal: {:?}",
            cell.m_routers_at_end
        );
        assert!(
            cell.degraded_ticks > 0,
            "{tag}: the scan never noticed the cut"
        );
        assert!(
            cell.reconverge_ticks <= RECONVERGE_WINDOW,
            "{tag}: reconciliation {} ticks after the heal exceeds the {RECONVERGE_WINDOW}-tick bound",
            cell.reconverge_ticks
        );
        if cell.members_stranded > 0 {
            assert!(
                cell.reconciliations > 0,
                "{tag}: stranded members were never reconciled"
            );
        }
        partition_cells.push(cell);
    }
    let summary = ChaosPartitionSummary {
        heal_at: HEAL_AT,
        window: RECONVERGE_WINDOW,
        cells: partition_cells.len() as u64,
        stranded_cells: partition_cells
            .iter()
            .filter(|c| c.members_stranded > 0)
            .count() as u64,
        takeover_cells: partition_cells.iter().filter(|c| c.takeovers > 0).count() as u64,
        max_reconverge_ticks: partition_cells
            .iter()
            .map(|c| c.reconverge_ticks)
            .max()
            .unwrap_or(0),
        min_post_heal_delivery: partition_cells
            .iter()
            .map(|c| c.post_heal_delivery)
            .fold(f64::INFINITY, f64::min),
    };
    (summary, partition_cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_holds_invariants_and_is_jobs_invariant() {
        // One seed keeps the test fast; `run` itself asserts the
        // protocol invariants for every cell.
        let serial = run(1, 1);
        let parallel = run(1, 2);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "chaos sweep must be byte-identical across worker counts"
        );
        assert_eq!(serial.points.len(), LOSS_RATES.len());
        assert_eq!(serial.reliable_points.len(), LOSS_RATES.len());
        assert_eq!(serial.cells.len(), 2 * LOSS_RATES.len());
        assert_eq!(serial.points[0].mean_delivery_ratio, 1.0);
        let lossy = &serial.points[LOSS_RATES.len() - 1];
        assert!(
            lossy.mean_retransmissions > 0.0,
            "20% loss must force control retries"
        );
        // The reliable curve at the same loss rate must out-deliver the
        // best-effort curve and show the recovery machinery at work.
        let rel_lossy = &serial.reliable_points[LOSS_RATES.len() - 1];
        assert!(
            rel_lossy.min_delivery_ratio >= lossy.min_delivery_ratio,
            "NACK recovery made delivery worse at 20% loss"
        );
        assert!(rel_lossy.mean_nacks > 0.0, "reliable cells never NACKed");
        assert!(
            rel_lossy.cache_hit_rate > 0.0,
            "repair caches never answered a NACK at 20% loss"
        );
        assert_eq!(
            serial.points[LOSS_RATES.len() - 1].mean_nacks,
            0.0,
            "tier-off curve must show zero NACKs"
        );
        // Partition series: `run` itself asserts the per-cell bounds
        // (the verdict, reconvergence window, single root); here we
        // check the series exists and aggregated, and that no cell of
        // either series missed its delivery floor.
        assert_eq!(serial.floor_breaches(), Vec::<String>::new());
        assert_eq!(serial.partition_cells.len(), 1);
        let p = serial.partition.as_ref().expect("partition summary");
        assert_eq!(p.cells, 1);
        assert_eq!(p.window, RECONVERGE_WINDOW);
        assert!(p.min_post_heal_delivery >= POST_HEAL_FLOOR);
        assert!(p.max_reconverge_ticks <= RECONVERGE_WINDOW);
    }

    /// A cell under its floor is a listed breach, not a panic: the
    /// committed report with one reliable cell and one partition cell
    /// pushed under their floors names exactly those two.
    #[test]
    fn floor_breaches_name_the_cells_under_their_floors() {
        let text = include_str!("../../../bench_results/chaos.json");
        let mut rep: ChaosReport = serde_json::from_str(text).unwrap();
        assert_eq!(rep.floor_breaches(), Vec::<String>::new());
        let cell = rep
            .cells
            .iter_mut()
            .find(|c| c.reliable && c.loss == 0.10)
            .unwrap();
        cell.delivery_ratio = 0.94;
        let seed = cell.seed;
        rep.partition_cells[0].post_heal_delivery = 0.98;
        assert_eq!(
            rep.floor_breaches(),
            vec![
                format!("(loss=0.1, seed={seed}, reliable=true): reliable delivery 0.94 under the 0.95 floor"),
                format!(
                    "(partition seed={}): post-heal delivery 0.98 under the 0.99 floor",
                    rep.partition_cells[0].seed
                ),
            ]
        );
    }
}
