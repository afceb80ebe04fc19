//! Seeded, deterministic per-link channel impairments.
//!
//! PR 1's faults are fail-stop: a link is either perfect or cut. Real
//! multicast evaluations (Helmy's STRESS work, §IV of the paper's
//! methodology lineage) stress protocols with *lossy* channels — drops,
//! duplicates, reordering and corruption on links that stay up. This
//! module models those impairments at the transport layer.
//!
//! Determinism contract:
//! * Every directed link draws from its **own** RNG stream, seeded as
//!   `derive_seed("channel/<a>-><b>", plan_seed)`. Traffic on one link
//!   can never perturb the loss pattern of another, so adding a flow in
//!   one corner of the topology leaves the channel behaviour elsewhere
//!   bit-identical.
//! * A link whose effective [`ChannelSpec`] is a no-op never creates a
//!   stream and never draws — a zero-impairment channel is therefore
//!   byte-identical to having no channel model at all.
//! * For a non-no-op spec the number of draws per packet is fixed (one
//!   per *active* impairment field, in declaration order), so a run
//!   replays bit-for-bit.

use rand::rngs::SmallRng;
use rand::Rng;
use scmp_net::{rng::rng_for, NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Impairment probabilities for one link (or the whole-plan default).
/// All fields default to zero, i.e. a perfect channel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChannelSpec {
    /// Probability a packet on the link is lost.
    #[serde(default)]
    pub drop: f64,
    /// Probability a packet is delivered twice (same arrival tick; the
    /// copy is enqueued immediately after the original).
    #[serde(default)]
    pub duplicate: f64,
    /// Probability a packet arrives corrupted. Receivers checksum and
    /// discard, so corruption is a counted drop at the *receiver*.
    #[serde(default)]
    pub corrupt: f64,
    /// Maximum extra delivery delay in ticks, drawn uniformly from
    /// `0..=reorder_window`. Later packets can overtake jittered ones.
    #[serde(default)]
    pub reorder_window: u64,
}

impl ChannelSpec {
    /// True when the spec impairs nothing (and must cost zero RNG draws).
    pub fn is_noop(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.corrupt <= 0.0 && self.reorder_window == 0
    }

    /// Probability fields out of `[0, 1]`, by name (for validation).
    fn bad_probability(&self) -> Option<(&'static str, f64)> {
        [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("corrupt", self.corrupt),
        ]
        .into_iter()
        .find(|&(_, p)| !(0.0..=1.0).contains(&p) || p.is_nan())
    }
}

/// A per-link override in a [`ChannelPlan`]: the link's endpoints plus
/// the spec fields inline (endpoint order irrelevant — impairments are
/// per undirected link, though each direction draws its own stream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChannelLinkSpec {
    /// One endpoint of the link.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// See [`ChannelSpec::drop`].
    #[serde(default)]
    pub drop: f64,
    /// See [`ChannelSpec::duplicate`].
    #[serde(default)]
    pub duplicate: f64,
    /// See [`ChannelSpec::corrupt`].
    #[serde(default)]
    pub corrupt: f64,
    /// See [`ChannelSpec::reorder_window`].
    #[serde(default)]
    pub reorder_window: u64,
}

impl ChannelLinkSpec {
    /// The impairment spec carried by this override.
    pub fn spec(&self) -> ChannelSpec {
        ChannelSpec {
            drop: self.drop,
            duplicate: self.duplicate,
            corrupt: self.corrupt,
            reorder_window: self.reorder_window,
        }
    }
}

/// A declarative channel-impairment plan: a seed, an optional default
/// spec applied to every link, and per-link overrides.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChannelPlan {
    /// Seed mixed into every per-link stream (sweep over this to get
    /// independent loss realisations of the same scenario).
    #[serde(default)]
    pub seed: u64,
    /// Impairments applied to every link not named in `links`.
    #[serde(default)]
    pub default: Option<ChannelSpec>,
    /// Per-link overrides (replace the default entirely for that link).
    #[serde(default)]
    pub links: Vec<ChannelLinkSpec>,
}

impl ChannelPlan {
    /// True when the plan impairs nothing at all.
    pub fn is_noop(&self) -> bool {
        self.default.is_none_or(|d| d.is_noop()) && self.links.iter().all(|l| l.spec().is_noop())
    }

    /// Check the plan against a topology: probabilities must be in
    /// `[0, 1]`, every override must name an existing link, and no link
    /// may be overridden twice. Errors are named and indexed
    /// (`channel.links[2]: link 7-9 not in topology`), never silent.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if let Some(d) = &self.default {
            if let Some((field, p)) = d.bad_probability() {
                return Err(format!(
                    "channel.default: {field} probability {p} not in [0, 1]"
                ));
            }
        }
        let mut seen = HashMap::new();
        for (i, l) in self.links.iter().enumerate() {
            if let Some((field, p)) = l.spec().bad_probability() {
                return Err(format!(
                    "channel.links[{i}]: {field} probability {p} not in [0, 1]"
                ));
            }
            let n = topo.node_count() as u32;
            if l.a >= n || l.b >= n {
                return Err(format!(
                    "channel.links[{i}]: link {}-{} names a node out of range",
                    l.a, l.b
                ));
            }
            if !topo.has_link(NodeId(l.a), NodeId(l.b)) {
                return Err(format!(
                    "channel.links[{i}]: link {}-{} not in topology",
                    l.a, l.b
                ));
            }
            let key = undirected(NodeId(l.a), NodeId(l.b));
            if let Some(prev) = seen.insert(key, i) {
                return Err(format!(
                    "channel.links[{i}]: link {}-{} already configured by channel.links[{prev}]",
                    l.a, l.b
                ));
            }
        }
        Ok(())
    }
}

/// What the channel decided for one packet on one directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelOutcome {
    /// Lose the packet on the wire.
    pub drop: bool,
    /// Deliver a second copy at the same arrival tick.
    pub duplicate: bool,
    /// Deliver the packet flagged corrupt (receiver checksums and drops).
    pub corrupt: bool,
    /// Extra delivery delay in ticks.
    pub jitter: u64,
}

fn undirected(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The runtime impairment model installed on the transport: the plan's
/// specs plus one lazily-created RNG stream per *directed* link.
pub struct ChannelModel {
    seed: u64,
    default: ChannelSpec,
    overrides: HashMap<(NodeId, NodeId), ChannelSpec>,
    streams: HashMap<(NodeId, NodeId), SmallRng>,
}

impl ChannelModel {
    /// Build the runtime model from a validated plan. Returns `None`
    /// when the plan is a complete no-op, so callers install nothing and
    /// the transport hot path stays on the channel-free branch.
    pub fn from_plan(plan: &ChannelPlan) -> Option<Self> {
        if plan.is_noop() {
            return None;
        }
        let overrides = plan
            .links
            .iter()
            .map(|l| (undirected(NodeId(l.a), NodeId(l.b)), l.spec()))
            .collect();
        Some(ChannelModel {
            seed: plan.seed,
            default: plan.default.unwrap_or_default(),
            overrides,
            streams: HashMap::new(),
        })
    }

    /// A uniform loss-only channel on every link (the chaos sweep's
    /// workhorse).
    pub fn uniform_loss(drop: f64, seed: u64) -> Self {
        ChannelModel {
            seed,
            default: ChannelSpec {
                drop,
                ..ChannelSpec::default()
            },
            overrides: HashMap::new(),
            streams: HashMap::new(),
        }
    }

    fn spec_for(&self, a: NodeId, b: NodeId) -> ChannelSpec {
        self.overrides
            .get(&undirected(a, b))
            .copied()
            .unwrap_or(self.default)
    }

    /// Roll the channel for one packet on the directed link `a -> b`.
    /// A no-op spec returns the default outcome without touching (or
    /// creating) the link's stream — the zero-impairment identity.
    pub fn roll(&mut self, a: NodeId, b: NodeId) -> ChannelOutcome {
        let spec = self.spec_for(a, b);
        if spec.is_noop() {
            return ChannelOutcome::default();
        }
        let seed = self.seed;
        let rng = self
            .streams
            .entry((a, b))
            .or_insert_with(|| rng_for(&format!("channel/{}->{}", a.0, b.0), seed));
        // One draw per active field, in fixed declaration order, so a
        // link's stream position depends only on how many packets it has
        // carried — never on earlier outcomes.
        let mut out = ChannelOutcome::default();
        if spec.drop > 0.0 {
            out.drop = rng.gen::<f64>() < spec.drop;
        }
        if spec.duplicate > 0.0 {
            out.duplicate = rng.gen::<f64>() < spec.duplicate;
        }
        if spec.corrupt > 0.0 {
            out.corrupt = rng.gen::<f64>() < spec.corrupt;
        }
        if spec.reorder_window > 0 {
            out.jitter = rng.gen_range(0..=spec.reorder_window);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scmp_net::graph::TopologyBuilder;
    use scmp_net::LinkWeight;

    fn line3() -> Topology {
        let mut b = TopologyBuilder::new(3);
        b.add_link(NodeId(0), NodeId(1), LinkWeight { delay: 1, cost: 1 });
        b.add_link(NodeId(1), NodeId(2), LinkWeight { delay: 1, cost: 1 });
        b.build()
    }

    #[test]
    fn noop_plans_build_no_model() {
        assert!(ChannelPlan::default().is_noop());
        assert!(ChannelModel::from_plan(&ChannelPlan::default()).is_none());
        let zeroed = ChannelPlan {
            default: Some(ChannelSpec::default()),
            links: vec![ChannelLinkSpec {
                a: 0,
                b: 1,
                ..ChannelLinkSpec::default()
            }],
            ..ChannelPlan::default()
        };
        assert!(zeroed.is_noop());
        assert!(ChannelModel::from_plan(&zeroed).is_none());
    }

    #[test]
    fn noop_links_never_draw() {
        let plan = ChannelPlan {
            seed: 7,
            default: None,
            links: vec![ChannelLinkSpec {
                a: 0,
                b: 1,
                drop: 0.5,
                ..ChannelLinkSpec::default()
            }],
        };
        let mut m = ChannelModel::from_plan(&plan).expect("not a noop");
        // The un-overridden link 1-2 falls back to the (noop) default:
        // no stream is ever created for it.
        for _ in 0..16 {
            assert_eq!(m.roll(NodeId(1), NodeId(2)), ChannelOutcome::default());
        }
        assert!(m.streams.is_empty());
    }

    #[test]
    fn rolls_replay_bit_for_bit_and_directions_are_independent() {
        let mk = || ChannelModel::uniform_loss(0.3, 42);
        let (mut x, mut y) = (mk(), mk());
        let fwd: Vec<ChannelOutcome> = (0..64).map(|_| x.roll(NodeId(0), NodeId(1))).collect();
        assert_eq!(
            fwd,
            (0..64)
                .map(|_| y.roll(NodeId(0), NodeId(1)))
                .collect::<Vec<_>>(),
            "same seed, same link, same stream"
        );
        // The reverse direction draws from its own stream: interleaving
        // reverse traffic must not perturb the forward outcomes.
        let mut z = mk();
        let interleaved: Vec<ChannelOutcome> = (0..64)
            .map(|_| {
                z.roll(NodeId(1), NodeId(0));
                z.roll(NodeId(0), NodeId(1))
            })
            .collect();
        assert_eq!(fwd, interleaved);
    }

    #[test]
    fn loss_rate_is_roughly_the_configured_probability() {
        let mut m = ChannelModel::uniform_loss(0.2, 1);
        let dropped = (0..10_000)
            .filter(|_| m.roll(NodeId(0), NodeId(1)).drop)
            .count();
        assert!((1_500..2_500).contains(&dropped), "got {dropped}/10000");
    }

    #[test]
    fn jitter_stays_in_window() {
        let plan = ChannelPlan {
            seed: 3,
            default: Some(ChannelSpec {
                reorder_window: 5,
                ..ChannelSpec::default()
            }),
            links: vec![],
        };
        let mut m = ChannelModel::from_plan(&plan).expect("not a noop");
        let mut seen_nonzero = false;
        for _ in 0..256 {
            let out = m.roll(NodeId(0), NodeId(1));
            assert!(out.jitter <= 5);
            assert!(!out.drop && !out.duplicate && !out.corrupt);
            seen_nonzero |= out.jitter > 0;
        }
        assert!(seen_nonzero, "a 0..=5 window should jitter sometimes");
    }

    #[test]
    fn validation_names_and_indexes_errors() {
        let topo = line3();
        let bad_prob = ChannelPlan {
            default: Some(ChannelSpec {
                drop: 1.5,
                ..ChannelSpec::default()
            }),
            ..ChannelPlan::default()
        };
        let err = bad_prob.validate(&topo).unwrap_err();
        assert!(err.contains("channel.default"), "{err}");
        assert!(err.contains("not in [0, 1]"), "{err}");

        let missing_link = ChannelPlan {
            links: vec![
                ChannelLinkSpec {
                    a: 0,
                    b: 1,
                    drop: 0.1,
                    ..ChannelLinkSpec::default()
                },
                ChannelLinkSpec {
                    a: 0,
                    b: 2,
                    drop: 0.1,
                    ..ChannelLinkSpec::default()
                },
            ],
            ..ChannelPlan::default()
        };
        let err = missing_link.validate(&topo).unwrap_err();
        assert!(err.contains("channel.links[1]"), "{err}");
        assert!(err.contains("link 0-2 not in topology"), "{err}");

        let out_of_range = ChannelPlan {
            links: vec![ChannelLinkSpec {
                a: 7,
                b: 9,
                ..ChannelLinkSpec::default()
            }],
            ..ChannelPlan::default()
        };
        let err = out_of_range.validate(&topo).unwrap_err();
        assert!(err.contains("channel.links[0]"), "{err}");
        assert!(err.contains("link 7-9"), "{err}");

        let duped = ChannelPlan {
            links: vec![
                ChannelLinkSpec {
                    a: 0,
                    b: 1,
                    ..ChannelLinkSpec::default()
                },
                ChannelLinkSpec {
                    a: 1,
                    b: 0,
                    ..ChannelLinkSpec::default()
                },
            ],
            ..ChannelPlan::default()
        };
        let err = duped.validate(&topo).unwrap_err();
        assert!(
            err.contains("already configured by channel.links[0]"),
            "{err}"
        );
    }
}
