//! The reliable-multicast data tier (robustness extension).
//!
//! Plain SCMP (§III-F) delivers data packets best-effort: on a lossy
//! channel the delivery ratio degrades linearly with the loss rate.
//! This module adds an optional SRM-style recovery tier on top of the
//! bidirectional shared tree, enabled per domain by
//! [`ScmpConfig::reliability`](super::ScmpConfig):
//!
//! * **Sequencing** — the originating DR stamps every payload of a
//!   (group, origin) stream with a consecutive sequence number (`seq`
//!   in [`ScmpMsg::Data`]/[`ScmpMsg::EncapData`]; 0 = tier off).
//! * **Gap detection** — every router tracks per-stream receive state;
//!   a skipped sequence opens a *gap*. Receivers responsible for
//!   delivery (DRs with a live local interface, and the m-router for
//!   the unicast encapsulation leg) schedule a NACK.
//! * **NACK suppression timers** — NACKs are delayed by a base wait
//!   plus a *seeded, deterministic* jitter hash of (seed, node, group,
//!   origin, attempt), so replays are stable across worker counts while
//!   NACKs from different receivers still spread out (SRM's randomized
//!   request timer). Retries back off exponentially and give up after
//!   [`ReliabilityConfig::nack_retries`].
//! * **Repair caches** — every on-tree relaying DR keeps a bounded,
//!   byte-capped LRU cache of recently forwarded payloads (the NDN
//!   content-store analogue) and answers NACKs from it locally,
//!   forwarding upstream only on a miss.
//! * **Duplicate-NACK suppression** — a pending-interest table per
//!   router aggregates NACKs for the same (group, origin, seq) within a
//!   hold window: later requesters are parked as waiters and served
//!   when the repair flows down, so a loss near the source does not
//!   implode into one NACK per member.
//! * **Tail loss** — a gap after the *last* packet produces no later
//!   packet to reveal it, so stream sources announce their high-water
//!   sequence for a few rounds after each send burst
//!   ([`ScmpMsg::SeqAnnounce`]); the m-router re-announces decapsulated
//!   streams down the tree.
//!
//! Everything here is inert when `config.reliability` is `None`: the
//! sequence stamp stays 0, no state is touched, and the data plane is
//! byte-identical to plain SCMP (pinned by integration tests).

use super::config::ReliabilityConfig;
use super::{ScmpRouter, BACKOFF_CAP, TIMER_ANNOUNCE_BASE, TIMER_NACK_BASE};
use crate::message::ScmpMsg;
use scmp_net::NodeId;
use scmp_sim::{Ctx, GroupId, Packet, PacketClass};
use scmp_telemetry::{pack_ctl_tag, EventKind};
use std::collections::{BTreeMap, BTreeSet};

/// Most missing sequences NACKed per timer round; the rest wait for the
/// retry (bounds the burst a pathological gap can emit).
const NACK_BATCH: usize = 16;
/// Most tracked gaps per stream; older gaps are abandoned beyond this
/// (the payloads are unrecoverable anyway once every cache evicted
/// them, and the bound keeps per-stream memory constant).
const MAX_GAPS_PER_STREAM: usize = 1024;
/// Most pending-interest entries per router.
const MAX_PIT: usize = 1024;

/// Encode one (group, origin-stream) NACK-timer slot as a timer token.
fn nack_token(group: GroupId, origin: NodeId) -> u64 {
    TIMER_NACK_BASE + ((group.0 as u64) << 24) + origin.0 as u64
}

/// Encode one (group, origin-stream) announce-timer slot.
fn announce_token(group: GroupId, origin: NodeId) -> u64 {
    TIMER_ANNOUNCE_BASE + ((group.0 as u64) << 24) + origin.0 as u64
}

/// Deterministic suppression-timer jitter in `[0, width)`: a splitmix64
/// finalizer over the seed and the scheduling coordinates. A pure hash
/// — not an RNG stream — so the schedule is independent of event
/// interleaving and identical under any `--jobs` count.
pub fn nack_jitter(seed: u64, me: NodeId, group: GroupId, origin: NodeId, attempt: u32) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let x = seed
        .wrapping_add(mix((me.0 as u64) << 32 | group.0 as u64))
        .wrapping_add(mix((origin.0 as u64) << 8 | attempt as u64));
    mix(x)
}

/// Modelled size in bytes of the payload `(group, origin, seq)`: a
/// pure hash of the stream coordinates into
/// `[payload_bytes_min, payload_bytes_max]`, so every router charges
/// the same payload identically without any size travelling on the
/// wire. Collapses to the configured constant when the range is empty
/// (the default pins both ends to `CACHE_ENTRY_BYTES`).
pub fn payload_bytes(cfg: &ReliabilityConfig, group: GroupId, origin: NodeId, seq: u64) -> usize {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let lo = u64::from(cfg.payload_bytes_min.min(cfg.payload_bytes_max));
    let hi = u64::from(cfg.payload_bytes_min.max(cfg.payload_bytes_max));
    if lo == hi {
        return lo as usize;
    }
    let x = cfg
        .seed
        .wrapping_add(mix((origin.0 as u64) << 32 | group.0 as u64))
        .wrapping_add(mix(seq));
    (lo + mix(x) % (hi - lo + 1)) as usize
}

fn jitter_in(
    cfg: &ReliabilityConfig,
    me: NodeId,
    group: GroupId,
    origin: NodeId,
    attempt: u32,
) -> u64 {
    if cfg.nack_jitter == 0 {
        return 0;
    }
    nack_jitter(cfg.seed, me, group, origin, attempt) % cfg.nack_jitter
}

/// Per-(group, origin) stream receive state.
#[derive(Debug, Default)]
struct StreamState {
    /// Highest sequence known to exist (received, repaired or
    /// announced).
    hi: u64,
    /// Open gaps: missing sequence → time the gap was first detected
    /// (feeds the recovery-latency histogram when the repair lands).
    missing: BTreeMap<u64, u64>,
    /// Tree neighbor the stream arrives from — the NACK direction.
    from: Option<NodeId>,
    /// m-router-side state for the unicast encapsulation leg: NACKs go
    /// straight back to the stream origin instead of up a tree edge.
    encap: bool,
    /// NACK suppression-timer state for this stream.
    nack_armed: bool,
    nack_attempt: u32,
    nack_deadline: u64,
    /// Highest (seq, round) announce already relayed down the tree, so
    /// each announce round is forwarded once per router.
    relayed_announce: Option<(u64, u32)>,
}

enum Arrival {
    Fresh { closed_gap_at: Option<u64> },
    Duplicate,
}

impl StreamState {
    /// Record that sequence `seq` arrived at time `now`; opens gaps for
    /// skipped sequences and closes the matching gap on a late arrival.
    fn observe(&mut self, seq: u64, now: u64) -> Arrival {
        if seq > self.hi {
            for missed in self.hi + 1..seq {
                if self.missing.len() >= MAX_GAPS_PER_STREAM {
                    self.missing.pop_first();
                }
                self.missing.insert(missed, now);
            }
            self.hi = seq;
            Arrival::Fresh {
                closed_gap_at: None,
            }
        } else if let Some(at) = self.missing.remove(&seq) {
            Arrival::Fresh {
                closed_gap_at: Some(at),
            }
        } else {
            Arrival::Duplicate
        }
    }

    /// Extend the known extent from an announce; opens tail gaps.
    fn observe_extent(&mut self, seq: u64, now: u64) {
        if seq > self.hi {
            for missed in self.hi + 1..=seq {
                if self.missing.len() >= MAX_GAPS_PER_STREAM {
                    self.missing.pop_first();
                }
                self.missing.insert(missed, now);
            }
            self.hi = seq;
        }
    }
}

/// One cached payload, LRU-stamped and charged at its modelled size.
#[derive(Debug)]
struct CacheEntry {
    tag: u64,
    created_at: u64,
    stamp: u64,
    bytes: usize,
}

/// Bounded retransmission cache: (group, origin, seq) → payload
/// metadata, byte-capped with least-recently-used eviction. Each entry
/// is charged its modelled payload size (see [`payload_bytes`]), so a
/// few jumbo payloads displace many small ones.
#[derive(Debug, Default)]
struct RepairCache {
    entries: BTreeMap<(u32, u32, u64), CacheEntry>,
    /// LRU index: access stamp → key. Stamps are unique (monotonic
    /// counter), so the map is a total order of recency.
    lru: BTreeMap<u64, (u32, u32, u64)>,
    next_stamp: u64,
    /// Summed `bytes` of every live entry.
    total_bytes: usize,
}

impl RepairCache {
    /// Insert (or refresh) a payload charged at `bytes`; returns how
    /// many entries were evicted to bring the summed payload bytes back
    /// under `cap_bytes` (the newest entry itself is never evicted, so
    /// one oversized payload still caches).
    fn insert(
        &mut self,
        key: (u32, u32, u64),
        tag: u64,
        created_at: u64,
        bytes: usize,
        cap_bytes: usize,
    ) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            self.lru.remove(&e.stamp);
            e.stamp = stamp;
            self.lru.insert(stamp, key);
            return 0;
        }
        self.entries.insert(
            key,
            CacheEntry {
                tag,
                created_at,
                stamp,
                bytes,
            },
        );
        self.lru.insert(stamp, key);
        self.total_bytes += bytes;
        let mut evicted = 0;
        while self.total_bytes > cap_bytes && self.entries.len() > 1 {
            let (_, victim) = self.lru.pop_first().expect("lru tracks every entry");
            let gone = self
                .entries
                .remove(&victim)
                .expect("entries track every key");
            self.total_bytes -= gone.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Look up a payload, refreshing its recency on a hit.
    fn get(&mut self, key: (u32, u32, u64)) -> Option<(u64, u64)> {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let e = self.entries.get_mut(&key)?;
        self.lru.remove(&e.stamp);
        e.stamp = stamp;
        self.lru.insert(stamp, key);
        Some((e.tag, e.created_at))
    }
}

/// One aggregated pending repair: requesters parked while the first
/// NACK travels upstream.
#[derive(Debug)]
struct PitEntry {
    waiters: BTreeSet<NodeId>,
    forwarded_at: u64,
}

/// Announce-series state for a stream this router sources (its own
/// sends, or — at the m-router — a decapsulated encap stream).
#[derive(Debug)]
struct AnnounceState {
    rounds_left: u32,
    round: u32,
    deadline: u64,
}

/// All reliability-tier state of one router. Empty (a few empty maps)
/// when the tier is disabled.
#[derive(Debug, Default)]
pub(super) struct ReliabilityState {
    streams: BTreeMap<(GroupId, NodeId), StreamState>,
    cache: RepairCache,
    pit: BTreeMap<(u32, u32, u64), PitEntry>,
    /// Next sequence to stamp per group this node sends into.
    send_seq: BTreeMap<GroupId, u64>,
    announces: BTreeMap<(GroupId, NodeId), AnnounceState>,
}

impl ScmpRouter {
    fn rel_cfg(&self) -> Option<ReliabilityConfig> {
        self.domain.config.reliability.clone()
    }

    /// Stamp the next sequence number for a payload this node sends
    /// into `group`, caching the payload for repairs. Returns 0 (the
    /// unsequenced sentinel) when the tier is off.
    pub(super) fn rel_stamp_send(
        &mut self,
        group: GroupId,
        tag: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) -> u64 {
        let Some(cfg) = self.rel_cfg() else {
            return 0;
        };
        let seq = self.rel.send_seq.entry(group).or_insert(0);
        *seq += 1;
        let seq = *seq;
        let bytes = payload_bytes(&cfg, group, self.me, seq);
        let evicted = self.rel.cache.insert(
            (group.0, self.me.0, seq),
            tag,
            ctx.now(),
            bytes,
            cfg.cache_bytes,
        );
        ctx.record_cache_evictions(evicted);
        self.rel_kick_announce(group, self.me, &cfg, ctx);
        seq
    }

    /// Dedup + gap bookkeeping for an arriving sequenced payload.
    /// Returns `false` when the packet is a duplicate and must be
    /// suppressed. On a fresh arrival the payload is cached and, if the
    /// packet closed a tracked gap at a delivery-responsible router,
    /// the recovery is recorded.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn rel_observe_data(
        &mut self,
        group: GroupId,
        origin: NodeId,
        seq: u64,
        tag: u64,
        created_at: u64,
        from: Option<NodeId>,
        encap: bool,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) -> bool {
        let Some(cfg) = self.rel_cfg() else {
            return true;
        };
        let now = ctx.now();
        let stream = self.rel.streams.entry((group, origin)).or_default();
        stream.encap = stream.encap || encap;
        if let Some(f) = from {
            stream.from = Some(f);
        }
        let fresh = match stream.observe(seq, now) {
            Arrival::Duplicate => return false,
            Arrival::Fresh { closed_gap_at } => closed_gap_at,
        };
        let bytes = payload_bytes(&cfg, group, origin, seq);
        let evicted = self.rel.cache.insert(
            (group.0, origin.0, seq),
            tag,
            created_at,
            bytes,
            cfg.cache_bytes,
        );
        ctx.record_cache_evictions(evicted);
        if let Some(detected) = fresh {
            // A gap closed by an ordinary (reordered/duplicated) copy is
            // not a repair; only count it when this router would have
            // NACKed for it.
            if self.rel_responsible(group, origin) {
                ctx.observe(EventKind::Recovery {
                    group: group.0,
                    origin: origin.0,
                    seq,
                    tag,
                    latency: now.saturating_sub(detected),
                });
            }
        }
        self.rel_arm_nack_if_needed(group, origin, &cfg, ctx);
        true
    }

    /// Whether this router must chase gaps of stream (group, origin):
    /// it delivers to local members, or it is the m-router terminating
    /// the stream's unicast encapsulation leg.
    fn rel_responsible(&self, group: GroupId, origin: NodeId) -> bool {
        if self.entries.get(&group).is_some_and(|e| e.local_interface) {
            return true;
        }
        self.is_m_router()
            && self
                .rel
                .streams
                .get(&(group, origin))
                .is_some_and(|s| s.encap)
    }

    /// Arm the stream's NACK suppression timer when it has open gaps,
    /// this router is responsible for them, and no timer is pending.
    fn rel_arm_nack_if_needed(
        &mut self,
        group: GroupId,
        origin: NodeId,
        cfg: &ReliabilityConfig,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        if !self.rel_responsible(group, origin) {
            return;
        }
        let me = self.me;
        let Some(stream) = self.rel.streams.get_mut(&(group, origin)) else {
            return;
        };
        if stream.missing.is_empty() || stream.nack_armed {
            return;
        }
        stream.nack_armed = true;
        stream.nack_attempt = 0;
        let delay = cfg.nack_delay + jitter_in(cfg, me, group, origin, 0);
        stream.nack_deadline = ctx.now() + delay;
        ctx.set_timer(delay, nack_token(group, origin));
    }

    /// NACK suppression timer fired for stream (group, origin).
    pub(super) fn rel_nack_timer(
        &mut self,
        group: GroupId,
        origin: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let Some(cfg) = self.rel_cfg() else {
            return;
        };
        let now = ctx.now();
        let responsible = self.rel_responsible(group, origin);
        let me = self.me;
        let m_router = self.m_router_for(group);
        let Some(stream) = self.rel.streams.get_mut(&(group, origin)) else {
            return;
        };
        if now < stream.nack_deadline {
            return; // superseded arming; the newer timer is in flight
        }
        if stream.missing.is_empty() || !responsible {
            stream.nack_armed = false;
            return;
        }
        stream.nack_attempt += 1;
        if stream.nack_attempt > cfg.nack_retries {
            // Give up: the payloads have aged out of every cache that
            // could answer. The gaps stay recorded (delivery_ratio
            // reflects them); a later repair can still close them.
            stream.nack_armed = false;
            return;
        }
        let attempt = stream.nack_attempt;
        let encap = stream.encap;
        let upstream = stream.from;
        let wanted: Vec<u64> = stream.missing.keys().take(NACK_BATCH).copied().collect();
        for seq in wanted {
            let tag = pack_ctl_tag(origin.0, seq as u32);
            let pkt = Packet::control_keyed(group, tag, ScmpMsg::Nack { origin, seq });
            ctx.observe(EventKind::Nack {
                group: group.0,
                origin: origin.0,
                seq,
                tag,
            });
            if encap {
                // m-router chasing the unicast encapsulation leg.
                ctx.unicast(origin, pkt);
            } else if let Some(up) = upstream {
                ctx.send(up, pkt);
            } else if m_router != me {
                // Never saw a data packet (pure tail loss learned from a
                // relayed announce before any payload): ask the root.
                ctx.unicast(m_router, pkt);
            }
        }
        let delay = (cfg.nack_delay << attempt.min(BACKOFF_CAP))
            + jitter_in(&cfg, me, group, origin, attempt);
        let stream = self
            .rel
            .streams
            .get_mut(&(group, origin))
            .expect("stream checked above");
        stream.nack_deadline = now + delay;
        ctx.set_timer(delay, nack_token(group, origin));
    }

    /// An incoming NACK: answer from the repair cache, or aggregate it
    /// in the PIT and forward upstream on a fresh miss.
    pub(super) fn rel_handle_nack(
        &mut self,
        from: NodeId,
        pkt: &Packet<ScmpMsg>,
        origin: NodeId,
        seq: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let Some(cfg) = self.rel_cfg() else {
            ctx.drop_packet_keyed(pkt.group, pkt.tag);
            return;
        };
        let group = pkt.group;
        let key = (group.0, origin.0, seq);
        if let Some((tag, created_at)) = self.rel.cache.get(key) {
            ctx.observe(EventKind::RepairHit {
                group: group.0,
                origin: origin.0,
                seq,
                tag,
            });
            let repair = Packet {
                class: PacketClass::Control,
                group,
                tag,
                created_at,
                // Preserve the stream origin so every repair hop (and
                // the eventual recovered delivery) joins the original
                // payload's causal journey.
                origin,
                body: ScmpMsg::Repair { origin, seq },
            };
            if origin == self.me {
                // We are the stream source; the requester NACKed us
                // directly over unicast (the encapsulation leg).
                ctx.unicast(pkt.origin, repair);
            } else {
                ctx.send(from, repair);
            }
            return;
        }
        ctx.observe(EventKind::RepairMiss {
            group: group.0,
            origin: origin.0,
            seq,
            tag: pkt.tag,
        });
        if origin == self.me {
            // Our own payload aged out of our cache: unrecoverable.
            ctx.drop_packet_keyed(group, pkt.tag);
            return;
        }
        let now = ctx.now();
        let hold = cfg.nack_delay * 2;
        if let Some(entry) = self.rel.pit.get_mut(&key) {
            if now.saturating_sub(entry.forwarded_at) < hold {
                // A NACK for this payload is already travelling
                // upstream; park the requester until the repair flows
                // down (duplicate-NACK suppression).
                entry.waiters.insert(from);
                ctx.observe(EventKind::NackSuppress {
                    group: group.0,
                    origin: origin.0,
                    seq,
                    tag: pkt.tag,
                });
                return;
            }
        }
        if self.rel.pit.len() >= MAX_PIT && !self.rel.pit.contains_key(&key) {
            // Shed the oldest interest; its requester retries anyway.
            if let Some(oldest) = self
                .rel
                .pit
                .iter()
                .min_by_key(|(k, e)| (e.forwarded_at, **k))
                .map(|(k, _)| *k)
            {
                self.rel.pit.remove(&oldest);
            }
        }
        let entry = self.rel.pit.entry(key).or_insert(PitEntry {
            waiters: BTreeSet::new(),
            forwarded_at: now,
        });
        entry.waiters.insert(from);
        entry.forwarded_at = now;
        ctx.record_nack_forwarded();
        // Forward a *fresh* NACK so each hop's requester is the
        // previous hop (repairs then cascade cache-to-cache back down).
        let fwd = Packet::control_keyed(group, pkt.tag, ScmpMsg::Nack { origin, seq });
        let stream = self.rel.streams.get(&(group, origin));
        if stream.is_some_and(|s| s.encap) {
            ctx.unicast(origin, fwd);
        } else if let Some(up) = stream.and_then(|s| s.from) {
            ctx.send(up, fwd);
        } else {
            let m = self.m_router_for(group);
            if m != self.me {
                ctx.unicast(m, fwd);
            }
        }
    }

    /// An incoming repair: close the gap, deliver locally when this DR
    /// has members, serve parked waiters, and — at the m-router for an
    /// encapsulated stream — re-flood the recovered payload down the
    /// tree as ordinary data.
    pub(super) fn rel_handle_repair(
        &mut self,
        pkt: &Packet<ScmpMsg>,
        origin: NodeId,
        seq: u64,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        if self.rel_cfg().is_none() {
            ctx.drop_packet_keyed(pkt.group, pkt.tag);
            return;
        };
        let group = pkt.group;
        if !self.rel_observe_data(
            group,
            origin,
            seq,
            pkt.tag,
            pkt.created_at,
            None,
            false,
            ctx,
        ) {
            ctx.drop_packet_keyed(group, pkt.tag);
            return;
        }
        let data = Packet {
            class: PacketClass::Data,
            group,
            tag: pkt.tag,
            created_at: pkt.created_at,
            origin,
            body: ScmpMsg::Data { seq },
        };
        let encap = self
            .rel
            .streams
            .get(&(group, origin))
            .is_some_and(|s| s.encap);
        if self.is_m_router() && encap {
            // The recovered payload never made it off the encapsulation
            // leg: push it down the whole tree like a fresh
            // decapsulation. Stream dedup downstream suppresses copies
            // members already have.
            self.rel.pit.remove(&(group.0, origin.0, seq));
            if let Some(entry) = self.entries.get(&group) {
                if entry.local_interface {
                    ctx.deliver_local(&data);
                }
                for &to in &entry.downstream_routers {
                    ctx.send(to, data.clone());
                }
            }
            return;
        }
        if self.entries.get(&group).is_some_and(|e| e.local_interface) {
            ctx.deliver_local(&data);
        }
        if let Some(pit) = self.rel.pit.remove(&(group.0, origin.0, seq)) {
            let repair = Packet {
                class: PacketClass::Control,
                group,
                tag: pkt.tag,
                created_at: pkt.created_at,
                origin,
                body: ScmpMsg::Repair { origin, seq },
            };
            for w in pit.waiters {
                ctx.send(w, repair.clone());
            }
        }
    }

    /// An incoming SEQ-ANNOUNCE: learn the stream extent (opening tail
    /// gaps), relay each round once down the tree, and — at the
    /// m-router for an encapsulated stream — restart the downstream
    /// announce series so members learn the extent too.
    pub(super) fn rel_handle_announce(
        &mut self,
        from: NodeId,
        pkt: &Packet<ScmpMsg>,
        origin: NodeId,
        seq: u64,
        round: u32,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let Some(cfg) = self.rel_cfg() else {
            ctx.drop_packet_keyed(pkt.group, pkt.tag);
            return;
        };
        let group = pkt.group;
        if origin == self.me {
            return; // our own announce echoed back on the tree
        }
        let now = ctx.now();
        let is_m = self.is_m_router();
        let stream = self.rel.streams.entry((group, origin)).or_default();
        // The encapsulation leg is unicast: an announce landing at the
        // m-router from an origin it has no tree-neighbor state for is
        // the origin's own beacon.
        if is_m && stream.from.is_none() {
            stream.encap = true;
        }
        if stream.from.is_none() && !stream.encap {
            stream.from = Some(from);
        }
        stream.observe_extent(seq, now);
        let relay = if stream.relayed_announce < Some((seq, round)) {
            stream.relayed_announce = Some((seq, round));
            true
        } else {
            false
        };
        let encap = stream.encap;
        self.rel_arm_nack_if_needed(group, origin, &cfg, ctx);
        if is_m && encap {
            // Re-announce the (possibly still unrecovered) extent down
            // the tree so members detect tail loss of the flood too.
            self.rel_kick_announce(group, origin, &cfg, ctx);
            return;
        }
        if relay {
            if let Some(entry) = self.entries.get(&group) {
                let fwd = Packet::control_keyed(
                    group,
                    pkt.tag,
                    ScmpMsg::SeqAnnounce { origin, seq, round },
                );
                for to in entry.forwarding_set() {
                    if to != from {
                        ctx.send(to, fwd.clone());
                    }
                }
            }
        }
    }

    /// (Re)start the announce series for a stream this router sources.
    pub(super) fn rel_kick_announce(
        &mut self,
        group: GroupId,
        origin: NodeId,
        cfg: &ReliabilityConfig,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        if cfg.announce_interval == 0 || cfg.announce_rounds == 0 {
            return;
        }
        let deadline = ctx.now() + cfg.announce_interval;
        let state = self
            .rel
            .announces
            .entry((group, origin))
            .or_insert(AnnounceState {
                rounds_left: 0,
                round: 0,
                deadline,
            });
        state.rounds_left = cfg.announce_rounds;
        state.deadline = deadline;
        ctx.set_timer(cfg.announce_interval, announce_token(group, origin));
    }

    /// Announce timer fired for a stream this router sources.
    pub(super) fn rel_announce_timer(
        &mut self,
        group: GroupId,
        origin: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let Some(cfg) = self.rel_cfg() else {
            return;
        };
        let now = ctx.now();
        let Some(state) = self.rel.announces.get_mut(&(group, origin)) else {
            return;
        };
        if now < state.deadline {
            return; // superseded by a newer series restart
        }
        if state.rounds_left == 0 {
            self.rel.announces.remove(&(group, origin));
            return;
        }
        state.rounds_left -= 1;
        state.round += 1;
        let round = state.round;
        let more = state.rounds_left > 0;
        if more {
            state.deadline = now + cfg.announce_interval;
            ctx.set_timer(cfg.announce_interval, announce_token(group, origin));
        } else {
            self.rel.announces.remove(&(group, origin));
        }
        let hi = if origin == self.me {
            self.rel.send_seq.get(&group).copied().unwrap_or(0)
        } else {
            self.rel
                .streams
                .get(&(group, origin))
                .map(|s| s.hi)
                .unwrap_or(0)
        };
        if hi == 0 {
            return;
        }
        let tag = pack_ctl_tag(origin.0, hi as u32);
        let announce = Packet::control_keyed(
            group,
            tag,
            ScmpMsg::SeqAnnounce {
                origin,
                seq: hi,
                round,
            },
        );
        if let Some(entry) = self.entries.get(&group) {
            if origin == self.me {
                // On-tree source: flood over every tree interface.
                for to in entry.forwarding_set() {
                    ctx.send(to, announce.clone());
                }
            } else {
                // m-router re-announcing a decapsulated stream.
                for &to in &entry.downstream_routers {
                    ctx.send(to, announce.clone());
                }
            }
        } else if origin == self.me {
            // Off-tree source: beacon the extent to the stream's root.
            let m = self.m_router_for(group);
            if m != self.me {
                ctx.unicast(m, announce);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::config::CACHE_ENTRY_BYTES;
    use super::*;

    #[test]
    fn stream_gap_detection_opens_and_closes() {
        let mut s = StreamState::default();
        assert!(matches!(
            s.observe(1, 10),
            Arrival::Fresh {
                closed_gap_at: None
            }
        ));
        // 2 and 3 lost; 4 arrives.
        assert!(matches!(s.observe(4, 20), Arrival::Fresh { .. }));
        assert_eq!(
            s.missing.keys().copied().collect::<Vec<_>>(),
            vec![2, 3],
            "skipped sequences become gaps"
        );
        // Late copy of 2 closes its gap, stamped with detection time.
        match s.observe(2, 30) {
            Arrival::Fresh { closed_gap_at } => assert_eq!(closed_gap_at, Some(20)),
            _ => panic!("late arrival must be fresh"),
        }
        assert!(matches!(s.observe(2, 31), Arrival::Duplicate));
        assert!(matches!(s.observe(4, 32), Arrival::Duplicate));
        // Announce extends the extent: 5..=6 become tail gaps.
        s.observe_extent(6, 40);
        assert_eq!(s.missing.keys().copied().collect::<Vec<_>>(), vec![3, 5, 6]);
        assert_eq!(s.hi, 6);
    }

    #[test]
    fn repair_cache_is_byte_capped_lru() {
        let mut c = RepairCache::default();
        let cap = 4 * CACHE_ENTRY_BYTES; // room for 4 default-size entries
        for seq in 1..=4u64 {
            assert_eq!(c.insert((1, 13, seq), seq, 0, CACHE_ENTRY_BYTES, cap), 0);
        }
        // Touch seq 1 so seq 2 is the LRU victim.
        assert_eq!(c.get((1, 13, 1)), Some((1, 0)));
        assert_eq!(
            c.insert((1, 13, 5), 5, 0, CACHE_ENTRY_BYTES, cap),
            1,
            "one entry evicted"
        );
        assert_eq!(c.get((1, 13, 2)), None, "LRU victim was seq 2");
        assert_eq!(c.get((1, 13, 1)), Some((1, 0)), "recently used survives");
        // Re-inserting an existing key refreshes, never evicts.
        assert_eq!(c.insert((1, 13, 1), 1, 0, CACHE_ENTRY_BYTES, cap), 0);
        assert_eq!(c.entries.len(), 4);
        assert_eq!(c.total_bytes, cap, "accounting matches the live set");
    }

    #[test]
    fn repair_cache_charges_actual_payload_bytes() {
        let mut c = RepairCache::default();
        let cap = 1_000;
        // Ten 100-byte payloads fill the cache exactly.
        for seq in 1..=10u64 {
            assert_eq!(c.insert((1, 13, seq), seq, 0, 100, cap), 0);
        }
        assert_eq!(c.total_bytes, 1_000);
        // One 550-byte jumbo displaces six small payloads (five would
        // leave 1_050 > cap), not the single entry a flat per-entry
        // estimate would charge.
        assert_eq!(c.insert((1, 13, 11), 11, 0, 550, cap), 6);
        assert_eq!(c.entries.len(), 5);
        assert_eq!(c.total_bytes, 4 * 100 + 550);
        for seq in 1..=6u64 {
            assert_eq!(c.get((1, 13, seq)), None, "small payload {seq} evicted");
        }
        // A tiny payload after the jumbo evicts nothing.
        assert_eq!(c.insert((1, 13, 12), 12, 0, 8, cap), 0);
        assert_eq!(c.total_bytes, 4 * 100 + 550 + 8);
        // An oversize payload beyond the whole cap still caches (the
        // newest entry is never evicted) but flushes everything else.
        assert_eq!(c.insert((1, 13, 13), 13, 0, 2_000, cap), 6);
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.total_bytes, 2_000);
        assert_eq!(c.get((1, 13, 13)), Some((13, 0)));
    }

    #[test]
    fn payload_sizes_are_pure_and_ranged() {
        let mut cfg = ReliabilityConfig {
            payload_bytes_min: 16,
            payload_bytes_max: 1_024,
            ..ReliabilityConfig::default()
        };
        let mut distinct = BTreeSet::new();
        for seq in 1..=64u64 {
            let a = payload_bytes(&cfg, GroupId(1), NodeId(13), seq);
            let b = payload_bytes(&cfg, GroupId(1), NodeId(13), seq);
            assert_eq!(a, b, "same coordinates, same size");
            assert!((16..=1_024).contains(&a), "size {a} out of range");
            distinct.insert(a);
        }
        assert!(distinct.len() > 1, "a 64-payload mix must vary in size");
        // A degenerate range is a constant — the default model.
        cfg.payload_bytes_min = CACHE_ENTRY_BYTES as u32;
        cfg.payload_bytes_max = CACHE_ENTRY_BYTES as u32;
        for seq in 1..=8u64 {
            assert_eq!(
                payload_bytes(&cfg, GroupId(1), NodeId(13), seq),
                CACHE_ENTRY_BYTES
            );
        }
    }

    #[test]
    fn jitter_is_a_pure_function_of_its_inputs() {
        let a = nack_jitter(7, NodeId(3), GroupId(1), NodeId(13), 0);
        let b = nack_jitter(7, NodeId(3), GroupId(1), NodeId(13), 0);
        assert_eq!(a, b, "same coordinates, same jitter");
        let c = nack_jitter(7, NodeId(4), GroupId(1), NodeId(13), 0);
        let d = nack_jitter(7, NodeId(3), GroupId(1), NodeId(13), 1);
        let e = nack_jitter(8, NodeId(3), GroupId(1), NodeId(13), 0);
        // Not a proof of spread, but the standard coordinates must not
        // collide for the suppression design to make sense.
        assert!(a != c || a != d || a != e);
    }
}
