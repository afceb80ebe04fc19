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
//!   [`NACK_RETRIES`] attempts.
//! * **Repair caches** — every on-tree relaying DR keeps a bounded,
//!   entry-capped LRU cache of recently forwarded payloads (the NDN
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
//! The tier has one configuration: the timers, budgets and jitter seed
//! below are constants. Everything here is inert when
//! `config.reliability` is `None`: the sequence stamp stays 0, no state
//! is touched, and the data plane is byte-identical to plain SCMP
//! (pinned by integration tests).

use super::timer::{backoff, Timer};
use super::ScmpRouter;
use crate::message::ScmpMsg;
use scmp_net::NodeId;
use scmp_sim::{Ctx, GroupId, Packet, PacketClass};
use scmp_telemetry::{pack_ctl_tag, EventKind};
use std::collections::{BTreeMap, BTreeSet};

/// Base delay before a receiver NACKs a detected gap. Waiting lets a
/// reordered packet close the gap for free and spreads NACKs so
/// upstream duplicate suppression can thin them (SRM's request timer).
const NACK_DELAY: u64 = 300;
/// Width of the jitter added to every NACK delay: the jitter for a
/// given (node, group, origin, attempt) is [`nack_jitter`] of
/// [`JITTER_SEED`] reduced into `[0, NACK_JITTER)`.
const NACK_JITTER: u64 = 200;
/// Seed of the suppression-jitter hash.
const JITTER_SEED: u64 = 0x5C3F_11AB;
/// NACK rounds per stream before giving up. Retries back off
/// exponentially like the control-plane ARQs.
const NACK_RETRIES: u32 = 8;
/// Modelled size of one cached payload in bytes (header + the
/// simulator's abstract payload); every payload weighs the same.
const CACHE_ENTRY_BYTES: usize = 64;
/// Repair-cache budget per router in bytes.
const CACHE_BYTES: usize = 64 * 1024;
/// Most payloads one repair cache holds: the byte budget at one fixed
/// payload size.
const CACHE_ENTRIES: usize = CACHE_BYTES / CACHE_ENTRY_BYTES;
/// Delay between SEQ-ANNOUNCE rounds after a send burst (tail-loss
/// detection).
const ANNOUNCE_INTERVAL: u64 = 1_000;
/// SEQ-ANNOUNCE rounds sent after each send burst.
const ANNOUNCE_ROUNDS: u32 = 3;
/// Most missing sequences NACKed per timer round; the rest wait for the
/// retry (bounds the burst a pathological gap can emit).
const NACK_BATCH: usize = 16;
/// Most tracked gaps per stream; older gaps are abandoned beyond this
/// (the payloads are unrecoverable anyway once every cache evicted
/// them, and the bound keeps per-stream memory constant).
const MAX_GAPS_PER_STREAM: usize = 1024;
/// Most pending-interest entries per router.
const MAX_PIT: usize = 1024;

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

/// The NACK jitter of (node, group, origin, attempt), in
/// `[0, NACK_JITTER)`.
fn jitter_in(me: NodeId, group: GroupId, origin: NodeId, attempt: u32) -> u64 {
    nack_jitter(JITTER_SEED, me, group, origin, attempt) % NACK_JITTER
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

/// One cached payload, LRU-stamped.
#[derive(Debug)]
struct CacheEntry {
    tag: u64,
    created_at: u64,
    stamp: u64,
}

/// Bounded retransmission cache: (group, origin, seq) → payload
/// metadata, holding at most [`CACHE_ENTRIES`] payloads with
/// least-recently-used eviction.
#[derive(Debug, Default)]
struct RepairCache {
    entries: BTreeMap<(u32, u32, u64), CacheEntry>,
    /// LRU index: access stamp → key. Stamps are unique (monotonic
    /// counter), so the map is a total order of recency.
    lru: BTreeMap<u64, (u32, u32, u64)>,
    next_stamp: u64,
}

impl RepairCache {
    /// Insert (or refresh) a payload; returns how many entries were
    /// evicted to bring the cache back to [`CACHE_ENTRIES`] (0 or 1).
    fn insert(&mut self, key: (u32, u32, u64), tag: u64, created_at: u64) -> u64 {
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
            },
        );
        self.lru.insert(stamp, key);
        if self.entries.len() <= CACHE_ENTRIES {
            return 0;
        }
        let (_, victim) = self.lru.pop_first().expect("lru tracks every entry");
        self.entries.remove(&victim);
        1
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
pub(super) struct AnnounceState {
    rounds_left: u32,
    round: u32,
    deadline: u64,
}

/// The router-wide reliability-tier state: the repair cache and the
/// pending-interest table, both bounded; empty with the tier off.
#[derive(Debug, Default)]
pub(super) struct ReliabilityState {
    cache: RepairCache,
    pit: BTreeMap<(u32, u32, u64), PitEntry>,
}

/// One group's tier state at one router, kept in the group's record.
/// Stream history (`streams`, `send_seq`) is never reclaimed: a
/// receiver that forgot a stream would NACK payloads it already had,
/// and a sender would restart at 1, which receivers drop as duplicates.
#[derive(Debug, Default)]
pub(super) struct GroupRel {
    /// Receive state per stream origin.
    streams: BTreeMap<NodeId, StreamState>,
    /// The last sequence this node stamped on a payload of its own.
    send_seq: u64,
    /// Announce series this node runs, per origin (ANNOUNCE_ROUNDS each).
    pub(super) announces: BTreeMap<NodeId, AnnounceState>,
}

impl GroupRel {
    pub(super) fn is_empty(&self) -> bool {
        self.streams.is_empty() && self.send_seq == 0 && self.announces.is_empty()
    }
}

impl ScmpRouter {
    fn rel_enabled(&self) -> bool {
        self.domain.config.reliability.is_some()
    }

    fn stream(&self, group: GroupId, origin: NodeId) -> Option<&StreamState> {
        self.soft(group)?.rel.streams.get(&origin)
    }

    fn stream_mut(&mut self, group: GroupId, origin: NodeId) -> Option<&mut StreamState> {
        self.soft_get_mut(group)?.rel.streams.get_mut(&origin)
    }

    /// The stream's receive state, created on first use.
    fn stream_or_default(&mut self, group: GroupId, origin: NodeId) -> &mut StreamState {
        self.soft_mut(group).rel.streams.entry(origin).or_default()
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
        if !self.rel_enabled() {
            return 0;
        }
        let rel = &mut self.soft_mut(group).rel;
        rel.send_seq += 1;
        let seq = rel.send_seq;
        let evicted = self
            .rel
            .cache
            .insert((group.0, self.me.0, seq), tag, ctx.now());
        ctx.record_cache_evictions(evicted);
        self.rel_kick_announce(group, self.me, ctx);
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
        if !self.rel_enabled() {
            return true;
        }
        let now = ctx.now();
        let stream = self.stream_or_default(group, origin);
        stream.encap = stream.encap || encap;
        if let Some(f) = from {
            stream.from = Some(f);
        }
        let fresh = match stream.observe(seq, now) {
            Arrival::Duplicate => return false,
            Arrival::Fresh { closed_gap_at } => closed_gap_at,
        };
        let evicted = self
            .rel
            .cache
            .insert((group.0, origin.0, seq), tag, created_at);
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
        self.rel_arm_nack_if_needed(group, origin, ctx);
        true
    }

    /// Whether this router must chase gaps of stream (group, origin):
    /// it delivers to local members, or it is the m-router terminating
    /// the stream's unicast encapsulation leg.
    fn rel_responsible(&self, group: GroupId, origin: NodeId) -> bool {
        if self.entry(group).is_some_and(|e| e.local_interface) {
            return true;
        }
        self.is_m_router() && self.stream(group, origin).is_some_and(|s| s.encap)
    }

    /// Arm the stream's NACK suppression timer when it has open gaps,
    /// this router is responsible for them, and no timer is pending.
    fn rel_arm_nack_if_needed(
        &mut self,
        group: GroupId,
        origin: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        if !self.rel_responsible(group, origin) {
            return;
        }
        let me = self.me;
        let Some(stream) = self.stream_mut(group, origin) else {
            return;
        };
        if stream.missing.is_empty() || stream.nack_armed {
            return;
        }
        stream.nack_armed = true;
        stream.nack_attempt = 0;
        let delay = NACK_DELAY + jitter_in(me, group, origin, 0);
        stream.nack_deadline = ctx.now().saturating_add(delay);
        ctx.set_timer(delay, Timer::Nack(group, origin).token());
    }

    /// NACK suppression timer fired for stream (group, origin).
    pub(super) fn rel_nack_timer(
        &mut self,
        group: GroupId,
        origin: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let now = ctx.now();
        let responsible = self.rel_responsible(group, origin);
        let me = self.me;
        let m_router = self.m_router_for(group);
        let Some(stream) = self.stream_mut(group, origin) else {
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
        if stream.nack_attempt > NACK_RETRIES {
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
        let delay = backoff(NACK_DELAY, attempt) + jitter_in(me, group, origin, attempt);
        let stream = self
            .stream_mut(group, origin)
            .expect("stream checked above");
        stream.nack_deadline = now.saturating_add(delay);
        ctx.set_timer(delay, Timer::Nack(group, origin).token());
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
        if !self.rel_enabled() {
            ctx.drop_packet_keyed(pkt.group, pkt.tag);
            return;
        }
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
        let hold = NACK_DELAY * 2;
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
        let stream = self.stream(group, origin);
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
        if !self.rel_enabled() {
            ctx.drop_packet_keyed(pkt.group, pkt.tag);
            return;
        }
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
        let encap = self.stream(group, origin).is_some_and(|s| s.encap);
        if self.is_m_router() && encap {
            // The recovered payload never made it off the encapsulation
            // leg: push it down the whole tree like a fresh
            // decapsulation. Stream dedup downstream suppresses copies
            // members already have.
            self.rel.pit.remove(&(group.0, origin.0, seq));
            self.fan_out(&data, None, true, ctx);
            return;
        }
        if self.entry(group).is_some_and(|e| e.local_interface) {
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
        if !self.rel_enabled() {
            ctx.drop_packet_keyed(pkt.group, pkt.tag);
            return;
        }
        let group = pkt.group;
        if origin == self.me {
            return; // our own announce echoed back on the tree
        }
        let now = ctx.now();
        let is_m = self.is_m_router();
        let stream = self.stream_or_default(group, origin);
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
        self.rel_arm_nack_if_needed(group, origin, ctx);
        if is_m && encap {
            // Re-announce the (possibly still unrecovered) extent down
            // the tree so members detect tail loss of the flood too.
            self.rel_kick_announce(group, origin, ctx);
            return;
        }
        if relay {
            let fwd = ScmpMsg::SeqAnnounce { origin, seq, round };
            let fwd = Packet::control_keyed(group, pkt.tag, fwd);
            self.fan_out(&fwd, Some(from), false, ctx);
        }
    }

    /// (Re)start the announce series for a stream this router sources.
    pub(super) fn rel_kick_announce(
        &mut self,
        group: GroupId,
        origin: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let deadline = ctx.now().saturating_add(ANNOUNCE_INTERVAL);
        let state = self
            .soft_mut(group)
            .rel
            .announces
            .entry(origin)
            .or_insert(AnnounceState {
                rounds_left: 0,
                round: 0,
                deadline,
            });
        state.rounds_left = ANNOUNCE_ROUNDS;
        state.deadline = deadline;
        ctx.set_timer(ANNOUNCE_INTERVAL, Timer::Announce(group, origin).token());
    }

    /// Announce timer fired for a stream this router sources.
    pub(super) fn rel_announce_timer(
        &mut self,
        group: GroupId,
        origin: NodeId,
        ctx: &mut Ctx<'_, ScmpMsg>,
    ) {
        let now = ctx.now();
        let Some(state) = self
            .soft_get_mut(group)
            .and_then(|s| s.rel.announces.get_mut(&origin))
        else {
            return;
        };
        if now < state.deadline {
            return; // superseded by a newer series restart
        }
        if state.rounds_left == 0 {
            self.clear_soft(group, |s| _ = s.rel.announces.remove(&origin));
            return;
        }
        state.rounds_left -= 1;
        state.round += 1;
        let round = state.round;
        let more = state.rounds_left > 0;
        if more {
            state.deadline = now.saturating_add(ANNOUNCE_INTERVAL);
            ctx.set_timer(ANNOUNCE_INTERVAL, Timer::Announce(group, origin).token());
        } else {
            self.clear_soft(group, |s| _ = s.rel.announces.remove(&origin));
        }
        let hi = if origin == self.me {
            self.soft(group).map_or(0, |s| s.rel.send_seq)
        } else {
            self.stream(group, origin).map_or(0, |s| s.hi)
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
        if self.entry(group).is_some() {
            // An on-tree source floods every tree interface; the
            // m-router re-announces a decapsulated stream downstream.
            self.fan_out(&announce, None, origin != self.me, ctx);
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
    fn repair_cache_is_entry_capped_lru() {
        let mut c = RepairCache::default();
        let full = CACHE_ENTRIES as u64;
        for seq in 1..=full {
            assert_eq!(c.insert((1, 13, seq), seq, 0), 0);
        }
        // Touch seq 1 so seq 2 is the LRU victim.
        assert_eq!(c.get((1, 13, 1)), Some((1, 0)));
        assert_eq!(
            c.insert((1, 13, full + 1), full + 1, 0),
            1,
            "one entry evicted"
        );
        assert_eq!(c.get((1, 13, 2)), None, "LRU victim was seq 2");
        assert_eq!(c.get((1, 13, 1)), Some((1, 0)), "recently used survives");
        // Re-inserting an existing key refreshes, never evicts.
        assert_eq!(c.insert((1, 13, 1), 1, 0), 0);
        assert_eq!(c.entries.len(), CACHE_ENTRIES);
        assert_eq!(
            c.lru.len(),
            CACHE_ENTRIES,
            "the LRU index matches the live set"
        );
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
