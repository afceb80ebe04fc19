//! Wire-codec integration: every packet the SCMP protocol actually puts
//! on the air survives an encode/decode roundtrip bit-exactly.
//!
//! A wrapper router serialises and deserialises each received packet
//! with `scmp_core::wire` before handing it to the real state machine,
//! so a full protocol run (joins, restructure, data, leaves, failover
//! messages) doubles as an exhaustive codec conformance test on
//! realistic traffic.

use bytes::Bytes;
use scmp_core::router::{ReliabilityConfig, ScmpConfig, ScmpDomain, ScmpRouter};
use scmp_core::wire::{Frame, WireError};
use scmp_core::{wire, ScmpMsg};
use scmp_integration::{scenario, G};
use scmp_net::topology::examples::fig5;
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Ctx, Engine, Packet, Router};
use scmp_telemetry::{DropReason, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static PACKETS_CHECKED: AtomicU64 = AtomicU64::new(0);

struct WireChecked {
    inner: ScmpRouter,
}

impl Router for WireChecked {
    type Msg = ScmpMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, from: NodeId, pkt: Packet<ScmpMsg>, ctx: &mut Ctx<'_, ScmpMsg>) {
        let decoded = wire::decode(wire::encode(&pkt)).expect("wire roundtrip decodes");
        assert_eq!(decoded.body, pkt.body, "body mangled on the wire");
        assert_eq!(decoded.group, pkt.group);
        assert_eq!(decoded.tag, pkt.tag);
        assert_eq!(decoded.created_at, pkt.created_at);
        assert_eq!(decoded.class, pkt.class, "class must be derivable");
        PACKETS_CHECKED.fetch_add(1, Ordering::Relaxed);
        // Hand the *decoded* packet onward: the protocol must work off
        // the wire image, not the in-memory original.
        self.inner.on_packet(from, decoded, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, ScmpMsg>) {
        self.inner.on_timer(token, ctx);
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, ScmpMsg>) {
        self.inner.on_app(ev, ctx);
    }
}

#[test]
fn full_protocol_run_over_the_wire() {
    let sc = scenario(21, 25, 8);
    let mut cfg = ScmpConfig::new(NodeId(0));
    // Exercise the failover message types too.
    cfg.standby = Some(NodeId(1));
    cfg.heartbeat_interval = 50_000;
    let domain = ScmpDomain::new(sc.topo.clone(), cfg);
    let mut e = Engine::new(sc.topo.clone(), move |me, _, _| WireChecked {
        inner: ScmpRouter::new(me, Arc::clone(&domain)),
    });
    let members: Vec<NodeId> = sc
        .members
        .iter()
        .copied()
        .filter(|&m| m != NodeId(1))
        .collect();
    let mut t = 0;
    for &m in &members {
        e.schedule_app(t, m, AppEvent::Join(G));
        t += 1_000;
    }
    e.schedule_app(t + 500_000, sc.source, AppEvent::Send { group: G, tag: 1 });
    // Leave only after the payload has fully propagated (Waxman path
    // delays reach several hundred thousand ticks).
    t += 2_000_000;
    for &m in &members {
        e.schedule_app(t, m, AppEvent::Leave(G));
        t += 1_000;
    }
    e.run_until(t + 3_000_000);

    for &m in &members {
        assert_eq!(e.stats().delivery_count(G, 1, m), 1, "{m:?}");
    }
    let checked = PACKETS_CHECKED.load(Ordering::Relaxed);
    assert!(
        checked > 50,
        "expected a realistic packet mix on the wire, saw {checked}"
    );
}

/// FNV-1a, re-implemented here so the test can re-stamp a mangled
/// frame's trailing checksum exactly the way a newer-version sender
/// would (the codec keeps its own hasher private on purpose).
fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

static FRAMES_SEEN: AtomicU64 = AtomicU64::new(0);
static FRAMES_MANGLED: AtomicU64 = AtomicU64::new(0);

/// A router whose inbound link deterministically rewrites every 8th
/// frame's message-kind byte to an unassigned value (200) and re-stamps
/// the checksum — the shape of traffic from a newer protocol revision,
/// not line noise. The receiver must treat such frames as counted,
/// telemetry-visible drops, never as decode errors or panics.
struct FutureKind {
    inner: ScmpRouter,
}

impl Router for FutureKind {
    type Msg = ScmpMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ScmpMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, from: NodeId, pkt: Packet<ScmpMsg>, ctx: &mut Ctx<'_, ScmpMsg>) {
        let n = FRAMES_SEEN.fetch_add(1, Ordering::Relaxed);
        let encoded = wire::encode(&pkt);
        if n % 8 == 3 {
            // A future sender: unknown kind byte, valid checksum.
            let mut raw = encoded.to_vec();
            raw[3] = 200;
            let body_end = raw.len() - 4;
            let c = fnv32(&raw[..body_end]);
            raw[body_end..].copy_from_slice(&c.to_be_bytes());
            match wire::decode_frame(Bytes::from(raw)) {
                Ok(Frame::UnknownKind { kind, .. }) => assert_eq!(kind, 200),
                other => panic!("future-kind frame must skip, got {other:?}"),
            }
            // The same rewrite without the re-stamp is indistinguishable
            // from line noise and must fail the checksum instead.
            let mut noisy = encoded.to_vec();
            noisy[3] = 200;
            assert_eq!(
                wire::decode_frame(Bytes::from(noisy)),
                Err(WireError::BadChecksum),
                "kind corruption without a checksum re-stamp must not pass"
            );
            ctx.observe(EventKind::Drop {
                reason: DropReason::UnknownKind,
                to: None,
                group: None,
                tag: None,
            });
            FRAMES_MANGLED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let decoded = wire::decode(encoded).expect("wire roundtrip decodes");
        self.inner.on_packet(from, decoded, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, ScmpMsg>) {
        self.inner.on_timer(token, ctx);
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, ScmpMsg>) {
        self.inner.on_app(ev, ctx);
    }
}

/// Satellite regression for the unknown-kind decode path, end to end:
/// with every 8th frame rewritten to a future message kind, the run
/// must finish with full delivery — control losses healed by the retry
/// machinery, data losses by the NACK/repair tier — and the stats must
/// account for every mangled frame as an `unknown_kind` drop.
#[test]
fn unknown_kind_frames_are_counted_drops_not_decode_errors() {
    let topo = fig5();
    let mut cfg = ScmpConfig::new(NodeId(0));
    cfg.join_retry = 500;
    cfg.leave_retry = 500;
    cfg.tree_retry = 500;
    cfg.reliability = Some(ReliabilityConfig::default());
    let domain = ScmpDomain::new(topo.clone(), cfg);
    let mut e = Engine::new(topo, move |me, _, _| FutureKind {
        inner: ScmpRouter::new(me, Arc::clone(&domain)),
    });

    let members = [NodeId(3), NodeId(4), NodeId(5)];
    let mut t = 0;
    for &m in &members {
        e.schedule_app(t, m, AppEvent::Join(G));
        t += 1_000;
    }
    // Node 1 never joins: the sends take the off-tree encapsulation leg.
    for tag in 1..=5u64 {
        e.schedule_app(
            40_000 + tag * 5_000,
            NodeId(1),
            AppEvent::Send { group: G, tag },
        );
    }
    e.run_until(400_000);

    let mangled = FRAMES_MANGLED.load(Ordering::Relaxed);
    assert!(mangled > 0, "the rewriter never fired");
    assert_eq!(
        e.stats().unknown_kind_drops,
        mangled,
        "every future-kind frame must surface as a counted drop"
    );
    for &m in &members {
        for tag in 1..=5u64 {
            assert_eq!(
                e.stats().delivery_count(G, tag, m),
                1,
                "payload {tag} at {m:?} (drops healed by retry + NACK recovery)"
            );
        }
    }
}
