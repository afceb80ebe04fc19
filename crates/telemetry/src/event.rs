//! The structured event vocabulary and its JSONL wire form.
//!
//! One [`Event`] describes one observable occurrence inside a simulation
//! run: a dispatch (packet/timer/app), a fault firing, a drop with its
//! reason, a local delivery with its end-to-end delay, a completed tree
//! repair, or a periodic gauge sample. Events are protocol-agnostic —
//! node and group identifiers are plain integers so this crate depends
//! on nothing else in the workspace.
//!
//! The JSONL form is one object per line with a fixed key order, so a
//! trace file diffs cleanly and can serve as a golden snapshot:
//!
//! ```text
//! {"t":10000,"node":1,"kind":"send","group":1,"tag":1}
//! {"t":10003,"node":0,"kind":"deliver","from":1,"class":"data","group":1,"tag":1}
//! ```
//!
//! An event kind is declared **once**, as a row of the [`EventKind`]
//! table below: variant, wire name, fields in wire order. The enum, its
//! [`EventKind::name`], both codec directions, the journey key and the
//! round-trip samples are all generated from that row, with the
//! per-type behaviour (how a `u32`, an optional, a label is written and
//! read) behind the private `Field` trait.

use serde_json::Value;
use std::fmt::Write as _;

/// How one field type crosses the JSONL codec.
trait Field: Copy {
    /// Append the field: `key` is its ready-made `,"name":` prefix. An
    /// absent optional appends nothing, prefix included.
    fn put(self, key: &str, out: &mut String);
    /// Read a value that is present; the error says what is wrong with
    /// it.
    fn get(v: &Value) -> Result<Self, String>;
    /// What a line without the key decodes to (`None`: the field is
    /// required).
    fn absent() -> Option<Self> {
        None
    }
    /// The values [`EventKind::samples`] cycles through.
    fn samples() -> Vec<Self>;
}

macro_rules! uint_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(self, key: &str, out: &mut String) {
                out.push_str(key);
                let _ = write!(out, "{self}");
            }
            fn get(v: &Value) -> Result<Self, String> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| format!("expected unsigned integer, got {}", v.kind_name()))?;
                <$t>::try_from(raw).map_err(|_| format!("{raw} out of range"))
            }
            fn samples() -> Vec<Self> {
                vec![7, <$t>::MAX]
            }
        }
    )*};
}
uint_field!(u32, u64);

impl<T: Field> Field for Option<T> {
    fn put(self, key: &str, out: &mut String) {
        if let Some(v) = self {
            v.put(key, out);
        }
    }
    fn get(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::get(v).map(Some),
        }
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
    fn samples() -> Vec<Self> {
        std::iter::once(None)
            .chain(T::samples().into_iter().map(Some))
            .collect()
    }
}

/// Declare a label enum: each variant beside its stable wire string,
/// from which `label` and both codec directions follow.
macro_rules! label_enum {
    (
        $(#[$meta:meta])*
        $name:ident { $( $(#[$vmeta:meta])* $variant:ident = $label:literal, )+ }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$( $name::$variant, )+];

            /// Stable string used in the JSONL form and reports.
            pub fn label(self) -> &'static str {
                match self {
                    $( $name::$variant => $label, )+
                }
            }
        }

        impl Field for $name {
            fn put(self, key: &str, out: &mut String) {
                out.push_str(key);
                encode_json_string(self.label(), out);
            }
            fn get(v: &Value) -> Result<Self, String> {
                match v.as_str() {
                    $( Some($label) => Ok($name::$variant), )+
                    Some(other) => Err(format!("unknown label {other:?}")),
                    None => Err(format!("expected string, got {}", v.kind_name())),
                }
            }
            fn samples() -> Vec<Self> {
                Self::ALL.to_vec()
            }
        }
    };
}

label_enum! {
    /// Overhead class of a delivered packet, mirroring the simulator's
    /// data/control split without depending on it.
    TrafficClass {
        /// Multicast payload.
        Data = "data",
        /// Protocol traffic (JOIN/LEAVE, TREE/BRANCH, acks, ...).
        Control = "control",
    }
}

label_enum! {
    /// Why a packet was dropped.
    DropReason {
        /// The link (or an endpoint) was out of service.
        DeadLink = "dead_link",
        /// The destination node was down when the event fired.
        DeadNode = "dead_node",
        /// The bounded link queue overflowed (congestion loss).
        QueueFull = "queue_full",
        /// No unicast route existed (partitioned topology).
        NoRoute = "no_route",
        /// A send to a router that is not a neighbour (repair scan racing a
        /// topology change).
        NonNeighbour = "non_neighbour",
        /// A protocol decision (e.g. packet from outside the forwarding set).
        Protocol = "protocol",
        /// The channel model lost the packet on the wire.
        ChannelLoss = "channel_loss",
        /// The packet arrived corrupted and failed the receiver's checksum.
        Corrupt = "corrupt",
    }
}

label_enum! {
    /// Control-plane message kind on a delivered packet, mirroring the SCMP
    /// wire vocabulary without depending on it. Protocols that don't
    /// classify their messages simply omit it.
    CtlKind {
        /// Membership request toward the m-router.
        Join = "join",
        /// Membership withdrawal toward the m-router.
        Leave = "leave",
        /// Upstream branch teardown.
        Prune = "prune",
        /// Full tree-state install from the m-router.
        Tree = "tree",
        /// Incremental graft install.
        Branch = "branch",
        /// Stale-state flush after a restructure.
        Flush = "flush",
        /// Multicast payload on the tree.
        Data = "data",
        /// Payload tunnelled to the m-router by an off-tree DR.
        EncapData = "encap",
        /// m-router liveness beacon.
        Heartbeat = "heartbeat",
        /// Primary→standby membership mirror.
        StandbySync = "sync",
        /// Takeover announcement from a promoted standby.
        NewMRouter = "new_mrouter",
        /// m-router acknowledgement of a LEAVE.
        LeaveAck = "leave_ack",
        /// Hop-by-hop acknowledgement of a TREE/BRANCH install.
        TreeAck = "tree_ack",
        /// Receiver-driven repair request for a missing data sequence.
        Nack = "nack",
        /// Cached-payload retransmission answering a NACK.
        Repair = "repair",
        /// Sequence-extent beacon closing the tail-loss window.
        SeqAnnounce = "announce",
    }
}

label_enum! {
    /// What caused a tree-health sample to be taken.
    HealthTrigger {
        /// A member join (re)built or grafted the tree.
        Join = "join",
        /// A member leave pruned the tree.
        Leave = "leave",
        /// The repair scan rebuilt the tree on the surviving topology
        /// (a promoted standby's trees included).
        Repair = "repair",
    }
}

/// Read field `name` of a `kind` event from its parsed line.
fn field<T: Field>(obj: &Value, name: &str, kind: &str) -> Result<T, String> {
    match obj.get(name) {
        Some(v) => T::get(v).map_err(|e| format!("{kind} event field {name:?}: {e}")),
        None => T::absent().ok_or_else(|| format!("{kind} event missing field {name:?}")),
    }
}

/// Declare the event vocabulary: one row per kind — doc, variant, wire
/// name, fields in wire order, and `journey(group, tag)` when the kind
/// carries a packet's correlation key.
macro_rules! event_kinds {
    ($(
        $(#[$meta:meta])*
        $variant:ident = $wire:literal
        $( { $( $field:ident : $ty:ty ),+ } )?
        $( journey($jg:ident, $jt:ident) )?
    ),+ $(,)?) => {
        /// What happened.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$meta])* $variant $( { $( $field: $ty ),+ } )?, )+
        }

        impl EventKind {
            /// The kind's wire name: the `"kind"` value of its JSONL line.
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $wire, )+
                }
            }

            /// The `(group, tag)` correlation key the event is stamped
            /// with, when it participates in journeys at all (a drop
            /// does only while the packet was still in hand).
            pub fn journey_key(&self) -> Option<(u32, u64)> {
                match *self {
                    $($( EventKind::$variant { $jg, $jt, .. } => {
                        let (g, t): (Option<u32>, Option<u64>) = ($jg.into(), $jt.into());
                        Some((g?, t?))
                    } )?)+
                    _ => None,
                }
            }

            /// One value per kind at least, and enough per kind that
            /// every label and both states of every optional field
            /// appear: what the codec's round-trip test iterates.
            pub fn samples() -> Vec<EventKind> {
                let mut out = Vec::new();
                $({
                    $($( let $field = <$ty as Field>::samples(); )+)?
                    let n = 1usize $($( .max($field.len()) )+)?;
                    for _i in 0..n {
                        out.push(EventKind::$variant $({
                            $( $field: $field[_i % $field.len()] ),+
                        })?);
                    }
                })+
                out
            }

            /// Append `,"kind":"<name>"` and the fields, in row order.
            fn encode(&self, out: &mut String) {
                match *self {
                    $( EventKind::$variant { $($( $field ),+)? } => {
                        out.push_str(concat!(",\"kind\":\"", $wire, "\""));
                        $($( $field.put(concat!(",\"", stringify!($field), "\":"), out); )+)?
                    } )+
                }
            }

            /// Rebuild the kind called `name` from a parsed line.
            fn decode(name: &str, obj: &Value) -> Result<EventKind, String> {
                match name {
                    $( $wire => Ok(EventKind::$variant $({
                        $( $field: field(obj, stringify!($field), $wire)? ),+
                    })?), )+
                    other => Err(format!("unknown event kind {other:?}")),
                }
            }
        }
    };
}

event_kinds! {
    /// A host on the node's subnet joined `group`.
    Join = "join" { group: u32 },
    /// The last host on the node's subnet left `group`.
    Leave = "leave" { group: u32 },
    /// A local host injected payload `tag` for `group`.
    Send = "send" { group: u32, tag: u64 } journey(group, tag),
    /// A packet was handed to the node's router. `ctl` is the
    /// protocol-level message kind when the router classifies its
    /// messages (`None` for protocols that don't).
    Deliver = "deliver" { from: u32, class: TrafficClass, group: u32, tag: u64, ctl: Option<CtlKind> }
        journey(group, tag),
    /// A data payload reached the member hosts attached to the node,
    /// `delay` ticks after its source injected it.
    DeliverLocal = "deliver_local" { group: u32, tag: u64, delay: u64 } journey(group, tag),
    /// A protocol timer fired.
    Timer = "timer" { token: u64 },
    /// The link `a`–`b` went out of service.
    LinkDown = "link_down" { a: u32, b: u32 },
    /// The link `a`–`b` was restored.
    LinkUp = "link_up" { a: u32, b: u32 },
    /// The node crashed (state wiped).
    RouterCrash = "crash",
    /// The node recovered with factory-fresh state.
    RouterRecover = "recover",
    /// A packet was dropped at the node. `to` is the intended next hop
    /// when one was known at the drop point (`None` otherwise);
    /// `group`/`tag` carry the dropped packet's correlation key when the
    /// drop point still had the packet in hand, so journeys can show
    /// where a transaction died.
    Drop = "drop" { reason: DropReason, to: Option<u32>, group: Option<u32>, tag: Option<u64> }
        journey(group, tag),
    /// The m-router's repair scan completed a tree repair, `latency`
    /// ticks after the most recent injected failure.
    Repair = "repair" { latency: u64 },
    /// A periodic gauge sample (the node id is not meaningful).
    Gauge = "gauge" { queue_depth: u64, down_links: u64, down_nodes: u64, deliveries: u64 },
    /// The channel model delivered a second copy of a packet to `to`.
    ChannelDuplicate = "channel_duplicate" { to: u32, group: u32, tag: u64 } journey(group, tag),
    /// The channel model delayed a packet to `to` by `jitter` extra
    /// ticks (later packets can overtake it).
    ChannelReorder = "channel_reorder" { to: u32, jitter: u64, group: u32, tag: u64 }
        journey(group, tag),
    /// The node retransmitted a control message to `to` (attempt
    /// numbers start at 1). `tag` is the transaction's trace key.
    Retransmit = "retransmit" { group: u32, to: u32, attempt: u32, tag: u64 } journey(group, tag),
    /// A standby promoted itself to m-router.
    Takeover = "takeover",
    /// A tree-health sample taken after a tree build/repair at the
    /// m-router: member count, max hop depth, total edge cost, mean
    /// delay stretch vs unicast (×1000), and inter-member delay
    /// variation (max − min delivery delay, in ticks).
    TreeHealth = "tree_health" {
        group: u32,
        trigger: HealthTrigger,
        members: u32,
        depth: u32,
        cost: u64,
        stretch_milli: u64,
        delay_var: u64
    },
    /// The node requested a repair for `(group, origin, seq)` on the
    /// reliability tier. `tag` is the payload's causal trace key so the
    /// NACK joins the data packet's journey.
    Nack = "nack" { group: u32, origin: u32, seq: u64, tag: u64 } journey(group, tag),
    /// A would-be NACK was absorbed by a pending-request entry at the
    /// node (duplicate-NACK suppression on the repair path).
    NackSuppress = "nack_suppress" { group: u32, origin: u32, seq: u64, tag: u64 }
        journey(group, tag),
    /// A NACK was answered from the node's local repair cache.
    RepairHit = "repair_hit" { group: u32, origin: u32, seq: u64, tag: u64 } journey(group, tag),
    /// A NACK missed the node's repair cache and had to go upstream.
    RepairMiss = "repair_miss" { group: u32, origin: u32, seq: u64, tag: u64 } journey(group, tag),
    /// A previously detected data gap closed at a receiver, `latency`
    /// ticks after the gap was first observed.
    Recovery = "recovery" { group: u32, origin: u32, seq: u64, tag: u64, latency: u64 }
        journey(group, tag),
    /// The m-router's repair scan found part of the domain unreachable
    /// (a network partition): `stranded` nodes are cut off, `members`
    /// of them are logged group members the scan must keep on the books
    /// for readoption.
    Partition = "partition" { stranded: u32, members: u32 },
    /// Previously unreachable nodes became reachable again (the
    /// partition healed): `restored` nodes rejoined the m-router's
    /// component.
    Heal = "heal" { restored: u32 },
    /// Post-heal reconciliation for one group: the surviving root
    /// readopted `readopted` stranded members under generation `epoch`
    /// (the epoch-guarded merge that resolves any dual-root race).
    Reconcile = "reconcile" { group: u32, readopted: u32, epoch: u64 },
}

/// Append `s` to `out` as a JSON string literal (surrounding quotes
/// included), escaping `"`, `\` and every control character so the
/// result is always one parseable JSON token — a label like `node "a"`
/// or an embedded newline can never split or corrupt a JSONL line.
///
/// Every string the fixed-key-order codec emits goes through this
/// helper. `&str` input is valid UTF-8 by construction; byte-oriented
/// callers sanitise first with [`sanitize_label`].
pub fn encode_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Sanitise possibly-invalid UTF-8 into a string the codec can carry:
/// invalid sequences are replaced with U+FFFD rather than rejected, so
/// hostile input degrades to a visible marker instead of unparseable
/// output.
pub fn sanitize_label(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

/// One structured trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulation time the event fired.
    pub time: u64,
    /// The router it fired at (0 and not meaningful for gauges).
    pub node: u32,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Append the event's JSONL line (no trailing newline) to `out`.
    /// Keys are emitted in a fixed order so traces are diffable.
    pub fn encode(&self, out: &mut String) {
        let _ = write!(out, "{{\"t\":{},\"node\":{}", self.time, self.node);
        self.kind.encode(out);
        out.push('}');
    }

    /// The event's JSONL line as an owned string.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.encode(&mut s);
        s
    }

    /// Parse one JSONL line.
    pub fn decode(line: &str) -> Result<Event, String> {
        let obj: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let name = obj
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("event has no \"kind\" string")?;
        Ok(Event {
            time: field(&obj, "t", name)?,
            node: field(&obj, "node", name)?,
            kind: EventKind::decode(name, &obj)?,
        })
    }
}

/// Encode a slice of events as a complete JSONL document (one line per
/// event, trailing newline).
pub fn encode_events(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        ev.encode(&mut out);
        out.push('\n');
    }
    out
}

/// Parse a JSONL document (blank lines ignored) back into events.
pub fn decode_events(jsonl: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev = Event::decode(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of the table, several values each, at distinct times.
    fn all_kinds() -> Vec<Event> {
        EventKind::samples()
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                time: i as u64,
                node: 4,
                kind,
            })
            .collect()
    }

    #[test]
    fn every_kind_roundtrips() {
        for ev in all_kinds() {
            let line = ev.to_jsonl();
            let back = Event::decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "roundtrip of {line}");
            let written: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(written["kind"], *ev.kind.name(), "name() is the wire kind");
        }
    }

    #[test]
    fn wire_names_and_labels_are_distinct() {
        fn distinct(mut names: Vec<&str>) {
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "{names:?}");
        }
        let mut kinds: Vec<&str> = EventKind::samples().iter().map(EventKind::name).collect();
        kinds.dedup(); // a kind's samples are adjacent
        assert!(kinds.len() >= 26);
        distinct(kinds);
        distinct(TrafficClass::ALL.iter().map(|l| l.label()).collect());
        distinct(DropReason::ALL.iter().map(|l| l.label()).collect());
        distinct(CtlKind::ALL.iter().map(|l| l.label()).collect());
        distinct(HealthTrigger::ALL.iter().map(|l| l.label()).collect());
    }

    #[test]
    fn journey_keys_follow_the_packet() {
        let send = EventKind::Send { group: 1, tag: 9 };
        assert_eq!(send.journey_key(), Some((1, 9)));
        let mut drop = EventKind::Drop {
            reason: DropReason::QueueFull,
            to: None,
            group: Some(1),
            tag: Some(9),
        };
        assert_eq!(drop.journey_key(), Some((1, 9)));
        if let EventKind::Drop { tag, .. } = &mut drop {
            *tag = None;
        }
        assert_eq!(drop.journey_key(), None, "an unkeyed drop joins no journey");
        assert_eq!(EventKind::Join { group: 1 }.journey_key(), None);
        assert_eq!(EventKind::Takeover.journey_key(), None);
    }

    #[test]
    fn document_roundtrip_and_blank_lines() {
        let events = all_kinds();
        let mut doc = encode_events(&events);
        doc.push('\n'); // extra blank line must be ignored
        assert_eq!(decode_events(&doc).unwrap(), events);
    }

    #[test]
    fn encoding_is_stable() {
        let ev = Event {
            time: 10_000,
            node: 1,
            kind: EventKind::Send { group: 1, tag: 1 },
        };
        assert_eq!(
            ev.to_jsonl(),
            r#"{"t":10000,"node":1,"kind":"send","group":1,"tag":1}"#
        );
    }

    #[test]
    fn hostile_strings_round_trip_through_the_codec() {
        // The codec must never emit an unparseable line, whatever the
        // string content: quotes, backslashes, control characters,
        // newlines (which would split a JSONL record), and non-ASCII.
        let hostile = [
            "node \"a\"",
            "back\\slash",
            "line\nbreak\r\n",
            "tab\there",
            "nul\u{0}byte",
            "\u{1}\u{2}\u{1f}",
            "quote-end\"",
            "ünïcödé 漢字 🚀",
            "",
            "already\\\"escaped\\\"",
        ];
        for s in hostile {
            let mut line = String::from("{\"label\":");
            encode_json_string(s, &mut line);
            line.push('}');
            assert!(
                !line[1..line.len() - 1].contains('\n'),
                "escaped form must stay on one line: {line:?}"
            );
            let v: serde_json::Value =
                serde_json::from_str(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            let obj = v.as_object().expect("object");
            let (key, val) = &obj[0];
            assert_eq!(key, "label");
            match val {
                serde_json::Value::Str(back) => assert_eq!(back, s, "round trip of {s:?}"),
                other => panic!("expected string, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_utf8_is_sanitised_not_propagated() {
        let bad = [0x66, 0x6f, 0x6f, 0xff, 0xfe, 0x62, 0x61, 0x72];
        let label = sanitize_label(&bad);
        assert_eq!(label, "foo\u{fffd}\u{fffd}bar");
        let mut out = String::new();
        encode_json_string(&label, &mut out);
        assert!(serde_json::from_str::<serde_json::Value>(&out).is_ok());
    }

    #[test]
    fn errors_name_the_problem() {
        assert!(Event::decode("{").is_err());
        let missing = r#"{"t":1,"node":2,"kind":"send","group":1}"#;
        assert!(Event::decode(missing).unwrap_err().contains("tag"));
        let unknown = r#"{"t":1,"node":2,"kind":"warp"}"#;
        assert!(Event::decode(unknown).unwrap_err().contains("warp"));
        let doc = format!("{missing}\n");
        assert!(decode_events(&doc).unwrap_err().starts_with("line 1"));
        // A label that is present but unrecognised is named as such, not
        // reported as a missing field — one case per label enum.
        for (line, field) in [
            (
                r#"{"t":1,"node":2,"kind":"deliver","from":1,"class":"control","group":1,"tag":5,"ctl":"bogus"}"#,
                "ctl",
            ),
            (
                r#"{"t":1,"node":2,"kind":"deliver","from":1,"class":"bogus","group":1,"tag":5}"#,
                "class",
            ),
            (
                r#"{"t":1,"node":2,"kind":"drop","reason":"bogus"}"#,
                "reason",
            ),
            (
                r#"{"t":1,"node":2,"kind":"tree_health","group":1,"trigger":"bogus","members":3,"depth":2,"cost":14,"stretch_milli":1250,"delay_var":6}"#,
                "trigger",
            ),
        ] {
            let err = Event::decode(line).unwrap_err();
            assert!(
                err.ends_with(&format!("field {field:?}: unknown label \"bogus\"")),
                "{err}"
            );
        }
        let mistyped = r#"{"t":1,"node":2,"kind":"send","group":"one","tag":1}"#;
        let err = Event::decode(mistyped).unwrap_err();
        assert!(
            err.contains("\"group\": expected unsigned integer"),
            "{err}"
        );
    }
}
