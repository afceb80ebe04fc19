//! In-memory span recorder for the traced pass.
//!
//! Spans nest workload → iteration → engine build | `run_until` slice →
//! handler. They are recorded from the benchmark's own files, around
//! the calls into each layer — nothing in the program is edited — kept
//! in memory, and written out once when the run ends. A layer's self
//! time is its span minus the part its children cover.
//!
//! The recorder runs for the whole traced pass, so the file shows the
//! set-up, every iteration of every kind and the closing probes, but
//! only the last round keeps what is below its iterations
//! ([`drop_detail`]): a data-plane workload records 750 000 handler
//! spans per traced iteration.

use scmp_telemetry::CtlKind;
use std::cell::RefCell;
use std::io::{self, Write};
use std::time::Instant;

/// Declares [`Name`] with its labels and the list of every variant,
/// so the three cannot drift apart.
macro_rules! names {
    ($($variant:ident => $label:literal,)*) => {
        /// What a span measures.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub enum Name {
            $($variant,)*
        }

        impl Name {
            /// Every name, in declaration order.
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];

            /// Stable label used in the trace file.
            pub fn label(self) -> &'static str {
                match self {
                    $(Name::$variant => $label,)*
                }
            }
        }
    };
}

names! {
    Workload => "workload",
    SetUp => "set_up",
    // One per iteration, named after how its engines were instrumented.
    IterPlain => "iteration.plain",
    IterTraced => "iteration.traced",
    IterRing => "iteration.ring_sink",
    IterJsonl => "iteration.jsonl_sink",
    // The engine-free tree/net probes that end the traced pass.
    Probes => "probes",
    EngineBuild => "engine_build",
    SliceJoin => "slice.join",
    SliceLeave => "slice.leave",
    SliceSendOnTree => "slice.send_on_tree",
    SliceSendEncap => "slice.send_encap",
    SliceFault => "slice.fault",
    SliceIdle => "slice.idle",
    Check => "check",
    EngineDrop => "engine_drop",
    // Router handlers from here on; `on_packet` by control verb last.
    OnTimer => "on_timer",
    OnAppJoin => "on_app.join",
    OnAppLeave => "on_app.leave",
    OnAppSend => "on_app.send",
    PktJoin => "on_packet.join",
    PktLeave => "on_packet.leave",
    PktPrune => "on_packet.prune",
    PktTree => "on_packet.tree",
    PktBranch => "on_packet.branch",
    PktFlush => "on_packet.flush",
    PktData => "on_packet.data",
    PktEncapData => "on_packet.encap",
    PktHeartbeat => "on_packet.heartbeat",
    PktStandbySync => "on_packet.sync",
    PktNewMRouter => "on_packet.new_mrouter",
    PktLeaveAck => "on_packet.leave_ack",
    PktTreeAck => "on_packet.tree_ack",
    PktNack => "on_packet.nack",
    PktRepair => "on_packet.repair",
    PktSeqAnnounce => "on_packet.announce",
    PktUnclassified => "on_packet.unclassified",
}

impl Name {
    /// The `on_packet` span of a classified message body.
    pub fn packet(kind: Option<CtlKind>) -> Name {
        match kind {
            Some(CtlKind::Join) => Name::PktJoin,
            Some(CtlKind::Leave) => Name::PktLeave,
            Some(CtlKind::Prune) => Name::PktPrune,
            Some(CtlKind::Tree) => Name::PktTree,
            Some(CtlKind::Branch) => Name::PktBranch,
            Some(CtlKind::Flush) => Name::PktFlush,
            Some(CtlKind::Data) => Name::PktData,
            Some(CtlKind::EncapData) => Name::PktEncapData,
            Some(CtlKind::Heartbeat) => Name::PktHeartbeat,
            Some(CtlKind::StandbySync) => Name::PktStandbySync,
            Some(CtlKind::NewMRouter) => Name::PktNewMRouter,
            Some(CtlKind::LeaveAck) => Name::PktLeaveAck,
            Some(CtlKind::TreeAck) => Name::PktTreeAck,
            Some(CtlKind::Nack) => Name::PktNack,
            Some(CtlKind::Repair) => Name::PktRepair,
            Some(CtlKind::SeqAnnounce) => Name::PktSeqAnnounce,
            None => Name::PktUnclassified,
        }
    }

    /// True for the router-handler spans (`on_packet.*`, `on_timer`,
    /// `on_app.*`).
    pub fn is_handler(self) -> bool {
        self >= Name::OnTimer
    }

    /// True for the `on_packet.*` spans.
    pub fn is_packet(self) -> bool {
        self >= Name::PktJoin
    }

    /// True for the `run_until` slice spans.
    pub fn is_slice(self) -> bool {
        (Name::SliceJoin..=Name::SliceIdle).contains(&self)
    }

    /// True for the per-iteration spans.
    pub fn is_iteration(self) -> bool {
        (Name::IterPlain..=Name::IterJsonl).contains(&self)
    }
}

/// "No parent": the root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Iteration the span belongs to (shared by every span of it).
    pub iter: u32,
    /// Index of the enclosing span, [`NO_PARENT`] at the root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, outermost first.
    open: Vec<u32>,
    iter: u32,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        })
    });
}

/// Stop recording and hand back every span, in opening order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|rec| {
            assert!(rec.open.is_empty(), "span left open at finish");
            rec.spans
        })
        .unwrap_or_default()
}

/// Look at what has been recorded so far without stopping.
pub fn inspect<T>(f: impl FnOnce(&[Span]) -> T) -> T {
    REC.with(|r| f(r.borrow().as_ref().map_or(&[][..], |rec| &rec.spans)))
}

/// Stamp every span opened from now on with iteration `iter`.
pub fn set_iteration(iter: u32) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.iter = iter;
        }
    });
}

/// Forget everything recorded so far below the iteration level: the
/// engine builds, slices, handlers, checks and drops of finished
/// iterations. What stays — the root, the set-up, the iterations, the
/// probes — only ever has parents that stay too. Called at the start
/// of each round, which leaves full detail for exactly the last one.
pub fn drop_detail() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else { return };
        let keep = |s: &Span| s.name <= Name::Probes;
        let mut kept = 0u32;
        let moved: Vec<u32> = rec
            .spans
            .iter()
            .map(|s| {
                let at = kept;
                kept += keep(s) as u32;
                at
            })
            .collect();
        debug_assert!(rec.open.iter().all(|&i| keep(&rec.spans[i as usize])));
        rec.spans.retain(keep);
        let remap = |i: &mut u32| {
            if *i != NO_PARENT {
                *i = moved[*i as usize];
            }
        };
        rec.spans.iter_mut().for_each(|s| remap(&mut s.parent));
        rec.open.iter_mut().for_each(remap);
    });
}

/// An open span; closes when dropped. A no-op when nothing records.
pub struct Scope(Option<u32>);

/// Open a span under the innermost open one.
pub fn scope(name: Name) -> Scope {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return Scope(None);
        };
        let id = rec.spans.len() as u32;
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            iter: rec.iter,
            parent: rec.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: now,
            end_ns: now,
        });
        rec.open.push(id);
        Scope(Some(id))
    })
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let top = rec.open.pop();
                debug_assert_eq!(top, Some(id), "spans close innermost first");
                rec.spans[id as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
            }
        });
    }
}

/// Record a finished childless span under the innermost open one — the
/// handler fast path: two clock reads and one push.
#[inline]
pub fn leaf(name: Name, start: Instant, end: Instant) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans.push(Span {
                name,
                iter: rec.iter,
                parent: rec.open.last().copied().unwrap_or(NO_PARENT),
                start_ns: start.duration_since(rec.epoch).as_nanos() as u64,
                end_ns: end.duration_since(rec.epoch).as_nanos() as u64,
            });
        }
    });
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Write spans as JSON lines: `{"id","name","iter","parent","start_ns",
/// "end_ns"}`; the root's parent is `null`. `id`s are positions in the
/// file, so `parent` can be followed without an index.
pub fn write_jsonl(spans: &[Span], w: &mut impl Write) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        write!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"iter\":{},\"parent\":",
            s.name.label(),
            s.iter
        )?;
        if s.parent == NO_PARENT {
            w.write_all(b"null")?;
        } else {
            write!(w, "{}", s.parent)?;
        }
        writeln!(w, ",\"start_ns\":{},\"end_ns\":{}}}", s.start_ns, s.end_ns)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            iter: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(Name::IterTraced, NO_PARENT, 0, 1000),
            span(Name::EngineBuild, 0, 0, 300),
            span(Name::SliceJoin, 0, 300, 900),
            span(Name::PktJoin, 2, 400, 650),
            span(Name::OnTimer, 2, 700, 750),
        ];
        assert_eq!(self_times(&spans), vec![100, 300, 300, 250, 50]);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn scopes_nest_and_leaves_attach_to_the_innermost() {
        start();
        set_iteration(7);
        {
            let _outer = scope(Name::IterTraced);
            {
                let _slice = scope(Name::SliceSendEncap);
                let t = Instant::now();
                leaf(Name::PktEncapData, t, Instant::now());
            }
            let _build = scope(Name::EngineBuild);
        }
        let spans = finish();
        let shape: Vec<(Name, u32)> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                (Name::IterTraced, NO_PARENT),
                (Name::SliceSendEncap, 0),
                (Name::PktEncapData, 1),
                (Name::EngineBuild, 0),
            ]
        );
        assert!(spans.iter().all(|s| s.iter == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);

        // Nothing records once finished.
        drop(scope(Name::Check));
        assert!(finish().is_empty());
    }

    #[test]
    fn names_are_labelled_and_classified() {
        assert_eq!(Name::ALL.len(), 37);
        assert!(Name::ALL.iter().enumerate().all(|(i, &n)| n as usize == i));
        assert_eq!(
            Name::packet(Some(CtlKind::EncapData)).label(),
            "on_packet.encap"
        );
        assert_eq!(Name::packet(None).label(), "on_packet.unclassified");
        assert!(Name::OnAppSend.is_handler() && !Name::OnAppSend.is_packet());
        assert!(Name::PktNack.is_handler() && Name::PktNack.is_packet());
        assert!(Name::SliceFault.is_slice() && !Name::Check.is_slice());
        assert!(!Name::EngineDrop.is_handler());
        assert!(Name::IterRing.is_iteration() && !Name::SetUp.is_iteration());
    }

    #[test]
    fn dropping_detail_keeps_the_upper_tree_intact() {
        start();
        let t = Instant::now();
        {
            let _root = scope(Name::Workload);
            {
                let _set_up = scope(Name::SetUp);
                let _it = scope(Name::IterPlain);
                let _build = scope(Name::EngineBuild);
            }
            {
                let _it = scope(Name::IterTraced);
                let _slice = scope(Name::SliceJoin);
                leaf(Name::PktJoin, t, t);
            }
            drop_detail();
            let _it = scope(Name::IterTraced);
            let _slice = scope(Name::SliceLeave);
            leaf(Name::PktLeave, t, t);
        }
        let shape: Vec<(Name, u32)> = finish().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                (Name::Workload, NO_PARENT),
                (Name::SetUp, 0),
                (Name::IterPlain, 1),
                (Name::IterTraced, 0),
                (Name::IterTraced, 0),
                (Name::SliceLeave, 4),
                (Name::PktLeave, 5),
            ]
        );
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let spans = [
            span(Name::Workload, NO_PARENT, 0, 10),
            span(Name::IterTraced, 0, 1, 9),
        ];
        let mut out = Vec::new();
        write_jsonl(&spans, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"id\":0,\"name\":\"workload\",\"iter\":0,\"parent\":null,\"start_ns\":0,\"end_ns\":10}\n\
             {\"id\":1,\"name\":\"iteration.traced\",\"iter\":0,\"parent\":0,\"start_ns\":1,\"end_ns\":9}\n"
        );
    }
}
