//! `Timed<R>`: a transparent router wrapper that records one span per
//! handler call. The traced pass installs it through the same two calls
//! `build_scmp_engine` makes; the wrapped router sees exactly the calls
//! it would see bare, so the traced `model_digest` must equal the
//! untraced one.

use crate::spans::{self, Name};
use scmp_net::NodeId;
use scmp_sim::{AppEvent, Ctx, Packet, Router};
use std::time::Instant;

/// A router whose `on_packet`/`on_timer`/`on_app` calls are timed.
pub struct Timed<R>(pub R);

impl<R: Router> Router for Timed<R> {
    type Msg = R::Msg;

    fn classify(msg: &Self::Msg) -> Option<scmp_telemetry::CtlKind> {
        R::classify(msg)
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.0.on_start(ctx);
    }

    fn on_packet(&mut self, from: NodeId, pkt: Packet<Self::Msg>, ctx: &mut Ctx<'_, Self::Msg>) {
        let name = Name::packet(R::classify(&pkt.body));
        let start = Instant::now();
        self.0.on_packet(from, pkt, ctx);
        spans::leaf(name, start, Instant::now());
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        let start = Instant::now();
        self.0.on_timer(token, ctx);
        spans::leaf(Name::OnTimer, start, Instant::now());
    }

    fn on_app(&mut self, ev: AppEvent, ctx: &mut Ctx<'_, Self::Msg>) {
        let name = match ev {
            AppEvent::Join(_) => Name::OnAppJoin,
            AppEvent::Leave(_) => Name::OnAppLeave,
            AppEvent::Send { .. } => Name::OnAppSend,
        };
        let start = Instant::now();
        self.0.on_app(ev, ctx);
        spans::leaf(name, start, Instant::now());
    }
}
