//! Timing wrappers the traced run puts around the objects it hands to the
//! simulator: every protocol automaton and every hook. They forward each
//! call unchanged and add its duration to a shared tally, so the traced
//! run measures layers without instrumenting the program itself.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use manet_sim::{Context, DiningState, Event, Hook, NodeId, Protocol, Sink, View};

/// Calls and busy nanoseconds of one layer.
#[derive(Debug, Default)]
pub struct Tally {
    calls: Cell<u64>,
    ns: Cell<u64>,
    /// Link-change notifications seen (counted by hook wrappers only).
    link_changes: Cell<u64>,
}

impl Tally {
    fn add(&self, since: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Busy time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }

    /// Link-up plus link-down notifications seen.
    pub fn link_changes(&self) -> u64 {
        self.link_changes.get()
    }
}

/// A protocol automaton whose `on_event` is timed into a shared tally.
pub struct TimedProtocol<P> {
    inner: P,
    tally: Rc<Tally>,
}

impl<P> TimedProtocol<P> {
    /// Wrap `inner`, charging its steps to `tally`.
    pub fn new(inner: P, tally: Rc<Tally>) -> TimedProtocol<P> {
        TimedProtocol { inner, tally }
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    type Msg = P::Msg;

    fn on_event(&mut self, ev: Event<P::Msg>, ctx: &mut Context<'_, P::Msg>) {
        let t = Instant::now();
        self.inner.on_event(ev, ctx);
        self.tally.add(t);
    }

    fn dining_state(&self) -> DiningState {
        self.inner.dining_state()
    }

    fn msg_kind(msg: &P::Msg) -> &'static str {
        P::msg_kind(msg)
    }

    fn state_digest(&self) -> Option<u64> {
        self.inner.state_digest()
    }

    fn progress_digest(&self) -> Option<u64> {
        self.inner.progress_digest()
    }
}

/// A hook whose every callback is timed into a shared tally.
pub struct TimedHook<H> {
    inner: H,
    tally: Rc<Tally>,
}

impl<H> TimedHook<H> {
    /// Wrap `inner`, charging its callbacks to `tally`.
    pub fn new(inner: H, tally: Rc<Tally>) -> TimedHook<H> {
        TimedHook { inner, tally }
    }
}

impl<M, H: Hook<M>> Hook<M> for TimedHook<H> {
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        old: DiningState,
        new: DiningState,
        sink: &mut Sink,
    ) {
        let t = Instant::now();
        self.inner.on_state_change(view, node, old, new, sink);
        self.tally.add(t);
    }

    fn on_quantum_end(&mut self, view: &View<'_>, sink: &mut Sink) {
        let t = Instant::now();
        self.inner.on_quantum_end(view, sink);
        self.tally.add(t);
    }

    fn on_link_up(&mut self, view: &View<'_>, a: NodeId, b: NodeId, sink: &mut Sink) {
        let t = Instant::now();
        self.inner.on_link_up(view, a, b, sink);
        self.tally.add(t);
        self.tally
            .link_changes
            .set(self.tally.link_changes.get() + 1);
    }

    fn on_link_down(&mut self, view: &View<'_>, a: NodeId, b: NodeId, sink: &mut Sink) {
        let t = Instant::now();
        self.inner.on_link_down(view, a, b, sink);
        self.tally.add(t);
        self.tally
            .link_changes
            .set(self.tally.link_changes.get() + 1);
    }

    fn on_crash(&mut self, view: &View<'_>, node: NodeId, sink: &mut Sink) {
        let t = Instant::now();
        self.inner.on_crash(view, node, sink);
        self.tally.add(t);
    }

    fn on_recover(&mut self, view: &View<'_>, node: NodeId, sink: &mut Sink) {
        let t = Instant::now();
        self.inner.on_recover(view, node, sink);
        self.tally.add(t);
    }

    fn on_move(&mut self, view: &View<'_>, node: NodeId, started: bool, sink: &mut Sink) {
        let t = Instant::now();
        self.inner.on_move(view, node, started, sink);
        self.tally.add(t);
    }

    fn on_deliver(&mut self, view: &View<'_>, from: NodeId, to: NodeId, msg: &M, sink: &mut Sink) {
        let t = Instant::now();
        self.inner.on_deliver(view, from, to, msg, sink);
        self.tally.add(t);
    }
}

/// Box `hook`, wrapped in a [`TimedHook`] when a tally is given.
pub fn boxed<M, H: Hook<M> + 'static>(hook: H, tally: Option<&Rc<Tally>>) -> Box<dyn Hook<M>> {
    match tally {
        Some(t) => Box::new(TimedHook::new(hook, t.clone())),
        None => Box::new(hook),
    }
}
