//! The node host: one protocol automaton plus its workload, its trace
//! records and, with `LiveConfig::reliable`, the go-back-N ARQ of
//! [`manet_sim::shim`] on every link.
//!
//! The host is sans-IO. Every call takes the current wall time as
//! `now_ns`, and everything the call emits lands in a [`WireOut`]: stamped
//! records, addressed envelopes, and a structured abort. The shard worker
//! that owns the host routes the envelopes, arms the host's
//! [`NodeHost::earliest_deadline_ns`] on its timing wheel, and feeds the
//! host the envelopes addressed to it. A unit test can drive two hosts by
//! hand with the same calls, dropping or reordering envelopes at will.
//!
//! The ARQ is the simulator's state machine, not a copy of it: the host
//! keeps one [`SendSlot`]/[`RecvSlot`] pair per peer, in a sparse map,
//! and turns the [`Arm`]s those slots return into wall deadlines. Its
//! timing is [`ArqConfig::default`] resolved against ν, in ticks, and its
//! backoff jitter comes from a stream of its own, so the workload draws
//! are the same with and without `--reliable`. Link incarnations are
//! explicit: the driver numbers every link-up, both ends stamp their
//! envelopes with that epoch, and traffic of a dead incarnation (data or
//! ack) is dropped on arrival, exactly like the engine's stale epochs.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use manet_sim::shim::{shim_seed, Arm, ArqTiming, RecvSlot, SendSlot, Timeout};
use manet_sim::{
    ArqConfig, Context, DiningState, Event, LinkUpKind, NodeId, Protocol, SimConfig, SimRng,
    SimTime,
};

use crate::codec::{decode_frame, encode_frame, WireMsg};
use crate::runtime::LiveConfig;
use crate::shard::{HybridClock, PublishedClock, ShardAbort, ShardShared, StampedRecord};
use crate::trace::LiveEventKind;
use crate::transport::{Envelope, ENV_ACK, ENV_DATA};

/// Driver → node control events, applied by the owning worker.
pub(crate) enum Ctrl {
    /// A link came up; `epoch` numbers its incarnation on both ends.
    LinkUp {
        peer: NodeId,
        kind: LinkUpKind,
        epoch: u32,
    },
    LinkDown {
        peer: NodeId,
    },
    MoveStarted,
    MoveEnded,
    Crash,
    Recover,
}

/// The output side of every host call: the shard clock (and where it is
/// published), the stamped record stream, the routing buffer for outbound
/// envelopes, and the first structured abort. Owned by the worker (not
/// the host) so one borrow serves every host in the shard.
pub(crate) struct WireOut {
    pub(crate) clock: HybridClock,
    published: Arc<PublishedClock>,
    pub(crate) records: Vec<StampedRecord>,
    /// `(to, envelope)` pairs the worker routes after the call.
    pub(crate) sends: Vec<(NodeId, Vec<u8>)>,
    pub(crate) abort: Option<ShardAbort>,
}

impl WireOut {
    pub(crate) fn new(published: Arc<PublishedClock>) -> WireOut {
        WireOut {
            clock: HybridClock::new(),
            published,
            records: Vec::new(),
            sends: Vec::new(),
            abort: None,
        }
    }

    fn record(&mut self, now_ns: u64, tick_ns: u64, kind: LiveEventKind) {
        let clock = self.clock.stamp(now_ns / tick_ns);
        self.published.publish(clock);
        self.records.push(StampedRecord {
            clock,
            at_ns: now_ns,
            kind,
        });
    }
}

/// The per-run knobs every host shares.
pub(crate) struct HostConfig {
    seed: u64,
    tick_ns: u64,
    mean_think_ns: u64,
    eat_ns: u64,
    one_shot: bool,
    closed_loop: bool,
    reliable: bool,
}

impl HostConfig {
    pub(crate) fn of(cfg: &LiveConfig) -> HostConfig {
        HostConfig {
            seed: cfg.seed,
            tick_ns: cfg.tick_ns,
            mean_think_ns: ((1e9 / cfg.rate) as u64).max(1),
            eat_ns: cfg.eat_ms.saturating_mul(1_000_000),
            one_shot: cfg.one_shot,
            closed_loop: cfg.closed_loop,
            reliable: cfg.reliable,
        }
    }
}

/// The ARQ of one host: resolved timing, the jitter stream, and one slot
/// pair per peer with traffic on the current incarnation.
struct Arq {
    timing: ArqTiming,
    rng: SimRng,
    links: BTreeMap<u32, ArqLink>,
}

#[derive(Default)]
struct ArqLink {
    send: SendSlot<Vec<u8>>,
    recv: RecvSlot,
    /// Armed retransmission timer: `(generation, wall deadline)`.
    rto: Option<(u64, u64)>,
    /// Armed idle-ack timer: `(generation, wall deadline)`.
    ack_idle: Option<(u64, u64)>,
}

/// One hosted protocol automaton plus its workload state.
pub(crate) struct NodeHost<P: Protocol> {
    me: NodeId,
    tick_ns: u64,
    eat_ns: u64,
    one_shot: bool,
    closed_loop: bool,
    mean_think_ns: u64,
    rng: SimRng,
    proto: P,
    /// Sorted, as `Context` hands them to the protocol.
    neighbors: Vec<NodeId>,
    /// Incarnation of the link to `neighbors[i]`.
    epochs: Vec<u32>,
    moving: bool,
    crashed: bool,
    dining: DiningState,
    session: u64,
    ate_once: bool,
    /// Per-peer envelope sequence numbers without the ARQ; a map, not a
    /// dense vector, so 10k-node shards do not pay O(n) memory per node.
    send_seq: HashMap<u32, u64>,
    /// `(deadline_ns, token)` pairs from `Context::set_timer`.
    timers: Vec<(u64, u64)>,
    next_hungry: Option<u64>,
    exit_at: Option<u64>,
    outbox: Vec<(NodeId, P::Msg)>,
    timer_buf: Vec<(u64, u64)>,
    arq: Option<Arq>,
    /// Fresh incarnation swapped in on a driver `Recover`.
    spare: Option<P>,
    n_decode_errors: u64,
    n_retransmissions: u64,
    n_acks_sent: u64,
}

/// The wall deadline of a timer armed at `now_ns`.
fn deadline(now_ns: u64, arm: Arm, tick_ns: u64) -> Option<(u64, u64)> {
    Some((arm.gen, now_ns + arm.delay.saturating_mul(tick_ns)))
}

impl<P> NodeHost<P>
where
    P: Protocol,
    P::Msg: WireMsg,
{
    pub(crate) fn new(
        me: NodeId,
        proto: P,
        spare: Option<P>,
        neighbors: Vec<NodeId>,
        cfg: &HostConfig,
        now_ns: u64,
    ) -> NodeHost<P> {
        let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x11FE_0000 ^ ((me.0 as u64) << 32));
        // Stagger the first hunger so the run opens with contention, not
        // a thundering herd at t = 0.
        let first = now_ns + rng.gen_range(0..=cfg.mean_think_ns / 2);
        let arq = cfg.reliable.then(|| Arq {
            timing: ArqTiming::resolve(
                &ArqConfig::default(),
                SimConfig::default().max_message_delay,
            ),
            rng: SimRng::seed_from_u64(shim_seed(cfg.seed) ^ ((me.0 as u64) << 32)),
            links: BTreeMap::new(),
        });
        NodeHost {
            me,
            tick_ns: cfg.tick_ns,
            eat_ns: cfg.eat_ns,
            one_shot: cfg.one_shot,
            closed_loop: cfg.closed_loop,
            mean_think_ns: cfg.mean_think_ns,
            rng,
            dining: proto.dining_state(),
            proto,
            epochs: vec![0; neighbors.len()],
            neighbors,
            moving: false,
            crashed: false,
            session: 0,
            ate_once: false,
            send_seq: HashMap::new(),
            timers: Vec::new(),
            next_hungry: Some(first),
            exit_at: None,
            outbox: Vec::new(),
            timer_buf: Vec::new(),
            arq,
            spare,
            n_decode_errors: 0,
            n_retransmissions: 0,
            n_acks_sent: 0,
        }
    }

    /// Feed one event to the automaton, flush what it emitted, and do
    /// the workload bookkeeping for any dining transition.
    fn apply(&mut self, ev: Event<P::Msg>, now_ns: u64, wire: &mut WireOut, shared: &ShardShared) {
        {
            let mut ctx = Context::for_host(
                self.me,
                SimTime(now_ns / self.tick_ns),
                &self.neighbors,
                self.moving,
                &mut self.outbox,
                &mut self.timer_buf,
            );
            self.proto.on_event(ev, &mut ctx);
        }
        for (delay_ticks, token) in std::mem::take(&mut self.timer_buf) {
            self.timers
                .push((now_ns + delay_ticks.saturating_mul(self.tick_ns), token));
        }
        // Record any dining transition BEFORE queuing the messages that
        // announce it: the batch that carries these sends is sealed with
        // a clock stamp at least as large as the transition's, so the
        // receiver's delivery (and any entry it enables) merges strictly
        // after this record — exit < send < deliver < entry.
        let new = self.proto.dining_state();
        let old = self.dining;
        if new != old {
            self.dining = new;
            if new == DiningState::Eating {
                self.session += 1;
                self.exit_at = Some(now_ns + self.eat_ns);
                if !self.ate_once {
                    self.ate_once = true;
                    shared.ate.fetch_add(1, Ordering::Relaxed);
                }
            }
            if old == DiningState::Eating {
                // Covers both a normal exit and a mobility demotion back
                // to hungry: either way the meal is over.
                self.exit_at = None;
                if new == DiningState::Thinking && !self.one_shot {
                    let think = if self.closed_loop {
                        0
                    } else {
                        self.draw_think()
                    };
                    self.next_hungry = Some(now_ns + think);
                }
            }
            wire.record(
                now_ns,
                self.tick_ns,
                LiveEventKind::State {
                    node: self.me,
                    old,
                    new,
                    session: self.session,
                },
            );
        }
        for (to, msg) in std::mem::take(&mut self.outbox) {
            self.transmit(to, msg, now_ns, wire, shared);
        }
    }

    fn draw_think(&mut self) -> u64 {
        // Uniform in [0.5, 1.5] of the mean, like the sim workload's
        // jittered think times.
        let lo = (self.mean_think_ns / 2).max(1);
        let hi = lo + self.mean_think_ns;
        self.rng.gen_range(lo..=hi)
    }

    fn transmit(
        &mut self,
        to: NodeId,
        msg: P::Msg,
        now_ns: u64,
        wire: &mut WireOut,
        shared: &ShardShared,
    ) {
        if self.crashed || to == self.me {
            return;
        }
        let Ok(i) = self.neighbors.binary_search(&to) else {
            return;
        };
        // A severed link drops the frame on the wire, like the engine's
        // fault adversary; the ARQ still buffers it for retransmission.
        let severed = shared.severed(self.me, to);
        let frame = encode_frame(&msg);
        let (seq, ack) = match &mut self.arq {
            None if severed => return,
            None => {
                let seq = self.send_seq.entry(to.0).or_insert(0);
                *seq += 1;
                (*seq, 0)
            }
            Some(arq) => {
                let link = arq.links.entry(to.0).or_default();
                match link.send.enqueue(frame.clone(), &arq.timing, &mut arq.rng) {
                    Ok((seq, arm)) => {
                        if let Some(arm) = arm {
                            link.rto = deadline(now_ns, arm, self.tick_ns);
                        }
                        (seq, link.recv.take_ack())
                    }
                    Err(window) => {
                        wire.abort.get_or_insert(ShardAbort::ShimBufferOverflow {
                            from: self.me,
                            to,
                            window,
                        });
                        return;
                    }
                }
            }
        };
        if severed {
            return;
        }
        let env = Envelope {
            from: self.me,
            kind: ENV_DATA,
            epoch: self.epochs[i],
            seq,
            ack,
            sent_ns: now_ns,
            frame: &frame,
        };
        wire.sends.push((to, env.encode()));
        shared.sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Apply a driver control event.
    pub(crate) fn handle_ctrl(
        &mut self,
        ctrl: Ctrl,
        now_ns: u64,
        wire: &mut WireOut,
        shared: &ShardShared,
    ) {
        match ctrl {
            Ctrl::Crash => {
                // From here on the node is inert; the crash record is ours
                // so it is serialized against our own state records.
                self.crashed = true;
                wire.record(now_ns, self.tick_ns, LiveEventKind::Crash { node: self.me });
            }
            Ctrl::Recover => {
                // Restart as a fresh incarnation: new protocol instance,
                // empty neighborhood (the driver's rejoin link-ups
                // follow), all link and workload state of the dead
                // incarnation discarded. The eating-session counter is
                // NOT reset — it is monotonic across incarnations, which
                // the trace validator depends on.
                if self.crashed {
                    if let Some(fresh) = self.spare.take() {
                        self.crashed = false;
                        self.proto = fresh;
                        self.neighbors.clear();
                        self.epochs.clear();
                        self.timers.clear();
                        self.outbox.clear();
                        self.send_seq.clear();
                        if let Some(arq) = &mut self.arq {
                            arq.links.clear();
                        }
                        self.moving = false;
                        self.exit_at = None;
                        self.dining = self.proto.dining_state();
                        wire.record(
                            now_ns,
                            self.tick_ns,
                            LiveEventKind::Recover { node: self.me },
                        );
                        let think = self.draw_think();
                        self.next_hungry = Some(now_ns + think);
                    }
                }
            }
            _ if self.crashed => {}
            Ctrl::LinkUp { peer, kind, epoch } => {
                match self.neighbors.binary_search(&peer) {
                    Ok(i) => self.epochs[i] = epoch,
                    Err(i) => {
                        self.neighbors.insert(i, peer);
                        self.epochs.insert(i, epoch);
                    }
                }
                self.reset_arq(peer);
                self.apply(Event::LinkUp { peer, kind }, now_ns, wire, shared);
            }
            Ctrl::LinkDown { peer } => {
                if let Ok(i) = self.neighbors.binary_search(&peer) {
                    self.neighbors.remove(i);
                    self.epochs.remove(i);
                }
                self.reset_arq(peer);
                self.apply(Event::LinkDown { peer }, now_ns, wire, shared);
            }
            Ctrl::MoveStarted => {
                self.moving = true;
                self.apply(Event::MovementStarted, now_ns, wire, shared);
            }
            Ctrl::MoveEnded => {
                self.moving = false;
                self.apply(Event::MovementEnded, now_ns, wire, shared);
            }
        }
    }

    /// A new link incarnation owes nothing to the old one.
    fn reset_arq(&mut self, peer: NodeId) {
        if let Some(arq) = &mut self.arq {
            arq.links.remove(&peer.0);
        }
    }

    /// Fire every due workload deadline, protocol timer and ARQ timer.
    pub(crate) fn tick(&mut self, now_ns: u64, wire: &mut WireOut, shared: &ShardShared) {
        if self.crashed {
            return;
        }
        if self.dining == DiningState::Thinking && self.next_hungry.is_some_and(|at| at <= now_ns) {
            self.next_hungry = None;
            self.apply(Event::Hungry, now_ns, wire, shared);
        }
        if self.dining == DiningState::Eating && self.exit_at.is_some_and(|at| at <= now_ns) {
            self.exit_at = None;
            self.apply(Event::ExitCs, now_ns, wire, shared);
        }
        while let Some(i) = self.timers.iter().position(|&(at, _)| at <= now_ns) {
            let (_, token) = self.timers.swap_remove(i);
            self.apply(Event::Timer { token }, now_ns, wire, shared);
        }
        let Some(arq) = &mut self.arq else {
            return;
        };
        for (&peer, link) in &mut arq.links {
            let peer = NodeId(peer);
            let Ok(i) = self.neighbors.binary_search(&peer) else {
                continue;
            };
            let severed = shared.severed(self.me, peer);
            let mut env = Envelope {
                from: self.me,
                kind: ENV_DATA,
                epoch: self.epochs[i],
                seq: 0,
                ack: 0,
                sent_ns: now_ns,
                frame: &[],
            };
            if let Some((gen, _)) = link.rto.filter(|&(_, at)| at <= now_ns) {
                link.rto = None;
                if let Timeout::Resend(arm) = link.send.on_timeout(gen, &arq.timing, &mut arq.rng) {
                    link.rto = deadline(now_ns, arm, self.tick_ns);
                    env.ack = link.recv.take_ack();
                    for (seq, frame) in link.send.outstanding() {
                        self.n_retransmissions += 1;
                        shared.retransmissions.fetch_add(1, Ordering::Relaxed);
                        if !severed {
                            env.seq = seq;
                            env.frame = frame;
                            wire.sends.push((peer, env.encode()));
                        }
                    }
                }
            }
            if let Some((gen, _)) = link.ack_idle.filter(|&(_, at)| at <= now_ns) {
                link.ack_idle = None;
                if let Some(ack) = link.recv.on_ack_idle(gen) {
                    self.n_acks_sent += 1;
                    shared.acks_sent.fetch_add(1, Ordering::Relaxed);
                    if !severed {
                        env.kind = ENV_ACK;
                        env.seq = 0;
                        env.ack = ack;
                        env.frame = &[];
                        wire.sends.push((peer, env.encode()));
                    }
                }
            }
        }
    }

    /// The earliest armed deadline in wall nanoseconds, for the wheel.
    pub(crate) fn earliest_deadline_ns(&self) -> Option<u64> {
        if self.crashed {
            return None;
        }
        let arq = self.arq.iter().flat_map(|arq| arq.links.values());
        self.next_hungry
            .iter()
            .chain(self.exit_at.iter())
            .copied()
            .chain(self.timers.iter().map(|&(at, _)| at))
            .chain(arq.flat_map(|l| l.rto.iter().chain(l.ack_idle.iter()).map(|&(_, at)| at)))
            .min()
    }

    fn count_decode_error(&mut self, shared: &ShardShared) {
        self.n_decode_errors += 1;
        shared.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Process one envelope from the data plane.
    pub(crate) fn on_envelope(
        &mut self,
        bytes: &[u8],
        now_ns: u64,
        wire: &mut WireOut,
        shared: &ShardShared,
    ) {
        if self.crashed {
            return;
        }
        let Ok(env) = Envelope::decode(bytes) else {
            self.count_decode_error(shared);
            return;
        };
        let from = env.from;
        // In-flight losses: traffic from a peer that is no longer a
        // neighbor, from a dead incarnation of the link, or across a
        // severed link is dropped before the protocol sees it, like the
        // engine's `dropped_in_flight`.
        match self.neighbors.binary_search(&from) {
            Ok(i) if self.epochs[i] == env.epoch && !shared.severed(from, self.me) => {}
            _ => return,
        }
        if env.kind != ENV_DATA && env.kind != ENV_ACK {
            self.count_decode_error(shared);
            return;
        }
        if let Some(arq) = &mut self.arq {
            let link = arq.links.entry(from.0).or_default();
            if let Some(arm) = link.send.on_ack(env.ack, &arq.timing, &mut arq.rng) {
                link.rto = deadline(now_ns, arm, self.tick_ns);
            }
            if !link.send.rto_armed() {
                link.rto = None;
            }
            if env.kind == ENV_ACK {
                return;
            }
            let (deliver, arm) = link.recv.on_data(env.seq, &arq.timing);
            if let Some(arm) = arm {
                link.ack_idle = deadline(now_ns, arm, self.tick_ns);
            }
            if !deliver {
                return;
            }
        } else if env.kind == ENV_ACK {
            // Without the ARQ nobody sends acks; a stray one is dropped.
            return;
        }
        let Ok(msg) = decode_frame::<P::Msg>(env.frame) else {
            self.count_decode_error(shared);
            return;
        };
        wire.record(
            now_ns,
            self.tick_ns,
            LiveEventKind::Deliver {
                from,
                to: self.me,
                seq: env.seq,
                kind: P::msg_kind(&msg),
                latency_ns: now_ns.saturating_sub(env.sent_ns),
            },
        );
        shared.delivered.fetch_add(1, Ordering::Relaxed);
        self.apply(Event::Message { from, msg }, now_ns, wire, shared);
    }

    /// Emit the shutdown `NetStats` record: this node's share of the
    /// run's decode-error, retransmission and ack totals. Send failures
    /// lose whole batches and are counted by the worker, not per node.
    pub(crate) fn emit_net_stats(&self, now_ns: u64, wire: &mut WireOut) {
        wire.record(
            now_ns,
            self.tick_ns,
            LiveEventKind::NetStats {
                node: self.me,
                decode_errors: self.n_decode_errors,
                send_failures: 0,
                retransmissions: self.n_retransmissions,
                acks_sent: self.n_acks_sent,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::LiveAlg;
    use crate::shard::{run_sharded_with, ShardTuning};
    use crate::transport::TransportKind;
    use local_mutex::A2Msg;

    /// A protocol that broadcasts `burst` numbered frames per `Hungry`
    /// and records what it is delivered; it never eats.
    struct Probe {
        burst: u64,
        sent: u64,
        got: Vec<(NodeId, u64)>,
    }

    impl Protocol for Probe {
        type Msg = A2Msg;

        fn on_event(&mut self, ev: Event<A2Msg>, ctx: &mut Context<'_, A2Msg>) {
            match ev {
                Event::Hungry => {
                    for _ in 0..self.burst {
                        self.sent += 1;
                        ctx.broadcast(A2Msg::Fork {
                            flag: false,
                            gen: self.sent,
                        });
                    }
                }
                Event::Message {
                    from,
                    msg: A2Msg::Fork { gen, .. },
                } => self.got.push((from, gen)),
                _ => {}
            }
        }

        fn dining_state(&self) -> DiningState {
            DiningState::Thinking
        }
    }

    fn probe(burst: u64) -> Probe {
        Probe {
            burst,
            sent: 0,
            got: Vec::new(),
        }
    }

    fn reliable_cfg(positions: Vec<(f64, f64)>) -> LiveConfig {
        let mut cfg = LiveConfig::new(LiveAlg::A2, TransportKind::Mpsc, positions);
        cfg.reliable = true;
        cfg
    }

    /// A reliable host `me` linked to `peer` alone, with no workload of
    /// its own: the test sends by applying `Hungry` by hand.
    fn host(me: u32, peer: u32, burst: u64) -> NodeHost<Probe> {
        let cfg = HostConfig::of(&reliable_cfg(Vec::new()));
        let mut h = NodeHost::new(NodeId(me), probe(burst), None, vec![NodeId(peer)], &cfg, 0);
        h.next_hungry = None;
        h
    }

    fn outstanding(h: &NodeHost<Probe>, peer: u32) -> usize {
        h.arq.as_ref().expect("reliable host").links[&peer]
            .send
            .len()
    }

    const MS: u64 = 1_000_000; // ν = 10 ticks of 0.1 ms

    #[test]
    fn lost_first_frame_is_resent_and_stale_acks_release_nothing() {
        let shared = ShardShared::new(None, 1);
        let (mut a, mut b) = (host(0, 1, 1), host(1, 0, 1));
        let (mut wa, mut wb) = (WireOut::new(Arc::default()), WireOut::new(Arc::default()));

        // Frame 1, the first of the incarnation, is lost on the wire.
        a.apply(Event::Hungry, 0, &mut wa, &shared);
        assert_eq!(wa.sends.len(), 1);
        wa.sends.clear();
        // Past the RTO (2ν plus at most 25% jitter) go-back-N resends it.
        a.tick(3 * MS, &mut wa, &shared);
        assert_eq!(a.n_retransmissions, 1);
        let resent = std::mem::take(&mut wa.sends);
        assert_eq!(resent.len(), 1);

        // Frame 2 overtakes the retransmission: the receiver must hold it
        // back instead of resynchronizing on it.
        a.apply(Event::Hungry, 3 * MS, &mut wa, &shared);
        let second = std::mem::take(&mut wa.sends);
        b.on_envelope(&second[0].1, 3 * MS, &mut wb, &shared);
        assert!(b.proto.got.is_empty(), "a gap reached the protocol");
        b.on_envelope(&resent[0].1, 3 * MS, &mut wb, &shared);
        b.on_envelope(&resent[0].1, 3 * MS, &mut wb, &shared);
        assert_eq!(b.proto.got, vec![(NodeId(0), 1)], "delivered once");

        // B's idle ack releases frame 1; frame 2 goes out again on the
        // next timeout and is delivered in order.
        b.tick(4 * MS, &mut wb, &shared);
        let ack = std::mem::take(&mut wb.sends);
        assert_eq!(b.n_acks_sent, 1);
        a.on_envelope(&ack[0].1, 4 * MS, &mut wa, &shared);
        assert_eq!(outstanding(&a, 1), 1);
        a.tick(7 * MS, &mut wa, &shared);
        assert_eq!(a.n_retransmissions, 2);
        for (_, env) in std::mem::take(&mut wa.sends) {
            b.on_envelope(&env, 7 * MS, &mut wb, &shared);
        }
        assert_eq!(b.proto.got, vec![(NodeId(0), 1), (NodeId(0), 2)]);
        b.tick(8 * MS, &mut wb, &shared);
        let stale_ack = std::mem::take(&mut wb.sends);
        assert_eq!(Envelope::decode(&stale_ack[0].1).unwrap().ack, 2);

        // The link flaps. The cumulative ack of the dead incarnation must
        // not release the new incarnation's frame 1, and the dead
        // incarnation's data must not reach the protocol.
        for (h, w, peer, kind) in [
            (&mut a, &mut wa, 1, LinkUpKind::AsStatic),
            (&mut b, &mut wb, 0, LinkUpKind::AsMoving),
        ] {
            let peer = NodeId(peer);
            h.handle_ctrl(Ctrl::LinkDown { peer }, 9 * MS, w, &shared);
            h.handle_ctrl(
                Ctrl::LinkUp {
                    peer,
                    kind,
                    epoch: 1,
                },
                9 * MS,
                w,
                &shared,
            );
        }
        a.apply(Event::Hungry, 9 * MS, &mut wa, &shared);
        let fresh = std::mem::take(&mut wa.sends);
        assert_eq!(Envelope::decode(&fresh[0].1).unwrap().seq, 1);
        a.on_envelope(&stale_ack[0].1, 9 * MS, &mut wa, &shared);
        assert_eq!(outstanding(&a, 1), 1, "a stale ack released a frame");
        b.on_envelope(&second[0].1, 9 * MS, &mut wb, &shared);
        b.on_envelope(&fresh[0].1, 9 * MS, &mut wb, &shared);
        assert_eq!(
            b.proto.got,
            vec![(NodeId(0), 1), (NodeId(0), 2), (NodeId(0), 3)]
        );
    }

    #[test]
    fn a_full_window_is_a_structured_abort() {
        // The peer never acks: the 65th frame finds the window full.
        let shared = ShardShared::new(None, 1);
        let mut a = host(0, 1, 65);
        let mut wa = WireOut::new(Arc::default());
        a.apply(Event::Hungry, 0, &mut wa, &shared);
        assert_eq!(wa.sends.len(), 64);
        assert_eq!(
            wa.abort,
            Some(ShardAbort::ShimBufferOverflow {
                from: NodeId(0),
                to: NodeId(1),
                window: 64,
            })
        );

        // The worker ends the run with it instead of buffering on.
        let cfg = reliable_cfg(vec![(0.0, 0.0), (1.0, 0.0)]);
        let err = run_sharded_with(&cfg, |_| probe(65), ShardTuning::default())
            .expect_err("a full ARQ window must abort the run");
        assert!(err.contains("ARQ shim buffer overflow"), "{err}");
    }
}
