//! The discrete-event engine.

use crate::channel::{ChannelConfig, ChannelState, ChannelStats, Flight};
use crate::command::Command;
use crate::config::SimConfig;
use crate::event::{Event, LinkUpKind};
use crate::fault::FaultStats;
use crate::hooks::{Hook, Sink, View};
use crate::ids::NodeId;
use crate::protocol::{Context, DiningState, Protocol};
use crate::rng::SimRng;
use crate::sched::{self, DeliveryChoice, Strategy};
use crate::shim::{Arm, ShimState, ShimStats, Timeout};
use crate::time::SimTime;
use crate::trace::{Trace, TraceEntry, TraceKind};
use crate::wheel::EventQueue;
use crate::world::{LinkChange, Position, World};

/// Information handed to the node factory when constructing each protocol
/// instance.
#[derive(Clone, Debug)]
pub struct NodeSeed {
    /// The node's unique ID.
    pub id: NodeId,
    /// The node's initial neighbors (sorted by ID). Initial links are
    /// established without LinkUp notifications; initial shared state (e.g.
    /// fork placement by ID) is derived from this set.
    pub neighbors: Vec<NodeId>,
    /// Total number of nodes in the system (the paper's `n`; only the
    /// knowledge-of-`n` algorithm variants may consult it).
    pub n_nodes: usize,
    /// Maximum degree of the initial topology (the paper's δ; only the
    /// knowledge-of-δ algorithm variants may consult it).
    pub max_degree: usize,
}

/// Counters accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total events processed.
    pub events: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to protocols.
    pub messages_delivered: u64,
    /// Messages refused at send time because the destination link had
    /// already failed inside the sending handler (link-race losses).
    pub dropped_at_send: u64,
    /// Messages accepted by the network that died in flight: their link
    /// failed (or changed incarnation) or their destination crashed before
    /// delivery.
    pub dropped_in_flight: u64,
    /// Faults injected by the [`crate::FaultPlan`] adversary, by kind
    /// (all zero when the plan is empty).
    pub faults: FaultStats,
    /// Reliable-delivery shim activity (all zero when
    /// [`crate::SimConfig::arq`] is `None`).
    pub shim: ShimStats,
    /// Channel-model activity (all zero with the default
    /// [`crate::ChannelConfig::Iid`] model).
    pub channel: ChannelStats,
}

impl EngineStats {
    /// Total messages lost for any reason: [`EngineStats::dropped_at_send`]
    /// plus [`EngineStats::dropped_in_flight`].
    pub fn messages_dropped(&self) -> u64 {
        self.dropped_at_send + self.dropped_in_flight
    }
}

enum Item<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        link_epoch: u64,
    },
    Proto {
        node: NodeId,
        ev: Event<M>,
    },
    Command(Command),
    MoveStep {
        node: NodeId,
        epoch: u64,
    },
    MotionDone {
        node: NodeId,
        epoch: u64,
    },
    /// A sequenced ARQ data frame in flight (shim mode only).
    ShimData {
        from: NodeId,
        to: NodeId,
        msg: M,
        link_epoch: u64,
        seq: u64,
        ack: u64,
    },
    /// A standalone cumulative acknowledgment in flight: `from` confirms
    /// in-order receipt of the reverse data channel `to → from` up to
    /// sequence `ack`.
    ShimAck {
        from: NodeId,
        to: NodeId,
        link_epoch: u64,
        ack: u64,
    },
    /// Retransmission timeout of the `from → to` ARQ sender; stale
    /// generations (superseded by a re-arm) and dead incarnations no-op.
    ShimRto {
        from: NodeId,
        to: NodeId,
        epoch: u64,
        gen: u64,
    },
    /// Idle-ack timeout of the receiver of the `from → to` data channel.
    ShimAckIdle {
        from: NodeId,
        to: NodeId,
        epoch: u64,
        gen: u64,
    },
    /// Completion scan of the shared-medium channel model; stale
    /// generations (superseded by a fair-share reallocation) no-op.
    ChannelTick {
        gen: u64,
    },
}

/// A physical frame about to be handed to the channel: what the shim (or
/// its absence) puts on the wire for one [`Engine::send`].
enum Wire<M> {
    /// Shim disabled: the bare protocol message, exactly as always.
    Plain(M),
    /// Sequenced shim data frame with a piggybacked cumulative ack.
    Data { seq: u64, ack: u64, msg: M },
    /// Standalone cumulative ack.
    Ack { ack: u64 },
}

impl<M: Clone> Clone for Wire<M> {
    fn clone(&self) -> Wire<M> {
        match self {
            Wire::Plain(m) => Wire::Plain(m.clone()),
            Wire::Data { seq, ack, msg } => Wire::Data {
                seq: *seq,
                ack: *ack,
                msg: msg.clone(),
            },
            Wire::Ack { ack } => Wire::Ack { ack: *ack },
        }
    }
}

/// A structured reason a run stopped early. Replaces the panics that used
/// to fire inside worker threads (killing whole parallel sweeps when one
/// pathological cell tripped): the engine records the abort, stops
/// dispatching, and reports surface it in their JSONL rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunAbort {
    /// The livelock guard tripped: the run dispatched
    /// [`SimConfig::max_events`] events before reaching its horizon.
    EventBudgetExceeded {
        /// The configured budget ([`SimConfig::max_events`]).
        limit: u64,
    },
    /// A delivery delay was produced outside the legal `[min_delay, ν]`
    /// window — a malformed imported schedule, a buggy policy, or a
    /// misconfigured channel model whose per-frame transmit time does not
    /// fit the window. The engine used to clamp such delays silently,
    /// which masked the corruption while reordering the replayed run.
    DelayOutOfWindow {
        /// Who produced the offending delay: `"strategy"` for an injected
        /// schedule, otherwise the channel model's
        /// [`ChannelConfig::name`].
        channel: &'static str,
        /// The sender of the offending delivery.
        from: NodeId,
        /// The destination of the offending delivery.
        to: NodeId,
        /// The delay that was produced.
        delay: u64,
        /// Smallest legal delay ([`SimConfig::min_message_delay`]).
        earliest: u64,
        /// Largest legal delay (the paper's ν).
        latest: u64,
    },
    /// A channel model's bounded transmit queue overflowed: the protocol
    /// kept sending faster than the configured link capacity (or medium
    /// share) could drain. A structured stop, not a panic — the bound is
    /// [`ChannelConfig::ConstantBandwidth::max_queue`] or
    /// [`ChannelConfig::SharedMedium::max_inflight`].
    ChannelQueueOverflow {
        /// The sender of the overflowing channel.
        from: NodeId,
        /// The destination of the overflowing channel.
        to: NodeId,
        /// The configured queue bound.
        limit: usize,
    },
    /// The reliable-delivery shim's bounded in-flight buffer overflowed on
    /// one directed link: the sender kept producing while the channel
    /// never acknowledged. A structured stop (the protocol is outrunning
    /// the configured [`crate::ArqConfig::window`]), not a panic.
    ShimBufferOverflow {
        /// The sender of the overflowing channel.
        from: NodeId,
        /// The destination of the overflowing channel.
        to: NodeId,
        /// The configured window ([`crate::ArqConfig::window`]).
        window: usize,
    },
}

impl std::fmt::Display for RunAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunAbort::EventBudgetExceeded { limit } => {
                write!(f, "event budget exceeded ({limit} events): livelock?")
            }
            RunAbort::DelayOutOfWindow {
                channel,
                from,
                to,
                delay,
                earliest,
                latest,
            } => write!(
                f,
                "{channel} delay {delay} on channel {}->{} outside legal window [{earliest}, {latest}]",
                from.0, to.0
            ),
            RunAbort::ChannelQueueOverflow { from, to, limit } => write!(
                f,
                "channel transmit queue overflow on {}->{} ({limit} frames in flight)",
                from.0, to.0
            ),
            RunAbort::ShimBufferOverflow { from, to, window } => write!(
                f,
                "ARQ shim buffer overflow on channel {}->{} ({window} unacked frames)",
                from.0, to.0
            ),
        }
    }
}

/// Per-directed-channel FIFO bookkeeping, valid only for one link
/// incarnation: once the link's epoch moves past `epoch`, the entry is
/// stale and the clamp restarts — a reconnected link must not inherit
/// arrival floors from its dead incarnation.
#[derive(Clone, Copy, Debug, Default)]
struct FifoSlot {
    epoch: u64,
    last: SimTime,
}

/// Per-directed-channel delivery counter, scoped to one link incarnation
/// exactly like [`FifoSlot`]: a reconnected link restarts numbering at 1.
#[derive(Clone, Copy, Debug, Default)]
struct DeliverSlot {
    epoch: u64,
    count: u64,
}

/// Dense per-link bookkeeping, indexed by node-ID pairs. Replaces the
/// `HashMap`s that used to sit on the per-message hot path: `n` is fixed
/// for the lifetime of a run, so flat `n²`-sized tables give O(1) access
/// with no hashing, no allocation, and no unbounded growth under link
/// churn.
#[derive(Clone, Debug)]
struct LinkTable {
    n: usize,
    /// Incarnation counter per undirected link (indexed with `a ≤ b`);
    /// messages of dead incarnations are dropped.
    epoch: Vec<u64>,
    /// Last scheduled arrival per directed channel, to enforce FIFO.
    fifo: Vec<FifoSlot>,
    /// Delivered-message counter per directed channel (trace numbering).
    deliver: Vec<DeliverSlot>,
}

impl LinkTable {
    fn new(n: usize) -> LinkTable {
        LinkTable {
            n,
            epoch: vec![0; n * n],
            fifo: vec![FifoSlot::default(); n * n],
            deliver: vec![DeliverSlot::default(); n * n],
        }
    }

    fn undirected(&self, a: NodeId, b: NodeId) -> usize {
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        lo as usize * self.n + hi as usize
    }

    fn directed(&self, from: NodeId, to: NodeId) -> usize {
        from.0 as usize * self.n + to.0 as usize
    }

    fn current_epoch(&self, a: NodeId, b: NodeId) -> u64 {
        self.epoch[self.undirected(a, b)]
    }

    fn bump_epoch(&mut self, a: NodeId, b: NodeId) {
        let i = self.undirected(a, b);
        self.epoch[i] += 1;
    }

    /// FIFO floor of the `from → to` channel in its *current* incarnation,
    /// or `None` if the recorded floor belongs to a dead incarnation.
    fn fifo_floor(&self, from: NodeId, to: NodeId) -> Option<SimTime> {
        let slot = self.fifo[self.directed(from, to)];
        (slot.epoch == self.current_epoch(from, to)).then_some(slot.last)
    }

    fn set_fifo_floor(&mut self, from: NodeId, to: NodeId, at: SimTime) {
        let epoch = self.current_epoch(from, to);
        let i = self.directed(from, to);
        self.fifo[i] = FifoSlot { epoch, last: at };
    }

    /// 1-based sequence number of the next delivery on `from → to` within
    /// the link's current incarnation.
    fn next_deliver_seq(&mut self, from: NodeId, to: NodeId) -> u64 {
        let epoch = self.current_epoch(from, to);
        let i = self.directed(from, to);
        let slot = &mut self.deliver[i];
        if slot.epoch != epoch {
            *slot = DeliverSlot { epoch, count: 0 };
        }
        slot.count += 1;
        slot.count
    }
}

struct Core<M> {
    cfg: SimConfig,
    rng: SimRng,
    /// Dedicated stream for fault-adversary decisions, so an empty
    /// [`crate::FaultPlan`] leaves the engine's own stream — and thus
    /// every pre-existing experiment — bit-for-bit unchanged.
    fault_rng: SimRng,
    now: SimTime,
    seq: u64,
    queue: EventQueue<Item<M>>,
    /// Set when the run stops early (budget overrun, malformed schedule);
    /// once set, `run_until` dispatches nothing further.
    abort: Option<RunAbort>,
    world: World,
    dining: Vec<DiningState>,
    eating_session: Vec<u64>,
    links: LinkTable,
    stats: EngineStats,
    trace: Trace,
    /// Injected schedule strategy; `None` keeps the historical seeded
    /// uniform delay draw, bit-for-bit.
    sched: Option<Box<dyn Strategy>>,
    /// Reliable-delivery shim state; `None` (the default) keeps the
    /// engine's behavior — streams, traces, digests — bit-for-bit
    /// identical to a build without the shim.
    shim: Option<ShimState<M>>,
    /// Channel-model state; `None` for the default i.i.d. model, which
    /// keeps the engine's behavior — streams, traces, digests —
    /// bit-for-bit identical to a build without the channel subsystem.
    channel: Option<ChannelState<Wire<M>>>,
}

impl<M> Core<M> {
    /// Queue `item` at `at`. Internal callers must never schedule in the
    /// past — the old `at.max(now)` clamp silently reordered events and
    /// masked such bugs; injected-schedule inputs are validated explicitly
    /// at their entry points (`Engine::schedule`, hook sinks, strategy
    /// delays) before they reach this seam.
    fn push(&mut self, at: SimTime, item: Item<M>) {
        debug_assert!(
            at >= self.now,
            "internal event scheduled in the past: at {at:?} < now {:?}",
            self.now
        );
        self.seq += 1;
        self.queue.push(at, self.seq, item);
    }

    fn view<'a>(&'a self) -> View<'a> {
        View {
            now: self.now,
            world: &self.world,
            dining: &self.dining,
            eating_session: &self.eating_session,
        }
    }
}

/// The deterministic discrete-event simulation engine.
///
/// An `Engine` owns one protocol instance per node, the physical
/// [`World`], the event queue and the observation [`Hook`]s. See the crate
/// docs for an end-to-end example.
pub struct Engine<P: Protocol> {
    core: Core<P::Msg>,
    protocols: Vec<P>,
    hooks: Vec<Box<dyn Hook<P::Msg>>>,
    /// The node factory, retained so [`Command::Recover`] can rebuild a
    /// crashed node's protocol as a fresh incarnation.
    factory: Box<dyn FnMut(NodeSeed) -> P>,
    /// δ of the initial topology, handed to recovered incarnations
    /// exactly as it was handed to the original ones.
    max_degree: usize,
}

impl<P: Protocol> Engine<P> {
    /// Create an engine with nodes at `positions`; the factory builds each
    /// node's protocol from its [`NodeSeed`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`].
    pub fn new<Pos, F>(cfg: SimConfig, positions: Vec<Pos>, mut factory: F) -> Engine<P>
    where
        Pos: Into<Position>,
        F: FnMut(NodeSeed) -> P + 'static,
    {
        cfg.validate().expect("invalid SimConfig");
        let world = World::new(
            cfg.radio_range,
            positions.into_iter().map(Into::into).collect(),
        );
        let n = world.len();
        let max_degree = world.max_degree();
        let protocols = (0..n)
            .map(|i| {
                let id = NodeId(i as u32);
                factory(NodeSeed {
                    id,
                    neighbors: world.neighbors(id).to_vec(),
                    n_nodes: n,
                    max_degree,
                })
            })
            .collect::<Vec<_>>();
        let dining = protocols.iter().map(|p| p.dining_state()).collect();
        let trace = Trace {
            enabled: cfg.trace,
            ..Trace::default()
        };
        let shim = cfg
            .arq
            .as_ref()
            .map(|a| ShimState::new(n, a, cfg.max_message_delay, cfg.seed));
        let channel = ChannelState::new(n, &cfg.channel, cfg.seed);
        let mut engine = Engine {
            core: Core {
                rng: SimRng::seed_from_u64(cfg.seed),
                fault_rng: SimRng::seed_from_u64(fault_seed(&cfg)),
                queue: EventQueue::from_config(&cfg),
                cfg,
                now: SimTime::ZERO,
                seq: 0,
                abort: None,
                world,
                dining,
                eating_session: vec![0; n],
                links: LinkTable::new(n),
                stats: EngineStats::default(),
                trace,
                sched: None,
                shim,
                channel,
            },
            protocols,
            hooks: Vec::new(),
            factory: Box::new(factory),
            max_degree,
        };
        engine.install_fault_plan();
        engine
    }

    /// Create an engine over an *explicit* topology (see
    /// [`World::from_adjacency`]): `n` nodes wired exactly by `edges`,
    /// independent of geometry. Movement commands are rejected in such
    /// worlds; crashes work normally.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SimConfig::validate`] or `edges` is
    /// malformed.
    pub fn new_graph<F>(cfg: SimConfig, n: usize, edges: &[(u32, u32)], mut factory: F) -> Engine<P>
    where
        F: FnMut(NodeSeed) -> P + 'static,
    {
        cfg.validate().expect("invalid SimConfig");
        let world = World::from_adjacency(n, edges);
        let max_degree = world.max_degree();
        let protocols = (0..n)
            .map(|i| {
                let id = NodeId(i as u32);
                factory(NodeSeed {
                    id,
                    neighbors: world.neighbors(id).to_vec(),
                    n_nodes: n,
                    max_degree,
                })
            })
            .collect::<Vec<_>>();
        let dining = protocols.iter().map(|p| p.dining_state()).collect();
        let trace = Trace {
            enabled: cfg.trace,
            ..Trace::default()
        };
        let shim = cfg
            .arq
            .as_ref()
            .map(|a| ShimState::new(n, a, cfg.max_message_delay, cfg.seed));
        let channel = ChannelState::new(n, &cfg.channel, cfg.seed);
        let mut engine = Engine {
            core: Core {
                rng: SimRng::seed_from_u64(cfg.seed),
                fault_rng: SimRng::seed_from_u64(fault_seed(&cfg)),
                queue: EventQueue::from_config(&cfg),
                cfg,
                now: SimTime::ZERO,
                seq: 0,
                abort: None,
                world,
                dining,
                eating_session: vec![0; n],
                links: LinkTable::new(n),
                stats: EngineStats::default(),
                trace,
                sched: None,
                shim,
                channel,
            },
            protocols,
            hooks: Vec::new(),
            factory: Box::new(factory),
            max_degree,
        };
        engine.install_fault_plan();
        engine
    }

    /// Validate the configured [`crate::FaultPlan`] against the real node
    /// count and schedule its scripted parts (crash waves, partition
    /// windows) as ordinary commands.
    fn install_fault_plan(&mut self) {
        self.core
            .cfg
            .fault
            .validate(self.core.world.len())
            .expect("invalid FaultPlan");
        if self.core.cfg.fault.is_empty() {
            return;
        }
        let plan = self.core.cfg.fault.clone();
        for wave in &plan.crash_waves {
            for &node in &wave.nodes {
                self.core.stats.faults.crashes_injected += 1;
                self.core
                    .push(SimTime(wave.at), Item::Command(Command::Crash(node)));
            }
        }
        for window in &plan.partitions {
            self.core.push(
                SimTime(window.at),
                Item::Command(Command::Partition {
                    side: window.side.clone(),
                }),
            );
            self.core.push(
                SimTime(window.at.saturating_add(window.heal_after)),
                Item::Command(Command::Heal),
            );
        }
        // Recoveries count at execution time (unlike crash waves): a
        // recover scheduled for a node that is not actually crashed by
        // then is a no-op and must not inflate the ledger.
        for wave in &plan.recovers {
            for &node in &wave.nodes {
                self.core
                    .push(SimTime(wave.at), Item::Command(Command::Recover(node)));
            }
        }
    }

    /// Register an observation hook. Hooks fire in registration order.
    pub fn add_hook(&mut self, hook: Box<dyn Hook<P::Msg>>) {
        self.hooks.push(hook);
    }

    /// Schedule a [`Command`] at absolute time `at` (clamped to now).
    pub fn schedule(&mut self, at: SimTime, cmd: Command) {
        // External surface: callers may legitimately hand in an instant the
        // run has already passed (e.g. re-scheduling between `run_until`
        // calls), so the clamp is part of the contract here.
        let at = at.max(self.core.now);
        self.core.push(at, Item::Command(cmd));
    }

    /// Sugar for scheduling [`Command::SetHungry`].
    pub fn set_hungry_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, Command::SetHungry(node));
    }

    /// Sugar for scheduling [`Command::Crash`].
    pub fn crash_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, Command::Crash(node));
    }

    /// Sugar for scheduling [`Command::Recover`].
    pub fn recover_at(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, Command::Recover(node));
    }

    /// Sugar for scheduling [`Command::Teleport`].
    pub fn teleport_at(&mut self, at: SimTime, node: NodeId, dest: impl Into<Position>) {
        self.schedule(
            at,
            Command::Teleport {
                node,
                dest: dest.into(),
            },
        );
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Cached dining state of `node`.
    pub fn dining_state(&self, node: NodeId) -> DiningState {
        self.core.dining[node.index()]
    }

    /// The physical world.
    pub fn world(&self) -> &World {
        &self.core.world
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &EngineStats {
        &self.core.stats
    }

    /// Why the run stopped early, if it did: `None` while the run is
    /// healthy, the structured reason once the livelock guard trips or an
    /// injected schedule misbehaves (see [`RunAbort`]). Once set, further
    /// [`Engine::run_until`] calls dispatch nothing.
    pub fn abort(&self) -> Option<&RunAbort> {
        self.core.abort.as_ref()
    }

    /// The recorded trace (empty unless [`SimConfig::trace`] was set).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.core.trace.entries
    }

    /// Borrow the protocol instance of `node` (for tests and inspection).
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.index()]
    }

    /// Install a schedule [`Strategy`]: from now on it picks every delivery
    /// delay within the legal `[min_delay, ν]` window, replacing the seeded
    /// uniform draw. Install before running — choices already made are not
    /// revisited.
    pub fn set_strategy(&mut self, strategy: Box<dyn Strategy>) {
        self.core.sched = Some(strategy);
    }

    /// Number of queued, not-yet-dispatched events. Zero at the end of a
    /// run means the run reached quiescence (rather than the horizon).
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Deterministic digest of the global engine state — every protocol's
    /// `state_digest`, all dining states and eating sessions, and the
    /// ordered signature of the pending event queue. `None` if any protocol
    /// does not implement `state_digest`.
    ///
    /// The current instant is deliberately excluded: two executions that
    /// reach identical protocol states and identical *absolute* pending
    /// times at different `now`s evolve identically, and schedule explorers
    /// want to deduplicate exactly those.
    pub fn state_digest(&self) -> Option<u64> {
        let mut h = sched::Fnv::new();
        for p in &self.protocols {
            h.write_u64(p.state_digest()?);
        }
        for (d, s) in self.core.dining.iter().zip(&self.core.eating_session) {
            h.write_u64(match d {
                DiningState::Thinking => 0,
                DiningState::Hungry => 1,
                DiningState::Eating => 2,
            });
            h.write_u64(*s);
        }
        // Queue signature in dispatch order: sort by (at, seq) but hash
        // only (at, content) — the insertion-order seq values differ across
        // histories even when the executions are equivalent, while the
        // *relative* order they induce is exactly what matters.
        let mut items: Vec<(SimTime, u64, u64)> = self
            .core
            .queue
            .iter()
            .map(|(at, seq, item)| (at, seq, item_digest(item)))
            .collect();
        items.sort_unstable();
        for (at, _, content) in items {
            h.write_u64(at.0);
            h.write_u64(content);
        }
        Some(h.finish())
    }

    /// Deterministic digest of the engine's *progress* state, for liveness
    /// (lasso) detection: every protocol's `progress_digest` (monotone
    /// observational counters excluded), all dining states, and the pending
    /// queue signature at times **relative to now**. Eating-session
    /// counters are excluded too — they only grow. A digest that repeats at
    /// a later instant of the same run certifies a schedulable cycle: the
    /// engine is in the same behavioral configuration with the same
    /// in-flight events at the same offsets, so the delay choices of the
    /// intervening segment are legal again, verbatim, forever. `None` if
    /// any protocol opts out of `progress_digest`.
    pub fn progress_digest(&self) -> Option<u64> {
        let mut h = sched::Fnv::new();
        for p in &self.protocols {
            h.write_u64(p.progress_digest()?);
        }
        for d in self.core.dining.iter() {
            h.write_u64(match d {
                DiningState::Thinking => 0,
                DiningState::Hungry => 1,
                DiningState::Eating => 2,
            });
        }
        let now = self.core.now;
        let mut items: Vec<(SimTime, u64, u64)> = self
            .core
            .queue
            .iter()
            .map(|(at, seq, item)| (at, seq, item_digest(item)))
            .collect();
        items.sort_unstable();
        for (at, _, content) in items {
            h.write_u64(at.0.saturating_sub(now.0));
            h.write_u64(content);
        }
        Some(h.finish())
    }

    /// Run until the queue is exhausted or virtual time would exceed
    /// `t_end`; returns the time reached.
    ///
    /// The run can also stop early with a structured [`RunAbort`] (see
    /// [`Engine::abort`]): when [`SimConfig::max_events`] events have been
    /// dispatched (livelock guard), or when an injected [`Strategy`]
    /// returns a delivery delay outside the legal window. Aborted engines
    /// stay inspectable — stats, trace and queue are all intact — but
    /// dispatch nothing further.
    pub fn run_until(&mut self, t_end: SimTime) -> SimTime {
        let mut quantum_checked = false;
        loop {
            if self.core.abort.is_some() {
                break;
            }
            let next_at = match self.core.queue.next_at() {
                Some(at) => at,
                None => {
                    if !quantum_checked {
                        self.fire_quantum_end();
                    }
                    break;
                }
            };
            if next_at > t_end {
                if !quantum_checked {
                    self.fire_quantum_end();
                    // Hooks may have scheduled events at the current instant.
                    if self.core.queue.next_at().is_some_and(|at| at <= t_end) {
                        quantum_checked = false;
                        continue;
                    }
                }
                self.core.now = t_end;
                break;
            }
            if next_at > self.core.now {
                if !quantum_checked {
                    self.fire_quantum_end();
                    quantum_checked = true;
                    continue; // hooks may have scheduled events at `now`
                }
                self.core.now = next_at;
                quantum_checked = false;
                continue;
            }
            // next_at == now: process one event. The budget check runs
            // before the pop so the guard is a clean stop, not a panic
            // mid-dispatch: exactly `max_events` events get dispatched,
            // same boundary the old assert enforced.
            quantum_checked = false;
            if self.core.stats.events >= self.core.cfg.max_events {
                self.core.abort = Some(RunAbort::EventBudgetExceeded {
                    limit: self.core.cfg.max_events,
                });
                break;
            }
            // The queue's peek caches the exact entry its pop returns, so
            // the two cannot desynchronize; an empty pop here is impossible
            // but degrades to a clean stop instead of a panic.
            let Some((_, _, item)) = self.core.queue.pop() else {
                break;
            };
            self.core.stats.events += 1;
            self.dispatch(item);
        }
        self.core.now
    }

    /// Run for `ticks` ticks past the current time.
    pub fn run_for(&mut self, ticks: u64) -> SimTime {
        let t = self.core.now + ticks;
        self.run_until(t)
    }

    fn dispatch(&mut self, item: Item<P::Msg>) {
        match item {
            Item::Deliver {
                from,
                to,
                msg,
                link_epoch,
            } => {
                let live = self.core.world.linked(from, to)
                    && self.core.links.current_epoch(from, to) == link_epoch
                    && !self.core.world.is_crashed(to);
                if !live {
                    self.core.stats.dropped_in_flight += 1;
                    return;
                }
                self.core.stats.messages_delivered += 1;
                let seq = self.core.links.next_deliver_seq(from, to);
                self.core.trace.record(
                    self.core.now,
                    TraceKind::Deliver {
                        from,
                        to,
                        kind: P::msg_kind(&msg),
                        seq,
                    },
                );
                self.fire_hooks(|h, view, sink| h.on_deliver(view, from, to, &msg, sink));
                self.deliver_proto(to, Event::Message { from, msg });
            }
            Item::Proto { node, ev } => self.deliver_proto(node, ev),
            Item::Command(cmd) => self.execute(cmd),
            Item::ShimData {
                from,
                to,
                msg,
                link_epoch,
                seq,
                ack,
            } => self.shim_data(from, to, msg, link_epoch, seq, ack),
            Item::ShimAck {
                from,
                to,
                link_epoch,
                ack,
            } => {
                let live = self.core.world.linked(from, to)
                    && self.core.links.current_epoch(from, to) == link_epoch
                    && !self.core.world.is_crashed(to);
                if !live {
                    self.core.stats.dropped_in_flight += 1;
                    return;
                }
                // `from` acknowledges data `to` sent on the reverse
                // channel; the receiver of this frame owns that sender
                // slot.
                self.shim_apply_ack(to, from, link_epoch, ack);
            }
            Item::ShimRto {
                from,
                to,
                epoch,
                gen,
            } => self.shim_rto(from, to, epoch, gen),
            Item::ShimAckIdle {
                from,
                to,
                epoch,
                gen,
            } => self.shim_ack_idle(from, to, epoch, gen),
            Item::ChannelTick { gen } => self.channel_tick(gen),
            Item::MoveStep { node, epoch } => self.move_step(node, epoch),
            Item::MotionDone { node, epoch } => {
                if self.core.world.is_crashed(node) {
                    return;
                }
                let live = self
                    .core
                    .world
                    .motion(node)
                    .is_some_and(|m| m.epoch == epoch);
                if !live {
                    return;
                }
                self.core.world.end_motion(node);
                self.core
                    .trace
                    .record(self.core.now, TraceKind::MoveEnd(node));
                self.fire_hooks(|h, view, sink| h.on_move(view, node, false, sink));
                self.deliver_proto(node, Event::MovementEnded);
            }
        }
    }

    fn execute(&mut self, cmd: Command) {
        match cmd {
            Command::SetHungry(node) => {
                if !self.core.world.is_crashed(node)
                    && self.core.dining[node.index()] == DiningState::Thinking
                {
                    self.deliver_proto(node, Event::Hungry);
                }
            }
            Command::ExitCs { node, session } => {
                if !self.core.world.is_crashed(node)
                    && self.core.dining[node.index()] == DiningState::Eating
                    && self.core.eating_session[node.index()] == session
                {
                    self.deliver_proto(node, Event::ExitCs);
                }
            }
            Command::Crash(node) => {
                if !self.core.world.is_crashed(node) {
                    self.core.world.crash(node);
                    self.core
                        .trace
                        .record(self.core.now, TraceKind::Crash(node));
                    self.fire_hooks(|h, view, sink| h.on_crash(view, node, sink));
                }
            }
            Command::Recover(node) => {
                if !self.core.world.is_crashed(node) {
                    return;
                }
                self.core.world.recover(node);
                self.core.stats.faults.recoveries += 1;
                self.core
                    .trace
                    .record(self.core.now, TraceKind::Recover(node));
                // Fresh incarnation: the crashed automaton's state is gone
                // for good; the rejoin handshake below re-establishes all
                // shared state through the ordinary link layer.
                let n = self.core.world.len();
                self.protocols[node.index()] = (self.factory)(NodeSeed {
                    id: node,
                    neighbors: Vec::new(),
                    n_nodes: n,
                    max_degree: self.max_degree,
                });
                // Re-sync the cached dining state silently: crash→rejoin
                // is an incarnation change, not a dining transition, so no
                // StateChange fires and `eating_session` stays monotonic
                // (the safety monitor's session bookkeeping depends on
                // both).
                self.core.dining[node.index()] = self.protocols[node.index()].dining_state();
                self.fire_hooks(|h, view, sink| h.on_recover(view, node, sink));
                // Rejoin handshake: flap every incident link so both ends
                // start a fresh incarnation — in-flight traffic and stale
                // ARQ/FIFO state die with the old epoch, and the surviving
                // peer (static side) re-mints shared fork state exactly as
                // after mobility.
                let peers = self.core.world.neighbors(node).to_vec();
                for peer in peers {
                    self.emit_link_changes(vec![
                        LinkChange::Down(node, peer),
                        LinkChange::Up(peer, node),
                    ]);
                }
            }
            Command::StartMove { node, dest, speed } => {
                if self.core.world.is_crashed(node) || speed <= 0.0 || speed.is_nan() {
                    return;
                }
                let step_len = speed * self.core.cfg.move_step_ticks as f64;
                let epoch = self.core.world.begin_motion(node, dest, step_len);
                self.core
                    .trace
                    .record(self.core.now, TraceKind::MoveStart(node));
                self.fire_hooks(|h, view, sink| h.on_move(view, node, true, sink));
                self.deliver_proto(node, Event::MovementStarted);
                let at = self.core.now + self.core.cfg.move_step_ticks;
                self.core.push(at, Item::MoveStep { node, epoch });
            }
            Command::Teleport { node, dest } => {
                if self.core.world.is_crashed(node) {
                    return;
                }
                // Treat the jump as an (instantaneous) movement.
                let epoch = self.core.world.begin_motion(node, dest, 0.0);
                self.core
                    .trace
                    .record(self.core.now, TraceKind::MoveStart(node));
                self.fire_hooks(|h, view, sink| h.on_move(view, node, true, sink));
                self.deliver_proto(node, Event::MovementStarted);
                let changes = self.core.world.relocate(node, dest);
                self.emit_link_changes(changes);
                // Ends after the queued link notifications are processed.
                let now = self.core.now;
                self.core.push(now, Item::MotionDone { node, epoch });
            }
            Command::Partition { side } => {
                let changes = self.core.world.apply_cut(&side);
                self.core.stats.faults.partitions += 1;
                self.core
                    .trace
                    .record(self.core.now, TraceKind::Partition(changes.len()));
                self.emit_link_changes(changes);
            }
            Command::Heal => {
                let changes = self.core.world.clear_cut();
                self.core.stats.faults.heals += 1;
                self.core
                    .trace
                    .record(self.core.now, TraceKind::Heal(changes.len()));
                self.emit_link_changes(changes);
            }
        }
    }

    fn move_step(&mut self, node: NodeId, epoch: u64) {
        if self.core.world.is_crashed(node) {
            return;
        }
        let live = self
            .core
            .world
            .motion(node)
            .is_some_and(|m| m.epoch == epoch);
        if !live {
            return;
        }
        let (changes, arrived) = self.core.world.step_motion(node);
        self.emit_link_changes(changes);
        let now = self.core.now;
        if arrived {
            self.core.push(now, Item::MotionDone { node, epoch });
        } else {
            let at = now + self.core.cfg.move_step_ticks;
            self.core.push(at, Item::MoveStep { node, epoch });
        }
    }

    fn emit_link_changes(&mut self, changes: Vec<LinkChange>) {
        for change in changes {
            match change {
                LinkChange::Up(a, b) => {
                    self.core.links.bump_epoch(a, b);
                    // Symmetry breaking biased toward static nodes; ties
                    // between two movers broken by ID (smaller = static).
                    let a_moving = self.core.world.is_moving(a);
                    let b_moving = self.core.world.is_moving(b);
                    let static_side = match (a_moving, b_moving) {
                        (false, _) => a,
                        (true, false) => b,
                        (true, true) => {
                            if a.0 < b.0 {
                                a
                            } else {
                                b
                            }
                        }
                    };
                    let moving_side = if static_side == a { b } else { a };
                    self.core
                        .trace
                        .record(self.core.now, TraceKind::LinkUp(static_side, moving_side));
                    self.fire_hooks(|h, view, sink| {
                        h.on_link_up(view, static_side, moving_side, sink)
                    });
                    let now = self.core.now;
                    self.core.push(
                        now,
                        Item::Proto {
                            node: static_side,
                            ev: Event::LinkUp {
                                peer: moving_side,
                                kind: LinkUpKind::AsStatic,
                            },
                        },
                    );
                    self.core.push(
                        now,
                        Item::Proto {
                            node: moving_side,
                            ev: Event::LinkUp {
                                peer: static_side,
                                kind: LinkUpKind::AsMoving,
                            },
                        },
                    );
                }
                LinkChange::Down(a, b) => {
                    // Kill the incarnation at once: in-flight messages of
                    // the dead link can never be delivered, and the FIFO
                    // floors of both directions become stale immediately
                    // (a reconnect must not inherit them).
                    self.core.links.bump_epoch(a, b);
                    self.core
                        .trace
                        .record(self.core.now, TraceKind::LinkDown(a, b));
                    self.fire_hooks(|h, view, sink| h.on_link_down(view, a, b, sink));
                    let now = self.core.now;
                    self.core.push(
                        now,
                        Item::Proto {
                            node: a,
                            ev: Event::LinkDown { peer: b },
                        },
                    );
                    self.core.push(
                        now,
                        Item::Proto {
                            node: b,
                            ev: Event::LinkDown { peer: a },
                        },
                    );
                }
            }
        }
    }

    fn deliver_proto(&mut self, node: NodeId, ev: Event<P::Msg>) {
        if self.core.world.is_crashed(node) {
            return;
        }
        let old = self.core.dining[node.index()];
        let mut outbox: Vec<(NodeId, P::Msg)> = Vec::new();
        let mut timers: Vec<(u64, u64)> = Vec::new();
        {
            let mut ctx = Context {
                me: node,
                now: self.core.now,
                neighbors: self.core.world.neighbors(node),
                moving: self.core.world.is_moving(node),
                outbox: &mut outbox,
                timers: &mut timers,
            };
            self.protocols[node.index()].on_event(ev, &mut ctx);
        }
        for (to, msg) in outbox {
            self.send(node, to, msg);
        }
        for (delay, token) in timers {
            let at = self.core.now + delay;
            self.core.push(
                at,
                Item::Proto {
                    node,
                    ev: Event::Timer { token },
                },
            );
        }
        let new = self.protocols[node.index()].dining_state();
        if new != old {
            self.core.dining[node.index()] = new;
            if new == DiningState::Eating {
                self.core.eating_session[node.index()] += 1;
            }
            self.core
                .trace
                .record(self.core.now, TraceKind::StateChange(node, old, new));
            self.fire_hooks(|h, view, sink| h.on_state_change(view, node, old, new, sink));
        }
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        if !self.core.world.linked(from, to) {
            // The neighbor departed during this very handler; the message
            // would have been lost with the link anyway.
            self.core.stats.dropped_at_send += 1;
            return;
        }
        self.core.stats.messages_sent += 1;
        if self.core.shim.is_some() {
            self.shim_send(from, to, msg);
        } else {
            self.physical_send(from, to, Wire::Plain(msg));
        }
    }

    /// Shim-mode send: assign the next sequence number on the channel's
    /// current incarnation, buffer the payload for retransmission, arm the
    /// retransmission timer if idle, and put a data frame (with a
    /// piggybacked cumulative ack for the reverse channel) on the wire.
    fn shim_send(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let epoch = self.core.links.current_epoch(from, to);
        let shim = self.core.shim.as_mut().expect("shim_send without shim");
        let (slot, timing, rng) = shim.send_slot(from, to, epoch);
        let (seq, arm) = match slot.enqueue(msg.clone(), timing, rng) {
            Ok(sent) => sent,
            Err(window) => {
                self.core
                    .abort
                    .get_or_insert(RunAbort::ShimBufferOverflow { from, to, window });
                return;
            }
        };
        let depth = slot.len() as u64;
        let hw = &mut self.core.stats.shim.buffer_high_water;
        *hw = (*hw).max(depth);
        if let Some(arm) = arm {
            self.push_shim_rto(from, to, epoch, arm);
        }
        let ack = self
            .core
            .shim
            .as_mut()
            .expect("shim")
            .take_piggyback_ack(from, to, epoch);
        self.physical_send(from, to, Wire::Data { seq, ack, msg });
    }

    fn push_shim_rto(&mut self, from: NodeId, to: NodeId, epoch: u64, arm: Arm) {
        let at = self.core.now + arm.delay;
        self.core.push(
            at,
            Item::ShimRto {
                from,
                to,
                epoch,
                gen: arm.gen,
            },
        );
    }

    /// Apply a cumulative acknowledgment (piggybacked or standalone) to
    /// the sender-side slot `owner` keeps for its data channel to `peer`.
    fn shim_apply_ack(&mut self, owner: NodeId, peer: NodeId, epoch: u64, ack: u64) {
        let shim = self
            .core
            .shim
            .as_mut()
            .expect("shim_apply_ack without shim");
        let (slot, timing, rng) = shim.send_slot(owner, peer, epoch);
        if let Some(arm) = slot.on_ack(ack, timing, rng) {
            self.push_shim_rto(owner, peer, epoch, arm);
        }
    }

    /// A sequenced data frame arrived: process its piggybacked ack, then
    /// deliver the payload iff the receiver slot says it is the next
    /// in-order frame.
    fn shim_data(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: P::Msg,
        link_epoch: u64,
        seq: u64,
        ack: u64,
    ) {
        let live = self.core.world.linked(from, to)
            && self.core.links.current_epoch(from, to) == link_epoch
            && !self.core.world.is_crashed(to);
        if !live {
            self.core.stats.dropped_in_flight += 1;
            return;
        }
        self.shim_apply_ack(to, from, link_epoch, ack);
        let shim = self.core.shim.as_mut().expect("shim_data without shim");
        let timing = shim.timing;
        let (deliver, arm) = shim.recv_slot(from, to, link_epoch).on_data(seq, &timing);
        if let Some(arm) = arm {
            let at = self.core.now + arm.delay;
            self.core.push(
                at,
                Item::ShimAckIdle {
                    from,
                    to,
                    epoch: link_epoch,
                    gen: arm.gen,
                },
            );
        }
        if !deliver {
            return;
        }
        self.core.stats.messages_delivered += 1;
        let dseq = self.core.links.next_deliver_seq(from, to);
        self.core.trace.record(
            self.core.now,
            TraceKind::Deliver {
                from,
                to,
                kind: P::msg_kind(&msg),
                seq: dseq,
            },
        );
        self.fire_hooks(|h, view, sink| h.on_deliver(view, from, to, &msg, sink));
        self.deliver_proto(to, Event::Message { from, msg });
    }

    /// Retransmission timeout fired: resend every buffered frame of the
    /// channel (go-back-N) and re-arm with exponential backoff — or give
    /// up after `max_retries` consecutive silent timeouts.
    fn shim_rto(&mut self, from: NodeId, to: NodeId, epoch: u64, gen: u64) {
        if self.core.world.is_crashed(from) || self.core.links.current_epoch(from, to) != epoch {
            return;
        }
        let shim = self.core.shim.as_mut().expect("shim_rto without shim");
        let (slot, timing, rng) = shim.send_slot(from, to, epoch);
        let Timeout::Resend(arm) = slot.on_timeout(gen, timing, rng) else {
            return;
        };
        let frames: Vec<(u64, P::Msg)> = slot.outstanding().map(|(s, m)| (s, m.clone())).collect();
        self.core.stats.shim.retransmissions += frames.len() as u64;
        self.push_shim_rto(from, to, epoch, arm);
        let ack = self
            .core
            .shim
            .as_mut()
            .expect("shim")
            .take_piggyback_ack(from, to, epoch);
        for (seq, msg) in frames {
            self.physical_send(from, to, Wire::Data { seq, ack, msg });
        }
    }

    /// Idle-ack timeout fired for the receiver of the `from → to` data
    /// channel: if an acknowledgment is still owed (no reverse traffic
    /// piggybacked it in time), send a standalone cumulative ack.
    fn shim_ack_idle(&mut self, from: NodeId, to: NodeId, epoch: u64, gen: u64) {
        if self.core.world.is_crashed(to) || self.core.links.current_epoch(from, to) != epoch {
            return;
        }
        let shim = self.core.shim.as_mut().expect("shim_ack_idle without shim");
        let Some(ack) = shim.recv_slot(from, to, epoch).on_ack_idle(gen) else {
            return;
        };
        self.core.stats.shim.acks_sent += 1;
        self.physical_send(to, from, Wire::Ack { ack });
    }

    /// Put one physical frame on the `from → to` channel: delay choice
    /// (strategy or seeded draw), fault adversary, incarnation-scoped FIFO
    /// clamp, optional duplicate ghost. With the shim disabled every frame
    /// is a bare protocol message and this is, bit for bit, the historical
    /// send path.
    fn physical_send(&mut self, from: NodeId, to: NodeId, wire: Wire<P::Msg>) {
        let kind = match &wire {
            Wire::Plain(m) | Wire::Data { msg: m, .. } => P::msg_kind(m),
            Wire::Ack { .. } => "ack",
        };
        let earliest = self.core.cfg.min_message_delay;
        let latest = self.core.cfg.max_message_delay;
        // Strategy path: hand the legal window (and what the delivery can
        // be ordered against) to the injected policy. The default path is
        // untouched so strategy-less runs stay bit-for-bit identical to
        // every pre-existing experiment. The choice is assembled first
        // (immutable borrows only) so the policy can then be borrowed
        // mutably.
        let choice = self.core.sched.is_some().then(|| {
            let deadline = self.core.now + latest;
            let (mut pending_in_window, mut pending_dependent_in_window) = (0usize, 0usize);
            for (at, _, item) in self.core.queue.iter() {
                if at > deadline {
                    continue;
                }
                pending_in_window += 1;
                if item_node(item).is_none_or(|n| n == to) {
                    pending_dependent_in_window += 1;
                }
            }
            let digest = match self
                .core
                .sched
                .as_ref()
                .map_or(sched::DigestMode::Off, |s| s.digest_mode())
            {
                sched::DigestMode::Off => None,
                sched::DigestMode::Absolute => self.state_digest(),
                sched::DigestMode::Progress => self.progress_digest(),
            };
            DeliveryChoice {
                from,
                to,
                kind,
                now: self.core.now,
                earliest,
                latest,
                pending_in_window,
                pending_dependent_in_window,
                fifo_floor: self.core.links.fifo_floor(from, to),
                digest,
            }
        });
        let delay = match (&choice, self.core.sched.as_mut()) {
            (Some(choice), Some(strategy)) => {
                let picked = strategy.choose_delay(choice);
                if picked < earliest || picked > latest {
                    // A malformed imported schedule or buggy policy. The
                    // old silent clamp reordered the replay while claiming
                    // conformance; now the run aborts at the next loop
                    // iteration. The clamped value still schedules the
                    // delivery so the aborted engine's state stays
                    // coherent for inspection.
                    self.core.abort.get_or_insert(RunAbort::DelayOutOfWindow {
                        channel: "strategy",
                        from,
                        to,
                        delay: picked,
                        earliest,
                        latest,
                    });
                }
                picked.clamp(earliest, latest)
            }
            // No strategy: the configured channel model maps the frame to
            // a delay (or a loss). `Iid` is the historical draw, verbatim
            // and at the same stream position, so default runs stay
            // bit-for-bit identical to every pre-existing experiment.
            _ => match self.core.cfg.channel.clone() {
                ChannelConfig::Iid => self.core.rng.gen_range(earliest..=latest),
                ChannelConfig::GilbertElliott { .. } => {
                    // Delay stays the i.i.d. draw from the main stream (at
                    // the exact position Iid uses); the chain itself steps
                    // on the dedicated channel stream, so an all-good
                    // chain leaves traces unchanged.
                    let drawn = self.core.rng.gen_range(earliest..=latest);
                    let epoch = self.core.links.current_epoch(from, to);
                    let (flipped, lost) = self
                        .core
                        .channel
                        .as_mut()
                        .map_or((false, false), |ch| ch.ge_step(from, to, epoch));
                    self.core.stats.channel.burst_transitions += flipped as u64;
                    if lost {
                        self.core.stats.channel.frames_lost += 1;
                        self.core
                            .trace
                            .record(self.core.now, TraceKind::ChannelLoss(from, to));
                        return;
                    }
                    drawn
                }
                ChannelConfig::ConstantBandwidth {
                    ticks_per_frame,
                    max_queue,
                } => {
                    if ticks_per_frame < earliest || ticks_per_frame > latest {
                        // Misconfigured model: the serialization time does
                        // not fit the legal window. Abort (no silent
                        // clamp-and-carry-on) but still schedule the
                        // clamped frame so the stopped engine stays
                        // coherent for inspection — same contract as the
                        // strategy path above.
                        self.core.abort.get_or_insert(RunAbort::DelayOutOfWindow {
                            channel: "constant-bandwidth",
                            from,
                            to,
                            delay: ticks_per_frame,
                            earliest,
                            latest,
                        });
                    }
                    let frame = ticks_per_frame.clamp(earliest, latest);
                    let now = self.core.now;
                    let epoch = self.core.links.current_epoch(from, to);
                    let slot = self
                        .core
                        .channel
                        .as_mut()
                        .expect("channel state exists for non-iid models")
                        .cb_slot(from, to, epoch);
                    // Frames whose scheduled completion has passed have
                    // left the link.
                    while slot.inflight.front().is_some_and(|&t| t <= now) {
                        slot.inflight.pop_front();
                    }
                    if slot.inflight.len() >= max_queue {
                        self.core
                            .abort
                            .get_or_insert(RunAbort::ChannelQueueOverflow {
                                from,
                                to,
                                limit: max_queue,
                            });
                        return;
                    }
                    let start = slot.busy_until.max(now);
                    let done = start + frame;
                    slot.busy_until = done;
                    slot.inflight.push_back(done);
                    let depth = slot.inflight.len() as u64;
                    self.core.stats.channel.frames_queued += (start > now) as u64;
                    let peak = &mut self.core.stats.channel.queue_peak;
                    *peak = (*peak).max(depth);
                    // Queueing delay is emergent: the frame arrives when
                    // the link finishes serializing everything ahead of
                    // it, which may exceed ν under sustained load.
                    done.0 - now.0
                }
                ChannelConfig::SharedMedium {
                    ticks_per_frame,
                    max_inflight,
                } => {
                    self.shared_medium_send(
                        from,
                        to,
                        wire,
                        ticks_per_frame,
                        max_inflight,
                        earliest,
                        latest,
                    );
                    return;
                }
            },
        };
        let now = self.core.now;
        let mut at = now + delay;
        // ── Fault adversary ────────────────────────────────────────────
        // All decisions draw from the dedicated fault RNG, in a fixed
        // order (ν-override, drop, duplicate, skew), so runs replay
        // byte-for-byte and an empty plan perturbs nothing.
        if let Some(da) = &self.core.cfg.fault.max_delay {
            if da.applies(from, to, now) {
                at = now + self.core.cfg.max_message_delay;
                self.core.stats.faults.max_delay_forced += 1;
                self.core.trace.record(now, TraceKind::FaultDelay(from, to));
            }
        }
        let mut duplicate_lag = None;
        if let Some(lf) = &self.core.cfg.fault.link {
            if lf.applies(from, to, now) {
                if self.core.fault_rng.gen_bool(lf.rate(lf.drop, now)) {
                    // Never handed to the network: the ledger counts it
                    // under `faults.msgs_dropped` only.
                    self.core.stats.faults.msgs_dropped += 1;
                    self.core.trace.record(now, TraceKind::FaultDrop(from, to));
                    return;
                }
                if self.core.fault_rng.gen_bool(lf.rate(lf.duplicate, now)) {
                    let lag = lf.dup_lag.unwrap_or(self.core.cfg.max_message_delay);
                    duplicate_lag = Some(lag.max(1));
                }
                if self.core.fault_rng.gen_bool(lf.rate(lf.skew, now)) {
                    at += lf.skew_ticks;
                    self.core.stats.faults.msgs_delayed += 1;
                    self.core.trace.record(now, TraceKind::FaultDelay(from, to));
                }
            }
        }
        // FIFO per directed channel, scoped to the link's current
        // incarnation: a floor recorded before a flap must not delay
        // post-reconnect traffic.
        if let Some(last) = self.core.links.fifo_floor(from, to) {
            if at <= last {
                at = last + 1;
            }
        }
        self.core.links.set_fifo_floor(from, to, at);
        let link_epoch = self.core.links.current_epoch(from, to);
        if let Some(lag) = duplicate_lag {
            // The ghost copy trails the original by `lag` ticks on the
            // same incarnation, and advances the FIFO floor so later
            // traffic still arrives in order relative to it.
            let dup_at = at + lag;
            self.core.links.set_fifo_floor(from, to, dup_at);
            self.core.stats.faults.msgs_duplicated += 1;
            self.core
                .trace
                .record(now, TraceKind::FaultDuplicate(from, to));
            let ghost = wire_item(from, to, link_epoch, wire.clone());
            self.core.push(dup_at, ghost);
        }
        let item = wire_item(from, to, link_epoch, wire);
        self.core.push(at, item);
    }

    /// Shared-medium send path: the frame becomes an in-flight
    /// transmission served at a fair-share rate of the sender's radio
    /// neighborhood; its delivery is scheduled by [`Engine::channel_tick`]
    /// when its remaining work drains. The fault adversary draws in the
    /// same fixed order as the common path (ν-override, drop, duplicate,
    /// skew); delay-shaped faults become extra delivery delay on top of
    /// the emergent service time, and a duplicate becomes a second flight
    /// trailing by the configured lag.
    #[allow(clippy::too_many_arguments)]
    fn shared_medium_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        wire: Wire<P::Msg>,
        ticks_per_frame: u64,
        max_inflight: usize,
        earliest: u64,
        latest: u64,
    ) {
        let now = self.core.now;
        if ticks_per_frame < earliest || ticks_per_frame > latest {
            // Same contract as the constant-bandwidth path: a full-rate
            // transmit time outside the window is a misconfiguration and
            // aborts the run; the clamped frame still flies so the
            // stopped engine stays coherent.
            self.core.abort.get_or_insert(RunAbort::DelayOutOfWindow {
                channel: "shared-medium",
                from,
                to,
                delay: ticks_per_frame,
                earliest,
                latest,
            });
        }
        let mut extra = 0u64;
        if let Some(da) = &self.core.cfg.fault.max_delay {
            if da.applies(from, to, now) {
                extra += self.core.cfg.max_message_delay;
                self.core.stats.faults.max_delay_forced += 1;
                self.core.trace.record(now, TraceKind::FaultDelay(from, to));
            }
        }
        let mut duplicate_lag = None;
        if let Some(lf) = &self.core.cfg.fault.link {
            if lf.applies(from, to, now) {
                if self.core.fault_rng.gen_bool(lf.rate(lf.drop, now)) {
                    self.core.stats.faults.msgs_dropped += 1;
                    self.core.trace.record(now, TraceKind::FaultDrop(from, to));
                    return;
                }
                if self.core.fault_rng.gen_bool(lf.rate(lf.duplicate, now)) {
                    let lag = lf.dup_lag.unwrap_or(self.core.cfg.max_message_delay);
                    duplicate_lag = Some(lag.max(1));
                }
                if self.core.fault_rng.gen_bool(lf.rate(lf.skew, now)) {
                    extra += lf.skew_ticks;
                    self.core.stats.faults.msgs_delayed += 1;
                    self.core.trace.record(now, TraceKind::FaultDelay(from, to));
                }
            }
        }
        let link_epoch = self.core.links.current_epoch(from, to);
        let mut span = self.core.world.neighbors(from).to_vec();
        span.push(from);
        let depth = self
            .core
            .channel
            .as_ref()
            .map_or(0, |ch| ch.sm_audible(&span));
        if depth >= max_inflight {
            self.core
                .abort
                .get_or_insert(RunAbort::ChannelQueueOverflow {
                    from,
                    to,
                    limit: max_inflight,
                });
            return;
        }
        self.core.stats.channel.frames_queued += (depth > 0) as u64;
        let peak = &mut self.core.stats.channel.queue_peak;
        *peak = (*peak).max(depth as u64 + 1);
        let ghost = duplicate_lag.map(|lag| {
            self.core.stats.faults.msgs_duplicated += 1;
            self.core
                .trace
                .record(now, TraceKind::FaultDuplicate(from, to));
            (wire.clone(), lag)
        });
        let remaining = ticks_per_frame.clamp(earliest, latest) as f64;
        if let Some(ch) = self.core.channel.as_mut() {
            ch.sm_enqueue(
                Flight {
                    from,
                    to,
                    link_epoch,
                    wire,
                    remaining,
                    rate: 0.0,
                    extra_delay: extra,
                    span: span.clone(),
                },
                now,
            );
            if let Some((dup_wire, lag)) = ghost {
                ch.sm_enqueue(
                    Flight {
                        from,
                        to,
                        link_epoch,
                        wire: dup_wire,
                        remaining,
                        rate: 0.0,
                        extra_delay: extra + lag,
                        span,
                    },
                    now,
                );
            }
        }
        self.channel_rearm(now);
    }

    /// Arm (or re-arm) the shared-medium completion scan at the earliest
    /// instant any in-flight frame could finish at current rates. Bumping
    /// the generation invalidates every previously armed scan.
    fn channel_rearm(&mut self, now: SimTime) {
        let Some(ch) = self.core.channel.as_mut() else {
            return;
        };
        let Some(at) = ch.sm_eta(now) else {
            return;
        };
        ch.gen += 1;
        let gen = ch.gen;
        self.core.push(at, Item::ChannelTick { gen });
    }

    /// Shared-medium completion scan: drain every frame whose remaining
    /// work has hit zero, schedule its delivery (FIFO-clamped on its link
    /// incarnation; stale incarnations die in flight at dispatch exactly
    /// like queued frames), and re-arm for the next completion.
    fn channel_tick(&mut self, gen: u64) {
        let now = self.core.now;
        let done = {
            let Some(ch) = self.core.channel.as_mut() else {
                return;
            };
            if ch.gen != gen {
                return;
            }
            ch.sm_take_completed(now)
        };
        for flight in done {
            let mut at = now + flight.extra_delay;
            if self.core.links.current_epoch(flight.from, flight.to) == flight.link_epoch {
                if let Some(last) = self.core.links.fifo_floor(flight.from, flight.to) {
                    if at <= last {
                        at = last + 1;
                    }
                }
                self.core.links.set_fifo_floor(flight.from, flight.to, at);
            }
            self.core.push(
                at,
                wire_item(flight.from, flight.to, flight.link_epoch, flight.wire),
            );
        }
        self.channel_rearm(now);
    }

    fn fire_quantum_end(&mut self) {
        self.fire_hooks(|h, view, sink| h.on_quantum_end(view, sink));
    }

    fn fire_hooks<F>(&mut self, mut f: F)
    where
        F: FnMut(&mut dyn Hook<P::Msg>, &View<'_>, &mut Sink),
    {
        if self.hooks.is_empty() {
            return;
        }
        let mut sink = Sink { scheduled: vec![] };
        {
            let view = self.core.view();
            for hook in &mut self.hooks {
                f(hook.as_mut(), &view, &mut sink);
            }
        }
        for (at, cmd) in sink.scheduled {
            // Hooks are an external surface like `Engine::schedule`: a
            // request for an already-passed instant means "now".
            let at = at.max(self.core.now);
            self.core.push(at, Item::Command(cmd));
        }
    }
}

/// The queue item a physical frame becomes, keyed to the link incarnation
/// it was sent on.
fn wire_item<M>(from: NodeId, to: NodeId, link_epoch: u64, wire: Wire<M>) -> Item<M> {
    match wire {
        Wire::Plain(msg) => Item::Deliver {
            from,
            to,
            msg,
            link_epoch,
        },
        Wire::Data { seq, ack, msg } => Item::ShimData {
            from,
            to,
            msg,
            link_epoch,
            seq,
            ack,
        },
        Wire::Ack { ack } => Item::ShimAck {
            from,
            to,
            link_epoch,
            ack,
        },
    }
}

/// The node at which a queued item dispatches, for dependent-delivery
/// counting: two queued items interact only when they dispatch at the same
/// node (the receiving automata share no state otherwise). `None` means the
/// item has global effect (commands may retarget any node, channel ticks
/// reshape every in-flight frame) and must be counted as dependent on
/// everything.
fn item_node<M>(item: &Item<M>) -> Option<NodeId> {
    match item {
        Item::Deliver { to, .. } | Item::ShimData { to, .. } => Some(*to),
        Item::Proto { node, .. } | Item::MoveStep { node, .. } | Item::MotionDone { node, .. } => {
            Some(*node)
        }
        // A standalone ack dispatches at the shim of its receiver `to`; an
        // RTO fires at the sender `from`; the idle-ack timer fires at the
        // receiver of the `from → to` data channel, i.e. `to`.
        Item::ShimAck { to, .. } | Item::ShimAckIdle { to, .. } => Some(*to),
        Item::ShimRto { from, .. } => Some(*from),
        Item::Command(_) | Item::ChannelTick { .. } => None,
    }
}

/// Content fingerprint of one queued item, for [`Engine::state_digest`].
/// Message and event payloads are hashed via their `Debug` rendering
/// (deterministic; `Protocol::Msg: Debug` is already required).
fn item_digest<M: std::fmt::Debug>(item: &Item<M>) -> u64 {
    let mut h = sched::Fnv::new();
    match item {
        Item::Deliver {
            from,
            to,
            msg,
            link_epoch,
        } => {
            h.write_u64(1);
            h.write_u64(from.0 as u64);
            h.write_u64(to.0 as u64);
            h.write_u64(*link_epoch);
            h.write_u64(sched::digest_of_debug(msg));
        }
        Item::Proto { node, ev } => {
            h.write_u64(2);
            h.write_u64(node.0 as u64);
            h.write_u64(sched::digest_of_debug(ev));
        }
        Item::Command(cmd) => {
            h.write_u64(3);
            h.write_u64(sched::digest_of_debug(cmd));
        }
        Item::MoveStep { node, epoch } => {
            h.write_u64(4);
            h.write_u64(node.0 as u64);
            h.write_u64(*epoch);
        }
        Item::MotionDone { node, epoch } => {
            h.write_u64(5);
            h.write_u64(node.0 as u64);
            h.write_u64(*epoch);
        }
        Item::ShimData {
            from,
            to,
            msg,
            link_epoch,
            seq,
            ack,
        } => {
            h.write_u64(6);
            h.write_u64(from.0 as u64);
            h.write_u64(to.0 as u64);
            h.write_u64(*link_epoch);
            h.write_u64(*seq);
            h.write_u64(*ack);
            h.write_u64(sched::digest_of_debug(msg));
        }
        Item::ShimAck {
            from,
            to,
            link_epoch,
            ack,
        } => {
            h.write_u64(7);
            h.write_u64(from.0 as u64);
            h.write_u64(to.0 as u64);
            h.write_u64(*link_epoch);
            h.write_u64(*ack);
        }
        Item::ShimRto {
            from,
            to,
            epoch,
            gen,
        } => {
            h.write_u64(8);
            h.write_u64(from.0 as u64);
            h.write_u64(to.0 as u64);
            h.write_u64(*epoch);
            h.write_u64(*gen);
        }
        Item::ShimAckIdle {
            from,
            to,
            epoch,
            gen,
        } => {
            h.write_u64(9);
            h.write_u64(from.0 as u64);
            h.write_u64(to.0 as u64);
            h.write_u64(*epoch);
            h.write_u64(*gen);
        }
        Item::ChannelTick { gen } => {
            h.write_u64(10);
            h.write_u64(*gen);
        }
    }
    h.finish()
}

/// Seed of the dedicated fault RNG: explicit when the plan names one,
/// otherwise a salt of the run seed (so distinct run seeds explore
/// distinct fault schedules with no extra configuration).
fn fault_seed(cfg: &SimConfig) -> u64 {
    if cfg.fault.seed != 0 {
        cfg.fault.seed
    } else {
        cfg.seed ^ 0xFA01_7001_AD5E_ED00
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo protocol: replies `x+1` to any numeric message; used to test
    /// delivery, FIFO and link semantics.
    struct Echo {
        state: DiningState,
        received: Vec<(NodeId, u64)>,
    }

    impl Protocol for Echo {
        type Msg = u64;
        fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
            match ev {
                Event::Hungry => self.state = DiningState::Eating,
                Event::ExitCs => self.state = DiningState::Thinking,
                Event::Message { from, msg } => {
                    self.received.push((from, msg));
                    if msg < 3 {
                        ctx.send(from, msg + 1);
                    }
                }
                Event::Timer { token } => {
                    // Kick off a ping-pong with the first neighbor.
                    if let Some(&n) = ctx.neighbors().first() {
                        ctx.send(n, token);
                    }
                }
                _ => {}
            }
        }
        fn dining_state(&self) -> DiningState {
            self.state
        }
    }

    fn engine2() -> Engine<Echo> {
        Engine::new(
            SimConfig {
                trace: true,
                ..SimConfig::default()
            },
            vec![(0.0, 0.0), (1.0, 0.0)],
            |_| Echo {
                state: DiningState::Thinking,
                received: vec![],
            },
        )
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut e = engine2();
        // Fire a timer on node 0 that starts a ping-pong 0 -> 1 -> 0 ...
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        // 0 sent 0; 1 replied 1; 0 replied 2; 1 replied 3 (no further reply).
        assert_eq!(
            e.protocol(NodeId(1)).received,
            vec![(NodeId(0), 0), (NodeId(0), 2)]
        );
        assert_eq!(
            e.protocol(NodeId(0)).received,
            vec![(NodeId(1), 1), (NodeId(1), 3)]
        );
        assert_eq!(e.stats().messages_sent, 4);
        assert_eq!(e.stats().messages_delivered, 4);
    }

    #[test]
    fn fifo_order_is_preserved_per_channel() {
        struct Burst {
            got: Vec<u64>,
        }
        impl Protocol for Burst {
            type Msg = u64;
            fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
                match ev {
                    Event::Timer { .. } => {
                        for i in 0..50 {
                            if let Some(&n) = ctx.neighbors().first() {
                                ctx.send(n, i);
                            }
                        }
                    }
                    Event::Message { msg, .. } => self.got.push(msg),
                    _ => {}
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Burst> =
            Engine::new(SimConfig::default(), vec![(0.0, 0.0), (1.0, 0.0)], |_| {
                Burst { got: vec![] }
            });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(10_000));
        let got = &e.protocol(NodeId(1)).got;
        assert_eq!(got.len(), 50);
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "FIFO violated: {got:?}"
        );
    }

    #[test]
    fn crashed_node_stops_processing() {
        let mut e = engine2();
        e.crash_at(SimTime(1), NodeId(1));
        e.core.push(
            SimTime(2),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 7 },
            },
        );
        e.run_until(SimTime(1_000));
        assert!(e.protocol(NodeId(1)).received.is_empty());
        assert!(e.world().is_crashed(NodeId(1)));
    }

    #[test]
    fn hungry_and_exit_commands_respect_state_and_session() {
        let mut e = engine2();
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(2));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
        // Wrong session: ignored.
        e.schedule(
            SimTime(3),
            Command::ExitCs {
                node: NodeId(0),
                session: 99,
            },
        );
        e.run_until(SimTime(4));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
        // Right session (first eating session = 1).
        e.schedule(
            SimTime(5),
            Command::ExitCs {
                node: NodeId(0),
                session: 1,
            },
        );
        e.run_until(SimTime(6));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Thinking);
    }

    #[test]
    fn teleport_generates_link_events_with_mover_semantics() {
        struct Watcher {
            ups: Vec<(NodeId, LinkUpKind)>,
            downs: Vec<NodeId>,
            move_events: u32,
        }
        impl Protocol for Watcher {
            type Msg = ();
            fn on_event(&mut self, ev: Event<()>, _ctx: &mut Context<'_, ()>) {
                match ev {
                    Event::LinkUp { peer, kind } => self.ups.push((peer, kind)),
                    Event::LinkDown { peer } => self.downs.push(peer),
                    Event::MovementStarted | Event::MovementEnded => self.move_events += 1,
                    _ => {}
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        // p0 - p1 linked; p2 isolated far away.
        let mut e: Engine<Watcher> = Engine::new(
            SimConfig::default(),
            vec![(0.0, 0.0), (1.0, 0.0), (100.0, 0.0)],
            |_| Watcher {
                ups: vec![],
                downs: vec![],
                move_events: 0,
            },
        );
        // Teleport p1 next to p2: p1 loses p0, gains p2 as the moving side.
        e.teleport_at(SimTime(5), NodeId(1), (99.0, 0.0));
        e.run_until(SimTime(10));
        assert_eq!(e.protocol(NodeId(0)).downs, vec![NodeId(1)]);
        assert_eq!(
            e.protocol(NodeId(1)).ups,
            vec![(NodeId(2), LinkUpKind::AsMoving)]
        );
        assert_eq!(
            e.protocol(NodeId(2)).ups,
            vec![(NodeId(1), LinkUpKind::AsStatic)]
        );
        assert_eq!(e.protocol(NodeId(1)).move_events, 2); // started + ended
        assert!(e.world().linked(NodeId(1), NodeId(2)));
        assert!(!e.world().linked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn messages_in_flight_die_with_their_link() {
        let mut e = engine2();
        // Long delays so the message is in flight when the link breaks.
        e.core.cfg.min_message_delay = 50;
        e.core.cfg.max_message_delay = 60;
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 9 },
            },
        );
        e.teleport_at(SimTime(5), NodeId(1), (50.0, 0.0));
        e.run_until(SimTime(1_000));
        assert!(e.protocol(NodeId(1)).received.is_empty());
        assert_eq!(e.stats().dropped_in_flight, 1);
        assert_eq!(e.stats().dropped_at_send, 0);
        assert_eq!(e.stats().messages_dropped(), 1);
    }

    #[test]
    fn fifo_floor_does_not_survive_a_link_flap() {
        // Regression: `fifo_last` used to persist across link incarnations,
        // so a burst sent before a flap kept clamping (delaying) messages
        // sent after the reconnect. The floor must die with the link.
        struct Burst {
            got: Vec<(u64, SimTime)>,
        }
        impl Protocol for Burst {
            type Msg = u64;
            fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
                match ev {
                    Event::Timer { token } => {
                        // A burst of 40 messages: FIFO serialization pushes
                        // the channel's arrival floor far past `now + ν`.
                        if let Some(&n) = ctx.neighbors().first() {
                            for i in 0..40 {
                                ctx.send(n, token + i);
                            }
                        }
                    }
                    Event::Message { msg, .. } => self.got.push((msg, ctx.time())),
                    _ => {}
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Burst> =
            Engine::new(SimConfig::default(), vec![(0.0, 0.0), (1.0, 0.0)], |_| {
                Burst { got: vec![] }
            });
        // t=1: node 0 sends a 40-message burst; the FIFO floor of channel
        // 0→1 climbs to ≥ 40 ticks.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        // t=5: node 1 teleports away (link down, most of the burst dies in
        // flight) and immediately back (link up, fresh incarnation).
        e.teleport_at(SimTime(5), NodeId(1), (50.0, 0.0));
        e.teleport_at(SimTime(6), NodeId(1), (1.0, 0.0));
        e.run_until(SimTime(5_000));
        let floor_before_flap = e
            .protocol(NodeId(1))
            .got
            .iter()
            .map(|&(_, at)| at)
            .max()
            .unwrap_or(SimTime::ZERO);
        // t=100: a single post-reconnect message. With the stale floor it
        // would be clamped to ~t=41+; with epoch-scoped FIFO it arrives
        // within ν of its send time.
        let mut e2 = e;
        e2.core.push(
            SimTime(100),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1_000 },
            },
        );
        e2.run_until(SimTime(5_000));
        let first_post = e2
            .protocol(NodeId(1))
            .got
            .iter()
            .find(|&&(msg, _)| msg >= 1_000)
            .map(|&(_, at)| at)
            .expect("post-reconnect burst delivered");
        assert!(
            first_post >= SimTime(101) && first_post <= SimTime(100 + 10),
            "post-reconnect message clamped by a dead incarnation's FIFO floor: \
             arrived {first_post:?} (pre-flap floor {floor_before_flap:?})"
        );
        // And the flap actually killed in-flight messages, so the scenario
        // exercises what it claims to.
        assert!(e2.stats().dropped_in_flight > 0);
    }

    #[test]
    fn drop_counters_split_send_races_from_in_flight_losses() {
        // Node 0 replies to every message; node 1 departs while a reply is
        // in flight → in-flight loss. A protocol that sends to a neighbor
        // that vanished within the same handler → at-send loss.
        struct Pinger;
        impl Protocol for Pinger {
            type Msg = u64;
            fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
                if let Event::Timer { .. } = ev {
                    // Sent unconditionally: if the link is already gone
                    // this is a send-time drop.
                    ctx.send(NodeId(1), 1);
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Pinger> = Engine::new(
            SimConfig {
                min_message_delay: 50,
                max_message_delay: 60,
                ..SimConfig::default()
            },
            vec![(0.0, 0.0), (1.0, 0.0)],
            |_| Pinger,
        );
        // In flight when the link dies at t=10.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.teleport_at(SimTime(10), NodeId(1), (50.0, 0.0));
        // Sent after the link is gone: dropped at send.
        e.core.push(
            SimTime(20),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1 },
            },
        );
        e.run_until(SimTime(1_000));
        let s = e.stats();
        assert_eq!(s.dropped_in_flight, 1, "{s:?}");
        assert_eq!(s.dropped_at_send, 1, "{s:?}");
        assert_eq!(s.messages_dropped(), 2);
        // At-send drops never entered the network, so the ledger is
        // sent = delivered + died-in-flight.
        assert_eq!(s.messages_sent, s.messages_delivered + s.dropped_in_flight);
    }

    #[test]
    fn smooth_movement_reaches_destination_and_churns_links() {
        let mut e = engine2();
        e.schedule(
            SimTime(1),
            Command::StartMove {
                node: NodeId(1),
                dest: Position { x: 10.0, y: 0.0 },
                speed: 0.5,
            },
        );
        e.run_until(SimTime(200));
        assert_eq!(e.world().position(NodeId(1)), Position { x: 10.0, y: 0.0 });
        assert!(!e.world().is_moving(NodeId(1)));
        assert!(!e.world().linked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut e = engine2();
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(0),
                    ev: Event::Timer { token: 0 },
                },
            );
            e.run_until(SimTime(500));
            (e.stats().clone(), e.trace().to_vec())
        };
        let (s1, t1) = run();
        let (s2, t2) = run();
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
    }

    /// One-shot sender: on its timer it sends `count` copies of distinct
    /// numbered messages to its first neighbor; never replies.
    struct Sender {
        got: Vec<(u64, SimTime)>,
    }
    impl Protocol for Sender {
        type Msg = u64;
        fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
            match ev {
                Event::Timer { token } => {
                    if let Some(&n) = ctx.neighbors().first() {
                        for i in 0..(token % 1_000) {
                            ctx.send(n, token + i);
                        }
                    }
                }
                Event::Message { msg, .. } => self.got.push((msg, ctx.time())),
                _ => {}
            }
        }
        fn dining_state(&self) -> DiningState {
            DiningState::Thinking
        }
    }

    fn sender_engine(cfg: SimConfig) -> Engine<Sender> {
        Engine::new(cfg, vec![(0.0, 0.0), (1.0, 0.0)], |_| Sender {
            got: vec![],
        })
    }

    #[test]
    fn fault_drops_never_reach_the_network() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                link: Some(LinkFaults {
                    drop: 1.0,
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        // token = 100 → 100 messages, all dropped by the adversary.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 100 },
            },
        );
        e.run_until(SimTime(1_000));
        let s = e.stats();
        assert_eq!(s.messages_sent, 100);
        assert_eq!(s.faults.msgs_dropped, 100);
        assert_eq!(s.messages_delivered, 0);
        assert_eq!(s.dropped_in_flight, 0);
        assert!(e.protocol(NodeId(1)).got.is_empty());
    }

    #[test]
    fn duplicates_arrive_later_same_payload_and_balance_the_ledger() {
        use crate::fault::{FaultPlan, LinkFaults};
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                link: Some(LinkFaults {
                    duplicate: 1.0,
                    dup_lag: Some(25),
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 5 },
            },
        );
        e.run_until(SimTime(1_000));
        let s = e.stats();
        assert_eq!(s.messages_sent, 5);
        assert_eq!(s.faults.msgs_duplicated, 5);
        assert_eq!(s.messages_delivered, 10);
        // sent + duplicated = delivered + fault-dropped + died-in-flight.
        assert_eq!(
            s.messages_sent + s.faults.msgs_duplicated,
            s.messages_delivered + s.faults.msgs_dropped + s.dropped_in_flight
        );
        let got = &e.protocol(NodeId(1)).got;
        // Each payload exactly twice, ghost strictly later.
        for i in 5..10 {
            let times: Vec<SimTime> = got
                .iter()
                .filter(|&&(m, _)| m == i)
                .map(|&(_, at)| at)
                .collect();
            assert_eq!(times.len(), 2, "payload {i} delivered {times:?}");
            assert!(times[0] < times[1], "ghost of {i} not strictly later");
        }
    }

    #[test]
    fn skew_and_max_delay_adversary_stretch_delays() {
        use crate::fault::{DelayAdversary, FaultPlan, LinkFaults};
        // Adaptive adversary alone: every delivery takes exactly ν.
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                max_delay: Some(DelayAdversary {
                    targets: vec![NodeId(1)],
                    window: None,
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.stats().faults.max_delay_forced, 1);
        assert_eq!(e.protocol(NodeId(1)).got, vec![(1, SimTime(1 + 10))]);
        // Skew alone: delivery beyond ν of the send instant.
        let mut e = sender_engine(SimConfig {
            fault: FaultPlan {
                link: Some(LinkFaults {
                    skew: 1.0,
                    skew_ticks: 40,
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.stats().faults.msgs_delayed, 1);
        let (_, at) = e.protocol(NodeId(1)).got[0];
        assert!(at > SimTime(1 + 10), "skew must exceed ν: {at:?}");
    }

    #[test]
    fn fault_runs_replay_byte_for_byte_from_the_same_seed() {
        use crate::fault::{Burst, FaultPlan, LinkFaults};
        let run = |fault_seed: u64| {
            let mut e = sender_engine(SimConfig {
                trace: true,
                fault: FaultPlan {
                    seed: fault_seed,
                    link: Some(LinkFaults {
                        drop: 0.3,
                        duplicate: 0.3,
                        skew: 0.3,
                        skew_ticks: 15,
                        burst: Some(Burst {
                            period: 50,
                            active: 20,
                            factor: 2.0,
                        }),
                        ..LinkFaults::default()
                    }),
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            });
            for t in 0..20 {
                e.core.push(
                    SimTime(1 + t * 7),
                    Item::Proto {
                        node: NodeId(0),
                        ev: Event::Timer { token: 10 },
                    },
                );
            }
            e.run_until(SimTime(2_000));
            (e.stats().clone(), e.trace().to_vec())
        };
        let (s1, t1) = run(42);
        let (s2, t2) = run(42);
        assert_eq!(s1, s2);
        assert_eq!(t1, t2);
        assert!(s1.faults.total() > 0, "plan injected nothing: {s1:?}");
        // A different fault seed explores a different schedule.
        let (s3, _) = run(43);
        assert_ne!(s1.faults, s3.faults);
    }

    #[test]
    fn empty_plan_with_nonzero_seed_changes_nothing() {
        use crate::fault::FaultPlan;
        let run = |fault_seed: u64| {
            let mut e = sender_engine(SimConfig {
                trace: true,
                fault: FaultPlan {
                    seed: fault_seed,
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            });
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(0),
                    ev: Event::Timer { token: 30 },
                },
            );
            e.run_until(SimTime(2_000));
            (e.stats().clone(), e.trace().to_vec())
        };
        // The fault RNG is never consulted when the plan is empty, so its
        // seed is irrelevant: the engine's own stream decides everything.
        assert_eq!(run(0), run(12_345));
    }

    #[test]
    fn partition_heal_cycle_behaves_like_fresh_link_incarnations() {
        // Satellite of the fault-injection issue, extending the teleport
        // FIFO regression: a healed partition must not resurrect the dead
        // incarnation's FIFO floors or its in-flight messages.
        use crate::fault::{FaultPlan, PartitionWindow};
        let mut e = sender_engine(SimConfig {
            trace: true,
            fault: FaultPlan {
                partitions: vec![PartitionWindow {
                    at: 5,
                    side: vec![NodeId(1)],
                    heal_after: 30,
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        });
        // t=1: a 40-message burst pushes the 0→1 FIFO floor past t=40.
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 40 },
            },
        );
        // t=100 (after the t=35 heal): a single probe message.
        e.core.push(
            SimTime(100),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 1_001 },
            },
        );
        e.run_until(SimTime(2_000));
        let s = e.stats();
        assert_eq!(s.faults.partitions, 1);
        assert_eq!(s.faults.heals, 1);
        assert!(
            s.dropped_in_flight > 0,
            "the cut must kill the in-flight burst: {s:?}"
        );
        let probe_at = e
            .protocol(NodeId(1))
            .got
            .iter()
            .find(|&&(m, _)| m >= 1_000)
            .map(|&(_, at)| at)
            .expect("post-heal message delivered");
        assert!(
            probe_at > SimTime(100) && probe_at <= SimTime(110),
            "post-heal message clamped by a dead incarnation's FIFO floor: {probe_at:?}"
        );
        // The healed link is a fresh incarnation: LinkUp with the
        // partitioned side (node 1) as the moving side.
        assert!(e
            .trace()
            .iter()
            .any(|t| t.kind == TraceKind::LinkUp(NodeId(0), NodeId(1)) && t.at == SimTime(35)));
        assert!(e
            .trace()
            .iter()
            .any(|t| t.kind == TraceKind::LinkDown(NodeId(0), NodeId(1)) && t.at == SimTime(5)));
    }

    #[test]
    fn crash_waves_fire_on_schedule() {
        use crate::fault::{CrashWave, FaultPlan};
        let mut e: Engine<Echo> = Engine::new(
            SimConfig {
                fault: FaultPlan {
                    crash_waves: vec![CrashWave {
                        at: 50,
                        nodes: vec![NodeId(0), NodeId(1)],
                    }],
                    ..FaultPlan::default()
                },
                ..SimConfig::default()
            },
            vec![(0.0, 0.0), (1.0, 0.0)],
            |_| Echo {
                state: DiningState::Thinking,
                received: vec![],
            },
        );
        e.run_until(SimTime(40));
        assert!(!e.world().is_crashed(NodeId(0)));
        e.run_until(SimTime(60));
        assert!(e.world().is_crashed(NodeId(0)));
        assert!(e.world().is_crashed(NodeId(1)));
        assert_eq!(e.stats().faults.crashes_injected, 2);
    }

    #[test]
    fn strategy_picks_delays_and_deliver_traces_carry_kind_and_seq() {
        struct AlwaysLatest;
        impl Strategy for AlwaysLatest {
            fn choose_delay(&mut self, c: &DeliveryChoice) -> u64 {
                c.latest
            }
        }
        let mut e = engine2();
        e.set_strategy(Box::new(AlwaysLatest));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.pending_events(), 0, "run must reach quiescence");
        let delivers: Vec<(SimTime, NodeId, u64)> = e
            .trace()
            .iter()
            .filter_map(|t| match t.kind {
                TraceKind::Deliver {
                    from, kind, seq, ..
                } => {
                    assert_eq!(kind, "msg", "Echo uses the default label");
                    Some((t.at, from, seq))
                }
                _ => None,
            })
            .collect();
        // Ping-pong of 4 messages, each delivered exactly ν after its send:
        // t = 11, 21, 31, 41.
        assert_eq!(
            delivers.iter().map(|&(at, _, _)| at).collect::<Vec<_>>(),
            vec![SimTime(11), SimTime(21), SimTime(31), SimTime(41)]
        );
        // Per-directed-channel numbering: each channel carries 2 messages.
        assert_eq!(
            delivers
                .iter()
                .map(|&(_, from, seq)| (from, seq))
                .collect::<Vec<_>>(),
            vec![
                (NodeId(0), 1),
                (NodeId(1), 1),
                (NodeId(0), 2),
                (NodeId(1), 2)
            ]
        );
    }

    #[test]
    fn random_delay_strategy_replays_from_its_seed() {
        let run = |seed: u64| {
            let mut e = engine2();
            e.set_strategy(Box::new(crate::sched::RandomDelays::new(seed)));
            e.core.push(
                SimTime(1),
                Item::Proto {
                    node: NodeId(0),
                    ev: Event::Timer { token: 0 },
                },
            );
            e.run_until(SimTime(1_000));
            (e.stats().clone(), e.trace().to_vec())
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn malformed_replay_schedule_is_rejected_not_reordered() {
        // Regression: a delay below the legal window used to be clamped
        // silently, so a corrupt imported schedule replayed as a *different*
        // run that still claimed conformance. It must abort instead.
        let mut s = crate::sched::ImportedSchedule::new(5);
        s.push(NodeId(0), NodeId(1), 0); // below min_message_delay = 1
        let mut e = engine2();
        e.set_strategy(Box::new(s));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        let reached = e.run_until(SimTime(1_000));
        assert_eq!(
            e.abort(),
            Some(&RunAbort::DelayOutOfWindow {
                channel: "strategy",
                from: NodeId(0),
                to: NodeId(1),
                delay: 0,
                earliest: 1,
                latest: 10,
            })
        );
        assert!(reached < SimTime(1_000), "run must stop early");
        // The abort is sticky: nothing further dispatches.
        let events = e.stats().events;
        e.run_until(SimTime(2_000));
        assert_eq!(e.stats().events, events);
        // And a delay above ν is rejected the same way.
        let mut s = crate::sched::ImportedSchedule::new(5);
        s.push(NodeId(0), NodeId(1), 99);
        let mut e = engine2();
        e.set_strategy(Box::new(s));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        assert!(matches!(
            e.abort(),
            Some(&RunAbort::DelayOutOfWindow { delay: 99, .. })
        ));
        // In-window schedules still run to quiescence with no abort.
        let mut s = crate::sched::ImportedSchedule::new(5);
        s.push(NodeId(0), NodeId(1), 3);
        let mut e = engine2();
        e.set_strategy(Box::new(s));
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000));
        assert_eq!(e.abort(), None);
        assert_eq!(e.pending_events(), 0);
    }

    #[test]
    fn event_budget_overrun_aborts_instead_of_panicking() {
        // Echo ping-pong is finite, so drive an infinite timer loop.
        struct Ticker;
        impl Protocol for Ticker {
            type Msg = ();
            fn on_event(&mut self, ev: Event<()>, ctx: &mut Context<'_, ()>) {
                if let Event::Timer { token } = ev {
                    ctx.set_timer(1, token);
                }
            }
            fn dining_state(&self) -> DiningState {
                DiningState::Thinking
            }
        }
        let mut e: Engine<Ticker> = Engine::new(
            SimConfig {
                max_events: 100,
                ..SimConfig::default()
            },
            vec![(0.0, 0.0)],
            |_| Ticker,
        );
        e.core.push(
            SimTime(1),
            Item::Proto {
                node: NodeId(0),
                ev: Event::Timer { token: 0 },
            },
        );
        e.run_until(SimTime(1_000_000));
        assert_eq!(
            e.abort(),
            Some(&RunAbort::EventBudgetExceeded { limit: 100 })
        );
        // Exactly the budget is dispatched — the boundary the old panic
        // enforced — and the engine stays inspectable and inert.
        assert_eq!(e.stats().events, 100);
        e.run_until(SimTime(2_000_000));
        assert_eq!(e.stats().events, 100);
        assert!(e.abort().unwrap().to_string().contains("livelock"));
    }

    #[test]
    fn quantum_end_hook_fires_between_instants() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct Q(Rc<RefCell<Vec<SimTime>>>);
        impl Hook<u64> for Q {
            fn on_quantum_end(&mut self, view: &View<'_>, _sink: &mut Sink) {
                self.0.borrow_mut().push(view.time());
            }
        }
        let log = Rc::new(RefCell::new(vec![]));
        let mut e = engine2();
        e.add_hook(Box::new(Q(log.clone())));
        e.set_hungry_at(SimTime(3), NodeId(0));
        e.set_hungry_at(SimTime(7), NodeId(1));
        e.run_until(SimTime(10));
        let log = log.borrow();
        assert!(
            log.contains(&SimTime(3)) && log.contains(&SimTime(7)),
            "{log:?}"
        );
        // Monotone, no duplicates of the same instant in a row beyond re-opens.
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
    }
}
