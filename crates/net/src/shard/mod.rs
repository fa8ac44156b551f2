//! The live runtime: M worker threads host n ≫ M nodes.
//!
//! Every node is a sans-IO [`crate::host::NodeHost`] running one of the
//! *same* `Protocol` automata the simulator runs. This module owns the
//! threads, the transports and the driver:
//!
//! - **Contiguous shards.** Worker s owns nodes `[start_s, start_s +
//!   size_s)`; ownership never migrates, so all per-node state is
//!   thread-local to its worker.
//! - **Per-shard run queues on the simulator's timing wheel.** Each
//!   worker drives its node wakeups from a [`manet_sim::EventQueue`]
//!   keyed on virtual ticks — the same bounded-horizon queue the engine
//!   dispatches from — plus a local delivery queue for same-shard
//!   traffic.
//! - **Batched frames.** Cross-shard envelopes accumulate into one
//!   buffer per shard pair per flush ([`batch`]), riding a bounded SPSC
//!   ring ([`ring`]) in-process or a single datagram on UDP.
//! - **Backpressure, not buffering.** A full ring stalls the producer
//!   briefly and then aborts the run with a structured
//!   [`ShardAbort::RingBackpressure`]; a full ARQ window aborts with
//!   [`ShardAbort::ShimBufferOverflow`] — the live analogues of the
//!   engine's `RunAbort`s.
//! - **Per-shard ticket ranges.** Each shard stamps its records from its
//!   own hybrid logical clock ([`clock`]); the per-shard streams are
//!   k-way merged into one dense total order at export, and the merged
//!   [`crate::trace::LiveTrace`] flows through the safety-monitor
//!   mirror-World path.
//!
//! The driver (the calling thread) keeps the simulator's fault/mobility
//! semantics: the mirror `World`, the `LinkGate`, crash/recover/
//! partition/teleport actions, the static/moving symmetry breaking, and
//! one epoch per link incarnation. See DESIGN.md §15.

mod batch;
pub mod clock;
mod ring;

pub(crate) use clock::PublishedClock;
pub use clock::{merge_stamped, HybridClock, StampedRecord};

use std::collections::VecDeque;
use std::fmt;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use manet_sim::{
    EventQueue, LinkChange, LinkUpKind, NodeId, NodeSeed, Position, Protocol, SimConfig, SimTime,
    World,
};

use crate::codec::WireMsg;
use crate::host::{Ctrl, HostConfig, NodeHost, WireOut};
use crate::runtime::{LiveConfig, LiveOutcome, LiveRuntime};
use crate::trace::{LiveEventKind, LiveTrace};
use crate::transport::{LinkGate, TransportKind};

use batch::{batch_begin, batch_count, batch_decode, batch_push, batch_seal};
use ring::{ring, RingReceiver, RingSender};

/// Why a sharded run stopped instead of finishing — the live runtime's
/// analogue of the simulator's `RunAbort`. Rendered into the `Err`
/// returned by `run_live`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAbort {
    /// A cross-shard SPSC ring stayed full past the backpressure
    /// budget: the consumer shard cannot keep up and unbounded
    /// buffering is refused by design.
    RingBackpressure {
        /// The producing shard.
        from_shard: u32,
        /// The shard whose inbound ring stayed full.
        to_shard: u32,
        /// Ring capacity in batches.
        capacity: usize,
    },
    /// A node's ARQ window toward a peer filled with unacknowledged
    /// frames — the live mirror of `RunAbort::ShimBufferOverflow`.
    ShimBufferOverflow {
        /// The sending node.
        from: NodeId,
        /// The peer that stopped acknowledging.
        to: NodeId,
        /// The window, in frames.
        window: usize,
    },
}

impl fmt::Display for ShardAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardAbort::RingBackpressure {
                from_shard,
                to_shard,
                capacity,
            } => write!(
                f,
                "cross-shard ring {from_shard}->{to_shard} stayed full past the \
                 backpressure budget (capacity {capacity} batches); the consumer \
                 shard cannot keep up"
            ),
            ShardAbort::ShimBufferOverflow { from, to, window } => write!(
                f,
                "ARQ shim buffer overflow on channel {from}->{to} ({window} unacked frames)"
            ),
        }
    }
}

/// Internal knobs of the sharded runtime, separated from [`LiveConfig`]
/// so tests can force the backpressure path deterministically.
#[derive(Debug, Clone, Copy)]
pub struct ShardTuning {
    /// Capacity of each cross-shard ring, in batches (0 = always full).
    pub ring_capacity: usize,
    /// How long a producer retries a full ring before aborting.
    pub backpressure_wait_ms: u64,
}

impl Default for ShardTuning {
    fn default() -> ShardTuning {
        ShardTuning {
            ring_capacity: 1024,
            backpressure_wait_ms: 2_000,
        }
    }
}

/// State shared by the driver and every worker.
pub(crate) struct ShardShared {
    origin: Instant,
    /// Present only when a fault (crash/partition) can sever links;
    /// fault-free scale runs skip the O(n²) allocation.
    gate: Option<LinkGate>,
    pub(crate) sent: AtomicU64,
    pub(crate) delivered: AtomicU64,
    pub(crate) decode_errors: AtomicU64,
    pub(crate) send_failures: AtomicU64,
    pub(crate) retransmissions: AtomicU64,
    pub(crate) acks_sent: AtomicU64,
    /// Nodes that have eaten at least once (one-shot early stop).
    pub(crate) ate: AtomicU64,
    /// Each worker's latest record stamp, for the driver to order after.
    clocks: Vec<Arc<PublishedClock>>,
    /// Raised on abort so every thread winds down promptly.
    stop: AtomicBool,
    abort: Mutex<Option<ShardAbort>>,
    /// Worker thread handles for unparking, set once after spawn.
    wakers: OnceLock<Vec<Thread>>,
}

impl ShardShared {
    pub(crate) fn new(gate: Option<LinkGate>, workers: usize) -> ShardShared {
        ShardShared {
            origin: Instant::now(),
            gate,
            clocks: (0..workers).map(|_| Arc::default()).collect(),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            send_failures: AtomicU64::new(0),
            retransmissions: AtomicU64::new(0),
            acks_sent: AtomicU64::new(0),
            ate: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            abort: Mutex::new(None),
            wakers: OnceLock::new(),
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The largest stamp any worker has recorded so far.
    fn latest_stamp(&self) -> u64 {
        self.clocks.iter().map(|c| c.read()).max().unwrap_or(0)
    }

    pub(crate) fn severed(&self, a: NodeId, b: NodeId) -> bool {
        self.gate.as_ref().is_some_and(|g| g.is_severed(a, b))
    }

    fn wake(&self, shard: usize) {
        if let Some(wakers) = self.wakers.get() {
            if let Some(t) = wakers.get(shard) {
                t.unpark();
            }
        }
    }
}

/// Driver → worker control plane.
enum WorkerMsg {
    /// A control event for one owned node, stamped with the driver's
    /// clock so the node's reaction merges after the driver's records.
    Node {
        clock: u64,
        node: NodeId,
        ctrl: Ctrl,
    },
    /// Emit final per-node stats and exit.
    Shutdown { clock: u64 },
}

/// Per-worker transport endpoints.
enum Links {
    /// In-process: one bounded SPSC ring per ordered shard pair.
    Rings {
        /// Inbound rings, indexed by producing shard (`None` at self).
        rx: Vec<Option<RingReceiver<Vec<u8>>>>,
        /// Outbound rings, indexed by consuming shard (`None` at self).
        tx: Vec<Option<RingSender<Vec<u8>>>>,
    },
    /// One nonblocking UDP socket per shard; batches ride datagrams.
    Udp {
        socket: UdpSocket,
        peers: Vec<SocketAddr>,
    },
}

/// Keep UDP batch datagrams under the practical payload ceiling.
const UDP_BATCH_LIMIT: usize = 60_000;

/// Immutable per-worker parameters.
struct WorkerEnv {
    shard: u32,
    base: u32,
    workers: usize,
    tick_ns: u64,
    backpressure_wait_ms: u64,
    ring_capacity: usize,
    /// Global node id → owning shard.
    shard_map: Arc<Vec<u32>>,
}

/// A worker's node wakeups: the simulator's event queue keyed on virtual
/// ticks (`wall_ns / tick_ns`), plus the tick armed per node, so a node
/// is re-armed only when its earliest deadline moves earlier.
struct Wakeups {
    queue: EventQueue<u32>,
    /// Push counter; the queue breaks same-tick ties by it.
    seq: u64,
    next_wake: Vec<Option<u64>>,
    tick_ns: u64,
}

impl Wakeups {
    fn new(nodes: usize, tick_ns: u64) -> Wakeups {
        Wakeups {
            queue: EventQueue::new(1024),
            seq: 0,
            next_wake: vec![None; nodes],
            tick_ns,
        }
    }

    /// Arm node `i`'s earliest deadline, unless a tick at or before it is
    /// already armed.
    fn rearm<P>(&mut self, node: &NodeHost<P>, i: usize)
    where
        P: Protocol,
        P::Msg: WireMsg,
    {
        if let Some(at) = node.earliest_deadline_ns() {
            let tick = at.div_ceil(self.tick_ns);
            if self.next_wake[i].is_none_or(|armed| tick < armed) {
                self.seq += 1;
                self.queue.push(SimTime(tick), self.seq, i as u32);
                self.next_wake[i] = Some(tick);
            }
        }
    }

    /// Move every wakeup due at or before `now_ns` into `due`.
    fn pop_due(&mut self, now_ns: u64, due: &mut Vec<u32>) {
        let now_tick = now_ns / self.tick_ns;
        while self.queue.next_at().is_some_and(|at| at.0 <= now_tick) {
            let (_, _, i) = self.queue.pop().expect("a peeked wakeup pops");
            due.push(i);
        }
    }

    /// Wall time of the earliest armed wakeup.
    fn next_ns(&mut self) -> Option<u64> {
        self.queue
            .next_at()
            .map(|t| t.0.saturating_mul(self.tick_ns))
    }
}

/// Route everything a node call emitted: same-shard envelopes to the
/// local queue, cross-shard ones into the per-pair batch (splitting
/// batches that would exceed a UDP datagram into `ready`).
fn route_sends(
    wire: &mut WireOut,
    env: &WorkerEnv,
    udp: bool,
    local_q: &mut VecDeque<(NodeId, Vec<u8>)>,
    out_bufs: &mut [Vec<u8>],
    ready: &mut Vec<(usize, Vec<u8>)>,
) {
    for (to, envelope) in wire.sends.drain(..) {
        let s = env.shard_map[to.0 as usize] as usize;
        if s == env.shard as usize {
            local_q.push_back((to, envelope));
        } else {
            if udp
                && batch_count(&out_bufs[s]) > 0
                && out_bufs[s].len() + 8 + envelope.len() > UDP_BATCH_LIMIT
            {
                let full = std::mem::replace(&mut out_bufs[s], batch_begin(env.shard));
                ready.push((s, full));
            }
            batch_push(&mut out_bufs[s], to, &envelope);
        }
    }
}

/// Push one sealed batch into a ring, parking briefly under
/// backpressure and aborting when the budget runs out.
fn push_with_backpressure(
    tx: &RingSender<Vec<u8>>,
    mut buf: Vec<u8>,
    env: &WorkerEnv,
    to_shard: usize,
    shared: &ShardShared,
) -> Result<(), ShardAbort> {
    let deadline = Instant::now() + Duration::from_millis(env.backpressure_wait_ms);
    loop {
        match tx.try_push(buf) {
            Ok(()) => {
                shared.wake(to_shard);
                return Ok(());
            }
            Err(back) => {
                buf = back;
                if shared.stop.load(Ordering::Relaxed) {
                    // The run is already winding down; drop the batch.
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    return Err(ShardAbort::RingBackpressure {
                        from_shard: env.shard,
                        to_shard: to_shard as u32,
                        capacity: env.ring_capacity,
                    });
                }
                thread::park_timeout(Duration::from_micros(100));
            }
        }
    }
}

/// Seal and transmit every non-empty batch.
fn flush_batches(
    wire: &mut WireOut,
    env: &WorkerEnv,
    links: &mut Links,
    out_bufs: &mut [Vec<u8>],
    ready: &mut Vec<(usize, Vec<u8>)>,
    shared: &ShardShared,
) -> Result<(), ShardAbort> {
    for (s, buf) in out_bufs.iter_mut().enumerate() {
        if s != env.shard as usize && batch_count(buf) > 0 {
            let full = std::mem::replace(buf, batch_begin(env.shard));
            ready.push((s, full));
        }
    }
    for (s, mut buf) in ready.drain(..) {
        batch_seal(&mut buf, wire.clock.current());
        match links {
            Links::Rings { tx, .. } => {
                let tx = tx[s].as_ref().expect("ring to a peer shard");
                push_with_backpressure(tx, buf, env, s, shared)?;
            }
            Links::Udp { socket, peers } => {
                if socket.send_to(&buf, peers[s]).is_err() {
                    shared
                        .send_failures
                        .fetch_add(batch_count(&buf) as u64, Ordering::Relaxed);
                }
            }
        }
    }
    Ok(())
}

fn worker_main<P>(
    env: WorkerEnv,
    mut nodes: Vec<NodeHost<P>>,
    mut links: Links,
    ctrl: Receiver<WorkerMsg>,
    shared: Arc<ShardShared>,
) -> Vec<StampedRecord>
where
    P: Protocol,
    P::Msg: WireMsg,
{
    let udp = matches!(links, Links::Udp { .. });
    let mut wire = WireOut::new(shared.clocks[env.shard as usize].clone());
    let mut wakeups = Wakeups::new(nodes.len(), env.tick_ns);
    let mut local_q: VecDeque<(NodeId, Vec<u8>)> = VecDeque::new();
    let mut out_bufs: Vec<Vec<u8>> = (0..env.workers).map(|_| batch_begin(env.shard)).collect();
    let mut ready: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut inbound: Vec<Vec<u8>> = Vec::new();
    let mut due: Vec<u32> = Vec::new();
    let mut rx_buf = vec![0u8; 65_535];

    for (i, node) in nodes.iter().enumerate() {
        wakeups.rearm(node, i);
    }

    'run: loop {
        let mut busy = false;

        // 1. Control plane.
        loop {
            match ctrl.try_recv() {
                Ok(WorkerMsg::Node { clock, node, ctrl }) => {
                    busy = true;
                    wire.clock.witness(clock);
                    let i = (node.0 - env.base) as usize;
                    nodes[i].handle_ctrl(ctrl, shared.now_ns(), &mut wire, &shared);
                    wakeups.rearm(&nodes[i], i);
                    route_sends(
                        &mut wire,
                        &env,
                        udp,
                        &mut local_q,
                        &mut out_bufs,
                        &mut ready,
                    );
                }
                Ok(WorkerMsg::Shutdown { clock }) => {
                    wire.clock.witness(clock);
                    let now_ns = shared.now_ns();
                    for node in &nodes {
                        node.emit_net_stats(now_ns, &mut wire);
                    }
                    break 'run;
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break 'run,
            }
        }

        // 2. Inbound cross-shard batches.
        inbound.clear();
        match &mut links {
            Links::Rings { rx, .. } => {
                for r in rx.iter().flatten() {
                    while let Some(buf) = r.try_pop() {
                        inbound.push(buf);
                    }
                }
            }
            Links::Udp { socket, .. } => {
                while let Ok((len, _)) = socket.recv_from(&mut rx_buf) {
                    inbound.push(rx_buf[..len].to_vec());
                }
            }
        }
        for buf in inbound.drain(..) {
            busy = true;
            match batch_decode(&buf) {
                Some((_, clock, envelopes)) => {
                    wire.clock.witness(clock);
                    for (to, envelope) in envelopes {
                        let i = to.0.wrapping_sub(env.base) as usize;
                        if i < nodes.len() {
                            nodes[i].on_envelope(envelope, shared.now_ns(), &mut wire, &shared);
                            wakeups.rearm(&nodes[i], i);
                        }
                    }
                }
                None => {
                    shared.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            route_sends(
                &mut wire,
                &env,
                udp,
                &mut local_q,
                &mut out_bufs,
                &mut ready,
            );
        }

        // 3. Same-shard deliveries (chains drain within the pass).
        while let Some((to, envelope)) = local_q.pop_front() {
            busy = true;
            let i = (to.0 - env.base) as usize;
            nodes[i].on_envelope(&envelope, shared.now_ns(), &mut wire, &shared);
            wakeups.rearm(&nodes[i], i);
            route_sends(
                &mut wire,
                &env,
                udp,
                &mut local_q,
                &mut out_bufs,
                &mut ready,
            );
        }

        // 4. Due wakeups: every armed tick at or before now.
        let now_ns = shared.now_ns();
        due.clear();
        wakeups.pop_due(now_ns, &mut due);
        for &i in &due {
            let i = i as usize;
            wakeups.next_wake[i] = None;
            nodes[i].tick(now_ns, &mut wire, &shared);
            wakeups.rearm(&nodes[i], i);
            route_sends(
                &mut wire,
                &env,
                udp,
                &mut local_q,
                &mut out_bufs,
                &mut ready,
            );
            busy = true;
        }
        // Wakeups can enqueue same-shard traffic; drain it now rather
        // than sleeping on it.
        while let Some((to, envelope)) = local_q.pop_front() {
            let i = (to.0 - env.base) as usize;
            nodes[i].on_envelope(&envelope, shared.now_ns(), &mut wire, &shared);
            wakeups.rearm(&nodes[i], i);
            route_sends(
                &mut wire,
                &env,
                udp,
                &mut local_q,
                &mut out_bufs,
                &mut ready,
            );
        }

        // 5. Flush cross-shard batches (one buffer per shard pair),
        // unless a host aborted the run.
        let flushed = match wire.abort.take() {
            Some(abort) => Err(abort),
            None => flush_batches(
                &mut wire,
                &env,
                &mut links,
                &mut out_bufs,
                &mut ready,
                &shared,
            ),
        };
        if let Err(abort) = flushed {
            *shared.abort.lock().expect("abort slot") = Some(abort);
            shared.stop.store(true, Ordering::Relaxed);
            break 'run;
        }

        if shared.stop.load(Ordering::Relaxed) {
            // Another thread aborted; the driver's shutdown follows, but
            // stop ticking nodes in the meantime.
            thread::park_timeout(Duration::from_millis(1));
            continue;
        }

        // 6. Sleep until the next deadline (or an unpark).
        if !busy {
            let now_ns = shared.now_ns();
            let sleep_ns = wakeups
                .next_ns()
                .map(|t| t.saturating_sub(now_ns))
                .unwrap_or(1_000_000)
                .clamp(50_000, 1_000_000);
            thread::park_timeout(Duration::from_nanos(sleep_ns));
        }
    }
    wire.records
}

/// Resolve the worker-pool size: explicit, or the host parallelism
/// (min 2 so cross-shard machinery is always exercised), capped at n.
fn resolve_workers(cfg: &LiveConfig, n: usize) -> usize {
    let LiveRuntime::Sharded { workers: requested } = cfg.runtime;
    let w = if requested == 0 {
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .clamp(2, 16)
    } else {
        requested
    };
    w.min(n.max(1))
}

/// A driver-side fault/mobility action, due at `0` ns.
enum Action {
    Crash(NodeId),
    Recover(NodeId),
    PartitionStart,
    PartitionEnd,
    Move(NodeId, Position),
}

/// Run one live execution and validate its merged trace.
///
/// The factory runs on the calling thread (it need not be `Send`); the
/// built automata are shipped to workers.
pub(crate) fn run_sharded_with<P, F>(
    cfg: &LiveConfig,
    mut factory: F,
    tuning: ShardTuning,
) -> Result<LiveOutcome, String>
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg + Send,
    F: FnMut(&NodeSeed) -> P,
{
    let n = cfg.positions.len();
    let radio_range = SimConfig::default().radio_range;
    let mut world = World::new(
        radio_range,
        cfg.positions.iter().map(|&p| p.into()).collect(),
    );
    let max_degree = world.max_degree();
    let workers = resolve_workers(cfg, n);

    // Contiguous shard ranges: the first `n % workers` shards get one
    // extra node.
    let base_size = n / workers;
    let remainder = n % workers;
    let mut starts: Vec<usize> = Vec::with_capacity(workers + 1);
    let mut acc = 0;
    for s in 0..workers {
        starts.push(acc);
        acc += base_size + usize::from(s < remainder);
    }
    starts.push(acc);
    let mut shard_map: Vec<u32> = vec![0; n];
    for s in 0..workers {
        for item in shard_map.iter_mut().take(starts[s + 1]).skip(starts[s]) {
            *item = s as u32;
        }
    }
    let shard_map = Arc::new(shard_map);

    let needs_gate = cfg.crash.is_some() || cfg.partition.is_some();
    let shared = Arc::new(ShardShared::new(
        needs_gate.then(|| LinkGate::new(n)),
        workers,
    ));

    // Transport endpoints: a ring matrix in-process, a socket per shard
    // on UDP.
    let mut links: Vec<Option<Links>> = match cfg.transport {
        TransportKind::Mpsc => {
            let mut txs: Vec<Vec<Option<RingSender<Vec<u8>>>>> = (0..workers)
                .map(|_| (0..workers).map(|_| None).collect())
                .collect();
            let mut rxs: Vec<Vec<Option<RingReceiver<Vec<u8>>>>> = (0..workers)
                .map(|_| (0..workers).map(|_| None).collect())
                .collect();
            for a in 0..workers {
                for b in 0..workers {
                    if a != b {
                        let (tx, rx) = ring(tuning.ring_capacity);
                        txs[a][b] = Some(tx);
                        rxs[b][a] = Some(rx);
                    }
                }
            }
            txs.into_iter()
                .zip(rxs)
                .map(|(tx, rx)| Some(Links::Rings { rx, tx }))
                .collect()
        }
        TransportKind::Udp => {
            let mut sockets = Vec::with_capacity(workers);
            let mut addrs = Vec::with_capacity(workers);
            for s in 0..workers {
                let socket = UdpSocket::bind("127.0.0.1:0")
                    .map_err(|e| format!("failed to bind shard {s} socket: {e}"))?;
                socket
                    .set_nonblocking(true)
                    .map_err(|e| format!("failed to set shard {s} socket nonblocking: {e}"))?;
                addrs.push(
                    socket
                        .local_addr()
                        .map_err(|e| format!("failed to read shard {s} socket addr: {e}"))?,
                );
                sockets.push(socket);
            }
            sockets
                .into_iter()
                .map(|socket| {
                    Some(Links::Udp {
                        socket,
                        peers: addrs.clone(),
                    })
                })
                .collect()
        }
    };

    // Build every automaton (and the recovery spare) on this thread —
    // the factory is not shared with workers. A recovering node rejoins
    // with an empty neighborhood (its rejoin link-ups follow).
    let host_cfg = HostConfig::of(cfg);
    let mut ctrls: Vec<Sender<WorkerMsg>> = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for s in 0..workers {
        let mut nodes = Vec::with_capacity(starts[s + 1] - starts[s]);
        for i in starts[s]..starts[s + 1] {
            let me = NodeId(i as u32);
            let seed = NodeSeed {
                id: me,
                neighbors: world.neighbors(me).to_vec(),
                n_nodes: n,
                max_degree,
            };
            let proto = factory(&seed);
            let spare = match cfg.recover {
                Some((victim, _)) if victim as usize == i => Some(factory(&NodeSeed {
                    id: me,
                    neighbors: Vec::new(),
                    n_nodes: n,
                    max_degree,
                })),
                _ => None,
            };
            nodes.push(NodeHost::new(
                me,
                proto,
                spare,
                seed.neighbors,
                &host_cfg,
                shared.now_ns(),
            ));
        }
        let env = WorkerEnv {
            shard: s as u32,
            base: starts[s] as u32,
            workers,
            tick_ns: cfg.tick_ns,
            backpressure_wait_ms: tuning.backpressure_wait_ms,
            ring_capacity: tuning.ring_capacity,
            shard_map: shard_map.clone(),
        };
        let my_links = links[s].take().expect("links built per shard");
        let (ctx, crx) = channel::<WorkerMsg>();
        ctrls.push(ctx);
        let sh = shared.clone();
        handles.push(
            thread::Builder::new()
                .name(format!("lme-shard-{s}"))
                .spawn(move || worker_main(env, nodes, my_links, crx, sh))
                .map_err(|e| format!("failed to spawn shard worker {s}: {e}"))?,
        );
    }
    let _ = shared
        .wakers
        .set(handles.iter().map(|h| h.thread().clone()).collect());

    // The driver: its own clock and record stream (merged as the last
    // input), and the action timeline.
    let mut clock = HybridClock::new();
    let mut drv_records: Vec<StampedRecord> = Vec::new();
    let tick_ns = cfg.tick_ns;
    // Stamp after every record the workers have taken so far, so the
    // driver's topology changes merge in real-time order with them.
    let record = |clock: &mut HybridClock, records: &mut Vec<StampedRecord>, kind| {
        clock.witness(shared.latest_stamp());
        let at_ns = shared.now_ns();
        records.push(StampedRecord {
            clock: clock.stamp(at_ns / tick_ns),
            at_ns,
            kind,
        });
    };
    let send_ctrl = |ctrls: &[Sender<WorkerMsg>], clock: &HybridClock, node: NodeId, ctrl: Ctrl| {
        let s = shard_map[node.index()] as usize;
        let _ = ctrls[s].send(WorkerMsg::Node {
            clock: clock.current(),
            node,
            ctrl,
        });
        shared.wake(s);
    };

    let mut actions: Vec<(u64, Action)> = Vec::new();
    if let Some((victim, at_ms)) = cfg.crash {
        actions.push((at_ms * 1_000_000, Action::Crash(NodeId(victim))));
    }
    if let Some((node, at_ms)) = cfg.recover {
        actions.push((at_ms * 1_000_000, Action::Recover(NodeId(node))));
    }
    if let Some((_, at_ms, heal_ms)) = &cfg.partition {
        actions.push((at_ms * 1_000_000, Action::PartitionStart));
        actions.push((heal_ms * 1_000_000, Action::PartitionEnd));
    }
    for &(at_ms, node, dest) in &cfg.moves {
        actions.push((at_ms * 1_000_000, Action::Move(NodeId(node), dest.into())));
    }
    actions.sort_by_key(|&(at, _)| at);
    let cut_pairs: Vec<(NodeId, NodeId)> = match &cfg.partition {
        Some((side, _, _)) => {
            let inside: Vec<bool> = {
                let mut v = vec![false; n];
                for &m in side {
                    v[m as usize] = true;
                }
                v
            };
            (0..n as u32)
                .flat_map(|a| (0..n as u32).map(move |b| (NodeId(a), NodeId(b))))
                .filter(|&(a, b)| a < b && inside[a.index()] != inside[b.index()])
                .collect()
        }
        None => Vec::new(),
    };

    let deadline_ns = cfg.duration_ms.saturating_mul(1_000_000);
    let mut ai = 0;
    let mut quiesce_at: Option<u64> = None;
    let mut recoveries: u64 = 0;
    let mut partition_active = false;
    // Every link-up starts a new incarnation; the links of the initial
    // topology are incarnation 0.
    let mut epochs: u32 = 0;
    loop {
        let now = shared.now_ns();
        while ai < actions.len() && actions[ai].0 <= now {
            let (_, action) = &actions[ai];
            ai += 1;
            match action {
                Action::Crash(victim) => {
                    if let Some(gate) = &shared.gate {
                        gate.sever_all(*victim);
                    }
                    world.mark_crashed(*victim);
                    send_ctrl(&ctrls, &clock, *victim, Ctrl::Crash);
                }
                Action::Recover(node) => {
                    let node = *node;
                    if !world.is_crashed(node) {
                        continue;
                    }
                    world.mark_recovered(node);
                    if let Some(gate) = &shared.gate {
                        for i in 0..n as u32 {
                            let peer = NodeId(i);
                            if peer == node || world.is_crashed(peer) {
                                continue;
                            }
                            let cut = partition_active
                                && cut_pairs.iter().any(|&(a, b)| {
                                    (a, b) == (node, peer) || (a, b) == (peer, node)
                                });
                            if !cut {
                                gate.set_pair(node, peer, false);
                            }
                        }
                    }
                    // The victim restarts as a fresh incarnation first;
                    // then the rejoin flap makes each surviving neighbor
                    // drop its stale edge state and re-form the link with
                    // itself as the static (fork-owning) side, so no fork
                    // is duplicated or lost across the crash.
                    send_ctrl(&ctrls, &clock, node, Ctrl::Recover);
                    for &peer in world.neighbors(node) {
                        if world.is_crashed(peer) {
                            continue;
                        }
                        record(
                            &mut clock,
                            &mut drv_records,
                            LiveEventKind::LinkDown { a: node, b: peer },
                        );
                        send_ctrl(&ctrls, &clock, peer, Ctrl::LinkDown { peer: node });
                        record(
                            &mut clock,
                            &mut drv_records,
                            LiveEventKind::LinkUp { a: peer, b: node },
                        );
                        epochs += 1;
                        send_ctrl(
                            &ctrls,
                            &clock,
                            peer,
                            Ctrl::LinkUp {
                                peer: node,
                                kind: LinkUpKind::AsStatic,
                                epoch: epochs,
                            },
                        );
                        send_ctrl(
                            &ctrls,
                            &clock,
                            node,
                            Ctrl::LinkUp {
                                peer,
                                kind: LinkUpKind::AsMoving,
                                epoch: epochs,
                            },
                        );
                    }
                    recoveries += 1;
                }
                Action::PartitionStart => {
                    partition_active = true;
                    if let Some(gate) = &shared.gate {
                        for &(a, b) in &cut_pairs {
                            gate.set_pair(a, b, true);
                        }
                    }
                }
                Action::PartitionEnd => {
                    partition_active = false;
                    if let Some(gate) = &shared.gate {
                        for &(a, b) in &cut_pairs {
                            if !world.is_crashed(a) && !world.is_crashed(b) {
                                gate.set_pair(a, b, false);
                            }
                        }
                    }
                }
                Action::Move(m, dest) => {
                    if world.is_crashed(*m) {
                        continue;
                    }
                    record(
                        &mut clock,
                        &mut drv_records,
                        LiveEventKind::Relocate {
                            node: *m,
                            x: dest.x,
                            y: dest.y,
                        },
                    );
                    send_ctrl(&ctrls, &clock, *m, Ctrl::MoveStarted);
                    for change in world.relocate(*m, *dest) {
                        match change {
                            LinkChange::Up(a, b) => {
                                // The moved node is the moving side; the
                                // peer is static and owns the new fork —
                                // the engine's symmetry breaking.
                                let (stat, mov) = if a == *m { (b, a) } else { (a, b) };
                                epochs += 1;
                                record(
                                    &mut clock,
                                    &mut drv_records,
                                    LiveEventKind::LinkUp { a: stat, b: mov },
                                );
                                send_ctrl(
                                    &ctrls,
                                    &clock,
                                    stat,
                                    Ctrl::LinkUp {
                                        peer: mov,
                                        kind: LinkUpKind::AsStatic,
                                        epoch: epochs,
                                    },
                                );
                                send_ctrl(
                                    &ctrls,
                                    &clock,
                                    mov,
                                    Ctrl::LinkUp {
                                        peer: stat,
                                        kind: LinkUpKind::AsMoving,
                                        epoch: epochs,
                                    },
                                );
                            }
                            LinkChange::Down(a, b) => {
                                record(
                                    &mut clock,
                                    &mut drv_records,
                                    LiveEventKind::LinkDown { a, b },
                                );
                                send_ctrl(&ctrls, &clock, a, Ctrl::LinkDown { peer: b });
                                send_ctrl(&ctrls, &clock, b, Ctrl::LinkDown { peer: a });
                            }
                        }
                    }
                    send_ctrl(&ctrls, &clock, *m, Ctrl::MoveEnded);
                }
            }
        }
        if now >= deadline_ns || shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if cfg.one_shot && cfg.crash.is_none() && shared.ate.load(Ordering::Relaxed) as usize >= n {
            let at = *quiesce_at.get_or_insert(now + 50_000_000);
            if now >= at {
                break;
            }
        }
        let next_action = actions
            .get(ai)
            .map(|&(at, _)| at)
            .unwrap_or(u64::MAX)
            .min(deadline_ns);
        let wait_ns = next_action
            .saturating_sub(shared.now_ns())
            .clamp(1_000_000, 5_000_000);
        thread::sleep(Duration::from_nanos(wait_ns));
    }

    for (s, c) in ctrls.iter().enumerate() {
        let _ = c.send(WorkerMsg::Shutdown {
            clock: clock.current(),
        });
        shared.wake(s);
    }
    let mut streams: Vec<Vec<StampedRecord>> = Vec::with_capacity(workers + 1);
    let mut threads_joined = 0;
    for (s, h) in handles.into_iter().enumerate() {
        let recs = h
            .join()
            .map_err(|_| format!("shard worker {s} panicked during the live run"))?;
        threads_joined += starts[s + 1] - starts[s];
        streams.push(recs);
    }
    if let Some(abort) = shared.abort.lock().expect("abort slot").take() {
        return Err(format!("sharded runtime aborted: {abort}"));
    }
    streams.push(drv_records);
    let elapsed_ms = shared.now_ns() / 1_000_000;

    let trace = LiveTrace::new(merge_stamped(streams));
    let violations = trace.check_safety(radio_range, &cfg.positions);
    let meals = trace.census(n);
    let latencies_ns = trace.hungry_to_eat_latencies_ns(n);
    Ok(LiveOutcome {
        trace,
        meals,
        latencies_ns,
        violations,
        messages_sent: shared.sent.load(Ordering::Relaxed),
        messages_delivered: shared.delivered.load(Ordering::Relaxed),
        decode_errors: shared.decode_errors.load(Ordering::Relaxed),
        send_failures: shared.send_failures.load(Ordering::Relaxed),
        retransmissions: shared.retransmissions.load(Ordering::Relaxed),
        acks_sent: shared.acks_sent.load(Ordering::Relaxed),
        recoveries,
        elapsed_ms,
        threads_joined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::LiveAlg;
    use local_mutex::Algorithm2;

    fn clique4() -> Vec<(f64, f64)> {
        vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    }

    fn sharded_cfg() -> LiveConfig {
        let mut cfg = LiveConfig::new(LiveAlg::A2, TransportKind::Mpsc, clique4());
        cfg.runtime = LiveRuntime::Sharded { workers: 2 };
        cfg.duration_ms = 300;
        cfg.rate = 60.0;
        cfg.eat_ms = 1;
        cfg
    }

    #[test]
    fn sharded_mpsc_run_is_safe_with_a_dense_merged_order() {
        let cfg = sharded_cfg();
        let out =
            run_sharded_with(&cfg, Algorithm2::new, ShardTuning::default()).expect("sharded run");
        assert_eq!(out.threads_joined, 4);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.total_meals() > 0, "nobody ate in 300 ms");
        assert_eq!(out.decode_errors, 0);
        assert!(out.messages_delivered > 0);
        for (i, r) in out.trace.records().iter().enumerate() {
            assert_eq!(r.order, i as u64, "merged ticket order must be dense");
        }
    }

    #[test]
    fn exhausted_ring_backpressure_is_a_structured_abort() {
        let cfg = sharded_cfg();
        let tuning = ShardTuning {
            ring_capacity: 0,
            backpressure_wait_ms: 0,
        };
        let err = run_sharded_with(&cfg, Algorithm2::new, tuning)
            .expect_err("zero-capacity rings must abort");
        assert!(
            err.contains("backpressure") && err.contains("ring"),
            "unexpected abort message: {err}"
        );
    }

    #[test]
    fn abort_display_mirrors_the_run_abort_style() {
        let a = ShardAbort::RingBackpressure {
            from_shard: 1,
            to_shard: 3,
            capacity: 64,
        };
        let s = a.to_string();
        assert!(s.contains("1->3") && s.contains("64"), "{s}");
    }
}
