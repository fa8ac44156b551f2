//! The two simulator workloads. The run mirrors `harness::run_algorithm`
//! step for step (same hooks in the same order, same initial hungers), so
//! its simulated statistics equal the stock runner's; the self-test pins
//! that equality.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use harness::{topology, Metrics, SafetyMonitor, WaypointPlan, Workload};
use local_mutex::Algorithm2;
use manet_sim::{
    ArqConfig, ChannelConfig, Command, DiningState, Engine, Hook, NodeId, NodeSeed, Protocol,
    SimConfig, SimRng, SimTime, Sink, View,
};

use crate::rep::{percentile, vm_hwm_kb, Rep};
use crate::timed::{boxed, Tally, TimedProtocol};
use crate::Size;

/// Everything a sim workload needs, fully generated from the seed. Both
/// sim workloads run Algorithm 2.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Engine configuration (seed, channel, ARQ).
    pub cfg: SimConfig,
    /// Node positions.
    pub positions: Vec<(f64, f64)>,
    /// Scheduled mobility commands.
    pub commands: Vec<(SimTime, Command)>,
    /// Virtual-time horizon.
    pub horizon: u64,
}

/// Topology seed of `random:400`, the `lme` default, kept fixed so that
/// every run seed sees the same graph and only the run varies.
const RANDOM_TOPO_SEED: u64 = 7;

/// Consecutive timeouts before the ARQ shim gives up on a channel. The
/// default (16) is sized for crashed peers, and this workload has none;
/// under `gilbert:0.01:0.2` a live link stays in the bad state for 16
/// frames in about 3 % of bursts, and giving up then drops protocol
/// messages and leaves nodes hungry for good. At 64 that takes about one
/// burst in a million.
const ARQ_MAX_RETRIES: u32 = 64;

/// `sim-ring-static`: A2 on a static ring, iid channel, no ARQ.
pub fn ring_static(seed: u64, size: Size) -> SimSpec {
    let (n, horizon) = match size {
        Size::Full => (4_000, 2_500),
        Size::Toy => (40, 2_000),
    };
    SimSpec {
        cfg: SimConfig {
            seed,
            ..SimConfig::default()
        },
        positions: topology::ring(n),
        commands: Vec::new(),
        horizon,
    }
}

/// `sim-mobile-lossy`: A2 on `random:400` under random-waypoint motion, a
/// Gilbert–Elliott burst-loss channel and the ARQ shim.
pub fn mobile_lossy(seed: u64, size: Size) -> SimSpec {
    let (n, moves, horizon) = match size {
        Size::Full => (400, 2_000, 20_000),
        Size::Toy => (30, 100, 3_000),
    };
    let plan = WaypointPlan {
        area_side: (n as f64 / 1.6).sqrt().max(2.0),
        moves,
        window: (horizon / 10, horizon * 9 / 10),
        speed: Some(0.25),
        seed: seed ^ 0xB0B,
    };
    SimSpec {
        cfg: SimConfig {
            seed,
            arq: Some(ArqConfig {
                max_retries: ARQ_MAX_RETRIES,
                ..ArqConfig::default()
            }),
            channel: ChannelConfig::parse("gilbert:0.01:0.2").expect("valid channel spec"),
            ..SimConfig::default()
        },
        positions: topology::random_connected(n, RANDOM_TOPO_SEED),
        commands: plan.commands(n),
        horizon,
    }
}

/// The simulated statistics a speed-up must leave unchanged.
pub fn fingerprint(events: u64, meals: u64, messages: u64, responses: &mut [u64]) -> String {
    responses.sort_unstable();
    format!(
        "events={events} meals={meals} messages={messages} rt_p50={} rt_p99={}",
        percentile(responses, 0.5).unwrap_or(0),
        percentile(responses, 0.99).unwrap_or(0)
    )
}

/// Run `spec` once; `traced` wraps every automaton and hook in timers.
pub fn run(spec: &SimSpec, traced: bool) -> Rep {
    let factory = |s: NodeSeed| Algorithm2::new(&s);
    if traced {
        let layers = Layers::default();
        let core = layers.core.clone();
        drive(
            spec,
            move |s| TimedProtocol::new(factory(s), core.clone()),
            Some(&layers),
        )
    } else {
        drive(spec, factory, None)
    }
}

/// Per-layer tallies of a traced run.
#[derive(Default)]
struct Layers {
    core: Rc<Tally>,
    safety: Rc<Tally>,
    metrics: Rc<Tally>,
    workload: Rc<Tally>,
    latency: Rc<Tally>,
}

fn drive<Q, F>(spec: &SimSpec, factory: F, layers: Option<&Layers>) -> Rep
where
    Q: Protocol + 'static,
    F: FnMut(NodeSeed) -> Q + 'static,
{
    let mut rep = Rep::default();
    let n = spec.positions.len();
    let t0 = Instant::now();
    let mut engine = Engine::new(spec.cfg.clone(), spec.positions.clone(), factory);
    let (metrics, data) = Metrics::new(n);
    engine.add_hook(boxed(metrics, layers.map(|l| &l.metrics)));
    let (monitor, violations) = SafetyMonitor::new(false);
    engine.add_hook(boxed(monitor, layers.map(|l| &l.safety)));
    let workload = Workload::cyclic(10..=30, 50..=150, spec.cfg.seed);
    engine.add_hook(boxed(workload, layers.map(|l| &l.workload)));
    let (host, host_ns) = HostLatency::new(n, SimTime(spec.horizon / 5));
    engine.add_hook(boxed(host, layers.map(|l| &l.latency)));
    let mut rng = SimRng::seed_from_u64(spec.cfg.seed ^ 0x4655_4747);
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(rng.gen_range(1..=20u64)), NodeId(i));
    }
    for (at, cmd) in &spec.commands {
        engine.schedule(*at, cmd.clone());
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let rss_after_setup_kb = vm_hwm_kb();
    let t1 = Instant::now();
    engine.run_until(SimTime(spec.horizon));
    let run_s = t1.elapsed().as_secs_f64();
    // Collect the outcome the way the stock runner does.
    let world = engine.world();
    std::hint::black_box(world.csr_snapshot());
    let data = data.borrow().clone();
    let violations = violations.borrow().clone();
    let wall_s = t0.elapsed().as_secs_f64();

    let stats = engine.stats().clone();
    let meals: u64 = data.meals.iter().sum();
    let mut responses = data.all_responses();
    rep.fingerprint = fingerprint(stats.events, meals, stats.messages_sent, &mut responses);
    rep.require(violations.is_empty(), || {
        format!(
            "{} safety violations, first {:?}",
            violations.len(),
            violations[0]
        )
    });
    rep.require(meals > 0, || "no meals".into());
    // Episodes still hungry for more than half the run starved; younger
    // ones were merely cut off by its end (the horizon, or an abort).
    let starving = data.starving_since(SimTime(engine.now().0 / 2)).len() as u64;
    rep.attempted = (data.samples.len() + data.still_hungry().len()) as u64;
    rep.failed = starving;
    // A structured abort is a failed operation, not a wrong result; it is
    // deterministic, so the fingerprint records it.
    if let Some(abort) = engine.abort() {
        rep.failed += 1;
        rep.fingerprint.push_str(&format!(" abort: {abort}"));
    }

    let mut lat = host_ns.borrow().clone();
    lat.sort_unstable();
    let meals_f = meals.max(1) as f64;
    rep.set("wall_s", wall_s);
    rep.set("setup_s", setup_s);
    rep.set("sessions_per_s", meals as f64 / run_s);
    rep.set(
        "latency_p50_ms",
        percentile(&lat, 0.5).unwrap_or(0) as f64 * 1e-6,
    );
    rep.set(
        "latency_p99_ms",
        percentile(&lat, 0.99).unwrap_or(0) as f64 * 1e-6,
    );
    rep.set("latency_samples", lat.len() as f64);
    rep.set("wait_us_per_session", (wall_s - run_s) * 1e6 / meals_f);
    let hwm_kb = vm_hwm_kb() as f64;
    rep.set("peak_rss_mb", hwm_kb / 1024.0);
    rep.set("rss_kb_per_session", hwm_kb / meals_f);

    if let Some(l) = layers {
        let hooks_s = l.safety.secs() + l.metrics.secs() + l.workload.secs() + l.latency.secs();
        rep.set("sim.setup_s", setup_s);
        rep.set("sim.rss_after_setup_mb", rss_after_setup_kb as f64 / 1024.0);
        rep.set("sim.run_s", run_s);
        rep.set("sim.self_s", run_s - l.core.secs() - hooks_s);
        rep.set("sim.ns_per_event", run_s * 1e9 / stats.events.max(1) as f64);
        rep.set("sim.events", stats.events as f64);
        rep.set("sim.messages_sent", stats.messages_sent as f64);
        rep.set("sim.messages_delivered", stats.messages_delivered as f64);
        rep.set("sim.messages_dropped", stats.messages_dropped() as f64);
        rep.set("sim.link_candidates", world.candidates_examined() as f64);
        rep.set("sim.link_changes", l.safety.link_changes() as f64);
        rep.set("sim.channel_frames_lost", stats.channel.frames_lost as f64);
        rep.set(
            "sim.channel_frames_queued",
            stats.channel.frames_queued as f64,
        );
        rep.set("sim.arq_retransmissions", stats.shim.retransmissions as f64);
        rep.set("sim.arq_acks", stats.shim.acks_sent as f64);
        rep.set("core.steps", l.core.calls() as f64);
        rep.set("core.step_s", l.core.secs());
        rep.set(
            "core.ns_per_step",
            l.core.secs() * 1e9 / l.core.calls().max(1) as f64,
        );
        rep.set(
            "core.messages_per_meal",
            stats.messages_sent as f64 / meals_f,
        );
        rep.set("harness.safety_s", l.safety.secs());
        rep.set("harness.safety_calls", l.safety.calls() as f64);
        rep.set("harness.metrics_s", l.metrics.secs());
        rep.set("harness.workload_s", l.workload.secs());
    }
    rep
}

/// Host-time hungry→eat latency of every simulated episode that starts
/// from `from` on, with the episode rules of `harness::Metrics` (a
/// demotion restarts the episode, hungry-and-eat within one handler is a
/// zero-latency episode): how long the simulator took, in wall time, to
/// serve each request. Every node turns hungry in the first 20 ticks, and
/// the wall time of those first episodes mostly records the first touch of
/// the engine's freshly allocated tables, so they are left out.
struct HostLatency {
    from: SimTime,
    since: Vec<Option<Instant>>,
    out: Rc<RefCell<Vec<u64>>>,
}

impl HostLatency {
    fn new(n: usize, from: SimTime) -> (HostLatency, Rc<RefCell<Vec<u64>>>) {
        let out = Rc::new(RefCell::new(Vec::new()));
        let hook = HostLatency {
            from,
            since: vec![None; n],
            out: out.clone(),
        };
        (hook, out)
    }
}

impl<M> Hook<M> for HostLatency {
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        old: DiningState,
        new: DiningState,
        _sink: &mut Sink,
    ) {
        use DiningState::{Eating, Hungry, Thinking};
        if view.time() < self.from {
            return;
        }
        let slot = &mut self.since[node.index()];
        match (old, new) {
            (Thinking | Eating, Hungry) => *slot = Some(Instant::now()),
            (Hungry, Eating) => {
                if let Some(t) = slot.take() {
                    self.out.borrow_mut().push(t.elapsed().as_nanos() as u64);
                }
            }
            (Thinking, Eating) => self.out.borrow_mut().push(0),
            _ => {}
        }
    }
}
