//! The live workload: A2 on a ring in the sharded runtime, closed loop.
//! Every count comes from the trace `run_live` returns, cut at the end of
//! the measurement window; the traced run re-times the runtime's public
//! trace functions on that same trace.

use std::time::Instant;

use harness::topology;
use lme_net::{
    decode_frame, encode_frame, merge_stamped, run_live, LiveAlg, LiveConfig, LiveEventKind,
    LiveOutcome, LiveRecord, LiveRuntime, LiveTrace, StampedRecord, TransportKind,
};
use local_mutex::{A2Msg, Algorithm2};
use manet_sim::{DiningState, Engine, Hook, NodeId, SimConfig, SimRng, SimTime, Sink, View};

use crate::rep::{median, percentile, vm_hwm_kb, Rep};
use crate::Size;

/// Worker threads of the sharded runtime (the host has two CPUs).
const WORKERS: usize = 2;

/// Set-up measurements per repetition (zero-length windows).
const SETUP_SAMPLES: usize = 3;

/// The live run configuration generated from `seed`.
pub fn config(seed: u64, size: Size) -> LiveConfig {
    let (n, window_ms) = match size {
        Size::Full => (200, 500),
        Size::Toy => (12, 100),
    };
    let mut cfg = LiveConfig::new(LiveAlg::A2, TransportKind::Mpsc, topology::ring(n));
    cfg.runtime = LiveRuntime::Sharded { workers: WORKERS };
    cfg.closed_loop = true;
    cfg.eat_ms = 1;
    cfg.duration_ms = window_ms;
    cfg.seed = seed;
    cfg
}

/// Sessions and latencies of one live trace, split at the window's end.
#[derive(Debug, Default, PartialEq)]
pub struct WindowCount {
    /// Eating entries stamped inside the window.
    pub in_window: u64,
    /// Eating entries stamped after it (served while draining).
    pub in_drain: u64,
    /// Hungry→eat latencies (ns) of the in-window entries.
    pub latencies_ns: Vec<u64>,
    /// In-window entries with no open hungry episode to measure from.
    pub unmatched: u64,
    /// Episodes never served that had waited over half the window.
    pub starved: u64,
    /// Episodes never served that started in the window's second half.
    pub cut_off: u64,
    /// First record's timestamp: the runtime starts serving here.
    pub first_ns: u64,
}

/// Count sessions of `records` against a window ending at `end_ns`, with
/// the episode rules of `harness::Metrics` (a demotion restarts the
/// episode; hungry-and-eat within one step is a zero-latency episode).
pub fn count_window(records: &[LiveRecord], n: usize, end_ns: u64) -> WindowCount {
    use DiningState::{Eating, Hungry, Thinking};
    let mut c = WindowCount {
        first_ns: records.first().map_or(0, |r| r.at_ns),
        ..WindowCount::default()
    };
    let mut since: Vec<Option<u64>> = vec![None; n];
    for r in records {
        let LiveEventKind::State { node, old, new, .. } = r.kind else {
            continue;
        };
        let slot = &mut since[node.index()];
        let start = match (old, new) {
            (Thinking | Eating, Hungry) => {
                *slot = Some(r.at_ns);
                continue;
            }
            (Hungry, Eating) => slot.take(),
            (Thinking, Eating) => Some(r.at_ns),
            _ => continue,
        };
        if r.at_ns > end_ns {
            c.in_drain += 1;
            continue;
        }
        c.in_window += 1;
        match start {
            Some(h) => c.latencies_ns.push(r.at_ns.saturating_sub(h)),
            None => c.unmatched += 1,
        }
    }
    for h in since.into_iter().flatten() {
        if h < end_ns / 2 {
            c.starved += 1;
        } else {
            c.cut_off += 1;
        }
    }
    c
}

/// Run the live workload once. `gate` also runs the planted-violation
/// check on a copy of the trace.
pub fn run(cfg: &LiveConfig, traced: bool, gate: bool) -> Rep {
    let mut rep = Rep::default();
    let n = cfg.positions.len();

    // Set-up: bring the runtime up and down with a zero-length window.
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let mut zero = cfg.clone();
        zero.duration_ms = 0;
        let t = Instant::now();
        match run_live(&zero) {
            Ok(out) => {
                setups.push(t.elapsed().as_secs_f64());
                rep.require(out.violations.is_empty(), || {
                    "safety violation in a set-up run".into()
                });
            }
            Err(e) => {
                eprintln!("perfbench: set-up run failed: {e}");
                rep.attempted += 1;
                rep.failed += 1;
            }
        }
    }

    let t = Instant::now();
    let result = run_live(cfg);
    let wall_s = t.elapsed().as_secs_f64();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            // A structured abort (`ShardAbort`) is a failed operation; the
            // repetition has nothing else to report.
            eprintln!("perfbench: run_live failed: {e}");
            rep.attempted += 1;
            rep.failed += 1;
            return rep;
        }
    };
    let end_ns = cfg.duration_ms * 1_000_000;
    let c = count_window(out.trace.records(), n, end_ns);
    let window_s = end_ns.saturating_sub(c.first_ns) as f64 * 1e-9;

    rep.require(out.violations.is_empty(), || {
        format!(
            "{} safety violations, first {:?}",
            out.violations.len(),
            out.violations[0]
        )
    });
    rep.require(c.in_window > 0, || "no session in the window".into());
    rep.require(c.unmatched == 0, || {
        format!(
            "{} in-window eats but {} latency samples",
            c.in_window,
            c.latencies_ns.len()
        )
    });
    rep.require(c.in_window + c.in_drain == out.total_meals(), || {
        format!(
            "window {} + drain {} sessions != census {}",
            c.in_window,
            c.in_drain,
            out.total_meals()
        )
    });
    rep.require(out.threads_joined == n, || {
        format!("{} of {n} nodes joined", out.threads_joined)
    });
    rep.attempted += c.in_window + c.in_drain + c.starved + c.cut_off;
    rep.failed += c.starved + out.decode_errors + out.send_failures;

    let mut lat = c.latencies_ns.clone();
    lat.sort_unstable();
    let sessions = c.in_window.max(1) as f64;
    let p99_ms = percentile(&lat, 0.99).unwrap_or(0) as f64 * 1e-6;
    rep.set("wall_s", wall_s);
    rep.set("setup_s", median(&setups).unwrap_or(0.0));
    rep.set("sessions_per_s", c.in_window as f64 / window_s);
    rep.set(
        "latency_p50_ms",
        percentile(&lat, 0.5).unwrap_or(0) as f64 * 1e-6,
    );
    rep.set("latency_p99_ms", p99_ms);
    rep.set("latency_samples", lat.len() as f64);
    rep.set("wait_us_per_session", (wall_s - window_s) * 1e6 / sessions);
    let hwm_kb = vm_hwm_kb() as f64;
    rep.set("peak_rss_mb", hwm_kb / 1024.0);
    rep.set("rss_kb_per_session", hwm_kb / sessions);

    if traced {
        layers(&mut rep, cfg, &out, &c, window_s, wall_s, p99_ms);
    }
    if gate {
        planted_violation_trips(&mut rep, cfg, &out);
    }
    rep
}

/// The `net.*` layer metrics: the window split, and the runtime's public
/// trace functions re-timed on the returned trace.
fn layers(
    rep: &mut Rep,
    cfg: &LiveConfig,
    out: &LiveOutcome,
    c: &WindowCount,
    window_s: f64,
    wall_s: f64,
    p99_ms: f64,
) {
    let sessions = c.in_window.max(1) as f64;
    let records = out.trace.len();
    rep.set("net.window_s", window_s);
    rep.set("net.sessions_in_window", c.in_window as f64);
    rep.set("net.sessions_in_drain", c.in_drain as f64);
    let served = (c.in_window + c.in_drain).max(1) as f64;
    rep.set(
        "net.messages_per_session",
        out.messages_sent as f64 / served,
    );
    rep.set("core.messages_per_meal", out.messages_sent as f64 / served);
    rep.set("net.decode_errors", out.decode_errors as f64);
    rep.set("net.send_failures", out.send_failures as f64);
    rep.set("net.wait_s", wall_s - window_s);
    rep.set("net.records", records as f64);
    rep.set("net.records_per_session", records as f64 / sessions);

    let radio_range = SimConfig::default().radio_range;
    let t = Instant::now();
    let violations = out.trace.check_safety(radio_range, &cfg.positions);
    let check_s = t.elapsed().as_secs_f64();
    rep.require(violations.is_empty(), || {
        "re-timed safety replay found a violation".into()
    });
    rep.set("net.check_s", check_s);
    rep.set(
        "net.check_ns_per_record",
        check_s * 1e9 / records.max(1) as f64,
    );

    let streams = worker_streams(out.trace.records(), cfg.positions.len());
    let t = Instant::now();
    let merged = merge_stamped(streams);
    let merge_s = t.elapsed().as_secs_f64();
    rep.require(merged.as_slice() == out.trace.records(), || {
        "re-merged worker streams differ from the returned trace".into()
    });
    rep.set("net.merge_s", merge_s);
    rep.set(
        "net.merge_ns_per_record",
        merge_s * 1e9 / records.max(1) as f64,
    );

    let (encode_ns, decode_ns) = codec_ns(rep);
    rep.set("net.codec_encode_ns", encode_ns);
    rep.set("net.codec_decode_ns", decode_ns);
    // ν is 10 ticks of `tick_ns`.
    let nu_ms = 10.0 * cfg.tick_ns as f64 * 1e-6;
    rep.set("net.latency_p99_nu", p99_ms / nu_ms);
}

/// Split a merged trace back into the per-worker streams the sharded
/// runtime produced: node records go to the owner shard of the node (the
/// runtime's contiguous split), driver records to a last stream, and each
/// record's ticket serves as its clock stamp.
pub fn worker_streams(records: &[LiveRecord], n: usize) -> Vec<Vec<StampedRecord>> {
    let (base, extra) = (n / WORKERS, n % WORKERS);
    let shard_of = |node: NodeId| {
        let i = node.index();
        let big = extra * (base + 1);
        if i < big {
            i / (base + 1)
        } else {
            extra + (i - big) / base.max(1)
        }
    };
    let mut streams = vec![Vec::new(); WORKERS + 1];
    for r in records {
        let s = match r.kind {
            LiveEventKind::State { node, .. }
            | LiveEventKind::Crash { node }
            | LiveEventKind::Recover { node }
            | LiveEventKind::NetStats { node, .. } => shard_of(node),
            LiveEventKind::Deliver { to, .. } => shard_of(to),
            LiveEventKind::LinkUp { .. }
            | LiveEventKind::LinkDown { .. }
            | LiveEventKind::Relocate { .. } => WORKERS,
        };
        streams[s].push(StampedRecord {
            clock: r.order + 1,
            at_ns: r.at_ns,
            kind: r.kind.clone(),
        });
    }
    streams
}

/// Encode and decode nanoseconds per frame over A2's own message mix,
/// captured from a short simulated A2 run.
fn codec_ns(rep: &mut Rep) -> (f64, f64) {
    let mix = a2_message_mix();
    rep.require(!mix.is_empty(), || "empty A2 message mix".into());
    let rounds = 20;
    let t = Instant::now();
    let mut frames = Vec::with_capacity(mix.len());
    for _ in 0..rounds {
        frames.clear();
        frames.extend(mix.iter().map(encode_frame));
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / (rounds * mix.len()).max(1) as f64;
    let t = Instant::now();
    let mut ok = 0usize;
    for _ in 0..rounds {
        ok = frames
            .iter()
            .map(|f| std::hint::black_box(decode_frame::<A2Msg>(f)))
            .filter(Result::is_ok)
            .count();
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / (rounds * mix.len()).max(1) as f64;
    rep.require(ok == mix.len(), || {
        format!("{} of {} frames decoded", ok, mix.len())
    });
    (encode_ns, decode_ns)
}

/// Every message delivered in a short A2 run on `ring:50`.
pub fn a2_message_mix() -> Vec<A2Msg> {
    struct Capture(std::rc::Rc<std::cell::RefCell<Vec<A2Msg>>>);
    impl Hook<A2Msg> for Capture {
        fn on_deliver(&mut self, _: &View<'_>, _: NodeId, _: NodeId, m: &A2Msg, _: &mut Sink) {
            self.0.borrow_mut().push(*m);
        }
    }
    let n = 50;
    let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut engine = Engine::new(SimConfig::default(), topology::ring(n), |s| {
        Algorithm2::new(&s)
    });
    engine.add_hook(Box::new(Capture(out.clone())));
    engine.add_hook(Box::new(harness::Workload::cyclic(10..=30, 50..=150, 1)));
    let mut rng = SimRng::seed_from_u64(1);
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(rng.gen_range(1..=20u64)), NodeId(i));
    }
    engine.run_until(SimTime(2_000));
    let mix = out.borrow().clone();
    mix
}

/// Append two neighbours entering Eating together to a copy of the trace:
/// the safety replay must flag exactly that pair.
fn planted_violation_trips(rep: &mut Rep, cfg: &LiveConfig, out: &LiveOutcome) {
    let mut records = out.trace.records().to_vec();
    let last = records.last().map_or((0, 0), |r| (r.at_ns, r.order));
    let mut state = [DiningState::Thinking; 2];
    let mut session = [0u64; 2];
    for r in &records {
        if let LiveEventKind::State {
            node,
            new,
            session: s,
            ..
        } = r.kind
        {
            if node.index() < 2 {
                state[node.index()] = new;
                session[node.index()] = s;
            }
        }
    }
    for i in 0..2u64 {
        let k = i as usize;
        records.push(LiveRecord {
            at_ns: last.0 + 1,
            order: last.1 + 1 + i,
            kind: LiveEventKind::State {
                node: NodeId(k as u32),
                old: state[k],
                new: DiningState::Eating,
                session: session[k] + 1,
            },
        });
    }
    let planted = LiveTrace::new(records);
    let found = planted.check_safety(SimConfig::default().radio_range, &cfg.positions);
    let tripped = found
        .iter()
        .any(|v| (v.a, v.b) == (NodeId(0), NodeId(1)) || (v.a, v.b) == (NodeId(1), NodeId(0)));
    rep.require(tripped, || {
        format!(
            "planted rogue pair went undetected ({} violations)",
            found.len()
        )
    });
}
