//! End-to-end and per-layer benchmark of the simulator (`manet-sim`), the
//! live runtime (`lme-net`) and the model checker (`lme-check`).
//!
//! Each workload repetition runs in a fresh child process (so peak RSS is
//! the child's own `VmHWM`), calls the workspace libraries' public
//! functions directly, and checks its own output. The parent repeats the
//! workload for the requested time and reports medians. See README.md for
//! the metric definitions and why each workload is there.

pub mod check;
pub mod live;
pub mod pace;
pub mod rep;
pub mod sim;
pub mod timed;

use rep::Rep;

/// Input size: `Full` for measurement, `Toy` for the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A tiny instance of the same workload.
    Toy,
}

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "sim-ring-static",
    "sim-mobile-lossy",
    "live-ring-saturated",
    "check-clique4-dfs",
];

/// How the host pace applies to an end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// A time: divided by the pace.
    Time,
    /// A rate: multiplied by the pace.
    Rate,
    /// Memory: the pace does not apply.
    Memory,
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// How the host pace applies to it.
    pub pacing: Pacing,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    pacing: Pacing,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        pacing,
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("wall_s", "s", "lower", Pacing::Time),
    e2e("setup_s", "s", "lower", Pacing::Time),
    e2e("peak_rss_mb", "MB", "lower", Pacing::Memory),
    e2e("sessions_per_s", "1/s", "higher", Pacing::Rate),
    e2e("latency_p50_ms", "ms", "lower", Pacing::Time),
    e2e("latency_p99_ms", "ms", "lower", Pacing::Time),
    e2e("wait_us_per_session", "us", "lower", Pacing::Time),
    e2e("rss_kb_per_session", "KB", "lower", Pacing::Memory),
];

/// One per-layer metric and the end-to-end metric it should move.
pub struct PerLayer {
    /// Metric name (`layer.quantity`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end metrics it should move.
    pub moves: &'static str,
    /// Workloads on which it should move them.
    pub on: &'static str,
}

const RS: &str = "sim-ring-static";
const ML: &str = "sim-mobile-lossy";
const SIMS: &str = "sim-ring-static, sim-mobile-lossy";
const LIVE: &str = "live-ring-saturated";
const CHECK: &str = "check-clique4-dfs";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [PerLayer; 46] = [
    layer("sim.setup_s", "s", "lower", "setup_s", RS),
    layer("sim.rss_after_setup_mb", "MB", "lower", "peak_rss_mb", RS),
    layer("sim.run_s", "s", "lower", "wall_s", RS),
    layer("sim.self_s", "s", "lower", "wall_s", RS),
    layer("sim.ns_per_event", "ns", "lower", "wall_s", RS),
    layer("sim.events", "count", "lower", "wall_s", SIMS),
    layer("sim.messages_sent", "count", "lower", "wall_s", SIMS),
    layer("sim.messages_delivered", "count", "lower", "wall_s", SIMS),
    layer("sim.messages_dropped", "count", "lower", "wall_s", SIMS),
    layer("sim.link_candidates", "count", "lower", "wall_s", ML),
    layer("sim.link_changes", "count", "lower", "wall_s", ML),
    layer("sim.channel_frames_lost", "count", "lower", "wall_s", ML),
    layer("sim.channel_frames_queued", "count", "lower", "wall_s", ML),
    layer(
        "sim.arq_retransmissions",
        "count",
        "lower",
        "wall_s, peak_rss_mb",
        ML,
    ),
    layer("sim.arq_acks", "count", "lower", "wall_s, peak_rss_mb", ML),
    layer("core.steps", "count", "lower", "wall_s", ML),
    layer("core.step_s", "s", "lower", "wall_s", ML),
    layer("core.ns_per_step", "ns", "lower", "wall_s", ML),
    layer(
        "core.messages_per_meal",
        "count",
        "lower",
        "wall_s; sessions_per_s",
        "sim-ring-static, sim-mobile-lossy; live-ring-saturated",
    ),
    layer("harness.safety_s", "s", "lower", "wall_s", RS),
    layer("harness.safety_calls", "count", "lower", "wall_s", RS),
    layer("harness.metrics_s", "s", "lower", "wall_s", RS),
    layer("harness.workload_s", "s", "lower", "wall_s", RS),
    layer("net.window_s", "s", "higher", "sessions_per_s", LIVE),
    layer(
        "net.sessions_in_window",
        "count",
        "higher",
        "sessions_per_s",
        LIVE,
    ),
    layer(
        "net.sessions_in_drain",
        "count",
        "lower",
        "sessions_per_s",
        LIVE,
    ),
    layer(
        "net.messages_per_session",
        "count",
        "lower",
        "sessions_per_s",
        LIVE,
    ),
    layer(
        "net.decode_errors",
        "count",
        "lower",
        "sessions_per_s",
        LIVE,
    ),
    layer(
        "net.send_failures",
        "count",
        "lower",
        "sessions_per_s",
        LIVE,
    ),
    layer(
        "net.wait_s",
        "s",
        "lower",
        "wait_us_per_session, rss_kb_per_session",
        LIVE,
    ),
    layer(
        "net.records",
        "count",
        "lower",
        "wait_us_per_session, rss_kb_per_session",
        LIVE,
    ),
    layer(
        "net.records_per_session",
        "count",
        "lower",
        "wait_us_per_session, rss_kb_per_session",
        LIVE,
    ),
    layer("net.check_s", "s", "lower", "wait_us_per_session", LIVE),
    layer(
        "net.check_ns_per_record",
        "ns",
        "lower",
        "wait_us_per_session",
        LIVE,
    ),
    layer("net.merge_s", "s", "lower", "wait_us_per_session", LIVE),
    layer(
        "net.merge_ns_per_record",
        "ns",
        "lower",
        "wait_us_per_session",
        LIVE,
    ),
    layer(
        "net.codec_encode_ns",
        "ns",
        "lower",
        "sessions_per_s, latency_p50_ms",
        LIVE,
    ),
    layer(
        "net.codec_decode_ns",
        "ns",
        "lower",
        "sessions_per_s, latency_p50_ms",
        LIVE,
    ),
    layer("net.latency_p99_nu", "nu", "lower", "latency_p99_ms", LIVE),
    layer("check.schedules", "count", "higher", "wall_s", CHECK),
    layer("check.dedup_prunes", "count", "higher", "wall_s", CHECK),
    layer("check.dpor_prunes", "count", "higher", "wall_s", CHECK),
    layer("check.max_branch_points", "count", "lower", "wall_s", CHECK),
    layer("check.ns_per_schedule", "ns", "lower", "wall_s", CHECK),
    layer(
        "host.pace",
        "x",
        "lower",
        "every timing (divided by it)",
        SIMS,
    ),
    layer(
        "trace.overhead_s",
        "s",
        "lower",
        "none (cost of the traced run)",
        "every workload",
    ),
];

/// Run one repetition of `workload` in this process, between the host
/// pace measurements, and pace its end-to-end timings.
pub fn run_rep(
    workload: &str,
    seed: u64,
    size: Size,
    traced: bool,
    gate: bool,
) -> Result<Rep, String> {
    let (rep, pace) = pace::paced(|| match workload {
        "sim-ring-static" => Ok(sim::run(&sim::ring_static(seed, size), traced)),
        "sim-mobile-lossy" => Ok(sim::run(&sim::mobile_lossy(seed, size), traced)),
        "live-ring-saturated" => Ok(live::run(&live::config(seed, size), traced, gate)),
        "check-clique4-dfs" => Ok(check::run(seed, size, traced, gate)),
        other => Err(format!(
            "unknown workload '{other}'; expected one of {WORKLOADS:?}"
        )),
    });
    let mut rep = rep?;
    rep.set("host.pace", pace);
    // Pace every end-to-end timing by this repetition's own pace: the host
    // speed drifts between repetitions, so a run's median of raw timings
    // over its median pace would mix different host speeds. A workload
    // that paced a timing itself has recorded its raw value already. The
    // live workload is not paced: its eat timer and fixed window, not the
    // CPU, set most of its timings, and dividing those by the pace would
    // add the host's drift instead of removing it.
    let apply = workload != "live-ring-saturated";
    for m in &END_TO_END {
        let raw_name = format!("raw.{}", m.name);
        if rep.get(&raw_name).is_some() {
            continue;
        }
        if let Some(raw) = rep.get(m.name) {
            let paced = match m.pacing {
                _ if !apply => raw,
                Pacing::Time => raw / pace,
                Pacing::Rate => raw * pace,
                Pacing::Memory => raw,
            };
            rep.set(&raw_name, raw);
            rep.set(m.name, paced);
        }
    }
    Ok(rep)
}
