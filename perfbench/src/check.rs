//! The model-checker workload: bounded DFS over A2 on `clique:4`.

use std::time::Instant;

use harness::{topology, AlgKind};
use lme_check::{explore, run_schedule, CheckSpec, ExploreConfig, Mutation, Plan, StrategyKind};
use manet_sim::{Position, SimConfig, SimRng, World};

use crate::pace::ShortReference;
use crate::rep::{median, percentile, thread_cpu_ns, vm_hwm_kb, Rep};
use crate::Size;

/// Worker threads of the exploration (the host has two CPUs).
const JOBS: usize = 2;

/// Set-up measurements per repetition.
const SETUP_SAMPLES: usize = 5;

/// Single schedules judged per repetition for the latency percentiles.
const JUDGED: usize = 1_000;

/// Unmeasured schedules and references run first, to warm the caches.
const WARM_UP: usize = 20;

/// Short references taken just before the exploration, and again after.
const EXPLORE_PACES: usize = 10;

/// The checked instance: `alg` on `clique:4` with every node hungry.
pub fn spec(alg: AlgKind, seed: u64) -> CheckSpec {
    let positions = topology::clique(4);
    let world = World::new(
        SimConfig::default().radio_range,
        positions.into_iter().map(Position::from).collect(),
    );
    let mut spec = CheckSpec::new(alg, "clique:4", 4, world.csr_snapshot().edges().collect());
    spec.seed = seed;
    spec
}

/// The exploration bounds.
pub fn config(size: Size) -> ExploreConfig {
    ExploreConfig {
        strategy: StrategyKind::Dfs,
        max_schedules: match size {
            Size::Full => 5_000,
            Size::Toy => 200,
        },
        max_depth: 16,
        jobs: JOBS,
        ..ExploreConfig::default()
    }
}

/// Run the check workload once. `gate` also checks that the planted
/// Algorithm 1 mutation is caught.
pub fn run(seed: u64, size: Size, traced: bool, gate: bool) -> Rep {
    let mut rep = Rep::default();
    let spec = spec(AlgKind::A2, seed);
    let cfg = config(size);

    // Each set-up call and each judged schedule below takes under a
    // millisecond, so each is paced by a short reference run just before
    // it, and the exploration by references taken around it; the
    // repetition's pace does not apply to this workload.
    let mut reference = ShortReference::default();
    let warm_up = Plan::Dfs {
        prefix: vec![0; cfg.max_depth],
        dedup: true,
    };
    for _ in 0..WARM_UP {
        reference.pace();
        std::hint::black_box(run_schedule(&spec, &warm_up));
    }

    // Set-up: the fixed cost of one check call, a one-schedule budget.
    let one = ExploreConfig {
        max_schedules: 1,
        ..cfg.clone()
    };
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_SAMPLES {
        let pace = reference.pace();
        let t = Instant::now();
        std::hint::black_box(explore(&spec, &one));
        let s = t.elapsed().as_secs_f64();
        setups.push(s / pace);
        raw_setups.push(s);
    }

    // Latency: run and judge one DFS schedule (a random branch prefix as
    // deep as the exploration's) at a time, the checker's unit of work. A
    // schedule takes well under a millisecond, so its wall time would
    // mostly record when the host took the CPU away; its CPU time does not.
    let mut rng = SimRng::seed_from_u64(seed ^ 0x4a55_4447);
    let judged = if size == Size::Toy {
        JUDGED / 10
    } else {
        JUDGED
    };
    let (mut lat_ns, mut raw_lat_ns) = (Vec::new(), Vec::new());
    for _ in 0..judged {
        let prefix = (0..cfg.max_depth)
            .map(|_| rng.gen_range(0..=1u64) as u8)
            .collect();
        let plan = Plan::Dfs {
            prefix,
            dedup: true,
        };
        let pace = reference.pace();
        let t = thread_cpu_ns();
        let verdict = run_schedule(&spec, &plan);
        let ns = thread_cpu_ns() - t;
        if let Some(v) = verdict.violation {
            rep.fail(format!("A2 schedule violates {}: {}", v.property, v.detail));
        }
        lat_ns.push((ns as f64 / pace) as u64);
        raw_lat_ns.push(ns);
    }
    lat_ns.sort_unstable();
    raw_lat_ns.sort_unstable();

    // The exploration is paced by short references taken right around it.
    let mut paces: Vec<f64> = (0..EXPLORE_PACES).map(|_| reference.pace()).collect();
    let t = Instant::now();
    let ex = explore(&spec, &cfg);
    let raw_wall_s = t.elapsed().as_secs_f64();
    paces.extend((0..EXPLORE_PACES).map(|_| reference.pace()));
    let wall_s = raw_wall_s / median(&paces).unwrap_or(1.0);
    let hwm_kb = vm_hwm_kb() as f64;

    rep.fingerprint = format!(
        "schedules={} complete={} dedup_prunes={} dpor_prunes={} max_branch_points={}",
        ex.schedules, ex.complete, ex.dedup_prunes, ex.dpor_prunes, ex.max_branch_points
    );
    rep.attempted = ex.schedules as u64;
    if let Some(w) = &ex.witness {
        rep.failed = 1;
        rep.fail(format!("A2 violates {}: {}", w.property, w.detail));
    }
    rep.require(ex.schedules > 0, || "no schedule explored".into());

    let schedules = ex.schedules.max(1) as f64;
    rep.set("wall_s", wall_s);
    rep.set("raw.wall_s", raw_wall_s);
    rep.set("setup_s", median(&setups).unwrap_or(0.0));
    rep.set("raw.setup_s", median(&raw_setups).unwrap_or(0.0));
    rep.set("sessions_per_s", ex.schedules as f64 / wall_s);
    rep.set("raw.sessions_per_s", ex.schedules as f64 / raw_wall_s);
    rep.set(
        "latency_p50_ms",
        percentile(&lat_ns, 0.5).unwrap_or(0) as f64 * 1e-6,
    );
    rep.set(
        "latency_p99_ms",
        percentile(&lat_ns, 0.99).unwrap_or(0) as f64 * 1e-6,
    );
    rep.set(
        "raw.latency_p50_ms",
        percentile(&raw_lat_ns, 0.5).unwrap_or(0) as f64 * 1e-6,
    );
    rep.set(
        "raw.latency_p99_ms",
        percentile(&raw_lat_ns, 0.99).unwrap_or(0) as f64 * 1e-6,
    );
    rep.set("latency_samples", lat_ns.len() as f64);
    rep.set("wait_us_per_session", wall_s * 1e6 / schedules);
    rep.set("raw.wait_us_per_session", raw_wall_s * 1e6 / schedules);
    rep.set("peak_rss_mb", hwm_kb / 1024.0);
    rep.set("rss_kb_per_session", hwm_kb / schedules);

    if traced {
        rep.set("check.schedules", ex.schedules as f64);
        rep.set("check.dedup_prunes", ex.dedup_prunes as f64);
        rep.set("check.dpor_prunes", ex.dpor_prunes as f64);
        rep.set("check.max_branch_points", ex.max_branch_points as f64);
        rep.set("check.ns_per_schedule", raw_wall_s * 1e9 / schedules);
    }
    if gate {
        planted_mutation_trips(&mut rep, seed);
    }
    rep
}

/// Algorithm 1 without its behind-SD^f guard must yield a safety witness.
fn planted_mutation_trips(rep: &mut Rep, seed: u64) {
    let mut spec = spec(AlgKind::A1Greedy, seed);
    spec.mutation = Mutation::NoSdfGuard;
    let ex = explore(&spec, &ExploreConfig::default());
    let property = ex.witness.as_ref().map(|w| w.property.clone());
    rep.require(property.as_deref() == Some("lme-safety"), || {
        format!("planted no-sdf-guard mutation not caught (witness: {property:?})")
    });
}
