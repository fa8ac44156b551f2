//! Golden conformance suite for the timing-wheel event core: every cell
//! and seed is pinned by a fingerprint (`GOLDEN_*`) captured while the
//! binary-heap reference core still existed and agreed with the wheel bit
//! for bit — same `(at, seq)` dispatch order, same traces, same state
//! digests, same EngineStats, same JSONL reports, same structured aborts.
//!
//! Cells cover topology × mobility × fault combinations over at least
//! 8 seeds, plus the model checker's DFS/PCT/replay strategies and the
//! imported-schedule conformance-replay path.

mod golden;

use harness::{
    run_algorithm, run_algorithm_with_strategy, topology, AlgKind, RunOutcome, RunReport, RunSpec,
    SweepSpec, Topo, WaypointPlan,
};
use lme_check::{run_schedule, CheckSpec, Plan};
use local_mutex::Algorithm2;
use manet_sim::{
    Command, CrashWave, Engine, FaultPlan, ImportedSchedule, NodeId, PartitionWindow, SimConfig,
    SimTime, Strategy,
};

const SEEDS: std::ops::Range<u64> = 1..9;

/// `(events, trace length, state digest, FNV of stats + trace)`.
type TraceFp = (u64, usize, Option<u64>, u64);
/// `(events, messages sent, FNV of the outcome + its JSONL line)`.
type RunFp = (u64, u64, u64);
/// `(branch points, trace length, meals, FNV of the whole verdict)`.
type VerdictFp = (usize, usize, u64, u64);

fn run_fp(out: &RunOutcome, jsonl: &str) -> RunFp {
    (
        out.stats.events,
        out.stats.messages_sent,
        golden::fnv(&[&format!("{out:?}"), jsonl]),
    )
}

/// Run `kind` on `positions` and fingerprint the outcome — engine stats,
/// metrics, final adjacency, crash set, structured abort — with its
/// rendered JSONL line.
fn outcome_fp(
    label: &str,
    kind: AlgKind,
    spec: &RunSpec,
    positions: &[(f64, f64)],
    commands: &[(SimTime, Command)],
) -> RunFp {
    let out = run_algorithm(kind, spec, positions, commands);
    let jsonl =
        RunReport::from_outcome(label, kind.name(), spec.sim.seed, spec.horizon, &out, None)
            .to_jsonl();
    run_fp(&out, &jsonl)
}

fn spec_with_seed(seed: u64, horizon: u64, fault: FaultPlan) -> RunSpec {
    RunSpec {
        sim: SimConfig {
            seed,
            fault,
            ..SimConfig::default()
        },
        horizon,
        ..RunSpec::default()
    }
}

fn waypoints(n: usize, moves: usize, horizon: u64, seed: u64) -> Vec<(SimTime, Command)> {
    WaypointPlan {
        area_side: (n as f64 / 1.6).sqrt().max(2.0),
        moves,
        window: (horizon / 10, horizon * 9 / 10),
        speed: Some(0.25),
        seed,
    }
    .commands(n)
}

// ---------------------------------------------------------------------
// Engine-level cells: full traces are fingerprinted.
// ---------------------------------------------------------------------

/// Build an A2 engine over `positions`, apply `commands`, run, and
/// fingerprint the full trace with the state digest and stats.
fn trace_fp(seed: u64, positions: &[(f64, f64)], commands: &[(SimTime, Command)]) -> TraceFp {
    let cfg = SimConfig {
        seed,
        trace: true,
        ..SimConfig::default()
    };
    let mut eng = Engine::new(cfg, positions.to_vec(), |seed| Algorithm2::new(&seed));
    for i in 0..positions.len() as u32 {
        eng.set_hungry_at(SimTime(1 + u64::from(i % 7)), NodeId(i));
    }
    for (at, cmd) in commands {
        eng.schedule(*at, cmd.clone());
    }
    eng.run_until(SimTime(6_000));
    let (trace, stats) = (eng.trace(), eng.stats());
    let fnv = golden::fnv(&[&format!("{stats:?}"), &format!("{trace:?}")]);
    (stats.events, trace.len(), eng.state_digest(), fnv)
}

/// Cell 1: line topology with waypoint motion plus a far-future teleport —
/// the command sits beyond the wheel's bucket horizon at schedule time, so
/// it lands in the overflow heap and must still dispatch in exact order.
#[test]
fn cell_line_motion_with_far_overflow_command() {
    let positions = topology::line(12);
    let mut got = vec![];
    for seed in SEEDS {
        let mut commands = vec![(
            SimTime(5_500), // scheduled at t=0: far outside any bucket window
            Command::Teleport {
                node: NodeId(0),
                dest: manet_sim::Position { x: 3.0, y: 1.5 },
            },
        )];
        commands.extend(waypoints(12, 6, 6_000, seed ^ 0xB0B));
        commands.sort_by_key(|(t, _)| *t);
        got.push(trace_fp(seed, &positions, &commands));
    }
    golden::assert_golden("GOLDEN_LINE_OVERFLOW", &got, GOLDEN_LINE_OVERFLOW);
}

const GOLDEN_LINE_OVERFLOW: &[TraceFp] = &[
    (270, 185, Some(12457471080490927472), 9754069029512088765),
    (150, 117, Some(16568566440091859853), 16744436382803105798),
    (329, 199, Some(4977834234189994281), 8455941912848443550),
    (245, 173, Some(4770661272372506402), 10585394965278767518),
    (240, 170, Some(15456504733726251301), 5301025224849159719),
    (272, 180, Some(872434371636432176), 12423225428268527554),
    (285, 181, Some(7472946084047501873), 11819870302344016815),
    (307, 196, Some(12355657811612503592), 1812978715136658652),
];

/// Cell 2: random deployment with smooth random-waypoint motion — dense
/// same-tick ties (timers, deliveries, link changes) exercise the wheel's
/// per-bucket FIFO `(at, seq)` order.
#[test]
fn cell_random_waypoint_smooth_motion() {
    let mut got = vec![];
    for seed in SEEDS {
        let positions = topology::random_connected(30, seed);
        let commands = waypoints(30, 12, 6_000, seed ^ 0xB0B);
        got.push(trace_fp(seed, &positions, &commands));
    }
    golden::assert_golden("GOLDEN_RANDOM_WAYPOINT", &got, GOLDEN_RANDOM_WAYPOINT);
}

const GOLDEN_RANDOM_WAYPOINT: &[TraceFp] = &[
    (1440, 1173, Some(12110982335683047575), 4348732102098839728),
    (1391, 1151, Some(8108669927982665952), 16580043363941449886),
    (1151, 913, Some(16014727373910864217), 980927769803092739),
    (1271, 986, Some(6642448168986798697), 14964964494838459863),
    (1255, 941, Some(5477961652869205207), 13428874774204073384),
    (1513, 1158, Some(8234757801504966325), 14639790348110779705),
    (1216, 986, Some(16901891833263576265), 8732693966046746622),
    (1456, 1140, Some(104767844562973362), 4864076489225160751),
];

// ---------------------------------------------------------------------
// Harness-level cells: stats + metrics + JSONL are fingerprinted.
// ---------------------------------------------------------------------

/// Cell 3: clique under the adaptive max-delay adversary with moves.
#[test]
fn cell_clique_max_delay_adversary() {
    let positions = topology::clique(8);
    let mut got = vec![];
    for seed in SEEDS {
        let fault = FaultPlan {
            max_delay: Some(manet_sim::DelayAdversary {
                targets: (0..8).map(NodeId).collect(),
                window: Some((100, 3_000)),
            }),
            ..FaultPlan::default()
        };
        let spec = spec_with_seed(seed, 8_000, fault);
        let commands = waypoints(8, 4, 8_000, seed);
        got.push(outcome_fp(
            "clique:8",
            AlgKind::A1Greedy,
            &spec,
            &positions,
            &commands,
        ));
    }
    golden::assert_golden("GOLDEN_CLIQUE_MAX_DELAY", &got, GOLDEN_CLIQUE_MAX_DELAY);
}

const GOLDEN_CLIQUE_MAX_DELAY: &[RunFp] = &[
    (9649, 9012, 17389903254557358271),
    (10311, 9825, 3162643090028516686),
    (11473, 10987, 18205446876114389502),
    (10074, 9476, 13916653047097679375),
    (8788, 8092, 1620371472550967405),
    (10631, 10053, 10176380146682762226),
    (9656, 9008, 17305883377972664791),
    (9856, 9251, 14147709000470259677),
];

/// Cell 4: ring under message drop + duplication faults with moves —
/// duplicate ghosts are pushed with out-of-order timestamps relative to
/// their originals, the regime that forces wheel re-anchoring.
#[test]
fn cell_ring_loss_and_duplication() {
    let positions = topology::ring(16);
    let mut got = vec![];
    for seed in SEEDS {
        let fault = FaultPlan {
            link: Some(manet_sim::LinkFaults {
                drop: 0.15,
                duplicate: 0.15,
                ..manet_sim::LinkFaults::default()
            }),
            ..FaultPlan::default()
        };
        let spec = spec_with_seed(seed, 8_000, fault);
        let commands = waypoints(16, 5, 8_000, seed);
        got.push(outcome_fp(
            "ring:16",
            AlgKind::A1Linial,
            &spec,
            &positions,
            &commands,
        ));
    }
    golden::assert_golden("GOLDEN_RING_LOSS_DUP", &got, GOLDEN_RING_LOSS_DUP);
}

const GOLDEN_RING_LOSS_DUP: &[RunFp] = &[
    (1340, 972, 1612761531562423795),
    (686, 530, 9512834012097606363),
    (534, 341, 3914150679590616858),
    (1264, 885, 17499177082053538825),
    (1364, 1072, 133003125993501390),
    (1025, 751, 10908202936642415614),
    (1011, 748, 625495815254826307),
    (1195, 841, 496366397604762506),
];

/// Cell 5: random deployment with a crash wave and a partition window
/// under waypoint motion.
#[test]
fn cell_random_crash_wave_and_partition() {
    let mut got = vec![];
    for seed in SEEDS {
        let positions = topology::random_connected(40, seed);
        let fault = FaultPlan {
            crash_waves: vec![CrashWave {
                at: 2_000,
                nodes: vec![NodeId(seed as u32 % 40)],
            }],
            partitions: vec![PartitionWindow {
                at: 3_000,
                side: (0..10).map(NodeId).collect(),
                heal_after: 1_500,
            }],
            ..FaultPlan::default()
        };
        let spec = spec_with_seed(seed, 9_000, fault);
        let commands = waypoints(40, 8, 9_000, seed ^ 0xFEED);
        got.push(outcome_fp(
            "random:40",
            AlgKind::A2,
            &spec,
            &positions,
            &commands,
        ));
    }
    golden::assert_golden("GOLDEN_RANDOM_CRASH", &got, GOLDEN_RANDOM_CRASH);
}

const GOLDEN_RANDOM_CRASH: &[RunFp] = &[
    (69569, 66128, 15595579046460343516),
    (59098, 55488, 6477052724900830331),
    (52538, 48902, 13971898116561450886),
    (71346, 67923, 17810398697973157365),
    (49815, 45829, 3080396947337255966),
    (45550, 42282, 13486059618141341139),
    (60119, 56487, 8910001309602060416),
    (64923, 61242, 15412959454005307999),
];

// ---------------------------------------------------------------------
// Checker-level cells: every exploration strategy must see the same runs.
// ---------------------------------------------------------------------

fn line_edges(n: usize) -> Vec<(u32, u32)> {
    (0..n as u32 - 1).map(|i| (i, i + 1)).collect()
}

fn verdict_fp(alg: AlgKind, plan: &Plan) -> (VerdictFp, lme_check::RunVerdict) {
    let spec = CheckSpec::new(alg, "line:4", 4, line_edges(4));
    let v = run_schedule(&spec, plan);
    let fnv = golden::fnv(&[&format!("{v:?}")]);
    ((v.choices.len(), v.trace.len(), v.meals, fnv), v)
}

/// Cell 6: the model checker's DFS, PCT, random-walk, and replay
/// strategies resolve the pinned branch points, verdicts and traces.
#[test]
fn cell_check_strategies_agree_across_cores() {
    for (alg, name, want) in [
        (
            AlgKind::A1Greedy,
            "GOLDEN_CHECK_A1_GREEDY",
            GOLDEN_CHECK_A1_GREEDY,
        ),
        (AlgKind::A2, "GOLDEN_CHECK_A2", GOLDEN_CHECK_A2),
    ] {
        let mut got = vec![
            verdict_fp(
                alg,
                &Plan::Dfs {
                    prefix: vec![],
                    dedup: true,
                },
            )
            .0,
            verdict_fp(
                alg,
                &Plan::Dfs {
                    prefix: vec![1, 1, 0],
                    dedup: false,
                },
            )
            .0,
        ];
        for seed in SEEDS {
            got.push(verdict_fp(alg, &Plan::Pct { seed, changes: 3 }).0);
            let (fp, sampled) = verdict_fp(alg, &Plan::Random { seed });
            got.push(fp);
            // Replay the random walk's recorded delays.
            let delays: Vec<u64> = sampled.choices.iter().map(|c| c.delay).collect();
            got.push(verdict_fp(alg, &Plan::Replay { delays }).0);
        }
        golden::assert_golden(name, &got, want);
    }
}

/// Per algorithm: DFS (dedup), DFS from a prefix, then PCT, random walk
/// and replay of that walk for each seed.
const GOLDEN_CHECK_A1_GREEDY: &[VerdictFp] = &[
    (40, 53, 4, 10439509979509333040),
    (36, 52, 4, 2114690029294788702),
    (29, 53, 4, 8440891938772984058),
    (30, 49, 4, 11693401435089589301),
    (30, 49, 4, 11693401435089589301),
    (30, 53, 4, 15167164695630697327),
    (37, 53, 4, 12026578636504038166),
    (37, 53, 4, 12026578636504038166),
    (34, 53, 4, 4869181709413737087),
    (39, 53, 4, 10644904031347349845),
    (39, 53, 4, 10644904031347349845),
    (26, 53, 4, 17292057590249307157),
    (38, 53, 4, 2403138470660719020),
    (38, 53, 4, 2403138470660719020),
    (29, 53, 4, 8755961731016764891),
    (33, 53, 4, 2680174263333083234),
    (33, 53, 4, 2680174263333083234),
    (31, 53, 4, 4224845482701651149),
    (38, 53, 4, 17771529019184829691),
    (38, 53, 4, 17771529019184829691),
    (35, 53, 4, 17480705871003861967),
    (39, 53, 4, 18421687790552891791),
    (39, 53, 4, 18421687790552891791),
    (28, 53, 4, 2274119674781658661),
    (38, 53, 4, 10688573253494070568),
    (38, 53, 4, 10688573253494070568),
];
const GOLDEN_CHECK_A2: &[VerdictFp] = &[
    (19, 32, 4, 5301263824817786118),
    (18, 32, 4, 2751577005547902587),
    (19, 33, 4, 4628484519228965573),
    (19, 32, 4, 3701755416806414445),
    (19, 32, 4, 3701755416806414445),
    (18, 33, 4, 8310000240543437496),
    (20, 32, 4, 5894671409778120441),
    (20, 32, 4, 5894671409778120441),
    (18, 33, 4, 5908900152698525593),
    (21, 33, 4, 214031021984195015),
    (21, 33, 4, 214031021984195015),
    (18, 33, 4, 16903312490332059170),
    (20, 32, 4, 12774222029867476095),
    (20, 32, 4, 12774222029867476095),
    (17, 32, 4, 12856392944034363634),
    (20, 33, 4, 17676011867221171896),
    (20, 33, 4, 17676011867221171896),
    (18, 33, 4, 9796973211594856555),
    (20, 33, 4, 11653013913748478662),
    (20, 33, 4, 11653013913748478662),
    (20, 33, 4, 10096734980500295263),
    (19, 32, 4, 18165167762670549338),
    (19, 32, 4, 18165167762670549338),
    (18, 33, 4, 12740335016722620000),
    (19, 33, 4, 5338603746507266426),
    (19, 33, 4, 5338603746507266426),
];

// ---------------------------------------------------------------------
// Imported-schedule cells: the conformance-replay path of live runs.
// ---------------------------------------------------------------------

fn replay_outcome(schedule: ImportedSchedule, seed: u64) -> (RunOutcome, String) {
    let spec = spec_with_seed(seed, 5_000, FaultPlan::default());
    let positions = topology::clique(6);
    let out = run_algorithm_with_strategy(
        AlgKind::A2,
        &spec,
        &positions,
        &[],
        Some(Box::new(schedule)),
    );
    let jsonl = RunReport::from_outcome(
        "replay:clique6",
        AlgKind::A2.name(),
        spec.sim.seed,
        spec.horizon,
        &out,
        None,
    )
    .to_jsonl();
    (out, jsonl)
}

/// Cell 7: a recorded (synthetic, in-window) live schedule replays to the
/// the pinned outcome and JSONL.
#[test]
fn cell_imported_schedule_replay_agrees() {
    let mut got = vec![];
    for seed in SEEDS {
        let build = || {
            let nu = SimConfig::default().max_message_delay;
            let mut sched = ImportedSchedule::new(1);
            let mut k = seed;
            for from in 0..6u32 {
                for to in 0..6u32 {
                    if from == to {
                        continue;
                    }
                    for _ in 0..8 {
                        k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        sched.push(NodeId(from), NodeId(to), 1 + k % nu);
                    }
                }
            }
            sched
        };
        let (out, jsonl) = replay_outcome(build(), seed);
        assert_eq!(out.abort, None, "seed {seed}: in-window replay aborted");
        got.push(run_fp(&out, &jsonl));
    }
    golden::assert_golden("GOLDEN_IMPORTED_REPLAY", &got, GOLDEN_IMPORTED_REPLAY);
}

const GOLDEN_IMPORTED_REPLAY: &[RunFp] = &[
    (5319, 4909, 6609392099353141863),
    (5213, 4817, 6726769326216760567),
    (5258, 4849, 14300384134097461168),
    (5283, 4877, 16932928181514732390),
    (5408, 5000, 15620683521705597348),
    (5491, 5084, 4479375386373635744),
    (5241, 4844, 981394109194134175),
    (5189, 4792, 13710917804769956451),
];

/// Cell 8: a malformed recording (delay below the legal window) is
/// rejected with the pinned structured abort — the bugfix that replaced
/// silent clamping.
#[test]
fn cell_malformed_replay_rejected_identically() {
    let build = || {
        let mut sched = ImportedSchedule::new(1);
        sched.push(NodeId(0), NodeId(1), 0); // below min_message_delay
        sched
    };
    let (out, jsonl) = replay_outcome(build(), 3);
    assert!(
        out.abort
            .as_deref()
            .is_some_and(|a| a.contains("outside legal window")),
        "abort: {:?}",
        out.abort
    );
    golden::assert_golden(
        "GOLDEN_MALFORMED_REPLAY",
        &[run_fp(&out, &jsonl)],
        GOLDEN_MALFORMED_REPLAY,
    );
}

const GOLDEN_MALFORMED_REPLAY: &[RunFp] = &[(1, 5, 8841909730080937898)];

// ---------------------------------------------------------------------
// Sweep-level cell: parallel JSONL identical across job counts.
// ---------------------------------------------------------------------

/// Cell 9: a multi-seed sweep renders byte-identical JSONL for any worker
/// count, equal to the JSONL both cores rendered when the table was pinned.
#[test]
fn cell_sweep_jsonl_identical_across_cores_and_jobs() {
    let sweep = || {
        SweepSpec::new(
            "line6",
            Topo::Geo(topology::line(6)),
            RunSpec {
                horizon: 3_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2, AlgKind::A1Greedy])
        .seed_range(1, 4)
    };
    let serial = sweep().run(1).jsonl();
    let parallel = sweep().run(4).jsonl();
    assert_eq!(serial, parallel, "jobs changed the JSONL");
    assert_eq!(serial.lines().count(), 8);
    golden::assert_golden(
        "GOLDEN_SWEEP_JSONL",
        &[golden::fnv(&[&serial])],
        GOLDEN_SWEEP_JSONL,
    );
}

/// FNV of the sweep's JSONL (identical at `--jobs 1` and `4`).
const GOLDEN_SWEEP_JSONL: &[u64] = &[9984736937795347684];

// ---------------------------------------------------------------------
// Strategy sanity: the suite's own plumbing.
// ---------------------------------------------------------------------

/// The `Strategy` object is what the replay cells inject; double-check the
/// trait-object path sees the same choices the engine validates.
#[test]
fn imported_schedule_strategy_object_is_consulted() {
    let mut sched = ImportedSchedule::new(2);
    sched.push(NodeId(0), NodeId(1), 4);
    let mut boxed: Box<dyn Strategy> = Box::new(sched);
    let choice = manet_sim::DeliveryChoice {
        from: NodeId(0),
        to: NodeId(1),
        kind: "msg",
        now: SimTime(10),
        earliest: 1,
        latest: 10,
        pending_in_window: 0,
        pending_dependent_in_window: 0,
        fifo_floor: None,
        digest: None,
    };
    assert_eq!(boxed.choose_delay(&choice), 4);
    assert_eq!(boxed.choose_delay(&choice), 2);
}
