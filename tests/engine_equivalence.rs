//! Golden conformance suite for the spatial-grid link engine: every cell
//! and seed is pinned by a fingerprint (`GOLDEN_*`) captured while the
//! pairwise O(n²) reference engine still existed and agreed with the grid
//! bit for bit — same link-change events in the same order, same
//! LinkTable epochs (observable through traces and delivery sequence
//! numbers), same EngineStats, same JSONL reports.
//!
//! Cells cover topology × mobility × fault combinations, including nodes
//! crossing cell boundaries and landing exactly on cell edges, each over
//! at least 8 seeds. The world-level fuzz also checks the adjacency
//! against a brute-force all-pairs unit-disk oracle after every step.

mod golden;

use harness::{run_algorithm, topology, AlgKind, RunReport, RunSpec, WaypointPlan};
use local_mutex::Algorithm2;
use manet_sim::{
    Command, CrashWave, Engine, FaultPlan, NodeId, PartitionWindow, Position, SimConfig, SimTime,
    World,
};

const SEEDS: std::ops::Range<u64> = 1..9;

/// `(events, trace length, state digest, FNV of stats + trace)`.
type TraceFp = (u64, usize, Option<u64>, u64);
/// `(events, messages sent, FNV of the outcome + its JSONL line)`.
type RunFp = (u64, u64, u64);
/// `(grid candidates examined, FNV of every link-change batch + final CSR)`.
type WorldFp = (u64, u64);

/// Run `kind` on `positions` and fingerprint the outcome — engine stats,
/// metrics, final CSR adjacency, crash set — with its rendered JSONL line.
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
    (
        out.stats.events,
        out.stats.messages_sent,
        golden::fnv(&[&format!("{out:?}"), &jsonl]),
    )
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

/// Cell 1: line topology with teleports that cross cell boundaries and
/// land *exactly* on cell edges (x = k · 1.5 = k · radio_range, the
/// worst case for the grid's floor-keying).
#[test]
fn cell_line_teleports_onto_cell_edges() {
    let positions = topology::line(12);
    let mut got = vec![];
    for seed in SEEDS {
        let k = (seed % 5) as f64;
        let commands = vec![
            (
                SimTime(500),
                Command::Teleport {
                    node: NodeId(0),
                    dest: Position { x: k * 1.5, y: 0.0 },
                },
            ),
            (
                SimTime(1_000),
                Command::Teleport {
                    node: NodeId(11),
                    dest: Position {
                        x: 3.0,
                        y: 1.5, // exactly one cell down, one range away
                    },
                },
            ),
            (
                SimTime(1_500),
                Command::Teleport {
                    node: NodeId(5),
                    dest: Position { x: 0.0, y: 0.0 }, // co-located with node 0's column
                },
            ),
            (
                SimTime(2_000),
                Command::Teleport {
                    node: NodeId(0),
                    dest: Position {
                        x: -1.5, // negative coordinates: floor ≠ truncate
                        y: -1.5,
                    },
                },
            ),
        ];
        got.push(trace_fp(seed, &positions, &commands));
    }
    golden::assert_golden(
        "GOLDEN_LINE_EDGE_TELEPORTS",
        &got,
        GOLDEN_LINE_EDGE_TELEPORTS,
    );
}

const GOLDEN_LINE_EDGE_TELEPORTS: &[TraceFp] = &[
    (124, 123, Some(18163480731212632081), 7570033007844107897),
    (126, 122, Some(2158939040778040974), 8020973584647246238),
    (116, 110, Some(16263491552116048597), 4411825475417568182),
    (115, 111, Some(13650977785856196917), 6620904877192466809),
    (101, 99, Some(904019078691355118), 11057276502520152979),
    (111, 107, Some(7412197495861747921), 13899084411837142212),
    (116, 112, Some(12774944816886204621), 5319891067867900674),
    (128, 127, Some(15844348195869542295), 10277075897889708649),
];

/// Cell 2: random deployment with smooth random-waypoint motion — the
/// bread-and-butter mobility workload, nodes migrate cells continuously.
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

/// Cell 3: partition + heal through engine commands while nodes move —
/// exercises the cut mask in both apply_cut and clear_cut fast paths.
#[test]
fn cell_grid_partition_and_heal() {
    let positions = topology::grid(5, 5);
    let mut got = vec![];
    for seed in SEEDS {
        let side: Vec<NodeId> = (0..8).map(NodeId).collect();
        let mut commands = vec![
            (SimTime(800), Command::Partition { side: side.clone() }),
            (
                SimTime(1_200),
                Command::Teleport {
                    node: NodeId(3), // inside the cut side, walks next to outsiders
                    dest: Position { x: 4.0, y: 4.0 },
                },
            ),
            (SimTime(2_500), Command::Heal),
        ];
        commands.extend(waypoints(25, 6, 6_000, seed));
        commands.sort_by_key(|(t, _)| *t);
        got.push(trace_fp(seed, &positions, &commands));
    }
    golden::assert_golden("GOLDEN_GRID_PARTITION", &got, GOLDEN_GRID_PARTITION);
}

const GOLDEN_GRID_PARTITION: &[TraceFp] = &[
    (557, 471, Some(9347426423631830545), 5925739524358619625),
    (600, 499, Some(5406827984269108959), 14633009910121816054),
    (630, 518, Some(12231002576243227446), 16198723241358136860),
    (591, 509, Some(15314079980370079763), 7706826963263804333),
    (622, 517, Some(17106112142356074812), 5796201653245132027),
    (581, 492, Some(18147639508244021699), 10580470799477298036),
    (653, 544, Some(12509255506044066340), 15161378759145950763),
    (672, 558, Some(672618385607068333), 15150188817603129393),
];

// ---------------------------------------------------------------------
// Harness-level cells: stats + metrics + JSONL are fingerprinted.
// ---------------------------------------------------------------------

/// Cell 4: clique under the adaptive max-delay adversary with moves.
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

/// Cell 5: ring under message drop + duplication faults with moves.
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

/// Cell 6: random deployment with a crash wave and a partition window,
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
// World-level fuzz: the relocate/cut primitives themselves.
// ---------------------------------------------------------------------

/// Brute-force all-pairs unit-disk oracle: the adjacency must be exactly
/// the pairs within radio range (crashes leave links alone).
fn assert_unit_disk(w: &World, range: f64, ctx: &str) {
    for a in (0..w.len() as u32).map(NodeId) {
        let want: Vec<NodeId> = (0..w.len() as u32)
            .map(NodeId)
            .filter(|&b| b != a && w.position(a).distance(w.position(b)) <= range)
            .collect();
        assert_eq!(w.neighbors(a), want, "{ctx}: adjacency of {a:?}");
    }
}

/// Random relocations (including exact cell-edge landings) and crashes
/// must keep the adjacency equal to the all-pairs oracle after every step,
/// and reproduce the pinned LinkChange sequences and final adjacency.
#[test]
fn world_level_relocate_fuzz() {
    let mut got = vec![];
    for seed in SEEDS {
        let n = 24;
        let positions: Vec<Position> = topology::random_connected(n, seed)
            .into_iter()
            .map(Position::from)
            .collect();
        let mut world = World::new(1.5, positions);
        let mut rng = manet_sim::SimRng::seed_from_u64(seed);
        let mut changes = vec![];
        for step in 0..400 {
            let node = NodeId(rng.gen_range(0..n as u32));
            let dest = if step % 5 == 0 {
                // Land exactly on a cell corner (multiples of the range).
                Position {
                    x: f64::from(rng.gen_range(0..4u32)) * 1.5,
                    y: f64::from(rng.gen_range(0..4u32)) * 1.5,
                }
            } else {
                Position {
                    x: rng.gen_f64() * 6.0,
                    y: rng.gen_f64() * 6.0,
                }
            };
            changes.push(world.relocate(node, dest));
            assert_unit_disk(&world, 1.5, &format!("seed {seed} step {step}"));
            match step % 7 {
                0 => world.mark_crashed(node),
                3 => world.mark_recovered(node),
                _ => continue,
            }
            assert_unit_disk(&world, 1.5, &format!("seed {seed} step {step} crash"));
        }
        // The point of the grid: strictly fewer candidates than the n − 1
        // per step an all-pairs scan examines.
        assert!(
            world.candidates_examined() < 400 * (n as u64 - 1),
            "seed {seed}: examined {} candidates",
            world.candidates_examined()
        );
        got.push((
            world.candidates_examined(),
            golden::fnv(&[
                &format!("{changes:?}"),
                &format!("{:?}", world.csr_snapshot()),
            ]),
        ));
    }
    golden::assert_golden("GOLDEN_WORLD_FUZZ", &got, GOLDEN_WORLD_FUZZ);
}

const GOLDEN_WORLD_FUZZ: &[WorldFp] = &[
    (4877, 3955016843868636171),
    (5019, 10667403842234689586),
    (5232, 13586807711302706010),
    (4933, 4677243409665540136),
    (5028, 10469398909763356583),
    (4962, 13141951698806352339),
    (5008, 7921188361967974825),
    (4798, 11520996252376065138),
];
