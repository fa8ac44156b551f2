//! Sharded live runtime: safety, ticket-range merge, and conformance
//! with the simulator (DESIGN.md §15).
//!
//! The sharded runtime runs the protocol automata on a fixed worker
//! pool, with each shard stamping its own ticket range from a hybrid
//! logical clock and the ranges merged into one total order at export.
//! These tests pin the contract of that merge — the order is dense (no
//! ticket reused or skipped), every shard's stream order survives, and
//! the merged trace satisfies the very same safety monitor that audits
//! simulated runs — plus crash/recovery and the conformance bridge, whose
//! deterministic replay in the simulator is the reference a live run is
//! held to.

use harness::{topology, WaypointPlan};
use lme_net::{
    conformance_replay, merge_stamped, run_live, LiveAlg, LiveConfig, LiveEventKind, LiveRuntime,
    StampedRecord, TransportKind,
};
use manet_sim::{Command, NodeId, SimRng};

fn sharded_cfg(alg: LiveAlg, positions: Vec<(f64, f64)>, workers: usize) -> LiveConfig {
    let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, positions);
    cfg.duration_ms = 300;
    cfg.rate = 60.0;
    cfg.eat_ms = 1;
    cfg.runtime = LiveRuntime::Sharded { workers };
    cfg
}

/// The merged total order must be dense — `order` is exactly `0..len` —
/// and per-node record sequences must keep their own wall-clock order
/// (each node lives on one shard, so its stream order is the shard's).
fn assert_valid_merge(out: &lme_net::LiveOutcome, n: usize) {
    let mut last_at = vec![0u64; n];
    for (i, r) in out.trace.records().iter().enumerate() {
        assert_eq!(r.order, i as u64, "ticket reused or skipped at {i}");
        let node = match r.kind {
            LiveEventKind::State { node, .. }
            | LiveEventKind::Deliver { to: node, .. }
            | LiveEventKind::Recover { node }
            | LiveEventKind::NetStats { node, .. } => Some(node),
            _ => None,
        };
        if let Some(node) = node {
            assert!(
                r.at_ns >= last_at[node.index()],
                "node {} record at {} ns merged before its own {} ns record",
                node.index(),
                r.at_ns,
                last_at[node.index()]
            );
            last_at[node.index()] = r.at_ns;
        }
    }
}

#[test]
fn crashed_sharded_runs_stay_safe_with_valid_merges() {
    // For seeded runs on clique:4 and ring:5 with one crash, the merged
    // order is a valid interleaving, the safety monitor finds it clean,
    // every node joins and no frame fails to decode.
    for alg in LiveAlg::all() {
        for (name, positions) in [
            ("clique:4", topology::clique(4)),
            ("ring:5", topology::ring(5)),
        ] {
            let n = positions.len();
            let mut sharded = sharded_cfg(alg, positions.clone(), 3);
            sharded.crash = Some((0, 100));
            let out =
                run_live(&sharded).unwrap_or_else(|e| panic!("{} on {name}: {e}", alg.name()));
            assert!(
                out.violations.is_empty(),
                "{} on {name} (sharded): {:?}",
                alg.name(),
                out.violations
            );
            assert_eq!(
                out.threads_joined,
                n,
                "{} on {name}: nodes lost",
                alg.name()
            );
            assert_eq!(
                out.decode_errors,
                0,
                "{} on {name}: decode errors",
                alg.name()
            );
            assert!(
                !out.trace.is_empty(),
                "{} on {name}: empty trace",
                alg.name()
            );
            assert_valid_merge(&out, n);
        }
    }
}

#[test]
fn sharded_one_shot_run_conforms_in_the_simulator() {
    // The simulator is the reference: a fault-free one-shot run's
    // delivery timings replay safely in the deterministic engine with the
    // same eating census, for every live algorithm on a clique and a ring.
    for alg in LiveAlg::all() {
        for (name, positions) in [
            ("clique:4", topology::clique(4)),
            ("ring:5", topology::ring(5)),
        ] {
            let n = positions.len();
            let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, positions);
            cfg.one_shot = true;
            cfg.eat_ms = 1;
            cfg.duration_ms = 5_000;
            cfg.runtime = LiveRuntime::Sharded { workers: 2 };
            let cell = format!("{} on {name}", alg.name());
            let out = run_live(&cfg).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(out.violations.is_empty(), "{cell}: {:?}", out.violations);
            assert_eq!(
                out.meals,
                vec![1; n],
                "{cell}: one-shot must feed every node"
            );
            assert_valid_merge(&out, n);
            let report = conformance_replay(&cfg, &out).expect("replay");
            assert_eq!(report.sim_violations, 0, "{cell}: sim replay was unsafe");
            assert!(
                report.conforms(),
                "{cell}: sim census {:?} != live census {:?}",
                report.sim_census,
                report.live_census
            );
        }
    }
}

#[test]
fn teleports_merge_after_what_the_workers_recorded_before_them() {
    // The driver stamps a relocation after the latest stamp of every
    // worker. When it did not, a busy shard's clock ran ahead of the wall
    // tick, relocations merged before records taken earlier, and the
    // monitor saw about one violation per meal on this cell. What remains
    // is a real but rare overlap: a mover relocated while eating next to
    // an eating node, until its own demotion (DESIGN.md §15).
    let n = 30;
    let mut cfg = sharded_cfg(LiveAlg::A2, topology::random_connected(n, 3), 2);
    cfg.duration_ms = 1_500;
    cfg.rate = 40.0;
    let plan = WaypointPlan {
        area_side: (n as f64 / 1.6).sqrt(),
        moves: 40,
        window: (150, 1_350),
        speed: None,
        seed: 0xB0B,
    };
    for (t, cmd) in plan.commands(n) {
        if let Command::Teleport { node, dest } = cmd {
            cfg.moves.push((t.0, node.0, (dest.x, dest.y)));
        }
    }
    let out = run_live(&cfg).expect("teleport run");
    assert!(out.total_meals() > 500, "{} meals", out.total_meals());
    assert!(
        out.violations.len() * 50 < out.total_meals() as usize,
        "{} violations in {} meals: driver records merged out of order",
        out.violations.len(),
        out.total_meals()
    );
    assert_valid_merge(&out, n);
}

#[test]
fn sharded_udp_smoke_stays_safe() {
    // Same batches, real datagrams: one shard pair per socket on
    // loopback. Loss is possible in principle, so only safety and clean
    // shutdown are asserted, not delivery counts.
    let mut cfg = sharded_cfg(LiveAlg::A2, topology::clique(4), 2);
    cfg.transport = TransportKind::Udp;
    let out = run_live(&cfg).expect("sharded udp run");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.threads_joined, 4);
    assert_valid_merge(&out, 4);
}

#[test]
fn sharded_crash_and_recovery_rejoins() {
    let mut cfg = sharded_cfg(LiveAlg::A2, topology::clique(4), 2);
    cfg.duration_ms = 500;
    cfg.crash = Some((0, 100));
    cfg.recover = Some((0, 180));
    let out = run_live(&cfg).expect("sharded crash/recover run");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.recoveries, 1, "recovery was not executed");
    assert_eq!(out.threads_joined, 4);
    let recovered = out
        .trace
        .records()
        .iter()
        .any(|r| matches!(r.kind, LiveEventKind::Recover { node } if node == NodeId(0)));
    assert!(recovered, "no Recover record in the merged trace");
}

#[test]
fn closed_loop_outruns_the_open_loop_rate_cap() {
    // The saturation blind spot: at rate 60/s a 300 ms open-loop run caps
    // every algorithm near the same meal count. Closed-loop re-requests
    // immediately after eating, so the same cell must eat strictly more.
    let open = sharded_cfg(LiveAlg::A2, topology::clique(4), 2);
    let mut closed = open.clone();
    closed.closed_loop = true;
    let open_out = run_live(&open).expect("open-loop run");
    let closed_out = run_live(&closed).expect("closed-loop run");
    assert!(
        closed_out.violations.is_empty(),
        "{:?}",
        closed_out.violations
    );
    assert!(
        closed_out.total_meals() > open_out.total_meals(),
        "closed loop ({}) did not outrun the open-loop rate cap ({})",
        closed_out.total_meals(),
        open_out.total_meals()
    );
}

#[test]
fn synthetic_ticket_merge_is_a_dense_valid_interleaving() {
    // Property test against the merge itself, no runtime involved: seeded
    // per-shard streams with strictly increasing clocks merge into a
    // dense total order that preserves every stream's internal order.
    let mut rng = SimRng::seed_from_u64(0x5AAD_2008);
    for round in 0..32 {
        let shards = 2 + (round % 4);
        let mut streams: Vec<Vec<StampedRecord>> = Vec::new();
        for s in 0..shards {
            let len = rng.gen_range(0..40u64) as usize;
            let mut clock = 0u64;
            let mut stream = Vec::with_capacity(len);
            for i in 0..len {
                clock += 1 + rng.gen_range(0..5u64);
                // Tag each record with its (stream, index) identity via
                // the NetStats counters so order can be audited after the
                // merge.
                stream.push(StampedRecord {
                    clock,
                    at_ns: clock * 10,
                    kind: LiveEventKind::NetStats {
                        node: NodeId(s as u32),
                        decode_errors: i as u64,
                        send_failures: 0,
                        retransmissions: 0,
                        acks_sent: 0,
                    },
                });
            }
            streams.push(stream);
        }
        let total: usize = streams.iter().map(Vec::len).sum();
        let merged = merge_stamped(streams);
        assert_eq!(merged.len(), total, "round {round}: records lost");
        let mut next_index = vec![0u64; shards];
        for (i, r) in merged.iter().enumerate() {
            assert_eq!(r.order, i as u64, "round {round}: ticket reused or skipped");
            if let LiveEventKind::NetStats {
                node,
                decode_errors,
                ..
            } = r.kind
            {
                assert_eq!(
                    decode_errors,
                    next_index[node.index()],
                    "round {round}: stream {} order broken",
                    node.index()
                );
                next_index[node.index()] += 1;
            }
        }
    }
}
