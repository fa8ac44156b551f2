//! Engine microbenchmarks: raw event throughput of the simulator.
//!
//! Plain std-timing benchmarks (see `lme_bench::bench`); run with
//! `cargo bench -p lme-bench --bench engine`.

use harness::{topology, Workload};
use local_mutex::testutil::SafetyCheck;
use local_mutex::Algorithm2;
use manet_sim::{Engine, NodeId, SimConfig, SimTime};

/// A full Algorithm 2 run on a 20-node line: measures end-to-end engine +
/// protocol throughput (events/second is reported via wall time).
fn bench_line_run() {
    for &horizon in &[2_000u64, 8_000] {
        lme_bench::bench(&format!("engine/a2_line20_cyclic/{horizon}"), 10, || {
            let mut e: Engine<Algorithm2> =
                Engine::new(SimConfig::default(), topology::line(20), |seed| {
                    Algorithm2::new(&seed)
                });
            e.add_hook(Box::new(Workload::cyclic(10..=30, 50..=150, 1)));
            e.add_hook(Box::new(SafetyCheck::default()));
            for i in 0..20 {
                e.set_hungry_at(SimTime(1), NodeId(i));
            }
            e.run_until(SimTime(horizon));
            e.stats().events
        });
    }
}

/// A cyclic Algorithm 2 run on a 24-node ring without the safety hook:
/// event-core and dispatch cost. The full dispatch-bound ladder lives in
/// `lme bench engine`.
fn bench_ring_run() {
    lme_bench::bench("engine/a2_ring24", 10, || {
        let mut e: Engine<Algorithm2> =
            Engine::new(SimConfig::default(), topology::ring(24), |seed| {
                Algorithm2::new(&seed)
            });
        e.add_hook(Box::new(Workload::cyclic(10..=30, 50..=150, 1)));
        for i in 0..24 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        e.run_until(SimTime(8_000));
        e.stats().events
    });
}

/// Doorway-demo traversal cost: the double doorway under a recycling
/// clique — measures doorway state-machine + engine overhead without fork
/// logic.
fn bench_doorway_demo() {
    use doorway::demo::{DemoConfig, DoorwayDemo, Structure};
    lme_bench::bench("doorway/double_doorway_clique8", 10, || {
        let cfg = DemoConfig {
            structure: Structure::Double,
            hold_ticks: 20,
            recycle_after: Some(5),
        };
        let mut e: Engine<DoorwayDemo> = Engine::new(
            SimConfig::default(),
            harness::topology::clique(8),
            move |_| DoorwayDemo::new(cfg),
        );
        for i in 0..8 {
            e.set_hungry_at(SimTime(1 + i as u64 * 3), NodeId(i));
        }
        e.run_until(SimTime(4_000));
        e.stats().events
    });
}

fn main() {
    bench_line_run();
    bench_ring_run();
    bench_doorway_demo();
}
