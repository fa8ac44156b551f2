//! The benchmark's own tests: every workload at toy size emits every named
//! metric with its unit, the planted gates trip, and the simulator driver
//! reproduces the stock runner's statistics with and without timers.

use std::process::Command;

use harness::{run_algorithm, AlgKind, RunSpec};
use lme_perfbench::{check, live, sim, Size, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn benchmark_json_names_the_catalog() {
    let json = benchmark_json();
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "{w}"
        );
    }
    for m in &END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "end-to-end {}", m.name);
    }
    for m in &PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "per-layer {}", m.name);
    }
    let entries = json.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

/// Run the benchmark binary at toy size and return its last stdout line.
fn run_toy(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--toy",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "{workload}: {stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in WORKLOADS {
        for (trace, names) in [
            (
                "0",
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit))
                    .collect::<Vec<_>>(),
            ),
            ("1", PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()),
        ] {
            let line = run_toy(w, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {line}"
            );
            assert_eq!(
                line.matches("\"value\": ").count(),
                names.len(),
                "{w}: {line}"
            );
            for (name, unit) in names {
                let at = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{w} trace {trace} lacks {name}: {line}"));
                let rest = &line[at..];
                let entry = &rest[..rest.find('}').expect("closed entry")];
                assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
                if trace == "0" {
                    assert!(!entry.contains("\"value\": 0,"), "{w}: {name} is 0");
                }
            }
        }
    }
}

#[test]
fn rejects_bad_arguments_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

#[test]
fn planted_live_violation_trips_and_the_window_reconciles() {
    let rep = live::run(&live::config(5, Size::Toy), true, true);
    assert!(rep.bad.is_empty(), "{:?}", rep.bad);
    assert!(rep.get("net.sessions_in_window").unwrap() > 0.0);
    assert_eq!(rep.get("net.decode_errors"), Some(0.0));
}

#[test]
fn planted_checker_mutation_trips() {
    let rep = check::run(5, Size::Toy, true, true);
    assert!(rep.bad.is_empty(), "{:?}", rep.bad);
    assert_eq!(rep.get("check.schedules"), Some(200.0));
}

#[test]
fn sim_driver_reproduces_the_stock_runner_with_and_without_timers() {
    for spec in [
        sim::ring_static(9, Size::Toy),
        sim::mobile_lossy(9, Size::Toy),
    ] {
        let run_spec = RunSpec {
            sim: spec.cfg.clone(),
            horizon: spec.horizon,
            ..RunSpec::default()
        };
        let stock = run_algorithm(AlgKind::A2, &run_spec, &spec.positions, &spec.commands);
        let expected = sim::fingerprint(
            stock.events,
            stock.total_meals(),
            stock.messages_sent,
            &mut stock.metrics.all_responses(),
        );
        let plain = sim::run(&spec, false);
        let timed = sim::run(&spec, true);
        assert_eq!(plain.fingerprint, expected);
        assert_eq!(timed.fingerprint, expected);
        assert!(plain.bad.is_empty() && timed.bad.is_empty());
        assert_eq!(timed.get("sim.events"), Some(stock.events as f64));
        assert!(timed.get("core.steps").unwrap() > 0.0);
    }
}

#[test]
fn live_window_split_counts_drain_and_zero_latency_sessions() {
    use lme_net::{LiveEventKind, LiveRecord};
    use manet_sim::{DiningState::*, NodeId};
    let state = |at_ns: u64, node: u32, old, new| LiveRecord {
        at_ns,
        order: at_ns,
        kind: LiveEventKind::State {
            node: NodeId(node),
            old,
            new,
            session: 0,
        },
    };
    let records = vec![
        state(10, 0, Thinking, Hungry),
        state(30, 0, Hungry, Eating),
        state(40, 1, Thinking, Eating), // hungry and eating in one step
        state(50, 0, Eating, Thinking),
        state(60, 0, Thinking, Hungry),
        state(120, 0, Hungry, Eating), // after the window: drain
        state(130, 1, Eating, Thinking),
        state(140, 1, Thinking, Hungry), // never served, cut off
    ];
    let c = live::count_window(&records, 2, 100);
    assert_eq!((c.in_window, c.in_drain, c.unmatched), (2, 1, 0));
    assert_eq!(c.latencies_ns, vec![20, 0]);
    assert_eq!((c.starved, c.cut_off, c.first_ns), (0, 1, 10));
}

#[test]
fn worker_streams_re_merge_to_the_same_trace() {
    let cfg = live::config(2, Size::Toy);
    let out = lme_net::run_live(&cfg).expect("toy live run");
    let merged = lme_net::merge_stamped(live::worker_streams(out.trace.records(), 12));
    assert_eq!(merged.as_slice(), out.trace.records());
}
