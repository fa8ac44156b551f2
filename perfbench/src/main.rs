//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats the workload in fresh child processes for about `--seconds`,
//! prints a report, and ends with one JSON line holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The run
//! fails (exit 1, no JSON) when a repetition cannot run at all; failed
//! correctness checks print `"correct": false`.
//!
//! Internal modes: `perfbench child <workload> <seed> <traced> <gate>
//! <full|toy>` runs one repetition; `perfbench record <workload> <from>
//! <to>` prints the fingerprint lines of `fingerprints.tsv`.

use std::collections::{BTreeSet, HashMap};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use lme_perfbench::rep::{median, Rep};
use lme_perfbench::{run_rep, Size, END_TO_END, PER_LAYER, WORKLOADS};

/// Recorded fingerprints: `workload<TAB>seed<TAB>fingerprint` per line.
const FINGERPRINTS: &str = include_str!("../fingerprints.tsv");

/// Untraced repetitions a `--trace 0` run makes at least.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("record") => record(&args[1..]),
        _ => bench(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            opts.size = Size::Toy;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value '{value}'"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}\n{USAGE}"));
    }
    if opts.seconds == 0 {
        return Err(format!("--seconds must be at least 1\n{USAGE}"));
    }
    Ok(opts)
}

/// Child mode: run one repetition and print it in the line protocol.
fn child(args: &[String]) -> Result<(), String> {
    let [workload, seed, traced, gate, size] = args else {
        return Err("child needs <workload> <seed> <traced> <gate> <full|toy>".into());
    };
    let seed = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let size = if size == "toy" { Size::Toy } else { Size::Full };
    let rep = run_rep(workload, seed, size, traced == "1", gate == "1")?;
    print!("{}", rep.to_lines());
    Ok(())
}

/// Run one repetition in a fresh child process and wait for it.
fn spawn(workload: &str, seed: u64, size: Size, traced: bool, gate: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let flag = |b: bool| if b { "1" } else { "0" };
    let out = Command::new(exe)
        .args([
            "child",
            workload,
            &seed.to_string(),
            flag(traced),
            flag(gate),
            if size == Size::Toy { "toy" } else { "full" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} repetition exited with {}", out.status));
    }
    Rep::from_lines(&String::from_utf8_lossy(&out.stdout))
}

/// Record mode: print fingerprint lines for a range of seeds.
fn record(args: &[String]) -> Result<(), String> {
    let [workload, from, to] = args else {
        return Err("record needs <workload> <from> <to>".into());
    };
    let parse = |s: &String| s.parse::<u64>().map_err(|_| format!("bad seed '{s}'"));
    for seed in parse(from)?..=parse(to)? {
        let rep = spawn(workload, seed, Size::Full, false, false)?;
        if !rep.bad.is_empty() || rep.failed > 0 {
            return Err(format!(
                "{workload} seed {seed} failed {} of {} operations: {:?}",
                rep.failed, rep.attempted, rep.bad
            ));
        }
        println!("{workload}\t{seed}\t{}", rep.fingerprint);
    }
    Ok(())
}

fn recorded_fingerprint(workload: &str, seed: u64) -> Option<&'static str> {
    FINGERPRINTS.lines().find_map(|line| {
        let mut f = line.splitn(3, '\t');
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(fp)) if w == workload && s.parse() == Ok(seed) => Some(fp),
            _ => None,
        }
    })
}

fn stamp() -> String {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git_rev={}",
        run("rustc", &["--version"]),
        run("git", &["rev-parse", "--short=12", "HEAD"])
    )
}

fn bench(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args)?;
    let (w, seed) = (opts.workload.as_str(), opts.seed);
    println!(
        "perfbench: workload {w}, seed {seed}, {} s, trace {}",
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("{}", stamp());

    // Alternate untraced and traced repetitions under --trace 1; the first
    // repetition also runs the planted-fault gates.
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for i in 0.. {
        let t = opts.trace && i % 2 == 1;
        let rep = spawn(w, seed, opts.size, t, i == 0)?;
        if t {
            traced.push(rep)
        } else {
            untraced.push(rep)
        }
        let elapsed = start.elapsed();
        let enough = if opts.trace {
            !traced.is_empty()
        } else {
            untraced.len() >= MIN_REPS
        };
        if enough && elapsed + elapsed / (i + 1) > budget {
            break;
        }
    }

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let mut problems: BTreeSet<String> = all.iter().flat_map(|r| r.bad.iter().cloned()).collect();
    let fingerprints: BTreeSet<&str> = all.iter().map(|r| r.fingerprint.as_str()).collect();
    if fingerprints.len() > 1 {
        problems.insert(format!(
            "fingerprint differs between repetitions: {fingerprints:?}"
        ));
    }
    let fp = all[0].fingerprint.as_str();
    if !fp.is_empty() {
        match (opts.size, recorded_fingerprint(w, seed)) {
            (Size::Full, Some(rec)) if rec == fp => {
                println!("fingerprint: {fp} (matches the recorded value)")
            }
            (Size::Full, Some(rec)) => {
                problems.insert(format!("fingerprint {fp} != recorded {rec}"));
            }
            _ => println!("fingerprint: {fp} (no recorded value for this seed and size)"),
        }
    }
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    println!(
        "operations: attempted {attempted}, failed {failed}, fail_ratio {}",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "repetitions: {} untraced, {} traced, {:.1} s",
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    for p in &problems {
        println!("FAILED CHECK: {p}");
    }

    let metrics: Vec<(&str, &str, f64)> = if opts.trace {
        let mut values = medians(&traced);
        let wall = |reps: &[Rep]| {
            median(
                &reps
                    .iter()
                    .filter_map(|r| r.get("raw.wall_s"))
                    .collect::<Vec<_>>(),
            )
        };
        if let (Some(t), Some(u)) = (wall(&traced), wall(&untraced)) {
            values.insert("trace.overhead_s".into(), t - u);
        }
        PER_LAYER
            .iter()
            .map(|m| {
                let v = values.get(m.name).copied();
                println!(
                    "layer {:<28} {:>16} {:<5} moves {} on {}",
                    m.name,
                    v.map_or("0 (not exercised)".into(), |v| format!("{v:.6}")),
                    m.unit,
                    m.moves,
                    m.on
                );
                (m.name, m.unit, v.unwrap_or(0.0))
            })
            .collect()
    } else {
        let values = medians(&untraced);
        let samples = values.get("latency_samples").copied().unwrap_or(0.0);
        println!("latency samples: {samples} per repetition (median)");
        let pace = values.get("host.pace").copied().unwrap_or(1.0);
        println!(
            "host pace: {pace:.4} (median; each paced repetition divides its timings by its own pace and multiplies its rates)"
        );
        let mut out = Vec::new();
        for m in &END_TO_END {
            let v = values
                .get(m.name)
                .copied()
                .ok_or_else(|| format!("{w} did not measure {}", m.name))?;
            let raw = values.get(&format!("raw.{}", m.name)).copied().unwrap_or(v);
            println!(
                "metric {:<20} {:>16.6} {:<5} (raw {raw:.6})",
                m.name, v, m.unit
            );
            out.push((m.name, m.unit, v));
        }
        out
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        attempted.max(1),
        body.join(", ")
    );
    Ok(())
}

/// Median of every measurement over `reps`.
fn medians(reps: &[Rep]) -> HashMap<String, f64> {
    let mut by_name: HashMap<String, Vec<f64>> = HashMap::new();
    for r in reps {
        for (k, v) in &r.metrics {
            by_name.entry(k.clone()).or_default().push(*v);
        }
    }
    by_name
        .into_iter()
        .filter_map(|(k, v)| median(&v).map(|m| (k, m)))
        .collect()
}
