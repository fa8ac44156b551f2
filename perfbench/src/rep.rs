//! One repetition of a workload, run in a fresh child process, and the
//! line protocol that carries its result to the parent.
//!
//! The child prints one line per item on standard output:
//! `m <name> <value>` for a measurement, `fp <text>` for the fingerprint,
//! `ops <attempted> <failed>` for the operation ledger and `bad <text>`
//! for every failed correctness check.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one repetition measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Measurements by name.
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic statistics that must repeat exactly for a seed.
    pub fingerprint: String,
    /// Operations attempted (hungry episodes, or schedules explored).
    pub attempted: u64,
    /// Operations that failed (see the README for what counts).
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub bad: Vec<String>,
}

impl Rep {
    /// Record a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A measurement, or `None` when the repetition did not take it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.bad.push(what.into());
    }

    /// Record a correctness check: `ok` or a failure described by `what`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.bad.push(what());
        }
    }

    /// Serialize in the line protocol.
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.metrics {
            let _ = writeln!(s, "m {k} {v}");
        }
        let _ = writeln!(s, "fp {}", self.fingerprint);
        let _ = writeln!(s, "ops {} {}", self.attempted, self.failed);
        for b in &self.bad {
            let _ = writeln!(s, "bad {}", b.replace('\n', " "));
        }
        s
    }

    /// Parse the line protocol; lines in no known form are ignored.
    pub fn from_lines(text: &str) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let mut saw_ops = false;
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "m" => {
                    let (k, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| format!("malformed metric line: {line}"))?;
                    let v: f64 = v.parse().map_err(|_| format!("bad value: {line}"))?;
                    rep.metrics.insert(k.to_string(), v);
                }
                "fp" => rep.fingerprint = rest.to_string(),
                "ops" => {
                    let mut it = rest.split(' ').map(str::parse::<u64>);
                    match (it.next(), it.next()) {
                        (Some(Ok(a)), Some(Ok(f))) => {
                            rep.attempted = a;
                            rep.failed = f;
                            saw_ops = true;
                        }
                        _ => return Err(format!("malformed ops line: {line}")),
                    }
                }
                "bad" => rep.bad.push(rest.to_string()),
                _ => {}
            }
        }
        if !saw_ops {
            return Err("child printed no result".into());
        }
        Ok(rep)
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Peak resident set size of this process in KiB (`VmHWM` in
/// `/proc/self/status`), or 0 where the file is unavailable.
pub fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// CPU time the calling thread has run, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike wall time it leaves out the time
/// the thread waited for a CPU, on a host where other processes or
/// tenants compete for it.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit `time_t` and
    // `long` on the 64-bit Linux targets), and the clock id is a constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips() {
        let mut r = Rep::default();
        r.set("wall_s", 1.25);
        r.set("sim.events", 12345.0);
        r.fingerprint = "events=1 meals=2".into();
        r.attempted = 10;
        r.failed = 1;
        r.fail("two\nlines");
        let back = Rep::from_lines(&r.to_lines()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.fingerprint, r.fingerprint);
        assert_eq!((back.attempted, back.failed), (10, 1));
        assert_eq!(back.bad, vec!["two lines".to_string()]);
        assert!(Rep::from_lines("m x 1\n").is_err());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&[7u64], 0.99), Some(7));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t0 = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0);
    }
}
