//! Host pace: how fast the host runs a fixed reference computation right
//! now, relative to a nominal speed.
//!
//! On a small virtual machine shared with other tenants, the same
//! computation runs up to 1.5 times slower, in spells from a fraction of a
//! second to minutes long. Every repetition times a fixed computation,
//! which uses none of this repository's code, just before and just after
//! the workload, and measurements shorter than a spell are paced by a
//! short reference run right next to them. The end-to-end timings are
//! divided by the measured slowdown (`pace`), so that they follow the
//! program rather than the host's load; the report prints the raw values
//! beside them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::rep::{median, thread_cpu_ns};

/// Reference samples taken before the workload, and again after it.
const SAMPLES: usize = 10;

/// Time of one reference computation at nominal host speed.
pub const NOMINAL_MS: f64 = 1.0;

/// One reference computation: a binary heap of timestamped items over a
/// 1 MiB state table, the shape of a discrete-event loop. Returns its
/// wall time in milliseconds.
pub fn reference_ms() -> f64 {
    let mut state = vec![0u64; 1 << 17];
    let t = Instant::now();
    heap_work(&mut state, 10_000);
    t.elapsed().as_secs_f64() * 1e3
}

/// `ops` steps of the reference computation on `state`.
fn heap_work(state: &mut [u64], ops: u64) {
    let n = state.len();
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..ops {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        heap.push(Reverse((x >> 40, i)));
        if heap.len() > 512 {
            let Reverse((k, j)) = heap.pop().expect("heap is non-empty");
            let idx = ((k ^ j) as usize).wrapping_mul(2_654_435_761) % n;
            state[idx] = state[idx].wrapping_add(k);
            state[(idx + 64) % n] ^= state[idx];
        }
    }
    std::hint::black_box(state);
}

/// CPU time of one short reference computation at nominal host speed.
const SHORT_NOMINAL_NS: f64 = 40_000.0;

/// A short reference computation (a tenth of [`reference_ms`]'s steps, on a
/// table kept between calls) for pacing single measurements well under a
/// millisecond long. The host's speed can change several times a second,
/// by up to 1.5 times, so such a measurement is paced by a reference taken
/// just before it rather than by its repetition's pace.
pub struct ShortReference {
    state: Vec<u64>,
}

impl Default for ShortReference {
    fn default() -> ShortReference {
        ShortReference {
            state: vec![0; 1 << 17],
        }
    }
}

impl ShortReference {
    /// The pace right now: the CPU time of one short reference
    /// computation over its nominal time.
    pub fn pace(&mut self) -> f64 {
        let t = thread_cpu_ns();
        heap_work(&mut self.state, 1_000);
        (thread_cpu_ns() - t) as f64 / SHORT_NOMINAL_NS
    }
}

/// Run `work` between two sets of reference computations and return its
/// result with the host pace (median reference time over nominal).
pub fn paced<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let mut samples: Vec<f64> = (0..SAMPLES).map(|_| reference_ms()).collect();
    let out = work();
    samples.extend((0..SAMPLES).map(|_| reference_ms()));
    let pace = median(&samples).unwrap_or(NOMINAL_MS) / NOMINAL_MS;
    (out, pace)
}
