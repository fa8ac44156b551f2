//! Golden-fingerprint helpers shared by the equivalence suites.
//!
//! A fingerprint is a handful of counters plus an FNV-1a-64 over the
//! rendered artifacts of a run (its `Debug` rendering, JSONL line or
//! trace). The tables they are compared against were captured while the
//! binary-heap event queue and the pairwise link engine still existed and
//! agreed with the timing wheel and the spatial grid on every entry, so a
//! table match is a bit-for-bit match with both retired paths.

use manet_sim::Fnv;

/// FNV-1a-64 over `parts`, in order.
pub fn fnv(parts: &[&str]) -> u64 {
    let mut h = Fnv::new();
    for p in parts {
        h.write_bytes(p.as_bytes());
    }
    h.finish()
}

/// Require `got` to equal the pinned table `want`; on drift, print the
/// observed table as a paste-ready constant.
pub fn assert_golden<T: PartialEq + std::fmt::Debug>(name: &str, got: &[T], want: &[T]) {
    assert!(
        got == want,
        "{name} drifted from its golden fingerprints; observed:\nconst {name}: &[_] = &{got:?};"
    );
}
