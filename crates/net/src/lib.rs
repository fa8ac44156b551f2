//! # `lme-net` — the live runtime
//!
//! Everything else in this workspace runs the paper's algorithms inside a
//! deterministic discrete-event simulator, where "time" is a counter and
//! "the network" is a priority queue. This crate runs the *same*
//! [`manet_sim::Protocol`] automata as real concurrent programs: a fixed
//! pool of worker threads, real message passing, wall-clock time.
//!
//! The layering:
//!
//! * [`codec`] — hand-rolled length-prefixed wire format (version byte,
//!   algorithm tag, payload, FNV-1a checksum) for every protocol message;
//!   strict decoding, no panics on hostile bytes;
//! * [`transport`] — the [`transport::Envelope`] around each frame, the
//!   [`transport::TransportKind`] choice (in-process rings or UDP
//!   datagrams on loopback), and the [`transport::LinkGate`] the driver
//!   flips to sever links;
//! * `host` — the sans-IO node host: one automaton, its self-driven
//!   workload, its trace records, and the simulator's go-back-N ARQ
//!   ([`manet_sim::shim`]) under `--reliable`;
//! * [`shard`] — the M:N runtime: a worker pool owning contiguous node
//!   shards, per-shard timing wheels, batched cross-shard frames over
//!   bounded SPSC rings, per-shard ticket ranges merged into one total
//!   order at export, and the driver that injects mobility, crashes, and
//!   partitions under the simulator's rules;
//! * [`runtime`] — the front door: [`runtime::LiveConfig`],
//!   [`runtime::run_live`], [`runtime::LiveOutcome`];
//! * [`trace`] — totally-ordered capture of everything observable, safety
//!   validation through the harness [`harness::SafetyMonitor`], and export
//!   of delivery timings as a simulator schedule;
//! * [`replay`] — the conformance bridge: re-run a live execution's
//!   timing shape inside the deterministic engine and check that safety
//!   and the eating census survive the crossing.
//!
//! What is *lost* relative to the simulator — and deliberately so — is
//! virtual-time determinism: a live run's interleaving comes from the OS
//! scheduler and real queues. What is *kept* is the model: the automata,
//! the ν-bounded-delay assumption (ticks map to wall time via
//! `tick_ns`), the crash and partition semantics, and the safety
//! invariant, checked by the very same monitor that audits simulated
//! runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod host;
pub mod replay;
pub mod runtime;
pub mod shard;
pub mod trace;
pub mod transport;

pub use codec::{decode_frame, encode_frame, CodecError, WireMsg, WIRE_VERSION};
pub use replay::{conformance_replay, ConformanceReport};
pub use runtime::{run_live, LiveAlg, LiveConfig, LiveOutcome, LiveRuntime};
pub use shard::{merge_stamped, HybridClock, ShardAbort, ShardTuning, StampedRecord};
pub use trace::{LiveEventKind, LiveRecord, LiveTrace, NodeNetStats};
pub use transport::{Envelope, LinkGate, TransportKind, ENV_ACK, ENV_DATA};
