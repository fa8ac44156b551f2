//! Per-link reliable-delivery (ARQ) shim.
//!
//! The paper's model gives every protocol reliable FIFO links, but the
//! PR-2 fault adversary deliberately violates exactly that (drop /
//! duplicate). The shim closes the gap: when [`crate::SimConfig::arq`] is
//! set, every protocol message travels as a sequenced data frame on its
//! directed link incarnation, receivers deliver in order exactly once and
//! acknowledge cumulatively (piggybacked on reverse traffic, or as a
//! standalone ack after an idle timeout), and senders retransmit
//! unacknowledged frames on a timeout with capped exponential backoff.
//!
//! Determinism contract:
//!
//! * With `arq: None` (the default) the engine's behavior — random
//!   streams, traces, digests, stats — is bit-for-bit identical to a build
//!   without this module (pinned by `tests/reliable_delivery.rs`).
//! * With the shim enabled, backoff jitter draws from a *dedicated* RNG
//!   stream seeded from the run seed, so shim runs replay byte-for-byte
//!   and never perturb the fault adversary's stream.
//!
//! Scope: reliability is **per link incarnation**. A link flap (mobility,
//! partition, crash recovery) kills the incarnation and the shim state on
//! both sides with it — protocols already own re-synchronization across
//! incarnations (fork re-minting on `LinkUp`), and the shim must not
//! resurrect traffic from a dead incarnation under their feet.

use std::collections::VecDeque;

use crate::ids::NodeId;
use crate::rng::SimRng;

/// Configuration of the per-link ARQ shim (see [`crate::SimConfig::arq`];
/// `None` disables the shim entirely).
///
/// Times are in ticks; fields set to `0` resolve to defaults derived from
/// the run's ν at engine construction (noted per field).
#[derive(Clone, Debug, PartialEq)]
pub struct ArqConfig {
    /// Maximum unacknowledged frames buffered per directed link. Overflow
    /// aborts the run with [`crate::RunAbort::ShimBufferOverflow`] (a
    /// structured abort, not a panic).
    pub window: usize,
    /// Initial retransmission timeout. `0` resolves to `2ν` (one frame
    /// plus one ack at worst-case delay).
    pub rto_initial: u64,
    /// Upper bound on the backed-off retransmission timeout. `0` resolves
    /// to `16ν`.
    pub rto_cap: u64,
    /// Consecutive timeouts without ack progress before the sender gives
    /// up on a channel and discards its buffered frames. Giving up is
    /// essential: a crashed peer keeps its links up (crashes are silent in
    /// the model), and retransmitting to it forever would turn every crash
    /// into an event-budget livelock abort.
    pub max_retries: u32,
    /// Idle time after which a receiver owing an acknowledgment sends a
    /// standalone ack instead of waiting for reverse traffic to piggyback
    /// on. `0` resolves to ν.
    pub ack_idle: u64,
}

impl Default for ArqConfig {
    fn default() -> ArqConfig {
        ArqConfig {
            window: 64,
            rto_initial: 0,
            rto_cap: 0,
            max_retries: 16,
            ack_idle: 0,
        }
    }
}

impl ArqConfig {
    /// Validate the invariants of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("arq.window must be ≥ 1".into());
        }
        if self.rto_initial != 0 && self.rto_cap != 0 && self.rto_cap < self.rto_initial {
            return Err(format!(
                "arq.rto_cap ({}) below arq.rto_initial ({})",
                self.rto_cap, self.rto_initial
            ));
        }
        Ok(())
    }
}

/// Counters of shim activity over a run (all zero with the shim
/// disabled). Lives inside [`crate::EngineStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Data frames retransmitted after a timeout (go-back-N: every
    /// buffered frame of the timed-out channel counts).
    pub retransmissions: u64,
    /// Standalone acknowledgment frames sent after the idle timeout
    /// (piggybacked acks ride existing frames and are not counted).
    pub acks_sent: u64,
    /// Largest number of unacknowledged frames ever buffered on any
    /// single directed link.
    pub buffer_high_water: u64,
}

/// The resolved timing of one ARQ instance, in ticks: an [`ArqConfig`]
/// with its zero fields replaced by their ν-derived defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArqTiming {
    /// Maximum unacknowledged frames buffered per directed channel.
    pub window: usize,
    /// Initial retransmission timeout.
    pub rto_initial: u64,
    /// Upper bound on the backed-off retransmission timeout.
    pub rto_cap: u64,
    /// Consecutive silent timeouts before the sender gives up.
    pub max_retries: u32,
    /// Idle time before a standalone acknowledgment goes out.
    pub ack_idle: u64,
}

impl ArqTiming {
    /// Resolve `cfg` against the delay bound `nu` (in ticks).
    pub fn resolve(cfg: &ArqConfig, nu: u64) -> ArqTiming {
        let rto_initial = if cfg.rto_initial == 0 {
            2 * nu.max(1)
        } else {
            cfg.rto_initial
        };
        let rto_cap = if cfg.rto_cap == 0 {
            (16 * nu.max(1)).max(rto_initial)
        } else {
            cfg.rto_cap.max(rto_initial)
        };
        let ack_idle = if cfg.ack_idle == 0 {
            nu.max(1)
        } else {
            cfg.ack_idle
        };
        ArqTiming {
            window: cfg.window,
            rto_initial,
            rto_cap,
            max_retries: cfg.max_retries,
            ack_idle,
        }
    }

    /// Backed-off retransmission delay after `attempts` consecutive
    /// timeouts: `min(rto_cap, rto_initial · 2^attempts)` plus up to 25%
    /// jitter from `rng` (desynchronizes competing senders; the jitter
    /// draw happens even at the cap, keeping the stream's consumption a
    /// pure function of the timeout count).
    pub fn backoff(&self, attempts: u32, rng: &mut SimRng) -> u64 {
        let base = self
            .rto_initial
            .checked_shl(attempts.min(32))
            .unwrap_or(u64::MAX)
            .min(self.rto_cap);
        base + rng.gen_range(0..=base / 4)
    }
}

/// A timer the caller must arm: fire after `delay` ticks and hand `gen`
/// back to the slot, which ignores generations it has since superseded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arm {
    /// Generation of the armed timer.
    pub gen: u64,
    /// Delay in ticks.
    pub delay: u64,
}

/// What a retransmission timeout asks of the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timeout {
    /// A superseded generation, or nothing outstanding: do nothing.
    Idle,
    /// `max_retries` silent timeouts in a row: the buffer was discarded.
    GaveUp,
    /// Resend every buffered frame ([`SendSlot::outstanding`], go-back-N)
    /// and arm the timer again.
    Resend(Arm),
}

/// Sender-side state of one directed channel, valid for one link
/// incarnation. The engine resets it lazily on an epoch mismatch; a live
/// host replaces it when the link flaps.
#[derive(Clone, Debug)]
pub struct SendSlot<M> {
    pub(crate) epoch: u64,
    /// Sequence number of the first unacknowledged frame (the front of
    /// `buf`); numbering starts at 1 per incarnation.
    base: u64,
    /// Unacknowledged payloads, in sequence order starting at `base`.
    buf: VecDeque<M>,
    /// Consecutive timeouts since the last ack progress.
    attempts: u32,
    /// Generation of the armed retransmission timer; stale timer events
    /// (superseded by a re-arm) carry an older generation and no-op.
    rto_gen: u64,
    rto_armed: bool,
}

impl<M> Default for SendSlot<M> {
    fn default() -> SendSlot<M> {
        SendSlot::fresh(0)
    }
}

impl<M> SendSlot<M> {
    pub(crate) fn fresh(epoch: u64) -> SendSlot<M> {
        SendSlot {
            epoch,
            base: 1,
            buf: VecDeque::new(),
            attempts: 0,
            rto_gen: 0,
            rto_armed: false,
        }
    }

    /// Unacknowledged frames buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether every frame sent has been acknowledged (or given up on).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether a retransmission timer is armed.
    pub fn rto_armed(&self) -> bool {
        self.rto_armed
    }

    /// The buffered frames with their sequence numbers, oldest first.
    pub fn outstanding(&self) -> impl Iterator<Item = (u64, &M)> {
        let base = self.base;
        self.buf
            .iter()
            .enumerate()
            .map(move |(i, m)| (base + i as u64, m))
    }

    fn arm(&mut self, attempts: u32, t: &ArqTiming, rng: &mut SimRng) -> Arm {
        self.rto_gen += 1;
        self.rto_armed = true;
        Arm {
            gen: self.rto_gen,
            delay: t.backoff(attempts, rng),
        }
    }

    /// Buffer `msg` as the next frame and return its sequence number,
    /// plus the retransmission timer to arm if none was running.
    /// `Err(window)` when the window is full: the caller must abort, not
    /// buffer without bound.
    pub fn enqueue(
        &mut self,
        msg: M,
        t: &ArqTiming,
        rng: &mut SimRng,
    ) -> Result<(u64, Option<Arm>), usize> {
        if self.buf.len() >= t.window {
            return Err(t.window);
        }
        let seq = self.base + self.buf.len() as u64;
        self.buf.push_back(msg);
        let arm = (!self.rto_armed).then(|| self.arm(self.attempts, t, rng));
        Ok((seq, arm))
    }

    /// Apply the cumulative acknowledgment `ack`: release acknowledged
    /// frames and reset the backoff on progress. With frames still
    /// outstanding the timer restarts from the initial timeout (the
    /// channel just proved it is making progress); with none it is
    /// disarmed.
    pub fn on_ack(&mut self, ack: u64, t: &ArqTiming, rng: &mut SimRng) -> Option<Arm> {
        let mut progress = false;
        while self.base <= ack && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base += 1;
            progress = true;
        }
        if !progress {
            return None;
        }
        self.attempts = 0;
        if self.buf.is_empty() {
            self.rto_armed = false;
            return None;
        }
        Some(self.arm(0, t, rng))
    }

    /// The retransmission timer of generation `gen` fired: go back N with
    /// exponential backoff, or give up and discard after `max_retries`
    /// consecutive silent timeouts. Giving up matters: a crashed peer
    /// keeps its links up (crashes are silent), so without it every crash
    /// would retransmit forever.
    pub fn on_timeout(&mut self, gen: u64, t: &ArqTiming, rng: &mut SimRng) -> Timeout {
        if !self.rto_armed || self.rto_gen != gen {
            return Timeout::Idle;
        }
        self.rto_armed = false;
        if self.buf.is_empty() {
            return Timeout::Idle;
        }
        self.attempts += 1;
        if self.attempts > t.max_retries {
            self.base += self.buf.len() as u64;
            self.buf.clear();
            self.attempts = 0;
            return Timeout::GaveUp;
        }
        Timeout::Resend(self.arm(self.attempts, t, rng))
    }
}

/// Receiver-side state of one directed channel (same incarnation scoping
/// as [`SendSlot`]).
#[derive(Clone, Copy, Debug)]
pub struct RecvSlot {
    pub(crate) epoch: u64,
    /// Next in-order sequence number expected; `next - 1` is the
    /// cumulative ack value.
    next: u64,
    /// Whether an acknowledgment is owed (set on every data arrival,
    /// cleared when an ack goes out, piggybacked or standalone).
    ack_owed: bool,
    /// Generation of the armed idle-ack timer.
    ack_gen: u64,
    ack_armed: bool,
}

impl Default for RecvSlot {
    fn default() -> RecvSlot {
        RecvSlot::fresh(0)
    }
}

impl RecvSlot {
    pub(crate) fn fresh(epoch: u64) -> RecvSlot {
        RecvSlot {
            epoch,
            next: 1,
            ack_owed: false,
            ack_gen: 0,
            ack_armed: false,
        }
    }

    /// A data frame numbered `seq` arrived. Returns whether to deliver
    /// it (iff it is the next in-order frame: duplicates and gaps never
    /// reach the protocol, which is the reliable-FIFO contract the paper
    /// assumes) and the idle-ack timer to arm. Every arrival creates ack
    /// debt; the timer guarantees it is paid even on one-way traffic.
    pub fn on_data(&mut self, seq: u64, t: &ArqTiming) -> (bool, Option<Arm>) {
        self.ack_owed = true;
        let deliver = seq == self.next;
        if deliver {
            self.next += 1;
        }
        let arm = (!self.ack_armed).then(|| {
            self.ack_gen += 1;
            self.ack_armed = true;
            Arm {
                gen: self.ack_gen,
                delay: t.ack_idle,
            }
        });
        (deliver, arm)
    }

    /// The cumulative ack to piggyback on reverse traffic; marks the
    /// debt paid. A fresh incarnation acks 0.
    pub fn take_ack(&mut self) -> u64 {
        self.ack_owed = false;
        self.next - 1
    }

    /// The idle-ack timer of generation `gen` fired: the standalone
    /// cumulative ack to send, if one is still owed.
    pub fn on_ack_idle(&mut self, gen: u64) -> Option<u64> {
        if !self.ack_armed || self.ack_gen != gen {
            return None;
        }
        self.ack_armed = false;
        self.ack_owed.then(|| self.take_ack())
    }
}

/// The engine-side shim state: resolved timing plus dense
/// per-directed-channel slot tables, indexed like `LinkTable`
/// (`from * n + to`).
pub(crate) struct ShimState<M> {
    n: usize,
    pub timing: ArqTiming,
    /// Dedicated stream for backoff jitter, so shim timing never perturbs
    /// the engine's or the fault adversary's streams.
    pub rng: SimRng,
    send: Vec<SendSlot<M>>,
    recv: Vec<RecvSlot>,
}

impl<M> ShimState<M> {
    pub fn new(n: usize, cfg: &ArqConfig, nu: u64, run_seed: u64) -> ShimState<M> {
        ShimState {
            n,
            timing: ArqTiming::resolve(cfg, nu),
            rng: SimRng::seed_from_u64(shim_seed(run_seed)),
            send: (0..n * n).map(|_| SendSlot::fresh(0)).collect(),
            recv: vec![RecvSlot::fresh(0); n * n],
        }
    }

    /// Sender-side slot of the `from → to` channel in incarnation
    /// `epoch`, lazily reset when the recorded state belongs to a dead
    /// incarnation, together with the timing and jitter stream its
    /// transitions take.
    pub fn send_slot(
        &mut self,
        from: NodeId,
        to: NodeId,
        epoch: u64,
    ) -> (&mut SendSlot<M>, &ArqTiming, &mut SimRng) {
        let i = from.index() * self.n + to.index();
        let slot = &mut self.send[i];
        if slot.epoch != epoch {
            *slot = SendSlot::fresh(epoch);
        }
        (slot, &self.timing, &mut self.rng)
    }

    /// Receiver-side slot of the `from → to` channel (same scoping).
    pub fn recv_slot(&mut self, from: NodeId, to: NodeId, epoch: u64) -> &mut RecvSlot {
        let i = from.index() * self.n + to.index();
        let slot = &mut self.recv[i];
        if slot.epoch != epoch {
            *slot = RecvSlot::fresh(epoch);
        }
        slot
    }

    /// Cumulative ack to piggyback on a frame `from → to`, i.e. how much
    /// of the *reverse* data channel `to → from` has been received in
    /// order — and mark that debt paid. Reads through the lazy reset so a
    /// fresh incarnation acks 0.
    pub fn take_piggyback_ack(&mut self, from: NodeId, to: NodeId, epoch: u64) -> u64 {
        self.recv_slot(to, from, epoch).take_ack()
    }
}

/// Seed of the dedicated shim RNG: a salt of the run seed, so distinct
/// runs explore distinct backoff timings with no extra configuration.
pub fn shim_seed(run_seed: u64) -> u64 {
    run_seed ^ 0xA49_5EED_0C8E_77A1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ArqConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_window_and_inverted_rto() {
        let cfg = ArqConfig {
            window: 0,
            ..ArqConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = ArqConfig {
            rto_initial: 100,
            rto_cap: 10,
            ..ArqConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_fields_resolve_from_nu() {
        let t = ArqTiming::resolve(&ArqConfig::default(), 10);
        assert_eq!(t.rto_initial, 20);
        assert_eq!(t.rto_cap, 160);
        assert_eq!(t.ack_idle, 10);
    }

    #[test]
    fn slots_reset_lazily_on_epoch_change() {
        let mut state: ShimState<u64> = ShimState::new(2, &ArqConfig::default(), 10, 7);
        let (a, b) = (NodeId(0), NodeId(1));
        let (slot, _, _) = state.send_slot(a, b, 0);
        slot.buf.push_back(99);
        slot.attempts = 3;
        assert_eq!(state.send_slot(a, b, 0).0.len(), 1, "same incarnation");
        let (slot, _, _) = state.send_slot(a, b, 2);
        assert_eq!(slot.base, 1, "new incarnation restarts numbering");
        assert!(slot.is_empty());
        assert_eq!(slot.attempts, 0);
        let r = state.recv_slot(a, b, 0);
        r.next = 5;
        r.ack_owed = true;
        assert_eq!(
            state.take_piggyback_ack(b, a, 0),
            4,
            "acks the reverse channel"
        );
        assert!(!state.recv_slot(a, b, 0).ack_owed, "debt paid");
        assert_eq!(state.recv_slot(a, b, 3).next, 1, "reset on flap");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let t = ArqTiming::resolve(&ArqConfig::default(), 10);
        let mut rng = SimRng::seed_from_u64(7);
        // rto_initial 20, cap 160; jitter adds at most base/4.
        for attempts in 0..10 {
            let d = t.backoff(attempts, &mut rng);
            let base = (20u64 << attempts.min(3)).min(160);
            assert!(
                d >= base && d <= base + base / 4,
                "attempts {attempts}: {d}"
            );
        }
        // Huge attempt counts must not overflow the shift.
        assert!(t.backoff(200, &mut rng) >= 160);
    }

    #[test]
    fn go_back_n_releases_resends_and_gives_up() {
        let t = ArqTiming::resolve(
            &ArqConfig {
                window: 3,
                max_retries: 2,
                ..ArqConfig::default()
            },
            10,
        );
        let mut rng = SimRng::seed_from_u64(1);
        let mut send: SendSlot<char> = SendSlot::default();
        let (seq, arm) = send.enqueue('a', &t, &mut rng).unwrap();
        assert_eq!(seq, 1);
        let first = arm.expect("an idle channel arms its timer");
        let (seq, arm) = send.enqueue('b', &t, &mut rng).unwrap();
        assert_eq!((seq, arm), (2, None), "one timer per channel");
        send.enqueue('c', &t, &mut rng).unwrap();
        assert_eq!(send.enqueue('d', &t, &mut rng), Err(3), "window full");

        // A cumulative ack releases a prefix and restarts the timer.
        let rearm = send.on_ack(1, &t, &mut rng).expect("frames remain");
        assert_eq!(send.on_timeout(first.gen, &t, &mut rng), Timeout::Idle);
        assert!(send.on_ack(1, &t, &mut rng).is_none(), "no progress");
        let resend = send.on_timeout(rearm.gen, &t, &mut rng);
        let Timeout::Resend(again) = resend else {
            panic!("expected a resend, got {resend:?}");
        };
        let frames: Vec<(u64, char)> = send.outstanding().map(|(s, &m)| (s, m)).collect();
        assert_eq!(frames, vec![(2, 'b'), (3, 'c')], "go back to the oldest");
        let Timeout::Resend(last) = send.on_timeout(again.gen, &t, &mut rng) else {
            panic!("second timeout still resends");
        };
        assert_eq!(send.on_timeout(last.gen, &t, &mut rng), Timeout::GaveUp);
        assert!(send.is_empty());
        assert_eq!(send.enqueue('e', &t, &mut rng).unwrap().0, 4);

        // The receiver delivers in order only and pays its ack debt once.
        let mut recv = RecvSlot::default();
        let (deliver, arm) = recv.on_data(2, &t);
        assert!(!deliver, "a gap is held back");
        let idle = arm.expect("first arrival arms the idle ack");
        assert_eq!(idle.delay, 10);
        assert!(recv.on_data(1, &t) == (true, None));
        assert!(recv.on_data(1, &t) == (false, None), "duplicate");
        assert_eq!(recv.on_ack_idle(idle.gen), Some(1));
        assert_eq!(recv.on_ack_idle(idle.gen), None, "fired once");
        assert_eq!(recv.take_ack(), 1);
    }
}
