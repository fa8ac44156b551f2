//! Simulation configuration.

use crate::channel::ChannelConfig;
use crate::fault::FaultPlan;
use crate::shim::ArqConfig;
use crate::time::SimTime;

/// Configuration of a simulation run.
///
/// The two bounds of the paper's model appear here: `max_message_delay` is ν
/// (total time to prepare, transmit and receive a message) and `max_eating_ticks`
/// is τ (an upper bound on the time any node spends in its critical section).
/// The bounds are *not* visible to protocols — exactly as in the paper, where
/// they exist only for analysis — but the harness uses τ to cap eating
/// durations it schedules and experiments report times in the same ticks.
///
/// ```
/// use manet_sim::SimConfig;
/// let cfg = SimConfig { seed: 7, ..SimConfig::default() };
/// assert!(cfg.min_message_delay <= cfg.max_message_delay);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Seed for the single deterministic RNG driving the run.
    pub seed: u64,
    /// Minimum message delay in ticks (inclusive). Must be ≥ 1.
    pub min_message_delay: u64,
    /// Maximum message delay ν in ticks (inclusive).
    pub max_message_delay: u64,
    /// Maximum eating time τ in ticks. The engine enforces this only for
    /// eating sessions scheduled through the harness; protocols never see it.
    pub max_eating_ticks: u64,
    /// Radio range of the unit-disk connectivity model: two nodes are linked
    /// iff their Euclidean distance is ≤ this value.
    pub radio_range: f64,
    /// Interval, in ticks, between position updates of a smoothly moving
    /// node. Link changes are detected at each step.
    pub move_step_ticks: u64,
    /// Hard cap on processed events. Guards against accidental livelock in
    /// tests and experiments: reaching it stops the run and surfaces a
    /// structured [`crate::RunAbort`] through `Engine::abort` (it does not
    /// panic).
    pub max_events: u64,
    /// Record a trace of engine-level events (delivery, link changes,
    /// state transitions) for debugging and scenario assertions.
    pub trace: bool,
    /// The fault-injection adversary schedule (empty by default: no
    /// faults, and no perturbation of the engine's random stream).
    pub fault: FaultPlan,
    /// Per-link reliable-delivery (ARQ) shim between every protocol and
    /// its channel. `None` (the default) disables the shim entirely and
    /// keeps the engine bit-for-bit identical to a build without it; see
    /// [`ArqConfig`].
    pub arq: Option<ArqConfig>,
    /// Which channel model maps each physical send to a delivery time (or
    /// a loss). The default, [`ChannelConfig::Iid`], is the paper's model
    /// and keeps the engine bit-for-bit identical to a build without the
    /// channel subsystem; see [`crate::channel`]'s module docs for the
    /// bandwidth, shared-medium and burst-loss alternatives.
    pub channel: ChannelConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xA77D_2008,
            min_message_delay: 1,
            max_message_delay: 10,
            max_eating_ticks: 50,
            radio_range: 1.5,
            move_step_ticks: 2,
            max_events: 200_000_000,
            trace: false,
            fault: FaultPlan::default(),
            arq: None,
            channel: ChannelConfig::default(),
        }
    }
}

impl SimConfig {
    /// Validate the invariants of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_message_delay == 0 {
            return Err("min_message_delay must be ≥ 1 (messages are never instantaneous)".into());
        }
        if self.min_message_delay > self.max_message_delay {
            return Err(format!(
                "min_message_delay ({}) exceeds max_message_delay ({})",
                self.min_message_delay, self.max_message_delay
            ));
        }
        if self.max_eating_ticks == 0 {
            return Err("max_eating_ticks (τ) must be ≥ 1".into());
        }
        if self.radio_range <= 0.0 || self.radio_range.is_nan() {
            return Err("radio_range must be positive".into());
        }
        if self.move_step_ticks == 0 {
            return Err("move_step_ticks must be ≥ 1".into());
        }
        // Node-count-dependent fault checks re-run in the engine, which
        // knows the real `n`; here only the size-independent invariants.
        self.fault.validate(usize::MAX)?;
        if let Some(arq) = &self.arq {
            arq.validate()?;
        }
        self.channel.validate()?;
        Ok(())
    }

    /// The paper's ν: maximum message delay in ticks.
    pub fn nu(&self) -> u64 {
        self.max_message_delay
    }

    /// The paper's τ: maximum eating time in ticks.
    pub fn tau(&self) -> u64 {
        self.max_eating_ticks
    }

    /// A convenient horizon long enough for `rounds` sequential
    /// request–respond exchanges plus eating times. Used by tests.
    pub fn horizon(&self, rounds: u64) -> SimTime {
        SimTime(rounds.saturating_mul(self.max_message_delay + self.max_eating_ticks + 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SimConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_zero_min_delay() {
        let cfg = SimConfig {
            min_message_delay: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_inverted_delays() {
        let cfg = SimConfig {
            min_message_delay: 20,
            max_message_delay: 10,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_geometry() {
        let cfg = SimConfig {
            radio_range: 0.0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = SimConfig {
            move_step_ticks: 0,
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_invalid_fault_plan() {
        let cfg = SimConfig {
            fault: crate::fault::FaultPlan {
                link: Some(crate::fault::LinkFaults {
                    drop: -0.5,
                    ..crate::fault::LinkFaults::default()
                }),
                ..crate::fault::FaultPlan::default()
            },
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_invalid_channel() {
        let cfg = SimConfig {
            channel: ChannelConfig::ConstantBandwidth {
                ticks_per_frame: 0,
                max_queue: 8,
            },
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn nu_tau_accessors() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.nu(), cfg.max_message_delay);
        assert_eq!(cfg.tau(), cfg.max_eating_ticks);
        assert!(cfg.horizon(10) > SimTime::ZERO);
    }
}
