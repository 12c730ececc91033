//! Persistent delay-straggler injection.
//!
//! A [`FaultPlan`] `delay:` fault fires exactly once — useful for
//! recovery tests, useless for drift detection, which needs a stage that
//! is *continuously* slow. [`DelayStraggler`] delays every forward
//! activation send from one stage (optionally from a given minibatch
//! onward), modeling a degraded host or a thermally-throttled device.
//!
//! The runtime executes the delay inside the worker's forward pass and
//! wraps it in a `SendWait` span nested in the recorded `Fwd`. The trace
//! attribution types that stall as `backpressure` — communication in the
//! busy/comm/bubble split, but part of the stage's per-minibatch *service*
//! time, because only this stage can absorb it. Service is what the live
//! profiler reports per stage, so the drift detector sees the straggler
//! run over its predicted time and the replan advisor scales that stage's
//! costs up; `pipedream analyze` shows the same seconds as the stage's
//! `backpressure` and its downstream neighbour's `wait_upstream`. Because
//! the injection point is the forward *send*, the straggler must not be
//! the last pipeline stage (which sends nothing downstream).
//!
//! [`FaultPlan`]: crate::plan::FaultPlan

use pipedream_runtime::fault::{FaultHook, SendAction};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A [`FaultHook`] that delays every forward send from one stage.
pub struct DelayStraggler {
    stage: usize,
    delay: Duration,
    from_mb: u64,
    fired: AtomicU64,
}

impl DelayStraggler {
    /// Delay every forward send from `stage` by `delay`.
    pub fn new(stage: usize, delay: Duration) -> Self {
        DelayStraggler {
            stage,
            delay,
            from_mb: 0,
            fired: AtomicU64::new(0),
        }
    }

    /// Only start delaying at minibatch `mb` — the run is healthy first,
    /// then degrades, which is the drift-detection scenario.
    pub fn starting_at(mut self, mb: u64) -> Self {
        self.from_mb = mb;
        self
    }

    /// The stage being slowed down.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Number of sends delayed so far.
    pub fn times_fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

impl FaultHook for DelayStraggler {
    fn on_forward_send(&self, stage: usize, mb: u64) -> SendAction {
        if stage == self.stage && mb >= self.from_mb {
            self.fired.fetch_add(1, Ordering::Relaxed);
            SendAction::Delay(self.delay)
        } else {
            SendAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_every_send_from_the_target_stage() {
        let s = DelayStraggler::new(1, Duration::from_millis(5));
        for mb in 0..4 {
            assert_eq!(
                s.on_forward_send(1, mb),
                SendAction::Delay(Duration::from_millis(5))
            );
            assert_eq!(s.on_forward_send(0, mb), SendAction::Deliver);
        }
        assert_eq!(s.times_fired(), 4);
    }

    #[test]
    fn starting_at_keeps_the_warmup_healthy() {
        let s = DelayStraggler::new(0, Duration::from_millis(5)).starting_at(10);
        assert_eq!(s.on_forward_send(0, 9), SendAction::Deliver);
        assert_eq!(
            s.on_forward_send(0, 10),
            SendAction::Delay(Duration::from_millis(5))
        );
        assert_eq!(s.times_fired(), 1);
    }
}
