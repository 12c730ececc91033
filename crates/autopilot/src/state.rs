//! The reconfiguration state machine, and the control plane's record of
//! what it did.
//!
//! Every live repartition walks a fixed ladder of states; the
//! [`StateLog`] publishes each transition to the obs metrics registry
//! (`autopilot_state` gauge plus one counter per state) and drops a
//! `reconfig` instant on the control plane's one track, `supervisor`,
//! where detected faults and recoveries land too — so a traced run shows
//! the relaunch loop's decisions alongside the worker rows.

use pipedream_obs::{MetricsRegistry, Recorder, SpanKind, TraceSession};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Where the control plane is in the reconfiguration ladder.
///
/// `Monitoring → DriftConfirmed → Draining → Checkpointing →
/// Repartitioning → Resuming → Verifying → {Committed | RolledBack}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AutopilotState {
    /// Sampling the live profiler; no drift confirmed yet.
    Monitoring,
    /// The drift detector tripped its hysteresis: a stage is measurably
    /// off-plan and the advisor will be consulted.
    DriftConfirmed,
    /// A drain was requested: the input stage stops admitting new
    /// minibatches past the cut and in-flight work finishes.
    Draining,
    /// All stages reached the cut and are writing the consistent
    /// `(epoch, minibatch)` checkpoint.
    Checkpointing,
    /// The drained checkpoint is being re-split along the new plan's
    /// stage boundaries.
    Repartitioning,
    /// Stage workers are relaunching under the new assignment, resuming
    /// mid-epoch from the repartitioned checkpoint.
    Resuming,
    /// The new configuration is in its probation window: measured
    /// throughput must beat the degraded baseline by the margin.
    Verifying,
    /// Probation passed — the new plan is kept for the rest of the run.
    Committed,
    /// Probation failed — the run drained again and resumed the previous
    /// plan from the same checkpoint.
    RolledBack,
}

impl AutopilotState {
    /// Stable numeric code for the `autopilot_state` gauge (ladder
    /// order; `Committed`/`RolledBack` share the terminal rung 7/8).
    pub fn code(self) -> u8 {
        match self {
            AutopilotState::Monitoring => 0,
            AutopilotState::DriftConfirmed => 1,
            AutopilotState::Draining => 2,
            AutopilotState::Checkpointing => 3,
            AutopilotState::Repartitioning => 4,
            AutopilotState::Resuming => 5,
            AutopilotState::Verifying => 6,
            AutopilotState::Committed => 7,
            AutopilotState::RolledBack => 8,
        }
    }

    /// Inverse of [`code`](Self::code), for consumers (like `pipedream
    /// top`) that read the `autopilot_state` gauge back out of a metrics
    /// registry. `None` for out-of-range codes.
    pub fn from_code(code: u8) -> Option<AutopilotState> {
        Some(match code {
            0 => AutopilotState::Monitoring,
            1 => AutopilotState::DriftConfirmed,
            2 => AutopilotState::Draining,
            3 => AutopilotState::Checkpointing,
            4 => AutopilotState::Repartitioning,
            5 => AutopilotState::Resuming,
            6 => AutopilotState::Verifying,
            7 => AutopilotState::Committed,
            8 => AutopilotState::RolledBack,
            _ => return None,
        })
    }

    /// snake_case name used for metrics series and logs.
    pub fn name(self) -> &'static str {
        match self {
            AutopilotState::Monitoring => "monitoring",
            AutopilotState::DriftConfirmed => "drift_confirmed",
            AutopilotState::Draining => "draining",
            AutopilotState::Checkpointing => "checkpointing",
            AutopilotState::Repartitioning => "repartitioning",
            AutopilotState::Resuming => "resuming",
            AutopilotState::Verifying => "verifying",
            AutopilotState::Committed => "committed",
            AutopilotState::RolledBack => "rolled_back",
        }
    }
}

impl fmt::Display for AutopilotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The control plane's record of what it did, shared between the relaunch
/// loop and its monitor threads.
pub struct StateLog {
    /// The `supervisor` track, registered on first use: a run the control
    /// plane never acts on carries no extra track.
    track: OnceLock<Recorder>,
    session: Option<Arc<TraceSession>>,
}

impl StateLog {
    /// A log publishing to `session`, the *caller's* obs session (if any):
    /// its metrics registry and the `supervisor` control track, never the
    /// per-segment internal sessions the loop uses for profiling.
    pub fn new(session: Option<Arc<TraceSession>>) -> Self {
        StateLog {
            track: OnceLock::new(),
            session,
        }
    }

    /// Drop an instant of `kind` on the control track; the session's
    /// metrics, if there is a session.
    fn mark(&self, kind: SpanKind) -> Option<&MetricsRegistry> {
        let track = self.track.get_or_init(|| {
            self.session
                .as_ref()
                .map(|s| s.recorder("supervisor"))
                .unwrap_or_default()
        });
        track.instant(kind);
        self.session.as_deref().map(TraceSession::metrics)
    }

    /// Record entering `state`: sets the state gauge, bumps the state's
    /// counter, and drops a `reconfig` instant on the control track.
    pub fn enter(&self, state: AutopilotState) {
        if let Some(m) = self.mark(SpanKind::Reconfig) {
            m.gauge("autopilot_state").set(state.code() as f64);
            m.counter_labeled("autopilot_transitions_total", &[("state", state.name())])
                .inc();
        }
    }

    /// Record that a segment failed under an injected fault.
    pub fn fault(&self) {
        if let Some(m) = self.mark(SpanKind::Fault) {
            m.counter("faults_detected_total").inc();
        }
    }

    /// Record that the segment relaunched after a fault has run.
    pub fn recovered(&self) {
        if let Some(m) = self.mark(SpanKind::Recovery) {
            m.counter("faults_recovered_total").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [AutopilotState; 9] = [
        AutopilotState::Monitoring,
        AutopilotState::DriftConfirmed,
        AutopilotState::Draining,
        AutopilotState::Checkpointing,
        AutopilotState::Repartitioning,
        AutopilotState::Resuming,
        AutopilotState::Verifying,
        AutopilotState::Committed,
        AutopilotState::RolledBack,
    ];

    #[test]
    fn ladder_codes_are_ordered() {
        for w in LADDER.windows(2) {
            assert!(w[0].code() < w[1].code());
        }
        for s in LADDER {
            assert_eq!(AutopilotState::from_code(s.code()), Some(s));
        }
        assert_eq!(AutopilotState::from_code(9), None);
    }

    /// Each transition publishes as it happens: after entering a state the
    /// gauge reads it and its counter has counted it, and the control
    /// track holds one `reconfig` instant per transition, in order.
    #[test]
    fn transitions_publish_in_ladder_order() {
        let session = TraceSession::new();
        let log = StateLog::new(Some(session.clone()));
        let m = session.metrics();
        // The commit path, as the relaunch loop walks it.
        for state in &LADDER[..8] {
            log.enter(*state);
            assert_eq!(m.gauge("autopilot_state").get(), state.code() as f64);
            let seen = m.counter_labeled("autopilot_transitions_total", &[("state", state.name())]);
            assert_eq!(seen.get(), 1, "{state}");
        }
        let snap = session.snapshot();
        let track = snap.tracks.iter().find(|t| t.name == "supervisor").unwrap();
        assert_eq!(track.events.len(), 8);
        assert!(track.events.iter().all(|e| e.kind == SpanKind::Reconfig));
        assert!(track
            .events
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }
}
