//! The control plane of the PipeDream reproduction: fault recovery (paper
//! §4) and live replanning, as one relaunch loop.
//!
//! PipeDream's recovery story: every stage checkpoints its parameters
//! locally, so "when a stage fails, all stages restart from the last
//! successfully created checkpoint" and at most one epoch of work — `k`
//! minibatches with `checkpoint_every = k` — is redone. PipeDream also
//! plans a partition once, from an offline profile (§3.1), and assumes the
//! profile stays true; the live layer of `pipedream-obs` *detects* when it
//! doesn't (a [`pipedream_obs::LiveProfiler`] measures the running
//! pipeline, a [`pipedream_obs::DriftDetector`] confirms persistent
//! stragglers) and its advisor computes what the partitioner would do
//! under measured costs. Both end the same way — stop the pipeline at a
//! checkpoint every stage completed, perhaps re-split it, relaunch — and
//! this crate runs both through one loop, [`train_supervised`]:
//!
//! * [`plan::FaultPlan`] — deterministic fault injection parsed from a
//!   compact spec (`kill:stage=1,mb=37`, `delay:…`, `drop:…`,
//!   `corrupt:…`, the persistent `straggle:…`, several joined with `;`),
//!   installed into every segment's workers as a
//!   [`pipedream_runtime::fault::FaultHook`] that sees logical minibatch
//!   ids;
//! * [`pilot`] — the segment loop: a segment a fault brought down resumes
//!   from its newest complete checkpoint; with replanning on, a drift drain
//!   leads through the ladder of [`AutopilotState`] — `Monitoring →
//!   DriftConfirmed → Draining → Checkpointing → Repartitioning → Resuming
//!   → Verifying → {Committed | RolledBack}`;
//! * [`repartition_checkpoint`] — reassembles the full model from the
//!   drained stage files and re-splits it along the new plan's boundaries,
//!   into a fresh generation directory, so a rollback finds the old plan's
//!   files untouched;
//! * [`StateLog`] — every transition, fault and recovery on the caller's
//!   obs session: one `supervisor` control track plus metrics.
//!
//! The final report's [`pipedream_runtime::TrainReport::control_log`]
//! holds one [`pipedream_runtime::RecoveryRecord`] per recovery (detection
//! latency, where the restart resumed, redone work, end quality) and one
//! [`pipedream_runtime::ReconfigReport`] per reconfiguration (plan
//! fingerprints, downtime, redone work, the verdict), in order.

pub mod pilot;
pub mod plan;
pub mod repartition;
pub mod state;

pub use pilot::{train_supervised, AutopilotError, AutopilotOpts};
pub use plan::{CorruptMode, Fault, FaultPlan};
pub use repartition::repartition_checkpoint;
pub use state::{AutopilotState, StateLog};
