//! Fault tolerance for the pipeline runtime (paper §4).
//!
//! PipeDream's recovery story: every stage checkpoints its parameters
//! locally at epoch boundaries, so "when a stage fails, all stages restart
//! from the last successfully created checkpoint" and at most one epoch of
//! work is redone. This crate makes that claim testable:
//!
//! * [`plan::FaultPlan`] — a deterministic fault-injection plan parsed
//!   from a compact spec (`kill:stage=1,mb=37`, `delay:…`, `drop:…`,
//!   `corrupt:…`) and installed into the runtime's workers as a
//!   [`pipedream_runtime::fault::FaultHook`];
//! * [`supervisor`] — runs training under a plan, observes the typed
//!   worker failures the runtime surfaces, restarts from the last
//!   complete checkpoint with the existing resume machinery, and reports
//!   a [`pipedream_runtime::report::RecoveryRecord`] quantifying
//!   detection latency, redone work, and end-quality parity;
//! * [`straggler::DelayStraggler`] — a *persistent* slowdown (every
//!   forward send from one stage delayed) for exercising the live
//!   drift detector and replan advisor, where a one-shot fault would
//!   vanish between profiler sample windows.

pub mod plan;
pub mod straggler;
pub mod supervisor;

pub use plan::{Fault, FaultPlan};
pub use straggler::DelayStraggler;
pub use supervisor::{train_with_recovery, SupervisorError};
