//! Self-optimizing pipeline control plane for the PipeDream
//! reproduction.
//!
//! PipeDream plans a partition once, from an offline profile (§3.1), and
//! assumes the profile stays true for the whole run. PR 5's live layer
//! already *detects* when it doesn't — a [`pipedream_obs::LiveProfiler`]
//! measures the running pipeline and a [`pipedream_obs::DriftDetector`]
//! confirms persistent stragglers — and its replan advisor computes what
//! the partitioner would do under measured costs. This crate closes the
//! loop: it **acts** on that advice, live, with no human in the loop.
//!
//! The control plane is a state machine
//! ([`AutopilotState`]): `Monitoring → DriftConfirmed → Draining →
//! Checkpointing → Repartitioning → Resuming → Verifying → {Committed |
//! RolledBack}`. Concretely:
//!
//! 1. **Drain** — the runtime's [`pipedream_runtime::RunControl`] gate
//!    stops admitting minibatches past a consistent cut (aligned to the
//!    lcm of replica counts so every data-parallel allreduce round
//!    completes) and every in-flight minibatch finishes everywhere.
//! 2. **Checkpoint** — each stage dumps its parameters after the same
//!    number of completed minibatches.
//! 3. **Repartition** — [`repartition_checkpoint`] reassembles the full
//!    model from the old stage files and re-splits it along the new
//!    plan's boundaries, into a fresh generation directory.
//! 4. **Resume** — stage workers relaunch under the new assignment with
//!    `TrainOpts::resume`, continuing mid-epoch.
//! 5. **Verify** — the new plan sits a probation window: measured
//!    throughput must beat the degraded baseline by a margin, or the run
//!    drains again and **rolls back** to the previous plan from the same
//!    checkpoint. Training completes either way.
//!
//! Every transition is recorded (obs control track + metrics), and the
//! final report carries a [`pipedream_runtime::ReconfigReport`] with
//! plan fingerprints, downtime, redone work, and the verdict.

pub mod pilot;
pub mod repartition;
pub mod state;

pub use pilot::{train_with_autopilot, AutopilotError, AutopilotOpts};
pub use repartition::{repartition_checkpoint, RepartitionError};
pub use state::{AutopilotState, StateLog};
