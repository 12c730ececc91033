//! A real, multi-threaded pipeline-parallel training runtime.
//!
//! Where `pipedream-sim` *models* PipeDream's execution against a hardware
//! cost model, this crate *performs* it: pipeline stages run as stepped
//! workers on one thread per CPU (at most one per worker), exchanging
//! messages through per-thread inboxes, executing the same static 1F1B-RR schedules
//! ([`pipedream_core::schedule::Schedule`]) against real
//! `pipedream-tensor` models on synthetic datasets. It exists to
//! demonstrate the paper's §3.3 "effective learning" claims mechanically:
//!
//! * with **weight stashing**, every minibatch's backward pass runs against
//!   exactly the weights its forward pass used, so a pipelined run is the
//!   delayed-SGD recurrence `w(t+1) = w(t) − ν·∇f(w₁(t−τ₁), …, wₙ(t−τₙ))`
//!   with the staleness formulas' delays — bit for bit;
//! * **naive pipelining** (no stashing) mixes weight versions between the
//!   two passes and follows no such recurrence;
//! * **vertical sync** makes the version consistent across stages, 2BW
//!   holds two, and **GPipe** (microbatch groups + flush) aggregates the
//!   group's gradients: each is the same recurrence with other delays.
//!
//! [`baselines`] provides the single-threaded references: minibatch SGD,
//! and [`train_delayed_sgd`], the §3.3 recurrence every semantics but naive
//! pipelining is held to (BSP data parallelism is the pipeline trainer on
//! `PipelineConfig::data_parallel`); [`checkpoint`] implements §4's
//! per-stage checkpointing without global coordination.

pub mod baselines;
pub mod checkpoint;
pub mod control;
pub mod data;
mod executor;
pub mod fault;
pub mod message;
pub mod report;
pub mod sync;
pub mod trainer;
pub mod worker;

pub use baselines::{train_delayed_sgd, train_sequential};
pub use control::RunControl;
pub use data::TrainData;
pub use fault::{FaultAction, FaultHook, SendAction, WorkerError};
pub use report::{
    ControlRecord, EpochStats, LossRecord, ReconfigReport, ReconfigVerdict, RecoveryRecord,
    StageObsRecord, TrainReport, VersionRecord, WorkerLog,
};
pub use trainer::{
    train_pipeline, try_train_pipeline, LrSchedule, OptimKind, Semantics, TrainError, TrainOpts,
};
