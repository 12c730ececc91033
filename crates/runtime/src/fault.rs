//! Fault-injection hooks and typed worker failures (paper §4).
//!
//! PipeDream's fault-tolerance story is deliberately simple: stages
//! checkpoint at epoch boundaries without global coordination, and a
//! failed run "entails starting from the last successfully created
//! checkpoint for all stages". To demonstrate that mechanically we need
//! two things from the runtime itself:
//!
//! * a way to make workers *fail on purpose*, deterministically — the
//!   [`FaultHook`] trait, threaded into [`crate::worker::StageWorker`]
//!   behind an `Option` so the fault-free path pays one pointer check per
//!   op and nothing else;
//! * a typed [`WorkerError`] replacing the ad-hoc panics the workers used
//!   to die with, so the relaunch loop (see the `pipedream-autopilot`
//!   crate) can tell *what* failed and react, instead of unwinding the
//!   whole process.
//!
//! The hook's default methods are all no-ops, so implementors only
//! override the faults they inject. Every minibatch id a hook is shown is
//! one of the *logical* run (`done + mb` of a segment resumed after `done`
//! minibatches), so a hook installed in every segment of a run names the
//! same minibatch in whichever segment executes it.

use pipedream_core::schedule::Op;
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// What a worker should do before executing an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Execute the op normally.
    Continue,
    /// Die silently, as if the worker's machine failed. No error message
    /// is sent to the coordinator: the failure must be *detected* via
    /// channel disconnects and missing heartbeats, like a real crash.
    Kill,
}

/// What a worker should do with an outgoing forward-pass send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Deliver the message normally.
    Deliver,
    /// Sleep this long before delivering (a slow link).
    Delay(Duration),
    /// Silently discard the message (a lost packet). The receiver will
    /// stall until its [`FaultHook::recv_timeout`] expires.
    Drop,
}

/// Deterministic fault-injection hook, consulted by every stage worker.
///
/// All methods have no-op defaults; the trainer only consults the hook at
/// all when one is installed, so fault-free training is unaffected.
/// Minibatch ids are the logical run's (see the module docs).
pub trait FaultHook: Send + Sync {
    /// Called before each scheduled op, with the op's minibatch numbered by
    /// the logical run. Return [`FaultAction::Kill`] to crash this worker
    /// at exactly this point in the schedule.
    fn before_op(&self, _stage: usize, _replica: usize, _op: &Op) -> FaultAction {
        FaultAction::Continue
    }

    /// Called before each forward activation send from `stage` for
    /// logical minibatch `mb`.
    fn on_forward_send(&self, _stage: usize, _mb: u64) -> SendAction {
        SendAction::Deliver
    }

    /// Called after a checkpoint file is written, with its path. A hook
    /// may corrupt or truncate the file to exercise checkpoint-validation
    /// paths.
    fn on_checkpoint_written(&self, _path: &Path, _stage: usize, _epoch: usize) {}

    /// Receive timeout for blocking channel reads. `None` (the default)
    /// blocks forever, like the fault-free runtime. Hooks that drop
    /// messages should return a bound so stalled workers fail with
    /// [`WorkerError::Stalled`] instead of hanging the pipeline.
    fn recv_timeout(&self) -> Option<Duration> {
        None
    }

    /// Deadline for gradient-sync (all_reduce) waits on replicated
    /// stages. `None` (the default) keeps the trainer's production
    /// deadline; hooks that kill replicas should return a tight bound so
    /// the stranded partners' [`WorkerError::SyncStalled`] surfaces
    /// quickly in tests.
    fn sync_deadline(&self) -> Option<Duration> {
        None
    }
}

/// Typed failure of one stage worker.
///
/// Replaces the panics the workers previously died with; every variant
/// carries enough context to identify the failing worker and the point in
/// the schedule where it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// The upstream peer disconnected while this stage awaited an
    /// activation for minibatch `mb`.
    UpstreamLost {
        /// Failing stage.
        stage: usize,
        /// Minibatch being awaited.
        mb: u64,
    },
    /// The downstream peer disconnected while this stage awaited a
    /// gradient for minibatch `mb`.
    DownstreamLost {
        /// Failing stage.
        stage: usize,
        /// Minibatch being awaited.
        mb: u64,
    },
    /// A send to a peer failed because its receiver is gone.
    PeerSendFailed {
        /// Failing stage.
        stage: usize,
        /// Minibatch being sent.
        mb: u64,
        /// True when the failed send was a backward-pass gradient.
        backward: bool,
    },
    /// No message arrived within the fault hook's receive timeout.
    Stalled {
        /// Failing stage.
        stage: usize,
        /// Minibatch being awaited.
        mb: u64,
    },
    /// Gradient sync across stage replicas failed: a partner replica died
    /// (poisoning the group) or the sync deadline expired. Also reported
    /// in place of a disconnect that reached this replica after a partner
    /// poisoned the group. The replicated stage can no longer make
    /// progress, so this cascades teardown exactly like a channel
    /// disconnect.
    SyncStalled {
        /// Failing stage.
        stage: usize,
        /// Replica that observed the failure.
        replica: usize,
        /// Minibatch whose update was being synchronized, or whose
        /// message the disconnect cut off.
        mb: u64,
        /// The underlying [`crate::sync::SyncError`], rendered.
        reason: String,
    },
    /// The weight version a forward pass had to pin (a vertical-sync tag,
    /// a 2BW generation) was never produced or is no longer held.
    VersionMissing {
        /// Failing stage.
        stage: usize,
        /// Minibatch involved.
        mb: u64,
        /// The missing version tag.
        version: u64,
    },
    /// Writing an epoch-boundary checkpoint failed.
    CheckpointWrite {
        /// Failing stage.
        stage: usize,
        /// Epoch whose checkpoint failed.
        epoch: usize,
        /// Underlying error rendered to a string (io errors aren't `Clone`).
        message: String,
    },
    /// The run's op lists would leave this worker blocked for good at `op`
    /// — waiting for a message or a gradient-sync round that no schedule
    /// order can deliver. Found before any worker starts, by playing the op
    /// lists against the runtime's blocking rules: the run is refused
    /// instead of hanging.
    ScheduleStuck {
        /// Stuck stage.
        stage: usize,
        /// Stuck replica.
        replica: usize,
        /// The op it would wait on forever (segment-local minibatch id).
        op: Op,
    },
    /// Killed by fault injection ([`FaultAction::Kill`]).
    Killed {
        /// Killed stage.
        stage: usize,
        /// Killed replica.
        replica: usize,
        /// Logical-run minibatch of the op at which the kill fired
        /// (`u64::MAX` for a flush op).
        mb: u64,
    },
}

impl WorkerError {
    /// The stage the error originated from.
    pub fn stage(&self) -> usize {
        match *self {
            WorkerError::UpstreamLost { stage, .. }
            | WorkerError::DownstreamLost { stage, .. }
            | WorkerError::PeerSendFailed { stage, .. }
            | WorkerError::Stalled { stage, .. }
            | WorkerError::SyncStalled { stage, .. }
            | WorkerError::VersionMissing { stage, .. }
            | WorkerError::CheckpointWrite { stage, .. }
            | WorkerError::ScheduleStuck { stage, .. }
            | WorkerError::Killed { stage, .. } => stage,
        }
    }

    /// Whether this error is the injected fault itself (as opposed to
    /// collateral damage on surviving workers).
    pub fn is_injected(&self) -> bool {
        matches!(self, WorkerError::Killed { .. })
    }
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::UpstreamLost { stage, mb } => {
                write!(f, "stage {stage}: upstream lost while awaiting act mb {mb}")
            }
            WorkerError::DownstreamLost { stage, mb } => write!(
                f,
                "stage {stage}: downstream lost while awaiting grad mb {mb}"
            ),
            WorkerError::PeerSendFailed {
                stage,
                mb,
                backward,
            } => write!(
                f,
                "stage {stage}: {} send for mb {mb} failed (peer gone)",
                if *backward { "gradient" } else { "activation" }
            ),
            WorkerError::Stalled { stage, mb } => {
                write!(f, "stage {stage}: stalled awaiting mb {mb} (recv timeout)")
            }
            WorkerError::SyncStalled {
                stage,
                replica,
                mb,
                reason,
            } => write!(
                f,
                "stage {stage} replica {replica}: gradient sync for mb {mb} failed: {reason}"
            ),
            WorkerError::VersionMissing { stage, mb, version } => write!(
                f,
                "stage {stage}: weight version {version} for mb {mb} not retained"
            ),
            WorkerError::CheckpointWrite {
                stage,
                epoch,
                message,
            } => write!(
                f,
                "stage {stage}: checkpoint write (epoch {epoch}): {message}"
            ),
            WorkerError::ScheduleStuck { stage, replica, op } => write!(
                f,
                "stage {stage} replica {replica}: the schedule blocks for good at {op:?} \
                 (refused before training)"
            ),
            WorkerError::Killed { stage, replica, mb } => write!(
                f,
                "stage {stage} replica {replica}: killed by fault injection at mb {mb}"
            ),
        }
    }
}

impl std::error::Error for WorkerError {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl FaultHook for Noop {}

    #[test]
    fn default_hook_is_inert() {
        let h = Noop;
        assert_eq!(
            h.before_op(0, 0, &Op::Forward { mb: 3 }),
            FaultAction::Continue
        );
        assert_eq!(h.on_forward_send(0, 3), SendAction::Deliver);
        assert_eq!(h.recv_timeout(), None);
    }

    #[test]
    fn error_reports_origin_stage() {
        let e = WorkerError::Killed {
            stage: 2,
            replica: 0,
            mb: 37,
        };
        assert_eq!(e.stage(), 2);
        assert!(e.is_injected());
        assert!(e.to_string().contains("killed"));
        let e = WorkerError::UpstreamLost { stage: 1, mb: 5 };
        assert!(!e.is_injected());
        assert_eq!(e.stage(), 1);
    }
}
