//! The recovery supervisor (paper §4).
//!
//! Runs pipeline training under a [`FaultPlan`]. If the injected fault
//! kills the run, every stage's channels disconnect and the runtime joins
//! all workers with typed errors — the supervisor then restarts training
//! from the last *complete* per-stage checkpoint — the same options with
//! `resume` set — exactly as the paper prescribes ("restarting entails
//! starting from the last successfully created checkpoint for all
//! stages"). Both attempts number minibatches and epochs by the logical
//! run, so the final [`TrainReport`] is the faulted attempt's report up to
//! the checkpoint followed by the restart's ([`TrainReport::then`]), and
//! its [`RecoveryRecord`] quantifies the recovery: detection latency, how
//! many minibatches were done at the checkpoint resumed from, how much work
//! was redone (the paper's bound: at most one epoch with per-epoch
//! checkpoints, `k` minibatches with `checkpoint_every = k`), and end
//! quality.

use crate::plan::{Fault, FaultPlan};
use pipedream_core::PipelineConfig;
use pipedream_runtime::checkpoint::latest_complete;
use pipedream_runtime::fault::FaultHook;
use pipedream_runtime::report::RecoveryRecord;
use pipedream_runtime::trainer::{try_train_pipeline, TrainOpts};
use pipedream_runtime::TrainReport;
use pipedream_tensor::data::Dataset;
use pipedream_tensor::Sequential;
use std::fmt;
use std::sync::Arc;

/// Why supervised training could not produce a recovered run.
#[derive(Debug)]
pub enum SupervisorError {
    /// The plan's fault needs checkpoints to recover from, but
    /// `TrainOpts::checkpoint_dir` is unset.
    MissingCheckpointDir,
    /// Training failed before the plan's fault fired — an organic bug,
    /// not the injected fault.
    UnexpectedFailure(String),
    /// The restarted (post-fault) run failed too.
    RestartFailed(String),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::MissingCheckpointDir => write!(
                f,
                "fault plan requires a checkpoint_dir to recover from (set TrainOpts::checkpoint_dir)"
            ),
            SupervisorError::UnexpectedFailure(e) => {
                write!(f, "training failed before the fault fired: {e}")
            }
            SupervisorError::RestartFailed(e) => write!(f, "restarted run failed: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Train under `plan`, recovering from the injected fault if it brings
/// the pipeline down.
///
/// Returns the trained model and a report whose
/// [`TrainReport::recovery`] records what happened. The report's
/// `per_epoch` and `per_minibatch` cover the *whole* logical run: what
/// completed (and was checkpointed) before the fault, then what the
/// restarted run trained.
pub fn train_with_recovery(
    model: &Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
    plan: Arc<FaultPlan>,
) -> Result<(Sequential, TrainReport), SupervisorError> {
    if opts.checkpoint_dir.is_none() && !matches!(plan.fault(), Fault::Delay { .. }) {
        return Err(SupervisorError::MissingCheckpointDir);
    }
    let hook: Arc<dyn FaultHook> = plan.clone();
    match try_train_pipeline(model.clone(), config, dataset, opts, Some(hook)) {
        Ok((trained, mut report)) => {
            // Non-fatal fault (a delay, a corrupted checkpoint the run
            // never needed): training completed in one attempt.
            report.recovery = Some(RecoveryRecord {
                fault: plan.spec().to_string(),
                detection_latency_s: 0.0,
                resumed_from: None,
                epochs_redone: 0,
                minibatches_redone: 0,
                checkpoint_every: opts.checkpoint_every,
                final_loss: report.final_loss(),
                final_accuracy: report.final_accuracy(),
                baseline_loss: None,
                baseline_accuracy: None,
            });
            Ok((trained, report))
        }
        Err(e) => {
            if !plan.fired() {
                return Err(SupervisorError::UnexpectedFailure(e.to_string()));
            }
            // Detection and recovery land on a dedicated supervisor track,
            // so a traced fault-injected run shows the kill and the restart
            // alongside the worker rows.
            let supervisor = opts
                .obs
                .as_ref()
                .map(|s| s.recorder("supervisor"))
                .unwrap_or_default();
            supervisor.instant(pipedream_obs::SpanKind::Fault);
            if let Some(session) = &opts.obs {
                session.metrics().counter("faults_detected_total").inc();
            }
            let detection_latency_s = plan
                .injected_at()
                .map(|t0| e.detected_at.duration_since(t0).as_secs_f64())
                .unwrap_or(0.0);
            // §4: restart every stage from the newest checkpoint whose
            // *every* stage file is intact — an epoch boundary, or a dump
            // in between when the run used `checkpoint_every`. The runtime
            // finds it again under `resume`; it is looked up here only to
            // be reported.
            let dir = opts
                .checkpoint_dir
                .as_ref()
                .ok_or(SupervisorError::MissingCheckpointDir)?;
            let resumed_from = latest_complete(dir, config.num_stages());
            let resume = TrainOpts {
                resume: true,
                ..opts.clone()
            };
            let (trained, resumed) =
                try_train_pipeline(model.clone(), config, dataset, &resume, None)
                    .map_err(|e| SupervisorError::RestartFailed(e.to_string()))?;
            supervisor.instant(pipedream_obs::SpanKind::Recovery);
            if let Some(session) = &opts.obs {
                session.metrics().counter("faults_recovered_total").inc();
            }

            // Work redone = training past the checkpoint that had already
            // been (at least partially) executed when the fault hit.
            let mbs_per_epoch = dataset.num_minibatches(opts.batch).max(1) as u64;
            let g0 = resumed_from.unwrap_or(0);
            // First minibatch *not* reached when the fault fired (the
            // faulted attempt started at 0, so its ids are the run's).
            let fault_frontier = match *plan.fault() {
                Fault::Kill { mb, .. } | Fault::Delay { mb, .. } | Fault::Drop { mb, .. } => mb + 1,
                Fault::Corrupt { epoch, .. } => (epoch as u64 + 1) * mbs_per_epoch,
            };
            let fault_epoch = (fault_frontier - 1) / mbs_per_epoch;
            let epochs_redone = (fault_epoch + 1).saturating_sub(g0 / mbs_per_epoch) as usize;
            let minibatches_redone = fault_frontier.saturating_sub(g0);

            let mut report = e.partial.then(resumed);
            report.recovery = Some(RecoveryRecord {
                fault: plan.spec().to_string(),
                detection_latency_s,
                resumed_from,
                epochs_redone,
                minibatches_redone,
                checkpoint_every: opts.checkpoint_every,
                final_loss: report.final_loss(),
                final_accuracy: report.final_accuracy(),
                baseline_loss: None,
                baseline_accuracy: None,
            });
            Ok((trained, report))
        }
    }
}
