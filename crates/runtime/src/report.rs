//! Training reports.
//!
//! Minibatch ids in a report ([`LossRecord::mb`], [`VersionRecord::mb`],
//! [`TrainReport::per_minibatch`]) and every position
//! ([`TrainReport::drained_at`], [`RecoveryRecord::resumed_from`],
//! [`ReconfigReport::drained_at`]) count minibatches of the *logical* run,
//! whichever segment of it — fresh, resumed, repartitioned — produced them.
//! What the control plane did between segments is one ordered log of
//! [`ControlRecord`]s, [`TrainReport::control_log`].

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Aggregated metrics of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's minibatches.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f32,
    /// Number of samples seen.
    pub samples: usize,
}

/// Which weight version a stage used for a minibatch's forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionRecord {
    /// Pipeline stage.
    pub stage: usize,
    /// Minibatch id.
    pub mb: u64,
    /// Local weight version at forward time.
    pub version: u64,
}

/// Per-worker stash/staleness observations, reported once when a worker
/// completes its op sequence.
///
/// These quantify §3.3's memory claims directly from a real run: the
/// input stage stashes at most NOAM weight versions, and a stage `s` of an
/// `n`-deep pipeline sees a steady-state weight-stashing staleness of
/// `n − 1 − s` updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageObsRecord {
    /// Pipeline stage.
    pub stage: usize,
    /// Replica within the stage.
    pub replica: usize,
    /// Peak number of in-flight minibatches holding a stashed version.
    pub stash_depth_max: usize,
    /// Peak number of distinct weight snapshots held at once.
    pub versions_held_max: usize,
    /// Peak observed weight-version staleness: updates applied between a
    /// minibatch's forward version and its backward (group updates under
    /// 2BW).
    pub staleness_max: u64,
    /// Peak bytes of live activation state (layer stashes + retained
    /// recompute inputs + pending loss gradients).
    pub activation_bytes_max: u64,
    /// Total microseconds spent in recompute forward passes (recompute
    /// schedule kinds only; 0 otherwise).
    pub recompute_us: u64,
    /// Weight and gradient bytes this worker's updates read and wrote: the
    /// weights once each way; the gradient as each backward pass stores it
    /// (a read and a write of the accumulator, a write into a buffer
    /// `Layer::reset_grads` left empty, nothing where the update computes
    /// it itself), as the step reads it (one deposit per replica from a
    /// gradient-sync round) and as it is zeroed for the next passes.
    /// Optimizer state and activations are not counted.
    pub weight_bytes: u64,
    /// Backward passes this worker ran.
    pub backwards: u64,
}

impl StageObsRecord {
    /// [`StageObsRecord::weight_bytes`] per backward pass, the worker's
    /// share of a minibatch (0 before any backward).
    pub fn weight_bytes_per_mb(&self) -> f64 {
        self.weight_bytes as f64 / self.backwards.max(1) as f64
    }
}

/// Loss and accuracy of one minibatch, measured at the output stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossRecord {
    /// Minibatch id.
    pub mb: u64,
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Correctly classified samples.
    pub correct: usize,
    /// Samples in the minibatch.
    pub count: usize,
}

/// What one stage worker recorded about its own run. It is written by the
/// worker alone, with no message to anyone, and handed to the coordinator
/// through the join handle — the worker's only report. A failed worker
/// hands it over too, so the partial report of a collapsed run still holds
/// everything computed before it, and the failure's time comes with it.
#[derive(Debug, Default)]
pub struct WorkerLog {
    /// One record per forward pass of an output-stage worker.
    pub losses: Vec<LossRecord>,
    /// One record per forward pass begun (drives the Figure-9 /
    /// staleness-formula checks).
    pub versions: Vec<VersionRecord>,
    /// Peak observations; `None` unless the op sequence ran to its end.
    pub obs: Option<StageObsRecord>,
    /// When the worker died of an error it met — a lost peer, a stalled
    /// receive or sync round, a failed write. `None` when it finished, and
    /// when an injected kill took it: a crashed machine reports nothing,
    /// its failure is seen by the peers it leaves behind.
    pub failed_at: Option<Instant>,
}

/// What happened when a segment of the run failed under an injected fault
/// and the run recovered (§4).
///
/// Produced by `pipedream-autopilot`'s relaunch loop, one per restart;
/// quantifies the paper's claim that epoch-boundary checkpointing bounds
/// redone work to at most one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// The injected faults that fired during the failed segment, by spec
    /// (e.g. `kill:stage=1,mb=37`; several are joined with `;`).
    pub fault: String,
    /// Seconds from fault injection to the first surviving worker failing
    /// of it (a channel disconnect, a poisoned or expired sync round, or a
    /// receive timeout), as stamped in that worker's [`WorkerLog`].
    pub detection_latency_s: f64,
    /// Minibatches the checkpoint the restarted run resumed from had
    /// completed — the id of the first minibatch it re-executed (`None`
    /// when no checkpoint existed yet and the restart began from scratch).
    pub resumed_from: Option<u64>,
    /// Epochs of work re-executed because they post-dated the last
    /// complete checkpoint. The paper's bound: ≤ 1 with per-epoch
    /// checkpoints.
    pub epochs_redone: usize,
    /// Minibatches of work re-executed: faulted minibatch + 1 minus
    /// `resumed_from`. With `--checkpoint-every k` the
    /// bound tightens from ≤ 1 epoch to ≤ `k` minibatches (plus the
    /// pipeline's in-flight window).
    pub minibatches_redone: u64,
    /// Mid-epoch checkpoint interval the run used, if any.
    pub checkpoint_every: Option<u64>,
    /// Final training loss of the recovered run.
    pub final_loss: f32,
    /// Final training accuracy of the recovered run.
    pub final_accuracy: f32,
    /// Final loss of an identical run without the fault, when measured.
    pub baseline_loss: Option<f32>,
    /// Final accuracy of an identical run without the fault, when
    /// measured.
    pub baseline_accuracy: Option<f32>,
}

/// Verdict of one live reconfiguration's probation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigVerdict {
    /// The new plan beat the degraded baseline by the required margin and
    /// was kept.
    Committed,
    /// The new plan failed probation; the run rolled back to the previous
    /// plan from the same checkpoint.
    RolledBack,
}

impl std::fmt::Display for ReconfigVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigVerdict::Committed => write!(f, "Committed"),
            ReconfigVerdict::RolledBack => write!(f, "RolledBack"),
        }
    }
}

/// What one live reconfiguration did: which plan replaced which, how much
/// the pipeline stood still, how much work was redone, and whether the
/// probation window committed the new plan or rolled it back.
///
/// Produced by the `pipedream-autopilot` relaunch loop and logged in the
/// final [`TrainReport`] (one record per reconfiguration attempt).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// Compact label of the plan that was running when drift was
    /// confirmed (e.g. `"1-1-1-1"`).
    pub old_label: String,
    /// Compact label of the plan the pipeline switched to.
    pub new_label: String,
    /// `core::fingerprint` of the old pipeline configuration.
    pub old_plan_fingerprint: u64,
    /// `core::fingerprint` of the applied pipeline configuration —
    /// matchable against advisor reports and serve-cache entries.
    pub new_plan_fingerprint: u64,
    /// Minibatches completed at the consistent checkpoint the pipeline
    /// drained to.
    pub drained_at: u64,
    /// Wall-clock milliseconds the pipeline was not training: from the
    /// drain cut completing to the relaunched pipeline's first update.
    pub downtime_ms: f64,
    /// Minibatches re-executed because they post-dated the drain
    /// checkpoint (bounded by the checkpoint interval).
    pub minibatches_redone: u64,
    /// Measured throughput (samples/s) under the old plan before the
    /// reconfiguration — the degraded baseline the new plan must beat.
    pub throughput_before: f64,
    /// Throughput across the reconfiguration window itself (drain +
    /// checkpoint + relaunch), samples/s.
    pub throughput_during: f64,
    /// Measured throughput of the new plan over its probation window,
    /// samples/s.
    pub throughput_after: f64,
    /// Relative margin the new plan had to clear (`after ≥ before × (1 +
    /// margin)` to commit).
    pub probation_margin: f64,
    /// Probation outcome.
    pub verdict: ReconfigVerdict,
}

/// One entry of a run's control-plane log: what the relaunch loop did
/// between two segments of the logical run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlRecord {
    /// A segment failed under an injected fault; the run resumed from the
    /// last complete checkpoint.
    Recovery(RecoveryRecord),
    /// A live reconfiguration: drift drain, repartition, probation verdict.
    Reconfig(ReconfigReport),
}

/// Output of a training run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch training metrics, in epoch order.
    pub per_epoch: Vec<EpochStats>,
    /// Forward-pass weight-version trace (pipeline modes only).
    pub version_trace: Vec<VersionRecord>,
    /// Per-minibatch training loss, in minibatch order (finer-grained than
    /// `per_epoch`; useful for convergence plots).
    pub per_minibatch: Vec<(u64, f32)>,
    /// Per-worker stash depth / staleness observations, sorted by
    /// (stage, replica). Empty for non-pipeline baselines.
    pub stage_obs: Vec<StageObsRecord>,
    /// Measured-vs-planned validation, attached by callers that diff a
    /// traced run against planner predictions (`repro trace-validate`).
    pub validation: Option<pipedream_obs::TraceValidation>,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: f64,
    /// Threads the run's stage workers were stepped on: one per CPU the
    /// process may use, at most one per worker (0 for a baseline run).
    pub threads: usize,
    /// Minibatches completed at the consistent checkpoint this run
    /// drained to, when a [`crate::control::RunControl`] gate cut the run
    /// short of its scheduled length.
    pub drained_at: Option<u64>,
    /// The control plane's log, in the order it acted: one entry per
    /// recovery from an injected fault and per live reconfiguration.
    /// Empty for a run of one segment.
    pub control_log: Vec<ControlRecord>,
}

impl TrainReport {
    /// Join this segment of a logical run to the `later` one that picked
    /// it up from a checkpoint. Both already number epochs and minibatches
    /// by the logical run, so this keeps what came before `later`'s first
    /// epoch and first minibatch (work past the checkpoint was redone),
    /// appends `later`'s, adds the wall times and concatenates the control
    /// logs. Everything else (versions, stage observations) describes the
    /// configuration the run *ended* on and is `later`'s.
    pub fn then(mut self, mut later: TrainReport) -> TrainReport {
        let epoch = later.per_epoch.first().map_or(usize::MAX, |e| e.epoch);
        let mb = later.per_minibatch.first().map_or(u64::MAX, |m| m.0);
        self.per_epoch.retain(|e| e.epoch < epoch);
        self.per_minibatch.retain(|m| m.0 < mb);
        self.per_epoch.append(&mut later.per_epoch);
        self.per_minibatch.append(&mut later.per_minibatch);
        self.control_log.append(&mut later.control_log);
        TrainReport {
            per_epoch: self.per_epoch,
            per_minibatch: self.per_minibatch,
            wall_time_s: self.wall_time_s + later.wall_time_s,
            control_log: self.control_log,
            ..later
        }
    }

    /// The recoveries in the control log, in order.
    pub fn recoveries(&self) -> impl Iterator<Item = &RecoveryRecord> {
        self.control_log.iter().filter_map(|c| match c {
            ControlRecord::Recovery(r) => Some(r),
            ControlRecord::Reconfig(_) => None,
        })
    }

    /// The live reconfigurations in the control log, in order.
    pub fn reconfigs(&self) -> impl Iterator<Item = &ReconfigReport> {
        self.control_log.iter().filter_map(|c| match c {
            ControlRecord::Reconfig(r) => Some(r),
            ControlRecord::Recovery(_) => None,
        })
    }

    /// Final epoch's training accuracy (0 if no epochs ran).
    pub fn final_accuracy(&self) -> f32 {
        self.per_epoch.last().map(|e| e.accuracy).unwrap_or(0.0)
    }

    /// Final epoch's training loss (+∞ if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.per_epoch
            .last()
            .map(|e| e.loss)
            .unwrap_or(f32::INFINITY)
    }

    /// First epoch whose accuracy reaches `target`, if any.
    pub fn epochs_to_accuracy(&self, target: f32) -> Option<usize> {
        self.per_epoch
            .iter()
            .find(|e| e.accuracy >= target)
            .map(|e| e.epoch + 1)
    }

    /// Versions used for minibatch `mb`'s forward pass, by stage.
    pub fn versions_for(&self, mb: u64) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .version_trace
            .iter()
            .filter(|r| r.mb == mb)
            .map(|r| (r.stage, r.version))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_to_accuracy_finds_first_crossing() {
        let r = TrainReport {
            per_epoch: vec![
                EpochStats {
                    epoch: 0,
                    loss: 1.0,
                    accuracy: 0.5,
                    samples: 10,
                },
                EpochStats {
                    epoch: 1,
                    loss: 0.5,
                    accuracy: 0.8,
                    samples: 10,
                },
                EpochStats {
                    epoch: 2,
                    loss: 0.4,
                    accuracy: 0.9,
                    samples: 10,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.epochs_to_accuracy(0.75), Some(2));
        assert_eq!(r.epochs_to_accuracy(0.95), None);
        assert_eq!(r.final_accuracy(), 0.9);
    }

    #[test]
    fn then_keeps_the_earlier_segment_up_to_where_the_later_one_starts() {
        let stats = |epoch| EpochStats {
            epoch,
            loss: 1.0,
            accuracy: 0.5,
            samples: 16,
        };
        // Killed in epoch 1 after minibatch 5; the restart picked up the
        // checkpoint at 4 done and redid 4 and 5.
        let faulted = TrainReport {
            per_epoch: vec![stats(0), stats(1)],
            per_minibatch: (0..6).map(|id| (id, 1.0)).collect(),
            wall_time_s: 2.0,
            ..Default::default()
        };
        let restart = TrainReport {
            per_epoch: vec![stats(1), stats(2)],
            per_minibatch: (4..9).map(|id| (id, 0.5)).collect(),
            wall_time_s: 3.0,
            ..Default::default()
        };
        let whole = faulted.clone().then(restart);
        let epochs: Vec<usize> = whole.per_epoch.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        let ids: Vec<u64> = whole.per_minibatch.iter().map(|m| m.0).collect();
        assert_eq!(ids, (0..9).collect::<Vec<u64>>());
        assert_eq!(
            whole.per_minibatch[4].1, 0.5,
            "redone work is the restart's"
        );
        assert_eq!(whole.wall_time_s, 5.0);
        // Nothing was left to train: the earlier segment is the run.
        let whole = faulted.then(TrainReport::default());
        assert_eq!((whole.per_epoch.len(), whole.per_minibatch.len()), (2, 6));
    }

    #[test]
    fn versions_for_sorts_by_stage() {
        let r = TrainReport {
            version_trace: vec![
                VersionRecord {
                    stage: 1,
                    mb: 5,
                    version: 2,
                },
                VersionRecord {
                    stage: 0,
                    mb: 5,
                    version: 1,
                },
                VersionRecord {
                    stage: 0,
                    mb: 6,
                    version: 2,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.versions_for(5), vec![(0, 1), (1, 2)]);
    }
}
