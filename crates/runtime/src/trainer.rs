//! The top-level pipeline trainer: split a model into stages, wire up the
//! workers, step them through the static schedule on one thread per CPU
//! (the [`crate::executor`]; at most one thread per worker), collect
//! metrics, and reassemble the trained model.

use crate::data::TrainData;
use crate::executor::{Executor, Stepping};
use crate::fault::{FaultHook, WorkerError};
use crate::report::{EpochStats, LossRecord, StageObsRecord, TrainReport};
use crate::sync::GradSyncGroup;
use crate::worker::StageWorker;
use pipedream_core::schedule::{Schedule, UpdateRule};
use pipedream_core::{PipelineConfig, ScheduleKind};
use pipedream_tensor::data::Dataset;
use pipedream_tensor::{Adam, Layer, Optimizer, Sequential, Sgd};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Weight-versioning semantics for pipelined training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// PipeDream's default: weight stashing (§3.3).
    Stashed,
    /// Weight stashing + vertical sync (§3.3).
    VerticalSync,
    /// No stashing — the invalid-gradient strawman the paper warns about.
    Naive,
    /// GPipe-style microbatch groups with pipeline flushes (§5.4).
    GPipe {
        /// Microbatches per flush group.
        microbatches: u64,
    },
}

/// Learning-rate schedule applied per epoch (§5.1: "we adjust the learning
/// rate during training to converge faster … and utilize learning rate
/// warm-up for large global batch sizes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant,
    /// Linear warm-up from `base/10` to `base` over the first `epochs`
    /// epochs.
    Warmup {
        /// Epochs of warm-up.
        epochs: usize,
    },
    /// Multiply the rate by `factor` every `every` epochs.
    StepDecay {
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative factor per decay (e.g. 0.1).
        factor: f32,
    },
}

impl LrSchedule {
    /// The learning rate in `epoch` given the base rate.
    pub fn lr_at(&self, base: f32, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::Warmup { epochs } => {
                if epoch >= epochs {
                    base
                } else {
                    base * (0.1 + 0.9 * (epoch as f32 + 1.0) / epochs as f32)
                }
            }
            LrSchedule::StepDecay { every, factor } => {
                base * factor.powi((epoch / every.max(1)) as i32)
            }
        }
    }
}

/// Optimizer configuration, buildable per stage replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimKind {
    /// SGD with optional momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (0 disables).
        momentum: f32,
    },
    /// Adam with standard betas.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimKind {
    /// Instantiate the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimKind::Sgd { lr, momentum } => Box::new(Sgd::with_momentum(lr, momentum, 0.0)),
            OptimKind::Adam { lr } => Box::new(Adam::new(lr)),
        }
    }

    /// The configured base learning rate.
    pub fn base_lr(&self) -> f32 {
        match *self {
            OptimKind::Sgd { lr, .. } | OptimKind::Adam { lr } => lr,
        }
    }
}

/// Training options.
#[derive(Debug, Clone)]
pub struct TrainOpts {
    /// Passes over the dataset in the whole logical run — also when
    /// `resume` picks the run up part-way.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Optimizer.
    pub optim: OptimKind,
    /// Pipeline semantics.
    pub semantics: Semantics,
    /// Memory schedule variant: 2BW double-buffered weight updates and/or
    /// activation recomputation. Composes with [`Semantics::Stashed`]
    /// only; the default [`ScheduleKind::Vanilla1F1B`] is a no-op for
    /// every semantics.
    pub schedule: ScheduleKind,
    /// Per-epoch learning-rate schedule (§5.1).
    pub lr_schedule: LrSchedule,
    /// Per-stage checkpoint directory (§4), if any.
    pub checkpoint_dir: Option<PathBuf>,
    /// Also checkpoint every `k` minibatches mid-epoch (in addition to the
    /// epoch-boundary dumps), tightening the recovery redo bound from
    /// ≤ 1 epoch to ≤ `k` minibatches. Requires `checkpoint_dir`. On a
    /// replicated configuration a dump — periodic or epoch-end — is taken
    /// only where `done` is a multiple of [`PipelineConfig::replica_lcm`],
    /// the point where every stage's gradient-sync round is closed; other
    /// points are skipped.
    pub checkpoint_every: Option<u64>,
    /// Resume from the last complete checkpoint in `checkpoint_dir` (§4:
    /// "restarting entails starting from the last successfully created
    /// checkpoint for all stages"): stage parameters are restored and the
    /// run trains what is left of `epochs`, minibatch ids, epoch numbers
    /// and the dataloader all continuing where the checkpoint stands.
    pub resume: bool,
    /// Override the 1F1B in-flight depth (defaults to NOAM).
    pub depth: Option<usize>,
    /// Drain gate for live reconfiguration: when set, the run can be cut
    /// at a consistent minibatch boundary ([`crate::control::RunControl`])
    /// — every stage checkpoints at the cut and the report's
    /// [`TrainReport::drained_at`] names that checkpoint. The cut reaches
    /// the stages as a marker sent in place of the first activation it
    /// drops, so a waiting worker learns of it as of any message. `None`
    /// (the default) costs one `Option` check per op.
    pub control: Option<Arc<crate::control::RunControl>>,
    /// Observability session: when set, every worker records typed spans
    /// (forward/backward/sync/stash/checkpoint/waits) into the session's
    /// per-track rings and the coordinator folds run totals into its
    /// metrics registry. `None` costs one branch per recording site.
    pub obs: Option<Arc<pipedream_obs::TraceSession>>,
}

impl Default for TrainOpts {
    fn default() -> Self {
        TrainOpts {
            epochs: 5,
            batch: 16,
            optim: OptimKind::Sgd {
                lr: 0.05,
                momentum: 0.0,
            },
            semantics: Semantics::Stashed,
            schedule: ScheduleKind::Vanilla1F1B,
            lr_schedule: LrSchedule::Constant,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            depth: None,
            control: None,
            obs: None,
        }
    }
}

/// Pipeline training failed: one or more workers died.
///
/// Carries every worker's typed error (the injected fault first, when one
/// is present), the instant the failure was first detected (for
/// detection-latency measurements), and the partial training report
/// accumulated before the collapse.
#[derive(Debug)]
pub struct TrainError {
    /// All worker errors, injected faults sorted first.
    pub errors: Vec<WorkerError>,
    /// When the failure was first detected: the earliest
    /// [`WorkerLog::failed_at`](crate::report::WorkerLog::failed_at) among
    /// the workers, or the moment the coordinator joined them when none
    /// stamped one (every failure injected, or the run refused).
    pub detected_at: Instant,
    /// Metrics gathered before the pipeline collapsed.
    pub partial: TrainReport,
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} worker(s) failed: ", self.errors.len())?;
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for TrainError {}

/// Production deadline for gradient-sync rounds on replicated stages.
/// Generous next to a round's microseconds of real work, but bounded: a
/// partner that dies without poisoning the group (e.g. SIGKILL of a real
/// process) can stall a round for at most this long before the survivors
/// fail typed instead of hanging. Fault hooks may tighten it via
/// [`FaultHook::sync_deadline`].
const SYNC_DEADLINE: Duration = Duration::from_secs(30);

/// Train `model` pipeline-parallel under `config` on `dataset`.
///
/// The model is split at the configuration's stage boundaries; each stage
/// replica is a worker executing its slice of the 1F1B-RR static schedule,
/// stepped on one of as many threads as the process has CPUs (at most one
/// per worker; see [`TrainReport::threads`]). Returns the trained model
/// (reassembled from the stages — replica 0 where replicated, which
/// gradient sync keeps identical to its peers) and the training report.
///
/// Whole gradient-sync rounds only: when the minibatches to train are not
/// a multiple of the lcm of the stages' replica counts, the ragged tail is
/// dropped, as 2BW drops a partial trailing group — a replica left alone
/// in the last round's all_reduce would wait for partners with no
/// minibatch to bring.
///
/// Panics if a worker fails; use [`try_train_pipeline`] for typed errors
/// and fault injection.
pub fn train_pipeline(
    model: Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
) -> (Sequential, TrainReport) {
    match try_train_pipeline(model, config, dataset, opts, None) {
        Ok(out) => out,
        Err(e) => panic!("pipeline training failed: {e}"),
    }
}

/// Fallible [`train_pipeline`] with an optional fault-injection hook.
///
/// Worker failures — injected or organic — surface as a [`TrainError`]
/// after every surviving worker has been joined (a dead stage's channels
/// disconnect, cascading typed failures through its peers), so the caller
/// gets a fully-torn-down pipeline it can restart from the last complete
/// checkpoint (§4). Each segment of `pipedream-autopilot`'s relaunch loop is
/// one call.
///
/// A configuration whose schedule would leave some worker blocked for good
/// (some replication patterns, e.g. `3-2-4`) is refused before any work,
/// with one [`WorkerError::ScheduleStuck`] per worker that could not
/// finish ([`stuck_workers`]).
// The Err variant carries the partial report a recovery needs; failures
// happen at most once per training run, so the size is irrelevant.
#[allow(clippy::result_large_err)]
pub fn try_train_pipeline(
    model: Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
    hook: Option<Arc<dyn FaultHook>>,
) -> Result<(Sequential, TrainReport), TrainError> {
    train_stepped(model, config, dataset, opts, hook, Stepping::default())
}

/// [`try_train_pipeline`] with its workers stepped as `stepping` says.
#[allow(clippy::result_large_err)]
pub(crate) fn train_stepped(
    model: Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
    hook: Option<Arc<dyn FaultHook>>,
    stepping: Stepping,
) -> Result<(Sequential, TrainReport), TrainError> {
    config
        .validate(model.len())
        .expect("configuration does not match the model's layer count");
    let started = Instant::now();
    // Buffer-pool baseline: the fold at the end records this run's hit/miss
    // deltas (process-wide counters, so deltas isolate the run).
    let pool_start = pipedream_tensor::pool::global_stats();
    let stages = config.stages();

    // Where the logical run stands: nothing done, or — resuming — what the
    // newest complete checkpoint covers. Ids handed to the schedule and the
    // drain gate count from 0 in this segment; everything that outlives it,
    // the fault hook's ids included, is `done + mb` (see `TrainData`).
    let resume_dir = opts.resume.then(|| {
        opts.checkpoint_dir
            .as_deref()
            .expect("resume requires a checkpoint_dir")
    });
    let done = resume_dir
        .and_then(|dir| crate::checkpoint::latest_complete(dir, stages.len()))
        .unwrap_or(0);
    let data = TrainData::with_start(dataset, opts.batch, done);
    let left = ((opts.epochs * data.minibatches_per_epoch()) as u64).saturating_sub(done);
    let total_mbs = left - left % config.replica_lcm();

    // Configure the drain gate (if any) with the cut alignment — the lcm
    // of all replica counts, so a drained run leaves every replica of a
    // replicated stage with the same number of completed gradient-sync
    // rounds — and the (equally aligned) run length the cut is clamped to.
    if let Some(gate) = &opts.control {
        gate.configure(config.replica_lcm(), total_mbs);
    }

    let (mut schedule, updates) = schedule_for(config, opts, total_mbs);
    // Refuse, before any work, a schedule whose op lists would leave a
    // worker blocked for good.
    let stuck = refusals(&schedule, updates);
    if !stuck.is_empty() {
        return Err(TrainError {
            errors: stuck,
            detected_at: Instant::now(),
            partial: TrainReport::default(),
        });
    }

    // Publish the run's shape up front so live watchers (`train --watch`,
    // `pipedream top`) can compute progress and ETA without waiting for
    // the end-of-run metrics fold.
    if let Some(session) = &opts.obs {
        let metrics = session.metrics();
        metrics
            .gauge("train_total_minibatches")
            .set(total_mbs as f64);
        metrics.gauge("train_batch_size").set(opts.batch as f64);
        metrics
            .gauge("train_num_stages")
            .set(config.num_stages() as f64);
        // Index into ScheduleKind::all(); dashboards map it back to the
        // canonical name.
        metrics.gauge("train_schedule_kind").set(
            ScheduleKind::all()
                .iter()
                .position(|k| *k == opts.schedule)
                .unwrap_or(0) as f64,
        );
    }

    // Split the model into per-stage chunks, cloned per replica.
    let boundaries: Vec<usize> = stages[..stages.len() - 1]
        .iter()
        .map(|s| s.last_layer + 1)
        .collect();
    let mut stage_models: Vec<Option<Sequential>> =
        model.split_off(&boundaries).into_iter().map(Some).collect();

    // Restore every stage from the checkpoint (§4: "restarting entails
    // starting from the last successfully created checkpoint for all
    // stages").
    if let Some(dir) = resume_dir.filter(|_| done > 0) {
        for (si, sm) in stage_models.iter_mut().flatten().enumerate() {
            let params = crate::checkpoint::load_stage(dir, si, done)
                .expect("complete checkpoint is loadable");
            sm.restore(&params);
        }
    }

    // The threads the workers are stepped on, and their inboxes.
    let workers = config.total_workers();
    let exec = Executor::new(
        (0..workers).map(|w| config.stage_of_worker(w).0).collect(),
        stepping,
    );
    let threads = exec.threads();

    let assignment = config.worker_assignment();
    let sync_deadline = hook
        .as_ref()
        .and_then(|h| h.sync_deadline())
        .unwrap_or(SYNC_DEADLINE);
    let sync_groups: Vec<Option<Arc<GradSyncGroup>>> = stages
        .iter()
        .enumerate()
        .map(|(si, s)| {
            (s.replicas > 1).then(|| {
                let wakers = assignment[si].iter().map(|&w| exec.waker(w)).collect();
                Arc::new(
                    GradSyncGroup::with_deadline(s.replicas, sync_deadline).with_wakers(wakers),
                )
            })
        })
        .collect();

    let mut stage_workers = Vec::with_capacity(workers);
    for w in 0..workers {
        let (stage, replica) = config.stage_of_worker(w);
        let links = |of: usize| assignment[of].iter().map(|&d| exec.link(d)).collect();
        stage_workers.push(StageWorker {
            stage,
            replica,
            num_stages: stages.len(),
            // Workers are numbered stage by stage, so a stage's last
            // replica can have the original instead of one more copy.
            model: if replica + 1 == stages[stage].replicas {
                stage_models[stage].take().expect("one last replica")
            } else {
                stage_models[stage].as_ref().expect("not yet taken").clone()
            },
            ops: std::mem::take(&mut schedule.workers[w].ops),
            semantics: opts.semantics,
            schedule_kind: opts.schedule,
            updates,
            stage_replicas: stages[stage].replicas,
            replica_lcm: config.replica_lcm(),
            total_mbs,
            optim: opts.optim,
            fwd_out: if stage + 1 < stages.len() {
                links(stage + 1)
            } else {
                Vec::new()
            },
            grad_out: if stage > 0 {
                links(stage - 1)
            } else {
                Vec::new()
            },
            sync: sync_groups[stage].clone(),
            data: &data,
            checkpoint_dir: opts.checkpoint_dir.clone(),
            checkpoint_every: opts.checkpoint_every,
            lr_schedule: opts.lr_schedule,
            // One trace recorder per worker (a disabled no-op without a
            // session). A restarted run re-registers its workers and gets
            // fresh timeline rows, so a fault + recovery shows as two
            // generations of tracks.
            recorder: opts
                .obs
                .as_ref()
                .map(|s| s.stage_recorder(&format!("stage{stage}.replica{replica}"), stage))
                .unwrap_or_default(),
            hook: hook.clone(),
            control: opts.control.clone(),
        });
    }
    // Each worker reports through the executor when it ends, the time of
    // its failure included.
    let outcomes = exec.run(stage_workers);

    // Collect every worker's log — a failed worker's too, so the partial
    // report holds all that was computed before the collapse — and
    // reassemble the trained model from each stage's replica-0 result.
    let mut losses: Vec<LossRecord> = Vec::new();
    let mut version_trace = Vec::new();
    let mut stage_obs: Vec<StageObsRecord> = Vec::new();
    let mut stage_results: Vec<Option<Sequential>> = (0..stages.len()).map(|_| None).collect();
    let mut worker_errors: Vec<WorkerError> = Vec::new();
    let first_failure = outcomes.iter().filter_map(|(log, _)| log.failed_at).min();
    for (w, (log, result)) in outcomes.into_iter().enumerate() {
        losses.extend(log.losses);
        version_trace.extend(log.versions);
        stage_obs.extend(log.obs);
        match result {
            Ok(trained) => {
                let (stage, replica) = config.stage_of_worker(w);
                if replica == 0 {
                    stage_results[stage] = Some(trained);
                }
            }
            Err(e) => worker_errors.push(e),
        }
    }

    // Merge in minibatch order, so an epoch's loss is summed in the same
    // order whichever replica of the output stage measured what.
    losses.sort_unstable_by_key(|l| l.mb);
    version_trace.sort_unstable_by_key(|r| (r.mb, r.stage));
    stage_obs.sort_by_key(|o| (o.stage, o.replica));
    let mut epoch_acc: Vec<(usize, f64, usize, usize)> = Vec::new(); // epoch, loss-sum, correct, count
    for l in &losses {
        let e = l.mb as usize / data.minibatches_per_epoch();
        if epoch_acc.last().is_none_or(|a| a.0 != e) {
            epoch_acc.push((e, 0.0, 0, 0));
        }
        let acc = epoch_acc.last_mut().expect("just pushed");
        acc.1 += l.loss as f64 * l.count as f64;
        acc.2 += l.correct;
        acc.3 += l.count;
    }
    let per_epoch: Vec<EpochStats> = epoch_acc
        .into_iter()
        .map(|(epoch, loss_sum, correct, count)| EpochStats {
            epoch,
            loss: (loss_sum / count.max(1) as f64) as f32,
            accuracy: correct as f32 / count.max(1) as f32,
            samples: count,
        })
        .collect();
    let per_minibatch: Vec<(u64, f32)> = losses.into_iter().map(|l| (l.mb, l.loss)).collect();
    // A drain that cut the run short of its scheduled length names the
    // consistent checkpoint the caller can resume from. A cut at
    // the natural end means the drain arrived too late to truncate
    // anything — the run simply completed.
    let drained_at = opts
        .control
        .as_ref()
        .and_then(|g| g.cut())
        .filter(|&c| c > 0 && c < total_mbs)
        .map(|c| done + c);
    let report = TrainReport {
        per_epoch,
        version_trace,
        per_minibatch,
        stage_obs,
        wall_time_s: started.elapsed().as_secs_f64(),
        threads,
        drained_at,
        ..Default::default()
    };

    // Fold run totals into the observability session's registry: overall
    // throughput, per-stage busy/bubble fractions, span histograms, and
    // the stash/staleness peaks the workers reported.
    if let Some(session) = &opts.obs {
        let metrics = session.metrics();
        metrics
            .counter("minibatches_total")
            .add(report.per_minibatch.len() as u64);
        let samples: usize = report.per_epoch.iter().map(|e| e.samples).sum();
        if report.wall_time_s > 0.0 {
            metrics
                .gauge("throughput_samples_per_sec")
                .set(samples as f64 / report.wall_time_s);
        }
        for o in &report.stage_obs {
            metrics
                .gauge(&format!("stage{}_stash_depth_max", o.stage))
                .set_max(o.stash_depth_max as f64);
            metrics
                .gauge(&format!("stage{}_staleness_max", o.stage))
                .set_max(o.staleness_max as f64);
            metrics
                .gauge(&format!("stage{}_versions_held", o.stage))
                .set_max(o.versions_held_max as f64);
            metrics
                .gauge(&format!("stage{}_activation_bytes", o.stage))
                .set_max(o.activation_bytes_max as f64);
            metrics
                .gauge(&format!("stage{}_recompute_ms", o.stage))
                .set_max(o.recompute_us as f64 / 1000.0);
        }
        let pool_end = pipedream_tensor::pool::global_stats();
        pipedream_obs::record_pool_metrics(
            metrics,
            pool_end.hits.saturating_sub(pool_start.hits),
            pool_end.misses.saturating_sub(pool_start.misses),
        );
        pipedream_obs::record_snapshot_metrics(metrics, &session.snapshot());
    }

    if !worker_errors.is_empty() {
        // Injected faults first, so `errors[0]` names the root cause.
        worker_errors.sort_by_key(|e| (!e.is_injected(), e.stage()));
        return Err(TrainError {
            errors: worker_errors,
            detected_at: first_failure.unwrap_or_else(Instant::now),
            partial: report,
        });
    }

    let mut full = Sequential::new("trained");
    for sr in stage_results.into_iter() {
        for layer in sr.expect("every stage returned").into_layers() {
            full.push_boxed(layer);
        }
    }
    Ok((full, report))
}

/// The workers a run of `config` under `opts` with `total_mbs` minibatches
/// left to train would leave blocked for good (see [`Schedule::stuck`]),
/// one [`WorkerError::ScheduleStuck`] each; empty when the run can finish.
/// [`try_train_pipeline`] refuses such a run before it does any work; a
/// caller choosing among configurations can ask first.
pub fn stuck_workers(
    config: &PipelineConfig,
    opts: &TrainOpts,
    total_mbs: u64,
) -> Vec<WorkerError> {
    let (schedule, updates) = schedule_for(config, opts, total_mbs);
    refusals(&schedule, updates)
}

/// The static schedule a run of `total_mbs` minibatches executes under
/// `opts`, and when its workers update.
fn schedule_for(
    config: &PipelineConfig,
    opts: &TrainOpts,
    total_mbs: u64,
) -> (Schedule, UpdateRule) {
    let schedule = match opts.semantics {
        Semantics::GPipe { microbatches } => Schedule::gpipe(config, total_mbs, microbatches),
        _ => match opts.depth {
            Some(d) => Schedule::with_depth(config, total_mbs, d),
            None => Schedule::one_f_one_b(config, total_mbs),
        },
    };
    schedule.validate().expect("generated schedule is legal");

    // Memory schedule variants compose with weight stashing only: 2BW
    // replaces the per-minibatch stash and recompute rebuilds the stash the
    // stashed-version backward consumes.
    assert!(
        opts.schedule == ScheduleKind::Vanilla1F1B || opts.semantics == Semantics::Stashed,
        "schedule kind {} requires Semantics::Stashed",
        opts.schedule
    );
    let updates = match opts.semantics {
        Semantics::GPipe { .. } => UpdateRule::AtFlush,
        _ if opts.schedule.uses_two_bw() => UpdateRule::TwoBw {
            group: config.two_bw_group(opts.depth.unwrap_or_else(|| config.noam())),
        },
        _ => UpdateRule::EveryBackward,
    };
    (schedule, updates)
}

/// One [`WorkerError::ScheduleStuck`] per worker of `schedule` that cannot
/// run its op list to the end.
fn refusals(schedule: &Schedule, updates: UpdateRule) -> Vec<WorkerError> {
    schedule
        .stuck(updates)
        .into_iter()
        .map(|(w, op)| {
            let ws = &schedule.workers[w];
            WorkerError::ScheduleStuck {
                stage: ws.stage,
                replica: ws.replica,
                op,
            }
        })
        .collect()
}

/// Classification accuracy of `model` on `dataset` (forward only).
pub fn evaluate(model: &mut Sequential, dataset: &Dataset, batch: usize) -> f32 {
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..dataset.num_minibatches(batch) {
        let (x, y) = dataset.minibatch(i, batch);
        let out = model.forward(&x, u64::MAX - i as u64);
        model.clear_slots();
        for (pred, &label) in out.argmax_rows().iter().zip(y.iter()) {
            if *pred == label {
                correct += 1;
            }
        }
        total += y.len();
    }
    correct as f32 / total.max(1) as f32
}
