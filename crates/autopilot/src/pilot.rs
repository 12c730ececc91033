//! The relaunch loop: one logical training run as a sequence of segments,
//! and the control plane that decides what each next segment is.
//!
//! §4 of the paper makes recovery one rule — "restarting entails starting
//! from the last successfully created checkpoint for all stages" — and a
//! live replan is the same move with another trigger. [`train_supervised`]
//! runs the logical run segment by segment, each segment one
//! [`try_train_pipeline`] call with the same `TrainOpts` (`resume` set from
//! the second on). Every segment numbers minibatches and epochs by the
//! logical run, so the final report is the segments' reports joined end to
//! end ([`TrainReport::then`]). How a segment ends decides the next one:
//!
//! * **it failed, and a fault of the plan fired during it** — log a
//!   [`RecoveryRecord`] and resume the *same* configuration from the newest
//!   complete checkpoint of the directory the segment was writing, whether
//!   it was monitored, on probation or rolled back, as often as faults
//!   fire;
//! * **it failed, and no fault fired** — an organic failure: the run ends
//!   with [`AutopilotError::UnexpectedFailure`];
//! * **the drift monitor drained it** — the replan advisor re-runs the
//!   partitioner over *measured* costs and, when a strictly better plan
//!   exists whose schedule can run the remaining work, the drained
//!   checkpoint is re-split along its boundaries into the next generation
//!   directory and the new plan resumes on probation: its measured
//!   throughput must beat the degraded baseline by a margin;
//! * **probation failed** — the incumbent resumes from the untouched
//!   `gen0` cut (rolled back);
//! * **it finished** — the joined report is returned.
//!
//! Replanning is on when the caller passes the offline profile and
//! topology the current plan was made from, and is attempted once per
//! run; each attempt is a [`ReconfigReport`] (downtime, redone work,
//! throughput before / during / after, verdict). Recoveries and
//! reconfigurations land, in the order they happened, in
//! [`TrainReport::control_log`].
//!
//! Without replanning, segments record into the caller's trace session.
//! With it, each segment gets a fresh internal [`TraceSession`]: a
//! [`LiveProfiler`] window starts at the session's time zero, so reusing
//! one session across segments would fold a whole prior segment into the
//! first sample. Either way the *caller's* session carries the control
//! plane's one track (`supervisor`), the state gauge, and the fault and
//! reconfiguration counters.

use crate::plan::{Fault, FaultPlan};
use crate::repartition::repartition_checkpoint;
use crate::state::{AutopilotState, StateLog};
use pipedream_core::{config_fingerprint, PipelineConfig, PlanError, Planner, StagePrediction};
use pipedream_hw::Topology;
use pipedream_model::LayerCosts;
use pipedream_obs::{
    advise_replan, DriftConfig, DriftDetector, LiveProfiler, LiveSnapshot, TraceSession,
};
use pipedream_runtime::checkpoint::latest_complete;
use pipedream_runtime::control::RunControl;
use pipedream_runtime::fault::FaultHook;
use pipedream_runtime::report::{ControlRecord, ReconfigReport, ReconfigVerdict, RecoveryRecord};
use pipedream_runtime::trainer::{stuck_workers, try_train_pipeline, TrainOpts};
use pipedream_runtime::TrainReport;
use pipedream_tensor::data::Dataset;
use pipedream_tensor::Sequential;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Control-plane tuning knobs for live replanning.
#[derive(Debug, Clone)]
pub struct AutopilotOpts {
    /// Hysteresis thresholds for confirming drift.
    pub drift: DriftConfig,
    /// How often the monitor and probation threads sample the live
    /// profiler. Also bounds the measurement resolution of
    /// [`ReconfigReport::downtime_ms`].
    pub sample_every: Duration,
    /// Profiler windows (with completed minibatches) the new plan gets
    /// before the probation verdict.
    pub probation_windows: usize,
    /// Relative margin the new plan must clear: measured throughput ≥
    /// degraded baseline × (1 + margin), else rollback.
    pub probation_margin: f64,
    /// Schedule length for the advisor's steady-state simulation.
    pub sim_minibatches: u64,
    /// Bypass the advisor and apply this plan instead — for testing the
    /// probation/rollback machinery with a known-bad plan.
    pub force_plan: Option<PipelineConfig>,
    /// Per-worker memory budget for replans, in bytes. The advisor only
    /// recommends partitions whose estimated footprint (under the run's
    /// `TrainOpts::schedule`) fits, and replans *away* from a plan that
    /// no longer does; `PlanError::MemoryInfeasible` aborts the replan
    /// and the incumbent keeps running.
    pub memory_limit: Option<u64>,
}

impl Default for AutopilotOpts {
    fn default() -> Self {
        AutopilotOpts {
            drift: DriftConfig::default(),
            sample_every: Duration::from_millis(50),
            probation_windows: 3,
            probation_margin: 0.05,
            sim_minibatches: 48,
            force_plan: None,
            memory_limit: None,
        }
    }
}

/// Why a supervised run could not produce a final report.
#[derive(Debug)]
pub enum AutopilotError {
    /// A relaunch needs checkpoints — replanning always, recovery once a
    /// fault has brought a segment down — and `TrainOpts::checkpoint_dir`
    /// is unset.
    MissingCheckpointDir,
    /// A segment failed while no fault of the plan fired during it — an
    /// organic failure, not the injected fault.
    UnexpectedFailure(String),
    /// The planner/advisor rejected its inputs.
    Plan(PlanError),
    /// The drain completed but the checkpoint it should have produced is
    /// missing or inconsistent, or it could not be re-split for the new
    /// plan.
    Checkpoint(String),
}

impl fmt::Display for AutopilotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutopilotError::MissingCheckpointDir => write!(
                f,
                "relaunching needs a checkpoint_dir to resume from (set TrainOpts::checkpoint_dir)"
            ),
            AutopilotError::UnexpectedFailure(e) => {
                write!(f, "training failed with no injected fault firing: {e}")
            }
            AutopilotError::Plan(e) => write!(f, "replan failed: {e}"),
            AutopilotError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
        }
    }
}

impl std::error::Error for AutopilotError {}

impl From<PlanError> for AutopilotError {
    fn from(e: PlanError) -> Self {
        AutopilotError::Plan(e)
    }
}

/// What watches a segment, and so what its end can mean.
enum Phase {
    /// The incumbent plan under the drift monitor.
    Monitored,
    /// A new plan on probation.
    Probation(Box<Pending>),
    /// Nothing to watch: replanning is off or spent.
    Plain,
}

/// A reconfiguration whose new plan is on probation.
struct Pending {
    /// The plan to roll back to.
    incumbent: PipelineConfig,
    /// The drift that triggered the replan.
    observed: DriftObservation,
    /// Minibatches done at the drain cut.
    point: u64,
    /// When the drained segment ended.
    drain_done_at: Instant,
    /// Minibatches completed between the drain request and the cut.
    during_mbs: u64,
    /// When the new plan's first minibatch completed, carried across a
    /// fault that ends a probation segment, so the retried segment's
    /// restart does not count as reconfiguration downtime.
    first_mb_at: Option<Instant>,
}

/// What the drift monitor captured at the moment it confirmed drift.
struct DriftObservation {
    /// EWMA per-stage seconds at drift-confirm time — the advisor's
    /// measured costs.
    measured_stage_s: Vec<f64>,
    /// Degraded throughput (samples/s) the new plan must beat.
    throughput_before: f64,
    /// Minibatches the pipeline had completed when the drain was
    /// requested.
    total_at_drain: u64,
    drain_requested_at: Instant,
}

/// What a segment's monitor saw.
enum Watched {
    /// The drift monitor: drift it confirmed (and drained on), if any, and
    /// minibatches completed by the segment's end.
    Drift(Option<DriftObservation>, u64),
    /// The probation monitor: when the new plan's first minibatch
    /// completed (sample-granular, in this segment or one a fault ended),
    /// its measured throughput, its verdict.
    Probation(Option<Instant>, f64, bool),
}

/// Live replanning's inputs, fixed for the run.
struct Replanner<'a> {
    baseline: &'a LayerCosts,
    topo: &'a Topology,
    auto: &'a AutopilotOpts,
    /// The planner's per-stage times for the incumbent: the drift
    /// detector's reference.
    predictions: Vec<StagePrediction>,
    /// Drain-cut alignment covering any replica layout the advisor might
    /// pick on the incumbent's workers: the lcm of every possible replica
    /// count, so the work remaining after the cut divides evenly into the
    /// new plan's gradient-sync rounds whatever it turns out to be. Falls
    /// back to the worker count (covering all homogeneous layouts) when
    /// the exact lcm grows impractically large — the pre-repartition
    /// divisibility check still guards the exotic heterogeneous layouts
    /// then.
    cut_align: u64,
}

/// Sample `session` every `every` until `stop` is set (one last sample
/// after), handing each sample to `step`.
fn sample_until(
    session: &Arc<TraceSession>,
    stop: &AtomicBool,
    every: Duration,
    mut step: impl FnMut(&LiveSnapshot),
) {
    let mut profiler = LiveProfiler::new(session.clone()).without_publish();
    loop {
        let done = stop.load(Ordering::Relaxed);
        step(&profiler.sample());
        if done {
            return;
        }
        thread::sleep(every);
    }
}

/// Samples/s over a live snapshot's whole window, if it completed any.
fn samples_per_s(live: &LiveSnapshot, batch: usize) -> Option<f64> {
    (live.minibatches_total > 0 && live.t_s > 0.0)
        .then(|| live.minibatches_total as f64 / live.t_s * batch as f64)
}

impl Replanner<'_> {
    /// Watch a monitored or probation segment's live profile until `stop`.
    /// The drift monitor requests the drain on the first confirmed drift;
    /// the probation monitor passes its verdict once enough windows
    /// accumulated, draining the segment early when it fails so a bad plan
    /// doesn't keep burning time.
    fn watch(
        &self,
        phase: &Phase,
        session: &Arc<TraceSession>,
        gate: &RunControl,
        stop: &AtomicBool,
        batch: usize,
        log: &StateLog,
    ) -> Watched {
        let every = self.auto.sample_every;
        match phase {
            Phase::Monitored => {
                let mut detector =
                    DriftDetector::new(self.predictions.clone()).with_config(self.auto.drift);
                let (mut drift, mut total) = (None, 0);
                sample_until(session, stop, every, |live| {
                    let report = detector.observe_with_tracks(live, Some(&session.snapshot()));
                    total = live.minibatches_total;
                    match samples_per_s(live, batch) {
                        Some(rate) if drift.is_none() && report.any_drift() => {
                            log.enter(AutopilotState::DriftConfirmed);
                            log.enter(AutopilotState::Draining);
                            gate.request_drain_aligned(self.cut_align);
                            drift = Some(DriftObservation {
                                measured_stage_s: live.measured_stage_s(),
                                throughput_before: rate,
                                total_at_drain: total,
                                drain_requested_at: Instant::now(),
                            });
                        }
                        _ => {}
                    }
                });
                Watched::Drift(drift, total)
            }
            Phase::Probation(p) => {
                let threshold = p.observed.throughput_before * (1.0 + self.auto.probation_margin);
                let (mut first_mb_at, mut windows, mut rate, mut verdict) =
                    (p.first_mb_at, 0, 0.0, None);
                sample_until(session, stop, every, |live| {
                    if first_mb_at.is_none() && live.minibatches_total > 0 {
                        first_mb_at = Some(Instant::now());
                        log.enter(AutopilotState::Verifying);
                    }
                    windows += usize::from(live.window_minibatches > 0);
                    rate = samples_per_s(live, batch).unwrap_or(rate);
                    if verdict.is_none()
                        && windows >= self.auto.probation_windows
                        && live.minibatches_total > 0
                    {
                        verdict = Some(rate >= threshold);
                        if verdict == Some(false) {
                            gate.request_drain();
                        }
                    }
                });
                // A segment that finished before the window count filled
                // still gets judged — on everything it measured.
                Watched::Probation(first_mb_at, rate, verdict.unwrap_or(rate >= threshold))
            }
            Phase::Plain => unreachable!("a plain segment is not watched"),
        }
    }
}

/// Train `model` under `config` as one logical run of as many segments as
/// its faults and its replan need (see the module docs).
///
/// `replan` — the offline profile and hardware topology the current plan
/// was made from, and the control-plane knobs — turns live replanning on:
/// the advisor re-plans over measurement-scaled versions of the same
/// inputs. It needs `opts.checkpoint_dir`, beneath which it creates one
/// directory per plan generation (`gen0` for the incumbent, `gen1` for the
/// repartitioned plan), so a rollback always finds the old plan's files
/// untouched; `opts.control` and `opts.obs` are then the loop's own per
/// segment. Without `replan` the run checkpoints into `opts.checkpoint_dir`
/// itself. `faults`, if any, stays installed in every segment — the
/// environment does not heal because the pipeline relaunched — and every
/// recovery from one resumes from `opts.checkpoint_dir`'s checkpoints.
///
/// Returns the trained model and a [`TrainReport`] covering the whole
/// logical run, its `control_log` recording every recovery and
/// reconfiguration.
pub fn train_supervised(
    model: &Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
    replan: Option<(&LayerCosts, &Topology, &AutopilotOpts)>,
    faults: Option<Arc<FaultPlan>>,
) -> Result<(Sequential, TrainReport), AutopilotError> {
    let log = StateLog::new(opts.obs.clone());
    let metrics = opts.obs.as_ref().map(|s| s.metrics());
    let hook = faults.clone().map(|p| p as Arc<dyn FaultHook>);
    let mut dir = opts.checkpoint_dir.clone();
    let mut phase = Phase::Plain;
    let replanner = match replan {
        None => None,
        Some((baseline, topo, auto)) => {
            let root = dir.ok_or(AutopilotError::MissingCheckpointDir)?;
            dir = Some(root.join("gen0"));
            phase = Phase::Monitored;
            if let Some(m) = metrics {
                m.counter("reconfig_attempts_total"); // pre-register
            }
            let workers = config.total_workers().max(1) as u64;
            let full = (1..=workers).fold(1, pipedream_core::lcm);
            Some(Replanner {
                baseline,
                topo,
                auto,
                predictions: Planner::from_costs(baseline.clone(), topo)
                    .try_predicted_stage_times(config)?,
                cut_align: if full <= 64 * workers { full } else { workers },
            })
        }
    };
    let mbs_per_epoch = dataset.num_minibatches(opts.batch).max(1) as u64;
    let mut config = config.clone();
    let mut resume = opts.resume;
    let mut report = TrainReport::default();
    let mut relaunched = false;
    loop {
        if let Phase::Monitored = phase {
            log.enter(AutopilotState::Monitoring);
        }
        let watched = !matches!(phase, Phase::Plain);
        let gate = Arc::new(RunControl::new());
        let seg_opts = TrainOpts {
            checkpoint_dir: dir.clone(),
            resume,
            control: if watched {
                Some(gate.clone())
            } else {
                opts.control.clone()
            },
            obs: if replanner.is_some() {
                Some(TraceSession::new())
            } else {
                opts.obs.clone()
            },
            ..opts.clone()
        };
        let shots = faults.as_ref().map_or(0, |p| p.fired_shots().len());
        let stop = AtomicBool::new(false);
        let (result, seen) = thread::scope(|s| {
            let watcher = replanner.as_ref().filter(|_| watched).map(|r| {
                let session = seg_opts
                    .obs
                    .as_ref()
                    .expect("replanning traces every segment");
                let (phase, gate, stop, log) = (&phase, &gate, &stop, &log);
                s.spawn(move || r.watch(phase, session, gate, stop, opts.batch, log))
            });
            let result =
                try_train_pipeline(model.clone(), &config, dataset, &seg_opts, hook.clone());
            stop.store(true, Ordering::Relaxed);
            (result, watcher.map(|w| w.join().expect("monitor panicked")))
        });
        let ended = Instant::now();
        if std::mem::take(&mut relaunched) {
            log.recovered();
        }
        let (trained, segment) = match result {
            Ok(out) => out,
            Err(e) => {
                // Only a fault that fired during this segment explains its
                // failure; a straggler never fires a shot.
                let fired = faults
                    .as_ref()
                    .map(|p| p.fired_shots().split_off(shots))
                    .unwrap_or_default();
                let Some(&(fault, _, fired_at)) = fired.last() else {
                    return Err(AutopilotError::UnexpectedFailure(e.to_string()));
                };
                let ckpt = dir.as_deref().ok_or(AutopilotError::MissingCheckpointDir)?;
                log.fault();
                // §4: restart every stage from the newest checkpoint whose
                // *every* stage file is intact. The runtime finds it again
                // under `resume`; it is looked up here only to be reported.
                let resumed_from = latest_complete(ckpt, config.num_stages());
                let from = resumed_from.unwrap_or(0);
                // First minibatch *not* reached when the fault fired.
                let frontier = match *fault {
                    Fault::Kill { mb, .. } | Fault::Delay { mb, .. } | Fault::Drop { mb, .. } => {
                        mb + 1
                    }
                    Fault::Corrupt { epoch, .. } => (epoch as u64 + 1) * mbs_per_epoch,
                    Fault::Straggle { .. } => unreachable!("a straggler never fires a shot"),
                };
                let record = RecoveryRecord {
                    fault: fired.iter().map(|s| s.1).collect::<Vec<_>>().join(";"),
                    detection_latency_s: e.detected_at.duration_since(fired_at).as_secs_f64(),
                    resumed_from,
                    epochs_redone: ((frontier - 1) / mbs_per_epoch + 1)
                        .saturating_sub(from / mbs_per_epoch)
                        as usize,
                    minibatches_redone: frontier.saturating_sub(from),
                    checkpoint_every: opts.checkpoint_every,
                    // The run's end quality, filled in when it ends.
                    final_loss: f32::NAN,
                    final_accuracy: f32::NAN,
                    baseline_loss: None,
                    baseline_accuracy: None,
                };
                // The new plan's first minibatch, if this probation segment
                // ran one, still ended the reconfiguration's downtime.
                if let (Phase::Probation(p), Some(Watched::Probation(first, ..))) =
                    (&mut phase, seen)
                {
                    p.first_mb_at = first;
                }
                report = report.then(e.partial);
                report.control_log.push(ControlRecord::Recovery(record));
                (resume, relaunched) = (true, true);
                continue;
            }
        };
        let drained_at = segment.drained_at;
        report = report.then(segment);
        match (std::mem::replace(&mut phase, Phase::Plain), seen) {
            (Phase::Monitored, Some(Watched::Drift(Some(observed), final_total))) => {
                // The run finished before the cut could truncate it:
                // nothing to reconfigure.
                let Some(point) = drained_at else {
                    return Ok(finish(trained, report));
                };
                let r = replanner.as_ref().expect("monitored segments replan");
                // The drain protocol's contract: every stage checkpointed
                // the same point, and it is the newest in gen0.
                log.enter(AutopilotState::Checkpointing);
                let gen0 = dir.clone().expect("replanning has a checkpoint dir");
                let have = latest_complete(&gen0, config.num_stages());
                if have != Some(point) {
                    return Err(AutopilotError::Checkpoint(format!(
                        "drain expected a complete checkpoint at {point} minibatches, found {have:?}"
                    )));
                }
                if let Some(m) = metrics {
                    m.counter("reconfig_attempts_total").inc();
                }
                // Replan over measured costs, honoring the run's memory
                // budget and schedule kind.
                let advice = advise_replan(
                    r.baseline,
                    r.topo,
                    &config,
                    &observed.measured_stage_s,
                    r.auto.sim_minibatches,
                    r.auto.memory_limit,
                    opts.schedule,
                )?;
                // The work remaining after the cut must divide evenly into
                // the new plan's gradient-sync rounds, or the relaunch
                // would drop the ragged tail and the run end short. The cut
                // was pre-aligned for every layout the advisor can pick, so
                // this only rejects exotic heterogeneous layouts or a
                // misaligned `force_plan`. Nor may the new plan's schedule
                // leave a worker blocked for good (some replication
                // patterns, e.g. `3-2-4`), which the trainer would refuse.
                let remaining = (opts.epochs as u64 * mbs_per_epoch).saturating_sub(point);
                let candidate = match &r.auto.force_plan {
                    Some(forced) => Some(forced),
                    None => advice.changed.then_some(&advice.recommended_config),
                }
                .filter(|c| {
                    remaining % c.replica_lcm() == 0 && stuck_workers(c, opts, remaining).is_empty()
                });
                resume = true;
                // Nothing strictly better (or the candidate cannot run the
                // remaining work): no plan changed, so no ReconfigReport;
                // the incumbent resumes from the drain point in gen0.
                let Some(new_config) = candidate.cloned() else {
                    log.enter(AutopilotState::Resuming);
                    continue;
                };
                // Re-split the drained checkpoint along the new
                // boundaries, and relaunch under the new plan, on
                // probation.
                log.enter(AutopilotState::Repartitioning);
                let gen1 = gen0.with_file_name("gen1");
                repartition_checkpoint(&gen0, &config, &gen1, &new_config, model.clone(), point)?;
                log.enter(AutopilotState::Resuming);
                phase = Phase::Probation(Box::new(Pending {
                    incumbent: std::mem::replace(&mut config, new_config),
                    during_mbs: final_total.saturating_sub(observed.total_at_drain),
                    observed,
                    point,
                    drain_done_at: ended,
                    first_mb_at: None,
                }));
                dir = Some(gen1);
            }
            (Phase::Probation(p), Some(Watched::Probation(first_mb_at, after, passed))) => {
                let r = replanner.as_ref().expect("probation follows a replan");
                // A clean drain redoes nothing on commit. A rollback
                // discards the probation's work, and the incumbent resumes
                // from the *same* cut: gen0's files were never touched, so
                // the resume sees exactly the state the drain cut.
                let (state, verdict) = if passed {
                    (AutopilotState::Committed, ReconfigVerdict::Committed)
                } else {
                    (AutopilotState::RolledBack, ReconfigVerdict::RolledBack)
                };
                let discarded = report.per_minibatch.iter().filter(|m| m.0 >= p.point);
                let during_s = first_mb_at
                    .unwrap_or(p.drain_done_at)
                    .duration_since(p.observed.drain_requested_at)
                    .as_secs_f64();
                let record = ReconfigReport {
                    old_label: p.incumbent.label(),
                    new_label: config.label(),
                    old_plan_fingerprint: config_fingerprint(&p.incumbent),
                    new_plan_fingerprint: config_fingerprint(&config),
                    drained_at: p.point,
                    downtime_ms: first_mb_at.map_or(0.0, |t| {
                        t.duration_since(p.drain_done_at).as_secs_f64() * 1e3
                    }),
                    minibatches_redone: if passed { 0 } else { discarded.count() as u64 },
                    throughput_before: p.observed.throughput_before,
                    throughput_during: if during_s > 0.0 {
                        p.during_mbs as f64 * opts.batch as f64 / during_s
                    } else {
                        0.0
                    },
                    throughput_after: after,
                    probation_margin: r.auto.probation_margin,
                    verdict,
                };
                log.enter(state);
                if let Some(m) = metrics {
                    m.counter(&format!("reconfig_{state}_total")).inc();
                    m.gauge("reconfig_downtime_ms").set(record.downtime_ms);
                }
                report.control_log.push(ControlRecord::Reconfig(record));
                if passed {
                    return Ok(finish(trained, report));
                }
                config = p.incumbent;
                dir = dir.map(|d| d.with_file_name("gen0"));
                resume = true;
            }
            // No confirmed drift, or replanning is off or spent.
            _ => return Ok(finish(trained, report)),
        }
    }
}

/// The run's end quality, on every recovery it logged.
fn finish(trained: Sequential, mut report: TrainReport) -> (Sequential, TrainReport) {
    let (loss, accuracy) = (report.final_loss(), report.final_accuracy());
    for entry in &mut report.control_log {
        if let ControlRecord::Recovery(r) = entry {
            (r.final_loss, r.final_accuracy) = (loss, accuracy);
        }
    }
    (trained, report)
}
