//! The autopilot control loop: monitor → drain → checkpoint →
//! repartition → resume → verify, with rollback.
//!
//! [`train_with_autopilot`] wraps a pipeline training run with a control
//! plane that closes the loop the paper leaves to the operator (§3.1's
//! profile-driven planner assumes the profile stays true): a
//! [`LiveProfiler`] samples the running pipeline, a [`DriftDetector`]
//! confirms when a stage is persistently off-plan, the replan advisor
//! re-runs the partitioner over *measured* costs, and — when a strictly
//! better plan exists — the pipeline drains to a consistent minibatch
//! boundary, cuts a per-stage checkpoint, re-splits it along the new
//! plan's boundaries, and relaunches mid-epoch under the new stage
//! assignment — the same `TrainOpts` with `resume` set, pointed at the
//! generation directory to pick up from. Every segment numbers minibatches
//! and epochs by the logical run, so the final report is the segments'
//! reports joined end to end ([`TrainReport::then`]). The new plan then
//! sits a probation window: its measured
//! throughput must beat the degraded baseline by a margin, or the run
//! rolls back to the previous plan *from the same checkpoint* and keeps
//! training. Either way, training finishes and the final
//! [`TrainReport`] carries a [`ReconfigReport`] quantifying the
//! reconfiguration (downtime, redone work, throughput before / during /
//! after, verdict).
//!
//! Each training segment gets a fresh internal [`TraceSession`]: a
//! `LiveProfiler` window starts at the session's epoch-zero, so reusing
//! one session across segments would fold a whole prior segment into the
//! first sample. The *caller's* session (in `TrainOpts::obs`), when
//! present, carries only the autopilot's own control track, state gauge,
//! and reconfiguration counters.

use crate::repartition::{repartition_checkpoint, RepartitionError};
use crate::state::{AutopilotState, StateLog};
use pipedream_core::{config_fingerprint, PipelineConfig, PlanError, Planner, StagePrediction};
use pipedream_hw::Topology;
use pipedream_model::LayerCosts;
use pipedream_obs::{advise_replan, DriftConfig, DriftDetector, LiveProfiler, TraceSession};
use pipedream_runtime::checkpoint::latest_complete;
use pipedream_runtime::control::RunControl;
use pipedream_runtime::fault::FaultHook;
use pipedream_runtime::report::{ReconfigReport, ReconfigVerdict};
use pipedream_runtime::trainer::{try_train_pipeline, TrainOpts};
use pipedream_runtime::TrainReport;
use pipedream_tensor::data::Dataset;
use pipedream_tensor::Sequential;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Control-plane tuning knobs for [`train_with_autopilot`].
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

/// Why a self-optimizing run could not produce a final report.
#[derive(Debug)]
pub enum AutopilotError {
    /// Reconfiguration needs checkpoints; `TrainOpts::checkpoint_dir` is
    /// unset.
    MissingCheckpointDir,
    /// The planner/advisor rejected its inputs.
    Plan(PlanError),
    /// The monitored (first) training segment failed outright.
    Train(String),
    /// The drain completed but the checkpoint it should have produced is
    /// missing or inconsistent.
    Checkpoint(String),
    /// Re-splitting the drained checkpoint for the new plan failed.
    Repartition(RepartitionError),
    /// Relaunching a training segment from a checkpoint failed.
    Relaunch(String),
    /// Creating a generation directory failed.
    Io(io::Error),
}

impl fmt::Display for AutopilotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutopilotError::MissingCheckpointDir => write!(
                f,
                "autopilot requires a checkpoint_dir for drain/repartition (set TrainOpts::checkpoint_dir)"
            ),
            AutopilotError::Plan(e) => write!(f, "replan failed: {e}"),
            AutopilotError::Train(e) => write!(f, "monitored run failed: {e}"),
            AutopilotError::Checkpoint(e) => write!(f, "drain checkpoint: {e}"),
            AutopilotError::Repartition(e) => write!(f, "repartition: {e}"),
            AutopilotError::Relaunch(e) => write!(f, "relaunch: {e}"),
            AutopilotError::Io(e) => write!(f, "checkpoint directory: {e}"),
        }
    }
}

impl std::error::Error for AutopilotError {}

impl From<PlanError> for AutopilotError {
    fn from(e: PlanError) -> Self {
        AutopilotError::Plan(e)
    }
}

impl From<RepartitionError> for AutopilotError {
    fn from(e: RepartitionError) -> Self {
        AutopilotError::Repartition(e)
    }
}

impl From<io::Error> for AutopilotError {
    fn from(e: io::Error) -> Self {
        AutopilotError::Io(e)
    }
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
    /// When the drain was requested.
    drain_requested_at: Instant,
}

struct MonitorOutcome {
    drift: Option<DriftObservation>,
    /// Minibatches completed by the end of the segment.
    final_total: u64,
}

/// Drain-cut alignment covering any replica layout the advisor might pick
/// on `workers` workers: the lcm of every possible replica count, so the
/// work remaining after the cut divides evenly into the new plan's
/// gradient-sync rounds whatever it turns out to be. Falls back to
/// `workers` (covering all homogeneous layouts) when the exact lcm grows
/// impractically large — the pre-repartition divisibility check still
/// guards the exotic heterogeneous layouts then.
fn reconfig_cut_alignment(workers: usize) -> u64 {
    let w = workers.max(1) as u64;
    let full = (1..=w).fold(1u64, pipedream_core::lcm);
    if full <= 64 * w {
        full
    } else {
        w
    }
}

/// Segment-1 watcher: sample, detect, and on first confirmed drift
/// request the drain and capture the measured state the advisor needs.
#[allow(clippy::too_many_arguments)]
fn drift_monitor(
    session: Arc<TraceSession>,
    predictions: Vec<StagePrediction>,
    drift_cfg: DriftConfig,
    gate: Arc<RunControl>,
    cut_align: u64,
    stop: Arc<AtomicBool>,
    sample_every: Duration,
    batch: usize,
    log: Arc<StateLog>,
) -> MonitorOutcome {
    let mut profiler = LiveProfiler::new(session.clone()).without_publish();
    let mut detector = DriftDetector::new(predictions).with_config(drift_cfg);
    let mut drift: Option<DriftObservation> = None;
    let mut final_total;
    loop {
        let done = stop.load(Ordering::Relaxed);
        let live = profiler.sample();
        let snap = session.snapshot();
        let report = detector.observe_with_tracks(&live, Some(&snap));
        final_total = live.minibatches_total;
        if drift.is_none() && report.any_drift() && live.minibatches_total > 0 && live.t_s > 0.0 {
            log.enter(AutopilotState::DriftConfirmed);
            log.enter(AutopilotState::Draining);
            gate.request_drain_aligned(cut_align);
            drift = Some(DriftObservation {
                measured_stage_s: live.measured_stage_s(),
                throughput_before: live.minibatches_total as f64 / live.t_s * batch as f64,
                total_at_drain: live.minibatches_total,
                drain_requested_at: Instant::now(),
            });
        }
        if done {
            break;
        }
        thread::sleep(sample_every);
    }
    MonitorOutcome { drift, final_total }
}

struct ProbationOutcome {
    /// When the relaunched pipeline's first completed minibatch was
    /// observed (sample-granular).
    first_mb_at: Option<Instant>,
    /// Measured throughput (samples/s) of the new plan.
    throughput_after: f64,
    /// Whether the new plan cleared the margin.
    passed: bool,
}

/// Segment-2 watcher: measure the relaunched plan and, once enough
/// windows accumulated, pass its verdict — draining the segment early
/// when it fails so a bad plan doesn't keep burning time.
#[allow(clippy::too_many_arguments)]
fn probation_monitor(
    session: Arc<TraceSession>,
    gate: Arc<RunControl>,
    stop: Arc<AtomicBool>,
    threshold: f64,
    windows: usize,
    sample_every: Duration,
    batch: usize,
    log: Arc<StateLog>,
) -> ProbationOutcome {
    let mut profiler = LiveProfiler::new(session).without_publish();
    let mut first_mb_at = None;
    let mut windows_seen = 0usize;
    let mut throughput = 0.0;
    let mut decided: Option<bool> = None;
    loop {
        let done = stop.load(Ordering::Relaxed);
        let live = profiler.sample();
        if first_mb_at.is_none() && live.minibatches_total > 0 {
            first_mb_at = Some(Instant::now());
            log.enter(AutopilotState::Verifying);
        }
        if live.window_minibatches > 0 {
            windows_seen += 1;
        }
        if live.minibatches_total > 0 && live.t_s > 0.0 {
            throughput = live.minibatches_total as f64 / live.t_s * batch as f64;
        }
        if decided.is_none() && windows_seen >= windows && live.minibatches_total > 0 {
            let pass = throughput >= threshold;
            decided = Some(pass);
            if !pass {
                gate.request_drain();
            }
        }
        if done {
            break;
        }
        thread::sleep(sample_every);
    }
    ProbationOutcome {
        first_mb_at,
        throughput_after: throughput,
        // A segment that finished before the window count filled still
        // gets judged — on everything it measured.
        passed: decided.unwrap_or(throughput >= threshold),
    }
}

/// Relaunch the run under `config` from the newest complete checkpoint in
/// `opts.checkpoint_dir`.
fn relaunch(
    model: &Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: TrainOpts,
    hook: Option<Arc<dyn FaultHook>>,
) -> Result<(Sequential, TrainReport), AutopilotError> {
    let opts = TrainOpts {
        resume: true,
        ..opts
    };
    try_train_pipeline(model.clone(), config, dataset, &opts, hook)
        .map_err(|e| AutopilotError::Relaunch(e.to_string()))
}

/// Train `model` under `config`, letting the autopilot reconfigure the
/// pipeline live if the run drifts off-plan.
///
/// `baseline` and `topo` are the offline profile and hardware topology
/// the current plan was made from — the advisor re-plans over
/// measurement-scaled versions of the same inputs. `opts.checkpoint_dir`
/// is required: the autopilot creates per-generation subdirectories
/// (`gen0` for the incumbent plan, `gen1` for the repartitioned one)
/// beneath it, so a rollback always finds the old plan's files
/// untouched. `opts.control` and `opts.obs` are overridden per segment —
/// the autopilot owns the drain gates, and profiles each segment on a
/// fresh internal session; the caller's `opts.obs` session (if any)
/// receives the control track, state gauge, and reconfig counters
/// instead. `hook` (e.g. a `DelayStraggler` modelling a degraded host)
/// stays installed across every segment: the environment does not heal
/// just because the pipeline reconfigured.
///
/// Returns the trained model and a [`TrainReport`] covering the whole
/// logical run; `report.reconfig` records the reconfiguration, if one
/// happened.
#[allow(clippy::too_many_arguments)]
pub fn train_with_autopilot(
    model: &Sequential,
    config: &PipelineConfig,
    dataset: &Dataset,
    opts: &TrainOpts,
    baseline: &LayerCosts,
    topo: &Topology,
    auto: &AutopilotOpts,
    hook: Option<Arc<dyn FaultHook>>,
) -> Result<(Sequential, TrainReport), AutopilotError> {
    let root = opts
        .checkpoint_dir
        .clone()
        .ok_or(AutopilotError::MissingCheckpointDir)?;
    let gen0 = root.join("gen0");
    std::fs::create_dir_all(&gen0)?;

    let planner = Planner::from_costs(baseline.clone(), topo);
    let predictions = planner.try_predicted_stage_times(config)?;

    let log = StateLog::new(opts.obs.clone());
    log.enter(AutopilotState::Monitoring);
    if let Some(session) = &opts.obs {
        session.metrics().counter("reconfig_attempts_total"); // pre-register
    }

    // --- Segment 1: the incumbent plan, monitored.
    let session1 = TraceSession::new();
    let gate1 = Arc::new(RunControl::new());
    let mut opts1 = opts.clone();
    opts1.checkpoint_dir = Some(gen0.clone());
    opts1.control = Some(gate1.clone());
    opts1.obs = Some(session1.clone());

    let stop1 = Arc::new(AtomicBool::new(false));
    let monitor = {
        let session = session1.clone();
        let preds = predictions.clone();
        let drift_cfg = auto.drift;
        let gate = gate1.clone();
        let cut_align = reconfig_cut_alignment(config.total_workers());
        let stop = stop1.clone();
        let sample_every = auto.sample_every;
        let batch = opts.batch;
        let log = log.clone();
        thread::spawn(move || {
            drift_monitor(
                session,
                preds,
                drift_cfg,
                gate,
                cut_align,
                stop,
                sample_every,
                batch,
                log,
            )
        })
    };

    let seg1 = try_train_pipeline(model.clone(), config, dataset, &opts1, hook.clone());
    stop1.store(true, Ordering::Relaxed);
    let mon = monitor.join().expect("drift monitor panicked");
    let (model1, report1) = seg1.map_err(|e| AutopilotError::Train(e.to_string()))?;
    let drain_done_at = Instant::now();

    let (observed, point) = match (mon.drift, report1.drained_at) {
        (Some(o), Some(p)) => (o, p),
        // No confirmed drift — or the run finished before the cut could
        // truncate it. Nothing to reconfigure.
        _ => return Ok((model1, report1)),
    };

    // The drain protocol's contract: every stage checkpointed the same
    // point, and it is the newest in gen0.
    log.enter(AutopilotState::Checkpointing);
    let have = latest_complete(&gen0, config.num_stages());
    if have != Some(point) {
        return Err(AutopilotError::Checkpoint(format!(
            "expected a complete checkpoint at {point} minibatches, found {have:?}"
        )));
    }
    if let Some(session) = &opts.obs {
        session.metrics().counter("reconfig_attempts_total").inc();
    }

    // --- Replan over measured costs, honoring the run's memory budget
    // and schedule kind.
    let advice = advise_replan(
        baseline,
        topo,
        config,
        &observed.measured_stage_s,
        auto.sim_minibatches,
        auto.memory_limit,
        opts.schedule,
    )?;
    // The work remaining after the cut must divide evenly into the new
    // plan's gradient-sync rounds, or the relaunch would drop the ragged
    // tail and the run end short. The drain cut was pre-aligned for every
    // layout the advisor can pick (`reconfig_cut_alignment`), so this only
    // rejects exotic heterogeneous layouts or a misaligned `force_plan`.
    let total = (opts.epochs * dataset.num_minibatches(opts.batch).max(1)) as u64;
    let remaining = total.saturating_sub(point);
    let applicable = |candidate: &PipelineConfig| remaining % candidate.replica_lcm() == 0;
    // Resume the incumbent plan from the drain point in gen0 and finish
    // the run, joined to `before`.
    let resume_incumbent = |before: TrainReport, reconfig| {
        let ropts = TrainOpts {
            checkpoint_dir: Some(gen0.clone()),
            control: None,
            ..opts.clone()
        };
        let (m, r) = relaunch(model, config, dataset, ropts, hook.clone())?;
        let report = TrainReport {
            drained_at: Some(point),
            reconfig,
            ..before.then(r)
        };
        Ok((m, report))
    };
    let new_config = match &auto.force_plan {
        Some(forced) if applicable(forced) => forced.clone(),
        None if advice.changed && applicable(&advice.recommended_config) => {
            advice.recommended_config.clone()
        }
        _ => {
            // Nothing strictly better (or the candidate cannot run the
            // remaining work). No plan changed, so no ReconfigReport.
            log.enter(AutopilotState::Resuming);
            return resume_incumbent(report1, Vec::new());
        }
    };

    // --- Re-split the drained checkpoint along the new boundaries.
    log.enter(AutopilotState::Repartitioning);
    let gen1 = root.join("gen1");
    repartition_checkpoint(&gen0, config, &gen1, &new_config, model.clone(), point)?;

    // --- Segment 2: relaunch under the new plan, on probation.
    log.enter(AutopilotState::Resuming);
    let threshold = observed.throughput_before * (1.0 + auto.probation_margin);
    let session2 = TraceSession::new();
    let gate2 = Arc::new(RunControl::new());
    let mut opts2 = opts.clone();
    opts2.checkpoint_dir = Some(gen1.clone());
    opts2.control = Some(gate2.clone());
    opts2.obs = Some(session2.clone());

    let stop2 = Arc::new(AtomicBool::new(false));
    let probation = {
        let session = session2.clone();
        let gate = gate2.clone();
        let stop = stop2.clone();
        let windows = auto.probation_windows;
        let sample_every = auto.sample_every;
        let batch = opts.batch;
        let log = log.clone();
        thread::spawn(move || {
            probation_monitor(
                session,
                gate,
                stop,
                threshold,
                windows,
                sample_every,
                batch,
                log,
            )
        })
    };

    let seg2 = relaunch(model, &new_config, dataset, opts2, hook.clone());
    stop2.store(true, Ordering::Relaxed);
    let prob = probation.join().expect("probation monitor panicked");
    let (model2, report2) = seg2?;

    let downtime_ms = prob
        .first_mb_at
        .map(|t| t.duration_since(drain_done_at).as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    let during_s = prob
        .first_mb_at
        .unwrap_or(drain_done_at)
        .duration_since(observed.drain_requested_at)
        .as_secs_f64();
    let during_mbs = mon.final_total.saturating_sub(observed.total_at_drain);
    let throughput_during = if during_s > 0.0 {
        during_mbs as f64 * opts.batch as f64 / during_s
    } else {
        0.0
    };

    let mut record = ReconfigReport {
        old_label: config.label(),
        new_label: new_config.label(),
        old_plan_fingerprint: config_fingerprint(config),
        new_plan_fingerprint: config_fingerprint(&new_config),
        drained_at: point,
        downtime_ms,
        // A clean drain redoes nothing on commit; a rollback discards the
        // probation segment's work (set below).
        minibatches_redone: 0,
        throughput_before: observed.throughput_before,
        throughput_during,
        throughput_after: prob.throughput_after,
        probation_margin: auto.probation_margin,
        verdict: ReconfigVerdict::Committed,
    };

    if prob.passed {
        log.enter(AutopilotState::Committed);
        if let Some(session) = &opts.obs {
            let m = session.metrics();
            m.counter("reconfig_committed_total").inc();
            m.gauge("reconfig_downtime_ms").set(downtime_ms);
        }
        let report = TrainReport {
            drained_at: Some(point),
            reconfig: vec![record],
            ..report1.then(report2)
        };
        return Ok((model2, report));
    }

    // --- Probation failed: roll back to the incumbent plan from the
    // *same* checkpoint. gen0's files were never touched, so the resume
    // sees exactly the state the drain cut.
    record.verdict = ReconfigVerdict::RolledBack;
    record.minibatches_redone = report2.per_minibatch.len() as u64;
    log.enter(AutopilotState::RolledBack);
    if let Some(session) = &opts.obs {
        let m = session.metrics();
        m.counter("reconfig_rolled_back_total").inc();
        m.gauge("reconfig_downtime_ms").set(downtime_ms);
    }
    let (model3, mut report) = resume_incumbent(report1, vec![record])?;
    // The discarded probation segment still cost wall-clock time.
    report.wall_time_s += report2.wall_time_s;
    Ok((model3, report))
}
