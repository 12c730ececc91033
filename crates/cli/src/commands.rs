//! Subcommand implementations.

use crate::args::{
    AnalyzeArgs, DpArgs, ExportArgs, InspectArgs, PlanArgs, ServeArgs, SimulateArgs, Target,
    TopArgs, TrainArgs,
};
use pipedream_autopilot::{train_supervised, AutopilotOpts, AutopilotState, Fault, FaultPlan};
use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, Planner, ScheduleKind};
use pipedream_hw::{ClusterPreset, Device, LinkModel, Precision, Topology};
use pipedream_model::{profile_sequential, zoo, LayerCosts, ModelProfile};
use pipedream_obs::{
    analyze_trace, parse_chrome_trace, render_live_dashboard, render_live_status, sim_to_snapshot,
    what_if, BubbleCause, CriticalPathReport, LiveProfiler,
};
use pipedream_runtime::trainer::evaluate;
use pipedream_runtime::{ControlRecord, LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_sim::{render_timeline, simulate_dp, simulate_pipeline};
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Tanh};
use pipedream_tensor::{Sequential, Tensor};
use std::fmt::Write as _;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn load_model(name: &str) -> Result<ModelProfile, String> {
    if let Some(path) = name.strip_prefix('@') {
        let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        return serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"));
    }
    zoo::by_name(name).ok_or_else(|| {
        format!(
            "unknown model '{}' (try {}, or @profile.json)",
            name.to_ascii_lowercase(),
            zoo::NAMES.join(", ")
        )
    })
}

/// `done` completed minibatches as a person reads a place in a run: the
/// epoch of the last one, and its index there unless it closed the epoch.
fn epoch_and_minibatch(done: u64, mbs_per_epoch: u64) -> String {
    let last = done.saturating_sub(1);
    let epoch = last / mbs_per_epoch;
    if done.is_multiple_of(mbs_per_epoch) {
        format!("epoch {epoch}")
    } else {
        format!("epoch {epoch} (minibatch {})", last % mbs_per_epoch)
    }
}

fn load_topology(t: &Target) -> Result<Topology, String> {
    if let Some(spec) = &t.topology {
        let path = spec.strip_prefix('@').unwrap_or(spec);
        let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        return serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"));
    }
    let preset = match t.cluster {
        'A' => ClusterPreset::A,
        'B' => ClusterPreset::B,
        _ => ClusterPreset::C,
    };
    Ok(preset.with_servers(t.servers))
}

/// `pipedream plan`.
pub fn plan(a: PlanArgs) -> Result<String, String> {
    let model = load_model(&a.target.model)?;
    let topo = load_topology(&a.target)?;
    let batch = a.batch.unwrap_or(model.default_batch);
    let mut planner =
        Planner::with_options(&model, &topo, batch, Precision::Fp32).with_schedule(a.schedule);
    if let Some(gb) = a.memory_limit_gb {
        planner = planner.with_memory_limit((gb * (1u64 << 30) as f64) as u64);
    }
    let plan = if a.flat {
        planner.try_plan_flat()
    } else {
        planner.try_plan()
    }
    .map_err(|e| e.to_string())?;
    if a.json {
        return serde_json::to_string_pretty(&plan).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model {} ({} layers, {:.1} M params) on {} workers",
        model.name,
        model.num_layers(),
        model.total_params() as f64 / 1e6,
        topo.total_workers()
    );
    let _ = writeln!(
        out,
        "configuration: {} ({})",
        plan.config,
        plan.config.label()
    );
    let _ = writeln!(
        out,
        "predicted: {:.0} samples/s, bottleneck {:.2} ms/minibatch, NOAM {}",
        plan.samples_per_sec,
        plan.bottleneck_s * 1e3,
        plan.noam
    );
    for (i, st) in plan.config.stages().iter().enumerate() {
        let _ = writeln!(
            out,
            "  stage {i}: layers {:>2}..={:<2} [{} … {}]  × {} worker(s)",
            st.first_layer,
            st.last_layer,
            model.layers[st.first_layer].name,
            model.layers[st.last_layer].name,
            st.replicas
        );
    }
    Ok(out)
}

fn resolve_config(
    spec: &str,
    model: &ModelProfile,
    topo: &Topology,
) -> Result<PipelineConfig, String> {
    let planner = Planner::new(model, topo);
    let n = model.num_layers();
    let w = topo.total_workers();
    match spec {
        "auto" => Ok(planner.try_plan_flat().map_err(|e| e.to_string())?.config),
        "dp" => Ok(PipelineConfig::data_parallel(n, w)),
        "straight" => {
            let d = w.min(n);
            let b = planner
                .balanced_boundaries(d)
                .ok_or_else(|| format!("cannot split {n} layers into {d} stages"))?;
            Ok(PipelineConfig::straight(n, &b))
        }
        dash => {
            // Dash notation "15-1": replica counts per stage; layers are
            // split compute-balanced into that many stages.
            let counts: Result<Vec<usize>, _> = dash.split('-').map(str::parse).collect();
            let counts = counts.map_err(|_| format!("cannot parse config '{dash}'"))?;
            if counts.iter().sum::<usize>() != w {
                return Err(format!(
                    "config '{dash}' uses {} workers but the cluster has {w}",
                    counts.iter().sum::<usize>()
                ));
            }
            let d = counts.len();
            if d == 1 {
                return Ok(PipelineConfig::data_parallel(n, w));
            }
            let b = planner
                .balanced_boundaries(d)
                .ok_or_else(|| format!("cannot split {n} layers into {d} stages"))?;
            let mut stages = Vec::new();
            let mut first = 0usize;
            for (i, &r) in counts.iter().enumerate() {
                let last = if i + 1 == d { n - 1 } else { b[i] };
                stages.push(pipedream_core::StagePlan::new(first, last, r));
                first = last + 1;
            }
            Ok(PipelineConfig::new(stages))
        }
    }
}

/// `pipedream simulate`.
pub fn simulate(a: SimulateArgs) -> Result<String, String> {
    let model = load_model(&a.target.model)?;
    let topo = load_topology(&a.target)?;
    let config = resolve_config(&a.config, &model, &topo)?;
    let costs = model.costs(&topo.device, model.default_batch, Precision::Fp32);
    let schedule = Schedule::one_f_one_b(&config, a.minibatches);
    let r = simulate_pipeline(&costs, &topo, &schedule);
    let mut trace_note = None;
    if let Some(path) = &a.trace {
        // Same schema `train --trace` writes, so `analyze` accepts both and
        // can diff a simulated critical path against a measured one.
        let snap = sim_to_snapshot(&r, &config);
        let json = pipedream_obs::render_chrome_trace(&snap);
        fs::write(path, json).map_err(|e| format!("--trace {path}: {e}"))?;
        trace_note = Some(format!("wrote simulated Chrome trace to {path}"));
    }
    if a.json {
        return serde_json::to_string_pretty(&r).map_err(|e| e.to_string());
    }
    let mut out = String::new();
    if let Some(note) = trace_note {
        let _ = writeln!(out, "{note}");
    }
    let _ = writeln!(
        out,
        "config {} on {} workers",
        config.label(),
        config.total_workers()
    );
    let _ = writeln!(
        out,
        "throughput {:.0} samples/s ({:.2} ms/minibatch), utilization {:.0}%",
        r.samples_per_sec,
        r.per_minibatch_s * 1e3,
        r.mean_utilization * 100.0
    );
    let _ = writeln!(
        out,
        "communication {:.1} MB over {} minibatches; peak memory {:.2} GB",
        r.comm_bytes as f64 / 1e6,
        a.minibatches,
        *r.peak_memory_bytes.iter().max().unwrap_or(&0) as f64 / (1u64 << 30) as f64
    );
    if a.timeline {
        let _ = writeln!(out, "\n{}", render_timeline(&r.timeline, 100));
    }
    Ok(out)
}

/// `pipedream dp`.
pub fn dp(a: DpArgs) -> Result<String, String> {
    let model = load_model(&a.target.model)?;
    let topo = load_topology(&a.target)?;
    let gpus = a.gpus.unwrap_or_else(|| topo.total_workers());
    let precision = if a.fp16 {
        Precision::Fp16
    } else {
        Precision::Fp32
    };
    let costs = model.costs(&topo.device, model.default_batch, precision);
    let r = simulate_dp(&costs, &topo, gpus);
    if a.json {
        return serde_json::to_string_pretty(&r).map_err(|e| e.to_string());
    }
    Ok(format!(
        "data parallelism, {gpus} GPUs, {precision:?}: {:.0} samples/s, \
         iteration {:.2} ms (compute {:.2} ms, stall {:.0}%)\n",
        r.samples_per_sec,
        r.iteration_s * 1e3,
        r.compute_s * 1e3,
        r.stall_fraction * 100.0
    ))
}

/// The synthetic demo pipeline `train` and `top` share: a 2·stages-layer
/// MLP on the 4-class blobs task, split one boundary per stage.
fn demo_pipeline(stages: usize, seed: u64) -> (Sequential, PipelineConfig, Dataset) {
    let width = 32usize;
    let mut r = rng(seed);
    let mut model = Sequential::new("cli-mlp").push(Linear::new(8, width, &mut r));
    for _ in 0..(2 * stages - 3) {
        model.push_boxed(Box::new(Tanh::new()));
        let lin = Linear::new(width, width, &mut r);
        model.push_boxed(Box::new(lin));
    }
    model.push_boxed(Box::new(Linear::new(width, 4, &mut r)));
    let n_layers = model.len();
    let boundaries: Vec<usize> = (1..stages).map(|i| i * n_layers / stages - 1).collect();
    let config = PipelineConfig::straight(n_layers, &boundaries);
    let data = blobs(256, 8, 4, 0.8, seed ^ 0xda7a);
    (model, config, data)
}

/// Background thread that drains the session rings every `period` and
/// prints one [`render_live_status`] line to stderr; returns the final
/// [`pipedream_obs::LiveSnapshot`] when stopped.
struct Watcher {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<pipedream_obs::LiveSnapshot>,
}

impl Watcher {
    fn spawn(session: Arc<pipedream_obs::TraceSession>, period: std::time::Duration) -> Watcher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut profiler = LiveProfiler::new(session.clone());
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                let live = profiler.sample();
                // The trainer publishes the run length once the schedule is
                // built, which turns the status line into progress + ETA.
                let total = session.metrics().gauge("train_total_minibatches").get() as u64;
                eprintln!(
                    "{}",
                    render_live_status(&live, (total > 0).then_some(total))
                );
            }
            profiler.sample()
        });
        Watcher { stop, handle }
    }

    fn finish(self) -> pipedream_obs::LiveSnapshot {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("watcher thread panicked")
    }
}

/// The inputs live replanning needs for the demo pipeline: its healthy
/// per-layer profile, and a topology of one device per stage worker.
fn replan_inputs(model: &Sequential, stages: usize, batch: usize) -> (LayerCosts, Topology) {
    let topo = Topology::flat(
        Device::v100(),
        stages,
        LinkModel::new(1e14, 0.0),
        "local-threads",
    );
    let mut prof_model = model.clone();
    let input = Tensor::zeros(&[batch, 8]);
    let profile = profile_sequential(&mut prof_model, &input, 1, 3, &topo.device);
    (profile.costs(&topo.device, batch, Precision::Fp32), topo)
}

/// `pipedream train`.
pub fn train(a: TrainArgs) -> Result<String, String> {
    if !(2..=8).contains(&a.stages) {
        return Err("--stages must be between 2 and 8".into());
    }
    let semantics = match a.semantics.as_str() {
        "stashed" => Semantics::Stashed,
        "naive" => Semantics::Naive,
        "vsync" => Semantics::VerticalSync,
        "gpipe" => Semantics::GPipe { microbatches: 4 },
        other => return Err(format!("unknown semantics '{other}'")),
    };
    if a.schedule != ScheduleKind::Vanilla1F1B && semantics != Semantics::Stashed {
        return Err(format!(
            "--schedule {} requires --semantics stashed",
            a.schedule
        ));
    }
    let (model, config, data) = demo_pipeline(a.stages, a.seed);
    let (train_set, test_set) = data.split(0.25);
    let mbs_per_epoch = train_set.num_minibatches(a.batch) as u64;
    // --fault implies checkpointing so a relaunch has something to restart
    // from; --auto-replan implies it so the autopilot can drain and
    // repartition.
    let checkpoint_dir = match (&a.checkpoint_dir, a.fault.is_some() || a.auto_replan) {
        (Some(d), _) => Some(std::path::PathBuf::from(d)),
        (None, true) => {
            Some(std::env::temp_dir().join(format!("pipedream-train-ckpt-{}", std::process::id())))
        }
        (None, false) => None,
    };
    // Any observability flag opens a trace session shared by the workers,
    // the gradient-sync groups, and the control plane's `supervisor`
    // track.
    let session = if a.trace.is_some() || a.metrics || a.timeline || a.watch {
        Some(pipedream_obs::TraceSession::new())
    } else {
        None
    };
    let watcher = match (&session, a.watch) {
        (Some(s), true) => Some(Watcher::spawn(
            s.clone(),
            std::time::Duration::from_millis(250),
        )),
        _ => None,
    };
    let opts = TrainOpts {
        epochs: a.epochs,
        batch: a.batch,
        optim: OptimKind::Sgd {
            lr: a.lr,
            momentum: 0.0,
        },
        semantics,
        schedule: a.schedule,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir,
        checkpoint_every: a.checkpoint_every,
        resume: false,
        depth: None,
        obs: session.clone(),
        ..TrainOpts::default()
    };
    let faults = match &a.fault {
        Some(spec) => Some(Arc::new(
            FaultPlan::parse(spec).map_err(|e| format!("--fault: {e}"))?,
        )),
        None => None,
    };
    let replan = a
        .auto_replan
        .then(|| replan_inputs(&model, a.stages, a.batch));
    let auto = AutopilotOpts::default();
    let (mut trained, report) = train_supervised(
        &model,
        &config,
        &train_set,
        &opts,
        replan.as_ref().map(|(costs, topo)| (costs, topo, &auto)),
        faults.clone(),
    )
    .map_err(|e| e.to_string())?;
    let final_live = watcher.map(Watcher::finish);
    let mut out = String::new();
    if let Some(live) = &final_live {
        let _ = writeln!(
            out,
            "live: {}",
            render_live_status(live, Some(live.minibatches_total))
        );
    }
    let _ = writeln!(
        out,
        "trained {}-stage pipeline ({:?}) for {} epochs on 4-class blobs",
        a.stages, semantics, a.epochs
    );
    if let Some(plan) = &faults {
        for fault in plan.faults() {
            if let Fault::Straggle { stage, .. } = fault {
                let _ = writeln!(
                    out,
                    "injected persistent straggler on stage {stage}: {} forward send(s) delayed",
                    plan.straggled()
                );
            }
        }
        if !plan.fired() {
            let _ = writeln!(
                out,
                "fault `{}` never fired (no op matched the spec); training ran clean",
                plan.spec()
            );
        } else if report.recoveries().next().is_none() {
            let _ = writeln!(out, "fault `{}` fired; no restart needed", plan.spec());
        }
    }
    for entry in &report.control_log {
        let _ = match entry {
            ControlRecord::Recovery(rec) => writeln!(
                out,
                "injected fault `{}`: detected in {:.1} ms, resumed from {}, {} epoch(s) / {} minibatch(es) redone",
                rec.fault,
                rec.detection_latency_s * 1e3,
                match rec.resumed_from {
                    Some(g) => format!(
                        "epoch-{} checkpoint (global mb {g})",
                        g.saturating_sub(1) / mbs_per_epoch
                    ),
                    None => "scratch (no checkpoint yet)".to_string(),
                },
                rec.epochs_redone,
                rec.minibatches_redone,
            ),
            ControlRecord::Reconfig(rec) => writeln!(
                out,
                "autopilot: replanned {} -> {} at {}: downtime {:.0} ms, \
                 {} minibatch(es) redone, throughput {:.0} -> {:.0} samples/s, verdict {}",
                rec.old_label,
                rec.new_label,
                epoch_and_minibatch(rec.drained_at, mbs_per_epoch),
                rec.downtime_ms,
                rec.minibatches_redone,
                rec.throughput_before,
                rec.throughput_after,
                rec.verdict,
            ),
        };
    }
    let recovered = report.recoveries().next().is_some();
    if let Some(k) = a.checkpoint_every.filter(|_| recovered) {
        let _ = writeln!(
            out,
            "mid-epoch checkpoints every {k} minibatches bound the redo to ≤ {k} + in-flight"
        );
    }
    if a.auto_replan && report.reconfigs().next().is_none() {
        let _ = writeln!(
            out,
            "autopilot: no reconfiguration (no sustained drift detected)"
        );
    }
    for e in &report.per_epoch {
        let _ = writeln!(
            out,
            "  epoch {:>2}: loss {:.4}, accuracy {:.1}%",
            e.epoch,
            e.loss,
            e.accuracy * 100.0
        );
    }
    let _ = writeln!(
        out,
        "held-out accuracy {:.1}%, wall time {:.2}s, {} workers on {} thread(s)",
        evaluate(&mut trained, &test_set, a.batch) * 100.0,
        report.wall_time_s,
        config.total_workers(),
        report.threads
    );
    if let Some(path) = &a.report {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("--report {path}: {e}"))?;
        let _ = writeln!(out, "wrote TrainReport JSON to {path}");
    }
    if let Some(session) = &session {
        let snap = session.snapshot();
        if a.timeline {
            let timeline = pipedream_obs::to_timeline(&snap);
            let _ = writeln!(out, "\n{}", render_timeline(&timeline, 100));
        }
        if let Some(path) = &a.trace {
            // Stream track-by-track straight to disk: the full document is
            // never materialised in memory, so big runs trace flat.
            let file = fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
            let mut w = std::io::BufWriter::new(file);
            pipedream_obs::write_chrome_trace_session(session, &mut w)
                .and_then(|()| {
                    use std::io::Write as _;
                    w.flush()
                })
                .map_err(|e| format!("--trace {path}: {e}"))?;
            let _ = writeln!(
                out,
                "wrote Chrome trace to {path} (load in Perfetto or chrome://tracing)"
            );
        }
        if a.metrics {
            let _ = writeln!(out, "\n{}", session.metrics().render_prometheus());
        }
    }
    Ok(out)
}

/// `pipedream inspect`: print the per-layer profile table — the paper's
/// `(T_l, a_l, w_l)` triple for every layer, plus totals — and/or, with
/// `--from-trace`, the *measured* per-stage table replayed offline from a
/// recorded Chrome trace through the same aggregation `--watch` uses live.
pub fn inspect(a: InspectArgs) -> Result<String, String> {
    let mut out = String::new();
    if let Some(name) = &a.model {
        let model = load_model(name)?;
        let batch = a.batch.unwrap_or(model.default_batch);
        let device = pipedream_hw::Device::v100();
        let costs = model.costs(&device, batch, Precision::Fp32);
        let _ = writeln!(
            out,
            "{} — {} layers, {:.1} M params ({:.2} GB fp32), per-GPU batch {batch}\n",
            model.name,
            model.num_layers(),
            model.total_params() as f64 / 1e6,
            model.total_weight_bytes(Precision::Fp32) as f64 / (1u64 << 30) as f64
        );
        let _ = writeln!(
            out,
            "{:<14} {:>14} {:>12} {:>12} {:>14}",
            "layer", "fwd+bwd (ms)", "a_l (MB)", "w_l (MB)", "flops/sample"
        );
        for (l, c) in model.layers.iter().zip(costs.layers.iter()) {
            let _ = writeln!(
                out,
                "{:<14} {:>14.3} {:>12.2} {:>12.2} {:>14.2e}",
                l.name,
                c.total_s() * 1e3,
                c.activation_bytes as f64 / 1e6,
                c.weight_bytes as f64 / 1e6,
                l.flops_fwd
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:>14.3} {:>12} {:>12.2}",
            "TOTAL",
            costs.total_compute_all() * 1e3,
            "",
            costs.weight_bytes_all() as f64 / 1e6
        );
    }
    if let Some(path) = &a.from_trace {
        let json = fs::read_to_string(path).map_err(|e| format!("--from-trace {path}: {e}"))?;
        let snap = parse_chrome_trace(&json).map_err(|e| format!("--from-trace {path}: {e}"))?;
        let live = LiveProfiler::replay(&snap);
        if !out.is_empty() {
            let _ = writeln!(out);
        }
        let _ = writeln!(
            out,
            "measured from {path} — {} track(s), {} minibatch(es), {:.2}s wall\n",
            snap.tracks.len(),
            live.minibatches_total,
            live.t_s
        );
        let _ = writeln!(
            out,
            "{:<6} {:>5} {:>14} {:>12} {:>12} {:>6} {:>6} {:>8}",
            "stage", "mbs", "mean/mb (ms)", "p50 (ms)", "p99 (ms)", "busy%", "comm%", "bubble%"
        );
        for s in &live.stages {
            let _ = writeln!(
                out,
                "{:<6} {:>5} {:>14.3} {:>12.3} {:>12.3} {:>6.1} {:>6.1} {:>8.1}",
                s.stage,
                s.minibatches,
                s.ewma_compute_per_mb_s * 1e3,
                s.p50_compute_s * 1e3,
                s.p99_compute_s * 1e3,
                s.busy_frac * 100.0,
                s.comm_frac * 100.0,
                s.bubble_frac * 100.0,
            );
        }
    }
    Ok(out)
}

/// One-line autopilot control-plane status read back from the metrics
/// the pilot publishes to the caller's session: the `autopilot_state`
/// gauge (position on the reconfiguration ladder) plus the reconfig
/// attempt/verdict counters and the last measured downtime.
fn autopilot_status_line(m: &pipedream_obs::MetricsRegistry) -> String {
    let state = AutopilotState::from_code(m.gauge("autopilot_state").get() as u8)
        .map(AutopilotState::name)
        .unwrap_or("unknown");
    let mut line = format!(
        "autopilot: state={state}  reconfigs={} (committed {}, rolled back {})",
        m.counter("reconfig_attempts_total").get(),
        m.counter("reconfig_committed_total").get(),
        m.counter("reconfig_rolled_back_total").get(),
    );
    let downtime = m.gauge("reconfig_downtime_ms").get();
    if downtime > 0.0 {
        let _ = write!(line, "  last downtime {downtime:.0} ms");
    }
    line
}

/// One-line memory-schedule status from the gauges the trainer publishes:
/// the active [`ScheduleKind`], the worst per-stage weight-version
/// residency, and the total recompute time spent so far.
fn schedule_status_line(m: &pipedream_obs::MetricsRegistry, stages: usize) -> String {
    let kind = ScheduleKind::all()
        .get(m.gauge("train_schedule_kind").get() as usize)
        .map(|k| k.as_str())
        .unwrap_or("?");
    let mut versions_max = 0.0f64;
    let mut recompute_ms = 0.0f64;
    for s in 0..stages {
        versions_max = versions_max.max(m.gauge(&format!("stage{s}_versions_held")).get());
        recompute_ms += m.gauge(&format!("stage{s}_recompute_ms")).get();
    }
    format!("schedule={kind}  versions_held_max={versions_max:.0}  recompute={recompute_ms:.1} ms")
}

/// `pipedream top`: run the demo training pipeline with tracing on and
/// repaint a live per-stage dashboard (EWMA/percentile compute, busy /
/// comm / bubble split, stash depth, recent-window ASCII timeline) every
/// `--refresh-ms` until training finishes. With `--auto-replan` the demo
/// runs under the autopilot and every frame carries a control-plane
/// status line. Returns the final frame.
pub fn top(a: TopArgs) -> Result<String, String> {
    if !(2..=8).contains(&a.stages) {
        return Err("--stages must be between 2 and 8".into());
    }
    let (model, config, data) = demo_pipeline(a.stages, a.seed);
    let (train_set, _) = data.split(0.25);
    let mbs_per_epoch = train_set.num_minibatches(a.batch) as u64;
    let session = pipedream_obs::TraceSession::new();
    let opts = TrainOpts {
        epochs: a.epochs,
        batch: a.batch,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: a.auto_replan.then(|| {
            std::env::temp_dir().join(format!("pipedream-top-ckpt-{}", std::process::id()))
        }),
        obs: Some(session.clone()),
        ..TrainOpts::default()
    };
    // With --auto-replan, worker spans land on the loop's per-segment
    // internal sessions; the caller's session still carries the control
    // track and metrics the status line reads.
    let replan = a
        .auto_replan
        .then(|| replan_inputs(&model, a.stages, a.batch));
    let trainer = std::thread::spawn(move || {
        let auto = AutopilotOpts::default();
        let replan = replan.as_ref().map(|(costs, topo)| (costs, topo, &auto));
        train_supervised(&model, &config, &train_set, &opts, replan, None)
            .map_err(|e| e.to_string())
    });
    let mut profiler = LiveProfiler::new(session.clone());
    let period = std::time::Duration::from_millis(a.refresh_ms.max(10));
    while !trainer.is_finished() {
        std::thread::sleep(period);
        let live = profiler.sample();
        let snap = session.snapshot();
        let mut frame = render_live_dashboard(&live, &snap, 2.0, 100);
        let _ = write!(
            frame,
            "\n{}",
            schedule_status_line(session.metrics(), a.stages)
        );
        if a.auto_replan {
            let _ = write!(frame, "\n{}", autopilot_status_line(session.metrics()));
        }
        // ANSI clear + home, then the current frame.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    let (_, report) = trainer.join().expect("training thread panicked")?;
    let live = profiler.sample();
    let snap = session.snapshot();
    let mut out = render_live_dashboard(&live, &snap, 2.0, 100);
    let _ = writeln!(
        out,
        "\n{}",
        schedule_status_line(session.metrics(), a.stages)
    );
    if a.auto_replan {
        let _ = writeln!(out, "\n{}", autopilot_status_line(session.metrics()));
        for rec in report.reconfigs() {
            let _ = writeln!(
                out,
                "autopilot: replanned {} -> {} at {}: downtime {:.0} ms, verdict {}",
                rec.old_label,
                rec.new_label,
                epoch_and_minibatch(rec.drained_at, mbs_per_epoch),
                rec.downtime_ms,
                rec.verdict,
            );
        }
    }
    let _ = writeln!(
        out,
        "\ndone: {} epoch(s) in {:.2}s, final loss {:.4}",
        a.epochs,
        report.wall_time_s,
        report.per_epoch.last().map(|e| e.loss).unwrap_or(f32::NAN)
    );
    Ok(out)
}

fn load_trace_report(
    path: &str,
) -> Result<(pipedream_obs::TraceSnapshot, CriticalPathReport), String> {
    let json = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snap = parse_chrome_trace(&json).map_err(|e| format!("{path}: {e}"))?;
    let report = analyze_trace(&snap);
    Ok((snap, report))
}

/// `pipedream analyze`: offline critical-path analysis of a recorded
/// Chrome trace (`train --trace` or `simulate --trace`). Ranks stages by
/// critical-path share, attributes every non-compute nanosecond to a
/// typed bubble cause, optionally predicts the end-to-end gain of
/// speeding one stage up, and optionally diffs the measured critical
/// path against a simulated trace's, stage by stage.
pub fn analyze(a: AnalyzeArgs) -> Result<String, String> {
    let (snap, report) = load_trace_report(&a.trace)?;
    let prediction = a.what_if.map(|(stage, frac)| what_if(&report, stage, frac));
    let sim = a
        .sim
        .as_deref()
        .map(load_trace_report)
        .transpose()?
        .map(|(_, r)| r);

    if a.json {
        let mut doc = serde_json::Map::new();
        doc.insert(
            "report".into(),
            serde_json::to_value(&report).map_err(|e| e.to_string())?,
        );
        if let Some(w) = &prediction {
            doc.insert(
                "what_if".into(),
                serde_json::to_value(w).map_err(|e| e.to_string())?,
            );
        }
        if let Some(s) = &sim {
            doc.insert(
                "sim_report".into(),
                serde_json::to_value(s).map_err(|e| e.to_string())?,
            );
        }
        return serde_json::to_string_pretty(&serde_json::Value::Object(doc))
            .map_err(|e| e.to_string());
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: wall {:.2} ms, {} minibatch(es) ({:.3} ms/minibatch), {} track(s) over {} stage(s)",
        a.trace,
        report.wall_s * 1e3,
        report.minibatches,
        report.per_minibatch_s * 1e3,
        snap.tracks.len(),
        report.per_stage.len(),
    );

    let _ = writeln!(out, "\nranked by critical-path share:");
    let wall = report.wall_s.max(f64::MIN_POSITIVE);
    for (i, c) in report.ranked().into_iter().take(a.top).enumerate() {
        let bubble = c
            .breakdown
            .top_bubble()
            .map(|(cause, s)| format!("  top bubble: {} {:.2} ms", cause.name(), s * 1e3))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  #{} stage {}  {:>9.2} ms on the critical path ({:>5.1}% of wall){}",
            i + 1,
            c.stage,
            c.seconds * 1e3,
            c.seconds / wall * 100.0,
            bubble
        );
    }

    let _ = writeln!(out, "\nper-stage attribution (causes sum to wall):");
    for s in &report.per_stage {
        let causes: Vec<String> = BubbleCause::ALL
            .iter()
            .filter_map(|&cause| {
                let v = s.breakdown.get(cause);
                (v > 0.0).then(|| format!("{} {:.2}", cause.name(), v * 1e3))
            })
            .collect();
        let _ = writeln!(
            out,
            "  stage {}: {}  [service {:.3} ms/mb over {} track(s)]",
            s.stage,
            causes.join(" | "),
            s.service_per_mb_s * 1e3,
            s.tracks
        );
    }

    if let Some(w) = &prediction {
        let _ = writeln!(
            out,
            "\nwhat-if: speed stage {} up by {:.0}% -> {:.3} ms/minibatch becomes {:.3} \
             (predicted gain {:.1}%)",
            w.stage,
            w.speedup_frac * 100.0,
            w.baseline_per_mb_s * 1e3,
            w.predicted_per_mb_s * 1e3,
            w.predicted_gain_frac * 100.0,
        );
    }

    if let Some(sim) = &sim {
        let _ = writeln!(
            out,
            "\nsim diff vs {} (sim wall {:.2} ms, measured {:.2} ms):",
            a.sim.as_deref().unwrap_or(""),
            sim.wall_s * 1e3,
            report.wall_s * 1e3,
        );
        let _ = writeln!(
            out,
            "  {:<6} {:>15} {:>15} {:>10}",
            "stage", "measured-cp ms", "sim-cp ms", "delta ms"
        );
        let cp_of = |r: &CriticalPathReport, stage: usize| {
            r.critical_path
                .iter()
                .find(|c| c.stage == stage)
                .map(|c| c.seconds)
                .unwrap_or(0.0)
        };
        let stages = report.per_stage.len().max(sim.per_stage.len());
        for stage in 0..stages {
            let m = cp_of(&report, stage);
            let s = cp_of(sim, stage);
            let _ = writeln!(
                out,
                "  {:<6} {:>15.2} {:>15.2} {:>+10.2}",
                stage,
                m * 1e3,
                s * 1e3,
                (m - s) * 1e3
            );
        }
    }

    Ok(out)
}

/// `pipedream serve`: run the planning daemon until `--for-secs` elapses
/// (0 = forever). Prints the bound address up front so scripts can scrape
/// it; the returned summary reports traffic and cache behaviour.
pub fn serve(a: ServeArgs) -> Result<String, String> {
    use pipedream_obs::MetricsRegistry;
    use pipedream_serve::{ServeOptions, Server};

    let metrics = Arc::new(MetricsRegistry::new());
    let server = Server::start(
        ServeOptions {
            addr: a.addr.clone(),
            threads: a.threads,
            queue: a.queue,
            cache_capacity: a.cache,
            cache_shards: a.shards,
            default_deadline_ms: a.deadline_ms,
            idle_timeout_ms: 0,
        },
        Arc::clone(&metrics),
    )
    .map_err(|e| format!("binding {}: {e}", a.addr))?;
    println!(
        "pipedream serve listening on http://{} ({} workers, queue {}, cache {}x{} shards)",
        server.addr(),
        a.threads,
        a.queue,
        a.cache,
        a.shards
    );
    println!("endpoints: POST /plan /simulate /validate · GET /metrics /healthz");

    let started = std::time::Instant::now();
    if a.for_secs == 0 {
        loop {
            std::thread::park(); // serve until killed; a wake-up is spurious
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(a.for_secs));
    let stats = server.state().cache.stats();
    server.shutdown();
    Ok(format!(
        "served {:.0} s: cache {} hits / {} misses / {} evictions / {} coalesced",
        started.elapsed().as_secs_f64(),
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.coalesced
    ))
}

/// `pipedream export`: write a zoo model profile and/or a preset topology
/// as JSON — the same format `--model @file.json` / `--topology @file.json`
/// accept, so users can start from a preset and edit.
pub fn export(a: ExportArgs) -> Result<String, String> {
    let mut doc = serde_json::Map::new();
    if let Some(model) = &a.model {
        let profile = load_model(model)?;
        doc.insert(
            "model_profile".into(),
            serde_json::to_value(&profile).map_err(|e| e.to_string())?,
        );
    }
    if let Some(cluster) = a.cluster {
        let topo = load_topology(&Target {
            model: String::new(),
            cluster,
            servers: a.servers,
            topology: None,
        })?;
        doc.insert(
            "topology".into(),
            serde_json::to_value(&topo).map_err(|e| e.to_string())?,
        );
    }
    // A single-section export unwraps to the bare object so the file can be
    // fed straight back via @file.json.
    let value = if doc.len() == 1 {
        doc.into_iter().next().unwrap().1
    } else {
        serde_json::Value::Object(doc)
    };
    let json = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    match &a.out {
        Some(path) => {
            fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!("wrote {path}\n"))
        }
        None => Ok(json),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Target;

    fn target(model: &str) -> Target {
        Target {
            model: model.into(),
            cluster: 'A',
            servers: 1,
            topology: None,
        }
    }

    #[test]
    fn plan_vgg_renders() {
        let out = plan(PlanArgs {
            target: Target {
                servers: 4,
                ..target("vgg16")
            },
            batch: None,
            flat: true,
            memory_limit_gb: None,
            schedule: ScheduleKind::Vanilla1F1B,
            json: false,
        })
        .unwrap();
        assert!(out.contains("configuration: 15-1"), "{out}");
        assert!(out.contains("stage 0"));
    }

    #[test]
    fn plan_json_is_valid() {
        let out = plan(PlanArgs {
            target: target("resnet50"),
            batch: Some(32),
            flat: false,
            memory_limit_gb: Some(16.0),
            schedule: ScheduleKind::Vanilla1F1B,
            json: true,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v.get("config").is_some());
    }

    #[test]
    fn simulate_auto_config() {
        let out = simulate(SimulateArgs {
            target: target("gnmt8"),
            config: "auto".into(),
            minibatches: 24,
            timeline: true,
            json: false,
            trace: None,
        })
        .unwrap();
        assert!(out.contains("throughput"));
        assert!(out.contains("worker"), "timeline rendered: {out}");
    }

    #[test]
    fn simulate_dash_config_validates_worker_count() {
        let err = simulate(SimulateArgs {
            target: target("vgg16"),
            config: "9-1".into(), // 10 workers on a 4-GPU cluster
            minibatches: 8,
            timeline: false,
            json: false,
            trace: None,
        })
        .unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }

    #[test]
    fn dp_reports_stall() {
        let out = dp(DpArgs {
            target: target("awd-lm"),
            gpus: None,
            fp16: false,
            json: false,
        })
        .unwrap();
        assert!(out.contains("stall"));
    }

    #[test]
    fn train_runs_and_learns() {
        let out = train(TrainArgs {
            stages: 3,
            epochs: 6,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: None,
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: false,
        })
        .unwrap();
        assert!(out.contains("held-out accuracy"));
        assert!(!out.contains("injected fault"));
    }

    #[test]
    fn train_with_fault_recovers() {
        let dir = std::env::temp_dir().join(format!("pd-cli-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = train(TrainArgs {
            stages: 3,
            epochs: 3,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: Some("kill:stage=1,mb=20".into()),
            checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
            checkpoint_every: None,
            report: None,
            trace: None,
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: false,
        })
        .unwrap();
        assert!(out.contains("injected fault `kill:stage=1,mb=20`"), "{out}");
        assert!(out.contains("held-out accuracy"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_trace_metrics_timeline_outputs() {
        let dir = std::env::temp_dir().join(format!("pd-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-trace.json");
        let out = train(TrainArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: Some(path.to_string_lossy().into_owned()),
            metrics: true,
            timeline: true,
            watch: false,
            auto_replan: false,
        })
        .unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        assert!(out.contains("minibatches_total"), "{out}");
        assert!(out.contains("worker  0 |"), "timeline rendered: {out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap().clone();
        assert!(!events.is_empty());
        // One metadata record per worker track.
        let names: Vec<String> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert!(names.contains(&"stage0.replica0".to_string()), "{names:?}");
        assert!(names.contains(&"stage1.replica0".to_string()), "{names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn train_rejects_bad_fault_spec() {
        let err = train(TrainArgs {
            stages: 3,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: Some("explode:stage=1".into()),
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: None,
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: false,
        })
        .unwrap_err();
        assert!(err.contains("--fault"), "{err}");
    }

    #[test]
    fn inspect_prints_layer_table() {
        let out = inspect(InspectArgs {
            model: Some("vgg16".into()),
            batch: None,
            from_trace: None,
        })
        .unwrap();
        assert!(out.contains("conv1_1"));
        assert!(out.contains("fc8"));
        assert!(out.contains("TOTAL"));
        assert!(out.contains("138.4 M params"));
    }

    #[test]
    fn train_watch_appends_final_status_line() {
        let out = train(TrainArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: None,
            metrics: false,
            timeline: false,
            watch: true,
            auto_replan: false,
        })
        .unwrap();
        assert!(out.contains("live: ["), "{out}");
        assert!(out.contains("mb/s"), "{out}");
        assert!(out.contains("held-out accuracy"), "{out}");
    }

    #[test]
    fn train_auto_replan_completes_and_reports() {
        let dir = std::env::temp_dir().join(format!("pd-cli-auto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = train(TrainArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: None,
            checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
            checkpoint_every: None,
            report: None,
            trace: None,
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: true,
        })
        .unwrap();
        // Whether or not the tiny demo run drifts, the autopilot reports
        // its outcome and the run trains to completion.
        assert!(out.contains("autopilot:"), "{out}");
        assert!(out.contains("held-out accuracy"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_auto_replan_recovers_from_a_kill() {
        let dir = std::env::temp_dir().join(format!("pd-cli-auto-kill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = train(TrainArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: Some("kill:stage=1,mb=5".into()),
            checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
            checkpoint_every: Some(4),
            report: None,
            trace: None,
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: true,
        })
        .unwrap();
        assert!(out.contains("injected fault `kill:stage=1,mb=5`"), "{out}");
        assert!(out.contains("held-out accuracy"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_from_trace_replays_measured_stages() {
        // Record a real run, then replay the written Chrome trace offline.
        let dir = std::env::temp_dir().join(format!("pd-cli-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watch-trace.json");
        train(TrainArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: Some(path.to_string_lossy().into_owned()),
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: false,
        })
        .unwrap();
        let out = inspect(InspectArgs {
            model: None,
            batch: None,
            from_trace: Some(path.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(out.contains("measured from"), "{out}");
        assert!(out.contains("busy%"), "{out}");
        // Both stages of the recorded 2-stage run appear in the table.
        assert!(out.lines().any(|l| l.starts_with("0 ")), "{out}");
        assert!(out.lines().any(|l| l.starts_with("1 ")), "{out}");
        // With a model too, the profiled table precedes the measured one.
        let both = inspect(InspectArgs {
            model: Some("alexnet".into()),
            batch: None,
            from_trace: Some(path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let profiled = both.find("TOTAL").unwrap();
        let measured = both.find("measured from").unwrap();
        assert!(profiled < measured, "{both}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_from_trace_missing_file_is_friendly() {
        let err = inspect(InspectArgs {
            model: None,
            batch: None,
            from_trace: Some("/nonexistent/trace.json".into()),
        })
        .unwrap_err();
        assert!(err.contains("--from-trace"), "{err}");
    }

    #[test]
    fn top_renders_dashboard_and_finishes() {
        let out = top(TopArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            seed: 3,
            refresh_ms: 50,
            auto_replan: false,
        })
        .unwrap();
        assert!(out.contains("ewma/mb"), "{out}");
        assert!(out.contains("bubble%"), "{out}");
        // PR 8 memory-schedule gauges surface on every frame.
        assert!(out.contains("schedule=vanilla"), "{out}");
        assert!(out.contains("versions_held_max="), "{out}");
        assert!(out.contains("recompute="), "{out}");
        assert!(out.contains("done: 2 epoch(s)"), "{out}");
        assert!(!out.contains("autopilot:"), "{out}");
    }

    #[test]
    fn top_auto_replan_surfaces_control_plane_status() {
        let out = top(TopArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            seed: 3,
            refresh_ms: 50,
            auto_replan: true,
        })
        .unwrap();
        // Whether or not the tiny demo run drifts, the final frame must
        // carry the autopilot status line with a valid ladder state.
        assert!(out.contains("autopilot: state="), "{out}");
        assert!(out.contains("reconfigs="), "{out}");
        assert!(!out.contains("state=unknown"), "{out}");
        assert!(out.contains("done: 2 epoch(s)"), "{out}");
    }

    #[test]
    fn simulate_trace_feeds_analyze() {
        let dir = std::env::temp_dir().join(format!("pd-cli-simtrace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.json");
        let out = simulate(SimulateArgs {
            target: Target {
                servers: 1,
                ..target("alexnet")
            },
            config: "straight".into(),
            minibatches: 16,
            timeline: false,
            json: false,
            trace: Some(path.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(out.contains("wrote simulated Chrome trace"), "{out}");
        let report = analyze(AnalyzeArgs {
            trace: path.to_string_lossy().into_owned(),
            top: 8,
            what_if: None,
            sim: None,
            json: false,
        })
        .unwrap();
        assert!(report.contains("ranked by critical-path share"), "{report}");
        assert!(report.contains("#1 stage "), "{report}");
        assert!(report.contains("16 minibatch(es)"), "{report}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyze_measured_trace_with_what_if_and_sim_diff() {
        let dir = std::env::temp_dir().join(format!("pd-cli-analyze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let measured = dir.join("run.json");
        train(TrainArgs {
            stages: 2,
            epochs: 2,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: Some(measured.to_string_lossy().into_owned()),
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: false,
        })
        .unwrap();
        let sim_path = dir.join("sim.json");
        simulate(SimulateArgs {
            target: Target {
                servers: 1,
                ..target("alexnet")
            },
            config: "straight".into(),
            minibatches: 16,
            timeline: false,
            json: false,
            trace: Some(sim_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let out = analyze(AnalyzeArgs {
            trace: measured.to_string_lossy().into_owned(),
            top: 8,
            what_if: Some((0, 0.5)),
            sim: Some(sim_path.to_string_lossy().into_owned()),
            json: false,
        })
        .unwrap();
        assert!(out.contains("per-stage attribution"), "{out}");
        assert!(out.contains("what-if: speed stage 0 up by 50%"), "{out}");
        assert!(out.contains("sim diff vs"), "{out}");
        assert!(out.contains("measured-cp ms"), "{out}");
        // JSON mode round-trips through serde.
        let json = analyze(AnalyzeArgs {
            trace: measured.to_string_lossy().into_owned(),
            top: 8,
            what_if: Some((0, 0.5)),
            sim: None,
            json: true,
        })
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v.get("report").is_some());
        assert!(v.get("what_if").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn train_straggle_fault_traces_and_tops_analyze() {
        let dir = std::env::temp_dir().join(format!("pd-cli-straggle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("straggle.json");
        let out = train(TrainArgs {
            stages: 3,
            epochs: 3,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: Some("straggle:stage=1,ms=3".into()),
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: Some(path.to_string_lossy().into_owned()),
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: false,
        })
        .unwrap();
        assert!(
            out.contains("injected persistent straggler on stage 1"),
            "{out}"
        );
        let report = analyze(AnalyzeArgs {
            trace: path.to_string_lossy().into_owned(),
            top: 3,
            what_if: Some((1, 0.3)),
            sim: None,
            json: false,
        })
        .unwrap();
        assert!(report.contains("#1 stage 1"), "{report}");
        assert!(report.contains("wait_upstream"), "{report}");
        assert!(
            report.contains("what-if: speed stage 1 up by 30%"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
        // Malformed specs are rejected up front.
        assert!(train(TrainArgs {
            stages: 2,
            epochs: 1,
            batch: 16,
            lr: 0.05,
            semantics: "stashed".into(),
            schedule: ScheduleKind::Vanilla1F1B,
            seed: 3,
            fault: Some("straggle:stage=1".into()),
            checkpoint_dir: None,
            checkpoint_every: None,
            report: None,
            trace: None,
            metrics: false,
            timeline: false,
            watch: false,
            auto_replan: false,
        })
        .unwrap_err()
        .contains("--fault"));
    }

    #[test]
    fn analyze_missing_file_is_friendly() {
        let err = analyze(AnalyzeArgs {
            trace: "/nonexistent/trace.json".into(),
            top: 8,
            what_if: None,
            sim: None,
            json: false,
        })
        .unwrap_err();
        assert!(err.contains("/nonexistent/trace.json"), "{err}");
    }

    #[test]
    fn export_model_round_trips_through_load() {
        let dir = std::env::temp_dir().join(format!("pd-cli-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gnmt8.json");
        export(ExportArgs {
            model: Some("gnmt8".into()),
            cluster: None,
            servers: 1,
            out: Some(path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let loaded = load_model(&format!("@{}", path.display())).unwrap();
        assert_eq!(loaded, zoo::gnmt8());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_topology_json_is_valid() {
        let out = export(ExportArgs {
            model: None,
            cluster: Some('B'),
            servers: 2,
            out: None,
        })
        .unwrap();
        let topo: pipedream_hw::Topology = serde_json::from_str(&out).unwrap();
        assert_eq!(topo.total_workers(), 16);
    }

    #[test]
    fn unknown_model_is_friendly() {
        let err = plan(PlanArgs {
            target: target("nope"),
            batch: None,
            flat: false,
            memory_limit_gb: None,
            schedule: ScheduleKind::Vanilla1F1B,
            json: false,
        })
        .unwrap_err();
        assert!(err.contains("unknown model"));
    }
}
