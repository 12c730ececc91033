//! `train-compute`, `train-overhead`, `train-variants`: the real threaded
//! trainer on a 9-layer MLP, sized so that GEMM, the runtime's per-minibatch
//! bookkeeping, or the replicated / 2BW / recompute paths carry the cost.

use super::{probe_record_span, time_median, LayerMetrics, Rep, Workload};
use crate::affinity::Pinned;
use crate::span::{Tracer, HARNESS};
use crate::stats::median;
use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, Planner, ScheduleKind};
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::profile_sequential;
use pipedream_obs::{analyze_trace, stage_times, BubbleCause, TraceSession};
use pipedream_runtime::sync::GradSyncGroup;
use pipedream_runtime::{
    train_pipeline, train_sequential, OptimKind, Semantics, TrainOpts, TrainReport,
};
use pipedream_sim::simulate_pipeline;
use pipedream_tensor::data::{blobs, Dataset};
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Relu};
use pipedream_tensor::{pool, softmax_cross_entropy, Layer, Sequential, Tensor};
use std::hint::black_box;
use std::time::Instant;

const LAYERS: usize = 9;
const CLASSES: usize = 10;
/// Layers `0..=3` form stage 0, `4..=8` stage 1.
const BOUNDARY: usize = 3;

pub struct TrainSpec {
    input: usize,
    hidden: usize,
    batch: usize,
    samples: usize,
    epochs: usize,
    /// One stage on two replicas (1F1B-RR + gradient sync) instead of two
    /// stages on one worker each.
    replicated: bool,
    kind: ScheduleKind,
    /// Keep both workers on one CPU (see `affinity`). Where a minibatch is
    /// mostly the two threads waking each other, its time across this
    /// guest's vCPUs is the hypervisor's wake-up (58 µs a minibatch against
    /// 34 µs on one CPU for `train-overhead`) and spreads 14 to 19 %
    /// between runs; on one CPU, 7 to 8 %.
    one_cpu: bool,
    /// The final epoch's loss must come in under this for every seed.
    loss_max: f32,
}

pub static COMPUTE: TrainSpec = TrainSpec {
    input: 256,
    hidden: 512,
    batch: 64,
    samples: 8192,
    epochs: 1,
    replicated: false,
    kind: ScheduleKind::Vanilla1F1B,
    // GEMM-bound: the two stages do run side by side.
    one_cpu: false,
    // ln 10 = 2.30 is chance; one epoch reaches 1.27 to 1.39.
    loss_max: 1.8,
};

pub static OVERHEAD: TrainSpec = TrainSpec {
    input: 16,
    hidden: 32,
    batch: 8,
    samples: 65_536,
    epochs: 1,
    replicated: false,
    kind: ScheduleKind::Vanilla1F1B,
    one_cpu: true,
    loss_max: 0.2,
};

pub static VARIANTS: TrainSpec = TrainSpec {
    input: 64,
    hidden: 128,
    batch: 32,
    samples: 16_384,
    epochs: 1,
    replicated: true,
    kind: ScheduleKind::TwoBWRecompute,
    one_cpu: true,
    // One epoch reaches 0.66 to 0.85.
    loss_max: 1.2,
};

fn mlp(spec: &TrainSpec, seed: u64) -> Sequential {
    let mut r = rng(seed);
    let mut m = Sequential::new("mlp9").push(Linear::new(spec.input, spec.hidden, &mut r));
    for _ in 0..3 {
        m = m
            .push(Relu::new())
            .push(Linear::new(spec.hidden, spec.hidden, &mut r));
    }
    m.push(Relu::new())
        .push(Linear::new(spec.hidden, CLASSES, &mut r))
}

/// What one traced `train_pipeline` call showed.
struct TracedRun {
    traced_sps: f64,
    untraced_sps: f64,
    snapshot_ms: f64,
    stage_times_ms: f64,
    critical_path_ms: f64,
    spans: u64,
    dropped: u64,
    busy: Vec<f64>,
    comm_frac: f64,
    bubble_frac: f64,
    /// µs per minibatch by bubble cause, summed over stages.
    cause_us_per_mb: Vec<(BubbleCause, f64)>,
    pool_hits: u64,
    pool_misses: u64,
    recompute_us_per_mb: f64,
}

pub struct Train {
    _pinned: Option<Pinned>,
    spec: &'static TrainSpec,
    seed: u64,
    data: Dataset,
    config: PipelineConfig,
    opts: TrainOpts,
    minibatches: u64,
    traced: Vec<TracedRun>,
    last_report: Option<TrainReport>,
    last_snapshot: Option<pipedream_obs::TraceSnapshot>,
}

impl Train {
    pub fn new(spec: &'static TrainSpec, seed: u64) -> Train {
        let data = blobs(spec.samples, spec.input, CLASSES, 0.6, seed);
        let config = if spec.replicated {
            PipelineConfig::data_parallel(LAYERS, 2)
        } else {
            PipelineConfig::straight(LAYERS, &[BOUNDARY])
        };
        let opts = TrainOpts {
            epochs: spec.epochs,
            batch: spec.batch,
            optim: OptimKind::Sgd {
                lr: 0.05,
                momentum: 0.0,
            },
            semantics: Semantics::Stashed,
            schedule: spec.kind,
            ..TrainOpts::default()
        };
        let pinned = spec.one_cpu.then(Pinned::to_one_cpu).flatten();
        if spec.one_cpu && pinned.is_none() {
            eprintln!("train: cannot pin to one CPU; times will include cross-CPU wake-ups");
        }
        Train {
            _pinned: pinned,
            minibatches: (spec.epochs * data.num_minibatches(spec.batch)) as u64,
            spec,
            seed,
            data,
            config,
            opts,
            traced: Vec::new(),
            last_report: None,
            last_snapshot: None,
        }
    }

    fn samples(&self) -> f64 {
        (self.spec.epochs * self.spec.samples) as f64
    }

    fn check_report(&self, report: &TrainReport, rep: &mut Rep) {
        let finite = report.per_minibatch.iter().all(|(_, l)| l.is_finite())
            && report.per_epoch.iter().all(|e| e.loss.is_finite());
        rep.check(finite, || "a loss is not finite".into());
        rep.check(
            report.per_minibatch.len() as u64 == self.minibatches,
            || {
                format!(
                    "{} minibatch losses for {} minibatches",
                    report.per_minibatch.len(),
                    self.minibatches
                )
            },
        );
        rep.check(report.final_loss() < self.spec.loss_max, || {
            format!(
                "final loss {} not under {}",
                report.final_loss(),
                self.spec.loss_max
            )
        });
        for o in &report.stage_obs {
            if self.spec.kind.uses_two_bw() {
                rep.check(o.versions_held_max <= 2, || {
                    format!(
                        "stage {} held {} weight versions under 2BW",
                        o.stage, o.versions_held_max
                    )
                });
            }
            rep.check(o.stash_depth_max <= self.config.noam(), || {
                format!(
                    "stage {} stash depth {} over NOAM {}",
                    o.stage,
                    o.stash_depth_max,
                    self.config.noam()
                )
            });
        }
    }

    /// The same call with an obs session attached, folded the way `top`
    /// and `analyze` fold it.
    fn traced_call(&mut self, t: &mut Tracer, untraced_sps: f64, rep: &mut Rep) {
        let model = t.span(HARNESS, "build_model", |_| mlp(self.spec, self.seed));
        // Room for every span of the run, so none is dropped.
        let session = TraceSession::with_capacity(self.minibatches as usize * 16);
        let opts = TrainOpts {
            obs: Some(session.clone()),
            ..self.opts.clone()
        };
        let pool_before = pool::global_stats();
        let t0 = Instant::now();
        let (_, report) = t.span("runtime", "train_pipeline+obs", |_| {
            train_pipeline(model, &self.config, &self.data, &opts)
        });
        let secs = t0.elapsed().as_secs_f64();
        let pool_after = pool::global_stats();
        self.check_report(&report, rep);

        let t0 = Instant::now();
        let snap = t.span("obs", "TraceSession::snapshot", |_| session.snapshot());
        let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let stages = t.span("obs", "stage_times", |_| stage_times(&snap));
        let stage_times_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let cp = t.span("obs", "analyze_trace", |_| analyze_trace(&snap));
        let critical_path_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mbs = self.minibatches as f64;
        let n = stages.len().max(1) as f64;
        self.traced.push(TracedRun {
            traced_sps: self.samples() / secs,
            untraced_sps,
            snapshot_ms,
            stage_times_ms,
            critical_path_ms,
            spans: snap.tracks.iter().map(|t| t.events.len() as u64).sum(),
            dropped: snap.tracks.iter().map(|t| t.dropped).sum(),
            busy: stages.iter().map(|s| s.busy_frac).collect(),
            comm_frac: stages.iter().map(|s| s.comm_frac).sum::<f64>() / n,
            bubble_frac: stages.iter().map(|s| s.bubble_frac).sum::<f64>() / n,
            cause_us_per_mb: BubbleCause::ALL
                .iter()
                .map(|&c| {
                    (
                        c,
                        cp.per_stage.iter().map(|s| s.breakdown.get(c)).sum::<f64>() * 1e6 / mbs,
                    )
                })
                .collect(),
            pool_hits: pool_after.hits - pool_before.hits,
            pool_misses: pool_after.misses - pool_before.misses,
            recompute_us_per_mb: report.stage_obs.iter().map(|o| o.recompute_us).sum::<u64>()
                as f64
                / mbs,
        });
        self.last_snapshot = Some(snap);
    }

    /// Forward, backward and optimizer step of each stage on one thread:
    /// (fwd, bwd, step) seconds per minibatch, by stage.
    fn stage_compute(&self) -> Vec<(f64, f64, f64)> {
        let cuts: &[usize] = if self.spec.replicated {
            &[]
        } else {
            &[BOUNDARY + 1]
        };
        let mut stages = mlp(self.spec, self.seed).split_off(cuts);
        let mut optims: Vec<_> = stages.iter().map(|_| self.opts.optim.build()).collect();
        let iters = 40;
        let mut times = vec![(Vec::new(), Vec::new(), Vec::new()); stages.len()];
        for i in 0..iters + 2 {
            let (x, y) = self.data.minibatch(
                i % self.data.num_minibatches(self.spec.batch),
                self.spec.batch,
            );
            let slot = i as u64;
            let mut acts = vec![x];
            for (s, stage) in stages.iter_mut().enumerate() {
                let t0 = Instant::now();
                let out = stage.forward(&acts[s], slot);
                times[s].0.push(t0.elapsed().as_secs_f64());
                acts.push(out);
            }
            let mut grad = softmax_cross_entropy(&acts[stages.len()], &y).grad;
            for (s, stage) in stages.iter_mut().enumerate().rev() {
                stage.zero_grad();
                let t0 = Instant::now();
                grad = stage.backward(&grad, slot);
                times[s].1.push(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                optims[s].step(&mut stage.params_mut());
                times[s].2.push(t0.elapsed().as_secs_f64());
            }
        }
        // The first two iterations warm the buffer pool.
        times
            .iter()
            .map(|(f, b, o)| (median(&f[2..]), median(&b[2..]), median(&o[2..])))
            .collect()
    }

    /// Planner-predicted stage times and simulator-predicted throughput
    /// from a profile of this model on this machine, against the traced
    /// run: (worst stage error, simulated samples/s, throughput error,
    /// seconds `profile_sequential` took).
    fn predictions(&self, t: &mut Tracer) -> (f64, f64, f64, f64) {
        let workers = self.config.total_workers();
        // In-process channels: a near-free interconnect.
        let topo = Topology::flat(
            Device::v100(),
            workers,
            LinkModel::new(1e14, 0.0),
            "threads",
        );
        let mut model = mlp(self.spec, self.seed);
        let (input, _) = self.data.minibatch(0, self.spec.batch);
        let t0 = Instant::now();
        let profile = t.span("model", "profile_sequential", |_| {
            profile_sequential(&mut model, &input, 2, 10, &topo.device)
        });
        let profile_s = t0.elapsed().as_secs_f64();
        let costs = profile.costs(&topo.device, self.spec.batch, Precision::Fp32);
        let planner = Planner::from_costs(costs.clone(), &topo);
        let predicted: Vec<f64> = t.span("core", "Planner::predicted_stage_times", |_| {
            planner
                .predicted_stage_times(&self.config)
                .iter()
                .map(|p| p.compute_s)
                .collect()
        });
        let sim = t.span("sim", "simulate_pipeline", |_| {
            simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&self.config, 64))
        });
        let snap = self
            .last_snapshot
            .as_ref()
            .expect("a traced repetition ran");
        let v = t.span("obs", "validate", |_| {
            pipedream_obs::validate(snap, &predicted, sim.per_minibatch_s, self.spec.batch)
        });
        let worst = v
            .per_stage
            .iter()
            .map(|s| s.error_frac.abs())
            .fold(0.0, f64::max);
        (
            worst,
            v.simulated_samples_per_sec,
            v.throughput_error_frac,
            profile_s,
        )
    }
}

impl Workload for Train {
    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let model = t.span(HARNESS, "build_model", |_| mlp(self.spec, self.seed));
        let t0 = Instant::now();
        let (_, report) = t.span("runtime", "train_pipeline", |_| {
            train_pipeline(model, &self.config, &self.data, &self.opts)
        });
        rep.secs = t0.elapsed().as_secs_f64();
        rep.work = self.samples();
        rep.ops_us.push(rep.secs * 1e6 / self.minibatches as f64);
        rep.slow_us.push(rep.secs * 1e6);
        rep.attempted = self.minibatches;
        self.check_report(&report, &mut rep);
        rep.exact = vec![
            (
                "train.final_loss_bits",
                report.final_loss().to_bits() as u64,
            ),
            ("runtime.minibatches", report.per_minibatch.len() as u64),
        ];
        if t.is_on() {
            let untraced_sps = rep.work / rep.secs;
            self.traced_call(t, untraced_sps, &mut rep);
        }
        self.last_report = Some(report);
        rep
    }

    fn layer_metrics(&mut self, t: &mut Tracer, out: &mut LayerMetrics) {
        let spec = self.spec;
        let mbs = self.minibatches as f64;
        let col =
            |f: &dyn Fn(&TracedRun) -> f64| median(&self.traced.iter().map(f).collect::<Vec<_>>());
        let pipeline_sps = col(&|r| r.untraced_sps);

        // tensor: the GEMM at the workload's dominant shape, and the
        // bottleneck stage's compute on one thread.
        let (m, k) = (spec.batch, spec.hidden);
        let a = Tensor::full(&[m, k], 0.5);
        let b = Tensor::full(&[k, k], 0.25);
        let inner = (2e7 / (2.0 * (m * k * k) as f64)).ceil().max(1.0) as usize;
        let gemm_s = t.span("tensor", "Tensor::matmul", |_| {
            time_median(15, || {
                for _ in 0..inner {
                    black_box(a.matmul(&b)).recycle();
                }
            })
        });
        out.insert(
            "tensor.gemm_gflops",
            2.0 * (m * k * k * inner) as f64 / gemm_s / 1e9,
        );
        let stage_compute = t.span("tensor", "stage fwd+bwd+step", |_| self.stage_compute());
        let &(fwd, bwd, step) = stage_compute
            .iter()
            .max_by(|a, b| (a.0 + a.1 + a.2).total_cmp(&(b.0 + b.1 + b.2)))
            .expect("at least one stage");
        out.insert("tensor.stage_fwd_us", fwd * 1e6);
        out.insert("tensor.stage_bwd_us", bwd * 1e6);
        out.insert("tensor.optim_step_us", step * 1e6);
        let (hits, misses) = (col(&|r| r.pool_hits as f64), col(&|r| r.pool_misses as f64));
        out.insert("tensor.pool_hit_frac", hits / (hits + misses).max(1.0));
        out.insert("tensor.pool_miss_per_mb", misses / mbs);

        // runtime: against the single-worker baseline and the stage's own
        // compute.
        let seq_s = t.span("runtime", "train_sequential", |_| {
            time_median(2, || {
                black_box(train_sequential(
                    mlp(spec, self.seed),
                    &self.data,
                    &self.opts,
                ));
            })
        });
        let seq_sps = self.samples() / seq_s;
        out.insert("runtime.seq_samples_per_s", seq_sps);
        out.insert("runtime.pipeline_speedup", pipeline_sps / seq_sps);
        let wall_us_per_mb = self.samples() / pipeline_sps * 1e6 / mbs;
        // Two replicas take alternate minibatches, so each has two
        // minibatch times of wall-clock for its own compute.
        let share = if spec.replicated { 2.0 } else { 1.0 };
        out.insert("runtime.wall_us_per_mb", wall_us_per_mb);
        out.insert(
            "runtime.overhead_us_per_mb",
            wall_us_per_mb - (fwd + bwd + step) * 1e6 / share,
        );
        let tiny = blobs(spec.batch, spec.input, CLASSES, 0.6, self.seed);
        let startup_s = t.span("runtime", "train_pipeline(1 minibatch)", |_| {
            time_median(20, || {
                black_box(train_pipeline(
                    mlp(spec, self.seed),
                    &self.config,
                    &tiny,
                    &self.opts,
                ));
            })
        });
        out.insert("runtime.startup_ms", startup_s * 1e3);
        if spec.replicated {
            let shapes: Vec<Vec<usize>> = mlp(spec, self.seed)
                .params()
                .iter()
                .map(|p| p.value.shape().to_vec())
                .collect();
            let rounds = 200;
            let group = GradSyncGroup::new(2);
            let allreduce_s = t.span("runtime", "GradSyncGroup::allreduce", |_| {
                std::thread::scope(|scope| {
                    let worker = |replica: usize| {
                        let (group, shapes) = (&group, &shapes);
                        move || {
                            let mut times = Vec::with_capacity(rounds);
                            for _ in 0..rounds {
                                let grads = shapes.iter().map(|s| Tensor::full(s, 1.0)).collect();
                                let t0 = Instant::now();
                                let reduced = group
                                    .allreduce(replica, grads)
                                    .expect("both replicas arrive");
                                times.push(t0.elapsed().as_secs_f64());
                                reduced.into_iter().for_each(Tensor::recycle);
                            }
                            median(&times)
                        }
                    };
                    let other = scope.spawn(worker(1));
                    let mine = worker(0)();
                    other
                        .join()
                        .expect("allreduce thread does not panic")
                        .max(mine)
                })
            });
            out.insert("runtime.allreduce_us", allreduce_s * 1e6);
        }
        out.insert(
            "runtime.recompute_us_per_mb",
            col(&|r| r.recompute_us_per_mb),
        );
        out.insert("runtime.busy_frac.s0", col(&|r| r.busy[0]));
        out.insert(
            "runtime.busy_frac.s1",
            col(&|r| r.busy.get(1).copied().unwrap_or(0.0)),
        );
        out.insert("runtime.comm_frac", col(&|r| r.comm_frac));
        out.insert("runtime.bubble_frac", col(&|r| r.bubble_frac));
        for (cause, metric) in [
            (BubbleCause::WaitUpstream, "runtime.cause.wait_upstream"),
            (BubbleCause::Backpressure, "runtime.cause.backpressure"),
            (BubbleCause::GradSync, "runtime.cause.grad_sync"),
            (BubbleCause::Recompute, "runtime.cause.recompute"),
            (BubbleCause::TwoBwBarrier, "runtime.cause.2bw_barrier"),
            (BubbleCause::OptimizerStep, "runtime.cause.optimizer_step"),
            (BubbleCause::FillDrain, "runtime.cause.fill_drain"),
            (BubbleCause::Idle, "runtime.cause.idle"),
        ] {
            let us = col(&|r| {
                r.cause_us_per_mb
                    .iter()
                    .find(|(c, _)| *c == cause)
                    .map_or(0.0, |x| x.1)
            });
            out.insert(metric, us);
        }
        let report = self.last_report.as_ref().expect("a repetition ran");
        let worst = |f: &dyn Fn(&pipedream_runtime::StageObsRecord) -> u64| {
            report.stage_obs.iter().map(f).max().unwrap_or(0) as f64
        };
        out.insert("runtime.minibatches", mbs);
        out.insert("runtime.spans_per_mb", col(&|r| r.spans as f64) / mbs);
        out.insert(
            "runtime.versions_held_max",
            worst(&|o| o.versions_held_max as u64),
        );
        out.insert(
            "runtime.stash_depth_max",
            worst(&|o| o.stash_depth_max as u64),
        );
        out.insert("runtime.staleness_max", worst(&|o| o.staleness_max));
        out.insert(
            "runtime.activation_bytes_max",
            worst(&|o| o.activation_bytes_max),
        );
        out.insert("train.final_loss", report.final_loss() as f64);

        // obs: what recording and folding the run's own trace cost.
        out.insert("obs.snapshot_ms", col(&|r| r.snapshot_ms));
        out.insert("obs.stage_times_ms", col(&|r| r.stage_times_ms));
        out.insert("obs.critical_path_ms", col(&|r| r.critical_path_ms));
        out.insert("obs.trace_spans", col(&|r| r.spans as f64));
        out.insert("obs.dropped_spans", col(&|r| r.dropped as f64));
        out.insert(
            "obs.trace_overhead_frac",
            1.0 - col(&|r| r.traced_sps) / pipeline_sps,
        );
        probe_record_span(t, out);

        // Predictions for this config from a profile taken here: simulated
        // time, stated beside the host-time numbers above, never mixed in.
        let (stage_err, sim_sps, sim_err, profile_s) = self.predictions(t);
        out.insert("core.pred_stage_error_frac", stage_err);
        out.insert("sim.pred_samples_per_s", sim_sps);
        out.insert("sim.pred_error_frac", sim_err);
        out.insert("model.profile_sequential_ms", profile_s * 1e3);
    }
}
