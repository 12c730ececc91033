//! The eight workloads. Each builds its inputs from the seed, repeats one
//! fixed unit of work, and checks what the crates gave back.

use crate::span::Tracer;
use pipedream_hw::{ClusterPreset, Precision};
use pipedream_model::zoo;
use pipedream_obs::{SpanKind, TraceSession};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

mod obs;
mod plan;
mod serve;
mod sim;
mod train;

/// What one repetition of a workload's unit of work produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Work items completed (samples, planner calls, simulator events,
    /// requests, spans) and the seconds the crate calls doing them took.
    pub work: f64,
    pub secs: f64,
    /// Latency of each of the workload's operations, µs.
    pub ops_us: Vec<f64>,
    /// Latency of each operation of the workload's slow class, µs.
    pub slow_us: Vec<f64>,
    pub attempted: u64,
    /// One message per operation that failed a check or returned an
    /// unexpected error.
    pub failures: Vec<String>,
    /// Counts, checksums and loss bits that every repetition (and a second
    /// run of the same seed) must reproduce exactly.
    pub exact: Vec<(&'static str, u64)>,
    /// How much slower than the reference speed the host ran meanwhile
    /// (see `calib`): filled in by the harness from its readings before
    /// and after, unless the workload measured its own.
    pub slowdown: Option<f64>,
}

impl Rep {
    pub fn slowdown(&self) -> f64 {
        self.slowdown
            .expect("the harness fills in what the workload left open")
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Per-layer metric values by name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// One repetition. With the tracer on, the workload also records what
    /// its per-layer metrics need.
    fn rep(&mut self, t: &mut Tracer) -> Rep;

    /// Per-layer metrics of this workload, from its traced repetitions
    /// plus direct probes of single functions. Called once, after them.
    fn layer_metrics(&mut self, t: &mut Tracer, out: &mut LayerMetrics);

    /// Stop whatever set-up started.
    fn teardown(self: Box<Self>) {}
}

/// Build the named workload's inputs from `seed` (and start its server).
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "train-compute" => Box::new(train::Train::new(&train::COMPUTE, seed)),
        "train-overhead" => Box::new(train::Train::new(&train::OVERHEAD, seed)),
        "train-variants" => Box::new(train::Train::new(&train::VARIANTS, seed)),
        "plan-scale" => Box::new(plan::PlanScale::new(seed)),
        "sim-deep" => Box::new(sim::SimDeep::new(seed)),
        "sim-plans" => Box::new(sim::SimPlans::new(seed)),
        "serve-mixed" => Box::new(serve::ServeMixed::new(seed)),
        "obs-analyze" => Box::new(obs::ObsAnalyze::new(seed)),
        _ => return None,
    })
}

/// Low 32 bits of a checksum: exactly representable as a JSON number.
pub fn fold32(x: u64) -> u64 {
    (x ^ (x >> 32)) & 0xFFFF_FFFF
}

/// Median time of `iters` calls of `f`, seconds, after one warm-up call.
pub fn time_median(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// `model.costs_us` and `hw.cluster_build_us`: what every planner or
/// simulator caller pays before its first call, on VGG-16 and 8 × 8 (B).
pub fn probe_model_and_hw(t: &mut Tracer, out: &mut LayerMetrics) {
    let vgg = zoo::vgg16();
    let topo = ClusterPreset::B.with_servers(8);
    let costs_s = t.span("model", "ModelProfile::costs", |_| {
        time_median(200, || {
            black_box(vgg.costs(&topo.device, vgg.default_batch, Precision::Fp32));
        })
    });
    out.insert("model.costs_us", costs_s * 1e6);
    let cluster_s = t.span("hw", "ClusterPreset::with_servers", |_| {
        time_median(200, || {
            black_box(ClusterPreset::B.with_servers(8));
        })
    });
    out.insert("hw.cluster_build_us", cluster_s * 1e6);
}

/// `obs.record_span_ns`: one begin/end pair into a worker's ring.
pub fn probe_record_span(t: &mut Tracer, out: &mut LayerMetrics) {
    let session = TraceSession::new();
    let rec = session.stage_recorder("stage0.replica0", 0);
    let n = 200_000u64;
    let record_s = t.span("obs", "Recorder::begin+end", |_| {
        let t0 = Instant::now();
        for mb in 0..n {
            let s = rec.begin();
            rec.end(s, SpanKind::Fwd { mb });
        }
        t0.elapsed().as_secs_f64()
    });
    out.insert("obs.record_span_ns", record_s * 1e9 / n as f64);
}
