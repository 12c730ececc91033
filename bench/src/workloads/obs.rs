//! `obs-analyze`: what `pipedream analyze t.json --what-if` does to a
//! trace file, end to end.

use super::{probe_record_span, time_median, LayerMetrics, Rep, Workload};
use crate::gen;
use crate::span::Tracer;
use crate::stats::median;
use pipedream_core::schedule::Schedule;
use pipedream_core::PipelineConfig;
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::zoo;
use pipedream_obs::{
    analyze_trace, parse_chrome_trace, render_chrome_trace, sim_to_snapshot, stage_times, what_if,
    LiveProfiler, SpanKind, TraceSession, TraceSnapshot,
};
use pipedream_sim::{PipelineSim, SimResult};
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Minibatches of the simulated 4-stage run the trace is made from: sized
/// so one pass finishes in well under a second with the quadratic parse.
const MINIBATCHES: u64 = 128;
const STAGES: usize = 4;

pub struct ObsAnalyze {
    sim: SimResult,
    config: PipelineConfig,
    snap: TraceSnapshot,
    spans: u64,
    trace_bytes: usize,
    /// Host milliseconds per step of the pass (traced repetitions only).
    steps_ms: BTreeMap<&'static str, Vec<f64>>,
}

fn same_snapshot(a: &TraceSnapshot, b: &TraceSnapshot) -> bool {
    a.tracks.len() == b.tracks.len()
        && a.tracks.iter().zip(&b.tracks).all(|(x, y)| {
            x.name == y.name && x.stage == y.stage && x.dropped == y.dropped && x.events == y.events
        })
}

impl ObsAnalyze {
    pub fn new(seed: u64) -> ObsAnalyze {
        let costs = zoo::uniform(2 * STAGES, 1e9, 100_000, 1_000_000).costs(
            &Device::v100(),
            32,
            Precision::Fp32,
        );
        let config = PipelineConfig::straight(2 * STAGES, &[1, 3, 5]);
        let topo = Topology::flat(Device::v100(), STAGES, LinkModel::new(1e10, 1e-6), "obs");
        let schedule = Schedule::one_f_one_b(&config, MINIBATCHES);
        // Unequal stage speeds give the trace waits and a bottleneck; the
        // seed moves each by under 0.1 %, which changes every timestamp
        // but not which spans exist.
        let mut rng = gen::rng(seed, 0);
        let speeds = [1.0, 0.8, 1.25, 0.9]
            .iter()
            .map(|s| s * (1.0 + 1e-3 * rng.gen::<f64>()))
            .collect();
        let sim = PipelineSim::new(&costs, &topo, &schedule)
            .with_worker_speeds(speeds)
            .run();
        let snap = sim_to_snapshot(&sim, &config);
        let spans = snap.tracks.iter().map(|t| t.events.len() as u64).sum();
        ObsAnalyze {
            sim,
            config,
            snap,
            spans,
            trace_bytes: 0,
            steps_ms: BTreeMap::new(),
        }
    }
}

/// Run one step of the pass inside a span and note how long it took.
fn step<R>(
    t: &mut Tracer,
    steps: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let out = t.span("obs", name, |_| f());
    steps.push((name, t0.elapsed().as_secs_f64()));
    out
}

impl Workload for ObsAnalyze {
    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let mut steps = Vec::new();
        rep.attempted = 1;
        let doc = step(t, &mut steps, "render_chrome_trace", || {
            render_chrome_trace(&self.snap)
        });
        let parsed = match step(t, &mut steps, "parse_chrome_trace", || {
            parse_chrome_trace(&doc)
        }) {
            Ok(p) => p,
            Err(e) => {
                rep.failures.push(format!("parse_chrome_trace: {e}"));
                return rep;
            }
        };
        let parse_s = steps[1].1;
        let report = step(t, &mut steps, "analyze_trace", || analyze_trace(&parsed));
        black_box(step(t, &mut steps, "stage_times", || stage_times(&parsed)));
        black_box(step(t, &mut steps, "LiveProfiler::replay", || {
            LiveProfiler::replay(&parsed)
        }));
        step(t, &mut steps, "what_if", || {
            for stage in 0..STAGES {
                black_box(what_if(&report, stage, 0.25));
            }
        });

        rep.check(same_snapshot(&parsed, &self.snap), || {
            "parse(render(s)) != s".into()
        });
        for s in &report.per_stage {
            let wall = report.wall_s * s.tracks as f64;
            rep.check((s.breakdown.total_s() - wall).abs() <= 1e-6, || {
                format!(
                    "stage {}: attribution {} != wall {wall}",
                    s.stage,
                    s.breakdown.total_s()
                )
            });
        }
        rep.check(report.per_stage.len() == STAGES, || {
            format!("{} stages", report.per_stage.len())
        });

        self.trace_bytes = doc.len();
        rep.work = self.spans as f64;
        rep.secs = steps.iter().map(|s| s.1).sum();
        rep.ops_us.push(rep.secs * 1e6);
        rep.slow_us.push(parse_s * 1e6);
        rep.exact = vec![("obs.trace_spans", self.spans)];
        if t.is_on() {
            for (name, secs) in steps {
                self.steps_ms.entry(name).or_default().push(secs * 1e3);
            }
        }
        rep
    }

    fn layer_metrics(&mut self, t: &mut Tracer, out: &mut LayerMetrics) {
        for (step, metric) in [
            ("render_chrome_trace", "obs.render_ms"),
            ("parse_chrome_trace", "obs.parse_ms"),
            ("analyze_trace", "obs.critical_path_ms"),
            ("stage_times", "obs.stage_times_ms"),
            ("LiveProfiler::replay", "obs.live_replay_ms"),
        ] {
            out.insert(metric, median(&self.steps_ms[step]));
        }
        out.insert(
            "obs.what_if_us",
            median(&self.steps_ms["what_if"]) * 1e3 / STAGES as f64,
        );
        out.insert("obs.trace_bytes", self.trace_bytes as f64);
        out.insert("obs.trace_spans", self.spans as f64);
        out.insert(
            "obs.dropped_spans",
            self.snap.tracks.iter().map(|t| t.dropped).sum::<u64>() as f64,
        );
        let simtrace_s = t.span("obs", "sim_to_snapshot", |_| {
            time_median(20, || {
                black_box(sim_to_snapshot(&self.sim, &self.config));
            })
        });
        out.insert("obs.simtrace_ms", simtrace_s * 1e3);

        // Recording side: one span into a ring, and a snapshot of a
        // session shaped like a 4-stage run.
        probe_record_span(t, out);
        let session = TraceSession::new();
        for stage in 0..STAGES {
            let rec = session.stage_recorder(&format!("stage{stage}.replica0"), stage);
            for mb in 0..4096 {
                let s = rec.begin();
                rec.end(s, SpanKind::Bwd { mb });
            }
        }
        let snapshot_s = t.span("obs", "TraceSession::snapshot", |_| {
            time_median(20, || {
                black_box(session.snapshot());
            })
        });
        out.insert("obs.snapshot_ms", snapshot_s * 1e3);
    }
}
