//! `trace-validate`: close the profile → plan → run loop with real traces.
//!
//! The planner predicts per-stage compute from a profile, the simulator
//! predicts pipeline throughput from the same numbers — and the runtime
//! *measures* both from a traced training run. This experiment profiles a
//! real model on this machine, plans a straight pipeline, trains it under a
//! [`pipedream_obs::TraceSession`], and reports measured-vs-predicted error
//! per stage plus measured-vs-simulated steady-state throughput.
//!
//! Profiling calibrates layer FLOPs against the *same* device model the
//! planner uses, so predictions come out in this machine's wall-clock
//! seconds and the comparison is apples-to-apples.

use crate::util::format_table;
use pipedream_core::schedule::Schedule;
use pipedream_core::{PipelineConfig, Planner};
use pipedream_hw::{Device, LinkModel, Precision, Topology};
use pipedream_model::profile_sequential;
use pipedream_obs::{TraceSession, TraceValidation};
use pipedream_runtime::trainer::train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_sim::simulate_pipeline;
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Tanh};
use pipedream_tensor::{Sequential, Tensor};
use std::fmt;

const STAGES: usize = 4;
const BATCH: usize = 32;
const WIDTH: usize = 256;

fn model(seed: u64) -> Sequential {
    let mut r = rng(seed);
    let mut m = Sequential::new("trace-validate-mlp").push(Linear::new(16, WIDTH, &mut r));
    for _ in 0..(STAGES * 2 - 3) {
        m.push_boxed(Box::new(Tanh::new()));
        let lin = Linear::new(WIDTH, WIDTH, &mut r);
        m.push_boxed(Box::new(lin));
    }
    m.push_boxed(Box::new(Linear::new(WIDTH, 4, &mut r)));
    m
}

/// The experiment's result: the obs crate's validation record plus the
/// measured wall time it came from.
#[derive(Debug, Clone)]
pub struct TraceValidate {
    /// Measured-vs-planned comparison from the traced run.
    pub validation: TraceValidation,
    /// Wall time of the traced training run (seconds).
    pub wall_time_s: f64,
}

/// Run the experiment: profile, plan, simulate, train traced, compare.
pub fn run(epochs: usize) -> TraceValidate {
    // Stage workers run as threads on this machine; model the "cluster" as
    // flat workers of the calibration device with a near-free interconnect,
    // matching in-process channel transport.
    let topo = Topology::flat(
        Device::v100(),
        STAGES,
        LinkModel::new(1e14, 0.0),
        "local-threads",
    );

    // §3.1 profiling at the training batch size, calibrated to topo.device
    // so planner predictions land in real seconds on this machine.
    let mut prof_model = model(5);
    let profile = profile_sequential(
        &mut prof_model,
        &Tensor::zeros(&[BATCH, 16]),
        1,
        3,
        &topo.device,
    );
    let costs = profile.costs(&topo.device, BATCH, Precision::Fp32);
    let planner = Planner::from_costs(costs.clone(), &topo);
    let boundaries = planner
        .balanced_boundaries(STAGES)
        .expect("model splits into stages");
    let config = PipelineConfig::straight(profile.num_layers(), &boundaries);

    let predicted: Vec<f64> = planner
        .predicted_stage_times(&config)
        .iter()
        .map(|p| p.effective_s)
        .collect();
    let sim = simulate_pipeline(&costs, &topo, &Schedule::one_f_one_b(&config, 48));

    // The measured side: a real traced run on the same split.
    let data = blobs(256, 16, 4, 0.7, 11);
    let session = TraceSession::new();
    let opts = TrainOpts {
        epochs,
        batch: BATCH,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        depth: None,
        obs: Some(session.clone()),
        ..TrainOpts::default()
    };
    let (_, report) = train_pipeline(model(5), &config, &data, &opts);
    let validation =
        pipedream_obs::validate(&session.snapshot(), &predicted, sim.per_minibatch_s, BATCH);
    TraceValidate {
        validation,
        wall_time_s: report.wall_time_s,
    }
}

impl TraceValidate {
    /// CSV: per-stage rows then a throughput summary row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("stage,measured_s,predicted_s,error_frac\n");
        for s in &self.validation.per_stage {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.4}\n",
                s.stage, s.measured_s, s.predicted_s, s.error_frac
            ));
        }
        out.push_str(&format!(
            "throughput,{:.6},{:.6},{:.4}\n",
            self.validation.measured_per_minibatch_s,
            self.validation.simulated_per_minibatch_s,
            self.validation.throughput_error_frac
        ));
        out
    }
}

impl fmt::Display for TraceValidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Measured vs planned stage times ({}-stage pipeline, batch {}):\n",
            self.validation.per_stage.len(),
            BATCH
        )?;
        let header = ["stage", "measured (ms/mb)", "predicted (ms/mb)", "error"];
        let rows: Vec<Vec<String>> = self
            .validation
            .per_stage
            .iter()
            .map(|s| {
                vec![
                    s.stage.to_string(),
                    format!("{:.3}", s.measured_s * 1e3),
                    format!("{:.3}", s.predicted_s * 1e3),
                    format!("{:+.1}%", s.error_frac * 100.0),
                ]
            })
            .collect();
        f.write_str(&format_table(&header, &rows))?;
        writeln!(
            f,
            "\nsteady-state minibatch time: measured {:.3} ms vs simulated {:.3} ms ({:+.1}%)",
            self.validation.measured_per_minibatch_s * 1e3,
            self.validation.simulated_per_minibatch_s * 1e3,
            self.validation.throughput_error_frac * 100.0
        )?;
        writeln!(
            f,
            "throughput: measured {:.0} samples/s vs simulated {:.0} samples/s (run wall time {:.2}s)",
            self.validation.measured_samples_per_sec,
            self.validation.simulated_samples_per_sec,
            self.wall_time_s
        )
    }
}
