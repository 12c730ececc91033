//! Acceptance test for `pipedream analyze`: a real training run with a
//! persistent `straggle:` [`FaultPlan`] on one stage must come back from the
//! critical-path analyzer with
//!
//! 1. the delayed stage ranked #1 by critical-path share,
//! 2. `wait_upstream` as the downstream neighbor's dominant bubble,
//! 3. per-cause attribution that sums to wall-clock on every stage, and
//! 4. a what-if estimate for speeding the straggler up that lands within
//!    15% of the discrete-event simulator's prediction for the same
//!    speedup.

use pipedream_autopilot::FaultPlan;
use pipedream_cli::args::AnalyzeArgs;
use pipedream_cli::commands::analyze;
use pipedream_core::schedule::Schedule;
use pipedream_core::PipelineConfig;
use pipedream_hw::{Device, LinkModel, Topology};
use pipedream_model::profile::LayerCost;
use pipedream_model::LayerCosts;
use pipedream_obs::{analyze_trace, render_chrome_trace, what_if, BubbleCause, TraceSession};
use pipedream_runtime::trainer::try_train_pipeline;
use pipedream_runtime::{LrSchedule, OptimKind, Semantics, TrainOpts};
use pipedream_sim::simulate_pipeline;
use pipedream_tensor::data::blobs;
use pipedream_tensor::init::rng;
use pipedream_tensor::layers::{Linear, Tanh};
use pipedream_tensor::Sequential;
use std::sync::Arc;

const STAGES: usize = 3;
const STRAGGLER_STAGE: usize = 1;
/// Milliseconds the straggler delays each send.
const DELAY_MS: u64 = 4;

/// The CLI demo pipeline: a 2·stages-layer MLP on the blobs task.
fn demo_pipeline(seed: u64) -> (Sequential, PipelineConfig, pipedream_tensor::data::Dataset) {
    let width = 32usize;
    let mut r = rng(seed);
    let mut model = Sequential::new("straggler-mlp").push(Linear::new(8, width, &mut r));
    for _ in 0..(2 * STAGES - 3) {
        model.push_boxed(Box::new(Tanh::new()));
        model.push_boxed(Box::new(Linear::new(width, width, &mut r)));
    }
    model.push_boxed(Box::new(Linear::new(width, 4, &mut r)));
    let n_layers = model.len();
    let boundaries: Vec<usize> = (1..STAGES).map(|i| i * n_layers / STAGES - 1).collect();
    let config = PipelineConfig::straight(n_layers, &boundaries);
    let data = blobs(256, 8, 4, 0.8, seed ^ 0xda7a);
    (model, config, data)
}

#[test]
fn straggler_run_analyzes_end_to_end() {
    let (model, config, data) = demo_pipeline(7);
    let (train_set, _) = data.split(0.25);
    let session = TraceSession::new();
    let opts = TrainOpts {
        epochs: 4,
        batch: 16,
        optim: OptimKind::Sgd {
            lr: 0.05,
            momentum: 0.0,
        },
        semantics: Semantics::Stashed,
        lr_schedule: LrSchedule::Constant,
        obs: Some(session.clone()),
        ..TrainOpts::default()
    };
    let spec = format!("straggle:stage={STRAGGLER_STAGE},ms={DELAY_MS}");
    let hook = Arc::new(FaultPlan::parse(&spec).unwrap());
    try_train_pipeline(model, &config, &train_set, &opts, Some(hook.clone()))
        .expect("straggler run trains to completion");
    assert!(hook.straggled() > 0, "the straggler must actually fire");

    let snap = session.snapshot();
    let report = analyze_trace(&snap);
    let wall = report.wall_s;
    assert!(wall > 0.0);
    assert!(report.minibatches > 0);

    // (1) The delayed stage tops the ranked critical-path report, both in
    // the structured report and in the CLI's rendered text (the line the
    // CI smoke job greps for).
    assert_eq!(
        report.bottleneck_stage(),
        Some(STRAGGLER_STAGE),
        "ranked: {:?}",
        report
            .ranked()
            .iter()
            .map(|c| (c.stage, c.seconds))
            .collect::<Vec<_>>()
    );
    let dir = std::env::temp_dir().join(format!("pd-analyze-straggler-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("straggler.json");
    std::fs::write(&path, render_chrome_trace(&snap)).unwrap();
    let out = analyze(AnalyzeArgs {
        trace: path.to_string_lossy().into_owned(),
        top: STAGES,
        what_if: None,
        sim: None,
        json: false,
    })
    .unwrap();
    assert!(
        out.contains(&format!("#1 stage {STRAGGLER_STAGE}")),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // (2) The downstream neighbor starves on the straggler: its dominant
    // bubble cause is wait_upstream.
    let downstream = report.stage(STRAGGLER_STAGE + 1).expect("stage exists");
    let (cause, seconds) = downstream.breakdown.top_bubble().expect("has bubbles");
    assert_eq!(
        cause,
        BubbleCause::WaitUpstream,
        "downstream top bubble was {} ({seconds:.4}s): {:?}",
        cause.name(),
        downstream.breakdown
    );

    // (3) Every stage's per-cause attribution is an exact partition of
    // wall-clock (× its track count), within float tolerance.
    for s in &report.per_stage {
        let total = s.breakdown.total_s();
        let expect = wall * s.tracks as f64;
        assert!(
            (total - expect).abs() <= 1e-6 * expect.max(1e-9),
            "stage {}: causes sum to {total:.9}s, wall is {expect:.9}s",
            s.stage
        );
    }

    // (4) What-if vs the simulator. Model the measured pipeline in the
    // discrete-event simulator — one layer per stage, each costing the
    // *measured* per-minibatch service (which folds in the injected
    // delay) — and ask both the analyzer and the simulator what happens
    // when the straggler stage gets 30% faster. The straggler still
    // bounds the pipeline afterwards (the delay dwarfs real compute), so
    // this exercises the Amdahl estimate in its meaningful regime.
    let speedup = 0.30;
    let services: Vec<f64> = (0..STAGES)
        .map(|s| report.stage(s).expect("stage exists").service_per_mb_s)
        .collect();
    let layer = |name: &str, service: f64| LayerCost {
        name: name.to_string(),
        fwd_s: service / 2.0,
        bwd_s: service / 2.0,
        activation_bytes: 1_000,
        weight_bytes: 1_000,
    };
    let sim_costs = |scale_straggler: f64| LayerCosts {
        model: "measured-services".into(),
        batch: 16,
        layers: services
            .iter()
            .enumerate()
            .map(|(s, &svc)| {
                let svc = if s == STRAGGLER_STAGE {
                    svc * scale_straggler
                } else {
                    svc
                };
                layer(&format!("stage{s}"), svc)
            })
            .collect(),
    };
    let sim_config = PipelineConfig::straight(STAGES, &[0, 1]);
    let topo = Topology::flat(
        Device::v100(),
        STAGES,
        LinkModel::new(1e12, 1e-6),
        "measured",
    );
    let schedule = Schedule::one_f_one_b(&sim_config, report.minibatches);
    let sim_pred = simulate_pipeline(&sim_costs(1.0 - speedup), &topo, &schedule);
    let estimate = what_if(&report, STRAGGLER_STAGE, speedup);
    let rel =
        (estimate.predicted_per_mb_s - sim_pred.per_minibatch_s).abs() / sim_pred.per_minibatch_s;
    assert!(
        rel <= 0.15,
        "what-if predicted {:.6}s/mb, simulator predicts {:.6}s/mb ({:.1}% apart)",
        estimate.predicted_per_mb_s,
        sim_pred.per_minibatch_s,
        rel * 100.0
    );
    assert!(estimate.predicted_gain_frac > 0.0, "{estimate:?}");
}
